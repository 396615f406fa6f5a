//! The fault-injection sweep: replay the multi-batch commit workload
//! with a deterministic fault armed at every Nth I/O operation on the
//! pager and WAL backends, and assert every recovery converges to a
//! legal pre- or post-commit state — never a third state.
//!
//! Reproduce a CI failure locally by exporting the env line recorded in
//! `FAULT_SWEEP_FAILURE.txt`:
//!
//! ```text
//! CBVR_FAULT_SEED=1 CBVR_FAULT_TARGET=wal CBVR_FAULT_OP=37 \
//!     cargo test --release -p cbvr-storage --test fault_sweep
//! ```

use cbvr_storage::backend::{Backend, MemBackend};
use cbvr_storage::{run_sweep, FaultBackend, FaultInjector, SweepConfig, SweepTarget};
use proptest::prelude::*;
use std::io::Write as _;

/// Artifact CI uploads when a sweep does not converge.
const FAILURE_ARTIFACT: &str = "FAULT_SWEEP_FAILURE.txt";

fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return None;
    }
    match trimmed.parse() {
        Ok(v) => Some(v),
        Err(_) => panic!("{name}={trimmed:?} is not a non-negative integer"),
    }
}

fn env_targets() -> Vec<SweepTarget> {
    match std::env::var("CBVR_FAULT_TARGET")
        .ok()
        .as_deref()
        .map(str::trim)
    {
        None | Some("") => vec![SweepTarget::Pager, SweepTarget::Wal],
        Some("pager") => vec![SweepTarget::Pager],
        Some("wal") => vec![SweepTarget::Wal],
        Some(other) => panic!("CBVR_FAULT_TARGET={other:?}: expected \"pager\" or \"wal\""),
    }
}

fn target_env_name(target: SweepTarget) -> &'static str {
    match target {
        SweepTarget::Pager => "pager",
        SweepTarget::Wal => "wal",
    }
}

/// Drive the sweep for one seed × target, writing the CI artifact and
/// panicking on any non-convergent recovery.
fn sweep(seed: u64, target: SweepTarget) {
    let cfg = SweepConfig {
        seed,
        target,
        only_op: env_u64("CBVR_FAULT_OP"),
    };
    let report = run_sweep(&cfg).expect("sweep harness must not error on the clean run");
    eprintln!(
        "fault sweep: seed={seed} target={} ops={} runs={} failures={}",
        target_env_name(target),
        report.total_ops,
        report.runs,
        report.failures.len(),
    );
    assert!(
        report.total_ops > 0,
        "workload performed no I/O on the target backend"
    );
    assert!(report.runs > 0, "sweep executed no fault runs");
    if report.failures.is_empty() {
        return;
    }

    // Record every failure plus a copy-paste repro line, then fail loudly.
    let mut artifact = String::new();
    for failure in &report.failures {
        artifact.push_str(&format!(
            "{failure}\nrepro: CBVR_FAULT_SEED={} CBVR_FAULT_TARGET={} CBVR_FAULT_OP={} \
             cargo test --release -p cbvr-storage --test fault_sweep\n",
            failure.seed,
            target_env_name(failure.target),
            failure.op,
        ));
    }
    if let Ok(mut f) = std::fs::File::create(FAILURE_ARTIFACT) {
        let _ = f.write_all(artifact.as_bytes());
    }
    panic!(
        "{} of {} fault runs recovered to a third state (details in {FAILURE_ARTIFACT}):\n{artifact}",
        report.failures.len(),
        report.runs,
    );
}

/// The full sweep: every fault kind at every operation index of the
/// multi-batch workload, for each seed/target selected by the env.
/// Locally this defaults to seed 0 on both backends; the CI fault-matrix
/// job fans seeds {0,1,2} × targets {pager,wal} across jobs.
#[test]
fn every_fault_op_converges_to_a_legal_state() {
    let seeds = match env_u64("CBVR_FAULT_SEED") {
        Some(seed) => vec![seed],
        None => vec![0],
    };
    for seed in seeds {
        for target in env_targets() {
            sweep(seed, target);
        }
    }
}

// ---- faults=0 transparency ------------------------------------------------

/// One random backend operation.
#[derive(Clone, Debug)]
enum BackendOp {
    Write { offset: u64, bytes: Vec<u8> },
    Read { offset: u64, len: usize },
    Truncate { len: u64 },
    Sync,
    Len,
}

fn arb_op() -> impl Strategy<Value = BackendOp> {
    prop_oneof![
        4 => (0u64..6000, proptest::collection::vec(any::<u8>(), 0..700))
            .prop_map(|(offset, bytes)| BackendOp::Write { offset, bytes }),
        3 => (0u64..6000, 0usize..700)
            .prop_map(|(offset, len)| BackendOp::Read { offset, len }),
        1 => (0u64..8000).prop_map(|len| BackendOp::Truncate { len }),
        1 => Just(BackendOp::Sync),
        1 => Just(BackendOp::Len),
    ]
}

fn apply(backend: &mut impl Backend, op: &BackendOp) -> Result<Vec<u8>, String> {
    match op {
        BackendOp::Write { offset, bytes } => {
            backend
                .write_at(*offset, bytes)
                .map_err(|e| e.to_string())?;
            Ok(Vec::new())
        }
        BackendOp::Read { offset, len } => {
            let mut buf = vec![0u8; *len];
            backend
                .read_at(*offset, &mut buf)
                .map_err(|e| e.to_string())?;
            Ok(buf)
        }
        BackendOp::Truncate { len } => {
            backend.truncate(*len).map_err(|e| e.to_string())?;
            Ok(Vec::new())
        }
        BackendOp::Sync => {
            backend.sync().map_err(|e| e.to_string())?;
            Ok(Vec::new())
        }
        BackendOp::Len => {
            let len = backend.len().map_err(|e| e.to_string())?;
            Ok(len.to_le_bytes().to_vec())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With no fault armed, `FaultBackend` must be a bit-identical,
    /// result-identical pass-through over the wrapped backend: same
    /// successes, same failures, same bytes read, same final contents.
    #[test]
    fn disarmed_fault_backend_is_transparent(
        seed in any::<u64>(),
        ops in proptest::collection::vec(arb_op(), 1..60),
    ) {
        let plain_store = MemBackend::new();
        let faulted_store = MemBackend::new();
        let mut plain = plain_store.share();
        let mut faulted =
            FaultBackend::new(faulted_store.share(), FaultInjector::new(seed));

        for op in &ops {
            let a = apply(&mut plain, op);
            let b = apply(&mut faulted, op);
            prop_assert_eq!(a.is_ok(), b.is_ok(), "result kind diverged on {:?}", op);
            if let (Ok(a), Ok(b)) = (a, b) {
                prop_assert_eq!(a, b, "payload diverged on {:?}", op);
            }
        }
        prop_assert_eq!(faulted.injector().injected(), 0, "nothing may fire while disarmed");

        // Final contents are bit-identical.
        let len = plain.len().unwrap();
        prop_assert_eq!(faulted.len().unwrap(), len);
        let mut a = vec![0u8; len as usize];
        let mut b = vec![0u8; len as usize];
        if len > 0 {
            plain.read_at(0, &mut a).unwrap();
            faulted.read_at(0, &mut b).unwrap();
        }
        prop_assert_eq!(a, b, "final backend contents diverged");
    }
}
