//! Deterministic fault injection and the crash-sweep harness.
//!
//! [`FaultBackend`] wraps any [`Backend`] and injects one seeded fault at
//! the Nth I/O operation: a hard error, a transient error, a short write,
//! a torn (sector-granular) write, or a simulated power cut that
//! truncates the store back to its last-synced length. After any
//! non-transient fault the backend stays dead — every later operation
//! fails — until [`FaultInjector::heal`] simulates the reboot.
//!
//! [`run_sweep`] is the harness built on top: it replays a deterministic
//! multi-batch ingest workload once per (fault kind × operation index)
//! and asserts the reopened database always lands on a state the clean
//! run produced — the pre-commit snapshot of some batch or its committed
//! result, never a third state.
//!
//! Reproduce a CI failure locally by pinning the knobs the sweep test
//! reads from the environment: `CBVR_FAULT_SEED`, `CBVR_FAULT_TARGET`
//! (`pager` | `wal`) and `CBVR_FAULT_OP` (a single operation index).

use crate::backend::{Backend, MemBackend};
use crate::db::{CbvrDatabase, ManifestSegment};
use crate::error::{Result, StorageError};
use crate::tables::{KeyFrameRecord, VideoRecord};
use crate::wal::fnv1a;
use std::sync::{Arc, Mutex};

/// Sector granularity of torn writes: a power loss mid-write leaves some
/// 512-byte device sectors new and others old.
const SECTOR: usize = 512;

/// What the injected fault does at the trigger operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Hard error; the backend is dead until healed (device unplugged).
    Crash,
    /// One-shot `ErrorKind::Interrupted` error; the next attempt
    /// succeeds. Exercises retry-with-backoff.
    Transient,
    /// A seeded prefix of the buffer lands, then a hard error (partial
    /// `write(2)` at power loss).
    ShortWrite,
    /// A seeded subset of 512-byte sectors lands, then a hard error
    /// (torn page).
    TornSectors,
    /// The store is truncated to its last-synced length, then a hard
    /// error (everything not yet fsynced is lost).
    PowerCut,
}

/// Every fault kind, in sweep order.
pub const ALL_FAULT_KINDS: [FaultKind; 5] = [
    FaultKind::Crash,
    FaultKind::Transient,
    FaultKind::ShortWrite,
    FaultKind::TornSectors,
    FaultKind::PowerCut,
];

/// SplitMix64: the seed stream behind torn-write shapes and the workload.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct InjectorInner {
    /// I/O operations observed so far (reads, writes, truncates, syncs).
    ops: u64,
    /// Absolute operation index at which the armed fault fires.
    trigger: Option<(u64, FaultKind)>,
    /// Set once a non-transient fault fires; every operation fails until
    /// [`FaultInjector::heal`].
    dead_since: Option<u64>,
    /// Errors injected so far (fires and dead-backend failures).
    injected: u64,
    seed: u64,
}

/// What the backend must do for the current operation.
enum Decision {
    Proceed,
    /// Fire the armed fault; the `u64` is the firing operation index.
    Fire(FaultKind, u64),
    /// The backend died at the given operation index.
    Dead(u64),
}

/// Shared, clonable trigger for a [`FaultBackend`]: operation-counted and
/// seeded. The test holds one handle while the engine owns the backend.
#[derive(Clone)]
pub struct FaultInjector {
    inner: Arc<Mutex<InjectorInner>>,
}

impl FaultInjector {
    /// A disarmed injector. `seed` drives short/torn write shapes.
    pub fn new(seed: u64) -> FaultInjector {
        FaultInjector {
            inner: Arc::new(Mutex::new(InjectorInner {
                ops: 0,
                trigger: None,
                dead_since: None,
                injected: 0,
                seed,
            })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, InjectorInner> {
        // A poisoned injector mutex can only come from a panicking test
        // thread; the counters are plain integers, so the state is sound.
        match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Arm the fault to fire at the `nth` I/O operation counted from now
    /// (`nth = 1` fails the very next operation). Clears any dead state.
    pub fn arm_after(&self, nth: u64, kind: FaultKind) {
        let mut inner = self.lock();
        let at = inner.ops.saturating_add(nth.max(1));
        inner.trigger = Some((at, kind));
        inner.dead_since = None;
    }

    /// Disarm and revive the backend (the reboot).
    pub fn heal(&self) {
        let mut inner = self.lock();
        inner.trigger = None;
        inner.dead_since = None;
    }

    /// Total I/O operations observed.
    pub fn ops(&self) -> u64 {
        self.lock().ops
    }

    /// Errors injected so far.
    pub fn injected(&self) -> u64 {
        self.lock().injected
    }

    /// Count one operation and decide its fate.
    fn on_op(&self) -> Decision {
        let mut inner = self.lock();
        inner.ops += 1;
        if let Some(at) = inner.dead_since {
            inner.injected += 1;
            return Decision::Dead(at);
        }
        if let Some((at, kind)) = inner.trigger {
            if inner.ops >= at {
                inner.trigger = None;
                inner.injected += 1;
                if kind != FaultKind::Transient {
                    inner.dead_since = Some(inner.ops);
                }
                return Decision::Fire(kind, inner.ops);
            }
        }
        Decision::Proceed
    }

    /// Seed stream for the fault firing at operation `op`.
    fn shape_rng(&self, op: u64) -> u64 {
        self.lock().seed ^ op.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

fn injected_err(kind: FaultKind, op: u64) -> StorageError {
    let e = match kind {
        FaultKind::Transient => std::io::Error::new(
            std::io::ErrorKind::Interrupted,
            format!("injected fault: transient i/o error at op {op}"),
        ),
        FaultKind::Crash => std::io::Error::other(format!("injected fault: crash at op {op}")),
        FaultKind::ShortWrite => {
            std::io::Error::other(format!("injected fault: short write at op {op}"))
        }
        FaultKind::TornSectors => {
            std::io::Error::other(format!("injected fault: torn write at op {op}"))
        }
        FaultKind::PowerCut => {
            std::io::Error::other(format!("injected fault: power cut at op {op}"))
        }
    };
    StorageError::Io(e)
}

fn dead_err(since: u64) -> StorageError {
    StorageError::Io(std::io::Error::other(format!(
        "injected fault: backend dead since op {since}"
    )))
}

/// A [`Backend`] wrapper that injects the faults its [`FaultInjector`]
/// is armed with. `len`/`is_empty` are metadata probes and are neither
/// counted nor failed; reads, writes, truncates and syncs each count as
/// one operation.
pub struct FaultBackend<B: Backend> {
    inner: B,
    injector: FaultInjector,
    /// Bytes guaranteed durable: length as of the last successful sync.
    /// A power cut truncates back to this.
    synced_len: u64,
}

impl<B: Backend> FaultBackend<B> {
    /// Wrap `inner`. The current length counts as already durable.
    pub fn new(mut inner: B, injector: FaultInjector) -> FaultBackend<B> {
        let synced_len = inner.len().unwrap_or(0);
        FaultBackend { inner, injector, synced_len }
    }

    /// The injector driving this backend.
    pub fn injector(&self) -> FaultInjector {
        self.injector.clone()
    }

    /// Lose everything not yet synced (best effort: the store itself is
    /// healthy, only the writes above the watermark vanish).
    fn power_cut(&mut self) {
        let _ = self.inner.truncate(self.synced_len);
    }

    /// Apply a fired fault on a non-write operation: kinds that only make
    /// sense for writes degrade to a crash.
    fn fire_plain(&mut self, kind: FaultKind, op: u64) -> StorageError {
        if kind == FaultKind::PowerCut {
            self.power_cut();
        }
        injected_err(kind, op)
    }
}

impl<B: Backend> Backend for FaultBackend<B> {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<()> {
        match self.injector.on_op() {
            Decision::Proceed => self.inner.read_at(offset, buf),
            Decision::Fire(kind, op) => Err(self.fire_plain(kind, op)),
            Decision::Dead(since) => Err(dead_err(since)),
        }
    }

    fn write_at(&mut self, offset: u64, buf: &[u8]) -> Result<()> {
        match self.injector.on_op() {
            Decision::Proceed => self.inner.write_at(offset, buf),
            Decision::Fire(kind, op) => {
                match kind {
                    FaultKind::ShortWrite => {
                        // A seeded prefix lands before the failure.
                        let mut rng = self.injector.shape_rng(op);
                        let keep = (splitmix64(&mut rng) % (buf.len() as u64 + 1)) as usize;
                        if keep > 0 {
                            let _ = self.inner.write_at(offset, &buf[..keep]);
                        }
                    }
                    FaultKind::TornSectors => {
                        // A seeded subset of sectors lands, out of order
                        // as far as the caller can tell.
                        let mut rng = self.injector.shape_rng(op);
                        for (i, sector) in buf.chunks(SECTOR).enumerate() {
                            if splitmix64(&mut rng) & 1 == 1 {
                                let at = offset + (i * SECTOR) as u64;
                                let _ = self.inner.write_at(at, sector);
                            }
                        }
                    }
                    FaultKind::PowerCut => self.power_cut(),
                    FaultKind::Crash | FaultKind::Transient => {}
                }
                Err(injected_err(kind, op))
            }
            Decision::Dead(since) => Err(dead_err(since)),
        }
    }

    fn len(&mut self) -> Result<u64> {
        self.inner.len()
    }

    fn truncate(&mut self, len: u64) -> Result<()> {
        match self.injector.on_op() {
            Decision::Proceed => {
                self.inner.truncate(len)?;
                self.synced_len = self.synced_len.min(len);
                Ok(())
            }
            Decision::Fire(kind, op) => Err(self.fire_plain(kind, op)),
            Decision::Dead(since) => Err(dead_err(since)),
        }
    }

    fn sync(&mut self) -> Result<()> {
        match self.injector.on_op() {
            Decision::Proceed => {
                self.inner.sync()?;
                if let Ok(len) = self.inner.len() {
                    self.synced_len = len;
                }
                Ok(())
            }
            Decision::Fire(kind, op) => Err(self.fire_plain(kind, op)),
            Decision::Dead(since) => Err(dead_err(since)),
        }
    }
}

// ---- retry-with-backoff ------------------------------------------------

/// Attempts per I/O operation (1 initial + 2 retries).
pub const RETRY_ATTEMPTS: u32 = 3;
/// Backoff unit: retry `n` sleeps `n * RETRY_BASE` (linear). Kept tiny:
/// callers hold no locks worth mentioning, and tests sweep thousands of
/// operations.
const RETRY_BASE: std::time::Duration = std::time::Duration::from_micros(100);

/// Fault counters fed by [`with_retry`], merged into
/// [`crate::telemetry::StorageTelemetry`] by the pager.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Injected errors observed (`storage.fault.injected`).
    pub injected: u64,
    /// Retries attempted after transient errors (`storage.fault.retried`).
    pub retried: u64,
}

impl FaultCounters {
    /// Fold another counter snapshot into this one.
    pub fn merge(&mut self, other: FaultCounters) {
        self.injected += other.injected;
        self.retried += other.retried;
    }
}

/// Run `op`, retrying up to [`RETRY_ATTEMPTS`] times with linear backoff
/// while the error is transient ([`StorageError::is_transient`]).
/// `op` must be idempotent: callers pin offsets and buffers before the
/// first attempt so a retry rewrites exactly the same bytes.
pub fn with_retry<T>(counters: &mut FaultCounters, mut op: impl FnMut() -> Result<T>) -> Result<T> {
    let mut attempt = 0u32;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => {
                if e.is_injected() {
                    counters.injected += 1;
                }
                attempt += 1;
                if !e.is_transient() || attempt >= RETRY_ATTEMPTS {
                    return Err(e);
                }
                counters.retried += 1;
                std::thread::sleep(RETRY_BASE * attempt);
            }
        }
    }
}

// ---- logical state digest ----------------------------------------------

/// FNV-1a digest of the database's complete logical state: id counters,
/// every video row and its blobs, every key-frame row and its image, and
/// the manifest. Two databases with equal digests are observably
/// identical through the public API.
pub fn state_digest<B: Backend>(db: &mut CbvrDatabase<B>) -> Result<u64> {
    let mut buf = Vec::new();
    let stats = db.stats()?;
    buf.extend_from_slice(&stats.next_v_id.to_le_bytes());
    buf.extend_from_slice(&stats.next_i_id.to_le_bytes());
    for (v_id, name, dostore) in db.list_videos()? {
        let full = db.get_video(v_id)?;
        buf.extend_from_slice(&v_id.to_le_bytes());
        buf.extend_from_slice(name.as_bytes());
        buf.push(0);
        buf.extend_from_slice(&dostore.to_le_bytes());
        buf.extend_from_slice(&db.read_video_bytes(&full.row)?);
        buf.extend_from_slice(&db.read_stream_bytes(&full.row)?);
    }
    let mut rows = Vec::new();
    db.scan_key_frames(|row| {
        rows.push(row.clone());
        true
    })?;
    for row in rows {
        buf.extend_from_slice(&row.i_id.to_le_bytes());
        buf.extend_from_slice(row.i_name.as_bytes());
        buf.push(0);
        buf.push(row.min);
        buf.push(row.max);
        for s in
            [&row.sch, &row.glcm, &row.gabor, &row.tamura, &row.acc, &row.naive, &row.srg]
        {
            buf.extend_from_slice(s.as_bytes());
            buf.push(0);
        }
        buf.extend_from_slice(&row.majorregions.to_le_bytes());
        buf.extend_from_slice(&row.v_id.to_le_bytes());
        buf.extend_from_slice(&db.read_image_bytes(&row)?);
    }
    for seg in db.list_manifest()? {
        buf.extend_from_slice(&seg.min_i_id.to_le_bytes());
        buf.extend_from_slice(&seg.max_i_id.to_le_bytes());
        buf.extend_from_slice(&seg.rows.to_le_bytes());
    }
    Ok(fnv1a(&buf))
}

// ---- the sweep workload --------------------------------------------------

/// Batches in the sweep workload. Each batch is one atomic commit, so the
/// only legal recovered states are "after batch k" for `k in 0..=BATCHES`.
pub const WORKLOAD_BATCHES: usize = 5;

fn seeded_bytes(rng: &mut u64, len: usize) -> Vec<u8> {
    (0..len).map(|_| splitmix64(rng) as u8).collect()
}

fn feature_string(rng: &mut u64, terms: usize) -> String {
    let parts: Vec<String> = (0..terms).map(|_| (splitmix64(rng) % 256).to_string()).collect();
    parts.join(" ")
}

fn seeded_key_frame(rng: &mut u64, v_id: u64, f: usize) -> KeyFrameRecord {
    KeyFrameRecord {
        i_name: format!("v{v_id}_kf_{f:03}"),
        image: {
            let len = 300 + (splitmix64(rng) % 200) as usize;
            seeded_bytes(rng, len)
        },
        min: (splitmix64(rng) % 250) as u8,
        max: 250,
        sch: feature_string(rng, 16),
        glcm: feature_string(rng, 6),
        gabor: feature_string(rng, 12),
        tamura: feature_string(rng, 5),
        acc: feature_string(rng, 8),
        naive: feature_string(rng, 4),
        srg: feature_string(rng, 3),
        majorregions: (splitmix64(rng) % 9) as u32,
        v_id,
    }
}

/// Apply workload batch `batch` (0-based) as one atomic commit. Fully
/// deterministic in `(seed, batch)`: batches 0, 1 and 3 are ingest-style
/// (video + key frames + manifest segment), batch 2 mutates in place
/// (rename + key-frame delete) and batch 4 cascade-deletes a video.
pub fn apply_workload_batch<B: Backend>(
    db: &mut CbvrDatabase<B>,
    seed: u64,
    batch: usize,
) -> Result<()> {
    let mut rng = seed ^ (batch as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC0FF_EE00;
    match batch {
        0 | 1 | 3 => db.run_batch(|db| {
            let frames = 2 + (splitmix64(&mut rng) % 3) as usize;
            let video_len = 600 + (splitmix64(&mut rng) % 900) as usize;
            let v_id = db.insert_video(&VideoRecord {
                v_name: format!("video-{batch}"),
                video: seeded_bytes(&mut rng, video_len),
                stream: seeded_bytes(&mut rng, 128),
                dostore: 1_750_000_000 + batch as u64,
            })?;
            let mut min_i = u64::MAX;
            let mut max_i = 0u64;
            for f in 0..frames {
                let record = seeded_key_frame(&mut rng, v_id, f);
                let i_id = db.insert_key_frame(&record)?;
                min_i = min_i.min(i_id);
                max_i = max_i.max(i_id);
            }
            db.append_manifest_segment(ManifestSegment {
                min_i_id: min_i,
                max_i_id: max_i,
                rows: frames as u64,
            })
        }),
        2 => db.run_batch(|db| {
            let videos = db.list_videos()?;
            let (v_id, ..) = videos[0];
            db.rename_video(v_id, "renamed-by-batch-2")?;
            let frames = db.key_frames_of_video(v_id)?;
            if let Some(&i_id) = frames.first() {
                db.delete_key_frame(i_id)?;
            }
            Ok(())
        }),
        4 => db.run_batch(|db| {
            let videos = db.list_videos()?;
            let (v_id, ..) = videos[1];
            db.delete_video(v_id)
        }),
        _ => Err(StorageError::InvalidState(format!("workload has no batch {batch}"))),
    }
}

// ---- the sweep driver ----------------------------------------------------

/// Which backend receives the armed injector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepTarget {
    /// The data file (pager writes and reads).
    Pager,
    /// The write-ahead log.
    Wal,
}

/// Parameters of one sweep invocation.
#[derive(Clone, Copy, Debug)]
pub struct SweepConfig {
    /// Drives blob contents, workload sizes and fault shapes.
    pub seed: u64,
    /// Which backend is faulted.
    pub target: SweepTarget,
    /// Pin the sweep to a single operation index (`CBVR_FAULT_OP`);
    /// `None` sweeps every index `1..=total_ops`.
    pub only_op: Option<u64>,
}

/// One non-convergent recovery, with everything needed to reproduce it.
#[derive(Clone, Debug)]
pub struct SweepFailure {
    /// Seed of the failing run.
    pub seed: u64,
    /// Operation index the fault was armed at.
    pub op: u64,
    /// Fault kind that was injected.
    pub kind: FaultKind,
    /// Backend the fault hit.
    pub target: SweepTarget,
    /// What went wrong.
    pub detail: String,
}

impl std::fmt::Display for SweepFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "seed={} target={:?} kind={:?} op={}: {}",
            self.seed, self.target, self.kind, self.op, self.detail
        )
    }
}

/// Outcome of [`run_sweep`].
#[derive(Clone, Debug, Default)]
pub struct SweepReport {
    /// I/O operations the clean workload performs on the target backend
    /// (the sweep space).
    pub total_ops: u64,
    /// Fault runs executed (kinds × operation indexes).
    pub runs: u64,
    /// Non-convergent recoveries. Empty on success.
    pub failures: Vec<SweepFailure>,
}

type FaultedDb = CbvrDatabase<FaultBackend<MemBackend>>;

fn open_faulted(
    data: &MemBackend,
    wal: &MemBackend,
    seed: u64,
    target: SweepTarget,
) -> Result<(FaultedDb, FaultInjector)> {
    let data_inj = FaultInjector::new(seed);
    let wal_inj = FaultInjector::new(seed);
    let db = CbvrDatabase::open(
        FaultBackend::new(data.share(), data_inj.clone()),
        FaultBackend::new(wal.share(), wal_inj.clone()),
    )?;
    let inj = match target {
        SweepTarget::Pager => data_inj,
        SweepTarget::Wal => wal_inj,
    };
    Ok((db, inj))
}

/// Run the workload against clean in-memory backends, returning the
/// digest after open plus after every batch — the complete set of states
/// a correct recovery may land on.
fn clean_digests(seed: u64) -> Result<Vec<u64>> {
    let mut db = CbvrDatabase::in_memory()?;
    let mut valid = vec![state_digest(&mut db)?];
    for batch in 0..WORKLOAD_BATCHES {
        apply_workload_batch(&mut db, seed, batch)?;
        valid.push(state_digest(&mut db)?);
    }
    Ok(valid)
}

/// Count the I/O operations the clean workload performs on the target
/// backend, giving the sweep its operation space.
fn count_workload_ops(seed: u64, target: SweepTarget) -> Result<u64> {
    let data = MemBackend::new();
    let wal = MemBackend::new();
    let (mut db, inj) = open_faulted(&data, &wal, seed, target)?;
    let start = inj.ops();
    for batch in 0..WORKLOAD_BATCHES {
        apply_workload_batch(&mut db, seed, batch)?;
    }
    Ok(inj.ops() - start)
}

fn sweep_once(
    cfg: &SweepConfig,
    kind: FaultKind,
    op: u64,
    valid: &[u64],
    final_digest: u64,
) -> std::result::Result<(), SweepFailure> {
    let fail = |detail: String| SweepFailure {
        seed: cfg.seed,
        op,
        kind,
        target: cfg.target,
        detail,
    };

    let data = MemBackend::new();
    let wal = MemBackend::new();
    let (mut db, inj) = open_faulted(&data, &wal, cfg.seed, cfg.target)
        .map_err(|e| fail(format!("clean open failed: {e}")))?;
    inj.arm_after(op, kind);

    let mut first_err: Option<(usize, StorageError)> = None;
    for batch in 0..WORKLOAD_BATCHES {
        match apply_workload_batch(&mut db, cfg.seed, batch) {
            Ok(()) => {}
            Err(e) => {
                first_err = Some((batch, e));
                break;
            }
        }
    }
    let telemetry = db.telemetry();
    drop(db);
    inj.heal();

    if kind == FaultKind::Transient {
        // A single transient blip must be absorbed by retry-with-backoff:
        // the workload completes and matches the clean run exactly.
        if let Some((batch, e)) = first_err {
            return Err(fail(format!("transient fault at batch {batch} escaped retry: {e}")));
        }
        if telemetry.fault_retried == 0 {
            return Err(fail("transient fault left no storage.fault.retried trace".into()));
        }
    } else {
        if inj.injected() == 0 {
            return Err(fail("armed fault never fired inside the workload".into()));
        }
        if telemetry.fault_injected == 0 {
            return Err(fail("injected fault invisible to storage telemetry".into()));
        }
    }

    // Reboot: reopen from the surviving bytes, fault-free.
    let mut db = CbvrDatabase::open(data.share(), wal.share())
        .map_err(|e| fail(format!("reopen after crash failed: {e}")))?;
    let digest = state_digest(&mut db).map_err(|e| fail(format!("post-recovery digest: {e}")))?;
    if kind == FaultKind::Transient {
        if digest != final_digest {
            return Err(fail("state after absorbed transient differs from the clean run".into()));
        }
    } else if !valid.contains(&digest) {
        return Err(fail(format!(
            "recovered to a third state: digest {digest:#018x} matches none of the {} \
             legal pre/post-commit states",
            valid.len()
        )));
    }

    // The recovered database must accept new work.
    let probe = VideoRecord {
        v_name: "post-recovery-probe".into(),
        video: vec![7u8; 64],
        stream: vec![9u8; 16],
        dostore: 1,
    };
    db.insert_video(&probe)
        .map_err(|e| fail(format!("post-recovery probe insert failed: {e}")))?;
    Ok(())
}

/// Replay the multi-batch workload once per (fault kind × operation
/// index), asserting every recovery converges to a pre- or post-commit
/// state of some batch — never a third state. Errors are reserved for a
/// broken harness (the clean run itself failing); non-convergent
/// recoveries are reported in [`SweepReport::failures`].
pub fn run_sweep(cfg: &SweepConfig) -> Result<SweepReport> {
    let valid = clean_digests(cfg.seed)?;
    let final_digest = *valid.last().expect("clean run produced at least one digest");
    let total_ops = count_workload_ops(cfg.seed, cfg.target)?;

    let mut report = SweepReport { total_ops, ..SweepReport::default() };
    for kind in ALL_FAULT_KINDS {
        let ops: Vec<u64> = match cfg.only_op {
            Some(op) => vec![op.clamp(1, total_ops)],
            None => (1..=total_ops).collect(),
        };
        for op in ops {
            report.runs += 1;
            if let Err(failure) = sweep_once(cfg, kind, op, &valid, final_digest) {
                report.failures.push(failure);
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injector_counts_and_fires_at_nth_op() {
        let inj = FaultInjector::new(0);
        let mut b = FaultBackend::new(MemBackend::new(), inj.clone());
        b.write_at(0, &[1, 2, 3]).unwrap(); // op 1
        inj.arm_after(2, FaultKind::Crash);
        b.sync().unwrap(); // op 2 — one op of budget left
        let err = b.write_at(0, &[4]).unwrap_err(); // op 3 — fires
        assert!(err.is_injected());
        assert!(!err.is_transient());
        // Dead until healed — reads too.
        let mut buf = [0u8; 1];
        assert!(b.read_at(0, &mut buf).is_err());
        assert!(b.sync().is_err());
        inj.heal();
        b.read_at(0, &mut buf).unwrap();
        assert_eq!(buf[0], 1);
        assert!(inj.injected() >= 2);
    }

    #[test]
    fn transient_fires_once_then_recovers() {
        let inj = FaultInjector::new(0);
        let mut b = FaultBackend::new(MemBackend::new(), inj.clone());
        inj.arm_after(1, FaultKind::Transient);
        let err = b.write_at(0, &[1]).unwrap_err();
        assert!(err.is_transient());
        assert!(err.is_injected());
        b.write_at(0, &[1]).unwrap(); // next attempt succeeds
    }

    #[test]
    fn power_cut_loses_unsynced_bytes_only() {
        let inj = FaultInjector::new(7);
        let mem = MemBackend::new();
        let mut b = FaultBackend::new(mem.share(), inj.clone());
        b.write_at(0, &[1u8; 100]).unwrap();
        b.sync().unwrap(); // durable watermark: 100
        b.write_at(100, &[2u8; 50]).unwrap(); // never synced
        inj.arm_after(1, FaultKind::PowerCut);
        assert!(b.sync().is_err());
        inj.heal();
        assert_eq!(mem.share().len().unwrap(), 100, "unsynced tail lost, synced prefix kept");
    }

    #[test]
    fn short_write_lands_a_prefix() {
        let inj = FaultInjector::new(3);
        let mem = MemBackend::new();
        let mut b = FaultBackend::new(mem.share(), inj.clone());
        inj.arm_after(1, FaultKind::ShortWrite);
        assert!(b.write_at(0, &[0xAB; 4096]).is_err());
        let len = mem.share().len().unwrap();
        assert!(len < 4096, "short write must not land the full buffer (landed {len})");
    }

    #[test]
    fn torn_write_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let inj = FaultInjector::new(seed);
            let mem = MemBackend::new();
            let mut b = FaultBackend::new(mem.share(), inj.clone());
            b.write_at(0, &[0u8; 4096]).unwrap();
            b.sync().unwrap();
            inj.arm_after(1, FaultKind::TornSectors);
            assert!(b.write_at(0, &[0xFF; 4096]).is_err());
            let mut buf = vec![0u8; 4096];
            mem.share().read_at(0, &mut buf).unwrap();
            buf
        };
        assert_eq!(run(1), run(1), "same seed, same torn shape");
        assert_ne!(run(1), run(2), "different seeds should tear differently");
    }

    #[test]
    fn with_retry_absorbs_transients_and_counts() {
        let mut counters = FaultCounters::default();
        let mut calls = 0;
        let out: Result<u32> = with_retry(&mut counters, || {
            calls += 1;
            if calls < 3 {
                Err(StorageError::Io(std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    "injected fault: transient",
                )))
            } else {
                Ok(99)
            }
        });
        assert_eq!(out.unwrap(), 99);
        assert_eq!(calls, 3);
        assert_eq!(counters.retried, 2);
        assert_eq!(counters.injected, 2);
    }

    #[test]
    fn with_retry_gives_up_on_hard_errors() {
        let mut counters = FaultCounters::default();
        let mut calls = 0;
        let out: Result<()> = with_retry(&mut counters, || {
            calls += 1;
            Err(StorageError::Io(std::io::Error::other("disk on fire")))
        });
        assert!(out.is_err());
        assert_eq!(calls, 1, "hard errors must not be retried");
        assert_eq!(counters.retried, 0);
        assert_eq!(counters.injected, 0);
    }

    #[test]
    fn workload_is_deterministic() {
        let run = || -> u64 {
            let mut db = CbvrDatabase::in_memory().unwrap();
            for batch in 0..WORKLOAD_BATCHES {
                apply_workload_batch(&mut db, 42, batch).unwrap();
            }
            state_digest(&mut db).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn workload_batches_change_the_digest() {
        let mut db = CbvrDatabase::in_memory().unwrap();
        let mut digests = vec![state_digest(&mut db).unwrap()];
        for batch in 0..WORKLOAD_BATCHES {
            apply_workload_batch(&mut db, 0, batch).unwrap();
            digests.push(state_digest(&mut db).unwrap());
        }
        let unique: std::collections::HashSet<_> = digests.iter().collect();
        assert_eq!(unique.len(), digests.len(), "every batch must move the state");
    }

    #[test]
    fn sweep_single_op_smoke() {
        // Full sweeps live in tests/fault_sweep.rs; here just prove the
        // driver converges on one pinned op per target.
        for target in [SweepTarget::Pager, SweepTarget::Wal] {
            let cfg = SweepConfig { seed: 0, target, only_op: Some(3) };
            let report = run_sweep(&cfg).unwrap();
            assert_eq!(report.runs, ALL_FAULT_KINDS.len() as u64);
            assert!(
                report.failures.is_empty(),
                "sweep failures: {:?}",
                report.failures.iter().map(|f| f.to_string()).collect::<Vec<_>>()
            );
        }
    }
}
