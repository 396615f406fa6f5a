//! Storage-engine torture tests: random workloads against a model, with
//! periodic crash-and-recover cycles.

use cbvr_storage::backend::MemBackend;
use cbvr_storage::{
    CbvrDatabase, FaultBackend, FaultInjector, FaultKind, KeyFrameRecord, VideoRecord,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn video_record(tag: u64, size: usize) -> VideoRecord {
    VideoRecord {
        v_name: format!("video-{tag}"),
        video: (0..size).map(|i| ((i as u64 ^ tag) % 256) as u8).collect(),
        stream: vec![(tag % 256) as u8; 64],
        dostore: tag,
    }
}

fn kf_record(v_id: u64, tag: u64) -> KeyFrameRecord {
    KeyFrameRecord {
        i_name: format!("kf-{tag}"),
        image: vec![(tag % 251) as u8; (tag % 600) as usize + 10],
        min: (tag % 128) as u8,
        max: (tag % 128) as u8 + 127,
        sch: format!("RGB 256 {tag}"),
        glcm: "GLCM 1 2 3 4 5 6".into(),
        gabor: "gabor 60 0".into(),
        tamura: "Tamura 18 0 0".into(),
        acc: "ACC 4 0".into(),
        naive: "NaiveVector".into(),
        srg: "SRG 1 0 1".into(),
        majorregions: (tag % 5) as u32,
        v_id,
    }
}

/// One workload step.
#[derive(Clone, Debug)]
enum Op {
    InsertVideo { size: usize },
    InsertKeyFrame,
    DeleteVideo,
    Rename,
    Reopen,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (100usize..20_000).prop_map(|size| Op::InsertVideo { size }),
        4 => Just(Op::InsertKeyFrame),
        1 => Just(Op::DeleteVideo),
        1 => Just(Op::Rename),
        1 => Just(Op::Reopen),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_workload_matches_model(ops in proptest::collection::vec(arb_op(), 1..40)) {
        let data = MemBackend::new();
        let wal = MemBackend::new();
        let mut db = CbvrDatabase::open(data.share(), wal.share()).unwrap();

        // Model: video id → (name, video size, key-frame ids).
        let mut model: BTreeMap<u64, (String, usize, Vec<u64>)> = BTreeMap::new();
        let mut tag = 0u64;

        // Telemetry model: with autocommit, every mutating op that reaches
        // the engine is exactly one WAL commit. Counters reset per pager
        // instance, so track a baseline captured at each (re)open.
        let mut commits_base = db.telemetry().wal_commits;
        let mut committed_ops = 0u64;

        for op in ops {
            tag += 1;
            match op {
                Op::InsertVideo { size } => {
                    let record = video_record(tag, size);
                    let v_id = db.insert_video(&record).unwrap();
                    model.insert(v_id, (record.v_name, size, Vec::new()));
                    committed_ops += 1;
                }
                Op::InsertKeyFrame => {
                    let Some((&v_id, _)) = model.iter().next_back() else { continue };
                    let i_id = db.insert_key_frame(&kf_record(v_id, tag)).unwrap();
                    model.get_mut(&v_id).unwrap().2.push(i_id);
                    committed_ops += 1;
                }
                Op::DeleteVideo => {
                    let Some((&v_id, _)) = model.iter().next() else { continue };
                    db.delete_video(v_id).unwrap();
                    model.remove(&v_id);
                    committed_ops += 1;
                }
                Op::Rename => {
                    let Some((&v_id, _)) = model.iter().next() else { continue };
                    let name = format!("renamed-{tag}");
                    db.rename_video(v_id, &name).unwrap();
                    model.get_mut(&v_id).unwrap().0 = name;
                    committed_ops += 1;
                }
                Op::Reopen => {
                    prop_assert_eq!(
                        db.telemetry().wal_commits - commits_base,
                        committed_ops,
                        "one WAL commit per autocommitted op"
                    );
                    drop(db);
                    db = CbvrDatabase::open(data.share(), wal.share()).unwrap();
                    // Every commit fully checkpointed before the clean
                    // close, so a clean reopen must replay nothing.
                    prop_assert_eq!(db.telemetry().wal_replays, 0);
                    commits_base = db.telemetry().wal_commits;
                    committed_ops = 0;
                }
            }
        }

        // Final audit: database equals model exactly.
        prop_assert_eq!(db.video_count().unwrap(), model.len());
        let listed: BTreeMap<u64, String> =
            db.list_videos().unwrap().into_iter().map(|(id, name, _)| (id, name)).collect();
        for (&v_id, (name, size, kf_ids)) in &model {
            prop_assert_eq!(listed.get(&v_id), Some(name));
            let full = db.get_video(v_id).unwrap();
            prop_assert_eq!(db.read_video_bytes(&full.row).unwrap().len(), *size);
            prop_assert_eq!(&db.key_frames_of_video(v_id).unwrap(), kf_ids);
            for &i_id in kf_ids {
                let row = db.get_key_frame(i_id).unwrap();
                prop_assert_eq!(row.v_id, v_id);
                db.read_image_bytes(&row).unwrap();
            }
        }
        let expected_kf: usize = model.values().map(|(_, _, k)| k.len()).sum();
        prop_assert_eq!(db.key_frame_count().unwrap(), expected_kf);

        // The telemetry must agree with the model at the end too.
        let t = db.telemetry();
        prop_assert_eq!(t.wal_commits - commits_base, committed_ops);
        prop_assert!(t.wal_commits == 0 || t.wal_bytes > 0, "commits imply WAL bytes");
        // Cache entries are created only by read misses and page writes,
        // and eviction needs an entry to evict.
        prop_assert!(t.cache_evictions <= t.cache_misses + t.page_writes);
        if !model.is_empty() {
            prop_assert!(t.cache_hits + t.cache_misses > 0, "the audit reads pages");
        }
    }
}

/// Crash-and-recover cycles with a fault injected between the WAL fsync
/// and the data-file write: every cycle leaves exactly one committed WAL
/// record behind, so every reboot must replay exactly one record — and
/// the crashed operation, being WAL-committed, must survive.
#[test]
fn replay_counter_matches_injected_crashes() {
    const CRASHES: u64 = 5;
    let data = MemBackend::new();
    let wal = MemBackend::new();
    let faults = FaultInjector::new(0);
    let open = || {
        CbvrDatabase::open(
            FaultBackend::new(data.share(), faults.clone()),
            FaultBackend::new(wal.share(), FaultInjector::new(0)),
        )
        .unwrap()
    };
    let mut db = open();
    assert_eq!(
        db.telemetry().wal_replays,
        0,
        "fresh store has nothing to replay"
    );

    let mut replays_total = 0u64;
    for cycle in 0..CRASHES {
        // A healthy insert commits straight through and resets the WAL.
        let ok = video_record(cycle * 2 + 1, 400);
        let ok_id = db.insert_video(&ok).unwrap();

        // Crash: the commit record lands in the WAL, then the data-file
        // write fails — the classic torn checkpoint. The WAL fsync is the
        // commit point, so the insert succeeds and the db degrades; the
        // WAL keeps the stranded record for the reboot to replay.
        faults.arm_after(1, FaultKind::Crash);
        let crashed = video_record(cycle * 2 + 2, 400);
        db.insert_video(&crashed).unwrap();
        assert!(db.is_degraded(), "data-file fault must degrade the db");
        drop(db);
        faults.heal();

        // Reboot: recovery replays exactly the one stranded record.
        db = open();
        let t = db.telemetry();
        assert_eq!(
            t.wal_replays, 1,
            "cycle {cycle}: one crash, one replayed record"
        );
        replays_total += t.wal_replays;

        // The crashed insert was durable the moment its WAL record was
        // fsynced; replay must make it visible again.
        let names: Vec<String> = db
            .list_videos()
            .unwrap()
            .into_iter()
            .map(|(_, name, _)| name)
            .collect();
        assert!(
            names.contains(&crashed.v_name),
            "cycle {cycle}: replayed insert missing"
        );
        assert!(
            names.contains(&ok.v_name),
            "cycle {cycle}: pre-crash insert missing"
        );
        db.get_video(ok_id).unwrap();
    }
    assert_eq!(
        replays_total, CRASHES,
        "replay count must match injected crashes"
    );

    // A final clean close/open cycle replays nothing.
    drop(db);
    let mut db = CbvrDatabase::open(data.share(), wal.share()).unwrap();
    assert_eq!(db.telemetry().wal_replays, 0);
    assert_eq!(db.video_count().unwrap(), 2 * CRASHES as usize);
}
