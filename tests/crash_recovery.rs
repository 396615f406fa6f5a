//! Failure injection through the public API: commits are atomic under
//! crashes at every I/O operation of the commit protocol.

use cbvr::prelude::*;
use cbvr::storage::backend::MemBackend;
use cbvr::storage::{CbvrDatabase as Db, FaultBackend, FaultInjector, FaultKind};

fn clip(seed: u64) -> Video {
    VideoGenerator::new(GeneratorConfig {
        width: 48,
        height: 36,
        shots_per_video: 2,
        min_shot_frames: 3,
        max_shot_frames: 4,
        ..GeneratorConfig::default()
    })
    .unwrap()
    .generate(Category::Cartoon, seed)
    .unwrap()
}

/// Which file the injected crash hits.
#[derive(Copy, Clone, Debug)]
enum CrashTarget {
    /// The WAL: a torn record must roll the whole batch back.
    Wal,
    /// The data file: the synced WAL record must replay on reopen.
    Data,
}

/// What one crash run observed.
struct Outcome {
    /// Videos listed after the reboot.
    videos: usize,
    /// Key frames of those videos.
    keyframes: usize,
    /// Errors the target's injector raised.
    injected: u64,
    /// I/O operations the doomed ingest made on the target.
    ops: u64,
}

/// Crash the chosen backend at its `nth` I/O operation of the second
/// ingest (`None` runs it clean) and verify the database recovers to a
/// consistent state: the first video is always intact and the second is
/// either fully present or fully absent.
fn crash_at(target: CrashTarget, nth: Option<u64>) -> Outcome {
    let data = MemBackend::new();
    let wal = MemBackend::new();
    let (data_inj, wal_inj) = (FaultInjector::new(0), FaultInjector::new(0));
    let faults = match target {
        CrashTarget::Wal => wal_inj.clone(),
        CrashTarget::Data => data_inj.clone(),
    };
    let config = IngestConfig::default();

    let ops = {
        let mut db = Db::open(
            FaultBackend::new(data.share(), data_inj),
            FaultBackend::new(wal.share(), wal_inj),
        )
        .unwrap();
        ingest_video(&mut db, "stable", &clip(1), &config).unwrap();
        let start = faults.ops();
        if let Some(nth) = nth {
            faults.arm_after(nth, FaultKind::Crash);
        }
        let _ = ingest_video(&mut db, "doomed", &clip(2), &config);
        faults.ops() - start
    };
    faults.heal();

    let mut db = Db::open(data.share(), wal.share()).unwrap();
    let videos = db.list_videos().unwrap();
    assert!(
        videos.iter().any(|(_, name, _)| name == "stable"),
        "pre-crash video lost at op {nth:?}"
    );
    // Whatever survived must be fully readable.
    let mut keyframes = 0usize;
    for (v_id, name, _) in &videos {
        let full = db.get_video(*v_id).unwrap();
        let bytes = db.read_video_bytes(&full.row).unwrap();
        let decoded = decode_vsc(&bytes).unwrap();
        assert!(decoded.frame_count() > 0, "{name} corrupted at op {nth:?}");
        let kf_ids = db.key_frames_of_video(*v_id).unwrap();
        for i_id in &kf_ids {
            let row = db.get_key_frame(*i_id).unwrap();
            let image = db.read_image_bytes(&row).unwrap();
            cbvr::imgproc::decode_auto(&image).unwrap();
        }
        keyframes += kf_ids.len();
    }
    Outcome { videos: videos.len(), keyframes, injected: faults.injected(), ops }
}

#[test]
fn torn_wal_rolls_the_batch_back() {
    // Crashing inside the WAL append (op 1 = the record write fails)
    // must lose exactly the doomed video; op 100 000 lies far past the
    // ingest, so that run never fires and the commit finishes.
    let mut saw_rollback = false;
    let mut saw_commit = false;
    for nth in [1u64, 2, 100_000] {
        let out = crash_at(CrashTarget::Wal, Some(nth));
        if nth == 100_000 {
            assert_eq!(out.injected, 0, "WAL op {nth} fired inside the ingest");
        } else {
            assert!(out.injected > 0, "WAL op {nth} never fired");
        }
        match out.videos {
            1 => saw_rollback = true,
            2 => saw_commit = true,
            other => panic!("impossible video count {other} at WAL op {nth}"),
        }
    }
    assert!(saw_rollback, "a torn WAL record should lose the doomed video");
    assert!(saw_commit, "an unfired crash should let the commit finish");
}

#[test]
fn synced_wal_survives_data_file_crashes() {
    // Once the WAL record is durable, a crash anywhere in the data-file
    // propagation must NOT lose the commit: recovery replays it. Crash
    // at every data-file operation the doomed ingest makes.
    let total = crash_at(CrashTarget::Data, None).ops;
    assert!(total > 0, "the doomed ingest must touch the data file");
    for nth in 1..=total {
        let out = crash_at(CrashTarget::Data, Some(nth));
        assert!(out.injected > 0, "data op {nth} of {total} never fired");
        assert_eq!(out.videos, 2, "WAL-recovered commit lost at data op {nth} of {total}");
        assert!(out.keyframes >= 2, "key frames missing after recovery at data op {nth}");
    }
}

#[test]
fn wal_tail_corruption_is_discarded_on_open() {
    let data = MemBackend::new();
    let wal = MemBackend::new();
    {
        let mut db = Db::open(data.share(), wal.share()).unwrap();
        ingest_video(&mut db, "v", &clip(3), &IngestConfig::default()).unwrap();
    }
    // Plant garbage in the WAL, as an interrupted append would leave.
    {
        use cbvr::storage::backend::Backend;
        let mut w = wal.share();
        let end = w.len().unwrap();
        w.write_at(end, b"torn garbage record").unwrap();
    }
    let mut db = Db::open(data.share(), wal.share()).unwrap();
    assert_eq!(db.video_count().unwrap(), 1);
    let videos = db.list_videos().unwrap();
    assert_eq!(videos[0].1, "v");
}

#[test]
fn repeated_recovery_is_idempotent() {
    let data = MemBackend::new();
    let wal = MemBackend::new();
    {
        let mut db = Db::open(data.share(), wal.share()).unwrap();
        ingest_video(&mut db, "v1", &clip(1), &IngestConfig::default()).unwrap();
        ingest_video(&mut db, "v2", &clip(2), &IngestConfig::default()).unwrap();
    }
    for _ in 0..3 {
        let mut db = Db::open(data.share(), wal.share()).unwrap();
        assert_eq!(db.video_count().unwrap(), 2);
        assert_eq!(db.list_videos().unwrap().len(), 2);
    }
}
