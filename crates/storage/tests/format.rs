//! Pins the on-disk format.
//!
//! Every other storage test reads back what the same code wrote, so a
//! change to the byte layout that reads and writes the same way passes
//! them all and still orphans every existing database. This test runs a
//! fixed workload (inline and spilled rows, a rename, a delete, a
//! manifest replace and a vacuum) and compares FNV-1a digests of the
//! data files and of one WAL commit record with constants recorded from
//! the format as it stands. A digest mismatch means the format changed:
//! either undo that, or make it a deliberate, versioned change and
//! record the new constants.

use cbvr_storage::backend::{Backend, MemBackend};
use cbvr_storage::wal::fnv1a;
use cbvr_storage::{
    CbvrDatabase, FaultBackend, FaultInjector, FaultKind, KeyFrameRecord, ManifestSegment,
    VideoRecord,
};

/// The data file as it stands after the workload, before the vacuum.
const DATA_DIGEST: u64 = 0x286b_dff7_8546_8f3d;
/// The vacuumed data file.
const VACUUMED_DIGEST: u64 = 0x0ae2_f967_5506_8ef2;
/// The WAL after one commit whose propagation to the data file failed:
/// exactly one record.
const WAL_RECORD_DIGEST: u64 = 0x4169_81e8_d9f6_8367;

fn bytes_of(backend: &MemBackend) -> Vec<u8> {
    let mut handle = backend.share();
    let mut buf = vec![0u8; handle.len().unwrap() as usize];
    handle.read_at(0, &mut buf).unwrap();
    buf
}

fn video(name: &str, len: usize) -> VideoRecord {
    VideoRecord {
        v_name: name.into(),
        video: (0..len).map(|i| (i * 31 % 256) as u8).collect(),
        stream: vec![0x5A; 300],
        dostore: 1_750_000_000,
    }
}

fn key_frame(v_id: u64, name: &str, acc: String) -> KeyFrameRecord {
    KeyFrameRecord {
        i_name: name.into(),
        image: (0..700).map(|i| (i % 253) as u8).collect(),
        min: 64,
        max: 127,
        sch: "RGB 256 1 2 3".into(),
        glcm: "GLCM 100 0.5 1 0 0.9 2".into(),
        gabor: "gabor 60 0.1".into(),
        tamura: "Tamura 18 4 20".into(),
        acc,
        naive: "NaiveVector java.awt.Color[r=1,g=2,b=3]".into(),
        srg: "SRG 3 1 2".into(),
        majorregions: 2,
        v_id,
    }
}

#[test]
fn on_disk_format_is_pinned() {
    let data = MemBackend::new();
    let wal = MemBackend::new();
    let mut db = CbvrDatabase::open(data.share(), wal.share()).unwrap();
    let spilled_acc = "ACC 4 ".to_string() + &"0.123456789012345 ".repeat(300);
    let mut first_i_id = None;
    let mut v_ids = Vec::new();
    for v in 0..3 {
        // A three-page video blob and a one-page stream blob per video.
        let v_id = db
            .insert_video(&video(&format!("clip_{v}.vsc"), 9_000))
            .unwrap();
        v_ids.push(v_id);
        for k in 0..4 {
            // Every fourth row outgrows a B+-tree cell and spills.
            let acc = if k == 3 {
                spilled_acc.clone()
            } else {
                format!("ACC 4 0.{k}")
            };
            let i_id = db
                .insert_key_frame(&key_frame(v_id, &format!("v{v_id}_kf_{k}"), acc))
                .unwrap();
            first_i_id.get_or_insert(i_id);
            db.append_manifest_segment(ManifestSegment {
                min_i_id: i_id,
                max_i_id: i_id,
                rows: 1,
            })
            .unwrap();
        }
    }
    db.rename_video(v_ids[0], "renamed_clip_0.vsc").unwrap();
    db.delete_video(v_ids[1]).unwrap();
    let remaining: Vec<_> = db.list_manifest().unwrap();
    db.replace_manifest(&[ManifestSegment {
        min_i_id: first_i_id.unwrap(),
        max_i_id: remaining.last().unwrap().max_i_id,
        rows: 8,
    }])
    .unwrap();
    assert!(!db.is_degraded());
    let data_digest = fnv1a(&bytes_of(&data));

    let vacuumed = MemBackend::new();
    let vacuumed_wal = MemBackend::new();
    let faults = FaultInjector::new(0);
    let mut fresh = db
        .vacuum_into(
            FaultBackend::new(vacuumed.share(), faults.clone()),
            FaultBackend::new(vacuumed_wal.share(), FaultInjector::new(0)),
        )
        .unwrap();
    let vacuumed_digest = fnv1a(&bytes_of(&vacuumed));

    // One more commit whose propagation dies: the WAL keeps its record.
    fresh
        .run_batch(|db| {
            db.rename_video(v_ids[2], "clip_2_final.vsc")?;
            faults.arm_after(1, FaultKind::Crash);
            Ok(())
        })
        .unwrap();
    assert!(fresh.is_degraded(), "the record must stay in the WAL");
    let wal_digest = fnv1a(&bytes_of(&vacuumed_wal));

    assert_eq!(
        (data_digest, vacuumed_digest, wal_digest),
        (DATA_DIGEST, VACUUMED_DIGEST, WAL_RECORD_DIGEST),
        "the on-disk format changed: data {data_digest:#018x}, vacuumed \
         {vacuumed_digest:#018x}, WAL record {wal_digest:#018x}"
    );
}
