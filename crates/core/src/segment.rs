//! Immutable catalog segments and the snapshot they publish.
//!
//! The monolithic engine kept one mutable catalog (entries + arena +
//! range index) and made every reader and writer contend for it. This
//! module is the LSM/search-engine commit shape that replaces it:
//!
//! - a [`Segment`] is a *sealed* slice of the catalog — its row keys
//!   ([`CatalogRow`], each carrying its own `MIN`/`MAX` range key) and
//!   its own columnar [`DescriptorArena`] slabs (the rows' only stored
//!   descriptors). Once sealed it is never mutated;
//! - a [`CatalogSnapshot`] is an immutable list of sealed segments plus
//!   the video-name map, the tombstone set (videos removed since the
//!   segments were sealed) and the score calibration. The global row
//!   order is the concatenation of the segments in list order, which is
//!   exactly the monolithic entry order — the invariant that keeps
//!   segmented query results bit-identical to the single-arena path.
//!   Range pruning filters each row by its own key in that order;
//! - a `SnapshotCell` holds the *current* snapshot in a
//!   `RwLock<Arc<_>>`. Readers hold the read guard only to clone the
//!   `Arc`; writers (which already serialise on the engine's commit
//!   lock) swap in a fully built replacement under the write guard and
//!   drop the old `Arc` after releasing it.
//!
//! Queries therefore run against one coherent snapshot end to end: an
//! ingest, remove or compaction publishing mid-query cannot tear the
//! result set.

use crate::arena::DescriptorArena;
use crate::engine::CatalogEntry;
use crate::score::ScoreCalibration;
use cbvr_index::{BucketCounts, RangeKey};
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, RwLock};

/// One sealed row's keys: its key frame, its video and its range. The
/// row's descriptors live in its segment's arena at the same row number.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CatalogRow {
    /// `KEY_FRAMES` primary key.
    pub i_id: u64,
    /// Owning video.
    pub v_id: u64,
    /// Range-finder key (`MIN`/`MAX`).
    pub range: RangeKey,
}

/// A sealed, immutable slice of the catalog: the rows of one ingest
/// batch (or one compaction merge) and their columnar descriptor slabs.
pub struct Segment {
    id: u64,
    rows: Vec<CatalogRow>,
    arena: DescriptorArena,
}

impl Segment {
    fn empty(id: u64) -> Segment {
        Segment {
            id,
            rows: Vec::new(),
            arena: DescriptorArena::new(),
        }
    }

    /// Seal `entries` into an immutable segment: push every descriptor
    /// into a fresh arena, dropping each entry's feature set once its row
    /// is stored. Entry order is preserved — it becomes part of the
    /// snapshot's global order.
    pub fn seal(id: u64, entries: Vec<CatalogEntry>) -> Segment {
        let mut seg = Segment::empty(id);
        for e in entries {
            seg.arena.push(&e.features);
            seg.rows.push(CatalogRow {
                i_id: e.i_id,
                v_id: e.v_id,
                range: e.range,
            });
        }
        seg
    }

    /// Seal copies of existing `(segment, local row)` rows, in order. Each
    /// row's slab slices and bound stats are copied as stored
    /// ([`DescriptorArena::push_row`]), so a copy scores bit-identically
    /// to its source.
    pub(crate) fn copy_rows<'a>(id: u64, src: impl Iterator<Item = (&'a Segment, usize)>) -> Self {
        let mut seg = Segment::empty(id);
        for (from, i) in src {
            seg.arena.push_row(from.arena(), i);
            seg.rows.push(from.rows[i]);
        }
        seg
    }

    /// Segment identity (unique within one engine; compaction mints new
    /// ids, so "same id" always means "same sealed contents").
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Rows in the segment (including rows of tombstoned videos).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the segment holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The sealed row keys, in segment-local order.
    pub fn rows(&self) -> &[CatalogRow] {
        &self.rows
    }

    /// The segment's columnar descriptor slabs.
    pub fn arena(&self) -> &DescriptorArena {
        &self.arena
    }
}

/// Every row of `segments` whose video is not in `tombstones`, as
/// `(segment, local row)` pairs in global order.
pub(crate) fn live_rows<'a>(
    segments: &'a [Arc<Segment>],
    tombstones: &'a BTreeSet<u64>,
) -> impl Iterator<Item = (&'a Segment, usize)> + 'a {
    segments.iter().flat_map(move |seg| {
        let seg: &Segment = seg;
        let live = move |&i: &usize| !tombstones.contains(&seg.rows[i].v_id);
        (0..seg.len()).filter(live).map(move |i| (seg, i))
    })
}

/// Address of one row inside a snapshot: which segment, which local row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EntryRef {
    /// Position of the segment in the snapshot's list.
    pub segment: u32,
    /// Row within that segment.
    pub row: u32,
}

/// One published, immutable view of the whole catalog.
///
/// Everything a query touches — candidate generation, scoring arenas,
/// per-video sequences, calibration, name lookups — lives here, so a
/// query that loaded a snapshot is completely isolated from concurrent
/// commits.
pub struct CatalogSnapshot {
    segments: Vec<Arc<Segment>>,
    /// Global row offset of each segment (prefix sums of segment sizes,
    /// tombstoned rows included).
    offsets: Vec<usize>,
    /// Total rows across segments, tombstoned rows included.
    rows: usize,
    /// Rows belonging to non-tombstoned videos.
    live: usize,
    /// Videos removed since their rows were sealed; their rows stay in
    /// the segments until compaction drops them, and every read path
    /// filters them out.
    tombstones: BTreeSet<u64>,
    video_names: HashMap<u64, String>,
    /// Per-video row addresses in global (key-frame) order, tombstoned
    /// videos excluded; videos are listed in order of their first row, so
    /// a walk over them streams the arena slabs front to back.
    video_sequences: Vec<(u64, Vec<EntryRef>)>,
    calibration: ScoreCalibration,
}

impl CatalogSnapshot {
    /// Assemble a snapshot from sealed parts. Global order is the
    /// concatenation of `segments` in list order.
    pub fn assemble(
        segments: Vec<Arc<Segment>>,
        tombstones: BTreeSet<u64>,
        video_names: HashMap<u64, String>,
        calibration: ScoreCalibration,
    ) -> CatalogSnapshot {
        let mut offsets = Vec::with_capacity(segments.len());
        let mut rows = 0usize;
        for seg in &segments {
            offsets.push(rows);
            rows += seg.len();
        }
        let mut live = 0usize;
        let mut video_sequences: Vec<(u64, Vec<EntryRef>)> = Vec::new();
        let mut video_slots: HashMap<u64, usize> = HashMap::new();
        for (s, seg) in segments.iter().enumerate() {
            for (row, e) in seg.rows().iter().enumerate() {
                if tombstones.contains(&e.v_id) {
                    continue;
                }
                live += 1;
                let slot = *video_slots.entry(e.v_id).or_insert_with(|| {
                    video_sequences.push((e.v_id, Vec::new()));
                    video_sequences.len() - 1
                });
                video_sequences[slot].1.push(EntryRef {
                    segment: s as u32,
                    row: row as u32,
                });
            }
        }
        CatalogSnapshot {
            segments,
            offsets,
            rows,
            live,
            tombstones,
            video_names,
            video_sequences,
            calibration,
        }
    }

    /// The sealed segments, in global order.
    pub fn segments(&self) -> &[Arc<Segment>] {
        &self.segments
    }

    /// The segment at list position `s`.
    pub fn segment(&self, s: u32) -> &Segment {
        &self.segments[s as usize]
    }

    /// Total rows across segments, tombstoned rows included.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Rows belonging to non-tombstoned videos.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Videos removed but not yet compacted away.
    pub fn tombstones(&self) -> &BTreeSet<u64> {
        &self.tombstones
    }

    /// Video id → display name.
    pub fn video_names(&self) -> &HashMap<u64, String> {
        &self.video_names
    }

    /// Per-video row addresses in key-frame order (tombstoned videos
    /// excluded), videos in order of their first row — the clip query's
    /// DTW input, walked in arena order.
    pub fn video_sequences(&self) -> &[(u64, Vec<EntryRef>)] {
        &self.video_sequences
    }

    /// The distance→similarity calibration this snapshot was published
    /// with.
    pub fn calibration(&self) -> &ScoreCalibration {
        &self.calibration
    }

    /// The `i`-th *live* row in global order, if in bounds.
    pub fn live_entry(&self, i: usize) -> Option<CatalogRow> {
        if self.tombstones.is_empty() {
            if i >= self.rows {
                return None;
            }
            // offsets is ascending; find the segment whose span holds i.
            let s = self.offsets.partition_point(|&o| o <= i) - 1;
            return Some(self.segments[s].rows()[i - self.offsets[s]]);
        }
        live_rows(&self.segments, &self.tombstones)
            .nth(i)
            .map(|(seg, row)| seg.rows[row])
    }

    /// Candidate rows for a query range, in global order: every live row
    /// whose stored `MIN`/`MAX` key overlaps `range` (a level-1 stop like
    /// `[0,127]` must still reach rows filed under `[0,63]`).
    /// `use_index = false` keeps every live row. Tombstoned rows never
    /// appear.
    pub fn candidates(&self, range: RangeKey, use_index: bool) -> Vec<EntryRef> {
        let mut out = Vec::new();
        for (s, seg) in self.segments.iter().enumerate() {
            for (local, row) in seg.rows().iter().enumerate() {
                let in_range = !use_index || row.range.overlaps(range);
                if in_range && !self.tombstones.contains(&row.v_id) {
                    out.push(EntryRef {
                        segment: s as u32,
                        row: local as u32,
                    });
                }
            }
        }
        out
    }

    /// Live per-bucket occupancy across every segment (the Fig. 7 /
    /// `IndexStats` diagnostics view).
    pub fn bucket_counts(&self) -> BucketCounts {
        let mut counts = BucketCounts::new();
        for (seg, row) in live_rows(&self.segments, &self.tombstones) {
            counts.add_item(seg.rows[row].range);
        }
        counts
    }

    /// Total bytes of columnar arena storage across segments.
    pub fn arena_bytes(&self) -> usize {
        self.segments.iter().map(|s| s.arena().bytes()).sum()
    }
}

/// The epoch cell: holds the current [`CatalogSnapshot`] and hands out
/// `Arc` clones to readers.
///
/// Readers hold the read guard only long enough to clone the `Arc`, so
/// a reader never waits on a query and a writer never waits on more than
/// a reference-count bump. Writers are already serialised by the
/// engine's commit lock; the old snapshot is dropped after the write
/// guard is released, so a retired snapshot's arenas are never freed
/// under the lock. Poisoning is recovered: the guarded value is a single
/// `Arc`, always whole.
pub(crate) struct SnapshotCell(RwLock<Arc<CatalogSnapshot>>);

impl SnapshotCell {
    /// A cell holding `snapshot` as the current epoch.
    pub(crate) fn new(snapshot: Arc<CatalogSnapshot>) -> SnapshotCell {
        SnapshotCell(RwLock::new(snapshot))
    }

    /// Clone the current snapshot.
    pub(crate) fn load(&self) -> Arc<CatalogSnapshot> {
        Arc::clone(
            &self
                .0
                .read()
                .unwrap_or_else(|poisoned| poisoned.into_inner()),
        )
    }

    /// Publish `next` as the current snapshot and retire the previous
    /// one. Callers must serialise swaps (the engine's commit lock).
    pub(crate) fn swap(&self, next: Arc<CatalogSnapshot>) {
        let retired = {
            let mut current = self
                .0
                .write()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            std::mem::replace(&mut *current, next)
        };
        drop(retired);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbvr_features::FeatureSet;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn snapshot(tag: u64) -> Arc<CatalogSnapshot> {
        let entries = Vec::new();
        let seg = Arc::new(Segment::seal(tag, entries));
        Arc::new(CatalogSnapshot::assemble(
            vec![seg],
            BTreeSet::new(),
            HashMap::new(),
            ScoreCalibration::default(),
        ))
    }

    fn rows(v_ids: &[u64]) -> Vec<CatalogEntry> {
        let img = cbvr_imgproc::RgbImage::new(8, 8).expect("8×8 frame");
        let features = FeatureSet::extract(&img);
        v_ids
            .iter()
            .enumerate()
            .map(|(i, &v_id)| CatalogEntry {
                i_id: i as u64 + 1,
                v_id,
                range: cbvr_index::paper_range(&cbvr_imgproc::Histogram256::of_rgb_luma(&img)),
                features: features.clone(),
            })
            .collect()
    }

    #[test]
    fn video_sequences_follow_first_appearance_across_segments() {
        // Video 9 starts first, 4 interleaves with it, 7 spans the
        // segment boundary; 5 is tombstoned.
        let all = rows(&[9, 9, 4, 9, 5, 7, 7, 4]);
        let segments = vec![
            Arc::new(Segment::seal(0, all[..6].to_vec())),
            Arc::new(Segment::seal(1, all[6..].to_vec())),
        ];
        let snap = CatalogSnapshot::assemble(
            segments,
            BTreeSet::from([5]),
            HashMap::new(),
            ScoreCalibration::default(),
        );
        let at = |segment, row| EntryRef { segment, row };
        assert_eq!(
            snap.video_sequences(),
            [
                (9, vec![at(0, 0), at(0, 1), at(0, 3)]),
                (4, vec![at(0, 2), at(1, 1)]),
                (7, vec![at(0, 5), at(1, 0)]),
            ],
            "tombstoned video 5 is excluded"
        );
        assert_eq!(snap.live(), 7);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The range filter over each row's own key is the candidate
        /// rule: for any split into up to three segments, any per-row
        /// ranges and one tombstoned video, `candidates` and
        /// `bucket_counts` agree with a brute force over the flat row list.
        #[test]
        fn candidates_and_bucket_counts_match_brute_force(
            keyed in prop::collection::vec((0u64..4, any::<u8>(), any::<u8>()), 0..40),
            cuts in (0usize..41, 0usize..41),
            tombstoned in 0u64..4,
            probe in (any::<u8>(), any::<u8>()),
        ) {
            let n = keyed.len();
            let (a, b) = (cuts.0 % (n + 1), cuts.1 % (n + 1));
            let bounds = [0, a.min(b), a.max(b), n];
            let v_ids: Vec<u64> = keyed.iter().map(|&(v, _, _)| v).collect();
            let mut entries = rows(&v_ids);
            for (e, &(_, lo, hi)) in entries.iter_mut().zip(&keyed) {
                e.range = RangeKey::new(lo, hi);
            }
            let segments = bounds
                .windows(2)
                .enumerate()
                .map(|(s, w)| Arc::new(Segment::seal(s as u64, entries[w[0]..w[1]].to_vec())))
                .collect();
            let snap = CatalogSnapshot::assemble(
                segments,
                BTreeSet::from([tombstoned]),
                HashMap::new(),
                ScoreCalibration::default(),
            );
            let probe = RangeKey::new(probe.0, probe.1);

            // Brute force over the flat list: global index g lives in the
            // segment whose span holds it.
            let at = |g: usize| {
                let s = bounds.partition_point(|&o| o <= g) - 1;
                EntryRef { segment: s as u32, row: (g - bounds[s]) as u32 }
            };
            let live: Vec<usize> = (0..n).filter(|&g| entries[g].v_id != tombstoned).collect();
            let overlapping: Vec<EntryRef> =
                live.iter().filter(|&&g| entries[g].range.overlaps(probe)).map(|&g| at(g)).collect();
            let every: Vec<EntryRef> = live.iter().map(|&g| at(g)).collect();
            prop_assert_eq!(snap.candidates(probe, true), overlapping);
            prop_assert_eq!(snap.candidates(probe, false), every);

            let mut want = BucketCounts::new();
            for &g in &live {
                want.add_item(entries[g].range);
            }
            let got = snap.bucket_counts();
            prop_assert_eq!(got.stats(), want.stats());
            prop_assert_eq!(got.render_tree(), want.render_tree());
        }
    }

    #[test]
    fn cell_load_returns_published_snapshot() {
        let cell = SnapshotCell::new(snapshot(1));
        assert_eq!(cell.load().segments()[0].id(), 1);
        cell.swap(snapshot(2));
        assert_eq!(cell.load().segments()[0].id(), 2);
    }

    #[test]
    fn old_snapshot_survives_while_reader_holds_it() {
        let cell = SnapshotCell::new(snapshot(1));
        let held = cell.load();
        cell.swap(snapshot(2));
        // The pre-swap snapshot is still fully usable.
        assert_eq!(held.segments()[0].id(), 1);
        assert_eq!(cell.load().segments()[0].id(), 2);
        drop(held);
    }

    #[test]
    fn concurrent_loads_and_swaps_never_tear() {
        let cell = Arc::new(SnapshotCell::new(snapshot(0)));
        let stop = Arc::new(AtomicUsize::new(0));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    while stop.load(Ordering::SeqCst) == 0 {
                        let snap = cell.load();
                        let id = snap.segments()[0].id();
                        assert!(id >= last, "epochs must be monotone per reader");
                        last = id;
                    }
                })
            })
            .collect();
        for epoch in 1..=50 {
            cell.swap(snapshot(epoch));
        }
        stop.store(1, Ordering::SeqCst);
        for r in readers {
            r.join().expect("reader panicked");
        }
        assert_eq!(cell.load().segments()[0].id(), 50);
    }
}
