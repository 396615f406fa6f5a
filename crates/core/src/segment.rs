//! Immutable catalog segments and the lock-free snapshot they publish.
//!
//! The monolithic engine kept one mutable catalog (entries + arena +
//! range index) and made every reader and writer contend for it. This
//! module is the LSM/search-engine commit shape that replaces it:
//!
//! - a [`Segment`] is a *sealed* slice of the catalog — its row keys
//!   ([`CatalogRow`]), its own columnar [`DescriptorArena`] slabs (the
//!   rows' only stored descriptors), its own per-segment [`RangeIndex`].
//!   Once sealed it is never mutated;
//! - a [`CatalogSnapshot`] is an immutable list of sealed segments plus
//!   the video-name map, the tombstone set (videos removed since the
//!   segments were sealed) and the score calibration. The global row
//!   order is the concatenation of the segments in list order, which is
//!   exactly the monolithic entry order — the invariant that keeps
//!   segmented query results bit-identical to the single-arena path;
//! - a `SnapshotCell` holds the *current* snapshot behind an atomic
//!   pointer. Readers pin and clone the `Arc` without ever taking a
//!   lock; writers (which already serialise on the engine's commit
//!   lock) swap in a fully built replacement and retire the old one
//!   once no reader can still be inside the pin window.
//!
//! Queries therefore run against one coherent snapshot end to end: an
//! ingest, remove or compaction publishing mid-query cannot tear the
//! result set.

use crate::arena::DescriptorArena;
use crate::engine::CatalogEntry;
use crate::score::ScoreCalibration;
use cbvr_index::{BucketCounts, RangeIndex, RangeKey};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::Arc;

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
/// batch (or one compaction merge), their columnar descriptor slabs and
/// their private range tree.
pub struct Segment {
    id: u64,
    rows: Vec<CatalogRow>,
    arena: DescriptorArena,
    index: RangeIndex<usize>,
}

impl Segment {
    fn empty(id: u64) -> Segment {
        Segment { id, rows: Vec::new(), arena: DescriptorArena::new(), index: RangeIndex::new() }
    }

    /// Append `row` (its descriptors already pushed into the arena).
    fn push_row(&mut self, row: CatalogRow) {
        self.index.insert(row.range, self.rows.len());
        self.rows.push(row);
    }

    /// Seal `entries` into an immutable segment: push every descriptor
    /// into a fresh arena, dropping each entry's feature set once its row
    /// is stored, and build the local range index. Entry order is
    /// preserved — it becomes part of the snapshot's global order.
    pub fn seal(id: u64, entries: Vec<CatalogEntry>) -> Segment {
        let mut seg = Segment::empty(id);
        for e in entries {
            seg.arena.push(&e.features);
            seg.push_row(CatalogRow { i_id: e.i_id, v_id: e.v_id, range: e.range });
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
            seg.push_row(from.rows[i]);
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

    /// The segment's private range tree over local row numbers.
    pub fn index(&self) -> &RangeIndex<usize> {
        &self.index
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
                video_sequences[slot].1.push(EntryRef { segment: s as u32, row: row as u32 });
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
        live_rows(&self.segments, &self.tombstones).nth(i).map(|(seg, row)| seg.rows[row])
    }

    /// Candidate rows for a query range, in global order — the
    /// per-segment sorted overlap lists concatenated, which is exactly
    /// the monolithic `overlap_candidates_sorted` order. `use_index =
    /// false` scans everything. Tombstoned rows never appear.
    pub fn candidates(&self, range: RangeKey, use_index: bool) -> Vec<EntryRef> {
        let mut out = Vec::new();
        for (s, seg) in self.segments.iter().enumerate() {
            let locals: Vec<usize> = if use_index {
                seg.index().overlap_candidates_sorted(range)
            } else {
                (0..seg.len()).collect()
            };
            for local in locals {
                if !self.tombstones.is_empty() && self.tombstones.contains(&seg.rows()[local].v_id)
                {
                    continue;
                }
                out.push(EntryRef { segment: s as u32, row: local as u32 });
            }
        }
        out
    }

    /// Live per-bucket occupancy merged across every segment tree (the
    /// Fig. 7 / `IndexStats` diagnostics view).
    pub fn bucket_counts(&self) -> BucketCounts {
        let mut counts = BucketCounts::new();
        for seg in &self.segments {
            let rows = seg.rows();
            counts.add_index(seg.index(), |&local| !self.tombstones.contains(&rows[local].v_id));
        }
        counts
    }

    /// Total bytes of columnar arena storage across segments.
    pub fn arena_bytes(&self) -> usize {
        self.segments.iter().map(|s| s.arena().bytes()).sum()
    }
}

/// The epoch pointer: holds the current [`CatalogSnapshot`] and hands
/// out `Arc` clones to readers without any lock (a hand-rolled
/// `arc-swap`, per the workspace's no-new-dependencies rule).
///
/// **Protocol.** The cell stores the raw pointer of an `Arc`'s
/// allocation. A reader announces itself in `entrants`, loads the
/// pointer, bumps the strong count, and leaves `entrants` — from then
/// on it owns a normal `Arc`. A writer (already serialised by the
/// engine's commit lock) swaps the pointer and then waits for
/// `entrants` to drain before releasing the cell's own reference to the
/// old snapshot: any reader that loaded the old pointer was inside the
/// entrants window at swap time, so the strong count it is about to bump
/// is still held. The reader side is wait-free; the writer's spin only
/// covers the three-instruction pin window.
pub(crate) struct SnapshotCell {
    ptr: AtomicPtr<CatalogSnapshot>,
    entrants: AtomicUsize,
}

// SAFETY: the cell owns one strong reference to the snapshot behind
// `ptr` and hands out further `Arc`s under the entrants protocol above;
// `CatalogSnapshot` itself is Send + Sync (immutable data).
unsafe impl Send for SnapshotCell {}
unsafe impl Sync for SnapshotCell {}

impl SnapshotCell {
    /// A cell holding `snapshot` as the current epoch.
    pub(crate) fn new(snapshot: Arc<CatalogSnapshot>) -> SnapshotCell {
        SnapshotCell {
            ptr: AtomicPtr::new(Arc::into_raw(snapshot) as *mut CatalogSnapshot),
            entrants: AtomicUsize::new(0),
        }
    }

    /// Pin and clone the current snapshot. Lock-free: no mutex, no
    /// writer can block this, and a concurrent swap retires the old
    /// snapshot only after this pin window has closed.
    pub(crate) fn load(&self) -> Arc<CatalogSnapshot> {
        self.entrants.fetch_add(1, Ordering::SeqCst);
        let p = self.ptr.load(Ordering::SeqCst);
        // SAFETY: `p` was produced by `Arc::into_raw` and the cell's own
        // strong reference to it cannot be released while `entrants` is
        // nonzero (the writer drains entrants before dropping).
        unsafe { Arc::increment_strong_count(p) };
        self.entrants.fetch_sub(1, Ordering::SeqCst);
        // SAFETY: the increment above transferred one strong count to us.
        unsafe { Arc::from_raw(p) }
    }

    /// Publish `next` as the current snapshot and retire the previous
    /// one. Callers must serialise swaps (the engine's commit lock).
    pub(crate) fn swap(&self, next: Arc<CatalogSnapshot>) {
        let old = self.ptr.swap(Arc::into_raw(next) as *mut CatalogSnapshot, Ordering::SeqCst);
        // Wait for readers that may have loaded `old` but not yet pinned
        // it. New readers can only observe the new pointer.
        while self.entrants.load(Ordering::SeqCst) != 0 {
            std::hint::spin_loop();
        }
        // SAFETY: `old` came out of `Arc::into_raw` and no reader can
        // still be between "loaded old" and "pinned old".
        unsafe { drop(Arc::from_raw(old)) };
    }
}

impl Drop for SnapshotCell {
    fn drop(&mut self) {
        // SAFETY: the cell holds one strong reference to the current
        // snapshot; &mut self proves no reader is concurrently pinning.
        unsafe { drop(Arc::from_raw(self.ptr.load(Ordering::SeqCst))) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbvr_features::FeatureSet;

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
