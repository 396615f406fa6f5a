//! The query engine (the User role's search).
//!
//! Loads the key-frame feature catalog once (parsing the stored feature
//! strings back into descriptors), builds the §4.2 range index over it,
//! calibrates the distance→similarity scales, and then serves:
//!
//! - **query by frame** — extract the query frame's features, prune
//!   candidates through the range index, rank by the combined weighted
//!   similarity (or any single feature via [`FeatureWeights::single`]);
//! - **query by clip** — align the query's key-frame feature sequence
//!   against each stored video's sequence with DTW (§1's
//!   dynamic-programming similarity) and rank videos;
//! - **query by metadata** — substring match on video names.

use crate::arena::{CascadePlan, CascadeTally, QueryVectors, TierCells, KINDS};
use crate::dtw::{cost_limit, dtw_distance_bounded, DtwScratch};
use crate::error::Result;
use crate::ingest::extract_feature_sets_parallel;
use crate::pool::{ExecPool, TopK, THREADS_AUTO};
use crate::score::ScoreCalibration;
use crate::segment::{live_rows, CatalogRow, CatalogSnapshot, Segment, SnapshotCell};
use crate::telemetry::{Counter, Gauge, Histogram, Registry};
use crate::weights::FeatureWeights;
use cbvr_features::{FeatureKind, FeatureSet};
use cbvr_imgproc::{Histogram256, RgbImage};
use cbvr_index::{paper_range, RangeKey};
use cbvr_keyframe::{extract_keyframes, KeyframeConfig};
use cbvr_storage::backend::Backend;
use cbvr_storage::{CbvrDatabase, KeyFrameRow, ManifestSegment};
use cbvr_video::Video;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// One catalog entry as ingest hands it over: a key frame's identity,
/// range and features. Sealing stores the features as arena rows and
/// drops the set (see [`CatalogRow`]).
#[derive(Clone, Debug)]
pub struct CatalogEntry {
    /// `KEY_FRAMES` primary key.
    pub i_id: u64,
    /// Owning video.
    pub v_id: u64,
    /// Range-finder key (`MIN`/`MAX`).
    pub range: RangeKey,
    /// All seven descriptors.
    pub features: FeatureSet,
}

impl CatalogEntry {
    /// Parse a stored `KEY_FRAMES` row's feature strings back into an
    /// entry.
    pub fn from_key_frame(row: &KeyFrameRow) -> Result<CatalogEntry> {
        let features = FeatureSet::from_feature_strings([
            (FeatureKind::ColorHistogram, row.sch.as_str()),
            (FeatureKind::Glcm, row.glcm.as_str()),
            (FeatureKind::Gabor, row.gabor.as_str()),
            (FeatureKind::Tamura, row.tamura.as_str()),
            (FeatureKind::Correlogram, row.acc.as_str()),
            (FeatureKind::Naive, row.naive.as_str()),
            (FeatureKind::Regions, row.srg.as_str()),
        ])?;
        let range = RangeKey::new(row.min, row.max);
        Ok(CatalogEntry {
            i_id: row.i_id,
            v_id: row.v_id,
            range,
            features,
        })
    }
}

/// Query parameters.
#[derive(Clone, Debug)]
pub struct QueryOptions {
    /// How many results to return.
    pub k: usize,
    /// Feature weights (default: Table 1-derived combined weights).
    pub weights: FeatureWeights,
    /// Prune candidates through the range index before scoring.
    pub use_index: bool,
    /// Concurrent participants for scoring and DTW on the shared
    /// [`ExecPool`] ([`THREADS_AUTO`] = all cores). Results are
    /// identical for every value — `1` is the bit-exact serial path.
    pub threads: usize,
    /// Run the bound tier: reject a frame candidate or a clip DTW cell
    /// whose certified lower bound already *proves* it unable to enter
    /// the top-k (see [`crate::DescriptorArena::tier`]), and abandon a
    /// clip alignment proven outside it. Exact — ranked results are
    /// identical either way; `false` means no tier, every candidate scored
    /// in full: the full-scan reference the equivalence suites and the
    /// benchmark's answer checks compare the default path against.
    pub abandon: bool,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            k: 20,
            weights: FeatureWeights::default(),
            use_index: true,
            threads: THREADS_AUTO,
            abandon: true,
        }
    }
}

/// A ranked key-frame result.
#[derive(Clone, Debug, PartialEq)]
pub struct FrameMatch {
    /// Matched key frame.
    pub i_id: u64,
    /// Its video.
    pub v_id: u64,
    /// Combined similarity in `[0, 1]`, higher is better.
    pub score: f64,
}

/// A ranked whole-video result.
#[derive(Clone, Debug, PartialEq)]
pub struct VideoMatch {
    /// Matched video.
    pub v_id: u64,
    /// DTW distance of key-frame feature sequences, lower is better.
    pub distance: f64,
}

/// Frame ranking: score descending, ties broken by `i_id` ascending.
/// Total (NaN scores compare equal, the id decides), which is what makes
/// parallel top-k selection bit-identical to the serial sort.
fn rank_frame_matches(a: &FrameMatch, b: &FrameMatch) -> std::cmp::Ordering {
    b.score
        .partial_cmp(&a.score)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then(a.i_id.cmp(&b.i_id))
}

/// Video ranking: DTW distance ascending, ties broken by `v_id` ascending.
fn rank_video_matches(a: &VideoMatch, b: &VideoMatch) -> std::cmp::Ordering {
    a.distance
        .partial_cmp(&b.distance)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then(a.v_id.cmp(&b.v_id))
}

/// Chunk granularity for candidate scoring: small enough for stealing to
/// balance uneven chunks, large enough to amortise the claim `fetch_add`
/// and the per-chunk top-k merge.
fn scoring_chunk(len: usize) -> usize {
    (len / 64).clamp(16, 256)
}

/// Telemetry handles resolved once per engine, so per-query recording
/// is atomics only (the registry's name map is never consulted on the
/// query path). See the stage breakdown on [`QueryEngine::query_features`].
///
/// Tier accounting (`query.scan.*`, `query.abandon.*`) is exact in
/// serial runs; in parallel runs the *results* stay bit-identical but the
/// reject/element counts vary with chunk-claim timing (a faster-falling
/// cutoff rejects earlier), so only ratios are meaningful there.
struct EngineMetrics {
    registry: Arc<Registry>,
    frame_requests: Arc<Counter>,
    frame_candidates: Arc<Counter>,
    /// `query.frame.extract_nanos` — extracting a query frame's features
    /// in [`QueryEngine::query_frame`].
    frame_extract: Arc<Histogram>,
    frame_scan: Arc<Histogram>,
    frame_score: Arc<Histogram>,
    frame_merge: Arc<Histogram>,
    clip_requests: Arc<Counter>,
    clip_dtw: Arc<Histogram>,
    clip_rank: Arc<Histogram>,
    /// `query.arena.bytes` — bytes of columnar arena storage built
    /// (cumulative across rebuilds; counters are monotone).
    arena_bytes: Arc<Counter>,
    /// `query.scan.elements` — distance-kernel elements visited.
    scan_elements: Arc<Counter>,
    /// `query.scan.survivors` — candidates the tier admitted, each scored
    /// in full.
    scan_survivors: Arc<Counter>,
    /// `query.abandon.<kind>` — candidates the tier rejected, by the stage
    /// whose bound it stopped at, indexed by the kind's discriminant.
    abandon_kind: [Arc<Counter>; KINDS],
    /// `query.abandon.dtw` — clip alignments proven outside the top-k by
    /// the bounded DTW (lower-bound pass, pruned cells or a dead row).
    abandon_dtw: Arc<Counter>,
    /// `query.clip.elements` — distance-kernel elements visited by clip
    /// DTW, the bound tier's included.
    clip_elements: Arc<Counter>,
    /// `query.clip.survivors` — DTW cells scored in full.
    clip_survivors: Arc<Counter>,
    /// `query.scan.tier_elements` / `query.clip.tier_elements` — the
    /// bound tier's share of the element counters above.
    scan_tier_elements: Arc<Counter>,
    clip_tier_elements: Arc<Counter>,
    /// `query.scan.tier_candidates` / `query.scan.tier_rejects` — frame
    /// candidates the tier checked against a cutoff, and rejected.
    scan_tier_seen: Arc<Counter>,
    scan_tier_rejected: Arc<Counter>,
    /// `query.clip.tier_cells` / `query.clip.tier_rejects` — DTW cells
    /// the bounded DTW visited, and set to `∞` unscored; every other
    /// visited cell is one of `query.clip.survivors`.
    clip_tier_seen: Arc<Counter>,
    clip_tier_rejected: Arc<Counter>,
    /// `catalog.snapshot.swaps` — snapshots published since start.
    snapshot_swaps: Arc<Counter>,
    /// `catalog.segments` — sealed segments in the current snapshot.
    segments: Arc<Gauge>,
    /// `catalog.tombstones` — tombstoned videos awaiting compaction.
    tombstones: Arc<Gauge>,
    /// `compaction.runs` — compaction passes completed.
    compaction_runs: Arc<Counter>,
    /// `compaction.rows_dropped` — tombstoned rows dropped by compaction.
    compaction_rows_dropped: Arc<Counter>,
    /// `compaction.nanos` — wall time of each compaction pass.
    compaction: Arc<Histogram>,
}

impl EngineMetrics {
    fn on(registry: Arc<Registry>) -> EngineMetrics {
        let mut slots: [Option<Arc<Counter>>; KINDS] = std::array::from_fn(|_| None);
        for kind in FeatureKind::ALL {
            slots[kind as usize] =
                Some(registry.counter(&format!("query.abandon.{}", kind.name())));
        }
        EngineMetrics {
            frame_requests: registry.counter("query.frame.requests"),
            frame_candidates: registry.counter("query.frame.candidates"),
            frame_extract: registry.histogram("query.frame.extract_nanos"),
            frame_scan: registry.histogram("query.frame.scan_nanos"),
            frame_score: registry.histogram("query.frame.score_nanos"),
            frame_merge: registry.histogram("query.frame.merge_nanos"),
            clip_requests: registry.counter("query.clip.requests"),
            clip_dtw: registry.histogram("query.clip.dtw_nanos"),
            clip_rank: registry.histogram("query.clip.rank_nanos"),
            arena_bytes: registry.counter("query.arena.bytes"),
            scan_elements: registry.counter("query.scan.elements"),
            scan_survivors: registry.counter("query.scan.survivors"),
            abandon_kind: slots.map(|s| s.expect("every kind registered")),
            abandon_dtw: registry.counter("query.abandon.dtw"),
            clip_elements: registry.counter("query.clip.elements"),
            clip_survivors: registry.counter("query.clip.survivors"),
            scan_tier_elements: registry.counter("query.scan.tier_elements"),
            clip_tier_elements: registry.counter("query.clip.tier_elements"),
            scan_tier_seen: registry.counter("query.scan.tier_candidates"),
            scan_tier_rejected: registry.counter("query.scan.tier_rejects"),
            clip_tier_seen: registry.counter("query.clip.tier_cells"),
            clip_tier_rejected: registry.counter("query.clip.tier_rejects"),
            snapshot_swaps: registry.counter("catalog.snapshot.swaps"),
            segments: registry.gauge("catalog.segments"),
            tombstones: registry.gauge("catalog.tombstones"),
            compaction_runs: registry.counter("compaction.runs"),
            compaction_rows_dropped: registry.counter("compaction.rows_dropped"),
            compaction: registry.histogram("compaction.nanos"),
            registry,
        }
    }

    /// Record the shape of a snapshot that is about to be published.
    fn observe_snapshot(&self, snapshot: &CatalogSnapshot) {
        self.segments.set(snapshot.segments().len() as u64);
        self.tombstones.set(snapshot.tombstones().len() as u64);
    }

    /// Fold one chunk's tier tally into the counters (once per chunk,
    /// so the hot loop touches plain integers only).
    fn flush_tally(&self, tally: &CascadeTally) {
        add_nonzero(&self.scan_elements, tally.elements + tally.tier_elements);
        add_nonzero(&self.scan_tier_elements, tally.tier_elements);
        add_nonzero(&self.scan_tier_seen, tally.tier_seen);
        add_nonzero(&self.scan_tier_rejected, tally.tier_rejected);
        add_nonzero(&self.scan_survivors, tally.survivors);
        for (counter, &n) in self.abandon_kind.iter().zip(&tally.abandoned) {
            add_nonzero(counter, n);
        }
    }

    /// Fold one clip chunk's tally in: its elements, tier work included,
    /// the cells scored in full, and the DTW's cell counts (per-kind
    /// abandons are frame-only).
    fn flush_clip_tally(&self, tally: &CascadeTally, dtw: &DtwScratch) {
        add_nonzero(&self.clip_elements, tally.elements + tally.tier_elements);
        add_nonzero(&self.clip_survivors, tally.survivors);
        add_nonzero(&self.clip_tier_elements, tally.tier_elements);
        add_nonzero(&self.clip_tier_seen, dtw.cells);
        add_nonzero(&self.clip_tier_rejected, dtw.pruned);
    }
}

/// Add `n` to `counter` unless it is 0 (a chunk that did no such work
/// leaves the atomic untouched).
fn add_nonzero(counter: &Counter, n: u64) {
    if n > 0 {
        counter.add(n);
    }
}

/// Shared cutoff for parallel scans: the lowest known upper bound of the
/// final k-th best *distance* — `1 − score` for frames, the DTW distance
/// for clips. Distances are non-negative, and non-negative IEEE doubles
/// order identically to their bit patterns, so a `fetch_min` on the bits
/// is a lock-free running minimum. The `∞` start is "no cutoff".
struct DistCeil(AtomicU64);

impl DistCeil {
    fn new() -> DistCeil {
        DistCeil(AtomicU64::new(f64::INFINITY.to_bits()))
    }

    /// The cutoff a participant scans its next item under: with
    /// `abandon`, the lower of `local`, its own heap's k-th best distance
    /// (a k-th best over a subset is never better than the global one),
    /// and the shared one; `∞` otherwise.
    fn cutoff(&self, abandon: bool, local: Option<f64>) -> f64 {
        if !abandon {
            return f64::INFINITY;
        }
        let shared = f64::from_bits(self.0.load(Ordering::Relaxed));
        local.unwrap_or(f64::INFINITY).min(shared)
    }

    /// Merge a participant's heap into the shared one, and lower the
    /// shared cutoff to the merged k-th best `distance`.
    fn merge<T, F: Fn(&T, &T) -> std::cmp::Ordering + Copy>(
        &self,
        shared: &Mutex<TopK<T, F>>,
        local: TopK<T, F>,
        distance: impl Fn(&T) -> f64,
    ) {
        let mut shared = shared.lock().expect("top-k accumulator poisoned");
        shared.merge(local);
        if let Some(d) = shared.worst().map(distance).filter(|&d| d >= 0.0) {
            self.0.fetch_min(d.to_bits(), Ordering::Relaxed);
        }
    }
}

/// What one compaction pass did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompactionReport {
    /// Segments in the snapshot compaction started from.
    pub segments_before: usize,
    /// Segments in the published snapshot (the merged segment plus any
    /// segments appended concurrently while compaction ran).
    pub segments_after: usize,
    /// Tombstoned rows dropped from the catalog.
    pub rows_dropped: usize,
}

/// Per-segment diagnostics (`cbvr stats` renders one row per segment).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentStats {
    /// Segment id (monotone within one engine's lifetime).
    pub id: u64,
    /// Sealed rows in the segment.
    pub rows: usize,
    /// Rows not masked by a video tombstone.
    pub live_rows: usize,
    /// Bytes of the segment's columnar arena slabs.
    pub arena_bytes: usize,
}

/// The in-memory retrieval engine.
///
/// The catalog lives in immutable sealed [`Segment`]s referenced by a
/// published [`CatalogSnapshot`]: queries load the snapshot once (holding
/// the cell's read guard only to clone an `Arc`) and run entirely against
/// it, so ingest, removal and compaction never block a query in flight.
/// Mutations serialise on a small commit lock, build a *new* snapshot,
/// and publish it with one `Arc` swap. A snapshot is the concatenation
/// of its segments in list order, which keeps every result bit-identical
/// to the old monolithic engine for any segment layout and any thread
/// count.
pub struct QueryEngine {
    snapshot: SnapshotCell,
    /// Serialises mutations (ingest appends, tombstoning, compaction
    /// publish, recalibration). Never taken on the query path.
    commit: Mutex<()>,
    /// Next segment id (ids only need to be unique within the engine;
    /// compaction uses them to tell base segments from concurrently
    /// appended ones).
    next_seg_id: AtomicU64,
    metrics: EngineMetrics,
}

impl QueryEngine {
    /// Build from a database: scan `KEY_FRAMES`, parse each row's feature
    /// strings as the scan visits it (the first parse error stops the scan
    /// and is returned), group rows into segments along the WAL manifest
    /// (global `i_id` order is preserved across group boundaries), seal and
    /// calibrate.
    pub fn from_database<B: Backend>(db: &mut CbvrDatabase<B>) -> Result<QueryEngine> {
        let mut entries = Vec::new();
        let mut parsed = Ok(());
        db.scan_key_frames(|row| match CatalogEntry::from_key_frame(row) {
            Ok(entry) => {
                entries.push(entry);
                true
            }
            Err(e) => {
                parsed = Err(e);
                false
            }
        })?;
        parsed?;
        let manifest = db.list_manifest()?;
        let names = db
            .list_videos()?
            .into_iter()
            .map(|(v_id, name, _)| (v_id, name))
            .collect();
        Ok(Self::from_segmented(
            partition_by_manifest(entries, &manifest),
            names,
        ))
    }

    /// Build directly from entries (the evaluation harness skips the
    /// storage round trip). Seals the whole catalog as one segment.
    pub fn from_catalog(
        entries: Vec<CatalogEntry>,
        video_names: HashMap<u64, String>,
    ) -> QueryEngine {
        Self::from_segmented(vec![entries], video_names)
    }

    /// Build from pre-partitioned entry groups, one sealed segment per
    /// non-empty group. The snapshot is the concatenation of the groups
    /// in order, and calibration samples the sealed rows in that order —
    /// so any split of the same catalog yields bit-identical query
    /// results.
    pub fn from_segmented(
        groups: Vec<Vec<CatalogEntry>>,
        video_names: HashMap<u64, String>,
    ) -> QueryEngine {
        let segments: Vec<Arc<Segment>> = groups
            .into_iter()
            .filter(|g| !g.is_empty())
            .enumerate()
            .map(|(id, g)| Arc::new(Segment::seal(id as u64, g)))
            .collect();
        let next_seg_id = AtomicU64::new(segments.len() as u64);
        let calibration = ScoreCalibration::from_segments(&segments, &BTreeSet::new());
        let snapshot =
            CatalogSnapshot::assemble(segments, BTreeSet::new(), video_names, calibration);
        let metrics = EngineMetrics::on(Registry::global().clone());
        metrics.arena_bytes.add(snapshot.arena_bytes() as u64);
        metrics.observe_snapshot(&snapshot);
        QueryEngine {
            snapshot: SnapshotCell::new(Arc::new(snapshot)),
            commit: Mutex::new(()),
            next_seg_id,
            metrics,
        }
    }

    /// The commit lock, recovering from poisoning: every publish installs
    /// a *complete* snapshot with one swap, so a panic between lock and
    /// publish leaves the previous snapshot fully intact and the lock is
    /// safe to re-take.
    fn commit_guard(&self) -> MutexGuard<'_, ()> {
        self.commit
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Swap `snapshot` in as the published catalog. Callers must hold the
    /// commit lock.
    fn publish(&self, snapshot: CatalogSnapshot) {
        self.metrics.observe_snapshot(&snapshot);
        self.snapshot.swap(Arc::new(snapshot));
        self.metrics.snapshot_swaps.inc();
    }

    /// Redirect this engine's telemetry into `registry` (tests inject a
    /// [`crate::telemetry::TestClock`]-driven registry this way; production
    /// engines default to [`Registry::global`]). The arena-bytes counter
    /// and catalog gauges are re-recorded so the new registry sees the
    /// current catalog shape.
    pub fn set_telemetry(&mut self, registry: Arc<Registry>) {
        self.metrics = EngineMetrics::on(registry);
        let snap = self.snapshot.load();
        self.metrics.arena_bytes.add(snap.arena_bytes() as u64);
        self.metrics.observe_snapshot(&snap);
    }

    /// The registry this engine reports into.
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.metrics.registry
    }

    /// Number of live catalog entries (key frames not tombstoned).
    pub fn len(&self) -> usize {
        self.snapshot.load().live()
    }

    /// True when the catalog has no live entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th live row's keys in global catalog order. Its stored
    /// features are read from the database
    /// ([`CatalogEntry::from_key_frame`]).
    pub fn entry(&self, i: usize) -> CatalogRow {
        self.snapshot
            .load()
            .live_entry(i)
            .expect("entry index out of bounds")
    }

    /// Video ids with at least one live key frame.
    pub fn video_ids(&self) -> Vec<u64> {
        let snap = self.snapshot.load();
        let mut ids: Vec<u64> = snap
            .video_sequences()
            .iter()
            .map(|(v_id, _)| *v_id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// The calibration in use (exposed for diagnostics/benches). Returns
    /// a clone — the live calibration belongs to the current snapshot.
    pub fn calibration(&self) -> ScoreCalibration {
        self.snapshot.load().calibration().clone()
    }

    /// Combined similarity between two feature sets under `weights`.
    pub fn combined_similarity(
        &self,
        a: &FeatureSet,
        b: &FeatureSet,
        weights: &FeatureWeights,
    ) -> f64 {
        let snap = self.snapshot.load();
        weights.combine(|kind| snap.calibration().similarity(kind, a.distance(b, kind)))
    }

    /// Query by example frame. Its seven descriptors are extracted on
    /// the shared pool, `options.threads` wide, one cell per kind.
    pub fn query_frame(&self, frame: &RgbImage, options: &QueryOptions) -> Vec<FrameMatch> {
        let features = {
            let _extract = self.metrics.registry.timer(&self.metrics.frame_extract);
            let mut sets = extract_feature_sets_parallel(&[frame], options.threads);
            sets.pop().expect("one set per frame")
        };
        let range = paper_range(&Histogram256::of_rgb_luma(frame));
        self.query_features(&features, range, options)
    }

    /// Query by pre-extracted features (the evaluation harness reuses
    /// extracted query features across sweeps).
    pub fn query_features(
        &self,
        features: &FeatureSet,
        range: RangeKey,
        options: &QueryOptions,
    ) -> Vec<FrameMatch> {
        self.metrics.frame_requests.inc();
        if options.k == 0 {
            return Vec::new();
        }
        // One snapshot load serves the whole query: the commit lock is
        // never taken and concurrent ingest/compaction cannot change what
        // this query sees.
        let snap = self.snapshot.load();
        let candidates = {
            let _scan = self.metrics.registry.timer(&self.metrics.frame_scan);
            snap.candidates(range, options.use_index)
        };
        self.metrics.frame_candidates.add(candidates.len() as u64);
        if candidates.is_empty() {
            return Vec::new();
        }
        // Candidates pass the per-segment arenas' bound tier on the shared
        // pool, and each survivor is scored in full; each chunk keeps a
        // bounded top-k heap (O(n log k), no full match vector) and folds
        // it into the shared accumulator. `rank_frame_matches` is a total
        // order and the tier only ever rejects candidates *proven* unable
        // to enter the top-k, so the selected set — and its sorted order —
        // is independent of how chunks were claimed, of the `abandon`
        // setting, and of the segment layout: any `threads` value returns
        // exactly the serial monolithic result.
        let plan = CascadePlan::new(&options.weights, snap.calibration());
        let query = QueryVectors::from_set(features);
        let merged = Mutex::new(TopK::new(options.k, rank_frame_matches));
        let ceil = DistCeil::new();
        let chunk = scoring_chunk(candidates.len());
        {
            let _score = self.metrics.registry.timer(&self.metrics.frame_score);
            ExecPool::global().run(candidates.len(), chunk, options.threads, |chunk_range| {
                let mut local = TopK::new(options.k, rank_frame_matches);
                let mut tally = CascadeTally::default();
                for &r in &candidates[chunk_range] {
                    let cutoff = ceil.cutoff(options.abandon, local.worst().map(|m| 1.0 - m.score));
                    let seg = snap.segment(r.segment);
                    let (arena, row) = (seg.arena(), r.row as usize);
                    if !arena.tier(&query, row, &plan, cutoff, &mut tally) {
                        continue;
                    }
                    let score = arena.cascade_score(&query, row, &plan, &mut tally);
                    let e = &seg.rows()[row];
                    local.push(FrameMatch {
                        i_id: e.i_id,
                        v_id: e.v_id,
                        score,
                    });
                }
                ceil.merge(&merged, local, |m| 1.0 - m.score);
                self.metrics.flush_tally(&tally);
            });
        }
        let _merge = self.metrics.registry.timer(&self.metrics.frame_merge);
        merged
            .into_inner()
            .expect("top-k accumulator poisoned")
            .into_sorted()
    }

    /// How many candidates the index yields for a query frame (ablation
    /// instrumentation: candidate-set size vs the full catalog).
    pub fn candidate_count(&self, frame: &RgbImage, use_index: bool) -> usize {
        let range = paper_range(&Histogram256::of_rgb_luma(frame));
        self.snapshot.load().candidates(range, use_index).len()
    }

    /// Query by example clip: DTW over key-frame feature sequences.
    pub fn query_video(
        &self,
        query: &Video,
        keyframe_config: &KeyframeConfig,
        options: &QueryOptions,
    ) -> Vec<VideoMatch> {
        let keyframes = extract_keyframes(query, keyframe_config);
        let frames: Vec<&RgbImage> = keyframes.iter().map(|k| &k.frame).collect();
        let query_features = extract_feature_sets_parallel(&frames, options.threads);
        self.query_feature_sequence(&query_features, options)
    }

    /// Clip query from a pre-extracted feature sequence.
    pub fn query_feature_sequence(
        &self,
        query: &[FeatureSet],
        options: &QueryOptions,
    ) -> Vec<VideoMatch> {
        self.metrics.clip_requests.inc();
        // An empty query aligns with nothing: no ranking, as a frame query
        // that matches no candidate.
        if options.k == 0 || query.is_empty() {
            return Vec::new();
        }
        // One snapshot load serves the whole query (see query_features).
        let snap = self.snapshot.load();
        // The query's quantised vectors are shared by every alignment;
        // build them once instead of once per catalog video.
        let plan = CascadePlan::new(&options.weights, snap.calibration());
        let query_vecs: Vec<QueryVectors> = query.iter().map(QueryVectors::from_set).collect();
        let videos = snap.video_sequences();
        // One DTW per video, chunk size 1: alignments dominate the cost
        // and vary with sequence length, so fine-grained stealing
        // balances them. Each alignment is a bounded DTW against the best
        // known k-th-best distance: the bound tier bounds every cell
        // (`TierCells`, kind-major over the video's rows), and the DTW
        // scores in full each cell its bound does not prove off every path
        // within the cutoff.
        // Abandoned videos are provably outside the top-k and survivors
        // keep their exact distance bits, so results match the no-abandon
        // path exactly. Videos are walked in arena order, so a serial
        // query's cutoff trajectory — and its telemetry — is fixed.
        let merged = Mutex::new(TopK::new(options.k, rank_video_matches));
        let ceil = DistCeil::new();
        {
            let _dtw = self.metrics.registry.timer(&self.metrics.clip_dtw);
            ExecPool::global().run(videos.len(), 1, options.threads, |chunk_range| {
                let mut local = TopK::new(options.k, rank_video_matches);
                let mut abandoned = 0u64;
                let mut tally = CascadeTally::default();
                let mut cells = TierCells::default();
                let mut scratch = DtwScratch::default();
                let mut rows = Vec::new();
                for (v_id, refs) in &videos[chunk_range] {
                    let cutoff = ceil.cutoff(options.abandon, local.worst().map(|m| m.distance));
                    rows.clear();
                    rows.extend(
                        refs.iter()
                            .map(|r| (snap.segment(r.segment).arena(), r.row as usize)),
                    );
                    let (n, m) = (query_vecs.len(), rows.len());
                    let limit = cost_limit(cutoff, n, m);
                    let aligned =
                        if cells.fill(&query_vecs, &rows, &plan, limit, &mut scratch, &mut tally) {
                            dtw_distance_bounded(
                                n,
                                m,
                                cutoff,
                                cells.lower(),
                                |i, j| {
                                    let (arena, row) = rows[j];
                                    1.0 - arena.cascade_score(
                                        &query_vecs[i],
                                        row,
                                        &plan,
                                        &mut tally,
                                    )
                                },
                                &mut scratch,
                            )
                        } else {
                            None
                        };
                    match aligned {
                        Some(distance) => local.push(VideoMatch {
                            v_id: *v_id,
                            distance,
                        }),
                        None => abandoned += 1,
                    }
                }
                ceil.merge(&merged, local, |m| m.distance);
                if abandoned > 0 {
                    self.metrics.abandon_dtw.add(abandoned);
                }
                self.metrics.flush_clip_tally(&tally, &scratch);
            });
        }
        let _rank = self.metrics.registry.timer(&self.metrics.clip_rank);
        merged
            .into_inner()
            .expect("top-k accumulator poisoned")
            .into_sorted()
    }

    /// Metadata query: case-insensitive substring match on video names.
    pub fn find_videos_by_name(&self, needle: &str) -> Vec<(u64, String)> {
        let snap = self.snapshot.load();
        let needle = needle.to_lowercase();
        let mut out: Vec<(u64, String)> = snap
            .video_names()
            .iter()
            .filter(|(_, name)| name.to_lowercase().contains(&needle))
            .map(|(&id, name)| (id, name.clone()))
            .collect();
        out.sort_by_key(|(id, _)| *id);
        out
    }

    /// The name of a video, if known. Returns a clone — the name belongs
    /// to the current snapshot.
    pub fn video_name(&self, v_id: u64) -> Option<String> {
        self.snapshot.load().video_names().get(&v_id).cloned()
    }

    /// Add a freshly ingested video's entries by sealing them as one new
    /// segment and publishing a snapshot that appends it — queries in
    /// flight keep their old snapshot; no read is ever blocked. The
    /// calibration is carried over, *not* recomputed — it drifts slowly
    /// as the catalog grows, and [`QueryEngine::compact`] /
    /// [`QueryEngine::recalibrate`] refresh it; incremental adds keep
    /// interactive admin operations cheap.
    pub fn add_video(&self, name: &str, entries: Vec<CatalogEntry>) {
        if entries.is_empty() {
            return;
        }
        let _commit = self.commit_guard();
        let snap = self.snapshot.load();
        let seg = Segment::seal(self.next_seg_id.fetch_add(1, Ordering::Relaxed), entries);
        self.metrics.arena_bytes.add(seg.arena().bytes() as u64);
        let mut names = snap.video_names().clone();
        let mut tombstones = snap.tombstones().clone();
        let mut resurrected = BTreeSet::new();
        for e in seg.rows() {
            names.insert(e.v_id, name.to_string());
            // Re-adding a previously removed id brings it back; its rows
            // must then be exactly the ones added now, so the old masked
            // rows are purged from their segments below rather than
            // resurrected alongside.
            if tombstones.remove(&e.v_id) {
                resurrected.insert(e.v_id);
            }
        }
        let mut segments = Vec::with_capacity(snap.segments().len() + 1);
        for old in snap.segments() {
            if resurrected.is_empty() || !old.rows().iter().any(|e| resurrected.contains(&e.v_id)) {
                segments.push(Arc::clone(old));
                continue;
            }
            let id = self.next_seg_id.fetch_add(1, Ordering::Relaxed);
            let kept = live_rows(std::slice::from_ref(old), &resurrected);
            let rebuilt = Segment::copy_rows(id, kept);
            if !rebuilt.is_empty() {
                self.metrics.arena_bytes.add(rebuilt.arena().bytes() as u64);
                segments.push(Arc::new(rebuilt));
            }
        }
        segments.push(Arc::new(seg));
        let next =
            CatalogSnapshot::assemble(segments, tombstones, names, snap.calibration().clone());
        self.publish(next);
    }

    /// Remove a video by tombstoning it: the published snapshot masks its
    /// rows everywhere (candidates, sequences, stats) without touching the
    /// sealed segments; compaction reclaims the space later. Returns the
    /// number of key frames removed.
    pub fn remove_video(&self, v_id: u64) -> usize {
        let _commit = self.commit_guard();
        let snap = self.snapshot.load();
        let removed = snap
            .video_sequences()
            .iter()
            .find(|(v, _)| *v == v_id)
            .map_or(0, |(_, rows)| rows.len());
        if removed == 0 {
            return 0;
        }
        let mut names = snap.video_names().clone();
        names.remove(&v_id);
        let mut tombstones = snap.tombstones().clone();
        tombstones.insert(v_id);
        let next = CatalogSnapshot::assemble(
            snap.segments().to_vec(),
            tombstones,
            names,
            snap.calibration().clone(),
        );
        self.publish(next);
        removed
    }

    /// Merge the catalog into one segment, dropping tombstoned rows and
    /// recomputing the calibration from the live entries (in global
    /// order, so it equals a from-scratch rebuild's calibration).
    ///
    /// The heavy work — copying the live arena rows into the merged
    /// segment, building its index, recalibrating — runs *off* the
    /// commit lock; queries and ingests proceed throughout. The publish
    /// step rebases over segments appended while the merge ran: the new
    /// snapshot is the merged segment followed by every segment that was
    /// not part of the base, preserving global order for those appended
    /// rows. If a base segment is gone by then (another compaction, or an
    /// [`QueryEngine::add_video`] that re-added a removed id, replaced it),
    /// its rows live on in a segment the base never had, so the merge runs
    /// again from the current snapshot, under the lock.
    pub fn compact(&self) -> CompactionReport {
        let _timer = self.metrics.registry.timer(&self.metrics.compaction);
        let merge = |base: &CatalogSnapshot| {
            let merged = (base.live() > 0).then(|| {
                let id = self.next_seg_id.fetch_add(1, Ordering::Relaxed);
                let seg = Segment::copy_rows(id, live_rows(base.segments(), base.tombstones()));
                self.metrics.arena_bytes.add(seg.arena().bytes() as u64);
                Arc::new(seg)
            });
            let calibration = ScoreCalibration::from_segments(merged.as_slice(), &BTreeSet::new());
            (merged, calibration)
        };
        let mut base = self.snapshot.load();
        let (mut merged, mut calibration) = merge(&base);

        let _commit = self.commit_guard();
        let current = self.snapshot.load();
        let ids = |snap: &CatalogSnapshot| -> BTreeSet<u64> {
            snap.segments().iter().map(|s| s.id()).collect()
        };
        if !ids(&base).is_subset(&ids(&current)) {
            base = Arc::clone(&current);
            (merged, calibration) = merge(&base);
        }
        let base_ids = ids(&base);
        let segments_before = base.segments().len();
        let rows_dropped = base.rows() - base.live();
        let mut segments: Vec<Arc<Segment>> = merged.into_iter().collect();
        for seg in current.segments() {
            if !base_ids.contains(&seg.id()) {
                segments.push(Arc::clone(seg));
            }
        }
        // Keep only tombstones that still mask rows in the new segment
        // list (a video removed mid-merge still has rows in the merged
        // segment; one fully compacted away needs no tombstone).
        let present: BTreeSet<u64> = segments
            .iter()
            .flat_map(|s| s.rows().iter().map(|e| e.v_id))
            .collect();
        let tombstones: BTreeSet<u64> = current
            .tombstones()
            .iter()
            .copied()
            .filter(|v| present.contains(v))
            .collect();
        let next = CatalogSnapshot::assemble(
            segments,
            tombstones,
            current.video_names().clone(),
            calibration,
        );
        let segments_after = next.segments().len();
        self.publish(next);
        self.metrics.compaction_runs.inc();
        self.metrics
            .compaction_rows_dropped
            .add(rows_dropped as u64);
        CompactionReport {
            segments_before,
            segments_after,
            rows_dropped,
        }
    }

    /// Recompute the calibration from the live entries (global order) and
    /// republish the current segments unchanged. Same calibration as a
    /// from-scratch rebuild, without rebuilding arenas or indexes.
    pub fn recalibrate(&self) {
        let _commit = self.commit_guard();
        let snap = self.snapshot.load();
        let calibration = ScoreCalibration::from_segments(snap.segments(), snap.tombstones());
        let next = CatalogSnapshot::assemble(
            snap.segments().to_vec(),
            snap.tombstones().clone(),
            snap.video_names().clone(),
            calibration,
        );
        self.publish(next);
    }

    /// Per-segment shape of the current snapshot (`cbvr stats`).
    pub fn segment_stats(&self) -> Vec<SegmentStats> {
        let snap = self.snapshot.load();
        snap.segments()
            .iter()
            .map(|s| SegmentStats {
                id: s.id(),
                rows: s.len(),
                live_rows: live_rows(std::slice::from_ref(s), snap.tombstones()).count(),
                arena_bytes: s.arena().bytes(),
            })
            .collect()
    }

    /// Segments in the current snapshot.
    pub fn segment_count(&self) -> usize {
        self.snapshot.load().segments().len()
    }

    /// Tombstoned videos awaiting compaction.
    pub fn tombstone_count(&self) -> usize {
        self.snapshot.load().tombstones().len()
    }

    /// Run `f` while holding the commit lock (test hook: proves queries
    /// complete while a mutation is mid-commit, i.e. the read path never
    /// takes the commit lock).
    #[doc(hidden)]
    pub fn with_commit_locked<R>(&self, f: impl FnOnce() -> R) -> R {
        let _commit = self.commit_guard();
        f()
    }

    /// Render the Fig. 7 index tree with catalog occupancy (merged across
    /// segments, tombstones excluded).
    pub fn render_index_tree(&self) -> String {
        self.snapshot.load().bucket_counts().render_tree()
    }

    /// Index statistics (for the ablation bench), merged across segments
    /// with tombstoned rows excluded.
    pub fn index_stats(&self) -> cbvr_index::IndexStats {
        self.snapshot.load().bucket_counts().stats()
    }
}

/// Group a flat `i_id`-ordered catalog scan into segment groups along the
/// WAL manifest. Rows covered by the same manifest record share a group;
/// consecutive rows covered by no record (legacy databases, or rows
/// ingested before the manifest existed) are grouped together as runs.
/// Concatenating the groups in order reproduces the scan order exactly.
fn partition_by_manifest(
    entries: Vec<CatalogEntry>,
    manifest: &[ManifestSegment],
) -> Vec<Vec<CatalogEntry>> {
    let mut groups: Vec<Vec<CatalogEntry>> = Vec::new();
    let mut current: Option<Option<usize>> = None;
    let mut j = 0usize;
    for e in entries {
        while j < manifest.len() && manifest[j].max_i_id < e.i_id {
            j += 1;
        }
        let key = (j < manifest.len() && manifest[j].min_i_id <= e.i_id).then_some(j);
        if current != Some(key) {
            groups.push(Vec::new());
            current = Some(key);
        }
        groups.last_mut().expect("group pushed above").push(e);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::{ingest_video, IngestConfig};
    use cbvr_video::{Category, GeneratorConfig, VideoGenerator};

    fn generator() -> VideoGenerator {
        VideoGenerator::new(GeneratorConfig {
            width: 64,
            height: 48,
            shots_per_video: 2,
            min_shot_frames: 4,
            max_shot_frames: 6,
            ..GeneratorConfig::default()
        })
        .unwrap()
    }

    type Fixture = (QueryEngine, Vec<(u64, Category)>, Vec<CatalogEntry>);

    /// The engine over six ingested clips, their labels, and every stored
    /// row read back from the database in catalog order.
    fn populated() -> &'static Fixture {
        // Ingestion is expensive; build one shared fixture for the suite.
        static FIXTURE: std::sync::OnceLock<Fixture> = std::sync::OnceLock::new();
        FIXTURE.get_or_init(|| {
            let mut db = cbvr_storage::CbvrDatabase::in_memory().unwrap();
            let g = generator();
            let mut labels = Vec::new();
            let mut entries = Vec::new();
            for (i, category) in [Category::Sports, Category::Movie, Category::ELearning]
                .iter()
                .enumerate()
            {
                for seed in 0..2u64 {
                    let video = g.generate(*category, seed + 10 * i as u64).unwrap();
                    let name = format!("{}_{seed}", category.name());
                    let report =
                        ingest_video(&mut db, &name, &video, &IngestConfig::default()).unwrap();
                    labels.push((report.v_id, *category));
                    for &i_id in &report.keyframe_ids {
                        let row = db.get_key_frame(i_id).unwrap();
                        entries.push(CatalogEntry::from_key_frame(&row).unwrap());
                    }
                }
            }
            (
                QueryEngine::from_database(&mut db).unwrap(),
                labels,
                entries,
            )
        })
    }

    fn populated_engine() -> (&'static QueryEngine, &'static [(u64, Category)]) {
        let (engine, labels, _) = populated();
        (engine, labels)
    }

    #[test]
    fn engine_loads_catalog_from_database() {
        let (engine, labels) = populated_engine();
        assert!(!engine.is_empty());
        assert_eq!(engine.video_ids().len(), labels.len());
        for (v_id, _) in labels {
            assert!(engine.video_name(*v_id).is_some());
        }
    }

    #[test]
    fn self_query_ranks_own_keyframe_first() {
        let (engine, _, entries) = populated();
        // Query with a catalog key frame's own features: its entry must
        // score 1.0 and rank first.
        let e = &entries[0];
        assert_eq!(engine.entry(0).i_id, e.i_id);
        let results = engine.query_features(&e.features, e.range, &QueryOptions::default());
        assert_eq!(results[0].i_id, e.i_id);
        assert!((results[0].score - 1.0).abs() < 1e-9);
    }

    #[test]
    fn same_category_outranks_other_categories() {
        let (engine, labels) = populated_engine();
        let g = generator();
        // A fresh sports clip (unseen seed): its frames should retrieve
        // sports key frames ahead of movie/e-learning ones.
        let probe = g.generate(Category::Sports, 999).unwrap();
        let frame = probe.frame(0).unwrap();
        let results = engine.query_frame(
            frame,
            &QueryOptions {
                k: 5,
                ..Default::default()
            },
        );
        assert!(!results.is_empty());
        let category_of = |v_id: u64| labels.iter().find(|(v, _)| *v == v_id).unwrap().1;
        assert_eq!(
            category_of(results[0].v_id),
            Category::Sports,
            "top match should be sports, got {:?}",
            results
        );
    }

    #[test]
    fn index_prunes_but_no_index_is_exhaustive() {
        let (engine, _) = populated_engine();
        let g = generator();
        let probe = g.generate(Category::Movie, 777).unwrap();
        let frame = probe.frame(0).unwrap();
        let with = engine.candidate_count(frame, true);
        let without = engine.candidate_count(frame, false);
        assert_eq!(without, engine.len());
        assert!(with <= without);
    }

    #[test]
    fn results_are_sorted_and_truncated() {
        let (engine, _) = populated_engine();
        let g = generator();
        let probe = g.generate(Category::ELearning, 55).unwrap();
        let results = engine.query_frame(
            probe.frame(0).unwrap(),
            &QueryOptions {
                k: 3,
                use_index: false,
                ..Default::default()
            },
        );
        assert_eq!(results.len(), 3);
        for pair in results.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
    }

    #[test]
    fn video_query_finds_itself() {
        let (engine, labels) = populated_engine();
        // Re-generate the exact ingested clip and query with it: the same
        // video must rank first with ~zero distance.
        let g = generator();
        let target = labels[0];
        let video = g.generate(target.1, 0).unwrap();
        let results =
            engine.query_video(&video, &KeyframeConfig::default(), &QueryOptions::default());
        assert_eq!(results[0].v_id, target.0, "{results:?}");
        assert!(
            results[0].distance < 1e-6,
            "self distance {}",
            results[0].distance
        );
    }

    #[test]
    fn empty_clip_query_returns_no_ranking() {
        // Aligning nothing against every video used to return k arbitrary
        // videos tied at distance ∞; like a frame query that matches no
        // candidate, it must return an empty ranking.
        let (engine, _) = populated_engine();
        assert!(!engine.video_ids().is_empty());
        for threads in [1, THREADS_AUTO] {
            for abandon in [false, true] {
                let options = QueryOptions {
                    k: 3,
                    threads,
                    abandon,
                    ..QueryOptions::default()
                };
                assert!(engine.query_feature_sequence(&[], &options).is_empty());
            }
        }
    }

    #[test]
    fn metadata_query_matches_substrings() {
        let (engine, _) = populated_engine();
        let hits = engine.find_videos_by_name("SPORTS");
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|(_, name)| name.starts_with("sports")));
        assert!(engine.find_videos_by_name("nope").is_empty());
    }

    #[test]
    fn single_feature_weights_change_ranking_scores() {
        let (engine, _, entries) = populated();
        let e = &entries[1];
        let combined = engine.query_features(&e.features, e.range, &QueryOptions::default());
        let histogram_only = engine.query_features(
            &e.features,
            e.range,
            &QueryOptions {
                weights: FeatureWeights::single(FeatureKind::ColorHistogram),
                ..Default::default()
            },
        );
        // Both rank the self-entry first...
        assert_eq!(combined[0].i_id, e.i_id);
        assert_eq!(histogram_only[0].i_id, e.i_id);
        // ...but score the runner-up differently in general.
        if combined.len() > 1 && histogram_only.len() > 1 {
            let c = combined.iter().find(|m| m.i_id == histogram_only[1].i_id);
            if let Some(c) = c {
                // Scores come from different similarity mixtures.
                assert!((c.score - histogram_only[1].score).abs() > 1e-12 || c.score == 1.0);
            }
        }
    }

    #[test]
    fn empty_engine_behaviour() {
        let engine = QueryEngine::from_catalog(Vec::new(), HashMap::new());
        assert!(engine.is_empty());
        let img = RgbImage::new(8, 8).unwrap();
        assert!(engine
            .query_frame(&img, &QueryOptions::default())
            .is_empty());
        assert!(engine.find_videos_by_name("x").is_empty());
        assert!(engine
            .query_feature_sequence(&[], &QueryOptions::default())
            .is_empty());
    }

    #[test]
    fn incremental_add_matches_full_rebuild_results() {
        let g = generator();
        let mut db = cbvr_storage::CbvrDatabase::in_memory().unwrap();
        let v1 = g.generate(Category::Sports, 1).unwrap();
        ingest_video(&mut db, "one", &v1, &IngestConfig::default()).unwrap();
        let engine = QueryEngine::from_database(&mut db).unwrap();

        // Ingest a second video, then add it incrementally.
        let v2 = g.generate(Category::Movie, 2).unwrap();
        let report = ingest_video(&mut db, "two", &v2, &IngestConfig::default()).unwrap();
        let fresh_entries = report
            .keyframe_ids
            .iter()
            .map(|&i_id| CatalogEntry::from_key_frame(&db.get_key_frame(i_id).unwrap()).unwrap())
            .collect();
        engine.add_video("two", fresh_entries);

        let rebuilt = QueryEngine::from_database(&mut db).unwrap();
        assert_eq!(engine.len(), rebuilt.len());
        assert_eq!(engine.video_ids(), rebuilt.video_ids());
        // Same ranking for a probe (scores may differ slightly through
        // calibration, order of the top hit must agree).
        let probe = g.generate(Category::Movie, 77).unwrap();
        let a = engine.query_frame(probe.frame(0).unwrap(), &QueryOptions::default());
        let b = rebuilt.query_frame(probe.frame(0).unwrap(), &QueryOptions::default());
        assert_eq!(a[0].i_id, b[0].i_id);
    }

    #[test]
    fn incremental_remove_excludes_video() {
        let (_, labels, entries) = populated();
        let engine = QueryEngine::from_catalog(
            entries.clone(),
            labels
                .iter()
                .map(|(v, c)| (*v, c.name().to_string()))
                .collect(),
        );
        let victim = labels[0].0;
        let removed = engine.remove_video(victim);
        assert!(removed > 0);
        assert!(!engine.video_ids().contains(&victim));
        assert!(engine.video_name(victim).is_none());
        assert_eq!(engine.index_stats().items, engine.len());
        // Removing again is a no-op.
        assert_eq!(engine.remove_video(victim), 0);
        // Queries never return the removed video.
        let g = generator();
        let probe = g.generate(labels[0].1, 50).unwrap();
        let results = engine.query_frame(
            probe.frame(0).unwrap(),
            &QueryOptions {
                k: 100,
                use_index: false,
                ..Default::default()
            },
        );
        assert!(results.iter().all(|m| m.v_id != victim));
    }

    #[test]
    fn index_tree_renders() {
        let (engine, _) = populated_engine();
        let tree = engine.render_index_tree();
        assert!(tree.contains("0-255 (root)"));
        let stats = engine.index_stats();
        assert_eq!(stats.items, engine.len());
    }

    fn fixture_names(labels: &[(u64, Category)]) -> HashMap<u64, String> {
        labels
            .iter()
            .map(|(v, c)| (*v, c.name().to_string()))
            .collect()
    }

    #[test]
    fn segment_split_returns_bit_identical_results() {
        let (engine, labels, entries) = populated();
        let mid = entries.len() / 2;
        let split = QueryEngine::from_segmented(
            vec![entries[..mid].to_vec(), entries[mid..].to_vec()],
            fixture_names(labels),
        );
        assert_eq!(split.segment_count(), 2);
        assert_eq!(split.len(), engine.len());
        // Same calibration (sampled over the same global order) and the
        // exact same ranked matches, scores included.
        assert_eq!(split.calibration(), engine.calibration());
        let probe = &entries[3];
        for use_index in [false, true] {
            let opts = QueryOptions {
                k: 10,
                use_index,
                ..Default::default()
            };
            assert_eq!(
                engine.query_features(&probe.features, probe.range, &opts),
                split.query_features(&probe.features, probe.range, &opts),
            );
        }
    }

    /// Every live row of `a` equals the same-position live row of `b`:
    /// keys, and each kind's arena slice by `to_bits`.
    fn assert_rows_bit_identical(a: &QueryEngine, b: &QueryEngine) {
        let (sa, sb) = (a.snapshot.load(), b.snapshot.load());
        let ra: Vec<_> = live_rows(sa.segments(), sa.tombstones()).collect();
        let rb: Vec<_> = live_rows(sb.segments(), sb.tombstones()).collect();
        assert_eq!(ra.len(), rb.len());
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (&(x, i), &(y, j)) in ra.iter().zip(&rb) {
            assert_eq!(x.rows()[i], y.rows()[j]);
            for kind in FeatureKind::ALL {
                let (u, v) = (x.arena().slice(kind, i), y.arena().slice(kind, j));
                assert_eq!(bits(u), bits(v), "{kind} row {i}");
            }
        }
    }

    /// A full-scan frame query's `(i_id, score bits)` for each probe.
    fn score_bits(engine: &QueryEngine, probes: &[CatalogEntry]) -> Vec<Vec<(u64, u64)>> {
        let opts = QueryOptions {
            k: 100,
            use_index: false,
            ..Default::default()
        };
        probes
            .iter()
            .map(|p| {
                let found = engine.query_features(&p.features, p.range, &opts);
                found.iter().map(|m| (m.i_id, m.score.to_bits())).collect()
            })
            .collect()
    }

    #[test]
    fn compaction_drops_tombstones_and_matches_rebuild_calibration() {
        let (_, labels, entries) = populated();
        let mid = entries.len() / 2;
        let seg = QueryEngine::from_segmented(
            vec![entries[..mid].to_vec(), entries[mid..].to_vec()],
            fixture_names(labels),
        );
        let victim = labels[0].0;
        let removed = seg.remove_video(victim);
        assert!(removed > 0);
        assert_eq!(seg.tombstone_count(), 1);
        let rows_before: usize = seg.segment_stats().iter().map(|s| s.rows).sum();

        let report = seg.compact();
        assert_eq!(report.segments_before, 2);
        assert_eq!(report.segments_after, 1);
        assert_eq!(report.rows_dropped, removed);
        assert_eq!(seg.tombstone_count(), 0);
        let rows_after: usize = seg.segment_stats().iter().map(|s| s.rows).sum();
        assert_eq!(rows_after, rows_before - removed);

        // Post-compaction state equals a from-scratch rebuild over the
        // survivors: same calibration, the copied arena rows and the
        // ranked results bit-for-bit.
        let survivors: Vec<CatalogEntry> = entries
            .iter()
            .filter(|e| e.v_id != victim)
            .cloned()
            .collect();
        let mut names = fixture_names(labels);
        names.remove(&victim);
        let rebuilt = QueryEngine::from_catalog(survivors, names);
        assert_eq!(seg.calibration(), rebuilt.calibration());
        assert_rows_bit_identical(&seg, &rebuilt);
        assert_eq!(
            score_bits(&seg, &entries[..3]),
            score_bits(&rebuilt, &entries[..3])
        );
    }

    #[test]
    fn readding_a_removed_video_resurrects_it() {
        let (_, labels, entries) = populated();
        let seg = QueryEngine::from_catalog(entries.clone(), fixture_names(labels));
        let victim = labels[0].0;
        let (victim_entries, others): (Vec<CatalogEntry>, Vec<CatalogEntry>) =
            entries.iter().cloned().partition(|e| e.v_id == victim);
        let removed = seg.remove_video(victim);
        assert_eq!(removed, victim_entries.len());
        seg.add_video("returned", victim_entries.clone());
        assert_eq!(seg.len(), entries.len());
        assert_eq!(seg.tombstone_count(), 0);
        assert!(seg.video_ids().contains(&victim));
        assert_eq!(seg.video_name(victim).as_deref(), Some("returned"));

        // The purge copied the other videos' rows out of the shared
        // segment; the catalog now equals a fresh build of the same
        // entries in the same order, once recalibrated.
        seg.recalibrate();
        let fresh = QueryEngine::from_catalog(
            others.into_iter().chain(victim_entries).collect(),
            fixture_names(labels),
        );
        assert_eq!(seg.calibration(), fresh.calibration());
        assert_rows_bit_identical(&seg, &fresh);
        assert_eq!(
            score_bits(&seg, &entries[..3]),
            score_bits(&fresh, &entries[..3])
        );
    }

    #[test]
    fn from_database_groups_one_segment_per_ingest() {
        let g = generator();
        let mut db = cbvr_storage::CbvrDatabase::in_memory().unwrap();
        for seed in 0..2u64 {
            let video = g.generate(Category::Sports, 40 + seed).unwrap();
            ingest_video(
                &mut db,
                &format!("v{seed}"),
                &video,
                &IngestConfig::default(),
            )
            .unwrap();
        }
        let engine = QueryEngine::from_database(&mut db).unwrap();
        assert_eq!(engine.segment_count(), 2, "{:?}", engine.segment_stats());
        assert_eq!(
            engine.len(),
            engine.segment_stats().iter().map(|s| s.rows).sum::<usize>()
        );
    }

    #[test]
    fn from_database_returns_a_row_parse_error() {
        let mut db = cbvr_storage::CbvrDatabase::in_memory().unwrap();
        let video = generator().generate(Category::Sports, 3).unwrap();
        let report = ingest_video(&mut db, "v", &video, &IngestConfig::default()).unwrap();
        let row = db.get_key_frame(report.keyframe_ids[0]).unwrap();
        db.insert_key_frame(&cbvr_storage::KeyFrameRecord {
            i_name: "broken".into(),
            image: Vec::new(),
            min: row.min,
            max: row.max,
            sch: row.sch.clone(),
            glcm: "not a glcm string".into(),
            gabor: row.gabor.clone(),
            tamura: row.tamura.clone(),
            acc: row.acc.clone(),
            naive: row.naive.clone(),
            srg: row.srg.clone(),
            majorregions: row.majorregions,
            v_id: report.v_id,
        })
        .unwrap();
        assert!(matches!(
            QueryEngine::from_database(&mut db),
            Err(crate::error::CoreError::Feature(_))
        ));
    }

    #[test]
    fn partition_by_manifest_groups_runs_and_orphans() {
        let img = RgbImage::new(8, 8).unwrap();
        let features = FeatureSet::extract(&img);
        let entry = |i_id: u64| CatalogEntry {
            i_id,
            v_id: i_id,
            range: RangeKey::new(0, 255),
            features: features.clone(),
        };
        let entries: Vec<CatalogEntry> = (1..=6).map(entry).collect();
        let manifest = [
            ManifestSegment {
                min_i_id: 1,
                max_i_id: 2,
                rows: 2,
            },
            ManifestSegment {
                min_i_id: 5,
                max_i_id: 6,
                rows: 2,
            },
        ];
        let groups = partition_by_manifest(entries, &manifest);
        let ids: Vec<Vec<u64>> = groups
            .iter()
            .map(|g| g.iter().map(|e| e.i_id).collect())
            .collect();
        // Manifest-covered runs become their own groups; the uncovered
        // rows 3-4 form one orphan run between them.
        assert_eq!(ids, vec![vec![1, 2], vec![3, 4], vec![5, 6]]);
        // No manifest at all: one group holding everything.
        let flat = partition_by_manifest((1..=3).map(entry).collect(), &[]);
        assert_eq!(flat.len(), 1);
        assert_eq!(flat[0].len(), 3);
    }
}
