//! Columnar descriptor arena: a certified bound tier in front of exact
//! scoring.
//!
//! The arena is the catalog's only stored form of a row's descriptors:
//! sealing a segment vectorizes each [`FeatureSet`] once and drops it.
//! Ranking, calibration and compaction all read the same rows, laid out
//! as a structure of arrays:
//!
//! - one contiguous, 64-byte-aligned `f32` slab per feature kind, with a
//!   fixed per-entry stride (`entry i`'s vector is `slab[i*dim..(i+1)*dim]`),
//!   so the scan streams each feature column linearly;
//! - per-entry *bound statistics* (vector mass for the histogram kinds, L2
//!   norm for the Euclidean kinds) precomputed at build time: the
//!   Jensen–Shannon kernels normalise by the histogram mass, and the bound
//!   tier's first stage bounds every distance from them in O(1).
//!
//! The **bound tier** ([`DescriptorArena::tier`] for a frame candidate,
//! `TierCells` for a clip video's DTW cells) is the one filter: certified
//! lower bounds of every stage distance, first from the bound statistics
//! in O(1), then from the reassociated `f32` kernels of
//! `cbvr_features::distance` (`*_lower_f32`), cheapest kind first
//! ([`CASCADE_ORDER`]). It rejects frame candidates and clip DTW cells
//! whose bound already proves them out of the top-k. Every survivor is
//! scored in full by [`DescriptorArena::cascade_score`], the same
//! arithmetic as the unfiltered scan, so its score keeps its bits and a
//! rejected candidate is *proven* unable to enter the top-k: ranked
//! results are identical at every thread count and every `abandon`
//! setting.

use crate::dtw::{cheapest_paths, DtwScratch};
use crate::score::{similarity_for_scale, ScoreCalibration};
use crate::weights::FeatureWeights;
use cbvr_features::distance::{
    jensen_shannon_f32, jensen_shannon_lower_f32, l2_f32, l2_lower_f32, l2_norm_f32, mass_f32,
    naive_rgb_f32, naive_rgb_lower_f32, regions_rel_f32, rgb_diag, scaled_l1_f32,
    scaled_l1_lower_f32,
};
use cbvr_features::{FeatureKind, FeatureSet};

/// Stage order: ascending per-stage kernel cost (elements per entry ×
/// per-element work: regions 3, GLCM 5, Tamura 18, Gabor 60, naive 75,
/// correlogram 256, histogram 256 — the histogram last because its
/// Jensen–Shannon kernel pays two `ln` per bin, the costliest per element).
///
/// The bound tier tightens its bounds in this order and stops at the first
/// stage that proves a candidate out, so cheapest-first maximises the
/// elements *skipped* per rejection: with the default weights the
/// histogram+naive prefix carries only ~27% of the total weight, so an
/// expensive-first order could not reject before the cheap kinds had
/// run. See DESIGN.md "Query path".
pub const CASCADE_ORDER: [FeatureKind; 7] = [
    FeatureKind::Regions,
    FeatureKind::Glcm,
    FeatureKind::Tamura,
    FeatureKind::Gabor,
    FeatureKind::Naive,
    FeatureKind::Correlogram,
    FeatureKind::ColorHistogram,
];

/// Number of feature kinds (arena columns).
pub const KINDS: usize = FeatureKind::ALL.len();

/// Slack subtracted from the tier's summed gap before it rejects: the gap
/// and the final [`FeatureWeights::combine`] accumulate in different
/// orders, so their float results can differ in the last bits. The margin
/// makes every rejection conservative by ~1e-9 score units — vastly more
/// than the actual reassociation error — so no candidate within rounding
/// distance of the cutoff is ever dropped.
const SCORE_EPS: f64 = 1e-9;

/// Multiplicative deflation applied to distance bounds for the same
/// reason at the distance level.
const BOUND_SLOP: f64 = 1e-9;

/// Arena vector width (f32 elements) per entry for a kind.
pub fn kind_dim(kind: FeatureKind) -> usize {
    match kind {
        FeatureKind::ColorHistogram => 256,
        FeatureKind::Glcm => 5,
        FeatureKind::Gabor => 60,
        FeatureKind::Tamura => 18,
        FeatureKind::Correlogram => 256,
        FeatureKind::Naive => 75, // 25 grid points × RGB
        FeatureKind::Regions => 3,
    }
}

/// One cache line of `f32`s; the alignment carrier for the slabs.
#[repr(C, align(64))]
#[derive(Clone, Copy)]
struct Align64([f32; 16]);

const LANE: usize = 16;

/// A growable `f32` buffer whose backing storage is 64-byte aligned, so
/// slab vectors sit on cache-line boundaries whenever their stride allows.
pub struct AlignedF32 {
    chunks: Vec<Align64>,
    len: usize,
}

impl Default for AlignedF32 {
    fn default() -> Self {
        AlignedF32::new()
    }
}

impl AlignedF32 {
    /// Empty buffer.
    pub fn new() -> AlignedF32 {
        AlignedF32 {
            chunks: Vec::new(),
            len: 0,
        }
    }

    /// Elements stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no elements are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes of backing storage (whole cache lines).
    pub fn bytes(&self) -> usize {
        self.chunks.len() * std::mem::size_of::<Align64>()
    }

    /// The elements as one contiguous slice.
    pub fn as_slice(&self) -> &[f32] {
        // SAFETY: `chunks` is a contiguous array of `[f32; 16]` blocks and
        // `len <= chunks.len() * 16` by construction, so the first `len`
        // f32s are initialised, contiguous and properly aligned.
        unsafe { std::slice::from_raw_parts(self.chunks.as_ptr() as *const f32, self.len) }
    }

    /// Append every element of `v`.
    pub fn extend_from_slice(&mut self, v: &[f32]) {
        for &x in v {
            if self.len.is_multiple_of(LANE) {
                self.chunks.push(Align64([0.0; LANE]));
            }
            self.chunks.last_mut().expect("chunk just ensured").0[self.len % LANE] = x;
            self.len += 1;
        }
    }
}

/// Flatten one descriptor of `set` into `out` as `kind_dim(kind)` f32s.
/// This is the *only* quantisation point: catalog entries and query
/// feature sets pass through the same function, so a self-query sees
/// bit-identical vectors (distance exactly 0, score exactly 1).
pub fn vectorize_into(kind: FeatureKind, set: &FeatureSet, out: &mut Vec<f32>) {
    match kind {
        FeatureKind::ColorHistogram => out.extend(set.histogram.counts().iter().map(|&c| c as f32)),
        FeatureKind::Glcm => out.extend(set.glcm.normalized_vector().iter().map(|&v| v as f32)),
        FeatureKind::Gabor => out.extend(set.gabor.features().iter().map(|&v| v as f32)),
        FeatureKind::Tamura => out.extend(set.tamura.normalized_vector().iter().map(|&v| v as f32)),
        FeatureKind::Correlogram => out.extend(set.correlogram.values().iter().map(|&v| v as f32)),
        FeatureKind::Naive => {
            for c in set.naive.colors() {
                out.push(c.r as f32);
                out.push(c.g as f32);
                out.push(c.b as f32);
            }
        }
        FeatureKind::Regions => {
            out.push(set.regions.regions as f32);
            out.push(set.regions.holes as f32);
            out.push(set.regions.major_regions as f32);
        }
    }
}

/// The precomputed per-vector bound statistic for a kind: total mass for
/// the mass-normalised histogram kinds, L2 norm for the Euclidean kinds,
/// unused (0) for the 3-element region vector.
fn bound_stat(kind: FeatureKind, v: &[f32]) -> f64 {
    match kind {
        FeatureKind::ColorHistogram | FeatureKind::Correlogram => mass_f32(v),
        FeatureKind::Glcm | FeatureKind::Gabor | FeatureKind::Tamura | FeatureKind::Naive => {
            l2_norm_f32(v)
        }
        FeatureKind::Regions => 0.0,
    }
}

/// The tier's first stage: an O(1) lower bound of the kind's native
/// distance from the two vectors' bound statistics, deflated by
/// `BOUND_SLOP` so statistic rounding can never make it exceed the true
/// distance:
///
/// - L2 kinds: reverse triangle inequality, `|‖a‖ − ‖b‖| ≤ ‖a − b‖`;
/// - correlogram (scaled L1): `|Σa − Σb| ≤ Σ|a−b|`, then `/ dim`;
/// - naive signature: the sum of per-point RGB norms dominates the full
///   75-dim L2 norm (ℓ1 of norms ≥ ℓ2), which dominates `|Δnorm|`;
/// - histogram (Jensen–Shannon) and regions: no useful O(1) bound → 0.
fn stat_bound(kind: FeatureKind, a: Row, b: Row) -> f64 {
    let k = kind as usize;
    let delta = (a.0.stats[k][a.1] - b.0.stats[k][b.1]).abs();
    let raw = match kind {
        FeatureKind::Glcm | FeatureKind::Gabor | FeatureKind::Tamura => delta,
        FeatureKind::Correlogram => delta / kind_dim(FeatureKind::Correlogram) as f64,
        FeatureKind::Naive => delta / ((kind_dim(FeatureKind::Naive) / 3) as f64 * rgb_diag()),
        FeatureKind::ColorHistogram | FeatureKind::Regions => 0.0,
    };
    raw * (1.0 - BOUND_SLOP)
}

/// One stored row: an arena and an entry index in it.
pub(crate) type Row<'a> = (&'a DescriptorArena, usize);

/// The kind's native distance between rows `a` and `b`. The one distance
/// definition: ranking calls it with the query as `a`, calibration with
/// two catalog rows.
pub(crate) fn stage_distance(kind: FeatureKind, a: Row, b: Row) -> f64 {
    let (av, bv) = (a.0.slice(kind, a.1), b.0.slice(kind, b.1));
    match kind {
        FeatureKind::ColorHistogram => {
            let k = kind as usize;
            jensen_shannon_f32(av, bv, a.0.stats[k][a.1], b.0.stats[k][b.1])
        }
        FeatureKind::Glcm | FeatureKind::Gabor | FeatureKind::Tamura => l2_f32(av, bv),
        FeatureKind::Correlogram => scaled_l1_f32(av, bv, kind_dim(kind) as f64),
        FeatureKind::Naive => naive_rgb_f32(av, bv),
        FeatureKind::Regions => regions_rel_f32(av, bv),
    }
}

/// The tier's kernel bound of the kind's native distance between rows `a`
/// and `b`: never above the float result of `stage_distance(kind, a, b)`.
/// The `*_lower_f32` kernels certify that for the six costly kinds; the
/// 3-element region vector runs its exact kernel.
pub(crate) fn stage_bound(kind: FeatureKind, a: Row, b: Row) -> f64 {
    let (av, bv) = (a.0.slice(kind, a.1), b.0.slice(kind, b.1));
    match kind {
        FeatureKind::ColorHistogram => {
            let k = kind as usize;
            jensen_shannon_lower_f32(av, bv, a.0.stats[k][a.1], b.0.stats[k][b.1])
        }
        FeatureKind::Glcm | FeatureKind::Gabor | FeatureKind::Tamura => l2_lower_f32(av, bv),
        FeatureKind::Correlogram => scaled_l1_lower_f32(av, bv, kind_dim(kind) as f64),
        FeatureKind::Naive => naive_rgb_lower_f32(av, bv),
        FeatureKind::Regions => regions_rel_f32(av, bv),
    }
}

/// A stage's share of the distance `1 − score` when its distance is `d`:
/// `frac·(1 − s(d)) = frac·d/(scale + d)`, which grows with `d`, so a
/// lower bound of `d` gives a lower bound of the share.
fn stage_gap(stage: &CascadeStage, d: f64) -> f64 {
    stage.frac * (d / (stage.scale + d))
}

/// A summed tier gap, deflated by `BOUND_SLOP` and `SCORE_EPS`: the exact
/// distance is `1 − combine(…)`, summed in another order. Above a cutoff
/// it proves that distance strictly above the cutoff.
fn certified(gap: f64) -> f64 {
    gap * (1.0 - BOUND_SLOP) - SCORE_EPS
}

/// One candidate's running tier state: its per-kind distance bounds,
/// indexed by the kind's discriminant, and the summed share of the
/// distance `1 − score` they imply.
#[derive(Clone, Copy)]
struct TierState {
    bounds: [f64; KINDS],
    gap: f64,
}

impl TierState {
    /// The first stage: every active kind's [`stat_bound`], no element
    /// visited.
    fn from_stats(plan: &CascadePlan, a: Row, b: Row) -> TierState {
        let mut state = TierState {
            bounds: [0.0; KINDS],
            gap: 0.0,
        };
        for stage in &plan.stages {
            let d = stat_bound(stage.kind, a, b);
            state.bounds[stage.kind as usize] = d;
            state.gap += stage_gap(stage, d);
        }
        state
    }

    /// The certified lower bound of the distance `1 − score`.
    fn lower(&self) -> f64 {
        certified(self.gap).max(0.0)
    }

    /// Apply the stage's kernel bound: raise its kind's bound when that is
    /// higher, keeping the gap in step. Every raise adds a non-negative
    /// amount, so the running gap only grows and is the sum of the final
    /// shares to within a few ulps.
    fn tighten(&mut self, stage: &CascadeStage, a: Row, b: Row, tally: &mut CascadeTally) {
        let k = stage.kind as usize;
        let d = stage_bound(stage.kind, a, b);
        tally.tier_elements += kind_dim(stage.kind) as u64;
        if d > self.bounds[k] {
            self.gap += stage_gap(stage, d) - stage_gap(stage, self.bounds[k]);
            self.bounds[k] = d;
        }
    }
}

/// Columnar storage for every catalog entry's descriptors: seven aligned
/// `f32` slabs (one per kind, fixed stride) plus per-entry bound stats.
pub struct DescriptorArena {
    data: [AlignedF32; KINDS],
    stats: [Vec<f64>; KINDS],
    len: usize,
}

impl Default for DescriptorArena {
    fn default() -> Self {
        DescriptorArena::new()
    }
}

impl DescriptorArena {
    /// Empty arena.
    pub fn new() -> DescriptorArena {
        DescriptorArena {
            data: std::array::from_fn(|_| AlignedF32::new()),
            stats: std::array::from_fn(|_| Vec::new()),
            len: 0,
        }
    }

    /// Entries stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total bytes of slab storage (what each build adds to the
    /// cumulative `query.arena.bytes` counter).
    pub fn bytes(&self) -> usize {
        let slabs: usize = self.data.iter().map(AlignedF32::bytes).sum();
        let stats: usize = self
            .stats
            .iter()
            .map(|s| s.len() * std::mem::size_of::<f64>())
            .sum();
        slabs + stats
    }

    /// Append one entry's descriptors. Entry index = insertion order.
    pub fn push(&mut self, set: &FeatureSet) {
        let mut scratch = Vec::with_capacity(256);
        for kind in FeatureKind::ALL {
            scratch.clear();
            vectorize_into(kind, set, &mut scratch);
            debug_assert_eq!(scratch.len(), kind_dim(kind), "{kind}");
            self.stats[kind as usize].push(bound_stat(kind, &scratch));
            self.data[kind as usize].extend_from_slice(&scratch);
        }
        self.len += 1;
    }

    /// Append a copy of `src`'s entry `i`: its slab slices and bound
    /// stats as stored, without vectorizing again.
    pub(crate) fn push_row(&mut self, src: &DescriptorArena, i: usize) {
        for kind in FeatureKind::ALL {
            self.data[kind as usize].extend_from_slice(src.slice(kind, i));
            self.stats[kind as usize].push(src.stats[kind as usize][i]);
        }
        self.len += 1;
    }

    /// Entry `i`'s vector for `kind`.
    pub fn slice(&self, kind: FeatureKind, i: usize) -> &[f32] {
        let dim = kind_dim(kind);
        &self.data[kind as usize].as_slice()[i * dim..(i + 1) * dim]
    }

    /// The bound tier for one frame candidate: `false` when it proves
    /// entry `i`'s distance `1 − score` strictly above `cutoff`, `true`
    /// when the entry survives and must be scored
    /// ([`DescriptorArena::cascade_score`]).
    ///
    /// The first stage bounds every kind from the bound statistics; then
    /// each stage's kernel bound raises its kind's, cheapest first. The
    /// candidate is rejected as soon as the summed share of `1 − score`
    /// they imply, deflated for rounding, exceeds `cutoff`, before any
    /// exact kernel runs. At a cutoff of 1 or more nothing can be rejected
    /// (every gap is below 1), so the tier does no work.
    pub fn tier(
        &self,
        query: &QueryVectors,
        i: usize,
        plan: &CascadePlan,
        cutoff: f64,
        tally: &mut CascadeTally,
    ) -> bool {
        if cutoff >= 1.0 || plan.stages.is_empty() {
            return true;
        }
        let (q, r) = ((&query.0, 0), (self, i));
        tally.tier_seen += 1;
        let mut state = TierState::from_stats(plan, q, r);
        let mut last = plan.stages[0].kind;
        for stage in &plan.stages {
            if state.lower() > cutoff {
                break;
            }
            state.tighten(stage, q, r, tally);
            last = stage.kind;
        }
        if state.lower() > cutoff {
            tally.tier_rejected += 1;
            tally.abandoned[last as usize] += 1;
            return false;
        }
        true
    }

    /// Entry `i`'s score against `query`: every stage's distance in
    /// [`CASCADE_ORDER`], mapped by `similarity_for_scale` and clamped to
    /// `[0, 1]`, then combined by [`FeatureWeights::combine`]. A tier
    /// survivor and an unfiltered scan run this same arithmetic, so the
    /// score has the same bits either way.
    pub fn cascade_score(
        &self,
        query: &QueryVectors,
        i: usize,
        plan: &CascadePlan,
        tally: &mut CascadeTally,
    ) -> f64 {
        let mut sims = [0.0f64; KINDS];
        for stage in &plan.stages {
            let d = stage_distance(stage.kind, (&query.0, 0), (self, i));
            tally.elements += kind_dim(stage.kind) as u64;
            sims[stage.kind as usize] = similarity_for_scale(stage.scale, d).clamp(0.0, 1.0);
        }
        tally.survivors += 1;
        plan.weights.combine(|kind| sims[kind as usize])
    }
}

/// Bound elements per cell between two path checks of [`TierCells::fill`].
const CHECK_ELEMENTS: usize = 64;

/// Reusable scratch for the clip path's bound tier: one cell per (query
/// frame, row) pair of the video being aligned, row-major by query frame.
/// It holds `80·n·m` bytes for an `n`-frame query against an `m`-row
/// video and is reused across the videos of one pool chunk, so its size
/// follows the longest video a chunk aligns, never the catalog.
#[derive(Default)]
pub(crate) struct TierCells {
    states: Vec<TierState>,
    lower: Vec<f64>,
    through: Vec<f64>,
}

impl TierCells {
    /// Bound every cell of one video: first from the bound statistics,
    /// then stage by stage, kind-major — for each stage, each query
    /// frame's vector of that kind against each row, so one kernel and one
    /// query vector stay hot across the video's rows. Returns `false` as
    /// soon as the cheapest warping path over the bounds so far exceeds
    /// `limit` (the DTW's cost limit): the video is then proven out of the
    /// top-k.
    ///
    /// The path is checked before the first stage, then whenever
    /// [`CHECK_ELEMENTS`] per cell have been bounded since, and after each
    /// query frame's cells of a stage at least that costly, so a video
    /// proven out mid-stage skips the rest of it. The finished bounds are
    /// not checked here: the DTW's own lower pass makes that test on the
    /// same matrix. A cell that every path within the limit avoids
    /// ([`cheapest_paths`]) is one the DTW never scores — its exact
    /// predecessors cost at least their bounds — so its bound is not
    /// tightened further. With an infinite limit nothing can be pruned, so
    /// nothing is bounded: every bound is 0.
    pub(crate) fn fill(
        &mut self,
        query: &[QueryVectors],
        rows: &[Row],
        plan: &CascadePlan,
        limit: f64,
        scratch: &mut DtwScratch,
        tally: &mut CascadeTally,
    ) -> bool {
        let (n, m) = (query.len(), rows.len());
        self.states.clear();
        self.lower.clear();
        if !limit.is_finite() || n * m == 0 {
            self.lower.resize(n * m, 0.0);
            return true;
        }
        for q in query {
            for &row in rows {
                let state = TierState::from_stats(plan, (&q.0, 0), row);
                self.states.push(state);
                self.lower.push(state.lower());
            }
        }
        // Path checks cost about as much as bounding a few dozen elements
        // per cell, so they run only once that much bounding has piled up
        // since the last one, and after each query frame within a stage at
        // least that costly.
        let mut pending = CHECK_ELEMENTS;
        for stage in &plan.stages {
            let dim = kind_dim(stage.kind);
            if pending >= CHECK_ELEMENTS {
                if cheapest_paths(n, m, &self.lower, &mut self.through, scratch) > limit {
                    return false;
                }
                pending = 0;
            }
            for (qi, q) in query.iter().enumerate() {
                for (j, &row) in rows.iter().enumerate() {
                    let c = qi * m + j;
                    if self.through[c] > limit {
                        continue;
                    }
                    self.states[c].tighten(stage, (&q.0, 0), row, tally);
                    self.lower[c] = self.states[c].lower();
                }
                if dim >= CHECK_ELEMENTS
                    && qi + 1 < n
                    && cheapest_paths(n, m, &self.lower, &mut self.through, scratch) > limit
                {
                    return false;
                }
            }
            pending += dim;
        }
        true
    }

    /// Per-cell lower bounds of the cell distance `1 − score` after
    /// [`TierCells::fill`]: the DTW's lower matrix.
    pub(crate) fn lower(&self) -> &[f64] {
        &self.lower
    }
}

/// The query's side of the arena: the query's feature set as the one row
/// of its own arena, quantised by the same [`vectorize_into`] the catalog
/// uses.
pub struct QueryVectors(DescriptorArena);

impl QueryVectors {
    /// Quantise one feature set.
    pub fn from_set(set: &FeatureSet) -> QueryVectors {
        let mut arena = DescriptorArena::new();
        arena.push(set);
        QueryVectors(arena)
    }
}

/// One scoring stage: a kind with positive weight, its score fraction and
/// calibrated distance scale.
#[derive(Clone, Copy, Debug)]
pub struct CascadeStage {
    /// Which feature this stage scores.
    pub kind: FeatureKind,
    /// The kind's share of the final score (`w / Σw`).
    pub frac: f64,
    /// The kind's calibrated distance scale.
    pub scale: f64,
}

/// A compiled scoring plan: the active stages in [`CASCADE_ORDER`] plus
/// the weights used for the final (exact) combination.
pub struct CascadePlan {
    /// Active stages, cheapest first.
    pub stages: Vec<CascadeStage>,
    /// The weights the final score combines under (cloned from the query).
    pub weights: FeatureWeights,
}

impl CascadePlan {
    /// Compile a plan from query weights and the engine calibration.
    /// Kinds with non-positive weight are skipped entirely (their
    /// similarity is irrelevant to [`FeatureWeights::combine`]); a
    /// degenerate all-zero weighting yields a plan with no stages whose
    /// every score is 0, matching `combine`.
    pub fn new(weights: &FeatureWeights, calibration: &ScoreCalibration) -> CascadePlan {
        let total = weights.total();
        let mut stages = Vec::with_capacity(KINDS);
        if total > 0.0 {
            for kind in CASCADE_ORDER {
                let w = weights.get(kind);
                if w > 0.0 {
                    stages.push(CascadeStage {
                        kind,
                        frac: w / total,
                        scale: calibration.scale(kind),
                    });
                }
            }
        }
        CascadePlan {
            stages,
            weights: weights.clone(),
        }
    }
}

/// Per-chunk tier and scoring accounting, flushed to the engine's telemetry once
/// per chunk (plain integers on the hot path, atomics once per chunk).
#[derive(Clone, Default)]
pub struct CascadeTally {
    /// Exact distance-kernel elements visited (the cost unit of the
    /// element counters).
    pub elements: u64,
    /// Bound-tier kernel elements visited.
    pub tier_elements: u64,
    /// Frame candidates the tier checked against a cutoff (the clip
    /// path's cell counts are the DTW's own, in its scratch).
    pub tier_seen: u64,
    /// Of those, the ones the tier rejected before any exact kernel.
    pub tier_rejected: u64,
    /// Candidates (or DTW cells) scored in full: the tier's survivors.
    pub survivors: u64,
    /// Frame candidates the tier rejected, per kind (indexed by
    /// discriminant): the stage whose bound it stopped at.
    pub abandoned: [u64; KINDS],
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbvr_imgproc::{Rgb, RgbImage};

    fn set(seed: u8) -> FeatureSet {
        let img = RgbImage::from_fn(24, 24, |x, y| {
            Rgb::new(
                (x * 9).wrapping_add(seed as u32 * 37) as u8,
                (y * 11).wrapping_add(seed as u32) as u8,
                seed.wrapping_mul(13),
            )
        })
        .unwrap();
        FeatureSet::extract(&img)
    }

    fn build(n: u8) -> (DescriptorArena, Vec<FeatureSet>) {
        let sets: Vec<FeatureSet> = (0..n).map(set).collect();
        let mut arena = DescriptorArena::new();
        for s in &sets {
            arena.push(s);
        }
        (arena, sets)
    }

    /// Entry `i`'s exact score.
    fn full_score(arena: &DescriptorArena, q: &QueryVectors, i: usize, plan: &CascadePlan) -> f64 {
        arena.cascade_score(q, i, plan, &mut CascadeTally::default())
    }

    #[test]
    fn slabs_are_contiguous_and_aligned() {
        let (arena, _) = build(5);
        assert_eq!(arena.len(), 5);
        for kind in FeatureKind::ALL {
            let dim = kind_dim(kind);
            assert_eq!(arena.data[kind as usize].len(), 5 * dim, "{kind}");
            let ptr = arena.data[kind as usize].as_slice().as_ptr() as usize;
            assert_eq!(ptr % 64, 0, "{kind} slab not 64-byte aligned");
            for i in 0..5 {
                assert_eq!(arena.slice(kind, i).len(), dim);
            }
        }
        assert!(arena.bytes() > 0);
    }

    #[test]
    fn self_query_scores_exactly_one() {
        let (arena, sets) = build(4);
        let calibration = ScoreCalibration::default();
        let plan = CascadePlan::new(&FeatureWeights::default(), &calibration);
        for (i, s) in sets.iter().enumerate() {
            let q = QueryVectors::from_set(s);
            assert_eq!(full_score(&arena, &q, i, &plan), 1.0, "entry {i}");
        }
    }

    #[test]
    fn tier_survivors_score_as_the_full_scan() {
        let (arena, sets) = build(8);
        let calibration = ScoreCalibration::default();
        let plan = CascadePlan::new(&FeatureWeights::default(), &calibration);
        let q = QueryVectors::from_set(&sets[3]);
        let full: Vec<f64> = (0..8).map(|i| full_score(&arena, &q, i, &plan)).collect();
        // Cut off at the 2nd-best distance: the top entries must survive
        // with bit-identical scores, the rest must be rejected or lie
        // beyond the cutoff.
        let mut sorted = full.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let cutoff = 1.0 - sorted[1];
        let mut tally = CascadeTally::default();
        for (i, &expect) in full.iter().enumerate() {
            if arena.tier(&q, i, &plan, cutoff, &mut tally) {
                assert_eq!(
                    arena.cascade_score(&q, i, &plan, &mut tally),
                    expect,
                    "entry {i}"
                );
            } else {
                let distance = 1.0 - expect;
                assert!(
                    distance > cutoff,
                    "entry {i} rejected at {distance} ≤ {cutoff}"
                );
            }
        }
        assert!(tally.survivors >= 2, "the top-2 must survive");
        assert_eq!(tally.tier_seen, 8);
        let full_elements: u64 = FeatureKind::ALL
            .iter()
            .map(|&k| 8 * kind_dim(k) as u64)
            .sum();
        assert!(tally.elements <= full_elements);
        assert!(tally.tier_elements <= full_elements);
    }

    /// A two-row arena from raw vectors, one `(a, b)` pair per kind.
    fn raw_pair(mut vectors: impl FnMut(FeatureKind) -> (Vec<f32>, Vec<f32>)) -> DescriptorArena {
        let mut arena = DescriptorArena::new();
        for kind in FeatureKind::ALL {
            let (a, b) = vectors(kind);
            for v in [a, b] {
                assert_eq!(v.len(), kind_dim(kind));
                arena.stats[kind as usize].push(bound_stat(kind, &v));
                arena.data[kind as usize].extend_from_slice(&v);
            }
        }
        arena.len = 2;
        arena
    }

    #[test]
    fn tight_tier_bounds_never_exceed_the_exact_distances() {
        use rand::{Rng, SeedableRng};
        // Rows where the bounds are (nearly) equalities in the reals, so
        // only their deflations keep them below the kernels' float
        // results: collinear rows (`b = c·a`, `c` a power of two, exact
        // in f32) for the reverse triangle inequality and the metric
        // kernels, and near-uniform two-bin histograms for Pinsker.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x57a7);
        let regions_only = CascadePlan::new(
            &FeatureWeights::single(FeatureKind::Regions),
            &ScoreCalibration::default(),
        );
        for _ in 0..256 {
            let c = [0.25f32, 0.5, 2.0, 4.0][rng.gen_range(0..4usize)];
            let eps = rng.gen_range(3e-3f32..0.02);
            let arena = raw_pair(|kind| {
                if kind == FeatureKind::ColorHistogram {
                    let mut a = vec![0.0f32; kind_dim(kind)];
                    let mut b = a.clone();
                    (a[0], a[1], b[0], b[1]) = (0.5 + eps, 0.5 - eps, 0.5 - eps, 0.5 + eps);
                    return (a, b);
                }
                let a: Vec<f32> = (0..kind_dim(kind))
                    .map(|_| rng.gen_range(1.0f32..255.0))
                    .collect();
                let b = if kind == FeatureKind::Regions {
                    // Its bound is exact anyway: vary the distance instead.
                    (0..kind_dim(kind))
                        .map(|_| rng.gen_range(1.0f32..255.0))
                        .collect()
                } else {
                    a.iter().map(|x| x * c).collect()
                };
                (a, b)
            });
            let (a, b) = ((&arena, 0), (&arena, 1));
            for kind in FeatureKind::ALL {
                let exact = stage_distance(kind, a, b);
                let stat = stat_bound(kind, a, b);
                let kernel = stage_bound(kind, a, b);
                assert!(
                    stat <= exact,
                    "{kind} statistic: {stat} > {exact} (c = {c})"
                );
                assert!(
                    kernel <= exact,
                    "{kind} kernel: {kernel} > {exact} (c = {c})"
                );
                // Tight: a bound inflated by 0.1% would exceed the exact
                // distance.
                assert!(kernel * 1.001 > exact, "{kind} kernel: {kernel} vs {exact}");
            }
            // The regions stage's bound is its exact distance: only the
            // certified deflation keeps the tier's gap below `1 − score`.
            let q = QueryVectors({
                let mut row = DescriptorArena::new();
                row.push_row(&arena, 0);
                row
            });
            let mut tier = TierState::from_stats(&regions_only, a, b);
            tier.tighten(&regions_only.stages[0], a, b, &mut CascadeTally::default());
            let exact = 1.0 - full_score(&arena, &q, 1, &regions_only);
            assert!(tier.lower() <= exact, "regions: {} > {exact}", tier.lower());
        }
    }

    #[test]
    fn tier_bounds_never_exceed_the_exact_distances() {
        let (arena, sets) = build(8);
        for a in 0..arena.len() {
            for b in 0..arena.len() {
                for kind in FeatureKind::ALL {
                    let bound = stage_bound(kind, (&arena, a), (&arena, b));
                    let exact = stage_distance(kind, (&arena, a), (&arena, b));
                    assert!(
                        bound >= 0.0 && bound <= exact,
                        "{kind} {a}/{b}: {bound} > {exact}"
                    );
                    if a == b {
                        assert_eq!(bound, 0.0, "{kind} self pair");
                    }
                }
            }
        }
        let rows: Vec<Row> = (0..arena.len()).map(|i| (&arena, i)).collect();
        for weights in [
            FeatureWeights::default(),
            FeatureWeights::uniform(),
            FeatureWeights::single(FeatureKind::Gabor),
            FeatureWeights::single(FeatureKind::ColorHistogram),
        ] {
            let plan = CascadePlan::new(&weights, &ScoreCalibration::default());
            let query: Vec<QueryVectors> = sets.iter().map(QueryVectors::from_set).collect();
            let mut cells = TierCells::default();
            let mut scratch = DtwScratch::default();
            let mut tally = CascadeTally::default();
            assert!(cells.fill(&query, &rows, &plan, f64::MAX, &mut scratch, &mut tally));
            let stage_elements: u64 = plan.stages.iter().map(|st| kind_dim(st.kind) as u64).sum();
            assert_eq!(
                tally.tier_elements,
                64 * stage_elements,
                "every cell, every stage"
            );
            for (qi, q) in query.iter().enumerate() {
                for i in 0..arena.len() {
                    let c = qi * arena.len() + i;
                    let exact = 1.0 - full_score(&arena, q, i, &plan);
                    // The cell's bound, and the one its per-kind bounds
                    // give: both below the exact distance.
                    let cell = cells.lower()[c];
                    assert!(cell >= 0.0 && cell <= exact, "{cell} > {exact}");
                    let bounds = &cells.states[c].bounds;
                    let lower: f64 = certified(
                        plan.stages
                            .iter()
                            .map(|st| stage_gap(st, bounds[st.kind as usize]))
                            .sum(),
                    )
                    .max(0.0);
                    assert!(
                        lower >= 0.0 && lower <= exact,
                        "{lower} > {exact} ({qi}/{i})"
                    );
                    if i == qi {
                        assert_eq!(lower, 0.0, "self pair");
                    }
                    // The frame tier rejects a candidate whose cell bound
                    // exceeds the cutoff.
                    let cutoff = lower * 0.999;
                    let mut t = CascadeTally::default();
                    if cutoff > 0.0 && cutoff < 1.0 {
                        assert!(!arena.tier(q, i, &plan, cutoff, &mut t), "{qi}/{i}");
                    }
                }
            }
            // An infinite limit bounds nothing.
            let mut tally = CascadeTally::default();
            assert!(cells.fill(
                &query,
                &rows,
                &plan,
                f64::INFINITY,
                &mut scratch,
                &mut tally
            ));
            assert_eq!(tally.tier_elements, 0);
            assert!(cells.lower().iter().all(|&l| l == 0.0));
        }
        // The tier carries a real share of the default weight.
        let plan = CascadePlan::new(&FeatureWeights::default(), &ScoreCalibration::default());
        let q = [QueryVectors::from_set(&sets[0])];
        let mut cells = TierCells::default();
        let mut scratch = DtwScratch::default();
        let mut tally = CascadeTally::default();
        assert!(cells.fill(&q, &rows, &plan, f64::MAX, &mut scratch, &mut tally));
        assert!(cells.lower()[1..].iter().all(|&l| l > 0.0));
        // A limit below the cheapest path stops at the first stage whose
        // bounds prove it, long before the costly kinds.
        let mut tally = CascadeTally::default();
        assert!(!cells.fill(&q, &rows, &plan, 0.0, &mut scratch, &mut tally));
        assert!(
            tally.tier_elements <= 8 * (3 + 5 + 18 + 60),
            "{}",
            tally.tier_elements
        );
    }

    #[test]
    fn infinite_cutoff_never_rejects() {
        let (arena, sets) = build(6);
        let plan = CascadePlan::new(&FeatureWeights::uniform(), &ScoreCalibration::default());
        let q = QueryVectors::from_set(&sets[0]);
        let mut tally = CascadeTally::default();
        // No distance exceeds 1 either, so a cutoff of 1 does no work too.
        for cutoff in [f64::INFINITY, 1.0] {
            for i in 0..6 {
                assert!(arena.tier(&q, i, &plan, cutoff, &mut tally));
                arena.cascade_score(&q, i, &plan, &mut tally);
            }
        }
        assert_eq!((tally.tier_seen, tally.tier_elements), (0, 0));
        assert_eq!(tally.abandoned, [0; KINDS]);
        assert_eq!(tally.survivors, 12);
    }

    #[test]
    fn zero_weights_yield_empty_cascade_and_zero_scores() {
        let (arena, sets) = build(2);
        let weights = FeatureWeights::from_pairs(&[]);
        let plan = CascadePlan::new(&weights, &ScoreCalibration::default());
        assert!(plan.stages.is_empty());
        let q = QueryVectors::from_set(&sets[1]);
        assert_eq!(full_score(&arena, &q, 0, &plan), 0.0);
    }
}
