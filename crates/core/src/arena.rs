//! Columnar descriptor arena + exact early-abandon cascade scoring.
//!
//! The seed engine stored one heap-allocated [`FeatureSet`] per catalog
//! entry and the candidate scan pointer-chased seven descriptors per
//! candidate, always paying the full Gabor/correlogram/histogram kernel
//! cost even for candidates that could never enter the top-k. This module
//! replaces that layout with a structure-of-arrays arena:
//!
//! - one contiguous, 64-byte-aligned `f32` slab per feature kind, with a
//!   fixed per-entry stride (`entry i`'s vector is `slab[i*dim..(i+1)*dim]`),
//!   so the scan streams each feature column linearly;
//! - per-entry *bound statistics* (vector mass for the histogram kinds, L2
//!   norm for the Euclidean kinds) precomputed at build time, powering O(1)
//!   triangle-inequality pre-bounds before any kernel runs.
//!
//! On top sits the **cascade**: features are scored cheapest-first
//! ([`CASCADE_ORDER`]), a running *upper bound* of the candidate's final
//! weighted score is maintained, and the candidate is abandoned the moment
//! the bound falls below the current k-th-best score threshold. Both the
//! abandonment and the per-kernel partial-sum cutoffs are exact (see
//! [`DescriptorArena::cascade_score`]): a surviving candidate's score is
//! bit-identical to the no-abandon scan, and an abandoned candidate is
//! *proven* unable to enter the top-k, so ranked results are identical at
//! every thread count and every `abandon` setting.

use crate::score::{similarity_for_scale, ScoreCalibration};
use crate::weights::FeatureWeights;
use cbvr_features::distance::{
    jensen_shannon_f32, l2_f32, l2_norm_f32, mass_f32, naive_rgb_f32, regions_rel_f32, rgb_diag,
    scaled_l1_f32, BoundedDistance,
};
use cbvr_features::{FeatureKind, FeatureSet};

/// Cascade evaluation order: ascending per-stage kernel cost (elements per
/// entry × per-element work: regions 3, GLCM 5, Tamura 18, Gabor 60, naive
/// 75, correlogram 256, histogram 256 — the histogram last because its
/// Jensen–Shannon kernel pays two `ln` per bin, the costliest per element).
///
/// This deliberately deviates from the issue's prose order (histogram
/// first): with the default weights the histogram+naive prefix carries only
/// ~27% of the total weight, so an expensive-first order cannot build a
/// useful bound before the cheap kernels have already run. Cheapest-first
/// maximises elements *skipped* per abandon, which is what the ≥30%
/// element-reduction acceptance target measures. See DESIGN.md "Query
/// path" for the full derivation.
pub const CASCADE_ORDER: [FeatureKind; 7] = [
    FeatureKind::Regions,
    FeatureKind::Glcm,
    FeatureKind::Tamura,
    FeatureKind::Gabor,
    FeatureKind::Naive,
    FeatureKind::Correlogram,
    FeatureKind::ColorHistogram,
];

/// The cheap head of [`CASCADE_ORDER`] whose kernels
/// [`DescriptorArena::lower_gap`] runs: 86 elements per entry against 587
/// for the other three kinds, which it bounds in O(1) instead.
pub const LOWER_BOUND_KINDS: [FeatureKind; 4] =
    [FeatureKind::Regions, FeatureKind::Glcm, FeatureKind::Tamura, FeatureKind::Gabor];

/// Number of feature kinds (arena columns).
pub const KINDS: usize = FeatureKind::ALL.len();

/// Slack subtracted from the admission threshold before any abandon
/// decision: the cascade's upper-bound accounting and the final
/// [`FeatureWeights::combine`] accumulate in different orders, so their
/// float results can differ in the last bits. The margin makes every
/// abandon conservative by ~1e-9 score units — vastly more than the actual
/// reassociation error — so no candidate within rounding distance of the
/// threshold is ever dropped.
const SCORE_EPS: f64 = 1e-9;

/// Multiplicative inflation applied to distance cutoffs (and deflation to
/// pre-bounds) for the same reason at the distance level.
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
        AlignedF32 { chunks: Vec::new(), len: 0 }
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
        FeatureKind::Correlogram => {
            out.extend(set.correlogram.values().iter().map(|&v| v as f32))
        }
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

/// O(1) lower bound of the kind's native distance from the two vectors'
/// bound statistics, deflated by `BOUND_SLOP` so statistic rounding can
/// never make it exceed the true distance:
///
/// - L2 kinds: reverse triangle inequality, `|‖a‖ − ‖b‖| ≤ ‖a − b‖`;
/// - correlogram (scaled L1): `|Σa − Σb| ≤ Σ|a−b|`, then `/ dim`;
/// - naive signature: the sum of per-point RGB norms dominates the full
///   75-dim L2 norm (ℓ1 of norms ≥ ℓ2), which dominates `|Δnorm|`;
/// - histogram (Jensen–Shannon) and regions: no useful O(1) bound → 0.
fn prebound(kind: FeatureKind, stat_a: f64, stat_b: f64) -> f64 {
    let delta = (stat_a - stat_b).abs();
    let raw = match kind {
        FeatureKind::Glcm | FeatureKind::Gabor | FeatureKind::Tamura => delta,
        FeatureKind::Correlogram => delta / kind_dim(FeatureKind::Correlogram) as f64,
        FeatureKind::Naive => delta / (25.0 * rgb_diag()),
        FeatureKind::ColorHistogram | FeatureKind::Regions => 0.0,
    };
    raw * (1.0 - BOUND_SLOP)
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

    /// Total bytes of slab storage (the `query.arena.bytes` gauge).
    pub fn bytes(&self) -> usize {
        let slabs: usize = self.data.iter().map(AlignedF32::bytes).sum();
        let stats: usize = self.stats.iter().map(|s| s.len() * std::mem::size_of::<f64>()).sum();
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

    /// Entry `i`'s vector for `kind`.
    pub fn slice(&self, kind: FeatureKind, i: usize) -> &[f32] {
        let dim = kind_dim(kind);
        &self.data[kind as usize].as_slice()[i * dim..(i + 1) * dim]
    }

    /// The kind's native distance between `query` and entry `i`, or `None`
    /// once its kernel proves it exceeds `cutoff`.
    fn stage_distance(
        &self,
        kind: FeatureKind,
        query: &QueryVectors,
        i: usize,
        cutoff: f64,
    ) -> BoundedDistance {
        let k = kind as usize;
        let qv = query.vecs[k].as_slice();
        let ev = self.slice(kind, i);
        match kind {
            FeatureKind::ColorHistogram => {
                jensen_shannon_f32(qv, ev, query.stats[k], self.stats[k][i], cutoff)
            }
            FeatureKind::Glcm | FeatureKind::Gabor | FeatureKind::Tamura => l2_f32(qv, ev, cutoff),
            FeatureKind::Correlogram => scaled_l1_f32(qv, ev, kind_dim(kind) as f64, cutoff),
            FeatureKind::Naive => naive_rgb_f32(qv, ev, cutoff),
            FeatureKind::Regions => {
                let r = regions_rel_f32(qv, ev);
                match r.distance {
                    Some(d) if d > cutoff => BoundedDistance { distance: None, elements: r.elements },
                    _ => r,
                }
            }
        }
    }

    /// A lower bound of entry `i`'s *distance* `1 − score` from `query`,
    /// paying only for the cheap head of the cascade
    /// ([`LOWER_BOUND_KINDS`]: 86 of 673 elements, ~46% of the default
    /// weight) — the clip DTW prunes cells with it before any expensive
    /// kernel runs. The distance is `Σₖ fracₖ(1 − sₖ)` over every active
    /// stage. Each term is bounded from below by running the cheap kernels
    /// to the end and, for the other kinds, by the O(1) norm/mass
    /// `prebound` of their distance (similarity falls as distance grows).
    /// The result is deflated by `BOUND_SLOP` and `SCORE_EPS`, since the
    /// exact distance is computed as `1 − combine(…)` in a different order.
    pub fn lower_gap(
        &self,
        query: &QueryVectors,
        i: usize,
        plan: &CascadePlan,
        tally: &mut CascadeTally,
    ) -> f64 {
        let mut gap = 0.0f64;
        for stage in &plan.stages {
            let k = stage.kind as usize;
            let d = if LOWER_BOUND_KINDS.contains(&stage.kind) {
                let r = self.stage_distance(stage.kind, query, i, f64::INFINITY);
                tally.elements += r.elements as u64;
                r.distance.expect("an infinite cutoff never abandons")
            } else {
                prebound(stage.kind, query.stats[k], self.stats[k][i])
            };
            gap += stage.frac * (1.0 - similarity_for_scale(stage.scale, d).clamp(0.0, 1.0));
        }
        (gap * (1.0 - BOUND_SLOP) - SCORE_EPS).max(0.0)
    }

    /// Score entry `i` against `query`, abandoning as soon as the entry is
    /// *proven* unable to reach `threshold` (the caller's current k-th
    /// best score; pass `f64::NEG_INFINITY` to disable abandonment — the
    /// kernels then run to completion and the result is the exact full
    /// score).
    ///
    /// Exactness argument. Let `fracₖ = wₖ / Σw` and `sₖ ∈ [0, 1]` the
    /// per-kind similarities; the final score is `Σ fracₖ·sₖ`. After
    /// scoring a stage set `S`, `ub = 1 − Σ_{k∈S} fracₖ(1 − sₖ)` equals
    /// `Σ_{k∈S} fracₖ·sₖ + Σ_{k∉S} fracₖ`, an upper bound of the final
    /// score (remaining stages can at best contribute their full
    /// fraction). Abandonment triggers only when `ub ≤ threshold −`
    /// `SCORE_EPS`, or when a kernel proves the *current* stage alone
    /// must lose more than the remaining slack (its distance exceeds the
    /// stage's critical cutoff, computed by inverting the similarity map
    /// and inflated by `BOUND_SLOP`). Either way the candidate's true
    /// score is strictly below the threshold, so it cannot displace any
    /// kept top-k item nor win a tie (ties sit *at* the threshold and are
    /// protected by the epsilon margin). Surviving candidates run every
    /// kernel to completion on the identical accumulation sequence, so
    /// their scores are bit-identical with abandonment on or off.
    pub fn cascade_score(
        &self,
        query: &QueryVectors,
        i: usize,
        plan: &CascadePlan,
        threshold: f64,
        tally: &mut CascadeTally,
    ) -> Option<f64> {
        let mut sims = [0.0f64; KINDS];
        let mut ub = 1.0f64;
        for stage in &plan.stages {
            let k = stage.kind as usize;
            let slack = ub - (threshold - SCORE_EPS);
            if slack <= 0.0 {
                tally.abandoned[k] += 1;
                return None;
            }
            // The similarity below which this stage alone proves the
            // score cannot reach the threshold; its preimage under
            // s = 1/(1 + d/scale) is the stage's distance cutoff.
            let sim_crit = 1.0 - slack / stage.frac;
            let cutoff = if sim_crit <= 0.0 {
                f64::INFINITY
            } else {
                stage.scale * (1.0 / sim_crit - 1.0) * (1.0 + BOUND_SLOP)
            };
            if prebound(stage.kind, query.stats[k], self.stats[k][i]) > cutoff {
                tally.abandoned[k] += 1;
                return None;
            }
            let r = self.stage_distance(stage.kind, query, i, cutoff);
            tally.elements += r.elements as u64;
            let Some(d) = r.distance else {
                tally.abandoned[k] += 1;
                return None;
            };
            let s = similarity_for_scale(stage.scale, d).clamp(0.0, 1.0);
            sims[k] = s;
            ub -= stage.frac * (1.0 - s);
        }
        tally.survivors += 1;
        Some(plan.weights.combine(|kind| sims[kind as usize]))
    }
}

/// The query's side of the arena: one quantised vector and bound statistic
/// per kind, produced by the same [`vectorize_into`] the catalog uses.
pub struct QueryVectors {
    vecs: [Vec<f32>; KINDS],
    stats: [f64; KINDS],
}

impl QueryVectors {
    /// Quantise one feature set.
    pub fn from_set(set: &FeatureSet) -> QueryVectors {
        let mut vecs: [Vec<f32>; KINDS] = std::array::from_fn(|_| Vec::new());
        let mut stats = [0.0f64; KINDS];
        for kind in FeatureKind::ALL {
            vectorize_into(kind, set, &mut vecs[kind as usize]);
            stats[kind as usize] = bound_stat(kind, &vecs[kind as usize]);
        }
        QueryVectors { vecs, stats }
    }
}

/// One cascade stage: a kind with positive weight, its score fraction and
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
    /// degenerate all-zero weighting yields an empty cascade whose every
    /// score is 0, matching `combine`.
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
        CascadePlan { stages, weights: weights.clone() }
    }
}

/// Per-chunk cascade accounting, flushed to the engine's telemetry once
/// per chunk (plain integers on the hot path, atomics once per chunk).
#[derive(Clone, Default)]
pub struct CascadeTally {
    /// Distance-kernel elements visited (the cost unit the acceptance
    /// criterion measures).
    pub elements: u64,
    /// Candidates that survived the full cascade.
    pub survivors: u64,
    /// Candidates abandoned per kind (indexed by discriminant): at the
    /// stage's threshold check, its pre-bound, or inside its kernel.
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

    /// Entry `i`'s exact score: the cascade with no threshold.
    fn full_score(arena: &DescriptorArena, q: &QueryVectors, i: usize, plan: &CascadePlan) -> f64 {
        let mut tally = CascadeTally::default();
        arena
            .cascade_score(q, i, plan, f64::NEG_INFINITY, &mut tally)
            .expect("no threshold: the cascade cannot abandon")
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
    fn cascade_matches_full_scan_for_survivors() {
        let (arena, sets) = build(8);
        let calibration = ScoreCalibration::default();
        let plan = CascadePlan::new(&FeatureWeights::default(), &calibration);
        let q = QueryVectors::from_set(&sets[3]);
        let full: Vec<f64> = (0..8).map(|i| full_score(&arena, &q, i, &plan)).collect();
        // Use the 2nd-best score as the threshold: the top entries must
        // survive with bit-identical scores, the rest must be abandoned
        // or score below threshold.
        let mut sorted = full.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let thr = sorted[1];
        let mut tally = CascadeTally::default();
        for (i, &expect) in full.iter().enumerate() {
            match arena.cascade_score(&q, i, &plan, thr, &mut tally) {
                Some(got) => assert_eq!(got, expect, "entry {i}"),
                None => assert!(expect < thr, "entry {i} abandoned at score {expect} ≥ {thr}"),
            }
        }
        assert!(tally.survivors >= 2, "the top-2 must survive");
        let full_elements: u64 =
            FeatureKind::ALL.iter().map(|&k| 8 * kind_dim(k) as u64).sum();
        assert!(tally.elements <= full_elements);
    }

    #[test]
    fn lower_gap_bounds_the_exact_distance() {
        let (arena, sets) = build(8);
        for weights in [
            FeatureWeights::default(),
            FeatureWeights::uniform(),
            FeatureWeights::single(FeatureKind::Gabor),
            FeatureWeights::single(FeatureKind::ColorHistogram),
        ] {
            let plan = CascadePlan::new(&weights, &ScoreCalibration::default());
            for (qi, s) in sets.iter().enumerate() {
                let q = QueryVectors::from_set(s);
                for i in 0..arena.len() {
                    let mut tally = CascadeTally::default();
                    let lower = arena.lower_gap(&q, i, &plan, &mut tally);
                    let exact = 1.0 - full_score(&arena, &q, i, &plan);
                    assert!(lower >= 0.0 && lower <= exact, "{lower} > {exact} ({qi}/{i})");
                    if i == qi {
                        assert_eq!(lower, 0.0, "self pair");
                    }
                    // Only the cheap head's kernels run.
                    let cheap: usize = plan
                        .stages
                        .iter()
                        .filter(|st| LOWER_BOUND_KINDS.contains(&st.kind))
                        .map(|st| kind_dim(st.kind))
                        .sum();
                    assert_eq!(tally.elements, cheap as u64);
                }
            }
        }
        // The cheap head carries a real share of the default weight.
        let plan = CascadePlan::new(&FeatureWeights::default(), &ScoreCalibration::default());
        let q = QueryVectors::from_set(&sets[0]);
        let mut tally = CascadeTally::default();
        assert!((1..arena.len()).any(|i| arena.lower_gap(&q, i, &plan, &mut tally) > 0.0));
    }

    #[test]
    fn neg_infinity_threshold_never_abandons() {
        let (arena, sets) = build(6);
        let plan = CascadePlan::new(&FeatureWeights::uniform(), &ScoreCalibration::default());
        let q = QueryVectors::from_set(&sets[0]);
        let mut tally = CascadeTally::default();
        for i in 0..6 {
            assert!(arena
                .cascade_score(&q, i, &plan, f64::NEG_INFINITY, &mut tally)
                .is_some());
        }
        assert_eq!(tally.abandoned, [0; KINDS]);
        assert_eq!(tally.survivors, 6);
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
