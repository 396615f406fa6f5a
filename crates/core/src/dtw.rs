//! Dynamic-programming sequence similarity (dynamic time warping).
//!
//! §1: "We use a dynamic programming approach to compute the similarity
//! between the feature vectors for the query and feature vectors in the
//! feature database." For clip-to-clip retrieval the natural reading is
//! alignment of the two *key-frame feature sequences*: two clips of the
//! same scene cut differently still align shot-for-shot. This module is
//! that kernel, generic over the element distance.

/// Dynamic time warping distance between two sequences under `dist`,
/// normalised by `len(a) + len(b)` so values are comparable across
/// sequence lengths and exactly symmetric (normalising by the optimal
/// path's own length is not: co-optimal paths of different lengths break
/// ties asymmetrically). Empty-vs-empty is 0; empty-vs-nonempty is
/// `f64::INFINITY`.
pub fn dtw_distance<T>(a: &[T], b: &[T], mut dist: impl FnMut(&T, &T) -> f64) -> f64 {
    match (a.is_empty(), b.is_empty()) {
        (true, true) => return 0.0,
        (true, false) | (false, true) => return f64::INFINITY,
        _ => {}
    }
    let n = a.len();
    let m = b.len();
    let mut prev_cost = vec![f64::INFINITY; m + 1];
    let mut cur_cost = vec![f64::INFINITY; m + 1];
    prev_cost[0] = 0.0;

    for i in 1..=n {
        cur_cost[0] = f64::INFINITY;
        for j in 1..=m {
            let d = dist(&a[i - 1], &b[j - 1]);
            let best = prev_cost[j - 1].min(prev_cost[j]).min(cur_cost[j - 1]);
            cur_cost[j] = best + d;
        }
        std::mem::swap(&mut prev_cost, &mut cur_cost);
    }
    prev_cost[m] / (n + m) as f64
}

/// Multiplicative inflation of the bounded DTW's cost limit: the pruning
/// tests add the same non-negative terms in a different order than the
/// exact forward pass, so their float results can differ in the last bits.
/// The margin makes every prune conservative by ~1e-9 of the limit —
/// vastly more than the reassociation error of a few dozen additions.
const CUTOFF_SLOP: f64 = 1e-9;

/// The total-cost limit [`dtw_distance_bounded`] prunes against when
/// aligning `n` against `m` elements under `cutoff`: `cutoff·(n + m)`,
/// inflated by `CUTOFF_SLOP`. Infinite means nothing is pruned.
pub fn cost_limit(cutoff: f64, n: usize, m: usize) -> f64 {
    cutoff * (n + m) as f64 * (1.0 + CUTOFF_SLOP)
}

/// Reusable buffers of [`dtw_distance_bounded`]: two DP rows and the
/// `n×m` future-cost matrix, plus its cell counts. One scratch serves any
/// number of alignments, one at a time; it grows to the largest it has
/// seen.
#[derive(Default)]
pub struct DtwScratch {
    prev: Vec<f64>,
    cur: Vec<f64>,
    fut: Vec<f64>,
    /// Cells the bounded forward passes on this scratch have visited.
    pub(crate) cells: u64,
    /// Of those, the cells set to `∞` without calling `dist`.
    pub(crate) pruned: u64,
}

/// For each cell of `cost` (an `n×m` row-major matrix, `n, m ≥ 1`), the
/// cheapest total of `cost` over any warping path from `(0, 0)` to
/// `(n-1, m-1)` through that cell, stored in `through`; returns the
/// cheapest whole-path total. When `cost` lower-bounds the exact cell
/// costs, a cell whose `through` exceeds [`dtw_distance_bounded`]'s limit
/// is one it never scores: that lets a caller stop tightening the bounds
/// of such cells, or give up on the alignment when no cell is left.
pub(crate) fn cheapest_paths(
    n: usize,
    m: usize,
    cost: &[f64],
    through: &mut Vec<f64>,
    scratch: &mut DtwScratch,
) -> f64 {
    let whole = backward(n, m, cost, scratch);
    let DtwScratch { prev, cur, fut, .. } = scratch;
    // Forward pass: `prev[j]` / `cur[j + 1]` hold the cheapest total up to
    // and including cell (i-1, j) / (i, j); index 0 is an ∞ sentinel.
    for row in [&mut *prev, &mut *cur] {
        row.clear();
        row.resize(m + 1, f64::INFINITY);
    }
    through.clear();
    for i in 0..n {
        cur[0] = f64::INFINITY;
        for j in 0..m {
            let before = if i == 0 && j == 0 {
                0.0
            } else {
                prev[j].min(prev[j + 1]).min(cur[j])
            };
            cur[j + 1] = before + cost[i * m + j];
            through.push(cur[j + 1] + fut[i * m + j]);
        }
        std::mem::swap(prev, cur);
    }
    whole
}

/// One backward pass over `cost` (an `n×m` row-major matrix, `n, m ≥ 1`):
/// stores in `scratch.fut` each cell's cheapest total of `cost` over the
/// cells any warping path visits *after* it, and returns the cheapest
/// whole-path total. `below[j]` / `here[j]` hold the cheapest total from
/// cell `(i+1, j)` / `(i, j)` inclusive; index `m` is a permanent ∞
/// sentinel.
fn backward(n: usize, m: usize, cost: &[f64], scratch: &mut DtwScratch) -> f64 {
    debug_assert_eq!(cost.len(), n * m);
    let DtwScratch {
        prev: below,
        cur: here,
        fut,
        ..
    } = scratch;
    fut.clear();
    fut.resize(n * m, 0.0);
    for row in [&mut *below, &mut *here] {
        row.clear();
        row.resize(m + 1, f64::INFINITY);
    }
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            let after = if i == n - 1 && j == m - 1 {
                0.0
            } else {
                below[j].min(here[j + 1]).min(below[j + 1])
            };
            fut[i * m + j] = after;
            here[j] = cost[i * m + j] + after;
        }
        std::mem::swap(below, here);
    }
    below[0]
}

/// [`dtw_distance`] that proves sequences out of a top-k without paying
/// for every cell: returns `None` only when the normalised distance
/// exceeds `cutoff`, and otherwise the exact distance, bit-identical to
/// [`dtw_distance`] under `dist`. The sequences are given by their
/// lengths `n` and `m`; cells are addressed `(i, j)`.
///
/// The caller supplies two cell costs:
///
/// - `lower[i*m + j]` — a lower bound of the exact cost (`≤` it in
///   float, not just in the reals), all `n·m` of them (zeros bound
///   nothing);
/// - `dist(i, j)` — the exact cost.
///
/// With `L =` [`cost_limit`]`(cutoff, n, m)`, one backward pass over the
/// lower matrix yields `fut(i, j)`, the cheapest lower-bound cost of the
/// cells any path visits after `(i, j)` — a true bound, since every
/// continuation still crosses each later row and column. If the cheapest
/// whole path under `lower` exceeds `L` the alignment is abandoned without
/// one exact cell. Otherwise each cell takes `best`, the minimum of its
/// three predecessors, and one rule decides it: when
/// `best + lower + fut > L` no path through it can stay within the limit,
/// so it is set to `∞` without calling `dist`; else it is scored, and kept
/// as `best + d` when `best + d + fut ≤ L`, `∞` otherwise. After each row
/// the strict prefix-row abandon applies as in plain DTW. `cutoff = ∞`
/// runs the same rule with `L = ∞`, which scores and keeps every cell.
/// `scratch.cells` counts the cells visited, `scratch.pruned` those set
/// to `∞` unscored; every other visited cell is one `dist` call.
///
/// Why this is exact: if the final distance is `≤ cutoff`, every cell on
/// the optimal path satisfies `best + cost + fut ≤ L`, hence (float
/// addition is monotone) `best + lower + fut ≤ L`, so it is never pruned;
/// by induction each such cell takes its minimum from its (unchanged)
/// optimal predecessor while pruned neighbours only offer larger values,
/// so it computes the same operands and the same bits. A pruned `∞` can
/// only raise cells, so whenever the result is `≤ cutoff` it is the exact
/// distance; when it is not, `None`. Ties at exactly `cutoff` are kept
/// (strict `>`), so a caller passing the current k-th best distance
/// preserves tie-breaks.
pub fn dtw_distance_bounded(
    n: usize,
    m: usize,
    cutoff: f64,
    lower: &[f64],
    mut dist: impl FnMut(usize, usize) -> f64,
    scratch: &mut DtwScratch,
) -> Option<f64> {
    let finish = |d: f64| if d > cutoff { None } else { Some(d) };
    match (n, m) {
        (0, 0) => return finish(0.0),
        (0, _) | (_, 0) => return finish(f64::INFINITY),
        _ => {}
    }
    let denom = (n + m) as f64;
    let limit = cost_limit(cutoff, n, m);
    if backward(n, m, lower, scratch) > limit {
        return None;
    }
    let DtwScratch {
        prev,
        cur,
        fut,
        cells,
        pruned,
    } = scratch;
    // `prev[j]` / `cur[j + 1]` hold the cost up to and including cell
    // (i-1, j) / (i, j); index 0 is an ∞ sentinel, and 0 above the origin.
    for row in [&mut *prev, &mut *cur] {
        row.clear();
        row.resize(m + 1, f64::INFINITY);
    }
    prev[0] = 0.0;
    for i in 0..n {
        cur[0] = f64::INFINITY;
        for j in 0..m {
            let (best, c) = (prev[j].min(prev[j + 1]).min(cur[j]), i * m + j);
            cur[j + 1] = if best + lower[c] + fut[c] > limit {
                *pruned += 1;
                f64::INFINITY
            } else {
                let d = dist(i, j);
                if best + d + fut[c] <= limit {
                    best + d
                } else {
                    f64::INFINITY
                }
            };
        }
        *cells += m as u64;
        let row_min = cur[1..].iter().copied().fold(f64::INFINITY, f64::min);
        if row_min / denom > cutoff {
            return None;
        }
        std::mem::swap(prev, cur);
    }
    finish(prev[m] / denom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn scalar(a: &f64, b: &f64) -> f64 {
        (a - b).abs()
    }

    #[test]
    fn identical_sequences_are_zero() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(dtw_distance(&s, &s, scalar), 0.0);
    }

    #[test]
    fn empty_handling() {
        let s = [1.0];
        assert_eq!(dtw_distance::<f64>(&[], &[], scalar), 0.0);
        assert!(dtw_distance(&[], &s, scalar).is_infinite());
        assert!(dtw_distance(&s, &[], scalar).is_infinite());
    }

    #[test]
    fn time_shift_is_cheap() {
        // The same ramp, one padded with a repeated head: DTW should be
        // near zero where a lockstep metric would not be.
        let a = [0.0, 1.0, 2.0, 3.0, 4.0];
        let b = [0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 4.0];
        let d = dtw_distance(&a, &b, scalar);
        assert!(d < 1e-9, "time shift should align freely, got {d}");
    }

    #[test]
    fn different_content_is_expensive() {
        let a = [0.0, 0.0, 0.0];
        let b = [5.0, 5.0, 5.0];
        // Optimal path: 3 diagonal steps of cost 5 → 15 / (3 + 3) = 2.5.
        let d = dtw_distance(&a, &b, scalar);
        assert!((d - 2.5).abs() < 1e-9, "got {d}");
    }

    #[test]
    fn symmetry() {
        let a = [1.0, 3.0, 2.0, 5.0];
        let b = [2.0, 4.0, 1.0];
        let ab = dtw_distance(&a, &b, scalar);
        let ba = dtw_distance(&b, &a, scalar);
        assert!((ab - ba).abs() < 1e-12);
    }

    #[test]
    fn normalisation_bounds() {
        // Distance is a mean over the path: bounded by max element distance.
        let a = [0.0, 10.0, 0.0, 10.0];
        let b = [10.0, 0.0, 10.0, 0.0];
        let d = dtw_distance(&a, &b, scalar);
        assert!(d <= 10.0 + 1e-12);
        assert!(d > 0.0);
    }

    /// [`dtw_distance_bounded`] over two scalar sequences, with the lower
    /// matrix tabulated from `lower` and `dist` called on the elements.
    fn bounded_on(
        a: &[f64],
        b: &[f64],
        cutoff: f64,
        lower: impl Fn(&f64, &f64) -> f64,
        mut dist: impl FnMut(&f64, &f64) -> f64,
    ) -> Option<f64> {
        let table: Vec<f64> = a
            .iter()
            .flat_map(|x| b.iter().map(|y| lower(x, y)))
            .collect();
        dtw_distance_bounded(
            a.len(),
            b.len(),
            cutoff,
            &table,
            |i, j| dist(&a[i], &b[j]),
            &mut DtwScratch::default(),
        )
    }

    fn zero(_: &f64, _: &f64) -> f64 {
        0.0
    }

    #[test]
    fn bounded_matches_full_at_infinite_cutoff() {
        let a: Vec<f64> = (0..20).map(|i| (i as f64 * 0.9).sin() * 3.0).collect();
        let b: Vec<f64> = (0..17).map(|i| (i as f64 * 1.1).cos() * 2.0).collect();
        let full = dtw_distance(&a, &b, scalar);
        // An unbounded alignment under an all-zero lower matrix.
        let bounded = bounded_on(&a, &b, f64::INFINITY, zero, scalar);
        assert_eq!(
            bounded.map(f64::to_bits),
            Some(full.to_bits()),
            "must be bit-identical"
        );
        // A cutoff exactly at the distance keeps it (strict >).
        assert_eq!(bounded_on(&a, &b, full, scalar, scalar), Some(full));
    }

    #[test]
    fn bounded_only_abandons_above_cutoff() {
        // Soundness: under any cutoff the scan either abandons (and then the
        // true distance exceeds the cutoff) or returns the exact distance.
        let a: Vec<f64> = (0..15).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..15).map(|i| (i as f64) + 4.0).collect();
        let full = dtw_distance(&a, &b, scalar);
        assert!(full > 0.0);
        for frac in [0.0, 0.25, 0.5, 0.9, 1.0, 1.5] {
            let cutoff = full * frac;
            match bounded_on(&a, &b, cutoff, scalar, scalar) {
                None => assert!(full > cutoff, "abandoned below the true distance"),
                Some(d) => assert_eq!(d, full, "survivor must be exact"),
            }
        }
        assert_eq!(bounded_on(&a, &b, full * 2.0, scalar, scalar), Some(full));
    }

    #[test]
    fn a_tight_lower_bound_abandons_without_exact_cells() {
        // Constant far-apart sequences: the lower pass alone proves every
        // path costs 100 per cell, far above the cutoff.
        let near = [0.0; 15];
        let far = [100.0; 15];
        let mut exact_calls = 0;
        let got = bounded_on(&near, &far, 1.0, scalar, |x, y| {
            exact_calls += 1;
            scalar(x, y)
        });
        assert_eq!(got, None);
        assert_eq!(exact_calls, 0);
        // With no lower bound a scored cell is dropped once its cost breaks
        // the limit, and the first row already proves the abandon.
        let mut exact_calls = 0;
        let got = bounded_on(&near, &far, 1.0, zero, |x, y| {
            exact_calls += 1;
            scalar(x, y)
        });
        assert_eq!(got, None);
        assert!(exact_calls <= far.len(), "{exact_calls} exact cells");
    }

    #[test]
    fn bounded_empty_cases() {
        let s = [1.0];
        assert_eq!(bounded_on(&[], &[], 0.0, zero, scalar), Some(0.0));
        // Empty-vs-nonempty is ∞: kept only under an infinite cutoff.
        assert_eq!(bounded_on(&[], &s, 5.0, zero, scalar), None);
        assert_eq!(
            bounded_on(&s, &[], f64::INFINITY, zero, scalar),
            Some(f64::INFINITY)
        );
    }

    /// A random `n×m` cost matrix with exact zeros and repeated values (so
    /// co-optimal paths tie), and a lower bound anywhere in `[0, cost]` —
    /// sometimes exactly 0, sometimes exactly the cost.
    fn random_costs(seed: u64, n: usize, m: usize) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut cost = vec![vec![0.0; m]; n];
        let mut lower = vec![vec![0.0; m]; n];
        for i in 0..n {
            for j in 0..m {
                let c = match rng.gen_range(0..6u32) {
                    0 => 0.0,
                    1 => 1.0,
                    _ => rng.gen_range(0.0..5.0f64),
                };
                cost[i][j] = c;
                lower[i][j] = match rng.gen_range(0..4u32) {
                    0 => 0.0,
                    1 => c,
                    _ => c * rng.gen_range(0.0..1.0f64),
                };
            }
        }
        (cost, lower)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn bounded_agrees_with_full_dtw(
            seed in 0u64..u64::MAX,
            n in 0usize..=9,
            m in 0usize..=9,
        ) {
            let (cost, lower) = random_costs(seed, n, m);
            let rows: Vec<usize> = (0..n).collect();
            let cols: Vec<usize> = (0..m).collect();
            let full = dtw_distance(&rows, &cols, |&i, &j| cost[i][j]);
            let table: Vec<f64> = lower.concat();
            // One scratch serves every alignment below, a transposed one
            // of another shape included, as the engine reuses one per
            // pool chunk. Each alignment's visited cells are its pruned
            // cells plus its `dist` calls.
            let mut scratch = DtwScratch::default();
            let mut bounded = |cutoff: f64, transpose: bool| {
                let (cells, pruned) = (scratch.cells, scratch.pruned);
                let mut calls = 0u64;
                let got = if transpose {
                    let flipped: Vec<f64> =
                        (0..m).flat_map(|j| (0..n).map(|i| lower[i][j]).collect::<Vec<_>>()).collect();
                    dtw_distance_bounded(m, n, cutoff, &flipped, |j, i| {
                        calls += 1;
                        cost[i][j]
                    }, &mut scratch)
                } else {
                    dtw_distance_bounded(n, m, cutoff, &table, |i, j| {
                        calls += 1;
                        cost[i][j]
                    }, &mut scratch)
                };
                assert_eq!(
                    scratch.cells - cells,
                    scratch.pruned - pruned + calls,
                    "cells visited vs pruned + scored, cutoff {cutoff}"
                );
                got
            };
            let unbounded = bounded(f64::INFINITY, false);
            prop_assert_eq!(unbounded.map(f64::to_bits), Some(full.to_bits()));
            for cutoff in [0.0, full / 2.0, full, f64::INFINITY] {
                match bounded(cutoff, false) {
                    None => prop_assert!(
                        full > cutoff,
                        "abandoned at cutoff {} with distance {}", cutoff, full
                    ),
                    Some(d) => prop_assert_eq!(
                        d.to_bits(), full.to_bits(),
                        "cutoff {}: {} vs full {}", cutoff, d, full
                    ),
                }
            }
            // A tie at exactly the cutoff is always kept.
            prop_assert_eq!(bounded(full, false).map(f64::to_bits), Some(full.to_bits()));
            // The transposed alignment has the same distance (DTW is
            // symmetric), through the same, now stale, scratch.
            prop_assert_eq!(bounded(full, true).map(f64::to_bits), Some(full.to_bits()));
        }
    }

    #[test]
    fn closer_sequence_ranks_first() {
        let query = [1.0, 2.0, 3.0];
        let near = [1.1, 2.1, 2.9];
        let far = [9.0, 9.0, 9.0];
        assert!(dtw_distance(&query, &near, scalar) < dtw_distance(&query, &far, scalar));
    }
}
