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

/// [`dtw_distance`] that proves videos out of a top-k without paying for
/// every cell: returns `None` only when the normalised distance exceeds
/// `cutoff`, and otherwise the exact distance, bit-identical to
/// [`dtw_distance`] under `dist`'s unbudgeted cost.
///
/// The caller supplies two cell costs:
///
/// - `lower(a, b)` — a cheap lower bound of the exact cost (`≤` it in
///   float, not just in the reals);
/// - `dist(a, b, budget)` — the exact cost, or `None` when it is proven
///   to exceed `budget` (a returned value is always the exact cost, even
///   above `budget`; `budget = ∞` must never return `None`).
///
/// With `L = cutoff·(n + m)` (inflated by `CUTOFF_SLOP`), one backward
/// pass over the `n×m` lower matrix yields `fut(i, j)`, the cheapest
/// lower-bound cost of the cells any path visits after `(i, j)` — a true
/// bound, since every continuation still crosses each later row and
/// column. If the cheapest whole path under `lower` exceeds `L` the
/// alignment is abandoned without one exact cell. Otherwise each cell
/// takes `best`, the minimum of its three predecessors: when
/// `best + fut > L` no path through it can stay within the limit, so it is
/// set to `∞` unscored; else `dist` runs with `budget = L − best − fut`, and
/// a cell it rejects (or whose value plus `fut` exceeds `L`) is set to `∞`.
/// After each row the strict prefix-row abandon applies as in plain DTW.
///
/// Why this is exact: if the final distance is `≤ cutoff`, every cell on
/// the optimal path satisfies `best + cost + fut ≤ L`, so it is never
/// pruned and `dist` fits in its budget; by induction each such cell takes
/// its minimum from its (unchanged) optimal predecessor while pruned
/// neighbours only offer larger values, so it computes the same operands
/// and the same bits. A pruned `∞` can only raise cells, so whenever the
/// result is `≤ cutoff` it is the exact distance; when it is not, `None`.
/// Ties at exactly `cutoff` are kept (strict `>`), so a caller passing the
/// current k-th best distance preserves tie-breaks. With `cutoff = ∞` the
/// lower pass is skipped and every cell is scored with an infinite budget.
///
/// The two sequences may have different element types — the clip query
/// path aligns query feature vectors against catalog row addresses.
pub fn dtw_distance_bounded<A, B>(
    a: &[A],
    b: &[B],
    cutoff: f64,
    mut lower: impl FnMut(&A, &B) -> f64,
    mut dist: impl FnMut(&A, &B, f64) -> Option<f64>,
) -> Option<f64> {
    let n = a.len();
    let m = b.len();
    let finish = |d: f64| if d > cutoff { None } else { Some(d) };
    match (n, m) {
        (0, 0) => return finish(0.0),
        (0, _) | (_, 0) => return finish(f64::INFINITY),
        _ => {}
    }
    let denom = (n + m) as f64;
    let limit = cutoff * denom * (1.0 + CUTOFF_SLOP);
    let bounded = limit.is_finite();
    let mut prev_cost = vec![f64::INFINITY; m + 1];
    let mut cur_cost = vec![f64::INFINITY; m + 1];
    // fut[i*m + j]: cheapest lower-bound cost of the cells after (i, j) on
    // any path to (n-1, m-1). Only built (and read) when bounded.
    let mut fut = Vec::new();
    if bounded {
        fut.resize(n * m, 0.0f64);
        // The two DP rows serve the backward pass first: below[j] / here[j]
        // is the cheapest lower-bound cost from cell (i+1, j) / (i, j)
        // inclusive; index m is a permanent ∞ sentinel.
        let (below, here) = (&mut prev_cost, &mut cur_cost);
        for i in (0..n).rev() {
            for j in (0..m).rev() {
                let after = if i == n - 1 && j == m - 1 {
                    0.0
                } else {
                    below[j].min(here[j + 1]).min(below[j + 1])
                };
                fut[i * m + j] = after;
                here[j] = lower(&a[i], &b[j]) + after;
            }
            std::mem::swap(below, here);
        }
        if below[0] > limit {
            return None;
        }
        prev_cost.fill(f64::INFINITY);
        cur_cost.fill(f64::INFINITY);
    }
    prev_cost[0] = 0.0;
    for i in 1..=n {
        cur_cost[0] = f64::INFINITY;
        for j in 1..=m {
            let best = prev_cost[j - 1].min(prev_cost[j]).min(cur_cost[j - 1]);
            cur_cost[j] = if !bounded {
                dist(&a[i - 1], &b[j - 1], f64::INFINITY).map_or(f64::INFINITY, |d| best + d)
            } else {
                let after = fut[(i - 1) * m + (j - 1)];
                if best + after > limit {
                    f64::INFINITY
                } else {
                    match dist(&a[i - 1], &b[j - 1], limit - best - after) {
                        Some(d) if best + d + after <= limit => best + d,
                        _ => f64::INFINITY,
                    }
                }
            };
        }
        let row_min = cur_cost[1..].iter().copied().fold(f64::INFINITY, f64::min);
        if row_min / denom > cutoff {
            return None;
        }
        std::mem::swap(&mut prev_cost, &mut cur_cost);
    }
    finish(prev_cost[m] / denom)
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

    /// `dist` for scalar sequences that honours its budget exactly.
    fn budgeted(a: &f64, b: &f64, budget: f64) -> Option<f64> {
        let d = scalar(a, b);
        (d <= budget).then_some(d)
    }

    #[test]
    fn bounded_matches_full_at_infinite_cutoff() {
        let a: Vec<f64> = (0..20).map(|i| (i as f64 * 0.9).sin() * 3.0).collect();
        let b: Vec<f64> = (0..17).map(|i| (i as f64 * 1.1).cos() * 2.0).collect();
        let full = dtw_distance(&a, &b, scalar);
        let mut lower_calls = 0;
        let bounded = dtw_distance_bounded(
            &a,
            &b,
            f64::INFINITY,
            |_, _| {
                lower_calls += 1;
                0.0
            },
            budgeted,
        );
        assert_eq!(bounded.map(f64::to_bits), Some(full.to_bits()), "must be bit-identical");
        assert_eq!(lower_calls, 0, "an unbounded alignment skips the lower pass");
        // A cutoff exactly at the distance keeps it (strict >).
        assert_eq!(dtw_distance_bounded(&a, &b, full, scalar, budgeted), Some(full));
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
            match dtw_distance_bounded(&a, &b, cutoff, scalar, budgeted) {
                None => assert!(full > cutoff, "abandoned below the true distance"),
                Some(d) => assert_eq!(d, full, "survivor must be exact"),
            }
        }
        assert_eq!(dtw_distance_bounded(&a, &b, full * 2.0, scalar, budgeted), Some(full));
    }

    #[test]
    fn a_tight_lower_bound_abandons_without_exact_cells() {
        // Constant far-apart sequences: the lower pass alone proves every
        // path costs 100 per cell, far above the cutoff.
        let near = [0.0; 15];
        let far = [100.0; 15];
        let mut exact_calls = 0;
        let got = dtw_distance_bounded(&near, &far, 1.0, scalar, |x, y, budget| {
            exact_calls += 1;
            budgeted(x, y, budget)
        });
        assert_eq!(got, None);
        assert_eq!(exact_calls, 0);
        // With no lower bound the cells are pruned by budget instead, and
        // the first row already proves the abandon.
        let mut exact_calls = 0;
        let got = dtw_distance_bounded(&near, &far, 1.0, |_, _| 0.0, |x, y, budget| {
            exact_calls += 1;
            budgeted(x, y, budget)
        });
        assert_eq!(got, None);
        assert!(exact_calls <= far.len(), "{exact_calls} exact cells");
    }

    #[test]
    fn bounded_empty_cases() {
        let s = [1.0];
        let none = |_: &f64, _: &f64| 0.0;
        assert_eq!(dtw_distance_bounded::<f64, f64>(&[], &[], 0.0, none, budgeted), Some(0.0));
        // Empty-vs-nonempty is ∞: kept only under an infinite cutoff.
        assert_eq!(dtw_distance_bounded(&[], &s, 5.0, none, budgeted), None);
        assert_eq!(
            dtw_distance_bounded(&s, &[], f64::INFINITY, none, budgeted),
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
            let bounded = |cutoff: f64| {
                dtw_distance_bounded(
                    &rows,
                    &cols,
                    cutoff,
                    |&i, &j| lower[i][j],
                    |&i, &j, budget| (cost[i][j] <= budget).then_some(cost[i][j]),
                )
            };
            let unbounded = bounded(f64::INFINITY);
            prop_assert_eq!(unbounded.map(f64::to_bits), Some(full.to_bits()));
            for cutoff in [0.0, full / 2.0, full, f64::INFINITY] {
                match bounded(cutoff) {
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
            prop_assert_eq!(bounded(full).map(f64::to_bits), Some(full.to_bits()));
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
