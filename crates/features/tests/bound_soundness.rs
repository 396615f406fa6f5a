//! Soundness of the lower-bound `f32` kernels: each `*_lower_f32` never
//! exceeds the float result of its exact kernel (`l2_f32`,
//! `scaled_l1_f32`, `naive_rgb_f32`, `jensen_shannon_f32`), on random
//! inputs and on the inputs that stress its deflation: equal vectors,
//! zeros, single-bin histograms, masses near 160×120, values one ulp
//! apart, differences whose squares underflow, and proportional
//! histograms, whose mass-normalised L1 is pure cancellation.
//! The bounds must also stay tight, so that a bound inflated by 0.1%
//! fails here.

use cbvr_features::distance::{
    jensen_shannon_f32, jensen_shannon_lower_f32, l2_f32, l2_lower_f32, mass_f32, naive_rgb_f32,
    naive_rgb_lower_f32, scaled_l1_f32, scaled_l1_lower_f32, BOUND_MAX_LEN,
};
use proptest::prelude::*;

fn exact_l2(a: &[f32], b: &[f32]) -> f64 {
    l2_f32(a, b)
}

fn exact_l1(a: &[f32], b: &[f32]) -> f64 {
    scaled_l1_f32(a, b, a.len().max(1) as f64)
}

fn exact_naive(a: &[f32], b: &[f32]) -> f64 {
    naive_rgb_f32(a, b)
}

fn exact_js(a: &[f32], b: &[f32]) -> f64 {
    jensen_shannon_f32(a, b, mass_f32(a), mass_f32(b))
}

fn lower_js(a: &[f32], b: &[f32]) -> f64 {
    jensen_shannon_lower_f32(a, b, mass_f32(a), mass_f32(b))
}

/// Every bound of `a` against `b` is at most its exact kernel's result:
/// the three metric kernels on any input, Jensen–Shannon on non-negative
/// ones, naive on whole RGB points.
fn assert_sound(a: &[f32], b: &[f32]) {
    let (lo, ex) = (l2_lower_f32(a, b), exact_l2(a, b));
    prop_assert!(
        lo >= 0.0 && lo <= ex,
        "l2 {} > {} on {:?} / {:?}",
        lo,
        ex,
        a,
        b
    );
    let divisor = a.len().max(1) as f64;
    let (lo, ex) = (scaled_l1_lower_f32(a, b, divisor), exact_l1(a, b));
    prop_assert!(
        lo >= 0.0 && lo <= ex,
        "scaled l1 {} > {} on {:?} / {:?}",
        lo,
        ex,
        a,
        b
    );
    if a.len().is_multiple_of(3) {
        let (lo, ex) = (naive_rgb_lower_f32(a, b), exact_naive(a, b));
        prop_assert!(
            lo >= 0.0 && lo <= ex,
            "naive {} > {} on {:?} / {:?}",
            lo,
            ex,
            a,
            b
        );
    }
    if a.iter().chain(b).all(|&x| x >= 0.0) {
        let (lo, ex) = (lower_js(a, b), exact_js(a, b));
        prop_assert!(
            lo >= 0.0 && lo <= ex,
            "js {} > {} on {:?} / {:?}",
            lo,
            ex,
            a,
            b
        );
    }
}

/// Values drawn from several scales so sums round: unit-range, feature
/// range, integer counts and a spread of binary exponents.
fn value() -> impl Strategy<Value = f32> {
    prop_oneof![
        0.0f32..1.0,
        0.0f32..512.0,
        (0u32..20_000).prop_map(|c| c as f32),
        (-40i32..40, 1.0f32..2.0).prop_map(|(e, m)| m * 2f32.powi(e)),
    ]
}

/// Equal-length vectors of 0..=256 values (multiples of 3 a third of the
/// time, so the naive kernel runs too).
fn pair() -> impl Strategy<Value = (Vec<f32>, Vec<f32>)> {
    prop_oneof![0usize..=BOUND_MAX_LEN, (0usize..=85).prop_map(|p| 3 * p)].prop_flat_map(|n| {
        (
            proptest::collection::vec(value(), n),
            proptest::collection::vec(value(), n),
        )
    })
}

/// Integer counts over `bins` summing to exactly `total`, as a frame's
/// histogram of `total` pixels does.
fn counts(bins: usize, total: u32, seed: u64) -> Vec<f32> {
    let mut state = seed | 1;
    let mut out = vec![0.0f32; bins];
    for _ in 0..total {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        // Skew towards low bins so some bins stay empty.
        let bin = ((state % bins as u64) * (state >> 40 & 3) / 3) as usize;
        out[bin] += 1.0;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn bounds_never_exceed_exact_kernels(ab in pair()) {
        let (a, b) = ab;
        assert_sound(&a, &b);
        assert_sound(&b, &a);
    }

    #[test]
    fn equal_vectors_and_zeros_bound_zero(ab in pair()) {
        let a = ab.0;
        // Equal vectors: every bound is exactly 0, like the distance.
        prop_assert_eq!(l2_lower_f32(&a, &a), 0.0);
        prop_assert_eq!(scaled_l1_lower_f32(&a, &a, 256.0), 0.0);
        prop_assert_eq!(lower_js(&a, &a), 0.0);
        if a.len().is_multiple_of(3) {
            prop_assert_eq!(naive_rgb_lower_f32(&a, &a), 0.0);
        }
        let zeros = vec![0.0f32; a.len()];
        assert_sound(&a, &zeros);
        assert_sound(&zeros, &a);
        prop_assert_eq!(lower_js(&zeros, &a), 0.0, "an empty histogram bounds nothing");
    }

    #[test]
    fn one_ulp_apart_and_underflowing_differences(
        ab in pair(),
        tiny in proptest::collection::vec(1.0f32..2.0, 0..=BOUND_MAX_LEN),
        scale in -80i32..-70,
    ) {
        // One ulp apart at every magnitude.
        let a = ab.0;
        let up: Vec<f32> = a.iter().map(|&x| x.next_up()).collect();
        assert_sound(&a, &up);
        assert_sound(&up, &a);
        // Differences near 2⁻⁷⁵, whose f32 squares are subnormal and
        // round by up to half their size.
        let n = tiny.len() / 3 * 3;
        let small: Vec<f32> = tiny[..n].iter().map(|&m| m * 2f32.powi(scale)).collect();
        let zeros = vec![0.0f32; n];
        assert_sound(&small, &zeros);
        assert_sound(&zeros, &small);
    }

    #[test]
    fn histograms_near_160x120(
        seed in 1u64..u64::MAX,
        moved in 0u32..400,
        bins in prop_oneof![Just(256usize), 1usize..=BOUND_MAX_LEN],
    ) {
        // Two histograms of 19 200 pixels: one drawn at random, the other
        // the same with `moved` pixels recounted elsewhere (near-equal
        // histograms, where Pinsker is tightest), and one of a different
        // mass.
        let a = counts(bins, 19_200, seed);
        let mut b = a.clone();
        let other = counts(bins, moved, seed.rotate_left(17));
        for (i, &c) in other.iter().enumerate() {
            let from = (i * 7 + 3) % bins;
            let take = c.min(b[from]);
            b[from] -= take;
            b[i] += take;
        }
        assert_sound(&a, &b);
        let c = counts(bins, 19_200 - moved, seed ^ 0x5bd1);
        assert_sound(&a, &c);
    }

    #[test]
    fn proportional_histograms_are_pure_cancellation(
        ab in pair(),
        factor in prop_oneof![Just(3.0f32), Just(1.0 / 3.0), 0.01f32..100.0],
    ) {
        // b = factor·a normalises to the same distribution: the real L1
        // and JS are 0, and only rounding separates the f32 products.
        let a: Vec<f32> = ab.0.iter().map(|x| x.abs()).collect();
        let b: Vec<f32> = a.iter().map(|&x| x * factor).collect();
        let (lo, ex) = (lower_js(&a, &b), exact_js(&a, &b));
        prop_assert!(lo <= ex, "js {} > {}", lo, ex);
    }

    #[test]
    fn single_bin_histograms(
        i in 0usize..BOUND_MAX_LEN,
        j in 0usize..BOUND_MAX_LEN,
        ca in 1u32..20_000,
        cb in 1u32..20_000,
    ) {
        let mut a = vec![0.0f32; BOUND_MAX_LEN];
        let mut b = vec![0.0f32; BOUND_MAX_LEN];
        a[i] = ca as f32;
        b[j] = cb as f32;
        assert_sound(&a, &b);
        let (lo, ex) = (lower_js(&a, &b), exact_js(&a, &b));
        if i == j {
            prop_assert_eq!(lo, 0.0, "the same single bin");
        } else {
            // Disjoint supports: L1 = 2, so the bound is 1/2 minus its
            // deflation, below JS = ln 2.
            prop_assert!(lo > 0.49 && lo < ex, "{} vs {}", lo, ex);
        }
    }

    #[test]
    fn metric_bounds_are_tight(ab in pair()) {
        let (a, b) = ab;
        // Away from underflow the relative deflation is 2⁻¹⁵, so each
        // bound sits within 2⁻¹³ of its exact distance: a bound inflated
        // by 0.1% exceeds it.
        let ex = exact_l2(&a, &b);
        if ex > 1e-10 {
            prop_assert!(l2_lower_f32(&a, &b) >= ex * (1.0 - 1.0 / 8192.0));
        }
        let ex = exact_l1(&a, &b);
        if ex > 0.0 {
            prop_assert!(scaled_l1_lower_f32(&a, &b, a.len() as f64) >= ex * (1.0 - 1.0 / 8192.0));
        }
        if a.len().is_multiple_of(3) {
            let ex = exact_naive(&a, &b);
            if ex > 1e-10 {
                prop_assert!(naive_rgb_lower_f32(&a, &b) >= ex * (1.0 - 1.0 / 8192.0));
            }
        }
    }

    #[test]
    fn pinsker_is_tight_near_uniform_two_bins(
        eps in 3e-3f64..0.02,
        mass in 100.0f64..1e6,
    ) {
        // p = (½+ε, ½−ε), q = (½−ε, ½+ε): JS = 2ε² + (4/3)ε⁴ + …, and
        // ‖p − q‖₁²/8 = 2ε², so the bound is within 0.1% of the exact
        // divergence and still below it.
        let hi = (mass * (0.5 + eps)) as f32;
        let lo = (mass * (0.5 - eps)) as f32;
        let (a, b) = ([hi, lo], [lo, hi]);
        let (bound, exact) = (lower_js(&a, &b), exact_js(&a, &b));
        prop_assert!(bound <= exact, "{} > {}", bound, exact);
        prop_assert!(bound >= exact * 0.999, "{} vs {}", bound, exact);
    }
}
