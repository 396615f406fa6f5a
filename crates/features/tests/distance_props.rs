//! Property tests for the distance kernels: soundness of the bounded f32
//! query-path kernels (abandon ⇒ true distance exceeds the cutoff; no
//! abandon ⇒ bit-identical to the unbounded kernel).

use cbvr_features::distance::{
    jensen_shannon, jensen_shannon_f32, l2, l2_f32, mass_f32, naive_rgb_f32, rgb_diag,
    scaled_l1_f32,
};
use proptest::prelude::*;

fn arb_vec(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..512.0, len)
}

fn pair(len: usize) -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (arb_vec(len..len + 1), arb_vec(len..len + 1))
}

fn to_f32(v: &[f64]) -> Vec<f32> {
    v.iter().map(|&x| x as f32).collect()
}

fn widen(v: &[f32]) -> Vec<f64> {
    v.iter().map(|&x| x as f64).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bounded_kernels_match_unbounded_at_infinite_cutoff(
        ab in (0usize..80).prop_flat_map(pair)
    ) {
        let (a, b) = ab;
        let (fa, fb) = (to_f32(&a), to_f32(&b));
        let (wa, wb) = (widen(&fa), widen(&fb));
        let (ma, mb) = (mass_f32(&fa), mass_f32(&fb));
        prop_assert_eq!(l2_f32(&fa, &fb, f64::INFINITY).distance, Some(l2(&wa, &wb)));
        prop_assert_eq!(
            jensen_shannon_f32(&fa, &fb, ma, mb, f64::INFINITY).distance,
            Some(jensen_shannon(&wa, &wb))
        );
    }

    #[test]
    fn abandon_implies_distance_exceeds_cutoff(
        ab in (3usize..80).prop_flat_map(pair),
        frac in 0.0f64..1.5,
    ) {
        let (a, b) = ab;
        let (fa, fb) = (to_f32(&a), to_f32(&b));
        let (ma, mb) = (mass_f32(&fa), mass_f32(&fb));
        let full_l2 = l2_f32(&fa, &fb, f64::INFINITY).distance.unwrap();
        let cutoff = full_l2 * frac;
        let r = l2_f32(&fa, &fb, cutoff);
        if r.distance.is_none() {
            prop_assert!(full_l2 > cutoff, "l2 abandoned below true distance");
        } else {
            prop_assert_eq!(r.distance, Some(full_l2));
        }
        let full_js = jensen_shannon_f32(&fa, &fb, ma, mb, f64::INFINITY).distance.unwrap();
        let cutoff = full_js * frac;
        let r = jensen_shannon_f32(&fa, &fb, ma, mb, cutoff);
        if r.distance.is_none() {
            // JS partial terms can round ~1e-16 below exact; allow that slack.
            prop_assert!(full_js > cutoff - 1e-9, "js abandoned below true distance");
        }
    }

    #[test]
    fn scaled_l1_and_naive_bounds_are_sound(
        ab in (1usize..20).prop_flat_map(|n| {
            (arb_vec(3 * n..3 * n + 1), arb_vec(3 * n..3 * n + 1))
        }),
        frac in 0.0f64..1.5,
    ) {
        let (a, b) = ab;
        let (fa, fb) = (to_f32(&a), to_f32(&b));
        let full = scaled_l1_f32(&fa, &fb, a.len() as f64, f64::INFINITY).distance.unwrap();
        let r = scaled_l1_f32(&fa, &fb, a.len() as f64, full * frac);
        if r.distance.is_none() {
            prop_assert!(full > full * frac);
        } else {
            prop_assert_eq!(r.distance, Some(full));
        }
        let full = naive_rgb_f32(&fa, &fb, f64::INFINITY).distance.unwrap();
        prop_assert!(full >= 0.0 && full.is_finite());
        prop_assert!(full <= a.len() as f64); // mean/diag keeps it small
        let r = naive_rgb_f32(&fa, &fb, full * frac);
        if r.distance.is_none() {
            prop_assert!(full > full * frac);
        } else {
            prop_assert_eq!(r.distance, Some(full));
        }
        let _ = rgb_diag();
    }

    #[test]
    fn elements_visited_never_exceed_length(ab in (0usize..80).prop_flat_map(pair)) {
        let (a, b) = ab;
        let (fa, fb) = (to_f32(&a), to_f32(&b));
        for cutoff in [0.0, 0.1, f64::INFINITY] {
            prop_assert!(l2_f32(&fa, &fb, cutoff).elements as usize <= a.len());
            prop_assert!(scaled_l1_f32(&fa, &fb, 1.0, cutoff).elements as usize <= a.len());
            let (ma, mb) = (mass_f32(&fa), mass_f32(&fb));
            prop_assert!(jensen_shannon_f32(&fa, &fb, ma, mb, cutoff).elements as usize <= a.len());
        }
    }
}
