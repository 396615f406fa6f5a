//! Property tests for the exact f32 query-path kernels: each is
//! bit-identical to its f64 kernel on the widened inputs.

use cbvr_features::distance::{
    jensen_shannon, jensen_shannon_f32, l1, l2, l2_f32, mass_f32, naive_rgb_f32, scaled_l1_f32,
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
    fn f32_kernels_match_their_f64_references(
        ab in (0usize..80).prop_flat_map(pair)
    ) {
        let (a, b) = ab;
        let (fa, fb) = (to_f32(&a), to_f32(&b));
        let (wa, wb) = (widen(&fa), widen(&fb));
        let (ma, mb) = (mass_f32(&fa), mass_f32(&fb));
        prop_assert_eq!(l2_f32(&fa, &fb), l2(&wa, &wb));
        prop_assert_eq!(jensen_shannon_f32(&fa, &fb, ma, mb), jensen_shannon(&wa, &wb));
        let divisor = a.len().max(1) as f64;
        prop_assert_eq!(scaled_l1_f32(&fa, &fb, divisor), l1(&wa, &wb) / divisor);
        // The naive kernel reads whole RGB points; its mean over the cube
        // diagonal stays small.
        let points = 3 * (a.len() / 3);
        let naive = naive_rgb_f32(&fa[..points], &fb[..points]);
        prop_assert!(naive >= 0.0 && naive.is_finite());
        prop_assert!(naive <= points as f64);
    }
}
