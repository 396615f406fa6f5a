//! Property tests across all seven descriptors.

use cbvr_features::{FeatureKind, FeatureSet};
use cbvr_imgproc::RgbImage;
use proptest::prelude::*;

fn arb_image() -> impl Strategy<Value = RgbImage> {
    (4u32..28, 4u32..28)
        .prop_flat_map(|(w, h)| {
            proptest::collection::vec(any::<u8>(), (w * h * 3) as usize)
                .prop_map(move |data| RgbImage::from_raw(w, h, data).expect("exact length"))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_descriptor_string_round_trips(img in arb_image()) {
        let set = FeatureSet::extract(&img);
        let strings = set.to_feature_strings();
        let back =
            FeatureSet::from_feature_strings(strings.iter().map(|(k, s)| (*k, s.as_str()))).unwrap();
        for (kind, s) in &strings {
            prop_assert!(set.distance(&back, *kind) < 1e-9, "{kind}: {s}");
        }
    }

    #[test]
    fn distances_are_symmetric_nonnegative_identity(a in arb_image(), b in arb_image()) {
        let fa = FeatureSet::extract(&a);
        let fb = FeatureSet::extract(&b);
        for kind in FeatureKind::ALL {
            let d_ab = fa.distance(&fb, kind);
            let d_ba = fb.distance(&fa, kind);
            prop_assert!(d_ab >= 0.0, "{kind} negative: {d_ab}");
            prop_assert!((d_ab - d_ba).abs() < 1e-9, "{kind} asymmetric");
            prop_assert!(fa.distance(&fa, kind) < 1e-12, "{kind} self-distance");
            prop_assert!(d_ab.is_finite(), "{kind} non-finite");
        }
    }

    #[test]
    fn bounded_descriptors_stay_bounded(img in arb_image()) {
        let set = FeatureSet::extract(&img);
        for v in set.correlogram.values() {
            prop_assert!((0.0..=1.0).contains(v));
        }
        for v in set.glcm.normalized_vector() {
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(&v));
        }
        for v in set.tamura.normalized_vector() {
            prop_assert!((0.0..=1.0).contains(&v));
        }
        prop_assert_eq!(set.histogram.total(), img.pixel_count() as u64);
    }

    #[test]
    fn extraction_is_pure(img in arb_image()) {
        prop_assert_eq!(FeatureSet::extract(&img), FeatureSet::extract(&img));
    }
}
