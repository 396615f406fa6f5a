//! Property tests for the range-finder index.

use cbvr_imgproc::Histogram256;
use cbvr_index::{paper_range, RangeKey};
use proptest::prelude::*;

fn arb_histogram() -> impl Strategy<Value = Histogram256> {
    proptest::collection::vec(any::<u8>(), 1..300).prop_map(|values| {
        let mut h = Histogram256::new();
        for v in values {
            h.record(v);
        }
        h
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn assignment_is_a_fig7_node(h in arb_histogram()) {
        let r = paper_range(&h);
        // The 14 nodes below Fig. 7's root: 2 + 4 + 8 dyadic ranges.
        let nodes = [
            (0, 127), (128, 255),
            (0, 63), (64, 127), (128, 191), (192, 255),
            (0, 31), (32, 63), (64, 95), (96, 127),
            (128, 159), (160, 191), (192, 223), (224, 255),
        ]
        .map(|(min, max)| RangeKey { min, max });
        prop_assert!(nodes.contains(&r), "{r} not a Fig. 7 node");
    }
}
