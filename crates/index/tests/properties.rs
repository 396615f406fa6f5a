//! Property tests for the range-finder index.

use cbvr_imgproc::Histogram256;
use cbvr_index::{paper_range, BucketCounts, RangeIndex, RangeKey};
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

    #[test]
    fn overlap_candidates_match_brute_force(
        keys in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..60),
        probe in (any::<u8>(), any::<u8>()),
    ) {
        let mut index = RangeIndex::new();
        let mut items = Vec::new();
        for (i, (a, b)) in keys.iter().enumerate() {
            let key = RangeKey::new(*a, *b);
            index.insert(key, i);
            items.push((key, i));
        }
        let probe = RangeKey::new(probe.0, probe.1);
        let mut got = index.overlap_candidates(probe);
        let mut want: Vec<usize> =
            items.iter().filter(|(k, _)| k.overlaps(probe)).map(|(_, i)| *i).collect();
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn stats_items_equal_inserts(
        keys in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..40),
    ) {
        let mut index = RangeIndex::new();
        for (i, (a, b)) in keys.iter().enumerate() {
            index.insert(RangeKey::new(*a, *b), i);
        }
        let mut counts = BucketCounts::new();
        counts.add_index(&index, |_| true);
        prop_assert_eq!(counts.stats().items, keys.len());
        prop_assert_eq!(index.overlap_candidates(RangeKey::new(0, 255)).len(), keys.len());
    }
}
