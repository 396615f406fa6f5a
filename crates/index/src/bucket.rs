//! Range-keyed bucket store and candidate lookup.
//!
//! Key frames are grouped by their assigned [`RangeKey`]; at query time
//! the query frame's range selects candidate buckets, pruning the feature
//! search. [`RangeIndex::overlap_candidates`] returns every bucket whose
//! range overlaps the query's: a level-1 stop like `[0,127]` must still
//! reach frames filed under `[0,63]`.

use crate::paper::RangeKey;
use std::collections::BTreeMap;

/// Aggregate statistics of an index (for the diagnostics surface and
/// Fig. 7 output).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexStats {
    /// Total items indexed.
    pub items: usize,
    /// Number of non-empty buckets.
    pub buckets: usize,
    /// Largest bucket size.
    pub max_bucket: usize,
    /// Items per level (0 = 128-wide, 1 = 64-wide, 2 = 32-wide ranges).
    pub per_level: Vec<usize>,
}

/// A bucketed range index over items of type `T` (frame ids in the
/// pipeline; any payload in tests).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RangeIndex<T> {
    buckets: BTreeMap<RangeKey, Vec<T>>,
    items: usize,
}

impl<T> Default for RangeIndex<T> {
    fn default() -> Self {
        RangeIndex { buckets: BTreeMap::new(), items: 0 }
    }
}

impl<T: Clone> RangeIndex<T> {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.items
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    /// File an item under a range.
    pub fn insert(&mut self, key: RangeKey, item: T) {
        self.buckets.entry(key).or_default().push(item);
        self.items += 1;
    }

    /// Items filed under any range overlapping `key`, in bucket order.
    pub fn overlap_candidates(&self, key: RangeKey) -> Vec<T> {
        let mut out = Vec::new();
        for (k, items) in &self.buckets {
            if k.overlaps(key) {
                out.extend(items.iter().cloned());
            }
        }
        out
    }

    /// Items filed under any range overlapping `key`, sorted ascending.
    /// For `usize` catalog indices this is *arena order*: a columnar
    /// candidate scan walks each descriptor slab strictly forward instead
    /// of hopping between bucket insertion orders.
    pub fn overlap_candidates_sorted(&self, key: RangeKey) -> Vec<T>
    where
        T: Ord,
    {
        let mut out = self.overlap_candidates(key);
        out.sort_unstable();
        out
    }

    /// Visit every `(key, item)` pair in bucket order. This is what lets
    /// a caller holding several per-segment indexes fold them — with a
    /// per-item filter — into one [`BucketCounts`] view.
    pub fn for_each_item(&self, mut f: impl FnMut(RangeKey, &T)) {
        for (k, items) in &self.buckets {
            for item in items {
                f(*k, item);
            }
        }
    }
}

/// Per-bucket occupancy merged across one or more indexes.
///
/// The segmented catalog keeps one [`RangeIndex`] per sealed segment;
/// this accumulator folds them (optionally filtering out tombstoned
/// items) into the single [`IndexStats`] / Fig. 7 rendering the
/// diagnostics surface expects. A bucket present in several segments
/// counts once, with its sizes summed — exactly what one monolithic
/// index over the same items would report.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BucketCounts {
    counts: BTreeMap<RangeKey, usize>,
    items: usize,
}

impl BucketCounts {
    /// An empty accumulator.
    pub fn new() -> BucketCounts {
        BucketCounts::default()
    }

    /// Count one item filed under `key`.
    pub fn add_item(&mut self, key: RangeKey) {
        *self.counts.entry(key).or_insert(0) += 1;
        self.items += 1;
    }

    /// Fold in every item of `index` accepted by `keep`.
    pub fn add_index<T: Clone>(&mut self, index: &RangeIndex<T>, mut keep: impl FnMut(&T) -> bool) {
        index.for_each_item(|key, item| {
            if keep(item) {
                self.add_item(key);
            }
        });
    }

    /// Items counted so far.
    pub fn items(&self) -> usize {
        self.items
    }

    /// Aggregate statistics over the merged view.
    pub fn stats(&self) -> IndexStats {
        let mut per_level = vec![0usize; 3];
        let mut max_bucket = 0;
        for (k, &n) in &self.counts {
            max_bucket = max_bucket.max(n);
            let level = k.level() as usize;
            if level < per_level.len() {
                per_level[level] += n;
            }
        }
        IndexStats { items: self.items, buckets: self.counts.len(), max_bucket, per_level }
    }

    /// Render the Fig. 7 indexing tree with per-node occupancy of the
    /// merged view.
    pub fn render_tree(&self) -> String {
        let mut out = String::from("0-255 (root)\n");
        let count =
            |min: u8, max: u8| self.counts.get(&RangeKey { min, max }).copied().unwrap_or(0);
        for level in 1..=3u32 {
            let width = 256u32 >> level;
            let mut lo = 0u32;
            out.push_str(&"  ".repeat(level as usize));
            let mut first = true;
            while lo < 256 {
                let hi = lo + width - 1;
                if !first {
                    out.push_str("  ");
                }
                first = false;
                out.push_str(&format!("{}-{} [{}]", lo, hi, count(lo as u8, hi as u8)));
                lo += width;
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(min: u8, max: u8) -> RangeKey {
        RangeKey { min, max }
    }

    fn counts<T: Clone>(idx: &RangeIndex<T>) -> BucketCounts {
        let mut counts = BucketCounts::new();
        counts.add_index(idx, |_| true);
        counts
    }

    #[test]
    fn insert_and_lookup() {
        let mut idx = RangeIndex::new();
        idx.insert(key(0, 63), "a");
        idx.insert(key(0, 63), "b");
        idx.insert(key(128, 255), "c");
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.overlap_candidates(key(0, 63)), vec!["a", "b"]);
        assert_eq!(idx.overlap_candidates(key(64, 127)), Vec::<&str>::new());
    }

    #[test]
    fn overlap_lookup_crosses_levels() {
        let mut idx = RangeIndex::new();
        idx.insert(key(0, 127), 1); // level-1 stop
        idx.insert(key(0, 63), 2);
        idx.insert(key(96, 127), 3);
        idx.insert(key(128, 191), 4);
        // A query at [0,31] overlaps [0,127] and [0,63] but not [96,127].
        let c = idx.overlap_candidates(key(0, 31));
        assert_eq!(c, vec![2, 1]); // BTreeMap order: (0,63) < (0,127)
        // A query spanning [0,127] reaches everything in the lower half.
        let c = idx.overlap_candidates(key(0, 127));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn overlap_candidates_sorted_yields_arena_order() {
        let mut idx = RangeIndex::new();
        idx.insert(key(0, 127), 1);
        idx.insert(key(0, 63), 2);
        idx.insert(key(96, 127), 3);
        // Raw overlap order follows bucket insertion: (0,63) before (0,127).
        assert_eq!(idx.overlap_candidates(key(0, 31)), vec![2, 1]);
        // The sorted variant is ascending regardless of bucket layout.
        assert_eq!(idx.overlap_candidates_sorted(key(0, 31)), vec![1, 2]);
        assert_eq!(idx.overlap_candidates_sorted(key(0, 127)), vec![1, 2, 3]);
    }

    #[test]
    fn full_range_returns_everything() {
        let mut idx = RangeIndex::new();
        for i in 0..10 {
            idx.insert(key(32 * (i % 4) as u8, 32 * (i % 4) as u8 + 31), i);
        }
        assert_eq!(idx.overlap_candidates(key(0, 255)).len(), 10);
    }

    #[test]
    fn stats_reflect_levels() {
        let mut idx = RangeIndex::new();
        idx.insert(key(0, 127), "l0");
        idx.insert(key(0, 63), "l1");
        idx.insert(key(0, 63), "l1b");
        idx.insert(key(0, 31), "l2");
        let s = counts(&idx).stats();
        assert_eq!(s.items, 4);
        assert_eq!(s.buckets, 3);
        assert_eq!(s.max_bucket, 2);
        assert_eq!(s.per_level, vec![1, 2, 1]);
    }

    #[test]
    fn empty_index_behaviour() {
        let idx: RangeIndex<u32> = RangeIndex::new();
        assert!(idx.is_empty());
        assert!(idx.overlap_candidates(key(0, 255)).is_empty());
        assert_eq!(counts(&idx).stats().buckets, 0);
    }

    #[test]
    fn render_tree_shows_occupancy() {
        let mut idx = RangeIndex::new();
        idx.insert(key(0, 63), 1);
        idx.insert(key(0, 63), 2);
        idx.insert(key(224, 255), 3);
        let rendered = counts(&idx).render_tree();
        assert!(rendered.contains("0-63 [2]"), "{rendered}");
        assert!(rendered.contains("224-255 [1]"), "{rendered}");
        assert!(rendered.contains("0-255 (root)"));
        assert_eq!(rendered.lines().count(), 4);
    }

    #[test]
    fn bucket_counts_merge_matches_monolithic() {
        // Two "segments" holding disjoint items of one logical catalog.
        let mut seg_a = RangeIndex::new();
        seg_a.insert(key(0, 63), 0usize);
        seg_a.insert(key(0, 127), 1);
        let mut seg_b = RangeIndex::new();
        seg_b.insert(key(0, 63), 0usize); // same bucket, different segment
        seg_b.insert(key(224, 255), 1);

        let mut mono = RangeIndex::new();
        mono.insert(key(0, 63), 0usize);
        mono.insert(key(0, 127), 1);
        mono.insert(key(0, 63), 2);
        mono.insert(key(224, 255), 3);

        let mut merged = BucketCounts::new();
        merged.add_index(&seg_a, |_| true);
        merged.add_index(&seg_b, |_| true);
        assert_eq!(merged.items(), 4);
        assert_eq!(merged.stats(), counts(&mono).stats());
        assert_eq!(merged.render_tree(), counts(&mono).render_tree());
    }

    #[test]
    fn bucket_counts_filter_drops_tombstoned_items() {
        let mut idx = RangeIndex::new();
        idx.insert(key(0, 63), 1u64);
        idx.insert(key(0, 63), 2);
        idx.insert(key(128, 191), 2);
        let mut counts = BucketCounts::new();
        counts.add_index(&idx, |&v| v != 2);
        let s = counts.stats();
        assert_eq!(s.items, 1);
        assert_eq!(s.buckets, 1);
        assert!(counts.render_tree().contains("0-63 [1]"));
        assert!(counts.render_tree().contains("128-191 [0]"));
    }

    #[test]
    fn for_each_item_visits_in_bucket_order() {
        let mut idx = RangeIndex::new();
        idx.insert(key(128, 191), "late");
        idx.insert(key(0, 31), "early");
        let mut seen = Vec::new();
        idx.for_each_item(|k, &v| seen.push((k, v)));
        assert_eq!(seen, vec![(key(0, 31), "early"), (key(128, 191), "late")]);
    }
}
