//! Per-bucket occupancy of range keys: the Fig. 7 diagnostics view.
//!
//! Key frames are filed by their assigned [`RangeKey`], stored with each
//! row as its `MIN`/`MAX` columns. Query-time pruning filters rows by
//! that key directly (a row is a candidate when its key overlaps the
//! query's); [`BucketCounts`] folds the keys of a set of rows into the
//! [`IndexStats`] and the Fig. 7 tree the diagnostics surface prints.

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

/// Per-bucket occupancy of a set of range keys.
///
/// The segmented catalog folds the key of every live row, segment by
/// segment, into one accumulator, so a bucket present in several
/// segments counts once with its sizes summed: the single
/// [`IndexStats`] / Fig. 7 rendering the diagnostics surface expects.
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
        IndexStats {
            items: self.items,
            buckets: self.counts.len(),
            max_bucket,
            per_level,
        }
    }

    /// Render the Fig. 7 indexing tree with per-node occupancy of the
    /// merged view.
    pub fn render_tree(&self) -> String {
        let mut out = String::from("0-255 (root)\n");
        let count = |min: u8, max: u8| {
            self.counts
                .get(&RangeKey { min, max })
                .copied()
                .unwrap_or(0)
        };
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

    fn counts(keys: &[RangeKey]) -> BucketCounts {
        let mut counts = BucketCounts::new();
        for &k in keys {
            counts.add_item(k);
        }
        counts
    }

    #[test]
    fn stats_reflect_levels() {
        let s = counts(&[key(0, 127), key(0, 63), key(0, 63), key(0, 31)]).stats();
        assert_eq!(s.items, 4);
        assert_eq!(s.buckets, 3);
        assert_eq!(s.max_bucket, 2);
        assert_eq!(s.per_level, vec![1, 2, 1]);
    }

    #[test]
    fn empty_counts_have_no_buckets() {
        assert_eq!(counts(&[]).stats().buckets, 0);
    }

    #[test]
    fn render_tree_shows_occupancy() {
        let rendered = counts(&[key(0, 63), key(0, 63), key(224, 255)]).render_tree();
        assert!(rendered.contains("0-63 [2]"), "{rendered}");
        assert!(rendered.contains("224-255 [1]"), "{rendered}");
        assert!(rendered.contains("0-255 (root)"));
        assert_eq!(rendered.lines().count(), 4);
    }
}
