//! # cbvr-index — histogram-based range-finder indexing (§4.2)
//!
//! The paper indexes key frames by recursively halving the 0–255
//! intensity axis: a frame belongs to the deepest dyadic range that still
//! holds more than a threshold share of its histogram mass (55% at the
//! first level, 60% below — Fig. 7's tree). The `(min, max)` pair is
//! stored per key frame (the `MIN`/`MAX` columns of `KEY_FRAMES`) and
//! used at query time to prune the candidate set before any expensive
//! feature distance is computed.
//!
//! - [`paper::paper_range`] is the exact pseudocode: three levels, its
//!   threshold quirks included;
//! - [`bucket::RangeIndex`] is the bucket store mapping ranges to frame
//!   ids, with overlap-based candidate lookup;
//! - [`bucket::BucketCounts`] folds one or more indexes into the
//!   [`bucket::IndexStats`] and the Fig. 7-style tree rendering.
#![warn(missing_docs)]


pub mod bucket;
pub mod paper;

pub use bucket::{BucketCounts, IndexStats, RangeIndex};
pub use paper::{paper_range, RangeKey, FIRST_LEVEL_THRESHOLD, LOWER_LEVEL_THRESHOLD};
