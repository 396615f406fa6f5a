//! # cbvr-core — the content-based video retrieval system
//!
//! Ties the substrates into the system of §2–§3: a video database with an
//! Administrator role (add / update / delete videos) and a User role
//! (query by example frame, by example clip, or by metadata).
//!
//! - [`ingest`] — the ingestion pipeline: encode and store the video,
//!   extract key frames (§4.1), extract all seven features per key frame
//!   (§4.3–§4.8, in parallel across worker threads), assign the
//!   range-finder index key (§4.2) and persist everything into the
//!   `VIDEO_STORE` / `KEY_FRAMES` tables;
//! - [`engine`] — the query engine: loads the feature catalog, prunes
//!   candidates through the range index, ranks by a single feature or by
//!   the paper's *combined* weighted multi-feature score, and ranks whole
//!   clips with the dynamic-programming sequence similarity the paper
//!   sketches in §1 ("We use a dynamic programming approach to compute
//!   the similarity between the feature vectors for the query and feature
//!   vectors in the feature database");
//! - [`arena`] — the columnar descriptor arena (one 64-byte-aligned
//!   `f32` slab per feature kind), the certified bound tier that rejects
//!   candidates proven out of the top-k, and the exact scoring of the
//!   survivors;
//! - [`dtw`] — that dynamic-programming kernel (dynamic time warping
//!   over key-frame feature sequences);
//! - [`score`] — distance→similarity calibration so heterogeneous
//!   feature distances combine on a common scale;
//! - [`weights`] — per-feature weights for the combined ranking;
//! - [`segment`] — immutable sealed catalog segments and the published
//!   [`segment::CatalogSnapshot`] the engine serves queries from:
//!   readers never take the commit lock (they hold the snapshot cell's
//!   read guard only to clone an `Arc`), mutations serialise on that
//!   small commit lock, and a background compaction merges small
//!   segments and drops tombstoned rows;
//! - [`pool`] — the shared work-stealing execution pool every parallel
//!   path (scoring, DTW, extraction, calibration) runs on;
//! - [`telemetry`] — deterministic counters, latency histograms and
//!   stage spans threaded through every layer above (and exposed by the
//!   web server's `/metrics` and the CLI's `stats --telemetry`).
#![warn(missing_docs)]

pub mod arena;
pub mod dtw;
pub mod engine;
pub mod error;
pub mod feedback;
pub mod ingest;
pub mod pool;
pub mod score;
pub mod segment;
pub mod telemetry;
pub mod weights;

pub use arena::{CascadePlan, CascadeTally, DescriptorArena, QueryVectors, CASCADE_ORDER};
pub use engine::{
    CompactionReport, FrameMatch, QueryEngine, QueryOptions, SegmentStats, VideoMatch,
};
pub use error::{CoreError, Result};
pub use feedback::adapt_weights;
pub use ingest::{ingest_video, IngestConfig, IngestReport};
pub use pool::{ExecPool, THREADS_AUTO};
pub use segment::{CatalogRow, CatalogSnapshot, EntryRef, Segment};
pub use telemetry::{Clock, Counter, Gauge, Histogram, MonotonicClock, Registry, Span, TestClock};
pub use weights::FeatureWeights;

// Re-exports of the substrate types the public API surfaces.
pub use cbvr_keyframe::KeyframeConfig;
pub use cbvr_video::FrameCodec;
