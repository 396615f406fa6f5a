//! # cbvr-features — the seven visual descriptors of the paper
//!
//! Implements every feature extractor of Patel & Meshram (IJMA 2012) §4:
//!
//! - [`histogram::ColorHistogram`] — Simple Color Histogram (§4.5),
//!   256-bin quantised RGB;
//! - [`glcm::GlcmTexture`] — Gray Level Co-occurrence Matrix texture
//!   (§4.3): ASM, contrast, correlation, inverse difference moment,
//!   entropy;
//! - [`gabor::GaborTexture`] — Gabor wavelet texture (§4.4): mean and
//!   variance of filter-bank magnitudes, 5 scales × 6 orientations
//!   (60 values, matching the paper's Fig. 8 output);
//! - [`tamura::TamuraTexture`] — Tamura texture (coarseness, contrast,
//!   16-bin directionality histogram; 18 values as in Fig. 8);
//! - [`correlogram::AutoColorCorrelogram`] — HSV-quantised color
//!   autocorrelogram over distances 1..=4 (§4.7);
//! - [`naive::NaiveSignature`] — the "superficial (naive) similarity"
//!   25-point mean-color signature (§4.6);
//! - [`region::RegionGrowing`] — stack-based region growing segmentation
//!   (§4.8): region / hole / major-region counts.
//!
//! Every descriptor supports:
//!
//! - `extract(&RgbImage)` — compute from a frame;
//! - `distance(&other)` — the feature's native dissimilarity;
//! - `to_feature_string()` / `parse()` — the exact textual serialisation
//!   the paper stores in Oracle `VARCHAR2` columns (`SCH`, `GLCM`,
//!   `GABOR`, `TAMURA`; Fig. 8 shows the formats), round-trippable.
//!
//! [`extract::FeatureSet`] bundles one of each per key frame and
//! compares them per [`descriptor::FeatureKind`]; a
//! [`descriptor::DescriptorRef`] borrows one of them by kind.
#![warn(missing_docs)]

pub mod correlogram;
pub mod descriptor;
pub mod distance;
pub mod error;
pub mod extract;
pub mod gabor;
pub mod glcm;
pub mod histogram;
pub mod naive;
pub mod region;
pub mod tamura;

pub use descriptor::{DescriptorRef, FeatureKind};
pub use error::{FeatureError, Result};
pub use extract::FeatureSet;
