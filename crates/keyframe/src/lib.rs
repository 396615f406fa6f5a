//! # cbvr-keyframe — key-frame extraction (§4.1)
//!
//! "Starts from 1st frame from sorted list of files. If consecutive frames
//! are within threshold, then two frames are similar. Repeat process till
//! frames are similar, delete all similar frames & take 1st as key-frame.
//! Start with next frame which is outside threshold & repeat."
//!
//! The distance the paper thresholds (`dist > 800.0`) is the raw
//! superficial-signature distance between the two frames on the 300×300
//! canvas: the sum, over the 25 sample points, of the Euclidean RGB
//! distance between mean colors. [`signature_distance`] computes exactly
//! that, and the default [`KeyframeConfig::threshold`] is the paper's
//! 800.0. The signatures come from `NaiveSignature::extract`, which reads
//! the canvas cells straight from each frame through the rescale's index
//! maps instead of building the canvas.
#![warn(missing_docs)]

mod extractor;

pub use extractor::{
    extract_keyframes, extract_keyframes_from_frames, signature_distance, Keyframe, KeyframeConfig,
};
