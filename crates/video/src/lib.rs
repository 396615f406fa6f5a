//! # cbvr-video — video container, codecs and synthetic footage
//!
//! The paper ingests MPEG/AVI clips downloaded from archive.org and runs
//! them through a "video to jpeg converter" before key-frame extraction.
//! Neither the footage nor ffmpeg is available offline, so this crate
//! provides (per the substitution table in DESIGN.md):
//!
//! - **VSC**, a from-scratch video container ([`container`]) with raw,
//!   run-length and temporal-delta frame codecs ([`codec`]) — the
//!   `VIDEO` / `ORD_Video` blob the storage layer persists;
//! - a **synthetic generator** ([`synth`]) that renders category-styled
//!   clips (e-learning, sports, cartoon, movie, news) with scripted scene
//!   cuts. Categories double as retrieval ground truth: a frame is
//!   *relevant* to a query iff their source videos share a category,
//!   which is exactly the relevance judgement of the paper's user study;
//! - quality metrics ([`quality`]) to verify the codecs are lossless.
//!
//! The feature extractors downstream consume only decoded [`cbvr_imgproc::RgbImage`]
//! frames, so nothing in the retrieval pipeline depends on VSC itself.
#![warn(missing_docs)]


pub mod codec;
pub mod container;
pub mod error;
pub mod quality;
pub mod synth;
pub mod video;

pub use codec::FrameCodec;
pub use container::{decode_vsc, encode_vsc, VscReader};
pub use error::{Result, VideoError};
pub use synth::{Category, GeneratorConfig, SceneScript, VideoGenerator};
pub use video::Video;
