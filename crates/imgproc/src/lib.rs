//! # cbvr-imgproc — image processing substrate for CBVR
//!
//! The paper (Patel & Meshram, IJMA 2012) implements its feature extractors
//! on top of Java Advanced Imaging (`PlanarImage`, `BufferedImage`, `Raster`,
//! `LookupTableJAI`, `ParameterBlock` operations such as *rescale*,
//! *bandcombine*, *binarize*, *dilate* and *erode*). This crate provides the
//! equivalent substrate from scratch in safe Rust:
//!
//! - [`image::Image`] — a generic packed raster, with the aliases
//!   [`RgbImage`] and [`GrayImage`] used throughout the workspace;
//! - [`codec`] — PPM / PGM / BMP encoding and decoding, used to persist
//!   frames ("video to jpeg converter" stand-in; the features never depend
//!   on the compression format, only on decoded pixels);
//! - [`color`] — RGB ↔ HSV conversion and the paper's exact luma weights
//!   `{0.114, 0.587, 0.299}` (the JAI band-combine matrix in §4.3 / §4.8);
//! - [`geom`] — nearest-neighbour rescaling (`InterpolationNearest`) and
//!   its per-axis index map, through which the naive signature samples
//!   its canvas, and crop;
//! - [`morph`] — binary dilation and erosion with the paper's 5×5
//!   structuring element, a 3×3 box (§4.8 step 4);
//! - [`threshold`] — fuzzy-minimum binarisation
//!   (`getMinFuzzinessThreshold` in §4.8 step 3.G–J);
//! - [`hist`] — 256-bin luminance histograms;
//! - [`draw`] — rendering primitives used by the synthetic video generator.
//!
//! Everything operates on 8-bit channels, matching the paper's `0xff &
//! pixel[i]` arithmetic.
#![warn(missing_docs)]


pub mod codec;
pub mod color;
pub mod draw;
pub mod error;
pub mod geom;
pub mod hist;
pub mod image;
pub mod morph;
pub mod pixel;
pub mod threshold;

pub use codec::{decode_auto, ImageFormat};
pub use color::{hsv_to_rgb, luma_u8, rgb_to_gray, rgb_to_hsv};
pub use error::{ImgError, Result};
pub use hist::Histogram256;
pub use image::{GrayImage, Image, RgbImage};
pub use pixel::{Gray, Pixel, Rgb};
