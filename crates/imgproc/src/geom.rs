//! Geometric transforms: rescale and crop.
//!
//! The key-frame extractor (§4.1) and the naive signature (§4.6) rescale
//! frames to a fixed 300×300 raster using JAI's `InterpolationNearest`;
//! [`resize`] reproduces that.

use crate::error::{ImgError, Result};
use crate::image::Image;
use crate::pixel::Pixel;

/// Resize `img` to `new_w × new_h` by nearest-neighbour sampling (the
/// paper's `InterpolationNearest`), sampling each output pixel's centre.
///
/// # Errors
/// Returns [`ImgError::Dimensions`] when a target side is zero.
pub fn resize<P: Pixel>(img: &Image<P>, new_w: u32, new_h: u32) -> Result<Image<P>> {
    if new_w == 0 || new_h == 0 {
        return Err(ImgError::Dimensions(format!("cannot resize to {new_w}x{new_h}")));
    }
    if (new_w, new_h) == img.dimensions() {
        return Ok(img.clone());
    }
    let (w, h) = img.dimensions();
    let sx = w as f64 / new_w as f64;
    let sy = h as f64 / new_h as f64;
    Image::from_fn(new_w, new_h, |x, y| {
        let src_x = ((x as f64 + 0.5) * sx) as u32;
        let src_y = ((y as f64 + 0.5) * sy) as u32;
        img.get(src_x.min(w - 1), src_y.min(h - 1))
    })
}

/// Extract the `w × h` rectangle whose top-left corner is `(x, y)`.
///
/// # Errors
/// Returns [`ImgError::Dimensions`] when the rectangle escapes the raster
/// or has a zero side.
pub fn crop<P: Pixel>(img: &Image<P>, x: u32, y: u32, w: u32, h: u32) -> Result<Image<P>> {
    let (iw, ih) = img.dimensions();
    if w == 0 || h == 0 {
        return Err(ImgError::Dimensions("zero-sized crop".into()));
    }
    if x.checked_add(w).is_none_or(|e| e > iw) || y.checked_add(h).is_none_or(|e| e > ih) {
        return Err(ImgError::Dimensions(format!(
            "crop ({x},{y} {w}x{h}) escapes {iw}x{ih} raster"
        )));
    }
    Image::from_fn(w, h, |cx, cy| img.get(x + cx, y + cy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::GrayImage;
    use crate::pixel::Gray;

    #[test]
    fn resize_identity_is_clone() {
        let img = GrayImage::from_fn(4, 4, |x, y| Gray((x + y) as u8)).unwrap();
        let out = resize(&img, 4, 4).unwrap();
        assert_eq!(out, img);
    }

    #[test]
    fn nearest_upscale_replicates() {
        let img = GrayImage::from_fn(2, 1, |x, _| Gray(if x == 0 { 0 } else { 255 })).unwrap();
        let out = resize(&img, 4, 2).unwrap();
        assert_eq!(out.get(0, 0), Gray(0));
        assert_eq!(out.get(1, 0), Gray(0));
        assert_eq!(out.get(2, 1), Gray(255));
        assert_eq!(out.get(3, 1), Gray(255));
    }

    #[test]
    fn nearest_downscale_samples() {
        let img = GrayImage::from_fn(4, 4, |x, y| Gray((y * 4 + x) as u8 * 10)).unwrap();
        let out = resize(&img, 2, 2).unwrap();
        assert_eq!(out.dimensions(), (2, 2));
        // Centre-of-cell sampling picks pixel (1,1) for output (0,0).
        assert_eq!(out.get(0, 0), Gray(50));
    }

    #[test]
    fn zero_target_rejected() {
        let img = GrayImage::new(4, 4).unwrap();
        assert!(resize(&img, 0, 4).is_err());
        assert!(resize(&img, 4, 0).is_err());
    }

    #[test]
    fn crop_extracts_subrect() {
        let img = GrayImage::from_fn(5, 5, |x, y| Gray((y * 5 + x) as u8)).unwrap();
        let c = crop(&img, 1, 2, 3, 2).unwrap();
        assert_eq!(c.dimensions(), (3, 2));
        assert_eq!(c.get(0, 0), Gray(11));
        assert_eq!(c.get(2, 1), Gray(18));
    }

    #[test]
    fn crop_bounds_enforced() {
        let img = GrayImage::new(5, 5).unwrap();
        assert!(crop(&img, 3, 3, 3, 3).is_err());
        assert!(crop(&img, 0, 0, 0, 1).is_err());
        assert!(crop(&img, u32::MAX, 0, 1, 1).is_err());
    }
}
