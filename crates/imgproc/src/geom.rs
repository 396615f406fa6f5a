//! Geometric transforms: rescale and crop.
//!
//! The naive signature (§4.6), and through it the key-frame extractor
//! (§4.1), samples frames on a fixed 300×300 raster rescaled with JAI's
//! `InterpolationNearest`. [`resize`] reproduces that rescale, and
//! [`nearest_source_indices`] gives its per-axis index map, so a caller
//! can read the rescaled raster's pixels without building it.

use crate::error::{ImgError, Result};
use crate::image::Image;
use crate::pixel::Pixel;

/// Map each of `dst` destination columns (or rows) to the source column
/// (or row) nearest-neighbour rescaling reads for it: the one under the
/// destination pixel's centre, `((c + 0.5) · src/dst) as u32`, clamped to
/// `src − 1`. Equal sizes give the identity map. [`resize`] samples
/// through this map.
///
/// # Panics
/// Panics when `src` is zero (no raster has a zero side).
pub fn nearest_source_indices(src: u32, dst: u32) -> Vec<u32> {
    assert!(src > 0, "nearest_source_indices: empty source axis");
    let scale = src as f64 / dst as f64;
    (0..dst).map(|c| (((c as f64 + 0.5) * scale) as u32).min(src - 1)).collect()
}

/// Resize `img` to `new_w × new_h` by nearest-neighbour sampling (the
/// paper's `InterpolationNearest`), sampling each output pixel's centre
/// (see [`nearest_source_indices`]).
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
    let xs = nearest_source_indices(w, new_w);
    let ys = nearest_source_indices(h, new_h);
    Image::from_fn(new_w, new_h, |x, y| img.get(xs[x as usize], ys[y as usize]))
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
    fn index_map_is_identity_at_equal_sizes_and_stays_in_range() {
        for n in [1u32, 2, 7, 300, 641] {
            assert_eq!(nearest_source_indices(n, n), (0..n).collect::<Vec<_>>());
        }
        // 300 → 7: centres 21.4, 64.3, ... ; 7 → 300 repeats each source
        // column 42 or 43 times, never past the last.
        assert_eq!(nearest_source_indices(300, 7), vec![21, 64, 107, 150, 192, 235, 278]);
        let up = nearest_source_indices(7, 300);
        assert_eq!((up[0], up[42], up[43], up[299]), (0, 0, 1, 6));
        assert!(up.windows(2).all(|p| p[0] <= p[1]));
        assert!(nearest_source_indices(1, 300).iter().all(|&i| i == 0));
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
