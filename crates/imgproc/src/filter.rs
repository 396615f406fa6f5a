//! Spatial filtering: 2-D convolution and standard kernels.
//!
//! [`convolve_gray_f32`] is a general-purpose `f32` convolution. The
//! Gabor extractor (§4.4) does not use it: its filter bank runs its own
//! `f64` loop in `cbvr_features::gabor`, whose per-tap summation order is
//! pinned bit-for-bit. Sobel and Gaussian kernels support the Tamura
//! directionality feature and the synthetic generator's soft edges.

use crate::error::{ImgError, Result};
use crate::image::GrayImage;
use crate::pixel::Gray;

/// A dense, odd-sided convolution kernel with `f32` taps.
#[derive(Clone, Debug, PartialEq)]
pub struct Kernel {
    size: usize,
    taps: Vec<f32>,
}

impl Kernel {
    /// Build a kernel from row-major taps; `taps.len()` must be a perfect
    /// odd square (1, 9, 25, ...).
    pub fn new(taps: Vec<f32>) -> Result<Self> {
        let size = (taps.len() as f64).sqrt() as usize;
        if size * size != taps.len() || size.is_multiple_of(2) || taps.is_empty() {
            return Err(ImgError::Dimensions(format!(
                "kernel needs an odd square tap count, got {}",
                taps.len()
            )));
        }
        Ok(Kernel { size, taps })
    }

    /// Side length (always odd).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Tap at kernel coordinates `(kx, ky)`.
    #[inline]
    pub fn tap(&self, kx: usize, ky: usize) -> f32 {
        self.taps[ky * self.size + kx]
    }

    /// 3×3 box blur.
    pub fn box3() -> Kernel {
        Kernel::new(vec![1.0 / 9.0; 9]).expect("static kernel")
    }

    /// Gaussian kernel of the given radius (side `2r+1`), `sigma = r/2`
    /// (floored at 0.5), normalised to unit sum.
    pub fn gaussian(radius: usize) -> Kernel {
        let size = 2 * radius + 1;
        let sigma = (radius as f32 / 2.0).max(0.5);
        let mut taps = Vec::with_capacity(size * size);
        let mut sum = 0.0f32;
        for y in 0..size {
            for x in 0..size {
                let dx = x as f32 - radius as f32;
                let dy = y as f32 - radius as f32;
                let v = (-(dx * dx + dy * dy) / (2.0 * sigma * sigma)).exp();
                taps.push(v);
                sum += v;
            }
        }
        for t in &mut taps {
            *t /= sum;
        }
        Kernel::new(taps).expect("odd square by construction")
    }

    /// Horizontal Sobel operator (responds to vertical edges).
    pub fn sobel_x() -> Kernel {
        Kernel::new(vec![-1.0, 0.0, 1.0, -2.0, 0.0, 2.0, -1.0, 0.0, 1.0]).expect("static kernel")
    }

    /// Vertical Sobel operator (responds to horizontal edges).
    pub fn sobel_y() -> Kernel {
        Kernel::new(vec![-1.0, -2.0, -1.0, 0.0, 0.0, 0.0, 1.0, 2.0, 1.0]).expect("static kernel")
    }
}

/// Convolve a grayscale image, returning raw `f32` responses (no clamping).
/// Border pixels use clamp-to-edge sampling.
pub fn convolve_gray_f32(img: &GrayImage, kernel: &Kernel) -> Vec<f32> {
    let (w, h) = img.dimensions();
    let r = (kernel.size() / 2) as i64;
    let mut out = vec![0.0f32; w as usize * h as usize];
    for y in 0..h as i64 {
        for x in 0..w as i64 {
            let mut acc = 0.0f32;
            for ky in 0..kernel.size() {
                for kx in 0..kernel.size() {
                    let sx = x + kx as i64 - r;
                    let sy = y + ky as i64 - r;
                    acc += kernel.tap(kx, ky) * img.get_clamped(sx, sy).0 as f32;
                }
            }
            out[(y as usize) * w as usize + x as usize] = acc;
        }
    }
    out
}

/// Convolve and clamp the result back into an 8-bit image.
pub fn convolve_gray(img: &GrayImage, kernel: &Kernel) -> GrayImage {
    let (w, h) = img.dimensions();
    let responses = convolve_gray_f32(img, kernel);
    let mut out = GrayImage::new(w, h).expect("same nonzero dims");
    for (i, v) in responses.iter().enumerate() {
        let x = (i as u32) % w;
        let y = (i as u32) / w;
        out.put(x, y, Gray(v.round().clamp(0.0, 255.0) as u8));
    }
    out
}

/// Sobel gradient magnitude and quantised direction per pixel.
///
/// Direction is returned in radians in `(-π, π]`; magnitude is
/// `|gx| + |gy|` (the L1 approximation Tamura's directionality uses).
pub fn sobel_gradients(img: &GrayImage) -> (Vec<f32>, Vec<f32>) {
    let gx = convolve_gray_f32(img, &Kernel::sobel_x());
    let gy = convolve_gray_f32(img, &Kernel::sobel_y());
    let mag = gx.iter().zip(&gy).map(|(a, b)| a.abs() + b.abs()).collect();
    let dir = gx.iter().zip(&gy).map(|(a, b)| b.atan2(*a)).collect();
    (mag, dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::GrayImage;

    #[test]
    fn kernel_shape_validation() {
        assert!(Kernel::new(vec![1.0]).is_ok());
        assert!(Kernel::new(vec![1.0; 9]).is_ok());
        assert!(Kernel::new(vec![1.0; 4]).is_err()); // even side
        assert!(Kernel::new(vec![1.0; 8]).is_err()); // not square
        assert!(Kernel::new(vec![]).is_err());
    }

    #[test]
    fn identity_kernel_is_noop() {
        let img = GrayImage::from_fn(5, 5, |x, y| Gray((x * 11 + y * 7) as u8)).unwrap();
        let ident = Kernel::new(vec![0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]).unwrap();
        assert_eq!(convolve_gray(&img, &ident), img);
    }

    #[test]
    fn box_blur_flattens_constant_image() {
        let img = GrayImage::filled(6, 6, Gray(80)).unwrap();
        let out = convolve_gray(&img, &Kernel::box3());
        assert!(out.pixels().all(|p| p == Gray(80)));
    }

    #[test]
    fn gaussian_sums_to_one() {
        for radius in 1..5 {
            let k = Kernel::gaussian(radius);
            let sum: f32 = (0..k.size())
                .flat_map(|y| (0..k.size()).map(move |x| (x, y)))
                .map(|(x, y)| k.tap(x, y))
                .sum();
            assert!((sum - 1.0).abs() < 1e-5, "radius {radius} sum {sum}");
        }
    }

    #[test]
    fn sobel_x_detects_vertical_edge() {
        // Left half black, right half white.
        let img = GrayImage::from_fn(8, 8, |x, _| Gray(if x < 4 { 0 } else { 255 })).unwrap();
        let responses = convolve_gray_f32(&img, &Kernel::sobel_x());
        // Strong positive response on the boundary column.
        let at_edge = responses[3 + 4 * 8];
        assert!(at_edge > 500.0, "edge response {at_edge}");
        // Flat regions respond zero.
        assert_eq!(responses[1 + 4 * 8], 0.0);
    }

    #[test]
    fn sobel_y_ignores_vertical_edge() {
        let img = GrayImage::from_fn(8, 8, |x, _| Gray(if x < 4 { 0 } else { 255 })).unwrap();
        let responses = convolve_gray_f32(&img, &Kernel::sobel_y());
        // Vertical edges produce no vertical-gradient response away from corners.
        assert_eq!(responses[3 + 4 * 8], 0.0);
    }

    #[test]
    fn gradient_direction_of_horizontal_ramp() {
        let img = GrayImage::from_fn(8, 8, |x, _| Gray((x * 30) as u8)).unwrap();
        let (mag, dir) = sobel_gradients(&img);
        let centre = 4 + 4 * 8;
        assert!(mag[centre] > 0.0);
        // Gradient points along +x → direction ≈ 0.
        assert!(dir[centre].abs() < 1e-4, "direction {}", dir[centre]);
    }
}
