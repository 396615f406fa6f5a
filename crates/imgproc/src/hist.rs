//! 256-bin intensity histograms.
//!
//! The range-finder index (§4.2) and the simple color histogram (§4.5) both
//! start from a 256-bin tabulation of pixel intensities. [`Histogram256`]
//! is that tabulation plus the statistics the index thresholds need.

use crate::image::{GrayImage, RgbImage};
use crate::pixel::Pixel;

/// A 256-bin histogram of 8-bit intensities.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram256 {
    bins: Vec<u64>,
}

impl Default for Histogram256 {
    fn default() -> Self {
        Histogram256 { bins: vec![0; 256] }
    }
}

impl Histogram256 {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Histogram of a grayscale image.
    pub fn of_gray(img: &GrayImage) -> Self {
        let mut h = Self::new();
        for p in img.pixels() {
            h.bins[p.0 as usize] += 1;
        }
        h
    }

    /// Histogram of the luminance of an RGB image (the paper histograms the
    /// "pixel count" of the frame after gray conversion for indexing).
    pub fn of_rgb_luma(img: &RgbImage) -> Self {
        let mut h = Self::new();
        for p in img.pixels() {
            h.bins[p.luma() as usize] += 1;
        }
        h
    }

    /// Count in one bin.
    #[inline]
    pub fn bin(&self, i: u8) -> u64 {
        self.bins[i as usize]
    }

    /// Add one observation.
    #[inline]
    pub fn record(&mut self, intensity: u8) {
        self.bins[intensity as usize] += 1;
    }

    /// Borrow all 256 bins.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// Sum of counts over the inclusive bin range `lo..=hi`.
    pub fn mass(&self, lo: u8, hi: u8) -> u64 {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        self.bins[lo as usize..=hi as usize].iter().sum()
    }

    /// Mean intensity; 0 when empty.
    pub fn mean(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let weighted: u64 = self.bins.iter().enumerate().map(|(i, &c)| i as u64 * c).sum();
        weighted as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pixel::{Gray, Rgb};

    #[test]
    fn gray_histogram_counts() {
        let img = GrayImage::from_fn(4, 1, |x, _| Gray(if x < 3 { 10 } else { 200 })).unwrap();
        let h = Histogram256::of_gray(&img);
        assert_eq!(h.bin(10), 3);
        assert_eq!(h.bin(200), 1);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn rgb_luma_histogram() {
        let img = RgbImage::filled(2, 2, Rgb::new(0, 255, 0)).unwrap();
        let h = Histogram256::of_rgb_luma(&img);
        assert_eq!(h.bin(150), 4);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn mass_ranges() {
        let mut h = Histogram256::new();
        for v in [0u8, 10, 20, 127, 128, 255] {
            h.record(v);
        }
        assert_eq!(h.mass(0, 127), 4);
        assert_eq!(h.mass(128, 255), 2);
        assert_eq!(h.mass(0, 255), 6);
        // Reversed bounds are normalised.
        assert_eq!(h.mass(127, 0), 4);
    }

    #[test]
    fn empty_histogram_statistics() {
        let h = Histogram256::new();
        assert_eq!(h.total(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn mean_of_uniform_pair() {
        let mut h = Histogram256::new();
        h.record(0);
        h.record(100);
        assert_eq!(h.mean(), 50.0);
    }
}
