//! Simple Color Histogram (§4.5).
//!
//! The paper quantises "the color space of the frame into a finite number
//! of discrete levels" — 256 bins, per the Fig. 8 output (`Histogram : RGB
//! 256 <256 counts>`). We use the standard 3-3-2 RGB quantisation (8 red ×
//! 8 green × 4 blue levels = 256 bins), the same scheme LIRE's
//! `SimpleColorHistogram` (which the pseudocode mirrors) uses for its RGB
//! mode.
//!
//! The stored feature string follows Fig. 8 exactly:
//! `RGB 256 c0 c1 ... c255`.

use crate::distance;
use crate::error::{FeatureError, Result};
use cbvr_imgproc::{Rgb, RgbImage};

/// Number of histogram bins.
pub const BINS: usize = 256;

/// Quantise an RGB pixel into one of 256 bins (3 bits red, 3 bits green,
/// 2 bits blue).
#[inline]
pub fn quantize_rgb_332(p: Rgb) -> u8 {
    let r = p.r >> 5; // 3 bits
    let g = p.g >> 5; // 3 bits
    let b = p.b >> 6; // 2 bits
    (r << 5) | (g << 2) | b
}

/// The §4.5 simple color histogram descriptor.
#[derive(Clone, Debug, PartialEq)]
pub struct ColorHistogram {
    counts: Vec<u32>,
}

impl ColorHistogram {
    /// Extract from a frame: count quantised colors over all pixels.
    pub fn extract(img: &RgbImage) -> ColorHistogram {
        let mut counts = vec![0u32; BINS];
        for p in img.pixels() {
            counts[quantize_rgb_332(p) as usize] += 1;
        }
        ColorHistogram { counts }
    }

    /// Raw per-bin counts.
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// Total pixel count.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|&c| c as u64).sum()
    }

    /// Native distance: Jensen–Shannon divergence of the normalised
    /// histograms — bounded, symmetric and robust to image size.
    pub fn distance(&self, other: &ColorHistogram) -> f64 {
        let a: Vec<f64> = self.counts.iter().map(|&c| c as f64).collect();
        let b: Vec<f64> = other.counts.iter().map(|&c| c as f64).collect();
        distance::jensen_shannon(&a, &b)
    }

    /// Fig. 8 serialisation: `RGB 256 c0 c1 ... c255`.
    pub fn to_feature_string(&self) -> String {
        let mut s = String::with_capacity(BINS * 4 + 8);
        s.push_str("RGB 256");
        for c in &self.counts {
            s.push(' ');
            s.push_str(&c.to_string());
        }
        s
    }

    /// Parse the Fig. 8 serialisation back.
    pub fn parse(s: &str) -> Result<ColorHistogram> {
        let mut tokens = s.split_whitespace();
        match (tokens.next(), tokens.next()) {
            (Some("RGB"), Some("256")) => {}
            other => {
                return Err(FeatureError::Parse(format!(
                    "expected 'RGB 256' header, got {other:?}"
                )))
            }
        }
        let counts: std::result::Result<Vec<u32>, _> = tokens.map(str::parse).collect();
        let counts = counts.map_err(|e| FeatureError::Parse(format!("bad count: {e}")))?;
        if counts.len() != BINS {
            return Err(FeatureError::Parse(format!(
                "expected {BINS} counts, got {}",
                counts.len()
            )));
        }
        Ok(ColorHistogram { counts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(c: Rgb) -> RgbImage {
        RgbImage::filled(10, 10, c).unwrap()
    }

    #[test]
    fn quantisation_packs_332() {
        assert_eq!(quantize_rgb_332(Rgb::new(0, 0, 0)), 0);
        assert_eq!(quantize_rgb_332(Rgb::new(255, 255, 255)), 255);
        assert_eq!(quantize_rgb_332(Rgb::new(255, 0, 0)), 0b1110_0000);
        assert_eq!(quantize_rgb_332(Rgb::new(0, 255, 0)), 0b0001_1100);
        assert_eq!(quantize_rgb_332(Rgb::new(0, 0, 255)), 0b0000_0011);
    }

    #[test]
    fn nearby_colors_share_a_bin() {
        assert_eq!(
            quantize_rgb_332(Rgb::new(100, 100, 100)),
            quantize_rgb_332(Rgb::new(101, 99, 110))
        );
    }

    #[test]
    fn total_mass_is_pixel_count() {
        let h = ColorHistogram::extract(&flat(Rgb::new(30, 60, 90)));
        assert_eq!(h.total(), 100);
        assert_eq!(h.counts().iter().filter(|&&c| c > 0).count(), 1);
    }

    #[test]
    fn distance_properties() {
        let a = ColorHistogram::extract(&flat(Rgb::new(255, 0, 0)));
        let b = ColorHistogram::extract(&flat(Rgb::new(0, 0, 255)));
        assert_eq!(a.distance(&a), 0.0);
        assert!(a.distance(&b) > 0.1);
        assert!((a.distance(&b) - b.distance(&a)).abs() < 1e-12);
    }

    #[test]
    fn similar_images_are_closer_than_different_ones() {
        let red = ColorHistogram::extract(&flat(Rgb::new(230, 10, 10)));
        let red2 = ColorHistogram::extract(&flat(Rgb::new(235, 12, 8)));
        let blue = ColorHistogram::extract(&flat(Rgb::new(10, 10, 230)));
        assert!(red.distance(&red2) < red.distance(&blue));
    }

    #[test]
    fn feature_string_round_trip() {
        let img =
            RgbImage::from_fn(16, 16, |x, y| Rgb::new((x * 16) as u8, (y * 16) as u8, 77)).unwrap();
        let h = ColorHistogram::extract(&img);
        let s = h.to_feature_string();
        assert!(s.starts_with("RGB 256 "));
        assert_eq!(ColorHistogram::parse(&s).unwrap(), h);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(ColorHistogram::parse("HSV 256 1 2 3").is_err());
        assert!(ColorHistogram::parse("RGB 256 1 2 3").is_err()); // too few
        assert!(ColorHistogram::parse("RGB 256").is_err());
        let many = format!("RGB 256 {}", vec!["x"; 256].join(" "));
        assert!(ColorHistogram::parse(&many).is_err()); // non-numeric
    }
}
