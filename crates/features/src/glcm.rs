//! Gray Level Co-occurrence Matrix texture (§4.3).
//!
//! Follows the paper's `GLCM_Texture` pseudocode:
//!
//! 1. preprocess to one gray band with the `{0.114, 0.587, 0.299}`
//!    band-combine matrix;
//! 2. tabulate horizontal co-occurrences at offset `step` (default 1),
//!    **symmetrically** (`glcm[a][b] += 1; glcm[b][a] += 1;
//!    pixelCounter += 2`);
//! 3. normalise by `pixelCounter`;
//! 4. derive angular second moment (ASM/energy), contrast, correlation,
//!    inverse difference moment (IDM) and entropy.
//!
//! One deliberate correction: the pseudocode divides the correlation sum
//! by `stdevx * stdevy` where `stdevx/y` are accumulated *variances*
//! (no square root is ever taken) — which is why Fig. 8 reports the
//! physically meaningless 2.27e-4. We take the square roots, giving the
//! textbook Haralick correlation in `[-1, 1]`. DESIGN.md records this.
//!
//! The feature string (stored in the `GLCM VARCHAR2(250)` column) is
//! `GLCM <pixelCounter> <asm> <contrast> <correlation> <idm> <entropy>`.

use crate::error::{FeatureError, Result};
use cbvr_imgproc::{GrayImage, RgbImage};

/// Number of gray levels tabulated.
const LEVELS: usize = 256;

/// The Haralick statistics derived from the co-occurrence matrix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GlcmTexture {
    /// Number of (symmetric) co-occurrence observations.
    pub pixel_counter: u64,
    /// Angular second moment (energy): `Σ p²`, in `(0, 1]`.
    pub asm: f64,
    /// Contrast: `Σ (a−b)² p`.
    pub contrast: f64,
    /// Correlation in `[-1, 1]`; 0 for a constant image (zero variance).
    pub correlation: f64,
    /// Inverse difference moment: `Σ p / (1 + (a−b)²)`, in `(0, 1]`.
    pub idm: f64,
    /// Entropy: `−Σ p ln p`, in `[0, ln(LEVELS²)]`.
    pub entropy: f64,
}

impl GlcmTexture {
    /// Extract with the paper's default horizontal offset of 1 pixel.
    pub fn extract(img: &RgbImage) -> GlcmTexture {
        Self::extract_gray_with_step(&img.to_gray(), 1)
    }

    /// Extract from a pre-converted gray image with a custom offset.
    /// Images narrower than `step + 1` pixels produce the degenerate
    /// all-zero texture (no pairs to tabulate).
    pub fn extract_gray_with_step(img: &GrayImage, step: u32) -> GlcmTexture {
        let (w, h) = img.dimensions();
        let step = step.max(1);

        // Dense 256×256 joint distribution, f64 after normalisation.
        let mut glcm = vec![0.0f64; LEVELS * LEVELS];
        let mut pixel_counter = 0u64;

        if w > step {
            for y in 0..h {
                for x in 0..(w - step) {
                    let a = img.get(x, y).0 as usize;
                    let b = img.get(x + step, y).0 as usize;
                    glcm[a * LEVELS + b] += 1.0;
                    glcm[b * LEVELS + a] += 1.0;
                    pixel_counter += 2;
                }
            }
        }

        if pixel_counter == 0 {
            return GlcmTexture {
                pixel_counter: 0,
                asm: 0.0,
                contrast: 0.0,
                correlation: 0.0,
                idm: 0.0,
                entropy: 0.0,
            };
        }

        let n = pixel_counter as f64;
        for p in &mut glcm {
            *p /= n;
        }

        // Marginal means and variances (symmetric matrix → equal marginals,
        // but compute both as the pseudocode does).
        let mut mean_x = 0.0;
        let mut mean_y = 0.0;
        for a in 0..LEVELS {
            for b in 0..LEVELS {
                let p = glcm[a * LEVELS + b];
                if p == 0.0 {
                    continue;
                }
                mean_x += a as f64 * p;
                mean_y += b as f64 * p;
            }
        }
        let mut var_x = 0.0;
        let mut var_y = 0.0;
        let mut asm = 0.0;
        let mut contrast = 0.0;
        let mut corr_num = 0.0;
        let mut idm = 0.0;
        let mut entropy = 0.0;
        for a in 0..LEVELS {
            for b in 0..LEVELS {
                let p = glcm[a * LEVELS + b];
                if p == 0.0 {
                    continue;
                }
                let da = a as f64 - mean_x;
                let db = b as f64 - mean_y;
                var_x += da * da * p;
                var_y += db * db * p;
                asm += p * p;
                let d = a as f64 - b as f64;
                contrast += d * d * p;
                corr_num += da * db * p;
                idm += p / (1.0 + d * d);
                entropy -= p * p.ln();
            }
        }
        let denom = (var_x * var_y).sqrt();
        let correlation = if denom > 0.0 { corr_num / denom } else { 0.0 };

        GlcmTexture {
            pixel_counter,
            asm,
            contrast,
            correlation,
            idm,
            entropy,
        }
    }

    /// Scale-free statistics vector used for distances: each component is
    /// mapped into roughly `[0, 1]` so no single statistic dominates.
    pub fn normalized_vector(&self) -> [f64; 5] {
        let max_contrast = ((LEVELS - 1) * (LEVELS - 1)) as f64;
        let max_entropy = ((LEVELS * LEVELS) as f64).ln();
        [
            self.asm,
            self.contrast / max_contrast,
            (self.correlation + 1.0) / 2.0,
            self.idm,
            self.entropy / max_entropy,
        ]
    }

    /// Native distance: Euclidean on the normalised statistics.
    pub fn distance(&self, other: &GlcmTexture) -> f64 {
        crate::distance::l2(&self.normalized_vector(), &other.normalized_vector())
    }

    /// Feature string for the `GLCM` column.
    pub fn to_feature_string(&self) -> String {
        format!(
            "GLCM {} {} {} {} {} {}",
            self.pixel_counter, self.asm, self.contrast, self.correlation, self.idm, self.entropy
        )
    }

    /// Parse the feature string back.
    pub fn parse(s: &str) -> Result<GlcmTexture> {
        let mut t = s.split_whitespace();
        if t.next() != Some("GLCM") {
            return Err(FeatureError::Parse("expected GLCM header".into()));
        }
        let mut next_f64 = |name: &str| -> Result<f64> {
            t.next()
                .ok_or_else(|| FeatureError::Parse(format!("missing {name}")))?
                .parse()
                .map_err(|e| FeatureError::Parse(format!("bad {name}: {e}")))
        };
        let pixel_counter = next_f64("pixelCounter")? as u64;
        Ok(GlcmTexture {
            pixel_counter,
            asm: next_f64("asm")?,
            contrast: next_f64("contrast")?,
            correlation: next_f64("correlation")?,
            idm: next_f64("idm")?,
            entropy: next_f64("entropy")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbvr_imgproc::{Gray, Rgb};

    fn gray(w: u32, h: u32, f: impl Fn(u32, u32) -> u8) -> GrayImage {
        GrayImage::from_fn(w, h, |x, y| Gray(f(x, y))).unwrap()
    }

    #[test]
    fn constant_image_is_maximally_ordered() {
        let t = GlcmTexture::extract_gray_with_step(&gray(8, 8, |_, _| 77), 1);
        // Single populated cell → ASM = 1, entropy = 0, contrast = 0, IDM = 1.
        assert!((t.asm - 1.0).abs() < 1e-12);
        assert_eq!(t.contrast, 0.0);
        assert!((t.idm - 1.0).abs() < 1e-12);
        assert!(t.entropy.abs() < 1e-12);
        assert_eq!(t.correlation, 0.0); // zero variance → defined as 0
        assert_eq!(t.pixel_counter, 8 * 7 * 2);
    }

    #[test]
    fn checkerboard_has_max_contrast_pairs() {
        // Alternating 0/255 columns: every horizontal pair is (0,255) or
        // (255,0), so contrast = 255².
        let t = GlcmTexture::extract_gray_with_step(
            &gray(8, 8, |x, _| if x % 2 == 0 { 0 } else { 255 }),
            1,
        );
        assert!((t.contrast - 255.0 * 255.0).abs() < 1e-6);
        // Perfectly anti-correlated.
        assert!(t.correlation < -0.99, "correlation {}", t.correlation);
        assert!(t.idm < 0.001);
    }

    #[test]
    fn smooth_gradient_is_highly_correlated() {
        let t = GlcmTexture::extract_gray_with_step(&gray(64, 8, |x, _| (x * 4) as u8), 1);
        assert!(t.correlation > 0.95, "correlation {}", t.correlation);
        assert!(t.contrast < 100.0);
    }

    #[test]
    fn entropy_orders_random_above_structured() {
        let noisy = gray(32, 32, |x, y| {
            (x.wrapping_mul(2654435761)
                .wrapping_add(y.wrapping_mul(40503))
                >> 8) as u8
        });
        let flat = gray(32, 32, |_, _| 100);
        let tn = GlcmTexture::extract_gray_with_step(&noisy, 1);
        let tf = GlcmTexture::extract_gray_with_step(&flat, 1);
        assert!(tn.entropy > tf.entropy + 1.0);
        assert!(tn.asm < tf.asm);
    }

    #[test]
    fn degenerate_width_yields_zero_texture() {
        let t = GlcmTexture::extract_gray_with_step(&gray(1, 10, |_, _| 5), 1);
        assert_eq!(t.pixel_counter, 0);
        assert_eq!(t.asm, 0.0);
    }

    #[test]
    fn distance_is_zero_for_self_and_symmetric() {
        let a = GlcmTexture::extract(&RgbImage::filled(8, 8, Rgb::new(10, 20, 30)).unwrap());
        let img = RgbImage::from_fn(8, 8, |x, _| Rgb::new((x * 30) as u8, 0, 0)).unwrap();
        let b = GlcmTexture::extract(&img);
        assert_eq!(a.distance(&a), 0.0);
        assert!((a.distance(&b) - b.distance(&a)).abs() < 1e-12);
        assert!(a.distance(&b) > 0.0);
    }

    #[test]
    fn feature_string_round_trip() {
        let img =
            RgbImage::from_fn(16, 16, |x, y| Rgb::new((x * y) as u8, x as u8, y as u8)).unwrap();
        let t = GlcmTexture::extract(&img);
        let s = t.to_feature_string();
        let back = GlcmTexture::parse(&s).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(GlcmTexture::parse("GABOR 1 2 3 4 5 6").is_err());
        assert!(GlcmTexture::parse("GLCM 1 2 3").is_err());
        assert!(GlcmTexture::parse("GLCM a b c d e f").is_err());
    }

    #[test]
    fn step_parameter_changes_statistics() {
        let img = gray(32, 8, |x, _| ((x / 2) * 16) as u8);
        let t1 = GlcmTexture::extract_gray_with_step(&img, 1);
        let t4 = GlcmTexture::extract_gray_with_step(&img, 4);
        assert!(
            t4.contrast > t1.contrast,
            "larger step spans bigger intensity jumps"
        );
    }
}
