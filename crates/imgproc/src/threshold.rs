//! Binarisation thresholds.
//!
//! §4.8 binarises the segmentation input with JAI's *fuzziness* threshold
//! (`Histogram.getMinFuzzinessThreshold`). That method picks the threshold
//! minimising Huang's measure of fuzziness: for each candidate threshold
//! the image is split into two classes; each pixel's membership to its
//! class decreases with its distance from the class mean, and Shannon's
//! entropy of the memberships scores the split.

use crate::hist::Histogram256;
use crate::image::GrayImage;
use crate::pixel::Gray;

/// Threshold minimising Huang's fuzziness measure (JAI's
/// `getMinFuzzinessThreshold`). Returns 0 for an empty histogram.
pub fn min_fuzziness_threshold(hist: &Histogram256) -> u8 {
    let total = hist.total();
    if total == 0 {
        return 0;
    }
    let bins = hist.bins();

    // Prefix sums for O(1) class means at any threshold.
    let mut prefix_count = [0u64; 257];
    let mut prefix_weighted = [0u64; 257];
    for i in 0..256 {
        prefix_count[i + 1] = prefix_count[i] + bins[i];
        prefix_weighted[i + 1] = prefix_weighted[i] + bins[i] * i as u64;
    }

    let first = bins.iter().position(|&c| c > 0).unwrap_or(0);
    let last = bins.iter().rposition(|&c| c > 0).unwrap_or(255);
    if first == last {
        return first as u8;
    }

    // Range normaliser keeps memberships in [0.5, 1].
    let c = (last - first) as f64;
    let mut best_t = first as u8;
    let mut best_entropy = f64::INFINITY;

    for t in first..last {
        let below = prefix_count[t + 1];
        let above = total - below;
        if below == 0 || above == 0 {
            continue;
        }
        let mu0 = prefix_weighted[t + 1] as f64 / below as f64;
        let mu1 = (prefix_weighted[256] - prefix_weighted[t + 1]) as f64 / above as f64;

        let mut entropy = 0.0f64;
        for (g, &cnt) in bins.iter().enumerate() {
            if cnt == 0 {
                continue;
            }
            let mu = if g <= t { mu0 } else { mu1 };
            // Huang's membership: 1 / (1 + |g - mu| / C) ∈ (0.5, 1].
            let m = 1.0 / (1.0 + (g as f64 - mu).abs() / c);
            // Shannon fuzziness of membership m.
            let s = if m <= 0.0 || m >= 1.0 {
                0.0
            } else {
                -m * m.ln() - (1.0 - m) * (1.0 - m).ln()
            };
            entropy += s * cnt as f64;
        }
        if entropy < best_entropy {
            best_entropy = entropy;
            best_t = t as u8;
        }
    }
    best_t
}

/// Binarise: pixels strictly above `threshold` become 255, the rest 0.
pub fn binarize(img: &GrayImage, threshold: u8) -> GrayImage {
    let (w, h) = img.dimensions();
    GrayImage::from_fn(w, h, |x, y| Gray(if img.get(x, y).0 > threshold { 255 } else { 0 }))
        .expect("same nonzero dims")
}

/// The §4.8 step-3 pipeline: compute the histogram, take the fuzziness
/// threshold and binarise with it.
pub fn binarize_fuzzy(img: &GrayImage) -> GrayImage {
    let hist = Histogram256::of_gray(img);
    binarize(img, min_fuzziness_threshold(&hist))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bimodal(lo: u8, hi: u8, n_lo: u32, n_hi: u32) -> GrayImage {
        let w = n_lo + n_hi;
        GrayImage::from_fn(w, 1, |x, _| Gray(if x < n_lo { lo } else { hi })).unwrap()
    }

    #[test]
    fn fuzzy_threshold_separates_bimodal() {
        let img = bimodal(20, 220, 50, 50);
        let t = min_fuzziness_threshold(&Histogram256::of_gray(&img));
        assert!((20..220).contains(&t), "threshold {t} should split the modes");
        let bin = binarize(&img, t);
        assert_eq!(bin.get(0, 0), Gray(0));
        assert_eq!(bin.get(99, 0), Gray(255));
    }

    #[test]
    fn constant_image_thresholds_degenerate() {
        let img = GrayImage::filled(4, 4, Gray(77)).unwrap();
        let h = Histogram256::of_gray(&img);
        assert_eq!(min_fuzziness_threshold(&h), 77);
        // Binarising a constant image yields all-0 or all-255, never a mix.
        let b = binarize_fuzzy(&img);
        let fg = b.pixels().filter(|p| p.0 != 0).count();
        assert!(fg == 0 || fg == 16);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram256::new();
        assert_eq!(min_fuzziness_threshold(&h), 0);
    }

    #[test]
    fn binarize_strictness() {
        let img = GrayImage::from_fn(3, 1, |x, _| Gray([10, 128, 129][x as usize])).unwrap();
        let b = binarize(&img, 128);
        assert_eq!(b.get(0, 0), Gray(0));
        assert_eq!(b.get(1, 0), Gray(0)); // equal to threshold → background
        assert_eq!(b.get(2, 0), Gray(255));
    }

    #[test]
    fn fuzzy_threshold_skewed_classes() {
        // 90% dark, 10% bright — threshold still lands between the modes.
        let img = bimodal(10, 240, 90, 10);
        let t = min_fuzziness_threshold(&Histogram256::of_gray(&img));
        assert!((10..240).contains(&t), "threshold {t}");
    }
}
