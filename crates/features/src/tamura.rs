//! Tamura texture features.
//!
//! The paper's `TAMURA VARCHAR2(500)` column and Fig. 8 output
//! (`Tamura 18 <coarseness> <contrast> <16 directionality bins>`) follow
//! Tamura/Mori/Yamawaki's three strongest features:
//!
//! - **coarseness** — per pixel, find the window size `2^k` (k = 1..=5)
//!   whose non-overlapping mean difference is largest; coarseness is the
//!   mean of the winning sizes (large = coarse texture);
//! - **contrast** — `σ / κ^{1/4}` where `κ = μ₄/σ⁴` is the kurtosis of the
//!   gray distribution (Tamura's polarisation-corrected spread);
//! - **directionality** — a 16-bin histogram of gradient orientations over
//!   pixels whose Prewitt gradient magnitude exceeds a threshold.
//!
//! Magnitude note: Fig. 8 reports coarseness ≈ 14620 because the Java
//! implementation sums (not averages) the winning window sizes; we store
//! the per-pixel *mean* so values are image-size independent. DESIGN.md
//! records this normalisation difference — rankings are unaffected.

use crate::error::{FeatureError, Result};
use cbvr_imgproc::{GrayImage, RgbImage};
use std::ops::Range;

/// Directionality histogram bins.
pub const DIR_BINS: usize = 16;
/// Total serialized values: coarseness + contrast + 16 bins.
pub const DIM: usize = 2 + DIR_BINS;
/// Maximum window exponent for coarseness (windows up to 2^5 = 32 px).
const MAX_K: u32 = 5;
/// Rows of coarseness computed per pass over the window tables.
const COARSENESS_STRIP: usize = 64;
/// Directionality votes only where the Prewitt magnitude
/// `(|dh| + |dv|) / 2` reaches 12, i.e. where `|dh| + |dv|` reaches 24.
const DIR_THRESHOLD_L1: i32 = 24;

/// The Tamura descriptor.
#[derive(Clone, Debug, PartialEq)]
pub struct TamuraTexture {
    /// Mean winning window size, in `[2, 2^MAX_K]` (0 for degenerate images).
    pub coarseness: f64,
    /// Polarisation-corrected gray-level spread.
    pub contrast: f64,
    /// Raw directionality votes per orientation bin.
    pub directionality: Vec<f64>,
}

/// Summed-area table for O(1) window sums. Entries are integers below
/// 2^53, so the table, and every window sum taken from it, is exact in
/// `f64`.
struct Integral {
    w: usize,
    data: Vec<f64>,
}

impl Integral {
    fn new(img: &GrayImage) -> Integral {
        let w = img.width() as usize + 1;
        let mut data = vec![0.0f64; w * (img.height() as usize + 1)];
        for (y, row) in img.as_raw().chunks_exact(w - 1).enumerate() {
            let mut run = 0u64;
            for (x, &v) in row.iter().enumerate() {
                run += v as u64;
                data[(y + 1) * w + x + 1] = data[y * w + x + 1] + run as f64;
            }
        }
        Integral { w, data }
    }

    /// Prefix sums of the rows above `y`, one entry per column boundary.
    fn row(&self, y: usize) -> &[f64] {
        &self.data[y * self.w..(y + 1) * self.w]
    }
}

impl TamuraTexture {
    /// Extract from an RGB frame.
    pub fn extract(img: &RgbImage) -> TamuraTexture {
        Self::extract_gray(&img.to_gray())
    }

    /// Extract from a gray image.
    pub fn extract_gray(gray: &GrayImage) -> TamuraTexture {
        TamuraTexture {
            coarseness: coarseness(gray),
            contrast: contrast(gray),
            directionality: directionality(gray),
        }
    }

    /// Normalised 18-vector for distance computation: coarseness mapped to
    /// `[0,1]` by its max window, contrast squashed, directionality as a
    /// probability mass function.
    pub fn normalized_vector(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(DIM);
        v.push(self.coarseness / (1u64 << MAX_K) as f64);
        v.push(self.contrast / (self.contrast + 50.0)); // soft squash to [0,1)
        let total: f64 = self.directionality.iter().sum();
        for &d in &self.directionality {
            v.push(if total > 0.0 { d / total } else { 0.0 });
        }
        v
    }

    /// Native distance: Euclidean on the normalised vector.
    pub fn distance(&self, other: &TamuraTexture) -> f64 {
        crate::distance::l2(&self.normalized_vector(), &other.normalized_vector())
    }

    /// Feature string: `Tamura 18 <coarseness> <contrast> <16 bins>`.
    pub fn to_feature_string(&self) -> String {
        let mut s = format!("Tamura {DIM} {} {}", self.coarseness, self.contrast);
        for d in &self.directionality {
            s.push(' ');
            s.push_str(&format!("{d}"));
        }
        s
    }

    /// Parse the feature string back.
    pub fn parse(s: &str) -> Result<TamuraTexture> {
        let mut t = s.split_whitespace();
        if t.next() != Some("Tamura") {
            return Err(FeatureError::Parse("expected 'Tamura' header".into()));
        }
        let dim: usize = t
            .next()
            .ok_or_else(|| FeatureError::Parse("missing dimension".into()))?
            .parse()
            .map_err(|e| FeatureError::Parse(format!("bad dimension: {e}")))?;
        if dim != DIM {
            return Err(FeatureError::Parse(format!(
                "expected dim {DIM}, got {dim}"
            )));
        }
        let values: std::result::Result<Vec<f64>, _> = t.map(str::parse).collect();
        let values = values.map_err(|e| FeatureError::Parse(format!("bad value: {e}")))?;
        if values.len() != DIM {
            return Err(FeatureError::Parse(format!(
                "expected {DIM} values, got {}",
                values.len()
            )));
        }
        Ok(TamuraTexture {
            coarseness: values[0],
            contrast: values[1],
            directionality: values[2..].to_vec(),
        })
    }
}

/// Per-pixel best window size, averaged (Tamura F_crs).
///
/// For each window exponent `k` (window side `2^k`, `half = 2^(k-1)`)
/// the pixel at `(x, y)` compares the means of the windows centred at
/// `(x ± half, y)` and at `(x, y ± half)`, each clamped to the raster (a
/// window wholly outside it has mean 0). For each strip of rows, one
/// padded table per `k` holds every such mean, so the pixel loop reads
/// four entries per `k`. Each entry is the window's exact integer sum
/// divided by its area, as a per-pixel evaluation computes it; the
/// winner is the first `k` with the strictly largest difference, and the
/// winning sizes are integers summed exactly, so the result is
/// bit-identical to the per-pixel loop.
fn coarseness(gray: &GrayImage) -> f64 {
    let (w, h) = (gray.width() as usize, gray.height() as usize);
    if w < 4 || h < 4 {
        return 0.0;
    }
    let integral = Integral::new(gray);
    let mut sum_best = 0.0f64;
    // Strips of rows bound the tables' size on large frames.
    for y0 in (0..h).step_by(COARSENESS_STRIP) {
        let rows = COARSENESS_STRIP.min(h - y0);
        let mut best_e = vec![-1.0f64; rows * w];
        let mut best_size = vec![2.0f64; rows * w];
        for k in 1..=MAX_K {
            let half = 1usize << (k - 1);
            let size = (1u64 << k) as f64;
            let means = window_means(&integral, w, h, half, y0..y0 + rows + 2 * half);
            let pw = w + 2 * half;
            let best_rows = best_e
                .chunks_exact_mut(w)
                .zip(best_size.chunks_exact_mut(w));
            for (y, (best_e, best_size)) in best_rows.enumerate() {
                let row = |dy: usize, dx: usize| &means[(y + dy) * pw + dx..][..w];
                let horizontal = row(half, 0).iter().zip(row(half, 2 * half));
                let vertical = row(0, half).iter().zip(row(2 * half, half));
                let best = best_e.iter_mut().zip(best_size.iter_mut());
                for ((best_e, best_size), ((l, r), (u, d))) in best.zip(horizontal.zip(vertical)) {
                    // Horizontal and vertical mean differences between
                    // neighbouring non-overlapping windows.
                    let eh = (r - l).abs();
                    let ev = (d - u).abs();
                    let e = eh.max(ev);
                    let better = e > *best_e;
                    *best_e = if better { e } else { *best_e };
                    *best_size = if better { size } else { *best_size };
                }
            }
        }
        sum_best += best_size.iter().sum::<f64>();
    }
    sum_best / (w * h) as f64
}

/// Means of the `2·half`-sided windows centred at `(cx, cy)` for every
/// `cx ∈ [-half, w + half)` and for the centres `cy = j - half` of the
/// padded rows `j` in `rows`, each clamped to the raster; row-major,
/// `(cx, cy)` stored at column `cx + half` of row `j - rows.start`.
fn window_means(
    integral: &Integral,
    w: usize,
    h: usize,
    half: usize,
    rows: Range<usize>,
) -> Vec<f64> {
    let side = 2 * half;
    let pw = w + side;
    // Clamped `[c - half, c + half)` bounds of the window centred at
    // padded index `i` (centre `c = i - half`), along an axis of `n`.
    let clamp = |i: usize, n: usize| (i.saturating_sub(side).min(n), i.min(n));
    // Padded columns whose window lies wholly inside the raster.
    let inner = if side <= w { side..w + 1 } else { 0..0 };
    let mut means = vec![0.0f64; pw * rows.len()];
    for (j, out) in rows.zip(means.chunks_exact_mut(pw)) {
        let (y0, y1) = clamp(j, h);
        let (top, bottom) = (integral.row(y0), integral.row(y1));
        let mean = |x0: usize, x1: usize| {
            let area = ((x1 - x0) * (y1 - y0)) as f64;
            if area == 0.0 {
                0.0
            } else {
                (bottom[x1] + top[x0] - top[x1] - bottom[x0]) / area
            }
        };
        for i in (0..inner.start).chain(inner.end..pw) {
            let (x0, x1) = clamp(i, w);
            out[i] = mean(x0, x1);
        }
        if y1 > y0 && !inner.is_empty() {
            let area = (side * (y1 - y0)) as f64;
            let (lo, hi) = (inner.start - side, inner.end - side);
            let corners = bottom[inner.clone()]
                .iter()
                .zip(&top[lo..hi])
                .zip(&top[inner.clone()]);
            for (m, (((&b1, &t0), &t1), &b0)) in out[inner.clone()]
                .iter_mut()
                .zip(corners.zip(&bottom[lo..hi]))
            {
                *m = (b1 + t0 - t1 - b0) / area;
            }
        }
    }
    means
}

/// Tamura F_con: `σ / κ^{1/4}`.
fn contrast(gray: &GrayImage) -> f64 {
    let n = gray.pixel_count() as f64;
    let mean = gray.pixels().map(|p| p.0 as f64).sum::<f64>() / n;
    let mut m2 = 0.0;
    let mut m4 = 0.0;
    for p in gray.pixels() {
        let d = p.0 as f64 - mean;
        let d2 = d * d;
        m2 += d2;
        m4 += d2 * d2;
    }
    m2 /= n;
    m4 /= n;
    if m2 <= 0.0 {
        return 0.0;
    }
    let kurtosis = m4 / (m2 * m2);
    m2.sqrt() / kurtosis.powf(0.25)
}

/// Tamura F_dir: 16-bin orientation histogram of strong Prewitt gradients.
///
/// The Prewitt sums are exact integers, so they are computed in `i32`
/// and the magnitude test `(|dh| + |dv|) / 2 >= 12` becomes
/// `|dh| + |dv| >= 24`; `atan2` and the binning see the same `f64`
/// operands as before.
fn directionality(gray: &GrayImage) -> Vec<f64> {
    let (w, h) = (gray.width() as usize, gray.height() as usize);
    let mut votes = [0u32; DIR_BINS];
    if w >= 3 && h >= 3 {
        let rows: Vec<&[u8]> = gray.as_raw().chunks_exact(w).collect();
        for win in rows.windows(3) {
            let at = |r: usize, x: usize| win[r][x] as i32;
            for x in 1..w - 1 {
                // Prewitt operators.
                let dh = (at(0, x + 1) + at(1, x + 1) + at(2, x + 1))
                    - (at(0, x - 1) + at(1, x - 1) + at(2, x - 1));
                let dv = (at(2, x - 1) + at(2, x) + at(2, x + 1))
                    - (at(0, x - 1) + at(0, x) + at(0, x + 1));
                if dh.abs() + dv.abs() < DIR_THRESHOLD_L1 {
                    continue;
                }
                // Orientation folded into [0, π).
                let mut theta = (dv as f64).atan2(dh as f64) + std::f64::consts::FRAC_PI_2;
                if theta < 0.0 {
                    theta += std::f64::consts::PI;
                }
                if theta >= std::f64::consts::PI {
                    theta -= std::f64::consts::PI;
                }
                let bin = ((theta / std::f64::consts::PI) * DIR_BINS as f64) as usize;
                votes[bin.min(DIR_BINS - 1)] += 1;
            }
        }
    }
    votes.iter().map(|&v| v as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbvr_imgproc::{Gray, Rgb};

    fn gray(w: u32, h: u32, f: impl Fn(u32, u32) -> u8) -> GrayImage {
        GrayImage::from_fn(w, h, |x, y| Gray(f(x, y))).unwrap()
    }

    #[test]
    fn coarse_texture_scores_higher_than_fine() {
        // 16-px blocks vs 2-px blocks of the same two intensities.
        let coarse = gray(64, 64, |x, y| {
            if ((x / 16) + (y / 16)) % 2 == 0 {
                0
            } else {
                255
            }
        });
        let fine = gray(
            64,
            64,
            |x, y| if ((x / 2) + (y / 2)) % 2 == 0 { 0 } else { 255 },
        );
        let tc = TamuraTexture::extract_gray(&coarse);
        let tf = TamuraTexture::extract_gray(&fine);
        assert!(
            tc.coarseness > tf.coarseness,
            "coarse {} should beat fine {}",
            tc.coarseness,
            tf.coarseness
        );
    }

    #[test]
    fn contrast_orders_spread() {
        let low = gray(32, 32, |x, _| 120 + (x % 4) as u8);
        let high = gray(32, 32, |x, _| if x % 2 == 0 { 0 } else { 255 });
        let tl = TamuraTexture::extract_gray(&low);
        let th = TamuraTexture::extract_gray(&high);
        assert!(
            th.contrast > tl.contrast * 2.0,
            "high {} low {}",
            th.contrast,
            tl.contrast
        );
    }

    #[test]
    fn flat_image_has_zero_contrast_and_no_directions() {
        let t = TamuraTexture::extract_gray(&gray(32, 32, |_, _| 200));
        assert_eq!(t.contrast, 0.0);
        assert!(t.directionality.iter().all(|&d| d == 0.0));
    }

    #[test]
    fn directionality_peaks_for_oriented_stripes() {
        // Vertical stripes → gradients along x → one dominant orientation.
        let v = TamuraTexture::extract_gray(&gray(
            64,
            64,
            |x, _| if (x / 4) % 2 == 0 { 0 } else { 255 },
        ));
        let total: f64 = v.directionality.iter().sum();
        let max = v.directionality.iter().cloned().fold(0.0, f64::max);
        assert!(total > 0.0);
        assert!(
            max / total > 0.6,
            "dominant bin should hold most votes: {:?}",
            v.directionality
        );

        // Horizontal stripes peak in a different bin.
        let himg =
            TamuraTexture::extract_gray(&gray(
                64,
                64,
                |_, y| if (y / 4) % 2 == 0 { 0 } else { 255 },
            ));
        let argmax = |d: &[f64]| {
            d.iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0
        };
        assert_ne!(argmax(&v.directionality), argmax(&himg.directionality));
    }

    #[test]
    fn distance_properties() {
        let a = TamuraTexture::extract(&RgbImage::filled(32, 32, Rgb::new(100, 100, 100)).unwrap());
        let img = RgbImage::from_fn(32, 32, |x, _| {
            if x % 2 == 0 {
                Rgb::new(0, 0, 0)
            } else {
                Rgb::new(255, 255, 255)
            }
        })
        .unwrap();
        let b = TamuraTexture::extract(&img);
        assert_eq!(a.distance(&a), 0.0);
        assert!(a.distance(&b) > 0.0);
        assert!((a.distance(&b) - b.distance(&a)).abs() < 1e-12);
    }

    #[test]
    fn feature_string_round_trip() {
        let img =
            RgbImage::from_fn(32, 32, |x, y| Rgb::new((x * 8) as u8, (y * 8) as u8, 0)).unwrap();
        let t = TamuraTexture::extract(&img);
        let s = t.to_feature_string();
        assert!(s.starts_with("Tamura 18 "));
        let back = TamuraTexture::parse(&s).unwrap();
        assert!((back.coarseness - t.coarseness).abs() < 1e-12);
        assert!((back.contrast - t.contrast).abs() < 1e-12);
        assert_eq!(back.directionality.len(), DIR_BINS);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(TamuraTexture::parse("tamura 18 1 2").is_err()); // case-sensitive header
        assert!(TamuraTexture::parse("Tamura 17 1").is_err());
        assert!(TamuraTexture::parse("Tamura 18 1 2 3").is_err()); // too few
    }

    #[test]
    fn tiny_images_do_not_panic() {
        let t = TamuraTexture::extract_gray(&gray(2, 2, |_, _| 9));
        assert_eq!(t.coarseness, 0.0);
        assert!(t.directionality.iter().all(|&d| d == 0.0));
    }

    #[test]
    fn normalized_vector_is_bounded() {
        let img =
            RgbImage::from_fn(48, 48, |x, y| Rgb::new((x * y) as u8, x as u8, y as u8)).unwrap();
        let t = TamuraTexture::extract(&img);
        for v in t.normalized_vector() {
            assert!((0.0..=1.0).contains(&v), "component {v} out of range");
        }
    }
}
