//! Auto color correlogram (§4.7).
//!
//! "A color correlogram expresses how the spatial correlation of pairs of
//! colors changes with distance." The *auto*-correlogram keeps only
//! same-color pairs: entry `(c, d)` counts, over all pixels of quantised
//! color `c`, the neighbours at L∞ (chessboard) distance exactly `d` that
//! also have color `c`.
//!
//! Faithful to the pseudocode:
//!
//! - pixels are quantised in HSV space ([`quantize_hsv`], 64 cells:
//!   8 hue × 4 saturation × 2 value);
//! - distances run `1..=MAX_DISTANCE` (4, matching the Fig. 8 output
//!   `ACC 4 ...`);
//! - entries are the standard autocorrelogram *probability* (Huang et
//!   al.): `Pr(neighbour at distance d has color c | centre has color c)`,
//!   computed as same-color neighbours divided by *valid* (in-raster)
//!   neighbours, so borders introduce no bias and values live in `[0, 1]`.
//!
//! Normalisation note: the pseudocode tabulates a histogram "for
//! normalization" (step 6.III) but then normalises by the per-distance
//! maximum across colors (steps 11–13), which collapses any two-color
//! layout to the same correlogram regardless of structure. We use the
//! probability form that the "for normalization" histogram implies; the
//! deviation is recorded in DESIGN.md.
//!
//! Feature string: `ACC 4 v(0,1) v(0,2) ... v(63,4)` — color-major, the
//! order the pseudocode prints.

use crate::error::{FeatureError, Result};
use cbvr_imgproc::{rgb_to_hsv, Rgb, RgbImage};

/// Number of quantised HSV colors.
pub const COLOR_BINS: usize = 64;
/// Maximum chessboard distance tabulated.
pub const MAX_DISTANCE: usize = 4;
/// Flattened correlogram size.
pub const DIM: usize = COLOR_BINS * MAX_DISTANCE;

/// Quantise an HSV triple (`h ∈ 0..=359`, `s, v ∈ 0..=255`) into one of 64
/// cells: 8 hue × 4 saturation × 2 value.
#[inline]
pub fn quantize_hsv(h: u16, s: u8, v: u8) -> u8 {
    let hq = ((h as u32 * 8) / 360).min(7) as u8;
    let sq = s >> 6; // 4 levels
    let vq = v >> 7; // 2 levels
    (hq << 3) | (sq << 1) | vq
}

/// The §4.7 auto color correlogram descriptor.
#[derive(Clone, Debug, PartialEq)]
pub struct AutoColorCorrelogram {
    /// `values[c * MAX_DISTANCE + (d-1)]` = normalised autocorrelation of
    /// color `c` at distance `d`.
    values: Vec<f64>,
}

impl AutoColorCorrelogram {
    /// Extract from a frame.
    ///
    /// Every count is an integer, so the order they are gathered in
    /// cannot change the result:
    ///
    /// - offsets `o` and `-o` pair the same pixels, so same-color pairs
    ///   are counted over half of each ring and doubled;
    /// - per distance, each pixel's matches accumulate row-wise in a `u8`
    ///   vector, then one scatter per pixel adds them to its color;
    /// - a pixel at least [`MAX_DISTANCE`] from every edge has all `8d`
    ///   ring neighbours inside the raster; only the border band's valid
    ///   neighbours are counted explicitly.
    pub fn extract(img: &RgbImage) -> AutoColorCorrelogram {
        let (w, h) = (img.width() as usize, img.height() as usize);

        // Quantise all pixels once.
        let quant: Vec<u8> = img
            .as_raw()
            .chunks_exact(3)
            .map(|p| {
                let (hh, ss, vv) = rgb_to_hsv(Rgb::new(p[0], p[1], p[2]));
                quantize_hsv(hh, ss, vv)
            })
            .collect();

        let mut same_counts = vec![0u64; DIM];
        let mut matches = vec![0u8; w * h];
        for d in 1..=MAX_DISTANCE {
            matches.fill(0);
            for (dx, dy) in half_ring(d as i64) {
                count_matches(&quant, w, dx, dy, &mut matches);
            }
            for (&c, &m) in quant.iter().zip(&matches) {
                same_counts[c as usize * MAX_DISTANCE + d - 1] += m as u64;
            }
        }

        // Pixels at least MAX_DISTANCE from every edge see all 8d ring
        // neighbours; the band nearer an edge is counted explicitly.
        let mut interior = [0u64; COLOR_BINS];
        for &c in &quant {
            interior[c as usize] += 1;
        }
        let mut valid_counts = vec![0u64; DIM];
        for (y, row) in quant.chunks_exact(w).enumerate() {
            let (left, right) = if y < MAX_DISTANCE || y + MAX_DISTANCE >= h {
                (0..w, w..w)
            } else {
                (
                    0..MAX_DISTANCE.min(w),
                    w.saturating_sub(MAX_DISTANCE).max(MAX_DISTANCE)..w,
                )
            };
            for x in left.chain(right) {
                let c = row[x] as usize;
                interior[c] -= 1;
                for d in 1..=MAX_DISTANCE {
                    valid_counts[c * MAX_DISTANCE + d - 1] += ring_in_raster(x, y, d, w, h);
                }
            }
        }
        for (c, &n) in interior.iter().enumerate() {
            for d in 1..=MAX_DISTANCE {
                valid_counts[c * MAX_DISTANCE + d - 1] += 8 * d as u64 * n;
            }
        }

        // Conditional probability per (color, distance); each half-ring
        // match is one pair, seen from both of its pixels.
        let mut values = vec![0.0f64; DIM];
        for i in 0..DIM {
            if valid_counts[i] > 0 {
                values[i] = (2 * same_counts[i]) as f64 / valid_counts[i] as f64;
            }
        }
        AutoColorCorrelogram { values }
    }

    /// Flattened correlogram, color-major.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Entry for `(color c, distance d)` with `d ∈ 1..=MAX_DISTANCE`.
    pub fn at(&self, c: usize, d: usize) -> f64 {
        assert!(c < COLOR_BINS && (1..=MAX_DISTANCE).contains(&d));
        self.values[c * MAX_DISTANCE + (d - 1)]
    }

    /// Native distance: L1 over the normalised correlogram, scaled to
    /// `[0, 1]` by the dimensionality.
    pub fn distance(&self, other: &AutoColorCorrelogram) -> f64 {
        crate::distance::l1(&self.values, &other.values) / DIM as f64
    }

    /// Feature string: `ACC 4 v0 v1 ...` (Fig. 8 format).
    pub fn to_feature_string(&self) -> String {
        let mut s = format!("ACC {MAX_DISTANCE}");
        for v in &self.values {
            s.push(' ');
            s.push_str(&format!("{v}"));
        }
        s
    }

    /// Parse the feature string back.
    pub fn parse(s: &str) -> Result<AutoColorCorrelogram> {
        let mut t = s.split_whitespace();
        if t.next() != Some("ACC") {
            return Err(FeatureError::Parse("expected 'ACC' header".into()));
        }
        let d: usize = t
            .next()
            .ok_or_else(|| FeatureError::Parse("missing max distance".into()))?
            .parse()
            .map_err(|e| FeatureError::Parse(format!("bad max distance: {e}")))?;
        if d != MAX_DISTANCE {
            return Err(FeatureError::Parse(format!(
                "expected max distance {MAX_DISTANCE}, got {d}"
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
        Ok(AutoColorCorrelogram { values })
    }
}

/// The chessboard ring at distance `d`, one offset of each `±o` pair:
/// `dy > 0`, or `dy == 0` and `dx > 0` (`4d` offsets).
fn half_ring(d: i64) -> impl Iterator<Item = (i64, i64)> {
    (0..=d)
        .flat_map(move |dy| (-d..=d).map(move |dx| (dx, dy)))
        .filter(move |&(dx, dy)| dx.abs().max(dy) == d && (dy > 0 || dx > 0))
}

/// Add 1 to `matches[p]` for every pixel `p` whose neighbour `p + (dx, dy)`
/// (`dy >= 0`) lies inside the raster and has the same color.
fn count_matches(quant: &[u8], w: usize, dx: i64, dy: i64, matches: &mut [u8]) {
    // Columns `x` with `x + dx` inside the raster.
    let (lo, hi) = ((-dx).max(0), w as i64 - dx.max(0));
    if lo >= hi {
        return;
    }
    let (dy, lo, hi) = (dy as usize, lo as usize, hi as usize);
    let h = quant.len() / w;
    for y in 0..h.saturating_sub(dy) {
        let here = &quant[y * w + lo..y * w + hi];
        let start = ((y + dy) * w + lo) as i64 + dx;
        let there = &quant[start as usize..][..hi - lo];
        for ((m, a), b) in matches[y * w + lo..y * w + hi]
            .iter_mut()
            .zip(here)
            .zip(there)
        {
            *m += (a == b) as u8;
        }
    }
}

/// In-raster pixels of the ring at distance `d` around `(x, y)`: the
/// `(2d+1)²` square minus the `(2d-1)²` square, each clipped to the raster.
fn ring_in_raster(x: usize, y: usize, d: usize, w: usize, h: usize) -> u64 {
    let span = |v: usize, r: usize, n: usize| ((v + r).min(n - 1) + 1 - v.saturating_sub(r)) as u64;
    span(x, d, w) * span(y, d, h) - span(x, d - 1, w) * span(y, d - 1, h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantisation_has_64_cells() {
        assert!(quantize_hsv(0, 0, 0) < 64);
        assert!(quantize_hsv(359, 255, 255) < 64);
        // Distinct hues land in distinct cells at full saturation.
        let a = quantize_hsv(0, 255, 255);
        let b = quantize_hsv(180, 255, 255);
        assert_ne!(a, b);
    }

    #[test]
    fn flat_image_is_perfectly_autocorrelated() {
        let img = RgbImage::filled(16, 16, Rgb::new(200, 30, 30)).unwrap();
        let acc = AutoColorCorrelogram::extract(&img);
        let (h, s, v) = rgb_to_hsv(Rgb::new(200, 30, 30));
        let c = quantize_hsv(h, s, v) as usize;
        for d in 1..=MAX_DISTANCE {
            assert_eq!(acc.at(c, d), 1.0, "distance {d}");
        }
        // Every other color has zero correlation.
        for other in 0..COLOR_BINS {
            if other != c {
                for d in 1..=MAX_DISTANCE {
                    assert_eq!(acc.at(other, d), 0.0);
                }
            }
        }
    }

    #[test]
    fn values_are_normalised_to_unit_interval() {
        let img = RgbImage::from_fn(24, 24, |x, y| {
            Rgb::new((x * 11) as u8, (y * 7) as u8, ((x + y) * 5) as u8)
        })
        .unwrap();
        let acc = AutoColorCorrelogram::extract(&img);
        for &v in acc.values() {
            assert!((0.0..=1.0).contains(&v));
        }
        // The image has structure, so some color is self-correlated.
        assert!(acc.values().iter().any(|&v| v > 0.0));
    }

    #[test]
    fn correlogram_separates_layouts_with_same_histogram() {
        // Same 50/50 color mass, different spatial structure: big blocks
        // stay self-correlated at all distances, thin stripes do not.
        let blocks = RgbImage::from_fn(32, 32, |x, _| {
            if x < 16 {
                Rgb::new(255, 0, 0)
            } else {
                Rgb::new(0, 0, 255)
            }
        })
        .unwrap();
        let stripes = RgbImage::from_fn(32, 32, |x, _| {
            if x % 2 == 0 {
                Rgb::new(255, 0, 0)
            } else {
                Rgb::new(0, 0, 255)
            }
        })
        .unwrap();
        let ab = AutoColorCorrelogram::extract(&blocks);
        let st = AutoColorCorrelogram::extract(&stripes);
        assert!(ab.distance(&st) > 0.001, "distance {}", ab.distance(&st));
    }

    #[test]
    fn distance_properties() {
        let a =
            AutoColorCorrelogram::extract(&RgbImage::filled(8, 8, Rgb::new(10, 200, 10)).unwrap());
        let b =
            AutoColorCorrelogram::extract(&RgbImage::filled(8, 8, Rgb::new(200, 10, 10)).unwrap());
        assert_eq!(a.distance(&a), 0.0);
        assert!(a.distance(&b) > 0.0);
        assert!((a.distance(&b) - b.distance(&a)).abs() < 1e-12);
        assert!(a.distance(&b) <= 1.0);
    }

    #[test]
    fn feature_string_round_trip() {
        let img = RgbImage::from_fn(12, 12, |x, y| Rgb::new((x * 20) as u8, (y * 20) as u8, 128))
            .unwrap();
        let acc = AutoColorCorrelogram::extract(&img);
        let s = acc.to_feature_string();
        assert!(s.starts_with("ACC 4 "));
        let back = AutoColorCorrelogram::parse(&s).unwrap();
        for (x, y) in acc.values().iter().zip(back.values()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(AutoColorCorrelogram::parse("CCA 4 0.5").is_err());
        assert!(AutoColorCorrelogram::parse("ACC 3 0.5").is_err());
        assert!(AutoColorCorrelogram::parse("ACC 4 0.5 0.5").is_err()); // too few
    }

    #[test]
    fn border_pixels_are_handled() {
        // 1×1 image: all rings fall outside; correlogram must be all zero
        // and extraction must not panic.
        let img = RgbImage::filled(1, 1, Rgb::new(9, 9, 9)).unwrap();
        let acc = AutoColorCorrelogram::extract(&img);
        assert!(acc.values().iter().all(|&v| v == 0.0));
    }
}
