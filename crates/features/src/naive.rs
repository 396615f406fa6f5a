//! Superficial (naive) similarity signature (§4.6).
//!
//! "Extract image signature with 25 representative pixels, each in R, G,
//! B. For each of 25 locations over image take 5 * 5 matrix & find mean
//! pixel value" — i.e. rescale to a 300×300 canvas (`baseSize`), sample a
//! 5×5 grid of locations, and average a window (`sampleSize = 15`, so
//! 30×30 pixels) around each.
//!
//! The canvas is never built. Nearest-neighbour rescaling maps each canvas
//! column and row to one source column and row
//! ([`geom::nearest_source_indices`]), so each window's 900 canvas cells
//! are source pixels, many of them repeated. [`NaiveSignature::extract`]
//! reads each distinct source pixel once, weighted by how many canvas
//! cells show it. The sums are integers, so the signature is the one the
//! built canvas gives, to the bit.
//!
//! The stored string follows Fig. 8 exactly, Java `toString` warts
//! included: `NaiveVector java.awt.Color[r=0,g=0,b=0] ...`, and
//! [`NaiveSignature::parse`] reads that format back.

use crate::error::{FeatureError, Result};
use cbvr_imgproc::geom;
use cbvr_imgproc::{Rgb, RgbImage};

/// Side of the (virtual) canvas the frame is rescaled to for sampling.
pub const BASE_SIZE: u32 = 300;
/// Half-window around each sample point (full window 2×15 = 30 px).
pub const SAMPLE_SIZE: i64 = 15;
/// Grid side: 5×5 = 25 sample points.
pub const GRID: usize = 5;

/// Normalised grid coordinates: 0.1, 0.3, 0.5, 0.7, 0.9.
fn grid_position(i: usize) -> f64 {
    0.1 + 0.2 * i as f64
}

/// The 25-point mean-color signature.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NaiveSignature {
    /// Row-major 5×5 grid of mean colors.
    signature: Vec<Rgb>,
}

impl NaiveSignature {
    /// Extract: rescale to 300×300 with nearest-neighbour interpolation
    /// (the pseudocode's `InterpolationNearest`) and average the window
    /// around each grid point, reading the canvas cells straight from the
    /// source frame through the rescale's index maps.
    pub fn extract(img: &RgbImage) -> NaiveSignature {
        let (w, h) = img.dimensions();
        let cols = window_spans(&geom::nearest_source_indices(w, BASE_SIZE));
        let rows = window_spans(&geom::nearest_source_indices(h, BASE_SIZE));
        let raw = img.as_raw();
        let stride = w as usize * 3;
        let n = (2 * SAMPLE_SIZE * 2 * SAMPLE_SIZE) as u64;
        let mut signature = Vec::with_capacity(GRID * GRID);
        for row_span in &rows {
            for col_span in &cols {
                let mut acc = [0u64; 3];
                for &(sy, row_cells) in row_span {
                    let line = &raw[sy as usize * stride..][..stride];
                    let mut line_acc = [0u64; 3];
                    for &(sx, cells) in col_span {
                        let p = &line[sx as usize * 3..][..3];
                        for (a, &v) in line_acc.iter_mut().zip(p) {
                            *a += cells * v as u64;
                        }
                    }
                    for (a, l) in acc.iter_mut().zip(line_acc) {
                        *a += row_cells * l;
                    }
                }
                let [r, g, b] = acc.map(|a| (a / n) as u8);
                signature.push(Rgb::new(r, g, b));
            }
        }
        NaiveSignature { signature }
    }

    /// The 25 mean colors, row-major.
    pub fn colors(&self) -> &[Rgb] {
        &self.signature
    }

    /// Color at grid cell `(gx, gy)`.
    pub fn at(&self, gx: usize, gy: usize) -> Rgb {
        self.signature[gy * GRID + gx]
    }

    /// Native distance: mean per-point Euclidean RGB distance, normalised
    /// to `[0, 1]` by the RGB diagonal.
    pub fn distance(&self, other: &NaiveSignature) -> f64 {
        let diag = (3.0f64 * 255.0 * 255.0).sqrt();
        let sum: f64 = self
            .signature
            .iter()
            .zip(&other.signature)
            .map(|(a, b)| {
                let dr = a.r as f64 - b.r as f64;
                let dg = a.g as f64 - b.g as f64;
                let db = a.b as f64 - b.b as f64;
                (dr * dr + dg * dg + db * db).sqrt()
            })
            .sum();
        sum / (self.signature.len() as f64 * diag)
    }

    /// Fig. 8 string: `NaiveVector java.awt.Color[r=..,g=..,b=..] ...`.
    pub fn to_feature_string(&self) -> String {
        let mut s = String::from("NaiveVector");
        for c in &self.signature {
            s.push(' ');
            s.push_str(&format!("java.awt.Color[r={},g={},b={}]", c.r, c.g, c.b));
        }
        s
    }

    /// Parse the Fig. 8 string back.
    pub fn parse(s: &str) -> Result<NaiveSignature> {
        let mut t = s.split_whitespace();
        if t.next() != Some("NaiveVector") {
            return Err(FeatureError::Parse("expected 'NaiveVector' header".into()));
        }
        let mut signature = Vec::with_capacity(GRID * GRID);
        for token in t {
            signature.push(parse_awt_color(token)?);
        }
        if signature.len() != GRID * GRID {
            return Err(FeatureError::Parse(format!(
                "expected {} colors, got {}",
                GRID * GRID,
                signature.len()
            )));
        }
        Ok(NaiveSignature { signature })
    }
}

/// For each grid position along one axis, the canvas cells of its
/// `±SAMPLE_SIZE` window, clamped to the canvas, mapped to source indices
/// through `map` and merged into `(source index, cells)` runs of equal
/// indices.
fn window_spans(map: &[u32]) -> Vec<Vec<(u32, u64)>> {
    (0..GRID)
        .map(|i| {
            let c = (grid_position(i) * BASE_SIZE as f64) as i64;
            let mut runs: Vec<(u32, u64)> = Vec::new();
            for t in (c - SAMPLE_SIZE)..(c + SAMPLE_SIZE) {
                let s = map[t.clamp(0, BASE_SIZE as i64 - 1) as usize];
                match runs.last_mut() {
                    Some((last, cells)) if *last == s => *cells += 1,
                    _ => runs.push((s, 1)),
                }
            }
            runs
        })
        .collect()
}

/// Parse one `java.awt.Color[r=R,g=G,b=B]` token.
fn parse_awt_color(token: &str) -> Result<Rgb> {
    let inner = token
        .strip_prefix("java.awt.Color[")
        .and_then(|t| t.strip_suffix(']'))
        .ok_or_else(|| FeatureError::Parse(format!("bad color token '{token}'")))?;
    let mut r = None;
    let mut g = None;
    let mut b = None;
    for part in inner.split(',') {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| FeatureError::Parse(format!("bad channel '{part}'")))?;
        let v: u8 = value
            .parse()
            .map_err(|e| FeatureError::Parse(format!("bad channel value '{value}': {e}")))?;
        match key {
            "r" => r = Some(v),
            "g" => g = Some(v),
            "b" => b = Some(v),
            other => return Err(FeatureError::Parse(format!("unknown channel '{other}'"))),
        }
    }
    match (r, g, b) {
        (Some(r), Some(g), Some(b)) => Ok(Rgb::new(r, g, b)),
        _ => Err(FeatureError::Parse(format!("incomplete color '{token}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_image_signature_is_flat() {
        let img = RgbImage::filled(40, 30, Rgb::new(12, 34, 56)).unwrap();
        let sig = NaiveSignature::extract(&img);
        assert_eq!(sig.colors().len(), 25);
        for &c in sig.colors() {
            assert_eq!(c, Rgb::new(12, 34, 56));
        }
    }

    #[test]
    fn signature_reflects_spatial_layout() {
        // Left half red, right half blue → left grid columns red-ish.
        let img = RgbImage::from_fn(100, 100, |x, _| {
            if x < 50 {
                Rgb::new(250, 0, 0)
            } else {
                Rgb::new(0, 0, 250)
            }
        })
        .unwrap();
        let sig = NaiveSignature::extract(&img);
        assert!(sig.at(0, 2).r > 200 && sig.at(0, 2).b < 50);
        assert!(sig.at(4, 2).b > 200 && sig.at(4, 2).r < 50);
    }

    #[test]
    fn scale_invariance() {
        // The same layout at different resolutions yields near-identical
        // signatures (that is the point of rescaling to a fixed canvas).
        let paint = |w: u32, h: u32| {
            RgbImage::from_fn(w, h, |x, _| {
                if x < w / 2 {
                    Rgb::new(200, 40, 40)
                } else {
                    Rgb::new(40, 40, 200)
                }
            })
            .unwrap()
        };
        let a = NaiveSignature::extract(&paint(60, 40));
        let b = NaiveSignature::extract(&paint(240, 160));
        assert!(a.distance(&b) < 0.03, "distance {}", a.distance(&b));
    }

    #[test]
    fn distance_properties() {
        let red = NaiveSignature::extract(&RgbImage::filled(20, 20, Rgb::new(255, 0, 0)).unwrap());
        let blue = NaiveSignature::extract(&RgbImage::filled(20, 20, Rgb::new(0, 0, 255)).unwrap());
        assert_eq!(red.distance(&red), 0.0);
        assert!((red.distance(&blue) - blue.distance(&red)).abs() < 1e-12);
        assert!(red.distance(&blue) > 0.5);
        assert!(red.distance(&blue) <= 1.0);
    }

    #[test]
    fn feature_string_round_trip() {
        let img =
            RgbImage::from_fn(50, 50, |x, y| Rgb::new((x * 5) as u8, (y * 5) as u8, 99)).unwrap();
        let sig = NaiveSignature::extract(&img);
        let s = sig.to_feature_string();
        assert!(s.starts_with("NaiveVector java.awt.Color[r="));
        assert_eq!(NaiveSignature::parse(&s).unwrap(), sig);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(NaiveSignature::parse("Naive java.awt.Color[r=0,g=0,b=0]").is_err());
        assert!(NaiveSignature::parse("NaiveVector notacolor").is_err());
        // Wrong count.
        let one = "NaiveVector java.awt.Color[r=0,g=0,b=0]";
        assert!(NaiveSignature::parse(one).is_err());
        // Bad channel value.
        let bad = format!(
            "NaiveVector {}",
            vec!["java.awt.Color[r=300,g=0,b=0]"; 25].join(" ")
        );
        assert!(NaiveSignature::parse(&bad).is_err());
        // Missing channel.
        let missing = format!(
            "NaiveVector {}",
            vec!["java.awt.Color[r=0,g=0]"; 25].join(" ")
        );
        assert!(NaiveSignature::parse(&missing).is_err());
    }

    #[test]
    fn awt_color_token_parsing() {
        assert_eq!(
            parse_awt_color("java.awt.Color[r=1,g=2,b=3]").unwrap(),
            Rgb::new(1, 2, 3)
        );
        assert!(parse_awt_color("java.awt.Color[r=1,q=2,b=3]").is_err());
        assert!(parse_awt_color("[r=1,g=2,b=3]").is_err());
    }
}
