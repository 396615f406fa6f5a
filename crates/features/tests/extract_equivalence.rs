//! Bit-identity pin for the Tamura, autocorrelogram, region-growing
//! (morphology) and naive-signature extractors.
//!
//! Each oracle is the straightforward per-pixel form of its extractor:
//! Tamura evaluates every clamped window mean through the integral image
//! at every pixel and sums votes and sizes in `f64`; the correlogram walks
//! every chessboard ring around every pixel, bounds-checking each
//! neighbour; morphology applies an offset list built from the paper's
//! 5×5 mask, reading outside the raster as background; the naive
//! signature builds the 300×300 nearest-neighbour canvas pixel by pixel
//! (the formula written out, so a slip in the shared index map
//! `geom::resize` and the extractor both read cannot hide) and averages
//! the clamped window around each grid point on it. The production
//! extractors must match them to the last bit (`f64::to_bits`) on every
//! value, and the naive signature color for color, as must the key frames
//! §4.1 picks with it. The oracles exist only here.

use cbvr_features::correlogram::{self, quantize_hsv, AutoColorCorrelogram};
use cbvr_features::naive::{self, NaiveSignature};
use cbvr_features::region::{RegionConfig, RegionGrowing};
use cbvr_features::tamura::{self, TamuraTexture};
use cbvr_imgproc::threshold::binarize_fuzzy;
use cbvr_imgproc::{geom, morph, rgb_to_hsv, Gray, GrayImage, Rgb, RgbImage};
use cbvr_keyframe::{extract_keyframes, KeyframeConfig};
use cbvr_video::{Category, GeneratorConfig, VideoGenerator};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

mod oracle {
    use super::*;

    const MAX_K: u32 = 5;
    const DIR_THRESHOLD: f64 = 12.0;

    struct Integral {
        w: usize,
        data: Vec<u64>,
    }

    impl Integral {
        fn new(img: &GrayImage) -> Integral {
            let (w, h) = (img.width() as usize, img.height() as usize);
            let mut data = vec![0u64; (w + 1) * (h + 1)];
            for y in 0..h {
                for x in 0..w {
                    let v = img.get(x as u32, y as u32).0 as u64;
                    data[(y + 1) * (w + 1) + (x + 1)] =
                        v + data[y * (w + 1) + (x + 1)] + data[(y + 1) * (w + 1) + x]
                            - data[y * (w + 1) + x];
                }
            }
            Integral { w: w + 1, data }
        }

        fn sum(&self, x0: usize, y0: usize, x1: usize, y1: usize) -> u64 {
            self.data[y1 * self.w + x1] + self.data[y0 * self.w + x0]
                - self.data[y0 * self.w + x1]
                - self.data[y1 * self.w + x0]
        }
    }

    fn coarseness(gray: &GrayImage) -> f64 {
        let (w, h) = (gray.width() as usize, gray.height() as usize);
        if w < 4 || h < 4 {
            return 0.0;
        }
        let integral = Integral::new(gray);
        let mean_at = |x: i64, y: i64, half: i64| -> f64 {
            let x0 = (x - half).clamp(0, w as i64) as usize;
            let y0 = (y - half).clamp(0, h as i64) as usize;
            let x1 = (x + half).clamp(0, w as i64) as usize;
            let y1 = (y + half).clamp(0, h as i64) as usize;
            let area = ((x1 - x0) * (y1 - y0)) as f64;
            if area == 0.0 {
                0.0
            } else {
                integral.sum(x0, y0, x1, y1) as f64 / area
            }
        };
        let mut sum_best = 0.0f64;
        let n = (w * h) as f64;
        for y in 0..h as i64 {
            for x in 0..w as i64 {
                let mut best_e = -1.0f64;
                let mut best_size = 2.0f64;
                for k in 1..=MAX_K {
                    let half = 1i64 << (k - 1);
                    let eh = (mean_at(x + half, y, half) - mean_at(x - half, y, half)).abs();
                    let ev = (mean_at(x, y + half, half) - mean_at(x, y - half, half)).abs();
                    let e = eh.max(ev);
                    if e > best_e {
                        best_e = e;
                        best_size = (1u64 << k) as f64;
                    }
                }
                sum_best += best_size;
            }
        }
        sum_best / n
    }

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

    fn directionality(gray: &GrayImage) -> Vec<f64> {
        let (w, h) = gray.dimensions();
        let mut hist = vec![0.0f64; tamura::DIR_BINS];
        if w < 3 || h < 3 {
            return hist;
        }
        let at = |x: u32, y: u32| gray.get(x, y).0 as f64;
        for y in 1..h - 1 {
            for x in 1..w - 1 {
                let dh = (at(x + 1, y - 1) + at(x + 1, y) + at(x + 1, y + 1))
                    - (at(x - 1, y - 1) + at(x - 1, y) + at(x - 1, y + 1));
                let dv = (at(x - 1, y + 1) + at(x, y + 1) + at(x + 1, y + 1))
                    - (at(x - 1, y - 1) + at(x, y - 1) + at(x + 1, y - 1));
                let magnitude = (dh.abs() + dv.abs()) / 2.0;
                if magnitude < DIR_THRESHOLD {
                    continue;
                }
                let mut theta = dv.atan2(dh) + std::f64::consts::FRAC_PI_2;
                if theta < 0.0 {
                    theta += std::f64::consts::PI;
                }
                if theta >= std::f64::consts::PI {
                    theta -= std::f64::consts::PI;
                }
                let bin = ((theta / std::f64::consts::PI) * tamura::DIR_BINS as f64) as usize;
                hist[bin.min(tamura::DIR_BINS - 1)] += 1.0;
            }
        }
        hist
    }

    /// All 18 Tamura values in feature-string order.
    pub fn tamura(img: &RgbImage) -> Vec<f64> {
        let gray = img.to_gray();
        let mut values = vec![coarseness(&gray), contrast(&gray)];
        values.extend(directionality(&gray));
        values
    }

    pub fn correlogram(img: &RgbImage) -> Vec<f64> {
        use correlogram::{DIM, MAX_DISTANCE};
        let (w, h) = img.dimensions();
        let (wi, hi) = (w as i64, h as i64);
        let mut quant = vec![0u8; (w * h) as usize];
        for (x, y, p) in img.enumerate_pixels() {
            let (hh, ss, vv) = rgb_to_hsv(p);
            quant[(y * w + x) as usize] = quantize_hsv(hh, ss, vv);
        }
        let at = |x: i64, y: i64| quant[(y * wi + x) as usize];
        let mut same_counts = vec![0u64; DIM];
        let mut valid_counts = vec![0u64; DIM];
        for y in 0..hi {
            for x in 0..wi {
                let color = at(x, y) as usize;
                for d in 1..=MAX_DISTANCE as i64 {
                    let mut same = 0u64;
                    let mut valid = 0u64;
                    let mut visit = |nx: i64, ny: i64| {
                        if nx >= 0 && ny >= 0 && nx < wi && ny < hi {
                            valid += 1;
                            if at(nx, ny) as usize == color {
                                same += 1;
                            }
                        }
                    };
                    for dx in -d..=d {
                        visit(x + dx, y - d);
                        visit(x + dx, y + d);
                    }
                    for dy in (-d + 1)..d {
                        visit(x - d, y + dy);
                        visit(x + d, y + dy);
                    }
                    let slot = color * MAX_DISTANCE + (d as usize - 1);
                    same_counts[slot] += same;
                    valid_counts[slot] += valid;
                }
            }
        }
        let mut values = vec![0.0f64; DIM];
        for i in 0..DIM {
            if valid_counts[i] > 0 {
                values[i] = same_counts[i] as f64 / valid_counts[i] as f64;
            }
        }
        values
    }

    /// The §4.8 element as an offset list, decoded from its 5×5 mask.
    fn paper_element() -> Vec<(i64, i64)> {
        #[rustfmt::skip]
        let mask = [
            0, 0, 0, 0, 0,
            0, 1, 1, 1, 0,
            0, 1, 1, 1, 0,
            0, 1, 1, 1, 0,
            0, 0, 0, 0, 0u8,
        ];
        mask.iter()
            .enumerate()
            .filter(|(_, &m)| m != 0)
            .map(|(i, _)| ((i % 5) as i64 - 2, (i / 5) as i64 - 2))
            .collect()
    }

    fn is_fg(img: &GrayImage, x: i64, y: i64) -> bool {
        if x < 0 || y < 0 || x >= img.width() as i64 || y >= img.height() as i64 {
            false
        } else {
            img.get(x as u32, y as u32).0 != 0
        }
    }

    fn apply(img: &GrayImage, all: bool) -> GrayImage {
        let se = paper_element();
        let (w, h) = img.dimensions();
        GrayImage::from_fn(w, h, |x, y| {
            let hit = |&(dx, dy): &(i64, i64)| is_fg(img, x as i64 + dx, y as i64 + dy);
            let on = if all {
                se.iter().all(hit)
            } else {
                se.iter().any(hit)
            };
            Gray(if on { 255 } else { 0 })
        })
        .expect("same nonzero dims")
    }

    pub fn dilate(img: &GrayImage) -> GrayImage {
        apply(img, false)
    }

    pub fn erode(img: &GrayImage) -> GrayImage {
        apply(img, true)
    }

    pub fn morphology_chain(img: &GrayImage) -> GrayImage {
        dilate(&erode(&erode(&dilate(img))))
    }

    pub fn regions(img: &RgbImage) -> RegionGrowing {
        let binary = morphology_chain(&binarize_fuzzy(&img.to_gray()));
        RegionGrowing::label(&binary, RegionConfig::default())
    }

    /// The 300×300 canvas: each pixel reads the source pixel under its
    /// centre, `((c + 0.5) · src/300) as u32`, clamped to the raster.
    pub fn canvas(img: &RgbImage) -> RgbImage {
        let side = naive::BASE_SIZE;
        let (w, h) = img.dimensions();
        let (sx, sy) = (w as f64 / side as f64, h as f64 / side as f64);
        RgbImage::from_fn(side, side, |x, y| {
            let src_x = ((x as f64 + 0.5) * sx) as u32;
            let src_y = ((y as f64 + 0.5) * sy) as u32;
            img.get(src_x.min(w - 1), src_y.min(h - 1))
        })
        .expect("fixed nonzero size")
    }

    /// Build the canvas, then average the clamped `±SAMPLE_SIZE` window
    /// around each grid point, row-major.
    pub fn naive(img: &RgbImage) -> Vec<Rgb> {
        let side = naive::BASE_SIZE;
        let canvas = canvas(img);
        let mut colors = Vec::with_capacity(naive::GRID * naive::GRID);
        for gy in 0..naive::GRID {
            for gx in 0..naive::GRID {
                let cx = ((0.1 + 0.2 * gx as f64) * side as f64) as i64;
                let cy = ((0.1 + 0.2 * gy as f64) * side as f64) as i64;
                let mut acc = [0u64; 3];
                let mut n = 0u64;
                for y in (cy - naive::SAMPLE_SIZE)..(cy + naive::SAMPLE_SIZE) {
                    for x in (cx - naive::SAMPLE_SIZE)..(cx + naive::SAMPLE_SIZE) {
                        let p = canvas.get_clamped(x, y);
                        acc[0] += p.r as u64;
                        acc[1] += p.g as u64;
                        acc[2] += p.b as u64;
                        n += 1;
                    }
                }
                colors.push(Rgb::new(
                    (acc[0] / n) as u8,
                    (acc[1] / n) as u8,
                    (acc[2] / n) as u8,
                ));
            }
        }
        colors
    }

    /// §4.1 runs over the oracle signatures: a run grows while the summed
    /// per-point RGB distance to its first frame stays within `threshold`.
    pub fn keyframe_indices(frames: &[RgbImage], threshold: f64) -> Vec<usize> {
        let signatures: Vec<Vec<Rgb>> = frames.iter().map(naive).collect();
        let distance = |a: &[Rgb], b: &[Rgb]| -> f64 {
            a.iter()
                .zip(b)
                .map(|(p, q)| {
                    let dr = p.r as f64 - q.r as f64;
                    let dg = p.g as f64 - q.g as f64;
                    let db = p.b as f64 - q.b as f64;
                    (dr * dr + dg * dg + db * db).sqrt()
                })
                .sum()
        };
        let mut indices = Vec::new();
        let mut start = 0;
        while start < frames.len() {
            indices.push(start);
            let mut end = start + 1;
            while end < frames.len() && distance(&signatures[start], &signatures[end]) <= threshold
            {
                end += 1;
            }
            start = end;
        }
        indices
    }
}

/// Every value must match the oracle bit for bit; report the first miss.
fn assert_bit_identical(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: dimensionality");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: value {i} differs: {g:e} vs oracle {w:e}"
        );
    }
}

fn tamura_values(img: &RgbImage) -> Vec<f64> {
    let t = TamuraTexture::extract(img);
    let mut values = vec![t.coarseness, t.contrast];
    values.extend(&t.directionality);
    assert_eq!(values.len(), tamura::DIM);
    values
}

fn assert_extractors_match(img: &RgbImage, what: &str) {
    assert_bit_identical(
        &tamura_values(img),
        &oracle::tamura(img),
        &format!("{what} tamura"),
    );
    let acc = AutoColorCorrelogram::extract(img);
    assert_eq!(acc.values().len(), correlogram::DIM);
    assert_bit_identical(
        acc.values(),
        &oracle::correlogram(img),
        &format!("{what} correlogram"),
    );
    assert_eq!(
        RegionGrowing::extract(img),
        oracle::regions(img),
        "{what}: regions"
    );
}

/// Rasters with sides 1..=80 (below 9 the whole raster is the
/// correlogram's border band; below 32 every coarseness window is
/// clamped). Channels keep their top `bits` bits, so few-color rasters
/// with long same-color runs and flat patches are drawn as often as noise.
fn arb_rgb() -> impl Strategy<Value = RgbImage> {
    (1u32..=80, 1u32..=80, 1u32..=8).prop_flat_map(|(w, h, bits)| {
        proptest::collection::vec(any::<u8>(), (w * h * 3) as usize).prop_map(move |data| {
            let mask = !(0xffu16 >> bits) as u8;
            RgbImage::from_raw(w, h, data.into_iter().map(|v| v & mask).collect())
                .expect("exact length")
        })
    })
}

/// The signature matches the oracle's, and `geom::resize` builds the
/// oracle's canvas.
fn assert_naive_matches(img: &RgbImage, what: &str) {
    let side = naive::BASE_SIZE;
    assert!(
        geom::resize(img, side, side).expect("fixed nonzero target") == oracle::canvas(img),
        "{what}: geom::resize canvas"
    );
    assert_eq!(
        NaiveSignature::extract(img).colors(),
        &oracle::naive(img)[..],
        "{what}: naive signature"
    );
}

/// Noise rasters from a seed, each side in 1..=640, with the canvas size
/// itself (the identity map) and one-pixel strips forced in.
fn arb_naive_raster() -> impl Strategy<Value = RgbImage> {
    let side = 1u32..=640;
    let dims = prop_oneof![
        4 => (side.clone(), side.clone()),
        1 => Just((naive::BASE_SIZE, naive::BASE_SIZE)),
        1 => (Just(1u32), side.clone()),
        1 => (side, Just(1u32)),
    ];
    (dims, any::<u64>()).prop_map(|((w, h), seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..w * h * 3).map(|_| rng.gen()).collect();
        RgbImage::from_raw(w, h, data).expect("exact length")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn naive_signature_matches_canvas_oracle(img in arb_naive_raster()) {
        let (w, h) = img.dimensions();
        assert_naive_matches(&img, &format!("{w}x{h} raster"));
    }

    #[test]
    fn extractors_match_per_pixel_oracles(img in arb_rgb()) {
        let (w, h) = img.dimensions();
        assert_extractors_match(&img, &format!("{w}x{h} raster"));
    }

    #[test]
    fn morphology_matches_offset_list_oracle(img in arb_rgb()) {
        // Raw gray levels, not just 0/255: any non-zero value is foreground.
        let gray = img.to_gray();
        prop_assert_eq!(morph::dilate(&gray), oracle::dilate(&gray));
        prop_assert_eq!(morph::erode(&gray), oracle::erode(&gray));
        prop_assert_eq!(morph::close(&gray), oracle::erode(&oracle::dilate(&gray)));
        prop_assert_eq!(morph::open(&gray), oracle::dilate(&oracle::erode(&gray)));
        let binary = binarize_fuzzy(&gray);
        prop_assert_eq!(morph::paper_morphology_chain(&binary), oracle::morphology_chain(&binary));
    }
}

#[test]
fn edge_shapes_match_per_pixel_oracles() {
    // Sides around the correlogram's 4-pixel band and the coarseness
    // windows (2..32), pinned so they never depend on the random draw.
    for (w, h) in [
        (1, 1),
        (1, 9),
        (9, 1),
        (3, 3),
        (4, 4),
        (8, 9),
        (9, 8),
        (17, 33),
        (33, 17),
        (64, 48),
    ] {
        let img = RgbImage::from_fn(w, h, |x, y| {
            let v = ((x * 37 + y * 91 + x * y) % 256) as u8;
            cbvr_imgproc::Rgb::new(v, v / 2 + (x % 2) as u8 * 100, 255 - v)
        })
        .expect("nonzero size");
        assert_extractors_match(&img, &format!("{w}x{h} raster"));
    }
}

#[test]
fn generated_frames_match_per_pixel_oracles() {
    let generator = VideoGenerator::new(GeneratorConfig {
        width: 160,
        height: 120,
        ..GeneratorConfig::default()
    })
    .expect("valid config");
    for category in Category::ALL {
        let video = generator.generate(category, 11).expect("generation");
        let last = video.frame_count() - 1;
        for index in [0, last / 2, last] {
            let frame = video.frame(index).expect("frame in range");
            assert_extractors_match(frame, &format!("{category:?} frame {index}"));
        }
    }
}

#[test]
fn naive_edge_shapes_match_canvas_oracle() {
    // Exact divisors and multiples of the canvas side, one pixel either
    // side of it, strips, and the largest side the proptest draws.
    for (w, h) in [
        (1, 1),
        (1, 640),
        (640, 1),
        (7, 500),
        (150, 150),
        (299, 301),
        (300, 300),
        (600, 600),
        (160, 120),
        (640, 480),
    ] {
        let img = RgbImage::from_fn(w, h, |x, y| {
            let v = ((x * 37 + y * 91 + x * y) % 256) as u8;
            Rgb::new(v, v / 2 + (x % 2) as u8 * 100, 255 - v)
        })
        .expect("nonzero size");
        assert_naive_matches(&img, &format!("{w}x{h} raster"));
    }
}

#[test]
fn generated_clips_match_canvas_oracle_frame_for_frame() {
    let generator = VideoGenerator::new(GeneratorConfig {
        width: 160,
        height: 120,
        ..GeneratorConfig::default()
    })
    .expect("valid config");
    let config = KeyframeConfig::default();
    for category in Category::ALL {
        for seed in [11, 12] {
            let video = generator.generate(category, seed).expect("generation");
            for (index, frame) in video.frames().iter().enumerate() {
                assert_naive_matches(frame, &format!("{category:?} seed {seed} frame {index}"));
            }
            let keyframes = extract_keyframes(&video, &config);
            let got: Vec<usize> = keyframes.iter().map(|k| k.index).collect();
            assert_eq!(
                got,
                oracle::keyframe_indices(video.frames(), config.threshold),
                "{category:?} seed {seed}: key-frame indices"
            );
        }
    }
}
