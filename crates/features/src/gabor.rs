//! Gabor wavelet texture (§4.4).
//!
//! The paper computes, per scale `m` and orientation `n`, the mean and the
//! variance-derived spread of the complex Gabor response magnitudes over
//! the gray-level raster, producing `M × N × 2` values. Its Fig. 8 output
//! begins `gabor 60 ...` — sixty values — fixing `M = 5` scales and
//! `N = 6` orientations, which is what we use.
//!
//! Implementation notes (standard spatial-domain filter bank):
//!
//! - frequencies follow a geometric ladder `f_m = F_MAX / √2^m` with
//!   `F_MAX = 0.4` cycles/pixel (the Manjunath–Ma upper band);
//! - orientations are `θ_n = nπ/N`;
//! - each filter is an odd-sided complex kernel with Gaussian envelope
//!   `σ = 0.56 / f` (bandwidth ≈ 1 octave), radius `⌈2σ⌉` capped at 10;
//! - the image is first resized so its longer side is at most
//!   [`GABOR_MAX_SIDE`] (extraction cost is quadratic in side length and
//!   texture statistics are scale-normalised anyway);
//! - per filter we record `mean(|response|)` and `std(|response|)`,
//!   both divided by the pixel count exactly as the pseudocode divides by
//!   `imageSize`, keeping values comparable across image sizes.
//!
//! Feature string (`GABOR VARCHAR2(1500)` column): `gabor 60 v0 ... v59`.
//!
//! # Evaluation order and bit-identity
//!
//! The response at a pixel is a direct spatial convolution with
//! edge-clamped sampling, accumulated tap by tap in `(dy, dx)` row-major
//! order with a separate multiply and add per tap (`acc += k · v`). Those
//! 60 descriptor values are stored in catalogs and compared across
//! builds, so the evaluation is pinned to the last bit by
//! `tests/gabor_equivalence.rs`, which checks `f64::to_bits` equality
//! against a per-pixel reference convolution. The fast path keeps every
//! pixel's sum identical by construction:
//!
//! - the 30-kernel bank is built once, by the same construction, in a
//!   process-wide [`OnceLock`];
//! - the gray raster is copied once per frame into an edge-clamped `f64`
//!   buffer with a `MAX_RADIUS` border (plus `MAX_TILE - 1` columns of
//!   slack on the right), so a tap reads a plain slice element with the
//!   same value `get_clamped` would return;
//! - loops are interchanged so `TILE` adjacent output pixels of a row
//!   share one pass over the taps: each tap's kernel weights are loaded
//!   once and multiplied into `TILE` contiguous source values, with
//!   per-pixel `re`/`im` accumulators kept in registers. Each pixel still
//!   adds the same products in the same order; pixels past the right
//!   edge of the last tile are computed from slack and discarded.
//!
//! Anything that reorders or fuses the per-pixel sum — `mul_add`,
//! folding symmetric taps, separable or FFT filtering, pairwise or
//! parallel reductions of the mean/std — changes the last bits of the
//! descriptors and is ruled out by that contract.
//!
//! # Kernel paths
//!
//! The loop above is one `#[inline(always)]` body, generic over `TILE`,
//! compiled twice: a portable path with 8-pixel tiles (baseline x86-64
//! has SSE2, two `f64` lanes per register), and on x86-64 a
//! `#[target_feature(enable = "avx2")]` path with 16-pixel tiles (four
//! lanes per register). The process picks one on first use, with
//! `is_x86_feature_detected!("avx2")`. Both return the same bits:
//!
//! - each vector lane is one output pixel, so widening the registers
//!   changes how many pixels run at once, never the order of one
//!   pixel's multiplies and adds;
//! - Rust does not contract `a * b + c` into a fused multiply-add unless
//!   `mul_add` is written, and the AVX2 path does not enable `fma`;
//! - `sqrt` is correctly rounded by IEEE 754 in every instruction set,
//!   and the mean/std sums stay sequential scalar loops.
//!
//! So a catalog written on an AVX2 host is byte-compatible with one
//! written without AVX2. There is no AVX-512 path, to keep exactly two
//! instantiations; no `fma`, because it changes the bits; and no global
//! `-C target-cpu`, which would recompile every other crate too and
//! make binaries that fault on CPUs without the feature.

use crate::error::{FeatureError, Result};
use cbvr_imgproc::geom;
use cbvr_imgproc::{GrayImage, RgbImage};
use std::sync::OnceLock;

/// Number of scales (M).
pub const SCALES: usize = 5;
/// Number of orientations (N).
pub const ORIENTATIONS: usize = 6;
/// Feature dimensionality: mean + std per filter.
pub const DIM: usize = SCALES * ORIENTATIONS * 2;
/// Longest image side fed to the filter bank.
pub const GABOR_MAX_SIDE: u32 = 64;

const F_MAX: f64 = 0.4;
/// Radius cap of every kernel in the bank (the padded raster's border).
const MAX_RADIUS: usize = 10;
/// The widest tile any kernel path evaluates (the padded raster's
/// right-hand slack is `MAX_TILE - 1` columns).
const MAX_TILE: usize = 16;

/// One complex Gabor kernel (separately stored real/imaginary taps,
/// row-major over `(dy, dx)`).
struct GaborKernel {
    radius: usize,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl GaborKernel {
    fn new(frequency: f64, theta: f64) -> GaborKernel {
        let sigma = 0.56 / frequency;
        let radius = (2.0 * sigma).ceil().min(MAX_RADIUS as f64) as i64;
        let side = (2 * radius + 1) as usize;
        let mut re = Vec::with_capacity(side * side);
        let mut im = Vec::with_capacity(side * side);
        let (sin_t, cos_t) = theta.sin_cos();
        let two_sigma2 = 2.0 * sigma * sigma;
        let omega = 2.0 * std::f64::consts::PI * frequency;
        for dy in -radius..=radius {
            for dx in -radius..=radius {
                let xr = dx as f64 * cos_t + dy as f64 * sin_t;
                let yr = -(dx as f64) * sin_t + dy as f64 * cos_t;
                let envelope = (-(xr * xr + yr * yr) / two_sigma2).exp();
                let phase = omega * xr;
                re.push(envelope * phase.cos());
                im.push(envelope * phase.sin());
            }
        }
        // Zero the DC component of the real part so flat regions respond 0
        // (standard practice; otherwise brightness leaks into texture).
        let mean = re.iter().sum::<f64>() / re.len() as f64;
        for v in &mut re {
            *v -= mean;
        }
        GaborKernel {
            radius: radius as usize,
            re,
            im,
        }
    }

    /// Mean and std of the response magnitude over the raster, using
    /// `magnitudes` as scratch, `TILE` adjacent output pixels of a row per
    /// pass over the taps. This is the one kernel body; each lane of a
    /// tile is one pixel with its own multiply-then-add sequence, so every
    /// `TILE`, and every register width it compiles to, gives the same
    /// bits.
    #[inline(always)]
    fn response_stats<const TILE: usize>(
        &self,
        raster: &PaddedRaster,
        magnitudes: &mut Vec<f64>,
    ) -> (f64, f64) {
        const { assert!(TILE <= MAX_TILE) };
        let (w, h) = (raster.width, raster.height);
        let n = w * h;
        let side = 2 * self.radius + 1;
        // Padded coordinates of tap (dy = -r, dx = -r) for output (0, 0).
        let origin = MAX_RADIUS - self.radius;
        magnitudes.clear();
        for y in 0..h {
            for x0 in (0..w).step_by(TILE) {
                let mut acc_re = [0.0f64; TILE];
                let mut acc_im = [0.0f64; TILE];
                let rows = self.re.chunks_exact(side).zip(self.im.chunks_exact(side));
                for (ky, (re_row, im_row)) in rows.enumerate() {
                    let start = (y + origin + ky) * raster.stride + x0 + origin;
                    let src_row = &raster.data[start..start + side + TILE - 1];
                    let taps = re_row.iter().zip(im_row).zip(src_row.windows(TILE));
                    for ((&k_re, &k_im), src) in taps {
                        for i in 0..TILE {
                            acc_re[i] += k_re * src[i];
                            acc_im[i] += k_im * src[i];
                        }
                    }
                }
                for i in 0..TILE.min(w - x0) {
                    magnitudes.push((acc_re[i] * acc_re[i] + acc_im[i] * acc_im[i]).sqrt());
                }
            }
        }
        debug_assert_eq!(magnitudes.len(), n);
        let mean = magnitudes.iter().sum::<f64>() / n as f64;
        let var = magnitudes
            .iter()
            .map(|m| (m - mean) * (m - mean))
            .sum::<f64>()
            / n as f64;
        (mean, var.sqrt())
    }
}

/// The AVX2 instantiation: 16-pixel tiles in 256-bit registers. AVX2
/// only; FMA stays off, and Rust never fuses `a * b + c` on its own.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn response_stats_avx2(
    kernel: &GaborKernel,
    raster: &PaddedRaster,
    magnitudes: &mut Vec<f64>,
) -> (f64, f64) {
    kernel.response_stats::<16>(raster, magnitudes)
}

/// Which instantiation of the kernel body runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum KernelPath {
    /// Baseline x86-64 (SSE2) or any other target: 8-pixel tiles.
    Portable,
    /// 16-pixel tiles compiled for AVX2; only valid where it is detected.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

/// The kernel path for this process, detected once on first use.
fn kernel_path() -> KernelPath {
    static PATH: OnceLock<KernelPath> = OnceLock::new();
    *PATH.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            return KernelPath::Avx2;
        }
        KernelPath::Portable
    })
}

/// The 30-filter bank, ordered `(scale, orientation)`; built on first use.
fn bank() -> &'static [GaborKernel] {
    static BANK: OnceLock<Vec<GaborKernel>> = OnceLock::new();
    BANK.get_or_init(|| {
        let mut bank = Vec::with_capacity(SCALES * ORIENTATIONS);
        for m in 0..SCALES {
            let frequency = F_MAX / 2f64.sqrt().powi(m as i32);
            for n in 0..ORIENTATIONS {
                let theta = n as f64 * std::f64::consts::PI / ORIENTATIONS as f64;
                bank.push(GaborKernel::new(frequency, theta));
            }
        }
        bank
    })
}

/// A gray raster as `f64`, edge-clamped out to `MAX_RADIUS` on every
/// side plus `MAX_TILE - 1` extra columns on the right, so every tap of
/// every tile is an in-bounds read of the value `get_clamped` returns.
/// (`GrayImage` is never empty, so the clamps have a pixel to land on.)
struct PaddedRaster {
    width: usize,
    height: usize,
    stride: usize,
    data: Vec<f64>,
}

impl PaddedRaster {
    fn new(gray: &GrayImage) -> PaddedRaster {
        let (width, height) = (gray.width() as usize, gray.height() as usize);
        let stride = width + 2 * MAX_RADIUS + MAX_TILE - 1;
        let rows = height + 2 * MAX_RADIUS;
        let raw = gray.as_raw();
        let mut data = Vec::with_capacity(stride * rows);
        for py in 0..rows {
            let sy = py.saturating_sub(MAX_RADIUS).min(height - 1);
            let src = &raw[sy * width..(sy + 1) * width];
            data.extend(
                (0..stride).map(|px| f64::from(src[px.saturating_sub(MAX_RADIUS).min(width - 1)])),
            );
        }
        PaddedRaster {
            width,
            height,
            stride,
            data,
        }
    }
}

/// The gray raster the bank sees for an RGB frame: converted to gray and
/// downscaled to at most [`GABOR_MAX_SIDE`] per side.
fn bank_input(img: &RgbImage) -> GrayImage {
    let gray = img.to_gray();
    let (w, h) = gray.dimensions();
    let long = w.max(h);
    if long > GABOR_MAX_SIDE {
        let scale = GABOR_MAX_SIDE as f64 / long as f64;
        let nw = ((w as f64 * scale).round() as u32).max(1);
        let nh = ((h as f64 * scale).round() as u32).max(1);
        geom::resize(&gray, nw, nh).expect("nonzero target")
    } else {
        gray
    }
}

/// The §4.4 Gabor texture descriptor: 60 values.
#[derive(Clone, Debug, PartialEq)]
pub struct GaborTexture {
    features: Vec<f64>,
}

impl GaborTexture {
    /// Extract from an RGB frame (converted to gray, downscaled to at most
    /// [`GABOR_MAX_SIDE`] per side).
    pub fn extract(img: &RgbImage) -> GaborTexture {
        Self::extract_gray(&bank_input(img))
    }

    /// Extract from an already-prepared gray image (no rescaling).
    pub fn extract_gray(gray: &GrayImage) -> GaborTexture {
        Self::extract_gray_on(gray, kernel_path())
    }

    /// [`GaborTexture::extract_gray`] on an explicit kernel path.
    fn extract_gray_on(gray: &GrayImage, path: KernelPath) -> GaborTexture {
        let raster = PaddedRaster::new(gray);
        let mut magnitudes = Vec::with_capacity(raster.width * raster.height);
        let mut features = Vec::with_capacity(DIM);
        for kernel in bank() {
            let (mean, std) = match path {
                KernelPath::Portable => kernel.response_stats::<8>(&raster, &mut magnitudes),
                // SAFETY: `KernelPath::Avx2` is only produced where
                // `is_x86_feature_detected!("avx2")` holds.
                #[cfg(target_arch = "x86_64")]
                KernelPath::Avx2 => unsafe {
                    response_stats_avx2(kernel, &raster, &mut magnitudes)
                },
            };
            // The pseudocode divides both stats by imageSize; the stats
            // above are already per-pixel means, so they are directly
            // size-comparable. Scale to keep magnitudes tame.
            features.push(mean / 255.0);
            features.push(std / 255.0);
        }
        GaborTexture { features }
    }

    /// The 60 feature values, ordered `(scale, orientation, mean|std)`.
    pub fn features(&self) -> &[f64] {
        &self.features
    }

    /// Mean response for `(scale m, orientation n)`.
    pub fn mean_at(&self, m: usize, n: usize) -> f64 {
        self.features[(m * ORIENTATIONS + n) * 2]
    }

    /// Response spread for `(scale m, orientation n)`.
    pub fn std_at(&self, m: usize, n: usize) -> f64 {
        self.features[(m * ORIENTATIONS + n) * 2 + 1]
    }

    /// Native distance: Euclidean over the 60-vector.
    pub fn distance(&self, other: &GaborTexture) -> f64 {
        crate::distance::l2(&self.features, &other.features)
    }

    /// Feature string: `gabor 60 v0 ... v59` (Fig. 8 format).
    pub fn to_feature_string(&self) -> String {
        let mut s = format!("gabor {DIM}");
        for v in &self.features {
            s.push(' ');
            s.push_str(&format!("{v}"));
        }
        s
    }

    /// Parse the feature string back.
    pub fn parse(s: &str) -> Result<GaborTexture> {
        let mut t = s.split_whitespace();
        if t.next() != Some("gabor") {
            return Err(FeatureError::Parse("expected 'gabor' header".into()));
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
        let features: std::result::Result<Vec<f64>, _> = t.map(str::parse).collect();
        let features = features.map_err(|e| FeatureError::Parse(format!("bad value: {e}")))?;
        if features.len() != DIM {
            return Err(FeatureError::Parse(format!(
                "expected {DIM} values, got {}",
                features.len()
            )));
        }
        Ok(GaborTexture { features })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbvr_imgproc::{Gray, Rgb};

    fn stripes(period: u32, vertical: bool) -> RgbImage {
        RgbImage::from_fn(32, 32, |x, y| {
            let c = if vertical { x } else { y };
            if (c / period).is_multiple_of(2) {
                Rgb::new(0, 0, 0)
            } else {
                Rgb::new(255, 255, 255)
            }
        })
        .unwrap()
    }

    #[test]
    fn dimensionality_is_sixty() {
        let g = GaborTexture::extract(&stripes(4, true));
        assert_eq!(g.features().len(), DIM);
        assert_eq!(DIM, 60);
    }

    #[test]
    fn flat_image_has_near_zero_response() {
        let g = GaborTexture::extract(&RgbImage::filled(32, 32, Rgb::new(128, 128, 128)).unwrap());
        // DC-free kernels: flat image responds ~0 in every band.
        for &v in g.features() {
            assert!(v.abs() < 1e-6, "flat response {v}");
        }
    }

    #[test]
    fn orientation_selectivity() {
        // Vertical stripes vary along x → strongest response at θ = 0.
        let v = GaborTexture::extract(&stripes(4, true));
        let h = GaborTexture::extract(&stripes(4, false));
        // Sum mean responses at θ=0 (n=0) vs θ=π/2 (n=3) across scales.
        let sum_at = |g: &GaborTexture, n: usize| (0..SCALES).map(|m| g.mean_at(m, n)).sum::<f64>();
        assert!(
            sum_at(&v, 0) > sum_at(&v, 3),
            "vertical stripes: θ=0 {} should beat θ=π/2 {}",
            sum_at(&v, 0),
            sum_at(&v, 3)
        );
        assert!(
            sum_at(&h, 3) > sum_at(&h, 0),
            "horizontal stripes: θ=π/2 {} should beat θ=0 {}",
            sum_at(&h, 3),
            sum_at(&h, 0)
        );
    }

    #[test]
    fn scale_selectivity() {
        // Fine stripes excite high-frequency (low m) bands more than
        // coarse stripes do.
        let fine = GaborTexture::extract(&stripes(2, true));
        let coarse = GaborTexture::extract(&stripes(8, true));
        assert!(
            fine.mean_at(0, 0) > coarse.mean_at(0, 0),
            "fine {} vs coarse {} at highest band",
            fine.mean_at(0, 0),
            coarse.mean_at(0, 0)
        );
    }

    #[test]
    fn distance_properties() {
        let a = GaborTexture::extract(&stripes(4, true));
        let b = GaborTexture::extract(&stripes(4, false));
        assert_eq!(a.distance(&a), 0.0);
        assert!(a.distance(&b) > 0.0);
        assert!((a.distance(&b) - b.distance(&a)).abs() < 1e-12);
    }

    #[test]
    fn big_images_are_downscaled_consistently() {
        // A 200×200 version of the same pattern lands near the 64×64 one.
        let small = GaborTexture::extract(&stripes(4, true));
        let big = RgbImage::from_fn(200, 200, |x, _| {
            if (x * 32 / 200 / 4) % 2 == 0 {
                Rgb::new(0, 0, 0)
            } else {
                Rgb::new(255, 255, 255)
            }
        })
        .unwrap();
        let gb = GaborTexture::extract(&big);
        assert!(small.distance(&gb) < small.features().iter().map(|v| v * v).sum::<f64>().sqrt());
    }

    #[test]
    fn feature_string_round_trip() {
        let g = GaborTexture::extract(&stripes(3, true));
        let s = g.to_feature_string();
        assert!(s.starts_with("gabor 60 "));
        let back = GaborTexture::parse(&s).unwrap();
        for (a, b) in g.features().iter().zip(back.features()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(GaborTexture::parse("glcm 60 1 2").is_err());
        assert!(GaborTexture::parse("gabor 59 1").is_err());
        assert!(GaborTexture::parse("gabor 60 1 2 3").is_err());
        let bad = format!("gabor 60 {}", vec!["x"; 60].join(" "));
        assert!(GaborTexture::parse(&bad).is_err());
    }

    #[test]
    fn extract_gray_skips_rescale() {
        let gray = GrayImage::from_fn(16, 16, |x, _| Gray((x * 16) as u8)).unwrap();
        let g = GaborTexture::extract_gray(&gray);
        assert_eq!(g.features().len(), DIM);
    }

    /// Both kernel paths agree to the last bit: proptest rasters with
    /// sides 1..=80, every width 1..=33 (each 16-pixel tail, plus one
    /// and two full tiles) and generated 160×120 frames of every
    /// category. Runs wherever AVX2 is detected; elsewhere there is only
    /// one path to run.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_and_portable_paths_agree_to_the_bit() {
        use cbvr_video::{Category, GeneratorConfig, VideoGenerator};
        use proptest::prelude::*;
        use proptest::test_runner::rng_for;

        if !is_x86_feature_detected!("avx2") {
            eprintln!("AVX2 not detected: only the portable path exists here");
            return;
        }
        let assert_paths_agree = |gray: &GrayImage, what: &str| {
            let portable = GaborTexture::extract_gray_on(gray, KernelPath::Portable);
            let avx2 = GaborTexture::extract_gray_on(gray, KernelPath::Avx2);
            for (i, (p, a)) in portable.features().iter().zip(avx2.features()).enumerate() {
                assert_eq!(
                    p.to_bits(),
                    a.to_bits(),
                    "{what}: value {i}: portable {p:e} vs AVX2 {a:e}"
                );
            }
        };

        let rasters = (1u32..=80, 1u32..=80).prop_flat_map(|(w, h)| {
            proptest::collection::vec(any::<u8>(), (w * h) as usize)
                .prop_map(move |data| GrayImage::from_raw(w, h, data).expect("exact length"))
        });
        let mut rng = rng_for("gabor::avx2_and_portable_paths_agree_to_the_bit");
        for _ in 0..24 {
            let gray = rasters.new_value(&mut rng);
            let (w, h) = gray.dimensions();
            assert_paths_agree(&gray, &format!("{w}x{h} raster"));
        }

        for w in 1..=33 {
            let gray =
                GrayImage::from_fn(w, 5, |x, y| Gray(((x * 37 + y * 91 + x * y) % 256) as u8))
                    .unwrap();
            assert_paths_agree(&gray, &format!("{w}x5 raster"));
        }

        let generator = VideoGenerator::new(GeneratorConfig {
            width: 160,
            height: 120,
            ..GeneratorConfig::default()
        })
        .unwrap();
        for category in Category::ALL {
            let video = generator.generate(category, 7).unwrap();
            let last = video.frame_count() - 1;
            for index in [0, last / 2, last] {
                let gray = bank_input(video.frame(index).unwrap());
                assert_paths_agree(&gray, &format!("{category:?} frame {index}"));
            }
        }
    }

    /// A host that reports AVX2 runs the AVX2 path, so the fast path
    /// cannot fall out of use without a failing test.
    #[test]
    fn dispatcher_takes_the_avx2_path_where_detected() {
        #[cfg(target_arch = "x86_64")]
        let want = if is_x86_feature_detected!("avx2") {
            KernelPath::Avx2
        } else {
            KernelPath::Portable
        };
        #[cfg(not(target_arch = "x86_64"))]
        let want = KernelPath::Portable;
        assert_eq!(kernel_path(), want);
    }
}
