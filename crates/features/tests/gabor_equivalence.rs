//! Bit-identity pin for the Gabor filter bank.
//!
//! `oracle` is a direct, per-pixel clamped convolution: for every output
//! pixel it walks the kernel taps in `(dy, dx)` order, reading each source
//! value through `get_clamped`. It is the reference the production
//! extractor must match to the last bit (`f64::to_bits`) on every one of
//! the 60 values — same taps, same products, same summation order, same
//! sequential mean/std reductions. It exists only here, as the oracle.

use cbvr_features::gabor::{GaborTexture, DIM, GABOR_MAX_SIDE, ORIENTATIONS, SCALES};
use cbvr_imgproc::geom;
use cbvr_imgproc::{Gray, GrayImage, RgbImage};
use cbvr_video::{Category, GeneratorConfig, VideoGenerator};
use proptest::prelude::*;

mod oracle {
    use super::*;

    const F_MAX: f64 = 0.4;

    struct Kernel {
        radius: i64,
        re: Vec<f64>,
        im: Vec<f64>,
    }

    impl Kernel {
        fn new(frequency: f64, theta: f64) -> Kernel {
            let sigma = 0.56 / frequency;
            let radius = (2.0 * sigma).ceil().min(10.0) as i64;
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
            let mean = re.iter().sum::<f64>() / re.len() as f64;
            for v in &mut re {
                *v -= mean;
            }
            Kernel { radius, re, im }
        }

        fn response_stats(&self, img: &GrayImage) -> (f64, f64) {
            let (w, h) = img.dimensions();
            let n = (w as usize) * (h as usize);
            let mut magnitudes = Vec::with_capacity(n);
            for y in 0..h as i64 {
                for x in 0..w as i64 {
                    let mut acc_re = 0.0;
                    let mut acc_im = 0.0;
                    let mut k = 0usize;
                    for dy in -self.radius..=self.radius {
                        for dx in -self.radius..=self.radius {
                            let v = img.get_clamped(x + dx, y + dy).0 as f64;
                            acc_re += self.re[k] * v;
                            acc_im += self.im[k] * v;
                            k += 1;
                        }
                    }
                    magnitudes.push((acc_re * acc_re + acc_im * acc_im).sqrt());
                }
            }
            let mean = magnitudes.iter().sum::<f64>() / n as f64;
            let var = magnitudes
                .iter()
                .map(|m| (m - mean) * (m - mean))
                .sum::<f64>()
                / n as f64;
            (mean, var.sqrt())
        }
    }

    pub fn extract_gray(gray: &GrayImage) -> Vec<f64> {
        let mut features = Vec::with_capacity(DIM);
        for m in 0..SCALES {
            let frequency = F_MAX / 2f64.sqrt().powi(m as i32);
            for n in 0..ORIENTATIONS {
                let theta = n as f64 * std::f64::consts::PI / ORIENTATIONS as f64;
                let (mean, std) = Kernel::new(frequency, theta).response_stats(gray);
                features.push(mean / 255.0);
                features.push(std / 255.0);
            }
        }
        features
    }

    pub fn extract(img: &RgbImage) -> Vec<f64> {
        let gray = img.to_gray();
        let (w, h) = gray.dimensions();
        let long = w.max(h);
        let gray = if long > GABOR_MAX_SIDE {
            let scale = GABOR_MAX_SIDE as f64 / long as f64;
            let nw = ((w as f64 * scale).round() as u32).max(1);
            let nh = ((h as f64 * scale).round() as u32).max(1);
            geom::resize(&gray, nw, nh).expect("nonzero target")
        } else {
            gray
        };
        extract_gray(&gray)
    }
}

/// Every value must match the oracle bit for bit; report the first miss.
fn assert_bit_identical(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), DIM, "{what}: dimensionality");
    assert_eq!(want.len(), DIM, "{what}: oracle dimensionality");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: value {i} differs: {g:e} vs oracle {w:e}"
        );
    }
}

fn arb_gray() -> impl Strategy<Value = GrayImage> {
    (1u32..=80, 1u32..=80).prop_flat_map(|(w, h)| {
        proptest::collection::vec(any::<u8>(), (w * h) as usize)
            .prop_map(move |data| GrayImage::from_raw(w, h, data).expect("exact length"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn extract_gray_matches_direct_convolution(gray in arb_gray()) {
        let (w, h) = gray.dimensions();
        let got = GaborTexture::extract_gray(&gray);
        assert_bit_identical(got.features(), &oracle::extract_gray(&gray), &format!("{w}x{h} raster"));
    }
}

#[test]
fn edge_shapes_match_direct_convolution() {
    // Widths around the 8- and 16-pixel tiles and sides below the
    // radius-10 kernel, pinned explicitly so they never depend on the
    // random draw.
    for (w, h) in [
        (1, 1),
        (1, 23),
        (23, 1),
        (7, 7),
        (8, 3),
        (9, 21),
        (15, 16),
        (17, 5),
        (31, 4),
        (32, 2),
        (33, 9),
        (64, 48),
    ] {
        let gray = GrayImage::from_fn(w, h, |x, y| Gray(((x * 37 + y * 91 + x * y) % 256) as u8))
            .expect("nonzero size");
        let got = GaborTexture::extract_gray(&gray);
        assert_bit_identical(
            got.features(),
            &oracle::extract_gray(&gray),
            &format!("{w}x{h} raster"),
        );
    }
}

#[test]
fn generated_frames_match_direct_convolution() {
    let generator = VideoGenerator::new(GeneratorConfig {
        width: 160,
        height: 120,
        ..GeneratorConfig::default()
    })
    .expect("valid config");
    for category in Category::ALL {
        let video = generator.generate(category, 7).expect("generation");
        let last = video.frame_count() - 1;
        for index in [0, last / 2, last] {
            let frame = video.frame(index).expect("frame in range");
            let got = GaborTexture::extract(frame);
            assert_bit_identical(
                got.features(),
                &oracle::extract(frame),
                &format!("{category:?} frame {index}"),
            );
        }
    }
}
