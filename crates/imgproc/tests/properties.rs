//! Property-based tests for the image substrate.

use cbvr_imgproc::codec::{bmp, pgm, ppm};
use cbvr_imgproc::geom;
use cbvr_imgproc::hist::Histogram256;
use cbvr_imgproc::morph;
use cbvr_imgproc::threshold;
use cbvr_imgproc::{rgb_to_hsv, GrayImage, Gray, Rgb, RgbImage};
use proptest::prelude::*;

fn arb_rgb_image(max_side: u32) -> impl Strategy<Value = RgbImage> {
    (1..=max_side, 1..=max_side)
        .prop_flat_map(|(w, h)| {
            let len = (w * h * 3) as usize;
            (Just(w), Just(h), proptest::collection::vec(any::<u8>(), len))
        })
        .prop_map(|(w, h, data)| RgbImage::from_raw(w, h, data).expect("exact length"))
}

fn arb_gray_image(max_side: u32) -> impl Strategy<Value = GrayImage> {
    (1..=max_side, 1..=max_side)
        .prop_flat_map(|(w, h)| {
            let len = (w * h) as usize;
            (Just(w), Just(h), proptest::collection::vec(any::<u8>(), len))
        })
        .prop_map(|(w, h, data)| GrayImage::from_raw(w, h, data).expect("exact length"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ppm_round_trip(img in arb_rgb_image(24)) {
        let encoded = ppm::encode(&img);
        let decoded = ppm::decode(&encoded).unwrap();
        prop_assert_eq!(decoded, img);
    }

    #[test]
    fn bmp_round_trip(img in arb_rgb_image(24)) {
        let encoded = bmp::encode(&img);
        let decoded = bmp::decode(&encoded).unwrap();
        prop_assert_eq!(decoded, img);
    }

    #[test]
    fn pgm_round_trip(img in arb_gray_image(24)) {
        let encoded = pgm::encode(&img);
        let decoded = pgm::decode(&encoded).unwrap();
        prop_assert_eq!(decoded, img);
    }

    #[test]
    fn histogram_mass_equals_pixel_count(img in arb_gray_image(24)) {
        let h = Histogram256::of_gray(&img);
        prop_assert_eq!(h.total(), img.pixel_count() as u64);
        prop_assert_eq!(h.mass(0, 255), h.total());
    }

    #[test]
    fn histogram_halves_partition(img in arb_gray_image(24)) {
        let h = Histogram256::of_gray(&img);
        prop_assert_eq!(h.mass(0, 127) + h.mass(128, 255), h.total());
    }

    #[test]
    fn resize_never_panics_and_has_target_dims(
        img in arb_rgb_image(16),
        w in 1u32..40,
        h in 1u32..40,
    ) {
        let out = geom::resize(&img, w, h).unwrap();
        prop_assert_eq!(out.dimensions(), (w, h));
    }

    #[test]
    fn dilation_is_extensive_erosion_antiextensive(img in arb_gray_image(12)) {
        // Binarise first so morphology sees a clean mask.
        let bin = threshold::binarize(&img, 127);
        let dilated = morph::dilate(&bin);
        let eroded = morph::erode(&bin);
        for ((_, _, orig), ((_, _, dil), (_, _, ero))) in bin
            .enumerate_pixels()
            .zip(dilated.enumerate_pixels().zip(eroded.enumerate_pixels()))
        {
            // fg ⊆ dilate(fg), erode(fg) ⊆ fg
            if orig.0 != 0 {
                prop_assert_eq!(dil.0, 255);
            }
            if ero.0 != 0 {
                prop_assert_eq!(orig.0, 255);
            }
        }
    }

    #[test]
    fn closing_is_idempotent(img in arb_gray_image(10)) {
        let bin = threshold::binarize(&img, 127);
        let once = morph::close(&bin);
        let twice = morph::close(&once);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn hsv_hue_in_range(r in any::<u8>(), g in any::<u8>(), b in any::<u8>()) {
        let (h, s, v) = rgb_to_hsv(Rgb::new(r, g, b));
        prop_assert!(h < 360);
        let _ = (s, v); // s, v are u8 — always in range
    }

    #[test]
    fn luma_is_bounded_by_channel_extremes(r in any::<u8>(), g in any::<u8>(), b in any::<u8>()) {
        let l = cbvr_imgproc::luma_u8(r, g, b);
        let lo = r.min(g).min(b);
        let hi = r.max(g).max(b);
        prop_assert!(l >= lo && l <= hi, "luma {l} outside [{lo},{hi}]");
    }

    #[test]
    fn mean_abs_diff_is_metric_like(a in arb_gray_image(10)) {
        prop_assert_eq!(a.mean_abs_diff(&a).unwrap(), 0.0);
    }

    #[test]
    fn fuzzy_threshold_within_observed_range(img in arb_gray_image(16)) {
        let h = Histogram256::of_gray(&img);
        let lo = img.pixels().map(|p| p.0).min().unwrap();
        let hi = img.pixels().map(|p| p.0).max().unwrap();
        let t = threshold::min_fuzziness_threshold(&h);
        prop_assert!(t >= lo && t <= hi);
    }

    #[test]
    fn crop_contains_source_pixels(img in arb_gray_image(12), sx in 0u32..6, sy in 0u32..6) {
        let (w, h) = img.dimensions();
        if sx < w && sy < h {
            let cw = w - sx;
            let ch = h - sy;
            let c = geom::crop(&img, sx, sy, cw, ch).unwrap();
            prop_assert_eq!(c.get(0, 0), img.get(sx, sy));
            prop_assert_eq!(c.get(cw - 1, ch - 1), img.get(w - 1, h - 1));
        }
    }

    #[test]
    fn binarize_output_is_binary(img in arb_gray_image(12), t in any::<u8>()) {
        let b = threshold::binarize(&img, t);
        prop_assert!(b.pixels().all(|p| p == Gray(0) || p == Gray(255)));
    }
}
