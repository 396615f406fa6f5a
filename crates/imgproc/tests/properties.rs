//! Property-based tests for the image substrate.

use cbvr_imgproc::codec::{bmp, decode_auto, pgm, ppm};
use cbvr_imgproc::geom;
use cbvr_imgproc::hist::Histogram256;
use cbvr_imgproc::morph;
use cbvr_imgproc::threshold;
use cbvr_imgproc::{rgb_to_hsv, GrayImage, Gray, Rgb, RgbImage};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, noting the largest request each thread makes
/// so a test can bound what one decode call allocates.
struct LargestRequest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every call forwards to `System` unchanged; `note` only touches
// a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: LargestRequest = LargestRequest;

/// Decode `bytes` and return the largest single allocation it made.
/// Panics propagate, so a panicking decoder fails the property.
fn largest_allocation_of_decode(bytes: &[u8]) -> usize {
    LARGEST.with(|largest| largest.set(0));
    let _ = decode_auto(bytes);
    LARGEST.with(Cell::get)
}

/// What a decode may allocate at most for an input of `len` bytes. The
/// densest valid stream is VJP: a block costs at least 2 payload bytes
/// in each of its 3 planes and decodes to 64 pixels, one 256-byte `f32`
/// slice per plane, so no buffer exceeds ~43 bytes per input byte. The
/// constant covers error messages.
fn allocation_bound(len: usize) -> usize {
    64 * len + 256
}

#[test]
fn vjp_checks_every_plane_before_allocating_one() {
    // 80x80 is 100 blocks: a well-formed first plane (a zero DC delta
    // and an end marker per block), then nothing.
    let mut bytes = b"VJP1".to_vec();
    bytes.extend_from_slice(&80u32.to_le_bytes());
    bytes.extend_from_slice(&80u32.to_le_bytes());
    bytes.push(75);
    bytes.extend_from_slice(&200u32.to_le_bytes());
    bytes.extend_from_slice(&[0; 200]);
    assert!(decode_auto(&bytes).is_err());
    let largest = largest_allocation_of_decode(&bytes);
    assert!(largest <= allocation_bound(bytes.len()), "{} bytes allocated {largest}", bytes.len());
}

/// A `u32` header field: usually small enough to get past the header,
/// sometimes anything at all.
fn header_u32() -> impl Strategy<Value = u32> {
    prop_oneof![0..80u32, any::<u32>()]
}

/// A header-shaped prefix for each format (magic, then fields drawn
/// from the whole `u32` range), followed by arbitrary bytes.
fn arb_forged_stream() -> impl Strategy<Value = Vec<u8>> {
    let tail = || proptest::collection::vec(any::<u8>(), 0..=40);
    let magic = prop_oneof![Just(b"P6"), Just(b"P5")];
    let pnm = (magic, header_u32(), header_u32(), header_u32(), tail())
        .prop_map(|(magic, w, h, maxval, tail)| {
            let mut bytes = magic.to_vec();
            bytes.extend_from_slice(format!(" {w} {h} {maxval}\n").as_bytes());
            bytes.extend(tail);
            bytes
        });
    let bmp = (
        header_u32(),
        prop_oneof![Just(40u32), any::<u32>()],
        (header_u32(), header_u32()),
        prop_oneof![Just(24u16), any::<u16>()],
        prop_oneof![Just(0u32), any::<u32>()],
        tail(),
    )
        .prop_map(|(offset, header_size, (w, h), bpp, compression, tail)| {
            let mut bytes = b"BM".to_vec();
            bytes.extend_from_slice(&0u32.to_le_bytes()); // file size
            bytes.extend_from_slice(&0u32.to_le_bytes()); // reserved
            bytes.extend_from_slice(&offset.to_le_bytes());
            bytes.extend_from_slice(&header_size.to_le_bytes());
            bytes.extend_from_slice(&w.to_le_bytes());
            bytes.extend_from_slice(&h.to_le_bytes());
            bytes.extend_from_slice(&1u16.to_le_bytes()); // planes
            bytes.extend_from_slice(&bpp.to_le_bytes());
            bytes.extend_from_slice(&compression.to_le_bytes());
            bytes.extend_from_slice(&[0; 20]); // image size, resolution, palette
            bytes.extend(tail);
            bytes
        });
    let planes = (header_u32(), header_u32(), header_u32());
    let vjp = (header_u32(), header_u32(), any::<u8>(), planes, tail())
        .prop_map(|(w, h, quality, (y, cb, cr), tail)| {
            let mut bytes = b"VJP1".to_vec();
            bytes.extend_from_slice(&w.to_le_bytes());
            bytes.extend_from_slice(&h.to_le_bytes());
            bytes.push(quality);
            // Plane lengths, then the payload bytes they may or may not
            // cover.
            for len in [y, cb, cr] {
                bytes.extend_from_slice(&len.to_le_bytes());
            }
            bytes.extend(tail);
            bytes
        });
    let raw = (
        prop_oneof![Just(&b"P6"[..]), Just(&b"P5"[..]), Just(&b"BM"[..]), Just(&b"VJP1"[..])],
        proptest::collection::vec(any::<u8>(), 0..=64),
    )
        .prop_map(|(magic, rest)| [magic, &rest[..]].concat());
    prop_oneof![pnm, bmp, vjp, raw]
}

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

proptest! {
    // Each case decodes at most ~100 bytes: cheap enough for many cases.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn decoders_never_panic_or_overallocate(bytes in arb_forged_stream()) {
        let largest = largest_allocation_of_decode(&bytes);
        prop_assert!(
            largest <= allocation_bound(bytes.len()),
            "{} input bytes allocated {largest} bytes at once",
            bytes.len()
        );
    }
}
