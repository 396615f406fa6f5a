//! VJP — a JPEG-style lossy codec.
//!
//! The paper stores key frames as JPEG inside Oracle `ORD_Image`. VJP is
//! the self-contained equivalent: the same transform pipeline as baseline
//! JPEG with a simplified entropy stage, so stored images shrink by an
//! order of magnitude while the retrieval features stay stable.
//!
//! Pipeline per 8×8 block:
//!
//! 1. RGB → YCbCr (BT.601 full range), planes coded independently
//!    (no chroma subsampling: simplicity over the last 2× of ratio);
//! 2. forward 8×8 DCT-II;
//! 3. uniform quantisation with the standard JPEG luminance table for Y
//!    and chrominance table for Cb/Cr, scaled by the quality factor;
//! 4. zigzag scan, then a byte-oriented entropy stage: DC deltas as
//!    zigzag-varints, AC as (zero-run, level) pairs with an end-of-block
//!    marker.
//!
//! Stream layout: `magic "VJP1" | width u32 | height u32 | quality u8 |
//! 3 × plane payload (len u32 + bytes)`.

use crate::error::{ImgError, Result};
use crate::image::RgbImage;
use crate::pixel::Rgb;

const MAGIC: &[u8; 4] = b"VJP1";
const BLOCK: usize = 8;

/// Standard JPEG luminance quantisation table (Annex K), zigzag-free
/// row-major order.
#[rustfmt::skip]
const Q_LUMA: [i32; 64] = [
    16, 11, 10, 16, 24, 40, 51, 61,
    12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77,
    24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99,
];

/// Standard JPEG chrominance quantisation table.
#[rustfmt::skip]
const Q_CHROMA: [i32; 64] = [
    17, 18, 24, 47, 99, 99, 99, 99,
    18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
];

/// Zigzag scan order for an 8×8 block.
#[rustfmt::skip]
const ZIGZAG: [usize; 64] = [
     0,  1,  8, 16,  9,  2,  3, 10,
    17, 24, 32, 25, 18, 11,  4,  5,
    12, 19, 26, 33, 40, 48, 41, 34,
    27, 20, 13,  6,  7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36,
    29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46,
    53, 60, 61, 54, 47, 55, 62, 63,
];

/// JPEG-style quality scaling of a base table. `quality ∈ 1..=100`.
fn scaled_table(base: &[i32; 64], quality: u8) -> [i32; 64] {
    let q = quality.clamp(1, 100) as i32;
    let scale = if q < 50 { 5000 / q } else { 200 - 2 * q };
    let mut out = [0i32; 64];
    for (o, b) in out.iter_mut().zip(base.iter()) {
        *o = ((b * scale + 50) / 100).clamp(1, 255);
    }
    out
}

fn rgb_to_ycbcr(p: Rgb) -> [f32; 3] {
    let (r, g, b) = (p.r as f32, p.g as f32, p.b as f32);
    [
        0.299 * r + 0.587 * g + 0.114 * b,
        128.0 - 0.168_736 * r - 0.331_264 * g + 0.5 * b,
        128.0 + 0.5 * r - 0.418_688 * g - 0.081_312 * b,
    ]
}

fn ycbcr_to_rgb(y: f32, cb: f32, cr: f32) -> Rgb {
    let r = y + 1.402 * (cr - 128.0);
    let g = y - 0.344_136 * (cb - 128.0) - 0.714_136 * (cr - 128.0);
    let b = y + 1.772 * (cb - 128.0);
    Rgb::new(
        r.round().clamp(0.0, 255.0) as u8,
        g.round().clamp(0.0, 255.0) as u8,
        b.round().clamp(0.0, 255.0) as u8,
    )
}

/// Forward 8×8 DCT-II (separable, direct evaluation — clarity over FFT
/// speed; codec throughput is bench-measured, not on the query path).
fn dct8x8(block: &[f32; 64]) -> [f32; 64] {
    let mut out = [0f32; 64];
    for v in 0..BLOCK {
        for u in 0..BLOCK {
            let mut sum = 0f32;
            for y in 0..BLOCK {
                for x in 0..BLOCK {
                    sum += block[y * BLOCK + x]
                        * ((2 * x + 1) as f32 * u as f32 * std::f32::consts::PI / 16.0).cos()
                        * ((2 * y + 1) as f32 * v as f32 * std::f32::consts::PI / 16.0).cos();
                }
            }
            let cu = if u == 0 { std::f32::consts::FRAC_1_SQRT_2 } else { 1.0 };
            let cv = if v == 0 { std::f32::consts::FRAC_1_SQRT_2 } else { 1.0 };
            out[v * BLOCK + u] = 0.25 * cu * cv * sum;
        }
    }
    out
}

/// Inverse 8×8 DCT-II.
fn idct8x8(coeffs: &[f32; 64]) -> [f32; 64] {
    let mut out = [0f32; 64];
    for y in 0..BLOCK {
        for x in 0..BLOCK {
            let mut sum = 0f32;
            for v in 0..BLOCK {
                for u in 0..BLOCK {
                    let cu = if u == 0 { std::f32::consts::FRAC_1_SQRT_2 } else { 1.0 };
                    let cv = if v == 0 { std::f32::consts::FRAC_1_SQRT_2 } else { 1.0 };
                    sum += cu
                        * cv
                        * coeffs[v * BLOCK + u]
                        * ((2 * x + 1) as f32 * u as f32 * std::f32::consts::PI / 16.0).cos()
                        * ((2 * y + 1) as f32 * v as f32 * std::f32::consts::PI / 16.0).cos();
                }
            }
            out[y * BLOCK + x] = 0.25 * sum;
        }
    }
    out
}

/// Zigzag signed→unsigned mapping for varints.
fn zigzag_encode_i32(v: i32) -> u32 {
    ((v << 1) ^ (v >> 31)) as u32
}

fn zigzag_decode_u32(v: u32) -> i32 {
    ((v >> 1) as i32) ^ -((v & 1) as i32)
}

fn put_varint(out: &mut Vec<u8>, mut v: u32) {
    while v >= 0x80 {
        out.push((v & 0x7F) as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn get_varint(data: &[u8], pos: &mut usize) -> Result<u32> {
    let mut v = 0u32;
    let mut shift = 0;
    loop {
        let byte = *data
            .get(*pos)
            .ok_or_else(|| ImgError::Decode("VJP varint truncated".into()))?;
        *pos += 1;
        v |= ((byte & 0x7F) as u32) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 28 {
            return Err(ImgError::Decode("VJP varint overlong".into()));
        }
    }
}

/// Encode one plane: per-block DCT → quantise → zigzag → DC-delta +
/// AC run-length varints.
fn encode_plane(plane: &[f32], w: usize, h: usize, table: &[i32; 64]) -> Vec<u8> {
    let bw = w.div_ceil(BLOCK);
    let bh = h.div_ceil(BLOCK);
    let mut out = Vec::with_capacity(w * h / 4);
    let mut prev_dc = 0i32;
    for by in 0..bh {
        for bx in 0..bw {
            // Gather the block with edge clamping.
            let mut block = [0f32; 64];
            for y in 0..BLOCK {
                for x in 0..BLOCK {
                    let sx = (bx * BLOCK + x).min(w - 1);
                    let sy = (by * BLOCK + y).min(h - 1);
                    block[y * BLOCK + x] = plane[sy * w + sx] - 128.0;
                }
            }
            let coeffs = dct8x8(&block);
            let mut quantised = [0i32; 64];
            for i in 0..64 {
                quantised[i] = (coeffs[i] / table[i] as f32).round() as i32;
            }
            // DC delta.
            let dc = quantised[0];
            put_varint(&mut out, zigzag_encode_i32(dc - prev_dc));
            prev_dc = dc;
            // AC: (run, level) pairs in zigzag order; 0-run marker ends.
            let mut run = 0u32;
            for &zz in &ZIGZAG[1..] {
                let level = quantised[zz];
                if level == 0 {
                    run += 1;
                } else {
                    put_varint(&mut out, run + 1); // runs are 1-based; 0 = EOB
                    put_varint(&mut out, zigzag_encode_i32(level));
                    run = 0;
                }
            }
            put_varint(&mut out, 0); // end of block
        }
    }
    out
}

/// Decode one plane of `pixels = w * h` samples.
fn decode_plane(
    data: &[u8],
    w: usize,
    h: usize,
    pixels: usize,
    table: &[i32; 64],
) -> Result<Vec<f32>> {
    let bw = w.div_ceil(BLOCK);
    let bh = h.div_ceil(BLOCK);
    let mut plane = vec![0f32; pixels];
    let mut pos = 0usize;
    let mut prev_dc = 0i32;
    for by in 0..bh {
        for bx in 0..bw {
            let mut quantised = [0i32; 64];
            let dc_delta = zigzag_decode_u32(get_varint(data, &mut pos)?);
            // Wrapping, like the release build: a forged delta must not
            // panic a checked build either.
            prev_dc = prev_dc.wrapping_add(dc_delta);
            quantised[0] = prev_dc;
            let mut zz_index = 1usize;
            loop {
                let run = get_varint(data, &mut pos)?;
                if run == 0 {
                    break; // end of block
                }
                zz_index += (run - 1) as usize;
                if zz_index >= 64 {
                    return Err(ImgError::Decode("VJP AC run escapes block".into()));
                }
                let level = zigzag_decode_u32(get_varint(data, &mut pos)?);
                quantised[ZIGZAG[zz_index]] = level;
                zz_index += 1;
            }
            let mut coeffs = [0f32; 64];
            for i in 0..64 {
                coeffs[i] = quantised[i].wrapping_mul(table[i]) as f32;
            }
            let block = idct8x8(&coeffs);
            for y in 0..BLOCK {
                for x in 0..BLOCK {
                    let dx = bx * BLOCK + x;
                    let dy = by * BLOCK + y;
                    if dx < w && dy < h {
                        plane[dy * w + dx] = block[y * BLOCK + x] + 128.0;
                    }
                }
            }
        }
    }
    Ok(plane)
}

/// Encode an RGB image at the given quality (1..=100; 75 is a good
/// default).
pub fn encode(img: &RgbImage, quality: u8) -> Vec<u8> {
    let quality = quality.clamp(1, 100);
    let (w, h) = (img.width() as usize, img.height() as usize);

    // Split into YCbCr planes.
    let mut planes = [vec![0f32; w * h], vec![0f32; w * h], vec![0f32; w * h]];
    for (x, y, p) in img.enumerate_pixels() {
        let ycc = rgb_to_ycbcr(p);
        let i = y as usize * w + x as usize;
        planes[0][i] = ycc[0];
        planes[1][i] = ycc[1];
        planes[2][i] = ycc[2];
    }
    let q_luma = scaled_table(&Q_LUMA, quality);
    let q_chroma = scaled_table(&Q_CHROMA, quality);

    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(w as u32).to_le_bytes());
    out.extend_from_slice(&(h as u32).to_le_bytes());
    out.push(quality);
    for (i, plane) in planes.iter().enumerate() {
        let table = if i == 0 { &q_luma } else { &q_chroma };
        let payload = encode_plane(plane, w, h, table);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
    }
    out
}

/// Decode a VJP stream.
pub fn decode(data: &[u8]) -> Result<RgbImage> {
    if data.len() < 17 || &data[..4] != MAGIC {
        return Err(ImgError::Decode("not a VJP stream".into()));
    }
    let w = u32::from_le_bytes(data[4..8].try_into().expect("4 bytes")) as usize;
    let h = u32::from_le_bytes(data[8..12].try_into().expect("4 bytes")) as usize;
    let quality = data[12];
    let Some(pixels) = w.checked_mul(h).filter(|&n| n > 0) else {
        return Err(ImgError::Decode(format!("bad VJP dimensions {w}x{h}")));
    };
    let q_luma = scaled_table(&Q_LUMA, quality);
    let q_chroma = scaled_table(&Q_CHROMA, quality);

    // Every block costs at least two bytes in each plane's payload (its
    // DC varint and its end marker). All three payloads are checked
    // against that before any plane is allocated, so a forged header
    // cannot make a few bytes of input allocate gigabytes.
    let blocks = w.div_ceil(BLOCK) * h.div_ceil(BLOCK);
    let mut pos = 13usize;
    let mut payloads = [&data[..0]; 3];
    for payload in &mut payloads {
        let len_bytes = data
            .get(pos..pos + 4)
            .ok_or_else(|| ImgError::Decode("VJP plane header truncated".into()))?;
        let len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
        pos += 4;
        *payload = data
            .get(pos..pos + len)
            .ok_or_else(|| ImgError::Decode("VJP plane payload truncated".into()))?;
        pos += len;
        if len / 2 < blocks {
            return Err(ImgError::Decode(format!(
                "VJP plane payload of {len} bytes is too short for {blocks} blocks"
            )));
        }
    }
    let mut planes = Vec::with_capacity(3);
    for (i, payload) in payloads.into_iter().enumerate() {
        let table = if i == 0 { &q_luma } else { &q_chroma };
        planes.push(decode_plane(payload, w, h, pixels, table)?);
    }

    let mut img = RgbImage::new(w as u32, h as u32)
        .map_err(|e| ImgError::Decode(format!("bad VJP dimensions: {e}")))?;
    for y in 0..h {
        for x in 0..w {
            let i = y * w + x;
            img.put(x as u32, y as u32, ycbcr_to_rgb(planes[0][i], planes[1][i], planes[2][i]));
        }
    }
    Ok(img)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn psnr(a: &RgbImage, b: &RgbImage) -> f64 {
        let mse: f64 = a
            .as_raw()
            .iter()
            .zip(b.as_raw())
            .map(|(&x, &y)| {
                let d = x as f64 - y as f64;
                d * d
            })
            .sum::<f64>()
            / a.as_raw().len() as f64;
        if mse == 0.0 {
            f64::INFINITY
        } else {
            10.0 * (255.0 * 255.0 / mse).log10()
        }
    }

    fn photo_like(w: u32, h: u32) -> RgbImage {
        RgbImage::from_fn(w, h, |x, y| {
            let r = (128.0 + 90.0 * ((x as f32) * 0.11).sin()) as u8;
            let g = (128.0 + 70.0 * ((y as f32) * 0.09).cos()) as u8;
            let b = (128.0 + 50.0 * ((x + y) as f32 * 0.07).sin()) as u8;
            Rgb::new(r, g, b)
        })
        .unwrap()
    }

    #[test]
    fn round_trip_quality_is_reasonable() {
        let img = photo_like(64, 48);
        let bytes = encode(&img, 75);
        let back = decode(&bytes).unwrap();
        assert_eq!(back.dimensions(), img.dimensions());
        let q = psnr(&img, &back);
        assert!(q > 30.0, "q75 PSNR {q}");
    }

    #[test]
    fn higher_quality_means_higher_psnr_and_larger_stream() {
        let img = photo_like(64, 64);
        let lo = encode(&img, 20);
        let hi = encode(&img, 90);
        assert!(hi.len() > lo.len(), "hi {} vs lo {}", hi.len(), lo.len());
        let p_lo = psnr(&img, &decode(&lo).unwrap());
        let p_hi = psnr(&img, &decode(&hi).unwrap());
        assert!(p_hi > p_lo, "PSNR hi {p_hi} vs lo {p_lo}");
    }

    #[test]
    fn compresses_smooth_content_hard() {
        let img = photo_like(64, 64);
        let bytes = encode(&img, 75);
        let raw = 64 * 64 * 3;
        assert!(bytes.len() * 4 < raw, "VJP {} vs raw {raw}", bytes.len());
    }

    #[test]
    fn flat_image_survives_nearly_exactly() {
        let img = RgbImage::filled(32, 32, Rgb::new(100, 150, 200)).unwrap();
        let back = decode(&encode(&img, 75)).unwrap();
        let q = psnr(&img, &back);
        assert!(q > 40.0, "flat PSNR {q}");
    }

    #[test]
    fn non_multiple_of_eight_dimensions() {
        for (w, h) in [(7u32, 5u32), (9, 17), (1, 1), (8, 9)] {
            let img = photo_like(w, h);
            let back = decode(&encode(&img, 80)).unwrap();
            assert_eq!(back.dimensions(), (w, h), "{w}x{h}");
            assert!(psnr(&img, &back) > 20.0, "{w}x{h}");
        }
    }

    #[test]
    fn rejects_corruption() {
        let img = photo_like(24, 24);
        let bytes = encode(&img, 75);
        assert!(decode(&bytes[..10]).is_err());
        assert!(decode(b"JUNKJUNKJUNKJUNKJUNK").is_err());
        let mut truncated = bytes.clone();
        truncated.truncate(bytes.len() - 5);
        assert!(decode(&truncated).is_err());
    }

    /// A header with forged dimensions and three empty planes: 25 bytes.
    fn forged_header(w: u32, h: u32) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&w.to_le_bytes());
        bytes.extend_from_slice(&h.to_le_bytes());
        bytes.push(75);
        bytes.extend_from_slice(&[0; 12]);
        bytes
    }

    #[test]
    fn forged_dimensions_are_rejected_before_allocating() {
        for (w, h) in [(1 << 20, 1 << 20), (u32::MAX, u32::MAX), (8, 8)] {
            let bytes = forged_header(w, h);
            assert_eq!(bytes.len(), 25);
            assert!(decode(&bytes).is_err(), "{w}x{h}");
        }
        // Two blocks need at least four bytes per plane; each has three.
        let mut short = forged_header(16, 8);
        short.truncate(13);
        for _ in 0..3 {
            short.extend_from_slice(&3u32.to_le_bytes());
            short.extend_from_slice(&[0, 0, 0]);
        }
        let err = decode(&short).unwrap_err().to_string();
        assert!(err.contains("too short for 2 blocks"), "{err}");
    }

    #[test]
    fn forged_coefficients_wrap_instead_of_panicking() {
        // Two 8x8 blocks per plane at quality 1, each with a DC delta of
        // i32::MIN and an AC level of i32::MAX: the running DC and the
        // dequantised level both overflow i32.
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&16u32.to_le_bytes());
        bytes.extend_from_slice(&8u32.to_le_bytes());
        bytes.push(1);
        let mut plane = Vec::new();
        for _ in 0..2 {
            put_varint(&mut plane, zigzag_encode_i32(i32::MIN));
            put_varint(&mut plane, 1);
            put_varint(&mut plane, zigzag_encode_i32(i32::MAX));
            put_varint(&mut plane, 0);
        }
        for _ in 0..3 {
            bytes.extend_from_slice(&(plane.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&plane);
        }
        assert_eq!(decode(&bytes).unwrap().dimensions(), (16, 8));
    }

    #[test]
    fn dct_idct_round_trip() {
        let mut block = [0f32; 64];
        for (i, b) in block.iter_mut().enumerate() {
            *b = ((i * 37) % 256) as f32 - 128.0;
        }
        let back = idct8x8(&dct8x8(&block));
        for (a, b) in block.iter().zip(&back) {
            assert!((a - b).abs() < 0.01, "{a} vs {b}");
        }
    }

    #[test]
    fn varint_round_trip() {
        let mut buf = Vec::new();
        for v in [0u32, 1, 127, 128, 300, 1 << 20, u32::MAX >> 4] {
            buf.clear();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn zigzag_i32_round_trip() {
        for v in [-1000, -1, 0, 1, 12345, i32::MIN / 4, i32::MAX / 4] {
            assert_eq!(zigzag_decode_u32(zigzag_encode_i32(v)), v);
        }
    }

    #[test]
    fn quality_table_scaling() {
        let q50 = scaled_table(&Q_LUMA, 50);
        assert_eq!(q50, Q_LUMA.map(|v| v.clamp(1, 255)));
        let q100 = scaled_table(&Q_LUMA, 100);
        assert!(q100.iter().all(|&v| v == 1), "quality 100 quantises by 1");
        let q1 = scaled_table(&Q_LUMA, 1);
        assert!(q1.iter().all(|&v| v >= Q_LUMA[0].min(255)), "quality 1 is coarse");
    }

    #[test]
    fn ycbcr_round_trip_is_close() {
        for p in [Rgb::new(0, 0, 0), Rgb::new(255, 255, 255), Rgb::new(200, 30, 90)] {
            let [y, cb, cr] = rgb_to_ycbcr(p);
            let q = ycbcr_to_rgb(y, cb, cr);
            assert!((p.r as i32 - q.r as i32).abs() <= 1, "{p:?} -> {q:?}");
            assert!((p.g as i32 - q.g as i32).abs() <= 1);
            assert!((p.b as i32 - q.b as i32).abs() <= 1);
        }
    }
}
