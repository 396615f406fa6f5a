//! Frame payload codecs for the VSC container.
//!
//! Three lossless codecs, trading compression for speed:
//!
//! - [`FrameCodec::Raw`] — the packed RGB buffer verbatim;
//! - [`FrameCodec::Rle`] — byte-level run-length encoding, effective on
//!   the synthetic generator's flat regions (cartoon, slides);
//! - [`FrameCodec::Delta`] — wrapping byte difference against the previous
//!   frame, then RLE; effective on temporally stable shots, which is where
//!   almost all frames of real footage live.
//!
//! Every codec round-trips exactly: the key-frame extractor and feature
//! stack see bit-identical pixels regardless of the codec chosen.

use crate::error::{Result, VideoError};
use cbvr_imgproc::RgbImage;

/// Frame payload encoding used inside a VSC stream.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum FrameCodec {
    /// Packed RGB bytes, no compression.
    Raw,
    /// Byte-level run-length encoding.
    #[default]
    Rle,
    /// Temporal delta against the previous frame, RLE-compressed.
    /// The first frame of a stream is always intra-coded (plain RLE).
    Delta,
}

impl FrameCodec {
    /// Stable wire id.
    pub fn wire_id(self) -> u8 {
        match self {
            FrameCodec::Raw => 0,
            FrameCodec::Rle => 1,
            FrameCodec::Delta => 2,
        }
    }

    /// Inverse of [`FrameCodec::wire_id`].
    pub fn from_wire_id(id: u8) -> Result<FrameCodec> {
        match id {
            0 => Ok(FrameCodec::Raw),
            1 => Ok(FrameCodec::Rle),
            2 => Ok(FrameCodec::Delta),
            other => Err(VideoError::FrameCodec(format!("unknown codec id {other}"))),
        }
    }
}

/// Run-length encode a byte slice as `(count, value)` pairs with
/// `count ∈ 1..=255`.
pub fn rle_encode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::<u8>::with_capacity(data.len() / 4 + 16);
    let mut i = 0;
    while i < data.len() {
        let value = data[i];
        let mut run = 1usize;
        while run < 255 && i + run < data.len() && data[i + run] == value {
            run += 1;
        }
        out.push(run as u8);
        out.push(value);
        i += run;
    }
    out
}

/// Decode an RLE stream produced by [`rle_encode`]; `expected_len` guards
/// against corrupt payloads.
pub fn rle_decode(data: &[u8], expected_len: usize) -> Result<Vec<u8>> {
    if !data.len().is_multiple_of(2) {
        return Err(VideoError::FrameCodec("RLE stream has odd length".into()));
    }
    let mut out = Vec::with_capacity(expected_len);
    for pair in data.chunks_exact(2) {
        let run = pair[0] as usize;
        if run == 0 {
            return Err(VideoError::FrameCodec("RLE run of zero".into()));
        }
        if out.len() + run > expected_len {
            return Err(VideoError::FrameCodec(format!(
                "RLE overflow: decoded > expected {expected_len}"
            )));
        }
        out.resize(out.len() + run, pair[1]);
    }
    if out.len() != expected_len {
        return Err(VideoError::FrameCodec(format!(
            "RLE underflow: decoded {} of expected {expected_len}",
            out.len()
        )));
    }
    Ok(out)
}

/// Encode a frame. `prev` must be `Some` for every frame after the first
/// when using [`FrameCodec::Delta`] (and is ignored otherwise).
pub fn encode_frame(codec: FrameCodec, frame: &RgbImage, prev: Option<&RgbImage>) -> Vec<u8> {
    match codec {
        FrameCodec::Raw => frame.as_raw().to_vec(),
        FrameCodec::Rle => rle_encode(frame.as_raw()),
        FrameCodec::Delta => match prev {
            None => rle_encode(frame.as_raw()),
            Some(p) => {
                let residual: Vec<u8> = frame
                    .as_raw()
                    .iter()
                    .zip(p.as_raw())
                    .map(|(&cur, &old)| cur.wrapping_sub(old))
                    .collect();
                rle_encode(&residual)
            }
        },
    }
}

/// Decode a frame payload produced by [`encode_frame`] with the same codec
/// and the same `prev` frame.
pub fn decode_frame(
    codec: FrameCodec,
    payload: &[u8],
    width: u32,
    height: u32,
    prev: Option<&RgbImage>,
) -> Result<RgbImage> {
    let expected = width as usize * height as usize * 3;
    let raw = match codec {
        FrameCodec::Raw => {
            if payload.len() != expected {
                return Err(VideoError::FrameCodec(format!(
                    "raw frame has {} bytes, expected {expected}",
                    payload.len()
                )));
            }
            payload.to_vec()
        }
        FrameCodec::Rle => rle_decode(payload, expected)?,
        FrameCodec::Delta => {
            let decoded = rle_decode(payload, expected)?;
            match prev {
                None => decoded,
                Some(p) => decoded
                    .iter()
                    .zip(p.as_raw())
                    .map(|(&res, &old)| old.wrapping_add(res))
                    .collect(),
            }
        }
    };
    RgbImage::from_raw(width, height, raw).map_err(|e| VideoError::FrameCodec(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbvr_imgproc::Rgb;

    fn gradient_frame(w: u32, h: u32, shift: u8) -> RgbImage {
        RgbImage::from_fn(w, h, |x, y| {
            Rgb::new((x as u8).wrapping_add(shift), (y as u8).wrapping_mul(3), shift)
        })
        .unwrap()
    }

    #[test]
    fn rle_round_trip_runs_and_noise() {
        for data in [
            vec![],
            vec![5u8; 1000],
            (0..=255u8).collect::<Vec<_>>(),
            vec![1, 1, 2, 2, 2, 3],
        ] {
            let enc = rle_encode(&data);
            assert_eq!(rle_decode(&enc, data.len()).unwrap(), data);
        }
    }

    #[test]
    fn rle_long_run_splits_at_255() {
        let data = vec![9u8; 600];
        let enc = rle_encode(&data);
        assert_eq!(enc.len(), 6); // 255+255+90 → three pairs
        assert_eq!(rle_decode(&enc, 600).unwrap(), data);
    }

    #[test]
    fn rle_rejects_corruption() {
        assert!(rle_decode(&[1], 1).is_err()); // odd length
        assert!(rle_decode(&[0, 5], 0).is_err()); // zero run
        assert!(rle_decode(&[2, 5], 1).is_err()); // overflow
        assert!(rle_decode(&[1, 5], 2).is_err()); // underflow
    }

    #[test]
    fn every_codec_round_trips_first_frame() {
        let f = gradient_frame(17, 9, 0);
        for codec in [FrameCodec::Raw, FrameCodec::Rle, FrameCodec::Delta] {
            let enc = encode_frame(codec, &f, None);
            let dec = decode_frame(codec, &enc, 17, 9, None).unwrap();
            assert_eq!(dec, f, "{codec:?}");
        }
    }

    #[test]
    fn delta_round_trips_sequence() {
        let frames: Vec<RgbImage> = (0..5).map(|i| gradient_frame(12, 10, i * 40)).collect();
        let mut prev: Option<&RgbImage> = None;
        let mut decoded_prev: Option<RgbImage> = None;
        for f in &frames {
            let enc = encode_frame(FrameCodec::Delta, f, prev);
            let dec = decode_frame(FrameCodec::Delta, &enc, 12, 10, decoded_prev.as_ref()).unwrap();
            assert_eq!(&dec, f);
            prev = Some(f);
            decoded_prev = Some(dec);
        }
    }

    #[test]
    fn delta_compresses_static_scene() {
        let f = gradient_frame(64, 64, 7);
        let intra = encode_frame(FrameCodec::Delta, &f, None);
        let inter = encode_frame(FrameCodec::Delta, &f, Some(&f));
        assert!(
            inter.len() < intra.len() / 4,
            "static delta frame should be tiny: intra={} inter={}",
            intra.len(),
            inter.len()
        );
    }

    #[test]
    fn raw_length_check() {
        let f = gradient_frame(4, 4, 0);
        let enc = encode_frame(FrameCodec::Raw, &f, None);
        assert!(decode_frame(FrameCodec::Raw, &enc[..enc.len() - 1], 4, 4, None).is_err());
    }

    #[test]
    fn wire_ids_round_trip() {
        for codec in [FrameCodec::Raw, FrameCodec::Rle, FrameCodec::Delta] {
            assert_eq!(FrameCodec::from_wire_id(codec.wire_id()).unwrap(), codec);
        }
        assert!(FrameCodec::from_wire_id(99).is_err());
        // Id 3 was the retired motion-compensated codec; no writer
        // produces it, so it is unknown like any other id.
        assert!(FrameCodec::from_wire_id(3).is_err());
        let video = crate::Video::new(25, vec![gradient_frame(8, 6, 0); 2]).unwrap();
        let mut bytes = crate::encode_vsc(&video, FrameCodec::Delta);
        bytes[20] = 3; // the header's codec wire id
        assert!(crate::decode_vsc(&bytes).is_err());
    }
}
