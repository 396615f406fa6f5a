//! Property tests for the VSC container and frame codecs.

use cbvr_imgproc::RgbImage;
use cbvr_video::codec::{decode_frame, encode_frame, rle_decode, rle_encode, FrameCodec};
use cbvr_video::{decode_vsc, encode_vsc, Video};
use proptest::prelude::*;

fn arb_frame(w: u32, h: u32) -> impl Strategy<Value = RgbImage> {
    proptest::collection::vec(any::<u8>(), (w * h * 3) as usize)
        .prop_map(move |data| RgbImage::from_raw(w, h, data).expect("exact length"))
}

fn arb_video() -> impl Strategy<Value = Video> {
    (2u32..24, 2u32..24, 1usize..6).prop_flat_map(|(w, h, n)| {
        proptest::collection::vec(arb_frame(w, h), n)
            .prop_map(|frames| Video::new(25, frames).expect("valid"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn rle_round_trips_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let enc = rle_encode(&data);
        prop_assert_eq!(rle_decode(&enc, data.len()).unwrap(), data);
    }

    #[test]
    fn vsc_round_trips_arbitrary_videos(video in arb_video()) {
        for codec in [FrameCodec::Raw, FrameCodec::Rle, FrameCodec::Delta] {
            let bytes = encode_vsc(&video, codec);
            prop_assert_eq!(decode_vsc(&bytes).unwrap(), video.clone());
        }
    }

    #[test]
    fn frame_codecs_round_trip_pairs(a in arb_frame(20, 14), b in arb_frame(20, 14)) {
        for codec in [FrameCodec::Raw, FrameCodec::Rle, FrameCodec::Delta] {
            let enc = encode_frame(codec, &b, Some(&a));
            let dec = decode_frame(codec, &enc, 20, 14, Some(&a)).unwrap();
            prop_assert_eq!(&dec, &b);
        }
    }

    #[test]
    fn truncated_streams_never_panic(video in arb_video(), cut in 0usize..200) {
        let bytes = encode_vsc(&video, FrameCodec::Delta);
        let cut = cut.min(bytes.len());
        // Must return Ok (full stream) or Err — never panic.
        let _ = decode_vsc(&bytes[..bytes.len() - cut]);
    }

    #[test]
    fn corrupted_byte_never_panics(video in arb_video(), pos in any::<prop::sample::Index>(), val in any::<u8>()) {
        let mut bytes = encode_vsc(&video, FrameCodec::Delta);
        let i = pos.index(bytes.len());
        bytes[i] = val;
        let _ = decode_vsc(&bytes); // Ok or Err, no panic
    }
}
