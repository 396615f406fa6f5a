//! Image codecs: binary PPM (P6), binary PGM (P5), 24-bit BMP and the
//! JPEG-style lossy VJP.
//!
//! The paper stores key frames as JPEG blobs inside Oracle `ORD_Image`
//! columns; the retrieval pipeline only ever consumes *decoded* pixels, so
//! the particular compression format is irrelevant to every experiment.
//! PPM/PGM give a trivially verifiable lossless on-disk format; BMP
//! exists so frame dumps open in any external viewer; [`vjp`] is the
//! JPEG-equivalent (DCT + quantisation) for storage-size parity with the
//! paper's setup.

pub mod bmp;
pub mod pgm;
pub mod ppm;
pub mod vjp;

use crate::error::{ImgError, Result};
use crate::image::RgbImage;

/// Supported on-disk image container formats.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ImageFormat {
    /// Binary PPM, `P6` magic, 24-bit RGB.
    Ppm,
    /// Binary PGM, `P5` magic, 8-bit grayscale.
    Pgm,
    /// Windows BMP, 24-bit uncompressed, bottom-up.
    Bmp,
    /// VJP, the JPEG-style lossy codec (quality 75 when encoded through
    /// [`encode`]; use [`vjp::encode`] for explicit quality).
    Vjp,
}

impl ImageFormat {
    /// Sniff the container format from the first bytes of a stream.
    pub fn sniff(data: &[u8]) -> Option<ImageFormat> {
        match data {
            [b'P', b'6', ..] => Some(ImageFormat::Ppm),
            [b'P', b'5', ..] => Some(ImageFormat::Pgm),
            [b'B', b'M', ..] => Some(ImageFormat::Bmp),
            [b'V', b'J', b'P', b'1', ..] => Some(ImageFormat::Vjp),
            _ => None,
        }
    }

    /// Conventional file extension for the format.
    pub fn extension(self) -> &'static str {
        match self {
            ImageFormat::Ppm => "ppm",
            ImageFormat::Pgm => "pgm",
            ImageFormat::Bmp => "bmp",
            ImageFormat::Vjp => "vjp",
        }
    }
}

/// Decode an RGB image, sniffing the container from its magic bytes.
/// PGM streams are promoted to RGB by channel replication.
pub fn decode_auto(data: &[u8]) -> Result<RgbImage> {
    match ImageFormat::sniff(data) {
        Some(ImageFormat::Ppm) => ppm::decode(data),
        Some(ImageFormat::Pgm) => Ok(pgm::decode(data)?.to_rgb()),
        Some(ImageFormat::Bmp) => bmp::decode(data),
        Some(ImageFormat::Vjp) => vjp::decode(data),
        None => Err(ImgError::Decode("unrecognised image magic".into())),
    }
}

/// Encode an RGB image into the requested container.
pub fn encode(img: &RgbImage, format: ImageFormat) -> Vec<u8> {
    match format {
        ImageFormat::Ppm => ppm::encode(img),
        ImageFormat::Pgm => pgm::encode(&img.to_gray()),
        ImageFormat::Bmp => bmp::encode(img),
        ImageFormat::Vjp => vjp::encode(img, 75),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pixel::Rgb;

    fn sample() -> RgbImage {
        RgbImage::from_fn(5, 4, |x, y| Rgb::new((x * 50) as u8, (y * 60) as u8, ((x + y) * 20) as u8))
            .unwrap()
    }

    #[test]
    fn sniff_detects_all_formats() {
        let img = sample();
        for fmt in [ImageFormat::Ppm, ImageFormat::Pgm, ImageFormat::Bmp, ImageFormat::Vjp] {
            let bytes = encode(&img, fmt);
            assert_eq!(ImageFormat::sniff(&bytes), Some(fmt));
        }
        assert_eq!(ImageFormat::sniff(b"GIF89a"), None);
        assert_eq!(ImageFormat::sniff(b""), None);
    }

    #[test]
    fn auto_decode_round_trips_lossless_formats() {
        let img = sample();
        for fmt in [ImageFormat::Ppm, ImageFormat::Bmp] {
            let bytes = encode(&img, fmt);
            let back = decode_auto(&bytes).unwrap();
            assert_eq!(back, img, "{fmt:?} round trip");
        }
    }

    #[test]
    fn pgm_round_trip_is_luma() {
        let img = sample();
        let bytes = encode(&img, ImageFormat::Pgm);
        let back = decode_auto(&bytes).unwrap().to_gray();
        assert_eq!(back, img.to_gray());
    }

    #[test]
    fn decode_garbage_fails() {
        assert!(decode_auto(b"not an image at all").is_err());
        assert!(decode_auto(&[]).is_err());
    }

    #[test]
    fn extensions() {
        assert_eq!(ImageFormat::Ppm.extension(), "ppm");
        assert_eq!(ImageFormat::Pgm.extension(), "pgm");
        assert_eq!(ImageFormat::Bmp.extension(), "bmp");
        assert_eq!(ImageFormat::Vjp.extension(), "vjp");
    }

    #[test]
    fn vjp_auto_decode_is_lossy_but_close() {
        let img = RgbImage::from_fn(24, 24, |x, y| {
            Rgb::new((x * 10) as u8, (y * 10) as u8, 128)
        })
        .unwrap();
        let bytes = encode(&img, ImageFormat::Vjp);
        let back = decode_auto(&bytes).unwrap();
        assert_eq!(back.dimensions(), img.dimensions());
        // Lossy: not byte-identical, but close channel-wise.
        let max_err = img
            .as_raw()
            .iter()
            .zip(back.as_raw())
            .map(|(&a, &b)| (a as i32 - b as i32).unsigned_abs())
            .max()
            .unwrap();
        assert!(max_err < 48, "max channel error {max_err}");
    }
}
