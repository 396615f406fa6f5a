//! VSC — the on-disk/in-blob video container.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic "VSC1"
//! 4       4     width
//! 8       4     height
//! 12      4     fps
//! 16      4     frame count N
//! 20      1     codec wire id
//! 21      3     reserved (zero)
//! 24      8*N   frame payload lengths (u64 each)
//! ...           N frame payloads, concatenated
//! ```
//!
//! The explicit length table lets a reader seek to intra-coded frames and
//! lets corruption be detected before any payload is touched. This is the
//! byte stream stored in the `VIDEO` column of `VIDEO_STORE` (§3.4).

use crate::codec::{decode_frame, encode_frame, FrameCodec};
use crate::error::{Result, VideoError};
use crate::video::Video;
use cbvr_imgproc::RgbImage;

const MAGIC: &[u8; 4] = b"VSC1";
const HEADER_LEN: usize = 24;

/// Serialise a video into a VSC byte stream with the given frame codec.
pub fn encode_vsc(video: &Video, codec: FrameCodec) -> Vec<u8> {
    let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(video.frame_count());
    let mut prev: Option<&RgbImage> = None;
    for frame in video.frames() {
        payloads.push(encode_frame(codec, frame, prev));
        prev = Some(frame);
    }

    let total: usize = payloads.iter().map(Vec::len).sum();
    let mut out = Vec::<u8>::with_capacity(HEADER_LEN + 8 * payloads.len() + total);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(video.width()).to_le_bytes());
    out.extend_from_slice(&(video.height()).to_le_bytes());
    out.extend_from_slice(&(video.fps()).to_le_bytes());
    out.extend_from_slice(&(payloads.len() as u32).to_le_bytes());
    out.push(codec.wire_id());
    out.extend_from_slice(&[0u8; 3]);
    for p in &payloads {
        out.extend_from_slice(&(p.len() as u64).to_le_bytes());
    }
    for p in &payloads {
        out.extend_from_slice(p);
    }
    out
}

/// Parsed VSC header plus the frame length table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VscHeader {
    /// Frame width in pixels.
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
    /// Frames per second.
    pub fps: u32,
    /// Number of frames in the stream.
    pub frame_count: u32,
    /// Payload codec.
    pub codec: FrameCodec,
    /// Byte length of each frame payload, in order.
    pub frame_lens: Vec<u64>,
}

fn parse_header(data: &[u8]) -> Result<(VscHeader, usize)> {
    if data.len() < HEADER_LEN {
        return Err(VideoError::Container("stream shorter than header".into()));
    }
    if &data[..4] != MAGIC {
        return Err(VideoError::Container("bad magic (expected VSC1)".into()));
    }
    let u32_at = |o: usize| u32::from_le_bytes([data[o], data[o + 1], data[o + 2], data[o + 3]]);
    let width = u32_at(4);
    let height = u32_at(8);
    let fps = u32_at(12);
    let frame_count = u32_at(16);
    let codec = FrameCodec::from_wire_id(data[20])?;
    if width == 0 || height == 0 || fps == 0 {
        return Err(VideoError::Container(format!(
            "bad geometry {width}x{height}@{fps}fps"
        )));
    }

    let table_end = HEADER_LEN
        .checked_add(frame_count as usize * 8)
        .ok_or_else(|| VideoError::Container("length table overflow".into()))?;
    if data.len() < table_end {
        return Err(VideoError::Container("length table truncated".into()));
    }
    let mut frame_lens = Vec::with_capacity(frame_count as usize);
    for i in 0..frame_count as usize {
        let o = HEADER_LEN + i * 8;
        frame_lens.push(u64::from_le_bytes(data[o..o + 8].try_into().expect("8 bytes")));
    }
    Ok((VscHeader { width, height, fps, frame_count, codec, frame_lens }, table_end))
}

/// Streaming VSC reader: decodes frames one at a time without
/// materialising the whole clip.
pub struct VscReader<'a> {
    header: VscHeader,
    payloads: &'a [u8],
    cursor: usize,
    next_frame: usize,
    prev: Option<RgbImage>,
}

impl<'a> VscReader<'a> {
    /// Open a VSC byte stream, validating the header and total length.
    pub fn open(data: &'a [u8]) -> Result<Self> {
        let (header, table_end) = parse_header(data)?;
        let body = &data[table_end..];
        let need: u64 = header.frame_lens.iter().sum();
        if (body.len() as u64) < need {
            return Err(VideoError::Container(format!(
                "payload truncated: need {need} bytes, have {}",
                body.len()
            )));
        }
        Ok(VscReader { header, payloads: body, cursor: 0, next_frame: 0, prev: None })
    }

    /// The parsed header.
    pub fn header(&self) -> &VscHeader {
        &self.header
    }

    /// Decode the next frame, or `None` at end of stream.
    pub fn next_frame(&mut self) -> Result<Option<RgbImage>> {
        if self.next_frame >= self.header.frame_count as usize {
            return Ok(None);
        }
        let len = self.header.frame_lens[self.next_frame] as usize;
        let payload = &self.payloads[self.cursor..self.cursor + len];
        let frame = decode_frame(
            self.header.codec,
            payload,
            self.header.width,
            self.header.height,
            self.prev.as_ref(),
        )?;
        self.cursor += len;
        self.next_frame += 1;
        self.prev = Some(frame.clone());
        Ok(Some(frame))
    }
}

/// Decode an entire VSC stream into an in-memory [`Video`].
pub fn decode_vsc(data: &[u8]) -> Result<Video> {
    let mut reader = VscReader::open(data)?;
    let fps = reader.header().fps;
    let mut frames = Vec::with_capacity(reader.header().frame_count as usize);
    while let Some(f) = reader.next_frame()? {
        frames.push(f);
    }
    Video::new(fps, frames)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbvr_imgproc::Rgb;

    fn clip(n: usize) -> Video {
        let frames: Vec<RgbImage> = (0..n)
            .map(|i| {
                RgbImage::from_fn(16, 12, |x, y| {
                    Rgb::new((x * 10 + i as u32) as u8, (y * 10) as u8, i as u8)
                })
                .unwrap()
            })
            .collect();
        Video::new(24, frames).unwrap()
    }

    #[test]
    fn round_trip_all_codecs() {
        let v = clip(6);
        for codec in [FrameCodec::Raw, FrameCodec::Rle, FrameCodec::Delta] {
            let bytes = encode_vsc(&v, codec);
            let back = decode_vsc(&bytes).unwrap();
            assert_eq!(back, v, "{codec:?}");
        }
    }

    #[test]
    fn header_fields_survive() {
        let v = clip(3);
        let bytes = encode_vsc(&v, FrameCodec::Delta);
        let reader = VscReader::open(&bytes).unwrap();
        let h = reader.header();
        assert_eq!((h.width, h.height, h.fps, h.frame_count), (16, 12, 24, 3));
        assert_eq!(h.codec, FrameCodec::Delta);
        assert_eq!(h.frame_lens.len(), 3);
    }

    #[test]
    fn streaming_matches_batch() {
        let v = clip(5);
        let bytes = encode_vsc(&v, FrameCodec::Delta);
        let mut reader = VscReader::open(&bytes).unwrap();
        let mut i = 0;
        while let Some(f) = reader.next_frame().unwrap() {
            assert_eq!(&f, v.frame(i).unwrap(), "frame {i}");
            i += 1;
        }
        assert_eq!(i, 5);
        assert!(reader.next_frame().unwrap().is_none(), "reader stays exhausted");
    }

    #[test]
    fn rejects_bad_magic() {
        let v = clip(1);
        let mut bytes = encode_vsc(&v, FrameCodec::Raw);
        bytes[0] = b'X';
        assert!(decode_vsc(&bytes).is_err());
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let v = clip(4);
        let bytes = encode_vsc(&v, FrameCodec::Rle);
        // Header truncation.
        assert!(decode_vsc(&bytes[..10]).is_err());
        // Table truncation.
        assert!(decode_vsc(&bytes[..HEADER_LEN + 4]).is_err());
        // Payload truncation.
        assert!(decode_vsc(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn rejects_zero_geometry() {
        let v = clip(1);
        let mut bytes = encode_vsc(&v, FrameCodec::Raw);
        bytes[4..8].copy_from_slice(&0u32.to_le_bytes()); // width = 0
        assert!(decode_vsc(&bytes).is_err());
    }

    #[test]
    fn delta_stream_is_smaller_for_static_content() {
        let frames = vec![RgbImage::filled(32, 32, Rgb::new(10, 20, 30)).unwrap(); 20];
        let v = Video::new(25, frames).unwrap();
        let raw = encode_vsc(&v, FrameCodec::Raw);
        let delta = encode_vsc(&v, FrameCodec::Delta);
        // The intra frame RLE-codes interleaved RGB poorly, but the 19
        // all-zero residual frames shrink to almost nothing.
        assert!(delta.len() * 4 < raw.len(), "raw {} vs delta {}", raw.len(), delta.len());
    }
}
