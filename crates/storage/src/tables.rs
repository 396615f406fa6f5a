//! The paper's two tables as typed records and row codecs.
//!
//! `VIDEO_STORE(v_id, v_name, video, stream, dostore)` and
//! `KEY_FRAMES(i_id, i_name, image, min, max, sch, glcm, gabor, tamura,
//! majorregions, v_id)`.
//!
//! Extension: the paper's Fig. 8 also computes autocorrelogram, naive and
//! region-growing strings but its `CREATE TABLE` omits columns for them;
//! we add `acc`, `naive` and `srg` columns so every extracted feature is
//! queryable (DESIGN.md records this schema extension).
//!
//! Blob columns (`VIDEO`, `STREAM`, `IMAGE`) hold [`BlobRef`]s into the
//! heap; rows that outgrow a B+-tree cell spill to the heap wholesale
//! (see [`crate::db`]).

use crate::codec::{Reader, Writer};
use crate::error::Result;
use crate::heap::BlobRef;

/// Insertion payload for `VIDEO_STORE` (ids are assigned by the engine).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VideoRecord {
    /// `V_NAME VARCHAR2(60)` — display name.
    pub v_name: String,
    /// `VIDEO ORD_Video` — the encoded video container bytes.
    pub video: Vec<u8>,
    /// `STREAM BLOB` — the encoded key-frame stream bytes.
    pub stream: Vec<u8>,
    /// `DOSTORE DATE` — store timestamp, epoch seconds.
    pub dostore: u64,
}

/// A stored `VIDEO_STORE` row (blobs as refs; materialise via the db).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VideoRow {
    /// Primary key.
    pub v_id: u64,
    /// Blob ref for the video container.
    pub video: BlobRef,
    /// Blob ref for the key-frame stream.
    pub stream: BlobRef,
    /// Store timestamp, epoch seconds.
    pub dostore: u64,
}

/// `VIDEO_STORE` row with its name (names are variable length, so they
/// ride in the row buffer rather than the fixed struct).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VideoRowFull {
    /// Fixed columns.
    pub row: VideoRow,
    /// `V_NAME`.
    pub v_name: String,
}

pub(crate) fn encode_video_row(row: &VideoRowFull) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(row.row.v_id)
        .str(&row.v_name)
        .u32(row.row.video.head)
        .u64(row.row.video.len)
        .u32(row.row.stream.head)
        .u64(row.row.stream.len)
        .u64(row.row.dostore);
    w.finish()
}

pub(crate) fn decode_video_row(buf: &[u8]) -> Result<VideoRowFull> {
    let mut r = Reader::new(buf);
    let v_id = r.u64()?;
    let v_name = r.str()?;
    let video = BlobRef {
        head: r.u32()?,
        len: r.u64()?,
    };
    let stream = BlobRef {
        head: r.u32()?,
        len: r.u64()?,
    };
    let dostore = r.u64()?;
    Ok(VideoRowFull {
        row: VideoRow {
            v_id,
            video,
            stream,
            dostore,
        },
        v_name,
    })
}

/// Insertion payload for `KEY_FRAMES` (ids are assigned by the engine).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyFrameRecord {
    /// `I_NAME VARCHAR2(40)` — frame name (e.g. `v3_kf_007`).
    pub i_name: String,
    /// `IMAGE ORD_Image` — encoded key-frame image bytes.
    pub image: Vec<u8>,
    /// `MIN NUMBER` — range-finder lower bound.
    pub min: u8,
    /// `MAX NUMBER` — range-finder upper bound.
    pub max: u8,
    /// `SCH VARCHAR2(1500)` — simple color histogram string.
    pub sch: String,
    /// `GLCM VARCHAR2(250)` — GLCM texture string.
    pub glcm: String,
    /// `GABOR VARCHAR2(1500)` — Gabor texture string.
    pub gabor: String,
    /// `TAMURA VARCHAR2(500)` — Tamura texture string.
    pub tamura: String,
    /// Extension column: autocorrelogram string.
    pub acc: String,
    /// Extension column: naive signature string.
    pub naive: String,
    /// Extension column: region-growing string (`SRG r h m`).
    pub srg: String,
    /// `MAJORREGIONS NUMBER`.
    pub majorregions: u32,
    /// `V_ID NUMBER` — owning video.
    pub v_id: u64,
}

/// A stored `KEY_FRAMES` row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyFrameRow {
    /// Primary key.
    pub i_id: u64,
    /// Frame name.
    pub i_name: String,
    /// Blob ref for the frame image.
    pub image: BlobRef,
    /// Range-finder lower bound.
    pub min: u8,
    /// Range-finder upper bound.
    pub max: u8,
    /// Color histogram feature string.
    pub sch: String,
    /// GLCM feature string.
    pub glcm: String,
    /// Gabor feature string.
    pub gabor: String,
    /// Tamura feature string.
    pub tamura: String,
    /// Autocorrelogram feature string.
    pub acc: String,
    /// Naive signature feature string.
    pub naive: String,
    /// Region-growing feature string.
    pub srg: String,
    /// Major region count.
    pub majorregions: u32,
    /// Owning video.
    pub v_id: u64,
}

pub(crate) fn encode_key_frame_row(row: &KeyFrameRow) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(row.i_id)
        .str(&row.i_name)
        .u32(row.image.head)
        .u64(row.image.len)
        .u8(row.min)
        .u8(row.max)
        .str(&row.sch)
        .str(&row.glcm)
        .str(&row.gabor)
        .str(&row.tamura)
        .str(&row.acc)
        .str(&row.naive)
        .str(&row.srg)
        .u32(row.majorregions)
        .u64(row.v_id);
    w.finish()
}

pub(crate) fn decode_key_frame_row(buf: &[u8]) -> Result<KeyFrameRow> {
    let mut r = Reader::new(buf);
    Ok(KeyFrameRow {
        i_id: r.u64()?,
        i_name: r.str()?,
        image: BlobRef {
            head: r.u32()?,
            len: r.u64()?,
        },
        min: r.u8()?,
        max: r.u8()?,
        sch: r.str()?,
        glcm: r.str()?,
        gabor: r.str()?,
        tamura: r.str()?,
        acc: r.str()?,
        naive: r.str()?,
        srg: r.str()?,
        majorregions: r.u32()?,
        v_id: r.u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_kf_row() -> KeyFrameRow {
        KeyFrameRow {
            i_id: 12,
            i_name: "v3_kf_007".into(),
            image: BlobRef {
                head: 99,
                len: 4321,
            },
            min: 64,
            max: 127,
            sch: "RGB 256 1 2 3".into(),
            glcm: "GLCM 100 0.5 1 0 0.9 2".into(),
            gabor: "gabor 60 0.1".into(),
            tamura: "Tamura 18 4 20".into(),
            acc: "ACC 4 0.5".into(),
            naive: "NaiveVector java.awt.Color[r=1,g=2,b=3]".into(),
            srg: "SRG 3 1 2".into(),
            majorregions: 2,
            v_id: 3,
        }
    }

    #[test]
    fn video_row_round_trip() {
        let full = VideoRowFull {
            row: VideoRow {
                v_id: 42,
                video: BlobRef {
                    head: 7,
                    len: 100_000,
                },
                stream: BlobRef::EMPTY,
                dostore: 1_700_000_000,
            },
            v_name: "sports_04.vsc".into(),
        };
        let buf = encode_video_row(&full);
        assert_eq!(decode_video_row(&buf).unwrap(), full);
    }

    #[test]
    fn key_frame_row_round_trip() {
        let row = sample_kf_row();
        let buf = encode_key_frame_row(&row);
        assert_eq!(decode_key_frame_row(&buf).unwrap(), row);
    }

    #[test]
    fn corrupt_rows_are_detected() {
        let buf = encode_key_frame_row(&sample_kf_row());
        assert!(decode_key_frame_row(&buf[..buf.len() / 2]).is_err());
        assert!(decode_video_row(&[]).is_err());
    }

    #[test]
    fn empty_strings_are_legal() {
        let mut row = sample_kf_row();
        row.sch = String::new();
        row.i_name = String::new();
        let buf = encode_key_frame_row(&row);
        assert_eq!(decode_key_frame_row(&buf).unwrap(), row);
    }
}
