//! [`CbvrDatabase`] — the public storage facade.
//!
//! Owns the pager plus four B+-trees:
//!
//! - `VIDEO_STORE` primary (v_id → row),
//! - `KEY_FRAMES` primary (i_id → row),
//! - the `(v_id, i_id)` secondary index (composite key → nothing), which
//!   serves the pipeline's "all key frames of video X" lookups without a
//!   full scan,
//! - the catalog **manifest** (min `i_id` → segment record): one record
//!   per sealed catalog segment, appended inside the same atomic batch
//!   as the segment's rows. A crash mid-ingest therefore recovers to the
//!   last *published* snapshot — the manifest and the rows it covers
//!   commit or roll back together. The tree is created lazily, so
//!   pre-manifest databases open unchanged and report every row as one
//!   implicit tail segment.
//!
//! Every public mutator is atomic: it commits on success and rolls back
//! on failure (autocommit). [`CbvrDatabase::run_batch`] groups many
//! mutations into one commit — ingestion uses it so one video plus all
//! its key frames land atomically, which is also what makes crash tests
//! meaningful.
//!
//! Rows that outgrow a B+-tree cell spill transparently to the blob heap
//! (tag byte `1` + blob ref instead of tag `0` + inline row).

use crate::backend::{Backend, FileBackend, MemBackend};
use crate::btree::{BTree, MAX_VALUE_LEN};
use crate::codec::{Reader, Writer};
use crate::error::{Result, StorageError};
use crate::heap::{free_blob, read_blob, write_blob, BlobRef};
use crate::page::NO_PAGE;
use crate::pager::{Pager, DEFAULT_CACHE_PAGES, USER_META_LEN};
use crate::tables::{
    decode_key_frame_row, decode_video_row, encode_key_frame_row, encode_video_row, KeyFrameRecord,
    KeyFrameRow, VideoRecord, VideoRow, VideoRowFull,
};
use std::path::Path;

const TAG_INLINE: u8 = 0;
const TAG_SPILLED: u8 = 1;

/// One sealed-segment record of the catalog manifest: the contiguous
/// `KEY_FRAMES` id range one ingest batch (or one compaction) sealed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ManifestSegment {
    /// Smallest `i_id` in the segment (also the manifest key).
    pub min_i_id: u64,
    /// Largest `i_id` in the segment.
    pub max_i_id: u64,
    /// Rows the segment held when sealed.
    pub rows: u64,
}

impl ManifestSegment {
    /// The manifest value: `max_i_id u64 | rows u64` (the key is
    /// `min_i_id`).
    fn encode_value(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.max_i_id).u64(self.rows);
        w.finish()
    }

    fn decode(min_i_id: u64, value: &[u8]) -> Result<ManifestSegment> {
        let mut r = Reader::new(value);
        let segment = ManifestSegment {
            min_i_id,
            max_i_id: r.u64()?,
            rows: r.u64()?,
        };
        r.end()?;
        Ok(segment)
    }

    fn check(&self) -> Result<()> {
        if self.min_i_id > self.max_i_id {
            return Err(StorageError::InvalidState(format!(
                "manifest segment range inverted: {}..{}",
                self.min_i_id, self.max_i_id
            )));
        }
        Ok(())
    }
}

/// The database's catalog, kept in the pager's user-meta block:
///
/// ```text
/// video_store u32 | key_frames u32 | kf_by_video u32 | manifest u32 | next_v_id u64 | next_i_id u64
/// ```
///
/// A zero `video_store` root marks a fresh database, a zero `manifest`
/// root a database without a manifest.
#[derive(Clone, Copy)]
struct Meta {
    video_store: BTree,
    key_frames: BTree,
    kf_by_video: BTree,
    /// Catalog manifest; `None` until the first segment record is
    /// written (pre-manifest databases never allocate the tree).
    manifest: Option<BTree>,
    next_v_id: u64,
    next_i_id: u64,
}

impl Meta {
    fn decode(block: &[u8]) -> Result<Meta> {
        let mut r = Reader::new(block);
        Ok(Meta {
            video_store: BTree::load(r.u32()?),
            key_frames: BTree::load(r.u32()?),
            kf_by_video: BTree::load(r.u32()?),
            manifest: Some(r.u32()?)
                .filter(|&root| root != NO_PAGE)
                .map(BTree::load),
            next_v_id: r.u64()?,
            next_i_id: r.u64()?,
        })
    }

    fn encode(&self) -> [u8; USER_META_LEN] {
        let mut w = Writer::with_capacity(USER_META_LEN);
        w.u32(self.video_store.root())
            .u32(self.key_frames.root())
            .u32(self.kf_by_video.root())
            .u32(self.manifest.map_or(NO_PAGE, |tree| tree.root()))
            .u64(self.next_v_id)
            .u64(self.next_i_id);
        let mut block = [0u8; USER_META_LEN];
        block[..w.len()].copy_from_slice(w.as_bytes());
        block
    }
}

// ---- row storage ------------------------------------------------------

/// Store `row` under `key`: inline behind [`TAG_INLINE`] when tag and row
/// fit a cell, else spilled to the blob heap behind [`TAG_SPILLED`] and
/// the blob ref (`head u32 | len u64`).
fn store_row<B: Backend>(
    pager: &mut Pager<B>,
    tree: &mut BTree,
    key: u64,
    row: &[u8],
    overwrite: bool,
) -> Result<()> {
    let mut w = Writer::new();
    if row.len() < MAX_VALUE_LEN {
        w.u8(TAG_INLINE).raw(row);
    } else {
        let blob = write_blob(pager, row)?;
        w.u8(TAG_SPILLED).u32(blob.head).u64(blob.len);
    }
    let value = w.finish();
    if overwrite {
        tree.upsert(pager, key, &value)
    } else {
        tree.insert(pager, key, &value)
    }
}

/// The blob a stored row value spilled to; `None` for an inline row.
fn spilled(value: &[u8]) -> Result<Option<BlobRef>> {
    let mut r = Reader::new(value);
    match r.u8()? {
        TAG_INLINE => Ok(None),
        TAG_SPILLED => {
            let blob = BlobRef {
                head: r.u32()?,
                len: r.u64()?,
            };
            r.end()?;
            Ok(Some(blob))
        }
        tag => Err(StorageError::Corruption(format!("bad row tag {tag}"))),
    }
}

/// The cell value stored under `key`.
fn fetch_value<B: Backend>(pager: &mut Pager<B>, tree: &BTree, key: u64) -> Result<Vec<u8>> {
    tree.get(pager, key)?.ok_or(StorageError::NotFound(key))
}

/// The row bytes a stored value holds inline or spilled.
fn load_row<B: Backend>(pager: &mut Pager<B>, value: &[u8]) -> Result<Vec<u8>> {
    match spilled(value)? {
        Some(blob) => read_blob(pager, blob),
        None => Ok(value[1..].to_vec()),
    }
}

/// Free the heap pages a stored value spilled to, if any.
fn free_row<B: Backend>(pager: &mut Pager<B>, value: &[u8]) -> Result<()> {
    match spilled(value)? {
        Some(blob) => free_blob(pager, blob),
        None => Ok(()),
    }
}

/// The manifest tree, created on first use (legacy databases never
/// wrote one; the zero root in the meta block marks its absence).
fn manifest_tree<'a, B: Backend>(
    pager: &mut Pager<B>,
    manifest: &'a mut Option<BTree>,
) -> Result<&'a mut BTree> {
    let tree = match *manifest {
        Some(tree) => tree,
        None => BTree::create(pager)?,
    };
    Ok(manifest.insert(tree))
}

fn composite(v_id: u64, i_id: u64) -> Result<u64> {
    if v_id >= (1 << 32) || i_id >= (1 << 32) {
        return Err(StorageError::InvalidState(format!(
            "ids exceed 32 bits: v_id={v_id}, i_id={i_id}"
        )));
    }
    Ok((v_id << 32) | i_id)
}

/// The CBVR database over any backend.
pub struct CbvrDatabase<B: Backend> {
    pager: Pager<B>,
    meta: Meta,
    autocommit: bool,
}

impl CbvrDatabase<FileBackend> {
    /// Open (or create) a database in `dir` (`cbvr.db` + `cbvr.wal`).
    pub fn open_dir(dir: &Path) -> Result<CbvrDatabase<FileBackend>> {
        std::fs::create_dir_all(dir)?;
        let data = FileBackend::open(&dir.join("cbvr.db"))?;
        let wal = FileBackend::open(&dir.join("cbvr.wal"))?;
        Self::open(data, wal)
    }
}

impl CbvrDatabase<MemBackend> {
    /// Fresh in-memory database (tests, benches, examples).
    pub fn in_memory() -> Result<CbvrDatabase<MemBackend>> {
        Self::open(MemBackend::new(), MemBackend::new())
    }
}

impl<B: Backend> CbvrDatabase<B> {
    /// Open over explicit backends.
    pub fn open(data: B, wal: B) -> Result<CbvrDatabase<B>> {
        let mut pager = Pager::open(data, wal, DEFAULT_CACHE_PAGES)?;
        let meta = Meta::decode(pager.user_meta())?;
        if meta.video_store.root() != NO_PAGE {
            return Ok(CbvrDatabase {
                pager,
                meta,
                autocommit: true,
            });
        }
        // Fresh database: create the trees and persist the catalog.
        let meta = Meta {
            video_store: BTree::create(&mut pager)?,
            key_frames: BTree::create(&mut pager)?,
            kf_by_video: BTree::create(&mut pager)?,
            manifest: None,
            next_v_id: 1,
            next_i_id: 1,
        };
        let mut db = CbvrDatabase {
            pager,
            meta,
            autocommit: true,
        };
        db.finish_op(Ok(()))?;
        Ok(db)
    }

    fn finish_op<T>(&mut self, result: Result<T>) -> Result<T> {
        if !self.autocommit {
            return result;
        }
        let result = result.and_then(|v| {
            self.pager.set_user_meta(self.meta.encode());
            self.pager.commit().map(|()| v)
        });
        if result.is_err() {
            // Roll the staged writes back (also when the commit never
            // reached the WAL) so the next operation builds on the
            // committed state, not on a half-applied one that would leak
            // into its commit.
            self.pager.abort();
            self.meta = Meta::decode(self.pager.user_meta())?;
        }
        result
    }

    /// True while a durable commit is still awaiting propagation to the
    /// data file (see [`crate::pager::Pager::wal_pending`]): reads and
    /// further commits keep working from the WAL and the pager's
    /// unpropagated pages, and
    /// [`CbvrDatabase::try_heal`] retries the replay.
    pub fn is_degraded(&self) -> bool {
        self.pager.wal_pending()
    }

    /// Retry propagating committed-but-unpropagated pages into the data
    /// file. No-op when healthy.
    pub fn try_heal(&mut self) -> Result<()> {
        self.pager.checkpoint()
    }

    /// Run several mutations as one atomic unit: one commit on success,
    /// full rollback on error.
    pub fn run_batch<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if !self.autocommit {
            return Err(StorageError::InvalidState("nested run_batch".into()));
        }
        self.autocommit = false;
        let result = f(self);
        self.autocommit = true;
        self.finish_op(result)
    }

    // ---- VIDEO_STORE --------------------------------------------------

    /// The one write path of `VIDEO_STORE`: the row under `v_id`, its
    /// blobs written first.
    fn put_video(&mut self, v_id: u64, record: &VideoRecord) -> Result<()> {
        let video = write_blob(&mut self.pager, &record.video)?;
        let stream = write_blob(&mut self.pager, &record.stream)?;
        let full = VideoRowFull {
            row: VideoRow {
                v_id,
                video,
                stream,
                dostore: record.dostore,
            },
            v_name: record.v_name.clone(),
        };
        let row = encode_video_row(&full);
        store_row(
            &mut self.pager,
            &mut self.meta.video_store,
            v_id,
            &row,
            false,
        )
    }

    /// Insert a video; returns the assigned `v_id`.
    pub fn insert_video(&mut self, record: &VideoRecord) -> Result<u64> {
        let op = |db: &mut Self| {
            let v_id = db.meta.next_v_id;
            db.meta.next_v_id += 1;
            db.put_video(v_id, record)?;
            Ok(v_id)
        };
        let result = op(self);
        self.finish_op(result)
    }

    /// A video's stored value and the row it holds.
    fn video_at(&mut self, v_id: u64) -> Result<(Vec<u8>, VideoRowFull)> {
        let value = fetch_value(&mut self.pager, &self.meta.video_store, v_id)?;
        let full = decode_video_row(&load_row(&mut self.pager, &value)?)?;
        Ok((value, full))
    }

    /// Fetch a video row (metadata + blob refs).
    pub fn get_video(&mut self, v_id: u64) -> Result<VideoRowFull> {
        Ok(self.video_at(v_id)?.1)
    }

    /// Materialise the video container bytes of a row.
    pub fn read_video_bytes(&mut self, row: &VideoRow) -> Result<Vec<u8>> {
        read_blob(&mut self.pager, row.video)
    }

    /// Materialise the key-frame stream bytes of a row.
    pub fn read_stream_bytes(&mut self, row: &VideoRow) -> Result<Vec<u8>> {
        read_blob(&mut self.pager, row.stream)
    }

    /// Rename a video (the administrator's *update* operation).
    pub fn rename_video(&mut self, v_id: u64, new_name: &str) -> Result<()> {
        let op = |db: &mut Self| {
            let (value, mut full) = db.video_at(v_id)?;
            full.v_name = new_name.to_string();
            free_row(&mut db.pager, &value)?;
            let row = encode_video_row(&full);
            store_row(&mut db.pager, &mut db.meta.video_store, v_id, &row, true)
        };
        let result = op(self);
        self.finish_op(result)
    }

    /// Delete a video, its blobs and (cascade) all its key frames.
    pub fn delete_video(&mut self, v_id: u64) -> Result<()> {
        let op = |db: &mut Self| {
            let (value, full) = db.video_at(v_id)?;
            // Cascade to key frames first.
            for i_id in db.key_frames_of_video(v_id)? {
                db.delete_key_frame_inner(i_id)?;
            }
            free_blob(&mut db.pager, full.row.video)?;
            free_blob(&mut db.pager, full.row.stream)?;
            free_row(&mut db.pager, &value)?;
            db.meta.video_store.delete(&mut db.pager, v_id)?;
            Ok(())
        };
        let result = op(self);
        self.finish_op(result)
    }

    /// List `(v_id, v_name, dostore)` of every stored video.
    pub fn list_videos(&mut self) -> Result<Vec<(u64, String, u64)>> {
        let mut values = Vec::new();
        self.meta
            .video_store
            .scan_from(&mut self.pager, 0, |_, v| {
                values.push(v.to_vec());
                true
            })?;
        let mut out = Vec::with_capacity(values.len());
        for value in values {
            let full = decode_video_row(&load_row(&mut self.pager, &value)?)?;
            out.push((full.row.v_id, full.v_name, full.row.dostore));
        }
        Ok(out)
    }

    /// Number of stored videos.
    pub fn video_count(&mut self) -> Result<usize> {
        self.meta.video_store.len(&mut self.pager)
    }

    // ---- KEY_FRAMES ----------------------------------------------------

    /// The one write path of `KEY_FRAMES`: `row` under its `i_id` with
    /// `image` as its blob (written first), plus its secondary-index
    /// entry.
    fn put_key_frame(&mut self, mut row: KeyFrameRow, image: &[u8]) -> Result<()> {
        row.image = write_blob(&mut self.pager, image)?;
        let buf = encode_key_frame_row(&row);
        store_row(
            &mut self.pager,
            &mut self.meta.key_frames,
            row.i_id,
            &buf,
            false,
        )?;
        let key = composite(row.v_id, row.i_id)?;
        self.meta.kf_by_video.insert(&mut self.pager, key, &[])
    }

    /// Insert a key frame; returns the assigned `i_id`.
    pub fn insert_key_frame(&mut self, record: &KeyFrameRecord) -> Result<u64> {
        let op = |db: &mut Self| {
            if !db.meta.video_store.contains(&mut db.pager, record.v_id)? {
                return Err(StorageError::NotFound(record.v_id));
            }
            let i_id = db.meta.next_i_id;
            db.meta.next_i_id += 1;
            let row = KeyFrameRow {
                i_id,
                i_name: record.i_name.clone(),
                image: BlobRef::EMPTY,
                min: record.min,
                max: record.max,
                sch: record.sch.clone(),
                glcm: record.glcm.clone(),
                gabor: record.gabor.clone(),
                tamura: record.tamura.clone(),
                acc: record.acc.clone(),
                naive: record.naive.clone(),
                srg: record.srg.clone(),
                majorregions: record.majorregions,
                v_id: record.v_id,
            };
            db.put_key_frame(row, &record.image)?;
            Ok(i_id)
        };
        let result = op(self);
        self.finish_op(result)
    }

    /// A key frame's stored value and the row it holds.
    fn key_frame_at(&mut self, i_id: u64) -> Result<(Vec<u8>, KeyFrameRow)> {
        let value = fetch_value(&mut self.pager, &self.meta.key_frames, i_id)?;
        let row = decode_key_frame_row(&load_row(&mut self.pager, &value)?)?;
        Ok((value, row))
    }

    /// Fetch a key-frame row.
    pub fn get_key_frame(&mut self, i_id: u64) -> Result<KeyFrameRow> {
        Ok(self.key_frame_at(i_id)?.1)
    }

    /// Materialise the image bytes of a key-frame row.
    pub fn read_image_bytes(&mut self, row: &KeyFrameRow) -> Result<Vec<u8>> {
        read_blob(&mut self.pager, row.image)
    }

    /// The `i_id`s of all key frames belonging to a video, via the
    /// secondary index.
    pub fn key_frames_of_video(&mut self, v_id: u64) -> Result<Vec<u64>> {
        let start = composite(v_id, 0)?;
        let mut out = Vec::new();
        self.meta
            .kf_by_video
            .scan_from(&mut self.pager, start, |k, _| {
                if k >> 32 != v_id {
                    return false;
                }
                out.push(k & 0xFFFF_FFFF);
                true
            })?;
        Ok(out)
    }

    /// Visit every key-frame row (ascending `i_id`).
    pub fn scan_key_frames(&mut self, mut visit: impl FnMut(&KeyFrameRow) -> bool) -> Result<()> {
        let mut values = Vec::new();
        self.meta.key_frames.scan_from(&mut self.pager, 0, |_, v| {
            values.push(v.to_vec());
            true
        })?;
        for value in values {
            let row = decode_key_frame_row(&load_row(&mut self.pager, &value)?)?;
            if !visit(&row) {
                break;
            }
        }
        Ok(())
    }

    fn delete_key_frame_inner(&mut self, i_id: u64) -> Result<()> {
        let (value, row) = self.key_frame_at(i_id)?;
        free_blob(&mut self.pager, row.image)?;
        free_row(&mut self.pager, &value)?;
        self.meta.key_frames.delete(&mut self.pager, i_id)?;
        let key = composite(row.v_id, i_id)?;
        self.meta.kf_by_video.delete(&mut self.pager, key)?;
        Ok(())
    }

    /// Delete one key frame.
    pub fn delete_key_frame(&mut self, i_id: u64) -> Result<()> {
        let result = self.delete_key_frame_inner(i_id);
        self.finish_op(result)
    }

    /// Number of stored key frames.
    pub fn key_frame_count(&mut self) -> Result<usize> {
        self.meta.key_frames.len(&mut self.pager)
    }

    // ---- catalog manifest ---------------------------------------------

    /// Record one sealed catalog segment. Ingestion calls this inside
    /// the same [`CbvrDatabase::run_batch`] that inserts the segment's
    /// rows, so the manifest and the rows commit atomically: a crash
    /// mid-ingest rolls both back to the last published snapshot.
    pub fn append_manifest_segment(&mut self, segment: ManifestSegment) -> Result<()> {
        let op = |db: &mut Self| {
            segment.check()?;
            let tree = manifest_tree(&mut db.pager, &mut db.meta.manifest)?;
            tree.upsert(&mut db.pager, segment.min_i_id, &segment.encode_value())
        };
        let result = op(self);
        self.finish_op(result)
    }

    /// Every manifest segment, ascending by `min_i_id` — which is also
    /// catalog order, because ids are assigned monotonically.
    pub fn list_manifest(&mut self) -> Result<Vec<ManifestSegment>> {
        let Some(tree) = self.meta.manifest else {
            return Ok(Vec::new());
        };
        tree.collect_all(&mut self.pager)?
            .iter()
            .map(|(min_i_id, value)| ManifestSegment::decode(*min_i_id, value))
            .collect()
    }

    /// Atomically replace the whole manifest (the compaction publish:
    /// many small segment records become one merged record).
    pub fn replace_manifest(&mut self, segments: &[ManifestSegment]) -> Result<()> {
        let old = self.list_manifest()?;
        let op = |db: &mut Self| {
            let tree = manifest_tree(&mut db.pager, &mut db.meta.manifest)?;
            for segment in &old {
                tree.delete(&mut db.pager, segment.min_i_id)?;
            }
            for segment in segments {
                segment.check()?;
                tree.upsert(&mut db.pager, segment.min_i_id, &segment.encode_value())?;
            }
            Ok(())
        };
        let result = op(self);
        self.finish_op(result)
    }

    /// Total pages in the data file (diagnostics).
    pub fn page_count(&self) -> u32 {
        self.pager.page_count()
    }

    /// Snapshot of the pager/WAL counters accumulated since open
    /// (telemetry: merged into `/metrics` and `cbvr stats --telemetry`).
    pub fn telemetry(&self) -> crate::telemetry::StorageTelemetry {
        self.pager.telemetry()
    }

    /// Aggregate statistics (diagnostics, vacuum decisions).
    pub fn stats(&mut self) -> Result<DbStats> {
        Ok(DbStats {
            pages: self.pager.page_count(),
            videos: self.video_count()?,
            key_frames: self.key_frame_count()?,
            manifest_segments: self.list_manifest()?.len(),
            next_v_id: self.meta.next_v_id,
            next_i_id: self.meta.next_i_id,
        })
    }

    /// Rewrite all live data into a fresh database on new backends,
    /// preserving every id and counter. Reclaims the space that lazy
    /// B+-tree deletion and the page free list retain in the old file:
    /// after heavy delete churn the new file holds only live pages.
    ///
    /// For on-disk databases: vacuum into a temporary directory, then
    /// swap the directories and reopen.
    pub fn vacuum_into<B2: Backend>(&mut self, data: B2, wal: B2) -> Result<CbvrDatabase<B2>> {
        let mut fresh = CbvrDatabase::open(data, wal)?;
        // Collect live rows first (scan borrows self mutably).
        let videos = self.list_videos()?;
        fresh.run_batch(|dst| {
            let mut kf_span: Option<(u64, u64, u64)> = None;
            for (v_id, _, _) in &videos {
                let full = self.get_video(*v_id)?;
                let record = VideoRecord {
                    video: self.read_video_bytes(&full.row)?,
                    stream: self.read_stream_bytes(&full.row)?,
                    v_name: full.v_name,
                    dostore: full.row.dostore,
                };
                dst.put_video(*v_id, &record)?;
                for i_id in self.key_frames_of_video(*v_id)? {
                    let row = self.get_key_frame(i_id)?;
                    let image = self.read_image_bytes(&row)?;
                    dst.put_key_frame(row, &image)?;
                    kf_span = Some(match kf_span {
                        None => (i_id, i_id, 1),
                        Some((min, max, rows)) => (min.min(i_id), max.max(i_id), rows + 1),
                    });
                }
            }
            // Vacuum compacts the manifest too: one segment spanning all
            // surviving rows (dead ranges would otherwise linger).
            if let Some((min_i_id, max_i_id, rows)) = kf_span {
                dst.replace_manifest(&[ManifestSegment {
                    min_i_id,
                    max_i_id,
                    rows,
                }])?;
            }
            dst.meta.next_v_id = self.meta.next_v_id;
            dst.meta.next_i_id = self.meta.next_i_id;
            Ok(())
        })?;
        Ok(fresh)
    }
}

/// Aggregate database statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DbStats {
    /// Pages in the data file (including meta and free pages).
    pub pages: u32,
    /// Live `VIDEO_STORE` rows.
    pub videos: usize,
    /// Live `KEY_FRAMES` rows.
    pub key_frames: usize,
    /// Sealed catalog segments recorded in the manifest (0 on
    /// pre-manifest databases: every row is one implicit tail segment).
    pub manifest_segments: usize,
    /// Next video id to be assigned.
    pub next_v_id: u64,
    /// Next key-frame id to be assigned.
    pub next_i_id: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultBackend, FaultInjector, FaultKind};

    fn video_record(name: &str, payload: usize) -> VideoRecord {
        VideoRecord {
            v_name: name.into(),
            video: (0..payload).map(|i| (i % 256) as u8).collect(),
            stream: vec![1, 2, 3],
            dostore: 1_750_000_000,
        }
    }

    fn kf_record(v_id: u64, name: &str) -> KeyFrameRecord {
        KeyFrameRecord {
            i_name: name.into(),
            image: vec![9u8; 500],
            min: 0,
            max: 63,
            sch: "RGB 256 1".into(),
            glcm: "GLCM 1 2 3 4 5 6".into(),
            gabor: "gabor 60 0".into(),
            tamura: "Tamura 18 0 0".into(),
            acc: "ACC 4 0".into(),
            naive: "NaiveVector".into(),
            srg: "SRG 1 0 1".into(),
            majorregions: 2,
            v_id,
        }
    }

    #[test]
    fn insert_and_fetch_video() {
        let mut db = CbvrDatabase::in_memory().unwrap();
        let id = db.insert_video(&video_record("a.vsc", 10_000)).unwrap();
        assert_eq!(id, 1);
        let full = db.get_video(id).unwrap();
        assert_eq!(full.v_name, "a.vsc");
        assert_eq!(full.row.dostore, 1_750_000_000);
        let bytes = db.read_video_bytes(&full.row).unwrap();
        assert_eq!(bytes.len(), 10_000);
        assert_eq!(bytes[255], 255);
        assert_eq!(db.read_stream_bytes(&full.row).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn ids_are_sequential_and_stable_across_reopen() {
        let data = MemBackend::new();
        let wal = MemBackend::new();
        {
            let mut db = CbvrDatabase::open(data.share(), wal.share()).unwrap();
            assert_eq!(db.insert_video(&video_record("one", 10)).unwrap(), 1);
            assert_eq!(db.insert_video(&video_record("two", 10)).unwrap(), 2);
        }
        let mut db = CbvrDatabase::open(data.share(), wal.share()).unwrap();
        assert_eq!(db.insert_video(&video_record("three", 10)).unwrap(), 3);
        assert_eq!(db.video_count().unwrap(), 3);
        assert_eq!(db.get_video(2).unwrap().v_name, "two");
    }

    #[test]
    fn rename_video_persists() {
        let mut db = CbvrDatabase::in_memory().unwrap();
        let id = db.insert_video(&video_record("old", 100)).unwrap();
        db.rename_video(id, "new").unwrap();
        assert_eq!(db.get_video(id).unwrap().v_name, "new");
        // Blob content untouched by rename.
        let full = db.get_video(id).unwrap();
        assert_eq!(db.read_video_bytes(&full.row).unwrap().len(), 100);
    }

    #[test]
    fn missing_keys_error() {
        let mut db = CbvrDatabase::in_memory().unwrap();
        assert!(matches!(db.get_video(99), Err(StorageError::NotFound(99))));
        assert!(matches!(
            db.get_key_frame(99),
            Err(StorageError::NotFound(99))
        ));
        assert!(matches!(
            db.rename_video(1, "x"),
            Err(StorageError::NotFound(1))
        ));
        assert!(matches!(db.delete_video(1), Err(StorageError::NotFound(1))));
        // Key frame for a video that does not exist.
        assert!(matches!(
            db.insert_key_frame(&kf_record(5, "kf")),
            Err(StorageError::NotFound(5))
        ));
    }

    #[test]
    fn key_frames_with_secondary_index() {
        let mut db = CbvrDatabase::in_memory().unwrap();
        let v1 = db.insert_video(&video_record("v1", 10)).unwrap();
        let v2 = db.insert_video(&video_record("v2", 10)).unwrap();
        let mut v1_ids = Vec::new();
        for i in 0..5 {
            v1_ids.push(
                db.insert_key_frame(&kf_record(v1, &format!("v1_kf_{i}")))
                    .unwrap(),
            );
        }
        let k2 = db.insert_key_frame(&kf_record(v2, "v2_kf_0")).unwrap();
        assert_eq!(db.key_frames_of_video(v1).unwrap(), v1_ids);
        assert_eq!(db.key_frames_of_video(v2).unwrap(), vec![k2]);
        assert!(db.key_frames_of_video(77).unwrap().is_empty());
        let row = db.get_key_frame(v1_ids[2]).unwrap();
        assert_eq!(row.i_name, "v1_kf_2");
        assert_eq!(row.v_id, v1);
        assert_eq!(db.read_image_bytes(&row).unwrap(), vec![9u8; 500]);
    }

    #[test]
    fn oversized_rows_spill_to_heap() {
        let mut db = CbvrDatabase::in_memory().unwrap();
        let v = db.insert_video(&video_record("v", 10)).unwrap();
        let mut record = kf_record(v, "big");
        record.acc = "ACC 4 ".to_string() + &"0.123456789012345 ".repeat(1024); // ~18 KB
        let i_id = db.insert_key_frame(&record).unwrap();
        let row = db.get_key_frame(i_id).unwrap();
        assert_eq!(row.acc, record.acc);
    }

    #[test]
    fn delete_video_cascades() {
        let mut db = CbvrDatabase::in_memory().unwrap();
        let v = db.insert_video(&video_record("v", 5_000)).unwrap();
        for i in 0..4 {
            db.insert_key_frame(&kf_record(v, &format!("kf{i}")))
                .unwrap();
        }
        assert_eq!(db.key_frame_count().unwrap(), 4);
        db.delete_video(v).unwrap();
        assert_eq!(db.video_count().unwrap(), 0);
        assert_eq!(db.key_frame_count().unwrap(), 0);
        assert!(db.key_frames_of_video(v).unwrap().is_empty());
    }

    #[test]
    fn deleted_pages_are_reused() {
        let mut db = CbvrDatabase::in_memory().unwrap();
        let v = db.insert_video(&video_record("v", 50_000)).unwrap();
        let pages_after_insert = db.page_count();
        db.delete_video(v).unwrap();
        let _v2 = db.insert_video(&video_record("v2", 50_000)).unwrap();
        assert!(
            db.page_count() <= pages_after_insert + 2,
            "freed pages should be recycled: {} vs {}",
            db.page_count(),
            pages_after_insert
        );
    }

    #[test]
    fn run_batch_commits_atomically() {
        let data = MemBackend::new();
        let wal = MemBackend::new();
        {
            let mut db = CbvrDatabase::open(data.share(), wal.share()).unwrap();
            db.run_batch(|db| {
                let v = db.insert_video(&video_record("batched", 100))?;
                for i in 0..3 {
                    db.insert_key_frame(&kf_record(v, &format!("kf{i}")))?;
                }
                Ok(v)
            })
            .unwrap();
        }
        let mut db = CbvrDatabase::open(data.share(), wal.share()).unwrap();
        assert_eq!(db.video_count().unwrap(), 1);
        assert_eq!(db.key_frame_count().unwrap(), 3);
    }

    #[test]
    fn run_batch_rolls_back_on_error() {
        let mut db = CbvrDatabase::in_memory().unwrap();
        let result: Result<()> = db.run_batch(|db| {
            db.insert_video(&video_record("doomed", 100))?;
            Err(StorageError::InvalidState("user abort".into()))
        });
        assert!(result.is_err());
        assert_eq!(db.video_count().unwrap(), 0, "batch must roll back");
        // The id counter also rolled back.
        assert_eq!(db.insert_video(&video_record("next", 10)).unwrap(), 1);
    }

    #[test]
    fn data_fault_mid_batch_commits_degraded() {
        let data = MemBackend::new();
        let wal = MemBackend::new();
        let faults = FaultInjector::new(0);
        let mut db = CbvrDatabase::open(
            FaultBackend::new(data.share(), faults.clone()),
            FaultBackend::new(wal.share(), FaultInjector::new(0)),
        )
        .unwrap();
        db.insert_video(&video_record("safe", 100)).unwrap();
        // The data file dies during the commit's propagation phase. The
        // WAL record is already durable, so the batch IS committed: the
        // database degrades instead of failing the commit.
        let result: Result<u64> = db.run_batch(|db| {
            let v = db.insert_video(&video_record("doomed", 30_000))?;
            faults.arm_after(1, FaultKind::Crash);
            Ok(v)
        });
        assert!(result.is_ok(), "WAL-durable commit must succeed");
        assert!(db.is_degraded(), "data-file fault leaves the db degraded");
        // Reads keep working from the unpropagated pages while degraded.
        assert_eq!(db.video_count().unwrap(), 2);
        drop(db);
        faults.heal();
        // Recovery replays the WAL: both commits survive, bytes intact.
        let mut db = CbvrDatabase::open(data.share(), wal.share()).unwrap();
        let videos = db.list_videos().unwrap();
        assert_eq!(videos.len(), 2, "both committed batches survive");
        assert!(videos.iter().any(|(_, name, _)| name == "safe"));
        assert!(videos.iter().any(|(_, name, _)| name == "doomed"));
        for (v_id, _, _) in &videos {
            let full = db.get_video(*v_id).unwrap();
            db.read_video_bytes(&full.row).unwrap();
        }
    }

    #[test]
    fn manifest_roundtrips_and_survives_reopen() {
        let data = MemBackend::new();
        let wal = MemBackend::new();
        {
            let mut db = CbvrDatabase::open(data.share(), wal.share()).unwrap();
            assert!(
                db.list_manifest().unwrap().is_empty(),
                "fresh db has no manifest"
            );
            db.append_manifest_segment(ManifestSegment {
                min_i_id: 1,
                max_i_id: 4,
                rows: 4,
            })
            .unwrap();
            db.append_manifest_segment(ManifestSegment {
                min_i_id: 5,
                max_i_id: 9,
                rows: 5,
            })
            .unwrap();
        }
        let mut db = CbvrDatabase::open(data.share(), wal.share()).unwrap();
        let segments = db.list_manifest().unwrap();
        assert_eq!(
            segments,
            vec![
                ManifestSegment {
                    min_i_id: 1,
                    max_i_id: 4,
                    rows: 4
                },
                ManifestSegment {
                    min_i_id: 5,
                    max_i_id: 9,
                    rows: 5
                },
            ]
        );
        assert_eq!(db.stats().unwrap().manifest_segments, 2);
    }

    #[test]
    fn replace_manifest_swaps_whole_set() {
        let mut db = CbvrDatabase::in_memory().unwrap();
        db.append_manifest_segment(ManifestSegment {
            min_i_id: 1,
            max_i_id: 3,
            rows: 3,
        })
        .unwrap();
        db.append_manifest_segment(ManifestSegment {
            min_i_id: 4,
            max_i_id: 6,
            rows: 3,
        })
        .unwrap();
        db.replace_manifest(&[ManifestSegment {
            min_i_id: 1,
            max_i_id: 6,
            rows: 6,
        }])
        .unwrap();
        assert_eq!(
            db.list_manifest().unwrap(),
            vec![ManifestSegment {
                min_i_id: 1,
                max_i_id: 6,
                rows: 6
            }]
        );
        // Replacing with the empty set clears the manifest entirely.
        db.replace_manifest(&[]).unwrap();
        assert!(db.list_manifest().unwrap().is_empty());
    }

    #[test]
    fn inverted_manifest_range_rejected_without_side_effects() {
        let mut db = CbvrDatabase::in_memory().unwrap();
        let bad = ManifestSegment {
            min_i_id: 9,
            max_i_id: 2,
            rows: 1,
        };
        assert!(db.append_manifest_segment(bad).is_err());
        assert!(db.replace_manifest(&[bad]).is_err());
        assert!(db.list_manifest().unwrap().is_empty());
    }

    #[test]
    fn manifest_rolls_back_with_failed_batch() {
        let mut db = CbvrDatabase::in_memory().unwrap();
        let result: Result<()> = db.run_batch(|db| {
            db.append_manifest_segment(ManifestSegment {
                min_i_id: 1,
                max_i_id: 2,
                rows: 2,
            })?;
            Err(StorageError::InvalidState("user abort".into()))
        });
        assert!(result.is_err());
        assert!(
            db.list_manifest().unwrap().is_empty(),
            "manifest record must roll back"
        );
        // The tree can still be created and used after the rollback.
        db.append_manifest_segment(ManifestSegment {
            min_i_id: 1,
            max_i_id: 2,
            rows: 2,
        })
        .unwrap();
        assert_eq!(db.list_manifest().unwrap().len(), 1);
    }

    #[test]
    fn list_videos_in_id_order() {
        let mut db = CbvrDatabase::in_memory().unwrap();
        for name in ["c", "a", "b"] {
            db.insert_video(&video_record(name, 10)).unwrap();
        }
        let listed = db.list_videos().unwrap();
        assert_eq!(
            listed.iter().map(|(id, _, _)| *id).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(listed[0].1, "c");
    }
}

#[cfg(test)]
mod vacuum_tests {
    use super::*;

    fn video_record(name: &str, payload: usize) -> VideoRecord {
        VideoRecord {
            v_name: name.into(),
            video: (0..payload).map(|i| (i % 256) as u8).collect(),
            stream: vec![7, 8, 9],
            dostore: 1_750_000_000,
        }
    }

    fn kf_record(v_id: u64) -> KeyFrameRecord {
        KeyFrameRecord {
            i_name: format!("v{v_id}_kf"),
            image: vec![3u8; 2000],
            min: 0,
            max: 127,
            sch: "RGB 256 1".into(),
            glcm: "GLCM 1 2 3 4 5 6".into(),
            gabor: "gabor 60 0".into(),
            tamura: "Tamura 18 0 0".into(),
            acc: "ACC 4 0".into(),
            naive: "NaiveVector".into(),
            srg: "SRG 1 0 1".into(),
            majorregions: 1,
            v_id,
        }
    }

    #[test]
    fn vacuum_preserves_all_live_data_and_ids() {
        let mut db = CbvrDatabase::in_memory().unwrap();
        let v1 = db.insert_video(&video_record("keep1", 10_000)).unwrap();
        let v2 = db.insert_video(&video_record("gone", 10_000)).unwrap();
        let v3 = db.insert_video(&video_record("keep3", 10_000)).unwrap();
        let k1 = db.insert_key_frame(&kf_record(v1)).unwrap();
        db.insert_key_frame(&kf_record(v2)).unwrap();
        let k3 = db.insert_key_frame(&kf_record(v3)).unwrap();
        db.delete_video(v2).unwrap();

        let mut fresh = db
            .vacuum_into(MemBackend::new(), MemBackend::new())
            .unwrap();
        assert_eq!(fresh.video_count().unwrap(), 2);
        assert_eq!(fresh.key_frame_count().unwrap(), 2);
        // Ids are preserved exactly.
        assert_eq!(fresh.get_video(v1).unwrap().v_name, "keep1");
        assert_eq!(fresh.get_video(v3).unwrap().v_name, "keep3");
        assert!(fresh.get_video(v2).is_err());
        assert_eq!(fresh.get_key_frame(k1).unwrap().v_id, v1);
        assert_eq!(fresh.key_frames_of_video(v3).unwrap(), vec![k3]);
        // Blob contents intact.
        let full = fresh.get_video(v1).unwrap();
        assert_eq!(fresh.read_video_bytes(&full.row).unwrap().len(), 10_000);
        // Counters continue from where the old database left off.
        let v4 = fresh.insert_video(&video_record("new", 10)).unwrap();
        assert_eq!(v4, 4);
        let stats = fresh.stats().unwrap();
        assert_eq!(stats.videos, 3);
        assert_eq!(stats.next_v_id, 5);
    }

    #[test]
    fn vacuum_shrinks_churned_database() {
        let mut db = CbvrDatabase::in_memory().unwrap();
        // Heavy churn: insert and delete large videos repeatedly.
        let keeper = db.insert_video(&video_record("keeper", 50_000)).unwrap();
        for round in 0..10 {
            let v = db
                .insert_video(&video_record(&format!("churn{round}"), 200_000))
                .unwrap();
            db.delete_video(v).unwrap();
        }
        let before = db.page_count();
        let mut fresh = db
            .vacuum_into(MemBackend::new(), MemBackend::new())
            .unwrap();
        let after = fresh.page_count();
        assert!(
            after < before / 2,
            "vacuum should shrink: {before} -> {after}"
        );
        assert_eq!(fresh.get_video(keeper).unwrap().v_name, "keeper");
    }

    #[test]
    fn vacuumed_database_survives_reopen() {
        let data = MemBackend::new();
        let wal = MemBackend::new();
        {
            let mut db = CbvrDatabase::in_memory().unwrap();
            let v = db.insert_video(&video_record("v", 5_000)).unwrap();
            db.insert_key_frame(&kf_record(v)).unwrap();
            db.vacuum_into(data.share(), wal.share()).unwrap();
        }
        let mut reopened = CbvrDatabase::open(data.share(), wal.share()).unwrap();
        assert_eq!(reopened.video_count().unwrap(), 1);
        assert_eq!(reopened.key_frame_count().unwrap(), 1);
    }

    #[test]
    fn stats_reflect_contents() {
        let mut db = CbvrDatabase::in_memory().unwrap();
        let s0 = db.stats().unwrap();
        assert_eq!(s0.videos, 0);
        assert_eq!(s0.key_frames, 0);
        let v = db.insert_video(&video_record("v", 100)).unwrap();
        db.insert_key_frame(&kf_record(v)).unwrap();
        let s1 = db.stats().unwrap();
        assert_eq!(s1.videos, 1);
        assert_eq!(s1.key_frames, 1);
        assert!(s1.pages > s0.pages);
        assert_eq!(s1.next_v_id, 2);
        assert_eq!(s1.next_i_id, 2);
    }
}
