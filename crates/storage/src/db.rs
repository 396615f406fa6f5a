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
use crate::error::{Result, StorageError};
use crate::heap::{free_blob, read_blob, write_blob, BlobRef};
use crate::page::PageId;
use crate::pager::{Pager, DEFAULT_CACHE_PAGES, USER_META_LEN};
use crate::tables::{
    decode_key_frame_row, decode_video_row, encode_key_frame_row, encode_video_row, KeyFrameRecord,
    KeyFrameRow, VideoRecord, VideoRow, VideoRowFull,
};
use std::path::Path;

const TAG_INLINE: u8 = 0;
const TAG_SPILLED: u8 = 1;

/// Little-endian `u32` from a checked slice: stored bytes are parsed all
/// over this module, and a truncated buffer must surface as corruption,
/// never a panic.
fn le_u32_at(buf: &[u8], at: usize) -> Result<u32> {
    let Some(bytes) = buf.get(at..at + 4) else {
        return Err(StorageError::Corruption(format!("stored value truncated at byte {at}")));
    };
    let mut b = [0u8; 4];
    b.copy_from_slice(bytes);
    Ok(u32::from_le_bytes(b))
}

/// Little-endian `u64`, same contract as [`le_u32_at`].
fn le_u64_at(buf: &[u8], at: usize) -> Result<u64> {
    let Some(bytes) = buf.get(at..at + 8) else {
        return Err(StorageError::Corruption(format!("stored value truncated at byte {at}")));
    };
    let mut b = [0u8; 8];
    b.copy_from_slice(bytes);
    Ok(u64::from_le_bytes(b))
}

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

/// The CBVR database over any backend.
pub struct CbvrDatabase<B: Backend> {
    pager: Pager<B>,
    video_store: BTree,
    key_frames: BTree,
    kf_by_video: BTree,
    /// Catalog manifest; `None` until the first segment record is
    /// written (pre-manifest databases never allocate the tree).
    manifest: Option<BTree>,
    next_v_id: u64,
    next_i_id: u64,
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
        let meta = *pager.user_meta();
        let video_root = le_u32_at(&meta, 0)?;
        let mut db = if video_root == 0 {
            // Fresh database: create the trees and persist the catalog.
            let video_store = BTree::create(&mut pager)?;
            let key_frames = BTree::create(&mut pager)?;
            let kf_by_video = BTree::create(&mut pager)?;
            let mut db = CbvrDatabase {
                pager,
                video_store,
                key_frames,
                kf_by_video,
                manifest: None,
                next_v_id: 1,
                next_i_id: 1,
                autocommit: true,
            };
            db.save_meta();
            db.pager.commit()?;
            db
        } else {
            let key_root = le_u32_at(&meta, 4)?;
            let sec_root = le_u32_at(&meta, 8)?;
            let manifest_root = le_u32_at(&meta, 12)?;
            let next_v_id = le_u64_at(&meta, 16)?;
            let next_i_id = le_u64_at(&meta, 24)?;
            CbvrDatabase {
                pager,
                video_store: BTree::load(video_root),
                key_frames: BTree::load(key_root),
                kf_by_video: BTree::load(sec_root),
                manifest: (manifest_root != 0).then(|| BTree::load(manifest_root)),
                next_v_id,
                next_i_id,
                autocommit: true,
            }
        };
        db.autocommit = true;
        Ok(db)
    }

    fn save_meta(&mut self) {
        let mut meta = [0u8; USER_META_LEN];
        meta[0..4].copy_from_slice(&self.video_store.root().to_le_bytes());
        meta[4..8].copy_from_slice(&self.key_frames.root().to_le_bytes());
        meta[8..12].copy_from_slice(&self.kf_by_video.root().to_le_bytes());
        meta[12..16]
            .copy_from_slice(&self.manifest.as_ref().map_or(0, BTree::root).to_le_bytes());
        meta[16..24].copy_from_slice(&self.next_v_id.to_le_bytes());
        meta[24..32].copy_from_slice(&self.next_i_id.to_le_bytes());
        self.pager.set_user_meta(meta);
    }

    fn reload_meta(&mut self) {
        // The user-meta area is a fixed 64-byte array, so these reads
        // cannot fail; fall back to an empty root only if the layout
        // ever shrinks below the offsets used here.
        let meta = *self.pager.user_meta();
        self.video_store = BTree::load(le_u32_at(&meta, 0).unwrap_or(0) as PageId);
        self.key_frames = BTree::load(le_u32_at(&meta, 4).unwrap_or(0) as PageId);
        self.kf_by_video = BTree::load(le_u32_at(&meta, 8).unwrap_or(0) as PageId);
        let manifest_root = le_u32_at(&meta, 12).unwrap_or(0);
        self.manifest = (manifest_root != 0).then(|| BTree::load(manifest_root as PageId));
        self.next_v_id = le_u64_at(&meta, 16).unwrap_or(0);
        self.next_i_id = le_u64_at(&meta, 24).unwrap_or(0);
    }

    fn finish_op<T>(&mut self, result: Result<T>) -> Result<T> {
        if !self.autocommit {
            return result;
        }
        match result {
            Ok(v) => {
                self.save_meta();
                match self.pager.commit() {
                    Ok(()) => Ok(v),
                    Err(e) => {
                        // The commit never reached the WAL: roll the
                        // staged writes back so the next operation builds
                        // on the committed state, not on a half-applied
                        // one that would leak into its commit.
                        self.pager.abort()?;
                        self.reload_meta();
                        Err(e)
                    }
                }
            }
            Err(e) => {
                self.pager.abort()?;
                self.reload_meta();
                Err(e)
            }
        }
    }

    /// True while a durable commit is still awaiting propagation to the
    /// data file (see [`crate::pager::Pager::wal_pending`]): reads and
    /// further commits keep working from the WAL + cache, and
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

    // ---- row spill helpers -------------------------------------------

    fn store_row(&mut self, tree: &mut BTree, key: u64, row: &[u8], overwrite: bool) -> Result<()> {
        // tag + payload must fit a cell, else spill to the heap.
        let value = if row.len() < MAX_VALUE_LEN {
            let mut v = Vec::with_capacity(row.len() + 1);
            v.push(TAG_INLINE);
            v.extend_from_slice(row);
            v
        } else {
            let blob = write_blob(&mut self.pager, row)?;
            let mut v = Vec::with_capacity(13);
            v.push(TAG_SPILLED);
            v.extend_from_slice(&blob.head.to_le_bytes());
            v.extend_from_slice(&blob.len.to_le_bytes());
            v
        };
        if overwrite {
            tree.upsert(&mut self.pager, key, &value)
        } else {
            tree.insert(&mut self.pager, key, &value)
        }
    }

    fn load_row_value(&mut self, value: &[u8]) -> Result<Vec<u8>> {
        match value.first() {
            Some(&TAG_INLINE) => Ok(value[1..].to_vec()),
            Some(&TAG_SPILLED) => {
                if value.len() != 13 {
                    return Err(StorageError::Corruption("bad spilled row ref".into()));
                }
                let head = le_u32_at(value, 1)?;
                let len = le_u64_at(value, 5)?;
                read_blob(&mut self.pager, BlobRef { head, len })
            }
            _ => Err(StorageError::Corruption("empty row value".into())),
        }
    }

    fn free_row_value(&mut self, value: &[u8]) -> Result<()> {
        if value.first() == Some(&TAG_SPILLED) && value.len() == 13 {
            let head = le_u32_at(value, 1)?;
            let len = le_u64_at(value, 5)?;
            free_blob(&mut self.pager, BlobRef { head, len })?;
        }
        Ok(())
    }

    // ---- VIDEO_STORE --------------------------------------------------

    /// Insert a video; returns the assigned `v_id`.
    pub fn insert_video(&mut self, record: &VideoRecord) -> Result<u64> {
        let op = |db: &mut Self| {
            let v_id = db.next_v_id;
            db.next_v_id += 1;
            let video = write_blob(&mut db.pager, &record.video)?;
            let stream = write_blob(&mut db.pager, &record.stream)?;
            let full = VideoRowFull {
                row: VideoRow { v_id, video, stream, dostore: record.dostore },
                v_name: record.v_name.clone(),
            };
            let buf = encode_video_row(&full);
            let mut tree = db.video_store;
            db.store_row(&mut tree, v_id, &buf, false)?;
            db.video_store = tree;
            Ok(v_id)
        };
        let result = op(self);
        self.finish_op(result)
    }

    /// Fetch a video row (metadata + blob refs).
    pub fn get_video(&mut self, v_id: u64) -> Result<VideoRowFull> {
        let value = self
            .video_store
            .get(&mut self.pager, v_id)?
            .ok_or(StorageError::NotFound(v_id))?;
        let row = self.load_row_value(&value)?;
        decode_video_row(&row)
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
            let mut full = db.get_video(v_id)?;
            full.v_name = new_name.to_string();
            let value = db
                .video_store
                .get(&mut db.pager, v_id)?
                .ok_or(StorageError::NotFound(v_id))?;
            db.free_row_value(&value)?;
            let buf = encode_video_row(&full);
            let mut tree = db.video_store;
            db.store_row(&mut tree, v_id, &buf, true)?;
            db.video_store = tree;
            Ok(())
        };
        let result = op(self);
        self.finish_op(result)
    }

    /// Delete a video, its blobs and (cascade) all its key frames.
    pub fn delete_video(&mut self, v_id: u64) -> Result<()> {
        let op = |db: &mut Self| {
            let full = db.get_video(v_id)?;
            // Cascade to key frames first.
            let kf_ids = db.key_frames_of_video(v_id)?;
            for i_id in kf_ids {
                db.delete_key_frame_inner(i_id)?;
            }
            free_blob(&mut db.pager, full.row.video)?;
            free_blob(&mut db.pager, full.row.stream)?;
            let value = db
                .video_store
                .get(&mut db.pager, v_id)?
                .ok_or(StorageError::NotFound(v_id))?;
            db.free_row_value(&value)?;
            let mut tree = db.video_store;
            tree.delete(&mut db.pager, v_id)?;
            db.video_store = tree;
            Ok(())
        };
        let result = op(self);
        self.finish_op(result)
    }

    /// List `(v_id, v_name, dostore)` of every stored video.
    pub fn list_videos(&mut self) -> Result<Vec<(u64, String, u64)>> {
        let tree = self.video_store;
        let mut values = Vec::new();
        tree.scan_from(&mut self.pager, 0, |_, v| {
            values.push(v.to_vec());
            true
        })?;
        let mut out = Vec::with_capacity(values.len());
        for value in values {
            let row = self.load_row_value(&value)?;
            let full = decode_video_row(&row)?;
            out.push((full.row.v_id, full.v_name, full.row.dostore));
        }
        Ok(out)
    }

    /// Number of stored videos.
    pub fn video_count(&mut self) -> Result<usize> {
        self.video_store.len(&mut self.pager)
    }

    // ---- KEY_FRAMES ----------------------------------------------------

    fn composite(v_id: u64, i_id: u64) -> Result<u64> {
        if v_id >= (1 << 32) || i_id >= (1 << 32) {
            return Err(StorageError::InvalidState(format!(
                "ids exceed 32 bits: v_id={v_id}, i_id={i_id}"
            )));
        }
        Ok((v_id << 32) | i_id)
    }

    /// Insert a key frame; returns the assigned `i_id`.
    pub fn insert_key_frame(&mut self, record: &KeyFrameRecord) -> Result<u64> {
        let op = |db: &mut Self| {
            if !db.video_store.contains(&mut db.pager, record.v_id)? {
                return Err(StorageError::NotFound(record.v_id));
            }
            let i_id = db.next_i_id;
            db.next_i_id += 1;
            let image = write_blob(&mut db.pager, &record.image)?;
            let row = KeyFrameRow {
                i_id,
                i_name: record.i_name.clone(),
                image,
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
            let buf = encode_key_frame_row(&row);
            let mut tree = db.key_frames;
            db.store_row(&mut tree, i_id, &buf, false)?;
            db.key_frames = tree;
            let mut sec = db.kf_by_video;
            sec.insert(&mut db.pager, Self::composite(record.v_id, i_id)?, &[])?;
            db.kf_by_video = sec;
            Ok(i_id)
        };
        let result = op(self);
        self.finish_op(result)
    }

    /// Fetch a key-frame row.
    pub fn get_key_frame(&mut self, i_id: u64) -> Result<KeyFrameRow> {
        let value = self
            .key_frames
            .get(&mut self.pager, i_id)?
            .ok_or(StorageError::NotFound(i_id))?;
        let row = self.load_row_value(&value)?;
        decode_key_frame_row(&row)
    }

    /// Materialise the image bytes of a key-frame row.
    pub fn read_image_bytes(&mut self, row: &KeyFrameRow) -> Result<Vec<u8>> {
        read_blob(&mut self.pager, row.image)
    }

    /// The `i_id`s of all key frames belonging to a video, via the
    /// secondary index.
    pub fn key_frames_of_video(&mut self, v_id: u64) -> Result<Vec<u64>> {
        let start = Self::composite(v_id, 0)?;
        let tree = self.kf_by_video;
        let mut out = Vec::new();
        tree.scan_from(&mut self.pager, start, |k, _| {
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
        let tree = self.key_frames;
        let mut values = Vec::new();
        tree.scan_from(&mut self.pager, 0, |_, v| {
            values.push(v.to_vec());
            true
        })?;
        for value in values {
            let row = self.load_row_value(&value)?;
            let row = decode_key_frame_row(&row)?;
            if !visit(&row) {
                break;
            }
        }
        Ok(())
    }

    fn delete_key_frame_inner(&mut self, i_id: u64) -> Result<()> {
        let row = self.get_key_frame(i_id)?;
        free_blob(&mut self.pager, row.image)?;
        let value = self
            .key_frames
            .get(&mut self.pager, i_id)?
            .ok_or(StorageError::NotFound(i_id))?;
        self.free_row_value(&value)?;
        let mut tree = self.key_frames;
        tree.delete(&mut self.pager, i_id)?;
        self.key_frames = tree;
        let mut sec = self.kf_by_video;
        sec.delete(&mut self.pager, Self::composite(row.v_id, i_id)?)?;
        self.kf_by_video = sec;
        Ok(())
    }

    /// Delete one key frame.
    pub fn delete_key_frame(&mut self, i_id: u64) -> Result<()> {
        let result = self.delete_key_frame_inner(i_id);
        self.finish_op(result)
    }

    /// Number of stored key frames.
    pub fn key_frame_count(&mut self) -> Result<usize> {
        self.key_frames.len(&mut self.pager)
    }

    // ---- catalog manifest ---------------------------------------------

    fn encode_manifest_value(segment: &ManifestSegment) -> [u8; 16] {
        let mut value = [0u8; 16];
        value[0..8].copy_from_slice(&segment.max_i_id.to_le_bytes());
        value[8..16].copy_from_slice(&segment.rows.to_le_bytes());
        value
    }

    /// The manifest tree, created on first use (legacy databases never
    /// wrote one; the zero root in the meta block marks its absence).
    fn manifest_tree(&mut self) -> Result<BTree> {
        if let Some(tree) = self.manifest {
            return Ok(tree);
        }
        let tree = BTree::create(&mut self.pager)?;
        self.manifest = Some(tree);
        Ok(tree)
    }

    /// Record one sealed catalog segment. Ingestion calls this inside
    /// the same [`CbvrDatabase::run_batch`] that inserts the segment's
    /// rows, so the manifest and the rows commit atomically: a crash
    /// mid-ingest rolls both back to the last published snapshot.
    pub fn append_manifest_segment(&mut self, segment: ManifestSegment) -> Result<()> {
        let op = |db: &mut Self| {
            if segment.min_i_id > segment.max_i_id {
                return Err(StorageError::InvalidState(format!(
                    "manifest segment range inverted: {}..{}",
                    segment.min_i_id, segment.max_i_id
                )));
            }
            let mut tree = db.manifest_tree()?;
            tree.upsert(&mut db.pager, segment.min_i_id, &Self::encode_manifest_value(&segment))?;
            db.manifest = Some(tree);
            Ok(())
        };
        let result = op(self);
        self.finish_op(result)
    }

    /// Every manifest segment, ascending by `min_i_id` — which is also
    /// catalog order, because ids are assigned monotonically.
    pub fn list_manifest(&mut self) -> Result<Vec<ManifestSegment>> {
        let Some(tree) = self.manifest else {
            return Ok(Vec::new());
        };
        let mut out = Vec::new();
        let mut bad = false;
        tree.scan_from(&mut self.pager, 0, |k, v| {
            if v.len() != 16 {
                bad = true;
                return false;
            }
            out.push(ManifestSegment {
                min_i_id: k,
                max_i_id: u64::from_le_bytes(v[0..8].try_into().expect("8 bytes")),
                rows: u64::from_le_bytes(v[8..16].try_into().expect("8 bytes")),
            });
            true
        })?;
        if bad {
            return Err(StorageError::Corruption("bad manifest record".into()));
        }
        Ok(out)
    }

    /// Atomically replace the whole manifest (the compaction publish:
    /// many small segment records become one merged record).
    pub fn replace_manifest(&mut self, segments: &[ManifestSegment]) -> Result<()> {
        let old = self.list_manifest()?;
        let op = |db: &mut Self| {
            let mut tree = db.manifest_tree()?;
            for segment in &old {
                tree.delete(&mut db.pager, segment.min_i_id)?;
            }
            for segment in segments {
                if segment.min_i_id > segment.max_i_id {
                    return Err(StorageError::InvalidState(format!(
                        "manifest segment range inverted: {}..{}",
                        segment.min_i_id, segment.max_i_id
                    )));
                }
                tree.upsert(
                    &mut db.pager,
                    segment.min_i_id,
                    &Self::encode_manifest_value(segment),
                )?;
            }
            db.manifest = Some(tree);
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
            next_v_id: self.next_v_id,
            next_i_id: self.next_i_id,
        })
    }

    /// Insert a video under an explicit id (vacuum/restore path).
    fn insert_video_preserving_id(&mut self, v_id: u64, full: &VideoRowFull, video: &[u8], stream: &[u8]) -> Result<()> {
        let video_ref = write_blob(&mut self.pager, video)?;
        let stream_ref = write_blob(&mut self.pager, stream)?;
        let row = VideoRowFull {
            row: VideoRow { v_id, video: video_ref, stream: stream_ref, dostore: full.row.dostore },
            v_name: full.v_name.clone(),
        };
        let buf = encode_video_row(&row);
        let mut tree = self.video_store;
        self.store_row(&mut tree, v_id, &buf, false)?;
        self.video_store = tree;
        Ok(())
    }

    /// Insert a key frame under an explicit id (vacuum/restore path).
    fn insert_key_frame_preserving_id(&mut self, row: &KeyFrameRow, image: &[u8]) -> Result<()> {
        let image_ref = write_blob(&mut self.pager, image)?;
        let mut copy = row.clone();
        copy.image = image_ref;
        let buf = encode_key_frame_row(&copy);
        let mut tree = self.key_frames;
        self.store_row(&mut tree, copy.i_id, &buf, false)?;
        self.key_frames = tree;
        let mut sec = self.kf_by_video;
        sec.insert(&mut self.pager, Self::composite(copy.v_id, copy.i_id)?, &[])?;
        self.kf_by_video = sec;
        Ok(())
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
        let next_v_id = self.next_v_id;
        let next_i_id = self.next_i_id;

        fresh.autocommit = false;
        let copy = |src: &mut Self, dst: &mut CbvrDatabase<B2>| -> Result<()> {
            let mut kf_span: Option<(u64, u64, u64)> = None;
            for (v_id, _, _) in &videos {
                let full = src.get_video(*v_id)?;
                let video_bytes = src.read_video_bytes(&full.row)?;
                let stream_bytes = src.read_stream_bytes(&full.row)?;
                dst.insert_video_preserving_id(*v_id, &full, &video_bytes, &stream_bytes)?;
                for i_id in src.key_frames_of_video(*v_id)? {
                    let row = src.get_key_frame(i_id)?;
                    let image = src.read_image_bytes(&row)?;
                    dst.insert_key_frame_preserving_id(&row, &image)?;
                    kf_span = Some(match kf_span {
                        None => (i_id, i_id, 1),
                        Some((min, max, rows)) => (min.min(i_id), max.max(i_id), rows + 1),
                    });
                }
            }
            // Vacuum compacts the manifest too: one segment spanning all
            // surviving rows (dead ranges would otherwise linger).
            if let Some((min_i_id, max_i_id, rows)) = kf_span {
                dst.replace_manifest(&[ManifestSegment { min_i_id, max_i_id, rows }])?;
            }
            dst.next_v_id = next_v_id;
            dst.next_i_id = next_i_id;
            Ok(())
        };
        let result = copy(self, &mut fresh);
        fresh.autocommit = true;
        match result {
            Ok(()) => {
                fresh.save_meta();
                fresh.pager.commit()?;
                Ok(fresh)
            }
            Err(e) => Err(e),
        }
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
        assert!(matches!(db.get_key_frame(99), Err(StorageError::NotFound(99))));
        assert!(matches!(db.rename_video(1, "x"), Err(StorageError::NotFound(1))));
        assert!(matches!(db.delete_video(1), Err(StorageError::NotFound(1))));
        // Key frame for a video that does not exist.
        assert!(matches!(db.insert_key_frame(&kf_record(5, "kf")), Err(StorageError::NotFound(5))));
    }

    #[test]
    fn key_frames_with_secondary_index() {
        let mut db = CbvrDatabase::in_memory().unwrap();
        let v1 = db.insert_video(&video_record("v1", 10)).unwrap();
        let v2 = db.insert_video(&video_record("v2", 10)).unwrap();
        let mut v1_ids = Vec::new();
        for i in 0..5 {
            v1_ids.push(db.insert_key_frame(&kf_record(v1, &format!("v1_kf_{i}"))).unwrap());
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
            db.insert_key_frame(&kf_record(v, &format!("kf{i}"))).unwrap();
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
        // Reads keep working from the pinned cache while degraded.
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
            assert!(db.list_manifest().unwrap().is_empty(), "fresh db has no manifest");
            db.append_manifest_segment(ManifestSegment { min_i_id: 1, max_i_id: 4, rows: 4 })
                .unwrap();
            db.append_manifest_segment(ManifestSegment { min_i_id: 5, max_i_id: 9, rows: 5 })
                .unwrap();
        }
        let mut db = CbvrDatabase::open(data.share(), wal.share()).unwrap();
        let segments = db.list_manifest().unwrap();
        assert_eq!(
            segments,
            vec![
                ManifestSegment { min_i_id: 1, max_i_id: 4, rows: 4 },
                ManifestSegment { min_i_id: 5, max_i_id: 9, rows: 5 },
            ]
        );
        assert_eq!(db.stats().unwrap().manifest_segments, 2);
    }

    #[test]
    fn replace_manifest_swaps_whole_set() {
        let mut db = CbvrDatabase::in_memory().unwrap();
        db.append_manifest_segment(ManifestSegment { min_i_id: 1, max_i_id: 3, rows: 3 }).unwrap();
        db.append_manifest_segment(ManifestSegment { min_i_id: 4, max_i_id: 6, rows: 3 }).unwrap();
        db.replace_manifest(&[ManifestSegment { min_i_id: 1, max_i_id: 6, rows: 6 }]).unwrap();
        assert_eq!(
            db.list_manifest().unwrap(),
            vec![ManifestSegment { min_i_id: 1, max_i_id: 6, rows: 6 }]
        );
        // Replacing with the empty set clears the manifest entirely.
        db.replace_manifest(&[]).unwrap();
        assert!(db.list_manifest().unwrap().is_empty());
    }

    #[test]
    fn inverted_manifest_range_rejected_without_side_effects() {
        let mut db = CbvrDatabase::in_memory().unwrap();
        let bad = ManifestSegment { min_i_id: 9, max_i_id: 2, rows: 1 };
        assert!(db.append_manifest_segment(bad).is_err());
        assert!(db.replace_manifest(&[bad]).is_err());
        assert!(db.list_manifest().unwrap().is_empty());
    }

    #[test]
    fn manifest_rolls_back_with_failed_batch() {
        let mut db = CbvrDatabase::in_memory().unwrap();
        let result: Result<()> = db.run_batch(|db| {
            db.append_manifest_segment(ManifestSegment { min_i_id: 1, max_i_id: 2, rows: 2 })?;
            Err(StorageError::InvalidState("user abort".into()))
        });
        assert!(result.is_err());
        assert!(db.list_manifest().unwrap().is_empty(), "manifest record must roll back");
        // The tree can still be created and used after the rollback.
        db.append_manifest_segment(ManifestSegment { min_i_id: 1, max_i_id: 2, rows: 2 }).unwrap();
        assert_eq!(db.list_manifest().unwrap().len(), 1);
    }

    #[test]
    fn list_videos_in_id_order() {
        let mut db = CbvrDatabase::in_memory().unwrap();
        for name in ["c", "a", "b"] {
            db.insert_video(&video_record(name, 10)).unwrap();
        }
        let listed = db.list_videos().unwrap();
        assert_eq!(listed.iter().map(|(id, _, _)| *id).collect::<Vec<_>>(), vec![1, 2, 3]);
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

        let mut fresh = db.vacuum_into(MemBackend::new(), MemBackend::new()).unwrap();
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
            let v = db.insert_video(&video_record(&format!("churn{round}"), 200_000)).unwrap();
            db.delete_video(v).unwrap();
        }
        let before = db.page_count();
        let mut fresh = db.vacuum_into(MemBackend::new(), MemBackend::new()).unwrap();
        let after = fresh.page_count();
        assert!(after < before / 2, "vacuum should shrink: {before} -> {after}");
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
