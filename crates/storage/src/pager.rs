//! Page maps, allocation and the commit protocol.
//!
//! The pager owns the data file and the WAL and enforces the engine's
//! durability discipline (no-steal / force). It keeps pages in three
//! maps, each with one job:
//!
//! - `dirty` stages the writes made since the last commit. They never
//!   reach the data file before commit (no-steal), and
//!   [`Pager::abort`] simply drops them;
//! - `unpropagated` holds committed images the data file may not hold
//!   yet. It is empty except while the pager is *degraded*
//!   ([`Pager::wal_pending`]);
//! - a bounded CLOCK cache holds clean pages, copies of what the data
//!   file holds. It never sees a staged or unpropagated page.
//!
//! Reads look in that order, then go to the data file.
//! [`Pager::commit`] appends the staged images to the WAL (fsync), moves
//! them into `unpropagated` and calls [`Pager::checkpoint`], which writes
//! them to the data file (fsync), truncates the WAL and moves each image
//! into the clean cache. [`Pager::open`] pushes any committed WAL tail
//! through the same checkpoint before anything else, making a crash
//! between the two fsyncs invisible.
//!
//! The WAL fsync is the commit point. Once [`crate::wal::Wal`] reports
//! the record durable, [`Pager::commit`] returns `Ok` even if the
//! checkpoint fails: the images stay readable in `unpropagated`, the WAL
//! keeps them, and every later commit (or an explicit
//! [`Pager::checkpoint`]) retries. A crash while degraded is exactly the
//! crash-between-fsyncs case recovery already handles.
//!
//! Transient I/O errors (interrupted syscalls and friends) are absorbed
//! by bounded retry-with-backoff ([`crate::fault::with_retry`]), counted
//! in `storage.fault.retried`.
//!
//! Page 0 is the pager's meta page: magic, page count, free-list head and
//! a 64-byte user area the database layer uses for table roots and id
//! counters.

use crate::backend::Backend;
use crate::codec::{Reader, Writer};
use crate::error::{Result, StorageError};
use crate::fault::{with_retry, FaultCounters};
use crate::page::{Page, PageId, NO_PAGE, PAGE_SIZE};
use crate::telemetry::StorageTelemetry;
use crate::wal::Wal;
use std::collections::{BTreeMap, HashMap};

const META_MAGIC: u32 = 0x4342_5652; // "CBVR"
const META_VERSION: u32 = 1;
/// Size of the user-meta area on page 0.
pub const USER_META_LEN: usize = 64;
const USER_META_OFFSET: usize = 16;

/// Default cache capacity in pages (4 MiB).
pub const DEFAULT_CACHE_PAGES: usize = 1024;

/// One slot of the clean-page cache.
struct Frame {
    id: PageId,
    page: Page,
    /// Set by a hit, cleared as the hand passes: a page read again since
    /// the hand last passed it survives one more sweep.
    referenced: bool,
}

/// A bounded cache of clean pages under the CLOCK (second-chance)
/// policy. A miss on a full cache advances the hand, clearing set
/// reference bits, and replaces the first frame whose bit is clear.
struct ClockCache {
    frames: Vec<Frame>,
    slots: HashMap<PageId, usize>,
    hand: usize,
    capacity: usize,
}

impl ClockCache {
    fn new(capacity: usize) -> ClockCache {
        ClockCache {
            frames: Vec::new(),
            slots: HashMap::new(),
            hand: 0,
            capacity,
        }
    }

    fn get(&mut self, id: PageId) -> Option<&Page> {
        let frame = &mut self.frames[*self.slots.get(&id)?];
        frame.referenced = true;
        Some(&frame.page)
    }

    /// Cache `page` as `id`'s clean image, replacing any older copy.
    /// Returns true when another page was evicted to make room.
    fn insert(&mut self, id: PageId, page: Page) -> bool {
        if let Some(&slot) = self.slots.get(&id) {
            self.frames[slot].page = page;
            return false;
        }
        if self.frames.len() < self.capacity {
            self.slots.insert(id, self.frames.len());
            self.frames.push(Frame {
                id,
                page,
                referenced: false,
            });
            return false;
        }
        while std::mem::take(&mut self.frames[self.hand].referenced) {
            self.hand = (self.hand + 1) % self.frames.len();
        }
        let fresh = Frame {
            id,
            page,
            referenced: false,
        };
        let victim = std::mem::replace(&mut self.frames[self.hand], fresh);
        self.slots.remove(&victim.id);
        self.slots.insert(id, self.hand);
        self.hand = (self.hand + 1) % self.frames.len();
        true
    }
}

/// The meta fields as of the last durable commit. [`Pager::abort`]
/// restores from this snapshot instead of re-reading page 0: while a
/// commit is only partially propagated, the data file's meta page may be
/// stale or torn, but this snapshot never is.
#[derive(Clone, Copy)]
struct CommittedMeta {
    page_count: u32,
    free_head: PageId,
    user_meta: [u8; USER_META_LEN],
}

/// The pager.
pub struct Pager<B: Backend> {
    data: B,
    wal: Wal<B>,
    /// Writes staged since the last commit, in page order (the order of
    /// the WAL record).
    dirty: BTreeMap<PageId, Page>,
    /// Committed images the data file may not hold yet (page 0 included
    /// when the meta changed); non-empty only while degraded.
    unpropagated: BTreeMap<PageId, Page>,
    clean: ClockCache,
    // Meta state (mirrors page 0).
    page_count: u32,
    free_head: PageId,
    user_meta: [u8; USER_META_LEN],
    meta_dirty: bool,
    committed: CommittedMeta,
    telemetry: StorageTelemetry,
    fault_counters: FaultCounters,
}

impl<B: Backend> Pager<B> {
    /// Open (or create) a paged store, running WAL recovery first.
    pub fn open(data: B, wal_backend: B, capacity: usize) -> Result<Pager<B>> {
        let mut wal = Wal::new(wal_backend);
        let (images, replayed) = wal.recover_records()?;
        let mut pager = Pager {
            data,
            wal,
            dirty: BTreeMap::new(),
            // Later records win.
            unpropagated: images.into_iter().collect(),
            clean: ClockCache::new(capacity.max(8)),
            page_count: 1,
            free_head: NO_PAGE,
            user_meta: [0u8; USER_META_LEN],
            meta_dirty: false,
            committed: CommittedMeta {
                page_count: 1,
                free_head: NO_PAGE,
                user_meta: [0u8; USER_META_LEN],
            },
            telemetry: StorageTelemetry {
                wal_replays: replayed,
                ..StorageTelemetry::default()
            },
            fault_counters: FaultCounters::default(),
        };

        // Recovery: push committed images into the data file.
        pager.checkpoint()?;
        if pager.data.is_empty()? {
            // Fresh store: write the initial meta page durably.
            pager.meta_dirty = true;
            pager.commit()?;
        } else {
            pager.load_meta()?;
        }
        Ok(pager)
    }

    fn load_meta(&mut self) -> Result<()> {
        let mut bytes = vec![0u8; PAGE_SIZE];
        let Pager {
            data,
            fault_counters,
            ..
        } = self;
        with_retry(fault_counters, || data.read_at(0, &mut bytes))
            .map_err(|e| e.with_context("reading meta page"))?;
        let mut r = Reader::new(&bytes);
        let magic = r.u32()?;
        if magic != META_MAGIC {
            return Err(StorageError::Corruption(format!(
                "bad meta magic {magic:#x}"
            )));
        }
        let version = r.u32()?;
        if version != META_VERSION {
            return Err(StorageError::Corruption(format!(
                "unsupported version {version}"
            )));
        }
        self.page_count = r.u32()?;
        self.free_head = r.u32()?;
        self.user_meta.copy_from_slice(r.take(USER_META_LEN)?);
        self.meta_dirty = false;
        self.committed = CommittedMeta {
            page_count: self.page_count,
            free_head: self.free_head,
            user_meta: self.user_meta,
        };
        Ok(())
    }

    fn meta_page(&self) -> Result<Page> {
        let mut w = Writer::with_capacity(PAGE_SIZE);
        w.u32(META_MAGIC)
            .u32(META_VERSION)
            .u32(self.page_count)
            .u32(self.free_head);
        debug_assert_eq!(w.len(), USER_META_OFFSET);
        w.raw(&self.user_meta);
        w.into_page()
    }

    /// Total pages, including the meta page.
    pub fn page_count(&self) -> u32 {
        self.page_count
    }

    /// The 64-byte user-meta area (table roots, id counters).
    pub fn user_meta(&self) -> &[u8; USER_META_LEN] {
        &self.user_meta
    }

    /// Replace the user-meta area (takes effect at the next commit).
    pub fn set_user_meta(&mut self, meta: [u8; USER_META_LEN]) {
        if meta != self.user_meta {
            self.user_meta = meta;
            self.meta_dirty = true;
        }
    }

    fn check_range(&self, id: PageId) -> Result<()> {
        if id == 0 || id >= self.page_count {
            return Err(StorageError::Corruption(format!(
                "page {id} out of range (count {})",
                self.page_count
            )));
        }
        Ok(())
    }

    /// Read a page: staged writes first, then committed images the data
    /// file may lack, then the clean cache, then the data file.
    pub fn read_page(&mut self, id: PageId) -> Result<Page> {
        self.check_range(id)?;
        let held = self
            .dirty
            .get(&id)
            .or_else(|| self.unpropagated.get(&id))
            .or_else(|| self.clean.get(id));
        if let Some(page) = held {
            let page = page.clone();
            self.telemetry.cache_hits += 1;
            return Ok(page);
        }
        self.telemetry.cache_misses += 1;
        let mut page = Page::new();
        let offset = id as u64 * PAGE_SIZE as u64;
        let Pager {
            data,
            fault_counters,
            ..
        } = self;
        with_retry(fault_counters, || data.read_at(offset, page.as_bytes_mut()))
            .map_err(|e| e.with_context("reading data page"))?;
        if self.clean.insert(id, page.clone()) {
            self.telemetry.cache_evictions += 1;
        }
        Ok(page)
    }

    /// Stage a page write (visible to subsequent reads, durable at commit).
    pub fn write_page(&mut self, id: PageId, page: Page) -> Result<()> {
        self.check_range(id)?;
        self.telemetry.page_writes += 1;
        self.dirty.insert(id, page);
        Ok(())
    }

    /// Allocate a page: reuse the free list, else grow the file.
    pub fn allocate(&mut self) -> Result<PageId> {
        if self.free_head != NO_PAGE {
            let id = self.free_head;
            let page = self.read_page(id)?;
            self.free_head = Reader::new(page.as_bytes()).u32()?;
            self.meta_dirty = true;
            // Hand back a zeroed page.
            self.write_page(id, Page::new())?;
            return Ok(id);
        }
        let id = self.page_count;
        self.page_count += 1;
        self.meta_dirty = true;
        self.write_page(id, Page::new())?;
        Ok(id)
    }

    /// Return a page to the free list.
    pub fn free(&mut self, id: PageId) -> Result<()> {
        if id == 0 || id >= self.page_count {
            return Err(StorageError::Corruption(format!("cannot free page {id}")));
        }
        let mut w = Writer::with_capacity(PAGE_SIZE);
        w.u32(self.free_head);
        self.write_page(id, w.into_page()?)?;
        self.free_head = id;
        self.meta_dirty = true;
        Ok(())
    }

    /// Snapshot of the counters accumulated since open, including the
    /// fault/retry counters from both the data path and the WAL.
    pub fn telemetry(&self) -> StorageTelemetry {
        let mut t = self.telemetry;
        let mut faults = self.fault_counters;
        faults.merge(self.wal.fault_counters());
        t.fault_injected += faults.injected;
        t.fault_retried += faults.retried;
        t
    }

    /// Number of dirty pages staged for the next commit.
    pub fn dirty_count(&self) -> usize {
        self.dirty.len() + usize::from(self.meta_dirty)
    }

    /// True while a durable commit still awaits propagation to the data
    /// file (the degraded state; see the module docs).
    pub fn wal_pending(&self) -> bool {
        !self.unpropagated.is_empty()
    }

    /// Write every committed image the data file may lack, then move each
    /// into the clean cache, replacing any stale copy there. No-op when
    /// nothing is pending. Full page images, idempotent, safe to retry
    /// forever; open-time recovery and every commit end here.
    pub fn checkpoint(&mut self) -> Result<()> {
        if self.unpropagated.is_empty() {
            return Ok(());
        }
        self.apply_images()?;
        for (id, page) in std::mem::take(&mut self.unpropagated) {
            // Page 0 is read only by `open`, straight from the data file.
            if id != 0 && self.clean.insert(id, page) {
                self.telemetry.cache_evictions += 1;
            }
        }
        Ok(())
    }

    /// Write the unpropagated images to the data file, sync it, then
    /// truncate the WAL. The one path by which committed pages reach the
    /// data file.
    fn apply_images(&mut self) -> Result<()> {
        let Pager {
            data,
            fault_counters,
            unpropagated,
            ..
        } = self;
        for (id, page) in unpropagated.iter() {
            let offset = *id as u64 * PAGE_SIZE as u64;
            with_retry(fault_counters, || data.write_at(offset, page.as_bytes()))
                .map_err(|e| e.with_context("writing committed page"))?;
        }
        with_retry(fault_counters, || data.sync())
            .map_err(|e| e.with_context("syncing committed pages"))?;
        self.wal.reset()
    }

    /// Durably commit all staged writes: WAL append+fsync, then
    /// [`Pager::checkpoint`] (data write+fsync, WAL reset).
    ///
    /// The WAL fsync is the commit point: once the record is durable this
    /// returns `Ok` even if the checkpoint fails — the commit survives a
    /// crash via replay, and the pager stays degraded
    /// ([`Pager::wal_pending`]) until a later commit or
    /// [`Pager::checkpoint`] lands the images. An `Err` means the commit
    /// did NOT happen and the staged writes are still pending (abort to
    /// drop them).
    pub fn commit(&mut self) -> Result<()> {
        if self.dirty.is_empty() && !self.meta_dirty {
            // Nothing new; use the opportunity to retry a pending checkpoint.
            return self.checkpoint();
        }
        let meta = if self.meta_dirty {
            Some(self.meta_page()?)
        } else {
            None
        };
        let images: Vec<(PageId, &Page)> = meta
            .iter()
            .map(|m| (0, m))
            .chain(self.dirty.iter().map(|(&id, page)| (id, page)))
            .collect();
        let appended = self.wal.append_commit(&images)?;
        self.telemetry.wal_commits += 1;
        self.telemetry.wal_bytes += appended;

        // Commit point passed: the staged pages are now the durable
        // truth, whatever happens to the data file below.
        self.unpropagated.extend(meta.map(|m| (0, m)));
        self.unpropagated.append(&mut self.dirty);
        self.meta_dirty = false;
        self.committed = CommittedMeta {
            page_count: self.page_count,
            free_head: self.free_head,
            user_meta: self.user_meta,
        };
        // A failure here degrades rather than fails the commit: the WAL
        // holds the record and `unpropagated` keeps the pages readable
        // until the next commit or checkpoint, or open-time recovery
        // after a crash, lands them.
        let _ = self.checkpoint();
        Ok(())
    }

    /// Discard all staged writes, restoring the last committed state.
    /// Purely in-memory: the committed images the data file may lack
    /// stay in `unpropagated`, and the committed meta snapshot is
    /// authoritative even while the data file lags the WAL.
    pub fn abort(&mut self) {
        self.dirty.clear();
        self.page_count = self.committed.page_count;
        self.free_head = self.committed.free_head;
        self.user_meta = self.committed.user_meta;
        self.meta_dirty = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::fault::{FaultBackend, FaultInjector, FaultKind};

    fn open_mem() -> (Pager<MemBackend>, MemBackend, MemBackend) {
        let data = MemBackend::new();
        let wal = MemBackend::new();
        let pager = Pager::open(data.share(), wal.share(), 16).unwrap();
        (pager, data, wal)
    }

    fn page_of(fill: u8) -> Page {
        let mut p = Page::new();
        p.as_bytes_mut().fill(fill);
        p
    }

    #[test]
    fn allocate_write_read_commit_reopen() {
        let (mut pager, data, wal) = open_mem();
        let id = pager.allocate().unwrap();
        pager.write_page(id, page_of(7)).unwrap();
        pager.commit().unwrap();
        drop(pager);
        let mut pager = Pager::open(data.share(), wal.share(), 16).unwrap();
        assert_eq!(pager.read_page(id).unwrap(), page_of(7));
        assert_eq!(pager.page_count(), 2);
    }

    #[test]
    fn abort_discards_staged_writes() {
        let (mut pager, _, _) = open_mem();
        let id = pager.allocate().unwrap();
        pager.write_page(id, page_of(1)).unwrap();
        pager.commit().unwrap();
        pager.write_page(id, page_of(2)).unwrap();
        assert_eq!(pager.read_page(id).unwrap(), page_of(2), "dirty read");
        pager.abort();
        assert_eq!(pager.read_page(id).unwrap(), page_of(1), "rolled back");
    }

    #[test]
    fn abort_rolls_back_allocation() {
        let (mut pager, _, _) = open_mem();
        let before = pager.page_count();
        pager.allocate().unwrap();
        pager.abort();
        assert_eq!(pager.page_count(), before);
    }

    #[test]
    fn free_list_reuses_pages() {
        let (mut pager, _, _) = open_mem();
        let a = pager.allocate().unwrap();
        let _b = pager.allocate().unwrap();
        pager.commit().unwrap();
        pager.free(a).unwrap();
        pager.commit().unwrap();
        let c = pager.allocate().unwrap();
        assert_eq!(c, a, "freed page should be recycled");
        // Recycled page arrives zeroed.
        assert_eq!(pager.read_page(c).unwrap(), Page::new());
    }

    #[test]
    fn out_of_range_access_is_error() {
        let (mut pager, _, _) = open_mem();
        assert!(pager.read_page(0).is_err(), "meta page is private");
        assert!(pager.read_page(99).is_err());
        assert!(pager.write_page(99, Page::new()).is_err());
        assert!(pager.free(0).is_err());
    }

    #[test]
    fn user_meta_round_trips_through_reopen() {
        let (mut pager, data, wal) = open_mem();
        let mut meta = [0u8; USER_META_LEN];
        meta[0] = 0xAB;
        meta[63] = 0xCD;
        pager.set_user_meta(meta);
        pager.commit().unwrap();
        drop(pager);
        let pager = Pager::open(data.share(), wal.share(), 16).unwrap();
        assert_eq!(pager.user_meta()[0], 0xAB);
        assert_eq!(pager.user_meta()[63], 0xCD);
    }

    /// A pager over fault-wrapped handles onto `data` and `wal`, plus the
    /// (disarmed) injectors of the data file and the WAL.
    fn open_faulted(
        data: &MemBackend,
        wal: &MemBackend,
    ) -> (
        Pager<FaultBackend<MemBackend>>,
        FaultInjector,
        FaultInjector,
    ) {
        let (data_inj, wal_inj) = (FaultInjector::new(0), FaultInjector::new(0));
        let pager = Pager::open(
            FaultBackend::new(data.share(), data_inj.clone()),
            FaultBackend::new(wal.share(), wal_inj.clone()),
            16,
        )
        .unwrap();
        (pager, data_inj, wal_inj)
    }

    #[test]
    fn crash_before_data_write_recovers_from_wal() {
        let data = MemBackend::new();
        let wal = MemBackend::new();
        let (mut pager, faults, _) = open_faulted(&data, &wal);
        let id = pager.allocate().unwrap();
        pager.write_page(id, page_of(42)).unwrap();
        pager.commit().unwrap();
        // Stage a second commit, then crash after the WAL lands but
        // before any data-file write: the WAL fsync touches no data
        // backend operation, so kill the data backend at its next one.
        pager.write_page(id, page_of(43)).unwrap();
        faults.arm_after(1, FaultKind::Crash);
        // The WAL fsync is the commit point: the commit succeeds and
        // the pager degrades until the images can propagate.
        pager.commit().unwrap();
        assert!(
            pager.wal_pending(),
            "propagation failure must leave the pager degraded"
        );
        // The committed page stays readable from the pinned cache.
        assert_eq!(pager.read_page(id).unwrap(), page_of(43));
        drop(pager);
        faults.heal();
        // Reopen: recovery must replay the committed WAL record.
        let mut pager = Pager::open(data.share(), wal.share(), 16).unwrap();
        assert_eq!(
            pager.read_page(1).unwrap(),
            page_of(43),
            "WAL image applied"
        );
    }

    #[test]
    fn checkpoint_heals_a_degraded_pager_in_process() {
        let data = MemBackend::new();
        let wal = MemBackend::new();
        let (mut pager, faults, _) = open_faulted(&data, &wal);
        let id = pager.allocate().unwrap();
        pager.write_page(id, page_of(7)).unwrap();
        faults.arm_after(1, FaultKind::Crash);
        pager.commit().unwrap();
        assert!(pager.wal_pending());
        // Still sick: checkpoint fails, degradation persists.
        assert!(pager.checkpoint().is_err());
        assert!(pager.wal_pending());
        // Backend recovers; checkpoint propagates and clears the state.
        faults.heal();
        pager.checkpoint().unwrap();
        assert!(!pager.wal_pending());
        assert_eq!(pager.read_page(id).unwrap(), page_of(7));
        // The data file now really holds the page: a fresh pager agrees.
        drop(pager);
        let mut pager = Pager::open(data.share(), wal.share(), 16).unwrap();
        assert_eq!(pager.read_page(id).unwrap(), page_of(7));
    }

    #[test]
    fn abort_while_degraded_restores_the_committed_snapshot() {
        let data = MemBackend::new();
        let wal = MemBackend::new();
        let (mut pager, faults, _) = open_faulted(&data, &wal);
        let id = pager.allocate().unwrap();
        pager.write_page(id, page_of(1)).unwrap();
        let mut meta = [0u8; USER_META_LEN];
        meta[0] = 0x11;
        pager.set_user_meta(meta);
        faults.arm_after(1, FaultKind::Crash);
        pager.commit().unwrap(); // durable in WAL, data file lags
        assert!(pager.wal_pending());
        // Stage more work, then abort it: the restore point must be the
        // committed snapshot (meta[0] == 0x11), not the torn data file.
        let mut meta2 = meta;
        meta2[0] = 0x22;
        pager.set_user_meta(meta2);
        pager.write_page(id, page_of(9)).unwrap();
        pager.abort();
        assert_eq!(pager.user_meta()[0], 0x11, "abort restored pre-commit meta");
        assert_eq!(
            pager.read_page(id).unwrap(),
            page_of(1),
            "abort dropped staged page"
        );
        faults.heal();
    }

    #[test]
    fn degraded_commits_accumulate_and_replay_in_order() {
        let data = MemBackend::new();
        let wal = MemBackend::new();
        let (mut pager, faults, _) = open_faulted(&data, &wal);
        let id = pager.allocate().unwrap();
        pager.write_page(id, page_of(1)).unwrap();
        pager.commit().unwrap();
        faults.arm_after(1, FaultKind::Crash);
        // Two more commits while the data file is unreachable; the WAL
        // keeps both records.
        pager.write_page(id, page_of(2)).unwrap();
        pager.commit().unwrap();
        pager.write_page(id, page_of(3)).unwrap();
        pager.commit().unwrap();
        assert!(pager.wal_pending());
        assert_eq!(pager.read_page(id).unwrap(), page_of(3));
        drop(pager);
        faults.heal();
        let mut pager = Pager::open(data.share(), wal.share(), 16).unwrap();
        assert_eq!(
            pager.read_page(1).unwrap(),
            page_of(3),
            "latest commit wins after replay"
        );
    }

    #[test]
    fn transient_data_faults_are_retried_and_counted() {
        let data = MemBackend::new();
        let wal = MemBackend::new();
        let (mut pager, inj, _) = open_faulted(&data, &wal);
        let id = pager.allocate().unwrap();
        pager.write_page(id, page_of(5)).unwrap();
        inj.arm_after(1, FaultKind::Transient);
        pager.commit().unwrap();
        assert!(
            !pager.wal_pending(),
            "a retried transient must not degrade the pager"
        );
        let t = pager.telemetry();
        assert!(t.fault_retried >= 1, "retry must be visible in telemetry");
        assert!(
            t.fault_injected >= 1,
            "injected fault must be visible in telemetry"
        );
    }

    #[test]
    fn crash_before_wal_sync_loses_only_the_torn_commit() {
        let data = MemBackend::new();
        let wal = MemBackend::new();
        let (mut pager, _, wal_faults) = open_faulted(&data, &wal);
        let id = pager.allocate().unwrap();
        pager.write_page(id, page_of(1)).unwrap();
        pager.commit().unwrap();
        pager.write_page(id, page_of(2)).unwrap();
        // Crash during the WAL append itself.
        wal_faults.arm_after(1, FaultKind::Crash);
        assert!(pager.commit().is_err());
        drop(pager);
        wal_faults.heal();
        let mut pager = Pager::open(data.share(), wal.share(), 16).unwrap();
        assert_eq!(
            pager.read_page(1).unwrap(),
            page_of(1),
            "previous commit intact"
        );
    }

    #[test]
    fn cache_eviction_keeps_correctness() {
        let data = MemBackend::new();
        let wal = MemBackend::new();
        let mut pager = Pager::open(data.share(), wal.share(), 8).unwrap();
        let mut ids = Vec::new();
        for i in 0..50u8 {
            let id = pager.allocate().unwrap();
            pager.write_page(id, page_of(i)).unwrap();
            ids.push(id);
        }
        pager.commit().unwrap();
        // Read everything back through a tiny cache.
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(pager.read_page(*id).unwrap(), page_of(i as u8));
        }
    }

    /// Commit `count` pages filled `page_of(i)` onto `data` and `wal`,
    /// returning their ids; a pager opened afterwards starts cold.
    fn commit_pages(data: &MemBackend, wal: &MemBackend, count: u8) -> Vec<PageId> {
        let mut pager = Pager::open(data.share(), wal.share(), 16).unwrap();
        let ids = (0..count)
            .map(|i| {
                let id = pager.allocate().unwrap();
                pager.write_page(id, page_of(i)).unwrap();
                id
            })
            .collect();
        pager.commit().unwrap();
        ids
    }

    #[test]
    fn commit_replaces_the_cached_clean_copy() {
        let (data, wal) = (MemBackend::new(), MemBackend::new());
        let id = commit_pages(&data, &wal, 1)[0];
        let mut pager = Pager::open(data.share(), wal.share(), 16).unwrap();
        assert_eq!(pager.read_page(id).unwrap(), page_of(0), "cold read");
        pager.write_page(id, page_of(9)).unwrap();
        pager.commit().unwrap();
        let misses = pager.telemetry().cache_misses;
        assert_eq!(
            pager.read_page(id).unwrap(),
            page_of(9),
            "stale clean copy served"
        );
        assert_eq!(pager.telemetry().cache_misses, misses, "served from memory");
    }

    #[test]
    fn checkpoint_after_a_degraded_commit_refreshes_the_cache() {
        let data = MemBackend::new();
        let wal = MemBackend::new();
        let (mut pager, faults, _) = open_faulted(&data, &wal);
        let id = pager.allocate().unwrap();
        pager.write_page(id, page_of(1)).unwrap();
        pager.commit().unwrap();
        assert_eq!(
            pager.read_page(id).unwrap(),
            page_of(1),
            "clean copy cached"
        );
        faults.arm_after(1, FaultKind::Crash);
        pager.write_page(id, page_of(2)).unwrap();
        pager.commit().unwrap();
        assert!(pager.wal_pending());
        assert_eq!(pager.read_page(id).unwrap(), page_of(2), "degraded read");
        faults.heal();
        pager.checkpoint().unwrap();
        assert!(!pager.wal_pending());
        assert_eq!(
            pager.read_page(id).unwrap(),
            page_of(2),
            "stale clean copy served"
        );
        drop(pager);
        let mut pager = Pager::open(data.share(), wal.share(), 16).unwrap();
        assert_eq!(
            pager.read_page(id).unwrap(),
            page_of(2),
            "data file holds the commit"
        );
    }

    #[test]
    fn clock_keeps_a_page_touched_between_cold_misses() {
        let (data, wal) = (MemBackend::new(), MemBackend::new());
        let ids = commit_pages(&data, &wal, 40);
        let mut pager = Pager::open(data.share(), wal.share(), 8).unwrap();
        let (hot, cold) = (ids[0], &ids[1..]);
        assert_eq!(pager.read_page(hot).unwrap(), page_of(0));
        for (i, &id) in cold.iter().enumerate() {
            assert_eq!(pager.read_page(hot).unwrap(), page_of(0));
            assert_eq!(pager.read_page(id).unwrap(), page_of(i as u8 + 1));
        }
        let t = pager.telemetry();
        assert_eq!(
            t.cache_misses,
            1 + cold.len() as u64,
            "the hot page was re-read"
        );
        assert_eq!(t.cache_evictions, cold.len() as u64 + 1 - 8);
    }

    #[test]
    fn cached_pages_read_while_the_data_file_fails_every_operation() {
        let (data, wal) = (MemBackend::new(), MemBackend::new());
        let ids = commit_pages(&data, &wal, 24);
        let (cached, uncached) = ids.split_at(16);
        let (mut pager, faults, _) = open_faulted(&data, &wal);
        for (i, &id) in cached.iter().enumerate() {
            assert_eq!(pager.read_page(id).unwrap(), page_of(i as u8));
        }
        // The data file dies at its next operation and fails every one
        // after it, reads included.
        faults.arm_after(1, FaultKind::Crash);
        for &id in uncached {
            assert!(
                pager.read_page(id).is_err(),
                "page {id} read from a dead data file"
            );
        }
        for (i, &id) in cached.iter().enumerate() {
            assert_eq!(
                pager.read_page(id).unwrap(),
                page_of(i as u8),
                "cached page {id} lost"
            );
        }
        assert_eq!(
            pager.telemetry().cache_evictions,
            0,
            "a failed read evicted a page"
        );
        faults.heal();
    }

    #[test]
    fn empty_commit_is_noop() {
        let (mut pager, _, mut wal_handle) = open_mem();
        pager.commit().unwrap();
        pager.commit().unwrap();
        assert_eq!(wal_handle.len().unwrap(), 0);
    }

    #[test]
    fn dirty_count_tracks_staging() {
        let (mut pager, _, _) = open_mem();
        assert_eq!(pager.dirty_count(), 0);
        let id = pager.allocate().unwrap();
        assert!(pager.dirty_count() >= 2, "page + meta dirty");
        pager.commit().unwrap();
        assert_eq!(pager.dirty_count(), 0);
        pager.write_page(id, page_of(1)).unwrap();
        assert_eq!(pager.dirty_count(), 1);
    }
}
