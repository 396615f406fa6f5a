//! Page cache, allocation and the commit protocol.
//!
//! The pager owns the data file and the WAL and enforces the engine's
//! durability discipline (no-steal / force):
//!
//! - mutations land only in the cache (dirty pages never reach the data
//!   file before commit);
//! - [`Pager::commit`] appends all dirty page images to the WAL (fsync),
//!   then writes them to the data file (fsync), then truncates the WAL;
//! - [`Pager::abort`] simply drops the dirty pages — the data file still
//!   holds the last committed state;
//! - [`Pager::open`] replays any committed WAL tail onto the data file
//!   before anything else, making a crash between the two fsyncs
//!   invisible.
//!
//! The WAL fsync is the commit point. Once [`crate::wal::Wal`] reports
//! the record durable, [`Pager::commit`] returns `Ok` even if pushing the
//! images into the data file fails: the pager enters a *degraded* state
//! ([`Pager::wal_pending`]) where the cache pins the committed pages, the
//! WAL keeps the images, and every later commit (or an explicit
//! [`Pager::checkpoint`]) retries the propagation. A crash while degraded
//! is exactly the crash-between-fsyncs case recovery already handles.
//!
//! Transient I/O errors (interrupted syscalls and friends) are absorbed
//! by bounded retry-with-backoff ([`crate::fault::with_retry`]), counted
//! in `storage.fault.retried`.
//!
//! Page 0 is the pager's meta page: magic, page count, free-list head and
//! a 64-byte user area the database layer uses for table roots and id
//! counters.

use crate::backend::Backend;
use crate::error::{Result, StorageError};
use crate::fault::{with_retry, FaultCounters};
use crate::page::{Page, PageId, NO_PAGE, PAGE_SIZE};
use crate::telemetry::StorageTelemetry;
use crate::wal::Wal;
use std::collections::{HashMap, VecDeque};

const META_MAGIC: u32 = 0x4342_5652; // "CBVR"
const META_VERSION: u32 = 1;
/// Size of the user-meta area on page 0.
pub const USER_META_LEN: usize = 64;
const USER_META_OFFSET: usize = 16;

/// Default cache capacity in pages (4 MiB).
pub const DEFAULT_CACHE_PAGES: usize = 1024;

struct CacheEntry {
    page: Page,
    dirty: bool,
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
    cache: HashMap<PageId, CacheEntry>,
    lru: VecDeque<PageId>,
    capacity: usize,
    // Meta state (mirrors page 0).
    page_count: u32,
    free_head: PageId,
    user_meta: [u8; USER_META_LEN],
    meta_dirty: bool,
    committed: CommittedMeta,
    /// True while the WAL holds committed records the data file does not:
    /// a propagation attempt failed after the commit point. Eviction is
    /// suspended (the cache is the only readable copy of those pages) and
    /// the next commit or [`Pager::checkpoint`] retries the replay.
    wal_pending: bool,
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
            cache: HashMap::new(),
            lru: VecDeque::new(),
            capacity: capacity.max(8),
            page_count: 1,
            free_head: NO_PAGE,
            user_meta: [0u8; USER_META_LEN],
            meta_dirty: false,
            committed: CommittedMeta {
                page_count: 1,
                free_head: NO_PAGE,
                user_meta: [0u8; USER_META_LEN],
            },
            wal_pending: false,
            telemetry: StorageTelemetry { wal_replays: replayed, ..StorageTelemetry::default() },
            fault_counters: FaultCounters::default(),
        };

        // Recovery: push committed images into the data file.
        if !images.is_empty() {
            pager.apply_images(&images)?;
        }
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
        let Pager { data, fault_counters, .. } = self;
        with_retry(fault_counters, || data.read_at(0, &mut bytes))
            .map_err(|e| e.with_context("reading meta page"))?;
        let page = Page::from_bytes(&bytes)?;
        let mut r = page.reader(0);
        let magic = r.u32()?;
        if magic != META_MAGIC {
            return Err(StorageError::Corruption(format!("bad meta magic {magic:#x}")));
        }
        let version = r.u32()?;
        if version != META_VERSION {
            return Err(StorageError::Corruption(format!("unsupported version {version}")));
        }
        self.page_count = r.u32()?;
        self.free_head = r.u32()?;
        self.user_meta.copy_from_slice(r.bytes(USER_META_LEN)?);
        self.meta_dirty = false;
        self.committed = CommittedMeta {
            page_count: self.page_count,
            free_head: self.free_head,
            user_meta: self.user_meta,
        };
        Ok(())
    }

    fn meta_page(&self) -> Result<Page> {
        let mut page = Page::new();
        let mut w = page.writer(0);
        w.u32(META_MAGIC)?;
        w.u32(META_VERSION)?;
        w.u32(self.page_count)?;
        w.u32(self.free_head)?;
        debug_assert_eq!(w.position(), USER_META_OFFSET);
        w.bytes(&self.user_meta)?;
        Ok(page)
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

    fn touch(&mut self, id: PageId) {
        // Cheap approximate LRU: push on access, dedup lazily on evict.
        self.lru.push_back(id);
        if self.lru.len() > self.capacity * 4 {
            self.compact_lru();
        }
    }

    fn compact_lru(&mut self) {
        let mut seen = std::collections::HashSet::new();
        let mut fresh = VecDeque::with_capacity(self.cache.len());
        // Keep only the most recent mention of each page.
        for &id in self.lru.iter().rev() {
            if seen.insert(id) {
                fresh.push_front(id);
            }
        }
        self.lru = fresh;
    }

    fn evict_if_needed(&mut self) {
        if self.wal_pending {
            // The cache holds the only readable copy of the committed
            // pages the data file is missing; evicting one would re-read
            // a stale or torn page. Overshoot until the replay lands.
            return;
        }
        while self.cache.len() > self.capacity {
            self.compact_lru();
            // Find the least-recently-used clean page.
            let victim = self
                .lru
                .iter()
                .find(|id| self.cache.get(id).is_some_and(|e| !e.dirty))
                .copied();
            match victim {
                Some(id) => {
                    self.cache.remove(&id);
                    self.lru.retain(|&x| x != id);
                    self.telemetry.cache_evictions += 1;
                }
                None => break, // everything dirty: allow overshoot until commit
            }
        }
    }

    /// Read a page (through the cache).
    pub fn read_page(&mut self, id: PageId) -> Result<Page> {
        if id == 0 || id >= self.page_count {
            return Err(StorageError::Corruption(format!(
                "page {id} out of range (count {})",
                self.page_count
            )));
        }
        if let Some(entry) = self.cache.get(&id) {
            let page = entry.page.clone();
            self.telemetry.cache_hits += 1;
            self.touch(id);
            return Ok(page);
        }
        self.telemetry.cache_misses += 1;
        let mut bytes = vec![0u8; PAGE_SIZE];
        let offset = id as u64 * PAGE_SIZE as u64;
        let Pager { data, fault_counters, .. } = self;
        with_retry(fault_counters, || data.read_at(offset, &mut bytes))
            .map_err(|e| e.with_context("reading data page"))?;
        let page = Page::from_bytes(&bytes)?;
        self.cache.insert(id, CacheEntry { page: page.clone(), dirty: false });
        self.touch(id);
        self.evict_if_needed();
        Ok(page)
    }

    /// Stage a page write (visible to subsequent reads, durable at commit).
    pub fn write_page(&mut self, id: PageId, page: Page) -> Result<()> {
        if id == 0 || id >= self.page_count {
            return Err(StorageError::Corruption(format!(
                "page {id} out of range (count {})",
                self.page_count
            )));
        }
        self.telemetry.page_writes += 1;
        self.cache.insert(id, CacheEntry { page, dirty: true });
        self.touch(id);
        self.evict_if_needed();
        Ok(())
    }

    /// Allocate a page: reuse the free list, else grow the file.
    pub fn allocate(&mut self) -> Result<PageId> {
        if self.free_head != NO_PAGE {
            let id = self.free_head;
            let page = self.read_page(id)?;
            self.free_head = page.reader(0).u32()?;
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
        let mut page = Page::new();
        page.writer(0).u32(self.free_head)?;
        self.write_page(id, page)?;
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
        self.cache.values().filter(|e| e.dirty).count() + usize::from(self.meta_dirty)
    }

    /// True while a durable commit still awaits propagation to the data
    /// file (the degraded state; see the module docs).
    pub fn wal_pending(&self) -> bool {
        self.wal_pending
    }

    /// Push every committed WAL record into the data file and truncate
    /// the log. No-op when nothing is pending. This is the in-process
    /// twin of open-time recovery: full page images, idempotent, safe to
    /// retry forever.
    pub fn checkpoint(&mut self) -> Result<()> {
        if !self.wal_pending {
            return Ok(());
        }
        let (images, _) = self.wal.recover_records()?;
        self.apply_images(&images)?;
        self.wal_pending = false;
        self.evict_if_needed();
        Ok(())
    }

    /// Write committed page images to the data file, sync it, then
    /// truncate the WAL. The one path by which committed pages reach the
    /// data file: open-time recovery, [`Pager::checkpoint`] and
    /// [`Pager::commit`] all end here.
    fn apply_images(&mut self, images: &[(PageId, Page)]) -> Result<()> {
        let Pager { data, fault_counters, .. } = self;
        for (id, page) in images {
            let offset = *id as u64 * PAGE_SIZE as u64;
            with_retry(fault_counters, || data.write_at(offset, page.as_bytes()))
                .map_err(|e| e.with_context("writing committed page"))?;
        }
        with_retry(fault_counters, || data.sync())
            .map_err(|e| e.with_context("syncing committed pages"))?;
        self.wal.reset()
    }

    /// Durably commit all staged writes: WAL append+fsync → data
    /// write+fsync → WAL reset.
    ///
    /// The WAL fsync is the commit point: once the record is durable this
    /// returns `Ok` even if the data-file propagation fails — the commit
    /// survives a crash via replay, and the pager stays degraded
    /// ([`Pager::wal_pending`]) until a later commit or
    /// [`Pager::checkpoint`] lands the images. An `Err` means the commit
    /// did NOT happen and the staged writes are still pending (abort to
    /// drop them).
    pub fn commit(&mut self) -> Result<()> {
        let mut dirty: Vec<(PageId, Page)> = self
            .cache
            .iter()
            .filter(|(_, e)| e.dirty)
            .map(|(&id, e)| (id, e.page.clone()))
            .collect();
        dirty.sort_by_key(|(id, _)| *id);
        let meta = if self.meta_dirty { Some(self.meta_page()?) } else { None };
        if dirty.is_empty() && meta.is_none() {
            // Nothing new; use the opportunity to retry a pending replay.
            return self.checkpoint();
        }

        let mut images: Vec<(PageId, Page)> = Vec::with_capacity(dirty.len() + 1);
        if let Some(m) = meta {
            images.push((0, m));
        }
        images.extend(dirty);
        let refs: Vec<(PageId, &Page)> = images.iter().map(|(id, p)| (*id, p)).collect();
        let appended = self.wal.append_commit(&refs)?;
        self.telemetry.wal_commits += 1;
        self.telemetry.wal_bytes += appended;

        // Commit point passed: the staged pages are now the durable
        // truth, whatever happens to the data file below.
        for (_, entry) in self.cache.iter_mut() {
            entry.dirty = false;
        }
        self.meta_dirty = false;
        self.committed = CommittedMeta {
            page_count: self.page_count,
            free_head: self.free_head,
            user_meta: self.user_meta,
        };

        let propagated = if self.wal_pending {
            // Earlier images are still owed; replay the whole log in
            // order (ours included) rather than racing ahead of them.
            self.checkpoint()
        } else {
            self.wal_pending = true;
            self.apply_images(&images)
        };
        match propagated {
            Ok(()) => {
                self.wal_pending = false;
                self.evict_if_needed();
            }
            Err(_) => {
                // Degraded, not failed: the WAL holds the record and the
                // cache pins the pages. Surfaced via telemetry and
                // `wal_pending()`, healed by the next commit/checkpoint
                // or by open-time recovery after a crash.
            }
        }
        Ok(())
    }

    /// Discard all staged writes, restoring the last committed state.
    /// Purely in-memory: the committed meta snapshot is authoritative
    /// even while the data file lags the WAL.
    pub fn abort(&mut self) -> Result<()> {
        self.cache.retain(|_, e| !e.dirty);
        // While the data file lags the WAL, a dropped dirty entry may have
        // shadowed the only readable copy of a committed page; reinstate
        // the committed images from the WAL (later records win).
        if self.wal_pending {
            let (images, _) = self.wal.recover_records()?;
            for (id, page) in images {
                self.cache.insert(id, CacheEntry { page, dirty: false });
            }
        }
        self.lru.clear();
        for id in self.cache.keys() {
            self.lru.push_back(*id);
        }
        self.page_count = self.committed.page_count;
        self.free_head = self.committed.free_head;
        self.user_meta = self.committed.user_meta;
        self.meta_dirty = false;
        Ok(())
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
        pager.abort().unwrap();
        assert_eq!(pager.read_page(id).unwrap(), page_of(1), "rolled back");
    }

    #[test]
    fn abort_rolls_back_allocation() {
        let (mut pager, _, _) = open_mem();
        let before = pager.page_count();
        pager.allocate().unwrap();
        pager.abort().unwrap();
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
    ) -> (Pager<FaultBackend<MemBackend>>, FaultInjector, FaultInjector) {
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
        assert!(pager.wal_pending(), "propagation failure must leave the pager degraded");
        // The committed page stays readable from the pinned cache.
        assert_eq!(pager.read_page(id).unwrap(), page_of(43));
        drop(pager);
        faults.heal();
        // Reopen: recovery must replay the committed WAL record.
        let mut pager = Pager::open(data.share(), wal.share(), 16).unwrap();
        assert_eq!(pager.read_page(1).unwrap(), page_of(43), "WAL image applied");
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
        pager.abort().unwrap();
        assert_eq!(pager.user_meta()[0], 0x11, "abort restored pre-commit meta");
        assert_eq!(pager.read_page(id).unwrap(), page_of(1), "abort dropped staged page");
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
        assert_eq!(pager.read_page(1).unwrap(), page_of(3), "latest commit wins after replay");
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
        assert!(!pager.wal_pending(), "a retried transient must not degrade the pager");
        let t = pager.telemetry();
        assert!(t.fault_retried >= 1, "retry must be visible in telemetry");
        assert!(t.fault_injected >= 1, "injected fault must be visible in telemetry");
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
        assert_eq!(pager.read_page(1).unwrap(), page_of(1), "previous commit intact");
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
