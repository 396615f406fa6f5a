//! Page-image write-ahead log.
//!
//! One commit appends a single record containing full after-images of all
//! dirty pages:
//!
//! ```text
//! magic   u32  = 0x43_57_41_4C ("CWAL")
//! count   u32  number of page images
//! images  count × (page_id u32, PAGE_SIZE bytes)
//! crc     u64  FNV-1a over everything above
//! commit  u32  = 0x434F_4D54 ("COMT") — written after the images land
//! ```
//!
//! Recovery scans the log from the start and applies every record whose
//! CRC verifies *and* whose commit marker is present; the first
//! incomplete or corrupt record ends the scan (everything after it
//! belongs to a torn commit and is discarded). After a successful commit
//! propagates to the data file the log is truncated, so the log holds at
//! most a handful of records in practice.

use crate::backend::Backend;
use crate::codec::{Reader, Writer};
use crate::error::Result;
use crate::fault::{with_retry, FaultCounters};
use crate::page::{Page, PageId, PAGE_SIZE};

const RECORD_MAGIC: u32 = 0x4357_414C;
const COMMIT_MAGIC: u32 = 0x434F_4D54;

/// FNV-1a, the checksum guarding WAL records.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The write-ahead log over a byte backend.
pub struct Wal<B: Backend> {
    backend: B,
    faults: FaultCounters,
    /// Byte offset of a failed append. The record after it may be
    /// complete on disk even though the caller saw an error, so it must
    /// be truncated away before anything else is appended — otherwise a
    /// later crash would replay a commit the engine rolled back.
    suspect_from: Option<u64>,
}

impl<B: Backend> Wal<B> {
    /// Wrap a backend.
    pub fn new(backend: B) -> Wal<B> {
        Wal {
            backend,
            faults: FaultCounters::default(),
            suspect_from: None,
        }
    }

    /// Retry counters accumulated by this log (merged into
    /// `storage.fault.*` by the pager).
    pub fn fault_counters(&self) -> FaultCounters {
        self.faults
    }

    /// Drop the suspect tail left by a failed append, if any.
    fn ensure_clean_tail(&mut self) -> Result<()> {
        if let Some(from) = self.suspect_from {
            let Wal {
                backend, faults, ..
            } = self;
            with_retry(faults, || {
                backend.truncate(from)?;
                backend.sync()
            })
            .map_err(|e| e.with_context("truncating suspect WAL tail"))?;
            self.suspect_from = None;
        }
        Ok(())
    }

    /// Append one committed record of page images and fsync. Returns the
    /// number of bytes appended (telemetry: `storage.wal.bytes`). The
    /// record is durable — the commit point — exactly when this returns
    /// `Ok`; on error the log is restored (or marked for restoration) to
    /// its previous length.
    pub fn append_commit(&mut self, pages: &[(PageId, &Page)]) -> Result<u64> {
        self.ensure_clean_tail()?;
        let mut w = Writer::with_capacity(8 + pages.len() * (4 + PAGE_SIZE) + 12);
        w.u32(RECORD_MAGIC).u32(pages.len() as u32);
        for (id, page) in pages {
            w.u32(*id).raw(page.as_bytes());
        }
        let crc = fnv1a(w.as_bytes());
        w.u64(crc).u32(COMMIT_MAGIC);
        let buf = w.finish();

        // Pin the append offset before the first attempt: a retry after a
        // partial write must rewrite the same bytes at the same place.
        // Re-probing `len()` there would append after its own garbage.
        let offset = self
            .backend
            .len()
            .map_err(|e| e.with_context("probing WAL length"))?;
        let Wal {
            backend, faults, ..
        } = self;
        let appended = with_retry(faults, || {
            backend.write_at(offset, &buf)?;
            backend.sync()
        });
        match appended {
            Ok(()) => Ok(buf.len() as u64),
            Err(e) => {
                // The bytes past `offset` are in an unknown state; remove
                // them now or remember to before the next append.
                self.suspect_from = Some(offset);
                let _ = self.ensure_clean_tail();
                Err(e.with_context("appending WAL commit record"))
            }
        }
    }

    /// Scan the log, returning the page images of every fully committed
    /// record in order. Stops silently at the first torn/corrupt record.
    pub fn recover(&mut self) -> Result<Vec<(PageId, Page)>> {
        Ok(self.recover_records()?.0)
    }

    /// [`Wal::recover`], plus the number of committed records replayed
    /// (telemetry: `storage.wal.replays` counts records, not images).
    pub fn recover_records(&mut self) -> Result<(Vec<(PageId, Page)>, u64)> {
        let len = self.backend.len()?;
        let mut images = Vec::new();
        let mut records = 0u64;
        let mut offset = 0u64;
        while offset + 8 <= len {
            let mut header = [0u8; 8];
            let Wal {
                backend, faults, ..
            } = self;
            with_retry(faults, || backend.read_at(offset, &mut header))
                .map_err(|e| e.with_context("reading WAL record header"))?;
            let mut r = Reader::new(&header);
            if r.u32()? != RECORD_MAGIC {
                break; // garbage tail
            }
            let count = u64::from(r.u32()?);
            let body_len = 8 + count * (4 + PAGE_SIZE as u64);
            let total_len = body_len + 8 + 4; // + crc + commit marker
            if offset + total_len > len {
                break; // torn record
            }
            let mut body = vec![0u8; body_len as usize];
            let Wal {
                backend, faults, ..
            } = self;
            with_retry(faults, || backend.read_at(offset, &mut body))
                .map_err(|e| e.with_context("reading WAL record body"))?;
            let mut tail = [0u8; 12];
            let Wal {
                backend, faults, ..
            } = self;
            with_retry(faults, || backend.read_at(offset + body_len, &mut tail))
                .map_err(|e| e.with_context("reading WAL record tail"))?;
            let mut r = Reader::new(&tail);
            if r.u64()? != fnv1a(&body) || r.u32()? != COMMIT_MAGIC {
                break; // corrupt or uncommitted
            }
            let mut r = Reader::new(&body);
            r.take(8)?; // the header read above
            for _ in 0..count {
                let id = r.u32()?;
                images.push((id, Page::from_vec(r.take(PAGE_SIZE)?.to_vec())?));
            }
            records += 1;
            offset += total_len;
        }
        Ok((images, records))
    }

    /// Drop every record (after a checkpoint propagated them).
    pub fn reset(&mut self) -> Result<()> {
        let Wal {
            backend, faults, ..
        } = self;
        with_retry(faults, || {
            backend.truncate(0)?;
            backend.sync()
        })
        .map_err(|e| e.with_context("resetting WAL"))?;
        self.suspect_from = None;
        Ok(())
    }

    /// Bytes currently in the log.
    pub fn len(&mut self) -> Result<u64> {
        self.backend.len()
    }

    /// True when the log holds no records.
    pub fn is_empty(&mut self) -> Result<bool> {
        Ok(self.len()? == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    fn page_of(fill: u8) -> Page {
        let mut p = Page::new();
        p.as_bytes_mut().fill(fill);
        p
    }

    #[test]
    fn empty_log_recovers_nothing() {
        let mut wal = Wal::new(MemBackend::new());
        assert!(wal.recover().unwrap().is_empty());
        assert!(wal.is_empty().unwrap());
    }

    #[test]
    fn single_commit_round_trip() {
        let mut wal = Wal::new(MemBackend::new());
        let p1 = page_of(1);
        let p2 = page_of(2);
        wal.append_commit(&[(5, &p1), (9, &p2)]).unwrap();
        let images = wal.recover().unwrap();
        assert_eq!(images.len(), 2);
        assert_eq!(images[0].0, 5);
        assert_eq!(images[0].1, p1);
        assert_eq!(images[1].0, 9);
        assert_eq!(images[1].1, p2);
    }

    #[test]
    fn multiple_commits_replay_in_order() {
        let mut wal = Wal::new(MemBackend::new());
        wal.append_commit(&[(1, &page_of(10))]).unwrap();
        wal.append_commit(&[(1, &page_of(20))]).unwrap();
        let images = wal.recover().unwrap();
        assert_eq!(images.len(), 2);
        // Later image wins when applied in order.
        assert_eq!(images[1].1, page_of(20));
    }

    #[test]
    fn torn_tail_is_discarded() {
        let backend = MemBackend::new();
        let mut wal = Wal::new(backend.share());
        wal.append_commit(&[(1, &page_of(1))]).unwrap();
        let good_len = wal.len().unwrap();
        wal.append_commit(&[(2, &page_of(2))]).unwrap();
        // Tear the second record: cut off its commit marker.
        let mut raw = backend.share();
        let torn = wal.len().unwrap() - 2;
        raw.truncate(torn).unwrap();
        let images = Wal::new(backend.share()).recover().unwrap();
        assert_eq!(images.len(), 1, "only the first record survives");
        assert!(good_len < torn);
    }

    #[test]
    fn corrupt_crc_is_discarded() {
        let backend = MemBackend::new();
        let mut wal = Wal::new(backend.share());
        wal.append_commit(&[(1, &page_of(1))]).unwrap();
        // Flip a byte inside the page image.
        backend.share().write_at(100, &[0xAA]).unwrap();
        assert!(Wal::new(backend.share()).recover().unwrap().is_empty());
    }

    #[test]
    fn reset_clears_log() {
        let mut wal = Wal::new(MemBackend::new());
        wal.append_commit(&[(1, &page_of(1))]).unwrap();
        assert!(!wal.is_empty().unwrap());
        wal.reset().unwrap();
        assert!(wal.is_empty().unwrap());
        assert!(wal.recover().unwrap().is_empty());
    }

    #[test]
    fn fnv1a_is_stable_and_sensitive() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }

    #[test]
    fn empty_commit_is_valid() {
        let mut wal = Wal::new(MemBackend::new());
        wal.append_commit(&[]).unwrap();
        assert!(wal.recover().unwrap().is_empty());
        assert!(!wal.is_empty().unwrap());
    }

    #[test]
    fn transient_append_fault_is_retried_at_the_same_offset() {
        use crate::fault::{FaultBackend, FaultInjector, FaultKind};
        let mem = MemBackend::new();
        let inj = FaultInjector::new(0);
        let mut wal = Wal::new(FaultBackend::new(mem.share(), inj.clone()));
        wal.append_commit(&[(1, &page_of(1))]).unwrap();
        inj.arm_after(1, FaultKind::Transient); // the next write blips once
        wal.append_commit(&[(2, &page_of(2))]).unwrap();
        assert!(wal.fault_counters().retried >= 1, "retry must be recorded");
        let images = Wal::new(mem.share()).recover().unwrap();
        assert_eq!(
            images.len(),
            2,
            "both records intact after the retried append"
        );
        assert_eq!(images[1].0, 2);
    }

    #[test]
    fn failed_append_tail_never_replays() {
        use crate::fault::{FaultBackend, FaultInjector, FaultKind};
        let mem = MemBackend::new();
        let inj = FaultInjector::new(0);
        let mut wal = Wal::new(FaultBackend::new(mem.share(), inj.clone()));
        wal.append_commit(&[(1, &page_of(1))]).unwrap(); // ops 1-2
                                                         // Crash the fsync of the second append: its bytes are complete on
                                                         // disk but the caller sees an error and rolls the commit back.
        inj.arm_after(2, FaultKind::Crash); // op 3 write lands, op 4 sync dies
        assert!(wal.append_commit(&[(2, &page_of(2))]).is_err());
        inj.heal();
        // The rolled-back record must be gone before the next append so a
        // later replay cannot resurrect it under record 3.
        wal.append_commit(&[(3, &page_of(3))]).unwrap();
        let images = Wal::new(mem.share()).recover().unwrap();
        let ids: Vec<_> = images.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![1, 3], "aborted record 2 resurrected");
    }
}
