//! Chained-page blob heap.
//!
//! Stores the big byte payloads of the paper's `ORD_Video` / `ORD_Image` /
//! `BLOB` columns: a blob is a singly-linked chain of pages, each holding
//! `next` pointer, a used-byte count and data. [`BlobRef`] (head page +
//! total length) is what rows embed.
//!
//! ```text
//! blob page: next u32 | used u16 | data[PAGE_SIZE - 6]
//! ```

use crate::backend::Backend;
use crate::codec::{Reader, Writer};
use crate::error::{Result, StorageError};
use crate::page::{PageId, NO_PAGE, PAGE_SIZE};
use crate::pager::Pager;

const HEADER_LEN: usize = 6;
/// Payload bytes per blob page.
pub const CHUNK: usize = PAGE_SIZE - HEADER_LEN;

/// Handle to a stored blob.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct BlobRef {
    /// First page of the chain; [`NO_PAGE`] for the empty blob.
    pub head: PageId,
    /// Total byte length.
    pub len: u64,
}

impl BlobRef {
    /// The empty blob.
    pub const EMPTY: BlobRef = BlobRef {
        head: NO_PAGE,
        len: 0,
    };

    /// True when this references zero bytes.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// Write a blob, returning its handle.
pub fn write_blob<B: Backend>(pager: &mut Pager<B>, data: &[u8]) -> Result<BlobRef> {
    if data.is_empty() {
        return Ok(BlobRef::EMPTY);
    }
    // Allocate the chain first so each page can point at its successor.
    let chunks: Vec<&[u8]> = data.chunks(CHUNK).collect();
    let ids: Vec<PageId> = (0..chunks.len())
        .map(|_| pager.allocate())
        .collect::<Result<_>>()?;
    for (i, chunk) in chunks.iter().enumerate() {
        let next = ids.get(i + 1).copied().unwrap_or(NO_PAGE);
        let mut w = Writer::with_capacity(PAGE_SIZE);
        w.u32(next).u16(chunk.len() as u16).raw(chunk);
        pager.write_page(ids[i], w.into_page()?)?;
    }
    Ok(BlobRef {
        head: ids[0],
        len: data.len() as u64,
    })
}

/// Walk `blob`'s chain, handing `visit` each page id and its payload.
///
/// The chain must be exactly what [`write_blob`] builds: ⌈len / CHUNK⌉
/// pages, every one full but the last, which holds the rest and ends the
/// chain. Anything else is `Corruption`, raised before `visit` sees the
/// offending page, so a forged length or a looping chain can neither
/// over-allocate nor run on; a length the file cannot hold is refused
/// before any page is read.
fn walk_chain<B: Backend>(
    pager: &mut Pager<B>,
    blob: BlobRef,
    mut visit: impl FnMut(&mut Pager<B>, PageId, &[u8]) -> Result<()>,
) -> Result<()> {
    let chunk = CHUNK as u64;
    if blob.len > u64::from(pager.page_count()) * chunk {
        return Err(StorageError::Corruption(format!(
            "blob length {} exceeds the {} pages of the file",
            blob.len,
            pager.page_count()
        )));
    }
    let mut id = blob.head;
    let mut left = blob.len;
    while left > 0 {
        if id == NO_PAGE {
            return Err(StorageError::Corruption(format!(
                "blob chain ends {left} bytes short of its declared length {}",
                blob.len
            )));
        }
        let page = pager.read_page(id)?;
        let mut r = Reader::new(page.as_bytes());
        let next = r.u32()?;
        let used = u64::from(r.u16()?);
        if used != left.min(chunk) {
            return Err(StorageError::Corruption(format!(
                "blob page {id} claims {used} bytes, expected {}",
                left.min(chunk)
            )));
        }
        visit(pager, id, r.take(used as usize)?)?;
        left -= used;
        id = next;
    }
    if id != NO_PAGE {
        return Err(StorageError::Corruption(format!(
            "blob chain longer than declared length {}",
            blob.len
        )));
    }
    Ok(())
}

/// Read a whole blob.
pub fn read_blob<B: Backend>(pager: &mut Pager<B>, blob: BlobRef) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    walk_chain(pager, blob, |_, _, data| {
        // The walk has checked the length against the file by now.
        out.reserve_exact(blob.len as usize - out.len());
        out.extend_from_slice(data);
        Ok(())
    })?;
    Ok(out)
}

/// Free a blob's pages back to the pager.
pub fn free_blob<B: Backend>(pager: &mut Pager<B>, blob: BlobRef) -> Result<()> {
    walk_chain(pager, blob, |pager, id, _| pager.free(id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    fn fresh() -> Pager<MemBackend> {
        Pager::open(MemBackend::new(), MemBackend::new(), 64).unwrap()
    }

    #[test]
    fn empty_blob() {
        let mut pager = fresh();
        let blob = write_blob(&mut pager, &[]).unwrap();
        assert!(blob.is_empty());
        assert_eq!(read_blob(&mut pager, blob).unwrap(), Vec::<u8>::new());
        free_blob(&mut pager, blob).unwrap(); // no-op
    }

    #[test]
    fn single_page_blob() {
        let mut pager = fresh();
        let data = b"hello blob".to_vec();
        let blob = write_blob(&mut pager, &data).unwrap();
        assert_eq!(blob.len, data.len() as u64);
        assert_eq!(read_blob(&mut pager, blob).unwrap(), data);
    }

    #[test]
    fn multi_page_blob_round_trip() {
        let mut pager = fresh();
        let data: Vec<u8> = (0..3 * CHUNK + 1234).map(|i| (i % 251) as u8).collect();
        let blob = write_blob(&mut pager, &data).unwrap();
        assert_eq!(read_blob(&mut pager, blob).unwrap(), data);
    }

    #[test]
    fn exact_chunk_boundary() {
        let mut pager = fresh();
        for pages in 1..=3 {
            let data = vec![7u8; CHUNK * pages];
            let blob = write_blob(&mut pager, &data).unwrap();
            assert_eq!(read_blob(&mut pager, blob).unwrap(), data);
        }
    }

    #[test]
    fn free_recycles_pages() {
        let mut pager = fresh();
        let data = vec![1u8; CHUNK * 4];
        let blob = write_blob(&mut pager, &data).unwrap();
        pager.commit().unwrap();
        let before = pager.page_count();
        free_blob(&mut pager, blob).unwrap();
        pager.commit().unwrap();
        // Writing the same blob again reuses the freed chain: no growth.
        let _again = write_blob(&mut pager, &data).unwrap();
        assert_eq!(pager.page_count(), before);
    }

    #[test]
    fn corrupt_length_detected() {
        let mut pager = fresh();
        let blob = write_blob(&mut pager, &[1, 2, 3]).unwrap();
        let wrong = BlobRef {
            head: blob.head,
            len: 5,
        };
        assert!(read_blob(&mut pager, wrong).is_err());
        let wrong = BlobRef {
            head: blob.head,
            len: 2,
        };
        assert!(read_blob(&mut pager, wrong).is_err());
        // A length no file could hold must not reach the allocator.
        let wrong = BlobRef {
            head: blob.head,
            len: u64::MAX,
        };
        assert!(read_blob(&mut pager, wrong).is_err());
    }

    #[test]
    fn self_linked_empty_page_is_corruption_not_a_hang() {
        use std::sync::mpsc;
        use std::time::Duration;
        // One page that claims 0 bytes and links to itself.
        let mut pager = fresh();
        let id = pager.allocate().unwrap();
        let mut w = Writer::new();
        w.u32(id).u16(0);
        pager.write_page(id, w.into_page().unwrap()).unwrap();
        pager.commit().unwrap();
        let blob = BlobRef { head: id, len: 10 };
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let read = read_blob(&mut pager, blob).map(|_| ());
            let freed = free_blob(&mut pager, blob);
            // Freeing must not have touched the free list either.
            let reused = pager.allocate().unwrap() == id;
            let _ = tx.send((read, freed, reused));
        });
        let (read, freed, reused) = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("walking a self-linked blob page must not hang");
        assert!(matches!(read, Err(StorageError::Corruption(_))));
        assert!(matches!(freed, Err(StorageError::Corruption(_))));
        assert!(!reused, "a corrupt chain must not be freed");
    }

    #[test]
    fn blob_survives_commit_reload() {
        let data_backend = MemBackend::new();
        let wal = MemBackend::new();
        let data: Vec<u8> = (0..10_000).map(|i| (i * 7 % 256) as u8).collect();
        let blob;
        {
            let mut pager = Pager::open(data_backend.share(), wal.share(), 64).unwrap();
            blob = write_blob(&mut pager, &data).unwrap();
            pager.commit().unwrap();
        }
        let mut pager = Pager::open(data_backend.share(), wal.share(), 64).unwrap();
        assert_eq!(read_blob(&mut pager, blob).unwrap(), data);
    }
}
