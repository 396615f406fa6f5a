//! Byte-level storage backends.
//!
//! The engine reads and writes two byte streams: the page file and the
//! WAL. [`Backend`] abstracts them so the same engine runs on real files
//! ([`FileBackend`]) and on shared memory ([`MemBackend`]). Crash-recovery
//! tests wrap a [`MemBackend`] in a [`crate::fault::FaultBackend`], arm a
//! fault at the Nth I/O operation, and then verify that reopening the
//! database replays or discards exactly the right state.

use crate::error::{Result, StorageError};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;
use std::sync::Mutex;

/// A random-access, growable byte store.
pub trait Backend: Send {
    /// Read exactly `buf.len()` bytes at `offset`. Reading past the end is
    /// an error.
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<()>;
    /// Write all of `buf` at `offset`, growing the store if needed.
    fn write_at(&mut self, offset: u64, buf: &[u8]) -> Result<()>;
    /// Current length in bytes.
    fn len(&mut self) -> Result<u64>;
    /// True when the store holds no bytes.
    fn is_empty(&mut self) -> Result<bool> {
        Ok(self.len()? == 0)
    }
    /// Truncate to `len` bytes.
    fn truncate(&mut self, len: u64) -> Result<()>;
    /// Durability barrier (fsync for files; a no-op in memory).
    fn sync(&mut self) -> Result<()>;
}

/// A real file.
pub struct FileBackend {
    file: File,
}

impl FileBackend {
    /// Open (creating if missing) the file at `path`.
    pub fn open(path: &Path) -> Result<FileBackend> {
        // Existing files must keep their contents: this is open-or-create,
        // never truncate.
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        Ok(FileBackend { file })
    }
}

impl Backend for FileBackend {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.read_exact(buf)?;
        Ok(())
    }

    fn write_at(&mut self, offset: u64, buf: &[u8]) -> Result<()> {
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.write_all(buf)?;
        Ok(())
    }

    fn len(&mut self) -> Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    fn truncate(&mut self, len: u64) -> Result<()> {
        self.file.set_len(len)?;
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }
}

/// In-memory backend. The buffer is shared behind a mutex so a
/// "reopened" backend (fresh [`MemBackend`] from [`MemBackend::share`])
/// sees exactly the bytes that survived the crash.
pub struct MemBackend {
    data: Arc<Mutex<Vec<u8>>>,
}

impl MemBackend {
    /// Fresh empty store.
    pub fn new() -> MemBackend {
        MemBackend {
            data: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Another handle onto the same bytes (simulates reopening the file
    /// after a crash).
    pub fn share(&self) -> MemBackend {
        MemBackend {
            data: Arc::clone(&self.data),
        }
    }
}

impl Default for MemBackend {
    fn default() -> Self {
        Self::new()
    }
}

/// A poisoned buffer mutex means another handle panicked mid-write; treat
/// it as an I/O failure instead of propagating the panic, so the sweep
/// can observe it like any other fault.
fn lock_poisoned() -> StorageError {
    StorageError::Io(std::io::Error::other("mem backend mutex poisoned"))
}

impl Backend for MemBackend {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let data = self.data.lock().map_err(|_| lock_poisoned())?;
        let start = offset as usize;
        let end = start + buf.len();
        if end > data.len() {
            return Err(StorageError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!("read past end: {end} > {}", data.len()),
            )));
        }
        buf.copy_from_slice(&data[start..end]);
        Ok(())
    }

    fn write_at(&mut self, offset: u64, buf: &[u8]) -> Result<()> {
        let mut data = self.data.lock().map_err(|_| lock_poisoned())?;
        let start = offset as usize;
        let end = start + buf.len();
        if end > data.len() {
            data.resize(end, 0);
        }
        data[start..end].copy_from_slice(buf);
        Ok(())
    }

    fn len(&mut self) -> Result<u64> {
        Ok(self.data.lock().map_err(|_| lock_poisoned())?.len() as u64)
    }

    fn truncate(&mut self, len: u64) -> Result<()> {
        let mut data = self.data.lock().map_err(|_| lock_poisoned())?;
        data.truncate(len as usize);
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_backend_round_trip() {
        let mut b = MemBackend::new();
        b.write_at(10, b"hello").unwrap();
        assert_eq!(b.len().unwrap(), 15);
        let mut buf = [0u8; 5];
        b.read_at(10, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        // Gap is zero-filled.
        let mut gap = [9u8; 10];
        b.read_at(0, &mut gap).unwrap();
        assert_eq!(gap, [0u8; 10]);
    }

    #[test]
    fn mem_backend_read_past_end_errors() {
        let mut b = MemBackend::new();
        b.write_at(0, b"abc").unwrap();
        let mut buf = [0u8; 4];
        assert!(b.read_at(0, &mut buf).is_err());
        assert!(b.read_at(100, &mut buf[..1]).is_err());
    }

    #[test]
    fn truncate_shrinks() {
        let mut b = MemBackend::new();
        b.write_at(0, &[1; 100]).unwrap();
        b.truncate(10).unwrap();
        assert_eq!(b.len().unwrap(), 10);
        assert!(!b.is_empty().unwrap());
        b.truncate(0).unwrap();
        assert!(b.is_empty().unwrap());
    }

    #[test]
    fn shared_handle_sees_same_bytes() {
        let a = MemBackend::new();
        let mut b = a.share();
        let mut a = a;
        a.write_at(0, b"xyz").unwrap();
        let mut buf = [0u8; 3];
        b.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"xyz");
    }

    #[test]
    fn file_backend_round_trip() {
        let dir = std::env::temp_dir().join(format!("cbvr-backend-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.bin");
        {
            let mut f = FileBackend::open(&path).unwrap();
            f.write_at(4096, &[7u8; 16]).unwrap();
            f.sync().unwrap();
            assert_eq!(f.len().unwrap(), 4112);
        }
        {
            let mut f = FileBackend::open(&path).unwrap();
            let mut buf = [0u8; 16];
            f.read_at(4096, &mut buf).unwrap();
            assert_eq!(buf, [7u8; 16]);
            f.truncate(0).unwrap();
            assert_eq!(f.len().unwrap(), 0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
