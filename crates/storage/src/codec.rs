//! The byte format of every stored structure: one bounds-checked cursor
//! pair.
//!
//! All integers are little-endian; strings and byte fields written with
//! [`Writer::str`] / [`Writer::bytes`] carry a `u32` length prefix, and
//! [`Writer::raw`] writes bytes as they are. There is no
//! self-description: each caller knows its layout, the way fixed
//! `CREATE TABLE` schemas do. The meta page, B+-tree nodes, blob pages,
//! free-list links, WAL records, row values, spilled-row refs, the
//! database's user-meta block and manifest values are all written by a
//! [`Writer`] and read back by a [`Reader`]. A read past the end of the
//! buffer is [`StorageError::Corruption`], never a panic, and so is a
//! page image longer than [`PAGE_SIZE`](crate::page::PAGE_SIZE).

use crate::error::{Result, StorageError};
use crate::page::Page;

/// Sequential writer building a byte buffer.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Fresh empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Fresh empty writer with room for `capacity` bytes (a page image
    /// built in a [`PAGE_SIZE`](crate::page::PAGE_SIZE) buffer becomes a
    /// [`Page`] without a copy).
    pub fn with_capacity(capacity: usize) -> Writer {
        Writer {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Append a `u8`.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Append a little-endian `u16`.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.raw(&v.to_le_bytes())
    }

    /// Append a little-endian `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.raw(&v.to_le_bytes())
    }

    /// Append a little-endian `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.raw(&v.to_le_bytes())
    }

    /// Append bytes without a length prefix.
    pub fn raw(&mut self, b: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(b);
        self
    }

    /// Append a length-prefixed string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes())
    }

    /// Append length-prefixed bytes.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.u32(b.len() as u32).raw(b)
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Finish, returning the buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Finish as a zero-padded page image; `Corruption` when more than
    /// [`PAGE_SIZE`](crate::page::PAGE_SIZE) bytes were written.
    pub fn into_page(self) -> Result<Page> {
        Page::from_vec(self.buf)
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Sequential reader over a byte buffer.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// The next `n` bytes, as they are.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.buf.len() - self.pos {
            return Err(StorageError::Corruption(format!(
                "stored bytes truncated: need {n} at {}, have {}",
                self.pos,
                self.buf.len()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Read a length-prefixed string.
    pub fn str(&mut self) -> Result<String> {
        let bytes = self.bytes()?;
        String::from_utf8(bytes)
            .map_err(|e| StorageError::Corruption(format!("stored string is invalid utf-8: {e}")))
    }

    /// Read length-prefixed bytes.
    pub fn bytes(&mut self) -> Result<Vec<u8>> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// `Corruption` unless the whole buffer was consumed (fixed-length
    /// values: a spilled-row ref, a manifest record).
    pub fn end(&self) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(StorageError::Corruption(format!(
                "stored value has {} trailing bytes",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_SIZE;

    #[test]
    fn round_trip_all_types() {
        let mut w = Writer::new();
        w.u8(9)
            .u32(70_000)
            .u64(1 << 50)
            .str("hello world")
            .bytes(&[1, 2, 3]);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 9);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), 1 << 50);
        assert_eq!(r.str().unwrap(), "hello world");
        assert_eq!(r.bytes().unwrap(), vec![1, 2, 3]);
        assert!(r.end().is_ok());
    }

    #[test]
    fn typed_round_trip() {
        let mut w = Writer::with_capacity(PAGE_SIZE);
        w.u8(7).u16(300).u32(70_000).u64(1 << 40).raw(b"tail");
        assert_eq!(w.len(), 1 + 2 + 4 + 8 + 4);
        let page = w.into_page().unwrap();
        let mut r = Reader::new(page.as_bytes());
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.take(4).unwrap(), b"tail");
        // The rest of the page image is zero padding.
        assert!(r.take(PAGE_SIZE - 19).unwrap().iter().all(|&b| b == 0));
        assert!(r.end().is_ok());
    }

    #[test]
    fn overrun_is_error_not_panic() {
        // A page image one byte too long is corruption; exactly full is fine.
        let mut w = Writer::new();
        w.raw(&[0u8; PAGE_SIZE - 1]).u16(1);
        assert!(w.into_page().is_err());
        let mut w = Writer::new();
        w.raw(&[0u8; PAGE_SIZE - 1]).u8(0xFF);
        let page = w.into_page().unwrap();
        // Reads past the end of the page are errors.
        let mut r = Reader::new(page.as_bytes());
        r.take(PAGE_SIZE - 3).unwrap();
        assert!(r.u32().is_err());
        let mut r = Reader::new(page.as_bytes());
        r.take(PAGE_SIZE).unwrap();
        assert!(r.u8().is_err());
        // Exactly at the edge is fine.
        let mut r = Reader::new(page.as_bytes());
        r.take(PAGE_SIZE - 1).unwrap();
        assert_eq!(r.u8().unwrap(), 0xFF);
        assert!(Reader::new(page.as_bytes()).take(usize::MAX).is_err());
    }

    #[test]
    fn empty_string_and_bytes() {
        let mut w = Writer::new();
        w.str("").bytes(&[]);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.str().unwrap(), "");
        assert_eq!(r.bytes().unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn truncation_is_detected() {
        let mut w = Writer::new();
        w.str("something long enough");
        let buf = w.finish();
        let mut r = Reader::new(&buf[..buf.len() - 1]);
        assert!(r.str().is_err());
        let mut r = Reader::new(&buf[..2]);
        assert!(r.u32().is_err());
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut w = Writer::new();
        w.u64(1).u8(0);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        r.u64().unwrap();
        assert!(r.end().is_err());
    }

    #[test]
    fn invalid_utf8_is_detected() {
        let mut w = Writer::new();
        w.bytes(&[0xFF, 0xFE]);
        let buf = w.finish();
        // Re-read the bytes field as a string.
        let mut r = Reader::new(&buf);
        assert!(r.str().is_err());
    }

    #[test]
    fn unicode_strings() {
        let mut w = Writer::new();
        w.str("日本語 🎬");
        let buf = w.finish();
        assert_eq!(Reader::new(&buf).str().unwrap(), "日本語 🎬");
    }
}
