//! Row serialisation: a small, explicit, length-prefixed binary format.
//!
//! All integers little-endian; strings and byte fields carry a `u32`
//! length prefix. No self-description — the table layer knows each row's
//! schema, mirroring how fixed `CREATE TABLE` schemas work.

use crate::error::{Result, StorageError};

/// Sequential writer building a row buffer.
#[derive(Default)]
pub struct RowWriter {
    buf: Vec<u8>,
}

impl RowWriter {
    /// Fresh empty writer.
    pub fn new() -> RowWriter {
        RowWriter::default()
    }

    /// Append a `u8`.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Append a little-endian `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a little-endian `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a length-prefixed string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
        self
    }

    /// Append length-prefixed bytes.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
        self
    }

    /// Finish, returning the buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
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

/// Sequential reader over a row buffer.
pub struct RowReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> RowReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> RowReader<'a> {
        RowReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(StorageError::Corruption(format!(
                "row truncated: need {n} bytes at {}, have {}",
                self.pos,
                self.buf.len()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Read a length-prefixed string.
    pub fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| StorageError::Corruption(format!("row holds invalid utf-8: {e}")))
    }

    /// Read length-prefixed bytes.
    pub fn bytes(&mut self) -> Result<Vec<u8>> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// True when the whole buffer was consumed.
    pub fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_types() {
        let mut w = RowWriter::new();
        w.u8(9).u32(70_000).u64(1 << 50).str("hello world").bytes(&[1, 2, 3]);
        let buf = w.finish();
        let mut r = RowReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 9);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), 1 << 50);
        assert_eq!(r.str().unwrap(), "hello world");
        assert_eq!(r.bytes().unwrap(), vec![1, 2, 3]);
        assert!(r.at_end());
    }

    #[test]
    fn empty_string_and_bytes() {
        let mut w = RowWriter::new();
        w.str("").bytes(&[]);
        let buf = w.finish();
        let mut r = RowReader::new(&buf);
        assert_eq!(r.str().unwrap(), "");
        assert_eq!(r.bytes().unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn truncation_is_detected() {
        let mut w = RowWriter::new();
        w.str("something long enough");
        let buf = w.finish();
        let mut r = RowReader::new(&buf[..buf.len() - 1]);
        assert!(r.str().is_err());
        let mut r = RowReader::new(&buf[..2]);
        assert!(r.u32().is_err());
    }

    #[test]
    fn invalid_utf8_is_detected() {
        let mut w = RowWriter::new();
        w.bytes(&[0xFF, 0xFE]);
        let buf = w.finish();
        // Re-read the bytes field as a string.
        let mut r = RowReader::new(&buf);
        assert!(r.str().is_err());
    }

    #[test]
    fn unicode_strings() {
        let mut w = RowWriter::new();
        w.str("日本語 🎬");
        let buf = w.finish();
        assert_eq!(RowReader::new(&buf).str().unwrap(), "日本語 🎬");
    }
}
