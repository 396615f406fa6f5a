//! Fixed-size pages. Their contents are read and written through
//! [`crate::codec`].

use crate::error::{Result, StorageError};

/// Page size in bytes. 4 KiB, the conventional unit.
pub const PAGE_SIZE: usize = 4096;

/// Page identifier: index into the page file. Page 0 is the meta page.
pub type PageId = u32;

/// The null page id (page 0 is the meta page, never a data target).
pub const NO_PAGE: PageId = 0;

/// One page worth of bytes.
#[derive(Clone, PartialEq, Eq)]
pub struct Page {
    bytes: Box<[u8; PAGE_SIZE]>,
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Page({} bytes)", PAGE_SIZE)
    }
}

impl Default for Page {
    fn default() -> Self {
        Page {
            bytes: Box::new([0u8; PAGE_SIZE]),
        }
    }
}

impl Page {
    /// Zero-filled page.
    pub fn new() -> Page {
        Page::default()
    }

    /// Zero-pad `buf` to a page image, reusing its allocation (no copy
    /// when its capacity is [`PAGE_SIZE`]); `Corruption` when it is
    /// longer than a page.
    pub fn from_vec(mut buf: Vec<u8>) -> Result<Page> {
        if buf.len() > PAGE_SIZE {
            return Err(StorageError::Corruption(format!(
                "page image of {} bytes overruns the page",
                buf.len()
            )));
        }
        buf.resize(PAGE_SIZE, 0);
        let bytes = buf
            .into_boxed_slice()
            .try_into()
            .expect("resized to PAGE_SIZE");
        Ok(Page { bytes })
    }

    /// Borrow the raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..]
    }

    /// Borrow the raw bytes mutably.
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        &mut self.bytes[..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_pads_and_rejects_overrun() {
        assert!(Page::from_vec(vec![0u8; PAGE_SIZE]).is_ok());
        let page = Page::from_vec(vec![5u8; 100]).unwrap();
        assert!(page.as_bytes()[..100].iter().all(|&b| b == 5));
        assert!(page.as_bytes()[100..].iter().all(|&b| b == 0));
        assert!(Page::from_vec(vec![0u8; PAGE_SIZE + 1]).is_err());
    }

    #[test]
    fn default_page_is_zeroed() {
        let p = Page::new();
        assert!(p.as_bytes().iter().all(|&b| b == 0));
    }
}
