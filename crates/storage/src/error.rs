//! Error type for the storage engine.

use std::fmt;

/// Errors produced by the storage engine.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying I/O failure (or injected fault).
    Io(std::io::Error),
    /// On-disk structure is corrupt (bad magic, checksum, page type...).
    Corruption(String),
    /// A record with the given key does not exist.
    NotFound(u64),
    /// A record with the given key already exists.
    Duplicate(u64),
    /// A value or row exceeds what a node/page can hold.
    TooLarge {
        /// What overflowed (e.g. "btree value").
        what: &'static str,
        /// Observed size in bytes.
        size: usize,
        /// The enforced limit in bytes.
        limit: usize,
    },
    /// The engine was asked to do something inconsistent (e.g. commit with
    /// no open transaction).
    InvalidState(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage i/o error: {e}"),
            StorageError::Corruption(m) => write!(f, "corruption detected: {m}"),
            StorageError::NotFound(k) => write!(f, "key {k} not found"),
            StorageError::Duplicate(k) => write!(f, "key {k} already exists"),
            StorageError::TooLarge { what, size, limit } => {
                write!(f, "{what} of {size} bytes exceeds limit {limit}")
            }
            StorageError::InvalidState(m) => write!(f, "invalid engine state: {m}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl StorageError {
    /// True when the error is plausibly transient (interrupted syscall,
    /// would-block, timeout) and a bounded retry may succeed. Corruption,
    /// not-found and state errors are never transient.
    pub fn is_transient(&self) -> bool {
        match self {
            StorageError::Io(e) => matches!(
                e.kind(),
                std::io::ErrorKind::Interrupted
                    | std::io::ErrorKind::WouldBlock
                    | std::io::ErrorKind::TimedOut
            ),
            _ => false,
        }
    }

    /// True when the error originated from the deterministic fault
    /// injector ([`crate::fault::FaultInjector`]). Used by telemetry to
    /// separate injected faults from organic I/O failures.
    pub fn is_injected(&self) -> bool {
        match self {
            StorageError::Io(e) => e.to_string().contains("injected fault"),
            _ => false,
        }
    }

    /// Wrap an I/O error with a `while <context>` note so a fault deep in
    /// the pager surfaces with the operation that hit it. Non-I/O errors
    /// pass through unchanged (they already carry their own context).
    pub fn with_context(self, context: &str) -> StorageError {
        match self {
            StorageError::Io(e) => {
                let kind = e.kind();
                StorageError::Io(std::io::Error::new(kind, format!("{e} (while {context})")))
            }
            other => other,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, StorageError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(StorageError::NotFound(42).to_string().contains("42"));
        assert!(StorageError::Duplicate(7).to_string().contains("7"));
        let e = StorageError::TooLarge { what: "row", size: 9000, limit: 1024 };
        assert!(e.to_string().contains("9000"));
        assert!(e.to_string().contains("1024"));
    }

    #[test]
    fn io_conversion() {
        let e: StorageError = std::io::Error::other("disk on fire").into();
        assert!(e.to_string().contains("disk on fire"));
    }

    #[test]
    fn transient_classification() {
        let t: StorageError =
            std::io::Error::new(std::io::ErrorKind::Interrupted, "blip").into();
        assert!(t.is_transient());
        let p: StorageError = std::io::Error::other("disk on fire").into();
        assert!(!p.is_transient());
        assert!(!StorageError::Corruption("bad magic".into()).is_transient());
    }

    #[test]
    fn injected_classification() {
        let inj: StorageError = std::io::Error::other("injected fault: crash").into();
        assert!(inj.is_injected());
        let organic: StorageError = std::io::Error::other("disk on fire").into();
        assert!(!organic.is_injected());
    }

    #[test]
    fn context_wraps_io_and_preserves_kind() {
        let e: StorageError =
            std::io::Error::new(std::io::ErrorKind::Interrupted, "blip").into();
        let e = e.with_context("wal append");
        assert!(e.to_string().contains("wal append"));
        assert!(e.is_transient(), "kind must survive context wrapping");
        // Injected marker survives wrapping too.
        let inj: StorageError = std::io::Error::other("injected fault: crash").into();
        assert!(inj.with_context("data write").is_injected());
        // Non-I/O errors pass through.
        let c = StorageError::NotFound(3).with_context("ignored");
        assert!(matches!(c, StorageError::NotFound(3)));
    }
}
