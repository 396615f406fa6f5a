//! Storage-layer telemetry counters.
//!
//! This crate sits below `cbvr-core` (which owns the process-wide
//! telemetry registry) and depends on nothing, so it keeps its counters
//! as a plain value struct: every [`crate::pager::Pager`] method already
//! takes `&mut self`, so plain `u64` fields suffice — no atomics. Upper
//! layers snapshot [`crate::db::CbvrDatabase::telemetry`] and merge the
//! numbers into their own exposition (`GET /metrics`,
//! `cbvr stats --telemetry`).

/// Counters accumulated by a pager (and the database on top of it) since
/// open. All monotonic; snapshot-copyable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StorageTelemetry {
    /// Page reads served from memory: staged, unpropagated or cached
    /// clean pages.
    pub cache_hits: u64,
    /// Page reads that went to the data backend.
    pub cache_misses: u64,
    /// Clean pages evicted to stay within the cache capacity.
    pub cache_evictions: u64,
    /// Pages staged for write (insertions into the staged-write map).
    pub page_writes: u64,
    /// Non-empty commits that appended a WAL record.
    pub wal_commits: u64,
    /// Committed WAL records replayed during open (crash recovery).
    pub wal_replays: u64,
    /// Bytes appended to the WAL across all commits.
    pub wal_bytes: u64,
    /// I/O errors attributed to the deterministic fault injector.
    pub fault_injected: u64,
    /// Transient I/O errors absorbed by retry-with-backoff (the retry
    /// succeeded, so no error reached the caller).
    pub fault_retried: u64,
}

impl StorageTelemetry {
    /// The counters as sorted `storage.<name> <value>` exposition lines,
    /// matching the registry's plain-text format so the web and CLI
    /// layers can splice them into one listing.
    pub fn render_lines(&self) -> Vec<String> {
        vec![
            format!("storage.cache.evictions {}", self.cache_evictions),
            format!("storage.cache.hits {}", self.cache_hits),
            format!("storage.cache.misses {}", self.cache_misses),
            format!("storage.fault.injected {}", self.fault_injected),
            format!("storage.fault.retried {}", self.fault_retried),
            format!("storage.page.writes {}", self.page_writes),
            format!("storage.wal.bytes {}", self.wal_bytes),
            format!("storage.wal.commits {}", self.wal_commits),
            format!("storage.wal.replays {}", self.wal_replays),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_lines_are_sorted() {
        let t = StorageTelemetry {
            cache_hits: 3,
            wal_bytes: 9,
            ..Default::default()
        };
        let lines = t.render_lines();
        let mut sorted = lines.clone();
        sorted.sort();
        assert_eq!(lines, sorted);
        assert!(lines.contains(&"storage.cache.hits 3".to_string()));
        assert!(lines.contains(&"storage.wal.bytes 9".to_string()));
        assert!(lines.contains(&"storage.wal.replays 0".to_string()));
        assert!(lines.contains(&"storage.fault.injected 0".to_string()));
        assert!(lines.contains(&"storage.fault.retried 0".to_string()));
    }
}
