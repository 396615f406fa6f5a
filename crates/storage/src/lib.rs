//! # cbvr-storage — the embedded storage engine
//!
//! The paper stores videos and key-frame features in Oracle 9i:
//!
//! ```sql
//! CREATE TABLE VIDEO_STORE (V_ID NUMBER PRIMARY KEY, V_NAME VARCHAR2(60),
//!                           VIDEO ORD_Video, STREAM BLOB, DOSTORE DATE);
//! CREATE TABLE KEY_FRAMES (I_ID NUMBER PRIMARY KEY, I_NAME VARCHAR2(40),
//!                          IMAGE ORD_Image, MIN NUMBER, MAX NUMBER,
//!                          SCH VARCHAR2(1500), GLCM VARCHAR2(250),
//!                          GABOR VARCHAR2(1500), TAMURA VARCHAR2(500),
//!                          MAJORREGIONS NUMBER, V_ID NUMBER);
//! ```
//!
//! This crate is the offline replacement (DESIGN.md substitution table):
//! a from-scratch, page-based embedded engine providing the operations
//! the paper's system actually uses — keyed inserts/lookups/deletes,
//! table scans, BLOB streams, and durability:
//!
//! - [`page`] — 4 KiB pages;
//! - [`backend`] — the byte-level storage abstraction: real files or a
//!   shared in-memory buffer (crash tests wrap it in
//!   [`fault::FaultBackend`]);
//! - [`wal`] — page-image write-ahead log: commits append full after
//!   images, fsync, then propagate to the data file (no-steal / force,
//!   torn-page safe);
//! - [`pager`] — staged writes, committed-but-unpropagated images, a
//!   CLOCK cache of clean pages and the commit/abort/recover protocol;
//! - [`btree`] — a B+-tree keyed by `u64` with variable-length inline
//!   values and leaf-chained range scans (primary keys and the
//!   `(v_id, i_id)` secondary index);
//! - [`heap`] — chained-page BLOB store for `VIDEO`/`STREAM`/`IMAGE`;
//! - [`codec`] — the byte format of every stored structure: one
//!   bounds-checked writer/reader pair for the meta page, B+-tree
//!   nodes, blob pages, free-list links, WAL records, rows and the
//!   catalog's meta block;
//! - [`tables`] — the two typed tables above plus the secondary index;
//! - [`telemetry`] — plain-value pager/WAL counters the upper layers
//!   merge into the process-wide metrics exposition;
//! - [`fault`] — deterministic operation-counted fault injection and the
//!   crash-sweep harness that proves recovery never invents a third
//!   state;
//! - [`db`] — [`db::CbvrDatabase`], the public facade.
#![warn(missing_docs)]

pub mod backend;
pub mod btree;
pub mod codec;
pub mod db;
pub mod error;
pub mod fault;
pub mod heap;
pub mod page;
pub mod pager;
pub mod tables;
pub mod telemetry;
pub mod wal;

pub use backend::{Backend, FileBackend, MemBackend};
pub use db::{CbvrDatabase, DbStats, ManifestSegment};
pub use error::{Result, StorageError};
pub use fault::{
    run_sweep, state_digest, FaultBackend, FaultInjector, FaultKind, SweepConfig, SweepReport,
    SweepTarget,
};
pub use tables::{KeyFrameRecord, KeyFrameRow, VideoRecord, VideoRow};
pub use telemetry::StorageTelemetry;
