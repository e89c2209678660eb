//! # netband-store — durable tenant state for the serving engine
//!
//! The serving engine ([`netband-serve`]) keeps every tenant's learning state
//! — estimator arrays, RNG words, pending feedback, reward totals — in RAM.
//! This crate gives each engine shard a durable twin of that state, built
//! from three pieces:
//!
//! * **a write-ahead log** ([`ShardStore::append`]): every successful
//!   mutation (register / decide / feedback / flush / remove / drain) is
//!   framed with a length prefix and a CRC-32 and appended to
//!   `wal-<E>.log`, with fsyncs batched on a configurable schedule
//!   ([`StoreConfig::sync_every`]);
//! * **compacted snapshots** ([`ShardStore::compact`]): once the log grows
//!   past [`StoreConfig::compact_every`] records, the shard's tenants are
//!   captured into `snapshot-<E+1>.json` (committed by an atomic rename) and
//!   the covered log is deleted — recovery time is bounded by the compaction
//!   interval, not by the tenant's lifetime;
//! * **a disk eviction tier** ([`ShardStore::write_evicted`] /
//!   [`ShardStore::read_evicted`]): idle tenants beyond
//!   [`StoreConfig::resident_cap`] are written out as individual evict files
//!   and dropped from RAM, then read back transparently when traffic
//!   returns.
//!
//! Recovery ([`ShardStore::open`]) loads the newest committed snapshot and
//! returns the WAL tail for the engine to replay through its ordinary
//! command paths. Because every document round-trips `f64`s bit-exactly
//! (they are encoded by `netband-spec`'s strict codec) and decisions are
//! regenerated from the persisted RNG state rather than logged, a `kill -9`
//! at any round recovers the *exact* learning trajectory — the golden-trace
//! suites hold recovered engines to the same bits as uninterrupted ones.
//!
//! What lives where is a deliberate split: this crate owns files, framing,
//! checksums, fsync scheduling, and epoch rotation; the *documents* inside
//! the frames ([`WalRecord`](netband_spec::WalRecord),
//! [`StoredTenantSnapshot`](netband_spec::StoredTenantSnapshot),
//! [`ShardSnapshot`](netband_spec::ShardSnapshot))
//! are defined in [`netband_spec::store`], next to the codec whose
//! strictness they inherit; and the translation between live tenants and
//! their stored form lives in `netband-serve`, which owns the types being
//! translated.
//!
//! [`netband-serve`]: ../netband_serve/index.html
//!
//! ## Example
//!
//! ```
//! use netband_spec::WalRecord;
//! use netband_store::{ShardStore, StoreConfig};
//!
//! let dir = std::env::temp_dir().join(format!("netband_store_doc_{}", std::process::id()));
//! let config = StoreConfig::new(&dir);
//!
//! // First run: log a couple of mutations.
//! let (mut store, recovery) = ShardStore::open(&config, 0)?;
//! assert!(recovery.is_genesis());
//! store.append(&WalRecord::Decide { tenant: "exp-0".into(), count: 2 })?;
//! store.append(&WalRecord::Drain)?;
//! drop(store); // simulate the process dying
//!
//! // Second run: the log replays exactly.
//! let (_store, recovery) = ShardStore::open(&config, 0)?;
//! assert_eq!(recovery.records.len(), 2);
//! assert_eq!(recovery.records[1], WalRecord::Drain);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), netband_store::StoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;

use netband_spec::SpecError;

pub mod crc;
mod shard;
mod wal;

pub use crc::crc32;
pub use shard::{ShardRecovery, ShardStore};
pub use wal::{Wal, WalReplay, FRAME_OVERHEAD, MAX_FRAME_BYTES};

/// Configuration of an engine's durable store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreConfig {
    /// Root data directory; each shard stores under `<dir>/shard-<i>`.
    pub dir: PathBuf,
    /// Fsync after this many WAL appends (`1` = every append is durable
    /// before the command acknowledges; larger values trade the crash
    /// window for throughput).
    pub sync_every: usize,
    /// Compact a shard once its WAL holds this many records.
    pub compact_every: u64,
    /// Maximum tenants a shard keeps resident in RAM; idle tenants beyond
    /// the cap move to the disk eviction tier. `None` disables eviction.
    pub resident_cap: Option<usize>,
}

impl StoreConfig {
    /// A store rooted at `dir` with the default schedule: every append
    /// fsynced, compaction every 1024 records, no resident cap.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        StoreConfig {
            dir: dir.into(),
            sync_every: 1,
            compact_every: 1024,
            resident_cap: None,
        }
    }

    /// Sets the fsync batching interval (must be ≥ 1).
    pub fn with_sync_every(mut self, sync_every: usize) -> Self {
        assert!(sync_every >= 1, "sync_every must be at least 1");
        self.sync_every = sync_every;
        self
    }

    /// Sets the compaction interval in WAL records (must be ≥ 1).
    pub fn with_compact_every(mut self, compact_every: u64) -> Self {
        assert!(compact_every >= 1, "compact_every must be at least 1");
        self.compact_every = compact_every;
        self
    }

    /// Caps resident tenants per shard, enabling the disk eviction tier.
    pub fn with_resident_cap(mut self, cap: usize) -> Self {
        assert!(cap >= 1, "resident_cap must be at least 1");
        self.resident_cap = Some(cap);
        self
    }
}

/// Counters and gauges of one shard's store, summed across shards by the
/// engine for exposition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreMetrics {
    /// WAL records appended.
    pub appends: u64,
    /// Fsyncs issued for the WAL.
    pub fsyncs: u64,
    /// Current WAL size in bytes (gauge; resets at compaction).
    pub wal_bytes: u64,
    /// Snapshot compactions performed.
    pub compactions: u64,
    /// Tenants moved to the disk tier.
    pub evictions: u64,
    /// Tenants read back from the disk tier.
    pub rehydrations: u64,
    /// WAL records replayed by the last open.
    pub recovered_records: u64,
    /// Tenants loaded from the snapshot by the last open.
    pub recovered_tenants: u64,
}

impl StoreMetrics {
    /// Accumulates another shard's metrics into this one (gauges add too:
    /// the engine-level `wal_bytes` is the fleet's total log footprint).
    pub fn absorb(&mut self, other: &StoreMetrics) {
        self.appends += other.appends;
        self.fsyncs += other.fsyncs;
        self.wal_bytes += other.wal_bytes;
        self.compactions += other.compactions;
        self.evictions += other.evictions;
        self.rehydrations += other.rehydrations;
        self.recovered_records += other.recovered_records;
        self.recovered_tenants += other.recovered_tenants;
    }
}

/// Errors of the durable store.
#[derive(Debug)]
pub enum StoreError {
    /// An operating-system I/O failure.
    Io {
        /// What the store was doing.
        op: &'static str,
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// On-disk bytes that cannot be our own writing: a complete WAL frame
    /// with a checksum mismatch, an absurd length field, or a snapshot that
    /// contradicts its file name. Never produced by a torn append — torn
    /// tails are truncated silently.
    Corrupt {
        /// The corrupt file.
        path: PathBuf,
        /// Byte offset of the offending frame (0 for whole-file problems).
        offset: u64,
        /// What disagreed.
        message: String,
    },
    /// A frame or snapshot decoded as valid JSON framing but the strict
    /// document codec rejected the contents.
    Codec {
        /// The offending file.
        path: PathBuf,
        /// The codec's rejection.
        source: SpecError,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { op, path, source } => {
                write!(f, "{op} ({}): {source}", path.display())
            }
            StoreError::Corrupt {
                path,
                offset,
                message,
            } => write!(
                f,
                "corrupt store file {} at byte {offset}: {message}",
                path.display()
            ),
            StoreError::Codec { path, source } => {
                write!(f, "undecodable store document {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::Corrupt { .. } => None,
            StoreError::Codec { source, .. } => Some(source),
        }
    }
}

impl StoreError {
    /// `true` for the corruption variants that recovery must surface loudly
    /// ([`StoreError::Corrupt`] and [`StoreError::Codec`]), as opposed to
    /// environmental I/O failures.
    pub fn is_corruption(&self) -> bool {
        matches!(self, StoreError::Corrupt { .. } | StoreError::Codec { .. })
    }
}
