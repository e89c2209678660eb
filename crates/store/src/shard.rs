//! Per-shard durable state: one WAL + one snapshot per epoch, plus the disk
//! eviction tier.
//!
//! # Directory layout
//!
//! ```text
//! <data-dir>/shard-<i>/
//!   snapshot-<E>.json   compacted ShardSnapshot for epoch E (absent at genesis)
//!   wal-<E>.log         framed WalRecords appended since that snapshot
//!   evict-<id>-<h>.json one StoredTenantSnapshot per RAM-evicted tenant
//! ```
//!
//! # Epoch rotation (crash-safe compaction)
//!
//! Compaction captures every tenant — resident ones passed by the caller,
//! evicted ones read back from their evict files — into epoch `E+1`:
//!
//! 1. write `snapshot-<E+1>.tmp`, fsync it;
//! 2. rename to `snapshot-<E+1>.json`, fsync the directory — **this rename is
//!    the commit point**;
//! 3. create the empty `wal-<E+1>.log` and switch the writer to it;
//! 4. delete epoch `E`'s files (best-effort cleanup, not synced: a crash
//!    that brings them back leaves a stale epoch, which open sweeps).
//!
//! A crash anywhere in the sequence leaves at least one complete epoch on
//! disk: before step 2 the old pair is untouched (the `.tmp` is swept at
//! open); after it, recovery picks `E+1` — step 3's missing WAL is simply
//! recreated empty.
//!
//! # The eviction tier is a cache, not a log
//!
//! Evict files exist so a live engine can drop an idle tenant from RAM and
//! read it back later without replaying history. They are **ignored by
//! recovery**: eviction and rehydration are not WAL-logged, and the epoch
//! snapshot plus WAL replay already reconstruct every tenant — resident or
//! not — so consulting evict files there would double-apply the mutations
//! the WAL tail also carries. Open deletes them; the serving layer re-evicts
//! over-cap tenants afresh.
//!
//! While running, the store's *live set* names exactly the tenants out of
//! RAM. Each live id's file holds that tenant's current state (evicted
//! tenants receive no mutations — any command rehydrates first), which is
//! why compaction may embed it verbatim. Rehydration only drops the id from
//! the live set: the file stays behind, stale, and is never read again. The
//! next eviction of that tenant overwrites it in place, and open sweeps it.
//! Because nothing after a crash reads the tier, it needs no fsync, no tmp
//! file and no rename.

use std::collections::BTreeSet;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use netband_spec::{ShardSnapshot, StoredTenantSnapshot, WalRecord, STORE_VERSION};

use crate::wal::{Wal, WalReplay};
use crate::{StoreConfig, StoreError, StoreMetrics};

fn io_err(op: &'static str, path: &Path, source: std::io::Error) -> StoreError {
    StoreError::Io {
        op,
        path: path.to_path_buf(),
        source,
    }
}

/// Fsyncs a directory so a just-created/renamed/removed entry survives a
/// crash of the machine, not just of the process.
fn sync_dir(dir: &Path) -> Result<(), StoreError> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err("sync directory", dir, e))
}

/// FNV-1a 64-bit hash — the same function the engine uses for tenant→shard
/// routing, reused here to give evict files collision-resistant names.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// File name of a tenant's evict file: a sanitized id prefix for humans, a
/// 16-hex FNV-1a of the full id for uniqueness.
fn evict_file_name(id: &str) -> String {
    let mut prefix: String = id
        .chars()
        .take(40)
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if prefix.is_empty() {
        prefix.push('_');
    }
    format!("evict-{prefix}-{:016x}.json", fnv1a(id.as_bytes()))
}

/// Parses `<stem>-<epoch>.<ext>` file names, e.g. `wal-3.log`.
fn parse_epoch(name: &str, stem: &str, ext: &str) -> Option<u64> {
    name.strip_prefix(stem)?
        .strip_prefix('-')?
        .strip_suffix(ext)?
        .strip_suffix('.')?
        .parse()
        .ok()
}

/// What [`ShardStore::open`] reconstructed from disk.
#[derive(Debug)]
pub struct ShardRecovery {
    /// Tenants of the recovered epoch snapshot (empty at genesis), in the
    /// snapshot's stored order.
    pub tenants: Vec<StoredTenantSnapshot>,
    /// WAL records appended after that snapshot, to replay in order on top.
    pub records: Vec<WalRecord>,
    /// Bytes of torn WAL tail discarded (0 for a clean shutdown).
    pub truncated_bytes: u64,
}

impl ShardRecovery {
    /// `true` when the shard directory held no prior state.
    pub fn is_genesis(&self) -> bool {
        self.tenants.is_empty() && self.records.is_empty()
    }
}

/// One shard's durable store: the current epoch's WAL writer plus the
/// snapshot/eviction files around it.
#[derive(Debug)]
pub struct ShardStore {
    dir: PathBuf,
    epoch: u64,
    wal: Wal,
    sync_every: usize,
    compact_every: u64,
    /// Records appended to the current epoch's WAL (drives compaction).
    records_this_epoch: u64,
    metrics: StoreMetrics,
    /// The snapshot and evict-file buffer, reused write after write.
    text: String,
    /// The live set: tenants whose evict file holds their current state.
    evicted: BTreeSet<String>,
}

impl ShardStore {
    /// Opens (creating if absent) shard `shard`'s store under `config.dir`,
    /// recovering whatever the last run left behind: the newest committed
    /// epoch's snapshot, the replayable WAL tail after it, minus any torn
    /// frame. Stale epochs, `.tmp` leftovers, and evict files are swept.
    pub fn open(
        config: &StoreConfig,
        shard: usize,
    ) -> Result<(ShardStore, ShardRecovery), StoreError> {
        assert!(config.sync_every >= 1, "sync_every must be at least 1");
        assert!(
            config.compact_every >= 1,
            "compact_every must be at least 1"
        );
        let dir = config.dir.join(format!("shard-{shard}"));
        fs::create_dir_all(&dir).map_err(|e| io_err("create shard directory", &dir, e))?;

        // Inventory the directory: epochs seen, plus everything to sweep.
        let mut snapshot_epochs = Vec::new();
        let mut wal_epochs = Vec::new();
        let mut sweep = Vec::new();
        let entries = fs::read_dir(&dir).map_err(|e| io_err("list shard directory", &dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("list shard directory", &dir, e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else {
                continue;
            };
            if let Some(epoch) = parse_epoch(name, "snapshot", "json") {
                snapshot_epochs.push(epoch);
            } else if let Some(epoch) = parse_epoch(name, "wal", "log") {
                wal_epochs.push(epoch);
            } else if name.ends_with(".tmp") || name.starts_with("evict-") {
                sweep.push(entry.path());
            }
        }
        let epoch = snapshot_epochs
            .iter()
            .chain(wal_epochs.iter())
            .copied()
            .max()
            .unwrap_or(0);

        // Load the committed snapshot, if this epoch has one.
        let mut metrics = StoreMetrics::default();
        let snapshot_path = dir.join(format!("snapshot-{epoch}.json"));
        let tenants = if snapshot_epochs.contains(&epoch) {
            let text = fs::read_to_string(&snapshot_path)
                .map_err(|e| io_err("read snapshot", &snapshot_path, e))?;
            let snapshot =
                ShardSnapshot::from_json_text(&text).map_err(|source| StoreError::Codec {
                    path: snapshot_path.clone(),
                    source,
                })?;
            if snapshot.epoch != epoch {
                return Err(StoreError::Corrupt {
                    path: snapshot_path.clone(),
                    offset: 0,
                    message: format!(
                        "snapshot file for epoch {epoch} declares epoch {}",
                        snapshot.epoch
                    ),
                });
            }
            snapshot.tenants
        } else {
            Vec::new()
        };

        // Open (or start) the epoch's WAL and replay its tail.
        let wal_path = dir.join(format!("wal-{epoch}.log"));
        let (wal, replay) = if wal_epochs.contains(&epoch) {
            Wal::open(&wal_path)?
        } else {
            let wal = Wal::create(&wal_path)?;
            sync_dir(&dir)?;
            (
                wal,
                WalReplay {
                    records: Vec::new(),
                    truncated_bytes: 0,
                },
            )
        };

        // Sweep everything that is not part of the recovered epoch.
        for &stale in snapshot_epochs.iter().filter(|&&e| e != epoch) {
            sweep.push(dir.join(format!("snapshot-{stale}.json")));
        }
        for &stale in wal_epochs.iter().filter(|&&e| e != epoch) {
            sweep.push(dir.join(format!("wal-{stale}.log")));
        }
        for path in sweep {
            fs::remove_file(&path).map_err(|e| io_err("sweep stale file", &path, e))?;
        }
        sync_dir(&dir)?;

        metrics.recovered_tenants = tenants.len() as u64;
        metrics.recovered_records = replay.records.len() as u64;
        metrics.wal_bytes = wal.bytes();
        let records_this_epoch = replay.records.len() as u64;
        Ok((
            ShardStore {
                dir,
                epoch,
                wal,
                sync_every: config.sync_every,
                compact_every: config.compact_every,
                records_this_epoch,
                metrics,
                text: String::new(),
                evicted: BTreeSet::new(),
            },
            ShardRecovery {
                tenants,
                records: replay.records,
                truncated_bytes: replay.truncated_bytes,
            },
        ))
    }

    /// Logs one record, fsyncing on the configured batching schedule
    /// (`sync_every == 1` means every append is durable before this
    /// returns).
    pub fn append(&mut self, record: &WalRecord) -> Result<(), StoreError> {
        self.wal.append(record)?;
        self.metrics.appends += 1;
        self.records_this_epoch += 1;
        if self.wal.unsynced() >= self.sync_every {
            self.sync()?;
        }
        self.metrics.wal_bytes = self.wal.bytes();
        Ok(())
    }

    /// Forces any batched appends to disk.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        if self.wal.sync()? {
            self.metrics.fsyncs += 1;
        }
        Ok(())
    }

    /// `true` once the current epoch's WAL has accumulated enough records
    /// that the caller should capture its tenants and [`compact`].
    ///
    /// [`compact`]: ShardStore::compact
    pub fn compaction_due(&self) -> bool {
        self.records_this_epoch >= self.compact_every
    }

    /// Writes the next epoch's snapshot from the caller's `resident` tenants
    /// plus the live evict files (in id order), commits it, rotates the WAL,
    /// and deletes the superseded epoch.
    pub fn compact(&mut self, resident: Vec<StoredTenantSnapshot>) -> Result<(), StoreError> {
        let mut tenants = resident;
        // Embed the eviction tier: evicted tenants are not in RAM, but their
        // live evict files hold their exact current state (see module docs).
        for id in &self.evicted {
            tenants.push(self.decode_evicted(id)?);
        }

        let next = self.epoch + 1;
        let snapshot = ShardSnapshot {
            version: STORE_VERSION,
            epoch: next,
            tenants,
        };
        let tmp_path = self.dir.join(format!("snapshot-{next}.tmp"));
        let final_path = self.dir.join(format!("snapshot-{next}.json"));
        {
            let mut tmp = OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&tmp_path)
                .map_err(|e| io_err("create snapshot tmp", &tmp_path, e))?;
            self.text.clear();
            snapshot.write_json(&mut self.text);
            tmp.write_all(self.text.as_bytes())
                .map_err(|e| io_err("write snapshot", &tmp_path, e))?;
            tmp.sync_all()
                .map_err(|e| io_err("sync snapshot", &tmp_path, e))?;
        }
        // Anything still batched in the old WAL must be on disk before the
        // rename commits the new epoch: the old log is about to be deleted.
        self.sync()?;
        fs::rename(&tmp_path, &final_path)
            .map_err(|e| io_err("commit snapshot", &final_path, e))?;
        sync_dir(&self.dir)?;

        let old_epoch = self.epoch;
        let new_wal = Wal::create(&self.dir.join(format!("wal-{next}.log")))?;
        sync_dir(&self.dir)?;
        let old_wal_path = self.wal.path().to_path_buf();
        self.wal = new_wal;
        self.epoch = next;
        self.records_this_epoch = 0;
        self.metrics.compactions += 1;
        self.metrics.wal_bytes = 0;

        // Best-effort and unsynced: a crash here just leaves a stale epoch
        // for the next open's sweep.
        let _ = fs::remove_file(&old_wal_path);
        let _ = fs::remove_file(self.dir.join(format!("snapshot-{old_epoch}.json")));
        Ok(())
    }

    /// Moves a tenant into the disk tier: overwrites its evict file in place
    /// and adds it to the live set, after which the caller may drop the
    /// in-RAM tenant. Nothing is synced (see module docs).
    pub fn write_evicted(&mut self, snapshot: &StoredTenantSnapshot) -> Result<(), StoreError> {
        let path = self.dir.join(evict_file_name(&snapshot.id));
        self.text.clear();
        snapshot.write_json(&mut self.text);
        // No truncate on open: shrinking a rewritten file with `set_len`
        // spares ext4 the writeback it forces on truncate-to-zero.
        OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .and_then(|mut file| {
                file.write_all(self.text.as_bytes())?;
                file.set_len(self.text.len() as u64)
            })
            .map_err(|e| io_err("write evict file", &path, e))?;
        self.evicted.insert(snapshot.id.clone());
        self.metrics.evictions += 1;
        Ok(())
    }

    /// Reads a tenant back out of the disk tier and drops it from the live
    /// set (the caller is about to make it resident again). Its file stays
    /// behind, stale.
    pub fn read_evicted(&mut self, id: &str) -> Result<StoredTenantSnapshot, StoreError> {
        let snapshot = self.decode_evicted(id)?;
        self.evicted.remove(id);
        self.metrics.rehydrations += 1;
        Ok(snapshot)
    }

    /// Drops a tenant from the disk tier without rehydrating it, deleting
    /// its evict file, live or stale. Returns `false` if it was not live.
    pub fn remove_evicted(&mut self, id: &str) -> Result<bool, StoreError> {
        let path = self.dir.join(evict_file_name(id));
        match fs::remove_file(&path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(io_err("remove evict file", &path, e)),
        }
        Ok(self.evicted.remove(id))
    }

    /// Decodes a live tenant's evict file; a tenant outside the live set has
    /// none, whatever the directory holds.
    fn decode_evicted(&self, id: &str) -> Result<StoredTenantSnapshot, StoreError> {
        let path = self.dir.join(evict_file_name(id));
        if !self.evicted.contains(id) {
            let absent = std::io::Error::new(
                std::io::ErrorKind::NotFound,
                "the tenant is not in the eviction tier",
            );
            return Err(io_err("read evict file", &path, absent));
        }
        let text = fs::read_to_string(&path).map_err(|e| io_err("read evict file", &path, e))?;
        let snapshot =
            StoredTenantSnapshot::from_json_text(&text).map_err(|source| StoreError::Codec {
                path: path.clone(),
                source,
            })?;
        if snapshot.id != id {
            return Err(StoreError::Corrupt {
                path,
                offset: 0,
                message: format!("evict file for {id:?} holds tenant {:?}", snapshot.id),
            });
        }
        Ok(snapshot)
    }

    /// The store's counters and gauges (see [`StoreMetrics`]).
    pub fn metrics(&self) -> &StoreMetrics {
        &self.metrics
    }

    /// The current compaction epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Valid bytes in the current epoch's WAL.
    pub fn wal_bytes(&self) -> u64 {
        self.wal.bytes()
    }

    /// The shard's directory (`<data-dir>/shard-<i>`).
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}
