//! Per-call timings of the durable store's own operations, measured by
//! replaying a finished episode's files: its WAL records, its shard
//! snapshots and its evict files, on a copy of its data dir.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::time::Instant;

use netband_serve::{EngineConfig, StoreConfig};
use netband_spec::{StoredTenantSnapshot, WalRecord};
use netband_store::ShardStore;

use crate::stats::mean;
use crate::workload::SYNC_EVERY;

/// Mean time per call of each store operation.
#[derive(Debug, Clone, Default)]
pub struct StoreLayers {
    /// `WalRecord::to_json_text`, µs per record.
    pub wal_encode_us: f64,
    /// `WalRecord::from_json_text`, µs per record.
    pub wal_decode_us: f64,
    /// `StoredTenantSnapshot::from_json_text` on evict files, ms per file.
    pub snapshot_decode_ms: f64,
    /// `ShardStore::append` without fsync, µs per record.
    pub append_us: f64,
    /// `ShardStore::sync` after every `SYNC_EVERY` appends, ms per call.
    pub sync_ms: f64,
    /// `ShardStore::compact` of every tenant, ms per call.
    pub compact_ms: f64,
    /// `ShardStore::write_evicted`, ms per tenant.
    pub evict_write_ms: f64,
    /// `ShardStore::read_evicted`, ms per tenant.
    pub rehydrate_read_ms: f64,
    /// `ShardStore::open` (recovery read + evict sweep), ms per shard.
    pub open_ms: f64,
}

const US: f64 = 1e3;
const MS: f64 = 1e6;

fn timed<T>(samples: &mut Vec<u64>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    samples.push(t.elapsed().as_nanos() as u64);
    out
}

/// Replays the store under `data` (written with `config`) inside `work`,
/// which is removed afterwards.
pub fn measure(config: &EngineConfig, data: &Path, work: &Path) -> Result<StoreLayers, String> {
    let result = replay(config, data, work);
    let _ = fs::remove_dir_all(work);
    result
}

fn replay(config: &EngineConfig, data: &Path, work: &Path) -> Result<StoreLayers, String> {
    let store_config = config.store.as_ref().ok_or("engine has no store")?;
    let copy = work.join("copy");
    copy_tree(data, &copy).map_err(|e| format!("copy data dir: {e}"))?;

    // Evict files first: `open` sweeps them.
    let mut latest = BTreeMap::new();
    let mut decode_ns = Vec::new();
    for shard in 0..config.shards {
        let dir = copy.join(format!("shard-{shard}"));
        let mut names: Vec<_> = fs::read_dir(&dir)
            .map_err(|e| format!("list {}: {e}", dir.display()))?
            .flatten()
            .map(|f| f.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("evict-") && n.ends_with(".json"))
            .collect();
        names.sort();
        for name in names {
            let text = fs::read_to_string(dir.join(&name)).map_err(|e| e.to_string())?;
            let snapshot = timed(&mut decode_ns, || {
                StoredTenantSnapshot::from_json_text(&text)
            })
            .map_err(|e| format!("decode {name}: {e}"))?;
            latest.insert(snapshot.id.clone(), snapshot);
        }
    }

    let copy_config = StoreConfig {
        dir: copy.clone(),
        ..store_config.clone()
    };
    let mut open_ns = Vec::new();
    let mut records = Vec::new();
    for shard in 0..config.shards {
        let (_store, recovery) = timed(&mut open_ns, || ShardStore::open(&copy_config, shard))
            .map_err(|e| format!("open shard {shard}: {e}"))?;
        records.extend(recovery.records);
        for tenant in recovery.tenants {
            latest.entry(tenant.id.clone()).or_insert(tenant);
        }
    }

    let (mut encode_ns, mut wal_decode_ns) = (Vec::new(), Vec::new());
    for record in &records {
        let text = timed(&mut encode_ns, || record.to_json_text());
        let decoded = timed(&mut wal_decode_ns, || WalRecord::from_json_text(&text))
            .map_err(|e| format!("decode WAL record: {e}"))?;
        if &decoded != record {
            return Err("WAL record changed across encode and decode".into());
        }
    }

    let replay_config = StoreConfig::new(work.join("replay"))
        .with_sync_every(usize::MAX)
        .with_compact_every(u64::MAX);
    let (mut store, _) =
        ShardStore::open(&replay_config, 0).map_err(|e| format!("open replay store: {e}"))?;
    let (mut append_ns, mut sync_ns) = (Vec::new(), Vec::new());
    for (i, record) in records.iter().enumerate() {
        timed(&mut append_ns, || store.append(record)).map_err(|e| format!("append: {e}"))?;
        if (i + 1) % SYNC_EVERY == 0 {
            timed(&mut sync_ns, || store.sync()).map_err(|e| format!("sync: {e}"))?;
        }
    }
    let tenants: Vec<StoredTenantSnapshot> = latest.into_values().collect();
    let mut compact_ns = Vec::new();
    timed(&mut compact_ns, || store.compact(tenants.clone()))
        .map_err(|e| format!("compact: {e}"))?;
    let (mut evict_ns, mut read_ns) = (Vec::new(), Vec::new());
    for tenant in &tenants {
        timed(&mut evict_ns, || store.write_evicted(tenant))
            .map_err(|e| format!("write evicted: {e}"))?;
    }
    for tenant in &tenants {
        let back = timed(&mut read_ns, || store.read_evicted(&tenant.id))
            .map_err(|e| format!("read evicted: {e}"))?;
        if &back != tenant {
            return Err(format!("evict file of {} read back different", tenant.id));
        }
    }

    Ok(StoreLayers {
        wal_encode_us: mean(&encode_ns) / US,
        wal_decode_us: mean(&wal_decode_ns) / US,
        snapshot_decode_ms: mean(&decode_ns) / MS,
        append_us: mean(&append_ns) / US,
        sync_ms: mean(&sync_ns) / MS,
        compact_ms: mean(&compact_ns) / MS,
        evict_write_ms: mean(&evict_ns) / MS,
        rehydrate_read_ms: mean(&read_ns) / MS,
        open_ms: mean(&open_ns) / MS,
    })
}

/// Copies a two-level directory tree (`shard-<i>/<files>`).
fn copy_tree(from: &Path, to: &Path) -> std::io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &target)?;
        } else {
            fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}
