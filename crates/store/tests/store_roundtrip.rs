//! Storage-layer contract tests: framing, torn-tail truncation, loud
//! corruption, epoch rotation, and the eviction tier — all below the serving
//! engine (the engine-level crash matrix lives in the workspace's
//! `failure_injection` suite).

use std::fs::OpenOptions;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use netband_spec::{
    ArmsSpec, FeedbackSpec, GraphSpec, PolicySpec, ScenarioSpec, SideBonus, StoredTenantMetrics,
    StoredTenantSnapshot, WalRecord, WorkloadSpec, SPEC_VERSION, STORE_VERSION,
};
use netband_store::{ShardStore, StoreConfig, StoreError};

/// A fresh per-test scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "netband_store_{tag}_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        Scratch(dir)
    }

    fn config(&self) -> StoreConfig {
        StoreConfig::new(&self.0)
    }

    fn shard_dir(&self, shard: usize) -> PathBuf {
        self.0.join(format!("shard-{shard}"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn scenario(name: &str) -> ScenarioSpec {
    ScenarioSpec {
        version: SPEC_VERSION,
        name: name.into(),
        workload: WorkloadSpec {
            graph: GraphSpec::ErdosRenyi {
                num_arms: 5,
                edge_prob: 0.4,
            },
            arms: ArmsSpec::UniformMeanBernoulli { num_arms: 5 },
            family: None,
            drift: None,
            seed: 11,
        },
        policy: PolicySpec::DflSso,
        side_bonus: SideBonus::Observation,
        horizon: 40,
        replications: 1,
        seed: 3,
        feedback: FeedbackSpec::Immediate,
    }
}

fn tenant_snapshot(id: &str, round: u64) -> StoredTenantSnapshot {
    StoredTenantSnapshot {
        version: STORE_VERSION,
        id: id.into(),
        scenario: Box::new(scenario(id)),
        round,
        optimal_sum: round as f64 * 0.625,
        total_reward: round as f64 * 0.5,
        flush_max_pending: 1,
        flush_before_decide: true,
        auto_feedback: false,
        echo_feedback: true,
        rng: [round, 2, 3, 4],
        policy: Default::default(),
        pending: Vec::new(),
        metrics: StoredTenantMetrics::default(),
    }
}

fn sample_records() -> Vec<WalRecord> {
    vec![
        WalRecord::Register {
            id: "t0".into(),
            scenario: Box::new(scenario("t0")),
            flush_max_pending: 1,
            flush_before_decide: true,
            auto_feedback: false,
            echo_feedback: true,
        },
        WalRecord::Decide {
            tenant: "t0".into(),
            count: 3,
        },
        WalRecord::Flush {
            tenant: "t0".into(),
        },
        WalRecord::Drain,
    ]
}

#[test]
fn genesis_then_replay_round_trips_records() {
    let scratch = Scratch::new("replay");
    let records = sample_records();
    {
        let (mut store, recovery) = ShardStore::open(&scratch.config(), 0).unwrap();
        assert!(recovery.is_genesis());
        assert_eq!(store.epoch(), 0);
        for record in &records {
            store.append(record).unwrap();
        }
        assert_eq!(store.metrics().appends, 4);
        // sync_every = 1: every append is its own fsync.
        assert_eq!(store.metrics().fsyncs, 4);
        assert!(store.wal_bytes() > 0);
    }
    let (store, recovery) = ShardStore::open(&scratch.config(), 0).unwrap();
    assert_eq!(recovery.records, records);
    assert_eq!(recovery.truncated_bytes, 0);
    assert!(recovery.tenants.is_empty());
    assert_eq!(store.metrics().recovered_records, 4);
}

#[test]
fn fsyncs_batch_on_the_configured_schedule() {
    let scratch = Scratch::new("syncbatch");
    let config = scratch.config().with_sync_every(3);
    let (mut store, _) = ShardStore::open(&config, 0).unwrap();
    for _ in 0..7 {
        store.append(&WalRecord::Drain).unwrap();
    }
    // 7 appends at sync_every=3 → fsyncs after the 3rd and 6th only.
    assert_eq!(store.metrics().appends, 7);
    assert_eq!(store.metrics().fsyncs, 2);
    store.sync().unwrap();
    assert_eq!(store.metrics().fsyncs, 3);
    // Nothing pending: an explicit sync is a no-op, not a counted fsync.
    store.sync().unwrap();
    assert_eq!(store.metrics().fsyncs, 3);
}

#[test]
fn torn_tails_are_truncated_silently() {
    let scratch = Scratch::new("torn");
    let records = sample_records();
    let wal_path = scratch.shard_dir(0).join("wal-0.log");
    // Cut the file at every byte length between "all records" and "all
    // records plus one full extra frame": each cut must recover exactly the
    // intact prefix and drop the torn remainder.
    let (intact_len, full_len) = {
        let (mut store, _) = ShardStore::open(&scratch.config(), 0).unwrap();
        for record in &records {
            store.append(record).unwrap();
        }
        let intact = store.wal_bytes();
        store.append(&WalRecord::Drain).unwrap();
        (intact, store.wal_bytes())
    };
    let pristine = std::fs::read(&wal_path).unwrap();
    for cut in intact_len + 1..full_len {
        std::fs::write(&wal_path, &pristine[..cut as usize]).unwrap();
        let (store, recovery) = ShardStore::open(&scratch.config(), 0).unwrap();
        assert_eq!(recovery.records, records, "cut at {cut}");
        assert_eq!(recovery.truncated_bytes, cut - intact_len, "cut at {cut}");
        // The tail is gone from disk too: appends resume at the clean edge.
        assert_eq!(store.wal_bytes(), intact_len);
    }
}

#[test]
fn checksum_mismatches_fail_loudly() {
    let scratch = Scratch::new("crc");
    let wal_path = scratch.shard_dir(0).join("wal-0.log");
    {
        let (mut store, _) = ShardStore::open(&scratch.config(), 0).unwrap();
        for record in sample_records() {
            store.append(&record).unwrap();
        }
    }
    // Flip one payload byte of the *first* frame (a complete frame, so this
    // cannot be mistaken for a torn tail).
    let mut bytes = std::fs::read(&wal_path).unwrap();
    bytes[6] ^= 0x01;
    std::fs::write(&wal_path, &bytes).unwrap();
    let err = ShardStore::open(&scratch.config(), 0).unwrap_err();
    assert!(err.is_corruption(), "{err}");
    assert!(err.to_string().contains("checksum"), "{err}");
}

#[test]
fn absurd_length_fields_fail_loudly() {
    let scratch = Scratch::new("length");
    let wal_path = scratch.shard_dir(0).join("wal-0.log");
    {
        let (mut store, _) = ShardStore::open(&scratch.config(), 0).unwrap();
        store.append(&WalRecord::Drain).unwrap();
    }
    let mut file = OpenOptions::new().append(true).open(&wal_path).unwrap();
    file.write_all(&u32::MAX.to_be_bytes()).unwrap();
    drop(file);
    let err = ShardStore::open(&scratch.config(), 0).unwrap_err();
    assert!(err.is_corruption(), "{err}");
    assert!(err.to_string().contains("length"), "{err}");
}

#[test]
fn compaction_rotates_the_epoch_and_supersedes_the_wal() {
    let scratch = Scratch::new("compact");
    let config = scratch.config().with_compact_every(3);
    {
        let (mut store, _) = ShardStore::open(&config, 0).unwrap();
        for record in sample_records() {
            assert!(!store.compaction_due() || store.metrics().appends >= 3);
            store.append(&record).unwrap();
        }
        assert!(store.compaction_due());
        store
            .compact(vec![tenant_snapshot("t0", 3), tenant_snapshot("t1", 5)])
            .unwrap();
        assert_eq!(store.epoch(), 1);
        assert_eq!(store.wal_bytes(), 0);
        assert!(!store.compaction_due());
        assert_eq!(store.metrics().compactions, 1);
        // Epoch 0's files are superseded and gone.
        assert!(!scratch.shard_dir(0).join("wal-0.log").exists());
        assert!(!scratch.shard_dir(0).join("snapshot-0.json").exists());
        // Post-compaction mutations land in the new WAL.
        store
            .append(&WalRecord::Decide {
                tenant: "t1".into(),
                count: 1,
            })
            .unwrap();
    }
    let (store, recovery) = ShardStore::open(&config, 0).unwrap();
    assert_eq!(store.epoch(), 1);
    assert_eq!(recovery.tenants.len(), 2);
    assert_eq!(recovery.tenants[0], tenant_snapshot("t0", 3));
    assert_eq!(recovery.tenants[1].id, "t1");
    assert_eq!(
        recovery.records,
        vec![WalRecord::Decide {
            tenant: "t1".into(),
            count: 1,
        }]
    );
    assert_eq!(store.metrics().recovered_tenants, 2);
    assert_eq!(store.metrics().recovered_records, 1);
}

#[test]
fn a_crash_between_snapshot_commit_and_wal_rotation_recovers_the_new_epoch() {
    let scratch = Scratch::new("midrotate");
    {
        let (mut store, _) = ShardStore::open(&scratch.config(), 0).unwrap();
        for record in sample_records() {
            store.append(&record).unwrap();
        }
        store.compact(vec![tenant_snapshot("t0", 4)]).unwrap();
    }
    // Simulate dying right after the rename committed epoch 1 but before the
    // new WAL was created: delete it, and resurrect epoch 0's files as the
    // stale leftovers such a crash would leave behind.
    let shard_dir = scratch.shard_dir(0);
    std::fs::remove_file(shard_dir.join("wal-1.log")).unwrap();
    std::fs::write(shard_dir.join("wal-0.log"), b"\xde\xad\xbe\xef").unwrap();
    let (store, recovery) = ShardStore::open(&scratch.config(), 0).unwrap();
    assert_eq!(store.epoch(), 1);
    assert_eq!(recovery.tenants, vec![tenant_snapshot("t0", 4)]);
    assert!(recovery.records.is_empty());
    // The stale epoch-0 WAL was swept, not parsed (its garbage bytes would
    // have failed loudly otherwise).
    assert!(!shard_dir.join("wal-0.log").exists());
    assert!(shard_dir.join("wal-1.log").exists());
}

#[test]
fn interrupted_snapshot_tmp_files_are_swept() {
    let scratch = Scratch::new("tmpsweep");
    {
        let (mut store, _) = ShardStore::open(&scratch.config(), 0).unwrap();
        store.append(&WalRecord::Drain).unwrap();
    }
    let tmp = scratch.shard_dir(0).join("snapshot-1.tmp");
    std::fs::write(&tmp, b"{ half a snapsho").unwrap();
    let (store, recovery) = ShardStore::open(&scratch.config(), 0).unwrap();
    assert_eq!(store.epoch(), 0);
    assert_eq!(recovery.records.len(), 1);
    assert!(!tmp.exists());
}

/// A stored tenant is constant-size: nothing in the durable format grows
/// with the rounds served, so a tenant 8192 rounds old writes an evict file
/// within a few bytes (the wider round counters) of one 512 rounds old.
#[test]
fn stored_tenants_do_not_grow_with_their_age() {
    let scratch = Scratch::new("age");
    let (mut store, _) = ShardStore::open(&scratch.config(), 0).unwrap();
    let mut evict_file_bytes = |round: u64| {
        let snapshot = tenant_snapshot("aged", round);
        store.write_evicted(&snapshot).unwrap();
        let entry = scratch
            .shard_dir(0)
            .read_dir()
            .unwrap()
            .filter_map(Result::ok)
            .find(|e| e.file_name().to_string_lossy().starts_with("evict-"))
            .expect("evict file written");
        let bytes = entry.metadata().unwrap().len();
        assert_eq!(bytes, snapshot.to_json_text().len() as u64);
        store.read_evicted("aged").unwrap();
        bytes
    };
    let young = evict_file_bytes(512);
    let old = evict_file_bytes(8192);
    assert!(
        old.abs_diff(young) < 1024,
        "a stored tenant grew from {young} to {old} bytes between rounds 512 and 8192"
    );
}

#[test]
fn eviction_tier_round_trips_and_compaction_embeds_it() {
    let scratch = Scratch::new("evict");
    let (mut store, _) = ShardStore::open(&scratch.config(), 0).unwrap();
    let parked = tenant_snapshot("idle/tenant with spaces", 7);
    store.write_evicted(&parked).unwrap();
    assert_eq!(store.metrics().evictions, 1);

    // Rehydration returns the exact snapshot and takes the tenant out of
    // the tier.
    let back = store.read_evicted(&parked.id).unwrap();
    assert_eq!(back, parked);
    assert_eq!(store.metrics().rehydrations, 1);
    assert!(
        store.read_evicted(&parked.id).is_err(),
        "the tenant left the tier"
    );

    // Park two tenants and compact: both must be embedded alongside the
    // resident one, and stay in the tier (their files are still the only
    // live copy a rehydration can use).
    let idle_a = tenant_snapshot("idle-a", 2);
    let idle_b = tenant_snapshot("idle-b", 9);
    store.write_evicted(&idle_b).unwrap();
    store.write_evicted(&idle_a).unwrap();
    store.compact(vec![tenant_snapshot("resident", 1)]).unwrap();
    let rehydrated = store.read_evicted("idle-b").unwrap();
    assert_eq!(rehydrated, idle_b);

    drop(store);
    let (_store, recovery) = ShardStore::open(&scratch.config(), 0).unwrap();
    let ids: Vec<&str> = recovery.tenants.iter().map(|t| t.id.as_str()).collect();
    assert_eq!(ids, ["resident", "idle-a", "idle-b"]);
    // Recovery swept the (now stale) evict files: every tenant starts
    // resident again.
    assert!(!scratch
        .shard_dir(0)
        .read_dir()
        .unwrap()
        .filter_map(Result::ok)
        .any(|e| e.file_name().to_string_lossy().starts_with("evict-")));
}

/// Rehydration leaves the tenant's file behind, stale. Once the caller has
/// mutated the tenant, that file must never stand in for it: it is neither
/// read back nor embedded by compaction, and the tenant's next eviction
/// overwrites it in place, a shorter document included.
#[test]
fn a_stale_evict_file_is_never_read() {
    let scratch = Scratch::new("stale");
    let (mut store, _) = ShardStore::open(&scratch.config(), 0).unwrap();
    let parked = tenant_snapshot("churned", 123_456_789);
    store.write_evicted(&parked).unwrap();
    assert_eq!(store.read_evicted("churned").unwrap(), parked);
    let evict_files = || -> Vec<std::fs::DirEntry> {
        scratch
            .shard_dir(0)
            .read_dir()
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().starts_with("evict-"))
            .collect()
    };
    assert_eq!(evict_files().len(), 1, "rehydration keeps the file");

    // The caller mutates the rehydrated tenant and keeps it resident.
    let current = tenant_snapshot("churned", 5);
    assert!(
        store.read_evicted("churned").is_err(),
        "a stale file was read back"
    );
    store.compact(vec![current.clone()]).unwrap();

    store.write_evicted(&current).unwrap();
    let files = evict_files();
    assert_eq!(files.len(), 1);
    assert_eq!(
        files[0].metadata().unwrap().len(),
        current.to_json_text().len() as u64,
        "the shorter document left the old tail behind"
    );
    assert_eq!(store.read_evicted("churned").unwrap(), current);

    drop(store);
    let (_store, recovery) = ShardStore::open(&scratch.config(), 0).unwrap();
    assert_eq!(
        recovery.tenants,
        vec![current],
        "compaction embedded a stale file"
    );
}

#[test]
fn removing_an_evicted_tenant_drops_its_file() {
    let scratch = Scratch::new("evictrm");
    let (mut store, _) = ShardStore::open(&scratch.config(), 0).unwrap();
    let parked = tenant_snapshot("goner", 1);
    store.write_evicted(&parked).unwrap();
    assert!(store.remove_evicted("goner").unwrap());
    assert!(!store.remove_evicted("goner").unwrap());
    assert!(store.read_evicted("goner").is_err());
}

#[test]
fn distinct_ids_with_identical_sanitized_prefixes_do_not_collide() {
    let scratch = Scratch::new("evictname");
    let (mut store, _) = ShardStore::open(&scratch.config(), 0).unwrap();
    // Both sanitize to the same human-readable prefix; the FNV suffix keeps
    // the files apart.
    let a = tenant_snapshot("tenant:a", 1);
    let b = tenant_snapshot("tenant?a", 2);
    store.write_evicted(&a).unwrap();
    store.write_evicted(&b).unwrap();
    assert_eq!(store.read_evicted("tenant:a").unwrap(), a);
    assert_eq!(store.read_evicted("tenant?a").unwrap(), b);
}

#[test]
fn shards_are_isolated_directories() {
    let scratch = Scratch::new("shards");
    let config = scratch.config();
    let (mut s0, _) = ShardStore::open(&config, 0).unwrap();
    let (mut s1, _) = ShardStore::open(&config, 1).unwrap();
    s0.append(&WalRecord::Drain).unwrap();
    s1.append(&WalRecord::Decide {
        tenant: "only-here".into(),
        count: 1,
    })
    .unwrap();
    drop((s0, s1));
    let (_, r0) = ShardStore::open(&config, 0).unwrap();
    let (_, r1) = ShardStore::open(&config, 1).unwrap();
    assert_eq!(r0.records, vec![WalRecord::Drain]);
    assert_eq!(
        r1.records,
        vec![WalRecord::Decide {
            tenant: "only-here".into(),
            count: 1,
        }]
    );
}

#[test]
fn metrics_absorb_sums_shards() {
    let scratch = Scratch::new("metrics");
    let (mut s0, _) = ShardStore::open(&scratch.config(), 0).unwrap();
    let (mut s1, _) = ShardStore::open(&scratch.config(), 1).unwrap();
    s0.append(&WalRecord::Drain).unwrap();
    s1.append(&WalRecord::Drain).unwrap();
    s1.append(&WalRecord::Drain).unwrap();
    let mut total = netband_store::StoreMetrics::default();
    total.absorb(s0.metrics());
    total.absorb(s1.metrics());
    assert_eq!(total.appends, 3);
    assert_eq!(total.fsyncs, 3);
    assert_eq!(total.wal_bytes, s0.wal_bytes() + s1.wal_bytes());
}

#[test]
fn corruption_errors_identify_themselves() {
    let io = StoreError::Io {
        op: "read wal",
        path: "/nope".into(),
        source: std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
    };
    assert!(!io.is_corruption());
    let corrupt = StoreError::Corrupt {
        path: "/wal".into(),
        offset: 12,
        message: "checksum mismatch".into(),
    };
    assert!(corrupt.is_corruption());
    assert!(corrupt.to_string().contains("byte 12"));
}
