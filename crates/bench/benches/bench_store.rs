//! Durable-store bench: WAL append throughput across fsync schedules, and
//! recovery time as a function of WAL length.
//!
//! Like `bench_serve` this is a hand-rolled harness (`harness = false`): the
//! quantities of interest are wall-clock file-system rates.
//!
//! Two sweeps:
//!
//! * **appends/sec** — a raw [`ShardStore`] logging representative feedback
//!   records under `sync_every` ∈ {1, 64, 1024}. `sync_every = 1` is the
//!   default durability contract (every acknowledged mutation fsynced);
//!   the larger schedules show what batching buys, since the fsync — not
//!   the framing, checksum, or JSON encoding — dominates the append.
//! * **recovery-time vs WAL length** — a durable single-shard engine serves
//!   N closed-loop rounds with compaction disabled (so the WAL holds the
//!   whole history), is abandoned mid-flight like a killed process, and the
//!   next `ServeEngine::try_start` on the same directory is timed: snapshot
//!   load + WAL-tail replay through the ordinary decide/feedback paths,
//!   decisions regenerated from the persisted RNG state.
//!
//! Every full run prints both tables and writes `BENCH_store.json` at the
//! workspace root — the checked-in durability perf trajectory. Set
//! `NETBAND_BENCH_FAST=1` for a smoke run (CI) that skips the JSON write and
//! **fails** below conservative floors on the machine-independent cells
//! (batched-fsync appends and replay rate; the `sync_every = 1` cell is
//! reported but never gated — raw fsync latency is hardware).

use std::path::PathBuf;
use std::time::Instant;

use netband_env::SinglePlayFeedback;
use netband_serve::{EngineConfig, RegisterTenantSpec, ServeEngine, StoreConfig};
use netband_spec::{
    ArmsSpec, FeedbackEvent, FeedbackSpec, GraphSpec, PolicySpec, ScenarioSpec, SideBonus,
    WalRecord, WorkloadSpec, SPEC_VERSION,
};
use netband_store::ShardStore;

/// Smoke floor for the batched-fsync append cells (records/sec). A healthy
/// run appends hundreds of thousands per second; this catches a pathological
/// regression (an accidental fsync-per-record, quadratic re-encoding) without
/// judging disk speed.
const FLOOR_BATCHED_APPENDS_PER_SEC: f64 = 20_000.0;

/// Smoke floor for WAL replay (records/sec). Replay decodes strict JSON and
/// re-runs decide/feedback through the engine — far cheaper than the original
/// fsynced serving, far above this floor unless recovery grows a
/// per-record pathology.
const FLOOR_REPLAY_RECORDS_PER_SEC: f64 = 2_000.0;

const SYNC_SCHEDULES: [usize; 3] = [1, 64, 1024];

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("netband_bench_store_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

struct AppendCell {
    sync_every: usize,
    records: u64,
    elapsed_secs: f64,
    wal_bytes: u64,
}

impl AppendCell {
    fn appends_per_sec(&self) -> f64 {
        self.records as f64 / self.elapsed_secs
    }
}

/// A representative hot-path record: one feedback event with side
/// observations, the document the WAL spends most of its bytes on.
fn feedback_record(round: u64) -> WalRecord {
    WalRecord::Feedback {
        tenant: "bench-tenant".into(),
        round,
        event: FeedbackEvent::Single(SinglePlayFeedback {
            arm: (round % 10) as usize,
            direct_reward: 1.0,
            side_reward: 0.5,
            observations: vec![((round % 7) as usize, 1.0), ((round % 3) as usize, 0.0)],
        }),
    }
}

fn run_append_cell(sync_every: usize, records: u64) -> AppendCell {
    let scratch = Scratch::new(&format!("append_{sync_every}"));
    let config = StoreConfig::new(&scratch.0)
        .with_sync_every(sync_every)
        .with_compact_every(u64::MAX);
    let (mut store, recovery) = ShardStore::open(&config, 0).expect("open fresh store");
    assert!(recovery.is_genesis());
    let start = Instant::now();
    for round in 0..records {
        store
            .append(&feedback_record(round + 1))
            .expect("append record");
    }
    store.sync().expect("final sync");
    let elapsed_secs = start.elapsed().as_secs_f64();
    let wal_bytes = store.wal_bytes();
    assert_eq!(store.metrics().appends, records);
    AppendCell {
        sync_every,
        records,
        elapsed_secs,
        wal_bytes,
    }
}

struct RecoveryCell {
    rounds: u64,
    wal_records: u64,
    recovery_secs: f64,
}

impl RecoveryCell {
    fn records_per_sec(&self) -> f64 {
        self.wal_records as f64 / self.recovery_secs
    }
}

/// The recovery workload's scenario: the golden fixture's shape (ER graph,
/// Bernoulli arms, DFL-SSO, immediate feedback) sized to the cell's horizon.
fn recovery_scenario(horizon: usize) -> ScenarioSpec {
    ScenarioSpec {
        version: SPEC_VERSION,
        name: "bench/store-recovery".into(),
        workload: WorkloadSpec {
            graph: GraphSpec::ErdosRenyi {
                num_arms: 12,
                edge_prob: 0.35,
            },
            arms: ArmsSpec::UniformMeanBernoulli { num_arms: 12 },
            family: None,
            drift: None,
            seed: 42,
        },
        policy: PolicySpec::DflSso,
        side_bonus: SideBonus::Observation,
        horizon,
        replications: 1,
        seed: 1007,
        feedback: FeedbackSpec::Immediate,
    }
}

fn run_recovery_cell(rounds: u64) -> RecoveryCell {
    let scratch = Scratch::new(&format!("recover_{rounds}"));
    // Compaction disabled: the WAL keeps the whole history, so the cell
    // measures replay cost as a pure function of log length. Fsyncs batch —
    // the serving phase is setup, not the measurement.
    let config = EngineConfig::new(1).with_store(
        StoreConfig::new(&scratch.0)
            .with_sync_every(64)
            .with_compact_every(u64::MAX),
    );
    let engine = ServeEngine::start(config.clone());
    engine
        .register_tenant_spec(&RegisterTenantSpec::new(
            "bench-recovery",
            recovery_scenario(rounds as usize),
        ))
        .expect("register tenant");
    for _ in 0..rounds {
        let reply = engine.decide("bench-recovery").expect("decide");
        let event = reply.feedback.expect("echoed feedback");
        engine
            .feedback("bench-recovery", reply.round, event)
            .expect("feedback");
    }
    // Abandon the engine at a command boundary, exactly like a killed
    // process: queue drained (the metrics call is a barrier), nothing
    // flushed or synced beyond what serving already wrote.
    engine.metrics().expect("barrier before abandoning");
    std::mem::forget(engine);

    let start = Instant::now();
    let recovered = ServeEngine::try_start(config).expect("recover from disk");
    let recovery_secs = start.elapsed().as_secs_f64();
    let telemetry = recovered
        .telemetry("bench-recovery")
        .expect("recovered tenant");
    assert_eq!(telemetry.round, rounds, "recovery lost rounds");
    let store = recovered
        .store_metrics()
        .expect("store metrics")
        .expect("engine has a store");
    // register + rounds × (decide + feedback), all replayed from the WAL.
    let wal_records = store.recovered_records;
    assert_eq!(wal_records, 1 + 2 * rounds, "unexpected WAL shape");
    recovered.shutdown();
    RecoveryCell {
        rounds,
        wal_records,
        recovery_secs,
    }
}

fn workspace_root() -> PathBuf {
    // crates/bench → workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
}

fn write_json(appends: &[AppendCell], recoveries: &[RecoveryCell]) {
    let append_rows: Vec<String> = appends
        .iter()
        .map(|c| {
            format!(
                "    {{ \"sync_every\": {}, \"records\": {}, \"elapsed_secs\": {:.4}, \
                 \"appends_per_sec\": {:.0}, \"wal_bytes\": {} }}",
                c.sync_every,
                c.records,
                c.elapsed_secs,
                c.appends_per_sec(),
                c.wal_bytes
            )
        })
        .collect();
    let recovery_rows: Vec<String> = recoveries
        .iter()
        .map(|c| {
            format!(
                "    {{ \"rounds\": {}, \"wal_records\": {}, \"recovery_secs\": {:.4}, \
                 \"replay_records_per_sec\": {:.0} }}",
                c.rounds,
                c.wal_records,
                c.recovery_secs,
                c.records_per_sec()
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"store_durability\",\n  \"appends\": [\n{}\n  ],\n  \
         \"recovery\": [\n{}\n  ]\n}}\n",
        append_rows.join(",\n"),
        recovery_rows.join(",\n")
    );
    let path = workspace_root().join("BENCH_store.json");
    std::fs::write(&path, json).expect("write BENCH_store.json");
    println!("wrote {}", path.display());
}

fn main() {
    let fast = std::env::var_os("NETBAND_BENCH_FAST").is_some();
    let append_records: u64 = if fast { 2_000 } else { 20_000 };
    let recovery_rounds: &[u64] = if fast {
        &[200, 800]
    } else {
        &[1_000, 4_000, 16_000]
    };

    println!(
        "store durability: {append_records} appends per schedule{}",
        if fast { " (fast smoke)" } else { "" }
    );
    println!(
        "{:>11} {:>9} {:>9} {:>15} {:>11}",
        "sync_every", "records", "secs", "appends/sec", "wal_bytes"
    );
    let mut appends = Vec::new();
    for &sync_every in &SYNC_SCHEDULES {
        let cell = run_append_cell(sync_every, append_records);
        println!(
            "{:>11} {:>9} {:>9.3} {:>15.0} {:>11}",
            cell.sync_every,
            cell.records,
            cell.elapsed_secs,
            cell.appends_per_sec(),
            cell.wal_bytes
        );
        appends.push(cell);
    }

    println!(
        "\nrecovery time vs WAL length (1 tenant, compaction off, decisions \
         regenerated on replay):"
    );
    println!(
        "{:>9} {:>12} {:>13} {:>17}",
        "rounds", "wal_records", "recovery_secs", "replay_records/s"
    );
    let mut recoveries = Vec::new();
    for &rounds in recovery_rounds {
        let cell = run_recovery_cell(rounds);
        println!(
            "{:>9} {:>12} {:>13.4} {:>17.0}",
            cell.rounds,
            cell.wal_records,
            cell.recovery_secs,
            cell.records_per_sec()
        );
        recoveries.push(cell);
    }

    if fast {
        // CI smoke gates on the machine-independent cells only.
        for cell in appends.iter().filter(|c| c.sync_every > 1) {
            assert!(
                cell.appends_per_sec() >= FLOOR_BATCHED_APPENDS_PER_SEC,
                "WAL append regression: sync_every={} ran at {:.0} appends/sec, below \
                 the {FLOOR_BATCHED_APPENDS_PER_SEC:.0}/sec floor",
                cell.sync_every,
                cell.appends_per_sec()
            );
        }
        for cell in &recoveries {
            assert!(
                cell.records_per_sec() >= FLOOR_REPLAY_RECORDS_PER_SEC,
                "recovery replay regression: {} WAL records replayed at {:.0} \
                 records/sec, below the {FLOOR_REPLAY_RECORDS_PER_SEC:.0}/sec floor",
                cell.wal_records,
                cell.records_per_sec()
            );
        }
        println!(
            "smoke floor ok: batched appends >= {FLOOR_BATCHED_APPENDS_PER_SEC:.0}/sec, \
             replay >= {FLOOR_REPLAY_RECORDS_PER_SEC:.0} records/sec"
        );
    } else {
        write_json(&appends, &recoveries);
    }
}
