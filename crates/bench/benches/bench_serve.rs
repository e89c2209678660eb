//! Serving-engine throughput bench: decides/sec across shard counts, feedback
//! batch sizes, and client APIs (per-call vs batched).
//!
//! A hand-rolled harness (`harness = false` with a custom `main`): the
//! quantity of interest is sustained multi-client throughput through the
//! shard command channels, which needs concurrent client threads and
//! wall-clock measurement.
//!
//! Every run sweeps the shard counts {1, 4, 16} against feedback batch sizes
//! {1, 32, 1024} over 64 single-play tenants driven by 16 client threads with
//! delayed, out-of-order feedback — through the per-call
//! `ServeEngine::decide`/`feedback` API, the batched
//! `ServeClient::decide_many`/`feedback_many` API (one channel round-trip per
//! window), and the mixed fan-out `ServeClient::decide_many_mixed` (each
//! client batches all its tenants into one request that fans across every
//! target shard concurrently) — prints a table, and writes the results to
//! `BENCH_serve.json` at the workspace root — the checked-in serving perf
//! trajectory (per-shard scaling curves per API, plus the recorded
//! `available_parallelism` to judge them against).
//!
//! Set `NETBAND_BENCH_FAST=1` for a smoke run (CI) that skips the JSON write
//! and **fails** if any cell's throughput drops below [`FLOOR_DECIDES_PER_SEC`]
//! — a conservative floor that catches pathological hot-path regressions
//! without judging machine-dependent shard scaling — or if the batched API at
//! window size 1 falls below [`BATCH_1_PARITY`] of the per-call API (the
//! window-1 gate: both APIs send a one-entry decide window there, and the
//! client's recycled buffers must not cost more than they save).

use std::path::PathBuf;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use netband_core::DflSso;
use netband_env::{ArmSet, NetworkedBandit};
use netband_graph::generators;
use netband_serve::{EngineConfig, FlushPolicy, ServeEngine, TenantSpec};
use netband_sim::SingleScenario;

const TENANTS: usize = 64;
const CLIENTS: usize = 16;
const NUM_ARMS: usize = 10;
const SHARD_COUNTS: [usize; 3] = [1, 4, 16];
const BATCH_SIZES: [usize; 3] = [1, 32, 1024];

/// Smoke-mode throughput floor (decides/sec) — far below any healthy run
/// (hundreds of thousands per second on one shard), far above a pathological
/// regression such as an accidental per-decide lock or channel storm.
const FLOOR_DECIDES_PER_SEC: f64 = 50_000.0;

/// Smoke-mode floor on `batched / per_call` throughput at window size 1 on
/// one shard. Both APIs send the same one-entry decide window; the client
/// reuses its reply lane and buffers where the per-call API allocates them,
/// so the ratio sits near 1.0. Kept conservative because smoke runs are
/// short and the container is small.
const BATCH_1_PARITY: f64 = 0.6;

/// Which client API a cell drives the engine through.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Api {
    /// `ServeEngine::decide` / `feedback`: one command + fresh reply channel
    /// per decision.
    PerCall,
    /// `ServeClient::decide_many` / `feedback_many`: one command round-trip
    /// per window, pooled reply channels, recycled buffers.
    Batched,
    /// `ServeClient::decide_many_mixed`: each client thread serves **all** its
    /// tenants per window through one mixed batch fanned out to every target
    /// shard before any reply is collected.
    Mixed,
}

impl Api {
    fn name(self) -> &'static str {
        match self {
            Api::PerCall => "per_call",
            Api::Batched => "batched",
            Api::Mixed => "mixed",
        }
    }
}

struct Cell {
    api: Api,
    shards: usize,
    batch: usize,
    decides: u64,
    elapsed_secs: f64,
}

impl Cell {
    fn decides_per_sec(&self) -> f64 {
        self.decides as f64 / self.elapsed_secs
    }
}

fn tenant_spec(index: usize, batch: usize) -> TenantSpec {
    let mut rng = StdRng::seed_from_u64(100 + index as u64);
    let graph = generators::erdos_renyi(NUM_ARMS, 0.4, &mut rng);
    let arms = ArmSet::random_bernoulli(NUM_ARMS, &mut rng);
    let bandit = NetworkedBandit::new(graph, arms).expect("bench instance is well-formed");
    TenantSpec::single(
        format!("bench-{index:02}"),
        bandit.clone(),
        DflSso::new(bandit.graph().clone()),
        SingleScenario::SideObservation,
        9000 + index as u64,
    )
    .with_flush(FlushPolicy::batched(batch))
}

/// One client session against one tenant through the per-call API: decide
/// every round, deliver each window of `batch` revealed events in reverse
/// round order.
fn drive_per_call(engine: &ServeEngine, id: &str, rounds: usize, batch: usize) {
    let mut held = Vec::with_capacity(batch);
    for _ in 0..rounds {
        let reply = engine.decide(id).expect("decide");
        held.push((reply.round, reply.feedback.expect("echo")));
        if held.len() >= batch {
            for (round, event) in held.drain(..).rev() {
                engine.feedback(id, round, event).expect("feedback");
            }
        }
    }
    for (round, event) in held.drain(..).rev() {
        engine.feedback(id, round, event).expect("feedback");
    }
}

/// The same session through the batched API: one `decide_many` round-trip per
/// window, then one `feedback_many` command with the window reversed.
fn drive_batched(
    client: &mut netband_serve::ServeClient<'_>,
    id: &str,
    rounds: usize,
    batch: usize,
) {
    let mut replies = Vec::new();
    let mut remaining = rounds;
    while remaining > 0 {
        let chunk = remaining.min(batch);
        client
            .decide_many(id, chunk, &mut replies)
            .expect("decide_many");
        let window = replies.iter_mut().rev().map(|slot| {
            let reply = slot.as_mut().expect("decide");
            (reply.round, reply.feedback.take().expect("echo"))
        });
        client.feedback_many(id, window).expect("feedback_many");
        remaining -= chunk;
    }
}

/// One client thread's whole tenant set through the mixed fan-out API: every
/// window is a single `decide_many_mixed` across all the thread's tenants
/// (partitioned over the shards and served concurrently), then one
/// `feedback_many` per tenant with its window reversed.
fn drive_mixed(
    client: &mut netband_serve::ServeClient<'_>,
    ids: &[String],
    rounds: usize,
    batch: usize,
) {
    let mut replies = Vec::new();
    let mut remaining = rounds;
    while remaining > 0 {
        let chunk = remaining.min(batch);
        client
            .decide_many_mixed(ids.iter().map(|id| (id.as_str(), chunk)), &mut replies)
            .expect("decide_many_mixed");
        // Replies come back in request order: tenant `i` owns the contiguous
        // slot range [i * chunk, (i + 1) * chunk).
        for (i, id) in ids.iter().enumerate() {
            let window = replies[i * chunk..(i + 1) * chunk]
                .iter_mut()
                .rev()
                .map(|slot| {
                    let reply = slot.as_mut().expect("decide");
                    (reply.round, reply.feedback.take().expect("echo"))
                });
            client.feedback_many(id, window).expect("feedback_many");
        }
        remaining -= chunk;
    }
}

/// One sweep cell: an engine with `shards` workers serving `TENANTS` tenants,
/// `CLIENTS` client threads looping decide → (windowed, reversed) feedback
/// through the cell's API.
fn run_cell(api: Api, shards: usize, batch: usize, rounds: usize) -> Cell {
    let engine = ServeEngine::start(EngineConfig::new(shards).with_queue_capacity(256));
    for index in 0..TENANTS {
        engine
            .create_tenant(tenant_spec(index, batch))
            .expect("create bench tenant");
    }
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let engine = &engine;
            scope.spawn(move || {
                let ids: Vec<String> = (client..TENANTS)
                    .step_by(CLIENTS)
                    .map(|index| format!("bench-{index:02}"))
                    .collect();
                match api {
                    Api::PerCall => {
                        for id in &ids {
                            drive_per_call(engine, id, rounds, batch);
                        }
                    }
                    Api::Batched => {
                        let mut c = engine.client();
                        for id in &ids {
                            drive_batched(&mut c, id, rounds, batch);
                        }
                    }
                    Api::Mixed => {
                        let mut c = engine.client();
                        drive_mixed(&mut c, &ids, rounds, batch);
                    }
                }
            });
        }
    });
    engine.drain().expect("drain");
    let elapsed_secs = start.elapsed().as_secs_f64();
    let report = engine.metrics().expect("metrics");
    let decides = report.total_decides();
    assert_eq!(decides, (TENANTS * rounds) as u64);
    assert_eq!(report.total_feedback_events(), decides);
    engine.shutdown();
    Cell {
        api,
        shards,
        batch,
        decides,
        elapsed_secs,
    }
}

fn workspace_root() -> PathBuf {
    // crates/bench → workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
}

fn write_json(cells: &[Cell], rounds: usize) {
    let rows: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "    {{ \"api\": \"{}\", \"shards\": {}, \"feedback_batch\": {}, \
                 \"decides\": {}, \"elapsed_secs\": {:.4}, \"decides_per_sec\": {:.0} }}",
                c.api.name(),
                c.shards,
                c.batch,
                c.decides,
                c.elapsed_secs,
                c.decides_per_sec()
            )
        })
        .collect();
    // Shard scaling is machine-dependent (a 1-core container cannot run
    // shards in parallel at all); record the available parallelism so the
    // checked-in trajectory stays interpretable across machines.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json = format!(
        "{{\n  \"bench\": \"serve_throughput\",\n  \"tenants\": {TENANTS},\n  \
         \"clients\": {CLIENTS},\n  \"num_arms\": {NUM_ARMS},\n  \
         \"rounds_per_tenant\": {rounds},\n  \"available_parallelism\": {cores},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let path = workspace_root().join("BENCH_serve.json");
    std::fs::write(&path, json).expect("write BENCH_serve.json");
    println!("wrote {}", path.display());
}

fn main() {
    // `cargo bench` forwards harness flags (`--bench`, filters); none apply to
    // this hand-rolled harness.
    let fast = std::env::var_os("NETBAND_BENCH_FAST").is_some();
    let rounds = if fast { 40 } else { 1_500 };

    println!(
        "serve throughput: {TENANTS} tenants x {rounds} rounds, {CLIENTS} clients{}",
        if fast { " (fast smoke)" } else { "" }
    );
    println!(
        "{:>9} {:>7} {:>7} {:>12} {:>10} {:>14}",
        "api", "shards", "batch", "decides", "secs", "decides/sec"
    );
    let mut cells = Vec::new();
    for api in [Api::PerCall, Api::Batched, Api::Mixed] {
        for &shards in &SHARD_COUNTS {
            for &batch in &BATCH_SIZES {
                let cell = run_cell(api, shards, batch, rounds);
                println!(
                    "{:>9} {:>7} {:>7} {:>12} {:>10.3} {:>14.0}",
                    cell.api.name(),
                    cell.shards,
                    cell.batch,
                    cell.decides,
                    cell.elapsed_secs,
                    cell.decides_per_sec()
                );
                cells.push(cell);
            }
        }
    }

    // The headline trajectory number: what batching buys on one shard at the
    // middle window size. Printed, not asserted — absolute numbers are
    // machine-dependent; the committed BENCH_serve.json records them together
    // with available_parallelism.
    let pick = |api: Api, shards: usize| {
        cells
            .iter()
            .find(|c| c.api == api && c.shards == shards && c.batch == 32)
            .unwrap()
    };
    let per_call = pick(Api::PerCall, 1);
    let batched = pick(Api::Batched, 1);
    println!(
        "batching win, 1 shard (batch 32): {:.0} -> {:.0} decides/sec ({:.2}x)",
        per_call.decides_per_sec(),
        batched.decides_per_sec(),
        batched.decides_per_sec() / per_call.decides_per_sec()
    );
    let four = pick(Api::Batched, 4);
    println!(
        "scaling 1 -> 4 shards (batched, batch 32): {:.0} -> {:.0} decides/sec ({:.2}x; \
         judge against available_parallelism)",
        batched.decides_per_sec(),
        four.decides_per_sec(),
        four.decides_per_sec() / batched.decides_per_sec()
    );
    let mixed = pick(Api::Mixed, 4);
    println!(
        "mixed fan-out, 4 shards (batch 32): {:.0} decides/sec ({:.2}x vs batched)",
        mixed.decides_per_sec(),
        mixed.decides_per_sec() / four.decides_per_sec()
    );

    if fast {
        // CI smoke gate: any cell below the conservative floor is a
        // pathological hot-path regression, independent of core count.
        for cell in &cells {
            assert!(
                cell.decides_per_sec() >= FLOOR_DECIDES_PER_SEC,
                "serve throughput regression: {} api, {} shards, batch {} ran at {:.0} \
                 decides/sec, below the {FLOOR_DECIDES_PER_SEC:.0}/sec floor",
                cell.api.name(),
                cell.shards,
                cell.batch,
                cell.decides_per_sec()
            );
        }
        println!("smoke floor ok: every cell >= {FLOOR_DECIDES_PER_SEC:.0} decides/sec");
        // The window-1 gate.
        let one = |api: Api| {
            cells
                .iter()
                .find(|c| c.api == api && c.shards == 1 && c.batch == 1)
                .unwrap()
                .decides_per_sec()
        };
        let ratio = one(Api::Batched) / one(Api::PerCall);
        assert!(
            ratio >= BATCH_1_PARITY,
            "batch-1 regression: batched ran at {ratio:.2}x per_call (floor {BATCH_1_PARITY})"
        );
        println!("batch-1 parity ok: batched = {ratio:.2}x per_call at window size 1");
    } else {
        write_json(&cells, rounds);
    }
}
