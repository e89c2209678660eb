//! Live service: a sharded engine booted from a **declarative fleet spec**,
//! serving concurrent client traffic with delayed, out-of-order feedback.
//!
//! The whole multi-tenant fleet — 16 experiments rotating through the four
//! workload presets, each with its policy, seeds, and flush schedule — is
//! declared in the checked-in JSON document `examples/fleet.json`
//! (regenerate it with `cargo run --example gen_fleet`). This example parses
//! that document into a [`FleetSpec`], boots a 4-shard [`ServeEngine`] from
//! it with one `register_fleet` call, and then drives every tenant from 8
//! client threads over the **batched client API** ([`ServeClient`]): each
//! window of rounds is one `decide_many` round-trip, and the revealed
//! feedback travels back late, in batches, and in reverse round order via
//! `feedback_many`. At the end one tenant is checkpointed, moved to a
//! brand-new engine, and resumed, and the engine's metrics report is printed.
//!
//! Run with: `cargo run --release --example live_service`
//! (`NETBAND_QUICK=1` shrinks the round count for smoke runs.)

use netband::prelude::*;

const CLIENTS: usize = 8;
/// Feedback is withheld client-side in windows of this many rounds, then
/// delivered in reverse order — the delayed/out-of-order regime.
const FEEDBACK_WINDOW: usize = 25;

fn rounds() -> usize {
    if std::env::var("NETBAND_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        30
    } else {
        150
    }
}

/// One client session against one tenant over the batched API: each window of
/// rounds is one `decide_many` round-trip, and its revealed feedback goes
/// back — in reverse round order — as one `feedback_many` command. The
/// client's reply buffers are recycled across windows, so the steady state
/// allocates nothing.
fn drive(client: &mut ServeClient<'_>, tenant: &str, rounds: usize) {
    let mut replies = Vec::new();
    let mut remaining = rounds;
    while remaining > 0 {
        let window = remaining.min(FEEDBACK_WINDOW);
        client
            .decide_many(tenant, window, &mut replies)
            .expect("decide_many");
        let events = replies.iter_mut().rev().map(|slot| {
            let reply = slot.as_mut().expect("decide");
            (reply.round, reply.feedback.take().expect("echoed feedback"))
        });
        client.feedback_many(tenant, events).expect("feedback_many");
        remaining -= window;
    }
}

fn main() {
    let rounds = rounds();

    // The fleet is data: one JSON document declares every tenant's workload,
    // policy, seeds, and flush schedule.
    let fleet_path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/fleet.json");
    let text = std::fs::read_to_string(fleet_path).expect("read examples/fleet.json");
    let fleet = FleetSpec::from_json_text(&text).expect("parse fleet spec");
    let tenant_ids: Vec<String> = fleet.tenants.iter().map(|t| t.id.clone()).collect();

    let engine = ServeEngine::start(EngineConfig::new(4).with_queue_capacity(128));
    engine.register_fleet(&fleet).expect("register fleet");
    println!(
        "booted {:?} from {fleet_path}:\n  {} shards, {} tenants, {CLIENTS} client threads, \
         {rounds} rounds each (feedback delayed in windows of {FEEDBACK_WINDOW})",
        fleet.name,
        engine.num_shards(),
        tenant_ids.len(),
    );

    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let engine = &engine;
            let ids = &tenant_ids;
            scope.spawn(move || {
                let mut client_handle = engine.client();
                for id in ids.iter().skip(client).step_by(CLIENTS) {
                    drive(&mut client_handle, id, rounds);
                }
            });
        }
    });
    engine.drain().expect("drain");
    let elapsed = start.elapsed();

    let report = engine.metrics().expect("metrics");
    println!(
        "\nserved {} decides + {} feedback events in {elapsed:.2?} ({:.0} decides/sec)",
        report.total_decides(),
        report.total_feedback_events(),
        report.total_decides() as f64 / elapsed.as_secs_f64()
    );
    println!("decide latency: {}", report.decide_latency());
    for (shard, metrics) in report.shards.iter().enumerate() {
        println!(
            "  shard {shard}: {} commands, {} rejected, feedback {}",
            metrics.commands, metrics.rejected, metrics.feedback_latency
        );
    }

    // A few per-tenant rows: time-averaged regret proxy after the served
    // rounds.
    println!("\nsample of hosted experiments:");
    for (id, metrics) in report.tenants.iter().step_by(5) {
        let telemetry = engine.telemetry(id).expect("telemetry");
        println!(
            "  {id}: {} decides, mean batch {:.1}, avg regret {:.3} ({})",
            metrics.decides,
            metrics.mean_batch(),
            average_regret(&telemetry),
            telemetry.policy,
        );
    }

    // Checkpoint one tenant, move it to a fresh engine, resume it there.
    let first = tenant_ids.first().expect("non-empty fleet").clone();
    let snapshot = engine.evict_tenant(&first).expect("evict");
    engine.shutdown();
    let second = ServeEngine::with_shards(1);
    second.restore_tenant(snapshot).expect("restore");
    let mut resumed_client = second.client();
    drive(&mut resumed_client, &first, rounds);
    drop(resumed_client);
    second.drain().expect("drain");
    let resumed = second.telemetry(&first).expect("telemetry");
    println!(
        "\n{first} checkpointed at round {rounds}, restored on a fresh engine, now at round {} \
         (avg regret {:.3})",
        resumed.round,
        average_regret(&resumed)
    );
    second.shutdown();
}

/// The tenant's regret proxy per served round (0 before its first decide).
fn average_regret(telemetry: &TenantTelemetry) -> f64 {
    telemetry.regret() / telemetry.round.max(1) as f64
}
