//! Front-door canary for the netband wire protocol.
//!
//! ```text
//! netband_loadgen [--addr HOST:PORT] [--batches N]
//! ```
//!
//! Without `--addr` an in-process server is spawned on an ephemeral loopback
//! port. The canary registers 8 DFL-SSO tenants and drives 4,096 decisions
//! through 2 real TCP connections, `--batches` decisions per `decide_many`
//! window (default 16), each window answered with a `feedback_many` window;
//! overload frames are retried after a backoff. It exits non-zero on any
//! protocol error, on a throughput below 5k decides/s, or when the server's
//! own metrics count fewer decides than the canary sent. It catches protocol
//! stalls; the serving benchmark is the `netbench/` package.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use netband_net::{NetClient, NetServer, ServerConfig};
use netband_serve::{EngineConfig, ServeEngine};
use netband_spec::wire::{WireRequest, WireResponse};
use netband_spec::{
    ArmsSpec, FeedbackSpec, GraphSpec, PolicySpec, ScenarioSpec, SideBonus, WireFeedback,
    WorkloadSpec, SPEC_VERSION,
};

/// TCP connections, each owning a disjoint slice of the tenants.
const CONNECTIONS: usize = 2;
/// Tenants registered over the wire.
const TENANTS: usize = 8;
/// Decisions driven across all connections.
const DECIDES: usize = 4_096;
/// Throughput floor, decides per second. Loopback batched serving runs
/// orders of magnitude above this; the floor only exists to catch a
/// protocol-level stall, not to benchmark CI hosts.
const FLOOR_DECIDES_PER_SEC: f64 = 5_000.0;

struct Args {
    addr: Option<String>,
    batch: u32,
}

const USAGE: &str = "usage: netband_loadgen [--addr HOST:PORT] [--batches N]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: None,
        batch: 16,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} requires a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--addr" => args.addr = Some(value("--addr")?),
            "--batches" => {
                args.batch = value("--batches")?
                    .parse()
                    .map_err(|e| format!("--batches: {e}"))?
            }
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if args.batch == 0 {
        return Err(format!("--batches must be at least 1\n{USAGE}"));
    }
    Ok(args)
}

/// The scenario every load-generator tenant hosts: a 10-arm Erdős–Rényi
/// side-observation workload under DFL-SSO — small enough that the engine,
/// not the policy, dominates the cost being measured.
fn loadgen_scenario(index: usize) -> ScenarioSpec {
    ScenarioSpec {
        version: SPEC_VERSION,
        name: format!("loadgen-{index}"),
        workload: WorkloadSpec {
            graph: GraphSpec::ErdosRenyi {
                num_arms: 10,
                edge_prob: 0.3,
            },
            arms: ArmsSpec::UniformMeanBernoulli { num_arms: 10 },
            family: None,
            drift: None,
            seed: 9_000 + index as u64,
        },
        policy: PolicySpec::DflSso,
        side_bonus: SideBonus::Observation,
        horizon: 1_000,
        replications: 1,
        seed: 100 + index as u64,
        feedback: FeedbackSpec::Batched { max_pending: 256 },
    }
}

/// What one connection served.
#[derive(Default)]
struct WorkerStats {
    decides: usize,
    overload_rejections: u64,
}

/// One worker: a real TCP connection serving its disjoint tenant slice. Any
/// reply other than success or overload is a protocol error and aborts it.
fn run_worker(
    addr: SocketAddr,
    tenants: Vec<String>,
    target: usize,
    batch: u32,
) -> Result<WorkerStats, String> {
    let mut client = NetClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut stats = WorkerStats::default();
    let mut tenant_cursor = 0usize;
    while stats.decides < target {
        let tenant = &tenants[tenant_cursor % tenants.len()];
        tenant_cursor += 1;
        let n = (target - stats.decides).min(batch as usize) as u32;
        let replies = loop {
            match client.decide_many(tenant, n) {
                Ok(replies) => break replies,
                Err(e) if e.is_overloaded() => {
                    stats.overload_rejections += 1;
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(e) => return Err(format!("decide_many({tenant}, {n}): {e}")),
            }
        };
        stats.decides += replies.len();
        // Route the echoed feedback back in one window, also with overload
        // retry. Built as a raw request so a rejected window can be resent
        // without cloning the events.
        let events: Vec<WireFeedback> = replies
            .into_iter()
            .filter_map(|r| {
                r.feedback.map(|event| WireFeedback {
                    round: r.round,
                    event,
                })
            })
            .collect();
        if events.is_empty() {
            continue;
        }
        let request = WireRequest::FeedbackMany {
            tenant: tenant.clone(),
            events,
        };
        loop {
            match client.call(&request) {
                Ok(WireResponse::Accepted { .. }) => break,
                Ok(WireResponse::Error {
                    code: netband_spec::WireErrorCode::Overloaded,
                    ..
                }) => {
                    stats.overload_rejections += 1;
                    std::thread::sleep(Duration::from_micros(200));
                }
                Ok(other) => {
                    return Err(format!(
                        "feedback_many({tenant}): unexpected {}",
                        other.to_json_text()
                    ))
                }
                Err(e) => return Err(format!("feedback_many({tenant}): {e}")),
            }
        }
    }
    Ok(stats)
}

fn run(args: &Args) -> Result<(), String> {
    // In-process server unless pointed at a live one.
    let local = if args.addr.is_none() {
        let shards = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .min(4);
        let engine = Arc::new(ServeEngine::start(
            EngineConfig::new(shards).with_queue_capacity(1024),
        ));
        let server = NetServer::bind(engine, "127.0.0.1:0", ServerConfig::default())
            .map_err(|e| format!("bind in-process server: {e}"))?;
        Some(server)
    } else {
        None
    };
    let addr: SocketAddr = match (&args.addr, &local) {
        (Some(text), _) => text.parse().map_err(|e| format!("--addr {text}: {e}"))?,
        (None, Some(server)) => server.local_addr(),
        (None, None) => unreachable!(),
    };

    // Register the tenant fleet over the wire (idempotence not needed: a
    // duplicate registration on an external server is a hard error we want
    // to see).
    let tenant_ids: Vec<String> = (0..TENANTS).map(|t| format!("lg-{t}")).collect();
    let mut setup = NetClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    for (index, id) in tenant_ids.iter().enumerate() {
        setup
            .register_tenant(id.clone(), loadgen_scenario(index))
            .map_err(|e| format!("register {id}: {e}"))?;
    }

    let start = Instant::now();
    let workers: Vec<_> = (0..CONNECTIONS)
        .map(|c| {
            // Disjoint tenant ownership: no two connections interleave
            // rounds of the same tenant, so feedback windows stay valid.
            let owned: Vec<String> = tenant_ids
                .iter()
                .skip(c)
                .step_by(CONNECTIONS)
                .cloned()
                .collect();
            let batch = args.batch;
            std::thread::spawn(move || {
                run_worker(addr, owned, DECIDES.div_ceil(CONNECTIONS), batch)
            })
        })
        .collect();
    let mut total = WorkerStats::default();
    for worker in workers {
        let stats = worker.join().expect("worker thread panicked")?;
        total.decides += stats.decides;
        total.overload_rejections += stats.overload_rejections;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let rate = total.decides as f64 / elapsed.max(1e-9);
    println!(
        "connections={CONNECTIONS} batch={}  {} decides in {elapsed:.3}s  {rate:.0}/s  overloads={}",
        args.batch, total.decides, total.overload_rejections,
    );

    // Cross-check against the server's own accounting.
    let metrics = setup.metrics().map_err(|e| format!("metrics: {e}"))?;
    if metrics.total_decides < total.decides as u64 {
        return Err(format!(
            "server reports {} decides, loadgen counted {}",
            metrics.total_decides, total.decides
        ));
    }
    println!(
        "server metrics: {} decides, {} feedback events, p99 decide {}{}us",
        metrics.total_decides,
        metrics.total_feedback_events,
        if metrics.decide_latency.p99_exact {
            "<="
        } else {
            ">"
        },
        metrics.decide_latency.p99_ns / 1_000,
    );

    if rate < FLOOR_DECIDES_PER_SEC {
        return Err(format!(
            "{rate:.0} decides/s below the {FLOOR_DECIDES_PER_SEC:.0}/s floor"
        ));
    }
    println!("ok: {rate:.0} decides/s >= {FLOOR_DECIDES_PER_SEC:.0}/s with zero protocol errors");
    if let Some(server) = local {
        server.shutdown();
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("netband_loadgen: {message}");
            ExitCode::FAILURE
        }
    }
}
