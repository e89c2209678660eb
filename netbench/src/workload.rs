//! The three workloads and one *episode* of each: fresh set-up, a fixed
//! number of decides per tenant, correctness checks, and recovery.
//!
//! An episode's traffic is fixed, never timed, so its regret and store
//! counts repeat exactly; a run repeats episodes until its time is up.

use std::fs;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use netband_net::{NetClient, NetServer, NetStats, ServerConfig};
use netband_serve::api::RegisterTenantSpec;
use netband_serve::{EngineConfig, MetricsReport, ServeEngine, StoreConfig, StoreMetrics};
use netband_spec::ScenarioSpec;

use crate::scenarios::{loadgen_scenario, paper_scenario, tenant_id};
use crate::spans::{Layer, SpanLog};
use crate::store_layers::{self, StoreLayers};
use crate::tcp::{self, Scrapes, TracedClient};

/// Decides per window (one `decide_many` frame or 32 per tenant in a mixed
/// batch).
pub const WINDOW: u32 = 32;
/// Engine shards of every workload (the benchmark host's core count).
pub const SHARDS: usize = 2;
/// TCP connections of the TCP workloads.
pub const CONNECTIONS: usize = 1;
/// `tcp-durable-evict`: WAL fsync schedule.
pub const SYNC_EVERY: usize = 64;
/// `tcp-durable-evict`: resident tenants per shard.
pub const RESIDENT_CAP: usize = 2;
/// `tcp-durable-evict`: one `render_metrics` scrape per this many windows.
pub const SCRAPE_EVERY: u32 = 64;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 8 DFL-SSO tenants over one loopback TCP connection, window 32.
    TcpSsoW32,
    /// 16 tenants of the four paper presets, mixed in-process windows.
    InprocPaper4,
    /// `TcpSsoW32`'s traffic on a durable, resident-capped engine.
    TcpDurableEvict,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [
        Workload::TcpSsoW32,
        Workload::InprocPaper4,
        Workload::TcpDurableEvict,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TcpSsoW32 => "tcp-sso-w32",
            Workload::InprocPaper4 => "inproc-paper4",
            Workload::TcpDurableEvict => "tcp-durable-evict",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Tenants hosted.
    pub fn tenants(self) -> usize {
        match self {
            Workload::InprocPaper4 => 16,
            _ => 8,
        }
    }

    /// Decides each tenant serves in one episode.
    pub fn default_decides_per_tenant(self) -> u64 {
        match self {
            Workload::InprocPaper4 => 16384,
            _ => 2048,
        }
    }

    /// TCP connections used (0 for in-process).
    pub fn connections(self) -> usize {
        match self {
            Workload::InprocPaper4 => 0,
            _ => CONNECTIONS,
        }
    }

    /// `true` for the workload with a durable store.
    pub fn is_durable(self) -> bool {
        self == Workload::TcpDurableEvict
    }

    /// The tenants of one episode: ids and scenario documents.
    pub fn tenant_specs(self, seed: u64) -> Vec<(String, ScenarioSpec)> {
        (0..self.tenants())
            .map(|i| match self {
                Workload::InprocPaper4 => {
                    let prefix = ["sso", "ssr", "cso", "csr"][i % 4];
                    (tenant_id(prefix, i), paper_scenario(seed, i))
                }
                _ => (tenant_id("loadgen", i), loadgen_scenario(seed, i)),
            })
            .collect()
    }

    fn engine_config(self, dir: &Path) -> EngineConfig {
        let config = EngineConfig::new(SHARDS);
        if self.is_durable() {
            config.with_store(
                StoreConfig::new(dir)
                    .with_sync_every(SYNC_EVERY)
                    .with_resident_cap(RESIDENT_CAP),
            )
        } else {
            config
        }
    }
}

/// What one episode asks for.
#[derive(Debug, Clone)]
pub struct EpisodePlan {
    /// The workload.
    pub workload: Workload,
    /// Workload seed; every scenario seed derives from it.
    pub seed: u64,
    /// Decides per tenant (a multiple of [`WINDOW`]).
    pub decides_per_tenant: u64,
    /// Record spans around every layer call.
    pub traced: bool,
    /// Directory the episode may use (the durable engine's data dir lives
    /// under it); removed when the episode ends.
    pub dir: PathBuf,
    /// Also replay the durable store's own files layer by layer.
    pub store_layers: bool,
}

/// Client-side counts and timings of one episode's traffic.
#[derive(Debug, Clone, Default)]
pub struct Traffic {
    /// Operations attempted (decide, feedback and scrape calls).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Decides served, warm-up included.
    pub decides: u64,
    /// Feedback events sent.
    pub feedback_sent: u64,
    /// Feedback events the server reported accepted.
    pub feedback_accepted: u64,
    /// Decides in the measured phase.
    pub measured_decides: u64,
    /// Wall time of the measured phase, s.
    pub measured_s: f64,
    /// Client-observed decide-call times of the measured phase, ns.
    pub decide_call_ns: Vec<u64>,
    /// Client-observed feedback-call times of the measured phase, ns.
    pub feedback_call_ns: Vec<u64>,
    /// `render_metrics` times, ns.
    pub scrape_ns: Vec<u64>,
    /// `render_metrics` output sizes, bytes.
    pub scrape_bytes: Vec<u64>,
    /// Store rehydrations each traced scrape caused.
    pub scrape_rehydrations: Vec<u64>,
}

/// Everything one episode measured.
#[derive(Debug, Clone)]
pub struct Episode {
    /// Engine start + store open + server bind + registration + connect, s.
    pub setup_s: f64,
    /// The client's traffic.
    pub traffic: Traffic,
    /// Mean over tenants of regret proxy ÷ rounds at episode end.
    pub regret_per_round: f64,
    /// Time to bring the tenants back on a fresh engine, s.
    pub recovery_s: f64,
    /// The engine's metrics at episode end.
    pub report: MetricsReport,
    /// The store's counters at episode end (durable only).
    pub store: Option<StoreMetrics>,
    /// Payload bytes read and written by the server (TCP only).
    pub wire_bytes: u64,
    /// Bytes of snapshot and evict files at episode end (durable only).
    pub stored_bytes: u64,
    /// Decides per decide call on the busiest shard.
    pub shard_window: u64,
    /// Spans of a traced episode.
    pub spans: Option<SpanLog>,
    /// Per-call timings of the store's own operations (durable, on request).
    pub store_layers: Option<StoreLayers>,
    /// Failed correctness checks.
    pub failures: Vec<String>,
}

fn err(context: &str) -> impl Fn(netband_serve::api::ServeError) -> String + '_ {
    move |e| format!("{context}: {e}")
}

/// Runs one episode.
pub fn run_episode(plan: &EpisodePlan) -> Result<Episode, String> {
    fs::create_dir_all(&plan.dir).map_err(|e| format!("create {}: {e}", plan.dir.display()))?;
    let result = match plan.workload {
        Workload::InprocPaper4 => inproc_episode(plan),
        _ => tcp_episode(plan),
    };
    let _ = fs::remove_dir_all(&plan.dir);
    result
}

fn data_dir(plan: &EpisodePlan) -> PathBuf {
    plan.dir.join("data")
}

fn tcp_episode(plan: &EpisodePlan) -> Result<Episode, String> {
    let specs = plan.workload.tenant_specs(plan.seed);
    let ids: Vec<String> = specs.iter().map(|(id, _)| id.clone()).collect();
    let config = plan.workload.engine_config(&data_dir(plan));
    let every = plan.workload.is_durable().then_some(SCRAPE_EVERY);

    let setup = Instant::now();
    let engine = ServeEngine::try_start(config.clone()).map_err(err("start engine"))?;
    let (engine, traffic, setup_s, wire_bytes, protocol_errors, spans) = if plan.traced {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let stats = NetStats::new();
        let epoch = Instant::now();
        let (traffic, setup_s, log) = std::thread::scope(|scope| {
            let server = scope.spawn(|| tcp::stand_in_server(listener, &engine, &stats, epoch));
            let client = TracedClient::connect(addr, epoch)
                .map_err(|e| format!("connect: {e}"))
                .and_then(|mut client| {
                    tcp::register_all(&mut client, &specs)?;
                    let setup_s = setup.elapsed().as_secs_f64();
                    let mut scrape_log = SpanLog::new(epoch);
                    let scrapes = Scrapes {
                        every,
                        stats: &stats,
                        log: Some(&mut scrape_log),
                    };
                    let traffic =
                        tcp::drive(&mut client, &engine, &ids, plan.decides_per_tenant, scrapes)?;
                    Ok((client, traffic, setup_s, scrape_log))
                });
            // Closing the client ends the stand-in's loop.
            let (client, traffic, setup_s, scrape_log) = match client {
                Ok(parts) => parts,
                Err(e) => {
                    let _ = server.join();
                    return Err(e);
                }
            };
            let (mut log, reads) = client.finish();
            let server_log = server
                .join()
                .map_err(|_| "stand-in server panicked".to_string())?
                .map_err(|e| format!("stand-in server: {e}"))?;
            log.absorb(&server_log, |span| {
                reads.get(span.window as usize).copied().flatten()
            });
            log.spans.extend(scrape_log.spans);
            Ok((traffic, setup_s, log))
        })?;
        let (wire, errors) = transport_counts(&stats);
        (engine, traffic, setup_s, wire, errors, Some(log))
    } else {
        let engine = Arc::new(engine);
        let server = NetServer::bind(Arc::clone(&engine), "127.0.0.1:0", ServerConfig::default())
            .map_err(|e| format!("bind: {e}"))?;
        let mut client = NetClient::connect(server.local_addr()).map_err(|e| e.to_string())?;
        tcp::register_all(&mut client, &specs)?;
        let setup_s = setup.elapsed().as_secs_f64();
        let scrapes = Scrapes {
            every,
            stats: server.stats(),
            log: None,
        };
        let traffic = tcp::drive(&mut client, &engine, &ids, plan.decides_per_tenant, scrapes)?;
        drop(client);
        let stats = Arc::clone(server.stats());
        server.shutdown();
        let engine = Arc::try_unwrap(engine)
            .map_err(|_| "engine still shared after server shutdown".to_string())?;
        let (wire, errors) = transport_counts(&stats);
        (engine, traffic, setup_s, wire, errors, None)
    };
    let mut episode = finish(plan, engine, &ids, traffic, setup_s, config)?;
    episode.wire_bytes = wire_bytes;
    episode.shard_window = u64::from(WINDOW);
    episode.spans = spans;
    if protocol_errors != 0 {
        episode.failures.push(format!(
            "server counted {protocol_errors} protocol errors or overload rejections"
        ));
    }
    Ok(episode)
}

/// Payload bytes in + out, and protocol errors + overload rejections.
fn transport_counts(stats: &NetStats) -> (u64, u64) {
    let load = |counter: &std::sync::atomic::AtomicU64| counter.load(Ordering::Relaxed);
    (
        load(&stats.bytes_in) + load(&stats.bytes_out),
        load(&stats.decode_errors) + load(&stats.overload_rejections),
    )
}

fn inproc_episode(plan: &EpisodePlan) -> Result<Episode, String> {
    let specs = plan.workload.tenant_specs(plan.seed);
    let ids: Vec<String> = specs.iter().map(|(id, _)| id.clone()).collect();
    let config = plan.workload.engine_config(&data_dir(plan));

    let setup = Instant::now();
    let engine = ServeEngine::try_start(config.clone()).map_err(err("start engine"))?;
    for (id, scenario) in &specs {
        engine
            .register_tenant_spec(&RegisterTenantSpec::new(id.clone(), scenario.clone()))
            .map_err(err("register"))?;
    }
    let mut client = engine.client();
    let setup_s = setup.elapsed().as_secs_f64();

    let mut per_shard = vec![0u64; SHARDS];
    for id in &ids {
        per_shard[engine.shard_of(id)] += u64::from(WINDOW);
    }
    let window = WINDOW as usize;
    let requests: Vec<(&str, usize)> = ids.iter().map(|id| (id.as_str(), window)).collect();
    let mut log = plan.traced.then(|| SpanLog::new(Instant::now()));
    let mut traffic = Traffic::default();
    let mut out = Vec::new();
    let windows = (plan.decides_per_tenant / u64::from(WINDOW)).max(1);
    let warmup = u64::from(windows > 1);
    let mut measure_start = Instant::now();
    for w in 0..windows {
        if w == warmup {
            measure_start = Instant::now();
        }
        let root = log.as_mut().map(|l| l.open(Layer::Window, None, w as u32));
        let span = log.as_ref().map(|l| l.now());
        let t = Instant::now();
        let decided = client.decide_many_mixed(requests.iter().copied(), &mut out);
        let decide_ns = t.elapsed().as_nanos() as u64;
        if let (Some(l), Some(start)) = (log.as_mut(), span) {
            l.record(Layer::ServeDecide, start, root, w as u32);
        }
        traffic.attempted += 1;
        decided.map_err(err("decide_many_mixed"))?;
        if out.len() != requests.len() * window {
            return Err(format!("decide_many_mixed returned {} replies", out.len()));
        }
        if let Some(Err(e)) = out.iter().find(|r| r.is_err()) {
            traffic.failed += 1;
            return Err(format!("decide_many_mixed: {e}"));
        }
        if out.iter().flatten().any(|r| r.feedback.is_none()) {
            return Err("a decide reply echoed no feedback".into());
        }
        let mut feedback_ns = Vec::with_capacity(ids.len());
        for (i, id) in ids.iter().enumerate() {
            let events = out[i * window..(i + 1) * window].iter_mut().map(|r| {
                let reply = r.as_mut().expect("replies checked above");
                let event = reply.feedback.take().expect("feedback checked above");
                (reply.round, event)
            });
            let span = log.as_ref().map(|l| l.now());
            let t = Instant::now();
            let accepted = client.feedback_many(id, events);
            feedback_ns.push(t.elapsed().as_nanos() as u64);
            if let (Some(l), Some(start)) = (log.as_mut(), span) {
                l.record(Layer::ServeFeedback, start, root, w as u32);
            }
            traffic.attempted += 1;
            traffic.feedback_accepted += accepted.map_err(err("feedback_many"))? as u64;
            traffic.feedback_sent += u64::from(WINDOW);
        }
        if let (Some(l), Some(root)) = (log.as_mut(), root) {
            l.close(root);
        }
        let decides = (requests.len() * window) as u64;
        traffic.decides += decides;
        if w >= warmup {
            traffic.measured_decides += decides;
            traffic.decide_call_ns.push(decide_ns);
            traffic.feedback_call_ns.extend(feedback_ns);
        }
    }
    traffic.measured_s = measure_start.elapsed().as_secs_f64();
    drop(client);

    let mut episode = finish(plan, engine, &ids, traffic, setup_s, config)?;
    episode.shard_window = per_shard.into_iter().max().unwrap_or(0);
    episode.spans = log;
    Ok(episode)
}

/// Checks the engine against the client's counts, reads the end-of-episode
/// state, then abandons the engine and times recovery.
fn finish(
    plan: &EpisodePlan,
    engine: ServeEngine,
    ids: &[String],
    traffic: Traffic,
    setup_s: f64,
    config: EngineConfig,
) -> Result<Episode, String> {
    let mut failures = Vec::new();
    engine.drain().map_err(err("drain"))?;
    let report = engine.metrics().map_err(err("metrics"))?;
    if report.total_decides() != traffic.decides {
        failures.push(format!(
            "server served {} decides, client counted {}",
            report.total_decides(),
            traffic.decides
        ));
    }
    if traffic.feedback_accepted != traffic.feedback_sent
        || report.total_feedback_events() != traffic.feedback_sent
    {
        failures.push(format!(
            "feedback sent {}, acknowledged {}, applied {}",
            traffic.feedback_sent,
            traffic.feedback_accepted,
            report.total_feedback_events()
        ));
    }
    let rejected: u64 = report.shards.iter().map(|s| s.rejected).sum();
    if rejected + report.overload_rejections != 0 {
        failures.push(format!(
            "engine rejected {rejected} commands and refused {} as overloaded",
            report.overload_rejections
        ));
    }
    let store = engine.store_metrics().map_err(err("store metrics"))?;
    let stored_bytes = stored_bytes(&data_dir(plan));
    let telemetry = engine.telemetry_all().map_err(err("telemetry"))?;
    let rounds = plan.decides_per_tenant;
    if telemetry.len() != ids.len() || telemetry.iter().any(|t| t.round != rounds) {
        failures.push(format!("tenants did not all serve {rounds} rounds"));
    }
    let regret_per_round = telemetry
        .iter()
        .map(|t| t.regret() / t.round.max(1) as f64)
        .sum::<f64>()
        / telemetry.len().max(1) as f64;
    if !regret_per_round.is_finite() {
        failures.push(format!("regret per round is {regret_per_round}"));
    }

    // Abandon the engine. For the durable engine, shutdown only fsyncs the
    // WAL, so the data dir holds what a killed process would leave; the
    // in-memory engine leaves each tenant's snapshot.
    let (recovered, recovery_s, store_layers) = if plan.workload.is_durable() {
        drop(engine);
        let layers = if plan.store_layers {
            Some(store_layers::measure(
                &config,
                &data_dir(plan),
                &plan.dir.join("replay"),
            )?)
        } else {
            None
        };
        let t = Instant::now();
        let recovered = ServeEngine::try_start(config).map_err(err("recover"))?;
        (recovered, t.elapsed().as_secs_f64(), layers)
    } else {
        let snapshots = ids
            .iter()
            .map(|id| engine.snapshot_tenant(id))
            .collect::<Result<Vec<_>, _>>()
            .map_err(err("snapshot"))?;
        drop(engine);
        let t = Instant::now();
        let recovered = ServeEngine::try_start(config).map_err(err("restart"))?;
        for snapshot in snapshots {
            recovered.restore_tenant(snapshot).map_err(err("restore"))?;
        }
        (recovered, t.elapsed().as_secs_f64(), None)
    };
    let after = recovered
        .telemetry_all()
        .map_err(err("recovered telemetry"))?;
    let same = after.len() == telemetry.len()
        && after.iter().zip(&telemetry).all(|(a, b)| {
            a.id == b.id && a.round == b.round && a.regret().to_bits() == b.regret().to_bits()
        });
    if !same {
        failures.push("recovered tenants differ from the served ones".into());
    }
    drop(recovered);

    Ok(Episode {
        setup_s,
        traffic,
        regret_per_round,
        recovery_s,
        report,
        store,
        wire_bytes: 0,
        stored_bytes,
        shard_window: 0,
        spans: None,
        store_layers,
        failures,
    })
}

/// Total size of the snapshot and evict files under a durable data dir.
fn stored_bytes(dir: &Path) -> u64 {
    let Ok(shards) = fs::read_dir(dir) else {
        return 0;
    };
    shards
        .flatten()
        .filter_map(|shard| fs::read_dir(shard.path()).ok())
        .flatten()
        .flatten()
        .filter(|f| {
            let name = f.file_name();
            let name = name.to_string_lossy();
            name.ends_with(".json") && (name.starts_with("snapshot-") || name.starts_with("evict-"))
        })
        .filter_map(|f| f.metadata().ok())
        .map(|m| m.len())
        .sum()
}
