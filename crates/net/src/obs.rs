//! Server-side observability: transport counters and the text-exposition
//! scrape endpoint.
//!
//! Two pieces live here:
//!
//! * [`NetStats`] — the TCP front end's own counters (connections, frames,
//!   bytes, decode errors, overload rejections), plain relaxed atomics
//!   bumped by the accept loop and the connection handlers. These are the
//!   *transport* numbers the engine cannot see.
//! * [`ObsServer`] — a minimal HTTP endpoint that, per scrape, gathers the
//!   engine's [`MetricsReport`](netband_serve::MetricsReport), every
//!   tenant's [`TenantTelemetry`](netband_serve::TenantTelemetry), and the
//!   [`NetStats`] counters into a fresh [`Registry`], and answers with
//!   [`Registry::render_text`]. The registry is rebuilt from scratch on every
//!   scrape — nothing observability-related is shared with or touched by the
//!   hot path.
//!
//! The exposition is plain Prometheus text format: every line round-trips
//! through [`netband_obs::parse_exposition`], which CI runs against a live
//! scrape.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use netband_obs::Registry;
use netband_serve::{ServeEngine, DECIDE_STAGES};

/// Transport counters of the TCP front end. All relaxed atomics: each is an
/// independent monotonic count (or a live gauge), never read transactionally.
#[derive(Debug, Default)]
pub struct NetStats {
    /// Connections accepted since boot.
    pub connections_accepted: AtomicU64,
    /// Currently live connections.
    pub connections_active: AtomicU64,
    /// Request frames decoded off the wire.
    pub frames_in: AtomicU64,
    /// Response frames written to the wire.
    pub frames_out: AtomicU64,
    /// Payload bytes read (excluding the 4-byte length prefixes).
    pub bytes_in: AtomicU64,
    /// Payload bytes written (excluding the 4-byte length prefixes).
    pub bytes_out: AtomicU64,
    /// Frames that were not a valid request document (`protocol` errors).
    pub decode_errors: AtomicU64,
    /// Requests answered with an `overloaded` error frame — the server-side
    /// count of admission-control rejections, connection-independent.
    pub overload_rejections: AtomicU64,
}

impl NetStats {
    /// A zeroed counter block.
    pub fn new() -> Self {
        NetStats::default()
    }
}

/// Builds the full scrape document: engine metrics, per-stage and end-to-end
/// latency histograms, per-tenant learning telemetry, and the transport
/// counters. Pure assembly — errors talking to the engine surface as `Err`,
/// never as a partial document.
pub fn render_metrics(
    engine: &ServeEngine,
    stats: &NetStats,
) -> Result<String, netband_serve::api::ServeError> {
    let report = engine.metrics()?;
    let telemetry = engine.telemetry_all()?;
    let mut reg = Registry::new();

    reg.set_counter(
        "netband_decides_total",
        "Decisions served across all tenants",
        &[],
        report.total_decides(),
    );
    reg.set_counter(
        "netband_feedback_events_total",
        "Feedback events accepted across all tenants",
        &[],
        report.total_feedback_events(),
    );
    reg.set_counter(
        "netband_overload_rejections_total",
        "Commands refused because a shard queue was full",
        &[],
        report.overload_rejections,
    );
    for (shard, metrics) in report.shards.iter().enumerate() {
        let shard_label = shard.to_string();
        let labels = [("shard", shard_label.as_str())];
        reg.set_counter(
            "netband_shard_commands_total",
            "Commands processed by each shard's loop",
            &labels,
            metrics.commands,
        );
        reg.set_counter(
            "netband_shard_rejected_total",
            "Commands each shard rejected (unknown tenant, bad feedback)",
            &labels,
            metrics.rejected,
        );
    }
    reg.set_histogram(
        "netband_decide_latency_seconds",
        "End-to-end decide handling latency",
        &[],
        &report.decide_latency(),
    );
    reg.set_histogram(
        "netband_feedback_latency_seconds",
        "Feedback ingestion latency",
        &[],
        &report.feedback_latency(),
    );
    let stages = report.stage_timings();
    for stage in DECIDE_STAGES {
        reg.set_histogram(
            "netband_stage_latency_seconds",
            "Sampled per-stage decide latency (route, select, pull, score, reply)",
            &[("stage", stage.name())],
            stages.get(stage),
        );
    }

    for t in &telemetry {
        let labels = [("tenant", t.id.as_str())];
        reg.set_counter(
            "netband_tenant_rounds_total",
            "Rounds served per tenant",
            &labels,
            t.round,
        );
        reg.set_gauge(
            "netband_tenant_pending_feedback",
            "Feedback events queued but not yet flushed, per tenant",
            &labels,
            t.pending_feedback as f64,
        );
        reg.set_gauge(
            "netband_tenant_reward_total",
            "Cumulative realised reward per tenant",
            &labels,
            t.total_reward,
        );
        reg.set_gauge(
            "netband_tenant_regret",
            "Dynamic-oracle regret proxy per tenant",
            &labels,
            t.regret(),
        );
        for (arm, (&pulls, &mean)) in t.arm_pulls.iter().zip(&t.arm_means).enumerate() {
            let arm_label = arm.to_string();
            let arm_labels = [("tenant", t.id.as_str()), ("arm", arm_label.as_str())];
            reg.set_counter(
                "netband_tenant_arm_pulls_total",
                "Estimator updates per tenant and arm",
                &arm_labels,
                pulls,
            );
            reg.set_gauge(
                "netband_tenant_arm_mean",
                "Empirical mean reward per tenant and arm",
                &arm_labels,
                mean,
            );
        }
    }

    reg.set_counter(
        "netband_net_connections_accepted_total",
        "TCP connections accepted",
        &[],
        stats.connections_accepted.load(Ordering::Relaxed),
    );
    reg.set_gauge(
        "netband_net_connections_active",
        "Currently live TCP connections",
        &[],
        stats.connections_active.load(Ordering::Relaxed) as f64,
    );
    reg.set_counter(
        "netband_net_frames_in_total",
        "Request frames read",
        &[],
        stats.frames_in.load(Ordering::Relaxed),
    );
    reg.set_counter(
        "netband_net_frames_out_total",
        "Response frames written",
        &[],
        stats.frames_out.load(Ordering::Relaxed),
    );
    reg.set_counter(
        "netband_net_bytes_in_total",
        "Request payload bytes read",
        &[],
        stats.bytes_in.load(Ordering::Relaxed),
    );
    reg.set_counter(
        "netband_net_bytes_out_total",
        "Response payload bytes written",
        &[],
        stats.bytes_out.load(Ordering::Relaxed),
    );
    reg.set_counter(
        "netband_net_decode_errors_total",
        "Frames that were not a valid request document",
        &[],
        stats.decode_errors.load(Ordering::Relaxed),
    );
    reg.set_counter(
        "netband_net_overload_rejections_total",
        "Requests answered with an overloaded error frame",
        &[],
        stats.overload_rejections.load(Ordering::Relaxed),
    );

    // Durable-store counters only exist when the engine was started with a
    // `StoreConfig`; an in-memory engine scrapes without any netband_store_*
    // families at all, so dashboards can tell "no persistence" from "idle".
    if let Some(store) = engine.store_metrics()? {
        reg.set_counter(
            "netband_store_wal_appends_total",
            "Records appended to the write-ahead logs",
            &[],
            store.appends,
        );
        reg.set_counter(
            "netband_store_fsyncs_total",
            "fsync barriers issued by the write-ahead logs",
            &[],
            store.fsyncs,
        );
        reg.set_gauge(
            "netband_store_wal_bytes",
            "Live write-ahead log bytes not yet covered by a snapshot",
            &[],
            store.wal_bytes as f64,
        );
        reg.set_counter(
            "netband_store_compactions_total",
            "Snapshot compactions that truncated a WAL prefix",
            &[],
            store.compactions,
        );
        reg.set_counter(
            "netband_store_evictions_total",
            "Tenants spilled from RAM to the disk eviction tier",
            &[],
            store.evictions,
        );
        reg.set_counter(
            "netband_store_rehydrations_total",
            "Tenants loaded back from the disk eviction tier",
            &[],
            store.rehydrations,
        );
        reg.set_counter(
            "netband_store_recovered_records_total",
            "WAL records replayed during the last recovery",
            &[],
            store.recovered_records,
        );
        reg.set_counter(
            "netband_store_recovered_tenants_total",
            "Tenants restored from snapshots during the last recovery",
            &[],
            store.recovered_tenants,
        );
    }

    Ok(reg.render_text())
}

/// A minimal HTTP/1.1 scrape endpoint serving [`render_metrics`] on every
/// request (any method, any path). One short-lived thread per scrape; scrape
/// traffic is a human or a collector on a multi-second period, so there is
/// nothing to pool.
pub struct ObsServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
}

impl ObsServer {
    /// Binds `addr` and starts answering scrapes against `engine` + `stats`.
    pub fn bind(
        engine: Arc<ServeEngine>,
        stats: Arc<NetStats>,
        addr: impl ToSocketAddrs,
    ) -> io::Result<ObsServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let stop = Arc::clone(&stop);
            thread::Builder::new()
                .name("netband-obs-accept".into())
                .spawn(move || obs_accept_loop(listener, engine, stats, stop))
                .expect("spawn obs accept thread")
        };
        Ok(ObsServer {
            local_addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops the endpoint. Dropping does the same implicitly.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

fn obs_accept_loop(
    listener: TcpListener,
    engine: Arc<ServeEngine>,
    stats: Arc<NetStats>,
    stop: Arc<AtomicBool>,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Serve inline: a scrape is one engine round trip plus one
                // write, and the accept loop has nothing better to do. The
                // request read is bounded as a whole, so a client that
                // trickles its headers holds the endpoint for at most
                // `SCRAPE_READ_DEADLINE`.
                let _ = serve_scrape(stream, &engine, &stats);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(10));
            }
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// How long a scrape may take to send its request headers, counted from
/// accept. The scrape is answered when the headers end or the time is up.
const SCRAPE_READ_DEADLINE: Duration = Duration::from_secs(2);

fn serve_scrape(
    mut stream: std::net::TcpStream,
    engine: &ServeEngine,
    stats: &NetStats,
) -> io::Result<()> {
    let deadline = Instant::now() + SCRAPE_READ_DEADLINE;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    // Read until the end of the request headers, the buffer fills, or the
    // deadline passes; the request itself is ignored — every path serves the
    // same document.
    let mut buf = [0u8; 4096];
    let mut read = 0;
    while read < buf.len() {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        stream.set_read_timeout(Some(left))?;
        match stream.read(&mut buf[read..]) {
            Ok(0) => break,
            Ok(n) => {
                // Only the new bytes, plus the 3 before them, can complete
                // the blank line.
                let from = read.saturating_sub(3);
                read += n;
                if buf[from..read].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let (status, body) = match render_metrics(engine, stats) {
        Ok(body) => ("200 OK", body),
        Err(e) => ("503 Service Unavailable", format!("engine error: {e}\n")),
    };
    let header = format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netband_obs::{parse_exposition, ExpositionLine};
    use netband_serve::EngineConfig;

    #[test]
    fn rendered_scrape_parses_and_counts_decides() {
        let engine = ServeEngine::start(EngineConfig::new(2));
        let mut scenario = netband_spec::presets::paper_simulation(8, 0.4, 11);
        scenario.horizon = 50;
        engine
            .register_tenant_spec(&netband_serve::api::RegisterTenantSpec::new(
                "obs-t0", scenario,
            ))
            .unwrap();
        for _ in 0..5 {
            engine.decide("obs-t0").unwrap();
        }
        let stats = NetStats::new();
        stats.frames_in.fetch_add(3, Ordering::Relaxed);
        let text = render_metrics(&engine, &stats).unwrap();
        let lines = parse_exposition(&text).expect("scrape must parse strictly");
        let find = |wanted: &str| {
            lines.iter().find_map(|l| match l {
                ExpositionLine::Sample { name, value, .. } if name == wanted => Some(*value),
                _ => None,
            })
        };
        assert_eq!(find("netband_decides_total"), Some(5.0));
        assert_eq!(find("netband_net_frames_in_total"), Some(3.0));
        // Per-tenant telemetry made it in, with per-arm samples.
        assert!(lines.iter().any(|l| matches!(l,
            ExpositionLine::Sample { name, labels, .. }
                if name == "netband_tenant_arm_pulls_total"
                && labels.iter().any(|(k, v)| k == "tenant" && v == "obs-t0"))));
        engine.shutdown();
    }

    #[test]
    fn obs_server_answers_an_http_scrape() {
        let engine = Arc::new(ServeEngine::start(EngineConfig::new(1)));
        let stats = Arc::new(NetStats::new());
        let obs = ObsServer::bind(Arc::clone(&engine), Arc::clone(&stats), "127.0.0.1:0").unwrap();
        let mut stream = std::net::TcpStream::connect(obs.local_addr()).unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        let body = response
            .split("\r\n\r\n")
            .nth(1)
            .expect("response has a body");
        parse_exposition(body).expect("scrape body must parse strictly");
        obs.shutdown();
    }

    /// A client that sends one header byte every 1.5 s (each read inside a
    /// per-read timeout) holds the endpoint only until the request deadline:
    /// a second scrape is still answered within about 3 s.
    #[test]
    fn a_trickling_client_does_not_block_other_scrapes() {
        let engine = Arc::new(ServeEngine::start(EngineConfig::new(1)));
        let stats = Arc::new(NetStats::new());
        let obs = ObsServer::bind(Arc::clone(&engine), Arc::clone(&stats), "127.0.0.1:0").unwrap();
        let addr = obs.local_addr();
        let done = Arc::new(AtomicBool::new(false));
        let trickler = {
            let done = Arc::clone(&done);
            thread::spawn(move || {
                let mut stream = std::net::TcpStream::connect(addr).unwrap();
                for &byte in b"GET /metrics HTTP/1.1\r\n\r\n" {
                    if done.load(Ordering::SeqCst) || stream.write_all(&[byte]).is_err() {
                        return;
                    }
                    thread::sleep(Duration::from_millis(1500));
                }
            })
        };
        // Let the trickler be accepted first.
        thread::sleep(Duration::from_millis(200));
        let start = Instant::now();
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        let answered = stream.read_to_string(&mut response);
        let waited = start.elapsed();
        done.store(true, Ordering::SeqCst);
        trickler.join().unwrap();
        obs.shutdown();
        answered.expect("the second scrape is answered");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(
            waited < Duration::from_secs(3),
            "the second scrape waited {waited:?} behind a trickling client"
        );
    }
}
