//! Serve a `netband` fleet over TCP.
//!
//! ```text
//! netband_server [--addr 127.0.0.1:7171] [--shards N] [--queue-capacity N]
//!                [--max-batch N] [--fleet fleet.json] [--obs-addr HOST:PORT]
//!                [--data-dir DIR] [--resident-cap N] [--sync-every N]
//! ```
//!
//! Boots a `ServeEngine`, optionally registers every tenant of a `FleetSpec`
//! JSON document, binds the framed wire protocol, prints one
//! `listening on <addr>` line, and serves until killed. With `--obs-addr`
//! it also binds an HTTP scrape endpoint serving the Prometheus-style text
//! exposition (engine metrics, per-tenant bandit telemetry, transport
//! counters) and prints one `observability on <addr>` line. Exit code 2 on
//! bad usage, 1 on runtime failure.
//!
//! With `--data-dir` every shard keeps a write-ahead log and compacted
//! snapshots under the directory, so a `kill -9` resumes bit-exactly on the
//! next boot from the same directory; tenants of a `--fleet` document that
//! were already recovered from disk are kept (not re-registered from
//! scratch). `--resident-cap` additionally bounds the tenants each shard
//! keeps in RAM, spilling idle ones to the disk eviction tier, and
//! `--sync-every` batches WAL fsyncs (default 1: every acknowledged mutation
//! is on disk before the reply; larger values trade the *machine*-crash
//! window for throughput — a killed process alone loses nothing either way,
//! since every record is written out before its command acknowledges).

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use netband_net::{NetServer, ObsServer, ServerConfig};
use netband_serve::{EngineConfig, ServeEngine, ServeError, StoreConfig};
use netband_spec::FleetSpec;

struct Args {
    addr: String,
    shards: usize,
    queue_capacity: usize,
    max_batch: u32,
    fleet: Option<String>,
    obs_addr: Option<String>,
    data_dir: Option<String>,
    resident_cap: Option<usize>,
    sync_every: Option<usize>,
}

const USAGE: &str = "usage: netband_server [--addr HOST:PORT] [--shards N] \
                     [--queue-capacity N] [--max-batch N] [--fleet FLEET.json] \
                     [--obs-addr HOST:PORT] [--data-dir DIR] [--resident-cap N] \
                     [--sync-every N]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7171".into(),
        shards: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .min(8),
        queue_capacity: 1024,
        max_batch: 4096,
        fleet: None,
        obs_addr: None,
        data_dir: None,
        resident_cap: None,
        sync_every: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} requires a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--shards" => {
                args.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?
            }
            "--queue-capacity" => {
                args.queue_capacity = value("--queue-capacity")?
                    .parse()
                    .map_err(|e| format!("--queue-capacity: {e}"))?
            }
            "--max-batch" => {
                args.max_batch = value("--max-batch")?
                    .parse()
                    .map_err(|e| format!("--max-batch: {e}"))?
            }
            "--fleet" => args.fleet = Some(value("--fleet")?),
            "--obs-addr" => args.obs_addr = Some(value("--obs-addr")?),
            "--data-dir" => args.data_dir = Some(value("--data-dir")?),
            "--resident-cap" => {
                args.resident_cap = Some(
                    value("--resident-cap")?
                        .parse()
                        .map_err(|e| format!("--resident-cap: {e}"))?,
                )
            }
            "--sync-every" => {
                args.sync_every = Some(
                    value("--sync-every")?
                        .parse()
                        .map_err(|e| format!("--sync-every: {e}"))?,
                )
            }
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn run(args: Args) -> Result<(), String> {
    if args.resident_cap.is_some() && args.data_dir.is_none() {
        return Err(format!("--resident-cap requires --data-dir\n{USAGE}"));
    }
    if args.sync_every.is_some() && args.data_dir.is_none() {
        return Err(format!("--sync-every requires --data-dir\n{USAGE}"));
    }
    if args.sync_every == Some(0) {
        return Err(format!("--sync-every must be at least 1\n{USAGE}"));
    }
    if args.resident_cap == Some(0) {
        return Err(format!("--resident-cap must be at least 1\n{USAGE}"));
    }
    let mut config = EngineConfig::new(args.shards).with_queue_capacity(args.queue_capacity);
    let durable = args.data_dir.is_some();
    if let Some(dir) = &args.data_dir {
        let mut store = StoreConfig::new(dir);
        if let Some(cap) = args.resident_cap {
            store = store.with_resident_cap(cap);
        }
        if let Some(every) = args.sync_every {
            store = store.with_sync_every(every);
        }
        config = config.with_store(store);
    }
    let engine = Arc::new(
        ServeEngine::try_start(config).map_err(|e| format!("recover durable state: {e}"))?,
    );
    if let Some(path) = &args.fleet {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let fleet = FleetSpec::from_json_text(&text).map_err(|e| format!("parse {path}: {e}"))?;
        fleet
            .validate()
            .map_err(|e| format!("validate fleet {path}: {e}"))?;
        // On a durable reboot, tenants of the document that already came back
        // from disk keep their recovered learning state — re-registering them
        // from scratch would reset it.
        let mut registered = 0usize;
        let mut recovered = 0usize;
        for tenant in &fleet.tenants {
            let request =
                netband_serve::RegisterTenantSpec::new(tenant.id.clone(), tenant.scenario.clone());
            match engine.register_tenant_spec(&request) {
                Ok(()) => registered += 1,
                Err(ServeError::DuplicateTenant(_)) if durable => recovered += 1,
                Err(e) => return Err(format!("register fleet {path}: {e}")),
            }
        }
        println!(
            "registered fleet {:?} ({registered} tenants, {recovered} recovered from disk)",
            fleet.name
        );
    }
    let config = ServerConfig {
        max_batch: args.max_batch,
        ..ServerConfig::default()
    };
    let server = NetServer::bind(Arc::clone(&engine), args.addr.as_str(), config)
        .map_err(|e| format!("bind {}: {e}", args.addr))?;
    // The smoke test greps for this exact line to learn the ephemeral port.
    println!("listening on {}", server.local_addr());
    // Keep the scrape endpoint alive for the server's lifetime.
    let _obs = match &args.obs_addr {
        Some(addr) => {
            let obs = ObsServer::bind(
                Arc::clone(&engine),
                Arc::clone(server.stats()),
                addr.as_str(),
            )
            .map_err(|e| format!("bind obs {addr}: {e}"))?;
            // The smoke test greps for this exact line too.
            println!("observability on {}", obs.local_addr());
            Some(obs)
        }
        None => None,
    };
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("netband_server: {message}");
            ExitCode::FAILURE
        }
    }
}
