//! One benchmark run: a warm-up episode, then episodes until the time is
//! up, then the end-to-end (untraced) or per-layer (traced) metrics.

use std::fs;
use std::io::{self, Write};
use std::path::PathBuf;
use std::time::Instant;

use netband_serve::{LatencyHistogram, StageTimings, DECIDE_STAGES};

use crate::host::{peak_rss_mib, HostInfo};
use crate::spans::{Layer, LayerTotals};
use crate::stats::{mean, median, Blocks, BLOCK};
use crate::workload::{run_episode, Episode, EpisodePlan, Workload};

/// What to run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Measuring time, s. A run always completes at least one episode per
    /// phase; it starts no new episode once the time is up.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end
    /// metrics.
    pub trace: bool,
    /// Decides per tenant in each episode.
    pub decides_per_tenant: u64,
    /// Require a full latency block, so the p99 rests on ten samples.
    pub check_tail: bool,
    /// Scratch directory for data dirs; removed at the end.
    pub work_dir: PathBuf,
}

impl RunOptions {
    /// Full-scale options for `workload`.
    pub fn new(
        workload: Workload,
        seed: u64,
        seconds: f64,
        trace: bool,
        work_dir: PathBuf,
    ) -> Self {
        RunOptions {
            workload,
            seed,
            seconds,
            trace,
            decides_per_tenant: workload.default_decides_per_tenant(),
            check_tail: true,
            work_dir,
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of a run.
#[derive(Debug)]
pub struct RunReport {
    /// Host and build facts.
    pub host: HostInfo,
    /// Operations attempted across all episodes.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Failed correctness checks (empty when correct).
    pub failures: Vec<String>,
    /// Regret per round of the run (identical in every episode).
    pub regret_per_round: f64,
    /// The reported metrics: end-to-end, or per-layer when traced.
    pub metrics: Vec<Metric>,
    /// Decides per second of each untraced episode, in run order.
    pub episode_rates: Vec<f64>,
    /// Decide-call times of the untraced episodes, ns.
    pub decide_calls: Blocks,
    /// The traced episodes (spans included), kept for the span file.
    pub traced: Vec<Episode>,
}

impl RunReport {
    /// `true` when every correctness check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Writes every traced span as CSV, one block per traced episode.
    pub fn write_spans(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "episode,layer,start_ns,end_ns,parent,window")?;
        for (i, episode) in self.traced.iter().enumerate() {
            if let Some(log) = &episode.spans {
                log.write_csv(i, out)?;
            }
        }
        Ok(())
    }
}

/// What an untraced episode leaves once its samples are pooled.
struct Summary {
    rate: f64,
    setup_s: f64,
    recovery_s: f64,
}

/// Runs the benchmark; the work dir is removed afterwards.
pub fn run(options: &RunOptions) -> Result<RunReport, String> {
    fs::create_dir_all(&options.work_dir)
        .map_err(|e| format!("create {}: {e}", options.work_dir.display()))?;
    let result = run_phases(options);
    let _ = fs::remove_dir_all(&options.work_dir);
    result
}

fn run_phases(options: &RunOptions) -> Result<RunReport, String> {
    let mut count = 0usize;
    let mut episode = |traced: bool, store_layers: bool| {
        count += 1;
        run_episode(&EpisodePlan {
            workload: options.workload,
            seed: options.seed,
            decides_per_tenant: options.decides_per_tenant,
            traced,
            dir: options.work_dir.join(format!("episode-{count}")),
            store_layers,
        })
    };
    let regret = episode(false, false)?.regret_per_round; // warm-up
    let mut failures = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut check = |e: &Episode| {
        failures.extend(e.failures.iter().cloned());
        if e.regret_per_round.to_bits() != regret.to_bits() {
            failures.push(format!(
                "regret_per_round {} differs from the warm-up's {regret} (seed {})",
                e.regret_per_round, options.seed
            ));
        }
        attempted += e.traffic.attempted;
        failed += e.traffic.failed;
    };

    let phase_seconds = if options.trace {
        options.seconds / 2.0
    } else {
        options.seconds
    };
    let mut decide_calls = Blocks::default();
    let mut feedback_calls = Blocks::default();
    let untraced = repeat(phase_seconds, || {
        let e = episode(false, false)?;
        check(&e);
        e.traffic
            .decide_call_ns
            .iter()
            .for_each(|&ns| decide_calls.push(ns));
        e.traffic
            .feedback_call_ns
            .iter()
            .for_each(|&ns| feedback_calls.push(ns));
        Ok(Summary {
            rate: decides_per_s(&e),
            setup_s: e.setup_s,
            recovery_s: e.recovery_s,
        })
    })?;
    let traced = if options.trace {
        let mut first = options.workload.is_durable();
        repeat(phase_seconds, || {
            let e = episode(true, std::mem::take(&mut first))?;
            check(&e);
            Ok(e)
        })?
    } else {
        Vec::new()
    };
    let rates: Vec<f64> = untraced.iter().map(|s| s.rate).collect();

    let metrics = if options.trace {
        let layers = per_layer(options, &rates, &traced);
        let unaccounted = layers
            .iter()
            .find(|m| m.name == "trace.unaccounted_ratio")
            .map_or(0.0, |m| m.value);
        if unaccounted > MAX_UNACCOUNTED {
            failures.push(format!(
                "layer self times leave {unaccounted:.3} of window time unaccounted \
                 (limit {MAX_UNACCOUNTED})"
            ));
        }
        layers
    } else {
        if options.check_tail && decide_calls.blocks() == 0 {
            failures.push(format!(
                "{} decide calls make no block of {BLOCK}, so the p99 rests on fewer \
                 than 10 samples",
                decide_calls.seen()
            ));
        }
        let per_episode =
            |f: fn(&Summary) -> f64| median(&untraced.iter().map(f).collect::<Vec<_>>());
        vec![
            metric("decides_per_s", median(&rates), "1/s"),
            metric("decide_call_p50_us", decide_calls.p50() / 1e3, "us"),
            metric("decide_call_p99_us", decide_calls.p99() / 1e3, "us"),
            metric("feedback_call_p50_us", feedback_calls.p50() / 1e3, "us"),
            metric(
                "ok_ratio",
                1.0 - failed as f64 / attempted.max(1) as f64,
                "ratio",
            ),
            metric("setup_s", per_episode(|s| s.setup_s), "s"),
            metric("recovery_s", per_episode(|s| s.recovery_s), "s"),
            metric("regret_per_round", regret, "reward"),
            metric("peak_rss_mib", peak_rss_mib(), "MiB"),
        ]
    };
    if metrics.iter().any(|m| !m.value.is_finite()) {
        failures.push("a metric is not a finite number".into());
    }
    Ok(RunReport {
        host: HostInfo::detect(),
        attempted,
        failed,
        failures,
        regret_per_round: regret,
        metrics,
        episode_rates: rates,
        decide_calls,
        traced,
    })
}

/// Largest share of traced window time the layer spans may leave
/// unattributed.
pub const MAX_UNACCOUNTED: f64 = 0.10;

/// Runs `episode` until `seconds` have passed, at least once.
fn repeat<T>(
    seconds: f64,
    mut episode: impl FnMut() -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let start = Instant::now();
    let mut episodes = vec![episode()?];
    while start.elapsed().as_secs_f64() < seconds {
        episodes.push(episode()?);
    }
    Ok(episodes)
}

fn decides_per_s(episode: &Episode) -> f64 {
    episode.traffic.measured_decides as f64 / episode.traffic.measured_s
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn mean_ns(histogram: &LatencyHistogram) -> f64 {
    histogram.total_nanos() as f64 / histogram.count().max(1) as f64
}

/// Per-layer metrics of the traced episodes.
fn per_layer(options: &RunOptions, untraced_rates: &[f64], traced: &[Episode]) -> Vec<Metric> {
    let mut totals = LayerTotals::default();
    for episode in traced {
        if let Some(log) = &episode.spans {
            totals.absorb(&LayerTotals::from_log(log));
        }
    }
    let sum = |f: &dyn Fn(&Episode) -> u64| traced.iter().map(f).sum::<u64>() as f64;
    let episodes = traced.len().max(1) as f64;
    let decides = sum(&|e| e.traffic.decides).max(1.0);
    let per_decide_us = |layer: Layer| totals.self_ns(layer) as f64 / decides / 1e3;
    let mean_us = |layers: &[Layer]| totals.mean_self_ns(layers) / 1e3;

    let (mut shard_decide, mut shard_feedback) = (LatencyHistogram::new(), LatencyHistogram::new());
    let mut stages = StageTimings::new();
    for episode in traced {
        shard_decide.merge(&episode.report.decide_latency());
        shard_feedback.merge(&episode.report.feedback_latency());
        stages.merge(&episode.report.stage_timings());
    }
    let shard_decide_ns = mean_ns(&shard_decide);
    let stage_ns = |i: usize| mean_ns(stages.get(DECIDE_STAGES[i]));
    let decide_call_us = mean_us(&[Layer::ServeDecide]);
    let shard_window = traced.first().map_or(0, |e| e.shard_window) as f64;
    let commands = sum(&|e| e.report.shards.iter().map(|s| s.commands).sum());
    let store =
        |f: fn(&netband_serve::StoreMetrics) -> u64| sum(&|e| e.store.as_ref().map_or(0, f));
    let layers = traced
        .iter()
        .find_map(|e| e.store_layers.clone())
        .unwrap_or_default();
    let scrape_mean = |f: fn(&Episode) -> &[u64]| {
        mean(
            &traced
                .iter()
                .flat_map(|e| f(e).iter().copied())
                .collect::<Vec<_>>(),
        )
    };
    let traced_rate = median(&traced.iter().map(decides_per_s).collect::<Vec<_>>());
    let tenants = options.workload.tenants() as f64;

    vec![
        metric(
            "net.frame_read_us",
            mean_us(&[Layer::ClientRead, Layer::ServerRead]),
            "us",
        ),
        metric(
            "net.frame_write_us",
            mean_us(&[Layer::ClientWrite, Layer::ServerWrite]),
            "us",
        ),
        metric(
            "net.bytes_per_decide",
            sum(&|e| e.wire_bytes) / decides,
            "count",
        ),
        metric("net.proto_us_per_decide", per_decide_us(Layer::Proto), "us"),
        metric(
            "spec.request_decode_us_per_decide",
            per_decide_us(Layer::ServerDecode),
            "us",
        ),
        metric(
            "spec.response_encode_us_per_decide",
            per_decide_us(Layer::ServerEncode),
            "us",
        ),
        metric(
            "spec.client_encode_us_per_decide",
            per_decide_us(Layer::ClientEncode),
            "us",
        ),
        metric(
            "spec.client_decode_us_per_decide",
            per_decide_us(Layer::ClientDecode),
            "us",
        ),
        metric("spec.wal_encode_us", layers.wal_encode_us, "us"),
        metric("spec.wal_decode_us", layers.wal_decode_us, "us"),
        metric("spec.snapshot_decode_ms", layers.snapshot_decode_ms, "ms"),
        metric("serve.decide_call_us", decide_call_us, "us"),
        metric(
            "serve.feedback_call_us",
            mean_us(&[Layer::ServeFeedback]),
            "us",
        ),
        metric("serve.shard_decide_ns", shard_decide_ns, "ns"),
        metric("serve.shard_feedback_ns", mean_ns(&shard_feedback), "ns"),
        metric(
            "serve.queue_wait_us",
            decide_call_us - shard_window * shard_decide_ns / 1e3,
            "us",
        ),
        metric("serve.stage.route_ns", stage_ns(0), "ns"),
        metric("serve.stage.select_ns", stage_ns(1), "ns"),
        metric("serve.stage.pull_ns", stage_ns(2), "ns"),
        metric("serve.stage.score_ns", stage_ns(3), "ns"),
        metric("serve.stage.reply_ns", stage_ns(4), "ns"),
        metric("serve.commands_per_decide", commands / decides, "count"),
        metric(
            "serve.overload_rejections",
            sum(&|e| e.report.overload_rejections),
            "count",
        ),
        metric(
            "store.appends_per_decide",
            store(|m| m.appends) / decides,
            "count",
        ),
        metric(
            "store.fsyncs_per_decide",
            store(|m| m.fsyncs) / decides,
            "count",
        ),
        metric(
            "store.compactions",
            store(|m| m.compactions) / episodes,
            "count",
        ),
        metric(
            "store.evictions",
            store(|m| m.evictions) / episodes,
            "count",
        ),
        metric(
            "store.rehydrations",
            store(|m| m.rehydrations) / episodes,
            "count",
        ),
        metric(
            "store.snapshot_bytes_per_tenant",
            sum(&|e| e.stored_bytes) / episodes / tenants,
            "count",
        ),
        metric("store.append_us", layers.append_us, "us"),
        metric("store.sync_ms", layers.sync_ms, "ms"),
        metric("store.compact_ms", layers.compact_ms, "ms"),
        metric("store.evict_write_ms", layers.evict_write_ms, "ms"),
        metric("store.rehydrate_read_ms", layers.rehydrate_read_ms, "ms"),
        metric("store.open_ms", layers.open_ms, "ms"),
        metric(
            "obs.scrape_ms",
            scrape_mean(|e| &e.traffic.scrape_ns) / 1e6,
            "ms",
        ),
        metric(
            "obs.scrape_bytes",
            scrape_mean(|e| &e.traffic.scrape_bytes),
            "count",
        ),
        metric(
            "obs.scrape_rehydrations",
            scrape_mean(|e| &e.traffic.scrape_rehydrations),
            "count",
        ),
        metric(
            "trace.overhead_ratio",
            traced_rate / median(untraced_rates),
            "ratio",
        ),
        metric(
            "trace.unaccounted_ratio",
            totals.unaccounted_ratio(),
            "ratio",
        ),
    ]
}
