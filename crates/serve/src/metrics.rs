//! Lightweight serving metrics: per-tenant counters, batch-size accounting,
//! latency histograms, and per-tenant learning telemetry.
//!
//! Every shard owns the metrics of its tenants — no cross-thread sharing, no
//! atomics on the hot path. The engine gathers a [`MetricsReport`] on demand
//! by round-tripping a command through every shard, which also acts as a
//! queue barrier (all previously enqueued work is reflected in the report).
//!
//! The latency histogram itself lives in `netband-obs` (the registry's text
//! exposition needs bucket-level access); it is re-exported here so existing
//! `netband_serve::metrics::LatencyHistogram` imports keep working.

pub use netband_obs::{
    DecideStage, LatencyHistogram, StageTimings, TraceEvent, TraceKind, DECIDE_STAGES,
    LATENCY_BUCKETS,
};

/// A tenant's serving counters: the document a stored snapshot persists,
/// defined once in `netband-spec`.
pub use netband_spec::TenantMetrics;

/// Stage-timing sample rate: one decide in this many records its per-stage
/// split (the rest record only the end-to-end decide latency). Keeps the
/// extra monotonic-clock reads off the common path.
pub const STAGE_SAMPLE_EVERY: u64 = 32;

/// Counters of one shard's command loop.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardMetrics {
    /// Commands processed (all kinds).
    pub commands: u64,
    /// Feedback or flush commands addressed to a tenant the shard does not
    /// host (fire-and-forget commands cannot return an error, so they are
    /// counted here instead).
    pub rejected: u64,
    /// Latency of each decision in a decide window (select + pull + score +
    /// reply build). Per-call decides are windows of one and are timed the
    /// same way: tenant lookup and disk rehydration happen once per window
    /// entry, before the clock starts, and are not included.
    pub decide_latency: LatencyHistogram,
    /// Latency of feedback ingestion (queueing plus any triggered flush).
    pub feedback_latency: LatencyHistogram,
    /// Sampled per-stage decide timings (route → select → pull → score →
    /// reply). Only every [`STAGE_SAMPLE_EVERY`]-th decide addressed to a
    /// hosted tenant is split into stages (decides for unknown tenants do
    /// not advance the count), so these histograms describe the *shape* of
    /// a decide, not the decide count. The route lap reads about zero:
    /// routing happens once per window entry, before the clock starts.
    pub stages: StageTimings,
}

/// A point-in-time view of the whole engine's metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsReport {
    /// Per-shard command-loop metrics, indexed by shard.
    pub shards: Vec<ShardMetrics>,
    /// Per-tenant counters of every hosted tenant, sorted by tenant id.
    pub tenants: Vec<(String, TenantMetrics)>,
    /// Commands the engine rejected because a shard's queue was full
    /// (counted engine-side at the `try_send` that failed — the shard never
    /// saw these, so they appear in no shard's counters).
    pub overload_rejections: u64,
}

impl MetricsReport {
    /// Total decisions served across all tenants.
    pub fn total_decides(&self) -> u64 {
        self.tenants.iter().map(|(_, m)| m.decides).sum()
    }

    /// Total feedback events accepted across all tenants.
    pub fn total_feedback_events(&self) -> u64 {
        self.tenants.iter().map(|(_, m)| m.feedback_events).sum()
    }

    /// All shards' decide latencies merged into one histogram.
    pub fn decide_latency(&self) -> LatencyHistogram {
        let mut merged = LatencyHistogram::new();
        for shard in &self.shards {
            merged.merge(&shard.decide_latency);
        }
        merged
    }

    /// All shards' feedback latencies merged into one histogram.
    pub fn feedback_latency(&self) -> LatencyHistogram {
        let mut merged = LatencyHistogram::new();
        for shard in &self.shards {
            merged.merge(&shard.feedback_latency);
        }
        merged
    }

    /// All shards' sampled stage timings merged into one set.
    pub fn stage_timings(&self) -> StageTimings {
        let mut merged = StageTimings::new();
        for shard in &self.shards {
            merged.merge(&shard.stages);
        }
        merged
    }
}

/// A point-in-time learning snapshot of one tenant: what the policy has
/// *learned*, not just how much traffic it served.
///
/// Gathered through the owning shard's command loop like
/// [`MetricsReport`], so reading telemetry is a queue barrier for that shard
/// but never perturbs the tenant (no flush is triggered — the estimator view
/// reflects **flushed** feedback only, pending events are counted but not
/// applied).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantTelemetry {
    /// Tenant id.
    pub id: String,
    /// Name of the hosted policy (e.g. `"DFL-SSO"`).
    pub policy: String,
    /// Rounds served so far.
    pub round: u64,
    /// Feedback events queued but not yet flushed into the policy.
    pub pending_feedback: u64,
    /// Cumulative realised reward across all served rounds.
    pub total_reward: f64,
    /// Cumulative reward of the dynamic oracle (the per-round optimal play,
    /// tracking drift when the tenant drifts).
    pub optimal_reward: f64,
    /// The tenant's serving counters at the same instant.
    pub metrics: TenantMetrics,
    /// Per-arm pull counts from the policy's [`netband_core::estimator::ArmEstimators`]
    /// (empty when the policy keeps no per-arm estimators, e.g. EXP3).
    /// For DFL-CSO the "arms" are dense *strategy* ids, not base arms.
    pub arm_pulls: Vec<u64>,
    /// Per-arm empirical means, parallel to
    /// [`TenantTelemetry::arm_pulls`].
    pub arm_means: Vec<f64>,
}

impl TenantTelemetry {
    /// Dynamic-oracle regret proxy: cumulative optimal reward minus
    /// cumulative realised reward. "Proxy" because both sides are realised
    /// draws of a single run, not expectations.
    pub fn regret(&self) -> f64 {
        self.optimal_reward - self.total_reward
    }
}

/// The engine's drained trace rings: one event list per shard plus the
/// engine-level ring (caller-side overload rejections). Returned by
/// `ServeEngine::trace`; draining resets the rings, so each event is
/// delivered exactly once.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// Per-shard trace events, oldest first, indexed by shard.
    pub shards: Vec<Vec<TraceEvent>>,
    /// Engine-level events (overload rejections recorded at `try_send`).
    pub engine: Vec<TraceEvent>,
}

impl TraceReport {
    /// Total number of events across every ring.
    pub fn total_events(&self) -> usize {
        self.engine.len() + self.shards.iter().map(Vec::len).sum::<usize>()
    }

    /// Iterates over all shard events followed by the engine events.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.shards.iter().flatten().chain(self.engine.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn tenant_metrics_batch_accounting() {
        let mut m = TenantMetrics::default();
        assert_eq!(m.mean_batch(), 0.0);
        m.record_flush(1);
        m.record_flush(31);
        assert_eq!(m.batches_flushed, 2);
        assert_eq!(m.events_applied, 32);
        assert_eq!(m.max_batch, 31);
        assert!((m.mean_batch() - 16.0).abs() < 1e-12);
    }

    #[test]
    fn report_totals_sum_over_tenants() {
        let a = TenantMetrics {
            decides: 10,
            feedback_events: 7,
            ..TenantMetrics::default()
        };
        let b = TenantMetrics {
            decides: 5,
            ..TenantMetrics::default()
        };
        let report = MetricsReport {
            shards: vec![ShardMetrics::default()],
            tenants: vec![("a".into(), a), ("b".into(), b)],
            overload_rejections: 0,
        };
        assert_eq!(report.total_decides(), 15);
        assert_eq!(report.total_feedback_events(), 7);
        assert_eq!(report.decide_latency().count(), 0);
        assert_eq!(report.feedback_latency().count(), 0);
    }

    #[test]
    fn merged_latency_accessors_fold_all_shards() {
        let mut s0 = ShardMetrics::default();
        let mut s1 = ShardMetrics::default();
        s0.decide_latency.record(Duration::from_nanos(100));
        s1.decide_latency.record(Duration::from_nanos(100));
        s0.feedback_latency.record(Duration::from_micros(1));
        s1.feedback_latency.record(Duration::from_micros(2));
        s1.feedback_latency.record(Duration::from_micros(3));
        s0.stages
            .record(DecideStage::Select, Duration::from_nanos(50));
        let report = MetricsReport {
            shards: vec![s0, s1],
            tenants: Vec::new(),
            overload_rejections: 0,
        };
        assert_eq!(report.decide_latency().count(), 2);
        assert_eq!(report.feedback_latency().count(), 3);
        assert_eq!(report.stage_timings().get(DecideStage::Select).count(), 1);
    }

    #[test]
    fn telemetry_regret_is_optimal_minus_realised() {
        let t = TenantTelemetry {
            id: "t".into(),
            policy: "DFL-SSO".into(),
            round: 10,
            pending_feedback: 2,
            total_reward: 4.5,
            optimal_reward: 6.0,
            metrics: TenantMetrics::default(),
            arm_pulls: vec![3, 7],
            arm_means: vec![0.25, 0.75],
        };
        assert!((t.regret() - 1.5).abs() < 1e-12);
    }
}
