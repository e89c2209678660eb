//! Conversions from `netband-serve`'s engine read-outs to the
//! `netband_spec::wire` documents.
//!
//! The documents a decide and a feedback window carry — [`DecideReply`],
//! [`Decision`](netband_serve::api::Decision) and [`FeedbackEvent`] — are
//! `netband-spec` types that `netband-serve` re-exports, so the server
//! encodes and decodes them as they are. What is left here flattens the
//! engine's own report types (errors, metrics, telemetry), which hold more
//! than the wire shows. The orphan rule keeps these free functions rather
//! than `From` impls on either side. They are all structural — no recoding
//! of rewards, so `f64` bit-exactness is preserved end to end.

use netband_serve::api::{DecideReply, FeedbackEvent, ServeError};
use netband_serve::{LatencyHistogram, MetricsReport, TenantTelemetry};
use netband_spec::{WireArmStat, WireErrorCode, WireLatency, WireMetrics, WireTelemetry};

/// Returns `event` unchanged: the wire event is the serve event. Kept for
/// netbench's traced stand-in only.
pub fn event_from_wire(event: FeedbackEvent) -> FeedbackEvent {
    event
}

/// Returns a clone of `reply`: the wire reply is the serve reply, and
/// `NetServer` encodes its replies without copying them. Kept for netbench's
/// traced stand-in only.
pub fn reply_to_wire(reply: &DecideReply) -> DecideReply {
    reply.clone()
}

/// Serve error → wire error code + human-readable message.
///
/// [`ServeError::Overloaded`] is the admission-control signal: the request
/// was not enqueued and the client owns the retry.
pub fn error_to_wire(error: &ServeError) -> (WireErrorCode, String) {
    let code = match error {
        ServeError::UnknownTenant(_) => WireErrorCode::UnknownTenant,
        ServeError::DuplicateTenant(_) => WireErrorCode::DuplicateTenant,
        ServeError::Spec(_) => WireErrorCode::Spec,
        ServeError::Overloaded => WireErrorCode::Overloaded,
        ServeError::EngineDown => WireErrorCode::EngineDown,
        ServeError::Env(_)
        | ServeError::FeedbackKindMismatch(_)
        | ServeError::InvalidRound { .. }
        | ServeError::OutOfSupport { .. }
        | ServeError::InvalidFlushPolicy { .. }
        | ServeError::Store(_)
        | ServeError::NotPersistable(_) => WireErrorCode::Invalid,
    };
    (code, error.to_string())
}

fn latency_to_wire(histogram: &LatencyHistogram) -> WireLatency {
    let (p50, p50_exact) = histogram.quantile_bound(0.5);
    let (p99, p99_exact) = histogram.quantile_bound(0.99);
    WireLatency {
        p50_ns: p50.as_nanos().min(u64::MAX as u128) as u64,
        p50_exact,
        p99_ns: p99.as_nanos().min(u64::MAX as u128) as u64,
        p99_exact,
    }
}

/// Engine metrics report → flat wire snapshot. The SLO quantiles come from
/// the shards' fixed-bucket histograms, merged across shards — no new
/// measurement machinery on the wire path.
pub fn metrics_to_wire(report: &MetricsReport) -> WireMetrics {
    WireMetrics {
        shards: report.shards.len() as u64,
        tenants: report.tenants.len() as u64,
        total_decides: report.total_decides(),
        total_feedback_events: report.total_feedback_events(),
        rejected: report.shards.iter().map(|s| s.rejected).sum(),
        overload_rejections: report.overload_rejections,
        decide_latency: latency_to_wire(&report.decide_latency()),
        feedback_latency: latency_to_wire(&report.feedback_latency()),
    }
}

/// Engine tenant telemetry → flat wire snapshot. Structural — rewards and
/// means cross unchanged, so they stay bit-exact on the wire.
pub fn telemetry_to_wire(telemetry: &TenantTelemetry) -> WireTelemetry {
    WireTelemetry {
        tenant: telemetry.id.clone(),
        policy: telemetry.policy.clone(),
        round: telemetry.round,
        pending_feedback: telemetry.pending_feedback,
        decides: telemetry.metrics.decides,
        feedback_events: telemetry.metrics.feedback_events,
        total_reward: telemetry.total_reward,
        optimal_reward: telemetry.optimal_reward,
        regret: telemetry.regret(),
        arms: telemetry
            .arm_pulls
            .iter()
            .zip(&telemetry.arm_means)
            .enumerate()
            .map(|(arm, (&pulls, &mean))| WireArmStat { arm, pulls, mean })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_serve_error_maps_to_a_wire_code() {
        let cases: Vec<(ServeError, WireErrorCode)> = vec![
            (
                ServeError::UnknownTenant("t".into()),
                WireErrorCode::UnknownTenant,
            ),
            (
                ServeError::DuplicateTenant("t".into()),
                WireErrorCode::DuplicateTenant,
            ),
            (ServeError::Overloaded, WireErrorCode::Overloaded),
            (ServeError::EngineDown, WireErrorCode::EngineDown),
            (
                ServeError::FeedbackKindMismatch("t".into()),
                WireErrorCode::Invalid,
            ),
            (
                ServeError::InvalidRound {
                    tenant: "t".into(),
                    round: 9,
                    served: 3,
                },
                WireErrorCode::Invalid,
            ),
            (
                ServeError::InvalidFlushPolicy { max_pending: 0 },
                WireErrorCode::Invalid,
            ),
        ];
        for (error, expected) in cases {
            let (code, message) = error_to_wire(&error);
            assert_eq!(code, expected, "{error}");
            assert!(!message.is_empty());
        }
    }

    #[test]
    fn telemetry_converts_structurally_and_bit_exactly() {
        let metrics = netband_serve::TenantMetrics {
            decides: 42,
            feedback_events: 40,
            ..Default::default()
        };
        let telemetry = TenantTelemetry {
            id: "t".into(),
            policy: "DFL-SSO".into(),
            round: 42,
            pending_feedback: 2,
            total_reward: 0.1 + 0.2,
            optimal_reward: 30.0,
            metrics,
            arm_pulls: vec![30, 12],
            arm_means: vec![0.1 + 0.2, 0.25],
        };
        let wire = telemetry_to_wire(&telemetry);
        assert_eq!(wire.tenant, "t");
        assert_eq!(wire.decides, 42);
        assert_eq!(wire.feedback_events, 40);
        assert_eq!(wire.total_reward.to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(wire.regret.to_bits(), telemetry.regret().to_bits());
        assert_eq!(wire.arms.len(), 2);
        assert_eq!(wire.arms[0].arm, 0);
        assert_eq!(wire.arms[0].pulls, 30);
        assert_eq!(wire.arms[0].mean.to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(wire.arms[1].arm, 1);
    }
}
