//! Request/response model for the framed TCP wire protocol.
//!
//! `netband-net` puts a server in front of `netband-serve`; the documents it
//! exchanges are defined **here**, next to the [`ScenarioSpec`] codec they
//! embed, so the wire format inherits every property of the spec codec:
//!
//! * **strict decoding** — unknown fields, unknown `"type"` tags, and
//!   duplicate keys are hard errors (a typo'd request fails loudly instead of
//!   silently decoding to something else);
//! * **numeric exactness** — `f64` rewards travel as shortest round-trip
//!   lexemes and therefore arrive bit-identical, which is what lets
//!   `tests/net_equivalence.rs` hold a TCP client to the golden DFL traces
//!   bit for bit;
//! * **no new dependencies** — the same field tables ([`crate::codec`]) over
//!   `std` only: requests and responses decode straight from the frame text
//!   and encode straight into the caller's buffer ([`WireResponse::write_json`]).
//!
//! One request document maps to exactly one response document. Framing
//! (length prefixes, size limits, connection lifecycle) is transport business
//! and lives in `netband-net`; this module is just the payload model:
//!
//! | request                        | success response                  |
//! |--------------------------------|-----------------------------------|
//! | [`WireRequest::DecideMany`]    | [`WireResponse::Decisions`]       |
//! | [`WireRequest::FeedbackMany`]  | [`WireResponse::Accepted`]        |
//! | [`WireRequest::RegisterTenant`]| [`WireResponse::Ok`]              |
//! | [`WireRequest::Metrics`]       | [`WireResponse::Metrics`]         |
//! | [`WireRequest::Telemetry`]     | [`WireResponse::Telemetry`]       |
//!
//! Any request can instead draw [`WireResponse::Error`]; an
//! [`WireErrorCode::Overloaded`] error means the engine's bounded shard queue
//! was full and the request was **not** enqueued — the client should back off
//! and retry, exactly like an HTTP 503.

use netband_env::{CombinatorialFeedback, SinglePlayFeedback};

use crate::codec::{object, tagged, text_entry_points, tokens};
use crate::error::SpecError;
use crate::json::Json;
use crate::model::ScenarioSpec;
use crate::ArmId;

// ---------------------------------------------------------------------------
// model types
// ---------------------------------------------------------------------------

/// A client → server document.
#[derive(Debug, Clone, PartialEq)]
pub enum WireRequest {
    /// Serve `count` consecutive decisions for one tenant (one batched
    /// `decide_many` on the engine — never `count` per-call round trips).
    DecideMany {
        /// Tenant id.
        tenant: String,
        /// Number of decisions to serve (must be ≥ 1; servers may cap it).
        count: u32,
    },
    /// Ingest a window of feedback events for one tenant, possibly delayed
    /// and out of round order.
    FeedbackMany {
        /// Tenant id.
        tenant: String,
        /// The events, each quoting the round of the decision it answers.
        events: Vec<WireFeedback>,
    },
    /// Create a tenant from a declarative scenario document.
    RegisterTenant {
        /// Tenant id (must not collide with a live tenant).
        id: String,
        /// The full scenario (workload, policy, seeds, flush schedule).
        /// Boxed so the rare registration document doesn't inflate every
        /// hot-path `WireRequest` by the size of a `ScenarioSpec`.
        scenario: Box<ScenarioSpec>,
    },
    /// Ask for an engine-wide metrics snapshot.
    Metrics,
    /// Ask for one tenant's learning-telemetry snapshot (per-arm pulls and
    /// means, cumulative realised/oracle reward, pending feedback). Read-only:
    /// the server must not flush the tenant to answer this.
    Telemetry {
        /// Tenant id.
        tenant: String,
    },
}

/// One feedback event in a [`WireRequest::FeedbackMany`] window.
#[derive(Debug, Clone, PartialEq)]
pub struct WireFeedback {
    /// The tenant-local round (1-based) of the decision this answers.
    pub round: u64,
    /// The revealed observations.
    pub event: WireEvent,
}

/// A feedback event body — mirrors `netband-serve`'s `FeedbackEvent` (which
/// this crate cannot name without a dependency cycle) over the shared
/// `netband-env` payload structs.
#[derive(Debug, Clone, PartialEq)]
pub enum WireEvent {
    /// Feedback for a single-play decision.
    Single(SinglePlayFeedback),
    /// Feedback for a combinatorial decision.
    Combinatorial(CombinatorialFeedback),
}

/// A server → client document.
#[derive(Debug, Clone, PartialEq)]
pub enum WireResponse {
    /// Reply to [`WireRequest::DecideMany`].
    Decisions {
        /// Tenant id, echoed.
        tenant: String,
        /// One entry per served decision, in round order.
        replies: Vec<WireReply>,
    },
    /// Reply to [`WireRequest::RegisterTenant`].
    Ok,
    /// Reply to [`WireRequest::FeedbackMany`]: the window was enqueued.
    Accepted {
        /// Number of events accepted.
        count: u64,
    },
    /// Reply to [`WireRequest::Metrics`].
    Metrics(WireMetrics),
    /// Reply to [`WireRequest::Telemetry`]. Boxed: the snapshot is by far
    /// the largest response body and would otherwise dominate the enum size.
    Telemetry(Box<WireTelemetry>),
    /// Any request may fail; the code is machine-readable, the message is
    /// for humans.
    Error {
        /// What went wrong.
        code: WireErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// One served decision — mirrors `netband-serve`'s `DecideReply`.
#[derive(Debug, Clone, PartialEq)]
pub struct WireReply {
    /// The tenant-local round (1-based) of this decision.
    pub round: u64,
    /// The chosen arm or super-arm.
    pub decision: WireDecision,
    /// The realised reward, bit-exact across the wire.
    pub reward: f64,
    /// The revealed feedback to route back later; `None` when the tenant is
    /// configured without feedback echo.
    pub feedback: Option<WireEvent>,
}

/// The chosen arm or super-arm — mirrors `netband-serve`'s `Decision`.
#[derive(Debug, Clone, PartialEq)]
pub enum WireDecision {
    /// A single-play tenant pulled one arm.
    Arm(ArmId),
    /// A combinatorial tenant pulled a super-arm (sorted, deduplicated).
    Strategy(Vec<ArmId>),
}

/// A latency quantile summary read off the engine's fixed-bucket histograms.
///
/// `*_exact` is the exactness flag from `LatencyHistogram::quantile_bound`:
/// `true` means the quantile lies inside a closed bucket and `*_ns` is its
/// upper bound ("p99 ≤ 16µs"); `false` means the quantile fell in the final
/// open-ended bucket and `*_ns` is only a lower bound ("p99 > 512µs").
#[derive(Debug, Clone, PartialEq)]
pub struct WireLatency {
    /// Upper (or, if `!p50_exact`, lower) bound on the median, nanoseconds.
    pub p50_ns: u64,
    /// Whether `p50_ns` is a closed-bucket upper bound.
    pub p50_exact: bool,
    /// Upper (or, if `!p99_exact`, lower) bound on the 99th percentile.
    pub p99_ns: u64,
    /// Whether `p99_ns` is a closed-bucket upper bound.
    pub p99_exact: bool,
}

/// Engine-wide metrics snapshot, flattened for the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireMetrics {
    /// Number of shards in the engine.
    pub shards: u64,
    /// Number of live tenants.
    pub tenants: u64,
    /// Total decisions served since boot.
    pub total_decides: u64,
    /// Total feedback events ingested since boot.
    pub total_feedback_events: u64,
    /// Total commands the shards rejected (unknown tenant, bad feedback, …).
    pub rejected: u64,
    /// Commands refused engine-side because a shard queue was full (the
    /// requests that drew an `overloaded` error frame). Counted where the
    /// rejection happens — no shard ever saw these.
    pub overload_rejections: u64,
    /// Decide-path service latency (merged across shards).
    pub decide_latency: WireLatency,
    /// Feedback-ingestion service latency (merged across shards).
    pub feedback_latency: WireLatency,
}

/// One arm's learning statistics in a [`WireTelemetry`] snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct WireArmStat {
    /// Dense arm id (for DFL-CSO, a dense *strategy* id).
    pub arm: ArmId,
    /// Number of times the estimator has been updated for this arm.
    pub pulls: u64,
    /// Empirical mean reward of this arm, bit-exact across the wire.
    pub mean: f64,
}

/// One tenant's learning-telemetry snapshot, flattened for the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireTelemetry {
    /// Tenant id, echoed.
    pub tenant: String,
    /// Name of the hosted policy (e.g. `"DFL-SSO"`).
    pub policy: String,
    /// Rounds served so far.
    pub round: u64,
    /// Feedback events queued but not yet flushed into the policy.
    pub pending_feedback: u64,
    /// Decisions served (the tenant's serving counter).
    pub decides: u64,
    /// Feedback events accepted (the tenant's serving counter).
    pub feedback_events: u64,
    /// Cumulative realised reward, bit-exact across the wire.
    pub total_reward: f64,
    /// Cumulative dynamic-oracle reward, bit-exact across the wire.
    pub optimal_reward: f64,
    /// Dynamic-oracle regret proxy (`optimal_reward - total_reward`).
    pub regret: f64,
    /// Per-arm statistics (empty when the policy keeps no per-arm
    /// estimators, e.g. EXP3).
    pub arms: Vec<WireArmStat>,
}

/// Machine-readable error codes for [`WireResponse::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireErrorCode {
    /// A bounded shard queue was full; the request was **not** enqueued.
    /// Back off and retry — nothing was lost and nothing was applied.
    Overloaded,
    /// The request frame exceeded the server's size or batch limits.
    TooLarge,
    /// The tenant id names no live tenant.
    UnknownTenant,
    /// [`WireRequest::RegisterTenant`] with an id that is already live.
    DuplicateTenant,
    /// The embedded [`ScenarioSpec`] failed to decode or build.
    Spec,
    /// The request decoded but is semantically invalid (e.g. `count` 0).
    Invalid,
    /// The engine is shutting down; the connection is about to close.
    EngineDown,
    /// The frame was not a valid request document.
    Protocol,
}

impl WireErrorCode {
    /// The wire token for this code.
    pub fn as_str(self) -> &'static str {
        self.token()
    }
}

tokens!(WireErrorCode as "wire error code" {
    "overloaded" => Overloaded,
    "too_large" => TooLarge,
    "unknown_tenant" => UnknownTenant,
    "duplicate_tenant" => DuplicateTenant,
    "spec" => Spec,
    "invalid" => Invalid,
    "engine_down" => EngineDown,
    "protocol" => Protocol,
});

impl std::fmt::Display for WireErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

// ---------------------------------------------------------------------------
// field tables
// ---------------------------------------------------------------------------

object!(SinglePlayFeedback as "wire feedback event" {
    "arm" => arm: usize,
    "direct_reward" => direct_reward: f64,
    "side_reward" => side_reward: f64,
    "observations" => observations: Vec<(usize, f64)>,
});

object!(CombinatorialFeedback as "wire feedback event" {
    "strategy" => strategy: Vec<usize>,
    "observation_set" => observation_set: Vec<usize>,
    "direct_reward" => direct_reward: f64,
    "side_reward" => side_reward: f64,
    "observations" => observations: Vec<(usize, f64)>,
});

tagged!(WireEvent as "wire feedback event" {
    "single" => Single(SinglePlayFeedback),
    "combinatorial" => Combinatorial(CombinatorialFeedback),
});

object!(WireFeedback as "wire feedback entry" {
    "round" => round: u64,
    "event" => event: WireEvent,
});

tagged!(WireRequest as "wire request" {
    "decide_many" => DecideMany { "tenant" => tenant: String, "count" => count: u32 },
    "feedback_many" => FeedbackMany {
        "tenant" => tenant: String,
        "events" => events: Vec<WireFeedback>
    },
    "register_tenant" => RegisterTenant {
        "id" => id: String,
        "scenario" => scenario: Box<ScenarioSpec>
    },
    "metrics" => Metrics {},
    "telemetry" => Telemetry { "tenant" => tenant: String },
});

tagged!(WireDecision as "wire decision" {
    "arm" => Arm("arm": usize),
    "strategy" => Strategy("arms": Vec<usize>),
});

// `feedback: None` encodes as `null`; decoding also accepts the key's
// omission.
object!(WireReply as "wire decide reply" {
    "round" => round: u64,
    "decision" => decision: WireDecision,
    "reward" => reward: f64,
    "feedback" => feedback: Option<WireEvent>,
});

object!(WireLatency as "wire latency" {
    "p50_ns" => p50_ns: u64,
    "p50_exact" => p50_exact: bool,
    "p99_ns" => p99_ns: u64,
    "p99_exact" => p99_exact: bool,
});

object!(WireMetrics as "wire response" {
    "shards" => shards: u64,
    "tenants" => tenants: u64,
    "total_decides" => total_decides: u64,
    "total_feedback_events" => total_feedback_events: u64,
    "rejected" => rejected: u64,
    "overload_rejections" => overload_rejections: u64,
    "decide_latency" => decide_latency: WireLatency,
    "feedback_latency" => feedback_latency: WireLatency,
});

object!(WireArmStat as "wire arm stat" {
    "arm" => arm: usize,
    "pulls" => pulls: u64,
    "mean" => mean: f64,
});

object!(WireTelemetry as "wire response" {
    "tenant" => tenant: String,
    "policy" => policy: String,
    "round" => round: u64,
    "pending_feedback" => pending_feedback: u64,
    "decides" => decides: u64,
    "feedback_events" => feedback_events: u64,
    "total_reward" => total_reward: f64,
    "optimal_reward" => optimal_reward: f64,
    "regret" => regret: f64,
    "arms" => arms: Vec<WireArmStat>,
});

tagged!(WireResponse as "wire response" {
    "decisions" => Decisions {
        "tenant" => tenant: String,
        "replies" => replies: Vec<WireReply>
    },
    "ok" => Ok {},
    "accepted" => Accepted { "count" => count: u64 },
    "metrics" => Metrics(WireMetrics),
    "telemetry" => Telemetry(Box<WireTelemetry>),
    "error" => Error { "code" => code: WireErrorCode, "message" => message: String },
});

text_entry_points! {
    WireRequest: "request";
    WireResponse: "response";
}

/// Decodes a request document already parsed into a tree (strict). The
/// tree's compact text goes through the same decoder as
/// [`WireRequest::from_json_text`].
pub fn request_from_json(value: &Json) -> Result<WireRequest, SpecError> {
    WireRequest::from_json_text(&value.to_text())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{
        ArmsSpec, FeedbackSpec, GraphSpec, PolicySpec, SideBonus, WorkloadSpec, SPEC_VERSION,
    };

    fn sample_scenario() -> ScenarioSpec {
        ScenarioSpec {
            version: SPEC_VERSION,
            name: "wire-demo".into(),
            workload: WorkloadSpec {
                graph: GraphSpec::ErdosRenyi {
                    num_arms: 6,
                    edge_prob: 0.3,
                },
                arms: ArmsSpec::UniformMeanBernoulli { num_arms: 6 },
                family: None,
                drift: None,
                seed: 42,
            },
            policy: PolicySpec::DflSso,
            side_bonus: SideBonus::Observation,
            horizon: 50,
            replications: 1,
            seed: 7,
            feedback: FeedbackSpec::Immediate,
        }
    }

    fn single_event() -> WireEvent {
        WireEvent::Single(SinglePlayFeedback {
            arm: 3,
            direct_reward: 1.0,
            side_reward: 0.25 + 0.5,
            observations: vec![(1, 0.0), (3, 1.0), (4, 1.0 / 3.0)],
        })
    }

    fn combinatorial_event() -> WireEvent {
        WireEvent::Combinatorial(CombinatorialFeedback {
            strategy: vec![0, 2],
            observation_set: vec![0, 1, 2, 5],
            direct_reward: 2.0,
            side_reward: 3.0,
            observations: vec![(0, 1.0), (1, 0.0), (2, 1.0), (5, 0.1 + 0.2)],
        })
    }

    #[test]
    fn requests_round_trip() {
        let requests = [
            WireRequest::DecideMany {
                tenant: "exp-0".into(),
                count: 32,
            },
            WireRequest::FeedbackMany {
                tenant: "exp-0".into(),
                events: vec![
                    WireFeedback {
                        round: 2,
                        event: single_event(),
                    },
                    WireFeedback {
                        round: 1,
                        event: combinatorial_event(),
                    },
                ],
            },
            WireRequest::RegisterTenant {
                id: "exp-1".into(),
                scenario: Box::new(sample_scenario()),
            },
            WireRequest::Metrics,
            WireRequest::Telemetry {
                tenant: "exp-0".into(),
            },
        ];
        for request in requests {
            let text = request.to_json_text();
            assert_eq!(
                WireRequest::from_json_text(&text).unwrap(),
                request,
                "{text}"
            );
        }
    }

    #[test]
    fn responses_round_trip() {
        let responses = [
            WireResponse::Decisions {
                tenant: "exp-0".into(),
                replies: vec![
                    WireReply {
                        round: 1,
                        decision: WireDecision::Arm(4),
                        reward: 0.1 + 0.2, // not representable exactly; must survive bit-for-bit
                        feedback: Some(single_event()),
                    },
                    WireReply {
                        round: 2,
                        decision: WireDecision::Strategy(vec![0, 3]),
                        reward: 2.0,
                        feedback: None,
                    },
                ],
            },
            WireResponse::Ok,
            WireResponse::Accepted { count: 17 },
            WireResponse::Metrics(WireMetrics {
                shards: 4,
                tenants: 9,
                total_decides: 123_456,
                total_feedback_events: 123_000,
                rejected: 3,
                overload_rejections: 2,
                decide_latency: WireLatency {
                    p50_ns: 4_000,
                    p50_exact: true,
                    p99_ns: 524_288_000,
                    p99_exact: false,
                },
                feedback_latency: WireLatency {
                    p50_ns: 2_000,
                    p50_exact: true,
                    p99_ns: 16_000,
                    p99_exact: true,
                },
            }),
            WireResponse::Telemetry(Box::new(WireTelemetry {
                tenant: "exp-0".into(),
                policy: "DFL-SSO".into(),
                round: 300,
                pending_feedback: 4,
                decides: 300,
                feedback_events: 296,
                total_reward: 123.5,
                optimal_reward: 150.25,
                regret: 150.25 - 123.5,
                arms: vec![
                    WireArmStat {
                        arm: 0,
                        pulls: 250,
                        mean: 0.1 + 0.2, // must survive bit-for-bit
                    },
                    WireArmStat {
                        arm: 1,
                        pulls: 46,
                        mean: 0.0,
                    },
                ],
            })),
            WireResponse::Error {
                code: WireErrorCode::Overloaded,
                message: "shard 2 queue full".into(),
            },
        ];
        for response in responses {
            let text = response.to_json_text();
            assert_eq!(
                WireResponse::from_json_text(&text).unwrap(),
                response,
                "{text}"
            );
        }
    }

    #[test]
    fn rewards_survive_bit_exactly() {
        let reward = 0.30000000000000004; // 0.1 + 0.2
        let response = WireResponse::Decisions {
            tenant: "t".into(),
            replies: vec![WireReply {
                round: 1,
                decision: WireDecision::Arm(0),
                reward,
                feedback: None,
            }],
        };
        let text = response.to_json_text();
        match WireResponse::from_json_text(&text).unwrap() {
            WireResponse::Decisions { replies, .. } => {
                assert_eq!(replies[0].reward.to_bits(), reward.to_bits());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_fields_and_tags_are_rejected() {
        for bad in [
            r#"{"type":"decide_many","tenant":"t","count":1,"extra":0}"#,
            r#"{"type":"decide_quickly","tenant":"t","count":1}"#,
            r#"{"type":"decide_many","tenant":"t"}"#,
            r#"{"type":"metrics","verbose":true}"#,
            r#"{"type":"telemetry"}"#,
            r#"{"type":"telemetry","tenant":"t","flush":true}"#,
        ] {
            assert!(WireRequest::from_json_text(bad).is_err(), "accepted {bad}");
        }
        for bad in [
            r#"{"type":"accepted"}"#,
            r#"{"type":"error","code":"not_a_code","message":"m"}"#,
            r#"{"type":"ok","status":200}"#,
        ] {
            assert!(WireResponse::from_json_text(bad).is_err(), "accepted {bad}");
        }
    }

    /// The tag is read first when it leads (as the encoder writes it) and by
    /// a look-ahead otherwise; a second tag, or a syntax error anywhere, is
    /// still an error, and the syntax error wins over the schema error.
    #[test]
    fn the_type_tag_may_come_anywhere_but_once() {
        let request =
            WireRequest::from_json_text(r#"{"tenant":"t","count":3,"type":"decide_many"}"#);
        assert_eq!(
            request.unwrap(),
            WireRequest::DecideMany {
                tenant: "t".into(),
                count: 3
            }
        );
        for (bad, expected) in [
            (
                r#"{"tenant":"t","type":"decide_many","count":3,"type":"decide_many"}"#,
                "duplicate object key",
            ),
            (
                r#"{"type":"decide_quickly","a":1,"a":2}"#,
                "duplicate object key",
            ),
            (r#"{"type":"decide_quickly","count":1e999}"#, "non-finite"),
            (r#"{"type":"decide_quickly","count":1}"#, "unknown variant"),
        ] {
            let err = WireRequest::from_json_text(bad).unwrap_err().to_string();
            assert!(err.contains(expected), "{bad}: {err}");
        }
    }

    #[test]
    fn all_error_codes_round_trip_through_their_tokens() {
        for code in [
            WireErrorCode::Overloaded,
            WireErrorCode::TooLarge,
            WireErrorCode::UnknownTenant,
            WireErrorCode::DuplicateTenant,
            WireErrorCode::Spec,
            WireErrorCode::Invalid,
            WireErrorCode::EngineDown,
            WireErrorCode::Protocol,
        ] {
            assert_eq!(WireErrorCode::from_token(code.as_str()).unwrap(), code);
        }
    }
}
