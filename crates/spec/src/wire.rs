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
//!   lexemes ([`Json::from_f64`]) and therefore arrive bit-identical, which
//!   is what lets `tests/net_equivalence.rs` hold a TCP client to the golden
//!   DFL traces bit for bit;
//! * **no new dependencies** — the same hand-rolled [`crate::json`] codec,
//!   over `std` only.
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

use crate::codec::{
    get_bool, get_f64, get_str, get_u64, get_usize, scenario_from_json, scenario_to_json, tag_of,
    tagged, Obj,
};
use crate::error::SpecError;
use crate::json::{parse, Json};
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
        match self {
            WireErrorCode::Overloaded => "overloaded",
            WireErrorCode::TooLarge => "too_large",
            WireErrorCode::UnknownTenant => "unknown_tenant",
            WireErrorCode::DuplicateTenant => "duplicate_tenant",
            WireErrorCode::Spec => "spec",
            WireErrorCode::Invalid => "invalid",
            WireErrorCode::EngineDown => "engine_down",
            WireErrorCode::Protocol => "protocol",
        }
    }

    fn from_str(token: &str) -> Result<Self, SpecError> {
        Ok(match token {
            "overloaded" => WireErrorCode::Overloaded,
            "too_large" => WireErrorCode::TooLarge,
            "unknown_tenant" => WireErrorCode::UnknownTenant,
            "duplicate_tenant" => WireErrorCode::DuplicateTenant,
            "spec" => WireErrorCode::Spec,
            "invalid" => WireErrorCode::Invalid,
            "engine_down" => WireErrorCode::EngineDown,
            "protocol" => WireErrorCode::Protocol,
            other => {
                return Err(SpecError::UnknownVariant {
                    context: "wire error code",
                    variant: other.to_owned(),
                })
            }
        })
    }
}

impl std::fmt::Display for WireErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

// ---------------------------------------------------------------------------
// text entry points
// ---------------------------------------------------------------------------

impl WireRequest {
    /// Encodes the request to a compact JSON document.
    pub fn to_json_text(&self) -> String {
        request_to_json(self).to_text()
    }

    /// Decodes a request from JSON text (strict: unknown fields are errors).
    pub fn from_json_text(text: &str) -> Result<Self, SpecError> {
        request_from_json(&parse(text)?)
    }
}

impl WireResponse {
    /// Encodes the response to a compact JSON document.
    pub fn to_json_text(&self) -> String {
        response_to_json(self).to_text()
    }

    /// Decodes a response from JSON text (strict: unknown fields are errors).
    pub fn from_json_text(text: &str) -> Result<Self, SpecError> {
        response_from_json(&parse(text)?)
    }
}

// ---------------------------------------------------------------------------
// scalar helpers on top of the codec's strict-object reader
// ---------------------------------------------------------------------------

fn get_u32(value: &Json, ctx: &'static str) -> Result<u32, SpecError> {
    let v = get_u64(value, ctx)?;
    u32::try_from(v).map_err(|_| SpecError::Invalid {
        context: ctx,
        message: format!("{v} does not fit in u32"),
    })
}

fn arms_json(arms: &[ArmId]) -> Json {
    Json::Array(arms.iter().map(|&a| Json::from_u64(a as u64)).collect())
}

fn get_arms(value: &Json, ctx: &'static str) -> Result<Vec<ArmId>, SpecError> {
    let items = value.as_array().ok_or(SpecError::Invalid {
        context: ctx,
        message: "expected an array of arm ids".into(),
    })?;
    items.iter().map(|item| get_usize(item, ctx)).collect()
}

fn observations_json(observations: &[(ArmId, f64)]) -> Json {
    Json::Array(
        observations
            .iter()
            .map(|&(arm, x)| Json::Array(vec![Json::from_u64(arm as u64), Json::from_f64(x)]))
            .collect(),
    )
}

fn get_observations(value: &Json, ctx: &'static str) -> Result<Vec<(ArmId, f64)>, SpecError> {
    let items = value.as_array().ok_or(SpecError::Invalid {
        context: ctx,
        message: "expected an array of [arm, reward] pairs".into(),
    })?;
    items
        .iter()
        .map(|item| {
            let pair =
                item.as_array()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| SpecError::Invalid {
                        context: ctx,
                        message: format!("expected a 2-element array, got {}", item.to_text()),
                    })?;
            Ok((get_usize(&pair[0], ctx)?, get_f64(&pair[1], ctx)?))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// events
// ---------------------------------------------------------------------------

/// Encodes one feedback event body.
pub fn event_to_json(event: &WireEvent) -> Json {
    match event {
        WireEvent::Single(f) => tagged(
            "single",
            vec![
                ("arm".into(), Json::from_u64(f.arm as u64)),
                ("direct_reward".into(), Json::from_f64(f.direct_reward)),
                ("side_reward".into(), Json::from_f64(f.side_reward)),
                ("observations".into(), observations_json(&f.observations)),
            ],
        ),
        WireEvent::Combinatorial(f) => tagged(
            "combinatorial",
            vec![
                ("strategy".into(), arms_json(&f.strategy)),
                ("observation_set".into(), arms_json(&f.observation_set)),
                ("direct_reward".into(), Json::from_f64(f.direct_reward)),
                ("side_reward".into(), Json::from_f64(f.side_reward)),
                ("observations".into(), observations_json(&f.observations)),
            ],
        ),
    }
}

/// Decodes one feedback event body (strict).
pub fn event_from_json(value: &Json) -> Result<WireEvent, SpecError> {
    const CTX: &str = "wire feedback event";
    let mut obj = Obj::new(value, CTX)?;
    let event = match tag_of(&mut obj)? {
        "single" => WireEvent::Single(SinglePlayFeedback {
            arm: get_usize(obj.req("arm")?, CTX)?,
            direct_reward: get_f64(obj.req("direct_reward")?, CTX)?,
            side_reward: get_f64(obj.req("side_reward")?, CTX)?,
            observations: get_observations(obj.req("observations")?, CTX)?,
        }),
        "combinatorial" => WireEvent::Combinatorial(CombinatorialFeedback {
            strategy: get_arms(obj.req("strategy")?, CTX)?,
            observation_set: get_arms(obj.req("observation_set")?, CTX)?,
            direct_reward: get_f64(obj.req("direct_reward")?, CTX)?,
            side_reward: get_f64(obj.req("side_reward")?, CTX)?,
            observations: get_observations(obj.req("observations")?, CTX)?,
        }),
        other => {
            return Err(SpecError::UnknownVariant {
                context: CTX,
                variant: other.to_owned(),
            })
        }
    };
    obj.finish()?;
    Ok(event)
}

// ---------------------------------------------------------------------------
// requests
// ---------------------------------------------------------------------------

/// Encodes a request document.
pub fn request_to_json(request: &WireRequest) -> Json {
    match request {
        WireRequest::DecideMany { tenant, count } => tagged(
            "decide_many",
            vec![
                ("tenant".into(), Json::String(tenant.clone())),
                ("count".into(), Json::from_u64(u64::from(*count))),
            ],
        ),
        WireRequest::FeedbackMany { tenant, events } => tagged(
            "feedback_many",
            vec![
                ("tenant".into(), Json::String(tenant.clone())),
                (
                    "events".into(),
                    Json::Array(
                        events
                            .iter()
                            .map(|e| {
                                Json::Object(vec![
                                    ("round".into(), Json::from_u64(e.round)),
                                    ("event".into(), event_to_json(&e.event)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ],
        ),
        WireRequest::RegisterTenant { id, scenario } => tagged(
            "register_tenant",
            vec![
                ("id".into(), Json::String(id.clone())),
                ("scenario".into(), scenario_to_json(scenario)),
            ],
        ),
        WireRequest::Metrics => tagged("metrics", Vec::new()),
        WireRequest::Telemetry { tenant } => tagged(
            "telemetry",
            vec![("tenant".into(), Json::String(tenant.clone()))],
        ),
    }
}

/// Decodes a request document (strict).
pub fn request_from_json(value: &Json) -> Result<WireRequest, SpecError> {
    const CTX: &str = "wire request";
    let mut obj = Obj::new(value, CTX)?;
    let request = match tag_of(&mut obj)? {
        "decide_many" => WireRequest::DecideMany {
            tenant: get_str(obj.req("tenant")?, CTX)?.to_owned(),
            count: get_u32(obj.req("count")?, CTX)?,
        },
        "feedback_many" => {
            let tenant = get_str(obj.req("tenant")?, CTX)?.to_owned();
            let items = obj.req("events")?.as_array().ok_or(SpecError::Invalid {
                context: CTX,
                message: "expected an array of feedback events".into(),
            })?;
            let events = items
                .iter()
                .map(|item| {
                    let mut entry = Obj::new(item, "wire feedback entry")?;
                    let round = get_u64(entry.req("round")?, "wire feedback entry")?;
                    let event = event_from_json(entry.req("event")?)?;
                    entry.finish()?;
                    Ok(WireFeedback { round, event })
                })
                .collect::<Result<Vec<_>, SpecError>>()?;
            WireRequest::FeedbackMany { tenant, events }
        }
        "register_tenant" => WireRequest::RegisterTenant {
            id: get_str(obj.req("id")?, CTX)?.to_owned(),
            scenario: Box::new(scenario_from_json(obj.req("scenario")?)?),
        },
        "metrics" => WireRequest::Metrics,
        "telemetry" => WireRequest::Telemetry {
            tenant: get_str(obj.req("tenant")?, CTX)?.to_owned(),
        },
        other => {
            return Err(SpecError::UnknownVariant {
                context: CTX,
                variant: other.to_owned(),
            })
        }
    };
    obj.finish()?;
    Ok(request)
}

// ---------------------------------------------------------------------------
// responses
// ---------------------------------------------------------------------------

fn latency_json(latency: &WireLatency) -> Json {
    Json::Object(vec![
        ("p50_ns".into(), Json::from_u64(latency.p50_ns)),
        ("p50_exact".into(), Json::Bool(latency.p50_exact)),
        ("p99_ns".into(), Json::from_u64(latency.p99_ns)),
        ("p99_exact".into(), Json::Bool(latency.p99_exact)),
    ])
}

fn latency_from_json(value: &Json) -> Result<WireLatency, SpecError> {
    const CTX: &str = "wire latency";
    let mut obj = Obj::new(value, CTX)?;
    let latency = WireLatency {
        p50_ns: get_u64(obj.req("p50_ns")?, CTX)?,
        p50_exact: get_bool(obj.req("p50_exact")?, CTX)?,
        p99_ns: get_u64(obj.req("p99_ns")?, CTX)?,
        p99_exact: get_bool(obj.req("p99_exact")?, CTX)?,
    };
    obj.finish()?;
    Ok(latency)
}

fn decision_json(decision: &WireDecision) -> Json {
    match decision {
        WireDecision::Arm(arm) => tagged("arm", vec![("arm".into(), Json::from_u64(*arm as u64))]),
        WireDecision::Strategy(arms) => tagged("strategy", vec![("arms".into(), arms_json(arms))]),
    }
}

fn decision_from_json(value: &Json) -> Result<WireDecision, SpecError> {
    const CTX: &str = "wire decision";
    let mut obj = Obj::new(value, CTX)?;
    let decision = match tag_of(&mut obj)? {
        "arm" => WireDecision::Arm(get_usize(obj.req("arm")?, CTX)?),
        "strategy" => WireDecision::Strategy(get_arms(obj.req("arms")?, CTX)?),
        other => {
            return Err(SpecError::UnknownVariant {
                context: CTX,
                variant: other.to_owned(),
            })
        }
    };
    obj.finish()?;
    Ok(decision)
}

fn reply_json(reply: &WireReply) -> Json {
    Json::Object(vec![
        ("round".into(), Json::from_u64(reply.round)),
        ("decision".into(), decision_json(&reply.decision)),
        ("reward".into(), Json::from_f64(reply.reward)),
        (
            "feedback".into(),
            match &reply.feedback {
                Some(event) => event_to_json(event),
                None => Json::Null,
            },
        ),
    ])
}

fn reply_from_json(value: &Json) -> Result<WireReply, SpecError> {
    const CTX: &str = "wire decide reply";
    let mut obj = Obj::new(value, CTX)?;
    let round = get_u64(obj.req("round")?, CTX)?;
    let decision = decision_from_json(obj.req("decision")?)?;
    let reward = get_f64(obj.req("reward")?, CTX)?;
    // `opt` treats JSON null as absent, which is exactly the encoding of
    // `feedback: None` — but the key itself stays mandatory in spirit; we
    // accept both null and omission for forward ergonomics.
    let feedback = obj.opt("feedback").map(event_from_json).transpose()?;
    obj.finish()?;
    Ok(WireReply {
        round,
        decision,
        reward,
        feedback,
    })
}

/// Encodes a response document.
pub fn response_to_json(response: &WireResponse) -> Json {
    match response {
        WireResponse::Decisions { tenant, replies } => tagged(
            "decisions",
            vec![
                ("tenant".into(), Json::String(tenant.clone())),
                (
                    "replies".into(),
                    Json::Array(replies.iter().map(reply_json).collect()),
                ),
            ],
        ),
        WireResponse::Ok => tagged("ok", Vec::new()),
        WireResponse::Accepted { count } => {
            tagged("accepted", vec![("count".into(), Json::from_u64(*count))])
        }
        WireResponse::Metrics(m) => tagged(
            "metrics",
            vec![
                ("shards".into(), Json::from_u64(m.shards)),
                ("tenants".into(), Json::from_u64(m.tenants)),
                ("total_decides".into(), Json::from_u64(m.total_decides)),
                (
                    "total_feedback_events".into(),
                    Json::from_u64(m.total_feedback_events),
                ),
                ("rejected".into(), Json::from_u64(m.rejected)),
                (
                    "overload_rejections".into(),
                    Json::from_u64(m.overload_rejections),
                ),
                ("decide_latency".into(), latency_json(&m.decide_latency)),
                ("feedback_latency".into(), latency_json(&m.feedback_latency)),
            ],
        ),
        WireResponse::Telemetry(t) => tagged(
            "telemetry",
            vec![
                ("tenant".into(), Json::String(t.tenant.clone())),
                ("policy".into(), Json::String(t.policy.clone())),
                ("round".into(), Json::from_u64(t.round)),
                (
                    "pending_feedback".into(),
                    Json::from_u64(t.pending_feedback),
                ),
                ("decides".into(), Json::from_u64(t.decides)),
                ("feedback_events".into(), Json::from_u64(t.feedback_events)),
                ("total_reward".into(), Json::from_f64(t.total_reward)),
                ("optimal_reward".into(), Json::from_f64(t.optimal_reward)),
                ("regret".into(), Json::from_f64(t.regret)),
                (
                    "arms".into(),
                    Json::Array(
                        t.arms
                            .iter()
                            .map(|a| {
                                Json::Object(vec![
                                    ("arm".into(), Json::from_u64(a.arm as u64)),
                                    ("pulls".into(), Json::from_u64(a.pulls)),
                                    ("mean".into(), Json::from_f64(a.mean)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ],
        ),
        WireResponse::Error { code, message } => tagged(
            "error",
            vec![
                ("code".into(), Json::String(code.as_str().to_owned())),
                ("message".into(), Json::String(message.clone())),
            ],
        ),
    }
}

/// Decodes a response document (strict).
pub fn response_from_json(value: &Json) -> Result<WireResponse, SpecError> {
    const CTX: &str = "wire response";
    let mut obj = Obj::new(value, CTX)?;
    let response = match tag_of(&mut obj)? {
        "decisions" => {
            let tenant = get_str(obj.req("tenant")?, CTX)?.to_owned();
            let items = obj.req("replies")?.as_array().ok_or(SpecError::Invalid {
                context: CTX,
                message: "expected an array of replies".into(),
            })?;
            let replies = items
                .iter()
                .map(reply_from_json)
                .collect::<Result<Vec<_>, SpecError>>()?;
            WireResponse::Decisions { tenant, replies }
        }
        "ok" => WireResponse::Ok,
        "accepted" => WireResponse::Accepted {
            count: get_u64(obj.req("count")?, CTX)?,
        },
        "metrics" => WireResponse::Metrics(WireMetrics {
            shards: get_u64(obj.req("shards")?, CTX)?,
            tenants: get_u64(obj.req("tenants")?, CTX)?,
            total_decides: get_u64(obj.req("total_decides")?, CTX)?,
            total_feedback_events: get_u64(obj.req("total_feedback_events")?, CTX)?,
            rejected: get_u64(obj.req("rejected")?, CTX)?,
            overload_rejections: get_u64(obj.req("overload_rejections")?, CTX)?,
            decide_latency: latency_from_json(obj.req("decide_latency")?)?,
            feedback_latency: latency_from_json(obj.req("feedback_latency")?)?,
        }),
        "telemetry" => {
            let tenant = get_str(obj.req("tenant")?, CTX)?.to_owned();
            let policy = get_str(obj.req("policy")?, CTX)?.to_owned();
            let round = get_u64(obj.req("round")?, CTX)?;
            let pending_feedback = get_u64(obj.req("pending_feedback")?, CTX)?;
            let decides = get_u64(obj.req("decides")?, CTX)?;
            let feedback_events = get_u64(obj.req("feedback_events")?, CTX)?;
            let total_reward = get_f64(obj.req("total_reward")?, CTX)?;
            let optimal_reward = get_f64(obj.req("optimal_reward")?, CTX)?;
            let regret = get_f64(obj.req("regret")?, CTX)?;
            let items = obj.req("arms")?.as_array().ok_or(SpecError::Invalid {
                context: CTX,
                message: "expected an array of arm stats".into(),
            })?;
            let arms = items
                .iter()
                .map(|item| {
                    let mut entry = Obj::new(item, "wire arm stat")?;
                    let stat = WireArmStat {
                        arm: get_usize(entry.req("arm")?, "wire arm stat")?,
                        pulls: get_u64(entry.req("pulls")?, "wire arm stat")?,
                        mean: get_f64(entry.req("mean")?, "wire arm stat")?,
                    };
                    entry.finish()?;
                    Ok(stat)
                })
                .collect::<Result<Vec<_>, SpecError>>()?;
            WireResponse::Telemetry(Box::new(WireTelemetry {
                tenant,
                policy,
                round,
                pending_feedback,
                decides,
                feedback_events,
                total_reward,
                optimal_reward,
                regret,
                arms,
            }))
        }
        "error" => WireResponse::Error {
            code: WireErrorCode::from_str(get_str(obj.req("code")?, CTX)?)?,
            message: get_str(obj.req("message")?, CTX)?.to_owned(),
        },
        other => {
            return Err(SpecError::UnknownVariant {
                context: CTX,
                variant: other.to_owned(),
            })
        }
    };
    obj.finish()?;
    Ok(response)
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
            assert_eq!(WireErrorCode::from_str(code.as_str()).unwrap(), code);
        }
    }
}
