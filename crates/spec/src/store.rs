//! Durable-state documents for the `netband-store` persistence layer.
//!
//! `netband-store` keeps a per-shard write-ahead log plus compacted snapshot
//! files on disk; the documents it frames are defined **here**, next to the
//! [`ScenarioSpec`] codec they embed, for the same reason the wire protocol
//! lives in this crate: the durable format inherits every property of the
//! spec codec —
//!
//! * **strict decoding** — unknown fields, unknown `"type"` tags, duplicate
//!   keys, and unsupported `version` numbers are hard errors, so a corrupted
//!   or future-format file fails loudly instead of half-restoring a tenant;
//! * **numeric exactness** — every `f64` (estimator means, window rings,
//!   reward sums) travels as a shortest round-trip lexeme
//!   ([`Json::from_f64`]) and re-parses bit-identically, which is what lets
//!   crash recovery resume the exact learning trajectory;
//! * **no new dependencies** — the hand-rolled [`crate::json`] codec over
//!   `std` only.
//!
//! Framing (length prefixes, CRCs, fsync batching, torn-tail handling) is
//! storage business and lives in `netband-store`; this module is just the
//! payload model:
//!
//! | document                 | role                                         |
//! |--------------------------|----------------------------------------------|
//! | [`WalRecord`]            | one logged engine mutation (append-only log) |
//! | [`StoredTenantSnapshot`] | one tenant's complete durable state          |
//! | [`ShardSnapshot`]        | a compacted checkpoint of one shard          |
//!
//! The **structure/state split**: a snapshot never serializes policy
//! structure (graphs, enumerated feasible sets, oracle scratch). It stores
//! the originating [`ScenarioSpec`] — from which the structure is rebuilt
//! deterministically — plus the learned [`PolicyState`] arrays, the tenant
//! RNG words, and the serving counters. Restore = build from scenario, then
//! load the state on top.

use netband_core::PolicyState;

use crate::codec::{
    get_bool, get_f64, get_f64_array, get_str, get_u64, scenario_from_json, scenario_to_json,
    tag_of, tagged, Obj,
};
use crate::error::SpecError;
use crate::json::{parse, Json};
use crate::model::ScenarioSpec;
use crate::wire::{event_from_json, event_to_json, WireEvent};

/// Version stamp of the durable-state document format. Bump when a field
/// changes meaning; decoding any other version is a hard error
/// ([`SpecError::UnsupportedVersion`]), never a silent best-effort read.
pub const STORE_VERSION: u64 = 2;

// ---------------------------------------------------------------------------
// model types
// ---------------------------------------------------------------------------

/// A tenant's serving counters, persisted so a recovered engine reports the
/// same metrics it would have reported without the crash. Mirrors
/// `netband-serve`'s `TenantMetrics` (which this crate cannot name without a
/// dependency cycle).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoredTenantMetrics {
    /// Decisions served.
    pub decides: u64,
    /// Feedback events accepted into the pending queue.
    pub feedback_events: u64,
    /// Feedback batches flushed into the policy.
    pub batches_flushed: u64,
    /// Feedback events applied by those flushes.
    pub events_applied: u64,
    /// Largest batch applied by a single flush.
    pub max_batch: u64,
}

/// One tenant's complete durable state: everything needed to resume the
/// tenant bit-exactly that is not derivable from its scenario document.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredTenantSnapshot {
    /// Document format version; must equal [`STORE_VERSION`].
    pub version: u64,
    /// Tenant id.
    pub id: String,
    /// The originating scenario. The bandit environment, policy structure,
    /// drift schedule, and benchmark optimum are all rebuilt from this
    /// document on restore; only learned/served state is stored explicitly.
    pub scenario: Box<ScenarioSpec>,
    /// Rounds served so far.
    pub round: u64,
    /// Running sum of per-round optima (the regret baseline).
    pub optimal_sum: f64,
    /// Cumulative realised reward.
    pub total_reward: f64,
    /// Flush trigger: apply pending feedback once this many events queue up.
    pub flush_max_pending: u64,
    /// Whether every decide flushes pending feedback first.
    pub flush_before_decide: bool,
    /// Whether each decide applies its own feedback immediately.
    pub auto_feedback: bool,
    /// Whether decide replies echo the revealed feedback event.
    pub echo_feedback: bool,
    /// The tenant RNG's raw xoshiro256++ state words.
    pub rng: [u64; 4],
    /// The hosted policy's learned state (estimator arrays, policy RNG, …).
    pub policy: PolicyState,
    /// Feedback events queued but not yet flushed, in **arrival order** (the
    /// order that, re-queued on restore, reproduces the eventual flush's
    /// stable sort exactly).
    pub pending: Vec<(u64, WireEvent)>,
    /// Serving counters.
    pub metrics: StoredTenantMetrics,
}

/// A compacted checkpoint of one shard: every resident (and evicted) tenant
/// at a single logical point, superseding the WAL prefix it covers.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSnapshot {
    /// Document format version; must equal [`STORE_VERSION`].
    pub version: u64,
    /// Compaction epoch. Snapshot epoch `E` pairs with WAL epoch `E`: the
    /// snapshot captures everything up to the rotation point, the matching
    /// WAL holds only mutations after it.
    pub epoch: u64,
    /// All tenants of the shard, in stable (registration) order.
    pub tenants: Vec<StoredTenantSnapshot>,
}

/// One logged engine mutation. A shard's WAL replays, in order, on top of
/// the latest [`ShardSnapshot`] to reconstruct the exact pre-crash state.
///
/// Only **successful** mutations are logged, after they execute; commands
/// the shard rejected never reach the log, so replay cannot fail where the
/// original run succeeded.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A tenant was registered from a scenario document. The serving knobs a
    /// caller may customise *after* building the spec from its document
    /// (flush policy, auto-feedback, echo) are logged alongside, so replay
    /// reproduces the tenant exactly as registered.
    Register {
        /// Tenant id.
        id: String,
        /// The full scenario. Boxed so the rare registration record doesn't
        /// inflate every hot-path `WalRecord`.
        scenario: Box<ScenarioSpec>,
        /// Flush trigger: apply pending feedback once this many events queue.
        flush_max_pending: u64,
        /// Whether every decide flushes pending feedback first.
        flush_before_decide: bool,
        /// Whether each decide applies its own feedback immediately.
        auto_feedback: bool,
        /// Whether decide replies echo the revealed feedback event.
        echo_feedback: bool,
    },
    /// A tenant was restored from an in-memory snapshot (the engine's
    /// `restore_tenant` path). The full durable state is logged because the
    /// restored tenant's history is not reachable from this shard's log.
    Restore {
        /// The restored tenant's complete durable state.
        snapshot: Box<StoredTenantSnapshot>,
    },
    /// `count` consecutive decisions were served to a tenant. The decisions
    /// themselves are not logged: the tenant's RNG and policy state
    /// regenerate them bit-exactly on replay.
    Decide {
        /// Tenant id.
        tenant: String,
        /// Number of decisions served.
        count: u64,
    },
    /// One feedback event was accepted into a tenant's pending queue.
    Feedback {
        /// Tenant id.
        tenant: String,
        /// The round the event answers.
        round: u64,
        /// The event body.
        event: WireEvent,
    },
    /// A tenant's pending feedback was explicitly flushed into its policy.
    /// (Threshold-triggered flushes are implied by the `Feedback` records
    /// that caused them and are not logged separately.)
    Flush {
        /// Tenant id.
        tenant: String,
    },
    /// A tenant was removed from the engine (`evict_tenant`): its state left
    /// the serving fleet entirely, so replay drops it too.
    Removed {
        /// Tenant id.
        tenant: String,
    },
    /// Every tenant's pending feedback was flushed (`drain`).
    Drain,
}

// ---------------------------------------------------------------------------
// scalar helpers on top of the codec's strict-object reader
// ---------------------------------------------------------------------------

fn u64_array_json(values: &[u64]) -> Json {
    Json::Array(values.iter().map(|&v| Json::from_u64(v)).collect())
}

fn f64_array_json(values: &[f64]) -> Json {
    Json::Array(values.iter().map(|&v| Json::from_f64(v)).collect())
}

fn get_u64_array(value: &Json, ctx: &'static str) -> Result<Vec<u64>, SpecError> {
    let items = value.as_array().ok_or(SpecError::Invalid {
        context: ctx,
        message: "expected an array of non-negative integers".into(),
    })?;
    items.iter().map(|item| get_u64(item, ctx)).collect()
}

fn nested_u64_json(rows: &[Vec<u64>]) -> Json {
    Json::Array(rows.iter().map(|row| u64_array_json(row)).collect())
}

fn nested_f64_json(rows: &[Vec<f64>]) -> Json {
    Json::Array(rows.iter().map(|row| f64_array_json(row)).collect())
}

fn get_nested_u64(value: &Json, ctx: &'static str) -> Result<Vec<Vec<u64>>, SpecError> {
    let items = value.as_array().ok_or(SpecError::Invalid {
        context: ctx,
        message: "expected an array of integer arrays".into(),
    })?;
    items.iter().map(|item| get_u64_array(item, ctx)).collect()
}

fn get_nested_f64(value: &Json, ctx: &'static str) -> Result<Vec<Vec<f64>>, SpecError> {
    let items = value.as_array().ok_or(SpecError::Invalid {
        context: ctx,
        message: "expected an array of number arrays".into(),
    })?;
    items.iter().map(|item| get_f64_array(item, ctx)).collect()
}

fn rng_json(words: &[u64; 4]) -> Json {
    u64_array_json(words)
}

fn get_rng(value: &Json, ctx: &'static str) -> Result<[u64; 4], SpecError> {
    let words = get_u64_array(value, ctx)?;
    <[u64; 4]>::try_from(words).map_err(|words| SpecError::Invalid {
        context: ctx,
        message: format!("rng state must be 4 words, got {}", words.len()),
    })
}

fn check_version(found: u64) -> Result<(), SpecError> {
    if found != STORE_VERSION {
        return Err(SpecError::UnsupportedVersion {
            found,
            supported: STORE_VERSION,
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// PolicyState
// ---------------------------------------------------------------------------

/// Encodes a policy's learned-state bag. The `rng` key is omitted entirely
/// (not emitted as `null`) when the policy keeps no generator, so re-encoding
/// a decoded document is byte-identical.
pub fn policy_state_to_json(state: &PolicyState) -> Json {
    let mut fields = vec![
        ("counts".into(), nested_u64_json(&state.counts)),
        ("floats".into(), nested_f64_json(&state.floats)),
        ("windows".into(), nested_f64_json(&state.windows)),
    ];
    if let Some(rng) = &state.rng {
        fields.push(("rng".into(), rng_json(rng)));
    }
    Json::Object(fields)
}

/// Decodes a policy's learned-state bag (strict).
pub fn policy_state_from_json(value: &Json) -> Result<PolicyState, SpecError> {
    const CTX: &str = "PolicyState";
    let mut obj = Obj::new(value, CTX)?;
    let state = PolicyState {
        counts: get_nested_u64(obj.req("counts")?, CTX)?,
        floats: get_nested_f64(obj.req("floats")?, CTX)?,
        windows: get_nested_f64(obj.req("windows")?, CTX)?,
        rng: obj.opt("rng").map(|v| get_rng(v, CTX)).transpose()?,
    };
    obj.finish()?;
    Ok(state)
}

// ---------------------------------------------------------------------------
// StoredTenantMetrics
// ---------------------------------------------------------------------------

fn metrics_to_json(metrics: &StoredTenantMetrics) -> Json {
    Json::Object(vec![
        ("decides".into(), Json::from_u64(metrics.decides)),
        (
            "feedback_events".into(),
            Json::from_u64(metrics.feedback_events),
        ),
        (
            "batches_flushed".into(),
            Json::from_u64(metrics.batches_flushed),
        ),
        (
            "events_applied".into(),
            Json::from_u64(metrics.events_applied),
        ),
        ("max_batch".into(), Json::from_u64(metrics.max_batch)),
    ])
}

fn metrics_from_json(value: &Json) -> Result<StoredTenantMetrics, SpecError> {
    const CTX: &str = "StoredTenantMetrics";
    let mut obj = Obj::new(value, CTX)?;
    let metrics = StoredTenantMetrics {
        decides: get_u64(obj.req("decides")?, CTX)?,
        feedback_events: get_u64(obj.req("feedback_events")?, CTX)?,
        batches_flushed: get_u64(obj.req("batches_flushed")?, CTX)?,
        events_applied: get_u64(obj.req("events_applied")?, CTX)?,
        max_batch: get_u64(obj.req("max_batch")?, CTX)?,
    };
    obj.finish()?;
    Ok(metrics)
}

// ---------------------------------------------------------------------------
// StoredTenantSnapshot
// ---------------------------------------------------------------------------

/// Encodes one tenant's durable state.
pub fn snapshot_to_json(snapshot: &StoredTenantSnapshot) -> Json {
    Json::Object(vec![
        ("version".into(), Json::from_u64(snapshot.version)),
        ("id".into(), Json::String(snapshot.id.clone())),
        ("scenario".into(), scenario_to_json(&snapshot.scenario)),
        ("round".into(), Json::from_u64(snapshot.round)),
        ("optimal_sum".into(), Json::from_f64(snapshot.optimal_sum)),
        ("total_reward".into(), Json::from_f64(snapshot.total_reward)),
        (
            "flush_max_pending".into(),
            Json::from_u64(snapshot.flush_max_pending),
        ),
        (
            "flush_before_decide".into(),
            Json::Bool(snapshot.flush_before_decide),
        ),
        ("auto_feedback".into(), Json::Bool(snapshot.auto_feedback)),
        ("echo_feedback".into(), Json::Bool(snapshot.echo_feedback)),
        ("rng".into(), rng_json(&snapshot.rng)),
        ("policy".into(), policy_state_to_json(&snapshot.policy)),
        (
            "pending".into(),
            Json::Array(
                snapshot
                    .pending
                    .iter()
                    .map(|(round, event)| {
                        Json::Object(vec![
                            ("round".into(), Json::from_u64(*round)),
                            ("event".into(), event_to_json(event)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("metrics".into(), metrics_to_json(&snapshot.metrics)),
    ])
}

/// Decodes one tenant's durable state (strict). Beyond schema checks, the
/// cross-field invariant a well-formed snapshot always satisfies is enforced
/// here, so silent corruption that survives the CRC still fails loudly:
/// every pending event must quote a served round.
pub fn snapshot_from_json(value: &Json) -> Result<StoredTenantSnapshot, SpecError> {
    const CTX: &str = "StoredTenantSnapshot";
    let mut obj = Obj::new(value, CTX)?;
    // The version gate comes first so documents from a future schema fail
    // with `UnsupportedVersion` before any stricter field check confuses
    // the matter.
    let version = get_u64(obj.req("version")?, CTX)?;
    check_version(version)?;
    let id = get_str(obj.req("id")?, CTX)?.to_owned();
    let scenario = Box::new(scenario_from_json(obj.req("scenario")?)?);
    let round = get_u64(obj.req("round")?, CTX)?;
    let snapshot = StoredTenantSnapshot {
        version,
        id,
        scenario,
        round,
        optimal_sum: get_f64(obj.req("optimal_sum")?, CTX)?,
        total_reward: get_f64(obj.req("total_reward")?, CTX)?,
        flush_max_pending: get_u64(obj.req("flush_max_pending")?, CTX)?,
        flush_before_decide: get_bool(obj.req("flush_before_decide")?, CTX)?,
        auto_feedback: get_bool(obj.req("auto_feedback")?, CTX)?,
        echo_feedback: get_bool(obj.req("echo_feedback")?, CTX)?,
        rng: get_rng(obj.req("rng")?, CTX)?,
        policy: policy_state_from_json(obj.req("policy")?)?,
        pending: {
            let items = obj.req("pending")?.as_array().ok_or(SpecError::Invalid {
                context: CTX,
                message: "expected an array of pending feedback entries".into(),
            })?;
            items
                .iter()
                .map(|item| {
                    let mut entry = Obj::new(item, "stored pending entry")?;
                    let round = get_u64(entry.req("round")?, "stored pending entry")?;
                    let event = event_from_json(entry.req("event")?)?;
                    entry.finish()?;
                    Ok((round, event))
                })
                .collect::<Result<Vec<_>, SpecError>>()?
        },
        metrics: metrics_from_json(obj.req("metrics")?)?,
    };
    obj.finish()?;
    for &(round, _) in &snapshot.pending {
        if round == 0 || round > snapshot.round {
            return Err(SpecError::Invalid {
                context: CTX,
                message: format!(
                    "pending feedback quotes round {round}, but only {} rounds were served",
                    snapshot.round
                ),
            });
        }
    }
    Ok(snapshot)
}

// ---------------------------------------------------------------------------
// ShardSnapshot
// ---------------------------------------------------------------------------

/// Encodes a shard checkpoint.
pub fn shard_snapshot_to_json(snapshot: &ShardSnapshot) -> Json {
    Json::Object(vec![
        ("version".into(), Json::from_u64(snapshot.version)),
        ("epoch".into(), Json::from_u64(snapshot.epoch)),
        (
            "tenants".into(),
            Json::Array(snapshot.tenants.iter().map(snapshot_to_json).collect()),
        ),
    ])
}

/// Decodes a shard checkpoint (strict).
pub fn shard_snapshot_from_json(value: &Json) -> Result<ShardSnapshot, SpecError> {
    const CTX: &str = "ShardSnapshot";
    let mut obj = Obj::new(value, CTX)?;
    let version = get_u64(obj.req("version")?, CTX)?;
    check_version(version)?;
    let epoch = get_u64(obj.req("epoch")?, CTX)?;
    let items = obj.req("tenants")?.as_array().ok_or(SpecError::Invalid {
        context: CTX,
        message: "expected an array of tenant snapshots".into(),
    })?;
    let tenants = items
        .iter()
        .map(snapshot_from_json)
        .collect::<Result<Vec<_>, SpecError>>()?;
    obj.finish()?;
    Ok(ShardSnapshot {
        version,
        epoch,
        tenants,
    })
}

// ---------------------------------------------------------------------------
// WalRecord
// ---------------------------------------------------------------------------

/// Encodes one WAL record.
pub fn wal_record_to_json(record: &WalRecord) -> Json {
    match record {
        WalRecord::Register {
            id,
            scenario,
            flush_max_pending,
            flush_before_decide,
            auto_feedback,
            echo_feedback,
        } => tagged(
            "register",
            vec![
                ("id".into(), Json::String(id.clone())),
                ("scenario".into(), scenario_to_json(scenario)),
                (
                    "flush_max_pending".into(),
                    Json::from_u64(*flush_max_pending),
                ),
                (
                    "flush_before_decide".into(),
                    Json::Bool(*flush_before_decide),
                ),
                ("auto_feedback".into(), Json::Bool(*auto_feedback)),
                ("echo_feedback".into(), Json::Bool(*echo_feedback)),
            ],
        ),
        WalRecord::Restore { snapshot } => tagged(
            "restore",
            vec![("snapshot".into(), snapshot_to_json(snapshot))],
        ),
        WalRecord::Decide { tenant, count } => tagged(
            "decide",
            vec![
                ("tenant".into(), Json::String(tenant.clone())),
                ("count".into(), Json::from_u64(*count)),
            ],
        ),
        WalRecord::Feedback {
            tenant,
            round,
            event,
        } => tagged(
            "feedback",
            vec![
                ("tenant".into(), Json::String(tenant.clone())),
                ("round".into(), Json::from_u64(*round)),
                ("event".into(), event_to_json(event)),
            ],
        ),
        WalRecord::Flush { tenant } => tagged(
            "flush",
            vec![("tenant".into(), Json::String(tenant.clone()))],
        ),
        WalRecord::Removed { tenant } => tagged(
            "removed",
            vec![("tenant".into(), Json::String(tenant.clone()))],
        ),
        WalRecord::Drain => tagged("drain", Vec::new()),
    }
}

/// Decodes one WAL record (strict).
pub fn wal_record_from_json(value: &Json) -> Result<WalRecord, SpecError> {
    const CTX: &str = "WalRecord";
    let mut obj = Obj::new(value, CTX)?;
    let record = match tag_of(&mut obj)? {
        "register" => WalRecord::Register {
            id: get_str(obj.req("id")?, CTX)?.to_owned(),
            scenario: Box::new(scenario_from_json(obj.req("scenario")?)?),
            flush_max_pending: get_u64(obj.req("flush_max_pending")?, CTX)?,
            flush_before_decide: get_bool(obj.req("flush_before_decide")?, CTX)?,
            auto_feedback: get_bool(obj.req("auto_feedback")?, CTX)?,
            echo_feedback: get_bool(obj.req("echo_feedback")?, CTX)?,
        },
        "restore" => WalRecord::Restore {
            snapshot: Box::new(snapshot_from_json(obj.req("snapshot")?)?),
        },
        "decide" => WalRecord::Decide {
            tenant: get_str(obj.req("tenant")?, CTX)?.to_owned(),
            count: get_u64(obj.req("count")?, CTX)?,
        },
        "feedback" => WalRecord::Feedback {
            tenant: get_str(obj.req("tenant")?, CTX)?.to_owned(),
            round: get_u64(obj.req("round")?, CTX)?,
            event: event_from_json(obj.req("event")?)?,
        },
        "flush" => WalRecord::Flush {
            tenant: get_str(obj.req("tenant")?, CTX)?.to_owned(),
        },
        "removed" => WalRecord::Removed {
            tenant: get_str(obj.req("tenant")?, CTX)?.to_owned(),
        },
        "drain" => WalRecord::Drain,
        other => {
            return Err(SpecError::UnknownVariant {
                context: CTX,
                variant: other.to_owned(),
            })
        }
    };
    obj.finish()?;
    Ok(record)
}

// ---------------------------------------------------------------------------
// text entry points
// ---------------------------------------------------------------------------

impl StoredTenantSnapshot {
    /// Encodes the snapshot to a compact JSON document.
    pub fn to_json_text(&self) -> String {
        snapshot_to_json(self).to_text()
    }

    /// Decodes a snapshot from JSON text (strict).
    pub fn from_json_text(text: &str) -> Result<Self, SpecError> {
        snapshot_from_json(&parse(text)?)
    }
}

impl ShardSnapshot {
    /// Encodes the checkpoint to a compact JSON document.
    pub fn to_json_text(&self) -> String {
        shard_snapshot_to_json(self).to_text()
    }

    /// Decodes a checkpoint from JSON text (strict).
    pub fn from_json_text(text: &str) -> Result<Self, SpecError> {
        shard_snapshot_from_json(&parse(text)?)
    }
}

impl WalRecord {
    /// Encodes the record to a compact JSON document.
    pub fn to_json_text(&self) -> String {
        wal_record_to_json(self).to_text()
    }

    /// Decodes a record from JSON text (strict).
    pub fn from_json_text(text: &str) -> Result<Self, SpecError> {
        wal_record_from_json(&parse(text)?)
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::model::{
        ArmsSpec, FeedbackSpec, GraphSpec, PolicySpec, SideBonus, WorkloadSpec, SPEC_VERSION,
    };
    use netband_env::SinglePlayFeedback;

    fn sample_scenario() -> ScenarioSpec {
        ScenarioSpec {
            version: SPEC_VERSION,
            name: "store-demo".into(),
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

    fn sample_event(arm: usize, reward: f64) -> WireEvent {
        WireEvent::Single(SinglePlayFeedback {
            arm,
            direct_reward: reward,
            side_reward: reward + 0.5,
            observations: vec![(arm, reward)],
        })
    }

    fn sample_snapshot() -> StoredTenantSnapshot {
        let mut policy = PolicyState::new();
        policy.counts.push(vec![3, 0, 7]);
        policy.floats.push(vec![0.1 + 0.2, 1.0 / 3.0, 0.0]);
        policy.windows.push(vec![0.25, 1.0]);
        policy.rng = Some([1, 2, 3, u64::MAX]);
        StoredTenantSnapshot {
            version: STORE_VERSION,
            id: "exp-0".into(),
            scenario: Box::new(sample_scenario()),
            round: 4,
            optimal_sum: 2.75,
            total_reward: 0.1 + 0.2,
            flush_max_pending: 1,
            flush_before_decide: true,
            auto_feedback: false,
            echo_feedback: true,
            rng: [9, 8, 7, 6],
            policy,
            pending: vec![(3, sample_event(1, 1.0)), (1, sample_event(0, 0.0))],
            metrics: StoredTenantMetrics {
                decides: 4,
                feedback_events: 2,
                batches_flushed: 1,
                events_applied: 2,
                max_batch: 2,
            },
        }
    }

    #[test]
    fn tenant_snapshots_round_trip_byte_stably() {
        let snapshot = sample_snapshot();
        let text = snapshot.to_json_text();
        let back = StoredTenantSnapshot::from_json_text(&text).unwrap();
        assert_eq!(back, snapshot);
        // Byte stability: decode → re-encode is the identity on the text.
        assert_eq!(back.to_json_text(), text);
        // The floats survive bit-for-bit, not just approximately.
        assert_eq!(back.total_reward.to_bits(), snapshot.total_reward.to_bits());
        assert_eq!(
            back.policy.floats[0][0].to_bits(),
            snapshot.policy.floats[0][0].to_bits()
        );
    }

    #[test]
    fn shard_snapshots_round_trip() {
        let shard = ShardSnapshot {
            version: STORE_VERSION,
            epoch: 12,
            tenants: vec![sample_snapshot()],
        };
        let text = shard.to_json_text();
        let back = ShardSnapshot::from_json_text(&text).unwrap();
        assert_eq!(back, shard);
        assert_eq!(back.to_json_text(), text);
    }

    #[test]
    fn wal_records_round_trip() {
        let records = [
            WalRecord::Register {
                id: "exp-0".into(),
                scenario: Box::new(sample_scenario()),
                flush_max_pending: 32,
                flush_before_decide: false,
                auto_feedback: true,
                echo_feedback: false,
            },
            WalRecord::Restore {
                snapshot: Box::new(sample_snapshot()),
            },
            WalRecord::Decide {
                tenant: "exp-0".into(),
                count: 32,
            },
            WalRecord::Feedback {
                tenant: "exp-0".into(),
                round: 2,
                event: sample_event(4, 0.1 + 0.2),
            },
            WalRecord::Flush {
                tenant: "exp-0".into(),
            },
            WalRecord::Removed {
                tenant: "exp-0".into(),
            },
            WalRecord::Drain,
        ];
        for record in records {
            let text = record.to_json_text();
            let back = WalRecord::from_json_text(&text).unwrap();
            assert_eq!(back, record, "{text}");
            assert_eq!(back.to_json_text(), text);
        }
    }

    #[test]
    fn policy_state_without_rng_omits_the_key() {
        let state = PolicyState {
            counts: vec![vec![1]],
            floats: vec![],
            windows: vec![],
            rng: None,
        };
        let text = policy_state_to_json(&state).to_text();
        assert!(!text.contains("rng"), "{text}");
        assert_eq!(
            policy_state_from_json(&parse(&text).unwrap()).unwrap(),
            state
        );
    }

    #[test]
    fn unknown_versions_are_rejected() {
        let mut snapshot = sample_snapshot();
        snapshot.version = STORE_VERSION + 1;
        let err = StoredTenantSnapshot::from_json_text(&snapshot.to_json_text()).unwrap_err();
        assert!(
            matches!(err, SpecError::UnsupportedVersion { found, .. } if found == STORE_VERSION + 1),
            "{err}"
        );
        let shard = ShardSnapshot {
            version: 99,
            epoch: 0,
            tenants: vec![],
        };
        assert!(matches!(
            ShardSnapshot::from_json_text(&shard.to_json_text()).unwrap_err(),
            SpecError::UnsupportedVersion { found: 99, .. }
        ));
    }

    #[test]
    fn unknown_fields_and_tags_are_rejected() {
        for bad in [
            r#"{"type":"decide","tenant":"t","count":1,"extra":0}"#,
            r#"{"type":"decide_quickly","tenant":"t","count":1}"#,
            r#"{"type":"decide","tenant":"t"}"#,
            r#"{"type":"drain","hard":true}"#,
            r#"{"type":"flush"}"#,
        ] {
            assert!(WalRecord::from_json_text(bad).is_err(), "accepted {bad}");
        }
    }

    /// Version 1 documents carried the per-round regret trace (`realised`,
    /// `pseudo`). Version 2 dropped it, so a v1 file must be refused by the
    /// version gate, never half-read.
    #[test]
    fn version_one_documents_with_a_regret_trace_are_refused() {
        let v2 = sample_snapshot().to_json_text();
        let v1 = v2.replacen("\"version\":2,", "\"version\":1,", 1).replacen(
            "\"pending\":",
            "\"realised\":[0.5,-0.25,0,0.1],\"pseudo\":[0.5,0.5,0,0],\"pending\":",
            1,
        );
        assert!(v1.contains("\"version\":1,") && v1.contains("\"realised\":"));
        let err = StoredTenantSnapshot::from_json_text(&v1).unwrap_err();
        assert!(
            matches!(
                err,
                SpecError::UnsupportedVersion {
                    found: 1,
                    supported: 2
                }
            ),
            "{err}"
        );
        let shard = format!("{{\"version\":1,\"epoch\":3,\"tenants\":[{v1}]}}");
        assert!(matches!(
            ShardSnapshot::from_json_text(&shard).unwrap_err(),
            SpecError::UnsupportedVersion { found: 1, .. }
        ));
    }

    #[test]
    fn pending_rounds_beyond_the_served_counter_are_rejected() {
        for bogus in [0, 5, 99] {
            let mut snapshot = sample_snapshot();
            snapshot.pending.push((bogus, sample_event(0, 1.0)));
            let err = StoredTenantSnapshot::from_json_text(&snapshot.to_json_text()).unwrap_err();
            assert!(err.to_string().contains("pending feedback"), "{err}");
        }
    }

    #[test]
    fn malformed_rng_states_are_rejected() {
        let snapshot = sample_snapshot();
        let text = snapshot.to_json_text();
        let bad = text.replace("\"rng\":[9,8,7,6]", "\"rng\":[9,8,7]");
        assert_ne!(bad, text, "fixture rng words changed; update the test");
        let err = StoredTenantSnapshot::from_json_text(&bad).unwrap_err();
        assert!(err.to_string().contains("4 words"), "{err}");
    }

    #[test]
    fn truncated_documents_are_rejected() {
        let text = sample_snapshot().to_json_text();
        // Chop the document at a few byte offsets; every prefix must fail to
        // decode (this is the payload-level half of torn-tail handling — the
        // framing CRC in netband-store is the other half).
        for cut in [1, text.len() / 4, text.len() / 2, text.len() - 1] {
            let truncated = &text[..cut];
            assert!(
                StoredTenantSnapshot::from_json_text(truncated).is_err(),
                "accepted a {cut}-byte prefix"
            );
        }
    }

    /// Finite `f64` bit patterns (the codec refuses NaN/infinities by
    /// contract, so those draws fall back to the raw bits as a value —
    /// still an "awkward" float, just a finite one).
    fn arb_finite_f64() -> impl Strategy<Value = f64> {
        (0u64..=u64::MAX).prop_map(|bits| {
            let v = f64::from_bits(bits);
            if v.is_finite() {
                v
            } else {
                bits as f64
            }
        })
    }

    /// Arbitrary xoshiro256++ state words.
    fn arb_rng_words() -> impl Strategy<Value = [u64; 4]> {
        (
            0u64..=u64::MAX,
            0u64..=u64::MAX,
            0u64..=u64::MAX,
            0u64..=u64::MAX,
        )
            .prop_map(|(a, b, c, d)| [a, b, c, d])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The satellite contract: snapshot → bytes → snapshot → bytes is
        /// byte-stable and bit-exact for arbitrary finite float payloads and
        /// RNG words.
        #[test]
        fn arbitrary_snapshots_round_trip_byte_stably(
            rng_words in arb_rng_words(),
            policy_rng in arb_rng_words(),
            counts in proptest::collection::vec(0u64..=u64::MAX, 0..8),
            floats in proptest::collection::vec(arb_finite_f64(), 0..8),
            round in 0u64..=u64::MAX,
            totals in (arb_finite_f64(), arb_finite_f64()),
        ) {
            let mut policy = PolicyState::new();
            policy.counts.push(counts);
            policy.floats.push(floats);
            policy.rng = Some(policy_rng);
            let snapshot = StoredTenantSnapshot {
                version: STORE_VERSION,
                id: "prop".into(),
                scenario: Box::new(sample_scenario()),
                round,
                optimal_sum: totals.0,
                total_reward: totals.1,
                flush_max_pending: 1,
                flush_before_decide: true,
                auto_feedback: false,
                echo_feedback: true,
                rng: rng_words,
                policy,
                pending: Vec::new(),
                metrics: StoredTenantMetrics::default(),
            };
            let text = snapshot.to_json_text();
            let back = StoredTenantSnapshot::from_json_text(&text).unwrap();
            prop_assert_eq!(&back, &snapshot);
            prop_assert_eq!(back.to_json_text(), text);
        }
    }
}
