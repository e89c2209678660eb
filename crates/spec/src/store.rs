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
//!   reward sums) travels as a shortest round-trip lexeme and re-parses
//!   bit-identically, which is what lets crash recovery resume the exact
//!   learning trajectory;
//! * **no new dependencies** — the same field tables ([`crate::codec`]) over
//!   `std` only: records and snapshots encode straight into the store's
//!   reused frame and file buffers ([`WalRecord::write_json`]).
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

use crate::codec::{object, tagged, text_entry_points, version_gate};
use crate::error::SpecError;
use crate::model::ScenarioSpec;
use crate::wire::FeedbackEvent;

/// Version stamp of the durable-state document format. Bump when a field
/// changes meaning; decoding any other version is a hard error
/// ([`SpecError::UnsupportedVersion`]), never a silent best-effort read.
pub const STORE_VERSION: u64 = 2;

// ---------------------------------------------------------------------------
// model types
// ---------------------------------------------------------------------------

/// Counters of one tenant's serving activity. The serving engine keeps and
/// reports them (`netband-serve` re-exports this type), and a stored
/// snapshot persists them, so a recovered engine reports the same metrics it
/// would have reported without the crash.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantMetrics {
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

impl TenantMetrics {
    /// Mean flushed-batch size (0 when nothing has been flushed).
    pub fn mean_batch(&self) -> f64 {
        if self.batches_flushed == 0 {
            0.0
        } else {
            self.events_applied as f64 / self.batches_flushed as f64
        }
    }

    /// Records one flush of `batch` events.
    pub fn record_flush(&mut self, batch: u64) {
        self.batches_flushed += 1;
        self.events_applied += batch;
        self.max_batch = self.max_batch.max(batch);
    }
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
    pub pending: Vec<(u64, FeedbackEvent)>,
    /// Serving counters.
    pub metrics: TenantMetrics,
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
        event: FeedbackEvent,
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
// field tables
// ---------------------------------------------------------------------------

// The `rng` key is omitted entirely (not emitted as `null`) when the policy
// keeps no generator, so re-encoding a decoded document is byte-identical.
object!(PolicyState as "PolicyState" {
    "counts" => counts: Vec<Vec<u64>>,
    "floats" => floats: Vec<Vec<f64>>,
    "windows" => windows: Vec<Vec<f64>>,
    "rng" => rng: Option<[u64; 4]> [omit],
});

object!(TenantMetrics as "StoredTenantMetrics" {
    "decides" => decides: u64,
    "feedback_events" => feedback_events: u64,
    "batches_flushed" => batches_flushed: u64,
    "events_applied" => events_applied: u64,
    "max_batch" => max_batch: u64,
});

object!(((u64, FeedbackEvent)) as "stored pending entry" [(round, event)] {
    "round" => round: u64,
    "event" => event: FeedbackEvent,
});

object!(StoredTenantSnapshot as "StoredTenantSnapshot" {
    "version" => version: u64 [gate version_gate::<STORE_VERSION>],
    "id" => id: String,
    "scenario" => scenario: Box<ScenarioSpec>,
    "round" => round: u64,
    "optimal_sum" => optimal_sum: f64,
    "total_reward" => total_reward: f64,
    "flush_max_pending" => flush_max_pending: u64,
    "flush_before_decide" => flush_before_decide: bool,
    "auto_feedback" => auto_feedback: bool,
    "echo_feedback" => echo_feedback: bool,
    "rng" => rng: [u64; 4],
    "policy" => policy: PolicyState,
    "pending" => pending: Vec<(u64, FeedbackEvent)>,
    "metrics" => metrics: TenantMetrics,
} then served_rounds_only);

/// The cross-field invariant every well-formed snapshot satisfies, checked
/// so that silent corruption that survives the CRC still fails loudly: each
/// pending event quotes a served round.
fn served_rounds_only(snapshot: &StoredTenantSnapshot) -> Result<(), SpecError> {
    match snapshot
        .pending
        .iter()
        .find(|&&(round, _)| round == 0 || round > snapshot.round)
    {
        Some((round, _)) => Err(SpecError::Invalid {
            context: "StoredTenantSnapshot",
            message: format!(
                "pending feedback quotes round {round}, but only {} rounds were served",
                snapshot.round
            ),
        }),
        None => Ok(()),
    }
}

object!(ShardSnapshot as "ShardSnapshot" {
    "version" => version: u64 [gate version_gate::<STORE_VERSION>],
    "epoch" => epoch: u64,
    "tenants" => tenants: Vec<StoredTenantSnapshot>,
});

tagged!(WalRecord as "WalRecord" {
    "register" => Register {
        "id" => id: String,
        "scenario" => scenario: Box<ScenarioSpec>,
        "flush_max_pending" => flush_max_pending: u64,
        "flush_before_decide" => flush_before_decide: bool,
        "auto_feedback" => auto_feedback: bool,
        "echo_feedback" => echo_feedback: bool
    },
    "restore" => Restore { "snapshot" => snapshot: Box<StoredTenantSnapshot> },
    "decide" => Decide { "tenant" => tenant: String, "count" => count: u64 },
    "feedback" => Feedback {
        "tenant" => tenant: String,
        "round" => round: u64,
        "event" => event: FeedbackEvent
    },
    "flush" => Flush { "tenant" => tenant: String },
    "removed" => Removed { "tenant" => tenant: String },
    "drain" => Drain {},
});

text_entry_points! {
    StoredTenantSnapshot: "tenant snapshot";
    ShardSnapshot: "shard checkpoint";
    WalRecord: "WAL record";
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

    fn sample_event(arm: usize, reward: f64) -> FeedbackEvent {
        FeedbackEvent::Single(SinglePlayFeedback {
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
            metrics: TenantMetrics {
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
        let mut text = String::new();
        crate::codec::Codec::encode(&state, &mut text);
        assert_eq!(text, r#"{"counts":[[1]],"floats":[],"windows":[]}"#);
        assert_eq!(
            crate::codec::decode_text::<PolicyState>(&text).unwrap(),
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
                metrics: TenantMetrics::default(),
            };
            let text = snapshot.to_json_text();
            let back = StoredTenantSnapshot::from_json_text(&text).unwrap();
            prop_assert_eq!(&back, &snapshot);
            prop_assert_eq!(back.to_json_text(), text);
        }
    }
}
