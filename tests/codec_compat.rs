//! Byte compatibility of the strict-JSON codec.
//!
//! `tests/fixtures/codec/` holds one encoded document of every kind the
//! workspace sends or stores: each wire request and response variant, each
//! WAL record kind, one tenant snapshot per DFL preset plus the drifting CTS
//! scenario, a shard snapshot, and the fixture scenarios. The files were
//! written by the tree-based encoder the field tables replaced. Each test
//! rebuilds the same values, encodes them, and requires the exact bytes of
//! the file; then it decodes the file and requires that re-encoding gives
//! the file back. Data directories and old clients therefore keep working.

mod common;

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use common::{drift_scenario, fixtures_dir, golden_specs};
use netband::prelude::*;
use netband::spec::{
    ShardSnapshot, StoredTenantSnapshot, WalRecord, WireArmStat, WireTelemetry, STORE_VERSION,
};

fn codec_dir() -> PathBuf {
    fixtures_dir().join("codec")
}

/// Requires `encoded` to equal the committed fixture `name` byte for byte.
fn check(name: &str, encoded: &str) {
    let path = codec_dir().join(format!("{name}.json"));
    let committed = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing codec fixture {} ({e})", path.display()));
    assert!(
        committed == encoded,
        "{name}: the encoder no longer reproduces {}\n committed: {committed}\n   encoded: {encoded}",
        path.display()
    );
}

/// Requires `decode` then `encode` of fixture `name` to give the file back.
fn check_reencodes<T>(
    name: &str,
    decode: fn(&str) -> Result<T, SpecError>,
    encode: fn(&T) -> String,
) {
    let path = codec_dir().join(format!("{name}.json"));
    let text = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing codec fixture {} ({e})", path.display()));
    let value = decode(&text).unwrap_or_else(|e| panic!("{name}: fixture no longer decodes: {e}"));
    assert_eq!(
        encode(&value),
        text,
        "{name}: decode → encode changed the bytes"
    );
}

/// A string that needs every kind of escape the writer emits, plus
/// multi-byte and astral-plane characters it must pass through raw.
const AWKWARD: &str = "quote\" back\\slash\nnew\rret\ttab\u{8}\u{c}\u{1}\u{1f} π 😀 /";

/// Floats whose shortest lexemes are long, signed, tiny, huge or integral
/// (on both sides of 1e15, where the writer's integer path ends).
const FLOATS: [f64; 12] = [
    0.1 + 0.2,
    1.0 / 3.0,
    -0.0,
    1.0,
    f64::MAX,
    f64::MIN_POSITIVE,
    5e-324,
    -123_456.789e-3,
    -7.0,
    999_999_999_999_999.0,
    1e15,
    4_503_599_627_370_496.0,
];

fn single_event() -> FeedbackEvent {
    FeedbackEvent::Single(SinglePlayFeedback {
        arm: 3,
        direct_reward: 1.0,
        side_reward: 0.25 + 0.5,
        observations: vec![(1, 0.0), (3, 1.0), (4, 1.0 / 3.0), (7, 0.1 + 0.2)],
    })
}

fn combinatorial_event() -> FeedbackEvent {
    FeedbackEvent::Combinatorial(CombinatorialFeedback {
        strategy: vec![0, 2],
        observation_set: vec![0, 1, 2, 5],
        direct_reward: 2.0,
        side_reward: 3.0,
        observations: vec![(0, 1.0), (1, 0.0), (2, 1.0), (5, 0.1 + 0.2)],
    })
}

fn requests() -> Vec<(&'static str, WireRequest)> {
    let (_, scenario) = golden_specs().remove(2);
    vec![
        (
            "request_decide_many",
            WireRequest::DecideMany {
                tenant: "exp-0".into(),
                count: u32::MAX,
            },
        ),
        (
            "request_feedback_many",
            WireRequest::FeedbackMany {
                tenant: AWKWARD.into(),
                events: vec![
                    WireFeedback {
                        round: 2,
                        event: single_event(),
                    },
                    WireFeedback {
                        round: u64::MAX,
                        event: combinatorial_event(),
                    },
                ],
            },
        ),
        (
            "request_register_tenant",
            WireRequest::RegisterTenant {
                id: "exp-1".into(),
                scenario: Box::new(scenario),
            },
        ),
        ("request_metrics", WireRequest::Metrics),
        (
            "request_telemetry",
            WireRequest::Telemetry {
                tenant: "exp-0".into(),
            },
        ),
    ]
}

fn responses() -> Vec<(&'static str, WireResponse)> {
    vec![
        (
            "response_decisions",
            WireResponse::Decisions {
                tenant: "exp-0".into(),
                replies: vec![
                    DecideReply {
                        round: 1,
                        decision: Decision::Arm(4),
                        reward: 0.1 + 0.2,
                        feedback: Some(single_event()),
                    },
                    DecideReply {
                        round: 2,
                        decision: Decision::Strategy(vec![0, 3]),
                        reward: 2.0,
                        feedback: Some(combinatorial_event()),
                    },
                    DecideReply {
                        round: 3,
                        decision: Decision::Strategy(vec![]),
                        reward: -0.0,
                        feedback: None,
                    },
                ],
            },
        ),
        ("response_ok", WireResponse::Ok),
        ("response_accepted", WireResponse::Accepted { count: 17 }),
        (
            "response_metrics",
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
                    p99_ns: u64::MAX,
                    p99_exact: true,
                },
            }),
        ),
        (
            "response_telemetry",
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
                arms: FLOATS
                    .iter()
                    .enumerate()
                    .map(|(arm, &mean)| WireArmStat {
                        arm,
                        pulls: 250 - arm as u64,
                        mean,
                    })
                    .collect(),
            })),
        ),
        (
            "response_error",
            WireResponse::Error {
                code: WireErrorCode::Overloaded,
                message: AWKWARD.into(),
            },
        ),
    ]
}

#[test]
fn wire_documents_are_byte_compatible() {
    for (name, request) in requests() {
        check(name, &request.to_json_text());
        check_reencodes(name, WireRequest::from_json_text, WireRequest::to_json_text);
    }
    for (name, response) in responses() {
        check(name, &response.to_json_text());
        check_reencodes(
            name,
            WireResponse::from_json_text,
            WireResponse::to_json_text,
        );
    }
}

#[test]
fn scenario_documents_are_byte_compatible() {
    let mut scenarios = golden_specs();
    scenarios.push(("drift_cts", drift_scenario()));
    for (name, spec) in scenarios {
        let compact = format!("scenario_{name}");
        check(&compact, &spec.to_json_text());
        check_reencodes(
            &compact,
            ScenarioSpec::from_json_text,
            ScenarioSpec::to_json_text,
        );
        let pretty = format!("scenario_{name}_pretty");
        check(&pretty, &spec.to_json_pretty());
        check_reencodes(
            &pretty,
            ScenarioSpec::from_json_text,
            ScenarioSpec::to_json_pretty,
        );
    }
    let fleet = FleetSpec {
        version: SPEC_VERSION,
        name: AWKWARD.into(),
        tenants: golden_specs()
            .into_iter()
            .map(|(id, scenario)| FleetTenant {
                id: id.into(),
                scenario,
            })
            .collect(),
    };
    check("fleet_golden", &fleet.to_json_text());
    check_reencodes(
        "fleet_golden",
        FleetSpec::from_json_text,
        FleetSpec::to_json_text,
    );
}

/// A per-process data directory, removed on drop.
struct DataDir(PathBuf);

impl DataDir {
    fn new() -> DataDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "netband_codec_compat_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::remove_dir_all(&dir).ok();
        DataDir(dir)
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        fs::remove_dir_all(&self.0).ok();
    }
}

/// Serves the four DFL presets and the drifting CTS scenario on a durable
/// engine that keeps one tenant resident, so each is written to disk as an
/// evict file by the store's own encoder. Feedback is batched and returned
/// one round late, so the stored pending queues are not empty.
fn preset_snapshots() -> BTreeMap<String, (String, StoredTenantSnapshot)> {
    let dir = DataDir::new();
    let engine = ServeEngine::start(
        EngineConfig::new(1).with_store(StoreConfig::new(&dir.0).with_resident_cap(1)),
    );
    let mut scenarios = golden_specs();
    scenarios.push(("drift_cts", drift_scenario()));
    for (name, mut scenario) in scenarios {
        scenario.feedback = FeedbackSpec::Batched { max_pending: 16 };
        engine
            .register_tenant_spec(&RegisterTenantSpec::new(name, scenario))
            .expect("register");
        let mut late = None;
        for _ in 0..40 {
            let reply = engine.decide(name).expect("decide");
            if let Some((round, event)) = late.take() {
                engine.feedback(name, round, event).expect("feedback");
            }
            late = Some((reply.round, reply.feedback.expect("echoed feedback")));
        }
    }
    // A last tenant takes the one resident slot, so every preset is on disk.
    engine
        .register_tenant_spec(&RegisterTenantSpec::new("last", golden_specs().remove(0).1))
        .expect("register");
    engine.store_metrics().expect("barrier");
    let mut snapshots = BTreeMap::new();
    for entry in fs::read_dir(dir.0.join("shard-0")).expect("shard dir") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.starts_with("evict-") && name.ends_with(".json") {
            let text = fs::read_to_string(&path).expect("read evict file");
            let snapshot = StoredTenantSnapshot::from_json_text(&text).expect("decode evict file");
            snapshots.insert(snapshot.id.clone(), (text, snapshot));
        }
    }
    engine.shutdown();
    snapshots
}

#[test]
fn stored_documents_are_byte_compatible() {
    let snapshots = preset_snapshots();
    let names = ["dfl_cso", "dfl_csr", "dfl_sso", "dfl_ssr", "drift_cts"];
    assert_eq!(snapshots.keys().collect::<Vec<_>>(), names);
    for (name, (text, _)) in &snapshots {
        let file = format!("snapshot_{name}");
        check(&file, text);
        check_reencodes(
            &file,
            StoredTenantSnapshot::from_json_text,
            StoredTenantSnapshot::to_json_text,
        );
    }
    assert!(
        snapshots.values().any(|(_, s)| !s.pending.is_empty()),
        "no stored pending feedback to cover"
    );

    let tenants: Vec<StoredTenantSnapshot> = snapshots.values().map(|(_, s)| s.clone()).collect();
    let shard = ShardSnapshot {
        version: STORE_VERSION,
        epoch: 7,
        tenants: tenants.clone(),
    };
    check("shard_snapshot", &shard.to_json_text());
    check_reencodes(
        "shard_snapshot",
        ShardSnapshot::from_json_text,
        ShardSnapshot::to_json_text,
    );

    let (_, scenario) = golden_specs().remove(3);
    let records = [
        (
            "wal_register",
            WalRecord::Register {
                id: AWKWARD.into(),
                scenario: Box::new(scenario),
                flush_max_pending: 32,
                flush_before_decide: false,
                auto_feedback: true,
                echo_feedback: false,
            },
        ),
        (
            "wal_restore",
            WalRecord::Restore {
                snapshot: Box::new(tenants[4].clone()),
            },
        ),
        (
            "wal_decide",
            WalRecord::Decide {
                tenant: "exp-0".into(),
                count: 32,
            },
        ),
        (
            "wal_feedback_single",
            WalRecord::Feedback {
                tenant: "exp-0".into(),
                round: 2,
                event: single_event(),
            },
        ),
        (
            "wal_feedback_combinatorial",
            WalRecord::Feedback {
                tenant: "exp-0".into(),
                round: 9,
                event: combinatorial_event(),
            },
        ),
        (
            "wal_flush",
            WalRecord::Flush {
                tenant: "exp-0".into(),
            },
        ),
        (
            "wal_removed",
            WalRecord::Removed {
                tenant: "exp-0".into(),
            },
        ),
        ("wal_drain", WalRecord::Drain),
    ];
    for (name, record) in records {
        check(name, &record.to_json_text());
        check_reencodes(name, WalRecord::from_json_text, WalRecord::to_json_text);
    }
}
