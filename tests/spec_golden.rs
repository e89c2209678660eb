//! Spec-equivalence suite: declarative [`ScenarioSpec`] documents must
//! reproduce the committed golden DFL traces **bit for bit**.
//!
//! `tests/fixtures/golden_*.json` pins the exact per-round behaviour of the
//! four DFL policies on one fixed Erdős–Rényi instance (see
//! `tests/common/mod.rs`). The batch runners (`tests/golden_traces.rs`) and
//! the serving engine (`tests/serve_equivalence.rs`) are already held to
//! those fixtures; this suite holds the **spec pipeline** to them too:
//!
//! * `ScenarioSpec → build → run_spec` equals the hand-wired runner path;
//! * `ScenarioSpec → JSON text → parse → run_spec` equals it as well (the
//!   whole document round trip preserves every bit);
//! * a tenant registered on a `ServeEngine` **from the same document**
//!   re-serves the same trajectory.
//!
//! Plus the schema-level guarantees: every `PolicySpec` variant constructs
//! its policy, and unknown fields / unknown versions are rejected.

mod common;

use common::{
    assert_golden, fixture_instance, golden_scenario, golden_specs, golden_workload, RegretRecorder,
};
use netband::prelude::*;

// ----- spec → build → run equals the committed fixtures --------------------

#[test]
fn spec_built_runs_reproduce_all_four_golden_traces() {
    for (fixture, spec) in golden_specs() {
        // The spec-built workload is the fixture instance, bit for bit.
        let workload = spec.workload.build().expect("golden workload builds");
        assert_eq!(
            workload.bandit,
            fixture_instance(),
            "{fixture}: spec-built instance drifted"
        );
        let result = run_spec(&spec).expect("golden spec runs");
        assert_golden(fixture, &result);
    }
}

/// The whole document pipeline — serialize to JSON text, parse back, build,
/// run — preserves the traces bit for bit.
#[test]
fn golden_traces_survive_the_json_round_trip() {
    for (fixture, spec) in golden_specs() {
        let text = spec.to_json_text();
        let parsed = ScenarioSpec::from_json_text(&text)
            .unwrap_or_else(|e| panic!("{fixture}: reparse failed: {e}\n{text}"));
        assert_eq!(
            parsed, spec,
            "{fixture}: document round trip changed the spec"
        );
        let result = run_spec(&parsed).expect("reparsed golden spec runs");
        assert_golden(fixture, &result);
    }
}

// ----- serve: a tenant registered from the document re-serves the trace ----

/// Registering the golden scenarios on a single-shard engine **from the spec
/// document** and closing the feedback loop reproduces the same run results
/// as `run_spec` — engine, simulator, and spec pipeline are one algorithm.
#[test]
fn spec_registered_tenants_serve_the_golden_trajectories() {
    for (fixture, spec) in golden_specs() {
        let expected = run_spec(&spec).expect("golden spec runs");
        let mut recorder = RegretRecorder::from_scenario(&spec);
        let engine = ServeEngine::with_shards(1);
        engine
            .register_tenant_spec(&RegisterTenantSpec::new(fixture, spec.clone()))
            .expect("register from spec");
        for _ in 0..spec.horizon {
            let reply = engine.decide(fixture).expect("decide");
            recorder.record_reply(&reply);
            let event = reply.feedback.expect("echoed feedback");
            engine
                .feedback(fixture, reply.round, event)
                .expect("feedback");
        }
        recorder.assert_totals(&engine.telemetry(fixture).expect("telemetry"));
        engine.shutdown();
        let served = recorder.run_result();
        assert_eq!(served.policy, expected.policy, "{fixture}");
        assert_eq!(served.horizon, expected.horizon, "{fixture}");
        assert_eq!(
            served.optimal_mean.to_bits(),
            expected.optimal_mean.to_bits(),
            "{fixture}: benchmark drifted"
        );
        assert_eq!(
            served.total_reward.to_bits(),
            expected.total_reward.to_bits(),
            "{fixture}: total reward drifted"
        );
        assert_eq!(served.trace, expected.trace, "{fixture}: trace drifted");
    }
}

// ----- every policy is constructible from a PolicySpec ---------------------

/// The acceptance criterion of the spec redesign: every policy in
/// `netband-core` and `netband-baselines` is constructible from a
/// [`PolicySpec`] variant, with the play mode and report name the spec
/// declares.
#[test]
fn every_policy_spec_variant_constructs_its_policy() {
    let all: Vec<PolicySpec> = vec![
        PolicySpec::DflSso,
        PolicySpec::DflSsr,
        PolicySpec::DflCso,
        PolicySpec::DflCsr,
        PolicySpec::DflSsoGreedyNeighbor,
        PolicySpec::DflSsrGreedyNeighbor,
        PolicySpec::Moss { horizon: None },
        PolicySpec::Moss {
            horizon: Some(1_000),
        },
        PolicySpec::Ucb1,
        PolicySpec::UcbTuned,
        PolicySpec::KlUcb { c: None },
        PolicySpec::KlUcb { c: Some(3.0) },
        PolicySpec::UcbV {
            zeta: None,
            c: None,
        },
        PolicySpec::UcbV {
            zeta: Some(1.2),
            c: Some(1.0),
        },
        PolicySpec::EpsilonGreedy {
            epsilon: 0.1,
            seed: 5,
        },
        PolicySpec::DecayingEpsilonGreedy { c: 5.0, seed: 5 },
        PolicySpec::Softmax { tau: 0.1, seed: 5 },
        PolicySpec::Exp3 {
            gamma: 0.05,
            seed: 5,
        },
        PolicySpec::ThompsonBernoulli { seed: 5 },
        PolicySpec::RandomSingle { seed: 5 },
        PolicySpec::Cucb,
        PolicySpec::Llr,
        PolicySpec::CombEpsilonGreedy { c: 5.0, seed: 5 },
        PolicySpec::NaiveComArmMoss,
        PolicySpec::RandomCombinatorial { seed: 5 },
        PolicySpec::Cts {
            seed: 5,
            estimator: None,
        },
        PolicySpec::Cts {
            seed: 5,
            estimator: Some(EstimatorSpec::Stationary),
        },
        PolicySpec::Cts {
            seed: 5,
            estimator: Some(EstimatorSpec::Discounted { gamma: 0.99 }),
        },
        PolicySpec::Cts {
            seed: 5,
            estimator: Some(EstimatorSpec::SlidingWindow { window: 200 }),
        },
    ];
    let workload = golden_workload(Some(FamilySpec::AtMostM { m: 3 }))
        .build()
        .expect("workload builds");
    let family = workload.try_family().expect("combinatorial workload");
    for spec in &all {
        let policy = spec
            .build(&workload.bandit, Some(family))
            .unwrap_or_else(|e| panic!("{spec:?} failed to build: {e}"));
        assert_eq!(
            policy.is_single(),
            !spec.is_combinatorial(),
            "{spec:?}: play mode mismatch"
        );
        assert_eq!(
            policy.name(),
            spec.display_name(),
            "{spec:?}: report name mismatch"
        );
        // Each policy also round-trips through the JSON codec inside a full
        // scenario document.
        let scenario = ScenarioSpec {
            policy: spec.clone(),
            side_bonus: if spec.is_combinatorial() {
                SideBonus::Reward
            } else {
                SideBonus::Observation
            },
            ..golden_scenario(
                "sweep",
                PolicySpec::DflSso,
                Some(FamilySpec::AtMostM { m: 3 }),
                SideBonus::Observation,
                10,
            )
        };
        let back = ScenarioSpec::from_json_text(&scenario.to_json_text())
            .unwrap_or_else(|e| panic!("{spec:?}: round trip failed: {e}"));
        assert_eq!(back, scenario, "{spec:?}: round trip changed the document");
    }
}

// ----- schema strictness ---------------------------------------------------

#[test]
fn unknown_fields_are_rejected_everywhere() {
    let (_, spec) = golden_specs().remove(0);
    let text = spec.to_json_text();
    // Top level.
    let bad = text.replacen("\"name\"", "\"nmae\"", 1);
    let err = ScenarioSpec::from_json_text(&bad).unwrap_err();
    assert!(
        matches!(
            err,
            SpecError::UnknownField { .. } | SpecError::MissingField { .. }
        ),
        "{err}"
    );
    // Nested: a typo inside the graph object.
    let bad = text.replacen("\"edge_prob\"", "\"edge_porb\"", 1);
    let err = ScenarioSpec::from_json_text(&bad).unwrap_err();
    assert!(
        matches!(
            err,
            SpecError::UnknownField { .. } | SpecError::MissingField { .. }
        ),
        "{err}"
    );
    // An extra field nobody defined.
    let bad = text.replacen("{\"version\"", "{\"extra\": 1,\"version\"", 1);
    assert!(matches!(
        ScenarioSpec::from_json_text(&bad).unwrap_err(),
        SpecError::UnknownField { .. }
    ));
}

#[test]
fn unknown_versions_and_variants_are_rejected() {
    let (_, spec) = golden_specs().remove(0);
    let text = spec.to_json_text();
    let bad = text.replacen("\"version\":1", "\"version\":2", 1);
    assert_eq!(
        ScenarioSpec::from_json_text(&bad).unwrap_err(),
        SpecError::UnsupportedVersion {
            found: 2,
            supported: SPEC_VERSION
        }
    );
    let bad = text.replacen("\"dfl_sso\"", "\"dfl_xyz\"", 1);
    assert!(matches!(
        ScenarioSpec::from_json_text(&bad).unwrap_err(),
        SpecError::UnknownVariant { .. }
    ));
    // Fleets gate the version too.
    let fleet = FleetSpec {
        version: 9,
        name: "future".into(),
        tenants: vec![],
    };
    assert_eq!(
        FleetSpec::from_json_text(&fleet.to_json_text()).unwrap_err(),
        SpecError::UnsupportedVersion {
            found: 9,
            supported: SPEC_VERSION
        }
    );
}

#[test]
fn zero_batch_feedback_documents_are_rejected() {
    let (_, mut spec) = golden_specs().remove(0);
    spec.feedback = FeedbackSpec::Batched { max_pending: 0 };
    assert!(matches!(
        spec.validate().unwrap_err(),
        SpecError::Invalid { .. }
    ));
    let text = spec.to_json_text();
    assert!(matches!(
        ScenarioSpec::from_json_text(&text).unwrap_err(),
        SpecError::Invalid { .. }
    ));
}

// ----- drift documents: round trip, validation, byte stability -------------

/// Drifting documents (gradual + change points + churn, every estimator kind)
/// survive the JSON round trip exactly.
#[test]
fn drift_documents_round_trip_through_the_codec() {
    let drifts = vec![
        DriftSpec::default(),
        DriftSpec {
            gradual: Some(GradualDriftSpec {
                amplitude: 0.25,
                period: 120,
            }),
            ..DriftSpec::default()
        },
        DriftSpec {
            change_points: vec![
                ChangePointSpec {
                    round: 50,
                    rotation: 3,
                },
                ChangePointSpec {
                    round: 200,
                    rotation: 1,
                },
            ],
            ..DriftSpec::default()
        },
        DriftSpec {
            gradual: Some(GradualDriftSpec {
                amplitude: -0.1,
                period: 1,
            }),
            change_points: vec![ChangePointSpec {
                round: 10,
                rotation: 11,
            }],
            churn: vec![ChurnWindowSpec {
                arm: 4,
                from: 5,
                to: 9,
            }],
        },
    ];
    for drift in drifts {
        let mut spec = golden_scenario(
            "drift-roundtrip",
            PolicySpec::Cts {
                seed: 9,
                estimator: Some(EstimatorSpec::SlidingWindow { window: 64 }),
            },
            Some(FamilySpec::AtMostM { m: 2 }),
            SideBonus::Observation,
            50,
        );
        spec.workload.drift = Some(drift);
        spec.validate().expect("drift document validates");
        let back = ScenarioSpec::from_json_text(&spec.to_json_text())
            .unwrap_or_else(|e| panic!("drift round trip failed: {e}"));
        assert_eq!(back, spec, "drift round trip changed the document");
    }
}

/// The `drift` key is omitted (not encoded as `null`) when absent, so
/// documents written before the key existed re-encode byte-identically.
#[test]
fn stationary_documents_encode_without_a_drift_key() {
    let (_, spec) = golden_specs().remove(0);
    let text = spec.to_json_text();
    assert!(
        !text.contains("drift"),
        "stationary document grew a drift key:\n{text}"
    );
    // And a trivial drift block parses back as Some(default), not as None —
    // the stationary fast-path decision happens at run time, not parse time.
    let with_empty = text.replacen("\"seed\":42", "\"drift\":{},\"seed\":42", 1);
    let parsed = ScenarioSpec::from_json_text(&with_empty).expect("empty drift block parses");
    assert_eq!(parsed.workload.drift, Some(DriftSpec::default()));
}

/// Out-of-range drift and estimator documents are rejected both by
/// `validate()` and at parse time.
#[test]
fn invalid_drift_and_estimator_documents_are_rejected() {
    let base = golden_scenario(
        "drift-invalid",
        PolicySpec::Cts {
            seed: 9,
            estimator: None,
        },
        Some(FamilySpec::AtMostM { m: 2 }),
        SideBonus::Observation,
        50,
    );

    // gamma outside (0, 1].
    for gamma in [0.0, -0.5, 1.5, f64::NAN] {
        let mut spec = base.clone();
        spec.policy = PolicySpec::Cts {
            seed: 9,
            estimator: Some(EstimatorSpec::Discounted { gamma }),
        };
        assert!(
            matches!(spec.validate(), Err(SpecError::Invalid { .. })),
            "gamma {gamma} should be rejected"
        );
    }
    // window = 0.
    let mut spec = base.clone();
    spec.policy = PolicySpec::Cts {
        seed: 9,
        estimator: Some(EstimatorSpec::SlidingWindow { window: 0 }),
    };
    assert!(matches!(spec.validate(), Err(SpecError::Invalid { .. })));

    // Non-increasing change-point rounds.
    let mut spec = base.clone();
    spec.workload.drift = Some(DriftSpec {
        change_points: vec![
            ChangePointSpec {
                round: 100,
                rotation: 1,
            },
            ChangePointSpec {
                round: 100,
                rotation: 2,
            },
        ],
        ..DriftSpec::default()
    });
    assert!(matches!(spec.validate(), Err(SpecError::Invalid { .. })));

    // Churn window naming an arm outside the instance.
    let mut spec = base.clone();
    spec.workload.drift = Some(DriftSpec {
        churn: vec![ChurnWindowSpec {
            arm: 99,
            from: 1,
            to: 2,
        }],
        ..DriftSpec::default()
    });
    assert!(matches!(spec.validate(), Err(SpecError::Invalid { .. })));

    // Empty churn window (from >= to).
    let mut spec = base.clone();
    spec.workload.drift = Some(DriftSpec {
        churn: vec![ChurnWindowSpec {
            arm: 0,
            from: 5,
            to: 5,
        }],
        ..DriftSpec::default()
    });
    assert!(matches!(spec.validate(), Err(SpecError::Invalid { .. })));

    // Parse-time rejection: an invalid gamma inside a document is an error.
    let mut spec = base;
    spec.policy = PolicySpec::Cts {
        seed: 9,
        estimator: Some(EstimatorSpec::Discounted { gamma: 0.995 }),
    };
    let text = spec.to_json_text();
    let bad = text.replacen("0.995", "1.995", 1);
    assert!(matches!(
        ScenarioSpec::from_json_text(&bad),
        Err(SpecError::Invalid { .. })
    ));
    // Unknown estimator tags are unknown variants.
    let bad = text.replacen("\"discounted\"", "\"discount\"", 1);
    assert!(matches!(
        ScenarioSpec::from_json_text(&bad),
        Err(SpecError::UnknownVariant { .. })
    ));
}

// ----- randomized round-trip property --------------------------------------

mod roundtrip {
    use super::*;
    use proptest::prelude::*;

    fn graph_spec(choice: usize, num_arms: usize, p: f64) -> GraphSpec {
        match choice % 5 {
            0 => GraphSpec::ErdosRenyi {
                num_arms,
                edge_prob: p,
            },
            1 => GraphSpec::PreferentialAttachment {
                num_arms,
                edges_per_node: 2,
            },
            2 => GraphSpec::PlantedPartition {
                num_arms,
                communities: 3,
                p_in: p,
                p_out: p / 4.0,
            },
            3 => GraphSpec::RandomGeometric {
                num_arms,
                radius: p,
            },
            _ => GraphSpec::Explicit {
                num_arms,
                edges: (1..num_arms).map(|v| (v - 1, v)).collect(),
            },
        }
    }

    fn arms_spec(choice: usize, num_arms: usize, means: Vec<f64>) -> ArmsSpec {
        match choice % 4 {
            0 => ArmsSpec::UniformMeanBernoulli { num_arms },
            1 => ArmsSpec::Bernoulli { means },
            2 => ArmsSpec::Beta {
                shapes: means.iter().map(|&m| (1.0 + m, 2.0 - m)).collect(),
            },
            _ => ArmsSpec::Uniform {
                ranges: means.iter().map(|&m| (m * 0.5, 0.5 + m * 0.5)).collect(),
            },
        }
    }

    fn policy_spec(choice: usize, x: f64, seed: u64) -> PolicySpec {
        match choice % 10 {
            0 => PolicySpec::DflSso,
            1 => PolicySpec::DflSsr,
            2 => PolicySpec::Moss { horizon: None },
            3 => PolicySpec::Ucb1,
            4 => PolicySpec::KlUcb { c: Some(x) },
            5 => PolicySpec::EpsilonGreedy { epsilon: x, seed },
            6 => PolicySpec::Softmax { tau: x, seed },
            7 => PolicySpec::Exp3 { gamma: x, seed },
            8 => PolicySpec::ThompsonBernoulli { seed },
            _ => PolicySpec::RandomSingle { seed },
        }
    }

    proptest! {
        /// Randomized documents survive `to_json_text` → `from_json_text`
        /// exactly, including f64 hyperparameters and u64 seeds.
        #[test]
        fn scenario_specs_round_trip(
            graph_choice in 0usize..5,
            arms_choice in 0usize..4,
            policy_choice in 0usize..10,
            num_arms in 2usize..20,
            p in 0.05f64..0.9,
            x in 1e-3f64..10.0,
            workload_seed in 0u64..u64::MAX,
            run_seed in 0u64..u64::MAX,
            horizon in 0usize..100_000,
            replications in 1usize..50,
            batched in 0usize..3,
            max_pending in 1usize..4_096,
            side in 0usize..2,
        ) {
            let means: Vec<f64> = (0..num_arms).map(|i| (i as f64 + 0.5) / (num_arms as f64 + 1.0)).collect();
            let spec = ScenarioSpec {
                version: SPEC_VERSION,
                name: format!("prop/{graph_choice}/{arms_choice}/{policy_choice} \"quoted\" \\ π"),
                workload: WorkloadSpec {
                    graph: graph_spec(graph_choice, num_arms, p),
                    arms: arms_spec(arms_choice, num_arms, means),
                    family: None,
                    drift: None,
                    seed: workload_seed,
                },
                policy: policy_spec(policy_choice, x, run_seed),
                side_bonus: if side == 0 { SideBonus::Observation } else { SideBonus::Reward },
                horizon,
                replications,
                seed: run_seed,
                feedback: if batched == 0 {
                    FeedbackSpec::Immediate
                } else {
                    FeedbackSpec::Batched { max_pending }
                },
            };
            let text = spec.to_json_text();
            let back = ScenarioSpec::from_json_text(&text);
            prop_assert!(back.is_ok(), "reparse failed: {:?}\n{}", back.err(), text);
            prop_assert_eq!(back.unwrap(), spec);
        }
    }
}
