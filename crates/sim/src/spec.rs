//! Spec-driven simulation entry points.
//!
//! These are the bridge between `netband-spec`'s declarative
//! [`ScenarioSpec`] documents and the concrete runners in [`crate::runner`]:
//! a spec is built into an environment/policy pair and then driven through
//! **exactly** the same code path as a hand-wired run, so a spec-built run is
//! bit-identical to its hand-wired counterpart (the golden-trace equivalence
//! suite pins this).
//!
//! * [`run_spec`] — one run of replication 0.
//! * [`run_built`] — one run of an already-built scenario (lets callers
//!   inspect the built family or reuse a build).
//! * [`replicate_spec`] — all `spec.replications` runs, aggregated; each
//!   replication `r` regenerates the workload with `workload.seed + r` and
//!   draws the sample path with `seed + r`, matching the paper's averaged
//!   curves over independent random instances.

use std::sync::Mutex;

use netband_spec::{AnyPolicy, BuiltScenario, ScenarioSpec, SideBonus, SpecError};

use crate::replicate::{replicate, AveragedRun, ReplicationConfig};
use crate::runner::{
    run_combinatorial_in, run_single_in, CombinatorialScenario, RunResult, SingleScenario,
};
use crate::step::{Play, World};

/// The [`Play`] a built scenario's policy makes: its play kind, the
/// scenario its side bonus selects, and (for a combinatorial policy) the
/// family.
///
/// # Errors
///
/// [`SpecError::MissingFamily`] if a combinatorial policy was built without a
/// family (cannot happen for scenarios built by [`ScenarioSpec::build`],
/// which validates this).
pub fn play(built: &BuiltScenario) -> Result<Play, SpecError> {
    Ok(match (&built.policy, built.side_bonus) {
        (AnyPolicy::Single(_), SideBonus::Observation) => {
            Play::Single(SingleScenario::SideObservation)
        }
        (AnyPolicy::Single(_), SideBonus::Reward) => Play::Single(SingleScenario::SideReward),
        (AnyPolicy::Combinatorial(_), side_bonus) => {
            let family = built.family.clone().ok_or(SpecError::MissingFamily {
                policy: "combinatorial",
            })?;
            let scenario = match side_bonus {
                SideBonus::Observation => CombinatorialScenario::SideObservation,
                SideBonus::Reward => CombinatorialScenario::SideReward,
            };
            Play::Combinatorial(family, scenario)
        }
    })
}

/// Runs an already-built scenario through the matching runner, in the
/// [`World`] of its bandit, [`play`] and drift schedule.
///
/// # Errors
///
/// [`SpecError::MissingFamily`] (see [`play`]), or [`SpecError::Env`] if the
/// environment rejects a proposed strategy.
pub fn run_built(built: &mut BuiltScenario) -> Result<RunResult, SpecError> {
    let world = World::new(built.bandit.clone(), play(built)?, built.drift.clone());
    let (horizon, seed) = (built.horizon, built.seed);
    match &mut built.policy {
        AnyPolicy::Single(policy) => Ok(run_single_in(world, policy, horizon, seed)),
        AnyPolicy::Combinatorial(policy) => {
            run_combinatorial_in(world, policy, horizon, seed).map_err(SpecError::Env)
        }
    }
}

/// Builds and runs replication 0 of a scenario spec.
///
/// # Errors
///
/// Any [`SpecError`] from validation, building, or the run itself.
pub fn run_spec(spec: &ScenarioSpec) -> Result<RunResult, SpecError> {
    run_built(&mut spec.build()?)
}

/// Builds and runs every replication of a scenario spec and aggregates the
/// traces.
///
/// Replication `r` regenerates the workload instance with seed
/// `workload.seed + r` and draws its reward stream with seed `seed + r`, so
/// the aggregate averages over independent random instances — the paper's
/// setup ("randomly generate a relation graph…" per replication). For a fixed
/// instance across replications, give each replication its own spec instead.
///
/// Replications run on the standard parallel replication driver
/// ([`mod@crate::replicate`]); results are aggregated by replication index,
/// so the aggregate is identical to a serial run regardless of worker count.
///
/// # Errors
///
/// Any [`SpecError`] from validation, building, or a run.
pub fn replicate_spec(spec: &ScenarioSpec) -> Result<AveragedRun, SpecError> {
    // Validate up front: with an invalid replication count nothing below
    // would run and aggregation would see zero traces.
    spec.validate()?;
    // Build every replication first, so configuration problems — including
    // instance-dependent ones, like a family one replication's graph makes
    // unenumerable — surface as errors here rather than as worker panics.
    let built: Result<Vec<BuiltScenario>, SpecError> = (0..spec.replications)
        .map(|r| spec.build_replication(r as u64))
        .collect();
    let slots: Vec<Mutex<Option<BuiltScenario>>> =
        built?.into_iter().map(|b| Mutex::new(Some(b))).collect();
    // The runs themselves go through the standard (parallel, deterministic —
    // results are aggregated by replication index) replication driver. A
    // spec-built policy only proposes feasible strategies, so `run_built`
    // cannot fail past this point; the panic is a backstop.
    let config = ReplicationConfig::parallel(spec.replications, 0);
    Ok(replicate(&config, |r, _seed| {
        let mut scenario = slots[r]
            .lock()
            .expect("replication slot poisoned")
            .take()
            .expect("each replication index is dispatched exactly once");
        run_built(&mut scenario)
            .unwrap_or_else(|e| panic!("replication {r} of scenario {:?} failed: {e}", spec.name))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_single;
    use netband_core::DflSso;
    use netband_spec::{
        presets, ArmsSpec, FamilySpec, FeedbackSpec, GraphSpec, PolicySpec, WorkloadSpec,
        SPEC_VERSION,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn demo_spec(policy: PolicySpec, family: Option<FamilySpec>) -> ScenarioSpec {
        ScenarioSpec {
            version: SPEC_VERSION,
            name: "demo".into(),
            workload: WorkloadSpec {
                graph: GraphSpec::ErdosRenyi {
                    num_arms: 10,
                    edge_prob: 0.4,
                },
                arms: ArmsSpec::UniformMeanBernoulli { num_arms: 10 },
                family,
                drift: None,
                seed: 42,
            },
            policy,
            side_bonus: SideBonus::Observation,
            horizon: 200,
            replications: 3,
            seed: 7,
            feedback: FeedbackSpec::Immediate,
        }
    }

    #[test]
    fn run_spec_matches_the_hand_wired_runner_bit_for_bit() {
        let spec = demo_spec(PolicySpec::DflSso, None);
        let via_spec = run_spec(&spec).unwrap();

        // The hand-wired path: same instance seed, same run seed.
        let mut rng = StdRng::seed_from_u64(42);
        let graph = netband_graph::generators::erdos_renyi(10, 0.4, &mut rng);
        let arms = netband_env::ArmSet::random_bernoulli(10, &mut rng);
        let bandit = netband_env::NetworkedBandit::new(graph.clone(), arms).unwrap();
        let mut policy = DflSso::new(graph);
        let by_hand = run_single(
            &bandit,
            &mut policy,
            SingleScenario::SideObservation,
            200,
            7,
        );

        assert_eq!(via_spec, by_hand);
    }

    #[test]
    fn run_spec_drives_combinatorial_policies() {
        let spec = demo_spec(PolicySpec::DflCsr, Some(FamilySpec::AtMostM { m: 3 }));
        let mut spec = spec;
        spec.side_bonus = SideBonus::Reward;
        let result = run_spec(&spec).unwrap();
        assert_eq!(result.policy, "DFL-CSR");
        assert_eq!(result.trace.len(), 200);
        assert!(result.trace.pseudo().iter().all(|&r| r >= -1e-12));
    }

    #[test]
    fn replicate_spec_aggregates_independent_instances() {
        let spec = demo_spec(PolicySpec::DflSso, None);
        let avg = replicate_spec(&spec).unwrap();
        assert_eq!(avg.replications, 3);
        assert_eq!(avg.horizon, 200);
        assert_eq!(avg.policy, "DFL-SSO");
        // Replication r is exactly run_spec of the shifted spec.
        let mut shifted = spec.clone();
        shifted.workload.seed += 2;
        shifted.seed += 2;
        let third = run_spec(&shifted).unwrap();
        assert_eq!(avg.final_regrets[2], third.total_regret());
    }

    #[test]
    fn replicate_spec_runs_presets_at_reduced_scale() {
        let mut spec = presets::channel_access(12, 3, 0.35, 9);
        spec.horizon = 120;
        spec.replications = 2;
        let avg = replicate_spec(&spec).unwrap();
        assert_eq!(avg.replications, 2);
        assert_eq!(avg.policy, "DFL-CSR");
    }

    #[test]
    fn trivial_drift_takes_the_stationary_path_bit_for_bit() {
        let stationary = demo_spec(PolicySpec::DflSso, None);
        let mut trivial = stationary.clone();
        trivial.workload.drift = Some(netband_spec::DriftSpec::default());
        assert_eq!(run_spec(&stationary).unwrap(), run_spec(&trivial).unwrap());
    }

    #[test]
    fn drifting_specs_run_through_the_drifted_runners() {
        use netband_spec::{ChangePointSpec, DriftSpec, EstimatorSpec};
        let mut spec = demo_spec(
            PolicySpec::Cts {
                seed: 3,
                estimator: Some(EstimatorSpec::Discounted { gamma: 0.995 }),
            },
            Some(FamilySpec::AtMostM { m: 2 }),
        );
        spec.workload.drift = Some(DriftSpec {
            change_points: vec![ChangePointSpec {
                round: 100,
                rotation: 5,
            }],
            ..DriftSpec::default()
        });
        let result = run_spec(&spec).unwrap();
        assert_eq!(result.policy, "CTS-D");
        assert_eq!(result.trace.len(), 200);
        assert!(result.trace.pseudo().iter().all(|&r| r >= -1e-12));
    }

    #[test]
    fn invalid_specs_are_rejected_before_running() {
        let mut spec = demo_spec(PolicySpec::Cucb, None);
        // Combinatorial policy without a family.
        assert!(matches!(
            run_spec(&spec),
            Err(SpecError::MissingFamily { .. })
        ));
        spec.policy = PolicySpec::DflSso;
        spec.replications = 0;
        assert!(matches!(
            replicate_spec(&spec),
            Err(SpecError::Invalid { .. })
        ));
    }
}
