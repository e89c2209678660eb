//! End-to-end integration tests: every scenario of the paper run through the
//! public facade API, from graph generation to regret accounting.

use netband::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn workload(k: usize, p: f64, seed: u64) -> NetworkedBandit {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = generators::erdos_renyi(k, p, &mut rng);
    let arms = ArmSet::random_bernoulli(k, &mut rng);
    NetworkedBandit::new(graph, arms).expect("sizes match by construction")
}

fn trend_down(curve: &[f64]) -> bool {
    let quarter = curve.len() / 4;
    let early: f64 = curve[quarter..2 * quarter].iter().sum::<f64>() / quarter as f64;
    let late: f64 = curve[curve.len() - quarter..].iter().sum::<f64>() / quarter as f64;
    late <= early
}

#[test]
fn sso_scenario_end_to_end() {
    let bandit = workload(30, 0.3, 1);
    let mut policy = DflSso::new(bandit.graph().clone());
    let result = run_single(
        &bandit,
        &mut policy,
        SingleScenario::SideObservation,
        3_000,
        2,
    );
    assert_eq!(result.trace.len(), 3_000);
    assert!(
        result.average_regret() < 0.3,
        "R_n/n = {}",
        result.average_regret()
    );
    assert!(trend_down(&result.trace.time_averaged_pseudo()));
}

#[test]
fn ssr_scenario_end_to_end() {
    let bandit = workload(30, 0.3, 3);
    let mut policy = DflSsr::new(bandit.graph().clone());
    let result = run_single(&bandit, &mut policy, SingleScenario::SideReward, 3_000, 4);
    // Regret is measured on the [0, K]-scaled side reward, so compare against the
    // optimal value rather than an absolute constant.
    assert!(result.average_regret() < 0.3 * bandit.best_single_side_mean(bandit.means()));
    assert!(trend_down(&result.trace.time_averaged_pseudo()));
}

#[test]
fn cso_scenario_end_to_end() {
    let bandit = workload(12, 0.4, 5);
    let family = StrategyFamily::independent_sets(2);
    let strategies = family
        .enumerate(bandit.graph())
        .expect("small instance is enumerable");
    let mut policy = DflCso::from_strategies(bandit.graph(), strategies);
    let result = run_combinatorial(
        &bandit,
        &family,
        &mut policy,
        CombinatorialScenario::SideObservation,
        3_000,
        6,
    )
    .expect("feasible strategies only");
    assert!(trend_down(&result.trace.time_averaged_pseudo()));
    assert!(
        result.average_regret() < 0.4 * bandit.best_strategy_direct_mean(&family, bandit.means())
    );
}

#[test]
fn csr_scenario_end_to_end() {
    let bandit = workload(15, 0.3, 7);
    let family = StrategyFamily::at_most_m(15, 3);
    let mut policy = DflCsr::new(bandit.graph().clone(), family.clone());
    let result = run_combinatorial(
        &bandit,
        &family,
        &mut policy,
        CombinatorialScenario::SideReward,
        3_000,
        8,
    )
    .expect("feasible strategies only");
    assert!(trend_down(&result.trace.time_averaged_pseudo()));
    assert!(
        result.average_regret() < 0.4 * bandit.best_strategy_side_mean(&family, bandit.means())
    );
}

#[test]
fn dfl_sso_dominates_moss_with_side_observation() {
    // The headline Fig. 3 comparison through the public API.
    let bandit = workload(50, 0.4, 9);
    let mut dfl = DflSso::new(bandit.graph().clone());
    let mut moss = Moss::new(50);
    let results = run_single_coupled(
        &bandit,
        &mut [&mut dfl, &mut moss],
        SingleScenario::SideObservation,
        4_000,
        10,
    );
    assert!(results[0].trace.total_pseudo() < results[1].trace.total_pseudo());
}

#[test]
fn measured_regret_respects_the_theorem_bounds() {
    let bandit = workload(40, 0.3, 11);
    let cover = greedy_clique_cover(bandit.graph()).len();
    let horizon = 2_000;

    let mut sso = DflSso::new(bandit.graph().clone());
    let sso_run = run_single(
        &bandit,
        &mut sso,
        SingleScenario::SideObservation,
        horizon,
        12,
    );
    assert!(sso_run.total_regret() < bounds::theorem1_dfl_sso(horizon, 40, cover));

    let mut ssr = DflSsr::new(bandit.graph().clone());
    let ssr_run = run_single(&bandit, &mut ssr, SingleScenario::SideReward, horizon, 13);
    assert!(ssr_run.total_regret() < bounds::theorem3_dfl_ssr(horizon, 40));
}

#[test]
fn replication_through_the_facade_is_deterministic() {
    let bandit = workload(20, 0.3, 14);
    let graph = bandit.graph().clone();
    let config = ReplicationConfig::serial(4, 99);
    let run_once = |_, seed: u64| {
        let mut policy = DflSso::new(graph.clone());
        run_single(
            &bandit,
            &mut policy,
            SingleScenario::SideObservation,
            500,
            seed,
        )
    };
    let a = replicate(&config, run_once);
    let b = replicate(&config, run_once);
    assert_eq!(a, b);
    assert_eq!(a.replications, 4);
    assert_eq!(a.expected_regret.len(), 500);
}

#[test]
fn degenerate_instances_do_not_break_the_pipeline() {
    // Single arm, no edges.
    let graph = generators::edgeless(1);
    let bandit = NetworkedBandit::new(graph.clone(), ArmSet::bernoulli(&[0.5])).unwrap();
    let mut policy = DflSso::new(graph);
    let result = run_single(&bandit, &mut policy, SingleScenario::SideObservation, 50, 1);
    // With a single arm the policy always plays optimally in expectation.
    assert!(result.trace.total_pseudo().abs() < 1e-9);

    // Horizon zero.
    let bandit2 = workload(5, 0.5, 15);
    let mut policy2 = DflSsr::new(bandit2.graph().clone());
    let result2 = run_single(&bandit2, &mut policy2, SingleScenario::SideReward, 0, 2);
    assert_eq!(result2.trace.len(), 0);
}

#[test]
fn workspace_smoke_all_four_dfl_policies() {
    // The tier-1 workspace smoke: every DFL policy runs a short horizon on the
    // same seeded Erdős–Rényi instance and produces finite regret whose
    // running average trends down.
    let bandit = workload(12, 0.35, 21);
    let family = StrategyFamily::independent_sets(2);
    let horizon = 800;
    let mut curves: Vec<(&str, Vec<f64>)> = Vec::new();

    let mut sso = DflSso::new(bandit.graph().clone());
    let r = run_single(
        &bandit,
        &mut sso,
        SingleScenario::SideObservation,
        horizon,
        22,
    );
    curves.push(("DFL-SSO", r.trace.time_averaged_pseudo()));

    let mut ssr = DflSsr::new(bandit.graph().clone());
    let r = run_single(&bandit, &mut ssr, SingleScenario::SideReward, horizon, 23);
    curves.push(("DFL-SSR", r.trace.time_averaged_pseudo()));

    let strategies = family
        .enumerate(bandit.graph())
        .expect("small instance is enumerable");
    let mut cso = DflCso::from_strategies(bandit.graph(), strategies);
    let r = run_combinatorial(
        &bandit,
        &family,
        &mut cso,
        CombinatorialScenario::SideObservation,
        horizon,
        24,
    )
    .expect("feasible strategies only");
    curves.push(("DFL-CSO", r.trace.time_averaged_pseudo()));

    let mut csr = DflCsr::new(bandit.graph().clone(), family.clone());
    let r = run_combinatorial(
        &bandit,
        &family,
        &mut csr,
        CombinatorialScenario::SideReward,
        horizon,
        25,
    )
    .expect("feasible strategies only");
    curves.push(("DFL-CSR", r.trace.time_averaged_pseudo()));

    for (name, curve) in curves {
        assert_eq!(curve.len(), horizon, "{name} trace length");
        assert!(
            curve.iter().all(|v| v.is_finite()),
            "{name} produced non-finite regret"
        );
        assert!(
            trend_down(&curve),
            "{name} average regret did not trend down"
        );
    }
}

#[test]
fn all_four_policies_expose_their_names_through_the_traits() {
    let graph = generators::path(4);
    let family = StrategyFamily::at_most_m(4, 2);
    let strategies = family.enumerate(&graph).unwrap();
    let sso: Box<dyn SinglePlayPolicy> = Box::new(DflSso::new(graph.clone()));
    let ssr: Box<dyn SinglePlayPolicy> = Box::new(DflSsr::new(graph.clone()));
    let cso: Box<dyn CombinatorialPolicy> = Box::new(DflCso::from_strategies(&graph, strategies));
    let csr: Box<dyn CombinatorialPolicy> = Box::new(DflCsr::new(graph, family));
    assert_eq!(sso.name(), "DFL-SSO");
    assert_eq!(ssr.name(), "DFL-SSR");
    assert_eq!(cso.name(), "DFL-CSO");
    assert_eq!(csr.name(), "DFL-CSR");
}
