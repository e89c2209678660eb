//! Single-run simulation drivers for the four scenarios.
//!
//! A run drives one policy against one [`NetworkedBandit`] for `horizon` time
//! slots, charging regret according to the scenario's reward model:
//!
//! * [`SingleScenario::SideObservation`] (SSO) — the reward is the pulled arm's
//!   direct reward; the benchmark is `μ_1` (Equation 1).
//! * [`SingleScenario::SideReward`] (SSR) — the reward is the neighbourhood sum
//!   `B_{I_t,t}`; the benchmark is `u_1` (Equation 3).
//! * [`CombinatorialScenario::SideObservation`] (CSO) — the reward is the
//!   strategy's direct sum `R_{I_t,t}`; the benchmark is `λ_1` (Equation 2).
//! * [`CombinatorialScenario::SideReward`] (CSR) — the reward is the coverage
//!   sum `CB_{I_t,t}`; the benchmark is `σ_1` (Equation 4).

use rand::rngs::StdRng;
use rand::SeedableRng;

use netband_core::{CombinatorialPolicy, SinglePlayPolicy};
use netband_env::feasible::FeasibleSet;
use netband_env::{DriftSchedule, EnvError, NetworkedBandit, PullBuffer, StrategyFamily};

use crate::regret::RegretTrace;
use crate::step;

/// Reward model of a single-play run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SingleScenario {
    /// SSO: collect the direct reward, observe the neighbourhood.
    SideObservation,
    /// SSR: collect the whole neighbourhood's reward.
    SideReward,
}

/// Reward model of a combinatorial-play run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombinatorialScenario {
    /// CSO: collect the strategy's direct reward, observe `Y_x`.
    SideObservation,
    /// CSR: collect the reward of every arm in `Y_x`.
    SideReward,
}

/// The outcome of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Name of the policy that produced the run.
    pub policy: String,
    /// Number of time slots simulated.
    pub horizon: usize,
    /// The benchmark value (optimal expected per-round reward) regret was
    /// charged against.
    pub optimal_mean: f64,
    /// Total realised reward collected over the run.
    pub total_reward: f64,
    /// Per-round regret records.
    pub trace: RegretTrace,
}

impl RunResult {
    /// Final cumulative realised regret `R_n`.
    pub fn total_regret(&self) -> f64 {
        self.trace.total()
    }

    /// Final time-averaged realised regret `R_n / n`.
    pub fn average_regret(&self) -> f64 {
        self.trace.final_average()
    }
}

/// Runs a single-play policy for `horizon` slots.
///
/// The per-slot rewards are drawn from the environment with the RNG seeded by
/// `seed`, so a `(bandit, seed)` pair pins down the entire sample path — two
/// policies run with the same pair face exactly the same randomness *only if*
/// they pull arms in the same order (rewards are drawn per pull); for perfectly
/// coupled comparisons use [`run_single_coupled`].
pub fn run_single<P: SinglePlayPolicy + ?Sized>(
    bandit: &NetworkedBandit,
    policy: &mut P,
    scenario: SingleScenario,
    horizon: usize,
    seed: u64,
) -> RunResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let optimal = step::single_benchmark(bandit, scenario);
    let mut trace = RegretTrace::with_capacity(horizon);
    let mut total_reward = 0.0;
    // All per-round storage (sample vector, observation list) lives in `buf`;
    // after the first round the loop allocates nothing.
    let mut buf = PullBuffer::new();
    for t in 1..=horizon {
        let arm = policy.select_arm(t);
        let feedback = buf.pull_single(bandit, arm, &mut rng);
        let (reward, mean) = step::score_single(bandit, scenario, feedback);
        total_reward += reward;
        trace.record(optimal - reward, optimal - mean);
        policy.update(t, feedback);
    }
    RunResult {
        policy: policy.name().to_owned(),
        horizon,
        optimal_mean: optimal,
        total_reward,
        trace,
    }
}

/// Runs a single-play policy for `horizon` slots in a drifting world.
///
/// The arm means of slot `t` are `drift.means_at(base, t)` where `base` is
/// the bandit's stationary mean vector; rewards are Bernoulli draws from the
/// drifted means (one RNG draw per arm per slot). Regret is charged against
/// the *dynamic* oracle — the per-slot optimum under that slot's means — and
/// the reported `optimal_mean` is the horizon average of the per-slot optima.
///
/// Drift is a pure function of the slot number (it consumes no randomness),
/// so `(bandit, drift, seed)` pins the whole sample path bit for bit — the
/// property the serving engine's snapshot/restore equivalence relies on.
pub fn run_single_drifted<P: SinglePlayPolicy + ?Sized>(
    bandit: &NetworkedBandit,
    drift: &DriftSchedule,
    policy: &mut P,
    scenario: SingleScenario,
    horizon: usize,
    seed: u64,
) -> RunResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let base = bandit.means().to_vec();
    let mut means = vec![0.0; base.len()];
    let mut optimal_sum = 0.0;
    let mut trace = RegretTrace::with_capacity(horizon);
    let mut total_reward = 0.0;
    let mut buf = PullBuffer::new();
    for t in 1..=horizon {
        drift.means_at(&base, t as u64, &mut means);
        let optimal = step::single_benchmark_with(bandit, &means, scenario);
        optimal_sum += optimal;
        let arm = policy.select_arm(t);
        let feedback = buf.pull_single_drifted(bandit, &means, arm, &mut rng);
        let (reward, mean) = step::score_single_with(bandit, &means, scenario, feedback);
        total_reward += reward;
        trace.record(optimal - reward, optimal - mean);
        policy.update(t, feedback);
    }
    RunResult {
        policy: policy.name().to_owned(),
        horizon,
        optimal_mean: if horizon == 0 {
            0.0
        } else {
            optimal_sum / horizon as f64
        },
        total_reward,
        trace,
    }
}

/// Runs several single-play policies against the *same* sample path: at every
/// time slot one reward vector is drawn and each policy's pull is scored against
/// it. This is the coupling used for Fig. 3 (MOSS vs DFL-SSO), which removes
/// sampling noise from the comparison.
pub fn run_single_coupled(
    bandit: &NetworkedBandit,
    policies: &mut [&mut dyn SinglePlayPolicy],
    scenario: SingleScenario,
    horizon: usize,
    seed: u64,
) -> Vec<RunResult> {
    let mut rng = StdRng::seed_from_u64(seed);
    let optimal = step::single_benchmark(bandit, scenario);
    let mut traces: Vec<RegretTrace> = policies
        .iter()
        .map(|_| RegretTrace::with_capacity(horizon))
        .collect();
    let mut rewards = vec![0.0; policies.len()];
    // One reward vector per round, shared by every policy; feedback is built
    // into a reused buffer, so the loop is allocation-free after round one.
    let mut samples = Vec::with_capacity(bandit.num_arms());
    let mut buf = PullBuffer::new();
    for t in 1..=horizon {
        bandit.sample_rewards_into(&mut rng, &mut samples);
        for (idx, policy) in policies.iter_mut().enumerate() {
            let arm = policy.select_arm(t);
            let feedback = buf.single_from_samples(bandit, arm, &samples);
            let (reward, mean) = step::score_single(bandit, scenario, feedback);
            rewards[idx] += reward;
            traces[idx].record(optimal - reward, optimal - mean);
            policy.update(t, feedback);
        }
    }
    policies
        .iter()
        .zip(traces)
        .zip(rewards)
        .map(|((policy, trace), total_reward)| RunResult {
            policy: policy.name().to_owned(),
            horizon,
            optimal_mean: optimal,
            total_reward,
            trace,
        })
        .collect()
}

/// Runs a combinatorial policy for `horizon` slots.
///
/// # Errors
///
/// Returns an [`EnvError`] if the policy ever proposes an invalid strategy
/// (empty or referencing a non-existent arm).
pub fn run_combinatorial<P: CombinatorialPolicy + ?Sized>(
    bandit: &NetworkedBandit,
    family: &StrategyFamily,
    policy: &mut P,
    scenario: CombinatorialScenario,
    horizon: usize,
    seed: u64,
) -> Result<RunResult, EnvError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let optimal = step::combinatorial_benchmark(bandit, family, scenario);
    let mut trace = RegretTrace::with_capacity(horizon);
    let mut total_reward = 0.0;
    // Sample vector, observation set, observation list, and the selected
    // strategy all live in reused buffers; the loop is allocation-free after
    // round one.
    let mut buf = PullBuffer::new();
    let mut strategy = Vec::new();
    for t in 1..=horizon {
        policy.select_strategy_into(t, &mut strategy);
        debug_assert!(
            family.contains(&strategy, bandit.graph()),
            "policy {} proposed an infeasible strategy {strategy:?}",
            policy.name()
        );
        let feedback = buf.pull_strategy(bandit, &strategy, &mut rng)?;
        let (reward, mean) = step::score_combinatorial(bandit, scenario, feedback);
        total_reward += reward;
        trace.record(optimal - reward, optimal - mean);
        policy.update(t, feedback);
    }
    Ok(RunResult {
        policy: policy.name().to_owned(),
        horizon,
        optimal_mean: optimal,
        total_reward,
        trace,
    })
}

/// Runs a combinatorial policy for `horizon` slots in a drifting world; see
/// [`run_single_drifted`] for the drift and regret semantics.
///
/// # Errors
///
/// Returns an [`EnvError`] if the policy ever proposes an invalid strategy
/// (empty or referencing a non-existent arm).
pub fn run_combinatorial_drifted<P: CombinatorialPolicy + ?Sized>(
    bandit: &NetworkedBandit,
    family: &StrategyFamily,
    drift: &DriftSchedule,
    policy: &mut P,
    scenario: CombinatorialScenario,
    horizon: usize,
    seed: u64,
) -> Result<RunResult, EnvError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let base = bandit.means().to_vec();
    let mut means = vec![0.0; base.len()];
    let mut optimal_sum = 0.0;
    let mut trace = RegretTrace::with_capacity(horizon);
    let mut total_reward = 0.0;
    let mut buf = PullBuffer::new();
    let mut strategy = Vec::new();
    for t in 1..=horizon {
        drift.means_at(&base, t as u64, &mut means);
        let optimal = step::combinatorial_benchmark_with(bandit, family, &means, scenario);
        optimal_sum += optimal;
        policy.select_strategy_into(t, &mut strategy);
        debug_assert!(
            family.contains(&strategy, bandit.graph()),
            "policy {} proposed an infeasible strategy {strategy:?}",
            policy.name()
        );
        let feedback = buf.pull_strategy_drifted(bandit, &means, &strategy, &mut rng)?;
        let (reward, mean) = step::score_combinatorial_with(&means, scenario, feedback);
        total_reward += reward;
        trace.record(optimal - reward, optimal - mean);
        policy.update(t, feedback);
    }
    Ok(RunResult {
        policy: policy.name().to_owned(),
        horizon,
        optimal_mean: if horizon == 0 {
            0.0
        } else {
            optimal_sum / horizon as f64
        },
        total_reward,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netband_baselines::Moss;
    use netband_core::{DflCso, DflCsr, DflSso, DflSsr};
    use netband_env::ArmSet;
    use netband_graph::generators;

    fn bandit(k: usize, p: f64, seed: u64) -> NetworkedBandit {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = generators::erdos_renyi(k, p, &mut rng);
        let arms = ArmSet::random_bernoulli(k, &mut rng);
        NetworkedBandit::new(graph, arms).unwrap()
    }

    #[test]
    fn sso_run_produces_full_trace_and_positive_reward() {
        let env = bandit(10, 0.3, 1);
        let mut policy = DflSso::new(env.graph().clone());
        let result = run_single(&env, &mut policy, SingleScenario::SideObservation, 500, 2);
        assert_eq!(result.horizon, 500);
        assert_eq!(result.trace.len(), 500);
        assert!(result.total_reward > 0.0);
        assert_eq!(result.policy, "DFL-SSO");
        assert!((result.optimal_mean - env.best_single_direct_mean()).abs() < 1e-12);
        // Pseudo-regret is always non-negative for the matching benchmark.
        assert!(result.trace.pseudo().iter().all(|&r| r >= -1e-12));
    }

    #[test]
    fn ssr_run_uses_the_side_reward_benchmark() {
        let env = bandit(10, 0.4, 3);
        let mut policy = DflSsr::new(env.graph().clone());
        let result = run_single(&env, &mut policy, SingleScenario::SideReward, 300, 4);
        assert!((result.optimal_mean - env.best_single_side_mean()).abs() < 1e-12);
        assert!(result.trace.pseudo().iter().all(|&r| r >= -1e-12));
    }

    #[test]
    fn coupled_run_gives_every_policy_the_same_sample_path() {
        let env = bandit(8, 0.5, 5);
        let mut moss_a = Moss::new(8);
        let mut moss_b = Moss::new(8);
        let results = run_single_coupled(
            &env,
            &mut [&mut moss_a, &mut moss_b],
            SingleScenario::SideObservation,
            200,
            6,
        );
        assert_eq!(results.len(), 2);
        // Identical policies on an identical sample path behave identically.
        assert_eq!(results[0].trace, results[1].trace);
        assert_eq!(results[0].total_reward, results[1].total_reward);
    }

    #[test]
    fn dfl_sso_beats_moss_on_a_dense_graph() {
        // The Fig. 3 comparison in miniature: strong side observation should give
        // DFL-SSO a lower cumulative regret than MOSS on the same sample path.
        let mut rng = StdRng::seed_from_u64(7);
        let graph = generators::erdos_renyi(30, 0.5, &mut rng);
        let arms = ArmSet::random_bernoulli(30, &mut rng);
        let env = NetworkedBandit::new(graph.clone(), arms).unwrap();
        let mut dfl = DflSso::new(graph);
        let mut moss = Moss::new(30);
        let results = run_single_coupled(
            &env,
            &mut [&mut dfl, &mut moss],
            SingleScenario::SideObservation,
            3000,
            8,
        );
        let dfl_regret = results[0].trace.total_pseudo();
        let moss_regret = results[1].trace.total_pseudo();
        assert!(
            dfl_regret < moss_regret,
            "DFL-SSO pseudo-regret {dfl_regret} should be below MOSS {moss_regret}"
        );
    }

    #[test]
    fn cso_run_with_explicit_family() {
        let mut rng = StdRng::seed_from_u64(9);
        let graph = generators::erdos_renyi(8, 0.4, &mut rng);
        let family = StrategyFamily::independent_sets(2);
        let strategies = family.enumerate(&graph).unwrap();
        let arms = ArmSet::random_bernoulli(8, &mut rng);
        let env = NetworkedBandit::new(graph.clone(), arms).unwrap();
        let mut policy = DflCso::from_strategies(&graph, strategies);
        let result = run_combinatorial(
            &env,
            &family,
            &mut policy,
            CombinatorialScenario::SideObservation,
            400,
            10,
        )
        .unwrap();
        assert_eq!(result.trace.len(), 400);
        assert!(result.trace.pseudo().iter().all(|&r| r >= -1e-12));
    }

    #[test]
    fn csr_run_uses_the_coverage_benchmark() {
        let mut rng = StdRng::seed_from_u64(11);
        let graph = generators::erdos_renyi(10, 0.3, &mut rng);
        let family = StrategyFamily::at_most_m(10, 3);
        let arms = ArmSet::random_bernoulli(10, &mut rng);
        let env = NetworkedBandit::new(graph.clone(), arms).unwrap();
        let mut policy = DflCsr::new(graph, family.clone());
        let result = run_combinatorial(
            &env,
            &family,
            &mut policy,
            CombinatorialScenario::SideReward,
            400,
            12,
        )
        .unwrap();
        assert!((result.optimal_mean - env.best_strategy_side_mean(&family)).abs() < 1e-12);
        assert!(result.trace.pseudo().iter().all(|&r| r >= -1e-12));
    }

    #[test]
    fn zero_horizon_runs_are_empty_but_valid() {
        let env = bandit(5, 0.3, 13);
        let mut policy = DflSso::new(env.graph().clone());
        let result = run_single(&env, &mut policy, SingleScenario::SideObservation, 0, 14);
        assert_eq!(result.trace.len(), 0);
        assert_eq!(result.total_regret(), 0.0);
        assert_eq!(result.average_regret(), 0.0);
    }

    #[test]
    fn drifted_run_charges_regret_against_the_dynamic_oracle() {
        use netband_env::{ChangePoint, DriftSchedule};
        let env = bandit(6, 0.4, 21);
        let drift = DriftSchedule {
            change_points: vec![ChangePoint {
                round: 100,
                rotation: 3,
            }],
            ..DriftSchedule::default()
        };
        let mut policy = DflSso::new(env.graph().clone());
        let result = run_single_drifted(
            &env,
            &drift,
            &mut policy,
            SingleScenario::SideObservation,
            200,
            22,
        );
        assert_eq!(result.trace.len(), 200);
        // The dynamic oracle dominates every played arm round by round.
        assert!(result.trace.pseudo().iter().all(|&r| r >= -1e-12));
        // The reported benchmark is the average per-round optimum, which for a
        // pure rotation equals the stationary optimum (the mean set is only
        // permuted, never changed).
        assert!((result.optimal_mean - env.best_single_direct_mean()).abs() < 1e-12);
    }

    #[test]
    fn drifted_runs_are_deterministic_under_the_same_seed() {
        use netband_env::{DriftSchedule, GradualDrift};
        let env = bandit(6, 0.4, 23);
        let drift = DriftSchedule {
            gradual: Some(GradualDrift {
                amplitude: 0.2,
                period: 50,
            }),
            ..DriftSchedule::default()
        };
        let family = StrategyFamily::at_most_m(6, 2);
        let mut p1 = DflCsr::new(env.graph().clone(), family.clone());
        let mut p2 = DflCsr::new(env.graph().clone(), family.clone());
        let r1 = run_combinatorial_drifted(
            &env,
            &family,
            &drift,
            &mut p1,
            CombinatorialScenario::SideReward,
            150,
            24,
        )
        .unwrap();
        let r2 = run_combinatorial_drifted(
            &env,
            &family,
            &drift,
            &mut p2,
            CombinatorialScenario::SideReward,
            150,
            24,
        )
        .unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn runs_are_deterministic_under_the_same_seed() {
        let env = bandit(6, 0.5, 15);
        let mut p1 = DflSso::new(env.graph().clone());
        let mut p2 = DflSso::new(env.graph().clone());
        let r1 = run_single(&env, &mut p1, SingleScenario::SideObservation, 200, 16);
        let r2 = run_single(&env, &mut p2, SingleScenario::SideObservation, 200, 16);
        assert_eq!(r1, r2);
    }
}
