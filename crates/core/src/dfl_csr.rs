//! DFL-CSR — Distribution-Free Learning for Combinatorial-play with Side Reward
//! (Algorithm 4 of the paper).
//!
//! The reward of a strategy `s_x` is the sum of the rewards of *all* arms in its
//! observation set `Y_x = ∪_{i ∈ s_x} N_i`. Learning per com-arm would blow up
//! with `|F|`, so Algorithm 4 learns the direct reward of the individual arms
//! and, at each time slot, hands the per-arm indices
//!
//! ```text
//! w_i(t) = X̄_i + sqrt( max(ln(t^{2/3} / (K · O_i)), 0) / O_i )
//! ```
//!
//! to a combinatorial oracle that returns the feasible strategy maximising
//! `Σ_{i ∈ Y_x} w_i(t)` (Equation 47). The paper assumes this per-round
//! optimisation can be solved optimally; we use the oracles of
//! [`netband_env::feasible`], which are exact on enumerable families and greedy
//! (max-coverage) otherwise.

use netband_env::feasible::FeasibleSet;
use netband_env::{CombinatorialFeedback, StrategyFamily};
use netband_graph::{RelationGraph, StrategyBank};

use crate::estimator::{csr_index, ArmEstimators};
use crate::kernels;
use crate::policy::CombinatorialPolicy;
use crate::state::{PolicyState, PolicyStateError, PolicyStateReader};
use crate::ArmId;

/// The enumerated feasible set as two aligned [`StrategyBank`] tables, so the
/// per-round oracle is a linear scan over contiguous arrays: row `x` of
/// `strategies` is the strategy `s_x`, row `x` of `observation_sets` its
/// observation set `Y_x` (both sorted, preserving the enumeration order and
/// hence the floating-point summation order of the layouts it replaces).
#[derive(Debug, Clone)]
struct EnumeratedFamily {
    strategies: StrategyBank,
    observation_sets: StrategyBank,
}

impl EnumeratedFamily {
    fn build(graph: &RelationGraph, strategies: StrategyBank) -> Self {
        let mut observation_sets = StrategyBank::with_capacity(strategies.len(), 0);
        for s in strategies.iter() {
            observation_sets.push_row(&graph.closed_neighborhood_of_set(s));
        }
        EnumeratedFamily {
            strategies,
            observation_sets,
        }
    }

    fn strategy(&self, x: usize) -> &[ArmId] {
        self.strategies.row(x)
    }
}

/// The DFL-CSR policy (Algorithm 4).
#[derive(Debug, Clone)]
pub struct DflCsr {
    graph: RelationGraph,
    family: StrategyFamily,
    /// Flat per-arm observation counts and means, keyed by dense arm id.
    estimates: ArmEstimators,
    /// Flattened enumeration of `(strategy, Y_x)` pairs when the family is
    /// small enough to enumerate; lets the per-round oracle avoid recomputing
    /// the observation sets at every time slot.
    enumerated: Option<EnumeratedFamily>,
    /// Per-round index vector `w_i(t)`, reused across rounds.
    weights_scratch: Vec<f64>,
}

impl DflCsr {
    /// Creates the policy for the given relation graph and feasible family.
    pub fn new(graph: RelationGraph, family: StrategyFamily) -> Self {
        let k = graph.num_vertices();
        let enumerated = family
            .enumerate(&graph)
            .map(|strategies| EnumeratedFamily::build(&graph, strategies));
        DflCsr {
            graph,
            family,
            estimates: ArmEstimators::new(k),
            enumerated,
            weights_scratch: vec![0.0; k],
        }
    }

    /// Number of arms `K`.
    pub fn num_arms(&self) -> usize {
        self.estimates.len()
    }

    /// The relation graph this policy was built for.
    pub fn graph(&self) -> &RelationGraph {
        &self.graph
    }

    /// The feasible strategy family the per-round oracle optimises over.
    pub fn family(&self) -> &StrategyFamily {
        &self.family
    }

    /// Observation count `O_i` of an arm.
    ///
    /// # Panics
    ///
    /// Panics if `arm` is out of range.
    pub fn observation_count(&self, arm: ArmId) -> u64 {
        self.estimates.count(arm)
    }

    /// Empirical mean `X̄_i` of an arm.
    ///
    /// # Panics
    ///
    /// Panics if `arm` is out of range.
    pub fn empirical_mean(&self, arm: ArmId) -> f64 {
        self.estimates.mean(arm)
    }

    /// The per-arm index `w_i(t)` of Equation (47).
    ///
    /// # Panics
    ///
    /// Panics if `arm` is out of range.
    pub fn arm_index(&self, arm: ArmId, t: usize) -> f64 {
        csr_index(
            self.estimates.mean(arm),
            self.estimates.count(arm),
            t,
            self.num_arms(),
        )
    }

    /// The full per-arm index vector at time `t`.
    pub fn index_vector(&self, t: usize) -> Vec<f64> {
        (0..self.num_arms()).map(|i| self.arm_index(i, t)).collect()
    }
}

impl CombinatorialPolicy for DflCsr {
    fn name(&self) -> &'static str {
        "DFL-CSR"
    }

    fn select_strategy(&mut self, t: usize) -> Vec<ArmId> {
        let mut out = Vec::new();
        self.select_strategy_into(t, &mut out);
        out
    }

    fn select_strategy_into(&mut self, t: usize, out: &mut Vec<ArmId>) {
        // Per-arm score table `w_i(t)`, computed once per decide by the
        // chunked kernel (the `t^{2/3}` power and zero-count sentinel are
        // hoisted out of the sweep; values are bit-identical to `arm_index`).
        kernels::csr_scores_into(
            self.estimates.means(),
            self.estimates.counts(),
            t,
            self.num_arms(),
            &mut self.weights_scratch,
        );
        out.clear();
        if let Some(enumerated) = &self.enumerated {
            // Fast path: the feasible set was enumerated at construction, so
            // the per-round optimisation is one contiguous scan of the
            // flattened Y_x rows over the score table; `argmax_row_sums`
            // keeps the row-order summation and last-max tie-breaking of the
            // comparator-based scan it replaces.
            if let Some(x) = enumerated
                .observation_sets
                .argmax_row_sums(&self.weights_scratch)
            {
                out.extend_from_slice(enumerated.strategy(x));
                return;
            }
        }
        // Fallback for non-enumerable families: the oracle allocates its
        // answer, so hand the vector over instead of copying it into the warm
        // buffer (the allocation is unavoidable here, the memcpy is not).
        *out = self
            .family
            .argmax_by_neighborhood_weights(&self.weights_scratch, &self.graph)
            .expect("DFL-CSR requires a non-empty feasible strategy family");
    }

    fn update(&mut self, _t: usize, feedback: &CombinatorialFeedback) {
        for &(arm, reward) in &feedback.observations {
            if arm < self.estimates.len() {
                self.estimates.update(arm, reward);
            }
        }
    }

    fn reset(&mut self) {
        self.estimates.reset();
    }

    fn arm_estimators(&self) -> Option<&ArmEstimators> {
        Some(&self.estimates)
    }

    // Durable state is the per-arm estimates; the enumerated fast path and the
    // weights scratch are derived from structure.
    fn save_state(&self) -> Option<PolicyState> {
        let mut state = PolicyState::new();
        self.estimates.save_state(&mut state);
        Some(state)
    }

    fn load_state(&mut self, state: &PolicyState) -> Result<(), PolicyStateError> {
        let mut reader = PolicyStateReader::new(self.name(), state);
        self.estimates.load_state(&mut reader)?;
        reader.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netband_env::{ArmSet, NetworkedBandit};
    use netband_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run(policy: &mut DflCsr, bandit: &NetworkedBandit, n: usize, seed: u64) -> Vec<Vec<ArmId>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pulls = Vec::with_capacity(n);
        for t in 1..=n {
            let s = policy.select_strategy(t);
            let fb = bandit.pull_strategy(&s, &mut rng).unwrap();
            policy.update(t, &fb);
            pulls.push(s);
        }
        pulls
    }

    #[test]
    fn selected_strategies_are_always_feasible() {
        let mut rng = StdRng::seed_from_u64(1);
        let graph = generators::erdos_renyi(8, 0.3, &mut rng);
        let family = StrategyFamily::at_most_m(8, 3);
        let arms = ArmSet::random_bernoulli(8, &mut rng);
        let bandit = NetworkedBandit::new(graph.clone(), arms).unwrap();
        let mut policy = DflCsr::new(graph.clone(), family.clone());
        for s in run(&mut policy, &bandit, 200, 2) {
            assert!(family.contains(&s, &graph), "infeasible strategy {s:?}");
        }
    }

    #[test]
    fn updates_every_observed_arm() {
        let graph = generators::star(5);
        let family = StrategyFamily::at_most_m(5, 1);
        let bandit = NetworkedBandit::new(graph.clone(), ArmSet::linear_bernoulli(5)).unwrap();
        let mut policy = DflCsr::new(graph, family);
        let mut rng = StdRng::seed_from_u64(3);
        let fb = bandit.pull_strategy(&[0], &mut rng).unwrap();
        policy.update(1, &fb);
        for arm in 0..5 {
            assert_eq!(policy.observation_count(arm), 1);
        }
    }

    #[test]
    fn converges_to_the_best_coverage_strategy() {
        // Path of 6 arms, strategies of at most 2 arms. Means make the
        // middle-heavy coverage optimal; check that the policy's tail choices
        // attain (close to) the optimal expected side reward.
        let graph = generators::path(6);
        let arms = ArmSet::bernoulli(&[0.3, 0.8, 0.3, 0.3, 0.8, 0.3]);
        let family = StrategyFamily::at_most_m(6, 2);
        let bandit = NetworkedBandit::new(graph.clone(), arms).unwrap();
        let optimal = bandit.best_strategy_side_mean(&family, bandit.means());
        let mut policy = DflCsr::new(graph, family);
        let pulls = run(&mut policy, &bandit, 5000, 7);
        let tail_mean: f64 = pulls[4000..]
            .iter()
            .map(|s| bandit.strategy_side_mean(s, bandit.means()))
            .sum::<f64>()
            / 1000.0;
        assert!(
            optimal - tail_mean < 0.15,
            "tail expected side reward {tail_mean} vs optimal {optimal}"
        );
    }

    #[test]
    fn unobserved_arms_are_prioritised_by_the_index() {
        let graph = generators::edgeless(4);
        let family = StrategyFamily::at_most_m(4, 1);
        let mut policy = DflCsr::new(graph.clone(), family);
        let bandit = NetworkedBandit::new(graph, ArmSet::bernoulli(&[0.9, 0.1, 0.1, 0.1])).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        // After the first pull, the three unobserved arms must be visited before
        // any arm is repeated (their index dominates any observed index).
        let mut seen = std::collections::BTreeSet::new();
        for t in 1..=4 {
            let s = policy.select_strategy(t);
            seen.insert(s[0]);
            let fb = bandit.pull_strategy(&s, &mut rng).unwrap();
            policy.update(t, &fb);
        }
        assert_eq!(seen.len(), 4, "first 4 pulls should cover all arms");
    }

    #[test]
    fn works_with_independent_set_constraints() {
        let graph = generators::path(5);
        let family = StrategyFamily::independent_sets(2);
        let arms = ArmSet::bernoulli(&[0.5, 0.6, 0.7, 0.6, 0.5]);
        let bandit = NetworkedBandit::new(graph.clone(), arms).unwrap();
        let mut policy = DflCsr::new(graph.clone(), family.clone());
        for s in run(&mut policy, &bandit, 100, 8) {
            assert!(graph.is_independent_set(&s), "not independent: {s:?}");
            assert!(s.len() <= 2);
        }
    }

    #[test]
    fn reset_restores_initial_state() {
        let graph = generators::complete(4);
        let family = StrategyFamily::at_most_m(4, 2);
        let bandit = NetworkedBandit::new(graph.clone(), ArmSet::linear_bernoulli(4)).unwrap();
        let mut policy = DflCsr::new(graph, family);
        run(&mut policy, &bandit, 20, 9);
        policy.reset();
        for arm in 0..4 {
            assert_eq!(policy.observation_count(arm), 0);
            assert_eq!(policy.empirical_mean(arm), 0.0);
        }
    }

    #[test]
    fn name_and_accessors() {
        let graph = generators::path(3);
        let family = StrategyFamily::at_most_m(3, 2);
        let policy = DflCsr::new(graph.clone(), family.clone());
        assert_eq!(policy.name(), "DFL-CSR");
        assert_eq!(policy.num_arms(), 3);
        assert_eq!(policy.graph(), &graph);
        assert_eq!(policy.family(), &family);
        assert_eq!(policy.index_vector(1).len(), 3);
    }
}
