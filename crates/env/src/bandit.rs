//! The networked bandit environment and its feedback models.
//!
//! A [`NetworkedBandit`] couples an [`ArmSet`] with a [`RelationGraph`] and
//! produces the feedback defined in Section II of the paper:
//!
//! * **single play, side observation (SSO)** — pulling `i` returns the direct
//!   reward `X_{i,t}` and reveals `X_{j,t}` for every `j ∈ N_i`;
//! * **single play, side reward (SSR)** — pulling `i` additionally *collects*
//!   `B_{i,t} = Σ_{j ∈ N_i} X_{j,t}`;
//! * **combinatorial play, side observation (CSO)** — pulling a strategy `s_x`
//!   collects `R_{x,t} = Σ_{i ∈ s_x} X_{i,t}` and reveals `X_{j,t}` for
//!   `j ∈ Y_x = ∪_{i ∈ s_x} N_i`;
//! * **combinatorial play, side reward (CSR)** — pulling `s_x` collects
//!   `CB_{x,t} = Σ_{i ∈ Y_x} X_{i,t}`.
//!
//! Both feedback structs carry all of those quantities, so the same pull can be
//! scored under either reward model; which one a policy *optimises* and which
//! one the simulator *charges regret for* is decided by the caller.

use std::fmt;
use std::sync::OnceLock;

use netband_graph::{CsrGraph, RelationGraph};

use crate::arms::ArmSet;
use crate::feasible::{FeasibleSet, StrategyFamily};
use crate::ArmId;

/// Errors produced when constructing or querying an environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvError {
    /// The relation graph and the arm set disagree on the number of arms.
    SizeMismatch {
        /// Vertices of the relation graph.
        graph_vertices: usize,
        /// Arms in the arm set.
        num_arms: usize,
    },
    /// An arm index was out of range.
    ArmOutOfRange {
        /// The offending index.
        arm: ArmId,
        /// The number of arms.
        num_arms: usize,
    },
    /// A strategy was empty or contained an out-of-range arm.
    InvalidStrategy {
        /// Human-readable reason.
        reason: String,
    },
    /// A single-play workload was asked for its combinatorial strategy family
    /// (see [`crate::workloads::Workload::try_family`]).
    NoStrategyFamily {
        /// Name of the workload.
        workload: String,
    },
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvError::SizeMismatch {
                graph_vertices,
                num_arms,
            } => write!(
                f,
                "relation graph has {graph_vertices} vertices but the arm set has {num_arms} arms"
            ),
            EnvError::ArmOutOfRange { arm, num_arms } => {
                write!(f, "arm {arm} is out of range for {num_arms} arms")
            }
            EnvError::InvalidStrategy { reason } => write!(f, "invalid strategy: {reason}"),
            EnvError::NoStrategyFamily { workload } => {
                write!(
                    f,
                    "workload {workload:?} is single-play and has no strategy family"
                )
            }
        }
    }
}

impl std::error::Error for EnvError {}

/// Feedback from pulling a single arm.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SinglePlayFeedback {
    /// The pulled arm `I_t`.
    pub arm: ArmId,
    /// Direct reward `X_{I_t, t}` (the SSO reward).
    pub direct_reward: f64,
    /// Side reward `B_{I_t, t} = Σ_{j ∈ N_{I_t}} X_{j, t}` (the SSR reward).
    pub side_reward: f64,
    /// Every revealed sample: `(j, X_{j,t})` for `j ∈ N_{I_t}` (sorted by arm).
    pub observations: Vec<(ArmId, f64)>,
}

impl SinglePlayFeedback {
    /// Overwrites `self` with `src`'s contents, reusing the observation
    /// buffer — the allocation-free form of `*self = src.clone()` (identical
    /// resulting value) for warm reply slots.
    pub fn copy_from(&mut self, src: &SinglePlayFeedback) {
        self.arm = src.arm;
        self.direct_reward = src.direct_reward;
        self.side_reward = src.side_reward;
        self.observations.clear();
        self.observations.extend_from_slice(&src.observations);
    }
}

/// Feedback from pulling a combinatorial strategy.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CombinatorialFeedback {
    /// The pulled strategy `s_{I_t}` (sorted component arms).
    pub strategy: Vec<ArmId>,
    /// The observation set `Y_{I_t}` (sorted).
    pub observation_set: Vec<ArmId>,
    /// Direct reward `R_{I_t,t} = Σ_{i ∈ s} X_{i,t}` (the CSO reward).
    pub direct_reward: f64,
    /// Side reward `CB_{I_t,t} = Σ_{i ∈ Y} X_{i,t}` (the CSR reward).
    pub side_reward: f64,
    /// Every revealed sample: `(j, X_{j,t})` for `j ∈ Y_{I_t}` (sorted by arm).
    pub observations: Vec<(ArmId, f64)>,
}

impl CombinatorialFeedback {
    /// Overwrites `self` with `src`'s contents, reusing every inner buffer —
    /// the allocation-free form of `*self = src.clone()` (identical resulting
    /// value) for warm reply slots.
    pub fn copy_from(&mut self, src: &CombinatorialFeedback) {
        self.strategy.clear();
        self.strategy.extend_from_slice(&src.strategy);
        self.observation_set.clear();
        self.observation_set.extend_from_slice(&src.observation_set);
        self.direct_reward = src.direct_reward;
        self.side_reward = src.side_reward;
        self.observations.clear();
        self.observations.extend_from_slice(&src.observations);
    }
}

/// A networked stochastic bandit instance: `K` arms, their distributions, and
/// the relation graph over them.
#[derive(Debug, Clone)]
pub struct NetworkedBandit {
    graph: RelationGraph,
    /// Flat (CSR) snapshot of the graph; every feedback construction reads its
    /// packed closed-neighbourhood rows instead of allocating neighbourhood
    /// vectors. Derived state: never persisted (the persisted form is
    /// `{graph, arms, means}`) so a stored instance can never carry a
    /// snapshot that disagrees with its graph. An empty cell is rebuilt
    /// lazily on first access, so an instance assembled without it is usable
    /// without any manual refresh call.
    csr: OnceLock<CsrGraph>,
    arms: ArmSet,
    /// Cached means, so per-round regret accounting does not re-query
    /// distributions.
    means: Vec<f64>,
}

/// The CSR snapshot is derived state, so equality is decided by the serialized
/// fields only — two instances that differ merely in whether the snapshot has
/// been materialised yet are equal.
impl PartialEq for NetworkedBandit {
    fn eq(&self, other: &Self) -> bool {
        self.graph == other.graph && self.arms == other.arms && self.means == other.means
    }
}

impl NetworkedBandit {
    /// Creates an environment from a relation graph and an arm set.
    ///
    /// # Errors
    ///
    /// Returns [`EnvError::SizeMismatch`] if the graph and the arm set disagree
    /// on the number of arms.
    pub fn new(graph: RelationGraph, arms: ArmSet) -> Result<Self, EnvError> {
        if graph.num_vertices() != arms.len() {
            return Err(EnvError::SizeMismatch {
                graph_vertices: graph.num_vertices(),
                num_arms: arms.len(),
            });
        }
        let means = arms.means();
        let csr = OnceLock::from(graph.to_csr());
        Ok(NetworkedBandit {
            graph,
            csr,
            arms,
            means,
        })
    }

    /// Number of arms `K`.
    pub fn num_arms(&self) -> usize {
        self.arms.len()
    }

    /// The relation graph `G`.
    pub fn graph(&self) -> &RelationGraph {
        &self.graph
    }

    /// The flat (CSR) runtime snapshot of the relation graph.
    ///
    /// The snapshot is derived state excluded from the persisted form; on an
    /// instance whose cell is still empty this accessor rebuilds it from the
    /// relation graph on first use, so no manual refresh call is needed.
    /// After the first access (constructors materialise it eagerly) the call
    /// is a single atomic load.
    pub fn csr(&self) -> &CsrGraph {
        self.csr.get_or_init(|| self.graph.to_csr())
    }

    /// Rebuilds the CSR snapshot from the relation graph.
    ///
    /// Kept for callers that want to pay the rebuild eagerly (e.g. before
    /// entering a latency-sensitive section); since the snapshot is also
    /// rebuilt lazily by [`NetworkedBandit::csr`], calling this after
    /// deserializing is no longer required for correctness.
    pub fn refresh_csr(&mut self) {
        self.csr = OnceLock::from(self.graph.to_csr());
    }

    /// The arm set.
    pub fn arms(&self) -> &ArmSet {
        &self.arms
    }

    /// The true means `μ_i` (cached).
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    // ----- optimal values per scenario --------------------------------------
    //
    // Every quantity takes the mean vector it is computed under: pass
    // `self.means()` for the stationary world, or a round's drifted means
    // (see [`DriftSchedule::means_at`](crate::drift::DriftSchedule::means_at)).

    /// `μ_1` — the best single-arm direct mean (SSO benchmark).
    pub fn best_single_direct_mean(&self, means: &[f64]) -> f64 {
        means
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
            .max(0.0)
    }

    /// Side-reward mean of arm `i`: `u_i = Σ_{j ∈ N_i} μ_j`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range of the graph or `means`.
    pub fn side_reward_mean(&self, i: ArmId, means: &[f64]) -> f64 {
        self.csr()
            .closed_neighborhood(i)
            .iter()
            .map(|&j| means[j])
            .sum()
    }

    /// `u_1 = max_i Σ_{j ∈ N_i} μ_j` — the best single-arm side-reward mean
    /// (SSR benchmark). Returns 0 for an empty instance.
    ///
    /// # Panics
    ///
    /// Panics if `means.len() < K`.
    pub fn best_single_side_mean(&self, means: &[f64]) -> f64 {
        (0..self.num_arms())
            .map(|i| self.side_reward_mean(i, means))
            .fold(0.0, f64::max)
    }

    /// The arm attaining [`NetworkedBandit::best_single_side_mean`] under
    /// the stationary means, if any.
    pub fn best_single_side_arm(&self) -> Option<ArmId> {
        (0..self.num_arms()).max_by(|&a, &b| {
            self.side_reward_mean(a, &self.means)
                .partial_cmp(&self.side_reward_mean(b, &self.means))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    }

    /// Direct mean of a strategy: `Σ_{i ∈ s} μ_i`.
    pub fn strategy_direct_mean(&self, strategy: &[ArmId], means: &[f64]) -> f64 {
        strategy
            .iter()
            .filter(|&&i| i < self.num_arms())
            .map(|&i| means[i])
            .sum()
    }

    /// Side-reward mean of a strategy: `σ_x = Σ_{i ∈ Y_x} μ_i`.
    pub fn strategy_side_mean(&self, strategy: &[ArmId], means: &[f64]) -> f64 {
        self.graph
            .closed_neighborhood_of_set(strategy)
            .iter()
            .map(|&i| means[i])
            .sum()
    }

    /// `λ_1 = max_{x ∈ F} Σ_{i ∈ s_x} μ_i` — the best strategy direct mean (CSO
    /// benchmark) under a strategy family.
    ///
    /// # Panics
    ///
    /// Panics if `means.len() < K`.
    pub fn best_strategy_direct_mean(&self, family: &StrategyFamily, means: &[f64]) -> f64 {
        family
            .argmax_by_arm_weights(means, &self.graph)
            .map(|s| self.strategy_direct_mean(&s, means))
            .unwrap_or(0.0)
    }

    /// `σ_1 = max_{x ∈ F} Σ_{i ∈ Y_x} μ_i` — the best strategy side-reward mean
    /// (CSR benchmark) under a strategy family.
    ///
    /// # Panics
    ///
    /// Panics if `means.len() < K`.
    pub fn best_strategy_side_mean(&self, family: &StrategyFamily, means: &[f64]) -> f64 {
        family
            .argmax_by_neighborhood_weights(means, &self.graph)
            .map(|s| self.strategy_side_mean(&s, means))
            .unwrap_or(0.0)
    }

    // ----- pulling -----------------------------------------------------------

    /// Draws the full reward vector `X_{·,t}` of one time slot.
    ///
    /// Exposed so that drivers which want *all* policies to face the exact same
    /// sample path can pre-draw the rewards and use
    /// [`NetworkedBandit::feedback_single_from_samples`].
    pub fn sample_rewards(&self, rng: &mut dyn rand::RngCore) -> Vec<f64> {
        self.arms.sample_all(rng)
    }

    /// Draws the full reward vector into `out` (cleared first), consuming the
    /// exact RNG stream of [`NetworkedBandit::sample_rewards`] without
    /// allocating once `out` has reached capacity `K`.
    pub fn sample_rewards_into(&self, rng: &mut dyn rand::RngCore, out: &mut Vec<f64>) {
        self.arms.sample_all_into(rng, out);
    }

    /// Pulls a single arm, drawing fresh rewards for this time slot.
    ///
    /// # Panics
    ///
    /// Panics if `arm` is out of range; use
    /// [`NetworkedBandit::try_pull_single`] for a fallible variant.
    pub fn pull_single(&self, arm: ArmId, rng: &mut dyn rand::RngCore) -> SinglePlayFeedback {
        let samples = self.sample_rewards(rng);
        self.feedback_single_from_samples(arm, &samples)
    }

    /// Fallible variant of [`NetworkedBandit::pull_single`].
    ///
    /// # Errors
    ///
    /// Returns [`EnvError::ArmOutOfRange`] if `arm >= K`.
    pub fn try_pull_single(
        &self,
        arm: ArmId,
        rng: &mut dyn rand::RngCore,
    ) -> Result<SinglePlayFeedback, EnvError> {
        if arm >= self.num_arms() {
            return Err(EnvError::ArmOutOfRange {
                arm,
                num_arms: self.num_arms(),
            });
        }
        Ok(self.pull_single(arm, rng))
    }

    /// Builds single-play feedback from a pre-drawn reward vector.
    ///
    /// # Panics
    ///
    /// Panics if `arm` is out of range or `samples.len() != K`.
    pub fn feedback_single_from_samples(&self, arm: ArmId, samples: &[f64]) -> SinglePlayFeedback {
        let mut out = SinglePlayFeedback::default();
        self.fill_single_feedback(arm, samples, &mut out);
        out
    }

    /// Writes single-play feedback into `out`, reusing its observation buffer —
    /// the allocation-free form of
    /// [`NetworkedBandit::feedback_single_from_samples`], producing identical
    /// contents. The closed neighbourhood is read straight off the CSR
    /// snapshot, so a warm `out` makes the whole call allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `arm` is out of range or `samples.len() != K`.
    pub fn fill_single_feedback(&self, arm: ArmId, samples: &[f64], out: &mut SinglePlayFeedback) {
        assert_eq!(
            samples.len(),
            self.num_arms(),
            "sample vector length must equal the number of arms"
        );
        out.arm = arm;
        out.direct_reward = samples[arm];
        out.observations.clear();
        out.observations.extend(
            self.csr()
                .closed_neighborhood(arm)
                .iter()
                .map(|&j| (j, samples[j])),
        );
        out.side_reward = out.observations.iter().map(|&(_, x)| x).sum();
    }

    /// Pulls a combinatorial strategy, drawing fresh rewards for this time slot.
    ///
    /// # Errors
    ///
    /// Returns [`EnvError::InvalidStrategy`] if the strategy is empty or refers
    /// to an arm outside the instance.
    pub fn pull_strategy(
        &self,
        strategy: &[ArmId],
        rng: &mut dyn rand::RngCore,
    ) -> Result<CombinatorialFeedback, EnvError> {
        let samples = self.sample_rewards(rng);
        self.feedback_strategy_from_samples(strategy, &samples)
    }

    /// Builds combinatorial feedback from a pre-drawn reward vector.
    ///
    /// # Errors
    ///
    /// Returns [`EnvError::InvalidStrategy`] if the strategy is empty or refers
    /// to an arm outside the instance.
    ///
    /// # Panics
    ///
    /// Panics if `samples.len() != K`.
    pub fn feedback_strategy_from_samples(
        &self,
        strategy: &[ArmId],
        samples: &[f64],
    ) -> Result<CombinatorialFeedback, EnvError> {
        let mut out = CombinatorialFeedback::default();
        let mut mark = Vec::new();
        self.fill_strategy_feedback(strategy, samples, &mut mark, &mut out)?;
        Ok(out)
    }

    /// Writes combinatorial feedback into `out`, reusing its buffers and the
    /// caller-supplied `mark` table — the allocation-free form of
    /// [`NetworkedBandit::feedback_strategy_from_samples`], producing identical
    /// contents. `mark` is managed like in
    /// [`CsrGraph::closed_neighborhood_of_set_into`]: resized to `K` on demand
    /// and all-`false` again on return.
    ///
    /// # Errors
    ///
    /// Returns [`EnvError::InvalidStrategy`] if the strategy is empty or refers
    /// to an arm outside the instance; `out` is left unspecified in that case.
    ///
    /// # Panics
    ///
    /// Panics if `samples.len() != K`.
    pub fn fill_strategy_feedback(
        &self,
        strategy: &[ArmId],
        samples: &[f64],
        mark: &mut Vec<bool>,
        out: &mut CombinatorialFeedback,
    ) -> Result<(), EnvError> {
        assert_eq!(
            samples.len(),
            self.num_arms(),
            "sample vector length must equal the number of arms"
        );
        if strategy.is_empty() {
            return Err(EnvError::InvalidStrategy {
                reason: "strategy is empty".to_owned(),
            });
        }
        if let Some(&bad) = strategy.iter().find(|&&i| i >= self.num_arms()) {
            return Err(EnvError::InvalidStrategy {
                reason: format!("arm {bad} is out of range for {} arms", self.num_arms()),
            });
        }
        out.strategy.clear();
        out.strategy.extend_from_slice(strategy);
        out.strategy.sort_unstable();
        out.strategy.dedup();
        self.csr()
            .closed_neighborhood_of_set_into(&out.strategy, mark, &mut out.observation_set);
        out.observations.clear();
        out.observations
            .extend(out.observation_set.iter().map(|&j| (j, samples[j])));
        out.direct_reward = out.strategy.iter().map(|&i| samples[i]).sum();
        out.side_reward = out.observations.iter().map(|&(_, x)| x).sum();
        Ok(())
    }

    /// Batched single pulls: for every entry of `arms`, draws one fresh reward
    /// vector (consuming the exact RNG stream `arms.len()` successive
    /// [`NetworkedBandit::pull_single`] calls would) and invokes
    /// `visit(round, feedback)`. All storage lives in `buf`, so the batch
    /// performs no per-round allocation once the buffers are warm.
    pub fn pull_many(
        &self,
        arms: &[ArmId],
        rng: &mut dyn rand::RngCore,
        buf: &mut PullBuffer,
        mut visit: impl FnMut(usize, &SinglePlayFeedback),
    ) {
        for (round, &arm) in arms.iter().enumerate() {
            let feedback = buf.pull_single(self, arm, rng);
            visit(round, feedback);
        }
    }
}

/// Reusable buffers for allocation-free pulls in the simulation hot loop.
///
/// The per-round cost of the map-based seed path was dominated by transient
/// allocations: a fresh sample vector, a neighbourhood vector, and observation
/// lists every round. A `PullBuffer` owns all of those once; after the first
/// round of a replication, [`PullBuffer::pull_single`] and
/// [`PullBuffer::pull_strategy`] allocate nothing and produce feedback
/// bit-identical to [`NetworkedBandit::pull_single`] /
/// [`NetworkedBandit::pull_strategy`].
///
/// # Example
///
/// ```
/// use netband_env::{ArmSet, NetworkedBandit, PullBuffer};
/// use netband_graph::generators;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let graph = generators::path(4);
/// let bandit = NetworkedBandit::new(graph, ArmSet::linear_bernoulli(4)).unwrap();
/// let mut rng = StdRng::seed_from_u64(1);
/// let mut buf = PullBuffer::new();
/// let feedback = buf.pull_single(&bandit, 1, &mut rng);
/// assert_eq!(feedback.arm, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PullBuffer {
    samples: Vec<f64>,
    single: SinglePlayFeedback,
    combinatorial: CombinatorialFeedback,
    mark: Vec<bool>,
}

impl PullBuffer {
    /// An empty buffer; capacity is acquired lazily on first use.
    pub fn new() -> Self {
        PullBuffer::default()
    }

    /// Pulls a single arm, drawing fresh rewards for this time slot into the
    /// reused sample buffer. Bit-identical to
    /// [`NetworkedBandit::pull_single`] on the same RNG state.
    ///
    /// # Panics
    ///
    /// Panics if `arm` is out of range.
    pub fn pull_single(
        &mut self,
        bandit: &NetworkedBandit,
        arm: ArmId,
        rng: &mut dyn rand::RngCore,
    ) -> &SinglePlayFeedback {
        bandit.sample_rewards_into(rng, &mut self.samples);
        bandit.fill_single_feedback(arm, &self.samples, &mut self.single);
        &self.single
    }

    /// Builds single-play feedback from a pre-drawn reward vector (the coupled
    /// sample-path regime of [`NetworkedBandit::feedback_single_from_samples`])
    /// into the reused buffers.
    ///
    /// # Panics
    ///
    /// Panics if `arm` is out of range or `samples.len() != K`.
    pub fn single_from_samples(
        &mut self,
        bandit: &NetworkedBandit,
        arm: ArmId,
        samples: &[f64],
    ) -> &SinglePlayFeedback {
        bandit.fill_single_feedback(arm, samples, &mut self.single);
        &self.single
    }

    /// Pulls a combinatorial strategy, drawing fresh rewards for this time
    /// slot into the reused sample buffer. Bit-identical to
    /// [`NetworkedBandit::pull_strategy`] on the same RNG state.
    ///
    /// # Errors
    ///
    /// Returns [`EnvError::InvalidStrategy`] if the strategy is empty or
    /// refers to an arm outside the instance.
    pub fn pull_strategy(
        &mut self,
        bandit: &NetworkedBandit,
        strategy: &[ArmId],
        rng: &mut dyn rand::RngCore,
    ) -> Result<&CombinatorialFeedback, EnvError> {
        bandit.sample_rewards_into(rng, &mut self.samples);
        bandit.fill_strategy_feedback(
            strategy,
            &self.samples,
            &mut self.mark,
            &mut self.combinatorial,
        )?;
        Ok(&self.combinatorial)
    }

    /// Pulls a single arm of a *drifting* world: rewards are Bernoulli draws
    /// of the caller-supplied per-round means (see
    /// [`DriftSchedule::means_at`](crate::drift::DriftSchedule::means_at))
    /// rather than the bandit's stationary distributions, consuming one `f64`
    /// draw per arm.
    ///
    /// # Panics
    ///
    /// Panics if `arm` is out of range or `means.len() != K`.
    pub fn pull_single_drifted(
        &mut self,
        bandit: &NetworkedBandit,
        means: &[f64],
        arm: ArmId,
        rng: &mut dyn rand::RngCore,
    ) -> &SinglePlayFeedback {
        crate::drift::sample_bernoulli_into(means, rng, &mut self.samples);
        bandit.fill_single_feedback(arm, &self.samples, &mut self.single);
        &self.single
    }

    /// Pulls a combinatorial strategy of a *drifting* world (the
    /// [`PullBuffer::pull_strategy`] counterpart of
    /// [`PullBuffer::pull_single_drifted`]).
    ///
    /// # Errors
    ///
    /// Returns [`EnvError::InvalidStrategy`] if the strategy is empty or
    /// refers to an arm outside the instance.
    ///
    /// # Panics
    ///
    /// Panics if `means.len() != K`.
    pub fn pull_strategy_drifted(
        &mut self,
        bandit: &NetworkedBandit,
        means: &[f64],
        strategy: &[ArmId],
        rng: &mut dyn rand::RngCore,
    ) -> Result<&CombinatorialFeedback, EnvError> {
        crate::drift::sample_bernoulli_into(means, rng, &mut self.samples);
        bandit.fill_strategy_feedback(
            strategy,
            &self.samples,
            &mut self.mark,
            &mut self.combinatorial,
        )?;
        Ok(&self.combinatorial)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasible::StrategyFamily;
    use netband_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// 4-arm path graph 0-1-2-3 with known means.
    fn small_instance() -> NetworkedBandit {
        let graph = generators::path(4);
        let arms = ArmSet::bernoulli(&[0.2, 0.9, 0.4, 0.6]);
        NetworkedBandit::new(graph, arms).unwrap()
    }

    #[test]
    fn constructor_rejects_size_mismatch() {
        let graph = generators::path(3);
        let arms = ArmSet::bernoulli(&[0.5, 0.5]);
        let err = NetworkedBandit::new(graph, arms).unwrap_err();
        assert!(matches!(err, EnvError::SizeMismatch { .. }));
        assert!(err.to_string().contains("3 vertices"));
    }

    #[test]
    fn best_single_means_are_correct() {
        let env = small_instance();
        assert_eq!(env.best_single_direct_mean(env.means()), 0.9);
        // Side reward means: u_0 = 0.2+0.9, u_1 = 0.2+0.9+0.4, u_2 = 0.9+0.4+0.6,
        // u_3 = 0.4+0.6.
        assert!((env.side_reward_mean(0, env.means()) - 1.1).abs() < 1e-12);
        assert!((env.side_reward_mean(1, env.means()) - 1.5).abs() < 1e-12);
        assert!((env.side_reward_mean(2, env.means()) - 1.9).abs() < 1e-12);
        assert!((env.side_reward_mean(3, env.means()) - 1.0).abs() < 1e-12);
        assert!((env.best_single_side_mean(env.means()) - 1.9).abs() < 1e-12);
        assert_eq!(env.best_single_side_arm(), Some(2));
    }

    #[test]
    fn ssr_optimum_can_differ_from_sso_optimum() {
        // The paper notes the SSR-optimal arm may differ from the SSO-optimal
        // arm; this instance exhibits exactly that (arm 1 vs arm 2).
        let env = small_instance();
        assert_eq!(env.arms().best_arm(), Some(1));
        assert_eq!(env.best_single_side_arm(), Some(2));
    }

    #[test]
    fn strategy_means_are_sums() {
        let env = small_instance();
        assert!((env.strategy_direct_mean(&[0, 2], env.means()) - 0.6).abs() < 1e-12);
        // Y_{0,2} = {0,1} ∪ {1,2,3} = {0,1,2,3}.
        assert!((env.strategy_side_mean(&[0, 2], env.means()) - 2.1).abs() < 1e-12);
        // Out-of-range arms are ignored in the mean helpers.
        assert!((env.strategy_direct_mean(&[0, 99], env.means()) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn best_strategy_means_use_the_oracle() {
        let env = small_instance();
        let family = StrategyFamily::at_most_m(4, 2);
        // Best direct pair: arms 1 and 3 → 1.5.
        assert!((env.best_strategy_direct_mean(&family, env.means()) - 1.5).abs() < 1e-12);
        // Best side pair covers everything: 2.1.
        assert!((env.best_strategy_side_mean(&family, env.means()) - 2.1).abs() < 1e-12);
    }

    #[test]
    fn single_feedback_reveals_closed_neighborhood() {
        let env = small_instance();
        let mut rng = StdRng::seed_from_u64(1);
        let fb = env.pull_single(1, &mut rng);
        assert_eq!(fb.arm, 1);
        let observed: Vec<ArmId> = fb.observations.iter().map(|&(j, _)| j).collect();
        assert_eq!(observed, vec![0, 1, 2]);
        let sum: f64 = fb.observations.iter().map(|&(_, x)| x).sum();
        assert!((fb.side_reward - sum).abs() < 1e-12);
        let direct = fb
            .observations
            .iter()
            .find(|&&(j, _)| j == 1)
            .map(|&(_, x)| x)
            .unwrap();
        assert_eq!(fb.direct_reward, direct);
    }

    #[test]
    fn try_pull_single_rejects_out_of_range() {
        let env = small_instance();
        let mut rng = StdRng::seed_from_u64(1);
        let err = env.try_pull_single(10, &mut rng).unwrap_err();
        assert!(matches!(err, EnvError::ArmOutOfRange { arm: 10, .. }));
    }

    #[test]
    fn strategy_feedback_matches_definitions() {
        let env = small_instance();
        let samples = vec![1.0, 0.0, 1.0, 0.0];
        let fb = env
            .feedback_strategy_from_samples(&[0, 3], &samples)
            .unwrap();
        assert_eq!(fb.strategy, vec![0, 3]);
        assert_eq!(fb.observation_set, vec![0, 1, 2, 3]);
        assert!((fb.direct_reward - 1.0).abs() < 1e-12);
        assert!((fb.side_reward - 2.0).abs() < 1e-12);
        assert_eq!(fb.observations.len(), 4);
    }

    #[test]
    fn strategy_feedback_normalises_duplicates() {
        let env = small_instance();
        let samples = vec![0.5, 0.5, 0.5, 0.5];
        let fb = env
            .feedback_strategy_from_samples(&[2, 0, 2], &samples)
            .unwrap();
        assert_eq!(fb.strategy, vec![0, 2]);
        assert!((fb.direct_reward - 1.0).abs() < 1e-12);
    }

    #[test]
    fn strategy_feedback_rejects_bad_strategies() {
        let env = small_instance();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            env.pull_strategy(&[], &mut rng).unwrap_err(),
            EnvError::InvalidStrategy { .. }
        ));
        assert!(matches!(
            env.pull_strategy(&[0, 7], &mut rng).unwrap_err(),
            EnvError::InvalidStrategy { .. }
        ));
    }

    #[test]
    fn edgeless_graph_degenerates_to_classic_bandit() {
        let graph = generators::edgeless(3);
        let arms = ArmSet::bernoulli(&[0.1, 0.5, 0.9]);
        let env = NetworkedBandit::new(graph, arms).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let fb = env.pull_single(0, &mut rng);
        assert_eq!(fb.observations.len(), 1);
        assert_eq!(fb.side_reward, fb.direct_reward);
        assert_eq!(env.best_single_side_mean(env.means()), 0.9);
    }

    #[test]
    fn complete_graph_side_reward_is_total_mean() {
        let graph = generators::complete(3);
        let arms = ArmSet::bernoulli(&[0.1, 0.5, 0.9]);
        let env = NetworkedBandit::new(graph, arms).unwrap();
        for i in 0..3 {
            assert!((env.side_reward_mean(i, env.means()) - 1.5).abs() < 1e-12);
        }
    }

    /// Reconstructs an instance from its persisted fields alone (`graph`,
    /// `arms`, `means`), with the derived CSR cell at its `Default` (empty). Regression test for the old footgun
    /// where such an instance panicked (or silently disagreed with its graph)
    /// until the caller remembered `refresh_csr()`.
    fn freshly_deserialized(env: &NetworkedBandit) -> NetworkedBandit {
        NetworkedBandit {
            graph: env.graph.clone(),
            csr: OnceLock::default(),
            arms: env.arms.clone(),
            means: env.means.clone(),
        }
    }

    #[test]
    fn deserialized_bandit_is_usable_without_manual_refresh() {
        let env = small_instance();
        let restored = freshly_deserialized(&env);
        // The lazily rebuilt snapshot matches the eagerly built one ...
        assert_eq!(restored.csr(), env.csr());
        // ... and every feedback path works straight away.
        let mut rng = StdRng::seed_from_u64(5);
        let fb = restored.pull_single(1, &mut rng);
        let observed: Vec<ArmId> = fb.observations.iter().map(|&(j, _)| j).collect();
        assert_eq!(observed, vec![0, 1, 2]);
        assert!((restored.side_reward_mean(2, restored.means()) - 1.9).abs() < 1e-12);
        let samples = vec![1.0, 0.0, 1.0, 0.0];
        let strat_fb = freshly_deserialized(&env)
            .feedback_strategy_from_samples(&[0, 3], &samples)
            .unwrap();
        assert_eq!(strat_fb.observation_set, vec![0, 1, 2, 3]);
        // Derived state does not participate in equality.
        assert_eq!(freshly_deserialized(&env), env);
    }

    #[test]
    fn refresh_csr_still_rebuilds_eagerly() {
        let env = small_instance();
        let mut restored = freshly_deserialized(&env);
        restored.refresh_csr();
        assert_eq!(restored.csr(), env.csr());
    }

    #[test]
    fn pre_drawn_samples_make_pulls_reproducible() {
        let env = small_instance();
        let mut rng = StdRng::seed_from_u64(3);
        let samples = env.sample_rewards(&mut rng);
        let fb1 = env.feedback_single_from_samples(2, &samples);
        let fb2 = env.feedback_single_from_samples(2, &samples);
        assert_eq!(fb1, fb2);
    }
}
