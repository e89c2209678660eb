//! The spec types: one declarative, versioned description of everything the
//! paper's configuration space contains.
//!
//! A [`ScenarioSpec`] names a point in the space *graph model × arm
//! distributions × strategy family × policy × horizon/feedback schedule* —
//! exactly the space the paper's evaluation (Section VII) and its motivating
//! applications (Section I: advertising, social promotion, channel access)
//! range over. Specs are plain data: they can be written as JSON (see
//! [`crate::codec`]), stored, diffed, and replayed, and `build()` factories
//! turn them into runnable instances deterministically (a spec plus its seeds
//! pins the sample path bit for bit).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use netband_baselines as baselines;
use netband_core as core_policies;
use netband_env::feasible::FeasibleSet;
use netband_env::workloads::Workload;
use netband_env::{
    ArmSet, ChangePoint, ChurnWindow, DriftSchedule, GradualDrift, NetworkedBandit, StrategyFamily,
};
use netband_graph::{generators, RelationGraph};

use crate::error::SpecError;
use crate::policy::AnyPolicy;
use crate::ArmId;

/// The spec schema version this build reads and writes.
///
/// Documents declaring any other `version` are rejected with
/// [`SpecError::UnsupportedVersion`] — schema evolution is explicit, never
/// silent.
pub const SPEC_VERSION: u64 = 1;

// ---------------------------------------------------------------------------
// GraphSpec
// ---------------------------------------------------------------------------

/// A relation-graph model (Section II: arms are vertices; an edge means
/// pulling one arm reveals a side bonus for the other).
#[derive(Debug, Clone, PartialEq)]
pub enum GraphSpec {
    /// Erdős–Rényi `G(K, p)` — the paper's Section VII simulation setup
    /// ("arms are uniformly and randomly connected with probability p").
    ErdosRenyi {
        /// Number of arms `K`.
        num_arms: usize,
        /// Connection probability `p`.
        edge_prob: f64,
    },
    /// Barabási–Albert preferential attachment — the heavy-tailed audience
    /// graph of the online-advertising application (Section I).
    PreferentialAttachment {
        /// Number of arms `K`.
        num_arms: usize,
        /// Edges attached per new vertex.
        edges_per_node: usize,
    },
    /// Planted-partition community graph — the online social network of the
    /// social-promotion application (Section I): dense inside communities,
    /// sparse across.
    PlantedPartition {
        /// Number of arms `K`.
        num_arms: usize,
        /// Number of planted communities.
        communities: usize,
        /// Within-community edge probability.
        p_in: f64,
        /// Cross-community edge probability.
        p_out: f64,
    },
    /// Random geometric graph — the interference graph of the opportunistic
    /// channel-access application (Section I): channels conflict when their
    /// receivers are within radio range.
    RandomGeometric {
        /// Number of arms `K`.
        num_arms: usize,
        /// Connection radius in the unit square.
        radius: f64,
    },
    /// An explicit undirected edge list — for measured production graphs and
    /// hand-crafted instances (e.g. the paper's Fig. 1/Fig. 2 examples).
    Explicit {
        /// Number of arms `K` (isolated vertices allowed).
        num_arms: usize,
        /// Undirected edges as `(u, v)` pairs, `u, v < num_arms`.
        edges: Vec<(ArmId, ArmId)>,
    },
}

impl GraphSpec {
    /// Number of arms the graph will have.
    pub fn num_arms(&self) -> usize {
        match self {
            GraphSpec::ErdosRenyi { num_arms, .. }
            | GraphSpec::PreferentialAttachment { num_arms, .. }
            | GraphSpec::PlantedPartition { num_arms, .. }
            | GraphSpec::RandomGeometric { num_arms, .. }
            | GraphSpec::Explicit { num_arms, .. } => *num_arms,
        }
    }

    /// Materialises the relation graph, consuming randomness from `rng` for
    /// the random models (the explicit model consumes none).
    pub fn build<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<RelationGraph, SpecError> {
        match self {
            GraphSpec::ErdosRenyi {
                num_arms,
                edge_prob,
            } => Ok(generators::erdos_renyi(*num_arms, *edge_prob, rng)),
            GraphSpec::PreferentialAttachment {
                num_arms,
                edges_per_node,
            } => Ok(generators::barabasi_albert(*num_arms, *edges_per_node, rng)),
            GraphSpec::PlantedPartition {
                num_arms,
                communities,
                p_in,
                p_out,
            } => Ok(generators::planted_partition(
                *num_arms,
                (*communities).max(1),
                *p_in,
                *p_out,
                rng,
            )),
            GraphSpec::RandomGeometric { num_arms, radius } => {
                Ok(generators::random_geometric(*num_arms, *radius, rng))
            }
            GraphSpec::Explicit { num_arms, edges } => {
                RelationGraph::try_from_edges(*num_arms, edges).map_err(|e| SpecError::Invalid {
                    context: "GraphSpec::Explicit",
                    message: e.to_string(),
                })
            }
        }
    }
}

// ---------------------------------------------------------------------------
// ArmsSpec
// ---------------------------------------------------------------------------

/// An arm bank: the reward distribution of every arm (all supported in
/// `[0, 1]`, the paper's Section II assumption).
#[derive(Debug, Clone, PartialEq)]
pub enum ArmsSpec {
    /// Explicit Bernoulli arms with the given success probabilities.
    Bernoulli {
        /// Success probability of each arm.
        means: Vec<f64>,
    },
    /// Bernoulli arms whose means are drawn i.i.d. uniform from `[0, 1]` —
    /// the paper's Section VII setup ("the mean of each process is randomly
    /// generated from `[0, 1]`").
    UniformMeanBernoulli {
        /// Number of arms `K`.
        num_arms: usize,
    },
    /// Explicit Beta arms with the given `(alpha, beta)` shape pairs.
    Beta {
        /// Shape parameters per arm.
        shapes: Vec<(f64, f64)>,
    },
    /// Beta click-through-rate arms with a heavy right tail: each arm's mean
    /// is drawn as `clamp(floor + spread · U², 0.01, 0.95)` with `U ~ U[0,1]`
    /// and the distribution is `Beta(mean·c, (1−mean)·c)` — the advertising
    /// workload of the paper's introduction (mostly low CTRs, a few high).
    ClickThroughBeta {
        /// Number of arms `K`.
        num_arms: usize,
        /// Lowest achievable raw mean.
        floor: f64,
        /// Spread of the quadratically-skewed mean draw.
        spread: f64,
        /// Beta concentration `c = alpha + beta`.
        concentration: f64,
    },
    /// Explicit continuous-uniform arms on the given `[lo, hi] ⊆ [0, 1]`
    /// intervals.
    Uniform {
        /// `(lo, hi)` support per arm.
        ranges: Vec<(f64, f64)>,
    },
}

impl ArmsSpec {
    /// Number of arms the bank will have.
    pub fn num_arms(&self) -> usize {
        match self {
            ArmsSpec::Bernoulli { means } => means.len(),
            ArmsSpec::UniformMeanBernoulli { num_arms }
            | ArmsSpec::ClickThroughBeta { num_arms, .. } => *num_arms,
            ArmsSpec::Beta { shapes } => shapes.len(),
            ArmsSpec::Uniform { ranges } => ranges.len(),
        }
    }

    /// Materialises the arm bank, consuming randomness from `rng` for the
    /// randomly-parameterised banks (the explicit banks consume none).
    pub fn build<R: Rng + ?Sized>(&self, rng: &mut R) -> ArmSet {
        use netband_env::distributions::Distribution;
        match self {
            ArmsSpec::Bernoulli { means } => ArmSet::bernoulli(means),
            ArmsSpec::UniformMeanBernoulli { num_arms } => ArmSet::random_bernoulli(*num_arms, rng),
            ArmsSpec::Beta { shapes } => shapes
                .iter()
                .map(|&(alpha, beta)| Distribution::beta(alpha, beta))
                .collect(),
            ArmsSpec::ClickThroughBeta {
                num_arms,
                floor,
                spread,
                concentration,
            } => (0..*num_arms)
                .map(|_| {
                    let mean: f64 = (floor + spread * rng.gen::<f64>().powi(2)).clamp(0.01, 0.95);
                    Distribution::beta(mean * concentration, (1.0 - mean) * concentration)
                })
                .collect(),
            ArmsSpec::Uniform { ranges } => ranges
                .iter()
                .map(|&(lo, hi)| Distribution::uniform(lo, hi))
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// FamilySpec
// ---------------------------------------------------------------------------

/// A feasible strategy family `F` for combinatorial play (Sections IV / VI).
/// `None` in a [`WorkloadSpec`] means single-play only.
#[derive(Debug, Clone, PartialEq)]
pub enum FamilySpec {
    /// All non-empty subsets of at most `m` arms — "an advertiser can only
    /// place up to m advertisements on his website" (Section I).
    AtMostM {
        /// Cardinality cap `M`.
        m: usize,
    },
    /// All subsets of exactly `m` arms (Anantharam et al.'s classical
    /// multiple-play setting, cited in the paper's related work).
    ExactlyM {
        /// Exact cardinality `M`.
        m: usize,
    },
    /// All non-empty independent sets of the relation graph with at most
    /// `max_size` arms — the paper's Fig. 2 example (maximum weighted
    /// independent set) and the channel-access constraint.
    IndependentSets {
        /// Cardinality cap `M`.
        max_size: usize,
    },
    /// An explicitly enumerated feasible set — the regime of Algorithm 2
    /// (DFL-CSO), which keeps one estimator per feasible strategy.
    Explicit {
        /// The feasible strategies (normalised at build time).
        strategies: Vec<Vec<ArmId>>,
    },
}

impl FamilySpec {
    /// Materialises the family over a `num_arms`-vertex relation graph.
    pub fn build(&self, num_arms: usize) -> StrategyFamily {
        match self {
            FamilySpec::AtMostM { m } => StrategyFamily::at_most_m(num_arms, *m),
            FamilySpec::ExactlyM { m } => StrategyFamily::exactly_m(num_arms, *m),
            FamilySpec::IndependentSets { max_size } => StrategyFamily::independent_sets(*max_size),
            FamilySpec::Explicit { strategies } => StrategyFamily::explicit(strategies.clone()),
        }
    }
}

// ---------------------------------------------------------------------------
// PolicySpec
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// EstimatorSpec
// ---------------------------------------------------------------------------

/// Which evidence estimator a nonstationarity-aware policy keeps per arm —
/// the serializable counterpart of `netband_core::EstimatorKind`.
///
/// The stationary estimator is the plain running mean every DFL policy uses;
/// the discounted and sliding-window estimators forget old evidence, which is
/// what lets a policy track the drifting worlds described by [`DriftSpec`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EstimatorSpec {
    /// Plain running means over all history (the stationary default).
    Stationary,
    /// Exponentially discounted means (D-UCB style): every round multiplies
    /// the accumulated evidence weight by `gamma`, so an observation made `d`
    /// rounds ago carries weight `gamma^d`. `gamma = 1.0` is bit-identical to
    /// [`EstimatorSpec::Stationary`].
    Discounted {
        /// Per-round discount factor `γ ∈ (0, 1]`.
        gamma: f64,
    },
    /// Sliding-window means: only each arm's last `window` observations count.
    SlidingWindow {
        /// Window length (≥ 1).
        window: usize,
    },
}

impl EstimatorSpec {
    /// Checks the parameters (`gamma ∈ (0, 1]`, `window ≥ 1`).
    pub fn validate(&self) -> Result<(), SpecError> {
        match self {
            EstimatorSpec::Discounted { gamma } if !(*gamma > 0.0 && *gamma <= 1.0) => {
                Err(SpecError::Invalid {
                    context: "EstimatorSpec::Discounted",
                    message: format!("gamma must lie in (0, 1], got {gamma}"),
                })
            }
            EstimatorSpec::SlidingWindow { window: 0 } => Err(SpecError::Invalid {
                context: "EstimatorSpec::SlidingWindow",
                message: "window must be at least 1".into(),
            }),
            _ => Ok(()),
        }
    }

    /// The `netband_core` estimator kind this spec describes.
    pub fn build(&self) -> core_policies::EstimatorKind {
        match self {
            EstimatorSpec::Stationary => core_policies::EstimatorKind::Stationary,
            EstimatorSpec::Discounted { gamma } => {
                core_policies::EstimatorKind::Discounted { gamma: *gamma }
            }
            EstimatorSpec::SlidingWindow { window } => {
                core_policies::EstimatorKind::SlidingWindow { window: *window }
            }
        }
    }
}

/// A learning policy plus its hyperparameters.
///
/// Every policy in `netband-core` (the paper's four DFL algorithms and the
/// Section IX heuristics) and every baseline in `netband-baselines` is
/// constructible from a variant of this enum; structural inputs (the relation
/// graph, the strategy family, the arm count) come from the workload at build
/// time, so a `PolicySpec` carries only the knobs a human would tune.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicySpec {
    /// DFL-SSO (Algorithm 1): single-play, learns from side observations via
    /// a MOSS-style index over observation counts.
    DflSso,
    /// DFL-SSR (Algorithm 3): single-play, maximises the neighbourhood-sum
    /// reward `B_{i,t}` (Equation 3's benchmark).
    DflSsr,
    /// DFL-CSO (Algorithm 2): combinatorial play reduced to single play over
    /// com-arms on the strategy relation graph `SG(F, L)`. Needs an
    /// enumerable family.
    DflCso,
    /// DFL-CSR (Algorithm 4): combinatorial play maximising the coverage sum
    /// `CB_{I_t,t}` through the neighbourhood-weight oracle (Equation 47).
    DflCsr,
    /// The Section IX greedy-neighbour heuristic layered on DFL-SSO.
    DflSsoGreedyNeighbor,
    /// The Section IX greedy-neighbour heuristic layered on DFL-SSR.
    DflSsrGreedyNeighbor,
    /// MOSS (Audibert & Bubeck) — the paper's Fig. 3 comparator; ignores side
    /// observations.
    Moss {
        /// Optional known horizon (anytime variant when `None`).
        horizon: Option<usize>,
    },
    /// UCB1 (Auer et al.) — classic index baseline.
    Ucb1,
    /// UCB-Tuned (Auer et al.) — variance-aware UCB variant.
    UcbTuned,
    /// KL-UCB (Garivier & Cappé) — Bernoulli KL index baseline.
    KlUcb {
        /// Optional exploration constant `c`.
        c: Option<f64>,
    },
    /// UCB-V (Audibert, Munos & Szepesvári) — empirical-variance index.
    /// Either both constants or neither (defaults) must be given.
    UcbV {
        /// Optional exploration weight `zeta`.
        zeta: Option<f64>,
        /// Optional bias constant `c`.
        c: Option<f64>,
    },
    /// ε-greedy with a fixed exploration rate.
    EpsilonGreedy {
        /// Exploration probability `ε`.
        epsilon: f64,
        /// RNG seed of the exploration coin.
        seed: u64,
    },
    /// ε-greedy with the decaying schedule `ε_t = min(1, c·K/t)`.
    DecayingEpsilonGreedy {
        /// Decay constant `c`.
        c: f64,
        /// RNG seed of the exploration coin.
        seed: u64,
    },
    /// Softmax / Boltzmann exploration with temperature `tau`.
    Softmax {
        /// Temperature `τ`.
        tau: f64,
        /// RNG seed.
        seed: u64,
    },
    /// EXP3 (Auer et al.) — the adversarial-bandit baseline.
    Exp3 {
        /// Exploration mixture `γ`.
        gamma: f64,
        /// RNG seed.
        seed: u64,
    },
    /// Beta–Bernoulli Thompson sampling (the Bayesian comparator family of
    /// Hüyük & Tekin's combinatorial Thompson analysis).
    ThompsonBernoulli {
        /// RNG seed of the posterior sampler.
        seed: u64,
    },
    /// Uniform random single-arm play (sanity floor).
    RandomSingle {
        /// RNG seed.
        seed: u64,
    },
    /// CUCB (Chen et al., "Combinatorial multi-armed bandit") — per-arm UCB1
    /// indices fed to the exact arm-weight oracle.
    Cucb,
    /// LLR (Gai, Krishnamachari & Jain, "Combinatorial network optimization
    /// with unknown variables") — Learning with Linear Rewards.
    Llr,
    /// Combinatorial ε-greedy with the decaying schedule.
    CombEpsilonGreedy {
        /// Decay constant `c`.
        c: f64,
        /// RNG seed of the exploration coin.
        seed: u64,
    },
    /// The "exponential regret" strawman of Section VII: every feasible
    /// strategy is an independent MOSS arm, all structure ignored. Needs an
    /// enumerable family.
    NaiveComArmMoss,
    /// Uniform random feasible strategy (sanity floor). Needs an enumerable
    /// family.
    RandomCombinatorial {
        /// RNG seed.
        seed: u64,
    },
    /// Combinatorial Thompson sampling (Hüyük & Tekin): per-arm Beta
    /// posteriors sampled each round and handed to the strategy oracle.
    /// With a [`EstimatorSpec::Discounted`] or [`EstimatorSpec::SlidingWindow`]
    /// estimator it becomes the nonstationary CTS-D / CTS-SW variant that
    /// tracks [`DriftSpec`] worlds.
    Cts {
        /// RNG seed of the posterior sampler.
        seed: u64,
        /// Evidence estimator behind the posteriors; `None` means stationary.
        estimator: Option<EstimatorSpec>,
    },
}

impl PolicySpec {
    /// `true` when the policy pulls a super-arm per slot (CSO/CSR scenarios).
    pub fn is_combinatorial(&self) -> bool {
        matches!(
            self,
            PolicySpec::DflCso
                | PolicySpec::DflCsr
                | PolicySpec::Cucb
                | PolicySpec::Llr
                | PolicySpec::CombEpsilonGreedy { .. }
                | PolicySpec::NaiveComArmMoss
                | PolicySpec::RandomCombinatorial { .. }
                | PolicySpec::Cts { .. }
        )
    }

    /// The policy's report name (matches `SinglePlayPolicy::name` /
    /// `CombinatorialPolicy::name` of the built instance).
    pub fn display_name(&self) -> &'static str {
        match self {
            PolicySpec::DflSso => "DFL-SSO",
            PolicySpec::DflSsr => "DFL-SSR",
            PolicySpec::DflCso => "DFL-CSO",
            PolicySpec::DflCsr => "DFL-CSR",
            PolicySpec::DflSsoGreedyNeighbor => "DFL-SSO+GN",
            PolicySpec::DflSsrGreedyNeighbor => "DFL-SSR+GN",
            PolicySpec::Moss { .. } => "MOSS",
            PolicySpec::Ucb1 => "UCB1",
            PolicySpec::UcbTuned => "UCB-Tuned",
            PolicySpec::KlUcb { .. } => "KL-UCB",
            PolicySpec::UcbV { .. } => "UCB-V",
            PolicySpec::EpsilonGreedy { .. } | PolicySpec::DecayingEpsilonGreedy { .. } => {
                "EpsilonGreedy"
            }
            PolicySpec::Softmax { .. } => "Softmax",
            PolicySpec::Exp3 { .. } => "EXP3",
            PolicySpec::ThompsonBernoulli { .. } => "Thompson",
            PolicySpec::RandomSingle { .. } => "Random",
            PolicySpec::Cucb => "CUCB",
            PolicySpec::Llr => "LLR",
            PolicySpec::CombEpsilonGreedy { .. } => "CombEpsilonGreedy",
            PolicySpec::NaiveComArmMoss => "NaiveComArm-MOSS",
            PolicySpec::RandomCombinatorial { .. } => "RandomCombinatorial",
            PolicySpec::Cts { estimator, .. } => match estimator {
                Some(EstimatorSpec::Discounted { .. }) => "CTS-D",
                Some(EstimatorSpec::SlidingWindow { .. }) => "CTS-SW",
                None | Some(EstimatorSpec::Stationary) => "CTS",
            },
        }
    }

    /// Checks the policy's hyperparameters without building anything
    /// (currently the CTS estimator: `gamma ∈ (0, 1]`, `window ≥ 1`).
    pub fn validate(&self) -> Result<(), SpecError> {
        if let PolicySpec::Cts {
            estimator: Some(estimator),
            ..
        } = self
        {
            estimator.validate()?;
        }
        Ok(())
    }

    /// Builds the policy against a concrete environment.
    ///
    /// Combinatorial policies require `family`; policies that keep one
    /// estimator per strategy additionally require the family to be
    /// enumerable within the default budget.
    ///
    /// # Errors
    ///
    /// [`SpecError::MissingFamily`], [`SpecError::NotEnumerable`], or
    /// [`SpecError::Invalid`] for inconsistent hyperparameters.
    pub fn build(
        &self,
        bandit: &NetworkedBandit,
        family: Option<&StrategyFamily>,
    ) -> Result<AnyPolicy, SpecError> {
        let graph = bandit.graph();
        let k = bandit.num_arms();
        let need_family = || {
            family.ok_or(SpecError::MissingFamily {
                policy: self.display_name(),
            })
        };
        let enumerate = |family: &StrategyFamily| {
            family.enumerate(graph).ok_or(SpecError::NotEnumerable {
                policy: self.display_name(),
            })
        };
        Ok(match self {
            PolicySpec::DflSso => AnyPolicy::single(core_policies::DflSso::new(graph.clone())),
            PolicySpec::DflSsr => AnyPolicy::single(core_policies::DflSsr::new(graph.clone())),
            PolicySpec::DflSsoGreedyNeighbor => {
                AnyPolicy::single(core_policies::DflSsoGreedyNeighbor::new(graph.clone()))
            }
            PolicySpec::DflSsrGreedyNeighbor => {
                AnyPolicy::single(core_policies::DflSsrGreedyNeighbor::new(graph.clone()))
            }
            PolicySpec::DflCso => {
                let strategies = enumerate(need_family()?)?;
                AnyPolicy::combinatorial(core_policies::DflCso::from_strategies(graph, strategies))
            }
            PolicySpec::DflCsr => AnyPolicy::combinatorial(core_policies::DflCsr::new(
                graph.clone(),
                need_family()?.clone(),
            )),
            PolicySpec::Moss { horizon } => AnyPolicy::single(match horizon {
                Some(n) => baselines::Moss::with_horizon(k, *n),
                None => baselines::Moss::new(k),
            }),
            PolicySpec::Ucb1 => AnyPolicy::single(baselines::Ucb1::new(k)),
            PolicySpec::UcbTuned => AnyPolicy::single(baselines::UcbTuned::new(k)),
            PolicySpec::KlUcb { c } => AnyPolicy::single(match c {
                Some(c) => baselines::KlUcb::with_constant(k, *c),
                None => baselines::KlUcb::new(k),
            }),
            PolicySpec::UcbV { zeta, c } => AnyPolicy::single(match (zeta, c) {
                (Some(zeta), Some(c)) => baselines::UcbV::with_constants(k, *zeta, *c),
                (None, None) => baselines::UcbV::new(k),
                _ => {
                    return Err(SpecError::Invalid {
                        context: "PolicySpec::UcbV",
                        message: "zeta and c must be given together (or both omitted)".into(),
                    })
                }
            }),
            PolicySpec::EpsilonGreedy { epsilon, seed } => {
                AnyPolicy::single(baselines::EpsilonGreedy::new(k, *epsilon, *seed))
            }
            PolicySpec::DecayingEpsilonGreedy { c, seed } => {
                AnyPolicy::single(baselines::EpsilonGreedy::decaying(k, *c, *seed))
            }
            PolicySpec::Softmax { tau, seed } => {
                AnyPolicy::single(baselines::Softmax::new(k, *tau, *seed))
            }
            PolicySpec::Exp3 { gamma, seed } => {
                AnyPolicy::single(baselines::Exp3::new(k, *gamma, *seed))
            }
            PolicySpec::ThompsonBernoulli { seed } => {
                AnyPolicy::single(baselines::ThompsonBernoulli::new(k, *seed))
            }
            PolicySpec::RandomSingle { seed } => {
                AnyPolicy::single(baselines::RandomSingle::new(k, *seed))
            }
            PolicySpec::Cucb => AnyPolicy::combinatorial(baselines::Cucb::new(
                graph.clone(),
                need_family()?.clone(),
            )),
            PolicySpec::Llr => {
                AnyPolicy::combinatorial(baselines::Llr::new(graph.clone(), need_family()?.clone()))
            }
            PolicySpec::CombEpsilonGreedy { c, seed } => AnyPolicy::combinatorial(
                baselines::CombEpsilonGreedy::new(graph.clone(), need_family()?.clone(), *c, *seed),
            ),
            PolicySpec::NaiveComArmMoss => {
                let strategies = enumerate(need_family()?)?;
                AnyPolicy::combinatorial(baselines::NaiveComArmMoss::new(strategies))
            }
            PolicySpec::RandomCombinatorial { seed } => {
                let strategies = enumerate(need_family()?)?;
                AnyPolicy::combinatorial(baselines::RandomCombinatorial::new(strategies, *seed))
            }
            PolicySpec::Cts { seed, estimator } => {
                let kind = match estimator {
                    Some(spec) => {
                        spec.validate()?;
                        spec.build()
                    }
                    None => core_policies::EstimatorKind::Stationary,
                };
                AnyPolicy::combinatorial(core_policies::CombinatorialThompson::with_estimator(
                    graph.clone(),
                    need_family()?.clone(),
                    kind,
                    *seed,
                ))
            }
        })
    }
}

// ---------------------------------------------------------------------------
// Side bonus, feedback schedule
// ---------------------------------------------------------------------------

/// Which side bonus neighbours yield (Section II): crossing it with the
/// policy's play mode selects one of the paper's four scenarios
/// (SSO / SSR / CSO / CSR).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SideBonus {
    /// Side **observation**: neighbours' samples are revealed, only the pulled
    /// arm's (or strategy's) direct reward is collected (Equations 1–2).
    Observation,
    /// Side **reward**: the whole neighbourhood's reward is collected
    /// (Equations 3–4).
    Reward,
}

/// When a hosted tenant folds delivered feedback into its estimators — the
/// serializable counterpart of `netband_serve::FlushPolicy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedbackSpec {
    /// Apply every event as soon as it arrives, and flush before every decide
    /// (the regime under which a single-shard engine reproduces the batch
    /// simulation bit for bit).
    Immediate,
    /// Let events accumulate and apply them in round-ordered batches of up to
    /// `max_pending`; decides may run on stale estimators in between (the
    /// delayed-feedback regime). `max_pending` must be at least 1.
    Batched {
        /// Flush threshold (≥ 1).
        max_pending: usize,
    },
}

impl FeedbackSpec {
    /// Validates the schedule (rejects `Batched { max_pending: 0 }`).
    pub fn validate(&self) -> Result<(), SpecError> {
        match self {
            FeedbackSpec::Batched { max_pending: 0 } => Err(SpecError::Invalid {
                context: "FeedbackSpec::Batched",
                message: "max_pending must be at least 1".into(),
            }),
            _ => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------------
// DriftSpec
// ---------------------------------------------------------------------------

/// Gradual sinusoidal mean drift: arm `i`'s mean is offset by
/// `amplitude · sin(2π · (round/period + i/K))` before clamping to `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradualDriftSpec {
    /// Peak mean offset (`|amplitude|` should stay well below 1).
    pub amplitude: f64,
    /// Oscillation period in rounds (≥ 1).
    pub period: u64,
}

/// An abrupt change point: from `round` on, the base mean vector is rotated
/// by a further `rotation` positions (rotations accumulate across change
/// points), so the identity of the best arm moves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChangePointSpec {
    /// First round the rotation applies to.
    pub round: u64,
    /// Additional rotation applied from `round` on.
    pub rotation: usize,
}

/// Arm churn: `arm` is dead (mean forced to 0) for every round in
/// `[from, to)` — e.g. an ad creative paused, a channel jammed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnWindowSpec {
    /// The churned arm.
    pub arm: ArmId,
    /// First dead round (inclusive).
    pub from: u64,
    /// First live round again (exclusive end).
    pub to: u64,
}

/// Deterministic nonstationarity for a workload — the serializable
/// counterpart of [`netband_env::DriftSchedule`].
///
/// Drift is a pure function of the round number (it consumes no randomness),
/// so a drifting world snapshots and restores bit-exactly: the serialized
/// round counter alone pins the mean vector. All three ingredients compose:
/// change-point rotation is applied first, then gradual drift, then churn,
/// then the result is clamped to `[0, 1]`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DriftSpec {
    /// Gradual sinusoidal drift, if any.
    pub gradual: Option<GradualDriftSpec>,
    /// Abrupt change points, in increasing round order.
    pub change_points: Vec<ChangePointSpec>,
    /// Arm churn windows.
    pub churn: Vec<ChurnWindowSpec>,
}

impl DriftSpec {
    /// Checks the schedule against a workload with `num_arms` arms.
    pub fn validate(&self, num_arms: usize) -> Result<(), SpecError> {
        if let Some(gradual) = &self.gradual {
            if !gradual.amplitude.is_finite() || gradual.amplitude.abs() > 1.0 {
                return Err(SpecError::Invalid {
                    context: "DriftSpec",
                    message: format!(
                        "gradual amplitude must be finite with |amplitude| <= 1, got {}",
                        gradual.amplitude
                    ),
                });
            }
            if gradual.period == 0 {
                return Err(SpecError::Invalid {
                    context: "DriftSpec",
                    message: "gradual period must be at least 1".into(),
                });
            }
        }
        for pair in self.change_points.windows(2) {
            if pair[1].round <= pair[0].round {
                return Err(SpecError::Invalid {
                    context: "DriftSpec",
                    message: format!(
                        "change points must have strictly increasing rounds, got {} then {}",
                        pair[0].round, pair[1].round
                    ),
                });
            }
        }
        for window in &self.churn {
            if window.from >= window.to {
                return Err(SpecError::Invalid {
                    context: "DriftSpec",
                    message: format!(
                        "churn window must have from < to, got [{}, {})",
                        window.from, window.to
                    ),
                });
            }
            if window.arm >= num_arms {
                return Err(SpecError::Invalid {
                    context: "DriftSpec",
                    message: format!(
                        "churn arm {} out of range for {} arms",
                        window.arm, num_arms
                    ),
                });
            }
        }
        Ok(())
    }

    /// `true` when the schedule changes nothing (no gradual term, no change
    /// points, no churn) — building it still yields a schedule, but runners
    /// may take the stationary fast path.
    pub fn is_trivial(&self) -> bool {
        self.gradual.is_none() && self.change_points.is_empty() && self.churn.is_empty()
    }

    /// The `netband_env` drift schedule this spec describes.
    pub fn build(&self) -> DriftSchedule {
        DriftSchedule {
            gradual: self.gradual.map(|g| GradualDrift {
                amplitude: g.amplitude,
                period: g.period,
            }),
            change_points: self
                .change_points
                .iter()
                .map(|cp| ChangePoint {
                    round: cp.round,
                    rotation: cp.rotation,
                })
                .collect(),
            churn: self
                .churn
                .iter()
                .map(|w| ChurnWindow {
                    arm: w.arm,
                    from: w.from,
                    to: w.to,
                })
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// WorkloadSpec
// ---------------------------------------------------------------------------

/// A complete environment description: graph model, arm bank, optional
/// feasible family, and the seed that materialises the random parts.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// The relation-graph model.
    pub graph: GraphSpec,
    /// The arm bank.
    pub arms: ArmsSpec,
    /// The feasible strategy family, if the workload supports combinatorial
    /// play.
    pub family: Option<FamilySpec>,
    /// Deterministic nonstationarity; `None` (the default, and the only value
    /// the presets use) means the arm means never move.
    pub drift: Option<DriftSpec>,
    /// Seed of the instance RNG. The graph is drawn first, then the arm bank,
    /// from one `StdRng` stream — the same order as the hand-written workload
    /// presets, so spec-built instances are bit-identical to them.
    pub seed: u64,
}

impl WorkloadSpec {
    /// Checks internal consistency (graph and arm bank agree on `K`).
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.graph.num_arms() != self.arms.num_arms() {
            return Err(SpecError::Invalid {
                context: "WorkloadSpec",
                message: format!(
                    "graph has {} arms but the arm bank has {}",
                    self.graph.num_arms(),
                    self.arms.num_arms()
                ),
            });
        }
        if let Some(drift) = &self.drift {
            drift.validate(self.graph.num_arms())?;
        }
        Ok(())
    }

    /// A short human-readable description used as the built workload's name.
    pub fn describe(&self) -> String {
        let graph = match &self.graph {
            GraphSpec::ErdosRenyi {
                num_arms,
                edge_prob,
            } => format!("er(K={num_arms}, p={edge_prob})"),
            GraphSpec::PreferentialAttachment {
                num_arms,
                edges_per_node,
            } => format!("ba(K={num_arms}, m={edges_per_node})"),
            GraphSpec::PlantedPartition {
                num_arms,
                communities,
                ..
            } => format!("pp(K={num_arms}, c={communities})"),
            GraphSpec::RandomGeometric { num_arms, radius } => {
                format!("rgg(K={num_arms}, r={radius})")
            }
            GraphSpec::Explicit { num_arms, edges } => {
                format!("explicit(K={num_arms}, |E|={})", edges.len())
            }
        };
        format!("spec-workload {graph} seed={}", self.seed)
    }

    /// Materialises the workload: seeds one RNG, draws the graph, then the
    /// arm bank, and attaches the family.
    ///
    /// # Errors
    ///
    /// [`SpecError::Invalid`] on inconsistent sizes or a malformed explicit
    /// edge list; [`SpecError::Env`] if the environment rejects the instance.
    pub fn build(&self) -> Result<Workload, SpecError> {
        self.validate()?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let graph = self.graph.build(&mut rng)?;
        let arms = self.arms.build(&mut rng);
        let num_arms = graph.num_vertices();
        let bandit = NetworkedBandit::new(graph, arms)?;
        Ok(Workload {
            name: self.describe(),
            bandit,
            family: self.family.as_ref().map(|f| f.build(num_arms)),
            drift: self.drift.as_ref().map(|d| d.build()),
        })
    }
}

// ---------------------------------------------------------------------------
// ScenarioSpec
// ---------------------------------------------------------------------------

/// One fully declared experiment: workload × policy × scenario × schedule.
///
/// This is the unit the whole workspace consumes — `netband_sim::run_spec`
/// simulates it, `netband_serve` hosts it as a tenant, `netband-experiments`
/// declares its figure grids with it, and `netband-bench` tracks its build
/// cost.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Schema version; must equal [`SPEC_VERSION`].
    pub version: u64,
    /// Human-readable scenario name, used in reports.
    pub name: String,
    /// The environment.
    pub workload: WorkloadSpec,
    /// The learning policy.
    pub policy: PolicySpec,
    /// Side observation vs side reward; with the policy's play mode this
    /// selects SSO, SSR, CSO, or CSR.
    pub side_bonus: SideBonus,
    /// Number of time slots `n` per run.
    pub horizon: usize,
    /// Number of independent replications (≥ 1) for `replicate_spec`-style
    /// consumers; plain `run_spec` runs replication 0 only.
    pub replications: usize,
    /// Base seed of the reward sample path (replication `r` uses `seed + r`,
    /// and regenerates the workload with `workload.seed + r`).
    pub seed: u64,
    /// Feedback schedule for serving-side consumers; the batch simulator
    /// always behaves as [`FeedbackSpec::Immediate`].
    pub feedback: FeedbackSpec,
}

impl ScenarioSpec {
    /// Checks internal consistency without building anything.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.version != SPEC_VERSION {
            return Err(SpecError::UnsupportedVersion {
                found: self.version,
                supported: SPEC_VERSION,
            });
        }
        self.workload.validate()?;
        self.policy.validate()?;
        self.feedback.validate()?;
        if self.replications == 0 {
            return Err(SpecError::Invalid {
                context: "ScenarioSpec",
                message: "replications must be at least 1".into(),
            });
        }
        if self.policy.is_combinatorial() && self.workload.family.is_none() {
            return Err(SpecError::MissingFamily {
                policy: self.policy.display_name(),
            });
        }
        Ok(())
    }

    /// Builds the scenario into a runnable instance: environment, family,
    /// and policy.
    pub fn build(&self) -> Result<BuiltScenario, SpecError> {
        self.build_replication(0)
    }

    /// Builds replication `r`: the workload is regenerated with
    /// `workload.seed + r` and the run seed is `seed + r` (replications are
    /// independent instances, matching the paper's averaged curves).
    pub fn build_replication(&self, r: u64) -> Result<BuiltScenario, SpecError> {
        self.validate()?;
        let workload = WorkloadSpec {
            seed: self.workload.seed.wrapping_add(r),
            ..self.workload.clone()
        }
        .build()?;
        let policy = self
            .policy
            .build(&workload.bandit, workload.family.as_ref())?;
        Ok(BuiltScenario {
            name: self.name.clone(),
            bandit: workload.bandit,
            family: workload.family,
            policy,
            side_bonus: self.side_bonus,
            horizon: self.horizon,
            seed: self.seed.wrapping_add(r),
            drift: workload.drift,
        })
    }
}

/// A built, runnable scenario: the product of [`ScenarioSpec::build`].
#[derive(Debug, Clone)]
pub struct BuiltScenario {
    /// Scenario name (from the spec).
    pub name: String,
    /// The environment instance.
    pub bandit: NetworkedBandit,
    /// The feasible family, if the workload is combinatorial.
    pub family: Option<StrategyFamily>,
    /// The built policy.
    pub policy: AnyPolicy,
    /// Side observation vs side reward.
    pub side_bonus: SideBonus,
    /// Time slots per run.
    pub horizon: usize,
    /// Seed of the reward sample path.
    pub seed: u64,
    /// Deterministic drift schedule; `None` (or a trivial schedule) means the
    /// world is stationary and runners take the classic fast path.
    pub drift: Option<DriftSchedule>,
}

// ---------------------------------------------------------------------------
// FleetSpec
// ---------------------------------------------------------------------------

/// One tenant of a serving fleet: an id plus the scenario it hosts.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetTenant {
    /// Tenant id (routes the tenant to a shard).
    pub id: String,
    /// The scenario the tenant hosts.
    pub scenario: ScenarioSpec,
}

/// A whole multi-tenant serving fleet declared as one document —
/// `netband_serve::ServeEngine::register_fleet` boots every tenant from it.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// Schema version; must equal [`SPEC_VERSION`].
    pub version: u64,
    /// Fleet name, for reports.
    pub name: String,
    /// The tenants to register.
    pub tenants: Vec<FleetTenant>,
}

impl FleetSpec {
    /// Checks the fleet: version, per-scenario validity, and unique ids.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.version != SPEC_VERSION {
            return Err(SpecError::UnsupportedVersion {
                found: self.version,
                supported: SPEC_VERSION,
            });
        }
        for (i, tenant) in self.tenants.iter().enumerate() {
            if self.tenants[..i].iter().any(|t| t.id == tenant.id) {
                return Err(SpecError::Invalid {
                    context: "FleetSpec",
                    message: format!("duplicate tenant id {:?}", tenant.id),
                });
            }
            tenant.scenario.validate()?;
        }
        Ok(())
    }
}
