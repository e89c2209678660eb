//! The per-round step shared by every driver: a [`World`] and its [`Play`].
//!
//! A round — simulated by the runners in [`crate::runner`], or served by a
//! `netband-serve` tenant — is scored the same way: the round's benchmark
//! (Equations 1–4), one pull, and the realised reward collected under the
//! scenario's reward model together with the expected per-round reward of
//! the played action (for pseudo regret). A [`World`] holds the bandit, the
//! [`Play`] made in it and an optional drift schedule, and is the single
//! source of truth for those numbers. The runners, the serving tenant and
//! the test suites' reply recorder all step through it, which is what makes
//! the engine's regret accounting bit-identical to the simulation's (the
//! golden-trace suite pins the exact float expressions, summation order
//! included).
//!
//! A drifting world moves its means with the round: [`World::benchmark`]
//! writes round `t`'s means (`DriftSchedule::means_at`) into the world's
//! scratch and charges regret against that round's optimum — the dynamic
//! oracle of the nonstationary-bandit literature — and the round's pull and
//! score read the same means. A stationary world computes its benchmark
//! once.

use netband_env::feasible::FeasibleSet;
use netband_env::{
    ArmId, CombinatorialFeedback, DriftSchedule, EnvError, NetworkedBandit, PullBuffer,
    SinglePlayFeedback, StrategyFamily,
};

use crate::runner::{CombinatorialScenario, SingleScenario};

/// What a run plays each round and how it is paid: one arm under a
/// single-play scenario, or one strategy of a family under a combinatorial
/// scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum Play {
    /// One arm per round (SSO or SSR).
    Single(SingleScenario),
    /// One feasible strategy of the family per round (CSO or CSR).
    Combinatorial(StrategyFamily, CombinatorialScenario),
}

/// The world a run plays in: the bandit, the [`Play`], and the drift
/// schedule that moves its means, if any.
///
/// Each round calls [`World::benchmark`] first; the round's pull
/// ([`World::pull_arm`] / [`World::pull_strategy`]) and score
/// ([`World::score_arm`] / [`World::score_strategy`]) then read the means
/// that call set.
#[derive(Debug, Clone)]
pub struct World {
    bandit: NetworkedBandit,
    play: Play,
    /// Non-trivial drift schedule; `None` for a stationary world.
    drift: Option<DriftSchedule>,
    /// The current round's drifted means; empty when stationary (the base
    /// means are `bandit.means()`).
    means: Vec<f64>,
    /// The stationary benchmark, computed once.
    benchmark: f64,
}

impl World {
    /// A world playing `play` in `bandit`, under `drift` when given. A
    /// trivial schedule is dropped, so `drift: {}` behaves (and scores)
    /// exactly like no drift at all.
    pub fn new(bandit: NetworkedBandit, play: Play, drift: Option<DriftSchedule>) -> World {
        let drift = drift.filter(|d| !d.is_trivial());
        let means = match drift {
            Some(_) => vec![0.0; bandit.num_arms()],
            None => Vec::new(),
        };
        let benchmark = optimum(&bandit, &play, bandit.means());
        World {
            bandit,
            play,
            drift,
            means,
            benchmark,
        }
    }

    /// The bandit instance.
    pub fn bandit(&self) -> &NetworkedBandit {
        &self.bandit
    }

    /// The benchmark (optimal expected reward) of round `round` (1-based).
    /// A drifting world first moves its means to that round's; drift is a
    /// pure function of the round, so this consumes no randomness.
    pub fn benchmark(&mut self, round: u64) -> f64 {
        match &self.drift {
            None => self.benchmark,
            Some(drift) => {
                drift.means_at(self.bandit.means(), round, &mut self.means);
                optimum(&self.bandit, &self.play, &self.means)
            }
        }
    }

    /// Pulls `arm`, drawing the round's rewards into `buf`: from the arm
    /// bank when stationary, as one Bernoulli draw per arm of the round's
    /// means when drifting.
    ///
    /// # Panics
    ///
    /// Panics if `arm` is out of range.
    pub fn pull_arm<'b>(
        &self,
        arm: ArmId,
        rng: &mut dyn rand::RngCore,
        buf: &'b mut PullBuffer,
    ) -> &'b SinglePlayFeedback {
        match self.drift {
            None => buf.pull_single(&self.bandit, arm, rng),
            Some(_) => buf.pull_single_drifted(&self.bandit, &self.means, arm, rng),
        }
    }

    /// Pulls `strategy`; see [`World::pull_arm`].
    ///
    /// # Errors
    ///
    /// [`EnvError::InvalidStrategy`] if the strategy is empty or refers to
    /// an arm outside the instance.
    pub fn pull_strategy<'b>(
        &self,
        strategy: &[ArmId],
        rng: &mut dyn rand::RngCore,
        buf: &'b mut PullBuffer,
    ) -> Result<&'b CombinatorialFeedback, EnvError> {
        debug_assert!(
            matches!(&self.play, Play::Combinatorial(family, _)
                if family.contains(strategy, self.bandit.graph())),
            "the policy proposed an infeasible strategy {strategy:?}"
        );
        match self.drift {
            None => buf.pull_strategy(&self.bandit, strategy, rng),
            Some(_) => buf.pull_strategy_drifted(&self.bandit, &self.means, strategy, rng),
        }
    }

    /// Scores one single-play pull under the round's means: returns
    /// `(reward, mean)`, where `reward` is the realised reward the scenario
    /// charges and `mean` the expected per-round reward of the played arm.
    ///
    /// # Panics
    ///
    /// Panics if the world plays strategies, or the feedback references an
    /// arm out of range.
    pub fn score_arm(&self, feedback: &SinglePlayFeedback) -> (f64, f64) {
        let means = self.round_means();
        match &self.play {
            Play::Single(SingleScenario::SideObservation) => {
                (feedback.direct_reward, means[feedback.arm])
            }
            Play::Single(SingleScenario::SideReward) => (
                feedback.side_reward,
                self.bandit.side_reward_mean(feedback.arm, means),
            ),
            Play::Combinatorial(..) => panic!("a combinatorial world scores strategies, not arms"),
        }
    }

    /// Scores one combinatorial pull; see [`World::score_arm`].
    ///
    /// The feedback already carries the normalised strategy and its
    /// observation set `Y_x` (both sorted), so their means are summed straight
    /// off them — the terms and order of
    /// [`NetworkedBandit::strategy_direct_mean`] /
    /// [`NetworkedBandit::strategy_side_mean`], without rebuilding the
    /// neighbourhood union.
    ///
    /// # Panics
    ///
    /// Panics if the world plays single arms, or the feedback references an
    /// arm out of range.
    pub fn score_strategy(&self, feedback: &CombinatorialFeedback) -> (f64, f64) {
        let means = self.round_means();
        let (reward, played) = match &self.play {
            Play::Combinatorial(_, CombinatorialScenario::SideObservation) => {
                (feedback.direct_reward, &feedback.strategy)
            }
            Play::Combinatorial(_, CombinatorialScenario::SideReward) => {
                (feedback.side_reward, &feedback.observation_set)
            }
            Play::Single(_) => panic!("a single-play world scores arms, not strategies"),
        };
        (reward, played.iter().map(|&i| means[i]).sum::<f64>())
    }

    /// The means of the current round: the base means when stationary.
    fn round_means(&self) -> &[f64] {
        match self.drift {
            None => self.bandit.means(),
            Some(_) => &self.means,
        }
    }

    /// The benchmark a run of `horizon` rounds reports, given the sum of its
    /// per-round benchmarks: the stationary benchmark itself, or the horizon
    /// average of a drifting world's per-round optima.
    pub fn mean_benchmark(&self, optimal_sum: f64, horizon: usize) -> f64 {
        match (&self.drift, horizon) {
            (None, _) => self.benchmark,
            (Some(_), 0) => 0.0,
            (Some(_), n) => optimal_sum / n as f64,
        }
    }
}

/// The optimal expected per-round reward of `play` under `means`.
fn optimum(bandit: &NetworkedBandit, play: &Play, means: &[f64]) -> f64 {
    match play {
        Play::Single(SingleScenario::SideObservation) => bandit.best_single_direct_mean(means),
        Play::Single(SingleScenario::SideReward) => bandit.best_single_side_mean(means),
        Play::Combinatorial(family, CombinatorialScenario::SideObservation) => {
            bandit.best_strategy_direct_mean(family, means)
        }
        Play::Combinatorial(family, CombinatorialScenario::SideReward) => {
            bandit.best_strategy_side_mean(family, means)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netband_env::ArmSet;
    use netband_graph::generators;

    fn small_instance() -> NetworkedBandit {
        let graph = generators::path(4);
        NetworkedBandit::new(graph, ArmSet::bernoulli(&[0.2, 0.9, 0.4, 0.6])).unwrap()
    }

    fn world(play: Play) -> World {
        World::new(small_instance(), play, None)
    }

    #[test]
    fn single_scores_match_definitions() {
        let env = small_instance();
        let fb = env.feedback_single_from_samples(1, &[1.0, 0.0, 1.0, 0.0]);
        let (reward, mean) = world(Play::Single(SingleScenario::SideObservation)).score_arm(&fb);
        assert_eq!(reward, 0.0);
        assert!((mean - 0.9).abs() < 1e-12);
        let (reward, mean) = world(Play::Single(SingleScenario::SideReward)).score_arm(&fb);
        assert_eq!(reward, 2.0); // arms 0,1,2 revealed: 1 + 0 + 1
        assert!((mean - 1.5).abs() < 1e-12); // 0.2 + 0.9 + 0.4
    }

    #[test]
    fn combinatorial_scores_match_definitions() {
        let env = small_instance();
        let family = StrategyFamily::at_most_m(4, 2);
        let fb = env
            .feedback_strategy_from_samples(&[0, 3], &[1.0, 0.0, 1.0, 0.0])
            .unwrap();
        let cso = Play::Combinatorial(family.clone(), CombinatorialScenario::SideObservation);
        let (reward, mean) = world(cso).score_strategy(&fb);
        assert_eq!(reward, 1.0);
        assert!((mean - 0.8).abs() < 1e-12); // 0.2 + 0.6
        let csr = Play::Combinatorial(family, CombinatorialScenario::SideReward);
        let (reward, mean) = world(csr).score_strategy(&fb);
        assert_eq!(reward, 2.0); // Y = {0,1,2,3}
        assert!((mean - 2.1).abs() < 1e-12);
    }

    #[test]
    fn benchmarks_match_bandit_optima() {
        let env = small_instance();
        let means = env.means();
        let family = StrategyFamily::at_most_m(4, 2);
        let cases = [
            (
                Play::Single(SingleScenario::SideObservation),
                env.best_single_direct_mean(means),
            ),
            (
                Play::Single(SingleScenario::SideReward),
                env.best_single_side_mean(means),
            ),
            (
                Play::Combinatorial(family.clone(), CombinatorialScenario::SideObservation),
                env.best_strategy_direct_mean(&family, means),
            ),
            (
                Play::Combinatorial(family.clone(), CombinatorialScenario::SideReward),
                env.best_strategy_side_mean(&family, means),
            ),
        ];
        for (play, expected) in cases {
            let mut world = world(play);
            assert_eq!(world.benchmark(1), expected);
            assert_eq!(world.mean_benchmark(0.0, 10), expected);
        }
    }

    #[test]
    fn trivial_drift_schedules_are_dropped() {
        // Only a drifting world reads the per-round sum it is given; a
        // stationary one reports its cached benchmark.
        let play = Play::Single(SingleScenario::SideObservation);
        let trivial = World::new(
            small_instance(),
            play.clone(),
            Some(DriftSchedule::default()),
        );
        assert!(!trivial.mean_benchmark(f64::NAN, 50).is_nan());
        let rotating = DriftSchedule {
            change_points: vec![netband_env::ChangePoint {
                round: 10,
                rotation: 1,
            }],
            ..DriftSchedule::default()
        };
        let drifting = World::new(small_instance(), play, Some(rotating));
        assert!(drifting.mean_benchmark(f64::NAN, 50).is_nan());
    }
}
