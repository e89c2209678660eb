//! Multi-replication averaging, optionally in parallel.
//!
//! The paper's curves are expected regrets, i.e. averages over independent
//! replications of the simulation. [`replicate`] runs a caller-supplied closure
//! once per replication (each with its own seed), and aggregates the traces into
//! point-wise means and standard deviations. Replications are embarrassingly
//! parallel, so when `parallel` is enabled they are spread over
//! `std::thread::scope` worker threads.

use std::sync::Mutex;
use std::thread;

use crate::runner::RunResult;
use crate::stats::{mean_series, std_dev, std_series};

/// Configuration of a replication batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationConfig {
    /// Number of independent replications.
    pub replications: usize,
    /// Base seed; replication `r` receives seed `base_seed + r`.
    pub base_seed: u64,
    /// Run replications on multiple threads.
    pub parallel: bool,
    /// Number of worker threads when `parallel` (0 = one per available core,
    /// capped at 8).
    pub threads: usize,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig {
            replications: 20,
            base_seed: 0,
            parallel: true,
            threads: 0,
        }
    }
}

impl ReplicationConfig {
    /// A serial configuration with the given number of replications.
    pub fn serial(replications: usize, base_seed: u64) -> Self {
        ReplicationConfig {
            replications,
            base_seed,
            parallel: false,
            threads: 1,
        }
    }

    /// A parallel configuration with the given number of replications.
    pub fn parallel(replications: usize, base_seed: u64) -> Self {
        ReplicationConfig {
            replications,
            base_seed,
            parallel: true,
            threads: 0,
        }
    }

    fn worker_count(&self) -> usize {
        if !self.parallel {
            return 1;
        }
        let available = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        let requested = if self.threads == 0 {
            available.min(8)
        } else {
            self.threads
        };
        requested.clamp(1, self.replications.max(1))
    }
}

/// Point-wise aggregation of the regret traces of many replications of the same
/// policy.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AveragedRun {
    /// Name of the policy.
    pub policy: String,
    /// Number of replications aggregated.
    pub replications: usize,
    /// Horizon of each replication.
    pub horizon: usize,
    /// Mean (over replications) of the time-averaged realised regret `R_t / t`
    /// at every `t` — the paper's "expected regret" curves.
    pub expected_regret: Vec<f64>,
    /// Mean cumulative realised regret `R_t` at every `t` — the paper's
    /// "accumulated regret" curves.
    pub accumulated_regret: Vec<f64>,
    /// Point-wise standard deviation of the cumulative regret.
    pub accumulated_std: Vec<f64>,
    /// Mean of the time-averaged *pseudo*-regret at every `t`.
    pub expected_pseudo_regret: Vec<f64>,
    /// Final cumulative regret of every replication (for confidence intervals).
    pub final_regrets: Vec<f64>,
    /// Mean total reward per replication.
    pub mean_total_reward: f64,
}

impl AveragedRun {
    /// Mean of the final cumulative regrets.
    pub fn final_regret_mean(&self) -> f64 {
        crate::stats::mean(&self.final_regrets)
    }

    /// Sample standard deviation of the final cumulative regrets.
    pub fn final_regret_std(&self) -> f64 {
        std_dev(&self.final_regrets)
    }

    /// The final value of the expected-regret curve (`R_n / n`).
    pub fn final_expected_regret(&self) -> f64 {
        self.expected_regret.last().copied().unwrap_or(0.0)
    }
}

/// Aggregates a set of per-replication results into an [`AveragedRun`].
///
/// # Panics
///
/// Panics if `results` is empty or the runs have different horizons.
pub fn aggregate(results: &[RunResult]) -> AveragedRun {
    assert!(!results.is_empty(), "cannot aggregate zero replications");
    let horizon = results[0].horizon;
    assert!(
        results.iter().all(|r| r.horizon == horizon),
        "all replications must share the same horizon"
    );
    let time_avg: Vec<Vec<f64>> = results.iter().map(|r| r.trace.time_averaged()).collect();
    let cumulative: Vec<Vec<f64>> = results.iter().map(|r| r.trace.cumulative()).collect();
    let pseudo_avg: Vec<Vec<f64>> = results
        .iter()
        .map(|r| r.trace.time_averaged_pseudo())
        .collect();
    AveragedRun {
        policy: results[0].policy.clone(),
        replications: results.len(),
        horizon,
        expected_regret: mean_series(&time_avg),
        accumulated_regret: mean_series(&cumulative),
        accumulated_std: std_series(&cumulative),
        expected_pseudo_regret: mean_series(&pseudo_avg),
        final_regrets: results.iter().map(|r| r.total_regret()).collect(),
        mean_total_reward: crate::stats::mean(
            &results.iter().map(|r| r.total_reward).collect::<Vec<_>>(),
        ),
    }
}

/// Runs `config.replications` independent replications of `run_one` and
/// aggregates them.
///
/// `run_one(replication_index, seed)` must be deterministic given its arguments;
/// seeds are `base_seed + replication_index`.
///
/// # Panics
///
/// Panics if `config.replications == 0`, if a worker thread panics, or if the
/// replications disagree on the horizon.
pub fn replicate<F>(config: &ReplicationConfig, run_one: F) -> AveragedRun
where
    F: Fn(usize, u64) -> RunResult + Sync,
{
    assert!(
        config.replications > 0,
        "at least one replication is required"
    );
    let results: Vec<RunResult> = if config.worker_count() <= 1 {
        (0..config.replications)
            .map(|r| run_one(r, config.base_seed + r as u64))
            .collect()
    } else {
        let slots: Mutex<Vec<Option<RunResult>>> = Mutex::new(vec![None; config.replications]);
        let next: Mutex<usize> = Mutex::new(0);
        let workers = config.worker_count();
        thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let r = {
                        let mut guard = next.lock().expect("replication queue poisoned");
                        if *guard >= config.replications {
                            break;
                        }
                        let r = *guard;
                        *guard += 1;
                        r
                    };
                    let result = run_one(r, config.base_seed + r as u64);
                    slots.lock().expect("replication slots poisoned")[r] = Some(result);
                });
            }
        });
        slots
            .into_inner()
            .expect("replication slots poisoned")
            .into_iter()
            .map(|slot| slot.expect("every replication slot must be filled"))
            .collect()
    };
    aggregate(&results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_single, SingleScenario};
    use netband_core::DflSso;
    use netband_env::{ArmSet, NetworkedBandit};
    use netband_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn make_bandit(seed: u64) -> NetworkedBandit {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = generators::erdos_renyi(10, 0.4, &mut rng);
        let arms = ArmSet::random_bernoulli(10, &mut rng);
        NetworkedBandit::new(graph, arms).unwrap()
    }

    fn one_run(seed: u64, horizon: usize) -> RunResult {
        let bandit = make_bandit(42);
        let mut policy = DflSso::new(bandit.graph().clone());
        run_single(
            &bandit,
            &mut policy,
            SingleScenario::SideObservation,
            horizon,
            seed,
        )
    }

    #[test]
    fn aggregate_produces_consistent_shapes() {
        let results: Vec<RunResult> = (0..4).map(|r| one_run(r, 100)).collect();
        let avg = aggregate(&results);
        assert_eq!(avg.replications, 4);
        assert_eq!(avg.horizon, 100);
        assert_eq!(avg.expected_regret.len(), 100);
        assert_eq!(avg.accumulated_regret.len(), 100);
        assert_eq!(avg.accumulated_std.len(), 100);
        assert_eq!(avg.final_regrets.len(), 4);
        assert_eq!(avg.policy, "DFL-SSO");
        // The last accumulated value equals the mean of the final regrets.
        assert!(
            (avg.accumulated_regret[99] - avg.final_regret_mean()).abs() < 1e-9,
            "{} vs {}",
            avg.accumulated_regret[99],
            avg.final_regret_mean()
        );
        assert!((avg.final_expected_regret() - avg.final_regret_mean() / 100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "zero replications")]
    fn aggregate_rejects_empty_input() {
        aggregate(&[]);
    }

    #[test]
    #[should_panic(expected = "same horizon")]
    fn aggregate_rejects_mixed_horizons() {
        let a = one_run(0, 50);
        let b = one_run(1, 60);
        aggregate(&[a, b]);
    }

    #[test]
    fn serial_and_parallel_replication_agree() {
        let serial_cfg = ReplicationConfig::serial(6, 100);
        let parallel_cfg = ReplicationConfig {
            replications: 6,
            base_seed: 100,
            parallel: true,
            threads: 3,
        };
        let serial = replicate(&serial_cfg, |_, seed| one_run(seed, 80));
        let parallel = replicate(&parallel_cfg, |_, seed| one_run(seed, 80));
        assert_eq!(serial, parallel);
    }

    /// `ReplicationConfig::parallel` must be a pure performance knob: for a
    /// fixed base seed, every worker-count choice — and every rerun, i.e.
    /// every thread interleaving the scheduler happens to produce — yields an
    /// `AveragedRun` identical to the serial aggregate. Replication results
    /// are collected into per-index slots, so aggregation order is
    /// deterministic no matter which worker finishes first.
    #[test]
    fn parallel_aggregates_are_interleaving_independent() {
        let reference = replicate(&ReplicationConfig::serial(8, 400), |_, seed| {
            one_run(seed, 60)
        });
        for threads in [2, 3, 5, 8] {
            let cfg = ReplicationConfig {
                replications: 8,
                base_seed: 400,
                parallel: true,
                threads,
            };
            // Several reruns per worker count: each run races the workers
            // differently, none may change a bit of the aggregate.
            for attempt in 0..3 {
                let parallel = replicate(&cfg, |_, seed| one_run(seed, 60));
                assert_eq!(
                    reference, parallel,
                    "parallel aggregate diverged (threads={threads}, attempt={attempt})"
                );
            }
        }
        // The named constructor (auto-sized worker pool) agrees too.
        let auto = replicate(&ReplicationConfig::parallel(8, 400), |_, seed| {
            one_run(seed, 60)
        });
        assert_eq!(reference, auto);
    }

    #[test]
    fn replication_seeds_differ() {
        let cfg = ReplicationConfig::serial(3, 7);
        let seen: Mutex<Vec<(usize, u64)>> = Mutex::new(Vec::new());
        let _ = replicate(&cfg, |r, seed| {
            seen.lock().unwrap().push((r, seed));
            one_run(seed, 10)
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, vec![(0, 7), (1, 8), (2, 9)]);
    }

    #[test]
    fn worker_count_is_sane() {
        assert_eq!(ReplicationConfig::serial(10, 0).worker_count(), 1);
        let par = ReplicationConfig {
            replications: 2,
            base_seed: 0,
            parallel: true,
            threads: 16,
        };
        assert!(par.worker_count() <= 2);
        let default_cfg = ReplicationConfig::default();
        assert!(default_cfg.worker_count() >= 1);
    }
}
