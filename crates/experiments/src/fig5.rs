//! Figure 5 — expected regret of DFL-SSR (single-play with side reward).
//!
//! Paper setting: same 100-arm random workload as Fig. 3, but the decision maker
//! collects the entire neighbourhood's reward and regret is measured against
//! `u_1 = max_i Σ_{j ∈ N_i} μ_j` (Equation 3). The expected regret converges to
//! 0 "dramatically" (the side reward of every arm is learned from overlapping
//! neighbourhood observations).

use netband_sim::export::columns_to_csv;
use netband_sim::replicate::aggregate;
use netband_sim::run_spec;
use netband_sim::{AveragedRun, RunResult};
use netband_spec::{PolicySpec, ScenarioSpec, SideBonus};

use crate::common::{grid_cell, paper_workload_spec, Scale};
use crate::report::{expected_regret_table, summary_line};

/// Configuration of the Fig. 5 experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig5Config {
    /// Number of arms `K` (paper: 100).
    pub num_arms: usize,
    /// Edge probability of the Erdős–Rényi relation graph.
    pub edge_prob: f64,
    /// Horizon and replication count.
    pub scale: Scale,
    /// Base RNG seed.
    pub base_seed: u64,
    /// Also run the no-side-information baselines (MOSS on direct rewards and
    /// uniform random play) under the SSR regret for context. The paper plots
    /// only DFL-SSR; the baselines are an extension controlled by this flag.
    pub include_baselines: bool,
}

impl Default for Fig5Config {
    fn default() -> Self {
        Fig5Config {
            num_arms: 100,
            edge_prob: 0.3,
            scale: Scale::full(),
            base_seed: 5_001,
            include_baselines: true,
        }
    }
}

/// The averaged curves of Fig. 5.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Result {
    /// DFL-SSR (Algorithm 3).
    pub dfl_ssr: AveragedRun,
    /// Optional baselines evaluated under the same side-reward regret.
    pub baselines: Vec<AveragedRun>,
}

impl Fig5Result {
    /// `true` when the time-averaged regret decreases from early to late in the
    /// run — the "converges towards 0" check.
    pub fn regret_trends_to_zero(&self) -> bool {
        crate::common::trends_to_zero(&self.dfl_ssr.expected_regret)
    }

    /// Human-readable report.
    pub fn report(&self) -> String {
        let mut runs: Vec<&AveragedRun> = vec![&self.dfl_ssr];
        runs.extend(self.baselines.iter());
        let mut out = String::from("Figure 5 — DFL-SSR expected regret\n");
        for run in &runs {
            out.push_str(&summary_line(run));
            out.push('\n');
        }
        out.push('\n');
        out.push_str(&expected_regret_table(&runs, 20));
        out
    }

    /// CSV of the expected-regret curves.
    pub fn csv(&self) -> String {
        let t: Vec<f64> = (1..=self.dfl_ssr.horizon).map(|x| x as f64).collect();
        let mut columns: Vec<(&str, &[f64])> = vec![
            ("t", &t),
            ("dfl_ssr_expected", &self.dfl_ssr.expected_regret),
            ("dfl_ssr_accumulated", &self.dfl_ssr.accumulated_regret),
        ];
        for baseline in &self.baselines {
            columns.push((baseline.policy.as_str(), &baseline.expected_regret));
        }
        // Column names borrow from `self`, so build the CSV before returning.
        columns_to_csv(&columns)
    }
}

impl Fig5Config {
    /// The declarative grid of one replication: DFL-SSR first, then (when
    /// baselines are enabled) MOSS and uniform random play, all under the SSR
    /// regret on the same workload document and run seed.
    pub fn replication_specs(&self, rep: usize) -> Vec<ScenarioSpec> {
        let seed = self.base_seed + rep as u64;
        let workload = paper_workload_spec(self.num_arms, self.edge_prob, seed);
        let run_seed = seed.wrapping_mul(0xA24B_AED4);
        let mut policies = vec![("dfl-ssr", PolicySpec::DflSsr)];
        if self.include_baselines {
            policies.push(("moss", PolicySpec::Moss { horizon: None }));
            policies.push(("random", PolicySpec::RandomSingle { seed }));
        }
        policies
            .into_iter()
            .map(|(name, policy)| {
                grid_cell(
                    format!("fig5/{name}/rep{rep}"),
                    workload.clone(),
                    policy,
                    SideBonus::Reward,
                    self.scale.horizon,
                    run_seed,
                )
            })
            .collect()
    }
}

/// Runs the Fig. 5 experiment: every grid cell is a [`ScenarioSpec`] driven
/// through [`run_spec`].
pub fn run(config: &Fig5Config) -> Fig5Result {
    let mut per_policy: Vec<Vec<RunResult>> = Vec::new();
    for rep in 0..config.scale.replications {
        let specs = config.replication_specs(rep);
        if per_policy.is_empty() {
            per_policy = specs.iter().map(|_| Vec::new()).collect();
        }
        for (idx, spec) in specs.iter().enumerate() {
            per_policy[idx].push(run_spec(spec).expect("fig5 scenario spec is consistent"));
        }
    }
    let mut aggregates = per_policy.iter().map(|runs| aggregate(runs));
    let dfl_ssr = aggregates.next().expect("DFL-SSR is always in the grid");
    Fig5Result {
        dfl_ssr,
        baselines: aggregates.collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> Fig5Config {
        Fig5Config {
            num_arms: 20,
            edge_prob: 0.3,
            scale: Scale {
                horizon: 600,
                replications: 2,
            },
            base_seed: 31,
            include_baselines: true,
        }
    }

    #[test]
    fn fig5_regret_trends_to_zero() {
        let result = run(&quick_config());
        assert!(result.regret_trends_to_zero());
    }

    #[test]
    fn fig5_dfl_ssr_beats_a_policy_that_ignores_the_side_reward_objective() {
        let result = run(&quick_config());
        // MOSS optimises the direct reward, so under the SSR regret it should do
        // worse than DFL-SSR (which learns the neighbourhood sums).
        let moss = result
            .baselines
            .iter()
            .find(|b| b.policy == "MOSS")
            .expect("baselines requested");
        assert!(
            result.dfl_ssr.final_regret_mean() < moss.final_regret_mean(),
            "DFL-SSR {} vs MOSS {}",
            result.dfl_ssr.final_regret_mean(),
            moss.final_regret_mean()
        );
    }

    #[test]
    fn fig5_without_baselines_is_lighter() {
        let result = run(&Fig5Config {
            include_baselines: false,
            scale: Scale {
                horizon: 100,
                replications: 2,
            },
            num_arms: 10,
            ..quick_config()
        });
        assert!(result.baselines.is_empty());
        assert!(result.report().contains("Figure 5"));
        assert!(result.csv().starts_with("t,dfl_ssr_expected"));
    }

    #[test]
    fn fig5_is_deterministic() {
        let cfg = Fig5Config {
            num_arms: 10,
            scale: Scale {
                horizon: 100,
                replications: 2,
            },
            ..quick_config()
        };
        assert_eq!(run(&cfg), run(&cfg));
    }

    #[test]
    fn default_matches_paper_scale() {
        let cfg = Fig5Config::default();
        assert_eq!(cfg.num_arms, 100);
        assert_eq!(cfg.scale.horizon, 10_000);
    }
}
