//! Figure 6 — expected regret of DFL-CSR (combinatorial-play with side reward).
//!
//! Paper setting: combinatorial play where the collected reward is the sum over
//! the strategy's whole observation set `Y_x` and regret is measured against
//! `σ_1` (Equation 4); the expected regret converges to 0. The paper does not
//! state `K` or the constraint for this figure; we use an at-most-`M` family —
//! the "place up to m advertisements" constraint from the paper's introduction —
//! over a 20-arm random graph, which keeps the exact oracle cheap.

use netband_sim::export::columns_to_csv;
use netband_sim::replicate::aggregate;
use netband_sim::run_spec;
use netband_sim::{AveragedRun, RunResult};
use netband_spec::{FamilySpec, PolicySpec, ScenarioSpec, SideBonus, WorkloadSpec};

use crate::common::{grid_cell, paper_workload_spec, Scale};
use crate::report::{expected_regret_table, summary_line};

/// Configuration of the Fig. 6 experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig6Config {
    /// Number of arms `K`.
    pub num_arms: usize,
    /// Edge probability of the Erdős–Rényi relation graph.
    pub edge_prob: f64,
    /// Cardinality cap `M` of the at-most-`M` feasible family.
    pub max_strategy_size: usize,
    /// Horizon and replication count.
    pub scale: Scale,
    /// Base RNG seed.
    pub base_seed: u64,
    /// Also run CUCB (which optimises the direct reward and ignores coverage)
    /// under the same CSR regret, as an extension for context.
    pub include_baselines: bool,
}

impl Default for Fig6Config {
    fn default() -> Self {
        Fig6Config {
            num_arms: 20,
            edge_prob: 0.3,
            max_strategy_size: 3,
            scale: Scale::full(),
            base_seed: 6_001,
            include_baselines: true,
        }
    }
}

/// The averaged curves of Fig. 6.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Result {
    /// DFL-CSR (Algorithm 4).
    pub dfl_csr: AveragedRun,
    /// Optional baselines under the same CSR regret.
    pub baselines: Vec<AveragedRun>,
}

impl Fig6Result {
    /// `true` when the time-averaged regret decreases from early to late in the
    /// run — the paper's "converges to 0" claim.
    pub fn regret_trends_to_zero(&self) -> bool {
        crate::common::trends_to_zero(&self.dfl_csr.expected_regret)
    }

    /// Human-readable report.
    pub fn report(&self) -> String {
        let mut runs: Vec<&AveragedRun> = vec![&self.dfl_csr];
        runs.extend(self.baselines.iter());
        let mut out = String::from("Figure 6 — DFL-CSR expected regret\n");
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
        let t: Vec<f64> = (1..=self.dfl_csr.horizon).map(|x| x as f64).collect();
        let mut columns: Vec<(&str, &[f64])> = vec![
            ("t", &t),
            ("dfl_csr_expected", &self.dfl_csr.expected_regret),
            ("dfl_csr_accumulated", &self.dfl_csr.accumulated_regret),
        ];
        for baseline in &self.baselines {
            columns.push((baseline.policy.as_str(), &baseline.expected_regret));
        }
        columns_to_csv(&columns)
    }
}

impl Fig6Config {
    /// The declarative grid of one replication: DFL-CSR first, then (when
    /// baselines are enabled) CUCB, both over the same at-most-`M` workload
    /// document under the CSR regret.
    pub fn replication_specs(&self, rep: usize) -> Vec<ScenarioSpec> {
        let seed = self.base_seed + rep as u64;
        let workload = WorkloadSpec {
            family: Some(FamilySpec::AtMostM {
                m: self.max_strategy_size,
            }),
            ..paper_workload_spec(self.num_arms, self.edge_prob, seed)
        };
        let run_seed = seed.wrapping_mul(0xC2B2_AE35);
        let mut policies = vec![("dfl-csr", PolicySpec::DflCsr)];
        if self.include_baselines {
            policies.push(("cucb", PolicySpec::Cucb));
        }
        policies
            .into_iter()
            .map(|(name, policy)| {
                grid_cell(
                    format!("fig6/{name}/rep{rep}"),
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

/// Runs the Fig. 6 experiment: every grid cell is a [`ScenarioSpec`] driven
/// through [`run_spec`].
pub fn run(config: &Fig6Config) -> Fig6Result {
    let mut per_policy: Vec<Vec<RunResult>> = Vec::new();
    for rep in 0..config.scale.replications {
        let specs = config.replication_specs(rep);
        if per_policy.is_empty() {
            per_policy = specs.iter().map(|_| Vec::new()).collect();
        }
        for (idx, spec) in specs.iter().enumerate() {
            per_policy[idx]
                .push(run_spec(spec).expect("fig6 policies only propose feasible strategies"));
        }
    }
    let mut aggregates = per_policy.iter().map(|runs| aggregate(runs));
    let dfl_csr = aggregates.next().expect("DFL-CSR is always in the grid");
    Fig6Result {
        dfl_csr,
        baselines: aggregates.collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> Fig6Config {
        Fig6Config {
            num_arms: 10,
            edge_prob: 0.3,
            max_strategy_size: 2,
            scale: Scale {
                horizon: 2_000,
                replications: 3,
            },
            base_seed: 41,
            include_baselines: true,
        }
    }

    #[test]
    fn fig6_regret_trends_to_zero() {
        let result = run(&quick_config());
        assert!(result.regret_trends_to_zero());
    }

    #[test]
    fn fig6_dfl_csr_beats_coverage_blind_cucb() {
        let result = run(&quick_config());
        let cucb = result
            .baselines
            .iter()
            .find(|b| b.policy == "CUCB")
            .expect("baselines requested");
        assert!(
            result.dfl_csr.final_regret_mean() <= cucb.final_regret_mean(),
            "DFL-CSR {} vs CUCB {}",
            result.dfl_csr.final_regret_mean(),
            cucb.final_regret_mean()
        );
    }

    #[test]
    fn fig6_report_and_csv_render() {
        let result = run(&Fig6Config {
            num_arms: 8,
            include_baselines: false,
            scale: Scale {
                horizon: 120,
                replications: 2,
            },
            ..quick_config()
        });
        assert!(result.report().contains("Figure 6"));
        assert!(result.csv().starts_with("t,dfl_csr_expected"));
        assert!(result.baselines.is_empty());
    }

    #[test]
    fn fig6_is_deterministic() {
        let cfg = Fig6Config {
            num_arms: 8,
            scale: Scale {
                horizon: 100,
                replications: 2,
            },
            ..quick_config()
        };
        assert_eq!(run(&cfg), run(&cfg));
    }

    #[test]
    fn default_matches_design_doc() {
        let cfg = Fig6Config::default();
        assert_eq!(cfg.num_arms, 20);
        assert_eq!(cfg.max_strategy_size, 3);
        assert_eq!(cfg.scale.horizon, 10_000);
    }
}
