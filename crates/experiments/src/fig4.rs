//! Figure 4 — DFL-CSO under sparse and dense relation graphs.
//!
//! Paper setting (Section VII): combinatorial play with side observation, arms
//! "uniformly and randomly connected" with probability 0.3 (Fig. 4(a), sparse)
//! and 0.6 (Fig. 4(b), dense). The qualitative claim: with a denser relation
//! graph the decision maker observes more com-arms per pull, so the expected
//! regret approaches 0 faster / sits lower than in the sparse case.
//!
//! The paper does not state the number of arms used for this figure; the
//! feasible set must stay enumerable for Algorithm 2 (one estimator per
//! com-arm), so we default to 14 arms with independent sets of size ≤ 2 as the
//! feasible family — the same constraint structure as the paper's Fig. 2
//! example.

use netband_env::feasible::FeasibleSet;
use netband_sim::export::columns_to_csv;
use netband_sim::replicate::aggregate;
use netband_sim::run_built;
use netband_sim::{AveragedRun, RunResult};
use netband_spec::{FamilySpec, PolicySpec, ScenarioSpec, SideBonus, WorkloadSpec};

use crate::common::{grid_cell, paper_workload_spec, Scale};
use crate::report::{expected_regret_table, summary_line};

/// Configuration of the Fig. 4 experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig4Config {
    /// Number of arms `K`.
    pub num_arms: usize,
    /// Edge probability of the sparse graph (Fig. 4(a), paper: 0.3).
    pub sparse_prob: f64,
    /// Edge probability of the dense graph (Fig. 4(b), paper: 0.6).
    pub dense_prob: f64,
    /// Maximum strategy size `M` of the independent-set feasible family.
    pub max_strategy_size: usize,
    /// Horizon and replication count.
    pub scale: Scale,
    /// Base RNG seed.
    pub base_seed: u64,
}

impl Default for Fig4Config {
    fn default() -> Self {
        Fig4Config {
            num_arms: 14,
            sparse_prob: 0.3,
            dense_prob: 0.6,
            max_strategy_size: 2,
            scale: Scale::full(),
            base_seed: 4_001,
        }
    }
}

/// The two averaged curves of Fig. 4.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Result {
    /// DFL-CSO on the sparse graph (Fig. 4(a)).
    pub sparse: AveragedRun,
    /// DFL-CSO on the dense graph (Fig. 4(b)).
    pub dense: AveragedRun,
    /// Average number of com-arms `|F|` per replication (sparse, dense).
    pub avg_num_strategies: (f64, f64),
}

impl Fig4Result {
    /// `true` when the dense graph yields lower final expected regret than the
    /// sparse graph — the paper's qualitative claim.
    pub fn dense_beats_sparse(&self) -> bool {
        self.dense.final_expected_regret() <= self.sparse.final_expected_regret()
    }

    /// Human-readable report.
    pub fn report(&self) -> String {
        format!(
            "Figure 4 — DFL-CSO, sparse vs dense relation graphs\n{}\n{}\n|F| ≈ {:.1} (sparse), {:.1} (dense)\n\n{}",
            summary_line(&self.sparse),
            summary_line(&self.dense),
            self.avg_num_strategies.0,
            self.avg_num_strategies.1,
            expected_regret_table(&[&self.sparse, &self.dense], 20),
        )
    }

    /// CSV of both expected-regret curves.
    pub fn csv(&self) -> String {
        let t: Vec<f64> = (1..=self.sparse.horizon).map(|x| x as f64).collect();
        columns_to_csv(&[
            ("t", &t),
            ("sparse_expected", &self.sparse.expected_regret),
            ("dense_expected", &self.dense.expected_regret),
            ("sparse_accumulated", &self.sparse.accumulated_regret),
            ("dense_accumulated", &self.dense.accumulated_regret),
        ])
    }
}

impl Fig4Config {
    /// The declarative grid cell of one `(density, replication)` pair:
    /// DFL-CSO over the paper workload with a bounded independent-set family.
    pub fn replication_spec(&self, edge_prob: f64, seed_offset: u64, rep: usize) -> ScenarioSpec {
        let seed = self.base_seed + seed_offset + rep as u64;
        let workload = WorkloadSpec {
            family: Some(FamilySpec::IndependentSets {
                max_size: self.max_strategy_size,
            }),
            ..paper_workload_spec(self.num_arms, edge_prob, seed)
        };
        grid_cell(
            format!("fig4/dfl-cso/p{edge_prob}/rep{rep}"),
            workload,
            PolicySpec::DflCso,
            SideBonus::Observation,
            self.scale.horizon,
            seed.wrapping_mul(0x517C_C1B7),
        )
    }
}

fn run_density(config: &Fig4Config, edge_prob: f64, seed_offset: u64) -> (AveragedRun, f64) {
    let mut runs: Vec<RunResult> = Vec::with_capacity(config.scale.replications);
    let mut strategy_counts = 0usize;
    for rep in 0..config.scale.replications {
        let spec = config.replication_spec(edge_prob, seed_offset, rep);
        let mut built = spec.build().expect("fig4 scenario spec is consistent");
        // Regret is charged against the same feasible set the policy uses; the
        // |F| statistic comes from the spec-built family.
        strategy_counts += built
            .family
            .as_ref()
            .expect("fig4 scenarios are combinatorial")
            .enumerate(built.bandit.graph())
            .expect("independent sets of bounded size are enumerable at this scale")
            .len();
        runs.push(run_built(&mut built).expect("DFL-CSO only proposes feasible strategies"));
    }
    (
        aggregate(&runs),
        strategy_counts as f64 / config.scale.replications.max(1) as f64,
    )
}

/// Runs the Fig. 4 experiment (both densities).
pub fn run(config: &Fig4Config) -> Fig4Result {
    let (sparse, sparse_f) = run_density(config, config.sparse_prob, 0);
    let (dense, dense_f) = run_density(config, config.dense_prob, 10_000);
    Fig4Result {
        sparse,
        dense,
        avg_num_strategies: (sparse_f, dense_f),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> Fig4Config {
        Fig4Config {
            num_arms: 10,
            sparse_prob: 0.3,
            dense_prob: 0.6,
            max_strategy_size: 2,
            scale: Scale {
                horizon: 500,
                replications: 2,
            },
            base_seed: 21,
        }
    }

    #[test]
    fn fig4_runs_and_regret_trends_to_zero() {
        let result = run(&quick_config());
        // Expected regret decreases over time for both densities.
        for curve in [
            &result.sparse.expected_regret,
            &result.dense.expected_regret,
        ] {
            let early = curve[curve.len() / 10];
            let late = *curve.last().unwrap();
            assert!(late < early, "early {early} late {late}");
        }
    }

    #[test]
    fn fig4_dense_graph_has_fewer_feasible_strategies() {
        // Denser relation graphs admit fewer independent sets.
        let result = run(&quick_config());
        assert!(
            result.avg_num_strategies.1 <= result.avg_num_strategies.0,
            "dense |F| {} should not exceed sparse |F| {}",
            result.avg_num_strategies.1,
            result.avg_num_strategies.0
        );
    }

    #[test]
    fn fig4_report_and_csv_render() {
        let result = run(&Fig4Config {
            num_arms: 8,
            scale: Scale {
                horizon: 120,
                replications: 2,
            },
            ..quick_config()
        });
        assert!(result.report().contains("Figure 4"));
        let csv = result.csv();
        assert!(csv.starts_with("t,sparse_expected"));
        assert_eq!(csv.lines().count(), 121);
    }

    #[test]
    fn fig4_is_deterministic() {
        let cfg = Fig4Config {
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
    fn default_config_matches_the_paper_densities() {
        let cfg = Fig4Config::default();
        assert_eq!(cfg.sparse_prob, 0.3);
        assert_eq!(cfg.dense_prob, 0.6);
    }
}
