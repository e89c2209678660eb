//! Ablation A — side-observation benefit as a function of graph density.
//!
//! Extends the sparse/dense comparison of Fig. 4 to a full density sweep for the
//! single-play case: DFL-SSO is run on Erdős–Rényi graphs of increasing edge
//! probability, with MOSS as the density-independent control. The expectation,
//! per Theorem 1, is that the regret of DFL-SSO falls as the graph gets denser
//! (more side observation, smaller clique cover) while MOSS is flat up to noise.

use netband_graph::greedy_clique_cover;
use netband_sim::export::format_table;
use netband_sim::replicate::aggregate;
use netband_sim::runner::{run_single_coupled, SingleScenario};
use netband_sim::RunResult;
use netband_spec::PolicySpec;

use crate::common::{build_single_panel, paper_workload, Scale};

/// Configuration of the density sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct DensityConfig {
    /// Number of arms `K`.
    pub num_arms: usize,
    /// Edge probabilities to sweep.
    pub densities: Vec<f64>,
    /// Horizon and replication count per density.
    pub scale: Scale,
    /// Base RNG seed.
    pub base_seed: u64,
}

impl Default for DensityConfig {
    fn default() -> Self {
        DensityConfig {
            num_arms: 50,
            densities: vec![0.0, 0.1, 0.2, 0.3, 0.45, 0.6, 0.75, 0.9],
            scale: Scale {
                horizon: 5_000,
                replications: 10,
            },
            base_seed: 7_001,
        }
    }
}

/// One row of the sweep: regrets at a single density.
#[derive(Debug, Clone, PartialEq)]
pub struct DensityRow {
    /// Edge probability of the relation graph.
    pub density: f64,
    /// Mean greedy clique-cover size across replications.
    pub mean_clique_cover: f64,
    /// Final mean cumulative regret of DFL-SSO.
    pub dfl_sso_regret: f64,
    /// Final mean cumulative regret of MOSS.
    pub moss_regret: f64,
}

/// Runs the density sweep.
pub fn run(config: &DensityConfig) -> Vec<DensityRow> {
    let mut rows = Vec::with_capacity(config.densities.len());
    for (d_idx, &density) in config.densities.iter().enumerate() {
        let mut dfl_runs: Vec<RunResult> = Vec::with_capacity(config.scale.replications);
        let mut moss_runs: Vec<RunResult> = Vec::with_capacity(config.scale.replications);
        let mut cover_sum = 0usize;
        for rep in 0..config.scale.replications {
            let seed = config.base_seed + (d_idx * 1_000 + rep) as u64;
            let bandit = paper_workload(config.num_arms, density, seed);
            cover_sum += greedy_clique_cover(bandit.graph()).len();
            // The declarative pair: the density-sensitive policy and its
            // density-independent control.
            let mut panel = build_single_panel(
                &[PolicySpec::DflSso, PolicySpec::Moss { horizon: None }],
                &bandit,
            );
            let mut refs: Vec<&mut dyn netband_core::SinglePlayPolicy> = panel
                .iter_mut()
                .map(|p| p.as_single_mut().expect("single panel"))
                .collect();
            let mut results = run_single_coupled(
                &bandit,
                &mut refs,
                SingleScenario::SideObservation,
                config.scale.horizon,
                seed.wrapping_mul(0x27D4_EB2F),
            );
            moss_runs.push(results.pop().expect("two results"));
            dfl_runs.push(results.pop().expect("two results"));
        }
        let dfl = aggregate(&dfl_runs);
        let moss = aggregate(&moss_runs);
        rows.push(DensityRow {
            density,
            mean_clique_cover: cover_sum as f64 / config.scale.replications.max(1) as f64,
            dfl_sso_regret: dfl.final_regret_mean(),
            moss_regret: moss.final_regret_mean(),
        });
    }
    rows
}

/// Formats the sweep as a table.
pub fn report(rows: &[DensityRow]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.2}", r.density),
                format!("{:.1}", r.mean_clique_cover),
                format!("{:.1}", r.dfl_sso_regret),
                format!("{:.1}", r.moss_regret),
            ]
        })
        .collect();
    format!(
        "Ablation A — regret vs relation-graph density (n = horizon, means over replications)\n{}",
        format_table(
            &["edge prob", "clique cover C", "DFL-SSO R_n", "MOSS R_n"],
            &table_rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> DensityConfig {
        DensityConfig {
            num_arms: 20,
            densities: vec![0.0, 0.5, 0.9],
            scale: Scale {
                horizon: 400,
                replications: 2,
            },
            base_seed: 70,
        }
    }

    #[test]
    fn denser_graphs_reduce_dfl_sso_regret() {
        let rows = run(&quick());
        assert_eq!(rows.len(), 3);
        let edgeless = &rows[0];
        let dense = &rows[2];
        assert!(
            dense.dfl_sso_regret < edgeless.dfl_sso_regret,
            "dense {} vs edgeless {}",
            dense.dfl_sso_regret,
            edgeless.dfl_sso_regret
        );
    }

    #[test]
    fn clique_cover_shrinks_with_density() {
        let rows = run(&quick());
        assert!(rows[2].mean_clique_cover < rows[0].mean_clique_cover);
        // On an edgeless graph the cover is exactly K.
        assert!((rows[0].mean_clique_cover - 20.0).abs() < 1e-9);
    }

    #[test]
    fn on_edgeless_graphs_dfl_sso_and_moss_are_comparable() {
        // With no edges DFL-SSO *is* MOSS (same index, same observations), so on
        // a coupled sample path the two regrets coincide.
        let rows = run(&quick());
        let edgeless = &rows[0];
        assert!(
            (edgeless.dfl_sso_regret - edgeless.moss_regret).abs() < 1e-9,
            "{} vs {}",
            edgeless.dfl_sso_regret,
            edgeless.moss_regret
        );
    }

    #[test]
    fn report_renders() {
        let rows = run(&DensityConfig {
            densities: vec![0.3],
            scale: Scale {
                horizon: 100,
                replications: 2,
            },
            num_arms: 10,
            base_seed: 71,
        });
        let text = report(&rows);
        assert!(text.contains("Ablation A"));
        assert!(text.contains("0.30"));
    }
}
