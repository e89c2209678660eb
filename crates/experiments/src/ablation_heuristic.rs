//! Ablation D — the paper's Section IX future-work heuristic.
//!
//! The conclusion of the paper proposes playing, instead of the arm with the
//! maximum index, the arm with the maximum empirical mean among the selected
//! arm's neighbours. [`netband_core::heuristics`] implements that redirection
//! (guarded so it never cancels forced exploration); this ablation measures how
//! much it changes the regret of DFL-SSO and DFL-SSR on the paper's random
//! workload, across graph densities.

use netband_sim::export::format_table;
use netband_sim::replicate::aggregate;
use netband_sim::run_spec;
use netband_sim::runner::{run_single_coupled, SingleScenario};
use netband_sim::RunResult;
use netband_spec::{PolicySpec, SideBonus};

use crate::common::{build_single_panel, grid_cell, paper_workload, paper_workload_spec, Scale};

/// Configuration of the heuristic ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct HeuristicConfig {
    /// Number of arms `K`.
    pub num_arms: usize,
    /// Edge probabilities to evaluate.
    pub densities: Vec<f64>,
    /// Horizon and replication count per density.
    pub scale: Scale,
    /// Base RNG seed.
    pub base_seed: u64,
}

impl Default for HeuristicConfig {
    fn default() -> Self {
        HeuristicConfig {
            num_arms: 50,
            densities: vec![0.1, 0.3, 0.6],
            scale: Scale {
                horizon: 5_000,
                replications: 10,
            },
            base_seed: 10_001,
        }
    }
}

/// Result row: base vs heuristic regret for both single-play scenarios at one
/// density.
#[derive(Debug, Clone, PartialEq)]
pub struct HeuristicRow {
    /// Edge probability of the relation graph.
    pub density: f64,
    /// Final mean cumulative regret of plain DFL-SSO.
    pub sso_base: f64,
    /// Final mean cumulative regret of DFL-SSO with the greedy-neighbour
    /// redirection.
    pub sso_heuristic: f64,
    /// Final mean cumulative regret of plain DFL-SSR.
    pub ssr_base: f64,
    /// Final mean cumulative regret of DFL-SSR with the redirection.
    pub ssr_heuristic: f64,
}

impl HeuristicRow {
    /// Relative change of the SSO regret (`< 0` means the heuristic helped).
    pub fn sso_relative_change(&self) -> f64 {
        if self.sso_base.abs() < 1e-12 {
            0.0
        } else {
            (self.sso_heuristic - self.sso_base) / self.sso_base
        }
    }
}

/// Runs the ablation.
pub fn run(config: &HeuristicConfig) -> Vec<HeuristicRow> {
    let mut rows = Vec::with_capacity(config.densities.len());
    for (d_idx, &density) in config.densities.iter().enumerate() {
        let mut sso_base: Vec<RunResult> = Vec::new();
        let mut sso_heur: Vec<RunResult> = Vec::new();
        let mut ssr_base: Vec<RunResult> = Vec::new();
        let mut ssr_heur: Vec<RunResult> = Vec::new();
        for rep in 0..config.scale.replications {
            let seed = config.base_seed + (d_idx * 1_000 + rep) as u64;
            let bandit = paper_workload(config.num_arms, density, seed);
            let run_seed = seed.wrapping_mul(0x9E37_79B9);
            // SSO pair on a coupled sample path, declared as PolicySpecs.
            let mut panel = build_single_panel(
                &[PolicySpec::DflSso, PolicySpec::DflSsoGreedyNeighbor],
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
                run_seed,
            );
            sso_heur.push(results.pop().expect("two results"));
            sso_base.push(results.pop().expect("two results"));
            // SSR pair (independent spec-driven runs; coupling is less
            // meaningful because the two policies visit different
            // neighbourhoods).
            let workload = paper_workload_spec(config.num_arms, density, seed);
            for (policy, runs) in [
                (PolicySpec::DflSsr, &mut ssr_base),
                (PolicySpec::DflSsrGreedyNeighbor, &mut ssr_heur),
            ] {
                let spec = grid_cell(
                    format!("heuristic/{policy:?}/p{density}/rep{rep}"),
                    workload.clone(),
                    policy,
                    SideBonus::Reward,
                    config.scale.horizon,
                    run_seed,
                );
                runs.push(run_spec(&spec).expect("heuristic scenario spec is consistent"));
            }
        }
        rows.push(HeuristicRow {
            density,
            sso_base: aggregate(&sso_base).final_regret_mean(),
            sso_heuristic: aggregate(&sso_heur).final_regret_mean(),
            ssr_base: aggregate(&ssr_base).final_regret_mean(),
            ssr_heuristic: aggregate(&ssr_heur).final_regret_mean(),
        });
    }
    rows
}

/// Formats the ablation as a table.
pub fn report(rows: &[HeuristicRow]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.2}", r.density),
                format!("{:.1}", r.sso_base),
                format!("{:.1}", r.sso_heuristic),
                format!("{:+.1}%", 100.0 * r.sso_relative_change()),
                format!("{:.1}", r.ssr_base),
                format!("{:.1}", r.ssr_heuristic),
            ]
        })
        .collect();
    format!(
        "Ablation D — Section IX greedy-neighbour redirection (final R_n, means over replications)\n{}",
        format_table(
            &[
                "edge prob",
                "DFL-SSO",
                "DFL-SSO+GN",
                "SSO change",
                "DFL-SSR",
                "DFL-SSR+GN"
            ],
            &table_rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> HeuristicConfig {
        HeuristicConfig {
            num_arms: 15,
            densities: vec![0.4],
            scale: Scale {
                horizon: 800,
                replications: 2,
            },
            base_seed: 100,
        }
    }

    #[test]
    fn heuristic_stays_in_the_same_ballpark_as_the_base_policy() {
        // The paper conjectures the redirection helps; at minimum it must not
        // blow the regret up by an order of magnitude on either scenario.
        let rows = run(&quick());
        let row = &rows[0];
        assert!(
            row.sso_heuristic < 5.0 * row.sso_base + 10.0,
            "SSO heuristic {} vs base {}",
            row.sso_heuristic,
            row.sso_base
        );
        assert!(
            row.ssr_heuristic < 5.0 * row.ssr_base + 10.0,
            "SSR heuristic {} vs base {}",
            row.ssr_heuristic,
            row.ssr_base
        );
        assert!(row.sso_base > 0.0 && row.ssr_base > 0.0);
    }

    #[test]
    fn report_renders_all_columns() {
        let rows = run(&quick());
        let text = report(&rows);
        assert!(text.contains("DFL-SSO+GN"));
        assert!(text.contains("DFL-SSR+GN"));
        assert!(text.contains("0.40"));
    }

    #[test]
    fn run_is_deterministic() {
        let cfg = quick();
        assert_eq!(run(&cfg), run(&cfg));
    }

    #[test]
    fn relative_change_handles_zero_base() {
        let row = HeuristicRow {
            density: 0.5,
            sso_base: 0.0,
            sso_heuristic: 1.0,
            ssr_base: 1.0,
            ssr_heuristic: 1.0,
        };
        assert_eq!(row.sso_relative_change(), 0.0);
    }
}
