//! Analytical experiment: evaluate the Theorem 1–4 regret bounds over sweeps of
//! the problem parameters, and compare the Theorem 1 bound with the clique-cover
//! sizes of actual random graphs.

use rand::rngs::StdRng;
use rand::SeedableRng;

use netband_core::bounds;
use netband_graph::{generators, greedy_clique_cover};
use netband_sim::export::format_table;

/// One row of the bound sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundRow {
    /// Horizon `n`.
    pub horizon: usize,
    /// Number of arms `K`.
    pub num_arms: usize,
    /// Edge probability used for the clique-cover measurement.
    pub edge_prob: f64,
    /// Greedy clique-cover size `C` of a sampled graph.
    pub clique_cover: usize,
    /// Theorem 1 bound for DFL-SSO.
    pub theorem1: f64,
    /// MOSS's distribution-free bound `49 sqrt(nK)`.
    pub moss: f64,
    /// Theorem 3 bound for DFL-SSR.
    pub theorem3: f64,
    /// Theorem 4 bound for DFL-CSR with `N` = max closed neighbourhood.
    pub theorem4: f64,
}

/// Configuration of the bound sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundsConfig {
    /// Horizons to evaluate.
    pub horizons: Vec<usize>,
    /// Arm counts to evaluate.
    pub arm_counts: Vec<usize>,
    /// Edge probabilities to evaluate.
    pub edge_probs: Vec<f64>,
    /// RNG seed for the sampled graphs.
    pub seed: u64,
}

impl Default for BoundsConfig {
    fn default() -> Self {
        BoundsConfig {
            horizons: vec![1_000, 10_000, 100_000],
            arm_counts: vec![20, 100],
            edge_probs: vec![0.1, 0.3, 0.6],
            seed: 900,
        }
    }
}

/// Runs the sweep: one row per (horizon, arm count, edge probability).
pub fn run(config: &BoundsConfig) -> Vec<BoundRow> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut rows = Vec::new();
    for &num_arms in &config.arm_counts {
        for &edge_prob in &config.edge_probs {
            let graph = generators::erdos_renyi(num_arms, edge_prob, &mut rng);
            let cover = greedy_clique_cover(&graph).len();
            let max_neighborhood = graph.max_closed_neighborhood();
            for &horizon in &config.horizons {
                rows.push(BoundRow {
                    horizon,
                    num_arms,
                    edge_prob,
                    clique_cover: cover,
                    theorem1: bounds::theorem1_dfl_sso(horizon, num_arms, cover),
                    moss: bounds::moss_bound(horizon, num_arms),
                    theorem3: bounds::theorem3_dfl_ssr(horizon, num_arms),
                    theorem4: bounds::theorem4_dfl_csr(horizon, num_arms, max_neighborhood),
                });
            }
        }
    }
    rows
}

/// Formats the sweep as a fixed-width table.
pub fn report(rows: &[BoundRow]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.horizon.to_string(),
                r.num_arms.to_string(),
                format!("{:.1}", r.edge_prob),
                r.clique_cover.to_string(),
                format!("{:.0}", r.theorem1),
                format!("{:.0}", r.moss),
                format!("{:.0}", r.theorem3),
                format!("{:.2e}", r.theorem4),
            ]
        })
        .collect();
    format!(
        "Theorem 1–4 regret bounds (C from greedy clique covers of sampled G(K, p))\n{}",
        format_table(
            &[
                "n",
                "K",
                "p",
                "C",
                "Thm1 (DFL-SSO)",
                "49·sqrt(nK) (MOSS)",
                "Thm3 (DFL-SSR)",
                "Thm4 (DFL-CSR)"
            ],
            &table_rows,
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_has_one_row_per_combination() {
        let cfg = BoundsConfig {
            horizons: vec![100, 1_000],
            arm_counts: vec![10, 20],
            edge_probs: vec![0.2, 0.5],
            seed: 1,
        };
        let rows = run(&cfg);
        assert_eq!(rows.len(), 2 * 2 * 2);
    }

    #[test]
    fn denser_graphs_have_smaller_covers_and_theorem1() {
        let cfg = BoundsConfig {
            horizons: vec![10_000],
            arm_counts: vec![60],
            edge_probs: vec![0.1, 0.8],
            seed: 2,
        };
        let rows = run(&cfg);
        let sparse = &rows[0];
        let dense = &rows[1];
        assert!(dense.clique_cover < sparse.clique_cover);
        assert!(dense.theorem1 < sparse.theorem1);
    }

    #[test]
    fn theorem1_is_below_moss_bound() {
        for row in run(&BoundsConfig::default()) {
            assert!(
                row.theorem1 < row.moss,
                "Theorem 1 {} should undercut MOSS {} (n={}, K={})",
                row.theorem1,
                row.moss,
                row.horizon,
                row.num_arms
            );
        }
    }

    #[test]
    fn report_renders_all_rows() {
        let rows = run(&BoundsConfig {
            horizons: vec![100],
            arm_counts: vec![10],
            edge_probs: vec![0.3],
            seed: 3,
        });
        let report = report(&rows);
        assert!(report.contains("Thm1"));
        assert!(report.contains("100"));
    }
}
