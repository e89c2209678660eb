//! Ablation C — clique-cover structure versus the Theorem 1 constant.
//!
//! Theorem 1's second term is `0.74 · C · sqrt(n/K)`, where `C` is the clique
//! cover of the high-gap subgraph. This ablation runs DFL-SSO on structured
//! graphs whose clique covers are known exactly — disjoint cliques (cover
//! `K / clique size`), stars (cover `K − 1`), paths (cover `≈ K/2`), the
//! complete graph (cover 1) and the edgeless graph (cover `K`) — and reports the
//! measured regret next to the bound, showing that graphs with smaller covers
//! indeed learn faster.

use netband_core::bounds;
use netband_graph::{generators, greedy_clique_cover, RelationGraph};
use netband_sim::export::format_table;
use netband_sim::replicate::aggregate;
use netband_sim::run_spec;
use netband_sim::RunResult;
use netband_spec::{ArmsSpec, GraphSpec, PolicySpec, SideBonus, WorkloadSpec};

use crate::common::{grid_cell, Scale};

/// Configuration of the structured-graph ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CliquesConfig {
    /// Number of arms `K` (should be divisible by 4 so the disjoint-clique
    /// family tiles evenly).
    pub num_arms: usize,
    /// Horizon and replication count per graph family.
    pub scale: Scale,
    /// Base RNG seed (controls the arm means and the reward streams).
    pub base_seed: u64,
}

impl Default for CliquesConfig {
    fn default() -> Self {
        CliquesConfig {
            num_arms: 48,
            scale: Scale {
                horizon: 5_000,
                replications: 10,
            },
            base_seed: 9_001,
        }
    }
}

/// Result row for one graph family.
#[derive(Debug, Clone, PartialEq)]
pub struct CliquesRow {
    /// Name of the graph family.
    pub family: String,
    /// Greedy clique-cover size of the full graph.
    pub clique_cover: usize,
    /// Measured final mean cumulative regret of DFL-SSO.
    pub measured_regret: f64,
    /// Theorem 1 bound evaluated with this cover.
    pub theorem1_bound: f64,
}

fn structured_graphs(num_arms: usize) -> Vec<(String, RelationGraph)> {
    vec![
        ("complete".to_owned(), generators::complete(num_arms)),
        (
            "disjoint 4-cliques".to_owned(),
            generators::disjoint_cliques(num_arms / 4, 4),
        ),
        ("path".to_owned(), generators::path(num_arms)),
        ("star".to_owned(), generators::star(num_arms)),
        ("edgeless".to_owned(), generators::edgeless(num_arms)),
    ]
}

/// Runs the ablation. Each structured graph is declared as a
/// [`GraphSpec::Explicit`] edge list inside a scenario spec: the explicit
/// graph consumes no randomness, so the arm bank draws exactly the stream the
/// hand-wired construction drew.
pub fn run(config: &CliquesConfig) -> Vec<CliquesRow> {
    let mut rows = Vec::new();
    for (g_idx, (family, graph)) in structured_graphs(config.num_arms).into_iter().enumerate() {
        let cover = greedy_clique_cover(&graph).len();
        let edges: Vec<(usize, usize)> = graph.edges().collect();
        let mut runs: Vec<RunResult> = Vec::with_capacity(config.scale.replications);
        for rep in 0..config.scale.replications {
            let seed = config.base_seed + (g_idx * 1_000 + rep) as u64;
            let spec = grid_cell(
                format!("cliques/{family}/rep{rep}"),
                WorkloadSpec {
                    graph: GraphSpec::Explicit {
                        num_arms: config.num_arms,
                        edges: edges.clone(),
                    },
                    arms: ArmsSpec::UniformMeanBernoulli {
                        num_arms: config.num_arms,
                    },
                    family: None,
                    drift: None,
                    seed,
                },
                PolicySpec::DflSso,
                SideBonus::Observation,
                config.scale.horizon,
                seed.wrapping_mul(0x85EB_CA6B),
            );
            runs.push(run_spec(&spec).expect("cliques scenario spec is consistent"));
        }
        let avg = aggregate(&runs);
        rows.push(CliquesRow {
            family,
            clique_cover: cover,
            measured_regret: avg.final_regret_mean(),
            theorem1_bound: bounds::theorem1_dfl_sso(config.scale.horizon, config.num_arms, cover),
        });
    }
    rows
}

/// Formats the ablation as a table.
pub fn report(rows: &[CliquesRow]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.family.clone(),
                r.clique_cover.to_string(),
                format!("{:.1}", r.measured_regret),
                format!("{:.0}", r.theorem1_bound),
            ]
        })
        .collect();
    format!(
        "Ablation C — clique-cover structure vs measured DFL-SSO regret\n{}",
        format_table(
            &[
                "graph family",
                "clique cover C",
                "measured R_n",
                "Theorem 1 bound"
            ],
            &table_rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> CliquesConfig {
        CliquesConfig {
            num_arms: 16,
            scale: Scale {
                horizon: 400,
                replications: 2,
            },
            base_seed: 90,
        }
    }

    #[test]
    fn covers_match_the_known_structure() {
        let rows = run(&quick());
        let by_name = |n: &str| rows.iter().find(|r| r.family == n).unwrap();
        assert_eq!(by_name("complete").clique_cover, 1);
        assert_eq!(by_name("disjoint 4-cliques").clique_cover, 4);
        assert_eq!(by_name("edgeless").clique_cover, 16);
        assert_eq!(by_name("star").clique_cover, 15);
    }

    #[test]
    fn measured_regret_stays_below_theorem1() {
        for row in run(&quick()) {
            assert!(
                row.measured_regret < row.theorem1_bound,
                "{}: measured {} vs bound {}",
                row.family,
                row.measured_regret,
                row.theorem1_bound
            );
        }
    }

    #[test]
    fn complete_graph_learns_faster_than_edgeless() {
        let rows = run(&quick());
        let complete = rows.iter().find(|r| r.family == "complete").unwrap();
        let edgeless = rows.iter().find(|r| r.family == "edgeless").unwrap();
        assert!(
            complete.measured_regret < edgeless.measured_regret,
            "complete {} vs edgeless {}",
            complete.measured_regret,
            edgeless.measured_regret
        );
    }

    #[test]
    fn report_lists_every_family() {
        let text = report(&run(&quick()));
        for family in ["complete", "disjoint 4-cliques", "path", "star", "edgeless"] {
            assert!(text.contains(family));
        }
    }
}
