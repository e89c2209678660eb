//! Drift experiment — stationary policies vs forgetting policies across an
//! abrupt change point.
//!
//! The paper's evaluation (Section VII) is entirely stationary; this extension
//! asks what happens to its combinatorial policies when the world moves. A
//! [`netband_spec::DriftSpec`] rotates the mean vector halfway through the
//! horizon, so the identity of the best strategy changes abruptly, and every
//! policy is scored against the *dynamic* oracle (the per-round optimum under
//! that round's means). Side observations — the paper's central mechanism —
//! cut both ways here: on a dense relation graph they accelerate learning
//! before the change point, but pile up stale evidence that a stationary
//! estimator never escapes afterwards. The discounted and sliding-window
//! Thompson variants (CTS-D / CTS-SW) forget, which is exactly what the
//! post-change tail isolates.
//!
//! Everything runs through declarative [`ScenarioSpec`] documents — the same
//! grid cells could be replayed on the serving engine or exported as JSON.

use netband_sim::export::format_table;
use netband_sim::run_spec;
use netband_spec::{
    ArmsSpec, ChangePointSpec, DriftSpec, EstimatorSpec, FamilySpec, FeedbackSpec, GraphSpec,
    PolicySpec, ScenarioSpec, SideBonus, WorkloadSpec, SPEC_VERSION,
};

use crate::common::Scale;

/// Configuration of the drift comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftConfig {
    /// Number of arms `K`.
    pub num_arms: usize,
    /// Edge probability of the relation graph. Dense graphs make the
    /// comparison sharpest: side observations spread stale evidence onto
    /// every arm.
    pub edge_prob: f64,
    /// Strategy size cap `m` of the `at-most-m` family.
    pub max_strategy_size: usize,
    /// Horizon and replication count. The change point sits at `horizon / 2`.
    pub scale: Scale,
    /// Base RNG seed.
    pub base_seed: u64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            num_arms: 12,
            edge_prob: 0.9,
            max_strategy_size: 2,
            scale: Scale {
                horizon: 6_000,
                replications: 10,
            },
            base_seed: 9_101,
        }
    }
}

/// The policy panel of the comparison, as `(label, spec)` pairs — two
/// stationary combinatorial policies and the three Thompson estimator
/// variants.
pub fn policy_panel(seed: u64) -> Vec<(&'static str, PolicySpec)> {
    vec![
        ("dfl-cso", PolicySpec::DflCso),
        ("cucb", PolicySpec::Cucb),
        (
            "cts",
            PolicySpec::Cts {
                seed,
                estimator: None,
            },
        ),
        (
            "cts-d",
            PolicySpec::Cts {
                seed,
                estimator: Some(EstimatorSpec::Discounted { gamma: 0.995 }),
            },
        ),
        (
            "cts-sw",
            PolicySpec::Cts {
                seed,
                estimator: Some(EstimatorSpec::SlidingWindow { window: 400 }),
            },
        ),
    ]
}

/// The scenario document of one grid cell: a dense Erdős–Rényi workload whose
/// mean vector rotates by `K/2` positions at `horizon / 2`.
pub fn cell_spec(config: &DriftConfig, policy: PolicySpec, seed: u64) -> ScenarioSpec {
    let change_round = (config.scale.horizon / 2) as u64;
    ScenarioSpec {
        version: SPEC_VERSION,
        name: format!("drift/{}", policy.display_name()),
        workload: WorkloadSpec {
            graph: GraphSpec::ErdosRenyi {
                num_arms: config.num_arms,
                edge_prob: config.edge_prob,
            },
            arms: ArmsSpec::UniformMeanBernoulli {
                num_arms: config.num_arms,
            },
            family: Some(FamilySpec::AtMostM {
                m: config.max_strategy_size,
            }),
            drift: Some(DriftSpec {
                change_points: vec![ChangePointSpec {
                    round: change_round,
                    rotation: config.num_arms / 2,
                }],
                ..DriftSpec::default()
            }),
            seed,
        },
        policy,
        side_bonus: SideBonus::Observation,
        horizon: config.scale.horizon,
        replications: 1,
        seed: seed.wrapping_mul(0x9E37_79B9),
        feedback: FeedbackSpec::Immediate,
    }
}

/// Mean regret of one policy, split at the change point.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftRow {
    /// Panel label of the policy.
    pub label: String,
    /// Report name of the policy.
    pub policy: String,
    /// Mean cumulative pseudo-regret over the whole horizon.
    pub total_regret: f64,
    /// Mean cumulative pseudo-regret over rounds strictly after the change
    /// point — the recovery cost the forgetting estimators are built to cut.
    pub post_change_regret: f64,
}

/// Runs the comparison: every panel policy over every replication, scored
/// against the dynamic oracle, averaged per policy.
pub fn run(config: &DriftConfig) -> Vec<DriftRow> {
    let change = config.scale.horizon / 2;
    let panel = policy_panel(0);
    let mut rows: Vec<DriftRow> = panel
        .iter()
        .map(|(label, policy)| DriftRow {
            label: (*label).to_owned(),
            policy: policy.display_name().to_owned(),
            total_regret: 0.0,
            post_change_regret: 0.0,
        })
        .collect();
    for rep in 0..config.scale.replications {
        let seed = config.base_seed + rep as u64;
        for (idx, (_, policy)) in policy_panel(seed).into_iter().enumerate() {
            let spec = cell_spec(config, policy, seed);
            let result = run_spec(&spec)
                .unwrap_or_else(|e| panic!("drift cell {:?} failed: {e}", spec.name));
            let pseudo = result.trace.pseudo();
            rows[idx].total_regret += pseudo.iter().sum::<f64>();
            rows[idx].post_change_regret += pseudo[change..].iter().sum::<f64>();
        }
    }
    let n = config.scale.replications.max(1) as f64;
    for row in &mut rows {
        row.total_regret /= n;
        row.post_change_regret /= n;
    }
    rows
}

/// The row of a labelled policy, if present.
pub fn row_of<'a>(rows: &'a [DriftRow], label: &str) -> Option<&'a DriftRow> {
    rows.iter().find(|r| r.label == label)
}

/// Formats the comparison as a table.
pub fn report(rows: &[DriftRow]) -> String {
    if rows.is_empty() {
        return "Drift experiment — no rows".to_owned();
    }
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            vec![
                row.policy.clone(),
                format!("{:.1}", row.total_regret),
                format!("{:.1}", row.post_change_regret),
            ]
        })
        .collect();
    format!(
        "Drift experiment — mean dynamic pseudo-regret across an abrupt change point\n{}",
        format_table(&["policy", "R_n (total)", "R_n (post-change)"], &table_rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> DriftConfig {
        DriftConfig {
            num_arms: 8,
            edge_prob: 0.9,
            max_strategy_size: 1,
            scale: Scale {
                horizon: 3_000,
                replications: 3,
            },
            base_seed: 91,
        }
    }

    #[test]
    fn forgetting_estimators_recover_faster_than_stationary_dfl() {
        let rows = run(&quick());
        let dfl = row_of(&rows, "dfl-cso").unwrap().post_change_regret;
        let cts_d = row_of(&rows, "cts-d").unwrap().post_change_regret;
        let cts_sw = row_of(&rows, "cts-sw").unwrap().post_change_regret;
        assert!(
            cts_d < dfl,
            "CTS-D post-change regret ({cts_d:.1}) should beat stationary DFL-CSO ({dfl:.1})"
        );
        assert!(
            cts_sw < dfl,
            "CTS-SW post-change regret ({cts_sw:.1}) should beat stationary DFL-CSO ({dfl:.1})"
        );
    }

    #[test]
    fn discounting_beats_stationary_thompson_after_the_change_point() {
        let rows = run(&quick());
        let cts = row_of(&rows, "cts").unwrap().post_change_regret;
        let cts_d = row_of(&rows, "cts-d").unwrap().post_change_regret;
        assert!(
            cts_d < cts,
            "CTS-D post-change regret ({cts_d:.1}) should beat stationary CTS ({cts:.1})"
        );
    }

    #[test]
    fn report_lists_every_panel_policy() {
        let config = DriftConfig {
            scale: Scale {
                horizon: 200,
                replications: 1,
            },
            ..quick()
        };
        let rows = run(&config);
        let text = report(&rows);
        for name in ["DFL-CSO", "CUCB", "CTS", "CTS-D", "CTS-SW"] {
            assert!(text.contains(name), "missing {name} in report:\n{text}");
        }
        assert!(report(&[]).contains("no rows"));
    }
}
