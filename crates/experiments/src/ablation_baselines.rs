//! Ablation B — DFL-SSO against the wider single-play baseline zoo.
//!
//! The paper only compares against MOSS; this extension pits DFL-SSO against
//! UCB1, UCB-Tuned, Thompson sampling, ε-greedy, EXP3 and uniform random play on
//! the same coupled sample paths, across several arm counts. It quantifies how
//! much of DFL-SSO's advantage comes from side observation rather than from the
//! MOSS-style index itself.

use netband_core::SinglePlayPolicy;
use netband_sim::export::format_table;
use netband_sim::replicate::aggregate;
use netband_sim::runner::{run_single_coupled, SingleScenario};
use netband_sim::RunResult;
use netband_spec::PolicySpec;

use crate::common::{build_single_panel, paper_workload, Scale};

/// Configuration of the baseline comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselinesConfig {
    /// Arm counts to evaluate.
    pub arm_counts: Vec<usize>,
    /// Edge probability of the relation graph.
    pub edge_prob: f64,
    /// Horizon and replication count per arm count.
    pub scale: Scale,
    /// Base RNG seed.
    pub base_seed: u64,
}

impl Default for BaselinesConfig {
    fn default() -> Self {
        BaselinesConfig {
            arm_counts: vec![20, 50, 100],
            edge_prob: 0.3,
            scale: Scale {
                horizon: 5_000,
                replications: 10,
            },
            base_seed: 8_001,
        }
    }
}

/// Final mean cumulative regret of every policy at one arm count.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselinesRow {
    /// Number of arms `K`.
    pub num_arms: usize,
    /// `(policy name, final mean cumulative regret)`, in run order.
    pub regrets: Vec<(String, f64)>,
}

impl BaselinesRow {
    /// The policy with the lowest final regret in this row.
    pub fn winner(&self) -> &str {
        self.regrets
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(name, _)| name.as_str())
            .unwrap_or("")
    }

    /// The regret of a named policy, if present.
    pub fn regret_of(&self, name: &str) -> Option<f64> {
        self.regrets
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, r)| r)
    }
}

/// The declarative policy zoo of one replication: DFL-SSO plus every
/// single-play baseline, as [`PolicySpec`]s (this is the grid the comparison
/// runs, in run order).
pub fn policy_zoo(seed: u64) -> Vec<PolicySpec> {
    vec![
        PolicySpec::DflSso,
        PolicySpec::Moss { horizon: None },
        PolicySpec::Ucb1,
        PolicySpec::UcbTuned,
        PolicySpec::ThompsonBernoulli { seed },
        PolicySpec::DecayingEpsilonGreedy { c: 5.0, seed },
        PolicySpec::Exp3 { gamma: 0.05, seed },
        PolicySpec::RandomSingle { seed },
    ]
}

/// Runs the comparison.
pub fn run(config: &BaselinesConfig) -> Vec<BaselinesRow> {
    let mut rows = Vec::with_capacity(config.arm_counts.len());
    for (k_idx, &num_arms) in config.arm_counts.iter().enumerate() {
        // One Vec<RunResult> per policy, indexed in construction order.
        let mut per_policy: Vec<Vec<RunResult>> = Vec::new();
        for rep in 0..config.scale.replications {
            let seed = config.base_seed + (k_idx * 1_000 + rep) as u64;
            let bandit = paper_workload(num_arms, config.edge_prob, seed);
            let mut panel = build_single_panel(&policy_zoo(seed), &bandit);
            let mut policies: Vec<&mut dyn SinglePlayPolicy> = panel
                .iter_mut()
                .map(|p| p.as_single_mut().expect("the zoo is single-play"))
                .collect();
            let results = run_single_coupled(
                &bandit,
                &mut policies,
                SingleScenario::SideObservation,
                config.scale.horizon,
                seed.wrapping_mul(0x1656_67B1),
            );
            if per_policy.is_empty() {
                per_policy = results.iter().map(|_| Vec::new()).collect();
            }
            for (idx, result) in results.into_iter().enumerate() {
                per_policy[idx].push(result);
            }
        }
        let regrets = per_policy
            .iter()
            .map(|runs| {
                let avg = aggregate(runs);
                (avg.policy.clone(), avg.final_regret_mean())
            })
            .collect();
        rows.push(BaselinesRow { num_arms, regrets });
    }
    rows
}

/// Formats the comparison as a table (one row per arm count, one column per
/// policy).
pub fn report(rows: &[BaselinesRow]) -> String {
    if rows.is_empty() {
        return "Ablation B — no rows".to_owned();
    }
    let mut headers: Vec<String> = vec!["K".to_owned()];
    headers.extend(rows[0].regrets.iter().map(|(name, _)| name.clone()));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            let mut cells = vec![row.num_arms.to_string()];
            cells.extend(row.regrets.iter().map(|(_, r)| format!("{r:.1}")));
            cells
        })
        .collect();
    format!(
        "Ablation B — final cumulative regret R_n by policy (side-observation scenario)\n{}",
        format_table(&header_refs, &table_rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> BaselinesConfig {
        BaselinesConfig {
            arm_counts: vec![15],
            edge_prob: 0.4,
            scale: Scale {
                horizon: 500,
                replications: 2,
            },
            base_seed: 80,
        }
    }

    #[test]
    fn dfl_sso_beats_every_side_information_blind_baseline() {
        // At smoke-test scale (500 slots, 2 replications) a lucky randomized
        // baseline can land within noise of DFL-SSO, so the comparison allows a
        // 15% margin; the index-based baselines must still be strictly beaten.
        let rows = run(&quick());
        let row = &rows[0];
        let dfl = row.regret_of("DFL-SSO").unwrap();
        for name in ["MOSS", "UCB1", "UCB-Tuned", "EXP3", "Random"] {
            let regret = row.regret_of(name).unwrap();
            assert!(
                dfl < regret,
                "DFL-SSO ({dfl}) should beat {name} ({regret})"
            );
        }
        for (name, regret) in &row.regrets {
            if name != "DFL-SSO" {
                assert!(
                    dfl <= regret * 1.15 + 1e-9,
                    "DFL-SSO ({dfl}) should be within 15% of {name} ({regret})"
                );
            }
        }
    }

    #[test]
    fn every_learning_policy_beats_random() {
        let rows = run(&quick());
        let row = &rows[0];
        let random = row.regret_of("Random").unwrap();
        for name in ["DFL-SSO", "MOSS", "UCB1", "Thompson"] {
            let r = row.regret_of(name).unwrap();
            assert!(r < random, "{name} ({r}) should beat Random ({random})");
        }
    }

    #[test]
    fn report_contains_all_policies() {
        let rows = run(&quick());
        let text = report(&rows);
        for name in [
            "DFL-SSO",
            "MOSS",
            "UCB1",
            "UCB-Tuned",
            "Thompson",
            "EpsilonGreedy",
            "EXP3",
            "Random",
        ] {
            assert!(text.contains(name), "missing {name} in report:\n{text}");
        }
        assert!(report(&[]).contains("no rows"));
    }
}
