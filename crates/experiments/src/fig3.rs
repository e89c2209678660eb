//! Figure 3 — MOSS vs DFL-SSO (expected and accumulated regret).
//!
//! Paper setting (Section VII): a randomly generated relation graph with 100
//! arms, each an i.i.d. process with mean drawn from `[0, 1]`, horizon
//! `n = 10 000`. Fig. 3(a) plots the time-averaged ("expected") regret of both
//! policies, Fig. 3(b) their accumulated regret. The expected qualitative
//! result: both time-averaged curves head towards 0, but DFL-SSO's accumulated
//! regret flattens out while MOSS's keeps growing — side observation wins.

use netband_sim::export::columns_to_csv;
use netband_sim::replicate::aggregate;
use netband_sim::runner::{run_single_coupled, SingleScenario};
use netband_sim::{AveragedRun, RunResult};
use netband_spec::{PolicySpec, ScenarioSpec, SideBonus};

use crate::common::{build_single_panel, grid_cell, paper_workload_spec, Scale};
use crate::report::{accumulated_regret_table, expected_regret_table, summary_line};

/// Configuration of the Fig. 3 experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig3Config {
    /// Number of arms `K` (paper: 100).
    pub num_arms: usize,
    /// Edge probability of the Erdős–Rényi relation graph.
    pub edge_prob: f64,
    /// Horizon and replication count.
    pub scale: Scale,
    /// Base RNG seed.
    pub base_seed: u64,
}

impl Default for Fig3Config {
    fn default() -> Self {
        Fig3Config {
            num_arms: 100,
            edge_prob: 0.3,
            scale: Scale::full(),
            base_seed: 3_001,
        }
    }
}

/// The two averaged curves of Fig. 3.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Result {
    /// DFL-SSO (Algorithm 1), with side observation.
    pub dfl_sso: AveragedRun,
    /// MOSS, without side observation.
    pub moss: AveragedRun,
}

impl Fig3Result {
    /// `true` when DFL-SSO's mean accumulated regret is below MOSS's — the
    /// paper's headline comparison.
    pub fn dfl_beats_moss(&self) -> bool {
        self.dfl_sso.final_regret_mean() < self.moss.final_regret_mean()
    }

    /// Human-readable report: summary lines plus the Fig. 3(a) and Fig. 3(b)
    /// tables.
    pub fn report(&self) -> String {
        format!(
            "Figure 3 — MOSS vs DFL-SSO\n{}\n{}\n\nFig. 3(a) {}\nFig. 3(b) {}",
            summary_line(&self.dfl_sso),
            summary_line(&self.moss),
            expected_regret_table(&[&self.dfl_sso, &self.moss], 20),
            accumulated_regret_table(&[&self.dfl_sso, &self.moss], 20),
        )
    }

    /// CSV with one row per time slot: expected and accumulated regret of both
    /// policies.
    pub fn csv(&self) -> String {
        let t: Vec<f64> = (1..=self.dfl_sso.horizon).map(|x| x as f64).collect();
        columns_to_csv(&[
            ("t", &t),
            ("dfl_sso_expected", &self.dfl_sso.expected_regret),
            ("moss_expected", &self.moss.expected_regret),
            ("dfl_sso_accumulated", &self.dfl_sso.accumulated_regret),
            ("moss_accumulated", &self.moss.accumulated_regret),
        ])
    }
}

impl Fig3Config {
    /// The declarative grid of one replication: DFL-SSO and MOSS as
    /// [`ScenarioSpec`]s over the *same* workload document (both are run on
    /// one coupled sample path, so they share workload and run seeds).
    pub fn replication_specs(&self, rep: usize) -> [ScenarioSpec; 2] {
        let seed = self.base_seed + rep as u64;
        let workload = paper_workload_spec(self.num_arms, self.edge_prob, seed);
        let run_seed = seed.wrapping_mul(0x9E37_79B9);
        [
            grid_cell(
                format!("fig3/dfl-sso/rep{rep}"),
                workload.clone(),
                PolicySpec::DflSso,
                SideBonus::Observation,
                self.scale.horizon,
                run_seed,
            ),
            grid_cell(
                format!("fig3/moss/rep{rep}"),
                workload,
                PolicySpec::Moss { horizon: None },
                SideBonus::Observation,
                self.scale.horizon,
                run_seed,
            ),
        ]
    }
}

/// Runs the Fig. 3 experiment.
///
/// Each replication's grid is declared as [`ScenarioSpec`]s (see
/// [`Fig3Config::replication_specs`]); the workload and both policies are
/// built from the specs, then driven against the *same* sample path via the
/// coupled driver, exactly as one would compare two policies on one simulated
/// system.
pub fn run(config: &Fig3Config) -> Fig3Result {
    let mut dfl_runs: Vec<RunResult> = Vec::with_capacity(config.scale.replications);
    let mut moss_runs: Vec<RunResult> = Vec::with_capacity(config.scale.replications);
    for rep in 0..config.scale.replications {
        let [dfl_spec, moss_spec] = config.replication_specs(rep);
        let bandit = dfl_spec
            .workload
            .build()
            .expect("fig3 workload spec is consistent")
            .bandit;
        let mut panel = build_single_panel(&[dfl_spec.policy, moss_spec.policy], &bandit);
        let mut refs: Vec<&mut dyn netband_core::SinglePlayPolicy> = panel
            .iter_mut()
            .map(|p| p.as_single_mut().expect("single panel"))
            .collect();
        let mut results = run_single_coupled(
            &bandit,
            &mut refs,
            SingleScenario::SideObservation,
            dfl_spec.horizon,
            dfl_spec.seed,
        );
        moss_runs.push(results.pop().expect("two coupled results"));
        dfl_runs.push(results.pop().expect("two coupled results"));
    }
    Fig3Result {
        dfl_sso: aggregate(&dfl_runs),
        moss: aggregate(&moss_runs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> Fig3Config {
        Fig3Config {
            num_arms: 25,
            edge_prob: 0.3,
            scale: Scale {
                horizon: 600,
                replications: 3,
            },
            base_seed: 11,
        }
    }

    #[test]
    fn fig3_dfl_sso_beats_moss_even_at_small_scale() {
        let result = run(&quick_config());
        assert!(
            result.dfl_beats_moss(),
            "DFL-SSO {} vs MOSS {}",
            result.dfl_sso.final_regret_mean(),
            result.moss.final_regret_mean()
        );
    }

    #[test]
    fn fig3_expected_regret_decreases_over_time_for_dfl_sso() {
        let result = run(&quick_config());
        let curve = &result.dfl_sso.expected_regret;
        let early = curve[curve.len() / 10];
        let late = *curve.last().unwrap();
        assert!(
            late < early,
            "expected regret should decrease: early {early}, late {late}"
        );
    }

    #[test]
    fn fig3_report_and_csv_are_complete() {
        let result = run(&Fig3Config {
            num_arms: 10,
            edge_prob: 0.4,
            scale: Scale {
                horizon: 100,
                replications: 2,
            },
            base_seed: 5,
        });
        let report = result.report();
        assert!(report.contains("Figure 3"));
        assert!(report.contains("DFL-SSO"));
        assert!(report.contains("MOSS"));
        let csv = result.csv();
        assert_eq!(csv.lines().count(), 101); // header + one row per slot
        assert!(csv.starts_with("t,dfl_sso_expected"));
    }

    #[test]
    fn fig3_is_deterministic() {
        let cfg = Fig3Config {
            num_arms: 8,
            edge_prob: 0.5,
            scale: Scale {
                horizon: 80,
                replications: 2,
            },
            base_seed: 77,
        };
        assert_eq!(run(&cfg), run(&cfg));
    }

    #[test]
    fn default_config_matches_the_paper() {
        let cfg = Fig3Config::default();
        assert_eq!(cfg.num_arms, 100);
        assert_eq!(cfg.scale.horizon, 10_000);
    }
}
