//! Ablation E — regret growth with the horizon (the "zero regret" property).
//!
//! The paper's central claim is that all four policies have *zero regret*:
//! `R_n / n → 0`. Theorems 1–3 actually promise `O(√n)` growth of the
//! cumulative regret (Theorem 4 promises `O(n^{5/6})`). This ablation measures
//! `R_n` of DFL-SSO and DFL-SSR at geometrically spaced horizons and fits the
//! growth exponent `α` in `R_n ≈ c·n^α`, checking that it is clearly sublinear
//! and close to the theoretical exponent.

use netband_sim::export::format_table;
use netband_sim::replicate::aggregate;
use netband_sim::run_spec;
use netband_sim::RunResult;
use netband_spec::{PolicySpec, ScenarioSpec, SideBonus};

use crate::common::{grid_cell, paper_workload_spec};

/// Configuration of the horizon-scaling ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct HorizonConfig {
    /// Number of arms `K`.
    pub num_arms: usize,
    /// Edge probability of the relation graph.
    pub edge_prob: f64,
    /// Horizons to evaluate (should span at least one order of magnitude).
    pub horizons: Vec<usize>,
    /// Replications per horizon.
    pub replications: usize,
    /// Base RNG seed.
    pub base_seed: u64,
}

impl Default for HorizonConfig {
    fn default() -> Self {
        HorizonConfig {
            num_arms: 50,
            edge_prob: 0.3,
            horizons: vec![500, 1_000, 2_000, 4_000, 8_000, 16_000],
            replications: 10,
            base_seed: 11_001,
        }
    }
}

/// Cumulative regret at one horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct HorizonRow {
    /// The horizon `n`.
    pub horizon: usize,
    /// Mean cumulative regret of DFL-SSO (side-observation objective).
    pub sso_regret: f64,
    /// Mean cumulative regret of DFL-SSR (side-reward objective).
    pub ssr_regret: f64,
}

/// The full result: per-horizon regrets plus fitted growth exponents.
#[derive(Debug, Clone, PartialEq)]
pub struct HorizonResult {
    /// One row per horizon.
    pub rows: Vec<HorizonRow>,
    /// Least-squares slope of `log R_n` against `log n` for DFL-SSO.
    pub sso_exponent: f64,
    /// Least-squares slope of `log R_n` against `log n` for DFL-SSR.
    pub ssr_exponent: f64,
}

/// Ordinary least-squares slope of `y` against `x`.
fn slope(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len() as f64;
    if x.len() < 2 || x.len() != y.len() {
        return 0.0;
    }
    let mean_x = x.iter().sum::<f64>() / n;
    let mean_y = y.iter().sum::<f64>() / n;
    let cov: f64 = x
        .iter()
        .zip(y)
        .map(|(a, b)| (a - mean_x) * (b - mean_y))
        .sum();
    let var: f64 = x.iter().map(|a| (a - mean_x) * (a - mean_x)).sum();
    if var <= 0.0 {
        0.0
    } else {
        cov / var
    }
}

impl HorizonConfig {
    /// The declarative grid cells of one `(horizon, replication)` pair:
    /// DFL-SSO (side observation) and DFL-SSR (side reward). The workload
    /// seed depends on the replication only, so the same instances recur
    /// across horizons and the growth curve is not confounded by instance
    /// variation.
    pub fn grid_cells(&self, h_idx: usize, horizon: usize, rep: usize) -> [ScenarioSpec; 2] {
        let seed = self.base_seed + rep as u64;
        let workload = paper_workload_spec(self.num_arms, self.edge_prob, seed);
        let run_seed = seed.wrapping_mul(0xD6E8_FEB8) + h_idx as u64;
        [
            grid_cell(
                format!("horizon/dfl-sso/n{horizon}/rep{rep}"),
                workload.clone(),
                PolicySpec::DflSso,
                SideBonus::Observation,
                horizon,
                run_seed,
            ),
            grid_cell(
                format!("horizon/dfl-ssr/n{horizon}/rep{rep}"),
                workload,
                PolicySpec::DflSsr,
                SideBonus::Reward,
                horizon,
                run_seed,
            ),
        ]
    }
}

/// Runs the ablation: every grid cell is a [`ScenarioSpec`] driven through
/// [`run_spec`].
pub fn run(config: &HorizonConfig) -> HorizonResult {
    let mut rows = Vec::with_capacity(config.horizons.len());
    for (h_idx, &horizon) in config.horizons.iter().enumerate() {
        let mut sso_runs: Vec<RunResult> = Vec::new();
        let mut ssr_runs: Vec<RunResult> = Vec::new();
        for rep in 0..config.replications {
            let [sso_spec, ssr_spec] = config.grid_cells(h_idx, horizon, rep);
            sso_runs.push(run_spec(&sso_spec).expect("horizon scenario spec is consistent"));
            ssr_runs.push(run_spec(&ssr_spec).expect("horizon scenario spec is consistent"));
        }
        rows.push(HorizonRow {
            horizon,
            sso_regret: aggregate(&sso_runs).final_regret_mean().max(1e-6),
            ssr_regret: aggregate(&ssr_runs).final_regret_mean().max(1e-6),
        });
    }
    let log_n: Vec<f64> = rows.iter().map(|r| (r.horizon as f64).ln()).collect();
    let log_sso: Vec<f64> = rows.iter().map(|r| r.sso_regret.ln()).collect();
    let log_ssr: Vec<f64> = rows.iter().map(|r| r.ssr_regret.ln()).collect();
    HorizonResult {
        sso_exponent: slope(&log_n, &log_sso),
        ssr_exponent: slope(&log_n, &log_ssr),
        rows,
    }
}

/// Formats the ablation as a table plus the fitted exponents.
pub fn report(result: &HorizonResult) -> String {
    let table_rows: Vec<Vec<String>> = result
        .rows
        .iter()
        .map(|r| {
            vec![
                r.horizon.to_string(),
                format!("{:.1}", r.sso_regret),
                format!("{:.1}", r.ssr_regret),
            ]
        })
        .collect();
    format!(
        "Ablation E — cumulative regret vs horizon (zero-regret check)\n{}\nfitted growth exponents of R_n ≈ c·n^α: DFL-SSO α ≈ {:.2}, DFL-SSR α ≈ {:.2}\n(Theorems 1 and 3 guarantee α ≤ 0.5 asymptotically; any α < 1 already certifies the\nzero-regret property R_n/n → 0. Finite-horizon fits can exceed 0.5 while the regret\nis still far below the theorem's constant.)\n",
        format_table(&["n", "DFL-SSO R_n", "DFL-SSR R_n"], &table_rows),
        result.sso_exponent,
        result.ssr_exponent
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> HorizonConfig {
        HorizonConfig {
            num_arms: 15,
            edge_prob: 0.4,
            horizons: vec![200, 800, 3_200],
            replications: 3,
            base_seed: 110,
        }
    }

    #[test]
    fn regret_growth_is_sublinear() {
        let result = run(&quick());
        assert_eq!(result.rows.len(), 3);
        assert!(
            result.sso_exponent < 0.95,
            "DFL-SSO growth exponent {} should be sublinear",
            result.sso_exponent
        );
        assert!(
            result.ssr_exponent < 0.95,
            "DFL-SSR growth exponent {} should be sublinear",
            result.ssr_exponent
        );
    }

    #[test]
    fn regret_is_nondecreasing_in_the_horizon_up_to_noise() {
        let result = run(&quick());
        // Allow small non-monotonicity from noise, but the largest horizon should
        // not have less regret than half the smallest one.
        let first = result.rows.first().unwrap();
        let last = result.rows.last().unwrap();
        assert!(last.sso_regret > 0.5 * first.sso_regret);
    }

    #[test]
    fn slope_of_known_data() {
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let y = vec![2.0, 4.0, 6.0, 8.0];
        assert!((slope(&x, &y) - 2.0).abs() < 1e-12);
        assert_eq!(slope(&[1.0], &[1.0]), 0.0);
        assert_eq!(slope(&[1.0, 1.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn report_mentions_the_exponents() {
        let result = run(&quick());
        let text = report(&result);
        assert!(text.contains("growth exponents"));
        assert!(text.contains("3200"));
    }
}
