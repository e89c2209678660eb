//! Generic parameter sweeps.
//!
//! The ablations of the experiment harness all share one shape: run the same
//! replicated experiment at every point of a parameter grid and tabulate a few
//! summary numbers per point. [`Sweep`] captures that shape once, so new
//! studies (density sweeps, horizon sweeps, arm-count sweeps, …) only supply a
//! closure from the parameter to an [`AveragedRun`] (or any summary type).

use crate::replicate::AveragedRun;

/// One point of a sweep: the parameter value and the summaries produced there.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint<P, S> {
    /// The swept parameter value.
    pub parameter: P,
    /// The summary computed at this value.
    pub summary: S,
}

/// The result of sweeping a closure over a list of parameter values.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep<P, S> {
    /// A short label for reports (e.g. `"edge probability"`).
    pub parameter_name: String,
    /// One entry per parameter value, in input order.
    pub points: Vec<SweepPoint<P, S>>,
}

impl<P, S> Sweep<P, S> {
    /// Runs `evaluate` at every parameter value.
    pub fn run(
        parameter_name: impl Into<String>,
        parameters: impl IntoIterator<Item = P>,
        mut evaluate: impl FnMut(&P) -> S,
    ) -> Self {
        let points = parameters
            .into_iter()
            .map(|parameter| {
                let summary = evaluate(&parameter);
                SweepPoint { parameter, summary }
            })
            .collect();
        Sweep {
            parameter_name: parameter_name.into(),
            points,
        }
    }

    /// Number of points in the sweep.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` if the sweep has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Maps every summary to a new type, keeping the parameters.
    pub fn map_summaries<T>(self, mut f: impl FnMut(S) -> T) -> Sweep<P, T> {
        Sweep {
            parameter_name: self.parameter_name,
            points: self
                .points
                .into_iter()
                .map(|p| SweepPoint {
                    parameter: p.parameter,
                    summary: f(p.summary),
                })
                .collect(),
        }
    }

    /// The parameter of the point whose summary minimises `key`.
    pub fn argmin_by(&self, mut key: impl FnMut(&S) -> f64) -> Option<&P> {
        self.points
            .iter()
            .min_by(|a, b| {
                key(&a.summary)
                    .partial_cmp(&key(&b.summary))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|p| &p.parameter)
    }
}

impl<P: std::fmt::Display> Sweep<P, AveragedRun> {
    /// Renders a sweep of averaged runs as a fixed-width table of final
    /// accumulated and expected regret.
    pub fn regret_table(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                vec![
                    p.parameter.to_string(),
                    p.summary.policy.clone(),
                    format!("{:.2}", p.summary.final_regret_mean()),
                    format!("{:.2}", p.summary.final_regret_std()),
                    format!("{:.5}", p.summary.final_expected_regret()),
                ]
            })
            .collect();
        crate::export::format_table(
            &[
                &self.parameter_name,
                "policy",
                "R_n mean",
                "R_n std",
                "R_n/n",
            ],
            &rows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replicate::{replicate, ReplicationConfig};
    use crate::runner::{run_single, SingleScenario};
    use netband_core::DflSso;
    use netband_env::{ArmSet, NetworkedBandit};
    use netband_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sweep_runs_in_order_and_maps() {
        let sweep = Sweep::run("k", [1usize, 2, 3], |&k| k * 10);
        assert_eq!(sweep.len(), 3);
        assert_eq!(sweep.points[1].parameter, 2);
        assert_eq!(sweep.points[1].summary, 20);
        let doubled = sweep.map_summaries(|s| s as f64 * 2.0);
        assert_eq!(doubled.points[2].summary, 60.0);
        assert!(!doubled.is_empty());
    }

    #[test]
    fn argmin_finds_the_best_parameter() {
        let sweep = Sweep::run("x", [-2.0f64, 0.5, 3.0], |&x| (x - 0.4f64).abs());
        assert_eq!(sweep.argmin_by(|&d| d), Some(&0.5));
        let empty: Sweep<f64, f64> = Sweep::run("x", Vec::<f64>::new(), |&x| x);
        assert_eq!(empty.argmin_by(|&d| d), None);
    }

    #[test]
    fn regret_table_over_densities_renders() {
        let sweep = Sweep::run("edge probability", [0.1f64, 0.8], |&p| {
            let mut rng = StdRng::seed_from_u64(1);
            let graph = generators::erdos_renyi(10, p, &mut rng);
            let arms = ArmSet::random_bernoulli(10, &mut rng);
            let bandit = NetworkedBandit::new(graph.clone(), arms).unwrap();
            replicate(&ReplicationConfig::serial(2, 5), |_, seed| {
                let mut policy = DflSso::new(graph.clone());
                run_single(
                    &bandit,
                    &mut policy,
                    SingleScenario::SideObservation,
                    200,
                    seed,
                )
            })
        });
        let table = sweep.regret_table();
        assert!(table.contains("edge probability"));
        assert!(table.contains("DFL-SSO"));
        assert_eq!(table.lines().count(), 4);
        // The denser graph should not have (much) more regret; just check the
        // argmin machinery runs on real summaries.
        assert!(sweep.argmin_by(|run| run.final_regret_mean()).is_some());
    }
}
