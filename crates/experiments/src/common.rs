//! Shared workload builders and scale settings for the experiment harness.
//!
//! Since the spec redesign, every figure and ablation declares its grid as
//! `netband-spec` [`ScenarioSpec`] documents: the helpers here construct the
//! shared "one cell of a grid" spec and build coupled policy panels from
//! [`PolicySpec`] lists, so an experiment's configuration is serializable data
//! end to end.

use netband_env::NetworkedBandit;
use netband_spec::{
    AnyPolicy, ArmsSpec, FeedbackSpec, GraphSpec, PolicySpec, ScenarioSpec, SideBonus,
    WorkloadSpec, SPEC_VERSION,
};

/// How large to run an experiment.
///
/// `full()` matches the paper's setting (horizon 10 000); `quick()` is a
/// smoke-test scale used by unit tests, CI, and `--quick` runs of the binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Number of time slots `n`.
    pub horizon: usize,
    /// Number of independent replications averaged per curve.
    pub replications: usize,
}

impl Scale {
    /// The paper-scale setting: `n = 10 000`, 20 replications.
    pub fn full() -> Self {
        Scale {
            horizon: 10_000,
            replications: 20,
        }
    }

    /// A small setting for smoke tests and benches: `n = 400`, 3 replications.
    pub fn quick() -> Self {
        Scale {
            horizon: 400,
            replications: 3,
        }
    }

    /// Chooses the scale from the process environment/arguments: `--quick` as a
    /// CLI argument or `NETBAND_QUICK=1` selects [`Scale::quick`].
    pub fn from_env() -> Self {
        let quick_flag = std::env::args().any(|a| a == "--quick" || a == "-q");
        let quick_env = std::env::var("NETBAND_QUICK")
            .map(|v| v == "1")
            .unwrap_or(false);
        if quick_flag || quick_env {
            Scale::quick()
        } else {
            Scale::full()
        }
    }
}

/// Returns `true` when a (time-averaged regret) curve is trending towards zero:
/// the mean of its last quarter is below the mean of its first quarter (after a
/// 5% burn-in that skips the forced exploration of the very first pulls).
///
/// Comparing window means rather than single points makes the check robust to
/// per-round noise in short smoke-test runs.
pub fn trends_to_zero(curve: &[f64]) -> bool {
    if curve.len() < 20 {
        return false;
    }
    let burn = curve.len() / 20;
    let quarter = curve.len() / 4;
    let early = &curve[burn..burn + quarter];
    let late = &curve[curve.len() - quarter..];
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    mean(late) < mean(early)
}

/// The paper's Section VII workload as a declarative spec: an Erdős–Rényi
/// relation graph with connection probability `edge_prob` over `num_arms`
/// Bernoulli arms whose means are drawn uniformly from `[0, 1]`.
pub fn paper_workload_spec(num_arms: usize, edge_prob: f64, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        graph: GraphSpec::ErdosRenyi {
            num_arms,
            edge_prob,
        },
        arms: ArmsSpec::UniformMeanBernoulli { num_arms },
        family: None,
        drift: None,
        seed,
    }
}

/// Builds the paper's simulation workload (via [`paper_workload_spec`]).
///
/// The graph and the arm means are regenerated per replication (seeded), which
/// matches the paper's "randomly generate a relation graph with 100 arms" setup
/// and averages out the dependence on any single random instance.
pub fn paper_workload(num_arms: usize, edge_prob: f64, seed: u64) -> NetworkedBandit {
    paper_workload_spec(num_arms, edge_prob, seed)
        .build()
        .expect("the paper workload spec is internally consistent")
        .bandit
}

/// One cell of an experiment grid: a [`ScenarioSpec`] over the given workload
/// with a single replication (the experiment modules iterate replications
/// themselves so each can keep its historical seed derivation).
pub fn grid_cell(
    name: impl Into<String>,
    workload: WorkloadSpec,
    policy: PolicySpec,
    side_bonus: SideBonus,
    horizon: usize,
    run_seed: u64,
) -> ScenarioSpec {
    ScenarioSpec {
        version: SPEC_VERSION,
        name: name.into(),
        workload,
        policy,
        side_bonus,
        horizon,
        replications: 1,
        seed: run_seed,
        feedback: FeedbackSpec::Immediate,
    }
}

/// Builds a panel of single-play policies (for the coupled sample-path
/// drivers) from declarative policy specs.
///
/// # Panics
///
/// Panics if a spec is combinatorial or fails to build — experiment grids are
/// static, so a failure is a programming error, not an input error.
pub fn build_single_panel(policies: &[PolicySpec], bandit: &NetworkedBandit) -> Vec<AnyPolicy> {
    policies
        .iter()
        .map(|spec| {
            let policy = spec
                .build(bandit, None)
                .unwrap_or_else(|e| panic!("policy {spec:?} failed to build: {e}"));
            assert!(
                policy.is_single(),
                "coupled panels are single-play, got {spec:?}"
            );
            policy
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_have_expected_sizes() {
        let full = Scale::full();
        assert_eq!(full.horizon, 10_000);
        assert_eq!(full.replications, 20);
        let quick = Scale::quick();
        assert!(quick.horizon < full.horizon);
        assert!(quick.replications < full.replications);
    }

    #[test]
    fn paper_workload_is_seeded_and_sized() {
        let a = paper_workload(30, 0.3, 7);
        let b = paper_workload(30, 0.3, 7);
        let c = paper_workload(30, 0.3, 8);
        assert_eq!(a.num_arms(), 30);
        assert_eq!(a.graph(), b.graph());
        assert_eq!(a.means(), b.means());
        assert_ne!(a.means(), c.means());
    }

    #[test]
    fn trends_to_zero_detects_decay_and_rejects_growth() {
        let decaying: Vec<f64> = (1..=200).map(|t| 1.0 / t as f64).collect();
        assert!(trends_to_zero(&decaying));
        let growing: Vec<f64> = (1..=200).map(|t| t as f64 / 200.0).collect();
        assert!(!trends_to_zero(&growing));
        assert!(!trends_to_zero(&[1.0, 0.5]));
    }

    #[test]
    fn paper_workload_density_tracks_edge_probability() {
        let sparse = paper_workload(80, 0.1, 1);
        let dense = paper_workload(80, 0.7, 1);
        assert!(sparse.graph().density() < dense.graph().density());
    }
}
