//! Named workload presets for the applications the paper's introduction
//! motivates.
//!
//! Each preset bundles a relation graph, an arm set, and (for the combinatorial
//! scenarios) a feasible strategy family into a ready-to-run
//! [`NetworkedBandit`] instance:
//!
//! * [`online_advertising`] — "an advertiser can only place up to m
//!   advertisements on his website": a preferential-attachment audience graph,
//!   Beta-distributed click probabilities, an at-most-`M` strategy family.
//! * [`social_promotion`] — promoting products in an online social network
//!   where friends provide feedback: a community (planted-partition) graph with
//!   Bernoulli purchase decisions.
//! * [`channel_access`] — opportunistic channel access in a cognitive radio
//!   network: channels are arms, channels interfering at the same receiver are
//!   related (random geometric graph), a secondary user picks up to `M`
//!   non-conflicting channels (independent-set family).
//! * [`paper_simulation`] — the exact random workload of the paper's Section
//!   VII (Erdős–Rényi graph, uniform means).

use rand::Rng;

use netband_graph::generators;

use crate::arms::ArmSet;
use crate::bandit::{EnvError, NetworkedBandit};
use crate::drift::DriftSchedule;
use crate::feasible::StrategyFamily;

/// A fully specified workload: environment plus (optional) feasible family.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Human-readable name used in reports.
    pub name: String,
    /// The environment instance.
    pub bandit: NetworkedBandit,
    /// The feasible strategy family for combinatorial play, if the workload is
    /// combinatorial.
    pub family: Option<StrategyFamily>,
    /// The drift schedule turning the instance into a nonstationary world, if
    /// any. `None` (and a trivial schedule) mean the paper's stationary
    /// setting.
    pub drift: Option<DriftSchedule>,
}

impl Workload {
    /// Number of arms of the instance.
    pub fn num_arms(&self) -> usize {
        self.bandit.num_arms()
    }

    /// Returns the strategy family, or [`EnvError::NoStrategyFamily`] if the
    /// workload is single-play.
    ///
    /// # Errors
    ///
    /// [`EnvError::NoStrategyFamily`] when the workload declares no
    /// combinatorial strategy family.
    pub fn try_family(&self) -> Result<&StrategyFamily, EnvError> {
        self.family
            .as_ref()
            .ok_or_else(|| EnvError::NoStrategyFamily {
                workload: self.name.clone(),
            })
    }
}

/// The paper's Section VII workload: `G(K, p)` relation graph, Bernoulli arms
/// with uniform means.
pub fn paper_simulation<R: Rng + ?Sized>(num_arms: usize, edge_prob: f64, rng: &mut R) -> Workload {
    let graph = generators::erdos_renyi(num_arms, edge_prob, rng);
    let arms = ArmSet::random_bernoulli(num_arms, rng);
    Workload {
        name: format!("paper-simulation (K={num_arms}, p={edge_prob})"),
        bandit: NetworkedBandit::new(graph, arms).expect("matching sizes"),
        family: None,
        drift: None,
    }
}

/// Online advertising: place up to `slots` ads per round on an audience whose
/// sharing behaviour follows a preferential-attachment graph. Click
/// probabilities are Beta-distributed (mostly low, a few high).
pub fn online_advertising<R: Rng + ?Sized>(num_ads: usize, slots: usize, rng: &mut R) -> Workload {
    let graph = generators::barabasi_albert(num_ads, 2, rng);
    // Click-through rates: mean ≈ 0.15 with a heavy right tail.
    let arms: ArmSet = (0..num_ads)
        .map(|_| {
            let mean: f64 = (0.02 + 0.3 * rng.gen::<f64>().powi(2)).clamp(0.01, 0.95);
            crate::distributions::Distribution::beta(mean * 10.0, (1.0 - mean) * 10.0)
        })
        .collect();
    Workload {
        name: format!("online-advertising (ads={num_ads}, slots={slots})"),
        bandit: NetworkedBandit::new(graph, arms).expect("matching sizes"),
        family: Some(StrategyFamily::at_most_m(num_ads, slots)),
        drift: None,
    }
}

/// Social promotion: pick one user to promote to per round; her friends see the
/// promotion too. Users form communities; purchase probabilities are Bernoulli.
pub fn social_promotion<R: Rng + ?Sized>(
    num_users: usize,
    communities: usize,
    rng: &mut R,
) -> Workload {
    let graph = generators::planted_partition(num_users, communities.max(1), 0.3, 0.02, rng);
    let arms = ArmSet::random_bernoulli(num_users, rng);
    Workload {
        name: format!("social-promotion (users={num_users}, communities={communities})"),
        bandit: NetworkedBandit::new(graph, arms).expect("matching sizes"),
        family: None,
        drift: None,
    }
}

/// Opportunistic channel access: `num_channels` channels whose geographic
/// interference pattern is a random geometric graph; a secondary user may
/// transmit on up to `max_channels` mutually non-interfering channels per slot
/// (an independent set of the interference graph). Channel availability is
/// Bernoulli.
pub fn channel_access<R: Rng + ?Sized>(
    num_channels: usize,
    max_channels: usize,
    interference_radius: f64,
    rng: &mut R,
) -> Workload {
    let graph = generators::random_geometric(num_channels, interference_radius, rng);
    let arms = ArmSet::random_bernoulli(num_channels, rng);
    Workload {
        name: format!(
            "channel-access (channels={num_channels}, max={max_channels}, r={interference_radius})"
        ),
        bandit: NetworkedBandit::new(graph, arms).expect("matching sizes"),
        family: Some(StrategyFamily::independent_sets(max_channels)),
        drift: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasible::FeasibleSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_simulation_matches_the_requested_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = paper_simulation(30, 0.3, &mut rng);
        assert_eq!(w.num_arms(), 30);
        assert!(w.family.is_none());
        assert!(w.name.contains("K=30"));
        assert!(w.bandit.means().iter().all(|&m| (0.0..=1.0).contains(&m)));
    }

    #[test]
    fn single_play_workload_reports_missing_family_as_an_error() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = paper_simulation(5, 0.3, &mut rng);
        match w.try_family() {
            Err(EnvError::NoStrategyFamily { workload }) => {
                assert!(workload.contains("paper-simulation"))
            }
            other => panic!("expected NoStrategyFamily, got {other:?}"),
        }
    }

    #[test]
    fn online_advertising_is_combinatorial_and_bounded() {
        let mut rng = StdRng::seed_from_u64(2);
        let w = online_advertising(25, 3, &mut rng);
        assert_eq!(w.num_arms(), 25);
        assert_eq!(w.try_family().unwrap().max_size(), 3);
        // Click probabilities are valid means.
        assert!(w.bandit.means().iter().all(|&m| m > 0.0 && m < 1.0));
        // The audience graph is connected (BA construction).
        assert!(w.bandit.graph().is_connected());
    }

    #[test]
    fn social_promotion_has_community_structure() {
        let mut rng = StdRng::seed_from_u64(3);
        let w = social_promotion(60, 3, &mut rng);
        assert_eq!(w.num_arms(), 60);
        assert!(w.family.is_none());
        // Communities make the graph reasonably dense inside, sparse outside.
        let density = w.bandit.graph().density();
        assert!(density > 0.05 && density < 0.5, "density {density}");
    }

    #[test]
    fn channel_access_strategies_are_independent_sets() {
        let mut rng = StdRng::seed_from_u64(4);
        let w = channel_access(20, 3, 0.3, &mut rng);
        let family = w.try_family().unwrap().clone();
        let strategies = family.enumerate(w.bandit.graph()).unwrap();
        assert!(!strategies.is_empty());
        for s in &strategies {
            assert!(w.bandit.graph().is_independent_set(s));
            assert!(s.len() <= 3);
        }
    }

    #[test]
    fn workloads_are_deterministic_under_seed() {
        let a = online_advertising(15, 2, &mut StdRng::seed_from_u64(9));
        let b = online_advertising(15, 2, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    /// Every preset is a pure function of its RNG: the same seed must
    /// reproduce the generated workload (graph, arm distributions, family)
    /// exactly, and a different seed must actually change the instance.
    #[test]
    fn all_four_presets_are_seed_stable() {
        fn check<F: Fn(&mut StdRng) -> Workload>(name: &str, build: F) {
            let a = build(&mut StdRng::seed_from_u64(11));
            let b = build(&mut StdRng::seed_from_u64(11));
            assert_eq!(a, b, "{name}: same seed must reproduce the workload");
            let c = build(&mut StdRng::seed_from_u64(12));
            assert_ne!(a, c, "{name}: a fresh seed must vary the workload");
        }
        check("paper_simulation", |rng| paper_simulation(20, 0.3, rng));
        check("online_advertising", |rng| online_advertising(20, 3, rng));
        check("social_promotion", |rng| social_promotion(24, 3, rng));
        check("channel_access", |rng| channel_access(20, 3, 0.3, rng));
    }

    /// The combinatorial presets must come with a non-empty feasible family
    /// whose oracles return cardinality-compliant members of the family —
    /// otherwise a hosted DFL-CSO/CSR tenant would panic on its first decide.
    #[test]
    fn combinatorial_preset_oracles_are_feasible_and_cardinality_compliant() {
        let mut rng = StdRng::seed_from_u64(21);
        for workload in [
            online_advertising(14, 3, &mut rng),
            channel_access(16, 3, 0.35, &mut rng),
        ] {
            let family = workload.try_family().unwrap();
            let graph = workload.bandit.graph();
            let strategies = family
                .enumerate(graph)
                .unwrap_or_else(|| panic!("{}: family not enumerable", workload.name));
            assert!(!strategies.is_empty(), "{}: empty family", workload.name);
            for s in &strategies {
                assert!(!s.is_empty(), "{}: empty strategy", workload.name);
                assert!(
                    s.len() <= family.max_size(),
                    "{}: cardinality {} exceeds M={}",
                    workload.name,
                    s.len(),
                    family.max_size()
                );
                assert!(family.contains(s, graph), "{}: {s:?}", workload.name);
            }
            // Both per-round oracles return feasible, compliant strategies.
            let weights: Vec<f64> = (0..workload.num_arms()).map(|i| 1.0 + i as f64).collect();
            for oracle_pick in [
                family.argmax_by_arm_weights(&weights, graph),
                family.argmax_by_neighborhood_weights(&weights, graph),
            ] {
                let pick = oracle_pick.expect("non-empty family has an argmax");
                assert!(pick.len() <= family.max_size(), "{}", workload.name);
                assert!(family.contains(&pick, graph), "{}: {pick:?}", workload.name);
            }
        }
    }

    /// The single-play presets produce instances a policy can run on from
    /// round one: valid means and a usable (possibly lazily rebuilt) CSR view.
    #[test]
    fn single_play_presets_produce_usable_instances() {
        let mut rng = StdRng::seed_from_u64(33);
        for workload in [
            paper_simulation(18, 0.3, &mut rng),
            social_promotion(18, 3, &mut rng),
        ] {
            assert!(workload.family.is_none(), "{}", workload.name);
            assert_eq!(workload.num_arms(), 18, "{}", workload.name);
            assert!(
                workload
                    .bandit
                    .means()
                    .iter()
                    .all(|&m| (0.0..=1.0).contains(&m)),
                "{}: invalid means",
                workload.name
            );
            let mut pull_rng = StdRng::seed_from_u64(1);
            let feedback = workload.bandit.pull_single(0, &mut pull_rng);
            assert!(
                !feedback.observations.is_empty(),
                "{}: a pull must reveal at least the pulled arm",
                workload.name
            );
        }
    }
}
