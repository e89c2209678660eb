//! The tenants each workload hosts.
//!
//! Each tenant's problem instance (graph and arm means) is fixed by its
//! index, so every seed measures the same serving work; the scenario seed,
//! which drives reward draws and policy randomness, derives from the
//! workload seed.

use netband_spec::presets;
use netband_spec::{
    ArmsSpec, FeedbackSpec, GraphSpec, PolicySpec, ScenarioSpec, SideBonus, WorkloadSpec,
    SPEC_VERSION,
};

/// SplitMix64 finaliser: spreads `(seed, index)` into an independent
/// 64-bit scenario seed.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The TCP workloads' tenant: the load generator's 10-arm Erdős–Rényi
/// side-observation scenario under DFL-SSO with batched feedback.
pub fn loadgen_scenario(seed: u64, index: usize) -> ScenarioSpec {
    ScenarioSpec {
        version: SPEC_VERSION,
        name: format!("netbench/loadgen-{index}"),
        workload: WorkloadSpec {
            graph: GraphSpec::ErdosRenyi {
                num_arms: 10,
                edge_prob: 0.3,
            },
            arms: ArmsSpec::UniformMeanBernoulli { num_arms: 10 },
            family: None,
            drift: None,
            seed: 9_000 + index as u64,
        },
        policy: PolicySpec::DflSso,
        side_bonus: SideBonus::Observation,
        horizon: 1_000,
        replications: 1,
        seed: derive_seed(seed, index as u64),
        feedback: FeedbackSpec::Batched { max_pending: 256 },
    }
}

/// The in-process workload's tenant `index`: the four paper presets in
/// rotation (DFL-SSO, DFL-SSR, DFL-CSO, DFL-CSR), batched feedback 32.
pub fn paper_scenario(seed: u64, index: usize) -> ScenarioSpec {
    let instance = 1_000 + index as u64;
    let mut spec = match index % 4 {
        0 => presets::paper_simulation(12, 0.35, instance),
        1 => presets::social_promotion(16, 3, instance),
        2 => presets::online_advertising(12, 3, instance),
        _ => presets::channel_access(12, 3, 0.35, instance),
    };
    spec.seed = derive_seed(seed, index as u64);
    spec.feedback = FeedbackSpec::Batched { max_pending: 32 };
    spec
}

/// Tenant id `index` of a workload; the prefix names the scenario family.
pub fn tenant_id(prefix: &str, index: usize) -> String {
    format!("{prefix}-{index:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_differ_by_seed_and_index() {
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
    }

    #[test]
    fn paper_tenants_cover_all_four_dfl_policies() {
        let policies: Vec<PolicySpec> = (0..4).map(|i| paper_scenario(1, i).policy).collect();
        assert_eq!(
            policies,
            vec![
                PolicySpec::DflSso,
                PolicySpec::DflSsr,
                PolicySpec::DflCso,
                PolicySpec::DflCsr
            ]
        );
    }
}
