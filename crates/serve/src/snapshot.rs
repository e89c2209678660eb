//! Restartable tenant checkpoints.
//!
//! A [`TenantSnapshot`] captures everything a tenant needs to resume after an
//! engine restart: its [`World`] (bandit, play, drift schedule and cached
//! benchmark), the policy's learned state, the RNG state, and the running
//! reward totals. A restore recomputes nothing, so a restored tenant
//! continues bit-identically to the original.
//!
//! The snapshot is an in-memory value. Policies are captured as cloned
//! boxes; the durable store instead persists tenants through the strict
//! `netband-spec` codec, which enumerates the concrete policy types.

use rand::rngs::StdRng;

use netband_sim::World;
use netband_spec::AnyPolicy;

use crate::api::{FlushPolicy, TenantId};
use crate::metrics::TenantMetrics;

/// A restartable checkpoint of one tenant. Produced by
/// [`ServeEngine::snapshot_tenant`](crate::ServeEngine::snapshot_tenant) /
/// [`ServeEngine::evict_tenant`](crate::ServeEngine::evict_tenant), consumed
/// by [`ServeEngine::restore_tenant`](crate::ServeEngine::restore_tenant).
#[derive(Clone)]
pub struct TenantSnapshot {
    pub(crate) id: TenantId,
    /// The tenant's world. Drift is a pure function of the round counter, so
    /// the world plus `round` is all a restore needs to continue a drifting
    /// world's means bit-exactly.
    pub(crate) world: World,
    pub(crate) policy: AnyPolicy,
    pub(crate) rng: StdRng,
    pub(crate) round: u64,
    /// Running sum of the per-round optima (the dynamic optima when the
    /// tenant drifts).
    pub(crate) optimal_sum: f64,
    pub(crate) total_reward: f64,
    pub(crate) flush: FlushPolicy,
    pub(crate) auto_feedback: bool,
    pub(crate) echo_feedback: bool,
    pub(crate) metrics: TenantMetrics,
    /// The scenario document the tenant was registered from, carried through
    /// snapshots so a restore onto a store-enabled engine can persist the
    /// tenant (durable recovery rebuilds structure from this document).
    pub(crate) origin: Option<Box<netband_spec::ScenarioSpec>>,
}

impl TenantSnapshot {
    /// The tenant id the snapshot restores under.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Rounds the tenant had served when the snapshot was taken.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Name of the checkpointed policy.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// The tenant's serving metrics at snapshot time.
    pub fn metrics(&self) -> &TenantMetrics {
        &self.metrics
    }
}

impl std::fmt::Debug for TenantSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantSnapshot")
            .field("id", &self.id)
            .field("policy", &self.policy_name())
            .field("round", &self.round)
            .field("arms", &self.world.bandit().num_arms())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::{Tenant, TenantSpec};
    use netband_core::DflSso;
    use netband_env::{ArmSet, NetworkedBandit};
    use netband_graph::generators;
    use netband_sim::SingleScenario;

    fn snapshot_fixture() -> TenantSnapshot {
        let graph = generators::path(5);
        let bandit = NetworkedBandit::new(graph.clone(), ArmSet::linear_bernoulli(5)).unwrap();
        let spec = TenantSpec::single(
            "exp",
            bandit,
            DflSso::new(graph),
            SingleScenario::SideObservation,
            1,
        )
        .with_auto_feedback(true);
        let mut tenant = Tenant::new(spec).unwrap();
        for _ in 0..20 {
            tenant.decide().unwrap();
        }
        tenant.snapshot()
    }

    #[test]
    fn accessors_expose_checkpoint_summary() {
        let snap = snapshot_fixture();
        assert_eq!(snap.id(), "exp");
        assert_eq!(snap.round(), 20);
        assert_eq!(snap.policy_name(), "DFL-SSO");
        assert_eq!(snap.metrics().decides, 20);
        let debug = format!("{snap:?}");
        assert!(
            debug.contains("exp") && debug.contains("DFL-SSO"),
            "{debug}"
        );
    }

    #[test]
    fn snapshots_clone_independently() {
        let snap = snapshot_fixture();
        let clone = snap.clone();
        let mut a = Tenant::from_snapshot(snap);
        let mut b = Tenant::from_snapshot(clone);
        for _ in 0..10 {
            assert_eq!(a.decide().unwrap(), b.decide().unwrap());
        }
    }
}
