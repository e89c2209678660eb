//! The translation layer between live tenants and their durable documents,
//! plus the disk eviction tier's bookkeeping.
//!
//! `netband-store` owns files, framing, and fsync scheduling;
//! `netband_spec::store` owns the documents inside the frames. This module
//! owns the only part neither of them can: converting a live [`Tenant`] to a
//! [`StoredTenantSnapshot`] and back, bit-exactly. Recovery itself is not
//! here: a shard recovers by applying its log through its own mutation
//! methods (`Shard::recover` in `crate::shard`), so the semantics of a
//! mutation exist once, whether it is served or replayed.
//!
//! # The structure / state split
//!
//! A stored snapshot does **not** serialize the policy's structure (graph
//! wiring, exploration constants, strategy family) — it records the tenant's
//! originating [`ScenarioSpec`] and only the *learned* state on top: the
//! policy's [`PolicyState`](netband_core::PolicyState) bag, the tenant RNG's
//! raw words, the running reward totals, the pending feedback queue, and the
//! serving counters. Restoring rebuilds the tenant from the document (the
//! same path registration took) and loads the learned state into it. This is
//! why a store-enabled engine rejects tenants that were not built from a
//! scenario document ([`ServeError::NotPersistable`]): without the document
//! there is nothing to rebuild from.
//!
//! # Capture never flushes
//!
//! [`Tenant::snapshot`] flushes pending feedback first (an in-memory
//! checkpoint wants complete policy state). Durable capture must not: the
//! flush would mutate the policy, so an engine with a store would diverge
//! from one without. [`capture_tenant`] therefore reads the pending queue
//! non-destructively (in arrival order, which reproduces the eventual
//! flush's stable sort) and stores it verbatim.

use std::collections::HashMap;

use rand::rngs::StdRng;

use netband_spec::{ScenarioSpec, StoredTenantSnapshot, WalRecord, STORE_VERSION};
use netband_store::ShardStore;

use crate::api::{FeedbackEvent, FlushPolicy, ServeError, TenantId};
use crate::metrics::TenantTelemetry;
use crate::tenant::{Tenant, TenantKind, TenantSpec};

/// Captures a live tenant's complete durable state, without flushing its
/// pending feedback (see the module docs).
///
/// # Errors
///
/// [`ServeError::NotPersistable`] when the tenant has no originating scenario
/// document or its policy does not implement state capture.
pub(crate) fn capture_tenant(t: &Tenant) -> Result<StoredTenantSnapshot, ServeError> {
    let scenario = t
        .origin
        .clone()
        .ok_or_else(|| ServeError::NotPersistable(t.id.clone()))?;
    let (policy_state, pending) = match &t.kind {
        TenantKind::Single {
            policy, pending, ..
        } => (
            policy.save_state(),
            pending
                .iter()
                .map(|(round, fb)| (round, FeedbackEvent::Single(fb.clone())))
                .collect::<Vec<_>>(),
        ),
        TenantKind::Combinatorial {
            policy, pending, ..
        } => (
            policy.save_state(),
            pending
                .iter()
                .map(|(round, fb)| (round, FeedbackEvent::Combinatorial(fb.clone())))
                .collect(),
        ),
    };
    let policy = policy_state.ok_or_else(|| ServeError::NotPersistable(t.id.clone()))?;
    Ok(StoredTenantSnapshot {
        version: STORE_VERSION,
        id: t.id.clone(),
        scenario,
        round: t.round,
        optimal_sum: t.optimal_sum,
        total_reward: t.total_reward,
        flush_max_pending: t.flush.max_pending as u64,
        flush_before_decide: t.flush.flush_before_decide,
        auto_feedback: t.auto_feedback,
        echo_feedback: t.echo_feedback,
        rng: t.rng.to_state(),
        policy,
        pending,
        metrics: t.metrics.clone(),
    })
}

/// Builds a tenant as it was registered, before it learned anything: its
/// scenario document plus the serving knobs set after building the spec.
pub(crate) fn build_tenant(
    id: &str,
    scenario: &ScenarioSpec,
    flush_max_pending: u64,
    flush_before_decide: bool,
    auto_feedback: bool,
    echo_feedback: bool,
) -> Result<Tenant, ServeError> {
    let max_pending = usize::try_from(flush_max_pending).map_err(|_| {
        ServeError::Store(format!(
            "tenant {id:?}: flush_max_pending {flush_max_pending} does not fit this platform"
        ))
    })?;
    let spec = TenantSpec::from_scenario(id, scenario)?
        .with_flush(FlushPolicy {
            max_pending,
            flush_before_decide,
        })
        .with_auto_feedback(auto_feedback)
        .with_echo_feedback(echo_feedback);
    Tenant::new(spec)
}

/// The record that logs a tenant's registration, built from its capture.
pub(crate) fn register_record(stored: StoredTenantSnapshot) -> WalRecord {
    WalRecord::Register {
        id: stored.id,
        scenario: stored.scenario,
        flush_max_pending: stored.flush_max_pending,
        flush_before_decide: stored.flush_before_decide,
        auto_feedback: stored.auto_feedback,
        echo_feedback: stored.echo_feedback,
    }
}

/// Rebuilds a live tenant from its durable state: the scenario document is
/// built exactly as registration built it, then the learned state is loaded
/// on top. The result continues the original's decision stream
/// f64-bit-identically.
pub(crate) fn restore_tenant(stored: StoredTenantSnapshot) -> Result<Tenant, ServeError> {
    let StoredTenantSnapshot {
        version: _,
        id,
        scenario,
        round,
        optimal_sum,
        total_reward,
        flush_max_pending,
        flush_before_decide,
        auto_feedback,
        echo_feedback,
        rng,
        policy: policy_state,
        pending,
        metrics,
    } = stored;
    let mut tenant = build_tenant(
        &id,
        &scenario,
        flush_max_pending,
        flush_before_decide,
        auto_feedback,
        echo_feedback,
    )?;
    match &mut tenant.kind {
        TenantKind::Single {
            policy,
            pending: queue,
            ..
        } => {
            policy
                .load_state(&policy_state)
                .map_err(|e| ServeError::Store(format!("tenant {id:?}: {e}")))?;
            for (round, event) in pending {
                match event {
                    FeedbackEvent::Single(fb) => queue.push(round, fb),
                    FeedbackEvent::Combinatorial(_) => {
                        return Err(ServeError::FeedbackKindMismatch(id));
                    }
                }
            }
        }
        TenantKind::Combinatorial {
            policy,
            pending: queue,
            ..
        } => {
            policy
                .load_state(&policy_state)
                .map_err(|e| ServeError::Store(format!("tenant {id:?}: {e}")))?;
            for (round, event) in pending {
                match event {
                    FeedbackEvent::Combinatorial(fb) => queue.push(round, fb),
                    FeedbackEvent::Single(_) => {
                        return Err(ServeError::FeedbackKindMismatch(id));
                    }
                }
            }
        }
    }
    tenant.rng = StdRng::from_state(rng);
    tenant.round = round;
    tenant.optimal_sum = optimal_sum;
    tenant.total_reward = total_reward;
    tenant.metrics = metrics;
    Ok(tenant)
}

/// One shard's durability state: its [`ShardStore`] plus the resident-set
/// bookkeeping of the disk eviction tier.
///
/// The eviction tier is a *cache*, not a log: moving a tenant to disk or
/// back is pure RAM management and is deliberately **not** WAL-logged —
/// recovery reconstructs every tenant (resident or evicted) from the
/// snapshot and WAL alone, and the store sweeps evict files at open so they
/// can never double-apply.
///
/// An evicted tenant takes no mutations (any command that would mutate it
/// rehydrates it first), so its telemetry read-out, taken at eviction, stays
/// current for as long as it is on disk: shard-wide reads answer from it
/// without paging the tenant in.
pub(crate) struct ShardDurability {
    pub(crate) store: ShardStore,
    /// Maximum tenants kept resident; `None` disables the eviction tier.
    pub(crate) resident_cap: Option<usize>,
    /// Tenants currently living in the disk tier (out of RAM), each with
    /// its telemetry read-out frozen at eviction.
    pub(crate) evicted: HashMap<TenantId, TenantTelemetry>,
    /// Last-touch sequence number per *resident* tenant (the LRU order).
    last_touch: HashMap<TenantId, u64>,
    /// Monotonic touch clock.
    clock: u64,
}

impl ShardDurability {
    /// Durability over an opened store, with nothing resident yet.
    pub(crate) fn new(store: ShardStore, resident_cap: Option<usize>) -> Self {
        ShardDurability {
            store,
            resident_cap,
            evicted: HashMap::new(),
            last_touch: HashMap::new(),
            clock: 0,
        }
    }

    /// Marks a resident tenant as most recently used.
    pub(crate) fn touch(&mut self, id: &str) {
        self.clock += 1;
        match self.last_touch.get_mut(id) {
            Some(slot) => *slot = self.clock,
            None => {
                self.last_touch.insert(id.to_owned(), self.clock);
            }
        }
    }

    /// Drops all bookkeeping for a removed tenant.
    pub(crate) fn forget(&mut self, id: &str) {
        self.last_touch.remove(id);
        self.evicted.remove(id);
    }

    /// Moves a tenant's bookkeeping from resident to the disk tier, keeping
    /// its read-out.
    pub(crate) fn note_evicted(&mut self, telemetry: TenantTelemetry) {
        self.last_touch.remove(&telemetry.id);
        self.evicted.insert(telemetry.id.clone(), telemetry);
    }

    /// Moves a tenant's bookkeeping from the disk tier to resident.
    pub(crate) fn note_rehydrated(&mut self, id: &str) {
        self.evicted.remove(id);
        self.touch(id);
    }

    /// Whether a tenant exists on this shard at all (resident or on disk).
    pub(crate) fn knows(&self, id: &str) -> bool {
        self.last_touch.contains_key(id) || self.evicted.contains_key(id)
    }

    /// The least-recently-used resident tenant (ties broken by id, so the
    /// eviction order is deterministic).
    pub(crate) fn lru_victim(&self) -> Option<TenantId> {
        self.last_touch
            .iter()
            .min_by(|a, b| a.1.cmp(b.1).then_with(|| a.0.cmp(b.0)))
            .map(|(id, _)| id.clone())
    }

    /// Whether `resident` tenants exceed the configured cap.
    pub(crate) fn over_cap(&self, resident: usize) -> bool {
        self.resident_cap.is_some_and(|cap| resident > cap)
    }
}

/// Extracts the tenant id a WAL record is about (for trace-event context);
/// empty for shard-wide records.
pub(crate) fn record_tenant(record: &WalRecord) -> &str {
    match record {
        WalRecord::Register { id, .. } => id,
        WalRecord::Restore { snapshot } => &snapshot.id,
        WalRecord::Decide { tenant, .. }
        | WalRecord::Feedback { tenant, .. }
        | WalRecord::Flush { tenant }
        | WalRecord::Removed { tenant } => tenant,
        WalRecord::Drain => "",
    }
}
