//! The translation layer between live tenants and their durable documents,
//! plus shard recovery and the disk eviction tier's bookkeeping.
//!
//! `netband-store` owns files, framing, and fsync scheduling;
//! `netband_spec::store` owns the documents inside the frames. This module
//! owns the only part neither of them can: converting a live [`Tenant`] to a
//! [`StoredTenantSnapshot`] and back, bit-exactly.
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

use std::collections::{HashMap, HashSet};

use rand::rngs::StdRng;

use netband_spec::{
    StoredTenantMetrics, StoredTenantSnapshot, WalRecord, WireEvent, STORE_VERSION,
};
use netband_store::{ShardStore, StoreConfig};

use crate::api::{FeedbackEvent, FlushPolicy, ServeError, TenantId};
use crate::metrics::TenantMetrics;
use crate::shard::ShardBoot;
use crate::tenant::{Tenant, TenantKind, TenantSpec};

/// Converts a client-facing feedback event into its wire/stored form.
pub(crate) fn event_to_wire(event: &FeedbackEvent) -> WireEvent {
    match event {
        FeedbackEvent::Single(fb) => WireEvent::Single(fb.clone()),
        FeedbackEvent::Combinatorial(fb) => WireEvent::Combinatorial(fb.clone()),
    }
}

/// Converts a stored feedback event back into its client-facing form.
pub(crate) fn wire_to_event(event: WireEvent) -> FeedbackEvent {
    match event {
        WireEvent::Single(fb) => FeedbackEvent::Single(fb),
        WireEvent::Combinatorial(fb) => FeedbackEvent::Combinatorial(fb),
    }
}

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
                .map(|(round, fb)| (round, WireEvent::Single(fb.clone())))
                .collect::<Vec<_>>(),
        ),
        TenantKind::Combinatorial {
            policy, pending, ..
        } => (
            policy.save_state(),
            pending
                .iter()
                .map(|(round, fb)| (round, WireEvent::Combinatorial(fb.clone())))
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
        metrics: StoredTenantMetrics {
            decides: t.metrics.decides,
            feedback_events: t.metrics.feedback_events,
            batches_flushed: t.metrics.batches_flushed,
            events_applied: t.metrics.events_applied,
            max_batch: t.metrics.max_batch,
        },
    })
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
    let max_pending = usize::try_from(flush_max_pending).map_err(|_| {
        ServeError::Store(format!(
            "tenant {id:?}: flush_max_pending {flush_max_pending} does not fit this platform"
        ))
    })?;
    let spec = TenantSpec::from_scenario(id.clone(), &scenario)?
        .with_flush(FlushPolicy {
            max_pending,
            flush_before_decide,
        })
        .with_auto_feedback(auto_feedback)
        .with_echo_feedback(echo_feedback);
    let mut tenant = Tenant::new(spec)?;
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
                    WireEvent::Single(fb) => queue.push(round, fb),
                    WireEvent::Combinatorial(_) => {
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
                    WireEvent::Combinatorial(fb) => queue.push(round, fb),
                    WireEvent::Single(_) => {
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
    tenant.metrics = TenantMetrics {
        decides: metrics.decides,
        feedback_events: metrics.feedback_events,
        batches_flushed: metrics.batches_flushed,
        events_applied: metrics.events_applied,
        max_batch: metrics.max_batch,
    };
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
pub(crate) struct ShardDurability {
    pub(crate) store: ShardStore,
    /// Maximum tenants kept resident; `None` disables the eviction tier.
    pub(crate) resident_cap: Option<usize>,
    /// Tenants currently living in the disk tier (out of RAM).
    pub(crate) evicted: HashSet<TenantId>,
    /// Last-touch sequence number per *resident* tenant (the LRU order).
    last_touch: HashMap<TenantId, u64>,
    /// Monotonic touch clock.
    clock: u64,
}

impl ShardDurability {
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

    /// Moves a tenant's bookkeeping from resident to the disk tier.
    pub(crate) fn note_evicted(&mut self, id: &str) {
        self.last_touch.remove(id);
        self.evicted.insert(id.to_owned());
    }

    /// Moves a tenant's bookkeeping from the disk tier to resident.
    pub(crate) fn note_rehydrated(&mut self, id: &str) {
        self.evicted.remove(id);
        self.touch(id);
    }

    /// Whether a tenant exists on this shard at all (resident or on disk).
    pub(crate) fn knows(&self, id: &str) -> bool {
        self.last_touch.contains_key(id) || self.evicted.contains(id)
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

/// Opens one shard's store and replays its way back to the pre-crash state:
/// the latest committed snapshot's tenants are restored, then the WAL tail
/// is replayed through the same decide/feedback paths the live engine uses.
///
/// Every recovered tenant comes back *resident* regardless of where it lived
/// before the crash — the eviction tier re-forms as traffic arrives. Replay
/// ignores eviction entirely (it is not logged), which is exactly why it
/// cannot double-apply anything.
pub(crate) fn recover_shard(config: &StoreConfig, shard: usize) -> Result<ShardBoot, ServeError> {
    let (store, recovery) = ShardStore::open(config, shard)?;
    let mut durability = ShardDurability {
        store,
        resident_cap: config.resident_cap,
        evicted: HashSet::new(),
        last_touch: HashMap::new(),
        clock: 0,
    };
    let mut tenants = HashMap::new();
    for stored in recovery.tenants {
        let tenant = restore_tenant(stored)?;
        durability.touch(&tenant.id);
        tenants.insert(tenant.id.clone(), tenant);
    }
    for record in recovery.records {
        replay(record, &mut tenants, &mut durability)?;
    }
    Ok(ShardBoot {
        tenants,
        durable: Some(durability),
    })
}

/// Replays one WAL record onto the recovering tenant map. Only successful
/// mutations were logged, so any failure here means the files contradict
/// themselves — surfaced as [`ServeError::Store`], loudly.
fn replay(
    record: WalRecord,
    tenants: &mut HashMap<TenantId, Tenant>,
    durability: &mut ShardDurability,
) -> Result<(), ServeError> {
    fn known<'a>(
        tenants: &'a mut HashMap<TenantId, Tenant>,
        id: &str,
    ) -> Result<&'a mut Tenant, ServeError> {
        tenants.get_mut(id).ok_or_else(|| {
            ServeError::Store(format!("wal replays a mutation for unknown tenant {id:?}"))
        })
    }
    match record {
        WalRecord::Register {
            id,
            scenario,
            flush_max_pending,
            flush_before_decide,
            auto_feedback,
            echo_feedback,
        } => {
            let max_pending = usize::try_from(flush_max_pending).map_err(|_| {
                ServeError::Store(format!(
                    "tenant {id:?}: flush_max_pending {flush_max_pending} does not fit this \
                     platform"
                ))
            })?;
            let spec = TenantSpec::from_scenario(id.clone(), scenario.as_ref())?
                .with_flush(FlushPolicy {
                    max_pending,
                    flush_before_decide,
                })
                .with_auto_feedback(auto_feedback)
                .with_echo_feedback(echo_feedback);
            let tenant = Tenant::new(spec)?;
            durability.touch(&id);
            tenants.insert(id, tenant);
        }
        WalRecord::Restore { snapshot } => {
            let tenant = restore_tenant(*snapshot)?;
            durability.touch(&tenant.id);
            tenants.insert(tenant.id.clone(), tenant);
        }
        WalRecord::Decide { tenant, count } => {
            durability.touch(&tenant);
            let t = known(tenants, &tenant)?;
            for _ in 0..count {
                t.decide()?;
            }
        }
        WalRecord::Feedback {
            tenant,
            round,
            event,
        } => {
            durability.touch(&tenant);
            let t = known(tenants, &tenant)?;
            t.feedback(round, wire_to_event(event))?;
        }
        WalRecord::Flush { tenant } => {
            durability.touch(&tenant);
            let t = known(tenants, &tenant)?;
            t.flush_pending();
        }
        WalRecord::Removed { tenant } => {
            tenants.remove(&tenant);
            durability.forget(&tenant);
        }
        WalRecord::Drain => {
            // Same deterministic order as the live Drain command.
            let mut ids: Vec<TenantId> = tenants.keys().cloned().collect();
            ids.sort();
            for id in ids {
                if let Some(t) = tenants.get_mut(&id) {
                    t.flush_pending();
                }
            }
        }
    }
    Ok(())
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
