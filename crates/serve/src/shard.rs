//! The shard: one state machine owning a disjoint set of tenants.
//!
//! A [`Shard`] owns its tenants, the optional durable store, its metrics and
//! its trace ring, and changes tenants only through its mutation methods,
//! one per WAL-visible effect: admit (register or restore), decide,
//! feedback, flush, remove and drain. The mutations never log. Serving and
//! recovery both drive them:
//!
//! - [`Shard::apply`] serves one [`Command`]: the command's mutation, its WAL
//!   record when the shard has a store, its reply, then the resident cap.
//!   The worker thread ([`Shard::run`]) is a loop over its bounded command
//!   channel that calls `apply`; the shard's state never leaves that thread,
//!   so the hot path takes no locks.
//! - [`Shard::recover`] applies the log: the snapshot's tenants and every
//!   WAL record go through the mutation that wrote them (a decide record
//!   through the tenant's `decide_into`, which every served decision runs,
//!   without the serving clock), so each mutation has one implementation and
//!   a recovered tenant is the served one, bit for bit. Replayed history is
//!   not traffic: recovery ends with fresh metrics and a fresh trace ring.
//!
//! # Durability (optional)
//!
//! A durable shard WAL-logs every successful mutation *after* it executes
//! (rejected commands never reach the log, so replay cannot fail where the
//! original run succeeded) and keeps at most `resident_cap` tenants in RAM,
//! moving the least-recently-used ones to the disk eviction tier and reading
//! them back transparently when traffic returns. Reads (metrics, telemetry)
//! never page a tenant in: they answer from the read-out the shard keeps of
//! each evicted tenant.
//!
//! A store failure reaches [`Shard::apply`] as `Err(ServeError::Store)`,
//! which the worker thread treats as **fatal**: once the log can no longer
//! be written the durability contract cannot be honoured, and dying loudly
//! beats silently diverging from the on-disk state (crash-only design — the
//! next boot recovers from the last durable point).

use std::collections::HashMap;
use std::fmt::Display;
use std::ops::ControlFlow;
use std::sync::mpsc::{Receiver, SyncSender};
use std::time::Instant;

use netband_obs::{DecideStage, StageClock, TraceEvent, TraceKind, TraceRing};
use netband_spec::{StoredTenantSnapshot, WalRecord};
use netband_store::{ShardStore, StoreConfig, StoreMetrics};

use crate::api::{blank_reply, DecideReply, FeedbackEvent, ServeError, TenantId};
use crate::durable::{self, capture_tenant, restore_tenant, ShardDurability};
use crate::metrics::{ShardMetrics, TenantMetrics, TenantTelemetry, STAGE_SAMPLE_EVERY};
use crate::snapshot::TenantSnapshot;
use crate::tenant::{Tenant, TenantSpec};

/// One entry of a decide window: `count` consecutive decisions for `tenant`.
/// Request buffers are recycled through the reply, so the tenant-id strings
/// stay warm across windows.
#[derive(Debug)]
pub(crate) struct DecideRequest {
    pub(crate) tenant: TenantId,
    pub(crate) count: u32,
}

/// A feedback window for one tenant: its events in arrival order, each with
/// the round it answers. The shard `mem::take`s the events out, so a
/// recycled window keeps its tenant-id string and its capacity warm.
#[derive(Debug, Default)]
pub(crate) struct FeedbackWindow {
    pub(crate) tenant: TenantId,
    pub(crate) events: Vec<(u64, FeedbackEvent)>,
}

/// A served decide window travelling back to its client: the filled reply
/// slots plus the request buffer, returned for recycling.
pub(crate) struct DecideBatch {
    pub(crate) requests: Vec<DecideRequest>,
    pub(crate) replies: Vec<Result<DecideReply, ServeError>>,
}

/// A command addressed to one shard. Fire-and-forget commands (`Feedback`,
/// `Flush`) carry no reply channel; failures are counted in
/// [`ShardMetrics::rejected`].
pub(crate) enum Command {
    /// Serve a decide window (one tenant lookup per request entry, `count`
    /// decisions each), filling `replies` **in place** — warm slots are
    /// reused, so a steady-state window allocates nothing — and send the
    /// buffers back through `reply`. A per-call decide is a window of one.
    Decide {
        requests: Vec<DecideRequest>,
        replies: Vec<Result<DecideReply, ServeError>>,
        reply: SyncSender<DecideBatch>,
    },
    /// Ingest a feedback window in order (round validation, flush
    /// thresholds and rejected accounting apply per event), then hand the
    /// drained window back through `recycle`, if any (dropped, never
    /// blocking the shard, when the client's pool is full or gone).
    Feedback {
        window: FeedbackWindow,
        recycle: Option<SyncSender<FeedbackWindow>>,
    },
    Flush {
        tenant: TenantId,
    },
    Create {
        spec: Box<TenantSpec>,
        reply: SyncSender<Result<(), ServeError>>,
    },
    Restore {
        snapshot: Box<TenantSnapshot>,
        reply: SyncSender<Result<(), ServeError>>,
    },
    Snapshot {
        tenant: TenantId,
        reply: SyncSender<Result<TenantSnapshot, ServeError>>,
    },
    Evict {
        tenant: TenantId,
        reply: SyncSender<Result<TenantSnapshot, ServeError>>,
    },
    Metrics {
        reply: SyncSender<ShardReport>,
    },
    /// One tenant's learning snapshot (read-only: never flushes).
    Telemetry {
        tenant: TenantId,
        reply: SyncSender<Result<TenantTelemetry, ServeError>>,
    },
    /// Learning snapshots of every hosted tenant, sorted by id.
    TelemetryAll {
        reply: SyncSender<Vec<TenantTelemetry>>,
    },
    /// Drains the shard's trace ring (oldest event first).
    Trace {
        reply: SyncSender<Vec<TraceEvent>>,
    },
    /// The shard store's counters (`None` when the shard has no store).
    StoreMetrics {
        reply: SyncSender<Option<StoreMetrics>>,
    },
    /// Flush every tenant's pending feedback; the ack doubles as a queue
    /// barrier (everything enqueued before it has been processed).
    Drain {
        reply: SyncSender<()>,
    },
    Shutdown,
}

/// One shard's contribution to a [`crate::MetricsReport`].
pub(crate) struct ShardReport {
    pub(crate) metrics: ShardMetrics,
    pub(crate) tenants: Vec<(TenantId, TenantMetrics)>,
}

/// A store failure, with the operation it interrupted.
fn store_fault(context: impl Display, error: impl Display) -> ServeError {
    ServeError::Store(format!("{context}: {error}"))
}

/// One shard's state; see the module docs.
pub(crate) struct Shard {
    tenants: HashMap<TenantId, Tenant>,
    durable: Option<ShardDurability>,
    metrics: ShardMetrics,
    trace: TraceRing,
    /// Decides served by this shard, counted across all tenants; every
    /// STAGE_SAMPLE_EVERY-th one records its stage split.
    decides: u64,
}

impl Shard {
    /// An empty, store-less shard (the default engine).
    pub(crate) fn new(trace_capacity: usize) -> Shard {
        Shard {
            tenants: HashMap::new(),
            durable: None,
            metrics: ShardMetrics::default(),
            trace: TraceRing::new(trace_capacity),
            decides: 0,
        }
    }

    /// Opens shard `shard`'s store and applies what it holds: the committed
    /// snapshot's tenants, then each WAL record through the mutation that
    /// wrote it. Only successful mutations were logged, so a failure means
    /// the files contradict themselves ([`ServeError::Store`]). Eviction is
    /// not logged, so every tenant comes back resident; the disk tier
    /// re-forms when the shard starts serving.
    pub(crate) fn recover(
        config: &StoreConfig,
        shard: usize,
        trace_capacity: usize,
    ) -> Result<Shard, ServeError> {
        let (store, recovery) = ShardStore::open(config, shard)?;
        let mut this = Shard {
            durable: Some(ShardDurability::new(store, config.resident_cap)),
            ..Shard::new(trace_capacity)
        };
        // The snapshot's tenants are admitted exactly as restore records are.
        let snapshot = recovery
            .tenants
            .into_iter()
            .map(|stored| WalRecord::Restore {
                snapshot: Box::new(stored),
            });
        let mut scratch = blank_reply();
        for record in snapshot.chain(recovery.records) {
            this.replay(record, &mut scratch).map_err(|e| match e {
                ServeError::Store(_) => e,
                other => store_fault("wal replay failed", other),
            })?;
        }
        // Replayed history is not traffic: drop what the replay counted and
        // traced.
        this.metrics = ShardMetrics::default();
        this.trace = TraceRing::new(trace_capacity);
        this.decides = 0;
        Ok(this)
    }

    /// Applies one WAL record through the mutation that wrote it.
    fn replay(&mut self, record: WalRecord, scratch: &mut DecideReply) -> Result<(), ServeError> {
        match record {
            WalRecord::Register {
                id,
                scenario,
                flush_max_pending,
                flush_before_decide,
                auto_feedback,
                echo_feedback,
            } => {
                let tenant = durable::build_tenant(
                    &id,
                    &scenario,
                    flush_max_pending,
                    flush_before_decide,
                    auto_feedback,
                    echo_feedback,
                )?;
                self.admit(tenant, TraceKind::TenantRegistered)
            }
            WalRecord::Restore { snapshot } => {
                self.admit(restore_tenant(*snapshot)?, TraceKind::TenantRestored)
            }
            // The served decisions were answered already; replay only
            // advances the tenant, through one reused reply and no clock.
            WalRecord::Decide { tenant, count } => {
                let tenant = self.resident(&tenant)?;
                (0..count).try_for_each(|_| tenant.decide_into(scratch, None))
            }
            WalRecord::Feedback {
                tenant,
                round,
                event,
            } => self.feedback(&tenant, round, event),
            WalRecord::Flush { tenant } => self.flush(&tenant),
            WalRecord::Removed { tenant } => self.remove(&tenant).map(drop),
            WalRecord::Drain => self.drain_all(),
        }
    }

    /// The worker thread body: re-forms the disk tier (recovery leaves
    /// every tenant resident), then applies commands until `Shutdown` or
    /// until every sender is gone. A store failure panics (see the module
    /// docs).
    pub(crate) fn run(mut self, commands: Receiver<Command>) {
        let mut flow = self.enforce_cap().map(|()| ControlFlow::Continue(()));
        loop {
            match flow {
                Ok(ControlFlow::Continue(())) => {}
                Ok(ControlFlow::Break(())) => break,
                Err(ServeError::Store(message)) => panic!("{message}"),
                Err(e) => panic!("{e}"),
            }
            let Ok(command) = commands.recv() else {
                break;
            };
            flow = self.apply(command);
        }
    }

    /// Serves one command: its mutation, its WAL record when the shard has a
    /// store, its reply, then the resident cap. A rejected command (unknown
    /// tenant, invalid round, …) is answered or counted, never an `Err`:
    /// `Err` means the store failed.
    pub(crate) fn apply(&mut self, command: Command) -> Result<ControlFlow<()>, ServeError> {
        self.metrics.commands += 1;
        match command {
            Command::Decide {
                requests,
                mut replies,
                reply,
            } => {
                let total: usize = requests.iter().map(|r| r.count as usize).sum();
                replies.truncate(total);
                let mut slot = 0usize;
                for request in &requests {
                    let served =
                        self.decide(&request.tenant, request.count, &mut replies, &mut slot);
                    if served > 0 {
                        self.log(|| WalRecord::Decide {
                            tenant: request.tenant.clone(),
                            count: served,
                        })?;
                    }
                }
                // A disconnected caller is not a shard failure.
                let _ = reply.send(DecideBatch { requests, replies });
            }
            Command::Feedback {
                mut window,
                recycle,
            } => {
                let FeedbackWindow { tenant, events } = &mut window;
                for (round, event) in events.iter_mut() {
                    let start = Instant::now();
                    // Move the event out, leaving a (heap-free) default
                    // behind so the buffer can be recycled.
                    let event = std::mem::take(event);
                    let logged = self.durable.as_ref().map(|_| event.clone());
                    match self.feedback(tenant, *round, event) {
                        Ok(()) => self.log(|| WalRecord::Feedback {
                            tenant: tenant.clone(),
                            round: *round,
                            event: logged.expect("converted on durable shards"),
                        })?,
                        Err(_) => {
                            self.metrics.rejected += 1;
                            self.trace.record(TraceKind::FeedbackRejected, tenant);
                        }
                    }
                    self.metrics.feedback_latency.record(start.elapsed());
                }
                // Hand the buffer back to the client's pool; a full or
                // disconnected pool just drops it (never block the shard).
                if let Some(recycle) = recycle {
                    let _ = recycle.try_send(window);
                }
            }
            Command::Flush { tenant } => match self.flush(&tenant) {
                Ok(()) => self.log(|| WalRecord::Flush { tenant })?,
                Err(_) => self.metrics.rejected += 1,
            },
            Command::Create { spec, reply } => {
                let result = self.host(
                    Tenant::new(*spec),
                    TraceKind::TenantRegistered,
                    durable::register_record,
                )?;
                let _ = reply.send(result);
            }
            Command::Restore { snapshot, reply } => {
                // The restored tenant's history is not reachable from this
                // shard's log, so its complete durable state is logged.
                let result = self.host(
                    Ok(Tenant::from_snapshot(*snapshot)),
                    TraceKind::TenantRestored,
                    |stored| WalRecord::Restore {
                        snapshot: Box::new(stored),
                    },
                )?;
                let _ = reply.send(result);
            }
            Command::Snapshot { tenant, reply } => {
                let mut flushed = false;
                let result = self.resident(&tenant).map(|t| {
                    flushed = t.pending_len() > 0;
                    t.snapshot()
                });
                if result.is_ok() {
                    self.trace.record(TraceKind::SnapshotTaken, &tenant);
                    // `Tenant::snapshot` flushed pending feedback; log it as
                    // the flush it is, if there was any.
                    if flushed {
                        self.log(|| WalRecord::Flush { tenant })?;
                    }
                }
                let _ = reply.send(result);
            }
            Command::Evict { tenant, reply } => {
                let result = self.remove(&tenant).map(|mut t| t.snapshot());
                if result.is_ok() {
                    // A tenant evicted earlier left a stale file behind.
                    if let Some(dur) = &mut self.durable {
                        dur.store.remove_evicted(&tenant).map_err(|e| {
                            store_fault(format_args!("removing tenant {tenant:?}"), e)
                        })?;
                    }
                    self.log(|| WalRecord::Removed { tenant })?;
                }
                let _ = reply.send(result);
            }
            // Shard-wide reads cover the disk tier through its frozen
            // read-outs, so a capped engine reports exactly what an uncapped
            // one would without paging a tenant in.
            Command::Metrics { reply } => {
                let resident = self.tenants.iter().map(|(id, t)| (id, &t.metrics));
                let parked = self.parked().map(|t| (&t.id, &t.metrics));
                let mut list: Vec<(TenantId, TenantMetrics)> = resident
                    .chain(parked)
                    .map(|(id, metrics)| (id.clone(), metrics.clone()))
                    .collect();
                list.sort_by(|a, b| a.0.cmp(&b.0));
                let _ = reply.send(ShardReport {
                    metrics: self.metrics.clone(),
                    tenants: list,
                });
            }
            Command::Telemetry { tenant, reply } => {
                let read_out = self
                    .tenants
                    .get(&tenant)
                    .map(Tenant::telemetry)
                    .or_else(|| self.durable.as_ref()?.evicted.get(&tenant).cloned());
                let _ = reply.send(read_out.ok_or(ServeError::UnknownTenant(tenant)));
            }
            Command::TelemetryAll { reply } => {
                let resident = self.tenants.values().map(Tenant::telemetry);
                let mut list: Vec<TenantTelemetry> =
                    resident.chain(self.parked().cloned()).collect();
                list.sort_by(|a, b| a.id.cmp(&b.id));
                let _ = reply.send(list);
            }
            Command::Trace { reply } => {
                let mut out = Vec::new();
                self.trace.drain_into(&mut out);
                let _ = reply.send(out);
            }
            Command::StoreMetrics { reply } => {
                let _ = reply.send(self.durable.as_ref().map(|d| *d.store.metrics()));
            }
            Command::Drain { reply } => {
                self.drain_all()?;
                self.log(|| WalRecord::Drain)?;
                // The drain ack is a barrier; make it a durability point
                // too, regardless of the fsync batching schedule.
                self.sync()?;
                let _ = reply.send(());
            }
            Command::Shutdown => {
                self.sync()?;
                return Ok(ControlFlow::Break(()));
            }
        }
        self.enforce_cap()?;
        Ok(ControlFlow::Continue(()))
    }

    // ----- mutations: each changes tenants, none logs -----------------------

    /// Hosts a registered or restored tenant — the one check that its id is
    /// free on this shard — and marks it most recently used.
    fn admit(&mut self, tenant: Tenant, event: TraceKind) -> Result<(), ServeError> {
        let taken = self.tenants.contains_key(&tenant.id)
            || self.durable.as_ref().is_some_and(|d| d.knows(&tenant.id));
        if taken {
            return Err(ServeError::DuplicateTenant(tenant.id));
        }
        self.trace.record(event, &tenant.id);
        if let Some(dur) = &mut self.durable {
            dur.touch(&tenant.id);
        }
        self.tenants.insert(tenant.id.clone(), tenant);
        Ok(())
    }

    /// Serves `count` decisions for `id` into `replies` from `*slot` on
    /// (advancing it, growing the buffer as needed); a failed lookup fills
    /// every slot with its error. Returns how many decisions were served.
    fn decide(
        &mut self,
        id: &str,
        count: u32,
        replies: &mut Vec<Result<DecideReply, ServeError>>,
        slot: &mut usize,
    ) -> u64 {
        let resident = self.ensure_resident(id);
        let tenant = resident.and_then(|()| {
            self.tenants
                .get_mut(id)
                .ok_or_else(|| ServeError::UnknownTenant(id.to_owned()))
        });
        let mut served: u64 = 0;
        let mut at = *slot;
        match tenant {
            Ok(tenant) => {
                for _ in 0..count {
                    let start = Instant::now();
                    self.decides += 1;
                    if self.decides % STAGE_SAMPLE_EVERY == 0 {
                        // The tenant lookup happens once per entry, before
                        // the clock starts, so the Route lap is ~zero:
                        // windows amortise routing away.
                        let mut clock = StageClock::start();
                        clock.lap(DecideStage::Route, &mut self.metrics.stages);
                        decide_into_slot(
                            tenant,
                            replies,
                            at,
                            Some((&mut clock, &mut self.metrics.stages)),
                        );
                    } else {
                        decide_into_slot(tenant, replies, at, None);
                    }
                    if replies[at].is_ok() {
                        served += 1;
                    }
                    self.metrics.decide_latency.record(start.elapsed());
                    at += 1;
                }
            }
            Err(err) => {
                for _ in 0..count {
                    let start = Instant::now();
                    if at == replies.len() {
                        replies.push(Err(err.clone()));
                    } else {
                        replies[at] = Err(err.clone());
                    }
                    self.metrics.decide_latency.record(start.elapsed());
                    at += 1;
                }
            }
        }
        *slot = at;
        served
    }

    /// Queues one feedback event for `id`, which may trigger a flush.
    fn feedback(&mut self, id: &str, round: u64, event: FeedbackEvent) -> Result<(), ServeError> {
        let applied = self.resident(id)?.feedback(round, event)?;
        self.trace_flush(id, applied);
        Ok(())
    }

    /// Applies `id`'s pending feedback now.
    fn flush(&mut self, id: &str) -> Result<(), ServeError> {
        let applied = self.resident(id)?.flush_pending();
        self.trace_flush(id, applied);
        Ok(())
    }

    /// Removes `id` from the shard, disk tier included.
    fn remove(&mut self, id: &str) -> Result<Tenant, ServeError> {
        self.resident(id)?;
        let tenant = self.tenants.remove(id).expect("the tenant is resident");
        self.trace.record(TraceKind::TenantEvicted, id);
        if let Some(dur) = &mut self.durable {
            dur.forget(id);
        }
        Ok(tenant)
    }

    /// Flushes *every* tenant, disk tier included, so a capped engine's
    /// policies end up bit-exact with an uncapped one's; in sorted id order,
    /// so traced flush events land deterministically.
    fn drain_all(&mut self) -> Result<(), ServeError> {
        self.rehydrate_all()?;
        let mut ids: Vec<TenantId> = self.tenants.keys().cloned().collect();
        ids.sort();
        for id in ids {
            let applied = self.tenants.get_mut(&id).map_or(0, Tenant::flush_pending);
            self.trace_flush(&id, applied);
        }
        Ok(())
    }

    /// Traces a flush of `id` that applied `events` feedback events, if any.
    fn trace_flush(&mut self, id: &str, events: u64) {
        if events > 0 {
            self.trace.record(TraceKind::FlushApplied { events }, id);
        }
    }

    // ----- the store and the disk tier --------------------------------------

    /// Admits the tenant `built` and logs `record` of its capture. A durable
    /// shard admits only tenants it can capture (`NotPersistable`), so
    /// eviction and compaction cannot fail later. The outer `Err` is a store
    /// failure, the inner result the caller's answer.
    fn host(
        &mut self,
        built: Result<Tenant, ServeError>,
        event: TraceKind,
        record: fn(StoredTenantSnapshot) -> WalRecord,
    ) -> Result<Result<(), ServeError>, ServeError> {
        let admitted = built.and_then(|tenant| {
            let stored = match &self.durable {
                Some(_) => Some(capture_tenant(&tenant)?),
                None => None,
            };
            self.admit(tenant, event)?;
            Ok(stored)
        });
        match admitted {
            Ok(Some(stored)) => self.log(|| record(stored)).map(Ok),
            Ok(None) => Ok(Ok(())),
            Err(e) => Ok(Err(e)),
        }
    }

    /// `id`'s tenant, read back from the disk tier if it lives there.
    fn resident(&mut self, id: &str) -> Result<&mut Tenant, ServeError> {
        self.ensure_resident(id)?;
        self.tenants
            .get_mut(id)
            .ok_or_else(|| ServeError::UnknownTenant(id.to_owned()))
    }

    /// Rehydrates `id` from the disk tier if it lives there, and marks it
    /// most-recently-used if it is (now) resident. Returns `Ok(())` even when
    /// the tenant is simply unknown — the caller's own lookup reports that —
    /// and `Err` only for store/restore failures.
    fn ensure_resident(&mut self, id: &str) -> Result<(), ServeError> {
        let Some(dur) = &mut self.durable else {
            return Ok(());
        };
        if self.tenants.contains_key(id) {
            dur.touch(id);
        } else if dur.evicted.contains_key(id) {
            let tenant = restore_tenant(dur.store.read_evicted(id)?)?;
            dur.note_rehydrated(id);
            self.trace.record(TraceKind::TenantRehydrated, id);
            self.tenants.insert(tenant.id.clone(), tenant);
        }
        Ok(())
    }

    /// The disk tier's telemetry read-outs, frozen at eviction (none without
    /// a store).
    fn parked(&self) -> impl Iterator<Item = &TenantTelemetry> {
        self.durable.iter().flat_map(|d| d.evicted.values())
    }

    /// Rehydrates every disk-tier tenant (sorted by id, deterministically)
    /// ahead of a drain, which flushes *all* tenants, exactly like a
    /// store-less engine.
    fn rehydrate_all(&mut self) -> Result<(), ServeError> {
        let mut ids: Vec<TenantId> = match &self.durable {
            Some(dur) if !dur.evicted.is_empty() => dur.evicted.keys().cloned().collect(),
            _ => return Ok(()),
        };
        ids.sort();
        for id in ids {
            self.ensure_resident(&id)
                .map_err(|e| store_fault(format_args!("rehydrating tenant {id:?}"), e))?;
        }
        Ok(())
    }

    /// Re-forms the disk tier: while the resident set exceeds the cap, the
    /// least-recently-used tenant is captured to its evict file and dropped
    /// from RAM. Capture never flushes, so a capped engine's tenants stay
    /// bit-exact with an uncapped one's.
    fn enforce_cap(&mut self) -> Result<(), ServeError> {
        let Some(dur) = &mut self.durable else {
            return Ok(());
        };
        while dur.over_cap(self.tenants.len()) {
            let Some(victim) = dur.lru_victim() else {
                break;
            };
            let stored = capture_tenant(&self.tenants[&victim])
                .map_err(|e| store_fault(format_args!("evicting tenant {victim:?}"), e))?;
            dur.store
                .write_evicted(&stored)
                .map_err(|e| store_fault(format_args!("evicting tenant {victim:?}"), e))?;
            let tenant = self
                .tenants
                .remove(&victim)
                .expect("the victim is resident");
            dur.note_evicted(tenant.telemetry());
            self.trace.record(TraceKind::TenantEvicted, &victim);
        }
        Ok(())
    }

    /// Appends the record `record` builds to the shard's WAL (tracing it)
    /// and compacts when the schedule says so. Without a store the record is
    /// never built.
    fn log(&mut self, record: impl FnOnce() -> WalRecord) -> Result<(), ServeError> {
        let Some(dur) = &mut self.durable else {
            return Ok(());
        };
        let record = record();
        dur.store
            .append(&record)
            .map_err(|e| store_fault("wal append failed", e))?;
        self.trace.record(
            TraceKind::WalAppended {
                bytes: dur.store.wal_bytes(),
            },
            durable::record_tenant(&record),
        );
        if dur.store.compaction_due() {
            let mut ids: Vec<&TenantId> = self.tenants.keys().collect();
            ids.sort();
            let resident = ids
                .into_iter()
                .map(|id| {
                    capture_tenant(&self.tenants[id]).map_err(|e| {
                        store_fault(format_args!("capturing tenant {id:?} for compaction"), e)
                    })
                })
                .collect::<Result<Vec<_>, _>>()?;
            let captured = (self.tenants.len() + dur.evicted.len()) as u32;
            dur.store
                .compact(resident)
                .map_err(|e| store_fault("wal compaction failed", e))?;
            self.trace
                .record(TraceKind::SnapshotCompacted { tenants: captured }, "");
        }
        Ok(())
    }

    /// Forces batched WAL appends to disk.
    fn sync(&mut self) -> Result<(), ServeError> {
        if let Some(dur) = &mut self.durable {
            dur.store
                .sync()
                .map_err(|e| store_fault("wal sync failed", e))?;
        }
        Ok(())
    }
}

/// Serves one decision into reply slot `slot`, growing the buffer by one if
/// the batch is larger than the recycled buffer. A warm `Ok` slot is filled
/// strictly in place (no allocation when its buffers fit); an `Err` slot is
/// reset to a blank reply first.
fn decide_into_slot(
    tenant: &mut Tenant,
    replies: &mut Vec<Result<DecideReply, ServeError>>,
    slot: usize,
    stages: Option<(&mut StageClock, &mut netband_obs::StageTimings)>,
) {
    if slot == replies.len() {
        replies.push(Ok(blank_reply()));
    }
    let entry = &mut replies[slot];
    if entry.is_err() {
        *entry = Ok(blank_reply());
    }
    let Ok(reply) = entry else {
        unreachable!("slot was just reset to Ok");
    };
    if let Err(e) = tenant.decide_into(reply, stages) {
        *entry = Err(e);
    }
}
