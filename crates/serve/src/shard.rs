//! Shard actor loop: one worker thread owning a disjoint set of tenants.
//!
//! A shard is a plain `std::thread` draining a bounded command channel — the
//! repo's `std`-only threading convention (no async runtime in the vendored
//! dependency set). All tenant state is thread-local to the shard, so the hot
//! path takes no locks; the bounded channel provides backpressure to clients.
//!
//! # Durability (optional)
//!
//! A shard booted with a [`ShardDurability`] WAL-logs every successful
//! mutation *after* it executes (rejected commands never reach the log, so
//! replay cannot fail where the original run succeeded) and keeps at most
//! `resident_cap` tenants in RAM, moving the least-recently-used ones to the
//! disk eviction tier and reading them back transparently when traffic
//! returns. Post-boot store failures are **fatal to the shard**: once the
//! log can no longer be written the durability contract cannot be honoured,
//! and dying loudly beats silently diverging from the on-disk state
//! (crash-only design — the next boot recovers from the last durable point).

use std::collections::HashMap;
use std::sync::mpsc::{Receiver, SyncSender};
use std::time::Instant;

use netband_obs::{DecideStage, StageClock, TraceEvent, TraceKind, TraceRing};
use netband_spec::WalRecord;
use netband_store::StoreMetrics;

use crate::api::{DecideReply, FeedbackEvent, ServeError, TenantId};
use crate::durable::{self, ShardDurability};
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

/// One entry of a feedback window. The event is `mem::take`n out by the
/// shard, so a recycled entry keeps its tenant-id string (and nothing else)
/// warm.
#[derive(Debug)]
pub(crate) struct FeedbackRequest {
    pub(crate) tenant: TenantId,
    pub(crate) round: u64,
    pub(crate) event: FeedbackEvent,
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
    /// drained request buffer back through `recycle`, if any (dropped, never
    /// blocking the shard, when the client's pool is full or gone).
    Feedback {
        events: Vec<FeedbackRequest>,
        recycle: Option<SyncSender<Vec<FeedbackRequest>>>,
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

/// What a shard starts from: its recovered tenants plus durability state
/// (both empty/absent for a plain in-memory shard).
pub(crate) struct ShardBoot {
    pub(crate) tenants: HashMap<TenantId, Tenant>,
    pub(crate) durable: Option<ShardDurability>,
}

impl ShardBoot {
    /// An empty, store-less boot (the default engine).
    pub(crate) fn in_memory() -> Self {
        ShardBoot {
            tenants: HashMap::new(),
            durable: None,
        }
    }
}

/// Rehydrates `id` from the disk tier if it lives there, and marks it
/// most-recently-used if it is (now) resident. Returns `Ok(())` even when
/// the tenant is simply unknown — the caller's own lookup reports that —
/// and `Err` only for store/restore failures.
fn ensure_resident(
    tenants: &mut HashMap<TenantId, Tenant>,
    durable: &mut Option<ShardDurability>,
    trace: &mut TraceRing,
    id: &str,
) -> Result<(), ServeError> {
    let Some(dur) = durable else {
        return Ok(());
    };
    if !tenants.contains_key(id) && dur.evicted.contains(id) {
        let stored = dur.store.read_evicted(id)?;
        let tenant = durable::restore_tenant(stored)?;
        dur.note_rehydrated(id);
        trace.record(TraceKind::TenantRehydrated, id);
        tenants.insert(tenant.id.clone(), tenant);
    } else if tenants.contains_key(id) {
        dur.touch(id);
    }
    Ok(())
}

/// Rehydrates every disk-tier tenant (sorted by id, deterministically) ahead
/// of a shard-wide command — metrics, telemetry, and drain cover *all*
/// tenants, exactly like a store-less engine.
fn rehydrate_all(
    tenants: &mut HashMap<TenantId, Tenant>,
    durable: &mut Option<ShardDurability>,
    trace: &mut TraceRing,
) {
    let mut ids: Vec<TenantId> = match durable {
        Some(dur) if !dur.evicted.is_empty() => dur.evicted.iter().cloned().collect(),
        _ => return,
    };
    ids.sort();
    for id in ids {
        ensure_resident(tenants, durable, trace, &id)
            .unwrap_or_else(|e| panic!("rehydrating tenant {id:?}: {e}"));
    }
}

/// Re-forms the disk tier: while the resident set exceeds the cap, the
/// least-recently-used tenant is captured to its evict file and dropped from
/// RAM. Capture never flushes, so a capped engine's tenants stay bit-exact
/// with an uncapped one's.
fn enforce_cap(
    tenants: &mut HashMap<TenantId, Tenant>,
    durable: &mut Option<ShardDurability>,
    trace: &mut TraceRing,
) {
    let Some(dur) = durable else {
        return;
    };
    while dur.over_cap(tenants.len()) {
        let Some(victim) = dur.lru_victim() else {
            break;
        };
        let tenant = tenants.get(&victim).expect("LRU victim is resident");
        let stored = durable::capture_tenant(tenant)
            .unwrap_or_else(|e| panic!("evicting tenant {victim:?}: {e}"));
        dur.store
            .write_evicted(&stored)
            .unwrap_or_else(|e| panic!("evicting tenant {victim:?}: {e}"));
        tenants.remove(&victim);
        dur.note_evicted(&victim);
        trace.record(TraceKind::TenantEvicted, &victim);
    }
}

/// Appends one record to the shard's WAL (tracing it) and compacts when the
/// schedule says so. See the module docs for why store failures panic here.
fn log_record(
    tenants: &HashMap<TenantId, Tenant>,
    dur: &mut ShardDurability,
    trace: &mut TraceRing,
    record: &WalRecord,
) {
    dur.store
        .append(record)
        .unwrap_or_else(|e| panic!("wal append failed: {e}"));
    trace.record(
        TraceKind::WalAppended {
            bytes: dur.store.wal_bytes(),
        },
        durable::record_tenant(record),
    );
    if dur.store.compaction_due() {
        let mut ids: Vec<&TenantId> = tenants.keys().collect();
        ids.sort();
        let resident: Vec<_> = ids
            .into_iter()
            .map(|id| {
                durable::capture_tenant(&tenants[id])
                    .unwrap_or_else(|e| panic!("capturing tenant {id:?} for compaction: {e}"))
            })
            .collect();
        let captured = (tenants.len() + dur.evicted.len()) as u32;
        dur.store
            .compact(resident)
            .unwrap_or_else(|e| panic!("wal compaction failed: {e}"));
        trace.record(TraceKind::SnapshotCompacted { tenants: captured }, "");
    }
}

/// The shard actor loop. Runs until `Shutdown` arrives or every sender is
/// dropped. `trace_capacity` sizes the shard's trace ring; `boot` carries
/// the recovered tenants and durability state (empty for in-memory shards).
pub(crate) fn shard_loop(commands: Receiver<Command>, trace_capacity: usize, boot: ShardBoot) {
    let ShardBoot {
        mut tenants,
        mut durable,
    } = boot;
    let mut metrics = ShardMetrics::default();
    let mut trace = TraceRing::new(trace_capacity);
    // Recovery brings every tenant back resident; re-form the disk tier
    // before the first command so the cap holds from the start.
    enforce_cap(&mut tenants, &mut durable, &mut trace);
    // Decides served by this shard, counted across all tenants; every
    // STAGE_SAMPLE_EVERY-th one records its stage split.
    let mut decides: u64 = 0;
    while let Ok(command) = commands.recv() {
        metrics.commands += 1;
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
                    let resident =
                        ensure_resident(&mut tenants, &mut durable, &mut trace, &request.tenant);
                    let mut served: u64 = 0;
                    let tenant = resident.and_then(|()| {
                        tenants
                            .get_mut(&request.tenant)
                            .ok_or_else(|| ServeError::UnknownTenant(request.tenant.clone()))
                    });
                    match tenant {
                        Ok(tenant) => {
                            for _ in 0..request.count {
                                let start = Instant::now();
                                decides += 1;
                                if decides % STAGE_SAMPLE_EVERY == 0 {
                                    // The tenant lookup happens once per
                                    // entry, before the clock starts, so the
                                    // Route lap is ~zero: windows amortise
                                    // routing away.
                                    let mut clock = StageClock::start();
                                    clock.lap(DecideStage::Route, &mut metrics.stages);
                                    decide_into_slot(
                                        tenant,
                                        &mut replies,
                                        slot,
                                        Some((&mut clock, &mut metrics.stages)),
                                    );
                                } else {
                                    decide_into_slot(tenant, &mut replies, slot, None);
                                }
                                if replies[slot].is_ok() {
                                    served += 1;
                                }
                                metrics.decide_latency.record(start.elapsed());
                                slot += 1;
                            }
                        }
                        Err(err) => {
                            for _ in 0..request.count {
                                let start = Instant::now();
                                if slot == replies.len() {
                                    replies.push(Err(err.clone()));
                                } else {
                                    replies[slot] = Err(err.clone());
                                }
                                metrics.decide_latency.record(start.elapsed());
                                slot += 1;
                            }
                        }
                    }
                    if served > 0 {
                        if let Some(dur) = &mut durable {
                            log_record(
                                &tenants,
                                dur,
                                &mut trace,
                                &WalRecord::Decide {
                                    tenant: request.tenant.clone(),
                                    count: served,
                                },
                            );
                        }
                    }
                }
                // A disconnected caller is not a shard failure.
                let _ = reply.send(DecideBatch { requests, replies });
            }
            Command::Feedback {
                mut events,
                recycle,
            } => {
                for request in events.iter_mut() {
                    let start = Instant::now();
                    let resident =
                        ensure_resident(&mut tenants, &mut durable, &mut trace, &request.tenant);
                    // Move the event out, leaving a (heap-free) default
                    // behind so the entry's tenant string can be recycled.
                    let event = std::mem::take(&mut request.event);
                    let logged = durable.as_ref().map(|_| durable::event_to_wire(&event));
                    let outcome = match (resident, tenants.get_mut(&request.tenant)) {
                        (Ok(()), Some(t)) => Some(t.feedback(request.round, event)),
                        _ => None,
                    };
                    match outcome {
                        Some(Ok(flushed)) => {
                            if flushed > 0 {
                                trace.record(
                                    TraceKind::FlushApplied { events: flushed },
                                    &request.tenant,
                                );
                            }
                            if let Some(dur) = &mut durable {
                                log_record(
                                    &tenants,
                                    dur,
                                    &mut trace,
                                    &WalRecord::Feedback {
                                        tenant: request.tenant.clone(),
                                        round: request.round,
                                        event: logged.expect("cloned on durable shards"),
                                    },
                                );
                            }
                        }
                        Some(Err(_)) | None => {
                            metrics.rejected += 1;
                            trace.record(TraceKind::FeedbackRejected, &request.tenant);
                        }
                    }
                    metrics.feedback_latency.record(start.elapsed());
                }
                // Hand the buffer back to the client's pool; a full or
                // disconnected pool just drops it (never block the shard).
                if let Some(recycle) = recycle {
                    let _ = recycle.try_send(events);
                }
            }
            Command::Flush { tenant } => {
                let resident = ensure_resident(&mut tenants, &mut durable, &mut trace, &tenant);
                let applied = match (resident, tenants.get_mut(&tenant)) {
                    (Ok(()), Some(t)) => Some(t.flush_pending()),
                    _ => None,
                };
                match applied {
                    Some(applied) => {
                        if applied > 0 {
                            trace.record(TraceKind::FlushApplied { events: applied }, &tenant);
                        }
                        if let Some(dur) = &mut durable {
                            log_record(
                                &tenants,
                                dur,
                                &mut trace,
                                &WalRecord::Flush {
                                    tenant: tenant.clone(),
                                },
                            );
                        }
                    }
                    None => metrics.rejected += 1,
                }
            }
            Command::Create { spec, reply } => {
                let taken = tenants.contains_key(spec.id())
                    || durable.as_ref().is_some_and(|d| d.knows(spec.id()));
                let result = if taken {
                    Err(ServeError::DuplicateTenant(spec.id().to_owned()))
                } else {
                    Tenant::new(*spec).and_then(|tenant| {
                        if let Some(dur) = &mut durable {
                            // Admission check: a durable shard only hosts
                            // tenants it can capture later (eviction and
                            // compaction must be infallible once a tenant is
                            // in). Errors as NotPersistable.
                            durable::capture_tenant(&tenant)?;
                            let record = WalRecord::Register {
                                id: tenant.id.clone(),
                                scenario: tenant.origin.clone().expect("capture checked origin"),
                                flush_max_pending: tenant.flush.max_pending as u64,
                                flush_before_decide: tenant.flush.flush_before_decide,
                                auto_feedback: tenant.auto_feedback,
                                echo_feedback: tenant.echo_feedback,
                            };
                            trace.record(TraceKind::TenantRegistered, &tenant.id);
                            dur.touch(&tenant.id);
                            tenants.insert(tenant.id.clone(), tenant);
                            log_record(&tenants, dur, &mut trace, &record);
                        } else {
                            trace.record(TraceKind::TenantRegistered, &tenant.id);
                            tenants.insert(tenant.id.clone(), tenant);
                        }
                        Ok(())
                    })
                };
                let _ = reply.send(result);
            }
            Command::Restore { snapshot, reply } => {
                let taken = tenants.contains_key(snapshot.id())
                    || durable.as_ref().is_some_and(|d| d.knows(snapshot.id()));
                let result = if taken {
                    Err(ServeError::DuplicateTenant(snapshot.id().to_owned()))
                } else {
                    Tenant::from_snapshot(*snapshot).and_then(|tenant| {
                        if let Some(dur) = &mut durable {
                            // The restored tenant's history is not reachable
                            // from this shard's log, so its complete durable
                            // state is logged (and the same admission check
                            // as Create applies).
                            let stored = durable::capture_tenant(&tenant)?;
                            trace.record(TraceKind::TenantRestored, &tenant.id);
                            dur.touch(&tenant.id);
                            tenants.insert(tenant.id.clone(), tenant);
                            log_record(
                                &tenants,
                                dur,
                                &mut trace,
                                &WalRecord::Restore {
                                    snapshot: Box::new(stored),
                                },
                            );
                        } else {
                            trace.record(TraceKind::TenantRestored, &tenant.id);
                            tenants.insert(tenant.id.clone(), tenant);
                        }
                        Ok(())
                    })
                };
                let _ = reply.send(result);
            }
            Command::Snapshot { tenant, reply } => {
                let resident = ensure_resident(&mut tenants, &mut durable, &mut trace, &tenant);
                let result = match resident {
                    Err(e) => Err(e),
                    Ok(()) => match tenants.get_mut(&tenant) {
                        Some(t) => {
                            trace.record(TraceKind::SnapshotTaken, &tenant);
                            Ok(t.snapshot())
                        }
                        None => Err(ServeError::UnknownTenant(tenant.clone())),
                    },
                };
                if result.is_ok() {
                    // `Tenant::snapshot` flushed pending feedback; mirror
                    // that mutation in the log so replay flushes too.
                    if let Some(dur) = &mut durable {
                        log_record(
                            &tenants,
                            dur,
                            &mut trace,
                            &WalRecord::Flush {
                                tenant: tenant.clone(),
                            },
                        );
                    }
                }
                let _ = reply.send(result);
            }
            Command::Evict { tenant, reply } => {
                let resident = ensure_resident(&mut tenants, &mut durable, &mut trace, &tenant);
                let result = match resident {
                    Err(e) => Err(e),
                    Ok(()) => match tenants.remove(&tenant) {
                        Some(mut t) => {
                            trace.record(TraceKind::TenantEvicted, &tenant);
                            Ok(t.snapshot())
                        }
                        None => Err(ServeError::UnknownTenant(tenant.clone())),
                    },
                };
                if result.is_ok() {
                    if let Some(dur) = &mut durable {
                        dur.forget(&tenant);
                        log_record(
                            &tenants,
                            dur,
                            &mut trace,
                            &WalRecord::Removed {
                                tenant: tenant.clone(),
                            },
                        );
                    }
                }
                let _ = reply.send(result);
            }
            Command::Metrics { reply } => {
                // Shard-wide reads cover the disk tier too: rehydrate first
                // so a capped engine reports exactly what an uncapped one
                // would (the cap is re-enforced after the command).
                rehydrate_all(&mut tenants, &mut durable, &mut trace);
                let mut list: Vec<(TenantId, TenantMetrics)> = tenants
                    .iter()
                    .map(|(id, t)| (id.clone(), t.metrics.clone()))
                    .collect();
                list.sort_by(|a, b| a.0.cmp(&b.0));
                let _ = reply.send(ShardReport {
                    metrics: metrics.clone(),
                    tenants: list,
                });
            }
            Command::Telemetry { tenant, reply } => {
                let resident = ensure_resident(&mut tenants, &mut durable, &mut trace, &tenant);
                let result = match resident {
                    Err(e) => Err(e),
                    Ok(()) => match tenants.get(&tenant) {
                        Some(t) => Ok(t.telemetry()),
                        None => Err(ServeError::UnknownTenant(tenant)),
                    },
                };
                let _ = reply.send(result);
            }
            Command::TelemetryAll { reply } => {
                rehydrate_all(&mut tenants, &mut durable, &mut trace);
                let mut list: Vec<TenantTelemetry> =
                    tenants.values().map(Tenant::telemetry).collect();
                list.sort_by(|a, b| a.id.cmp(&b.id));
                let _ = reply.send(list);
            }
            Command::Trace { reply } => {
                let mut out = Vec::new();
                trace.drain_into(&mut out);
                let _ = reply.send(out);
            }
            Command::StoreMetrics { reply } => {
                let _ = reply.send(durable.as_ref().map(|d| *d.store.metrics()));
            }
            Command::Drain { reply } => {
                // Drain flushes *every* tenant, disk tier included, so a
                // capped engine's policies end up bit-exact with an uncapped
                // one's.
                rehydrate_all(&mut tenants, &mut durable, &mut trace);
                // Flush in sorted id order so any traced flush events land in
                // a deterministic order (HashMap iteration order is not).
                let mut ids: Vec<TenantId> = tenants.keys().cloned().collect();
                ids.sort();
                for id in ids {
                    if let Some(tenant) = tenants.get_mut(&id) {
                        let applied = tenant.flush_pending();
                        if applied > 0 {
                            trace.record(TraceKind::FlushApplied { events: applied }, &id);
                        }
                    }
                }
                if let Some(dur) = &mut durable {
                    log_record(&tenants, dur, &mut trace, &WalRecord::Drain);
                    // The drain ack is a barrier; make it a durability point
                    // too, regardless of the fsync batching schedule.
                    dur.store
                        .sync()
                        .unwrap_or_else(|e| panic!("wal sync failed: {e}"));
                }
                let _ = reply.send(());
            }
            Command::Shutdown => {
                if let Some(dur) = &mut durable {
                    dur.store
                        .sync()
                        .unwrap_or_else(|e| panic!("wal sync failed: {e}"));
                }
                break;
            }
        }
        enforce_cap(&mut tenants, &mut durable, &mut trace);
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
        replies.push(Ok(DecideReply::blank()));
    }
    let entry = &mut replies[slot];
    if entry.is_err() {
        *entry = Ok(DecideReply::blank());
    }
    let Ok(reply) = entry else {
        unreachable!("slot was just reset to Ok");
    };
    if let Err(e) = tenant.decide_into(reply, stages) {
        *entry = Err(e);
    }
}
