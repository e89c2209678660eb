//! The multi-tenant serving engine: shard spawning, routing, and the
//! synchronous client API.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SendError, SyncSender, TrySendError};
use std::sync::Mutex;
use std::thread::JoinHandle;

use netband_obs::{TraceKind, TraceRing};
use netband_spec::FleetSpec;
use netband_store::{StoreConfig, StoreMetrics};

use crate::api::{check_support, DecideReply, FeedbackEvent, RegisterTenantSpec, ServeError};
use crate::metrics::{MetricsReport, TenantTelemetry, TraceReport};
use crate::shard::{Command, DecideRequest, FeedbackWindow, Shard};
use crate::snapshot::TenantSnapshot;
use crate::tenant::TenantSpec;

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The stable tenant-routing hash: 64-bit FNV-1a over the id's UTF-8 bytes.
///
/// The algorithm is spelled out here (offset basis `0xcbf29ce484222325`,
/// prime `0x100000001b3`, xor-then-multiply per byte) precisely so the
/// tenant → shard assignment is a **documented constant of the system**, not
/// an artifact of the standard library: `std::hash::DefaultHasher` makes no
/// cross-release stability promise, and any persistence or eviction tier
/// keyed on shard assignment would silently scramble on a toolchain bump.
/// `tests/serve_engine.rs` and the unit fixture below pin known assignments.
pub fn stable_tenant_hash(id: &str) -> u64 {
    let mut hash = FNV_OFFSET;
    for &byte in id.as_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Engine sizing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Number of shard worker threads. Tenants are assigned to shards by
    /// [`stable_tenant_hash`] (an explicitly specified FNV-1a, stable across
    /// toolchains and releases), so the same id always routes to the same
    /// shard for a given shard count.
    pub shards: usize,
    /// Capacity of each shard's bounded command queue; a full queue blocks
    /// the sending client (backpressure).
    pub queue_capacity: usize,
    /// Capacity of each shard's (and the engine's) structured trace ring.
    /// When a ring is full the oldest events are overwritten; the number of
    /// overwritten events is reported by the drained ring's `dropped` count.
    pub trace_capacity: usize,
    /// Durable store configuration. `None` (the default) keeps the engine
    /// purely in-memory — no files are touched and behaviour is byte-for-byte
    /// identical to pre-store releases. `Some` gives every shard a write-ahead
    /// log plus snapshot store under `store.dir` and (optionally) a resident
    /// cap backed by the disk eviction tier; see
    /// [`ServeEngine::try_start`].
    pub store: Option<StoreConfig>,
}

impl EngineConfig {
    /// A config with `shards` workers and the default queue capacity.
    pub fn new(shards: usize) -> Self {
        EngineConfig {
            shards: shards.max(1),
            queue_capacity: 1024,
            trace_capacity: 256,
            store: None,
        }
    }

    /// Overrides the per-shard command queue capacity.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Overrides the trace-ring capacity (per shard and for the engine ring).
    pub fn with_trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity.max(1);
        self
    }

    /// Enables the durable store: per-shard write-ahead logs, compacted
    /// snapshots, and (when `store` carries a resident cap) the disk
    /// eviction tier, all under `store`'s directory. Start the engine with
    /// [`ServeEngine::try_start`] to surface recovery errors instead of
    /// panicking.
    pub fn with_store(mut self, store: StoreConfig) -> Self {
        self.store = Some(store);
        self
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::new(1)
    }
}

/// Holds a shard wedged — its worker blocked and its command queue full —
/// until dropped. Returned by [`ServeEngine::wedge_shard`] (test support).
#[doc(hidden)]
pub struct ShardWedge {
    releases: Vec<Receiver<()>>,
}

impl Drop for ShardWedge {
    fn drop(&mut self) {
        for release in &self.releases {
            // A panicked shard drops its ack sender; either way the shard is
            // no longer wedged once every receiver has been observed.
            let _ = release.recv();
        }
    }
}

/// A sharded multi-tenant serving engine.
///
/// The engine hosts independent bandit *tenants* (experiment id → policy +
/// environment), distributed across worker threads by tenant id. All methods
/// take `&self` and the engine is [`Sync`], so any number of client threads
/// can drive it concurrently (e.g. through [`std::thread::scope`]); commands
/// for the same tenant are serialised by its shard's FIFO queue.
///
/// See the [crate docs](crate) for a full walkthrough and the
/// delayed-feedback semantics.
pub struct ServeEngine {
    senders: Vec<SyncSender<Command>>,
    handles: Vec<JoinHandle<()>>,
    queue_capacity: usize,
    /// Overload rejections happen on the *caller* side (`try_send` found the
    /// queue full; the shard never saw the command), so the engine — not a
    /// shard — keeps the count and the trace events. Cold path only: the
    /// atomic and the mutex are touched exclusively when a command is
    /// rejected or when observability is scraped.
    overload_rejections: AtomicU64,
    trace: Mutex<TraceRing>,
}

impl ServeEngine {
    /// Starts the shard worker threads.
    ///
    /// A literal-built config with `shards == 0` is treated as 1 (the
    /// constructors already clamp; this keeps a hand-built
    /// `EngineConfig { shards: 0, .. }` from producing an engine whose
    /// routing divides by zero).
    ///
    /// # Panics
    ///
    /// When the config carries a store and opening or recovering it fails
    /// (unreadable directory, corrupt snapshot/WAL, a log written by a
    /// different shard count). Use [`ServeEngine::try_start`] to handle
    /// those as errors.
    pub fn start(config: EngineConfig) -> Self {
        ServeEngine::try_start(config).expect("open and recover the engine's durable store")
    }

    /// Starts the shard worker threads, recovering each shard's durable
    /// state first when the config carries a store.
    ///
    /// Recovery runs serially on the calling thread *before* any worker is
    /// spawned: each shard's latest valid snapshot set is loaded and its WAL
    /// tail applied through the shard's own mutation methods — the ones that
    /// served the logged commands — so a `kill -9` at any round resumes
    /// bit-exactly. Store-less configs never fail.
    ///
    /// # Errors
    ///
    /// [`ServeError::Store`] when the store cannot be opened, a complete WAL
    /// record fails its CRC or decode (torn *tails* are truncated silently —
    /// that is the crash contract — but corruption mid-log is loud), or
    /// replay references state the log cannot reproduce.
    pub fn try_start(config: EngineConfig) -> Result<Self, ServeError> {
        let shards = config.shards.max(1);
        let trace_capacity = config.trace_capacity.max(1);
        let mut states = Vec::with_capacity(shards);
        for shard in 0..shards {
            states.push(match &config.store {
                Some(store) => Shard::recover(store, shard, trace_capacity)?,
                None => Shard::new(trace_capacity),
            });
        }
        let mut senders = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        for (shard, state) in states.into_iter().enumerate() {
            let (sender, receiver) = sync_channel(config.queue_capacity);
            let handle = std::thread::Builder::new()
                .name(format!("netband-shard-{shard}"))
                .spawn(move || state.run(receiver))
                .expect("spawn shard worker thread");
            senders.push(sender);
            handles.push(handle);
        }
        Ok(ServeEngine {
            senders,
            handles,
            queue_capacity: config.queue_capacity.max(1),
            overload_rejections: AtomicU64::new(0),
            trace: Mutex::new(TraceRing::new(trace_capacity)),
        })
    }

    /// Starts an engine with `shards` workers and default queue sizing.
    pub fn with_shards(shards: usize) -> Self {
        ServeEngine::start(EngineConfig::new(shards))
    }

    /// Number of shard worker threads.
    pub fn num_shards(&self) -> usize {
        self.senders.len()
    }

    /// Capacity of each shard's bounded command queue.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Test support: wedges `shard` so its command queue is observably full,
    /// returning a guard that releases the shard when dropped. While wedged,
    /// the `try_*` admission paths return
    /// [`ServeError::Overloaded`] deterministically — the wire-protocol suite
    /// uses this to exercise the overload error frame end to end without
    /// racing the shard's drain speed.
    #[doc(hidden)]
    pub fn wedge_shard(&self, shard: usize) -> ShardWedge {
        // The shard dequeues this drain and blocks sending the ack into a
        // rendezvous channel the guard has not read yet.
        let (ack, release) = sync_channel(0);
        assert!(
            self.enqueue(shard, Command::Drain { reply: ack }, true)
                .is_ok(),
            "wedge a live shard"
        );
        let mut releases = vec![release];
        // Fill every queue slot behind the wedged command. The sends block
        // until the wedge drain has been dequeued, so when the last one
        // returns the queue is exactly full.
        for _ in 0..self.queue_capacity {
            let (ack, release) = sync_channel(1);
            assert!(
                self.enqueue(shard, Command::Drain { reply: ack }, true)
                    .is_ok(),
                "fill a live shard queue"
            );
            releases.push(release);
        }
        ShardWedge { releases }
    }

    /// The shard a tenant id routes to: [`stable_tenant_hash`] reduced modulo
    /// the shard count. Stable across processes, toolchains, and releases.
    pub fn shard_of(&self, tenant: &str) -> usize {
        (stable_tenant_hash(tenant) % self.senders.len() as u64) as usize
    }

    /// Creates a batched client handle over this engine; see
    /// [`ServeClient`](crate::ServeClient). Cheap — intended usage is one
    /// client per driving thread.
    pub fn client(&self) -> crate::ServeClient<'_> {
        crate::ServeClient::new(self)
    }

    /// Enqueues a command on `shard`. With `block` a full queue parks the
    /// caller (backpressure); without it the command bounces back with
    /// [`ServeError::Overloaded`] instead (the admission-control path of the
    /// network front end). A command that was not enqueued is returned with
    /// its error, so the caller can recover the buffers it carries.
    // The Err variant deliberately carries the whole rejected command so the
    // caller can take its pooled buffers back — boxing it would trade one
    // cold-path copy for a hot-path allocation.
    #[allow(clippy::result_large_err)]
    pub(crate) fn enqueue(
        &self,
        shard: usize,
        command: Command,
        block: bool,
    ) -> Result<(), (Command, ServeError)> {
        let sender = &self.senders[shard];
        if block {
            return sender
                .send(command)
                .map_err(|SendError(c)| (c, ServeError::EngineDown));
        }
        match sender.try_send(command) {
            Ok(()) => Ok(()),
            Err(TrySendError::Disconnected(c)) => Err((c, ServeError::EngineDown)),
            Err(TrySendError::Full(c)) => {
                // Queue-full rejections never reach the shard, so they are
                // accounted here at the engine level.
                self.overload_rejections.fetch_add(1, Ordering::Relaxed);
                if let Ok(mut ring) = self.trace.lock() {
                    ring.record(
                        TraceKind::ShardOverloaded {
                            shard: shard as u32,
                        },
                        "",
                    );
                }
                Err((c, ServeError::Overloaded))
            }
        }
    }

    /// Whether `shard`'s worker thread has exited (shutdown or panic). Used
    /// by the batched client to avoid waiting forever on a reply that can no
    /// longer arrive.
    pub(crate) fn shard_is_down(&self, shard: usize) -> bool {
        self.handles
            .get(shard)
            .map(std::thread::JoinHandle::is_finished)
            .unwrap_or(true)
    }

    /// Sends `shard` a command built around a fresh reply channel, blocking
    /// while its queue is full, and waits for the answer.
    fn request<T>(
        &self,
        shard: usize,
        build: impl FnOnce(SyncSender<T>) -> Command,
    ) -> Result<T, ServeError> {
        let (reply, response) = sync_channel(1);
        self.enqueue(shard, build(reply), true)
            .map_err(|(_, e)| e)?;
        response.recv().map_err(|_| ServeError::EngineDown)
    }

    /// Sends every shard the command `build` makes around a fresh reply
    /// channel, then collects the answers in shard order. Each answer is a
    /// queue barrier: everything enqueued on that shard before the call has
    /// been processed.
    fn broadcast<T>(&self, build: impl Fn(SyncSender<T>) -> Command) -> Result<Vec<T>, ServeError> {
        let mut responses = Vec::with_capacity(self.senders.len());
        for shard in 0..self.senders.len() {
            let (reply, response) = sync_channel(1);
            self.enqueue(shard, build(reply), true)
                .map_err(|(_, e)| e)?;
            responses.push(response);
        }
        responses
            .into_iter()
            .map(|response| response.recv().map_err(|_| ServeError::EngineDown))
            .collect()
    }

    /// Registers a new tenant on the shard its id routes to.
    ///
    /// # Errors
    ///
    /// [`ServeError::DuplicateTenant`] if the id is taken,
    /// [`ServeError::EngineDown`] after shutdown.
    pub fn create_tenant(&self, spec: TenantSpec) -> Result<(), ServeError> {
        self.request(self.shard_of(spec.id()), |reply| Command::Create {
            spec: Box::new(spec),
            reply,
        })?
    }

    /// Registers a tenant from a declarative scenario document (the
    /// [`RegisterTenantSpec`] command): the scenario is validated and built
    /// via `netband-spec`, then registered like any hand-constructed tenant.
    ///
    /// # Errors
    ///
    /// [`ServeError::Spec`] when the scenario fails to validate or build,
    /// plus everything [`ServeEngine::create_tenant`] can return.
    pub fn register_tenant_spec(&self, request: &RegisterTenantSpec) -> Result<(), ServeError> {
        let spec = TenantSpec::from_scenario(request.id.clone(), &request.scenario)?;
        self.create_tenant(spec)
    }

    /// Boots a whole multi-tenant fleet from one declarative document:
    /// validates the fleet first (version, per-scenario validity, unique
    /// ids), then registers every tenant. Fails fast on the first
    /// registration error; previously registered tenants of the same call
    /// stay registered.
    ///
    /// # Errors
    ///
    /// [`ServeError::Spec`] for an invalid fleet document, plus everything
    /// [`ServeEngine::register_tenant_spec`] can return.
    pub fn register_fleet(&self, fleet: &FleetSpec) -> Result<(), ServeError> {
        fleet.validate()?;
        for tenant in &fleet.tenants {
            let spec = TenantSpec::from_scenario(tenant.id.clone(), &tenant.scenario)?;
            self.create_tenant(spec)?;
        }
        Ok(())
    }

    /// Recreates a tenant from a checkpoint (same routing as
    /// [`ServeEngine::create_tenant`]). The environment's derived CSR state
    /// is rebuilt on restore, so snapshots taken before a shutdown resume
    /// bit-identically on a fresh engine.
    pub fn restore_tenant(&self, snapshot: TenantSnapshot) -> Result<(), ServeError> {
        self.request(self.shard_of(snapshot.id()), |reply| Command::Restore {
            snapshot: Box::new(snapshot),
            reply,
        })?
    }

    /// Serves one decision for `tenant`, blocking until its shard answers —
    /// a decide window of one over a fresh reply channel.
    pub fn decide(&self, tenant: &str) -> Result<DecideReply, ServeError> {
        self.request(self.shard_of(tenant), |reply| Command::Decide {
            requests: vec![DecideRequest {
                tenant: tenant.to_owned(),
                count: 1,
            }],
            replies: Vec::new(),
            reply,
        })?
        .replies
        .pop()
        .expect("a window of one yields one reply")
    }

    /// Ingests one feedback event for `tenant`'s round `round`,
    /// fire-and-forget, as a feedback window of one. Events may arrive
    /// delayed, in batches, and out of round order; each tenant applies its
    /// queue in round order at flush points (see [`crate::FlushPolicy`]).
    ///
    /// A full shard queue blocks the caller (backpressure). Feedback for an
    /// unknown tenant, of the wrong kind, or quoting a round the tenant never
    /// served is dropped and counted in [`crate::ShardMetrics::rejected`].
    /// Duplicate delivery of a served round is *not* detected — at-most-once
    /// delivery is the caller's responsibility.
    ///
    /// # Errors
    ///
    /// [`ServeError::OutOfSupport`] for an observation outside [0, 1]
    /// (nothing is enqueued), [`ServeError::EngineDown`] after shutdown.
    pub fn feedback(
        &self,
        tenant: &str,
        round: u64,
        event: FeedbackEvent,
    ) -> Result<(), ServeError> {
        check_support(&event, tenant, round)?;
        let window = Command::Feedback {
            window: FeedbackWindow {
                tenant: tenant.to_owned(),
                events: vec![(round, event)],
            },
            recycle: None,
        };
        self.enqueue(self.shard_of(tenant), window, true)
            .map_err(|(_, e)| e)
    }

    /// Asks `tenant` to apply its pending feedback now (fire-and-forget).
    ///
    /// # Errors
    ///
    /// [`ServeError::EngineDown`] after shutdown.
    pub fn flush(&self, tenant: &str) -> Result<(), ServeError> {
        let flush = Command::Flush {
            tenant: tenant.to_owned(),
        };
        self.enqueue(self.shard_of(tenant), flush, true)
            .map_err(|(_, e)| e)
    }

    /// Checkpoints `tenant` (flushing its pending feedback first) without
    /// removing it.
    pub fn snapshot_tenant(&self, tenant: &str) -> Result<TenantSnapshot, ServeError> {
        self.request(self.shard_of(tenant), |reply| Command::Snapshot {
            tenant: tenant.to_owned(),
            reply,
        })?
    }

    /// Removes `tenant` from the engine, returning its final checkpoint.
    pub fn evict_tenant(&self, tenant: &str) -> Result<TenantSnapshot, ServeError> {
        self.request(self.shard_of(tenant), |reply| Command::Evict {
            tenant: tenant.to_owned(),
            reply,
        })?
    }

    /// Flushes every tenant's pending feedback on every shard and waits until
    /// all previously enqueued commands have been processed (a full-engine
    /// barrier).
    pub fn drain(&self) -> Result<(), ServeError> {
        self.broadcast(|reply| Command::Drain { reply })?;
        Ok(())
    }

    /// Gathers a point-in-time metrics report from every shard. Like
    /// [`ServeEngine::drain`], acts as a queue barrier, so the report covers
    /// everything enqueued before the call.
    pub fn metrics(&self) -> Result<MetricsReport, ServeError> {
        let mut report = MetricsReport::default();
        for shard in self.broadcast(|reply| Command::Metrics { reply })? {
            report.shards.push(shard.metrics);
            report.tenants.extend(shard.tenants);
        }
        report.tenants.sort_by(|a, b| a.0.cmp(&b.0));
        report.overload_rejections = self.overload_rejections.load(Ordering::Relaxed);
        Ok(report)
    }

    /// A point-in-time learning-telemetry snapshot of one tenant: per-arm
    /// pull counts and empirical means, cumulative realised and oracle
    /// reward, and serving counters. Read-only — no flush is triggered, so
    /// the estimators reflect only feedback already applied at flush points
    /// (events still queued are counted in
    /// [`TenantTelemetry::pending_feedback`]).
    pub fn telemetry(&self, tenant: &str) -> Result<TenantTelemetry, ServeError> {
        self.request(self.shard_of(tenant), |reply| Command::Telemetry {
            tenant: tenant.to_owned(),
            reply,
        })?
    }

    /// Telemetry snapshots for every tenant on every shard, sorted by tenant
    /// id. Acts as a queue barrier per shard, like [`ServeEngine::metrics`].
    pub fn telemetry_all(&self) -> Result<Vec<TenantTelemetry>, ServeError> {
        let mut all: Vec<TenantTelemetry> = self
            .broadcast(|reply| Command::TelemetryAll { reply })?
            .into_iter()
            .flatten()
            .collect();
        all.sort_by(|a, b| a.id.cmp(&b.id));
        Ok(all)
    }

    /// The durable store's counters summed across every shard — WAL appends
    /// and fsyncs, the live WAL-size gauge, compactions, evictions and
    /// rehydrations, and what recovery replayed at boot. `Ok(None)` when the
    /// engine runs without a store. Acts as a queue barrier per shard, like
    /// [`ServeEngine::metrics`].
    pub fn store_metrics(&self) -> Result<Option<StoreMetrics>, ServeError> {
        let mut total: Option<StoreMetrics> = None;
        let shards = self.broadcast(|reply| Command::StoreMetrics { reply })?;
        for shard in shards.into_iter().flatten() {
            total
                .get_or_insert_with(StoreMetrics::default)
                .absorb(&shard);
        }
        Ok(total)
    }

    /// Drains every trace ring — one per shard plus the engine-level ring
    /// that records caller-side overload rejections — into a
    /// [`TraceReport`]. Draining resets the rings (events are returned once);
    /// sequence numbers keep counting across drains.
    pub fn trace(&self) -> Result<TraceReport, ServeError> {
        let mut report = TraceReport {
            shards: self.broadcast(|reply| Command::Trace { reply })?,
            ..TraceReport::default()
        };
        if let Ok(mut ring) = self.trace.lock() {
            ring.drain_into(&mut report.engine);
        }
        Ok(report)
    }

    /// Stops every shard after it finishes its queued work, and joins the
    /// worker threads. Dropping the engine does the same implicitly.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        for sender in &self.senders {
            // A shard that already exited has dropped its receiver; fine.
            let _ = sender.send(Command::Shutdown);
        }
        // Senders are kept so later requests fail with `EngineDown` instead
        // of panicking on routing.
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_zero_shard_configs_still_route() {
        // Bypassing the constructors must not produce a divide-by-zero router.
        let engine = ServeEngine::start(EngineConfig {
            shards: 0,
            queue_capacity: 4,
            trace_capacity: 0,
            store: None,
        });
        assert_eq!(engine.num_shards(), 1);
        assert_eq!(engine.shard_of("any"), 0);
        engine.shutdown();
    }

    #[test]
    fn config_clamps_degenerate_sizes() {
        assert_eq!(EngineConfig::new(0).shards, 1);
        assert_eq!(EngineConfig::new(4).shards, 4);
        assert_eq!(
            EngineConfig::new(1).with_queue_capacity(0).queue_capacity,
            1
        );
        assert_eq!(
            EngineConfig::new(1).with_trace_capacity(0).trace_capacity,
            1
        );
        assert_eq!(EngineConfig::default(), EngineConfig::new(1));
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        let engine = ServeEngine::with_shards(4);
        assert_eq!(engine.num_shards(), 4);
        for id in ["a", "b", "exp-42", ""] {
            let shard = engine.shard_of(id);
            assert!(shard < 4);
            assert_eq!(shard, engine.shard_of(id), "routing must be stable");
        }
        engine.shutdown();
    }

    /// The routing hash is a documented constant of the system: these are the
    /// standard FNV-1a 64-bit test vectors plus this workspace's own ids. If
    /// this test ever fails, shard routing changed — which silently scrambles
    /// any persistence or eviction tier keyed on shard assignment. Do not
    /// update the constants; fix the hash.
    #[test]
    fn tenant_hash_matches_the_pinned_fnv1a_vectors() {
        assert_eq!(stable_tenant_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(stable_tenant_hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(stable_tenant_hash("foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(stable_tenant_hash("exp-0"), 0xdb82_9312_96b1_d41d);
        assert_eq!(stable_tenant_hash("tenant-0"), 0xc2ef_b028_e3eb_eed8);
    }

    /// Known tenant → shard assignments on a 4-shard engine. Pinned so a
    /// refactor (or a toolchain bump) can never silently re-route tenants.
    #[test]
    fn tenant_to_shard_assignments_are_pinned() {
        let engine = ServeEngine::with_shards(4);
        let expected: &[(&str, usize)] = &[
            ("", 1),
            ("a", 0),
            ("exp-0", 1),
            ("tenant-0", 0),
            ("tenant-1", 3),
            ("tenant-2", 2),
            ("tenant-3", 1),
            ("tenant-4", 0),
            ("tenant-5", 3),
            ("tenant-6", 2),
            ("tenant-7", 1),
        ];
        for &(id, shard) in expected {
            assert_eq!(engine.shard_of(id), shard, "tenant {id:?} re-routed");
        }
        engine.shutdown();
    }

    #[test]
    fn tenants_register_from_scenario_specs() {
        use netband_spec::{presets, FleetSpec, FleetTenant, SPEC_VERSION};

        let engine = ServeEngine::with_shards(2);
        let mut scenario = presets::paper_simulation(10, 0.4, 11);
        scenario.horizon = 50;
        engine
            .register_tenant_spec(&RegisterTenantSpec::new("spec-0", scenario.clone()))
            .unwrap();
        // Same id twice: the duplicate is rejected by the shard, not the spec.
        assert_eq!(
            engine.register_tenant_spec(&RegisterTenantSpec::new("spec-0", scenario.clone())),
            Err(ServeError::DuplicateTenant("spec-0".into()))
        );
        let reply = engine.decide("spec-0").unwrap();
        assert_eq!(reply.round, 1);

        // A whole fleet from one document, including a combinatorial tenant.
        let mut comb = presets::channel_access(10, 2, 0.35, 4);
        comb.horizon = 50;
        let fleet = FleetSpec {
            version: SPEC_VERSION,
            name: "test-fleet".into(),
            tenants: vec![
                FleetTenant {
                    id: "fleet-a".into(),
                    scenario,
                },
                FleetTenant {
                    id: "fleet-b".into(),
                    scenario: comb,
                },
            ],
        };
        engine.register_fleet(&fleet).unwrap();
        for id in ["fleet-a", "fleet-b"] {
            assert_eq!(engine.decide(id).unwrap().round, 1, "{id}");
        }
        // An invalid fleet (duplicate ids) is rejected before registration.
        let mut bad = fleet.clone();
        bad.tenants[1].id = "fleet-a".into();
        assert!(matches!(
            engine.register_fleet(&bad),
            Err(ServeError::Spec(_))
        ));
        engine.shutdown();
    }

    #[test]
    fn zero_flush_policies_are_rejected_at_registration() {
        use netband_core::DflSso;
        use netband_env::{ArmSet, NetworkedBandit};
        use netband_sim::SingleScenario;

        let engine = ServeEngine::with_shards(1);
        let graph = netband_graph::generators::path(4);
        let bandit = NetworkedBandit::new(graph.clone(), ArmSet::linear_bernoulli(4)).unwrap();
        let spec = crate::TenantSpec::single(
            "zero",
            bandit,
            DflSso::new(graph),
            SingleScenario::SideObservation,
            1,
        )
        .with_flush(crate::FlushPolicy {
            max_pending: 0,
            flush_before_decide: false,
        });
        assert_eq!(
            engine.create_tenant(spec),
            Err(ServeError::InvalidFlushPolicy { max_pending: 0 })
        );
        // The rejected tenant never registered.
        assert!(matches!(
            engine.decide("zero"),
            Err(ServeError::UnknownTenant(_))
        ));
        engine.shutdown();
    }

    #[test]
    fn requests_after_shutdown_report_engine_down() {
        let engine = ServeEngine::with_shards(2);
        let mut engine = engine;
        engine.shutdown_in_place();
        assert_eq!(engine.decide("x").unwrap_err(), ServeError::EngineDown);
        assert_eq!(engine.drain().unwrap_err(), ServeError::EngineDown);
    }
}
