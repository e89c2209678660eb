//! # netband-serve — sharded multi-tenant serving for networked bandits
//!
//! The simulation crates answer "how does a policy behave over a full
//! horizon?"; this crate answers "how do we *serve* those policies to live
//! traffic?". A [`ServeEngine`] hosts many independent bandit **tenants**
//! (experiment id → any policy from `netband-core`/`netband-baselines` over a
//! [`NetworkedBandit`](netband_env::NetworkedBandit) environment), sharded
//! across worker threads by [`stable_tenant_hash`] — an explicitly specified
//! FNV-1a over the tenant id, stable across toolchains and releases.
//!
//! ## Architecture
//!
//! ```text
//!  clients (any number of threads)
//!     │  decide("exp-7") / feedback("exp-7", round, event) / snapshot …
//!     ▼
//!  ServeEngine ──hash(tenant id)──► shard 0 ─┐   each shard: one std::thread
//!                                  shard 1 ─┤   draining a bounded command
//!                                  …        │   channel (backpressure), owning
//!                                  shard N ─┘   a disjoint set of tenants
//!                                      │
//!                                      ▼
//!                    Tenant { policy, environment, RNG, pending feedback,
//!                             reward totals, metrics }
//! ```
//!
//! Everything is `std`-only (no async runtime — the workspace's vendored
//! dependency set has none): a shard is one state machine driven by a plain
//! thread that applies its commands in order, so the hot path takes no locks
//! and tenant state never crosses threads. The same state machine recovers
//! a durable shard by applying its write-ahead log.
//!
//! ## Delayed, out-of-order feedback
//!
//! Real deployments (ad placement, channel access) do not learn at decide
//! time: the reward for round `t` arrives later, interleaved with other
//! rounds' feedback. A tenant therefore splits serving into
//! *decide* (select + pull, allocation-free via the flat-core scratch
//! buffers) and *feedback ingestion* (events queue in a
//! [`FeedbackBatch`](netband_env::FeedbackBatch) and are folded into the
//! estimators **in round order** at flush points — see [`FlushPolicy`]).
//! With [`FlushPolicy::immediate`] a single-shard engine reproduces the batch
//! simulation bit for bit; the golden-trace equivalence suite in
//! `tests/serve_equivalence.rs` pins exactly that.
//!
//! ## Windowed serving
//!
//! A shard has exactly two data-path commands: a decide window and a
//! feedback window. The per-call methods above send a window of one, paying
//! one reply-channel construction and two channel hops per decision. The hot
//! path for real traffic is the [`ServeClient`] handle
//! ([`ServeEngine::client`]): one long-lived reply lane per shard,
//! [`ServeClient::decide_many`] amortising a single command/reply round-trip
//! over `n` decisions, and [`ServeClient::feedback_many`] ingesting a whole
//! feedback window per command — with every request/reply buffer (tenant-id
//! strings, decision vectors, echoed feedback) recycled, so a steady-state
//! windowed decide allocates nothing on either side. Window size changes
//! transport only: the served trajectories, per-tenant metrics, and flush
//! semantics are bit-identical to the per-call sequence (pinned by
//! `tests/serve_equivalence.rs`). Shard-level command counts necessarily
//! differ — one window is one command however many decisions it carries.
//!
//! ## Example
//!
//! Host an experiment, serve decisions from the engine, deliver the feedback
//! late and in reverse order, then checkpoint the tenant:
//!
//! ```
//! use netband_core::DflSso;
//! use netband_env::{ArmSet, NetworkedBandit};
//! use netband_graph::generators;
//! use netband_serve::{FlushPolicy, ServeEngine, TenantSpec};
//! use netband_sim::SingleScenario;
//!
//! let engine = ServeEngine::with_shards(2);
//! let graph = generators::path(6);
//! let bandit = NetworkedBandit::new(graph.clone(), ArmSet::linear_bernoulli(6)).unwrap();
//! let spec = TenantSpec::single(
//!     "exp-0",
//!     bandit,
//!     DflSso::new(graph),
//!     SingleScenario::SideObservation,
//!     7,
//! )
//! .with_flush(FlushPolicy::batched(8));
//! engine.create_tenant(spec).unwrap();
//!
//! // Serve decisions now; the revealed feedback travels back whenever the
//! // client gets around to it — here: all at once, in reverse round order.
//! let mut pending = Vec::new();
//! for _ in 0..20 {
//!     let reply = engine.decide("exp-0").unwrap();
//!     pending.push((reply.round, reply.feedback.unwrap()));
//! }
//! for (round, event) in pending.into_iter().rev() {
//!     engine.feedback("exp-0", round, event).unwrap();
//! }
//! engine.drain().unwrap(); // apply everything queued (a full-engine barrier)
//!
//! let report = engine.metrics().unwrap();
//! assert_eq!(report.total_decides(), 20);
//! assert_eq!(report.total_feedback_events(), 20);
//!
//! let snapshot = engine.evict_tenant("exp-0").unwrap();
//! assert_eq!(snapshot.round(), 20);
//! engine.shutdown();
//! ```
//!
//! ## Spec-driven registration
//!
//! Tenants can also be registered from declarative `netband-spec` documents:
//! [`ServeEngine::register_tenant_spec`] hosts one
//! [`ScenarioSpec`](netband_spec::ScenarioSpec) (see [`RegisterTenantSpec`]),
//! and [`ServeEngine::register_fleet`] boots a whole multi-tenant fleet from
//! a single [`FleetSpec`](netband_spec::FleetSpec) JSON document — see
//! `examples/fleet.json` and `examples/live_service.rs`. A tenant registered
//! from a spec under [`FlushPolicy::immediate`] serves the same trajectory
//! as `netband_sim::run_spec` of the same document (pinned by
//! `tests/spec_golden.rs`).
//!
//! ## Snapshot / restore
//!
//! [`ServeEngine::snapshot_tenant`] (or [`ServeEngine::evict_tenant`])
//! captures a [`TenantSnapshot`] — the tenant's
//! [`World`](netband_sim::World) (bandit, play, drift schedule and cached
//! benchmark), policy state, RNG and reward totals.
//! [`ServeEngine::restore_tenant`] recomputes nothing, so a restored tenant
//! continues **bit-identically** on a fresh engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod client;
mod durable;
pub mod engine;
pub mod metrics;
mod shard;
#[cfg(test)]
mod sim;
pub mod snapshot;
pub mod tenant;

/// Dense arm identifier, shared with the whole workspace.
pub use netband_core::ArmId;

pub use api::{
    DecideReply, Decision, FeedbackEvent, FlushPolicy, RegisterTenantSpec, ServeError, TenantId,
};
pub use client::ServeClient;
#[doc(hidden)]
pub use engine::ShardWedge;
pub use engine::{stable_tenant_hash, EngineConfig, ServeEngine};
pub use metrics::{
    DecideStage, LatencyHistogram, MetricsReport, ShardMetrics, StageTimings, TenantMetrics,
    TenantTelemetry, TraceEvent, TraceKind, TraceReport, DECIDE_STAGES, LATENCY_BUCKETS,
    STAGE_SAMPLE_EVERY,
};
pub use snapshot::TenantSnapshot;
pub use tenant::{DynCombinatorialPolicy, DynSinglePolicy, TenantSpec};

/// Durable-store configuration and counters, re-exported from
/// `netband-store` so engine embedders need only this crate; see
/// [`EngineConfig::with_store`].
pub use netband_store::{StoreConfig, StoreMetrics};
