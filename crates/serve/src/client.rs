//! The windowed client handle: amortised channel round-trips and recycled
//! request/reply buffers.
//!
//! The engine has two data-path commands per shard: a decide window and a
//! feedback window. The per-call engine API
//! ([`ServeEngine::decide`](crate::ServeEngine::decide)) sends a window of one
//! over a fresh reply channel. A [`ServeClient`] sends the same commands with
//! everything around them recycled:
//!
//! * **Per-shard reply lanes** — the client owns one long-lived reply
//!   channel *per shard*; every decide window carries a clone of its target
//!   shard's sender (an `Arc` bump, no allocation) instead of a freshly
//!   constructed `sync_channel`. Because no two shards ever share a reply
//!   channel, shards completing concurrent windows never contend on the
//!   client side, and a mixed fan-out collects each shard's window from its
//!   own lane.
//! * **Windows** — [`ServeClient::decide_many_mixed`] partitions a
//!   mixed-tenant window by shard and sends **all** per-shard commands
//!   before collecting any reply, so the shards serve their partitions
//!   concurrently; [`ServeClient::decide_many`] is the same call with a
//!   single `(tenant, n)` pair; [`ServeClient::feedback_many`] ingests a
//!   whole window of feedback with one fire-and-forget command.
//! * **Recycled buffers** — request buffers (including their tenant-id
//!   strings) circulate client → shard → client, and reply buffers are
//!   swapped with the caller's vector, so warm [`DecideReply`] slots
//!   (decision vectors, echoed feedback buffers) are refilled in place. A
//!   steady-state `decide_many` loop that reuses its `out` vector allocates
//!   nothing on either side of the channel.
//!
//! A window changes *transport*, not semantics: a `decide_many(t, n, ..)` is
//! bit-identical to `n` consecutive `decide(t)` calls, a
//! `decide_many_mixed` is bit-identical to the per-tenant `decide_many`
//! calls it replaces, and `feedback_many` applies its events through the
//! same per-event ingestion (including flush thresholds) as per-call
//! feedback. `tests/serve_equivalence.rs` pins this with a randomly-chunked
//! interleaving proptest.
//!
//! # Example
//!
//! ```
//! use netband_core::DflSso;
//! use netband_env::{ArmSet, NetworkedBandit};
//! use netband_graph::generators;
//! use netband_serve::{FlushPolicy, ServeEngine, TenantSpec};
//! use netband_sim::SingleScenario;
//!
//! let engine = ServeEngine::with_shards(1);
//! let graph = generators::path(6);
//! let bandit = NetworkedBandit::new(graph.clone(), ArmSet::linear_bernoulli(6)).unwrap();
//! let spec = TenantSpec::single("exp-0", bandit, DflSso::new(graph),
//!     SingleScenario::SideObservation, 7)
//!     .with_flush(FlushPolicy::batched(8));
//! engine.create_tenant(spec).unwrap();
//!
//! let mut client = engine.client();
//! let mut replies = Vec::new();
//! client.decide_many("exp-0", 16, &mut replies).unwrap();
//! let feedback: Vec<_> = replies
//!     .iter_mut()
//!     .map(|r| {
//!         let r = r.as_mut().unwrap();
//!         (r.round, r.feedback.take().unwrap())
//!     })
//!     .collect();
//! client.feedback_many("exp-0", feedback).unwrap();
//! engine.drain().unwrap();
//! assert_eq!(engine.metrics().unwrap().total_decides(), 16);
//! engine.shutdown();
//! ```

use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::time::Duration;

use crate::api::{check_support, DecideReply, FeedbackEvent, ServeError};
use crate::engine::ServeEngine;
use crate::shard::{Command, DecideBatch, DecideRequest, FeedbackWindow};

/// Upper bound on recycled feedback buffers parked in the client's return
/// channel; overflow buffers are dropped by the shard instead of blocking it.
const FEEDBACK_POOL_CAPACITY: usize = 8;

/// How often the reply wait wakes up to check that the target shard is still
/// alive. Windows complete in microseconds to milliseconds; the poll only
/// matters if a shard dies mid-window, so a coarse interval costs nothing.
const REPLY_POLL: Duration = Duration::from_millis(100);

/// A client handle over a [`ServeEngine`]: the windowed, buffer-recycling
/// counterpart of the engine's per-call methods. Cheap to create (one reply
/// lane per shard plus a feedback recycle channel); intended usage is one
/// client per driving thread, living for the whole session. See the
/// [module docs](self) for the full protocol.
pub struct ServeClient<'e> {
    engine: &'e ServeEngine,
    /// One long-lived reply lane **per shard**; a decide window addressed to
    /// shard `s` carries a clone of `lanes[s].0`, and its replies are
    /// collected from `lanes[s].1`. Dedicated lanes keep concurrently
    /// completing shards from contending on a shared reply channel and let a
    /// mixed fan-out collect each shard independently.
    lanes: Vec<(SyncSender<DecideBatch>, Receiver<DecideBatch>)>,
    /// Return path for drained feedback request buffers.
    recycle_tx: SyncSender<FeedbackWindow>,
    recycle_rx: Receiver<FeedbackWindow>,
    /// Recycled feedback windows reclaimed from `recycle_rx`.
    feedback_pool: Vec<FeedbackWindow>,
    /// Reply buffer backing [`ServeClient::decide`].
    single_scratch: Vec<Result<DecideReply, ServeError>>,
    /// Per-shard request assembly buffers (entry strings stay warm across
    /// calls).
    shard_requests: Vec<Vec<DecideRequest>>,
    /// Per-shard reply buffers (warm `DecideReply` slots circulate between
    /// these and the caller's `out` via swaps).
    shard_replies: Vec<Vec<Result<DecideReply, ServeError>>>,
    /// Per-shard entry/slot cursors, reused by partition and reassembly.
    shard_cursors: Vec<usize>,
    /// Shards addressed by the current window, in first-touch order.
    touched: Vec<usize>,
    /// `(shard, count)` per original `(tenant, count)` pair, for in-order
    /// reassembly.
    plan: Vec<(usize, usize)>,
}

impl<'e> ServeClient<'e> {
    pub(crate) fn new(engine: &'e ServeEngine) -> Self {
        let shards = engine.num_shards().max(1);
        // Capacity 1 per lane: a client keeps at most one window in flight
        // per shard, so the shard's reply send never blocks.
        let lanes = (0..shards).map(|_| sync_channel(1)).collect();
        let (recycle_tx, recycle_rx) = sync_channel(FEEDBACK_POOL_CAPACITY);
        ServeClient {
            engine,
            lanes,
            recycle_tx,
            recycle_rx,
            feedback_pool: Vec::new(),
            single_scratch: Vec::new(),
            shard_requests: (0..shards).map(|_| Vec::new()).collect(),
            shard_replies: (0..shards).map(|_| Vec::new()).collect(),
            shard_cursors: vec![0; shards],
            touched: Vec::new(),
            plan: Vec::new(),
        }
    }

    /// Serves `n` consecutive decisions for `tenant` over one channel
    /// round-trip, writing the results into `out` in round order.
    ///
    /// `out` is cleared of stale *meaning* but not of storage: its warm
    /// entries are swapped with the client's reply buffers and refilled in
    /// place, so a loop that keeps reusing the same vector performs no
    /// allocation once sizes have stabilised. The produced decisions, rewards,
    /// regret accounting, and tenant metrics are bit-identical to `n`
    /// consecutive [`ServeEngine::decide`] calls.
    ///
    /// # Errors
    ///
    /// [`ServeError::EngineDown`] when the engine (or the tenant's shard) has
    /// shut down; per-decision failures (e.g.
    /// [`ServeError::UnknownTenant`]) land in the corresponding `out` entry.
    pub fn decide_many(
        &mut self,
        tenant: &str,
        n: usize,
        out: &mut Vec<Result<DecideReply, ServeError>>,
    ) -> Result<(), ServeError> {
        self.decide_window([(tenant, n)], out, true)
    }

    /// Non-blocking admission variant of [`ServeClient::decide_many`]: when
    /// the tenant's shard queue is full the window is **not** enqueued and
    /// [`ServeError::Overloaded`] is returned immediately instead of blocking
    /// the caller. A single-tenant window goes to a single shard, so a
    /// bounced window is all-or-nothing. The request and reply buffers are
    /// recovered into the client, so a rejected window costs no allocation;
    /// `out`'s *contents* are unspecified after an error. This is the
    /// admission-control path of the network front end — an overloaded shard
    /// turns into an overload frame on the wire rather than an unboundedly
    /// blocked connection.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] when the shard queue is full,
    /// [`ServeError::EngineDown`] after shutdown; per-decision failures land
    /// in the corresponding `out` entry exactly like
    /// [`ServeClient::decide_many`].
    pub fn try_decide_many(
        &mut self,
        tenant: &str,
        n: usize,
        out: &mut Vec<Result<DecideReply, ServeError>>,
    ) -> Result<(), ServeError> {
        self.decide_window([(tenant, n)], out, false)
    }

    /// Serves a mixed-tenant window — `(tenant, count)` pairs in caller order —
    /// by partitioning it across the owning shards, sending **all** per-shard
    /// decide commands before collecting any reply, and reassembling the
    /// replies into `out` in the original request order. The target shards
    /// therefore serve their partitions concurrently instead of
    /// shard-at-a-time; results are bit-identical to issuing one
    /// [`ServeClient::decide_many`] per `(tenant, count)` pair in order
    /// (tenants are shard-pinned, so cross-shard completion order cannot
    /// affect any tenant's round sequence).
    ///
    /// Buffer discipline matches `decide_many`: per-shard request/reply
    /// buffers live in the client and recycle across calls, and `out`'s warm
    /// slots are swapped (not cloned) with the shard buffers, so a
    /// steady-state mixed loop allocates nothing. Zero-count pairs are
    /// skipped; an empty window clears `out`.
    ///
    /// # Errors
    ///
    /// [`ServeError::EngineDown`] when the engine or any addressed shard has
    /// shut down (outstanding replies from the other shards are still
    /// collected so the client stays usable); per-decision failures land in
    /// the corresponding `out` entry. `out`'s contents are unspecified after
    /// an error.
    pub fn decide_many_mixed<'a, I>(
        &mut self,
        requests: I,
        out: &mut Vec<Result<DecideReply, ServeError>>,
    ) -> Result<(), ServeError>
    where
        I: IntoIterator<Item = (&'a str, usize)>,
    {
        self.decide_window(requests, out, true)
    }

    /// The one decide path behind every public decide call. `block == false`
    /// bounces a full shard queue with [`ServeError::Overloaded`]; it is only
    /// offered for single-tenant windows, which address a single shard and
    /// so are enqueued whole or not at all.
    fn decide_window<'a, I>(
        &mut self,
        requests: I,
        out: &mut Vec<Result<DecideReply, ServeError>>,
        block: bool,
    ) -> Result<(), ServeError>
    where
        I: IntoIterator<Item = (&'a str, usize)>,
    {
        self.plan.clear();
        self.touched.clear();
        self.shard_cursors.fill(0);
        let mut total = 0usize;
        for (tenant, n) in requests {
            if n == 0 {
                continue;
            }
            let shard = self.engine.shard_of(tenant);
            if self.shard_cursors[shard] == 0 {
                self.touched.push(shard);
            }
            append_decide_requests(
                &mut self.shard_requests[shard],
                &mut self.shard_cursors[shard],
                tenant,
                n,
            );
            self.plan.push((shard, n));
            total += n;
        }
        if total == 0 {
            out.clear();
            return Ok(());
        }

        // Fan-out: every shard's command goes on the wire before any reply is
        // collected, so the shards work their partitions in parallel.
        let mut sent = 0usize;
        let mut failure: Option<ServeError> = None;
        for &shard in &self.touched {
            let mut requests = std::mem::take(&mut self.shard_requests[shard]);
            requests.truncate(self.shard_cursors[shard]);
            let command = Command::Decide {
                requests,
                replies: std::mem::take(&mut self.shard_replies[shard]),
                reply: self.lanes[shard].0.clone(),
            };
            if let Err((bounced, e)) = self.engine.enqueue(shard, command, block) {
                // Recover the buffers parked in the command that never left.
                if let Command::Decide {
                    requests, replies, ..
                } = bounced
                {
                    self.shard_requests[shard] = requests;
                    self.shard_replies[shard] = replies;
                }
                failure = Some(e);
                break;
            }
            sent += 1;
        }
        // Collect every in-flight window even after a failure, so the
        // per-shard reply lanes are clean for the next call.
        for idx in 0..sent {
            let shard = self.touched[idx];
            match self.wait_reply(shard) {
                Ok(batch) => {
                    self.shard_requests[shard] = batch.requests;
                    self.shard_replies[shard] = batch.replies;
                }
                Err(e) => {
                    failure.get_or_insert(e);
                }
            }
        }
        if let Some(e) = failure {
            return Err(e);
        }

        // One shard served the whole window in caller order: hand its reply
        // buffer over as is, keeping `out`'s old slots warm for the next call.
        if let [shard] = self.touched[..] {
            std::mem::swap(out, &mut self.shard_replies[shard]);
            return Ok(());
        }
        // Reassemble in original request order. Swapping (rather than moving)
        // keeps both `out`'s and the shard buffers' slots warm.
        out.resize_with(total, || Err(ServeError::EngineDown));
        self.shard_cursors.fill(0);
        let mut i = 0usize;
        for &(shard, n) in &self.plan {
            let cursor = self.shard_cursors[shard];
            for slot in 0..n {
                std::mem::swap(&mut out[i], &mut self.shard_replies[shard][cursor + slot]);
                i += 1;
            }
            self.shard_cursors[shard] = cursor + n;
        }
        Ok(())
    }

    /// Serves one decision as a window of one on a client-owned scratch
    /// buffer. Same results as [`ServeEngine::decide`], minus the per-call
    /// reply-channel construction.
    pub fn decide(&mut self, tenant: &str) -> Result<DecideReply, ServeError> {
        let mut out = std::mem::take(&mut self.single_scratch);
        let sent = self.decide_many(tenant, 1, &mut out);
        let reply = match sent {
            Ok(()) => out.pop().expect("one requested decision yields one slot"),
            Err(e) => Err(e),
        };
        self.single_scratch = out;
        reply
    }

    /// Ingests a window of feedback events for `tenant` with one
    /// fire-and-forget command, returning how many events were enqueued.
    ///
    /// Events are applied by the shard strictly in the order given, with the
    /// same per-event semantics (round validation, flush thresholds, rejected
    /// accounting) as per-call [`ServeEngine::feedback`]. The request buffer
    /// is recycled back to this client once the shard has drained it.
    ///
    /// # Errors
    ///
    /// [`ServeError::OutOfSupport`] when any observation lies outside
    /// [0, 1] (the whole window is refused, nothing is enqueued),
    /// [`ServeError::EngineDown`] after shutdown. Per-event failures
    /// (unknown tenant, kind mismatch, invalid round) are counted in
    /// [`crate::ShardMetrics::rejected`], exactly like per-call feedback.
    pub fn feedback_many(
        &mut self,
        tenant: &str,
        events: impl IntoIterator<Item = (u64, FeedbackEvent)>,
    ) -> Result<usize, ServeError> {
        self.feedback_window(tenant, events, true)
    }

    /// Non-blocking admission variant of [`ServeClient::feedback_many`]: a
    /// full shard queue returns [`ServeError::Overloaded`] immediately (the
    /// window is **not** enqueued — the events are dropped and the request
    /// buffer is recovered into the client's pool) instead of blocking.
    /// Callers that must not lose feedback should retry delivery after
    /// backoff; the network front end surfaces the rejection as an overload
    /// frame so the *remote* client owns that retry.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] when the shard queue is full, plus
    /// everything [`ServeClient::feedback_many`] can return.
    pub fn try_feedback_many(
        &mut self,
        tenant: &str,
        events: impl IntoIterator<Item = (u64, FeedbackEvent)>,
    ) -> Result<usize, ServeError> {
        self.feedback_window(tenant, events, false)
    }

    fn feedback_window(
        &mut self,
        tenant: &str,
        events: impl IntoIterator<Item = (u64, FeedbackEvent)>,
        block: bool,
    ) -> Result<usize, ServeError> {
        self.reclaim_feedback_buffers();
        let mut window = self.feedback_pool.pop().unwrap_or_default();
        let mut used = 0usize;
        for (round, event) in events {
            if let Err(e) = check_support(&event, tenant, round) {
                self.feedback_pool.push(window);
                return Err(e);
            }
            if used < window.events.len() {
                window.events[used] = (round, event);
            } else {
                window.events.push((round, event));
            }
            used += 1;
        }
        window.events.truncate(used);
        if used == 0 {
            self.feedback_pool.push(window);
            return Ok(0);
        }
        window.tenant.clear();
        window.tenant.push_str(tenant);
        let command = Command::Feedback {
            window,
            recycle: Some(self.recycle_tx.clone()),
        };
        let shard = self.engine.shard_of(tenant);
        if let Err((bounced, e)) = self.engine.enqueue(shard, command, block) {
            // Recover the window parked in the bounced command.
            if let Command::Feedback { window, .. } = bounced {
                self.feedback_pool.push(window);
            }
            return Err(e);
        }
        Ok(used)
    }

    /// Moves buffers the shards have finished with back into the local pool.
    fn reclaim_feedback_buffers(&mut self) {
        while let Ok(buffer) = self.recycle_rx.try_recv() {
            self.feedback_pool.push(buffer);
        }
    }

    /// Waits for the in-flight window on `shard`'s dedicated reply lane. The
    /// lane outlives any single command, so a shard that died *without*
    /// replying would leave a plain `recv` hanging; the wait therefore polls
    /// shard liveness at a coarse interval and converts a dead shard into
    /// [`ServeError::EngineDown`] (after draining a reply the shard may have
    /// managed to send first).
    fn wait_reply(&self, shard: usize) -> Result<DecideBatch, ServeError> {
        let rx = &self.lanes[shard].1;
        loop {
            match rx.recv_timeout(REPLY_POLL) {
                Ok(batch) => return Ok(batch),
                Err(RecvTimeoutError::Timeout) => {
                    if self.engine.shard_is_down(shard) {
                        return rx.try_recv().map_err(|_| ServeError::EngineDown);
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return Err(ServeError::EngineDown),
            }
        }
    }
}

/// Appends a `(tenant, n)` request to a recycled buffer at `*entries`,
/// reusing entry strings in place and advancing the cursor. `n` is split
/// across entries only when it exceeds the `u32` count width of a single
/// request.
fn append_decide_requests(
    requests: &mut Vec<DecideRequest>,
    entries: &mut usize,
    tenant: &str,
    mut n: usize,
) {
    while n > 0 {
        let count = u32::try_from(n).unwrap_or(u32::MAX);
        if *entries < requests.len() {
            let entry = &mut requests[*entries];
            entry.tenant.clear();
            entry.tenant.push_str(tenant);
            entry.count = count;
        } else {
            requests.push(DecideRequest {
                tenant: tenant.to_owned(),
                count,
            });
        }
        *entries += 1;
        n -= count as usize;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlushPolicy, TenantSpec};
    use netband_core::DflSso;
    use netband_env::{ArmSet, NetworkedBandit};
    use netband_graph::generators;
    use netband_sim::SingleScenario;

    fn engine_with_tenant(id: &str, batch: usize) -> ServeEngine {
        let engine = ServeEngine::with_shards(2);
        let graph = generators::path(5);
        let bandit = NetworkedBandit::new(graph.clone(), ArmSet::linear_bernoulli(5)).unwrap();
        let spec = TenantSpec::single(
            id,
            bandit,
            DflSso::new(graph),
            SingleScenario::SideObservation,
            11,
        )
        .with_flush(FlushPolicy::batched(batch));
        engine.create_tenant(spec).unwrap();
        engine
    }

    #[test]
    fn batched_decides_match_per_call_decides() {
        let a = engine_with_tenant("t", 4);
        let b = engine_with_tenant("t", 4);
        let mut client = a.client();
        let mut out = Vec::new();
        client.decide_many("t", 10, &mut out).unwrap();
        assert_eq!(out.len(), 10);
        for (i, reply) in out.iter().enumerate() {
            let expected = b.decide("t").unwrap();
            assert_eq!(reply.as_ref().unwrap(), &expected, "round {}", i + 1);
        }
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn reply_buffers_are_recycled_in_place() {
        let engine = engine_with_tenant("t", 1);
        let mut client = engine.client();
        let mut out = Vec::new();
        client.decide_many("t", 8, &mut out).unwrap();
        let first_round: Vec<u64> = out.iter().map(|r| r.as_ref().unwrap().round).collect();
        assert_eq!(first_round, (1..=8).collect::<Vec<_>>());
        // Reuse the same vector: slots are refilled, rounds advance.
        client.decide_many("t", 8, &mut out).unwrap();
        let second_round: Vec<u64> = out.iter().map(|r| r.as_ref().unwrap().round).collect();
        assert_eq!(second_round, (9..=16).collect::<Vec<_>>());
        // A shorter batch truncates the buffer.
        client.decide_many("t", 3, &mut out).unwrap();
        assert_eq!(out.len(), 3);
        engine.shutdown();
    }

    #[test]
    fn unknown_tenants_error_per_slot() {
        let engine = engine_with_tenant("t", 1);
        let mut client = engine.client();
        let mut out = Vec::new();
        client.decide_many("ghost", 3, &mut out).unwrap();
        assert_eq!(out.len(), 3);
        for slot in &out {
            assert_eq!(
                slot.as_ref().unwrap_err(),
                &ServeError::UnknownTenant("ghost".into())
            );
        }
        // Slots recover to Ok when the next batch targets a real tenant.
        client.decide_many("t", 3, &mut out).unwrap();
        assert!(out.iter().all(Result::is_ok));
        assert!(matches!(
            client.decide("ghost"),
            Err(ServeError::UnknownTenant(_))
        ));
        engine.shutdown();
    }

    #[test]
    fn feedback_many_applies_like_per_call_feedback() {
        let batched = engine_with_tenant("t", 3);
        let per_call = engine_with_tenant("t", 3);
        let mut client = batched.client();
        let mut out = Vec::new();
        client.decide_many("t", 9, &mut out).unwrap();
        let window: Vec<(u64, FeedbackEvent)> = out
            .iter_mut()
            .map(|r| {
                let r = r.as_mut().unwrap();
                (r.round, r.feedback.take().unwrap())
            })
            .collect();
        assert_eq!(client.feedback_many("t", window.clone()).unwrap(), 9);
        for _ in 0..9 {
            let reply = per_call.decide("t").unwrap();
            per_call
                .feedback("t", reply.round, reply.feedback.unwrap())
                .unwrap();
        }
        batched.drain().unwrap();
        per_call.drain().unwrap();
        let (m_batched, m_per_call) = (
            batched.metrics().unwrap().tenants,
            per_call.metrics().unwrap().tenants,
        );
        assert_eq!(m_batched, m_per_call);
        // Empty windows are a no-op.
        assert_eq!(client.feedback_many("t", Vec::new()).unwrap(), 0);
        batched.shutdown();
        per_call.shutdown();
    }

    #[test]
    fn zero_decides_is_a_no_op_that_clears_out() {
        let engine = engine_with_tenant("t", 1);
        let mut client = engine.client();
        let mut out = Vec::new();
        client.decide_many("t", 2, &mut out).unwrap();
        client.decide_many("t", 0, &mut out).unwrap();
        assert!(out.is_empty());
        engine.shutdown();
    }

    /// Deterministic overload: wedge the single shard on a rendezvous `Drain`
    /// reply, fill its capacity-1 queue, and the `try_*` paths must return
    /// [`ServeError::Overloaded`] immediately instead of blocking — with all
    /// request/reply buffers recovered, so the client works normally once the
    /// shard is released.
    #[test]
    fn try_paths_reject_with_overloaded_when_the_shard_queue_is_full() {
        let engine = ServeEngine::start(crate::EngineConfig::new(1).with_queue_capacity(1));
        let graph = generators::path(5);
        let bandit = NetworkedBandit::new(graph.clone(), ArmSet::linear_bernoulli(5)).unwrap();
        let spec = TenantSpec::single(
            "t",
            bandit,
            DflSso::new(graph),
            SingleScenario::SideObservation,
            11,
        );
        engine.create_tenant(spec).unwrap();

        // Wedge the shard and fill its capacity-1 queue behind the wedge.
        let wedge = engine.wedge_shard(0);

        let mut client = engine.client();
        let mut out = Vec::new();
        assert_eq!(
            client.try_decide_many("t", 4, &mut out),
            Err(ServeError::Overloaded)
        );
        let event = (3u64, FeedbackEvent::default());
        assert_eq!(
            client.try_feedback_many("t", [event]),
            Err(ServeError::Overloaded)
        );
        // The bounced buffers were recovered into the client, not leaked
        // into the queue: nothing reached the shard.
        assert_eq!(client.shard_requests[0].len(), 1);
        assert_eq!(client.feedback_pool.len(), 1);

        // Release the shard; the try paths now succeed and the recovered
        // buffers are reused.
        drop(wedge);
        client.try_decide_many("t", 4, &mut out).unwrap();
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(Result::is_ok));
        engine.drain().unwrap();
        let report = engine.metrics().unwrap();
        assert_eq!(report.total_decides(), 4);
        // The rejected feedback window was never enqueued.
        assert_eq!(report.shards[0].rejected, 0);
        engine.shutdown();
    }

    #[test]
    fn batch_1_fast_path_matches_per_call_decide_and_feedback() {
        // A batch of one is a window of one: same results as the per-call API.
        let fast = engine_with_tenant("t", 3);
        let per_call = engine_with_tenant("t", 3);
        let mut client = fast.client();
        let mut out = Vec::new();
        for _ in 0..9 {
            client.decide_many("t", 1, &mut out).unwrap();
            assert_eq!(out.len(), 1);
            let mine = out[0].as_mut().unwrap();
            let theirs = per_call.decide("t").unwrap();
            assert_eq!(&*mine, &theirs);
            let event = mine.feedback.take().unwrap();
            let round = mine.round;
            assert_eq!(client.feedback_many("t", [(round, event)]).unwrap(), 1);
            per_call
                .feedback("t", theirs.round, theirs.feedback.unwrap())
                .unwrap();
        }
        fast.drain().unwrap();
        per_call.drain().unwrap();
        // Same command traffic on both sides: metrics agree exactly.
        let (m_fast, m_per_call) = (fast.metrics().unwrap(), per_call.metrics().unwrap());
        assert_eq!(m_fast.tenants, m_per_call.tenants);
        assert_eq!(m_fast.total_decides(), m_per_call.total_decides());
        fast.shutdown();
        per_call.shutdown();
    }

    fn engine_with_tenants(ids: &[&str], shards: usize) -> ServeEngine {
        let engine = ServeEngine::with_shards(shards);
        for (i, id) in ids.iter().enumerate() {
            let graph = generators::path(5);
            let bandit = NetworkedBandit::new(graph.clone(), ArmSet::linear_bernoulli(5)).unwrap();
            let spec = TenantSpec::single(
                *id,
                bandit,
                DflSso::new(graph),
                SingleScenario::SideObservation,
                11 + i as u64,
            )
            .with_flush(FlushPolicy::batched(4));
            engine.create_tenant(spec).unwrap();
        }
        engine
    }

    #[test]
    fn mixed_batches_match_sequential_per_tenant_batches() {
        let ids = ["t0", "t1", "t2", "t3"];
        let mixed = engine_with_tenants(&ids, 3);
        let sequential = engine_with_tenants(&ids, 3);
        // Repeated tenants, a zero-count entry, an unknown tenant, and an
        // order that interleaves shards.
        let requests: &[(&str, usize)] = &[
            ("t2", 3),
            ("t0", 2),
            ("t2", 1),
            ("t1", 0),
            ("ghost", 2),
            ("t3", 4),
            ("t0", 1),
        ];
        let mut client = mixed.client();
        let mut out = Vec::new();
        client
            .decide_many_mixed(requests.iter().copied(), &mut out)
            .unwrap();

        let mut expected = Vec::new();
        let mut seq_client = sequential.client();
        let mut scratch = Vec::new();
        for &(tenant, n) in requests {
            seq_client.decide_many(tenant, n, &mut scratch).unwrap();
            expected.append(&mut scratch);
        }
        assert_eq!(out.len(), expected.len());
        for (i, (got, want)) in out.iter().zip(&expected).enumerate() {
            assert_eq!(got, want, "slot {i}");
        }
        // Steady state: a second mixed batch reuses the per-shard buffers and
        // still reassembles in caller order.
        client
            .decide_many_mixed(requests.iter().copied(), &mut out)
            .unwrap();
        for &(tenant, n) in requests {
            seq_client.decide_many(tenant, n, &mut scratch).unwrap();
            expected.append(&mut scratch);
        }
        for (i, (got, want)) in out.iter().zip(&expected[13..]).enumerate() {
            assert_eq!(got, want, "second batch slot {i}");
        }
        mixed.drain().unwrap();
        sequential.drain().unwrap();
        assert_eq!(
            mixed.metrics().unwrap().tenants,
            sequential.metrics().unwrap().tenants
        );
        mixed.shutdown();
        sequential.shutdown();
    }

    #[test]
    fn empty_mixed_batch_clears_out_and_is_a_no_op() {
        let engine = engine_with_tenant("t", 1);
        let mut client = engine.client();
        let mut out = Vec::new();
        client.decide_many("t", 2, &mut out).unwrap();
        client.decide_many_mixed([("t", 0usize)], &mut out).unwrap();
        assert!(out.is_empty());
        client
            .decide_many_mixed(std::iter::empty::<(&str, usize)>(), &mut out)
            .unwrap();
        assert!(out.is_empty());
        engine.shutdown();
    }

    #[test]
    fn request_writer_reuses_and_truncates_entries() {
        let mut requests = Vec::new();
        let mut entries = 0;
        append_decide_requests(&mut requests, &mut entries, "alpha", 5);
        append_decide_requests(&mut requests, &mut entries, "be", 2);
        assert_eq!((entries, requests.len()), (2, 2));
        // The next window overwrites the warm entries from the front.
        let mut entries = 0;
        append_decide_requests(&mut requests, &mut entries, "c", 3);
        assert_eq!((entries, requests.len()), (1, 2));
        assert_eq!(requests[0].tenant, "c");
        assert_eq!(requests[0].count, 3);
        // The fan-out truncates the stale tail before sending, as here.
        requests.truncate(entries);
        assert_eq!(requests.len(), 1);
        assert_eq!(requests[0].tenant, "c");
    }
}
