//! Tenants: one hosted bandit experiment each.
//!
//! A tenant couples a policy (any [`SinglePlayPolicy`] or
//! [`CombinatorialPolicy`] implementation), a [`NetworkedBandit`] environment,
//! and the serving bookkeeping: a seeded RNG, the PR-2 scratch buffers that
//! make a decide allocation-free, a pending [`FeedbackBatch`] for delayed
//! feedback, running reward and benchmark totals (the regret proxy, summed
//! in the batch simulation's order), and per-tenant metrics. Tenants are
//! plain data owned by exactly one shard thread — all concurrency lives a
//! level up, in the shard command loop.

use rand::rngs::StdRng;
use rand::SeedableRng;

use netband_core::{CombinatorialPolicy, SinglePlayPolicy};
use netband_env::feasible::FeasibleSet;
use netband_env::{DriftSchedule, FeedbackBatch, NetworkedBandit, PullBuffer, StrategyFamily};
use netband_sim::step;
use netband_sim::{CombinatorialScenario, SingleScenario};

use netband_obs::{DecideStage, StageClock, StageTimings};

use crate::api::{DecideReply, FeedbackEvent, FlushPolicy, ServeError, TenantId};
use crate::metrics::{TenantMetrics, TenantTelemetry};
use crate::snapshot::{SnapshotKind, TenantSnapshot};

// The clone-box policy traits moved to `netband_core::policy` (the spec
// crate's `AnyPolicy` needs them below the serve layer); re-exported here so
// existing `netband_serve::tenant::Dyn*Policy` imports keep working.
pub use netband_core::policy::{DynCombinatorialPolicy, DynSinglePolicy};

/// Everything needed to create a tenant on the engine.
///
/// Build with [`TenantSpec::single`] or [`TenantSpec::combinatorial`], then
/// customise with the `with_*` methods.
///
/// # Example
///
/// ```
/// use netband_core::DflSso;
/// use netband_env::{ArmSet, NetworkedBandit};
/// use netband_graph::generators;
/// use netband_serve::{FlushPolicy, TenantSpec};
/// use netband_sim::SingleScenario;
///
/// let graph = generators::path(4);
/// let bandit = NetworkedBandit::new(graph.clone(), ArmSet::linear_bernoulli(4)).unwrap();
/// let spec = TenantSpec::single(
///     "exp-1",
///     bandit,
///     DflSso::new(graph),
///     SingleScenario::SideObservation,
///     42,
/// )
/// .with_flush(FlushPolicy::batched(32));
/// assert_eq!(spec.id(), "exp-1");
/// ```
pub struct TenantSpec {
    id: TenantId,
    bandit: NetworkedBandit,
    seed: u64,
    flush: FlushPolicy,
    auto_feedback: bool,
    echo_feedback: bool,
    drift: Option<DriftSchedule>,
    /// The scenario document the spec was built from, when it came through
    /// [`TenantSpec::from_scenario`]. Durable engines require it: recovery
    /// rebuilds policy structure from the document and restores only learned
    /// state on top. Hand-constructed specs have no document and therefore
    /// cannot be hosted by a store-enabled engine.
    origin: Option<Box<netband_spec::ScenarioSpec>>,
    kind: SpecKind,
}

enum SpecKind {
    Single {
        policy: Box<dyn DynSinglePolicy>,
        scenario: SingleScenario,
    },
    Combinatorial {
        policy: Box<dyn DynCombinatorialPolicy>,
        family: StrategyFamily,
        scenario: CombinatorialScenario,
    },
}

impl TenantSpec {
    /// A single-play tenant: one arm per decide.
    pub fn single(
        id: impl Into<TenantId>,
        bandit: NetworkedBandit,
        policy: impl SinglePlayPolicy + Clone + 'static,
        scenario: SingleScenario,
        seed: u64,
    ) -> Self {
        TenantSpec {
            id: id.into(),
            bandit,
            seed,
            flush: FlushPolicy::default(),
            auto_feedback: false,
            echo_feedback: true,
            drift: None,
            origin: None,
            kind: SpecKind::Single {
                policy: Box::new(policy),
                scenario,
            },
        }
    }

    /// A combinatorial tenant: one feasible super-arm per decide.
    pub fn combinatorial(
        id: impl Into<TenantId>,
        bandit: NetworkedBandit,
        policy: impl CombinatorialPolicy + Clone + 'static,
        family: StrategyFamily,
        scenario: CombinatorialScenario,
        seed: u64,
    ) -> Self {
        TenantSpec {
            id: id.into(),
            bandit,
            seed,
            flush: FlushPolicy::default(),
            auto_feedback: false,
            echo_feedback: true,
            drift: None,
            origin: None,
            kind: SpecKind::Combinatorial {
                policy: Box::new(policy),
                family,
                scenario,
            },
        }
    }

    /// A single-play tenant from an already-boxed policy (the spec-driven
    /// registration path, where the policy arrives as a
    /// [`netband_spec::AnyPolicy`] variant).
    pub fn single_boxed(
        id: impl Into<TenantId>,
        bandit: NetworkedBandit,
        policy: Box<dyn DynSinglePolicy>,
        scenario: SingleScenario,
        seed: u64,
    ) -> Self {
        TenantSpec {
            id: id.into(),
            bandit,
            seed,
            flush: FlushPolicy::default(),
            auto_feedback: false,
            echo_feedback: true,
            drift: None,
            origin: None,
            kind: SpecKind::Single { policy, scenario },
        }
    }

    /// A combinatorial tenant from an already-boxed policy; see
    /// [`TenantSpec::single_boxed`].
    pub fn combinatorial_boxed(
        id: impl Into<TenantId>,
        bandit: NetworkedBandit,
        policy: Box<dyn DynCombinatorialPolicy>,
        family: StrategyFamily,
        scenario: CombinatorialScenario,
        seed: u64,
    ) -> Self {
        TenantSpec {
            id: id.into(),
            bandit,
            seed,
            flush: FlushPolicy::default(),
            auto_feedback: false,
            echo_feedback: true,
            drift: None,
            origin: None,
            kind: SpecKind::Combinatorial {
                policy,
                family,
                scenario,
            },
        }
    }

    /// Builds a tenant spec from a declarative scenario document: the
    /// workload and policy are built by `netband-spec`, the scenario's side
    /// bonus selects the reward model, the run seed seeds the tenant's RNG,
    /// and the feedback schedule becomes the flush policy. Under
    /// [`FlushPolicy::immediate`] the resulting tenant serves the same
    /// trajectory as `netband_sim::run_spec` of the same document.
    ///
    /// # Errors
    ///
    /// [`ServeError::Spec`] when the scenario fails to validate or build.
    pub fn from_scenario(
        id: impl Into<TenantId>,
        scenario: &netband_spec::ScenarioSpec,
    ) -> Result<Self, ServeError> {
        let mut built = scenario.build()?;
        let flush = FlushPolicy::from(scenario.feedback);
        let drift = built.drift.take();
        let spec = match built.policy {
            netband_spec::AnyPolicy::Single(policy) => TenantSpec::single_boxed(
                id,
                built.bandit,
                policy,
                netband_sim::spec::single_scenario(built.side_bonus),
                built.seed,
            ),
            netband_spec::AnyPolicy::Combinatorial(policy) => {
                let family = built.family.ok_or(ServeError::Spec(
                    netband_spec::SpecError::MissingFamily {
                        policy: "combinatorial",
                    },
                ))?;
                TenantSpec::combinatorial_boxed(
                    id,
                    built.bandit,
                    policy,
                    family,
                    netband_sim::spec::combinatorial_scenario(built.side_bonus),
                    built.seed,
                )
            }
        };
        let mut spec = match drift {
            Some(drift) => spec.with_drift(drift),
            None => spec,
        };
        spec.origin = Some(Box::new(scenario.clone()));
        Ok(spec.with_flush(flush))
    }

    /// The tenant id the spec will be registered under.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Hosts the tenant's world under a deterministic drift schedule: each
    /// decide's arm means are `drift.means_at(base, round)` and regret is
    /// charged against the per-round dynamic optimum. A trivial schedule is
    /// dropped at build time, so the tenant stays on the stationary fast
    /// path.
    pub fn with_drift(mut self, drift: DriftSchedule) -> Self {
        self.drift = Some(drift);
        // A hand-attached schedule is not part of the scenario document the
        // spec may have been built from, so the spec can no longer be rebuilt
        // from that document — drop the origin rather than let a durable
        // recovery silently resurrect the tenant without its drift. (Drift
        // that arrives *inside* the document is attached before the origin is
        // recorded, so spec-driven drifting tenants stay persistable.)
        self.origin = None;
        self
    }

    /// Sets when queued feedback is folded into the policy.
    pub fn with_flush(mut self, flush: FlushPolicy) -> Self {
        self.flush = flush;
        self
    }

    /// When enabled, every decide applies its own feedback immediately,
    /// tenant-side — the degenerate closed-loop simulation path (no feedback
    /// ingestion needed). Defaults to off.
    pub fn with_auto_feedback(mut self, on: bool) -> Self {
        self.auto_feedback = on;
        self
    }

    /// When disabled, decide replies omit the revealed feedback event (useful
    /// with auto-feedback, where nothing needs to travel back). Defaults to
    /// on.
    pub fn with_echo_feedback(mut self, on: bool) -> Self {
        self.echo_feedback = on;
        self
    }
}

/// Internal play-mode state of a tenant.
pub(crate) enum TenantKind {
    Single {
        policy: Box<dyn DynSinglePolicy>,
        scenario: SingleScenario,
        pending: FeedbackBatch<netband_env::SinglePlayFeedback>,
    },
    Combinatorial {
        policy: Box<dyn DynCombinatorialPolicy>,
        family: StrategyFamily,
        scenario: CombinatorialScenario,
        pending: FeedbackBatch<netband_env::CombinatorialFeedback>,
        strategy_scratch: Vec<crate::ArmId>,
    },
}

/// Laps the sampled stage clock, when this decide carries one.
fn lap(stages: &mut Option<(&mut StageClock, &mut StageTimings)>, stage: DecideStage) {
    if let Some((clock, timings)) = stages {
        clock.lap(stage, timings);
    }
}

/// Writes a single-play feedback echo into a reply slot, reusing the warm
/// event (and its observation buffer) when the slot already holds one.
fn set_single_event(slot: &mut Option<FeedbackEvent>, src: &netband_env::SinglePlayFeedback) {
    match slot {
        Some(FeedbackEvent::Single(dst)) => dst.copy_from(src),
        other => *other = Some(FeedbackEvent::Single(src.clone())),
    }
}

/// Writes a combinatorial feedback echo into a reply slot; see
/// [`set_single_event`].
fn set_combinatorial_event(
    slot: &mut Option<FeedbackEvent>,
    src: &netband_env::CombinatorialFeedback,
) {
    match slot {
        Some(FeedbackEvent::Combinatorial(dst)) => dst.copy_from(src),
        other => *other = Some(FeedbackEvent::Combinatorial(src.clone())),
    }
}

/// One hosted experiment, owned by a single shard thread.
pub(crate) struct Tenant {
    pub(crate) id: TenantId,
    pub(crate) bandit: NetworkedBandit,
    pub(crate) kind: TenantKind,
    pub(crate) rng: StdRng,
    pub(crate) buf: PullBuffer,
    /// Rounds served so far; the next decide is round `round + 1` (1-based,
    /// matching the simulation runner's time slots).
    pub(crate) round: u64,
    pub(crate) optimal: f64,
    /// Running sum of per-round optima (the dynamic optima when drifting).
    pub(crate) optimal_sum: f64,
    /// Drift schedule of the hosted world, `None` for stationary tenants
    /// (trivial schedules are dropped in [`Tenant::new`]).
    pub(crate) drift: Option<DriftSchedule>,
    /// Stationary base means the drift schedule perturbs; empty when
    /// stationary (recomputed from the arm set on restore, never serialized).
    pub(crate) base_means: Vec<f64>,
    /// Per-decide scratch for the drifted mean vector.
    pub(crate) drift_means: Vec<f64>,
    pub(crate) total_reward: f64,
    pub(crate) flush: FlushPolicy,
    pub(crate) auto_feedback: bool,
    pub(crate) echo_feedback: bool,
    pub(crate) metrics: TenantMetrics,
    /// The scenario document the tenant was registered from, when it came
    /// through [`TenantSpec::from_scenario`]; required for durable capture
    /// (see `crate::durable`).
    pub(crate) origin: Option<Box<netband_spec::ScenarioSpec>>,
}

impl Tenant {
    /// Builds the tenant, validating the flush policy (a hand-built
    /// `FlushPolicy { max_pending: 0, .. }` is rejected here, before the
    /// tenant reaches a shard).
    pub(crate) fn new(spec: TenantSpec) -> Result<Tenant, ServeError> {
        spec.flush.validate()?;
        let TenantSpec {
            id,
            bandit,
            seed,
            flush,
            auto_feedback,
            echo_feedback,
            drift,
            origin,
            kind,
        } = spec;
        let drift = drift.filter(|d| !d.is_trivial());
        let base_means = if drift.is_some() {
            bandit.means().to_vec()
        } else {
            Vec::new()
        };
        let drift_means = vec![0.0; base_means.len()];
        let (kind, optimal) = match kind {
            SpecKind::Single { policy, scenario } => {
                let optimal = step::single_benchmark(&bandit, scenario);
                (
                    TenantKind::Single {
                        policy,
                        scenario,
                        pending: FeedbackBatch::new(),
                    },
                    optimal,
                )
            }
            SpecKind::Combinatorial {
                policy,
                family,
                scenario,
            } => {
                let optimal = step::combinatorial_benchmark(&bandit, &family, scenario);
                (
                    TenantKind::Combinatorial {
                        policy,
                        family,
                        scenario,
                        pending: FeedbackBatch::new(),
                        strategy_scratch: Vec::new(),
                    },
                    optimal,
                )
            }
        };
        Ok(Tenant {
            id,
            bandit,
            kind,
            rng: StdRng::seed_from_u64(seed),
            buf: PullBuffer::new(),
            round: 0,
            optimal,
            optimal_sum: 0.0,
            drift,
            base_means,
            drift_means,
            total_reward: 0.0,
            flush,
            auto_feedback,
            echo_feedback,
            metrics: TenantMetrics::default(),
            origin,
        })
    }

    /// Serves one decision into a caller-owned reply slot. The per-round
    /// arithmetic (pull, reward, running totals, optional immediate update)
    /// matches the batch runner expression for expression, which is what the
    /// golden-trace equivalence suite pins through the echoed replies.
    ///
    /// Every field of `reply` is overwritten; a warm slot (same play mode,
    /// echo setting, and similar observation sizes as the previous occupant)
    /// is filled without allocating, which is what makes a steady-state
    /// batched decide allocation-free. On error the slot's contents are
    /// unspecified.
    ///
    /// `stages` is the sampled profiling hook: `Some` on the decides the
    /// shard elected to split into per-stage timings (see
    /// [`crate::metrics::STAGE_SAMPLE_EVERY`]), `None` on the rest. Timing
    /// reads never touch the decide arithmetic or the RNG, so a profiled
    /// decide is bit-identical to an unprofiled one.
    pub(crate) fn decide_into(
        &mut self,
        reply: &mut DecideReply,
        mut stages: Option<(&mut StageClock, &mut StageTimings)>,
    ) -> Result<(), ServeError> {
        if self.flush.flush_before_decide {
            self.flush_pending();
        }
        self.round += 1;
        let t = self.round as usize;
        let echo = self.echo_feedback;
        let auto = self.auto_feedback;
        // Drift is a pure function of the (already advanced) round counter:
        // the drifted means and the per-round optimum consume no randomness,
        // which is what keeps snapshot/restore bit-exact mid-drift.
        let drifting = self.drift.is_some();
        if let Some(schedule) = &self.drift {
            schedule.means_at(&self.base_means, self.round, &mut self.drift_means);
        }
        match &mut self.kind {
            TenantKind::Single {
                policy, scenario, ..
            } => {
                let optimal = if drifting {
                    step::single_benchmark_with(&self.bandit, &self.drift_means, *scenario)
                } else {
                    self.optimal
                };
                let arm = policy.select_arm(t);
                lap(&mut stages, DecideStage::Select);
                let feedback = if drifting {
                    self.buf.pull_single_drifted(
                        &self.bandit,
                        &self.drift_means,
                        arm,
                        &mut self.rng,
                    )
                } else {
                    self.buf.pull_single(&self.bandit, arm, &mut self.rng)
                };
                lap(&mut stages, DecideStage::Pull);
                let (reward, _mean) = if drifting {
                    step::score_single_with(&self.bandit, &self.drift_means, *scenario, feedback)
                } else {
                    step::score_single(&self.bandit, *scenario, feedback)
                };
                self.total_reward += reward;
                self.optimal_sum += optimal;
                if auto {
                    policy.update(t, feedback);
                }
                lap(&mut stages, DecideStage::Score);
                reply.round = self.round;
                reply.decision.set_arm(arm);
                reply.reward = reward;
                if echo {
                    set_single_event(&mut reply.feedback, feedback);
                } else {
                    reply.feedback = None;
                }
                lap(&mut stages, DecideStage::Reply);
            }
            TenantKind::Combinatorial {
                policy,
                family,
                scenario,
                strategy_scratch,
                ..
            } => {
                let optimal = if drifting {
                    step::combinatorial_benchmark_with(
                        &self.bandit,
                        family,
                        &self.drift_means,
                        *scenario,
                    )
                } else {
                    self.optimal
                };
                policy.select_strategy_into(t, strategy_scratch);
                lap(&mut stages, DecideStage::Select);
                debug_assert!(
                    family.contains(strategy_scratch, self.bandit.graph()),
                    "tenant {} policy {} proposed an infeasible strategy {strategy_scratch:?}",
                    self.id,
                    policy.name()
                );
                let pulled = if drifting {
                    self.buf.pull_strategy_drifted(
                        &self.bandit,
                        &self.drift_means,
                        strategy_scratch,
                        &mut self.rng,
                    )
                } else {
                    self.buf
                        .pull_strategy(&self.bandit, strategy_scratch, &mut self.rng)
                };
                let feedback = match pulled {
                    Ok(fb) => fb,
                    Err(e) => {
                        // The decision never happened; un-advance the round
                        // so it is not counted as served.
                        self.round -= 1;
                        return Err(ServeError::Env(e));
                    }
                };
                lap(&mut stages, DecideStage::Pull);
                let (reward, _mean) = if drifting {
                    step::score_combinatorial_with(&self.drift_means, *scenario, feedback)
                } else {
                    step::score_combinatorial(&self.bandit, *scenario, feedback)
                };
                self.total_reward += reward;
                self.optimal_sum += optimal;
                if auto {
                    policy.update(t, feedback);
                }
                lap(&mut stages, DecideStage::Score);
                reply.round = self.round;
                reply.decision.set_strategy(&feedback.strategy);
                reply.reward = reward;
                if echo {
                    set_combinatorial_event(&mut reply.feedback, feedback);
                } else {
                    reply.feedback = None;
                }
                lap(&mut stages, DecideStage::Reply);
            }
        }
        self.metrics.decides += 1;
        Ok(())
    }

    /// Serves one decision into a freshly allocated reply — the owned-value
    /// form of [`Tenant::decide_into`] used by WAL replay.
    pub(crate) fn decide(&mut self) -> Result<DecideReply, ServeError> {
        let mut reply = DecideReply::blank();
        self.decide_into(&mut reply, None)?;
        Ok(reply)
    }

    /// Queues one feedback event (delayed and out-of-order arrival is fine;
    /// each flush applies its batch in round order) and flushes if the batch
    /// is full. Returns the number of events a triggered flush applied
    /// (0 when no flush triggered), so the shard can trace flush points.
    ///
    /// Events quoting a round the tenant never served are rejected. Duplicate
    /// delivery of a *served* round is not detectable here (tracking applied
    /// rounds would put a set lookup on the ingestion hot path); at-most-once
    /// delivery is the transport's responsibility — a retried event double
    /// counts its observations in the estimators.
    pub(crate) fn feedback(&mut self, round: u64, event: FeedbackEvent) -> Result<u64, ServeError> {
        if round == 0 || round > self.round {
            return Err(ServeError::InvalidRound {
                tenant: self.id.clone(),
                round,
                served: self.round,
            });
        }
        match (&mut self.kind, event) {
            (TenantKind::Single { pending, .. }, FeedbackEvent::Single(fb)) => {
                pending.push(round, fb);
            }
            (TenantKind::Combinatorial { pending, .. }, FeedbackEvent::Combinatorial(fb)) => {
                pending.push(round, fb);
            }
            _ => return Err(ServeError::FeedbackKindMismatch(self.id.clone())),
        }
        self.metrics.feedback_events += 1;
        if self.pending_len() >= self.flush.max_pending {
            Ok(self.flush_pending())
        } else {
            Ok(0)
        }
    }

    pub(crate) fn pending_len(&self) -> usize {
        match &self.kind {
            TenantKind::Single { pending, .. } => pending.len(),
            TenantKind::Combinatorial { pending, .. } => pending.len(),
        }
    }

    /// Applies every queued feedback event to the policy, in round order.
    /// Returns how many events were applied (0 when nothing was pending).
    pub(crate) fn flush_pending(&mut self) -> u64 {
        let applied = match &mut self.kind {
            TenantKind::Single {
                policy, pending, ..
            } => {
                let n = pending.len();
                pending.drain_in_order(|round, fb| policy.update(round as usize, fb));
                n
            }
            TenantKind::Combinatorial {
                policy, pending, ..
            } => {
                let n = pending.len();
                pending.drain_in_order(|round, fb| policy.update(round as usize, fb));
                n
            }
        };
        if applied > 0 {
            self.metrics.record_flush(applied as u64);
        }
        applied as u64
    }

    /// Captures a restartable checkpoint. Pending feedback is flushed first so
    /// the snapshot's policy state is complete.
    pub(crate) fn snapshot(&mut self) -> TenantSnapshot {
        self.flush_pending();
        let kind = match &self.kind {
            TenantKind::Single {
                policy, scenario, ..
            } => SnapshotKind::Single {
                policy: policy.clone_box(),
                scenario: *scenario,
            },
            TenantKind::Combinatorial {
                policy,
                family,
                scenario,
                ..
            } => SnapshotKind::Combinatorial {
                policy: policy.clone_box(),
                family: family.clone(),
                scenario: *scenario,
            },
        };
        TenantSnapshot {
            id: self.id.clone(),
            graph: self.bandit.graph().clone(),
            arms: self.bandit.arms().clone(),
            kind,
            rng: self.rng.clone(),
            round: self.round,
            optimal: self.optimal,
            optimal_sum: self.optimal_sum,
            drift: self.drift.clone(),
            total_reward: self.total_reward,
            flush: self.flush,
            auto_feedback: self.auto_feedback,
            echo_feedback: self.echo_feedback,
            metrics: self.metrics.clone(),
            origin: self.origin.clone(),
        }
    }

    /// Rebuilds a tenant from a checkpoint. The environment is reconstructed
    /// through [`NetworkedBandit::new`], which rebuilds the derived CSR
    /// snapshot from the relation graph.
    pub(crate) fn from_snapshot(snapshot: TenantSnapshot) -> Result<Tenant, ServeError> {
        let TenantSnapshot {
            id,
            graph,
            arms,
            kind,
            rng,
            round,
            optimal,
            optimal_sum,
            drift,
            total_reward,
            flush,
            auto_feedback,
            echo_feedback,
            metrics,
            origin,
        } = snapshot;
        let bandit = NetworkedBandit::new(graph, arms)?;
        // Base means are derived from the arm set, so they are rebuilt rather
        // than serialized; drift itself is a pure function of the restored
        // round counter, so the drifting world resumes bit-exactly.
        let base_means = if drift.is_some() {
            bandit.means().to_vec()
        } else {
            Vec::new()
        };
        let drift_means = vec![0.0; base_means.len()];
        let kind = match kind {
            SnapshotKind::Single { policy, scenario } => TenantKind::Single {
                policy,
                scenario,
                pending: FeedbackBatch::new(),
            },
            SnapshotKind::Combinatorial {
                policy,
                family,
                scenario,
            } => TenantKind::Combinatorial {
                policy,
                family,
                scenario,
                pending: FeedbackBatch::new(),
                strategy_scratch: Vec::new(),
            },
        };
        Ok(Tenant {
            id,
            bandit,
            kind,
            rng,
            buf: PullBuffer::new(),
            round,
            optimal,
            optimal_sum,
            drift,
            base_means,
            drift_means,
            total_reward,
            flush,
            auto_feedback,
            echo_feedback,
            metrics,
            origin,
        })
    }

    /// Name of the hosted policy.
    pub(crate) fn policy_name(&self) -> &'static str {
        match &self.kind {
            TenantKind::Single { policy, .. } => policy.name(),
            TenantKind::Combinatorial { policy, .. } => policy.name(),
        }
    }

    /// Builds the tenant's learning snapshot. Read-only: no flush is
    /// triggered (telemetry must not perturb the tenant's deterministic
    /// trajectory), so the estimator view covers flushed feedback only —
    /// queued events show up in `pending_feedback`, not in the arm stats.
    pub(crate) fn telemetry(&self) -> TenantTelemetry {
        let estimators = match &self.kind {
            TenantKind::Single { policy, .. } => policy.arm_estimators(),
            TenantKind::Combinatorial { policy, .. } => policy.arm_estimators(),
        };
        let (arm_pulls, arm_means) = match estimators {
            Some(est) => (est.counts().to_vec(), est.means().to_vec()),
            None => (Vec::new(), Vec::new()),
        };
        TenantTelemetry {
            id: self.id.clone(),
            policy: self.policy_name().to_string(),
            round: self.round,
            pending_feedback: self.pending_len() as u64,
            total_reward: self.total_reward,
            optimal_reward: self.optimal_sum,
            metrics: self.metrics.clone(),
            arm_pulls,
            arm_means,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Decision;
    use netband_core::{DflCsr, DflSso};
    use netband_env::ArmSet;
    use netband_graph::generators;
    use netband_sim::{run_single, RegretTrace, SingleScenario};

    fn fixture_bandit(seed: u64) -> NetworkedBandit {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = generators::erdos_renyi(8, 0.4, &mut rng);
        let arms = ArmSet::random_bernoulli(8, &mut rng);
        NetworkedBandit::new(graph, arms).unwrap()
    }

    fn single_spec(id: &str, seed: u64) -> TenantSpec {
        let bandit = fixture_bandit(3);
        let policy = DflSso::new(bandit.graph().clone());
        TenantSpec::single(id, bandit, policy, SingleScenario::SideObservation, seed)
    }

    /// Rebuilds one round's `(optimal − reward, optimal − mean)` regret of a
    /// `single_spec` tenant from its echoed reply, with the scoring calls the
    /// tenant and the batch runner share.
    fn round_regret(drift: Option<&DriftSchedule>, reply: &DecideReply) -> (f64, f64) {
        let bandit = fixture_bandit(3);
        let scenario = SingleScenario::SideObservation;
        let Some(FeedbackEvent::Single(feedback)) = &reply.feedback else {
            panic!("single-play tenants echo single-play feedback");
        };
        let (optimal, (reward, mean)) = match drift {
            Some(schedule) => {
                let mut means = vec![0.0; bandit.num_arms()];
                schedule.means_at(bandit.means(), reply.round, &mut means);
                (
                    step::single_benchmark_with(&bandit, &means, scenario),
                    step::score_single_with(&bandit, &means, scenario, feedback),
                )
            }
            None => (
                step::single_benchmark(&bandit, scenario),
                step::score_single(&bandit, scenario, feedback),
            ),
        };
        assert_eq!(reward.to_bits(), reply.reward.to_bits());
        (optimal - reward, optimal - mean)
    }

    #[test]
    fn auto_feedback_tenant_matches_run_single_exactly() {
        let bandit = fixture_bandit(3);
        let mut policy = DflSso::new(bandit.graph().clone());
        let expected = run_single(
            &bandit,
            &mut policy,
            SingleScenario::SideObservation,
            200,
            77,
        );

        let mut tenant = Tenant::new(single_spec("t", 77).with_auto_feedback(true)).unwrap();
        let mut trace = RegretTrace::default();
        for _ in 0..200 {
            let (realised, pseudo) = round_regret(None, &tenant.decide().unwrap());
            trace.record(realised, pseudo);
        }
        assert_eq!(tenant.round, 200);
        assert_eq!(
            tenant.total_reward.to_bits(),
            expected.total_reward.to_bits()
        );
        assert_eq!(trace, expected.trace);
        assert_eq!(tenant.optimal.to_bits(), expected.optimal_mean.to_bits());
    }

    #[test]
    fn echoed_feedback_round_trip_matches_auto_feedback() {
        let mut auto = Tenant::new(single_spec("a", 5).with_auto_feedback(true)).unwrap();
        let mut echo = Tenant::new(single_spec("b", 5)).unwrap();
        for _ in 0..100 {
            let reply = echo.decide().unwrap();
            assert_eq!(auto.decide().unwrap(), reply);
            echo.feedback(reply.round, reply.feedback.unwrap()).unwrap();
        }
        assert_eq!(auto.total_reward.to_bits(), echo.total_reward.to_bits());
        assert_eq!(auto.metrics.decides, echo.metrics.decides);
        assert_eq!(echo.metrics.feedback_events, 100);
        assert_eq!(echo.metrics.events_applied, 100);
    }

    #[test]
    fn delayed_out_of_order_feedback_is_applied_in_round_order() {
        // Deliver a window of feedback in reverse order; after the flush, the
        // policy state must equal the one produced by in-order application.
        let mut shuffled =
            Tenant::new(single_spec("s", 9).with_flush(FlushPolicy::batched(64))).unwrap();
        let mut ordered =
            Tenant::new(single_spec("o", 9).with_flush(FlushPolicy::batched(64))).unwrap();
        let mut window = Vec::new();
        for _ in 0..10 {
            let reply = shuffled.decide().unwrap();
            window.push((reply.round, reply.feedback.unwrap()));
            let reply = ordered.decide().unwrap();
            ordered
                .feedback(reply.round, reply.feedback.unwrap())
                .unwrap();
        }
        for (round, event) in window.into_iter().rev() {
            shuffled.feedback(round, event).unwrap();
        }
        shuffled.flush_pending();
        ordered.flush_pending();
        // Same decisions were made (same RNG + same flush timing), so the
        // flushed policy states must now agree on the next decision.
        assert_eq!(shuffled.metrics.events_applied, 10);
        assert_eq!(
            shuffled.decide().unwrap().decision,
            ordered.decide().unwrap().decision
        );
    }

    #[test]
    fn feedback_kind_mismatch_is_rejected() {
        let mut tenant = Tenant::new(single_spec("t", 1)).unwrap();
        tenant.decide().unwrap();
        let err = tenant
            .feedback(
                1,
                FeedbackEvent::Combinatorial(netband_env::CombinatorialFeedback::default()),
            )
            .unwrap_err();
        assert!(matches!(err, ServeError::FeedbackKindMismatch(_)));
    }

    #[test]
    fn feedback_for_unserved_rounds_is_rejected() {
        let mut tenant = Tenant::new(single_spec("t", 1)).unwrap();
        let reply = tenant.decide().unwrap();
        let event = reply.feedback.unwrap();
        // Round 0 and rounds beyond the last decide were never served.
        for bogus in [0, 2, 99] {
            let err = tenant.feedback(bogus, event.clone()).unwrap_err();
            assert!(
                matches!(err, ServeError::InvalidRound { round, served: 1, .. } if round == bogus),
                "round {bogus}: {err}"
            );
        }
        assert_eq!(tenant.metrics.feedback_events, 0);
        // The served round itself is accepted.
        tenant.feedback(reply.round, event).unwrap();
        assert_eq!(tenant.metrics.feedback_events, 1);
    }

    #[test]
    fn snapshot_restore_resumes_identically() {
        let mut original = Tenant::new(single_spec("t", 13).with_auto_feedback(true)).unwrap();
        for _ in 0..50 {
            original.decide().unwrap();
        }
        let snapshot = original.snapshot();
        assert_eq!(snapshot.round(), 50);
        let mut restored = Tenant::from_snapshot(snapshot).unwrap();
        // The restored tenant and the original continue bit-identically.
        for _ in 0..50 {
            let a = original.decide().unwrap();
            let b = restored.decide().unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(
            original.total_reward.to_bits(),
            restored.total_reward.to_bits()
        );
    }

    #[test]
    fn drifting_tenant_matches_the_drifted_runner_exactly() {
        use netband_env::{ChangePoint, DriftSchedule};
        let drift = DriftSchedule {
            change_points: vec![ChangePoint {
                round: 60,
                rotation: 3,
            }],
            ..DriftSchedule::default()
        };
        let bandit = fixture_bandit(3);
        let mut policy = DflSso::new(bandit.graph().clone());
        let expected = netband_sim::run_single_drifted(
            &bandit,
            &drift,
            &mut policy,
            SingleScenario::SideObservation,
            200,
            77,
        );

        let mut tenant = Tenant::new(
            single_spec("t", 77)
                .with_drift(drift.clone())
                .with_auto_feedback(true),
        )
        .unwrap();
        let mut trace = RegretTrace::default();
        for _ in 0..200 {
            let (realised, pseudo) = round_regret(Some(&drift), &tenant.decide().unwrap());
            trace.record(realised, pseudo);
        }
        assert_eq!(trace, expected.trace);
        assert_eq!(
            tenant.total_reward.to_bits(),
            expected.total_reward.to_bits()
        );
        assert_eq!(
            (tenant.optimal_sum / 200.0).to_bits(),
            expected.optimal_mean.to_bits()
        );
    }

    #[test]
    fn drifting_tenant_snapshot_restores_across_a_change_point() {
        use netband_env::{ChangePoint, DriftSchedule, GradualDrift};
        let drift = DriftSchedule {
            gradual: Some(GradualDrift {
                amplitude: 0.15,
                period: 40,
            }),
            change_points: vec![ChangePoint {
                round: 50,
                rotation: 2,
            }],
            ..DriftSchedule::default()
        };
        let mut original = Tenant::new(
            single_spec("t", 13)
                .with_drift(drift)
                .with_auto_feedback(true),
        )
        .unwrap();
        // Snapshot strictly before the change point; both continuations must
        // cross it identically.
        for _ in 0..40 {
            original.decide().unwrap();
        }
        let mut restored = Tenant::from_snapshot(original.snapshot()).unwrap();
        for _ in 0..40 {
            let a = original.decide().unwrap();
            let b = restored.decide().unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(
            original.total_reward.to_bits(),
            restored.total_reward.to_bits()
        );
        assert_eq!(
            original.optimal_sum.to_bits(),
            restored.optimal_sum.to_bits()
        );
    }

    #[test]
    fn trivial_drift_schedules_stay_on_the_stationary_path() {
        let mut plain = Tenant::new(single_spec("a", 5).with_auto_feedback(true)).unwrap();
        let mut trivial = Tenant::new(
            single_spec("b", 5)
                .with_drift(netband_env::DriftSchedule::default())
                .with_auto_feedback(true),
        )
        .unwrap();
        assert!(trivial.drift.is_none());
        for _ in 0..50 {
            let a = plain.decide().unwrap();
            let b = trivial.decide().unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(plain.total_reward.to_bits(), trivial.total_reward.to_bits());
        assert_eq!(plain.optimal_sum.to_bits(), trivial.optimal_sum.to_bits());
    }

    #[test]
    fn combinatorial_tenant_decides_feasible_strategies() {
        let bandit = fixture_bandit(11);
        let family = StrategyFamily::at_most_m(8, 3);
        let policy = DflCsr::new(bandit.graph().clone(), family.clone());
        let mut tenant = Tenant::new(
            TenantSpec::combinatorial(
                "c",
                bandit,
                policy,
                family.clone(),
                CombinatorialScenario::SideReward,
                21,
            )
            .with_auto_feedback(true),
        )
        .unwrap();
        for _ in 0..50 {
            let reply = tenant.decide().unwrap();
            match reply.decision {
                Decision::Strategy(s) => assert!(!s.is_empty() && s.len() <= 3),
                Decision::Arm(_) => panic!("combinatorial tenant returned a single arm"),
            }
        }
        assert_eq!(tenant.policy_name(), "DFL-CSR");
    }
}
