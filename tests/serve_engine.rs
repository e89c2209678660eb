//! Engine-level integration tests: multi-shard routing, concurrent clients,
//! delayed batched feedback, lifecycle errors, and metrics accounting.
//!
//! The bit-exactness of the served math is pinned by
//! `tests/serve_equivalence.rs`; this suite exercises the concurrent parts —
//! many tenants, many client threads, feedback arriving late, in batches and
//! out of order — and the bookkeeping the engine reports about them.

mod common;

use common::RegretRecorder;
use netband::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn instance(seed: u64, num_arms: usize) -> NetworkedBandit {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = generators::erdos_renyi(num_arms, 0.4, &mut rng);
    let arms = ArmSet::random_bernoulli(num_arms, &mut rng);
    NetworkedBandit::new(graph, arms).unwrap()
}

/// A mixed single/combinatorial tenant spec, deterministic in `index`.
fn tenant_spec(index: usize, flush: FlushPolicy) -> TenantSpec {
    let id = format!("tenant-{index:02}");
    let bandit = instance(1000 + index as u64, 10);
    let seed = 5000 + index as u64;
    if index % 2 == 0 {
        TenantSpec::single(
            id,
            bandit.clone(),
            DflSso::new(bandit.graph().clone()),
            SingleScenario::SideObservation,
            seed,
        )
        .with_flush(flush)
    } else {
        let family = StrategyFamily::at_most_m(10, 3);
        TenantSpec::combinatorial(
            id,
            bandit.clone(),
            DflCsr::new(bandit.graph().clone(), family.clone()),
            family,
            CombinatorialScenario::SideReward,
            seed,
        )
        .with_flush(flush)
    }
}

/// The recorder scoring the replies of `tenant_spec(index, _)`.
fn tenant_recorder(index: usize) -> RegretRecorder {
    let bandit = instance(1000 + index as u64, 10);
    if index % 2 == 0 {
        RegretRecorder::single("DFL-SSO", bandit, SingleScenario::SideObservation)
    } else {
        let family = StrategyFamily::at_most_m(10, 3);
        RegretRecorder::combinatorial("DFL-CSR", bandit, family, CombinatorialScenario::SideReward)
    }
}

/// Drives one tenant for `rounds` decides, withholding feedback in a local
/// window and delivering each window in *reverse* round order — the delayed,
/// out-of-order regime. Every reply is recorded into `recorder`.
fn drive_with_delayed_feedback(
    engine: &ServeEngine,
    tenant: &str,
    rounds: usize,
    window: usize,
    recorder: &mut RegretRecorder,
) {
    let mut held = Vec::new();
    for _ in 0..rounds {
        let reply = engine.decide(tenant).expect("decide");
        recorder.record_reply(&reply);
        held.push((reply.round, reply.feedback.expect("echoed feedback")));
        if held.len() >= window {
            for (round, event) in held.drain(..).rev() {
                engine.feedback(tenant, round, event).expect("feedback");
            }
        }
    }
    for (round, event) in held.drain(..).rev() {
        engine.feedback(tenant, round, event).expect("feedback");
    }
}

/// The tentpole end-to-end scenario: a multi-shard engine (4 by default,
/// overridable via `NETBAND_TEST_SHARDS` so CI covers shards above and below
/// the core count) hosting 16 mixed tenants, driven by 4 concurrent client
/// threads, feedback delayed in out-of-order windows. Every command is
/// accounted for in the metrics report, and every tenant reaches its full
/// horizon.
#[test]
fn multi_shard_engine_serves_concurrent_clients_with_delayed_feedback() {
    const TENANTS: usize = 16;
    const ROUNDS: usize = 40;
    const CLIENTS: usize = 4;

    let shards = common::test_shards(4);
    let engine = ServeEngine::start(EngineConfig::new(shards).with_queue_capacity(64));
    assert_eq!(engine.num_shards(), shards);
    for index in 0..TENANTS {
        engine
            .create_tenant(tenant_spec(index, FlushPolicy::batched(8)))
            .unwrap();
    }

    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let engine = &engine;
            scope.spawn(move || {
                for index in (client..TENANTS).step_by(CLIENTS) {
                    let id = format!("tenant-{index:02}");
                    let mut recorder = tenant_recorder(index);
                    drive_with_delayed_feedback(engine, &id, ROUNDS, 10, &mut recorder);
                    recorder.assert_totals(&engine.telemetry(&id).expect("telemetry"));
                }
            });
        }
    });

    engine.drain().unwrap();
    let report = engine.metrics().unwrap();
    assert_eq!(report.total_decides(), (TENANTS * ROUNDS) as u64);
    assert_eq!(report.total_feedback_events(), (TENANTS * ROUNDS) as u64);
    assert_eq!(report.tenants.len(), TENANTS);
    for (id, metrics) in &report.tenants {
        assert_eq!(metrics.decides, ROUNDS as u64, "{id}");
        // Every event was eventually applied (drain flushed the remainder).
        assert_eq!(metrics.events_applied, ROUNDS as u64, "{id}");
        assert!(metrics.batches_flushed > 0, "{id}");
        assert!(metrics.max_batch >= 8, "{id}: flush threshold respected");
    }
    assert_eq!(report.shards.len(), shards);
    let commands: u64 = report.shards.iter().map(|s| s.commands).sum();
    assert!(commands >= report.total_decides() + report.total_feedback_events());
    assert_eq!(report.decide_latency().count(), (TENANTS * ROUNDS) as u64);
    engine.shutdown();
}

/// A tenant's trajectory depends only on its own command sequence: driving
/// the same tenant with the same client schedule alone on a 1-shard engine
/// produces a bit-identical run, regardless of how many neighbours and
/// threads the shared engine was juggling.
#[test]
fn tenant_runs_are_independent_of_cohabitation_and_threading() {
    let shared = ServeEngine::with_shards(common::test_shards(3));
    for index in 0..6 {
        shared
            .create_tenant(tenant_spec(index, FlushPolicy::batched(4)))
            .unwrap();
    }
    let mut shared_runs: Vec<(usize, RegretRecorder)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..3)
            .map(|client| {
                let shared = &shared;
                scope.spawn(move || {
                    (client..6)
                        .step_by(3)
                        .map(|index| {
                            let id = format!("tenant-{index:02}");
                            let mut recorder = tenant_recorder(index);
                            drive_with_delayed_feedback(shared, &id, 30, 7, &mut recorder);
                            (index, recorder)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|client| client.join().unwrap())
            .collect()
    });
    shared_runs.sort_by_key(|&(index, _)| index);

    for (index, shared_run) in shared_runs {
        let id = format!("tenant-{index:02}");
        shared_run.assert_totals(&shared.telemetry(&id).unwrap());

        let alone = ServeEngine::with_shards(1);
        alone
            .create_tenant(tenant_spec(index, FlushPolicy::batched(4)))
            .unwrap();
        let mut alone_run = tenant_recorder(index);
        drive_with_delayed_feedback(&alone, &id, 30, 7, &mut alone_run);
        alone_run.assert_totals(&alone.telemetry(&id).unwrap());
        alone.shutdown();

        assert_eq!(
            shared_run.run_result(),
            alone_run.run_result(),
            "{id}: cohabitation changed the served trajectory"
        );
    }
    shared.shutdown();
}

#[test]
fn lifecycle_errors_are_reported() {
    let engine = ServeEngine::with_shards(2);
    engine
        .create_tenant(tenant_spec(0, FlushPolicy::immediate()))
        .unwrap();
    // Duplicate registration is rejected.
    let err = engine
        .create_tenant(tenant_spec(0, FlushPolicy::immediate()))
        .unwrap_err();
    assert_eq!(err, ServeError::DuplicateTenant("tenant-00".into()));
    // Unknown tenants error on request/response commands ...
    let err = engine.decide("no-such-tenant").unwrap_err();
    assert_eq!(err, ServeError::UnknownTenant("no-such-tenant".into()));
    assert!(engine.snapshot_tenant("no-such-tenant").is_err());
    // ... and eviction removes the tenant for good.
    engine.evict_tenant("tenant-00").unwrap();
    let err = engine.decide("tenant-00").unwrap_err();
    assert_eq!(err, ServeError::UnknownTenant("tenant-00".into()));
    engine.shutdown();
}

/// Fire-and-forget feedback cannot return an error; misdirected events are
/// counted in the shard's `rejected` metric instead of vanishing silently.
#[test]
fn misdirected_feedback_is_counted_not_lost() {
    let engine = ServeEngine::with_shards(1);
    engine
        .create_tenant(tenant_spec(0, FlushPolicy::immediate()))
        .unwrap();
    let reply = engine.decide("tenant-00").unwrap();
    // Unknown tenant.
    engine
        .feedback(
            "ghost",
            1,
            FeedbackEvent::Single(netband::env::SinglePlayFeedback::default()),
        )
        .unwrap();
    // Wrong feedback kind for a single-play tenant.
    engine
        .feedback(
            "tenant-00",
            1,
            FeedbackEvent::Combinatorial(netband::env::CombinatorialFeedback::default()),
        )
        .unwrap();
    // A round the tenant never served.
    engine
        .feedback("tenant-00", 99, reply.feedback.unwrap())
        .unwrap();
    // Flush addressed to nobody.
    engine.flush("ghost").unwrap();
    let report = engine.metrics().unwrap();
    assert_eq!(report.shards[0].rejected, 4);
    assert_eq!(report.total_feedback_events(), 0);
    engine.shutdown();
}

/// Both in-process feedback entry points refuse an observation outside the
/// paper's [0, 1] reward support before anything is enqueued: ±1.7e308 are
/// finite, but folded into an arm's running mean they would make it
/// infinite. The tenant's estimators stay finite and it keeps learning from
/// valid feedback.
#[test]
fn out_of_support_feedback_is_refused_at_admission() {
    let engine = ServeEngine::with_shards(1);
    engine
        .create_tenant(tenant_spec(0, FlushPolicy::immediate()))
        .unwrap();
    let reply = engine.decide("tenant-00").unwrap();
    let Some(FeedbackEvent::Single(echoed)) = reply.feedback else {
        panic!("single-play tenants echo single-play feedback");
    };
    let mut hostile = echoed.clone();
    hostile.observations = vec![(echoed.arm, 1.7e308), (echoed.arm, -1.7e308)];
    let refused = |result: Result<_, ServeError>| match result {
        Err(ServeError::OutOfSupport { round, value, .. }) => {
            assert_eq!(round, reply.round);
            assert_eq!(value, 1.7e308);
        }
        other => panic!("out-of-support feedback was not refused: {other:?}"),
    };
    refused(
        engine
            .feedback(
                "tenant-00",
                reply.round,
                FeedbackEvent::Single(hostile.clone()),
            )
            .map(|()| 0),
    );
    let mut client = engine.client();
    let window = [
        (reply.round, FeedbackEvent::Single(echoed.clone())),
        (reply.round, FeedbackEvent::Single(hostile)),
    ];
    refused(client.feedback_many("tenant-00", window.clone()));
    refused(client.try_feedback_many("tenant-00", window));

    let telemetry = engine.telemetry("tenant-00").unwrap();
    assert_eq!(telemetry.metrics.feedback_events, 0, "nothing was enqueued");
    assert!(telemetry.arm_means.iter().all(|m| m.is_finite()));
    assert_eq!(engine.metrics().unwrap().shards[0].rejected, 0);
    client
        .feedback_many("tenant-00", [(reply.round, FeedbackEvent::Single(echoed))])
        .unwrap();
    let telemetry = engine.telemetry("tenant-00").unwrap();
    assert_eq!(telemetry.metrics.feedback_events, 1);
    assert!(telemetry.arm_means.iter().all(|m| m.is_finite()));
    engine.shutdown();
}

/// Batched flush policies fold feedback in at the configured threshold: the
/// queue builds to `max_pending` and is applied as one batch.
#[test]
fn batched_flush_applies_at_the_threshold() {
    let engine = ServeEngine::with_shards(1);
    engine
        .create_tenant(tenant_spec(0, FlushPolicy::batched(4)))
        .unwrap();
    let mut held = Vec::new();
    for _ in 0..4 {
        let reply = engine.decide("tenant-00").unwrap();
        held.push((reply.round, reply.feedback.unwrap()));
    }
    // Deliver three: below the threshold, nothing applies.
    for (round, event) in held.drain(..3) {
        engine.feedback("tenant-00", round, event).unwrap();
    }
    let report = engine.metrics().unwrap();
    let (_, metrics) = &report.tenants[0];
    assert_eq!(metrics.feedback_events, 3);
    assert_eq!(metrics.events_applied, 0);
    // The fourth event reaches the threshold and flushes the whole batch.
    let (round, event) = held.pop().unwrap();
    engine.feedback("tenant-00", round, event).unwrap();
    let report = engine.metrics().unwrap();
    let (_, metrics) = &report.tenants[0];
    assert_eq!(metrics.events_applied, 4);
    assert_eq!(metrics.batches_flushed, 1);
    assert_eq!(metrics.max_batch, 4);
    assert!((metrics.mean_batch() - 4.0).abs() < 1e-12);
    engine.shutdown();
}

/// An explicit `flush` applies a partial batch without waiting for the
/// threshold.
#[test]
fn explicit_flush_applies_partial_batches() {
    let engine = ServeEngine::with_shards(1);
    engine
        .create_tenant(tenant_spec(1, FlushPolicy::batched(1024)))
        .unwrap();
    for _ in 0..5 {
        let reply = engine.decide("tenant-01").unwrap();
        engine
            .feedback("tenant-01", reply.round, reply.feedback.unwrap())
            .unwrap();
    }
    engine.flush("tenant-01").unwrap();
    let report = engine.metrics().unwrap();
    let (_, metrics) = &report.tenants[0];
    assert_eq!(metrics.events_applied, 5);
    assert_eq!(metrics.batches_flushed, 1);
    engine.shutdown();
}
