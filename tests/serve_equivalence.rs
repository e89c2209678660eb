//! Serving-engine golden equivalence suite.
//!
//! The correctness anchor of `netband-serve`: a single-shard engine with
//! immediate per-decide feedback must reproduce the committed
//! `tests/fixtures/golden_*.json` per-round regret traces of all four DFL
//! policies **f64-bit-exactly**. The engine decomposes a simulated round into
//! decide (select + pull + running totals) and feedback ingestion (queue +
//! in-round-order flush into the policy); with [`FlushPolicy::immediate`] that
//! decomposition must be the very same math as the batch runner — summation
//! order, RNG stream consumption and argmax tie-breaking included. The
//! per-round trace is rebuilt from the echoed replies by a
//! [`RegretRecorder`], and the tenant's own totals are checked against it.
//! These tests never regenerate fixtures; they only compare.

mod common;

use common::{
    assert_golden, cso_family, csr_family, drift_scenarios, fixture_instance, GoldenTrace,
    RegretRecorder, COMB_HORIZON, DRIFT_CHANGE_ROUND, DRIFT_HORIZON, RUN_SEED, SINGLE_HORIZON,
};
use netband::prelude::*;
use proptest::prelude::*;

/// A single-play golden tenant and the recorder that scores its replies.
fn single_tenant(
    name: &str,
    policy: impl SinglePlayPolicy + Clone + 'static,
    scenario: SingleScenario,
) -> (TenantSpec, RegretRecorder) {
    let bandit = fixture_instance();
    let recorder = RegretRecorder::single(policy.name(), bandit.clone(), scenario);
    let spec = TenantSpec::single(name, bandit, policy, scenario, RUN_SEED);
    (spec, recorder)
}

/// A combinatorial golden tenant and the recorder that scores its replies.
fn combinatorial_tenant(
    name: &str,
    policy: impl CombinatorialPolicy + Clone + 'static,
    family: StrategyFamily,
    scenario: CombinatorialScenario,
) -> (TenantSpec, RegretRecorder) {
    let bandit = fixture_instance();
    let recorder =
        RegretRecorder::combinatorial(policy.name(), bandit.clone(), family.clone(), scenario);
    let spec = TenantSpec::combinatorial(name, bandit, policy, family, scenario, RUN_SEED);
    (spec, recorder)
}

/// Builds the four golden tenants, configured exactly like the batch runs:
/// same instance, same policies, same scenarios, same reward-stream seed,
/// immediate feedback application.
fn golden_specs() -> Vec<(&'static str, usize, TenantSpec, RegretRecorder)> {
    let bandit = fixture_instance();
    let graph = bandit.graph();

    let sso = single_tenant(
        "dfl_sso",
        DflSso::new(graph.clone()),
        SingleScenario::SideObservation,
    );
    let ssr = single_tenant(
        "dfl_ssr",
        DflSsr::new(graph.clone()),
        SingleScenario::SideReward,
    );

    let family = cso_family();
    let strategies = family
        .enumerate(graph)
        .expect("fixture family is enumerable");
    let cso = combinatorial_tenant(
        "dfl_cso",
        DflCso::from_strategies(graph, strategies),
        family,
        CombinatorialScenario::SideObservation,
    );

    let family = csr_family();
    let csr = combinatorial_tenant(
        "dfl_csr",
        DflCsr::new(graph.clone(), family.clone()),
        family,
        CombinatorialScenario::SideReward,
    );

    vec![
        ("dfl_sso", SINGLE_HORIZON, sso),
        ("dfl_ssr", SINGLE_HORIZON, ssr),
        ("dfl_cso", COMB_HORIZON, cso),
        ("dfl_csr", COMB_HORIZON, csr),
    ]
    .into_iter()
    .map(|(name, horizon, (spec, recorder))| {
        let spec = spec.with_flush(FlushPolicy::immediate());
        (name, horizon, spec, recorder)
    })
    .collect()
}

/// Serves `horizon` closed-loop rounds for `tenant`: every decide's reply is
/// recorded and its revealed feedback routed straight back into the engine.
fn serve_closed_loop(
    engine: &ServeEngine,
    tenant: &str,
    horizon: usize,
    recorder: &mut RegretRecorder,
) {
    for _ in 0..horizon {
        let reply = engine.decide(tenant).expect("decide");
        recorder.record_reply(&reply);
        let event = reply.feedback.expect("golden tenants echo their feedback");
        engine
            .feedback(tenant, reply.round, event)
            .expect("feedback");
    }
}

/// Checks the tenant's running totals against the recorder, evicts it, and
/// compares the recorded run with the committed fixture.
fn evict_and_check(engine: &ServeEngine, name: &str, horizon: usize, recorder: &RegretRecorder) {
    recorder.assert_totals(&engine.telemetry(name).expect("telemetry"));
    let snapshot = engine.evict_tenant(name).expect("evict tenant");
    assert_eq!(snapshot.round(), horizon as u64, "{name}");
    assert_golden(name, &recorder.run_result());
}

/// One tenant at a time on a single-shard engine: each run must be
/// bit-identical to its committed fixture.
#[test]
fn single_shard_engine_reproduces_all_golden_traces() {
    for (name, horizon, spec, mut recorder) in golden_specs() {
        let engine = ServeEngine::with_shards(1);
        engine.create_tenant(spec).expect("create tenant");
        serve_closed_loop(&engine, name, horizon, &mut recorder);
        evict_and_check(&engine, name, horizon, &recorder);
        engine.shutdown();
    }
}

/// All four golden tenants hosted on the *same* single-shard engine, decides
/// interleaved round-robin: tenant state is fully independent, so the
/// interleaving must not perturb a single bit of any trace.
#[test]
fn interleaved_tenants_on_one_shard_stay_bit_exact() {
    let engine = ServeEngine::with_shards(1);
    let mut schedule = Vec::new();
    for (name, horizon, spec, recorder) in golden_specs() {
        engine.create_tenant(spec).expect("create tenant");
        schedule.push((name, horizon, recorder));
    }
    let max_horizon = schedule.iter().map(|&(_, h, _)| h).max().unwrap();
    for round in 0..max_horizon {
        for (name, horizon, recorder) in &mut schedule {
            if round < *horizon {
                let reply = engine.decide(name).expect("decide");
                recorder.record_reply(&reply);
                let event = reply.feedback.expect("echoed feedback");
                engine.feedback(name, reply.round, event).expect("feedback");
            }
        }
    }
    for (name, horizon, recorder) in schedule {
        evict_and_check(&engine, name, horizon, &recorder);
    }
    engine.shutdown();
}

/// The batched client transport must be the same math as per-call serving:
/// at chunk size 1 with immediate flushing, `decide_many`/`feedback_many`
/// reproduce every committed fixture bit for bit.
#[test]
fn batched_client_reproduces_all_golden_traces_at_chunk_one() {
    for (name, horizon, spec, mut recorder) in golden_specs() {
        let engine = ServeEngine::with_shards(1);
        engine.create_tenant(spec).expect("create tenant");
        let mut client = engine.client();
        let mut replies = Vec::new();
        for _ in 0..horizon {
            client.decide_many(name, 1, &mut replies).expect("decide");
            let reply = replies[0].as_mut().expect("golden decide succeeds");
            recorder.record_reply(reply);
            let event = reply.feedback.take().expect("golden tenants echo");
            let round = reply.round;
            client
                .feedback_many(name, [(round, event)])
                .expect("feedback");
        }
        drop(client);
        evict_and_check(&engine, name, horizon, &recorder);
        engine.shutdown();
    }
}

/// Builds one delayed-feedback tenant (flush threshold `flush`) on a fresh
/// single-shard engine, plus its recorder; `combinatorial` picks DFL-CSR over
/// DFL-SSO so both reply shapes (arm and strategy decisions) are exercised.
fn delayed_tenant_engine(combinatorial: bool, flush: usize) -> (ServeEngine, RegretRecorder) {
    let graph = fixture_instance().graph().clone();
    let (spec, recorder) = if combinatorial {
        let family = csr_family();
        combinatorial_tenant(
            "t",
            DflCsr::new(graph, family.clone()),
            family,
            CombinatorialScenario::SideReward,
        )
    } else {
        single_tenant("t", DflSso::new(graph), SingleScenario::SideObservation)
    };
    let engine = ServeEngine::with_shards(1);
    engine
        .create_tenant(spec.with_flush(FlushPolicy::batched(flush)))
        .expect("create tenant");
    (engine, recorder)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A randomly chunked `decide_many`/`feedback_many` interleaving (chunk
    /// sizes 1..=8, each window optionally delivered in reverse round order)
    /// must produce f64-bit-identical decisions, regret traces, and tenant
    /// metrics to the equivalent per-call `decide`/`feedback` sequence —
    /// batching is transport, not semantics.
    #[test]
    fn chunked_batches_match_per_call_sequences(
        // (chunk size, reverse-delivery flag) per window; the vendored
        // proptest shim has no bool strategy, so flags travel as 0/1.
        plan in proptest::collection::vec((1usize..=8, 0usize..=1), 1..=10),
        flush in 1usize..=6,
        combinatorial in 0usize..=1,
    ) {
        let (per_call, mut per_call_recorder) = delayed_tenant_engine(combinatorial == 1, flush);
        let (batched, mut batched_recorder) = delayed_tenant_engine(combinatorial == 1, flush);
        let mut client = batched.client();
        let mut replies = Vec::new();
        for &(chunk, reversed) in &plan {
            client.decide_many("t", chunk, &mut replies).expect("decide_many");
            prop_assert_eq!(replies.len(), chunk);
            for slot in &replies {
                let got = slot.as_ref().expect("batched decide succeeds");
                let want = per_call.decide("t").expect("per-call decide succeeds");
                prop_assert_eq!(got, &want);
                prop_assert_eq!(got.reward.to_bits(), want.reward.to_bits());
                batched_recorder.record_reply(got);
                per_call_recorder.record_reply(&want);
            }
            let mut window: Vec<(u64, FeedbackEvent)> = replies
                .iter_mut()
                .map(|slot| {
                    let reply = slot.as_mut().expect("batched decide succeeds");
                    (reply.round, reply.feedback.take().expect("echoed feedback"))
                })
                .collect();
            if reversed == 1 {
                window.reverse();
            }
            for (round, event) in &window {
                per_call.feedback("t", *round, event.clone()).expect("feedback");
            }
            let sent = client.feedback_many("t", window).expect("feedback_many");
            prop_assert_eq!(sent, chunk);
        }
        batched.drain().expect("drain");
        per_call.drain().expect("drain");
        prop_assert_eq!(
            batched.metrics().expect("metrics").tenants,
            per_call.metrics().expect("metrics").tenants
        );
        drop(client);
        batched_recorder.assert_totals(&batched.telemetry("t").expect("telemetry"));
        per_call_recorder.assert_totals(&per_call.telemetry("t").expect("telemetry"));
        prop_assert_eq!(
            GoldenTrace::from_result(&batched_recorder.run_result()),
            GoldenTrace::from_result(&per_call_recorder.run_result())
        );
        batched.shutdown();
        per_call.shutdown();
    }
}

/// A tenant registered **from each drifting scenario document** serves the
/// same trajectory as `run_spec` of the document: the engine recomputes the
/// per-round drifted means and the dynamic-oracle benchmark bit-exactly.
#[test]
fn spec_registered_drifting_tenant_reproduces_the_drift_fixture() {
    for (name, spec) in drift_scenarios() {
        let mut recorder = RegretRecorder::from_scenario(&spec);
        let engine = ServeEngine::with_shards(1);
        engine
            .register_tenant_spec(&RegisterTenantSpec::new(name, spec))
            .expect("register drifting tenant from spec");
        serve_closed_loop(&engine, name, DRIFT_HORIZON, &mut recorder);
        evict_and_check(&engine, name, DRIFT_HORIZON, &recorder);
        engine.shutdown();
    }
}

/// Restart survival for nonstationary worlds: snapshot *before* the change
/// point, shut the engine down, restore onto a fresh engine, and let the
/// restored tenant cross the change point itself. Drift is a pure function of
/// the checkpointed round counter, so the stitched trace must still match the
/// fixture bit for bit.
#[test]
fn drifting_tenant_restart_across_the_change_point_stays_bit_exact() {
    for (name, spec) in drift_scenarios() {
        let mut recorder = RegretRecorder::from_scenario(&spec);
        let first = ServeEngine::with_shards(1);
        first
            .register_tenant_spec(&RegisterTenantSpec::new(name, spec))
            .expect("register drifting tenant from spec");
        let before_change = (DRIFT_CHANGE_ROUND - 50) as usize;
        serve_closed_loop(&first, name, before_change, &mut recorder);
        let snapshot = first.snapshot_tenant(name).expect("snapshot tenant");
        assert!(
            snapshot.round() < DRIFT_CHANGE_ROUND,
            "snapshot must land before the change point"
        );
        first.shutdown();

        let second = ServeEngine::with_shards(1);
        second.restore_tenant(snapshot).expect("restore tenant");
        serve_closed_loop(&second, name, DRIFT_HORIZON - before_change, &mut recorder);
        evict_and_check(&second, name, DRIFT_HORIZON, &recorder);
        second.shutdown();
    }
}

/// Snapshot half-way, shut the engine down, restore onto a fresh engine, and
/// finish the run there: the stitched trace must still match the fixture bit
/// for bit (the restart-survival guarantee of tenant checkpoints).
#[test]
fn snapshot_restore_across_engine_restart_stays_bit_exact() {
    for (name, horizon, spec, mut recorder) in golden_specs() {
        let first = ServeEngine::with_shards(1);
        first.create_tenant(spec).expect("create tenant");
        let half = horizon / 2;
        serve_closed_loop(&first, name, half, &mut recorder);
        let snapshot = first.snapshot_tenant(name).expect("snapshot tenant");
        first.shutdown();

        let second = ServeEngine::with_shards(1);
        second.restore_tenant(snapshot).expect("restore tenant");
        serve_closed_loop(&second, name, horizon - half, &mut recorder);
        evict_and_check(&second, name, horizon, &recorder);
        second.shutdown();
    }
}
