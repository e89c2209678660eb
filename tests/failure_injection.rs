//! Failure-injection and degenerate-configuration tests: the library must
//! behave predictably on empty graphs, single arms, point-mass rewards, huge
//! strategies, invalid pulls, and other corners a downstream user will
//! eventually hit.
//!
//! The second half is the durable-store **crash matrix**: engines killed
//! mid-run at adversarial rounds must recover their exact learning state from
//! disk (snapshot + WAL replay), mid-log corruption must fail recovery
//! loudly, and the disk eviction tier must be invisible to results.

mod common;

use netband::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn mismatched_graph_and_arms_are_rejected() {
    let graph = generators::path(4);
    let arms = ArmSet::bernoulli(&[0.5; 3]);
    let err = NetworkedBandit::new(graph, arms).unwrap_err();
    assert!(err.to_string().contains("4 vertices"));
}

#[test]
fn out_of_range_pulls_are_rejected_not_panicking() {
    let graph = generators::path(3);
    let bandit = NetworkedBandit::new(graph, ArmSet::linear_bernoulli(3)).unwrap();
    let mut rng = StdRng::seed_from_u64(0);
    assert!(bandit.try_pull_single(3, &mut rng).is_err());
    assert!(bandit.pull_strategy(&[0, 5], &mut rng).is_err());
    assert!(bandit.pull_strategy(&[], &mut rng).is_err());
}

#[test]
fn point_mass_rewards_give_exactly_zero_regret_once_converged() {
    // Deterministic rewards: after the forced exploration, DFL-SSO must lock
    // onto the best arm and accumulate no further regret.
    let graph = generators::complete(5);
    let arms: ArmSet = [0.1, 0.3, 0.5, 0.7, 0.9]
        .into_iter()
        .map(netband::env::distributions::Distribution::point_mass)
        .collect();
    let bandit = NetworkedBandit::new(graph.clone(), arms).unwrap();
    let mut policy = DflSso::new(graph);
    let result = run_single(
        &bandit,
        &mut policy,
        SingleScenario::SideObservation,
        200,
        1,
    );
    // On a complete graph one pull observes everything, so at most the first
    // pull can be suboptimal.
    assert!(result.trace.total_pseudo() <= 0.8 + 1e-9);
    let tail: f64 = result.trace.pseudo()[1..].iter().sum();
    assert!(tail.abs() < 1e-9, "tail pseudo-regret {tail}");
}

#[test]
fn identical_arms_mean_every_policy_has_zero_pseudo_regret() {
    let graph = generators::erdos_renyi(10, 0.5, &mut StdRng::seed_from_u64(3));
    let arms = ArmSet::bernoulli(&[0.4; 10]);
    let bandit = NetworkedBandit::new(graph.clone(), arms).unwrap();
    let mut policy = DflSso::new(graph);
    let result = run_single(
        &bandit,
        &mut policy,
        SingleScenario::SideObservation,
        300,
        4,
    );
    assert!(result.trace.total_pseudo().abs() < 1e-9);
}

#[test]
fn strategy_family_with_m_larger_than_k_still_works() {
    let graph = generators::edgeless(3);
    let family = StrategyFamily::at_most_m(3, 10);
    let bandit = NetworkedBandit::new(graph.clone(), ArmSet::linear_bernoulli(3)).unwrap();
    let mut policy = DflCsr::new(graph.clone(), family.clone());
    let result = run_combinatorial(
        &bandit,
        &family,
        &mut policy,
        CombinatorialScenario::SideReward,
        200,
        5,
    )
    .unwrap();
    // The best strategy is all three arms; the policy should find it quickly.
    assert!(result.average_regret() < 0.5);
}

#[test]
fn exactly_m_with_infeasible_m_yields_an_empty_family() {
    let graph = generators::edgeless(3);
    let family = StrategyFamily::exactly_m(3, 7);
    assert_eq!(family.enumerate(&graph).unwrap().len(), 0);
    assert!(family
        .argmax_by_arm_weights(&[1.0, 1.0, 1.0], &graph)
        .is_none());
}

#[test]
fn single_arm_combinatorial_instance() {
    let graph = generators::edgeless(1);
    let family = StrategyFamily::at_most_m(1, 1);
    let bandit = NetworkedBandit::new(graph.clone(), ArmSet::bernoulli(&[0.6])).unwrap();
    let mut policy = DflCsr::new(graph, family.clone());
    let result = run_combinatorial(
        &bandit,
        &family,
        &mut policy,
        CombinatorialScenario::SideReward,
        100,
        6,
    )
    .unwrap();
    assert!(result.trace.total_pseudo().abs() < 1e-9);
}

#[test]
fn disconnected_graphs_are_handled_by_all_policies() {
    let graph = generators::disjoint_cliques(3, 4);
    let arms = ArmSet::linear_bernoulli(12);
    let bandit = NetworkedBandit::new(graph.clone(), arms).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let mut sso = DflSso::new(graph.clone());
    let mut ssr = DflSsr::new(graph.clone());
    for t in 1..=100 {
        for policy in [&mut sso as &mut dyn SinglePlayPolicy, &mut ssr] {
            let arm = policy.select_arm(t);
            assert!(arm < 12);
            let fb = bandit.pull_single(arm, &mut rng);
            policy.update(t, &fb);
        }
    }
}

#[test]
fn workload_presets_run_end_to_end() {
    let mut rng = StdRng::seed_from_u64(8);
    let promo = netband::env::workloads::social_promotion(30, 3, &mut rng);
    let mut policy = DflSsr::new(promo.bandit.graph().clone());
    let result = run_single(
        &promo.bandit,
        &mut policy,
        SingleScenario::SideReward,
        500,
        9,
    );
    assert_eq!(result.trace.len(), 500);

    let ads = netband::env::workloads::online_advertising(20, 2, &mut rng);
    let family = ads.try_family().expect("combinatorial workload").clone();
    let mut policy = DflCsr::new(ads.bandit.graph().clone(), family.clone());
    let result = run_combinatorial(
        &ads.bandit,
        &family,
        &mut policy,
        CombinatorialScenario::SideReward,
        500,
        10,
    )
    .unwrap();
    assert!(result.total_reward > 0.0);

    let radio = netband::env::workloads::channel_access(12, 2, 0.3, &mut rng);
    let family = radio.try_family().expect("combinatorial workload").clone();
    let strategies = family.enumerate(radio.bandit.graph()).unwrap();
    let mut policy = DflCso::from_strategies(radio.bandit.graph(), strategies);
    let result = run_combinatorial(
        &radio.bandit,
        &family,
        &mut policy,
        CombinatorialScenario::SideObservation,
        500,
        11,
    )
    .unwrap();
    assert!(result.trace.pseudo().iter().all(|&r| r >= -1e-9));
}

#[test]
fn extreme_graph_shapes_do_not_break_the_heuristic_policies() {
    for graph in [
        generators::star(10),
        generators::complete(10),
        generators::edgeless(10),
        generators::cycle(10),
    ] {
        let arms = ArmSet::linear_bernoulli(10);
        let bandit = NetworkedBandit::new(graph.clone(), arms).unwrap();
        let mut gn = DflSsoGreedyNeighbor::new(graph);
        let result = run_single(&bandit, &mut gn, SingleScenario::SideObservation, 300, 12);
        assert_eq!(result.trace.len(), 300);
        assert!(result.average_regret() < 1.0);
    }
}

#[test]
fn exp3_and_softmax_survive_very_long_runs_without_overflow() {
    let graph = generators::edgeless(3);
    let bandit = NetworkedBandit::new(graph, ArmSet::bernoulli(&[0.0, 0.5, 1.0])).unwrap();
    let mut exp3 = Exp3::new(3, 0.9, 1);
    let mut softmax = netband::baselines::Softmax::new(3, 0.01, 1);
    let mut rng = StdRng::seed_from_u64(13);
    for t in 1..=20_000 {
        for policy in [&mut exp3 as &mut dyn SinglePlayPolicy, &mut softmax] {
            let arm = policy.select_arm(t);
            let fb = bandit.pull_single(arm, &mut rng);
            policy.update(t, &fb);
        }
    }
    // If weights overflowed, selections would become NaN-driven and constant 0.
    let arm = exp3.select_arm(20_001);
    assert!(arm < 3);
}

// ===== durable store: the crash matrix ======================================

mod durability {
    use std::collections::HashSet;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    use super::common::{
        assert_golden, drift_scenario, golden_specs, RegretRecorder, DRIFT_CHANGE_ROUND,
        DRIFT_HORIZON,
    };
    use netband::prelude::*;
    use netband::serve::TraceKind;

    /// A fresh per-test data directory, removed on drop. Crashed engines leak
    /// their file handles (like a killed process would); unlinking under them
    /// is fine on POSIX.
    struct DataDir(PathBuf);

    impl DataDir {
        fn new(tag: &str) -> DataDir {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "netband_crash_{tag}_{}_{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::remove_dir_all(&dir).ok();
            DataDir(dir)
        }

        /// A single-shard engine config over this directory with a small
        /// compaction threshold, so the crash matrix exercises *both*
        /// recovery inputs (a committed snapshot set and a WAL tail) rather
        /// than only a genesis log.
        fn engine_config(&self) -> EngineConfig {
            EngineConfig::new(1).with_store(StoreConfig::new(&self.0).with_compact_every(97))
        }
    }

    impl Drop for DataDir {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    /// Drives `rounds` closed-loop rounds: decide, record the reply, then
    /// return the echoed feedback for the same round (the golden-trace
    /// serving discipline).
    fn serve_rounds(
        engine: &ServeEngine,
        tenant: &str,
        rounds: usize,
        recorder: &mut RegretRecorder,
    ) {
        for _ in 0..rounds {
            let reply = engine.decide(tenant).expect("decide");
            recorder.record_reply(&reply);
            let event = reply.feedback.expect("echoed feedback");
            engine
                .feedback(tenant, reply.round, event)
                .expect("feedback");
        }
    }

    /// Simulates `kill -9` at a command boundary: waits until everything
    /// enqueued has been executed (the store-metrics call is a queue barrier
    /// that writes nothing durable — unlike `metrics`, which pages evicted
    /// tenants in and writes them out again after it has replied), then
    /// abandons the engine — no shutdown, no drain, no final fsync. Threads
    /// and file handles are leaked exactly as a killed process would leave
    /// them.
    fn kill(engine: ServeEngine) {
        engine.store_metrics().expect("barrier before the crash");
        std::mem::forget(engine);
    }

    /// Kills an engine serving `spec` after `crash_round` rounds, recovers a
    /// second engine from the same directory, finishes the horizon there, and
    /// asserts the stitched run — the replies recorded before and after the
    /// kill — reproduces the committed fixture bit for bit, and that the
    /// recovered tenant's running totals equal the recorded ones.
    fn crash_recover_and_check(fixture: &'static str, spec: &ScenarioSpec, crash_round: usize) {
        let dir = DataDir::new(fixture);
        let mut recorder = RegretRecorder::from_scenario(spec);
        let first = ServeEngine::start(dir.engine_config());
        first
            .register_tenant_spec(&RegisterTenantSpec::new(fixture, spec.clone()))
            .expect("register from spec");
        serve_rounds(&first, fixture, crash_round, &mut recorder);
        kill(first);

        let second = ServeEngine::try_start(dir.engine_config()).expect("recover from disk");
        let telemetry = second.telemetry(fixture).expect("recovered tenant exists");
        assert_eq!(
            telemetry.round, crash_round as u64,
            "{fixture}: recovery must resume at the crash round, not reset"
        );
        recorder.assert_totals(&telemetry);
        let store = second
            .store_metrics()
            .expect("store metrics")
            .expect("engine has a store");
        // Early crashes recover purely from the WAL (no snapshot committed
        // yet); later ones load snapshot tenants plus a log tail. Either way
        // recovery must have read *something* back.
        assert!(
            store.recovered_records + store.recovered_tenants >= 1,
            "{fixture}: recovery read nothing from disk"
        );
        serve_rounds(&second, fixture, spec.horizon - crash_round, &mut recorder);
        recorder.assert_totals(&second.telemetry(fixture).expect("telemetry"));
        second.shutdown();
        assert_golden(fixture, &recorder.run_result());
    }

    /// The crash matrix over the four golden DFL traces: kill at the first
    /// round, mid-horizon (past the compaction threshold, so recovery loads a
    /// snapshot *and* replays a WAL tail), and the second-to-last round.
    #[test]
    fn killed_engines_recover_every_golden_trace_bit_exact() {
        for (fixture, spec) in golden_specs() {
            for crash_round in [1, spec.horizon / 2, spec.horizon - 1] {
                crash_recover_and_check(fixture, &spec, crash_round);
            }
        }
    }

    /// The drifting fixture's crash matrix brackets the change point: killed
    /// one round before it, exactly on it, and at the horizon's edge, the
    /// recovered tenant must cross (or have crossed) the change point itself
    /// and still match the fixture — drift is a pure function of the
    /// recovered round counter.
    #[test]
    fn killed_drifting_engines_recover_across_the_change_point() {
        let spec = drift_scenario();
        let change = DRIFT_CHANGE_ROUND as usize;
        for crash_round in [1, change - 1, change, DRIFT_HORIZON - 1] {
            crash_recover_and_check("drift_cts", &spec, crash_round);
        }
    }

    /// Mid-log corruption is *not* a torn tail: a complete WAL frame whose
    /// CRC no longer matches must fail recovery loudly instead of silently
    /// truncating acknowledged work.
    #[test]
    fn corrupted_wal_frames_fail_recovery_loudly() {
        let dir = DataDir::new("crc");
        let (fixture, spec) = golden_specs().remove(0);
        let mut recorder = RegretRecorder::from_scenario(&spec);
        let engine = ServeEngine::start(dir.engine_config());
        engine
            .register_tenant_spec(&RegisterTenantSpec::new(fixture, spec))
            .expect("register from spec");
        serve_rounds(&engine, fixture, 20, &mut recorder);
        kill(engine);

        let shard_dir = dir.0.join("shard-0");
        let wal = std::fs::read_dir(&shard_dir)
            .expect("shard dir exists")
            .filter_map(|e| e.ok().map(|e| e.path()))
            .find(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
            })
            .expect("shard WAL exists");
        let mut bytes = std::fs::read(&wal).expect("read WAL");
        assert!(bytes.len() > 64, "WAL unexpectedly small");
        // Flip one payload byte inside the first record — a complete frame,
        // nowhere near the tail.
        bytes[40] ^= 0x01;
        std::fs::write(&wal, &bytes).expect("write corrupted WAL");

        let err = ServeEngine::try_start(dir.engine_config())
            .err()
            .expect("recovery over a corrupt log must fail");
        match &err {
            ServeError::Store(message) => assert!(
                message.contains("corrupt") || message.contains("store"),
                "unexpected store error text: {message}"
            ),
            other => panic!("expected ServeError::Store, got {other:?}"),
        }
    }

    /// Recovery replays the log to rebuild tenants and nothing else: a
    /// recovered shard has traced no replayed mutation, counted no replayed
    /// command, timed no replayed decide or feedback, and its store reports
    /// exactly the records the killed engine wrote. The log covers every
    /// record kind that replays through a mutation: register, decide,
    /// feedback (with threshold-triggered flushes), explicit flush, drain.
    #[test]
    fn recovery_has_no_observable_side_effects() {
        const TENANTS: usize = 3;
        const CAP: usize = 1;
        let dir = DataDir::new("quiet");
        let config = || {
            EngineConfig::new(1)
                .with_trace_capacity(1 << 12)
                .with_store(StoreConfig::new(&dir.0).with_resident_cap(CAP))
        };
        let first = ServeEngine::start(config());
        let (_, mut spec) = golden_specs().remove(0);
        spec.feedback = netband::spec::FeedbackSpec::Batched { max_pending: 2 };
        let ids: Vec<String> = (0..TENANTS).map(|i| format!("quiet-{i}")).collect();
        for id in &ids {
            first
                .register_tenant_spec(&RegisterTenantSpec::new(id, spec.clone()))
                .expect("register from spec");
        }
        for id in &ids {
            serve_rounds(&first, id, 5, &mut RegretRecorder::from_scenario(&spec));
            first.flush(id).expect("flush");
        }
        first.drain().expect("drain");
        let flushes = first
            .trace()
            .expect("trace")
            .shards
            .iter()
            .flatten()
            .filter(|e| matches!(e.kind, TraceKind::FlushApplied { .. }))
            .count();
        assert!(flushes > 0, "no threshold-triggered flush reached the log");
        let written = first
            .store_metrics()
            .expect("store metrics")
            .expect("engine has a store");
        assert_eq!(written.compactions, 0, "the whole run must stay in one WAL");
        kill(first);

        let second = ServeEngine::try_start(config()).expect("recover from disk");
        let trace = second.trace().expect("trace");
        let kinds: Vec<TraceKind> = trace.shards[0].iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![TraceKind::TenantEvicted; TENANTS - CAP],
            "recovery traced more than the boot-time evictions"
        );
        let report = second.metrics().expect("metrics");
        let shard = &report.shards[0];
        // The trace drain and this scrape are the only commands served.
        assert_eq!(shard.commands, 2);
        assert_eq!(shard.rejected, 0);
        assert_eq!(shard.decide_latency.count(), 0);
        assert_eq!(shard.feedback_latency.count(), 0);
        let store = second
            .store_metrics()
            .expect("store metrics")
            .expect("engine has a store");
        assert_eq!(store.recovered_records, written.appends);
        assert_eq!(store.recovered_tenants, 0, "no snapshot was committed");
        second.shutdown();
    }

    // ===== the disk eviction tier ===========================================

    /// 64 tenants on a 4-shard engine whose resident cap (8 per shard) is
    /// half its tenant load, under interleaved round-robin traffic: every
    /// decision and the final telemetry must be bit-exact against an
    /// uncapped, store-less reference engine, and the trace ring must show
    /// the evicted/rehydrated churn that made that possible.
    #[test]
    fn eviction_tier_is_bit_exact_against_an_uncapped_reference() {
        let dir = DataDir::new("evict");
        let (_, base) = golden_specs().remove(0);
        let capped = ServeEngine::start(
            EngineConfig::new(4)
                .with_trace_capacity(1 << 16)
                .with_store(StoreConfig::new(&dir.0).with_resident_cap(8)),
        );
        let reference = ServeEngine::start(EngineConfig::new(4));
        let ids: Vec<String> = (0..64).map(|i| format!("tenant-{i:02}")).collect();
        for (i, id) in ids.iter().enumerate() {
            let mut spec = base.clone();
            spec.seed = spec.seed.wrapping_add(i as u64); // distinct reward streams
            for engine in [&capped, &reference] {
                engine
                    .register_tenant_spec(&RegisterTenantSpec::new(id, spec.clone()))
                    .expect("register from spec");
            }
        }

        for _ in 0..30 {
            for id in &ids {
                let a = capped.decide(id).expect("capped decide");
                let b = reference.decide(id).expect("reference decide");
                assert_eq!(a.round, b.round, "{id}: round skew");
                assert_eq!(a.decision, b.decision, "{id}: decision diverged");
                assert_eq!(
                    a.reward.to_bits(),
                    b.reward.to_bits(),
                    "{id}: reward diverged at round {}",
                    a.round
                );
                let ea = a.feedback.expect("echoed feedback");
                let eb = b.feedback.expect("echoed feedback");
                capped.feedback(id, a.round, ea).expect("capped feedback");
                reference
                    .feedback(id, b.round, eb)
                    .expect("reference feedback");
            }
        }

        // Telemetry parity, floats compared as bit patterns.
        let ta = capped.telemetry_all().expect("capped telemetry");
        let tb = reference.telemetry_all().expect("reference telemetry");
        assert_eq!(ta.len(), tb.len());
        for (x, y) in ta.iter().zip(&tb) {
            assert_eq!(x, y, "telemetry diverged for {}", x.id);
            assert_eq!(
                x.total_reward.to_bits(),
                y.total_reward.to_bits(),
                "{}",
                x.id
            );
            assert_eq!(
                x.optimal_reward.to_bits(),
                y.optimal_reward.to_bits(),
                "{}",
                x.id
            );
            let means: Vec<u64> = x.arm_means.iter().map(|m| m.to_bits()).collect();
            let expected: Vec<u64> = y.arm_means.iter().map(|m| m.to_bits()).collect();
            assert_eq!(means, expected, "{}: estimator bits diverged", x.id);
        }

        // The tier actually churned, and the churn is observable: counters…
        let store = capped
            .store_metrics()
            .expect("store metrics")
            .expect("engine has a store");
        assert!(store.evictions > 0, "no evictions under a halved cap");
        assert!(store.rehydrations > 0, "no rehydrations under churn");
        // …and paired trace events.
        let trace = capped.trace().expect("trace");
        let mut evicted: HashSet<String> = HashSet::new();
        let mut rehydrated: HashSet<String> = HashSet::new();
        for event in trace.shards.iter().flatten() {
            match event.kind {
                TraceKind::TenantEvicted => {
                    evicted.insert(event.tenant.as_str().to_owned());
                }
                TraceKind::TenantRehydrated => {
                    assert!(
                        evicted.contains(event.tenant.as_str()),
                        "{} rehydrated before ever being evicted",
                        event.tenant
                    );
                    rehydrated.insert(event.tenant.as_str().to_owned());
                }
                _ => {}
            }
        }
        assert!(!rehydrated.is_empty(), "no evicted/rehydrated pairs traced");
        capped.shutdown();
        reference.shutdown();
    }

    /// Serves window `w` on both engines: one `decide_many_mixed` over every
    /// tenant (rotated start, 1–3 decides each), then one `feedback_many` per
    /// tenant with its echoed events. Every reply must match bit for bit.
    fn serve_window(capped: &ServeEngine, reference: &ServeEngine, ids: &[String], w: usize) {
        let window: Vec<(&str, usize)> = (0..ids.len())
            .map(|k| {
                let i = (k + w) % ids.len();
                (ids[i].as_str(), 1 + (i + w) % 3)
            })
            .collect();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        capped
            .client()
            .decide_many_mixed(window.iter().copied(), &mut a)
            .expect("capped window");
        reference
            .client()
            .decide_many_mixed(window.iter().copied(), &mut b)
            .expect("reference window");
        assert_eq!(a.len(), b.len());
        let mut slots = a.into_iter().zip(b);
        for &(id, n) in &window {
            let mut events = Vec::with_capacity(n);
            for (x, y) in slots.by_ref().take(n) {
                let (x, y) = (x.expect("capped decide"), y.expect("reference decide"));
                assert_eq!(x.round, y.round, "{id}: round skew in window {w}");
                assert_eq!(x.decision, y.decision, "{id}: decision diverged");
                assert_eq!(
                    x.reward.to_bits(),
                    y.reward.to_bits(),
                    "{id}: reward diverged at round {}",
                    x.round
                );
                events.push((x.round, x.feedback.expect("echoed feedback")));
            }
            capped
                .client()
                .feedback_many(id, events.clone())
                .expect("capped feedback");
            reference
                .client()
                .feedback_many(id, events)
                .expect("reference feedback");
        }
    }

    /// Windowed traffic on a capped durable engine, killed partway through
    /// the horizon: mixed decide windows span evicted tenants, so tenants
    /// are rehydrated partway through a window and the WAL carries
    /// multi-decide records. After recovery the run finishes, and every
    /// decision, reward and the final telemetry must match an uncapped
    /// in-memory engine given the same windows, bit for bit.
    #[test]
    fn windowed_durable_serving_recovers_bit_exact_after_a_kill() {
        const WINDOWS: usize = 16;
        const KILL_AFTER: usize = 7;
        let dir = DataDir::new("windows");
        let config = || {
            EngineConfig::new(2).with_store(
                StoreConfig::new(&dir.0)
                    .with_resident_cap(2)
                    .with_compact_every(97),
            )
        };
        let reference = ServeEngine::start(EngineConfig::new(2));
        let capped = ServeEngine::start(config());
        let specs = golden_specs();
        let ids: Vec<String> = (0..12).map(|i| format!("tenant-{i:02}")).collect();
        for (i, id) in ids.iter().enumerate() {
            let mut spec = specs[i % specs.len()].1.clone();
            spec.seed = spec.seed.wrapping_add(i as u64);
            for engine in [&capped, &reference] {
                engine
                    .register_tenant_spec(&RegisterTenantSpec::new(id, spec.clone()))
                    .expect("register from spec");
            }
        }

        for w in 0..KILL_AFTER {
            serve_window(&capped, &reference, &ids, w);
        }
        let store = capped
            .store_metrics()
            .expect("store metrics")
            .expect("engine has a store");
        assert!(
            store.rehydrations > 0,
            "no window spanned an evicted tenant"
        );
        kill(capped);

        let capped = ServeEngine::try_start(config()).expect("recover from disk");
        for w in KILL_AFTER..WINDOWS {
            serve_window(&capped, &reference, &ids, w);
        }
        capped.drain().expect("capped drain");
        reference.drain().expect("reference drain");
        let ta = capped.telemetry_all().expect("capped telemetry");
        let tb = reference.telemetry_all().expect("reference telemetry");
        assert_eq!(ta.len(), ids.len());
        for (x, y) in ta.iter().zip(&tb) {
            assert_eq!(x, y, "telemetry diverged for {}", x.id);
            let bits = |t: &TenantTelemetry| -> Vec<u64> {
                [t.total_reward, t.optimal_reward]
                    .into_iter()
                    .chain(t.arm_means.iter().copied())
                    .map(f64::to_bits)
                    .collect()
            };
            assert_eq!(bits(x), bits(y), "{}: float bits diverged", x.id);
        }
        capped.shutdown();
        reference.shutdown();
    }

    /// The durable-store counters reach the Prometheus-style exposition only
    /// when the engine actually has a store: a durable scrape carries the
    /// `netband_store_*` families with live values, an in-memory scrape
    /// carries none — dashboards can tell "no persistence" from "idle".
    #[test]
    fn store_counters_reach_the_exposition_only_when_durable() {
        use netband::net::render_metrics;
        use netband::obs::ExpositionLine;

        fn store_samples(engine: &ServeEngine) -> Vec<(String, f64)> {
            let stats = NetStats::new();
            let text = render_metrics(engine, &stats).expect("render exposition");
            netband::obs::parse_exposition(&text)
                .expect("exposition parses")
                .into_iter()
                .filter_map(|line| match line {
                    ExpositionLine::Sample { name, value, .. }
                        if name.starts_with("netband_store_") =>
                    {
                        Some((name, value))
                    }
                    _ => None,
                })
                .collect()
        }

        let dir = DataDir::new("scrape");
        let (fixture, spec) = golden_specs().remove(0);
        let durable = ServeEngine::start(dir.engine_config());
        durable
            .register_tenant_spec(&RegisterTenantSpec::new(fixture, spec.clone()))
            .expect("register from spec");
        serve_rounds(
            &durable,
            fixture,
            8,
            &mut RegretRecorder::from_scenario(&spec),
        );

        let samples = store_samples(&durable);
        for family in [
            "netband_store_wal_appends_total",
            "netband_store_fsyncs_total",
            "netband_store_wal_bytes",
            "netband_store_compactions_total",
            "netband_store_evictions_total",
            "netband_store_rehydrations_total",
            "netband_store_recovered_records_total",
            "netband_store_recovered_tenants_total",
        ] {
            assert!(
                samples.iter().any(|(name, _)| name == family),
                "{family} missing from the durable scrape"
            );
        }
        let appends = samples
            .iter()
            .find(|(name, _)| name == "netband_store_wal_appends_total")
            .map(|(_, value)| *value)
            .unwrap();
        // register + 8 × (decide + feedback) = 17 logged mutations.
        assert_eq!(appends, 17.0, "WAL append counter out of step");
        durable.shutdown();

        let in_memory = ServeEngine::start(EngineConfig::new(1));
        assert!(
            store_samples(&in_memory).is_empty(),
            "in-memory engines must not expose netband_store_* families"
        );
        in_memory.shutdown();
    }
}
