//! A deterministic simulator for the shard state machine.
//!
//! Each seed draws one schedule of commands and feeds it, on this one
//! thread, to two [`Shard`]s through [`Shard::apply`]: a durable shard
//! under a resident cap of 1–2 (compacting every few records on odd seeds,
//! never on even ones), and an uncapped in-memory reference. There is no
//! worker thread and no queue; a reply channel only serves as a one-slot
//! mailbox for the command's answer. The schedule mixes decide windows,
//! feedback windows delivered late and out of order (with rejected strays),
//! flushes, snapshots, evict+restore, registrations, scrapes, drains and
//! crashes across tenants of the four DFL presets and the drifting CTS
//! scenario. A crash drops the durable shard — a plain drop, which writes
//! and syncs nothing — and recovers a new one from its directory.
//!
//! Every reply, telemetry row and [`TenantMetrics`](crate::TenantMetrics)
//! list must match the reference bit for bit. They are compared through
//! their `Debug` text, which prints every `f64` round-trip exactly. This
//! generalises the hand-picked crash rounds of `tests/failure_injection.rs`
//! to whatever interleaving a seed reaches. The release build runs ten
//! times the debug seed budget and prints seeds/s.

use std::fmt::Debug;
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::mpsc::{sync_channel, SyncSender};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use netband_spec::{presets, FeedbackSpec, ScenarioSpec};
use netband_store::{StoreConfig, StoreMetrics};

use crate::api::{FeedbackEvent, FlushPolicy, ServeError};
use crate::shard::{Command, DecideRequest, FeedbackWindow, Shard};
use crate::snapshot::TenantSnapshot;
use crate::tenant::TenantSpec;

/// Seeds per run: the release build runs ten times the debug budget.
const SEEDS: u64 = if cfg!(debug_assertions) { 6 } else { 60 };
/// Commands drawn per seed (crash checks and the final scrape come on top).
const STEPS: usize = 160;
/// Trace-ring capacity of both shards (traces are not compared).
const TRACE: usize = 64;

/// The tenant scenarios: the four DFL presets at small sizes, and the
/// drifting CTS scenario of the codec fixtures.
fn scenarios() -> Vec<ScenarioSpec> {
    let drift = include_str!("../../../tests/fixtures/codec/scenario_drift_cts.json");
    vec![
        presets::paper_simulation(8, 0.4, 1),
        presets::online_advertising(8, 2, 2),
        presets::social_promotion(9, 3, 3),
        presets::channel_access(8, 2, 0.35, 4),
        ScenarioSpec::from_json_text(drift).expect("the drift fixture decodes"),
    ]
}

/// Applies a command that answers through `reply` and returns the answer.
fn ask<T>(shard: &mut Shard, command: impl FnOnce(SyncSender<T>) -> Command) -> T {
    let (reply, answer) = sync_channel(1);
    let flow = shard.apply(command(reply)).expect("no store fault");
    assert_eq!(flow, ControlFlow::Continue(()));
    answer.try_recv().expect("the command answered")
}

/// A per-seed data directory, removed on drop.
struct DataDir(PathBuf);

impl Drop for DataDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// One seed's run: the schedule's randomness, both shards, and what the
/// schedule has to work with.
struct Sim {
    seed: u64,
    step: usize,
    rng: StdRng,
    scenarios: Vec<ScenarioSpec>,
    config: StoreConfig,
    durable: Shard,
    reference: Shard,
    /// Ids registered so far, hosted or parked.
    ids: Vec<String>,
    /// Echoed feedback not yet delivered: (tenant, round, event).
    pending: Vec<(String, u64, FeedbackEvent)>,
    /// Evicted tenants' snapshots, from the durable shard and the reference.
    parked: Vec<(TenantSnapshot, TenantSnapshot)>,
    /// The durable store's counters, summed over the shard's lives.
    store: StoreMetrics,
    _dir: DataDir,
}

impl Sim {
    fn new(seed: u64) -> Sim {
        let mut rng = StdRng::seed_from_u64(seed);
        let dir = DataDir(
            std::env::temp_dir().join(format!("netband_shard_sim_{}_{seed}", std::process::id())),
        );
        std::fs::remove_dir_all(&dir.0).ok();
        let config = StoreConfig::new(&dir.0)
            .with_resident_cap(rng.gen_range(1..=2usize))
            // Odd seeds compact every few records. Even seeds never do, so
            // each crash replays the whole log and a mutation missing from
            // the log cannot hide behind a later compaction.
            .with_compact_every(if seed % 2 == 1 {
                rng.gen_range(3..=24u64)
            } else {
                u64::MAX
            })
            .with_sync_every(*[1, 8, 64].choose(&mut rng).unwrap());
        let durable = Shard::recover(&config, 0, TRACE).expect("open an empty store");
        let mut sim = Sim {
            seed,
            step: 0,
            rng,
            scenarios: scenarios(),
            config,
            durable,
            reference: Shard::new(TRACE),
            ids: Vec::new(),
            pending: Vec::new(),
            parked: Vec::new(),
            store: StoreMetrics::default(),
            _dir: dir,
        };
        for _ in 0..sim.rng.gen_range(3..=5usize) {
            sim.register();
        }
        sim
    }

    /// Fails with the seed and step when the shards disagree.
    fn same(&self, what: &str, durable: impl Debug, reference: impl Debug) {
        assert_eq!(
            format!("{durable:?}"),
            format!("{reference:?}"),
            "seed {} step {}: {what} diverged from the reference",
            self.seed,
            self.step
        );
    }

    /// Asks both shards and compares their answers.
    fn both<T: Debug>(&mut self, what: &str, command: impl Fn(SyncSender<T>) -> Command) {
        let durable = ask(&mut self.durable, &command);
        let reference = ask(&mut self.reference, &command);
        self.same(what, durable, reference);
    }

    /// A tenant id the schedule knows, or now and then one nobody hosts.
    fn pick_id(&mut self) -> String {
        match self.ids.choose(&mut self.rng) {
            Some(id) if self.rng.gen_bool(0.95) => id.clone(),
            _ => "ghost".to_owned(),
        }
    }

    /// Registers a new tenant (now and then re-registering a taken id) with
    /// a random feedback schedule and serving knobs.
    fn register(&mut self) {
        let taken = !self.ids.is_empty() && self.rng.gen_bool(0.1);
        let id = if taken {
            self.pick_id()
        } else {
            format!("t{}", self.ids.len())
        };
        let mut scenario = self.scenarios.choose(&mut self.rng).unwrap().clone();
        if self.rng.gen_bool(0.5) {
            scenario.feedback = FeedbackSpec::Batched {
                max_pending: self.rng.gen_range(1..=5),
            };
        }
        let flush_before_decide = self.rng.gen_bool(0.3);
        let closed_loop = self.rng.gen_bool(0.15);
        let spec = || {
            let spec = TenantSpec::from_scenario(id.as_str(), &scenario).expect("builds");
            let flush = FlushPolicy {
                flush_before_decide,
                ..FlushPolicy::from(scenario.feedback)
            };
            spec.with_flush(flush)
                .with_auto_feedback(closed_loop)
                .with_echo_feedback(!closed_loop)
        };
        self.both("register", |reply| Command::Create {
            spec: Box::new(spec()),
            reply,
        });
        if !taken {
            self.ids.push(id);
        }
    }

    /// A decide window of 1–4 entries, 1–4 decides each; echoed feedback
    /// joins the pending pool.
    fn decide(&mut self) {
        let window: Vec<(String, u32)> = (0..self.rng.gen_range(1..=4usize))
            .map(|_| (self.pick_id(), self.rng.gen_range(1..=4)))
            .collect();
        let command = |reply| Command::Decide {
            requests: window
                .iter()
                .map(|(tenant, count)| DecideRequest {
                    tenant: tenant.clone(),
                    count: *count,
                })
                .collect(),
            replies: Vec::new(),
            reply,
        };
        let durable = ask(&mut self.durable, command).replies;
        let reference = ask(&mut self.reference, command).replies;
        self.same("decide window", &durable, &reference);
        let tenants = window
            .iter()
            .flat_map(|(tenant, count)| std::iter::repeat(tenant).take(*count as usize));
        for (tenant, reply) in tenants.zip(reference) {
            if let Ok(reply) = reply {
                if let Some(event) = reply.feedback {
                    self.pending.push((tenant.clone(), reply.round, event));
                }
            }
        }
    }

    /// Delivers 1–6 of one tenant's pending events in random order, now and
    /// then with a stray the shards must reject (an unserved round, or a
    /// tenant nobody hosts).
    fn feedback(&mut self) {
        let tenant = self.pick_id();
        let mut window = Vec::new();
        for _ in 0..self.rng.gen_range(1..=6usize) {
            let theirs: Vec<usize> = (0..self.pending.len())
                .filter(|&i| self.pending[i].0 == tenant)
                .collect();
            let Some(&at) = theirs.choose(&mut self.rng) else {
                break;
            };
            let (_, round, event) = self.pending.swap_remove(at);
            window.push((round, event));
        }
        if self.rng.gen_bool(0.1) {
            let round = *[0, u64::MAX].choose(&mut self.rng).unwrap();
            window.push((round, FeedbackEvent::default()));
        }
        window.shuffle(&mut self.rng);
        for shard in [&mut self.durable, &mut self.reference] {
            let flow = shard.apply(Command::Feedback {
                window: FeedbackWindow {
                    tenant: tenant.clone(),
                    events: window.clone(),
                },
                recycle: None,
            });
            assert_eq!(flow, Ok(ControlFlow::Continue(())));
        }
    }

    /// Drops the durable shard mid-schedule and recovers it from disk, then
    /// scrapes both.
    fn crash(&mut self) {
        let store = ask(&mut self.durable, |reply| Command::StoreMetrics { reply });
        self.store.absorb(&store.expect("the shard is durable"));
        drop(std::mem::replace(&mut self.durable, Shard::new(TRACE)));
        self.durable = Shard::recover(&self.config, 0, TRACE)
            .unwrap_or_else(|e| panic!("seed {} step {}: {e}", self.seed, self.step));
        self.scrape();
    }

    /// The shard-wide reads: every tenant's metrics and telemetry.
    fn scrape(&mut self) {
        let metrics = |shard: &mut Shard| ask(shard, |reply| Command::Metrics { reply }).tenants;
        let (durable, reference) = (metrics(&mut self.durable), metrics(&mut self.reference));
        self.same("tenant metrics", durable, reference);
        self.both("telemetry", |reply| Command::TelemetryAll { reply });
    }

    fn step(&mut self) {
        match self.rng.gen_range(0..100u32) {
            0..=29 => self.decide(),
            30..=54 => self.feedback(),
            55..=59 => {
                let tenant = self.pick_id();
                for shard in [&mut self.durable, &mut self.reference] {
                    let flow = shard.apply(Command::Flush {
                        tenant: tenant.clone(),
                    });
                    assert_eq!(flow, Ok(ControlFlow::Continue(())));
                }
            }
            60..=63 => {
                let tenant = self.pick_id();
                self.both("snapshot", |reply| Command::Snapshot {
                    tenant: tenant.clone(),
                    reply,
                });
            }
            64..=67 => {
                let tenant = self.pick_id();
                let evict = |reply| Command::Evict {
                    tenant: tenant.clone(),
                    reply,
                };
                let durable = ask(&mut self.durable, evict);
                let reference = ask(&mut self.reference, evict);
                self.same("evicted snapshot", &durable, &reference);
                if let (Ok(d), Ok(r)) = (durable, reference) {
                    self.same("evicted tenant metrics", d.metrics(), r.metrics());
                    self.ids.retain(|id| *id != tenant);
                    self.parked.push((d, r));
                }
            }
            68..=71 if !self.parked.is_empty() => {
                let at = self.rng.gen_range(0..self.parked.len());
                let (d, r) = self.parked.swap_remove(at);
                let id = r.id().to_owned();
                let durable = ask(&mut self.durable, |reply| Command::Restore {
                    snapshot: Box::new(d),
                    reply,
                });
                let reference = ask(&mut self.reference, |reply| Command::Restore {
                    snapshot: Box::new(r),
                    reply,
                });
                self.same("restore", &durable, &reference);
                if reference.is_ok() {
                    self.ids.push(id);
                }
            }
            72..=74 => self.register(),
            75..=80 => self.scrape(),
            81..=84 => {
                let tenant = self.pick_id();
                self.both("tenant telemetry", |reply| Command::Telemetry {
                    tenant: tenant.clone(),
                    reply,
                });
            }
            85..=89 => self.both("drain", |reply| Command::Drain { reply }),
            90..=96 => self.crash(),
            _ => self.decide(),
        }
    }
}

#[test]
fn simulated_schedules_match_an_uncapped_reference() {
    let start = Instant::now();
    let mut store = StoreMetrics::default();
    for seed in 0..SEEDS {
        let mut sim = Sim::new(seed);
        for step in 0..STEPS {
            sim.step = step;
            sim.step();
        }
        sim.both("final drain", |reply| Command::Drain { reply });
        sim.crash();
        store.absorb(&sim.store);
    }
    let elapsed = start.elapsed().as_secs_f64();
    println!(
        "shard simulator: {SEEDS} seeds × {STEPS} steps in {elapsed:.2} s ({:.1} seeds/s); \
         store: {store:?}",
        SEEDS as f64 / elapsed
    );
    // The schedules reached every part of the store they claim to cover.
    assert!(store.compactions > 0 && store.evictions > 0 && store.rehydrations > 0);
    assert!(store.recovered_records > 0 && store.recovered_tenants > 0);
}

/// A store fault reaches [`Shard::apply`] as an `Err`, not as a panic inside
/// it, and the tenants still resident keep serving. Here the fault is an
/// evicted tenant whose evict file is gone when a scrape pages it back in.
#[test]
fn a_store_fault_reaches_apply_as_an_error() {
    let dir =
        DataDir(std::env::temp_dir().join(format!("netband_shard_fault_{}", std::process::id())));
    std::fs::remove_dir_all(&dir.0).ok();
    let config = StoreConfig::new(&dir.0).with_resident_cap(1);
    let mut shard = Shard::recover(&config, 0, TRACE).expect("open an empty store");
    for id in ["evicted", "resident"] {
        let spec = TenantSpec::from_scenario(id, &presets::paper_simulation(8, 0.4, 1)).unwrap();
        let admitted = ask(&mut shard, |reply| Command::Create {
            spec: Box::new(spec),
            reply,
        });
        assert_eq!(admitted, Ok(()));
    }
    let shard_dir = dir.0.join("shard-0");
    let evict_files: Vec<PathBuf> = std::fs::read_dir(&shard_dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| {
            path.file_name()
                .unwrap()
                .to_string_lossy()
                .starts_with("evict-")
        })
        .collect();
    assert_eq!(evict_files.len(), 1, "the cap of 1 evicted one tenant");
    std::fs::remove_file(&evict_files[0]).unwrap();

    let (reply, _answer) = sync_channel(1);
    match shard.apply(Command::Metrics { reply }) {
        Err(ServeError::Store(message)) => assert!(message.contains("evicted"), "{message}"),
        Err(other) => panic!("a store fault surfaced as {other}"),
        Ok(_) => panic!("a scrape over a lost evict file succeeded"),
    }
    let batch = ask(&mut shard, |reply| Command::Decide {
        requests: vec![DecideRequest {
            tenant: "resident".into(),
            count: 3,
        }],
        replies: Vec::new(),
        reply,
    });
    assert!(
        batch.replies.iter().all(Result::is_ok),
        "{:?}",
        batch.replies
    );
    let telemetry = ask(&mut shard, |reply| Command::Telemetry {
        tenant: "resident".into(),
        reply,
    });
    assert_eq!(telemetry.map(|t| t.round), Ok(3));
}
