//! Shared golden-trace machinery for the integration suites.
//!
//! The committed fixtures under `tests/fixtures/golden_*.json` pin the exact
//! per-round behaviour (every float as its bit pattern) of the four DFL
//! policies on one fixed Erdős–Rényi instance. Two suites consume them:
//!
//! * `tests/golden_traces.rs` — the batch simulation runners must reproduce
//!   the fixtures (the flat-core refactor gate).
//! * `tests/serve_equivalence.rs` — a single-shard `netband-serve` engine with
//!   immediate per-decide feedback must reproduce the *same* fixtures, proving
//!   the serving subsystem is the same math as the simulator.
//!
//! A serving tenant keeps only running totals, so the serve, net, spec and
//! crash-matrix suites rebuild the per-round trace from the replies they
//! receive with a [`RegretRecorder`].
//!
//! Keeping the fixture instance, the JSON codec, and the comparison in one
//! module guarantees every suite pins the same contract.

// Each integration-test binary compiles this module independently and uses a
// different subset of it.
#![allow(dead_code)]

use std::fs;
use std::path::PathBuf;

use netband::env::DriftSchedule;
use netband::prelude::*;
use netband::sim::{step, RegretTrace};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seed of the RNG that materialises the fixture instance (graph + arms).
pub const INSTANCE_SEED: u64 = 42;
/// Seed of the reward stream of every golden run.
pub const RUN_SEED: u64 = 1007;
/// Horizon of the single-play golden runs.
pub const SINGLE_HORIZON: usize = 400;
/// Horizon of the combinatorial golden runs.
pub const COMB_HORIZON: usize = 250;
/// Arms in the fixture instance.
pub const NUM_ARMS: usize = 12;

/// The fixed Erdős–Rényi instance all golden traces run on.
pub fn fixture_instance() -> NetworkedBandit {
    let mut rng = StdRng::seed_from_u64(INSTANCE_SEED);
    let graph = generators::erdos_renyi(NUM_ARMS, 0.35, &mut rng);
    let arms = ArmSet::random_bernoulli(NUM_ARMS, &mut rng);
    NetworkedBandit::new(graph, arms).expect("fixture instance is well-formed")
}

/// The strategy family of the golden DFL-CSO run.
pub fn cso_family() -> StrategyFamily {
    StrategyFamily::independent_sets(2)
}

/// The strategy family of the golden DFL-CSR run.
pub fn csr_family() -> StrategyFamily {
    StrategyFamily::at_most_m(NUM_ARMS, 3)
}

/// Shard count for the suites whose assertions must hold at *any* shard
/// count. Tenants are shard-pinned, so serve/net behaviour may not depend on
/// how many shard workers exist; CI exercises both regimes by exporting
/// `NETBAND_TEST_SHARDS` once above `available_parallelism` and once at 1,
/// and this helper applies the override wherever a suite opts in.
pub fn test_shards(default: usize) -> usize {
    match std::env::var("NETBAND_TEST_SHARDS") {
        Ok(v) => {
            let shards: usize = v
                .trim()
                .parse()
                .unwrap_or_else(|e| panic!("NETBAND_TEST_SHARDS={v:?} is not a shard count: {e}"));
            assert!(shards >= 1, "NETBAND_TEST_SHARDS must be at least 1");
            shards
        }
        Err(_) => default,
    }
}

pub fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
}

// ----- the golden scenarios as spec documents --------------------------------
//
// Shared by `tests/spec_golden.rs` (spec pipeline ≡ hand-wired runners) and
// `tests/net_equivalence.rs` (TCP round trip ≡ in-process engine): one set of
// documents, three execution paths, all pinned to the same fixtures.

/// The fixture instance (ER graph, uniform-mean Bernoulli arms) as a
/// declarative workload document.
pub fn golden_workload(family: Option<FamilySpec>) -> WorkloadSpec {
    WorkloadSpec {
        graph: GraphSpec::ErdosRenyi {
            num_arms: NUM_ARMS,
            edge_prob: 0.35,
        },
        arms: ArmsSpec::UniformMeanBernoulli { num_arms: NUM_ARMS },
        family,
        drift: None,
        seed: INSTANCE_SEED,
    }
}

/// One golden scenario document on the fixture workload.
pub fn golden_scenario(
    name: &str,
    policy: PolicySpec,
    family: Option<FamilySpec>,
    side_bonus: SideBonus,
    horizon: usize,
) -> ScenarioSpec {
    ScenarioSpec {
        version: SPEC_VERSION,
        name: name.to_owned(),
        workload: golden_workload(family),
        policy,
        side_bonus,
        horizon,
        replications: 1,
        seed: RUN_SEED,
        feedback: FeedbackSpec::Immediate,
    }
}

/// All four golden DFL scenarios, keyed by their fixture name.
pub fn golden_specs() -> Vec<(&'static str, ScenarioSpec)> {
    vec![
        (
            "dfl_sso",
            golden_scenario(
                "golden/dfl-sso",
                PolicySpec::DflSso,
                None,
                SideBonus::Observation,
                SINGLE_HORIZON,
            ),
        ),
        (
            "dfl_ssr",
            golden_scenario(
                "golden/dfl-ssr",
                PolicySpec::DflSsr,
                None,
                SideBonus::Reward,
                SINGLE_HORIZON,
            ),
        ),
        (
            "dfl_cso",
            golden_scenario(
                "golden/dfl-cso",
                PolicySpec::DflCso,
                Some(FamilySpec::IndependentSets { max_size: 2 }),
                SideBonus::Observation,
                COMB_HORIZON,
            ),
        ),
        (
            "dfl_csr",
            golden_scenario(
                "golden/dfl-csr",
                PolicySpec::DflCsr,
                Some(FamilySpec::AtMostM { m: 3 }),
                SideBonus::Reward,
                COMB_HORIZON,
            ),
        ),
    ]
}

/// Horizon of the drifting golden run (`tests/fixtures/drift_scenario.json`).
pub const DRIFT_HORIZON: usize = 300;
/// Change-point round of the drifting golden scenario; restart tests snapshot
/// strictly before it so the restored tenant crosses the change point itself.
pub const DRIFT_CHANGE_ROUND: u64 = 150;

/// The committed drifting scenario document: a CTS-D policy on the fixture
/// workload with gradual drift plus one mid-horizon change point. One JSON
/// document drives the drifted simulation runner, a serving tenant, and the
/// restart-across-the-change-point test — all pinned to the same
/// `golden_drift_cts.json` trace.
pub fn drift_scenario() -> ScenarioSpec {
    let path = fixtures_dir().join("drift_scenario.json");
    let text = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing drift scenario {} ({e})", path.display()));
    let spec = ScenarioSpec::from_json_text(&text)
        .unwrap_or_else(|e| panic!("drift scenario document no longer parses: {e}"));
    assert_eq!(spec.horizon, DRIFT_HORIZON, "drift fixture horizon drifted");
    spec
}

// ----- per-round regret of a served tenant ----------------------------------

/// Play mode and reward model of a recorded tenant.
enum Play {
    Single(SingleScenario),
    Combinatorial(StrategyFamily, CombinatorialScenario),
}

/// Rebuilds a served tenant's per-round regret from the replies it echoed.
///
/// Each round's `(optimal − reward, optimal − mean)` is a pure function of
/// the reply's feedback and the round's (possibly drifting) optimum. The
/// recorder scores the feedback with the same `netband_sim::step` calls the
/// tenant and the batch runner make, so its trace and totals compare bit for
/// bit with the committed fixtures. Replies must be recorded in round order.
pub struct RegretRecorder {
    policy: String,
    bandit: NetworkedBandit,
    play: Play,
    /// Non-trivial drift schedule (trivial ones are dropped, as the tenant
    /// drops them) and the scratch its drifted means are written into.
    drift: Option<DriftSchedule>,
    means: Vec<f64>,
    optimal: f64,
    optimal_sum: f64,
    total_reward: f64,
    trace: RegretTrace,
}

impl RegretRecorder {
    fn new(policy: &str, bandit: NetworkedBandit, play: Play) -> Self {
        let optimal = match &play {
            Play::Single(scenario) => step::single_benchmark(&bandit, *scenario),
            Play::Combinatorial(family, scenario) => {
                step::combinatorial_benchmark(&bandit, family, *scenario)
            }
        };
        RegretRecorder {
            policy: policy.to_owned(),
            means: vec![0.0; bandit.num_arms()],
            bandit,
            play,
            drift: None,
            optimal,
            optimal_sum: 0.0,
            total_reward: 0.0,
            trace: RegretTrace::default(),
        }
    }

    /// A recorder for a single-play tenant running `policy`.
    pub fn single(policy: &str, bandit: NetworkedBandit, scenario: SingleScenario) -> Self {
        Self::new(policy, bandit, Play::Single(scenario))
    }

    /// A recorder for a combinatorial tenant running `policy`.
    pub fn combinatorial(
        policy: &str,
        bandit: NetworkedBandit,
        family: StrategyFamily,
        scenario: CombinatorialScenario,
    ) -> Self {
        Self::new(policy, bandit, Play::Combinatorial(family, scenario))
    }

    /// A recorder for a tenant registered from `spec`, drift included.
    pub fn from_scenario(spec: &ScenarioSpec) -> Self {
        let built = spec.build().expect("scenario builds");
        let play = match built.family {
            Some(family) => Play::Combinatorial(
                family,
                netband::sim::spec::combinatorial_scenario(built.side_bonus),
            ),
            None => Play::Single(netband::sim::spec::single_scenario(built.side_bonus)),
        };
        let mut recorder = Self::new(built.policy.name(), built.bandit, play);
        recorder.drift = built.drift.filter(|d| !d.is_trivial());
        recorder
    }

    /// Records one served round from its reward and echoed feedback.
    pub fn record(&mut self, round: u64, reward: f64, event: &FeedbackEvent) {
        assert_eq!(
            round,
            self.trace.len() as u64 + 1,
            "replies must be recorded in round order"
        );
        if let Some(schedule) = &self.drift {
            schedule.means_at(self.bandit.means(), round, &mut self.means);
        }
        let drifting = self.drift.is_some();
        let (optimal, (scored, mean)) = match (&self.play, event) {
            (Play::Single(scenario), FeedbackEvent::Single(fb)) if drifting => (
                step::single_benchmark_with(&self.bandit, &self.means, *scenario),
                step::score_single_with(&self.bandit, &self.means, *scenario, fb),
            ),
            (Play::Single(scenario), FeedbackEvent::Single(fb)) => (
                self.optimal,
                step::score_single(&self.bandit, *scenario, fb),
            ),
            (Play::Combinatorial(family, scenario), FeedbackEvent::Combinatorial(fb))
                if drifting =>
            {
                (
                    step::combinatorial_benchmark_with(
                        &self.bandit,
                        family,
                        &self.means,
                        *scenario,
                    ),
                    step::score_combinatorial_with(&self.means, *scenario, fb),
                )
            }
            (Play::Combinatorial(_, scenario), FeedbackEvent::Combinatorial(fb)) => (
                self.optimal,
                step::score_combinatorial(&self.bandit, *scenario, fb),
            ),
            (_, event) => panic!("feedback {event:?} does not match the tenant's play mode"),
        };
        assert_eq!(
            scored.to_bits(),
            reward.to_bits(),
            "round {round}: the reply's reward is not the score of its own feedback"
        );
        self.total_reward += reward;
        self.optimal_sum += optimal;
        self.trace.record(optimal - reward, optimal - mean);
    }

    /// Records one in-process reply; the tenant must echo its feedback.
    pub fn record_reply(&mut self, reply: &DecideReply) {
        let event = reply
            .feedback
            .as_ref()
            .expect("recorded tenants echo feedback");
        self.record(reply.round, reply.reward, event);
    }

    /// Asserts the tenant's own running totals equal the recorded ones, bit
    /// for bit.
    pub fn assert_totals(&self, telemetry: &TenantTelemetry) {
        assert_eq!(telemetry.round, self.trace.len() as u64, "{}", telemetry.id);
        assert_eq!(
            telemetry.total_reward.to_bits(),
            self.total_reward.to_bits(),
            "{}: total reward drifted from the recorded replies",
            telemetry.id
        );
        assert_eq!(
            telemetry.optimal_reward.to_bits(),
            self.optimal_sum.to_bits(),
            "{}: optimal-reward sum drifted from the recorded replies",
            telemetry.id
        );
    }

    /// The recorded run in the simulation runners' result format. A drifting
    /// run reports the horizon average of its per-round optima, as the
    /// drifted runners do.
    pub fn run_result(&self) -> RunResult {
        let horizon = self.trace.len();
        let optimal_mean = match (&self.drift, horizon) {
            (None, _) => self.optimal,
            (Some(_), 0) => 0.0,
            (Some(_), n) => self.optimal_sum / n as f64,
        };
        RunResult {
            policy: self.policy.clone(),
            horizon,
            optimal_mean,
            total_reward: self.total_reward,
            trace: self.trace.clone(),
        }
    }
}

/// A run's trace with every float captured as its exact bit pattern.
#[derive(Debug, PartialEq, Eq)]
pub struct GoldenTrace {
    pub policy: String,
    pub horizon: usize,
    pub optimal_mean_bits: u64,
    pub total_reward_bits: u64,
    pub realised_bits: Vec<u64>,
    pub pseudo_bits: Vec<u64>,
}

impl GoldenTrace {
    pub fn from_result(result: &RunResult) -> Self {
        GoldenTrace {
            policy: result.policy.clone(),
            horizon: result.horizon,
            optimal_mean_bits: result.optimal_mean.to_bits(),
            total_reward_bits: result.total_reward.to_bits(),
            realised_bits: result
                .trace
                .realised()
                .iter()
                .map(|x| x.to_bits())
                .collect(),
            pseudo_bits: result.trace.pseudo().iter().map(|x| x.to_bits()).collect(),
        }
    }

    pub fn to_json(&self) -> String {
        let join = |xs: &[u64]| {
            xs.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!(
            "{{\n  \"policy\": \"{}\",\n  \"horizon\": {},\n  \"optimal_mean_bits\": {},\n  \
             \"total_reward_bits\": {},\n  \"realised_bits\": [{}],\n  \"pseudo_bits\": [{}]\n}}\n",
            self.policy,
            self.horizon,
            self.optimal_mean_bits,
            self.total_reward_bits,
            join(&self.realised_bits),
            join(&self.pseudo_bits),
        )
    }

    pub fn from_json(text: &str) -> Self {
        GoldenTrace {
            policy: extract_string(text, "policy"),
            horizon: extract_u64(text, "horizon") as usize,
            optimal_mean_bits: extract_u64(text, "optimal_mean_bits"),
            total_reward_bits: extract_u64(text, "total_reward_bits"),
            realised_bits: extract_u64_array(text, "realised_bits"),
            pseudo_bits: extract_u64_array(text, "pseudo_bits"),
        }
    }
}

// ----- minimal JSON field extraction for the fixture files ------------------

fn field_start<'a>(text: &'a str, key: &str) -> &'a str {
    let marker = format!("\"{key}\":");
    let pos = text
        .find(&marker)
        .unwrap_or_else(|| panic!("fixture is missing key {key:?}"));
    text[pos + marker.len()..].trim_start()
}

fn extract_string(text: &str, key: &str) -> String {
    let rest = field_start(text, key);
    let rest = rest
        .strip_prefix('"')
        .unwrap_or_else(|| panic!("key {key:?} is not a string"));
    rest[..rest.find('"').expect("unterminated string")].to_owned()
}

fn extract_u64(text: &str, key: &str) -> u64 {
    let rest = field_start(text, key);
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end]
        .parse()
        .unwrap_or_else(|e| panic!("key {key:?} is not a u64: {e}"))
}

fn extract_u64_array(text: &str, key: &str) -> Vec<u64> {
    let rest = field_start(text, key);
    let rest = rest
        .strip_prefix('[')
        .unwrap_or_else(|| panic!("key {key:?} is not an array"));
    let body = &rest[..rest.find(']').expect("unterminated array")];
    body.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().expect("array element is not a u64"))
        .collect()
}

// ----- fixture comparison ----------------------------------------------------

/// Loads the committed fixture `golden_<name>.json`.
pub fn load_golden(name: &str) -> GoldenTrace {
    let path = fixtures_dir().join(format!("golden_{name}.json"));
    let text = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run `NETBAND_REGEN_GOLDEN=1 cargo test --test \
             golden_traces` to create it",
            path.display()
        )
    });
    GoldenTrace::from_json(&text)
}

/// Asserts `result` reproduces the committed fixture `golden_<name>.json`
/// bit for bit, with a per-round diagnostic on divergence.
pub fn assert_golden(name: &str, result: &RunResult) {
    let actual = GoldenTrace::from_result(result);
    let expected = load_golden(name);
    assert_eq!(
        expected.horizon, actual.horizon,
        "{name}: horizon drifted from the committed fixture"
    );
    assert_eq!(
        expected.policy, actual.policy,
        "{name}: policy name drifted from the committed fixture"
    );
    assert_eq!(
        expected.optimal_mean_bits,
        actual.optimal_mean_bits,
        "{name}: the benchmark (optimal mean) is no longer bit-identical: {} vs {}",
        f64::from_bits(expected.optimal_mean_bits),
        f64::from_bits(actual.optimal_mean_bits),
    );
    for t in 0..expected.horizon {
        assert_eq!(
            expected.realised_bits[t],
            actual.realised_bits[t],
            "{name}: realised regret diverges at round {} ({} vs {})",
            t + 1,
            f64::from_bits(expected.realised_bits[t]),
            f64::from_bits(actual.realised_bits[t]),
        );
        assert_eq!(
            expected.pseudo_bits[t],
            actual.pseudo_bits[t],
            "{name}: pseudo regret diverges at round {} ({} vs {})",
            t + 1,
            f64::from_bits(expected.pseudo_bits[t]),
            f64::from_bits(actual.pseudo_bits[t]),
        );
    }
    assert_eq!(
        expected.total_reward_bits,
        actual.total_reward_bits,
        "{name}: total reward is no longer bit-identical: {} vs {}",
        f64::from_bits(expected.total_reward_bits),
        f64::from_bits(actual.total_reward_bits),
    );
}

/// Compares `result` against the committed fixture, or regenerates the
/// fixture when `NETBAND_REGEN_GOLDEN` is set (only the batch-simulation
/// suite regenerates — the serving suite always compares).
pub fn check_golden(name: &str, result: RunResult) {
    if std::env::var_os("NETBAND_REGEN_GOLDEN").is_some() {
        let path = fixtures_dir().join(format!("golden_{name}.json"));
        fs::create_dir_all(fixtures_dir()).expect("create fixtures dir");
        fs::write(&path, GoldenTrace::from_result(&result).to_json()).expect("write fixture");
        eprintln!("regenerated {}", path.display());
        return;
    }
    assert_golden(name, &result);
}
