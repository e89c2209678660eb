//! Golden-trace equivalence suite.
//!
//! These tests pin the *exact* per-round behaviour of the four DFL policies on
//! a fixed Erdős–Rényi instance: every realised-regret and pseudo-regret value
//! of a seeded run is committed (as `f64` bit patterns, so the comparison is
//! bit-exact) under `tests/fixtures/`. Any refactor of the graph layout, the
//! estimators, the environment feedback path, or the simulation runners must
//! reproduce these traces bit for bit — floating-point summation order, RNG
//! stream consumption, and argmax tie-breaking are all part of the contract.
//!
//! The fixtures were generated from the map/Vec-based seed implementation and
//! gate the flat CSR hot-path core: if a "fast path" changes any of these bits
//! it is not the same algorithm any more. The serving engine is held to the
//! same fixtures by `tests/serve_equivalence.rs`, through the shared machinery
//! in `tests/common/mod.rs`.
//!
//! Regenerate (only when the semantics are *intentionally* changed) with:
//!
//! ```text
//! NETBAND_REGEN_GOLDEN=1 cargo test --test golden_traces
//! ```

mod common;

use common::{
    check_golden, cso_family, csr_family, drift_scenarios, fixture_instance, COMB_HORIZON,
    RUN_SEED, SINGLE_HORIZON,
};
use netband::prelude::*;

// ----- the four golden runs ------------------------------------------------

fn run_golden_sso() -> RunResult {
    let bandit = fixture_instance();
    let mut policy = DflSso::new(bandit.graph().clone());
    run_single(
        &bandit,
        &mut policy,
        SingleScenario::SideObservation,
        SINGLE_HORIZON,
        RUN_SEED,
    )
}

fn run_golden_ssr() -> RunResult {
    let bandit = fixture_instance();
    let mut policy = DflSsr::new(bandit.graph().clone());
    run_single(
        &bandit,
        &mut policy,
        SingleScenario::SideReward,
        SINGLE_HORIZON,
        RUN_SEED,
    )
}

fn run_golden_cso() -> RunResult {
    let bandit = fixture_instance();
    let family = cso_family();
    let strategies = family
        .enumerate(bandit.graph())
        .expect("fixture family is enumerable");
    let mut policy = DflCso::from_strategies(bandit.graph(), strategies);
    run_combinatorial(
        &bandit,
        &family,
        &mut policy,
        CombinatorialScenario::SideObservation,
        COMB_HORIZON,
        RUN_SEED,
    )
    .expect("golden CSO run is valid")
}

fn run_golden_csr() -> RunResult {
    let bandit = fixture_instance();
    let family = csr_family();
    let mut policy = DflCsr::new(bandit.graph().clone(), family.clone());
    run_combinatorial(
        &bandit,
        &family,
        &mut policy,
        CombinatorialScenario::SideReward,
        COMB_HORIZON,
        RUN_SEED,
    )
    .expect("golden CSR run is valid")
}

// ----- harness -------------------------------------------------------------

#[test]
fn golden_trace_dfl_sso() {
    check_golden("dfl_sso", run_golden_sso());
}

#[test]
fn golden_trace_dfl_ssr() {
    check_golden("dfl_ssr", run_golden_ssr());
}

#[test]
fn golden_trace_dfl_cso() {
    check_golden("dfl_cso", run_golden_cso());
}

#[test]
fn golden_trace_dfl_csr() {
    check_golden("dfl_csr", run_golden_csr());
}

/// The drifting golden runs: the committed scenario documents (gradual
/// drift, one change point, and churn for the side-reward pair) through
/// `run_spec`, scored against the dynamic oracle. The serving engine is held
/// to the same fixtures by `tests/serve_equivalence.rs`.
fn check_drift_golden(name: &str) {
    let (_, spec) = drift_scenarios()
        .into_iter()
        .find(|(fixture, _)| *fixture == name)
        .expect("known drift fixture");
    check_golden(name, run_spec(&spec).expect("drift scenario runs"));
}

#[test]
fn golden_trace_drift_cts() {
    check_drift_golden("drift_cts");
}

#[test]
fn golden_trace_drift_ssr() {
    check_drift_golden("drift_ssr");
}

#[test]
fn golden_trace_drift_csr() {
    check_drift_golden("drift_csr");
}

/// Golden runs are themselves deterministic: running one twice in-process must
/// give identical results (guards against hidden global state in policies or
/// the environment).
#[test]
fn golden_runs_are_reproducible_in_process() {
    let a = run_golden_sso();
    let b = run_golden_sso();
    assert_eq!(a, b);
    let c = run_golden_csr();
    let d = run_golden_csr();
    assert_eq!(c, d);
}
