//! Simulation engine for networked combinatorial bandits.
//!
//! This crate replaces the unpublished simulation scripts behind Section VII of
//! the paper: it drives any policy implementing the `netband-core` traits
//! against a [`netband_env::NetworkedBandit`], charges regret according to the
//! scenario's reward model, averages over independent replications (optionally
//! in parallel), and exports the resulting curves.
//!
//! * [`runner`] — single-run drivers for the four scenarios, including the
//!   coupled driver that feeds several policies the same sample path (Fig. 3).
//! * [`step`] — the per-round step ([`World`], [`Play`]): benchmark, pull and
//!   score, shared by the runners and the `netband-serve` engine (one source
//!   of truth for the float expressions the golden traces pin).
//! * [`regret`] — per-round regret traces (realised and pseudo), cumulative and
//!   time-averaged views.
//! * [`spec`] — spec-driven entry points ([`run_spec`] / [`replicate_spec`])
//!   that build `netband-spec` [`ScenarioSpec`](netband_spec::ScenarioSpec)
//!   documents and drive them through the same runners bit-identically.
//! * [`mod@replicate`] — multi-replication averaging with crossbeam-based
//!   parallelism.
//! * [`stats`] — means, deviations, confidence intervals, downsampling.
//! * [`export`] — CSV and fixed-width table output.
//!
//! # Example
//!
//! ```
//! use netband_core::DflSso;
//! use netband_env::{ArmSet, NetworkedBandit};
//! use netband_graph::generators;
//! use netband_sim::replicate::{replicate, ReplicationConfig};
//! use netband_sim::runner::{run_single, SingleScenario};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let graph = generators::erdos_renyi(15, 0.3, &mut rng);
//! let bandit = NetworkedBandit::new(graph.clone(), ArmSet::random_bernoulli(15, &mut rng))?;
//!
//! let config = ReplicationConfig::serial(5, 42);
//! let averaged = replicate(&config, |_, seed| {
//!     let mut policy = DflSso::new(graph.clone());
//!     run_single(&bandit, &mut policy, SingleScenario::SideObservation, 500, seed)
//! });
//! assert_eq!(averaged.expected_regret.len(), 500);
//! # Ok::<(), netband_env::EnvError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod regret;
pub mod replicate;
pub mod runner;
pub mod spec;
pub mod stats;
pub mod step;
pub mod sweep;

pub use regret::RegretTrace;
pub use replicate::{replicate, AveragedRun, ReplicationConfig};
pub use runner::{
    run_combinatorial, run_combinatorial_in, run_single, run_single_coupled, run_single_in,
    CombinatorialScenario, RunResult, SingleScenario,
};
pub use spec::{replicate_spec, run_built, run_spec};
pub use step::{Play, World};
pub use sweep::Sweep;
