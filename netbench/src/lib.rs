//! # netbench — one benchmark for netband serving
//!
//! Three closed-loop workloads against the public APIs of `netband-net`,
//! `netband-serve` and `netband-store`: `tcp-sso-w32` (wire protocol over
//! loopback), `inproc-paper4` (the four paper policies in-process) and
//! `tcp-durable-evict` (TCP on a durable, resident-capped engine). An
//! untraced run reports end-to-end metrics; a traced run times the calls
//! into each layer from this package's own code and reports per-layer
//! metrics. See `README.md` next to this package for names, units and the
//! reasons behind each workload.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod host;
pub mod run;
pub mod scenarios;
pub mod spans;
pub mod stats;
pub mod store_layers;
pub mod tcp;
pub mod workload;

pub use run::{run, Metric, RunOptions, RunReport};
pub use workload::Workload;
