//! # netband-net — a real network front end for `netband-serve`
//!
//! `netband-serve` hosts multi-tenant bandit policies behind an in-process
//! API; this crate puts a socket in front of it. Everything is `std::net` +
//! `std::thread` — no async runtime, no protocol library, no new
//! dependencies — because the whole protocol is two small pieces:
//!
//! * **Framing** ([`frame`]): 4-byte big-endian length prefix + UTF-8 JSON
//!   payload, with a hard size cap enforced before buffering.
//! * **Documents** (`netband_spec::wire`): strict request/response JSON
//!   through the same hand-rolled codec as the scenario specs, so rewards
//!   cross the wire bit-exactly and typos fail loudly.
//!
//! ```text
//!  NetClient ──frame──► TCP ──► NetServer ── one thread per connection
//!                                   │  try_decide_many / try_feedback_many
//!                                   ▼            (admission control)
//!                              ServeEngine ── bounded shard queues
//! ```
//!
//! One request frame maps to one response frame, in order. A `decide_many`
//! frame is served by **one** batched engine command (the zero-allocation
//! path), and a full shard queue surfaces as an `overloaded` error frame —
//! the remote client owns the retry, the server never parks a connection on
//! a saturated queue.
//!
//! Binaries: `netband_server` (serve a fleet over TCP) and `netband_loadgen`
//! (a front-door canary: one fixed cell of decides over two connections that
//! fails on a protocol error or a throughput below 5k decides/s).
//! The golden-trace equivalence suite (`tests/net_equivalence.rs` at the
//! workspace root) pins a TCP client's decisions and regret to the committed
//! DFL traces **f64-bit-exactly**.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod frame;
pub mod obs;
pub mod proto;
pub mod server;

pub use client::{NetClient, NetError};
pub use frame::{read_frame, write_frame, FrameError, MAX_FRAME_BYTES};
pub use obs::{render_metrics, NetStats, ObsServer};
pub use server::{NetServer, ServerConfig};
