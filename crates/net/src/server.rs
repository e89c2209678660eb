//! The TCP server: accept loop, per-connection handler threads, admission
//! control.
//!
//! One connection = one OS thread running a strict request/response loop (no
//! pipelining: the `n`-th response answers the `n`-th request). The handler
//! owns a [`ServeClient`], so every [`WireRequest::DecideMany`] frame is
//! **one** batched `decide_many` on the engine — the zero-allocation
//! steady-state path — never `count` per-call round trips.
//!
//! ## Overload semantics
//!
//! The handler uses the client's *non-blocking* admission paths
//! (`try_decide_many` / `try_feedback_many`). When the tenant's shard queue
//! is full the engine returns [`ServeError::Overloaded`] without enqueueing
//! anything, and the connection answers with an
//! [`WireErrorCode::Overloaded`] error frame instead of parking the thread on
//! a full queue. A slow engine therefore degrades into explicit, bounded
//! rejections the remote client can retry — not into an unbounded pile of
//! blocked connections. Because each connection handles one frame at a time,
//! per-connection inflight is structurally bounded at one request.

use std::io::{self, BufReader, BufWriter};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
// Relaxed counter bumps only — ordering is irrelevant for monotonic stats.
use std::sync::atomic::Ordering::Relaxed;
use std::thread;

use netband_serve::api::RegisterTenantSpec;
use netband_serve::api::{DecideReply, ServeError};
use netband_serve::{ServeClient, ServeEngine};
use netband_spec::json::parse;
use netband_spec::wire::{request_from_json, WireErrorCode, WireRequest, WireResponse};

use crate::frame::{read_frame, write_frame, FrameError, MAX_FRAME_BYTES};
use crate::obs::NetStats;
use crate::proto::{
    error_to_wire, event_from_wire, metrics_to_wire, reply_to_wire, telemetry_to_wire,
};

/// Server knobs. The defaults are deliberate: frames are capped well below
/// anything that could exhaust memory, batches well below anything that could
/// monopolise a shard.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum frame payload size in bytes (default [`MAX_FRAME_BYTES`]).
    /// Oversized frames draw a `too_large` error and close the connection
    /// (the stream is out of sync once a frame is refused unread).
    pub max_frame_bytes: usize,
    /// Maximum `count` of a decide batch and maximum events per feedback
    /// window (default 4096). Larger requests draw a `too_large` error but
    /// keep the connection open — the frame itself was well-formed.
    pub max_batch: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_frame_bytes: MAX_FRAME_BYTES,
            max_batch: 4096,
        }
    }
}

/// A running TCP front end over a shared [`ServeEngine`].
///
/// Dropping the server (or calling [`NetServer::shutdown`]) stops the accept
/// loop and closes live connections; the engine itself is left running —
/// it belongs to whoever holds the other `Arc` clones.
pub struct NetServer {
    engine: Arc<ServeEngine>,
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_handle: Option<thread::JoinHandle<()>>,
    shared: Arc<ConnectionRegistry>,
    stats: Arc<NetStats>,
}

/// Live-connection registry shared with the accept loop: streams so shutdown
/// can unblock reads, handles so shutdown can join the handler threads.
#[derive(Default)]
struct ConnectionRegistry {
    streams: Mutex<Vec<TcpStream>>,
    handlers: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
    /// accepting connections against `engine`.
    pub fn bind(
        engine: Arc<ServeEngine>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(ConnectionRegistry::default());
        let stats = Arc::new(NetStats::new());
        let accept_handle = {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            let shared = Arc::clone(&shared);
            let stats = Arc::clone(&stats);
            thread::Builder::new()
                .name("netband-net-accept".into())
                .spawn(move || accept_loop(listener, engine, config, stop, shared, stats))
                .expect("spawn accept thread")
        };
        Ok(NetServer {
            engine,
            local_addr,
            stop,
            accept_handle: Some(accept_handle),
            shared,
            stats,
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The engine this server fronts.
    pub fn engine(&self) -> &ServeEngine {
        &self.engine
    }

    /// The server's transport counters (shared with the scrape endpoint).
    pub fn stats(&self) -> &Arc<NetStats> {
        &self.stats
    }

    /// Stops accepting, closes live connections, joins all handler threads.
    /// The engine keeps running.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_handle.take() {
            // The accept loop blocks in `accept`; one connection wakes it to
            // see `stop`. A listener bound to the unspecified address is
            // reached through loopback.
            let mut wake = self.local_addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            let _ = TcpStream::connect(wake);
            let _ = handle.join();
        }
        if let Ok(streams) = self.shared.streams.lock() {
            for stream in streams.iter() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        let handlers = {
            let mut guard = self.shared.handlers.lock().expect("handler registry");
            std::mem::take(&mut *guard)
        };
        for handle in handlers {
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

fn accept_loop(
    listener: TcpListener,
    engine: Arc<ServeEngine>,
    config: ServerConfig,
    stop: Arc<AtomicBool>,
    shared: Arc<ConnectionRegistry>,
    stats: Arc<NetStats>,
) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        // A failed accept (e.g. the peer reset before it completed) costs
        // only that connection.
        let Ok(stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        stats.connections_accepted.fetch_add(1, Relaxed);
        if let Ok(mut streams) = shared.streams.lock() {
            if let Ok(clone) = stream.try_clone() {
                streams.push(clone);
            }
        }
        let engine = Arc::clone(&engine);
        let config = config.clone();
        let stop = Arc::clone(&stop);
        let stats = Arc::clone(&stats);
        let handle = thread::Builder::new()
            .name("netband-net-conn".into())
            .spawn(move || connection_loop(stream, &engine, &config, &stop, &stats))
            .expect("spawn connection thread");
        if let Ok(mut handlers) = shared.handlers.lock() {
            handlers.push(handle);
        }
    }
}

fn connection_loop(
    stream: TcpStream,
    engine: &ServeEngine,
    config: &ServerConfig,
    stop: &AtomicBool,
    stats: &NetStats,
) {
    let reader_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    stats.connections_active.fetch_add(1, Relaxed);
    // Decrement on every exit path, including panics in the handler.
    let _active = DecrementOnDrop(&stats.connections_active);
    let mut reader = BufReader::new(reader_stream);
    let mut writer = BufWriter::new(stream);
    let mut client = engine.client();
    let mut scratch: Vec<Result<DecideReply, ServeError>> = Vec::new();
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let text = match read_frame(&mut reader, config.max_frame_bytes) {
            Ok(Some(text)) => text,
            Ok(None) => return, // peer closed cleanly
            Err(FrameError::TooLarge { len, max }) => {
                // The refused payload is still in the pipe — the stream is
                // unrecoverable. Explain, then close.
                let response = WireResponse::Error {
                    code: WireErrorCode::TooLarge,
                    message: format!("frame of {len} bytes exceeds the {max}-byte cap"),
                };
                let _ = write_frame(&mut writer, &response.to_json_text());
                return;
            }
            Err(_) => return, // reset, truncated frame, or shutdown kick
        };
        stats.frames_in.fetch_add(1, Relaxed);
        stats.bytes_in.fetch_add(text.len() as u64, Relaxed);
        let response = handle_request(engine, &mut client, &mut scratch, config, &text);
        match &response {
            WireResponse::Error {
                code: WireErrorCode::Protocol,
                ..
            } => {
                stats.decode_errors.fetch_add(1, Relaxed);
            }
            WireResponse::Error {
                code: WireErrorCode::Overloaded,
                ..
            } => {
                stats.overload_rejections.fetch_add(1, Relaxed);
            }
            _ => {}
        }
        let reply_text = response.to_json_text();
        if write_frame(&mut writer, &reply_text).is_err() {
            return;
        }
        stats.frames_out.fetch_add(1, Relaxed);
        stats.bytes_out.fetch_add(reply_text.len() as u64, Relaxed);
    }
}

/// Decrements the wrapped gauge when dropped (connection-active tracking).
struct DecrementOnDrop<'a>(&'a std::sync::atomic::AtomicU64);

impl Drop for DecrementOnDrop<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Relaxed);
    }
}

/// Serves one request document. Infallible by construction: every failure
/// mode becomes an error *response*.
fn handle_request(
    engine: &ServeEngine,
    client: &mut ServeClient<'_>,
    scratch: &mut Vec<Result<DecideReply, ServeError>>,
    config: &ServerConfig,
    text: &str,
) -> WireResponse {
    let request = match parse(text).and_then(|v| request_from_json(&v)) {
        Ok(request) => request,
        Err(e) => {
            return WireResponse::Error {
                code: WireErrorCode::Protocol,
                message: format!("invalid request document: {e}"),
            }
        }
    };
    match request {
        WireRequest::DecideMany { tenant, count } => {
            if count == 0 {
                return WireResponse::Error {
                    code: WireErrorCode::Invalid,
                    message: "decide_many count must be at least 1".into(),
                };
            }
            if count > config.max_batch {
                return WireResponse::Error {
                    code: WireErrorCode::TooLarge,
                    message: format!(
                        "decide_many count {count} exceeds the server's max_batch {}",
                        config.max_batch
                    ),
                };
            }
            if let Err(e) = client.try_decide_many(&tenant, count as usize, scratch) {
                let (code, message) = error_to_wire(&e);
                return WireResponse::Error { code, message };
            }
            let mut replies = Vec::with_capacity(scratch.len());
            for entry in scratch.iter() {
                match entry {
                    Ok(reply) => replies.push(reply_to_wire(reply)),
                    Err(e) => {
                        let (code, message) = error_to_wire(e);
                        return WireResponse::Error { code, message };
                    }
                }
            }
            WireResponse::Decisions { tenant, replies }
        }
        WireRequest::FeedbackMany { tenant, events } => {
            if events.len() as u64 > u64::from(config.max_batch) {
                return WireResponse::Error {
                    code: WireErrorCode::TooLarge,
                    message: format!(
                        "feedback window of {} events exceeds the server's max_batch {}",
                        events.len(),
                        config.max_batch
                    ),
                };
            }
            let window = events
                .into_iter()
                .map(|f| (f.round, event_from_wire(f.event)));
            match client.try_feedback_many(&tenant, window) {
                Ok(count) => WireResponse::Accepted {
                    count: count as u64,
                },
                Err(e) => {
                    let (code, message) = error_to_wire(&e);
                    WireResponse::Error { code, message }
                }
            }
        }
        WireRequest::RegisterTenant { id, scenario } => {
            match engine.register_tenant_spec(&RegisterTenantSpec::new(id, *scenario)) {
                Ok(()) => WireResponse::Ok,
                Err(e) => {
                    let (code, message) = error_to_wire(&e);
                    WireResponse::Error { code, message }
                }
            }
        }
        WireRequest::Metrics => match engine.metrics() {
            Ok(report) => WireResponse::Metrics(metrics_to_wire(&report)),
            Err(e) => {
                let (code, message) = error_to_wire(&e);
                WireResponse::Error { code, message }
            }
        },
        WireRequest::Telemetry { tenant } => match engine.telemetry(&tenant) {
            Ok(telemetry) => WireResponse::Telemetry(Box::new(telemetry_to_wire(&telemetry))),
            Err(e) => {
                let (code, message) = error_to_wire(&e);
                WireResponse::Error { code, message }
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;
    use std::time::Duration;

    use super::*;
    use crate::NetClient;

    /// Runs `shutdown` on another thread and fails if it has not returned
    /// within a generous bound (a wedged accept would hang it forever).
    fn assert_shutdown_returns(server: NetServer) {
        let (done, finished) = mpsc::channel();
        thread::spawn(move || {
            server.shutdown();
            let _ = done.send(());
        });
        finished
            .recv_timeout(Duration::from_secs(10))
            .expect("shutdown returns");
    }

    fn bind() -> NetServer {
        let engine = Arc::new(ServeEngine::with_shards(1));
        NetServer::bind(engine, "127.0.0.1:0", ServerConfig::default()).expect("bind")
    }

    #[test]
    fn shutdown_without_a_client_returns() {
        assert_shutdown_returns(bind());
    }

    #[test]
    fn shutdown_after_a_served_connection_returns() {
        let server = bind();
        let mut client = NetClient::connect(server.local_addr()).expect("connect");
        client.metrics().expect("one served request");
        // The client stays connected: shutdown must close its stream too.
        assert_shutdown_returns(server);
        assert!(client.metrics().is_err(), "the connection was closed");
    }
}
