//! The TCP side of the benchmark: the closed window loop, the traced
//! client that splits `NetClient::call` into its four calls, and the traced
//! stand-in for `NetServer`'s connection loop.

use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};

use netband_net::proto::{error_to_wire, event_from_wire, reply_to_wire};
use netband_net::{
    read_frame, render_metrics, write_frame, NetClient, NetError, NetStats, MAX_FRAME_BYTES,
};
use netband_serve::api::{DecideReply, FeedbackEvent, RegisterTenantSpec, ServeError};
use netband_serve::ServeEngine;
use netband_spec::json::parse;
use netband_spec::wire::request_from_json;
use netband_spec::{ScenarioSpec, WireErrorCode, WireFeedback, WireRequest, WireResponse};

use crate::spans::{Layer, SpanLog};
use crate::workload::{Traffic, WINDOW};

/// One request/response round trip over a connection.
pub trait Caller {
    /// Sends `request` and reads its response.
    fn call(&mut self, request: &WireRequest) -> Result<WireResponse, NetError>;
    /// Marks the start of window `id` (traced clients open a root span).
    fn begin_window(&mut self, _id: u32) {}
    /// Marks the end of the current window.
    fn end_window(&mut self) {}
}

impl Caller for NetClient {
    fn call(&mut self, request: &WireRequest) -> Result<WireResponse, NetError> {
        NetClient::call(self, request)
    }
}

/// `NetClient::call` split into encode, write, read and decode, each
/// recorded as a span under the current window.
pub struct TracedClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// The client-side spans.
    pub log: SpanLog,
    window: Option<(usize, u32)>,
    /// Index of the `read_frame` span of each call, by call sequence number
    /// (`None` for calls outside a window).
    pub reads: Vec<Option<usize>>,
}

impl TracedClient {
    /// Connects like `NetClient::connect` (`TCP_NODELAY` on).
    pub fn connect(addr: SocketAddr, epoch: Instant) -> io::Result<TracedClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TracedClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            log: SpanLog::new(epoch),
            window: None,
            reads: Vec::new(),
        })
    }

    /// Closes the connection (ending the stand-in's loop) and returns the
    /// spans with the read-span index of every call.
    pub fn finish(self) -> (SpanLog, Vec<Option<usize>>) {
        (self.log, self.reads)
    }
}

impl Caller for TracedClient {
    fn call(&mut self, request: &WireRequest) -> Result<WireResponse, NetError> {
        let Some((root, id)) = self.window else {
            self.reads.push(None);
            write_frame(&mut self.writer, &request.to_json_text())?;
            let text =
                read_frame(&mut self.reader, MAX_FRAME_BYTES)?.ok_or(NetError::ConnectionClosed)?;
            return WireResponse::from_json_text(&text).map_err(NetError::Decode);
        };
        let log = &mut self.log;
        let t = log.now();
        let text = request.to_json_text();
        log.record(Layer::ClientEncode, t, Some(root), id);
        let t = log.now();
        write_frame(&mut self.writer, &text)?;
        log.record(Layer::ClientWrite, t, Some(root), id);
        let t = log.now();
        let text =
            read_frame(&mut self.reader, MAX_FRAME_BYTES)?.ok_or(NetError::ConnectionClosed)?;
        let read = log.record(Layer::ClientRead, t, Some(root), id);
        self.reads.push(Some(read));
        let t = log.now();
        let response = WireResponse::from_json_text(&text).map_err(NetError::Decode);
        log.record(Layer::ClientDecode, t, Some(root), id);
        response
    }

    fn begin_window(&mut self, id: u32) {
        self.window = Some((self.log.open(Layer::Window, None, id), id));
    }

    fn end_window(&mut self) {
        if let Some((root, _)) = self.window.take() {
            self.log.close(root);
        }
    }
}

/// How long the stand-in waits for its one connection.
const ACCEPT_TIMEOUT: Duration = Duration::from_secs(10);

/// A traced stand-in for `NetServer`'s connection loop, serving one
/// connection until the peer closes it. It makes the same public calls in
/// the same order — `read_frame` → `parse` + `request_from_json` →
/// `ServeClient::try_*` → `proto::*` → `to_json_text` → `write_frame` — and
/// bumps the same transport counters. Feedback events are converted by
/// `event_from_wire` into a reused buffer before the engine call, where
/// `NetServer` converts them lazily inside it, so the two layers time apart.
/// Spans carry the frame sequence number in their `window` field.
pub fn stand_in_server(
    listener: TcpListener,
    engine: &ServeEngine,
    stats: &NetStats,
    epoch: Instant,
) -> io::Result<SpanLog> {
    let stream = accept_one(&listener)?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut client = engine.client();
    let mut scratch: Vec<Result<DecideReply, ServeError>> = Vec::new();
    let mut events: Vec<(u64, FeedbackEvent)> = Vec::new();
    let mut log = SpanLog::new(epoch);
    let mut frame = 0u32;
    loop {
        let t = log.now();
        let Some(text) = read_frame(&mut reader, MAX_FRAME_BYTES).map_err(io::Error::other)? else {
            return Ok(log);
        };
        log.record(Layer::ServerRead, t, None, frame);
        stats.frames_in.fetch_add(1, Relaxed);
        stats.bytes_in.fetch_add(text.len() as u64, Relaxed);

        let t = log.now();
        let request = parse(&text).and_then(|v| request_from_json(&v));
        log.record(Layer::ServerDecode, t, None, frame);
        let response = match request {
            Ok(WireRequest::DecideMany { tenant, count }) => {
                let t = log.now();
                let served = client.try_decide_many(&tenant, count as usize, &mut scratch);
                log.record(Layer::ServeDecide, t, None, frame);
                let t = log.now();
                let response = match served {
                    Ok(()) => scratch
                        .iter()
                        .map(|entry| entry.as_ref().map(reply_to_wire))
                        .collect::<Result<Vec<_>, _>>()
                        .map(|replies| WireResponse::Decisions { tenant, replies })
                        .unwrap_or_else(error_response),
                    Err(e) => error_response(&e),
                };
                log.record(Layer::Proto, t, None, frame);
                response
            }
            Ok(WireRequest::FeedbackMany {
                tenant,
                events: wire,
            }) => {
                let t = log.now();
                events.extend(
                    wire.into_iter()
                        .map(|f| (f.round, event_from_wire(f.event))),
                );
                log.record(Layer::Proto, t, None, frame);
                let t = log.now();
                let accepted = client.try_feedback_many(&tenant, events.drain(..));
                log.record(Layer::ServeFeedback, t, None, frame);
                match accepted {
                    Ok(count) => WireResponse::Accepted {
                        count: count as u64,
                    },
                    Err(e) => error_response(&e),
                }
            }
            Ok(WireRequest::RegisterTenant { id, scenario }) => {
                match engine.register_tenant_spec(&RegisterTenantSpec::new(id, *scenario)) {
                    Ok(()) => WireResponse::Ok,
                    Err(e) => error_response(&e),
                }
            }
            Ok(_) => WireResponse::Error {
                code: WireErrorCode::Invalid,
                message: "request kind not served by the benchmark stand-in".into(),
            },
            Err(e) => {
                stats.decode_errors.fetch_add(1, Relaxed);
                WireResponse::Error {
                    code: WireErrorCode::Protocol,
                    message: format!("invalid request document: {e}"),
                }
            }
        };
        if let WireResponse::Error {
            code: WireErrorCode::Overloaded,
            ..
        } = response
        {
            stats.overload_rejections.fetch_add(1, Relaxed);
        }

        let t = log.now();
        let reply_text = response.to_json_text();
        log.record(Layer::ServerEncode, t, None, frame);
        let t = log.now();
        write_frame(&mut writer, &reply_text).map_err(io::Error::other)?;
        log.record(Layer::ServerWrite, t, None, frame);
        stats.frames_out.fetch_add(1, Relaxed);
        stats.bytes_out.fetch_add(reply_text.len() as u64, Relaxed);
        frame += 1;
    }
}

fn error_response(error: &ServeError) -> WireResponse {
    let (code, message) = error_to_wire(error);
    WireResponse::Error { code, message }
}

/// Accepts one connection, giving up after [`ACCEPT_TIMEOUT`] so a client
/// that never connects cannot hang the run.
fn accept_one(listener: &TcpListener) -> io::Result<TcpStream> {
    listener.set_nonblocking(true)?;
    let deadline = Instant::now() + ACCEPT_TIMEOUT;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                return Ok(stream);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock && Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Registers every tenant over the wire.
pub fn register_all(
    client: &mut impl Caller,
    tenants: &[(String, ScenarioSpec)],
) -> Result<(), String> {
    for (id, scenario) in tenants {
        let request = WireRequest::RegisterTenant {
            id: id.clone(),
            scenario: Box::new(scenario.clone()),
        };
        match client.call(&request) {
            Ok(WireResponse::Ok) => {}
            other => return Err(format!("register {id}: {}", describe(other))),
        }
    }
    Ok(())
}

/// Scrape schedule and tracing of the durable workload's `render_metrics`
/// reads.
pub struct Scrapes<'a> {
    /// Scrape after every this many windows (`None`: never).
    pub every: Option<u32>,
    /// The transport counters the scrape renders.
    pub stats: &'a NetStats,
    /// When set, each scrape is a root span here and the store's
    /// rehydration count is read around it.
    pub log: Option<&'a mut SpanLog>,
}

/// Drives the closed loop: round-robin over `tenants`, each window one
/// `decide_many(WINDOW)` and one `feedback_many` of the echoed events. The
/// first pass over the tenants is warm-up; latencies and throughput cover
/// the rest.
pub fn drive(
    client: &mut impl Caller,
    engine: &ServeEngine,
    tenants: &[String],
    decides_per_tenant: u64,
    mut scrapes: Scrapes<'_>,
) -> Result<Traffic, String> {
    let passes = (decides_per_tenant / u64::from(WINDOW)).max(1);
    let warmup_passes = u64::from(passes > 1);
    let mut traffic = Traffic::default();
    let mut measure_start = Instant::now();
    let mut window = 0u32;
    for pass in 0..passes {
        if pass == warmup_passes {
            measure_start = Instant::now();
        }
        let measured = pass >= warmup_passes;
        for tenant in tenants {
            client.begin_window(window);
            let t = Instant::now();
            let decided = client.call(&WireRequest::DecideMany {
                tenant: tenant.clone(),
                count: WINDOW,
            });
            let decide_ns = t.elapsed().as_nanos() as u64;
            traffic.attempted += 1;
            let replies = match decided {
                Ok(WireResponse::Decisions { replies, .. }) if replies.len() == WINDOW as usize => {
                    replies
                }
                other => {
                    traffic.failed += 1;
                    return Err(format!("decide_many({tenant}): {}", describe(other)));
                }
            };
            let events: Vec<WireFeedback> = replies
                .into_iter()
                .filter_map(|r| {
                    r.feedback.map(|event| WireFeedback {
                        round: r.round,
                        event,
                    })
                })
                .collect();
            let sent = events.len() as u64;
            let t = Instant::now();
            let fed = client.call(&WireRequest::FeedbackMany {
                tenant: tenant.clone(),
                events,
            });
            let feedback_ns = t.elapsed().as_nanos() as u64;
            client.end_window();
            traffic.attempted += 1;
            match fed {
                Ok(WireResponse::Accepted { count }) => traffic.feedback_accepted += count,
                other => {
                    traffic.failed += 1;
                    return Err(format!("feedback_many({tenant}): {}", describe(other)));
                }
            }
            traffic.decides += u64::from(WINDOW);
            traffic.feedback_sent += sent;
            if measured {
                traffic.measured_decides += u64::from(WINDOW);
                traffic.decide_call_ns.push(decide_ns);
                traffic.feedback_call_ns.push(feedback_ns);
            }
            window += 1;
            if scrapes
                .every
                .is_some_and(|every| window.is_multiple_of(every))
            {
                scrape(engine, &mut scrapes, &mut traffic)?;
            }
        }
    }
    traffic.measured_s = measure_start.elapsed().as_secs_f64();
    Ok(traffic)
}

fn scrape(
    engine: &ServeEngine,
    scrapes: &mut Scrapes<'_>,
    traffic: &mut Traffic,
) -> Result<(), String> {
    let rehydrations = |engine: &ServeEngine| -> Result<u64, String> {
        Ok(engine
            .store_metrics()
            .map_err(|e| e.to_string())?
            .map_or(0, |m| m.rehydrations))
    };
    let before = match scrapes.log {
        Some(_) => rehydrations(engine)?,
        None => 0,
    };
    let span = scrapes.log.as_mut().map(|log| log.now());
    let t = Instant::now();
    let text = render_metrics(engine, scrapes.stats).map_err(|e| format!("scrape: {e}"))?;
    traffic.scrape_ns.push(t.elapsed().as_nanos() as u64);
    if let (Some(log), Some(start)) = (scrapes.log.as_mut(), span) {
        log.record(Layer::Scrape, start, None, traffic.scrape_ns.len() as u32);
        traffic
            .scrape_rehydrations
            .push(rehydrations(engine)? - before);
    }
    traffic.attempted += 1;
    if !text.contains("netband_decides_total") {
        traffic.failed += 1;
        return Err("scrape lacks netband_decides_total".into());
    }
    traffic.scrape_bytes.push(text.len() as u64);
    Ok(())
}

fn describe(response: Result<WireResponse, NetError>) -> String {
    match response {
        Ok(response) => format!("unexpected response {}", response.to_json_text()),
        Err(e) => e.to_string(),
    }
}
