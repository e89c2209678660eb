//! A blocking TCP client for the framed wire protocol.

use std::fmt;
use std::io::{self, BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};

use netband_spec::wire::{
    DecideReply, WireErrorCode, WireMetrics, WireRequest, WireResponse, WireTelemetry,
};
use netband_spec::{ScenarioSpec, SpecError, WireFeedback};

use crate::frame::{read_frame, write_frame, FrameError, MAX_FRAME_BYTES};

/// Client-side failures.
#[derive(Debug)]
pub enum NetError {
    /// Transport failure (i/o, framing, UTF-8).
    Frame(FrameError),
    /// The response document failed to decode.
    Decode(SpecError),
    /// The server answered with an error frame. `Overloaded` means the
    /// request was not applied and a backoff-retry is safe.
    Server {
        /// Machine-readable code.
        code: WireErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The server closed the connection instead of answering.
    ConnectionClosed,
    /// The server answered with a response of the wrong kind (e.g. `ok` to a
    /// `decide_many`) — a protocol bug on one side or the other.
    UnexpectedResponse(WireResponse),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Frame(e) => write!(f, "transport error: {e}"),
            NetError::Decode(e) => write!(f, "undecodable response: {e}"),
            NetError::Server { code, message } => write!(f, "server error [{code}]: {message}"),
            NetError::ConnectionClosed => f.write_str("server closed the connection"),
            NetError::UnexpectedResponse(r) => {
                write!(f, "response of unexpected kind: {}", r.to_json_text())
            }
        }
    }
}

impl std::error::Error for NetError {}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> Self {
        NetError::Frame(e)
    }
}

impl NetError {
    /// `true` when the request was rejected by admission control and was not
    /// applied — retrying after a backoff is safe and expected.
    pub fn is_overloaded(&self) -> bool {
        matches!(
            self,
            NetError::Server {
                code: WireErrorCode::Overloaded,
                ..
            }
        )
    }
}

/// A synchronous connection to a netband server: one in-flight request at a
/// time, responses matched to requests by order.
pub struct NetClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    max_frame_bytes: usize,
    /// The request buffer, reused call after call.
    out: String,
}

impl NetClient {
    /// Connects to `addr` (`TCP_NODELAY` on — request/response traffic).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<NetClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader_stream = stream.try_clone()?;
        Ok(NetClient {
            reader: BufReader::new(reader_stream),
            writer: BufWriter::new(stream),
            max_frame_bytes: MAX_FRAME_BYTES,
            out: String::new(),
        })
    }

    /// Sends one request frame and reads the one response frame. Error
    /// *frames* come back as `Ok(WireResponse::Error { .. })`; the typed
    /// convenience wrappers below turn them into [`NetError::Server`].
    pub fn call(&mut self, request: &WireRequest) -> Result<WireResponse, NetError> {
        self.out.clear();
        request.write_json(&mut self.out);
        write_frame(&mut self.writer, &self.out)?;
        let text = read_frame(&mut self.reader, self.max_frame_bytes)?
            .ok_or(NetError::ConnectionClosed)?;
        WireResponse::from_json_text(&text).map_err(NetError::Decode)
    }

    fn expect<T>(
        &mut self,
        request: &WireRequest,
        select: impl FnOnce(WireResponse) -> Result<T, WireResponse>,
    ) -> Result<T, NetError> {
        match self.call(request)? {
            WireResponse::Error { code, message } => Err(NetError::Server { code, message }),
            other => select(other).map_err(NetError::UnexpectedResponse),
        }
    }

    /// Registers a tenant from a scenario document.
    pub fn register_tenant(
        &mut self,
        id: impl Into<String>,
        scenario: ScenarioSpec,
    ) -> Result<(), NetError> {
        self.expect(
            &WireRequest::RegisterTenant {
                id: id.into(),
                scenario: Box::new(scenario),
            },
            |r| match r {
                WireResponse::Ok => Ok(()),
                other => Err(other),
            },
        )
    }

    /// Serves `count` decisions for `tenant` in one frame.
    pub fn decide_many(&mut self, tenant: &str, count: u32) -> Result<Vec<DecideReply>, NetError> {
        self.expect(
            &WireRequest::DecideMany {
                tenant: tenant.to_owned(),
                count,
            },
            |r| match r {
                WireResponse::Decisions { replies, .. } => Ok(replies),
                other => Err(other),
            },
        )
    }

    /// Delivers a feedback window for `tenant` in one frame; returns the
    /// number of accepted events.
    pub fn feedback_many(
        &mut self,
        tenant: &str,
        events: Vec<WireFeedback>,
    ) -> Result<u64, NetError> {
        self.expect(
            &WireRequest::FeedbackMany {
                tenant: tenant.to_owned(),
                events,
            },
            |r| match r {
                WireResponse::Accepted { count } => Ok(count),
                other => Err(other),
            },
        )
    }

    /// Fetches the engine-wide metrics snapshot.
    pub fn metrics(&mut self) -> Result<WireMetrics, NetError> {
        self.expect(&WireRequest::Metrics, |r| match r {
            WireResponse::Metrics(m) => Ok(m),
            other => Err(other),
        })
    }

    /// Fetches one tenant's learning-telemetry snapshot (per-arm pulls and
    /// means, cumulative reward, regret proxy). Read-only on the server side:
    /// no flush is triggered.
    pub fn telemetry(&mut self, tenant: &str) -> Result<WireTelemetry, NetError> {
        self.expect(
            &WireRequest::Telemetry {
                tenant: tenant.to_owned(),
            },
            |r| match r {
                WireResponse::Telemetry(t) => Ok(*t),
                other => Err(other),
            },
        )
    }
}
