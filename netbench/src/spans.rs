//! Spans recorded around the calls into each layer, and the self-time
//! attribution that turns them into per-layer numbers.
//!
//! A span is one timed call: its layer, start, end, the span that caused it,
//! and the window it belongs to. A span's *self time* is its duration minus
//! the part of it covered by its children. Children are clipped to their
//! parent first: the stand-in server's `read_frame` starts waiting before
//! the client's read does, and only the part inside the client's read is on
//! the blocking path.

use std::io::{self, Write};
use std::time::Instant;

/// The layer boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One closed-loop window: a decide call and its feedback call(s).
    Window,
    /// Client `WireRequest::to_json_text`.
    ClientEncode,
    /// Client `write_frame`.
    ClientWrite,
    /// Client `read_frame` (parent of the server's spans for that frame).
    ClientRead,
    /// Client `WireResponse::from_json_text`.
    ClientDecode,
    /// Server `read_frame`.
    ServerRead,
    /// Server `json::parse` + `wire::request_from_json`.
    ServerDecode,
    /// `ServeClient` decide call (`try_decide_many` / `decide_many_mixed`).
    ServeDecide,
    /// `ServeClient` feedback call (`try_feedback_many` / `feedback_many`).
    ServeFeedback,
    /// `proto::reply_to_wire` / `proto::event_from_wire`.
    Proto,
    /// Server `WireResponse::to_json_text`.
    ServerEncode,
    /// Server `write_frame`.
    ServerWrite,
    /// One `render_metrics` scrape.
    Scrape,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = 13;

impl Layer {
    /// Stable lowercase name, used in the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Window => "window",
            Layer::ClientEncode => "client.encode",
            Layer::ClientWrite => "client.write_frame",
            Layer::ClientRead => "client.read_frame",
            Layer::ClientDecode => "client.decode",
            Layer::ServerRead => "server.read_frame",
            Layer::ServerDecode => "server.decode",
            Layer::ServeDecide => "serve.decide",
            Layer::ServeFeedback => "serve.feedback",
            Layer::Proto => "net.proto",
            Layer::ServerEncode => "server.encode",
            Layer::ServerWrite => "server.write_frame",
            Layer::Scrape => "obs.scrape",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One recorded span. Times are nanoseconds since the log's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer boundary.
    pub layer: Layer,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the causing span in the same log, if any.
    pub parent: Option<usize>,
    /// Window id (client side) or frame sequence number (server side).
    pub window: u32,
}

/// An in-memory span log. Logs of different threads share one epoch so
/// their times compare.
#[derive(Debug, Clone)]
pub struct SpanLog {
    epoch: Instant,
    /// The spans, in recording order.
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log timing from `epoch`.
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span; returns its index.
    pub fn record(
        &mut self,
        layer: Layer,
        start: u64,
        parent: Option<usize>,
        window: u32,
    ) -> usize {
        let end = self.now();
        self.spans.push(Span {
            layer,
            start,
            end,
            parent,
            window,
        });
        self.spans.len() - 1
    }

    /// Opens a span whose end is set later by [`SpanLog::close`] (used for
    /// parents, which must exist before their children are recorded).
    pub fn open(&mut self, layer: Layer, parent: Option<usize>, window: u32) -> usize {
        let start = self.now();
        self.spans.push(Span {
            layer,
            start,
            end: start,
            parent,
            window,
        });
        self.spans.len() - 1
    }

    /// Ends the span opened at `index`.
    pub fn close(&mut self, index: usize) {
        self.spans[index].end = self.now();
    }

    /// Appends `other`'s spans, re-parenting each one through `parent_of`
    /// (which sees the span and returns its new parent in this log, or
    /// `None` to drop the span).
    pub fn absorb(&mut self, other: &SpanLog, parent_of: impl Fn(&Span) -> Option<usize>) {
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        for span in &other.spans {
            if let Some(parent) = parent_of(span) {
                self.spans.push(Span {
                    start: span.start + shift,
                    end: span.end + shift,
                    parent: Some(parent),
                    ..*span
                });
            }
        }
    }

    /// Writes the spans as CSV rows
    /// (`episode,layer,start_ns,end_ns,parent,window`).
    pub fn write_csv(&self, episode: usize, out: &mut impl Write) -> io::Result<()> {
        for span in &self.spans {
            let parent = span.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                out,
                "{episode},{},{},{},{parent},{}",
                span.layer.name(),
                span.start,
                span.end,
                span.window
            )?;
        }
        Ok(())
    }
}

/// Per-layer self time and call counts, summed over a set of spans.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    self_ns: [u64; LAYERS],
    total_ns: [u64; LAYERS],
    calls: [u64; LAYERS],
}

impl LayerTotals {
    /// Attributes every span of `log` (parents always precede children).
    pub fn from_log(log: &SpanLog) -> LayerTotals {
        let spans = &log.spans;
        // Clip each span to its parent's clipped interval.
        let mut clipped: Vec<(u64, u64)> = Vec::with_capacity(spans.len());
        for span in spans {
            let (mut start, mut end) = (span.start, span.end.max(span.start));
            if let Some(p) = span.parent {
                let (ps, pe) = clipped[p];
                start = start.clamp(ps, pe);
                end = end.clamp(ps, pe);
            }
            clipped.push((start, end));
        }
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, span) in spans.iter().enumerate() {
            if let Some(p) = span.parent {
                children[p].push(i);
            }
        }
        let mut totals = LayerTotals::default();
        for (i, span) in spans.iter().enumerate() {
            let (start, end) = clipped[i];
            let covered = union_length(children[i].iter().map(|&c| clipped[c]));
            let layer = span.layer.index();
            totals.self_ns[layer] += (end - start).saturating_sub(covered);
            totals.total_ns[layer] += end - start;
            totals.calls[layer] += 1;
        }
        totals
    }

    /// Adds another set of totals into this one.
    pub fn absorb(&mut self, other: &LayerTotals) {
        for i in 0..LAYERS {
            self.self_ns[i] += other.self_ns[i];
            self.total_ns[i] += other.total_ns[i];
            self.calls[i] += other.calls[i];
        }
    }

    /// Summed self time of `layer`, ns.
    pub fn self_ns(&self, layer: Layer) -> u64 {
        self.self_ns[layer.index()]
    }

    /// Summed (clipped) duration of `layer`, ns.
    fn total_ns(&self, layer: Layer) -> u64 {
        self.total_ns[layer.index()]
    }

    /// Spans recorded for `layer`.
    fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer.index()]
    }

    /// Mean self time per call of `layer`, ns (0 without calls).
    pub fn mean_self_ns(&self, layers: &[Layer]) -> f64 {
        let calls: u64 = layers.iter().map(|&l| self.calls(l)).sum();
        if calls == 0 {
            return 0.0;
        }
        layers.iter().map(|&l| self.self_ns(l)).sum::<u64>() as f64 / calls as f64
    }

    /// Share of window time that no layer span covers: the windows' own self
    /// time over their duration.
    pub fn unaccounted_ratio(&self) -> f64 {
        let total = self.total_ns(Layer::Window);
        if total == 0 {
            return 0.0;
        }
        self.self_ns(Layer::Window) as f64 / total as f64
    }
}

/// Length of the union of possibly overlapping intervals.
fn union_length(intervals: impl Iterator<Item = (u64, u64)>) -> u64 {
    let mut sorted: Vec<(u64, u64)> = intervals.filter(|(s, e)| e > s).collect();
    sorted.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for (start, end) in sorted {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            layer,
            start,
            end,
            parent,
            window: 0,
        }
    }

    #[test]
    fn self_times_partition_the_window() {
        let mut log = SpanLog::new(Instant::now());
        log.spans = vec![
            span(Layer::Window, 0, 100, None),
            span(Layer::ClientEncode, 5, 10, Some(0)),
            span(Layer::ClientRead, 10, 90, Some(0)),
            // Starts before its parent: only 20..60 is on the blocking path.
            span(Layer::ServerRead, 0, 60, Some(2)),
            span(Layer::ServeDecide, 60, 80, Some(2)),
        ];
        let totals = LayerTotals::from_log(&log);
        assert_eq!(totals.self_ns(Layer::ServerRead), 50);
        assert_eq!(totals.self_ns(Layer::ServeDecide), 20);
        assert_eq!(totals.self_ns(Layer::ClientRead), 10);
        assert_eq!(totals.self_ns(Layer::ClientEncode), 5);
        assert_eq!(totals.self_ns(Layer::Window), 15);
        let attributed: u64 = [
            Layer::Window,
            Layer::ClientEncode,
            Layer::ClientRead,
            Layer::ServerRead,
            Layer::ServeDecide,
        ]
        .iter()
        .map(|&l| totals.self_ns(l))
        .sum();
        assert_eq!(attributed, 100);
        assert!((totals.unaccounted_ratio() - 0.15).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_count_once() {
        assert_eq!(union_length([(0, 10), (5, 15), (20, 25)].into_iter()), 20);
    }
}
