//! Cluster-wide request observability: trace contexts, the per-node
//! flight recorder, and the structured JSONL service log.
//!
//! A request is traced from ingress: the server mints (or accepts
//! inbound) a fixed-format trace id, allocates a root span, and every
//! internal hop — peer cache-fill lookups, replication deliveries,
//! anti-entropy repairs, store writes — records a child
//! span tagged `(node, span, parent_span, stage, wall_us, outcome)`.
//! Spans land in a bounded ring buffer (the *flight recorder*) that
//! `GET /v1/internal/trace/<id>` serves per node; requests slower
//! than the `--slow-ms` threshold additionally snapshot their span
//! tree into a separate slow-request ring served by
//! `GET /v1/internal/slow`.
//!
//! Trace metadata travels in the `X-Noc-Trace` / `X-Noc-Span`
//! headers only — never in cache keys, stored records, or response
//! bodies — so tracing can never perturb the byte-determinism
//! guarantees the serving tier makes. With the recorder disabled
//! (`--flight-recorder-entries 0`) the hot path performs no
//! allocation and no locking for tracing.

use std::collections::VecDeque;
use std::fs::OpenOptions;
use std::io::{self, BufWriter, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

use serde::{Deserialize, Serialize};

use crate::hash::fnv1a64;

/// Bound of the slow-request ring — small and fixed: slow requests
/// are the exception, and each entry carries a full span snapshot.
const SLOW_RING_MAX: usize = 64;

/// The trace context of one in-flight request on one node.
///
/// `span` is this node's span id for the current unit of work;
/// `parent` is the span id of the upstream hop (0 for a root). An
/// untraced context (recorder disabled, or a background path with no
/// originating request) has an empty id and records nothing.
#[derive(Debug, Clone)]
pub struct TraceCtx {
    /// The hex trace id shared by every hop of the request.
    pub id: Arc<str>,
    /// This unit of work's span id (unique across the cluster).
    pub span: u64,
    /// The upstream span id, 0 when this is the root.
    pub parent: u64,
}

impl TraceCtx {
    /// A context that records nothing — the default for paths
    /// entered outside a traced request (direct engine calls, tests).
    #[must_use]
    pub fn untraced() -> TraceCtx {
        TraceCtx {
            id: Arc::from(""),
            span: 0,
            parent: 0,
        }
    }

    /// Whether this context belongs to a live trace.
    #[must_use]
    pub fn is_traced(&self) -> bool {
        !self.id.is_empty()
    }
}

/// One recorded span in the flight-recorder ring. Stage and outcome
/// are static so recording never allocates for them.
struct SpanRec {
    trace: Arc<str>,
    span: u64,
    parent: u64,
    stage: &'static str,
    outcome: &'static str,
    wall_us: u64,
}

/// One slow-request entry: the root outcome plus a snapshot of the
/// trace's spans at finish time.
struct SlowRec {
    trace: Arc<str>,
    endpoint: &'static str,
    outcome: &'static str,
    wall_us: u64,
    spans: Vec<SpanWire>,
}

/// The wire form of one span, as served by
/// `GET /v1/internal/trace/<id>` and embedded in slow entries.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpanWire {
    /// The trace id the span belongs to.
    pub trace: String,
    /// The recording node's ring identity.
    pub node: String,
    /// The span id (unique across the cluster).
    pub span: u64,
    /// The parent span id, 0 for roots.
    pub parent_span: u64,
    /// What the span measured (endpoint label or internal stage).
    pub stage: String,
    /// Wall time of the unit of work, microseconds.
    pub wall_us: u64,
    /// How it ended (`hit`, `peer`, `miss`, `sent`, `failed`, …).
    pub outcome: String,
}

/// The body of `GET /v1/internal/trace/<id>`: one node's spans for
/// the trace.
#[derive(Debug, Serialize, Deserialize)]
pub struct TraceDump {
    /// The answering node's ring identity.
    pub node: String,
    /// Every span this node recorded for the trace, oldest first.
    pub spans: Vec<SpanWire>,
}

/// One entry of the slow-request ring on the wire.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SlowWire {
    /// The slow request's trace id.
    pub trace: String,
    /// The recording node's ring identity.
    pub node: String,
    /// The request's endpoint label.
    pub endpoint: String,
    /// The root span's outcome.
    pub outcome: String,
    /// End-to-end wall time on this node, microseconds.
    pub wall_us: u64,
    /// The span tree snapshot taken when the request finished.
    pub spans: Vec<SpanWire>,
}

/// The body of `GET /v1/internal/slow`: one node's slow ring.
#[derive(Debug, Serialize, Deserialize)]
pub struct SlowDump {
    /// The answering node's ring identity.
    pub node: String,
    /// Slow entries, oldest first.
    pub slow: Vec<SlowWire>,
}

/// The per-node flight recorder: a bounded ring of recent spans plus
/// a separate bounded ring of slow-request snapshots.
///
/// Recording takes one short mutex hold and allocates nothing beyond
/// the ring slot (trace ids are shared `Arc<str>`s, stages and
/// outcomes are `&'static str`). With `entries == 0` every method is
/// an early-return no-op.
pub struct Recorder {
    node: Arc<str>,
    entries: usize,
    slow_us: u64,
    /// Upper 32 bits of every span id this node allocates — derived
    /// from the node identity so ids from different nodes cannot
    /// collide in an assembled tree.
    node_lane: u64,
    /// Per-process mint seed: node hash mixed with startup time, so
    /// restarts never reuse trace ids.
    seed: u64,
    seq: AtomicU64,
    /// Shared empty id handed to untraced contexts without allocating.
    empty: Arc<str>,
    spans: Mutex<VecDeque<SpanRec>>,
    slow: Mutex<VecDeque<SlowRec>>,
}

impl Recorder {
    /// Builds a recorder for `node` holding up to `entries` spans;
    /// requests at or above `slow_ms` snapshot into the slow ring.
    /// `entries == 0` disables recording entirely.
    #[must_use]
    pub fn new(node: &str, entries: usize, slow_ms: u64) -> Recorder {
        let node_hash = fnv1a64(node.as_bytes());
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_nanos() & u128::from(u64::MAX)).unwrap_or(0))
            .unwrap_or(0);
        Recorder {
            node: Arc::from(node),
            entries,
            slow_us: slow_ms.saturating_mul(1000),
            node_lane: node_hash & 0xffff_ffff_0000_0000,
            seed: node_hash ^ nanos,
            seq: AtomicU64::new(0),
            empty: Arc::from(""),
            spans: Mutex::new(VecDeque::new()),
            slow: Mutex::new(VecDeque::new()),
        }
    }

    /// A recorder that records nothing (the default for engines built
    /// without observability configuration).
    #[must_use]
    pub fn disabled() -> Recorder {
        Recorder::new("", 0, 0)
    }

    /// Whether the recorder accepts spans.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.entries > 0
    }

    /// The recording node's identity.
    #[must_use]
    pub fn node(&self) -> &str {
        &self.node
    }

    fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed).wrapping_add(1)
    }

    /// Allocates a span id: the node lane in the upper bits, a local
    /// counter in the lower. Never 0 (0 means "no parent").
    fn next_span(&self) -> u64 {
        self.node_lane | (self.next_seq() & 0xffff_ffff)
    }

    /// Builds the ingress context for a request: accepts a valid
    /// client-supplied trace id (hex, 8–64 chars) for correlation,
    /// otherwise mints a fresh 32-hex id. The inbound `X-Noc-Span`
    /// value, when parseable, becomes the root's parent so
    /// cross-node hops connect.
    #[must_use]
    pub fn ingress(&self, trace: Option<&str>, span: Option<&str>) -> TraceCtx {
        if !self.enabled() {
            return TraceCtx {
                id: Arc::clone(&self.empty),
                span: 0,
                parent: 0,
            };
        }
        let id: Arc<str> = match trace {
            Some(t) if valid_trace_id(t) => Arc::from(t),
            _ => Arc::from(format!("{:016x}{:016x}", self.seed, self.next_seq()).as_str()),
        };
        let parent = span
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .unwrap_or(0);
        TraceCtx {
            id,
            span: self.next_span(),
            parent,
        }
    }

    /// A child context of `parent` on this node (for internal hops
    /// like peer fills, store writes, compute). No-op clone of the
    /// empty context when untraced.
    #[must_use]
    pub fn child(&self, parent: &TraceCtx) -> TraceCtx {
        if !self.enabled() || !parent.is_traced() {
            return TraceCtx {
                id: Arc::clone(&self.empty),
                span: 0,
                parent: 0,
            };
        }
        TraceCtx {
            id: Arc::clone(&parent.id),
            span: self.next_span(),
            parent: parent.span,
        }
    }

    /// A child context under an explicit `(trace id, parent span)`
    /// pair — used by the replication queue, whose entries carry the
    /// originating trace across threads.
    #[must_use]
    pub fn child_of(&self, id: &Arc<str>, parent: u64) -> TraceCtx {
        if !self.enabled() || id.is_empty() {
            return TraceCtx {
                id: Arc::clone(&self.empty),
                span: 0,
                parent: 0,
            };
        }
        TraceCtx {
            id: Arc::clone(id),
            span: self.next_span(),
            parent,
        }
    }

    /// Mints a fresh root context (used by background work that has
    /// no originating request, like anti-entropy sweep rounds).
    #[must_use]
    pub fn mint(&self) -> TraceCtx {
        self.ingress(None, None)
    }

    /// Records one finished span. No-op when the recorder is
    /// disabled or the context is untraced.
    pub fn record(&self, ctx: &TraceCtx, stage: &'static str, outcome: &'static str, wall_us: u64) {
        if !self.enabled() || !ctx.is_traced() {
            return;
        }
        let mut spans = self.spans.lock().expect("recorder lock");
        if spans.len() >= self.entries {
            spans.pop_front();
        }
        spans.push_back(SpanRec {
            trace: Arc::clone(&ctx.id),
            span: ctx.span,
            parent: ctx.parent,
            stage,
            outcome,
            wall_us,
        });
    }

    /// Records the request's root span and, when `wall_us` reaches
    /// the slow threshold, snapshots the trace's spans into the slow
    /// ring.
    pub fn finish_root(
        &self,
        ctx: &TraceCtx,
        endpoint: &'static str,
        outcome: &'static str,
        wall_us: u64,
    ) {
        if !self.enabled() || !ctx.is_traced() {
            return;
        }
        self.record(ctx, endpoint, outcome, wall_us);
        if wall_us < self.slow_us {
            return;
        }
        let spans = self.trace(&ctx.id);
        let mut slow = self.slow.lock().expect("slow ring lock");
        if slow.len() >= SLOW_RING_MAX {
            slow.pop_front();
        }
        slow.push_back(SlowRec {
            trace: Arc::clone(&ctx.id),
            endpoint,
            outcome,
            wall_us,
            spans,
        });
    }

    /// Every span this node holds for trace `id`, oldest first.
    #[must_use]
    pub fn trace(&self, id: &str) -> Vec<SpanWire> {
        if !self.enabled() {
            return Vec::new();
        }
        let spans = self.spans.lock().expect("recorder lock");
        spans
            .iter()
            .filter(|s| &*s.trace == id)
            .map(|s| self.wire(s))
            .collect()
    }

    /// The slow ring, oldest first.
    #[must_use]
    pub fn slow(&self) -> Vec<SlowWire> {
        if !self.enabled() {
            return Vec::new();
        }
        let slow = self.slow.lock().expect("slow ring lock");
        slow.iter()
            .map(|s| SlowWire {
                trace: s.trace.to_string(),
                node: self.node.to_string(),
                endpoint: s.endpoint.to_owned(),
                outcome: s.outcome.to_owned(),
                wall_us: s.wall_us,
                spans: s.spans.clone(),
            })
            .collect()
    }

    fn wire(&self, s: &SpanRec) -> SpanWire {
        SpanWire {
            trace: s.trace.to_string(),
            node: self.node.to_string(),
            span: s.span,
            parent_span: s.parent,
            stage: s.stage.to_owned(),
            wall_us: s.wall_us,
            outcome: s.outcome.to_owned(),
        }
    }
}

/// Accepts 8–64 hex chars as a client-supplied trace id; anything
/// else gets a freshly minted id instead.
fn valid_trace_id(s: &str) -> bool {
    (8..=64).contains(&s.len()) && s.bytes().all(|b| b.is_ascii_hexdigit())
}

/// Microseconds since `started`, saturating — the span wall-time
/// helper every hop uses.
#[must_use]
pub fn span_us(started: std::time::Instant) -> u64 {
    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Service-log severities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogLevel {
    /// Routine lifecycle events (job replay, peer recovery).
    Info,
    /// Degradations the service absorbed (rejected admissions, peers
    /// going Down).
    Warn,
    /// Lost durability or capability (store quarantine, a lost job
    /// record).
    Error,
}

impl LogLevel {
    /// The level's wire/label name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            LogLevel::Info => "info",
            LogLevel::Warn => "warn",
            LogLevel::Error => "error",
        }
    }
}

/// Per-level event counters, rendered as
/// `noc_svc_log_events_total{level}`.
#[derive(Debug, Default)]
pub struct LogCounters {
    /// Events logged at info.
    pub info: AtomicU64,
    /// Events logged at warn.
    pub warn: AtomicU64,
    /// Events logged at error.
    pub error: AtomicU64,
}

/// The structured service event log: one JSON object per line, to a
/// file when `serve --log-json <path>` is given, to stderr otherwise.
///
/// Every line carries `ts_ms`, `level`, `event`, `node`, `msg`, plus
/// event-specific fields. The log replaces the service's ad-hoc
/// `eprintln!` diagnostics so operators get one parseable stream.
pub struct ServiceLog {
    node: String,
    sink: Option<Mutex<BufWriter<std::fs::File>>>,
    counters: Arc<LogCounters>,
}

impl ServiceLog {
    /// Opens the log. `path == None` keeps events on stderr (still
    /// structured). The file is appended to, never truncated.
    ///
    /// # Errors
    ///
    /// Fails when the file cannot be opened for append.
    pub fn open(
        path: Option<&str>,
        node: &str,
        counters: Arc<LogCounters>,
    ) -> io::Result<ServiceLog> {
        let sink = match path {
            Some(p) => {
                let file = OpenOptions::new().create(true).append(true).open(p)?;
                Some(Mutex::new(BufWriter::new(file)))
            }
            None => None,
        };
        Ok(ServiceLog {
            node: node.to_owned(),
            sink,
            counters,
        })
    }

    /// The process-wide stderr fallback, for components that can be
    /// built before (or without) a configured log.
    pub fn stderr_fallback() -> Arc<ServiceLog> {
        static FALLBACK: OnceLock<Arc<ServiceLog>> = OnceLock::new();
        Arc::clone(FALLBACK.get_or_init(|| {
            Arc::new(ServiceLog {
                node: String::new(),
                sink: None,
                counters: Arc::new(LogCounters::default()),
            })
        }))
    }

    /// Emits one structured event line.
    pub fn event(&self, level: LogLevel, event: &str, msg: &str, fields: &[(&str, &str)]) {
        match level {
            LogLevel::Info => &self.counters.info,
            LogLevel::Warn => &self.counters.warn,
            LogLevel::Error => &self.counters.error,
        }
        .fetch_add(1, Ordering::Relaxed);
        let ts_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis())
            .unwrap_or(0);
        let mut line = String::with_capacity(96);
        line.push_str("{\"ts_ms\":");
        line.push_str(&ts_ms.to_string());
        line.push_str(",\"level\":\"");
        line.push_str(level.as_str());
        line.push_str("\",\"event\":");
        push_json_str(&mut line, event);
        line.push_str(",\"node\":");
        push_json_str(&mut line, &self.node);
        line.push_str(",\"msg\":");
        push_json_str(&mut line, msg);
        for (key, value) in fields {
            line.push(',');
            push_json_str(&mut line, key);
            line.push(':');
            push_json_str(&mut line, value);
        }
        line.push('}');
        match &self.sink {
            Some(sink) => {
                let mut writer = sink.lock().expect("log sink lock");
                let _ = writeln!(writer, "{line}");
                let _ = writer.flush();
            }
            None => eprintln!("{line}"),
        }
    }
}

/// Appends `s` as a JSON string literal (quoted, escaped).
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_a_zero_cost_no_op() {
        let rec = Recorder::disabled();
        assert!(!rec.enabled());
        let ctx = rec.ingress(Some("deadbeefdeadbeef"), Some("1f"));
        assert!(!ctx.is_traced(), "disabled recorder mints no context");
        rec.record(&ctx, "peer_fill", "hit", 10);
        rec.finish_root(&ctx, "/v1/schedule", "hit", 10);
        assert!(rec.trace("deadbeefdeadbeef").is_empty());
        assert!(rec.slow().is_empty());
    }

    #[test]
    fn minted_trace_ids_are_32_hex_and_unique() {
        let rec = Recorder::new("127.0.0.1:9001", 16, 1000);
        let a = rec.ingress(None, None);
        let b = rec.ingress(None, None);
        for ctx in [&a, &b] {
            assert_eq!(ctx.id.len(), 32, "fixed-format id: {}", ctx.id);
            assert!(ctx.id.bytes().all(|c| c.is_ascii_hexdigit()));
        }
        assert_ne!(a.id, b.id);
        assert_ne!(a.span, b.span);
        assert_ne!(a.span, 0, "span 0 is reserved for 'no parent'");
    }

    #[test]
    fn inbound_ids_are_adopted_only_when_hex() {
        let rec = Recorder::new("n1", 16, 1000);
        let ok = rec.ingress(Some("00c0ffee00c0ffee"), Some("2a"));
        assert_eq!(&*ok.id, "00c0ffee00c0ffee");
        assert_eq!(ok.parent, 0x2a);
        let bad = rec.ingress(Some("not hex!"), None);
        assert_ne!(&*bad.id, "not hex!");
        assert_eq!(bad.id.len(), 32);
    }

    #[test]
    fn span_ring_is_bounded_and_filters_by_trace() {
        let rec = Recorder::new("n1", 4, 1000);
        let a = rec.ingress(None, None);
        let b = rec.ingress(None, None);
        for _ in 0..3 {
            rec.record(&rec.child(&a), "peer_fill", "hit", 5);
        }
        for _ in 0..3 {
            rec.record(&rec.child(&b), "peer_fill", "miss", 7);
        }
        let spans_a = rec.trace(&a.id);
        let spans_b = rec.trace(&b.id);
        assert!(spans_a.len() + spans_b.len() <= 4, "ring bound holds");
        assert_eq!(spans_b.len(), 3, "newest spans survive");
        assert!(spans_b
            .iter()
            .all(|s| s.trace == *b.id && s.outcome == "miss"));
        assert!(spans_a.iter().all(|s| s.trace == *a.id));
    }

    #[test]
    fn child_spans_connect_to_their_parent() {
        let rec = Recorder::new("n1", 16, 1000);
        let root = rec.ingress(None, None);
        let child = rec.child(&root);
        assert_eq!(child.parent, root.span);
        assert_eq!(child.id, root.id);
        let grand = rec.child(&child);
        assert_eq!(grand.parent, child.span);
    }

    #[test]
    fn slow_requests_snapshot_their_span_tree() {
        let rec = Recorder::new("n1", 16, 1);
        let fast = rec.ingress(None, None);
        rec.finish_root(&fast, "/v1/schedule", "hit", 10);
        assert!(rec.slow().is_empty(), "10 µs is under the 1 ms threshold");
        let slow = rec.ingress(None, None);
        rec.record(&rec.child(&slow), "compute", "ok", 900);
        rec.finish_root(&slow, "/v1/schedule", "miss", 1500);
        let ring = rec.slow();
        assert_eq!(ring.len(), 1);
        assert_eq!(ring[0].trace, *slow.id);
        assert_eq!(ring[0].wall_us, 1500);
        assert_eq!(
            ring[0].spans.len(),
            2,
            "snapshot holds the compute child and the root"
        );
    }

    #[test]
    fn service_log_writes_parseable_jsonl_and_counts_levels() {
        let dir = std::env::temp_dir().join(format!("noc-obs-log-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("svc.jsonl");
        let counters = Arc::new(LogCounters::default());
        let log = ServiceLog::open(
            Some(path.to_str().expect("utf8 path")),
            "127.0.0.1:9001",
            Arc::clone(&counters),
        )
        .expect("log opens");
        log.event(
            LogLevel::Info,
            "journal-replay",
            "replayed 3 records",
            &[("records", "3")],
        );
        log.event(
            LogLevel::Error,
            "store-degraded",
            "segment \"seg-0\" quarantined\nbad checksum",
            &[],
        );
        drop(log);
        let text = std::fs::read_to_string(&path).expect("log file");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let value: serde_json::Value = serde_json::from_str(line).expect("line parses");
            let obj = value.as_object().expect("object");
            for key in ["ts_ms", "level", "event", "node", "msg"] {
                assert!(obj.get(key).is_some(), "line has {key}: {line}");
            }
        }
        assert!(lines[1].contains("\\n"), "newlines are escaped in place");
        assert_eq!(counters.info.load(Ordering::Relaxed), 1);
        assert_eq!(counters.error.load(Ordering::Relaxed), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
