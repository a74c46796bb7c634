//! Structured tracing: trace ids, hierarchical timed spans with attributes,
//! a bounded in-memory span ring, and JSONL trace export.
//!
//! # Design
//!
//! A [`Tracer`] is the shared home for finished spans. Recording is
//! **lock-light**: an in-flight trace ([`ActiveTrace`]) buffers its spans in
//! a plain `RefCell<Vec<_>>` on the thread that owns it and allocates span
//! ids from a local `Cell` — no atomics, no locks, no thread-locals. The
//! tracer's mutex is taken exactly once per *trace*, when the root span
//! drops and the whole tree is committed to the ring (and, if attached, the
//! JSONL sink).
//!
//! Spans are plain timed records: `Instant` in, duration out. Emission never
//! draws randomness and never reorders work, so tracing is execution-only
//! under the determinism contract (DESIGN.md §4h) — transcripts and
//! checkpoints are bit-identical with tracing on or off.
//!
//! Work measured on *other* threads (e.g. parallel rollout workers) is
//! recorded post-hoc via [`ActiveTrace::record_exact`] using durations the
//! workers already report, keeping the hot path free of cross-thread
//! traffic.
//!
//! The ring is bounded ([`DEFAULT_SPAN_RING`]): under sustained load old
//! spans are evicted (counted in `spans_dropped`) — expected behaviour, not
//! data loss. The JSONL sink, when attached, sees every span regardless of
//! eviction.

use crate::{push_json_str, unix_ts};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default capacity of the finished-span ring.
pub const DEFAULT_SPAN_RING: usize = 8192;

/// Span id of a trace's root span. Parent ids of `0` mean "root".
pub const ROOT_SPAN_ID: u64 = 1;

/// One finished span: a named, timed region within a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// Id unique within the trace; the root span is [`ROOT_SPAN_ID`].
    pub span_id: u64,
    /// Parent span id; `0` for the root span.
    pub parent_id: u64,
    /// Static span name (`server.request`, `rollout.collect`, ...).
    pub name: &'static str,
    /// Unix timestamp (seconds) at span start.
    pub start_ts: f64,
    /// Elapsed wall time in seconds.
    pub duration_secs: f64,
    /// Attribute key/value pairs.
    pub attrs: Vec<(&'static str, String)>,
}

impl SpanRecord {
    /// Render as one JSON line (no trailing newline). Ids are zero-padded
    /// hex strings so consumers never hit 53-bit float truncation.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"trace\":\"");
        out.push_str(&format!("{:016x}", self.trace_id));
        out.push_str("\",\"span\":\"");
        out.push_str(&format!("{:016x}", self.span_id));
        out.push_str("\",\"parent\":");
        if self.parent_id == 0 {
            out.push_str("null");
        } else {
            out.push_str(&format!("\"{:016x}\"", self.parent_id));
        }
        out.push_str(",\"name\":");
        push_json_str(&mut out, self.name);
        out.push_str(",\"ts\":");
        out.push_str(&format!("{:.6}", self.start_ts));
        out.push_str(",\"dur_secs\":");
        if self.duration_secs.is_finite() {
            out.push_str(&format!("{:.9}", self.duration_secs));
        } else {
            out.push('0');
        }
        out.push_str(",\"attrs\":{");
        for (i, (k, v)) in self.attrs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, k);
            out.push(':');
            push_json_str(&mut out, v);
        }
        out.push_str("}}");
        out
    }
}

/// Monotone totals over a tracer's lifetime (never reset by eviction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCounts {
    /// Spans committed to the ring/sink.
    pub spans_recorded: u64,
    /// Spans evicted from the ring to make room (still in the sink).
    pub spans_dropped: u64,
    /// Root spans (whole traces) committed.
    pub traces_recorded: u64,
}

struct SpanRing {
    spans: VecDeque<SpanRecord>,
    capacity: usize,
}

/// Shared home for finished spans: a bounded ring plus an optional JSONL
/// sink. Disabled by default; a disabled tracer's guards are no-ops.
pub struct Tracer {
    enabled: AtomicBool,
    next_trace: AtomicU64,
    ring: Mutex<SpanRing>,
    sink: Mutex<Option<BufWriter<File>>>,
    spans_recorded: AtomicU64,
    spans_dropped: AtomicU64,
    traces_recorded: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_SPAN_RING)
    }
}

impl Tracer {
    /// Disabled tracer with the default ring capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Disabled tracer with a custom ring capacity (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            enabled: AtomicBool::new(false),
            next_trace: AtomicU64::new(0),
            ring: Mutex::new(SpanRing {
                spans: VecDeque::new(),
                capacity: capacity.max(1),
            }),
            sink: Mutex::new(None),
            spans_recorded: AtomicU64::new(0),
            spans_dropped: AtomicU64::new(0),
            traces_recorded: AtomicU64::new(0),
        }
    }

    /// Turn span recording on or off. Trace *ids* are always allocatable
    /// (a server hands out `X-Atena-Trace-Id` even with recording off).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Attach a JSONL sink (truncates `path`) and enable recording. Every
    /// committed span is written as one JSON line; the ring is unaffected.
    pub fn set_jsonl_sink(&self, path: &Path) -> std::io::Result<()> {
        let file = File::create(path)?;
        *self.sink.lock().expect("tracer sink poisoned") = Some(BufWriter::new(file));
        self.set_enabled(true);
        Ok(())
    }

    /// Allocate a fresh nonzero trace id. Ids mix a per-process seed with a
    /// counter, so concurrent processes writing to one collector stay
    /// distinguishable while a single process never repeats an id.
    pub fn next_trace_id(&self) -> u64 {
        let n = self.next_trace.fetch_add(1, Ordering::Relaxed);
        // atena-lint: allow(rng-discipline) — trace ids are execution-only, never in results
        let id = splitmix64(process_trace_seed().wrapping_add(n));
        if id == 0 {
            1
        } else {
            id
        }
    }

    /// Start a trace with a fresh id. The returned [`ActiveTrace`] is the
    /// root span; drop it (or let it fall out of scope) to commit the tree.
    pub fn trace(&self, name: &'static str) -> ActiveTrace<'_> {
        let id = self.next_trace_id();
        self.trace_with_id(name, id)
    }

    /// Start a trace under a caller-chosen id (e.g. one already promised to
    /// a client in a response header).
    pub fn trace_with_id(&self, name: &'static str, trace_id: u64) -> ActiveTrace<'_> {
        ActiveTrace {
            tracer: self,
            enabled: self.is_enabled(),
            trace_id,
            name,
            start: Instant::now(),
            start_ts: unix_ts(),
            buf: RefCell::new(Vec::new()),
            next_span: Cell::new(ROOT_SPAN_ID + 1),
            attrs: RefCell::new(Vec::new()),
        }
    }

    /// Copy of every span currently in the ring, oldest first.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let ring = self.ring.lock().expect("tracer ring poisoned");
        ring.spans.iter().cloned().collect()
    }

    /// Monotone lifetime totals.
    pub fn counts(&self) -> TraceCounts {
        TraceCounts {
            spans_recorded: self.spans_recorded.load(Ordering::Relaxed),
            spans_dropped: self.spans_dropped.load(Ordering::Relaxed),
            traces_recorded: self.traces_recorded.load(Ordering::Relaxed),
        }
    }

    /// Flush the JSONL sink, if attached.
    pub fn flush(&self) {
        if let Some(w) = self.sink.lock().expect("tracer sink poisoned").as_mut() {
            let _ = w.flush();
        }
    }

    /// Commit a finished trace's spans: one ring lock, one sink lock.
    fn commit(&self, spans: Vec<SpanRecord>) {
        if spans.is_empty() {
            return;
        }
        self.spans_recorded
            .fetch_add(spans.len() as u64, Ordering::Relaxed);
        self.traces_recorded.fetch_add(1, Ordering::Relaxed);
        {
            let mut sink = self.sink.lock().expect("tracer sink poisoned");
            if let Some(w) = sink.as_mut() {
                let mut ok = true;
                for s in &spans {
                    if writeln!(w, "{}", s.to_json_line()).is_err() {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    ok = w.flush().is_ok();
                }
                if !ok {
                    eprintln!("[telemetry] trace sink write failed; disabling sink");
                    *sink = None;
                }
            }
        }
        let mut ring = self.ring.lock().expect("tracer ring poisoned");
        for s in spans {
            if ring.spans.len() >= ring.capacity {
                ring.spans.pop_front();
                self.spans_dropped.fetch_add(1, Ordering::Relaxed);
            }
            ring.spans.push_back(s);
        }
    }
}

// atena-lint: allow(rng-discipline) — local mixer for trace ids, not a seed stream
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Per-process salt for trace ids: wall-clock nanos ⊕ pid, fixed at first use.
fn process_trace_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        // atena-lint: allow(rng-discipline) — trace-id salt, execution-only
        splitmix64(nanos ^ ((std::process::id() as u64) << 32))
    })
}

/// An in-flight trace. Doubles as the root span: its lifetime is the root
/// span's duration, and dropping it commits the whole tree to the tracer.
///
/// Not `Send`: a trace is built on one thread (cross-thread work is added
/// post-hoc with [`ActiveTrace::record_exact`]), which is what lets span
/// recording run without locks until commit.
pub struct ActiveTrace<'t> {
    tracer: &'t Tracer,
    enabled: bool,
    trace_id: u64,
    name: &'static str,
    start: Instant,
    start_ts: f64,
    buf: RefCell<Vec<SpanRecord>>,
    next_span: Cell<u64>,
    attrs: RefCell<Vec<(&'static str, String)>>,
}

impl<'t> ActiveTrace<'t> {
    /// This trace's id.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// The id as the canonical 16-digit lowercase hex string used in the
    /// JSONL export and the `X-Atena-Trace-Id` header.
    pub fn trace_id_hex(&self) -> String {
        format!("{:016x}", self.trace_id)
    }

    /// Whether this trace records anything (tracer was enabled at start).
    pub fn is_recording(&self) -> bool {
        self.enabled
    }

    /// Attach an attribute to the root span.
    pub fn attr(&self, key: &'static str, value: impl Into<String>) {
        if self.enabled {
            self.attrs.borrow_mut().push((key, value.into()));
        }
    }

    /// Open a child span of the root. Drop the guard to record it.
    pub fn span<'a>(&'a self, name: &'static str) -> SpanGuard<'a, 't> {
        self.child_of(ROOT_SPAN_ID, name)
    }

    /// Record a span with an exact externally-measured duration (e.g. a
    /// worker thread's busy time) under `parent_id`. The start timestamp is
    /// back-dated by the duration, which is close enough for flame tables.
    pub fn record_exact(
        &self,
        parent_id: u64,
        name: &'static str,
        duration_secs: f64,
        attrs: Vec<(&'static str, String)>,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let span_id = self.alloc_span_id();
        self.buf.borrow_mut().push(SpanRecord {
            trace_id: self.trace_id,
            span_id,
            parent_id,
            name,
            start_ts: unix_ts() - duration_secs.max(0.0),
            duration_secs,
            attrs,
        });
        span_id
    }

    fn child_of<'a>(&'a self, parent_id: u64, name: &'static str) -> SpanGuard<'a, 't> {
        SpanGuard {
            trace: self,
            span_id: if self.enabled {
                self.alloc_span_id()
            } else {
                0
            },
            parent_id,
            name,
            start: Instant::now(),
            start_ts: if self.enabled { unix_ts() } else { 0.0 },
            attrs: Vec::new(),
            done: false,
        }
    }

    fn alloc_span_id(&self) -> u64 {
        let id = self.next_span.get();
        self.next_span.set(id + 1);
        id
    }
}

impl Drop for ActiveTrace<'_> {
    fn drop(&mut self) {
        if !self.enabled {
            return;
        }
        let mut spans = self.buf.take();
        spans.push(SpanRecord {
            trace_id: self.trace_id,
            span_id: ROOT_SPAN_ID,
            parent_id: 0,
            name: self.name,
            start_ts: self.start_ts,
            duration_secs: self.start.elapsed().as_secs_f64(),
            attrs: self.attrs.take(),
        });
        self.tracer.commit(spans);
    }
}

/// An open span inside an [`ActiveTrace`]. Records itself into the trace's
/// buffer when dropped (or explicitly via [`SpanGuard::finish`]).
#[must_use = "a span guard measures until it is dropped; binding to _ drops immediately"]
pub struct SpanGuard<'a, 't> {
    trace: &'a ActiveTrace<'t>,
    span_id: u64,
    parent_id: u64,
    name: &'static str,
    start: Instant,
    start_ts: f64,
    attrs: Vec<(&'static str, String)>,
    done: bool,
}

impl<'a, 't> SpanGuard<'a, 't> {
    /// This span's id within its trace (0 when the trace is not recording).
    pub fn id(&self) -> u64 {
        self.span_id
    }

    /// Attach an attribute.
    pub fn set_attr(&mut self, key: &'static str, value: impl Into<String>) {
        if self.trace.enabled {
            self.attrs.push((key, value.into()));
        }
    }

    /// Open a child of this span.
    pub fn child(&self, name: &'static str) -> SpanGuard<'a, 't> {
        self.trace.child_of(self.span_id, name)
    }

    /// Record a child with an exact externally-measured duration.
    pub fn child_exact(
        &self,
        name: &'static str,
        duration_secs: f64,
        attrs: Vec<(&'static str, String)>,
    ) {
        self.trace
            .record_exact(self.span_id, name, duration_secs, attrs);
    }

    /// Close now and return the elapsed seconds.
    pub fn finish(mut self) -> f64 {
        let elapsed = self.start.elapsed().as_secs_f64();
        self.record(elapsed);
        elapsed
    }

    fn record(&mut self, duration_secs: f64) {
        if self.done {
            return;
        }
        self.done = true;
        if !self.trace.enabled {
            return;
        }
        self.trace.buf.borrow_mut().push(SpanRecord {
            trace_id: self.trace.trace_id,
            span_id: self.span_id,
            parent_id: self.parent_id,
            name: self.name,
            start_ts: self.start_ts,
            duration_secs,
            attrs: std::mem::take(&mut self.attrs),
        });
    }
}

impl Drop for SpanGuard<'_, '_> {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed().as_secs_f64();
        self.record(elapsed);
    }
}

static GLOBAL_TRACER: OnceLock<Arc<Tracer>> = OnceLock::new();

/// The process-wide tracer (disabled until something enables it).
pub fn tracer() -> &'static Tracer {
    GLOBAL_TRACER.get_or_init(|| Arc::new(Tracer::new()))
}

/// A clonable handle on the process-wide tracer, for code that stores one
/// (e.g. a trainer that accepts a private tracer in tests).
pub fn tracer_arc() -> Arc<Tracer> {
    Arc::clone(GLOBAL_TRACER.get_or_init(|| Arc::new(Tracer::new())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing_but_hands_out_ids() {
        let t = Tracer::new();
        assert!(!t.is_enabled());
        let a = t.next_trace_id();
        let b = t.next_trace_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
        {
            let trace = t.trace("root");
            trace.attr("k", "v");
            let mut s = trace.span("child");
            s.set_attr("x", "1");
            let _g = s.child("grandchild");
        }
        assert_eq!(t.counts(), TraceCounts::default());
        assert!(t.snapshot().is_empty());
    }

    #[test]
    fn span_tree_parent_links_and_commit() {
        let t = Tracer::new();
        t.set_enabled(true);
        {
            let trace = t.trace("root");
            trace.attr("who", "test");
            let outer = trace.span("outer");
            {
                let mut inner = outer.child("inner");
                inner.set_attr("step", "0");
            }
            outer.child_exact("exact", 0.25, vec![("worker", "3".to_string())]);
            drop(outer);
            let _solo = trace.span("solo");
        }
        let spans = t.snapshot();
        assert_eq!(spans.len(), 5);
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        let root = by_name("root");
        let outer = by_name("outer");
        let inner = by_name("inner");
        let exact = by_name("exact");
        let solo = by_name("solo");
        assert_eq!(root.span_id, ROOT_SPAN_ID);
        assert_eq!(root.parent_id, 0);
        assert_eq!(outer.parent_id, ROOT_SPAN_ID);
        assert_eq!(inner.parent_id, outer.span_id);
        assert_eq!(exact.parent_id, outer.span_id);
        assert_eq!(solo.parent_id, ROOT_SPAN_ID);
        assert!((exact.duration_secs - 0.25).abs() < 1e-12);
        assert_eq!(exact.attrs, vec![("worker", "3".to_string())]);
        assert_eq!(root.attrs, vec![("who", "test".to_string())]);
        // All spans share the trace id; ids are unique within it.
        let mut ids: Vec<u64> = spans.iter().map(|s| s.span_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 5);
        assert!(spans.iter().all(|s| s.trace_id == root.trace_id));
        let c = t.counts();
        assert_eq!(c.spans_recorded, 5);
        assert_eq!(c.traces_recorded, 1);
        assert_eq!(c.spans_dropped, 0);
    }

    #[test]
    fn ring_is_bounded_and_counts_evictions() {
        let t = Tracer::with_capacity(4);
        t.set_enabled(true);
        for _ in 0..6 {
            let trace = t.trace("r");
            let _s = trace.span("c");
        }
        // 6 traces × 2 spans = 12 committed, ring holds the newest 4.
        let spans = t.snapshot();
        assert_eq!(spans.len(), 4);
        let c = t.counts();
        assert_eq!(c.spans_recorded, 12);
        assert_eq!(c.spans_dropped, 8);
        assert_eq!(c.traces_recorded, 6);
    }

    #[test]
    fn json_line_schema_and_hex_ids() {
        let rec = SpanRecord {
            trace_id: 0xabc,
            span_id: 2,
            parent_id: 1,
            name: "nn.forward",
            start_ts: 100.5,
            duration_secs: 0.001,
            attrs: vec![("step", "4".to_string())],
        };
        let line = rec.to_json_line();
        assert!(line.contains("\"trace\":\"0000000000000abc\""), "{line}");
        assert!(line.contains("\"span\":\"0000000000000002\""), "{line}");
        assert!(line.contains("\"parent\":\"0000000000000001\""), "{line}");
        assert!(line.contains("\"name\":\"nn.forward\""), "{line}");
        assert!(line.contains("\"dur_secs\":0.001000000"), "{line}");
        assert!(line.contains("\"attrs\":{\"step\":\"4\"}"), "{line}");
        let root = SpanRecord {
            parent_id: 0,
            span_id: 1,
            ..rec
        };
        assert!(root.to_json_line().contains("\"parent\":null"));
    }

    #[test]
    fn jsonl_sink_receives_every_span_despite_ring_eviction() {
        let dir = std::env::temp_dir().join("atena-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sink.jsonl");
        let t = Tracer::with_capacity(2);
        t.set_jsonl_sink(&path).unwrap();
        assert!(t.is_enabled());
        for _ in 0..5 {
            let trace = t.trace("r");
            let _s = trace.span("c");
        }
        t.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 10, "sink sees all spans:\n{text}");
        assert_eq!(t.snapshot().len(), 2, "ring stays bounded");
    }

    #[test]
    fn concurrent_traces_from_many_threads_are_consistent() {
        let t = Arc::new(Tracer::with_capacity(100_000));
        t.set_enabled(true);
        let threads = 8usize;
        let traces_per_thread = 200usize;
        let spans_per_trace = 3usize; // root + 2 children
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for j in 0..traces_per_thread {
                        let trace = t.trace("worker.trace");
                        trace.attr("thread", i.to_string());
                        let outer = trace.span("outer");
                        {
                            let mut inner = outer.child("inner");
                            inner.set_attr("j", j.to_string());
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let expected_spans = (threads * traces_per_thread * spans_per_trace) as u64;
        let c = t.counts();
        assert_eq!(
            c.spans_recorded, expected_spans,
            "no lost or duplicated spans"
        );
        assert_eq!(c.traces_recorded, (threads * traces_per_thread) as u64);
        assert_eq!(c.spans_dropped, 0);
        let spans = t.snapshot();
        assert_eq!(spans.len(), expected_spans as usize);
        // Every trace in the ring is complete: exactly one root and two
        // children per trace id, with intact parent links.
        use std::collections::HashMap;
        let mut per_trace: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
        for s in &spans {
            per_trace.entry(s.trace_id).or_default().push(s);
        }
        assert_eq!(per_trace.len(), threads * traces_per_thread);
        for (tid, group) in &per_trace {
            assert_eq!(group.len(), spans_per_trace, "trace {tid:x} incomplete");
            let roots: Vec<_> = group.iter().filter(|s| s.parent_id == 0).collect();
            assert_eq!(roots.len(), 1, "trace {tid:x} must have exactly one root");
            assert_eq!(roots[0].span_id, ROOT_SPAN_ID);
        }
    }
}
