//! Observability for the ATENA workspace: spans, metrics, leveled logging,
//! and a machine-readable JSONL event sink.
//!
//! Everything here is hand-rolled on `std` — no external dependencies — so
//! the crate stays tiny and builds in the offline environment.
//!
//! # Architecture
//!
//! * [`MetricsRegistry`] owns named [`Counter`]s, [`Gauge`]s, and
//!   [`Histogram`]s (fixed log-scale buckets). Handles are cheap `Arc`
//!   clones and safe to update from rollout worker threads.
//! * The leveled logger (`error!`/`warn!`/`info!`/`debug!`) writes
//!   human-readable lines to stderr, gated by [`set_level`] /
//!   the `ATENA_LOG` environment variable.
//! * An optional JSONL sink ([`MetricsRegistry::set_jsonl_sink`]) receives
//!   machine-readable events, one JSON object per line, with the stable
//!   schema `{ts, kind, name, value, labels}`.
//!
//! Most code talks to the process-wide registry via [`global`]; tests build
//! private [`MetricsRegistry`] instances to stay isolated.
//!
//! The [`trace`] module adds structured tracing on top: trace ids,
//! hierarchical timed spans with attributes, a bounded span ring, and JSONL
//! trace export (see DESIGN.md §4j).

#![forbid(unsafe_code)]

pub mod trace;

pub use trace::{
    tracer, tracer_arc, ActiveTrace, SpanGuard, SpanRecord, TraceCounts, Tracer, DEFAULT_SPAN_RING,
    ROOT_SPAN_ID,
};

use std::collections::BTreeMap;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

// ---------------------------------------------------------------------------
// Leveled logging
// ---------------------------------------------------------------------------

/// Log severity, most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unrecoverable or surprising failures.
    Error = 0,
    /// Degraded but continuing.
    Warn = 1,
    /// Progress and lifecycle messages (default).
    Info = 2,
    /// High-volume diagnostics.
    Debug = 3,
}

impl Level {
    /// Canonical lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    /// Parse a level name (case-insensitive). `None` for unknown names.
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" | "trace" => Some(Level::Debug),
            _ => None,
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// 255 = "not initialized yet; consult ATENA_LOG on first use".
static MAX_LEVEL: AtomicU8 = AtomicU8::new(255);

fn load_level() -> u8 {
    let current = MAX_LEVEL.load(Ordering::Relaxed);
    if current != 255 {
        return current;
    }
    let initial = std::env::var("ATENA_LOG")
        .ok()
        .and_then(|v| Level::parse(&v))
        .unwrap_or(Level::Info) as u8;
    // Racing initializers compute the same value; last store wins harmlessly.
    MAX_LEVEL.store(initial, Ordering::Relaxed);
    initial
}

/// Set the process-wide maximum level (overrides `ATENA_LOG`).
pub fn set_level(level: Level) {
    MAX_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Whether a message at `level` would be emitted.
pub fn enabled(level: Level) -> bool {
    (level as u8) <= load_level()
}

/// Core log entry point; prefer the `error!`/`warn!`/`info!`/`debug!` macros.
///
/// Writes a human-readable line to stderr and, when the global registry has
/// a JSONL sink attached, a `kind: "log"` event to it.
pub fn log(level: Level, message: &str) {
    if !enabled(level) {
        return;
    }
    let ts = unix_ts();
    eprintln!("[{ts:14.3} {:5}] {message}", level.as_str());
    global().emit_event(Event {
        ts,
        kind: "log",
        name: level.as_str().to_string(),
        value: 1.0,
        labels: vec![("message".to_string(), message.to_string())],
    });
}

/// Log at [`Level::Error`]. Takes `format!` arguments.
#[macro_export]
macro_rules! error {
    ($($arg:tt)*) => { $crate::log($crate::Level::Error, &format!($($arg)*)) };
}

/// Log at [`Level::Warn`]. Takes `format!` arguments.
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => { $crate::log($crate::Level::Warn, &format!($($arg)*)) };
}

/// Log at [`Level::Info`]. Takes `format!` arguments.
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => { $crate::log($crate::Level::Info, &format!($($arg)*)) };
}

/// Log at [`Level::Debug`]. Takes `format!` arguments.
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => { $crate::log($crate::Level::Debug, &format!($($arg)*)) };
}

/// Seconds since the Unix epoch, as f64 (millisecond-ish precision is plenty).
pub fn unix_ts() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0)
}

/// Resident-set size of this process in bytes, or `None` where no probe is
/// available. Reads `/proc/self/status` (`VmRSS`, reported in kB, no
/// page-size assumption) and falls back to `/proc/self/statm` (resident
/// pages, assuming 4 KiB pages — correct for the default page size on
/// x86-64 and aarch64 Linux). Soak harnesses sample this through the
/// server's `/v1/metrics` gauge to assert flat memory; it is observational
/// only and must never influence results.
pub fn rss_bytes() -> Option<u64> {
    if let Some(kb) = std::fs::read_to_string("/proc/self/status")
        .ok()
        .as_deref()
        .and_then(vmrss_kb)
    {
        return Some(kb * 1024);
    }
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let resident_pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(resident_pages * 4096)
}

/// Parse the `VmRSS:` line (value in kB) out of `/proc/self/status` text.
fn vmrss_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

// ---------------------------------------------------------------------------
// Events and the JSONL sink
// ---------------------------------------------------------------------------

/// One machine-readable telemetry event. Serialized as a single JSON line
/// with the stable schema `{ts, kind, name, value, labels}`.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Unix timestamp (seconds).
    pub ts: f64,
    /// Event family: `counter`, `gauge`, `histogram`, `iteration`,
    /// `episode`, `log`, ...
    pub kind: &'static str,
    /// Metric or record name, dot-separated (`train.steps_per_sec`).
    pub name: String,
    /// Primary numeric payload.
    pub value: f64,
    /// Secondary string key/value pairs.
    pub labels: Vec<(String, String)>,
}

impl Event {
    /// Render as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"ts\":");
        push_f64(&mut out, self.ts);
        out.push_str(",\"kind\":");
        push_json_str(&mut out, self.kind);
        out.push_str(",\"name\":");
        push_json_str(&mut out, &self.name);
        out.push_str(",\"value\":");
        push_f64(&mut out, self.value);
        out.push_str(",\"labels\":{");
        for (i, (k, v)) in self.labels.iter().enumerate() {
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

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&v.to_string());
    } else {
        out.push_str("null");
    }
}

pub(crate) fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Metric handles
// ---------------------------------------------------------------------------

/// Monotonically increasing event count. Cheap to clone; updates are atomic.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins float value (temperature, learning rate, ...).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Number of log-scale buckets in every histogram (plus an overflow bucket).
pub const HISTOGRAM_BUCKETS: usize = 36;

/// Smallest histogram bucket upper bound, in the metric's own unit. With
/// doubling buckets this spans `1e-7 .. ~3.4` — for latencies in seconds
/// that is 100ns up to a few seconds, with everything larger in overflow.
pub const HISTOGRAM_FIRST_BOUND: f64 = 1e-7;

/// Fixed log₂-scale histogram: bucket `i` counts samples in
/// `(bound(i-1), bound(i)]` where `bound(i) = HISTOGRAM_FIRST_BOUND * 2^i`.
/// The final slot counts overflow. Also tracks count, sum, min, and max.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS + 1],
    count: AtomicU64,
    /// f64 bits, CAS-accumulated.
    sum: AtomicU64,
    /// f64 bits.
    min: AtomicU64,
    /// f64 bits.
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0f64.to_bits()),
            min: AtomicU64::new(f64::INFINITY.to_bits()),
            max: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }))
    }
}

impl Histogram {
    /// Upper bound of bucket `i` (inclusive). `None` for the overflow slot.
    pub fn bucket_bound(i: usize) -> Option<f64> {
        if i < HISTOGRAM_BUCKETS {
            Some(HISTOGRAM_FIRST_BOUND * (1u64 << i) as f64)
        } else {
            None
        }
    }

    /// Index of the bucket a sample falls into.
    pub fn bucket_index(v: f64) -> usize {
        if v.partial_cmp(&HISTOGRAM_FIRST_BOUND) != Some(std::cmp::Ordering::Greater) {
            // NaN, negatives, and anything at or below the first bound.
            return 0;
        }
        let ratio = v / HISTOGRAM_FIRST_BOUND;
        let idx = ratio.log2().ceil() as usize;
        idx.min(HISTOGRAM_BUCKETS)
    }

    /// Record one sample.
    pub fn record(&self, v: f64) {
        if v.is_nan() {
            return;
        }
        let inner = &*self.0;
        inner.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        cas_f64(&inner.sum, |s| s + v);
        cas_f64(&inner.min, |m| m.min(v));
        cas_f64(&inner.max, |m| m.max(v));
    }

    /// Record a duration, in seconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_secs_f64());
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum.load(Ordering::Relaxed))
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// Smallest recorded sample (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        let v = f64::from_bits(self.0.min.load(Ordering::Relaxed));
        v.is_finite().then_some(v)
    }

    /// Largest recorded sample (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        let v = f64::from_bits(self.0.max.load(Ordering::Relaxed));
        v.is_finite().then_some(v)
    }

    /// Approximate quantile from bucket upper bounds (`q` in `[0, 1]`).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.0.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return Some(
                    Self::bucket_bound(i)
                        .unwrap_or(f64::INFINITY)
                        .min(self.max()?),
                );
            }
        }
        self.max()
    }

    /// Per-bucket counts (including the final overflow slot).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

fn cas_f64(cell: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut current = cell.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(current)).to_bits();
        match cell.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => current = actual,
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Metrics {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// Thread-safe home for named metrics plus an optional JSONL event sink.
///
/// Handle lookups take a short mutex; the returned handles update lock-free,
/// so hot paths should look up once and reuse the handle.
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Mutex<Metrics>,
    sink: Mutex<Option<BufWriter<File>>>,
}

impl MetricsRegistry {
    /// Empty registry with no sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.metrics.lock().expect("telemetry registry poisoned");
        m.counters.entry(name.to_string()).or_default().clone()
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.metrics.lock().expect("telemetry registry poisoned");
        m.gauges.entry(name.to_string()).or_default().clone()
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut m = self.metrics.lock().expect("telemetry registry poisoned");
        m.histograms.entry(name.to_string()).or_default().clone()
    }

    /// Attach a JSONL sink; subsequent events append to `path` (truncating
    /// any previous content).
    pub fn set_jsonl_sink(&self, path: &Path) -> std::io::Result<()> {
        let file = File::create(path)?;
        *self.sink.lock().expect("telemetry sink poisoned") = Some(BufWriter::new(file));
        Ok(())
    }

    /// Whether a JSONL sink is attached.
    pub fn has_sink(&self) -> bool {
        self.sink.lock().expect("telemetry sink poisoned").is_some()
    }

    /// Write one event to the JSONL sink, if attached. Never blocks metric
    /// updates; I/O errors are reported once on stderr and then ignored.
    pub fn emit_event(&self, event: Event) {
        let mut guard = self.sink.lock().expect("telemetry sink poisoned");
        if let Some(w) = guard.as_mut() {
            let line = event.to_json_line();
            if writeln!(w, "{line}").is_err() {
                eprintln!("[telemetry] JSONL sink write failed; disabling sink");
                *guard = None;
            }
        }
    }

    /// Convenience: build and emit an event stamped with the current time.
    pub fn emit(&self, kind: &'static str, name: &str, value: f64, labels: &[(&str, String)]) {
        if !self.has_sink() {
            return;
        }
        self.emit_event(Event {
            ts: unix_ts(),
            kind,
            name: name.to_string(),
            value,
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        });
    }

    /// Emit the current value of every registered metric as `counter` /
    /// `gauge` / `histogram` events, then flush the sink. Histograms emit
    /// `<name>.count`, `<name>.mean`, `<name>.p50`, and `<name>.p99`.
    pub fn flush(&self) {
        if !self.has_sink() {
            return;
        }
        let snapshot: Vec<Event> = {
            let ts = unix_ts();
            let m = self.metrics.lock().expect("telemetry registry poisoned");
            let mut events = Vec::new();
            for (name, c) in &m.counters {
                events.push(Event {
                    ts,
                    kind: "counter",
                    name: name.clone(),
                    value: c.get() as f64,
                    labels: Vec::new(),
                });
            }
            for (name, g) in &m.gauges {
                events.push(Event {
                    ts,
                    kind: "gauge",
                    name: name.clone(),
                    value: g.get(),
                    labels: Vec::new(),
                });
            }
            for (name, h) in &m.histograms {
                for (suffix, value) in [
                    ("count", h.count() as f64),
                    ("mean", h.mean()),
                    ("p50", h.quantile(0.5).unwrap_or(0.0)),
                    ("p99", h.quantile(0.99).unwrap_or(0.0)),
                ] {
                    events.push(Event {
                        ts,
                        kind: "histogram",
                        name: format!("{name}.{suffix}"),
                        value,
                        labels: Vec::new(),
                    });
                }
            }
            events
        };
        for e in snapshot {
            self.emit_event(e);
        }
        if let Some(w) = self.sink.lock().expect("telemetry sink poisoned").as_mut() {
            let _ = w.flush();
        }
    }

    /// Point-in-time structured snapshot of every registered metric, for
    /// machine-readable export (e.g. a server's `/v1/metrics` endpoint).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let m = self.metrics.lock().expect("telemetry registry poisoned");
        MetricsSnapshot {
            ts: unix_ts(),
            counters: m
                .counters
                .iter()
                .map(|(n, c)| (n.clone(), c.get()))
                .collect(),
            gauges: m.gauges.iter().map(|(n, g)| (n.clone(), g.get())).collect(),
            histograms: m
                .histograms
                .iter()
                .map(|(n, h)| (n.clone(), HistogramSummary::of(h)))
                .collect(),
        }
    }

    /// Prometheus text exposition (format version 0.0.4) of every registered
    /// metric. Dotted names become underscore-separated with an `atena_`
    /// namespace prefix; histograms expose full cumulative `_bucket{le=...}`
    /// series plus `_sum` and `_count`.
    ///
    /// Serve with content type `text/plain; version=0.0.4`.
    pub fn render_prometheus(&self) -> String {
        let m = self.metrics.lock().expect("telemetry registry poisoned");
        let mut out = String::new();
        for (name, c) in &m.counters {
            let n = prometheus_name(name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {}\n", c.get()));
        }
        for (name, g) in &m.gauges {
            let n = prometheus_name(name);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {}\n", g.get()));
        }
        for (name, h) in &m.histograms {
            let n = prometheus_name(name);
            out.push_str(&format!("# TYPE {n} histogram\n"));
            let mut cumulative = 0u64;
            for (i, bucket) in h.bucket_counts().into_iter().enumerate() {
                cumulative += bucket;
                match Histogram::bucket_bound(i) {
                    Some(bound) => {
                        out.push_str(&format!("{n}_bucket{{le=\"{bound}\"}} {cumulative}\n"))
                    }
                    None => out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {cumulative}\n")),
                }
            }
            out.push_str(&format!("{n}_sum {}\n", h.sum()));
            out.push_str(&format!("{n}_count {}\n", h.count()));
        }
        out
    }
}

/// Map a dotted metric name onto the Prometheus grammar
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`, namespaced under `atena_`.
fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 6);
    out.push_str("atena_");
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() || ch == '_' || ch == ':' {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

impl Drop for MetricsRegistry {
    fn drop(&mut self) {
        if let Ok(mut guard) = self.sink.lock() {
            if let Some(w) = guard.as_mut() {
                let _ = w.flush();
            }
        }
    }
}

/// Aggregate view of one histogram at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Mean of recorded samples (0 when empty).
    pub mean: f64,
    /// Smallest sample (0 when empty).
    pub min: f64,
    /// Largest sample (0 when empty).
    pub max: f64,
    /// Approximate 50th percentile (0 when empty).
    pub p50: f64,
    /// Approximate 95th percentile (0 when empty).
    pub p95: f64,
    /// Approximate 99th percentile (0 when empty).
    pub p99: f64,
}

impl HistogramSummary {
    fn of(h: &Histogram) -> Self {
        Self {
            count: h.count(),
            mean: h.mean(),
            min: h.min().unwrap_or(0.0),
            max: h.max().unwrap_or(0.0),
            p50: h.quantile(0.5).unwrap_or(0.0),
            p95: h.quantile(0.95).unwrap_or(0.0),
            p99: h.quantile(0.99).unwrap_or(0.0),
        }
    }
}

/// A point-in-time copy of every metric in a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Unix timestamp the snapshot was taken at.
    pub ts: f64,
    /// Counter name → total, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge name → value, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram name → summary, sorted by name.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl MetricsSnapshot {
    /// Counter total by exact name (`None` when absent).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Histogram summary by exact name (`None` when absent).
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

static GLOBAL: OnceLock<Arc<MetricsRegistry>> = OnceLock::new();

/// The process-wide registry. The CLI attaches sinks here; library code
/// records here by default.
pub fn global() -> &'static MetricsRegistry {
    GLOBAL.get_or_init(|| Arc::new(MetricsRegistry::new()))
}

/// A clonable handle on the process-wide registry, for code that stores a
/// registry (e.g. a trainer that accepts a private one in tests).
pub fn global_arc() -> Arc<MetricsRegistry> {
    Arc::clone(GLOBAL.get_or_init(|| Arc::new(MetricsRegistry::new())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vmrss_parses_proc_status_format() {
        let status = "Name:\tatena\nVmPeak:\t  123 kB\nVmRSS:\t    2048 kB\nThreads:\t4\n";
        assert_eq!(vmrss_kb(status), Some(2048));
        assert_eq!(vmrss_kb("Name:\tatena\n"), None);
    }

    #[test]
    fn rss_probe_reports_a_sane_value_on_linux() {
        // Non-Linux platforms have no /proc; the probe opts out cleanly
        // with `None`.
        if let Some(rss) = rss_bytes() {
            // A running test process holds at least a few hundred KiB and
            // (being a test binary) far less than a terabyte.
            assert!(rss > (1 << 18) && rss < (1u64 << 40), "rss {rss}");
        }
    }

    #[test]
    fn level_parsing_and_ordering() {
        assert_eq!(Level::parse("INFO"), Some(Level::Info));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("nope"), None);
        assert!(Level::Error < Level::Debug);
    }

    #[test]
    fn counters_and_gauges() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("x");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("x").get(), 5);
        let g = reg.gauge("t");
        g.set(-2.5);
        assert_eq!(reg.gauge("t").get(), -2.5);
    }

    #[test]
    fn histogram_bucketing() {
        assert_eq!(Histogram::bucket_index(0.0), 0);
        assert_eq!(Histogram::bucket_index(1e-9), 0);
        assert_eq!(Histogram::bucket_index(1e-7), 0);
        // Just above a bound lands in the next bucket.
        assert_eq!(Histogram::bucket_index(1.01e-7), 1);
        assert_eq!(Histogram::bucket_index(1e9), HISTOGRAM_BUCKETS);
        let h = Histogram::default();
        h.record(0.5);
        h.record(1.5);
        assert_eq!(h.count(), 2);
        assert!((h.mean() - 1.0).abs() < 1e-12);
        assert_eq!(h.min(), Some(0.5));
        assert_eq!(h.max(), Some(1.5));
    }

    #[test]
    fn concurrent_counter_increments_are_lossless() {
        let reg = Arc::new(MetricsRegistry::new());
        let threads = 8;
        let per_thread = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    let c = reg.counter("shared");
                    for _ in 0..per_thread {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.counter("shared").get(), threads as u64 * per_thread);
    }

    #[test]
    fn snapshot_captures_all_metric_kinds() {
        let reg = MetricsRegistry::new();
        reg.counter("reqs").add(3);
        reg.gauge("temp").set(0.5);
        let h = reg.histogram("lat");
        for v in [0.001, 0.002, 0.004] {
            h.record(v);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("reqs"), Some(3));
        assert_eq!(snap.counter("absent"), None);
        assert_eq!(snap.gauges, vec![("temp".to_string(), 0.5)]);
        let lat = snap.histogram("lat").unwrap();
        assert_eq!(lat.count, 3);
        assert!(lat.p50 > 0.0 && lat.p50 <= lat.p95 && lat.p95 <= lat.p99);
        assert!((lat.mean - 0.007 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn jsonl_sink_round_trips_events() {
        let dir = std::env::temp_dir().join("atena-telemetry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.jsonl");
        let reg = MetricsRegistry::new();
        reg.set_jsonl_sink(&path).unwrap();
        assert!(reg.has_sink());
        reg.emit(
            "iteration",
            "train.policy_loss",
            0.125,
            &[("iter", "3".to_string())],
        );
        reg.counter("env.op.filter").add(2);
        reg.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 2, "expected >=2 lines, got:\n{text}");
        // Every line parses as one JSON object with the stable field set.
        for line in &lines {
            for field in [
                "\"ts\":",
                "\"kind\":",
                "\"name\":",
                "\"value\":",
                "\"labels\":",
            ] {
                assert!(line.contains(field), "missing {field} in {line}");
            }
        }
        assert!(lines[0].contains("\"train.policy_loss\""));
        assert!(lines[0].contains("\"value\":0.125"));
        assert!(lines[0].contains("\"iter\":\"3\""));
        assert!(text.contains("\"env.op.filter\""));
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let reg = MetricsRegistry::new();
        reg.counter("server.http.requests").add(7);
        reg.gauge("decode.temperature").set(0.001);
        let h = reg.histogram("server.http.latency_secs");
        h.record(0.002);
        h.record(0.004);
        h.record(1e9); // overflow bucket
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE atena_server_http_requests counter\n"));
        assert!(text.contains("atena_server_http_requests 7\n"));
        assert!(text.contains("# TYPE atena_decode_temperature gauge\n"));
        assert!(text.contains("atena_decode_temperature 0.001\n"));
        assert!(text.contains("# TYPE atena_server_http_latency_secs histogram\n"));
        assert!(text.contains("atena_server_http_latency_secs_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("atena_server_http_latency_secs_count 3\n"));
        // Cumulative buckets never decrease and end at the total count.
        let mut last = 0u64;
        let mut inf_seen = false;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("atena_server_http_latency_secs_bucket") {
                let v: u64 = rest.rsplit(' ').next().unwrap().parse().unwrap();
                assert!(v >= last, "cumulative bucket decreased: {line}");
                last = v;
                inf_seen = rest.contains("+Inf");
            }
        }
        assert!(inf_seen, "+Inf bucket must come last");
        assert_eq!(last, 3);
        // Every non-comment line is `name{labels} value` or `name value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').unwrap();
            assert!(value.parse::<f64>().is_ok(), "bad value in {line}");
            let bare = name.split('{').next().unwrap();
            assert!(
                bare.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name in {line}"
            );
        }
    }

    #[test]
    fn event_json_line_schema() {
        let e = Event {
            ts: 12.5,
            kind: "counter",
            name: "env.\"steps\"".to_string(),
            value: 3.0,
            labels: vec![("phase".to_string(), "rollout\n".to_string())],
        };
        assert_eq!(
            e.to_json_line(),
            "{\"ts\":12.5,\"kind\":\"counter\",\"name\":\"env.\\\"steps\\\"\",\
             \"value\":3,\"labels\":{\"phase\":\"rollout\\n\"}}"
        );
    }
}
