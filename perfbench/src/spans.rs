//! Spans recorded around the benchmark's calls into each layer.
//!
//! A [`Spans`] recorder belongs to one thread. Spans nest: the self time of
//! a span is its duration minus the time its child spans cover. Recorders
//! from worker threads are merged into one after the work is joined.

use crate::now;
use atena_env::ResolvedOp;
use std::collections::BTreeMap;
use std::time::Instant;

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStat {
    /// Spans closed under this name.
    pub count: u64,
    /// Summed duration, seconds.
    pub total_secs: f64,
    /// Summed self time (duration minus children), seconds.
    pub self_secs: f64,
}

impl SpanStat {
    /// Mean self time per span, seconds (0 when none closed).
    pub fn mean_self(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_secs / self.count as f64
        }
    }

    fn add(&mut self, other: SpanStat) {
        self.count += other.count;
        self.total_secs += other.total_secs;
        self.self_secs += other.self_secs;
    }
}

struct Open {
    name: &'static str,
    start: Instant,
    children_secs: f64,
}

/// A span recorder for one thread.
#[derive(Default)]
pub struct Spans {
    open: Vec<Open>,
    stats: BTreeMap<&'static str, SpanStat>,
    /// Summed duration and self time of the outermost spans.
    roots: SpanStat,
}

impl Spans {
    /// Open a span; it becomes the parent of spans opened before its
    /// matching [`Spans::exit`].
    pub fn enter(&mut self, name: &'static str) {
        self.open.push(Open {
            name,
            start: now(),
            children_secs: 0.0,
        });
    }

    /// Close the innermost open span; returns its duration in seconds.
    pub fn exit(&mut self) -> f64 {
        let open = self.open.pop().expect("exit without a matching enter");
        let secs = open.start.elapsed().as_secs_f64();
        self.close(open.name, secs, open.children_secs);
        secs
    }

    /// Time `f` as a leaf span.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Record a span measured elsewhere (for example from client-side
    /// timestamps) as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, secs: f64) {
        self.close(name, secs, 0.0);
    }

    fn close(&mut self, name: &'static str, secs: f64, children_secs: f64) {
        let own = SpanStat {
            count: 1,
            total_secs: secs,
            self_secs: (secs - children_secs).max(0.0),
        };
        self.stats.entry(name).or_default().add(own);
        match self.open.last_mut() {
            Some(parent) => parent.children_secs += secs,
            None => self.roots.add(own),
        }
    }

    /// Fold another thread's closed spans into this recorder. Its
    /// outermost spans become children of the innermost open span, or
    /// outermost spans here when none is open.
    pub fn merge(&mut self, other: Spans) {
        assert!(other.open.is_empty(), "merging a recorder with open spans");
        for (name, stat) in other.stats {
            self.stats.entry(name).or_default().add(stat);
        }
        match self.open.last_mut() {
            Some(parent) => parent.children_secs += other.roots.total_secs,
            None => self.roots.add(other.roots),
        }
    }

    /// Totals for `name` (zero when never recorded).
    pub fn get(&self, name: &str) -> SpanStat {
        self.stats.get(name).copied().unwrap_or_default()
    }

    /// Every recorded span name with its totals, by name.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, SpanStat)> + '_ {
        self.stats.iter().map(|(name, stat)| (*name, *stat))
    }

    /// Share of the outermost spans' time that named child spans cover.
    pub fn coverage(&self) -> f64 {
        if self.roots.total_secs <= 0.0 {
            0.0
        } else {
            1.0 - self.roots.self_secs / self.roots.total_secs
        }
    }
}

/// Whether previewing `op` consults the display cache.
fn looks_up(op: &ResolvedOp) -> bool {
    match op {
        ResolvedOp::Back => false,
        ResolvedOp::Filter(p) => !p.term.is_null(),
        ResolvedOp::Group { .. } => true,
    }
}

/// The span a preview is recorded under: cache hits, misses split by the
/// dataframe operator they run, and previews that never look up.
pub fn preview_span(op: &ResolvedOp, hit: bool) -> &'static str {
    match op {
        _ if !looks_up(op) => "env.preview_other",
        _ if hit => "env.preview_hit",
        ResolvedOp::Group { .. } => "dataframe.group",
        _ => "dataframe.filter",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::default();
        s.enter("root");
        s.record("child", 0.25);
        s.record("child", 0.25);
        std::thread::sleep(std::time::Duration::from_millis(600));
        let total = s.exit();
        let root = s.get("root");
        assert_eq!(root.count, 1);
        assert!((root.self_secs - (total - 0.5)).abs() < 1e-9);
        assert_eq!(s.get("child").count, 2);
        assert!((s.coverage() - 0.5 / total).abs() < 1e-9);
    }

    #[test]
    fn merge_adds_counts_and_roots() {
        let mut a = Spans::default();
        a.record("x", 1.0);
        let mut b = Spans::default();
        b.record("x", 2.0);
        a.merge(b);
        let x = a.get("x");
        assert_eq!((x.count, x.total_secs, x.self_secs), (2, 3.0, 3.0));
        assert_eq!(x.mean_self(), 1.5);
        // Leaf-only roots cover none of their own time.
        assert_eq!(a.coverage(), 0.0);
        assert_eq!(a.get("missing"), SpanStat::default());
    }

    #[test]
    fn merge_under_an_open_span_adds_children() {
        let mut lane = Spans::default();
        lane.record("lane", 0.25);
        let mut s = Spans::default();
        s.enter("collect");
        s.merge(lane);
        std::thread::sleep(std::time::Duration::from_millis(300));
        let total = s.exit();
        let collect = s.get("collect");
        assert!((collect.self_secs - (total - 0.25)).abs() < 1e-9);
        assert_eq!(s.get("lane").count, 1);
        // Only the open span became a root.
        assert!((s.coverage() - 0.25 / total).abs() < 1e-9);
    }

    #[test]
    fn preview_spans_split_misses_by_operator() {
        let filter = |term: atena_dataframe::Value| {
            ResolvedOp::Filter(atena_dataframe::Predicate {
                attr: "a".into(),
                op: atena_dataframe::CmpOp::ALL[0],
                term,
            })
        };
        let group = ResolvedOp::Group {
            key: "a".into(),
            func: atena_dataframe::AggFunc::ALL[0],
            agg: "b".into(),
        };
        let real = filter(atena_dataframe::Value::Int(3));
        assert_eq!(preview_span(&real, true), "env.preview_hit");
        assert_eq!(preview_span(&real, false), "dataframe.filter");
        assert_eq!(preview_span(&group, false), "dataframe.group");
        assert_eq!(preview_span(&ResolvedOp::Back, false), "env.preview_other");
        let empty = filter(atena_dataframe::Value::Null);
        assert_eq!(preview_span(&empty, false), "env.preview_other");
    }
}
