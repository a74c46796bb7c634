//! The metrics the benchmark reports, and the result line it prints.

use crate::spans::Spans;
use crate::stats::Tail;
use std::collections::BTreeMap;

/// An end-to-end metric: name, unit, which direction is better.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

/// Every end-to-end metric, reported by every untraced run.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        better: "higher",
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: "lower",
    },
    EndToEnd {
        name: "latency_tail_ms",
        unit: "ms",
        better: "lower",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
    },
    EndToEnd {
        name: "rss_mb",
        unit: "MiB",
        better: "lower",
    },
];

/// A per-layer metric of the traced run.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Spans whose mean duration the metric is, scaled to `unit`; empty
    /// for metrics computed another way.
    pub spans: &'static [&'static str],
    /// Workloads and end-to-end metrics a change to this layer should move.
    pub moves: &'static str,
    /// Those it should leave unmoved.
    pub holds: &'static str,
}

const SERVE_P50: &str = "serve latency_p50_ms";

/// Every per-layer metric, reported by every traced run (0 on a workload
/// that never reaches the layer).
pub const LAYERS: &[Layer] = &[
    Layer {
        name: "server.ttfb_ms",
        unit: "ms",
        better: "lower",
        spans: &["server.ttfb"],
        moves: "serve latency_p50_ms, throughput_per_s; upload latency_p50_ms",
        holds: "train",
    },
    Layer {
        name: "server.body_gap_ms",
        unit: "ms",
        better: "lower",
        spans: &["server.body_gap"],
        moves: "serve latency_p50_ms, throughput_per_s; upload latency_p50_ms",
        holds: "train",
    },
    Layer {
        name: "server.parse_us",
        unit: "us",
        better: "lower",
        spans: &["server.parse"],
        moves: "serve latency_p50_ms, throughput_per_s; upload latency_p50_ms",
        holds: "train",
    },
    Layer {
        name: "server.response_cache.hit_share",
        unit: "share",
        better: "higher",
        spans: &[],
        moves: "serve latency_p50_ms, throughput_per_s",
        holds: "train",
    },
    Layer {
        name: "engine.decode_ms",
        unit: "ms",
        better: "lower",
        spans: &["engine.decode"],
        moves: "serve latency_tail_ms, throughput_per_s; upload latency_p50_ms, latency_tail_ms",
        holds: "train",
    },
    Layer {
        name: "core.replay_ms",
        unit: "ms",
        better: "lower",
        spans: &["core.replay"],
        moves: "serve latency_tail_ms, throughput_per_s; upload latency_p50_ms, latency_tail_ms",
        holds: "train",
    },
    Layer {
        name: "registry.parse_ms",
        unit: "ms",
        better: "lower",
        spans: &["registry.parse"],
        moves: "upload latency_p50_ms, throughput_per_s, rss_mb",
        holds: "train, serve",
    },
    Layer {
        name: "registry.parse_mb_per_s",
        unit: "MiB/s",
        better: "higher",
        spans: &[],
        moves: "upload latency_p50_ms, throughput_per_s",
        holds: "train, serve",
    },
    Layer {
        name: "registry.insert_ms",
        unit: "ms",
        better: "lower",
        spans: &["registry.insert"],
        moves: "upload latency_p50_ms, throughput_per_s",
        holds: "train, serve",
    },
    Layer {
        name: "registry.delete_ms",
        unit: "ms",
        better: "lower",
        spans: &["registry.delete"],
        moves: "upload throughput_per_s",
        holds: "train, serve",
    },
    Layer {
        name: "registry.resident_mb",
        unit: "MiB",
        better: "lower",
        spans: &[],
        moves: "upload rss_mb",
        holds: "train, serve",
    },
    Layer {
        name: "rl.collect_ms",
        unit: "ms",
        better: "lower",
        spans: &["rl.collect"],
        moves: "train throughput_per_s, latency_p50_ms",
        holds: "serve, upload",
    },
    Layer {
        name: "rl.ppo_update_ms",
        unit: "ms",
        better: "lower",
        spans: &["rl.ppo_update"],
        moves: "train throughput_per_s, latency_p50_ms",
        holds: "serve, upload",
    },
    Layer {
        name: "runtime.worker_busy_share",
        unit: "share",
        better: "higher",
        spans: &[],
        moves: "train throughput_per_s",
        holds: "serve, upload",
    },
    Layer {
        name: "runtime.merge_ms",
        unit: "ms",
        better: "lower",
        spans: &[],
        moves: "train throughput_per_s",
        holds: "serve, upload",
    },
    Layer {
        name: "nn.act_us",
        unit: "us",
        better: "lower",
        spans: &["nn.act"],
        moves: "train throughput_per_s; serve latency_tail_ms",
        holds: SERVE_P50,
    },
    Layer {
        name: "env.observation_us",
        unit: "us",
        better: "lower",
        spans: &["env.observation"],
        moves: "train throughput_per_s; serve latency_tail_ms; upload latency_p50_ms",
        holds: SERVE_P50,
    },
    Layer {
        name: "env.reset_us",
        unit: "us",
        better: "lower",
        spans: &["env.reset"],
        moves: "upload latency_p50_ms; train throughput_per_s",
        holds: SERVE_P50,
    },
    Layer {
        name: "env.resolve_us",
        unit: "us",
        better: "lower",
        spans: &["env.resolve"],
        moves: "train throughput_per_s; serve latency_tail_ms; upload latency_p50_ms",
        holds: SERVE_P50,
    },
    Layer {
        name: "env.preview_hit_us",
        unit: "us",
        better: "lower",
        spans: &["env.preview_hit"],
        moves: "train throughput_per_s; serve latency_tail_ms",
        holds: SERVE_P50,
    },
    Layer {
        name: "env.preview_miss_us",
        unit: "us",
        better: "lower",
        spans: &["dataframe.filter", "dataframe.group"],
        moves: "train throughput_per_s; serve latency_tail_ms; upload latency_p50_ms",
        holds: SERVE_P50,
    },
    Layer {
        name: "env.commit_us",
        unit: "us",
        better: "lower",
        spans: &["env.commit"],
        moves: "train throughput_per_s; serve latency_tail_ms; upload latency_p50_ms",
        holds: SERVE_P50,
    },
    Layer {
        name: "env.display_cache.hit_share",
        unit: "share",
        better: "higher",
        spans: &[],
        moves: "train throughput_per_s; serve latency_tail_ms",
        holds: SERVE_P50,
    },
    Layer {
        name: "env.display_cache.evictions",
        unit: "per_1k_lookups",
        better: "lower",
        spans: &[],
        moves: "train throughput_per_s; serve latency_tail_ms",
        holds: SERVE_P50,
    },
    Layer {
        name: "dataframe.filter_ms",
        unit: "ms",
        better: "lower",
        spans: &["dataframe.filter"],
        moves: "train throughput_per_s; upload latency_p50_ms",
        holds: SERVE_P50,
    },
    Layer {
        name: "dataframe.group_ms",
        unit: "ms",
        better: "lower",
        spans: &["dataframe.group"],
        moves: "train throughput_per_s; upload latency_p50_ms",
        holds: SERVE_P50,
    },
    Layer {
        name: "reward.score_us",
        unit: "us",
        better: "lower",
        spans: &["reward.score"],
        moves: "train throughput_per_s",
        holds: "serve, upload (decode never scores)",
    },
    Layer {
        name: "reward.interestingness_us",
        unit: "us",
        better: "lower",
        spans: &["reward.interestingness"],
        moves: "train throughput_per_s",
        holds: "serve, upload (decode never scores)",
    },
    Layer {
        name: "reward.diversity_us",
        unit: "us",
        better: "lower",
        spans: &["reward.diversity"],
        moves: "train throughput_per_s",
        holds: "serve, upload (decode never scores)",
    },
    Layer {
        name: "reward.coherency_us",
        unit: "us",
        better: "lower",
        spans: &["reward.coherency"],
        moves: "train throughput_per_s",
        holds: "serve, upload (decode never scores)",
    },
    Layer {
        name: "setup.data_s",
        unit: "s",
        better: "lower",
        spans: &[],
        moves: "setup_s of its workload",
        holds: "-",
    },
    Layer {
        name: "setup.reward_fit_s",
        unit: "s",
        better: "lower",
        spans: &[],
        moves: "train setup_s",
        holds: "-",
    },
    Layer {
        name: "setup.engine_s",
        unit: "s",
        better: "lower",
        spans: &[],
        moves: "setup_s of its workload",
        holds: "-",
    },
    Layer {
        name: "trace.overhead_share",
        unit: "share",
        better: "lower",
        spans: &[],
        moves: "none (end-to-end runs are untraced)",
        holds: "all",
    },
    Layer {
        name: "trace.coverage_share",
        unit: "share",
        better: "higher",
        spans: &[],
        moves: "none (end-to-end runs are untraced)",
        holds: "all",
    },
];

/// Seconds-to-unit factor for span-derived metrics.
fn scale(unit: &str) -> f64 {
    match unit {
        "us" => 1e6,
        "ms" => 1e3,
        _ => 1.0,
    }
}

/// Metric values of one run, with the notes printed beside them.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
    tails: BTreeMap<&'static str, Tail>,
    notes: Vec<String>,
    /// The traced run's spans, printed as a self-time table.
    pub spans: Option<Spans>,
}

impl Metrics {
    /// Set a metric's value.
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Set a tail metric, keeping its percentile and sample count.
    pub fn put_tail(&mut self, name: &'static str, tail: Option<Tail>) {
        if let Some(t) = tail {
            self.values.insert(name, t.value);
            self.tails.insert(name, t);
        }
    }

    /// Add a line printed with the metrics.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Mean duration of the named spans, scaled to the layer's unit.
    fn put_span_mean(&mut self, layer: &Layer, spans: &Spans) {
        let (mut secs, mut count) = (0.0, 0u64);
        for name in layer.spans {
            let s = spans.get(name);
            secs += s.total_secs;
            count += s.count;
        }
        if count > 0 {
            self.put(layer.name, secs / count as f64 * scale(layer.unit));
        }
    }

    /// Every span-derived layer metric that `spans` recorded.
    pub fn put_layer_spans(&mut self, spans: &Spans) {
        for layer in LAYERS.iter().filter(|l| !l.spans.is_empty()) {
            self.put_span_mean(layer, spans);
        }
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// What a run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output checks that failed.
    pub errors: Vec<String>,
    /// Measured values.
    pub metrics: Metrics,
}

impl Outcome {
    /// Record a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.errors.push(what.to_string());
        }
    }

    /// Print the human-readable report and the result line; returns
    /// whether every output check passed.
    pub fn print(&mut self, workload: &str, trace: bool) -> bool {
        let m = &self.metrics;
        println!("workload {workload}  (trace {})", u8::from(trace));
        for note in &m.notes {
            println!("  {note}");
        }
        println!("end-to-end:");
        for e in END_TO_END {
            let Some(v) = m.get(e.name) else {
                self.errors
                    .push(format!("end-to-end metric {} was not measured", e.name));
                continue;
            };
            match m.tails.get(e.name) {
                Some(t) => println!(
                    "  {:<34} {v:>14.4} {:<6} {:<6} (p{:.2}, {} samples, {} beyond)",
                    e.name, e.unit, e.better, t.percentile, t.samples, t.beyond
                ),
                None => println!("  {:<34} {v:>14.4} {:<6} {:<6}", e.name, e.unit, e.better),
            }
        }
        if trace {
            println!("per-layer (traced run):");
            for l in LAYERS {
                match m.get(l.name) {
                    Some(v) => println!(
                        "  {:<34} {v:>14.4} {:<14} {:<6} moves: {}; holds: {}",
                        l.name, l.unit, l.better, l.moves, l.holds
                    ),
                    None => println!(
                        "  {:<34} {:>14} {:<14} not reached by this workload",
                        l.name, 0, l.unit
                    ),
                }
            }
        }
        if let Some(spans) = &m.spans {
            println!("spans (self time):");
            println!(
                "  {:<26} {:>10} {:>14} {:>14}",
                "span", "count", "self_total_ms", "self_mean_us"
            );
            for (name, s) in spans.iter() {
                println!(
                    "  {name:<26} {:>10} {:>14.3} {:>14.3}",
                    s.count,
                    s.self_secs * 1e3,
                    s.mean_self() * 1e6
                );
            }
        }
        for e in &self.errors {
            println!("CHECK FAILED: {e}");
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.errors.is_empty(),
            self.attempted.max(1),
            self.failed
        );
        let entries: Vec<(&str, &str, f64)> = if trace {
            LAYERS
                .iter()
                .map(|l| (l.name, l.unit, m.get(l.name).unwrap_or(0.0)))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|e| (e.name, e.unit, m.get(e.name).unwrap_or(0.0)))
                .collect()
        };
        for (i, (name, unit, value)) in entries.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            if i > 0 {
                json.push_str(", ");
            }
            json.push_str(&format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        json.push_str("}}");
        println!("{json}");
        self.errors.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly these metrics.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let expected: Vec<(String, String, String)> = END_TO_END
            .iter()
            .map(|e| (e.name.into(), e.unit.into(), e.better.into()))
            .collect();
        assert_eq!(names("end_to_end"), expected);
        let expected: Vec<(String, String, String)> = LAYERS
            .iter()
            .map(|l| (l.name.into(), l.unit.into(), l.better.into()))
            .collect();
        assert_eq!(names("per_layer"), expected);
    }
}
