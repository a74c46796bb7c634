//! Shared support for the experiment driver binaries: system-under-test
//! enumeration, scaled-down default schedules, table formatting, and JSON
//! result dumps.
//!
//! The paper trains for 2.5M steps over 6–11 hours on a 24-core Xeon
//! (§6.4); the drivers here default to a schedule of a few thousand steps
//! per learned system, which preserves the qualitative shape of every
//! result (baseline ordering, convergence ranking). Scale up with the
//! `ATENA_TRAIN_STEPS` environment variable.

#![forbid(unsafe_code)]

use atena_core::{Atena, AtenaConfig, GenerationResult, Notebook, Strategy};
use atena_data::{simulate_traces, ExperimentalDataset, TraceConfig};
use atena_env::EnvConfig;
use atena_rl::TrainerConfig;
use serde::Serialize;
use std::io::Write as _;
use std::path::PathBuf;

/// Every system the experiments compare: the six generation strategies plus
/// the two human-derived baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum System {
    /// One of the auto-generation strategies.
    Generated(Strategy),
    /// Gold-standard notebooks (curated; the quality upper bound).
    GoldStandard,
    /// Notebooks replayed from (simulated) analyst traces.
    EdaTraces,
}

impl System {
    /// Display name as it appears in the paper's tables/figures.
    pub fn name(&self) -> &'static str {
        match self {
            System::Generated(s) => s.name(),
            System::GoldStandard => "Gold-Standard",
            System::EdaTraces => "EDA-Traces",
        }
    }
}

/// Experiment scale knobs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Training steps per learned system per dataset.
    pub train_steps: usize,
    /// Episode length (notebook size).
    pub episode_len: usize,
    /// Rollout workers.
    pub n_workers: usize,
    /// Random-probe steps for reward calibration.
    pub probe_steps: usize,
}

impl Scale {
    /// The default reduced schedule, overridable via `ATENA_TRAIN_STEPS`.
    pub fn from_env() -> Scale {
        let train_steps = std::env::var("ATENA_TRAIN_STEPS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(10_000);
        Scale {
            train_steps,
            episode_len: 12,
            n_workers: 4,
            probe_steps: 300,
        }
    }

    /// A tiny schedule for smoke tests.
    pub fn smoke() -> Scale {
        Scale {
            train_steps: 600,
            episode_len: 6,
            n_workers: 2,
            probe_steps: 100,
        }
    }

    /// The [`AtenaConfig`] realizing this scale.
    pub fn config(&self, seed: u64) -> AtenaConfig {
        AtenaConfig {
            env: EnvConfig {
                episode_len: self.episode_len,
                n_bins: 10,
                history_window: 3,
                seed,
            },
            trainer: TrainerConfig {
                // Lanes track the worker knob so experiment scale is
                // unchanged; extra threads beyond lanes would idle anyway.
                n_lanes: self.n_workers,
                n_workers: self.n_workers,
                rollout_len: 96,
                seed,
                ..Default::default()
            },
            train_steps: self.train_steps,
            probe_steps: self.probe_steps,
            hidden: [128, 128],
            flat_term_cap: 10,
        }
    }
}

/// Generate notebooks for one system on one dataset. For learned/greedy
/// systems this trains/searches (one notebook); for gold/traces it replays
/// the whole set.
pub fn generate_for(
    system: System,
    dataset: &ExperimentalDataset,
    scale: &Scale,
    seed: u64,
) -> Vec<Notebook> {
    match system {
        System::Generated(strategy) => {
            let result = run_strategy(strategy, dataset, scale, seed);
            vec![result.notebook]
        }
        System::GoldStandard => dataset
            .gold_standards
            .iter()
            .map(|g| Notebook::replay(&dataset.spec.name, &dataset.frame, g))
            .collect(),
        System::EdaTraces => {
            let traces = simulate_traces(
                dataset,
                3,
                TraceConfig {
                    length: scale.episode_len,
                    seed,
                    ..Default::default()
                },
            );
            traces
                .iter()
                .map(|t| Notebook::replay(&dataset.spec.name, &dataset.frame, t))
                .collect()
        }
    }
}

/// Run one generation strategy, returning the full result (with curve).
pub fn run_strategy(
    strategy: Strategy,
    dataset: &ExperimentalDataset,
    scale: &Scale,
    seed: u64,
) -> GenerationResult {
    Atena::new(dataset.spec.name.clone(), dataset.frame.clone())
        .with_focal_attrs(dataset.focal_attrs())
        .with_config(scale.config(seed))
        .with_strategy(strategy)
        .generate()
}

/// Render an aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let headers: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&headers, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1))));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Write an experiment's JSON record under `target/experiments/`.
pub fn dump_json<T: Serialize>(name: &str, value: &T) -> std::io::Result<PathBuf> {
    let dir =
        PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string()))
            .join("experiments");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    let mut file = std::fs::File::create(&path)?;
    file.write_all(
        serde_json::to_string_pretty(value)
            .expect("serializable")
            .as_bytes(),
    )?;
    Ok(path)
}

/// Format a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Set up telemetry for an experiment driver. The log level comes from
/// `$ATENA_LOG` (default info); when `$ATENA_METRICS_OUT` names a file, all
/// training telemetry streams there as JSONL (same schema as the CLI's
/// `--metrics-out`).
pub fn init_telemetry(bin: &str) {
    if let Ok(path) = std::env::var("ATENA_METRICS_OUT") {
        if !path.is_empty() {
            match atena_telemetry::global().set_jsonl_sink(std::path::Path::new(&path)) {
                Ok(()) => atena_telemetry::info!("[{bin}] streaming telemetry to {path}"),
                Err(e) => atena_telemetry::warn!("[{bin}] cannot open {path}: {e}"),
            }
        }
    }
}

/// Flush aggregate counters/gauges/histograms to the JSONL sink (no-op
/// without one) at the end of a driver run.
pub fn finish_telemetry() {
    atena_telemetry::global().flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use atena_data::cyber2;

    #[test]
    fn table_rendering_aligns() {
        let t = render_table(
            &["name", "score"],
            &[
                vec!["ATENA".into(), "0.46".into()],
                vec!["Greedy-IO".into(), "0.23".into()],
            ],
        );
        assert!(t.contains("ATENA"));
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn gold_and_trace_generation() {
        let d = cyber2();
        let scale = Scale::smoke();
        let golds = generate_for(System::GoldStandard, &d, &scale, 0);
        assert_eq!(golds.len(), d.gold_standards.len());
        let traces = generate_for(System::EdaTraces, &d, &scale, 0);
        assert_eq!(traces.len(), 3);
        for t in &traces {
            assert_eq!(t.len(), scale.episode_len);
        }
    }

    #[test]
    fn greedy_system_generation() {
        let d = cyber2();
        let scale = Scale::smoke();
        let nbs = generate_for(System::Generated(Strategy::GreedyCr), &d, &scale, 0);
        assert_eq!(nbs.len(), 1);
        assert_eq!(nbs[0].len(), scale.episode_len);
    }

    #[test]
    fn system_names() {
        assert_eq!(System::GoldStandard.name(), "Gold-Standard");
        assert_eq!(System::Generated(Strategy::Atena).name(), "ATENA");
    }
}
