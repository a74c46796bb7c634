//! # atena-cli
//!
//! Argument parsing and command dispatch for the `atena` binary:
//!
//! ```text
//! atena generate <data.csv> [--focal col1,col2] [--steps N] [--episode-len N]
//!                           [--strategy atena|atn-io|ots-drl|ots-drl-b|greedy-cr|greedy-io]
//!                           [--seed N] [--out notebook.md] [--json notebook.json]
//!                           [--log-level L] [--metrics-out metrics.jsonl]
//! atena demo <dataset-id>   [same options]   # cyber1..cyber4, flights1..flights4
//! atena datasets                              # list the built-in datasets
//! atena train <dataset-id>  [--workers N] [--out <ckpt.json>] [--steps N] ...
//! atena checkpoint save <dataset-id> --out <ckpt.json> [--steps N] ...
//! atena checkpoint load <ckpt.json>           # validate + describe a checkpoint
//! atena serve --checkpoint <ckpt.json> [--addr A] [--workers N] [--cache-size N]
//!                           [--slow-ms N] [--timeout-ms N] [--trace-out traces.jsonl]
//! atena metrics summarize <metrics.jsonl> [--format text|json]
//! atena trace summarize <traces.jsonl>        # flame table of a span stream
//! atena help
//! ```
//!
//! Parsing is hand-rolled (the option surface is tiny) and fully unit
//! tested; the binary is a thin `main` over [`run`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use atena_core::{Atena, AtenaConfig, Strategy};
use atena_dataframe::DataFrame;
use std::fmt;
use std::time::Duration;

/// CLI errors, rendered to stderr by the binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// Bad usage; the message explains what was wrong.
    Usage(String),
    /// Runtime failure (I/O, parse, unknown dataset).
    Runtime(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}\n\n{USAGE}"),
            CliError::Runtime(m) => write!(f, "error: {m}"),
        }
    }
}

/// The usage banner.
pub const USAGE: &str = "\
atena — auto-generate EDA notebooks (SIGMOD'20 ATENA)

USAGE:
  atena generate <data.csv> [OPTIONS]   generate a notebook for a CSV file
  atena demo <dataset-id>   [OPTIONS]   run on a built-in experimental dataset
  atena datasets                        list built-in datasets
  atena datasets inspect <file.csv>...  print upload identity (id, schema)
  atena export <dataset-id> <file.csv>  write a built-in dataset as CSV
  atena train <dataset-id>  [OPTIONS]   train a policy on a built-in dataset
                                        (pass --out <ckpt.json> to save it)
  atena checkpoint save <dataset-id> --out <ckpt.json> [OPTIONS]
                                        train a policy, save it as a checkpoint
  atena checkpoint load <ckpt.json>     validate + describe a saved checkpoint
  atena serve --checkpoint <ckpt.json>  serve notebooks over HTTP
  atena metrics summarize <m.jsonl>     aggregate a telemetry JSONL file
  atena trace summarize <t.jsonl>       flame table of a trace JSONL file
  atena help                            show this help

SERVE OPTIONS:
  --addr <A>          bind address                 [default: 127.0.0.1:8080]
  --workers <N>       worker threads               [default: 4]
  --cache-size <N>    LRU response-cache entries   [default: 256]
  --slow-ms <N>       slow-request WARN threshold  [default: 500]
  --timeout-ms <N>    per-request I/O deadline (read budget and write
                      budget each; bounds slow-loris)  [default: 10000]
  --trace-out <f>     record request span trees to <f> as JSONL
  --registry-budget-mb <N>   upload-registry byte budget   [default: 256]
  --upload-max-mb <N>        per-upload CSV size cap       [default: 8]
  --tenant-max-inflight <N>  per-tenant in-flight cap      [default: 8]
  --tenant-quota-mb <N>      per-tenant resident quota     [default: 64]

METRICS SUMMARIZE OPTIONS:
  --format <F>        text | json                  [default: text]

OPTIONS:
  --focal <c1,c2>     focal attributes (columns of particular interest)
  --steps <N>         training steps                     [default: 8000]
  --episode-len <N>   operations per notebook            [default: 12]
  --strategy <S>      atena | atn-io | ots-drl | ots-drl-b |
                      greedy-cr | greedy-io              [default: atena]
  --seed <N>          random seed                        [default: 0]
  --workers <N>       rollout threads for training, each stepping its share
                      of the lanes through one batched policy forward per
                      step; changes speed, never results (DESIGN.md §4h/§4l)
                      [default: available parallelism]
  --out <file.md>     write the notebook as Markdown (default: stdout)
  --json <file.json>  also write the notebook summary as JSON
  --log-level <L>     error | warn | info | debug        [default: $ATENA_LOG or info]
  --metrics-out <f>   stream telemetry events to <f> as JSONL
  --trace-out <f>     record spans (training iterations) to <f> as JSONL
";

/// A parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Generate from a CSV path.
    Generate {
        /// CSV path.
        path: String,
        /// Common options.
        opts: GenerateOpts,
    },
    /// Generate for a built-in dataset.
    Demo {
        /// Dataset id (`cyber1` … `flights4`).
        id: String,
        /// Common options.
        opts: GenerateOpts,
    },
    /// List built-in datasets.
    Datasets,
    /// Export a built-in dataset as CSV.
    Export {
        /// Dataset id.
        id: String,
        /// Output path.
        path: String,
    },
    /// Train a policy on a built-in dataset (optionally saving it).
    Train {
        /// Dataset id (`cyber1` … `flights4`).
        id: String,
        /// Training options; `opts.out` (when set) is the checkpoint path.
        opts: GenerateOpts,
    },
    /// Aggregate a telemetry JSONL file into a per-metric table.
    MetricsSummarize {
        /// Path of the JSONL file written via `--metrics-out`.
        path: String,
        /// Output format (`--format text|json`).
        format: SummaryFormat,
    },
    /// Aggregate a trace JSONL file into a per-span-name flame table.
    TraceSummarize {
        /// Path of the JSONL file written via `--trace-out`.
        path: String,
    },
    /// Train a policy on a built-in dataset and save it as a checkpoint.
    CheckpointSave {
        /// Dataset id (`cyber1` … `flights4`).
        id: String,
        /// Checkpoint output path (from `--out`).
        out: String,
        /// Training options (focal/steps/episode-len/strategy/seed).
        opts: GenerateOpts,
    },
    /// Load, validate, and describe a saved checkpoint.
    CheckpointLoad {
        /// Checkpoint path.
        path: String,
    },
    /// Serve notebook generation over HTTP from a saved checkpoint.
    Serve {
        /// Checkpoint path.
        checkpoint: String,
        /// Trace JSONL output path (enables span recording when set).
        trace_out: Option<String>,
        /// The server's configuration: the library defaults with each
        /// given flag applied.
        config: atena_server::ServerConfig,
    },
    /// Offline registry inspection: parse CSV files exactly as an upload
    /// would and print their dataset identity and schema.
    DatasetsInspect {
        /// CSV paths to inspect.
        paths: Vec<String>,
    },
    /// Print usage.
    Help,
}

/// Output format for `metrics summarize`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SummaryFormat {
    /// Human-readable aligned table (the default).
    #[default]
    Text,
    /// One machine-readable JSON object.
    Json,
}

impl SummaryFormat {
    /// Parse a `--format` value.
    pub fn parse(s: &str) -> Result<Self, CliError> {
        match s.to_ascii_lowercase().as_str() {
            "text" => Ok(SummaryFormat::Text),
            "json" => Ok(SummaryFormat::Json),
            other => Err(CliError::Usage(format!(
                "unknown format {other:?} (expected text|json)"
            ))),
        }
    }
}

/// Options shared by `generate` and `demo`.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerateOpts {
    /// Focal attributes.
    pub focal: Vec<String>,
    /// Training steps.
    pub steps: usize,
    /// Episode length.
    pub episode_len: usize,
    /// Strategy.
    pub strategy: Strategy,
    /// Seed.
    pub seed: u64,
    /// Rollout threads for training (`None` = available parallelism).
    /// Execution-only: never affects results.
    pub workers: Option<usize>,
    /// Markdown output path (stdout when `None`).
    pub out: Option<String>,
    /// JSON output path.
    pub json: Option<String>,
    /// Log level override (`None` keeps `$ATENA_LOG` / the default).
    pub log_level: Option<atena_telemetry::Level>,
    /// Telemetry JSONL output path.
    pub metrics_out: Option<String>,
    /// Trace JSONL output path (enables span recording when set).
    pub trace_out: Option<String>,
}

impl Default for GenerateOpts {
    fn default() -> Self {
        Self {
            focal: Vec::new(),
            steps: 8_000,
            episode_len: 12,
            strategy: Strategy::Atena,
            seed: 0,
            workers: None,
            out: None,
            json: None,
            log_level: None,
            metrics_out: None,
            trace_out: None,
        }
    }
}

/// Parse a strategy name.
pub fn parse_strategy(s: &str) -> Result<Strategy, CliError> {
    match s.to_ascii_lowercase().as_str() {
        "atena" => Ok(Strategy::Atena),
        "atn-io" | "atnio" => Ok(Strategy::AtnIo),
        "ots-drl" | "otsdrl" => Ok(Strategy::OtsDrl),
        "ots-drl-b" | "otsdrlb" => Ok(Strategy::OtsDrlB),
        "greedy-cr" | "greedycr" => Ok(Strategy::GreedyCr),
        "greedy-io" | "greedyio" => Ok(Strategy::GreedyIo),
        other => Err(CliError::Usage(format!("unknown strategy {other:?}"))),
    }
}

fn parse_opts(args: &[String]) -> Result<GenerateOpts, CliError> {
    let mut opts = GenerateOpts::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |i: usize| -> Result<&String, CliError> {
            args.get(i + 1)
                .ok_or_else(|| CliError::Usage(format!("{flag} requires a value")))
        };
        match flag {
            "--focal" => {
                opts.focal = value(i)?.split(',').map(|s| s.trim().to_string()).collect();
                i += 2;
            }
            "--steps" => {
                opts.steps = value(i)?
                    .parse()
                    .map_err(|_| CliError::Usage("--steps expects an integer".into()))?;
                i += 2;
            }
            "--episode-len" => {
                opts.episode_len = value(i)?
                    .parse()
                    .map_err(|_| CliError::Usage("--episode-len expects an integer".into()))?;
                if opts.episode_len == 0 {
                    return Err(CliError::Usage("--episode-len must be positive".into()));
                }
                i += 2;
            }
            "--strategy" => {
                opts.strategy = parse_strategy(value(i)?)?;
                i += 2;
            }
            "--seed" => {
                opts.seed = value(i)?
                    .parse()
                    .map_err(|_| CliError::Usage("--seed expects an integer".into()))?;
                i += 2;
            }
            "--workers" => {
                opts.workers = Some(
                    value(i)?
                        .parse()
                        .map_err(|_| CliError::Usage("--workers expects an integer".into()))?,
                );
                i += 2;
            }
            "--out" => {
                opts.out = Some(value(i)?.clone());
                i += 2;
            }
            "--json" => {
                opts.json = Some(value(i)?.clone());
                i += 2;
            }
            "--log-level" => {
                let raw = value(i)?;
                opts.log_level = Some(atena_telemetry::Level::parse(raw).ok_or_else(|| {
                    CliError::Usage(format!(
                        "unknown log level {raw:?} (expected error|warn|info|debug)"
                    ))
                })?);
                i += 2;
            }
            "--metrics-out" => {
                opts.metrics_out = Some(value(i)?.clone());
                i += 2;
            }
            "--trace-out" => {
                opts.trace_out = Some(value(i)?.clone());
                i += 2;
            }
            other => return Err(CliError::Usage(format!("unknown option {other:?}"))),
        }
    }
    Ok(opts)
}

/// Parse a full argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    match args.first().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => Ok(Command::Help),
        Some("datasets") => match args.get(1).map(String::as_str) {
            None => Ok(Command::Datasets),
            Some("inspect") => {
                let paths: Vec<String> = args[2..].to_vec();
                if paths.is_empty() || paths.iter().any(|p| p.starts_with("--")) {
                    return Err(CliError::Usage(
                        "datasets inspect requires one or more CSV paths".into(),
                    ));
                }
                Ok(Command::DatasetsInspect { paths })
            }
            Some(other) => Err(CliError::Usage(format!(
                "datasets supports: (no args) | inspect <file.csv>...; got {other:?}"
            ))),
        },
        Some("export") => {
            let id = args
                .get(1)
                .ok_or_else(|| CliError::Usage("export requires a dataset id".into()))?
                .clone();
            let path = args
                .get(2)
                .ok_or_else(|| CliError::Usage("export requires an output path".into()))?
                .clone();
            Ok(Command::Export { id, path })
        }
        Some("generate") => {
            let path = args
                .get(1)
                .filter(|p| !p.starts_with("--"))
                .ok_or_else(|| CliError::Usage("generate requires a CSV path".into()))?
                .clone();
            Ok(Command::Generate {
                path,
                opts: parse_opts(&args[2..])?,
            })
        }
        Some("demo") => {
            let id = args
                .get(1)
                .filter(|p| !p.starts_with("--"))
                .ok_or_else(|| CliError::Usage("demo requires a dataset id".into()))?
                .clone();
            Ok(Command::Demo {
                id,
                opts: parse_opts(&args[2..])?,
            })
        }
        Some("train") => {
            let id = args
                .get(1)
                .filter(|p| !p.starts_with("--"))
                .ok_or_else(|| CliError::Usage("train requires a dataset id".into()))?
                .clone();
            let opts = parse_opts(&args[2..])?;
            if !opts.strategy.is_learned() {
                return Err(CliError::Usage(format!(
                    "strategy {} has no trainable policy",
                    opts.strategy.name()
                )));
            }
            Ok(Command::Train { id, opts })
        }
        Some("checkpoint") => match args.get(1).map(String::as_str) {
            Some("save") => {
                let id = args
                    .get(2)
                    .filter(|p| !p.starts_with("--"))
                    .ok_or_else(|| CliError::Usage("checkpoint save requires a dataset id".into()))?
                    .clone();
                let opts = parse_opts(&args[3..])?;
                let out = opts.out.clone().ok_or_else(|| {
                    CliError::Usage("checkpoint save requires --out <ckpt.json>".into())
                })?;
                if !opts.strategy.is_learned() {
                    return Err(CliError::Usage(format!(
                        "strategy {} has no trainable policy to checkpoint",
                        opts.strategy.name()
                    )));
                }
                Ok(Command::CheckpointSave { id, out, opts })
            }
            Some("load") => {
                let path = args
                    .get(2)
                    .ok_or_else(|| {
                        CliError::Usage("checkpoint load requires a checkpoint path".into())
                    })?
                    .clone();
                Ok(Command::CheckpointLoad { path })
            }
            _ => Err(CliError::Usage(
                "checkpoint supports: save <dataset-id> --out <ckpt.json> | load <ckpt.json>"
                    .into(),
            )),
        },
        Some("serve") => {
            let mut checkpoint = None;
            let mut trace_out = None;
            let mut config = atena_server::ServerConfig::default();
            let rest = &args[1..];
            let mut i = 0;
            while i < rest.len() {
                let flag = rest[i].as_str();
                let value = rest
                    .get(i + 1)
                    .ok_or_else(|| CliError::Usage(format!("{flag} requires a value")))?;
                let int = |name: &str| -> Result<usize, CliError> {
                    value
                        .parse()
                        .map_err(|_| CliError::Usage(format!("{name} expects an integer")))
                };
                let mib = |name: &str| int(name).map(|mb| mb << 20);
                match flag {
                    "--checkpoint" => checkpoint = Some(value.clone()),
                    "--addr" => config.addr = value.clone(),
                    "--workers" => config.workers = int("--workers")?,
                    "--cache-size" => config.cache_size = int("--cache-size")?,
                    "--slow-ms" => {
                        let ms = value
                            .parse()
                            .map_err(|_| CliError::Usage("--slow-ms expects an integer".into()))?;
                        config.slow_threshold = Duration::from_millis(ms);
                    }
                    "--timeout-ms" => {
                        let ms = value.parse().ok().filter(|v| *v > 0).ok_or_else(|| {
                            CliError::Usage("--timeout-ms expects a positive integer".into())
                        })?;
                        config.request_timeout = Duration::from_millis(ms);
                    }
                    "--trace-out" => trace_out = Some(value.clone()),
                    "--registry-budget-mb" => {
                        config.registry.budget_bytes = mib("--registry-budget-mb")?;
                    }
                    "--upload-max-mb" => {
                        config.registry.limits.max_bytes = mib("--upload-max-mb")?;
                    }
                    "--tenant-max-inflight" => {
                        config.tenant_limits.max_inflight = int("--tenant-max-inflight")?;
                    }
                    "--tenant-quota-mb" => {
                        config.registry.tenant_quota_bytes = mib("--tenant-quota-mb")?;
                    }
                    other => return Err(CliError::Usage(format!("unknown option {other:?}"))),
                }
                i += 2;
            }
            let checkpoint = checkpoint
                .ok_or_else(|| CliError::Usage("serve requires --checkpoint <ckpt.json>".into()))?;
            Ok(Command::Serve {
                checkpoint,
                trace_out,
                config,
            })
        }
        Some("metrics") => match args.get(1).map(String::as_str) {
            Some("summarize") => {
                let path = args
                    .get(2)
                    .filter(|p| !p.starts_with("--"))
                    .ok_or_else(|| {
                        CliError::Usage("metrics summarize requires a JSONL path".into())
                    })?
                    .clone();
                let mut format = SummaryFormat::Text;
                let rest = &args[3..];
                let mut i = 0;
                while i < rest.len() {
                    match rest[i].as_str() {
                        "--format" => {
                            let raw = rest.get(i + 1).ok_or_else(|| {
                                CliError::Usage("--format requires a value".into())
                            })?;
                            format = SummaryFormat::parse(raw)?;
                            i += 2;
                        }
                        other => return Err(CliError::Usage(format!("unknown option {other:?}"))),
                    }
                }
                Ok(Command::MetricsSummarize { path, format })
            }
            _ => Err(CliError::Usage(
                "metrics supports: summarize <file.jsonl> [--format text|json]".into(),
            )),
        },
        Some("trace") => match args.get(1).map(String::as_str) {
            Some("summarize") => {
                let path = args
                    .get(2)
                    .filter(|p| !p.starts_with("--"))
                    .ok_or_else(|| CliError::Usage("trace summarize requires a JSONL path".into()))?
                    .clone();
                Ok(Command::TraceSummarize { path })
            }
            _ => Err(CliError::Usage(
                "trace supports: summarize <file.jsonl>".into(),
            )),
        },
        Some(other) => Err(CliError::Usage(format!("unknown command {other:?}"))),
    }
}

fn config_for(opts: &GenerateOpts) -> AtenaConfig {
    let mut config = AtenaConfig {
        train_steps: opts.steps,
        ..AtenaConfig::default()
    };
    config.env.episode_len = opts.episode_len;
    config.env.seed = opts.seed;
    config.trainer.seed = opts.seed;
    // Thread count, and so rollout batch size, only — the determinism
    // contract (DESIGN.md §4h, §4l) guarantees results don't depend on
    // it, so defaulting to whatever the machine has is safe.
    config.trainer.n_workers = opts.workers.unwrap_or_else(atena_runtime::default_workers);
    config
}

/// Apply `--log-level` / `--metrics-out` / `--trace-out` to the global
/// telemetry registry and tracer.
fn apply_telemetry_opts(opts: &GenerateOpts) -> Result<(), CliError> {
    if let Some(level) = opts.log_level {
        atena_telemetry::set_level(level);
    }
    if let Some(path) = &opts.metrics_out {
        atena_telemetry::global()
            .set_jsonl_sink(std::path::Path::new(path))
            .map_err(|e| CliError::Runtime(format!("cannot open {path}: {e}")))?;
        atena_telemetry::info!("streaming telemetry to {path}");
    }
    if let Some(path) = &opts.trace_out {
        set_trace_sink(path)?;
    }
    Ok(())
}

/// Point the global tracer at a JSONL file (this also enables recording:
/// tracing is off unless explicitly requested — DESIGN.md §4j).
fn set_trace_sink(path: &str) -> Result<(), CliError> {
    atena_telemetry::tracer()
        .set_jsonl_sink(std::path::Path::new(path))
        .map_err(|e| CliError::Runtime(format!("cannot open {path}: {e}")))?;
    atena_telemetry::info!("recording span traces to {path}");
    Ok(())
}

fn generate(name: &str, frame: DataFrame, opts: &GenerateOpts) -> Result<String, CliError> {
    apply_telemetry_opts(opts)?;
    atena_telemetry::info!(
        "strategy {}, {} steps, {}-op notebook ...",
        opts.strategy.name(),
        if opts.strategy.is_learned() {
            opts.steps
        } else {
            0
        },
        opts.episode_len
    );
    let result = Atena::new(name, frame)
        .with_focal_attrs(opts.focal.clone())
        .with_config(config_for(opts))
        .with_strategy(opts.strategy)
        .generate();
    atena_telemetry::info!("best episode reward: {:.3}", result.best_reward);
    atena_telemetry::global().flush();

    if let Some(json_path) = &opts.json {
        std::fs::write(json_path, result.notebook.to_json())
            .map_err(|e| CliError::Runtime(format!("cannot write {json_path}: {e}")))?;
        atena_telemetry::info!("JSON summary written to {json_path}");
    }
    let md = result.notebook.to_markdown();
    if let Some(out) = &opts.out {
        std::fs::write(out, &md)
            .map_err(|e| CliError::Runtime(format!("cannot write {out}: {e}")))?;
        atena_telemetry::info!("notebook written to {out}");
        Ok(String::new())
    } else {
        Ok(md)
    }
}

/// Per-metric aggregation of one JSONL telemetry stream.
#[derive(Debug, Clone, Default)]
struct MetricSummary {
    count: usize,
    sum: f64,
    min: f64,
    max: f64,
    last: f64,
}

impl MetricSummary {
    fn push(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        self.last = v;
    }
}

/// `metrics summarize --format json` document.
#[derive(serde::Serialize)]
struct SummaryJson {
    path: String,
    skipped: usize,
    metrics: Vec<MetricJson>,
}

/// One `(name, kind)` row of [`SummaryJson`].
#[derive(serde::Serialize)]
struct MetricJson {
    name: String,
    kind: String,
    count: usize,
    mean: f64,
    min: f64,
    max: f64,
    last: f64,
}

/// Aggregate a `--metrics-out` JSONL file into a per-`(name, kind)` table.
///
/// Rows are sorted alphabetically by metric name (then kind), so the output
/// is stable across runs and diffable in CI logs regardless of event order
/// in the stream.
///
/// Tolerant of real-world telemetry files: malformed lines (truncated tail
/// from a killed process, interleaved writes, non-event records) are skipped
/// and counted rather than aborting the whole summary. A file with zero
/// parseable event records, however, is an error — a pipeline asserting on
/// a summary should fail loudly when the stream it fed in was empty junk.
pub fn summarize_metrics(path: &str, format: SummaryFormat) -> Result<String, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Runtime(format!("cannot read {path}: {e}")))?;
    let mut stats: std::collections::BTreeMap<(String, String), MetricSummary> =
        std::collections::BTreeMap::new();
    let mut skipped = 0usize;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let parsed = serde_json::from_str::<serde_json::Value>(line)
            .ok()
            .and_then(|v| {
                Some((
                    v["kind"].as_str()?.to_string(),
                    v["name"].as_str()?.to_string(),
                    v["value"].as_f64()?,
                ))
            });
        match parsed {
            // Keyed (name, kind): the BTreeMap iterates name-major, which
            // is the sorted order the table prints in.
            Some((kind, name, value)) => stats.entry((name, kind)).or_default().push(value),
            None => skipped += 1,
        }
    }
    if stats.is_empty() {
        return Err(CliError::Runtime(format!(
            "{path}: no parseable event records ({skipped} malformed lines)"
        )));
    }
    match format {
        SummaryFormat::Json => {
            let doc = SummaryJson {
                path: path.to_string(),
                skipped,
                metrics: stats
                    .into_iter()
                    .map(|((name, kind), s)| MetricJson {
                        name,
                        kind,
                        count: s.count,
                        mean: s.sum / s.count as f64,
                        min: s.min,
                        max: s.max,
                        last: s.last,
                    })
                    .collect(),
            };
            let mut out = serde_json::to_string(&doc)
                .map_err(|e| CliError::Runtime(format!("cannot render the summary: {e}")))?;
            out.push('\n');
            Ok(out)
        }
        SummaryFormat::Text => {
            let note = match skipped {
                0 => String::new(),
                1 => format!("({path}: 1 malformed line skipped)\n"),
                n => format!("({path}: {n} malformed lines skipped)\n"),
            };
            let mut out = format!(
                "{:<34} {:<10} {:>8} {:>12} {:>12} {:>12} {:>12}\n",
                "name", "kind", "count", "mean", "min", "max", "last"
            );
            for ((name, kind), s) in &stats {
                out.push_str(&format!(
                    "{:<34} {:<10} {:>8} {:>12.5} {:>12.5} {:>12.5} {:>12.5}\n",
                    name,
                    kind,
                    s.count,
                    s.sum / s.count as f64,
                    s.min,
                    s.max,
                    s.last
                ));
            }
            out.push_str(&note);
            Ok(out)
        }
    }
}

/// Per-span-name aggregation for [`summarize_trace`].
#[derive(Debug, Clone, Default)]
struct SpanSummary {
    durations: Vec<f64>,
    child_secs: f64,
}

impl SpanSummary {
    fn total(&self) -> f64 {
        self.durations.iter().sum()
    }
    /// Nearest-rank quantile over this name's durations.
    fn quantile(&mut self, q: f64) -> f64 {
        self.durations
            .sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let idx = ((self.durations.len() as f64 - 1.0) * q).round() as usize;
        self.durations[idx.min(self.durations.len() - 1)]
    }
}

/// Aggregate a `--trace-out` JSONL span stream into a flame table: one row
/// per span name with call count, total time, self time (total minus direct
/// children), and p50/p95/p99 durations, sorted by total time descending.
///
/// Self time is clamped at zero: spans recorded from parallel workers (e.g.
/// `rollout.worker` under `rollout.collect`) legitimately sum to more than
/// their parent's wall time.
///
/// Malformed lines are skipped like [`summarize_metrics`]; zero parseable
/// spans is an error.
pub fn summarize_trace(path: &str) -> Result<String, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Runtime(format!("cannot read {path}: {e}")))?;
    // (trace, span) → (name, duration): unique per stream, used to resolve
    // each span's parent for the self-time subtraction.
    let mut spans: std::collections::HashMap<(String, String), (String, f64)> =
        std::collections::HashMap::new();
    // (trace, parent span) → sum of direct children's durations.
    let mut child_secs: std::collections::HashMap<(String, String), f64> =
        std::collections::HashMap::new();
    let mut skipped = 0usize;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let parsed = serde_json::from_str::<serde_json::Value>(line)
            .ok()
            .and_then(|v| {
                Some((
                    v["trace"].as_str()?.to_string(),
                    v["span"].as_str()?.to_string(),
                    v["parent"].as_str().map(str::to_string),
                    v["name"].as_str()?.to_string(),
                    v["dur_secs"].as_f64()?,
                ))
            });
        match parsed {
            Some((trace, span, parent, name, dur)) => {
                if let Some(parent) = parent {
                    *child_secs.entry((trace.clone(), parent)).or_default() += dur;
                }
                spans.insert((trace, span), (name, dur));
            }
            None => skipped += 1,
        }
    }
    if spans.is_empty() {
        return Err(CliError::Runtime(format!(
            "{path}: no parseable spans ({skipped} malformed lines)"
        )));
    }
    let mut by_name: std::collections::BTreeMap<String, SpanSummary> =
        std::collections::BTreeMap::new();
    for (key, (name, dur)) in &spans {
        let entry = by_name.entry(name.clone()).or_default();
        entry.durations.push(*dur);
        entry.child_secs += child_secs.get(key).copied().unwrap_or(0.0);
    }
    let mut rows: Vec<(String, SpanSummary)> = by_name.into_iter().collect();
    rows.sort_by(|a, b| {
        b.1.total()
            .partial_cmp(&a.1.total())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
    let mut out = format!(
        "{:<24} {:>8} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
        "span", "count", "total_s", "self_s", "p50_s", "p95_s", "p99_s"
    );
    for (name, mut s) in rows {
        let total = s.total();
        out.push_str(&format!(
            "{:<24} {:>8} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>12.6}\n",
            name,
            s.durations.len(),
            total,
            (total - s.child_secs).max(0.0),
            s.quantile(0.50),
            s.quantile(0.95),
            s.quantile(0.99),
        ));
    }
    if skipped > 0 {
        out.push_str(&format!("({path}: {skipped} malformed lines skipped)\n"));
    }
    Ok(out)
}

/// Execute a parsed command; returns what should be printed to stdout.
pub fn run(command: Command) -> Result<String, CliError> {
    match command {
        Command::Help => Ok(USAGE.to_string()),
        Command::Datasets => {
            let mut out = String::from("built-in experimental datasets (Table 1):\n");
            for d in atena_data::all_datasets() {
                out.push_str(&format!(
                    "  {:<9} {:<11} {:>6} rows  {}\n",
                    d.spec.id, d.spec.name, d.spec.rows, d.spec.description
                ));
            }
            Ok(out)
        }
        Command::DatasetsInspect { paths } => {
            // Offline mirror of `POST /v1/datasets`: same parser, same
            // content addressing, so the printed id matches what the server
            // would return for the identical bytes.
            use atena_registry::{dataset_id_for_fingerprint, ingest_csv};
            let limits = atena_registry::RegistryConfig::default().limits;
            let mut out = String::new();
            let mut seen: std::collections::BTreeMap<u64, String> =
                std::collections::BTreeMap::new();
            for path in &paths {
                let bytes = std::fs::read(path)
                    .map_err(|e| CliError::Runtime(format!("cannot read {path}: {e}")))?;
                let frame = ingest_csv(&bytes, limits)
                    .map_err(|e| CliError::Runtime(format!("{path}: {e}")))?;
                let fp = frame.fingerprint();
                let id = dataset_id_for_fingerprint(fp);
                out.push_str(&format!(
                    "{path}\n  dataset_id  {id}\n  rows        {}\n  cols        {}\n  bytes       {}\n  schema\n",
                    frame.n_rows(),
                    frame.n_cols(),
                    frame.approx_bytes(),
                ));
                for field in frame.schema().fields() {
                    out.push_str(&format!(
                        "    {:<20} {:<6} {}\n",
                        field.name,
                        field.dtype.name(),
                        field.role.name()
                    ));
                }
                if let Some(first) = seen.get(&fp) {
                    out.push_str(&format!("  duplicate of {first} (identical content)\n"));
                } else {
                    seen.insert(fp, path.clone());
                }
            }
            Ok(out)
        }
        Command::Export { id, path } => {
            let dataset = atena_data::dataset_by_id(&id).ok_or_else(|| {
                CliError::Runtime(format!(
                    "unknown dataset {id:?}; run `atena datasets` for the list"
                ))
            })?;
            std::fs::write(&path, dataset.frame.to_csv_string())
                .map_err(|e| CliError::Runtime(format!("cannot write {path}: {e}")))?;
            Ok(format!(
                "{} ({} rows × {} columns) written to {path}",
                dataset.spec.name,
                dataset.frame.n_rows(),
                dataset.frame.n_cols()
            ))
        }
        Command::MetricsSummarize { path, format } => summarize_metrics(&path, format),
        Command::TraceSummarize { path } => summarize_trace(&path),
        Command::Train { id, opts } => {
            apply_telemetry_opts(&opts)?;
            let dataset = atena_data::dataset_by_id(&id).ok_or_else(|| {
                CliError::Runtime(format!(
                    "unknown dataset {id:?}; run `atena datasets` for the list"
                ))
            })?;
            let focal = if opts.focal.is_empty() {
                dataset.focal_attrs()
            } else {
                opts.focal.clone()
            };
            let config = config_for(&opts);
            atena_telemetry::info!(
                "training {} for {} steps on {} rollout threads ...",
                opts.strategy.name(),
                opts.steps,
                config.trainer.n_workers
            );
            let bundle =
                atena_core::train_policy_bundle(&id, dataset.frame, focal, config, opts.strategy)
                    .map_err(|e| CliError::Runtime(format!("training failed: {e}")))?;
            let mut out = bundle.describe();
            if let Some(path) = &opts.out {
                bundle
                    .save(std::path::Path::new(path))
                    .map_err(|e| CliError::Runtime(format!("cannot save checkpoint: {e}")))?;
                out.push_str(&format!("\nwritten to {path}"));
            }
            Ok(out)
        }
        Command::CheckpointSave { id, out, opts } => {
            apply_telemetry_opts(&opts)?;
            let dataset = atena_data::dataset_by_id(&id).ok_or_else(|| {
                CliError::Runtime(format!(
                    "unknown dataset {id:?}; run `atena datasets` for the list"
                ))
            })?;
            let focal = if opts.focal.is_empty() {
                dataset.focal_attrs()
            } else {
                opts.focal.clone()
            };
            atena_telemetry::info!(
                "training {} for {} steps before checkpointing ...",
                opts.strategy.name(),
                opts.steps
            );
            let bundle = atena_core::train_policy_bundle(
                &id,
                dataset.frame,
                focal,
                config_for(&opts),
                opts.strategy,
            )
            .map_err(|e| CliError::Runtime(format!("cannot train checkpoint: {e}")))?;
            bundle
                .save(std::path::Path::new(&out))
                .map_err(|e| CliError::Runtime(format!("cannot save checkpoint: {e}")))?;
            Ok(format!("{}\nwritten to {out}", bundle.describe()))
        }
        Command::CheckpointLoad { path } => {
            let bundle = atena_core::PolicyBundle::load(std::path::Path::new(&path))
                .map_err(|e| CliError::Runtime(format!("cannot load checkpoint: {e}")))?;
            // Rebuilding the policy proves the parameter blob matches the
            // recorded architecture, not just that the JSON parses.
            bundle
                .build_policy()
                .map_err(|e| CliError::Runtime(format!("checkpoint is not loadable: {e}")))?;
            Ok(bundle.describe())
        }
        Command::Serve {
            checkpoint,
            trace_out,
            config,
        } => {
            if let Some(path) = &trace_out {
                set_trace_sink(path)?;
            }
            let bundle = atena_core::PolicyBundle::load(std::path::Path::new(&checkpoint))
                .map_err(|e| CliError::Runtime(format!("cannot load checkpoint: {e}")))?;
            let dataset = atena_data::dataset_by_id(&bundle.dataset).ok_or_else(|| {
                CliError::Runtime(format!(
                    "checkpoint was trained on dataset {:?}, which is not built in",
                    bundle.dataset
                ))
            })?;
            let description = bundle.describe();
            let engine = atena_server::Engine::new(bundle, dataset.frame)
                .map_err(|e| CliError::Runtime(format!("cannot build engine: {e}")))?;
            let server = atena_server::Server::bind(config, engine)
                .map_err(|e| CliError::Runtime(format!("cannot bind: {e}")))?;
            let bound = server
                .local_addr()
                .map_err(|e| CliError::Runtime(format!("cannot resolve bound address: {e}")))?;
            atena_server::install_handlers();
            // Printed (and flushed) before blocking so scripts tailing our
            // stdout learn the ephemeral port.
            println!("loaded {description}");
            println!("listening on {bound}");
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            server.run();
            Ok(format!("server on {bound} shut down gracefully"))
        }
        Command::Generate { path, opts } => {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| CliError::Runtime(format!("cannot read {path}: {e}")))?;
            let frame = DataFrame::from_csv_str(&text)
                .map_err(|e| CliError::Runtime(format!("cannot parse {path}: {e}")))?;
            generate(&path, frame, &opts)
        }
        Command::Demo { id, opts } => {
            let dataset = atena_data::dataset_by_id(&id).ok_or_else(|| {
                CliError::Runtime(format!(
                    "unknown dataset {id:?}; run `atena datasets` for the list"
                ))
            })?;
            let mut opts = opts;
            if opts.focal.is_empty() {
                opts.focal = dataset.focal_attrs();
            }
            generate(&dataset.spec.name.clone(), dataset.frame, &opts)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_help_and_datasets() {
        assert_eq!(parse(&args(&[])).unwrap(), Command::Help);
        assert_eq!(parse(&args(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse(&args(&["--help"])).unwrap(), Command::Help);
        assert_eq!(parse(&args(&["datasets"])).unwrap(), Command::Datasets);
    }

    #[test]
    fn parses_generate_with_options() {
        let cmd = parse(&args(&[
            "generate",
            "data.csv",
            "--focal",
            "delay,airline",
            "--steps",
            "123",
            "--episode-len",
            "7",
            "--strategy",
            "greedy-cr",
            "--seed",
            "9",
            "--out",
            "nb.md",
            "--json",
            "nb.json",
        ]))
        .unwrap();
        let Command::Generate { path, opts } = cmd else {
            panic!()
        };
        assert_eq!(path, "data.csv");
        assert_eq!(opts.focal, vec!["delay", "airline"]);
        assert_eq!(opts.steps, 123);
        assert_eq!(opts.episode_len, 7);
        assert_eq!(opts.strategy, Strategy::GreedyCr);
        assert_eq!(opts.seed, 9);
        assert_eq!(opts.out.as_deref(), Some("nb.md"));
        assert_eq!(opts.json.as_deref(), Some("nb.json"));
    }

    #[test]
    fn rejects_bad_usage() {
        assert!(matches!(
            parse(&args(&["generate"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&args(&["demo", "--steps"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&args(&["generate", "f.csv", "--bogus"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&args(&["generate", "f.csv", "--steps", "abc"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&args(&["generate", "f.csv", "--episode-len", "0"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&args(&["frobnicate"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parses_all_strategies() {
        for (name, expected) in [
            ("atena", Strategy::Atena),
            ("ATN-IO", Strategy::AtnIo),
            ("ots-drl", Strategy::OtsDrl),
            ("OTS-DRL-B", Strategy::OtsDrlB),
            ("greedy-cr", Strategy::GreedyCr),
            ("greedyio", Strategy::GreedyIo),
        ] {
            assert_eq!(parse_strategy(name).unwrap(), expected);
        }
        assert!(parse_strategy("dqn").is_err());
    }

    #[test]
    fn parses_telemetry_options() {
        let cmd = parse(&args(&[
            "demo",
            "cyber1",
            "--log-level",
            "debug",
            "--metrics-out",
            "m.jsonl",
        ]))
        .unwrap();
        let Command::Demo { opts, .. } = cmd else {
            panic!()
        };
        assert_eq!(opts.log_level, Some(atena_telemetry::Level::Debug));
        assert_eq!(opts.metrics_out.as_deref(), Some("m.jsonl"));
        assert!(matches!(
            parse(&args(&["demo", "cyber1", "--log-level", "loud"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parses_metrics_summarize() {
        assert_eq!(
            parse(&args(&["metrics", "summarize", "m.jsonl"])).unwrap(),
            Command::MetricsSummarize {
                path: "m.jsonl".into(),
                format: SummaryFormat::Text,
            }
        );
        assert_eq!(
            parse(&args(&[
                "metrics",
                "summarize",
                "m.jsonl",
                "--format",
                "json"
            ]))
            .unwrap(),
            Command::MetricsSummarize {
                path: "m.jsonl".into(),
                format: SummaryFormat::Json,
            }
        );
        assert!(matches!(
            parse(&args(&["metrics"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&args(&["metrics", "summarize"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&args(&[
                "metrics",
                "summarize",
                "m.jsonl",
                "--format",
                "xml"
            ])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parses_trace_summarize() {
        assert_eq!(
            parse(&args(&["trace", "summarize", "t.jsonl"])).unwrap(),
            Command::TraceSummarize {
                path: "t.jsonl".into()
            }
        );
        assert!(matches!(parse(&args(&["trace"])), Err(CliError::Usage(_))));
        assert!(matches!(
            parse(&args(&["trace", "summarize"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn summarize_aggregates_jsonl() {
        let dir = std::env::temp_dir().join("atena-cli-metrics");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.jsonl");
        std::fs::write(
            &path,
            "\
{\"ts\":1.0,\"kind\":\"iteration\",\"name\":\"train.policy_loss\",\"value\":0.5,\"labels\":{\"iter\":\"0\"}}
{\"ts\":2.0,\"kind\":\"iteration\",\"name\":\"train.policy_loss\",\"value\":0.25,\"labels\":{\"iter\":\"1\"}}
{\"ts\":2.0,\"kind\":\"episode\",\"name\":\"reward.total\",\"value\":3.0,\"labels\":{}}
",
        )
        .unwrap();
        let out = run(Command::MetricsSummarize {
            path: path.to_string_lossy().into_owned(),
            format: SummaryFormat::Text,
        })
        .unwrap();
        assert!(out.contains("train.policy_loss"), "{out}");
        assert!(out.contains("reward.total"), "{out}");
        // mean of 0.5 and 0.25
        assert!(out.contains("0.37500"), "{out}");

        // The same file as JSON: one parseable object with per-metric rows.
        let out = run(Command::MetricsSummarize {
            path: path.to_string_lossy().into_owned(),
            format: SummaryFormat::Json,
        })
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(out.trim()).expect("JSON summary parses");
        assert_eq!(v["skipped"].as_u64(), Some(0));
        let metrics = v["metrics"].as_array().unwrap();
        assert_eq!(metrics.len(), 2);
        let loss = metrics
            .iter()
            .find(|m| m["name"].as_str() == Some("train.policy_loss"))
            .unwrap();
        assert_eq!(loss["count"].as_u64(), Some(2));
        assert_eq!(loss["mean"].as_f64(), Some(0.375));
        assert_eq!(loss["last"].as_f64(), Some(0.25));

        // Names and paths that need JSON escapes: a control character, and
        // "café" in NFD (a combining U+0301, as macOS spells file names).
        let dir = std::env::temp_dir().join("atena-cli-metrics-cafe\u{301}");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.jsonl").to_string_lossy().into_owned();
        std::fs::write(
            &path,
            "\
{\"ts\":1.0,\"kind\":\"counter\",\"name\":\"a\\u0001b\",\"value\":1,\"labels\":{}}
{\"ts\":1.0,\"kind\":\"gauge\",\"name\":\"cafe\u{301}\",\"value\":2.5,\"labels\":{}}
",
        )
        .unwrap();
        let out = run(Command::MetricsSummarize {
            path: path.clone(),
            format: SummaryFormat::Json,
        })
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(out.trim()).expect("JSON summary parses");
        assert_eq!(v["path"].as_str(), Some(path.as_str()));
        let names: Vec<&str> = v["metrics"]
            .as_array()
            .unwrap()
            .iter()
            .map(|m| m["name"].as_str().unwrap())
            .collect();
        assert_eq!(names, ["a\u{1}b", "cafe\u{301}"]);
    }

    #[test]
    fn summarize_tolerates_partial_but_rejects_empty_files() {
        let dir = std::env::temp_dir().join("atena-cli-metrics-robust");
        std::fs::create_dir_all(&dir).unwrap();

        // Empty file: zero parseable records is an error (nonzero exit), so
        // CI assertions on a summary can't silently pass on a dead stream.
        let empty = dir.join("empty.jsonl");
        std::fs::write(&empty, "").unwrap();
        let err = summarize_metrics(&empty.to_string_lossy(), SummaryFormat::Text).unwrap_err();
        assert!(matches!(err, CliError::Runtime(_)), "{err}");

        // Entirely malformed: same, and the message counts the junk.
        let bad = dir.join("bad.jsonl");
        std::fs::write(&bad, "{not json\n").unwrap();
        let err = summarize_metrics(&bad.to_string_lossy(), SummaryFormat::Json).unwrap_err();
        let CliError::Runtime(msg) = err else {
            panic!()
        };
        assert!(msg.contains("no parseable event records"), "{msg}");
        assert!(msg.contains("1 malformed"), "{msg}");

        // Truncated tail (process killed mid-write): the good lines still
        // aggregate; the partial line is counted, not fatal.
        let truncated = dir.join("truncated.jsonl");
        std::fs::write(
            &truncated,
            "\
{\"ts\":1.0,\"kind\":\"counter\",\"name\":\"steps\",\"value\":10,\"labels\":{}}
{\"ts\":2.0,\"kind\":\"counter\",\"name\":\"steps\",\"value\":20,\"labels\":{}}
{\"ts\":3.0,\"kind\":\"counter\",\"na",
        )
        .unwrap();
        let out = summarize_metrics(&truncated.to_string_lossy(), SummaryFormat::Text).unwrap();
        assert!(out.contains("steps"), "{out}");
        assert!(out.contains("1 malformed line skipped"), "{out}");
        // Valid JSON that is not an event record (e.g. a log line) is also
        // skipped rather than aborting.
        let mixed = dir.join("mixed.jsonl");
        std::fs::write(
            &mixed,
            "{\"msg\":\"hello\"}\n{\"ts\":1.0,\"kind\":\"gauge\",\"name\":\"g\",\"value\":1.5,\"labels\":{}}\n",
        )
        .unwrap();
        let out = summarize_metrics(&mixed.to_string_lossy(), SummaryFormat::Text).unwrap();
        assert!(out.contains('g'), "{out}");
        assert!(out.contains("1 malformed line skipped"), "{out}");
    }

    #[test]
    fn trace_summarize_builds_flame_table_with_self_time() {
        let dir = std::env::temp_dir().join("atena-cli-trace-flame");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        // One request-shaped trace: a 1.0s root with a 0.7s child that has
        // a 0.2s grandchild, plus a second trace with only a root. Self
        // times: root 0.3, child 0.5, grandchild 0.2.
        std::fs::write(
            &path,
            "\
{\"trace\":\"000000000000000a\",\"span\":\"0000000000000001\",\"parent\":null,\"name\":\"req\",\"ts\":1.0,\"dur_secs\":1.0,\"attrs\":{}}
{\"trace\":\"000000000000000a\",\"span\":\"0000000000000002\",\"parent\":\"0000000000000001\",\"name\":\"decode\",\"ts\":1.1,\"dur_secs\":0.7,\"attrs\":{}}
{\"trace\":\"000000000000000a\",\"span\":\"0000000000000003\",\"parent\":\"0000000000000002\",\"name\":\"forward\",\"ts\":1.2,\"dur_secs\":0.2,\"attrs\":{}}
{\"trace\":\"000000000000000b\",\"span\":\"0000000000000001\",\"parent\":null,\"name\":\"req\",\"ts\":2.0,\"dur_secs\":0.5,\"attrs\":{}}
garbage line
",
        )
        .unwrap();
        let out = summarize_trace(&path.to_string_lossy()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        // Sorted by total descending: req (1.5) > decode (0.7) > forward.
        assert!(lines[1].starts_with("req"), "{out}");
        assert!(lines[2].starts_with("decode"), "{out}");
        assert!(lines[3].starts_with("forward"), "{out}");
        // req: 2 calls, total 1.5, self 1.5 − 0.7 = 0.8 (the child only
        // subtracts from the trace it belongs to).
        assert!(lines[1].contains("       2"), "{out}");
        assert!(lines[1].contains("1.500000"), "{out}");
        assert!(lines[1].contains("0.800000"), "{out}");
        // decode: self 0.7 − 0.2 = 0.5.
        assert!(lines[2].contains("0.500000"), "{out}");
        // forward is a leaf: self == total.
        assert!(lines[3].contains("0.200000"), "{out}");
        assert!(out.contains("1 malformed lines skipped"), "{out}");

        // Zero parseable spans is an error.
        let empty = dir.join("empty.jsonl");
        std::fs::write(&empty, "junk\n").unwrap();
        assert!(matches!(
            summarize_trace(&empty.to_string_lossy()),
            Err(CliError::Runtime(_))
        ));
    }

    #[test]
    fn trace_export_round_trips_through_summarize() {
        let dir = std::env::temp_dir().join("atena-cli-trace-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("emitted.jsonl");
        // Emit through a private tracer (not the global one: parallel tests
        // share that) with exact-duration children for exact totals.
        let tracer = atena_telemetry::Tracer::new();
        tracer.set_jsonl_sink(&path).unwrap();
        for i in 0..3 {
            let trace = tracer.trace("iteration");
            let root = atena_telemetry::ROOT_SPAN_ID;
            let collect = trace.record_exact(root, "collect", 0.5, vec![("iter", i.to_string())]);
            trace.record_exact(collect, "worker", 0.2, Vec::new());
            trace.record_exact(collect, "worker", 0.25, Vec::new());
        }
        tracer.flush();
        assert_eq!(tracer.counts().traces_recorded, 3);

        let out = summarize_trace(&path.to_string_lossy()).unwrap();
        let collect_row = out
            .lines()
            .find(|l| l.starts_with("collect"))
            .expect("collect row");
        let worker_row = out
            .lines()
            .find(|l| l.starts_with("worker"))
            .expect("worker row");
        // collect: 3 × 0.5s total, self 0.5 − 0.45 per call.
        assert!(collect_row.contains("1.500000"), "{out}");
        assert!(collect_row.contains("0.150000"), "{out}");
        // worker: 6 calls, 3×0.2 + 3×0.25 = 1.35 total, leaf so self==total.
        assert!(worker_row.contains("       6"), "{out}");
        assert!(worker_row.contains("1.350000"), "{out}");
        // iteration roots: 3 calls with measured (tiny) wall durations.
        assert!(out.lines().any(|l| l.starts_with("iteration")), "{out}");
    }

    #[test]
    fn parses_train_command() {
        let cmd = parse(&args(&[
            "train",
            "cyber2",
            "--steps",
            "400",
            "--workers",
            "4",
            "--out",
            "c.json",
        ]))
        .unwrap();
        let Command::Train { id, opts } = cmd else {
            panic!()
        };
        assert_eq!(id, "cyber2");
        assert_eq!(opts.steps, 400);
        assert_eq!(opts.workers, Some(4));
        assert_eq!(opts.out.as_deref(), Some("c.json"));
        // --out is optional; --workers defaults to None (auto-detect).
        let Command::Train { opts, .. } = parse(&args(&["train", "cyber2"])).unwrap() else {
            panic!()
        };
        assert_eq!(opts.workers, None);
        assert_eq!(opts.out, None);
        assert!(matches!(parse(&args(&["train"])), Err(CliError::Usage(_))));
        assert!(matches!(
            parse(&args(&["train", "cyber2", "--workers", "x"])),
            Err(CliError::Usage(_))
        ));
        // Non-learned strategies have nothing to train.
        assert!(matches!(
            parse(&args(&["train", "cyber2", "--strategy", "greedy-io"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn workers_flag_parses_on_generate_paths() {
        let Command::Demo { opts, .. } =
            parse(&args(&["demo", "cyber1", "--workers", "2"])).unwrap()
        else {
            panic!()
        };
        assert_eq!(opts.workers, Some(2));
        let config = config_for(&opts);
        assert_eq!(config.trainer.n_workers, 2);
        // Unset: auto-detect yields at least one thread.
        let auto = config_for(&GenerateOpts::default());
        assert!(auto.trainer.n_workers >= 1);
    }

    #[test]
    fn summarize_prints_metrics_sorted_by_name() {
        let dir = std::env::temp_dir().join("atena-cli-metrics-sorted");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.jsonl");
        // Deliberately unsorted input, with kinds that would sort the old
        // kind-major way.
        std::fs::write(
            &path,
            "\
{\"ts\":1.0,\"kind\":\"iteration\",\"name\":\"zeta.metric\",\"value\":1.0,\"labels\":{}}
{\"ts\":1.0,\"kind\":\"counter\",\"name\":\"runtime.worker.0.items\",\"value\":5.0,\"labels\":{}}
{\"ts\":1.0,\"kind\":\"episode\",\"name\":\"alpha.metric\",\"value\":2.0,\"labels\":{}}
",
        )
        .unwrap();
        let out = summarize_metrics(&path.to_string_lossy(), SummaryFormat::Text).unwrap();
        let alpha = out.find("alpha.metric").unwrap();
        let runtime = out.find("runtime.worker.0.items").unwrap();
        let zeta = out.find("zeta.metric").unwrap();
        assert!(alpha < runtime && runtime < zeta, "not name-sorted:\n{out}");
    }

    #[test]
    fn parses_checkpoint_commands() {
        let cmd = parse(&args(&[
            "checkpoint",
            "save",
            "cyber1",
            "--out",
            "c.json",
            "--steps",
            "500",
            "--episode-len",
            "6",
        ]))
        .unwrap();
        let Command::CheckpointSave { id, out, opts } = cmd else {
            panic!()
        };
        assert_eq!(id, "cyber1");
        assert_eq!(out, "c.json");
        assert_eq!(opts.steps, 500);
        assert_eq!(opts.episode_len, 6);
        assert_eq!(
            parse(&args(&["checkpoint", "load", "c.json"])).unwrap(),
            Command::CheckpointLoad {
                path: "c.json".into()
            }
        );
        // --out is mandatory; greedy strategies have nothing to checkpoint.
        assert!(matches!(
            parse(&args(&["checkpoint", "save", "cyber1"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&args(&[
                "checkpoint",
                "save",
                "cyber1",
                "--out",
                "c.json",
                "--strategy",
                "greedy-cr"
            ])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&args(&["checkpoint"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parses_serve_command() {
        let cmd = parse(&args(&[
            "serve",
            "--checkpoint",
            "c.json",
            "--addr",
            "0.0.0.0:9000",
            "--workers",
            "8",
            "--cache-size",
            "32",
            "--slow-ms",
            "100",
            "--timeout-ms",
            "2500",
            "--trace-out",
            "t.jsonl",
            "--registry-budget-mb",
            "64",
            "--upload-max-mb",
            "2",
            "--tenant-max-inflight",
            "3",
            "--tenant-quota-mb",
            "16",
        ]))
        .unwrap();
        let mut config = atena_server::ServerConfig {
            addr: "0.0.0.0:9000".into(),
            workers: 8,
            cache_size: 32,
            slow_threshold: Duration::from_millis(100),
            request_timeout: Duration::from_millis(2500),
            ..Default::default()
        };
        config.registry.budget_bytes = 64 << 20;
        config.registry.limits.max_bytes = 2 << 20;
        config.registry.tenant_quota_bytes = 16 << 20;
        config.tenant_limits.max_inflight = 3;
        assert_eq!(
            cmd,
            Command::Serve {
                checkpoint: "c.json".into(),
                trace_out: Some("t.jsonl".into()),
                config,
            }
        );
        // Without flags, every setting is the library's default.
        assert_eq!(
            parse(&args(&["serve", "--checkpoint", "c.json"])).unwrap(),
            Command::Serve {
                checkpoint: "c.json".into(),
                trace_out: None,
                config: atena_server::ServerConfig::default(),
            }
        );
        assert!(matches!(parse(&args(&["serve"])), Err(CliError::Usage(_))));
        // The retired microbatch flags fail loudly rather than being
        // silently accepted by old scripts.
        for retired in [["--max-batch", "8"], ["--batch-window-us", "150"]] {
            let mut argv = vec!["serve", "--checkpoint", "c.json"];
            argv.extend(retired);
            assert!(matches!(parse(&args(&argv)), Err(CliError::Usage(_))));
        }
        assert!(matches!(
            parse(&args(&[
                "serve",
                "--checkpoint",
                "c.json",
                "--workers",
                "x"
            ])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&args(&[
                "serve",
                "--checkpoint",
                "c.json",
                "--slow-ms",
                "x"
            ])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn trace_out_flag_parses_on_generate_paths() {
        let Command::Demo { opts, .. } =
            parse(&args(&["demo", "cyber1", "--trace-out", "t.jsonl"])).unwrap()
        else {
            panic!()
        };
        assert_eq!(opts.trace_out.as_deref(), Some("t.jsonl"));
        assert!(matches!(
            parse(&args(&["demo", "cyber1", "--trace-out"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn datasets_inspect_parses_and_reports_identity() {
        assert_eq!(
            parse(&args(&["datasets", "inspect", "a.csv", "b.csv"])).unwrap(),
            Command::DatasetsInspect {
                paths: vec!["a.csv".into(), "b.csv".into()]
            }
        );
        assert!(matches!(
            parse(&args(&["datasets", "inspect"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&args(&["datasets", "frobnicate"])),
            Err(CliError::Usage(_))
        ));

        // Two copies of the same content → same id, flagged as duplicate;
        // the id matches the registry's content addressing.
        let dir = std::env::temp_dir().join("atena-cli-inspect");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.csv");
        let b = dir.join("b.csv");
        std::fs::write(&a, "proto,len\ntcp,1\nudp,2\n").unwrap();
        std::fs::write(&b, "proto,len\ntcp,1\nudp,2\n").unwrap();
        let out = run(Command::DatasetsInspect {
            paths: vec![a.display().to_string(), b.display().to_string()],
        })
        .unwrap();
        let frame = atena_dataframe::DataFrame::from_csv_str("proto,len\ntcp,1\nudp,2\n").unwrap();
        let id = atena_registry::dataset_id_for_fingerprint(frame.fingerprint());
        assert_eq!(out.matches(&id).count(), 2, "{out}");
        assert!(out.contains("duplicate of"), "{out}");
        assert!(out.contains("proto"), "{out}");
        assert!(out.contains("int"), "{out}");

        let missing = run(Command::DatasetsInspect {
            paths: vec![dir.join("nope.csv").display().to_string()],
        });
        assert!(matches!(missing, Err(CliError::Runtime(_))));
    }

    #[test]
    fn datasets_command_lists_all_eight() {
        let out = run(Command::Datasets).unwrap();
        for id in ["cyber1", "cyber4", "flights1", "flights4"] {
            assert!(out.contains(id), "missing {id} in:\n{out}");
        }
    }

    #[test]
    fn export_round_trips_through_csv() {
        let dir = std::env::temp_dir().join("atena-cli-export");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cyber2.csv");
        let out = run(Command::Export {
            id: "cyber2".into(),
            path: path.to_string_lossy().into_owned(),
        })
        .unwrap();
        assert!(out.contains("348 rows"));
        let text = std::fs::read_to_string(&path).unwrap();
        let df = DataFrame::from_csv_str(&text).unwrap();
        assert_eq!(df.n_rows(), 348);
        assert!(matches!(
            run(Command::Export {
                id: "zzz".into(),
                path: "x.csv".into()
            }),
            Err(CliError::Runtime(_))
        ));
        assert!(matches!(
            parse(&args(&["export", "cyber1"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn unknown_demo_dataset_is_runtime_error() {
        let err = run(Command::Demo {
            id: "nope".into(),
            opts: GenerateOpts::default(),
        })
        .unwrap_err();
        assert!(matches!(err, CliError::Runtime(_)));
    }

    #[test]
    fn generate_from_missing_file_is_runtime_error() {
        let err = run(Command::Generate {
            path: "/definitely/not/here.csv".into(),
            opts: GenerateOpts::default(),
        })
        .unwrap_err();
        assert!(matches!(err, CliError::Runtime(_)));
    }

    #[test]
    fn end_to_end_generate_tiny() {
        let dir = std::env::temp_dir().join("atena-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("tiny.csv");
        std::fs::write(&csv, "cat,val\na,1\nb,2\na,3\nb,4\na,5\n").unwrap();
        let md_path = dir.join("nb.md");
        let json_path = dir.join("nb.json");
        let cmd = Command::Generate {
            path: csv.to_string_lossy().into_owned(),
            opts: GenerateOpts {
                steps: 200,
                episode_len: 3,
                strategy: Strategy::GreedyCr,
                out: Some(md_path.to_string_lossy().into_owned()),
                json: Some(json_path.to_string_lossy().into_owned()),
                ..Default::default()
            },
        };
        let stdout = run(cmd).unwrap();
        assert!(stdout.is_empty());
        let md = std::fs::read_to_string(&md_path).unwrap();
        assert!(md.contains("# Auto-EDA for"));
        let json: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&json_path).unwrap()).unwrap();
        assert_eq!(json["cells"].as_array().unwrap().len(), 3);
    }
}
