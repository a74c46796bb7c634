//! The ATENA benchmark: one command that runs a workload, checks its
//! outputs and prints every metric by name and unit.
//!
//! ```text
//! perfbench --workload <train|serve|upload> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of the traced run with `--trace 1`.
//! The exit code is 0 only when every output check passed.
//!
//! `perfbench --make-checkpoint` prints the served checkpoint, trained at
//! a fixed seed, as JSON; `serve` and `upload` run it as a child process.

#![forbid(unsafe_code)]

mod client;
mod report;
mod serve;
mod spans;
mod stats;
mod train;

use std::process::ExitCode;
use std::time::Instant;

/// The benchmark's clock. Every timing goes through here.
pub fn now() -> Instant {
    // atena-lint: allow(wall-clock) — the benchmark's timings are its output; none reaches the program
    Instant::now()
}

/// Run `f`, returning its result and how long it took in seconds.
pub fn time_secs<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The process's resident memory now, in MiB (0 where the kernel does not
/// report it).
pub fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workers = atena_runtime::default_workers();
    if args == ["--make-checkpoint"] {
        return match serve::make_checkpoint(workers) {
            Ok(json) => {
                println!("{json}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <train|serve|upload> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match args.workload.as_str() {
        "train" => train::run(args.seconds, args.trace, workers),
        "serve" => serve::run_serve(args.seed, args.seconds, args.trace, workers),
        "upload" => serve::run_upload(args.seed, args.seconds, args.trace, workers),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (train, serve, upload)");
            return ExitCode::from(2);
        }
    };
    println!("nproc {workers}; seed {}; {} s", args.seed, args.seconds);
    if outcome.print(&args.workload, args.trace) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
