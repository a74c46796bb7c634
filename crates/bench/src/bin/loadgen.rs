//! HTTP load generator for `atena serve`: a std-only client that drives
//! `POST /v1/notebook` from N concurrent keep-alive connections and reports
//! p50/p95/p99 latency and sustained QPS.
//!
//! ```text
//! loadgen --addr 127.0.0.1:8080 --requests 200 --concurrency 8 \
//!         --dataset cyber1 [--episode-len N] [--seed N] \
//!         [--bench-out BENCH_serving.json]
//! ```
//!
//! With `--bench-out`, the run's QPS, latency quantiles, and cache-hit
//! counts persist as a versioned JSON record (the CI serving-perf
//! artifact).
//!
//! Identical requests must produce identical responses (the server decodes
//! greedily from a fixed seed and caches); any divergence is reported and
//! fails the run.
//!
//! ## Mixed-tenant mode (`--mode mixed`)
//!
//! An **open-loop** driver for the multi-tenant surface: N tenants each
//! send at a fixed rate on their own schedule (latency is measured from
//! the *scheduled* send time, so server-side queueing is not hidden by
//! client back-pressure — no coordinated omission). With `--upload-csv`
//! each tenant first uploads its own variant of the CSV (truncated by one
//! row per tenant index, so fingerprints differ) and decodes against its
//! `dataset_id`. `--hog-factor F` multiplies tenant 0's rate, turning it
//! into a noisy neighbour; its 429s are counted, never fatal, and the
//! per-tenant quantiles show whether the quiet tenants kept their latency.
//! `--bench-out` persists `BENCH_multitenant.json` (`bench:
//! "loadgen-mixed"`).
//!
//! ## Batch-sweep mode (`--checkpoint B.json --batch-sizes 1,4,8`)
//!
//! Self-hosting sweep over the server's `--max-batch` knob: for each batch
//! size, an in-process server is spawned from the checkpoint on an
//! ephemeral port (response cache off, so every request decodes and the
//! microbatch queue actually coalesces), hammered with the closed-loop
//! driver, and shut down. Responses must be identical within a run *and*
//! across batch sizes — batching is execution-only (DESIGN.md §4l).
//! `--batch-bench-out` persists `BENCH_batch_serving.json` (`bench:
//! "loadgen-batch"`) with per-batch QPS and latency quantiles.

use atena_bench::quantile;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct Config {
    addr: String,
    requests: usize,
    concurrency: usize,
    dataset: String,
    episode_len: Option<usize>,
    seed: Option<u64>,
    bench_out: Option<String>,
    mode: Mode,
    tenants: usize,
    rate: f64,
    hog_factor: f64,
    upload_csv: Option<String>,
    checkpoint: Option<String>,
    batch_sizes: Vec<usize>,
    batch_bench_out: Option<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Closed,
    Mixed,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8080".into(),
            requests: 100,
            concurrency: 4,
            dataset: "cyber1".into(),
            episode_len: None,
            seed: None,
            bench_out: None,
            mode: Mode::Closed,
            tenants: 3,
            rate: 20.0,
            hog_factor: 1.0,
            upload_csv: None,
            checkpoint: None,
            batch_sizes: vec![1, 4, 8],
            batch_bench_out: None,
        }
    }
}

#[derive(serde::Serialize)]
struct LatencyRecord {
    mean_ms: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

/// The persisted `BENCH_serving.json` schema (`version` guards consumers
/// against silent shape drift).
#[derive(serde::Serialize)]
struct BenchRecord {
    version: u32,
    bench: &'static str,
    dataset: String,
    requests: usize,
    concurrency: usize,
    wall_secs: f64,
    qps: f64,
    latency: LatencyRecord,
    cache_hits: usize,
    identical_responses: bool,
}

const USAGE: &str = "\
loadgen — concurrency driver for `atena serve`

USAGE:
  loadgen [--addr A] [--requests N] [--concurrency N]
          [--dataset ID] [--episode-len N] [--seed N]
          [--bench-out BENCH_serving.json]
  loadgen --mode mixed [--tenants N] [--rate R] [--hog-factor F]
          [--upload-csv data.csv] [--requests N] [--addr A]
          [--episode-len N] [--bench-out BENCH_multitenant.json]
  loadgen --checkpoint BUNDLE.json [--batch-sizes 1,4,8]
          [--requests N] [--concurrency N] [--episode-len N] [--seed N]
          [--batch-bench-out BENCH_batch_serving.json]

Mixed mode is open-loop: each tenant sends at R req/s on its own
schedule; latency is measured from the scheduled send time. Tenant 0's
rate is multiplied by --hog-factor; 429 responses are counted, not
fatal.

With --checkpoint, loadgen self-hosts: for each --batch-sizes entry it
spawns an in-process server (response cache off) with that --max-batch,
runs the closed-loop sweep, and requires identical responses across all
batch sizes (batching is execution-only, DESIGN.md §4l).
";

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut config = Config::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--help" || flag == "-h" {
            return Err(USAGE.to_string());
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag {
            "--addr" => config.addr = value.clone(),
            "--requests" => {
                config.requests = value
                    .parse()
                    .map_err(|_| "--requests expects an integer".to_string())?
            }
            "--concurrency" => {
                config.concurrency = value
                    .parse::<usize>()
                    .map_err(|_| "--concurrency expects an integer".to_string())?
                    .max(1)
            }
            "--dataset" => config.dataset = value.clone(),
            "--episode-len" => {
                config.episode_len = Some(
                    value
                        .parse()
                        .map_err(|_| "--episode-len expects an integer".to_string())?,
                )
            }
            "--seed" => {
                config.seed = Some(
                    value
                        .parse()
                        .map_err(|_| "--seed expects an integer".to_string())?,
                )
            }
            "--bench-out" => config.bench_out = Some(value.clone()),
            "--mode" => {
                config.mode = match value.as_str() {
                    "closed" => Mode::Closed,
                    "mixed" => Mode::Mixed,
                    other => return Err(format!("--mode expects closed|mixed, got {other:?}")),
                }
            }
            "--tenants" => {
                config.tenants = value
                    .parse::<usize>()
                    .map_err(|_| "--tenants expects an integer".to_string())?
                    .max(1)
            }
            "--rate" => {
                config.rate = value
                    .parse::<f64>()
                    .ok()
                    .filter(|r| *r > 0.0)
                    .ok_or_else(|| "--rate expects a positive number".to_string())?
            }
            "--hog-factor" => {
                config.hog_factor = value
                    .parse::<f64>()
                    .ok()
                    .filter(|f| *f >= 1.0)
                    .ok_or_else(|| "--hog-factor expects a number >= 1".to_string())?
            }
            "--upload-csv" => config.upload_csv = Some(value.clone()),
            "--checkpoint" => config.checkpoint = Some(value.clone()),
            "--batch-sizes" => {
                config.batch_sizes = value
                    .split(',')
                    .map(|b| {
                        b.trim()
                            .parse::<usize>()
                            .ok()
                            .filter(|b| *b > 0)
                            .ok_or_else(|| "--batch-sizes expects positive integers".to_string())
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--batch-bench-out" => config.batch_bench_out = Some(value.clone()),
            other => return Err(format!("unknown option {other:?}\n\n{USAGE}")),
        }
        i += 2;
    }
    if config.batch_sizes.is_empty() {
        return Err("--batch-sizes needs at least one batch size".into());
    }
    Ok(config)
}

fn request_body(config: &Config) -> String {
    let mut body = format!("{{\"dataset\":{:?}", config.dataset);
    if let Some(n) = config.episode_len {
        body.push_str(&format!(",\"episode_len\":{n}"));
    }
    if let Some(s) = config.seed {
        body.push_str(&format!(",\"seed\":{s}"));
    }
    body.push('}');
    body
}

/// One keep-alive worker: reconnects on connection loss, issues requests
/// until the shared budget is exhausted.
fn worker(
    config: &Config,
    raw_request: &[u8],
    remaining: &AtomicUsize,
) -> Result<(Vec<Duration>, Vec<String>, usize), String> {
    let mut latencies = Vec::new();
    let mut bodies = Vec::new();
    let mut cache_hits = 0usize;
    let mut stream: Option<TcpStream> = None;
    loop {
        // Claim one request from the shared budget.
        if remaining
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_err()
        {
            return Ok((latencies, bodies, cache_hits));
        }
        let conn = match stream.take() {
            Some(s) => s,
            None => {
                let s = TcpStream::connect(&config.addr)
                    .map_err(|e| format!("connect {}: {e}", config.addr))?;
                s.set_read_timeout(Some(Duration::from_secs(30)))
                    .map_err(|e| e.to_string())?;
                s.set_nodelay(true).ok();
                s
            }
        };
        let mut conn = conn;
        let start = Instant::now();
        conn.write_all(raw_request).map_err(|e| e.to_string())?;
        let (status, headers, body) = read_response(&mut conn)?;
        latencies.push(start.elapsed());
        if status != 200 {
            return Err(format!("HTTP {status}: {body}"));
        }
        if headers
            .iter()
            .any(|(n, v)| n == "x-atena-cache" && v == "hit")
        {
            cache_hits += 1;
        }
        bodies.push(body);
        stream = Some(conn); // reuse the connection
    }
}

/// Read one HTTP response (head + Content-Length body) from the stream.
fn read_response(stream: &mut TcpStream) -> Result<(u16, Vec<(String, String)>, String), String> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 8192];
    loop {
        if let Some(parsed) = try_parse(&buf)? {
            return Ok(parsed);
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err("server closed mid-response".into()),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(format!("read: {e}")),
        }
    }
}

#[allow(clippy::type_complexity)]
fn try_parse(buf: &[u8]) -> Result<Option<(u16, Vec<(String, String)>, String)>, String> {
    let text = String::from_utf8_lossy(buf);
    let Some((head, rest)) = text.split_once("\r\n\r\n") else {
        return Ok(None);
    };
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let len: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0);
    if rest.len() < len {
        return Ok(None);
    }
    Ok(Some((status, headers, rest[..len].to_string())))
}

// ---- mixed-tenant open-loop mode ---------------------------------------

/// Per-tenant (or overall) outcome counts and success-latency quantiles.
#[derive(serde::Serialize)]
struct TenantRecord {
    tenant: String,
    sent: usize,
    ok: usize,
    throttled: usize,
    errors: usize,
    cache_hits: usize,
    rate_rps: f64,
    latency: LatencyRecord,
}

/// The persisted `BENCH_multitenant.json` schema.
#[derive(serde::Serialize)]
struct MixedBenchRecord {
    version: u32,
    bench: &'static str,
    tenants: usize,
    rate_per_tenant: f64,
    hog_factor: f64,
    requests: usize,
    wall_secs: f64,
    per_tenant: Vec<TenantRecord>,
    overall: TenantRecord,
}

/// One fresh-connection HTTP exchange.
fn one_shot(addr: &str, raw: &[u8]) -> Result<(u16, Vec<(String, String)>, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    stream.set_nodelay(true).ok();
    stream.write_all(raw).map_err(|e| e.to_string())?;
    read_response(&mut stream)
}

/// Upload one tenant's CSV variant; returns the content-addressed
/// `dataset_id` the server assigned.
fn upload_variant(addr: &str, tenant: &str, csv: &str) -> Result<String, String> {
    let raw = format!(
        "POST /v1/datasets?name={tenant} HTTP/1.1\r\nHost: {addr}\r\n\
         X-Atena-Tenant: {tenant}\r\nContent-Type: text/csv\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{csv}",
        csv.len()
    );
    let (status, _, body) = one_shot(addr, raw.as_bytes())?;
    if status != 200 && status != 201 {
        return Err(format!("upload for {tenant}: HTTP {status}: {body}"));
    }
    let value: serde_json::Value =
        serde_json::from_str(&body).map_err(|e| format!("upload response: {e}"))?;
    value["dataset"]["dataset_id"]
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("upload response missing dataset_id: {body}"))
}

/// Tenant `i` keeps all but the last `i` data rows, so every tenant's
/// upload has distinct content (and a distinct fingerprint) while staying
/// schema-identical.
fn truncate_rows(csv: &str, drop_last: usize) -> String {
    let mut lines: Vec<&str> = csv.lines().collect();
    let keep = lines.len().saturating_sub(drop_last).max(2); // header + 1 row
    lines.truncate(keep);
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

/// What one scheduled request produced.
struct ShotOutcome {
    tenant: usize,
    status: u16,
    cache_hit: bool,
    /// Completion time minus the *scheduled* send time.
    latency: Duration,
}

fn tenant_record(name: String, rate: f64, outcomes: &[&ShotOutcome]) -> TenantRecord {
    let mut ok_lat: Vec<Duration> = outcomes
        .iter()
        .filter(|o| o.status == 200)
        .map(|o| o.latency)
        .collect();
    ok_lat.sort();
    let mean_ms = if ok_lat.is_empty() {
        0.0
    } else {
        ok_lat.iter().map(Duration::as_secs_f64).sum::<f64>() * 1e3 / ok_lat.len() as f64
    };
    TenantRecord {
        tenant: name,
        sent: outcomes.len(),
        ok: ok_lat.len(),
        throttled: outcomes.iter().filter(|o| o.status == 429).count(),
        errors: outcomes
            .iter()
            .filter(|o| o.status != 200 && o.status != 429)
            .count(),
        cache_hits: outcomes.iter().filter(|o| o.cache_hit).count(),
        rate_rps: rate,
        latency: LatencyRecord {
            mean_ms,
            p50_ms: quantile(&ok_lat, 0.50).as_secs_f64() * 1e3,
            p95_ms: quantile(&ok_lat, 0.95).as_secs_f64() * 1e3,
            p99_ms: quantile(&ok_lat, 0.99).as_secs_f64() * 1e3,
        },
    }
}

/// Open-loop mixed-tenant run. Returns the process exit code.
fn run_mixed(config: &Config) -> i32 {
    let per_tenant = (config.requests / config.tenants).max(1);
    // Resolve each tenant's decode target: a per-tenant uploaded dataset,
    // or the shared baked-in dataset by name.
    let mut targets: Vec<String> = Vec::new();
    for t in 0..config.tenants {
        let tenant = format!("tenant{t}");
        if let Some(path) = &config.upload_csv {
            let csv = match std::fs::read_to_string(path) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return 2;
                }
            };
            match upload_variant(&config.addr, &tenant, &truncate_rows(&csv, t)) {
                Ok(id) => {
                    println!("{tenant}: uploaded variant as {id}");
                    targets.push(format!("\"dataset_id\":{id:?}"));
                }
                Err(e) => {
                    eprintln!("{e}");
                    return 1;
                }
            }
        } else {
            targets.push(format!("\"dataset\":{:?}", config.dataset));
        }
    }

    let episode_len = config.episode_len.unwrap_or(6);
    let outcomes: Arc<Mutex<Vec<ShotOutcome>>> = Arc::new(Mutex::new(Vec::new()));
    let transport_errors = Arc::new(AtomicUsize::new(0));
    let started = Instant::now();
    // One dispatcher thread per tenant: sleep until each scheduled send
    // time, then fire the request on a throwaway thread so a slow server
    // never delays the schedule (open loop).
    let dispatchers: Vec<_> = (0..config.tenants)
        .map(|t| {
            let addr = config.addr.clone();
            let target = targets[t].clone();
            let outcomes = Arc::clone(&outcomes);
            let transport_errors = Arc::clone(&transport_errors);
            let rate = if t == 0 {
                config.rate * config.hog_factor
            } else {
                config.rate
            };
            std::thread::spawn(move || {
                let mut shots = Vec::new();
                for k in 0..per_tenant {
                    let scheduled = started + Duration::from_secs_f64(k as f64 / rate);
                    if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let body = format!(
                        "{{{target},\"episode_len\":{episode_len},\"seed\":{}}}",
                        k % 32
                    );
                    let raw = format!(
                        "POST /v1/notebook HTTP/1.1\r\nHost: {addr}\r\n\
                         X-Atena-Tenant: tenant{t}\r\nContent-Type: application/json\r\n\
                         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                        body.len()
                    );
                    let addr = addr.clone();
                    let outcomes = Arc::clone(&outcomes);
                    let transport_errors = Arc::clone(&transport_errors);
                    shots.push(std::thread::spawn(move || {
                        match one_shot(&addr, raw.as_bytes()) {
                            Ok((status, headers, _)) => {
                                let cache_hit = headers
                                    .iter()
                                    .any(|(n, v)| n == "x-atena-cache" && v == "hit");
                                outcomes.lock().unwrap().push(ShotOutcome {
                                    tenant: t,
                                    status,
                                    cache_hit,
                                    latency: scheduled.elapsed(),
                                });
                            }
                            Err(e) => {
                                eprintln!("tenant{t} request {k}: {e}");
                                transport_errors.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                    }));
                }
                for s in shots {
                    let _ = s.join();
                }
            })
        })
        .collect();
    for d in dispatchers {
        d.join().expect("dispatcher panicked");
    }
    let elapsed = started.elapsed();

    let outcomes = outcomes.lock().unwrap();
    let mut per_tenant_records = Vec::new();
    println!(
        "{:<10} {:>6} {:>6} {:>9} {:>7} {:>10} {:>10} {:>10}",
        "tenant", "sent", "ok", "throttled", "errors", "p50 ms", "p95 ms", "p99 ms"
    );
    for t in 0..config.tenants {
        let rate = if t == 0 {
            config.rate * config.hog_factor
        } else {
            config.rate
        };
        let mine: Vec<&ShotOutcome> = outcomes.iter().filter(|o| o.tenant == t).collect();
        let rec = tenant_record(format!("tenant{t}"), rate, &mine);
        println!(
            "{:<10} {:>6} {:>6} {:>9} {:>7} {:>10.3} {:>10.3} {:>10.3}",
            rec.tenant,
            rec.sent,
            rec.ok,
            rec.throttled,
            rec.errors,
            rec.latency.p50_ms,
            rec.latency.p95_ms,
            rec.latency.p99_ms
        );
        per_tenant_records.push(rec);
    }
    let all: Vec<&ShotOutcome> = outcomes.iter().collect();
    let overall = tenant_record(
        "overall".into(),
        config.rate * (config.tenants as f64 - 1.0 + config.hog_factor),
        &all,
    );
    println!(
        "overall: {} sent, {} ok, {} throttled, {} errors in {:.3} s",
        overall.sent,
        overall.ok,
        overall.throttled,
        overall.errors,
        elapsed.as_secs_f64()
    );

    let errors = overall.errors + transport_errors.load(Ordering::SeqCst);
    if let Some(path) = &config.bench_out {
        let record = MixedBenchRecord {
            version: 1,
            bench: "loadgen-mixed",
            tenants: config.tenants,
            rate_per_tenant: config.rate,
            hog_factor: config.hog_factor,
            requests: overall.sent,
            wall_secs: elapsed.as_secs_f64(),
            per_tenant: per_tenant_records,
            overall,
        };
        match atena_bench::dump_json_to(std::path::Path::new(path), &record) {
            Ok(()) => println!("bench record written to {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                return 1;
            }
        }
    }
    if errors > 0 {
        eprintln!("FAIL: {errors} non-throttle errors");
        return 1;
    }
    0
}

// ---- self-hosted batch sweep -------------------------------------------

/// Per-batch-size outcome of the self-hosted sweep.
#[derive(serde::Serialize)]
struct BatchServingSweep {
    max_batch: usize,
    qps: f64,
    speedup_vs_batch1: f64,
    mean_occupancy: f64,
    queue_wait_p95_us: f64,
    latency: LatencyRecord,
}

/// The persisted `BENCH_batch_serving.json` schema (`version` guards
/// consumers against silent shape drift).
#[derive(serde::Serialize)]
struct BatchServingRecord {
    version: u32,
    bench: &'static str,
    dataset: String,
    requests: usize,
    concurrency: usize,
    sweeps: Vec<BatchServingSweep>,
    identical_across_batches: bool,
}

/// Spawn one in-process server per batch size, run the closed-loop sweep
/// against each, and require bit-identical responses across all batch
/// sizes. Returns the process exit code.
fn run_batch_sweep(config: &Config) -> i32 {
    let path = config.checkpoint.as_deref().expect("checkpoint is set");
    let bundle = match atena_core::PolicyBundle::load(std::path::Path::new(path)) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot load checkpoint {path}: {e}");
            return 2;
        }
    };
    let Some(dataset) = atena_data::dataset_by_id(&bundle.dataset) else {
        eprintln!(
            "checkpoint was trained on dataset {:?}, which is not built in",
            bundle.dataset
        );
        return 2;
    };
    println!(
        "batch sweep: {} requests × {} connections per batch size {:?} (response cache off)",
        config.requests, config.concurrency, config.batch_sizes
    );
    let mut sweeps: Vec<BatchServingSweep> = Vec::new();
    let mut reference_body: Option<String> = None;
    let mut identical = true;
    for &max_batch in &config.batch_sizes {
        let engine = match atena_server::Engine::new(bundle.clone(), dataset.frame.clone()) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("cannot build engine: {e}");
                return 2;
            }
        };
        let telemetry = Arc::new(atena_telemetry::MetricsRegistry::new());
        let server = match atena_server::Server::bind_with_telemetry(
            atena_server::ServerConfig {
                addr: "127.0.0.1:0".into(),
                workers: config.concurrency.max(2),
                cache_size: 0, // every request decodes — the batcher's food
                max_batch,
                ..Default::default()
            },
            engine,
            Arc::clone(&telemetry),
        ) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot bind server for max_batch={max_batch}: {e}");
                return 1;
            }
        };
        let addr = server.local_addr().expect("bound server has an address");
        let handle = server.spawn().expect("server thread spawns");

        let mut sweep_config = config.clone();
        sweep_config.addr = addr.to_string();
        // The server only serves the dataset its policy was trained on.
        sweep_config.dataset = bundle.dataset.clone();
        let body = request_body(&sweep_config);
        let raw_request = format!(
            "POST /v1/notebook HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes();
        let remaining = Arc::new(AtomicUsize::new(config.requests));
        let started = Instant::now();
        let workers: Vec<_> = (0..config.concurrency)
            .map(|_| {
                let sweep_config = sweep_config.clone();
                let raw_request = raw_request.clone();
                let remaining = Arc::clone(&remaining);
                std::thread::spawn(move || worker(&sweep_config, &raw_request, &remaining))
            })
            .collect();
        let mut latencies = Vec::new();
        let mut bodies: Vec<String> = Vec::new();
        for w in workers {
            match w.join().expect("worker panicked") {
                Ok((lat, bod, _hits)) => {
                    latencies.extend(lat);
                    bodies.extend(bod);
                }
                Err(e) => {
                    eprintln!("max_batch={max_batch} worker error: {e}");
                    handle.shutdown();
                    return 1;
                }
            }
        }
        let elapsed = started.elapsed();
        let snap = telemetry.snapshot();
        handle.shutdown();

        if latencies.is_empty() {
            eprintln!("max_batch={max_batch}: no successful requests");
            return 1;
        }
        // Identity within the run *and* against the other batch sizes:
        // every request is identical, so every response must be too.
        let reference = reference_body.get_or_insert_with(|| bodies[0].clone());
        let divergent = bodies.iter().filter(|b| *b != reference).count();
        if divergent > 0 {
            eprintln!("max_batch={max_batch}: {divergent} responses diverged");
            identical = false;
        }
        latencies.sort();
        let total: Duration = latencies.iter().sum();
        let qps = latencies.len() as f64 / elapsed.as_secs_f64().max(1e-9);
        let base_qps = sweeps.first().map_or(qps, |s| s.qps);
        let occupancy = snap.histogram("batch.occupancy");
        let sweep = BatchServingSweep {
            max_batch,
            qps,
            speedup_vs_batch1: qps / base_qps.max(1e-9),
            mean_occupancy: occupancy.map_or(0.0, |o| o.mean),
            queue_wait_p95_us: snap.histogram("batch.queue_wait_us").map_or(0.0, |q| q.p95),
            latency: LatencyRecord {
                mean_ms: total.as_secs_f64() * 1e3 / latencies.len() as f64,
                p50_ms: quantile(&latencies, 0.50).as_secs_f64() * 1e3,
                p95_ms: quantile(&latencies, 0.95).as_secs_f64() * 1e3,
                p99_ms: quantile(&latencies, 0.99).as_secs_f64() * 1e3,
            },
        };
        println!(
            "max_batch={max_batch:<3} qps {:>8.1}  speedup {:>5.2}×  occupancy {:>5.2}  \
             p50 {:>8.3} ms  p95 {:>8.3} ms  p99 {:>8.3} ms",
            sweep.qps,
            sweep.speedup_vs_batch1,
            sweep.mean_occupancy,
            sweep.latency.p50_ms,
            sweep.latency.p95_ms,
            sweep.latency.p99_ms
        );
        sweeps.push(sweep);
    }
    if identical {
        println!(
            "batch determinism: OK — responses identical across batch sizes {:?}",
            config.batch_sizes
        );
    }
    if let Some(path) = &config.batch_bench_out {
        let record = BatchServingRecord {
            version: 1,
            bench: "loadgen-batch",
            dataset: bundle.dataset.clone(),
            requests: config.requests,
            concurrency: config.concurrency,
            sweeps,
            identical_across_batches: identical,
        };
        match atena_bench::dump_json_to(std::path::Path::new(path), &record) {
            Ok(()) => println!("batch bench record written to {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                return 1;
            }
        }
    }
    if identical {
        0
    } else {
        1
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    if config.checkpoint.is_some() {
        std::process::exit(run_batch_sweep(&config));
    }
    if config.mode == Mode::Mixed {
        std::process::exit(run_mixed(&config));
    }
    let body = request_body(&config);
    let raw_request = format!(
        "POST /v1/notebook HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        config.addr,
        body.len()
    )
    .into_bytes();

    println!(
        "loadgen: {} requests, {} connections -> http://{}/v1/notebook {body}",
        config.requests, config.concurrency, config.addr
    );
    let remaining = Arc::new(AtomicUsize::new(config.requests));
    let failures: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let started = Instant::now();
    let workers: Vec<_> = (0..config.concurrency)
        .map(|_| {
            let config = config.clone();
            let raw_request = raw_request.clone();
            let remaining = Arc::clone(&remaining);
            let failures = Arc::clone(&failures);
            std::thread::spawn(move || match worker(&config, &raw_request, &remaining) {
                Ok(result) => result,
                Err(e) => {
                    failures.lock().unwrap().push(e);
                    (Vec::new(), Vec::new(), 0)
                }
            })
        })
        .collect();

    let mut latencies = Vec::new();
    let mut bodies: Vec<String> = Vec::new();
    let mut cache_hits = 0usize;
    for w in workers {
        let (lat, bod, hits) = w.join().expect("worker panicked");
        latencies.extend(lat);
        bodies.extend(bod);
        cache_hits += hits;
    }
    let elapsed = started.elapsed();

    for failure in failures.lock().unwrap().iter() {
        eprintln!("worker error: {failure}");
    }
    if latencies.is_empty() {
        eprintln!("no successful requests");
        std::process::exit(1);
    }

    // Identical requests must yield identical notebooks.
    let reference = &bodies[0];
    let divergent = bodies.iter().filter(|b| *b != reference).count();

    latencies.sort();
    let total: Duration = latencies.iter().sum();
    let secs = elapsed.as_secs_f64().max(1e-9);
    println!("requests     {:>10}", latencies.len());
    println!("cache hits   {:>10}", cache_hits);
    println!("wall time    {:>10.3} s", elapsed.as_secs_f64());
    println!("QPS          {:>10.1}", latencies.len() as f64 / secs);
    println!(
        "latency mean {:>10.3} ms",
        total.as_secs_f64() * 1e3 / latencies.len() as f64
    );
    for (label, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
        println!(
            "latency {label}  {:>10.3} ms",
            quantile(&latencies, q).as_secs_f64() * 1e3
        );
    }
    if let Some(path) = &config.bench_out {
        let record = BenchRecord {
            version: 1,
            bench: "loadgen",
            dataset: config.dataset.clone(),
            requests: latencies.len(),
            concurrency: config.concurrency,
            wall_secs: elapsed.as_secs_f64(),
            qps: latencies.len() as f64 / secs,
            latency: LatencyRecord {
                mean_ms: total.as_secs_f64() * 1e3 / latencies.len() as f64,
                p50_ms: quantile(&latencies, 0.50).as_secs_f64() * 1e3,
                p95_ms: quantile(&latencies, 0.95).as_secs_f64() * 1e3,
                p99_ms: quantile(&latencies, 0.99).as_secs_f64() * 1e3,
            },
            cache_hits,
            identical_responses: divergent == 0,
        };
        match atena_bench::dump_json_to(std::path::Path::new(path), &record) {
            Ok(()) => println!("bench record written to {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if divergent > 0 {
        eprintln!("FAIL: {divergent} responses diverged from the first");
        std::process::exit(1);
    }
    println!("all responses identical");
    if !failures.lock().unwrap().is_empty() {
        std::process::exit(1);
    }
}
