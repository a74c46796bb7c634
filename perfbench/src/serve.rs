//! The `serve` and `upload` workloads: an in-process `atena-server` with
//! the default configuration, serving a Cyber #1 checkpoint, driven over
//! reused keep-alive connections. The checkpoint is trained at the start of
//! every run at a fixed seed, so every run serves the same policy; the
//! workload seed picks the requests. Set-up is the server's start-up,
//! timed [`SETUP_REPEATS`] times before the window, each after the
//! previous server has shut down and the process has idled for
//! [`SETUP_PAUSE`].
//!
//! `serve` sends a fixed mix of notebook requests: two in three repeat a
//! small popular set (response-cache hits), one in three names a seed never
//! sent before (a full greedy decode). `upload` repeats one tenant's
//! lifecycle: upload a Cyber #1-sized CSV whose rows are shuffled by the
//! workload seed, request one notebook on it, delete it.
//!
//! Bodies are checked after the timed window against in-process decodes.
//! The traced run does that check through a decode rebuilt from the
//! layers' public calls in spans, and times the server's parser and the
//! registry on the same inputs.

use crate::client::{request_bytes, Connection, Exchange};
use crate::report::{Metrics, Outcome};
use crate::spans::{preview_span, Spans};
use crate::stats::{median, tail, HitShare};
use crate::{now, rss_mb, time_secs};
use atena_core::{train_policy_bundle, AtenaConfig, Notebook, PolicyBundle, Strategy};
use atena_dataframe::DataFrame;
use atena_env::{DisplayCache, EdaEnv, ResolvedOp};
use atena_registry::{dataset_id_for_fingerprint, ingest_csv, DatasetRegistry, RegistryConfig};
use atena_rl::{Policy, TwofoldPolicy};
use atena_runtime::stream_seed;
use atena_server::{
    Engine, NotebookRequest, NotebookResponse, RequestReader, Server, ServerConfig, ServerHandle,
    DEFAULT_MAX_BODY_BYTES,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::io::Cursor;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Environment steps the served checkpoint is trained for.
pub const CHECKPOINT_STEPS: usize = 3072;

/// Seed the served checkpoint is trained at.
const CHECKPOINT_SEED: u64 = 0;

/// Distinct notebook requests in `serve`'s popular (cache-hit) set.
pub const POPULAR: u64 = 16;

/// Every `DECODE_EVERY`-th `serve` request names a never-sent seed.
pub const DECODE_EVERY: u64 = 3;

/// Server start-ups timed before the window; the median is reported.
const SETUP_REPEATS: usize = 31;

/// Idle time before each timed start-up, so each starts from the same
/// idle state. Over ten processes on a 2-vCPU Xeon VM, back-to-back
/// start-ups spread by 0.29 (quartile distance over median of the
/// per-process medians) and paused ones by 0.07.
const SETUP_PAUSE: Duration = Duration::from_millis(50);

/// The greedy decode temperature the server's engine uses.
const DECODE_TEMPERATURE: f32 = 1e-3;

/// Display-cache capacity of the server's engine.
const ENGINE_DISPLAY_CACHE: usize = 4096;

/// How often resident memory is sampled while clients run.
const RSS_EVERY: Duration = Duration::from_millis(250);

/// The tenant `upload` acts as.
const TENANT: &str = "bench";

/// Dataset name `upload` registers its CSVs under.
const UPLOAD_NAME: &str = "bench";

/// Notebook seeds stay below 2^52 so they are exact in any JSON reader.
const SEED_MASK: u64 = (1 << 52) - 1;

/// Request-seed stream tags (beyond any lane index the runtime uses).
const STREAM_POPULAR: u64 = 1 << 40;
const STREAM_FRESH: u64 = 2 << 40;
const STREAM_UPLOAD: u64 = 3 << 40;

/// Train the served checkpoint and return it as JSON. Runs in a child
/// process so its memory stays out of the measured process.
pub fn make_checkpoint(workers: usize) -> Result<String, String> {
    let ds = atena_data::cyber1();
    let mut config = AtenaConfig::default();
    config.env.seed = CHECKPOINT_SEED;
    config.trainer.seed = CHECKPOINT_SEED;
    config.trainer.n_workers = workers;
    config.train_steps = CHECKPOINT_STEPS;
    let focal = ds.focal_attrs();
    let bundle = train_policy_bundle("cyber1", ds.frame, focal, config, Strategy::Atena)
        .map_err(|e| format!("checkpoint training failed: {e}"))?;
    bundle
        .to_json()
        .map_err(|e| format!("checkpoint encoding failed: {e}"))
}

fn checkpoint_from_child() -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let out = std::process::Command::new(exe)
        .arg("--make-checkpoint")
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run checkpoint trainer: {e}"))?;
    if !out.status.success() {
        return Err(format!("checkpoint trainer exited with {}", out.status));
    }
    String::from_utf8(out.stdout).map_err(|_| "checkpoint is not UTF-8".to_string())
}

/// The served checkpoint and a running server.
struct Setup {
    bundle: PolicyBundle,
    frame: Arc<DataFrame>,
    server: ServerHandle,
}

fn start_server(
    checkpoint: &str,
    frame: &DataFrame,
) -> Result<(PolicyBundle, ServerHandle), String> {
    let bundle = PolicyBundle::from_json(checkpoint).map_err(|e| format!("bad checkpoint: {e}"))?;
    let engine = Engine::new(bundle.clone(), frame.clone())?;
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    };
    let server = Server::bind(config, engine)
        .and_then(Server::spawn)
        .map_err(|e| format!("cannot start server: {e}"))?;
    Ok((bundle, server))
}

/// Generate the data, train the checkpoint, and start the server
/// [`SETUP_REPEATS`] times, each after the previous one has shut down and
/// a [`SETUP_PAUSE`]; the last one keeps running. Reports the median
/// start-up time.
fn setup(m: &mut Metrics) -> Result<Setup, String> {
    let (ds, data_s) = time_secs(atena_data::cyber1);
    let checkpoint = checkpoint_from_child()?;
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((_, server)) = last.take() {
            ServerHandle::shutdown(server);
        }
        std::thread::sleep(SETUP_PAUSE);
        let (started, secs) = time_secs(|| start_server(&checkpoint, &ds.frame));
        last = Some(started?);
        times.push(secs);
    }
    let (bundle, server) = last.expect("at least one set-up");
    let setup_s = median(&times).unwrap_or(0.0);
    m.put("setup_s", setup_s);
    m.put("setup.engine_s", setup_s);
    m.put("setup.data_s", data_s);
    Ok(Setup {
        bundle,
        frame: Arc::new(ds.frame),
        server,
    })
}

fn body_hash(body: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    body.hash(&mut h);
    h.finish()
}

/// Seed of popular request `j`.
pub fn popular_seed(seed: u64, j: u64) -> u64 {
    stream_seed(seed, j, STREAM_POPULAR) & SEED_MASK
}

/// Seed of connection `conn`'s `i`-th request.
pub fn fresh_seed(seed: u64, conn: u64, i: u64) -> u64 {
    stream_seed(seed, conn, STREAM_FRESH + i) & SEED_MASK
}

fn notebook_request(body: &str, tenant: Option<&str>) -> Vec<u8> {
    let mut headers = vec![("Content-Type", "application/json")];
    if let Some(t) = tenant {
        headers.push(("X-Atena-Tenant", t));
    }
    request_bytes("POST", "/v1/notebook", &headers, body.as_bytes())
}

fn serve_request(seed: u64) -> Vec<u8> {
    notebook_request(&format!("{{\"dataset\":\"cyber1\",\"seed\":{seed}}}"), None)
}

/// The notebook seed of `serve` request `i` on connection `conn`: a
/// never-sent seed at every [`DECODE_EVERY`]-th request, else a popular one.
pub fn serve_mix(seed: u64, conn: u64, i: u64, rng: &mut StdRng) -> u64 {
    use rand::Rng;
    if i % DECODE_EVERY == DECODE_EVERY - 1 {
        fresh_seed(seed, conn, i)
    } else {
        popular_seed(seed, rng.gen_range(0..POPULAR))
    }
}

/// One timed HTTP exchange, kept for the output checks.
#[derive(Clone)]
struct Sample {
    /// Notebook seed (serve) or lifecycle index (upload).
    key: u64,
    hash: u64,
    latency_ms: f64,
}

/// What one client connection measured.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    /// Request written → first response byte, and first → last byte, ms.
    ttfb_ms: Vec<f64>,
    gap_ms: Vec<f64>,
    hits: HitShare,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    finished: Option<Instant>,
}

impl ClientLog {
    fn time(&mut self, x: &Exchange) {
        self.ttfb_ms
            .push((x.first_byte - x.written).as_secs_f64() * 1e3);
        self.gap_ms
            .push((x.last_byte - x.first_byte).as_secs_f64() * 1e3);
    }

    /// Send one request; `None` (counted as failed) on an I/O error or a
    /// non-2xx status. Failed requests are never retried; a broken
    /// connection is replaced for the next request.
    fn send(
        &mut self,
        conn: &mut Option<Connection>,
        addr: SocketAddr,
        bytes: &[u8],
    ) -> Option<Exchange> {
        self.attempted += 1;
        let result = match conn {
            Some(c) => c.exchange(bytes),
            None => Connection::open(addr).and_then(|mut c| {
                let x = c.exchange(bytes);
                *conn = Some(c);
                x
            }),
        };
        match result {
            Ok(x) if (200..300).contains(&x.response.status) => {
                self.time(&x);
                Some(x)
            }
            Ok(x) => {
                self.failed += 1;
                self.errors.push(format!(
                    "status {}: {}",
                    x.response.status,
                    String::from_utf8_lossy(&x.response.body)
                ));
                None
            }
            Err(e) => {
                self.failed += 1;
                self.errors.push(format!("I/O error: {e}"));
                *conn = None;
                None
            }
        }
    }
}

/// Run `client` on `connections` threads; returns the logs, the window's
/// length in seconds (until the last client ended), and resident-memory
/// samples taken every [`RSS_EVERY`] while the clients ran.
fn drive<F>(connections: usize, start: Instant, client: F) -> (Vec<ClientLog>, f64, Vec<f64>)
where
    F: Fn(u64) -> ClientLog + Sync,
{
    let mut rss = Vec::new();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections as u64)
            .map(|c| {
                let client = &client;
                s.spawn(move || client(c))
            })
            .collect();
        while !handles.iter().all(|h| h.is_finished()) {
            std::thread::sleep(RSS_EVERY);
            rss.push(rss_mb());
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let end = logs
        .iter()
        .filter_map(|l| l.finished)
        .max()
        .unwrap_or(start);
    (logs, (end - start).as_secs_f64(), rss)
}

/// Time each request's parse by the server's own parser on the bytes the
/// client sent.
fn time_parse(bytes: &[u8], spans: &mut Spans) -> Result<(), String> {
    let limits = RegistryConfig::default().limits;
    spans.enter("server.parse");
    let parsed = RequestReader::with_max_body(Cursor::new(bytes), DEFAULT_MAX_BODY_BYTES)
        .with_route_cap("/v1/datasets", limits.max_bytes)
        .read_request();
    spans.exit();
    parsed
        .map(|_| ())
        .map_err(|e| format!("own request does not parse: {e:?}"))
}

/// A decode rebuilt from the layers' public calls, each in a span; returns
/// the response body the server would send.
fn traced_decode(
    bundle: &PolicyBundle,
    policy: &TwofoldPolicy,
    cache: &Arc<DisplayCache>,
    frame: &Arc<DataFrame>,
    request: &NotebookRequest,
    spans: &mut Spans,
) -> Result<String, String> {
    spans.enter("decode");
    let ops = traced_steps(bundle, policy, cache, frame, request, spans);
    let body = ops.and_then(|ops| {
        spans.leaf("core.replay", || {
            let notebook = Notebook::replay(&request.dataset, frame, &ops);
            let response = NotebookResponse {
                dataset: request.dataset.clone(),
                episode_len: request.episode_len,
                seed: request.seed,
                strategy: bundle.strategy.name().to_string(),
                notebook: notebook.summary(),
            };
            serde_json::to_string(&response).map_err(|e| e.to_string())
        })
    });
    spans.exit();
    body
}

/// The greedy decode loop of [`Engine::decode_with_frame`], one span per
/// layer call; returns the operations it chose.
fn traced_steps(
    bundle: &PolicyBundle,
    policy: &TwofoldPolicy,
    cache: &Arc<DisplayCache>,
    frame: &Arc<DataFrame>,
    request: &NotebookRequest,
    spans: &mut Spans,
) -> Result<Vec<ResolvedOp>, String> {
    let mut env_config = bundle.env.clone();
    env_config.episode_len = request.episode_len;
    env_config.seed = request.seed;
    let mut env = spans.leaf("env.reset", || {
        let mut env = EdaEnv::with_shared_base(Arc::clone(frame), env_config)
            .with_display_cache(Arc::clone(cache));
        env.reset_with_seed(request.seed);
        env
    });
    let mut rng = StdRng::seed_from_u64(request.seed);
    while !env.done() {
        let obs = spans.leaf("env.observation", || env.observation());
        let step = spans.leaf("nn.act", || policy.act(&obs, DECODE_TEMPERATURE, &mut rng));
        let action = step
            .choice
            .to_eda_action()
            .ok_or("twofold policy emitted a non-twofold choice")?;
        let op = spans.leaf("env.resolve", || env.resolve(&action));
        let misses = cache.stats().misses;
        let start = now();
        let preview = env.preview(&op);
        let secs = start.elapsed().as_secs_f64();
        spans.record(preview_span(&op, cache.stats().misses == misses), secs);
        spans.leaf("env.commit", || env.commit(preview));
    }
    Ok(env.session().ops().iter().map(|o| o.op.clone()).collect())
}

/// Checks served bodies against in-process decodes of their requests.
struct Checker<'a> {
    bundle: &'a PolicyBundle,
    engine: Engine,
    traced: Option<Traced>,
}

/// The traced check path: the decode rebuilt from public calls in spans,
/// with a display cache of its own, beside the engine's untraced decode.
struct Traced {
    policy: TwofoldPolicy,
    cache: Arc<DisplayCache>,
    spans: Spans,
    engine_spans: Spans,
    engine_secs: f64,
    traced_secs: f64,
}

impl<'a> Checker<'a> {
    /// A checker whose engine serves `frame`.
    fn new(setup: &'a Setup, frame: DataFrame, trace: bool) -> Result<Self, String> {
        let engine = Engine::new(setup.bundle.clone(), frame)?;
        let traced = if trace {
            Some(Traced {
                policy: setup.bundle.build_policy().map_err(|e| e.to_string())?,
                cache: Arc::new(DisplayCache::new(ENGINE_DISPLAY_CACHE)),
                spans: Spans::default(),
                engine_spans: Spans::default(),
                engine_secs: 0.0,
                traced_secs: 0.0,
            })
        } else {
            None
        };
        Ok(Self {
            bundle: &setup.bundle,
            engine,
            traced,
        })
    }

    /// Whether `hash` is the body of `request` decoded over `frame`. The
    /// traced path decodes over `traced_frame`, a separately built copy,
    /// so neither decode finds the other's memoized statistics.
    fn matches(
        &mut self,
        frame: &Arc<DataFrame>,
        traced_frame: Option<&Arc<DataFrame>>,
        request: &NotebookRequest,
        hash: u64,
    ) -> Result<bool, String> {
        let start = now();
        let decoded = self
            .engine
            .decode_with_frame(frame, request, None)
            .map_err(|e| e.to_string())?;
        let body = serde_json::to_string(&decoded).map_err(|e| e.to_string())?;
        let secs = start.elapsed().as_secs_f64();
        let mut ok = body_hash(body.as_bytes()) == hash;
        if let (Some(t), Some(traced_frame)) = (&mut self.traced, traced_frame) {
            t.engine_spans.record("engine.decode", secs);
            t.engine_secs += secs;
            let start = now();
            let traced = traced_decode(
                self.bundle,
                &t.policy,
                &t.cache,
                traced_frame,
                request,
                &mut t.spans,
            )?;
            t.traced_secs += start.elapsed().as_secs_f64();
            ok &= traced == body;
        }
        Ok(ok)
    }

    /// Per-layer metrics of the traced decodes; their spans join `spans`.
    fn report(self, m: &mut Metrics, spans: &mut Spans) {
        let Some(t) = self.traced else {
            return;
        };
        let s = t.cache.stats();
        let lookups = (s.hits + s.misses).max(1) as f64;
        m.put("env.display_cache.hit_share", s.hits as f64 / lookups);
        m.put(
            "env.display_cache.evictions",
            s.evictions as f64 * 1000.0 / lookups,
        );
        m.put("trace.overhead_share", t.traced_secs / t.engine_secs - 1.0);
        m.put("trace.coverage_share", t.spans.coverage());
        spans.merge(t.spans);
        spans.merge(t.engine_spans);
    }
}

/// Latency and throughput metrics shared by both workloads.
fn end_to_end(m: &mut Metrics, completed: usize, window: f64, latencies: &[f64], rss: &[f64]) {
    m.put("throughput_per_s", completed as f64 / window);
    m.put("latency_p50_ms", median(latencies).unwrap_or(0.0));
    m.put_tail("latency_tail_ms", tail(latencies));
    m.put("rss_mb", median(rss).unwrap_or(0.0));
}

/// Fold client logs into the outcome's counts and error list.
fn tally(outcome: &mut Outcome, logs: &[ClientLog]) {
    for log in logs {
        outcome.attempted += log.attempted;
        outcome.failed += log.failed;
        for e in log.errors.iter().take(3) {
            outcome.errors.push(format!("request failed: {e}"));
        }
    }
}

/// HTTP timings of every exchange as spans.
fn http_spans(logs: &[ClientLog], spans: &mut Spans) {
    for log in logs {
        for &t in &log.ttfb_ms {
            spans.record("server.ttfb", t / 1e3);
        }
        for &g in &log.gap_ms {
            spans.record("server.body_gap", g / 1e3);
        }
    }
}

/// The `serve` workload.
pub fn run_serve(seed: u64, seconds: f64, trace: bool, connections: usize) -> Outcome {
    let mut outcome = Outcome::default();
    let mut m = Metrics::default();
    let setup = match setup(&mut m) {
        Ok(s) => s,
        Err(e) => {
            outcome.errors.push(e);
            return outcome;
        }
    };
    let addr = setup.server.addr();
    // Warm the response cache with the popular set before timing.
    let mut warm = Connection::open(addr).ok();
    let mut warm_log = ClientLog::default();
    let mut first = BTreeMap::new();
    for j in 0..POPULAR {
        let s = popular_seed(seed, j);
        if let Some(x) = warm_log.send(&mut warm, addr, &serve_request(s)) {
            first.insert(s, body_hash(&x.response.body));
        }
    }
    drop(warm);
    tally(&mut outcome, std::slice::from_ref(&warm_log));

    let start = now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let (logs, window, rss) = drive(connections, start, |c| {
        let mut log = ClientLog::default();
        let mut conn = Connection::open(addr).ok();
        let mut rng = StdRng::seed_from_u64(stream_seed(seed, c, STREAM_POPULAR - 1));
        let mut i = 0;
        while now() < deadline {
            let s = serve_mix(seed, c, i, &mut rng);
            i += 1;
            let Some(x) = log.send(&mut conn, addr, &serve_request(s)) else {
                continue;
            };
            log.hits.record(x.response.header("x-atena-cache"));
            log.samples.push(Sample {
                key: s,
                hash: body_hash(&x.response.body),
                latency_ms: x.latency_ms(),
            });
        }
        log.finished = Some(now());
        log
    });
    tally(&mut outcome, &logs);
    let samples: Vec<&Sample> = logs.iter().flat_map(|l| &l.samples).collect();
    let latencies: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    end_to_end(&mut m, samples.len(), window, &latencies, &rss);
    let mut hits = HitShare::default();
    for log in &logs {
        hits.merge(log.hits);
    }
    m.note(format!(
        "serve: {} notebooks over {connections} keep-alive connections in {window:.2}s; \
         1 in {DECODE_EVERY} a never-sent seed, the rest from {POPULAR} popular seeds; \
         response-cache hit share {:.3}",
        samples.len(),
        hits.share()
    ));

    // Every repeat must match its first response; every distinct request
    // must match an in-process decode.
    let mut repeats_ok = true;
    for s in &samples {
        repeats_ok &= *first.entry(s.key).or_insert(s.hash) == s.hash;
    }
    outcome.check(
        repeats_ok,
        "a repeated notebook differs from its first response",
    );
    let distinct: Vec<(u64, u64)> = first.into_iter().collect();
    let mut spans = Spans::default();
    match check_bodies(&setup, &distinct, trace, connections, &mut m, &mut spans) {
        Ok(true) => {}
        Ok(false) => outcome
            .errors
            .push("a served notebook differs from the in-process decode".into()),
        Err(e) => outcome.errors.push(e),
    }
    if trace {
        m.put("server.response_cache.hit_share", hits.share());
        http_spans(&logs, &mut spans);
        for s in &samples {
            if let Err(e) = time_parse(&serve_request(s.key), &mut spans) {
                outcome.errors.push(e);
                break;
            }
        }
        m.put_layer_spans(&spans);
        m.spans = Some(spans);
    }
    setup.server.shutdown();
    outcome.metrics = m;
    outcome
}

/// Decode every distinct `(seed, body hash)` in-process and compare.
fn check_bodies(
    setup: &Setup,
    distinct: &[(u64, u64)],
    trace: bool,
    threads: usize,
    m: &mut Metrics,
    spans: &mut Spans,
) -> Result<bool, String> {
    let validate = |engine: &Engine, seed: u64| {
        engine
            .validate("cyber1", None, Some(seed))
            .map_err(|e| e.to_string())
    };
    if trace {
        // One thread, so display-cache hits are attributed exactly. Both
        // paths decode over freshly generated copies of the data.
        let mut checker = Checker::new(setup, atena_data::cyber1().frame, true)?;
        let frame = Arc::clone(checker.engine.frame());
        let traced_frame = Arc::new(atena_data::cyber1().frame);
        let mut ok = true;
        for &(seed, hash) in distinct {
            let request = validate(&checker.engine, seed)?;
            ok &= checker.matches(&frame, Some(&traced_frame), &request, hash)?;
        }
        checker.report(m, spans);
        return Ok(ok);
    }
    let chunk = distinct.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = distinct
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || -> Result<bool, String> {
                    let mut checker = Checker::new(setup, (*setup.frame).clone(), false)?;
                    let frame = Arc::clone(checker.engine.frame());
                    let mut ok = true;
                    for &(seed, hash) in part {
                        let request = validate(&checker.engine, seed)?;
                        ok &= checker.matches(&frame, None, &request, hash)?;
                    }
                    Ok(ok)
                })
            })
            .collect();
        handles.into_iter().try_fold(true, |acc, h| {
            Ok(acc & h.join().expect("check thread panicked")?)
        })
    })
}

/// The CSV rows of Cyber #1: header and data lines.
pub struct CsvRows {
    header: String,
    rows: Vec<String>,
}

impl CsvRows {
    /// Split a frame's CSV rendering into its header and rows.
    pub fn of(frame: &DataFrame) -> Self {
        let text = frame.to_csv_string();
        let mut lines = text.lines().map(str::to_string);
        let header = lines.next().unwrap_or_default();
        Self {
            header,
            rows: lines.collect(),
        }
    }

    /// Upload `i` of connection `conn`: every row, in an order drawn from
    /// the workload seed, so no two uploads of a run share content.
    pub fn upload(&self, seed: u64, conn: u64, i: u64) -> Vec<u8> {
        let mut order: Vec<usize> = (0..self.rows.len()).collect();
        let mut rng = StdRng::seed_from_u64(stream_seed(seed, conn, STREAM_UPLOAD + i));
        order.shuffle(&mut rng);
        let mut out = Vec::with_capacity(
            self.header.len() + 1 + self.rows.iter().map(|r| r.len() + 1).sum::<usize>(),
        );
        out.extend_from_slice(self.header.as_bytes());
        out.push(b'\n');
        for k in order {
            out.extend_from_slice(self.rows[k].as_bytes());
            out.push(b'\n');
        }
        out
    }
}

fn upload_request(csv: &[u8]) -> Vec<u8> {
    request_bytes(
        "POST",
        &format!("/v1/datasets?name={UPLOAD_NAME}"),
        &[("Content-Type", "text/csv"), ("X-Atena-Tenant", TENANT)],
        csv,
    )
}

fn upload_notebook_request(dataset_id: &str, seed: u64) -> Vec<u8> {
    notebook_request(
        &format!("{{\"dataset_id\":\"{dataset_id}\",\"seed\":{seed}}}"),
        Some(TENANT),
    )
}

fn delete_request(dataset_id: &str) -> Vec<u8> {
    request_bytes(
        "DELETE",
        &format!("/v1/datasets/{dataset_id}"),
        &[("X-Atena-Tenant", TENANT)],
        b"",
    )
}

/// The notebook seed of upload lifecycle `i` on connection `conn`.
fn upload_notebook_seed(seed: u64, conn: u64, i: u64) -> u64 {
    fresh_seed(seed, conn, i) % 1000
}

/// One completed upload lifecycle, kept for the output checks.
struct Lifecycle {
    conn: u64,
    index: u64,
    dataset_id: String,
    notebook_hash: u64,
}

/// The `upload` workload.
pub fn run_upload(seed: u64, seconds: f64, trace: bool, connections: usize) -> Outcome {
    let mut outcome = Outcome::default();
    let mut m = Metrics::default();
    let setup = match setup(&mut m) {
        Ok(s) => s,
        Err(e) => {
            outcome.errors.push(e);
            return outcome;
        }
    };
    let addr = setup.server.addr();
    let rows = CsvRows::of(&setup.frame);

    let start = now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let lifecycles = std::sync::Mutex::new(Vec::new());
    let (logs, window, rss) = drive(connections, start, |c| {
        let mut log = ClientLog::default();
        let mut conn = Connection::open(addr).ok();
        let mut done = Vec::new();
        let mut i = 0;
        while now() < deadline {
            let csv = rows.upload(seed, c, i);
            let index = i;
            i += 1;
            let Some(up) = log.send(&mut conn, addr, &upload_request(&csv)) else {
                continue;
            };
            let id = serde_json::from_str::<serde_json::Value>(&String::from_utf8_lossy(
                &up.response.body,
            ))
            .ok()
            .and_then(|v| {
                v.get("dataset")
                    .and_then(|d| d.get("dataset_id"))
                    .and_then(|d| d.as_str())
                    .map(str::to_string)
            });
            let Some(id) = id else {
                log.failed += 1;
                log.errors.push("upload response has no dataset_id".into());
                continue;
            };
            let nb = log.send(
                &mut conn,
                addr,
                &upload_notebook_request(&id, upload_notebook_seed(seed, c, index)),
            );
            let deleted = log.send(&mut conn, addr, &delete_request(&id)).is_some();
            if let (Some(nb), true) = (nb, deleted) {
                log.samples.push(Sample {
                    key: index,
                    hash: body_hash(&nb.response.body),
                    latency_ms: (nb.last_byte - up.sent).as_secs_f64() * 1e3,
                });
                done.push(Lifecycle {
                    conn: c,
                    index,
                    dataset_id: id,
                    notebook_hash: body_hash(&nb.response.body),
                });
            }
        }
        log.finished = Some(now());
        lifecycles.lock().expect("lifecycle list").extend(done);
        log
    });
    tally(&mut outcome, &logs);
    let latencies: Vec<f64> = logs
        .iter()
        .flat_map(|l| &l.samples)
        .map(|s| s.latency_ms)
        .collect();
    end_to_end(&mut m, latencies.len(), window, &latencies, &rss);
    let lifecycles = lifecycles.into_inner().expect("lifecycle list");
    // Every upload is a permutation of the same rows, so all are this long.
    let upload_bytes = rows.upload(seed, 0, 0).len();
    m.note(format!(
        "upload: {} lifecycles (upload {} KiB CSV, one notebook, delete) over {connections} \
         keep-alive connections in {window:.2}s; latency is upload sent → first notebook received",
        lifecycles.len(),
        upload_bytes / 1024
    ));

    let mut spans = Spans::default();
    match check_uploads(&setup, &rows, seed, &lifecycles, trace, &mut m, &mut spans) {
        Ok(()) => {}
        Err(e) => outcome.errors.push(e),
    }
    if trace {
        http_spans(&logs, &mut spans);
        m.put_layer_spans(&spans);
        let parse = spans.get("registry.parse");
        if parse.total_secs > 0.0 {
            let bytes = (lifecycles.len() * upload_bytes) as f64;
            m.put(
                "registry.parse_mb_per_s",
                bytes / (1 << 20) as f64 / parse.total_secs,
            );
        }
        m.spans = Some(spans);
    }
    setup.server.shutdown();
    outcome.metrics = m;
    outcome
}

/// Check every lifecycle: its `dataset_id` is the fingerprint id of the
/// CSV parsed locally, and its notebook is the in-process decode on that
/// frame. The traced run also times the registry on the same CSVs.
fn check_uploads(
    setup: &Setup,
    rows: &CsvRows,
    seed: u64,
    lifecycles: &[Lifecycle],
    trace: bool,
    m: &mut Metrics,
    spans: &mut Spans,
) -> Result<(), String> {
    let limits = RegistryConfig::default().limits;
    let registry = DatasetRegistry::new(RegistryConfig::default());
    let mut checker = Checker::new(setup, (*setup.frame).clone(), trace)?;
    let mut resident = Vec::new();
    for l in lifecycles {
        let csv = rows.upload(seed, l.conn, l.index);
        if trace {
            time_parse(&upload_request(&csv), spans)?;
        }
        let frame = spans
            .leaf("registry.parse", || ingest_csv(&csv, limits))
            .map_err(|e| format!("own CSV does not parse: {e}"))?;
        let expected = dataset_id_for_fingerprint(frame.fingerprint());
        if expected != l.dataset_id {
            return Err(format!(
                "upload {} of connection {} got dataset_id {}, expected {expected}",
                l.index, l.conn, l.dataset_id
            ));
        }
        let frame = Arc::new(frame);
        // A second parse gives the traced decode a frame of its own.
        let traced_frame = if trace {
            Some(Arc::new(
                ingest_csv(&csv, limits).map_err(|e| e.to_string())?,
            ))
        } else {
            None
        };
        if trace {
            spans
                .leaf("registry.insert", || {
                    registry.insert(TENANT, UPLOAD_NAME, Arc::clone(&frame))
                })
                .map_err(|e| format!("registry insert failed: {e}"))?;
            resident.push(registry.snapshot().total_bytes as f64 / (1 << 20) as f64);
            spans
                .leaf("registry.delete", || registry.delete(&expected))
                .map_err(|e| format!("registry delete failed: {e}"))?;
        }
        let request = checker
            .engine
            .validate_for_frame(
                UPLOAD_NAME,
                &frame,
                None,
                Some(upload_notebook_seed(seed, l.conn, l.index)),
            )
            .map_err(|e| e.to_string())?;
        if !checker.matches(&frame, traced_frame.as_ref(), &request, l.notebook_hash)? {
            return Err(format!(
                "notebook of upload {} on connection {} differs from the in-process decode",
                l.index, l.conn
            ));
        }
    }
    if trace {
        m.put("registry.resident_mb", median(&resident).unwrap_or(0.0));
    }
    checker.report(m, spans);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_frame() -> DataFrame {
        use atena_dataframe::AttrRole;
        DataFrame::builder()
            .str(
                "proto",
                AttrRole::Categorical,
                (0..40).map(|i| Some(["tcp", "udp", "icmp"][i % 3])),
            )
            .int(
                "len",
                AttrRole::Numeric,
                (0..40).map(|i| Some(i as i64 * 7)),
            )
            .build()
            .unwrap()
    }

    fn fingerprint(csv: &[u8]) -> u64 {
        ingest_csv(csv, RegistryConfig::default().limits)
            .unwrap()
            .fingerprint()
    }

    #[test]
    fn distinct_seeds_give_distinct_upload_fingerprints() {
        let rows = CsvRows::of(&small_frame());
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..4 {
            for conn in 0..2 {
                for i in 0..4 {
                    assert!(seen.insert(fingerprint(&rows.upload(seed, conn, i))));
                }
            }
        }
        // The same coordinates give the same bytes.
        assert_eq!(rows.upload(7, 1, 3), rows.upload(7, 1, 3));
    }

    #[test]
    fn uploads_keep_every_row() {
        let frame = small_frame();
        let rows = CsvRows::of(&frame);
        let parsed = ingest_csv(&rows.upload(1, 0, 0), RegistryConfig::default().limits).unwrap();
        assert_eq!(parsed.n_rows(), frame.n_rows());
        assert_eq!(parsed.n_cols(), frame.n_cols());
    }

    #[test]
    fn serve_mix_decodes_never_sent_seeds_at_a_fixed_ratio() {
        let mut rng = StdRng::seed_from_u64(1);
        let popular: Vec<u64> = (0..POPULAR).map(|j| popular_seed(9, j)).collect();
        let mut fresh = std::collections::BTreeSet::new();
        for conn in 0..2 {
            for i in 0..400 {
                let s = serve_mix(9, conn, i, &mut rng);
                if i % DECODE_EVERY == DECODE_EVERY - 1 {
                    assert!(fresh.insert(s), "fresh seed repeated");
                    assert!(!popular.contains(&s));
                } else {
                    assert!(popular.contains(&s));
                }
            }
        }
        assert_eq!(fresh.len() as u64, 2 * 400 / DECODE_EVERY);
    }
}
