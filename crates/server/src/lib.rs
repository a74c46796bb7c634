//! # atena-server
//!
//! A from-scratch HTTP/1.1 inference service for ATENA notebook generation,
//! built on `std::net`; every JSON body is rendered by `serde_json`.
//!
//! At startup the server loads a [`PolicyBundle`](atena_core::PolicyBundle)
//! (a trained twofold policy plus its dataset identity and environment
//! configuration), rebuilds the policy once, and shares it read-only across
//! a fixed pool of worker threads. Endpoints:
//!
//! | Endpoint             | Method | Purpose                                  |
//! |----------------------|--------|------------------------------------------|
//! | `/v1/notebook`       | POST   | greedy-decode an EDA notebook as JSON    |
//! | `/v1/datasets`       | POST   | streaming CSV upload into the registry   |
//! | `/v1/datasets`       | GET    | list resident datasets                   |
//! | `/v1/datasets/{id}`  | GET    | metadata for one dataset                 |
//! | `/v1/datasets/{id}`  | DELETE | evict an unpinned dataset                |
//! | `/v1/healthz`        | GET    | liveness + loaded-policy metadata        |
//! | `/v1/metrics`        | GET    | telemetry counters/histograms snapshot   |
//!
//! Uploaded datasets live in a fingerprint-keyed, byte-budgeted
//! [`DatasetRegistry`]; `POST /v1/notebook` accepts an optional
//! `dataset_id` to decode against a registered dataset instead of the
//! bundle's baked-in one. Mutating requests are admission-controlled per
//! tenant (the `X-Atena-Tenant` header, default `public`): a tenant over
//! its in-flight cap gets `429` with a `Retry-After` header while other
//! tenants proceed.
//!
//! Identical `(dataset, fingerprint, episode_len, seed)` requests are
//! answered from an LRU response cache without touching the policy; the
//! `X-Atena-Cache` header reports `hit` or `miss`. Malformed requests,
//! oversized bodies, and per-request socket timeouts are answered with
//! precise 4xx statuses, and SIGTERM/SIGINT (or [`ServerHandle::shutdown`])
//! triggers a graceful drain: stop accepting, finish in-flight
//! connections, join the pool.

#![warn(missing_docs)]

mod cache;
mod engine;
mod http;
mod pool;
mod signal;

pub use cache::LruCache;
pub use engine::{Engine, EngineError, NotebookRequest, NotebookResponse, MAX_EPISODE_LEN};
pub use http::{
    DeadlineWriter, ParseError, Request, RequestReader, Response, DEFAULT_MAX_BODY_BYTES,
};
pub use pool::ThreadPool;
pub use signal::{install_handlers, request_shutdown, shutdown_requested};

use atena_registry::{
    AdmissionController, DatasetInfo, DatasetRegistry, RegistryConfig, RegistryError, TenantLimits,
};
use atena_telemetry::{
    ActiveTrace, HistogramSummary, MetricsRegistry, MetricsSnapshot, ROOT_SPAN_ID,
};
use serde::Serialize;
use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Entries kept in the `/v1/debug/requests` recent-request ring.
pub const DEBUG_RING_CAPACITY: usize = 64;

/// Server tunables.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:8080` (port 0 picks an ephemeral one).
    pub addr: String,
    /// Worker threads handling connections.
    pub workers: usize,
    /// LRU response-cache capacity in entries (0 disables caching).
    pub cache_size: usize,
    /// Per-request socket read/write timeout.
    pub request_timeout: Duration,
    /// Request body cap in bytes.
    pub max_body_bytes: usize,
    /// Requests handled in more than this are counted in
    /// `server.request.slow` and logged at WARN with their trace id.
    pub slow_threshold: Duration,
    /// Dataset-registry sizing: upload caps, byte budget, tenant quotas.
    pub registry: RegistryConfig,
    /// Per-tenant admission control for mutating requests.
    pub tenant_limits: TenantLimits,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8080".into(),
            workers: 4,
            cache_size: 256,
            request_timeout: Duration::from_secs(10),
            max_body_bytes: DEFAULT_MAX_BODY_BYTES,
            slow_threshold: Duration::from_millis(500),
            registry: RegistryConfig::default(),
            tenant_limits: TenantLimits::default(),
        }
    }
}

/// One `/v1/debug/requests` ring entry: a served request's identity and
/// latency breakdown.
#[derive(Clone, Serialize)]
struct RequestDebug {
    trace_id: String,
    ts: f64,
    method: String,
    path: String,
    status: u16,
    cache: &'static str,
    total_secs: f64,
    read_secs: f64,
    decode_secs: f64,
}

/// Shared per-server state: the engine, the response cache, telemetry, and
/// the recent-request debug ring.
struct AppState {
    engine: Engine,
    cache: Mutex<LruCache<NotebookRequest, Arc<String>>>,
    registry: Arc<DatasetRegistry>,
    admission: Arc<AdmissionController>,
    telemetry: Arc<MetricsRegistry>,
    debug: Mutex<VecDeque<RequestDebug>>,
    started: Instant,
}

/// A bound (but not yet running) server.
pub struct Server {
    listener: TcpListener,
    state: Arc<AppState>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
}

/// Handle to a server running on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request a graceful drain and wait for the server to finish.
    pub fn shutdown(mut self) {
        self.finish();
    }

    /// Set the drain flag, unblock the accept loop with a self-connect,
    /// and join the server thread.
    fn finish(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        signal::wake_addr(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.finish();
    }
}

impl Server {
    /// Bind the listener and prepare shared state. Metrics go to the
    /// process-wide telemetry registry.
    pub fn bind(config: ServerConfig, engine: Engine) -> std::io::Result<Server> {
        Self::bind_with_telemetry(config, engine, atena_telemetry::global_arc())
    }

    /// [`Server::bind`] with an explicit metrics registry (tests use a
    /// private one per server to stay isolated). Every metric the server
    /// records goes there: its own, the engine's display cache
    /// (`env.cache.*`) and decode environments (`env.op.*`,
    /// `env.step_secs`), the dataset registry's and admission's.
    pub fn bind_with_telemetry(
        config: ServerConfig,
        mut engine: Engine,
        telemetry: Arc<MetricsRegistry>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        engine.reroute_telemetry(&telemetry);
        let registry = Arc::new(DatasetRegistry::new(config.registry));
        registry.reroute_telemetry(&telemetry);
        // The bundle's baked-in dataset is pinned: always resolvable by id,
        // never evicted, exempt from the upload budget.
        registry.insert_pinned(engine.dataset(), Arc::clone(engine.frame()));
        let admission = Arc::new(AdmissionController::new(config.tenant_limits));
        admission.reroute_telemetry(&telemetry);
        let state = Arc::new(AppState {
            engine,
            cache: Mutex::new(LruCache::new(config.cache_size)),
            registry,
            admission,
            telemetry,
            debug: Mutex::new(VecDeque::with_capacity(DEBUG_RING_CAPACITY)),
            started: Instant::now(),
        });
        Ok(Server {
            listener,
            state,
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The address the listener actually bound (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Run the accept loop on this thread until a shutdown is requested via
    /// [`ServerHandle::shutdown`], [`request_shutdown`], or a signal
    /// (after [`install_handlers`]). Returns after the drain completes.
    pub fn run(self) {
        let Server {
            listener,
            state,
            config,
            shutdown,
        } = self;
        // Panic-isolated workers: a request that trips a latent panic costs
        // one connection (counted below), never a pool thread.
        let panic_telemetry = Arc::clone(&state.telemetry);
        let pool = ThreadPool::with_panic_hook(
            config.workers,
            Some(Arc::new(move || {
                panic_telemetry.counter("server.pool.panics").inc();
            })),
        );
        // The accept is fully blocking: zero idle CPU and no accept-latency
        // floor. Shutdown paths (handle, request_shutdown, signals via the
        // self-pipe watcher) unblock it with a throwaway self-connect, so
        // the loop re-checks the drain flag after every accept.
        let addr = listener.local_addr().ok();
        if let Some(a) = addr {
            signal::register_listener(a);
        }
        loop {
            if shutdown.load(Ordering::SeqCst) || signal::shutdown_requested() {
                break;
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if shutdown.load(Ordering::SeqCst) || signal::shutdown_requested() {
                        // A shutdown wake-up (or a client racing the
                        // drain): close it unanswered and stop accepting.
                        drop(stream);
                        break;
                    }
                    state.telemetry.counter("server.connections").inc();
                    let state = Arc::clone(&state);
                    let shutdown = Arc::clone(&shutdown);
                    let config = config.clone();
                    pool.execute(move || handle_connection(stream, &state, &config, &shutdown));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    atena_telemetry::warn!("accept failed: {e}");
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
        if let Some(a) = addr {
            signal::deregister_listener(a);
        }
        // Drain: the pool's Drop closes the queue and joins every worker,
        // letting in-flight connections finish their current request.
        drop(pool);
        state.telemetry.flush();
        atena_telemetry::tracer().flush();
    }

    /// Run on a background thread; returns a handle for shutdown.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let shutdown = Arc::clone(&self.shutdown);
        let thread = std::thread::Builder::new()
            .name("atena-server-accept".into())
            .spawn(move || self.run())?;
        Ok(ServerHandle {
            addr,
            shutdown,
            thread: Some(thread),
        })
    }
}

/// Serve one connection: parse requests in a keep-alive loop, route each,
/// and stop on close, error, or server drain.
fn handle_connection(
    stream: TcpStream,
    state: &AppState,
    config: &ServerConfig,
    shutdown: &AtomicBool,
) {
    let _ = stream.set_read_timeout(Some(config.request_timeout));
    let _ = stream.set_write_timeout(Some(config.request_timeout));
    // The read budget below is a *per-request* deadline, not a per-read
    // timeout: a slow-loris client dribbling one byte per tick keeps every
    // socket read fast (each read resets the kernel timer) but cannot
    // stretch one request past `request_timeout` total. The rearm hook
    // shrinks the socket timeout to the remaining budget before each read,
    // so a peer that goes silent mid-dribble is cut off at the same
    // deadline. A failed `try_clone` leaves the hook inert; the explicit
    // deadline check in the reader still bounds any peer that keeps
    // sending.
    let rearm = stream.try_clone().ok();
    // Uploads get their own body cap: the registry's per-upload byte
    // limit, checked against Content-Length before any buffering.
    let mut reader = RequestReader::with_max_body(&stream, config.max_body_bytes)
        .with_route_cap("/v1/datasets", state.registry.config().limits.max_bytes)
        .with_read_budget(config.request_timeout, move |remaining| {
            if let Some(s) = &rearm {
                let _ = s.set_read_timeout(Some(remaining));
            }
        });
    let mut served = 0usize;
    loop {
        let draining = shutdown.load(Ordering::SeqCst) || signal::shutdown_requested();
        let read_start = Instant::now();
        match reader.read_request() {
            Ok(request) => {
                // For reused connections this includes the idle keep-alive
                // wait, which is exactly what the `http.read` span should
                // show: time between accept/last response and a full request.
                let read_secs = read_start.elapsed().as_secs_f64();
                if served > 0 {
                    state.telemetry.counter("server.conn.keepalive_reuse").inc();
                }
                served += 1;
                let trace = atena_telemetry::tracer().trace("server.request");
                let trace_hex = trace.trace_id_hex();
                trace.attr("method", request.method.clone());
                trace.attr("path", request.path().to_string());
                trace.record_exact(ROOT_SPAN_ID, "http.read", read_secs, Vec::new());
                let route_start = Instant::now();
                let outcome = route(&request, state, &trace);
                let total_secs = route_start.elapsed().as_secs_f64();
                state
                    .telemetry
                    .histogram("server.http.latency_secs")
                    .record(total_secs);
                trace.attr("status", outcome.response.status.to_string());
                if total_secs > config.slow_threshold.as_secs_f64() {
                    state.telemetry.counter("server.request.slow").inc();
                    atena_telemetry::warn!(
                        "slow request: {} {} took {:.1}ms (threshold {}ms) trace={}",
                        request.method,
                        request.path(),
                        total_secs * 1e3,
                        config.slow_threshold.as_millis(),
                        trace_hex
                    );
                }
                push_debug_entry(
                    state,
                    RequestDebug {
                        trace_id: trace_hex.clone(),
                        ts: atena_telemetry::unix_ts(),
                        method: request.method.clone(),
                        path: request.path().to_string(),
                        status: outcome.response.status,
                        cache: outcome.cache,
                        total_secs,
                        read_secs,
                        decode_secs: outcome.decode_secs,
                    },
                );
                // During a drain, answer the in-flight request, then close.
                let keep_alive = request.keep_alive() && !draining;
                let response = outcome.response.with_header("X-Atena-Trace-Id", &trace_hex);
                let write_span = trace.span("http.write");
                // The response write gets its own fresh budget (decode time
                // already elapsed does not count against the client's read
                // pace), but that budget is a hard total: a peer draining
                // the response one byte per tick is cut off at the
                // deadline, releasing the worker.
                let mut out = DeadlineWriter::new(&stream, Instant::now() + config.request_timeout);
                let wrote = response.write_to(&mut out, keep_alive);
                drop(write_span);
                drop(trace);
                if let Err(e) = &wrote {
                    // Partial writes (peer vanished mid-response, or the
                    // write deadline fired) close the connection; the
                    // Content-Length framing makes the truncation
                    // unambiguous to any reader still listening.
                    state.telemetry.counter("server.http.write_errors").inc();
                    atena_telemetry::debug!("response write failed: {e}");
                    return;
                }
                if !keep_alive {
                    return;
                }
            }
            Err(err) => {
                // A clean disconnect between requests (`Closed`) is normal
                // keep-alive teardown, not a protocol error.
                if let Some((status, reason)) = err.status() {
                    state.telemetry.counter("server.http.parse_errors").inc();
                    let body = format!("{err:?}");
                    let mut out =
                        DeadlineWriter::new(&stream, Instant::now() + config.request_timeout);
                    let _ = Response::error(status, reason, &body).write_to(&mut out, false);
                    drain_before_close(&stream);
                }
                return;
            }
        }
    }
}

/// Discard unread request bytes before dropping a connection we answered
/// with a fatal error. Closing with data still queued makes the kernel send
/// RST instead of FIN, which can destroy the error response in flight.
fn drain_before_close(stream: &TcpStream) {
    use std::io::Read;
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut reader: &TcpStream = stream;
    let mut scratch = [0u8; 4096];
    let mut drained = 0usize;
    // Cap the drain by bytes *and* wall clock: without the deadline, a
    // client dribbling its unread body one byte per 250 ms would keep
    // every read succeeding and pin this worker for up to a megabyte of
    // dribble. Past the deadline the connection is abandoned (RST risk
    // accepted — the peer is hostile or gone).
    let deadline = Instant::now() + Duration::from_millis(500);
    while drained < (1 << 20) && Instant::now() < deadline {
        match reader.read(&mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

/// What routing produced for one request: the response plus the pieces the
/// debug ring wants (cache verdict, decode time).
struct RouteOutcome {
    response: Response,
    cache: &'static str,
    decode_secs: f64,
}

impl RouteOutcome {
    fn plain(response: Response) -> Self {
        Self {
            response,
            cache: "-",
            decode_secs: 0.0,
        }
    }
}

/// Append to the debug ring, evicting the oldest entry when full.
fn push_debug_entry(state: &AppState, entry: RequestDebug) {
    let mut ring = state.debug.lock().unwrap_or_else(PoisonError::into_inner);
    if ring.len() >= DEBUG_RING_CAPACITY {
        ring.pop_front();
    }
    ring.push_back(entry);
}

/// The tenant a request acts as: the `X-Atena-Tenant` header, defaulting
/// to `public` so untagged clients share one fairness bucket.
fn tenant_of(request: &Request) -> &str {
    match request.header("x-atena-tenant") {
        Some(t) if !t.trim().is_empty() => t.trim(),
        _ => "public",
    }
}

/// 405 with the `Allow` header the endpoint supports.
fn method_not_allowed(state: &AppState, allow: &'static str) -> RouteOutcome {
    state.telemetry.counter("server.http.errors").inc();
    RouteOutcome::plain(
        Response::error(405, "Method Not Allowed", "wrong method for this endpoint")
            .with_header("Allow", allow),
    )
}

/// Map a registry failure onto its HTTP response.
fn registry_error_response(state: &AppState, err: &RegistryError) -> RouteOutcome {
    state.telemetry.counter("server.http.errors").inc();
    let message = err.to_string();
    let response = match err {
        RegistryError::Malformed(_) => Response::error(400, "Bad Request", &message),
        RegistryError::UploadTooLarge(_) | RegistryError::ExceedsBudget { .. } => {
            Response::error(413, "Payload Too Large", &message)
        }
        RegistryError::TenantQuotaExceeded { .. } => {
            Response::error(429, "Too Many Requests", &message).with_header("Retry-After", "1")
        }
        RegistryError::NotFound { .. } => Response::error(404, "Not Found", &message),
        RegistryError::Pinned { .. } => Response::error(409, "Conflict", &message),
    };
    RouteOutcome::plain(response)
}

/// Dispatch one parsed request. Mutating routes (`POST /v1/notebook`,
/// `POST /v1/datasets`, `DELETE /v1/datasets/{id}`) first acquire a
/// per-tenant admission permit; a tenant over its in-flight cap is told to
/// back off with `429` + `Retry-After` while other tenants are unaffected.
fn route(request: &Request, state: &AppState, trace: &ActiveTrace<'_>) -> RouteOutcome {
    let t = &state.telemetry;
    t.counter("server.http.requests").inc();
    let admit = |tenant: &str| match state.admission.try_acquire(tenant) {
        Ok(permit) => Ok(permit),
        Err(rejection) => {
            t.counter("server.http.throttled").inc();
            Err(RouteOutcome::plain(
                Response::error(
                    429,
                    "Too Many Requests",
                    &format!(
                        "tenant {} at in-flight limit {}",
                        rejection.tenant, rejection.limit
                    ),
                )
                .with_header("Retry-After", &rejection.retry_after_secs.to_string()),
            ))
        }
    };
    match (request.method.as_str(), request.path()) {
        ("GET", "/v1/healthz") => {
            t.counter("server.http.requests.healthz").inc();
            RouteOutcome::plain(healthz(state))
        }
        ("GET", "/v1/metrics") => {
            t.counter("server.http.requests.metrics").inc();
            // Sampled on every scrape (observational only): soak harnesses
            // assert flat memory through this gauge without needing a
            // sidecar probe on the server host.
            if let Some(rss) = atena_telemetry::rss_bytes() {
                t.gauge("server.mem.rss_bytes").set(rss as f64);
            }
            if request.query_has("format", "prometheus") {
                return RouteOutcome::plain(Response::ok_text(
                    "text/plain; version=0.0.4",
                    t.render_prometheus(),
                ));
            }
            let body = MetricsBody::new(t.snapshot(), state.started.elapsed().as_secs_f64());
            RouteOutcome::plain(Response::json_of(200, "OK", &body))
        }
        ("GET", "/v1/debug/requests") => {
            t.counter("server.http.requests.debug").inc();
            RouteOutcome::plain(debug_requests(state))
        }
        ("POST", "/v1/notebook") => {
            t.counter("server.http.requests.notebook").inc();
            let _permit = match admit(tenant_of(request)) {
                Ok(p) => p,
                Err(outcome) => return outcome,
            };
            serve_notebook(request, state, trace)
        }
        ("POST", "/v1/datasets") => {
            t.counter("server.http.requests.upload").inc();
            let tenant = tenant_of(request);
            let _permit = match admit(tenant) {
                Ok(p) => p,
                Err(outcome) => return outcome,
            };
            serve_upload(request, state, tenant)
        }
        ("GET", "/v1/datasets") => {
            t.counter("server.http.requests.datasets").inc();
            RouteOutcome::plain(datasets(state))
        }
        ("GET", path) if path.strip_prefix("/v1/datasets/").is_some() => {
            t.counter("server.http.requests.datasets").inc();
            let id = path.strip_prefix("/v1/datasets/").unwrap_or_default();
            match state.registry.get(id) {
                Some((_, info)) => {
                    RouteOutcome::plain(Response::json_of(200, "OK", &DatasetBody::from(info)))
                }
                None => {
                    t.counter("server.http.errors").inc();
                    RouteOutcome::plain(Response::error(
                        404,
                        "Not Found",
                        &format!("dataset {id} not found"),
                    ))
                }
            }
        }
        ("DELETE", path) if path.strip_prefix("/v1/datasets/").is_some() => {
            t.counter("server.http.requests.datasets").inc();
            let _permit = match admit(tenant_of(request)) {
                Ok(p) => p,
                Err(outcome) => return outcome,
            };
            let id = path.strip_prefix("/v1/datasets/").unwrap_or_default();
            match state.registry.delete(id) {
                Ok(info) => {
                    state.engine.purge_dataset(info.fingerprint);
                    RouteOutcome::plain(Response::json_of(200, "OK", &DatasetBody::from(info)))
                }
                Err(e) => registry_error_response(state, &e),
            }
        }
        (_, "/v1/notebook") => method_not_allowed(state, "POST"),
        (_, "/v1/datasets") => method_not_allowed(state, "GET, POST"),
        (_, path) if path.strip_prefix("/v1/datasets/").is_some() => {
            method_not_allowed(state, "GET, DELETE")
        }
        (_, "/v1/healthz" | "/v1/metrics" | "/v1/debug/requests") => {
            method_not_allowed(state, "GET")
        }
        (_, path) => {
            t.counter("server.http.errors").inc();
            RouteOutcome::plain(Response::error(
                404,
                "Not Found",
                &format!("no route for {path}"),
            ))
        }
    }
}

/// `POST /v1/datasets`: parse the CSV body under the registry's per-upload
/// caps and admit it under the budget and the tenant's byte quota. `201`
/// on first sight, `200` when an identical dataset was already resident.
fn serve_upload(request: &Request, state: &AppState, tenant: &str) -> RouteOutcome {
    let name = request
        .query_get("name")
        .or_else(|| request.header("x-atena-dataset-name"))
        .unwrap_or("upload");
    match state.registry.ingest(tenant, name, &request.body) {
        Ok(outcome) => {
            for &fingerprint in &outcome.evicted {
                state.engine.purge_dataset(fingerprint);
            }
            let frame = state
                .registry
                .get(&outcome.info.dataset_id)
                .map(|(frame, _)| frame)
                .unwrap_or_else(|| Arc::clone(state.engine.frame()));
            let body = UploadBody {
                dataset: DatasetBody::from(outcome.info),
                deduplicated: outcome.deduplicated,
                policy_compatible: state.engine.bundle().frame_compatible(&frame).is_ok(),
                schema: frame
                    .schema()
                    .fields()
                    .iter()
                    .map(|field| FieldBody {
                        name: field.name.clone(),
                        dtype: field.dtype.name(),
                        role: field.role.name(),
                    })
                    .collect(),
            };
            let (status, reason): (u16, &'static str) = if outcome.deduplicated {
                (200, "OK")
            } else {
                (201, "Created")
            };
            RouteOutcome::plain(Response::json_of(status, reason, &body))
        }
        Err(e) => registry_error_response(state, &e),
    }
}

/// The `POST /v1/datasets` reply.
#[derive(Serialize)]
struct UploadBody {
    dataset: DatasetBody,
    deduplicated: bool,
    policy_compatible: bool,
    schema: Vec<FieldBody>,
}

/// One column of an uploaded dataset's schema.
#[derive(Serialize)]
struct FieldBody {
    name: String,
    dtype: &'static str,
    role: &'static str,
}

/// One dataset's metadata, as every `/v1/datasets` route renders it.
#[derive(Serialize)]
struct DatasetBody {
    dataset_id: String,
    name: String,
    rows: usize,
    cols: usize,
    bytes: usize,
    /// The content fingerprint as 16 hex digits.
    fingerprint: String,
    pinned: bool,
    tenants: Vec<String>,
}

impl From<DatasetInfo> for DatasetBody {
    fn from(info: DatasetInfo) -> Self {
        Self {
            fingerprint: format!("{:016x}", info.fingerprint),
            dataset_id: info.dataset_id,
            name: info.name,
            rows: info.rows,
            cols: info.cols,
            bytes: info.bytes,
            pinned: info.pinned,
            tenants: info.tenants,
        }
    }
}

/// The `GET /v1/datasets` listing with registry totals.
#[derive(Serialize)]
struct DatasetsBody {
    total_bytes: usize,
    unpinned_bytes: usize,
    budget_bytes: usize,
    datasets: Vec<DatasetBody>,
}

fn datasets(state: &AppState) -> Response {
    let snap = state.registry.snapshot();
    let body = DatasetsBody {
        total_bytes: snap.total_bytes,
        unpinned_bytes: snap.unpinned_bytes,
        budget_bytes: snap.budget_bytes,
        datasets: state
            .registry
            .list()
            .into_iter()
            .map(DatasetBody::from)
            .collect(),
    };
    Response::json_of(200, "OK", &body)
}

/// `POST /v1/notebook`: validate the JSON body, consult the LRU cache, and
/// decode on a miss. Span tree under the request root: `request.parse`
/// (body parse + validation), `cache.lookup`, and on a miss `engine.decode`
/// with per-step `nn.forward`/`env.step` children.
///
/// An optional `dataset_id` field selects a registry dataset to decode
/// against; without it, `dataset` must name the bundle's baked-in dataset.
fn serve_notebook(request: &Request, state: &AppState, trace: &ActiveTrace<'_>) -> RouteOutcome {
    let t = &state.telemetry;
    let fail = |status, reason, message: &str| {
        t.counter("server.http.errors").inc();
        RouteOutcome::plain(Response::error(status, reason, message))
    };
    let parse_span = trace.span("request.parse");
    let body = match std::str::from_utf8(&request.body) {
        Ok(s) => s,
        Err(_) => return fail(400, "Bad Request", "body is not valid UTF-8"),
    };
    let value: serde_json::Value = match serde_json::from_str(body) {
        Ok(v) => v,
        Err(e) => return fail(400, "Bad Request", &format!("body is not valid JSON: {e}")),
    };
    let dataset = match value.get("dataset") {
        None => None,
        Some(d) => match d.as_str() {
            Some(s) => Some(s),
            None => return fail(400, "Bad Request", "field \"dataset\" must be a string"),
        },
    };
    let dataset_id = match value.get("dataset_id") {
        None => None,
        Some(d) => match d.as_str() {
            Some(s) => Some(s),
            None => return fail(400, "Bad Request", "field \"dataset_id\" must be a string"),
        },
    };
    let episode_len = match optional_u64(&value, "episode_len") {
        Ok(v) => v.map(|n| n as usize),
        Err(m) => return fail(400, "Bad Request", &m),
    };
    let seed = match optional_u64(&value, "seed") {
        Ok(v) => v,
        Err(m) => return fail(400, "Bad Request", &m),
    };

    let (frame, validated) = if let Some(id) = dataset_id {
        let Some((frame, info)) = state.registry.get(id) else {
            return fail(404, "Not Found", &format!("dataset {id} not found"));
        };
        let name = dataset.unwrap_or(&info.name);
        match state
            .engine
            .validate_for_frame(name, &frame, episode_len, seed)
        {
            Ok(v) => (frame, v),
            Err(e @ EngineError::IncompatibleDataset(_)) => {
                return fail(409, "Conflict", &e.to_string());
            }
            Err(e) => return fail(400, "Bad Request", &e.to_string()),
        }
    } else {
        let Some(dataset) = dataset else {
            return fail(
                400,
                "Bad Request",
                "missing required string field \"dataset\" (or \"dataset_id\")",
            );
        };
        match state.engine.validate(dataset, episode_len, seed) {
            Ok(v) => (Arc::clone(state.engine.frame()), v),
            Err(e @ EngineError::UnknownDataset { .. }) => {
                return fail(404, "Not Found", &e.to_string());
            }
            Err(e @ EngineError::IncompatibleDataset(_)) => {
                return fail(409, "Conflict", &e.to_string());
            }
            Err(e @ EngineError::InvalidRequest(_)) => {
                return fail(400, "Bad Request", &e.to_string());
            }
            Err(e @ EngineError::Internal(_)) => {
                return fail(500, "Internal Server Error", &e.to_string());
            }
        }
    };
    drop(parse_span);

    let lookup_span = trace.span("cache.lookup");
    let cached = state
        .cache
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(&validated)
        .cloned();
    drop(lookup_span);
    if let Some(cached) = cached {
        t.counter("server.cache.hits").inc();
        return RouteOutcome {
            response: Response::ok_json(cached.as_bytes().to_vec())
                .with_header("X-Atena-Cache", "hit"),
            cache: "hit",
            decode_secs: 0.0,
        };
    }
    t.counter("server.cache.misses").inc();

    let mut decode_span = trace.span("engine.decode");
    decode_span.set_attr("episode_len", validated.episode_len.to_string());
    decode_span.set_attr("seed", validated.seed.to_string());
    let decoded = state
        .engine
        .decode_with_frame(&frame, &validated, Some(&decode_span));
    // The guard times the decode whether or not the trace records.
    let decode_secs = decode_span.finish();
    t.histogram("server.notebook.decode_secs")
        .record(decode_secs);
    let decoded = match decoded {
        Ok(d) => d,
        Err(e) => return fail(500, "Internal Server Error", &e.to_string()),
    };
    let body = match serde_json::to_string(&decoded) {
        Ok(body) => Arc::new(body),
        Err(e) => {
            return fail(
                500,
                "Internal Server Error",
                &format!("response serialization failed: {e}"),
            );
        }
    };
    state
        .cache
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(validated, Arc::clone(&body));
    RouteOutcome {
        response: Response::ok_json(body.as_bytes().to_vec()).with_header("X-Atena-Cache", "miss"),
        cache: "miss",
        decode_secs,
    }
}

/// The `/v1/debug/requests` document: tracer health plus the
/// recent-request ring, newest first.
#[derive(Serialize)]
struct DebugRequestsBody {
    capacity: usize,
    tracing: TracingBody,
    requests: Vec<RequestDebug>,
}

#[derive(Serialize)]
struct TracingBody {
    enabled: bool,
    spans_recorded: u64,
    spans_dropped: u64,
    traces_recorded: u64,
}

fn debug_requests(state: &AppState) -> Response {
    let tracer = atena_telemetry::tracer();
    let counts = tracer.counts();
    let requests = state
        .debug
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .rev()
        .cloned()
        .collect();
    let body = DebugRequestsBody {
        capacity: DEBUG_RING_CAPACITY,
        tracing: TracingBody {
            enabled: tracer.is_enabled(),
            spans_recorded: counts.spans_recorded,
            spans_dropped: counts.spans_dropped,
            traces_recorded: counts.traces_recorded,
        },
        requests,
    };
    Response::json_of(200, "OK", &body)
}

fn optional_u64(value: &serde_json::Value, field: &str) -> Result<Option<u64>, String> {
    match value.get(field) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("field {field:?} must be a non-negative integer")),
    }
}

/// The `/v1/healthz` document: liveness plus the loaded bundle and the
/// registry's occupancy.
#[derive(Serialize)]
struct HealthzBody {
    status: &'static str,
    dataset: String,
    strategy: &'static str,
    episode_len: usize,
    train_steps: usize,
    uptime_secs: f64,
    registry: RegistryBody,
}

#[derive(Serialize)]
struct RegistryBody {
    datasets: usize,
    total_bytes: usize,
    budget_bytes: usize,
}

fn healthz(state: &AppState) -> Response {
    let bundle = state.engine.bundle();
    let snap = state.registry.snapshot();
    let body = HealthzBody {
        status: "ok",
        dataset: state.engine.dataset().to_string(),
        strategy: bundle.strategy.name(),
        episode_len: bundle.env.episode_len,
        train_steps: bundle.train_steps,
        uptime_secs: state.started.elapsed().as_secs_f64(),
        registry: RegistryBody {
            datasets: snap.entries,
            total_bytes: snap.total_bytes,
            budget_bytes: snap.budget_bytes,
        },
    };
    Response::json_of(200, "OK", &body)
}

/// The `/v1/metrics` JSON document: a [`MetricsSnapshot`] keyed by metric
/// name. Non-finite gauges and summaries render as `null`.
#[derive(Serialize)]
struct MetricsBody {
    uptime_secs: f64,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, HistogramBody>,
}

#[derive(Serialize)]
struct HistogramBody {
    count: u64,
    mean: f64,
    min: f64,
    max: f64,
    p50: f64,
    p95: f64,
    p99: f64,
}

impl MetricsBody {
    fn new(snapshot: MetricsSnapshot, uptime_secs: f64) -> Self {
        Self {
            uptime_secs,
            counters: snapshot.counters.into_iter().collect(),
            gauges: snapshot.gauges.into_iter().collect(),
            histograms: snapshot
                .histograms
                .into_iter()
                .map(|(name, h)| (name, HistogramBody::from(h)))
                .collect(),
        }
    }
}

impl From<HistogramSummary> for HistogramBody {
    fn from(h: HistogramSummary) -> Self {
        Self {
            count: h.count,
            mean: h.mean,
            min: h.min,
            max: h.max,
            p50: h.p50,
            p95: h.p95,
            p99: h.p99,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atena_telemetry::Histogram;

    #[test]
    fn metrics_json_is_valid_and_complete() {
        let reg = MetricsRegistry::new();
        reg.counter("server.http.requests").add(7);
        reg.gauge("g").set(1.25);
        let h: Histogram = reg.histogram("server.http.latency_secs");
        h.record(0.002);
        let text = serde_json::to_string(&MetricsBody::new(reg.snapshot(), 3.5)).unwrap();
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        assert_eq!(v["counters"]["server.http.requests"].as_u64(), Some(7));
        assert_eq!(v["gauges"]["g"].as_f64(), Some(1.25));
        assert_eq!(
            v["histograms"]["server.http.latency_secs"]["count"].as_u64(),
            Some(1)
        );
        assert!(
            v["histograms"]["server.http.latency_secs"]["p95"]
                .as_f64()
                .unwrap()
                > 0.0
        );
        assert_eq!(v["uptime_secs"].as_f64(), Some(3.5));
    }
}
