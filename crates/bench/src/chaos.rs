//! Chaos / byzantine-client harness for the serving stack (DESIGN.md §4n).
//!
//! A library of *hostile* HTTP clients — slow-loris byte dribblers,
//! mid-request and mid-response disconnectors, malformed and oversized
//! frames, header floods, pipelined garbage, and per-tenant request
//! floods — plus a scripted scenario runner that drives them against a
//! live `atena-server` and checks a **typed expected outcome** per
//! scenario (exact status code, bounded 408/close, or tolerated abort).
//!
//! Two invariants run through everything here:
//!
//! 1. **The pool is never poisoned.** After every scenario the runner
//!    probes `/v1/healthz` and replays a known-good `/v1/notebook`
//!    request whose response must stay **byte-identical** to the offline
//!    decode of the same request. A byzantine client may cost the server
//!    one connection; it may never cost correctness for anyone else.
//! 2. **Attacks are bounded.** A dribbling or silent peer must be cut
//!    off within the server's per-request deadline (plus grace), never
//!    hold a worker indefinitely.
//!
//! [`run_soak`] sustains mixed good/byzantine traffic with the dataset
//! registry and display cache churning at capacity, sampling
//! `/v1/metrics` for the `server.mem.rss_bytes` gauge (flat-memory
//! assertion), monotone counters, and advancing eviction counters.
//!
//! `tests/chaos_harness.rs` self-hosts a server and runs the matrix, with
//! a background good client, and a soak against it.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Grace added to the server's per-request deadline when asserting that
/// an attack was cut off "in time" (scheduling jitter, loopback RTT).
const DEADLINE_GRACE: Duration = Duration::from_millis(1500);

/// How long [`read_outcome`] waits for response bytes before classifying
/// the exchange as a client-side read timeout.
const CLIENT_READ_TIMEOUT: Duration = Duration::from_secs(20);

// ---- target ------------------------------------------------------------

/// The server under attack, plus the known-good request whose response
/// bytes anchor the correctness checks.
#[derive(Clone)]
pub struct ChaosTarget {
    /// `host:port` of the live server.
    pub addr: String,
    /// JSON body of a known-good `POST /v1/notebook` request.
    pub good_body: String,
    /// The exact bytes a healthy client must receive for `good_body`
    /// (computed by an offline decode of the same request).
    pub expected_body: String,
    /// The server's per-request I/O deadline (`--timeout-ms`).
    pub request_timeout: Duration,
    /// The server's `/v1/notebook` body cap, for the oversized-body probe.
    pub max_body_bytes: usize,
}

impl ChaosTarget {
    /// Raw bytes of one `POST /v1/notebook` request for `good_body`.
    pub fn notebook_raw(&self, tenant: Option<&str>) -> Vec<u8> {
        let tenant_header = tenant
            .map(|t| format!("X-Atena-Tenant: {t}\r\n"))
            .unwrap_or_default();
        format!(
            "POST /v1/notebook HTTP/1.1\r\nHost: chaos\r\n{tenant_header}\
             Content-Type: application/json\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{}",
            self.good_body.len(),
            self.good_body
        )
        .into_bytes()
    }

    /// One good-client exchange: must be a 200 whose body is
    /// byte-identical to the offline decode.
    pub fn good_shot(&self) -> Result<(), String> {
        let mut stream = connect(&self.addr, CLIENT_READ_TIMEOUT)?;
        let raw = self.notebook_raw(None);
        stream.write_all(&raw).map_err(|e| format!("write: {e}"))?;
        match read_outcome(&mut stream) {
            Observed::Status { code: 200, body } => {
                if body == self.expected_body {
                    Ok(())
                } else {
                    Err(format!(
                        "response diverged from offline decode ({} vs {} bytes)",
                        body.len(),
                        self.expected_body.len()
                    ))
                }
            }
            other => Err(format!("good client got {other}")),
        }
    }

    /// `GET /v1/healthz` must answer 200 — the pool survived the attack.
    pub fn probe_healthz(&self) -> bool {
        let Ok(mut stream) = connect(&self.addr, CLIENT_READ_TIMEOUT) else {
            return false;
        };
        let raw = b"GET /v1/healthz HTTP/1.1\r\nHost: chaos\r\nConnection: close\r\n\r\n";
        if stream.write_all(raw).is_err() {
            return false;
        }
        matches!(
            read_outcome(&mut stream),
            Observed::Status { code: 200, .. }
        )
    }

    /// Fetch and parse the `/v1/metrics` JSON document.
    pub fn metrics(&self) -> Result<serde_json::Value, String> {
        let mut stream = connect(&self.addr, CLIENT_READ_TIMEOUT)?;
        let raw = b"GET /v1/metrics HTTP/1.1\r\nHost: chaos\r\nConnection: close\r\n\r\n";
        stream.write_all(raw).map_err(|e| format!("write: {e}"))?;
        match read_outcome(&mut stream) {
            Observed::Status { code: 200, body } => {
                serde_json::from_str(&body).map_err(|e| format!("metrics JSON: {e}"))
            }
            other => Err(format!("metrics endpoint returned {other}")),
        }
    }
}

fn connect(addr: &str, read_timeout: Duration) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(read_timeout))
        .map_err(|e| e.to_string())?;
    stream.set_nodelay(true).ok();
    Ok(stream)
}

// ---- observed outcomes -------------------------------------------------

/// What one byzantine exchange actually produced, as classified by the
/// harness's own HTTP reader.
#[derive(Debug, Clone, PartialEq)]
pub enum Observed {
    /// A complete HTTP response.
    Status { code: u16, body: String },
    /// The server closed the connection without a (complete) response.
    Closed,
    /// No response and no close within the client's read window.
    ReadTimeout,
    /// The *client* aborted by design (disconnect scenarios).
    Aborted,
    /// A pipelined pair: the good request's status, then what the
    /// trailing garbage produced.
    Pipelined { first: u16, second: Box<Observed> },
    /// Flood tally: every connection's terminal classification.
    Flood {
        ok: usize,
        shed: usize,
        other: usize,
    },
    /// Transport-level failure outside the scenario's script.
    Transport(String),
}

impl std::fmt::Display for Observed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Observed::Status { code, .. } => write!(f, "HTTP {code}"),
            Observed::Closed => write!(f, "connection closed, no response"),
            Observed::ReadTimeout => write!(f, "client read timeout (server hung?)"),
            Observed::Aborted => write!(f, "client aborted (by design)"),
            Observed::Pipelined { first, second } => {
                write!(f, "pipelined: HTTP {first}, then {second}")
            }
            Observed::Flood { ok, shed, other } => {
                write!(f, "flood: {ok} ok, {shed} shed (429), {other} other")
            }
            Observed::Transport(e) => write!(f, "transport error: {e}"),
        }
    }
}

/// Read one HTTP response (or its absence) off `stream` and classify it.
pub fn read_outcome(stream: &mut TcpStream) -> Observed {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 8192];
    loop {
        if let Some((code, body)) = try_parse_response(&buf) {
            return Observed::Status { code, body };
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Observed::Closed,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Observed::ReadTimeout;
            }
            // A reset after a complete response never reaches here (the
            // parse above wins); mid-stream it means the server cut us off.
            Err(_) => return Observed::Closed,
        }
    }
}

/// Parse a complete `head + Content-Length body` response out of `buf`.
/// The body is decoded only once all of its bytes are in, so a read that
/// ends inside a multi-byte character means "keep reading".
pub fn try_parse_response(buf: &[u8]) -> Option<(u16, String)> {
    let head_len = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = String::from_utf8_lossy(&buf[..head_len]);
    let mut lines = head.split("\r\n");
    let code: u16 = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let len: usize = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(n, _)| n.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())
        .unwrap_or(0);
    let body = buf.get(head_len + 4..head_len + 4 + len)?;
    Some((code, String::from_utf8_lossy(body).into_owned()))
}

// ---- scenarios ---------------------------------------------------------

/// One byzantine-client script.
#[derive(Debug, Clone)]
pub enum Scenario {
    /// Dribble the request *head* one byte per `byte_delay`, forever.
    SlowLorisHeaders { byte_delay: Duration },
    /// Send a complete head, then dribble the body one byte at a time.
    SlowLorisBody { byte_delay: Duration },
    /// Send half a valid request, then disconnect.
    MidRequestDisconnect,
    /// Send a valid request, read a little of the response, disconnect.
    MidResponseDisconnect,
    /// A request line that is not HTTP.
    MalformedRequestLine,
    /// One header value pushing the head past `MAX_HEAD_BYTES`.
    OversizedHeader,
    /// Thousands of small headers pushing the head past the cap.
    HeaderFlood,
    /// `Content-Length` past the body cap, with no real body behind it.
    OversizedBody { declared: usize },
    /// A declared body the client never finishes sending (then silence).
    TruncatedBody,
    /// A valid request with garbage pipelined behind it.
    PipelinedGarbage,
    /// Concurrent fresh-connection decodes from one tenant, to be shed
    /// by per-tenant admission control — never errored, never hung.
    RequestFlood { tenant: String, connections: usize },
}

impl Scenario {
    /// Stable scenario name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Scenario::SlowLorisHeaders { .. } => "slow_loris_headers",
            Scenario::SlowLorisBody { .. } => "slow_loris_body",
            Scenario::MidRequestDisconnect => "mid_request_disconnect",
            Scenario::MidResponseDisconnect => "mid_response_disconnect",
            Scenario::MalformedRequestLine => "malformed_request_line",
            Scenario::OversizedHeader => "oversized_header",
            Scenario::HeaderFlood => "header_flood",
            Scenario::OversizedBody { .. } => "oversized_body",
            Scenario::TruncatedBody => "truncated_body",
            Scenario::PipelinedGarbage => "pipelined_garbage",
            Scenario::RequestFlood { .. } => "request_flood",
        }
    }

    /// The typed outcome this scenario must produce.
    pub fn expected(&self) -> Expectation {
        match self {
            Scenario::SlowLorisHeaders { .. }
            | Scenario::SlowLorisBody { .. }
            | Scenario::TruncatedBody => Expectation::TimeoutOrClose,
            Scenario::MidRequestDisconnect | Scenario::MidResponseDisconnect => {
                Expectation::ToleratedAbort
            }
            Scenario::MalformedRequestLine => Expectation::Status(400),
            Scenario::OversizedHeader | Scenario::HeaderFlood => Expectation::Status(431),
            Scenario::OversizedBody { .. } => Expectation::Status(413),
            Scenario::PipelinedGarbage => Expectation::OkThenReject,
            Scenario::RequestFlood { .. } => Expectation::ServedOrShed,
        }
    }
}

/// The typed outcome a scenario must produce to pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// Exactly this HTTP status.
    Status(u16),
    /// A 408 or a connection close, within `request_timeout` + grace.
    TimeoutOrClose,
    /// The client aborts by design; the server must simply survive
    /// (checked by the post-scenario health probe + good shot).
    ToleratedAbort,
    /// Pipelined: 200 for the good request, then 400 or close for the
    /// garbage behind it.
    OkThenReject,
    /// Flood: every connection ends in 200 or 429, none hang or error.
    ServedOrShed,
}

impl std::fmt::Display for Expectation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Expectation::Status(code) => write!(f, "HTTP {code}"),
            Expectation::TimeoutOrClose => write!(f, "408 or close within deadline"),
            Expectation::ToleratedAbort => write!(f, "abort tolerated, server healthy"),
            Expectation::OkThenReject => write!(f, "200 then 400/close"),
            Expectation::ServedOrShed => write!(f, "every shot 200 or 429"),
        }
    }
}

/// The full scenario matrix, parameterized by the target's deadline so
/// the dribble cadence is always slower than an honest client but far
/// faster than the test would tolerate waiting.
pub fn scenario_matrix(target: &ChaosTarget) -> Vec<Scenario> {
    let byte_delay = (target.request_timeout / 10).max(Duration::from_millis(10));
    vec![
        Scenario::MalformedRequestLine,
        Scenario::OversizedHeader,
        Scenario::HeaderFlood,
        Scenario::OversizedBody {
            declared: target.max_body_bytes + 1,
        },
        Scenario::PipelinedGarbage,
        Scenario::MidRequestDisconnect,
        Scenario::MidResponseDisconnect,
        Scenario::SlowLorisHeaders { byte_delay },
        Scenario::SlowLorisBody { byte_delay },
        Scenario::TruncatedBody,
        Scenario::RequestFlood {
            tenant: "flooder".into(),
            connections: 16,
        },
    ]
}

/// One scenario's verdict.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    pub scenario: String,
    pub expected: String,
    pub observed: String,
    /// The attack itself produced the expected typed outcome.
    pub outcome_ok: bool,
    /// `/v1/healthz` answered 200 right after the attack.
    pub probe_ok: bool,
    /// A good request right after the attack was byte-identical to the
    /// offline decode (the pool was not poisoned).
    pub good_shot_ok: bool,
    pub pass: bool,
    pub duration_ms: f64,
}

/// Run one scenario and verify its typed outcome, then prove the server
/// survived: health probe + a byte-identity good shot.
pub fn run_scenario(target: &ChaosTarget, scenario: &Scenario) -> ScenarioReport {
    let started = Instant::now();
    let observed = execute(target, scenario);
    let duration = started.elapsed();
    let outcome_ok = matches(&scenario.expected(), &observed, duration, target);
    let probe_ok = target.probe_healthz();
    let good_shot_ok = target.good_shot().is_ok();
    ScenarioReport {
        scenario: scenario.name().to_string(),
        expected: scenario.expected().to_string(),
        observed: observed.to_string(),
        outcome_ok,
        probe_ok,
        good_shot_ok,
        pass: outcome_ok && probe_ok && good_shot_ok,
        duration_ms: duration.as_secs_f64() * 1e3,
    }
}

/// Does `observed` satisfy `expected`, given how long the exchange took?
fn matches(
    expected: &Expectation,
    observed: &Observed,
    duration: Duration,
    target: &ChaosTarget,
) -> bool {
    let bound = target.request_timeout + DEADLINE_GRACE;
    match expected {
        Expectation::Status(want) => {
            matches!(observed, Observed::Status { code, .. } if code == want)
        }
        Expectation::TimeoutOrClose => {
            let cut_off = matches!(
                observed,
                Observed::Status { code: 408, .. } | Observed::Closed
            );
            cut_off && duration <= bound
        }
        Expectation::ToleratedAbort => matches!(observed, Observed::Aborted),
        Expectation::OkThenReject => match observed {
            Observed::Pipelined { first: 200, second } => matches!(
                second.as_ref(),
                Observed::Status { code: 400, .. } | Observed::Closed
            ),
            _ => false,
        },
        Expectation::ServedOrShed => {
            matches!(observed, Observed::Flood { other: 0, ok, .. } if *ok > 0)
        }
    }
}

/// Execute the byzantine script and classify what came back.
fn execute(target: &ChaosTarget, scenario: &Scenario) -> Observed {
    match scenario {
        Scenario::SlowLorisHeaders { byte_delay } => {
            let preamble = b"POST /v1/notebook HTTP/1.1\r\nHost: chaos\r\n".to_vec();
            let mut dribble = b"X-Dribble: ".to_vec();
            dribble.extend(std::iter::repeat(b'a').take(1 << 16));
            dribble_until_cut(target, &preamble, &dribble, *byte_delay)
        }
        Scenario::SlowLorisBody { byte_delay } => {
            let preamble = b"POST /v1/notebook HTTP/1.1\r\nHost: chaos\r\n\
                 Content-Type: application/json\r\nContent-Length: 4096\r\n\r\n"
                .to_vec();
            let dribble = vec![b'x'; 4096];
            dribble_until_cut(target, &preamble, &dribble, *byte_delay)
        }
        Scenario::MidRequestDisconnect => {
            let raw = target.notebook_raw(None);
            let half = raw.len() / 2;
            match connect(&target.addr, CLIENT_READ_TIMEOUT) {
                Ok(mut stream) => {
                    let _ = stream.write_all(&raw[..half]);
                    drop(stream); // vanish mid-request
                    Observed::Aborted
                }
                Err(e) => Observed::Transport(e),
            }
        }
        Scenario::MidResponseDisconnect => {
            let raw = target.notebook_raw(None);
            match connect(&target.addr, CLIENT_READ_TIMEOUT) {
                Ok(mut stream) => {
                    if let Err(e) = stream.write_all(&raw) {
                        return Observed::Transport(format!("write: {e}"));
                    }
                    // Read a sliver of the response head, then vanish. The
                    // unread remainder in our receive buffer turns the
                    // close into a reset the server's writer must absorb.
                    let mut sliver = [0u8; 16];
                    let _ = stream.read(&mut sliver);
                    drop(stream);
                    Observed::Aborted
                }
                Err(e) => Observed::Transport(e),
            }
        }
        Scenario::MalformedRequestLine => {
            send_then_read(target, b"THIS IS NOT HTTP AT ALL\r\n\r\n")
        }
        Scenario::OversizedHeader => {
            let mut raw = b"GET /v1/healthz HTTP/1.1\r\nHost: chaos\r\nX-Big: ".to_vec();
            raw.extend(std::iter::repeat(b'a').take(20 * 1024));
            raw.extend_from_slice(b"\r\n\r\n");
            send_then_read(target, &raw)
        }
        Scenario::HeaderFlood => {
            let mut raw = b"GET /v1/healthz HTTP/1.1\r\nHost: chaos\r\n".to_vec();
            for i in 0..4000 {
                raw.extend_from_slice(format!("X-Flood-{i}: v\r\n").as_bytes());
            }
            raw.extend_from_slice(b"\r\n");
            send_then_read(target, &raw)
        }
        Scenario::OversizedBody { declared } => {
            let raw = format!(
                "POST /v1/notebook HTTP/1.1\r\nHost: chaos\r\n\
                 Content-Length: {declared}\r\nConnection: close\r\n\r\n"
            );
            send_then_read(target, raw.as_bytes())
        }
        Scenario::TruncatedBody => {
            let raw = b"POST /v1/notebook HTTP/1.1\r\nHost: chaos\r\n\
                        Content-Type: application/json\r\nContent-Length: 100\r\n\r\n{\"data"
                .to_vec();
            // Send the stub, then go silent: the server's read deadline
            // must fire. Our read window extends past the server's bound
            // so a hung server is observed as ReadTimeout, not masked.
            match connect(&target.addr, target.request_timeout + 2 * DEADLINE_GRACE) {
                Ok(mut stream) => {
                    if let Err(e) = stream.write_all(&raw) {
                        return Observed::Transport(format!("write: {e}"));
                    }
                    read_outcome(&mut stream)
                }
                Err(e) => Observed::Transport(e),
            }
        }
        Scenario::PipelinedGarbage => {
            let mut raw = b"GET /v1/healthz HTTP/1.1\r\nHost: chaos\r\n\r\n".to_vec();
            raw.extend_from_slice(b"%%% pipelined garbage, not a request %%%\r\n\r\n");
            match connect(&target.addr, CLIENT_READ_TIMEOUT) {
                Ok(mut stream) => {
                    if let Err(e) = stream.write_all(&raw) {
                        return Observed::Transport(format!("write: {e}"));
                    }
                    match read_outcome(&mut stream) {
                        Observed::Status { code, .. } => Observed::Pipelined {
                            first: code,
                            second: Box::new(read_outcome(&mut stream)),
                        },
                        other => other,
                    }
                }
                Err(e) => Observed::Transport(e),
            }
        }
        Scenario::RequestFlood {
            tenant,
            connections,
        } => {
            let shots: Vec<_> = (0..*connections)
                .map(|_| {
                    let target = target.clone();
                    let tenant = tenant.clone();
                    std::thread::spawn(move || {
                        let mut stream = connect(&target.addr, CLIENT_READ_TIMEOUT).ok()?;
                        let raw = target.notebook_raw(Some(&tenant));
                        stream.write_all(&raw).ok()?;
                        Some(read_outcome(&mut stream))
                    })
                })
                .collect();
            let (mut ok, mut shed, mut other) = (0, 0, 0);
            for shot in shots {
                match shot.join().ok().flatten() {
                    Some(Observed::Status { code: 200, body }) if body == target.expected_body => {
                        ok += 1
                    }
                    Some(Observed::Status { code: 429, .. }) => shed += 1,
                    _ => other += 1,
                }
            }
            Observed::Flood { ok, shed, other }
        }
    }
}

/// Send a complete hostile frame, tolerating a mid-write cutoff (the
/// server may answer-and-reset before consuming everything), then read
/// whatever comes back.
fn send_then_read(target: &ChaosTarget, raw: &[u8]) -> Observed {
    match connect(&target.addr, CLIENT_READ_TIMEOUT) {
        Ok(mut stream) => {
            let _ = stream.write_all(raw);
            read_outcome(&mut stream)
        }
        Err(e) => Observed::Transport(e),
    }
}

/// The slow-loris core: write `preamble`, then dribble `dribble` one
/// byte per `byte_delay`, polling for a response between bytes. Returns
/// as soon as the server answers or cuts the connection; gives up (and
/// reports [`Observed::ReadTimeout`]) if the server tolerates the
/// dribble past its own deadline + grace — that is the failure mode this
/// scenario exists to catch.
fn dribble_until_cut(
    target: &ChaosTarget,
    preamble: &[u8],
    dribble: &[u8],
    byte_delay: Duration,
) -> Observed {
    let give_up = target.request_timeout + DEADLINE_GRACE;
    let mut stream = match connect(&target.addr, Duration::from_millis(10)) {
        Ok(s) => s,
        Err(e) => return Observed::Transport(e),
    };
    if let Err(e) = stream.write_all(preamble) {
        return Observed::Transport(format!("preamble write: {e}"));
    }
    let started = Instant::now();
    let mut response = Vec::new();
    let mut chunk = [0u8; 4096];
    for byte in dribble {
        if started.elapsed() > give_up {
            // The server never cut us off: the slow-loris defense failed.
            return Observed::ReadTimeout;
        }
        std::thread::sleep(byte_delay);
        let write_failed = stream.write_all(std::slice::from_ref(byte)).is_err();
        // Poll (10 ms read timeout) for an early 408 between bytes.
        match stream.read(&mut chunk) {
            Ok(0) => {
                return match try_parse_response(&response) {
                    Some((code, body)) => Observed::Status { code, body },
                    None => Observed::Closed,
                }
            }
            Ok(n) => {
                response.extend_from_slice(&chunk[..n]);
                if let Some((code, body)) = try_parse_response(&response) {
                    return Observed::Status { code, body };
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => {
                return match try_parse_response(&response) {
                    Some((code, body)) => Observed::Status { code, body },
                    None => Observed::Closed,
                }
            }
        }
        if write_failed {
            return match try_parse_response(&response) {
                Some((code, body)) => Observed::Status { code, body },
                None => Observed::Closed,
            };
        }
    }
    Observed::Transport("dribble source exhausted before the server reacted".into())
}

// ---- soak --------------------------------------------------------------

/// Soak-run knobs.
pub struct SoakOptions {
    /// How long to sustain the mixed workload.
    pub duration: Duration,
    /// Max allowed growth of `server.mem.rss_bytes` between the first
    /// and the largest sample.
    pub rss_budget_bytes: u64,
    /// `(request_body, expected_response_body)` pairs cycled by the good
    /// clients; distinct seeds keep the display cache churning.
    pub good_requests: Vec<(String, String)>,
    /// Base CSV for the upload churn (rotated per shot so fingerprints
    /// differ and the registry evicts at capacity). `None` disables it.
    pub upload_csv: Option<String>,
    /// Metrics sampling interval.
    pub sample_every: Duration,
}

/// What the soak run measured.
#[derive(Debug, Clone)]
pub struct SoakReport {
    pub duration_secs: f64,
    pub good_requests: usize,
    /// Good shots that failed or diverged from the offline decode.
    pub divergences: usize,
    pub byzantine_shots: usize,
    pub uploads_attempted: usize,
    pub rss_first_bytes: Option<u64>,
    pub rss_max_bytes: Option<u64>,
    pub rss_last_bytes: Option<u64>,
    pub rss_growth_bytes: u64,
    pub rss_budget_bytes: u64,
    pub counters_monotone: bool,
    pub evictions_delta: u64,
    pub metrics_samples: usize,
    pub failures: Vec<String>,
    pub pass: bool,
}

/// Counters whose monotonicity the soak sampler enforces.
const MONOTONE_COUNTERS: &[&str] = &[
    "server.http.requests",
    "server.http.parse_errors",
    "server.connections",
    "registry.uploads",
    "registry.evictions",
    "server.cache.hits",
    "server.cache.misses",
];

/// Sustain mixed good/byzantine traffic against `target` for
/// `options.duration`: two good-client loops (byte-identity checked), a
/// fast-byzantine loop, a dedicated slow-loris dribbler, and an upload
/// churner keeping the registry at capacity. A sampler polls
/// `/v1/metrics` for the RSS gauge and monotone counters throughout.
pub fn run_soak(target: &ChaosTarget, options: &SoakOptions) -> SoakReport {
    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();

    // Good traffic: cycle the seed set so the display cache and response
    // cache churn instead of serving one hot entry.
    let good_count = Arc::new(AtomicUsize::new(0));
    let divergences = Arc::new(AtomicUsize::new(0));
    let good_threads: Vec<_> = (0..2)
        .map(|offset| {
            let stop = Arc::clone(&stop);
            let good_count = Arc::clone(&good_count);
            let divergences = Arc::clone(&divergences);
            let target = target.clone();
            let requests = options.good_requests.clone();
            std::thread::spawn(move || {
                let mut i = offset;
                while !stop.load(Ordering::SeqCst) {
                    let (body, expected) = &requests[i % requests.len()];
                    i += 1;
                    let mut shot = target.clone();
                    shot.good_body = body.clone();
                    shot.expected_body = expected.clone();
                    match shot.good_shot() {
                        Ok(_) => {
                            good_count.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(_) => {
                            divergences.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            })
        })
        .collect();

    // Fast byzantine churn: malformed, oversized, pipelined, aborts.
    let byzantine_count = Arc::new(AtomicUsize::new(0));
    let byz_thread = {
        let stop = Arc::clone(&stop);
        let byzantine_count = Arc::clone(&byzantine_count);
        let target = target.clone();
        std::thread::spawn(move || {
            let scripts = [
                Scenario::MalformedRequestLine,
                Scenario::OversizedHeader,
                Scenario::PipelinedGarbage,
                Scenario::MidRequestDisconnect,
                Scenario::OversizedBody {
                    declared: target.max_body_bytes + 1,
                },
                Scenario::MidResponseDisconnect,
            ];
            let mut i = 0;
            while !stop.load(Ordering::SeqCst) {
                let _ = execute(&target, &scripts[i % scripts.len()]);
                i += 1;
                byzantine_count.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(20));
            }
        })
    };

    // One dedicated slow-loris dribbler reconnecting for the whole soak.
    let loris_thread = {
        let stop = Arc::clone(&stop);
        let target = target.clone();
        std::thread::spawn(move || {
            let byte_delay = (target.request_timeout / 10).max(Duration::from_millis(10));
            while !stop.load(Ordering::SeqCst) {
                let _ = execute(&target, &Scenario::SlowLorisHeaders { byte_delay });
            }
        })
    };

    // Upload churn: rotate CSV content so every upload is a distinct
    // fingerprint and the registry evicts at capacity.
    let uploads_attempted = Arc::new(AtomicUsize::new(0));
    let upload_thread = options.upload_csv.clone().map(|base| {
        let stop = Arc::clone(&stop);
        let uploads_attempted = Arc::clone(&uploads_attempted);
        let target = target.clone();
        std::thread::spawn(move || {
            let mut tag = 0usize;
            while !stop.load(Ordering::SeqCst) {
                let csv = format!("{base}tag{tag},{tag}\n");
                tag += 1;
                let raw = format!(
                    "POST /v1/datasets?name=soak{tag} HTTP/1.1\r\nHost: chaos\r\n\
                     X-Atena-Tenant: soaker{}\r\nContent-Type: text/csv\r\n\
                     Content-Length: {}\r\nConnection: close\r\n\r\n{csv}",
                    tag % 4,
                    csv.len()
                );
                if let Ok(mut stream) = connect(&target.addr, CLIENT_READ_TIMEOUT) {
                    if stream.write_all(raw.as_bytes()).is_ok() {
                        let _ = read_outcome(&mut stream);
                    }
                }
                uploads_attempted.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(25));
            }
        })
    });

    // Sampler: RSS gauge, monotone counters, eviction progress.
    let mut failures: Vec<String> = Vec::new();
    let mut rss_first = None;
    let mut rss_max: Option<u64> = None;
    let mut rss_last = None;
    let mut counters_monotone = true;
    let mut prev_counters: std::collections::HashMap<String, u64> = Default::default();
    let mut evictions_first: Option<u64> = None;
    let mut evictions_last: u64 = 0;
    let mut samples = 0usize;
    while started.elapsed() < options.duration {
        std::thread::sleep(options.sample_every);
        let metrics = match target.metrics() {
            Ok(m) => m,
            Err(e) => {
                failures.push(format!("metrics scrape failed: {e}"));
                continue;
            }
        };
        samples += 1;
        if let Some(rss) = metrics["gauges"]["server.mem.rss_bytes"].as_f64() {
            let rss = rss as u64;
            rss_first.get_or_insert(rss);
            rss_max = Some(rss_max.map_or(rss, |m: u64| m.max(rss)));
            rss_last = Some(rss);
        }
        for name in MONOTONE_COUNTERS {
            let now = metrics["counters"][*name].as_u64().unwrap_or(0);
            let prev = prev_counters.insert((*name).to_string(), now).unwrap_or(0);
            if now < prev {
                counters_monotone = false;
                failures.push(format!("counter {name} went backwards: {prev} -> {now}"));
            }
        }
        let evictions = metrics["counters"]["registry.evictions"]
            .as_u64()
            .unwrap_or(0);
        evictions_first.get_or_insert(evictions);
        evictions_last = evictions;
    }

    stop.store(true, Ordering::SeqCst);
    for t in good_threads {
        let _ = t.join();
    }
    let _ = byz_thread.join();
    let _ = loris_thread.join();
    if let Some(t) = upload_thread {
        let _ = t.join();
    }

    let good_requests = good_count.load(Ordering::SeqCst);
    let divergences = divergences.load(Ordering::SeqCst);
    let rss_growth = match (rss_first, rss_max) {
        (Some(first), Some(max)) => max.saturating_sub(first),
        _ => 0,
    };
    if divergences > 0 {
        failures.push(format!(
            "{divergences} good shots failed or diverged from the offline decode"
        ));
    }
    if good_requests == 0 {
        failures.push("no good requests completed during the soak".into());
    }
    if rss_first.is_none() {
        failures.push("server.mem.rss_bytes gauge never appeared in /v1/metrics".into());
    } else if rss_growth > options.rss_budget_bytes {
        failures.push(format!(
            "RSS grew {rss_growth} bytes, over the {} byte budget",
            options.rss_budget_bytes
        ));
    }
    let evictions_delta = evictions_last.saturating_sub(evictions_first.unwrap_or(0));
    if options.upload_csv.is_some() && evictions_delta == 0 {
        failures.push("registry at capacity produced no evictions during the soak".into());
    }
    SoakReport {
        duration_secs: started.elapsed().as_secs_f64(),
        good_requests,
        divergences,
        byzantine_shots: byzantine_count.load(Ordering::SeqCst),
        uploads_attempted: uploads_attempted.load(Ordering::SeqCst),
        rss_first_bytes: rss_first,
        rss_max_bytes: rss_max,
        rss_last_bytes: rss_last,
        rss_growth_bytes: rss_growth,
        rss_budget_bytes: options.rss_budget_bytes,
        counters_monotone,
        evictions_delta,
        metrics_samples: samples,
        pass: failures.is_empty(),
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_parser_handles_split_and_complete_frames() {
        let full = b"HTTP/1.1 404 Not Found\r\nContent-Length: 5\r\n\r\nhello";
        assert_eq!(try_parse_response(full), Some((404, "hello".to_string())));
        // Body not yet complete → keep reading.
        assert_eq!(
            try_parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhel"),
            None
        );
        // No blank line yet → keep reading.
        assert_eq!(try_parse_response(b"HTTP/1.1 200 OK\r\n"), None);
        // No Content-Length → empty body.
        assert_eq!(
            try_parse_response(b"HTTP/1.1 204 No Content\r\n\r\n"),
            Some((204, String::new()))
        );
        // A read that ends inside a multi-byte character is an incomplete
        // body, not a replacement character or a char-boundary panic.
        assert_eq!(
            try_parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\na\xC3"),
            None
        );
        assert_eq!(
            try_parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nab\xE2\x82"),
            None
        );
        assert_eq!(
            try_parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nab\xE2\x82\xAC"),
            Some((200, "ab\u{20AC}".to_string()))
        );
    }

    #[test]
    fn every_scenario_has_a_typed_expectation_and_stable_name() {
        let target = ChaosTarget {
            addr: "127.0.0.1:1".into(),
            good_body: "{}".into(),
            expected_body: String::new(),
            request_timeout: Duration::from_secs(2),
            max_body_bytes: 1024,
        };
        let matrix = scenario_matrix(&target);
        assert_eq!(matrix.len(), 11);
        let mut names: Vec<&str> = matrix.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 11, "scenario names must be unique");
        for scenario in &matrix {
            // Display must never panic and must be non-empty.
            assert!(!scenario.expected().to_string().is_empty());
        }
    }

    #[test]
    fn expectation_matching_is_strict() {
        let target = ChaosTarget {
            addr: "127.0.0.1:1".into(),
            good_body: "{}".into(),
            expected_body: String::new(),
            request_timeout: Duration::from_millis(100),
            max_body_bytes: 1024,
        };
        let status = |code| Observed::Status {
            code,
            body: String::new(),
        };
        let fast = Duration::from_millis(50);
        assert!(matches(
            &Expectation::Status(400),
            &status(400),
            fast,
            &target
        ));
        assert!(!matches(
            &Expectation::Status(400),
            &status(500),
            fast,
            &target
        ));
        assert!(!matches(
            &Expectation::Status(400),
            &Observed::Closed,
            fast,
            &target
        ));
        // TimeoutOrClose accepts 408/close only when bounded.
        assert!(matches(
            &Expectation::TimeoutOrClose,
            &status(408),
            fast,
            &target
        ));
        assert!(matches(
            &Expectation::TimeoutOrClose,
            &Observed::Closed,
            fast,
            &target
        ));
        let late = Duration::from_secs(60);
        assert!(!matches(
            &Expectation::TimeoutOrClose,
            &status(408),
            late,
            &target
        ));
        assert!(!matches(
            &Expectation::TimeoutOrClose,
            &Observed::ReadTimeout,
            fast,
            &target
        ));
        // Pipelined: 200 then 400-or-close.
        let pipelined = |second| Observed::Pipelined {
            first: 200,
            second: Box::new(second),
        };
        assert!(matches(
            &Expectation::OkThenReject,
            &pipelined(status(400)),
            fast,
            &target
        ));
        assert!(matches(
            &Expectation::OkThenReject,
            &pipelined(Observed::Closed),
            fast,
            &target
        ));
        assert!(!matches(
            &Expectation::OkThenReject,
            &pipelined(status(200)),
            fast,
            &target
        ));
        assert!(!matches(
            &Expectation::OkThenReject,
            &status(200),
            fast,
            &target
        ));
        // Flood: any non-200/429 outcome fails; zero successes fail.
        let flood = |ok, shed, other| Observed::Flood { ok, shed, other };
        assert!(matches(
            &Expectation::ServedOrShed,
            &flood(3, 13, 0),
            fast,
            &target
        ));
        assert!(!matches(
            &Expectation::ServedOrShed,
            &flood(3, 12, 1),
            fast,
            &target
        ));
        assert!(!matches(
            &Expectation::ServedOrShed,
            &flood(0, 16, 0),
            fast,
            &target
        ));
    }
}
