//! The socket chaos suite (DESIGN.md §4n): byzantine clients against a
//! live server. Every hostile frame class is pinned to its exact status
//! code and `server.http.*` counter deltas; slow-loris dribblers are cut
//! off by the per-request deadline; clients vanishing mid-request,
//! mid-response or mid-microbatch cost nobody else a byte; and a soak
//! sustains all of it against a registry evicting at capacity, with flat
//! RSS and monotone counters. Throughout, good clients must get 200s
//! carrying exactly the bytes of the offline decode.
//!
//! The soak runs for `ATENA_SOAK_SECS` seconds (default 8):
//!
//! ```text
//! ATENA_SOAK_SECS=60 cargo test --release -p atena-server --test chaos
//! ```

use atena_core::PolicyBundle;
use atena_registry::{RegistryConfig, TenantLimits};
use atena_server::{Engine, Server, ServerConfig, ServerHandle};
use atena_telemetry::{MetricsRegistry, MetricsSnapshot};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

mod common;

use common::{
    base, connect, header, metrics, raw_request, read_response, request_with, tiny_bundle,
    try_parse_response, try_request, Response,
};

/// Grace added to the server's per-request deadline when asserting that
/// an attack was cut off in time (scheduling jitter, loopback RTT).
const DEADLINE_GRACE: Duration = Duration::from_millis(1500);

/// The tenant of every good client. No attacker sends it, so per-tenant
/// admission never sheds a good request: at most two are in flight.
const GOOD_TENANT: &str = "good";

/// A valid request with garbage pipelined behind it.
const PIPELINED_GARBAGE: &[u8] =
    b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n%%% garbage, not a request %%%\r\n\r\n";

fn spawn_server(
    config: ServerConfig,
    engine: Engine,
) -> (ServerHandle, SocketAddr, Arc<MetricsRegistry>) {
    let telemetry = Arc::new(MetricsRegistry::new());
    let server = Server::bind_with_telemetry(config, engine, Arc::clone(&telemetry)).unwrap();
    let addr = server.local_addr().unwrap();
    (server.spawn().unwrap(), addr, telemetry)
}

/// A hostile-friendly server: short deadline, microbatching on, a tiny
/// registry budget and tight per-tenant admission.
fn hostile_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        cache_size: 8,
        request_timeout: Duration::from_millis(700),
        max_batch: 4,
        batch_window: Duration::from_millis(1),
        registry: RegistryConfig {
            budget_bytes: 2048,
            max_datasets: 4,
            tenant_quota_bytes: 2048,
            limits: atena_dataframe::CsvLimits {
                max_bytes: 4096,
                max_rows: 10_000,
                max_cols: 16,
            },
        },
        tenant_limits: TenantLimits {
            max_inflight: 2,
            retry_after_secs: 1,
        },
        ..Default::default()
    }
}

/// A `/v1/notebook` request for `seed`, from `tenant` (`None`: the
/// default tenant).
fn notebook_raw(seed: u64, tenant: Option<&str>) -> String {
    let mut headers = vec![("Content-Type", "application/json")];
    headers.extend(tenant.map(|t| ("X-Atena-Tenant", t)));
    let body = format!(r#"{{"dataset":"tiny","episode_len":3,"seed":{seed}}}"#);
    raw_request("POST", "/v1/notebook", &headers, &body)
}

/// A good client's request and the exact bytes an offline serial decode
/// produces for it.
#[derive(Clone)]
struct GoodShot {
    raw: String,
    expected: String,
}

impl GoodShot {
    /// One shot per seed, answered offline by a sibling engine.
    fn for_seeds(bundle: &PolicyBundle, seeds: std::ops::Range<u64>) -> Vec<GoodShot> {
        let offline = Engine::new(bundle.clone(), base()).unwrap();
        seeds
            .map(|seed| {
                let request = offline.validate("tiny", Some(3), Some(seed)).unwrap();
                GoodShot {
                    raw: notebook_raw(seed, Some(GOOD_TENANT)),
                    expected: serde_json::to_string(&offline.decode(&request).unwrap()).unwrap(),
                }
            })
            .collect()
    }

    /// Fire on a fresh connection: a 200 carrying exactly the offline
    /// bytes, or an error naming what came back instead.
    fn fire(&self, addr: SocketAddr) -> Result<(), String> {
        match try_request(addr, self.raw.as_bytes())? {
            (200, _, body) if body == self.expected => Ok(()),
            (200, _, body) => Err(format!(
                "response diverged from the offline decode ({} vs {} bytes)",
                body.len(),
                self.expected.len()
            )),
            (status, _, body) => Err(format!("good client got HTTP {status}: {body}")),
        }
    }
}

/// A background good client firing its shots round-robin until stopped.
/// It holds `done` for the whole of each shot, so whoever holds the lock
/// knows no good request is on the wire, and that `*done` good requests
/// have been answered.
struct GoodClient {
    stop: Arc<AtomicBool>,
    done: Arc<Mutex<u64>>,
    thread: JoinHandle<Vec<String>>,
}

impl GoodClient {
    fn start(addr: SocketAddr, shots: Vec<GoodShot>, first: usize, pace: Duration) -> GoodClient {
        let stop = Arc::new(AtomicBool::new(false));
        let done = Arc::new(Mutex::new(0));
        let thread = {
            let (stop, done) = (Arc::clone(&stop), Arc::clone(&done));
            std::thread::spawn(move || {
                let mut failures = Vec::new();
                for shot in shots.iter().cycle().skip(first) {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let mut done = done.lock().unwrap();
                    if let Err(e) = shot.fire(addr) {
                        failures.push(e);
                    }
                    *done += 1;
                    drop(done);
                    std::thread::sleep(pace);
                }
                failures
            })
        };
        GoodClient { stop, done, thread }
    }

    /// Run `f` between two good shots; also returns how many shots had
    /// been answered by then.
    fn between_shots<T>(&self, f: impl FnOnce() -> T) -> (T, u64) {
        let done = self.done.lock().unwrap();
        (f(), *done)
    }

    /// Stop, requiring that shots were fired and every one of them got
    /// the offline bytes.
    fn stop_clean(self, during: &str) {
        self.stop.store(true, Ordering::SeqCst);
        let failures = self.thread.join().expect("good client thread");
        let fired = *self.done.lock().unwrap();
        assert!(fired > 0, "the good client fired no request {during}");
        assert!(
            failures.is_empty(),
            "{} of {fired} good shots failed or diverged {during}; the first: {}",
            failures.len(),
            failures[0]
        );
    }
}

/// Run `attack` while `good` keeps firing, and return its result with the
/// `server.http.parse_errors` delta and the number of routed requests that
/// were not the good client's.
fn measured<T>(
    good: &GoodClient,
    telemetry: &MetricsRegistry,
    attack: impl FnOnce() -> T,
) -> (T, u64, i64) {
    let count = |snap: &MetricsSnapshot, name| snap.counter(name).unwrap_or(0);
    let (before, good_before) = good.between_shots(|| telemetry.snapshot());
    let result = attack();
    let (after, good_after) = good.between_shots(|| telemetry.snapshot());
    let parse_errors =
        count(&after, "server.http.parse_errors") - count(&before, "server.http.parse_errors");
    let routed = count(&after, "server.http.requests") as i64
        - count(&before, "server.http.requests") as i64
        - (good_after - good_before) as i64;
    (result, parse_errors, routed)
}

/// After an attack, `/v1/healthz` answers 200 and a good request still
/// gets the offline bytes.
fn assert_survived(addr: SocketAddr, shot: &GoodShot, case: &str) {
    let (status, _, body) = request_with(addr, "GET", "/v1/healthz", &[], "");
    assert_eq!(status, 200, "{case}: healthz after the attack: {body}");
    if let Err(e) = shot.fire(addr) {
        panic!("{case}: good shot after the attack: {e}");
    }
}

/// Every hostile frame class and the exact status a server whose
/// `/v1/notebook` body cap is `max_body_bytes` must answer it with.
fn hostile_frames(max_body_bytes: usize) -> Vec<(&'static str, Vec<u8>, u16)> {
    let oversized_header = {
        let mut raw = b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\nX-Big: ".to_vec();
        raw.resize(raw.len() + 20 * 1024, b'a');
        raw.extend_from_slice(b"\r\n\r\n");
        raw
    };
    let header_flood = {
        let mut raw = b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n".to_vec();
        for i in 0..4000 {
            raw.extend_from_slice(format!("X-F{i}: v\r\n").as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        raw
    };
    vec![
        (
            "malformed request line",
            b"NOT EVEN CLOSE TO HTTP\r\n\r\n".to_vec(),
            400,
        ),
        ("oversized header", oversized_header, 431),
        ("header flood", header_flood, 431),
        (
            "declared body one byte past the cap",
            format!(
                "POST /v1/notebook HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
                max_body_bytes + 1
            )
            .into_bytes(),
            413,
        ),
        (
            "oversized declared body",
            b"POST /v1/notebook HTTP/1.1\r\nHost: t\r\nContent-Length: 2147483648\r\n\r\n".to_vec(),
            413,
        ),
        (
            "missing content-length",
            b"POST /v1/notebook HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n".to_vec(),
            411,
        ),
        (
            "chunked transfer encoding",
            b"POST /v1/notebook HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n\
              5\r\nhello\r\n0\r\n\r\n"
                .to_vec(),
            501,
        ),
        (
            "truncated body then silence",
            b"POST /v1/notebook HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
              Content-Length: 100\r\n\r\n{\"data"
                .to_vec(),
            408,
        ),
    ]
}

/// Send the first half of `raw`, then vanish.
fn vanish_mid_request(addr: SocketAddr, raw: &[u8]) {
    let mut stream = connect(addr);
    let _ = stream.write_all(&raw[..raw.len() / 2]);
}

/// Send all of `raw`, read a sliver of the response, then vanish. The
/// unread remainder turns the close into a reset the server's writer must
/// absorb.
fn vanish_mid_response(addr: SocketAddr, raw: &[u8]) {
    let mut stream = connect(addr);
    if stream.write_all(raw).is_ok() {
        let _ = stream.read(&mut [0u8; 16]);
    }
}

/// The slow-loris core: write `preamble`, then one byte per `byte_delay`,
/// polling for an answer between bytes. Returns the status the server cut
/// the dribble off with (`None`: a bare close) and when; an error if the
/// server still tolerates the dribble at `give_up`.
fn dribble(
    addr: SocketAddr,
    preamble: &[u8],
    byte_delay: Duration,
    give_up: Duration,
) -> Result<(Option<u16>, Duration), String> {
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_millis(10)))
        .unwrap();
    stream
        .write_all(preamble)
        .map_err(|e| format!("preamble write: {e}"))?;
    let mut response = Vec::new();
    let mut chunk = [0u8; 4096];
    while started.elapsed() < give_up {
        std::thread::sleep(byte_delay);
        let write_failed = stream.write_all(b"a").is_err();
        let closed = match stream.read(&mut chunk) {
            Ok(0) => true,
            Ok(n) => {
                response.extend_from_slice(&chunk[..n]);
                false
            }
            Err(e) => !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
        };
        if let Some((status, _, _)) = try_parse_response(&response) {
            return Ok((Some(status), started.elapsed()));
        }
        if closed || write_failed {
            return Ok((None, started.elapsed()));
        }
    }
    Err(format!(
        "the server still tolerated the dribble after {give_up:?}"
    ))
}

/// Every byzantine frame class produces its exact status code, counts
/// exactly one `server.http.parse_errors` and never reaches routing; the
/// attacks only a live client can make (a slow-loris body, disconnects
/// mid-request and mid-response, a one-tenant flood) end as they must.
/// After each case the server answers `/v1/healthz` and a good request
/// byte-identically, and a background good client runs through the whole
/// table without one failed or divergent response.
#[test]
fn byzantine_frames_exact_statuses_and_counter_deltas() {
    let config = hostile_config();
    let (request_timeout, max_body_bytes) = (config.request_timeout, config.max_body_bytes);
    let bundle = tiny_bundle();
    let shots = GoodShot::for_seeds(&bundle, 0..6);
    let (handle, addr, telemetry) = spawn_server(config, Engine::new(bundle, base()).unwrap());
    let good = GoodClient::start(addr, shots.clone(), 0, Duration::from_millis(10));

    for (name, raw, expected) in hostile_frames(max_body_bytes) {
        let started = Instant::now();
        let (observed, parse_errors, routed) =
            measured(&good, &telemetry, || try_request(addr, &raw));
        let (status, _, body) =
            observed.unwrap_or_else(|e| panic!("{name}: no {expected} response: {e}"));
        assert_eq!(status, expected, "{name}: {body}");
        assert!(
            started.elapsed() <= request_timeout + DEADLINE_GRACE,
            "{name}: answered after {:?}",
            started.elapsed()
        );
        assert_eq!(parse_errors, 1, "{name}: parse_errors delta");
        assert_eq!(routed, 0, "{name}: a hostile frame was routed");
        assert_survived(addr, &shots[0], name);
    }

    // Pipelined garbage: the good request is served (routed, 200), the
    // garbage behind it is a parse error, then close.
    let ((first, second), parse_errors, routed) = measured(&good, &telemetry, || {
        let mut stream = connect(addr);
        stream.write_all(PIPELINED_GARBAGE).unwrap();
        (read_response(&mut stream), read_response(&mut stream))
    });
    let (status, _, _) = first.expect("pipelined good request answered");
    assert_eq!(status, 200);
    assert!(
        matches!(second, Ok((400, _, _)) | Err(_)),
        "pipelined garbage must 400 or close, got {second:?}"
    );
    assert_eq!(routed, 1, "exactly the good half of the pipeline is routed");
    assert_eq!(parse_errors, 1, "exactly the garbage half is a parse error");
    assert_survived(addr, &shots[0], "pipelined garbage");

    // A complete head, then the body one byte at a time: only the request
    // deadline can stop it, with a 408 or a close.
    let preamble = b"POST /v1/notebook HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
                     Content-Length: 4096\r\n\r\n";
    let (cut, parse_errors, routed) = measured(&good, &telemetry, || {
        dribble(
            addr,
            preamble,
            request_timeout / 10,
            request_timeout + DEADLINE_GRACE,
        )
    });
    let (status, _) = cut.expect("slow-loris body");
    assert!(
        matches!(status, Some(408) | None),
        "slow-loris body: {status:?}"
    );
    assert_eq!(parse_errors, 1, "slow-loris body: parse_errors delta");
    assert_eq!(routed, 0, "slow-loris body: the dribble was routed");
    assert_survived(addr, &shots[0], "slow-loris body");

    let attack = notebook_raw(0, None);
    vanish_mid_request(addr, attack.as_bytes());
    assert_survived(addr, &shots[0], "mid-request disconnect");
    vanish_mid_response(addr, attack.as_bytes());
    assert_survived(addr, &shots[0], "mid-response disconnect");

    // 16 concurrent decodes from one tenant past its in-flight cap of 2:
    // every one is the offline bytes or a 429, none errors or hangs.
    let flood: Vec<_> = (0..16)
        .map(|_| {
            let raw = notebook_raw(0, Some("flooder"));
            std::thread::spawn(move || try_request(addr, raw.as_bytes()))
        })
        .collect();
    let mut served = 0;
    for shot in flood {
        match shot.join().unwrap() {
            Ok((200, _, body)) => {
                assert_eq!(body, shots[0].expected, "flood: a 200 diverged");
                served += 1;
            }
            Ok((429, headers, _)) => assert_eq!(header(&headers, "retry-after"), Some("1")),
            other => panic!("flood: every shot must be 200 or 429, got {other:?}"),
        }
    }
    assert!(served > 0, "flood: not one request was served");
    assert_survived(addr, &shots[0], "request flood");

    good.stop_clean("under attack");
    assert_eq!(telemetry.snapshot().counter("server.pool.panics"), None);
    handle.shutdown();
}

/// A slow-loris client dribbling one header byte per tick resets the
/// kernel's per-read timer every time; only the per-request deadline can
/// stop it. The server must cut the connection within `request_timeout`
/// (+ grace), and keep serving everyone else while the dribble is in
/// flight.
#[test]
fn slow_loris_dribble_is_cut_at_the_request_deadline() {
    let request_timeout = Duration::from_millis(600);
    let (handle, addr, telemetry) = spawn_server(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            cache_size: 4,
            request_timeout,
            ..Default::default()
        },
        Engine::new(tiny_bundle(), base()).unwrap(),
    );

    let loris = std::thread::spawn(move || {
        dribble(
            addr,
            b"POST /v1/notebook HTTP/1.1\r\nHost: t\r\nX-Dribble: ",
            Duration::from_millis(100),
            request_timeout + Duration::from_secs(2),
        )
    });

    // While the dribble is in flight, healthy clients are unaffected.
    let (status, _, body) = try_request(addr, notebook_raw(2, None).as_bytes())
        .expect("healthy request during dribble");
    assert_eq!(status, 200, "{body}");

    let (status, cut) = loris
        .join()
        .unwrap()
        .expect("server never cut the dribbling client");
    assert!(
        matches!(status, Some(408) | None),
        "{status:?} after {cut:?}"
    );
    assert!(
        telemetry
            .snapshot()
            .counter("server.http.parse_errors")
            .unwrap_or(0)
            >= 1,
        "the dribble must be counted as a parse error (timeout)"
    );
    handle.shutdown();
}

/// The N−1 regression: one of N concurrent clients on a *microbatched*
/// server vanishes mid-request/mid-flush. The surviving N−1 responses
/// must stay byte-identical to a serial (unbatched) server's, and the
/// batch queue must keep working afterwards — including for the
/// victim's own request when it is retried.
#[test]
fn follower_disconnect_mid_batch_leaves_other_responses_byte_identical() {
    let bundle = tiny_bundle();
    let spawn = |max_batch: usize| {
        spawn_server(
            ServerConfig {
                addr: "127.0.0.1:0".into(),
                workers: 8,
                cache_size: 0, // every request decodes through the batcher
                max_batch,
                batch_window: Duration::from_millis(2),
                ..Default::default()
            },
            Engine::new(bundle.clone(), base()).unwrap(),
        )
    };
    let (serial_handle, serial_addr, _) = spawn(1);
    let (batched_handle, batched_addr, batched_telemetry) = spawn(4);

    let request_for = |seed: u64| {
        let body = format!(r#"{{"dataset":"tiny","episode_len":6,"seed":{seed}}}"#);
        raw_request(
            "POST",
            "/v1/notebook",
            &[("Content-Type", "application/json")],
            &body,
        )
    };

    // Reference bytes from the serial server.
    let seeds: Vec<u64> = (0..6).collect();
    let reference: Vec<String> = seeds
        .iter()
        .map(|&s| {
            let (status, _, body) = try_request(serial_addr, request_for(s).as_bytes()).unwrap();
            assert_eq!(status, 200, "{body}");
            body
        })
        .collect();

    // N concurrent clients against the batched server; the victim (seed
    // 2) sends its request and immediately vanishes, so its in-flight
    // decode steps die somewhere between queue and response write.
    let victim_seed = 2u64;
    let clients: Vec<_> = seeds
        .iter()
        .map(|&s| {
            let raw = request_for(s);
            std::thread::spawn(move || {
                let mut stream = connect(batched_addr);
                stream.write_all(raw.as_bytes()).unwrap();
                if s == victim_seed {
                    drop(stream); // vanish mid-batch
                    return None;
                }
                Some(read_response(&mut stream).expect("survivor got a response"))
            })
        })
        .collect();
    let results: Vec<Option<Response>> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    for (i, result) in results.iter().enumerate() {
        let seed = seeds[i];
        if seed == victim_seed {
            assert!(result.is_none());
            continue;
        }
        let (status, _, body) = result.as_ref().unwrap();
        assert_eq!(*status, 200, "seed {seed}: {body}");
        assert_eq!(
            body, &reference[i],
            "seed {seed}: survivor diverged from the serial server"
        );
    }

    // The queue is not wedged and the victim's request still decodes to
    // the same bytes when retried on a fresh connection.
    let (status, _, body) = try_request(batched_addr, request_for(victim_seed).as_bytes()).unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        body, reference[victim_seed as usize],
        "retried victim request diverged"
    );

    // The batcher actually ran (this test is about batched flushes), and
    // no worker died doing it.
    let snap = batched_telemetry.snapshot();
    let flushes = snap.counter("batch.flush.full").unwrap_or(0)
        + snap.counter("batch.flush.timeout").unwrap_or(0);
    assert!(flushes > 0, "decodes never went through the microbatcher");
    assert_eq!(snap.counter("server.pool.panics"), None);

    serial_handle.shutdown();
    batched_handle.shutdown();
}

/// Counters the soak's sampler requires to never go backwards.
const MONOTONE_COUNTERS: &[&str] = &[
    "server.http.requests",
    "server.http.parse_errors",
    "server.connections",
    "registry.uploads",
    "registry.evictions",
    "server.cache.hits",
    "server.cache.misses",
];

/// Mixed good and byzantine traffic for `ATENA_SOAK_SECS` (default 8 s):
/// two good clients cycling more seeds than the response cache holds (so
/// they decode, microbatched, under attack), a fast byzantine loop, a
/// slow-loris dribbler, and an upload churner keeping the registry
/// evicting at capacity. A sampler scrapes `/v1/metrics` every 500 ms.
/// Every good response must be the offline bytes, RSS must stay within
/// 64 MiB of its first sample, sampled counters must never go backwards,
/// and evictions must advance.
#[test]
fn soak_keeps_rss_flat_counters_monotone_and_good_bytes_identical() {
    let soak = Duration::from_secs(
        std::env::var("ATENA_SOAK_SECS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(8),
    );
    let config = hostile_config();
    let (request_timeout, max_body_bytes) = (config.request_timeout, config.max_body_bytes);
    let bundle = tiny_bundle();
    let shots = GoodShot::for_seeds(&bundle, 0..12);
    let (handle, addr, telemetry) = spawn_server(config, Engine::new(bundle, base()).unwrap());

    let good: Vec<GoodClient> = (0..2)
        .map(|i| GoodClient::start(addr, shots.clone(), 6 * i, Duration::from_millis(5)))
        .collect();
    let stop = Arc::new(AtomicBool::new(false));
    let byzantine_shots = Arc::new(AtomicUsize::new(0));
    let attackers = vec![
        {
            let (stop, shots) = (Arc::clone(&stop), Arc::clone(&byzantine_shots));
            std::thread::spawn(move || {
                let mut frames: Vec<Vec<u8>> = hostile_frames(max_body_bytes)
                    .into_iter()
                    .filter(|(_, _, status)| *status != 408)
                    .map(|(_, raw, _)| raw)
                    .collect();
                frames.push(PIPELINED_GARBAGE.to_vec());
                let attack = notebook_raw(1, None);
                for i in 0.. {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    match i % (frames.len() + 2) {
                        0 => vanish_mid_request(addr, attack.as_bytes()),
                        1 => vanish_mid_response(addr, attack.as_bytes()),
                        k => drop(try_request(addr, &frames[k - 2])),
                    }
                    shots.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(20));
                }
            })
        },
        {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let _ = dribble(
                        addr,
                        b"POST /v1/notebook HTTP/1.1\r\nHost: t\r\nX-Dribble: ",
                        request_timeout / 10,
                        request_timeout + DEADLINE_GRACE,
                    );
                }
            })
        },
        {
            // Rotated rows give every upload a fresh fingerprint, so the
            // tiny registry budget evicts continuously.
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut base_csv = String::from("k,v\n");
                for r in 0..30 {
                    base_csv.push_str(&format!("row{r},{r}\n"));
                }
                for tag in 0.. {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let tenant = format!("soaker{}", tag % 4);
                    let raw = raw_request(
                        "POST",
                        &format!("/v1/datasets?name=soak{tag}"),
                        &[("X-Atena-Tenant", &tenant), ("Content-Type", "text/csv")],
                        &format!("{base_csv}tag{tag},{tag}\n"),
                    );
                    let _ = try_request(addr, raw.as_bytes());
                    std::thread::sleep(Duration::from_millis(25));
                }
            })
        },
    ];

    let started = Instant::now();
    let mut rss = Vec::new();
    let mut evictions = Vec::new();
    let mut last = std::collections::BTreeMap::new();
    let mut backwards = Vec::new();
    while started.elapsed() < soak {
        std::thread::sleep(Duration::from_millis(500));
        let m = metrics(addr);
        rss.extend(m["gauges"]["server.mem.rss_bytes"].as_f64());
        for name in MONOTONE_COUNTERS {
            let now = m["counters"][*name].as_u64().unwrap_or(0);
            let prev = last.insert(*name, now).unwrap_or(0);
            if now < prev {
                backwards.push(format!("{name}: {prev} -> {now}"));
            }
        }
        evictions.push(m["counters"]["registry.evictions"].as_u64().unwrap_or(0));
    }

    stop.store(true, Ordering::SeqCst);
    for attacker in attackers {
        attacker.join().expect("attacker thread");
    }
    for client in good {
        client.stop_clean("during the soak");
    }
    assert!(byzantine_shots.load(Ordering::SeqCst) > 0);
    assert!(evictions.len() >= 2, "fewer than 2 metrics samples");
    assert!(
        backwards.is_empty(),
        "counters went backwards: {backwards:?}"
    );
    assert!(
        evictions.last() > evictions.first(),
        "the registry at capacity evicted nothing during the soak: {evictions:?}"
    );
    if cfg!(target_os = "linux") {
        let first = *rss.first().expect("server.mem.rss_bytes never sampled");
        let max = rss.iter().copied().fold(first, f64::max);
        assert!(
            max - first <= (64u64 << 20) as f64,
            "RSS grew {first} -> {max} bytes"
        );
    }
    let snap = telemetry.snapshot();
    assert_eq!(snap.counter("server.pool.panics"), None);
    assert!(
        snap.counter("server.http.parse_errors").unwrap_or(0) > 0,
        "byzantine traffic must show up as parse errors"
    );
    handle.shutdown();
}
