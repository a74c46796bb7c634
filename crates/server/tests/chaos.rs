//! Byzantine-client hardening tests over real sockets: every hostile
//! frame class is pinned to its exact status code and `server.http.*`
//! counter deltas, a slow-loris dribbler is cut off by the per-request
//! deadline (not one-byte-per-tick forever), and a client vanishing
//! mid-microbatch costs nobody else a byte of their response.

use atena_server::{Engine, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;

use common::{base, read_response, tiny_bundle, Response};

/// Write a raw frame (tolerating an answer-and-reset cutoff mid-write)
/// and read back `(status, body)` — `None` if the server closed (or
/// reset) without completing a response.
fn exchange(addr: SocketAddr, raw: &[u8]) -> Option<(u16, String)> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let _ = stream.write_all(raw);
    let (status, _, body) = read_response(&mut stream).ok()?;
    Some((status, body))
}

fn spawn_server(
    config: ServerConfig,
) -> (
    atena_server::ServerHandle,
    SocketAddr,
    Arc<atena_telemetry::MetricsRegistry>,
) {
    let engine = Engine::new(tiny_bundle(), base()).unwrap();
    let telemetry = Arc::new(atena_telemetry::MetricsRegistry::new());
    let server = Server::bind_with_telemetry(config, engine, Arc::clone(&telemetry)).unwrap();
    let addr = server.local_addr().unwrap();
    (server.spawn().unwrap(), addr, telemetry)
}

/// Every byzantine frame class produces its exact status code, counts
/// exactly one `server.http.parse_errors`, and never reaches routing
/// (`server.http.requests` unchanged) — then the server still answers a
/// healthy request on a fresh connection.
#[test]
fn byzantine_frames_exact_statuses_and_counter_deltas() {
    let (handle, addr, telemetry) = spawn_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_size: 4,
        // A short deadline keeps the truncated-body case fast.
        request_timeout: Duration::from_millis(700),
        ..Default::default()
    });

    let oversized_header = {
        let mut raw = b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\nX-Big: ".to_vec();
        raw.extend(std::iter::repeat(b'a').take(20 * 1024));
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
    // (name, frame, exact status) — `None` status means the server must
    // close without producing a response.
    let cases: Vec<(&str, Vec<u8>, Option<u16>)> = vec![
        (
            "malformed request line",
            b"NOT EVEN CLOSE TO HTTP\r\n\r\n".to_vec(),
            Some(400),
        ),
        ("oversized header", oversized_header, Some(431)),
        ("header flood", header_flood, Some(431)),
        (
            "oversized declared body",
            b"POST /v1/notebook HTTP/1.1\r\nHost: t\r\nContent-Length: 2147483648\r\n\r\n".to_vec(),
            Some(413),
        ),
        (
            "missing content-length",
            b"POST /v1/notebook HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n".to_vec(),
            Some(411),
        ),
        (
            "chunked transfer encoding",
            b"POST /v1/notebook HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n\
              5\r\nhello\r\n0\r\n\r\n"
                .to_vec(),
            Some(501),
        ),
        (
            "truncated body then silence",
            b"POST /v1/notebook HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
              Content-Length: 100\r\n\r\n{\"data"
                .to_vec(),
            Some(408),
        ),
    ];

    for (name, raw, expected) in &cases {
        let before = telemetry.snapshot();
        let observed = exchange(addr, raw);
        let after = telemetry.snapshot();
        match expected {
            Some(code) => {
                let (status, body) = observed
                    .unwrap_or_else(|| panic!("{name}: server closed without the expected {code}"));
                assert_eq!(status, *code, "{name}: {body}");
            }
            None => assert!(observed.is_none(), "{name}: expected a bare close"),
        }
        // Exactly one parse error; the router was never reached.
        assert_eq!(
            after.counter("server.http.parse_errors").unwrap_or(0),
            before.counter("server.http.parse_errors").unwrap_or(0) + 1,
            "{name}: parse_errors delta"
        );
        assert_eq!(
            after.counter("server.http.requests").unwrap_or(0),
            before.counter("server.http.requests").unwrap_or(0),
            "{name}: hostile frame must not count as a routed request"
        );
    }

    // Pipelined garbage: the good request is served (routed, 200), the
    // garbage behind it is a parse error, then close.
    {
        let before = telemetry.snapshot();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        stream
            .write_all(b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n%%% garbage %%%\r\n\r\n")
            .unwrap();
        let (status, _, _) = read_response(&mut stream).expect("pipelined good request answered");
        assert_eq!(status, 200);
        let second = read_response(&mut stream);
        assert!(
            matches!(second, Ok((400, _, _)) | Err(_)),
            "pipelined garbage must 400 or close, got {second:?}"
        );
        let after = telemetry.snapshot();
        assert_eq!(
            after.counter("server.http.requests").unwrap_or(0),
            before.counter("server.http.requests").unwrap_or(0) + 1,
            "exactly the good half of the pipeline is routed"
        );
        assert_eq!(
            after.counter("server.http.parse_errors").unwrap_or(0),
            before.counter("server.http.parse_errors").unwrap_or(0) + 1,
            "exactly the garbage half is a parse error"
        );
    }

    // The pool survived all of it: a healthy request decodes fine.
    let body = r#"{"dataset":"tiny","episode_len":3,"seed":1}"#;
    let raw = format!(
        "POST /v1/notebook HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let (status, response) = exchange(addr, raw.as_bytes()).expect("healthy request answered");
    assert_eq!(status, 200, "{response}");
    assert_eq!(telemetry.snapshot().counter("server.pool.panics"), None);

    handle.shutdown();
}

/// A slow-loris client dribbling one header byte per tick resets the
/// kernel's per-read timer every time — only the per-request deadline
/// can stop it. The server must cut the connection within
/// `request_timeout` (+ grace), and keep serving everyone else while
/// the dribble is in flight.
#[test]
fn slow_loris_dribble_is_cut_at_the_request_deadline() {
    let request_timeout = Duration::from_millis(600);
    let (handle, addr, telemetry) = spawn_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_size: 4,
        request_timeout,
        ..Default::default()
    });

    let started = Instant::now();
    let loris = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        stream
            .write_all(b"POST /v1/notebook HTTP/1.1\r\nHost: t\r\nX-Dribble: ")
            .unwrap();
        // One byte per 100 ms: each socket read is "fast", so only the
        // request deadline can end this.
        let mut cut = None;
        for _ in 0..200 {
            std::thread::sleep(Duration::from_millis(100));
            let write_dead = stream.write_all(b"a").is_err();
            let mut chunk = [0u8; 1024];
            let read_dead = match stream.read(&mut chunk) {
                Ok(0) => true,
                Ok(_) => false, // 408 bytes arriving
                Err(e) => !matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ),
            };
            if write_dead || read_dead {
                cut = Some(started.elapsed());
                break;
            }
        }
        cut
    });

    // While the dribble is in flight, healthy clients are unaffected.
    let body = r#"{"dataset":"tiny","episode_len":3,"seed":2}"#;
    let raw = format!(
        "POST /v1/notebook HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let (status, _) = exchange(addr, raw.as_bytes()).expect("healthy request during dribble");
    assert_eq!(status, 200);

    let cut = loris
        .join()
        .unwrap()
        .expect("server never cut the dribbling client");
    assert!(
        cut <= request_timeout + Duration::from_secs(2),
        "slow loris held its worker for {cut:?} (deadline {request_timeout:?})"
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
        let engine = Engine::new(bundle.clone(), base()).unwrap();
        let telemetry = Arc::new(atena_telemetry::MetricsRegistry::new());
        let server = Server::bind_with_telemetry(
            ServerConfig {
                addr: "127.0.0.1:0".into(),
                workers: 8,
                cache_size: 0, // every request decodes through the batcher
                max_batch,
                batch_window: Duration::from_millis(2),
                ..Default::default()
            },
            engine,
            Arc::clone(&telemetry),
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        (server.spawn().unwrap(), addr, telemetry)
    };
    let (serial_handle, serial_addr, _) = spawn(1);
    let (batched_handle, batched_addr, batched_telemetry) = spawn(4);

    let request_for = |seed: u64| {
        let body = format!(r#"{{"dataset":"tiny","episode_len":6,"seed":{seed}}}"#);
        format!(
            "POST /v1/notebook HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
    };

    // Reference bytes from the serial server.
    let seeds: Vec<u64> = (0..6).collect();
    let reference: Vec<String> = seeds
        .iter()
        .map(|&s| {
            let (status, body) = exchange(serial_addr, request_for(s).as_bytes()).unwrap();
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
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(batched_addr).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(20)))
                    .unwrap();
                stream.write_all(request_for(s).as_bytes()).unwrap();
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
    let (status, body) = exchange(batched_addr, request_for(victim_seed).as_bytes()).unwrap();
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
