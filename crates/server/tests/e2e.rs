//! End-to-end serving test over real sockets: train a tiny policy, bundle
//! it through a file (the checkpoint the CLI would produce), start the
//! server on an ephemeral port, hammer it with concurrent clients, and
//! check response identity, cache behaviour, metrics, and graceful
//! shutdown.

use atena_core::PolicyBundle;
use atena_dataframe::DataFrame;
use atena_registry::{dataset_id_for_fingerprint, RegistryConfig, TenantLimits};
use atena_server::{Engine, Server, ServerConfig};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

mod common;

use common::{
    base, connect, header, http_request, metrics, read_response, request_with, tiny_bundle,
};

fn post_notebook(addr: SocketAddr, body: &str) -> common::Response {
    request_with(
        addr,
        "POST",
        "/v1/notebook",
        &[("Content-Type", "application/json")],
        body,
    )
}

/// The shared reader returns a frame only once the whole head and every
/// `Content-Length` body byte are in; a head without the header has an
/// empty body.
#[test]
fn response_parser_handles_split_and_complete_frames() {
    use common::try_parse_response;
    let (status, _, body) =
        try_parse_response(b"HTTP/1.1 404 Not Found\r\nContent-Length: 5\r\n\r\nhello").unwrap();
    assert_eq!((status, body.as_str()), (404, "hello"));
    // Body not yet complete: keep reading.
    assert_eq!(
        try_parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhel"),
        None
    );
    // No blank line yet: keep reading.
    assert_eq!(try_parse_response(b"HTTP/1.1 200 OK\r\n"), None);
    // No Content-Length: an empty body.
    let (status, _, body) = try_parse_response(b"HTTP/1.1 204 No Content\r\n\r\n").unwrap();
    assert_eq!((status, body.as_str()), (204, ""));
}

/// The shared reader waits for every body byte: a read that ends inside
/// a multi-byte character is an incomplete body, not a replacement
/// character or a char-boundary panic.
#[test]
fn response_parser_waits_for_split_utf8_bodies() {
    use common::try_parse_response;
    assert_eq!(
        try_parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\na\xC3"),
        None
    );
    assert_eq!(
        try_parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nab\xE2\x82"),
        None
    );
    let (status, headers, body) =
        try_parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nab\xE2\x82\xAC").unwrap();
    assert_eq!((status, body.as_str()), (200, "ab\u{20AC}"));
    assert_eq!(header(&headers, "content-length"), Some("5"));
}

#[test]
fn checkpoint_serve_concurrent_cache_metrics_shutdown() {
    // 1. Produce a server-loadable checkpoint through the filesystem, as
    //    `atena checkpoint save` would.
    let dir = std::env::temp_dir().join("atena-server-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("tiny.ckpt.json");
    tiny_bundle().save(&ckpt).unwrap();

    // 2. Load it back and serve on an ephemeral port with an isolated
    //    metrics registry.
    let bundle = PolicyBundle::load(&ckpt).unwrap();
    let engine = Engine::new(bundle, base()).unwrap();
    let telemetry = Arc::new(atena_telemetry::MetricsRegistry::new());
    let server = Server::bind_with_telemetry(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 3,
            cache_size: 16,
            ..Default::default()
        },
        engine,
        Arc::clone(&telemetry),
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.spawn().unwrap();

    // 3. Health check.
    let (status, _, body) = http_request(
        addr,
        "GET /v1/healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 200, "{body}");
    let health: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(health["status"].as_str(), Some("ok"));
    assert_eq!(health["dataset"].as_str(), Some("tiny"));

    // 4. Concurrent identical requests over real sockets: every client must
    //    get a 200 with the same notebook JSON.
    let request_body = r#"{"dataset":"tiny","episode_len":3,"seed":5}"#;
    let clients: Vec<_> = (0..6)
        .map(|_| {
            std::thread::spawn(move || {
                let (status, headers, body) = post_notebook(addr, request_body);
                let cache = header(&headers, "x-atena-cache").unwrap_or("?").to_string();
                (status, cache, body)
            })
        })
        .collect();
    let results: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    let reference = &results[0].2;
    let parsed: serde_json::Value = serde_json::from_str(reference).unwrap();
    assert_eq!(parsed["dataset"].as_str(), Some("tiny"));
    assert_eq!(parsed["notebook"]["cells"].as_array().unwrap().len(), 3);
    for (status, cache, body) in &results {
        assert_eq!(*status, 200);
        assert!(cache == "hit" || cache == "miss", "cache header: {cache}");
        assert_eq!(body, reference, "divergent notebook across clients");
    }

    // 5. A repeat request is served from the cache.
    let (status, headers, body) = post_notebook(addr, request_body);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-atena-cache"), Some("hit"));
    assert_eq!(&body, reference);

    // 6. /v1/metrics reports the cache hit and nonzero latency samples.
    let metrics = metrics(addr);
    // 7 identical requests total (6 concurrent + 1 repeat). Concurrent
    // clients may race to a miss before the first insert lands, but the
    // sequential repeat is a guaranteed hit, every request is either a hit
    // or a miss, and only misses evaluate the policy.
    let hits = metrics["counters"]["server.cache.hits"].as_u64().unwrap();
    let misses = metrics["counters"]["server.cache.misses"].as_u64().unwrap();
    assert!(hits >= 1, "sequential repeat must hit the cache");
    assert!((1..=6).contains(&misses), "misses: {misses}");
    assert_eq!(hits + misses, 7);
    let latency = &metrics["histograms"]["server.http.latency_secs"];
    assert!(latency["count"].as_u64().unwrap() >= 8);
    assert!(latency["p95"].as_f64().unwrap() > 0.0);
    assert_eq!(
        metrics["histograms"]["server.notebook.decode_secs"]["count"].as_u64(),
        Some(misses),
        "only cache misses may evaluate the policy"
    );

    // 7. Error paths: wrong dataset → 404; bad JSON → 400; unknown route →
    //    404; wrong method → 405.
    let (status, _, body) = post_notebook(addr, r#"{"dataset":"flights1"}"#);
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("error"));
    let (status, _, _) = post_notebook(addr, "{nope");
    assert_eq!(status, 400);
    let (status, _, _) = post_notebook(addr, r#"{"episode_len":3}"#);
    assert_eq!(status, 400);
    let (status, _, _) = http_request(
        addr,
        "GET /nope HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 404);
    let (status, _, _) = http_request(
        addr,
        "GET /v1/notebook HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 405);

    // 8. Keep-alive: two requests on one connection.
    {
        let mut stream = connect(addr);
        stream
            .write_all(b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let (status, headers, _) = read_response(&mut stream).unwrap();
        assert_eq!(status, 200);
        assert_eq!(header(&headers, "connection"), Some("keep-alive"));
        stream
            .write_all(b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            .unwrap();
        let (status, headers, _) = read_response(&mut stream).unwrap();
        assert_eq!(status, 200);
        assert_eq!(header(&headers, "connection"), Some("close"));
    }

    // 9. Graceful shutdown: the handle drains and joins; afterwards the
    //    port stops accepting.
    handle.shutdown();
    std::thread::sleep(Duration::from_millis(50));
    let refused = TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err();
    assert!(refused, "listener still accepting after shutdown");
}

/// LRU semantics of the response cache over real sockets: exact eviction
/// order at capacity 2, monotone hit/miss counters, and byte-identical
/// responses before and after eviction. Also asserts the engine's display
/// cache (shared across requests) accumulates hits as decodes replay
/// operation paths, that `bind_with_telemetry` routes its `env.cache.*`
/// counters and the decode environments' `env.op.*` / `env.step_secs` to
/// the server's own registry, and that every request and every decode is
/// timed once.
#[test]
fn response_cache_lru_semantics_over_http() {
    let engine = Engine::new(tiny_bundle(), base()).unwrap();
    let telemetry = Arc::new(atena_telemetry::MetricsRegistry::new());
    let server = Server::bind_with_telemetry(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            cache_size: 2,
            ..Default::default()
        },
        engine,
        Arc::clone(&telemetry),
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.spawn().unwrap();

    let request = |seed: u64| -> (String, String) {
        let body = format!(r#"{{"dataset":"tiny","episode_len":3,"seed":{seed}}}"#);
        let (status, headers, body) = post_notebook(addr, &body);
        assert_eq!(status, 200, "{body}");
        (header(&headers, "x-atena-cache").unwrap().to_string(), body)
    };
    let counters = || -> (u64, u64, u64) {
        let m = metrics(addr);
        (
            m["counters"]["server.cache.hits"].as_u64().unwrap_or(0),
            m["counters"]["server.cache.misses"].as_u64().unwrap_or(0),
            m["counters"]["env.cache.hit"].as_u64().unwrap_or(0),
        )
    };

    // Scripted access pattern against a capacity-2 LRU. Each step encodes
    // the *exact* expected outcome, so any deviation from true
    // least-recently-used eviction (FIFO, random, MRU...) fails the test:
    //   seed 1 → miss             cache [1]
    //   seed 2 → miss             cache [2, 1]
    //   seed 1 → hit              cache [1, 2]   (1 refreshed to MRU)
    //   seed 3 → miss, evicts 2   cache [3, 1]   (2 was LRU, *not* 1)
    //   seed 2 → miss (evicted), evicts 1
    //   seed 1 → miss (evicted), evicts 3
    //   seed 1 → hit
    let script: &[(u64, &str)] = &[
        (1, "miss"),
        (2, "miss"),
        (1, "hit"),
        (3, "miss"),
        (2, "miss"),
        (1, "miss"),
        (1, "hit"),
    ];
    let mut first_response: std::collections::HashMap<u64, String> =
        std::collections::HashMap::new();
    let (mut prev_hits, mut prev_misses, mut prev_env_hits) = counters();
    assert_eq!((prev_hits, prev_misses), (0, 0));
    for (step, &(seed, expected)) in script.iter().enumerate() {
        let (cache, body) = request(seed);
        assert_eq!(
            cache, expected,
            "step {step}: seed {seed} expected {expected}"
        );
        // Responses are deterministic per seed: eviction and re-decode must
        // reproduce the evicted entry byte-for-byte.
        let reference = first_response.entry(seed).or_insert_with(|| body.clone());
        assert_eq!(
            &body, reference,
            "seed {seed} response changed at step {step}"
        );

        let (hits, misses, env_hits) = counters();
        assert!(
            hits >= prev_hits && misses >= prev_misses,
            "counters went backwards"
        );
        assert!(
            env_hits >= prev_env_hits,
            "display-cache hits went backwards"
        );
        assert_eq!(hits - prev_hits, u64::from(expected == "hit"));
        assert_eq!(misses - prev_misses, u64::from(expected == "miss"));
        (prev_hits, prev_misses, prev_env_hits) = (hits, misses, env_hits);
    }
    assert_eq!(prev_hits, 2);
    assert_eq!(prev_misses, 5);
    // Five decodes ran (one per response-cache miss); seeds 1 and 2 each
    // decoded more than once, replaying their operation paths out of the
    // shared display cache.
    assert!(
        prev_env_hits > 0,
        "repeated decodes produced no display-cache hits"
    );
    let m = metrics(addr);
    let count = |name: &str| m["counters"][name].as_u64();
    let ops = ["env.op.filter", "env.op.group", "env.op.back"]
        .map(|name| count(name).unwrap_or(0))
        .iter()
        .sum::<u64>();
    assert_eq!(ops, 5 * 3, "one op per step of each 3-step decode");
    assert!(count("env.op.invalid").is_some());
    let histogram_count = |name: &str| m["histograms"][name]["count"].as_u64();
    assert_eq!(histogram_count("env.step_secs"), Some(5 * 3));
    assert_eq!(histogram_count("server.notebook.decode_secs"), Some(5));
    // This scrape is counted in `server.http.requests` before it is routed
    // and timed after its body is rendered.
    assert_eq!(
        histogram_count("server.http.latency_secs"),
        count("server.http.requests").map(|n| n - 1)
    );

    handle.shutdown();
}

/// The PR-6 observability surface over real sockets: per-request traces
/// (`X-Atena-Trace-Id`), the `/v1/debug/requests` ring with latency
/// breakdowns, Prometheus text exposition on `/v1/metrics`, and the
/// keep-alive-reuse / slow-request counters.
#[test]
fn tracing_debug_ring_and_prometheus_over_http() {
    let engine = Engine::new(tiny_bundle(), base()).unwrap();
    let telemetry = Arc::new(atena_telemetry::MetricsRegistry::new());
    let server = Server::bind_with_telemetry(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            cache_size: 4,
            // Zero threshold: every request counts as slow, making the
            // counter (and its WARN path) deterministic to assert.
            slow_threshold: Duration::ZERO,
            ..Default::default()
        },
        engine,
        Arc::clone(&telemetry),
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.spawn().unwrap();
    // The tracer is process-global (the server stamps trace ids either
    // way); enabling it here turns span recording on for this test's
    // requests. Tracing is execution-only, so concurrent tests are
    // unaffected beyond extra spans in the shared ring.
    let tracer = atena_telemetry::tracer();
    tracer.set_enabled(true);

    // 1. Every response carries a fresh 16-hex-digit trace id.
    let body = r#"{"dataset":"tiny","episode_len":3,"seed":42}"#;
    let (status, headers, _) = post_notebook(addr, body);
    assert_eq!(status, 200);
    let first_id = header(&headers, "x-atena-trace-id")
        .expect("trace header")
        .to_string();
    assert_eq!(first_id.len(), 16);
    assert!(first_id.chars().all(|c| c.is_ascii_hexdigit()));
    let (status, headers, _) = post_notebook(addr, body);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-atena-cache"), Some("hit"));
    let second_id = header(&headers, "x-atena-trace-id").unwrap();
    assert_ne!(first_id, second_id, "trace ids must be per-request");

    // 2. Keep-alive reuse is counted (two requests, one connection).
    {
        let mut stream = connect(addr);
        stream
            .write_all(b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        read_response(&mut stream).unwrap();
        stream
            .write_all(b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            .unwrap();
        read_response(&mut stream).unwrap();
    }
    let snap = telemetry.snapshot();
    assert!(
        snap.counter("server.conn.keepalive_reuse").unwrap_or(0) >= 1,
        "second request on one connection must count as reuse"
    );
    // Zero threshold: every request so far was slow.
    assert!(snap.counter("server.request.slow").unwrap_or(0) >= 4);

    // 3. Prometheus exposition: content type, # TYPE lines, histogram
    //    series, and the new counters exposed.
    let (status, headers, body) = http_request(
        addr,
        "GET /v1/metrics?format=prometheus HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 200);
    assert_eq!(
        header(&headers, "content-type"),
        Some("text/plain; version=0.0.4")
    );
    assert!(body.contains("# TYPE atena_server_http_requests counter"));
    assert!(body.contains("# TYPE atena_server_http_latency_secs histogram"));
    assert!(body.contains("atena_server_http_latency_secs_bucket{le=\"+Inf\"}"));
    assert!(body.contains("atena_server_request_slow"));
    assert!(body.contains("atena_server_conn_keepalive_reuse"));
    // JSON remains the default.
    let (_, headers, body) = http_request(
        addr,
        "GET /v1/metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(header(&headers, "content-type"), Some("application/json"));
    serde_json::from_str::<serde_json::Value>(&body).expect("JSON metrics stay valid");

    // 4. The debug ring: newest-first entries with identity and latency
    //    breakdown; the notebook miss shows decode time.
    let (status, _, body) = http_request(
        addr,
        "GET /v1/debug/requests HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 200);
    let debug: serde_json::Value = serde_json::from_str(&body).expect("debug JSON parses");
    assert_eq!(debug["tracing"]["enabled"].as_bool(), Some(true));
    assert!(debug["tracing"]["spans_recorded"].as_u64().unwrap() > 0);
    let requests = debug["requests"].as_array().unwrap();
    assert!(requests.len() >= 4, "ring should hold this test's requests");
    for r in requests {
        assert_eq!(r["trace_id"].as_str().unwrap().len(), 16);
        assert!(r["status"].as_u64().is_some());
        assert!(r["total_secs"].as_f64().unwrap() >= 0.0);
        assert!(r["read_secs"].as_f64().unwrap() >= 0.0);
    }
    let miss = requests
        .iter()
        .find(|r| r["cache"].as_str() == Some("miss"))
        .expect("the first notebook request was a miss");
    assert_eq!(miss["path"].as_str(), Some("/v1/notebook"));
    assert_eq!(miss["trace_id"].as_str(), Some(first_id.as_str()));
    assert!(miss["decode_secs"].as_f64().unwrap() > 0.0);
    let hit = requests
        .iter()
        .find(|r| r["cache"].as_str() == Some("hit"))
        .expect("the second notebook request was a hit");
    assert_eq!(hit["decode_secs"].as_f64(), Some(0.0));

    // 5. The span ring holds the request tree: a server.request root whose
    //    children include the decode with per-step nn.forward spans.
    let spans = tracer.snapshot();
    let root = spans
        .iter()
        .find(|s| {
            s.name == "server.request"
                && s.attrs.contains(&("path", "/v1/notebook".to_string()))
                && format!("{:016x}", s.trace_id) == first_id
        })
        .expect("root span for the first notebook request");
    let decode = spans
        .iter()
        .find(|s| s.trace_id == root.trace_id && s.name == "engine.decode")
        .expect("engine.decode child span");
    let forwards = spans
        .iter()
        .filter(|s| s.trace_id == root.trace_id && s.name == "nn.forward")
        .count();
    assert_eq!(forwards, 3, "one nn.forward per decoded cell");
    assert!(spans
        .iter()
        .any(|s| s.trace_id == root.trace_id && s.name == "cache.lookup"));
    assert!(decode.duration_secs > 0.0);

    handle.shutdown();
}

#[test]
fn oversized_body_rejected_over_socket() {
    let engine = Engine::new(tiny_bundle(), base()).unwrap();
    let telemetry = Arc::new(atena_telemetry::MetricsRegistry::new());
    let server = Server::bind_with_telemetry(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            cache_size: 4,
            max_body_bytes: 128,
            ..Default::default()
        },
        engine,
        telemetry,
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.spawn().unwrap();

    let big = "x".repeat(4096);
    let (status, _, body) = post_notebook(addr, &big);
    assert_eq!(status, 413, "{body}");

    // Missing Content-Length on POST → 411.
    let (status, _, _) = http_request(
        addr,
        "POST /v1/notebook HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 411);

    handle.shutdown();
}

/// Deleting a dataset purges its displays from the engine's display cache:
/// after a delete and a re-upload of the same bytes, the same notebook is
/// decoded from cold displays again, with as many `env.cache.miss`es as
/// its first decode, instead of from displays left behind by the delete.
#[test]
fn deleted_dataset_displays_are_purged_from_the_display_cache() {
    let engine = Engine::new(tiny_bundle(), base()).unwrap();
    let telemetry = Arc::new(atena_telemetry::MetricsRegistry::new());
    let server = Server::bind_with_telemetry(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            // No response cache: every notebook request decodes.
            cache_size: 0,
            ..Default::default()
        },
        engine,
        Arc::clone(&telemetry),
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.spawn().unwrap();

    let mut csv = String::from("proto,len\n");
    for i in 0..40 {
        let proto = if i % 3 == 0 { "udp" } else { "tcp" };
        csv.push_str(&format!("{proto},{}\n", i * 7 % 23));
    }
    let upload = || {
        let (status, _, body) = request_with(addr, "POST", "/v1/datasets?name=purge", &[], &csv);
        assert_eq!(status, 201, "{body}");
        let uploaded: serde_json::Value = serde_json::from_str(&body).unwrap();
        uploaded["dataset"]["dataset_id"]
            .as_str()
            .unwrap()
            .to_string()
    };
    let misses = || telemetry.snapshot().counter("env.cache.miss").unwrap_or(0);
    // The env.cache.miss count one decode of the uploaded dataset adds.
    let decode_misses = |id: &str, expected: Option<&str>| {
        let before = misses();
        let request = format!(r#"{{"dataset_id":"{id}","episode_len":6,"seed":3}}"#);
        let (status, _, body) = post_notebook(addr, &request);
        assert_eq!(status, 200, "{body}");
        if let Some(expected) = expected {
            assert_eq!(body, expected, "decodes are deterministic");
        }
        (misses() - before, body)
    };

    let id = upload();
    let (cold, notebook) = decode_misses(&id, None);
    let (warm, _) = decode_misses(&id, Some(&notebook));
    assert!(
        warm < cold,
        "a warm decode hits cached displays: {warm} vs {cold}"
    );

    let (status, _, body) = request_with(addr, "DELETE", &format!("/v1/datasets/{id}"), &[], "");
    assert_eq!(status, 200, "{body}");
    assert_eq!(upload(), id, "the same bytes get the same id");
    let (after_delete, _) = decode_misses(&id, Some(&notebook));
    assert_eq!(
        after_delete, cold,
        "the delete purged every display of the dataset"
    );
    handle.shutdown();
}

/// The full multi-tenant dataset lifecycle over real sockets: upload with
/// schema echo, cross-tenant dedup, notebook decode against the uploaded
/// dataset byte-identical to an offline decode from the same CSV, delete,
/// and 404 afterwards. Also covers the pinned baked-in dataset (listed,
/// resolvable by id, undeletable) and incompatible-shape uploads (→ 409
/// on decode).
#[test]
fn dataset_upload_notebook_delete_lifecycle_over_http() {
    let bundle = tiny_bundle();
    // A sibling engine decodes the same CSV offline for the byte-identity
    // check; the server gets its own engine from the same bundle.
    let offline = Engine::new(bundle.clone(), base()).unwrap();
    let engine = Engine::new(bundle, base()).unwrap();
    let telemetry = Arc::new(atena_telemetry::MetricsRegistry::new());
    let server = Server::bind_with_telemetry(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 3,
            cache_size: 16,
            ..Default::default()
        },
        engine,
        Arc::clone(&telemetry),
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.spawn().unwrap();

    // 1. Upload a two-column CSV (same shape as the policy's dataset, so
    //    it is decodable). 201 Created with metadata + schema.
    let mut csv = String::from("proto,len\n");
    for i in 0..40 {
        csv.push_str(&format!(
            "{},{}\n",
            if i % 3 == 0 { "udp" } else { "tcp" },
            i * 7 % 23
        ));
    }
    let (status, _, body) = request_with(
        addr,
        "POST",
        "/v1/datasets?name=mycsv",
        &[("X-Atena-Tenant", "alice")],
        &csv,
    );
    assert_eq!(status, 201, "{body}");
    let uploaded: serde_json::Value = serde_json::from_str(&body).unwrap();
    let id = uploaded["dataset"]["dataset_id"]
        .as_str()
        .unwrap()
        .to_string();
    assert!(id.starts_with("ds-") && id.len() == 19, "id: {id}");
    // The fingerprint is a string of the same 16 hex digits.
    assert_eq!(uploaded["dataset"]["fingerprint"].as_str(), Some(&id[3..]));
    assert_eq!(uploaded["dataset"]["name"].as_str(), Some("mycsv"));
    assert_eq!(uploaded["dataset"]["rows"].as_u64(), Some(40));
    assert_eq!(uploaded["dataset"]["cols"].as_u64(), Some(2));
    assert_eq!(uploaded["deduplicated"].as_bool(), Some(false));
    assert_eq!(uploaded["policy_compatible"].as_bool(), Some(true));
    let schema = uploaded["schema"].as_array().unwrap();
    assert_eq!(schema.len(), 2);
    assert_eq!(schema[0]["name"].as_str(), Some("proto"));
    assert_eq!(schema[0]["dtype"].as_str(), Some("str"));
    assert_eq!(schema[1]["name"].as_str(), Some("len"));
    assert_eq!(schema[1]["dtype"].as_str(), Some("int"));
    assert!(
        schema.iter().all(|c| c["role"].as_str().is_some()),
        "{schema:?}"
    );

    // 2. A second tenant uploading identical bytes dedups onto the same
    //    entry: 200 (not 201), same id, both tenants recorded.
    let (status, _, body) = request_with(
        addr,
        "POST",
        "/v1/datasets?name=other-name",
        &[("X-Atena-Tenant", "bob")],
        &csv,
    );
    assert_eq!(status, 200, "{body}");
    let dedup: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(dedup["deduplicated"].as_bool(), Some(true));
    assert_eq!(dedup["dataset"]["dataset_id"].as_str(), Some(id.as_str()));
    let tenants = dedup["dataset"]["tenants"].as_array().unwrap();
    assert_eq!(tenants.len(), 2, "alice and bob both own the entry");

    // 3. The listing shows the pinned baked-in dataset and the upload.
    let (status, _, body) = http_request(
        addr,
        "GET /v1/datasets HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 200);
    let listing: serde_json::Value = serde_json::from_str(&body).unwrap();
    let datasets = listing["datasets"].as_array().unwrap();
    assert_eq!(datasets.len(), 2);
    let pinned_id = dataset_id_for_fingerprint(base().fingerprint());
    assert!(datasets.iter().any(|d| {
        d["dataset_id"].as_str() == Some(pinned_id.as_str()) && d["pinned"].as_bool() == Some(true)
    }));
    assert!(datasets
        .iter()
        .any(|d| d["dataset_id"].as_str() == Some(id.as_str())));

    // 4. Decode a notebook against the uploaded dataset, and check it is
    //    byte-identical to an offline decode from the same CSV bytes.
    let request_body = format!(r#"{{"dataset_id":"{id}","episode_len":3,"seed":7}}"#);
    let (status, headers, served) = request_with(
        addr,
        "POST",
        "/v1/notebook",
        &[
            ("X-Atena-Tenant", "alice"),
            ("Content-Type", "application/json"),
        ],
        &request_body,
    );
    assert_eq!(status, 200, "{served}");
    assert_eq!(header(&headers, "x-atena-cache"), Some("miss"));
    let frame = Arc::new(DataFrame::from_csv_str(&csv).unwrap());
    let validated = offline
        .validate_for_frame("mycsv", &frame, Some(3), Some(7))
        .unwrap();
    let expected =
        serde_json::to_string(&offline.decode_with_frame(&frame, &validated, None).unwrap())
            .unwrap();
    assert_eq!(
        served, expected,
        "served notebook differs from offline decode"
    );

    // 5. Repeat request: response-cache hit, still byte-identical.
    let (status, headers, again) = request_with(
        addr,
        "POST",
        "/v1/notebook",
        &[("Content-Type", "application/json")],
        &request_body,
    );
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-atena-cache"), Some("hit"));
    assert_eq!(again, expected);

    // 6. The baked-in dataset stays addressable both ways: by name and by
    //    its pinned dataset id, producing the same notebook bytes.
    let by_name = post_notebook(addr, r#"{"dataset":"tiny","episode_len":3,"seed":5}"#).2;
    let by_id_body =
        format!(r#"{{"dataset_id":"{pinned_id}","dataset":"tiny","episode_len":3,"seed":5}}"#);
    let by_id = request_with(addr, "POST", "/v1/notebook", &[], &by_id_body).2;
    assert_eq!(by_name, by_id);

    // 7. An incompatible upload (three columns: observation shape differs)
    //    is accepted into the registry but flagged, and decoding → 409.
    let bad = "a,b,c\n1,2,3\n4,5,6\n";
    let (status, _, body) = request_with(addr, "POST", "/v1/datasets", &[], bad);
    assert_eq!(status, 201, "{body}");
    let incompatible: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(incompatible["policy_compatible"].as_bool(), Some(false));
    let bad_id = incompatible["dataset"]["dataset_id"].as_str().unwrap();
    let (status, _, body) = request_with(
        addr,
        "POST",
        "/v1/notebook",
        &[],
        &format!(r#"{{"dataset_id":"{bad_id}"}}"#),
    );
    assert_eq!(status, 409, "{body}");

    // 8. GET one dataset; DELETE it; both then 404. The pinned dataset
    //    refuses deletion with 409.
    let target = format!("/v1/datasets/{id}");
    let (status, _, _) = request_with(addr, "GET", &target, &[], "");
    assert_eq!(status, 200);
    let (status, _, body) = request_with(addr, "DELETE", &target, &[], "");
    assert_eq!(status, 200, "{body}");
    let (status, _, _) = request_with(addr, "GET", &target, &[], "");
    assert_eq!(status, 404);
    let (status, _, body) = request_with(addr, "POST", "/v1/notebook", &[], &request_body);
    assert_eq!(status, 404, "deleted dataset must not decode: {body}");
    let (status, _, _) = request_with(
        addr,
        "DELETE",
        &format!("/v1/datasets/{pinned_id}"),
        &[],
        "",
    );
    assert_eq!(status, 409);
    let (status, _, _) = request_with(addr, "GET", "/v1/datasets/ds-0000000000000000", &[], "");
    assert_eq!(status, 404);

    // 9. Wrong methods get 405 with a truthful Allow header.
    for (method, target, allow) in [
        ("DELETE", "/v1/datasets", "GET, POST"),
        ("POST", "/v1/datasets/ds-0000000000000000", "GET, DELETE"),
        ("GET", "/v1/notebook", "POST"),
        ("POST", "/v1/healthz", "GET"),
    ] {
        let (status, headers, _) = request_with(addr, method, target, &[], "");
        assert_eq!(status, 405, "{method} {target}");
        assert_eq!(header(&headers, "allow"), Some(allow), "{method} {target}");
    }

    // 10. Registry counters on /v1/metrics reflect the session and the
    //     healthz document reports registry occupancy.
    let m = metrics(addr);
    assert_eq!(m["counters"]["registry.uploads"].as_u64(), Some(3));
    assert_eq!(m["counters"]["registry.dedup_hits"].as_u64(), Some(1));
    assert_eq!(m["counters"]["registry.deletes"].as_u64(), Some(1));
    assert!(m["counters"]["admission.accepted"].as_u64().unwrap() >= 5);
    let (status, _, body) = http_request(
        addr,
        "GET /v1/healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 200);
    let health: serde_json::Value = serde_json::from_str(&body).unwrap();
    // The pinned dataset and the (still-resident) incompatible upload.
    assert_eq!(health["registry"]["datasets"].as_u64(), Some(2));

    // 11. Names that need JSON escapes come back unchanged from every
    //     dataset reply: a column named with `"`, `\` and U+0001, one with
    //     a combining U+0301, and a dataset name with `"` and `\`.
    let columns = ["q\"uote\\back\u{1}slash", "cafe\u{301}"];
    let name = "we\"ird\\name";
    let odd_csv = "\"q\"\"uote\\back\u{1}slash\",cafe\u{301}\n1,2\n3,4\n";
    let (status, _, body) = request_with(
        addr,
        "POST",
        "/v1/datasets",
        &[("X-Atena-Dataset-Name", name)],
        odd_csv,
    );
    assert_eq!(status, 201, "{body}");
    let uploaded: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(uploaded["dataset"]["name"], name);
    let schema = uploaded["schema"].as_array().unwrap();
    let names: Vec<&str> = schema.iter().map(|c| c["name"].as_str().unwrap()).collect();
    assert_eq!(names, columns);
    let odd_id = uploaded["dataset"]["dataset_id"].as_str().unwrap();
    let target = format!("/v1/datasets/{odd_id}");
    let (status, _, body) = request_with(addr, "GET", &target, &[], "");
    assert_eq!(status, 200, "{body}");
    let one: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(one["name"], name);
    let (status, _, body) = request_with(addr, "GET", "/v1/datasets", &[], "");
    assert_eq!(status, 200, "{body}");
    let listing: serde_json::Value = serde_json::from_str(&body).unwrap();
    let listed = listing["datasets"].as_array().unwrap();
    assert!(
        listed
            .iter()
            .any(|d| d["dataset_id"] == odd_id && d["name"] == name),
        "{body}"
    );
    let (status, _, body) = request_with(addr, "DELETE", &target, &[], "");
    assert_eq!(status, 200, "{body}");
    let deleted: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(deleted["name"], name);

    handle.shutdown();
}

/// Upload-path guardrails over real sockets: per-route body caps checked
/// against Content-Length before buffering, chunked uploads refused with a
/// deterministic 501, malformed CSV → 400, tenant byte quota → 429, and
/// LRU eviction under a small byte budget with monotone counters.
#[test]
fn upload_limits_eviction_and_chunked_over_socket() {
    let engine = Engine::new(tiny_bundle(), base()).unwrap();
    let telemetry = Arc::new(atena_telemetry::MetricsRegistry::new());
    let registry = RegistryConfig {
        // Roughly two small uploads' worth of resident bytes (each test
        // upload below occupies ~1.4 KB), and a tenant quota of one.
        budget_bytes: 3000,
        max_datasets: 8,
        tenant_quota_bytes: 2000,
        limits: atena_dataframe::CsvLimits {
            max_bytes: 4096,
            max_rows: 10_000,
            max_cols: 16,
        },
    };
    let server = Server::bind_with_telemetry(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            cache_size: 4,
            registry,
            ..Default::default()
        },
        engine,
        Arc::clone(&telemetry),
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.spawn().unwrap();

    // 1. A Content-Length far past the upload cap is refused from the
    //    declared length alone — no body bytes are sent, so a 413 here
    //    proves nothing was buffered.
    let (status, _, _) = http_request(
        addr,
        "POST /v1/datasets HTTP/1.1\r\nHost: t\r\nContent-Length: 2147483648\r\n\
         Connection: close\r\n\r\n",
    );
    assert_eq!(status, 413);

    // 2. The same oversized length on /v1/notebook also 413s (default
    //    cap), while a body over the upload cap but under the default cap
    //    is only rejected on the upload route.
    let mid = format!("a,b\n{}", "x,1\n".repeat(2000)); // ~8 KB
    let (status, _, _) = request_with(addr, "POST", "/v1/datasets", &[], &mid);
    assert_eq!(status, 413, "upload route enforces the registry cap");
    let (status, _, _) = request_with(addr, "POST", "/v1/notebook", &[], &mid);
    assert_eq!(status, 400, "notebook route keeps the larger default cap");

    // 3. Chunked transfer encoding: deterministic 501, never a hang.
    let (status, _, body) = http_request(
        addr,
        "POST /v1/datasets HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\
         Connection: close\r\n\r\n5\r\na,b\n1\r\n0\r\n\r\n",
    );
    assert_eq!(status, 501, "{body}");

    // 4. Malformed CSV (ragged row) → 400 with the physical line number.
    let (status, _, body) = request_with(addr, "POST", "/v1/datasets", &[], "a,b\n1,2\n3\n");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("line 3"), "{body}");

    // 5. Three distinct uploads under a two-dataset budget: the least
    //    recently used entry is evicted, the others stay resident.
    let csv_for = |tag: u32| {
        let mut csv = String::from("k,v\n");
        for r in 0..40 {
            csv.push_str(&format!("row{tag}_{r},{r}\n"));
        }
        csv
    };
    let mut ids = Vec::new();
    for (tenant, tag) in [("t1", 1u32), ("t2", 2), ("t3", 3)] {
        let (status, _, body) = request_with(
            addr,
            "POST",
            "/v1/datasets",
            &[("X-Atena-Tenant", tenant)],
            &csv_for(tag),
        );
        assert_eq!(status, 201, "{body}");
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        ids.push(v["dataset"]["dataset_id"].as_str().unwrap().to_string());
    }
    let (status, _, _) = request_with(addr, "GET", &format!("/v1/datasets/{}", ids[0]), &[], "");
    assert_eq!(status, 404, "oldest upload must have been evicted");
    for id in &ids[1..] {
        let (status, _, _) = request_with(addr, "GET", &format!("/v1/datasets/{id}"), &[], "");
        assert_eq!(status, 200, "{id} should still be resident");
    }
    let m = metrics(addr);
    assert!(m["counters"]["registry.evictions"].as_u64().unwrap() >= 1);
    assert_eq!(m["counters"]["registry.uploads"].as_u64(), Some(3));
    let budget = m["gauges"]["registry.bytes"].as_f64().unwrap();
    assert!(budget > 0.0);

    // 6. A tenant at its byte quota gets 429 + Retry-After; the bytes it
    //    already owns are the reason, so another tenant still succeeds.
    let (status, _, body) = request_with(
        addr,
        "POST",
        "/v1/datasets",
        &[("X-Atena-Tenant", "t3")],
        &csv_for(4),
    );
    assert_eq!(status, 429, "t3 already owns a resident dataset: {body}");
    let (status, headers, body) = request_with(
        addr,
        "POST",
        "/v1/datasets",
        &[("X-Atena-Tenant", "fresh")],
        &csv_for(4),
    );
    // The quota rejection must carry a Retry-After; the fresh tenant's
    // upload goes through (evicting under the byte budget as needed).
    assert_eq!(status, 201, "{body}");
    assert!(header(&headers, "retry-after").is_none());
    let m = metrics(addr);
    assert!(m["counters"]["registry.ingest.rejected"].as_u64().unwrap() >= 1);

    handle.shutdown();
}

/// Per-tenant admission control: a hog tenant saturating its in-flight
/// cap collects 429s with `Retry-After`, while a quiet tenant's requests
/// keep succeeding throughout the storm. Read-only endpoints are exempt.
#[test]
fn tenant_admission_throttles_hog_not_others() {
    let engine = Engine::new(tiny_bundle(), base()).unwrap();
    let telemetry = Arc::new(atena_telemetry::MetricsRegistry::new());
    let server = Server::bind_with_telemetry(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            // No response cache: every request decodes, keeping workers
            // busy long enough for in-flight requests to overlap.
            cache_size: 0,
            tenant_limits: TenantLimits {
                max_inflight: 1,
                retry_after_secs: 3,
            },
            ..Default::default()
        },
        engine,
        Arc::clone(&telemetry),
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.spawn().unwrap();

    // 12 concurrent decodes from one tenant against an in-flight cap of 1:
    // overlapping requests are told to back off.
    let hogs: Vec<_> = (0..12)
        .map(|seed| {
            std::thread::spawn(move || {
                let body = format!(r#"{{"dataset":"tiny","episode_len":16,"seed":{seed}}}"#);
                request_with(
                    addr,
                    "POST",
                    "/v1/notebook",
                    &[("X-Atena-Tenant", "hog")],
                    &body,
                )
            })
        })
        .collect();
    // While the storm runs, the quiet tenant (sequential, so never over
    // its own cap) must keep getting answers.
    let mut quiet_ok = 0;
    for seed in 100..103 {
        let body = format!(r#"{{"dataset":"tiny","episode_len":8,"seed":{seed}}}"#);
        let (status, _, b) = request_with(
            addr,
            "POST",
            "/v1/notebook",
            &[("X-Atena-Tenant", "quiet")],
            &body,
        );
        assert_eq!(status, 200, "quiet tenant throttled: {b}");
        quiet_ok += 1;
    }
    assert_eq!(quiet_ok, 3);

    let mut ok = 0;
    let mut throttled = 0;
    for h in hogs {
        let (status, headers, body) = h.join().unwrap();
        match status {
            200 => ok += 1,
            429 => {
                throttled += 1;
                assert_eq!(header(&headers, "retry-after"), Some("3"), "{body}");
            }
            other => panic!("unexpected status {other}: {body}"),
        }
    }
    assert!(ok >= 1, "at least the permit holder must succeed");
    assert!(
        throttled >= 1,
        "12 concurrent decodes at cap 1 must overlap at least once"
    );

    // Read-only endpoints are exempt from admission even for the hog.
    let (status, _, _) = request_with(
        addr,
        "GET",
        "/v1/datasets",
        &[("X-Atena-Tenant", "hog")],
        "",
    );
    assert_eq!(status, 200);

    let m = metrics(addr);
    assert_eq!(
        m["counters"]["admission.rejected"].as_u64(),
        Some(throttled as u64)
    );
    assert!(m["counters"]["server.http.throttled"].as_u64().unwrap() >= 1);

    handle.shutdown();
}

#[test]
fn idle_shutdown_is_prompt() {
    // The accept loop blocks in accept(2) with no polling; shutdown must
    // wake it with a self-connect rather than waiting for a client. If the
    // wake were lost, handle.shutdown() would join forever.
    let engine = Engine::new(tiny_bundle(), base()).unwrap();
    let telemetry = Arc::new(atena_telemetry::MetricsRegistry::new());
    let server = Server::bind_with_telemetry(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            cache_size: 4,
            ..Default::default()
        },
        engine,
        telemetry,
    )
    .unwrap();
    let handle = server.spawn().unwrap();
    // Let the loop reach its blocking accept with zero traffic.
    std::thread::sleep(Duration::from_millis(50));
    let start = std::time::Instant::now();
    handle.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "idle shutdown took {:?}",
        start.elapsed()
    );
}
