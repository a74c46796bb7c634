//! The `atena` binary end to end, for what only the process shows: serve
//! flags taking effect, the `listening on` line, a SIGTERM drain ending in
//! `shut down gracefully`, `datasets inspect` agreeing with the server,
//! registry series in the Prometheus view, and the telemetry and trace
//! files of a training run. Request-level behaviour is the server's own
//! socket tests' business (`crates/server/tests`).

use serde_json::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const ATENA: &str = env!("CARGO_BIN_EXE_atena");

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("atena-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn path(p: &std::path::Path) -> &str {
    p.to_str().unwrap()
}

/// Run `atena args` to completion and return its stdout; panics with its
/// stderr unless it exits 0.
fn atena(args: &[&str]) -> String {
    let out = Command::new(ATENA).args(args).output().unwrap();
    assert!(
        out.status.success(),
        "atena {args:?} exited {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// One exchange of `raw` on a fresh connection the server closes after
/// answering: `(status, head, body)`.
fn exchange(addr: SocketAddr, raw: &[u8]) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let _ = stream.write_all(raw);
    let mut bytes = Vec::new();
    let mut chunk = [0u8; 8192];
    // A reset after the answer (an undrained body) ends the read too.
    loop {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => bytes.extend_from_slice(&chunk[..n]),
        }
    }
    let text = String::from_utf8_lossy(&bytes);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no response head in {text:?}"));
    let status = head.split(' ').nth(1).and_then(|s| s.parse().ok()).unwrap();
    (status, head.to_ascii_lowercase(), body.to_string())
}

/// A `Connection: close` request with `Content-Length` framing.
fn request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> (u16, String, String) {
    let mut raw = format!("{method} {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n");
    for (n, v) in headers {
        raw.push_str(&format!("{n}: {v}\r\n"));
    }
    raw.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
    exchange(addr, raw.as_bytes())
}

fn json(body: &str) -> Value {
    serde_json::from_str(body).unwrap_or_else(|e| panic!("{e}: {body}"))
}

/// A served process, killed if the test fails before it drains.
struct Served(Child);

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn serve_binary_applies_its_flags_and_drains_on_sigterm() {
    let dir = scratch_dir("serve");
    let ckpt = dir.join("cyber2.ckpt.json");
    atena(&[
        "checkpoint",
        "save",
        "cyber2",
        "--out",
        path(&ckpt),
        "--steps",
        "150",
        "--episode-len",
        "4",
    ]);
    // Upload fixtures: Cyber #2 less its last row (a new dataset, not a
    // dedup hit on the baked-in one), and three Cyber #1-sized CSVs
    // (≈0.9 MiB resident each): two fit a 2 MiB registry budget but not
    // a 1 MiB tenant quota, and a third forces an eviction.
    let without_last_row = |csv: &str| {
        let mut lines: Vec<&str> = csv.lines().collect();
        lines.pop();
        lines.join("\n") + "\n"
    };
    let alice_csv = dir.join("alice.csv");
    let cyber1_csv = dir.join("cyber1.csv");
    atena(&["export", "cyber2", path(&alice_csv)]);
    atena(&["export", "cyber1", path(&cyber1_csv)]);
    let alice = without_last_row(&std::fs::read_to_string(&alice_csv).unwrap());
    std::fs::write(&alice_csv, &alice).unwrap();
    let big1 = std::fs::read_to_string(&cyber1_csv).unwrap();
    let big2 = without_last_row(&big1);
    let big3 = without_last_row(&big2);

    let traces = dir.join("serve-traces.jsonl");
    let log = dir.join("serve.log");
    let mut served = Served(
        Command::new(ATENA)
            .args([
                "serve",
                "--checkpoint",
                path(&ckpt),
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "4",
                "--cache-size",
                "0",
                "--slow-ms",
                "0",
                "--timeout-ms",
                "500",
                "--trace-out",
                path(&traces),
                "--registry-budget-mb",
                "2",
                "--upload-max-mb",
                "1",
                "--tenant-max-inflight",
                "1",
                "--tenant-quota-mb",
                "1",
            ])
            .stdout(Stdio::piped())
            .stderr(std::fs::File::create(&log).unwrap())
            .spawn()
            .unwrap(),
    );
    let mut stdout = BufReader::new(served.0.stdout.take().unwrap());
    let addr: SocketAddr = loop {
        let mut line = String::new();
        assert!(
            stdout.read_line(&mut line).unwrap() > 0,
            "serve exited before listening: {}",
            std::fs::read_to_string(&log).unwrap()
        );
        if let Some(addr) = line.trim().strip_prefix("listening on ") {
            break addr.parse().unwrap();
        }
    };

    // --cache-size 0: the same request twice decodes twice.
    let notebook = r#"{"dataset":"cyber2","episode_len":3,"seed":1}"#;
    for _ in 0..2 {
        let (status, head, body) = request(addr, "POST", "/v1/notebook", &[], notebook);
        assert_eq!(status, 200, "{body}");
        assert!(head.contains("x-atena-cache: miss"), "{head}");
        assert_eq!(
            json(&body)["notebook"]["cells"].as_array().unwrap().len(),
            3
        );
    }

    // `datasets inspect` prints the id the server assigns the same bytes.
    let (status, _, body) = request(
        addr,
        "POST",
        "/v1/datasets?name=alice-csv",
        &[("X-Atena-Tenant", "alice")],
        &alice,
    );
    assert_eq!(status, 201, "{body}");
    let alice_id = json(&body)["dataset"]["dataset_id"]
        .as_str()
        .unwrap()
        .to_string();
    let inspect = atena(&["datasets", "inspect", path(&alice_csv)]);
    assert!(inspect.contains(&alice_id), "{alice_id} not in {inspect}");

    // --tenant-quota-mb 1: carol cannot hold two Cyber #1 copies.
    let upload = |tenant: &str, csv: &str| {
        request(
            addr,
            "POST",
            "/v1/datasets",
            &[("X-Atena-Tenant", tenant)],
            csv,
        )
    };
    let (status, _, body) = upload("carol", &big1);
    assert_eq!(status, 201, "{body}");
    let big1_id = json(&body)["dataset"]["dataset_id"]
        .as_str()
        .unwrap()
        .to_string();
    let (status, _, body) = upload("carol", &big2);
    assert_eq!(status, 429, "carol is at her 1 MiB quota: {body}");
    // --registry-budget-mb 2: a second tenant's copy fits beside carol's;
    // a third copy evicts the least recently used ones.
    for (tenant, csv) in [("dave", &big2), ("erin", &big3)] {
        let (status, _, body) = upload(tenant, csv);
        assert_eq!(status, 201, "{body}");
    }
    let (status, _, _) = request(addr, "GET", &format!("/v1/datasets/{big1_id}"), &[], "");
    assert_eq!(
        status, 404,
        "the least recently used upload must be evicted"
    );
    let (_, _, body) = request(addr, "GET", "/v1/datasets", &[], "");
    let listing = json(&body);
    assert_eq!(listing["budget_bytes"].as_u64(), Some(2 << 20));
    let pinned: Vec<&Value> = listing["datasets"]
        .as_array()
        .unwrap()
        .iter()
        .filter(|d| d["pinned"].as_bool() == Some(true))
        .collect();
    assert_eq!(pinned.len(), 1, "{body}");
    assert!(
        listing["total_bytes"].as_u64().unwrap()
            <= (2 << 20) + pinned[0]["bytes"].as_u64().unwrap(),
        "{body}"
    );

    // --upload-max-mb 1: a declared 2 MiB upload is refused from its
    // Content-Length alone.
    let (status, _, body) = exchange(
        addr,
        b"POST /v1/datasets HTTP/1.1\r\nHost: t\r\nContent-Length: 2097152\r\n\r\n",
    );
    assert_eq!(status, 413, "{body}");
    // --timeout-ms 500: a body that never arrives is cut off at the
    // deadline, not at the 10 s default.
    let started = Instant::now();
    let (status, _, _) = exchange(
        addr,
        b"POST /v1/notebook HTTP/1.1\r\nHost: t\r\nContent-Length: 100\r\n\r\n{",
    );
    assert_eq!(status, 408);
    assert!(started.elapsed() < Duration::from_secs(5));

    // --tenant-max-inflight 1: a burst of concurrent decodes from one
    // tenant overlaps, and every request past the permit holder's is told
    // to back off.
    let burst = 12;
    let start = std::sync::Arc::new(std::sync::Barrier::new(burst));
    let hogs: Vec<_> = (0..burst)
        .map(|seed| {
            let start = std::sync::Arc::clone(&start);
            std::thread::spawn(move || {
                let body = format!(r#"{{"dataset":"cyber2","episode_len":8,"seed":{seed}}}"#);
                start.wait();
                request(
                    addr,
                    "POST",
                    "/v1/notebook",
                    &[("X-Atena-Tenant", "hog")],
                    &body,
                )
            })
        })
        .collect();
    let (mut served_ok, mut throttled) = (0, 0);
    for hog in hogs {
        let (status, head, body) = hog.join().unwrap();
        match status {
            200 => served_ok += 1,
            429 => {
                throttled += 1;
                assert!(head.contains("retry-after: 1"), "{head}");
            }
            other => panic!("unexpected status {other}: {body}"),
        }
    }
    assert!(served_ok >= 1, "at least the permit holder must succeed");
    assert!(
        throttled >= 1,
        "{burst} concurrent decodes at --tenant-max-inflight 1 never overlapped"
    );

    let (_, _, body) = request(addr, "GET", "/v1/metrics", &[], "");
    let counters = &json(&body)["counters"];
    assert!(
        counters["server.request.slow"].as_u64() > Some(0),
        "--slow-ms 0"
    );
    assert_eq!(
        counters["server.cache.hits"].as_u64(),
        None,
        "--cache-size 0"
    );
    let (status, _, prometheus) = request(addr, "GET", "/v1/metrics?format=prometheus", &[], "");
    assert_eq!(status, 200);
    for series in [
        "atena_registry_bytes",
        "atena_registry_uploads",
        "atena_registry_evictions",
    ] {
        assert!(
            prometheus.lines().any(|l| l.starts_with(series)),
            "{series} missing from the Prometheus view"
        );
    }

    // SIGTERM drains and exits 0.
    let pid = served.0.id().to_string();
    let killed = Command::new("kill").args(["-TERM", &pid]).status().unwrap();
    assert!(killed.success());
    let exit = served.0.wait().unwrap();
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    let log = std::fs::read_to_string(&log).unwrap();
    assert!(exit.success(), "serve exited {exit}: {log}");
    assert!(rest.contains("shut down gracefully"), "{rest}");
    assert!(log.contains("slow request"), "--slow-ms 0: {log}");

    // --trace-out: the request span trees reached the file, down to the
    // policy forward of each decode step.
    let spans = std::fs::read_to_string(&traces).unwrap();
    for name in [
        "server.request",
        "request.parse",
        "cache.lookup",
        "engine.decode",
        "nn.forward",
    ] {
        assert!(
            spans
                .lines()
                .any(|l| json(l)["name"].as_str() == Some(name)),
            "no {name} span in the serve trace"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn train_binary_writes_worker_counters_and_training_spans() {
    let dir = scratch_dir("train");
    let metrics = dir.join("train.jsonl");
    let traces = dir.join("train-traces.jsonl");
    atena(&[
        "train",
        "cyber2",
        "--steps",
        "200",
        "--episode-len",
        "4",
        "--workers",
        "2",
        "--seed",
        "7",
        "--metrics-out",
        path(&metrics),
        "--trace-out",
        path(&traces),
    ]);

    let worker_counters: Vec<Value> = std::fs::read_to_string(&metrics)
        .unwrap()
        .lines()
        .map(json)
        .filter(|e| {
            e["kind"].as_str() == Some("counter")
                && e["name"]
                    .as_str()
                    .is_some_and(|n| n.starts_with("runtime.worker."))
        })
        .collect();
    assert!(
        worker_counters
            .iter()
            .any(|e| e["value"].as_f64() > Some(0.0)),
        "no nonzero runtime.worker.* counter in {worker_counters:?}"
    );

    let spans: Vec<Value> = std::fs::read_to_string(&traces)
        .unwrap()
        .lines()
        .map(json)
        .collect();
    assert!(
        spans.iter().any(|s| s["parent"] == Value::Null),
        "no root span exported"
    );
    let table = atena(&["trace", "summarize", path(&traces)]);
    for name in [
        "train.iteration",
        "rollout.collect",
        "rollout.worker",
        "rollout.merge",
        "ppo.update",
        "ppo.forward",
        "ppo.backward",
        "ppo.step",
    ] {
        assert!(
            spans.iter().any(|s| s["name"].as_str() == Some(name)),
            "no {name} span exported"
        );
        assert!(table.contains(name), "{name} missing from:\n{table}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
