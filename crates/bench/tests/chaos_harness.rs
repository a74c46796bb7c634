//! Integration test for the chaos harness itself: train a tiny policy,
//! self-host a server, run the full byzantine scenario matrix (every
//! typed outcome must hold) while a background good client keeps
//! checking byte-identity, then a short CI-sized soak asserting flat
//! RSS, zero transcript divergence, monotone counters, and registry
//! evictions at capacity.
//!
//! The soak length defaults to 8 s; set `ATENA_SOAK_SECS` to stretch it
//! for longer runs:
//!
//! ```text
//! ATENA_SOAK_SECS=60 cargo test --release -p atena-bench --test chaos_harness
//! ```

use atena_bench::chaos::{run_scenario, run_soak, scenario_matrix, ChaosTarget, SoakOptions};
use atena_core::{train_policy_bundle, AtenaConfig, PolicyBundle, Strategy};
use atena_dataframe::{AttrRole, DataFrame};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn base() -> DataFrame {
    DataFrame::builder()
        .str(
            "proto",
            AttrRole::Categorical,
            (0..60).map(|i| Some(if i % 5 == 0 { "udp" } else { "tcp" })),
        )
        .int(
            "len",
            AttrRole::Numeric,
            (0..60).map(|i| Some((i * 13 % 31) as i64)),
        )
        .build()
        .unwrap()
}

fn tiny_bundle() -> PolicyBundle {
    let mut config = AtenaConfig::quick();
    config.train_steps = 300;
    config.probe_steps = 60;
    config.env.episode_len = 4;
    train_policy_bundle("tiny", base(), vec![], config, Strategy::Atena).unwrap()
}

/// A background good client: byte-identity-checked requests, one per
/// `pace`, until [`GoodTraffic::stop`].
struct GoodTraffic {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<(usize, usize)>,
}

impl GoodTraffic {
    fn start(target: ChaosTarget, pace: Duration) -> GoodTraffic {
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let (mut identical, mut divergences) = (0, 0);
                while !stop.load(Ordering::SeqCst) {
                    match target.good_shot() {
                        Ok(()) => identical += 1,
                        Err(_) => divergences += 1,
                    }
                    std::thread::sleep(pace);
                }
                (identical, divergences)
            })
        };
        GoodTraffic { stop, thread }
    }

    /// Stop the loop; returns `(identical_responses, failed_or_divergent)`.
    fn stop(self) -> (usize, usize) {
        self.stop.store(true, Ordering::SeqCst);
        self.thread.join().expect("good client thread")
    }
}

#[test]
fn scenario_matrix_and_soak_smoke_against_live_server() {
    let bundle = tiny_bundle();
    let offline = atena_server::Engine::new(bundle.clone(), base()).unwrap();
    let engine = atena_server::Engine::new(bundle.clone(), base()).unwrap();

    // Offline references: the exact bytes the server must return for
    // each seed (serial decode; the server microbatches — determinism
    // says the bytes cannot differ).
    let episode_len = 3;
    let good_requests: Vec<(String, String)> = (0..4u64)
        .map(|seed| {
            let request = offline
                .validate(&bundle.dataset, Some(episode_len), Some(seed))
                .unwrap();
            let expected = serde_json::to_string(&offline.decode(&request).unwrap()).unwrap();
            let body = format!(
                "{{\"dataset\":{:?},\"episode_len\":{episode_len},\"seed\":{seed}}}",
                bundle.dataset
            );
            (body, expected)
        })
        .collect();

    // A hostile-friendly config: short deadline, microbatching on, tiny
    // registry budget, tight admission.
    let request_timeout = Duration::from_millis(700);
    let config = atena_server::ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        cache_size: 8,
        request_timeout,
        max_batch: 4,
        batch_window: Duration::from_millis(1),
        registry: atena_registry::RegistryConfig {
            budget_bytes: 2048,
            max_datasets: 4,
            tenant_quota_bytes: 2048,
            limits: atena_dataframe::CsvLimits {
                max_bytes: 4096,
                max_rows: 10_000,
                max_cols: 16,
            },
        },
        tenant_limits: atena_registry::TenantLimits {
            max_inflight: 2,
            retry_after_secs: 1,
        },
        ..Default::default()
    };
    let max_body_bytes = config.max_body_bytes;
    let telemetry = Arc::new(atena_telemetry::MetricsRegistry::new());
    let server =
        atena_server::Server::bind_with_telemetry(config, engine, Arc::clone(&telemetry)).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.spawn().unwrap();

    let target = ChaosTarget {
        addr: addr.to_string(),
        good_body: good_requests[0].0.clone(),
        expected_body: good_requests[0].1.clone(),
        request_timeout,
        max_body_bytes,
    };

    // 1. Every scenario in the matrix must hit its typed expectation,
    //    leave the server healthy, and leave good responses
    //    byte-identical to the offline decode — both right after each
    //    attack and from a good client running through all of them.
    let good = GoodTraffic::start(target.clone(), Duration::from_millis(10));
    for scenario in scenario_matrix(&target) {
        let report = run_scenario(&target, &scenario);
        assert!(report.pass, "{report:?}");
    }
    let (identical, divergences) = good.stop();
    assert_eq!(divergences, 0, "good client diverged under attack");
    assert!(
        identical > 0,
        "good client completed no request under attack"
    );

    // 2. CI-sized soak: mixed good/byzantine traffic with the registry
    //    churning at capacity. Flat memory, monotone counters, zero
    //    divergence, evictions advancing.
    let soak_secs: u64 = std::env::var("ATENA_SOAK_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let mut base_csv = String::from("k,v\n");
    for r in 0..30 {
        base_csv.push_str(&format!("row{r},{r}\n"));
    }
    let report = run_soak(
        &target,
        &SoakOptions {
            duration: Duration::from_secs(soak_secs),
            rss_budget_bytes: 64 << 20,
            good_requests,
            upload_csv: Some(base_csv),
            sample_every: Duration::from_millis(500),
        },
    );
    assert!(report.pass, "soak failed: {report:?}");
    assert_eq!(report.divergences, 0);
    assert!(report.good_requests > 0);
    assert!(report.byzantine_shots > 0);
    assert!(report.counters_monotone);
    assert!(
        report.evictions_delta >= 1,
        "registry at capacity must evict during the soak"
    );
    assert!(report.metrics_samples >= 2);
    if cfg!(target_os = "linux") {
        let first = report.rss_first_bytes.expect("rss gauge sampled");
        let max = report.rss_max_bytes.unwrap();
        assert!(
            max.saturating_sub(first) <= 64 << 20,
            "RSS grew {} -> {max}",
            first
        );
    }

    // 3. Through the entire run: no worker panics, no aborted batches
    //    left behind by byzantine clients.
    let snap = telemetry.snapshot();
    assert_eq!(snap.counter("server.pool.panics"), None);
    assert!(
        snap.counter("server.http.parse_errors").unwrap_or(0) > 0,
        "byzantine traffic must show up as parse errors"
    );

    handle.shutdown();
}
