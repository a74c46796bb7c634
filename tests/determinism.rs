//! The determinism contract (DESIGN.md §4h/§4i/§4j/§4l), enforced
//! end-to-end: the worker count, the display-cache capacity, and span
//! tracing change how fast rollouts are collected (or how observable they
//! are), never what is learned. The worker count also sets the rollout
//! batch size — each worker's shard of lanes shares one policy forward per
//! step — so the worker axis is the batching axis too. At a fixed seed the
//! full `TrainLog` and the final checkpoint blob must be **bit-identical**
//! across cache {off, on} × workers {1, 2, 3, 4} × tracing {off, on}.
//!
//! Triage rule (KNOWN_FAILURES.md): any "parallel run differs from serial"
//! or "cached run differs from uncached" report is a bug in whatever made
//! randomness, merge order, or a memoized value depend on scheduling —
//! never something to paper over by loosening these asserts.

use atena::core::{train_policy_bundle, AtenaConfig, Strategy};
use atena::dataframe::{AttrRole, DataFrame};
use atena::env::{EdaEnv, EnvConfig};
use atena::reward::{CoherencyConfig, CompoundReward};
use atena::rl::{ActionMapper, PpoConfig, Trainer, TrainerConfig, TwofoldConfig, TwofoldPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn base() -> DataFrame {
    DataFrame::builder()
        .str(
            "proto",
            AttrRole::Categorical,
            (0..60).map(|i| Some(if i % 5 == 0 { "udp" } else { "tcp" })),
        )
        .str(
            "src",
            AttrRole::Categorical,
            (0..60).map(|i| Some(["a", "b", "c"][i % 3])),
        )
        .int(
            "len",
            AttrRole::Numeric,
            (0..60).map(|i| Some((i * 13 % 31) as i64)),
        )
        .build()
        .unwrap()
}

fn quick_config(workers: usize) -> AtenaConfig {
    let mut c = AtenaConfig::quick();
    c.train_steps = 400;
    c.probe_steps = 80;
    c.env.episode_len = 4;
    c.trainer.n_workers = workers;
    c
}

/// Worker counts × cache capacities at the two ends of the batching range,
/// minus the reference point (workers 1, uncached): workers 1 steps every
/// lane in one batch, workers ≥ lanes steps each lane on its own.
const WORKERS_AND_CACHE: [(usize, usize); 3] = [(1, 1024), (4, 0), (4, 1024)];

/// Worker counts that shard 4 lanes into batches of several lanes but fewer
/// than the fleet, × cache: workers 2 gives batches of 2 and 2, workers 3
/// gives the uneven 2, 1 and 1.
const LANE_BATCHING: [(usize, usize); 4] = [(2, 0), (2, 1024), (3, 0), (3, 1024)];

/// Train a checkpoint through the public pipeline on `n_lanes` lanes and
/// return its bundle JSON. The JSON covers everything a served policy is:
/// every f32 parameter, the best observed reward, and the step provenance,
/// so string equality of the serialized form is bit-identity.
fn checkpoint(n_lanes: usize, workers: usize, display_cache: usize) -> String {
    let mut config = quick_config(workers);
    config.trainer.n_lanes = n_lanes;
    config.trainer.display_cache = display_cache;
    train_policy_bundle("det", base(), vec![], config, Strategy::Atena)
        .unwrap()
        .to_json()
        .unwrap()
}

#[test]
fn checkpoint_blob_is_bit_identical_across_worker_counts_and_cache() {
    let lanes = AtenaConfig::quick().trainer.n_lanes;
    let reference = checkpoint(lanes, 1, 0);
    for (workers, display_cache) in WORKERS_AND_CACHE {
        assert_eq!(
            checkpoint(lanes, workers, display_cache),
            reference,
            "workers={workers} display_cache={display_cache} checkpoint differs from \
             workers=1 uncached"
        );
    }
}

#[test]
fn checkpoint_blob_is_bit_identical_with_lane_batching() {
    // Each worker's shard of lanes shares one `[shard, obs_dim]` forward per
    // env step (DESIGN.md §4l). Batching is execution-only, so partial and
    // uneven shards must serialize the same bundle as one batch of all lanes.
    let reference = checkpoint(4, 1, 0);
    for (workers, display_cache) in LANE_BATCHING {
        assert_eq!(
            checkpoint(4, workers, display_cache),
            reference,
            "workers={workers} display_cache={display_cache} checkpoint differs from \
             workers=1 uncached"
        );
    }
}

/// Train a fresh policy at seed 23 on 4 lanes with a private tracer;
/// returns the Debug-formatted `TrainLog` and the spans the tracer
/// recorded. Debug prints curve points, episode/step counters, the best
/// episode (ops + f64 rewards) and final update diagnostics at full
/// precision, so equal strings ⇔ equal values.
fn train_log(n_workers: usize, display_cache: usize, traced: bool) -> (String, u64) {
    let seed = 23;
    let env_config = EnvConfig {
        episode_len: 6,
        n_bins: 5,
        history_window: 3,
        seed,
    };
    let probe = EdaEnv::new(base(), env_config.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let policy = TwofoldPolicy::new(
        probe.observation_dim(),
        probe.action_space().head_sizes(),
        TwofoldConfig { hidden: [32, 32] },
        &mut rng,
    );
    let mut reward = CompoundReward::new(CoherencyConfig::with_focal_attrs(vec!["src".into()]));
    let mut fit_env = EdaEnv::new(base(), env_config.clone());
    reward.fit(&mut fit_env, 120, seed);
    // A private tracer per run, so enabled/disabled states can't leak
    // across the grid through the process-global one.
    let tracer = Arc::new(atena::telemetry::Tracer::new());
    tracer.set_enabled(traced);
    let mut trainer = Trainer::new(
        Arc::new(policy),
        ActionMapper::Twofold,
        Arc::new(reward),
        &base(),
        env_config,
        TrainerConfig {
            n_lanes: 4,
            n_workers,
            display_cache,
            rollout_len: 32,
            eval_window: 10,
            seed,
            ppo: PpoConfig {
                minibatch: 32,
                epochs: 2,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .with_tracer(Arc::clone(&tracer));
    let log = format!("{:?}", trainer.train(256));
    (log, tracer.counts().spans_recorded)
}

#[test]
fn train_log_is_bit_identical_across_worker_counts_and_cache() {
    let (reference, _) = train_log(1, 0, false);
    for (workers, display_cache) in WORKERS_AND_CACHE {
        assert_eq!(
            train_log(workers, display_cache, false).0,
            reference,
            "workers={workers} display_cache={display_cache} TrainLog differs from \
             workers=1 uncached"
        );
    }
}

#[test]
fn train_log_is_bit_identical_with_lane_batching() {
    let (reference, _) = train_log(1, 0, false);
    for (workers, display_cache) in LANE_BATCHING {
        assert_eq!(
            train_log(workers, display_cache, false).0,
            reference,
            "workers={workers} display_cache={display_cache} TrainLog differs from \
             workers=1 uncached"
        );
    }
}

#[test]
fn train_log_is_bit_identical_with_tracing_on_and_off() {
    // Span tracing is execution-only (DESIGN.md §4j): it reads timings out
    // of the run but injects nothing back — no RNG draws, no reordering.
    let (reference, silent_spans) = train_log(1, 1024, false);
    assert_eq!(silent_spans, 0, "disabled tracer must record nothing");
    for (workers, traced) in [(1, true), (4, false), (4, true)] {
        let (log, spans) = train_log(workers, 1024, traced);
        assert_eq!(
            log, reference,
            "workers={workers} tracing={traced} TrainLog differs from workers=1 untraced"
        );
        if traced {
            assert!(
                spans > 0,
                "workers={workers}: enabled tracer recorded no spans"
            );
        }
    }
}
