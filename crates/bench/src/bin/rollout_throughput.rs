//! Rollout-throughput driver for the `atena-runtime` scatter engine:
//! collects identical rollout iterations at several worker counts (each
//! worker's shard of lanes shares one batched policy forward per step, so
//! the worker count also sets the batch size) — each both with and
//! without the shared display cache — and reports steps/sec,
//! the speedup over one worker, and the cache's hit rate and speedup,
//! while asserting the determinism contract (every worker count and cache
//! configuration must produce bit-identical trajectories).
//!
//! ```text
//! rollout_throughput [--dataset flights1] [--lanes 8] [--rollout-len 96]
//!                    [--iters 5] [--workers 1,2,4,8] [--cache 4096]
//!                    [--seed 0] [--bench-out BENCH_rollout.json]
//! ```
//!
//! The run also measures span-tracing overhead: one extra sweep pair at the
//! highest worker count with the tracer off and on, asserting bit-identical
//! trajectories (tracing is execution-only, DESIGN.md §4j) and reporting
//! the steps/sec regression against a 3% budget.
//!
//! With `$ATENA_METRICS_OUT` set, telemetry (including the `env.cache.*`
//! hit/miss/eviction counters) streams to that file as JSONL. With
//! `--bench-out`, the full result set persists as a versioned JSON record
//! (the CI perf-trajectory artifact).
//!
//! Note: the speedup column only shows >1 on multi-core machines; the
//! determinism check is meaningful everywhere.

use atena_batch::BatchPlanner;
use atena_bench::{f2, finish_telemetry, init_telemetry, quantile, render_table};
use atena_core::{Atena, AtenaConfig, Strategy};
use atena_env::{DisplayCache, DisplayCacheStats, EdaEnv};
use atena_rl::{ActionMapper, Policy, RolloutPlan, Rollouts, TwofoldConfig, TwofoldPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Config {
    dataset: String,
    lanes: usize,
    rollout_len: usize,
    iters: u64,
    workers: Vec<usize>,
    cache: usize,
    temperature: f32,
    decode_episodes: u64,
    decode_seeds: u64,
    seed: u64,
    bench_out: Option<String>,
    batch_sizes: Vec<usize>,
    batch_bench_out: Option<String>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            dataset: "flights1".into(),
            lanes: 8,
            rollout_len: 96,
            iters: 5,
            workers: vec![1, 2, 4, 8],
            cache: 4096,
            temperature: 1.0,
            decode_episodes: 48,
            decode_seeds: 4,
            seed: 0,
            bench_out: None,
            batch_sizes: vec![1, 4, 8],
            batch_bench_out: None,
        }
    }
}

/// Steps/sec regression budget for span tracing (acceptance gate: tracing
/// must stay cheap enough to leave on in perf-sensitive runs).
const TRACING_BUDGET_PCT: f64 = 3.0;

#[derive(serde::Serialize)]
struct SweepRecord {
    workers: usize,
    steps_per_sec: f64,
    cached_steps_per_sec: f64,
    cache_speedup: f64,
    scaling: f64,
    cache_hit_rate: f64,
    digest: String,
}

#[derive(serde::Serialize)]
struct DecodeRecord {
    episodes: u64,
    seed_pool: u64,
    steps_per_sec_uncached: f64,
    steps_per_sec_cached: f64,
    cache_speedup: f64,
    cache_hit_rate: f64,
    digest_match: bool,
}

#[derive(serde::Serialize)]
struct TracingRecord {
    workers: usize,
    steps_per_sec_off: f64,
    steps_per_sec_on: f64,
    overhead_pct: f64,
    budget_pct: f64,
    within_budget: bool,
    spans_recorded: u64,
    digest_match: bool,
}

#[derive(serde::Serialize)]
struct BatchSweepRecord {
    batch: usize,
    steps_per_sec: f64,
    speedup_vs_batch1: f64,
    /// End-to-end speedup over the pre-batching decode engine (per-step
    /// autodiff graph with weight snapshots), env stepping included.
    speedup_vs_graph: f64,
    /// Policy rows pushed through the inference engine per second of
    /// forward time — the engine-only number, undiluted by env stepping.
    forward_rows_per_sec: f64,
    /// `forward_rows_per_sec` over the graph engine's — the acceptance
    /// number for the batched-inference subsystem itself.
    forward_speedup_vs_graph: f64,
    forward_p50_us: f64,
    forward_p95_us: f64,
    forward_p99_us: f64,
    digest: String,
}

/// The persisted `BENCH_batch.json` schema (`version` guards consumers
/// against silent shape drift): steps/sec and per-forward latency
/// quantiles of the lane-batched greedy decode replay vs batch size,
/// with the pre-batching graph engine as the reference row.
#[derive(serde::Serialize)]
struct BatchBenchRecord {
    version: u32,
    bench: &'static str,
    dataset: String,
    episodes: u64,
    seed_pool: u64,
    episode_len: usize,
    cache: usize,
    /// The pre-batching engine (graph-based `act`) on the same workload.
    graph_steps_per_sec: f64,
    /// The graph engine's inference-only throughput (rows through
    /// `act_via_graph` per second of forward time).
    graph_forward_rows_per_sec: f64,
    sweeps: Vec<BatchSweepRecord>,
    determinism_ok: bool,
}

/// The persisted `BENCH_rollout.json` schema (`version` guards consumers
/// against silent shape drift).
#[derive(serde::Serialize)]
struct BenchRecord {
    version: u32,
    bench: &'static str,
    dataset: String,
    lanes: usize,
    rollout_len: usize,
    iters: u64,
    total_steps: usize,
    sweeps: Vec<SweepRecord>,
    decode: DecodeRecord,
    tracing: TracingRecord,
    determinism_ok: bool,
}

const USAGE: &str = "\
rollout_throughput — steps/sec of the deterministic rollout engine

USAGE:
  rollout_throughput [--dataset ID] [--lanes N] [--rollout-len N]
                     [--iters N] [--workers 1,2,4,8] [--cache N]
                     [--temperature T] [--decode-episodes N]
                     [--decode-seeds N] [--seed N]
                     [--bench-out BENCH_rollout.json]
                     [--batch-sizes 1,4,8]
                     [--batch-bench-out BENCH_batch.json]
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
            .ok_or_else(|| format!("{flag} requires a value\n\n{USAGE}"))?;
        match flag {
            "--dataset" => config.dataset = value.clone(),
            "--lanes" => config.lanes = value.parse().map_err(|_| "--lanes: integer expected")?,
            "--rollout-len" => {
                config.rollout_len = value
                    .parse()
                    .map_err(|_| "--rollout-len: integer expected")?
            }
            "--iters" => config.iters = value.parse().map_err(|_| "--iters: integer expected")?,
            "--cache" => config.cache = value.parse().map_err(|_| "--cache: integer expected")?,
            "--temperature" => {
                config.temperature = value
                    .parse()
                    .map_err(|_| "--temperature: number expected")?
            }
            "--decode-episodes" => {
                config.decode_episodes = value
                    .parse()
                    .map_err(|_| "--decode-episodes: integer expected")?
            }
            "--decode-seeds" => {
                config.decode_seeds = value
                    .parse()
                    .map_err(|_| "--decode-seeds: non-zero integer expected")
                    .and_then(|v| {
                        if v == 0 {
                            Err("--decode-seeds: must be non-zero")
                        } else {
                            Ok(v)
                        }
                    })?
            }
            "--seed" => config.seed = value.parse().map_err(|_| "--seed: integer expected")?,
            "--bench-out" => config.bench_out = Some(value.clone()),
            "--batch-sizes" => {
                config.batch_sizes = value
                    .split(',')
                    .map(|b| {
                        b.trim()
                            .parse()
                            .map_err(|_| "--batch-sizes: integers expected")
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--batch-bench-out" => config.batch_bench_out = Some(value.clone()),
            "--workers" => {
                config.workers = value
                    .split(',')
                    .map(|w| w.trim().parse().map_err(|_| "--workers: integers expected"))
                    .collect::<Result<_, _>>()?;
            }
            other => return Err(format!("unknown option {other:?}\n\n{USAGE}")),
        }
        i += 2;
    }
    if config.workers.is_empty() {
        return Err("--workers needs at least one count".into());
    }
    if config.batch_sizes.is_empty() || config.batch_sizes.contains(&0) {
        return Err("--batch-sizes needs positive batch sizes".into());
    }
    Ok(config)
}

/// One timed sweep at a worker count and display-cache capacity; returns
/// (secs, trajectory digest, cache stats). The digest folds every step
/// reward in buffer order, so two sweeps with equal digests collected the
/// same trajectories in the same order.
fn sweep(
    frame: &atena_dataframe::DataFrame,
    env_config: &atena_env::EnvConfig,
    plan_parts: &PlanParts,
    config: &Config,
    workers: usize,
    cache_capacity: usize,
    traced: bool,
) -> (f64, u64, DisplayCacheStats) {
    let mut source = Rollouts::new(
        frame,
        env_config,
        config.lanes,
        config.seed,
        workers,
        cache_capacity,
    );
    let start = Instant::now();
    let mut digest = 0u64;
    for iteration in 0..config.iters {
        let plan = RolloutPlan {
            policy: plan_parts.policy.as_ref(),
            mapper: &plan_parts.mapper,
            reward: plan_parts.reward.as_ref(),
            rollout_len: config.rollout_len,
            temperature: config.temperature,
            base_seed: config.seed,
            iteration,
        };
        // The traced path mirrors the trainer's per-iteration span tree
        // (DESIGN.md §4j): a root with a timed collect span plus exact-
        // duration worker/merge children from the scatter profile.
        let trace = traced.then(|| {
            let t = atena_telemetry::tracer().trace("rollout.iteration");
            t.attr("iter", iteration.to_string());
            t
        });
        let buffer = match &trace {
            Some(trace) => {
                let collect = trace.span("rollout.collect");
                let collect_id = collect.id();
                let (buffer, _episodes) = source.collect(&plan);
                drop(collect);
                if trace.is_recording() {
                    let profile = source.scatter_profile();
                    for (w, wp) in profile.workers.iter().enumerate() {
                        trace.record_exact(
                            collect_id,
                            "rollout.worker",
                            wp.busy_secs,
                            vec![("worker", w.to_string()), ("lanes", wp.items.to_string())],
                        );
                    }
                    trace.record_exact(collect_id, "rollout.merge", profile.merge_secs, vec![]);
                }
                buffer
            }
            None => source.collect(&plan).0,
        };
        for step in buffer.steps() {
            digest = digest
                .rotate_left(7)
                .wrapping_add(u64::from(step.reward.to_bits()));
        }
    }
    let secs = start.elapsed().as_secs_f64();
    let stats = source
        .display_cache()
        .map(|c| c.stats())
        .unwrap_or_default();
    (secs, digest, stats)
}

struct PlanParts {
    policy: Arc<TwofoldPolicy>,
    mapper: ActionMapper,
    reward: Arc<dyn atena_env::RewardModel>,
}

/// One timed greedy-decode replay sweep — the inference server's workload:
/// `episodes` episodes decoded at near-zero temperature, cycling through a
/// pool of `seed_pool` request seeds, so every seed after the first pass
/// replays an identical operation path. This is the workload the display
/// cache is designed for (cross-request reuse); the digest folds every
/// observation bit of every step, so cached and uncached replays must be
/// bit-identical.
fn decode_sweep(
    frame: &atena_dataframe::DataFrame,
    env_config: &atena_env::EnvConfig,
    policy: &TwofoldPolicy,
    cache_capacity: usize,
    episodes: u64,
    seed_pool: u64,
) -> (f64, u64, u64, DisplayCacheStats) {
    const DECODE_TEMPERATURE: f32 = 1e-3;
    let cache = (cache_capacity > 0).then(|| Arc::new(DisplayCache::new(cache_capacity)));
    let mut env = EdaEnv::new(frame.clone(), env_config.clone());
    if let Some(cache) = &cache {
        env = env.with_display_cache(Arc::clone(cache));
    }
    let start = Instant::now();
    let mut digest = 0u64;
    let mut steps = 0u64;
    for episode in 0..episodes {
        let seed = episode % seed_pool;
        env.reset_with_seed(seed);
        let mut rng = StdRng::seed_from_u64(seed);
        while !env.done() {
            let obs = env.observation();
            let step = policy.act(&obs, DECODE_TEMPERATURE, &mut rng);
            let action = step
                .choice
                .to_eda_action()
                .expect("twofold policy emits twofold choices");
            let transition = env.step(&action);
            steps += 1;
            for x in &transition.observation {
                digest = digest.rotate_left(7).wrapping_add(u64::from(x.to_bits()));
            }
        }
    }
    let secs = start.elapsed().as_secs_f64();
    let stats = cache.map(|c| c.stats()).unwrap_or_default();
    (secs, digest, steps, stats)
}

/// The same decode-replay workload through the *pre-batching* engine —
/// `TwofoldPolicy::act_via_graph`, one fresh autodiff graph and a full
/// set of weight snapshots per step — digested with the same per-episode
/// commutative scheme as [`batched_decode_sweep`], so its digest must
/// equal every batched digest (the graph path is the bit-identity oracle).
/// Returns (secs, digest, steps).
fn graph_reference_sweep(
    frame: &atena_dataframe::DataFrame,
    env_config: &atena_env::EnvConfig,
    policy: &TwofoldPolicy,
    cache_capacity: usize,
    episodes: u64,
    seed_pool: u64,
) -> (f64, u64, u64, Duration) {
    const DECODE_TEMPERATURE: f32 = 1e-3;
    let cache = (cache_capacity > 0).then(|| Arc::new(DisplayCache::new(cache_capacity)));
    let mut env = EdaEnv::new(frame.clone(), env_config.clone());
    if let Some(cache) = &cache {
        env = env.with_display_cache(Arc::clone(cache));
    }
    let start = Instant::now();
    let mut digest = 0u64;
    let mut steps = 0u64;
    let mut forward_total = Duration::ZERO;
    for episode in 0..episodes {
        let seed = episode % seed_pool;
        env.reset_with_seed(seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ep_digest = 0u64;
        while !env.done() {
            let obs = env.observation();
            let forward_start = Instant::now();
            let step = policy.act_via_graph(&obs, DECODE_TEMPERATURE, &mut rng);
            forward_total += forward_start.elapsed();
            let action = step
                .choice
                .to_eda_action()
                .expect("twofold policy emits twofold choices");
            let transition = env.step(&action);
            steps += 1;
            for x in &transition.observation {
                ep_digest = ep_digest
                    .rotate_left(7)
                    .wrapping_add(u64::from(x.to_bits()));
            }
        }
        digest = digest.wrapping_add(ep_digest);
    }
    (start.elapsed().as_secs_f64(), digest, steps, forward_total)
}

/// Lane-batched greedy decode replay: `batch` environments decode the
/// same episode workload in lockstep, every step advancing all lanes
/// through one `[batch, obs_dim]` policy forward. Episodes are assigned
/// to lanes in rounds (lane `l` of round `r` decodes episode `r·batch +
/// l`), and each episode's transcript is digested independently then
/// combined commutatively — so the digest depends only on the *set* of
/// decoded episodes, which lets any batch size be compared bit-for-bit
/// against batch 1 (the serial schedule).
///
/// Returns (secs, digest, steps, per-forward latencies).
fn batched_decode_sweep(
    frame: &atena_dataframe::DataFrame,
    env_config: &atena_env::EnvConfig,
    policy: &TwofoldPolicy,
    cache_capacity: usize,
    episodes: u64,
    seed_pool: u64,
    batch: usize,
) -> (f64, u64, u64, Vec<Duration>) {
    const DECODE_TEMPERATURE: f32 = 1e-3;
    let batch = batch.max(1);
    let cache = (cache_capacity > 0).then(|| Arc::new(DisplayCache::new(cache_capacity)));
    let base = Arc::new(frame.clone());
    let mut envs: Vec<EdaEnv> = (0..batch)
        .map(|_| {
            let mut env = EdaEnv::with_shared_base(Arc::clone(&base), env_config.clone());
            if let Some(cache) = &cache {
                env = env.with_display_cache(Arc::clone(cache));
            }
            env
        })
        .collect();
    let planner = BatchPlanner::new(policy.obs_dim(), batch);
    let start = Instant::now();
    let mut digest = 0u64;
    let mut steps = 0u64;
    let mut forward_lat = Vec::new();
    let mut next_episode = 0u64;
    while next_episode < episodes {
        let active = (episodes - next_episode).min(batch as u64) as usize;
        let mut rngs = Vec::with_capacity(active);
        let mut ep_digests = vec![0u64; active];
        for (l, env) in envs[..active].iter_mut().enumerate() {
            let seed = (next_episode + l as u64) % seed_pool;
            env.reset_with_seed(seed);
            rngs.push(StdRng::seed_from_u64(seed));
        }
        // All lanes share the episode length, so they finish in lockstep.
        while !envs[0].done() {
            let obs: Vec<Vec<f32>> = envs[..active].iter().map(|e| e.observation()).collect();
            let forward_start = Instant::now();
            let rows = planner.run(&obs, |b| {
                policy
                    .forward_rows(b, DECODE_TEMPERATURE)
                    .expect("policy accepts gathered observations")
            });
            forward_lat.push(forward_start.elapsed());
            for (l, row) in rows.into_iter().enumerate() {
                let step = row.sample(&mut rngs[l]);
                let action = step
                    .choice
                    .to_eda_action()
                    .expect("twofold policy emits twofold choices");
                let transition = envs[l].step(&action);
                steps += 1;
                for x in &transition.observation {
                    ep_digests[l] = ep_digests[l]
                        .rotate_left(7)
                        .wrapping_add(u64::from(x.to_bits()));
                }
            }
        }
        for d in ep_digests {
            digest = digest.wrapping_add(d);
        }
        next_episode += active as u64;
    }
    (start.elapsed().as_secs_f64(), digest, steps, forward_lat)
}

fn main() {
    init_telemetry("rollout_throughput");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let Some(dataset) = atena_data::dataset_by_id(&config.dataset) else {
        eprintln!("unknown dataset {:?}", config.dataset);
        std::process::exit(2);
    };
    let focal = dataset.focal_attrs();
    let frame = dataset.frame;

    let mut atena_config = AtenaConfig::quick();
    atena_config.env.seed = config.seed;
    atena_config.probe_steps = 120;
    let reward: Arc<dyn atena_env::RewardModel> = Arc::new(
        Atena::new(&config.dataset, frame.clone())
            .with_focal_attrs(focal)
            .with_config(atena_config.clone())
            .with_strategy(Strategy::Atena)
            .build_reward(),
    );
    let probe = EdaEnv::new(frame.clone(), atena_config.env.clone());
    let mut rng = StdRng::seed_from_u64(config.seed);
    let policy = Arc::new(TwofoldPolicy::new(
        probe.observation_dim(),
        probe.action_space().head_sizes(),
        TwofoldConfig { hidden: [64, 64] },
        &mut rng,
    ));
    let plan_parts = PlanParts {
        policy,
        mapper: ActionMapper::Twofold,
        reward,
    };

    let total_steps = config.lanes * config.rollout_len * config.iters as usize;
    println!(
        "rollout throughput on {:?}: {} lanes × {} steps × {} iters = {} env steps per sweep (display cache: {})",
        config.dataset, config.lanes, config.rollout_len, config.iters, total_steps, config.cache
    );

    let mut rows = Vec::new();
    let mut sweep_records = Vec::new();
    let mut baseline = None;
    let mut digests: Vec<(String, u64)> = Vec::new();
    for &workers in &config.workers {
        let (plain_secs, plain_digest, _) = sweep(
            &frame,
            &atena_config.env,
            &plan_parts,
            &config,
            workers,
            0,
            false,
        );
        let (cached_secs, cached_digest, stats) = sweep(
            &frame,
            &atena_config.env,
            &plan_parts,
            &config,
            workers,
            config.cache,
            false,
        );
        digests.push((format!("workers={workers} uncached"), plain_digest));
        digests.push((format!("workers={workers} cached"), cached_digest));
        let plain_sps = total_steps as f64 / plain_secs.max(1e-9);
        let cached_sps = total_steps as f64 / cached_secs.max(1e-9);
        let baseline_sps = *baseline.get_or_insert(cached_sps);
        sweep_records.push(SweepRecord {
            workers,
            steps_per_sec: plain_sps,
            cached_steps_per_sec: cached_sps,
            cache_speedup: cached_sps / plain_sps,
            scaling: cached_sps / baseline_sps,
            cache_hit_rate: stats.hit_rate(),
            digest: format!("{cached_digest:016x}"),
        });
        rows.push(vec![
            workers.to_string(),
            f2(plain_sps),
            f2(cached_sps),
            f2(cached_sps / plain_sps),
            f2(cached_sps / baseline_sps),
            format!("{:.1}%", 100.0 * stats.hit_rate()),
            format!("{cached_digest:016x}"),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "workers",
                "steps/sec",
                "cached steps/sec",
                "cache speedup",
                "scaling",
                "hit rate",
                "trajectory digest"
            ],
            &rows
        )
    );

    let reference = digests[0].1;
    let divergent: Vec<&str> = digests
        .iter()
        .filter(|(_, d)| *d != reference)
        .map(|(label, _)| label.as_str())
        .collect();
    if divergent.is_empty() {
        println!(
            "determinism: OK — all {} configurations (worker counts × cache on/off) \
             produced bit-identical trajectories",
            digests.len()
        );
    } else {
        eprintln!("determinism VIOLATED at {divergent:?}");
        finish_telemetry();
        std::process::exit(1);
    }

    // The server workload: greedy decode replay over a small request-seed
    // pool. This is where the cache structurally pays — after one pass over
    // the pool, every operation path replays out of the cache — whereas the
    // exploration sweep above draws fresh RNG filter terms per episode and
    // rarely repeats an exact path.
    let (plain_secs, plain_digest, steps, _) = decode_sweep(
        &frame,
        &atena_config.env,
        &plan_parts.policy,
        0,
        config.decode_episodes,
        config.decode_seeds,
    );
    let (cached_secs, cached_digest, _, stats) = decode_sweep(
        &frame,
        &atena_config.env,
        &plan_parts.policy,
        config.cache,
        config.decode_episodes,
        config.decode_seeds,
    );
    let plain_sps = steps as f64 / plain_secs.max(1e-9);
    let cached_sps = steps as f64 / cached_secs.max(1e-9);
    println!(
        "greedy decode replay ({} episodes × {} steps over {} request seeds, server workload):\n  \
         uncached {:.0} steps/sec, cached {:.0} steps/sec — cache speedup {:.2}×, hit rate {:.1}%",
        config.decode_episodes,
        atena_config.env.episode_len,
        config.decode_seeds,
        plain_sps,
        cached_sps,
        cached_sps / plain_sps,
        100.0 * stats.hit_rate(),
    );
    if plain_digest == cached_digest {
        println!("decode determinism: OK — cached replay bit-identical to uncached");
    } else {
        eprintln!(
            "decode determinism VIOLATED: uncached {plain_digest:016x} != cached {cached_digest:016x}"
        );
        finish_telemetry();
        std::process::exit(1);
    }
    let decode_record = DecodeRecord {
        episodes: config.decode_episodes,
        seed_pool: config.decode_seeds,
        steps_per_sec_uncached: plain_sps,
        steps_per_sec_cached: cached_sps,
        cache_speedup: cached_sps / plain_sps,
        cache_hit_rate: stats.hit_rate(),
        digest_match: plain_digest == cached_digest,
    };

    // Batched inference sweep: the same decode-replay workload stepped
    // through lane-batched policy forwards at each requested batch size.
    // The reference row is the pre-batching engine (graph-based act with
    // per-step weight snapshots); batch 1 is the serial schedule of the
    // new engine. On a single core batch N vs batch 1 is near-flat — the
    // kernels are compute-bound and batch 1 shares them — so the win the
    // subsystem bought shows in the vs-graph column (DESIGN.md §4l).
    let (graph_secs, graph_digest, graph_steps, graph_forward) = graph_reference_sweep(
        &frame,
        &atena_config.env,
        &plan_parts.policy,
        config.cache,
        config.decode_episodes,
        config.decode_seeds,
    );
    let graph_sps = graph_steps as f64 / graph_secs.max(1e-9);
    let graph_rows_ps = graph_steps as f64 / graph_forward.as_secs_f64().max(1e-9);
    println!(
        "pre-batching graph engine on the decode replay: {graph_sps:.0} steps/sec, \
         {graph_rows_ps:.0} forward rows/sec (episode digest {graph_digest:016x})"
    );
    let mut batch_rows = Vec::new();
    let mut batch_records = Vec::new();
    let mut batch_digests: Vec<(usize, u64)> = vec![(0, graph_digest)];
    let mut batch1_sps = None;
    for &batch in &config.batch_sizes {
        let (secs, digest, steps, mut forward_lat) = batched_decode_sweep(
            &frame,
            &atena_config.env,
            &plan_parts.policy,
            config.cache,
            config.decode_episodes,
            config.decode_seeds,
            batch,
        );
        let forward_secs: f64 = forward_lat.iter().map(Duration::as_secs_f64).sum();
        forward_lat.sort_unstable();
        let sps = steps as f64 / secs.max(1e-9);
        let rows_ps = steps as f64 / forward_secs.max(1e-9);
        let base_sps = *batch1_sps.get_or_insert(sps);
        let speedup = sps / base_sps.max(1e-9);
        batch_digests.push((batch, digest));
        let quantile_us = |q| quantile(&forward_lat, q).as_secs_f64() * 1e6;
        let (p50, p95, p99) = (quantile_us(0.50), quantile_us(0.95), quantile_us(0.99));
        batch_records.push(BatchSweepRecord {
            batch,
            steps_per_sec: sps,
            speedup_vs_batch1: speedup,
            speedup_vs_graph: sps / graph_sps.max(1e-9),
            forward_rows_per_sec: rows_ps,
            forward_speedup_vs_graph: rows_ps / graph_rows_ps.max(1e-9),
            forward_p50_us: p50,
            forward_p95_us: p95,
            forward_p99_us: p99,
            digest: format!("{digest:016x}"),
        });
        batch_rows.push(vec![
            batch.to_string(),
            f2(sps),
            f2(speedup),
            f2(sps / graph_sps.max(1e-9)),
            f2(rows_ps / graph_rows_ps.max(1e-9)),
            f2(p50),
            f2(p95),
            f2(p99),
            format!("{digest:016x}"),
        ]);
    }
    println!(
        "batched decode replay ({} episodes over {} request seeds, cache {}):",
        config.decode_episodes, config.decode_seeds, config.cache
    );
    println!(
        "{}",
        render_table(
            &[
                "batch",
                "steps/sec",
                "vs batch 1",
                "vs graph",
                "fwd vs graph",
                "fwd p50 µs",
                "fwd p95 µs",
                "fwd p99 µs",
                "episode digest"
            ],
            &batch_rows
        )
    );
    let batch_reference = graph_digest;
    let batch_divergent: Vec<String> = batch_digests
        .iter()
        .filter(|(_, d)| *d != batch_reference)
        .map(|(b, _)| {
            if *b == 0 {
                "graph".to_string()
            } else {
                format!("batch {b}")
            }
        })
        .collect();
    if batch_divergent.is_empty() {
        println!(
            "batch determinism: OK — the graph engine and every batch size produced \
             bit-identical episodes (batching is execution-only, DESIGN.md §4l)"
        );
    } else {
        eprintln!("batch determinism VIOLATED at {batch_divergent:?}");
        finish_telemetry();
        std::process::exit(1);
    }
    if let Some(path) = &config.batch_bench_out {
        let record = BatchBenchRecord {
            version: 1,
            bench: "batched_decode",
            dataset: config.dataset.clone(),
            episodes: config.decode_episodes,
            seed_pool: config.decode_seeds,
            episode_len: atena_config.env.episode_len,
            cache: config.cache,
            graph_steps_per_sec: graph_sps,
            graph_forward_rows_per_sec: graph_rows_ps,
            sweeps: batch_records,
            determinism_ok: true,
        };
        match atena_bench::dump_json_to(std::path::Path::new(path), &record) {
            Ok(()) => println!("batch bench record written to {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                finish_telemetry();
                std::process::exit(1);
            }
        }
    }

    // Span-tracing overhead: the same sweep at the highest worker count,
    // tracer off vs on. Tracing is execution-only, so the trajectories must
    // stay bit-identical; the steps/sec delta is the observability tax.
    let trace_workers = *config.workers.iter().max().expect("non-empty workers");
    let (off_secs, off_digest, _) = sweep(
        &frame,
        &atena_config.env,
        &plan_parts,
        &config,
        trace_workers,
        config.cache,
        false,
    );
    let tracer = atena_telemetry::tracer();
    let spans_before = tracer.counts().spans_recorded;
    tracer.set_enabled(true);
    let (on_secs, on_digest, _) = sweep(
        &frame,
        &atena_config.env,
        &plan_parts,
        &config,
        trace_workers,
        config.cache,
        true,
    );
    tracer.set_enabled(false);
    let spans_recorded = tracer.counts().spans_recorded - spans_before;
    let off_sps = total_steps as f64 / off_secs.max(1e-9);
    let on_sps = total_steps as f64 / on_secs.max(1e-9);
    let overhead_pct = 100.0 * (off_sps - on_sps) / off_sps.max(1e-9);
    println!(
        "tracing overhead (workers={trace_workers}): off {off_sps:.0} steps/sec, \
         on {on_sps:.0} steps/sec — {overhead_pct:+.2}% ({} budget {TRACING_BUDGET_PCT}%, \
         {spans_recorded} spans recorded)",
        if overhead_pct <= TRACING_BUDGET_PCT {
            "within"
        } else {
            "OVER"
        },
    );
    if off_digest != on_digest {
        eprintln!("tracing determinism VIOLATED: off {off_digest:016x} != on {on_digest:016x}");
        finish_telemetry();
        std::process::exit(1);
    }
    println!("tracing determinism: OK — traced sweep bit-identical to untraced");
    let tracing_record = TracingRecord {
        workers: trace_workers,
        steps_per_sec_off: off_sps,
        steps_per_sec_on: on_sps,
        overhead_pct,
        budget_pct: TRACING_BUDGET_PCT,
        within_budget: overhead_pct <= TRACING_BUDGET_PCT,
        spans_recorded,
        digest_match: off_digest == on_digest,
    };

    if let Some(path) = &config.bench_out {
        let record = BenchRecord {
            version: 1,
            bench: "rollout_throughput",
            dataset: config.dataset.clone(),
            lanes: config.lanes,
            rollout_len: config.rollout_len,
            iters: config.iters,
            total_steps,
            sweeps: sweep_records,
            decode: decode_record,
            tracing: tracing_record,
            determinism_ok: true,
        };
        match atena_bench::dump_json_to(std::path::Path::new(path), &record) {
            Ok(()) => println!("bench record written to {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                finish_telemetry();
                std::process::exit(1);
            }
        }
    }
    finish_telemetry();
}
