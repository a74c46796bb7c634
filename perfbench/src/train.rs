//! The `train` workload: default-length PPO training of the twofold ATENA
//! policy on Cyber #1 with the default trainer configuration and one
//! rollout worker per core.
//!
//! A run trains [`TRAJECTORIES`] policies for the default `train_steps`
//! each, one PPO iteration at a time. Trajectory `k` is the training a
//! user runs at seed `k`: policy initialization, exploration, environment
//! and PPO minibatch order all draw from it. The seeds are fixed, so the
//! workload seed does not change what `train` runs; on a 2-vCPU Xeon VM,
//! trainer seeds drawn from it spread the iteration-time tail by 0.14 over
//! ten workload seeds on their own. Training to the end keeps what a real run spends its
//! time on: the first iterations explore with a random policy and a cold
//! display cache, the late ones run several times as fast with a sharper
//! policy and a warm cache. After one pass the run goes over the
//! trajectories again while time remains; a trajectory's time is the
//! median over its passes.
//!
//! Every iteration leaves a digest of the trainer's state. A repeated
//! trajectory must reproduce its digests, and so must a fresh trainer that
//! replays the first [`CHECK_ITERATIONS`] iterations of the first one.
//! Set-up is timed [`SETUP_REPEATS`] times before training.
//!
//! The traced run follows the untraced first trajectory with a traced
//! copy of it. The traced copy rebuilds the trainer's lanes from the
//! public stream seeds and steps them itself on the same runtime, wrapping
//! each layer's public calls in spans; its digests must equal the
//! untraced ones.

use crate::report::{Metrics, Outcome};
use crate::spans::{preview_span, Spans};
use crate::stats::{median, tail};
use crate::{now, rss_mb, time_secs};
use atena_core::{Atena, AtenaConfig, Strategy};
use atena_dataframe::DataFrame;
use atena_env::{DisplayCache, EdaEnv, OpOutcome, RewardBreakdown, RewardModel};
use atena_reward::{
    step_diversity, step_interestingness, CompoundReward, DiversityConfig, InterestingnessConfig,
};
use atena_rl::{
    ActionMapper, CurvePoint, EpisodeRecord, MappedAction, Policy, PpoLearner, RolloutBuffer,
    RolloutStep, TrainLog, Trainer, TrainerConfig, TwofoldConfig, TwofoldPolicy, UpdateStats,
};
use atena_runtime::{stream_seed, Runtime, STREAM_ENV, STREAM_INIT};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Duration;

/// Trajectories, and so policy initializations, a pass trains.
pub const TRAJECTORIES: u64 = 2;

/// Iterations of the first trajectory replayed on a fresh trainer.
const CHECK_ITERATIONS: usize = 2;

/// Set-ups timed before training; the median is reported.
const SETUP_REPEATS: usize = 7;

/// One in this many scored steps also times the reward components.
const COMPONENT_SAMPLE: u64 = 8;

/// Everything a trainer is built from.
struct Setup {
    frame: DataFrame,
    reward: Arc<CompoundReward>,
    config: AtenaConfig,
}

/// The default configuration with one rollout worker per core. The reward
/// model is fitted at a fixed seed, like the policy initializations, so
/// every run trains against the same reward.
fn config(workers: usize) -> AtenaConfig {
    let mut config = AtenaConfig::default();
    config.trainer.n_workers = workers;
    config
}

impl Setup {
    /// The default trainer configuration at `seed`.
    fn trainer(&self, seed: u64) -> TrainerConfig {
        TrainerConfig {
            seed,
            ..self.config.trainer
        }
    }

    /// Environment steps of one PPO iteration.
    fn iteration_steps(&self) -> usize {
        let t = &self.config.trainer;
        t.rollout_len * t.n_lanes.max(1)
    }

    /// Iterations `Trainer::train` runs for the default `train_steps`.
    /// With the default constant temperature, training them one call at a
    /// time is the same training as one call for all of them.
    fn iterations(&self) -> usize {
        self.config.train_steps.div_ceil(self.iteration_steps())
    }
}

/// The twofold policy `train_policy_bundle` starts from at `seed`.
fn initial_policy(setup: &Setup, seed: u64) -> Arc<TwofoldPolicy> {
    let probe = EdaEnv::new(setup.frame.clone(), setup.config.env.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    Arc::new(TwofoldPolicy::new(
        probe.observation_dim(),
        probe.action_space().head_sizes(),
        TwofoldConfig {
            hidden: setup.config.hidden,
        },
        &mut rng,
    ))
}

fn new_trainer(setup: &Setup, seed: u64) -> Trainer {
    Trainer::new(
        initial_policy(setup, seed) as Arc<dyn Policy>,
        ActionMapper::Twofold,
        Arc::clone(&setup.reward) as Arc<dyn RewardModel>,
        &setup.frame,
        setup.config.env.clone(),
        setup.trainer(seed),
    )
}

/// A digest of the trainer's state after an iteration.
fn digest(
    steps: usize,
    episodes: usize,
    curve: &[CurvePoint],
    best: Option<&EpisodeRecord>,
    update: &UpdateStats,
) -> u64 {
    let mut h = DefaultHasher::new();
    steps.hash(&mut h);
    episodes.hash(&mut h);
    for p in curve {
        p.steps.hash(&mut h);
        p.mean_episode_reward.to_bits().hash(&mut h);
    }
    if let Some(best) = best {
        best.total_reward.to_bits().hash(&mut h);
        for op in &best.ops {
            op.to_string().hash(&mut h);
        }
    }
    for v in [
        update.policy_loss,
        update.value_loss,
        update.entropy,
        update.grad_norm,
        update.clip_fraction,
    ] {
        v.to_bits().hash(&mut h);
    }
    h.finish()
}

fn log_digest(log: &TrainLog) -> u64 {
    digest(
        log.steps,
        log.episodes,
        &log.curve,
        log.best_episode.as_ref(),
        &log.last_update,
    )
}

/// One timed PPO iteration.
#[derive(Clone, Copy)]
struct Iteration {
    secs: f64,
    digest: u64,
}

/// One pass over a trajectory, or a prefix of it.
#[derive(Default)]
struct Pass {
    iterations: Vec<Iteration>,
    /// Resident memory after each iteration, MiB.
    rss: Vec<f64>,
}

impl Pass {
    fn secs(&self) -> f64 {
        self.iterations.iter().map(|i| i.secs).sum()
    }

    fn digests(&self) -> impl Iterator<Item = u64> + '_ {
        self.iterations.iter().map(|i| i.digest)
    }
}

/// Train at `seed` for `iterations` iterations through the public
/// `Trainer`, timing each.
fn untraced_pass(setup: &Setup, seed: u64, iterations: usize) -> Pass {
    let mut trainer = new_trainer(setup, seed);
    let mut pass = Pass::default();
    for _ in 0..iterations {
        let start = now();
        let log = trainer.train(setup.iteration_steps());
        let secs = start.elapsed().as_secs_f64();
        pass.iterations.push(Iteration {
            secs,
            digest: log_digest(&log),
        });
        pass.rss.push(rss_mb());
    }
    pass
}

/// One environment lane of a traced trajectory, as the rollout sources
/// keep it.
struct Lane {
    env: EdaEnv,
    breakdown: RewardBreakdown,
    scored: u64,
}

/// Accumulators of a traced trajectory beyond its spans.
#[derive(Default)]
struct TracedTotals {
    busy_secs: f64,
    worker_wall_secs: f64,
    merge_secs: Vec<f64>,
    cache_hits: u64,
    cache_lookups: u64,
    evictions: u64,
}

/// Collect one lane's fragment of `iteration` exactly as the rollout
/// sources do, with every layer call in a span.
#[allow(clippy::too_many_arguments)]
fn traced_lane(
    lane: &mut Lane,
    lane_id: usize,
    iteration: usize,
    setup: &Setup,
    cfg: &TrainerConfig,
    policy: &TwofoldPolicy,
    cache: &DisplayCache,
    spans: &mut Spans,
) -> (RolloutBuffer, Vec<EpisodeRecord>) {
    let reward = setup.reward.as_ref();
    let mut rng = StdRng::seed_from_u64(stream_seed(cfg.seed, lane_id as u64, iteration as u64));
    let mut buffer = RolloutBuffer::new();
    let mut episodes = Vec::new();
    spans.enter("rl.lane");
    for _ in 0..cfg.rollout_len {
        let obs = spans.leaf("env.observation", || lane.env.observation());
        let step = spans.leaf("nn.act", || policy.act(&obs, cfg.temperature, &mut rng));
        let op = spans.leaf("env.resolve", || {
            match ActionMapper::Twofold.map(&step.choice) {
                MappedAction::Binned(a) => lane.env.resolve(&a),
                MappedAction::Term(a) => lane.env.resolve_flat_term(&a),
            }
        });
        let before = cache.stats();
        let start = now();
        let preview = lane.env.preview(&op);
        let secs = start.elapsed().as_secs_f64();
        // The cache is shared with the other worker, so a lookup counts as
        // a hit only when no miss at all was recorded during it.
        let hit = cache.stats().misses == before.misses;
        spans.record(preview_span(&op, hit), secs);
        let r = {
            let info = spans.leaf("env.step_info", || lane.env.step_info(&preview));
            let r = spans.leaf("reward.score", || reward.score(&info));
            if matches!(info.outcome, OpOutcome::Applied) {
                lane.scored += 1;
                if lane.scored.is_multiple_of(COMPONENT_SAMPLE) {
                    spans.leaf("reward.interestingness", || {
                        step_interestingness(&InterestingnessConfig::default(), &info)
                    });
                    spans.leaf("reward.diversity", || {
                        step_diversity(&DiversityConfig::default(), &info)
                    });
                    spans.leaf("reward.coherency", || reward.classifier().score(&info));
                }
            }
            r
        };
        spans.leaf("env.commit", || lane.env.commit(preview));
        lane.breakdown += r;
        let done = lane.env.done();
        buffer.push(RolloutStep {
            obs,
            choice: step.choice,
            log_prob: step.log_prob,
            value: step.value,
            reward: r.total as f32,
            done,
        });
        if done {
            episodes.push(EpisodeRecord {
                ops: lane
                    .env
                    .session()
                    .ops()
                    .iter()
                    .map(|o| o.op.clone())
                    .collect(),
                total_reward: lane.breakdown.total,
                breakdown: lane.breakdown,
            });
            lane.breakdown = RewardBreakdown::default();
            let seed = rng.gen();
            spans.leaf("env.reset", || lane.env.reset_with_seed(seed));
        }
    }
    spans.exit();
    (buffer, episodes)
}

/// A traced copy of the training at `seed`: the trainer's loop rebuilt
/// from public calls.
fn traced_pass(setup: &Setup, seed: u64, spans: &mut Spans, totals: &mut TracedTotals) -> Pass {
    let cfg = setup.trainer(seed);
    let policy = initial_policy(setup, seed);
    let mut learner = PpoLearner::new(policy.as_ref(), cfg.ppo);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let cache = Arc::new(DisplayCache::new(cfg.display_cache));
    let mut template_config = setup.config.env.clone();
    template_config.seed = stream_seed(cfg.seed, 0, STREAM_ENV);
    let template = EdaEnv::with_shared_base(Arc::new(setup.frame.clone()), template_config)
        .with_display_cache(Arc::clone(&cache));
    let mut lanes: Vec<Lane> = (0..cfg.n_lanes.max(1) as u64)
        .map(|lane| {
            let mut env = template.fork_with_seed(stream_seed(cfg.seed, lane, STREAM_ENV));
            env.reset_with_seed(stream_seed(cfg.seed, lane, STREAM_INIT));
            Lane {
                env,
                breakdown: RewardBreakdown::default(),
                scored: 0,
            }
        })
        .collect();
    let runtime = Runtime::new(cfg.n_workers.max(1));
    let cache_before = cache.stats();
    // The trainer's bookkeeping: running totals, a window of recent
    // episode rewards and the best episode so far.
    let (mut total_steps, mut total_episodes) = (0, 0);
    let mut recent: Vec<f64> = Vec::new();
    let mut best: Option<EpisodeRecord> = None;
    let mut pass = Pass::default();

    for iteration in 0..setup.iterations() {
        let start = now();
        // The lanes' spans join rl.collect as its children, so its self
        // time is what the scatter adds beyond the lanes.
        spans.enter("rl.collect");
        let fragments = runtime.scatter(&mut lanes, |lane_id, lane| {
            let mut lane_spans = Spans::default();
            let fragment = traced_lane(
                lane,
                lane_id,
                iteration,
                setup,
                &cfg,
                &policy,
                &cache,
                &mut lane_spans,
            );
            (fragment, lane_spans)
        });
        let mut buffer = RolloutBuffer::new();
        let mut episodes = Vec::new();
        for ((b, eps), lane_spans) in fragments {
            buffer.extend(b);
            episodes.extend(eps);
            spans.merge(lane_spans);
        }
        let collect_secs = spans.exit();
        let profile = runtime.last_profile();
        totals.busy_secs += profile.workers.iter().map(|w| w.busy_secs).sum::<f64>();
        totals.worker_wall_secs += runtime.workers() as f64 * collect_secs;
        totals.merge_secs.push(profile.merge_secs);

        total_steps += buffer.len();
        for ep in episodes {
            total_episodes += 1;
            recent.push(ep.total_reward);
            let window = cfg.eval_window.max(1);
            if recent.len() > window {
                let drop = recent.len() - window;
                recent.drain(..drop);
            }
            if best
                .as_ref()
                .is_none_or(|b| ep.total_reward > b.total_reward)
            {
                best = Some(ep);
            }
        }
        let update = spans.leaf("rl.ppo_update", || {
            learner.update(policy.as_ref(), &buffer, &mut rng)
        });
        let curve: Vec<CurvePoint> = (!recent.is_empty())
            .then(|| CurvePoint {
                steps: total_steps,
                mean_episode_reward: recent.iter().sum::<f64>() / recent.len() as f64,
            })
            .into_iter()
            .collect();
        pass.iterations.push(Iteration {
            secs: start.elapsed().as_secs_f64(),
            digest: digest(total_steps, total_episodes, &curve, best.as_ref(), &update),
        });
    }
    let after = cache.stats();
    totals.cache_hits += after.hits - cache_before.hits;
    totals.cache_lookups += after.hits + after.misses - cache_before.hits - cache_before.misses;
    totals.evictions += after.evictions - cache_before.evictions;
    pass
}

/// Set-up times of a run, seconds.
#[derive(Default)]
struct SetupTimes {
    data: Vec<f64>,
    fit: Vec<f64>,
    trainer: Vec<f64>,
    total: Vec<f64>,
}

/// Generate the data, fit the reward model and build a trainer, recording
/// how long each took.
fn timed_setup(workers: usize, times: &mut SetupTimes) -> Setup {
    let (ds, data_s) = time_secs(atena_data::cyber1);
    let config = config(workers);
    let (reward, fit_s) = time_secs(|| {
        Atena::new("cyber1", ds.frame.clone())
            .with_focal_attrs(ds.focal_attrs())
            .with_config(config.clone())
            .with_strategy(Strategy::Atena)
            .build_reward()
    });
    let setup = Setup {
        frame: ds.frame,
        reward: Arc::new(reward),
        config,
    };
    let (trainer, trainer_s) = time_secs(|| new_trainer(&setup, 0));
    drop(trainer);
    times.data.push(data_s);
    times.fit.push(fit_s);
    times.trainer.push(trainer_s);
    times.total.push(data_s + fit_s + trainer_s);
    setup
}

/// Whether two runs of one trajectory left the same digests, as far as
/// the shorter one went.
fn digests_agree(a: &Pass, b: &Pass) -> bool {
    a.digests().zip(b.digests()).all(|(x, y)| x == y)
}

/// Run the workload; per-layer metrics are added when `trace` is set.
pub fn run(seconds: f64, trace: bool, workers: usize) -> Outcome {
    let trajectories: Vec<u64> = (0..TRAJECTORIES).collect();
    let mut times = SetupTimes::default();
    let setup = (0..SETUP_REPEATS)
        .map(|_| timed_setup(workers, &mut times))
        .last()
        .expect("at least one set-up");
    let iterations = setup.iterations();

    // passes[k]: the untraced passes over trajectory k.
    let deadline = now() + Duration::from_secs_f64(seconds);
    let mut passes: Vec<Vec<Pass>> = (0..trajectories.len()).map(|_| Vec::new()).collect();
    let mut traced = None;
    let mut spans = Spans::default();
    let mut totals = TracedTotals::default();
    'passes: for pass in 0.. {
        for (k, &t) in trajectories.iter().enumerate() {
            if pass > 0 && now() >= deadline {
                break 'passes;
            }
            passes[k].push(untraced_pass(&setup, t, iterations));
            if trace && pass == 0 && k == 0 {
                traced = Some(traced_pass(&setup, t, &mut spans, &mut totals));
            }
        }
    }
    let replay = untraced_pass(&setup, trajectories[0], CHECK_ITERATIONS);

    let mut outcome = Outcome::default();
    outcome.check(
        passes
            .iter()
            .all(|p| p.iter().all(|pass| digests_agree(&p[0], pass))),
        "train digests differ between passes over one trajectory",
    );
    outcome.check(
        digests_agree(&passes[0][0], &replay),
        "a fresh trainer replaying the first iterations left other digests",
    );
    let first: Vec<&Pass> = passes.iter().map(|p| &p[0]).collect();
    let latencies: Vec<f64> = first
        .iter()
        .flat_map(|p| p.iterations.iter().map(|i| i.secs * 1e3))
        .collect();
    outcome.attempted = passes.iter().map(|p| p.len() * iterations).sum::<usize>() as u64;
    let secs: f64 = passes
        .iter()
        .map(|p| median(&p.iter().map(Pass::secs).collect::<Vec<_>>()).unwrap_or(0.0))
        .sum();
    let steps = trajectories.len() * iterations * setup.iteration_steps();
    let rss: Vec<f64> = first.iter().flat_map(|p| p.rss.iter().copied()).collect();
    let mut m = Metrics::default();
    m.put("throughput_per_s", steps as f64 / secs);
    m.put("latency_p50_ms", median(&latencies).unwrap_or(0.0));
    m.put_tail("latency_tail_ms", tail(&latencies));
    m.put("setup_s", median(&times.total).unwrap_or(0.0));
    m.put("rss_mb", median(&rss).unwrap_or(0.0));
    m.note(format!(
        "train: {TRAJECTORIES} trajectories of {iterations} PPO iterations ({steps} steps in \
         all), passes over them: {}, {workers} workers; latency is one iteration (collect + \
         update)",
        passes[0].len()
    ));

    m.put("setup.data_s", median(&times.data).unwrap_or(0.0));
    m.put("setup.reward_fit_s", median(&times.fit).unwrap_or(0.0));
    m.put("setup.engine_s", median(&times.trainer).unwrap_or(0.0));
    if let Some(traced) = traced {
        outcome.check(
            traced.iterations.len() == iterations && digests_agree(&passes[0][0], &traced),
            "traced train digests differ from the untraced ones",
        );
        m.put(
            "trace.overhead_share",
            traced.secs() / passes[0][0].secs() - 1.0,
        );
        // Lanes ran in parallel, so coverage is taken over the lanes' own
        // time and the update's, not over the collect wall time.
        let (lanes, update) = (spans.get("rl.lane"), spans.get("rl.ppo_update"));
        m.put(
            "trace.coverage_share",
            1.0 - lanes.self_secs / (lanes.total_secs + update.total_secs),
        );
        m.put(
            "runtime.worker_busy_share",
            totals.busy_secs / totals.worker_wall_secs,
        );
        m.put(
            "runtime.merge_ms",
            median(&totals.merge_secs).unwrap_or(0.0) * 1e3,
        );
        m.put(
            "env.display_cache.hit_share",
            totals.cache_hits as f64 / totals.cache_lookups.max(1) as f64,
        );
        m.put(
            "env.display_cache.evictions",
            totals.evictions as f64 * 1000.0 / totals.cache_lookups.max(1) as f64,
        );
        m.put_layer_spans(&spans);
        m.spans = Some(spans);
    }
    outcome.metrics = m;
    outcome
}
