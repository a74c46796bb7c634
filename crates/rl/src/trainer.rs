//! The training loop: a deterministic lane fleet (sharded over the
//! `atena-runtime` worker pool, each shard batched through one policy
//! forward per step — see DESIGN.md §4h, §4l) feeding the PPO learner,
//! with mean-episode-reward tracking for the convergence experiments
//! (Figure 5) and best-episode extraction for notebook generation. Worker
//! count changes wall-clock speed only: at a fixed seed the `TrainLog` is
//! bit-identical for any `n_workers`.

use crate::policy::{ActionMapper, Policy};
use crate::ppo::{PpoConfig, PpoLearner, UpdateStats};
use crate::rollout::RolloutBuffer;
use crate::source::{episode_record, step_env, RolloutPlan, Rollouts};
use atena_dataframe::DataFrame;
use atena_env::{EnvConfig, ResolvedOp, RewardBreakdown, RewardModel};
use atena_runtime::{stream_seed, STREAM_EVAL};
use atena_telemetry::{MetricsRegistry, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Trainer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainerConfig {
    /// PPO hyperparameters.
    pub ppo: PpoConfig,
    /// Steps each lane collects per iteration.
    pub rollout_len: usize,
    /// Number of episode lanes (independent environments collected per
    /// iteration). Part of the result: changing it changes the data the
    /// learner sees, like changing `rollout_len`.
    pub n_lanes: usize,
    /// Number of rollout threads. The lanes are sharded over them, and
    /// each shard steps its lanes through one batched policy forward per
    /// env step, so the shard size is also the batch size. Execution-only:
    /// any value produces bit-identical results at the same seed (the
    /// determinism contract, DESIGN.md §4h, §4l).
    pub n_workers: usize,
    /// Capacity of the display cache shared across the lane fleet (0
    /// disables it). Execution-only, like `n_workers`: the cache is pure
    /// memoization (DESIGN.md §4i), so any capacity produces bit-identical
    /// results at the same seed.
    pub display_cache: usize,
    /// Boltzmann exploration temperature.
    pub temperature: f32,
    /// Episodes averaged per convergence-curve point.
    pub eval_window: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self {
            ppo: PpoConfig::default(),
            rollout_len: 96,
            n_lanes: 4,
            n_workers: 4,
            display_cache: crate::source::DEFAULT_DISPLAY_CACHE,
            temperature: 1.0,
            eval_window: 20,
            seed: 0,
        }
    }
}

/// A completed episode: its operations and cumulative reward.
#[derive(Debug, Clone)]
pub struct EpisodeRecord {
    /// The resolved operations, in order.
    pub ops: Vec<ResolvedOp>,
    /// Cumulative (non-normalized) episode reward.
    pub total_reward: f64,
    /// Per-component decomposition of `total_reward` (summed per-step
    /// breakdowns; `breakdown.total == total_reward`).
    pub breakdown: RewardBreakdown,
}

/// One point of the learning curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CurvePoint {
    /// Global environment steps consumed so far.
    pub steps: usize,
    /// Mean episode reward over the recent window.
    pub mean_episode_reward: f64,
}

/// Output of a training run.
#[derive(Debug, Clone)]
pub struct TrainLog {
    /// Convergence curve (one point per iteration).
    pub curve: Vec<CurvePoint>,
    /// Total episodes completed.
    pub episodes: usize,
    /// Total environment steps consumed.
    pub steps: usize,
    /// Best episode seen during training.
    pub best_episode: Option<EpisodeRecord>,
    /// Diagnostics of the final PPO update.
    pub last_update: UpdateStats,
}

/// Everything worth reporting about one training iteration.
struct IterationStats {
    steps: usize,
    rollout_secs: f64,
    update_secs: f64,
    mean_reward: f64,
    update: UpdateStats,
}

/// Trains a policy on one dataset with a given reward model.
pub struct Trainer {
    policy: Arc<dyn Policy>,
    mapper: ActionMapper,
    reward: Arc<dyn RewardModel>,
    learner: PpoLearner,
    config: TrainerConfig,
    source: Rollouts,
    rng: StdRng,
    eval_rng: StdRng,
    recent_episodes: Vec<f64>,
    best_episode: Option<EpisodeRecord>,
    total_steps: usize,
    total_episodes: usize,
    total_iterations: usize,
    telemetry: Arc<MetricsRegistry>,
    tracer: Arc<Tracer>,
}

impl Trainer {
    /// Create a trainer. The lane fleet shares one copy of the dataset and
    /// is sharded over `config.n_workers` threads (which, per the
    /// determinism contract, does not affect results).
    pub fn new(
        policy: Arc<dyn Policy>,
        mapper: ActionMapper,
        reward: Arc<dyn RewardModel>,
        base: &DataFrame,
        env_config: EnvConfig,
        config: TrainerConfig,
    ) -> Self {
        let learner = PpoLearner::new(policy.as_ref(), config.ppo);
        let source = Rollouts::new(
            base,
            &env_config,
            config.n_lanes,
            config.seed,
            config.n_workers,
            config.display_cache,
        );
        Self {
            policy,
            mapper,
            reward,
            learner,
            config,
            source,
            rng: StdRng::seed_from_u64(config.seed),
            eval_rng: StdRng::seed_from_u64(stream_seed(config.seed, 0, STREAM_EVAL)),
            recent_episodes: Vec::new(),
            best_episode: None,
            total_steps: 0,
            total_episodes: 0,
            total_iterations: 0,
            telemetry: atena_telemetry::global_arc(),
            tracer: atena_telemetry::tracer_arc(),
        }
    }

    /// Route this trainer's metrics and events to `registry` instead of the
    /// process-wide one (used by tests to capture output in isolation).
    pub fn with_telemetry(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.telemetry = Arc::clone(&registry);
        self.source.set_telemetry(registry);
        self
    }

    /// Record this trainer's iteration span trees on `tracer` instead of
    /// the process-wide one (used by tests to capture spans in isolation).
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = tracer;
        self
    }

    /// The policy being trained.
    pub fn policy(&self) -> &Arc<dyn Policy> {
        &self.policy
    }

    /// Train for (at least) `total_steps` environment steps; returns the
    /// log including the convergence curve and the best episode.
    pub fn train(&mut self, total_steps: usize) -> TrainLog {
        let mut curve = Vec::new();
        let mut last_update = UpdateStats::default();
        let start = self.total_steps;
        // Tracing is execution-only (DESIGN.md §4j): spans measure wall
        // time with `Instant`, draw no randomness, and reorder nothing, so
        // results are bit-identical with the tracer enabled or disabled.
        let tracer = Arc::clone(&self.tracer);
        while self.total_steps - start < total_steps {
            let trace = tracer.trace("train.iteration");
            trace.attr("iter", self.total_iterations.to_string());
            let collect_span = trace.span("rollout.collect");
            let collect_id = collect_span.id();
            let (buffer, episodes) = self.collect_rollouts();
            let rollout_secs = collect_span.finish();
            if trace.is_recording() {
                // Worker busy times were measured on the rollout threads;
                // attach them post-hoc under the collect span. Their sum can
                // exceed the collect wall time — they ran in parallel.
                let profile = self.source.scatter_profile();
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
            let iter_steps = buffer.len();
            self.total_steps += iter_steps;
            for ep in episodes {
                self.total_episodes += 1;
                self.recent_episodes.push(ep.total_reward);
                let window = self.config.eval_window.max(1);
                if self.recent_episodes.len() > window {
                    let drop = self.recent_episodes.len() - window;
                    self.recent_episodes.drain(..drop);
                }
                self.record_episode(&ep.breakdown);
                let better = self
                    .best_episode
                    .as_ref()
                    .is_none_or(|b| ep.total_reward > b.total_reward);
                if better {
                    self.best_episode = Some(ep);
                }
            }
            let update_span = trace.span("ppo.update");
            let update_id = update_span.id();
            last_update = self
                .learner
                .update(self.policy.as_ref(), &buffer, &mut self.rng);
            let update_secs = update_span.finish();
            if trace.is_recording() {
                // Phase times summed over the minibatches, measured by the
                // learner; attached post-hoc under the update span.
                let phases = self.learner.last_profile();
                for (name, secs) in [
                    ("ppo.forward", phases.forward_secs),
                    ("ppo.backward", phases.backward_secs),
                    ("ppo.step", phases.step_secs),
                ] {
                    trace.record_exact(update_id, name, secs, vec![]);
                }
            }
            trace.attr("steps", iter_steps.to_string());
            let mean_reward = if self.recent_episodes.is_empty() {
                f64::NAN
            } else {
                self.recent_episodes.iter().sum::<f64>() / self.recent_episodes.len() as f64
            };
            if !self.recent_episodes.is_empty() {
                curve.push(CurvePoint {
                    steps: self.total_steps,
                    mean_episode_reward: mean_reward,
                });
            }
            self.record_iteration(IterationStats {
                steps: iter_steps,
                rollout_secs,
                update_secs,
                mean_reward,
                update: last_update,
            });
            self.total_iterations += 1;
        }
        self.telemetry.flush();
        TrainLog {
            curve,
            episodes: self.total_episodes,
            steps: self.total_steps,
            best_episode: self.best_episode.clone(),
            last_update,
        }
    }

    /// Update the aggregate metrics and (when a JSONL sink is attached)
    /// emit one `iteration` event bundle.
    fn record_iteration(&self, s: IterationStats) {
        let t = &self.telemetry;
        t.counter("train.steps").add(s.steps as u64);
        t.counter("train.iterations").inc();
        let temperature = self.config.temperature as f64;
        t.gauge("train.temperature").set(temperature);
        t.histogram("train.rollout_secs").record(s.rollout_secs);
        t.histogram("train.update_secs").record(s.update_secs);
        let steps_per_sec = s.steps as f64 / (s.rollout_secs + s.update_secs).max(1e-9);
        t.gauge("train.steps_per_sec").set(steps_per_sec);
        if !t.has_sink() {
            return;
        }
        let iter = self.total_iterations.to_string();
        let labels: &[(&str, String)] = &[("iter", iter)];
        t.emit("iteration", "train.steps_per_sec", steps_per_sec, labels);
        t.emit(
            "iteration",
            "train.mean_episode_reward",
            s.mean_reward,
            labels,
        );
        t.emit("iteration", "train.temperature", temperature, labels);
        t.emit("iteration", "train.rollout_secs", s.rollout_secs, labels);
        t.emit("iteration", "train.update_secs", s.update_secs, labels);
        t.emit(
            "iteration",
            "train.policy_loss",
            s.update.policy_loss as f64,
            labels,
        );
        t.emit(
            "iteration",
            "train.value_loss",
            s.update.value_loss as f64,
            labels,
        );
        t.emit(
            "iteration",
            "train.entropy",
            s.update.entropy as f64,
            labels,
        );
        t.emit(
            "iteration",
            "train.grad_norm",
            s.update.grad_norm as f64,
            labels,
        );
        t.emit(
            "iteration",
            "train.clip_fraction",
            s.update.clip_fraction as f64,
            labels,
        );
    }

    /// Count the episode and (when a sink is attached) emit its reward
    /// decomposition as `episode` events.
    fn record_episode(&self, b: &RewardBreakdown) {
        let t = &self.telemetry;
        t.counter("train.episodes").inc();
        if !t.has_sink() {
            return;
        }
        let ep = self.total_episodes.to_string();
        let labels: &[(&str, String)] = &[("episode", ep)];
        t.emit(
            "episode",
            "reward.interestingness",
            b.interestingness,
            labels,
        );
        t.emit("episode", "reward.diversity", b.diversity, labels);
        t.emit("episode", "reward.coherency", b.coherency, labels);
        t.emit("episode", "reward.penalty", b.penalty, labels);
        t.emit("episode", "reward.total", b.total, labels);
    }

    /// Collect one iteration of rollouts from the lane fleet.
    fn collect_rollouts(&mut self) -> (RolloutBuffer, Vec<EpisodeRecord>) {
        let plan = RolloutPlan {
            policy: self.policy.as_ref(),
            mapper: &self.mapper,
            reward: self.reward.as_ref(),
            rollout_len: self.config.rollout_len,
            temperature: self.config.temperature,
            base_seed: self.config.seed,
            iteration: self.total_iterations as u64,
        };
        self.source.collect(&plan)
    }

    /// Run `n` evaluation episodes at a (typically low) temperature without
    /// learning; returns the episode records. Evaluation draws from its own
    /// RNG stream (`STREAM_EVAL`), so it never perturbs training
    /// randomness — and is itself independent of the worker count.
    pub fn evaluate(&mut self, n: usize, temperature: f32) -> Vec<EpisodeRecord> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let seed = self.eval_rng.gen();
            let env = self.source.lane_env_mut(0);
            env.reset_with_seed(seed);
            let mut breakdown = RewardBreakdown::default();
            while !env.done() {
                let obs = env.observation();
                let step = self.policy.act(&obs, temperature, &mut self.eval_rng);
                let mapped = self.mapper.map(&step.choice);
                breakdown += step_env(env, &mapped, self.reward.as_ref());
            }
            out.push(episode_record(env, breakdown));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::twofold::{TwofoldConfig, TwofoldPolicy};
    use atena_dataframe::AttrRole;
    use atena_env::EdaEnv;
    use atena_reward::{CoherencyConfig, CompoundReward};

    fn base() -> DataFrame {
        DataFrame::builder()
            .str(
                "proto",
                AttrRole::Categorical,
                (0..60).map(|i| Some(if i % 5 == 0 { "icmp" } else { "tcp" })),
            )
            .str(
                "src",
                AttrRole::Categorical,
                (0..60).map(|i| Some(["a", "b", "c"][i % 3])),
            )
            .int(
                "len",
                AttrRole::Numeric,
                (0..60).map(|i| Some((i * 31 % 47) as i64)),
            )
            .build()
            .unwrap()
    }

    fn make_trainer(n_workers: usize, seed: u64) -> Trainer {
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
        Trainer::new(
            Arc::new(policy),
            ActionMapper::Twofold,
            Arc::new(reward),
            &base(),
            env_config,
            TrainerConfig {
                n_lanes: 2,
                n_workers,
                rollout_len: 48,
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
    }

    #[test]
    fn training_runs_and_logs_curve() {
        let mut t = make_trainer(2, 1);
        let log = t.train(300);
        assert!(log.steps >= 300);
        assert!(log.episodes > 10);
        assert!(!log.curve.is_empty());
        assert!(log.best_episode.is_some());
        let best = log.best_episode.unwrap();
        assert_eq!(best.ops.len(), 6);
        assert!(best.total_reward.is_finite());
    }

    #[test]
    fn training_improves_over_random() {
        let mut t = make_trainer(2, 7);
        let before: f64 = {
            let eps = t.evaluate(10, 1.0);
            eps.iter().map(|e| e.total_reward).sum::<f64>() / 10.0
        };
        t.train(2500);
        let after: f64 = {
            let eps = t.evaluate(10, 0.3);
            eps.iter().map(|e| e.total_reward).sum::<f64>() / 10.0
        };
        assert!(
            after > before,
            "no improvement: before {before:.3}, after {after:.3}"
        );
    }

    #[test]
    fn single_worker_deterministic_with_seed() {
        let run = |seed| {
            let mut t = make_trainer(1, seed);
            let log = t.train(120);
            log.best_episode.map(|e| e.total_reward)
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn worker_count_does_not_change_results() {
        // The determinism contract at trainer level: the full TrainLog —
        // curve, counters, best episode, final update diagnostics — is
        // bit-identical across worker counts, and so across the batch
        // sizes they shard the lanes into, at a fixed seed.
        let run = |n_workers| {
            let mut t = make_trainer(n_workers, 11);
            format!("{:?}", t.train(192))
        };
        let reference = run(1);
        for n_workers in [2, 3, 4] {
            assert_eq!(run(n_workers), reference, "workers={n_workers} diverged");
        }
    }

    #[test]
    fn evaluate_produces_full_episodes() {
        let mut t = make_trainer(1, 5);
        let eps = t.evaluate(3, 0.5);
        assert_eq!(eps.len(), 3);
        for e in eps {
            assert_eq!(e.ops.len(), 6);
        }
    }

    #[test]
    fn iteration_traces_cover_rollout_workers_and_update() {
        let tracer = Arc::new(Tracer::with_capacity(4096));
        tracer.set_enabled(true);
        let mut t = make_trainer(2, 17).with_tracer(Arc::clone(&tracer));
        t.train(96); // one iteration: 2 lanes × 48 steps
        let spans = tracer.snapshot();
        let by_name = |n: &str| spans.iter().filter(|s| s.name == n).count();
        assert_eq!(by_name("train.iteration"), 1);
        assert_eq!(by_name("rollout.collect"), 1);
        assert_eq!(by_name("ppo.update"), 1);
        assert_eq!(by_name("rollout.worker"), 2, "one span per rollout worker");
        assert_eq!(by_name("rollout.merge"), 1);
        let root = spans.iter().find(|s| s.name == "train.iteration").unwrap();
        let collect = spans.iter().find(|s| s.name == "rollout.collect").unwrap();
        assert_eq!(root.parent_id, 0);
        assert_eq!(collect.parent_id, root.span_id);
        for s in spans.iter().filter(|s| s.name == "rollout.worker") {
            assert_eq!(s.parent_id, collect.span_id);
            assert!(s.attrs.iter().any(|(k, _)| *k == "worker"));
        }
        let update = spans.iter().find(|s| s.name == "ppo.update").unwrap();
        assert_eq!(update.parent_id, root.span_id);
        let mut phase_secs = 0.0;
        for phase in ["ppo.forward", "ppo.backward", "ppo.step"] {
            assert_eq!(by_name(phase), 1, "one {phase} span per update");
            let s = spans.iter().find(|s| s.name == phase).unwrap();
            assert_eq!(s.parent_id, update.span_id, "{phase} sits under ppo.update");
            assert!(s.duration_secs > 0.0, "{phase} measured no time");
            phase_secs += s.duration_secs;
        }
        assert!(
            phase_secs <= update.duration_secs,
            "update phases sum to {phase_secs}s, more than the update's {}s",
            update.duration_secs
        );
        assert!(root.duration_secs >= collect.duration_secs);
        assert!(root.attrs.contains(&("iter", "0".to_string())));
    }

    #[test]
    fn tracing_does_not_change_results() {
        // The §4j half of the determinism contract at trainer level: span
        // emission is execution-only, so an enabled tracer produces a
        // bit-identical TrainLog.
        let run = |traced: bool| {
            let tracer = Arc::new(Tracer::new());
            tracer.set_enabled(traced);
            let mut t = make_trainer(2, 19).with_tracer(tracer);
            format!("{:?}", t.train(192))
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn evaluate_is_worker_count_independent() {
        let run = |n_workers| {
            let mut t = make_trainer(n_workers, 13);
            t.train(96);
            format!("{:?}", t.evaluate(4, 0.5))
        };
        assert_eq!(run(1), run(4));
    }
}
