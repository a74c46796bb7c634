//! Rollout collection: where the trainer's experience comes from.
//!
//! [`Rollouts`] owns a fleet of episode *lanes* — independent
//! [`EdaEnv`]s that persist across iterations — sharded over an
//! [`atena_runtime::Runtime`]. Each shard steps its lanes in lockstep: one
//! `[lanes_in_shard, obs_dim]` policy forward per environment step, then
//! per-lane sampling and stepping in lane order. The batch size is the
//! shard size, so the worker count alone sets the schedule: `workers >=
//! n_lanes` steps every lane on its own, `workers = 1` batches all lanes.
//!
//! The determinism contract (DESIGN.md §4h, §4l) is enforced here:
//!
//! - lane `l`'s randomness at iteration `k` comes from the counter-derived
//!   stream `stream_seed(base_seed, l, k)` — never from a shared stateful
//!   RNG, so it cannot depend on scheduling;
//! - the batched forward is row-independent and every lane samples from
//!   its own stream, so a lane's trajectory does not depend on which lanes
//!   share its batch;
//! - fragments are merged in lane order, so the buffer layout depends
//!   only on `(n_lanes, rollout_len)`.

use crate::policy::{ActionMapper, MappedAction, Policy, PolicyStep};
use crate::rollout::{RolloutBuffer, RolloutStep};
use crate::trainer::EpisodeRecord;
use atena_batch::BatchPlanner;
use atena_dataframe::DataFrame;
use atena_env::{DisplayCache, EdaEnv, EnvConfig, RewardBreakdown, RewardModel};
use atena_runtime::{stream_seed, Runtime, ScatterProfile, STREAM_ENV, STREAM_INIT};
use atena_telemetry::MetricsRegistry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Everything the fleet needs to collect one iteration of experience.
///
/// Borrowed, not owned: the plan is rebuilt by the trainer each iteration
/// with the current iteration counter.
pub struct RolloutPlan<'a> {
    /// The policy to sample actions from (read-only snapshot).
    pub policy: &'a dyn Policy,
    /// Decodes policy choices into environment actions.
    pub mapper: &'a ActionMapper,
    /// Scores each transition.
    pub reward: &'a dyn RewardModel,
    /// Steps to collect per lane.
    pub rollout_len: usize,
    /// Boltzmann exploration temperature.
    pub temperature: f32,
    /// Master seed the per-lane streams are derived from.
    pub base_seed: u64,
    /// Training iteration counter (selects the per-lane RNG stream).
    pub iteration: u64,
}

/// Transitions and completed episodes collected from one or more lanes.
type Fragment = (RolloutBuffer, Vec<EpisodeRecord>);

/// One episode lane: an environment plus the reward breakdown of its
/// running episode, which survives iteration boundaries (episodes need not
/// align with rollout fragments).
struct Lane {
    env: EdaEnv,
    breakdown: RewardBreakdown,
}

impl Lane {
    /// Take the policy's sampled `step` at observation `obs`: score it,
    /// append the transition to `fragment`, and at an episode's end record
    /// the episode and reset with a seed drawn from the lane's `rng`.
    fn advance(
        &mut self,
        obs: Vec<f32>,
        step: PolicyStep,
        rng: &mut StdRng,
        plan: &RolloutPlan<'_>,
        fragment: &mut Fragment,
    ) {
        let r = step_env(&mut self.env, &plan.mapper.map(&step.choice), plan.reward);
        self.breakdown += r;
        let done = self.env.done();
        fragment.0.push(RolloutStep {
            obs,
            choice: step.choice,
            log_prob: step.log_prob,
            value: step.value,
            reward: r.total as f32,
            done,
        });
        if done {
            fragment.1.push(episode_record(&self.env, self.breakdown));
            self.breakdown = RewardBreakdown::default();
            self.env.reset_with_seed(rng.gen());
        }
    }
}

/// Default capacity of the display cache the lane fleet shares (see
/// [`DisplayCache`]; 0 disables caching).
pub const DEFAULT_DISPLAY_CACHE: usize = 1024;

/// Apply a mapped action to the environment, scoring it with the reward
/// model; returns the per-component reward breakdown.
pub(crate) fn step_env(
    env: &mut EdaEnv,
    action: &MappedAction,
    reward: &dyn RewardModel,
) -> RewardBreakdown {
    // atena-lint: allow(wall-clock) — rollout timing telemetry; never affects results
    let start = Instant::now();
    let op = match action {
        MappedAction::Binned(a) => env.resolve(a),
        MappedAction::Term(a) => env.resolve_flat_term(a),
    };
    let preview = env.preview(&op);
    let r = {
        let info = env.step_info(&preview);
        reward.score(&info)
    };
    env.commit(preview);
    env.step_latency_histogram()
        .record_duration(start.elapsed());
    r
}

/// Snapshot the environment's completed session as an [`EpisodeRecord`].
pub(crate) fn episode_record(env: &EdaEnv, breakdown: RewardBreakdown) -> EpisodeRecord {
    EpisodeRecord {
        ops: env.session().ops().iter().map(|o| o.op.clone()).collect(),
        total_reward: breakdown.total,
        breakdown,
    }
}

/// Concatenate fragments, already in lane order, into one.
fn merge(fragments: Vec<Fragment>) -> Fragment {
    let mut merged = Fragment::default();
    for (buffer, episodes) in fragments {
        merged.0.extend(buffer);
        merged.1.extend(episodes);
    }
    merged
}

/// Collect one fragment from every lane of a shard, stepping the lanes in
/// lockstep through one batched policy forward per environment step.
///
/// Each lane's RNG for this iteration is derived fresh from its
/// coordinates and draws in the order the lane's own loop would, so this
/// function's effects do not depend on where the shard starts or ends, or
/// on which thread runs it.
fn run_shard(lanes: &mut [Lane], first_lane: usize, plan: &RolloutPlan<'_>) -> Fragment {
    let planner = BatchPlanner::new(plan.policy.obs_dim(), lanes.len());
    let mut rngs: Vec<StdRng> = (first_lane..first_lane + lanes.len())
        .map(|lane| StdRng::seed_from_u64(stream_seed(plan.base_seed, lane as u64, plan.iteration)))
        .collect();
    let mut fragments: Vec<Fragment> = lanes.iter().map(|_| Fragment::default()).collect();
    for _ in 0..plan.rollout_len {
        let obs: Vec<Vec<f32>> = lanes.iter().map(|l| l.env.observation()).collect();
        let rows = planner.run(&obs, |batch| {
            plan.policy
                .forward_rows(batch, plan.temperature)
                .unwrap_or_else(|e| panic!("policy forward failed: {e}"))
        });
        for (i, (row, obs)) in rows.into_iter().zip(obs).enumerate() {
            let step = row.sample(&mut rngs[i]);
            lanes[i].advance(obs, step, &mut rngs[i], plan, &mut fragments[i]);
        }
    }
    merge(fragments)
}

/// The lane fleet: `n_lanes` lanes sharded over a [`Runtime`], each shard
/// stepped in lockstep through batched policy forwards.
///
/// The worker count sets the shard size, and with it the batch size. Both
/// are execution-only: RNG streams are per-lane and counter-derived, the
/// forward kernels are row-independent, and shards merge in lane order,
/// so any worker count collects bit-identical transcripts.
pub struct Rollouts {
    lanes: Vec<Lane>,
    runtime: Runtime,
    telemetry: Arc<MetricsRegistry>,
    cache: Option<Arc<DisplayCache>>,
}

impl Rollouts {
    /// Build `n_lanes` lanes (at least one) over `base`, seeded from
    /// `base_seed`, collected by `workers` threads and sharing a display
    /// cache of `cache_capacity` entries (0 runs uncached). Each lane is a
    /// cheap fork of one template environment (shared base frame, shared
    /// action-space construction) with its own counter-derived config seed
    /// and initial episode seed. Worker count and cache capacity change
    /// speed, never transcripts.
    pub fn new(
        base: &DataFrame,
        env_config: &EnvConfig,
        n_lanes: usize,
        base_seed: u64,
        workers: usize,
        cache_capacity: usize,
    ) -> Self {
        let cache = (cache_capacity > 0).then(|| Arc::new(DisplayCache::new(cache_capacity)));
        let mut template_config = env_config.clone();
        template_config.seed = stream_seed(base_seed, 0, STREAM_ENV);
        let mut template = EdaEnv::with_shared_base(Arc::new(base.clone()), template_config);
        if let Some(cache) = &cache {
            template = template.with_display_cache(Arc::clone(cache));
        }
        let lanes = (0..n_lanes.max(1) as u64)
            .map(|lane| {
                let mut env = template.fork_with_seed(stream_seed(base_seed, lane, STREAM_ENV));
                env.reset_with_seed(stream_seed(base_seed, lane, STREAM_INIT));
                Lane {
                    env,
                    breakdown: RewardBreakdown::default(),
                }
            })
            .collect();
        Self {
            lanes,
            runtime: Runtime::new(workers),
            telemetry: atena_telemetry::global_arc(),
            cache,
        }
    }

    /// Collect `rollout_len` steps from every lane; fragments merged in
    /// lane order. Records each worker's environment steps on the
    /// `runtime.worker.{w}.steps` counters.
    pub fn collect(&mut self, plan: &RolloutPlan<'_>) -> (RolloutBuffer, Vec<EpisodeRecord>) {
        let shards = self
            .runtime
            .scatter_shards(&mut self.lanes, |first_lane, lanes| {
                run_shard(lanes, first_lane, plan)
            });
        for (w, (buffer, _)) in shards.iter().enumerate() {
            self.telemetry
                .counter(&format!("runtime.worker.{w}.steps"))
                .add(buffer.len() as u64);
        }
        merge(shards)
    }

    /// Mutable access to one lane's environment (evaluation episodes
    /// borrow lane 0).
    pub(crate) fn lane_env_mut(&mut self, lane: usize) -> &mut EdaEnv {
        &mut self.lanes[lane].env
    }

    /// Reroute the fleet's metrics (worker counters, runtime profile
    /// telemetry, display-cache counters, the lane environments' op and
    /// step counters) to `registry`.
    pub fn set_telemetry(&mut self, registry: Arc<MetricsRegistry>) {
        if let Some(cache) = &self.cache {
            cache.reroute_telemetry(&registry);
        }
        for lane in &mut self.lanes {
            lane.env.reroute_telemetry(&registry);
        }
        self.runtime = self.runtime.clone().with_telemetry(Arc::clone(&registry));
        self.telemetry = registry;
    }

    /// Timing profile of the most recent `collect` (per-worker busy time,
    /// merge cost). Read-only observability: feeding it anywhere back into
    /// collection would break the determinism contract.
    pub fn scatter_profile(&self) -> ScatterProfile {
        self.runtime.last_profile()
    }

    /// The display cache shared by the lanes, if enabled.
    pub fn display_cache(&self) -> Option<&Arc<DisplayCache>> {
        self.cache.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::twofold::{TwofoldConfig, TwofoldPolicy};
    use atena_dataframe::AttrRole;
    use atena_reward::{CoherencyConfig, CompoundReward};

    fn base() -> DataFrame {
        DataFrame::builder()
            .str(
                "proto",
                AttrRole::Categorical,
                (0..48).map(|i| Some(if i % 4 == 0 { "udp" } else { "tcp" })),
            )
            .int(
                "len",
                AttrRole::Numeric,
                (0..48).map(|i| Some((i * 17 % 29) as i64)),
            )
            .build()
            .unwrap()
    }

    fn env_config() -> EnvConfig {
        EnvConfig {
            episode_len: 4,
            n_bins: 5,
            history_window: 3,
            seed: 9,
        }
    }

    /// The reference schedule: one lane stepped on its own with
    /// [`Policy::act`], one `[1, obs_dim]` forward per step.
    fn run_lane(lane: &mut Lane, lane_id: usize, plan: &RolloutPlan<'_>) -> Fragment {
        let mut rng =
            StdRng::seed_from_u64(stream_seed(plan.base_seed, lane_id as u64, plan.iteration));
        let mut fragment = Fragment::default();
        for _ in 0..plan.rollout_len {
            let obs = lane.env.observation();
            let step = plan.policy.act(&obs, plan.temperature, &mut rng);
            lane.advance(obs, step, &mut rng, plan, &mut fragment);
        }
        fragment
    }

    #[test]
    fn sharded_batched_rollouts_match_the_per_lane_oracle() {
        const ITERATIONS: u64 = 3;
        const ROLLOUT_LEN: usize = 24;
        let frame = base();
        let probe = EdaEnv::new(frame.clone(), env_config());
        let policy = TwofoldPolicy::new(
            probe.observation_dim(),
            probe.action_space().head_sizes(),
            TwofoldConfig { hidden: [16, 16] },
            &mut StdRng::seed_from_u64(9),
        );
        let mut reward =
            CompoundReward::new(CoherencyConfig::with_focal_attrs(vec!["proto".into()]));
        reward.fit(&mut EdaEnv::new(frame.clone(), env_config()), 60, 9);
        let mapper = ActionMapper::Twofold;
        let transcript = |collect: &mut dyn FnMut(&RolloutPlan<'_>) -> Fragment| {
            let mut out = String::new();
            for iteration in 0..ITERATIONS {
                let plan = RolloutPlan {
                    policy: &policy,
                    mapper: &mapper,
                    reward: &reward,
                    rollout_len: ROLLOUT_LEN,
                    temperature: 1.0,
                    base_seed: 9,
                    iteration,
                };
                let (buffer, episodes) = collect(&plan);
                out.push_str(&format!("{:?}|{:?}\n", buffer.steps(), episodes));
            }
            out
        };
        // Workers 3 over 4 lanes and 7 over 8 give uneven shards (batches
        // of 2, 1, 1 and 2, 1, ..., 1); workers above the lane count clamp.
        for lanes in [1, 3, 4, 8] {
            for cache in [0, 1024] {
                let mut oracle = Rollouts::new(&frame, &env_config(), lanes, 9, 1, cache);
                let reference = transcript(&mut |plan| {
                    let fragments = oracle
                        .lanes
                        .iter_mut()
                        .enumerate()
                        .map(|(lane_id, lane)| run_lane(lane, lane_id, plan))
                        .collect();
                    merge(fragments)
                });
                for workers in [1, 2, 3, 4, 7] {
                    let registry = Arc::new(MetricsRegistry::new());
                    let mut source = Rollouts::new(&frame, &env_config(), lanes, 9, workers, cache);
                    source.set_telemetry(Arc::clone(&registry));
                    assert_eq!(source.display_cache().is_some(), cache > 0);
                    let label = format!("workers={workers} lanes={lanes} cache={cache}");
                    assert_eq!(
                        transcript(&mut |plan| source.collect(plan)),
                        reference,
                        "{label} diverged from the per-lane oracle"
                    );
                    let snap = registry.snapshot();
                    let steps: u64 = (0..workers)
                        .filter_map(|w| snap.counter(&format!("runtime.worker.{w}.steps")))
                        .sum();
                    assert_eq!(
                        steps,
                        (lanes * ROLLOUT_LEN) as u64 * ITERATIONS,
                        "{label} step accounting"
                    );
                    assert_eq!(
                        source.scatter_profile().workers.len(),
                        workers.min(lanes),
                        "{label} shard count"
                    );
                }
            }
        }
    }

    #[test]
    fn lane_fleet_shares_one_base_frame() {
        let source = Rollouts::new(&base(), &env_config(), 6, 1, 1, DEFAULT_DISPLAY_CACHE);
        assert_eq!(source.lanes.len(), 6);
        // All lanes observe the same dataset through the same Arc.
        let rows = source.lanes[0].env.base().n_rows();
        for lane in &source.lanes {
            assert_eq!(lane.env.base().n_rows(), rows);
            assert!(std::sync::Arc::ptr_eq(
                lane.env.base_arc(),
                source.lanes[0].env.base_arc()
            ));
        }
    }
}
