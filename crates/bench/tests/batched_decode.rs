//! Batched inference on the decode-replay workload (DESIGN.md §4l): the
//! inference server's workload — greedy decodes at near-zero temperature
//! cycling through a small pool of request seeds, so every seed after the
//! first pass replays an operation path already in the display cache —
//! stepped through the pre-batching autodiff engine
//! (`TwofoldPolicy::act_via_graph`, one fresh graph and a full set of
//! weight snapshots per step) and through lane-batched `[batch, obs_dim]`
//! forwards at several batch sizes.
//!
//! Each episode is digested on its own — every step's log-prob and value
//! estimate, then the observation the step led to — and a run is the
//! sorted list of its episode digests, so it depends only on the *set* of
//! decoded episodes and any batch size compares bit for bit against the
//! graph engine. The timing gate only means something in an optimised
//! build:
//!
//! ```text
//! cargo test --release -p atena-bench --test batched_decode
//! ```

use atena_batch::BatchPlanner;
use atena_core::AtenaConfig;
use atena_dataframe::DataFrame;
use atena_env::{DisplayCache, EdaEnv, EnvConfig};
use atena_rl::{Policy, PolicyStep, TwofoldConfig, TwofoldPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Near-greedy sampling, as the server decodes.
const DECODE_TEMPERATURE: f32 = 1e-3;
/// Request seeds the replay cycles through.
const SEED_POOL: u64 = 4;
/// Display-cache capacity, shared by every lane of a run.
const CACHE_CAPACITY: usize = 4096;

/// An untrained twofold policy over Flights #1 and the env config it
/// decodes under.
struct Workload {
    frame: DataFrame,
    env: EnvConfig,
    policy: TwofoldPolicy,
}

fn workload() -> Workload {
    let dataset = atena_data::dataset_by_id("flights1").expect("flights1 is built in");
    let env = AtenaConfig::quick().env;
    let probe = EdaEnv::new(dataset.frame.clone(), env.clone());
    let policy = TwofoldPolicy::new(
        probe.observation_dim(),
        probe.action_space().head_sizes(),
        TwofoldConfig { hidden: [64, 64] },
        &mut StdRng::seed_from_u64(0),
    );
    Workload {
        frame: dataset.frame,
        env,
        policy,
    }
}

/// One decode run: every episode's digest, sorted, the env steps taken,
/// and the wall time in total and inside the engine's forwards.
struct Run {
    episodes: Vec<u64>,
    steps: u64,
    secs: f64,
    forward: Duration,
}

impl Run {
    fn steps_per_sec(&self) -> f64 {
        self.steps as f64 / self.secs.max(1e-9)
    }

    /// Policy rows through the engine per second of forward time.
    fn forward_rows_per_sec(&self) -> f64 {
        self.steps as f64 / self.forward.as_secs_f64().max(1e-9)
    }
}

/// Fold one decode step into an episode digest: the engine's outputs for
/// this lane's row, then the observation its action led to.
fn fold(digest: u64, step: &PolicyStep, observation: &[f32]) -> u64 {
    [step.log_prob, step.value]
        .iter()
        .chain(observation)
        .fold(digest, |d, x| {
            d.rotate_left(7).wrapping_add(u64::from(x.to_bits()))
        })
}

/// The inference engine a decode run steps its lanes through.
#[derive(Clone, Copy)]
enum Engine {
    /// One lane, one `act_via_graph` call per step.
    Graph,
    /// This many lanes in lockstep, one `[lanes, obs_dim]` forward per step.
    Batched(usize),
}

/// `episodes` episodes decoded through `engine`. Lane `l` of round `r`
/// decodes episode `r·lanes + l`.
fn decode(w: &Workload, episodes: u64, engine: Engine) -> Run {
    let lanes = match engine {
        Engine::Graph => 1,
        Engine::Batched(batch) => batch,
    };
    let cache = Arc::new(DisplayCache::new(CACHE_CAPACITY));
    let base = Arc::new(w.frame.clone());
    let mut envs: Vec<EdaEnv> = (0..lanes)
        .map(|_| {
            EdaEnv::with_shared_base(Arc::clone(&base), w.env.clone())
                .with_display_cache(Arc::clone(&cache))
        })
        .collect();
    let planner = BatchPlanner::new(w.policy.obs_dim(), lanes);
    let start = Instant::now();
    let (mut digests, mut steps, mut forward) = (Vec::new(), 0u64, Duration::ZERO);
    let mut next_episode = 0u64;
    while next_episode < episodes {
        let active = (episodes - next_episode).min(lanes as u64) as usize;
        let mut rngs = Vec::with_capacity(active);
        for (l, env) in envs[..active].iter_mut().enumerate() {
            let seed = (next_episode + l as u64) % SEED_POOL;
            env.reset_with_seed(seed);
            rngs.push(StdRng::seed_from_u64(seed));
        }
        let mut episode_digests = vec![0u64; active];
        // Every lane has the same episode length, so all finish together.
        while !envs[0].done() {
            let obs: Vec<Vec<f32>> = envs[..active].iter().map(EdaEnv::observation).collect();
            // Forward time: the graph engine samples inside `act_via_graph`;
            // the batched engine's per-lane sampling runs after the clock.
            let forward_start = Instant::now();
            let policy_steps: Vec<PolicyStep> = match engine {
                Engine::Graph => {
                    let step = w
                        .policy
                        .act_via_graph(&obs[0], DECODE_TEMPERATURE, &mut rngs[0]);
                    forward += forward_start.elapsed();
                    vec![step]
                }
                Engine::Batched(_) => {
                    let rows = planner.run(&obs, |b| {
                        w.policy
                            .forward_rows(b, DECODE_TEMPERATURE)
                            .expect("policy accepts gathered observations")
                    });
                    forward += forward_start.elapsed();
                    rows.into_iter()
                        .zip(&mut rngs)
                        .map(|(row, rng)| row.sample(rng))
                        .collect()
                }
            };
            for (l, step) in policy_steps.iter().enumerate() {
                let action = step
                    .choice
                    .to_eda_action()
                    .expect("twofold policy emits twofold choices");
                let observation = envs[l].step(&action).observation;
                episode_digests[l] = fold(episode_digests[l], step, &observation);
                steps += 1;
            }
        }
        digests.extend(episode_digests);
        next_episode += active as u64;
    }
    let secs = start.elapsed().as_secs_f64();
    digests.sort_unstable();
    Run {
        episodes: digests,
        steps,
        secs,
        forward,
    }
}

/// Batching changes speed, never bytes: the graph engine and every batch
/// size decode bit-identical episodes, including a last round with fewer
/// episodes than lanes.
#[test]
fn graph_and_every_batch_size_decode_identical_episodes() {
    let w = workload();
    let episodes = 20;
    let graph = decode(&w, episodes, Engine::Graph);
    assert_eq!(graph.steps, episodes * w.env.episode_len as u64);
    for batch in [1, 4, 8] {
        let run = decode(&w, episodes, Engine::Batched(batch));
        assert_eq!(run.steps, graph.steps, "batch {batch}");
        assert_eq!(
            run.episodes, graph.episodes,
            "batch {batch} diverged from the graph engine"
        );
    }
}

/// The batched engine's reason to exist: at batch 8 it pushes at least 2×
/// the graph engine's forward rows per second, and is faster end to end
/// (env stepping included) on the 1,024-episode replay.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: run with --release")]
fn batch_8_outruns_the_graph_engine_on_the_decode_replay() {
    let w = workload();
    let episodes = 1024;
    let graph = decode(&w, episodes, Engine::Graph);
    let batch8 = decode(&w, episodes, Engine::Batched(8));
    assert!(batch8.episodes == graph.episodes, "batch 8 diverged");
    let forward_speedup = batch8.forward_rows_per_sec() / graph.forward_rows_per_sec();
    let speedup = batch8.steps_per_sec() / graph.steps_per_sec();
    eprintln!(
        "batch 8 vs graph: forward rows/s {forward_speedup:.2}x, end-to-end steps/s {speedup:.2}x \
         ({:.0} vs {:.0} steps/s)",
        batch8.steps_per_sec(),
        graph.steps_per_sec()
    );
    assert!(
        forward_speedup >= 2.0,
        "forward speedup {forward_speedup:.2}x < 2x"
    );
    assert!(speedup > 1.0, "end-to-end speedup {speedup:.2}x <= 1x");
}
