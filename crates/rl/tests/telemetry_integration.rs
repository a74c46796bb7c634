//! Integration test: a short training run with a JSONL sink attached must
//! stream per-iteration diagnostics and per-episode reward decompositions
//! in the stable `{ts, kind, name, value, labels}` schema.

use atena_dataframe::{AttrRole, DataFrame};
use atena_env::{EdaEnv, EnvConfig};
use atena_reward::{CoherencyConfig, CompoundReward};
use atena_rl::{ActionMapper, PpoConfig, Trainer, TrainerConfig, TwofoldConfig, TwofoldPolicy};
use atena_telemetry::MetricsRegistry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

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

#[test]
fn train_streams_iteration_and_episode_events() {
    let env_config = EnvConfig {
        episode_len: 6,
        n_bins: 5,
        history_window: 3,
        seed: 11,
    };
    let probe = EdaEnv::new(base(), env_config.clone());
    let mut rng = StdRng::seed_from_u64(11);
    let policy = TwofoldPolicy::new(
        probe.observation_dim(),
        probe.action_space().head_sizes(),
        TwofoldConfig { hidden: [32, 32] },
        &mut rng,
    );
    let mut reward = CompoundReward::new(CoherencyConfig::with_focal_attrs(vec!["src".into()]));
    let mut fit_env = EdaEnv::new(base(), env_config.clone());
    reward.fit(&mut fit_env, 120, 11);

    let dir = std::env::temp_dir().join("atena-rl-telemetry-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("train.jsonl");
    let registry = Arc::new(MetricsRegistry::new());
    registry.set_jsonl_sink(&path).unwrap();

    let mut trainer = Trainer::new(
        Arc::new(policy),
        ActionMapper::Twofold,
        Arc::new(reward),
        &base(),
        env_config,
        TrainerConfig {
            n_lanes: 2,
            n_workers: 2,
            rollout_len: 48,
            seed: 11,
            ppo: PpoConfig {
                minibatch: 32,
                epochs: 2,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .with_telemetry(Arc::clone(&registry));
    // Two iterations' worth of steps (2 lanes x 48 per iteration).
    trainer.train(192);

    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    assert!(!lines.is_empty(), "sink file is empty");
    // Stable schema on every line.
    for line in &lines {
        for field in [
            "\"ts\":",
            "\"kind\":",
            "\"name\":",
            "\"value\":",
            "\"labels\":",
        ] {
            assert!(line.contains(field), "missing {field} in {line}");
        }
    }
    // At least one full iteration record.
    let iteration_lines: Vec<&&str> = lines
        .iter()
        .filter(|l| l.contains("\"kind\":\"iteration\""))
        .collect();
    assert!(
        !iteration_lines.is_empty(),
        "no iteration events in:\n{text}"
    );
    for name in [
        "train.steps_per_sec",
        "train.mean_episode_reward",
        "train.temperature",
        "train.rollout_secs",
        "train.update_secs",
        "train.policy_loss",
        "train.value_loss",
        "train.entropy",
        "train.grad_norm",
        "train.clip_fraction",
    ] {
        assert!(
            iteration_lines
                .iter()
                .any(|l| l.contains(&format!("\"{name}\""))),
            "no iteration event named {name} in:\n{text}"
        );
    }
    // Per-episode reward decomposition carries all three components (plus
    // penalty and total).
    let episode_lines: Vec<&&str> = lines
        .iter()
        .filter(|l| l.contains("\"kind\":\"episode\""))
        .collect();
    assert!(!episode_lines.is_empty(), "no episode events in:\n{text}");
    for name in [
        "reward.interestingness",
        "reward.diversity",
        "reward.coherency",
        "reward.penalty",
        "reward.total",
    ] {
        assert!(
            episode_lines
                .iter()
                .any(|l| l.contains(&format!("\"{name}\""))),
            "no episode event named {name} in:\n{text}"
        );
    }
    // Aggregate counters were kept alongside the event stream.
    assert!(registry.counter("train.iterations").get() >= 2);
    assert!(registry.counter("train.steps").get() >= 192);
    assert!(registry.counter("train.episodes").get() >= 1);
    // The lane environments count one op per step in the same registry.
    let snap = registry.snapshot();
    let ops: u64 = ["env.op.filter", "env.op.group", "env.op.back"]
        .iter()
        .map(|name| snap.counter(name).unwrap_or(0))
        .sum();
    assert_eq!(ops, registry.counter("train.steps").get());
    assert!(snap.counter("env.op.invalid").is_some());
    assert_eq!(registry.histogram("env.step_secs").count(), ops);
}
