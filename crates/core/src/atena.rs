//! The top-level ATENA API: configure, train, and generate an EDA notebook
//! for a dataset (paper §3, "System Workflow").

use crate::notebook::Notebook;
use atena_dataframe::DataFrame;
use atena_env::{EdaEnv, EnvConfig};
use atena_reward::{CoherencyConfig, CompoundReward, RewardComponents};
use atena_rl::{
    ActionMapper, CurvePoint, FlatPolicy, GreedyConfig, Policy, Trainer, TrainerConfig,
    TwofoldConfig, TwofoldPolicy,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Generation configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AtenaConfig {
    /// Environment configuration (episode length = notebook length, bins…).
    pub env: EnvConfig,
    /// Trainer configuration (PPO, workers, exploration).
    pub trainer: TrainerConfig,
    /// Environment steps to train for.
    pub train_steps: usize,
    /// Random-policy probe steps used to fit the coherency label model and
    /// balance the reward weights.
    pub probe_steps: usize,
    /// Hidden layer widths of the policy trunk.
    pub hidden: [usize; 2],
    /// Cap on filter terms per column for the OTS-DRL explicit-term
    /// enumeration (paper footnote 2 uses 10).
    pub flat_term_cap: usize,
}

impl Default for AtenaConfig {
    fn default() -> Self {
        Self {
            env: EnvConfig::default(),
            trainer: TrainerConfig::default(),
            train_steps: 20_000,
            probe_steps: 400,
            hidden: [128, 128],
            flat_term_cap: 10,
        }
    }
}

impl AtenaConfig {
    /// A reduced schedule for tests and quick demos.
    pub fn quick() -> Self {
        Self {
            env: EnvConfig {
                episode_len: 8,
                n_bins: 8,
                history_window: 3,
                seed: 0,
            },
            trainer: TrainerConfig {
                n_lanes: 2,
                n_workers: 2,
                rollout_len: 64,
                ..Default::default()
            },
            train_steps: 2_000,
            probe_steps: 150,
            hidden: [64, 64],
            flat_term_cap: 10,
        }
    }
}

/// The generation strategy: full ATENA or one of the paper's baselines
/// (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Strategy {
    /// Twofold DRL architecture, compound reward (the system).
    Atena,
    /// Twofold DRL architecture, interestingness-only reward (ATN-IO, 3B).
    AtnIo,
    /// Flat softmax with explicit filter terms, compound reward (OTS-DRL, 4A).
    OtsDrl,
    /// Flat softmax with frequency binning, compound reward (OTS-DRL-B, 4B).
    OtsDrlB,
    /// Greedy one-step lookahead on the compound reward (Greedy-CR, 4C).
    GreedyCr,
    /// Greedy one-step lookahead on interestingness only (Greedy-IO, 3A).
    GreedyIo,
}

impl Strategy {
    /// All strategies in the order Table 2 reports them.
    pub const ALL: [Strategy; 6] = [
        Strategy::AtnIo,
        Strategy::GreedyIo,
        Strategy::OtsDrl,
        Strategy::GreedyCr,
        Strategy::OtsDrlB,
        Strategy::Atena,
    ];

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Atena => "ATENA",
            Strategy::AtnIo => "ATN-IO",
            Strategy::OtsDrl => "OTS-DRL",
            Strategy::OtsDrlB => "OTS-DRL-B",
            Strategy::GreedyCr => "Greedy-CR",
            Strategy::GreedyIo => "Greedy-IO",
        }
    }

    /// True for the strategies that learn (DRL); greedy ones do not.
    pub fn is_learned(&self) -> bool {
        !matches!(self, Strategy::GreedyCr | Strategy::GreedyIo)
    }
}

/// The result of generating a notebook.
#[derive(Debug, Clone)]
pub struct GenerationResult {
    /// The generated notebook.
    pub notebook: Notebook,
    /// Best episode reward found.
    pub best_reward: f64,
    /// Learning curve (empty for greedy strategies).
    pub curve: Vec<CurvePoint>,
    /// Environment steps consumed.
    pub steps: usize,
}

/// The ATENA system: dataset in, EDA notebook out.
pub struct Atena {
    name: String,
    base: DataFrame,
    focal_attrs: Vec<String>,
    config: AtenaConfig,
    strategy: Strategy,
}

impl Atena {
    /// Create for a named dataset.
    pub fn new(name: impl Into<String>, base: DataFrame) -> Self {
        Self {
            name: name.into(),
            base,
            focal_attrs: Vec::new(),
            config: AtenaConfig::default(),
            strategy: Strategy::Atena,
        }
    }

    /// Set the user's focal attributes (paper §3): columns the session
    /// should concentrate on, fed to the coherency rules.
    pub fn with_focal_attrs<S: Into<String>>(mut self, attrs: impl IntoIterator<Item = S>) -> Self {
        self.focal_attrs = attrs.into_iter().map(Into::into).collect();
        self
    }

    /// Override the configuration.
    pub fn with_config(mut self, config: AtenaConfig) -> Self {
        self.config = config;
        self
    }

    /// Select a generation strategy (default: full ATENA).
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The dataset.
    pub fn dataset(&self) -> &DataFrame {
        &self.base
    }

    /// Build the calibrated reward model for this dataset/strategy.
    pub fn build_reward(&self) -> CompoundReward {
        let components = match self.strategy {
            Strategy::AtnIo | Strategy::GreedyIo => RewardComponents::interestingness_only(),
            _ => RewardComponents::all(),
        };
        let mut reward =
            CompoundReward::new(CoherencyConfig::with_focal_attrs(self.focal_attrs.clone()))
                .with_components(components);
        let mut probe_env = EdaEnv::new(self.base.clone(), self.config.env.clone());
        reward.fit(
            &mut probe_env,
            self.config.probe_steps,
            self.config.env.seed,
        );
        reward
    }

    /// Train (or greedily search) and generate the notebook.
    pub fn generate(&self) -> GenerationResult {
        let reward = Arc::new(self.build_reward());
        match self.strategy {
            Strategy::GreedyCr | Strategy::GreedyIo => self.generate_greedy(reward),
            _ => self.generate_learned(reward),
        }
    }

    fn generate_greedy(&self, reward: Arc<CompoundReward>) -> GenerationResult {
        let mut env = EdaEnv::new(self.base.clone(), self.config.env.clone());
        let episode = atena_rl::greedy_episode(
            &mut env,
            reward.as_ref(),
            GreedyConfig {
                candidate_cap: None,
                seed: self.config.env.seed,
                ..GreedyConfig::default()
            },
        );
        GenerationResult {
            notebook: Notebook::from_session(&self.name, env.session()),
            best_reward: episode.total_reward,
            curve: Vec::new(),
            steps: self.config.env.episode_len,
        }
    }

    fn generate_learned(&self, reward: Arc<CompoundReward>) -> GenerationResult {
        let probe = EdaEnv::new(self.base.clone(), self.config.env.clone());
        let mut rng = StdRng::seed_from_u64(self.config.trainer.seed);
        let (policy, mapper): (Arc<dyn Policy>, ActionMapper) = match self.strategy {
            Strategy::Atena | Strategy::AtnIo => {
                let p = TwofoldPolicy::new(
                    probe.observation_dim(),
                    probe.action_space().head_sizes(),
                    TwofoldConfig {
                        hidden: self.config.hidden,
                    },
                    &mut rng,
                );
                (Arc::new(p), ActionMapper::Twofold)
            }
            Strategy::OtsDrlB => {
                let table = probe.action_space().enumerate_binned();
                let p = FlatPolicy::new(
                    probe.observation_dim(),
                    table.len(),
                    self.config.hidden,
                    &mut rng,
                );
                (Arc::new(p), ActionMapper::FlatBinned(table))
            }
            Strategy::OtsDrl => {
                let table = probe
                    .action_space()
                    .enumerate_with_terms(&self.base, self.config.flat_term_cap);
                let p = FlatPolicy::new(
                    probe.observation_dim(),
                    table.len(),
                    self.config.hidden,
                    &mut rng,
                );
                (Arc::new(p), ActionMapper::FlatTerms(table))
            }
            Strategy::GreedyCr | Strategy::GreedyIo => unreachable!("handled by generate_greedy"),
        };
        let mut trainer = Trainer::new(
            policy,
            mapper,
            reward,
            &self.base,
            self.config.env.clone(),
            self.config.trainer,
        );
        let log = trainer.train(self.config.train_steps);
        let best = log
            .best_episode
            .expect("training always completes at least one episode");
        GenerationResult {
            notebook: Notebook::replay(&self.name, &self.base, &best.ops),
            best_reward: best.total_reward,
            curve: log.curve,
            steps: log.steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atena_dataframe::AttrRole;

    fn base() -> DataFrame {
        DataFrame::builder()
            .str(
                "proto",
                AttrRole::Categorical,
                (0..80).map(|i| Some(if i % 6 == 0 { "icmp" } else { "tcp" })),
            )
            .str(
                "src_ip",
                AttrRole::Categorical,
                (0..80).map(|i| Some(["10.0.0.1", "10.0.0.2"][(i / 40) as usize])),
            )
            .int(
                "length",
                AttrRole::Numeric,
                (0..80).map(|i| Some((i * 17 % 23) as i64)),
            )
            .build()
            .unwrap()
    }

    fn quick() -> AtenaConfig {
        let mut c = AtenaConfig::quick();
        c.train_steps = 600;
        c.env.episode_len = 5;
        c.probe_steps = 80;
        c
    }

    #[test]
    fn atena_generates_full_notebook() {
        let result = Atena::new("cyber", base())
            .with_focal_attrs(["src_ip"])
            .with_config(quick())
            .generate();
        assert_eq!(result.notebook.len(), 5);
        assert!(!result.curve.is_empty());
        assert!(result.best_reward.is_finite());
        assert!(result.steps >= 600);
    }

    #[test]
    fn greedy_strategy_generates_without_curve() {
        let result = Atena::new("cyber", base())
            .with_config(quick())
            .with_strategy(Strategy::GreedyCr)
            .generate();
        assert_eq!(result.notebook.len(), 5);
        assert!(result.curve.is_empty());
        // The search session's own notebook renders like a replay of its ops.
        let replayed = Notebook::replay("cyber", &base(), &result.notebook.ops());
        assert_eq!(result.notebook.to_markdown(), replayed.to_markdown());
    }

    #[test]
    fn ots_drl_b_uses_flat_binned_space() {
        let result = Atena::new("cyber", base())
            .with_config(quick())
            .with_strategy(Strategy::OtsDrlB)
            .generate();
        assert_eq!(result.notebook.len(), 5);
    }

    #[test]
    fn ots_drl_uses_explicit_terms() {
        let result = Atena::new("cyber", base())
            .with_config(quick())
            .with_strategy(Strategy::OtsDrl)
            .generate();
        assert_eq!(result.notebook.len(), 5);
    }

    #[test]
    fn strategy_metadata() {
        assert_eq!(Strategy::ALL.len(), 6);
        assert!(Strategy::Atena.is_learned());
        assert!(!Strategy::GreedyIo.is_learned());
        assert_eq!(Strategy::OtsDrlB.name(), "OTS-DRL-B");
    }
}
