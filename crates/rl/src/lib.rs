//! # atena-rl
//!
//! The deep-reinforcement-learning machinery of ATENA (paper §5–6):
//!
//! - [`TwofoldPolicy`] — the paper's novel architecture: a shared MLP trunk,
//!   a pre-output layer with one node per operation type and parameter
//!   value, and a multi-softmax layer normalizing each segment
//!   independently;
//! - [`FlatPolicy`] — the off-the-shelf baseline with one softmax node per
//!   distinct action (OTS-DRL / OTS-DRL-B);
//! - [`PpoLearner`] — advantage actor-critic with PPO clipping, GAE(λ), and
//!   entropy regularization;
//! - [`Trainer`] — deterministic rollout collection by a [`Rollouts`]
//!   lane fleet, sharded over the `atena-runtime` worker pool with each
//!   shard's lanes batched through one policy forward per step
//!   (bit-identical at a seed for any worker count), with synchronous PPO
//!   updates, convergence-curve logging, and best-episode extraction;
//! - [`greedy_episode`] — the non-learned Greedy-IO / Greedy-CR baselines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod flat;
mod greedy;
mod policy;
mod ppo;
mod rollout;
mod source;
mod trainer;
mod twofold;

pub use checkpoint::{Checkpoint, CheckpointError};
pub use flat::FlatPolicy;
pub use greedy::{greedy_episode, random_episode, GreedyConfig};
pub use policy::{
    active_heads, op_of_head_choice, ActionChoice, ActionMapper, Evaluation, MappedAction, Policy,
    PolicyRow, PolicyStep, N_HEADS,
};
pub use ppo::{PpoConfig, PpoLearner, UpdateProfile, UpdateStats};
pub use rollout::{AdvantageEstimates, RolloutBuffer, RolloutStep};
pub use source::{RolloutPlan, Rollouts, DEFAULT_DISPLAY_CACHE};
pub use trainer::{CurvePoint, EpisodeRecord, TrainLog, Trainer, TrainerConfig};
pub use twofold::{TwofoldConfig, TwofoldPolicy};
