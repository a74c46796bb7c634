//! # atena
//!
//! A from-scratch Rust implementation of **ATENA** — *"Automatically
//! Generating Data Exploration Sessions Using Deep Reinforcement Learning"*
//! (Bar El, Milo, Somech — SIGMOD 2020).
//!
//! ATENA takes a tabular dataset and auto-generates a compelling EDA
//! notebook: a coherent, diverse, interesting sequence of FILTER / GROUP /
//! BACK operations, discovered by a deep-reinforcement-learning agent with
//! the paper's twofold multi-softmax output architecture.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`dataframe`] | `atena-dataframe` | columnar engine (filter/group/aggregate/statistics) |
//! | [`mod@env`] | `atena-env` | the EDA MDP: actions, binning, displays, observations |
//! | [`reward`] | `atena-reward` | interestingness + diversity + weak-supervision coherency |
//! | [`nn`] | `atena-nn` | tensors, autodiff, MLPs, Adam |
//! | [`rl`] | `atena-rl` | twofold/flat policies, PPO trainer, greedy baselines |
//! | [`core`] | `atena-core` | the `Atena` API and `Notebook` model |
//! | [`data`] | `atena-data` | the 8 experimental datasets with planted insights |
//! | [`benchmark`] | `atena-benchmark` | the A-EDA metrics and the simulated rater |
//!
//! ## Quickstart
//!
//! ```no_run
//! use atena::{Atena, AtenaConfig};
//! use atena::dataframe::DataFrame;
//!
//! let csv = "airline,departure_delay\nAA,12\nDL,3\nAA,55\n";
//! let df = DataFrame::from_csv_str(csv).unwrap();
//! let result = Atena::new("my-flights", df)
//!     .with_focal_attrs(["departure_delay"])
//!     .with_config(AtenaConfig::quick())
//!     .generate();
//! println!("{}", result.notebook.to_markdown());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use atena_core::{Atena, AtenaConfig, GenerationResult, Notebook, Strategy};

/// The columnar dataframe engine (re-export of `atena-dataframe`).
pub mod dataframe {
    pub use atena_dataframe::*;
}
/// The EDA MDP environment (re-export of `atena-env`).
pub mod env {
    pub use atena_env::*;
}
/// The compound reward signal (re-export of `atena-reward`).
pub mod reward {
    pub use atena_reward::*;
}
/// The neural-network substrate (re-export of `atena-nn`).
pub mod nn {
    pub use atena_nn::*;
}
/// The DRL machinery (re-export of `atena-rl`).
pub mod rl {
    pub use atena_rl::*;
}
/// The ATENA system API (re-export of `atena-core`).
pub mod core {
    pub use atena_core::*;
}
/// The experimental datasets (re-export of `atena-data`).
pub mod data {
    pub use atena_data::*;
}
/// The A-EDA benchmark (re-export of `atena-benchmark`).
pub mod benchmark {
    pub use atena_benchmark::*;
}
/// Logging, metrics, and span tracing (re-export of `atena-telemetry`).
pub mod telemetry {
    pub use atena_telemetry::*;
}
