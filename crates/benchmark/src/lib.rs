//! # atena-benchmark
//!
//! The A-EDA benchmark for auto-generated EDA notebooks (paper §6.3),
//! fully reproducible without a user study:
//!
//! - **Precision** — notebooks as sets of distinct views, hits against the
//!   gold-standard union;
//! - **T-BLEU-1/2/3** — BLEU over view sequences (clipped n-gram precision
//!   with brevity penalty);
//! - **EDA-Sim** — graded sequence similarity per \[29\]: structural pairwise
//!   view similarity combined by global alignment, maximized over golds;
//! - **insight coverage** — the automatic stand-in for Figure 4b's
//!   gathered-insights count;
//! - a **simulated rater** producing 1–7 ratings on the four Figure 4a
//!   criteria from measurable notebook properties.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod edasim;
mod metrics;
mod rater;
mod report;

pub use edasim::{eda_sim, sequence_similarity, view_similarity};
pub use metrics::{precision, t_bleu};
pub use rater::{rate, replay_signals, Ratings, ReplaySignals};
pub use report::{score_against, score_notebook, AedaScores};
