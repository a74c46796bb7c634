//! The compound reward signal (paper §4.2): a weighted sum of
//! interestingness, diversity, and coherency, with the weights auto-balanced
//! so no component contributes less than 10% of the total on a random-policy
//! probe (paper §6.1).

use crate::coherency::{CoherencyClassifier, CoherencyConfig};
use crate::diversity::{step_diversity, DiversityConfig};
use crate::interestingness::{step_interestingness, InterestingnessConfig};
use atena_env::{EdaAction, EdaEnv, OpOutcome, RewardBreakdown, RewardModel, StepInfo};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Component weights of the compound reward.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RewardWeights {
    /// Weight of the interestingness component.
    pub interestingness: f64,
    /// Weight of the diversity component.
    pub diversity: f64,
    /// Weight of the coherency component.
    pub coherency: f64,
}

impl Default for RewardWeights {
    fn default() -> Self {
        Self {
            interestingness: 1.0,
            diversity: 1.0,
            coherency: 1.0,
        }
    }
}

/// Which components are enabled — the ATN-IO ablation keeps only
/// interestingness (paper §6.1, baseline 3B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RewardComponents {
    /// Enable interestingness.
    pub interestingness: bool,
    /// Enable diversity.
    pub diversity: bool,
    /// Enable coherency.
    pub coherency: bool,
}

impl RewardComponents {
    /// All components enabled (full ATENA).
    pub fn all() -> Self {
        Self {
            interestingness: true,
            diversity: true,
            coherency: true,
        }
    }

    /// Interestingness only (the ATN-IO / Greedy-IO baselines).
    pub fn interestingness_only() -> Self {
        Self {
            interestingness: true,
            diversity: false,
            coherency: false,
        }
    }
}

/// Penalties for degenerate operations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PenaltyConfig {
    /// Reward for an ill-typed / unresolvable operation.
    pub invalid_op: f64,
    /// Reward for BACK at the root display.
    pub back_at_root: f64,
}

impl Default for PenaltyConfig {
    fn default() -> Self {
        Self {
            invalid_op: -1.0,
            back_at_root: -0.5,
        }
    }
}

/// The compound reward model.
pub struct CompoundReward {
    interestingness: InterestingnessConfig,
    diversity: DiversityConfig,
    classifier: CoherencyClassifier,
    weights: RewardWeights,
    components: RewardComponents,
    penalties: PenaltyConfig,
}

impl CompoundReward {
    /// Build with default sub-configurations and uniform weights.
    pub fn new(coherency: CoherencyConfig) -> Self {
        Self {
            interestingness: InterestingnessConfig::default(),
            diversity: DiversityConfig::default(),
            classifier: CoherencyClassifier::new(&coherency),
            weights: RewardWeights::default(),
            components: RewardComponents::all(),
            penalties: PenaltyConfig::default(),
        }
    }

    /// Restrict the enabled components (for the ablation baselines).
    pub fn with_components(mut self, components: RewardComponents) -> Self {
        self.components = components;
        self
    }

    /// Current weights.
    pub fn weights(&self) -> RewardWeights {
        self.weights
    }

    /// The coherency classifier.
    pub fn classifier(&self) -> &CoherencyClassifier {
        &self.classifier
    }

    /// Calibrate on an environment (paper §6.1):
    ///
    /// 1. probe the environment with a uniform-random policy for
    ///    `n_probe_steps`, collecting coherency-rule votes;
    /// 2. fit the weak-supervision label model on the votes;
    /// 3. set the component weights so that each enabled component's mean
    ///    absolute contribution is equal — hence no component falls below
    ///    10% of the total.
    pub fn fit(&mut self, env: &mut EdaEnv, n_probe_steps: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut vote_rows = Vec::with_capacity(n_probe_steps);
        let mut sums = (0.0f64, 0.0f64, 0.0f64);
        let mut n_applied = 0usize;

        env.reset_with_seed(seed);
        let mut applied_votes: Vec<usize> = Vec::new();
        for _ in 0..n_probe_steps {
            let action = random_action(env, &mut rng);
            let op = env.resolve(&action);
            let preview = env.preview(&op);
            {
                let info = env.step_info(&preview);
                vote_rows.push(self.classifier.votes(&info));
                if info.outcome.is_applied() {
                    sums.0 += step_interestingness(&self.interestingness, &info);
                    sums.1 += step_diversity(&self.diversity, &info);
                    applied_votes.push(vote_rows.len() - 1);
                    n_applied += 1;
                }
            }
            env.commit(preview);
            if env.done() {
                env.reset_with_seed(rng.gen());
            }
        }
        self.classifier.fit(&vote_rows);
        // Coherency means must come from the *fitted* label model and in the
        // same form the score uses — the centered magnitude |2(p − ½)| — so
        // the weight balance reflects the signal the agent will actually see.
        sums.2 = applied_votes
            .iter()
            .map(|&i| {
                let p = self.classifier.model().posterior_coherent(&vote_rows[i]);
                ((p - 0.5) * 2.0).abs()
            })
            .sum();

        if n_applied > 0 {
            let n = n_applied as f64;
            let means = [sums.0 / n, sums.1 / n, sums.2 / n];
            // Equalize mean contributions; guard against dead components.
            let target = means.iter().copied().filter(|&m| m > 1e-6).sum::<f64>()
                / means.iter().filter(|&&m| m > 1e-6).count().max(1) as f64;
            let w = |mean: f64| {
                if mean > 1e-6 {
                    (target / mean).clamp(0.2, 5.0)
                } else {
                    1.0
                }
            };
            self.weights = RewardWeights {
                interestingness: w(means[0]),
                diversity: w(means[1]),
                coherency: w(means[2]),
            };
        }
        env.reset_with_seed(seed);
    }
}

impl RewardModel for CompoundReward {
    fn score(&self, info: &StepInfo<'_>) -> RewardBreakdown {
        match info.outcome {
            OpOutcome::Invalid(_) => {
                return RewardBreakdown {
                    penalty: self.penalties.invalid_op,
                    total: self.penalties.invalid_op,
                    ..Default::default()
                }
            }
            OpOutcome::BackAtRoot => {
                return RewardBreakdown {
                    penalty: self.penalties.back_at_root,
                    total: self.penalties.back_at_root,
                    ..Default::default()
                }
            }
            OpOutcome::Applied => {}
        }
        let i = if self.components.interestingness {
            self.weights.interestingness * step_interestingness(&self.interestingness, info)
        } else {
            0.0
        };
        let d = if self.components.diversity {
            self.weights.diversity * step_diversity(&self.diversity, info)
        } else {
            0.0
        };
        let c = if self.components.coherency {
            // Center the coherency confidence so incoherent ops subtract.
            self.weights.coherency * (self.classifier.score(info) - 0.5) * 2.0
        } else {
            0.0
        };
        RewardBreakdown {
            interestingness: i,
            diversity: d,
            coherency: c,
            penalty: 0.0,
            total: i + d + c,
        }
    }
}

/// Sample a uniformly random action from the environment's action space.
pub fn random_action<R: Rng + ?Sized>(env: &EdaEnv, rng: &mut R) -> EdaAction {
    let space = env.action_space();
    match rng.gen_range(0..3u8) {
        0 => EdaAction::Filter {
            attr: rng.gen_range(0..space.n_attrs()),
            op: rng.gen_range(0..atena_dataframe::CmpOp::ALL.len()),
            bin: rng.gen_range(0..space.n_bins()),
        },
        1 => EdaAction::Group {
            key: rng.gen_range(0..space.n_attrs()),
            func: rng.gen_range(0..atena_dataframe::AggFunc::ALL.len()),
            agg: rng.gen_range(0..space.n_attrs()),
        },
        _ => EdaAction::Back,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atena_dataframe::{AttrRole, DataFrame};
    use atena_env::EnvConfig;

    fn base() -> DataFrame {
        DataFrame::builder()
            .str(
                "proto",
                AttrRole::Categorical,
                (0..80).map(|i| Some(if i < 60 { "tcp" } else { "icmp" })),
            )
            .str(
                "src_ip",
                AttrRole::Categorical,
                (0..80).map(|i| Some(["10.0.0.1", "10.0.0.2", "10.0.0.3"][i % 3])),
            )
            .int(
                "length",
                AttrRole::Numeric,
                (0..80).map(|i| Some((i * 13 % 97) as i64)),
            )
            .build()
            .unwrap()
    }

    fn env() -> EdaEnv {
        EdaEnv::new(
            base(),
            EnvConfig {
                episode_len: 8,
                n_bins: 6,
                history_window: 3,
                seed: 11,
            },
        )
    }

    #[test]
    fn invalid_op_gets_penalty() {
        let mut e = env();
        e.reset();
        let reward = CompoundReward::new(CoherencyConfig::with_focal_attrs(vec![]));
        // SUM over a string column.
        let op = e.resolve(&EdaAction::Group {
            key: 0,
            func: 1,
            agg: 0,
        });
        let p = e.preview(&op);
        let info = e.step_info(&p);
        let r = reward.score(&info);
        assert_eq!(r.total, -1.0);
        assert_eq!(r.interestingness, 0.0);
    }

    #[test]
    fn good_group_earns_positive_reward() {
        let mut e = env();
        e.reset();
        let mut reward =
            CompoundReward::new(CoherencyConfig::with_focal_attrs(vec!["src_ip".into()]));
        reward.fit(&mut e, 200, 5);
        // Group by proto, COUNT(length): compact, coherent, novel.
        let op = e.resolve(&EdaAction::Group {
            key: 0,
            func: 0,
            agg: 2,
        });
        let p = e.preview(&op);
        let info = e.step_info(&p);
        let r = reward.score(&info);
        assert!(r.total > 0.0, "breakdown: {r:?}");
        assert!(r.interestingness > 0.0);
        assert!(r.diversity > 0.0);
    }

    #[test]
    fn fit_balances_weights() {
        let mut e = env();
        let mut reward = CompoundReward::new(CoherencyConfig::with_focal_attrs(vec![]));
        reward.fit(&mut e, 400, 9);
        let w = reward.weights();
        for v in [w.interestingness, w.diversity, w.coherency] {
            assert!((0.2..=5.0).contains(&v), "weight out of range: {v}");
        }
    }

    #[test]
    fn interestingness_only_disables_other_components() {
        let mut e = env();
        e.reset();
        let reward = CompoundReward::new(CoherencyConfig::default())
            .with_components(RewardComponents::interestingness_only());
        let op = e.resolve(&EdaAction::Group {
            key: 0,
            func: 0,
            agg: 2,
        });
        let p = e.preview(&op);
        let info = e.step_info(&p);
        let r = reward.score(&info);
        assert_eq!(r.diversity, 0.0);
        assert_eq!(r.coherency, 0.0);
        assert!(r.interestingness > 0.0);
        assert_eq!(r.total, r.interestingness);
    }

    #[test]
    fn back_at_root_penalized() {
        let mut e = env();
        e.reset();
        let reward = CompoundReward::new(CoherencyConfig::default());
        let op = e.resolve(&EdaAction::Back);
        let p = e.preview(&op);
        let info = e.step_info(&p);
        let r = reward.score(&info);
        assert_eq!(r.total, -0.5);
    }

    #[test]
    fn random_actions_are_in_range() {
        let e = env();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..200 {
            match random_action(&e, &mut rng) {
                EdaAction::Filter { attr, op, bin } => {
                    assert!(attr < 3 && op < 8 && bin < 6);
                }
                EdaAction::Group { key, func, agg } => {
                    assert!(key < 3 && func < 5 && agg < 3);
                }
                EdaAction::Back => {}
            }
        }
    }

    #[test]
    fn full_random_episode_rewards_are_finite() {
        let mut e = env();
        let mut reward =
            CompoundReward::new(CoherencyConfig::with_focal_attrs(vec!["src_ip".into()]));
        reward.fit(&mut e, 100, 1);
        e.reset_with_seed(77);
        let mut rng = StdRng::seed_from_u64(42);
        let mut total = 0.0;
        while !e.done() {
            let a = random_action(&e, &mut rng);
            let op = e.resolve(&a);
            let p = e.preview(&op);
            let r = {
                let info = e.step_info(&p);
                reward.score(&info)
            };
            assert!(r.total.is_finite());
            total += r.total;
            e.commit(p);
        }
        assert!(total.is_finite());
    }
}
