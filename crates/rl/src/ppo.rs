//! The PPO-clipped actor-critic update (paper §6.1: "A3C enhanced with
//! Proximal Policy Optimization"), with entropy regularization (§5).

use crate::policy::{ActionChoice, Policy};
use crate::rollout::RolloutBuffer;
use atena_nn::{Adam, Graph, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// PPO hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PpoConfig {
    /// Discount factor γ.
    pub gamma: f32,
    /// GAE λ.
    pub gae_lambda: f32,
    /// Clip range ε of the surrogate ratio.
    pub clip_eps: f32,
    /// Value-loss coefficient.
    pub value_coef: f32,
    /// Entropy-bonus coefficient (entropy regularization, paper §5).
    pub entropy_coef: f32,
    /// Optimization epochs per rollout batch.
    pub epochs: usize,
    /// Minibatch size.
    pub minibatch: usize,
    /// Gradient clipping (global norm).
    pub max_grad_norm: f32,
    /// Adam learning rate.
    pub learning_rate: f32,
}

impl Default for PpoConfig {
    fn default() -> Self {
        Self {
            gamma: 0.99,
            gae_lambda: 0.95,
            clip_eps: 0.2,
            value_coef: 0.5,
            entropy_coef: 0.02,
            epochs: 4,
            minibatch: 64,
            max_grad_norm: 0.5,
            learning_rate: 3e-4,
        }
    }
}

/// Diagnostics from one update.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct UpdateStats {
    /// Mean clipped-surrogate policy loss.
    pub policy_loss: f32,
    /// Mean value loss.
    pub value_loss: f32,
    /// Mean policy entropy.
    pub entropy: f32,
    /// Pre-clip gradient norm of the last minibatch.
    pub grad_norm: f32,
    /// Fraction of surrogate ratios that fell outside `[1-ε, 1+ε]` (a
    /// standard PPO health signal: ~0 means the policy barely moved,
    /// large values mean the clip is doing heavy lifting).
    pub clip_fraction: f32,
}

/// Wall time of one update's phases, each summed over its minibatches.
///
/// Execution-only, like the runtime's `ScatterProfile`: it is read after
/// the update returns and feeds no result, so it stays out of
/// [`UpdateStats`], which the determinism checks compare.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UpdateProfile {
    /// Seconds in `Policy::evaluate` plus the loss graph.
    pub forward_secs: f64,
    /// Seconds zeroing the gradients and in `Graph::backward`.
    pub backward_secs: f64,
    /// Seconds in gradient clipping plus the Adam step.
    pub step_secs: f64,
}

/// Seconds since `*mark`, moving the mark to now.
fn lap(mark: &mut Instant) -> f64 {
    // atena-lint: allow(wall-clock) — update phase timing telemetry; never affects results
    let now = Instant::now();
    let secs = now.duration_since(*mark).as_secs_f64();
    *mark = now;
    secs
}

/// The PPO learner: owns the optimizer, borrows the policy per update.
pub struct PpoLearner {
    config: PpoConfig,
    optimizer: Adam,
    profile: UpdateProfile,
}

impl PpoLearner {
    /// Create a learner for a policy's parameters.
    pub fn new(policy: &dyn Policy, config: PpoConfig) -> Self {
        let optimizer = Adam::new(policy.params(), config.learning_rate);
        Self {
            config,
            optimizer,
            profile: UpdateProfile::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &PpoConfig {
        &self.config
    }

    /// Phase timings of the most recent [`PpoLearner::update`] (all zero
    /// before the first one and after an update on an empty buffer).
    pub fn last_profile(&self) -> UpdateProfile {
        self.profile
    }

    /// Run the PPO epochs over one rollout buffer; returns diagnostics
    /// averaged over all minibatches.
    pub fn update(
        &mut self,
        policy: &dyn Policy,
        buffer: &RolloutBuffer,
        rng: &mut StdRng,
    ) -> UpdateStats {
        self.profile = UpdateProfile::default();
        if buffer.is_empty() {
            return UpdateStats::default();
        }
        let mut estimates = buffer.advantages(self.config.gamma, self.config.gae_lambda);
        estimates.normalize_advantages();

        let n = buffer.len();
        let obs_dim = policy.obs_dim();
        let mut indices: Vec<usize> = (0..n).collect();
        let mut totals = UpdateStats::default();
        let mut n_batches = 0usize;

        for _ in 0..self.config.epochs {
            indices.shuffle(rng);
            for chunk in indices.chunks(self.config.minibatch.max(1)) {
                let stats = self.minibatch_step(policy, buffer, &estimates, chunk, obs_dim);
                totals.policy_loss += stats.policy_loss;
                totals.value_loss += stats.value_loss;
                totals.entropy += stats.entropy;
                totals.grad_norm = stats.grad_norm;
                totals.clip_fraction += stats.clip_fraction;
                n_batches += 1;
            }
        }
        if n_batches > 0 {
            totals.policy_loss /= n_batches as f32;
            totals.value_loss /= n_batches as f32;
            totals.entropy /= n_batches as f32;
            totals.clip_fraction /= n_batches as f32;
        }
        totals
    }

    fn minibatch_step(
        &mut self,
        policy: &dyn Policy,
        buffer: &RolloutBuffer,
        estimates: &crate::rollout::AdvantageEstimates,
        chunk: &[usize],
        obs_dim: usize,
    ) -> UpdateStats {
        let b = chunk.len();
        let mut obs_data = Vec::with_capacity(b * obs_dim);
        let mut choices: Vec<ActionChoice> = Vec::with_capacity(b);
        let mut old_logp = Vec::with_capacity(b);
        let mut adv = Vec::with_capacity(b);
        let mut ret = Vec::with_capacity(b);
        for &i in chunk {
            let s = &buffer.steps()[i];
            obs_data.extend_from_slice(&s.obs);
            choices.push(s.choice);
            old_logp.push(s.log_prob);
            adv.push(estimates.advantages[i]);
            ret.push(estimates.returns[i]);
        }
        let obs = Tensor::from_vec(b, obs_dim, obs_data);

        // atena-lint: allow(wall-clock) — update phase timing telemetry; never affects results
        let mut mark = Instant::now();
        let mut g = Graph::new();
        let eval = policy.evaluate(&mut g, &obs, &choices);
        let old_logp_node = g.constant(Tensor::col_vector(old_logp));
        let adv_node = g.constant(Tensor::col_vector(adv));
        let ret_node = g.constant(Tensor::col_vector(ret));

        // Clipped surrogate: -E[min(r·A, clip(r, 1±ε)·A)].
        let diff = g.sub(eval.log_prob, old_logp_node);
        let ratio = g.exp(diff);
        let surr1 = g.mul(ratio, adv_node);
        let clipped = g.clamp(
            ratio,
            1.0 - self.config.clip_eps,
            1.0 + self.config.clip_eps,
        );
        let surr2 = g.mul(clipped, adv_node);
        let surr = g.min_elem(surr1, surr2);
        let surr_mean = g.mean_all(surr);
        let policy_loss = g.neg(surr_mean);

        // Value loss: MSE against returns.
        let vdiff = g.sub(eval.value, ret_node);
        let vsq = g.mul(vdiff, vdiff);
        let value_loss = g.mean_all(vsq);

        // Entropy bonus.
        let entropy_mean = g.mean_all(eval.entropy);

        let v_scaled = g.scale(value_loss, self.config.value_coef);
        let e_scaled = g.scale(entropy_mean, -self.config.entropy_coef);
        let partial = g.add(policy_loss, v_scaled);
        let total = g.add(partial, e_scaled);
        self.profile.forward_secs += lap(&mut mark);

        policy.params().zero_grads();
        g.backward(total);
        self.profile.backward_secs += lap(&mut mark);
        let grad_norm = policy.params().clip_grad_norm(self.config.max_grad_norm);
        self.optimizer.step(policy.params());
        self.profile.step_secs += lap(&mut mark);

        let ratios = g.value(ratio);
        let eps = self.config.clip_eps;
        let clipped_n = ratios
            .data()
            .iter()
            .filter(|&&r| r < 1.0 - eps || r > 1.0 + eps)
            .count();
        UpdateStats {
            policy_loss: g.value(policy_loss).scalar(),
            value_loss: g.value(value_loss).scalar(),
            entropy: g.value(entropy_mean).scalar(),
            grad_norm,
            clip_fraction: clipped_n as f32 / b.max(1) as f32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatPolicy;
    use crate::rollout::RolloutStep;
    use rand::{Rng, SeedableRng};

    /// A 3-armed bandit: PPO should learn to pick the best arm.
    #[test]
    fn ppo_solves_bandit() {
        let mut rng = StdRng::seed_from_u64(0);
        let policy = FlatPolicy::new(1, 3, [16, 16], &mut rng);
        let mut learner = PpoLearner::new(
            &policy,
            PpoConfig {
                learning_rate: 0.01,
                entropy_coef: 0.001,
                ..Default::default()
            },
        );
        let arm_rewards = [0.1f32, 1.0, 0.3];
        for _ in 0..40 {
            let mut buf = RolloutBuffer::new();
            for _ in 0..64 {
                let obs = vec![1.0f32];
                let step = policy.act(&obs, 1.0, &mut rng);
                let ActionChoice::Flat { index } = step.choice else {
                    panic!()
                };
                let noise: f32 = rng.gen_range(-0.05..0.05);
                buf.push(RolloutStep {
                    obs,
                    choice: step.choice,
                    log_prob: step.log_prob,
                    value: step.value,
                    reward: arm_rewards[index] + noise,
                    done: true,
                });
            }
            learner.update(&policy, &buf, &mut rng);
        }
        // The trained policy should now prefer arm 1 overwhelmingly.
        let mut picks = [0usize; 3];
        for _ in 0..200 {
            let step = policy.act(&[1.0], 1.0, &mut rng);
            let ActionChoice::Flat { index } = step.choice else {
                panic!()
            };
            picks[index] += 1;
        }
        assert!(
            picks[1] > 150,
            "policy failed to learn the bandit: picks {picks:?}"
        );
    }

    #[test]
    fn update_on_empty_buffer_is_noop() {
        let mut rng = StdRng::seed_from_u64(1);
        let policy = FlatPolicy::new(2, 4, [8, 8], &mut rng);
        let mut learner = PpoLearner::new(&policy, PpoConfig::default());
        let stats = learner.update(&policy, &RolloutBuffer::new(), &mut rng);
        assert_eq!(stats, UpdateStats::default());
    }

    #[test]
    fn value_head_learns_returns() {
        let mut rng = StdRng::seed_from_u64(2);
        let policy = FlatPolicy::new(1, 2, [16, 16], &mut rng);
        let mut learner = PpoLearner::new(
            &policy,
            PpoConfig {
                learning_rate: 0.01,
                value_coef: 1.0,
                ..Default::default()
            },
        );
        // Constant reward 1.0 per single-step episode -> V(s) should -> 1.0.
        for _ in 0..60 {
            let mut buf = RolloutBuffer::new();
            for _ in 0..32 {
                let step = policy.act(&[1.0], 1.0, &mut rng);
                buf.push(RolloutStep {
                    obs: vec![1.0],
                    choice: step.choice,
                    log_prob: step.log_prob,
                    value: step.value,
                    reward: 1.0,
                    done: true,
                });
            }
            learner.update(&policy, &buf, &mut rng);
        }
        let v = policy.act(&[1.0], 1.0, &mut rng).value;
        assert!((v - 1.0).abs() < 0.25, "value estimate {v}");
    }

    #[test]
    fn entropy_coef_slows_collapse() {
        // With a huge entropy bonus the policy should stay near-uniform even
        // when one arm dominates.
        let mut rng = StdRng::seed_from_u64(3);
        let policy = FlatPolicy::new(1, 2, [16, 16], &mut rng);
        let mut learner = PpoLearner::new(
            &policy,
            PpoConfig {
                learning_rate: 0.01,
                entropy_coef: 5.0,
                ..Default::default()
            },
        );
        for _ in 0..30 {
            let mut buf = RolloutBuffer::new();
            for _ in 0..32 {
                let step = policy.act(&[1.0], 1.0, &mut rng);
                let ActionChoice::Flat { index } = step.choice else {
                    panic!()
                };
                buf.push(RolloutStep {
                    obs: vec![1.0],
                    choice: step.choice,
                    log_prob: step.log_prob,
                    value: step.value,
                    reward: if index == 0 { 1.0 } else { 0.0 },
                    done: true,
                });
            }
            learner.update(&policy, &buf, &mut rng);
        }
        let mut picks = [0usize; 2];
        for _ in 0..300 {
            let step = policy.act(&[1.0], 1.0, &mut rng);
            let ActionChoice::Flat { index } = step.choice else {
                panic!()
            };
            picks[index] += 1;
        }
        // Entropy regularization keeps both arms alive.
        assert!(
            picks[1] > 50,
            "entropy failed to preserve exploration: {picks:?}"
        );
    }
}
