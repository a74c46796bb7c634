//! The ATENA actor network (paper §5, Figure 3): a shared MLP trunk, a
//! **pre-output layer** with one node per operation type and per parameter
//! value (size `|OP| + Σ|V(p)|` instead of `Σ Π|V(p)|`), and a
//! **multi-softmax layer** that normalizes each segment independently.
//! The critic value head shares the trunk (advantage actor-critic).

use crate::policy::{
    active_heads, op_of_head_choice, ActionChoice, Evaluation, Policy, PolicyRow, N_HEADS,
};
use atena_env::HeadSizes;
use atena_nn::{softmax_rows, Graph, Init, Linear, MatmulError, Mlp, NodeId, ParamSet, Tensor};
use rand::rngs::StdRng;

/// Hyperparameters of the twofold network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwofoldConfig {
    /// Hidden layer widths of the shared trunk.
    pub hidden: [usize; 2],
}

impl Default for TwofoldConfig {
    fn default() -> Self {
        Self { hidden: [128, 128] }
    }
}

/// The twofold-output actor-critic policy.
pub struct TwofoldPolicy {
    trunk: Mlp,
    heads: Vec<Linear>,
    value_head: Linear,
    params: ParamSet,
    head_sizes: [usize; N_HEADS],
    obs_dim: usize,
}

impl TwofoldPolicy {
    /// Build the network for an observation size and head sizes.
    pub fn new(
        obs_dim: usize,
        head_sizes: HeadSizes,
        config: TwofoldConfig,
        rng: &mut StdRng,
    ) -> Self {
        let trunk = Mlp::new("trunk", &[obs_dim, config.hidden[0], config.hidden[1]], rng);
        let sizes = head_sizes.as_array();
        let heads: Vec<Linear> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| Linear::new(&format!("head{i}"), trunk.out_dim(), n, Init::Xavier, rng))
            .collect();
        let value_head = Linear::new("value", trunk.out_dim(), 1, Init::Xavier, rng);
        let mut params = ParamSet::new();
        trunk.register(&mut params);
        for h in &heads {
            h.register(&mut params);
        }
        value_head.register(&mut params);
        Self {
            trunk,
            heads,
            value_head,
            params,
            head_sizes: sizes,
            obs_dim,
        }
    }

    /// Sizes of the softmax segments in canonical head order.
    pub fn head_sizes(&self) -> &[usize; N_HEADS] {
        &self.head_sizes
    }

    /// Size of the pre-output layer — `|OP| + Σ|V(p)|`, the quantity the
    /// paper contrasts with the exponential flat layer.
    pub fn pre_output_size(&self) -> usize {
        self.head_sizes.iter().sum()
    }

    /// Forward the trunk and all head logits for a batch.
    fn forward_heads(&self, g: &mut Graph, obs: NodeId) -> (Vec<NodeId>, NodeId) {
        let h = self.trunk.forward(g, obs);
        let logits = self.heads.iter().map(|head| head.forward(g, h)).collect();
        let value = self.value_head.forward(g, h);
        (logits, value)
    }
}

impl Policy for TwofoldPolicy {
    fn forward_rows(&self, obs: &Tensor, temperature: f32) -> Result<Vec<PolicyRow>, MatmulError> {
        // Graph-free tensor path: no tape and no per-call weight snapshots,
        // shared by act (B = 1) and every batched caller. Bit-identical to
        // the graph forward because the underlying kernels are.
        let h = self.trunk.forward_batch(obs)?;
        // Boltzmann exploration: sampling reads softmax(logits/T); the
        // joint log-prob reads the *untempered* softmax, as in the serial
        // act path.
        let inv = 1.0 / temperature.max(1e-3);
        let mut tempered: Vec<Tensor> = Vec::with_capacity(N_HEADS);
        let mut untempered: Vec<Tensor> = Vec::with_capacity(N_HEADS);
        for head in &self.heads {
            let logits = head.forward_batch(&h)?;
            tempered.push(softmax_rows(&logits.map(|x| x * inv)));
            untempered.push(softmax_rows(&logits));
        }
        let value = self.value_head.forward_batch(&h)?;
        Ok((0..obs.rows())
            .map(|r| PolicyRow::Twofold {
                tempered: tempered.iter().map(|t| t.row(r).to_vec()).collect(),
                untempered: untempered.iter().map(|t| t.row(r).to_vec()).collect(),
                value: value.get(r, 0),
            })
            .collect())
    }

    fn evaluate(&self, g: &mut Graph, obs: &Tensor, choices: &[ActionChoice]) -> Evaluation {
        let batch = obs.rows();
        assert_eq!(batch, choices.len(), "batch size mismatch");
        let x = g.constant(obs.clone());
        let (logits, value) = self.forward_heads(g, x);

        // Per-head chosen indices and activity masks.
        let mut picked: Vec<Vec<usize>> = vec![vec![0; batch]; N_HEADS];
        let mut masks: Vec<Vec<f32>> = vec![vec![0.0; batch]; N_HEADS];
        for (b, choice) in choices.iter().enumerate() {
            let ActionChoice::Twofold { heads } = choice else {
                panic!("twofold policy evaluated with non-twofold choice");
            };
            let op = op_of_head_choice(heads[0]);
            for &h in active_heads(op) {
                picked[h][b] = heads[h];
                masks[h][b] = 1.0;
            }
        }

        let mut log_prob: Option<NodeId> = None;
        let mut entropy: Option<NodeId> = None;
        for h in 0..N_HEADS {
            let lp_all = g.log_softmax_rows(logits[h]);
            let mask = g.constant(Tensor::col_vector(masks[h].clone()));
            // Log-prob of the chosen value, masked by head activity.
            let lp_chosen = g.pick_per_row(lp_all, picked[h].clone());
            let lp_masked = g.mul(lp_chosen, mask);
            log_prob = Some(match log_prob {
                Some(acc) => g.add(acc, lp_masked),
                None => lp_masked,
            });
            // Segment entropy −Σ p·log p, masked the same way.
            let p = g.exp(lp_all);
            let plogp = g.mul(p, lp_all);
            let row = g.sum_rows(plogp);
            let h_rows = g.neg(row);
            let h_masked = g.mul(h_rows, mask);
            entropy = Some(match entropy {
                Some(acc) => g.add(acc, h_masked),
                None => h_masked,
            });
        }
        Evaluation {
            log_prob: log_prob.expect("at least one head"),
            entropy: entropy.expect("at least one head"),
            value,
        }
    }

    fn params(&self) -> &ParamSet {
        &self.params
    }

    fn obs_dim(&self) -> usize {
        self.obs_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn head_sizes() -> HeadSizes {
        HeadSizes {
            op: 3,
            filter_attr: 4,
            filter_op: 8,
            filter_bin: 10,
            group_key: 4,
            agg_func: 5,
            agg_attr: 4,
        }
    }

    fn policy() -> TwofoldPolicy {
        let mut rng = StdRng::seed_from_u64(0);
        TwofoldPolicy::new(
            20,
            head_sizes(),
            TwofoldConfig { hidden: [32, 32] },
            &mut rng,
        )
    }

    #[test]
    fn pre_output_size_is_sum_not_product() {
        let p = policy();
        assert_eq!(p.pre_output_size(), 3 + 4 + 8 + 10 + 4 + 5 + 4);
        // Flat equivalent would be 4*8*10 + 4*5*4 + 1 = 401.
        assert!(p.pre_output_size() < 401);
    }

    #[test]
    fn act_produces_valid_choices() {
        let p = policy();
        let mut rng = StdRng::seed_from_u64(1);
        let obs = vec![0.1f32; 20];
        let mut ops_seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let step = p.act(&obs, 1.0, &mut rng);
            let ActionChoice::Twofold { heads } = step.choice else {
                panic!()
            };
            assert!(heads[0] < 3);
            assert!(heads[1] < 4 && heads[2] < 8 && heads[3] < 10);
            assert!(heads[4] < 4 && heads[5] < 5 && heads[6] < 4);
            assert!(step.log_prob <= 0.0);
            assert!(step.value.is_finite());
            ops_seen.insert(heads[0]);
        }
        // A fresh policy should explore all op types.
        assert_eq!(ops_seen.len(), 3);
    }

    impl TwofoldPolicy {
        /// The pre-batching decode engine, kept verbatim: one step through a
        /// fresh autodiff [`Graph`], snapshotting every weight matrix onto the
        /// tape. This is the oracle the tensor-path [`Policy::act`] /
        /// [`Policy::forward_rows`] must reproduce bit for bit (same
        /// probabilities, same RNG draws, same log-prob and value).
        fn act_via_graph(
            &self,
            obs: &[f32],
            temperature: f32,
            rng: &mut StdRng,
        ) -> crate::policy::PolicyStep {
            use crate::policy::sample_categorical;
            let mut g = Graph::new();
            let x = g.constant(Tensor::row_vector(obs.to_vec()));
            let (logits, value) = self.forward_heads(&mut g, x);
            let temp = temperature.max(1e-3);
            let mut heads = [0usize; N_HEADS];
            for (i, &node) in logits.iter().enumerate() {
                let scaled = g.scale(node, 1.0 / temp);
                let probs = softmax_rows(g.value(scaled));
                heads[i] = sample_categorical(probs.row(0), rng);
            }
            let op = op_of_head_choice(heads[0]);
            let mut log_prob = 0.0f32;
            for &h in active_heads(op) {
                let probs = softmax_rows(g.value(logits[h]));
                log_prob += probs.get(0, heads[h]).max(1e-10).ln();
            }
            crate::policy::PolicyStep {
                choice: ActionChoice::Twofold { heads },
                log_prob,
                value: g.value(value).get(0, 0),
            }
        }
    }

    #[test]
    fn tensor_act_is_bit_identical_to_graph_act() {
        use rand::Rng;
        let p = policy();
        let mut obs_rng = StdRng::seed_from_u64(40);
        for trial in 0..25 {
            let obs: Vec<f32> = (0..20).map(|_| obs_rng.gen_range(-1.0..1.0)).collect();
            let temperature = [1.0, 0.5, 0.001, 2.0, 0.0][trial % 5];
            let mut rng_a = StdRng::seed_from_u64(1000 + trial as u64);
            let mut rng_b = StdRng::seed_from_u64(1000 + trial as u64);
            let fast = p.act(&obs, temperature, &mut rng_a);
            let slow = p.act_via_graph(&obs, temperature, &mut rng_b);
            assert_eq!(fast.choice, slow.choice, "trial {trial} choice");
            assert_eq!(
                fast.log_prob.to_bits(),
                slow.log_prob.to_bits(),
                "trial {trial} log_prob"
            );
            assert_eq!(
                fast.value.to_bits(),
                slow.value.to_bits(),
                "trial {trial} value"
            );
            // The RNGs must have been consumed identically.
            assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>(), "trial {trial} rng");
        }
    }

    #[test]
    fn forward_rows_batch_matches_single_rows() {
        let p = policy();
        let mut obs_rng = StdRng::seed_from_u64(41);
        use rand::Rng;
        // Batch sizes the rollout shards use, and the server's decode
        // temperature beside a training one.
        for n in [1, 4, 5, 8] {
            for temperature in [0.7, 1e-3] {
                let rows: Vec<Vec<f32>> = (0..n)
                    .map(|_| (0..20).map(|_| obs_rng.gen_range(-1.0..1.0)).collect())
                    .collect();
                let batch = Tensor::from_vec(n, 20, rows.concat());
                let batched = p.forward_rows(&batch, temperature).unwrap();
                assert_eq!(batched.len(), n);
                for (i, row) in rows.iter().enumerate() {
                    let single = p
                        .forward_rows(&Tensor::row_vector(row.clone()), temperature)
                        .unwrap();
                    // PolicyRow has no PartialEq on purpose; compare via
                    // Debug, which prints full f32 precision.
                    assert_eq!(
                        format!("{:?}", single[0]),
                        format!("{:?}", batched[i]),
                        "batch {n}, temperature {temperature}: row {i} diverged"
                    );
                }
            }
        }
        // Wrong observation width is a typed error, not a panic.
        assert!(p.forward_rows(&Tensor::zeros(2, 19), 1.0).is_err());
    }

    #[test]
    fn low_temperature_concentrates() {
        let p = policy();
        let obs = vec![0.3f32; 20];
        let mut rng = StdRng::seed_from_u64(2);
        let mut greedy_ops = std::collections::HashSet::new();
        for _ in 0..50 {
            let step = p.act(&obs, 0.001, &mut rng);
            let ActionChoice::Twofold { heads } = step.choice else {
                panic!()
            };
            greedy_ops.insert(heads);
        }
        // Near-zero temperature: essentially deterministic.
        assert_eq!(greedy_ops.len(), 1);
    }

    #[test]
    fn evaluate_matches_act_log_prob() {
        let p = policy();
        let mut rng = StdRng::seed_from_u64(3);
        let obs = vec![0.2f32; 20];
        let step = p.act(&obs, 1.0, &mut rng);

        let mut g = Graph::new();
        let obs_t = Tensor::row_vector(obs);
        let eval = p.evaluate(&mut g, &obs_t, &[step.choice]);
        let lp = g.value(eval.log_prob).get(0, 0);
        assert!(
            (lp - step.log_prob).abs() < 1e-4,
            "evaluate {lp} vs act {}",
            step.log_prob
        );
        let v = g.value(eval.value).get(0, 0);
        assert!((v - step.value).abs() < 1e-5);
        // Entropy positive for a fresh policy.
        assert!(g.value(eval.entropy).get(0, 0) > 0.0);
    }

    #[test]
    fn evaluate_batch_shapes() {
        let p = policy();
        let mut rng = StdRng::seed_from_u64(4);
        let obs_rows: Vec<f32> = (0..3 * 20).map(|i| (i as f32 * 0.01).sin()).collect();
        let obs = Tensor::from_vec(3, 20, obs_rows);
        let choices: Vec<ActionChoice> = (0..3)
            .map(|r| p.act(obs.row(r), 1.0, &mut rng).choice)
            .collect();
        let mut g = Graph::new();
        let eval = p.evaluate(&mut g, &obs, &choices);
        assert_eq!(g.value(eval.log_prob).shape(), (3, 1));
        assert_eq!(g.value(eval.entropy).shape(), (3, 1));
        assert_eq!(g.value(eval.value).shape(), (3, 1));
    }

    #[test]
    fn back_choice_only_counts_op_head() {
        let p = policy();
        // A BACK choice: entropy/logp must only involve head 0.
        let choice = ActionChoice::Twofold {
            heads: [2, 0, 0, 0, 0, 0, 0],
        };
        let obs = Tensor::row_vector(vec![0.0; 20]);
        let mut g = Graph::new();
        let eval = p.evaluate(&mut g, &obs, &[choice]);
        let ent = g.value(eval.entropy).get(0, 0);
        // Entropy of one 3-way softmax is at most ln 3.
        assert!(ent <= (3.0f32).ln() + 1e-4, "entropy {ent}");
    }
}
