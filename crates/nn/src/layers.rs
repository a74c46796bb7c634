//! Network building blocks: linear layers and MLP trunks.

use crate::graph::{Graph, NodeId};
use crate::param::{Param, ParamSet};
use crate::tensor::{MatmulError, Tensor};
use rand::Rng;

/// In-place ReLU matching the graph op (`x.max(0.0)` per element).
fn relu_inplace(t: &mut Tensor) {
    for v in t.data_mut() {
        *v = v.max(0.0);
    }
}

/// Weight initialization scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Init {
    /// He (Kaiming) normal — for layers followed by ReLU.
    He,
    /// Xavier (Glorot) normal — for linear output heads.
    Xavier,
}

/// A fully connected layer `y = x·W + b` with `W: in×out`, `b: 1×out`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight matrix (in×out).
    pub weight: Param,
    /// Bias row vector (1×out).
    pub bias: Param,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Create a layer with the given initialization.
    pub fn new<R: Rng + ?Sized>(
        name: &str,
        in_dim: usize,
        out_dim: usize,
        init: Init,
        rng: &mut R,
    ) -> Self {
        let std = match init {
            Init::He => (2.0 / in_dim as f32).sqrt(),
            Init::Xavier => (2.0 / (in_dim + out_dim) as f32).sqrt(),
        };
        Self {
            weight: Param::new(
                format!("{name}.weight"),
                Tensor::randn(in_dim, out_dim, std, rng),
            ),
            bias: Param::new(format!("{name}.bias"), Tensor::zeros(1, out_dim)),
            in_dim,
            out_dim,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Apply the layer inside a graph.
    pub fn forward(&self, g: &mut Graph, x: NodeId) -> NodeId {
        let w = g.param(&self.weight);
        let b = g.param(&self.bias);
        let xw = g.matmul(x, w);
        g.add_row_broadcast(xw, b)
    }

    /// Apply the layer to a raw `[B, in]` tensor outside any graph — the
    /// inference fast path. No tape and no parameter clones; bit-identical
    /// to [`Linear::forward`] because the matmul and bias-broadcast kernels
    /// accumulate in the same element order, and every row of the output
    /// depends only on the matching input row.
    pub fn forward_batch(&self, x: &Tensor) -> Result<Tensor, MatmulError> {
        let mut out = self.weight.with_value(|w| x.try_matmul(w))?;
        self.bias.with_value(|b| out.add_row_broadcast_assign(b));
        Ok(out)
    }

    /// Register parameters.
    pub fn register(&self, set: &mut ParamSet) {
        set.register(self.weight.clone());
        set.register(self.bias.clone());
    }

    /// Deep copy with independent parameter storage.
    pub fn deep_clone(&self) -> Linear {
        Linear {
            weight: self.weight.deep_clone(),
            bias: self.bias.deep_clone(),
            in_dim: self.in_dim,
            out_dim: self.out_dim,
        }
    }
}

/// A stack of [`Linear`] layers with ReLU activations between them
/// ("several dense hidden layers with a ReLU activation", paper §5).
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Build an MLP with the given layer sizes, e.g. `[in, h1, h2]` yields
    /// two ReLU-activated hidden layers; the output is the last hidden
    /// representation (heads are attached separately).
    pub fn new<R: Rng + ?Sized>(name: &str, dims: &[usize], rng: &mut R) -> Self {
        assert!(dims.len() >= 2, "MLP needs at least input and one layer");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(&format!("{name}.{i}"), w[0], w[1], Init::He, rng))
            .collect();
        Self { layers }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// Apply all layers, ReLU after each.
    pub fn forward(&self, g: &mut Graph, x: NodeId) -> NodeId {
        let mut h = x;
        for layer in &self.layers {
            h = layer.forward(g, h);
            h = g.relu(h);
        }
        h
    }

    /// Graph-free batched forward: every layer followed by ReLU, row for
    /// row bit-identical to [`Mlp::forward`] on the same input.
    pub fn forward_batch(&self, x: &Tensor) -> Result<Tensor, MatmulError> {
        let mut h = self.layers[0].forward_batch(x)?;
        relu_inplace(&mut h);
        for layer in &self.layers[1..] {
            h = layer.forward_batch(&h)?;
            relu_inplace(&mut h);
        }
        Ok(h)
    }

    /// Register parameters.
    pub fn register(&self, set: &mut ParamSet) {
        for l in &self.layers {
            l.register(set);
        }
    }

    /// Deep copy with independent parameter storage.
    pub fn deep_clone(&self) -> Mlp {
        Mlp {
            layers: self.layers.iter().map(Linear::deep_clone).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let l = Linear::new("l", 4, 3, Init::He, &mut rng);
        let mut g = Graph::new();
        let x = g.constant(Tensor::zeros(5, 4));
        let y = l.forward(&mut g, x);
        assert_eq!(g.value(y).shape(), (5, 3));
    }

    #[test]
    fn mlp_forward_and_param_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let mlp = Mlp::new("trunk", &[6, 8, 4], &mut rng);
        assert_eq!(mlp.in_dim(), 6);
        assert_eq!(mlp.out_dim(), 4);
        let mut set = ParamSet::new();
        mlp.register(&mut set);
        assert_eq!(set.n_elements(), 6 * 8 + 8 + 8 * 4 + 4);

        let mut g = Graph::new();
        let x = g.constant(Tensor::zeros(2, 6));
        let y = mlp.forward(&mut g, x);
        assert_eq!(g.value(y).shape(), (2, 4));
        // ReLU output is non-negative.
        assert!(g.value(y).data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn forward_batch_reports_shape_mismatch() {
        let mut rng = StdRng::seed_from_u64(9);
        let l = Linear::new("l", 4, 3, Init::He, &mut rng);
        let err = l.forward_batch(&Tensor::zeros(5, 7)).unwrap_err();
        assert_eq!(err.left, (5, 7));
        assert_eq!(err.right, (4, 3));
        let mlp = Mlp::new("m", &[6, 8, 4], &mut rng);
        assert!(mlp.forward_batch(&Tensor::zeros(2, 5)).is_err());
        assert_eq!(
            mlp.forward_batch(&Tensor::zeros(2, 6)).unwrap().shape(),
            (2, 4)
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Batched forward over `[B, in]` is bit-identical, row for row, to
        /// B serial one-row forwards and to the graph path — the property
        /// that lets batching join the determinism contract.
        #[test]
        fn batched_and_serial_mlp_forward_agree_bitwise(
            seed in 0u64..1000,
            batch in 1usize..9,
            in_dim in 1usize..24,
            hidden in proptest::prelude::prop::collection::vec(1usize..24, 1..3),
        ) {
            use proptest::prelude::*;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut dims = vec![in_dim];
            dims.extend(hidden);
            let mlp = Mlp::new("t", &dims, &mut rng);
            let x = Tensor::randn(batch, in_dim, 1.0, &mut rng);
            let batched = mlp.forward_batch(&x).unwrap();

            let mut g = Graph::new();
            let node = g.constant(x.clone());
            let out_node = mlp.forward(&mut g, node);
            let graphed = g.value(out_node).clone();
            prop_assert_eq!(batched.data(), graphed.data());

            for r in 0..batch {
                let row = Tensor::row_vector(x.row(r).to_vec());
                let serial = mlp.forward_batch(&row).unwrap();
                prop_assert_eq!(serial.data(), batched.row(r), "row {} diverged", r);
            }
        }
    }

    #[test]
    fn deep_clone_is_independent() {
        let mut rng = StdRng::seed_from_u64(2);
        let l = Linear::new("l", 2, 2, Init::Xavier, &mut rng);
        let c = l.deep_clone();
        l.weight.set_value(Tensor::zeros(2, 2));
        assert_ne!(c.weight.value().data(), l.weight.value().data());
    }

    #[test]
    fn training_reduces_regression_loss() {
        // Sanity: an MLP + head trained by plain gradient descent fits y = x.
        let mut rng = StdRng::seed_from_u64(3);
        let mlp = Mlp::new("t", &[1, 16], &mut rng);
        let head = Linear::new("h", 16, 1, Init::Xavier, &mut rng);
        let mut set = ParamSet::new();
        mlp.register(&mut set);
        head.register(&mut set);

        let xs = Tensor::col_vector(vec![-1.0, -0.5, 0.0, 0.5, 1.0]);
        let ys = xs.clone();
        let loss_value = |set: &ParamSet| -> f32 {
            let _ = set;
            let mut g = Graph::new();
            let x = g.constant(xs.clone());
            let t = g.constant(ys.clone());
            let h = mlp.forward(&mut g, x);
            let o = head.forward(&mut g, h);
            let d = g.sub(o, t);
            let sq = g.mul(d, d);
            let loss = g.mean_all(sq);
            g.value(loss).scalar()
        };
        let initial = loss_value(&set);
        for _ in 0..200 {
            set.zero_grads();
            let mut g = Graph::new();
            let x = g.constant(xs.clone());
            let t = g.constant(ys.clone());
            let h = mlp.forward(&mut g, x);
            let o = head.forward(&mut g, h);
            let d = g.sub(o, t);
            let sq = g.mul(d, d);
            let loss = g.mean_all(sq);
            g.backward(loss);
            for p in set.params() {
                p.update(|v, grad| {
                    for (v, g) in v.data_mut().iter_mut().zip(grad.data()) {
                        *v -= 0.05 * g;
                    }
                });
            }
        }
        let fin = loss_value(&set);
        assert!(
            fin < initial * 0.1,
            "loss did not decrease: {initial} -> {fin}"
        );
        assert!(fin < 0.01, "final loss too high: {fin}");
    }
}
