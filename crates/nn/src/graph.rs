//! Reverse-mode automatic differentiation on a flat tape.
//!
//! Each forward pass builds a fresh [`Graph`]; operations append nodes that
//! record their inputs as an [`Op`] variant. [`Graph::backward`] walks the
//! tape in reverse, pattern-matching each op to propagate gradients —
//! no closures, no lifetimes, easy to audit.

use crate::param::Param;
use crate::tensor::{log_softmax_rows, Tensor};

/// Handle to a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeId(usize);

/// The operation that produced a node.
#[derive(Debug, Clone)]
enum Op {
    /// Constant input or parameter leaf.
    Leaf,
    /// `A · B`.
    MatMul(NodeId, NodeId),
    /// Elementwise `A + B` (same shape).
    Add(NodeId, NodeId),
    /// `A + bias` where bias is 1×c broadcast over rows.
    AddRowBroadcast(NodeId, NodeId),
    /// Elementwise `A - B`.
    Sub(NodeId, NodeId),
    /// Elementwise `A * B`.
    Mul(NodeId, NodeId),
    /// `A * k`.
    Scale(NodeId, f32),
    /// `max(A, 0)`.
    Relu(NodeId),
    /// `tanh(A)`.
    Tanh(NodeId),
    /// `exp(A)`.
    Exp(NodeId),
    /// Row-wise log-softmax.
    LogSoftmaxRows(NodeId),
    /// One element per row: `y[i] = A[i, idx[i]]`, output r×1.
    PickPerRow(NodeId, Vec<usize>),
    /// Row sums, output r×1.
    SumRows(NodeId),
    /// Mean of all elements, output 1×1.
    MeanAll(NodeId),
    /// Sum of all elements, output 1×1.
    SumAll(NodeId),
    /// Elementwise minimum of A and B; the smaller branch gets the gradient.
    MinElem(NodeId, NodeId),
    /// `clamp(A, lo, hi)`; gradient passes only strictly inside the range
    /// (PPO-style stop-gradient at the clip boundary).
    Clamp(NodeId, f32, f32),
}

struct Node {
    value: Tensor,
    grad: Option<Tensor>,
    op: Op,
    /// For parameter leaves: where to flush the gradient after backward.
    param: Option<Param>,
    needs_grad: bool,
}

/// A single-use computation tape.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
}

impl Graph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, value: Tensor, op: Op, needs_grad: bool) -> NodeId {
        self.nodes.push(Node {
            value,
            grad: None,
            op,
            param: None,
            needs_grad,
        });
        NodeId(self.nodes.len() - 1)
    }

    fn needs(&self, id: NodeId) -> bool {
        self.nodes[id.0].needs_grad
    }

    /// Insert a constant (no gradient flows into it).
    pub fn constant(&mut self, value: Tensor) -> NodeId {
        self.push(value, Op::Leaf, false)
    }

    /// Insert a trainable parameter leaf; after [`Graph::backward`] the
    /// accumulated gradient is flushed into the parameter.
    pub fn param(&mut self, param: &Param) -> NodeId {
        let value = param.value();
        let id = self.push(value, Op::Leaf, true);
        self.nodes[id.0].param = Some(param.clone());
        id
    }

    /// Value of a node.
    pub fn value(&self, id: NodeId) -> &Tensor {
        &self.nodes[id.0].value
    }

    /// Gradient of a node (zeros if backward has not reached it).
    pub fn grad(&self, id: NodeId) -> Tensor {
        let n = &self.nodes[id.0];
        n.grad
            .clone()
            .unwrap_or_else(|| Tensor::zeros(n.value.rows(), n.value.cols()))
    }

    /// `A · B`.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.nodes[a.0].value.matmul(&self.nodes[b.0].value);
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::MatMul(a, b), ng)
    }

    /// Elementwise `A + B`.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.nodes[a.0]
            .value
            .zip(&self.nodes[b.0].value, |x, y| x + y);
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::Add(a, b), ng)
    }

    /// `A + bias` with a 1×c bias broadcast across rows.
    pub fn add_row_broadcast(&mut self, a: NodeId, bias: NodeId) -> NodeId {
        let mut v = self.nodes[a.0].value.clone();
        v.add_row_broadcast_assign(&self.nodes[bias.0].value);
        let ng = self.needs(a) || self.needs(bias);
        self.push(v, Op::AddRowBroadcast(a, bias), ng)
    }

    /// Elementwise `A - B`.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.nodes[a.0]
            .value
            .zip(&self.nodes[b.0].value, |x, y| x - y);
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::Sub(a, b), ng)
    }

    /// Elementwise `A * B`.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.nodes[a.0]
            .value
            .zip(&self.nodes[b.0].value, |x, y| x * y);
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::Mul(a, b), ng)
    }

    /// `A * k`.
    pub fn scale(&mut self, a: NodeId, k: f32) -> NodeId {
        let v = self.nodes[a.0].value.map(|x| x * k);
        let ng = self.needs(a);
        self.push(v, Op::Scale(a, k), ng)
    }

    /// `-A`.
    pub fn neg(&mut self, a: NodeId) -> NodeId {
        self.scale(a, -1.0)
    }

    /// `relu(A)`.
    pub fn relu(&mut self, a: NodeId) -> NodeId {
        let v = self.nodes[a.0].value.map(|x| x.max(0.0));
        let ng = self.needs(a);
        self.push(v, Op::Relu(a), ng)
    }

    /// `tanh(A)`.
    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        let v = self.nodes[a.0].value.map(f32::tanh);
        let ng = self.needs(a);
        self.push(v, Op::Tanh(a), ng)
    }

    /// `exp(A)`.
    pub fn exp(&mut self, a: NodeId) -> NodeId {
        let v = self.nodes[a.0].value.map(f32::exp);
        let ng = self.needs(a);
        self.push(v, Op::Exp(a), ng)
    }

    /// Row-wise log-softmax.
    pub fn log_softmax_rows(&mut self, a: NodeId) -> NodeId {
        let v = log_softmax_rows(&self.nodes[a.0].value);
        let ng = self.needs(a);
        self.push(v, Op::LogSoftmaxRows(a), ng)
    }

    /// `y[i] = A[i, idx[i]]` (r×1).
    ///
    /// # Panics
    /// Panics if `idx.len()` differs from the row count or any index is out
    /// of range.
    pub fn pick_per_row(&mut self, a: NodeId, idx: Vec<usize>) -> NodeId {
        let av = &self.nodes[a.0].value;
        assert_eq!(idx.len(), av.rows(), "pick_per_row index count mismatch");
        let data: Vec<f32> = idx.iter().enumerate().map(|(r, &c)| av.get(r, c)).collect();
        let v = Tensor::col_vector(data);
        let ng = self.needs(a);
        self.push(v, Op::PickPerRow(a, idx), ng)
    }

    /// Row sums (r×1).
    pub fn sum_rows(&mut self, a: NodeId) -> NodeId {
        let av = &self.nodes[a.0].value;
        let data: Vec<f32> = (0..av.rows()).map(|r| av.row(r).iter().sum()).collect();
        let v = Tensor::col_vector(data);
        let ng = self.needs(a);
        self.push(v, Op::SumRows(a), ng)
    }

    /// Mean of all elements (1×1).
    pub fn mean_all(&mut self, a: NodeId) -> NodeId {
        let av = &self.nodes[a.0].value;
        let v = Tensor::full(1, 1, av.sum() / av.len() as f32);
        let ng = self.needs(a);
        self.push(v, Op::MeanAll(a), ng)
    }

    /// Sum of all elements (1×1).
    pub fn sum_all(&mut self, a: NodeId) -> NodeId {
        let av = &self.nodes[a.0].value;
        let v = Tensor::full(1, 1, av.sum());
        let ng = self.needs(a);
        self.push(v, Op::SumAll(a), ng)
    }

    /// Elementwise `min(A, B)`.
    pub fn min_elem(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.nodes[a.0].value.zip(&self.nodes[b.0].value, f32::min);
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::MinElem(a, b), ng)
    }

    /// `clamp(A, lo, hi)` with stop-gradient outside the open interval.
    pub fn clamp(&mut self, a: NodeId, lo: f32, hi: f32) -> NodeId {
        let v = self.nodes[a.0].value.map(|x| x.clamp(lo, hi));
        let ng = self.needs(a);
        self.push(v, Op::Clamp(a, lo, hi), ng)
    }

    /// Run reverse-mode differentiation from a 1×1 loss node, then flush
    /// accumulated gradients into any parameter leaves.
    ///
    /// # Panics
    /// Panics if `loss` is not 1×1.
    pub fn backward(&mut self, loss: NodeId) {
        assert_eq!(
            self.nodes[loss.0].value.shape(),
            (1, 1),
            "loss must be scalar"
        );
        self.nodes[loss.0].grad = Some(Tensor::full(1, 1, 1.0));

        for i in (0..=loss.0).rev() {
            if !self.nodes[i].needs_grad {
                continue;
            }
            let Some(grad_out) = self.nodes[i].grad.take() else {
                continue;
            };
            let op = self.nodes[i].op.clone();
            let value = std::mem::replace(&mut self.nodes[i].value, Tensor::zeros(0, 0));
            self.propagate(&op, &value, &grad_out);
            self.nodes[i].value = value;
            self.nodes[i].grad = Some(grad_out);
        }

        // Flush gradients into parameters.
        for node in &mut self.nodes {
            if let (Some(param), Some(grad)) = (&node.param, &node.grad) {
                param.accumulate_grad(grad);
            }
        }
    }

    /// [`Graph::accumulate`] a delta computed from borrowed node values,
    /// only when `id` needs a gradient.
    fn accumulate_with(&mut self, id: NodeId, delta: impl FnOnce(&Self) -> Tensor) {
        if self.needs(id) {
            let delta = delta(self);
            self.accumulate(id, delta);
        }
    }

    fn accumulate(&mut self, id: NodeId, delta: Tensor) {
        if !self.nodes[id.0].needs_grad {
            return;
        }
        match &mut self.nodes[id.0].grad {
            Some(g) => g.add_assign(&delta),
            slot @ None => *slot = Some(delta),
        }
    }

    fn propagate(&mut self, op: &Op, out_value: &Tensor, grad_out: &Tensor) {
        match op {
            Op::Leaf => {}
            Op::MatMul(a, b) => {
                // dA = dY · Bᵀ, dB = Aᵀ · dY.
                self.accumulate_with(*a, |g| grad_out.matmul_nt(g.value(*b)));
                self.accumulate_with(*b, |g| g.value(*a).matmul_tn(grad_out));
            }
            Op::Add(a, b) => {
                self.accumulate(*a, grad_out.clone());
                self.accumulate(*b, grad_out.clone());
            }
            Op::AddRowBroadcast(a, bias) => {
                self.accumulate(*a, grad_out.clone());
                self.accumulate_with(*bias, |_| {
                    // Column sums, adding the rows in order.
                    let mut col_sums = Tensor::zeros(1, grad_out.cols());
                    for r in 0..grad_out.rows() {
                        for (s, &g) in col_sums.data_mut().iter_mut().zip(grad_out.row(r)) {
                            *s += g;
                        }
                    }
                    col_sums
                });
            }
            Op::Sub(a, b) => {
                self.accumulate(*a, grad_out.clone());
                self.accumulate(*b, grad_out.map(|x| -x));
            }
            Op::Mul(a, b) => {
                self.accumulate_with(*a, |g| grad_out.zip(g.value(*b), |d, y| d * y));
                self.accumulate_with(*b, |g| grad_out.zip(g.value(*a), |d, x| d * x));
            }
            Op::Scale(a, k) => self.accumulate(*a, grad_out.map(|g| g * k)),
            Op::Relu(a) => {
                self.accumulate_with(*a, |g| {
                    grad_out.zip(g.value(*a), |d, x| if x > 0.0 { d } else { 0.0 })
                });
            }
            Op::Tanh(a) => {
                self.accumulate(*a, grad_out.zip(out_value, |g, y| g * (1.0 - y * y)));
            }
            Op::Exp(a) => {
                self.accumulate(*a, grad_out.zip(out_value, |g, y| g * y));
            }
            Op::LogSoftmaxRows(a) => {
                // dA = dY - softmax(A) * rowsum(dY)
                let p = out_value.map(f32::exp);
                let mut delta = grad_out.clone();
                for r in 0..delta.rows() {
                    let row_sum: f32 = grad_out.row(r).iter().sum();
                    for c in 0..delta.cols() {
                        let v = delta.get(r, c) - p.get(r, c) * row_sum;
                        delta.set(r, c, v);
                    }
                }
                self.accumulate(*a, delta);
            }
            Op::PickPerRow(a, idx) => {
                let shape = self.nodes[a.0].value.shape();
                let mut delta = Tensor::zeros(shape.0, shape.1);
                for (r, &c) in idx.iter().enumerate() {
                    delta.set(r, c, grad_out.get(r, 0));
                }
                self.accumulate(*a, delta);
            }
            Op::SumRows(a) => {
                let shape = self.nodes[a.0].value.shape();
                let mut delta = Tensor::zeros(shape.0, shape.1);
                for r in 0..shape.0 {
                    let g = grad_out.get(r, 0);
                    for c in 0..shape.1 {
                        delta.set(r, c, g);
                    }
                }
                self.accumulate(*a, delta);
            }
            Op::MeanAll(a) => {
                let shape = self.nodes[a.0].value.shape();
                let g = grad_out.scalar() / (shape.0 * shape.1) as f32;
                self.accumulate(*a, Tensor::full(shape.0, shape.1, g));
            }
            Op::SumAll(a) => {
                let shape = self.nodes[a.0].value.shape();
                self.accumulate(*a, Tensor::full(shape.0, shape.1, grad_out.scalar()));
            }
            Op::MinElem(a, b) => {
                // `grad_out`, zeroed where `blocked(A, B)`.
                let (a, b) = (*a, *b);
                let routed = |g: &Self, blocked: fn(f32, f32) -> bool| {
                    let mut delta = grad_out.clone();
                    let (av, bv) = (g.value(a), g.value(b));
                    for (d, (&x, &y)) in delta
                        .data_mut()
                        .iter_mut()
                        .zip(av.data().iter().zip(bv.data()))
                    {
                        if blocked(x, y) {
                            *d = 0.0;
                        }
                    }
                    delta
                };
                self.accumulate_with(a, |g| routed(g, |x, y| x > y));
                self.accumulate_with(b, |g| routed(g, |x, y| x <= y));
            }
            Op::Clamp(a, lo, hi) => {
                self.accumulate_with(*a, |g| {
                    grad_out.zip(g.value(*a), |d, x| if x > *lo && x < *hi { d } else { 0.0 })
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Numerically check d(loss)/d(param) for a builder function.
    fn grad_check(build: impl Fn(&mut Graph, NodeId) -> NodeId, input: Tensor, tol: f32) {
        let param = Param::new("x", input.clone());
        // Analytic gradient.
        let mut g = Graph::new();
        let x = g.param(&param);
        let loss = build(&mut g, x);
        g.backward(loss);
        let analytic = param.grad();

        // Numerical gradient.
        let eps = 1e-3f32;
        let (rows, cols) = input.shape();
        for r in 0..rows {
            for c in 0..cols {
                let mut plus = input.clone();
                plus.set(r, c, plus.get(r, c) + eps);
                let mut minus = input.clone();
                minus.set(r, c, minus.get(r, c) - eps);
                let eval = |t: Tensor| {
                    let mut g = Graph::new();
                    let x = g.constant(t);
                    let loss = build(&mut g, x);
                    g.value(loss).scalar()
                };
                let numeric = (eval(plus) - eval(minus)) / (2.0 * eps);
                let a = analytic.get(r, c);
                assert!(
                    (a - numeric).abs() < tol.max(0.05 * numeric.abs()),
                    "grad mismatch at ({r},{c}): analytic {a}, numeric {numeric}"
                );
            }
        }
    }

    fn rand_tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::randn(rows, cols, 1.0, &mut rng)
    }

    #[test]
    fn grad_check_matmul_chain() {
        let w = rand_tensor(3, 2, 1);
        grad_check(
            move |g, x| {
                let w = g.constant(w.clone());
                let y = g.matmul(x, w);
                g.mean_all(y)
            },
            rand_tensor(2, 3, 2),
            1e-2,
        );
    }

    #[test]
    fn grad_check_relu_mlp() {
        let w1 = rand_tensor(4, 5, 3);
        let w2 = rand_tensor(5, 1, 4);
        grad_check(
            move |g, x| {
                let w1 = g.constant(w1.clone());
                let w2 = g.constant(w2.clone());
                let h = g.matmul(x, w1);
                let h = g.relu(h);
                let o = g.matmul(h, w2);
                g.mean_all(o)
            },
            rand_tensor(3, 4, 5),
            1e-2,
        );
    }

    #[test]
    fn grad_check_log_softmax_pick() {
        grad_check(
            |g, x| {
                let lp = g.log_softmax_rows(x);
                let picked = g.pick_per_row(lp, vec![0, 2]);
                g.mean_all(picked)
            },
            rand_tensor(2, 3, 6),
            1e-2,
        );
    }

    #[test]
    fn grad_check_entropy_expression() {
        grad_check(
            |g, x| {
                let lp = g.log_softmax_rows(x);
                let p = g.exp(lp);
                let plogp = g.mul(p, lp);
                let rows = g.sum_rows(plogp);
                let ent = g.neg(rows);
                g.mean_all(ent)
            },
            rand_tensor(2, 4, 7),
            1e-2,
        );
    }

    #[test]
    fn grad_check_tanh_exp_sub_mul() {
        grad_check(
            |g, x| {
                let t = g.tanh(x);
                let e = g.exp(t);
                let d = g.sub(e, t);
                let m = g.mul(d, d);
                g.mean_all(m)
            },
            rand_tensor(2, 3, 8),
            1e-2,
        );
    }

    #[test]
    fn grad_check_ppo_like_loss() {
        let adv = Tensor::col_vector(vec![1.0, -0.5, 2.0]);
        grad_check(
            move |g, x| {
                // x plays the role of (logp - logp_old), one per row.
                let lp = g.sum_rows(x);
                let ratio = g.exp(lp);
                let adv = g.constant(adv.clone());
                let s1 = g.mul(ratio, adv);
                let clipped = g.clamp(ratio, 0.8, 1.2);
                let s2 = g.mul(clipped, adv);
                let m = g.min_elem(s1, s2);
                let mean = g.mean_all(m);
                g.neg(mean)
            },
            Tensor::col_vector(vec![0.05, -0.1, 0.0]),
            1e-2,
        );
    }

    #[test]
    fn bias_broadcast_grad() {
        let bias = Param::new("b", Tensor::row_vector(vec![0.1, 0.2]));
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]));
        let b = g.param(&bias);
        let y = g.add_row_broadcast(x, b);
        let loss = g.sum_all(y);
        g.backward(loss);
        // d(sum)/d(bias_c) = number of rows.
        assert_eq!(bias.grad().data(), &[3.0, 3.0]);
    }

    #[test]
    fn param_grads_flush_and_accumulate() {
        let p = Param::new("w", Tensor::full(1, 1, 2.0));
        for _ in 0..2 {
            let mut g = Graph::new();
            let x = g.param(&p);
            let y = g.mul(x, x); // y = w^2, dy/dw = 2w = 4
            let loss = g.mean_all(y);
            g.backward(loss);
        }
        assert_eq!(p.grad().scalar(), 8.0); // two backward passes accumulate
    }

    #[test]
    fn constants_get_no_grad() {
        let mut g = Graph::new();
        let c = g.constant(Tensor::full(1, 1, 3.0));
        let y = g.mul(c, c);
        let loss = g.mean_all(y);
        g.backward(loss);
        assert_eq!(g.grad(c).scalar(), 0.0);
    }

    #[test]
    #[should_panic(expected = "loss must be scalar")]
    fn backward_requires_scalar() {
        let mut g = Graph::new();
        let c = g.constant(Tensor::zeros(2, 2));
        g.backward(c);
    }
}
