//! # atena-nn
//!
//! A minimal, dependency-light neural-network library: dense `f32` tensors,
//! reverse-mode autodiff on a flat tape, linear/MLP layers, and SGD/Adam
//! optimizers. It replaces the ChainerRL/Chainer substrate the original
//! ATENA implementation uses — the policy networks here are small MLPs, so
//! a pure-Rust implementation is both sufficient and fully reproducible.
//!
//! The op set is exactly what the actor-critic losses need: matmul, bias
//! broadcast, ReLU/tanh/exp, row-wise log-softmax, per-row gather,
//! reductions, elementwise min and stop-gradient clamp (for the PPO clipped
//! surrogate), and entropy expressions.
//!
//! ```
//! use atena_nn::{Graph, Mlp, ParamSet, Tensor, Adam};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mlp = Mlp::new("trunk", &[4, 8], &mut rng);
//! let mut params = ParamSet::new();
//! mlp.register(&mut params);
//! let mut opt = Adam::new(&params, 1e-3);
//!
//! let mut g = Graph::new();
//! let x = g.constant(Tensor::zeros(2, 4));
//! let h = mlp.forward(&mut g, x);
//! let loss = g.mean_all(h);
//! g.backward(loss);
//! opt.step(&params);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod graph;
mod layers;
mod optim;
mod param;
mod tensor;

pub use graph::{Graph, NodeId};
pub use layers::{Init, Linear, Mlp};
pub use optim::{Adam, Sgd};
pub use param::{Param, ParamData, ParamSet};
pub use tensor::{log_softmax_rows, softmax_rows, MatmulError, Tensor};
