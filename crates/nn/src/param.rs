//! Trainable parameters, shareable across rollout worker threads.

use crate::tensor::Tensor;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Inner storage of a parameter: value and accumulated gradient.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParamData {
    /// Current parameter value.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
}

/// A trainable parameter tensor.
///
/// Parameters are `Arc<RwLock<..>>` so that a policy can be cloned cheaply
/// into rollout worker threads (which only read values) while the trainer
/// thread writes gradients and applies optimizer updates.
#[derive(Debug, Clone)]
pub struct Param {
    inner: Arc<RwLock<ParamData>>,
    name: String,
}

impl Param {
    /// Create a parameter from an initial value.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        let grad = Tensor::zeros(value.rows(), value.cols());
        Self {
            inner: Arc::new(RwLock::new(ParamData { value, grad })),
            name: name.into(),
        }
    }

    /// Parameter name (for diagnostics and serialization).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Shape of the parameter.
    pub fn shape(&self) -> (usize, usize) {
        let d = self.inner.read();
        d.value.shape()
    }

    /// Snapshot of the current value.
    pub fn value(&self) -> Tensor {
        self.inner.read().value.clone()
    }

    /// Run `f` against the current value under the read lock, without
    /// cloning. The batched inference path calls this per layer per step;
    /// [`Param::value`] would copy the full weight matrix each time.
    pub fn with_value<R>(&self, f: impl FnOnce(&Tensor) -> R) -> R {
        f(&self.inner.read().value)
    }

    /// Overwrite the value (e.g. loading a checkpoint).
    pub fn set_value(&self, value: Tensor) {
        let mut d = self.inner.write();
        assert_eq!(d.value.shape(), value.shape(), "parameter shape mismatch");
        d.value = value;
    }

    /// Snapshot of the accumulated gradient.
    pub fn grad(&self) -> Tensor {
        self.inner.read().grad.clone()
    }

    /// Add `delta` into the accumulated gradient.
    pub fn accumulate_grad(&self, delta: &Tensor) {
        self.inner.write().grad.add_assign(delta);
    }

    /// Zero the accumulated gradient.
    pub fn zero_grad(&self) {
        self.inner.write().grad.fill_zero();
    }

    /// Apply an update function to `(value, grad)` under the write lock.
    pub fn update(&self, f: impl FnOnce(&mut Tensor, &Tensor)) {
        let mut d = self.inner.write();
        // Split borrow: temporarily take the grad out.
        let grad = std::mem::replace(&mut d.grad, Tensor::zeros(0, 0));
        f(&mut d.value, &grad);
        d.grad = grad;
    }

    /// Deep copy with independent storage (used to snapshot policies).
    pub fn deep_clone(&self) -> Param {
        let d = self.inner.read();
        Param::new(self.name.clone(), d.value.clone())
    }

    /// Number of scalar parameters.
    pub fn n_elements(&self) -> usize {
        let d = self.inner.read();
        d.value.len()
    }
}

/// A named collection of parameters — everything an optimizer steps over
/// and a checkpoint (de)serializes.
#[derive(Debug, Clone, Default)]
pub struct ParamSet {
    params: Vec<Param>,
}

impl ParamSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a parameter.
    pub fn register(&mut self, param: Param) {
        self.params.push(param);
    }

    /// Extend with all parameters of another set.
    pub fn extend(&mut self, other: &ParamSet) {
        self.params.extend(other.params.iter().cloned());
    }

    /// All parameters.
    pub fn params(&self) -> &[Param] {
        &self.params
    }

    /// Total number of scalar parameters.
    pub fn n_elements(&self) -> usize {
        self.params.iter().map(Param::n_elements).sum()
    }

    /// Zero all gradients.
    pub fn zero_grads(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    /// Global L2 norm of all gradients.
    pub fn grad_norm(&self) -> f32 {
        self.params
            .iter()
            .map(|p| p.inner.read().grad.sum_squares())
            .sum::<f32>()
            .sqrt()
    }

    /// Scale gradients so their global norm does not exceed `max_norm`.
    /// Returns the pre-clip norm.
    pub fn clip_grad_norm(&self, max_norm: f32) -> f32 {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for p in &self.params {
                let mut d = p.inner.write();
                for g in d.grad.data_mut() {
                    *g *= scale;
                }
            }
        }
        norm
    }

    /// Serialize all parameter values as `(name, tensor)` pairs.
    pub fn state(&self) -> Vec<(String, Tensor)> {
        self.params
            .iter()
            .map(|p| (p.name().to_string(), p.value()))
            .collect()
    }

    /// Load values by name. Unknown names are ignored; missing names are an
    /// error.
    pub fn load_state(&self, state: &[(String, Tensor)]) -> Result<(), String> {
        for p in &self.params {
            let found = state.iter().find(|(n, _)| n == p.name());
            match found {
                Some((_, t)) => {
                    if t.shape() != p.shape() {
                        return Err(format!(
                            "shape mismatch for {}: checkpoint {:?}, model {:?}",
                            p.name(),
                            t.shape(),
                            p.shape()
                        ));
                    }
                    p.set_value(t.clone());
                }
                None => return Err(format!("missing parameter in checkpoint: {}", p.name())),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grad_accumulation_and_zero() {
        let p = Param::new("w", Tensor::zeros(2, 2));
        p.accumulate_grad(&Tensor::full(2, 2, 1.0));
        p.accumulate_grad(&Tensor::full(2, 2, 0.5));
        assert_eq!(p.grad().data(), &[1.5; 4]);
        p.zero_grad();
        assert_eq!(p.grad().data(), &[0.0; 4]);
    }

    #[test]
    fn update_sees_grad() {
        let p = Param::new("w", Tensor::full(1, 2, 1.0));
        p.accumulate_grad(&Tensor::full(1, 2, 2.0));
        p.update(|v, g| {
            for (v, g) in v.data_mut().iter_mut().zip(g.data()) {
                *v -= 0.1 * g;
            }
        });
        assert_eq!(p.value().data(), &[0.8, 0.8]);
    }

    #[test]
    fn clones_share_storage_deep_clone_does_not() {
        let p = Param::new("w", Tensor::zeros(1, 1));
        let shared = p.clone();
        let deep = p.deep_clone();
        p.set_value(Tensor::full(1, 1, 3.0));
        assert_eq!(shared.value().scalar(), 3.0);
        assert_eq!(deep.value().scalar(), 0.0);
    }

    #[test]
    fn clip_grad_norm_scales() {
        let mut set = ParamSet::new();
        let p = Param::new("w", Tensor::zeros(1, 2));
        p.accumulate_grad(&Tensor::from_vec(1, 2, vec![3.0, 4.0])); // norm 5
        set.register(p.clone());
        let pre = set.clip_grad_norm(1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        assert!((set.grad_norm() - 1.0).abs() < 1e-5);
        // Below the cap: untouched.
        let pre2 = set.clip_grad_norm(10.0);
        assert!((pre2 - 1.0).abs() < 1e-5);
    }

    #[test]
    fn state_round_trip() {
        let mut set = ParamSet::new();
        set.register(Param::new("a", Tensor::full(1, 2, 1.0)));
        set.register(Param::new("b", Tensor::full(2, 1, 2.0)));
        let state = set.state();

        let mut other = ParamSet::new();
        other.register(Param::new("a", Tensor::zeros(1, 2)));
        other.register(Param::new("b", Tensor::zeros(2, 1)));
        other.load_state(&state).unwrap();
        assert_eq!(other.params()[0].value().data(), &[1.0, 1.0]);

        let mut bad = ParamSet::new();
        bad.register(Param::new("zzz", Tensor::zeros(1, 1)));
        assert!(bad.load_state(&state).is_err());
    }

    #[test]
    fn n_elements() {
        let mut set = ParamSet::new();
        set.register(Param::new("a", Tensor::zeros(3, 4)));
        set.register(Param::new("b", Tensor::zeros(1, 4)));
        assert_eq!(set.n_elements(), 16);
    }
}
