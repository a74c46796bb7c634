//! Dense 2-D `f32` tensors (row-major) with the handful of BLAS-like
//! operations the policy networks need.
//!
//! ATENA's networks are small MLPs (observation ≈ 150 dims, two hidden
//! layers), so a straightforward row-major implementation is more than fast
//! enough and keeps the crate dependency-free.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A row-major matrix of `f32`. Vectors are 1×n or n×1 tensors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    data: Vec<f32>,
    rows: usize,
    cols: usize,
}

/// Inner-dimension mismatch reported by [`Tensor::try_matmul`].
///
/// Surfacing this as a value (instead of the historical panic) lets bundle
/// loading and the batched forward path validate shapes up front, so a
/// corrupt checkpoint turns into an error response rather than a dead
/// worker thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatmulError {
    /// Shape of the left operand.
    pub left: (usize, usize),
    /// Shape of the right operand.
    pub right: (usize, usize),
}

impl std::fmt::Display for MatmulError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "matmul dimension mismatch: {}x{} \u{b7} {}x{}",
            self.left.0, self.left.1, self.right.0, self.right.1
        )
    }
}

impl std::error::Error for MatmulError {}

/// Row-block size for the blocked matmul kernel. Each block of output rows
/// streams every row of `b` exactly once, so `b` traffics through cache
/// `MM_ROW_BLOCK`× less often than in a plain i-k-j loop; per output
/// element the k-index still ascends, keeping results bit-identical.
const MM_ROW_BLOCK: usize = 4;

/// Blocked `out += a · b` kernel shared by [`Tensor::try_matmul`].
///
/// Loop order is (row-block, k, i): within a block of output rows, `b`'s
/// row `k` is reused across all block rows while per output element the
/// adds still happen in ascending-k order — the exact accumulation sequence
/// (and `a == 0.0` skip) of the reference i-k-j loop, so the blocked kernel
/// is bit-identical to it.
fn matmul_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    let n = b.cols;
    let mut i0 = 0;
    while i0 < a.rows {
        let i1 = (i0 + MM_ROW_BLOCK).min(a.rows);
        for k in 0..a.cols {
            let b_row = b.row(k);
            for i in i0..i1 {
                let av = a.data[i * a.cols + k];
                if av == 0.0 {
                    continue;
                }
                axpy(av, b_row, &mut out.data[i * n..(i + 1) * n]);
            }
        }
        i0 = i1;
    }
}

/// `y[j] += a * x[j]` over the shorter of the two slices.
#[inline]
fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
    for (yj, &xj) in y.iter_mut().zip(x) {
        *yj += a * xj;
    }
}

impl Tensor {
    /// All-zeros tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// Tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            data: vec![value; rows * cols],
            rows,
            cols,
        }
    }

    /// Build from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "tensor data length mismatch");
        Self { data, rows, cols }
    }

    /// A 1×n row vector.
    pub fn row_vector(data: Vec<f32>) -> Self {
        let cols = data.len();
        Self {
            data,
            rows: 1,
            cols,
        }
    }

    /// An n×1 column vector.
    pub fn col_vector(data: Vec<f32>) -> Self {
        let rows = data.len();
        Self {
            data,
            rows,
            cols: 1,
        }
    }

    /// Gaussian-initialized tensor with the given standard deviation.
    pub fn randn<R: Rng + ?Sized>(rows: usize, cols: usize, std: f32, rng: &mut R) -> Self {
        // Box-Muller; avoids needing rand_distr.
        let mut data = Vec::with_capacity(rows * cols);
        while data.len() < rows * cols {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < rows * cols {
                data.push(r * theta.sin() * std);
            }
        }
        Self { data, rows, cols }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// One row as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self · other`, or a typed error on inner-dimension
    /// mismatch.
    pub fn try_matmul(&self, other: &Tensor) -> Result<Tensor, MatmulError> {
        if self.cols != other.rows {
            return Err(MatmulError {
                left: self.shape(),
                right: other.shape(),
            });
        }
        let mut out = Tensor::zeros(self.rows, other.cols);
        matmul_into(self, other, &mut out);
        Ok(out)
    }

    /// Matrix product `self · other`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch; [`Tensor::try_matmul`] is the
    /// non-panicking variant.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        match self.try_matmul(other) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// `self · otherᵀ` without materializing the transpose (the autodiff
    /// backward pass uses this for `grad_a = grad_out · Wᵀ`). Per output
    /// element the k-index ascends and zero left operands are skipped, the
    /// exact accumulation of `self.matmul(&other.transpose())` — the two
    /// are bit-identical.
    ///
    /// # Panics
    /// Panics when `self.cols() != other.cols()`.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.cols, "matmul_nt dimension mismatch");
        let mut out = Tensor::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let a_row = self.row(i);
            for j in 0..other.rows {
                let mut acc = 0.0f32;
                for (&a, &b) in a_row.iter().zip(other.row(j)) {
                    if a == 0.0 {
                        continue;
                    }
                    acc += a * b;
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// `selfᵀ · other` without materializing the transpose (backward pass:
    /// `grad_w = xᵀ · grad_out`). The row index of `self` plays the inner-k
    /// role and ascends per output element, with the same zero skip —
    /// bit-identical to `self.transpose().matmul(other)`.
    ///
    /// # Panics
    /// Panics when `self.rows() != other.rows()`.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rows, other.rows, "matmul_tn dimension mismatch");
        let mut out = Tensor::zeros(self.cols, other.cols);
        let n = other.cols;
        for r in 0..self.rows {
            let b_row = other.row(r);
            for i in 0..self.cols {
                let a = self.data[r * self.cols + i];
                if a == 0.0 {
                    continue;
                }
                axpy(a, b_row, &mut out.data[i * n..(i + 1) * n]);
            }
        }
        out
    }

    /// Add a `1 × cols` bias row to every row in place — the tensor-path
    /// twin of the graph's `add_row_broadcast` op (each element computes
    /// `x + bias` in that operand order).
    ///
    /// # Panics
    /// Panics unless `bias` is `1 × self.cols()`.
    pub fn add_row_broadcast_assign(&mut self, bias: &Tensor) {
        assert_eq!(bias.shape(), (1, self.cols), "row-broadcast shape mismatch");
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (v, &b) in row.iter_mut().zip(&bias.data) {
                *v += b;
            }
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Elementwise in-place addition.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Elementwise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&v| f(v)).collect(),
            rows: self.rows,
            cols: self.cols,
        }
    }

    /// Elementwise binary combination into a new tensor.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "zip shape mismatch");
        Tensor {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
            rows: self.rows,
            cols: self.cols,
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Sum of squares of all elements.
    pub fn sum_squares(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Set all elements to zero.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Scalar value of a 1×1 tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not 1×1.
    pub fn scalar(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "scalar() on non-1x1 tensor");
        self.data[0]
    }
}

/// Numerically stable row-wise log-softmax.
pub fn log_softmax_rows(x: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(x.rows(), x.cols());
    for r in 0..x.rows() {
        let row = x.row(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let lse = row.iter().map(|v| (v - max).exp()).sum::<f32>().ln() + max;
        for (c, &v) in row.iter().enumerate() {
            out.set(r, c, v - lse);
        }
    }
    out
}

/// Row-wise softmax (probabilities).
pub fn softmax_rows(x: &Tensor) -> Tensor {
    log_softmax_rows(x).map(f32::exp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 2);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn log_softmax_rows_sums_to_one() {
        let x = Tensor::from_vec(2, 3, vec![1., 2., 3., -1., 0., 1000.]);
        let p = softmax_rows(&x);
        for r in 0..2 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "row {r} sums to {s}");
        }
        // Huge logits stay finite (stability check).
        assert!(p.data().iter().all(|v| v.is_finite()));
        assert!((p.get(1, 2) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn randn_has_roughly_right_std() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor::randn(100, 100, 0.5, &mut rng);
        let mean = t.sum() / t.len() as f32;
        let var = t.data().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / t.len() as f32;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var.sqrt() - 0.5).abs() < 0.02, "std {}", var.sqrt());
    }

    #[test]
    fn map_zip_sum() {
        let a = Tensor::from_vec(1, 3, vec![1., -2., 3.]);
        let b = a.map(f32::abs);
        assert_eq!(b.data(), &[1., 2., 3.]);
        let c = a.zip(&b, |x, y| x + y);
        assert_eq!(c.data(), &[2., 0., 6.]);
        assert_eq!(c.sum(), 8.0);
        assert_eq!(a.sum_squares(), 14.0);
    }

    /// The pre-blocking i-k-j reference kernel, kept verbatim as the
    /// bit-exactness oracle for the blocked/axpy kernel.
    fn matmul_reference(a: &Tensor, b: &Tensor) -> Tensor {
        assert_eq!(a.cols(), b.rows());
        let mut out = Tensor::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            let a_row = a.row(i).to_vec();
            for (k, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_row = b.row(k).to_vec();
                for j in 0..b.cols() {
                    let v = out.get(i, j) + av * b_row[j];
                    out.set(i, j, v);
                }
            }
        }
        out
    }

    #[test]
    fn blocked_matmul_is_bit_identical_to_reference() {
        let mut rng = StdRng::seed_from_u64(11);
        // Shapes straddling the row-block size and the AVX lane width,
        // with injected exact zeros to exercise the skip path.
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (4, 8, 8), (9, 17, 33), (16, 150, 64)] {
            let mut a = Tensor::randn(m, k, 1.0, &mut rng);
            let b = Tensor::randn(k, n, 1.0, &mut rng);
            for i in 0..a.len() / 3 {
                a.data_mut()[i * 3] = 0.0;
            }
            let fast = a.matmul(&b);
            let slow = matmul_reference(&a, &b);
            assert_eq!(fast.data(), slow.data(), "shape ({m},{k},{n}) diverged");
        }
    }

    #[test]
    fn transposed_kernels_match_materialized_transpose() {
        let mut rng = StdRng::seed_from_u64(12);
        for &(m, k, n) in &[(1, 1, 1), (2, 3, 4), (7, 13, 5), (8, 32, 9)] {
            let a = Tensor::randn(m, k, 1.0, &mut rng);
            let b = Tensor::randn(n, k, 1.0, &mut rng);
            assert_eq!(a.matmul_nt(&b).data(), a.matmul(&b.transpose()).data());
            let c = Tensor::randn(k, m, 1.0, &mut rng);
            let d = Tensor::randn(k, n, 1.0, &mut rng);
            assert_eq!(c.matmul_tn(&d).data(), c.transpose().matmul(&d).data());
        }
    }

    #[test]
    fn try_matmul_reports_shapes() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 2);
        let err = a.try_matmul(&b).unwrap_err();
        assert_eq!(err.left, (2, 3));
        assert_eq!(err.right, (2, 2));
        assert!(err.to_string().contains("matmul dimension mismatch"));
        assert!(a.try_matmul(&Tensor::zeros(3, 4)).is_ok());
    }

    #[test]
    fn add_row_broadcast_assign_matches_per_element_add() {
        let mut x = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::row_vector(vec![0.5, -1.0, 2.0]);
        x.add_row_broadcast_assign(&b);
        assert_eq!(x.data(), &[1.5, 1.0, 5.0, 4.5, 4.0, 8.0]);
    }

    #[test]
    fn vectors_and_scalar() {
        let r = Tensor::row_vector(vec![1., 2.]);
        assert_eq!(r.shape(), (1, 2));
        let c = Tensor::col_vector(vec![1., 2.]);
        assert_eq!(c.shape(), (2, 1));
        let s = Tensor::full(1, 1, 5.0);
        assert_eq!(s.scalar(), 5.0);
    }
}
