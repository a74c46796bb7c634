//! Dense 2-D `f32` tensors (row-major) with the handful of BLAS-like
//! operations the policy networks need.
//!
//! ATENA's networks are small MLPs (observation ≈ 150 dims, two hidden
//! layers), so plain row-major storage and one safe, autovectorized matmul
//! kernel are enough and keep the crate dependency-free. Every product —
//! [`Tensor::matmul`] and the backward pass's [`Tensor::matmul_nt`] and
//! [`Tensor::matmul_tn`] — runs through that kernel, which keeps each
//! output element's exact sum of the textbook i-k-j loop, so results do
//! not depend on the batch size or on which product computed them.

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

/// The one matmul kernel: `a · b` for row-major `a` (m×k) and `b` (k×n).
///
/// Every output element is `0.0` plus `a[i, k] * b[k, j]` for each `k`
/// with `a[i, k] != 0.0`, added in ascending `k` with no FMA: the exact
/// sequence of the textbook i-k-j loop (kept as the oracle in the tests),
/// so the two are bit-identical. The zero skip drops ±0.0 and keeps NaN.
///
/// Two things make it fast. Row `i`'s nonzero `(k, a[i, k])` pairs are
/// gathered once, without a branch, so the skip (about half of a ReLU
/// activation) costs nothing in the inner loop. And each chunk of up to
/// 32 output columns accumulates in a local array that the compiler keeps
/// in vector registers, then is stored once.
fn matmul_kernel(a: &Tensor, b: &Tensor) -> Tensor {
    debug_assert_eq!(a.cols, b.rows);
    let n = b.cols;
    let mut out = Tensor::zeros(a.rows, n);
    // (offset of row k in `b`, a[i, k]) for row i's nonzeros.
    let mut terms = vec![(0usize, 0.0f32); a.cols];
    for i in 0..a.rows {
        let out_row = &mut out.data[i * n..(i + 1) * n];
        let mut len = 0;
        for (k, &v) in a.row(i).iter().enumerate() {
            terms[len] = (k * n, v);
            len += usize::from(v != 0.0);
        }
        let terms = &terms[..len];
        let mut j = 0;
        j = row_chunks::<32>(terms, &b.data, out_row, j);
        j = row_chunks::<16>(terms, &b.data, out_row, j);
        j = row_chunks::<8>(terms, &b.data, out_row, j);
        j = row_chunks::<4>(terms, &b.data, out_row, j);
        row_chunks::<1>(terms, &b.data, out_row, j);
    }
    out
}

/// Fill `out_row[j..]` in chunks of `W` columns while a whole chunk fits;
/// returns the first column left unfilled.
fn row_chunks<const W: usize>(
    terms: &[(usize, f32)],
    b: &[f32],
    out_row: &mut [f32],
    mut j: usize,
) -> usize {
    while j + W <= out_row.len() {
        let mut acc = [0.0f32; W];
        for &(offset, a) in terms {
            let b_chunk: &[f32; W] = b[offset + j..offset + j + W]
                .try_into()
                .expect("chunk is W wide");
            for (acc, &bv) in acc.iter_mut().zip(b_chunk) {
                *acc += a * bv;
            }
        }
        out_row[j..j + W].copy_from_slice(&acc);
        j += W;
    }
    j
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
        Ok(matmul_kernel(self, other))
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

    /// `self · otherᵀ` (the autodiff backward pass uses this for
    /// `grad_a = grad_out · Wᵀ`): the matmul kernel on `(self, otherᵀ)`, so
    /// bit-identical to `self.matmul(&other.transpose())`.
    ///
    /// # Panics
    /// Panics when `self.cols() != other.cols()`.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.cols, "matmul_nt dimension mismatch");
        matmul_kernel(self, &other.transpose())
    }

    /// `selfᵀ · other` (backward pass: `grad_w = xᵀ · grad_out`): the
    /// matmul kernel on `(selfᵀ, other)`, so bit-identical to
    /// `self.transpose().matmul(other)`.
    ///
    /// # Panics
    /// Panics when `self.rows() != other.rows()`.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rows, other.rows, "matmul_tn dimension mismatch");
        matmul_kernel(&self.transpose(), other)
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

    /// The textbook i-k-j loop, kept as the bit-exactness oracle for the
    /// matmul kernel.
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
                for (j, &bv) in b_row.iter().enumerate() {
                    let v = out.get(i, j) + av * bv;
                    out.set(i, j, v);
                }
            }
        }
        out
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Random `a` (m×k) and `b` (k×n) on which skipping zero left entries
    /// and multiplying them give different bits. About half of `a` is ±0.0
    /// and `b` holds some −0.0. Some columns of `a` are all ±0.0, and the
    /// matching rows of `b` hold ±inf or NaN, so a kernel that multiplies
    /// instead of skipping turns those finite outputs into NaN. Some rows
    /// of `a` hold a NaN against a finite `b` row: the skip keeps NaN, so
    /// that whole output row is NaN.
    fn skip_sensitive_operands(rng: &mut StdRng, m: usize, k: usize, n: usize) -> (Tensor, Tensor) {
        let signed_zero = |rng: &mut StdRng| if rng.gen_bool(0.5) { 0.0 } else { -0.0 };
        let mut a = Tensor::randn(m, k, 1.0, rng);
        let mut b = Tensor::randn(k, n, 1.0, rng);
        for v in a.data_mut() {
            if rng.gen_bool(0.5) {
                *v = signed_zero(rng);
            }
        }
        for v in b.data_mut() {
            if rng.gen_bool(0.1) {
                *v = -0.0;
            }
        }
        let mut poisoned = vec![false; k];
        for (kk, poisoned) in poisoned.iter_mut().enumerate() {
            if rng.gen_bool(0.2) {
                *poisoned = true;
                for i in 0..m {
                    a.set(i, kk, signed_zero(rng));
                }
                for j in 0..n {
                    let v = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][rng.gen_range(0..3)];
                    b.set(kk, j, v);
                }
            }
        }
        for i in 0..m {
            let kk = rng.gen_range(0..k);
            if !poisoned[kk] && rng.gen_bool(0.1) {
                a.set(i, kk, f32::NAN);
            }
        }
        (a, b)
    }

    /// Shapes that hit every chunk-width remainder of the kernel.
    fn random_shape(rng: &mut StdRng) -> (usize, usize, usize) {
        (
            rng.gen_range(1..70),
            rng.gen_range(1..150),
            rng.gen_range(1..70),
        )
    }

    #[test]
    fn blocked_matmul_is_bit_identical_to_reference() {
        let mut rng = StdRng::seed_from_u64(11);
        // Fixed shapes around the chunk widths, then random ones.
        let fixed = [(1, 1, 1), (3, 5, 7), (4, 8, 8), (9, 17, 33), (16, 150, 64)];
        let random: Vec<_> = (0..120).map(|_| random_shape(&mut rng)).collect();
        for &(m, k, n) in fixed.iter().chain(&random) {
            let (a, b) = skip_sensitive_operands(&mut rng, m, k, n);
            let fast = a.matmul(&b);
            let slow = matmul_reference(&a, &b);
            assert_eq!(bits(&fast), bits(&slow), "shape ({m},{k},{n}) diverged");
        }
    }

    #[test]
    fn transposed_kernels_match_materialized_transpose() {
        let mut rng = StdRng::seed_from_u64(12);
        let fixed = [(1, 1, 1), (2, 3, 4), (7, 13, 5), (8, 32, 9)];
        let random: Vec<_> = (0..80).map(|_| random_shape(&mut rng)).collect();
        for &(m, k, n) in fixed.iter().chain(&random) {
            let (a, b) = skip_sensitive_operands(&mut rng, m, k, n);
            let want = bits(&matmul_reference(&a, &b));
            // a · b as `a · (bᵀ)ᵀ` and as `(aᵀ)ᵀ · b`.
            let (bt, at) = (b.transpose(), a.transpose());
            assert_eq!(bits(&a.matmul_nt(&bt)), want, "nt ({m},{k},{n}) diverged");
            assert_eq!(bits(&a.matmul(&bt.transpose())), want);
            assert_eq!(bits(&at.matmul_tn(&b)), want, "tn ({m},{k},{n}) diverged");
            assert_eq!(bits(&at.transpose().matmul(&b)), want);
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
