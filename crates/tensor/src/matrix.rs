//! A minimal row-major `f32` matrix with the operations the reproduction needs.

use mx_formats::quantize::{MatmulQuantConfig, QuantScheme};
use serde::{Deserialize, Serialize};

/// A dense, row-major matrix of `f32` values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix filled with zeros.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix from a generator function `f(row, col)`.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must be rows * cols");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The underlying row-major buffer.
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns its buffer.
    #[must_use]
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// A single element.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets a single element.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn set(&mut self, r: usize, c: usize, value: f32) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = value;
    }

    /// One row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable access to one row.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterates over rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks(self.cols)
    }

    /// Matrix transpose.
    #[must_use]
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Reference matrix multiplication `self (m x k) * rhs (k x n)` with FP32 accumulation.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions do not match.
    #[must_use]
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "inner dimensions must match");
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            let out_row = &mut out.data[i * n..(i + 1) * n];
            for (p, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &rhs.data[p * n..(p + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Matrix multiplication with both operands fake-quantized row-wise (along the
    /// reduction dimension) before the FP32-accumulated multiply — the direct-cast
    /// computation flow of the paper (activations blocked along rows of `self`, weights
    /// blocked along columns of `rhs`, i.e. rows of `rhs` transposed).
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions do not match.
    #[must_use]
    pub fn matmul_quantized(&self, rhs: &Matrix, config: MatmulQuantConfig) -> Matrix {
        let a = self.quantize_rows(config.activations);
        // Weights are blocked along the reduction (k) dimension, i.e. down the columns.
        let w = rhs.quantize_columns(config.weights);
        a.matmul(&w)
    }

    /// Returns a copy with every row fake-quantized by `scheme`.
    #[must_use]
    pub fn quantize_rows(&self, scheme: QuantScheme) -> Matrix {
        if scheme == QuantScheme::Fp32 || self.cols == 0 {
            return self.clone();
        }
        let mut out = Matrix::zeros(self.rows, self.cols);
        for (r, out_row) in out.data.chunks_mut(self.cols).enumerate() {
            scheme.quantize_dequantize_into(self.row(r), out_row);
        }
        out
    }

    /// Returns a copy with every column fake-quantized by `scheme` (blocking along the
    /// reduction dimension of a weight matrix). Bit-identical to
    /// `self.transpose().quantize_rows(scheme).transpose()` but quantizes column blocks
    /// through one reusable scratch buffer instead of materializing two transposed copies.
    #[must_use]
    pub fn quantize_columns(&self, scheme: QuantScheme) -> Matrix {
        if scheme == QuantScheme::Fp32 {
            return self.clone();
        }
        let mut out = Matrix::zeros(self.rows, self.cols);
        let mut column = vec![0.0_f32; self.rows];
        let mut quantized = vec![0.0_f32; self.rows];
        for c in 0..self.cols {
            for (r, slot) in column.iter_mut().enumerate() {
                *slot = self.data[r * self.cols + c];
            }
            scheme.quantize_dequantize_into(&column, &mut quantized);
            for (r, &q) in quantized.iter().enumerate() {
                out.data[r * self.cols + c] = q;
            }
        }
        out
    }

    /// Elementwise addition.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    #[must_use]
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "shape mismatch");
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Elementwise subtraction.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    #[must_use]
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "shape mismatch");
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a - b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Multiplies every element by a scalar.
    #[must_use]
    pub fn scale(&self, s: f32) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|v| v * s).collect() }
    }

    /// Mean squared difference against another matrix of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    #[must_use]
    pub fn mse(&self, rhs: &Matrix) -> f64 {
        assert_eq!(self.shape(), rhs.shape(), "shape mismatch");
        mx_formats::metrics::mse(&self.data, &rhs.data)
    }

    /// Frobenius norm.
    #[must_use]
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|&v| f64::from(v) * f64::from(v)).sum::<f64>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(0), &[0.0, 1.0, 2.0]);
        assert_eq!(m.iter_rows().count(), 2);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_validates_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 7 + c) as f32 * 0.3);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().get(4, 2), m.get(2, 4));
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_fn(4, 4, |r, c| ((r * 13 + c * 7) % 11) as f32 - 5.0);
        let id = Matrix::from_fn(4, 4, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&id), a);
        assert_eq!(id.matmul(&a), a);
    }

    #[test]
    fn matmul_dimension_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let result = std::panic::catch_unwind(|| a.matmul(&b));
        assert!(result.is_err());
    }

    #[test]
    fn quantized_matmul_bf16_is_close_to_exact() {
        let a = Matrix::from_fn(8, 64, |r, c| ((r * 64 + c) as f32 * 0.37).sin());
        let w = Matrix::from_fn(64, 16, |r, c| ((r as f32 - c as f32) * 0.11).cos() * 0.1);
        let exact = a.matmul(&w);
        let bf16 = a.matmul_quantized(&w, MatmulQuantConfig::BASELINE);
        assert!(exact.mse(&bf16) < 1e-4);
    }

    #[test]
    fn quantized_matmul_shape_and_baseline_accuracy() {
        // A reduction dim of four blocks and outlier activation channels: the BASELINE
        // (BF16) product keeps the (rows of a) x (cols of w) shape and stays close.
        let a = Matrix::from_fn(4, 128, |r, c| {
            let v = ((r * 128 + c) as f32 * 0.17).cos() * 0.4;
            if c % 77 == 5 {
                v * 30.0
            } else {
                v
            }
        });
        let w = Matrix::from_fn(128, 32, |r, c| ((r * 32 + c) as f32 * 0.091).sin() * 0.08);
        let exact = a.matmul(&w);
        let y = a.matmul_quantized(&w, MatmulQuantConfig::BASELINE);
        assert_eq!(y.shape(), (4, 32));
        assert!(exact.mse(&y) < 1e-4);
    }

    #[test]
    fn quantized_matmul_error_ordering() {
        let a = Matrix::from_fn(8, 128, |r, c| {
            let v = ((r * 128 + c) as f32 * 0.7).sin() * 0.3;
            if c % 71 == 3 {
                v * 40.0
            } else {
                v
            }
        });
        let w = Matrix::from_fn(128, 32, |r, c| ((r as f32 * 0.13 - c as f32 * 0.29).cos()) * 0.05);
        let exact = a.matmul(&w);
        let e4 = exact.mse(&a.matmul_quantized(&w, MatmulQuantConfig::uniform(QuantScheme::mxfp4())));
        let e4p = exact.mse(&a.matmul_quantized(&w, MatmulQuantConfig::uniform(QuantScheme::mxfp4_plus())));
        let e8 = exact.mse(&a.matmul_quantized(&w, MatmulQuantConfig::uniform(QuantScheme::mxfp8())));
        assert!(e4p < e4, "MXFP4+ matmul error {e4p} must beat MXFP4 {e4}");
        assert!(e8 < e4p);
    }

    #[test]
    fn mx_plus_activations_beat_plain_mxfp4() {
        // A-MXFP4+ changes only the activation scheme against uniform MXFP4, and the
        // activations carry an outlier channel: MX+ keeps its block's other elements.
        let a = Matrix::from_fn(8, 256, |r, c| {
            let v = ((r * 256 + c) as f32 * 0.17).cos() * 0.4;
            if c % 77 == 5 {
                v * 30.0
            } else {
                v
            }
        });
        let w = Matrix::from_fn(256, 64, |r, c| ((r * 64 + c) as f32 * 0.091).sin() * 0.08);
        let exact = a.matmul(&w);
        let plain = exact.mse(&a.matmul_quantized(&w, MatmulQuantConfig::uniform(QuantScheme::mxfp4())));
        let plus = exact.mse(&a.matmul_quantized(&w, MatmulQuantConfig::a_mxfp4_plus()));
        assert!(plus < plain, "A-MXFP4+ matmul error {plus} must beat MXFP4 {plain}");
    }

    #[test]
    fn weight_quantization_blocks_along_reduction_dim() {
        // A weight matrix whose columns have very different scales: blocking along the
        // reduction dimension (rows of the transposed matrix) keeps columns independent.
        let w = Matrix::from_fn(64, 4, |r, c| (r as f32 * 0.01 + 1.0) * (10.0_f32).powi(c as i32 - 2));
        let a = Matrix::from_fn(2, 64, |_, c| (c as f32 * 0.1).sin());
        let exact = a.matmul(&w);
        let q =
            a.matmul_quantized(&w, MatmulQuantConfig { activations: QuantScheme::Fp32, weights: QuantScheme::mxfp6() });
        // Relative error per output column stays bounded despite the 10^4 scale spread.
        for r in 0..exact.rows() {
            for c in 0..exact.cols() {
                let rel = (exact.get(r, c) - q.get(r, c)).abs() / exact.get(r, c).abs().max(1e-3);
                assert!(rel < 0.2, "column {c} relative error {rel}");
            }
        }
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![0.5, 0.5, 0.5]);
        assert_eq!(a.add(&b).data(), &[1.5, 2.5, 3.5]);
        assert_eq!(a.sub(&b).data(), &[0.5, 1.5, 2.5]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0]);
        assert!((a.frobenius_norm() - 14.0_f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn fp32_quantize_rows_is_identity() {
        let a = Matrix::from_fn(3, 40, |r, c| (r + c) as f32 * 0.01);
        assert_eq!(a.quantize_rows(QuantScheme::Fp32), a);
        assert_eq!(a.quantize_columns(QuantScheme::Fp32), a);
    }

    #[test]
    fn quantization_handles_degenerate_shapes() {
        let empty_cols = Matrix::zeros(3, 0);
        assert_eq!(empty_cols.quantize_rows(QuantScheme::Bf16), empty_cols);
        assert_eq!(empty_cols.quantize_columns(QuantScheme::Bf16), empty_cols);
        let empty_rows = Matrix::zeros(0, 3);
        assert_eq!(empty_rows.quantize_rows(QuantScheme::Bf16), empty_rows);
        assert_eq!(empty_rows.quantize_columns(QuantScheme::Bf16), empty_rows);
    }

    #[test]
    fn quantize_columns_is_idempotent() {
        // Re-casting cast weights changes nothing: each cast value is on its block's grid,
        // and the block's shared scale survives the cast. (Not so under MX+: a plain
        // element can round up past the block max, which the re-cast then elects.)
        let w = Matrix::from_fn(64, 16, |r, c| ((r * 16 + c) as f32 * 0.091).sin() * 0.08);
        for scheme in [QuantScheme::Bf16, QuantScheme::mxfp4(), QuantScheme::mxint8(), QuantScheme::mxfp8()] {
            let cast = w.quantize_columns(scheme);
            assert_eq!(cast.quantize_columns(scheme), cast, "{}", scheme.name());
        }
    }

    #[test]
    fn quantize_columns_matches_double_transpose() {
        // The in-place column-block cast must be bit-identical to
        // transpose -> quantize_rows -> transpose.
        let w = Matrix::from_fn(96, 33, |r, c| {
            let v = ((r * 33 + c) as f32 * 0.23).sin() * 0.4;
            if r % 41 == 7 {
                v * 25.0
            } else {
                v
            }
        });
        for scheme in [QuantScheme::Bf16, QuantScheme::mxfp4(), QuantScheme::mxfp4_plus(), QuantScheme::mxfp8()] {
            let direct = w.quantize_columns(scheme);
            let via_transpose = w.transpose().quantize_rows(scheme).transpose();
            assert_eq!(direct, via_transpose, "{}", scheme.name());
        }
    }
}
