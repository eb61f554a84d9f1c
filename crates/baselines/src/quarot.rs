//! QuaRot-style orthogonal rotation (Ashkboos et al., NeurIPS 2024).
//!
//! QuaRot multiplies activations by a random orthogonal matrix `Q` (typically a
//! randomized Hadamard transform) and weights by `Q^T`, which leaves `A x W` unchanged but
//! spreads outlier energy across all channels, making the rotated tensors easier to
//! quantize. The paper observes that rotation does not completely remove outliers in some
//! layers (e.g. Llama-3.1 down projections), which is why MXFP4+ still wins in Table 7.

use mx_formats::QuantScheme;
use mx_tensor::Matrix;

use crate::intq;

/// Builds the `n x n` Walsh-Hadamard matrix scaled to be orthonormal.
///
/// # Panics
///
/// Panics if `n` is not a power of two.
#[must_use]
pub fn hadamard(n: usize) -> Matrix {
    assert!(n.is_power_of_two(), "Hadamard size must be a power of two");
    let scale = 1.0 / (n as f32).sqrt();
    Matrix::from_fn(n, n, |r, c| {
        // Entry is (-1)^{popcount(r & c)}.
        if (r & c).count_ones() % 2 == 0 {
            scale
        } else {
            -scale
        }
    })
}

/// Builds a randomized Hadamard rotation: `diag(signs) * H`, which is still orthogonal.
#[must_use]
pub fn randomized_hadamard(n: usize, seed: u64) -> Matrix {
    let h = hadamard(n);
    // Deterministic sign flips from a small xorshift generator (no rand dependency needed).
    let mut state = seed | 1;
    let mut signs = Vec::with_capacity(n);
    for _ in 0..n {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        signs.push(if state & 1 == 0 { 1.0_f32 } else { -1.0 });
    }
    Matrix::from_fn(n, n, |r, c| h.get(r, c) * signs[r])
}

/// The element format used after rotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarotPrecision {
    /// Per-row INT4 (the original QuaRot setting evaluated in Table 7).
    Int4,
    /// MXFP4 blocks (the paper's "QuaRot (MXFP4)" row).
    Mxfp4,
}

/// Applies the QuaRot pipeline: rotate activations by `Q` and weights by `Q^T`, then
/// fake-quantize both operands.
///
/// # Panics
///
/// Panics if the hidden dimension is not a power of two (required by the Hadamard
/// transform) or the operand shapes do not match.
#[must_use]
pub fn quarot(activations: &Matrix, weights: &Matrix, precision: QuarotPrecision, seed: u64) -> (Matrix, Matrix) {
    assert_eq!(activations.cols(), weights.rows(), "inner dimensions must match");
    let n = activations.cols();
    let q = randomized_hadamard(n, seed);
    let a_rot = activations.matmul(&q);
    let w_rot = q.transpose().matmul(weights);
    match precision {
        QuarotPrecision::Int4 => {
            (Matrix::from_vec(a_rot.rows(), a_rot.cols(), intq::quantize_per_row(a_rot.data(), a_rot.cols(), 4)), {
                let t = w_rot.transpose();
                Matrix::from_vec(t.rows(), t.cols(), intq::quantize_per_row(t.data(), t.cols(), 4)).transpose()
            })
        }
        QuarotPrecision::Mxfp4 => (
            a_rot.quantize_rows(QuantScheme::mxfp4()),
            w_rot.transpose().quantize_rows(QuantScheme::mxfp4()).transpose(),
        ),
    }
}

/// Undoes nothing: the rotated product `A Q (Q^T W) = A W`, so the quantized rotated
/// operands can be multiplied directly. Provided for clarity in the harnesses.
#[must_use]
pub fn rotated_matmul(a_rot_q: &Matrix, w_rot_q: &Matrix) -> Matrix {
    a_rot_q.matmul(w_rot_q)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outlier_activations(tokens: usize, hidden: usize) -> Matrix {
        Matrix::from_fn(tokens, hidden, |r, c| {
            let v = ((r * hidden + c) as f32 * 0.23).sin() * 0.3;
            if c == 5 || c == 130 {
                v + 15.0
            } else {
                v
            }
        })
    }

    fn weights(hidden: usize, out: usize) -> Matrix {
        Matrix::from_fn(hidden, out, |r, c| ((r as f32 * 0.17 + c as f32 * 0.41).sin()) * 0.06)
    }

    #[test]
    fn hadamard_is_orthonormal() {
        for n in [2usize, 8, 64] {
            let h = hadamard(n);
            let prod = h.matmul(&h.transpose());
            for r in 0..n {
                for c in 0..n {
                    let expected = if r == c { 1.0 } else { 0.0 };
                    assert!((prod.get(r, c) - expected).abs() < 1e-5, "n={n} ({r},{c})");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn hadamard_rejects_non_powers() {
        let _ = hadamard(12);
    }

    #[test]
    fn randomized_hadamard_is_orthonormal() {
        let q = randomized_hadamard(64, 42);
        let prod = q.matmul(&q.transpose());
        for r in 0..64 {
            assert!((prod.get(r, r) - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn rotation_preserves_the_product_before_quantization() {
        let a = outlier_activations(4, 256);
        let w = weights(256, 16);
        let q = randomized_hadamard(256, 1);
        let exact = a.matmul(&w);
        let rotated = a.matmul(&q).matmul(&q.transpose().matmul(&w));
        assert!(exact.mse(&rotated) < 1e-6);
    }

    #[test]
    fn rotation_spreads_outliers() {
        let a = outlier_activations(4, 256);
        let q = randomized_hadamard(256, 3);
        let a_rot = a.matmul(&q);
        let kurtosis = |m: &Matrix| {
            let d = m.data();
            let mean = d.iter().sum::<f32>() / d.len() as f32;
            let var = d.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / d.len() as f32;
            let fourth = d.iter().map(|v| (v - mean).powi(4)).sum::<f32>() / d.len() as f32;
            fourth / (var * var)
        };
        assert!(kurtosis(&a_rot) < kurtosis(&a), "rotation must reduce heavy tails");
    }

    // Note: on these synthetic operands the Hadamard rotation removes the planted channel
    // outliers essentially perfectly, so QuaRot INT4 can beat MXFP4+ in raw matmul MSE.
    // The paper's Table 7 finds the opposite on real models because rotation fails to
    // reduce some layers' outliers (e.g. Llama-3.1 down projections). This is a known
    // divergence of the synthetic substrate.
    #[test]
    fn quarot_int4_improves_over_plain_int4() {
        let a = outlier_activations(8, 256);
        let w = weights(256, 32);
        let exact = a.matmul(&w);

        // Plain per-row INT4 without rotation.
        let a_int4 = Matrix::from_vec(a.rows(), a.cols(), intq::quantize_per_row(a.data(), a.cols(), 4));
        let wt = w.transpose();
        let w_int4 =
            Matrix::from_vec(wt.rows(), wt.cols(), intq::quantize_per_row(wt.data(), wt.cols(), 4)).transpose();
        let plain_err = exact.mse(&a_int4.matmul(&w_int4));

        let (aq, wq) = quarot(&a, &w, QuarotPrecision::Int4, 7);
        let quarot_err = exact.mse(&rotated_matmul(&aq, &wq));
        assert!(quarot_err < plain_err, "rotation must help plain INT4");
    }

    #[test]
    fn quarot_mxfp4_variant_runs() {
        let a = outlier_activations(4, 128);
        let w = weights(128, 16);
        let (aq, wq) = quarot(&a, &w, QuarotPrecision::Mxfp4, 11);
        let out = rotated_matmul(&aq, &wq);
        assert_eq!(out.shape(), (4, 16));
        assert!(out.data().iter().all(|v| v.is_finite()));
    }
}
