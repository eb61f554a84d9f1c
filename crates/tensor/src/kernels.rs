//! Elementwise and normalization kernels used by the transformer and DNN substrates.
//!
//! Following the paper's computation flow, these vector operations run in the baseline
//! precision (BF16/FP32) and are *not* quantized to MX formats; only dot-product operands
//! are.

/// Folds `a[i] * b[i]` into `acc` one term at a time in index order, over
/// `min(a.len(), b.len())` terms.
///
/// This is the attention dot-product reference: because f32 addition is not
/// associative, every q·k fold must accumulate in the *same* order to stay
/// token-identical, and this kernel pins that order — a sequential left fold, exactly
/// what `iter().zip(b).map(|(x, y)| x * y).sum::<f32>()` computes. The model's tiled fold
/// runs this operation sequence in every lane; calling it over consecutive chunks with a
/// carried accumulator is the same sequence as one call over the whole row.
#[inline]
pub fn dot_acc_seq(acc: &mut f32, a: &[f32], b: &[f32]) {
    for (x, y) in a.iter().zip(b) {
        *acc += x * y;
    }
}

/// Adds `s * x[i]` into `out[i]` term by term, over `min(out.len(), x.len())` elements —
/// the attention probs×V accumulation primitive, order-pinned for the same
/// token-identity reason as [`dot_acc_seq`].
#[inline]
pub fn axpy_seq(out: &mut [f32], s: f32, x: &[f32]) {
    for (o, v) in out.iter_mut().zip(x) {
        *o += s * v;
    }
}

/// Numerically stable softmax over a slice, in place (FP32, as in the paper's baseline).
pub fn softmax_inplace(values: &mut [f32]) {
    if values.is_empty() {
        return;
    }
    let max = values.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0_f32;
    for v in values.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in values.iter_mut() {
            *v /= sum;
        }
    }
}

/// Softmax returning a new vector.
#[must_use]
pub fn softmax(values: &[f32]) -> Vec<f32> {
    let mut out = values.to_vec();
    softmax_inplace(&mut out);
    out
}

/// Log-softmax (used by the cross-entropy / perplexity evaluation).
#[must_use]
pub fn log_softmax(values: &[f32]) -> Vec<f32> {
    let max = values.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let log_sum: f32 = values.iter().map(|v| (v - max).exp()).sum::<f32>().ln();
    values.iter().map(|v| v - max - log_sum).collect()
}

/// RMSNorm (Llama-style): `x / rms(x) * gain`.
///
/// # Panics
///
/// Panics if `gain.len() != values.len()`.
#[must_use]
pub fn rmsnorm(values: &[f32], gain: &[f32], eps: f32) -> Vec<f32> {
    assert_eq!(values.len(), gain.len(), "gain length must match");
    let ms = values.iter().map(|v| v * v).sum::<f32>() / values.len() as f32;
    let inv = 1.0 / (ms + eps).sqrt();
    values.iter().zip(gain).map(|(v, g)| v * inv * g).collect()
}

/// LayerNorm with learned gain and bias.
///
/// # Panics
///
/// Panics if the gain/bias lengths do not match.
#[must_use]
pub fn layernorm(values: &[f32], gain: &[f32], bias: &[f32], eps: f32) -> Vec<f32> {
    assert_eq!(values.len(), gain.len(), "gain length must match");
    assert_eq!(values.len(), bias.len(), "bias length must match");
    let n = values.len() as f32;
    let mean = values.iter().sum::<f32>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
    let inv = 1.0 / (var + eps).sqrt();
    values.iter().zip(gain.iter().zip(bias)).map(|(v, (g, b))| (v - mean) * inv * g + b).collect()
}

/// SiLU (swish) activation, used by Llama/Mistral-style gated MLPs.
#[must_use]
pub fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

/// GELU activation (tanh approximation), used by OPT/ViT-style MLPs.
#[must_use]
pub fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + ((2.0 / std::f32::consts::PI).sqrt() * (x + 0.044_715 * x * x * x)).tanh())
}

/// ReLU activation.
#[must_use]
pub fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// Cross entropy (in nats) of a logit vector against a target class index.
///
/// # Panics
///
/// Panics if `target >= logits.len()`.
#[must_use]
pub fn cross_entropy(logits: &[f32], target: usize) -> f32 {
    assert!(target < logits.len(), "target out of range");
    -log_softmax(logits)[target]
}

/// KL divergence `KL(p_ref || p_other)` between the softmax distributions of two logit
/// vectors. Used by the perplexity-proxy evaluation.
///
/// # Panics
///
/// Panics if the lengths differ.
#[must_use]
pub fn kl_divergence_logits(reference: &[f32], other: &[f32]) -> f64 {
    assert_eq!(reference.len(), other.len(), "logit length mismatch");
    let p = softmax(reference);
    let log_p = log_softmax(reference);
    let log_q = log_softmax(other);
    p.iter()
        .zip(log_p.iter().zip(&log_q))
        .map(|(&pi, (&lpi, &lqi))| if pi <= 0.0 { 0.0 } else { f64::from(pi) * f64::from(lpi - lqi) })
        .sum::<f64>()
        .max(0.0)
}

/// Rotary position embedding applied in place to a query/key head of even dimension:
/// [`rope_freqs`], then [`rope_sin_cos_into`] at `position`, then [`rope_rotate`].
///
/// A model rotates many heads at each position, and every head at every position through
/// the same frequencies, so it calls the three steps itself: frequencies once per model,
/// one `(sin, cos)` row per position per forward, and a rotation per head. The bits are
/// the same either way.
///
/// # Panics
///
/// Panics if `head.len()` is odd.
pub fn apply_rope(head: &mut [f32], position: usize, theta: f32) {
    assert!(head.len().is_multiple_of(2), "RoPE head dimension must be even");
    let freqs = rope_freqs(head.len(), theta);
    let mut sin_cos = vec![(0.0, 0.0); freqs.len()];
    rope_sin_cos_into(position, &freqs, &mut sin_cos);
    rope_rotate(head, &sin_cos);
}

/// The `head_dim / 2` rotary frequencies of a head: `theta^(-2i / head_dim)` for pair `i`.
#[must_use]
pub fn rope_freqs(head_dim: usize, theta: f32) -> Vec<f32> {
    (0..head_dim / 2).map(|i| theta.powf(-2.0 * i as f32 / head_dim as f32)).collect()
}

/// One row of a RoPE table: `out[i]` is the `(sin, cos)` of `position * freqs[i]`.
pub fn rope_sin_cos_into(position: usize, freqs: &[f32], out: &mut [(f32, f32)]) {
    for (o, &freq) in out.iter_mut().zip(freqs) {
        *o = (position as f32 * freq).sin_cos();
    }
}

/// Rotates pair `(head[i], head[i + half])` of a head by the angle whose `(sin, cos)` is
/// `sin_cos[i]`, for every pair.
///
/// # Panics
///
/// Panics if `head.len()` is odd or `sin_cos` holds fewer than `head.len() / 2` pairs.
pub fn rope_rotate(head: &mut [f32], sin_cos: &[(f32, f32)]) {
    assert!(head.len().is_multiple_of(2), "RoPE head dimension must be even");
    let (lo, hi) = head.split_at_mut(head.len() / 2);
    assert!(sin_cos.len() >= lo.len(), "RoPE table row shorter than half the head");
    for ((a, b), &(sin, cos)) in lo.iter_mut().zip(hi).zip(sin_cos) {
        let (x, y) = (*a, *b);
        *a = x * cos - y * sin;
        *b = x * sin + y * cos;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let mut v = vec![1000.0_f32, 1001.0, 999.0];
        softmax_inplace(&mut v);
        assert!((v.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(v.iter().all(|x| x.is_finite() && *x >= 0.0));
        assert!(v[1] > v[0] && v[0] > v[2]);
    }

    #[test]
    fn softmax_of_empty_is_noop() {
        let mut v: Vec<f32> = vec![];
        softmax_inplace(&mut v);
        assert!(v.is_empty());
    }

    #[test]
    fn log_softmax_consistency() {
        let v = [0.3_f32, -1.2, 2.5, 0.0];
        let p = softmax(&v);
        let lp = log_softmax(&v);
        for (pi, lpi) in p.iter().zip(&lp) {
            assert!((pi.ln() - lpi).abs() < 1e-5);
        }
    }

    #[test]
    fn rmsnorm_unit_output_scale() {
        let x = [3.0_f32, -4.0, 0.0, 0.0];
        let gain = [1.0_f32; 4];
        let y = rmsnorm(&x, &gain, 1e-6);
        let rms = (y.iter().map(|v| v * v).sum::<f32>() / 4.0).sqrt();
        assert!((rms - 1.0).abs() < 1e-4);
    }

    #[test]
    fn layernorm_zero_mean_unit_variance() {
        let x = [1.0_f32, 2.0, 3.0, 4.0];
        let y = layernorm(&x, &[1.0; 4], &[0.0; 4], 1e-6);
        let mean = y.iter().sum::<f32>() / 4.0;
        let var = y.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn activation_functions_reference_points() {
        assert_eq!(relu(-2.0), 0.0);
        assert_eq!(relu(3.0), 3.0);
        assert!((silu(0.0)).abs() < 1e-7);
        assert!((gelu(0.0)).abs() < 1e-7);
        assert!((silu(10.0) - 10.0).abs() < 1e-3);
        assert!((gelu(10.0) - 10.0).abs() < 1e-3);
        assert!(gelu(-10.0).abs() < 1e-3);
    }

    #[test]
    fn cross_entropy_prefers_correct_class() {
        let logits = [5.0_f32, 0.0, -2.0];
        assert!(cross_entropy(&logits, 0) < cross_entropy(&logits, 1));
        assert!(cross_entropy(&logits, 1) < cross_entropy(&logits, 2));
    }

    #[test]
    fn kl_divergence_properties() {
        let a = [0.5_f32, -0.2, 1.3, 0.0];
        assert!(kl_divergence_logits(&a, &a).abs() < 1e-9);
        let b = [0.4_f32, -0.1, 1.0, 0.3];
        let kl = kl_divergence_logits(&a, &b);
        assert!(kl > 0.0);
        // A bigger perturbation yields a bigger divergence.
        let c = [2.0_f32, -3.0, -1.0, 4.0];
        assert!(kl_divergence_logits(&a, &c) > kl);
    }

    /// The reference rotation: the frequency and `(sin, cos)` of every pair derived
    /// inline, pair by pair.
    fn rope_inline(head: &mut [f32], position: usize, theta: f32) {
        let half = head.len() / 2;
        for i in 0..half {
            let freq = theta.powf(-2.0 * i as f32 / head.len() as f32);
            let angle = position as f32 * freq;
            let (sin, cos) = angle.sin_cos();
            let (a, b) = (head[i], head[i + half]);
            head[i] = a * cos - b * sin;
            head[i + half] = a * sin + b * cos;
        }
    }

    #[test]
    fn rope_table_rotation_is_bit_identical_to_the_inline_rotation() {
        for theta in [10_000.0_f32, 500_000.0] {
            for head_dim in [8usize, 32, 64, 128] {
                let freqs = rope_freqs(head_dim, theta);
                let mut sin_cos = vec![(0.0, 0.0); head_dim / 2];
                let base: Vec<f32> = (0..head_dim).map(|i| (i as f32 * 0.61 - 3.0).sin() * 2.5).collect();
                for position in 0..2048 {
                    rope_sin_cos_into(position, &freqs, &mut sin_cos);
                    let mut want = base.clone();
                    rope_inline(&mut want, position, theta);
                    let mut table = base.clone();
                    rope_rotate(&mut table, &sin_cos);
                    let mut applied = base.clone();
                    apply_rope(&mut applied, position, theta);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
                    assert_eq!(bits(&table), bits(&want), "theta {theta} head_dim {head_dim} position {position}");
                    assert_eq!(bits(&applied), bits(&want), "theta {theta} head_dim {head_dim} position {position}");
                }
            }
        }
    }

    #[test]
    fn rope_preserves_norm_and_is_position_dependent() {
        let base = vec![0.3_f32, -0.7, 1.1, 0.2, 0.9, -0.4, 0.0, 0.5];
        let norm = |v: &[f32]| v.iter().map(|x| x * x).sum::<f32>().sqrt();
        let mut p0 = base.clone();
        apply_rope(&mut p0, 0, 10_000.0);
        let mut p5 = base.clone();
        apply_rope(&mut p5, 5, 10_000.0);
        assert!((norm(&p0) - norm(&base)).abs() < 1e-5);
        assert!((norm(&p5) - norm(&base)).abs() < 1e-5);
        assert_ne!(p0, p5);
        // Position 0 is the identity rotation.
        assert_eq!(p0, base);
    }

    #[test]
    fn dot_acc_seq_matches_iterator_sum_bitwise() {
        let a: Vec<f32> = (0..97).map(|i| (i as f32 * 0.37 - 11.0).sin() * 3.0).collect();
        let b: Vec<f32> = (0..97).map(|i| (i as f32 * 0.91 + 2.0).cos() * 0.5).collect();
        let reference: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        let mut acc = 0.0_f32;
        dot_acc_seq(&mut acc, &a, &b);
        assert_eq!(acc.to_bits(), reference.to_bits());
        // Splitting into chunks with a carried accumulator is the same operation sequence.
        let mut split = 0.0_f32;
        for start in (0..a.len()).step_by(32) {
            let end = (start + 32).min(a.len());
            dot_acc_seq(&mut split, &a[start..end], &b[start..end]);
        }
        assert_eq!(split.to_bits(), reference.to_bits());
    }

    #[test]
    fn axpy_seq_matches_manual_loop_bitwise() {
        let x: Vec<f32> = (0..65).map(|i| (i as f32 * 0.73 - 5.0).sin()).collect();
        let mut reference: Vec<f32> = (0..65).map(|i| i as f32 * 0.01).collect();
        let mut out = reference.clone();
        for (o, &v) in reference.iter_mut().zip(&x) {
            *o += 1.75 * v;
        }
        axpy_seq(&mut out, 1.75, &x);
        let bits: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
        let expected: Vec<u32> = reference.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, expected);
        // Chunked application over disjoint ranges is the same operation sequence.
        let mut chunked: Vec<f32> = (0..65).map(|i| i as f32 * 0.01).collect();
        for start in (0..x.len()).step_by(16) {
            let end = (start + 16).min(x.len());
            axpy_seq(&mut chunked[start..end], 1.75, &x[start..end]);
        }
        assert_eq!(chunked, out);
    }
}
