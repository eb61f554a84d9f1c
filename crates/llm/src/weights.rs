//! Deterministic synthetic weight generation for the transformer substrate.
//!
//! Weights are drawn with Xavier scaling from the model's seed. To mirror the
//! channel-concentrated activation outliers of real LLMs (Figure 4a), the input
//! projections of every layer carry a few *amplified input columns* aligned with the
//! model's outlier channels: activations flowing through those channels are consistently
//! magnified, which reproduces the persistent per-channel outlier structure that breaks
//! low-bit block quantization.

use mx_tensor::{synth, Matrix};
use serde::{Deserialize, Serialize};

use crate::config::{MlpKind, ModelConfig};

/// Weights of one transformer layer: its seven projections as `W` (the raw `f32`
/// [`Matrix`] by default; see [`ModelWeights::generate_cast`]) and its norm gains and
/// biases.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerWeights<W = Matrix> {
    /// Query projection `(hidden, heads * head_dim)`.
    pub wq: W,
    /// Key projection `(hidden, kv_heads * head_dim)`.
    pub wk: W,
    /// Value projection `(hidden, kv_heads * head_dim)`.
    pub wv: W,
    /// Output projection `(hidden, hidden)`.
    pub wo: W,
    /// Gate projection for gated MLPs, or the first FC layer for GELU MLPs
    /// `(hidden, intermediate)`.
    pub w_gate: W,
    /// Up projection `(hidden, intermediate)`; unused (empty) for GELU MLPs.
    pub w_up: W,
    /// Down projection `(intermediate, hidden)`.
    pub w_down: W,
    /// Pre-attention norm gain `(hidden)`.
    pub attn_norm_gain: Vec<f32>,
    /// Pre-attention norm bias (LayerNorm models only).
    pub attn_norm_bias: Vec<f32>,
    /// Pre-MLP norm gain.
    pub mlp_norm_gain: Vec<f32>,
    /// Pre-MLP norm bias.
    pub mlp_norm_bias: Vec<f32>,
}

/// All weights of a model, with every projection and the lm_head as `W` (the raw `f32`
/// [`Matrix`] by default).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelWeights<W = Matrix> {
    /// Token embedding table `(vocab, hidden)`.
    pub embedding: Matrix,
    /// Per-layer weights.
    pub layers: Vec<LayerWeights<W>>,
    /// Final norm gain.
    pub final_norm_gain: Vec<f32>,
    /// Final norm bias.
    pub final_norm_bias: Vec<f32>,
    /// Language-model head `(hidden, vocab)`.
    pub lm_head: W,
}

impl<W> ModelWeights<W> {
    /// Generates the weights for a configuration, deterministically from its seed, and
    /// hands each layer projection to `cast_layer` and the lm_head to `cast_head` as
    /// soon as it is drawn, keeping what they return. Every matrix is drawn from a seed
    /// of its own, so the bits do not depend on the casts; a cast that drops its matrix
    /// keeps at most one `f32` projection alive at a time.
    #[must_use]
    pub fn generate_cast(
        cfg: &ModelConfig,
        mut cast_layer: impl FnMut(Matrix) -> W,
        cast_head: impl FnOnce(Matrix) -> W,
    ) -> Self {
        let h = cfg.hidden;
        let kv_dim = cfg.head_dim() * cfg.kv_heads;
        let seed = cfg.seed;
        // Outlier channel positions: the pre-projection norm gains amplify these channels,
        // so the activations reaching every quantized projection carry the
        // Figure-4-style persistent per-channel outliers.
        let profile = mx_tensor::ActivationProfile::new(h, 1.0, cfg.outliers, seed);
        let outlier_channels: Vec<usize> = profile.outlier_channels().to_vec();

        let mut layers = Vec::with_capacity(cfg.layers);
        for l in 0..cfg.layers {
            let ls = seed.wrapping_add(1000 + l as u64 * 17);
            let xavier = |rows, cols, salt| synth::xavier_weights(rows, cols, 1.0, ls ^ salt);
            let gelu_mlp = matches!(cfg.mlp, MlpKind::Gelu);
            layers.push(LayerWeights {
                wq: cast_layer(xavier(h, h, 0x01)),
                wk: cast_layer(xavier(h, kv_dim, 0x02)),
                wv: cast_layer(xavier(h, kv_dim, 0x03)),
                wo: cast_layer(xavier(h, h, 0x04)),
                w_gate: cast_layer(xavier(h, cfg.intermediate, 0x05)),
                w_up: cast_layer(if gelu_mlp { Matrix::zeros(0, 0) } else { xavier(h, cfg.intermediate, 0x06) }),
                w_down: cast_layer(xavier(cfg.intermediate, h, 0x07)),
                attn_norm_gain: outlier_gain(h, &outlier_channels, cfg.outliers.magnitude),
                attn_norm_bias: vec![0.0; h],
                mlp_norm_gain: outlier_gain(h, &outlier_channels, cfg.outliers.magnitude),
                mlp_norm_bias: vec![0.0; h],
            });
        }

        ModelWeights {
            embedding: synth::xavier_weights(cfg.vocab, h, 1.0, seed ^ 0xe0),
            layers,
            final_norm_gain: vec![1.0; h],
            final_norm_bias: vec![0.0; h],
            lm_head: cast_head(synth::xavier_weights(h, cfg.vocab, 1.5, seed ^ 0xe1)),
        }
    }
}

impl ModelWeights {
    /// Generates the raw `f32` weights for a configuration, deterministically from its
    /// seed: [`ModelWeights::generate_cast`] keeping every projection as drawn.
    #[must_use]
    pub fn generate(cfg: &ModelConfig) -> Self {
        Self::generate_cast(cfg, |w| w, |w| w)
    }

    /// Total number of weight parameters.
    #[must_use]
    pub fn parameter_count(&self) -> usize {
        let count = |m: &Matrix| m.rows() * m.cols();
        let mut total = count(&self.embedding) + count(&self.lm_head);
        for l in &self.layers {
            total += count(&l.wq) + count(&l.wk) + count(&l.wv) + count(&l.wo);
            total += count(&l.w_gate) + count(&l.w_up) + count(&l.w_down);
        }
        total
    }
}

/// Norm gain vector that amplifies the outlier channels: this is how the persistent
/// per-channel activation outliers enter the (quantized) projection inputs.
fn outlier_gain(hidden: usize, outlier_channels: &[usize], magnitude: f32) -> Vec<f32> {
    let mut gain = vec![1.0_f32; hidden];
    for (i, &c) in outlier_channels.iter().enumerate() {
        // Alternate sign and vary the magnitude slightly per channel.
        let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
        gain[c] = sign * magnitude * (0.8 + 0.4 * ((i * 37 % 10) as f32 / 10.0));
    }
    gain
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;

    #[test]
    fn generation_is_deterministic() {
        let cfg = ModelConfig::tiny_test(3);
        let a = ModelWeights::generate(&cfg);
        let b = ModelWeights::generate(&cfg);
        assert_eq!(a, b);
        let c = ModelWeights::generate(&ModelConfig::tiny_test(4));
        assert_ne!(a.embedding, c.embedding);
    }

    #[test]
    fn shapes_follow_config() {
        let cfg = ModelConfig::llama31_8b();
        let w = ModelWeights::generate(&cfg);
        assert_eq!(w.layers.len(), cfg.layers);
        let kv_dim = cfg.head_dim() * cfg.kv_heads;
        assert_eq!(w.layers[0].wq.shape(), (cfg.hidden, cfg.hidden));
        assert_eq!(w.layers[0].wk.shape(), (cfg.hidden, kv_dim));
        assert_eq!(w.layers[0].wv.shape(), (cfg.hidden, kv_dim));
        assert_eq!(w.layers[0].w_gate.shape(), (cfg.hidden, cfg.intermediate));
        assert_eq!(w.layers[0].w_down.shape(), (cfg.intermediate, cfg.hidden));
        assert_eq!(w.embedding.shape(), (cfg.vocab, cfg.hidden));
        assert_eq!(w.lm_head.shape(), (cfg.hidden, cfg.vocab));
    }

    #[test]
    fn gelu_models_have_no_up_projection() {
        let w = ModelWeights::generate(&ModelConfig::opt_66b());
        assert_eq!(w.layers[0].w_up.shape(), (0, 0));
        let w2 = ModelWeights::generate(&ModelConfig::llama31_8b());
        assert_ne!(w2.layers[0].w_up.shape(), (0, 0));
    }

    #[test]
    fn norm_gains_encode_outlier_channels() {
        let cfg = ModelConfig::llama31_8b();
        let w = ModelWeights::generate(&cfg);
        let big = w.layers[0].attn_norm_gain.iter().filter(|g| g.abs() > 5.0).count();
        assert!(big >= 1, "expected amplified outlier channels in the norm gain");
        assert!(big < cfg.hidden / 8, "outlier channels must be sparse");
    }

    #[test]
    fn parameter_count_matches_manual_sum() {
        let cfg = ModelConfig::tiny_test(1);
        let w = ModelWeights::generate(&cfg);
        assert!(w.parameter_count() > cfg.vocab * cfg.hidden);
    }
}
