//! The transformer model: prefill and decode with quantized dot products.
//!
//! The decode hot path ([`DecodePath::ZeroCopy`], the default) reads cached keys/values
//! through borrowed row slices ([`crate::kvcache::LayerKvCache::key_row`]) — zero copies
//! per token — runs its score/probability operands through reusable scratch buffers, and
//! multiplies against weights that were direct-cast **once** at construction into
//! [`WeightPanels`]: 4-bit code panels plus per-block scales under MXFP4/MXINT4 weights
//! on the AVX2 backend, the row-major `f32` matrix otherwise. Every projection runs
//! through [`Matrix::matmul_panels`], which is bit-identical to [`Matrix::matmul`] on the
//! `quantize_columns` weights. The seed's
//! decode path — one full-cache [`Matrix`] materialization per tensor per layer per
//! forward call (O(T²) over a decoded sequence) plus per-call weight re-quantization —
//! is preserved behind [`DecodePath::SeedClone`] as a bit-identical regression baseline
//! and as the "before" arm of the decode benchmark.

use mx_tensor::{kernels, Matrix, WeightPanels};
use serde::{Deserialize, Serialize};

use crate::config::{MlpKind, ModelConfig, NormKind};
use crate::kvcache::{AttnGeometry, KvBackend, KvCache, KvLayerReader, LayerKvCache};
use crate::quant_config::ModelQuantConfig;
use crate::weights::ModelWeights;

/// Which implementation of the decode/prefill hot path to run. Both produce bit-identical
/// logits; they differ only in work performed per token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DecodePath {
    /// The serving path: borrowed `&[f32]` cache views, reusable scratch buffers, shared
    /// per-row activation quantization, and weights direct-cast once at load time.
    ZeroCopy,
    /// The seed's path: owned per-call `Matrix` clones of the whole KV cache (O(T²) per
    /// decoded sequence), per-head score/probability allocations, and weight operands
    /// re-quantized on every projection. Kept as the regression/benchmark baseline.
    SeedClone,
}

/// Per-layer weights after the one-time direct cast with the configured weight schemes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CastLayerWeights {
    wq: WeightPanels,
    wk: WeightPanels,
    wv: WeightPanels,
    wo: WeightPanels,
    w_gate: WeightPanels,
    w_up: WeightPanels,
    w_down: WeightPanels,
}

/// All weight operands quantized once (column-blocked along the reduction dimension,
/// exactly as `matmul_quantized` would per call) and held only as [`WeightPanels`]: the
/// block quantizer's 4-bit codes under MXFP4/MXINT4 weights on the AVX2 backend, the
/// fake-quantized row-major `f32` matrix under every other scheme or backend. Multiplying
/// against them with [`Matrix::matmul_panels`] is bit-identical to `matmul_quantized`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CastWeights {
    layers: Vec<CastLayerWeights>,
    lm_head: WeightPanels,
}

impl CastWeights {
    fn cast(weights: &ModelWeights, quant: &ModelQuantConfig) -> Self {
        let w = quant.linear.weights;
        CastWeights {
            layers: weights
                .layers
                .iter()
                .map(|lw| CastLayerWeights {
                    wq: WeightPanels::cast(&lw.wq, w),
                    wk: WeightPanels::cast(&lw.wk, w),
                    wv: WeightPanels::cast(&lw.wv, w),
                    wo: WeightPanels::cast(&lw.wo, w),
                    w_gate: WeightPanels::cast(&lw.w_gate, w),
                    w_up: WeightPanels::cast(&lw.w_up, w),
                    w_down: WeightPanels::cast(&lw.w_down, w),
                })
                .collect(),
            lm_head: WeightPanels::cast(&weights.lm_head, quant.lm_head.weights),
        }
    }
}

/// A decoder-only transformer with pluggable quantization of every dot-product operand.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransformerModel {
    config: ModelConfig,
    weights: ModelWeights,
    quant: ModelQuantConfig,
    cast: CastWeights,
}

impl TransformerModel {
    /// Builds the model, generating deterministic weights from the configuration's seed.
    #[must_use]
    pub fn new(config: ModelConfig, quant: ModelQuantConfig) -> Self {
        let weights = ModelWeights::generate(&config);
        TransformerModel::with_weights(config, weights, quant)
    }

    /// Builds the model from explicit weights (direct-casting them once for the zero-copy
    /// serving path).
    #[must_use]
    pub fn with_weights(config: ModelConfig, weights: ModelWeights, quant: ModelQuantConfig) -> Self {
        let cast = CastWeights::cast(&weights, &quant);
        TransformerModel { config, weights, quant, cast }
    }

    /// The model configuration.
    #[must_use]
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The quantization configuration.
    #[must_use]
    pub fn quant(&self) -> ModelQuantConfig {
        self.quant
    }

    /// The model weights.
    #[must_use]
    pub fn weights(&self) -> &ModelWeights {
        &self.weights
    }

    /// Changes the quantization configuration. The unquantized weights are retained, so
    /// this re-runs the one-time direct cast under the new weight schemes.
    pub fn set_quant(&mut self, quant: ModelQuantConfig) {
        self.quant = quant;
        self.cast = CastWeights::cast(&self.weights, &self.quant);
    }

    /// Creates an empty KV cache sized for this model.
    #[must_use]
    pub fn new_cache(&self) -> KvCache {
        KvCache::new(self.config.layers, self.config.head_dim() * self.config.kv_heads)
    }

    /// Runs the model over `tokens`, appending to `cache`, and returns the logits for
    /// every input position as a `(tokens.len(), vocab)` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty or contains an id outside the vocabulary.
    #[must_use]
    pub fn forward(&self, tokens: &[usize], cache: &mut KvCache) -> Matrix {
        self.forward_with_path(tokens, cache, DecodePath::ZeroCopy)
    }

    /// [`TransformerModel::forward`] with an explicit decode path. Both paths are
    /// bit-identical; [`DecodePath::SeedClone`] exists only to pin that equivalence in
    /// tests and to benchmark the seed's clone-based decode behaviour.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty or contains an id outside the vocabulary.
    #[must_use]
    pub fn forward_with_path(&self, tokens: &[usize], cache: &mut KvCache, path: DecodePath) -> Matrix {
        match path {
            DecodePath::ZeroCopy => self.forward_backend(tokens, cache),
            DecodePath::SeedClone => self.forward_seed(tokens, cache),
        }
    }

    /// The zero-copy forward pass over any cache backend: the `f32` [`KvCache`] (where it
    /// equals [`DecodePath::ZeroCopy`] exactly) or a bit-packed
    /// [`PagedKvCache`](crate::paging::PagedKvCache). Because every backend serves rows
    /// equal to `scheme.quantize_dequantize(row)` bit for bit, the logits — and therefore
    /// the generated tokens — do not depend on the backend.
    ///
    /// The pass always *continues* from `cache.seq_len()`: positions, rotary phases and
    /// causal visibility all derive from the backend's current length, and every
    /// per-position operation is row-independent. Prefix sharing relies on exactly this:
    /// prefilling only the suffix of a prompt on top of shared (already-populated) cache
    /// rows produces logits bit-identical to a full prefill.
    ///
    /// Allocates a fresh [`KvBackend::Scratch`] per call; loops that decode many tokens
    /// (or worker threads stepping many sequences) should hold one scratch and call
    /// [`TransformerModel::forward_backend_with_scratch`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty or contains an id outside the vocabulary.
    #[must_use]
    pub fn forward_backend<B: KvBackend>(&self, tokens: &[usize], cache: &mut B) -> Matrix {
        let mut scratch = B::Scratch::default();
        self.forward_backend_with_scratch(tokens, cache, &mut scratch)
    }

    /// [`TransformerModel::forward_backend`] decoding cache rows through a caller-owned
    /// `scratch` — the reusable working memory a decode worker thread carries across all
    /// the sequences it steps (see
    /// [`PagedScratch`](crate::paging::PagedScratch)).
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty or contains an id outside the vocabulary.
    #[must_use]
    pub fn forward_backend_with_scratch<B: KvBackend>(
        &self,
        tokens: &[usize],
        cache: &mut B,
        scratch: &mut B::Scratch,
    ) -> Matrix {
        assert!(!tokens.is_empty(), "token sequence must be non-empty");
        let start_pos = cache.seq_len();
        let mut x = self.embed(tokens);
        for layer in 0..self.config.layers {
            x = self.layer_forward_backend(layer, &x, start_pos, cache, scratch);
        }
        let normed = self.apply_norm(&x, &self.weights.final_norm_gain, &self.weights.final_norm_bias);
        normed.quantize_rows(self.quant.lm_head.activations).matmul_panels(&self.cast.lm_head)
    }

    /// The seed's clone-based forward pass (see [`DecodePath::SeedClone`]).
    fn forward_seed(&self, tokens: &[usize], cache: &mut KvCache) -> Matrix {
        assert!(!tokens.is_empty(), "token sequence must be non-empty");
        let start_pos = cache.seq_len();
        let mut x = self.embed(tokens);
        for layer in 0..self.config.layers {
            x = self.layer_forward_seed(layer, &x, start_pos, cache);
        }
        let normed = self.apply_norm(&x, &self.weights.final_norm_gain, &self.weights.final_norm_bias);
        normed.matmul_quantized(&self.weights.lm_head, self.quant.lm_head)
    }

    /// Token embeddings (vector op: BF16 precision like the baseline).
    fn embed(&self, tokens: &[usize]) -> Matrix {
        Matrix::from_fn(tokens.len(), self.config.hidden, |r, c| {
            let t = tokens[r];
            assert!(t < self.config.vocab, "token id {t} out of vocabulary");
            self.weights.embedding.get(t, c)
        })
    }

    /// Prefill convenience: runs `forward` with a fresh cache and returns `(logits, cache)`.
    #[must_use]
    pub fn prefill(&self, tokens: &[usize]) -> (Matrix, KvCache) {
        let mut cache = self.new_cache();
        let logits = self.forward(tokens, &mut cache);
        (logits, cache)
    }

    /// Decodes a single token given an existing cache, returning its logits.
    #[must_use]
    pub fn decode_step(&self, token: usize, cache: &mut KvCache) -> Vec<f32> {
        self.decode_step_with_path(token, cache, DecodePath::ZeroCopy)
    }

    /// [`TransformerModel::decode_step`] with an explicit decode path
    /// (see [`DecodePath`]).
    #[must_use]
    pub fn decode_step_with_path(&self, token: usize, cache: &mut KvCache, path: DecodePath) -> Vec<f32> {
        let logits = self.forward_with_path(&[token], cache, path);
        logits.row(0).to_vec()
    }

    /// Decodes a single token over any cache backend
    /// (see [`TransformerModel::forward_backend`]).
    #[must_use]
    pub fn decode_step_backend<B: KvBackend>(&self, token: usize, cache: &mut B) -> Vec<f32> {
        let logits = self.forward_backend(&[token], cache);
        logits.row(0).to_vec()
    }

    /// [`TransformerModel::decode_step_backend`] decoding cache rows through a
    /// caller-owned scratch (see [`TransformerModel::forward_backend_with_scratch`]).
    #[must_use]
    pub fn decode_step_backend_with_scratch<B: KvBackend>(
        &self,
        token: usize,
        cache: &mut B,
        scratch: &mut B::Scratch,
    ) -> Vec<f32> {
        let logits = self.forward_backend_with_scratch(&[token], cache, scratch);
        logits.row(0).to_vec()
    }

    /// Greedy generation of `n` tokens after prefilling `prompt`.
    ///
    /// # Panics
    ///
    /// Panics if the prompt is empty.
    #[must_use]
    pub fn generate_greedy(&self, prompt: &[usize], n: usize) -> Vec<usize> {
        let (logits, mut cache) = self.prefill(prompt);
        let mut out = Vec::with_capacity(n);
        let mut next = argmax(logits.row(logits.rows() - 1));
        for _ in 0..n {
            out.push(next);
            let step = self.decode_step(next, &mut cache);
            next = argmax(&step);
        }
        out
    }

    /// Zero-copy attention over any cache backend: cached keys/values are read row by row
    /// through a [`KvLayerReader`] (borrowed slices on the `f32` backend, per-row packed
    /// decodes on the paged backend), the cache is walked position-outer so every cached
    /// row is loaded once per query row (not once per head), and the
    /// score/probability/query operands go through reusable scratch buffers.
    ///
    /// Backends with fused row kernels ([`KvLayerReader::fused_key_dots`] /
    /// [`KvLayerReader::fused_value_accumulate`]) compute each position's per-head dot
    /// products and value accumulation straight from their packed storage, block by block
    /// in registers, so the full `f32` row is never materialized; backends without them
    /// fall back to the materializing row reads below. Both routes — and
    /// [`TransformerModel::attention_materialized`] — are bit-identical: every per-(head,
    /// position) dot product, softmax and accumulation runs in the same order on the same
    /// values.
    fn attention_zero_copy<R: KvLayerReader>(
        &self,
        reader: &mut R,
        q: &Matrix,
        start_pos: usize,
        attn_out: &mut Matrix,
    ) {
        let cfg = &self.config;
        let head_dim = cfg.head_dim();
        let group = cfg.heads / cfg.kv_heads;
        let geom = AttnGeometry { heads: cfg.heads, head_dim, group };
        let scale = 1.0 / (head_dim as f32).sqrt();
        let max_visible = start_pos + q.rows();
        let mut q_buf = vec![0.0_f32; cfg.heads * head_dim];
        let mut dots = vec![0.0_f32; cfg.heads];
        let mut probs_t = vec![0.0_f32; cfg.heads];
        let mut scores = Vec::with_capacity(cfg.heads * max_visible);
        let mut probs = Vec::with_capacity(cfg.heads * max_visible);
        for r in 0..q.rows() {
            let visible = start_pos + r + 1;
            // Quantize the query row operand (it feeds a dot product against cached keys).
            self.quant.linear.activations.quantize_dequantize_into(q.row(r), &mut q_buf);
            scores.resize(cfg.heads * visible, 0.0);
            for t in 0..visible {
                if reader.fused_key_dots(t, &q_buf, geom, &mut dots) {
                    for (head, &dot) in dots.iter().enumerate() {
                        scores[head * visible + t] = dot * scale;
                    }
                    continue;
                }
                let key_row = reader.key_row(t);
                for head in 0..cfg.heads {
                    let qs = head * head_dim;
                    let ks = (head / group) * head_dim;
                    let dot: f32 =
                        q_buf[qs..qs + head_dim].iter().zip(&key_row[ks..ks + head_dim]).map(|(a, b)| a * b).sum();
                    scores[head * visible + t] = dot * scale;
                }
            }
            // The probability operand of the probs x V matmul is also a dot-product
            // operand; quantize it with the activation scheme.
            probs.resize(cfg.heads * visible, 0.0);
            for head in 0..cfg.heads {
                let s = &mut scores[head * visible..(head + 1) * visible];
                kernels::softmax_inplace(s);
                self.quant
                    .attention_probs
                    .quantize_dequantize_into(s, &mut probs[head * visible..(head + 1) * visible]);
            }
            let out_row = attn_out.row_mut(r);
            for t in 0..visible {
                for (head, p) in probs_t.iter_mut().enumerate() {
                    *p = probs[head * visible + t];
                }
                if reader.fused_value_accumulate(t, &probs_t, geom, out_row) {
                    continue;
                }
                let value_row = reader.value_row(t);
                for head in 0..cfg.heads {
                    let p = probs[head * visible + t];
                    if p == 0.0 {
                        continue;
                    }
                    let qs = head * head_dim;
                    let ks = (head / group) * head_dim;
                    for (o, &vv) in out_row[qs..qs + head_dim].iter_mut().zip(&value_row[ks..ks + head_dim]) {
                        *o += p * vv;
                    }
                }
            }
        }
    }

    /// The seed's clone-based attention: materializes the whole cache into owned
    /// matrices once per call and allocates per-head score/probability vectors.
    /// Kept (and benchmarked) as the regression baseline for the zero-copy path.
    fn attention_materialized(&self, lcache: &LayerKvCache, q: &Matrix, start_pos: usize, attn_out: &mut Matrix) {
        let cfg = &self.config;
        let head_dim = cfg.head_dim();
        let group = cfg.heads / cfg.kv_heads;
        let scale = 1.0 / (head_dim as f32).sqrt();
        let keys = lcache.keys();
        let values = lcache.values();
        for r in 0..q.rows() {
            let visible = start_pos + r + 1;
            let q_row = self.quant.linear.activations.quantize_dequantize(q.row(r));
            for head in 0..cfg.heads {
                let qs = head * head_dim;
                let ks = (head / group) * head_dim;
                let mut scores = Vec::with_capacity(visible);
                for t in 0..visible {
                    let key_row = keys.row(t);
                    let dot: f32 =
                        q_row[qs..qs + head_dim].iter().zip(&key_row[ks..ks + head_dim]).map(|(a, b)| a * b).sum();
                    scores.push(dot * scale);
                }
                kernels::softmax_inplace(&mut scores);
                let probs = self.quant.attention_probs.quantize_dequantize(&scores);
                let out_slice = &mut attn_out.row_mut(r)[qs..qs + head_dim];
                for (t, &p) in probs.iter().enumerate() {
                    if p == 0.0 {
                        continue;
                    }
                    let value_row = values.row(t);
                    for (o, &vv) in out_slice.iter_mut().zip(&value_row[ks..ks + head_dim]) {
                        *o += p * vv;
                    }
                }
            }
        }
    }

    fn apply_norm(&self, x: &Matrix, gain: &[f32], bias: &[f32]) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), x.cols());
        for r in 0..x.rows() {
            let normed = match self.config.norm {
                NormKind::Rms => kernels::rmsnorm(x.row(r), gain, 1e-6),
                NormKind::Layer => kernels::layernorm(x.row(r), gain, bias, 1e-6),
            };
            out.row_mut(r).copy_from_slice(&normed);
        }
        out
    }

    /// Applies rotary embeddings to the query/key rows in place (vector op, baseline
    /// precision).
    fn apply_rotary(&self, q: &mut Matrix, k: &mut Matrix, start_pos: usize) {
        let cfg = &self.config;
        if cfg.rope_theta <= 0.0 {
            return;
        }
        let head_dim = cfg.head_dim();
        for r in 0..q.rows() {
            let pos = start_pos + r;
            for head in 0..cfg.heads {
                let s = head * head_dim;
                kernels::apply_rope(&mut q.row_mut(r)[s..s + head_dim], pos, cfg.rope_theta);
            }
            for kv_head in 0..cfg.kv_heads {
                let s = kv_head * head_dim;
                kernels::apply_rope(&mut k.row_mut(r)[s..s + head_dim], pos, cfg.rope_theta);
            }
        }
    }

    /// One transformer layer on the zero-copy path, generic over the cache backend:
    /// the shared activation operand is quantized once per projection group and
    /// multiplied against the pre-cast weights; cache reads go through the backend's
    /// per-layer row reader.
    fn layer_forward_backend<B: KvBackend>(
        &self,
        layer: usize,
        x: &Matrix,
        start_pos: usize,
        cache: &mut B,
        scratch: &mut B::Scratch,
    ) -> Matrix {
        let lw = &self.weights.layers[layer];
        let cast = &self.cast.layers[layer];
        let cfg = &self.config;
        let seq = x.rows();

        // --- Attention ---
        let normed = self.apply_norm(x, &lw.attn_norm_gain, &lw.attn_norm_bias);
        let (mut q, mut k, v) = {
            // Quantize the shared activation operand once for all three projections
            // and multiply against the pre-cast weights.
            let a = normed.quantize_rows(self.quant.linear.activations);
            (a.matmul_panels(&cast.wq), a.matmul_panels(&cast.wk), a.matmul_panels(&cast.wv))
        };
        self.apply_rotary(&mut q, &mut k, start_pos);

        // Append the new keys/values to the cache (stored quantized).
        for r in 0..seq {
            cache.append(layer, k.row(r), v.row(r), self.quant.kv_cache);
        }

        // Attention per query position and head, causal over the cache.
        let mut attn_out = Matrix::zeros(seq, cfg.heads * cfg.head_dim());
        let mut reader = cache.layer_reader(layer, scratch);
        self.attention_zero_copy(&mut reader, &q, start_pos, &mut attn_out);
        drop(reader);

        let attn_proj = attn_out.quantize_rows(self.quant.linear.activations).matmul_panels(&cast.wo);
        let x = x.add(&attn_proj);

        // --- MLP ---
        let normed = self.apply_norm(&x, &lw.mlp_norm_gain, &lw.mlp_norm_bias);
        let project = |cast_w: &WeightPanels, activations: &Matrix| {
            activations.quantize_rows(self.quant.linear.activations).matmul_panels(cast_w)
        };
        let mlp_out = match cfg.mlp {
            MlpKind::GatedSilu => {
                let (gate, up) = {
                    let a = normed.quantize_rows(self.quant.linear.activations);
                    (a.matmul_panels(&cast.w_gate), a.matmul_panels(&cast.w_up))
                };
                project(&cast.w_down, &self.gated_silu_hidden(&gate, &up))
            }
            MlpKind::Gelu => {
                let fc1 = project(&cast.w_gate, &normed);
                project(&cast.w_down, &self.gelu_hidden(&fc1))
            }
        };
        x.add(&mlp_out)
    }

    /// One transformer layer on the seed's clone-based path: weight operands re-quantized
    /// per projection, whole-cache materialization per attention call.
    fn layer_forward_seed(&self, layer: usize, x: &Matrix, start_pos: usize, cache: &mut KvCache) -> Matrix {
        let lw = &self.weights.layers[layer];
        let cfg = &self.config;
        let seq = x.rows();

        // --- Attention ---
        let normed = self.apply_norm(x, &lw.attn_norm_gain, &lw.attn_norm_bias);
        let mut q = normed.matmul_quantized(&lw.wq, self.quant.linear);
        let mut k = normed.matmul_quantized(&lw.wk, self.quant.linear);
        let v = normed.matmul_quantized(&lw.wv, self.quant.linear);
        self.apply_rotary(&mut q, &mut k, start_pos);

        for r in 0..seq {
            cache.layer_mut(layer).append(k.row(r), v.row(r), self.quant.kv_cache);
        }

        let mut attn_out = Matrix::zeros(seq, cfg.heads * cfg.head_dim());
        self.attention_materialized(cache.layer(layer), &q, start_pos, &mut attn_out);

        let attn_proj = attn_out.matmul_quantized(&lw.wo, self.quant.linear);
        let x = x.add(&attn_proj);

        // --- MLP ---
        let normed = self.apply_norm(&x, &lw.mlp_norm_gain, &lw.mlp_norm_bias);
        let project = |raw: &Matrix, activations: &Matrix| activations.matmul_quantized(raw, self.quant.linear);
        let mlp_out = match cfg.mlp {
            MlpKind::GatedSilu => {
                let gate = normed.matmul_quantized(&lw.w_gate, self.quant.linear);
                let up = normed.matmul_quantized(&lw.w_up, self.quant.linear);
                project(&lw.w_down, &self.gated_silu_hidden(&gate, &up))
            }
            MlpKind::Gelu => {
                let fc1 = project(&lw.w_gate, &normed);
                project(&lw.w_down, &self.gelu_hidden(&fc1))
            }
        };
        x.add(&mlp_out)
    }

    /// Element-wise `silu(gate) * up` of the gated MLP.
    fn gated_silu_hidden(&self, gate: &Matrix, up: &Matrix) -> Matrix {
        let mut hidden = Matrix::zeros(gate.rows(), self.config.intermediate);
        for r in 0..gate.rows() {
            for c in 0..self.config.intermediate {
                hidden.set(r, c, kernels::silu(gate.get(r, c)) * up.get(r, c));
            }
        }
        hidden
    }

    /// Element-wise GELU of the first MLP projection.
    fn gelu_hidden(&self, fc1: &Matrix) -> Matrix {
        let mut hidden = Matrix::zeros(fc1.rows(), self.config.intermediate);
        for r in 0..fc1.rows() {
            for c in 0..self.config.intermediate {
                hidden.set(r, c, kernels::gelu(fc1.get(r, c)));
            }
        }
        hidden
    }
}

/// Index of the maximum element (first occurrence on ties).
#[must_use]
pub fn argmax(values: &[f32]) -> usize {
    let mut best = 0;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &v) in values.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use mx_formats::QuantScheme;

    fn tiny_model(quant: ModelQuantConfig) -> TransformerModel {
        TransformerModel::new(ModelConfig::tiny_test(7), quant)
    }

    #[test]
    fn forward_shapes() {
        let model = tiny_model(ModelQuantConfig::BASELINE);
        let (logits, cache) = model.prefill(&[1, 2, 3, 4, 5]);
        assert_eq!(logits.shape(), (5, model.config().vocab));
        assert_eq!(cache.seq_len(), 5);
        assert!(logits.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn decode_extends_cache() {
        let model = tiny_model(ModelQuantConfig::BASELINE);
        let (_, mut cache) = model.prefill(&[1, 2, 3]);
        let logits = model.decode_step(4, &mut cache);
        assert_eq!(logits.len(), model.config().vocab);
        assert_eq!(cache.seq_len(), 4);
    }

    #[test]
    fn prefill_then_decode_matches_full_prefill() {
        // Causality check: running [a, b, c] at once must give the same last-position
        // logits as prefilling [a, b] and decoding c.
        let model = tiny_model(ModelQuantConfig::BASELINE);
        let (full, _) = model.prefill(&[5, 9, 13]);
        let (_, mut cache) = model.prefill(&[5, 9]);
        let step = model.decode_step(13, &mut cache);
        let last = full.row(2);
        for (a, b) in last.iter().zip(&step) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn earlier_logits_unaffected_by_later_tokens() {
        let model = tiny_model(ModelQuantConfig::BASELINE);
        let (l1, _) = model.prefill(&[3, 7, 11, 2]);
        let (l2, _) = model.prefill(&[3, 7, 99, 100]);
        for (a, b) in l1.row(1).iter().zip(l2.row(1)) {
            assert!((a - b).abs() < 1e-5, "causality violated");
        }
    }

    #[test]
    fn deterministic_given_seed_and_quant() {
        let m1 = tiny_model(ModelQuantConfig::uniform(QuantScheme::mxfp4()));
        let m2 = tiny_model(ModelQuantConfig::uniform(QuantScheme::mxfp4()));
        let (a, _) = m1.prefill(&[1, 2, 3, 4]);
        let (b, _) = m2.prefill(&[1, 2, 3, 4]);
        assert_eq!(a, b);
    }

    #[test]
    fn quantization_perturbs_but_does_not_break_logits() {
        let base = tiny_model(ModelQuantConfig::BASELINE);
        let quant = tiny_model(ModelQuantConfig::uniform(QuantScheme::mxfp4()));
        let tokens = [1, 2, 3, 4, 5, 6, 7, 8];
        let (lb, _) = base.prefill(&tokens);
        let (lq, _) = quant.prefill(&tokens);
        assert!(lq.data().iter().all(|v| v.is_finite()));
        assert!(lb.mse(&lq) > 0.0);
    }

    #[test]
    fn mxfp4_plus_is_closer_to_baseline_than_mxfp4() {
        // Use a configuration with pronounced activation outliers (as in the full model
        // presets) so the block-max effect dominates the logit perturbation.
        let mut cfg = ModelConfig::tiny_test(7);
        cfg.outliers = mx_tensor::OutlierSpec { channel_fraction: 0.02, magnitude: 60.0, fire_probability: 0.97 };
        let base = TransformerModel::new(cfg.clone(), ModelQuantConfig::BASELINE);
        let fp4 = TransformerModel::new(cfg.clone(), ModelQuantConfig::uniform(QuantScheme::mxfp4()));
        let fp4p = TransformerModel::new(cfg, ModelQuantConfig::uniform(QuantScheme::mxfp4_plus()));
        let tokens: Vec<usize> = (0..24).map(|i| (i * 7) % 128).collect();
        let (lb, _) = base.prefill(&tokens);
        let (l4, _) = fp4.prefill(&tokens);
        let (l4p, _) = fp4p.prefill(&tokens);
        assert!(lb.mse(&l4p) < lb.mse(&l4), "MX+ logits must be closer to the baseline");
    }

    #[test]
    fn view_and_materialize_modes_are_bit_identical() {
        // The zero-copy attention path must reproduce the clone-based seed path exactly,
        // not approximately — same dot products, same softmax inputs, same accumulation
        // order.
        for quant in [
            ModelQuantConfig::BASELINE,
            ModelQuantConfig::uniform(QuantScheme::mxfp4()),
            ModelQuantConfig::a_mxfp4_plus(),
        ] {
            let model = tiny_model(quant);
            let prompt = [3, 1, 4, 1, 5, 9, 2, 6];
            let mut cache_v = model.new_cache();
            let mut cache_m = model.new_cache();
            let lv = model.forward_with_path(&prompt, &mut cache_v, DecodePath::ZeroCopy);
            let lm = model.forward_with_path(&prompt, &mut cache_m, DecodePath::SeedClone);
            assert_eq!(lv, lm, "prefill logits diverge under {}", quant.name());
            let mut next = argmax(lv.row(lv.rows() - 1));
            for step in 0..8 {
                let sv = model.decode_step_with_path(next, &mut cache_v, DecodePath::ZeroCopy);
                let sm = model.decode_step_with_path(next, &mut cache_m, DecodePath::SeedClone);
                assert_eq!(sv, sm, "decode step {step} logits diverge under {}", quant.name());
                next = argmax(&sv);
            }
            for l in 0..cache_v.num_layers() {
                assert_eq!(cache_v.layer(l), cache_m.layer(l), "cache contents diverge");
            }
        }
    }

    #[test]
    fn paged_backend_is_bit_identical_to_f32_zero_copy() {
        // The packed-page backend must reproduce the f32 backend exactly — same logits at
        // every step — because the row codec round-trips the scheme's quantization bit
        // for bit. Checked under an MX scheme (bit-packed pages) and the baseline
        // (fallback f32 pages).
        use crate::paging::{PagePool, PagedKvCache};
        use mx_formats::RowCodec;
        for quant in [ModelQuantConfig::uniform(QuantScheme::mxfp4()), ModelQuantConfig::BASELINE] {
            let model = tiny_model(quant);
            let cfg = model.config().clone();
            let kv_dim = cfg.head_dim() * cfg.kv_heads;
            let scheme = quant.kv_cache;
            let pool = PagePool::for_kv_rows(16, 8, RowCodec::for_scheme(scheme), kv_dim).shared();
            let mut paged = PagedKvCache::new(&pool, cfg.layers, kv_dim, scheme, 30).unwrap();
            let mut flat = model.new_cache();
            let prompt = [3, 1, 4, 1, 5];
            let lp = model.forward_backend(&prompt, &mut paged);
            let lf = model.forward(&prompt, &mut flat);
            assert_eq!(lp, lf, "prefill logits diverge under {}", quant.name());
            let mut next = argmax(lp.row(lp.rows() - 1));
            for step in 0..24 {
                let sp = model.decode_step_backend(next, &mut paged);
                let sf = model.decode_step(next, &mut flat);
                assert_eq!(sp, sf, "decode step {step} diverges under {}", quant.name());
                next = argmax(&sp);
            }
            assert_eq!(paged.seq_len(), flat.seq_len());
            assert_eq!(crate::kvcache::KvBackend::materializations(&paged), 0);
        }
    }

    #[test]
    fn default_decode_path_never_materializes_the_cache() {
        let model = tiny_model(ModelQuantConfig::uniform(QuantScheme::mxfp4()));
        let (logits, mut cache) = model.prefill(&[1, 2, 3]);
        let mut next = argmax(logits.row(logits.rows() - 1));
        for _ in 0..16 {
            next = argmax(&model.decode_step(next, &mut cache));
        }
        assert_eq!(cache.seq_len(), 19);
        assert_eq!(cache.materializations(), 0, "hot path must read the cache through views only");
    }

    #[test]
    fn greedy_generation_is_deterministic() {
        let model = tiny_model(ModelQuantConfig::BASELINE);
        let a = model.generate_greedy(&[1, 2, 3], 6);
        let b = model.generate_greedy(&[1, 2, 3], 6);
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
        assert!(a.iter().all(|&t| t < model.config().vocab));
    }

    #[test]
    fn argmax_ties_resolve_to_first() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[-1.0]), 0);
    }

    #[test]
    fn gelu_layernorm_model_variant_runs() {
        // OPT-style: LayerNorm + GELU MLP + no RoPE.
        let mut cfg = ModelConfig::tiny_test(9);
        cfg.norm = crate::config::NormKind::Layer;
        cfg.mlp = crate::config::MlpKind::Gelu;
        cfg.rope_theta = 0.0;
        let model = TransformerModel::new(cfg, ModelQuantConfig::uniform(QuantScheme::mxfp6()));
        let (logits, _) = model.prefill(&[1, 2, 3, 4]);
        assert!(logits.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn rejects_out_of_vocab_tokens() {
        let model = tiny_model(ModelQuantConfig::BASELINE);
        let _ = model.prefill(&[9999]);
    }
}
