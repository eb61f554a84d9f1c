//! The transformer model: prefill and decode with quantized dot products.
//!
//! There is one forward implementation, [`TransformerModel::forward_batch_with_scratch`]:
//! a ragged batch of segments, each the new tokens of one sequence plus that sequence's
//! KV cache. Everything outside attention — norms, activation quantization, the seven
//! projections and the lm_head, SiLU and the residual adds — runs once over the stacked
//! rows of every segment, so a serving pass that decodes a token for each of `n`
//! sequences multiplies one `n`-row activation block against each weight, decoding
//! every weight panel once. RoPE, the K/V append and attention run per segment against
//! its own cache. Single-sequence prefill and decode
//! ([`TransformerModel::forward_backend_with_scratch`] and friends) are its one-segment
//! case. Every entry point returns the logits of every row, except the serving
//! engine's `forward_batch_logits_with_scratch`. It takes the rows it samples (one per
//! decode segment, the last of a prompt chunk that completes its prompt), and through
//! the same layer loop only those rows attend in the last layer and go on to the final
//! norm and the lm_head; every row still appends its K/V.
//!
//! Attention walks each segment's query rows in blocks of [`TILE_POSITIONS`] and its
//! cache a tile of [`TILE_POSITIONS`] positions at a time, through the reader's one q·k
//! and one probs×V call per tile ([`crate::kvcache::KvLayerReader::key_dots`] /
//! [`crate::kvcache::KvLayerReader::value_accumulate`]): each K and V tile is read once
//! per (segment, layer, row block) — on the paged backend by one fused page-kernel call
//! per page run, which folds the 4-bit codes in registers — and serves every row of the
//! block and every head of a GQA group. The q·k fold keeps the tile's positions in SIMD
//! lanes. Zero full-cache copies per token, and the score/probability scratch is bounded
//! by one row block. RoPE rotates through a `(sin, cos)` table built once per forward
//! from frequencies computed once per model. The projections multiply against weights
//! that were direct-cast **once** at construction into [`WeightPanels`]: 4-bit code
//! panels plus per-block scales under MXFP4/MXINT4 weights on the AVX2 backend, the
//! row-major `f32` matrix otherwise. Every projection runs through
//! [`Matrix::matmul_panels`], which is bit-identical to [`Matrix::matmul`] on the
//! `quantize_columns` weights at every row count; with the row-independence of
//! everything else, a sequence's logits do not depend on what it was batched with.

use mx_tensor::{kernels, Matrix, WeightPanels};
use serde::{Deserialize, Serialize};

use crate::config::{MlpKind, ModelConfig, NormKind};
use crate::kvcache::{AttnGeometry, KvBackend, KvCache, KvLayerReader, TILE_POSITIONS};
use crate::quant_config::ModelQuantConfig;
use crate::weights::ModelWeights;

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
    /// The `head_dim / 2` rotary frequencies ([`kernels::rope_freqs`]); empty without RoPE.
    rope_freqs: Vec<f32>,
}

impl TransformerModel {
    /// Builds the model, generating deterministic weights from the configuration's seed.
    #[must_use]
    pub fn new(config: ModelConfig, quant: ModelQuantConfig) -> Self {
        let weights = ModelWeights::generate(&config);
        TransformerModel::with_weights(config, weights, quant)
    }

    /// Builds the model from explicit weights (direct-casting them once for the forward
    /// pass).
    #[must_use]
    pub fn with_weights(config: ModelConfig, weights: ModelWeights, quant: ModelQuantConfig) -> Self {
        let cast = CastWeights::cast(&weights, &quant);
        let rope_freqs = if config.rope_theta > 0.0 {
            kernels::rope_freqs(config.head_dim(), config.rope_theta)
        } else {
            Vec::new()
        };
        TransformerModel { config, weights, quant, cast, rope_freqs }
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
        self.forward_backend(tokens, cache)
    }

    /// The forward pass over any cache backend: the `f32` [`KvCache`] or a bit-packed
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
    /// [`PagedScratch`](crate::paging::PagedScratch)). The one-segment case of
    /// [`TransformerModel::forward_batch_with_scratch`].
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
        self.forward_batch_with_scratch(&mut [(tokens, cache)], scratch)
    }

    /// One ragged batched forward over several sequences: each segment is the new
    /// tokens of one sequence and that sequence's cache. The rows of every segment are
    /// stacked, and the norms, activation quantization, all seven projections, SiLU, the
    /// residual adds and the lm_head run once over the stack, so every weight panel is
    /// decoded once per call rather than once per sequence. Per segment, against its
    /// own cache, the pass applies RoPE (each row at its own position, continuing from
    /// that cache's `seq_len()`), appends the new K/V rows and runs attention.
    ///
    /// Returns the logits of every row in segment order: segment `i`'s rows follow
    /// those of segments `0..i`. Everything outside attention is row-independent and
    /// [`Matrix::matmul_panels`] gives the same bits at every row count, so each
    /// segment's rows equal its own [`TransformerModel::forward_backend_with_scratch`]
    /// bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if a segment's tokens are empty or contain an id outside the vocabulary.
    #[must_use]
    pub fn forward_batch_with_scratch<B: KvBackend>(
        &self,
        segments: &mut [(&[usize], &mut B)],
        scratch: &mut B::Scratch,
    ) -> Matrix {
        self.forward_segments(segments, None, scratch)
    }

    /// [`TransformerModel::forward_batch_with_scratch`] that computes logits only for
    /// the stacked rows `logit_rows` — the serving engine's forward, which samples one
    /// row per decode segment and the last row of each prompt chunk that completes its
    /// prompt. Every segment still appends the K/V rows of all its tokens in every
    /// layer, and every layer but the last runs over every row. In the last layer only
    /// the selected rows attend, and only they go on through the output projection, the
    /// MLP, the final norm and the lm_head.
    ///
    /// Returns one logits row per entry of `logit_rows`, in that order. Everything past
    /// attention is row-independent, and a row's attention reads the same cached rows
    /// in the same order whatever rows attend with it, so each row equals the same
    /// stacked row of [`TransformerModel::forward_batch_with_scratch`] bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if a segment's tokens are empty or contain an id outside the vocabulary,
    /// or if an entry of `logit_rows` is not a row of the stack.
    #[must_use]
    pub(crate) fn forward_batch_logits_with_scratch<B: KvBackend>(
        &self,
        segments: &mut [(&[usize], &mut B)],
        logit_rows: &[usize],
        scratch: &mut B::Scratch,
    ) -> Matrix {
        self.forward_segments(segments, Some(logit_rows), scratch)
    }

    /// The one forward: the layers over the stacked rows of `segments`, the last of them
    /// keeping only the rows `logit_rows` selects (every row when `None`), then the
    /// final norm and the lm_head over those rows.
    fn forward_segments<B: KvBackend>(
        &self,
        segments: &mut [(&[usize], &mut B)],
        logit_rows: Option<&[usize]>,
        scratch: &mut B::Scratch,
    ) -> Matrix {
        let mut spans = Vec::with_capacity(segments.len());
        let mut rows = 0;
        for (tokens, cache) in segments.iter() {
            assert!(!tokens.is_empty(), "token sequence must be non-empty");
            spans.push(RowSpan { first: rows, len: tokens.len(), start_pos: cache.seq_len() });
            rows += tokens.len();
        }
        let mut x = self.embed(segments.iter().flat_map(|(tokens, _)| tokens.iter().copied()), rows);
        let batch = BatchRows { rope: self.rope_table(&spans, rows), spans, logit_rows };
        let mut attn = AttnScratch::new(&self.config);
        for layer in 0..self.config.layers {
            x = self.layer_forward(layer, &x, segments, &batch, scratch, &mut attn);
        }
        let normed = self.apply_norm(&x, &self.weights.final_norm_gain, &self.weights.final_norm_bias);
        normed.quantize_rows(self.quant.lm_head.activations).matmul_panels(&self.cast.lm_head)
    }

    /// The RoPE table of one forward: row `r` holds the `(sin, cos)` of every rotary
    /// frequency at stacked row `r`'s position. Every head of every layer rotates
    /// through it.
    fn rope_table(&self, spans: &[RowSpan], rows: usize) -> Vec<(f32, f32)> {
        let half = self.rope_freqs.len();
        let mut table = vec![(0.0, 0.0); rows * half];
        for span in spans {
            for (i, r) in span.rows().enumerate() {
                let row = &mut table[r * half..(r + 1) * half];
                kernels::rope_sin_cos_into(span.start_pos + i, &self.rope_freqs, row);
            }
        }
        table
    }

    /// Token embeddings (vector op: BF16 precision like the baseline).
    fn embed(&self, tokens: impl Iterator<Item = usize>, rows: usize) -> Matrix {
        let mut x = Matrix::zeros(rows, self.config.hidden);
        for (r, t) in tokens.enumerate() {
            assert!(t < self.config.vocab, "token id {t} out of vocabulary");
            x.row_mut(r).copy_from_slice(self.weights.embedding.row(t));
        }
        x
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
        self.decode_step_backend(token, cache)
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

    /// Zero-copy attention of one segment's query rows over that segment's cache, one
    /// block of [`ROW_BLOCK`] query rows at a time, in three steps per block:
    ///
    /// 1. **q·k.** For each tile of [`TILE_POSITIONS`] cached positions the block's rows
    ///    see, one [`KvLayerReader::key_dots`] call folds every row that sees the tile,
    ///    every head, against its keys. Each dot adds `q[d]·k[d]` in ascending `d` from
    ///    `0.0`, exactly the per-position fold [`kernels::dot_acc_seq`] computes.
    /// 2. **Softmax**, then the block quantize of the probability operand, per (row,
    ///    head) over that row's visible positions. Both need every score of the row
    ///    first: the probabilities are block-quantized along positions, so an online
    ///    softmax would change the bits.
    /// 3. **probs×V.** For each tile, one [`KvLayerReader::value_accumulate`] call adds
    ///    the tile's values into every row's output in ascending position order per
    ///    output element, skipping exact-zero probabilities. The probability tile holds
    ///    0 in the lanes a row cannot see, so the skip also applies the causal mask.
    ///
    /// Every score, probability and output element therefore sees the same operations
    /// in the same order as a per-position walk over [`KvLayerReader::key_row`] /
    /// [`KvLayerReader::value_row`], so the tiled walk cannot change a token. An `M`-row
    /// prefill reads each cached row at most `⌈M / ROW_BLOCK⌉` times per layer, not once
    /// per query row, and the score scratch holds `ROW_BLOCK × heads × visible` values.
    fn attention_zero_copy<R: KvLayerReader>(
        &self,
        reader: &mut R,
        q: &Matrix,
        span: &RowSpan,
        buf: &mut AttnScratch,
        attn_out: &mut Matrix,
    ) {
        let cfg = &self.config;
        let (heads, head_dim) = (cfg.heads, cfg.head_dim());
        let geom = AttnGeometry { heads, head_dim, group: heads / cfg.kv_heads };
        let q_dim = heads * head_dim;
        let scale = 1.0 / (head_dim as f32).sqrt();
        let AttnScratch { q: q_buf, scores, probs, lanes, tile } = buf;
        for first in (0..span.len).step_by(ROW_BLOCK) {
            let rows = ROW_BLOCK.min(span.len - first);
            // Row `i` of the block sees positions `0..visible(i)`; the last row sees the
            // most, `width`. The rows that see tile `t0` are `first_seeing(t0)..rows`.
            let visible = |i: usize| span.start_pos + first + i + 1;
            let width = visible(rows - 1);
            let first_seeing = |t0: usize| t0.saturating_sub(span.start_pos + first);
            let tiles = || (0..width).step_by(TILE_POSITIONS).map(move |t0| (t0, TILE_POSITIONS.min(width - t0)));
            // Quantize the query rows (each feeds dot products against cached keys).
            for (i, q_row) in q_buf.chunks_exact_mut(q_dim).take(rows).enumerate() {
                self.quant.linear.activations.quantize_dequantize_into(q.row(span.first + first + i), q_row);
            }
            scores.resize(rows * heads * width, 0.0);
            for (t0, n) in tiles() {
                let i0 = first_seeing(t0);
                let dots = &mut lanes[..(rows - i0) * heads * TILE_POSITIONS];
                reader.key_dots(t0, n, &q_buf[i0 * q_dim..rows * q_dim], geom, tile, dots);
                for (i, row_dots) in (i0..rows).zip(dots.chunks_exact(heads * TILE_POSITIONS)) {
                    let seen = TILE_POSITIONS.min(visible(i) - t0);
                    for (h, head_dots) in row_dots.chunks_exact(TILE_POSITIONS).enumerate() {
                        let at = (i * heads + h) * width + t0;
                        for (s, dot) in scores[at..at + seen].iter_mut().zip(head_dots) {
                            *s = dot * scale;
                        }
                    }
                }
            }
            // The probability operand of the probs x V matmul is also a dot-product
            // operand; quantize it with the activation scheme.
            probs.resize(rows * heads * width, 0.0);
            for i in 0..rows {
                for h in 0..heads {
                    let at = (i * heads + h) * width;
                    let s = &mut scores[at..at + visible(i)];
                    kernels::softmax_inplace(s);
                    self.quant.attention_probs.quantize_dequantize_into(s, &mut probs[at..at + visible(i)]);
                }
            }
            for (t0, n) in tiles() {
                let i0 = first_seeing(t0);
                let tile_probs = &mut lanes[..(rows - i0) * heads * TILE_POSITIONS];
                for (i, row_probs) in (i0..rows).zip(tile_probs.chunks_exact_mut(heads * TILE_POSITIONS)) {
                    let seen = TILE_POSITIONS.min(visible(i) - t0);
                    for (h, head_probs) in row_probs.chunks_exact_mut(TILE_POSITIONS).enumerate() {
                        let at = (i * heads + h) * width + t0;
                        head_probs[..seen].copy_from_slice(&probs[at..at + seen]);
                        head_probs[seen..].fill(0.0);
                    }
                }
                let out_rows = span.first + first + i0..span.first + first + rows;
                let out = &mut attn_out.data_mut()[out_rows.start * q_dim..out_rows.end * q_dim];
                reader.value_accumulate(t0, n, tile_probs, geom, tile, out);
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

    /// Applies rotary embeddings in place to one segment's query/key rows, each at its
    /// own cache position, through the forward's RoPE table (vector op, baseline
    /// precision).
    fn apply_rotary(&self, q: &mut Matrix, k: &mut Matrix, span: &RowSpan, rope: &[(f32, f32)]) {
        let half = self.rope_freqs.len();
        if half == 0 {
            return;
        }
        let head_dim = self.config.head_dim();
        for r in span.rows() {
            let sin_cos = &rope[r * half..(r + 1) * half];
            for head in q.row_mut(r).chunks_exact_mut(head_dim).chain(k.row_mut(r).chunks_exact_mut(head_dim)) {
                kernels::rope_rotate(head, sin_cos);
            }
        }
    }

    /// One transformer layer over the stacked rows of a batch, generic over the cache
    /// backend. The norms, the shared activation operand (quantized once per projection
    /// group), the projections against the pre-cast weights, the MLP and the residual
    /// adds run once over every row; RoPE, the K/V append and attention run per segment
    /// against its own cache, reading it through the backend's per-layer row reader.
    ///
    /// In the last layer of a forward with [`BatchRows::logit_rows`], every row still
    /// appends its K/V rows, but only the selected rows attend (each as a one-row span
    /// at its own position) and go on past attention; the returned matrix holds those
    /// rows, in that order.
    fn layer_forward<B: KvBackend>(
        &self,
        layer: usize,
        x: &Matrix,
        segments: &mut [(&[usize], &mut B)],
        batch: &BatchRows,
        scratch: &mut B::Scratch,
        attn: &mut AttnScratch,
    ) -> Matrix {
        let lw = &self.weights.layers[layer];
        let cast = &self.cast.layers[layer];
        let cfg = &self.config;
        let keep = batch.logit_rows.filter(|_| layer + 1 == cfg.layers);

        // --- Attention ---
        let normed = self.apply_norm(x, &lw.attn_norm_gain, &lw.attn_norm_bias);
        let (mut q, mut k, v) = {
            // Quantize the shared activation operand once for all three projections
            // and multiply against the pre-cast weights.
            let a = normed.quantize_rows(self.quant.linear.activations);
            (a.matmul_panels(&cast.wq), a.matmul_panels(&cast.wk), a.matmul_panels(&cast.wv))
        };
        let mut attn_out = Matrix::zeros(x.rows(), cfg.heads * cfg.head_dim());
        for ((_, cache), span) in segments.iter_mut().zip(&batch.spans) {
            self.apply_rotary(&mut q, &mut k, span, &batch.rope);
            // Append the new keys/values to the cache (stored quantized).
            for r in span.rows() {
                cache.append(layer, k.row(r), v.row(r), self.quant.kv_cache);
            }
            // Attention of this segment's rows, causal over its cache.
            let mut reader = cache.layer_reader(layer, scratch);
            match keep {
                None => self.attention_zero_copy(&mut reader, &q, span, attn, &mut attn_out),
                Some(rows) => {
                    for &r in rows.iter().filter(|r| span.rows().contains(r)) {
                        let row = RowSpan { first: r, len: 1, start_pos: span.start_pos + (r - span.first) };
                        self.attention_zero_copy(&mut reader, &q, &row, attn, &mut attn_out);
                    }
                }
            }
        }
        // Past attention every operation is row-independent: rows nobody keeps stop here.
        let kept;
        let (x, attn_out) = match keep {
            None => (x, attn_out),
            Some(rows) => {
                kept = select_rows(x, rows);
                (&kept, select_rows(&attn_out, rows))
            }
        };

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

/// Where one segment's rows sit in a batched forward's stack, and the cache position
/// its first row continues from.
struct RowSpan {
    first: usize,
    len: usize,
    start_pos: usize,
}

impl RowSpan {
    fn rows(&self) -> std::ops::Range<usize> {
        self.first..self.first + self.len
    }
}

/// The rows of one batched forward: where each segment's rows sit in the stack, the
/// RoPE table of every row ([`TransformerModel::rope_table`]), and the rows whose logits
/// it returns (every row when `None`).
struct BatchRows<'a> {
    spans: Vec<RowSpan>,
    rope: Vec<(f32, f32)>,
    logit_rows: Option<&'a [usize]>,
}

/// Query rows attended together: one page of positions ([`TILE_POSITIONS`]). A block
/// reads each K/V tile once for all its rows, and bounds the score scratch at
/// `ROW_BLOCK × heads × visible`.
const ROW_BLOCK: usize = TILE_POSITIONS;

/// Attention operands reused across every layer and segment of one forward call: one
/// row block's quantized query rows and its per-(row, head) score/probability rows
/// (grown to the widest visible context), one tile's per-(row, head) lanes (its dots,
/// then its probabilities) and the working memory of a reader's tile path.
struct AttnScratch {
    q: Vec<f32>,
    scores: Vec<f32>,
    probs: Vec<f32>,
    lanes: Vec<f32>,
    tile: Vec<f32>,
}

impl AttnScratch {
    fn new(cfg: &ModelConfig) -> Self {
        let kv_dim = cfg.kv_heads * cfg.head_dim();
        AttnScratch {
            q: vec![0.0; ROW_BLOCK * cfg.heads * cfg.head_dim()],
            scores: Vec::new(),
            probs: Vec::new(),
            lanes: vec![0.0; ROW_BLOCK * cfg.heads * TILE_POSITIONS],
            tile: vec![0.0; kv_dim * TILE_POSITIONS],
        }
    }
}

/// The rows `rows` of `m`, in that order.
fn select_rows(m: &Matrix, rows: &[usize]) -> Matrix {
    Matrix::from_vec(rows.len(), m.cols(), rows.iter().flat_map(|&r| m.row(r)).copied().collect())
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
    fn selected_logit_rows_equal_the_same_rows_of_the_full_forward() {
        // A decode row at a short context, a prefill chunk continuing a cache and a fresh
        // prefill: the rows handed to the lm_head carry exactly the bits of the same
        // stacked rows of the every-row forward, and both runs append the same cache.
        for quant in [ModelQuantConfig::a_mxfp4_plus(), ModelQuantConfig::BASELINE] {
            let model = tiny_model(quant);
            let caches = || {
                let (_, short) = model.prefill(&[4, 8, 15]);
                let (_, long) = model.prefill(&[16, 23, 42, 4, 8]);
                [short, long, model.new_cache()]
            };
            let new: [&[usize]; 3] = [&[7], &[1, 2, 3, 4, 5, 6], &[9, 10, 11, 12]];
            let (mut full_caches, mut picked_caches) = (caches(), caches());
            let mut segments: Vec<(&[usize], &mut KvCache)> = new.into_iter().zip(full_caches.iter_mut()).collect();
            let full = model.forward_batch_with_scratch(&mut segments, &mut ());
            // Each segment's last row, a middle row of the chunk and the fresh prefill's
            // first row, out of stack order.
            let rows = [0, 3, 6, 10, 7];
            let mut segments: Vec<(&[usize], &mut KvCache)> = new.into_iter().zip(picked_caches.iter_mut()).collect();
            let picked = model.forward_batch_logits_with_scratch(&mut segments, &rows, &mut ());
            assert_eq!(picked.rows(), rows.len());
            for (i, &r) in rows.iter().enumerate() {
                let bits = |row: &[f32]| row.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
                assert_eq!(bits(picked.row(i)), bits(full.row(r)), "{}: stacked row {r}", quant.name());
            }
            for (a, b) in full_caches.iter_mut().zip(picked_caches.iter_mut()) {
                assert_eq!(model.decode_step(3, a), model.decode_step(3, b), "{}: appended rows", quant.name());
            }
            let (_, mut cache) = model.prefill(&[1, 2]);
            let none = model.forward_batch_logits_with_scratch(&mut [(&[3, 4][..], &mut cache)], &[], &mut ());
            assert_eq!(none.shape(), (0, model.config().vocab));
            assert_eq!(cache.seq_len(), 4, "a chunk nobody samples still appends its rows");
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
