//! Per-layer replay: re-executes the model's forward pass from this file through the
//! public functions of each module — `mx_tensor` (`quantize_rows`, `matmul`, kernels),
//! `mx_formats` (quantize-dequantize, row codecs), `mx_llm::paging` (append, fused
//! attention reads) and `mx_llm::sampling` — on the model's own weights, cast with
//! `quantize_columns` exactly as the model casts them, timing each phase. Nothing inside
//! the program is instrumented. The replayed logits must equal the model's bit for bit,
//! so the replay provably does the model's work on the model's activations.
//!
//! GEMM FLOP counts are computed from the operand shapes (2·M·K·N per product), not
//! measured.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mx_formats::{QuantScheme, RowCodec};
use mx_llm::config::{MlpKind, NormKind};
use mx_llm::kvcache::AttnGeometry;
use mx_llm::paging::DEFAULT_PAGE_POSITIONS;
use mx_llm::sampling::sample_token;
use mx_llm::{
    KvBackend, KvLayerReader, PagePool, PagedKvCache, PagedScratch, PagingError, Sampling, SeqRng, SpilledKv,
    TransformerModel,
};
use mx_telemetry::{Category, Recorder};
use mx_tensor::{kernels, Matrix};

use crate::report::Metrics;

/// Decode steps timed per context; per-phase times are their means.
const STEPS: usize = 60;
/// Contexts the decode-step replay runs at: a short prompt and the longest
/// `batch_decode` context (32-token prompt + 256 new tokens).
const SHORT_CTX: usize = 32;
const LONG_CTX: usize = 288;
/// Rows of the prefill replay: a 256-token prompt, the size at which prefill GEMMs run
/// at full width.
const PREFILL_ROWS: usize = 256;
const PREFILL_REPEATS: usize = 3;

// Phases of a replayed forward pass: disjoint, and together the whole pass.
const EMBED: usize = 0;
const NORM: usize = 1;
/// Activation quantize plus the Q, K and V products.
const QKV: usize = 2;
const ROPE: usize = 3;
/// Quantize and pack of the new K/V rows.
const APPEND: usize = 4;
/// Query-row quantize.
const ATTN_QUERY: usize = 5;
/// Fused query·key dots and probs×V accumulation straight from packed rows.
const ATTN_READ: usize = 6;
/// Softmax and probability quantize.
const SOFTMAX: usize = 7;
const WO: usize = 8;
const RESIDUAL: usize = 9;
/// Gate, up and down products with their activation quantizes.
const MLP: usize = 10;
const SILU: usize = 11;
const LM_HEAD: usize = 12;
const SAMPLE: usize = 13;
const PHASES: usize = 14;

/// Seconds per phase, and the `quantize_rows` time inside each GEMM phase (so GEMM-only
/// throughput can be derived).
#[derive(Debug, Clone, Copy, Default)]
struct Phases {
    secs: [f64; PHASES],
    quant: [f64; PHASES],
}

impl Phases {
    fn total(&self) -> f64 {
        self.secs.iter().sum()
    }

    fn add(&mut self, other: &Phases) {
        for (a, b) in self.secs.iter_mut().chain(&mut self.quant).zip(other.secs.iter().chain(&other.quant)) {
            *a += b;
        }
    }

    fn scaled(mut self, factor: f64) -> Phases {
        for a in self.secs.iter_mut().chain(&mut self.quant) {
            *a *= factor;
        }
        self
    }
}

/// Runs `f`, adding its duration to `acc`.
fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_secs_f64();
    out
}

/// One layer's projection weights, cast exactly as the model casts them.
struct CastLayer {
    wq: Matrix,
    wk: Matrix,
    wv: Matrix,
    wo: Matrix,
    w_gate: Matrix,
    w_up: Matrix,
    w_down: Matrix,
}

/// The model's forward pass rebuilt from public functions.
struct Replayer<'m> {
    model: &'m TransformerModel,
    cast: Vec<CastLayer>,
    lm_head: Matrix,
}

impl<'m> Replayer<'m> {
    fn new(model: &'m TransformerModel) -> Self {
        let cfg = model.config();
        assert!(
            cfg.norm == NormKind::Rms && cfg.mlp == MlpKind::GatedSilu,
            "the replay mirrors the RMSNorm + gated-SiLU forward pass"
        );
        let quant = model.quant();
        let w = quant.linear.weights;
        let cast = model
            .weights()
            .layers
            .iter()
            .map(|lw| CastLayer {
                wq: lw.wq.quantize_columns(w),
                wk: lw.wk.quantize_columns(w),
                wv: lw.wv.quantize_columns(w),
                wo: lw.wo.quantize_columns(w),
                w_gate: lw.w_gate.quantize_columns(w),
                w_up: lw.w_up.quantize_columns(w),
                w_down: lw.w_down.quantize_columns(w),
            })
            .collect();
        let lm_head = model.weights().lm_head.quantize_columns(quant.lm_head.weights);
        Replayer { model, cast, lm_head }
    }

    fn norm(x: &Matrix, gain: &[f32]) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), x.cols());
        for r in 0..x.rows() {
            out.row_mut(r).copy_from_slice(&kernels::rmsnorm(x.row(r), gain, 1e-6));
        }
        out
    }

    /// `TransformerModel::forward_backend_with_scratch` over a paged cache, phase by
    /// phase, plus greedy sampling of the last row. Returns the logits.
    fn forward(
        &self,
        tokens: &[usize],
        cache: &mut PagedKvCache,
        scratch: &mut PagedScratch,
        ph: &mut Phases,
    ) -> Matrix {
        let cfg = self.model.config();
        let quant = self.model.quant();
        let act = quant.linear.activations;
        let weights = self.model.weights();
        let (seq, hd) = (tokens.len(), cfg.head_dim());
        let start_pos = KvBackend::seq_len(cache);
        let mut x =
            timed(&mut ph.secs[EMBED], || Matrix::from_fn(seq, cfg.hidden, |r, c| weights.embedding.get(tokens[r], c)));
        for (layer, (lw, c)) in weights.layers.iter().zip(&self.cast).enumerate() {
            let normed = timed(&mut ph.secs[NORM], || Self::norm(&x, &lw.attn_norm_gain));
            let (mut q, mut k, v) = timed(&mut ph.secs[QKV], || {
                let a = timed(&mut ph.quant[QKV], || normed.quantize_rows(act));
                (a.matmul(&c.wq), a.matmul(&c.wk), a.matmul(&c.wv))
            });
            timed(&mut ph.secs[ROPE], || {
                if cfg.rope_theta > 0.0 {
                    for r in 0..seq {
                        for head in 0..cfg.heads {
                            kernels::apply_rope(
                                &mut q.row_mut(r)[head * hd..(head + 1) * hd],
                                start_pos + r,
                                cfg.rope_theta,
                            );
                        }
                        for head in 0..cfg.kv_heads {
                            kernels::apply_rope(
                                &mut k.row_mut(r)[head * hd..(head + 1) * hd],
                                start_pos + r,
                                cfg.rope_theta,
                            );
                        }
                    }
                }
            });
            timed(&mut ph.secs[APPEND], || {
                for r in 0..seq {
                    KvBackend::append(cache, layer, k.row(r), v.row(r), quant.kv_cache);
                }
            });
            let mut attn_out = Matrix::zeros(seq, cfg.heads * hd);
            self.attention(cache.layer_reader(layer, scratch), &q, start_pos, &mut attn_out, ph);
            let attn_proj =
                timed(&mut ph.secs[WO], || timed(&mut ph.quant[WO], || attn_out.quantize_rows(act)).matmul(&c.wo));
            x = timed(&mut ph.secs[RESIDUAL], || x.add(&attn_proj));
            let normed = timed(&mut ph.secs[NORM], || Self::norm(&x, &lw.mlp_norm_gain));
            let (gate, up) = timed(&mut ph.secs[MLP], || {
                let a = timed(&mut ph.quant[MLP], || normed.quantize_rows(act));
                (a.matmul(&c.w_gate), a.matmul(&c.w_up))
            });
            let hidden = timed(&mut ph.secs[SILU], || {
                let mut hidden = Matrix::zeros(seq, cfg.intermediate);
                for r in 0..seq {
                    for col in 0..cfg.intermediate {
                        hidden.set(r, col, kernels::silu(gate.get(r, col)) * up.get(r, col));
                    }
                }
                hidden
            });
            let mlp_out =
                timed(&mut ph.secs[MLP], || timed(&mut ph.quant[MLP], || hidden.quantize_rows(act)).matmul(&c.w_down));
            x = timed(&mut ph.secs[RESIDUAL], || x.add(&mlp_out));
        }
        let normed = timed(&mut ph.secs[NORM], || Self::norm(&x, &weights.final_norm_gain));
        let logits = timed(&mut ph.secs[LM_HEAD], || {
            timed(&mut ph.quant[LM_HEAD], || normed.quantize_rows(quant.lm_head.activations)).matmul(&self.lm_head)
        });
        let mut rng = SeqRng::new(0, 0);
        timed(&mut ph.secs[SAMPLE], || black_box(sample_token(logits.row(seq - 1), &Sampling::GREEDY, &mut rng)));
        logits
    }

    /// The model's zero-copy attention, reading packed rows through the fused kernels.
    fn attention<R: KvLayerReader>(
        &self,
        mut reader: R,
        q: &Matrix,
        start_pos: usize,
        out: &mut Matrix,
        ph: &mut Phases,
    ) {
        let cfg = self.model.config();
        let quant = self.model.quant();
        let hd = cfg.head_dim();
        let heads = cfg.heads;
        let group = heads / cfg.kv_heads;
        let geom = AttnGeometry { heads, head_dim: hd, group };
        let scale = 1.0 / (hd as f32).sqrt();
        let max_visible = start_pos + q.rows();
        let mut q_buf = vec![0.0_f32; heads * hd];
        let mut dots = vec![0.0_f32; heads];
        let mut probs_t = vec![0.0_f32; heads];
        let mut scores = Vec::with_capacity(heads * max_visible);
        let mut probs = Vec::with_capacity(heads * max_visible);
        for r in 0..q.rows() {
            let visible = start_pos + r + 1;
            timed(&mut ph.secs[ATTN_QUERY], || quant.linear.activations.quantize_dequantize_into(q.row(r), &mut q_buf));
            scores.resize(heads * visible, 0.0);
            timed(&mut ph.secs[ATTN_READ], || {
                for t in 0..visible {
                    if reader.fused_key_dots(t, &q_buf, geom, &mut dots) {
                        for (head, &dot) in dots.iter().enumerate() {
                            scores[head * visible + t] = dot * scale;
                        }
                        continue;
                    }
                    let key_row = reader.key_row(t);
                    for head in 0..heads {
                        let (qs, ks) = (head * hd, (head / group) * hd);
                        let dot: f32 = q_buf[qs..qs + hd].iter().zip(&key_row[ks..ks + hd]).map(|(a, b)| a * b).sum();
                        scores[head * visible + t] = dot * scale;
                    }
                }
            });
            probs.resize(heads * visible, 0.0);
            timed(&mut ph.secs[SOFTMAX], || {
                for head in 0..heads {
                    let s = &mut scores[head * visible..(head + 1) * visible];
                    kernels::softmax_inplace(s);
                    quant.attention_probs.quantize_dequantize_into(s, &mut probs[head * visible..(head + 1) * visible]);
                }
            });
            let out_row = out.row_mut(r);
            timed(&mut ph.secs[ATTN_READ], || {
                for t in 0..visible {
                    for (head, p) in probs_t.iter_mut().enumerate() {
                        *p = probs[head * visible + t];
                    }
                    if reader.fused_value_accumulate(t, &probs_t, geom, out_row) {
                        continue;
                    }
                    let value_row = reader.value_row(t);
                    for head in 0..heads {
                        let p = probs[head * visible + t];
                        if p == 0.0 {
                            continue;
                        }
                        let (qs, ks) = (head * hd, (head / group) * hd);
                        for (o, &vv) in out_row[qs..qs + hd].iter_mut().zip(&value_row[ks..ks + hd]) {
                            *o += p * vv;
                        }
                    }
                }
            });
        }
    }
}

/// What the decode-step replay found at one context.
struct StepReplay {
    /// Median seconds of the model's own decode step.
    model_step: f64,
    /// Median seconds of the replayed step.
    replay_step: f64,
    /// Mean seconds per phase of the replayed step.
    phases: Phases,
    /// Whether every replayed step's logits equalled the model's bit for bit.
    identical: bool,
}

fn new_cache(pool: &Arc<PagePool>, model: &TransformerModel, capacity: usize) -> Result<PagedKvCache, PagingError> {
    let cfg = model.config();
    PagedKvCache::new(pool, cfg.layers, cfg.head_dim() * cfg.kv_heads, model.quant().kv_cache, capacity)
}

fn restore(
    pool: &Arc<PagePool>,
    model: &TransformerModel,
    capacity: usize,
    snapshot: &SpilledKv,
) -> Result<PagedKvCache, PagingError> {
    let cfg = model.config();
    PagedKvCache::restore(pool, cfg.layers, cfg.head_dim() * cfg.kv_heads, model.quant().kv_cache, capacity, snapshot)
}

fn median(v: Vec<f64>) -> f64 {
    crate::stats::Sample::new(v).q(0.5)
}

/// Times the model's decode step and its replay on caches restored from one prefilled
/// snapshot holding `ctx` positions, alternating which runs first.
fn decode_steps(
    r: &Replayer<'_>,
    pool: &Arc<PagePool>,
    ctx: usize,
    rng: &mut SeqRng,
    rec: &mut Recorder,
) -> Result<StepReplay, PagingError> {
    let model = r.model;
    let vocab = model.config().vocab;
    let prompt: Vec<usize> = (0..ctx).map(|_| (rng.next_u64() % vocab as u64) as usize).collect();
    let capacity = ctx + 8;
    let mut scratch = PagedScratch::default();
    let snapshot = {
        let mut cache = new_cache(pool, model, capacity)?;
        black_box(model.forward_backend_with_scratch(&prompt, &mut cache, &mut scratch));
        cache.checkpoint()
    };
    let mut model_times = Vec::with_capacity(STEPS);
    let mut replay_times = Vec::with_capacity(STEPS);
    let mut phases = Phases::default();
    let mut identical = true;
    for i in 0..STEPS {
        let token = prompt[i % ctx];
        let mut a = restore(pool, model, capacity, &snapshot)?;
        let mut b = restore(pool, model, capacity, &snapshot)?;
        let mut run_model = |scratch: &mut PagedScratch| {
            let t = Instant::now();
            let logits = model.decode_step_backend_with_scratch(token, &mut a, scratch);
            model_times.push(t.elapsed().as_secs_f64());
            logits
        };
        let mut run_replay = |scratch: &mut PagedScratch, rec: &mut Recorder| {
            let mut ph = Phases::default();
            let _span = rec.span(Category::Worker, "replay.decode_step", "ctx", ctx as u64);
            let logits = r.forward(&[token], &mut b, scratch, &mut ph);
            replay_times.push(ph.total());
            phases.add(&ph);
            logits
        };
        let (want, got) = if i % 2 == 0 {
            let want = run_model(&mut scratch);
            (want, run_replay(&mut scratch, rec))
        } else {
            let got = run_replay(&mut scratch, rec);
            (run_model(&mut scratch), got)
        };
        identical &= got.row(0) == want.as_slice();
    }
    let phases = phases.scaled(1.0 / STEPS as f64);
    Ok(StepReplay { model_step: median(model_times), replay_step: median(replay_times), phases, identical })
}

/// Median over batches of the mean seconds per call of `f`, each batch about
/// `budget / 5` long. Recorded as one span named `name`.
fn per_call(rec: &mut Recorder, name: &'static str, budget: Duration, mut f: impl FnMut()) -> f64 {
    const BATCHES: usize = 5;
    let _span = rec.span(Category::Worker, name, "batches", BATCHES as u64);
    let t = Instant::now();
    f();
    let once = t.elapsed().as_secs_f64().max(1e-8);
    let calls = ((budget.as_secs_f64() / BATCHES as f64) / once).ceil().max(1.0) as usize;
    median(
        (0..BATCHES)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..calls {
                    f();
                }
                t.elapsed().as_secs_f64() / calls as f64
            })
            .collect(),
    )
}

fn random_vec(rng: &mut SeqRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.next_f32() * 2.0 - 1.0).collect()
}

/// Replays the model's layers and pushes the per-layer metrics they give. Returns whether
/// every replayed pass reproduced the model's logits bit for bit.
///
/// # Errors
///
/// Returns the pool's error if the replay's own page pool cannot hold a cache.
pub fn replay(model: &TransformerModel, rec: &mut Recorder, metrics: &mut Metrics) -> Result<bool, PagingError> {
    let cfg = model.config().clone();
    let quant = model.quant();
    let (hidden, inter, vocab, layers) = (cfg.hidden, cfg.intermediate, cfg.vocab, cfg.layers);
    let kv_dim = cfg.head_dim() * cfg.kv_heads;
    let replayer = Replayer::new(model);
    let mut rng = SeqRng::new(0x5e7e, 0);
    let pages = 4 * layers * (LONG_CTX.max(PREFILL_ROWS) + 8).div_ceil(DEFAULT_PAGE_POSITIONS);
    let kv = quant.kv_cache;
    let pool = PagePool::for_kv_rows(pages, DEFAULT_PAGE_POSITIONS, RowCodec::for_scheme(kv), kv_dim).shared();

    // --- model: whole decode steps, and the replayed step phase by phase ---
    let short = decode_steps(&replayer, &pool, SHORT_CTX, &mut rng, rec)?;
    let long = decode_steps(&replayer, &pool, LONG_CTX, &mut rng, rec)?;

    // --- tensor at M = 256: a replayed 256-token prefill ---
    let prompt: Vec<usize> = (0..PREFILL_ROWS).map(|_| (rng.next_u64() % vocab as u64) as usize).collect();
    let mut prefill = Vec::with_capacity(PREFILL_REPEATS);
    let mut prefill_identical = true;
    for _ in 0..PREFILL_REPEATS {
        let mut scratch = PagedScratch::default();
        let mut ph = Phases::default();
        let mut cache = new_cache(&pool, model, PREFILL_ROWS + 8)?;
        let got = {
            let _span = rec.span(Category::Worker, "replay.prefill", "rows", PREFILL_ROWS as u64);
            replayer.forward(&prompt, &mut cache, &mut scratch, &mut ph)
        };
        drop(cache);
        let mut cache = new_cache(&pool, model, PREFILL_ROWS + 8)?;
        prefill_identical &= got == model.forward_backend_with_scratch(&prompt, &mut cache, &mut scratch);
        prefill.push(ph);
    }
    let pick = |f: fn(&Phases) -> f64| median(prefill.iter().map(f).collect());
    let (qkv256, mlp256) = (pick(|p| p.secs[QKV]), pick(|p| p.secs[MLP]));
    let gemm256 = pick(|p| p.secs[QKV] + p.secs[MLP] - p.quant[QKV] - p.quant[MLP]);

    // --- formats: the KV row codec and activation quantize-dequantize ---
    let ms = Duration::from_millis;
    let row = random_vec(&mut rng, kv_dim);
    let mut codec_time = |scheme: QuantScheme, names: [&'static str; 2]| {
        let codec = RowCodec::for_scheme(scheme);
        let mut packed = vec![0u8; codec.packed_bytes(kv_dim)];
        let mut out = vec![0.0f32; kv_dim];
        let pack = per_call(rec, names[0], ms(100), || codec.pack_row_into(black_box(&row), &mut packed));
        let unpack = per_call(rec, names[1], ms(100), || codec.unpack_row_into(black_box(&packed), &mut out));
        (pack, unpack)
    };
    let (pack, unpack) = codec_time(kv, ["replay.formats.pack_row", "replay.formats.unpack_row"]);
    let (mx_pack, mx_unpack) =
        codec_time(QuantScheme::mxfp4(), ["replay.formats.mxfp4_pack", "replay.formats.mxfp4_unpack"]);
    let (plus_pack, plus_unpack) =
        codec_time(QuantScheme::mxfp4_plus(), ["replay.formats.mxfp4plus_pack", "replay.formats.mxfp4plus_unpack"]);
    let mut out = vec![0.0f32; kv_dim];
    let act = quant.linear.activations;
    let qdq = per_call(rec, "replay.formats.qdq", ms(100), || act.quantize_dequantize_into(black_box(&row), &mut out));

    // --- sampling at the model's vocabulary ---
    let logits = random_vec(&mut rng, vocab);
    let mut srng = SeqRng::new(1, 1);
    let top_p_cfg = Sampling::top_p(0.9, 1.0, 7);
    let top_p = per_call(rec, "replay.sampling.top_p", ms(100), || {
        black_box(sample_token(black_box(&logits), &top_p_cfg, &mut srng));
    });

    let p = &long.phases;
    let l = layers as f64;
    let flops = |m: usize, k: usize, n: usize| 2.0 * (m * k * n) as f64;
    let qkv_flops = |m| flops(m, hidden, cfg.hidden + 2 * kv_dim);
    let mlp_flops = |m| 2.0 * flops(m, hidden, inter) + flops(m, inter, hidden);
    let step_flops = l * (qkv_flops(1) + flops(1, hidden, hidden) + mlp_flops(1)) + flops(1, hidden, vocab);
    let step_gemm = [QKV, WO, MLP, LM_HEAD].iter().map(|&i| p.secs[i] - p.quant[i]).sum::<f64>();
    let (us, ns) = (1e6, 1e9);
    metrics.push("model.decode_step_ctx32_us", short.model_step * us, "us");
    metrics.push("model.decode_step_ctx288_us", long.model_step * us, "us");
    metrics.push("tensor.qkv_m1_us", p.secs[QKV] / l * us, "us");
    metrics.push("tensor.wo_m1_us", p.secs[WO] / l * us, "us");
    metrics.push("tensor.mlp_m1_us", p.secs[MLP] / l * us, "us");
    metrics.push("tensor.lm_head_m1_us", p.secs[LM_HEAD] * us, "us");
    metrics.push("tensor.gemm_m1_gflops", step_flops / step_gemm / 1e9, "GFLOP/s");
    metrics.push("tensor.qkv_m256_ms", qkv256 / l * 1e3, "ms");
    metrics.push("tensor.mlp_m256_ms", mlp256 / l * 1e3, "ms");
    metrics.push("tensor.gemm_m256_gflops", l * (qkv_flops(256) + mlp_flops(256)) / gemm256 / 1e9, "GFLOP/s");
    metrics.push("tensor.act_quant_m1_us", (p.quant.iter().sum::<f64>() + p.secs[ATTN_QUERY]) / l * us, "us");
    metrics.push(
        "tensor.vector_ops_m1_us",
        (p.secs[NORM] + p.secs[ROPE] + p.secs[SOFTMAX] + p.secs[RESIDUAL] + p.secs[SILU]) / l * us,
        "us",
    );
    metrics.push("formats.pack_row_ns", pack * ns, "ns");
    metrics.push("formats.unpack_row_ns", unpack * ns, "ns");
    metrics.push("formats.qdq_ns_per_elem", qdq * ns / kv_dim as f64, "ns");
    metrics.push("formats.mxplus_over_mx", (plus_pack + plus_unpack) / (mx_pack + mx_unpack), "ratio");
    metrics.push("paging.append_row_us", p.secs[APPEND] / l * us, "us");
    metrics.push("paging.attn_ns_per_pos", p.secs[ATTN_READ] / l / (LONG_CTX + 1) as f64 * ns, "ns");
    metrics.push("sampling.greedy_us", p.secs[SAMPLE] * us, "us");
    metrics.push("sampling.top_p_us", top_p * us, "us");
    metrics.push("bench.replay_coverage", long.replay_step / long.model_step, "ratio");
    let identical = short.identical && long.identical && prefill_identical;
    if !identical {
        eprintln!("servebench: the replayed forward pass diverged from the model's logits");
    }
    Ok(identical)
}
