//! Benchmark of the kernel layer: dispatched word/SIMD pack and unpack vs the scalar
//! reference at each packed bit width, the paged attention decode (the fused 4-bit page
//! kernels) vs the forced-scalar pipeline, the MXFP4+ block quantizer, and the panel GEMM
//! over the `llama2_7b` toy's MXFP4 weights at M = 1, 4 and 32 vs the forced-scalar run,
//! which keeps the row-major `f32` weights and `matmul`. Each `gemm_*` label's `config`
//! names the kernel that ran ([`mx_tensor::panels::panel_kernel`]): `avx512` or `avx2`
//! for the panels, `matmul` for the `_scalar` twin.
//!
//! Each dispatched label — `pack_4bit`, `unpack_6bit`, `fused_attention_decode`,
//! `qdq_mxfp4plus`, `pack_row_mxfp4plus`, `gemm_m1_llama2_7b`, ... — has a `_scalar`
//! twin timed under forced scalar kernels. `--json <path>` writes them all; the committed
//! `BENCH_kernels.json` holds the dispatched labels' baselines, which `bench_gate`
//! compares best-of-N at -15%.

use mx_bench::harness::{model_config, Harness};
use mx_formats::kernels::{force_scalar, pack_codes_into, packed_len, unpack_codes_into};
use mx_formats::{QuantScheme, RowCodec};
use mx_llm::weights::ModelWeights;
use mx_llm::{ModelConfig, ModelQuantConfig, ServingEngine, SubmitOptions, TransformerModel};
use mx_tensor::panels::panel_kernel;
use mx_tensor::{Matrix, WeightPanels};

/// Codes per pack/unpack call: large enough that the SIMD prefix dominates the tail.
const CODES: usize = 1 << 16;

/// The bit widths the packed KV/weight rows actually use (MXFP4/MXFP6/MXFP8 families).
const WIDTHS: [u32; 3] = [4, 6, 8];

fn sample_codes(bits: u32) -> Vec<u8> {
    let mask = if bits == 8 { 0xff } else { (1u16 << bits) - 1 } as u8;
    (0..CODES).map(|i| ((i * 2_654_435_761) >> 7) as u8 & mask).collect()
}

/// The paged-attention bench model. `forced` casts its weights under forced scalar
/// kernels, as a forced-scalar run does, so the reference arm multiplies row-major `f32`
/// weights with `matmul`.
fn bench_model(forced: bool) -> TransformerModel {
    force_scalar(forced);
    let model = TransformerModel::new(ModelConfig::tiny_test(17), ModelQuantConfig::a_mxfp4_plus());
    force_scalar(false);
    model
}

/// Runs `time` on the dispatched kernels, then again under forced scalar kernels; the
/// second call's label suffix is `_scalar`.
fn dispatched_then_scalar(mut time: impl FnMut(&str, bool)) {
    for (suffix, scalar) in [("", false), ("_scalar", true)] {
        force_scalar(scalar);
        time(suffix, scalar);
    }
    force_scalar(false);
}

fn pack_unpack(h: &mut Harness) {
    for bits in WIDTHS {
        let codes = sample_codes(bits);
        let mut packed = vec![0u8; packed_len(CODES, bits)];
        let mut out = vec![0u8; CODES];
        pack_codes_into(&codes, bits, &mut packed);
        let config = format!("{bits}-bit codes x {CODES}");
        dispatched_then_scalar(|suffix, _| {
            h.time(&format!("pack_{bits}bit{suffix}"), "codes", CODES as f64, &config, || {
                pack_codes_into(&codes, bits, &mut packed);
            });
            h.time(&format!("unpack_{bits}bit{suffix}"), "codes", CODES as f64, &config, || {
                unpack_codes_into(&packed, bits, &mut out);
            });
        });
    }
}

/// One paged serving run; returns (generated token streams, decoded tokens).
fn paged_run(model: &TransformerModel) -> (Vec<Vec<usize>>, usize) {
    const RESIDENT: usize = 8;
    const PROMPT: usize = 8;
    const NEW_TOKENS: usize = 16;
    let pages = RESIDENT * model.config().layers * (PROMPT + NEW_TOKENS + 1).div_ceil(16);
    let mut engine = ServingEngine::paged(model, pages).with_threads(1);
    for s in 0..RESIDENT {
        let prompt: Vec<usize> = (0..PROMPT).map(|i| (s * 13 + i * 7) % 128).collect();
        engine.submit_with(&prompt, SubmitOptions::new(NEW_TOKENS));
    }
    let report = engine.run();
    assert_eq!(report.generated_tokens, RESIDENT * NEW_TOKENS);
    (engine.sequences().iter().map(|s| s.generated.clone()).collect(), report.generated_tokens)
}

fn fused_attention(h: &mut Harness) {
    let (model, reference_model) = (bench_model(false), bench_model(true));
    // The page kernels must be a pure optimization: identical tokens with or without them.
    let fused = paged_run(&model);
    force_scalar(true);
    let reference = paged_run(&reference_model);
    force_scalar(false);
    assert_eq!(fused.0, reference.0, "the page kernels must not change any token");
    let config = model_config(&model);
    dispatched_then_scalar(|suffix, scalar| {
        let model = if scalar { &reference_model } else { &model };
        h.time(&format!("fused_attention_decode{suffix}"), "tokens", fused.1 as f64, &config, || paged_run(model).1);
    });
}

/// One of the 29 projection matrices of the `llama2_7b` toy under A-MXFP4+ (MXFP4
/// weights): the raw weights and their scheme, their panels, and the panels cast under
/// forced scalar kernels (the row-major store that forced runs and hosts without AVX2
/// keep).
struct GemmWeight {
    w: Matrix,
    scheme: QuantScheme,
    panels: WeightPanels,
    forced: WeightPanels,
}

/// Every projection of the `llama2_7b` toy, and the model configuration they come from.
fn gemm_weights() -> (Vec<GemmWeight>, String) {
    let model = TransformerModel::new(ModelConfig::llama2_7b(), ModelQuantConfig::a_mxfp4_plus());
    let quant = model.quant();
    let weights = ModelWeights::generate(model.config());
    let mut all: Vec<(&Matrix, QuantScheme)> = Vec::new();
    for lw in &weights.layers {
        for w in [&lw.wq, &lw.wk, &lw.wv, &lw.wo, &lw.w_gate, &lw.w_up, &lw.w_down] {
            all.push((w, quant.linear.weights));
        }
    }
    all.push((&weights.lm_head, quant.lm_head.weights));
    let weights = all
        .into_iter()
        .map(|(w, scheme)| {
            let panels = WeightPanels::cast(w, scheme);
            force_scalar(true);
            let forced = WeightPanels::cast(w, scheme);
            force_scalar(false);
            GemmWeight { w: w.clone(), scheme, panels, forced }
        })
        .collect();
    (weights, model_config(&model))
}

/// `m` MXFP4+-quantized activation rows of width `k`, as the model feeds the projections.
fn gemm_activations(m: usize, k: usize) -> Matrix {
    Matrix::from_fn(m, k, |r, c| {
        let u = (((r * k + c) * 2_654_435_761) % 2001) as f32 / 1000.0 - 1.0;
        if c % 41 == 7 {
            u * 30.0
        } else {
            u
        }
    })
    .quantize_rows(QuantScheme::mxfp4_plus())
}

/// The panel GEMM must equal `matmul` on the `quantize_columns` weights bit for bit: on
/// the dispatched path, and under forced scalar kernels over both casts.
fn assert_gemm_bit_identity(weights: &[GemmWeight], m: usize) {
    let bits = |x: &Matrix| x.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for g in weights {
        let a = gemm_activations(m, g.w.rows());
        let reference = bits(&a.matmul(&g.w.quantize_columns(g.scheme)));
        assert_eq!(bits(&a.matmul_panels(&g.panels)), reference, "panel GEMM must equal matmul at M = {m}");
        force_scalar(true);
        let scalar = [bits(&a.matmul_panels(&g.panels)), bits(&a.matmul_panels(&g.forced))];
        force_scalar(false);
        for product in scalar {
            assert_eq!(product, reference, "forced-scalar panel GEMM must equal matmul at M = {m}");
        }
    }
}

/// FLOPs of one pass of `m` rows through every matrix.
fn gemm_flops(weights: &[GemmWeight], m: usize) -> f64 {
    weights.iter().map(|g| 2.0 * (m * g.w.rows() * g.w.cols()) as f64).sum()
}

/// One pass of `inputs` through every matrix: its panels, or its forced-scalar cast.
fn gemm_pass(weights: &[GemmWeight], inputs: &[Matrix], forced: bool) -> usize {
    let pass = weights.iter().zip(inputs);
    pass.map(|(g, a)| a.matmul_panels(if forced { &g.forced } else { &g.panels }).rows()).sum()
}

/// GFLOP/s of one pass through all 29 `llama2_7b` projections at M = 1 (decode), M = 4
/// (the 4 decode rows of a `batch_decode` pass) and M = 32 (prefill), after the
/// bit-identity check: the panels on the dispatched path, and the forced-scalar run,
/// which keeps `f32` weights and `matmul`.
fn gemm(h: &mut Harness) {
    let (weights, config) = gemm_weights();
    let (f32_bytes, panel_bytes): (usize, usize) = weights
        .iter()
        .map(|g| (g.forced.storage_bytes(), g.panels.storage_bytes()))
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    println!(
        "llama2_7b projection weights: {:.2} MB as f32, {:.2} MB as panels",
        f32_bytes as f64 / 1e6,
        panel_bytes as f64 / 1e6
    );
    for m in [1, 4, 32] {
        assert_gemm_bit_identity(&weights, m);
        let inputs: Vec<Matrix> = weights.iter().map(|g| gemm_activations(m, g.w.rows())).collect();
        let gflop = gemm_flops(&weights, m) / 1e9;
        dispatched_then_scalar(|suffix, scalar| {
            let config = format!("{config}, kernel {}", panel_kernel());
            h.time(&format!("gemm_m{m}_llama2_7b{suffix}"), "gflop", gflop, &config, || {
                gemm_pass(&weights, &inputs, scalar)
            });
        });
    }
}

/// Elements per quantizer call: one KV row of the `llama2_7b` toy is 1024 wide.
const ROW: usize = 1024;

/// An activation-like row: small values with a sparse outlier channel.
fn sample_row() -> Vec<f32> {
    (0..ROW)
        .map(|i| {
            let u = ((i * 2_654_435_761) % 2001) as f32 / 1000.0 - 1.0;
            if i % 41 == 7 {
                u * 30.0
            } else {
                u
            }
        })
        .collect()
}

/// Elements/sec of the MXFP4+ block quantizer: fake quantization (`qdq`, the
/// activation path) and the packed-row encode (`pack_row`, the KV append path).
fn quantizer(h: &mut Harness) {
    let scheme = QuantScheme::mxfp4_plus();
    let codec = RowCodec::for_scheme(scheme);
    let row = sample_row();
    let mut out = vec![0.0f32; ROW];
    let mut packed = vec![0u8; codec.packed_bytes(ROW)];
    let config = format!("MXFP4+ row of {ROW}");
    dispatched_then_scalar(|suffix, _| {
        h.time(&format!("qdq_mxfp4plus{suffix}"), "elements", ROW as f64, &config, || {
            scheme.quantize_dequantize_into(std::hint::black_box(&row), &mut out);
        });
        h.time(&format!("pack_row_mxfp4plus{suffix}"), "elements", ROW as f64, &config, || {
            codec.pack_row_into(std::hint::black_box(&row), &mut packed);
        });
    });
}

fn main() {
    let mut h = Harness::from_args("kernels");
    pack_unpack(&mut h);
    fused_attention(&mut h);
    quantizer(&mut h);
    gemm(&mut h);
    h.finish();
}
