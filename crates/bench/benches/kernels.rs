//! Criterion benchmark of the kernel layer: dispatched word/SIMD pack and unpack vs the
//! scalar reference at each packed bit width, the paged attention decode (the fused 4-bit
//! page kernels) vs the forced-scalar pipeline, and the panel GEMM over the `llama2_7b`
//! toy's MXFP4 weights at M = 1 and M = 32 vs the forced-scalar run, which keeps the
//! row-major `f32` weights and `matmul`.
//!
//! The `--json <path>` mode replaces the criterion run with deterministic hand-timed
//! sweeps (best-of-N over fixed iteration counts) and writes one throughput entry per
//! label — `pack_4bit`, `unpack_6bit`, `fused_attention_decode`, `qdq_mxfp4plus`,
//! `pack_row_mxfp4plus`, `gemm_m1_llama2_7b`, ... — each carrying the dispatched
//! `throughput`, the `scalar_throughput` reference (forced scalar), and their ratio. The
//! committed `BENCH_kernels.json` baseline and the CI artifact both come from here;
//! `bench_gate` compares the `throughput` field per label at the same -15% tolerance as
//! the serving snapshot.

use std::time::Instant;

use criterion::{criterion_group, BenchmarkId, Criterion};
use mx_formats::kernels::{
    active_backend, force_scalar, pack_codes_into, pack_codes_into_scalar, packed_len, unpack_codes_into,
    unpack_codes_into_scalar,
};
use mx_formats::{QuantScheme, RowCodec};
use mx_llm::{ModelConfig, ModelQuantConfig, ServingEngine, SubmitOptions, TransformerModel};
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

fn pack_unpack(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels_pack_unpack");
    group.sample_size(10);
    for bits in WIDTHS {
        let codes = sample_codes(bits);
        let mut packed = vec![0u8; packed_len(CODES, bits)];
        let mut out = vec![0u8; CODES];
        pack_codes_into_scalar(&codes, bits, &mut packed);

        group.bench_with_input(BenchmarkId::new("pack_dispatched", bits), &bits, |b, &bits| {
            b.iter(|| pack_codes_into(&codes, bits, &mut packed));
        });
        group.bench_with_input(BenchmarkId::new("pack_scalar", bits), &bits, |b, &bits| {
            b.iter(|| pack_codes_into_scalar(&codes, bits, &mut packed));
        });
        group.bench_with_input(BenchmarkId::new("unpack_dispatched", bits), &bits, |b, &bits| {
            b.iter(|| unpack_codes_into(&packed, bits, &mut out));
        });
        group.bench_with_input(BenchmarkId::new("unpack_scalar", bits), &bits, |b, &bits| {
            b.iter(|| unpack_codes_into_scalar(&packed, bits, &mut out));
        });
    }
    group.finish();
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

fn fused_attention(c: &mut Criterion) {
    let (model, reference_model) = (bench_model(false), bench_model(true));
    // The page kernels must be a pure optimization: identical tokens with or without them.
    let fused = paged_run(&model);
    force_scalar(true);
    let reference = paged_run(&reference_model);
    force_scalar(false);
    assert_eq!(fused.0, reference.0, "the page kernels must not change any token");

    let mut group = c.benchmark_group("fused_attention");
    group.sample_size(10);
    group.bench_function("paged_fused", |b| b.iter(|| paged_run(&model).1));
    group.bench_function("paged_forced_scalar", |b| {
        b.iter(|| {
            force_scalar(true);
            let tokens = paged_run(&reference_model).1;
            force_scalar(false);
            tokens
        });
    });
    group.finish();
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

fn gemm_weights() -> Vec<GemmWeight> {
    let model = TransformerModel::new(ModelConfig::llama2_7b(), ModelQuantConfig::a_mxfp4_plus());
    let quant = model.quant();
    let weights = model.weights();
    let mut all: Vec<(&Matrix, QuantScheme)> = Vec::new();
    for lw in &weights.layers {
        for w in [&lw.wq, &lw.wk, &lw.wv, &lw.wo, &lw.w_gate, &lw.w_up, &lw.w_down] {
            all.push((w, quant.linear.weights));
        }
    }
    all.push((&weights.lm_head, quant.lm_head.weights));
    all.into_iter()
        .map(|(w, scheme)| {
            let panels = WeightPanels::cast(w, scheme);
            force_scalar(true);
            let forced = WeightPanels::cast(w, scheme);
            force_scalar(false);
            GemmWeight { w: w.clone(), scheme, panels, forced }
        })
        .collect()
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

fn gemm(c: &mut Criterion) {
    let weights = gemm_weights();
    let mut group = c.benchmark_group("panel_gemm_llama2_7b");
    group.sample_size(10);
    for m in [1, 32] {
        assert_gemm_bit_identity(&weights, m);
        let inputs: Vec<Matrix> = weights.iter().map(|g| gemm_activations(m, g.w.rows())).collect();
        group.bench_with_input(BenchmarkId::new("dispatched", m), &m, |b, _| {
            b.iter(|| gemm_pass(&weights, &inputs, false));
        });
        group.bench_with_input(BenchmarkId::new("forced_scalar", m), &m, |b, _| {
            b.iter(|| {
                force_scalar(true);
                let rows = gemm_pass(&weights, &inputs, true);
                force_scalar(false);
                rows
            });
        });
    }
    group.finish();
}

/// GFLOP/s of one pass through all 29 `llama2_7b` projections at M = 1 (decode) and
/// M = 32 (prefill), after the bit-identity check: the panels on the dispatched path, and
/// the forced-scalar run, which keeps `f32` weights and `matmul`.
fn gemm_entries(entries: &mut Vec<String>) {
    let weights = gemm_weights();
    let (f32_bytes, panel_bytes): (usize, usize) = weights
        .iter()
        .map(|g| (g.forced.storage_bytes(), g.panels.storage_bytes()))
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    println!(
        "llama2_7b projection weights: {:.2} MB as f32, {:.2} MB as panels",
        f32_bytes as f64 / 1e6,
        panel_bytes as f64 / 1e6
    );
    for (m, iters) in [(1, 200), (32, 20)] {
        assert_gemm_bit_identity(&weights, m);
        let inputs: Vec<Matrix> = weights.iter().map(|g| gemm_activations(m, g.w.rows())).collect();
        let pass = |forced| {
            std::hint::black_box(gemm_pass(&weights, &inputs, forced));
        };
        let fast = best_seconds(|| pass(false), iters, 5);
        force_scalar(true);
        let reference = best_seconds(|| pass(true), iters, 5);
        force_scalar(false);
        let gflops = |s: f64| gemm_flops(&weights, m) / s / 1e9;
        let label = format!("gemm_m{m}_llama2_7b");
        entries.push(mx_bench::snapshot::kernel_entry_json(&label, "gflop", gflops(fast), gflops(reference)));
        println!("{label}: {:.2} GFLOP/s, {:.2}x the forced-scalar f32 matmul", gflops(fast), reference / fast);
    }
}

/// Best-of-`reps` seconds per call of `f`, each rep averaging `iters` calls.
fn best_seconds(mut f: impl FnMut(), iters: usize, reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(start.elapsed().as_secs_f64() / iters as f64);
    }
    best
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

/// Dispatched and forced-scalar elements/sec of the MXFP4+ block quantizer: fake
/// quantization (`qdq`, the activation path) and the packed-row encode (`pack_row`, the
/// KV append path).
fn quantizer_entries(entries: &mut Vec<String>) {
    let scheme = QuantScheme::mxfp4_plus();
    let codec = RowCodec::for_scheme(scheme);
    let row = sample_row();
    let mut out = vec![0.0f32; ROW];
    let mut packed = vec![0u8; codec.packed_bytes(ROW)];
    let mut qdq = || scheme.quantize_dequantize_into(std::hint::black_box(&row), &mut out);
    let mut pack = || codec.pack_row_into(std::hint::black_box(&row), &mut packed);
    let per_sec = |s: f64| ROW as f64 / s;
    let (qdq_fast, pack_fast) = (best_seconds(&mut qdq, 2000, 5), best_seconds(&mut pack, 2000, 5));
    force_scalar(true);
    let (qdq_ref, pack_ref) = (best_seconds(&mut qdq, 100, 5), best_seconds(&mut pack, 100, 5));
    force_scalar(false);
    for (label, fast, reference) in [("qdq_mxfp4plus", qdq_fast, qdq_ref), ("pack_row_mxfp4plus", pack_fast, pack_ref)]
    {
        entries.push(mx_bench::snapshot::kernel_entry_json(label, "elements", per_sec(fast), per_sec(reference)));
        println!(
            "{label}: {:.2} ns/element, {:.1}x the forced-scalar reference",
            fast * 1e9 / ROW as f64,
            reference / fast
        );
    }
}

/// The `--json` snapshot workload: per-width pack/unpack throughput (dispatched vs
/// scalar, codes/sec), the paged decode vs its forced-scalar pipeline (tokens/sec), the
/// MXFP4+ block quantizer (elements/sec) and the panel GEMM (GFLOP/s).
fn kernels_snapshot() -> String {
    let mut entries = Vec::new();
    println!("kernel snapshot: dispatch backend `{}`", active_backend().name());
    for bits in WIDTHS {
        let codes = sample_codes(bits);
        let mut packed = vec![0u8; packed_len(CODES, bits)];
        let mut out = vec![0u8; CODES];
        pack_codes_into_scalar(&codes, bits, &mut packed);

        let pack = best_seconds(|| pack_codes_into(&codes, bits, &mut packed), 128, 5);
        let pack_scalar = best_seconds(|| pack_codes_into_scalar(&codes, bits, &mut packed), 16, 5);
        let unpack = best_seconds(|| unpack_codes_into(&packed, bits, &mut out), 128, 5);
        let unpack_scalar = best_seconds(|| unpack_codes_into_scalar(&packed, bits, &mut out), 16, 5);
        let per_sec = |s: f64| CODES as f64 / s;
        entries.push(mx_bench::snapshot::kernel_entry_json(
            &format!("pack_{bits}bit"),
            "codes",
            per_sec(pack),
            per_sec(pack_scalar),
        ));
        entries.push(mx_bench::snapshot::kernel_entry_json(
            &format!("unpack_{bits}bit"),
            "codes",
            per_sec(unpack),
            per_sec(unpack_scalar),
        ));
        println!(
            "kernels {bits}-bit: pack {:.0}x scalar, unpack {:.0}x scalar",
            pack_scalar / pack,
            unpack_scalar / unpack
        );
    }

    let (model, reference_model) = (bench_model(false), bench_model(true));
    let tokens = paged_run(&model).1 as f64;
    let fused = best_seconds(|| drop(paged_run(&model)), 1, 3);
    force_scalar(true);
    let reference = best_seconds(|| drop(paged_run(&reference_model)), 1, 3);
    force_scalar(false);
    entries.push(mx_bench::snapshot::kernel_entry_json(
        "fused_attention_decode",
        "tokens",
        tokens / fused,
        tokens / reference,
    ));
    println!("fused attention decode: {:.2}x the forced-scalar pipeline", reference / fused);
    quantizer_entries(&mut entries);
    gemm_entries(&mut entries);

    mx_bench::snapshot::document_json("kernels", &entries)
}

criterion_group!(benches, pack_unpack, fused_attention, gemm);

fn main() {
    // `--json <path>` replaces the criterion run with the deterministic hand-timed
    // sweep that produces the committed `BENCH_kernels.json` baseline.
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--json" {
            let path = args.next().expect("--json requires a file path");
            std::fs::write(&path, kernels_snapshot()).expect("write --json snapshot");
            println!("wrote kernel throughput snapshot to {path}");
            return;
        }
    }
    benches();
}
