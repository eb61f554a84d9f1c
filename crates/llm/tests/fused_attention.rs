//! Acceptance tests for the fused packed-row attention path: query·key dots and
//! probability×value accumulation computed directly from packed MX rows must be
//! **bit-identical** to the materialize-then-dot reference, at the reader level and
//! end-to-end through the serving engine at 1, 2 and 4 threads. End to end, the fast
//! block quantizer must also match the forced-scalar reference pipeline token for token.
//!
//! Every test here serializes on one mutex: the forced-scalar switch is process-global,
//! and the engagement assertions (`fused_rows > 0`) would race against a concurrently
//! forced-scalar test otherwise.

use std::sync::Mutex;

use mx_formats::kernels::force_scalar;
use mx_formats::layout::RowCodec;
use mx_formats::QuantScheme;
use mx_llm::kvcache::{AttnGeometry, KvBackend, KvLayerReader};
use mx_llm::{
    ModelConfig, ModelQuantConfig, PagePool, PagedKvCache, PagedScratch, ServingEngine, SubmitOptions, TransformerModel,
};

static FORCE_LOCK: Mutex<()> = Mutex::new(());

/// GQA-shaped tiny model (4 query heads over 2 KV heads) so the fused scatter's
/// head-group replication is exercised, not just the trivial `group == 1` layout.
fn gqa_model() -> TransformerModel {
    gqa_model_with(ModelQuantConfig::a_mxfp4_plus())
}

fn gqa_model_with(quant: ModelQuantConfig) -> TransformerModel {
    TransformerModel::new(ModelConfig { kv_heads: 2, ..ModelConfig::tiny_test(17) }, quant)
}

fn run_paged(model: &TransformerModel, threads: usize) -> Vec<Vec<usize>> {
    let mut engine = ServingEngine::paged(model, 64).with_threads(threads);
    for p in [&[1usize, 2, 3, 4][..], &[9, 8, 7], &[5, 5, 5, 5, 5], &[100, 90, 80]] {
        engine.submit_with(p, SubmitOptions::new(48));
    }
    let report = engine.run();
    assert_eq!(report.generated_tokens, 4 * 48);
    engine.sequences().iter().map(|s| s.generated.clone()).collect()
}

fn run_f32(model: &TransformerModel, threads: usize) -> Vec<Vec<usize>> {
    let mut engine = ServingEngine::new(model).with_threads(threads);
    for p in [&[1usize, 2, 3, 4][..], &[9, 8, 7], &[5, 5, 5, 5, 5], &[100, 90, 80]] {
        engine.submit_with(p, SubmitOptions::new(48));
    }
    engine.run();
    engine.sequences().iter().map(|s| s.generated.clone()).collect()
}

/// Fused paged attention is token-identical to the f32 zero-copy path at every
/// thread count, and invariant across thread counts.
#[test]
fn fused_paged_decode_matches_f32_at_1_2_and_4_threads() {
    let _guard = FORCE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let model = gqa_model();
    let baseline = run_f32(&model, 1);
    for threads in [1usize, 2, 4] {
        assert_eq!(run_f32(&model, threads), baseline, "f32 backend diverges at {threads} threads");
        assert_eq!(run_paged(&model, threads), baseline, "paged fused backend diverges at {threads} threads");
    }
}

/// Forcing the scalar kernels changes no token: it selects the reference block
/// quantizer for the weight cast (the reference model is built while forced), the
/// activation and attention operands and the KV pack, and disables the fused block
/// walk, routing attention through the materializing `key_row`/`value_row` reference.
/// Beyond A-MXFP4+, uniform MXFP8+ and MXINT8+ pin the quantizer's E4M3-saturation and
/// integer-rounding arms token for token.
#[test]
fn forced_scalar_and_fused_paged_decodes_are_token_identical() {
    let _guard = FORCE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    for quant in [
        ModelQuantConfig::a_mxfp4_plus(),
        ModelQuantConfig::uniform(QuantScheme::mxfp8_plus()),
        ModelQuantConfig::uniform(QuantScheme::mxint8_plus()),
    ] {
        let fused = run_paged(&gqa_model_with(quant), 1);
        force_scalar(true);
        let reference = run_paged(&gqa_model_with(quant), 1);
        force_scalar(false);
        assert_eq!(fused, reference, "{quant:?}: the fast path must be token-identical to the reference pipeline");
    }
}

fn sample_row(kv_dim: usize, salt: usize) -> Vec<f32> {
    (0..kv_dim)
        .map(|i| {
            let u = (((i + salt) * 2_654_435_761) % 2001) as f32 / 1000.0 - 1.0;
            if (i + salt) % 29 == 3 {
                u * 24.0
            } else {
                u
            }
        })
        .collect()
}

/// Reader-level pin: the fused methods engage on the paged backend, produce exactly the
/// same dots/accumulations as the materializing reference (same sequential fold order),
/// and never decode a full row into the scratch buffers.
#[test]
fn fused_reader_is_bit_identical_and_never_materializes() {
    let _guard = FORCE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let scheme = QuantScheme::mxfp6();
    let geom = AttnGeometry { heads: 4, head_dim: 8, group: 2 };
    let kv_dim = (geom.heads / geom.group) * geom.head_dim;
    let pool = PagePool::for_kv_rows(16, 4, RowCodec::for_scheme(scheme), kv_dim).shared();
    let mut cache = PagedKvCache::new(&pool, 1, kv_dim, scheme, 16).unwrap();
    let steps = 11;
    for t in 0..steps {
        KvBackend::append(&mut cache, 0, &sample_row(kv_dim, t), &sample_row(kv_dim, t + 500), scheme);
    }
    let q: Vec<f32> = sample_row(geom.heads * geom.head_dim, 9000);
    let probs: Vec<f32> = (0..geom.heads).map(|h| 0.03 + 0.11 * h as f32).collect();

    // Reference pass: materialize each row, then fold per head in ascending element
    // order — the exact operation sequence the fused path promises to reproduce.
    let mut ref_scratch = PagedScratch::default();
    let mut ref_dots = vec![vec![0.0f32; geom.heads]; steps];
    let mut ref_out = vec![0.0f32; geom.heads * geom.head_dim];
    {
        let mut reader = cache.layer_reader(0, &mut ref_scratch);
        for (t, dots_row) in ref_dots.iter_mut().enumerate() {
            let key = reader.key_row(t).to_vec();
            for h in 0..geom.heads {
                let kv = (h / geom.group) * geom.head_dim;
                let mut acc = 0.0f32;
                for d in 0..geom.head_dim {
                    acc += q[h * geom.head_dim + d] * key[kv + d];
                }
                dots_row[h] = acc;
            }
            let value = reader.value_row(t).to_vec();
            for h in 0..geom.heads {
                let p = probs[h];
                if p == 0.0 {
                    continue;
                }
                let kv = (h / geom.group) * geom.head_dim;
                for d in 0..geom.head_dim {
                    ref_out[h * geom.head_dim + d] += p * value[kv + d];
                }
            }
        }
    }
    assert_eq!(ref_scratch.scratch_rows(), 2 * steps);
    assert_eq!(ref_scratch.fused_rows(), 0);

    // Fused pass: same numbers, bit for bit, with zero scratch materializations.
    let mut scratch = PagedScratch::default();
    let mut out = vec![0.0f32; geom.heads * geom.head_dim];
    {
        let mut reader = cache.layer_reader(0, &mut scratch);
        let mut dots = vec![0.0f32; geom.heads];
        for (t, ref_row) in ref_dots.iter().enumerate() {
            assert!(reader.fused_key_dots(t, &q, geom, &mut dots), "fused key path must engage");
            let got: Vec<u32> = dots.iter().map(|v| v.to_bits()).collect();
            let want: Vec<u32> = ref_row.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "key dots diverge at position {t}");
            assert!(reader.fused_value_accumulate(t, &probs, geom, &mut out), "fused value path must engage");
        }
    }
    let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
    let want: Vec<u32> = ref_out.iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, want, "value accumulation diverges");
    assert_eq!(scratch.fused_rows(), 2 * steps);
    assert_eq!(scratch.scratch_rows(), 0, "fused path must never materialize a row into scratch");

    // Under forced-scalar kernels the fused walk declines, falling back to the
    // reference — one switch flips the whole pipeline to reference mode.
    force_scalar(true);
    let mut forced_scratch = PagedScratch::default();
    {
        let mut reader = cache.layer_reader(0, &mut forced_scratch);
        let mut dots = vec![0.0f32; geom.heads];
        assert!(!reader.fused_key_dots(0, &q, geom, &mut dots), "forced scalar must disable the fused path");
    }
    force_scalar(false);
    assert_eq!(forced_scratch.fused_rows(), 0);
}
