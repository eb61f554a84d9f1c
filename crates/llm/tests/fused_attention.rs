//! Acceptance tests for the page-tiled attention over the packed KV cache: the tiled
//! folds (`key_dots` / `value_accumulate`) of both backends must equal the per-position
//! folds over row reads **bit for bit**, and the serving engine must stay token-identical
//! to `generate_greedy` over the f32 `KvCache` end to end at 1, 2 and 4 threads, and a
//! prefill must decode each cached row once per block of query rows.
//!
//! The tests run on the process's kernel plan; CI runs them on the detected plan (the
//! fused page kernels) and under `MX_FORCE_SCALAR_KERNELS=1` (the paged reader's
//! row-by-row decode and the reference quantizer).

use mx_formats::layout::RowCodec;
use mx_formats::QuantScheme;
use mx_llm::kvcache::{AttnGeometry, KvBackend, KvLayerReader, TILE_POSITIONS};
use mx_llm::{
    LayerKvCache, ModelConfig, ModelQuantConfig, PagePool, PagedKvCache, PagedScratch, ServingEngine, SubmitOptions,
    TransformerModel,
};

/// GQA-shaped tiny model (4 query heads over 2 KV heads) so the tiled fold's
/// head-group mapping is exercised, not just the trivial `group == 1` layout.
fn gqa_model() -> TransformerModel {
    gqa_model_with(ModelQuantConfig::a_mxfp4_plus())
}

fn gqa_model_with(quant: ModelQuantConfig) -> TransformerModel {
    TransformerModel::new(ModelConfig { kv_heads: 2, ..ModelConfig::tiny_test(17) }, quant)
}

const PROMPTS: [&[usize]; 4] = [&[1, 2, 3, 4], &[9, 8, 7], &[5, 5, 5, 5, 5], &[100, 90, 80]];

fn run_paged(model: &TransformerModel, threads: usize) -> Vec<Vec<usize>> {
    let mut engine = ServingEngine::paged(model, 64).with_threads(threads);
    for p in PROMPTS {
        engine.submit_with(p, SubmitOptions::new(48));
    }
    let report = engine.run();
    assert_eq!(report.generated_tokens, 4 * 48);
    engine.sequences().iter().map(|s| s.generated.clone()).collect()
}

/// Tiled attention over packed pages is token-identical to the same walk over the f32
/// `KvCache` (`generate_greedy`) at every thread count. Beyond A-MXFP4+, uniform MXFP8+
/// and MXINT8+ carry the quantizer's E4M3-saturation and integer-rounding arms.
#[test]
fn fused_paged_decode_matches_f32_at_1_2_and_4_threads() {
    for quant in [
        ModelQuantConfig::a_mxfp4_plus(),
        ModelQuantConfig::uniform(QuantScheme::mxfp8_plus()),
        ModelQuantConfig::uniform(QuantScheme::mxint8_plus()),
    ] {
        let model = gqa_model_with(quant);
        let reference: Vec<Vec<usize>> = PROMPTS.iter().map(|p| model.generate_greedy(p, 48)).collect();
        for threads in [1usize, 2, 4] {
            assert_eq!(run_paged(&model, threads), reference, "{quant:?}: paged decode diverges at {threads} threads");
        }
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

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Scores (`heads × steps`) and outputs (`heads × head_dim`) of one query row over
/// `steps` cached positions, folded a tile at a time through `reader`'s `key_dots` and
/// `value_accumulate`; `probs` holds each head's probabilities over the positions.
fn tiled_folds(
    reader: &mut impl KvLayerReader,
    geom: AttnGeometry,
    steps: usize,
    q: &[f32],
    probs: &[f32],
) -> (Vec<f32>, Vec<f32>) {
    let AttnGeometry { heads, head_dim, group } = geom;
    let mut scores = vec![0.0f32; heads * steps];
    let mut out = vec![0.0f32; heads * head_dim];
    let mut tile = vec![f32::NAN; heads / group * head_dim * TILE_POSITIONS];
    let mut lanes = vec![f32::NAN; heads * TILE_POSITIONS];
    for t0 in (0..steps).step_by(TILE_POSITIONS) {
        let n = TILE_POSITIONS.min(steps - t0);
        reader.key_dots(t0, n, q, geom, &mut tile, &mut lanes);
        for h in 0..heads {
            scores[h * steps + t0..h * steps + t0 + n].copy_from_slice(&lanes[h * TILE_POSITIONS..][..n]);
            for (j, p) in lanes[h * TILE_POSITIONS..][..TILE_POSITIONS].iter_mut().enumerate() {
                *p = if j < n { probs[h * steps + t0 + j] } else { 0.0 };
            }
        }
        reader.value_accumulate(t0, n, &lanes, geom, &mut tile, &mut out);
    }
    (scores, out)
}

/// Reader-level pin of the tiled walk, on a GQA layout (4 query heads over 2 KV heads)
/// with pages of 16 and of 5 positions (tiles then straddle pages), under MX, MX+, 6-bit,
/// BF16 and `Dequantized` (FP32) rows: scores folded tile by tile with `key_dots`, and
/// outputs accumulated with `value_accumulate`, equal the per-position folds over row
/// reads, bit for bit, on the paged backend (fused page kernels or its row-by-row
/// decode) and the f32 backend (the provided bodies).
#[test]
fn tiled_reader_is_bit_identical_to_row_reads() {
    let (heads, group, head_dim) = (4usize, 2usize, 8usize);
    let geom = AttnGeometry { heads, head_dim, group };
    let kv_dim = (heads / group) * head_dim;
    let steps = 37;
    for scheme in
        [QuantScheme::mxfp4(), QuantScheme::mxfp4_plus(), QuantScheme::mxfp6(), QuantScheme::Bf16, QuantScheme::Fp32]
    {
        for page_positions in [16usize, 5] {
            let pool = PagePool::for_kv_rows(64, page_positions, RowCodec::for_scheme(scheme), kv_dim).shared();
            let mut paged = PagedKvCache::new(&pool, 1, kv_dim, scheme, steps).unwrap();
            let mut flat = LayerKvCache::new(kv_dim);
            for t in 0..steps {
                let (k, v) = (sample_row(kv_dim, t), sample_row(kv_dim, t + 500));
                KvBackend::append(&mut paged, 0, &k, &v, scheme);
                flat.append(&k, &v, scheme);
            }
            let q = sample_row(heads * head_dim, 9000);
            // Some exact-zero probabilities exercise the skip.
            let probs: Vec<f32> =
                (0..heads * steps).map(|i| if i % 7 == 3 { 0.0 } else { 0.01 + (i % 11) as f32 * 0.013 }).collect();
            let case = format!("{scheme} pages of {page_positions}");
            // The per-position reference: row reads, then sequential folds.
            let mut ref_scores = vec![0.0f32; heads * steps];
            let mut ref_out = vec![0.0f32; heads * head_dim];
            let mut ref_scratch = PagedScratch::default();
            let mut reader = paged.layer_reader(0, &mut ref_scratch);
            for t in 0..steps {
                let key = reader.key_row(t).to_vec();
                assert_eq!(bits(&key), bits(flat.key_row(t)), "{case}: key row {t}");
                for h in 0..heads {
                    let kv = (h / group) * head_dim;
                    let mut acc = 0.0f32;
                    for d in 0..head_dim {
                        acc += q[h * head_dim + d] * key[kv + d];
                    }
                    ref_scores[h * steps + t] = acc;
                }
                let value = reader.value_row(t).to_vec();
                assert_eq!(bits(&value), bits(flat.value_row(t)), "{case}: value row {t}");
                for h in 0..heads {
                    let p = probs[h * steps + t];
                    if p == 0.0 {
                        continue;
                    }
                    let kv = (h / group) * head_dim;
                    for d in 0..head_dim {
                        ref_out[h * head_dim + d] += p * value[kv + d];
                    }
                }
            }
            assert_eq!(ref_scratch.scratch_rows(), 2 * steps, "{case}");
            assert_eq!(ref_scratch.tile_rows(), 0, "{case}");

            // The tiled walk, over both backends' readers.
            let mut scratch = PagedScratch::default();
            let (scores, out) = tiled_folds(&mut paged.layer_reader(0, &mut scratch), geom, steps, &q, &probs);
            let (flat_scores, flat_out) = tiled_folds(&mut &flat, geom, steps, &q, &probs);
            assert_eq!(bits(&scores), bits(&ref_scores), "{case}: paged tiled scores diverge");
            assert_eq!(bits(&out), bits(&ref_out), "{case}: paged tiled outputs diverge");
            assert_eq!(bits(&flat_scores), bits(&ref_scores), "{case}: f32 tiled scores diverge");
            assert_eq!(bits(&flat_out), bits(&ref_out), "{case}: f32 tiled outputs diverge");
            assert_eq!(scratch.tile_rows(), 2 * steps, "{case}");
            assert_eq!(scratch.scratch_rows(), 0, "{case}: tile reads must not decode single rows");
        }
    }
}

/// A 256-token prefill on the paged backend walks its query rows in blocks of 16 and
/// reads each block's visible positions once, keys and values: block `b` reads
/// `16 (b + 1)` rows of each, so a layer decodes `2 × 16 × (1 + … + 16) = 4,352` rows —
/// against `2 × (1 + … + 256) = 65,792` for a walk that reads every visible row once per
/// query row.
#[test]
fn prefill_decodes_each_cached_row_once_per_row_block() {
    let model = gqa_model();
    let cfg = model.config().clone();
    let kv_dim = cfg.head_dim() * cfg.kv_heads;
    let scheme = model.quant().kv_cache;
    let prompt: Vec<usize> = (0..256).map(|i| (i * 7 + 3) % cfg.vocab).collect();
    let pool = PagePool::for_kv_rows(cfg.layers * 16, 16, RowCodec::for_scheme(scheme), kv_dim).shared();
    let mut cache = PagedKvCache::new(&pool, cfg.layers, kv_dim, scheme, prompt.len()).unwrap();
    let mut scratch = PagedScratch::default();
    let _ = model.forward_backend_with_scratch(&prompt, &mut cache, &mut scratch);
    assert_eq!(scratch.tile_rows(), cfg.layers * 2 * 16 * 136);
    assert_eq!(scratch.tile_rows(), cfg.layers * 4_352);
    assert_eq!(scratch.scratch_rows(), 0);
}
