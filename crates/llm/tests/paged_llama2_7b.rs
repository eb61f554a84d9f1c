//! The serving benchmark's shape end to end: the `llama2_7b` toy (8 heads of 32, KV rows
//! of 256) on the paged backend, four sequences stepped through one batched forward per
//! pass, must produce logits equal to the `f32` backend's bit for bit at every position
//! up to 300. Run under A-MXFP4+ (MXFP4 pages), uniform MXFP4+ (pages with BM slots) and
//! uniform MXINT4 (the INT4 table), so the fused page kernels see every 4-bit codec the
//! engine serves. The prompts of 1, 7, 32 and 45 tokens start the sequences at different
//! offsets, so page tails and query row-block edges move through the run.
//!
//! A debug build runs every kernel unoptimized, a forward about 60 times slower than in
//! release, so there the run stops at 96 positions (six pages); the release test step
//! runs all 300.

use mx_formats::{QuantScheme, RowCodec};
use mx_llm::kvcache::KvBackend;
use mx_llm::model::argmax;
use mx_llm::{KvCache, ModelConfig, ModelQuantConfig, PagePool, PagedKvCache, PagedScratch, TransformerModel};

/// Positions the longest sequence reaches.
const POSITIONS: usize = if cfg!(debug_assertions) { 96 } else { 300 };

const PROMPT_LENS: [usize; 4] = [1, 7, 32, 45];

/// One batched forward over every sequence's new tokens: the logits of every row, in
/// sequence order.
fn step<B: KvBackend>(
    model: &TransformerModel,
    tokens: &[Vec<usize>],
    caches: &mut [B],
    scratch: &mut B::Scratch,
) -> mx_tensor::Matrix {
    let mut segments: Vec<(&[usize], &mut B)> = tokens.iter().map(Vec::as_slice).zip(caches.iter_mut()).collect();
    model.forward_batch_with_scratch(&mut segments, scratch)
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn check(name: &str, quant: ModelQuantConfig) {
    let model = TransformerModel::new(ModelConfig::llama2_7b(), quant);
    let cfg = model.config().clone();
    let kv_dim = cfg.head_dim() * cfg.kv_heads;
    let scheme = quant.kv_cache;
    let pages = PROMPT_LENS.len() * cfg.layers * POSITIONS.div_ceil(16);
    let pool = PagePool::for_kv_rows(pages, 16, RowCodec::for_scheme(scheme), kv_dim).shared();
    let mut paged: Vec<PagedKvCache> = PROMPT_LENS
        .iter()
        .map(|_| PagedKvCache::new(&pool, cfg.layers, kv_dim, scheme, POSITIONS).expect("pool holds every sequence"))
        .collect();
    let mut flat: Vec<KvCache> = PROMPT_LENS.iter().map(|_| model.new_cache()).collect();
    let mut scratch = PagedScratch::default();
    let mut tokens: Vec<Vec<usize>> = PROMPT_LENS
        .iter()
        .enumerate()
        .map(|(s, &n)| (0..n).map(|i| (i * 29 + 11 * s + 3) % cfg.vocab).collect())
        .collect();
    while flat.iter().map(KvCache::seq_len).max().unwrap_or(0) < POSITIONS {
        let lp = step(&model, &tokens, &mut paged, &mut scratch);
        let lf = step(&model, &tokens, &mut flat, &mut ());
        let pos = flat[PROMPT_LENS.len() - 1].seq_len();
        assert_eq!(bits(lp.data()), bits(lf.data()), "{name}: paged logits diverge from f32 at position {pos}");
        let mut last = 0;
        for t in &mut tokens {
            last += t.len();
            *t = vec![argmax(lp.row(last - 1))];
        }
    }
    assert_eq!(paged.iter().map(KvBackend::seq_len).max(), Some(POSITIONS), "{name}");
}

#[test]
fn paged_logits_equal_f32_logits_under_a_mxfp4_plus() {
    check("A-MXFP4+", ModelQuantConfig::a_mxfp4_plus());
}

#[test]
fn paged_logits_equal_f32_logits_under_mxfp4_plus() {
    check("MXFP4+", ModelQuantConfig::uniform(QuantScheme::mxfp4_plus()));
}

#[test]
fn paged_logits_equal_f32_logits_under_mxint4() {
    check("MXINT4", ModelQuantConfig::uniform(QuantScheme::mxint4()));
}
