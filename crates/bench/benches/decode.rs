//! Benchmark of the decode hot path under the paper's headline serving configuration
//! (A-MXFP4+, W-MXFP4): per-token decode against caches of 64-512 positions, a
//! 4-sequence batched serving run, and the f32-backend thread-scaling sweep.
//!
//! Decode reads cached keys/values through borrowed row slices, reuses scratch buffers,
//! and multiplies against weights direct-cast once; a full-cache copy per step would show
//! up here as tokens/s falling faster than the cache grows.

use mx_bench::harness::{model_config, Harness};
use mx_llm::model::argmax;
use mx_llm::{KvCache, ModelConfig, ModelQuantConfig, ServingEngine, SubmitOptions, TransformerModel};

/// Tokens decoded per timed call (amortizes the per-call cache clone).
const DECODE_TOKENS: usize = 16;

/// Prefill one token, then extend the cache to `seq_len` positions through cheap decode.
fn cache_at(model: &TransformerModel, seq_len: usize) -> KvCache {
    let mut cache = KvCache::with_capacity(
        model.config().layers,
        model.config().head_dim() * model.config().kv_heads,
        seq_len + DECODE_TOKENS + 1,
    );
    let logits = model.forward(&[1], &mut cache);
    let mut next = argmax(logits.row(0));
    while cache.seq_len() < seq_len {
        next = argmax(&model.decode_step(next, &mut cache));
    }
    cache
}

fn main() {
    let mut h = Harness::from_args("decode");
    let model = TransformerModel::new(ModelConfig::tiny_test(17), ModelQuantConfig::a_mxfp4_plus());
    let config = model_config(&model);

    for seq_len in [64usize, 256, 512] {
        let base = cache_at(&model, seq_len);
        h.time(&format!("decode_ctx{seq_len}"), "tokens", DECODE_TOKENS as f64, &config, || {
            let mut cache = base.clone();
            // Vec::clone keeps capacity == len; restore decode headroom so the timed
            // loop never pays a growth reallocation.
            cache.reserve(DECODE_TOKENS + 1);
            let mut next = 2usize;
            for _ in 0..DECODE_TOKENS {
                next = argmax(&model.decode_step(next, &mut cache));
            }
            next
        });
    }

    h.serve("serving_batch4", &config, || {
        let mut engine = ServingEngine::new(&model);
        for s in 0..4usize {
            let prompt: Vec<usize> = (0..8).map(|i| (s * 8 + i) % 128).collect();
            engine.submit_with(&prompt, SubmitOptions::new(32));
        }
        let report = engine.run();
        assert_eq!(report.generated_tokens, 4 * 32);
        report
    });

    // Thread-scaling sweep of the f32-contiguous engine (the paged twin lives in the
    // `kv_paging` bench): 16 resident sequences decoding in lock-step across 1/2/4/8
    // decode worker threads. The generated streams are bit-identical at every thread
    // count (pinned by the `mx-llm` tests).
    const RESIDENT: usize = 16;
    const NEW_TOKENS: usize = 24;
    for threads in [1usize, 2, 4, 8] {
        h.serve(&format!("f32_seqs{RESIDENT}_t{threads}"), &config, || {
            let mut engine = ServingEngine::new(&model).with_threads(threads);
            for s in 0..RESIDENT {
                let prompt: Vec<usize> = (0..8).map(|i| (s * 11 + i * 3) % 128).collect();
                engine.submit_with(&prompt, SubmitOptions::new(NEW_TOKENS));
            }
            let report = engine.run();
            assert_eq!(report.generated_tokens, RESIDENT * NEW_TOKENS);
            report
        });
    }
    h.finish();
}
