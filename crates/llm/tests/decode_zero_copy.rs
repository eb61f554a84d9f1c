//! Regression tests for the zero-copy decode path: the ISSUE-2 acceptance criterion is
//! that decoding a 512-token sequence performs zero full-cache `Matrix` clones — asserted
//! through the cache-read API's materialization counter, not through timing.

use mx_llm::model::argmax;
use mx_llm::{ModelConfig, ModelQuantConfig, TransformerModel};

#[test]
fn decoding_512_tokens_performs_zero_full_cache_clones() {
    let model = TransformerModel::new(ModelConfig::tiny_test(11), ModelQuantConfig::BASELINE);
    let (logits, mut cache) = model.prefill(&[1, 2, 3, 4]);
    let mut next = argmax(logits.row(logits.rows() - 1));
    for _ in 0..512 {
        next = argmax(&model.decode_step(next, &mut cache));
    }
    assert_eq!(cache.seq_len(), 4 + 512);
    assert_eq!(cache.materializations(), 0, "decode must never materialize the KV cache");
}
