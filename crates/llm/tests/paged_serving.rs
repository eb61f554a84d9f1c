//! ISSUE-3 acceptance tests for the paged KV-cache subsystem and the continuous-batching
//! scheduler:
//!
//! * a 256-token batched decode over packed pages is **token-identical** to
//!   `TransformerModel::generate_greedy`, which decodes over the f32 `KvCache`;
//! * under a 4-bit scheme the measured `resident_bytes` is ≥ 4x smaller than the
//!   positions it held, held in f32 (`resident_bytes_fp32`);
//! * an over-subscribed run admits late sequences as earlier ones finish, accounts for
//!   every sequence in the final report, and returns every page to the pool.

use mx_formats::QuantScheme;
use mx_llm::{FinishReason, ModelConfig, ModelQuantConfig, ServingEngine, SubmitOptions, TransformerModel};

fn model() -> TransformerModel {
    // The paper's headline serving configuration: A-MXFP4+, W-MXFP4 (the KV cache is a
    // weight-side operand, so it stores 4-bit MXFP4 blocks).
    TransformerModel::new(ModelConfig::tiny_test(23), ModelQuantConfig::a_mxfp4_plus())
}

#[test]
fn paged_256_token_batched_decode_is_token_identical_and_4x_smaller() {
    let model = model();
    assert_eq!(model.quant().kv_cache, QuantScheme::mxfp4());
    let prompts: [&[usize]; 4] = [&[1, 2, 3, 4], &[9, 8, 7], &[5, 5, 5, 5, 5], &[100, 90, 80]];

    let mut paged = ServingEngine::paged(&model, 64);
    for p in prompts {
        paged.submit_with(p, SubmitOptions::new(64));
    }
    let paged_report = paged.run();

    // 4 sequences x 64 tokens: a 256-token batched decode.
    assert_eq!(paged_report.generated_tokens, 256);

    // Token-identical to the f32-cache reference, sequence by sequence.
    for (seq, p) in paged.sequences().iter().zip(prompts) {
        assert_eq!(seq.generated, model.generate_greedy(p, 64), "sequence {} diverges from the reference", seq.id);
        assert_eq!(seq.generated.len(), 64);
    }

    // The pool measures packed pages. MXFP4 packs 64-element rows to 34 bytes vs 256
    // bytes of f32 (7.5x); page slack at 16-position granularity still leaves well over
    // the required 4x.
    assert!(
        paged_report.resident_compression() >= 4.0,
        "paged resident bytes must be >=4x below f32: {} vs {}",
        paged_report.resident_bytes,
        paged_report.resident_bytes_fp32
    );
    // And the measured number sits close to (never below) the theoretical scheme bytes.
    assert!(paged_report.resident_bytes >= paged_report.theoretical_bytes);
    assert!(paged_report.resident_bytes <= paged_report.theoretical_bytes * 3 / 2);
}

#[test]
fn oversubscribed_continuous_batching_accounts_for_every_sequence() {
    let model = model();
    // Every sequence needs 2 layers x ceil((3 + 13)/16) = 2 pages. A 6-page pool admits
    // at most 3 concurrently; 8 submissions (worst case 16 pages) must therefore be
    // admitted in waves as earlier sequences retire and return their pages.
    let mut engine = ServingEngine::paged(&model, 6);
    let mut stop = None;
    let prompts: Vec<[usize; 3]> = (0..8usize).map(|s| [s + 1, s + 2, s + 3]).collect();
    for (s, &prompt) in prompts.iter().enumerate() {
        if s == 5 {
            // Give one sequence a stop token it will actually produce, taken from its own
            // free-running generation, to mix finish reasons into the same run.
            stop = Some(model.generate_greedy(&prompt, 13)[6]);
            engine.submit_with(&prompt, SubmitOptions::new(13).stop_token(stop));
        } else {
            engine.submit_with(&prompt, SubmitOptions::new(13));
        }
    }
    let report = engine.run();

    // Every sequence is accounted for: finished (by length or stop) or evicted.
    assert_eq!(report.sequences, 8);
    assert_eq!(report.finished_length + report.finished_stop + report.evicted, 8);
    assert_eq!(report.finished_stop, 1);
    assert_eq!(report.evicted, 0);
    for (seq, prompt) in engine.sequences().iter().zip(&prompts) {
        assert!(seq.is_finished(), "sequence {} left unfinished", seq.id);
        // Interleaved, wave-admitted decoding still matches solo greedy generation on the
        // submitted prompt (a retired sequence no longer holds it).
        let solo = model.generate_greedy(prompt, 13);
        if seq.finish_reason() == Some(FinishReason::Stop) {
            let n = seq.generated.len();
            assert!(n < 13, "stop must cut generation short");
            assert_eq!(seq.generated, solo[..n]);
            assert!(!seq.generated.contains(&stop.unwrap()));
        } else {
            assert_eq!(seq.generated, solo, "sequence {}", seq.id);
        }
    }

    // Pages fully returned to the pool...
    let pool = engine.pool().unwrap();
    assert_eq!(pool.in_use_pages(), 0);
    assert_eq!(pool.reserved_pages(), 0);
    assert_eq!(pool.free_pages(), pool.total_pages());
    // ...and peak occupancy never exceeded the budget, proving the 8 sequences were
    // genuinely staggered rather than admitted at once.
    assert!(report.resident_bytes <= pool.total_pages() * pool.page_bytes());
    assert!(report.resident_bytes > 0);
}
