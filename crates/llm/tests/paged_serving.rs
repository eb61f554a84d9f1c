//! ISSUE-3 acceptance tests for the paged KV-cache subsystem and the continuous-batching
//! scheduler:
//!
//! * a 256-token batched decode over the paged-packed backend is **token-identical** to
//!   the f32 backend;
//! * under a 4-bit scheme the paged cache's measured `resident_bytes` is ≥ 4x smaller
//!   than the f32 baseline's for the same sequence set;
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

    let mut flat = ServingEngine::new(&model);
    let mut paged = ServingEngine::paged(&model, 64);
    for p in prompts {
        flat.submit_with(p, SubmitOptions::new(64));
        paged.submit_with(p, SubmitOptions::new(64));
    }
    let flat_report = flat.run();
    let paged_report = paged.run();

    // 4 sequences x 64 tokens: a 256-token batched decode.
    assert_eq!(paged_report.generated_tokens, 256);
    assert_eq!(flat_report.generated_tokens, 256);

    // Token-identical output across backends, sequence by sequence.
    for (a, b) in flat.sequences().iter().zip(paged.sequences()) {
        assert_eq!(a.generated, b.generated, "sequence {} diverges between f32 and paged backends", a.id);
        assert_eq!(a.generated.len(), 64);
    }

    // The f32 backend measures full f32 row allocations; the paged backend measures
    // packed pages. MXFP4 packs 64-element rows to 34 bytes vs 256 bytes of f32 (7.5x);
    // page slack at 16-position granularity still leaves well over the required 4x.
    assert!(flat_report.resident_bytes >= flat_report.theoretical_bytes_fp32);
    assert!(
        paged_report.resident_bytes * 4 <= flat_report.resident_bytes,
        "paged resident bytes must be >=4x below the f32 baseline: {} vs {}",
        paged_report.resident_bytes,
        flat_report.resident_bytes
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
    for s in 0..8usize {
        let prompt = [s + 1, s + 2, s + 3];
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
    for seq in engine.sequences() {
        assert!(seq.is_finished(), "sequence {} left unfinished", seq.id);
        // Interleaved, wave-admitted decoding still matches solo greedy generation.
        let solo = model.generate_greedy(&seq.prompt, 13);
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
