//! Acceptance tests for refcounted shared pages: prefix sharing and preemption in the
//! paged serving engine.
//!
//! * a shared-prefix batch decodes **bit-identically** to the same batch without
//!   sharing and to `generate_greedy` over the f32 `KvCache`, at 1 and 4 worker threads;
//! * resident bytes shrink as the shared-prefix sequence count grows (one copy of the
//!   prompt pages instead of N), measured through `ServingReport`;
//! * a prefix that ends mid-page shares its full pages while every holder prefills its
//!   own boundary page and keeps decoding — still token-identical;
//! * a high-priority arrival preempts a low-priority running sequence (spill → restore)
//!   and both resume bit-identically at 1 and 4 threads, with `FinishReason::Evicted`
//!   reserved for true capacity failure.

use mx_llm::{FinishReason, ModelConfig, ModelQuantConfig, ServingEngine, SubmitOptions, TransformerModel};

fn model() -> TransformerModel {
    // The paper's headline serving configuration: A-MXFP4+, W-MXFP4.
    TransformerModel::new(ModelConfig::tiny_test(31), ModelQuantConfig::a_mxfp4_plus())
}

/// A batch of prompts sharing a `common`-token prefix (spanning full pages plus a
/// partial boundary page under 16-position pages), each diverging afterwards.
fn shared_prefix_prompts(n: usize, common: usize) -> Vec<Vec<usize>> {
    let prefix: Vec<usize> = (0..common).map(|i| (i * 19 + 5) % 128).collect();
    (0..n)
        .map(|s| {
            let mut p = prefix.clone();
            p.push((100 + s * 3) % 128);
            p.push((7 + s) % 128);
            p
        })
        .collect()
}

/// The tentpole pin: sharing changes memory and prefill work — never a token. The same
/// shared-prefix batch runs with and without sharing at 1 and 4 threads; all four runs
/// must agree stream for stream with solo greedy generation over the f32 `KvCache`.
#[test]
fn shared_prefix_batch_is_token_identical_across_backends_and_threads() {
    let model = model();
    // 35 common tokens = 2 full 16-position pages, which are shared, + a 3-position
    // boundary, which every sequence prefills.
    let prompts = shared_prefix_prompts(4, 35);
    let new_tokens = 16;

    let paged = |share: bool, threads: usize| {
        let mut engine = ServingEngine::paged(&model, 96).with_threads(threads);
        for p in &prompts {
            let opts = SubmitOptions::new(new_tokens);
            engine.submit_with(p, if share { opts } else { opts.without_prefix_sharing() });
        }
        let report = engine.run();
        let pool = engine.pool().unwrap();
        assert_eq!(pool.in_use_pages(), 0, "pages leaked (share={share}, threads={threads})");
        assert_eq!(pool.reserved_pages(), 0, "reservations leaked (share={share}, threads={threads})");
        let streams: Vec<Vec<usize>> = engine.sequences().iter().map(|s| s.generated.clone()).collect();
        (report, streams)
    };
    let reference: Vec<Vec<usize>> = prompts.iter().map(|p| model.generate_greedy(p, new_tokens)).collect();

    let (shared_1, streams_shared_1) = paged(true, 1);
    let (_, streams_shared_4) = paged(true, 4);
    let (plain_1, streams_plain_1) = paged(false, 1);
    let (_, streams_plain_4) = paged(false, 4);

    assert_eq!(streams_shared_1, reference, "shared batch diverges from solo generation (1 thread)");
    assert_eq!(streams_shared_4, reference, "shared batch diverges from solo generation (4 threads)");
    assert_eq!(streams_plain_1, reference, "unshared batch diverges from solo generation (1 thread)");
    assert_eq!(streams_plain_4, reference, "unshared batch diverges from solo generation (4 threads)");

    // The sharing actually happened and was measured: 3 recipients each mapped
    // 2 layers x 2 whole pages and skipped 32 prefill positions.
    assert_eq!(shared_1.shared_pages, 3 * 2 * 2);
    assert_eq!(shared_1.prefill_tokens_saved, 3 * 32);
    assert_eq!(plain_1.shared_pages, 0);
    assert!(shared_1.resident_bytes < plain_1.resident_bytes, "sharing must shrink peak residency");
}

/// The memory half of the tentpole: for N sequences sharing a long prompt, the unshared
/// peak residency grows ~linearly in N while the shared one keeps a single copy of the
/// prefix pages — the gap must widen monotonically with N.
#[test]
fn resident_bytes_shrink_as_shared_sequence_count_grows() {
    let model = model();
    // Chunked prefill staggers the 66-token prompts about a pass apart, so each sequence
    // decodes long enough for all N unshared ones to be resident at once.
    let new_tokens = 8;
    let mut savings = Vec::new();
    for n in [2usize, 4, 8] {
        let prompts = shared_prefix_prompts(n, 64); // 4 full pages of shared prompt
        let run = |share: bool| {
            let mut engine = ServingEngine::paged(&model, 160).with_threads(1);
            for p in &prompts {
                let opts = SubmitOptions::new(new_tokens);
                engine.submit_with(p, if share { opts } else { opts.without_prefix_sharing() });
            }
            engine.run()
        };
        let shared = run(true);
        let plain = run(false);
        assert_eq!(shared.generated_tokens, plain.generated_tokens);
        assert!(shared.shared_pages > 0, "bench invariant: shared_pages must be reported > 0");
        assert!(
            shared.resident_bytes < plain.resident_bytes,
            "sharing must shrink residency at n={n}: {} vs {}",
            shared.resident_bytes,
            plain.resident_bytes
        );
        savings.push(plain.resident_bytes - shared.resident_bytes);
    }
    assert!(savings.windows(2).all(|w| w[0] < w[1]), "savings must grow with the sequence count: {savings:?}");
}

/// A prefix ending mid-page under decode pressure: every holder maps the shared full page
/// and writes its own copy of the boundary page while all of them keep decoding, at 1
/// and 4 threads. Every stream must still match solo generation (no holder ever
/// observes another's write). Before sharing became whole-page, the boundary page was
/// shared too and copied on write.
#[test]
fn copy_on_write_boundary_stays_token_identical_under_parallel_decode() {
    let model = model();
    // 21 common tokens: 1 full page shared by all + a 5-position boundary page each.
    let prompts = shared_prefix_prompts(6, 21);
    let run = |threads: usize| {
        let mut engine = ServingEngine::paged(&model, 96).with_threads(threads);
        for p in &prompts {
            engine.submit_with(p, SubmitOptions::new(24));
        }
        let report = engine.run();
        assert!(report.prefill_tokens_saved > 0, "prefix sharing must engage at {threads} threads");
        let pool = engine.pool().unwrap();
        assert_eq!(pool.in_use_pages(), 0);
        engine.sequences().iter().map(|s| s.generated.clone()).collect::<Vec<_>>()
    };
    let sequential = run(1);
    let parallel = run(4);
    assert_eq!(sequential, parallel, "mid-page prefix workload diverges between 1 and 4 threads");
    for (stream, p) in sequential.iter().zip(&prompts) {
        assert_eq!(stream, &model.generate_greedy(p, 24), "a shared page corrupted a stream");
    }
}

/// Preemption end to end: a high-priority request arrives (deterministically, via
/// `arrival_pass`) while low-priority sequences hold the whole pool. The scheduler must
/// spill victims, run the urgent request, restore the victims bit-identically — and
/// never label any of it `Evicted`. Pinned at 1 and 4 threads.
#[test]
fn preemption_swaps_out_and_restores_identically_at_1_and_4_threads() {
    let model = model();
    let run = |threads: usize| {
        // 8-page pool: two low-priority sequences fill it (2 layers x 2 pages each);
        // the urgent arrival needs 6 pages, forcing at least one spill.
        let mut engine = ServingEngine::paged(&model, 8).with_threads(threads);
        engine.submit_with(&[3, 1, 4], SubmitOptions::new(24));
        engine.submit_with(&[2, 7, 2], SubmitOptions::new(24));
        engine.submit_with(&[9, 9], SubmitOptions::new(40).priority(1).arrival_pass(4));
        let report = engine.run();
        assert!(report.preemptions >= 1, "pool pressure must preempt, not stall, at {threads} threads");
        assert_eq!(report.evicted, 0, "preemption must never be reported as eviction");
        assert_eq!(report.finished_length, 3);
        let pool = engine.pool().unwrap();
        assert_eq!(pool.in_use_pages(), 0, "pages leaked at {threads} threads");
        assert_eq!(pool.reserved_pages(), 0);
        let outcomes: Vec<(Vec<usize>, Option<FinishReason>)> =
            engine.sequences().iter().map(|s| (s.generated.clone(), s.finish_reason())).collect();
        (report.preemptions, outcomes)
    };
    let (preemptions_1, outcomes_1) = run(1);
    let (preemptions_4, outcomes_4) = run(4);
    assert_eq!(outcomes_1, outcomes_4, "preemption workload diverges between 1 and 4 threads");
    assert_eq!(preemptions_1, preemptions_4, "preemption decisions diverge between thread counts");
    // Every stream — including the preempted-and-restored ones — matches solo greedy.
    assert_eq!(outcomes_1[0].0, model.generate_greedy(&[3, 1, 4], 24));
    assert_eq!(outcomes_1[1].0, model.generate_greedy(&[2, 7, 2], 24));
    assert_eq!(outcomes_1[2].0, model.generate_greedy(&[9, 9], 40));
}

/// Eviction semantics are untouched: only a request larger than the entire pool is
/// evicted, even when preemption-eligible victims are running.
#[test]
fn eviction_is_reserved_for_true_capacity_failure() {
    let model = model();
    let mut engine = ServingEngine::paged(&model, 6).with_threads(1);
    engine.submit_with(&[1, 2], SubmitOptions::new(12));
    // Higher priority than the running sequence, but needs 2 * ceil(202/16) = 26 pages:
    // preempting everything still could not fit it, so it must be evicted — and the
    // running victim must NOT be spilled for a hopeless request.
    engine.submit_with(&[3, 4], SubmitOptions::new(200).priority(5).arrival_pass(2));
    let report = engine.run();
    assert_eq!(report.evicted, 1);
    assert_eq!(report.preemptions, 0, "no victim may be spilled for an unadmittable request");
    assert_eq!(report.finished_length, 1);
    assert_eq!(engine.sequences()[1].finish_reason(), Some(FinishReason::Evicted));
    assert_eq!(engine.sequences()[0].generated, model.generate_greedy(&[1, 2], 12));
}

/// Sharing composes with continuous batching: recipients can arrive in later admission
/// waves (after the first holder already decoded past its prompt) and still map its
/// prompt pages — published pages stay mappable for the holder's whole residency, not
/// just right after prefill.
#[test]
fn late_arrivals_share_a_long_resident_donor() {
    let model = model();
    let prompts = shared_prefix_prompts(3, 32);
    let mut engine = ServingEngine::paged(&model, 64).with_threads(2);
    engine.submit_with(&prompts[0], SubmitOptions::new(32));
    engine.submit_with(&prompts[1], SubmitOptions::new(8).arrival_pass(6));
    engine.submit_with(&prompts[2], SubmitOptions::new(8).arrival_pass(12));
    let report = engine.run();
    // Both late arrivals shared the 2 full prompt pages per layer.
    assert!(report.prefill_tokens_saved >= 2 * 32, "late arrivals must share the resident prompt");
    assert_eq!(report.shared_pages % 2, 0);
    for (seq, p) in engine.sequences().iter().zip(&prompts) {
        assert_eq!(seq.generated, model.generate_greedy(p, seq.max_new_tokens), "sequence {}", seq.id);
    }
    let pool = engine.pool().unwrap();
    assert_eq!(pool.in_use_pages(), 0);
}
