//! ISSUE-4 acceptance tests for the thread-parallel continuous-batching decode loop:
//!
//! * parallel decode is **token-identical** to sequential, pinned at ≥ 256 decoded
//!   tokens on both the f32-contiguous and the paged-packed backends;
//! * an oversubscribed stress workload (staggered admission, stop tokens, an evicted
//!   giant, mixed sampling) produces identical per-sequence token streams, finish
//!   reasons and final pool occupancy at 1 and 4 threads — no leaked or double-freed
//!   pages under contention;
//! * the serving stack is audited `Send + Sync` at compile time, so no
//!   `Rc<RefCell<..>>`-style sharing can creep back into the public API.

use mx_llm::{
    Category, DrainReport, Event, EventKind, FaultKind, FaultPlan, FinishReason, Histogram, KvCache, LatencySummary,
    LayerKvCache, ModelConfig, ModelQuantConfig, MonotonicClock, PagePool, PagedKvCache, PagedLayerReader,
    PagedScratch, PagingError, QuantileSummary, RecoveryPolicy, Sampling, Sequence, ServingEngine, ServingReport,
    SharedPrefix, SpilledKv, SubmitOptions, Telemetry, TelemetryConfig, TestClock, Trace, TransformerModel,
};

fn model() -> TransformerModel {
    // The paper's headline serving configuration: A-MXFP4+, W-MXFP4.
    TransformerModel::new(ModelConfig::tiny_test(29), ModelQuantConfig::a_mxfp4_plus())
}

/// Compile-time audit: the whole serving stack must be shareable across threads.
#[test]
fn serving_stack_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TransformerModel>();
    assert_send_sync::<PagePool>();
    assert_send_sync::<PagedKvCache>();
    assert_send_sync::<PagedScratch>();
    assert_send_sync::<KvCache>();
    assert_send_sync::<LayerKvCache>();
    assert_send_sync::<Sequence>();
    assert_send_sync::<ServingEngine<'_>>();
    assert_send_sync::<ServingReport>();
    assert_send_sync::<Sampling>();
    assert_send_sync::<SubmitOptions>();
    assert_send_sync::<SpilledKv>();
    assert_send_sync::<PagingError>();
    assert_send_sync::<SharedPrefix>();
    assert_send_sync::<PagedLayerReader<'static>>();
    assert_send_sync::<FinishReason>();
    // Fault-tolerance surface (ISSUE-9): plans are built on one thread and installed on
    // an engine that fans out across workers; reports cross the drain/shutdown boundary.
    assert_send_sync::<FaultPlan>();
    assert_send_sync::<FaultKind>();
    assert_send_sync::<RecoveryPolicy>();
    assert_send_sync::<DrainReport>();
    // Telemetry types reachable from the serving API (ISSUE-8): the hub is shared by
    // every worker thread, and reports embed the summary types.
    assert_send_sync::<Telemetry>();
    assert_send_sync::<TelemetryConfig>();
    assert_send_sync::<Trace>();
    assert_send_sync::<Event>();
    assert_send_sync::<EventKind>();
    assert_send_sync::<Category>();
    assert_send_sync::<Histogram>();
    assert_send_sync::<LatencySummary>();
    assert_send_sync::<QuantileSummary>();
    assert_send_sync::<MonotonicClock>();
    assert_send_sync::<TestClock>();
}

/// 4 sequences × 64 tokens = 256 decoded tokens on the f32 backend: 4-thread output must
/// equal 1-thread output must equal solo greedy generation.
#[test]
fn f32_parallel_decode_is_token_identical_at_256_tokens() {
    let model = model();
    let prompts: [&[usize]; 4] = [&[1, 2, 3, 4], &[9, 8, 7], &[5, 5, 5, 5, 5], &[100, 90, 80]];
    let run = |threads: usize| {
        let mut engine = ServingEngine::new(&model).with_threads(threads);
        for p in prompts {
            engine.submit_with(p, SubmitOptions::new(64));
        }
        let report = engine.run();
        assert_eq!(report.generated_tokens, 256);
        assert_eq!(report.num_threads, threads);
        engine.sequences().iter().map(|s| s.generated.clone()).collect::<Vec<_>>()
    };
    let sequential = run(1);
    let parallel = run(4);
    assert_eq!(sequential, parallel, "f32 backend diverges between 1 and 4 threads");
    for (stream, p) in sequential.iter().zip(prompts) {
        assert_eq!(stream, &model.generate_greedy(p, 64), "batched stream diverges from solo generation");
    }
}

/// The same 256-token pin on the paged-packed backend, where parallel workers also
/// contend on the page pool's allocator for page-boundary allocations.
#[test]
fn paged_parallel_decode_is_token_identical_at_256_tokens() {
    let model = model();
    let prompts: [&[usize]; 4] = [&[1, 2, 3, 4], &[9, 8, 7], &[5, 5, 5, 5, 5], &[100, 90, 80]];
    let run = |threads: usize| {
        let mut engine = ServingEngine::paged(&model, 64).with_threads(threads);
        for p in prompts {
            engine.submit_with(p, SubmitOptions::new(64));
        }
        let report = engine.run();
        assert_eq!(report.backend, "paged-packed");
        assert_eq!(report.generated_tokens, 256);
        let pool = engine.pool().unwrap();
        assert_eq!(pool.in_use_pages(), 0, "pages leaked at {threads} threads");
        assert_eq!(pool.reserved_pages(), 0);
        engine.sequences().iter().map(|s| s.generated.clone()).collect::<Vec<_>>()
    };
    let sequential = run(1);
    let parallel = run(4);
    assert_eq!(sequential, parallel, "paged backend diverges between 1 and 4 threads");
    for (stream, p) in sequential.iter().zip(prompts) {
        assert_eq!(stream, &model.generate_greedy(p, 64), "paged stream diverges from solo generation");
    }
}

/// One oversubscribed workload — staggered admissions, a stop token, an unadmittable
/// giant, greedy and seeded-sampled sequences side by side — run at 1 and 4 threads.
/// Everything observable must match: token streams, finish reasons, per-sequence cached
/// positions, and the pool must drain to exactly its full budget both times.
#[test]
fn oversubscribed_stress_workload_is_identical_at_1_and_4_threads() {
    let model = model();
    let stop = model.generate_greedy(&[6, 7, 8], 13)[6];
    let run = |threads: usize| {
        // 6-page pool; each small sequence needs 2 pages (2 layers × 1 page), so at most
        // 3 are resident while 9 more wait; the giant (needs 2 × ceil(203/16) = 26
        // pages) can never be admitted.
        let mut engine = ServingEngine::paged(&model, 6).with_threads(threads);
        for s in 0..12usize {
            let prompt = [s + 1, s + 2, s + 3];
            match s % 3 {
                // Greedy with a stop token drawn from the matching free-running stream.
                0 if s == 6 => engine.submit_with(&[6, 7, 8], SubmitOptions::new(13).stop_token(stop)),
                // Seeded top-k: sampled sequences must be just as reproducible.
                1 => engine.submit_with(&prompt, SubmitOptions::new(11).sampling(Sampling::top_k(4, 0.9, 2024))),
                // Plain greedy.
                _ => engine.submit_with(&prompt, SubmitOptions::new(13)),
            };
        }
        engine.submit_with(&[1, 2, 3], SubmitOptions::new(200)); // the unadmittable giant
        let report = engine.run();
        let pool = engine.pool().unwrap();
        assert_eq!(pool.in_use_pages(), 0, "pages leaked at {threads} threads");
        assert_eq!(pool.reserved_pages(), 0, "reservations leaked at {threads} threads");
        assert_eq!(pool.free_pages(), pool.total_pages(), "pool must drain at {threads} threads");
        assert!(report.resident_bytes <= pool.total_pages() * pool.page_bytes());
        let outcomes: Vec<(Vec<usize>, Option<FinishReason>, usize)> =
            engine.sequences().iter().map(|s| (s.generated.clone(), s.finish_reason(), s.cached_positions())).collect();
        (report, outcomes)
    };

    let (report_1, outcomes_1) = run(1);
    let (report_4, outcomes_4) = run(4);

    assert_eq!(outcomes_1, outcomes_4, "stress workload diverges between 1 and 4 threads");
    assert_eq!(report_1.generated_tokens, report_4.generated_tokens);
    assert_eq!(report_1.finished_length, report_4.finished_length);
    assert_eq!(report_1.finished_stop, report_4.finished_stop);
    assert_eq!(report_1.evicted, report_4.evicted);
    assert_eq!(report_1.prompt_tokens, report_4.prompt_tokens);

    // The workload actually exercised every finish reason.
    assert_eq!(report_1.sequences, 13);
    assert_eq!(report_1.evicted, 1);
    assert_eq!(report_1.finished_stop, 1);
    assert!(report_1.finished_length >= 10);
    assert_eq!(report_1.finished_length + report_1.finished_stop + report_1.evicted, report_1.sequences);
}
