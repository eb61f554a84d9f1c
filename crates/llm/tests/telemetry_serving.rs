//! ISSUE-8 acceptance tests for serving-engine observability:
//!
//! * a multi-sequence paged run reports **non-degenerate** TTFT/TPOT/pass/queue-wait
//!   quantiles, with TTFT bounded by the run's wall time;
//! * the drained trace carries all four event categories and, per sequence, a
//!   **monotone** lifecycle (submitted → admitted → first_token → retired);
//! * telemetry enabled vs. disabled is **token-identical** — tracing observes the
//!   schedule, it never perturbs it;
//! * under a fixed [`TestClock`] a single-threaded run renders byte-identical Chrome
//!   trace JSON across repeats;
//! * [`ServingReport::worker_decode_steps`] accounts every scheduler step, and the
//!   `decode_batch` spans account every token that ran a decode forward.

use std::sync::Arc;

use mx_llm::{
    Category, EventKind, ModelConfig, ModelQuantConfig, ServingEngine, ServingReport, SubmitOptions, TelemetryConfig,
    TestClock, Trace, TransformerModel,
};

fn model() -> TransformerModel {
    // The paper's headline serving configuration: A-MXFP4+, W-MXFP4.
    TransformerModel::new(ModelConfig::tiny_test(29), ModelQuantConfig::a_mxfp4_plus())
}

/// A small continuous-batching workload: four staggered paged sequences on a pool tight
/// enough to queue some of them (non-zero queue wait), run on `threads` workers.
fn run_traced(threads: usize, config: TelemetryConfig) -> (ServingReport, Option<Trace>, Vec<Vec<usize>>) {
    let model = model();
    let mut engine = ServingEngine::paged(&model, 24).with_threads(threads).with_telemetry(config);
    engine.submit_with(&[1, 2, 3, 4], SubmitOptions::new(24));
    engine.submit_with(&[9, 8, 7], SubmitOptions::new(24));
    engine.submit_with(&[5, 5, 5, 5, 5], SubmitOptions::new(24).arrival_pass(2));
    engine.submit_with(&[100, 90, 80], SubmitOptions::new(24).arrival_pass(3));
    let report = engine.run();
    let trace = engine.take_trace();
    let tokens = engine.sequences().iter().map(|s| s.generated.clone()).collect();
    (report, trace, tokens)
}

#[test]
fn report_carries_non_degenerate_latency_quantiles() {
    let (report, _, _) = run_traced(2, TelemetryConfig::On);
    let lat = &report.latency;
    // One TTFT and one queue-wait sample per sequence, one TPOT sample per decoded
    // forward, at least one pass sample.
    assert_eq!(lat.ttft.count, 4);
    assert_eq!(lat.queue_wait.count, 4);
    assert!(lat.tpot.count > 0, "decode steps must feed TPOT");
    assert!(lat.pass_latency.count > 0);
    for q in [&lat.ttft, &lat.tpot, &lat.pass_latency] {
        assert!(q.p50_nanos > 0, "real work takes nonzero time");
        assert!(q.p50_nanos <= q.p95_nanos && q.p95_nanos <= q.p99_nanos);
        assert!(q.p99_nanos <= q.max_nanos.max(q.p99_nanos));
    }
    // TTFT intervals lie inside the run, so even the slowest must fit the wall clock.
    let wall_nanos = (report.wall_seconds * 1e9) as u64;
    assert!(lat.ttft.max_nanos <= wall_nanos, "TTFT {} > wall {}", lat.ttft.max_nanos, wall_nanos);
}

#[test]
fn latency_summary_is_populated_even_with_telemetry_off() {
    let (report, trace, _) = run_traced(2, TelemetryConfig::Off);
    assert!(trace.is_none(), "no trace without telemetry");
    assert_eq!(report.latency.ttft.count, 4, "summaries come from always-on histograms");
    assert!(report.latency.tpot.count > 0);
}

#[test]
fn trace_covers_all_four_categories_with_monotone_lifecycles() {
    let (report, trace, _) = run_traced(2, TelemetryConfig::On);
    let trace = trace.expect("telemetry was enabled");
    assert_eq!(
        trace.categories(),
        vec![Category::Lifecycle, Category::Pass, Category::Worker, Category::Occupancy],
        "paged runs emit the full event taxonomy"
    );
    // Per sequence: the lifecycle instants appear in causal order with monotone
    // timestamps (the hub clock is shared and monotone across lanes).
    for seq in 0..report.sequences as u64 {
        let events: Vec<_> = trace.events().iter().filter(|e| e.cat == Category::Lifecycle && e.arg == seq).collect();
        let names: Vec<&str> = events.iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["submitted", "admitted", "first_token", "retired"], "seq {seq}");
        for pair in events.windows(2) {
            assert!(pair[0].ts_nanos <= pair[1].ts_nanos, "seq {seq}: lifecycle must move forward in time");
        }
    }
    // Pass spans balance and occupancy gauges carry values.
    let begins = trace.events().iter().filter(|e| e.kind == EventKind::Begin && e.cat == Category::Pass).count();
    let ends = trace.events().iter().filter(|e| e.kind == EventKind::End && e.cat == Category::Pass).count();
    assert_eq!(begins, ends);
    assert_eq!(begins as u64, report.latency.pass_latency.count);
    assert!(trace.events().iter().any(|e| e.cat == Category::Occupancy && e.arg > 0));
}

#[test]
fn tracing_never_perturbs_the_token_streams() {
    for threads in [1, 4] {
        let (off_report, _, off_tokens) = run_traced(threads, TelemetryConfig::Off);
        let (on_report, _, on_tokens) = run_traced(threads, TelemetryConfig::On);
        assert_eq!(off_tokens, on_tokens, "telemetry must be invisible to scheduling at {threads} threads");
        assert_eq!(off_report.generated_tokens, on_report.generated_tokens);
        assert_eq!(off_report.preemptions, on_report.preemptions);
    }
}

#[test]
fn test_clock_makes_single_threaded_traces_byte_identical() {
    let render = || {
        let config = TelemetryConfig::on_with_clock(Arc::new(TestClock::with_step(100)));
        let (_, trace, _) = run_traced(1, config);
        trace.expect("telemetry was enabled").to_chrome_json()
    };
    let json = render();
    assert_eq!(json, render(), "fixed clock + sequential schedule ⇒ deterministic trace");
    assert!(json.starts_with("{\"traceEvents\":["), "chrome trace-event object form");
}

#[test]
fn worker_decode_steps_account_every_scheduler_step() {
    for threads in [1, 3] {
        let (report, _, _) = run_traced(threads, TelemetryConfig::Off);
        assert_eq!(report.worker_decode_steps.len(), threads);
        let total: usize = report.worker_decode_steps.iter().sum();
        // Every generated token rode exactly one step; prefill and finish bookkeeping
        // add more on top.
        assert!(total >= report.generated_tokens, "{total} steps < {} tokens", report.generated_tokens);
        assert!(report.worker_decode_steps.iter().any(|&s| s > 0));
    }
}

#[test]
fn decode_batch_spans_account_every_decoded_token() {
    for threads in [1, 2] {
        let (report, trace, _) = run_traced(threads, TelemetryConfig::On);
        let trace = trace.expect("telemetry was enabled");
        // One decode_batch span per batched forward, carrying its sequence count; every
        // token of a batch records the batch's forward time as its TPOT sample.
        let batched: u64 = trace
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Begin && e.cat == Category::Worker && e.name == "decode_batch")
            .map(|e| e.arg)
            .sum();
        assert_eq!(batched, report.latency.tpot.count, "{threads} threads");
        assert!(
            !trace.events().iter().any(|e| e.name == "decode_step"),
            "per-sequence decode spans are gone at {threads} threads"
        );
    }
}
