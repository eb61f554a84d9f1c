//! Chunked prefill: a prompt joins the pass's one batched forward a chunk at a time,
//! under a per-forward budget of [`PREFILL_BUDGET`] prompt rows.
//!
//! * Tokens equal [`TransformerModel::generate_greedy`] for prompts of 1, 63, 64, 65 and
//!   200 tokens plus a shared-prefix mix, at 1, 2 and 4 threads, under A-MXFP4+ and
//!   BASELINE: chunk boundaries and thread counts cannot change a token.
//! * No batched forward carries more than [`PREFILL_BUDGET`] prompt rows, and a lone
//!   200-token prompt takes ⌈200/64⌉ = 4 forwards.
//! * An injected panic on a sequence in mid-prefill costs only that sequence, and its
//!   retry replays token for token.

use std::collections::HashMap;

use mx_llm::{
    Category, EventKind, FaultKind, FaultPlan, ModelConfig, ModelQuantConfig, ServingEngine, SubmitOptions,
    TelemetryConfig, TransformerModel, PREFILL_BUDGET,
};

const NEW_TOKENS: usize = 5;

fn tokens(len: usize, salt: usize) -> Vec<usize> {
    (0..len).map(|i| (i * 7 + salt * 11 + 3) % 128).collect()
}

/// Prompts of 1, 63, 64, 65 and 200 tokens, then a donor and two recipients sharing a
/// 70-token prefix (longer than one page run of the budget, with a partial boundary
/// page), the last recipient arriving a pass later.
fn workload() -> Vec<(Vec<usize>, SubmitOptions)> {
    let mut out: Vec<(Vec<usize>, SubmitOptions)> = [1, 63, 64, 65, 200]
        .iter()
        .enumerate()
        .map(|(s, &len)| (tokens(len, s), SubmitOptions::new(NEW_TOKENS)))
        .collect();
    let prefix = tokens(70, 9);
    for (s, arrival) in [(0usize, 0usize), (1, 0), (2, 1)] {
        let mut prompt = prefix.clone();
        prompt.extend(tokens(3 + s, 20 + s));
        out.push((prompt, SubmitOptions::new(NEW_TOKENS).arrival_pass(arrival)));
    }
    out
}

fn submit_all(engine: &mut ServingEngine<'_>, workload: &[(Vec<usize>, SubmitOptions)]) {
    for (prompt, opts) in workload {
        engine.submit_with(prompt, *opts);
    }
}

#[test]
fn chunked_prefill_is_token_identical_across_backends_threads_and_schemes() {
    let workload = workload();
    for (name, quant) in [("A-MXFP4+", ModelQuantConfig::a_mxfp4_plus()), ("BASELINE", ModelQuantConfig::BASELINE)] {
        let model = TransformerModel::new(ModelConfig::tiny_test(41), quant);
        let reference: Vec<Vec<usize>> = workload.iter().map(|(p, _)| model.generate_greedy(p, NEW_TOKENS)).collect();
        for threads in [1usize, 2, 4] {
            let mut engine = ServingEngine::paged(&model, 256).with_threads(threads);
            submit_all(&mut engine, &workload);
            let report = engine.run();
            let label = format!("{name}, {threads} threads");
            assert_eq!(report.failed + report.retries, 0, "{label}");
            for ((seq, expected), (prompt, _)) in engine.sequences().iter().zip(&reference).zip(&workload) {
                assert_eq!(&seq.generated, expected, "{label}: sequence {} ({} prompt tokens)", seq.id, prompt.len());
            }
            // The recipients mapped the 4 full pages (64 positions) of the 70 they share
            // with the donor.
            assert!(report.prefill_tokens_saved >= 2 * 64, "{label}: {}", report.prefill_tokens_saved);
            let pool = engine.pool().expect("the engine has a pool");
            assert_eq!(pool.in_use_pages(), 0, "{label}: pages leaked");
            assert_eq!(pool.reserved_pages(), 0, "{label}: reservations leaked");
        }
    }
}

/// Prompt rows each batched forward of one pass carried, read from the pass's trace and
/// the sequences' cache growth: every `prefill_chunk` instant names a sequence whose
/// chunk rode the `forward` span open on its lane, and that sequence's cache grew by
/// exactly the chunk.
fn chunk_rows_per_forward(engine: &mut ServingEngine<'_>, before: &[usize]) -> Vec<usize> {
    let trace = engine.take_trace().expect("telemetry was enabled");
    let mut open: HashMap<u32, usize> = HashMap::new();
    let mut rows = Vec::new();
    for e in trace.events().iter().filter(|e| e.cat == Category::Worker) {
        match (e.kind, e.name) {
            (EventKind::Begin, "forward") => {
                open.insert(e.lane, rows.len());
                rows.push(0);
            }
            (EventKind::Instant, "prefill_chunk") => {
                let forward = open[&e.lane];
                let seq = e.arg as usize;
                rows[forward] += engine.sequences()[seq].cached_positions() - before[seq];
            }
            _ => {}
        }
    }
    rows
}

#[test]
fn no_forward_carries_more_than_the_budget() {
    let model = TransformerModel::new(ModelConfig::tiny_test(43), ModelQuantConfig::a_mxfp4_plus());
    // Sharing off: each sequence's cache then grows only by the rows its chunks carry.
    let workload: Vec<(Vec<usize>, SubmitOptions)> = workload()
        .into_iter()
        .map(|(prompt, opts)| (prompt, SubmitOptions::new(opts.max_new_tokens).without_prefix_sharing()))
        .collect();
    let prompt_rows: usize = workload.iter().map(|(p, _)| p.len()).sum();
    for threads in [1usize, 2, 4] {
        let mut engine = ServingEngine::paged(&model, 256).with_threads(threads).with_telemetry(TelemetryConfig::On);
        submit_all(&mut engine, &workload);
        let mut carried = 0;
        while engine.sequences().iter().any(|s| !s.is_finished()) {
            let before: Vec<usize> = engine.sequences().iter().map(|s| s.cached_positions()).collect();
            engine.run_for(1);
            for rows in chunk_rows_per_forward(&mut engine, &before) {
                assert!(rows <= PREFILL_BUDGET, "{threads} threads: a forward carried {rows} prompt rows");
                carried += rows;
            }
        }
        assert_eq!(carried, prompt_rows, "{threads} threads: every prompt row rode exactly one forward");
        for (seq, (prompt, _)) in engine.sequences().iter().zip(&workload) {
            assert_eq!(
                seq.generated,
                model.generate_greedy(prompt, NEW_TOKENS),
                "{threads} threads: sequence {}",
                seq.id
            );
        }
    }
}

#[test]
fn a_200_token_prompt_takes_four_forwards() {
    let model = TransformerModel::new(ModelConfig::tiny_test(43), ModelQuantConfig::a_mxfp4_plus());
    let prompt = tokens(200, 1);
    let mut engine = ServingEngine::paged(&model, 64).with_threads(1).with_telemetry(TelemetryConfig::On);
    engine.submit_with(&prompt, SubmitOptions::new(NEW_TOKENS));
    let mut cached = Vec::new();
    let mut chunks = 0;
    while engine.sequences()[0].generated.is_empty() {
        engine.run_for(1);
        cached.push(engine.sequences()[0].cached_positions());
        let trace = engine.take_trace().expect("telemetry was enabled");
        chunks += trace.events().iter().filter(|e| e.name == "prefill_chunk").count();
    }
    assert_eq!(chunks, 200usize.div_ceil(PREFILL_BUDGET));
    // Chunks of 64, 64, 64 and 8 rows; the pass of the last one samples the first token
    // and emits it.
    assert_eq!(cached, vec![64, 128, 192, 200]);
    engine.run();
    assert_eq!(engine.sequences()[0].generated, model.generate_greedy(&prompt, NEW_TOKENS));
}

#[test]
fn a_fault_in_mid_prefill_costs_only_its_sequence() {
    let model = TransformerModel::new(ModelConfig::tiny_test(47), ModelQuantConfig::a_mxfp4_plus());
    let short = tokens(5, 2);
    let long = tokens(200, 3);
    // The short sequence prefills in pass 0 and decodes from pass 1 on; the long one
    // takes four chunks. At one thread the jobs run short, long, short, long, so job 4 is
    // the long sequence's second chunk; at two threads each sits alone on a worker, and
    // worker 1's second job is that chunk. The long prompt's first chunk is 59 rows at
    // one thread (the short prompt takes 5 of the budget) and 64 at two: 3 or 4 full
    // pages, which the pass boundary publishes.
    for (threads, worker, job, published) in [(1usize, 0usize, 4u64, 48usize), (2, 1, 2, 64)] {
        let plan = FaultPlan::seeded(1).inject(FaultKind::WorkerPanic { worker, job });
        let mut engine = ServingEngine::paged(&model, 64)
            .with_threads(threads)
            .with_telemetry(TelemetryConfig::On)
            .with_faults(plan);
        engine.submit_with(&short, SubmitOptions::new(12));
        engine.submit_with(&long, SubmitOptions::new(NEW_TOKENS));
        let report = engine.run();
        assert_eq!(report.retries, 1, "{threads} threads");
        assert_eq!(report.failed, 0, "{threads} threads");
        let attempts: Vec<usize> = engine.sequences().iter().map(mx_llm::Sequence::attempts).collect();
        assert_eq!(attempts, vec![0, 1], "{threads} threads: only the prefilling sequence retried");
        assert_eq!(engine.sequences()[0].generated, model.generate_greedy(&short, 12), "{threads} threads");
        assert_eq!(engine.sequences()[1].generated, model.generate_greedy(&long, NEW_TOKENS), "{threads} threads");
        // The fault struck after the long prompt's first chunk, whose full pages were
        // published: the retry maps them from the prefix cache and prefills the rest in
        // three more chunks.
        let trace = engine.take_trace().expect("telemetry was enabled");
        let chunks = |seq: u64| trace.events().iter().filter(|e| e.name == "prefill_chunk" && e.arg == seq).count();
        assert_eq!((chunks(0), chunks(1)), (1, 4), "{threads} threads");
        assert_eq!(report.prefill_tokens_saved, published, "{threads} threads");
        let pool = engine.pool().expect("paged engine has a pool");
        assert_eq!(pool.in_use_pages(), 0);
        assert_eq!(pool.reserved_pages(), 0);
    }
}
