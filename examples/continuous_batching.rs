//! Continuous batching over the paged, bit-packed KV cache, decoded across worker threads.
//!
//! Submits more sequences than the page budget can hold at once (mixed generation
//! budgets, some with stop tokens), so the scheduler must admit late sequences as
//! earlier ones finish and return their pages. The peak packed residency is printed
//! against every cached position held in f32, every stream is checked against
//! `generate_greedy`, which decodes over the f32 `KvCache`, and the workload is re-run
//! across 1/2/4 decode worker threads to show that the thread count changes the wall
//! clock but never a single token. Two more scenarios demonstrate the refcounted
//! shared-page features: a shared-system-prompt batch (whole prompt pages published to
//! the pool's prefix cache and mapped by every later request, resident bytes near one
//! prompt copy instead of N) and a high-priority arrival that preempts a low-priority
//! sequence (spill → restore, bit-identical resume).
//!
//! Run with: `cargo run --release --example continuous_batching` (add `--smoke` for the
//! CI-sized workload, `--trace <path>` to record the run and export a Chrome trace-event
//! JSON loadable in `chrome://tracing` or Perfetto).

use mxplus::llm::{
    FaultKind, FaultPlan, FinishReason, ModelConfig, ModelQuantConfig, QuantileSummary, RecoveryPolicy, ServingEngine,
    SubmitOptions, TelemetryConfig, TransformerModel,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let trace_path = args.iter().position(|a| a == "--trace").map(|i| {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("--trace requires a file path");
            std::process::exit(2);
        })
    });
    let cfg = ModelConfig::llama2_7b();
    let model = TransformerModel::new(cfg.clone(), ModelQuantConfig::a_mxfp4_plus());
    let (n_seqs, budget) = if smoke { (4, 8) } else { (8, 32) };
    let pages = if smoke { 10 } else { 30 };

    // Mixed-length workload: budgets budget/2..budget, every third sequence carries a
    // stop token drawn from its own greedy continuation so some finish early, plus one
    // sequence too large for the whole pool (reported as evicted). Derived once up
    // front — the stop-token derivation is a full greedy decode per sequence, and the
    // same submissions feed the reference run and the thread sweep.
    let submissions: Vec<(Vec<usize>, usize, Option<usize>)> = (0..n_seqs)
        .map(|s| {
            let prompt: Vec<usize> = (0..12).map(|i| (s * 37 + i * 11) % cfg.vocab).collect();
            let max_new = budget / 2 + (s * 5) % (budget / 2 + 1);
            let stop = if s % 3 == 2 {
                let free = model.generate_greedy(&prompt, max_new);
                Some(free[max_new / 2])
            } else {
                None
            };
            (prompt, max_new, stop)
        })
        .collect();
    // One more submission can never fit: evicted, not deadlocked.
    let oversized: &[usize] = &[1, 2, 3];
    let submit_workload = |engine: &mut ServingEngine<'_>| {
        for (prompt, max_new, stop) in &submissions {
            engine.submit_with(prompt, SubmitOptions::new(*max_new).stop_token(*stop));
        }
        engine.submit_with(oversized, SubmitOptions::new(100_000));
    };
    // The prompts in submission order: a retired sequence no longer holds its own.
    let prompts: Vec<&[usize]> = submissions.iter().map(|(p, ..)| p.as_slice()).chain([oversized]).collect();

    let mut engine = ServingEngine::paged(&model, pages);
    if trace_path.is_some() {
        // Event tracing is opt-in; the latency summary below is always on. Tokens are
        // identical either way (pinned by the engine's tests).
        engine = engine.with_telemetry(TelemetryConfig::On);
    }
    submit_workload(&mut engine);

    {
        let pool = engine.pool().unwrap();
        println!(
            "Pool budget: {} pages x {} positions x {} B = {} KiB packed ({})",
            pool.total_pages(),
            pool.page_positions(),
            pool.slot_bytes(),
            pool.total_pages() * pool.page_bytes() / 1024,
            model.quant().kv_cache.name(),
        );
    }
    println!(
        "Submitted {} sequences (worst case exceeds the budget: admission is staggered), {} decode threads\n",
        n_seqs + 1,
        engine.num_threads()
    );

    let report = engine.run();

    println!("{:>4} {:>8} {:>8} {:>10} {:>10}", "seq", "prompt", "tokens", "budget", "finish");
    for (seq, prompt) in engine.sequences().iter().zip(&prompts) {
        println!(
            "{:>4} {:>8} {:>8} {:>10} {:>10}",
            seq.id,
            prompt.len(),
            seq.generated.len(),
            seq.max_new_tokens,
            match seq.finish_reason() {
                Some(FinishReason::Length) => "length",
                Some(FinishReason::Stop) => "stop",
                Some(FinishReason::Evicted) => "evicted",
                Some(FinishReason::Failed { .. }) => "failed",
                Some(FinishReason::DeadlineExceeded) => "deadline",
                Some(FinishReason::Shed) => "shed",
                None => "unfinished?",
            }
        );
    }
    println!(
        "\n{} generated tokens in {:.2}s wall ({:.0} tok/s wall, {:.0} tok/s per worker); finished by length {}, by stop {}, evicted {}",
        report.generated_tokens,
        report.wall_seconds,
        report.tokens_per_sec_parallel,
        report.decode_tokens_per_sec,
        report.finished_length,
        report.finished_stop,
        report.evicted
    );
    println!(
        "cache bytes: theoretical {} ({}), every position in fp32 {}; peak resident {} (measured packed pages), \
         its positions in fp32 {} ({:.1}x)",
        report.theoretical_bytes,
        report.scheme,
        report.theoretical_bytes_fp32,
        report.resident_bytes,
        report.resident_bytes_fp32,
        report.resident_compression()
    );

    // Per-request latency (always-on histograms; see ServingReport::latency).
    let ms = |n: u64| n as f64 / 1e6;
    println!("\nLatency quantiles (ms): {:>12} {:>10} {:>10} {:>10}", "p50", "p95", "p99", "max");
    let rows: [(&str, &QuantileSummary); 4] = [
        ("TTFT", &report.latency.ttft),
        ("TPOT", &report.latency.tpot),
        ("pass", &report.latency.pass_latency),
        ("queue wait", &report.latency.queue_wait),
    ];
    for (name, q) in rows {
        println!(
            "{name:>21} {:>12.3} {:>10.3} {:>10.3} {:>10.3}",
            ms(q.p50_nanos),
            ms(q.p95_nanos),
            ms(q.p99_nanos),
            ms(q.max_nanos)
        );
    }

    // Per-worker scheduler-step counts: how evenly the coordinator spread the work.
    println!("\nWorker decode-step counts ({} workers):", report.worker_decode_steps.len());
    println!("{:>8} {:>8}", "worker", "steps");
    for (w, steps) in report.worker_decode_steps.iter().enumerate() {
        println!("{:>8} {:>8}", w + 1, steps);
    }

    if let Some(path) = &trace_path {
        let trace = engine.take_trace().expect("telemetry was enabled for --trace");
        let json = trace.to_chrome_json();
        std::fs::write(path, &json).expect("write chrome trace");
        println!(
            "\nwrote {} events ({} categories) as Chrome trace-event JSON to {path}",
            trace.events().len(),
            trace.categories().len()
        );
    }

    let pool = engine.pool().unwrap();
    assert_eq!(pool.in_use_pages(), 0, "all pages must return to the pool");
    assert_eq!(report.finished_length + report.finished_stop + report.evicted, report.sequences);

    // Every stream against the f32-cache reference: a stop-token stream is its greedy
    // continuation cut at the stop.
    let served =
        engine.sequences().iter().zip(&prompts).filter(|(s, _)| s.finish_reason() != Some(FinishReason::Evicted));
    for (seq, prompt) in served {
        let free = model.generate_greedy(prompt, seq.max_new_tokens);
        let end = seq.stop_token.and_then(|t| free.iter().position(|&g| g == t)).unwrap_or(free.len());
        assert_eq!(seq.generated, free[..end], "sequence {} diverges from generate_greedy", seq.id);
    }
    println!("\nEvery stream equals generate_greedy over the f32 KvCache (asserted)");

    // Thread scaling: identical workload and tokens at 1/2/4 decode workers; only the
    // wall clock moves (by how much depends on the hardware threads available).
    println!("\nThread scaling (same workload, token-identical by assertion):");
    println!("{:>8} {:>10} {:>14} {:>16}", "threads", "wall s", "tok/s wall", "tok/s per-worker");
    let reference: Vec<Vec<usize>> = engine.sequences().iter().map(|s| s.generated.clone()).collect();
    for threads in [1usize, 2, 4] {
        let mut sweep = ServingEngine::paged(&model, pages).with_threads(threads);
        submit_workload(&mut sweep);
        let r = sweep.run();
        for (seq, expected) in sweep.sequences().iter().zip(&reference) {
            assert_eq!(&seq.generated, expected, "thread count changed sequence {}", seq.id);
        }
        println!(
            "{:>8} {:>10.3} {:>14.0} {:>16.0}",
            threads, r.wall_seconds, r.tokens_per_sec_parallel, r.decode_tokens_per_sec
        );
    }

    // Prefix sharing: N requests with one system prompt. The shared run maps the prompt's
    // full pages behind refcounts (one resident copy; each request prefills its own
    // boundary page); the unshared run pays N full copies and N prefills. Tokens must
    // not change.
    let shared_seqs = if smoke { 4 } else { 8 };
    let common = if smoke { 19 } else { 67 };
    let system_prompt: Vec<usize> = (0..common).map(|i| (i * 19 + 5) % cfg.vocab).collect();
    let shared_prompts: Vec<Vec<usize>> = (0..shared_seqs)
        .map(|s| {
            let mut p = system_prompt.clone();
            p.push((100 + s * 3) % cfg.vocab);
            p
        })
        .collect();
    let share_run = |share: bool| {
        // Size the pool for the *unshared* worst case so both arms admit everything.
        let share_pages = shared_seqs * cfg.layers * (common + 1 + budget / 4).div_ceil(16);
        let mut engine = ServingEngine::paged(&model, share_pages);
        for p in &shared_prompts {
            let opts = SubmitOptions::new(budget / 4);
            engine.submit_with(p, if share { opts } else { opts.without_prefix_sharing() });
        }
        let report = engine.run();
        let streams: Vec<Vec<usize>> = engine.sequences().iter().map(|s| s.generated.clone()).collect();
        (report, streams)
    };
    let (shared_report, shared_streams) = share_run(true);
    let (unshared_report, unshared_streams) = share_run(false);
    assert_eq!(shared_streams, unshared_streams, "prefix sharing must be token-identical");
    assert!(shared_report.shared_pages > 0, "the shared-prompt batch must actually share pages");
    println!(
        "\nPrefix sharing ({} seqs, {}-token system prompt): {} shared page mappings, {} prefill tokens saved",
        shared_seqs, common, shared_report.shared_pages, shared_report.prefill_tokens_saved
    );
    println!(
        "peak resident {} B shared vs {} B unshared ({:.2}x smaller), tokens identical by assertion",
        shared_report.resident_bytes,
        unshared_report.resident_bytes,
        unshared_report.resident_bytes as f64 / shared_report.resident_bytes as f64
    );

    // Preemption: low-priority work owns the pool when a high-priority request arrives
    // (deterministically, at scheduler pass 2, while even the smoke run's 4-token
    // low-priority sequence is still decoding). The scheduler spills a victim to host
    // memory, serves the urgent request, restores the victim bit-identically. The pool
    // is sized to fit exactly the urgent request alone (4-position pages), so admission
    // without preemption would have to stall behind the low-priority sequence instead.
    let low_prompt = vec![5usize, 6, 7];
    let urgent_prompt = vec![9usize, 8];
    let urgent_pages_per_layer = (urgent_prompt.len() + budget).div_ceil(4);
    let mut engine = ServingEngine::paged_with(&model, urgent_pages_per_layer * cfg.layers, 4);
    engine.submit_with(&low_prompt, SubmitOptions::new(budget / 2));
    engine.submit_with(&urgent_prompt, SubmitOptions::new(budget).priority(1).arrival_pass(2));
    let preempt_report = engine.run();
    assert!(preempt_report.preemptions >= 1, "the urgent arrival must preempt, not stall");
    assert_eq!(preempt_report.evicted, 0, "preemption is not eviction");
    assert_eq!(engine.sequences()[0].generated, model.generate_greedy(&low_prompt, budget / 2));
    assert_eq!(engine.sequences()[1].generated, model.generate_greedy(&urgent_prompt, budget));
    println!(
        "\nPreemption: {} swap(s); the preempted sequence resumed bit-identically (asserted vs solo decode)",
        preempt_report.preemptions
    );

    // Fault tolerance: the same oversubscribed workload under a seeded fault plan —
    // worker panics at drawn job counters plus a denied admission reservation. Each
    // panic is caught inside the worker's step, and the lost sequence rolls back to its
    // last checkpoint and replays; every token must still match the fault-free runs
    // above.
    let mut chaos = ServingEngine::paged(&model, pages)
        .with_threads(4)
        .with_faults(FaultPlan::seeded(11).kill_workers(2, 6).inject(FaultKind::ReservationDenied { attempt: 0 }))
        .with_recovery(RecoveryPolicy { checkpoint_every: 2, max_attempts: 8, backoff_passes: 1 });
    submit_workload(&mut chaos);
    // The injected panics are caught by the engine; mute the default hook so the
    // demo output isn't littered with backtraces from faults that are by design.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let chaos_report = chaos.run();
    std::panic::set_hook(hook);
    assert!(chaos_report.retries >= 1, "at least one injected panic must fire");
    assert_eq!(chaos_report.failed, 0, "the retry budget must absorb every injected panic");
    for (seq, expected) in chaos.sequences().iter().zip(&reference) {
        assert_eq!(&seq.generated, expected, "fault recovery changed sequence {}", seq.id);
    }
    assert_eq!(chaos.pool().unwrap().in_use_pages(), 0, "all pages must return after recovery");
    println!(
        "\nFault injection: {} checkpoint retr{}, 0 failed; tokens identical by assertion",
        chaos_report.retries,
        if chaos_report.retries == 1 { "y" } else { "ies" },
    );
}
