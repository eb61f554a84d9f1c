//! ISSUE-9 acceptance tests for fault-tolerant serving: deterministic fault injection,
//! worker-panic containment with checkpoint retry, deadlines, load shedding and the
//! drain/shutdown contract.
//!
//! * a seeded [`FaultPlan`] that panics every worker of a 4-thread engine at least once
//!   completes the run with four contained retries, every retried sequence
//!   **token-identical** to a fault-free run, the pool fully drained and a follow-up
//!   [`ServingEngine::drain`] reporting zero live sequences;
//! * scheduler counters live as long as the engine: a `run_for(1)` loop serves a late
//!   arrival and re-admits a rolled-back sequence, token-identical to one `run()`;
//! * a sequence that keeps losing its worker exhausts its retry budget and finishes
//!   [`FinishReason::Failed`] without leaking a page;
//! * deadlines ([`FinishReason::DeadlineExceeded`]) and priority-ordered load shedding
//!   ([`FinishReason::Shed`]) end exactly the targeted sequences and leave the rest
//!   byte-identical;
//! * [`ServingEngine::shutdown`] mid-flight spills every live sequence to host buffers
//!   (zero pool pages) and a later run resumes to an uninterrupted run's exact tokens;
//! * [`PagePool`] recovers from a poisoned state mutex (a panic while the lock is
//!   held) with its accounting intact;
//! * a chaos proptest sweeps seeded plans across thread counts: no leak, no
//!   double-free, bounded retries, and token identity for every non-failed sequence.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use mx_formats::{QuantScheme, RowCodec};
use mx_llm::{
    Category, FaultKind, FaultPlan, FinishReason, ModelConfig, ModelQuantConfig, PagePool, PagedKvCache,
    RecoveryPolicy, Sampling, ServingEngine, SubmitOptions, TelemetryConfig, TransformerModel,
};
use proptest::prelude::*;

fn model() -> &'static TransformerModel {
    static MODEL: OnceLock<TransformerModel> = OnceLock::new();
    MODEL.get_or_init(|| TransformerModel::new(ModelConfig::tiny_test(31), ModelQuantConfig::a_mxfp4_plus()))
}

/// Eight deterministic prompts; sequence 2 samples with a seeded top-k policy, the rest
/// decode greedily — so recovery must replay RNG state, not just cache bytes.
fn submit_workload(engine: &mut ServingEngine<'_>, max_new: usize) {
    let prompts: [&[usize]; 8] = [
        &[1, 2, 3, 4],
        &[9, 8, 7],
        &[5, 5, 5, 5, 5],
        &[100, 90, 80],
        &[11, 12],
        &[40, 41, 42, 43],
        &[66, 67, 68],
        &[2, 4, 6, 8, 10],
    ];
    for (i, p) in prompts.iter().enumerate() {
        let opts = SubmitOptions::new(max_new);
        let opts = if i == 2 { opts.sampling(Sampling::top_k(4, 0.9, 77)) } else { opts };
        engine.submit_with(p, opts);
    }
}

/// Token streams of a fault-free paged run of [`submit_workload`] — the byte-identity
/// reference every containment test compares against.
fn reference_streams(max_new: usize) -> Vec<Vec<usize>> {
    let mut engine = ServingEngine::paged(model(), 64).with_threads(1);
    submit_workload(&mut engine, max_new);
    engine.run();
    engine.sequences().iter().map(|s| s.generated.clone()).collect()
}

fn assert_pool_drained(engine: &ServingEngine<'_>) {
    let pool = engine.pool().expect("paged engine has a pool");
    pool.audit();
    assert_eq!(pool.in_use_pages(), 0, "pages leaked");
    assert_eq!(pool.reserved_pages(), 0, "reservations leaked");
    assert_eq!(pool.free_pages(), pool.total_pages());
}

/// The headline containment test: panic all four workers of a 4-thread engine at
/// seeded job counters; the run completes with four contained panics and every
/// sequence — including the retried ones — token-identical to a fault-free run.
#[test]
fn killing_every_worker_is_contained_and_token_identical() {
    let reference = reference_streams(24);
    let mut engine = ServingEngine::paged(model(), 64)
        .with_threads(4)
        .with_faults(FaultPlan::seeded(9).kill_workers(4, 12))
        .with_recovery(RecoveryPolicy { checkpoint_every: 2, max_attempts: 10, backoff_passes: 1 });
    submit_workload(&mut engine, 24);
    let report = engine.run();

    // Each of the four scheduled panics targets a distinct worker slot and fires once:
    // four contained crashes, four checkpoint-rollback retries.
    assert_eq!(report.retries, 4);
    assert_eq!(report.failed, 0);
    assert_eq!(report.finished_length, 8);
    for (seq, expected) in engine.sequences().iter().zip(&reference) {
        assert_eq!(
            &seq.generated,
            expected,
            "sequence {} diverged from the fault-free run (attempts = {})",
            seq.id,
            seq.attempts()
        );
    }
    assert_pool_drained(&engine);
    // Graceful stop after the fact: nothing live remains.
    let drained = engine.drain();
    assert_eq!(drained.live(), 0);
    assert_eq!(drained.finished, 8);
}

/// Single-threaded containment: the coordinator doubles as the only worker, so a panic
/// is caught in-line and recovery still replays to identical tokens.
#[test]
fn single_threaded_panic_is_contained_without_a_respawn() {
    let reference = reference_streams(16);
    let mut engine = ServingEngine::paged(model(), 64)
        .with_threads(1)
        .with_faults(
            FaultPlan::seeded(3)
                .inject(FaultKind::WorkerPanic { worker: 0, job: 5 })
                .inject(FaultKind::WorkerPanic { worker: 0, job: 21 }),
        )
        .with_recovery(RecoveryPolicy { checkpoint_every: 2, max_attempts: 5, backoff_passes: 1 });
    submit_workload(&mut engine, 16);
    let report = engine.run();

    assert_eq!(report.retries, 2);
    assert_eq!(report.failed, 0);
    for (seq, expected) in engine.sequences().iter().zip(&reference) {
        assert_eq!(&seq.generated, expected, "sequence {}", seq.id);
    }
    assert_pool_drained(&engine);
}

/// A sequence that loses its worker on every step exhausts `max_attempts` and finishes
/// `Failed` with the attempt count — and still returns every page.
#[test]
fn repeated_panics_exhaust_the_retry_budget() {
    let mut engine = ServingEngine::paged(model(), 64)
        .with_threads(1)
        .with_faults(
            FaultPlan::seeded(0)
                .inject(FaultKind::WorkerPanic { worker: 0, job: 1 })
                .inject(FaultKind::WorkerPanic { worker: 0, job: 2 })
                .inject(FaultKind::WorkerPanic { worker: 0, job: 3 }),
        )
        .with_recovery(RecoveryPolicy { checkpoint_every: 0, max_attempts: 2, backoff_passes: 0 });
    engine.submit_with(&[1, 2, 3], SubmitOptions::new(8));
    let report = engine.run();

    assert_eq!(report.failed, 1);
    assert_eq!(report.retries, 2, "two retries precede the terminal failure");
    let seq = &engine.sequences()[0];
    assert_eq!(seq.finish_reason(), Some(FinishReason::Failed { attempts: 3 }));
    assert_pool_drained(&engine);
}

/// Injected reservation denials stall admission for a pass (like a transiently
/// exhausted pool) but never change any token.
#[test]
fn reservation_denials_delay_but_do_not_corrupt() {
    let reference = reference_streams(12);
    let fault_free_passes = {
        let mut engine = ServingEngine::paged(model(), 64).with_threads(2);
        submit_workload(&mut engine, 12);
        engine.run().passes
    };
    let mut engine = ServingEngine::paged(model(), 64).with_threads(2).with_faults(
        FaultPlan::seeded(0)
            .inject(FaultKind::ReservationDenied { attempt: 0 })
            .inject(FaultKind::ReservationDenied { attempt: 1 }),
    );
    submit_workload(&mut engine, 12);
    let report = engine.run();

    // Pass 0's head-of-line admission is denied (stalling the whole queue), pass 1's
    // retry is denied again, pass 2 admits everyone: exactly two extra passes.
    assert_eq!(report.passes, fault_free_passes + 2);
    assert_eq!(report.finished_length, 8);
    assert_eq!(report.failed + report.retries, 0);
    for (seq, expected) in engine.sequences().iter().zip(&reference) {
        assert_eq!(&seq.generated, expected, "sequence {}", seq.id);
    }
    assert_pool_drained(&engine);
}

/// Deadline enforcement: an absolute `deadline_pass` and a relative `ttft_deadline`
/// each end exactly their own starved sequence while the resident one is untouched.
#[test]
fn deadlines_end_starved_sequences_only() {
    let model = model();
    // A's worst case (3 + 20 = 23 positions → 6 pages × 2 layers) fills the whole
    // 12-page pool, so B and C queue behind it until their deadlines strike.
    let mut engine = ServingEngine::paged_with(model, 12, 4).with_threads(1);
    engine.submit_with(&[1, 2, 3], SubmitOptions::new(20));
    engine.submit_with(&[4, 5, 6], SubmitOptions::new(8).deadline_pass(3));
    engine.submit_with(&[7, 8, 9], SubmitOptions::new(8).ttft_deadline(2));
    let report = engine.run();

    assert_eq!(report.deadline_misses, 2);
    assert_eq!(report.finished_length, 1);
    let seqs = engine.sequences();
    assert_eq!(seqs[0].generated, model.generate_greedy(&[1, 2, 3], 20));
    assert_eq!(seqs[1].finish_reason(), Some(FinishReason::DeadlineExceeded));
    assert_eq!(seqs[2].finish_reason(), Some(FinishReason::DeadlineExceeded));
    assert!(seqs[1].generated.is_empty() && seqs[2].generated.is_empty());
    assert_pool_drained(&engine);
}

/// Load shedding: past the watermark the scheduler refuses the lowest-priority,
/// youngest queued submissions — and only those.
#[test]
fn shedding_refuses_lowest_priority_youngest_first() {
    let model = model();
    // Each sequence's worst case is 2 pages × 2 layers = 4 pages; three of them demand
    // 12 of the 12-page pool, over the 0.6 watermark's ceil(7.2) = 8-page budget.
    // Shedding the youngest priority-0 submission brings demand to exactly 8.
    let mut engine = ServingEngine::paged_with(model, 12, 4).with_threads(1).with_shed_watermark(0.6);
    engine.submit_with(&[1, 2, 3], SubmitOptions::new(5).priority(1));
    engine.submit_with(&[4, 5, 6], SubmitOptions::new(5));
    engine.submit_with(&[7, 8, 9], SubmitOptions::new(5));
    let report = engine.run();

    assert_eq!(report.shed, 1);
    assert_eq!(report.finished_length, 2);
    let seqs = engine.sequences();
    assert_eq!(seqs[0].generated, model.generate_greedy(&[1, 2, 3], 5));
    assert_eq!(seqs[1].generated, model.generate_greedy(&[4, 5, 6], 5));
    assert_eq!(seqs[2].finish_reason(), Some(FinishReason::Shed));
    assert!(seqs[2].generated.is_empty());
    assert_pool_drained(&engine);
}

/// The shutdown contract: `run_for` stops mid-flight with state intact, `shutdown`
/// spills every live sequence (zero pool pages held), and a later `run` restores and
/// finishes with an uninterrupted run's exact tokens.
#[test]
fn shutdown_spills_and_resume_is_token_identical() {
    let reference = reference_streams(16);
    let mut engine = ServingEngine::paged(model(), 64).with_threads(2);
    submit_workload(&mut engine, 16);
    let mid = engine.run_for(5);
    assert_eq!(mid.passes, 5);
    assert_eq!(mid.finished_length, 0, "16-token sequences cannot finish in 5 passes");

    let stopped = engine.shutdown();
    assert_eq!(stopped.passes, 0);
    assert_eq!(stopped.finished, 0);
    assert_eq!(stopped.spilled, 8, "every live sequence parks in a host-side buffer");
    assert_pool_drained(&engine);

    let resumed = engine.run();
    assert_eq!(resumed.finished_length, 8);
    for (seq, expected) in engine.sequences().iter().zip(&reference) {
        assert_eq!(&seq.generated, expected, "sequence {} diverged across shutdown/resume", seq.id);
    }
    assert_pool_drained(&engine);
}

/// The drain contract: admissions freeze (a queued submission stays queued, even one
/// whose arrival pass never comes) while resident sequences run to completion.
#[test]
fn drain_finishes_residents_and_freezes_admissions() {
    let model = model();
    let mut engine = ServingEngine::paged(model, 64).with_threads(2);
    engine.submit_with(&[1, 2, 3], SubmitOptions::new(6));
    engine.submit_with(&[4, 5, 6], SubmitOptions::new(6).arrival_pass(1_000));
    engine.run_for(2);

    let drained = engine.drain();
    assert_eq!(drained.finished, 1);
    assert_eq!(drained.spilled, 0);
    assert_eq!(drained.waiting, 1, "the unarrived submission must stay frozen in the queue");
    assert_eq!(drained.live(), 1);
    assert_eq!(engine.sequences()[0].generated, model.generate_greedy(&[1, 2, 3], 6));
    assert!(!engine.sequences()[1].is_finished());
    assert_pool_drained(&engine);
}

/// Scheduler counters live as long as the engine: driven one pass per call, as a
/// serving loop drives it, a submission arriving at pass 2 still arrives and a sequence
/// rolled back after an injected panic is still re-admitted after its backoff, and
/// every stream equals one uninterrupted `run()` of the same engine setup.
#[test]
fn a_run_for_one_loop_serves_late_arrivals_and_retries_like_one_run() {
    let late: &[usize] = &[3, 1, 4, 1, 5];
    for threads in [1usize, 2] {
        let build = || {
            let mut engine = ServingEngine::paged(model(), 64)
                .with_threads(threads)
                .with_faults(FaultPlan::seeded(4).inject(FaultKind::WorkerPanic { worker: 0, job: 3 }))
                .with_recovery(RecoveryPolicy { checkpoint_every: 2, max_attempts: 3, backoff_passes: 1 });
            submit_workload(&mut engine, 12);
            engine.submit_with(late, SubmitOptions::new(12).arrival_pass(2));
            engine
        };
        let mut whole = build();
        let whole_report = whole.run();
        assert_eq!(whole_report.retries, 1, "{threads} threads");

        let mut stepped = build();
        let (mut passes, mut retries) = (0, 0);
        while stepped.sequences().iter().any(|s| !s.is_finished()) {
            assert!(passes < 10 * whole_report.passes, "{threads} threads: the run_for(1) loop never finishes");
            let report = stepped.run_for(1);
            assert_eq!(report.passes, 1, "{threads} threads");
            passes += report.passes;
            retries += report.retries;
        }
        // `run()` ends on a pass that finds nothing left to step; the loop stops before it.
        assert_eq!(passes + 1, whole_report.passes, "{threads} threads");
        assert_eq!(retries, 1, "{threads} threads");
        assert_eq!(stepped.sequences()[8].generated, model().generate_greedy(late, 12), "{threads} threads");
        for (a, b) in whole.sequences().iter().zip(stepped.sequences()) {
            assert_eq!(a.generated, b.generated, "{threads} threads: sequence {}", a.id);
            assert_eq!(a.finish_reason(), b.finish_reason(), "{threads} threads: sequence {}", a.id);
        }
        assert_pool_drained(&stepped);
    }
}

/// ISSUE-9 satellite: a panic while the pool's state lock is held (here: the
/// `unreserve` over-release assert) poisons the mutex; the pool must shrug the poison
/// off — accounting intact, audit clean, still able to reserve and allocate.
#[test]
fn page_pool_recovers_from_a_poisoned_state_lock() {
    let kv_dim = 64;
    let scheme = QuantScheme::mxfp4();
    let pool = PagePool::for_kv_rows(8, 4, RowCodec::for_scheme(scheme), kv_dim).shared();

    let unwound = catch_unwind(AssertUnwindSafe(|| pool.unreserve(1)));
    assert!(unwound.is_err(), "over-unreserving must panic (and poison the lock)");

    // Every accessor and mutation path goes through the poisoned mutex now.
    assert_eq!(pool.free_pages(), 8);
    assert_eq!(pool.reserved_pages(), 0, "the panicking unreserve must not have corrupted the count");
    pool.audit();
    assert!(pool.try_reserve(3));
    assert_eq!(pool.reserved_pages(), 3);
    pool.unreserve(3);
    let mut cache = PagedKvCache::new(&pool, 2, kv_dim, scheme, 8).expect("pool must still allocate");
    cache.release();
    pool.audit();
    assert_eq!(pool.free_pages(), pool.total_pages());
}

/// Faulted runs with tracing on tag the whole fault lifecycle on the `fault` category.
#[test]
fn fault_lifecycle_is_traced() {
    let mut engine = ServingEngine::paged(model(), 64)
        .with_threads(2)
        .with_telemetry(TelemetryConfig::On)
        .with_faults(FaultPlan::seeded(5).inject(FaultKind::WorkerPanic { worker: 0, job: 4 }))
        .with_recovery(RecoveryPolicy { checkpoint_every: 2, max_attempts: 5, backoff_passes: 1 });
    submit_workload(&mut engine, 12);
    let report = engine.run();
    assert_eq!(report.retries, 1);

    let trace = engine.take_trace().expect("telemetry was enabled");
    assert!(trace.categories().contains(&Category::Fault));
    for name in ["checkpoint", "worker_panic", "retry"] {
        assert!(
            trace.events().iter().any(|e| e.cat == Category::Fault && e.name == name),
            "missing fault-lifecycle event {name:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Chaos sweep: seeded kill/denial plans across thread counts. Invariants: the run
    /// always completes; retries are bounded by the scheduled panic count (each fires
    /// at most once); with panics ≤ 4 and a budget of 6 nothing can fail, so **every**
    /// sequence must be token-identical to the fault-free reference; and the pool
    /// drains to zero with clean accounting.
    #[test]
    fn chaos_faults_never_leak_or_diverge(
        seed in 0u64..10_000,
        kills in 0usize..=4,
        denials in 0usize..=3,
        threads in 1usize..=4,
    ) {
        let reference = reference_streams(10);
        let plan = FaultPlan::seeded(seed).kill_workers(kills, 10).deny_reservations(denials, 8);
        let mut engine = ServingEngine::paged(model(), 64)
            .with_threads(threads)
            .with_faults(plan)
            .with_recovery(RecoveryPolicy { checkpoint_every: 2, max_attempts: 6, backoff_passes: 1 });
        submit_workload(&mut engine, 10);
        let report = engine.run();

        prop_assert_eq!(report.failed, 0, "≤4 panics can never exhaust a 6-attempt budget");
        prop_assert!(report.retries <= kills, "each scheduled panic fires at most once");
        prop_assert_eq!(report.finished_length, 8);
        for (seq, expected) in engine.sequences().iter().zip(&reference) {
            prop_assert_eq!(&seq.generated, expected, "sequence {} diverged", seq.id);
        }
        let pool = engine.pool().expect("paged engine has a pool");
        pool.audit();
        prop_assert_eq!(pool.in_use_pages(), 0);
        prop_assert_eq!(pool.reserved_pages(), 0);
        let drained = engine.drain();
        prop_assert_eq!(drained.live(), 0);
    }
}
