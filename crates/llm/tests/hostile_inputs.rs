//! Hostile inputs cannot abort the engine or corrupt its output silently.
//!
//! A proptest draws [`SubmitOptions`], [`Sampling`] and [`RecoveryPolicy`] values from
//! the edges of their types — budgets up to `usize::MAX`; NaN, infinite, zero and
//! negative temperatures and `p`; `k = 0`; token ids at and past the vocabulary;
//! arrival, deadline, TTFT and backoff passes at `usize::MAX`; priorities at
//! `i32::MIN` / `i32::MAX` — and serves them on the paged and f32 backends at 1 and 2
//! threads, with one injected worker panic so the recovery policy is exercised. It
//! asserts that:
//!
//! * `submit_with` either accepts a submission or rejects it with one of the panics its
//!   `# Panics` section documents, leaving the sequence table unchanged;
//! * no panic escapes `run_for` or `drain`, and the page pool audits clean and ends
//!   with no page in use;
//! * every well-formed greedy sequence that finished `Length` equals `generate_greedy`.
//!
//! `run()` is never called: a submission arriving at pass `usize::MAX` keeps it idling
//! by design. `drain()` does finish every resident sequence, and the f32 backend serves
//! any budget, so there a budget past [`F32_BUDGET_CAP`] also carries a deadline.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use mx_llm::{
    FaultKind, FaultPlan, FinishReason, ModelConfig, ModelQuantConfig, RecoveryPolicy, Sampling, SamplingPolicy,
    ServingEngine, SubmitOptions, TransformerModel,
};
use proptest::prelude::*;

fn model() -> &'static TransformerModel {
    static MODEL: OnceLock<TransformerModel> = OnceLock::new();
    MODEL.get_or_init(|| TransformerModel::new(ModelConfig::tiny_test(41), ModelQuantConfig::a_mxfp4_plus()))
}

/// Largest budget the f32 backend is left to serve without a deadline.
const F32_BUDGET_CAP: usize = 64;

/// Pass by which a capped f32 submission must finish.
const F32_DEADLINE: usize = 24;

/// Draws one entry of `pool`, consuming the low digits of `bits` in base `pool.len()`.
fn pick<T: Copy>(bits: &mut u64, pool: &[T]) -> T {
    let value = pool[(*bits % pool.len() as u64) as usize];
    *bits /= pool.len() as u64;
    value
}

/// One hostile submission derived from 64 random bits: its prompt and options.
fn submission(mut bits: u64, vocab: usize, paged: bool) -> (Vec<usize>, SubmitOptions) {
    let b = &mut bits;
    let prefix = pick(b, &[0usize, 3, 17, 33]);
    let mut prompt: Vec<usize> = (0..prefix).map(|i| (i * 7 + 3) % vocab).collect();
    prompt.extend((0..pick(b, &[0usize, 1, 2, 5])).map(|i| (i * 13 + prefix) % vocab));
    // Repeated entries weight a pool, so that most submissions are well formed and the
    // token-identity check has sequences to compare.
    if let Some(bad) = pick(b, &[None, None, None, None, None, None, None, Some(vocab), Some(usize::MAX)]) {
        if !prompt.is_empty() {
            let at = prompt.len() / 2;
            prompt[at] = bad;
        }
    }
    let temperature = pick(b, &[f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -1.0, 0.7, 1.0]);
    let policy = match pick(b, &[0u8, 0, 0, 1, 2]) {
        0 => SamplingPolicy::Greedy,
        1 => SamplingPolicy::TopK { k: pick(b, &[0usize, 1, 4, usize::MAX]) },
        _ => SamplingPolicy::TopP { p: pick(b, &[f32::NAN, f32::INFINITY, -0.5, 0.0, 0.9, 1.0, 1.5]) },
    };
    let mut opts = SubmitOptions::new(pick(b, &[0usize, 1, 3, 8, 8, 12, 1 << 40, usize::MAX]))
        .stop_token(pick(b, &[None, None, Some(5), Some(usize::MAX)]))
        .sampling(Sampling { policy, temperature, seed: pick(b, &[0u64, 7, u64::MAX]) })
        .priority(pick(b, &[0, 0, 1, -1, i32::MIN, i32::MAX]))
        .arrival_pass(pick(b, &[0usize, 0, 0, 1, 3, usize::MAX]));
    opts.deadline_pass = pick(b, &[None, None, None, Some(0), Some(2), Some(usize::MAX)]);
    opts.ttft_deadline = pick(b, &[None, None, None, Some(0), Some(1), Some(usize::MAX)]);
    opts.share_prefix = pick(b, &[true, false]);
    if !paged && opts.max_new_tokens > F32_BUDGET_CAP {
        opts.deadline_pass = Some(opts.deadline_pass.map_or(F32_DEADLINE, |d| d.min(F32_DEADLINE)));
    }
    (prompt, opts)
}

/// Whether `submit_with` documents a panic for this submission.
fn rejected(prompt: &[usize], opts: &SubmitOptions, vocab: usize) -> bool {
    let Sampling { policy, temperature, .. } = opts.sampling;
    let bad_policy = match policy {
        SamplingPolicy::Greedy => false,
        SamplingPolicy::TopK { k } => k == 0,
        SamplingPolicy::TopP { p } => !(p > 0.0 && p <= 1.0),
    };
    let bad_temperature = policy != SamplingPolicy::Greedy && !(temperature.is_finite() && temperature > 0.0);
    prompt.is_empty() || prompt.iter().any(|&t| t >= vocab) || bad_policy || bad_temperature
}

fn recovery_policy(mut bits: u64) -> RecoveryPolicy {
    let b = &mut bits;
    RecoveryPolicy {
        checkpoint_every: pick(b, &[0usize, 1, 2, usize::MAX]),
        max_attempts: pick(b, &[0usize, 1, 3, usize::MAX]),
        backoff_passes: pick(b, &[0usize, 1, usize::MAX]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn hostile_submissions_never_escape_a_panic_or_change_tokens(
        subs in prop::collection::vec(0u64..u64::MAX, 3..8),
        policy_bits in 0u64..u64::MAX,
        panic_job in 1u64..12,
    ) {
        let model = model();
        let vocab = model.config().vocab;
        let policy = recovery_policy(policy_bits);
        for (paged, threads) in [(true, 1usize), (true, 2), (false, 1), (false, 2)] {
            let plan = FaultPlan::seeded(policy_bits).inject(FaultKind::WorkerPanic { worker: 0, job: panic_job });
            let engine = if paged { ServingEngine::paged(model, 24) } else { ServingEngine::new(model) };
            let mut engine = engine.with_threads(threads).with_faults(plan).with_recovery(policy);
            let mut accepted = Vec::new();
            for &bits in &subs {
                let (prompt, opts) = submission(bits, vocab, paged);
                let before = engine.sequences().len();
                let submitted = catch_unwind(AssertUnwindSafe(|| engine.submit_with(&prompt, opts))).is_ok();
                prop_assert_eq!(submitted, !rejected(&prompt, &opts, vocab), "{:?} {:?}", prompt, opts);
                prop_assert_eq!(engine.sequences().len(), before + usize::from(submitted));
                if submitted {
                    accepted.push((prompt, opts));
                }
            }

            // A panic escaping either call fails the test here.
            engine.run_for(10);
            engine.drain();

            if let Some(pool) = engine.pool() {
                pool.audit();
                prop_assert_eq!((pool.in_use_pages(), pool.reserved_pages()), (0, 0), "paged {} t{}", paged, threads);
            }
            for (seq, (prompt, opts)) in engine.sequences().iter().zip(&accepted) {
                if seq.finish_reason() == Some(FinishReason::Length) && opts.sampling.policy == SamplingPolicy::Greedy {
                    prop_assert_eq!(
                        &seq.generated,
                        &model.generate_greedy(prompt, seq.generated.len()),
                        "paged {} t{}: sequence {} {:?}", paged, threads, seq.id, opts
                    );
                }
            }
        }
    }
}
