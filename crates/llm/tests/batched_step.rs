//! The batched decode step: one ragged forward over every sequence of a pass.
//!
//! * **Model:** [`TransformerModel::forward_batch_with_scratch`] over ragged segments —
//!   1-row decodes at mixed contexts, a fresh-cache prefill, a prefill that continues a
//!   cache, and a donor/recipient pair decoding over the donor's published prefix pages,
//!   each into a boundary page of its own — gives every segment the bits of its own
//!   one-segment forward, on the f32 and paged backends, with code-panel and
//!   matrix-store weights.
//! * **Engine:** a fault addressed to one job of a batched pass costs only that
//!   sequence: it alone is retried, its batch-mates still share the pass's batched
//!   forward and are never rolled back, and every stream equals the fault-free run.

use std::sync::{Mutex, MutexGuard};

use mx_formats::kernels::force_scalar;
use mx_formats::{QuantScheme, RowCodec};
use mx_llm::{
    prefix_keys, Category, EventKind, FaultKind, FaultPlan, KvBackend, KvCache, ModelConfig, ModelQuantConfig,
    PagePool, PagedKvCache, ServingEngine, SubmitOptions, TelemetryConfig, TransformerModel,
};

/// `force_scalar` is process-global: tests in this file take turns so a model built by
/// one never lands in another's forced-scalar window.
static FORCE_LOCK: Mutex<()> = Mutex::new(());

fn serialized() -> MutexGuard<'static, ()> {
    FORCE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Positions per page of the paged caches: the 10-token shared prefix spans two full
/// pages, which the recipient maps, plus a partially filled boundary page, which it
/// prefills itself.
const PAGE_POSITIONS: usize = 4;
/// Capacity of every cache, in positions.
const CAPACITY: usize = 32;

fn tokens(len: usize, salt: usize) -> Vec<usize> {
    (0..len).map(|i| (i * 7 + salt * 13 + 1) % 128).collect()
}

/// `(cached prefix, new tokens)` of every segment. The last two share a 10-token prefix:
/// the donor, then the recipient (on the paged backend it maps the donor's full pages).
fn layout() -> Vec<(Vec<usize>, Vec<usize>)> {
    let shared = tokens(10, 5);
    vec![
        (tokens(3, 0), vec![5]),      // decode at a short context
        (tokens(17, 1), vec![9]),     // decode at a longer context
        (Vec::new(), tokens(9, 2)),   // prefill into a fresh cache
        (tokens(5, 3), tokens(6, 4)), // prefill continuing a cache
        (shared.clone(), vec![40]),   // the donor decodes into its boundary page
        (shared, vec![41]),           // the recipient decodes across the same page
    ]
}

fn prefilled<B: KvBackend>(model: &TransformerModel, mut cache: B, prefix: &[usize]) -> B {
    if !prefix.is_empty() {
        let _ = model.forward_backend(prefix, &mut cache);
    }
    cache
}

fn f32_segments(model: &TransformerModel) -> Vec<(Vec<usize>, KvCache)> {
    layout().into_iter().map(|(prefix, new)| (new, prefilled(model, model.new_cache(), &prefix))).collect()
}

fn paged_segments(model: &TransformerModel, pool: &std::sync::Arc<PagePool>) -> Vec<(Vec<usize>, PagedKvCache)> {
    let cfg = model.config();
    let (layers, kv_dim, scheme) = (cfg.layers, cfg.head_dim() * cfg.kv_heads, model.quant().kv_cache);
    let mut layout = layout();
    let (_, recipient_tokens) = layout.pop().expect("layout ends with the recipient");
    let mut segments: Vec<(Vec<usize>, PagedKvCache)> = layout
        .into_iter()
        .map(|(prefix, new)| {
            let cache = PagedKvCache::new(pool, layers, kv_dim, scheme, CAPACITY).expect("pool fits every cache");
            (new, prefilled(model, cache, &prefix))
        })
        .collect();
    let shared = tokens(10, 5);
    let keys = prefix_keys(&shared, PAGE_POSITIONS);
    let donor = &mut segments.last_mut().expect("layout holds the donor").1;
    assert_ne!(donor.seq_len() % PAGE_POSITIONS, 0, "the shared prefix must end inside a page");
    donor.publish(&shared, &keys);
    let recipient = PagedKvCache::with_prefix(pool, layers, kv_dim, scheme, CAPACITY, &shared, &keys)
        .expect("pool fits the recipient");
    assert_eq!(recipient.seq_len(), 2 * PAGE_POSITIONS, "the recipient maps the two full pages");
    segments.push((recipient_tokens, prefilled(model, recipient, &shared[2 * PAGE_POSITIONS..])));
    segments
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|v| v.to_bits()).collect()
}

/// Runs `batched` as one batched forward and every segment of `solo` (an identical
/// copy) on its own, then checks both the logits and the appended cache rows agree bit
/// for bit.
fn assert_batch_matches_solo<B: KvBackend>(
    model: &TransformerModel,
    mut batched: Vec<(Vec<usize>, B)>,
    mut solo: Vec<(Vec<usize>, B)>,
    label: &str,
) {
    let mut scratch = B::Scratch::default();
    let logits = {
        let mut segments: Vec<(&[usize], &mut B)> = batched.iter_mut().map(|(t, c)| (t.as_slice(), c)).collect();
        model.forward_batch_with_scratch(&mut segments, &mut scratch)
    };
    let mut row = 0;
    for (segment, (new, cache)) in solo.iter_mut().enumerate() {
        let alone = model.forward_backend_with_scratch(new, cache, &mut scratch);
        for r in 0..alone.rows() {
            assert_eq!(bits(logits.row(row + r)), bits(alone.row(r)), "{label}: segment {segment} row {r}");
        }
        row += alone.rows();
    }
    assert_eq!(row, logits.rows(), "{label}: one logits row per input token");
    // The K/V rows each segment appended are the same too: one more decode reads them.
    for (segment, ((_, b), (_, s))) in batched.iter_mut().zip(&mut solo).enumerate() {
        assert_eq!(b.seq_len(), s.seq_len(), "{label}: segment {segment} length");
        let after_b = model.decode_step_backend_with_scratch(3, b, &mut scratch);
        let after_s = model.decode_step_backend_with_scratch(3, s, &mut scratch);
        assert_eq!(bits(&after_b), bits(&after_s), "{label}: segment {segment} cache rows");
    }
}

#[test]
fn batched_forward_equals_each_segment_alone() {
    let _guard = serialized();
    let configs = [
        ("A-MXFP4+", ModelQuantConfig::a_mxfp4_plus(), false),
        ("BASELINE", ModelQuantConfig::BASELINE, false),
        ("MXFP6", ModelQuantConfig::uniform(QuantScheme::mxfp6()), false),
        ("A-MXFP4+ cast under force_scalar", ModelQuantConfig::a_mxfp4_plus(), true),
    ];
    for (name, quant, cast_scalar) in configs {
        // A cast under forced-scalar kernels keeps the row-major matrix store even on
        // an AVX2 host; the forward itself then runs on the dispatched kernels.
        force_scalar(cast_scalar);
        let model = TransformerModel::new(ModelConfig::tiny_test(31), quant);
        force_scalar(false);

        assert_batch_matches_solo(&model, f32_segments(&model), f32_segments(&model), &format!("{name} f32"));

        let cfg = model.config();
        let codec = RowCodec::for_scheme(quant.kv_cache);
        let pool = PagePool::for_kv_rows(512, PAGE_POSITIONS, codec, cfg.head_dim() * cfg.kv_heads).shared();
        let (batched, solo) = (paged_segments(&model, &pool), paged_segments(&model, &pool));
        assert_batch_matches_solo(&model, batched, solo, &format!("{name} paged"));
        assert_eq!(pool.in_use_pages(), 0, "{name}: pages leaked");
    }
}

/// Nine sequences with distinct prompts on a pool that admits them all at pass 0.
fn run_engine(threads: usize, faults: Option<FaultPlan>) -> (ServingEngine<'static>, mx_llm::ServingReport) {
    static MODEL: std::sync::OnceLock<TransformerModel> = std::sync::OnceLock::new();
    let model =
        MODEL.get_or_init(|| TransformerModel::new(ModelConfig::tiny_test(37), ModelQuantConfig::a_mxfp4_plus()));
    let mut engine = ServingEngine::paged(model, 64).with_threads(threads).with_telemetry(TelemetryConfig::On);
    if let Some(plan) = faults {
        engine = engine.with_faults(plan);
    }
    for s in 0..9 {
        engine.submit_with(&tokens(3 + s % 4, 20 + s), SubmitOptions::new(12));
    }
    let report = engine.run();
    (engine, report)
}

#[test]
fn a_fault_in_a_batched_pass_costs_only_its_sequence() {
    let _guard = serialized();
    // Pass 0 prefills all nine sequences (one job each) and emits their first tokens;
    // pass 1 decodes them, each worker's contiguous chunk as one batch. The fault
    // targets the second job of worker 0's pass-1 batch at one thread (jobs 10..=18,
    // nine to a batch) and of worker 1's at three threads (jobs 4..=6, three to a
    // batch): sequence 4 both times.
    for (threads, worker, job, batch) in [(1usize, 0usize, 14u64, 9u64), (3, 1, 5, 3)] {
        let (clean, clean_report) = run_engine(threads, None);
        let plan = FaultPlan::seeded(1).inject(FaultKind::WorkerPanic { worker, job });
        let (mut faulty, report) = run_engine(threads, Some(plan));
        assert_eq!(report.retries, 1, "{threads} threads: exactly the faulted sequence retries");
        assert_eq!(report.failed, 0);
        for (a, b) in clean.sequences().iter().zip(faulty.sequences()) {
            assert_eq!(a.generated, b.generated, "{threads} threads: sequence {} diverged", a.id);
            let expected = usize::from(b.id == 4);
            assert_eq!(b.attempts(), expected, "{threads} threads: sequence {} attempts", b.id);
        }
        // The faulted sequence emitted its first token in pass 0, before the fault, and
        // its replay from scratch emits it again.
        assert_eq!(report.generated_tokens, clean_report.generated_tokens + 1);

        // The batch-mates still shared one batched forward in the faulted pass: the last
        // forward the faulted lane opened before the panic was reported decoded every
        // sequence of its chunk but the faulted one.
        let trace = faulty.take_trace().expect("telemetry was enabled");
        let lane = worker as u32 + 1;
        let panic_ts = trace
            .events()
            .iter()
            .find(|e| e.cat == Category::Fault && e.name == "worker_panic")
            .map(|e| e.ts_nanos)
            .expect("the panic was traced");
        let mates = trace
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Begin && e.name == "forward" && e.lane == lane)
            .filter(|e| e.ts_nanos <= panic_ts)
            .max_by_key(|e| e.ts_nanos)
            .map(|e| e.arg);
        assert_eq!(mates, Some(batch - 1), "{threads} threads: batch-mates of the faulted job");
    }
}
