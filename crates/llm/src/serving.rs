//! A continuous-batching serving engine on top of the zero-copy decode path, stepping
//! each pass's sequences in a fork-join across decode worker threads.
//!
//! The engine owns a queue of sequences and advances every active one per scheduler
//! pass, decoding them together: a worker's sequences share one batched forward
//! ([`TransformerModel::forward_batch_with_scratch`]) whose projections run once
//! over every row while attention runs per sequence. A decoding sequence feeds it one
//! row; a prefilling one feeds the next chunk of its prompt, under a budget of
//! [`PREFILL_BUDGET`] prompt rows per forward, so a long prompt no longer stalls the
//! decodes of its pass. Two cache backends are supported:
//!
//! * **f32-contiguous** ([`ServingEngine::new`]): every submitted sequence is admitted
//!   up front with its own pre-reserved [`KvCache`] of dequantized rows — the accuracy /
//!   bit-exactness baseline.
//! * **paged-packed** ([`ServingEngine::paged`]): sequences share a fixed-budget
//!   [`PagePool`] whose pages hold **genuinely bit-packed** rows
//!   ([`PagedKvCache`]). Admission is a page *reservation* for the sequence's worst case
//!   (prompt + generation budget), so the scheduler practices true **continuous
//!   batching**: submissions that do not fit wait in the queue and are admitted mid-run
//!   as finishing sequences return their pages; submissions whose worst case exceeds the
//!   whole pool are reported as [`FinishReason::Evicted`] — the *only* thing that
//!   reason is for, now that preemption handles mere pressure.
//!
//! ## Prefix sharing and preemption
//!
//! On the paged backend the page pool is also the engine's prefix cache (see
//! [`crate::paging`]):
//!
//! * **Prefix sharing** — at every pass boundary the coordinator publishes each full
//!   prompt page that an active or finishing sequence has written and not yet published
//!   ([`PagedKvCache::publish`]), keyed by the prompt's chain hash at that page and the
//!   layer. Admission maps the longest keyed run of a new prompt straight into the new
//!   sequence's table ([`PagedKvCache::with_prefix`]), whether a live sequence still
//!   holds those pages or their last holder left the pool passes ago: a released keyed
//!   page stays home, counted as free, and mappable until an allocation evicts it. The
//!   mapped positions are never re-prefilled and cost **zero** new pages — N sequences
//!   sharing a long prompt keep one copy of it resident. Sharing is whole-page and the
//!   last prompt position always runs again, so outputs stay bit-identical to unshared
//!   decoding ([`ServingReport::shared_pages`], [`ServingReport::prefill_tokens_saved`]
//!   quantify the win). When an admitted sequence has announced a prompt's next page
//!   and not yet written it, admission waits a pass and maps the page rather than
//!   prefill it a second time.
//! * **Preemption** — when a higher-priority submission ([`SubmitOptions::priority`])
//!   cannot reserve its worst case, the scheduler spills strictly lower-priority running
//!   sequences to host memory ([`PagedKvCache::spill`]) instead of refusing admission;
//!   the victims re-enter the queue and are later restored bit-identically
//!   ([`ServingReport::preemptions`] counts the swaps). A victim's keyed pages stay home
//!   and mappable, so spilling the last holder of a prefix loses no share.
//!
//! ## Threading model
//!
//! Within a scheduler pass, per-sequence work (a prompt chunk per pass until the prompt
//! is cached, then one decode step per pass) is embarrassingly parallel: every sequence
//! exclusively owns its cache pages (shared prefix pages are immutable behind their
//! refcount) and its sampler state, and the model weights are read-only. Each pass is
//! therefore one **fork-join** over the sequence table: the coordinator cuts the active
//! sequences into `num_threads` contiguous chunks ([`ServingEngine::with_threads`];
//! default = available parallelism), steps chunk 0 itself and every other chunk on a
//! [`std::thread::scope`] thread of its own, and each chunk borrows its sequences in
//! place. Worker `w` keeps one reusable [`PagedScratch`] and one trace recorder (lane
//! `w + 1`) for the whole run, at every thread count; one thread spawns nothing.
//!
//! A chunk is **one batched step**: each prefilling sequence, in submission order, is
//! granted the next chunk of its prompt from what is left of the chunk's
//! [`PREFILL_BUDGET`] (one granted nothing waits a pass), and then every decode row and
//! prompt chunk joins one batched forward. Prefill continues from the cache's own
//! length, so a chunk needs no state of its own. Only the rows that get sampled reach
//! the lm_head: each decode row, which feeds the sequence's last emitted token, and the
//! last row of a chunk that completes its prompt. Each sequence samples with its own
//! RNG and emits the token in the pass that sampled it, finishing there on its stop
//! token or budget. The **coordinator** keeps everything that mutates shared scheduling
//! state: admission (page reservation, priority-then-FCFS order, prefix mapping),
//! preemption, eviction, occupancy sampling, prefix publication and retirement —
//! returning a finished sequence's pages to the pool between passes, which is what funds
//! mid-run admissions. Because sequences are independent — everything outside attention is
//! row-independent, so a sequence's logits do not depend on its batch-mates, and a
//! chunk's attention reads the earlier chunks back from the cache exactly as a whole
//! prefill reads its own rows — the generated streams are **token-identical for every
//! `num_threads`** and do not depend on where the chunk boundaries fall;
//! `num_threads = 1` steps every sequence in submission order as one batch.
//!
//! Sequences finish on their length budget or on a per-sequence stop token, each
//! recorded as a [`FinishReason`]; next-token selection is greedy by default or seeded
//! top-k / top-p per sequence. All of it is configured through one [`SubmitOptions`]
//! builder ([`ServingEngine::submit_with`]). The [`ServingReport`] distinguishes the
//! cache's **theoretical** scheme bytes from the **measured resident** bytes actually
//! allocated, and reports wall-clock throughput
//! ([`ServingReport::tokens_per_sec_parallel`]) next to the summed-across-workers decode
//! rate.
//!
//! ## Observability
//!
//! Every run measures per-request latency: [`ServingReport::latency`] carries TTFT,
//! TPOT, scheduler-pass and queue-wait quantiles built from always-on
//! [`mx_telemetry::Histogram`]s, and [`ServingReport::worker_decode_steps`] exposes the
//! scheduler's per-worker step skew. *Event tracing* is opt-in
//! ([`ServingEngine::with_telemetry`]): when enabled, the coordinator and every decode
//! worker record lifecycle instants (submitted → admitted → first_token → preempted /
//! restored / evicted → retired), pass spans, one `forward` span per batched forward
//! (carrying its decode sequence count, with one `prefill_chunk` instant naming each
//! sequence whose prompt chunk rode it) and occupancy gauges into per-thread shards, and [`ServingEngine::take_trace`] returns the merged
//! [`mx_telemetry::Trace`] for Chrome trace-event export. Recording never takes a lock
//! on the step path, and a disabled hub reduces every event site to one branch —
//! generated tokens are identical with telemetry on or off.
//!
//! ## Fault tolerance
//!
//! Failure is a first-class, deterministically testable input ([`crate::fault`]):
//!
//! * **Containment** — every step runs under `catch_unwind`: each sequence's own part
//!   of a batched step (its injected fault) under its own, and the shared batched
//!   forward — decode rows, prompt chunks and sampling alike — under one more. A seeded
//!   [`FaultPlan`] injection (via [`ServingEngine::with_faults`]) therefore costs
//!   exactly one sequence's in-flight pass, never the run; a genuine panic inside the
//!   shared forward may leave partial K/V appends in any member's cache, so it rolls
//!   back every sequence of that batch, prefilling members included. Prompt ids outside
//!   the vocabulary are refused at [`ServingEngine::submit_with`], so a prompt cannot
//!   cause one. The worker thread survives every caught panic, and the coordinator
//!   rolls each lost sequence back to its last periodic checkpoint
//!   ([`PagedKvCache::checkpoint`], every [`RecoveryPolicy::checkpoint_every`] passes),
//!   retrying with bounded attempts and backoff-in-passes; replay from a bit-exact
//!   checkpoint keeps retried sequences — and trivially every untouched one —
//!   token-identical to a fault-free run. A sequence that exhausts its attempts
//!   finishes as [`FinishReason::Failed`]. A panic that escapes the step's own
//!   `catch_unwind`s ends its thread, and the join finishes that chunk's sequences as
//!   [`FinishReason::Failed`] without a retry. The scheduler's counters (passes,
//!   per-worker jobs, admission attempts) run over the engine's whole life, so
//!   arrivals, deadlines, retry backoff and fault coordinates mean the same under one
//!   [`ServingEngine::run`] as under a loop of [`ServingEngine::run_for`]`(1)` calls.
//! * **Deadlines** — [`SubmitOptions::deadline_pass`] / [`SubmitOptions::ttft_deadline`]
//!   finish overdue sequences as [`FinishReason::DeadlineExceeded`] instead of letting
//!   them occupy pages past their usefulness.
//! * **Load shedding** — with [`ServingEngine::with_shed_watermark`], queued
//!   never-admitted submissions whose worst-case demand would push the pool past the
//!   watermark are refused as [`FinishReason::Shed`], lowest priority first — explicit
//!   refusal instead of silent starvation.
//! * **Drain/shutdown** — [`ServingEngine::run_for`] bounds a run by passes,
//!   [`ServingEngine::drain`] finishes live sequences with admissions frozen, and
//!   [`ServingEngine::shutdown`] spills them to host buffers immediately; both leave
//!   the pool drained and report the leftover population as a [`DrainReport`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mx_formats::{QuantScheme, RowCodec};
use mx_telemetry::{Category, Histogram, LatencySummary, QuantileSummary, Recorder, Telemetry, TelemetryConfig, Trace};

use crate::fault::{FaultPlan, FaultState, InjectedFault, RecoveryPolicy};
use crate::kvcache::{KvBackend, KvCache, LayerKvCache};
use crate::model::TransformerModel;
use crate::paging::{prefix_keys, PagePool, PagedKvCache, PagedScratch, SpilledKv, DEFAULT_PAGE_POSITIONS};
use crate::sampling::{sample_token, Sampling, SeqRng};

/// Prompt rows one batched forward carries at most: each pass, every sequence still
/// prefilling takes the next chunk of its prompt from what is left of this budget, in
/// submission order, and one granted no rows waits for a later pass. Decode rows never
/// wait for it. Each worker's chunk gets the whole budget. 64 rows are four
/// 16-position pages.
pub const PREFILL_BUDGET: usize = 64;

/// Why a sequence stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinishReason {
    /// The generation budget (`max_new_tokens`) was reached.
    Length,
    /// The sequence produced its stop token (the stop token itself is not emitted).
    Stop,
    /// The sequence could never be admitted: its worst-case page footprint exceeds the
    /// entire pool budget.
    Evicted,
    /// The sequence was lost to worker panics more times than the
    /// [`RecoveryPolicy::max_attempts`] retry budget allows; `attempts` is the total
    /// number of times it was attempted.
    Failed {
        /// Times the sequence was attempted before giving up.
        attempts: usize,
    },
    /// The sequence missed its [`SubmitOptions::deadline_pass`] or
    /// [`SubmitOptions::ttft_deadline`] and was finished by the deadline sweep.
    DeadlineExceeded,
    /// The sequence was refused by priority-ordered load shedding before ever being
    /// admitted (see [`ServingEngine::with_shed_watermark`]).
    Shed,
}

/// Cache state of one sequence across its lifecycle.
#[derive(Debug)]
enum SeqCache {
    /// Submitted, not yet admitted (no storage held).
    Waiting,
    /// Active or finished on the f32-contiguous backend (storage retained for inspection).
    F32(KvCache),
    /// Active on the paged-packed backend.
    Paged(PagedKvCache),
    /// Preempted: pages swapped out to a host-side spill buffer, waiting to be
    /// re-admitted and restored bit-identically.
    Spilled { spilled: SpilledKv },
    /// Finished on the paged backend: pages returned to the pool, only the final
    /// position count is kept for accounting.
    Retired { positions: usize },
}

/// A retryable sequence's recovery snapshot, taken at a pass boundary: the bit-exact
/// page bytes ([`PagedKvCache::checkpoint`]) plus the sampler and bookkeeping state
/// needed to replay from that point. Restoring it after a worker panic reproduces the
/// fault-free token stream exactly, because replay is deterministic.
#[derive(Debug)]
struct Checkpoint {
    spilled: SpilledKv,
    generated: Vec<usize>,
    rng: SeqRng,
    shared_positions: usize,
}

/// One sequence being served.
#[derive(Debug)]
pub struct Sequence {
    /// Caller-visible id (submission order).
    pub id: usize,
    /// The prompt the sequence was submitted with.
    pub prompt: Vec<usize>,
    /// Tokens generated so far.
    pub generated: Vec<usize>,
    /// Generation budget for this sequence.
    pub max_new_tokens: usize,
    /// Token id that terminates the sequence early (never emitted).
    pub stop_token: Option<usize>,
    /// How this sequence picks its next token (greedy unless submitted with sampling).
    pub sampling: Sampling,
    /// Scheduling priority (see [`SubmitOptions::priority`]): higher admits first and
    /// may preempt strictly lower under pool pressure.
    pub priority: i32,
    /// Scheduler pass at which this submission becomes visible to admission
    /// (see [`SubmitOptions::arrival_pass`]).
    pub arrival_pass: usize,
    /// The prompt's prefix-cache keys ([`prefix_keys`]), computed once at submit time:
    /// `prefix_hashes[k]` covers `prompt[..(k + 1) * page_positions]`. Empty on the f32
    /// backend and for a sequence submitted without prefix sharing, which then neither
    /// maps nor publishes a page.
    prefix_hashes: Vec<u64>,
    /// Prompt positions mapped from the pool's keyed pages at admission (0 when nothing
    /// was shared); prefill skips exactly these positions.
    shared_positions: usize,
    /// This sequence's own RNG stream — owned, so sampling needs no cross-thread state.
    rng: SeqRng,
    finish: Option<FinishReason>,
    cache: SeqCache,
    /// Hub-clock reading when the submission first became visible to the scheduler.
    submitted_ns: Option<u64>,
    /// Hub-clock reading from which the sequence's next admission is a queue wait: when
    /// it became visible, or when preemption spilled it. The admission that ends the
    /// wait records it into [`ServingEngine::queue_wait`] and clears the anchor, so a
    /// re-admission after a worker panic adds no sample.
    queued_ns: Option<u64>,
    /// Hub-clock reading when the first generated token became caller-visible, in the
    /// pass that sampled it.
    first_token_ns: Option<u64>,
    /// Whether the coordinator has emitted this sequence's `retired` lifecycle event.
    finish_logged: bool,
    /// Pass by which the sequence must have finished, else the deadline sweep ends it.
    deadline_pass: Option<usize>,
    /// Passes after arrival by which the first token must exist, else the sweep ends it.
    ttft_deadline: Option<usize>,
    /// Times this sequence has been attempted (incremented per worker-panic loss).
    attempts: usize,
    /// Earliest pass at which a rolled-back sequence becomes admissible again (retry
    /// backoff; 0 = immediately).
    retry_at_pass: usize,
    /// Last recovery snapshot, refreshed every `checkpoint_every` passes while the
    /// engine runs with faults or an explicit recovery policy; dropped at retirement.
    checkpoint: Option<Box<Checkpoint>>,
}

impl Sequence {
    /// Whether the sequence has finished (see [`Sequence::finish_reason`]).
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.finish.is_some()
    }

    /// Why the sequence finished, or `None` while it is waiting/active.
    #[must_use]
    pub fn finish_reason(&self) -> Option<FinishReason> {
        self.finish
    }

    /// Positions this sequence holds (or held, once retired) in its KV cache. A
    /// preempted sequence reports the positions parked in its spill buffer.
    #[must_use]
    pub fn cached_positions(&self) -> usize {
        match &self.cache {
            SeqCache::Waiting => 0,
            SeqCache::F32(c) => c.seq_len(),
            SeqCache::Paged(c) => c.seq_len(),
            SeqCache::Spilled { spilled } => spilled.positions(),
            SeqCache::Retired { positions } => *positions,
        }
    }

    /// Prompt positions this sequence mapped from the pool's keyed pages at admission
    /// instead of re-prefilling (0 when nothing was shared). Always whole pages.
    #[must_use]
    pub fn shared_positions(&self) -> usize {
        self.shared_positions
    }

    /// Times this sequence has been attempted so far: 0 while it has never lost a step
    /// to a worker panic, `n` after `n` rollback/retry rounds. A sequence finished as
    /// [`FinishReason::Failed`] carries its final count in the reason as well.
    #[must_use]
    pub fn attempts(&self) -> usize {
        self.attempts
    }

    /// Marks the sequence finished. Pages are *not* reclaimed here — that is the
    /// coordinator's job ([`Sequence::retire`]), so workers never touch the pool's
    /// accounting mid-pass.
    fn finish(&mut self, reason: FinishReason) {
        self.finish = Some(reason);
    }

    /// The positions its cache may hold: prompt plus generation budget, saturating, so a
    /// budget past any pool reads as too large for it instead of overflowing.
    fn capacity(&self) -> usize {
        self.prompt.len().saturating_add(self.max_new_tokens)
    }

    /// Publishes the full prompt pages this sequence's paged cache has written into the
    /// pool's prefix cache (coordinator-only, at the pass boundary and before
    /// retirement, so live and finishing sequences are one case). A sequence that lost
    /// its step to a panic publishes nothing: its cache is suspect.
    fn publish(&mut self) {
        if let SeqCache::Paged(cache) = &mut self.cache {
            if !matches!(self.finish, Some(FinishReason::Failed { .. })) {
                cache.publish(&self.prompt, &self.prefix_hashes);
            }
        }
    }

    /// Returns a finished paged sequence's pages to the pool (coordinator-only; see the
    /// [module docs](crate::serving)). Dropping the paged cache frees its pages — this
    /// is what funds the admission of queued sequences. A finished sequence parked in a
    /// spill buffer (deadline-exceeded while preempted, say) drops the host bytes the
    /// same way, and any recovery checkpoint goes with it.
    fn retire(&mut self) {
        if self.finish.is_some() {
            match &self.cache {
                SeqCache::Paged(cache) => {
                    let positions = cache.seq_len();
                    self.cache = SeqCache::Retired { positions };
                }
                SeqCache::Spilled { spilled } => {
                    let positions = spilled.positions();
                    self.cache = SeqCache::Retired { positions };
                }
                _ => {}
            }
            self.checkpoint = None;
        }
    }

    /// Draws this sequence's next token from `logits` with its own sampler state.
    fn sample(&mut self, logits: &[f32]) -> usize {
        sample_token(logits, &self.sampling, &mut self.rng)
    }

    /// Whether an unfinished sequence has its whole prompt cached. The chunk that
    /// completes a prompt samples the first token, which the sequence emits or finishes
    /// on, so from then on it has emitted a token to feed its next decode row.
    fn prefilled(&self) -> bool {
        !self.generated.is_empty()
    }

    /// What this sequence asks of its pass's batched forward (see [`step_batch`]): one
    /// decode row once prefilled, else the rest of its prompt, the positions past its
    /// cache's length, of which [`step_batch`] grants a chunk under the chunk's
    /// [`PREFILL_BUDGET`].
    fn wants(&self) -> Rows {
        if self.prefilled() {
            Rows::Decode
        } else {
            Rows::Prompt(self.prompt.len() - self.cached_positions())
        }
    }

    /// Takes the token just sampled from this sequence's logits, in the pass that
    /// sampled it: the stop token finishes the sequence without being emitted, any other
    /// is emitted, and the sequence finishes once it has emitted its budget. So the
    /// budgeted last token never runs a forward of its own, which would only produce
    /// logits (and a cache row) that are thrown away.
    fn emit(&mut self, token: usize) {
        if self.stop_token == Some(token) {
            self.finish(FinishReason::Stop);
            return;
        }
        // A zero-budget sequence finishes without emitting anything.
        if self.generated.len() < self.max_new_tokens {
            self.generated.push(token);
        }
        if self.generated.len() >= self.max_new_tokens {
            self.finish(FinishReason::Length);
        }
    }
}

impl SeqCache {
    /// The f32 cache of an active f32-backend sequence.
    fn f32_mut(&mut self) -> Option<&mut KvCache> {
        match self {
            SeqCache::F32(cache) => Some(cache),
            _ => None,
        }
    }

    /// The paged cache of an active paged-backend sequence.
    fn paged_mut(&mut self) -> Option<&mut PagedKvCache> {
        match self {
            SeqCache::Paged(cache) => Some(cache),
            _ => None,
        }
    }
}

/// Throughput and memory report for one [`ServingEngine::run`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingReport {
    /// Display name of the KV-cache quantization scheme.
    pub scheme: String,
    /// Cache backend the run used: `"paged-packed"` or `"f32-contiguous"`.
    pub backend: &'static str,
    /// Number of sequences submitted to the engine.
    pub sequences: usize,
    /// Sequences that finished by exhausting their generation budget.
    pub finished_length: usize,
    /// Sequences that finished on their stop token.
    pub finished_stop: usize,
    /// Sequences evicted because they can never fit the page budget.
    pub evicted: usize,
    /// Sequences that exhausted their retry budget after repeated worker-panic losses
    /// ([`FinishReason::Failed`]).
    pub failed: usize,
    /// Sequences finished by the deadline sweep ([`FinishReason::DeadlineExceeded`]).
    pub deadline_misses: usize,
    /// Sequences refused by priority-ordered load shedding ([`FinishReason::Shed`]).
    pub shed: usize,
    /// Checkpoint-rollback retries scheduled after losing a sequence's in-flight step
    /// to a (real or injected) panic, every one contained without taking the run down
    /// (see [`RecoveryPolicy`]).
    pub retries: usize,
    /// Scheduler passes this call executed (the engine's own pass count runs on across
    /// calls).
    pub passes: usize,
    /// Total prompt tokens prefilled.
    pub prompt_tokens: usize,
    /// Total tokens emitted, counting again those a rolled-back sequence's replay
    /// emits a second time.
    pub generated_tokens: usize,
    /// The prompt rows' share of the batched forwards' time, summed across worker
    /// threads: each forward's time is split between prefill and decode by the rows it
    /// carried (prompt rows against decode rows).
    pub prefill_time: Duration,
    /// The decode rows' share of the batched forwards' time, summed across worker
    /// threads. With `prefill_time` it sums to worker busy time, to which each batched
    /// forward contributes once however many sequences it stepped (per-thread work, not
    /// wall clock — see [`ServingReport::wall_seconds`] for the elapsed time), so the
    /// two never exceed `num_threads × wall_seconds`.
    pub decode_time: Duration,
    /// Generated tokens per second of summed decode time: the *per-worker* decode rate
    /// with each batched forward's cost amortized over its tokens, directly comparable
    /// across `num_threads` (parallelism holds it roughly constant while the
    /// wall-clock rate scales).
    pub decode_tokens_per_sec: f64,
    /// Wall-clock seconds of the whole [`ServingEngine::run`] call (admission, prefill,
    /// decode and retirement across all passes).
    pub wall_seconds: f64,
    /// Generated tokens per *wall-clock* second of the run — the end-to-end serving
    /// throughput the thread-scaling benches sweep.
    pub tokens_per_sec_parallel: f64,
    /// Worker threads the run was configured with (see [`ServingEngine::with_threads`]).
    pub num_threads: usize,
    /// Page-table entries newly admitted sequences mapped from the pool's keyed pages
    /// instead of allocating and re-prefilling them (summed over the run's admissions):
    /// pages other sequences still held, and keyed home pages, which count as free until
    /// the mapping takes them back out.
    pub shared_pages: usize,
    /// Prompt positions whose prefill compute was skipped because their KV rows were
    /// mapped from keyed pages; whole pages only.
    pub prefill_tokens_saved: usize,
    /// Times the scheduler preempted a running sequence — spilling its pages to a
    /// host-side buffer and restoring them bit-identically later — to fund a
    /// higher-priority admission. [`FinishReason::Evicted`] stays reserved for requests
    /// that exceed the entire pool budget.
    pub preemptions: usize,
    /// Cache bytes by scheme math: every position ever cached, at the scheme's average
    /// width (rows byte-ceiled). What the hardware *would* hold with a perfect layout.
    pub theoretical_bytes: usize,
    /// The same positions held in FP32 — the compression baseline.
    pub theoretical_bytes_fp32: usize,
    /// **Measured** peak cache storage during the run: page-pool occupancy on the paged
    /// backend (pages checked out to caches; keyed home pages count as free), f32 row
    /// storage on the baseline backend. This is the number that exposed the old
    /// accounting gap (f32-resident storage labelled with scheme bytes).
    pub resident_bytes: usize,
    /// Per-request latency quantiles (TTFT, TPOT, scheduler-pass wall time and admission
    /// queue-wait), built from always-on histograms — populated whether or not event
    /// tracing ([`ServingEngine::with_telemetry`]) is enabled. TPOT takes one sample per
    /// generated token that ran a decode forward: the time of the whole batched forward
    /// its step joined, prompt chunks included, which is the latency that step saw. Its
    /// count therefore equals the summed decode sequence counts of the trace's
    /// `forward` spans.
    pub latency: LatencySummary,
    /// Sequences each decode worker stepped (prompt chunks and decode steps; every
    /// member of a batched step counts once, and a prefilling sequence the budget
    /// granted no rows does not count); index `w` is worker `w`, which steps chunk `w`
    /// of every pass and records on trace lane `w + 1` (worker 0 runs on the
    /// coordinator's thread). Exposes the chunks' load skew, and their sum over passes
    /// is the mean batch size.
    pub worker_decode_steps: Vec<usize>,
}

impl ServingReport {
    /// Compression of the scheme's theoretical bytes over FP32 storage.
    #[must_use]
    pub fn theoretical_compression(&self) -> f64 {
        ratio(self.theoretical_bytes_fp32, self.theoretical_bytes)
    }

    /// Compression of the *measured* resident bytes over theoretical FP32 storage —
    /// ~1x for the f32 backend (it really stores f32), near the scheme ratio for the
    /// paged backend (minus page-granularity slack).
    #[must_use]
    pub fn resident_compression(&self) -> f64 {
        ratio(self.theoretical_bytes_fp32, self.resident_bytes)
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        1.0
    } else {
        num as f64 / den as f64
    }
}

/// Leftover sequence population after a [`ServingEngine::drain`] or
/// [`ServingEngine::shutdown`] — the graceful-stop contract's receipt. In both cases no
/// live sequence holds pool pages on return: drain finishes every resident sequence,
/// shutdown spills them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Sequences finished for any [`FinishReason`].
    pub finished: usize,
    /// Live sequences parked in host-side spill buffers (bit-exact, restorable by a
    /// later [`ServingEngine::run`]).
    pub spilled: usize,
    /// Live sequences still queued, never admitted or rolled back to scratch.
    pub waiting: usize,
    /// Scheduler passes the stop path executed (always 0 for shutdown).
    pub passes: usize,
}

impl DrainReport {
    /// Live (unfinished) sequences left in the engine: `spilled + waiting`.
    #[must_use]
    pub fn live(&self) -> usize {
        self.spilled + self.waiting
    }
}

/// Everything one [`ServingEngine`] submission can configure, built fluently:
///
/// ```
/// use mx_llm::{Sampling, SubmitOptions};
///
/// let opts = SubmitOptions::new(64).stop_token(7).sampling(Sampling::top_k(4, 0.9, 1)).priority(2);
/// assert_eq!(opts.max_new_tokens, 64);
/// assert_eq!(opts.stop_token, Some(7));
/// assert!(opts.share_prefix);
/// ```
///
/// This is the one submission surface of the engine ([`ServingEngine::submit_with`]).
///
/// Passes are counted over the engine's whole life: pass `p` is the `p`-th scheduler
/// pass since the engine was built, whether one [`ServingEngine::run`] or a loop of
/// [`ServingEngine::run_for`] calls executes it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubmitOptions {
    /// Generation budget for the sequence.
    pub max_new_tokens: usize,
    /// Token id that terminates the sequence early (never emitted).
    pub stop_token: Option<usize>,
    /// Next-token selection policy (greedy by default; see [`crate::sampling`]).
    pub sampling: Sampling,
    /// Scheduling priority: higher-priority submissions are admitted first, and under
    /// pool pressure may preempt strictly lower-priority running sequences (spilling
    /// their pages, restoring them bit-identically later). Default 0.
    pub priority: i32,
    /// Engine pass at which the submission becomes visible to admission — the
    /// deterministic analogue of an online arrival time. Default 0 (present from the
    /// start, or from the next pass once the engine has run); a later pass lets tests
    /// and benches model a high-priority request arriving while lower-priority work
    /// occupies the pool.
    pub arrival_pass: usize,
    /// Whether this sequence takes part in the pool's prefix cache: maps a matching
    /// prompt prefix from keyed pages instead of re-prefilling it, and publishes its own
    /// full prompt pages. Default `true` — sharing is bit-identical, so there is no
    /// accuracy reason to opt out; disable it to measure the unshared baseline.
    pub share_prefix: bool,
    /// Absolute engine pass by which the sequence must have finished; past it, the
    /// deadline sweep ends the sequence as [`FinishReason::DeadlineExceeded`]. Default
    /// `None` (no deadline).
    pub deadline_pass: Option<usize>,
    /// Engine passes after [`SubmitOptions::arrival_pass`] within which the first token
    /// must have been generated — the pass-domain analogue of a TTFT SLO. Default
    /// `None`.
    pub ttft_deadline: Option<usize>,
}

impl SubmitOptions {
    /// Options for a plain greedy submission with `max_new_tokens` budget.
    #[must_use]
    pub fn new(max_new_tokens: usize) -> Self {
        SubmitOptions {
            max_new_tokens,
            stop_token: None,
            sampling: Sampling::GREEDY,
            priority: 0,
            arrival_pass: 0,
            share_prefix: true,
            deadline_pass: None,
            ttft_deadline: None,
        }
    }

    /// Finishes the sequence early (without emitting it) when `token` is generated.
    /// Accepts a bare token id or an `Option` (so call sites holding one need no
    /// field-mutation dance); `None` leaves the sequence stop-free.
    #[must_use]
    pub fn stop_token(mut self, token: impl Into<Option<usize>>) -> Self {
        self.stop_token = token.into();
        self
    }

    /// Selects next tokens with `sampling` instead of greedy argmax.
    #[must_use]
    pub fn sampling(mut self, sampling: Sampling) -> Self {
        self.sampling = sampling;
        self
    }

    /// Sets the scheduling priority (see [`SubmitOptions::priority`]).
    #[must_use]
    pub fn priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// Delays the submission's visibility to admission until engine pass `pass`.
    #[must_use]
    pub fn arrival_pass(mut self, pass: usize) -> Self {
        self.arrival_pass = pass;
        self
    }

    /// Opts this sequence out of prefix sharing (used to measure the unshared baseline).
    #[must_use]
    pub fn without_prefix_sharing(mut self) -> Self {
        self.share_prefix = false;
        self
    }

    /// Requires the sequence to finish by engine pass `pass` (see
    /// [`SubmitOptions::deadline_pass`]).
    #[must_use]
    pub fn deadline_pass(mut self, pass: usize) -> Self {
        self.deadline_pass = Some(pass);
        self
    }

    /// Requires the first token within `passes` passes of arrival (see
    /// [`SubmitOptions::ttft_deadline`]).
    #[must_use]
    pub fn ttft_deadline(mut self, passes: usize) -> Self {
        self.ttft_deadline = Some(passes);
        self
    }
}

/// Decodes a batch of sequences against one model with continuous batching, stepping
/// each pass across decode worker threads (see the [module docs](crate::serving)).
///
/// ```
/// use mx_llm::{ModelConfig, ModelQuantConfig, ServingEngine, SubmitOptions, TransformerModel};
///
/// let model = TransformerModel::new(ModelConfig::tiny_test(3), ModelQuantConfig::BASELINE);
/// let mut engine = ServingEngine::new(&model);
/// engine.submit_with(&[1, 2, 3], SubmitOptions::new(4));
/// engine.submit_with(&[9, 8], SubmitOptions::new(4));
/// let report = engine.run();
/// assert_eq!(report.sequences, 2);
/// assert_eq!(report.generated_tokens, 8);
/// assert_eq!(report.finished_length, 2);
/// ```
#[derive(Debug)]
pub struct ServingEngine<'m> {
    model: &'m TransformerModel,
    sequences: Vec<Sequence>,
    pool: Option<Arc<PagePool>>,
    num_threads: usize,
    /// Telemetry hub the run's recorders shard into (a disabled hub unless
    /// [`ServingEngine::with_telemetry`] configured one).
    telemetry: Arc<Telemetry>,
    /// Event trace drained after the last run, when telemetry was enabled.
    last_trace: Option<Trace>,
    /// Remaining scheduled faults of an installed [`FaultPlan`], consumed as the
    /// scheduler's counters reach their coordinates (`None` = fault-free: the whole
    /// injection machinery is this one `Option` check).
    faults: Option<FaultState>,
    /// Explicit checkpoint/retry policy; `None` uses the default policy and enables
    /// periodic checkpointing only while faults are installed.
    recovery: Option<RecoveryPolicy>,
    /// Load-shedding watermark as a fraction of the pool's total pages; `None`
    /// (default) never sheds.
    shed_watermark: Option<f64>,
    /// Scheduler passes run over the engine's life, across every run, run_for and
    /// drain call: the clock arrivals, deadlines, retry backoff and checkpoint cadence
    /// read.
    pass: usize,
    /// Queue waits over the engine's life, one sample per admission that ends a wait:
    /// each sequence's first admission and each restore after a preemption.
    queue_wait: Histogram,
}

impl<'m> ServingEngine<'m> {
    /// Creates an engine serving `model` on the f32-contiguous backend (every submission
    /// is admitted immediately).
    #[must_use]
    pub fn new(model: &'m TransformerModel) -> Self {
        ServingEngine {
            model,
            sequences: Vec::new(),
            pool: None,
            num_threads: default_threads(),
            telemetry: Telemetry::disabled(),
            last_trace: None,
            faults: None,
            recovery: None,
            shed_watermark: None,
            pass: 0,
            queue_wait: Histogram::new(),
        }
    }

    /// Creates an engine on the paged-packed backend with a pool of `total_pages` pages
    /// of [`DEFAULT_PAGE_POSITIONS`] positions each, stored bit-packed under the model's
    /// KV-cache scheme.
    #[must_use]
    pub fn paged(model: &'m TransformerModel, total_pages: usize) -> Self {
        ServingEngine::paged_with(model, total_pages, DEFAULT_PAGE_POSITIONS)
    }

    /// [`ServingEngine::paged`] with an explicit page size in positions.
    #[must_use]
    pub fn paged_with(model: &'m TransformerModel, total_pages: usize, page_positions: usize) -> Self {
        let scheme = model.quant().kv_cache;
        let kv_dim = Self::kv_dim(model);
        let pool = PagePool::for_kv_rows(total_pages, page_positions, RowCodec::for_scheme(scheme), kv_dim).shared();
        ServingEngine {
            model,
            sequences: Vec::new(),
            pool: Some(pool),
            num_threads: default_threads(),
            telemetry: Telemetry::disabled(),
            last_trace: None,
            faults: None,
            recovery: None,
            shed_watermark: None,
            pass: 0,
            queue_wait: Histogram::new(),
        }
    }

    /// Sets the number of decode worker threads (builder-style). `1` steps every sequence
    /// on the calling thread; any value produces token-identical output, because
    /// sequences share nothing but the page pool's allocator and a batched forward's
    /// rows are independent.
    ///
    /// # Panics
    ///
    /// Panics if `num_threads` is 0.
    #[must_use]
    pub fn with_threads(mut self, num_threads: usize) -> Self {
        assert!(num_threads >= 1, "the engine needs at least one decode thread");
        self.num_threads = num_threads;
        self
    }

    /// The configured number of decode worker threads.
    #[must_use]
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Configures event tracing for subsequent runs (builder-style). The report's
    /// [`ServingReport::latency`] summaries are always on; this gates only the event
    /// recording behind [`ServingEngine::take_trace`]. A disabled hub (the default)
    /// reduces every event site to one branch, and generated tokens are identical with
    /// telemetry on or off.
    #[must_use]
    pub fn with_telemetry(mut self, config: TelemetryConfig) -> Self {
        self.telemetry = Telemetry::new(&config);
        self
    }

    /// Whether event tracing is enabled (see [`ServingEngine::with_telemetry`]).
    #[must_use]
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry.is_enabled()
    }

    /// Installs a deterministic [`FaultPlan`] for subsequent runs (builder-style; see
    /// [`crate::fault`]). Each scheduled fault fires at most once, when the engine's
    /// counters, which run on across calls, reach its coordinates. Installing a plan
    /// also turns on periodic recovery checkpointing under the active
    /// [`RecoveryPolicy`].
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(FaultState::new(&plan));
        self
    }

    /// Sets the checkpoint/retry policy for worker-panic recovery (builder-style) and
    /// enables periodic checkpointing even without an installed fault plan — which is
    /// what lets *real* (non-injected) worker panics retry from a recent snapshot
    /// instead of replaying from scratch.
    #[must_use]
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }

    /// Enables priority-ordered load shedding (builder-style): on each pass, if the
    /// pool pages already committed (in use or reserved) plus the worst-case demand of
    /// every arrived, never-admitted submission exceed `watermark × total_pages`,
    /// the excess queued submissions are refused as [`FinishReason::Shed`] — lowest
    /// priority first, youngest first within a class — instead of starving silently.
    /// Sequences that already ran (preempted or retrying) are never shed.
    ///
    /// # Panics
    ///
    /// Panics if `watermark` is not positive.
    #[must_use]
    pub fn with_shed_watermark(mut self, watermark: f64) -> Self {
        assert!(watermark > 0.0, "shed watermark must be positive");
        self.shed_watermark = Some(watermark);
        self
    }

    /// Takes the event trace recorded by the most recent [`ServingEngine::run`] call
    /// (`None` when telemetry is off or no traced run has completed since the last take).
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.last_trace.take()
    }

    /// The shared page pool, when running on the paged backend.
    #[must_use]
    pub fn pool(&self) -> Option<&Arc<PagePool>> {
        self.pool.as_ref()
    }

    fn kv_dim(model: &TransformerModel) -> usize {
        model.config().head_dim() * model.config().kv_heads
    }

    /// Queues a sequence with the given [`SubmitOptions`] and returns the sequence id.
    /// The sequence's RNG stream is derived from the sampling seed and the sequence id,
    /// so runs are reproducible at any thread count. On the paged backend the prompt's
    /// prefix-cache keys are computed here, so the sequence can map a keyed prefix at
    /// admission and publish its own prompt pages for later submissions (unless
    /// [`SubmitOptions::without_prefix_sharing`] was set). Nothing is allocated in
    /// proportion to the generation budget: storage grows as tokens arrive.
    ///
    /// # Panics
    ///
    /// Panics if the prompt is empty or holds a token id outside the model's vocabulary,
    /// or if top-k or top-p sampling carries `k = 0`, a `p` outside `(0, 1]` or a
    /// temperature that is not finite and positive. Such an id would otherwise panic
    /// inside the batched forward its prefill shares, and roll back every batch-mate
    /// with it; such a `k` would panic in the sampler on every retry, and such a `p` or
    /// temperature would sample from meaningless weights without an error.
    pub fn submit_with(&mut self, prompt: &[usize], options: SubmitOptions) -> usize {
        assert!(!prompt.is_empty(), "prompt must be non-empty");
        let vocab = self.model.config().vocab;
        assert!(prompt.iter().all(|&t| t < vocab), "prompt token id out of vocabulary ({vocab})");
        let sampling = options.sampling.checked();
        let id = self.sequences.len();
        let prefix_hashes = match &self.pool {
            Some(pool) if options.share_prefix => prefix_keys(prompt, pool.page_positions()),
            _ => Vec::new(),
        };
        self.sequences.push(Sequence {
            id,
            prompt: prompt.to_vec(),
            generated: Vec::new(),
            max_new_tokens: options.max_new_tokens,
            stop_token: options.stop_token,
            sampling,
            priority: options.priority,
            arrival_pass: options.arrival_pass,
            prefix_hashes,
            shared_positions: 0,
            rng: SeqRng::new(sampling.seed, id as u64),
            finish: None,
            cache: SeqCache::Waiting,
            submitted_ns: None,
            queued_ns: None,
            first_token_ns: None,
            finish_logged: false,
            deadline_pass: options.deadline_pass,
            ttft_deadline: options.ttft_deadline,
            attempts: 0,
            retry_at_pass: 0,
            checkpoint: None,
        });
        id
    }

    /// The sequences in submission order.
    #[must_use]
    pub fn sequences(&self) -> &[Sequence] {
        &self.sequences
    }

    /// Runs the scheduler until every submitted sequence has finished (or been evicted).
    ///
    /// Each pass of the coordinator loop: admit arrived waiting (or preempted) sequences
    /// whenever their worst case fits the page budget — mapping any keyed prompt prefix
    /// from the pool and preempting strictly lower-priority running sequences under
    /// pressure — step the active sequences in one fork-join across the decode workers
    /// (each worker runs one batched forward over the next prompt chunk of each
    /// prefilling sequence of its chunk, within its [`PREFILL_BUDGET`], and one token for
    /// each of the others), sample peak occupancy, publish the full prompt pages written,
    /// and retire finished sequences so their pages fund queued admissions.
    pub fn run(&mut self) -> ServingReport {
        self.execute(true, usize::MAX)
    }

    /// [`ServingEngine::run`], bounded to at most `max_passes` scheduler passes. The
    /// engine keeps all of its state when the bound strikes mid-flight — active
    /// sequences stay resident, queued ones stay queued — so a later [`run`],
    /// [`drain`] or [`shutdown`] call continues exactly where this one stopped.
    ///
    /// [`run`]: ServingEngine::run
    /// [`drain`]: ServingEngine::drain
    /// [`shutdown`]: ServingEngine::shutdown
    pub fn run_for(&mut self, max_passes: usize) -> ServingReport {
        self.execute(true, max_passes)
    }

    /// Gracefully drains the engine: admissions are frozen (queued and preempted
    /// sequences stay parked) while every *resident* sequence runs to completion.
    /// Returns the leftover population; on return no
    /// sequence holds pool pages, so `drain` is the clean-stop half of the
    /// [`ServingEngine::shutdown`] contract.
    pub fn drain(&mut self) -> DrainReport {
        let report = self.execute(false, usize::MAX);
        self.population(report.passes)
    }

    /// Stops immediately: every live paged sequence is spilled to a host-side buffer
    /// ([`PagedKvCache::spill`], bit-exact) without running another pass, returning all
    /// of its pages and reservations to the pool. A later [`ServingEngine::run`]
    /// restores and finishes them with token streams identical to an uninterrupted
    /// run. f32-backend sequences keep their host-memory caches as-is.
    pub fn shutdown(&mut self) -> DrainReport {
        for seq in &mut self.sequences {
            if seq.finish.is_none() {
                if let SeqCache::Paged(cache) = &mut seq.cache {
                    let spilled = cache.spill();
                    seq.cache = SeqCache::Spilled { spilled };
                }
            }
        }
        self.audit_pool();
        self.population(0)
    }

    /// The engine's sequence population by state (the [`DrainReport`] both stop paths
    /// return).
    fn population(&self, passes: usize) -> DrainReport {
        let count = |f: fn(&Sequence) -> bool| self.sequences.iter().filter(|s| f(s)).count();
        DrainReport {
            finished: count(|s| s.finish.is_some()),
            spilled: count(|s| s.finish.is_none() && matches!(s.cache, SeqCache::Spilled { .. })),
            waiting: count(|s| s.finish.is_none() && matches!(s.cache, SeqCache::Waiting)),
            passes,
        }
    }

    /// One scheduler execution: the shared engine of [`run`], [`run_for`] and
    /// [`drain`], parameterized over whether admission is open and how many passes may
    /// run.
    ///
    /// [`run`]: ServingEngine::run
    /// [`run_for`]: ServingEngine::run_for
    /// [`drain`]: ServingEngine::drain
    fn execute(&mut self, admit: bool, max_passes: usize) -> ServingReport {
        let run_start = Instant::now();
        let mut stats = RunStats { worker_steps: vec![0; self.num_threads], ..RunStats::default() };
        let mut workers: Vec<Worker> = (0..self.num_threads)
            .map(|w| Worker { scratch: PagedScratch::default(), rec: self.telemetry.recorder(w as u32 + 1) })
            .collect();
        self.drive(&mut workers, &mut stats, admit, max_passes);
        drop(workers);
        if self.telemetry.is_enabled() {
            // Every recorder has dropped (drive's on return, the workers' just above),
            // so the drain sees the complete run.
            self.last_trace = Some(self.telemetry.drain_trace());
        }
        self.report(run_start, &stats)
    }

    /// The coordinator loop (see [`ServingEngine::run`]). Each pass cuts the active
    /// sequences into one contiguous chunk per worker, which keeps submission order
    /// within a chunk, and steps them in one fork-join ([`step_chunks`]).
    fn drive(&mut self, workers: &mut [Worker], stats: &mut RunStats, admit: bool, max_passes: usize) {
        let model = self.model;
        let policy = self.recovery.unwrap_or_default();
        // Checkpointing costs page-buffer copies, so it only runs when failure is in
        // play: an installed fault plan or an explicitly requested recovery policy.
        let checkpoint_every =
            if self.recovery.is_some() || self.faults.is_some() { policy.checkpoint_every } else { 0 };
        let mut rec = self.telemetry.recorder(0);
        stats.peak_resident = stats.peak_resident.max(self.resident_bytes());

        while stats.passes < max_passes {
            let pass = self.pass;
            let pass_start = rec.now_nanos();
            rec.begin(Category::Pass, "pass", "pass", pass as u64);
            self.enforce_deadlines(&mut rec);
            if admit {
                self.shed_overloaded(&mut rec);
                self.admit_waiting(stats, &mut rec);
            }
            stats.peak_resident = stats.peak_resident.max(self.resident_bytes());

            let (active, mut seqs): (Vec<usize>, Vec<&mut Sequence>) = self
                .sequences
                .iter_mut()
                .enumerate()
                .filter(|(_, s)| s.finish.is_none() && matches!(s.cache, SeqCache::F32(_) | SeqCache::Paged(_)))
                .unzip();
            let chunk = active.len().div_ceil(workers.len()).max(1);
            let faults: Vec<Option<InjectedFault>> = (0..active.len())
                .map(|i| self.faults.as_mut().and_then(|f| f.step_fault(i / chunk, workers.len())))
                .collect();
            let replies = step_chunks(model, &mut seqs, &faults, chunk, workers);
            drop(seqs);
            for ((worker, reply), indices) in replies.into_iter().enumerate().zip(active.chunks(chunk)) {
                self.absorb_batch(worker, indices, reply, &policy, stats, &mut rec);
            }

            // Pool occupancy only grows during a pass (retirement is below), so sampling
            // here captures the exact peak before the coordinator reclaims pages.
            stats.peak_resident = stats.peak_resident.max(self.resident_bytes());
            if rec.is_enabled() {
                if let Some(pool) = &self.pool {
                    rec.counter(Category::Occupancy, "in_use_pages", pool.in_use_pages() as u64);
                    rec.counter(Category::Occupancy, "reserved_pages", pool.reserved_pages() as u64);
                }
                rec.counter(Category::Occupancy, "resident_bytes", self.resident_bytes() as u64);
            }
            for seq in &mut self.sequences {
                seq.publish();
                if seq.finish.is_some() && !seq.finish_logged {
                    seq.finish_logged = true;
                    rec.instant(Category::Lifecycle, "retired", "seq", seq.id as u64);
                }
                seq.retire();
            }
            // Pass boundary: every worker has joined, so the pool must reconcile exactly
            // against the live caches (the audit is a debug-build no-op in release).
            self.audit_pool();
            if checkpoint_every > 0 && (pass + 1).is_multiple_of(checkpoint_every) {
                self.take_checkpoints(&mut rec);
            }

            rec.end(Category::Pass, "pass", "pass", pass as u64);
            stats.pass_latency.record(rec.now_nanos().saturating_sub(pass_start));
            self.pass += 1;
            stats.passes += 1;
            let pending = admit
                && self
                    .sequences
                    .iter()
                    .any(|s| s.finish.is_none() && matches!(s.cache, SeqCache::Waiting | SeqCache::Spilled { .. }));
            if active.is_empty() && !pending {
                break;
            }
        }
    }

    /// Folds worker `worker`'s step of the sequences at table slots `indices` back into
    /// the engine: adds the batched forward's time to the prefill and decode times once,
    /// credits each completed step to the worker, and rolls panicked sequences back
    /// through [`ServingEngine::recover_sequence`]. `None` is a panic that escaped the
    /// step's own `catch_unwind`s and ended the worker's thread mid-step: the chunk's
    /// sequences are left in an unknown state, so each finishes as
    /// [`FinishReason::Failed`] and the retire sweep returns its pages.
    fn absorb_batch(
        &mut self,
        worker: usize,
        indices: &[usize],
        reply: Option<BatchReply>,
        policy: &RecoveryPolicy,
        stats: &mut RunStats,
        rec: &mut Recorder,
    ) {
        let lane = worker as u64 + 1;
        let Some(reply) = reply else {
            rec.instant(Category::Fault, "worker_panic", "worker", lane);
            for &idx in indices {
                let seq = &mut self.sequences[idx];
                seq.attempts += 1;
                let attempts = seq.attempts;
                seq.finish(FinishReason::Failed { attempts });
                rec.instant(Category::Fault, "failed", "seq", seq.id as u64);
            }
            return;
        };
        stats.prefill_time += reply.prefill;
        stats.decode_time += reply.decode;
        for (&idx, outcome) in indices.iter().zip(reply.outcomes) {
            match outcome {
                Some(step) => stats.absorb(worker, &step),
                None => {
                    // The bookkeeping is intact; the cache is suspect and recovery
                    // discards it.
                    rec.instant(Category::Fault, "worker_panic", "worker", lane);
                    self.recover_sequence(idx, policy, stats, rec);
                }
            }
        }
    }

    /// Finishes overdue sequences as [`FinishReason::DeadlineExceeded`]: past an
    /// absolute [`SubmitOptions::deadline_pass`], or still token-less past the
    /// [`SubmitOptions::ttft_deadline`] passes after arrival. Runs at the start of
    /// every pass, before admission, so an overdue queued sequence never wastes a
    /// reservation; the retire sweep then frees whatever storage the sequence held.
    fn enforce_deadlines(&mut self, rec: &mut Recorder) {
        let pass = self.pass;
        for seq in &mut self.sequences {
            if seq.finish.is_some() || seq.arrival_pass > pass {
                continue;
            }
            let ttft_overdue = seq.generated.is_empty()
                && seq.ttft_deadline.is_some_and(|d| pass > seq.arrival_pass.saturating_add(d));
            if ttft_overdue || seq.deadline_pass.is_some_and(|d| pass > d) {
                seq.finish(FinishReason::DeadlineExceeded);
                rec.instant(Category::Fault, "deadline_exceeded", "seq", seq.id as u64);
            }
        }
    }

    /// Priority-ordered load shedding (see [`ServingEngine::with_shed_watermark`]):
    /// refuses arrived, never-admitted submissions as [`FinishReason::Shed`] while the
    /// committed pages plus the queue's worst-case demand exceed the watermark.
    fn shed_overloaded(&mut self, rec: &mut Recorder) {
        let Some(watermark) = self.shed_watermark else { return };
        let pass = self.pass;
        let Some(pool) = self.pool.clone() else { return };
        let layers = self.model.config().layers;
        let mut queued: Vec<(usize, usize)> = self
            .sequences
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                // Only submissions that never held cache state are sheddable: a
                // preempted (spilled) or retrying (attempted) sequence already ran, and
                // refusing it now would throw away work instead of refusing load.
                s.finish.is_none() && s.arrival_pass <= pass && s.attempts == 0 && matches!(s.cache, SeqCache::Waiting)
            })
            .map(|(i, s)| (i, PagedKvCache::pages_needed(&pool, layers, s.capacity())))
            // A submission larger than the whole pool is evicted at admission, and is no
            // load the pool could carry.
            .filter(|&(_, needed)| needed <= pool.total_pages())
            .collect();
        let committed = pool.total_pages() - pool.free_pages() + pool.reserved_pages();
        let budget = (watermark * pool.total_pages() as f64).ceil() as usize;
        let mut demand: usize = committed + queued.iter().map(|&(_, needed)| needed).sum::<usize>();
        if demand <= budget {
            return;
        }
        // Shed lowest priority first, youngest (highest id) first within a class.
        queued.sort_by_key(|&(i, _)| (self.sequences[i].priority, std::cmp::Reverse(i)));
        for (idx, needed) in queued {
            if demand <= budget {
                break;
            }
            let seq = &mut self.sequences[idx];
            seq.finish(FinishReason::Shed);
            rec.instant(Category::Fault, "shed", "seq", seq.id as u64);
            demand -= needed;
        }
    }

    /// Recovery after sequence `idx` lost its in-flight step to a worker panic:
    /// discard the suspect cache (its Drop returns every page), roll the bookkeeping
    /// back to the last [`Checkpoint`] (or to scratch when none was taken) and
    /// schedule a backed-off retry — or finish as [`FinishReason::Failed`] once the
    /// [`RecoveryPolicy::max_attempts`] budget is spent. Replay from a bit-exact
    /// snapshot is deterministic, so a retried sequence's final token stream is
    /// identical to an undisturbed run's.
    fn recover_sequence(&mut self, idx: usize, policy: &RecoveryPolicy, stats: &mut RunStats, rec: &mut Recorder) {
        let pass = self.pass;
        let seq = &mut self.sequences[idx];
        seq.attempts += 1;
        if seq.attempts > policy.max_attempts {
            seq.cache = SeqCache::Waiting;
            seq.checkpoint = None;
            let attempts = seq.attempts;
            seq.finish(FinishReason::Failed { attempts });
            rec.instant(Category::Fault, "failed", "seq", seq.id as u64);
            return;
        }
        // Saturating: the policy's fields are public, and a huge backoff must park the
        // sequence, not overflow the pass clock.
        seq.retry_at_pass = policy.backoff_passes.saturating_mul(seq.attempts).saturating_add(pass + 1);
        match seq.checkpoint.as_deref() {
            Some(cp) => {
                // Resume from the snapshot: the spilled bytes re-enter through the
                // same restore path preemption uses, bit-exactly.
                seq.generated = cp.generated.clone();
                seq.rng = cp.rng.clone();
                seq.shared_positions = cp.shared_positions;
                seq.cache = SeqCache::Spilled { spilled: cp.spilled.clone() };
            }
            None => {
                // No snapshot yet: replay from scratch. Deterministic prefill plus a
                // reset RNG stream reproduce the exact same tokens.
                seq.generated.clear();
                seq.shared_positions = 0;
                seq.rng = SeqRng::new(seq.sampling.seed, seq.id as u64);
                seq.cache = SeqCache::Waiting;
            }
        }
        stats.retries += 1;
        rec.instant(Category::Fault, "retry", "seq", seq.id as u64);
    }

    /// Snapshots every prefilled, unfinished paged sequence for recovery (see
    /// [`Checkpoint`]); runs at the pass boundary, where workers are idle and the pool
    /// reconciles, so every snapshot is a consistent cut.
    fn take_checkpoints(&mut self, rec: &mut Recorder) {
        for seq in &mut self.sequences {
            if seq.finish.is_none() && seq.prefilled() {
                if let SeqCache::Paged(cache) = &seq.cache {
                    seq.checkpoint = Some(Box::new(Checkpoint {
                        spilled: cache.checkpoint(),
                        generated: seq.generated.clone(),
                        rng: seq.rng.clone(),
                        shared_positions: seq.shared_positions,
                    }));
                    rec.instant(Category::Fault, "checkpoint", "seq", seq.id as u64);
                }
            }
        }
    }

    /// Debug-build pass-boundary sanitizer: reconciles the page pool against every
    /// live paged cache (see [`crate::paging::audit_caches`]). No-op in release
    /// builds and on the f32 backend.
    fn audit_pool(&self) {
        if let Some(pool) = &self.pool {
            crate::paging::audit_caches(
                pool,
                self.sequences.iter().filter_map(|s| match &s.cache {
                    SeqCache::Paged(cache) => Some(cache),
                    _ => None,
                }),
            );
        }
    }

    /// Assembles the [`ServingReport`] of a finished run.
    fn report(&self, run_start: Instant, stats: &RunStats) -> ServingReport {
        let wall_seconds = run_start.elapsed().as_secs_f64();
        let scheme = self.model.quant().kv_cache;
        let kv_dim = Self::kv_dim(self.model);
        let layers = self.model.config().layers;
        let theoretical = |s: QuantScheme| {
            let per_row = LayerKvCache::row_storage_bytes(kv_dim, s);
            self.sequences.iter().map(|q| 2 * layers * q.cached_positions() * per_row).sum()
        };
        let count = |r: FinishReason| self.sequences.iter().filter(|s| s.finish == Some(r)).count();
        // TTFT comes from per-sequence hub-clock anchors; TPOT and pass latency
        // accumulated into histograms as the run stepped, queue wait as the engine
        // admitted.
        let mut ttft = Histogram::new();
        for s in &self.sequences {
            if let (Some(sub), Some(first)) = (s.submitted_ns, s.first_token_ns) {
                ttft.record(first.saturating_sub(sub));
            }
        }
        ServingReport {
            scheme: scheme.name(),
            backend: if self.pool.is_some() { "paged-packed" } else { "f32-contiguous" },
            sequences: self.sequences.len(),
            finished_length: count(FinishReason::Length),
            finished_stop: count(FinishReason::Stop),
            evicted: count(FinishReason::Evicted),
            failed: self.sequences.iter().filter(|s| matches!(s.finish, Some(FinishReason::Failed { .. }))).count(),
            deadline_misses: count(FinishReason::DeadlineExceeded),
            shed: count(FinishReason::Shed),
            retries: stats.retries,
            passes: stats.passes,
            prompt_tokens: stats.prompt_tokens,
            generated_tokens: stats.generated,
            prefill_time: stats.prefill_time,
            decode_time: stats.decode_time,
            decode_tokens_per_sec: if stats.decode_time.is_zero() {
                f64::INFINITY
            } else {
                stats.generated as f64 / stats.decode_time.as_secs_f64()
            },
            wall_seconds,
            tokens_per_sec_parallel: if wall_seconds == 0.0 {
                f64::INFINITY
            } else {
                stats.generated as f64 / wall_seconds
            },
            num_threads: self.num_threads,
            shared_pages: stats.shared_pages,
            prefill_tokens_saved: stats.prefill_tokens_saved,
            preemptions: stats.preemptions,
            theoretical_bytes: theoretical(scheme),
            theoretical_bytes_fp32: theoretical(QuantScheme::Fp32),
            resident_bytes: stats.peak_resident,
            latency: LatencySummary {
                ttft: QuantileSummary::from_histogram(&ttft),
                tpot: QuantileSummary::from_histogram(&stats.tpot),
                pass_latency: QuantileSummary::from_histogram(&stats.pass_latency),
                queue_wait: QuantileSummary::from_histogram(&self.queue_wait),
            },
            worker_decode_steps: stats.worker_steps.clone(),
        }
    }

    /// Admits arrived waiting and preempted sequences: highest priority first, FCFS
    /// (submission id) within a priority class — the default priority 0 everywhere
    /// reproduces the old pure-FCFS order exactly. On the f32 backend every sequence is
    /// admitted; on the paged backend admission reserves the sequence's worst-case page
    /// count (reduced by any shared prompt prefix), preempting strictly lower-priority
    /// running sequences when the reservation does not fit, and stalling the queue (not
    /// skipping ahead) when the head still cannot be funded. Prefill itself is *not*
    /// done here — the workers prefill an admitted sequence a chunk per pass inside
    /// their batched forwards, keeping the coordinator to pure bookkeeping.
    fn admit_waiting(&mut self, stats: &mut RunStats, rec: &mut Recorder) {
        let pass = self.pass;
        let mut waiting: Vec<usize> = (0..self.sequences.len())
            .filter(|&i| {
                let s = &self.sequences[i];
                s.finish.is_none()
                    && s.arrival_pass <= pass
                    && s.retry_at_pass <= pass
                    && matches!(s.cache, SeqCache::Waiting | SeqCache::Spilled { .. })
            })
            .collect();
        for &i in &waiting {
            let seq = &mut self.sequences[i];
            if seq.submitted_ns.is_none() {
                // The submission just became visible to admission — the anchor TTFT and
                // its first queue wait measure from.
                seq.submitted_ns = Some(rec.now_nanos());
                seq.queued_ns = seq.submitted_ns;
                rec.instant(Category::Lifecycle, "submitted", "seq", seq.id as u64);
            }
        }
        waiting.sort_by_key(|&i| (std::cmp::Reverse(self.sequences[i].priority), i));
        for idx in waiting {
            if !self.try_admit(idx, stats, rec) {
                // Head-of-line blocking: the queue stalls rather than skipping ahead.
                break;
            }
        }
    }

    /// Tries to admit sequence `idx`; returns whether admission should keep going.
    fn try_admit(&mut self, idx: usize, stats: &mut RunStats, rec: &mut Recorder) -> bool {
        let layers = self.model.config().layers;
        let kv_dim = Self::kv_dim(self.model);
        let scheme = self.model.quant().kv_cache;
        let capacity = self.sequences[idx].capacity();
        let Some(pool) = self.pool.clone() else {
            let seq = &mut self.sequences[idx];
            // Rows beyond the prompt grow the cache as they arrive, so no budget
            // allocates anything up front.
            seq.cache = SeqCache::F32(KvCache::with_capacity(layers, kv_dim, seq.prompt.len()));
            stats.prompt_tokens += seq.prompt.len();
            end_queue_wait(seq, &mut self.queue_wait, rec);
            rec.instant(Category::Lifecycle, "admitted", "seq", seq.id as u64);
            return true;
        };
        // Every paged admission attempt advances the counter injected reservation
        // denials are addressed by; a denial stalls the head of the queue for one pass,
        // exactly like a real transient pool exhaustion.
        if self.faults.as_mut().is_some_and(FaultState::deny_admission) {
            rec.instant(Category::Fault, "reservation_denied", "seq", self.sequences[idx].id as u64);
            return false;
        }
        if matches!(self.sequences[idx].cache, SeqCache::Spilled { .. }) {
            // Re-admitting a preempted sequence: the full worst-case reservation again
            // (its prompt was already counted at first admission), then restore the
            // spilled page bytes verbatim.
            self.preempt_until(idx, stats, rec);
            let restored = match &self.sequences[idx].cache {
                SeqCache::Spilled { spilled } => {
                    PagedKvCache::restore(&pool, layers, kv_dim, scheme, capacity, spilled)
                }
                _ => unreachable!("checked Spilled above"),
            };
            return match restored {
                Ok(cache) => {
                    let seq = &mut self.sequences[idx];
                    seq.cache = SeqCache::Paged(cache);
                    end_queue_wait(seq, &mut self.queue_wait, rec);
                    rec.instant(Category::Lifecycle, "restored", "seq", seq.id as u64);
                    true
                }
                Err(_) => false,
            };
        }
        if PagedKvCache::pages_needed(&pool, layers, capacity) > pool.total_pages() {
            // Larger than the whole budget: no amount of retirement or preemption can
            // ever admit it — the one true capacity failure Evicted is reserved for.
            self.sequences[idx].finish(FinishReason::Evicted);
            rec.instant(Category::Lifecycle, "evicted", "seq", self.sequences[idx].id as u64);
            return true;
        }
        let seq = &self.sequences[idx];
        if pool.lookup_prefix(layers, capacity, &seq.prompt, &seq.prefix_hashes).pending {
            // An admitted sequence is about to write this prompt's next page (it was
            // admitted this pass, or is still prefilling a chunk per pass): defer this
            // admission one pass — trading a pass of latency for the rest of the shared
            // prefill — without blocking the queue.
            return true;
        }
        self.preempt_until(idx, stats, rec);
        let seq = &mut self.sequences[idx];
        match PagedKvCache::with_prefix(&pool, layers, kv_dim, scheme, capacity, &seq.prompt, &seq.prefix_hashes) {
            Ok(cache) => {
                seq.shared_positions = cache.seq_len();
                stats.shared_pages += cache.shared_pages();
                stats.prefill_tokens_saved += cache.seq_len();
                seq.cache = SeqCache::Paged(cache);
                stats.prompt_tokens += seq.prompt.len();
                end_queue_wait(seq, &mut self.queue_wait, rec);
                rec.instant(Category::Lifecycle, "admitted", "seq", seq.id as u64);
                true
            }
            Err(_) => false,
        }
    }

    /// Pages sequence `idx`'s admission lacks right now: what it would take out of the
    /// pool's available pages — a spilled sequence's worst-case restore, or a waiting
    /// one's reservation plus the keyed home pages its prompt maps — beyond what is
    /// available.
    fn shortfall(&self, idx: usize) -> usize {
        let Some(pool) = &self.pool else { return 0 };
        let layers = self.model.config().layers;
        let seq = &self.sequences[idx];
        let demand = match seq.cache {
            SeqCache::Spilled { .. } => PagedKvCache::pages_needed(pool, layers, seq.capacity()),
            _ => pool.lookup_prefix(layers, seq.capacity(), &seq.prompt, &seq.prefix_hashes).demand,
        };
        demand.saturating_sub(pool.available_pages())
    }

    /// Preempts strictly lower-priority running sequences — spilling their pages to
    /// host memory via [`PagedKvCache::spill`] — until sequence `idx`'s admission fits
    /// ([`ServingEngine::shortfall`]) or no eligible victim remains. Victims are chosen
    /// lowest priority first, youngest (highest id) first within a class. A victim
    /// that was the last holder of the prefix `idx` maps leaves those pages home and
    /// keyed, so the admission maps them all the same. Preempted sequences re-enter
    /// admission as [`SeqCache::Spilled`] and resume bit-identically once restored.
    fn preempt_until(&mut self, idx: usize, stats: &mut RunStats, rec: &mut Recorder) {
        let priority = self.sequences[idx].priority;
        let eligible = |i: usize, s: &Sequence| {
            i != idx
                && s.finish.is_none()
                && s.prefilled()
                && s.priority < priority
                && matches!(s.cache, SeqCache::Paged(_))
        };
        // Spilling is wasted work if even every eligible victim together cannot fund the
        // admission: check the guaranteed-reclaimable total first (exclusively owned
        // pages, unused reservations and the keyed pages a victim holds alone, short of
        // the prompt pages it shares with the admission, which would only be mapped
        // back) and bail without demoting anyone when it cannot cover the shortfall.
        let keys = &self.sequences[idx].prefix_hashes;
        let reclaimable: usize = self
            .sequences
            .iter()
            .enumerate()
            .filter(|(i, s)| eligible(*i, s))
            .map(|(_, s)| match &s.cache {
                SeqCache::Paged(cache) => {
                    let common = s.prefix_hashes.iter().zip(keys).take_while(|(a, b)| a == b).count();
                    cache.reclaimable_pages(common)
                }
                _ => 0,
            })
            .sum();
        if reclaimable < self.shortfall(idx) {
            return;
        }
        while self.shortfall(idx) > 0 {
            let victim = self
                .sequences
                .iter()
                .enumerate()
                .filter(|(i, s)| eligible(*i, s))
                .min_by_key(|(i, s)| (s.priority, std::cmp::Reverse(*i)))
                .map(|(i, _)| i);
            let Some(victim) = victim else { return };
            let seq = &mut self.sequences[victim];
            let spilled = match &mut seq.cache {
                SeqCache::Paged(cache) => cache.spill(),
                _ => unreachable!("victim must hold a paged cache"),
            };
            seq.cache = SeqCache::Spilled { spilled };
            seq.queued_ns = Some(rec.now_nanos());
            rec.instant(Category::Lifecycle, "preempted", "seq", seq.id as u64);
            stats.preemptions += 1;
        }
    }

    /// Current measured cache storage across the engine (see
    /// [`ServingReport::resident_bytes`]).
    fn resident_bytes(&self) -> usize {
        match &self.pool {
            Some(pool) => pool.resident_bytes(),
            None => self
                .sequences
                .iter()
                .map(|s| match &s.cache {
                    SeqCache::F32(c) => c.resident_bytes(),
                    _ => 0,
                })
                .sum(),
        }
    }
}

/// Records the queue wait an admission of `seq` ends, if one is open (see
/// [`Sequence::queued_ns`]).
fn end_queue_wait(seq: &mut Sequence, queue_wait: &mut Histogram, rec: &Recorder) {
    if let Some(since) = seq.queued_ns.take() {
        queue_wait.record(rec.now_nanos().saturating_sub(since));
    }
}

/// Per-run accumulators the coordinator threads through admission and stepping.
#[derive(Debug, Default)]
struct RunStats {
    prompt_tokens: usize,
    generated: usize,
    prefill_time: Duration,
    decode_time: Duration,
    peak_resident: usize,
    shared_pages: usize,
    prefill_tokens_saved: usize,
    preemptions: usize,
    retries: usize,
    passes: usize,
    /// Decode latency samples, one per decode row of a completed forward: the time of
    /// that batched forward.
    tpot: Histogram,
    /// Coordinator scheduler-pass wall-time samples, one per pass.
    pass_latency: Histogram,
    /// Scheduler step invocations per worker (index = 0-based worker).
    worker_steps: Vec<usize>,
}

impl RunStats {
    /// Folds one sequence's step into the accumulators, crediting 0-based `worker`
    /// unless the sequence only waited for prefill budget. The batched forward's time
    /// reaches `prefill_time` and `decode_time` once per batch, not here.
    fn absorb(&mut self, worker: usize, out: &StepResult) {
        self.generated += out.tokens;
        if !out.tpot.is_zero() {
            // The u64 cast holds any realistic single-step latency (< 584 years).
            self.tpot.record(out.tpot.as_nanos() as u64);
        }
        if let Some(steps) = self.worker_steps.get_mut(worker).filter(|_| !out.waited) {
            *steps += 1;
        }
    }
}

/// What one sequence's part of a batched step produced: tokens emitted (0 or 1), the
/// decode latency its step saw — the time of the batched forward its decode row joined
/// (zero for a prompt chunk) — and whether it only waited, a prefilling sequence the
/// pass's [`PREFILL_BUDGET`] granted no rows.
#[derive(Debug, Clone, Copy, Default)]
struct StepResult {
    tokens: usize,
    tpot: Duration,
    waited: bool,
}

/// What one sequence's step asks of the pass's batched forward (see
/// [`Sequence::wants`]), and then what [`step_batch`] granted it.
#[derive(Debug, Clone, Copy)]
enum Rows {
    /// No rows: the sequence's own part of the step panicked.
    Nothing,
    /// One row: the last emitted token.
    Decode,
    /// Prompt rows: the rest of the prompt when asked, the chunk (maybe 0) when granted.
    Prompt(usize),
}

impl Rows {
    /// Rows this feeds the batched forward.
    fn count(self) -> usize {
        match self {
            Rows::Nothing => 0,
            Rows::Decode => 1,
            Rows::Prompt(rows) => rows,
        }
    }
}

/// What decode worker `w` keeps across a run's passes: one reusable scratch and one
/// trace recorder on lane `w + 1`, whose shard merges into the hub when the run ends.
struct Worker {
    scratch: PagedScratch,
    rec: Recorder,
}

/// What one batched step hands back to the coordinator: per sequence of its chunk, its
/// [`StepResult`] or `None` where its step panicked (the cache is suspect), and the
/// batched forward's time — worker busy time, counted once for the whole batch and
/// split between prefill and decode by the rows each fed it.
struct BatchReply {
    outcomes: Vec<Option<StepResult>>,
    prefill: Duration,
    decode: Duration,
}

/// Acts out an injected fault on the executing thread, inside the step's
/// `catch_unwind`.
fn act_injected_fault(fault: Option<InjectedFault>) {
    match fault {
        None => {}
        Some(InjectedFault::Slow(millis)) => std::thread::sleep(Duration::from_millis(millis)),
        // mx-analyze: allow(no-panics) reason: deterministic fault injection emulating a worker crash; only ever run under catch_unwind
        Some(InjectedFault::Panic) => panic!("injected worker fault"),
    }
}

/// One pass's fork-join: chunk `w` of `seqs` (`chunk` sequences each, with their
/// injected faults) steps on worker `w`, chunk 0 on the calling coordinator thread and
/// every other chunk on a scoped thread of its own, each borrowing its sequences in
/// place. Returns one reply per chunk, in chunk order; `None` where a panic escaped
/// [`step_batch`] and ended its thread.
fn step_chunks(
    model: &TransformerModel,
    seqs: &mut [&mut Sequence],
    faults: &[Option<InjectedFault>],
    chunk: usize,
    workers: &mut [Worker],
) -> Vec<Option<BatchReply>> {
    let mut chunks = seqs.chunks_mut(chunk).zip(faults.chunks(chunk)).zip(workers);
    let Some(((first, first_faults), coordinator)) = chunks.next() else { return Vec::new() };
    std::thread::scope(|scope| {
        let forked: Vec<_> = chunks
            .map(|((seqs, faults), worker)| scope.spawn(move || step_batch(model, seqs, faults, worker)))
            .collect();
        let mut replies = vec![Some(step_batch(model, first, first_faults, coordinator))];
        replies.extend(forked.into_iter().map(|thread| thread.join().ok()));
        replies
    })
}

/// One batched scheduler step over a chunk of sequences, on `worker`'s scratch and
/// recorder:
///
/// 1. Per sequence, in chunk order, under its own `catch_unwind`: act out its injected
///    fault, then ask for its rows ([`Sequence::wants`]). A prefilling sequence is
///    granted the next chunk of its prompt, as many rows as the [`PREFILL_BUDGET`] has
///    left; one granted none waits for a later pass. Decode rows never wait.
/// 2. Under one `catch_unwind`: one batched forward over every decode row and prompt
///    chunk, which samples and emits each sampled row's token ([`forward_batch`]),
///    recorded as one `forward` worker span carrying its decode sequence count, with
///    one `prefill_chunk` instant per prompt chunk in it.
///
/// A panic in the first phase costs only its own sequence. A panic inside the shared
/// forward may leave partial K/V appends in any member's cache, so every sequence of the
/// batch is reported as panicked and rolled back.
fn step_batch(
    model: &TransformerModel,
    seqs: &mut [&mut Sequence],
    faults: &[Option<InjectedFault>],
    worker: &mut Worker,
) -> BatchReply {
    let Worker { scratch, rec } = worker;
    let mut budget = PREFILL_BUDGET;
    let rows: Vec<Rows> = seqs
        .iter()
        .zip(faults)
        .map(|(seq, &fault)| {
            match catch_unwind(AssertUnwindSafe(|| {
                act_injected_fault(fault);
                seq.wants()
            })) {
                Ok(Rows::Prompt(left)) => {
                    let chunk = left.min(budget);
                    budget -= chunk;
                    Rows::Prompt(chunk)
                }
                Ok(wanted) => wanted,
                Err(_) => Rows::Nothing,
            }
        })
        .collect();
    let decode_seqs = rows.iter().filter(|granted| matches!(granted, Rows::Decode)).count();
    let prompt_rows = PREFILL_BUDGET - budget;
    let emitted_before: Vec<usize> = seqs.iter().map(|seq| seq.generated.len()).collect();
    let mut forward = Duration::ZERO;
    let mut completed = true;
    if decode_seqs + prompt_rows > 0 {
        let mut batch: Vec<(&mut Sequence, usize)> = seqs
            .iter_mut()
            .zip(&rows)
            .filter(|(_, granted)| granted.count() > 0)
            .map(|(seq, granted)| (&mut **seq, granted.count()))
            .collect();
        let mut span = rec.span(Category::Worker, "forward", "decode_seqs", decode_seqs as u64);
        for (seq, _) in batch.iter().filter(|(seq, _)| !seq.prefilled()) {
            span.recorder().instant(Category::Worker, "prefill_chunk", "seq", seq.id as u64);
        }
        let t0 = Instant::now();
        completed = catch_unwind(AssertUnwindSafe(|| forward_batch(model, &mut batch, scratch))).is_ok();
        if completed {
            forward = t0.elapsed();
        }
    }
    let outcomes = seqs
        .iter_mut()
        .zip(&rows)
        .zip(emitted_before)
        .map(|((seq, &granted), before)| match granted {
            Rows::Nothing => None,
            Rows::Prompt(0) => Some(StepResult { waited: true, ..StepResult::default() }),
            _ if !completed => None,
            _ => {
                let tokens = seq.generated.len() - before;
                if before == 0 && tokens == 1 {
                    // TTFT anchor: the first token became caller-visible in the pass
                    // that sampled it.
                    seq.first_token_ns = Some(rec.now_nanos());
                    rec.instant(Category::Lifecycle, "first_token", "seq", seq.id as u64);
                }
                let tpot = if matches!(granted, Rows::Decode) { forward } else { Duration::ZERO };
                Some(StepResult { tokens, tpot, waited: false })
            }
        })
        .collect();
    // Worker busy time, split between decode and prefill by the rows each fed.
    let decode = forward.mul_f64(decode_seqs as f64 / (decode_seqs + prompt_rows).max(1) as f64);
    BatchReply { outcomes, prefill: forward.saturating_sub(decode), decode }
}

/// The batched half of a step: one forward over every `(sequence, rows)` member, its
/// last emitted token (one row) or the next `rows` positions of its prompt. Each
/// sequence that decoded, or whose chunk completed its prompt, then samples its next
/// token from its own logits row with its own RNG and emits it
/// ([`Sequence::emit`]).
fn forward_batch(model: &TransformerModel, seqs: &mut [(&mut Sequence, usize)], scratch: &mut PagedScratch) {
    // An engine runs one backend, so one of the two calls finds no member.
    forward_on(model, seqs, SeqCache::f32_mut, &mut ());
    forward_on(model, seqs, SeqCache::paged_mut, scratch);
}

/// [`forward_batch`] over the members of `seqs` whose cache `cache_of` selects. Only
/// the rows that get sampled reach the lm_head: each decode row and the last row of
/// each chunk that completes its prompt.
fn forward_on<B: KvBackend>(
    model: &TransformerModel,
    seqs: &mut [(&mut Sequence, usize)],
    cache_of: fn(&mut SeqCache) -> Option<&mut B>,
    scratch: &mut B::Scratch,
) {
    let mut sampled = Vec::with_capacity(seqs.len());
    let mut logit_rows = Vec::with_capacity(seqs.len());
    let mut segments = Vec::with_capacity(seqs.len());
    let mut stacked = 0;
    for (i, (seq, rows)) in seqs.iter_mut().enumerate() {
        let Sequence { prompt, generated, cache, .. } = &mut **seq;
        let Some(cache) = cache_of(cache) else { continue };
        let (tokens, samples) = match generated.last() {
            Some(last) => (std::slice::from_ref(last), true),
            None => {
                // Prefill continues from the cache's own length, so a chunk needs no
                // state beyond the cache.
                let from = cache.seq_len();
                (&prompt[from..from + *rows], from + *rows == prompt.len())
            }
        };
        stacked += tokens.len();
        if samples {
            sampled.push(i);
            logit_rows.push(stacked - 1);
        }
        segments.push((tokens, cache));
    }
    if segments.is_empty() {
        return;
    }
    let logits = model.forward_batch_logits_with_scratch(&mut segments, &logit_rows, scratch);
    drop(segments);
    for (&i, row) in sampled.iter().zip(logits.iter_rows()) {
        let seq = &mut *seqs[i].0;
        let token = seq.sample(row);
        seq.emit(token);
    }
}

/// Default worker count: the machine's available parallelism (1 if unknown).
fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::quant_config::ModelQuantConfig;
    use crate::sampling::SamplingPolicy;

    fn model(quant: ModelQuantConfig) -> TransformerModel {
        TransformerModel::new(ModelConfig::tiny_test(5), quant)
    }

    #[test]
    fn batched_decode_matches_sequential_greedy_generation() {
        let model = model(ModelQuantConfig::uniform(QuantScheme::mxfp4()));
        let prompts: [&[usize]; 3] = [&[1, 2, 3], &[7, 7], &[10, 20, 30, 40]];
        let mut engine = ServingEngine::new(&model);
        for p in prompts {
            engine.submit_with(p, SubmitOptions::new(6));
        }
        let report = engine.run();
        assert_eq!(report.generated_tokens, 18);
        for (seq, p) in engine.sequences().iter().zip(prompts) {
            // Batching sequences must not change any sequence's output: each cache is
            // independent and a batched forward's rows are too, so batched decode
            // equals one-at-a-time generation.
            assert_eq!(seq.generated, model.generate_greedy(p, 6), "sequence {}", seq.id);
            // prompt rows from prefill plus one appended row per decode; the budgeted
            // last token is sampled from the previous step's logits, not decoded itself.
            assert_eq!(seq.cached_positions(), p.len() + 5);
            assert_eq!(seq.finish_reason(), Some(FinishReason::Length));
        }
    }

    #[test]
    fn report_accounts_tokens_and_cache_bytes() {
        let model = model(ModelQuantConfig::uniform(QuantScheme::mxfp4()));
        let mut engine = ServingEngine::new(&model);
        engine.submit_with(&[1, 2, 3, 4], SubmitOptions::new(5));
        engine.submit_with(&[5, 6], SubmitOptions::new(5));
        let report = engine.run();
        assert_eq!(report.sequences, 2);
        assert_eq!(report.prompt_tokens, 6);
        assert_eq!(report.generated_tokens, 10);
        assert_eq!(report.scheme, "MXFP4");
        assert_eq!(report.backend, "f32-contiguous");
        assert_eq!(report.finished_length, 2);
        // tiny_test: 2 layers, kv_dim 64. One cached row per prompt token plus one per
        // decode step; the final budgeted token is sampled without its own forward pass.
        let expected_rows = (4 + 4) + (2 + 4);
        let per_row = LayerKvCache::row_storage_bytes(64, QuantScheme::mxfp4());
        assert_eq!(report.theoretical_bytes, 2 * 2 * expected_rows * per_row);
        assert!(report.theoretical_compression() > 7.0, "4.25-bit cache must compress FP32 by ~7.5x");
        // The satellite fix this field exists for: the f32 backend's *measured* storage
        // is full f32 — here the row storage as it grew: each cache reserves its
        // prompt's rows at admission and doubles as decode rows arrive (4 → 8 and
        // 2 → 4 → 8 positions), across 2 layers, K and V, 64 floats per row — not the
        // scheme's width.
        assert_eq!(report.resident_bytes, 2 * 2 * (8 + 8) * 64 * 4);
        assert!(report.resident_bytes >= report.theoretical_bytes_fp32);
        assert!(report.resident_compression() <= 1.0 + 1e-9);
        assert!(report.decode_tokens_per_sec > 0.0);
        // The new timing fields are populated and self-consistent.
        assert!(report.wall_seconds > 0.0);
        assert!(report.tokens_per_sec_parallel > 0.0);
        assert!(report.num_threads >= 1);
        assert!(report.wall_seconds >= report.decode_time.as_secs_f64() / report.num_threads as f64);
    }

    #[test]
    fn a_panic_inside_the_batched_forward_rolls_back_its_whole_batch() {
        let model = model(ModelQuantConfig::uniform(QuantScheme::mxfp4()));
        let prompts: [&[usize]; 3] = [&[1, 2, 3], &[7, 7], &[10, 20, 30, 40]];
        // One thread steps all three sequences as one batch; two threads split them
        // into chunks {0, 1} and {2}, so only sequence 1's batch-mate shares its fate.
        for (threads, rolled_back) in [(1usize, vec![1, 1, 1]), (2, vec![1, 1, 0])] {
            let mut engine = ServingEngine::paged(&model, 64).with_threads(threads);
            for p in prompts {
                engine.submit_with(p, SubmitOptions::new(6));
            }
            // Pass 0 prefills every sequence and emits its first token. Then an emitted
            // token outside the vocabulary trips the embedding's assert inside the next
            // pass's shared forward: a genuine panic, not an injected one.
            engine.run_for(1);
            *engine.sequences[1].generated.last_mut().expect("pass 0 emitted a token") = model.config().vocab;
            let report = engine.run();
            assert_eq!(report.retries, rolled_back.iter().sum::<usize>(), "{threads} threads");
            let attempts: Vec<usize> = engine.sequences().iter().map(Sequence::attempts).collect();
            assert_eq!(attempts, rolled_back, "{threads} threads");
            for (seq, p) in engine.sequences().iter().zip(prompts) {
                assert_eq!(seq.generated, model.generate_greedy(p, 6), "{threads} threads: sequence {}", seq.id);
            }
            let pool = engine.pool().unwrap();
            assert_eq!(pool.in_use_pages(), 0);
            assert_eq!(pool.reserved_pages(), 0);
        }
    }

    #[test]
    fn run_for_zero_runs_no_pass() {
        let model = model(ModelQuantConfig::uniform(QuantScheme::mxfp4()));
        let mut engine = ServingEngine::paged(&model, 16);
        engine.submit_with(&[1, 2, 3], SubmitOptions::new(4));
        let report = engine.run_for(0);
        assert_eq!((report.passes, report.prompt_tokens, report.generated_tokens), (0, 0, 0));
        assert!(engine.sequences()[0].generated.is_empty());
        assert_eq!(engine.pool().unwrap().reserved_pages(), 0, "nothing was admitted");
        let report = engine.run();
        assert_eq!(report.finished_length, 1);
        assert_eq!(engine.sequences()[0].generated, model.generate_greedy(&[1, 2, 3], 4));
    }

    #[test]
    fn run_is_idempotent_once_finished() {
        let model = model(ModelQuantConfig::BASELINE);
        let mut engine = ServingEngine::new(&model);
        engine.submit_with(&[2, 4, 6], SubmitOptions::new(3));
        let first = engine.run();
        assert_eq!(first.generated_tokens, 3);
        let second = engine.run();
        assert_eq!(second.generated_tokens, 0);
        assert_eq!(second.prompt_tokens, 0);
        assert_eq!(engine.sequences()[0].generated.len(), 3);
    }

    #[test]
    fn stop_token_finishes_early_without_emitting_it() {
        let model = model(ModelQuantConfig::BASELINE);
        // Find what the model would greedily generate, then use one of those tokens as
        // the stop token of a second, stop-aware run.
        let free = model.generate_greedy(&[3, 1, 4], 8);
        let stop = free[3];
        let mut engine = ServingEngine::new(&model);
        engine.submit_with(&[3, 1, 4], SubmitOptions::new(8).stop_token(stop));
        let report = engine.run();
        let seq = &engine.sequences()[0];
        assert_eq!(seq.finish_reason(), Some(FinishReason::Stop));
        assert_eq!(seq.generated, free[..3], "generation must match the free run up to the stop");
        assert!(!seq.generated.contains(&stop), "the stop token is not emitted");
        assert_eq!(report.finished_stop, 1);
        assert_eq!(report.finished_length, 0);
        assert_eq!(report.generated_tokens, 3);
    }

    #[test]
    fn stop_token_never_generated_falls_back_to_length() {
        let model = model(ModelQuantConfig::BASELINE);
        let free = model.generate_greedy(&[2, 2], 4);
        let never = (0..model.config().vocab).find(|t| !free.contains(t)).unwrap();
        let mut engine = ServingEngine::new(&model);
        engine.submit_with(&[2, 2], SubmitOptions::new(4).stop_token(never));
        engine.run();
        let seq = &engine.sequences()[0];
        assert_eq!(seq.finish_reason(), Some(FinishReason::Length));
        assert_eq!(seq.generated, free);
    }

    #[test]
    fn zero_budget_sequences_finish_without_tokens() {
        let model = model(ModelQuantConfig::BASELINE);
        let mut engine = ServingEngine::new(&model);
        engine.submit_with(&[1, 2, 3], SubmitOptions::new(0));
        let report = engine.run();
        assert_eq!(report.generated_tokens, 0);
        assert_eq!(report.prompt_tokens, 3);
        assert_eq!(engine.sequences()[0].finish_reason(), Some(FinishReason::Length));
    }

    #[test]
    fn paged_backend_generates_token_identical_output() {
        let quant = ModelQuantConfig::uniform(QuantScheme::mxfp4());
        let model = model(quant);
        let prompts: [&[usize]; 3] = [&[1, 2, 3], &[9, 8], &[5, 5, 5, 5]];
        let mut flat = ServingEngine::new(&model);
        let mut paged = ServingEngine::paged(&model, 64);
        for p in prompts {
            flat.submit_with(p, SubmitOptions::new(6));
            paged.submit_with(p, SubmitOptions::new(6));
        }
        let flat_report = flat.run();
        let paged_report = paged.run();
        assert_eq!(paged_report.backend, "paged-packed");
        assert_eq!(paged_report.generated_tokens, flat_report.generated_tokens);
        for (a, b) in flat.sequences().iter().zip(paged.sequences()) {
            assert_eq!(a.generated, b.generated, "sequence {} diverges across backends", a.id);
        }
        // The paged backend's measured bytes sit near the scheme width, well below f32
        // even with these short sequences half-filling their 16-position pages (the
        // integration tests pin the >=4x ratio at realistic lengths).
        assert!(paged_report.resident_bytes < paged_report.theoretical_bytes_fp32 / 3);
        // All pages returned after the run.
        let pool = paged.pool().unwrap();
        assert_eq!(pool.in_use_pages(), 0);
        assert_eq!(pool.reserved_pages(), 0);
    }

    #[test]
    fn oversubscribed_pool_admits_late_sequences_as_pages_free_up() {
        let model = model(ModelQuantConfig::uniform(QuantScheme::mxfp4()));
        // Each sequence needs 2 layers * ceil((2 + 14)/16) = 2 pages; a 5-page pool
        // holds at most two at a time, so 6 submissions must queue.
        let mut engine = ServingEngine::paged(&model, 5);
        for s in 0..6usize {
            engine.submit_with(&[s + 1, s + 2], SubmitOptions::new(14));
        }
        let report = engine.run();
        assert_eq!(report.sequences, 6);
        assert_eq!(report.finished_length, 6);
        assert_eq!(report.evicted, 0);
        assert_eq!(report.generated_tokens, 6 * 14);
        // Every sequence's output still matches its solo greedy generation.
        for seq in engine.sequences() {
            assert_eq!(seq.generated, model.generate_greedy(&seq.prompt, 14), "sequence {}", seq.id);
        }
        // The final accounting covers every sequence and the pool drained fully.
        let pool = engine.pool().unwrap();
        assert_eq!(pool.in_use_pages(), 0);
        assert_eq!(pool.reserved_pages(), 0);
        assert_eq!(pool.free_pages(), pool.total_pages());
        // Peak occupancy respects the budget: never more than 5 pages' worth resident.
        assert!(report.resident_bytes <= 5 * pool.page_bytes());
    }

    #[test]
    fn sequences_larger_than_the_pool_are_evicted_not_deadlocked() {
        let model = model(ModelQuantConfig::uniform(QuantScheme::mxfp4()));
        let mut engine = ServingEngine::paged(&model, 4);
        engine.submit_with(&[1, 2], SubmitOptions::new(6)); // fits: 2 pages
        engine.submit_with(&[3, 4], SubmitOptions::new(200)); // needs 2 * ceil(202/16) = 26 pages > 4: evicted
        engine.submit_with(&[5, 6], SubmitOptions::new(6)); // fits after the big one is evicted
        let report = engine.run();
        assert_eq!(report.finished_length, 2);
        assert_eq!(report.evicted, 1);
        assert_eq!(engine.sequences()[1].finish_reason(), Some(FinishReason::Evicted));
        assert!(engine.sequences()[1].generated.is_empty());
        assert_eq!(report.finished_length + report.finished_stop + report.evicted, report.sequences);
    }

    #[test]
    fn explicit_thread_counts_agree_with_the_default_engine() {
        let model = model(ModelQuantConfig::uniform(QuantScheme::mxfp4()));
        let prompts: [&[usize]; 5] = [&[1, 2, 3], &[7, 7], &[10, 20, 30, 40], &[2], &[8, 6, 4]];
        let mut reference: Option<Vec<Vec<usize>>> = None;
        for threads in [1usize, 2, 3, 8] {
            let mut engine = ServingEngine::new(&model).with_threads(threads);
            for p in prompts {
                engine.submit_with(p, SubmitOptions::new(7));
            }
            let report = engine.run();
            assert_eq!(report.num_threads, threads);
            assert_eq!(report.generated_tokens, 5 * 7);
            let outputs: Vec<Vec<usize>> = engine.sequences().iter().map(|s| s.generated.clone()).collect();
            match &reference {
                None => reference = Some(outputs),
                Some(r) => assert_eq!(r, &outputs, "outputs diverge at {threads} threads"),
            }
        }
    }

    #[test]
    fn top_k_sampling_is_seeded_and_reproducible() {
        let model = model(ModelQuantConfig::BASELINE);
        let sampling = Sampling::top_k(4, 0.9, 1234);
        let run = |threads: usize| {
            let mut engine = ServingEngine::new(&model).with_threads(threads);
            engine.submit_with(&[3, 1, 4], SubmitOptions::new(12).sampling(sampling));
            engine.submit_with(&[2, 7], SubmitOptions::new(12).sampling(sampling));
            engine.run();
            engine.sequences().iter().map(|s| s.generated.clone()).collect::<Vec<_>>()
        };
        let a = run(1);
        let b = run(1);
        assert_eq!(a, b, "same seed must reproduce the same sampled stream");
        let c = run(4);
        assert_eq!(a, c, "sampled streams must not depend on the thread count");
        // Distinct per-sequence RNG streams: two sequences with the same prompt would
        // still decorrelate; here different prompts plus different streams.
        assert!(a[0].iter().all(|&t| t < model.config().vocab));
        // A different seed almost surely takes a different path within 12 tokens of
        // k=4 sampling; pin it so the seed is demonstrably load-bearing.
        let mut other = ServingEngine::new(&model);
        other.submit_with(&[3, 1, 4], SubmitOptions::new(12).sampling(Sampling::top_k(4, 0.9, 77)));
        other.run();
        assert_ne!(a[0], other.sequences()[0].generated, "different seeds must decorrelate");
    }

    #[test]
    fn greedy_sampling_field_defaults_preserve_old_submissions() {
        let model = model(ModelQuantConfig::BASELINE);
        let mut engine = ServingEngine::new(&model);
        engine.submit_with(&[5, 9], SubmitOptions::new(4));
        assert_eq!(engine.sequences()[0].sampling, Sampling::GREEDY);
        engine.run();
        assert_eq!(engine.sequences()[0].generated, model.generate_greedy(&[5, 9], 4));
    }

    #[test]
    fn sampled_sequences_respect_stop_tokens() {
        let model = model(ModelQuantConfig::BASELINE);
        // Sample freely once to learn the stream, then stop on its third token.
        let sampling = Sampling::top_p(0.8, 1.0, 99);
        let mut free = ServingEngine::new(&model);
        free.submit_with(&[6, 2, 8], SubmitOptions::new(10).sampling(sampling));
        free.run();
        let stream = free.sequences()[0].generated.clone();
        assert_eq!(stream.len(), 10);
        let stop = stream[3];
        // Only meaningful if the stop token does not appear earlier in the stream.
        if stream[..3].contains(&stop) {
            return;
        }
        let mut engine = ServingEngine::new(&model);
        engine.submit_with(&[6, 2, 8], SubmitOptions::new(10).stop_token(stop).sampling(sampling));
        engine.run();
        let seq = &engine.sequences()[0];
        assert_eq!(seq.finish_reason(), Some(FinishReason::Stop));
        assert_eq!(seq.generated, stream[..3]);
    }

    #[test]
    fn submit_options_builder_defaults_and_setters() {
        let opts = SubmitOptions::new(9);
        assert_eq!(opts.max_new_tokens, 9);
        assert_eq!(opts.stop_token, None);
        assert_eq!(opts.sampling, Sampling::GREEDY);
        assert_eq!(opts.priority, 0);
        assert_eq!(opts.arrival_pass, 0);
        assert!(opts.share_prefix);
        let opts = opts.stop_token(3).sampling(Sampling::top_p(0.5, 1.0, 7)).priority(2).arrival_pass(5);
        assert_eq!(opts.stop_token, Some(3));
        assert_eq!(opts.sampling, Sampling::top_p(0.5, 1.0, 7));
        assert_eq!(opts.priority, 2);
        assert_eq!(opts.arrival_pass, 5);
        assert!(!opts.without_prefix_sharing().share_prefix);
    }

    #[test]
    fn prefix_sharing_skips_prefill_and_stays_token_identical() {
        let model = model(ModelQuantConfig::uniform(QuantScheme::mxfp4()));
        // 4-position pages: a 10-token common prefix spans 2 full pages, which are
        // shared, plus a partial boundary page, which every sequence prefills itself.
        let prefix: Vec<usize> = (0..10).map(|i| (i * 13 + 3) % 128).collect();
        let prompts: Vec<Vec<usize>> = (0..4)
            .map(|s| {
                let mut p = prefix.clone();
                p.push(90 + s); // diverge after the common prefix
                p
            })
            .collect();
        let run = |share: bool| {
            let mut engine = ServingEngine::paged_with(&model, 64, 4).with_threads(1);
            for p in &prompts {
                let opts = SubmitOptions::new(8);
                engine.submit_with(p, if share { opts } else { opts.without_prefix_sharing() });
            }
            let report = engine.run();
            let pool = engine.pool().unwrap();
            assert_eq!(pool.in_use_pages(), 0, "pages leaked (share={share})");
            assert_eq!(pool.reserved_pages(), 0, "reservations leaked (share={share})");
            let streams: Vec<Vec<usize>> = engine.sequences().iter().map(|s| s.generated.clone()).collect();
            let shared_positions: Vec<usize> = engine.sequences().iter().map(Sequence::shared_positions).collect();
            (report, streams, shared_positions)
        };
        let (shared_report, shared_streams, shared_positions) = run(true);
        let (plain_report, plain_streams, plain_positions) = run(false);
        // The tentpole invariant: sharing changes memory and prefill work, not tokens.
        assert_eq!(shared_streams, plain_streams, "prefix sharing must be token-identical");
        for (stream, p) in shared_streams.iter().zip(&prompts) {
            assert_eq!(stream, &model.generate_greedy(p, 8), "shared stream diverges from solo generation");
        }
        // Sequences 1..4 each mapped the 2 full prefix pages sequence 0 published.
        assert_eq!(shared_positions, vec![0, 8, 8, 8]);
        assert_eq!(plain_positions, vec![0; 4]);
        // 3 recipients x 2 layers x 2 full pages mapped, 24 positions saved.
        assert_eq!(shared_report.shared_pages, 3 * 2 * 2);
        assert_eq!(shared_report.prefill_tokens_saved, 24);
        assert_eq!(plain_report.shared_pages, 0);
        assert_eq!(plain_report.prefill_tokens_saved, 0);
        assert!(
            shared_report.resident_bytes < plain_report.resident_bytes,
            "sharing must shrink peak residency: {} vs {}",
            shared_report.resident_bytes,
            plain_report.resident_bytes
        );
    }

    #[test]
    fn identical_prompts_still_rerun_the_last_position() {
        // A fully identical prompt shares every whole page short of the last position,
        // whose logits seed the first sampled token: 11 positions hold 2 full pages.
        let model = model(ModelQuantConfig::uniform(QuantScheme::mxfp4()));
        let prompt: Vec<usize> = (0..12).map(|i| (i * 7 + 1) % 128).collect();
        let mut engine = ServingEngine::paged_with(&model, 64, 4).with_threads(1);
        for _ in 0..2 {
            engine.submit_with(&prompt, SubmitOptions::new(6));
        }
        engine.run();
        assert_eq!(engine.sequences()[1].shared_positions(), 8);
        let solo = model.generate_greedy(&prompt, 6);
        for seq in engine.sequences() {
            assert_eq!(seq.generated, solo, "sequence {}", seq.id);
        }
    }

    #[test]
    fn high_priority_arrival_preempts_and_victim_resumes_bit_identically() {
        let model = model(ModelQuantConfig::uniform(QuantScheme::mxfp4()));
        // 4-page pool (16-position pages). The low-priority victim needs 2 pages and is
        // admitted alone; at pass 3 the high-priority arrival needs all 4 pages, so the
        // scheduler must spill the victim rather than stall behind it.
        let mut engine = ServingEngine::paged(&model, 4).with_threads(1);
        let victim = engine.submit_with(&[5, 6], SubmitOptions::new(12));
        let urgent = engine.submit_with(&[8, 9], SubmitOptions::new(28).priority(1).arrival_pass(3));
        let report = engine.run();
        assert_eq!(report.preemptions, 1, "the low-priority sequence must be swapped out");
        assert_eq!(report.evicted, 0, "preemption is not eviction");
        assert_eq!(report.finished_length, 2);
        // Both sequences finish with their solo-greedy streams: the victim's restored
        // pages are bit-identical to the spilled ones.
        assert_eq!(engine.sequences()[victim].generated, model.generate_greedy(&[5, 6], 12));
        assert_eq!(engine.sequences()[urgent].generated, model.generate_greedy(&[8, 9], 28));
        let pool = engine.pool().unwrap();
        assert_eq!(pool.in_use_pages(), 0);
        assert_eq!(pool.reserved_pages(), 0);
    }

    #[test]
    fn queue_wait_samples_every_first_admission_and_every_restore() {
        // The preemption scenario above: the victim waits for its first admission and
        // again while spilled, the urgent arrival once. The histogram lives as long as
        // the engine, so a run_for(1) loop reports the same samples as one run().
        let model = model(ModelQuantConfig::uniform(QuantScheme::mxfp4()));
        for looped in [false, true] {
            let mut engine = ServingEngine::paged(&model, 4).with_threads(1);
            engine.submit_with(&[5, 6], SubmitOptions::new(12));
            engine.submit_with(&[8, 9], SubmitOptions::new(28).priority(1).arrival_pass(3));
            // Preemptions are counted per call; both sequences finish, so each spilled
            // sequence was restored once.
            let mut restores = 0;
            let report = loop {
                let report = if looped { engine.run_for(1) } else { engine.run() };
                restores += report.preemptions;
                if engine.sequences().iter().all(Sequence::is_finished) {
                    break report;
                }
            };
            assert_eq!((report.finished_length, restores), (2, 1), "looped {looped}");
            assert_eq!(report.latency.queue_wait.count, (report.sequences + restores) as u64, "looped {looped}");
        }
    }

    #[test]
    fn a_huge_retry_backoff_parks_the_faulted_sequence() {
        // The policy's fields are public: a backoff of usize::MAX must park the faulted
        // sequence for good, not overflow the retry pass (a debug-build panic on the
        // coordinator, a retry on the very next pass in release).
        let model = model(ModelQuantConfig::uniform(QuantScheme::mxfp4()));
        let prompts: [&[usize]; 3] = [&[1, 2, 3], &[7, 7], &[10, 20, 30, 40]];
        let policy = RecoveryPolicy { backoff_passes: usize::MAX, ..RecoveryPolicy::default() };
        for threads in [1usize, 2] {
            // Worker 0's first step is sequence 0's prefill at either thread count.
            let plan = FaultPlan::seeded(1).inject(crate::fault::FaultKind::WorkerPanic { worker: 0, job: 1 });
            let mut engine =
                ServingEngine::paged(&model, 64).with_threads(threads).with_faults(plan).with_recovery(policy);
            for p in prompts {
                engine.submit_with(p, SubmitOptions::new(6));
            }
            let report = engine.run_for(20);
            assert_eq!(report.retries, 1, "{threads} threads");
            let faulted = &engine.sequences()[0];
            assert_eq!((faulted.finish_reason(), faulted.attempts()), (None, 1), "{threads} threads");
            assert!(faulted.generated.is_empty(), "{threads} threads");
            for (seq, p) in engine.sequences().iter().zip(prompts).skip(1) {
                assert_eq!(seq.finish_reason(), Some(FinishReason::Length), "{threads} threads");
                assert_eq!(seq.generated, model.generate_greedy(p, 6), "{threads} threads: sequence {}", seq.id);
            }
            let drained = engine.drain();
            assert_eq!((drained.waiting, drained.finished), (1, 2), "{threads} threads");
            let pool = engine.pool().unwrap();
            assert_eq!((pool.in_use_pages(), pool.reserved_pages()), (0, 0), "{threads} threads");
        }
    }

    #[test]
    fn a_preempted_last_holder_leaves_its_prefix_mappable() {
        // A high-priority arrival sharing a lower-priority sequence's prompt prefix may
        // spill that sequence, the prefix's only holder: its keyed pages go home and the
        // arrival maps them all the same. 8-page pool: the holder (32-token prompt, 3
        // pages/layer) leaves 2 pages free; the sharer needs 4 beyond the shared
        // prefix, so pressure is real and the holder is the only lower-priority
        // sequence.
        let model = model(ModelQuantConfig::uniform(QuantScheme::mxfp4()));
        let common: Vec<usize> = (0..32).map(|i| (i * 11 + 2) % 128).collect();
        let mut sharer_prompt = common.clone();
        sharer_prompt.push(99);
        let mut engine = ServingEngine::paged(&model, 8).with_threads(1);
        engine.submit_with(&common, SubmitOptions::new(7));
        engine.submit_with(&sharer_prompt, SubmitOptions::new(25).priority(1).arrival_pass(2));
        let report = engine.run();
        assert_eq!(report.preemptions, 1, "the holder is spilled to fund the sharer");
        assert_eq!(engine.sequences()[1].shared_positions(), 32, "the spilled holder's pages still map");
        assert_eq!(report.evicted, 0);
        assert_eq!(report.finished_length, 2);
        assert_eq!(engine.sequences()[0].generated, model.generate_greedy(&common, 7));
        assert_eq!(engine.sequences()[1].generated, model.generate_greedy(&sharer_prompt, 25));
        let pool = engine.pool().unwrap();
        assert_eq!(pool.in_use_pages(), 0);
        assert_eq!(pool.reserved_pages(), 0);
    }

    #[test]
    fn preemption_spills_no_one_when_victims_cannot_fund_the_admission() {
        // 8-page pool: a small priority-0 victim (2 pages) plus a priority-1 holder
        // (4 pages). The priority-1 arrival needs 6 pages, but spilling the only
        // eligible victim guarantees just 2 + 2 = 4 — the precheck must leave the
        // victim running (no wasted spill/restore) and the arrival waits its turn.
        let model = model(ModelQuantConfig::uniform(QuantScheme::mxfp4()));
        let mut engine = ServingEngine::paged(&model, 8).with_threads(1);
        engine.submit_with(&[5, 6], SubmitOptions::new(12)); // priority 0: 2 pages
        engine.submit_with(&[7, 8], SubmitOptions::new(25).priority(1)); // 4 pages
        engine.submit_with(&[9, 9], SubmitOptions::new(40).priority(1).arrival_pass(3)); // needs 6
        let report = engine.run();
        assert_eq!(report.preemptions, 0, "spilling the victim could never fund the admission");
        assert_eq!(report.evicted, 0);
        assert_eq!(report.finished_length, 3);
        for (seq, (prompt, budget)) in
            engine.sequences().iter().zip([(vec![5, 6], 12), (vec![7, 8], 25), (vec![9, 9], 40)])
        {
            assert_eq!(seq.generated, model.generate_greedy(&prompt, budget), "sequence {}", seq.id);
        }
    }

    #[test]
    fn equal_priorities_never_preempt() {
        let model = model(ModelQuantConfig::uniform(QuantScheme::mxfp4()));
        let mut engine = ServingEngine::paged(&model, 4).with_threads(1);
        engine.submit_with(&[5, 6], SubmitOptions::new(12));
        // Same priority: the late arrival waits for pages like plain continuous batching.
        engine.submit_with(&[8, 9], SubmitOptions::new(28).arrival_pass(3));
        let report = engine.run();
        assert_eq!(report.preemptions, 0);
        assert_eq!(report.finished_length, 2);
        assert_eq!(engine.sequences()[0].generated, model.generate_greedy(&[5, 6], 12));
        assert_eq!(engine.sequences()[1].generated, model.generate_greedy(&[8, 9], 28));
    }

    #[test]
    #[should_panic(expected = "prompt must be non-empty")]
    fn submit_rejects_empty_prompts() {
        let model = model(ModelQuantConfig::BASELINE);
        ServingEngine::new(&model).submit_with(&[], SubmitOptions::new(4));
    }

    #[test]
    #[should_panic(expected = "prompt token id out of vocabulary")]
    fn submit_rejects_prompt_ids_outside_the_vocabulary() {
        let model = model(ModelQuantConfig::BASELINE);
        let vocab = model.config().vocab;
        ServingEngine::paged(&model, 16).submit_with(&[1, vocab, 2], SubmitOptions::new(4));
    }

    #[test]
    fn a_recipient_waits_for_a_prefilling_donor_to_cache_the_whole_match() {
        // The donor's prompt is longer than one forward's budget, so it is still
        // prefilling when the recipient arrives a pass later, with 4 of the 5 matching
        // whole pages published. The recipient waits a pass for the announced fifth page
        // and then maps all 80 positions rather than 64 and prefilling the other 16
        // itself.
        let model = model(ModelQuantConfig::uniform(QuantScheme::mxfp4()));
        let donor: Vec<usize> = (0..PREFILL_BUDGET + 36).map(|i| (i * 5 + 3) % 128).collect();
        let mut recipient = donor[..90].to_vec();
        recipient.push(127);
        let mut engine = ServingEngine::paged(&model, 64).with_threads(1);
        engine.submit_with(&donor, SubmitOptions::new(6));
        engine.submit_with(&recipient, SubmitOptions::new(6).arrival_pass(1));
        let report = engine.run();
        assert_eq!(engine.sequences()[1].shared_positions(), 80);
        assert_eq!(report.prefill_tokens_saved, 80);
        assert_eq!(engine.sequences()[0].generated, model.generate_greedy(&donor, 6));
        assert_eq!(engine.sequences()[1].generated, model.generate_greedy(&recipient, 6));
        let pool = engine.pool().unwrap();
        assert_eq!(pool.in_use_pages(), 0);
        assert_eq!(pool.reserved_pages(), 0);
    }

    #[test]
    fn huge_generation_budgets_allocate_nothing_up_front() {
        let model = model(ModelQuantConfig::uniform(QuantScheme::mxfp4()));
        for budget in [1usize << 40, usize::MAX] {
            // The paged backend evicts a request no pool could ever hold and serves the
            // rest of the run as usual...
            let mut paged = ServingEngine::paged(&model, 16).with_threads(1);
            paged.submit_with(&[1, 2, 3], SubmitOptions::new(budget));
            paged.submit_with(&[4, 5], SubmitOptions::new(3));
            paged.run_for(8);
            assert_eq!(paged.sequences()[0].finish_reason(), Some(FinishReason::Evicted), "budget {budget}");
            assert_eq!(paged.sequences()[1].generated, model.generate_greedy(&[4, 5], 3), "budget {budget}");
            assert_eq!(paged.pool().unwrap().in_use_pages(), 0);
            // ...and the f32 backend serves it, its storage growing as tokens arrive.
            let mut flat = ServingEngine::new(&model).with_threads(1);
            flat.submit_with(&[1, 2, 3], SubmitOptions::new(budget));
            let report = flat.run_for(4);
            let seq = &flat.sequences()[0];
            assert_eq!(seq.generated, model.generate_greedy(&[1, 2, 3], 4), "budget {budget}");
            assert_eq!(seq.finish_reason(), None);
            assert!(report.resident_bytes < 1 << 20, "budget {budget}: {} bytes resident", report.resident_bytes);
        }
    }

    #[test]
    #[should_panic(expected = "top-k needs k >= 1")]
    fn submit_rejects_top_k_of_zero() {
        let model = model(ModelQuantConfig::BASELINE);
        let sampling = Sampling { policy: SamplingPolicy::TopK { k: 0 }, temperature: 1.0, seed: 0 };
        ServingEngine::new(&model).submit_with(&[1, 2], SubmitOptions::new(4).sampling(sampling));
    }

    #[test]
    #[should_panic(expected = "top-p needs p in (0, 1]")]
    fn submit_rejects_top_p_outside_the_unit_interval() {
        let model = model(ModelQuantConfig::BASELINE);
        let sampling = Sampling { policy: SamplingPolicy::TopP { p: 0.0 }, temperature: 1.0, seed: 0 };
        ServingEngine::paged(&model, 16).submit_with(&[1, 2], SubmitOptions::new(4).sampling(sampling));
    }

    #[test]
    #[should_panic(expected = "temperature must be positive and finite")]
    fn submit_rejects_a_nan_temperature() {
        let model = model(ModelQuantConfig::BASELINE);
        let sampling = Sampling { policy: SamplingPolicy::TopK { k: 4 }, temperature: f32::NAN, seed: 0 };
        ServingEngine::new(&model).submit_with(&[1, 2], SubmitOptions::new(4).sampling(sampling));
    }

    #[test]
    #[should_panic(expected = "at least one decode thread")]
    fn zero_threads_is_rejected() {
        let model = model(ModelQuantConfig::BASELINE);
        let _ = ServingEngine::new(&model).with_threads(0);
    }
}
