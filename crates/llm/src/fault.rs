//! Deterministic fault injection and recovery policy for the serving engine.
//!
//! A [`FaultPlan`] is a *seeded, reproducible schedule* of failures — worker panics,
//! transient page-reservation denials, slow passes — installed with
//! [`ServingEngine::with_faults`]. Faults are addressed in scheduler coordinates
//! (worker slot × per-worker job counter, or paged-admission attempt counter), counted
//! over the engine's whole life, so the same plan against the same workload produces
//! the same failure sequence on every run, at every thread count, and whether one `run`
//! or a loop of `run_for` calls drives the engine: failure becomes a first-class,
//! testable input instead of an un-reproducible accident. When no plan is installed
//! the entire machinery is one `Option` check on the scheduler path.
//!
//! [`RecoveryPolicy`] is the companion knob set: how often the coordinator snapshots
//! retryable sequences ([`PagedKvCache::checkpoint`]), how many retry attempts a
//! sequence gets before it finishes as `FinishReason::Failed`, and how many passes of
//! backoff each retry waits.
//!
//! [`ServingEngine::with_faults`]: crate::serving::ServingEngine::with_faults
//! [`PagedKvCache::checkpoint`]: crate::paging::PagedKvCache::checkpoint

use crate::sampling::SeqRng;

/// One scheduled fault in a [`FaultPlan`], addressed in scheduler coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic worker slot `worker` (modulo the engine's thread count) while it executes
    /// its `job`-th step (1-based per-slot counter over the engine's life, across
    /// calls). Each pass hands worker `w` one step per sequence of chunk `w`.
    WorkerPanic {
        /// Targeted worker slot; reduced modulo the engine's thread count at run time.
        worker: usize,
        /// 1-based per-worker lifetime job counter at which the panic fires.
        job: u64,
    },
    /// Deny the `attempt`-th paged admission reservation (0-based counter over every
    /// paged admission attempt of the engine's life), as if the pool were transiently
    /// exhausted. The sequence stays queued and retries on a later pass.
    ReservationDenied {
        /// 0-based paged-admission attempt counter at which the denial fires.
        attempt: u64,
    },
    /// Delay worker slot `worker`'s `job`-th step by `millis` milliseconds before it
    /// runs — a deterministic straggler for deadline and latency testing.
    SlowStep {
        /// Targeted worker slot; reduced modulo the engine's thread count at run time.
        worker: usize,
        /// 1-based per-worker lifetime job counter at which the delay fires.
        job: u64,
        /// Delay in milliseconds.
        millis: u64,
    },
}

/// A seeded, deterministic schedule of injected faults (see the [module
/// docs](crate::fault)).
///
/// Built fluently: the drawing combinators ([`FaultPlan::kill_workers`],
/// [`FaultPlan::deny_reservations`], [`FaultPlan::slow_steps`]) derive trigger
/// coordinates from the plan's SplitMix64 stream (the same generator the sampling
/// module uses), while [`FaultPlan::inject`] places one fault at exact coordinates.
/// Every fault fires at most once.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    rng: SeqRng,
    events: Vec<FaultKind>,
}

impl FaultPlan {
    /// An empty plan whose drawing combinators derive coordinates from `seed`.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        FaultPlan { rng: SeqRng::new(seed, 0xFA17), events: Vec::new() }
    }

    /// Adds one fault at exact scheduler coordinates.
    #[must_use]
    pub fn inject(mut self, fault: FaultKind) -> Self {
        self.events.push(fault);
        self
    }

    /// Schedules `count` worker panics: the `i`-th targets worker slot `i` (so
    /// `count = num_threads` kills each worker at least once) at a drawn job counter
    /// in `1..=jobs_within`.
    #[must_use]
    pub fn kill_workers(mut self, count: usize, jobs_within: u64) -> Self {
        let span = jobs_within.max(1);
        for worker in 0..count {
            let job = 1 + self.rng.next_u64() % span;
            self.events.push(FaultKind::WorkerPanic { worker, job });
        }
        self
    }

    /// Schedules `count` transient reservation denials at drawn paged-admission
    /// attempt counters in `0..attempts_within`.
    #[must_use]
    pub fn deny_reservations(mut self, count: usize, attempts_within: u64) -> Self {
        let span = attempts_within.max(1);
        for _ in 0..count {
            let attempt = self.rng.next_u64() % span;
            self.events.push(FaultKind::ReservationDenied { attempt });
        }
        self
    }

    /// Schedules `count` slow steps of `millis` milliseconds each, at drawn worker
    /// slots in `0..workers_within` and job counters in `1..=jobs_within`.
    #[must_use]
    pub fn slow_steps(mut self, count: usize, millis: u64, workers_within: usize, jobs_within: u64) -> Self {
        let worker_span = workers_within.max(1) as u64;
        let job_span = jobs_within.max(1);
        for _ in 0..count {
            let worker = (self.rng.next_u64() % worker_span) as usize;
            let job = 1 + self.rng.next_u64() % job_span;
            self.events.push(FaultKind::SlowStep { worker, job, millis });
        }
        self
    }

    /// The scheduled faults, in insertion order.
    #[must_use]
    pub fn events(&self) -> &[FaultKind] {
        &self.events
    }

    /// Whether the plan schedules no faults at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Checkpoint/retry policy for worker-panic recovery (see the [module
/// docs](crate::fault)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Snapshot every retryable paged sequence each time this many passes elapse
    /// ([`crate::paging::PagedKvCache::checkpoint`]); `0` disables checkpointing, so
    /// every retry replays the sequence from scratch (still token-identical — replay
    /// is deterministic — just more recompute).
    pub checkpoint_every: usize,
    /// Retry attempts a sequence gets after losing its worker before it finishes as
    /// `FinishReason::Failed`.
    pub max_attempts: usize,
    /// Scheduler passes a failed sequence waits before its `n`-th retry becomes
    /// admissible again (linear: `n * backoff_passes`).
    pub backoff_passes: usize,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy { checkpoint_every: 4, max_attempts: 3, backoff_passes: 1 }
    }
}

/// A fault the coordinator attaches to one sequence's step of a pass. Crate-internal:
/// workers only ever see the fault they must act out, never the plan.
#[derive(Debug, Clone, Copy)]
pub(crate) enum InjectedFault {
    /// Panic before running the step.
    Panic,
    /// Sleep this many milliseconds before running the step.
    Slow(u64),
}

/// Run-time state of an installed plan: the scheduler counters faults are addressed by,
/// which run over the engine's whole life, and the scheduled faults not yet fired, each
/// consumed (fired once) as the counters reach its coordinates.
#[derive(Debug)]
pub(crate) struct FaultState {
    pending: Vec<FaultKind>,
    /// Steps each worker slot has been handed so far (index = worker slot).
    jobs: Vec<u64>,
    /// Paged admission attempts made so far.
    admission_attempts: u64,
}

impl FaultState {
    pub(crate) fn new(plan: &FaultPlan) -> Self {
        FaultState { pending: plan.events.clone(), jobs: Vec::new(), admission_attempts: 0 }
    }

    /// Counts one more step handed to worker slot `worker` of `num_threads` and returns
    /// the fault (if any) scheduled for it.
    pub(crate) fn step_fault(&mut self, worker: usize, num_threads: usize) -> Option<InjectedFault> {
        if self.jobs.len() <= worker {
            self.jobs.resize(worker + 1, 0);
        }
        self.jobs[worker] += 1;
        self.take_step_fault(worker, self.jobs[worker], num_threads)
    }

    /// Counts one more paged admission attempt and returns whether it is scheduled to
    /// be denied.
    pub(crate) fn deny_admission(&mut self) -> bool {
        let attempt = self.admission_attempts;
        self.admission_attempts += 1;
        self.take_denial(attempt)
    }

    /// The fault (if any) scheduled for worker slot `worker`'s `job`-th step under
    /// `num_threads` workers. A panic trumps a slow step at the same coordinates.
    /// Consumes what it returns.
    fn take_step_fault(&mut self, worker: usize, job: u64, num_threads: usize) -> Option<InjectedFault> {
        let threads = num_threads.max(1);
        let matches_slot = |slot: usize| slot % threads == worker;
        let hit = self.pending.iter().position(|f| match f {
            FaultKind::WorkerPanic { worker: w, job: j } => matches_slot(*w) && *j == job,
            FaultKind::SlowStep { worker: w, job: j, .. } => matches_slot(*w) && *j == job,
            FaultKind::ReservationDenied { .. } => false,
        })?;
        match self.pending.swap_remove(hit) {
            FaultKind::WorkerPanic { .. } => Some(InjectedFault::Panic),
            FaultKind::SlowStep { millis, .. } => Some(InjectedFault::Slow(millis)),
            FaultKind::ReservationDenied { .. } => None,
        }
    }

    /// Whether the `attempt`-th paged admission reservation is scheduled to fail.
    /// Consumes the denial it returns `true` for.
    fn take_denial(&mut self, attempt: u64) -> bool {
        let hit =
            self.pending.iter().position(|f| matches!(f, FaultKind::ReservationDenied { attempt: a } if *a == attempt));
        match hit {
            Some(i) => {
                self.pending.swap_remove(i);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_reproducible() {
        let a = FaultPlan::seeded(7).kill_workers(3, 8).deny_reservations(2, 6).slow_steps(1, 5, 4, 8);
        let b = FaultPlan::seeded(7).kill_workers(3, 8).deny_reservations(2, 6).slow_steps(1, 5, 4, 8);
        assert_eq!(a.events(), b.events());
        assert_eq!(a.events().len(), 6);
        let c = FaultPlan::seeded(8).kill_workers(3, 8);
        assert_ne!(a.events()[..3], c.events()[..]);
    }

    #[test]
    fn kill_workers_targets_each_slot_once() {
        let plan = FaultPlan::seeded(1).kill_workers(4, 16);
        let slots: Vec<usize> = plan
            .events()
            .iter()
            .map(|f| match f {
                FaultKind::WorkerPanic { worker, job } => {
                    assert!((1..=16).contains(job));
                    *worker
                }
                other => panic!("unexpected fault {other:?}"),
            })
            .collect();
        assert_eq!(slots, vec![0, 1, 2, 3]);
    }

    #[test]
    fn faults_fire_once_and_respect_slot_folding() {
        let plan = FaultPlan::seeded(0)
            .inject(FaultKind::WorkerPanic { worker: 5, job: 3 })
            .inject(FaultKind::ReservationDenied { attempt: 2 });
        let mut state = FaultState::new(&plan);
        // Slot 5 folds onto worker 1 of a 4-thread pool.
        assert!(state.take_step_fault(0, 3, 4).is_none());
        assert!(matches!(state.take_step_fault(1, 3, 4), Some(InjectedFault::Panic)));
        assert!(state.take_step_fault(1, 3, 4).is_none(), "a fault must fire at most once");
        assert!(!state.take_denial(1));
        assert!(state.take_denial(2));
        assert!(!state.take_denial(2), "a denial must fire at most once");
    }
}
