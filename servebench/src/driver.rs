//! The single-process driver loop: submit the requests that arrive at this pass, run one
//! scheduler pass, then timestamp the tokens that became visible on the live sequences.
//!
//! The driver only ever looks at the sequences it still tracks as live, so its own cost
//! per pass is O(live). When nothing is live it skips ahead to the next arrival's pass
//! instead of running empty passes. After each pass it takes one host-speed sample (see
//! `calib`), on a clock that does not count the sample.

use std::time::Instant;

use mx_llm::{FinishReason, ServingEngine, SubmitOptions};
use mx_telemetry::{Category, Event, Recorder};

use crate::calib::Calibration;
use crate::stats::Timeline;
use crate::workload::Request;

/// Engine-side facts of one `run_for(1)` call.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassSample {
    /// Seconds the call took.
    pub wall: f64,
    /// Prefill and decode forward seconds, summed over workers.
    pub prefill: f64,
    pub decode: f64,
    /// Decode forwards run (one per generated token that needed one).
    pub decode_forwards: u64,
    /// Sequences stepped, summed over workers.
    pub steps: usize,
    /// Prompt tokens admitted, and those served from shared prefix pages instead.
    pub prompt_tokens: usize,
    pub saved_tokens: usize,
    pub preemptions: usize,
    /// Pool pages in use and reserved after the pass.
    pub in_use_pages: usize,
    pub reserved_pages: usize,
    /// Peak KV bytes resident during the pass.
    pub resident_bytes: usize,
}

/// Everything the driven rounds of one run produced. Client-side times are seconds on the
/// nominal host (see `calib`) since the run's origin; pass samples are as measured.
#[derive(Debug, Default)]
pub struct RunRecord {
    /// The requests sent, in submission order.
    pub requests: Vec<Request>,
    pub timelines: Vec<Timeline>,
    pub outputs: Vec<Vec<usize>>,
    pub finish: Vec<Option<FinishReason>>,
    pub passes: Vec<PassSample>,
    /// Seconds from each request's due time until its submission returned.
    pub lags: Vec<f64>,
    /// Measurement windows (one per round) as `(start, end)`, and the window each request
    /// belongs to.
    pub spans: Vec<(f64, f64)>,
    pub window: Vec<usize>,
    /// Each round's factor from measured to nominal seconds, and the whole run's.
    pub factors: Vec<f64>,
    pub factor: f64,
    /// Engine trace events of every pass (traced runs only).
    pub events: Vec<Event>,
}

impl RunRecord {
    /// Seconds spent inside `run_for` calls.
    pub fn engine_seconds(&self) -> f64 {
        self.passes.iter().map(|p| p.wall).sum()
    }

    /// Engine seconds per token generated, on the nominal host: the cost of the work
    /// done, which a run of fixed length cannot show in its engine seconds alone.
    pub fn seconds_per_token(&self) -> f64 {
        self.factor * self.engine_seconds() / self.outputs.iter().map(Vec::len).sum::<usize>().max(1) as f64
    }

    /// Rewrites the times of the round that began at `start` with request `first` into
    /// nominal seconds, `factor` per measured second, following on from the previous
    /// round's window; records the round's window.
    pub fn close_round(&mut self, first: usize, start: f64, end: f64, factor: f64) {
        let origin = self.spans.last().map_or(0.0, |s| s.1);
        let nominal = |t: f64| origin + (t - start) * factor;
        for tl in &mut self.timelines[first..] {
            tl.due = nominal(tl.due);
            tl.admitted = tl.admitted.map(nominal);
            tl.tokens.iter_mut().for_each(|t| *t = nominal(*t));
            tl.finished = tl.finished.map(nominal);
        }
        self.window.resize(self.requests.len(), self.spans.len());
        self.spans.push((origin, nominal(end)));
        self.factors.push(factor);
    }
}

struct Live {
    req: usize,
    id: usize,
    seen: usize,
}

/// Drives one round of `requests` (in arrival order) through `engine` until every one has
/// finished, appending to `record`, with times measured on `clock`.
pub fn drive(
    engine: &mut ServingEngine<'_>,
    requests: &[Request],
    clock: &mut Calibration,
    rec: &mut Recorder,
    record: &mut RunRecord,
) {
    let mut next = 0;
    let mut pass = 0;
    let mut live: Vec<Live> = Vec::new();
    loop {
        if live.is_empty() {
            let Some(r) = requests.get(next) else { return };
            pass = pass.max(r.pass);
        }
        // Every request arriving at this pass is due now, right before the pass runs.
        let due = clock.now();
        while let Some(r) = requests.get(next).filter(|r| r.pass <= pass) {
            let id = engine.submit_with(&r.prompt, SubmitOptions::new(r.max_new).priority(r.priority));
            rec.instant(Category::Lifecycle, "bench.submit", "seq", id as u64);
            record.lags.push(clock.now() - due);
            live.push(Live { req: record.requests.len(), id, seen: 0 });
            record.requests.push(r.clone());
            record.timelines.push(Timeline { due, ..Timeline::default() });
            record.outputs.push(Vec::new());
            record.finish.push(None);
            next += 1;
        }

        let start = clock.now();
        rec.begin(Category::Pass, "bench.run_for", "pass", record.passes.len() as u64);
        let t = Instant::now();
        let report = engine.run_for(1);
        let wall = t.elapsed().as_secs_f64();
        rec.end(Category::Pass, "bench.run_for", "pass", record.passes.len() as u64);
        let end = clock.now();
        pass += 1;
        if let Some(trace) = engine.take_trace() {
            record.events.extend_from_slice(trace.events());
        }
        let (in_use_pages, reserved_pages) = engine.pool().map_or((0, 0), |p| (p.in_use_pages(), p.reserved_pages()));
        record.passes.push(PassSample {
            wall,
            prefill: report.prefill_time.as_secs_f64(),
            decode: report.decode_time.as_secs_f64(),
            decode_forwards: report.latency.tpot.count,
            steps: report.worker_decode_steps.iter().sum(),
            prompt_tokens: report.prompt_tokens,
            saved_tokens: report.prefill_tokens_saved,
            preemptions: report.preemptions,
            in_use_pages,
            reserved_pages,
            resident_bytes: report.resident_bytes,
        });

        let sequences = engine.sequences();
        live.retain_mut(|l| {
            let s = &sequences[l.id];
            let tl = &mut record.timelines[l.req];
            // Admission prefills in the same pass, so a sequence holding positions (or
            // tokens) was admitted at the start of this pass at the latest.
            if tl.admitted.is_none() && (s.cached_positions() > 0 || !s.generated.is_empty() || s.is_finished()) {
                tl.admitted = Some(start);
            }
            tl.tokens.extend(std::iter::repeat_n(end, s.generated.len().saturating_sub(l.seen)));
            l.seen = s.generated.len();
            if !s.is_finished() {
                return true;
            }
            tl.finished = Some(end);
            record.outputs[l.req] = s.generated.clone();
            record.finish[l.req] = s.finish_reason();
            false
        });
        clock.sample();
    }
}
