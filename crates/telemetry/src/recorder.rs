//! The sharded event recorder: a [`Telemetry`] hub handing out per-worker
//! [`Recorder`]s whose hot path is an `enabled` branch plus a `Vec::push`.
//!
//! Shard lifecycle: [`Telemetry::recorder`] → events append to the recorder's own
//! buffer (no locks, no allocation beyond the `Vec`'s growth) → the buffer merges into
//! the hub under a mutex exactly once, when the recorder drops →
//! [`Telemetry::drain_trace`] stitches all merged shards into one sorted [`Trace`].

use std::sync::{Arc, Mutex, PoisonError};

use crate::clock::{Clock, MonotonicClock};
use crate::trace::Trace;

/// What a run records into: the event taxonomy's top-level grouping, rendered as the
/// `cat` field of the Chrome trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Per-sequence lifecycle: submitted → admitted → first_token → preempted /
    /// restored / evicted → retired.
    Lifecycle,
    /// Coordinator scheduler passes (one span per pass).
    Pass,
    /// Per-worker compute: batched-forward spans and the prompt chunks they carry.
    Worker,
    /// Pool-occupancy gauges sampled at pass boundaries.
    Occupancy,
    /// Fault-tolerance lifecycle: checkpoints, worker panics (each a contained loss of
    /// one step), checkpoint retries, sequences failed past their retry budget,
    /// deadline misses, load shedding and denied reservations.
    Fault,
}

impl Category {
    /// The Chrome-trace `cat` string.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Category::Lifecycle => "lifecycle",
            Category::Pass => "pass",
            Category::Worker => "worker",
            Category::Occupancy => "occupancy",
            Category::Fault => "fault",
        }
    }
}

/// The Chrome-trace phase of one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Span opening (`ph: "B"`); paired with a later [`EventKind::End`] on the same lane.
    Begin,
    /// Span closing (`ph: "E"`).
    End,
    /// A point-in-time marker (`ph: "i"`).
    Instant,
    /// A gauge sample (`ph: "C"`); `arg` is the gauge value.
    Counter,
}

/// One recorded event. `name`/`arg_name` are `&'static str` so the hot path never
/// allocates; `arg` carries the sequence id, pass number or gauge value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the hub clock's origin.
    pub ts_nanos: u64,
    /// Chrome-trace thread id: 0 = coordinator, `1..=N` = decode workers.
    pub lane: u32,
    /// Phase (span begin/end, instant, counter).
    pub kind: EventKind,
    /// Taxonomy grouping (the trace's `cat`).
    pub cat: Category,
    /// Event name (e.g. `"forward"`, `"prefill_chunk"`, `"in_use_pages"`).
    pub name: &'static str,
    /// Key under which `arg` renders in the trace's `args` object.
    pub arg_name: &'static str,
    /// Sequence id, pass number, or gauge value depending on the event.
    pub arg: u64,
}

/// How an engine's telemetry is configured.
#[derive(Clone, Default)]
pub enum TelemetryConfig {
    /// No event recording: every recorder call is a no-op behind one bool check.
    /// Latency summaries still work — they come from always-on histograms, not events.
    #[default]
    Off,
    /// Record events against a fresh [`MonotonicClock`].
    On,
    /// Record events against an injected clock (deterministic traces in tests).
    OnWithClock(Arc<dyn Clock>),
}

impl TelemetryConfig {
    /// Shorthand for [`TelemetryConfig::OnWithClock`].
    #[must_use]
    pub fn on_with_clock(clock: Arc<dyn Clock>) -> Self {
        TelemetryConfig::OnWithClock(clock)
    }

    /// Whether this configuration records events.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        !matches!(self, TelemetryConfig::Off)
    }
}

impl std::fmt::Debug for TelemetryConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TelemetryConfig::Off => f.write_str("TelemetryConfig::Off"),
            TelemetryConfig::On => f.write_str("TelemetryConfig::On"),
            TelemetryConfig::OnWithClock(_) => f.write_str("TelemetryConfig::OnWithClock(..)"),
        }
    }
}

/// The telemetry hub: owns the clock and collects finished recorder shards.
///
/// Cheap to share (`Arc`), safe to share (`Send + Sync`); the only lock it holds is
/// taken when a recorder merges its finished buffer back — never per event.
pub struct Telemetry {
    enabled: bool,
    clock: Arc<dyn Clock>,
    shards: Mutex<Vec<Vec<Event>>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry").field("enabled", &self.enabled).finish_non_exhaustive()
    }
}

impl Telemetry {
    /// Builds a hub from a configuration. [`TelemetryConfig::Off`] and
    /// [`TelemetryConfig::On`] anchor a fresh monotonic clock at this call.
    #[must_use]
    pub fn new(config: &TelemetryConfig) -> Arc<Telemetry> {
        let clock: Arc<dyn Clock> = match config {
            TelemetryConfig::OnWithClock(clock) => Arc::clone(clock),
            TelemetryConfig::Off | TelemetryConfig::On => Arc::new(MonotonicClock::new()),
        };
        Arc::new(Telemetry { enabled: config.is_enabled(), clock, shards: Mutex::new(Vec::new()) })
    }

    /// A hub that records nothing (still serves timestamps for latency accounting).
    #[must_use]
    pub fn disabled() -> Arc<Telemetry> {
        Telemetry::new(&TelemetryConfig::Off)
    }

    /// Whether recorders from this hub record events.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The current reading of the hub clock, in nanoseconds since its origin.
    #[must_use]
    pub fn now_nanos(&self) -> u64 {
        self.clock.now_nanos()
    }

    /// A new recorder shard on `lane` (0 = coordinator, `1..=N` = workers). Each lane
    /// should have exactly one, used by one thread at a time; its buffer merges back
    /// when it drops.
    #[must_use]
    pub fn recorder(self: &Arc<Self>, lane: u32) -> Recorder {
        Recorder { hub: Arc::clone(self), lane, enabled: self.enabled, buf: Vec::new() }
    }

    /// Takes every merged shard and returns one timestamp-sorted [`Trace`]. Call after
    /// all recorders have dropped; shards merged later feed the *next* drain.
    #[must_use]
    pub fn drain_trace(&self) -> Trace {
        let shards = std::mem::take(&mut *self.lock_shards());
        let mut events: Vec<Event> = shards.into_iter().flatten().collect();
        // Stable by (ts, lane): simultaneous test-clock events keep a deterministic
        // cross-shard order.
        events.sort_by_key(|e| (e.ts_nanos, e.lane));
        Trace::new(events)
    }

    fn lock_shards(&self) -> std::sync::MutexGuard<'_, Vec<Vec<Event>>> {
        // A recorder panicking mid-merge leaves at worst a truncated shard; the events
        // themselves are plain Copy data, so poison recovery is safe.
        self.shards.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn merge(&self, buf: Vec<Event>) {
        if !buf.is_empty() {
            self.lock_shards().push(buf);
        }
    }
}

/// One thread's exclusively-owned event shard (see [`Telemetry::recorder`]).
///
/// All recording methods take `&mut self` and append to a private `Vec` — the hot path
/// never locks. Dropping the recorder merges the buffer into the hub.
#[derive(Debug)]
pub struct Recorder {
    hub: Arc<Telemetry>,
    lane: u32,
    enabled: bool,
    buf: Vec<Event>,
}

impl Recorder {
    /// This recorder's Chrome-trace lane (0 = coordinator, `1..=N` = workers).
    #[must_use]
    pub fn lane(&self) -> u32 {
        self.lane
    }

    /// Whether this recorder records events (false ⇒ every call below is a no-op).
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The hub clock's current reading — available even when recording is disabled, so
    /// latency accounting works without event buffers.
    #[must_use]
    pub fn now_nanos(&self) -> u64 {
        self.hub.now_nanos()
    }

    /// Records a point-in-time marker.
    pub fn instant(&mut self, cat: Category, name: &'static str, arg_name: &'static str, arg: u64) {
        self.push(EventKind::Instant, cat, name, arg_name, arg);
    }

    /// Records a gauge sample (`value` renders as the counter's height).
    pub fn counter(&mut self, cat: Category, name: &'static str, value: u64) {
        self.push(EventKind::Counter, cat, name, "value", value);
    }

    /// Opens a span explicitly; pair with [`Recorder::end`] on the same lane. Prefer
    /// [`Recorder::span`] (RAII) unless events must nest inside the span from the same
    /// `&mut` borrow chain.
    pub fn begin(&mut self, cat: Category, name: &'static str, arg_name: &'static str, arg: u64) {
        self.push(EventKind::Begin, cat, name, arg_name, arg);
    }

    /// Closes a span opened by [`Recorder::begin`].
    pub fn end(&mut self, cat: Category, name: &'static str, arg_name: &'static str, arg: u64) {
        self.push(EventKind::End, cat, name, arg_name, arg);
    }

    /// Opens an RAII span: the Begin event is emitted now, the matching End when the
    /// guard drops. Nested events go through [`Span::recorder`].
    pub fn span(&mut self, cat: Category, name: &'static str, arg_name: &'static str, arg: u64) -> Span<'_> {
        self.begin(cat, name, arg_name, arg);
        Span { cat, name, arg_name, arg, rec: self }
    }

    fn push(&mut self, kind: EventKind, cat: Category, name: &'static str, arg_name: &'static str, arg: u64) {
        if !self.enabled {
            return;
        }
        let ts_nanos = self.hub.now_nanos();
        self.buf.push(Event { ts_nanos, lane: self.lane, kind, cat, name, arg_name, arg });
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        self.hub.merge(std::mem::take(&mut self.buf));
    }
}

/// RAII span guard from [`Recorder::span`]: emits the End event when dropped.
#[derive(Debug)]
pub struct Span<'r> {
    rec: &'r mut Recorder,
    cat: Category,
    name: &'static str,
    arg_name: &'static str,
    arg: u64,
}

impl Span<'_> {
    /// Reborrows the underlying recorder so events can nest inside the span.
    pub fn recorder(&mut self) -> &mut Recorder {
        self.rec
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.rec.end(self.cat, self.name, self.arg_name, self.arg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TestClock;

    fn test_hub() -> Arc<Telemetry> {
        Telemetry::new(&TelemetryConfig::on_with_clock(Arc::new(TestClock::with_step(100))))
    }

    #[test]
    fn events_merge_and_sort_across_shards() {
        let hub = test_hub();
        let mut a = hub.recorder(1);
        let mut b = hub.recorder(2);
        a.instant(Category::Lifecycle, "submitted", "seq", 0); // ts 0
        b.instant(Category::Lifecycle, "submitted", "seq", 1); // ts 100
        a.counter(Category::Occupancy, "in_use_pages", 4); // ts 200
        drop(b);
        drop(a);
        let trace = hub.drain_trace();
        let ts: Vec<u64> = trace.events().iter().map(|e| e.ts_nanos).collect();
        assert_eq!(ts, vec![0, 100, 200]);
        assert_eq!(trace.events()[2].arg, 4);
    }

    #[test]
    fn raii_span_emits_begin_and_end_with_nesting() {
        let hub = test_hub();
        let mut rec = hub.recorder(0);
        {
            let mut span = rec.span(Category::Pass, "pass", "pass", 3);
            span.recorder().instant(Category::Lifecycle, "admitted", "seq", 9);
        }
        drop(rec);
        let trace = hub.drain_trace();
        let kinds: Vec<EventKind> = trace.events().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![EventKind::Begin, EventKind::Instant, EventKind::End]);
        assert_eq!(trace.events()[0].name, "pass");
        assert_eq!(trace.events()[2].name, "pass");
    }

    #[test]
    fn disabled_hub_records_nothing_but_still_tells_time() {
        let hub = Telemetry::disabled();
        let mut rec = hub.recorder(0);
        rec.instant(Category::Lifecycle, "submitted", "seq", 0);
        let _ = rec.span(Category::Worker, "prefill", "seq", 0);
        rec.counter(Category::Occupancy, "in_use_pages", 1);
        let t0 = rec.now_nanos();
        drop(rec);
        assert!(hub.drain_trace().events().is_empty());
        assert!(hub.now_nanos() >= t0);
    }

    #[test]
    fn draining_twice_returns_only_new_shards() {
        let hub = test_hub();
        let mut rec = hub.recorder(0);
        rec.instant(Category::Lifecycle, "submitted", "seq", 0);
        drop(rec);
        assert_eq!(hub.drain_trace().events().len(), 1);
        assert!(hub.drain_trace().events().is_empty());
    }
}
