//! A drained, timestamp-sorted event stream and its Chrome trace-event JSON export.
//!
//! The export follows the Trace Event Format's JSON-object flavour
//! (`{"traceEvents": [...]}`) with `B`/`E` duration events, `i` instants, `C` counters
//! and `M` thread-name metadata, so the file loads unmodified in `chrome://tracing`
//! and Perfetto. Timestamps convert from the recorder's nanoseconds to the format's
//! microseconds with fixed three-decimal rendering, keeping the output byte-identical
//! for identical event streams (pinned by a test under [`crate::TestClock`]).

use crate::recorder::{Category, Event, EventKind};

/// An immutable, `(ts, lane)`-sorted event stream from [`crate::Telemetry::drain_trace`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    events: Vec<Event>,
}

impl Trace {
    /// Wraps an already-sorted event stream (the hub sorts at drain time).
    #[must_use]
    pub fn new(events: Vec<Event>) -> Self {
        Trace { events }
    }

    /// The events, sorted by `(ts_nanos, lane)`.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Whether the trace holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The distinct categories present, in taxonomy order.
    #[must_use]
    pub fn categories(&self) -> Vec<Category> {
        [Category::Lifecycle, Category::Pass, Category::Worker, Category::Occupancy, Category::Fault]
            .into_iter()
            .filter(|c| self.events.iter().any(|e| e.cat == *c))
            .collect()
    }

    /// Renders the trace as Chrome trace-event JSON (the `{"traceEvents": [...]}`
    /// object form). Deterministic: identical event streams render byte-identically.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        // Thread-name metadata first, so the viewer labels lanes before any event.
        let mut lanes: Vec<u32> = self.events.iter().map(|e| e.lane).collect();
        lanes.sort_unstable();
        lanes.dedup();
        for lane in lanes {
            push_sep(&mut out, &mut first);
            let name = if lane == 0 { "coordinator".to_string() } else { format!("worker-{lane}") };
            out.push_str(&format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{lane},\"args\":{{\"name\":\"{name}\"}}}}"
            ));
        }
        for e in &self.events {
            push_sep(&mut out, &mut first);
            self.push_event(&mut out, e);
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }

    fn push_event(&self, out: &mut String, e: &Event) {
        let ph = match e.kind {
            EventKind::Begin => "B",
            EventKind::End => "E",
            EventKind::Instant => "i",
            EventKind::Counter => "C",
        };
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{ph}\",\"ts\":{},\"pid\":1,\"tid\":{}",
            escape(e.name),
            e.cat.label(),
            micros(e.ts_nanos),
            e.lane,
        ));
        if e.kind == EventKind::Instant {
            // Instant scope: thread-local marker.
            out.push_str(",\"s\":\"t\"");
        }
        out.push_str(&format!(",\"args\":{{\"{}\":{}}}}}", escape(e.arg_name), e.arg));
    }
}

/// Nanoseconds → the trace format's microseconds, rendered with exactly three decimals
/// by integer math (no float formatting wobble).
fn micros(nanos: u64) -> String {
    format!("{}.{:03}", nanos / 1_000, nanos % 1_000)
}

fn push_sep(out: &mut String, first: &mut bool) {
    if !*first {
        out.push(',');
    }
    *first = false;
}

/// Minimal JSON string escaping for the `&'static str` names this crate emits.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TestClock;
    use crate::recorder::{Telemetry, TelemetryConfig};
    use std::sync::Arc;

    /// The satellite pin: a fixed test clock must produce byte-identical trace JSON.
    #[test]
    fn chrome_json_is_deterministic_under_a_test_clock() {
        let render = || {
            let hub = Telemetry::new(&TelemetryConfig::on_with_clock(Arc::new(TestClock::with_step(500))));
            let mut coord = hub.recorder(0);
            coord.instant(Category::Lifecycle, "submitted", "seq", 0); // ts 0
            coord.begin(Category::Pass, "pass", "pass", 0); // ts 500
            let mut worker = hub.recorder(1);
            {
                let mut span = worker.span(Category::Worker, "prefill", "seq", 0); // ts 1000
                span.recorder().instant(Category::Lifecycle, "first_token", "seq", 0);
            } // ts 2000
            worker.counter(Category::Occupancy, "in_use_pages", 3); // ts 2500
            coord.end(Category::Pass, "pass", "pass", 0); // ts 3000
            drop(worker);
            drop(coord);
            hub.drain_trace().to_chrome_json()
        };
        let json = render();
        assert_eq!(json, render(), "same event stream must render byte-identically");
        let expected = concat!(
            "{\"traceEvents\":[",
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"coordinator\"}},",
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"worker-1\"}},",
            "{\"name\":\"submitted\",\"cat\":\"lifecycle\",\"ph\":\"i\",\"ts\":0.000,\"pid\":1,\"tid\":0,\"s\":\"t\",\"args\":{\"seq\":0}},",
            "{\"name\":\"pass\",\"cat\":\"pass\",\"ph\":\"B\",\"ts\":0.500,\"pid\":1,\"tid\":0,\"args\":{\"pass\":0}},",
            "{\"name\":\"prefill\",\"cat\":\"worker\",\"ph\":\"B\",\"ts\":1.000,\"pid\":1,\"tid\":1,\"args\":{\"seq\":0}},",
            "{\"name\":\"first_token\",\"cat\":\"lifecycle\",\"ph\":\"i\",\"ts\":1.500,\"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{\"seq\":0}},",
            "{\"name\":\"prefill\",\"cat\":\"worker\",\"ph\":\"E\",\"ts\":2.000,\"pid\":1,\"tid\":1,\"args\":{\"seq\":0}},",
            "{\"name\":\"in_use_pages\",\"cat\":\"occupancy\",\"ph\":\"C\",\"ts\":2.500,\"pid\":1,\"tid\":1,\"args\":{\"value\":3}},",
            "{\"name\":\"pass\",\"cat\":\"pass\",\"ph\":\"E\",\"ts\":3.000,\"pid\":1,\"tid\":0,\"args\":{\"pass\":0}}",
            "],\"displayTimeUnit\":\"ms\"}",
        );
        assert_eq!(json, expected);
    }

    #[test]
    fn categories_reports_the_distinct_set_in_order() {
        let hub = Telemetry::new(&TelemetryConfig::on_with_clock(Arc::new(TestClock::with_step(1))));
        let mut rec = hub.recorder(0);
        rec.counter(Category::Occupancy, "in_use_pages", 1);
        rec.instant(Category::Lifecycle, "submitted", "seq", 0);
        drop(rec);
        let trace = hub.drain_trace();
        assert_eq!(trace.categories(), vec![Category::Lifecycle, Category::Occupancy]);
    }

    #[test]
    fn empty_trace_renders_a_loadable_document() {
        let trace = Trace::default();
        assert!(trace.is_empty());
        assert_eq!(trace.to_chrome_json(), "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}");
    }

    #[test]
    fn escaping_handles_quotes_and_control_characters() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn micros_renders_three_fixed_decimals() {
        assert_eq!(micros(0), "0.000");
        assert_eq!(micros(1_234), "1.234");
        assert_eq!(micros(1_000_007), "1000.007");
    }
}
