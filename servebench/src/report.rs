//! Metric assembly, host facts, result files and the compare step.

use std::fmt::Write as _;

use mx_llm::FinishReason;

use crate::driver::RunRecord;
use crate::json::{self, Value};
use crate::stats::{windowed_percentile, Sample, Timeline};
use crate::workload::Spec;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count and supported percentile, for the human-readable summary.
    pub detail: String,
}

/// Metrics in the order they were measured.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.push_detail(name, value, unit, String::new());
    }

    pub fn push_detail(&mut self, name: &'static str, value: f64, unit: &'static str, detail: String) {
        self.0.push(Metric { name, value, unit, detail });
    }

    pub fn all_finite(&self) -> bool {
        self.0.iter().all(|m| m.value.is_finite())
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`; a non-finite value is written as 0 (the
    /// run is reported incorrect in that case).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{}: {{\"value\": {value}, \"unit\": {}}}",
                json::string(m.name),
                json::string(m.unit)
            );
        }
        out.push('}');
        out
    }

    pub fn print(&self) {
        for m in &self.0 {
            println!("  {:<32} {:>14.4} {:<8} {}", m.name, m.value, m.unit, m.detail);
        }
    }
}

/// Facts a result depends on; results whose facts differ are never compared.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    pub nproc: usize,
    pub kernel_backend: &'static str,
    pub model: String,
    pub quant: String,
    pub threads: usize,
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
}

impl Host {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"kernel_backend\": {}, \"model\": {}, \"quant\": {}, \"threads\": {}, \"workload\": {}, \
             \"seed\": {}, \"seconds\": {}}}",
            self.nproc,
            json::string(self.kernel_backend),
            json::string(&self.model),
            json::string(&self.quant),
            self.threads,
            json::string(self.workload),
            self.seed,
            self.seconds
        )
    }
}

/// Which requests failed: did not finish `Length` with their full budget, or (for the
/// checked sample) differ from the f32 reference.
#[derive(Debug, Default)]
pub struct Verdict {
    pub bad: Vec<bool>,
    pub checked: usize,
    pub mismatched: usize,
}

impl Verdict {
    pub fn failed(&self) -> usize {
        self.bad.iter().filter(|&&b| b).count()
    }

    /// Marks every request that did not finish by length with its whole budget.
    pub fn from_finishes(record: &RunRecord) -> Verdict {
        let bad = (0..record.requests.len())
            .map(|i| {
                record.finish[i] != Some(FinishReason::Length) || record.outputs[i].len() != record.requests[i].max_new
            })
            .collect();
        Verdict { bad, checked: 0, mismatched: 0 }
    }
}

fn ms(sample: &Sample, q: f64) -> f64 {
    sample.q(q) * 1e3
}

/// The end-to-end metrics of a run, all timed from each request's due time. Each
/// percentile is taken per group of measurement windows and the median over groups
/// reported (see [`windowed_percentile`]); throughput is taken per window and the median
/// over windows reported; SLO attainment is the share of all requests sent.
pub fn end_to_end(record: &RunRecord, spec: Spec, verdict: &Verdict, setup_s: f64, peak_rss_mb: f64) -> Metrics {
    let t = &record.timelines;
    let members: Vec<Vec<usize>> =
        (0..record.spans.len()).map(|w| (0..t.len()).filter(|&i| record.window[i] == w).collect()).collect();
    let by_window = |f: &dyn Fn(&Timeline) -> Vec<f64>| -> Vec<Vec<f64>> {
        members.iter().map(|ids| ids.iter().flat_map(|&i| f(&t[i])).collect()).collect()
    };
    let ttft = by_window(&|x| x.ttft().into_iter().collect());
    let e2e = by_window(&|x| x.e2e().into_iter().collect());
    let itl = by_window(&|x| x.itls().collect());
    let meets = |i: usize| {
        !verdict.bad[i]
            && t[i].ttft().is_some_and(|v| v * 1e3 <= spec.slo_ttft_ms)
            && t[i].mean_itl() * 1e3 <= spec.slo_itl_ms
    };
    let mut throughput = Vec::new();
    for (ids, &(start, end)) in members.iter().zip(&record.spans) {
        if !ids.is_empty() {
            throughput.push(ids.iter().map(|&i| t[i].tokens.len()).sum::<usize>() as f64 / (end - start));
        }
    }
    let met = (0..t.len()).filter(|&i| meets(i)).count();
    let tokens: usize = record.outputs.iter().map(Vec::len).sum();
    let peak_kv = record.passes.iter().map(|p| p.resident_bytes).max().unwrap_or(0);
    let mut m = Metrics::default();
    for (name, sample, per_mille) in [
        ("ttft_p50_ms", &ttft, 500),
        ("ttft_p90_ms", &ttft, 900),
        ("e2e_p50_ms", &e2e, 500),
        ("e2e_p90_ms", &e2e, 900),
        ("itl_p50_ms", &itl, 500),
        ("itl_p99_ms", &itl, 990),
    ] {
        let p = windowed_percentile(sample, per_mille);
        m.push_detail(name, p.value * 1e3, "ms", p.describe(per_mille));
    }
    m.push_detail(
        "slo_attainment",
        met as f64 / t.len().max(1) as f64,
        "fraction",
        format!("{met} of {} within TTFT <= {} ms and mean ITL <= {} ms", t.len(), spec.slo_ttft_ms, spec.slo_itl_ms),
    );
    let windows = throughput.len();
    m.push_detail(
        "tokens_per_s",
        Sample::new(throughput).q(0.5),
        "1/s",
        format!("median over {windows} rounds; {tokens} tokens in all"),
    );
    m.push("setup_s", setup_s, "s");
    m.push("peak_kv_mb", peak_kv as f64 / 1e6, "MB");
    m.push("peak_rss_mb", peak_rss_mb, "MB");
    m
}

/// The serving, model and paging metrics the driven run itself yields.
pub fn serving_layers(record: &RunRecord, threads: usize, m: &mut Metrics) {
    let p = &record.passes;
    let sum = |f: fn(&crate::driver::PassSample) -> f64| p.iter().map(f).sum::<f64>();
    let passes = Sample::new(p.iter().map(|x| x.wall).collect());
    let queue = Sample::new(record.timelines.iter().filter_map(|x| x.queue_wait()).collect());
    let lags = Sample::new(record.lags.clone());
    let prompt = sum(|x| x.prompt_tokens as f64);
    let saved = sum(|x| x.saved_tokens as f64);
    m.push_detail("serving.pass_p50_ms", ms(&passes, 0.5), "ms", passes.describe(1e3));
    m.push("serving.pass_p99_ms", ms(&passes, 0.99), "ms");
    m.push("serving.batch_mean", sum(|x| x.steps as f64) / p.len().max(1) as f64, "seqs");
    m.push("serving.worker_busy_frac", sum(|x| x.prefill + x.decode) / (sum(|x| x.wall) * threads as f64), "fraction");
    m.push_detail("serving.queue_wait_p50_ms", ms(&queue, 0.5), "ms", queue.describe(1e3));
    m.push("serving.queue_wait_p90_ms", ms(&queue, 0.9), "ms");
    m.push("serving.preemptions", sum(|x| x.preemptions as f64), "count");
    m.push("serving.prefix_hit_frac", saved / prompt.max(1.0), "fraction");
    m.push("model.prefill_us_per_token", sum(|x| x.prefill) * 1e6 / (prompt - saved).max(1.0), "us");
    m.push("model.decode_us_per_token", sum(|x| x.decode) * 1e6 / sum(|x| x.decode_forwards as f64).max(1.0), "us");
    m.push("paging.peak_pages_in_use", p.iter().map(|x| x.in_use_pages).max().unwrap_or(0) as f64, "pages");
    m.push(
        "paging.reserved_over_in_use",
        sum(|x| x.reserved_pages as f64) / sum(|x| x.in_use_pages as f64).max(1.0),
        "ratio",
    );
    m.push_detail("bench.arrival_lag_p99_ms", ms(&lags, 0.99), "ms", lags.describe(1e3));
}

/// The process's peak resident set (VmHWM), MB; `NaN` where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1e3)
}

/// The last line the benchmark prints.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

/// The result file: the result line's content stamped with the host facts.
pub fn result_file(host: &Host, line: &str) -> String {
    format!("{{\"host\": {}, \"result\": {line}}}\n", host.to_json())
}

/// The repository's benchmark declaration, which holds each metric's bound.
const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// `compare <a> <b>`: prints each metric's change from `a` to `b` and flags those worse
/// than their bound in `BENCHMARK.json`, or missing from `b`. Refuses (exit 3) when the
/// host facts differ; exit 1 when a metric regressed past its bound or is missing, 2 on
/// unreadable input.
pub fn compare(args: &[String]) -> u8 {
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let [a, b] = args else {
        eprintln!("usage: servebench compare <before.json> <after.json>");
        return 2;
    };
    let (a, b, bench) = match (load(a), load(b), load(BENCHMARK_JSON)) {
        (Ok(a), Ok(b), Ok(bench)) => (a, b, bench),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
            eprintln!("servebench compare: {e}");
            return 2;
        }
    };
    let (ha, hb) = (a.get("host"), b.get("host"));
    if ha.is_none() || ha != hb {
        eprintln!("servebench compare: refusing to compare results whose host facts differ:");
        for (k, v) in ha.map(Value::fields).unwrap_or_default() {
            let other = hb.and_then(|h| h.get(k));
            if other != Some(v) {
                eprintln!("  {k}: {v:?} vs {other:?}");
            }
        }
        return 3;
    }
    let bounds: Vec<(String, String, f64)> = ["end_to_end", "per_layer"]
        .iter()
        .flat_map(|k| bench.get(k).map(Value::items).unwrap_or_default())
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("better")?.as_str()?.to_string(),
                m.get("bound").and_then(Value::as_f64).unwrap_or(f64::INFINITY),
            ))
        })
        .collect();
    if bounds.is_empty() {
        eprintln!("servebench compare: {BENCHMARK_JSON} declares no metrics");
        return 2;
    }
    fn metrics(v: &Value) -> &[(String, Value)] {
        v.get("result").and_then(|r| r.get("metrics")).map(Value::fields).unwrap_or_default()
    }
    let value = |m: &Value| m.get("value").and_then(Value::as_f64);
    let after = metrics(&b);
    let mut regressed = false;
    println!("{:<32} {:>14} {:>14} {:>9}", "metric", "before", "after", "change");
    for (name, m) in metrics(&a) {
        let Some(va) = value(m) else { continue };
        let Some(vb) = after.iter().find(|(n, _)| n == name).and_then(|(_, v)| value(v)) else {
            regressed = true;
            println!("{name:<32} {va:>14.4} {:>14} {:>9} MISSING", "-", "-");
            continue;
        };
        let change = if va == 0.0 { 0.0 } else { vb / va - 1.0 };
        let verdict = match bounds.iter().find(|(n, _, _)| n == name) {
            Some((_, better, bound)) => {
                let worse = if better == "lower" { change } else { -change };
                if worse > *bound {
                    regressed = true;
                    format!("REGRESSION (bound {bound})")
                } else {
                    String::new()
                }
            }
            None => String::new(),
        };
        println!("{name:<32} {va:>14.4} {vb:>14.4} {:>+8.1}% {verdict}", change * 100.0);
    }
    u8::from(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> Host {
        Host {
            nproc: 2,
            kernel_backend: "avx2",
            model: "Llama-2-7B".into(),
            quant: "A-MXFP4+, W-MXFP4".into(),
            threads: 2,
            workload: "batch_decode",
            seed: 1,
            seconds: 10,
        }
    }

    fn write_result(dir: &std::path::Path, name: &str, host: &Host, metrics: &[(&'static str, f64)]) -> String {
        let mut m = Metrics::default();
        for &(metric, value) in metrics {
            m.push(metric, value, "1/s");
        }
        let path = dir.join(name);
        std::fs::write(&path, result_file(host, &result_line(true, 1, 0, &m))).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.push("setup_s", 0.5, "s");
        m.push("broken", f64::NAN, "s");
        let v = json::parse(&result_line(false, 3, 1, &m)).unwrap();
        let keys: Vec<&str> = v.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Value::as_f64), Some(0.5));
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
        assert!(!m.all_finite());
    }

    #[test]
    fn compare_refuses_different_hosts_and_flags_regressions() {
        // Bounds come from the repository's BENCHMARK.json, where tokens_per_s may drop
        // by 24% at most.
        let dir = std::path::Path::new(crate::OUT_DIR).join(format!("test-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let both = |v: f64| [("tokens_per_s", v), ("setup_s", 1.0)];
        let a = write_result(&dir, "a.json", &host(), &both(100.0));
        let same = write_result(&dir, "b.json", &host(), &both(95.0));
        let slow = write_result(&dir, "c.json", &host(), &both(70.0));
        let dropped = write_result(&dir, "d.json", &host(), &[("tokens_per_s", 100.0)]);
        let other = write_result(&dir, "e.json", &Host { kernel_backend: "scalar", ..host() }, &both(100.0));
        assert_eq!(compare(&[a.clone(), same]), 0);
        assert_eq!(compare(&[a.clone(), slow]), 1);
        assert_eq!(compare(&[a.clone(), dropped]), 1);
        assert_eq!(compare(&[a.clone(), other]), 3);
        assert_eq!(compare(&[a.clone(), dir.join("absent.json").to_string_lossy().into_owned()]), 2);
        assert_eq!(compare(&[a]), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
