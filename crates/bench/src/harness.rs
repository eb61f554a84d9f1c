//! The one harness every `benches/` target runs through.
//!
//! Each label is timed by exactly one call: a warm-up, then 11 timed repetitions of at
//! least 2 ms each, summarized as the median, min, max and median absolute deviation
//! (MAD) of the per-repetition samples. A label's samples are rates in its unit
//! (`codes_per_sec`, `tokens_per_sec`, ...), so higher is better and `max` is the
//! best-of-N. Every label prints one stdout line.
//!
//! Arguments, as `cargo bench -p mx-bench --bench <name> -- [args]` passes them:
//!
//! * `--test` — smoke mode: each label runs once, with no warm-up or repetitions, so
//!   every assertion a bench makes runs in seconds;
//! * `--json <path>` — also write every label to `path` in one schema (see
//!   [`Harness::finish`]); a relative path resolves against `crates/bench/`, the
//!   bench binary's working directory;
//! * `--bench` — accepted and ignored: `cargo bench` appends it to every binary.

use std::time::Instant;

use mx_llm::{QuantileSummary, ServingReport, TransformerModel};

/// Timed repetitions per label (after one warm-up).
const REPS: usize = 11;

/// Shortest wall time of one repetition: a call faster than this is repeated within
/// the repetition, as many times as the warm-up call says fit.
const REP_SECONDS: f64 = 0.002;

/// Summary of one label's samples: their count, median (the mean of the middle two for
/// an even count), min, max and median absolute deviation from the median.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Stats {
    n: usize,
    median: f64,
    min: f64,
    max: f64,
    mad: f64,
}

impl Stats {
    /// Summarizes `samples`, which must not be empty.
    fn of(samples: &[f64]) -> Stats {
        let median = |v: &mut Vec<f64>| {
            v.sort_by(f64::total_cmp);
            // The mean of the middle two for an even count, the middle one for an odd.
            (v[(v.len() - 1) / 2] + v[v.len() / 2]) / 2.0
        };
        let mut sorted = samples.to_vec();
        let mid = median(&mut sorted);
        let mad = median(&mut sorted.iter().map(|x| (x - mid).abs()).collect());
        Stats { n: samples.len(), median: mid, min: sorted[0], max: sorted[sorted.len() - 1], mad }
    }
}

/// The model configuration a label runs, as its JSON entry records it.
#[must_use]
pub fn model_config(model: &TransformerModel) -> String {
    let c = model.config();
    format!("{} hidden {} layers {} {}", c.name, c.hidden, c.layers, model.quant().name())
}

/// One bench binary's run: parses its arguments, times its labels and collects their
/// JSON entries.
#[derive(Debug)]
pub struct Harness {
    bench: &'static str,
    smoke: bool,
    json: Option<String>,
    entries: Vec<String>,
}

impl Harness {
    /// Parses the binary's arguments (see the [module docs](self)). Exits the process
    /// with status 2 on an argument the harness does not know, or `--json` without a
    /// path.
    #[must_use]
    pub fn from_args(bench: &'static str) -> Harness {
        let mut harness = Harness { bench, smoke: false, json: None, entries: Vec::new() };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--test" => harness.smoke = true,
                "--bench" => {}
                "--json" => match args.next() {
                    Some(path) => harness.json = Some(path),
                    None => usage("--json requires a file path"),
                },
                other => usage(&format!("unknown argument `{other}`")),
            }
        }
        harness
    }

    /// Times `f` as a rate: one call does `work` units of `unit`, and each sample is
    /// `<unit>_per_sec` over one repetition. `config` names what the label runs.
    pub fn time<R>(&mut self, label: &str, unit: &str, work: f64, config: &str, mut f: impl FnMut() -> R) {
        let mut calls = |n: usize| {
            let start = Instant::now();
            for _ in 0..n {
                std::hint::black_box(f());
            }
            start.elapsed().as_secs_f64()
        };
        let per_rep = if self.smoke { 1 } else { (REP_SECONDS / calls(1).max(1e-9)).ceil() as usize };
        let samples: Vec<f64> = (0..self.reps()).map(|_| per_rep as f64 * work / calls(per_rep)).collect();
        self.record(label, &format!("{unit}_per_sec"), config, &samples, None);
    }

    /// Runs a serving workload per repetition: each sample is the run's own wall
    /// throughput ([`ServingReport::tokens_per_sec_parallel`]), and the entry keeps the
    /// report of the run at the median — its token count and its TTFT, TPOT, pass and
    /// queue-wait quantiles.
    pub fn serve(&mut self, label: &str, config: &str, mut f: impl FnMut() -> ServingReport) {
        if !self.smoke {
            f();
        }
        let mut runs: Vec<ServingReport> = (0..self.reps()).map(|_| f()).collect();
        runs.sort_by(|a, b| a.tokens_per_sec_parallel.total_cmp(&b.tokens_per_sec_parallel));
        let samples: Vec<f64> = runs.iter().map(|r| r.tokens_per_sec_parallel).collect();
        let report = report_json(&runs[(runs.len() - 1) / 2]);
        self.record(label, "tokens_per_sec", config, &samples, Some(report));
    }

    /// Timed repetitions per label: one in smoke mode, else [`REPS`].
    fn reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            REPS
        }
    }

    fn record(&mut self, label: &str, unit: &str, config: &str, samples: &[f64], report: Option<String>) {
        let s = Stats::of(samples);
        println!(
            "{label:<40} {:>11.4e} {unit:<16} min {:.4e}  max {:.4e}  mad {:>5.1}%  n={}",
            s.median,
            s.min,
            s.max,
            100.0 * s.mad / s.median,
            s.n
        );
        let mut entry = format!(
            "{{\"label\":\"{label}\",\"unit\":\"{unit}\",\"n\":{},\"median\":{},\"min\":{},\"max\":{},\"mad\":{},\"config\":\"{config}\"",
            s.n,
            num(s.median),
            num(s.min),
            num(s.max),
            num(s.mad)
        );
        if let Some(report) = report {
            entry.push_str(&format!(",\"report\":{report}"));
        }
        entry.push('}');
        self.entries.push(entry);
    }

    /// Ends the run. Under `--json <path>` writes every label as one document:
    ///
    /// ```json
    /// {"bench":"kernels","nproc":2,"backend":"avx2","entries":[
    ///   {"label":"pack_4bit","unit":"codes_per_sec","n":11,"median":..,"min":..,"max":..,"mad":..,"config":".."}]}
    /// ```
    ///
    /// `nproc` is the host's available parallelism and `backend` the process's kernel
    /// plan ([`mx_formats::kernels::active_backend`]). A serving entry adds a
    /// `report` object (see [`Harness::serve`]). Exits the process with status 1 if
    /// the file cannot be written.
    pub fn finish(self) {
        let Some(path) = &self.json else { return };
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let backend = mx_formats::kernels::active_backend().name();
        let doc = format!(
            "{{\"bench\":\"{}\",\"nproc\":{nproc},\"backend\":\"{backend}\",\"entries\":[\n{}\n]}}\n",
            self.bench,
            self.entries.join(",\n")
        );
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {} labels to {path}", self.entries.len());
    }
}

/// Reports a bad command line and exits with status 2.
fn usage(problem: &str) -> ! {
    eprintln!("{problem}; the bench takes --test, --bench and --json <path>");
    std::process::exit(2)
}

/// A JSON number; `null` for a non-finite value, which JSON cannot spell.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "null".to_string()
    }
}

fn quantiles_json(q: &QuantileSummary) -> String {
    format!(
        "{{\"count\":{},\"p50_nanos\":{},\"p95_nanos\":{},\"p99_nanos\":{},\"mean_nanos\":{},\"max_nanos\":{}}}",
        q.count, q.p50_nanos, q.p95_nanos, q.p99_nanos, q.mean_nanos, q.max_nanos
    )
}

fn report_json(r: &ServingReport) -> String {
    format!(
        concat!(
            "{{\"threads\":{},\"generated_tokens\":{},\"decode_tokens_per_sec\":{},",
            "\"ttft\":{},\"tpot\":{},\"pass_latency\":{},\"queue_wait\":{}}}"
        ),
        r.num_threads,
        r.generated_tokens,
        num(r.decode_tokens_per_sec),
        quantiles_json(&r.latency.ttft),
        quantiles_json(&r.latency.tpot),
        quantiles_json(&r.latency.pass_latency),
        quantiles_json(&r.latency.queue_wait),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_take_median_extremes_and_mad() {
        let s = Stats::of(&[5.0, 1.0, 3.0, 100.0, 4.0]);
        assert_eq!(s, Stats { n: 5, median: 4.0, min: 1.0, max: 100.0, mad: 1.0 });
        // An even count averages the middle two; one sample is its own summary.
        assert_eq!(Stats::of(&[2.0, 1.0, 4.0, 3.0]).median, 2.5);
        assert_eq!(Stats::of(&[7.0]), Stats { n: 1, median: 7.0, min: 7.0, max: 7.0, mad: 0.0 });
    }

    #[test]
    fn entries_and_document_are_one_schema() {
        let path = std::env::temp_dir().join(format!("harness-{}.json", std::process::id()));
        let mut h = Harness { bench: "demo", smoke: true, json: Some(path.to_str().unwrap().into()), entries: vec![] };
        h.time("spin", "calls", 1.0, "none", || std::hint::black_box(21u64) * 2);
        h.record("rate", "codes_per_sec", "cfg", &[2.0, f64::INFINITY, 1.0], Some("{\"count\":0}".into()));
        h.finish();
        let doc = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(doc.starts_with("{\"bench\":\"demo\",\"nproc\":"), "{doc}");
        assert!(doc.contains("\"backend\":\"") && doc.ends_with("]}\n"), "{doc}");
        // Smoke mode times each label once.
        assert!(doc.contains("{\"label\":\"spin\",\"unit\":\"calls_per_sec\",\"n\":1,\"median\":"), "{doc}");
        assert!(doc.contains(",\"mad\":0.000,\"config\":\"none\"}"), "{doc}");
        assert!(
            doc.contains(concat!(
                "{\"label\":\"rate\",\"unit\":\"codes_per_sec\",\"n\":3,\"median\":2.000,\"min\":1.000,",
                "\"max\":null,\"mad\":1.000,\"config\":\"cfg\",\"report\":{\"count\":0}}"
            )),
            "{doc}"
        );
        assert!(!doc.contains("inf") && !doc.contains("NaN"), "{doc}");
    }
}
