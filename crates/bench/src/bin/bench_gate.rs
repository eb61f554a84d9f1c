//! Throughput regression gate for CI.
//!
//! Compares a fresh bench snapshot (`--json` mode of the kv_paging or kernels bench,
//! written by `mx_bench::harness`) against its committed baseline (`BENCH_serving.json`
//! / `BENCH_kernels.json`), label by label: the run fails if any baseline label's rate
//! drops more than [`TOLERANCE`] below the baseline, or if a baseline label is missing
//! from the snapshot. Faster-than-baseline entries always pass — the gate guards
//! regressions, not noise in the lucky direction.
//!
//! Each label is compared with the estimator its baseline was taken with, which the
//! baseline entry shows by the statistics it records. The serving baselines are single
//! runs (`n` 1), whose one sample is their `median`, so the fresh `median` is compared.
//! The kernel baselines are best-of-3 or best-of-5 runs and record only their `max`, so
//! the fresh `max` (best-of-N) is compared.
//!
//! Usage: `bench_gate <baseline.json> <fresh.json>`.
//!
//! The parser is a deliberately tiny substring scan over the harness's known, flat
//! entry shape (`"label":"..."` followed by its statistics within the same entry) — no
//! JSON dependency. The quoted needles cannot confuse `"max":` with a serving report's
//! `"max_nanos":`.

use std::process::ExitCode;

/// Largest tolerated drop below a baseline, as a fraction.
const TOLERANCE: f64 = 0.15;

/// The statistic a label is gated on.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Estimator {
    Median,
    Max,
}

impl Estimator {
    fn key(self) -> &'static str {
        match self {
            Estimator::Median => "median",
            Estimator::Max => "max",
        }
    }
}

/// One snapshot entry's gated statistics.
#[derive(Debug, PartialEq)]
struct Entry {
    label: String,
    unit: String,
    median: Option<f64>,
    max: Option<f64>,
}

impl Entry {
    /// The estimator a baseline entry was taken with: its median when it records one.
    fn estimator(&self) -> Estimator {
        if self.median.is_some() {
            Estimator::Median
        } else {
            Estimator::Max
        }
    }

    fn value(&self, estimator: Estimator) -> Option<f64> {
        match estimator {
            Estimator::Median => self.median,
            Estimator::Max => self.max,
        }
    }
}

/// Reads the number following `"key":` within `scope`, if present (`null` is absent).
fn field_value(scope: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let num = &scope[scope.find(&needle)? + needle.len()..];
    let end = num.find([',', '}']).unwrap_or(num.len());
    num[..end].trim().parse::<f64>().ok()
}

/// Extracts every labelled entry that records a median or a max.
fn entries(json: &str) -> Vec<Entry> {
    const LABEL: &str = "\"label\":\"";
    const UNIT: &str = "\"unit\":\"";
    let mut entries = Vec::new();
    let mut rest = json;
    while let Some(at) = rest.find(LABEL) {
        rest = &rest[at + LABEL.len()..];
        let Some(end) = rest.find('"') else { break };
        let label = rest[..end].to_string();
        rest = &rest[end + 1..];
        // The statistics live in the same entry object, before the next label.
        let scope = &rest[..rest.find(LABEL).unwrap_or(rest.len())];
        let unit = scope.find(UNIT).and_then(|at| scope[at + UNIT.len()..].split('"').next()).unwrap_or("");
        let (median, max) = (field_value(scope, "median"), field_value(scope, "max"));
        if median.is_some() || max.is_some() {
            entries.push(Entry { label, unit: unit.to_string(), median, max });
        }
    }
    entries
}

fn read_entries(path: &str) -> Result<Vec<Entry>, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let entries = entries(&json);
    if entries.is_empty() {
        return Err(format!("{path} holds no labelled median or max"));
    }
    Ok(entries)
}

fn run(baseline_path: &str, fresh_path: &str) -> Result<(), String> {
    let baseline = read_entries(baseline_path)?;
    let fresh = read_entries(fresh_path)?;
    let mut failures = Vec::new();
    for base_entry in &baseline {
        let Entry { label, unit, .. } = base_entry;
        let estimator = base_entry.estimator();
        let (key, base) = (estimator.key(), base_entry.value(estimator).unwrap_or(f64::NAN));
        let Some(now) = fresh.iter().find(|e| &e.label == label).and_then(|e| e.value(estimator)) else {
            failures.push(format!("{label}: no {key} in {fresh_path}"));
            continue;
        };
        let floor = base * (1.0 - TOLERANCE);
        let delta = (now - base) / base * 100.0;
        let verdict = if now < floor { "FAIL" } else { "ok" };
        println!(
            "{verdict:>4}  {label:<24} {key:<6} baseline {base:>10.1} {unit}  now {now:>10.1} {unit}  ({delta:+.1}%)"
        );
        if now < floor {
            failures.push(format!(
                "{label}: {key} {now:.1} {unit} is {:.1}% below baseline {base:.1} {unit} (tolerance -{:.0}%)",
                -delta,
                TOLERANCE * 100.0
            ));
        }
    }
    if failures.is_empty() {
        println!("bench gate passed: {} entries within -{:.0}% of baseline", baseline.len(), TOLERANCE * 100.0);
        Ok(())
    } else {
        Err(format!("throughput regression against {baseline_path}:\n  {}", failures.join("\n  ")))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let [_, baseline, fresh] = args.as_slice() else {
        eprintln!("usage: bench_gate <baseline.json> <fresh.json>");
        return ExitCode::FAILURE;
    };
    match run(baseline, fresh) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SNAPSHOT: &str = concat!(
        "{\"bench\":\"kv_paging\",\"nproc\":2,\"backend\":\"avx2\",\"entries\":[\n",
        "{\"label\":\"a_t1\",\"unit\":\"tokens_per_sec\",\"n\":11,\"median\":1000.5,\"min\":900.0,\"max\":1100.0,",
        "\"mad\":20.0,\"config\":\"tiny\",\"report\":{\"ttft\":{\"count\":1,\"max_nanos\":7}}},\n",
        "{\"label\":\"b_t2\",\"unit\":\"tokens_per_sec\",\"n\":1,\"median\":2000.0,\"min\":2000.0,\"max\":2000.0}\n",
        "]}"
    );

    fn entry(label: &str, unit: &str, median: Option<f64>, max: Option<f64>) -> Entry {
        Entry { label: label.to_string(), unit: unit.to_string(), median, max }
    }

    #[test]
    fn parses_labelled_throughputs() {
        let parsed = entries(SNAPSHOT);
        assert_eq!(
            parsed,
            vec![
                entry("a_t1", "tokens_per_sec", Some(1000.5), Some(1100.0)),
                entry("b_t2", "tokens_per_sec", Some(2000.0), Some(2000.0)),
            ]
        );
        assert_eq!(parsed[0].estimator(), Estimator::Median, "a run with a median is gated on it");
    }

    #[test]
    fn scopes_throughput_to_its_own_entry() {
        // An entry without statistics must not steal the next entry's numbers, and a
        // report's `max_nanos` is not a `max`.
        let json = concat!(
            "{\"label\":\"x\",\"report\":{\"max_nanos\":9}},",
            "{\"label\":\"y\",\"unit\":\"codes_per_sec\",\"n\":5,\"max\":5,\"median\":null}"
        );
        let parsed = entries(json);
        assert_eq!(parsed, vec![entry("y", "codes_per_sec", None, Some(5.0))]);
        assert_eq!(parsed[0].estimator(), Estimator::Max, "a best-of-N baseline is gated on the max");
    }

    #[test]
    fn parses_kernel_snapshot_throughput_not_the_scalar_reference() {
        // A label that extends another's name (as the `_scalar` reference twins of older
        // snapshots do) is a label of its own; each keeps its own numbers, in either order.
        let json = concat!(
            "{\"bench\":\"kernels\",\"entries\":[",
            "{\"label\":\"pack_4bit_scalar\",\"unit\":\"codes_per_sec\",\"median\":900.0,\"max\":1000.0},",
            "{\"label\":\"pack_4bit\",\"unit\":\"codes_per_sec\",\"median\":8000.0,\"max\":9000.5}",
            "]}"
        );
        let parsed = entries(json);
        let pack = parsed.iter().find(|e| e.label == "pack_4bit").unwrap();
        assert_eq!(pack, &entry("pack_4bit", "codes_per_sec", Some(8000.0), Some(9000.5)));
    }

    #[test]
    fn kernel_regressions_report_their_unit_and_baseline_file() {
        let dir = std::env::temp_dir();
        let tag = std::process::id();
        let (base, fresh) = (dir.join(format!("gate-{tag}-base.json")), dir.join(format!("gate-{tag}-fresh.json")));
        // The baseline records a best-of-N only; the fresh run's median is better than
        // the baseline, but its best-of-N is what the gate compares.
        std::fs::write(&base, "{\"entries\":[{\"label\":\"qdq\",\"unit\":\"elements_per_sec\",\"n\":5,\"max\":1000}]}")
            .unwrap();
        std::fs::write(
            &fresh,
            "{\"entries\":[{\"label\":\"qdq\",\"unit\":\"elements_per_sec\",\"n\":11,\"median\":2000,\"max\":500}]}",
        )
        .unwrap();
        let (base_path, fresh_path) = (base.to_str().unwrap(), fresh.to_str().unwrap());
        let verdict = run(base_path, fresh_path);
        let passing = run(base_path, base_path);
        std::fs::remove_file(&base).unwrap();
        std::fs::remove_file(&fresh).unwrap();
        let message = verdict.unwrap_err();
        assert!(message.starts_with(&format!("throughput regression against {base_path}")), "{message}");
        assert!(
            message.contains("qdq: max 500.0 elements_per_sec is 50.0% below baseline 1000.0 elements_per_sec"),
            "{message}"
        );
        assert!(!message.contains("tok/s") && !message.contains("serving"), "{message}");
        assert_eq!(passing, Ok(()));
    }
}
