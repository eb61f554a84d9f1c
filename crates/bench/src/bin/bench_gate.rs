//! Throughput regression gate for CI.
//!
//! Compares a freshly produced bench snapshot (`--json` mode of the kv_paging or
//! kernels bench) against its committed baseline (`BENCH_serving.json` /
//! `BENCH_kernels.json`), entry by entry: the run fails if any label's throughput —
//! `tokens_per_sec_wall` for serving entries, `throughput` for kernel entries — drops
//! more than the given tolerance below the baseline, or if a baseline label is missing
//! from the snapshot. Faster-than-baseline entries always pass — the gate guards
//! regressions, not noise in the lucky direction. Each entry prints in its own `unit`
//! (kernel entries carry one, e.g. `codes_per_sec`); serving entries have none and
//! print as tok/s.
//!
//! Usage: `bench_gate <baseline.json> <fresh.json> [tolerance]` (tolerance is a
//! fraction, default 0.15 = -15%).
//!
//! The parser is a deliberately tiny substring scan over the snapshots' known, flat
//! shape (`"label":"..."` followed by the throughput field within the same entry) — no
//! JSON dependency, byte-stable against reordering of other fields. The quoted needles
//! cannot confuse `"throughput":` with `"scalar_throughput":` (no leading quote there),
//! and the serving key is tried first so mixed documents stay unambiguous.

use std::process::ExitCode;

/// One gated snapshot entry.
#[derive(Debug, PartialEq)]
struct Entry {
    label: String,
    throughput: f64,
    unit: String,
}

/// Reads the number following `needle` within `scope`, if present.
fn field_value(scope: &str, needle: &str) -> Option<f64> {
    let num = &scope[scope.find(needle)? + needle.len()..];
    let end = num.find([',', '}']).unwrap_or(num.len());
    num[..end].trim().parse::<f64>().ok()
}

/// Extracts the gated entries from a snapshot JSON string: the serving key
/// `tokens_per_sec_wall` when present, else the kernel key `throughput`, each with the
/// entry's `unit` (tok/s when it has none).
fn throughput_entries(json: &str) -> Vec<Entry> {
    const UNIT: &str = "\"unit\":\"";
    let mut entries = Vec::new();
    let mut rest = json;
    while let Some(at) = rest.find("\"label\":\"") {
        rest = &rest[at + "\"label\":\"".len()..];
        let Some(end) = rest.find('"') else { break };
        let label = rest[..end].to_string();
        rest = &rest[end + 1..];
        // The throughput field lives in the same entry object, before the next label.
        let scope_end = rest.find("\"label\":\"").unwrap_or(rest.len());
        let scope = &rest[..scope_end];
        let value = field_value(scope, "\"tokens_per_sec_wall\":").or_else(|| field_value(scope, "\"throughput\":"));
        let unit = scope.find(UNIT).and_then(|at| scope[at + UNIT.len()..].split('"').next()).unwrap_or("tok/s");
        if let Some(throughput) = value {
            entries.push(Entry { label, throughput, unit: unit.to_string() });
        }
    }
    entries
}

fn read_entries(path: &str) -> Result<Vec<Entry>, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let entries = throughput_entries(&json);
    if entries.is_empty() {
        return Err(format!("{path} holds no (label, throughput) entries"));
    }
    Ok(entries)
}

fn run(baseline_path: &str, fresh_path: &str, tolerance: f64) -> Result<(), String> {
    let baseline = read_entries(baseline_path)?;
    let fresh = read_entries(fresh_path)?;
    let mut failures = Vec::new();
    for Entry { label, throughput: base, unit } in &baseline {
        let Some(now) = fresh.iter().find(|e| &e.label == label).map(|e| e.throughput) else {
            failures.push(format!("{label}: missing from {fresh_path}"));
            continue;
        };
        let floor = base * (1.0 - tolerance);
        let delta = (now - base) / base * 100.0;
        let verdict = if now < floor { "FAIL" } else { "ok" };
        println!("{verdict:>4}  {label:<24} baseline {base:>10.1} {unit}  now {now:>10.1} {unit}  ({delta:+.1}%)");
        if now < floor {
            failures.push(format!(
                "{label}: {now:.1} {unit} is {:.1}% below baseline {base:.1} {unit} (tolerance -{:.0}%)",
                -delta,
                tolerance * 100.0
            ));
        }
    }
    if failures.is_empty() {
        println!("bench gate passed: {} entries within -{:.0}% of baseline", baseline.len(), tolerance * 100.0);
        Ok(())
    } else {
        Err(format!("throughput regression against {baseline_path}:\n  {}", failures.join("\n  ")))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let (Some(baseline), Some(fresh)) = (args.get(1), args.get(2)) else {
        eprintln!("usage: bench_gate <baseline.json> <fresh.json> [tolerance]");
        return ExitCode::FAILURE;
    };
    let tolerance = match args.get(3).map(|t| t.parse::<f64>()) {
        None => 0.15,
        Some(Ok(t)) if t > 0.0 && t < 1.0 => t,
        Some(_) => {
            eprintln!("tolerance must be a fraction in (0, 1)");
            return ExitCode::FAILURE;
        }
    };
    match run(baseline, fresh, tolerance) {
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
        "{\"bench\":\"kv_paging_serving\",\"entries\":[",
        "{\"label\":\"a_t1\",\"threads\":1,\"tokens_per_sec_wall\":1000.5,\"ttft\":{\"count\":1}},",
        "{\"label\":\"b_t2\",\"tokens_per_sec_wall\":2000.0}",
        "]}"
    );

    fn entry(label: &str, throughput: f64, unit: &str) -> Entry {
        Entry { label: label.to_string(), throughput, unit: unit.to_string() }
    }

    #[test]
    fn parses_labelled_throughputs() {
        let entries = throughput_entries(SNAPSHOT);
        assert_eq!(entries, vec![entry("a_t1", 1000.5, "tok/s"), entry("b_t2", 2000.0, "tok/s")]);
    }

    #[test]
    fn scopes_throughput_to_its_own_entry() {
        // An entry without the field must not steal the next entry's number.
        let json = "{\"label\":\"x\",\"other\":1},{\"label\":\"y\",\"tokens_per_sec_wall\":5}";
        assert_eq!(throughput_entries(json), vec![entry("y", 5.0, "tok/s")]);
    }

    #[test]
    fn parses_kernel_snapshot_throughput_not_the_scalar_reference() {
        // Kernel entries use the `throughput` key; `scalar_throughput` has no leading
        // quote before "throughput" and must never be picked up, in either order.
        let json = concat!(
            "{\"bench\":\"kernels\",\"entries\":[",
            "{\"label\":\"pack_4bit\",\"throughput\":9000.5,\"unit\":\"codes_per_sec\",\"scalar_throughput\":1000.0},",
            "{\"label\":\"only_scalar\",\"scalar_throughput\":77.0}",
            "]}"
        );
        assert_eq!(throughput_entries(json), vec![entry("pack_4bit", 9000.5, "codes_per_sec")]);
    }

    #[test]
    fn kernel_regressions_report_their_unit_and_baseline_file() {
        let dir = std::env::temp_dir();
        let tag = std::process::id();
        let (base, fresh) = (dir.join(format!("gate-{tag}-base.json")), dir.join(format!("gate-{tag}-fresh.json")));
        let doc = |value: f64| {
            format!("{{\"entries\":[{{\"label\":\"qdq\",\"throughput\":{value},\"unit\":\"elements_per_sec\"}}]}}")
        };
        std::fs::write(&base, doc(1000.0)).unwrap();
        std::fs::write(&fresh, doc(500.0)).unwrap();
        let (base_path, fresh_path) = (base.to_str().unwrap(), fresh.to_str().unwrap());
        let verdict = run(base_path, fresh_path, 0.15);
        let passing = run(base_path, base_path, 0.15);
        std::fs::remove_file(&base).unwrap();
        std::fs::remove_file(&fresh).unwrap();
        let message = verdict.unwrap_err();
        assert!(message.starts_with(&format!("throughput regression against {base_path}")), "{message}");
        assert!(
            message.contains("500.0 elements_per_sec is 50.0% below baseline 1000.0 elements_per_sec"),
            "{message}"
        );
        assert!(!message.contains("tok/s") && !message.contains("serving"), "{message}");
        assert_eq!(passing, Ok(()));
    }
}
