//! Golden fixture tests: one must-fire and one must-not-fire case per rule, plus the
//! suppression-comment mechanism, pinned to exact lines (and spot-checked columns).
//!
//! The fixtures live under `tests/fixtures/` with the same `src/` / `tests/` shape as
//! a real crate, so the path-classification logic is exercised too: the lifecycle and
//! must-release fixtures sit in files named `paging.rs` / `serving.rs` because those
//! passes only run on concurrency modules.

use std::fs;
use std::path::{Path, PathBuf};

use mx_analyze::{analyze_sources, check_sources, render_json, Finding};

fn fixture(rel: &str) -> (PathBuf, String) {
    let disk = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(rel);
    let source = fs::read_to_string(&disk).unwrap_or_else(|e| panic!("fixture {rel}: {e}"));
    (PathBuf::from(rel), source)
}

fn check(rels: &[&str]) -> Vec<Finding> {
    let files: Vec<_> = rels.iter().map(|r| fixture(r)).collect();
    check_sources(&files)
}

fn lines_of(findings: &[Finding], rule: &str) -> Vec<usize> {
    findings.iter().filter(|f| f.rule.id() == rule).map(|f| f.line).collect()
}

#[test]
fn no_panics_must_fire() {
    let findings = check(&["src/panics_fire.rs"]);
    assert_eq!(lines_of(&findings, "no-panics"), vec![4, 8, 12, 16], "findings: {findings:?}");
    assert_eq!(findings.len(), 4);
    // Spot-check the column math: `    v.unwrap()` puts `unwrap` at column 7.
    assert_eq!((findings[0].line, findings[0].col), (4, 7));
}

#[test]
fn no_panics_must_not_fire() {
    assert!(check(&["src/panics_clean.rs"]).is_empty());
    assert!(check(&["tests/panics_in_tests_ok.rs"]).is_empty());
}

#[test]
fn guard_liveness_must_fire_on_straight_line_holds() {
    let findings = check(&["src/lock_fire.rs"]);
    assert_eq!(lines_of(&findings, "guard-liveness"), vec![6, 12], "findings: {findings:?}");
    assert_eq!(findings.len(), 2);
    assert!(findings[0].message.contains("`state`"), "message names the guard: {}", findings[0].message);
    assert!(findings[0].message.contains("unpack_row_into"), "message names the hot call: {}", findings[0].message);
}

#[test]
fn guard_liveness_must_fire_on_paths_brace_depth_missed() {
    // A guard dropped in *one* match arm (or only before an early return) is still
    // live on the sibling path — the flow-sensitive cases the old `lock-across-call`
    // rule could not see.
    let findings = check(&["src/guard_flow_fire.rs"]);
    assert_eq!(lines_of(&findings, "guard-liveness"), vec![11, 20], "findings: {findings:?}");
    assert_eq!(findings.len(), 2);
    assert_eq!((findings[0].line, findings[0].col), (11, 11));
    assert_eq!((findings[1].line, findings[1].col), (20, 11));
    assert!(findings[1].message.contains("`guard`"), "findings: {findings:?}");
}

#[test]
fn guard_liveness_must_not_fire() {
    let findings = check(&["src/lock_clean.rs"]);
    assert!(findings.is_empty(), "findings: {findings:?}");
}

#[test]
fn page_lifecycle_must_fire() {
    let findings = check(&["src/lifecycle_fire/paging.rs"]);
    assert_eq!(lines_of(&findings, "page-lifecycle"), vec![9, 15, 21, 28, 37], "findings: {findings:?}");
    assert_eq!(findings.len(), 5);
    // Double-free at the second `pool.free_page(page)` call.
    assert_eq!((findings[0].line, findings[0].col), (9, 10));
    assert!(findings[0].message.contains("double-free"), "findings: {findings:?}");
    // Use-after-free where the freed page is passed to `install`.
    assert_eq!((findings[1].line, findings[1].col), (15, 11));
    assert!(findings[1].message.contains("use-after-free"), "findings: {findings:?}");
    // Leak on the early `return`.
    assert_eq!((findings[2].line, findings[2].col), (21, 9));
    assert!(findings[2].message.contains("early return"), "findings: {findings:?}");
    // Leak on the `?` error edge.
    assert_eq!((findings[3].line, findings[3].col), (28, 33));
    assert!(findings[3].message.contains("error path"), "findings: {findings:?}");
    // Leak at the closing brace of the function scope.
    assert_eq!((findings[4].line, findings[4].col), (37, 1));
    assert!(findings[4].message.contains("out of scope"), "findings: {findings:?}");
}

#[test]
fn page_lifecycle_must_not_fire() {
    let findings = check(&["src/lifecycle_clean/paging.rs"]);
    assert!(findings.is_empty(), "findings: {findings:?}");
}

#[test]
fn page_lifecycle_only_runs_on_concurrency_modules() {
    // The same source checked under a non-concurrency path produces no lifecycle or
    // must-release findings (guard-liveness still runs everywhere).
    let (_, source) = fixture("src/lifecycle_fire/paging.rs");
    let findings = check_sources(&[(PathBuf::from("src/other.rs"), source)]);
    assert!(findings.is_empty(), "findings: {findings:?}");
}

#[test]
fn must_release_must_fire() {
    let findings = check(&["src/reserve_fire/serving.rs"]);
    assert_eq!(lines_of(&findings, "must-release"), vec![7, 12, 19], "findings: {findings:?}");
    assert_eq!(findings.len(), 3);
    assert_eq!((findings[0].line, findings[0].col), (7, 1));
    assert!(findings[0].message.contains("out of scope"), "findings: {findings:?}");
    assert_eq!((findings[1].line, findings[1].col), (12, 9));
    assert!(findings[1].message.contains("early return"), "findings: {findings:?}");
    assert_eq!((findings[2].line, findings[2].col), (19, 17));
    assert!(findings[2].message.contains("error path"), "findings: {findings:?}");
}

#[test]
fn must_release_must_not_fire() {
    let findings = check(&["src/reserve_clean/serving.rs"]);
    assert!(findings.is_empty(), "findings: {findings:?}");
}

#[test]
fn atomic_ordering_must_fire() {
    let findings = check(&["src/atomics_fire.rs"]);
    assert_eq!(lines_of(&findings, "atomic-ordering"), vec![11, 15], "findings: {findings:?}");
    assert_eq!(findings.len(), 2);
}

#[test]
fn atomic_ordering_must_not_fire() {
    let findings = check(&["src/atomics_clean.rs"]);
    assert!(findings.is_empty(), "findings: {findings:?}");
}

#[test]
fn send_sync_audit_must_fire_on_uncovered_pub_type() {
    // Without the coverage file, both pub types are uncovered; with it, only
    // `NotAudited` fires — and private/pub(crate)/cfg(test) types never do.
    let alone = check(&["src/paging.rs"]);
    assert_eq!(lines_of(&alone, "send-sync-audit"), vec![5, 9], "findings: {alone:?}");

    let findings = check(&["src/paging.rs", "tests/sendsync_audit.rs"]);
    assert_eq!(lines_of(&findings, "send-sync-audit"), vec![9], "findings: {findings:?}");
    assert_eq!(findings.len(), 1);
    assert!(findings[0].message.contains("NotAudited"));
    assert_eq!((findings[0].line, findings[0].col), (9, 12));
}

#[test]
fn unsafe_safety_comment_must_fire() {
    let findings = check(&["src/unsafe_fire.rs"]);
    assert_eq!(lines_of(&findings, "unsafe-safety-comment"), vec![5, 9, 16], "findings: {findings:?}");
    assert_eq!(findings.len(), 3);
    // The naked block: `    unsafe { *p }` puts `unsafe` at column 5.
    assert_eq!((findings[0].line, findings[0].col), (5, 5));
    // The attributed fn fires even though its *interior* block is documented.
    assert_eq!((findings[1].line, findings[1].col), (9, 5));
    // The bare `unsafe impl Send`.
    assert_eq!((findings[2].line, findings[2].col), (16, 1));
    assert!(findings[0].message.contains("SAFETY"), "findings: {findings:?}");
}

#[test]
fn unsafe_safety_comment_must_not_fire() {
    // Accepted shapes: comment directly above, same-line trailing, rustdoc `# Safety`
    // section above an attribute stack, plain comment above the attribute stack, and a
    // commented `unsafe impl`.
    let findings = check(&["src/unsafe_clean.rs"]);
    assert!(findings.is_empty(), "findings: {findings:?}");
    // Test code is exempt like the other library-only rules.
    let (_, source) = fixture("src/unsafe_fire.rs");
    let as_test = check_sources(&[(PathBuf::from("tests/unsafe_fire.rs"), source)]);
    assert!(as_test.is_empty(), "findings: {as_test:?}");
}

#[test]
fn meta_unused_allow_must_fire() {
    let findings = check(&["src/meta_fire.rs"]);
    assert_eq!(lines_of(&findings, "meta-unused-allow"), vec![5, 10], "findings: {findings:?}");
    assert_eq!(findings.len(), 2);
    // A suppression covering nothing is a finding even when it carries a reason.
    assert_eq!((findings[0].line, findings[0].col), (5, 5));
    assert!(findings[0].message.contains("matches no finding"), "findings: {findings:?}");
    // A *used* suppression without a `reason:` tail is also a finding, while the
    // violation it silences stays suppressed.
    assert_eq!((findings[1].line, findings[1].col), (10, 16));
    assert!(findings[1].message.contains("reason"), "findings: {findings:?}");
    assert!(lines_of(&findings, "no-panics").is_empty(), "suppression must still silence: {findings:?}");
}

#[test]
fn suppression_comments_silence_every_rule_and_carry_reasons() {
    let files = vec![fixture("src/suppressed.rs")];
    let report = analyze_sources(&files);
    assert!(report.findings.is_empty(), "suppressions ignored: {:?}", report.findings);
    assert_eq!(report.suppressed.len(), 5, "suppressed: {:?}", report.suppressed);
    for s in &report.suppressed {
        let reason = s.reason.as_deref().unwrap_or_else(|| panic!("missing reason: {:?}", s.finding));
        assert!(!reason.is_empty(), "empty reason: {:?}", s.finding);
    }
}

#[test]
fn fixtures_parse_without_errors() {
    // Every fixture body must be structurable, or the dataflow pins above would be
    // silently vacuous.
    let rels = [
        "src/lifecycle_fire/paging.rs",
        "src/lifecycle_clean/paging.rs",
        "src/reserve_fire/serving.rs",
        "src/reserve_clean/serving.rs",
        "src/guard_flow_fire.rs",
        "src/lock_fire.rs",
        "src/lock_clean.rs",
        "src/suppressed.rs",
        "src/meta_fire.rs",
    ];
    let files: Vec<_> = rels.iter().map(|r| fixture(r)).collect();
    let report = analyze_sources(&files);
    assert!(report.parse_errors.is_empty(), "parse errors: {:?}", report.parse_errors);
}

#[test]
fn findings_render_as_file_line_col_rule() {
    let findings = check(&["src/panics_fire.rs"]);
    let rendered = findings[0].to_string();
    assert!(rendered.contains("src/panics_fire.rs:4:7: no-panics:"), "rendered: {rendered}");
}

#[test]
fn findings_sort_by_file_line_col_rule_and_json_is_deterministic() {
    let rels = ["src/reserve_fire/serving.rs", "src/lifecycle_fire/paging.rs", "src/meta_fire.rs"];
    let files: Vec<_> = rels.iter().map(|r| fixture(r)).collect();
    let report = analyze_sources(&files);
    let keys: Vec<_> = report.findings.iter().map(|f| (f.file.clone(), f.line, f.col, f.rule.id())).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "findings not in (file, line, col, rule) order");

    // Identical trees must produce byte-identical JSON documents.
    let again = analyze_sources(&files);
    assert_eq!(render_json(&report, rels.len()), render_json(&again, rels.len()));
    let doc = render_json(&report, rels.len());
    assert!(doc.starts_with("{\n"), "doc: {doc}");
    assert!(doc.contains("\"version\": 1"), "doc: {doc}");
    assert!(doc.contains("\"rule\": \"page-lifecycle\""), "doc: {doc}");
}

/// The CLI must exit 1 on the fixture tree and print `file:line:col` + rule ids.
#[test]
fn cli_exits_nonzero_on_must_fire_fixtures() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let out =
        std::process::Command::new(env!("CARGO_BIN_EXE_mx-analyze")).arg(&fixtures).output().expect("run mx-analyze");
    assert_eq!(out.status.code(), Some(1), "analyzer must fail on the fixture tree");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "src/panics_fire.rs:4:7: no-panics:",
        "guard-liveness",
        "page-lifecycle",
        "must-release",
        "meta-unused-allow",
        "atomic-ordering",
        "send-sync-audit",
        "src/unsafe_fire.rs:5:5: unsafe-safety-comment:",
    ] {
        assert!(stdout.contains(needle), "missing `{needle}` in:\n{stdout}");
    }
}

/// `--json` emits the machine-readable document (findings included) and still
/// signals failure through the exit code.
#[test]
fn cli_json_mode_emits_the_report_document() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_mx-analyze"))
        .arg("--json")
        .arg(&fixtures)
        .output()
        .expect("run mx-analyze --json");
    assert_eq!(out.status.code(), Some(1), "json mode keeps the failure exit code");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("{\n"), "json on stdout:\n{stdout}");
    assert!(stdout.trim_end().ends_with('}'), "json on stdout:\n{stdout}");
    for needle in
        ["\"version\": 1", "\"files_scanned\":", "\"findings\": [", "\"suppressed\": [", "\"parse_errors\": ["]
    {
        assert!(stdout.contains(needle), "missing `{needle}` in:\n{stdout}");
    }
}
