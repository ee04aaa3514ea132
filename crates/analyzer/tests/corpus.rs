//! Seeded-violation corpus: every rule fires at a pinned line/column, every
//! waiver suppresses exactly one finding, and the binary's exit codes and
//! JSON output hold up end to end.

use std::path::{Path, PathBuf};
use std::process::Command;

use pta_analyzer::{analyze, load_workspace, Finding};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn corpus_findings() -> Vec<Finding> {
    let ws = load_workspace(&fixture("ws")).expect("fixture workspace loads");
    analyze(&ws)
}

/// Each seeded violation surfaces at the exact (file, line, col, rule) it
/// was planted at, in the analyzer's deterministic sort order.
#[test]
fn corpus_findings_are_line_and_col_exact() {
    let findings = corpus_findings();
    let got: Vec<(&str, u32, u32, &str)> =
        findings.iter().map(|f| (f.file.as_str(), f.line, f.col, f.rule)).collect();
    let expected: Vec<(&str, u32, u32, &str)> = vec![
        ("BENCH_dp.json", 3, 1, "bench-schema"),
        ("BENCH_dp.json", 3, 1, "bench-schema"),
        ("BENCH_dp.json", 3, 1, "bench-schema"),
        ("BENCH_dp.json", 3, 1, "bench-schema"),
        ("BENCH_dp.json", 3, 1, "bench-schema"),
        ("crates/core/Cargo.toml", 1, 1, "manifest-discipline"),
        ("crates/core/Cargo.toml", 7, 1, "manifest-discipline"),
        ("crates/core/src/dp/approx.rs", 4, 5, "cancel-coverage"),
        ("crates/core/src/dp/fill.rs", 3, 5, "cancel-coverage"),
        ("crates/core/src/lib.rs", 4, 7, "float-eq"),
        ("crates/core/src/lib.rs", 11, 1, "unused-waiver"),
        ("crates/core/src/lib.rs", 14, 1, "waiver-syntax"),
        ("crates/core/src/lib.rs", 19, 21, "failpoint-registry"),
        ("crates/serve/src/handler.rs", 3, 5, "deadline-coverage"),
        ("crates/shims/failpoints/src/lib.rs", 5, 5, "failpoint-registry"),
        ("crates/shims/failpoints/src/lib.rs", 6, 5, "failpoint-registry"),
        ("crates/shims/failpoints/src/lib.rs", 6, 5, "failpoint-registry"),
    ];
    assert_eq!(got, expected, "full findings:\n{findings:#?}");
}

/// The trailing waiver on line 8 (`x == 0.0 // pta-lint: allow(float-eq)`)
/// suppresses exactly that one finding: no float-eq fires on line 8, the
/// unwaived twin on line 4 still fires, and the waiver itself is counted
/// as used (only the deliberately dangling waiver on line 11 is unused).
#[test]
fn waiver_suppresses_exactly_one_finding() {
    let findings = corpus_findings();
    assert!(!findings.iter().any(|f| f.file == "crates/core/src/lib.rs" && f.line == 8));
    assert!(findings
        .iter()
        .any(|f| f.file == "crates/core/src/lib.rs" && f.line == 4 && f.rule == "float-eq"));
    let unused: Vec<&Finding> = findings.iter().filter(|f| f.rule == "unused-waiver").collect();
    assert_eq!(unused.len(), 1);
    assert_eq!((unused[0].file.as_str(), unused[0].line), ("crates/core/src/lib.rs", 11));
}

/// `nested/` declares a `[workspace]` of its own, so it is not part of the
/// analyzed workspace: its seeded manifest and waiver violations never
/// surface, and none of its files are even loaded.
#[test]
fn nested_workspace_is_not_analyzed() {
    let ws = load_workspace(&fixture("ws")).expect("fixture workspace loads");
    let nested = |rel: &str| rel.starts_with("nested/");
    assert!(!ws.files.iter().any(|f| nested(&f.rel)));
    assert!(!ws.manifests.iter().any(|m| nested(&m.rel)));
    assert!(!analyze(&ws).iter().any(|f| nested(&f.file)));
}

/// Registry findings name the concrete problem, not just the rule.
#[test]
fn failpoint_messages_name_the_site() {
    let findings = corpus_findings();
    let msg = |line: u32, frag: &str| {
        assert!(
            findings.iter().any(|f| f.rule == "failpoint-registry"
                && f.line == line
                && f.message.contains(frag)),
            "no failpoint-registry finding at line {line} mentioning {frag:?}"
        );
    };
    msg(19, "rogue.site");
    msg(5, "duplicate");
    msg(6, "dead.site");
    msg(6, "never exercised");
}

/// The clean fixture workspace produces zero findings through the library API.
#[test]
fn clean_fixture_is_clean() {
    let ws = load_workspace(&fixture("clean")).expect("clean fixture loads");
    assert!(analyze(&ws).is_empty());
}

#[test]
fn binary_exits_one_on_corpus_and_zero_on_clean() {
    let bin = env!("CARGO_BIN_EXE_pta-analyzer");
    let bad = Command::new(bin).arg("--root").arg(fixture("ws")).output().expect("spawns");
    assert_eq!(bad.status.code(), Some(1));
    let text = String::from_utf8_lossy(&bad.stdout);
    assert!(text.contains("crates/core/src/lib.rs:4:7 float-eq"));
    assert!(String::from_utf8_lossy(&bad.stderr).contains("17 finding(s)"));

    let ok = Command::new(bin).arg("--root").arg(fixture("clean")).output().expect("spawns");
    assert_eq!(
        ok.status.code(),
        Some(0),
        "clean fixture flagged:\n{}",
        String::from_utf8_lossy(&ok.stdout)
    );
}

/// `--format json` emits an array our own parser round-trips, one record per
/// finding, each carrying the full coordinate set.
#[test]
fn binary_json_output_is_machine_readable() {
    let bin = env!("CARGO_BIN_EXE_pta-analyzer");
    let out = Command::new(bin)
        .args(["--format", "json", "--root"])
        .arg(fixture("ws"))
        .output()
        .expect("spawns");
    assert_eq!(out.status.code(), Some(1));
    let doc = pta_analyzer::json::parse(&String::from_utf8_lossy(&out.stdout))
        .expect("analyzer emits valid JSON");
    let pta_analyzer::json::Value::Arr(_, items) = doc else { panic!("expected an array") };
    assert_eq!(items.len(), 17);
    for rec in &items {
        for key in ["file", "line", "col", "rule", "message"] {
            assert!(rec.get(key).is_some(), "finding record is missing key {key:?}");
        }
    }
}
