//! `pta-analyzer` — a self-contained workspace lint engine that enforces
//! the PTA codebase's *own* invariants, the ones `clippy` cannot know:
//!
//! * **cancel-coverage** — row/merge loops in `dp/` and `greedy/` must
//!   poll the `CancelToken`, or deadlines silently stop working.
//! * **deadline-coverage** — request-handler functions in `crates/serve`
//!   must reference the deadline machinery (`CancelToken`, budgets), or
//!   requests on that path run unbounded.
//! * **failpoint-registry** — every `fail_point!` site name appears
//!   exactly once in `FAILPOINT_SITES` and is exercised by
//!   `tests/fault_injection.rs`.
//! * **float-eq** — `==`/`!=` against float operands in `pta-core`
//!   kernels requires an explicit waiver (`clippy::float_cmp` cannot
//!   take this over: it skips comparisons against zero and functions
//!   whose names contain `eq`).
//! * **manifest-discipline** — member crates inherit workspace lints and
//!   never path-depend on `crates/shims/*` directly.
//! * **bench-schema** — `BENCH_dp.json` records carry the required keys
//!   with the right types, so trajectory tooling never silently breaks.
//!
//! Waivers (`// pta-lint: allow(rule) — reason`) are themselves linted:
//! an unused waiver is an `unused-waiver` finding and a malformed one is
//! a `waiver-syntax` finding, so they cannot rot.
//!
//! Two invariants that clippy *can* check live in the toolchain instead:
//! typed errors in library code (`clippy::{unwrap_used, expect_used,
//! panic, unreachable, todo, unimplemented}`, run by `cargo lint-lib`)
//! and pool-only concurrency (`disallowed-methods` in `clippy.toml`).
//! Their waivers are `#[expect(clippy::<lint>, reason = "...")]`
//! attributes, which rustc reports once they suppress nothing.
//!
//! The engine is offline and dependency-free: a hand-rolled lexer
//! ([`lexer`]), a `#[cfg(test)]`/`#[test]` tracker ([`scope`]), and rule
//! passes ([`rules`]) over every `.rs` file and `Cargo.toml` of the cargo
//! workspace — directories holding a nested workspace of their own are
//! not part of it and are skipped.

pub mod json;
pub mod lexer;
pub mod rules;
pub mod scope;
pub mod waiver;

use std::fmt;
use std::path::{Path, PathBuf};

use lexer::Token;
use scope::{FnInfo, TokSpan};
use waiver::{BadWaiver, Waiver};

/// One lint finding, printable as `file:line:col rule message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column (chars).
    pub col: u32,
    /// Rule identifier (`float-eq`, ...).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{} {} {}", self.file, self.line, self.col, self.rule, self.message)
    }
}

/// One lexed and pre-analyzed `.rs` file.
#[derive(Debug)]
pub struct RsFile {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// Raw source text.
    pub text: String,
    /// The token stream.
    pub tokens: Vec<Token>,
    /// Test-only regions (`#[cfg(test)]` items, `#[test]` fns).
    pub test_spans: Vec<TokSpan>,
    /// Every `fn` item with its body extent.
    pub fns: Vec<FnInfo>,
    /// Parsed waivers.
    pub waivers: Vec<Waiver>,
    /// Malformed waivers.
    pub bad_waivers: Vec<BadWaiver>,
}

impl RsFile {
    /// Builds the per-file analysis state from a path and its source.
    pub fn parse(rel: String, text: String) -> Self {
        let tokens = lexer::lex(&text);
        let test_spans = scope::test_spans(&tokens);
        let fns = scope::functions(&tokens);
        let (waivers, bad_waivers) = waiver::waivers(&tokens);
        Self { rel, text, tokens, test_spans, fns, waivers, bad_waivers }
    }

    /// True when token index `i` lies in test-only code.
    pub fn in_test(&self, i: usize) -> bool {
        self.test_spans.iter().any(|s| s.contains(i))
    }
}

/// One `Cargo.toml` manifest, raw.
#[derive(Debug)]
pub struct ManifestFile {
    /// Workspace-relative path.
    pub rel: String,
    /// Raw TOML text.
    pub text: String,
}

/// Everything the rules need, loaded once.
#[derive(Debug)]
pub struct Workspace {
    /// The analyzed root directory.
    pub root: PathBuf,
    /// Every workspace `.rs` file (excluding `target/`, fixture dirs, and
    /// nested workspaces).
    pub files: Vec<RsFile>,
    /// Every `Cargo.toml`.
    pub manifests: Vec<ManifestFile>,
    /// `BENCH_dp.json` at the root, if present: `(rel, text)`.
    pub bench_json: Option<(String, String)>,
}

/// Directory names the walker never descends into. `fixtures` holds the
/// analyzer's own seeded-violation corpus — linting it would be a
/// self-own.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures", ".github", "data"];

/// Loads the workspace rooted at `root`: walks the tree, lexes every
/// `.rs` file, and collects manifests plus the root's `BENCH_dp.json`. A
/// subdirectory whose `Cargo.toml` declares its own `[workspace]` is a
/// separate cargo workspace and is not descended into.
pub fn load_workspace(root: &Path) -> Result<Workspace, String> {
    let mut files = Vec::new();
    let mut manifests = Vec::new();
    let mut bench_json = None;
    walk(root, root, &mut files, &mut manifests, &mut bench_json)?;
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    manifests.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(Workspace { root: root.to_path_buf(), files, manifests, bench_json })
}

fn walk(
    root: &Path,
    dir: &Path,
    files: &mut Vec<RsFile>,
    manifests: &mut Vec<ManifestFile>,
    bench_json: &mut Option<(String, String)>,
) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str())
                || name.starts_with('.')
                || is_workspace_root(&path)
            {
                continue;
            }
            walk(root, &path, files, manifests, bench_json)?;
            continue;
        }
        let rel = rel_path(root, &path);
        if name.ends_with(".rs") {
            let text = read(&path)?;
            files.push(RsFile::parse(rel, text));
        } else if name == "Cargo.toml" {
            let text = read(&path)?;
            manifests.push(ManifestFile { rel, text });
        } else if name == "BENCH_dp.json" && dir == root {
            let text = read(&path)?;
            *bench_json = Some((rel, text));
        }
    }
    Ok(())
}

/// True when `dir/Cargo.toml` declares a `[workspace]` table.
fn is_workspace_root(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|text| {
        text.lines().any(|l| {
            let l = l.trim();
            l == "[workspace]" || l.starts_with("[workspace.")
        })
    })
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))
}

fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let parts: Vec<String> =
        rel.components().map(|c| c.as_os_str().to_string_lossy().into_owned()).collect();
    parts.join("/")
}

/// Runs every rule over the workspace, applies waivers, and reports
/// unused/malformed waivers. Findings come back sorted by
/// `(file, line, col, rule)`.
pub fn analyze(ws: &Workspace) -> Vec<Finding> {
    let mut raw = Vec::new();
    rules::cancel_coverage(ws, &mut raw);
    rules::deadline_coverage(ws, &mut raw);
    rules::failpoint_registry(ws, &mut raw);
    rules::float_eq(ws, &mut raw);
    rules::manifest_discipline(ws, &mut raw);
    rules::bench_schema(ws, &mut raw);

    // Waiver pass: a finding is suppressed by a same-file waiver naming
    // its rule and targeting its line; every waiver must earn its keep.
    let mut out = Vec::new();
    let mut used = vec![Vec::new(); ws.files.len()];
    for (fi, f) in ws.files.iter().enumerate() {
        used[fi] = vec![0usize; f.waivers.len()];
    }
    for finding in raw {
        let suppressed = ws.files.iter().enumerate().find_map(|(fi, f)| {
            if f.rel != finding.file {
                return None;
            }
            f.waivers
                .iter()
                .position(|w| w.rule == finding.rule && w.target_line == finding.line)
                .map(|wi| (fi, wi))
        });
        match suppressed {
            Some((fi, wi)) => used[fi][wi] += 1,
            None => out.push(finding),
        }
    }
    for (fi, f) in ws.files.iter().enumerate() {
        for (wi, w) in f.waivers.iter().enumerate() {
            if used[fi][wi] == 0 {
                out.push(Finding {
                    file: f.rel.clone(),
                    line: w.line,
                    col: w.col,
                    rule: rules::UNUSED_WAIVER,
                    message: format!(
                        "waiver for `{}` suppresses nothing — remove it or fix the target line",
                        w.rule
                    ),
                });
            }
        }
        for b in &f.bad_waivers {
            out.push(Finding {
                file: f.rel.clone(),
                line: b.line,
                col: b.col,
                rule: rules::WAIVER_SYNTAX,
                message: b.message.clone(),
            });
        }
    }
    out.sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    out
}

/// Renders findings as the machine-readable `--format json` document.
pub fn to_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"file\": \"{}\", \"line\": {}, \"col\": {}, \"rule\": \"{}\", \
             \"message\": \"{}\"}}",
            json::escape(&f.file),
            f.line,
            f.col,
            f.rule,
            json::escape(&f.message)
        ));
    }
    if !findings.is_empty() {
        out.push('\n');
    }
    out.push_str("]\n");
    out
}
