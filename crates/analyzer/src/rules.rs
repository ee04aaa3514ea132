//! The project-specific lint rules.
//!
//! Each rule is a free function `fn(ws, &mut Vec<Finding>)` pushing *raw*
//! findings; the engine in [`crate::analyze`] applies waivers afterwards,
//! so rules stay oblivious to suppression. Rule identifiers are the
//! public contract (they appear in waivers and in `--format json`).

use crate::json::{self, Value};
use crate::lexer::{TokKind, Token};
use crate::scope::FnInfo;
use crate::{Finding, RsFile, Workspace};

/// Rule id: row/merge loops in `dp/`/`greedy/` must poll cancellation.
pub const CANCEL_COVERAGE: &str = "cancel-coverage";
/// Rule id: request-handler fns in the serve tier must reference the
/// request deadline machinery.
pub const DEADLINE_COVERAGE: &str = "deadline-coverage";
/// Rule id: failpoint site names must live in `FAILPOINT_SITES` and be
/// exercised by the fault-injection suite.
pub const FAILPOINT_REGISTRY: &str = "failpoint-registry";
/// Rule id: float `==`/`!=` in `pta-core` kernels needs a waiver.
pub const FLOAT_EQ: &str = "float-eq";
/// Rule id: manifests inherit workspace lints; shim deps go through
/// `[workspace.dependencies]`.
pub const MANIFEST_DISCIPLINE: &str = "manifest-discipline";
/// Rule id: `BENCH_dp.json` records carry the required keys and types.
pub const BENCH_SCHEMA: &str = "bench-schema";
/// Meta-rule id: a waiver that suppresses nothing.
pub const UNUSED_WAIVER: &str = "unused-waiver";
/// Meta-rule id: a `pta-lint:` comment that does not parse.
pub const WAIVER_SYNTAX: &str = "waiver-syntax";

/// `(id, summary)` for every rule, for `--list-rules` and the README.
pub const ALL_RULES: &[(&str, &str)] = &[
    (CANCEL_COVERAGE, "row/merge loops in core dp//greedy/ that never reference the CancelToken"),
    (DEADLINE_COVERAGE, "request-handler fns in crates/serve that never reference the deadline/budget/cancel machinery"),
    (FAILPOINT_REGISTRY, "fail_point! sites must appear exactly once in FAILPOINT_SITES and in tests/fault_injection.rs"),
    (FLOAT_EQ, "== or != with a float operand in pta-core kernels (waiver required)"),
    (MANIFEST_DISCIPLINE, "member crates inherit [workspace.lints]; shim deps only via workspace inheritance"),
    (BENCH_SCHEMA, "BENCH_dp.json records: algorithm/n/c/mode/strategy/threads/wall_ms/cells/eps/certified_ratio, typed"),
    (UNUSED_WAIVER, "a pta-lint waiver that suppresses no finding"),
    (WAIVER_SYNTAX, "a pta-lint comment that does not parse or lacks a reason"),
];

fn push(
    out: &mut Vec<Finding>,
    file: &RsFile,
    line: u32,
    col: u32,
    rule: &'static str,
    message: String,
) {
    out.push(Finding { file: file.rel.clone(), line, col, rule, message });
}

/// **cancel-coverage** — `PtaQuery::deadline` only works if every long
/// loop polls the token. A function in `dp/` or `greedy/` that loops over
/// rows or merges without any cancellation reference is a hole in that
/// guarantee: either it polls, its caller demonstrably polls per
/// iteration (waive it, saying so), or deadlines silently stop covering
/// that path.
pub fn cancel_coverage(ws: &Workspace, out: &mut Vec<Finding>) {
    const ROW_MERGE: &[&str] = &["row", "rows", "merge", "merges", "merged", "merging"];
    for file in &ws.files {
        let in_scope = file.rel.starts_with("crates/core/src/dp/")
            || file.rel.starts_with("crates/core/src/greedy/");
        if !in_scope {
            continue;
        }
        for f in &file.fns {
            if file.in_test(f.fn_idx) || f.body.start == f.body.end {
                continue;
            }
            let body = &file.tokens[f.body.start..f.body.end];
            let has_loop = body.iter().any(|t| {
                t.kind == TokKind::Ident && matches!(t.text.as_str(), "for" | "while" | "loop")
            });
            if !has_loop {
                continue;
            }
            let row_merge = fn_mentions(f, body, |seg| ROW_MERGE.contains(&seg));
            if !row_merge {
                continue;
            }
            let span = &file.tokens[f.span.start..f.span.end];
            let cancelled = span.iter().any(|t| {
                t.kind == TokKind::Ident && {
                    let lower = t.text.to_lowercase();
                    lower.contains("cancel") || lower.contains("deadline")
                }
            });
            if !cancelled {
                push(
                    out,
                    file,
                    f.line,
                    f.col,
                    CANCEL_COVERAGE,
                    format!(
                        "fn `{}` loops over rows/merges but never references the cancel token — \
                     poll `cancel.check()?` (or waive, naming the caller that polls)",
                        f.name
                    ),
                );
            }
        }
    }
}

/// **deadline-coverage** — the serve tier's headline promise is that
/// every request runs under a budget: queue wait is charged, computation
/// is cancelled, expired requests shed with typed errors. A
/// request-handler function in `crates/serve` that never touches the
/// deadline machinery is a path where that promise silently lapses —
/// either it threads the token through, its caller demonstrably enforces
/// the budget around it (waive it, saying so), or requests on that path
/// run unbounded. Handlers are recognized by name (`handle*`/`dispatch*`
/// segments) among functions that take request inputs; `&self`-only
/// accessors (e.g. a `handle()` that returns a server handle) are not
/// handlers.
pub fn deadline_coverage(ws: &Workspace, out: &mut Vec<Finding>) {
    const HANDLER: &[&str] = &["handle", "handler", "handlers", "dispatch"];
    const EVIDENCE: &[&str] = &["cancel", "deadline", "budget"];
    for file in &ws.files {
        if !file.rel.starts_with("crates/serve/src/") {
            continue;
        }
        for f in &file.fns {
            if file.in_test(f.fn_idx) || f.body.start == f.body.end {
                continue;
            }
            let named_handler = f.name.to_lowercase().split('_').any(|seg| HANDLER.contains(&seg));
            if !named_handler || !takes_non_self_args(&file.tokens, f) {
                continue;
            }
            let span = &file.tokens[f.span.start..f.span.end];
            let covered = span.iter().any(|t| {
                t.kind == TokKind::Ident && {
                    let lower = t.text.to_lowercase();
                    EVIDENCE.iter().any(|e| lower.contains(e))
                }
            });
            if !covered {
                push(
                    out,
                    file,
                    f.line,
                    f.col,
                    DEADLINE_COVERAGE,
                    format!(
                        "request-handler fn `{}` never references the request deadline — thread \
                         the budget through (`CancelToken`, `remaining_budget`) or waive, naming \
                         the caller that enforces it",
                        f.name
                    ),
                );
            }
        }
    }
}

/// True when the fn's parameter list names anything beyond `self` — the
/// discriminator between a request handler (takes request inputs) and an
/// accessor.
fn takes_non_self_args(toks: &[Token], f: &FnInfo) -> bool {
    let sig = &toks[f.span.start..f.body.start.min(f.span.end)];
    let Some(open) = sig.iter().position(|t| t.kind == TokKind::Punct && t.text == "(") else {
        return false;
    };
    let mut depth = 0usize;
    for t in &sig[open..] {
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "(") => depth += 1,
            (TokKind::Punct, ")") => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            (TokKind::Ident, name) if name != "self" && name != "mut" => return true,
            _ => {}
        }
    }
    false
}

/// True when the fn's name or any body identifier has a `_`-separated
/// segment matching `pred`.
fn fn_mentions(f: &FnInfo, body: &[Token], pred: impl Fn(&str) -> bool) -> bool {
    let ident_hits = |s: &str| {
        let lower = s.to_lowercase();
        lower.split('_').any(&pred)
    };
    ident_hits(&f.name) || body.iter().any(|t| t.kind == TokKind::Ident && ident_hits(&t.text))
}

/// **failpoint-registry** — fault sites are an API surface shared by
/// code, the injection suite, and the docs; the `FAILPOINT_SITES` const
/// in the failpoints shim is the single source of truth. Every
/// `fail_point!` name must appear exactly once there, every registry
/// entry must correspond to a live site, and every entry must be
/// exercised by `tests/fault_injection.rs`. Dynamic site families
/// (`format!("prefix.{}", ...)`) register as `prefix.*`.
pub fn failpoint_registry(ws: &Workspace, out: &mut Vec<Finding>) {
    // 1. The registry: string literals after `FAILPOINT_SITES`, up to `;`.
    let mut registry: Vec<(String, u32, u32)> = Vec::new();
    let mut registry_file: Option<&RsFile> = None;
    for file in &ws.files {
        let Some(at) = file
            .tokens
            .iter()
            .position(|t| t.kind == TokKind::Ident && t.text == "FAILPOINT_SITES")
        else {
            continue;
        };
        if registry_file.is_some() {
            continue; // first definition wins; re-exports just mention the name
        }
        registry_file = Some(file);
        for t in &file.tokens[at..] {
            if t.kind == TokKind::Punct && t.text == ";" {
                break;
            }
            if matches!(t.kind, TokKind::StrLit | TokKind::RawStrLit) {
                registry.push((t.str_content().to_string(), t.line, t.col));
            }
        }
    }
    let Some(reg_file) = registry_file else {
        if let Some(file) = ws.files.iter().find(|f| f.rel.contains("shims/failpoints/")) {
            push(
                out,
                file,
                1,
                1,
                FAILPOINT_REGISTRY,
                "no `FAILPOINT_SITES` registry found — declare the const listing every \
                 fail_point! site name"
                    .to_string(),
            );
        }
        return;
    };
    // Registry self-checks: duplicates.
    for (i, (name, line, col)) in registry.iter().enumerate() {
        if registry[..i].iter().any(|(n, _, _)| n == name) {
            push(
                out,
                reg_file,
                *line,
                *col,
                FAILPOINT_REGISTRY,
                format!("duplicate FAILPOINT_SITES entry `{name}`"),
            );
        }
    }

    // 2. The sites: every fail_point!(...) invocation outside tests.
    let mut used = vec![false; registry.len()];
    for file in &ws.files {
        for (i, t) in file.tokens.iter().enumerate() {
            if !(t.kind == TokKind::Ident && t.text == "fail_point") || file.in_test(i) {
                continue;
            }
            let Some((bang_i, bang)) = next_code_idx(&file.tokens, i) else { continue };
            if !(bang.kind == TokKind::Punct && bang.text == "!") {
                continue;
            }
            let Some((open_i, open)) = next_code_idx(&file.tokens, bang_i) else { continue };
            if !(open.kind == TokKind::Punct && open.text == "(") {
                continue;
            }
            let Some((_, arg)) = next_code_idx(&file.tokens, open_i) else { continue };
            let site = match arg.kind {
                TokKind::StrLit | TokKind::RawStrLit => arg.str_content().to_string(),
                TokKind::Ident if arg.text == "format" => {
                    match first_str_after(&file.tokens, open_i) {
                        Some(fmt) => match fmt.split('{').next() {
                            Some(prefix) if !prefix.is_empty() => format!("{prefix}*"),
                            _ => {
                                push(
                                    out,
                                    file,
                                    t.line,
                                    t.col,
                                    FAILPOINT_REGISTRY,
                                    "fail_point! with a fully dynamic name cannot be \
                                     registry-checked — use a literal prefix"
                                        .to_string(),
                                );
                                continue;
                            }
                        },
                        None => continue,
                    }
                }
                _ => {
                    push(
                        out,
                        file,
                        t.line,
                        t.col,
                        FAILPOINT_REGISTRY,
                        "fail_point! site name must be a string literal or a \
                         format! with a literal prefix"
                            .to_string(),
                    );
                    continue;
                }
            };
            let hits: Vec<usize> = registry
                .iter()
                .enumerate()
                .filter(|(_, (n, _, _))| *n == site)
                .map(|(k, _)| k)
                .collect();
            match hits.len() {
                0 => push(
                    out,
                    file,
                    t.line,
                    t.col,
                    FAILPOINT_REGISTRY,
                    format!(
                        "fail_point! site `{site}` is not in FAILPOINT_SITES — register it in \
                     {} and exercise it in tests/fault_injection.rs",
                        reg_file.rel
                    ),
                ),
                _ => hits.iter().for_each(|&k| used[k] = true),
            }
        }
    }

    // 3. Dead registry entries + injection-suite coverage.
    let fault_suite = ws.files.iter().find(|f| f.rel == "tests/fault_injection.rs");
    for (k, (name, line, col)) in registry.iter().enumerate() {
        if !used[k] {
            push(
                out,
                reg_file,
                *line,
                *col,
                FAILPOINT_REGISTRY,
                format!(
                    "FAILPOINT_SITES entry `{name}` matches no fail_point! site in the workspace"
                ),
            );
        }
        let probe = name.trim_end_matches('*');
        match fault_suite {
            Some(suite) if suite.text.contains(probe) => {}
            Some(_) => push(
                out,
                reg_file,
                *line,
                *col,
                FAILPOINT_REGISTRY,
                format!("failpoint site `{name}` is never exercised by tests/fault_injection.rs"),
            ),
            None => push(
                out,
                reg_file,
                *line,
                *col,
                FAILPOINT_REGISTRY,
                "tests/fault_injection.rs not found — failpoint sites have no \
                 injection coverage"
                    .to_string(),
            ),
        }
    }
}

/// The first string literal after token index `i` (used to pull the
/// `format!` template out of a dynamic fail_point! name).
fn first_str_after(toks: &[Token], i: usize) -> Option<&str> {
    toks[i + 1..]
        .iter()
        .take(8)
        .find(|t| matches!(t.kind, TokKind::StrLit | TokKind::RawStrLit))
        .map(|t| t.str_content())
}

/// **float-eq** — bitwise float equality in the SSE kernels is almost
/// always a bug (NaN never equals itself; catastrophic cancellation makes
/// "equal" runs diverge). Where it *is* intended — exact-sentinel
/// comparisons, tie-break parity — the inline waiver states why.
pub fn float_eq(ws: &Workspace, out: &mut Vec<Finding>) {
    for file in &ws.files {
        if !file.rel.starts_with("crates/core/src/") {
            continue;
        }
        for (i, t) in file.tokens.iter().enumerate() {
            if !(t.kind == TokKind::Punct && (t.text == "==" || t.text == "!=")) {
                continue;
            }
            if file.in_test(i) {
                continue;
            }
            if operand_is_floaty(&file.tokens, i, true) || operand_is_floaty(&file.tokens, i, false)
            {
                push(
                    out,
                    file,
                    t.line,
                    t.col,
                    FLOAT_EQ,
                    format!(
                        "`{}` with a float operand in a pta-core kernel — compare against an \
                     epsilon or waive with `// pta-lint: allow({FLOAT_EQ}) — <why>`",
                        t.text
                    ),
                );
            }
        }
    }
}

/// Scans one side of a comparison (left when `back`, else right) up to an
/// expression boundary, looking for float evidence: a float literal or an
/// `f64`/`f32` ident.
fn operand_is_floaty(toks: &[Token], op: usize, back: bool) -> bool {
    const BOUNDARY: &[&str] = &[
        ",", ";", "{", "}", "(", ")", "[", "]", "&&", "||", "=", "=>", "==", "!=", "<", ">", "<=",
        ">=",
    ];
    let mut step = 0usize;
    let mut i = op;
    loop {
        let next = if back { i.checked_sub(1) } else { Some(i + 1) };
        let Some(j) = next.filter(|&j| j < toks.len()) else { return false };
        i = j;
        let t = &toks[i];
        if t.is_comment() {
            continue;
        }
        step += 1;
        if step > 8 || (t.kind == TokKind::Punct && BOUNDARY.contains(&t.text.as_str())) {
            return false;
        }
        if t.kind == TokKind::NumLit && t.is_float {
            return true;
        }
        if t.kind == TokKind::Ident && (t.text == "f64" || t.text == "f32") {
            return true;
        }
    }
}

/// **manifest-discipline** — one lint wall for the whole workspace:
/// every `[package]` manifest inherits `[workspace.lints]`, and shim
/// crates are only ever named through `[workspace.dependencies]` (a
/// direct `path = ".../shims/..."` in a member would fork the
/// single-point-of-replacement story recorded in the ROADMAP).
pub fn manifest_discipline(ws: &Workspace, out: &mut Vec<Finding>) {
    for m in &ws.manifests {
        let is_workspace_root = section_lines(&m.text, "workspace").is_some();
        let is_shim = m.rel.starts_with("crates/shims/");
        let has_package = section_lines(&m.text, "package").is_some();
        if has_package {
            let inherits = section_lines(&m.text, "lints")
                .is_some_and(|lines| lines.iter().any(|(_, l)| key_is_true(l, "workspace")));
            if !inherits {
                out.push(Finding {
                    file: m.rel.clone(),
                    line: 1,
                    col: 1,
                    rule: MANIFEST_DISCIPLINE,
                    message: "crate does not inherit workspace lints — add \
                              `[lints]\\nworkspace = true`"
                        .to_string(),
                });
            }
        }
        for (lineno, line) in m.text.lines().enumerate() {
            let code = line.split('#').next().unwrap_or("");
            if !code.contains("path") || !code.contains("shims/") {
                continue;
            }
            let allowed =
                is_shim || (is_workspace_root && in_workspace_dependencies(&m.text, lineno));
            if !allowed {
                out.push(Finding {
                    file: m.rel.clone(),
                    line: (lineno + 1) as u32,
                    col: 1,
                    rule: MANIFEST_DISCIPLINE,
                    message: "direct path dependency on a shim crate — use \
                              `<name>.workspace = true` so the shim swap stays one edit"
                        .to_string(),
                });
            }
        }
    }
}

/// The lines of TOML section `[name]` (or `[name.sub]` prefix matches for
/// `workspace`), as `(line_index, text)`; `None` when the section is
/// absent.
fn section_lines<'a>(text: &'a str, name: &str) -> Option<Vec<(usize, &'a str)>> {
    let mut current: Option<Vec<(usize, &'a str)>> = None;
    let mut found = false;
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.starts_with('[') {
            if let Some(cur) = current.take() {
                out.extend(cur);
            }
            let header = trimmed.trim_start_matches('[').trim_end_matches(']');
            let matches_name = header == name || header.starts_with(&format!("{name}."));
            if matches_name {
                found = true;
                current = Some(Vec::new());
            }
            continue;
        }
        if let Some(cur) = current.as_mut() {
            cur.push((i, line));
        }
    }
    if let Some(cur) = current.take() {
        out.extend(cur);
    }
    found.then_some(out)
}

fn key_is_true(line: &str, key: &str) -> bool {
    let code = line.split('#').next().unwrap_or("");
    let mut parts = code.splitn(2, '=');
    let k = parts.next().unwrap_or("").trim();
    let v = parts.next().unwrap_or("").trim();
    k == key && v == "true"
}

/// True when line index `lineno` falls inside `[workspace.dependencies]`.
fn in_workspace_dependencies(text: &str, lineno: usize) -> bool {
    let mut in_section = false;
    for (i, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.starts_with('[') {
            in_section = trimmed == "[workspace.dependencies]";
        }
        if i == lineno {
            return in_section;
        }
    }
    false
}

/// **bench-schema** — `BENCH_dp.json` is the machine-readable perf
/// trajectory consumed by tooling outside this repo; a silently renamed
/// or retyped key breaks that consumer long after the PR lands. Each
/// record must carry `algorithm`/`mode`/`strategy` (strings),
/// `n`/`c`/`threads`/`cells` (integers), `wall_ms` (number), `eps`
/// (`null` for exact runs, else a finite number in `[0, 1]`), and
/// `certified_ratio` (a finite number `≥ 1` — the *a posteriori*
/// approximation certificate; exact runs report `1.0`).
pub fn bench_schema(ws: &Workspace, out: &mut Vec<Finding>) {
    let Some((rel, text)) = &ws.bench_json else { return };
    let mut report = |line: u32, message: String| {
        out.push(Finding { file: rel.clone(), line, col: 1, rule: BENCH_SCHEMA, message });
    };
    let doc = match json::parse(text) {
        Ok(doc) => doc,
        Err((line, msg)) => {
            report(line, format!("BENCH_dp.json does not parse: {msg}"));
            return;
        }
    };
    let Value::Arr(_, records) = &doc else {
        report(doc.line(), "BENCH_dp.json must be a JSON array of records".to_string());
        return;
    };
    const STR_KEYS: &[&str] = &["algorithm", "mode", "strategy"];
    const INT_KEYS: &[&str] = &["n", "c", "threads", "cells"];
    for (idx, rec) in records.iter().enumerate() {
        let Value::Obj(line, _) = rec else {
            report(rec.line(), format!("record {idx} is not an object"));
            continue;
        };
        for key in STR_KEYS {
            match rec.get(key) {
                Some(Value::Str(_, _)) => {}
                Some(v) => report(v.line(), format!("record {idx}: key `{key}` must be a string")),
                None => report(*line, format!("record {idx}: missing required key `{key}`")),
            }
        }
        for key in INT_KEYS {
            match rec.get(key) {
                Some(Value::Num(_, v)) if v.fract() == 0.0 && *v >= 0.0 => {}
                Some(v) => report(
                    v.line(),
                    format!("record {idx}: key `{key}` must be a non-negative integer"),
                ),
                None => report(*line, format!("record {idx}: missing required key `{key}`")),
            }
        }
        match rec.get("wall_ms") {
            Some(Value::Num(_, v)) if v.is_finite() && *v >= 0.0 => {}
            Some(v) => report(v.line(), format!("record {idx}: key `wall_ms` must be a number")),
            None => report(*line, format!("record {idx}: missing required key `wall_ms`")),
        }
        // The approximation columns: `eps` is `null` on exact runs and a
        // finite value in [0, 1] on approx runs; `certified_ratio` is the
        // delivered certificate — finite and ≥ 1 on every record.
        match rec.get("eps") {
            Some(Value::Null(_)) => {}
            Some(Value::Num(_, v)) if v.is_finite() && (0.0..=1.0).contains(v) => {}
            Some(v) => report(
                v.line(),
                format!("record {idx}: key `eps` must be null or a finite number in [0, 1]"),
            ),
            None => report(*line, format!("record {idx}: missing required key `eps`")),
        }
        match rec.get("certified_ratio") {
            Some(Value::Num(_, v)) if v.is_finite() && *v >= 1.0 => {}
            Some(v) => report(
                v.line(),
                format!("record {idx}: key `certified_ratio` must be a finite number >= 1"),
            ),
            None => report(*line, format!("record {idx}: missing required key `certified_ratio`")),
        }
    }
}

/// The next non-comment token strictly after index `i`, with its index.
fn next_code_idx(toks: &[Token], i: usize) -> Option<(usize, &Token)> {
    toks[i + 1..].iter().enumerate().find(|(_, t)| !t.is_comment()).map(|(k, t)| (i + 1 + k, t))
}
