//! Inline lint waivers.
//!
//! Syntax (one rule per waiver, reason mandatory):
//!
//! ```text
//! // pta-lint: allow(rule-name) — reason the violation is intended
//! ```
//!
//! An ASCII `-`/`--` works in place of the em dash. A waiver written on
//! its own line targets the next line that carries code; a trailing
//! waiver targets its own line. Waivers are themselves linted: one that
//! suppresses nothing is an `unused-waiver` finding, so stale waivers
//! cannot rot in place.

use crate::lexer::Token;

/// One parsed waiver comment.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// The rule this waiver suppresses.
    pub rule: String,
    /// The justification text after the dash.
    pub reason: String,
    /// 1-based line the waiver comment starts on.
    pub line: u32,
    /// 1-based column of the comment.
    pub col: u32,
    /// The 1-based source line whose findings this waiver suppresses.
    pub target_line: u32,
}

/// A malformed `pta-lint:` comment (bad syntax, missing reason) — always
/// an error, because a waiver that does not parse silently waives nothing.
#[derive(Debug, Clone)]
pub struct BadWaiver {
    /// What is wrong with it.
    pub message: String,
    /// 1-based line of the comment.
    pub line: u32,
    /// 1-based column of the comment.
    pub col: u32,
}

/// Extracts waivers from the token stream's comments.
pub fn waivers(toks: &[Token]) -> (Vec<Waiver>, Vec<BadWaiver>) {
    let mut out = Vec::new();
    let mut bad = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_comment() {
            continue;
        }
        // Waivers live in plain `//` / `/* */` comments only: doc
        // comments (`///`, `//!`, `/**`) merely *talk about* the syntax.
        if t.text.starts_with("///")
            || t.text.starts_with("//!")
            || t.text.starts_with("/**")
            || t.text.starts_with("/*!")
        {
            continue;
        }
        let Some(at) = t.text.find("pta-lint:") else { continue };
        let directive = t.text[at + "pta-lint:".len()..].trim();
        match parse_directive(directive) {
            Ok((rule, reason)) => {
                out.push(Waiver {
                    rule,
                    reason,
                    line: t.line,
                    col: t.col,
                    target_line: target_line(toks, i),
                });
            }
            Err(message) => bad.push(BadWaiver { message, line: t.line, col: t.col }),
        }
    }
    (out, bad)
}

/// Parses `allow(rule) — reason`; returns `(rule, reason)`.
fn parse_directive(s: &str) -> Result<(String, String), String> {
    let Some(rest) = s.strip_prefix("allow(") else {
        return Err(format!("expected `allow(<rule>) — <reason>`, got `{s}`"));
    };
    let Some(close) = rest.find(')') else {
        return Err("unclosed `allow(` in waiver".to_string());
    };
    let rule = rest[..close].trim();
    if rule.is_empty() || rule.contains(',') {
        return Err("waivers name exactly one rule".to_string());
    }
    let after = rest[close + 1..].trim_start();
    let reason = after
        .strip_prefix('—')
        .or_else(|| after.strip_prefix("--"))
        .or_else(|| after.strip_prefix('-'))
        .map(str::trim)
        .unwrap_or("");
    if reason.is_empty() {
        return Err(format!("waiver for `{rule}` is missing its `— <reason>`"));
    }
    Ok((rule.to_string(), reason.to_string()))
}

/// The line a waiver at token index `i` applies to: its own line when code
/// precedes it there (trailing comment), else the line of the next
/// non-comment token.
fn target_line(toks: &[Token], i: usize) -> u32 {
    let line = toks[i].line;
    let trailing = toks[..i].iter().rev().take_while(|t| t.line == line).any(|t| !t.is_comment());
    if trailing {
        return line;
    }
    toks[i + 1..].iter().find(|t| !t.is_comment()).map(|t| t.line).unwrap_or(line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn standalone_waiver_targets_next_code_line() {
        let toks = lex("let a = 1;\n// pta-lint: allow(float-eq) — exact sentinel\nlet b = a;\n");
        let (ws, bad) = waivers(&toks);
        assert!(bad.is_empty());
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].rule, "float-eq");
        assert_eq!(ws[0].target_line, 3);
    }

    #[test]
    fn trailing_waiver_targets_own_line() {
        let toks = lex("x == 0.0; // pta-lint: allow(float-eq) - sentinel compare\n");
        let (ws, bad) = waivers(&toks);
        assert!(bad.is_empty());
        assert_eq!(ws[0].target_line, 1);
    }

    #[test]
    fn missing_reason_is_rejected() {
        let toks = lex("// pta-lint: allow(float-eq)\nfn f() {}\n");
        let (ws, bad) = waivers(&toks);
        assert!(ws.is_empty());
        assert_eq!(bad.len(), 1);
    }
}
