//! # remy-lint — workspace determinism & safety analyzer
//!
//! Every headline number in this reproduction rests on one invariant:
//! simulations and training are **bit-identical** across `--jobs` counts,
//! scheduler backends, and spec round-trips. The runtime equivalence
//! suites check that invariant after the fact; `remy-lint` rejects the
//! *sources* of nondeterminism at commit time, as deny-by-default
//! diagnostics with `file:line` spans.
//!
//! The rule set (one module per rule or family, see [`rules`]; the
//! full list is `remy-lint --list-rules`):
//!
//! | id | rule |
//! |----|------|
//! | `d1-unordered-collections` | no `HashMap`/`HashSet` (iteration order is nondeterministic — use `BTreeMap`/`BTreeSet` or a sorted drain) |
//! | `d2-wallclock-rng` | no `Instant`/`SystemTime`/`thread_rng`/raw `rand` — all time comes from the event loop, all randomness from `SimRng::split_seed` |
//! | `d3-float-partial-sort` | no `.partial_cmp` on the result path — NaN makes `sort_by(partial_cmp)` panic or reorder; use `f64::total_cmp` |
//! | `d4-unsafe-safety-comment` | every `unsafe` must be preceded by a `// SAFETY:` comment |
//! | `d5-shared-state-sim-path` | no `Mutex`/`RwLock`/atomics — `--jobs` workers share one process, so a lock or atomic a simulation touches couples runs that must stay independent |
//! | `p1`–`p3` | no `.unwrap()`/`.expect()`, panic-family macros, or subscript arithmetic — a `--jobs` worker must fail its run cleanly, not panic the batch ([`rules::p`]) |
//! | `s3-sim-interior-mutability` | every interior-mutability cell needs a written concurrency justification ([`rules::s`]) |
//!
//! Every rule is a token-level check over one file, and every rule but
//! `d4` has the same scope, [`rules::sim_crate_src`]: non-test source of
//! the four sim crates. `d4` applies everywhere, tests included (unsafe
//! needs a SAFETY comment even in tests).
//!
//! A justified escape hatch exists per finding:
//!
//! ```text
//! // lint:allow(d2-wallclock-rng): wall-clock here bounds the training
//! // budget; it is never observable by any simulation.
//! let started = Instant::now();
//! ```
//!
//! The justification after `):` is mandatory; a bare `lint:allow` is
//! itself a diagnostic, and so is a justified one that suppresses no
//! finding. The scanner is a hand-rolled lexer ([`lexer`]) — no `syn`,
//! no crates.io.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod lexer;
pub mod rules;

use lexer::{lex, Tok, TokKind};
use std::path::Path;

/// One finding, anchored to a file and 1-based line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id (`d1-unordered-collections`, ... or `lint-allow` for a
    /// malformed allow directive).
    pub rule: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

/// Everything a rule sees about one file.
pub struct FileCtx {
    /// Workspace-relative path, `/`-separated (scoping key).
    pub path: String,
    /// Token stream of the file.
    pub toks: Vec<Tok>,
    /// `test_mask[i]` is true when `toks[i]` sits inside a
    /// `#[cfg(test)]` item (or the whole file is test code).
    pub test_mask: Vec<bool>,
}

impl FileCtx {
    /// Lex and scan `text` as the file at workspace-relative `path`.
    pub fn new(path: &str, text: &str) -> FileCtx {
        let toks = lex(text);
        FileCtx {
            path: path.to_string(),
            test_mask: test_region_mask(&toks, path),
            toks,
        }
    }

    /// Code tokens (not comments) outside test regions, with indices.
    pub fn code_tokens(&self) -> impl Iterator<Item = (usize, &Tok)> {
        self.toks
            .iter()
            .enumerate()
            .filter(|(i, t)| !self.test_mask[*i] && t.kind != TokKind::Comment)
    }
}

/// A lint rule: a path scope and a check over one file's tokens.
pub struct Rule {
    /// Stable id, used in reports and `lint:allow(<id>)`.
    pub id: &'static str,
    /// One-line summary for `--list-rules` and docs.
    pub summary: &'static str,
    /// Path-scoping predicate over workspace-relative paths.
    pub applies: fn(&str) -> bool,
    /// The check itself: (line, message) findings.
    pub check: fn(&FileCtx) -> Vec<(u32, String)>,
}

/// Scan one file's text as if it lived at workspace-relative `rel_path`.
/// Every rule reads one file at a time, so this is the whole engine:
/// the binary, `scan_workspace` and the fixture tests all come here.
///
/// Diagnostics are filtered through justified `lint:allow` directives
/// and sorted by `(line, rule)`. An allow naming a rule id that no
/// longer exists is itself a diagnostic (stale-allow detection), and so
/// is one whose rule applies to the file but finds nothing to suppress.
pub fn scan_source(rel_path: &str, text: &str) -> Vec<Diagnostic> {
    let ctx = FileCtx::new(rel_path, text);
    let rules = rules::all();
    let allows = parse_allows(&ctx.toks);
    let mut out: Vec<Diagnostic> = Vec::new();
    let mut push = |rule: &'static str, line: u32, message: String| {
        out.push(Diagnostic {
            rule,
            file: ctx.path.clone(),
            line,
            message,
        })
    };

    let applicable: Vec<&Rule> = rules.iter().filter(|r| (r.applies)(&ctx.path)).collect();
    let mut used = vec![false; allows.len()];
    for rule in &applicable {
        for (line, message) in (rule.check)(&ctx) {
            let mut allowed = false;
            for (a, hit) in allows.iter().zip(used.iter_mut()) {
                if a.justified && a.rule == rule.id && a.covers.contains(&line) {
                    *hit = true;
                    allowed = true;
                }
            }
            if !allowed {
                push(rule.id, line, message);
            }
        }
    }

    // Allow directives are diagnostics in their own right: an unjustified
    // suppression is exactly what the gate must not accept, and a stale
    // one (naming a rule id that no longer exists) or a dead one (its rule
    // looks at this file but finds nothing on the lines it covers) hides
    // a comment that suppresses nothing.
    for (a, used) in allows.iter().zip(used) {
        let problem = if !a.justified {
            format!(
                "lint:allow({0}) without a justification — write \
                 `// lint:allow({0}): <why this is sound>`",
                a.rule
            )
        } else if !rules.iter().any(|r| r.id == a.rule) {
            format!(
                "stale lint:allow({}): no such rule — remove the \
                 directive or update the rule id (see --list-rules)",
                a.rule
            )
        } else if !used && applicable.iter().any(|r| r.id == a.rule) {
            format!(
                "lint:allow({}) suppresses no finding — remove the directive",
                a.rule
            )
        } else {
            continue;
        };
        push("lint-allow", a.line, problem);
    }
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// Read every workspace `.rs` file as `(workspace-relative path, text)`,
/// sorted by path.
///
/// Skips `target/`, `.git/`, and `fixtures/` directories (the seeded-bad
/// lint fixtures must not fail the gate for the tree that tests them).
pub fn read_workspace_files(root: &Path) -> Result<Vec<(String, String)>, String> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut out = Vec::new();
    for rel in files {
        let text =
            std::fs::read_to_string(root.join(&rel)).map_err(|e| format!("reading {rel}: {e}"))?;
        out.push((rel, text));
    }
    Ok(out)
}

/// Walk the workspace at `root` and scan every Rust source file.
/// Diagnostics come back sorted by `(file, line, rule)` so output is
/// deterministic.
pub fn scan_workspace(root: &Path) -> Result<Vec<Diagnostic>, String> {
    Ok(read_workspace_files(root)?
        .iter()
        .flat_map(|(path, text)| scan_source(path, text))
        .collect())
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("walking {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if matches!(
                name.as_str(),
                "target" | ".git" | "fixtures" | "node_modules"
            ) {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| format!("relativizing {}: {e}", path.display()))?
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
    Ok(())
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render diagnostics for humans, one `file:line: [rule] message` per
/// finding plus a summary line.
pub fn render_human(diags: &[Diagnostic]) -> String {
    let mut s = String::new();
    for d in diags {
        s.push_str(&format!(
            "{}:{}: [{}] {}\n",
            d.file, d.line, d.rule, d.message
        ));
    }
    if diags.is_empty() {
        s.push_str("remy-lint: clean\n");
    } else {
        s.push_str(&format!("remy-lint: {} diagnostic(s)\n", diags.len()));
    }
    s
}

// ---------------------------------------------------------------------------
// Allow inventory (--allow-report)
// ---------------------------------------------------------------------------

/// One `lint:allow` directive found in the tree, for the
/// `--allow-report` inventory: the reviewable list of every panic site,
/// wall-clock read and piece of shared state the tree has signed off on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllowEntry {
    /// The rule id the directive names.
    pub rule: String,
    /// Workspace-relative path of the file holding the directive.
    pub file: String,
    /// 1-based line of the directive comment.
    pub line: u32,
    /// The justification text (directive line + continuation comments).
    pub justification: String,
    /// False for a bare/malformed directive (which the gate rejects).
    pub justified: bool,
    /// False when the rule id no longer exists (stale allow).
    pub known_rule: bool,
}

/// Inventory every `lint:allow` directive in the given files, sorted by
/// `(file, line)`.
pub fn collect_allows(inputs: &[(String, String)]) -> Vec<AllowEntry> {
    let rules = rules::all();
    let mut out: Vec<AllowEntry> = Vec::new();
    for (path, text) in inputs {
        for a in parse_allows(&lex(text)) {
            out.push(AllowEntry {
                known_rule: rules.iter().any(|r| r.id == a.rule),
                rule: a.rule,
                file: path.clone(),
                line: a.line,
                justification: a.justification,
                justified: a.justified,
            });
        }
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

/// Inventory every `lint:allow` in the workspace at `root`.
pub fn allow_report(root: &Path) -> Result<Vec<AllowEntry>, String> {
    Ok(collect_allows(&read_workspace_files(root)?))
}

/// The `--allow-report --json` document: `count` plus an `allows` array
/// with `rule`, `file`, `line`, `justified`, `known_rule`, and
/// `justification` per entry.
pub fn allow_report_json(entries: &[AllowEntry]) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"count\": {},\n", entries.len()));
    s.push_str("  \"allows\": [");
    for (i, a) in entries.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \
             \"justified\": {}, \"known_rule\": {}, \"justification\": \"{}\"}}",
            json_escape(&a.rule),
            json_escape(&a.file),
            a.line,
            a.justified,
            a.known_rule,
            json_escape(&a.justification)
        ));
    }
    if !entries.is_empty() {
        s.push('\n');
        s.push_str("  ");
    }
    s.push_str("]\n}\n");
    s
}

/// Human rendering of the allow inventory, one
/// `file:line: [rule] justification` per entry plus a summary line.
pub fn render_allow_report(entries: &[AllowEntry]) -> String {
    let mut s = String::new();
    for a in entries {
        let mark = if !a.justified {
            " (UNJUSTIFIED)"
        } else if !a.known_rule {
            " (STALE RULE ID)"
        } else {
            ""
        };
        s.push_str(&format!(
            "{}:{}: [{}]{} {}\n",
            a.file, a.line, a.rule, mark, a.justification
        ));
    }
    s.push_str(&format!(
        "remy-lint: {} allow directive(s)\n",
        entries.len()
    ));
    s
}

// ---------------------------------------------------------------------------
// Test-region detection
// ---------------------------------------------------------------------------

/// Paths whose whole content is test/bench/example code: every rule but
/// `d4-unsafe-safety-comment` skips these.
pub fn is_test_path(rel_path: &str) -> bool {
    rel_path
        .split('/')
        .any(|seg| matches!(seg, "tests" | "benches" | "examples"))
}

/// Mark tokens inside `#[cfg(test)]` items. Handles the conventional
/// shapes: `#[cfg(test)] mod tests { ... }`, possibly with further
/// attributes between the cfg and the item, and `#[cfg(test)]` on
/// brace-less items (skips to the `;`).
pub fn test_region_mask(toks: &[Tok], rel_path: &str) -> Vec<bool> {
    let mut mask = vec![is_test_path(rel_path); toks.len()];
    if mask.first().copied().unwrap_or(false) {
        return mask; // whole file is test code
    }
    let code: Vec<usize> = toks
        .iter()
        .enumerate()
        .filter(|(_, t)| t.kind != TokKind::Comment)
        .map(|(i, _)| i)
        .collect();
    let mut k = 0usize;
    while k < code.len() {
        if is_cfg_test_attr(toks, &code, k) {
            // Skip the attr itself, then any further attrs, then mark the
            // following item.
            let mut j = skip_attr(toks, &code, k);
            while j < code.len() && toks[code[j]].is_punct('#') {
                j = skip_attr(toks, &code, j);
            }
            // Find the item's opening `{` (or terminating `;`).
            let mut depth = 0i32;
            let item_start = j;
            while j < code.len() {
                let t = &toks[code[j]];
                if depth == 0 && t.is_punct(';') {
                    j += 1;
                    break;
                }
                if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
                    depth -= 1;
                    if depth == 0 && toks[code[j]].is_punct('}') {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
            for &ti in &code[item_start..j.min(code.len())] {
                mask[ti] = true;
            }
            // Mask the attribute tokens too.
            for &ti in &code[k..item_start.min(code.len())] {
                mask[ti] = true;
            }
            k = j;
        } else {
            k += 1;
        }
    }
    mask
}

/// Is `code[k]` the `#` of a `#[cfg(PRED)]` whose item exists only in
/// test builds? `cfg(not(test))` and `cfg(any(test, …))` items are live
/// code and stay in scope.
fn is_cfg_test_attr(toks: &[Tok], code: &[usize], k: usize) -> bool {
    if !toks[code[k]].is_punct('#') {
        return false;
    }
    let attr: Vec<&Tok> = code[k + 1..skip_attr(toks, code, k)]
        .iter()
        .map(|&ti| &toks[ti])
        .collect();
    let body = match attr.as_slice() {
        [bang, rest @ ..] if bang.is_punct('!') => rest,
        rest => rest,
    };
    matches!(body, [l, pred @ .., r]
        if l.is_punct('[') && r.is_punct(']')
            && pred.first().is_some_and(|t| t.is_ident("cfg"))
            && requires_test(pred))
}

/// Does the cfg predicate `pred` hold only when `test` does: `test`
/// itself, or `all(…)` with such a predicate among its arguments? The
/// attribute's own `cfg(…)` is read as an `all` of one.
fn requires_test(pred: &[&Tok]) -> bool {
    match pred {
        [t] => t.is_ident("test"),
        [f, l, args @ .., r]
            if (f.is_ident("all") || f.is_ident("cfg")) && l.is_punct('(') && r.is_punct(')') =>
        {
            let mut depth = 0i32;
            args.split(|t| {
                if t.is_punct('(') {
                    depth += 1;
                } else if t.is_punct(')') {
                    depth -= 1;
                }
                depth == 0 && t.is_punct(',')
            })
            .any(requires_test)
        }
        _ => false,
    }
}

/// Given `code[k]` at a `#`, return the code-index just past the
/// attribute's closing `]`.
fn skip_attr(toks: &[Tok], code: &[usize], k: usize) -> usize {
    let mut j = k + 1;
    // Optional inner-attr `!`.
    if j < code.len() && toks[code[j]].is_punct('!') {
        j += 1;
    }
    if j >= code.len() || !toks[code[j]].is_punct('[') {
        return k + 1;
    }
    let mut depth = 0i32;
    while j < code.len() {
        let t = &toks[code[j]];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    code.len()
}

// ---------------------------------------------------------------------------
// lint:allow directives
// ---------------------------------------------------------------------------

struct Allow {
    rule: String,
    line: u32,
    /// Lines this directive suppresses: its own line (trailing-comment
    /// form) and the first code line after the comment block it opens.
    covers: Vec<u32>,
    justified: bool,
    /// The justification text: everything after `):` on the directive
    /// line, plus immediately following comment lines up to the next
    /// code token (the multi-line justification form).
    justification: String,
}

/// Extract `lint:allow(<rule>): <justification>` directives from
/// comments. A directive suppresses matching diagnostics on its own line
/// (trailing-comment form) or on the first code line following its
/// comment block — the justification may continue across further comment
/// lines in between. What is mandatory is non-empty text (≥ 8 chars)
/// after the `):` on the directive line itself.
fn parse_allows(toks: &[Tok]) -> Vec<Allow> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Comment {
            continue;
        }
        // A directive must *start* the comment's content (after the
        // `//`/`//!`/`///` marker); backticked mid-sentence mentions in
        // prose are not directives.
        let content = t.text.trim_start_matches(['/', '!', '*', ' ', '\t']);
        let Some(rest) = content.strip_prefix("lint:allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            out.push(Allow {
                rule: String::from("?"),
                line: t.line,
                covers: Vec::new(),
                justified: false,
                justification: String::new(),
            });
            continue;
        };
        let rule = rest[..close].trim().to_string();
        let after = &rest[close + 1..];
        let justified = after
            .strip_prefix(':')
            .map(|j| j.trim().len() >= 8)
            .unwrap_or(false);
        let mut justification = after
            .strip_prefix(':')
            .map(|j| j.trim().to_string())
            .unwrap_or_default();
        let mut covers = vec![t.line];
        // Continuation comment lines extend the justification; the first
        // code token after the block is the guarded line.
        for n in &toks[i + 1..] {
            if n.kind == TokKind::Comment {
                let cont = n.text.trim_start_matches(['/', '!', '*', ' ', '\t']).trim();
                if !cont.is_empty() && !cont.starts_with("lint:allow(") {
                    if !justification.is_empty() {
                        justification.push(' ');
                    }
                    justification.push_str(cont);
                }
            } else {
                covers.push(n.line);
                break;
            }
        }
        out.push(Allow {
            rule,
            line: t.line,
            covers,
            justified,
            justification,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_path_detection() {
        assert!(is_test_path("crates/netsim/tests/props.rs"));
        assert!(is_test_path("tests/lint_gate.rs"));
        assert!(is_test_path("examples/quickstart.rs"));
        assert!(is_test_path("crates/netsim/benches/queues.rs"));
        assert!(!is_test_path("crates/netsim/src/sim.rs"));
    }

    #[test]
    fn cfg_test_mod_is_masked() {
        let src = "\
use std::collections::HashMap;
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    #[test]
    fn t() { let _ = HashMap::<u32, u32>::new(); }
}
";
        let d = scan_source("crates/netsim/src/x.rs", src);
        // Only the non-test use on line 1 fires.
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 1);
        assert_eq!(d[0].rule, "d1-unordered-collections");
    }

    #[test]
    fn cfg_test_fn_without_braces_in_signature_is_masked() {
        let src = "\
#[cfg(test)]
fn helper() -> std::collections::HashMap<u32, u32> {
    std::collections::HashMap::new()
}
fn live() {}
";
        let d = scan_source("crates/netsim/src/x.rs", src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn allow_with_justification_suppresses_next_line() {
        let src = "\
// lint:allow(d1-unordered-collections): keys are drained in sorted order
use std::collections::HashMap;
";
        assert!(scan_source("crates/netsim/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_trailing_comment_suppresses_same_line() {
        let src = "use std::collections::HashMap; // lint:allow(d1-unordered-collections): lookup-only memo table\n";
        assert!(scan_source("crates/netsim/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_justification_may_span_multiple_comment_lines() {
        let src = "\
// lint:allow(d1-unordered-collections): this map is lookup-only; the
// iteration order is never observed by anything downstream.
use std::collections::HashMap;
";
        assert!(scan_source("crates/netsim/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_without_justification_is_a_diagnostic() {
        let src = "\
// lint:allow(d1-unordered-collections)
use std::collections::HashMap;
";
        let d = scan_source("crates/netsim/src/x.rs", src);
        assert!(d.iter().any(|d| d.rule == "lint-allow"), "{d:?}");
        assert!(
            d.iter().any(|d| d.rule == "d1-unordered-collections"),
            "an unjustified allow must not suppress: {d:?}"
        );
    }

    #[test]
    fn allow_for_a_different_rule_does_not_suppress() {
        let src = "\
// lint:allow(d2-wallclock-rng): wrong rule named here on purpose
use std::collections::HashMap;
";
        let d = scan_source("crates/netsim/src/x.rs", src);
        assert!(d.iter().any(|d| d.rule == "d1-unordered-collections"));
        // ...and the d2 allow, covering no d2 finding, is itself reported.
        assert_eq!(
            d.iter()
                .filter(|d| d.rule == "lint-allow")
                .map(|d| d.line)
                .collect::<Vec<_>>(),
            vec![1],
            "{d:?}"
        );
    }

    #[test]
    fn allow_that_suppresses_nothing_is_a_diagnostic() {
        // p1 looks at this file, but the line below the allow has no
        // `.unwrap()`, and the allowed `.expect()` sits in test code p1
        // never reads.
        let src = "\
// lint:allow(p1-sim-unwrap): the queue is never empty here.
fn live(q: &Q) -> u32 { q.len() }
#[cfg(test)]
mod tests {
    fn t() {
        // lint:allow(p1-sim-unwrap): test body.
        let _ = maybe().expect(\"x\");
    }
}
";
        let d = scan_source("crates/netsim/src/x.rs", src);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().all(|d| d.rule == "lint-allow"), "{d:?}");
        assert_eq!((d[0].line, d[1].line), (1, 6));
        assert!(d[0].message.contains("suppresses no finding"), "{d:?}");
        // Where the named rule does not apply, the directive is not judged.
        assert!(scan_source("crates/lint/src/x.rs", src).is_empty());
    }

    #[test]
    fn only_cfgs_that_require_test_are_masked() {
        let src = "\
#[cfg(not(test))]
fn a() { x.unwrap(); }
#[cfg(any(test, feature = \"strict-invariants\"))]
fn b() { x.unwrap(); }
fn c() { x.unwrap(); }
#[cfg(all(test, feature = \"strict-invariants\"))]
fn d() { x.unwrap(); }
#[cfg(all(feature = \"f\", all(unix, test)))]
fn e() { x.unwrap(); }
#[cfg_attr(test, allow(dead_code))]
fn f() { x.unwrap(); }
";
        let d = scan_source("crates/netsim/src/x.rs", src);
        let lines: Vec<u32> = d.iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![2, 4, 5, 11], "{d:?}");
    }

    #[test]
    fn json_document_shape() {
        let entries = vec![AllowEntry {
            rule: "p1-sim-unwrap".into(),
            file: "crates/x.rs".into(),
            line: 3,
            justification: "say \"no\"".into(),
            justified: true,
            known_rule: true,
        }];
        let j = allow_report_json(&entries);
        assert!(j.contains("\"count\": 1"));
        assert!(j.contains("\\\"no\\\""));
        assert!(j.contains("\"line\": 3"));
        assert!(j.contains("\"known_rule\": true"));
        let empty = allow_report_json(&[]);
        assert!(empty.contains("\"count\": 0"));
        assert!(empty.contains("\"allows\": []"));
    }

    #[test]
    fn out_of_scope_paths_are_clean() {
        let src = "use std::collections::HashMap;\n";
        assert!(scan_source("benchmark/src/runner.rs", src).is_empty());
    }
}
