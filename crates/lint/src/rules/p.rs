//! **P-family** — panic-safety in sim-crate source.
//!
//! Simulations run on `--jobs` worker threads inside one process,
//! many per experiment or training step; a panic in one of them takes the
//! whole batch down instead of failing that run cleanly.
//! These rules flag the panic *sources* anywhere in non-test source of
//! the sim crates ([`crate::rules::sim_crate_src`]):
//!
//! - `p1-sim-unwrap` — `.unwrap()` / `.expect(..)`,
//! - `p2-sim-panic` — `panic!` / `unreachable!` / `todo!` /
//!   `unimplemented!` macro invocations,
//! - `p3-sim-index-arith` — indexing whose subscript performs `+ - * / %`
//!   arithmetic (`buf[i - 1]`, `q[head + n]`): the off-by-one panic
//!   class. Plain handle indexing (`arena[id]`, generational-checked) is
//!   deliberately *not* flagged — panicking on a stale handle is the
//!   arena discipline, backstopped at runtime by the strict-invariants
//!   and overflow-checks CI lanes.
//!
//! `assert!`/`debug_assert!` stay legal everywhere: construction-time
//! validation and the cfg-gated strict-invariants checks are how
//! invariants are *supposed* to be written.
//!
//! The fix ladder, in order of preference: restructure so the invariant
//! holds by type; `let .. else` + `debug_assert!` + skip (the FlowTable
//! "tolerate stale handles" discipline); a justified `lint:allow` where
//! a panic genuinely is the right response to a corrupted simulation.

use crate::lexer::TokKind;
use crate::rules::sim_crate_src;
use crate::{FileCtx, Rule};

pub(crate) fn rules() -> Vec<Rule> {
    vec![
        Rule {
            id: "p1-sim-unwrap",
            summary: "`.unwrap()`/`.expect()` in sim-crate source — a `--jobs` \
                      worker panics instead of failing the run cleanly",
            applies: sim_crate_src,
            check: check_p1,
        },
        Rule {
            id: "p2-sim-panic",
            summary: "`panic!`/`unreachable!`/`todo!`/`unimplemented!` in \
                      sim-crate source",
            applies: sim_crate_src,
            check: check_p2,
        },
        Rule {
            id: "p3-sim-index-arith",
            summary: "indexing with arithmetic in the subscript in sim-crate \
                      source — the off-by-one panic class; use checked math or `.get`",
            applies: sim_crate_src,
            check: check_p3,
        },
    ]
}

fn check_p1(ctx: &FileCtx) -> Vec<(u32, String)> {
    let code: Vec<usize> = ctx.code_tokens().map(|(i, _)| i).collect();
    let mut out = Vec::new();
    for (k, &i) in code.iter().enumerate() {
        let t = &ctx.toks[i];
        if !(t.is_ident("unwrap") || t.is_ident("expect")) {
            continue;
        }
        let is_method_call = k >= 1
            && ctx.toks[code[k - 1]].is_punct('.')
            && code.get(k + 1).is_some_and(|&j| ctx.toks[j].is_punct('('));
        if !is_method_call {
            continue;
        }
        out.push((
            t.line,
            format!(
                "`.{}()` — a `--jobs` worker must not panic; convert to a \
                 typed error or `debug_assert!`+skip, or justify with lint:allow",
                t.text
            ),
        ));
    }
    out
}

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

fn check_p2(ctx: &FileCtx) -> Vec<(u32, String)> {
    let code: Vec<usize> = ctx.code_tokens().map(|(i, _)| i).collect();
    let mut out = Vec::new();
    for (k, &i) in code.iter().enumerate() {
        let t = &ctx.toks[i];
        if !PANIC_MACROS.iter().any(|m| t.is_ident(m)) {
            continue;
        }
        if !code.get(k + 1).is_some_and(|&j| ctx.toks[j].is_punct('!')) {
            continue;
        }
        out.push((
            t.line,
            format!(
                "`{}!` — a `--jobs` worker must not panic; return an error, \
                 skip the event, or justify with lint:allow",
                t.text
            ),
        ));
    }
    out
}

fn check_p3(ctx: &FileCtx) -> Vec<(u32, String)> {
    let code: Vec<usize> = ctx.code_tokens().map(|(i, _)| i).collect();
    let mut out = Vec::new();
    for (k, &i) in code.iter().enumerate() {
        let t = &ctx.toks[i];
        if !t.is_punct('[') {
            continue;
        }
        // Only *index expressions*: `expr[..]` — the token before the
        // bracket closes or names a value. `#[attr]`, array literals,
        // `vec![..]`, and type positions don't match.
        let is_index = k >= 1 && {
            let p = &ctx.toks[code[k - 1]];
            p.kind == TokKind::Ident && !p.is_ident("mut") && !p.is_ident("return")
                || p.is_punct(']')
                || p.is_punct(')')
        };
        if !is_index {
            continue;
        }
        // Scan the balanced subscript for a binary arithmetic operator.
        let mut depth = 0i32;
        let mut j = k;
        let mut arith: Option<String> = None;
        while j < code.len() {
            let s = &ctx.toks[code[j]];
            if s.is_punct('[') || s.is_punct('(') {
                depth += 1;
            } else if s.is_punct(']') || s.is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if arith.is_none()
                && matches!(s.text.as_str(), "+" | "-" | "*" | "/" | "%")
                && s.kind == TokKind::Punct
                && j > k + 1
            {
                // Binary position only: preceded by a value-ish token
                // (`a[*p]` deref and `a[-…]`-style unary don't count).
                let p = &ctx.toks[code[j - 1]];
                if p.kind == TokKind::Ident
                    || p.kind == TokKind::Num
                    || p.is_punct(')')
                    || p.is_punct(']')
                {
                    arith = Some(s.text.clone());
                }
            }
            j += 1;
        }
        if let Some(op) = arith {
            out.push((
                t.line,
                format!(
                    "subscript arithmetic (`{op}`) in an index expression — \
                     off-by-one here panics a `--jobs` worker; use checked \
                     arithmetic + `.get(..)` or justify with lint:allow"
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::rules::testutil::{lines_of, scan};

    #[test]
    fn p1_fires_in_every_fn_however_it_is_called() {
        // `runner` is held only by a fn pointer in a `static` — how the
        // experiment registry holds its `run_*` entries.
        let src = "\
fn step(q: &mut Q) { let x = q.pop().unwrap(); }
fn runner() { let y = maybe().expect(\"no caller names me\"); }
static RUNNER: fn() = runner;
";
        let d = scan(src);
        assert_eq!(lines_of(&d, "p1-sim-unwrap"), vec![1, 2], "{d:#?}");
    }

    #[test]
    fn p1_ignores_unwrap_or_family_and_bare_idents() {
        let src = "\
fn step(q: &mut Q) {
    let a = q.pop().unwrap_or(0);
    let b = q.pop().unwrap_or_else(|| 0);
    let unwrap = 3;
    let _ = (a, b, unwrap);
}
";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn p2_fires_on_panic_macros_not_asserts() {
        let src = "\
fn step(s: &S) {
    assert!(s.ok());
    debug_assert!(s.ok());
    if s.bad() { panic!(\"corrupt\"); }
    match s.kind { 0 => {} _ => unreachable!() }
}
";
        let d = scan(src);
        assert_eq!(lines_of(&d, "p2-sim-panic"), vec![4, 5], "{d:#?}");
    }

    #[test]
    fn p3_fires_on_subscript_arithmetic_only() {
        let src = "\
fn step(s: &S) {
    let a = s.buf[s.head];
    let b = s.buf[s.head - 1];
    let c = s.ring[(s.head + n) % len];
    let d = s.arena[*idx];
    let e = [0u8; 4];
    let f = &s.buf[..n];
    let _ = (a, b, c, d, e, f);
}
";
        let d = scan(src);
        assert_eq!(lines_of(&d, "p3-sim-index-arith"), vec![3, 4], "{d:#?}");
    }

    #[test]
    fn justified_allow_suppresses_p_rules() {
        let src = "\
fn step(q: &mut Q) {
    // lint:allow(p1-sim-unwrap): validated at construction; absence here
    // is a corrupted-simulation invariant violation, panic is correct.
    let x = q.pop().unwrap();
    let _ = x;
}
";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn test_code_and_other_crates_are_clean() {
        let src = "fn helper() { let x = maybe().unwrap(); panic!(\"x\"); }";
        assert!(crate::scan_source("crates/netsim/tests/props.rs", src).is_empty());
        assert!(crate::scan_source("crates/lint/src/lexer.rs", src).is_empty());
        let masked = format!("#[cfg(test)]\nmod tests {{ {src} }}\n");
        assert!(scan(&masked).is_empty());
    }
}
