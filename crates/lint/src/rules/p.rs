//! **P-family** — panic-safety in sim-reachable code.
//!
//! Simulations run on rayon `--jobs` worker threads inside one process,
//! many per experiment or training step; a panic in one of them takes the
//! whole batch down instead of failing that run cleanly.
//! These rules flag the panic *sources* in any function reachable from
//! the simulation entry points ([`crate::callgraph::ROOTS`]):
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
use crate::rules::prs_scope;
use crate::{Analysis, GraphRule};

pub(crate) fn rules() -> Vec<GraphRule> {
    vec![
        GraphRule {
            id: "p1-sim-unwrap",
            summary: "`.unwrap()`/`.expect()` in a sim-reachable function — a `--jobs` \
                      worker panics instead of failing the run cleanly",
            applies: prs_scope,
            check: check_p1,
        },
        GraphRule {
            id: "p2-sim-panic",
            summary: "`panic!`/`unreachable!`/`todo!`/`unimplemented!` in a \
                      sim-reachable function",
            applies: prs_scope,
            check: check_p2,
        },
        GraphRule {
            id: "p3-sim-index-arith",
            summary: "indexing with arithmetic in the subscript in a sim-reachable \
                      function — the off-by-one panic class; use checked math or `.get`",
            applies: prs_scope,
            check: check_p3,
        },
    ]
}

fn check_p1(an: &Analysis, fi: usize) -> Vec<(u32, String)> {
    let ctx = &an.files[fi];
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
        if !is_method_call || !an.token_in_reachable_fn(fi, i) {
            continue;
        }
        let owner = an
            .owner_def(fi, i)
            .map(|d| d.qual_name())
            .unwrap_or_default();
        out.push((
            t.line,
            format!(
                "`.{}()` in `{}`, which is reachable from the simulation \
                 entry points — convert to a typed error or `debug_assert!`+skip, \
                 or justify with lint:allow",
                t.text, owner
            ),
        ));
    }
    out
}

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

fn check_p2(an: &Analysis, fi: usize) -> Vec<(u32, String)> {
    let ctx = &an.files[fi];
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
        if !an.token_in_reachable_fn(fi, i) {
            continue;
        }
        let owner = an
            .owner_def(fi, i)
            .map(|d| d.qual_name())
            .unwrap_or_default();
        out.push((
            t.line,
            format!(
                "`{}!` in sim-reachable `{}` — a `--jobs` worker must not panic; \
                 return an error, skip the event, or justify with lint:allow",
                t.text, owner
            ),
        ));
    }
    out
}

fn check_p3(an: &Analysis, fi: usize) -> Vec<(u32, String)> {
    let ctx = &an.files[fi];
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
        if !is_index || !an.token_in_reachable_fn(fi, i) {
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
            let owner = an
                .owner_def(fi, i)
                .map(|d| d.qual_name())
                .unwrap_or_default();
            out.push((
                t.line,
                format!(
                    "subscript arithmetic (`{op}`) in an index expression in \
                     sim-reachable `{owner}` — off-by-one here panics a `--jobs` \
                     worker; use checked arithmetic + `.get(..)` or justify \
                     with lint:allow",
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
    fn p1_fires_only_in_reachable_fns() {
        let src = "\
impl Simulator {
    pub fn run(self) { self.step(); }
    fn step(&self) { let x = self.q.pop().unwrap(); }
}
fn dead() { let y = maybe().expect(\"fine, unreachable\"); }
";
        let d = scan(src);
        assert_eq!(lines_of(&d, "p1-sim-unwrap"), vec![3], "{d:#?}");
    }

    #[test]
    fn p1_ignores_unwrap_or_family_and_bare_idents() {
        let src = "\
impl Simulator {
    pub fn run(self) {
        let a = self.q.pop().unwrap_or(0);
        let b = self.q.pop().unwrap_or_else(|| 0);
        let unwrap = 3;
        let _ = (a, b, unwrap);
    }
}
";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn p2_fires_on_panic_macros_not_asserts() {
        let src = "\
impl Simulator {
    pub fn run(self) {
        assert!(self.ok());
        debug_assert!(self.ok());
        if self.bad() { panic!(\"corrupt\"); }
        match self.kind { 0 => {} _ => unreachable!() }
    }
}
";
        let d = scan(src);
        assert_eq!(lines_of(&d, "p2-sim-panic"), vec![5, 6], "{d:#?}");
    }

    #[test]
    fn p3_fires_on_subscript_arithmetic_only() {
        let src = "\
impl Simulator {
    pub fn run(self) {
        let a = self.buf[self.head];
        let b = self.buf[self.head - 1];
        let c = self.ring[(self.head + n) % len];
        let d = self.arena[*idx];
        let e = [0u8; 4];
        let f = &self.buf[..n];
        let _ = (a, b, c, d, e, f);
    }
}
";
        let d = scan(src);
        assert_eq!(lines_of(&d, "p3-sim-index-arith"), vec![4, 5], "{d:#?}");
    }

    #[test]
    fn justified_allow_suppresses_p_rules() {
        let src = "\
impl Simulator {
    pub fn run(self) {
        // lint:allow(p1-sim-unwrap): validated at construction; absence here
        // is a corrupted-simulation invariant violation, panic is correct.
        let x = self.q.pop().unwrap();
        let _ = x;
    }
}
";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn unreachable_file_is_clean() {
        let src = "fn helper() { let x = maybe().unwrap(); panic!(\"x\"); }";
        assert!(scan(src).is_empty());
    }
}
