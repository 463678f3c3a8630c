//! **R-family** — RNG-stream hygiene in sim-crate source.
//!
//! Determinism here means more than "seeded": every consumer must draw
//! from its *own* derived stream (`SimRng::fork` / `SimRng::split_seed`)
//! so that adding a flow, reordering initialization, or sharding runs
//! across `--jobs` workers never shifts anyone else's random sequence. Two
//! failure shapes have bitten before (PR 3 fixed a hand-found stream
//! collision):
//!
//! - `r1-rng-stream-collision` — the same `(receiver/base, stream id)`
//!   pair derived twice in one function: both consumers get the *same*
//!   sequence, silently correlating arrivals with sizes (or whatever
//!   the two draws feed).
//! - `r2-rng-underived-seed` — `SimRng::new(..)` fed by ad-hoc seed
//!   arithmetic (`seed ^ 0xBEEF`, literals): an unregistered stream the
//!   collision audit cannot see. Derive through `fork`/`split_seed`
//!   instead, or justify why this site *is* a derivation primitive.
//!
//! Both rules are syntactic over token sequences within one function —
//! cross-function collisions are out of reach without value tracking,
//! but the within-scope case is exactly the bug class that occurs in
//! practice (copy-pasted derivations).

use crate::lexer::TokKind;
use crate::rules::sim_crate_src;
use crate::{FileCtx, Rule};
use std::collections::BTreeMap;

pub(crate) fn rules() -> Vec<Rule> {
    vec![
        Rule {
            id: "r1-rng-stream-collision",
            summary: "same (rng, stream id) derived twice in one function of \
                      sim-crate source — both consumers draw the same sequence",
            applies: sim_crate_src,
            check: check_r1,
        },
        Rule {
            id: "r2-rng-underived-seed",
            summary: "SimRng::new over ad-hoc seed arithmetic/literals in \
                      sim-crate source — derive streams via fork/split_seed",
            applies: sim_crate_src,
            check: check_r2,
        },
    ]
}

/// Token texts of one top-level argument list, split at top-level
/// commas. `code[k]` must be the opening `(`. Returns (args, end index).
fn split_args(ctx: &FileCtx, code: &[usize], k: usize) -> (Vec<String>, usize) {
    let mut args: Vec<String> = Vec::new();
    let mut cur = String::new();
    let mut depth = 0i32;
    let mut j = k;
    while j < code.len() {
        let t = &ctx.toks[code[j]];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
            if depth > 1 {
                push_tok(&mut cur, &t.text);
            }
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                break;
            }
            push_tok(&mut cur, &t.text);
        } else if depth == 1 && t.is_punct(',') {
            args.push(std::mem::take(&mut cur));
        } else {
            push_tok(&mut cur, &t.text);
        }
        j += 1;
    }
    if !cur.is_empty() {
        args.push(cur);
    }
    (args, j)
}

fn push_tok(s: &mut String, text: &str) {
    if !s.is_empty() {
        s.push(' ');
    }
    s.push_str(text);
}

/// The receiver chain before a `.method(` call: walk back over
/// `ident`/`.` tokens (`self.rng.fork(..)` → `self . rng`).
fn receiver_chain(ctx: &FileCtx, code: &[usize], dot_k: usize) -> String {
    let mut parts: Vec<&str> = Vec::new();
    let mut j = dot_k; // index of the `.` before the method name
    loop {
        if j == 0 {
            break;
        }
        let prev = &ctx.toks[code[j - 1]];
        if prev.kind == TokKind::Ident {
            parts.push(&prev.text);
            j -= 1;
            if j == 0 || !ctx.toks[code[j - 1]].is_punct('.') {
                break;
            }
            j -= 1; // consume the `.` and continue the chain
        } else {
            break;
        }
    }
    parts.reverse();
    parts.join(" . ")
}

fn check_r1(ctx: &FileCtx) -> Vec<(u32, String)> {
    let code: Vec<usize> = ctx.code_tokens().map(|(i, _)| i).collect();
    let mut out = Vec::new();
    // (owner fn, kind, receiver/base, stream) → first line seen.
    let mut seen: BTreeMap<(usize, &'static str, String, String), u32> = BTreeMap::new();
    for (k, &i) in code.iter().enumerate() {
        let t = &ctx.toks[i];
        let is_fork = t.is_ident("fork");
        let is_split = t.is_ident("split_seed");
        if !is_fork && !is_split {
            continue;
        }
        if !code.get(k + 1).is_some_and(|&j| ctx.toks[j].is_punct('(')) {
            continue;
        }
        let Some(owner) = ctx.fns.owner.get(i).copied().flatten() else {
            continue;
        };
        let (args, _) = split_args(ctx, &code, k + 1);
        let key = if is_fork {
            if k == 0 || !ctx.toks[code[k - 1]].is_punct('.') {
                continue; // not a method call on an rng
            }
            let recv = receiver_chain(ctx, &code, k - 1);
            let Some(stream) = args.first() else { continue };
            (owner, "fork", recv, stream.clone())
        } else {
            // split_seed(base, stream) — free or `SimRng::`-qualified.
            if args.len() < 2 {
                continue;
            }
            (owner, "split_seed", args[0].clone(), args[1].clone())
        };
        match seen.get(&key) {
            None => {
                seen.insert(key, t.line);
            }
            Some(first) => {
                out.push((
                    t.line,
                    format!(
                        "stream id `{}` derived from `{}` twice in `{}` (first at \
                         line {first}) — both consumers draw the identical sequence; \
                         give each consumer its own stream id",
                        key.3, key.2, ctx.fns.names[owner]
                    ),
                ));
            }
        }
    }
    out
}

fn check_r2(ctx: &FileCtx) -> Vec<(u32, String)> {
    let code: Vec<usize> = ctx.code_tokens().map(|(i, _)| i).collect();
    let mut out = Vec::new();
    for (k, &i) in code.iter().enumerate() {
        // `SimRng :: new (`
        if !ctx.toks[i].is_ident("SimRng") {
            continue;
        }
        let is_new_call = code.get(k + 1).is_some_and(|&j| ctx.toks[j].is_punct(':'))
            && code.get(k + 2).is_some_and(|&j| ctx.toks[j].is_punct(':'))
            && code
                .get(k + 3)
                .is_some_and(|&j| ctx.toks[j].is_ident("new"))
            && code.get(k + 4).is_some_and(|&j| ctx.toks[j].is_punct('('));
        if !is_new_call {
            continue;
        }
        let (args, _) = split_args(ctx, &code, k + 4);
        let Some(arg) = args.first() else { continue };
        let toks: Vec<&str> = arg.split(' ').collect();
        let has_arith = toks.iter().any(|t| {
            matches!(
                *t,
                "^" | "+" | "-" | "*" | "/" | "%" | "|" | "&" | "<" | ">"
            )
        });
        let is_literal =
            toks.len() == 1 && toks[0].chars().next().is_some_and(|c| c.is_ascii_digit());
        if !has_arith && !is_literal {
            continue;
        }
        let what = if is_literal {
            "a literal seed"
        } else {
            "ad-hoc seed arithmetic"
        };
        out.push((
            ctx.toks[i].line,
            format!(
                "`SimRng::new` over {what} {} — this creates a stream the \
                 fork/split_seed collision audit cannot see; derive it \
                 (`rng.fork(STREAM)` / `SimRng::split_seed`) or justify with \
                 lint:allow",
                ctx.site(i)
            ),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::rules::testutil::{lines_of, scan};

    #[test]
    fn r1_flags_duplicate_fork_streams_same_receiver() {
        let src = "\
fn setup(s: &mut S) {
    let a = s.rng.fork(3);
    let b = s.rng.fork(4);
    let c = s.rng.fork(3);
    let _ = (a, b, c);
}
";
        let d = scan(src);
        assert_eq!(lines_of(&d, "r1-rng-stream-collision"), vec![4], "{d:#?}");
    }

    #[test]
    fn r1_different_receivers_or_fns_are_clean() {
        let src = "\
fn setup(s: &mut S) {
    let a = s.rng.fork(3);
    let b = s.aux.fork(3);
    let _ = (a, b);
    helper(s);
}
fn helper(s: &mut S) {
    let c = s.rng.fork(3);
    let _ = c;
}
";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn r1_flags_duplicate_split_seed_pairs() {
        let src = "\
fn setup(s: &S) {
    let a = SimRng::split_seed(s.seed, 7);
    let b = SimRng::split_seed(s.seed, 7);
    let c = SimRng::split_seed(s.seed, 8);
    let _ = (a, b, c);
}
";
        let d = scan(src);
        assert_eq!(lines_of(&d, "r1-rng-stream-collision"), vec![3], "{d:#?}");
    }

    #[test]
    fn r2_flags_xor_mixing_and_literals() {
        let src = "\
fn setup(seed: u64) {
    let a = SimRng::new(seed ^ 0x5EED);
    let b = SimRng::new(0x12ED_D00D);
    let c = SimRng::new(seed);
    let d = SimRng::new(derive(seed, 3));
    let _ = (a, b, c, d);
}
";
        let d = scan(src);
        assert_eq!(lines_of(&d, "r2-rng-underived-seed"), vec![2, 3], "{d:#?}");
    }

    #[test]
    fn r2_justified_allow_is_honoured() {
        let src = "\
fn setup(seed: u64) {
    // lint:allow(r2-rng-underived-seed): this call site is itself the
    // derivation primitive the audit trusts; streams register here.
    let a = SimRng::new(seed ^ 0x9E37_79B9);
    let _ = a;
}
";
        assert!(scan(src).is_empty());
    }
}
