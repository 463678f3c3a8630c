//! A lightweight *item* scan over the lexer's token stream: which `fn`
//! encloses each token.
//!
//! Two things read it. `r1-rng-stream-collision` groups stream
//! derivations by function ("the same stream id twice in one
//! function"), and the P/R/S messages name the function a finding sits
//! in. So for every `.rs` file this module recovers the bare names of
//! the functions that have bodies (free functions, methods, trait
//! default methods) and an owner map assigning every body token to its
//! *innermost* enclosing function — nested `fn`s own their tokens,
//! closures belong to the function holding them.
//!
//! In the spirit of the workspace's zero-dependency constraint this is
//! not `syn`: no expression grammar, no types, no `impl` headers — just
//! `fn` keywords and brace nesting. `macro_rules!` bodies are skipped
//! wholesale (fragment pseudo-syntax would desynchronize the brace
//! tracking).

use crate::lexer::{Tok, TokKind};

/// Scan result for one file: the function names plus a token→function
/// owner map.
pub struct FileFns {
    /// Bare name of every function with a body, in source order.
    pub names: Vec<String>,
    /// `owner[i]` is the index (into `names`) of the innermost function
    /// whose body contains token `i`, if any.
    pub owner: Vec<Option<usize>>,
}

impl FileFns {
    /// Bare name of the function whose body holds token `ti`, if any.
    pub fn owner_name(&self, ti: usize) -> Option<&str> {
        let fi = self.owner.get(ti).copied().flatten()?;
        Some(&self.names[fi])
    }
}

/// What an open brace belongs to, on the nesting stack.
enum Scope {
    /// A function body: the owner index that was active outside it.
    FnBody(Option<usize>),
    /// Any other brace group (impl bodies, blocks, match arms…).
    Other,
}

/// Scan one file's token stream for its functions.
pub fn parse_file(toks: &[Tok]) -> FileFns {
    let code: Vec<usize> = toks
        .iter()
        .enumerate()
        .filter(|(_, t)| t.kind != TokKind::Comment)
        .map(|(i, _)| i)
        .collect();
    let mut names: Vec<String> = Vec::new();
    let mut owner: Vec<Option<usize>> = vec![None; toks.len()];
    let mut stack: Vec<Scope> = Vec::new();
    let mut cur_owner: Option<usize> = None;

    let mut k = 0usize;
    while k < code.len() {
        let t = &toks[code[k]];
        owner[code[k]] = cur_owner;
        if t.is_ident("macro_rules") {
            // `macro_rules! name { ... }` — skip the whole definition;
            // its fragment syntax is not Rust code.
            k = skip_macro_rules(toks, &code, k);
            continue;
        }
        if t.is_ident("fn") {
            let name_k = k + 1;
            let Some(name_tok) = code.get(name_k).map(|&i| &toks[i]) else {
                k += 1;
                continue;
            };
            if name_tok.kind != TokKind::Ident {
                k += 1; // `fn` inside a type position (`Fn`-like), skip
                continue;
            }
            // Scan the signature for the body `{` (or a `;` for a trait
            // method declaration / extern fn) at group depth 0.
            let mut j = name_k + 1;
            let mut depth = 0i32;
            let mut open = None;
            while j < code.len() {
                let s = &toks[code[j]];
                if s.is_punct('(') || s.is_punct('[') {
                    depth += 1;
                } else if s.is_punct(')') || s.is_punct(']') {
                    depth -= 1;
                } else if depth == 0 && s.is_punct('{') {
                    open = Some(j);
                    break;
                } else if depth == 0 && s.is_punct(';') {
                    break;
                }
                j += 1;
            }
            match open {
                // Declaration without body: no tokens to own.
                None => k = j + 1,
                Some(open) => {
                    names.push(name_tok.text.clone());
                    stack.push(Scope::FnBody(cur_owner));
                    cur_owner = Some(names.len() - 1);
                    owner[code[open]] = cur_owner;
                    k = open + 1;
                }
            }
            continue;
        }
        if t.is_punct('{') {
            stack.push(Scope::Other);
        } else if t.is_punct('}') {
            if let Some(Scope::FnBody(prev)) = stack.pop() {
                cur_owner = prev;
            }
        }
        k += 1;
    }
    FileFns { names, owner }
}

/// From `code[k]` (the `macro_rules` ident), advance to just past the
/// end of the definition's balanced `{`…`}` group.
fn skip_macro_rules(toks: &[Tok], code: &[usize], k: usize) -> usize {
    let mut j = k;
    let mut depth = 0i32;
    let mut entered = false;
    while j < code.len() {
        let t = &toks[code[j]];
        if t.is_punct('{') {
            depth += 1;
            entered = true;
        } else if t.is_punct('}') {
            depth -= 1;
            if entered && depth == 0 {
                return j + 1;
            }
        } else if !entered && t.is_punct(';') {
            return j + 1; // `macro_rules`-like item without a brace group
        }
        j += 1;
    }
    code.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn names(src: &str) -> Vec<String> {
        parse_file(&lex(src)).names
    }

    #[test]
    fn free_fns_and_methods() {
        let src = "\
fn free() {}
impl Foo {
    pub fn method(&self) -> u32 { 1 }
    fn helper() {}
}
impl<'a, Q> From<&'a Q> for Holder<Q> {
    fn from(q: &'a Q) -> Self { Holder(q.clone()) }
}
";
        assert_eq!(names(src), vec!["free", "method", "helper", "from"]);
    }

    #[test]
    fn trait_default_methods_and_bodyless_declarations() {
        let src = "\
trait Queue {
    fn enqueue(&mut self, x: u32);
    fn enqueue_all(&mut self, xs: &[u32]) {
        for &x in xs { self.enqueue(x); }
    }
}
";
        assert_eq!(names(src), vec!["enqueue_all"]);
    }

    #[test]
    fn nested_fns_own_their_tokens() {
        let src = "\
fn outer() {
    let a = before();
    fn inner() { let b = within(); }
    let c = after();
}
static AT_ITEM_LEVEL: u32 = outside();
";
        let toks = lex(src);
        let fns = parse_file(&toks);
        assert_eq!(fns.names, vec!["outer", "inner"]);
        let owner_of = |name: &str| {
            let i = toks.iter().position(|t| t.is_ident(name)).unwrap();
            fns.owner_name(i)
        };
        assert_eq!(owner_of("before"), Some("outer"));
        assert_eq!(owner_of("within"), Some("inner"));
        assert_eq!(owner_of("after"), Some("outer"));
        assert_eq!(owner_of("outside"), None);
    }

    #[test]
    fn closures_belong_to_the_enclosing_fn() {
        let src = "fn f() { let g = |x: u32| helper(x); g(1); }";
        let toks = lex(src);
        let fns = parse_file(&toks);
        let i = toks.iter().position(|t| t.is_ident("helper")).unwrap();
        assert_eq!(fns.owner[i], Some(0));
    }

    #[test]
    fn macro_rules_bodies_are_skipped() {
        let src = "\
macro_rules! make {
    ($n:ident) => { fn $n() {} };
}
fn real() {}
";
        assert_eq!(names(src), vec!["real"]);
    }

    #[test]
    fn signatures_with_complex_return_types() {
        let src = "\
fn factory() -> Box<dyn Fn(u64) -> Box<dyn CongestionControl>> {
    Box::new(|k| build(k))
}
fn next_one() {}
";
        assert_eq!(names(src), vec!["factory", "next_one"]);
    }

    #[test]
    fn malformed_source_never_panics() {
        for src in [
            "fn broken(",
            "impl Foo {",
            "fn x() { {",
            "impl",
            "fn",
            "trait T { fn a(); ",
        ] {
            let _ = names(src);
        }
    }
}
