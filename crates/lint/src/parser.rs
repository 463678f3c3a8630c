//! A lightweight recursive-descent *item* parser over the lexer's token
//! stream.
//!
//! `remy-lint` v1 scoped its rules by file path; the P/R/S rule families
//! scope by *reachability from the simulation entry points*, which needs
//! to know where functions are defined and what their bodies span. This
//! module recovers exactly that — no more: for every `.rs` file it
//! produces a symbol table of [`FnDef`]s (free functions, inherent and
//! trait-impl methods, trait default methods), each with
//!
//! - its name and, for methods, the self type recovered from the
//!   enclosing `impl`/`trait` header (`impl<T> Foo<T>` → `Foo`,
//!   `impl Display for Bar` → `Bar`),
//! - the token range of its body, and
//! - an owner map assigning every body token to its *innermost*
//!   enclosing function (nested `fn`s own their tokens, closures belong
//!   to the function holding them).
//!
//! In the spirit of the workspace's zero-dependency constraint this is
//! not `syn`: no expression grammar, no types, no generics resolution —
//! just enough item structure for an over-approximate call graph
//! ([`crate::callgraph`]). `macro_rules!` bodies are skipped wholesale
//! (fragment pseudo-syntax would desynchronize the brace tracking).

use crate::lexer::{Tok, TokKind};

/// One function definition recovered from a file's token stream.
#[derive(Clone, Debug)]
pub struct FnDef {
    /// Self type for inherent/trait-impl methods and trait default
    /// methods (`impl Foo` / `impl Trait for Foo` / `trait Foo`); `None`
    /// for free functions.
    pub self_ty: Option<String>,
    /// The function's bare name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token-index range (half-open, into the file's token stream) of
    /// the body, *including* the delimiting braces.
    pub body: (usize, usize),
    /// True when the definition sits inside a `#[cfg(test)]` region or a
    /// whole-file test path (per the file's test mask).
    pub is_test: bool,
}

impl FnDef {
    /// `Type::name` for methods, `name` for free functions.
    pub fn qual_name(&self) -> String {
        match &self.self_ty {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Parse result for one file: the definitions plus a token→definition
/// owner map.
pub struct FileSymbols {
    /// All function definitions, in source order.
    pub defs: Vec<FnDef>,
    /// `owner[i]` is the index (into `defs`) of the innermost function
    /// whose body contains token `i`, if any.
    pub owner: Vec<Option<usize>>,
}

/// What an open brace belongs to, on the nesting stack.
enum Scope {
    /// An `impl`/`trait` body with the recovered self type.
    TypeBody(Option<String>),
    /// A function body: index into `defs`, plus the owner index that was
    /// active outside it.
    FnBody(usize, Option<usize>),
    /// Any other brace group (blocks, match arms, struct literals…).
    Other,
}

/// Parse one file's token stream into its function symbol table.
///
/// `test_mask` is the per-token `#[cfg(test)]` mask produced by
/// [`crate::test_region_mask`]; definitions inherit it so the call graph
/// can ignore test-only code.
pub fn parse_file(toks: &[Tok], test_mask: &[bool]) -> FileSymbols {
    let code: Vec<usize> = toks
        .iter()
        .enumerate()
        .filter(|(_, t)| t.kind != TokKind::Comment)
        .map(|(i, _)| i)
        .collect();
    let mut defs: Vec<FnDef> = Vec::new();
    let mut owner: Vec<Option<usize>> = vec![None; toks.len()];
    let mut stack: Vec<Scope> = Vec::new();
    // The impl/trait self type and fn-body owner currently in effect.
    let mut cur_ty: Option<String> = None;
    let mut cur_owner: Option<usize> = None;

    let mut k = 0usize;
    while k < code.len() {
        let t = &toks[code[k]];
        if let Some(o) = cur_owner {
            owner[code[k]] = Some(o);
        }
        if t.is_ident("macro_rules") {
            // `macro_rules! name { ... }` — skip the whole definition;
            // its fragment syntax is not Rust code.
            k = skip_to_group_end(toks, &code, k, '{', '}');
            continue;
        }
        if t.is_ident("impl") || t.is_ident("trait") {
            let is_impl = t.is_ident("impl");
            let (ty, body_open) = parse_type_header(toks, &code, k, is_impl);
            match body_open {
                // `impl Foo;`-like or unterminated: nothing to enter.
                None => k += 1,
                Some(open) => {
                    stack.push(Scope::TypeBody(cur_ty.clone()));
                    cur_ty = ty;
                    k = open + 1;
                }
            }
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
                None => {
                    // Declaration without body: record nothing (no body
                    // tokens to analyze; calls resolve to the impls).
                    k = j + 1;
                }
                Some(open) => {
                    let def = FnDef {
                        self_ty: cur_ty.clone(),
                        name: name_tok.text.clone(),
                        line: t.line,
                        body: (code[open], code[open]), // end patched at pop
                        is_test: test_mask.get(code[k]).copied().unwrap_or(false),
                    };
                    defs.push(def);
                    let idx = defs.len() - 1;
                    stack.push(Scope::FnBody(idx, cur_owner));
                    cur_owner = Some(idx);
                    owner[code[open]] = Some(idx);
                    k = open + 1;
                }
            }
            continue;
        }
        if t.is_punct('{') {
            stack.push(Scope::Other);
            k += 1;
            continue;
        }
        if t.is_punct('}') {
            match stack.pop() {
                Some(Scope::TypeBody(prev)) => cur_ty = prev,
                Some(Scope::FnBody(idx, prev)) => {
                    defs[idx].body.1 = code[k] + 1;
                    owner[code[k]] = Some(idx);
                    cur_owner = prev;
                }
                Some(Scope::Other) | None => {}
            }
            k += 1;
            continue;
        }
        k += 1;
    }
    // Unterminated bodies (malformed source): close them at EOF.
    for s in stack {
        if let Scope::FnBody(idx, _) = s {
            defs[idx].body.1 = toks.len();
        }
    }
    FileSymbols { defs, owner }
}

/// Parse an `impl`/`trait` header starting at `code[k]` (the keyword).
/// Returns the recovered self-type name and the code index of the body's
/// opening `{`, if any.
///
/// The self type is the last path identifier at angle-depth 0 of the
/// header segment — after `for` when present (`impl Trait for Type`),
/// otherwise after the keyword and its generic parameters. `&`, `dyn`,
/// `mut` and path prefixes (`crate::x::Type`) fall out naturally:
/// the *last* identifier of the segment is the type name.
fn parse_type_header(
    toks: &[Tok],
    code: &[usize],
    k: usize,
    is_impl: bool,
) -> (Option<String>, Option<usize>) {
    let mut angle = 0i32;
    let mut j = k + 1;
    let mut last_ident: Option<String> = None;
    let mut after_for: Option<String> = None;
    while j < code.len() {
        let t = &toks[code[j]];
        if angle == 0 && t.is_punct('{') {
            let ty = after_for.or(last_ident);
            return (ty, Some(j));
        }
        if angle == 0 && t.is_punct(';') {
            return (None, None);
        }
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle = (angle - 1).max(0); // `->` in assoc-fn bounds etc.
        } else if angle == 0 && t.kind == TokKind::Ident {
            if is_impl && t.text == "for" {
                // The target type follows; reset collection.
                last_ident = None;
                after_for = None;
            } else if t.text != "dyn" && t.text != "mut" && t.text != "where" {
                last_ident = Some(t.text.clone());
                if is_impl {
                    after_for = last_ident.clone();
                }
            }
        }
        j += 1;
    }
    (None, None)
}

/// From `code[k]`, advance to just past the end of the next balanced
/// `open`…`close` group (used to skip `macro_rules!` bodies).
fn skip_to_group_end(toks: &[Tok], code: &[usize], k: usize, open: char, close: char) -> usize {
    let mut j = k;
    let mut depth = 0i32;
    let mut entered = false;
    while j < code.len() {
        let t = &toks[code[j]];
        if t.is_punct(open) {
            depth += 1;
            entered = true;
        } else if t.is_punct(close) {
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

    fn parse(src: &str) -> FileSymbols {
        let toks = lex(src);
        let mask = vec![false; toks.len()];
        parse_file(&toks, &mask)
    }

    fn quals(sym: &FileSymbols) -> Vec<String> {
        sym.defs.iter().map(|d| d.qual_name()).collect()
    }

    #[test]
    fn free_fns_and_methods() {
        let src = "\
fn free() {}
impl Foo {
    pub fn method(&self) -> u32 { 1 }
    fn helper() {}
}
impl Display for Bar {
    fn fmt(&self) {}
}
";
        let sym = parse(src);
        assert_eq!(
            quals(&sym),
            vec!["free", "Foo::method", "Foo::helper", "Bar::fmt"]
        );
    }

    #[test]
    fn generic_impl_headers_resolve_the_target_type() {
        let src = "\
impl<T: Clone> Wrapper<T> {
    fn get(&self) -> &T { &self.0 }
}
impl<'a, Q> From<&'a Q> for Holder<Q> {
    fn from(q: &'a Q) -> Self { Holder(q.clone()) }
}
impl crate::deep::path::Thing {
    fn act(&self) {}
}
";
        let sym = parse(src);
        assert_eq!(
            quals(&sym),
            vec!["Wrapper::get", "Holder::from", "Thing::act"]
        );
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
        let sym = parse(src);
        assert_eq!(quals(&sym), vec!["Queue::enqueue_all"]);
    }

    #[test]
    fn nested_fns_own_their_tokens() {
        let src = "\
fn outer() {
    let a = before();
    fn inner() { let b = within(); }
    let c = after();
}
";
        let toks = lex(src);
        let mask = vec![false; toks.len()];
        let sym = parse_file(&toks, &mask);
        assert_eq!(quals(&sym), vec!["outer", "inner"]);
        let owner_of = |name: &str| {
            let i = toks.iter().position(|t| t.is_ident(name)).unwrap();
            sym.owner[i].map(|d| sym.defs[d].name.clone())
        };
        assert_eq!(owner_of("before").as_deref(), Some("outer"));
        assert_eq!(owner_of("within").as_deref(), Some("inner"));
        assert_eq!(owner_of("after").as_deref(), Some("outer"));
    }

    #[test]
    fn closures_belong_to_the_enclosing_fn() {
        let src = "fn f() { let g = |x: u32| helper(x); g(1); }";
        let toks = lex(src);
        let mask = vec![false; toks.len()];
        let sym = parse_file(&toks, &mask);
        let i = toks.iter().position(|t| t.is_ident("helper")).unwrap();
        assert_eq!(sym.owner[i], Some(0));
    }

    #[test]
    fn macro_rules_bodies_are_skipped() {
        let src = "\
macro_rules! make {
    ($n:ident) => { fn $n() {} };
}
fn real() {}
";
        let sym = parse(src);
        assert_eq!(quals(&sym), vec!["real"]);
    }

    #[test]
    fn signatures_with_complex_return_types() {
        let src = "\
fn factory() -> Box<dyn Fn(u64) -> Box<dyn CongestionControl>> {
    Box::new(|k| build(k))
}
fn next_one() {}
";
        let sym = parse(src);
        assert_eq!(quals(&sym), vec!["factory", "next_one"]);
    }

    #[test]
    fn test_mask_marks_defs() {
        let src = "\
fn live() {}
#[cfg(test)]
mod tests {
    fn helper() {}
}
";
        let toks = lex(src);
        let mask = crate::test_region_mask(&toks, "crates/netsim/src/x.rs");
        let sym = parse_file(&toks, &mask);
        assert_eq!(quals(&sym), vec!["live", "helper"]);
        assert!(!sym.defs[0].is_test);
        assert!(sym.defs[1].is_test);
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
            let _ = parse(src);
        }
    }
}
