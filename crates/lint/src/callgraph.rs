//! Over-approximate workspace call graph + reachability from the
//! simulation entry points.
//!
//! The P/R/S rule families ask one question of every token: *can the
//! function holding this token run during a simulation?* This module
//! answers it conservatively. From the per-file symbol tables
//! ([`crate::parser`]) it extracts call edges by token shape:
//!
//! - `name(` — a direct call; resolves to **every** function named
//!   `name` in the workspace (free or method — over-approximate),
//! - `Type::name(` / `Type::name` — a qualified call or path reference;
//!   resolves to the method `(Type, name)` when the workspace defines
//!   it, falling back to name-only resolution otherwise (trait-qualified
//!   and aliased paths must not silently drop edges),
//! - `Self::name(` — resolved through the enclosing `impl`'s self type,
//! - `.name(` — a method call; name-only resolution (the receiver's
//!   type is unknown without inference, and trait-object dispatch means
//!   even a known receiver under-approximates).
//!
//! Reachability is a BFS over those edges from the fixed [`ROOTS`] — the
//! simulator event loop, the scenario/experiment runners, and the
//! trainer's scoring surface. Everything transitively callable is
//! *sim-reachable*; false edges only ever widen that set, never shrink
//! it, which is the safe direction for deny-by-default rules.
//!
//! Functions inside `#[cfg(test)]` regions or test paths neither act as
//! roots nor contribute edges: test code exercising a helper must not
//! drag that helper's callees into the sim-reachable set on its own.

use crate::lexer::{Tok, TokKind};
use crate::parser::FileSymbols;
use std::collections::BTreeMap;

/// The simulation entry points. `(None, name)` matches any function with
/// that name; `(Some(ty), name)` only methods of that self type.
///
/// Kept in sync with the actual surface:
/// - `Simulator::run` / `run_returning_ccs` and the free `run_scenario`
///   (the event loop and its wrapper, `crates/netsim/src/sim.rs`),
/// - `Evaluator::{evaluate, evaluate_per_specimen, score_candidates,
///   score_overlays}` (training's scoring surface,
///   `crates/core/src/evaluator.rs`),
/// - `Remy::{design, design_from}` (the optimizer driver),
/// - `Experiment::run`, `NamedExperiment::run` (the experiment harness,
///   `crates/remy-sim`).
pub const ROOTS: &[(Option<&str>, &str)] = &[
    (Some("Simulator"), "run"),
    (Some("Simulator"), "run_returning_ccs"),
    (None, "run_scenario"),
    (Some("Evaluator"), "evaluate"),
    (Some("Evaluator"), "evaluate_per_specimen"),
    (Some("Evaluator"), "score_candidates"),
    (Some("Evaluator"), "score_overlays"),
    (Some("Remy"), "design"),
    (Some("Remy"), "design_from"),
    (Some("Experiment"), "run"),
    (Some("NamedExperiment"), "run"),
];

/// One file's inputs to the graph.
pub struct GraphFile<'a> {
    pub toks: &'a [Tok],
    pub symbols: &'a FileSymbols,
}

/// Global function id: (file index, def index within that file).
pub type DefId = (usize, usize);

/// Compute, for every file, which function definitions are reachable
/// from [`ROOTS`]. Returns one `Vec<bool>` per file, parallel to that
/// file's `symbols.defs`.
pub fn reachable_defs(files: &[GraphFile<'_>]) -> Vec<Vec<bool>> {
    // Name indexes over non-test definitions.
    let mut by_name: BTreeMap<&str, Vec<DefId>> = BTreeMap::new();
    let mut by_qual: BTreeMap<(&str, &str), Vec<DefId>> = BTreeMap::new();
    for (fi, f) in files.iter().enumerate() {
        for (di, d) in f.symbols.defs.iter().enumerate() {
            if d.is_test {
                continue;
            }
            by_name.entry(&d.name).or_default().push((fi, di));
            if let Some(ty) = &d.self_ty {
                by_qual.entry((ty, &d.name)).or_default().push((fi, di));
            }
        }
    }

    let mut reach: Vec<Vec<bool>> = files
        .iter()
        .map(|f| vec![false; f.symbols.defs.len()])
        .collect();
    let mut work: Vec<DefId> = Vec::new();
    for &(ty, name) in ROOTS {
        let ids: &[DefId] = match ty {
            Some(ty) => by_qual.get(&(ty, name)).map(Vec::as_slice).unwrap_or(&[]),
            None => by_name.get(name).map(Vec::as_slice).unwrap_or(&[]),
        };
        for &(fi, di) in ids {
            if !reach[fi][di] {
                reach[fi][di] = true;
                work.push((fi, di));
            }
        }
    }

    while let Some((fi, di)) = work.pop() {
        let f = &files[fi];
        let def = &f.symbols.defs[di];
        for callee in body_edges(f, def.body, def.self_ty.as_deref(), &by_name, &by_qual) {
            let (cf, cd) = callee;
            if !reach[cf][cd] {
                reach[cf][cd] = true;
                work.push(callee);
            }
        }
    }
    reach
}

/// Extract the callee set of one function body.
fn body_edges(
    f: &GraphFile<'_>,
    body: (usize, usize),
    self_ty: Option<&str>,
    by_name: &BTreeMap<&str, Vec<DefId>>,
    by_qual: &BTreeMap<(&str, &str), Vec<DefId>>,
) -> Vec<DefId> {
    let toks = f.toks;
    // Code tokens of this body only; nested fns own their tokens, but
    // including them here is harmless (a nested fn is trivially called
    // by its parent in every case we care about — it is defined there).
    let code: Vec<usize> = (body.0..body.1.min(toks.len()))
        .filter(|&i| toks[i].kind != TokKind::Comment)
        .collect();
    let mut out: Vec<DefId> = Vec::new();
    for (k, &i) in code.iter().enumerate() {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        let next = code.get(k + 1).map(|&j| &toks[j]);
        // `name::<T>(` — a turbofish call; the ident before the `::<` is
        // the callable even though `(` is not the very next token.
        let turbofish = next.is_some_and(|t| t.is_punct(':'))
            && code.get(k + 2).is_some_and(|&j| toks[j].is_punct(':'))
            && code.get(k + 3).is_some_and(|&j| toks[j].is_punct('<'));
        let next_is_call = next.is_some_and(|t| t.is_punct('(')) || turbofish;
        // `name!(` is a macro invocation, not a call edge.
        if next.is_some_and(|t| t.is_punct('!')) {
            continue;
        }
        // Qualified path `Qual::name...`: the two tokens before are `::`
        // and before that the qualifier ident.
        let qual: Option<&str> = if k >= 3
            && toks[code[k - 1]].is_punct(':')
            && toks[code[k - 2]].is_punct(':')
            && toks[code[k - 3]].kind == TokKind::Ident
        {
            Some(toks[code[k - 3]].text.as_str())
        } else {
            None
        };
        let is_method = k >= 1 && toks[code[k - 1]].is_punct('.');
        // Plain identifiers that are neither called, nor a path segment,
        // nor a method call carry no edge (variables, field names…).
        if !next_is_call && qual.is_none() && !is_method {
            continue;
        }
        if is_method && !next_is_call {
            continue; // field access `a.b`, not a call
        }
        let name = toks[i].text.as_str();
        // Skip a path segment that has more path after it (`a::b::c` —
        // only `c` is the callable) — unless the `::` opens a turbofish
        // (`parse::<f64>(`, `collect::<Vec<_>>()`): there the segment IS
        // the callable and dropping it would lose the tail call of a
        // method chain.
        if !turbofish
            && next.is_some_and(|t| t.is_punct(':'))
            && code.get(k + 2).is_some_and(|&j| toks[j].is_punct(':'))
        {
            continue;
        }
        match qual {
            Some(q) => {
                let q = if q == "Self" { self_ty.unwrap_or(q) } else { q };
                if let Some(ids) = by_qual.get(&(q, name)) {
                    out.extend(ids.iter().copied());
                } else if let Some(ids) = by_name.get(name) {
                    // Unknown/external qualifier (trait path, alias):
                    // over-approximate by name.
                    out.extend(ids.iter().copied());
                }
            }
            None => {
                if let Some(ids) = by_name.get(name) {
                    out.extend(ids.iter().copied());
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;
    use crate::test_region_mask;

    /// Lex + parse a set of (path, source) files and return the
    /// reachable qualified names, sorted.
    fn reach(files: &[(&str, &str)]) -> Vec<String> {
        let lexed: Vec<(Vec<Tok>, FileSymbols)> = files
            .iter()
            .map(|(path, src)| {
                let toks = lex(src);
                let mask = test_region_mask(&toks, path);
                let syms = parse_file(&toks, &mask);
                (toks, syms)
            })
            .collect();
        let gfiles: Vec<GraphFile<'_>> = lexed
            .iter()
            .map(|(toks, symbols)| GraphFile { toks, symbols })
            .collect();
        let r = reachable_defs(&gfiles);
        let mut out: Vec<String> = Vec::new();
        for (fi, flags) in r.iter().enumerate() {
            for (di, &on) in flags.iter().enumerate() {
                if on {
                    out.push(lexed[fi].1.defs[di].qual_name());
                }
            }
        }
        out.sort();
        out
    }

    #[test]
    fn direct_call_chain_from_root() {
        let src = "\
impl Simulator {
    pub fn run(self) { step(); }
}
fn step() { leaf(); }
fn leaf() {}
fn dead() { also_dead(); }
fn also_dead() {}
";
        assert_eq!(
            reach(&[("crates/netsim/src/sim.rs", src)]),
            vec!["Simulator::run", "leaf", "step"]
        );
    }

    #[test]
    fn trait_object_method_call_is_over_approximate() {
        let src = "\
impl Simulator {
    pub fn run(self, cc: &mut dyn CongestionControl) { cc.on_ack(1); }
}
impl Cubic {
    fn on_ack(&mut self, n: u64) {}
}
impl Vegas {
    fn on_ack(&mut self, n: u64) {}
}
impl Unrelated {
    fn on_nack(&mut self) {}
}
";
        // `.on_ack(` reaches every on_ack in the workspace — that is the
        // point: dynamic dispatch cannot be narrowed, so all impls count.
        assert_eq!(
            reach(&[("crates/netsim/src/sim.rs", src)]),
            vec!["Cubic::on_ack", "Simulator::run", "Vegas::on_ack"]
        );
    }

    #[test]
    fn cross_crate_edge_by_qualified_and_plain_call() {
        let a = "\
impl Evaluator {
    pub fn score_candidates(&self) {
        netsim::run_scenario();
        helper_in_b();
    }
}
";
        let b = "\
pub fn run_scenario() { inner(); }
fn inner() {}
pub fn helper_in_b() {}
fn not_called() {}
";
        assert_eq!(
            reach(&[
                ("crates/core/src/evaluator.rs", a),
                ("crates/netsim/src/sim.rs", b),
            ]),
            vec![
                "Evaluator::score_candidates",
                "helper_in_b",
                "inner",
                "run_scenario"
            ]
        );
    }

    #[test]
    fn self_qualified_calls_resolve_through_the_impl_type() {
        let src = "\
impl Simulator {
    pub fn run(self) { Self::tick(); }
    fn tick() { Simulator::finish(); }
    fn finish() {}
    fn unused() {}
}
";
        assert_eq!(
            reach(&[("crates/netsim/src/sim.rs", src)]),
            vec!["Simulator::finish", "Simulator::run", "Simulator::tick"]
        );
    }

    #[test]
    fn path_reference_without_call_parens_is_an_edge() {
        let src = "\
impl Simulator {
    pub fn run(self) { let f = Simulator::tick; f(); }
    fn tick() {}
}
";
        let r = reach(&[("crates/netsim/src/sim.rs", src)]);
        assert!(r.contains(&"Simulator::tick".to_string()), "{r:?}");
    }

    #[test]
    fn test_functions_do_not_create_reachability() {
        let src = "\
impl Simulator {
    pub fn run(self) {}
}
fn helper_only_tests_call() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { helper_only_tests_call(); }
}
";
        assert_eq!(
            reach(&[("crates/netsim/src/sim.rs", src)]),
            vec!["Simulator::run"]
        );
    }

    #[test]
    fn unknown_qualifier_falls_back_to_name_resolution() {
        let src = "\
impl Simulator {
    pub fn run(self) { <T as Steppable>::step_once(); }
}
impl Wheel {
    fn step_once(&mut self) {}
}
";
        let r = reach(&[("crates/netsim/src/sim.rs", src)]);
        assert!(r.contains(&"Wheel::step_once".to_string()), "{r:?}");
    }

    #[test]
    fn mid_path_segments_are_not_edges() {
        let src = "\
impl Simulator {
    pub fn run(self) { a::b::target(); }
}
fn b() {}
fn target() {}
";
        let r = reach(&[("crates/netsim/src/sim.rs", src)]);
        assert!(r.contains(&"target".to_string()));
        assert!(!r.contains(&"b".to_string()), "{r:?}");
    }

    #[test]
    fn no_roots_means_nothing_reachable() {
        let src = "fn a() { b(); } fn b() {}";
        assert!(reach(&[("crates/netsim/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn turbofish_method_tail_call_is_an_edge() {
        // `self.raw.parse::<f64>()` — the `::<` used to make the parser
        // treat `parse` as a mid-path segment and drop the edge, hiding
        // the tail call of the receiver chain from every graph rule.
        let src = "\
impl Simulator {
    pub fn run(self) { self.raw.parse::<f64>(); }
}
impl Field {
    fn parse(&self) -> f64 { 0.0 }
}
";
        let r = reach(&[("crates/netsim/src/sim.rs", src)]);
        assert!(r.contains(&"Field::parse".to_string()), "{r:?}");
    }

    #[test]
    fn turbofish_free_function_call_is_an_edge() {
        let src = "\
impl Simulator {
    pub fn run(self) { decode::<u32>(); }
}
fn decode() {}
";
        let r = reach(&[("crates/netsim/src/sim.rs", src)]);
        assert!(r.contains(&"decode".to_string()), "{r:?}");
    }

    #[test]
    fn every_link_of_a_method_chain_is_an_edge() {
        let src = "\
impl Simulator {
    pub fn run(self) { self.table.snapshot().normalize().total(); }
}
impl Table {
    fn snapshot(&self) -> View { View }
}
impl View {
    fn normalize(self) -> View { self }
    fn total(&self) -> f64 { 0.0 }
}
";
        let r = reach(&[("crates/netsim/src/sim.rs", src)]);
        for want in ["Table::snapshot", "View::normalize", "View::total"] {
            assert!(r.contains(&want.to_string()), "missing {want}: {r:?}");
        }
    }
}
