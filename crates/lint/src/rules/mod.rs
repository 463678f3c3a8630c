//! The rule set, one module per rule (or rule family).
//!
//! Every rule is a token-level check over one file. All but [`d4`]
//! share one scope, [`sim_crate_src`]: non-test source of the four
//! crates where determinism is load-bearing. Everything else is silent
//! (the linter itself; `benchmark/`, a timing harness). Test code —
//! `#[cfg(test)]` items and anything under a `tests/`, `benches/`, or
//! `examples/` directory — is skipped because tests legitimately use
//! shortcuts the library must not. `d4` applies everywhere, tests
//! included: `unsafe` needs its SAFETY comment wherever it is.

pub mod d1;
pub mod d2;
pub mod d3;
pub mod d4;
pub mod d5;
pub mod p;
pub mod s;

use crate::Rule;

/// Every rule, in id order.
pub fn all() -> Vec<Rule> {
    let mut out = vec![d1::rule(), d2::rule(), d3::rule(), d4::rule(), d5::rule()];
    out.extend(p::rules());
    out.push(s::rule());
    out
}

/// The one path scope: true when `rel_path` is library/binary source of
/// one of the crates where simulation determinism is load-bearing.
pub fn sim_crate_src(rel_path: &str) -> bool {
    !crate::is_test_path(rel_path)
        && [
            "crates/netsim/src/",
            "crates/congestion/src/",
            "crates/core/src/",
            "crates/remy-sim/src/",
        ]
        .iter()
        .any(|p| rel_path.starts_with(p))
}

#[cfg(test)]
pub(crate) mod testutil {
    use crate::{scan_source, Diagnostic};

    /// Scan `src` as library code of `netsim` (in scope for every rule).
    pub fn scan(src: &str) -> Vec<Diagnostic> {
        scan_source("crates/netsim/src/under_test.rs", src)
    }

    /// Lines on which `rule` fired.
    pub fn lines_of(diags: &[Diagnostic], rule: &str) -> Vec<u32> {
        diags
            .iter()
            .filter(|d| d.rule == rule)
            .map(|d| d.line)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn rule_ids_are_unique_and_kebab() {
        let rules = super::all();
        for (i, r) in rules.iter().enumerate() {
            assert!(
                r.id.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
                "{} not kebab-case",
                r.id
            );
            assert!(!r.summary.is_empty());
            for other in &rules[i + 1..] {
                assert_ne!(r.id, other.id);
            }
        }
        assert_eq!(rules.len(), 9);
    }

    #[test]
    fn one_scope_for_every_rule_but_d4() {
        let src = "crates/remy-sim/src/bin/remy-cli.rs";
        let test = "crates/netsim/tests/props.rs";
        assert!(super::sim_crate_src(src));
        assert!(!super::sim_crate_src(test));
        for r in super::all() {
            assert!((r.applies)(src), "{}", r.id);
            assert_eq!((r.applies)(test), r.id.starts_with("d4-"), "{}", r.id);
            assert_eq!(
                (r.applies)("benchmark/src/runner.rs"),
                r.id.starts_with("d4-"),
                "{}",
                r.id
            );
        }
    }
}
