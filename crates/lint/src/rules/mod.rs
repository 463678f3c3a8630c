//! The rule set, one module per rule.
//!
//! Each rule declares a path scope (`applies`) over workspace-relative
//! paths and a token-level check. Scopes are deliberately conservative:
//! deny-by-default inside the crates where determinism is load-bearing,
//! silent elsewhere (the shims reimplement threaded libraries and own
//! their synchronization).
//!
//! All rules except [`d4`] skip test code — `#[cfg(test)]` items and
//! anything under a `tests/`, `benches/`, or `examples/` directory —
//! because tests legitimately use wall-clock-free shortcuts the library
//! must not.

pub mod d1;
pub mod d2;
pub mod d3;
pub mod d4;
pub mod d5;
pub mod d6;
pub mod p;
pub mod r;
pub mod s;

use crate::{GraphRule, Rule};

/// Every token-level (D-family) rule, in id order.
pub fn all() -> Vec<Rule> {
    vec![
        d1::rule(),
        d2::rule(),
        d3::rule(),
        d4::rule(),
        d5::rule(),
        d6::rule(),
    ]
}

/// Every call-graph-aware (P/R/S-family) rule, in id order.
pub fn graph_rules() -> Vec<GraphRule> {
    let mut out = p::rules();
    out.extend(r::rules());
    out.extend(s::rules());
    out
}

/// True when `rel_path` is library/binary source of one of the crates
/// where simulation determinism is load-bearing.
pub fn sim_crate_src(rel_path: &str) -> bool {
    !crate::is_test_path(rel_path)
        && [
            "crates/netsim/src/",
            "crates/congestion/src/",
            "crates/core/src/",
            "crates/remy-sim/src/",
            "crates/traces/src/",
        ]
        .iter()
        .any(|p| rel_path.starts_with(p))
}

/// Path pre-filter for the call-graph (P/R/S) families: any crate
/// library source except the shims (reimplement threaded libraries on
/// purpose), the lint crate itself, and CLI `bin/` entry shims (startup
/// code — argument parsing may panic freely; it runs before any
/// simulation). The *fine* filter is reachability.
pub fn prs_scope(rel_path: &str) -> bool {
    !crate::is_test_path(rel_path)
        && rel_path.starts_with("crates/")
        && rel_path.contains("/src/")
        && !rel_path.contains("/src/bin/")
        && !rel_path.starts_with("crates/shims/")
        && !rel_path.starts_with("crates/lint/")
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
        let ids: Vec<(&str, &str)> = super::all()
            .iter()
            .map(|r| (r.id, r.summary))
            .chain(super::graph_rules().iter().map(|r| (r.id, r.summary)))
            .collect();
        for (i, (id, summary)) in ids.iter().enumerate() {
            assert!(
                id.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
                "{id} not kebab-case"
            );
            assert!(!summary.is_empty());
            for (other, _) in &ids[i + 1..] {
                assert_ne!(id, other);
            }
        }
        assert_eq!(super::all().len(), 6);
        assert_eq!(super::graph_rules().len(), 8);
    }

    #[test]
    fn prs_scope_covers_sim_crates_not_harness_infra() {
        assert!(super::prs_scope("crates/netsim/src/sim.rs"));
        assert!(super::prs_scope("crates/core/src/evaluator.rs"));
        assert!(super::prs_scope("crates/remy-sim/src/harness.rs"));
        assert!(!super::prs_scope("crates/shims/rayon/src/lib.rs"));
        assert!(!super::prs_scope("crates/lint/src/lib.rs"));
        assert!(!super::prs_scope("crates/remy-sim/src/bin/remy_cli.rs"));
        assert!(!super::prs_scope("crates/netsim/tests/equivalence.rs"));
    }
}
