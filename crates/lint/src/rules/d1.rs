//! **d1-unordered-collections** — no `HashMap`/`HashSet` in sim/training
//! library code.
//!
//! `std::collections::HashMap` iteration order depends on the hasher's
//! per-process `RandomState`; any result, report, or merged statistic
//! that flows through a hash-map drain can differ run to run and across
//! `--jobs` counts. The PR-2 usage-merge bug and the experiment-renderer
//! ordering hazards are exactly this class. Library code in the sim
//! crates must use `BTreeMap`/`BTreeSet`, or sort before draining — and
//! if a map really is lookup-only, say so with a justified
//! `lint:allow(d1-unordered-collections)`.
//!
//! The token-level scanner cannot prove a given map is never iterated,
//! so the rule is deny-by-default on the *type*: that is the point — an
//! allow with a written justification is the reviewable artifact.

use crate::{FileCtx, Rule};

const BANNED: [&str; 3] = ["HashMap", "HashSet", "IndexMap"];

pub(crate) fn rule() -> Rule {
    Rule {
        id: "d1-unordered-collections",
        summary: "HashMap/HashSet in sim/training library code: iteration order is \
                  nondeterministic — use BTreeMap/BTreeSet or a sorted drain",
        applies: super::sim_crate_src,
        check,
    }
}

fn check(ctx: &FileCtx) -> Vec<(u32, String)> {
    ctx.code_tokens()
        .filter(|(_, t)| BANNED.iter().any(|b| t.is_ident(b)))
        .map(|(_, t)| {
            (
                t.line,
                format!(
                    "`{}` has nondeterministic iteration order; use `BTree{}` or a \
                     sorted drain (or justify with lint:allow if lookup-only)",
                    t.text,
                    t.text
                        .trim_start_matches("Hash")
                        .trim_start_matches("Index"),
                ),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use crate::rules::testutil::{lines_of, scan};

    #[test]
    fn flags_hashmap_and_hashset_with_spans() {
        let src = "\
use std::collections::HashMap;
use std::collections::BTreeMap;
fn f() {
    let m: HashMap<u32, u32> = HashMap::new();
    let s = std::collections::HashSet::<u32>::new();
    let _ = (m, s);
}
";
        let d = scan(src);
        assert_eq!(lines_of(&d, "d1-unordered-collections"), vec![1, 4, 4, 5]);
    }

    #[test]
    fn btree_collections_are_clean() {
        let src = "use std::collections::{BTreeMap, BTreeSet};\nfn f(m: BTreeMap<u32, u32>) -> usize { m.len() }\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn comments_strings_and_tests_do_not_fire() {
        let src = "\
// HashMap is mentioned here in prose only.
const NAME: &str = \"HashMap\";
#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    #[test]
    fn t() { let _ = HashSet::<u32>::new(); }
}
";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn out_of_scope_crates_are_clean() {
        let src = "use std::collections::HashMap;\n";
        assert!(crate::scan_source("crates/shims/rayon/src/lib.rs", src).is_empty());
        assert!(crate::scan_source("crates/netsim/tests/props.rs", src).is_empty());
    }

    #[test]
    fn hash_trait_is_not_flagged() {
        let src = "#[derive(Hash, PartialEq, Eq)]\nstruct K(u32);\nimpl K { fn hash_like(&self) -> u64 { 0 } }\n";
        assert!(scan(src).is_empty());
    }
}
