//! **d2-wallclock-rng** — no wall-clock or ambient randomness in
//! sim/training library code.
//!
//! Simulated time advances only through the event loop (`Ns` deadlines
//! popped from the scheduler); randomness flows only through
//! `SimRng::split_seed`, which is what makes common-random-number
//! evaluation and the `--jobs`-independence guarantee possible. A stray
//! `Instant::now()` or `thread_rng()` in library code silently couples
//! results to the host — the defect class that makes CC comparisons
//! irreproducible.
//!
//! Examples and tests are out of scope; wall-clock measurement
//! lives outside the workspace, in `benchmark/`. The optimizer's
//! wall-clock *training budget* and the timestamps on `remy-cli train`'s
//! progress log are the legitimate uses and carry justified `lint:allow`s.

use crate::{FileCtx, Rule};

/// Identifiers that couple code to the host clock or ambient entropy.
const BANNED: [&str; 6] = [
    "Instant",
    "SystemTime",
    "thread_rng",
    "ThreadRng",
    "OsRng",
    "getrandom",
];

pub(crate) fn rule() -> Rule {
    Rule {
        id: "d2-wallclock-rng",
        summary: "wall-clock time or ambient randomness in sim/training library code — \
                  time comes from the event loop, randomness from SimRng::split_seed",
        applies: super::sim_crate_src,
        check,
    }
}

fn check(ctx: &FileCtx) -> Vec<(u32, String)> {
    let code: Vec<_> = ctx.code_tokens().collect();
    let mut out = Vec::new();
    for (k, (_, t)) in code.iter().enumerate() {
        if BANNED.iter().any(|b| t.is_ident(b)) {
            out.push((
                t.line,
                format!(
                    "`{}` couples results to the host; simulated time comes from the \
                     event loop and randomness from `SimRng::split_seed`",
                    t.text
                ),
            ));
        } else if t.is_ident("rand") {
            // Raw `rand::...` path use (the identifier alone also names
            // harmless locals, so require the `::` path form).
            let next_is_path = code.get(k + 1).is_some_and(|(_, n)| n.is_punct(':'))
                && code.get(k + 2).is_some_and(|(_, n)| n.is_punct(':'));
            if next_is_path {
                out.push((
                    t.line,
                    "raw `rand::` use; all randomness must flow through `SimRng::split_seed`"
                        .to_string(),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::rules::testutil::{lines_of, scan};

    #[test]
    fn flags_instant_systemtime_and_thread_rng() {
        let src = "\
use std::time::Instant;
fn f() {
    let t0 = Instant::now();
    let _ = std::time::SystemTime::now();
    let mut r = rand::thread_rng();
    let _ = (t0, r);
}
";
        let d = scan(src);
        assert_eq!(lines_of(&d, "d2-wallclock-rng"), vec![1, 3, 4, 5, 5]);
    }

    #[test]
    fn sim_rng_and_duration_are_clean() {
        let src = "\
use crate::rng::SimRng;
fn f(seed: u64) -> f64 {
    let mut rng = SimRng::new(SimRng::split_seed(seed, 3));
    let d = std::time::Duration::from_secs(1);
    rng.uniform() + d.as_secs_f64()
}
";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn local_named_rand_is_not_a_path_use() {
        let src = "fn f(rand: f64) -> f64 { rand * 2.0 }\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn shims_and_examples_are_out_of_scope() {
        let src = "use std::time::Instant;\nfn f() { let _ = Instant::now(); }\n";
        assert!(crate::scan_source("benchmark/src/runner.rs", src).is_empty());
        assert!(crate::scan_source("examples/quickstart.rs", src).is_empty());
    }

    #[test]
    fn justified_allow_suppresses() {
        let src = "\
// lint:allow(d2-wallclock-rng): wall-clock bounds the training budget only;
// it is never observable by any simulation (results depend on steps, not time).
use std::time::Instant;
";
        assert!(scan(src).is_empty());
    }
}
