//! **d5-shared-state-sim-path** — no locks or atomics in per-event sim
//! code.
//!
//! Simulations run side by side on `--jobs` workers that share one
//! process, and results must stay bit-identical at any worker count. A
//! `Mutex` or atomic counter
//! inside the per-event path is how nondeterminism (and lock contention)
//! creeps in: acquisition order becomes a scheduler artifact, and an
//! unordered reduction through shared state can differ run to run. This
//! rule flags shared-state primitives in sim-crate source **for
//! review** — if one is genuinely needed (a read-only `OnceLock` cache
//! is the classic case), say why with a justified `lint:allow`.
//!
//! `std::sync::mpsc` channels are deliberately *not* flagged: message
//! passing is the sanctioned mechanism.

use crate::{FileCtx, Rule};

const BANNED: [&str; 12] = [
    "Mutex",
    "RwLock",
    "Condvar",
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI64",
    "AtomicIsize",
    "AtomicPtr",
];

pub(crate) fn rule() -> Rule {
    Rule {
        id: "d5-shared-state-sim-path",
        summary: "Mutex/RwLock/atomics in per-event sim code — `--jobs` workers share \
                  one process; runs must not meet through shared state",
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
                    "`{}` introduces shared mutable state into the sim path; \
                     per-event code must stay single-owner (`--jobs` workers share \
                     one process; runs must not meet through a lock)",
                    t.text
                ),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use crate::rules::testutil::{lines_of, scan};

    #[test]
    fn flags_mutex_rwlock_and_atomics() {
        let src = "\
use std::sync::{Mutex, RwLock};
use std::sync::atomic::AtomicU64;
struct S {
    m: Mutex<u64>,
}
";
        let d = scan(src);
        assert_eq!(lines_of(&d, "d5-shared-state-sim-path"), vec![1, 1, 2, 4]);
    }

    #[test]
    fn mpsc_and_oncelock_value_types_are_clean() {
        let src = "\
use std::sync::mpsc;
fn f() {
    let (tx, rx) = mpsc::channel::<u64>();
    tx.send(1).ok();
    let _ = rx.recv();
}
";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn justified_allow_is_honoured() {
        let src = "\
// lint:allow(d5-shared-state-sim-path): write-once cache of the flattened
// tree; contents are a pure function of the table, so order cannot matter.
use std::sync::Mutex;
";
        assert!(scan(src).is_empty());
    }
}
