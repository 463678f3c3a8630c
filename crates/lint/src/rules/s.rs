//! **S-family** — shared-state audit of sim-reachable code.
//!
//! Simulations run side by side on rayon `--jobs` workers inside one
//! process. Any state that is not owned by exactly one simulation is
//! there a data race, a lock, or a source of divergence between
//! `--jobs 1` and `--jobs N`. These rules inventory that state:
//!
//! - `s1-sim-static-mut` — `static mut` items,
//! - `s2-sim-thread-local` — `thread_local!` blocks (which runs share the
//!   state depends on how runs land on workers, i.e. on `--jobs`),
//! - `s3-sim-interior-mutability` — `RefCell`/`Cell`/`UnsafeCell`/
//!   `OnceLock`/`OnceCell`/`LazyLock` in sim scope (`use` imports are
//!   not flagged — the state is where the cell lives, not the import).
//!
//! Unlike P/R, a finding here is not necessarily a bug today. The point
//! of deny-by-default is the *justified allow*: each `lint:allow(s…)`
//! must say why the state stays sound when simulations run concurrently
//! (write-once cache, owned by one run by construction, …). The
//! `--allow-report` artifact lists them for review.
//!
//! Scoping: tokens inside a function body count when that function is
//! sim-reachable; item-level tokens (statics, struct fields) count when
//! the file defines at least one sim-reachable function.

use crate::rules::prs_scope;
use crate::{Analysis, GraphRule};

pub(crate) fn rules() -> Vec<GraphRule> {
    vec![
        GraphRule {
            id: "s1-sim-static-mut",
            summary: "`static mut` in sim scope — unsynchronized global state; every \
                      access races between `--jobs` workers",
            applies: prs_scope,
            check: check_s1,
        },
        GraphRule {
            id: "s2-sim-thread-local",
            summary: "`thread_local!` in sim scope — which runs share it depends on \
                      `--jobs`, so results would too",
            applies: prs_scope,
            check: check_s2,
        },
        GraphRule {
            id: "s3-sim-interior-mutability",
            summary: "interior-mutability cell (RefCell/Cell/OnceLock/…) in sim \
                      scope — each needs a concurrency-soundness justification",
            applies: prs_scope,
            check: check_s3,
        },
    ]
}

fn check_s1(an: &Analysis, fi: usize) -> Vec<(u32, String)> {
    let ctx = &an.files[fi];
    let code: Vec<usize> = ctx.code_tokens().map(|(i, _)| i).collect();
    let mut out = Vec::new();
    for (k, &i) in code.iter().enumerate() {
        let t = &ctx.toks[i];
        if !t.is_ident("static") {
            continue;
        }
        if !code
            .get(k + 1)
            .is_some_and(|&j| ctx.toks[j].is_ident("mut"))
        {
            continue;
        }
        if !an.token_in_sim_scope(fi, i) {
            continue;
        }
        out.push((
            t.line,
            "`static mut` in sim scope — unsynchronized global state races \
             between `--jobs` workers; move it into state one run owns or \
             justify with lint:allow"
                .to_string(),
        ));
    }
    out
}

fn check_s2(an: &Analysis, fi: usize) -> Vec<(u32, String)> {
    let ctx = &an.files[fi];
    let code: Vec<usize> = ctx.code_tokens().map(|(i, _)| i).collect();
    let mut out = Vec::new();
    for (k, &i) in code.iter().enumerate() {
        let t = &ctx.toks[i];
        if !t.is_ident("thread_local") {
            continue;
        }
        if !code.get(k + 1).is_some_and(|&j| ctx.toks[j].is_punct('!')) {
            continue;
        }
        if !an.token_in_sim_scope(fi, i) {
            continue;
        }
        out.push((
            t.line,
            "`thread_local!` in sim scope — which runs share per-thread state \
             depends on `--jobs` (results would follow the worker count); make \
             the state run-owned or justify with lint:allow"
                .to_string(),
        ));
    }
    out
}

const CELLS: [&str; 6] = [
    "RefCell",
    "Cell",
    "UnsafeCell",
    "OnceLock",
    "OnceCell",
    "LazyLock",
];

fn check_s3(an: &Analysis, fi: usize) -> Vec<(u32, String)> {
    let ctx = &an.files[fi];
    let code: Vec<usize> = ctx.code_tokens().map(|(i, _)| i).collect();
    let mut out = Vec::new();
    let mut in_use = false;
    for &i in &code {
        let t = &ctx.toks[i];
        // Imports are not the state; skip `use …;` statements. A `use`
        // keyword only opens an import at item/statement position, which
        // is where this scanner ever sees it (expression `use` does not
        // exist in stable Rust).
        if t.is_ident("use") {
            in_use = true;
            continue;
        }
        if in_use {
            if t.is_punct(';') {
                in_use = false;
            }
            continue;
        }
        if !CELLS.iter().any(|c| t.is_ident(c)) {
            continue;
        }
        if !an.token_in_sim_scope(fi, i) {
            continue;
        }
        let site = match an.owner_def(fi, i) {
            Some(d) => format!("in sim-reachable `{}`", d.qual_name()),
            None => "at item level in a file with sim-reachable functions".to_string(),
        };
        out.push((
            t.line,
            format!(
                "interior-mutability cell `{}` {site} — shared mutation must \
                 stay sound when `--jobs` workers run simulations concurrently; \
                 each cell needs a justified lint:allow stating why it does",
                t.text
            ),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::rules::testutil::{lines_of, scan};

    const ROOT: &str = "impl Simulator { pub fn run(self) { touch(); } }\n";

    #[test]
    fn s1_flags_static_mut_when_file_has_reachable_fns() {
        let src = format!("{ROOT}static mut COUNTER: u64 = 0;\nfn touch() {{}}\n");
        let d = scan(&src);
        assert_eq!(lines_of(&d, "s1-sim-static-mut"), vec![2], "{d:#?}");
    }

    #[test]
    fn s1_plain_static_is_clean() {
        let src = format!("{ROOT}static TABLE: [u8; 4] = [0; 4];\nfn touch() {{}}\n");
        assert!(scan(&src).is_empty());
    }

    #[test]
    fn s2_flags_thread_local_blocks() {
        let src = format!(
            "{ROOT}thread_local! {{ static SCRATCH: Vec<u8> = Vec::new(); }}\nfn touch() {{}}\n"
        );
        let d = scan(&src);
        assert_eq!(lines_of(&d, "s2-sim-thread-local"), vec![2], "{d:#?}");
    }

    #[test]
    fn s3_flags_cells_but_not_their_imports() {
        let src = format!(
            "{ROOT}use std::sync::OnceLock;\n\
             struct S {{ cache: OnceLock<u64> }}\n\
             fn touch() {{ let c = std::cell::RefCell::new(1); let _ = c; }}\n"
        );
        let d = scan(&src);
        assert_eq!(
            lines_of(&d, "s3-sim-interior-mutability"),
            vec![3, 4],
            "{d:#?}"
        );
    }

    #[test]
    fn s_rules_silent_without_any_reachable_fn() {
        let src = "\
static mut COUNTER: u64 = 0;
thread_local! { static SCRATCH: u64 = 0; }
struct S { cache: OnceLock<u64> }
fn never_called() { let c = RefCell::new(1); let _ = c; }
";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn s3_justified_allow_is_honoured() {
        let src = format!(
            "{ROOT}// lint:allow(s3-sim-interior-mutability): write-once cache of a\n\
             // pure function of the tree; any worker computing it gets the same value.\n\
             struct S {{ cache: OnceLock<u64> }}\n\
             fn touch() {{}}\n"
        );
        assert!(scan(&src).is_empty());
    }
}
