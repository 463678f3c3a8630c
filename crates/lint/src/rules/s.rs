//! **s3-sim-interior-mutability** — shared-state audit of sim-crate
//! source.
//!
//! Simulations run side by side on `--jobs` workers inside one
//! process. Any state that is not owned by exactly one simulation is
//! there a data race, a lock, or a source of divergence between
//! `--jobs 1` and `--jobs N`. This rule inventories the
//! interior-mutability cells — `RefCell`/`Cell`/`UnsafeCell`/
//! `OnceLock`/`OnceCell`/`LazyLock` — through which such state would be
//! mutated (`use` imports are not flagged — the state is where the cell
//! lives, not the import — and neither is a type of that name the file
//! declares itself: a table's `enum Cell` is not `std::cell::Cell`).
//! Locks and atomics are `d5`'s; `static mut` needs an `unsafe` block
//! for every access, which `d4` makes carry a `SAFETY:` comment; and a
//! `thread_local!` can only be mutated through a cell, a lock or an
//! atomic.
//!
//! A finding here is not necessarily a bug today. The point of
//! deny-by-default is the *justified allow*: each
//! `lint:allow(s3-sim-interior-mutability)` must say why the state stays
//! sound when simulations run concurrently (write-once cache, owned by
//! one run by construction, …). The `--allow-report` artifact lists them
//! for review.

use crate::rules::sim_crate_src;
use crate::{FileCtx, Rule};

pub(crate) fn rule() -> Rule {
    Rule {
        id: "s3-sim-interior-mutability",
        summary: "interior-mutability cell (RefCell/Cell/OnceLock/…) in sim \
                  scope — each needs a concurrency-soundness justification",
        applies: sim_crate_src,
        check,
    }
}

const CELLS: [&str; 6] = [
    "RefCell",
    "Cell",
    "UnsafeCell",
    "OnceLock",
    "OnceCell",
    "LazyLock",
];

fn check(ctx: &FileCtx) -> Vec<(u32, String)> {
    let code: Vec<usize> = ctx.code_tokens().map(|(i, _)| i).collect();
    // Names this file declares itself (`struct|enum|type|trait <Name>`)
    // are its own types, not the std cells they happen to share a name
    // with.
    let declared_here = |name: &str| {
        code.windows(2).any(|w| {
            let kw = &ctx.toks[w[0]];
            ["struct", "enum", "type", "trait"]
                .iter()
                .any(|k| kw.is_ident(k))
                && ctx.toks[w[1]].is_ident(name)
        })
    };
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
        if !CELLS.iter().any(|c| t.is_ident(c)) || declared_here(&t.text) {
            continue;
        }
        out.push((
            t.line,
            format!(
                "interior-mutability cell `{}` — shared mutation must \
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

    #[test]
    fn s3_flags_cells_but_not_their_imports() {
        let src = "\
use std::sync::OnceLock;
struct S { cache: OnceLock<u64> }
fn touch() { let c = std::cell::RefCell::new(1); let _ = c; }
";
        let d = scan(src);
        assert_eq!(
            lines_of(&d, "s3-sim-interior-mutability"),
            vec![2, 3],
            "{d:#?}"
        );
    }

    #[test]
    fn s3_leaves_a_type_the_file_declares_itself_alone() {
        // A table cell is not `std::cell::Cell`: the file that declares
        // `enum Cell` may use the name freely...
        let table = "\
pub enum Cell { Num(f64), Text(String) }
pub fn render(row: &[Cell]) -> usize { row.len() }
fn num(x: f64) -> Cell { Cell::Num(x) }
";
        assert!(scan(table).is_empty(), "{:#?}", scan(table));
        // ...while another file's std cell still fires.
        let state = "pub struct State { flag: std::cell::Cell<bool> }\n";
        let d = scan(state);
        assert_eq!(
            lines_of(&d, "s3-sim-interior-mutability"),
            vec![1],
            "{d:#?}"
        );
    }

    #[test]
    fn s3_justified_allow_is_honoured() {
        let src = "\
// lint:allow(s3-sim-interior-mutability): write-once cache of a
// pure function of the tree; any worker computing it gets the same value.
struct S { cache: OnceLock<u64> }
fn touch() {}
";
        assert!(scan(src).is_empty());
    }
}
