//! **d4-unsafe-safety-comment** — every `unsafe` carries a `// SAFETY:`
//! comment.
//!
//! The arena/wheel hot path is exactly where an `unsafe` shortcut will
//! eventually be proposed (slot access without the generation check,
//! uninitialized slab growth). This rule does not ban `unsafe`; it bans
//! *undocumented* `unsafe`: the block or fn must be immediately preceded
//! by a comment containing `SAFETY:` stating the invariant that makes it
//! sound — the same contract clippy's `undocumented_unsafe_blocks`
//! enforces, available here without crates.io.
//!
//! Unlike the determinism rules, this one applies to **all** code in the
//! workspace — benches and tests included — because a memory bug
//! in test scaffolding corrupts the evidence the suites produce.

use crate::lexer::TokKind;
use crate::{FileCtx, Rule};

pub(crate) fn rule() -> Rule {
    Rule {
        id: "d4-unsafe-safety-comment",
        summary: "`unsafe` without an immediately preceding `// SAFETY:` comment \
                  stating the invariant that makes it sound",
        applies: |_| true,
        check,
    }
}

fn check(ctx: &FileCtx) -> Vec<(u32, String)> {
    // This rule deliberately ignores the test mask: unsafe in tests
    // needs its invariant written down too.
    let mut out = Vec::new();
    for (i, t) in ctx.toks.iter().enumerate() {
        if !(t.kind == TokKind::Ident && t.text == "unsafe") {
            continue;
        }
        // Line of the previous code token (file start counts as line 0):
        // a SAFETY comment must sit strictly between it and the `unsafe`.
        let prev_code_line = ctx.toks[..i]
            .iter()
            .rev()
            .find(|p| p.kind != TokKind::Comment)
            .map(|p| p.line)
            .unwrap_or(0);
        let documented = ctx.toks[..i].iter().rev().any(|p| {
            p.kind == TokKind::Comment && p.line >= prev_code_line && p.text.contains("SAFETY:")
        });
        if !documented {
            out.push((
                t.line,
                "`unsafe` without a `// SAFETY:` comment; document the invariant \
                 that makes this sound directly above it"
                    .to_string(),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::rules::testutil::{lines_of, scan};

    #[test]
    fn flags_undocumented_unsafe_block() {
        let src = "\
fn f(p: *const u8) -> u8 {
    unsafe { *p }
}
";
        let d = scan(src);
        assert_eq!(lines_of(&d, "d4-unsafe-safety-comment"), vec![2]);
    }

    #[test]
    fn safety_comment_directly_above_is_accepted() {
        let src = "\
fn f(p: *const u8) -> u8 {
    // SAFETY: caller guarantees `p` points into the live slab; the
    // generation check above proves the slot was not recycled.
    unsafe { *p }
}
";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn trailing_safety_on_same_line_as_previous_code_counts() {
        let src = "\
fn f(p: *const u8) -> u8 {
    let q = p; // SAFETY: q is p, non-null by construction above
    unsafe { *q }
}
";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn stale_safety_comment_far_above_does_not_count() {
        let src = "\
// SAFETY: this comment documents something else entirely
fn g() {}
fn f(p: *const u8) -> u8 {
    unsafe { *p }
}
";
        let d = scan(src);
        assert_eq!(lines_of(&d, "d4-unsafe-safety-comment"), vec![4]);
    }

    #[test]
    fn unsafe_fn_and_unsafe_impl_need_comments_too() {
        let src = "\
unsafe fn danger() {}
// SAFETY: Send is sound — the type owns no thread-affine state.
unsafe impl Send for X {}
struct X(*const u8);
";
        let d = scan(src);
        assert_eq!(lines_of(&d, "d4-unsafe-safety-comment"), vec![1]);
    }

    #[test]
    fn applies_even_in_test_code_and_out_of_scope_crates() {
        let src = "\
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let x = 0u8;
        let _ = unsafe { *(&x as *const u8) };
    }
}
";
        let d = crate::scan_source("benchmark/src/runner.rs", src);
        assert_eq!(lines_of(&d, "d4-unsafe-safety-comment"), vec![6]);
    }

    #[test]
    fn word_unsafe_in_prose_is_ignored() {
        let src = "// this function is not unsafe at all\nfn f() { let unsafe_like = \"unsafe\"; let _ = unsafe_like; }\n";
        assert!(scan(src).is_empty());
    }
}
