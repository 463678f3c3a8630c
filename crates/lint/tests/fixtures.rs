//! Seeded-violation fixture suite: every rule (D1–D5, P, S3) must fire
//! on its fixture with the right `file:line` spans, the justified-allow
//! fixture must scan clean, and the bare-, stale- and dead-allow
//! fixtures must each produce the `lint-allow` diagnostic. This is the
//! gate's negative control: proof that it still rejects bad code.
//!
//! Fixtures live in `tests/fixtures/` (not compile targets; the
//! workspace walker skips `fixtures/` directories) and are scanned under
//! a virtual `crates/netsim/src/` path so every rule's scope applies.

use remy_lint::{scan_source, Diagnostic};

fn scan_fixture(name: &str) -> Vec<Diagnostic> {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    scan_source(&format!("crates/netsim/src/{name}"), &text)
}

fn lines(diags: &[Diagnostic], rule: &str) -> Vec<u32> {
    diags
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| d.line)
        .collect()
}

#[test]
fn d1_fires_on_hash_collections_with_spans() {
    let d = scan_fixture("bad_d1.rs");
    assert_eq!(
        lines(&d, "d1-unordered-collections"),
        vec![3, 4, 7, 7, 16],
        "{d:#?}"
    );
    assert!(d.iter().all(|x| x.file == "crates/netsim/src/bad_d1.rs"));
}

#[test]
fn d2_fires_on_wallclock_and_rng_with_spans() {
    let d = scan_fixture("bad_d2.rs");
    assert_eq!(
        lines(&d, "d2-wallclock-rng"),
        vec![3, 4, 8, 9, 10, 10],
        "{d:#?}"
    );
}

#[test]
fn d3_fires_on_partial_cmp_sorts_with_spans() {
    let d = scan_fixture("bad_d3.rs");
    assert_eq!(lines(&d, "d3-float-partial-sort"), vec![6, 13], "{d:#?}");
}

#[test]
fn d4_fires_on_undocumented_unsafe_only() {
    let d = scan_fixture("bad_d4.rs");
    // Line 6: undocumented block; line 14: undocumented unsafe fn. The
    // `unsafe impl Send` on line 12 carries a SAFETY comment and passes.
    assert_eq!(lines(&d, "d4-unsafe-safety-comment"), vec![6, 14], "{d:#?}");
}

#[test]
fn d5_fires_on_locks_and_atomics_with_spans() {
    let d = scan_fixture("bad_d5.rs");
    assert_eq!(
        lines(&d, "d5-shared-state-sim-path"),
        vec![3, 4, 9, 10],
        "{d:#?}"
    );
}

#[test]
fn p1_fires_on_unwrap_and_expect_however_the_fn_is_called() {
    let d = scan_fixture("bad_p1.rs");
    // Lines 6–7 sit in a method; line 14 sits in `run_cold`, which only a
    // `static RUNNER: fn()` names — the shape of the experiment
    // registry's `run_*` entries, which a by-name call graph exempted.
    // The `.unwrap_or` fallback on line 8 is not a panic site at all.
    assert_eq!(lines(&d, "p1-sim-unwrap"), vec![6, 7, 14], "{d:#?}");
}

#[test]
fn p2_fires_on_panic_macros_not_asserts() {
    let d = scan_fixture("bad_p2.rs");
    // `panic!` (6), `unreachable!` (9) and the uncalled helper's `todo!`
    // (16); `assert!` and `debug_assert!` stay legal.
    assert_eq!(lines(&d, "p2-sim-panic"), vec![6, 9, 16], "{d:#?}");
}

#[test]
fn p3_fires_on_subscript_arithmetic_only() {
    let d = scan_fixture("bad_p3.rs");
    // `buf[head - 1]` (5), `buf[(head + 7) % buf.len()]` (6) and the
    // uncalled helper's copy (12); the plain `buf[head]` (7) stays silent.
    assert_eq!(lines(&d, "p3-sim-index-arith"), vec![5, 6, 12], "{d:#?}");
}

#[test]
fn s3_fires_on_cells_not_use_statements() {
    let d = scan_fixture("bad_s3.rs");
    // The `RefCell` field (4) and `Cell` field (5); the `use` statement
    // naming RefCell on line 2 is not a cell site.
    assert_eq!(
        lines(&d, "s3-sim-interior-mutability"),
        vec![4, 5],
        "{d:#?}"
    );
}

#[test]
fn every_rule_fires_somewhere_in_the_fixture_set() {
    let all: Vec<Diagnostic> = [
        "bad_d1.rs",
        "bad_d2.rs",
        "bad_d3.rs",
        "bad_d4.rs",
        "bad_d5.rs",
        "bad_p1.rs",
        "bad_p2.rs",
        "bad_p3.rs",
        "bad_s3.rs",
    ]
    .iter()
    .flat_map(|f| scan_fixture(f))
    .collect();
    for rule in remy_lint::rules::all() {
        assert!(
            all.iter().any(|d| d.rule == rule.id),
            "rule {} never fired on the fixture set",
            rule.id
        );
    }
}

#[test]
fn every_bad_fixture_on_disk_is_covered_and_fails() {
    // Every `bad_*.rs` on disk must actually produce at least one
    // diagnostic, or the negative control is dead.
    let dir = format!("{}/tests/fixtures", env!("CARGO_MANIFEST_DIR"));
    let mut saw = 0;
    for entry in std::fs::read_dir(&dir).expect("fixtures dir") {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_string_lossy().to_string();
        if !name.starts_with("bad_") || !name.ends_with(".rs") {
            continue;
        }
        saw += 1;
        let d = scan_fixture(&name);
        assert!(!d.is_empty(), "negative control {name} scanned clean");
    }
    assert!(saw >= 9, "expected the full bad_* suite, found {saw}");
}

#[test]
fn justified_allows_scan_clean() {
    let d = scan_fixture("allowed_ok.rs");
    assert!(d.is_empty(), "justified allows must suppress: {d:#?}");
}

#[test]
fn stale_allow_is_flagged_and_does_not_suppress() {
    let d = scan_fixture("allow_stale_rule.rs");
    // The justified directive names a rule that doesn't exist: reported
    // stale (6), and the `.unwrap()` it sits above still fires (7).
    assert_eq!(lines(&d, "lint-allow"), vec![6], "{d:#?}");
    assert_eq!(lines(&d, "p1-sim-unwrap"), vec![7], "{d:#?}");
}

#[test]
fn bare_allow_is_flagged_and_does_not_suppress() {
    let d = scan_fixture("allow_missing_justification.rs");
    assert_eq!(lines(&d, "lint-allow"), vec![4], "{d:#?}");
    assert_eq!(lines(&d, "d1-unordered-collections"), vec![5, 7], "{d:#?}");
}

#[test]
fn allow_that_suppresses_nothing_is_flagged() {
    let d = scan_fixture("allow_suppresses_nothing.rs");
    // The directive above a line with no `.unwrap()` (4) and the one in
    // `#[cfg(test)]` code, which p1 never reads (11); the live one (7)
    // suppresses its finding and is silent.
    assert_eq!(lines(&d, "lint-allow"), vec![4, 11], "{d:#?}");
    assert!(lines(&d, "p1-sim-unwrap").is_empty(), "{d:#?}");
}

#[test]
fn retired_effect_modes_are_unknown_flags() {
    for flag in ["--effects", "--pdes-report", "--reachable", "--scope-as"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_remy-lint"))
            .arg(flag)
            .output()
            .expect("remy-lint runs");
        assert_eq!(out.status.code(), Some(2), "{flag}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown flag {flag}")),
            "{flag}: {err}"
        );
    }
}

#[test]
fn json_is_only_for_the_allow_report() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_remy-lint"))
        .arg("--json")
        .output()
        .expect("remy-lint runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--json needs --allow-report"), "{err}");
}
