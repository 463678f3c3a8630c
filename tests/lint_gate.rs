//! Workspace self-cleanliness gate: `remy-lint` must report zero
//! diagnostics on the tree this test ships with.
//!
//! Running the analyzer as a library call means `cargo test` alone (no
//! shell, no built binary) already refuses a tree that reintroduces a
//! HashMap in the sim path, an undocumented `unsafe`, or a bare
//! `lint:allow` without justification; `scripts/lint_gate.sh` runs this
//! file and adds only the dynamic lanes. The seeded-violation coverage
//! (each rule firing with the right spans) lives in
//! `crates/lint/tests/fixtures.rs`.

use remy_lint::lexer::TokKind;
use std::path::Path;

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let diags = remy_lint::scan_workspace(&root).expect("workspace scan succeeds");
    assert!(
        diags.is_empty(),
        "remy-lint found {} diagnostic(s) in the workspace:\n{}",
        diags.len(),
        remy_lint::render_human(&diags)
    );
}

#[test]
fn every_allow_directive_in_tree_is_justified() {
    // `scan_workspace` already folds bare allows into the diagnostic
    // stream (rule `lint-allow`), but assert the property by name so a
    // regression in that folding is caught even if the tree is otherwise
    // clean.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let diags = remy_lint::scan_workspace(&root).expect("workspace scan succeeds");
    let bare: Vec<_> = diags.iter().filter(|d| d.rule == "lint-allow").collect();
    assert!(
        bare.is_empty(),
        "unjustified lint:allow directives: {bare:#?}"
    );
}

#[test]
fn allow_report_lists_every_directive_with_justification() {
    // The `--allow-report` CI artifact is the reviewable sign-off list:
    // every directive must carry a justification and name a rule that
    // still exists. An empty report would mean the collector broke —
    // the tree carries justified allows by design.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let entries = remy_lint::allow_report(&root).expect("allow report builds");
    // The inventory's size, worked out apart from the collector: the
    // comment tokens that open with a directive once their one comment
    // opener is stripped (a doc line quoting `// lint:allow(…)` is prose),
    // over the files the report scans. A collector that drops or invents
    // entries fails here whatever the tree's count is.
    let opens_with_directive = |text: &str| {
        ["///", "//!", "//", "/**", "/*!", "/*"]
            .iter()
            .find_map(|opener| text.strip_prefix(opener))
            .is_some_and(|body| body.trim_start().starts_with("lint:allow("))
    };
    let files = remy_lint::read_workspace_files(&root).expect("workspace walk succeeds");
    let directives = files
        .iter()
        .flat_map(|(_, text)| remy_lint::lexer::lex(text))
        .filter(|t| t.kind == TokKind::Comment && opens_with_directive(&t.text))
        .count();
    assert_eq!(
        entries.len(),
        directives,
        "the allow report lists {} of the tree's {directives} directives",
        entries.len()
    );
    for e in &entries {
        assert!(e.justified, "bare allow escaped the gate: {e:?}");
        assert!(e.known_rule, "stale rule id escaped the gate: {e:?}");
        assert!(
            e.justification.len() >= 8,
            "thin justification escaped: {e:?}"
        );
    }
    // The report must cover every rule family we rely on allows for.
    // (The s3 inventory was burned down when `WhiskerTree` dropped its
    // `OnceLock` cache for an eager flat handle.)
    for family in ["p1-", "p2-", "d2-"] {
        assert!(
            entries.iter().any(|e| e.rule.starts_with(family)),
            "no {family}* allows in the report — collector lost a family"
        );
    }
}

#[test]
fn every_sim_crate_source_file_is_in_scope() {
    // One path predicate scopes every rule but d4, so coverage holds by
    // construction: whatever sits under a sim crate's `src/` is checked,
    // however it is called — the `run_*` experiment runners behind the
    // registry's fn pointers included. Walk the real tree and hold the
    // predicate (and every rule's `applies`) to that.
    const SIM_CRATES: [&str; 4] = ["netsim", "congestion", "core", "remy-sim"];
    const MUST_BE_IN: [&str; 6] = [
        "crates/remy-sim/src/experiments.rs",
        "crates/netsim/src/par.rs",
        "crates/remy-sim/src/spec.rs",
        "crates/netsim/src/json.rs",
        "crates/remy-sim/src/traces.rs",
        "crates/remy-sim/src/bin/remy-cli.rs",
    ];
    const MUST_BE_OUT: [&str; 4] = ["crates/lint/", "benchmark/", "tests/", "examples/"];
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let files = remy_lint::read_workspace_files(&root).expect("workspace walk succeeds");
    let paths: Vec<&str> = files.iter().map(|(p, _)| p.as_str()).collect();
    for must in MUST_BE_IN {
        assert!(paths.contains(&must), "{must} is missing from the walk");
    }
    for prefix in MUST_BE_OUT {
        assert!(
            paths.iter().any(|p| p.starts_with(prefix)),
            "no file under {prefix} in the walk"
        );
    }
    for p in paths {
        let expect = SIM_CRATES
            .iter()
            .any(|c| p.starts_with(&format!("crates/{c}/src/")));
        assert_eq!(remy_lint::rules::sim_crate_src(p), expect, "{p}");
        for rule in remy_lint::rules::all() {
            let everywhere = rule.id == "d4-unsafe-safety-comment";
            assert_eq!(
                (rule.applies)(p),
                expect || everywhere,
                "{} on {p}",
                rule.id
            );
        }
    }
}
