//! Workspace self-cleanliness gate: `remy-lint` must report zero
//! diagnostics on the tree this test ships with.
//!
//! This is the in-process twin of `scripts/lint_gate.sh` — running the
//! analyzer as a library call means `cargo test` alone (no shell, no
//! built binary) already refuses a tree that reintroduces a HashMap in
//! the sim path, an undocumented `unsafe`, or a bare `lint:allow`
//! without justification. The seeded-violation coverage (each rule
//! firing with the right spans) lives in `crates/lint/tests/fixtures.rs`.

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
    assert!(
        entries.len() >= 30,
        "expected the tree's full allow inventory, found {}",
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
    for family in ["p1-", "p2-", "r2-"] {
        assert!(
            entries.iter().any(|e| e.rule.starts_with(family)),
            "no {family}* allows in the report — collector lost a family"
        );
    }
}

#[test]
fn callgraph_scope_is_a_superset_of_the_old_path_scope() {
    // remy-lint v1 scoped sim rules purely by path: every file under a
    // sim crate's `src/`. v2 scopes the P/R/S families by call-graph
    // reachability from the simulation entry points. This pins the
    // migration invariant — every file the old path scope covered still
    // defines at least one sim-reachable function — modulo the pinned
    // exceptions below: module-declaration files with no function bodies
    // of their own, and host-side trace-file I/O nothing in a simulation
    // root calls. Growing this list is a deliberate act, not drift.
    const KNOWN_UNREACHABLE: &[&str] = &[
        "crates/core/src/lib.rs",
        "crates/netsim/src/lib.rs",
        "crates/remy-sim/src/lib.rs",
        "crates/traces/src/io.rs",
        "crates/traces/src/lib.rs",
    ];
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let analysis = remy_lint::analyze_workspace(&root).expect("analysis builds");
    let covered: std::collections::BTreeSet<String> = analysis
        .reachable_fns()
        .into_iter()
        .map(|(f, _, _)| f)
        .collect();
    for f in &analysis.files {
        let p = f.path.as_str();
        if !remy_lint::rules::prs_scope(p) {
            continue;
        }
        if KNOWN_UNREACHABLE.contains(&p) {
            assert!(
                !covered.contains(p),
                "{p} is pinned unreachable but now has reachable functions \
                 — remove it from KNOWN_UNREACHABLE"
            );
            continue;
        }
        assert!(
            covered.contains(p),
            "{p} was in the old path scope but the call graph reaches \
             nothing in it — a root or edge kind regressed"
        );
    }
}

#[test]
fn hot_path_functions_stay_sim_reachable() {
    // A curated set of functions that must remain visible to the P/R/S
    // families; losing any of these means the call graph silently
    // stopped covering a whole subsystem.
    const MUST_REACH: &[(&str, &str)] = &[
        ("crates/netsim/src/sim.rs", "Simulator::on_ack_arrive"),
        ("crates/netsim/src/sched.rs", "TimingWheel::pop"),
        ("crates/netsim/src/transport.rs", "Transport::update_rtt"),
        ("crates/netsim/src/stats.rs", "StreamingSummary::observe"),
        ("crates/netsim/src/flow.rs", "FlowTable::respawn"),
        ("crates/netsim/src/rng.rs", "SimRng::fork"),
        ("crates/core/src/remycc.rs", "RemyCc::on_ack"),
        ("crates/core/src/whisker.rs", "WhiskerTree::flat"),
        ("crates/core/src/evaluator.rs", "Evaluator::simulate_cell"),
        ("crates/core/src/optimizer.rs", "Remy::design"),
    ];
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let analysis = remy_lint::analyze_workspace(&root).expect("analysis builds");
    let reachable = analysis.reachable_fns();
    for (file, name) in MUST_REACH {
        assert!(
            reachable.iter().any(|(f, n, _)| f == file && n == name),
            "{file}: {name} is no longer sim-reachable"
        );
    }
}
