//! Integration: the complete Remy pipeline — design a table with a tiny
//! budget, serialize it, reload it, and run it in the simulator.

use remy_sim::prelude::*;
use std::process::Command;
use std::sync::Arc;

#[test]
fn design_serialize_reload_run() {
    // 1. Design with a deterministic micro-budget.
    let remy = Remy::new(
        NetworkModel::general(),
        Objective::proportional(1.0),
        TrainConfig {
            eval: EvalConfig {
                specimens: 2,
                sim_secs: 4.0,
            },
            wall_secs: 60.0,
            max_steps: 2,
            max_rules: 16,
            seed: 5,
        },
    );
    let table = remy.design(|_| {});
    // 2. Serialize and reload.
    let json = table.to_json();
    let reloaded = WhiskerTree::from_json(&json).expect("round trip");
    assert_eq!(reloaded.len(), table.len());
    // 3. Run it on a dumbbell.
    let tree = Arc::new(reloaded);
    let scenario = Scenario::dumbbell(
        LinkSpec::constant(15.0),
        QueueSpec::DropTail { capacity: 1000 },
        2,
        Ns::from_millis(150),
        TrafficSpec::saturating(),
        Ns::from_secs(15),
        2,
    );
    let r = run_scenario(&scenario, &|_| Box::new(RemyCc::new(Arc::clone(&tree))));
    assert!(r.flows[0].bytes > 100_000, "trained table must move data");
}

#[test]
fn optimizer_beats_a_crippled_starting_point() {
    // Evaluate the shipped (trained) delta1 table against the naive
    // single-rule default on design-range specimens: training must not
    // have made things worse.
    let evaluator = Evaluator::new(
        NetworkModel::general(),
        Objective::proportional(1.0),
        EvalConfig {
            specimens: 4,
            sim_secs: 10.0,
        },
    );
    let specimens = evaluator.specimens(77);
    let trained = remy::designs::by_name("delta1").unwrap().table();
    let naive = Arc::new(WhiskerTree::single_rule());
    let trained_score = evaluator.score(&trained, &specimens);
    let naive_score = evaluator.score(&naive, &specimens);
    assert!(
        trained_score >= naive_score,
        "trained {trained_score} must be >= naive {naive_score}"
    );
}

#[test]
fn shipped_tables_run_on_their_design_scenarios() {
    // Every registered table, on one specimen of the prior it was trained
    // for, at the simulation length it was trained at.
    for d in remy::designs::all() {
        let table = d.table();
        let scenario = d
            .model
            .sample(&mut SimRng::new(8), Ns::from_secs_f64(d.eval.sim_secs));
        let r = run_scenario(&scenario, &|_| Box::new(RemyCc::new(Arc::clone(&table))));
        let total: u64 = r.flows.iter().map(|f| f.bytes).sum();
        assert!(total > 100_000, "{}: moved only {total} bytes", d.name);
    }
}

#[test]
fn remycc_converges_quickly_after_competitor_departs() {
    // Fig. 6's dynamic: with a competitor gone, the survivor's delivery
    // rate must rise substantially within a couple of seconds.
    let table = remy::designs::by_name("delta1").unwrap().table();
    let mut scenario = Scenario::dumbbell(
        LinkSpec::constant(15.0),
        QueueSpec::DropTail { capacity: 1000 },
        2,
        Ns::from_millis(150),
        TrafficSpec::saturating(),
        Ns::from_secs(20),
        6,
    )
    .with_delivery_log();
    scenario.senders[1].traffic = TrafficSpec {
        on: OnSpec::ByTimeFixed {
            duration: Ns::from_secs(10),
        },
        off_mean: Ns::from_secs(10_000),
        start_on: true,
    };
    let r = run_scenario(&scenario, &|_| Box::new(RemyCc::new(Arc::clone(&table))));
    let rate = |from_s: u64, to_s: u64| {
        r.deliveries
            .iter()
            .filter(|d| d.flow == 0 && d.at >= Ns::from_secs(from_s) && d.at < Ns::from_secs(to_s))
            .count() as f64
            / (to_s - from_s) as f64
    };
    let before = rate(7, 10);
    let after = rate(12, 15);
    // The paper's fully-trained tables double the rate within ~1 RTT
    // (Fig. 6). Laptop-budget tables learn a coarser pacing floor, so we
    // require a clear speed-up rather than a full doubling; the fig6
    // harness reports the measured ratio (see EXPERIMENTS.md).
    assert!(
        after > before * 1.1,
        "survivor should speed up: {before:.0} -> {after:.0} pkt/s"
    );
}

#[test]
fn usage_statistics_flow_through_evaluation() {
    let evaluator = Evaluator::new(
        remy::designs::by_name("onex").unwrap().model.clone(),
        Objective::proportional(1.0),
        EvalConfig {
            specimens: 2,
            sim_secs: 5.0,
        },
    );
    let tree = Arc::new(WhiskerTree::single_rule());
    let specimens = evaluator.specimens(3);
    let (_, usage) = evaluator.evaluate(&tree, &specimens);
    assert!(usage.total() > 100, "ACK-driven lookups must register");
    assert!(usage.median_memory(0).is_some());
}

/// `remy-cli train <args>`: exit code, stdout, stderr.
fn train(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_remy-cli"))
        .arg("train")
        .args(args)
        .output()
        .expect("spawn remy-cli");
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    (out.status.code(), text(&out.stdout), text(&out.stderr))
}

/// A fresh, empty directory under the system temp dir.
fn scratch_dir(name: &str) -> String {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.to_str().expect("UTF-8 temp dir").to_string()
}

#[test]
fn train_continue_never_restarts_over_a_table_it_cannot_read() {
    // Was: fall back to a single rule, train, overwrite the file, exit 0.
    let dir = scratch_dir("remy_train_continue_test");
    let path = format!("{dir}/delta1.json");
    std::fs::write(&path, "{ not json").unwrap();
    let (code, stdout, stderr) = train(&["delta1", "999999", &dir, "--steps", "1", "--continue"]);
    assert_eq!(code, Some(2), "{stderr}");
    let names_file_and_error = stderr.contains(&path) && stderr.contains("parse");
    assert!(names_file_and_error, "{stderr}");
    assert!(stdout.is_empty(), "nothing was simulated: {stdout}");
    assert_eq!(std::fs::read_to_string(&path).unwrap(), "{ not json");
}

#[test]
fn train_refuses_a_bad_request_before_spending_the_budget() {
    let dir = scratch_dir("remy_train_refusal_test");
    let names = remy::designs::names();
    let cases: [(&[&str], &str); 5] = [
        // Was: an unparsable budget silently meant the 480 s default.
        (&["delta1", "10m"], "wall_secs needs a number"),
        // Was: a one-rule table with `steps=0` provenance, written over the asset.
        (&["delta1", "999999", &dir, "--steps", "0"], "--steps"),
        // Was: a panic with a backtrace, after the whole run.
        (
            &["delta1", "9", "/no/such/dir", "--steps", "1"],
            "/no/such/dir/delta1.json",
        ),
        (&["no_such"], &names),
        // Nothing to continue from is refused like a corrupt table.
        (
            &["delta1", "9", &dir, "--steps", "1", "--continue"],
            "cannot read",
        ),
    ];
    for (args, needle) in cases {
        let (code, stdout, stderr) = train(args);
        assert_eq!(code, Some(2), "{args:?} exits as a usage error: {stderr}");
        assert!(stderr.contains(needle), "{args:?} says {needle}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(
            stdout.is_empty(),
            "{args:?}: nothing was simulated: {stdout}"
        );
    }
    let written = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(written, 0, "a refused request writes nothing");
}

#[test]
fn train_continue_resumes_from_the_destination_and_replaces_it() {
    // The destination starts as the shipped table followed by padding a
    // JSON reader ignores, so it is longer than anything one more step can
    // produce: the write must replace the file, not overlay its head.
    let dir = scratch_dir("remy_train_roundtrip_test");
    let path = format!("{dir}/onex.json");
    let shipped = remy::designs::by_name("onex").unwrap().table();
    std::fs::write(&path, shipped.to_json() + &"\n".repeat(4096)).unwrap();
    let (code, stdout, stderr) = train(&["onex", "999999", &dir, "--steps", "1", "--continue"]);
    assert_eq!(code, Some(0), "{stderr}");
    let resumed = format!("continuing from {path} (8 rules)");
    assert!(stdout.contains(&resumed), "{stdout}");
    let text = std::fs::read_to_string(&path).unwrap();
    let table = WhiskerTree::from_json(&text).expect("a whole table");
    assert_eq!(text, table.to_json(), "exactly the table, no stale tail");
    assert!(table.provenance.contains("steps=1, rules=8,"), "{text}");
}
