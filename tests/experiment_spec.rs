//! Integration: the declarative experiment layer — the committed spec
//! files that are the registry, and the `remy-cli run` entry point.

use netsim::json::{Value, Wire, WireError};
use remy::whisker::WhiskerTree;
use remy_sim::experiments;
use remy_sim::prelude::*;
use std::process::Command;

/// The committed spec for Fig. 4 (`every_embedded_spec_is_canonical_and_named_for_its_entry`
/// holds all 21 files to the canonical form).
const FIG4_GOLDEN: &str = include_str!("../specs/fig4.json");

/// The committed spec of a registry entry (`specs/<name>.json`).
fn golden(name: &str) -> String {
    let path = format!("{}/../../specs/{name}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn every_embedded_spec_is_canonical_and_named_for_its_entry() {
    // Each file parses under the strict format, names the entry that
    // embeds it, and is exactly what `to_json` prints — so `remy-cli spec
    // <name|file>` output diffs cleanly against the committed files. (That
    // the files and the registry names are the same set is
    // `experiments::tests::registry_has_all_twenty_one_experiments`.)
    for entry in experiments::all() {
        let text = golden(entry.name);
        let spec = ExperimentSpec::from_json(&text)
            .unwrap_or_else(|e| panic!("specs/{}.json does not parse: {e}", entry.name));
        assert_eq!(spec.name, entry.name, "specs/{}.json", entry.name);
        assert_eq!(spec, entry.committed_spec(), "{}: embedded", entry.name);
        assert_eq!(spec.to_json(), text, "specs/{}.json: canonical", entry.name);
    }
}

/// `remy-cli <args>`, which must succeed; its stdout.
fn cli_stdout(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_remy-cli"))
        .args(args)
        .output()
        .expect("spawn remy-cli");
    assert!(
        out.status.success(),
        "remy-cli {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

#[test]
fn a_registry_name_and_its_spec_file_run_the_same_bytes() {
    // Before the spec files became the registry, a name ran Rust builders
    // that knew what its file did not. On that build:
    //   run failover_chain --runs 1 --secs 6 --out csv        post-fail RTT 62.8 / 64.0 ms
    //   run specs/failover_chain.json --runs 1 --secs 6 ...   50.2 / 45.2 ms (the file's
    //     failure stayed at t = 15 s and never fired; a post-fail column was printed anyway)
    //   run fig6 --secs 6                    "ratio: 1.40x"
    //   run specs/fig6.json --secs 6         "0 pkt/s after ... ratio: 0.00x" (departure at 15 s)
    //   run fig3                             200 000 sampled flows
    //   run specs/fig3.json                  16
    let tiny = Budget {
        runs: 2,
        sim_secs: 3,
    };
    for entry in experiments::all() {
        assert_eq!(
            cli_stdout(&["spec", entry.name]),
            golden(entry.name),
            "`remy-cli spec {}` prints its file",
            entry.name
        );
        let mut from_file = ExperimentSpec::from_json(&golden(entry.name)).expect("parses");
        entry.rebudget(&mut from_file, tiny);
        let by_file = entry.run(&from_file).expect("runs from its file");
        let by_name = experiments::run_named(entry.name, tiny).expect("runs by name");
        assert_eq!(by_file.text, by_name.text, "{}", entry.name);
        assert_eq!(by_file.csv_name, by_name.csv_name, "{}", entry.name);
        assert_eq!(by_file.csv_header, by_name.csv_header, "{}", entry.name);
        assert_eq!(by_file.csv_rows, by_name.csv_rows, "{}", entry.name);
    }

    // The real CLI, on the three entries that diverged.
    let specs = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");
    let smoke = ["--runs", "1", "--secs", "6", "--out", "csv"];
    for (name, flags) in [
        ("fig6", &smoke[..]),
        ("failover_chain", &smoke[..]),
        ("fig3", &["--out", "csv"][..]),
    ] {
        let file = format!("{specs}/{name}.json");
        let by_name = cli_stdout(&[&["run", name], flags].concat());
        let by_file = cli_stdout(&[&["run", &file], flags].concat());
        assert!(by_name.lines().count() > 2, "{name}: printed rows");
        assert_eq!(by_name, by_file, "run {name} vs run specs/{name}.json");
    }
}

#[test]
fn golden_spec_parses_and_round_trips() {
    let spec = ExperimentSpec::from_json(FIG4_GOLDEN).expect("golden parses");
    assert_eq!(spec.name, "fig4");
    assert_eq!(spec.workload.n(), 8);
    assert_eq!(spec.contenders.len(), 9);
    assert_eq!(spec.to_json(), FIG4_GOLDEN, "parse ∘ print is identity");
}

#[test]
fn every_registered_spec_round_trips_through_json() {
    let tiny = Budget {
        runs: 2,
        sim_secs: 3,
    };
    for entry in experiments::all() {
        let spec = entry.spec(tiny);
        let text = spec.to_json();
        let back =
            ExperimentSpec::from_json(&text).unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        assert_eq!(back, spec, "{} round trip", entry.name);
        assert_eq!(back.to_json(), text, "{} stable serialization", entry.name);
    }
}

#[test]
fn user_authored_spec_executes_end_to_end() {
    // Hand-written JSON (different field order, no optional fields, human
    // number formats) must parse, round-trip, and run.
    let text = r#"{
        "name": "user_demo",
        "title": "user-authored dumbbell",
        "seed": 7,
        "budget": {"runs": 2, "sim_secs": 4},
        "workload": {
            "link": {"kind": "constant", "rate_mbps": 12},
            "queue_capacity": 500,
            "senders": {"n": 3, "rtt_ns": 100000000,
                        "traffic": {"on": {"kind": "by_bytes", "mean_bytes": 5e4},
                                    "off_mean_ns": 250000000, "start_on": false}},
            "record_deliveries": false
        },
        "contenders": ["newreno", "remy:delta1"],
        "sweeps": [{"axis": "link_mbps", "values": [6, 24]}]
    }"#;
    let spec = ExperimentSpec::from_json(text).expect("parse");
    let reparsed = ExperimentSpec::from_json(&spec.to_json()).expect("reparse");
    assert_eq!(reparsed, spec, "from_json ∘ to_json is lossless");
    let results = Experiment::new(spec).run().expect("runs");
    assert_eq!(results.cells.len(), 4, "2 sweep points x 2 contenders");
    for cell in &results.cells {
        assert!(
            cell.outcome.median_throughput_mbps > 0.0,
            "{} produced no throughput",
            cell.label
        );
    }
}

#[test]
fn remy_cli_runs_fig4_at_tiny_budget() {
    let out = Command::new(env!("CARGO_BIN_EXE_remy-cli"))
        .args(["run", "fig4", "--runs", "1", "--secs", "3"])
        .output()
        .expect("spawn remy-cli");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "remy-cli run fig4 failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("Fig. 4"), "report printed: {stdout}");
    assert!(stdout.contains("RemyCC d=1"), "contender rows: {stdout}");
    assert!(stdout.contains("(csv:"), "CSV written: {stdout}");
}

#[test]
fn remy_cli_lists_experiments_and_dumps_specs() {
    let list = Command::new(env!("CARGO_BIN_EXE_remy-cli"))
        .arg("list-experiments")
        .output()
        .expect("spawn");
    assert!(list.status.success());
    let text = String::from_utf8_lossy(&list.stdout);
    for entry in experiments::all() {
        assert!(text.contains(entry.name), "{} listed", entry.name);
    }

    let spec = Command::new(env!("CARGO_BIN_EXE_remy-cli"))
        .args(["spec", "fig4"])
        .output()
        .expect("spawn");
    assert!(spec.status.success());
    assert_eq!(
        String::from_utf8_lossy(&spec.stdout),
        FIG4_GOLDEN,
        "`remy-cli spec fig4` reproduces the checked-in golden"
    );
}

#[test]
fn spec_file_run_keeps_custom_presentation() {
    // A dumped registry spec must dispatch back through its entry's
    // custom runner: running fig3's spec produces the flow-length CDF,
    // not a generic throughput table from the documentation workload.
    let dir = std::env::temp_dir().join("remy_spec_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fig3.json");
    let spec = experiments::by_name("fig3").unwrap().spec(Budget {
        runs: 5000,
        sim_secs: 3,
    });
    std::fs::write(&path, spec.to_json()).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_remy-cli"))
        .args(["run", path.to_str().unwrap(), "--out", "csv"])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("bytes,empirical_cdf,closed_form_cdf"),
        "fig3 spec file must produce the CDF, got: {stdout}"
    );
}

#[test]
fn remy_cli_rejects_unknown_experiment_with_candidates_on_stderr() {
    // One resolver behind every subcommand that takes a name or a file.
    for cmd in ["run", "topo", "spec"] {
        let out = Command::new(env!("CARGO_BIN_EXE_remy-cli"))
            .args([cmd, "no_such_experiment_xyz"])
            .output()
            .expect("spawn remy-cli");
        assert_eq!(out.status.code(), Some(2), "{cmd}: usage-error exit code");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("no_such_experiment_xyz"),
            "{cmd} names the offender: {stderr}"
        );
        assert!(
            stderr.contains("known experiments"),
            "{cmd} offers candidates: {stderr}"
        );
        for name in ["fig4", "parking_lot3", "incast16", "reverse_path"] {
            assert!(
                stderr.contains(name),
                "{cmd}: candidates list {name}: {stderr}"
            );
        }
        assert!(
            out.stdout.is_empty(),
            "{cmd}: the candidate list belongs on stderr, not stdout"
        );
    }
}

#[test]
fn remy_cli_lists_bare_names_for_scripts() {
    let out = Command::new(env!("CARGO_BIN_EXE_remy-cli"))
        .args(["list-experiments", "--names"])
        .output()
        .expect("spawn remy-cli");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let names: Vec<&str> = stdout.lines().collect();
    assert_eq!(names.len(), experiments::all().len());
    for (line, entry) in names.iter().zip(experiments::all()) {
        assert_eq!(*line, entry.name, "bare names, registry order");
    }
}

#[test]
fn remy_cli_runs_a_topology_experiment_end_to_end() {
    let out = Command::new(env!("CARGO_BIN_EXE_remy-cli"))
        .args(["run", "reverse_path", "--runs", "1", "--secs", "3"])
        .output()
        .expect("spawn remy-cli");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Reverse path"), "report printed: {stdout}");
    assert!(stdout.contains("east tput"), "direction table: {stdout}");
}

#[test]
fn remy_cli_runs_a_spec_file() {
    let dir = std::env::temp_dir().join("remy_spec_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mini.json");
    let mut spec = ExperimentSpec::from_json(FIG4_GOLDEN).unwrap();
    spec.contenders.truncate(2); // keep the smoke run quick
    std::fs::write(&path, spec.to_json()).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_remy-cli"))
        .args([
            "run",
            path.to_str().unwrap(),
            "--runs",
            "1",
            "--secs",
            "3",
            "--out",
            "csv",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("scheme,median_tput_mbps"),
        "--out csv prints CSV: {stdout}"
    );
    assert_eq!(stdout.lines().count(), 3, "header + 2 contender rows");
}

#[test]
fn zero_budgets_are_rejected_by_name_before_anything_runs() {
    // A zero in the budget simulates nothing; it must not reach a report.
    for (field, doc) in [
        ("runs", r#"{"runs": 0, "sim_secs": 4}"#),
        ("sim_secs", r#"{"runs": 2, "sim_secs": 0}"#),
    ] {
        let v = netsim::json::parse(doc).expect("valid JSON");
        let err = Budget::from_json_value(&v).expect_err("zero budget rejected");
        assert_eq!(err.path, field, "{err}");
    }

    let dir = std::env::temp_dir().join("remy_spec_zero_budget_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("zero_runs.json");
    let text = FIG4_GOLDEN.replacen("\"runs\": 16", "\"runs\": 0", 1);
    assert_ne!(text, FIG4_GOLDEN, "the golden's budget was rewritten");
    std::fs::write(&path, text).unwrap();

    let cases: [(&[&str], &str); 7] = [
        (&["run", "fig4", "--runs", "0"], "--runs"),
        (&["run", "fig4", "--secs", "0"], "--secs"),
        (&["run", path.to_str().unwrap(), "--out", "csv"], "runs"),
        (&["eval", "delta1", "1", "0", "5"], "specimens"),
        // δ weighs delay in the objective: an unparsable, NaN or negative
        // one must not be scored as if it were the default.
        (&["eval", "delta1", "abc", "2", "2"], "delta"),
        (&["eval", "delta1", "nan", "2", "2"], "delta"),
        (&["eval", "delta1", "-3", "2", "2"], "delta"),
    ];
    for (args, field) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_remy-cli"))
            .args(args)
            .output()
            .expect("spawn remy-cli");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} exits as a usage error"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(field), "{args:?} names {field}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{args:?}: no report, score or CSV line is printed"
        );
    }
}

/// Push a stray key `zz` into the `nth` object of `v` (depth-first; `v`
/// itself sits at `path`) and return the stray key's path from the root;
/// `None` once `v` has fewer objects than that.
fn add_stray_key(v: &mut Value, nth: &mut usize, path: &str) -> Option<String> {
    let join = |step: &str| match (path, step.starts_with('[')) {
        ("", _) | (_, true) => format!("{path}{step}"),
        _ => format!("{path}.{step}"),
    };
    match v {
        Value::Obj(fields) if *nth == 0 => {
            fields.push(("zz".to_string(), Value::Null));
            Some(join("zz"))
        }
        Value::Obj(fields) => {
            *nth -= 1;
            fields
                .iter_mut()
                .find_map(|(key, child)| add_stray_key(child, nth, &join(key)))
        }
        Value::Arr(items) => items
            .iter_mut()
            .enumerate()
            .find_map(|(i, child)| add_stray_key(child, nth, &join(&format!("[{i}]")))),
        _ => None,
    }
}

/// Put a stray key into each object of `doc` in turn and hand `read` the
/// edited document; `read` must reject it with an error at that key's
/// path, i.e. naming the object the key went into. Returns the number of
/// objects walked.
fn reject_every_stray_key(doc: &Value, read: impl Fn(&Value) -> Result<(), WireError>) -> usize {
    for nth in 0.. {
        let mut bad = doc.clone();
        let Some(path) = add_stray_key(&mut bad, &mut { nth }, "") else {
            return nth;
        };
        let err = read(&bad).expect_err(&format!("object {nth} accepts a stray key at {path}"));
        assert_eq!(err.path, path, "{err}");
        assert!(err.reason.starts_with("unknown key"), "{err}");
    }
    unreachable!("the walk ends when the objects do")
}

#[test]
fn unknown_spec_keys_are_rejected_by_name_before_anything_runs() {
    // A misspelled optional key must not fall back to its default and
    // still print numbers. Exhaustively: a stray key in any one object of
    // any golden fails the parse, naming the key by its path from the
    // root. (Every object of the format occurs in the goldens.)
    for entry in experiments::all() {
        let doc = netsim::json::parse(&golden(entry.name)).expect("golden is JSON");
        let read = |v: &Value| ExperimentSpec::from_json_value(v).map(drop);
        let walked = reject_every_stray_key(&doc, read);
        assert!(walked > 5, "{}: walked every object", entry.name);
    }

    // End to end, at the top, workload and topology levels: `remy-cli run`
    // exits 2 naming the key (`sweep` for `sweeps` used to drop the whole
    // loss grid and print a three-row table).
    let dir = std::env::temp_dir().join("remy_spec_unknown_key_test");
    std::fs::create_dir_all(&dir).unwrap();
    for (name, key, path) in [
        ("ablation_loss", "sweeps", "sweep"),
        ("fig4", "senders", "workload.sender"),
        ("parking_lot3", "paths", "workload.topology.path"),
        ("failover_chain", "policy", "workload.topology.polcy"),
    ] {
        let typo = path.rsplit('.').next().unwrap();
        let text = golden(name).replacen(&format!("\"{key}\""), &format!("\"{typo}\""), 1);
        let file = dir.join(format!("{name}.json"));
        std::fs::write(&file, text).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_remy-cli"))
            .args(["run", file.to_str().unwrap(), "--runs", "1", "--secs", "2"])
            .output()
            .expect("spawn remy-cli");
        assert_eq!(out.status.code(), Some(2), "{name}: exits as a usage error");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let message = format!("{path}: unknown key");
        assert!(stderr.contains(&message), "{name}: {stderr}");
        assert!(out.stdout.is_empty(), "{name}: no report is printed");
    }
}

#[test]
fn removed_kinds_are_refused_by_key_path() {
    // The format has no `chain` or `waxman` generator, no `rtt_ms` or
    // `n_senders` sweep axis and no `drop` failover policy. A document
    // naming one fails the parse at that key, in the library and as a
    // `remy-cli run` usage error, rather than running something else.
    let generator = r#""kind": "fat_tree_k4""#;
    let sweeps = r#""sweeps": []"#;
    let dir = std::env::temp_dir().join("remy_spec_removed_kind_test");
    std::fs::create_dir_all(&dir).unwrap();
    for (name, from, to, path) in [
        (
            "fattree_k4_crosstraffic",
            generator,
            r#""kind": "waxman", "n": 8, "alpha": 0.9, "beta": 0.5, "seed": 7"#,
            "workload.topology.generator.kind",
        ),
        (
            "fattree_k4_crosstraffic",
            generator,
            r#""kind": "chain", "n_links": 3"#,
            "workload.topology.generator.kind",
        ),
        (
            "fig4",
            sweeps,
            r#""sweeps": [{"axis": "rtt_ms", "values": [50, 150]}]"#,
            "sweeps[0].axis",
        ),
        (
            "fig4",
            sweeps,
            r#""sweeps": [{"axis": "n_senders", "values": [2, 4]}]"#,
            "sweeps[0].axis",
        ),
        (
            "failover_chain",
            r#""policy": "reroute""#,
            r#""policy": "drop""#,
            "workload.topology.policy",
        ),
    ] {
        let text = golden(name).replacen(from, to, 1);
        assert!(text.contains(to), "{name}: edited");
        let err = ExperimentSpec::from_json(&text).expect_err(to);
        assert_eq!(err.path, path, "{to}: {err}");

        let file = dir.join(format!("{name}.json"));
        std::fs::write(&file, text).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_remy-cli"))
            .args(["run", file.to_str().unwrap(), "--runs", "1", "--secs", "2"])
            .output()
            .expect("spawn remy-cli");
        assert_eq!(out.status.code(), Some(2), "{to}: exits as a usage error");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("{path}: ")), "{to}: {stderr}");
        assert!(out.stdout.is_empty(), "{to}: no report is printed");
    }

    // Nor is `compare` a command.
    let out = Command::new(env!("CARGO_BIN_EXE_remy-cli"))
        .args(["compare", "delta1", "delta01"])
        .output()
        .expect("spawn remy-cli");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("usage:"));
    assert!(out.stdout.is_empty());
}

#[test]
fn oversized_sender_counts_are_refused_by_key_path() {
    // A uniform `senders.n` past what a simulation can address (a flow id
    // holds a u32 slot index) used to abort the process on allocation,
    // before anything checked it. It fails the parse at that key, in the
    // library and as a `remy-cli run` usage error.
    let dir = std::env::temp_dir().join("remy_spec_sender_count_test");
    std::fs::create_dir_all(&dir).unwrap();
    for n in ["1e15", "4294967297"] {
        let text = FIG4_GOLDEN.replacen(r#""n": 8"#, &format!(r#""n": {n}"#), 1);
        assert!(text.contains(&format!(r#""n": {n}"#)), "{n}: edited");
        let err = ExperimentSpec::from_json(&text).expect_err(n);
        assert_eq!(err.path, "workload.senders.n", "{n}: {err}");

        let file = dir.join(format!("n_{n}.json"));
        std::fs::write(&file, text).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_remy-cli"))
            .args(["run", file.to_str().unwrap(), "--runs", "1", "--secs", "2"])
            .output()
            .expect("spawn remy-cli");
        assert_eq!(out.status.code(), Some(2), "{n}: exits as a usage error");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("workload.senders.n: "), "{n}: {stderr}");
        assert!(out.stdout.is_empty(), "{n}: no report is printed");
    }
}

/// `text` with the first `"key": value` pair past byte `from` written
/// twice in its object.
fn duplicate_key_after(text: &str, from: usize, key: &str) -> String {
    let start = from
        + text[from..]
            .find(&format!("\"{key}\""))
            .expect("key after from");
    let end = start + text[start..].find([',', '\n']).expect("pair ends");
    let pair = &text[start..end];
    format!("{}{pair}, {}", &text[..start], &text[start..])
}

#[test]
fn duplicate_keys_are_rejected_by_path() {
    // A second value under one key used to be read past silently: the
    // first won. At the top level, as a `remy-cli run` usage error too.
    let text = duplicate_key_after(FIG4_GOLDEN, 0, "seed");
    assert_eq!(text.matches("\"seed\"").count(), 2, "seed written twice");
    let err = ExperimentSpec::from_json(&text).expect_err("duplicate top-level key");
    assert_eq!(err.to_string(), "seed: duplicate key");

    let dir = std::env::temp_dir().join("remy_spec_duplicate_key_test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("fig4.json");
    std::fs::write(&file, &text).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_remy-cli"))
        .args(["run", file.to_str().unwrap(), "--runs", "1", "--secs", "2"])
        .output()
        .expect("spawn remy-cli");
    assert_eq!(out.status.code(), Some(2), "exits as a usage error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("seed: duplicate key"), "{stderr}");
    assert!(out.stdout.is_empty(), "no report is printed");

    // Deep inside the benchmark's flapping fat tree: its fourth event.
    let flap = format!(
        "{}/../../benchmark/inputs/fattree_flap.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let flap = std::fs::read_to_string(&flap).unwrap_or_else(|e| panic!("{flap}: {e}"));
    let events = flap.find("\"events\"").expect("the spec schedules events");
    let fourth = events + flap[events..].match_indices("\"at_ns\"").nth(3).unwrap().0;
    let text = duplicate_key_after(&flap, fourth, "from");
    let err = ExperimentSpec::from_json(&text).expect_err("duplicate key in an event");
    assert_eq!(err.path, "workload.topology.events[3].from", "{err}");
    assert_eq!(err.reason, "duplicate key");
    ExperimentSpec::from_json(&flap).expect("the committed input parses");
}

#[test]
fn expanded_scenarios_equal_resolving_every_run_alone() {
    // `expand` routes a graph once per sweep point and applies each
    // contender's discipline to the routed hops; resolving each run's
    // workload from scratch must give the same scenario, graph included.
    // A loss point's lossy queue carries a per-run seed, forked per hop.
    let lossy = |name: &str| {
        let mut spec = ExperimentSpec::from_json(&golden(name)).expect("golden parses");
        spec.sweeps = vec![SweepAxis::LossRate(vec![0.0, 0.01])];
        spec
    };
    for (name, mut spec, points) in ["fattree_k4_crosstraffic", "failover_chain"]
        .map(|name| (name, ExperimentSpec::from_json(&golden(name)).unwrap(), 1))
        .into_iter()
        .chain([(
            "fattree_k4_crosstraffic + loss",
            lossy("fattree_k4_crosstraffic"),
            2,
        )])
    {
        spec.budget.runs = 3;
        let cells = spec.expand().expect("expands");
        assert_eq!(cells.len(), points * spec.contenders.len(), "{name}");
        for cell in &cells {
            let (wl, loss) = spec.workload_at(&cell.point).expect("point");
            let point_seed = spec.point_seed(cell.point_index);
            assert_eq!(cell.scenarios.len(), 3);
            for (k, expanded) in cell.scenarios.iter().enumerate() {
                let run_seed = netsim::rng::SimRng::split_seed(point_seed, k as u64);
                let queue = match loss {
                    Some(p) => QueueSpec::LossyDropTail {
                        capacity: wl.queue_capacity,
                        drop_probability: p,
                        seed: netsim::rng::SimRng::split_seed(run_seed, u64::from(u32::MAX)),
                    },
                    None => cell.contender.queue_spec(wl.queue_capacity),
                };
                let alone = wl
                    .scenario(queue, spec.budget.duration(), run_seed)
                    .expect("resolves");
                let (a, b) = (
                    expanded.topology.as_ref().expect("topology"),
                    alone.topology.as_ref().expect("topology"),
                );
                assert_eq!(a.paths, b.paths, "{name} run {k}: paths");
                assert_eq!(
                    format!("{:?}", a.hops),
                    format!("{:?}", b.hops),
                    "{name} run {k}: hops"
                );
                assert!(a.graph().is_some(), "{name}: routed on a graph");
                assert_eq!(a.graph(), b.graph(), "{name} run {k}: graph");
                assert_eq!(
                    format!("{expanded:?}"),
                    format!("{alone:?}"),
                    "{name} run {k}"
                );
            }
        }
    }
}

/// The rule tables the repository ships (`crates/core/assets`) and the
/// benchmark reads (`benchmark/inputs/tables`, read only), with their text.
fn every_table() -> Vec<(String, String)> {
    let root = format!("{}/../..", env!("CARGO_MANIFEST_DIR"));
    let mut tables = Vec::new();
    for dir in ["crates/core/assets", "benchmark/inputs/tables"] {
        let entries = std::fs::read_dir(format!("{root}/{dir}")).expect(dir);
        let mut paths: Vec<_> = entries.map(|e| e.expect(dir).path()).collect();
        paths.sort();
        for path in paths {
            let text = std::fs::read_to_string(&path).expect("readable table");
            let name = path.file_name().expect("file").to_string_lossy();
            tables.push((format!("{dir}/{name}"), text));
        }
    }
    assert_eq!(tables.len(), 12, "7 shipped + 5 benchmark tables");
    tables
}

#[test]
fn unknown_table_keys_are_rejected_by_path() {
    // The rule-table reader is as strict as the spec reader: a stray key
    // in any object of any table names itself from the root.
    for (path, text) in every_table() {
        let doc = netsim::json::parse(&text).expect("table is JSON");
        let read = |v: &Value| WhiskerTree::from_json_value(v).map(drop);
        let walked = reject_every_stray_key(&doc, read);
        assert!(walked >= 7, "{path}: walked every object");
    }
}

#[test]
fn every_table_round_trips_byte_for_byte() {
    for (path, text) in every_table() {
        let table = WhiskerTree::from_json(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(table.to_json(), text, "{path}");
    }
}

/// One line per registry entry: `name fnv1a64(text, csv_header, csv_rows)`
/// at `Budget { runs: 2, sim_secs: 3 }`, generated at the commit before the
/// table renderer in `experiments.rs` was introduced.
const REPORT_DIGESTS: &str = include_str!("report_digests.txt");

#[test]
fn every_registry_report_is_byte_identical_to_its_committed_digest() {
    // The other report tests check `contains("==")` and row counts; this
    // one pins every byte of every entry's text and CSV, so a change to a
    // column width, a precision or a header shows up as a named entry.
    fn fnv1a64(parts: &[&str]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for part in parts {
            // The 0xff terminator keeps ("ab", "c") apart from ("a", "bc").
            for &b in part.as_bytes().iter().chain(&[0xff]) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
    let tiny = Budget {
        runs: 2,
        sim_secs: 3,
    };
    let fresh: String = experiments::all()
        .iter()
        .map(|entry| {
            let rep = experiments::run_named(entry.name, tiny)
                .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
            let mut parts = vec![rep.text.as_str(), rep.csv_header.as_str()];
            parts.extend(rep.csv_rows.iter().map(String::as_str));
            format!("{} {:016x}\n", entry.name, fnv1a64(&parts))
        })
        .collect();
    for (got, want) in fresh.lines().zip(REPORT_DIGESTS.lines()) {
        assert_eq!(got, want, "report bytes changed");
    }
    assert_eq!(fresh, REPORT_DIGESTS, "one digest per registry entry");
}
