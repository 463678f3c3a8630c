//! `remy-cli` — run experiments and train, inspect, evaluate, and compare
//! RemyCC rule tables.
//!
//! ```text
//! remy-cli run <name|spec.json> [--runs N] [--secs S] [--out csv]
//! remy-cli list-experiments [--names]     # the named experiment registry
//! remy-cli spec <name|spec.json> [--runs N] [--secs S]  # print the canonical JSON spec
//! remy-cli topo <name|spec.json>          # dump a resolved topology graph
//! remy-cli list                           # the registered RemyCC designs
//! remy-cli train <name> [wall_secs] [out_dir] [--steps N] [--continue]
//! remy-cli inspect <table>                # annotated rule dump
//! remy-cli eval <table> [delta] [specimens] [secs]  # score on its design model
//! remy-cli compare <tableA> <tableB> [runs] [secs]  # head-to-head on Fig. 4
//! ```
//!
//! `<table>` is either a registered design (`remy-cli list`, i.e.
//! `remy::designs`) or a path to a JSON rule table written by `train` or
//! `Remy::design`. `inspect` and `eval` judge a registered design by its
//! own entry — specimens of its prior, scored under its objective — and a
//! JSON path on the general model at δ = 1; an explicit `delta` always
//! means `log(tput) − delta·log(delay)`.
//!
//! `train` runs the design procedure of §4.3 on a registered design and
//! writes `<out_dir>/<name>.json` (default `crates/core/assets`, the
//! shipped table itself; default budget eight minutes of wall clock, where
//! the paper spent CPU-weeks). `--steps N` replaces the wall-clock budget
//! with a fixed number of improvement steps, which makes the output fully
//! deterministic; `--continue` resumes from the table at the destination
//! instead of a single rule. Tables are byte-identical at any `--jobs`.
//!
//! `run` is the one way an experiment is started. It, `spec` and `topo`
//! accept a registry name (`remy-cli list-experiments`), which stands for
//! the committed `specs/<name>.json`, or a path to an `ExperimentSpec`
//! JSON file — the two run the same thing. `--runs`/`--secs` override the
//! file's `budget`, and `--out csv` prints the CSV to stdout instead of
//! the report + CSV file. `spec <name>` prints `specs/<name>.json` byte
//! for byte.

use remy_sim::experiment::Experiment;
use remy_sim::experiments::{self, NamedExperiment};
use remy_sim::prelude::*;
use remy_sim::spec::load_table;
use std::sync::Arc;

fn die(msg: &str) -> ! {
    eprintln!("remy-cli: {msg}");
    std::process::exit(2)
}

/// Parse a count or duration given on the command line. Zero is refused
/// by name: a zero budget simulates nothing and would still print numbers.
fn positive<T: std::str::FromStr + PartialOrd + Default>(name: &str, v: &str) -> T {
    match v.parse::<T>() {
        Ok(n) if n > T::default() => n,
        Ok(_) => die(&format!("{name} must be positive, got {v}")),
        Err(_) => die(&format!("{name} needs a number, got '{v}'")),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  remy-cli run <name|spec.json> [--runs N] [--secs S] [--out csv]\n  \
         remy-cli list-experiments [--names]\n  \
         remy-cli spec <name|spec.json> [--runs N] [--secs S]\n  \
         remy-cli topo <name|spec.json>\n  \
         remy-cli list\n  \
         remy-cli train <name> [wall_secs=480] [out_dir=crates/core/assets] [--steps N] [--continue]\n  \
         remy-cli inspect <table>\n  \
         remy-cli eval <table> [delta] [specimens=8] [secs=15]\n  \
         remy-cli compare <tableA> <tableB> [runs=8] [secs=20]\n\n\
         <table>: a registered design, judged by its own prior and objective, \
         or a JSON path, judged on the general model at delta=1\n\n\
         options:\n  --jobs N   worker threads for run, train, eval and compare (default: all cores);\n             \
         results are identical at any thread count"
    );
    std::process::exit(2)
}

/// The table an `inspect` / `eval` argument names and the evaluator that
/// judges it: a registered design's own prior and objective, or — for a
/// JSON path, which carries neither — the general model at δ = 1. An
/// explicit `delta` replaces the objective.
fn judge(
    table_spec: &str,
    delta: Option<f64>,
    specimens: usize,
    sim_secs: f64,
) -> (Arc<WhiskerTree>, Evaluator) {
    let (table, design) = load_table(table_spec).unwrap_or_else(|e| die(&e));
    let (model, designed_for) = match design {
        Some(d) => (d.model.clone(), d.objective),
        None => (NetworkModel::general(), Objective::proportional(1.0)),
    };
    let objective = delta.map_or(designed_for, Objective::proportional);
    let config = EvalConfig {
        specimens,
        sim_secs,
    };
    (table, Evaluator::new(model, objective, config))
}

fn cmd_inspect(table_spec: &str) {
    // Annotate with usage from a quick design-range evaluation so the
    // dump shows which rules actually fire.
    let (table, evaluator) = judge(table_spec, None, 4, 10.0);
    let specimens = evaluator.specimens(1);
    let (_, usage) = evaluator.evaluate(&table, &specimens);
    print!("{}", remy::inspect::report(&table, Some(&usage)));
}

fn cmd_eval(table_spec: &str, delta: Option<f64>, specimens: usize, secs: f64) {
    let (table, evaluator) = judge(table_spec, delta, specimens, secs);
    let score = evaluator.score(&table, &evaluator.specimens(7));
    let objective = evaluator.objective;
    let objective_text = if objective.alpha == 1.0 && objective.beta == 1.0 {
        format!("log(tput) - {} log(delay)", objective.delta)
    } else {
        objective.label()
    };
    let prior = if evaluator.model == NetworkModel::general() {
        "general"
    } else {
        table_spec
    };
    println!(
        "table {table_spec}: {} rules, objective {objective_text}",
        table.len()
    );
    println!("score over {specimens} {prior}-model specimens x {secs:.0}s: {score:.3}");
}

/// `train`: everything that can be wrong with the request is refused
/// before the first simulation.
fn cmd_train(
    name: &str,
    wall_secs: Option<f64>,
    out_dir: &str,
    steps: Option<usize>,
    warm_start: bool,
) {
    let design = remy::designs::by_name(name).unwrap_or_else(|| {
        die(&format!(
            "train: no design '{name}'; registered: {}",
            remy::designs::names()
        ))
    });
    // With a fixed step budget the wall clock is only a safety net.
    let wall_secs = wall_secs.unwrap_or(if steps.is_some() { 1e9 } else { 480.0 });
    let path = format!("{out_dir}/{name}.json");
    // `--continue` adds budget to the table at the destination; one that
    // cannot be resumed from must not be trained over.
    let initial = if warm_start {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| die(&format!("--continue: cannot read '{path}': {e}")));
        WhiskerTree::from_json(&text)
            .unwrap_or_else(|e| die(&format!("--continue: cannot parse '{path}': {e}")))
    } else {
        WhiskerTree::single_rule()
    };
    // Open the destination before the budget is spent: a missing or
    // read-only out_dir fails here, not after hours of training.
    let mut out = std::fs::OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(&path)
        .unwrap_or_else(|e| die(&format!("train: cannot write '{path}': {e}")));

    println!("== Remy design phase ==");
    println!("table     : {name}");
    println!("model     : {}", design.model.describe());
    println!("objective : {}", design.objective.label());
    let budget = match steps {
        Some(n) => format!("{n} improvement steps"),
        None => format!("{wall_secs:.0} s wall clock"),
    };
    let eval = design.eval;
    println!(
        "budget    : {budget}, {} specimens x {} s sims",
        eval.specimens, eval.sim_secs
    );
    println!("jobs      : {}", netsim::par::jobs());
    if warm_start {
        println!("continuing from {path} ({} rules)", initial.len());
    }

    // lint:allow(d2-wallclock-rng): the `[ 12.3s]` prefix of the progress
    // log — decoration no byte of the trained table can observe, the same
    // argument as the optimizer's stop clock.
    let started = std::time::Instant::now();
    let remy = design.remy(wall_secs, steps.unwrap_or(usize::MAX));
    let table = remy.design_from(initial, |event| {
        let line = match event {
            TrainEvent::Epoch {
                epoch,
                rules,
                score,
            } => format!("epoch {epoch}: {rules} rules, score {score:.3}"),
            TrainEvent::Improved { rule, from, to } => {
                format!("  rule {rule}: {from:.3} -> {to:.3}")
            }
            TrainEvent::Split { rule, rules } => format!("  split rule {rule}: now {rules} rules"),
            TrainEvent::Done {
                rules,
                score,
                steps,
            } => format!("done: {rules} rules, score {score:.3}, {steps} improvement steps"),
        };
        println!("[{:7.1}s] {line}", started.elapsed().as_secs_f64());
    });

    use std::io::Write;
    out.set_len(0)
        .and_then(|()| out.write_all(table.to_json().as_bytes()))
        .unwrap_or_else(|e| die(&format!("train: cannot write '{path}': {e}")));
    println!("wrote {path} ({} rules)", table.len());
}

fn cmd_compare(a_spec: &str, b_spec: &str, runs: usize, secs: u64) {
    let fig4 =
        experiments::by_name("fig4").unwrap_or_else(|| die("compare: fig4 is not registered"));
    let spec = ExperimentSpec::new(
        "compare",
        "Fig. 4 dumbbell head-to-head",
        fig4.committed_spec().workload,
        [a_spec, b_spec]
            .map(|table| ContenderSpec::labeled(format!("remy:{table}"), table))
            .to_vec(),
        Budget {
            runs,
            sim_secs: secs,
        },
        12,
    );
    let results = Experiment::new(spec)
        .run()
        .unwrap_or_else(|e| die(&format!("compare: {e}")));
    println!("Fig. 4 dumbbell (15 Mbps, 150 ms, n=8), {runs} runs x {secs} s:");
    for cell in &results.cells {
        println!("{}", cell.outcome.row());
    }
}

fn cmd_list_experiments(names_only: bool) {
    if names_only {
        // Machine-readable: one registry name per line, for scripts.
        for e in experiments::all() {
            println!("{}", e.name);
        }
        return;
    }
    println!(
        "{:<24} {:<24} {:<16} description",
        "name", "csv", "topology"
    );
    for e in experiments::all() {
        let class = e
            .committed_spec()
            .workload
            .topology
            .map(|t| t.class())
            .unwrap_or_else(|| "-".to_string());
        println!("{:<24} {:<24} {:<16} {}", e.name, e.csv, class, e.about);
    }
    println!("\nrun one with:   remy-cli run <name> [--runs N] [--secs S]");
    println!("dump its spec:  remy-cli spec <name>");
    println!("its topology:   remy-cli topo <name>");
}

/// The experiment a `run` / `spec` / `topo` target names — a registry
/// name (its committed spec) or a spec file — with any `--runs` / `--secs`
/// applied, plus the registry entry it is presented by. A file whose
/// `name` is registered keeps that entry's presentation (Fig. 3's CDF,
/// Fig. 6's sequence plot, …) and its mid-run rule; any other name runs
/// the generic engine.
fn resolve_target(
    target: &str,
    runs: Option<usize>,
    secs: Option<u64>,
) -> (ExperimentSpec, Option<&'static NamedExperiment>) {
    let (mut spec, entry) = if let Some(entry) = experiments::by_name(target) {
        (entry.committed_spec(), Some(entry))
    } else if std::path::Path::new(target).exists() {
        let text = std::fs::read_to_string(target)
            .unwrap_or_else(|e| die(&format!("cannot read '{target}': {e}")));
        let spec = ExperimentSpec::from_json(&text)
            .unwrap_or_else(|e| die(&format!("cannot parse '{target}': {e}")));
        let entry = experiments::by_name(&spec.name);
        (spec, entry)
    } else {
        // An unknown name must fail loudly and helpfully: nonzero exit,
        // candidate list on stderr (scripts rely on the exit code).
        eprintln!("remy-cli: '{target}' is neither a registered experiment nor a spec file");
        eprintln!("known experiments:");
        for e in experiments::all() {
            eprintln!("  {}", e.name);
        }
        std::process::exit(2);
    };
    if runs.is_some() || secs.is_some() {
        let budget = Budget {
            runs: runs.unwrap_or(spec.budget.runs),
            sim_secs: secs.unwrap_or(spec.budget.sim_secs),
        };
        match entry {
            Some(entry) => entry.rebudget(&mut spec, budget),
            None => spec.budget = budget,
        }
    }
    (spec, entry)
}

/// `topo`: dump the resolved network of a topology experiment — routers,
/// links, and the per-flow routes the engine computed — as stable JSON,
/// for eyeballing a generated graph and for golden diffs in scripts.
fn cmd_topo(spec: &ExperimentSpec) {
    use netsim::json::{ns_value, u64_value, Value};
    let topo_spec = spec.workload.topology.as_ref().unwrap_or_else(|| {
        die(&format!(
            "'{}' runs on the plain dumbbell; no topology to dump",
            spec.name
        ))
    });
    // The queue discipline never affects the graph or the routes, so the
    // dump resolves with plain DropTail (hops keep their own capacities).
    let topo = topo_spec
        .resolve(&QueueSpec::DropTail { capacity: 1000 })
        .unwrap_or_else(|e| die(&e));
    let path_value =
        |hops: &[usize]| Value::Arr(hops.iter().map(|&h| u64_value(h as u64)).collect());
    let doc = match topo.graph() {
        Some(g) => {
            let routers = Value::Arr(g.routers.iter().map(Value::str).collect());
            let links = Value::Arr(
                g.links
                    .iter()
                    .enumerate()
                    .map(|(i, l)| {
                        Value::obj(vec![
                            ("id", u64_value(i as u64)),
                            ("from", Value::str(g.routers[l.src as usize].clone())),
                            ("to", Value::str(g.routers[l.dst as usize].clone())),
                            ("weight", u64_value(l.weight)),
                            ("prop_delay_ns", ns_value(topo.hops[i].prop_delay_out)),
                        ])
                    })
                    .collect(),
            );
            let events = Value::Arr(
                g.events
                    .iter()
                    .map(|e| {
                        Value::obj(vec![
                            ("at_ns", ns_value(e.at)),
                            ("link", u64_value(e.link as u64)),
                            ("up", Value::Bool(e.up)),
                        ])
                    })
                    .collect(),
            );
            let flows = Value::Arr(
                g.flows
                    .iter()
                    .zip(&topo.paths)
                    .enumerate()
                    .map(|(i, (&(s, d), p))| {
                        // The hop-by-hop router walk: the source, then the
                        // far end of each forward link in order.
                        let via: Vec<Value> = std::iter::once(s)
                            .chain(p.fwd.iter().map(|&h| g.links[h].dst))
                            .map(|r| Value::str(g.routers[r as usize].clone()))
                            .collect();
                        Value::obj(vec![
                            ("id", u64_value(i as u64)),
                            ("src", Value::str(g.routers[s as usize].clone())),
                            ("dst", Value::str(g.routers[d as usize].clone())),
                            ("via", Value::Arr(via)),
                            ("fwd", path_value(&p.fwd)),
                            ("ack", path_value(&p.ack)),
                        ])
                    })
                    .collect(),
            );
            Value::obj(vec![
                ("experiment", Value::str(spec.name.clone())),
                ("kind", Value::str("graph")),
                ("policy", Value::str(g.policy.name())),
                ("routers", routers),
                ("links", links),
                ("events", events),
                ("flows", flows),
            ])
        }
        None => {
            let hops = Value::Arr(
                topo.hops
                    .iter()
                    .enumerate()
                    .map(|(i, h)| {
                        Value::obj(vec![
                            ("id", u64_value(i as u64)),
                            ("prop_delay_ns", ns_value(h.prop_delay_out)),
                        ])
                    })
                    .collect(),
            );
            let flows = Value::Arr(
                topo.paths
                    .iter()
                    .enumerate()
                    .map(|(i, p)| {
                        Value::obj(vec![
                            ("id", u64_value(i as u64)),
                            ("fwd", path_value(&p.fwd)),
                            ("ack", path_value(&p.ack)),
                        ])
                    })
                    .collect(),
            );
            Value::obj(vec![
                ("experiment", Value::str(spec.name.clone())),
                ("kind", Value::str("hops")),
                ("hops", hops),
                ("flows", flows),
            ])
        }
    };
    println!("{}", doc.pretty());
}

fn cmd_run(spec: ExperimentSpec, entry: Option<&NamedExperiment>, out_csv: bool) {
    let name = spec.name.clone();
    let report = match entry {
        Some(entry) => entry.run(&spec),
        None => Experiment::new(spec).run().map(|results| results.report()),
    }
    .unwrap_or_else(|e| die(&format!("{name}: {e}")));
    if out_csv {
        report.print_csv();
    } else {
        report.print();
        report.write_csv();
    }
}

fn main() {
    let mut args: Vec<String> = Vec::new();
    let mut runs: Option<usize> = None;
    let mut secs: Option<u64> = None;
    let mut out_csv = false;
    let mut steps: Option<usize> = None;
    let mut warm_start = false;
    let mut raw = std::env::args().skip(1);
    while let Some(a) = raw.next() {
        let mut flag = |name: &str| -> Option<String> {
            if a == name {
                Some(
                    raw.next()
                        .unwrap_or_else(|| die(&format!("{name} needs a value"))),
                )
            } else {
                a.strip_prefix(&format!("{name}=")).map(str::to_string)
            }
        };
        if let Some(v) = flag("--jobs") {
            let n = v.parse().unwrap_or_else(|_| die("--jobs needs a number"));
            netsim::par::set_jobs(n);
        } else if let Some(v) = flag("--runs") {
            runs = Some(positive("--runs", &v));
        } else if let Some(v) = flag("--secs") {
            secs = Some(positive("--secs", &v));
        } else if let Some(v) = flag("--steps") {
            steps = Some(positive("--steps", &v));
        } else if a == "--continue" {
            warm_start = true;
        } else if let Some(v) = flag("--out") {
            match v.as_str() {
                "csv" => out_csv = true,
                other => die(&format!("unknown output format '{other}'")),
            }
        } else {
            args.push(a);
        }
    }
    match args.first().map(String::as_str) {
        Some("list") => {
            for d in remy::designs::all() {
                let t = d.table();
                println!("{:<12} {:>4} rules  {}", d.name, t.len(), t.provenance);
            }
        }
        Some("train") => {
            let name = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
            let wall_secs = args.get(2).map(|v| positive("wall_secs", v));
            let out_dir = args.get(3).map_or("crates/core/assets", String::as_str);
            cmd_train(name, wall_secs, out_dir, steps, warm_start);
        }
        Some("list-experiments") => {
            cmd_list_experiments(args.get(1).map(String::as_str) == Some("--names"))
        }
        Some(cmd @ ("spec" | "topo" | "run")) => {
            let t = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
            let (spec, entry) = resolve_target(t, runs, secs);
            match cmd {
                "spec" => print!("{}", spec.to_json()),
                "topo" => cmd_topo(&spec),
                _ => cmd_run(spec, entry, out_csv),
            }
        }
        Some("inspect") => {
            let t = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
            cmd_inspect(t);
        }
        Some("eval") => {
            let t = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
            let delta = args.get(2).map(|v| match positive::<f64>("delta", v) {
                d if d.is_finite() => d,
                d => die(&format!("delta must be finite, got {d}")),
            });
            let specimens = args.get(3).map_or(8, |v| positive("specimens", v));
            let secs = args.get(4).map_or(15.0, |v| positive("secs", v));
            cmd_eval(t, delta, specimens, secs);
        }
        Some("compare") => {
            let a = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
            let b = args.get(2).map(String::as_str).unwrap_or_else(|| usage());
            let runs = args.get(3).map_or(8, |v| positive("runs", v));
            let secs = args.get(4).map_or(20, |v| positive("secs", v));
            cmd_compare(a, b, runs, secs);
        }
        _ => usage(),
    }
}
