//! The repository benchmark. See `benchmark/README.md`.
//!
//! ```text
//! benchmark run --workload W --seed N --seconds S --trace 0|1 [--check]
//! benchmark all [--seed N] [--workload W] [--seconds S] [--check] [--cli PATH]
//! benchmark gen-inputs
//! benchmark compare A.json [A2.json ...] [--vs] B.json [B2.json ...]
//! ```
//!
//! `run` measures one workload in this process and ends with the one-line
//! JSON result the driver reads. `all` runs each workload's timed and traced
//! runs in child processes of their own, merges their records into
//! `benchmark/out/results.json` and `benchmark/out/trace.json`, and checks
//! the outputs against `remy-cli`. Run from the repository root
//! (`benchmark/run.sh` does).

mod compare;
mod geninputs;
mod metrics;
mod probes;
mod runner;
mod stats;
mod trace;
mod workloads;

use netsim::json::{u64_value, Value};
use runner::RunArgs;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use workloads::{DEFAULT_SEED, WORKLOADS};

pub const OUT_DIR: &str = "benchmark/out";
/// Measuring time of a timed run when `--seconds` is not given; equal to
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// One-line JSON (the library's writer only pretty-prints).
pub fn compact(v: &Value) -> String {
    fn write(v: &Value, out: &mut String) {
        match v {
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write(item, out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, item)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "{}: ", Value::str(k.clone()).pretty());
                    write(item, out);
                }
                out.push('}');
            }
            scalar => out.push_str(&scalar.pretty()),
        }
    }
    let mut out = String::new();
    write(v, &mut out);
    out
}

/// The host a result was measured on. `run.sh` passes the compiler version
/// and git revision through the environment.
pub fn fingerprint() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    Value::obj(vec![
        (
            "nproc",
            u64_value(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("cpu", Value::str(cpu)),
        ("rustc", Value::str(env("BENCHMARK_RUSTC"))),
        ("git_rev", Value::str(env("BENCHMARK_GIT_REV"))),
        ("scheduler", Value::str("wheel")),
        ("jobs", u64_value(1)),
    ])
}

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
    cli: Option<String>,
    positional: Vec<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        check: false,
        cli: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload '{w}'; known: {}",
                        WORKLOADS.join(", ")
                    ));
                }
                o.workload = Some(w);
            }
            "--seed" => {
                o.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                o.seconds = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds needs a number")?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                o.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--check" => o.check = true,
            // Separates the two sides of `compare`.
            "--vs" => o.positional.push(a.clone()),
            "--cli" => o.cli = Some(value("--cli")?),
            flag if flag.starts_with("--") => return Err(format!("unknown option '{flag}'")),
            _ => o.positional.push(a.clone()),
        }
    }
    Ok(o)
}

fn cmd_run(o: Options) -> Result<bool, String> {
    let args = RunArgs {
        workload: o.workload.ok_or("run needs --workload")?,
        seed: o.seed,
        seconds: o.seconds,
        trace: o.trace,
        check: o.check,
    };
    if args.trace {
        runner::traced_run(&args)
    } else {
        runner::timed_run(&args)
    }
}

/// Run `remy-cli run <spec> --out csv --jobs 1` on the seeded spec and
/// compare its bytes with the digest the in-process passes produced: what
/// `wall_s` times is what users run.
fn cli_equivalence(cli: &str, workload: &str, o: &Options, digest: &str) -> Result<bool, String> {
    let spec = workloads::load_spec(workload, o.seed, o.check)?;
    let path = format!("{OUT_DIR}/{workload}.seed{}.spec.json", o.seed);
    std::fs::write(&path, spec.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
    let out = Command::new(cli)
        .args(["run", &path, "--out", "csv", "--jobs", "1"])
        .env_remove("NETSIM_SCHEDULER")
        .output()
        .map_err(|e| format!("cannot run {cli}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{cli} run {path} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(stats::digest_hex(&out.stdout) == digest)
}

pub fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    netsim::json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// A child run's record.
fn read_record(workload: &str, kind: &str) -> Result<Value, String> {
    read_json(&format!("{OUT_DIR}/{workload}.{kind}.json"))
}

fn cmd_all(o: Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let chosen: Vec<&str> = match &o.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut ok = true;
    let mut results = Vec::new();
    let mut traces = Vec::new();
    for &w in &chosen {
        // A child process per run, so that VmHWM is the workload's own.
        for trace in ["0", "1"] {
            let mut child = Command::new(&exe);
            child.args(["run", "--workload", w, "--trace", trace]);
            child.args([
                "--seed",
                &o.seed.to_string(),
                "--seconds",
                &o.seconds.to_string(),
            ]);
            if o.check {
                child.arg("--check");
            }
            let status = child
                .status()
                .map_err(|e| format!("cannot start {w}: {e}"))?;
            ok &= status.success();
        }
        let mut timed = read_record(w, "results")?;
        let trace = read_record(w, "trace")?;
        let digest = timed.field("result_digest")?.as_str()?.to_string();
        let cli_match = match (&o.cli, w) {
            (_, "train_step") | (None, _) => Value::Null,
            (Some(cli), _) => {
                let same = cli_equivalence(cli, w, &o, &digest)?;
                println!(
                    "{w}: remy-cli output {}",
                    if same { "identical" } else { "DIFFERENT" }
                );
                ok &= same;
                Value::Bool(same)
            }
        };
        if let Value::Obj(fields) = &mut timed {
            fields.push(("cli_match".to_string(), cli_match));
            for key in ["replay_match", "deep_table_match", "layers"] {
                fields.push((key.to_string(), trace.field(key)?.clone()));
            }
            let problems = trace.field("problems")?.clone();
            fields.push(("trace_problems".to_string(), problems));
        }
        results.push((w.to_string(), timed));
        traces.push((
            w.to_string(),
            Value::obj(vec![("spans", trace.field("spans")?.clone())]),
        ));
    }

    println!("\n== summary (seed {}) ==", o.seed);
    for (w, r) in &results {
        for &(metric, unit, ..) in &metrics::END_TO_END {
            let m = r.field("end_to_end")?.field(metric)?;
            println!(
                "{w:<14} {metric:<12} {:>12.6} {unit:<4} samples: median {:.6} q1 {:.6} q3 {:.6} n {}",
                m.field("value")?.as_f64()?,
                m.field("median")?.as_f64()?,
                m.field("q1")?.as_f64()?,
                m.field("q3")?.as_f64()?,
                m.field("n")?.as_u64()?
            );
        }
        println!(
            "{w:<14} ops {} failed {} digest {} digest_match {}",
            r.field("ops")?.as_u64()?,
            r.field("failed")?.as_u64()?,
            r.field("result_digest")?.as_str()?,
            r.field("digest_match")?.pretty()
        );
    }
    let merged = Value::obj(vec![
        ("seed", u64_value(o.seed)),
        ("check", Value::Bool(o.check)),
        ("fingerprint", fingerprint()),
        ("workloads", Value::Obj(results)),
    ]);
    let path = format!("{OUT_DIR}/results.json");
    std::fs::write(&path, merged.pretty() + "\n")
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    let path = format!("{OUT_DIR}/trace.json");
    let merged = Value::obj(vec![("workloads", Value::Obj(traces))]);
    std::fs::write(&path, merged.pretty() + "\n")
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("wrote {OUT_DIR}/results.json and {OUT_DIR}/trace.json");
    Ok(ok)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let Some((command, rest)) = args.split_first() else {
        return Err(
            "usage: benchmark run|all|gen-inputs|compare … (see benchmark/README.md)".to_string(),
        );
    };
    let o = parse_options(rest)?;
    match command.as_str() {
        "run" => cmd_run(o),
        "all" => cmd_all(o),
        "gen-inputs" => geninputs::write_inputs().map(|()| true),
        "compare" => {
            let files = o.positional;
            let split = files.iter().position(|f| f == "--vs");
            match (split, files.as_slice()) {
                (Some(i), _) if i > 0 && i + 1 < files.len() => {
                    compare::compare(&files[..i], &files[i + 1..])
                }
                (None, [a, b]) => {
                    compare::compare(std::slice::from_ref(a), std::slice::from_ref(b))
                }
                _ => Err("compare needs A.json B.json, or A1.json … --vs B1.json …".to_string()),
            }
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_json_is_one_line_and_parses_back() {
        let v = Value::obj(vec![
            ("correct", Value::Bool(true)),
            ("attempted", u64_value(1440)),
            (
                "metrics",
                Value::obj(vec![(
                    "wall_s",
                    Value::obj(vec![
                        ("value", Value::num(4.0321)),
                        ("unit", Value::str("s")),
                    ]),
                )]),
            ),
            ("list", Value::Arr(vec![Value::Null, Value::str("a\"b")])),
        ]);
        let line = compact(&v);
        assert!(!line.contains('\n'));
        assert_eq!(netsim::json::parse(&line).expect("valid JSON"), v);
    }

    #[test]
    fn options_reject_unknown_workloads_and_flags() {
        let parse =
            |a: &[&str]| parse_options(&a.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let o = parse(&[
            "--workload",
            "churn_100k",
            "--seed",
            "7",
            "--seconds",
            "5",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (o.workload.as_deref(), o.seed, o.seconds, o.trace),
            (Some("churn_100k"), 7, 5.0, true)
        );
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
    }
}
