//! `remy-lint` — the workspace determinism & safety gate.
//!
//! ```text
//! remy-lint [--json] [--root <dir>] [--scope-as <prefix>] [--list-rules]
//!           [--allow-report] [--reachable] [paths...]
//! ```
//!
//! With no paths, walks the workspace (found by ascending from `--root`
//! or the current directory to the first `Cargo.toml` containing
//! `[workspace]`) and scans every `.rs` file as one unit — the call
//! graph behind the P/R/S families spans crates. With paths, scans those
//! files/directories; `--scope-as` maps each scanned file to a virtual
//! workspace-relative prefix so rule scoping applies (this is how the CI
//! gate proves the seeded-bad fixtures still fail).
//!
//! `--allow-report` inventories every `lint:allow` in the workspace with
//! its rule id and justification; it exits non-zero if any allow is
//! unjustified or names a rule that no longer exists. `--reachable` lists
//! every function the call graph considers reachable from the simulation
//! entry points, as `file:line: name`.
//!
//! Exit status: `0` clean, `1` diagnostics found, `2` usage/IO error.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use remy_lint::{render_human, scan_source, scan_workspace, to_json, Diagnostic};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut list_rules = false;
    let mut allow_report = false;
    let mut reachable = false;
    let mut root: Option<PathBuf> = None;
    let mut scope_as: Option<String> = None;
    let mut paths: Vec<PathBuf> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json = true,
            "--list-rules" => list_rules = true,
            "--allow-report" => allow_report = true,
            "--reachable" => reachable = true,
            "--root" => match args.next() {
                Some(d) => root = Some(PathBuf::from(d)),
                None => return usage("--root needs a directory"),
            },
            "--scope-as" => match args.next() {
                Some(p) => scope_as = Some(p.trim_end_matches('/').to_string()),
                None => return usage("--scope-as needs a virtual path prefix"),
            },
            "--help" | "-h" => {
                eprintln!(
                    "usage: remy-lint [--json] [--root <dir>] [--scope-as <prefix>] \
                     [--list-rules] [--allow-report] [--reachable] [paths...]"
                );
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                return usage(&format!("unknown flag {other}"));
            }
            path => paths.push(PathBuf::from(path)),
        }
    }

    if list_rules {
        for r in remy_lint::rules::all() {
            println!("{:<28} {}", r.id, r.summary);
        }
        for r in remy_lint::rules::graph_rules() {
            println!("{:<28} {}", r.id, r.summary);
        }
        return ExitCode::SUCCESS;
    }

    if allow_report || reachable {
        let start = root.unwrap_or_else(|| PathBuf::from("."));
        let Some(ws) = find_workspace_root(&start) else {
            return usage(&format!(
                "no workspace Cargo.toml found above {}",
                start.display()
            ));
        };
        if reachable {
            let analysis = match remy_lint::analyze_workspace(&ws) {
                Ok(a) => a,
                Err(e) => return usage(&e),
            };
            for (file, name, line) in analysis.reachable_fns() {
                println!("{file}:{line}: {name}");
            }
            return ExitCode::SUCCESS;
        }
        let entries = match remy_lint::allow_report(&ws) {
            Ok(e) => e,
            Err(e) => return usage(&e),
        };
        if json {
            print!("{}", remy_lint::allow_report_json(&entries));
        } else {
            print!("{}", remy_lint::render_allow_report(&entries));
        }
        let unsound = entries.iter().any(|a| !a.justified || !a.known_rule);
        return if unsound {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    let diags = if paths.is_empty() {
        let start = root.unwrap_or_else(|| PathBuf::from("."));
        let Some(ws) = find_workspace_root(&start) else {
            return usage(&format!(
                "no workspace Cargo.toml found above {}",
                start.display()
            ));
        };
        match scan_workspace(&ws) {
            Ok(d) => d,
            Err(e) => return usage(&e),
        }
    } else {
        match scan_paths(&paths, scope_as.as_deref()) {
            Ok(d) => d,
            Err(e) => return usage(&e),
        }
    };

    if json {
        print!("{}", to_json(&diags));
    } else {
        print!("{}", render_human(&diags));
    }
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("remy-lint: {msg}");
    ExitCode::from(2)
}

/// Ascend from `start` to the first directory whose `Cargo.toml` declares
/// `[workspace]`.
fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.canonicalize().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Scan explicit files/directories. With `scope_as`, every file is
/// scanned as if it lived at `<scope_as>/<file name>`; otherwise its
/// given path is used as the workspace-relative path.
fn scan_paths(paths: &[PathBuf], scope_as: Option<&str>) -> Result<Vec<Diagnostic>, String> {
    let mut files: Vec<PathBuf> = Vec::new();
    for p in paths {
        if p.is_dir() {
            collect_dir(p, &mut files)?;
        } else {
            files.push(p.clone());
        }
    }
    files.sort();
    let mut out = Vec::new();
    for f in &files {
        let text =
            std::fs::read_to_string(f).map_err(|e| format!("reading {}: {e}", f.display()))?;
        let rel = match scope_as {
            Some(prefix) => {
                let name = f
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default();
                format!("{prefix}/{name}")
            }
            None => f.to_string_lossy().replace('\\', "/"),
        };
        out.extend(scan_source(&rel, &text));
    }
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(out)
}

fn collect_dir(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("walking {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            collect_dir(&path, out)?;
        } else if path.to_string_lossy().ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}
