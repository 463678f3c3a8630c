//! `remy-lint` — the workspace determinism & safety gate.
//!
//! ```text
//! remy-lint [--root <dir>] [--list-rules] [--allow-report [--json]]
//! ```
//!
//! Walks the workspace (found by ascending from `--root` or the current
//! directory to the first `Cargo.toml` containing `[workspace]`) and
//! scans every `.rs` file, each on its own.
//!
//! `--allow-report` inventories every `lint:allow` in the workspace with
//! its rule id and justification; it exits non-zero if any allow is
//! unjustified or names a rule that no longer exists; `--json` prints
//! that inventory as a machine-readable document.
//!
//! Exit status: `0` clean, `1` diagnostics found, `2` usage/IO error.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use remy_lint::{render_human, scan_workspace};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut list_rules = false;
    let mut allow_report = false;
    let mut root: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json = true,
            "--list-rules" => list_rules = true,
            "--allow-report" => allow_report = true,
            "--root" => match args.next() {
                Some(d) => root = Some(PathBuf::from(d)),
                None => return usage("--root needs a directory"),
            },
            "--help" | "-h" => {
                eprintln!(
                    "usage: remy-lint [--root <dir>] [--list-rules] [--allow-report [--json]]"
                );
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                return usage(&format!("unknown flag {other}"));
            }
            other => return usage(&format!("unexpected argument {other}")),
        }
    }

    if json && !allow_report {
        return usage("--json needs --allow-report");
    }
    if list_rules {
        for r in remy_lint::rules::all() {
            println!("{:<28} {}", r.id, r.summary);
        }
        return ExitCode::SUCCESS;
    }

    let start = root.unwrap_or_else(|| PathBuf::from("."));
    let Some(ws) = find_workspace_root(&start) else {
        return usage(&format!(
            "no workspace Cargo.toml found above {}",
            start.display()
        ));
    };

    if allow_report {
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

    let diags = match scan_workspace(&ws) {
        Ok(d) => d,
        Err(e) => return usage(&e),
    };
    print!("{}", render_human(&diags));
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
