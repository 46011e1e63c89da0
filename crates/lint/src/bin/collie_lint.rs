//! `collie-lint` — statically enforce the workspace determinism &
//! contract invariants (DESIGN.md §13).
//!
//! ```text
//! collie-lint [--root <path>] [--json] [--out <file>] [--allow <rule>]... [--list-rules]
//! ```
//!
//! Exit status: `0` clean, `1` violations found, `2` usage or internal
//! error. The default root is the workspace this binary was built from,
//! so `cargo run --bin collie-lint` from anywhere inside the repo lints
//! the repo. `--json` prints the machine-readable, serde-validated
//! report; `--out` additionally writes it to a file for CI to archive.

#![forbid(unsafe_code)]

use collie_lint::report::{render_text, validate_lint_report};
use collie_lint::rules::RULES;
use collie_lint::{lint_workspace_dir, Options};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: collie-lint [--root <path>] [--json] [--out <file>] \
                     [--allow <rule>]... [--list-rules]";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut out: Option<PathBuf> = None;
    let mut allow: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--list-rules" => {
                for rule in RULES {
                    println!("{:<14} {}", rule.name, rule.doc);
                }
                return ExitCode::SUCCESS;
            }
            "--root" => match args.next() {
                Some(path) => root = Some(PathBuf::from(path)),
                None => return usage_error("--root needs a path"),
            },
            "--out" => match args.next() {
                Some(path) => out = Some(PathBuf::from(path)),
                None => return usage_error("--out needs a file path"),
            },
            "--allow" => match args.next() {
                Some(rule) => {
                    if !RULES.iter().any(|r| r.name == rule) {
                        return usage_error(&format!(
                            "--allow {rule}: no such rule (see --list-rules)"
                        ));
                    }
                    allow.push(rule);
                }
                None => return usage_error("--allow needs a rule name"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument {other}")),
        }
    }

    // The manifest dir is `crates/lint`, two levels under the workspace
    // root this binary is meant to lint by default.
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..")
    });

    let report = match lint_workspace_dir(&root, &Options { allow }) {
        Ok(report) => report,
        Err(message) => {
            eprintln!("collie-lint: {message}");
            return ExitCode::from(2);
        }
    };
    if let Err(message) = validate_lint_report(&report) {
        eprintln!("collie-lint: internal error: invalid report: {message}");
        return ExitCode::from(2);
    }

    let rendered_json = match serde_json::to_string_pretty(&report) {
        Ok(text) => text,
        Err(error) => {
            eprintln!("collie-lint: internal error: serialize report: {error:?}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = out {
        if let Err(error) = std::fs::write(&path, &rendered_json) {
            eprintln!("collie-lint: write {}: {error}", path.display());
            return ExitCode::from(2);
        }
    }
    if json {
        println!("{rendered_json}");
    } else {
        print!("{}", render_text(&report));
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("collie-lint: {message}\n{USAGE}");
    ExitCode::from(2)
}
