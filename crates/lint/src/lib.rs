//! `collie_lint`: the workspace determinism & contract linter.
//!
//! The golden traces prove determinism *dynamically* — replay a campaign,
//! diff the bytes. This crate enforces the same invariants *statically*,
//! so a violation is caught at the offending line in CI's first minute
//! instead of as an opaque fixture diff an hour later. The contracts
//! (DESIGN.md §13):
//!
//! * **wall-clock** — deterministic crates never read real time;
//! * **env-registry** — every `COLLIE_*` env read goes through the
//!   [`collie_core::env::HOOKS`] registry, every hook is documented in the
//!   README, and every README hook row names a registered hook;
//! * **serde-skip** — execution-detail knobs never serialize into
//!   fixtures;
//! * **rng-clone** — campaign RNG state is never cloned in a
//!   deterministic crate; an exception needs an annotated reason;
//! * **counter-name** — counter literals match the canonical registry;
//! * **forbid-unsafe** — every crate root forbids `unsafe`;
//! * **fixture-drift** — golden fixtures on disk and the tests that
//!   reference them agree in both directions;
//! * **annotation** — suppressions themselves parse and carry reasons.
//!
//! The engine lints an in-memory [`Workspace`] so tests can feed it
//! synthetic snippets; [`lint_workspace_dir`] assembles one from disk by
//! walking `crates/`, `src/`, `tests/` and `examples/` (which naturally
//! excludes `vendor/` and `target/`). The `collie-lint` bin renders the
//! result as a text table or as the serde-validated JSON report CI
//! archives.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod annot;
pub mod lexer;
pub mod report;
pub mod rules;

use report::{LintReport, Violation, SCHEMA_VERSION};
use rules::Candidate;
use std::path::{Path, PathBuf};

/// Everything the linter looks at, in memory.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Label for the report's `root` field (a path, for disk workspaces).
    pub root: String,
    /// Every Rust file: (workspace-relative path with `/` separators,
    /// content).
    pub files: Vec<(String, String)>,
    /// `README.md` content, when present (the env-registry doc check).
    pub readme: Option<String>,
    /// Basenames of `tests/fixtures/*.json` on disk (the fixture-drift
    /// orphan check).
    pub fixtures: Vec<String>,
}

/// Engine options (the bin's `--allow` flags).
#[derive(Debug, Default)]
pub struct Options {
    /// Rules to skip entirely; violations of these are not reported.
    pub allow: Vec<String>,
}

/// Lint an in-memory workspace.
pub fn lint(workspace: &Workspace, options: &Options) -> LintReport {
    let all_rules = rules::rule_names();
    let allowed = |rule: &str| options.allow.iter().any(|a| a == rule);
    let mut suppressed = 0u64;
    let mut violations: Vec<Violation> = Vec::new();
    let mut push = |candidate: Candidate, file: &str| {
        violations.push(Violation {
            rule: candidate.rule.to_string(),
            file: file.to_string(),
            line: candidate.line as u64,
            column: candidate.column as u64,
            message: candidate.message,
        });
    };

    // Fixture references collected across root test files.
    let mut referenced: Vec<String> = Vec::new();

    for (rel, content) in &workspace.files {
        let tokens = lexer::tokenize(content);
        let (sup, problems) = annot::parse(&tokens, &all_rules);
        for candidate in rules::check_file(rel, &tokens) {
            if allowed(candidate.rule) {
                continue;
            }
            if sup.covers(candidate.rule, candidate.line) {
                suppressed += 1;
            } else {
                push(candidate, rel);
            }
        }
        if !allowed("annotation") {
            for problem in problems {
                push(
                    Candidate {
                        rule: "annotation",
                        line: problem.line,
                        column: problem.column,
                        message: problem.message,
                    },
                    rel,
                );
            }
        }
        // Fixture references only count from the root test suite — the
        // fixtures directory belongs to it.
        if rel.starts_with("tests/") && !allowed("fixture-drift") {
            for token in tokens.iter().filter(|t| t.kind == lexer::TokenKind::Str) {
                if let Some(name) = rules::fixture_reference(&token.text) {
                    if !workspace.fixtures.contains(&name) {
                        push(
                            Candidate {
                                rule: "fixture-drift",
                                line: token.line,
                                column: token.column,
                                message: format!(
                                    "test references fixture `{name}` which does not exist \
                                     under tests/fixtures/"
                                ),
                            },
                            rel,
                        );
                    }
                    referenced.push(name);
                }
            }
        }
    }

    // Fixture-drift, orphan direction: every fixture on disk is referenced.
    if !allowed("fixture-drift") {
        for fixture in &workspace.fixtures {
            if !referenced.contains(fixture) {
                push(
                    Candidate {
                        rule: "fixture-drift",
                        line: 1,
                        column: 1,
                        message: format!(
                            "fixture `{fixture}` is referenced by no root test; a golden \
                             trace nothing replays is dead weight or a renamed reference"
                        ),
                    },
                    &format!("tests/fixtures/{fixture}"),
                );
            }
        }
    }

    // Env-registry, doc direction: every registered hook is documented,
    // and every hook-table row documents a registered hook.
    if !allowed("env-registry") {
        match &workspace.readme {
            Some(readme) => {
                for hook in &collie_core::env::HOOKS {
                    if !readme.contains(hook.name) {
                        push(
                            Candidate {
                                rule: "env-registry",
                                line: 1,
                                column: 1,
                                message: format!(
                                    "registered hook `{}` is missing from the README \
                                     environment-hook table",
                                    hook.name
                                ),
                            },
                            "README.md",
                        );
                    }
                }
                for (index, line) in readme.lines().enumerate() {
                    let Some(row) = line.strip_prefix("| `") else {
                        continue;
                    };
                    let name = row.split('`').next().unwrap_or(row);
                    if name.starts_with("COLLIE_") && collie_core::env::hook(name).is_none() {
                        push(
                            Candidate {
                                rule: "env-registry",
                                line: index + 1,
                                column: 4,
                                message: format!(
                                    "README documents hook `{name}`, which is not registered \
                                     in collie_core::env::HOOKS; drop the row or register it"
                                ),
                            },
                            "README.md",
                        );
                    }
                }
            }
            None => push(
                Candidate {
                    rule: "env-registry",
                    line: 1,
                    column: 1,
                    message: "README.md not found; the environment-hook table lives there"
                        .to_string(),
                },
                "README.md",
            ),
        }
    }

    violations.sort_by(|a, b| {
        (&a.file, a.line, &a.rule, a.column).cmp(&(&b.file, b.line, &b.rule, b.column))
    });
    let (rules_allowed, rules_run): (Vec<_>, Vec<_>) =
        all_rules.iter().partition(|rule| allowed(rule));
    LintReport {
        schema_version: SCHEMA_VERSION,
        root: workspace.root.clone(),
        files_scanned: workspace.files.len() as u64,
        rules_run: rules_run.into_iter().map(str::to_string).collect(),
        rules_allowed: rules_allowed.into_iter().map(str::to_string).collect(),
        suppressed,
        violations,
    }
}

/// The directories a disk workspace is assembled from. Walking only these
/// keeps `vendor/` (foreign shim code) and `target/` out of scope.
const SCAN_DIRS: [&str; 4] = ["crates", "src", "tests", "examples"];

/// Assemble a [`Workspace`] from a repository root on disk.
pub fn load_workspace_dir(root: &Path) -> Result<Workspace, String> {
    let mut files: Vec<(String, String)> = Vec::new();
    for dir in SCAN_DIRS {
        let base = root.join(dir);
        if base.is_dir() {
            walk_rust_files(root, &base, &mut files)?;
        }
    }
    if files.is_empty() {
        return Err(format!(
            "no Rust files found under {} (looked in {})",
            root.display(),
            SCAN_DIRS.join(", ")
        ));
    }
    files.sort();
    let readme = std::fs::read_to_string(root.join("README.md")).ok();
    let mut fixtures: Vec<String> = Vec::new();
    let fixtures_dir = root.join("tests").join("fixtures");
    if fixtures_dir.is_dir() {
        let entries = std::fs::read_dir(&fixtures_dir)
            .map_err(|e| format!("read_dir {}: {e}", fixtures_dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("read_dir entry: {e}"))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".json") {
                fixtures.push(name);
            }
        }
    }
    fixtures.sort();
    Ok(Workspace {
        root: root.display().to_string(),
        files,
        readme,
        fixtures,
    })
}

/// Lint a repository root on disk.
pub fn lint_workspace_dir(root: &Path, options: &Options) -> Result<LintReport, String> {
    Ok(lint(&load_workspace_dir(root)?, options))
}

/// Recursively collect `.rs` files under `dir` into `files`, with paths
/// relative to `root`.
fn walk_rust_files(
    root: &Path,
    dir: &Path,
    files: &mut Vec<(String, String)>,
) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir entry: {e}"))?;
        let path: PathBuf = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            walk_rust_files(root, &path, files)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| format!("strip_prefix {}: {e}", path.display()))?
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            let content = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            files.push((rel, content));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: Vec<(&str, &str)>) -> Workspace {
        Workspace {
            root: "synthetic".to_string(),
            files: files
                .into_iter()
                .map(|(rel, content)| (rel.to_string(), content.to_string()))
                .collect(),
            readme: Some(
                collie_core::env::HOOKS
                    .iter()
                    .map(|hook| hook.name)
                    .collect::<Vec<_>>()
                    .join("\n"),
            ),
            fixtures: Vec::new(),
        }
    }

    fn fired(report: &LintReport) -> Vec<(&str, &str, u64)> {
        report
            .violations
            .iter()
            .map(|v| (v.rule.as_str(), v.file.as_str(), v.line))
            .collect()
    }

    #[test]
    fn clean_workspace_reports_clean() {
        let report = lint(
            &ws(vec![(
                "crates/core/src/search/x.rs",
                "pub fn f() -> u64 { 7 }",
            )]),
            &Options::default(),
        );
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.files_scanned, 1);
        assert_eq!(report.rules_run.len(), rules::RULES.len());
        assert_eq!(report::validate_lint_report(&report), Ok(()));
    }

    #[test]
    fn suppressed_violations_are_counted_not_reported() {
        let source = "// collie-lint: allow(wall-clock, reason = \"profiling site\")\nuse std::time::Instant;\nfn f() { let t = Instant::now(); }";
        let report = lint(
            &ws(vec![("crates/core/src/x.rs", source)]),
            &Options::default(),
        );
        // The annotation covers line 2 (std::time); line 3's Instant::now
        // still fires.
        assert_eq!(report.suppressed, 1, "{:?}", report.violations);
        assert_eq!(fired(&report), [("wall-clock", "crates/core/src/x.rs", 3)]);
    }

    #[test]
    fn allow_flag_skips_a_rule_entirely() {
        let source = "use std::time::Instant;";
        let options = Options {
            allow: vec!["wall-clock".to_string()],
        };
        let report = lint(&ws(vec![("crates/core/src/x.rs", source)]), &options);
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.rules_allowed, ["wall-clock"]);
        assert_eq!(report.suppressed, 0);
        assert_eq!(report::validate_lint_report(&report), Ok(()));
    }

    #[test]
    fn malformed_annotations_fire_the_meta_rule() {
        let source = "fn f() {} // collie-lint: allow(wall-clock)";
        let report = lint(
            &ws(vec![("crates/core/src/x.rs", source)]),
            &Options::default(),
        );
        assert_eq!(fired(&report), [("annotation", "crates/core/src/x.rs", 1)]);
    }

    #[test]
    fn fixture_drift_catches_both_directions() {
        let mut workspace = ws(vec![
            (
                "tests/golden.rs",
                r#"fn t() { load("golden_exists.json"); load("golden_missing.json"); }"#,
            ),
            // A non-root test referencing fixtures is out of scope.
            (
                "crates/core/tests/x.rs",
                r#"fn t() { load("golden_unrelated.json"); }"#,
            ),
        ]);
        workspace.fixtures = vec![
            "golden_exists.json".to_string(),
            "golden_orphan.json".to_string(),
        ];
        let report = lint(&workspace, &Options::default());
        assert_eq!(
            fired(&report),
            [
                ("fixture-drift", "tests/fixtures/golden_orphan.json", 1),
                ("fixture-drift", "tests/golden.rs", 1),
            ],
            "{:?}",
            report.violations
        );
        assert!(report.violations[1].message.contains("golden_missing.json"));
    }

    #[test]
    fn undocumented_hooks_are_reported_against_the_readme() {
        let mut workspace = ws(vec![("crates/core/src/x.rs", "pub fn f() {}")]);
        workspace.readme = Some("no table here".to_string());
        let report = lint(&workspace, &Options::default());
        assert_eq!(
            report.violations.len(),
            collie_core::env::HOOKS.len(),
            "{:?}",
            report.violations
        );
        assert!(report
            .violations
            .iter()
            .all(|v| v.rule == "env-registry" && v.file == "README.md"));
    }

    #[test]
    fn readme_rows_for_unregistered_hooks_are_reported() {
        let mut workspace = ws(vec![("crates/core/src/x.rs", "pub fn f() {}")]);
        // `ws` documents each registered hook on its own line; append one
        // stale row and one registered row.
        let mut readme = workspace.readme.take().unwrap_or_default();
        readme.push_str("\n| `COLLIE_RETIRED` | on | any | gone |");
        readme.push_str("\n| `COLLIE_WORKERS` | auto | any | kept |");
        workspace.readme = Some(readme);
        let report = lint(&workspace, &Options::default());
        let stale_row = collie_core::env::HOOKS.len() as u64 + 1;
        assert_eq!(
            fired(&report),
            [("env-registry", "README.md", stale_row)],
            "{:?}",
            report.violations
        );
        assert!(report.violations[0].message.contains("`COLLIE_RETIRED`"));
    }

    #[test]
    fn violations_are_sorted_by_file_then_line() {
        let report = lint(
            &ws(vec![
                (
                    "crates/core/src/b.rs",
                    "use std::time::Instant;\nfn f() { let r = rng.clone(); }",
                ),
                ("crates/core/src/a.rs", "use std::time::SystemTime;"),
            ]),
            &Options::default(),
        );
        let files: Vec<&str> = report.violations.iter().map(|v| v.file.as_str()).collect();
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted, "{:?}", report.violations);
    }

    #[test]
    fn missing_readme_is_one_violation() {
        let mut workspace = ws(vec![("crates/core/src/x.rs", "pub fn f() {}")]);
        workspace.readme = None;
        let report = lint(&workspace, &Options::default());
        assert_eq!(fired(&report), [("env-registry", "README.md", 1)]);
    }
}
