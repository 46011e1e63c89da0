//! Machine-readable lint reports (`LINT.json`).
//!
//! A serde-derived schema with an explicit `schema_version`, a first-violation
//! [`validate_lint_report`] gate CI runs before trusting the file, and a
//! JSON round-trip pinned by test. The text rendering ([`render_text`]) is
//! what a developer sees locally; the JSON is what CI archives.

use serde::{Deserialize, Serialize};

/// Bump when the report shape changes incompatibly.
pub const SCHEMA_VERSION: u64 = 1;

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Violation {
    /// The rule that fired (`wall-clock`, `env-registry`, ...).
    pub rule: String,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-indexed line of the offending token.
    pub line: u64,
    /// 1-indexed column of the offending token.
    pub column: u64,
    /// What the rule objects to, and what would satisfy it.
    pub message: String,
}

/// The full outcome of one lint run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LintReport {
    /// Schema version of this report ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// The workspace root that was scanned.
    pub root: String,
    /// Number of `.rs` files tokenized and checked.
    pub files_scanned: u64,
    /// Rules that ran, in canonical order.
    pub rules_run: Vec<String>,
    /// Rules skipped via `--allow` on the command line.
    pub rules_allowed: Vec<String>,
    /// Violations silenced by in-source `collie-lint:` annotations.
    pub suppressed: u64,
    /// Surviving violations, ordered by file, then line, then rule.
    pub violations: Vec<Violation>,
}

impl LintReport {
    /// Whether the run is clean (the bin's exit-0 condition).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Structural validity gate: CI refuses to archive a report that fails
/// this. Returns the first violated invariant as a human-readable string.
pub fn validate_lint_report(report: &LintReport) -> Result<(), String> {
    if report.schema_version != SCHEMA_VERSION {
        return Err(format!(
            "schema_version is {} but this linter writes {}",
            report.schema_version, SCHEMA_VERSION
        ));
    }
    if report.root.is_empty() {
        return Err("root is empty".to_string());
    }
    if report.files_scanned == 0 {
        return Err("files_scanned is 0: the walker found no Rust files".to_string());
    }
    if report.rules_run.is_empty() {
        return Err("rules_run is empty: no rule executed".to_string());
    }
    for allowed in &report.rules_allowed {
        if report.rules_run.contains(allowed) {
            return Err(format!(
                "rule `{allowed}` is listed as both run and allowed"
            ));
        }
    }
    for (index, violation) in report.violations.iter().enumerate() {
        if violation.rule.is_empty() || violation.file.is_empty() || violation.message.is_empty() {
            return Err(format!("violation #{index} has an empty field"));
        }
        if violation.line == 0 {
            return Err(format!(
                "violation #{index} ({}) has line 0; lines are 1-indexed",
                violation.rule
            ));
        }
        if !report.rules_run.contains(&violation.rule) {
            return Err(format!(
                "violation #{index} cites rule `{}` which did not run",
                violation.rule
            ));
        }
    }
    Ok(())
}

/// Render the developer-facing text table.
pub fn render_text(report: &LintReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "collie-lint: {} files, {} rules run",
        report.files_scanned,
        report.rules_run.len()
    ));
    if !report.rules_allowed.is_empty() {
        out.push_str(&format!(", allowed: {}", report.rules_allowed.join(", ")));
    }
    out.push_str(&format!(
        ", {} suppressed by annotation\n",
        report.suppressed
    ));
    if report.violations.is_empty() {
        out.push_str("clean: no violations\n");
        return out;
    }
    out.push_str(&format!("{} violation(s):\n", report.violations.len()));
    for violation in &report.violations {
        out.push_str(&format!(
            "  {}:{}:{} [{}] {}\n",
            violation.file, violation.line, violation.column, violation.rule, violation.message
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LintReport {
        LintReport {
            schema_version: SCHEMA_VERSION,
            root: "/repo".to_string(),
            files_scanned: 42,
            rules_run: vec!["wall-clock".to_string(), "env-registry".to_string()],
            rules_allowed: vec!["rng-clone".to_string()],
            suppressed: 7,
            violations: vec![Violation {
                rule: "wall-clock".to_string(),
                file: "crates/core/src/eval.rs".to_string(),
                line: 34,
                column: 5,
                message: "Instant::now() in a deterministic crate".to_string(),
            }],
        }
    }

    #[test]
    fn json_round_trip_preserves_the_report() {
        let report = sample();
        let json = serde_json::to_string_pretty(&report).expect("serialize");
        let back: LintReport = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, report);
        assert!(json.contains("\"schema_version\""));
        assert!(json.contains("wall-clock"));
    }

    #[test]
    fn validation_accepts_the_sample_and_rejects_broken_reports() {
        assert_eq!(validate_lint_report(&sample()), Ok(()));

        let mut wrong_version = sample();
        wrong_version.schema_version = 99;
        assert!(validate_lint_report(&wrong_version)
            .unwrap_err()
            .contains("schema_version"));

        let mut no_files = sample();
        no_files.files_scanned = 0;
        assert!(validate_lint_report(&no_files)
            .unwrap_err()
            .contains("files_scanned"));

        let mut zero_line = sample();
        zero_line.violations[0].line = 0;
        assert!(validate_lint_report(&zero_line)
            .unwrap_err()
            .contains("1-indexed"));

        let mut unknown_rule = sample();
        unknown_rule.violations[0].rule = "not-a-rule".to_string();
        assert!(validate_lint_report(&unknown_rule)
            .unwrap_err()
            .contains("did not run"));

        let mut both = sample();
        both.rules_allowed = vec!["wall-clock".to_string()];
        assert!(validate_lint_report(&both)
            .unwrap_err()
            .contains("both run and allowed"));
    }

    #[test]
    fn text_rendering_lists_violations_and_clean_runs() {
        let report = sample();
        let text = render_text(&report);
        assert!(text.contains("42 files"));
        assert!(text.contains("crates/core/src/eval.rs:34:5 [wall-clock]"));

        let mut clean = sample();
        clean.violations.clear();
        assert!(render_text(&clean).contains("clean: no violations"));
    }
}
