//! The linter's own acceptance gate: the workspace at HEAD lints clean.
//!
//! Every legitimate exception must carry its `collie-lint:` annotation
//! with a reason, so a clean run here means the contracts hold *and* the
//! escape hatches are all documented. If this test fails after an edit,
//! either the edit broke a determinism contract or it introduced a new
//! legitimate exception that needs annotating — both are exactly the
//! conversations the linter exists to force.

use collie_lint::report::validate_lint_report;
use collie_lint::{lint_workspace_dir, Options};
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
}

#[test]
fn the_workspace_at_head_lints_clean() {
    let report = lint_workspace_dir(&repo_root(), &Options::default()).expect("lint run");
    assert!(
        report.violations.is_empty(),
        "collie-lint found violations at HEAD:\n{}",
        report
            .violations
            .iter()
            .map(|v| format!(
                "  {}:{}:{} [{}] {}",
                v.file, v.line, v.column, v.rule, v.message
            ))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert_eq!(validate_lint_report(&report), Ok(()));
}

#[test]
fn the_head_scan_exercises_the_interesting_paths() {
    let report = lint_workspace_dir(&repo_root(), &Options::default()).expect("lint run");
    // The walker found the real workspace, not an empty directory.
    assert!(
        report.files_scanned > 30,
        "only {} files scanned",
        report.files_scanned
    );
    // The annotated counter-name sites are actually being suppressed (if
    // this drops to 0 the annotations stopped matching and the clean run
    // above is vacuous).
    assert!(
        report.suppressed >= 10,
        "only {} suppressions took effect",
        report.suppressed
    );
    assert_eq!(report.rules_allowed, Vec::<String>::new());
    assert_eq!(report.rules_run.len(), collie_lint::rules::RULES.len());
}
