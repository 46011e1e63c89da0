//! Runs the discovery → remediation → verification loop over the full
//! anomaly catalog and maintains the persistent regression catalog.
//!
//! For every catalogued anomaly the binary replays the Appendix-A trigger on
//! its own subsystem and asks the [`collie_core::remedy::Qualifier`] to
//! apply the documented mitigations cumulatively, one at a time, verifying
//! after each step whether the anomaly actually cleared. The per-anomaly
//! verdicts are printed as a table (and a `JSON:` block for machines), and
//! the run fails if any paper-fixed anomaly (#3, #9, #10, #11, #12, #17,
//! #18) is not verified as fixed by documented fixes alone.
//!
//! Flags:
//!
//! * `--catalog <path>` — pre-seed from an existing regression catalog:
//!   known-cleared anomalies are skipped instead of re-qualified, and every
//!   cleared record is replayed under its recorded mitigations; a record
//!   that is anomalous again is reported as a regression and fails the run.
//! * `--out <path>` — write the (merged) regression catalog back to disk.
//! * `--json` — print only the `JSON:` block.
//!
//! Exit status: `0` success, `1` a regression or an unverified paper fix,
//! `2` a usage error or a catalog that cannot be read or written.
#![forbid(unsafe_code)]

use collie_bench::{default_workers, parallel_map, text_table};
use collie_core::catalog::KnownAnomaly;
use collie_core::mitigation::Mitigation;
use collie_core::remedy::{
    trigger_identity, QualificationRecord, Qualifier, RegressionCatalog, RegressionFlag,
};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: qualify [--catalog <path>] [--out <path>] [--json]";

#[derive(Debug, Default, PartialEq)]
struct Options {
    catalog: Option<PathBuf>,
    out: Option<PathBuf>,
    json_only: bool,
}

/// Parse the arguments after the program name. `Err` carries the message
/// of a usage error: an unknown argument or a flag missing its path.
fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--catalog" => match args.next() {
                Some(path) if !path.starts_with('-') => options.catalog = Some(path.into()),
                _ => return Err("--catalog needs a path".to_string()),
            },
            "--out" => match args.next() {
                Some(path) if !path.starts_with('-') => options.out = Some(path.into()),
                _ => return Err("--out needs a path".to_string()),
            },
            "--json" => options.json_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(options)
}

fn verdict_cell(record: &QualificationRecord) -> String {
    match record.cleared_by {
        Some(by) if record.fixed() => format!("fixed by {by:?} ({})", by.kind()),
        Some(by) => format!("bypassed by {by:?} ({})", by.kind()),
        None if record.steps.is_empty() => "no documented fix".to_string(),
        None => "NOT CLEARED".to_string(),
    }
}

fn steps_cell(record: &QualificationRecord) -> String {
    if record.steps.is_empty() {
        return "-".to_string();
    }
    record
        .steps
        .iter()
        .map(|step| {
            let mark = if step.verdict.cleared { "ok" } else { "x" };
            format!("{:?} ({mark})", step.mitigation)
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("qualify: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut catalog = match &options.catalog {
        Some(path) => match RegressionCatalog::load(path) {
            Ok(catalog) => catalog,
            Err(e) => {
                eprintln!("failed to load {}: {e}", path.display());
                return ExitCode::from(2);
            }
        },
        None => RegressionCatalog::new(),
    };

    // Regression watch first: replay every previously-cleared record under
    // its recorded mitigations before merging in this run's results.
    let regressions: Vec<RegressionFlag> = catalog.check_regressions();

    // Qualify every catalogued anomaly that the pre-seeded catalog does not
    // already record as cleared (the skip is the point of persisting it).
    let anomalies = KnownAnomaly::all();
    let (skipped, to_qualify): (Vec<&KnownAnomaly>, Vec<&KnownAnomaly>) =
        anomalies.iter().partition(|anomaly| {
            let identity = trigger_identity(
                anomaly.subsystem,
                anomaly.symptom,
                &[anomaly.id],
                &anomaly.trigger,
            );
            catalog.is_known_cleared(&identity)
        });

    let fresh: Vec<QualificationRecord> = parallel_map(&to_qualify, default_workers(), |anomaly| {
        Qualifier::for_subsystem(anomaly.subsystem).qualify_known(anomaly)
    });
    for record in &fresh {
        catalog.upsert(record.clone());
    }

    // Every anomaly now has a record: freshly qualified or carried over.
    let records: Vec<&QualificationRecord> = anomalies
        .iter()
        .filter_map(|anomaly| {
            catalog.get(&trigger_identity(
                anomaly.subsystem,
                anomaly.symptom,
                &[anomaly.id],
                &anomaly.trigger,
            ))
        })
        .collect();

    let paper_fixed = Mitigation::paper_fixed_anomalies();
    let unverified_fixes: Vec<u32> = paper_fixed
        .iter()
        .copied()
        .filter(|id| {
            !records
                .iter()
                .any(|r| r.anomaly_ids == vec![*id] && r.fixed())
        })
        .collect();

    if !options.json_only {
        let rows: Vec<Vec<String>> = records
            .iter()
            .map(|record| {
                let skipped_mark = if skipped.iter().any(|a| record.anomaly_ids == vec![a.id]) {
                    " (cached)"
                } else {
                    ""
                };
                vec![
                    record
                        .anomaly_ids
                        .iter()
                        .map(|id| format!("#{id}"))
                        .collect::<Vec<_>>()
                        .join("+"),
                    format!("{:?}", record.subsystem),
                    format!("{}", record.symptom),
                    steps_cell(record),
                    format!("{}{skipped_mark}", verdict_cell(record)),
                ]
            })
            .collect();
        println!("Qualification verdicts: mitigations applied cumulatively, one per step\n");
        println!(
            "{}",
            text_table(
                &[
                    "Anomaly",
                    "Subsys",
                    "Symptom",
                    "Steps (cumulative)",
                    "Verdict"
                ],
                &rows
            )
        );
        let fixed = records.iter().filter(|r| r.fixed()).count();
        let bypassed = records.iter().filter(|r| r.cleared() && !r.fixed()).count();
        println!(
            "{fixed}/{} fixed by documented fixes, {bypassed} bypass-only, {} without a \
             documented mitigation; {} carried over from the pre-seeded catalog.",
            records.len(),
            records.len() - fixed - bypassed,
            skipped.len()
        );
        for flag in &regressions {
            println!(
                "REGRESSION: {} on {:?} is anomalous again ({}) under its recorded mitigations",
                flag.identity, flag.subsystem, flag.residual_symptom
            );
        }
        if !unverified_fixes.is_empty() {
            println!(
                "FAILED: paper-fixed anomalies not verified as fixed: {}",
                unverified_fixes
                    .iter()
                    .map(|id| format!("#{id}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
    }

    if let Some(path) = &options.out {
        if let Err(e) = catalog.save(path) {
            eprintln!("failed to write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        if !options.json_only {
            println!("Regression catalog written to {}", path.display());
        }
    }

    let owned: Vec<QualificationRecord> = records.into_iter().cloned().collect();
    println!("JSON:\n{}", collie_core::report::to_json(&owned));

    if regressions.is_empty() && unverified_fixes.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(&args.iter().map(|arg| arg.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn valid_flags_parse() {
        assert_eq!(parse(&[]), Ok(Options::default()));
        assert_eq!(
            parse(&["--catalog", "x", "--out", "y", "--json"]),
            Ok(Options {
                catalog: Some(PathBuf::from("x")),
                out: Some(PathBuf::from("y")),
                json_only: true,
            })
        );
    }

    #[test]
    fn usage_errors_are_rejected_with_a_message() {
        for (args, message) in [
            (&["--catalog"][..], "--catalog needs a path"),
            (&["--out"][..], "--out needs a path"),
            (&["--out", "--json"][..], "--out needs a path"),
            (&["--fast"][..], "unknown argument --fast"),
        ] {
            let err = parse(args).expect_err(&format!("{args:?} must be a usage error"));
            assert!(err.contains(message), "{args:?}: {err}");
        }
    }
}
