//! Regenerates Table 2: the eighteen performance anomalies and their
//! necessary trigger conditions.
//!
//! For every catalogued anomaly the binary replays the Appendix-A concrete
//! trigger on its subsystem (F for the ConnectX-6 anomalies, H for the
//! Broadcom ones), checks that the expected symptom appears, extracts the
//! minimal feature set, and verifies that breaking one extracted condition
//! makes the anomaly disappear — the property that makes an MFS actionable
//! for application developers.
//!
//! Each anomaly owns a fresh subsystem copy, so the eighteen replays fan
//! out across the harness worker pool; within one replay, the repeated
//! measurements (four monitor samples per assessment, extraction probes,
//! condition-break probes of the same broken points) share one memoized
//! evaluator.
#![forbid(unsafe_code)]

use collie_bench::{default_workers, no_args_or_exit, parallel_map, text_table};
use collie_core::catalog::KnownAnomaly;
use collie_core::engine::WorkloadEngine;
use collie_core::eval::Evaluator;
use collie_core::monitor::{AnomalyMonitor, FeatureCondition};
use collie_core::report::Table2Row;
use collie_core::search::kernel::MfsExtractor;
use collie_core::search::{SignalMode, WorkloadDomain};
use collie_core::space::{FeatureValue, SearchSpace};

fn replay(anomaly: &KnownAnomaly) -> Table2Row {
    let monitor = AnomalyMonitor::new();
    let mut engine = WorkloadEngine::for_catalog(anomaly.subsystem);
    let rnic = engine.subsystem().rnic.model.name().to_string();
    let space = SearchSpace::for_host(&anomaly.subsystem.host());
    let mut evaluator = Evaluator::new(&mut engine);
    let (_, verdict) = evaluator.measure_and_assess(&monitor, &anomaly.trigger);

    // Extract the MFS and verify it is actionable: a developer who breaks
    // one of its conditions (the §7.3 guidance) can reach a workload the
    // monitor considers healthy. The extracted set can be conservative (a
    // superset of the truly minimal conditions), so every condition is
    // tried and any one sufficing counts.
    let mut break_verified = false;
    if let Some(symptom) = verdict.symptom {
        let outcome = {
            // The signal mode steers campaigns only; extraction ignores it.
            let mut domain =
                WorkloadDomain::new(&mut evaluator, &monitor, &space, SignalMode::Diagnostic);
            MfsExtractor::new(&mut domain).extract(&anomaly.trigger, &symptom)
        };
        'conditions: for (feature, condition) in outcome.mfs.conditions.iter() {
            let numeric = |pick_min: bool| {
                let values = space
                    .alternatives(&anomaly.trigger, *feature)
                    .into_iter()
                    .filter_map(|v| match v {
                        FeatureValue::Number(n) => Some(n),
                        _ => None,
                    });
                if pick_min {
                    values.min().map(FeatureValue::Number)
                } else {
                    values.max().map(FeatureValue::Number)
                }
            };
            let replacements: Vec<FeatureValue> = match condition {
                FeatureCondition::AtLeast(_) => numeric(true).into_iter().collect(),
                FeatureCondition::AtMost(_) => numeric(false).into_iter().collect(),
                FeatureCondition::Equals(_) => space.alternatives(&anomaly.trigger, *feature),
            };
            for replacement in replacements {
                let mut broken = anomaly.trigger.clone();
                broken.apply(*feature, &replacement);
                let (_, broken_verdict) = evaluator.measure_and_assess(&monitor, &broken);
                if !broken_verdict.is_anomalous() {
                    break_verified = true;
                    break 'conditions;
                }
            }
        }
    }

    Table2Row {
        id: anomaly.id,
        subsystem: anomaly.subsystem.to_string(),
        rnic,
        new: anomaly.new,
        conditions: anomaly.conditions.clone(),
        expected_symptom: anomaly.symptom,
        observed_symptom: verdict.symptom,
        pause_ratio: verdict.pause_ratio,
        spec_fraction: verdict.spec_fraction,
        condition_break_verified: break_verified,
    }
}

fn main() {
    no_args_or_exit("table2");
    println!(
        "Search space size (nominal bounds of §4/§5): ~1e{:.0} points\n",
        SearchSpace::for_host(&collie_rnic::subsystems::SubsystemId::F.host())
            .nominal_cardinality()
            .log10()
    );

    let anomalies = KnownAnomaly::all();
    let records: Vec<Table2Row> = parallel_map(&anomalies, default_workers(), replay);
    let rows: Vec<Vec<String>> = records
        .iter()
        .map(|row| {
            vec![
                format!("#{}", row.id),
                row.rnic.clone(),
                row.subsystem.clone(),
                if row.new { "new" } else { "known" }.to_string(),
                row.conditions.join("; "),
                format!("{}", row.expected_symptom),
                row.observed_symptom
                    .map(|s| s.to_string())
                    .unwrap_or_else(|| "none".to_string()),
                format!("{:.2}%", row.pause_ratio * 100.0),
                format!("{:.0}%", row.spec_fraction * 100.0),
                if row.reproduced() { "yes" } else { "NO" }.to_string(),
                if row.condition_break_verified {
                    "yes"
                } else {
                    "no"
                }
                .to_string(),
            ]
        })
        .collect();

    println!("Table 2: performance anomalies and their trigger conditions (simulated replay)\n");
    println!(
        "{}",
        text_table(
            &[
                "Anomaly",
                "RNIC",
                "Subsys",
                "New",
                "Necessary conditions",
                "Expected",
                "Observed",
                "Pause",
                "Spec frac",
                "Reproduced",
                "Break verified"
            ],
            &rows
        )
    );
    let reproduced = records.iter().filter(|r| r.reproduced()).count();
    println!(
        "{reproduced}/{} anomalies reproduce their documented symptom.",
        records.len()
    );
    println!("JSON:\n{}", collie_core::report::to_json(&records));
}
