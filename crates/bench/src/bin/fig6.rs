//! Regenerates Figure 6: the value of the Receive WQE Cache Miss diagnostic
//! counter over the course of the search, for random input generation,
//! simulated annealing without MFS, and Collie.
//!
//! Shape targets from the paper: the random trace stays low, the SA traces
//! drive the counter towards its maximum, and most anomaly discoveries
//! (markers) land while the counter sits in its high region; the Collie
//! trace shows flat segments right after each discovery (the time spent
//! extracting the MFS).
#![forbid(unsafe_code)]

use collie_bench::{no_args_or_exit, run_seeded_campaigns, text_table};
use collie_core::report::{to_json, TraceSeries};
use collie_core::search::SearchConfig;
use collie_rnic::subsystems::SubsystemId;
use collie_sim::time::SimDuration;

fn main() {
    no_args_or_exit("fig6");
    let subsystem = SubsystemId::F;
    // The paper's Figure 6 covers the first ~150 minutes of the search.
    let budget = SimDuration::from_secs(150 * 60);
    let configs = vec![
        ("Random", SearchConfig::random(0).with_budget(budget)),
        (
            "SA(Diag)",
            SearchConfig::collie(0).with_mfs(false).with_budget(budget),
        ),
        ("Collie(Diag)", SearchConfig::collie(0).with_budget(budget)),
    ];

    let mut all_series = Vec::new();
    let mut summary_rows = Vec::new();
    for (label, config) in &configs {
        let outcomes = run_seeded_campaigns(subsystem, config, &[11]);
        let outcome = &outcomes[0];
        let series = TraceSeries::from_outcome(outcome);
        let anomalies = series.points.iter().filter(|p| p.anomaly).count();
        let high_region_anomalies = series
            .points
            .iter()
            .filter(|p| p.anomaly && p.normalized_value >= 0.5)
            .count();
        let mean_value = if series.points.is_empty() {
            0.0
        } else {
            series
                .points
                .iter()
                .map(|p| p.normalized_value)
                .sum::<f64>()
                / series.points.len() as f64
        };
        summary_rows.push(vec![
            (*label).to_string(),
            format!("{:.2}", mean_value),
            anomalies.to_string(),
            high_region_anomalies.to_string(),
            outcome.experiments.to_string(),
        ]);
        all_series.push(TraceSeries {
            strategy: (*label).to_string(),
            points: series.points,
        });
    }

    println!("Figure 6: normalised Receive-WQE-cache-miss counter during the search (subsystem F, 150 min)\n");
    println!(
        "{}",
        text_table(
            &[
                "Trace",
                "Mean normalised value",
                "Anomalies found",
                "Anomalies found at counter >= 0.5",
                "Experiments"
            ],
            &summary_rows
        )
    );
    println!("JSON (full traces):\n{}", to_json(&all_series));
}
