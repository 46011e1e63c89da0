//! Regenerates Figure 5: the ablation of Collie's two ingredients — which
//! counter family guides the search (performance vs diagnostic) and whether
//! the minimal-feature-set skip is applied.
//!
//! Shape targets from the paper: performance counters alone already find
//! most anomalies; diagnostic counters find more (notably the
//! cache-scalability anomalies #7/#8 that cause no end-to-end throughput
//! change at first); MFS roughly halves the time to cover the full set.
//!
//! All twelve campaigns (4 variants × 3 seeds) run as one parallel matrix.
#![forbid(unsafe_code)]

use collie_bench::{
    default_workers, fmt_minutes, no_args_or_exit, run_campaign_matrix, text_table, CampaignSpec,
    DEFAULT_SEEDS,
};
use collie_core::catalog::KnownAnomaly;
use collie_core::report::{time_to_find_rows, to_json};
use collie_core::search::{SearchConfig, SearchOutcome, SignalMode};
use collie_rnic::subsystems::SubsystemId;
use std::time::Instant;

fn main() {
    no_args_or_exit("fig5");
    let subsystem = SubsystemId::F;
    let max_anomalies = KnownAnomaly::for_subsystem(subsystem).len();
    let configs = [
        SearchConfig::collie(0)
            .with_mfs(false)
            .with_signal(SignalMode::Performance),
        SearchConfig::collie(0)
            .with_mfs(false)
            .with_signal(SignalMode::Diagnostic),
        SearchConfig::collie(0).with_signal(SignalMode::Performance),
        SearchConfig::collie(0).with_signal(SignalMode::Diagnostic),
    ];

    let cells: Vec<CampaignSpec> = configs
        .iter()
        .flat_map(|config| {
            DEFAULT_SEEDS
                .iter()
                .map(|&seed| CampaignSpec::seeded(subsystem, config, seed))
        })
        .collect();
    let started = Instant::now();
    let mut matrix = run_campaign_matrix(&cells, default_workers()).into_iter();
    let wall = started.elapsed();

    let mut all_rows = Vec::new();
    let mut table_rows = Vec::new();
    for config in &configs {
        let label = config.label();
        let outcomes: Vec<SearchOutcome> = matrix
            .by_ref()
            .take(DEFAULT_SEEDS.len())
            .map(|(o, _)| o)
            .collect();
        let found: Vec<usize> = outcomes
            .iter()
            .map(|o| o.distinct_known_anomalies().len())
            .collect();
        let triggered: Vec<usize> = outcomes
            .iter()
            .map(|o| o.distinct_triggered_anomalies().len())
            .collect();
        eprintln!(
            "{label}: distinct catalogued anomalies per seed = {found:?} \
             (triggered at least once: {triggered:?}, of {max_anomalies})"
        );
        let rows = time_to_find_rows(&label, &outcomes, max_anomalies);
        for row in &rows {
            if row.anomalies_found == 0 {
                continue;
            }
            table_rows.push(vec![
                row.strategy.clone(),
                row.anomalies_found.to_string(),
                fmt_minutes(row.mean_minutes),
                format!("{:.1}", row.std_minutes),
                format!("{}/{}", row.seeds_reaching, row.seeds_total),
            ]);
        }
        all_rows.extend(rows);
    }
    eprintln!(
        "matrix: {} campaigns on {} workers in {:.2} s wall-clock",
        cells.len(),
        default_workers(),
        wall.as_secs_f64()
    );

    println!("Figure 5: counter-family and MFS ablation on subsystem F\n");
    println!(
        "{}",
        text_table(
            &[
                "Variant",
                "Anomalies found",
                "Mean minutes",
                "Std",
                "Seeds reaching"
            ],
            &table_rows
        )
    );
    println!("JSON:\n{}", to_json(&all_rows));
}
