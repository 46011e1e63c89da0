//! Regenerates the fabric campaign grid (no direct paper counterpart —
//! this extends Figures 4/6 to the multi-host fabric): random,
//! BO-surrogate, and counter-guided fabric campaigns on subsystem F's
//! homogeneous fleet, hunting cross-host PFC pause storms where a victim
//! flow collapses while the culprit host still looks healthy.
//!
//! All campaigns (3 strategies × 3 seeds, the same strategy column as the
//! two-host Figure 4) run as one parallel matrix via the shared bounded
//! worker pool.
#![forbid(unsafe_code)]

use collie_bench::{
    default_workers, fmt_minutes, no_args_or_exit, run_fabric_campaign_matrix, text_table,
    CampaignSpec, DEFAULT_SEEDS,
};
use collie_core::report::{to_json, FabricGridRow};
use collie_core::search::SearchConfig;
use collie_rnic::subsystems::SubsystemId;
use std::time::Instant;

fn main() {
    no_args_or_exit("fig7");
    let subsystem = SubsystemId::F;
    let configs = [
        ("Random", SearchConfig::random(0)),
        ("BO", SearchConfig::bayesian(0)),
        ("Collie", SearchConfig::collie(0)),
    ];

    let cells: Vec<CampaignSpec> = configs
        .iter()
        .flat_map(|(_, config)| {
            DEFAULT_SEEDS
                .iter()
                .map(|&seed| CampaignSpec::seeded(subsystem, config, seed))
        })
        .collect();
    let started = Instant::now();
    let matrix = run_fabric_campaign_matrix(&cells, default_workers());
    let wall = started.elapsed();

    let mut rows = Vec::new();
    let mut table_rows = Vec::new();
    for (cell, (outcome, stats)) in cells.iter().zip(&matrix) {
        let row = FabricGridRow::from_outcome(outcome, cell.config.seed);
        table_rows.push(vec![
            row.strategy.clone(),
            row.seed.to_string(),
            row.discoveries.to_string(),
            row.cross_host.to_string(),
            fmt_minutes(row.first_cross_host_minutes),
            row.experiments.to_string(),
            row.skipped_by_mfs.to_string(),
            format!("{:.0}%", stats.hit_rate() * 100.0),
        ]);
        rows.push(row);
    }
    eprintln!(
        "matrix: {} fabric campaigns on {} workers in {:.2} s wall-clock",
        cells.len(),
        default_workers(),
        wall.as_secs_f64()
    );

    println!(
        "Fabric grid: cross-host pause-storm campaigns on subsystem F \
         (10 simulated hours per campaign)\n"
    );
    println!(
        "{}",
        text_table(
            &[
                "Strategy",
                "Seed",
                "Discoveries",
                "Cross-host",
                "First cross-host (min)",
                "Experiments",
                "Skipped",
                "Cache hits"
            ],
            &table_rows
        )
    );
    println!("JSON:\n{}", to_json(&rows));
}
