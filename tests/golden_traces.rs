//! Golden-trace equivalence suite for the search/MFS stacks.
//!
//! The campaign loops pin an implicit contract: for a given strategy and
//! seed, the sequence of discoveries (points, symptoms, MFS strings), the
//! experiment count, and the simulated elapsed time are a pure function of
//! the seed. Refactors of the search kernel must not perturb either RNG
//! stream, or every per-seed number in EXPERIMENTS.md silently shifts.
//!
//! This suite makes the contract explicit: the full fig4, fig5, and fig7
//! strategy×seed grids are re-run and their canonical JSON encodings are
//! diffed byte-for-byte against committed fixtures under `tests/fixtures/`:
//!
//! * `golden_fig4_kernel.json` and `golden_fig5_kernel.json` — the
//!   two-host fig4 and fig5 grids.
//! * `golden_fig7.json` — the fabric grid's random and Collie columns.
//! * `golden_fig7_bo.json` — the fabric BO column (3 seeds), pinning the
//!   generic `run_bayesian` driver on the fabric domain. Together with
//!   `golden_fig7.json` it covers the 3-strategy × 3-seed grid the `fig7`
//!   binary reports.
//! * `golden_eval_stats.json` — the memo-cache hits and misses of every
//!   cell of those grids (30 cells), the counts behind the hit rates
//!   `fig4` and `fig7` print.
//!
//! Every fixture pins the current code. A mismatch means an RNG stream, a
//! discovery outcome or a memo-cache count moved — intentional changes
//! must re-record with:
//!
//! ```text
//! GOLDEN_RECORD=1 cargo test --release -q golden
//! ```
//!
//! and justify the diff in the PR description. Recording writes each
//! fixture with one trailing newline, which the comparison trims, so
//! re-recording unchanged code leaves `tests/fixtures/` byte-identical
//! (CI checks exactly that).

use collie_bench::{
    parallel_map, run_campaign_matrix, run_fabric_campaign_matrix, CampaignSpec, DEFAULT_SEEDS,
};
use collie_core::engine::WorkloadEngine;
use collie_core::eval::{EvalStats, Evaluator};
use collie_core::fabric::{run_fabric_search_on, FabricEngine, FabricEvaluator, FabricOutcome};
use collie_core::search::{run_search_on, SearchConfig, SearchOutcome, SignalMode};
use collie_core::space::{FabricSpace, SearchSpace};
use collie_rnic::subsystems::SubsystemId;
use serde::Serialize;
use std::path::PathBuf;

/// One discovery, reduced to its seed-deterministic identity.
#[derive(Debug, Serialize)]
struct GoldenDiscovery {
    /// Simulated nanoseconds at which the anomaly was confirmed.
    at_nanos: u64,
    /// The triggering point (display form covers every feature).
    point: String,
    /// The end-to-end symptom.
    symptom: String,
    /// Whether the discovery carries the cross-host hallmark (fabric
    /// campaigns only; `None` on the two-host grids).
    cross_host: Option<bool>,
    /// The extracted MFS, in its canonical describe() form.
    mfs: String,
    /// Ground-truth rules matched (scoring only, but seed-deterministic).
    matched_rules: Vec<String>,
}

/// One first-trigger scoring event.
#[derive(Debug, Serialize)]
struct GoldenRuleHit {
    at_nanos: u64,
    rule: String,
}

/// One campaign cell of a golden grid.
#[derive(Debug, Serialize)]
struct GoldenCell {
    label: String,
    seed: u64,
    experiments: u32,
    skipped_by_mfs: u32,
    elapsed_nanos: u64,
    trace_samples: usize,
    trace_anomalies: usize,
    discoveries: Vec<GoldenDiscovery>,
    rule_hits: Vec<GoldenRuleHit>,
}

impl GoldenCell {
    fn from_search(outcome: &SearchOutcome, seed: u64) -> GoldenCell {
        GoldenCell {
            label: outcome.label.clone(),
            seed,
            experiments: outcome.experiments,
            skipped_by_mfs: outcome.skipped_by_mfs,
            elapsed_nanos: outcome.elapsed.as_nanos(),
            trace_samples: outcome.trace.samples().len(),
            trace_anomalies: outcome.trace.anomaly_samples().len(),
            discoveries: outcome
                .discoveries
                .iter()
                .map(|d| GoldenDiscovery {
                    at_nanos: d.at.as_nanos(),
                    point: d.point.to_string(),
                    symptom: d.symptom.to_string(),
                    cross_host: None,
                    mfs: d.mfs.describe(),
                    matched_rules: d.matched_rules.clone(),
                })
                .collect(),
            rule_hits: outcome
                .rule_hits
                .iter()
                .map(|h| GoldenRuleHit {
                    at_nanos: h.at.as_nanos(),
                    rule: h.rule.clone(),
                })
                .collect(),
        }
    }

    fn from_fabric(outcome: &FabricOutcome, seed: u64) -> GoldenCell {
        GoldenCell {
            label: outcome.label.clone(),
            seed,
            experiments: outcome.experiments,
            skipped_by_mfs: outcome.skipped_by_mfs,
            elapsed_nanos: outcome.elapsed.as_nanos(),
            trace_samples: outcome.trace.samples().len(),
            trace_anomalies: outcome.trace.anomaly_samples().len(),
            discoveries: outcome
                .discoveries
                .iter()
                .map(|d| GoldenDiscovery {
                    at_nanos: d.at.as_nanos(),
                    point: d.point.to_string(),
                    symptom: d.symptom.to_string(),
                    cross_host: Some(d.cross_host),
                    mfs: d.mfs.describe(),
                    matched_rules: d.matched_rules.clone(),
                })
                .collect(),
            rule_hits: Vec::new(),
        }
    }
}

/// One campaign cell's memo-cache counters.
#[derive(Debug, Serialize)]
struct GoldenEvalStats {
    /// The figure whose grid the cell belongs to.
    grid: &'static str,
    label: String,
    seed: u64,
    hits: u64,
    misses: u64,
}

impl GoldenEvalStats {
    fn new(grid: &'static str, cell: &CampaignSpec, stats: EvalStats) -> GoldenEvalStats {
        GoldenEvalStats {
            grid,
            label: cell.config.label(),
            seed: cell.config.seed,
            hits: stats.hits,
            misses: stats.misses,
        }
    }
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Serialize, then either record (GOLDEN_RECORD=1) or diff against the
/// committed fixture, reporting the first differing line on mismatch.
fn record_or_compare<T: Serialize>(name: &str, cells: &[T]) {
    let rendered = serde_json::to_string_pretty(cells).expect("golden cells serialize");
    let path = fixture_path(name);
    if std::env::var("GOLDEN_RECORD")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        std::fs::create_dir_all(path.parent().unwrap()).expect("fixtures dir");
        std::fs::write(&path, rendered + "\n").expect("write fixture");
        return;
    }
    let recorded = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); record it from a known-good \
             build with GOLDEN_RECORD=1 cargo test --release -q golden",
            path.display()
        )
    });
    let recorded = recorded.trim_end_matches('\n');
    if recorded == rendered {
        return;
    }
    for (line_no, (got, want)) in rendered.lines().zip(recorded.lines()).enumerate() {
        if got != want {
            panic!(
                "{name} diverged from the golden trace at line {}:\n  recorded: {want}\n  current:  {got}\n\
                 (an RNG stream, a discovery outcome or a memo-cache count moved; \
                 see tests/golden_traces.rs)",
                line_no + 1
            );
        }
    }
    panic!(
        "{name} diverged from the golden trace: line counts differ \
         (recorded {} lines, current {})",
        recorded.lines().count(),
        rendered.lines().count()
    );
}

/// The fig4 grid: three strategies × three seeds, full 10-hour budget.
fn fig4_cells() -> Vec<CampaignSpec> {
    let configs = [
        SearchConfig::random(0),
        SearchConfig::bayesian(0),
        SearchConfig::collie(0),
    ];
    configs
        .iter()
        .flat_map(|config| {
            DEFAULT_SEEDS
                .iter()
                .map(|&seed| CampaignSpec::seeded(SubsystemId::F, config, seed))
        })
        .collect()
}

/// The fig5 grid: the counter-family × MFS ablation, three seeds each.
fn fig5_cells() -> Vec<CampaignSpec> {
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
    configs
        .iter()
        .flat_map(|config| {
            DEFAULT_SEEDS
                .iter()
                .map(|&seed| CampaignSpec::seeded(SubsystemId::F, config, seed))
        })
        .collect()
}

/// The fig7 grid's random and counter-guided fabric columns, three seeds
/// each (the BO column is its own fixture, `golden_fig7_bo.json`).
fn fig7_cells() -> Vec<CampaignSpec> {
    let configs = [SearchConfig::random(0), SearchConfig::collie(0)];
    configs
        .iter()
        .flat_map(|config| {
            DEFAULT_SEEDS
                .iter()
                .map(|&seed| CampaignSpec::seeded(SubsystemId::F, config, seed))
        })
        .collect()
}

/// The fabric BO column of the fig7 grid (three seeds), completing the
/// 3-strategy × 3-seed matrix the `fig7` binary reports.
fn fig7_bo_cells() -> Vec<CampaignSpec> {
    DEFAULT_SEEDS
        .iter()
        .map(|&seed| CampaignSpec::seeded(SubsystemId::F, &SearchConfig::bayesian(0), seed))
        .collect()
}

/// Run a two-host grid and reduce it to golden cells.
fn run_two_host_grid(cells: &[CampaignSpec]) -> Vec<GoldenCell> {
    let outcomes = run_campaign_matrix(cells, 2);
    cells
        .iter()
        .zip(&outcomes)
        .map(|(cell, (outcome, _))| GoldenCell::from_search(outcome, cell.config.seed))
        .collect()
}

/// Run a fabric grid and reduce it to golden cells.
fn run_fabric_grid(cells: &[CampaignSpec]) -> Vec<GoldenCell> {
    let outcomes = run_fabric_campaign_matrix(cells, 2);
    cells
        .iter()
        .zip(&outcomes)
        .map(|(cell, (outcome, _))| GoldenCell::from_fabric(outcome, cell.config.seed))
        .collect()
}

#[test]
fn golden_fig4_kernel_semantics_are_pinned() {
    let golden = run_two_host_grid(&fig4_cells());
    record_or_compare("golden_fig4_kernel.json", &golden);
}

#[test]
fn golden_fig5_kernel_semantics_are_pinned() {
    let golden = run_two_host_grid(&fig5_cells());
    record_or_compare("golden_fig5_kernel.json", &golden);
}

#[test]
fn golden_fig7_fabric_discovery_sequences_are_bit_identical_to_the_pre_kernel_code() {
    // The kernel adopted the fabric semantics wholesale, so this fixture,
    // first recorded from the pre-kernel fabric code, still replays
    // unchanged.
    record_or_compare("golden_fig7.json", &run_fabric_grid(&fig7_cells()));
}

#[test]
fn golden_fig7_bayesian_fabric_cells_are_pinned() {
    // The fabric BO column: the generic-BO driver's fabric streams.
    // Together with `golden_fig7.json` it covers the full 3-strategy ×
    // 3-seed fig7 grid.
    record_or_compare("golden_fig7_bo.json", &run_fabric_grid(&fig7_bo_cells()));
}

#[test]
fn golden_eval_stats_are_pinned() {
    // Every cell of the fig4, fig5 and fig7 grids, through the same matrix
    // runners as the bins: the evaluator's hits and misses per cell.
    let mut golden = Vec::new();
    for (grid, cells) in [("fig4", fig4_cells()), ("fig5", fig5_cells())] {
        let matrix = run_campaign_matrix(&cells, 2);
        golden.extend(
            cells
                .iter()
                .zip(matrix)
                .map(|(cell, (_, stats))| GoldenEvalStats::new(grid, cell, stats)),
        );
    }
    let fig7: Vec<CampaignSpec> = fig7_cells().into_iter().chain(fig7_bo_cells()).collect();
    let matrix = run_fabric_campaign_matrix(&fig7, 2);
    golden.extend(
        fig7.iter()
            .zip(matrix)
            .map(|(cell, (_, stats))| GoldenEvalStats::new("fig7", cell, stats)),
    );
    record_or_compare("golden_eval_stats.json", &golden);
}

/// Replay a two-host grid cell by cell through the uncached reference
/// evaluator (two cells at a time) and reduce it to golden cells.
fn run_two_host_grid_uncached(cells: &[CampaignSpec]) -> Vec<GoldenCell> {
    parallel_map(cells, 2, |cell| {
        let mut engine = WorkloadEngine::for_catalog(cell.subsystem);
        let space = SearchSpace::for_host(&cell.subsystem.host());
        let outcome = run_search_on(&mut Evaluator::uncached(&mut engine), &space, &cell.config);
        GoldenCell::from_search(&outcome, cell.config.seed)
    })
}

/// The fabric counterpart of [`run_two_host_grid_uncached`].
fn run_fabric_grid_uncached(cells: &[CampaignSpec]) -> Vec<GoldenCell> {
    parallel_map(cells, 2, |cell| {
        let mut engine = FabricEngine::for_catalog(cell.subsystem);
        let space = FabricSpace::for_host(&cell.subsystem.host());
        let mut evaluator = FabricEvaluator::uncached(&mut engine);
        let outcome = run_fabric_search_on(&mut evaluator, &space, &cell.config);
        GoldenCell::from_fabric(&outcome, cell.config.seed)
    })
}

/// Render golden cells to their canonical golden JSON.
fn render(golden: &[GoldenCell]) -> String {
    serde_json::to_string_pretty(golden).expect("golden cells serialize")
}

/// Byte-compare two rendered grids, reporting the first differing line.
fn assert_same_stream(name: &str, oracle: &str, replay: &str) {
    if oracle == replay {
        return;
    }
    for (line_no, (want, got)) in oracle.lines().zip(replay.lines()).enumerate() {
        if want != got {
            panic!(
                "{name}: replay diverged from the oracle at line {}:\n  \
                 oracle: {want}\n  replay: {got}",
                line_no + 1
            );
        }
    }
    panic!(
        "{name}: replay diverged from the oracle: line counts differ \
         (oracle {}, replay {})",
        oracle.lines().count(),
        replay.lines().count()
    );
}

#[test]
fn golden_grids_are_incremental_independent() {
    // `SearchConfig::incremental` is inert since the delta caches were
    // removed, but the campaign benchmark still sets it and passes it to
    // `set_incremental`. A grid replayed with the knob on must reproduce
    // the knob-off oracle byte for byte, so the field stays a no-op until
    // it is deleted.
    let knob_on = |cells: Vec<CampaignSpec>| -> Vec<CampaignSpec> {
        cells
            .into_iter()
            .map(|cell| CampaignSpec {
                config: SearchConfig {
                    incremental: true,
                    ..cell.config
                },
                ..cell
            })
            .collect()
    };
    assert_same_stream(
        "golden_fig4_kernel.json (incremental knob on)",
        &render(&run_two_host_grid(&fig4_cells())),
        &render(&run_two_host_grid(&knob_on(fig4_cells()))),
    );
    assert_same_stream(
        "golden_fig7_bo.json (incremental knob on)",
        &render(&run_fabric_grid(&fig7_bo_cells())),
        &render(&run_fabric_grid(&knob_on(fig7_bo_cells()))),
    );
}

#[test]
fn golden_grids_are_memoization_independent() {
    // The memo cache only skips flow-model recompute, so a grid replayed
    // through the uncached reference evaluator must reproduce the
    // memoized render byte for byte. One grid per stack.
    let cells = fig4_cells();
    assert_same_stream(
        "golden_fig4_kernel.json (uncached)",
        &render(&run_two_host_grid(&cells)),
        &render(&run_two_host_grid_uncached(&cells)),
    );
    let cells = fig7_bo_cells();
    assert_same_stream(
        "golden_fig7_bo.json (uncached)",
        &render(&run_fabric_grid(&cells)),
        &render(&run_fabric_grid_uncached(&cells)),
    );
}
