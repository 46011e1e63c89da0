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
//! diffed byte-for-byte against committed fixtures under `tests/fixtures/`.
//! Two fixture generations coexist, because the kernel-unification PR made
//! exactly two deliberate behaviour changes alongside the refactor:
//!
//! * `golden_fig{4,5,7}.json` — recorded from the **pre-kernel** (PR 3)
//!   code. The two-host grids are re-run under
//!   [`SearchConfig::with_legacy_two_host_semantics`] (no stuck-walk
//!   escape, containment-only dedup), which proves the generic
//!   `CampaignLoop`/`MfsExtractor` moved *neither RNG stream*: every
//!   divergence from these fixtures is refactor breakage, never an
//!   intended fix. The fabric grid runs with defaults — the kernel adopted
//!   the fabric semantics, so fig7 is bit-identical without a compat mode.
//! * `golden_fig{4,5}_kernel.json` — recorded from the unified kernel with
//!   its default semantics (stuck-walk escape at 24, identity-keyed
//!   dedup), pinning the *new* behaviour against future drift.
//! * `golden_fig7_bo.json` — the fabric BO column (3 seeds), pinning the
//!   generic `run_bayesian` driver on the fabric domain. First-generation:
//!   the pre-kernel code had no fabric BO cell (a Bayesian config silently
//!   ran the random baseline), so this fixture — unlike `golden_fig7.json`
//!   — is recordable.
//!
//! A mismatch means an RNG stream or a discovery outcome moved —
//! intentional changes must re-record with:
//!
//! ```text
//! GOLDEN_RECORD=1 cargo test --release -q golden
//! ```
//!
//! and justify the diff in the PR description. (Recording regenerates only
//! the current-code fixtures it is pointed at; the pre-kernel files are
//! historical and must never be regenerated.)

use collie_bench::{run_campaign_matrix, run_fabric_campaign_matrix, CampaignSpec, DEFAULT_SEEDS};
use collie_core::fabric::FabricOutcome;
use collie_core::search::{SearchConfig, SearchOutcome, SignalMode};
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

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Serialize, then either record (GOLDEN_RECORD=1) or diff against the
/// committed fixture, reporting the first differing line on mismatch.
///
/// `recordable` is false for the pre-kernel fixtures: they are historical
/// artefacts of the code that predates the generic kernel and can only be
/// compared against, never regenerated.
fn record_or_compare(name: &str, cells: &[GoldenCell], recordable: bool) {
    let rendered = serde_json::to_string_pretty(cells).expect("golden cells serialize");
    let path = fixture_path(name);
    if recordable
        && std::env::var("GOLDEN_RECORD")
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
                 (an RNG stream or discovery outcome moved; see tests/golden_traces.rs)",
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

/// The pre-kernel fig7 grid: random and counter-guided fabric campaigns,
/// three seeds (the fabric BO cells did not exist yet — a Bayesian config
/// was silently mapped to the random baseline, so the historical fixture
/// has no honest BO column to compare against).
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

/// The same grid with the pre-kernel two-host semantics (no stuck-walk
/// escape, containment-only dedup) — the configuration whose streams must
/// be bit-identical to the pre-refactor fixtures.
fn legacy(cells: Vec<CampaignSpec>) -> Vec<CampaignSpec> {
    cells
        .into_iter()
        .map(|cell| CampaignSpec {
            config: cell.config.with_legacy_two_host_semantics(),
            ..cell
        })
        .collect()
}

#[test]
fn golden_fig4_discovery_sequences_are_bit_identical_to_the_pre_kernel_code() {
    let golden = run_two_host_grid(&legacy(fig4_cells()));
    record_or_compare("golden_fig4.json", &golden, false);
}

#[test]
fn golden_fig5_discovery_sequences_are_bit_identical_to_the_pre_kernel_code() {
    let golden = run_two_host_grid(&legacy(fig5_cells()));
    record_or_compare("golden_fig5.json", &golden, false);
}

#[test]
fn golden_fig4_kernel_semantics_are_pinned() {
    // The default semantics: stuck-walk escape + identity-keyed dedup.
    let golden = run_two_host_grid(&fig4_cells());
    record_or_compare("golden_fig4_kernel.json", &golden, true);
}

#[test]
fn golden_fig5_kernel_semantics_are_pinned() {
    let golden = run_two_host_grid(&fig5_cells());
    record_or_compare("golden_fig5_kernel.json", &golden, true);
}

#[test]
fn golden_fig7_fabric_discovery_sequences_are_bit_identical_to_the_pre_kernel_code() {
    // The kernel adopted the fabric semantics wholesale, so the default
    // configuration must reproduce the pre-refactor fabric streams.
    let cells = fig7_cells();
    let outcomes = run_fabric_campaign_matrix(&cells, 2);
    let golden: Vec<GoldenCell> = cells
        .iter()
        .zip(&outcomes)
        .map(|(cell, (outcome, _))| GoldenCell::from_fabric(outcome, cell.config.seed))
        .collect();
    record_or_compare("golden_fig7.json", &golden, false);
}

#[test]
fn golden_fig7_bayesian_fabric_cells_are_pinned() {
    // The fabric BO column is first-generation: `SearchStrategy::Bayesian`
    // used to run the *random* baseline on fabric spaces (while the report
    // still said "BO"), so there is no pre-kernel stream to compare
    // against. This fixture pins the real generic-BO driver's fabric
    // streams from the PR that introduced them; together with
    // `golden_fig7.json` it covers the full 3-strategy × 3-seed fig7 grid.
    let cells = fig7_bo_cells();
    let outcomes = run_fabric_campaign_matrix(&cells, 2);
    let golden: Vec<GoldenCell> = cells
        .iter()
        .zip(&outcomes)
        .map(|(cell, (outcome, _))| GoldenCell::from_fabric(outcome, cell.config.seed))
        .collect();
    record_or_compare("golden_fig7_bo.json", &golden, true);
}

/// The same cells with memoization and the engine's incremental
/// evaluation path pinned explicitly (rather than inherited from
/// `COLLIE_MEMOIZE` / `COLLIE_INCREMENTAL`).
fn with_execution(cells: &[CampaignSpec], memoize: bool, incremental: bool) -> Vec<CampaignSpec> {
    cells
        .iter()
        .cloned()
        .map(|cell| CampaignSpec {
            config: cell
                .config
                .with_memoization(memoize)
                .with_incremental(incremental),
            ..cell
        })
        .collect()
}

/// Render a two-host grid to its canonical golden JSON.
fn render_two_host(cells: &[CampaignSpec]) -> String {
    serde_json::to_string_pretty(&run_two_host_grid(cells)).expect("golden cells serialize")
}

/// Render a fabric grid to its canonical golden JSON.
fn render_fabric(cells: &[CampaignSpec]) -> String {
    let outcomes = run_fabric_campaign_matrix(cells, 2);
    let golden: Vec<GoldenCell> = cells
        .iter()
        .zip(&outcomes)
        .map(|(cell, (outcome, _))| GoldenCell::from_fabric(outcome, cell.config.seed))
        .collect();
    serde_json::to_string_pretty(&golden).expect("golden cells serialize")
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
    // The per-flow and per-direction delta caches are a pure execution
    // optimisation, so a grid replayed with incremental evaluation on —
    // with the memo cache on or off — must reproduce the from-scratch
    // stream byte for byte. The oracle pins incremental *off* explicitly
    // so the test is meaningful under both settings of the
    // COLLIE_INCREMENTAL CI matrix; one second-generation grid per stack
    // keeps the runtime in budget, and the full fixture set runs whichever
    // mode the environment selects in the fixture tests above.
    let cells = fig4_cells();
    let oracle = render_two_host(&with_execution(&cells, true, false));
    for memoize in [true, false] {
        let replay = render_two_host(&with_execution(&cells, memoize, true));
        assert_same_stream(
            &format!("golden_fig4_kernel.json (incremental, memoize {memoize})"),
            &oracle,
            &replay,
        );
    }

    let cells = fig7_bo_cells();
    let oracle = render_fabric(&with_execution(&cells, true, false));
    for memoize in [true, false] {
        let replay = render_fabric(&with_execution(&cells, memoize, true));
        assert_same_stream(
            &format!("golden_fig7_bo.json (incremental, memoize {memoize})"),
            &oracle,
            &replay,
        );
    }
}

#[test]
fn golden_grids_are_memoization_independent() {
    // The memo cache only skips flow-model recompute; outcomes must be
    // bit-identical with it on or off. One full-budget cell per stack is
    // enough here — the full suites run under both modes in CI via
    // COLLIE_MEMOIZE.
    // Pinned explicitly (not via the constructor default) so the assertion
    // on cache statistics holds under the COLLIE_MEMOIZE=0 CI leg too.
    let on = CampaignSpec::seeded(
        SubsystemId::F,
        &SearchConfig::collie(0).with_memoization(true),
        DEFAULT_SEEDS[0],
    );
    let off = CampaignSpec {
        config: on.config.clone().with_memoization(false),
        ..on.clone()
    };
    let outcomes = run_campaign_matrix(&[on.clone(), off], 2);
    assert_eq!(
        outcomes[0].0, outcomes[1].0,
        "cache ablation moved a campaign"
    );
    assert!(outcomes[0].1.hits > 0 && outcomes[1].1.hits == 0);
}
