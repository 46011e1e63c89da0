//! Shared harness code for the evaluation binaries and Criterion benches.
//!
//! Every table and figure of the paper's evaluation section has a binary in
//! `src/bin/` that regenerates it against the simulated subsystems, and a
//! Criterion bench in `benches/` that measures the cost of the underlying
//! operation. The binaries print aligned text tables (the same rows the
//! paper reports) followed by a JSON block so EXPERIMENTS.md and plotting
//! scripts can consume the numbers directly.
//!
//! Campaigns are embarrassingly parallel — each one owns a fresh copy of
//! its subsystem and its own memo cache — so the harness fans the full
//! (strategy × subsystem × seed) grid out across a bounded scoped-thread
//! pool ([`run_campaign_matrix`]) instead of sweeping it serially.
#![forbid(unsafe_code)]

pub mod report;

pub use report::{latency_summary, validate_bench_report, BenchCache, BenchCell, BenchReport};

use collie_core::engine::{Engine, WorkloadEngine};
use collie_core::eval::{EvalStats, Evaluator};
use collie_core::fabric::{run_fabric_search_on, FabricEngine, FabricOutcome};
use collie_core::remedy::{DiscoveredTrigger, QualificationRecord, Qualifier};
use collie_core::search::{run_search_on, SearchConfig, SearchOutcome};
use collie_core::space::{FabricSpace, SearchSpace};
use collie_rnic::subsystems::SubsystemId;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Default seeds used when repeating a campaign for mean/std error bars.
/// (The paper repeats each search and reports the standard deviation; three
/// seeds keep the harness runtime reasonable while still producing error
/// bars.)
pub const DEFAULT_SEEDS: [u64; 3] = [11, 23, 47];

/// One cell of a campaign matrix: a search configuration (strategy, signal,
/// MFS toggle, seed, budget) pointed at one subsystem.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// The subsystem the campaign runs against (a fresh copy per cell).
    pub subsystem: SubsystemId,
    /// The full search configuration, seed included.
    pub config: SearchConfig,
}

impl CampaignSpec {
    /// A cell running `config` with `seed` on `subsystem`.
    pub fn seeded(subsystem: SubsystemId, config: &SearchConfig, seed: u64) -> CampaignSpec {
        CampaignSpec {
            subsystem,
            config: SearchConfig {
                seed,
                ..config.clone()
            },
        }
    }
}

/// The worker-pool width used when the caller does not pick one: the
/// `COLLIE_WORKERS` environment variable when set (clamped to at least 1),
/// otherwise the machine's parallelism clamped to `2..=16`.
pub fn default_workers() -> usize {
    collie_core::env::workers().unwrap_or_else(|| {
        auto_workers(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        )
    })
}

/// The automatic pool width for `available` hardware threads, clamped to
/// `2..=16`.
fn auto_workers(available: usize) -> usize {
    available.clamp(2, 16)
}

/// Map `f` over `items` on a bounded pool of scoped worker threads,
/// preserving input order in the results.
///
/// Workers pull the next index from a shared atomic cursor, so cheap items
/// do not wait on expensive ones (campaign lengths vary by strategy). A
/// panic in `f` propagates to the caller.
pub fn parallel_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let results: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let workers = workers.max(1).min(items.len().max(1));
    crossbeam::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|_| loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(index) else {
                    break;
                };
                let result = f(item);
                *results[index].lock().expect("result slot poisoned") = Some(result);
            });
        }
    })
    .expect("worker pool panicked");
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every slot filled")
        })
        .collect()
}

/// Capacity of the per-subsystem caches of a matrix-scoped
/// [`EvalContext`](collie_core::eval::EvalContext). The matrix runners no
/// longer build one (every cell keeps only its own memo cache; DESIGN.md
/// §10); the constant stays because the campaign benchmark's traced run
/// builds its context with it.
pub const DEFAULT_MATRIX_CACHE_CAPACITY: usize = 65_536;

/// How a campaign matrix runs: pool width and the optional verification
/// phase.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixOptions {
    /// Worker-pool width (clamped like [`parallel_map`]).
    pub workers: usize,
    /// Append a qualification phase to the matrix report: every discovery
    /// is handed to a [`Qualifier`] that verifies its mitigations one at a
    /// time on fresh engine forks. Off by default — the phase runs strictly
    /// after the campaign cells and never touches their engines, so cell
    /// outcomes (and the golden-trace fixtures) are byte-identical either
    /// way.
    pub qualify: bool,
}

impl MatrixOptions {
    /// `workers` wide, qualification off.
    pub fn new(workers: usize) -> MatrixOptions {
        MatrixOptions {
            workers,
            qualify: false,
        }
    }

    /// Append the qualification phase to the matrix report.
    pub fn with_qualification(mut self) -> MatrixOptions {
        self.qualify = true;
        self
    }
}

/// One finished matrix cell: the campaign outcome plus everything the perf
/// harness reports about how it ran.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixCell<O> {
    /// The campaign outcome (independent of the pool width).
    pub outcome: O,
    /// Evaluation-cache hit/miss counters (independent of the pool width).
    pub stats: EvalStats,
    /// Real wall-clock the cell took, in seconds.
    pub wall_secs: f64,
    /// One wall-clock latency (ns) per engine compute on the cell's commit
    /// thread.
    pub compute_nanos: Vec<u64>,
}

/// A finished campaign matrix: the cells in matrix order and, when
/// requested, the verification phase.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixReport<O> {
    /// One entry per input cell, in input order.
    pub cells: Vec<MatrixCell<O>>,
    /// The qualification phase (`None` unless [`MatrixOptions::qualify`]
    /// was set).
    pub qualification: Option<QualificationPhase>,
}

/// The verification phase of a matrix run: every distinct discovery
/// qualified through the remediation pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct QualificationPhase {
    /// One record per distinct qualified discovery (dedup by
    /// [`DiscoveredTrigger::identity`] across all cells).
    pub records: Vec<QualificationRecord>,
    /// Discoveries that were not anomalous on a fresh two-host engine
    /// (fabric-only effects have nothing to remediate at the subsystem
    /// level).
    pub not_reproduced: usize,
}

/// Qualify the deduped discoveries of a finished matrix (see
/// [`MatrixOptions::qualify`]). Runs strictly after the campaign cells, on
/// fresh engines, so it can never perturb cell outcomes.
fn qualification_phase(
    specs: &[CampaignSpec],
    triggers_per_cell: Vec<Vec<DiscoveredTrigger>>,
    workers: usize,
) -> QualificationPhase {
    let mut seen = std::collections::BTreeSet::new();
    let mut work: Vec<(SubsystemId, DiscoveredTrigger)> = Vec::new();
    for (spec, triggers) in specs.iter().zip(triggers_per_cell) {
        for trigger in triggers {
            // The identity string is prefixed with the subsystem, so one
            // set dedups across subsystems too.
            if seen.insert(trigger.identity(spec.subsystem)) {
                work.push((spec.subsystem, trigger));
            }
        }
    }
    let qualified = parallel_map(&work, workers, |(subsystem, trigger)| {
        let qualifier = Qualifier::for_subsystem(*subsystem);
        let engine = WorkloadEngine::for_catalog(*subsystem);
        qualifier.qualify(&engine, &trigger.point, &trigger.matched_rules)
    });
    let not_reproduced = qualified.iter().filter(|r| r.is_none()).count();
    QualificationPhase {
        records: qualified.into_iter().flatten().collect(),
        not_reproduced,
    }
}

/// The one matrix runner behind both domains: build each cell's engine and
/// space with `setup`, time `run` over them through the cell's own
/// memoizing [`Evaluator`] on the worker pool, then run the qualification
/// phase over the discoveries `triggers` reads back.
fn matrix_report<E: Engine, S, O: Send>(
    specs: &[CampaignSpec],
    options: &MatrixOptions,
    setup: impl Fn(SubsystemId) -> (E, S) + Sync,
    run: impl Fn(&mut Evaluator<'_, E>, &S, &SearchConfig) -> O + Sync,
    triggers: impl Fn(&O) -> Vec<DiscoveredTrigger>,
) -> MatrixReport<O> {
    let cells = parallel_map(specs, options.workers, |cell| {
        let (mut engine, space) = setup(cell.subsystem);
        let started = Instant::now();
        let mut evaluator = Evaluator::new(&mut engine);
        let outcome = run(&mut evaluator, &space, &cell.config);
        let profile = evaluator.profile();
        // The cell's wall-clock covers building and freeing its memo cache.
        drop(evaluator);
        MatrixCell {
            outcome,
            stats: profile.stats,
            wall_secs: started.elapsed().as_secs_f64(),
            compute_nanos: profile.compute_nanos,
        }
    });
    let qualification = options.qualify.then(|| {
        let triggers = cells.iter().map(|cell| triggers(&cell.outcome)).collect();
        qualification_phase(specs, triggers, options.workers)
    });
    MatrixReport {
        cells,
        qualification,
    }
}

/// Run every cell of a campaign matrix on a [`MatrixOptions::workers`]-wide
/// pool, reporting per-cell perf alongside the outcomes. Each cell owns a
/// fresh engine and evaluates through its own memo cache only, so a cell's
/// outcome and stats equal a standalone [`run_search_on`] of the same
/// configuration through a fresh [`Evaluator`].
pub fn run_campaign_matrix_report(
    specs: &[CampaignSpec],
    options: &MatrixOptions,
) -> MatrixReport<SearchOutcome> {
    matrix_report(
        specs,
        options,
        |id| {
            (
                WorkloadEngine::for_catalog(id),
                SearchSpace::for_host(&id.host()),
            )
        },
        run_search_on,
        SearchOutcome::discovered_triggers,
    )
}

/// The fabric counterpart of [`run_campaign_matrix_report`]. The
/// qualification phase (when requested) verifies each discovery's *culprit
/// workload* against the two-host subsystem — see
/// [`FabricOutcome::discovered_triggers`].
pub fn run_fabric_campaign_matrix_report(
    specs: &[CampaignSpec],
    options: &MatrixOptions,
) -> MatrixReport<FabricOutcome> {
    matrix_report(
        specs,
        options,
        |id| {
            (
                FabricEngine::for_catalog(id),
                FabricSpace::for_host(&id.host()),
            )
        },
        run_fabric_search_on,
        FabricOutcome::discovered_triggers,
    )
}

/// Run every cell of a campaign matrix on a bounded worker pool, returning
/// `(outcome, eval-cache stats)` per cell in matrix order.
pub fn run_campaign_matrix(
    cells: &[CampaignSpec],
    workers: usize,
) -> Vec<(SearchOutcome, EvalStats)> {
    run_campaign_matrix_report(cells, &MatrixOptions::new(workers))
        .cells
        .into_iter()
        .map(|cell| (cell.outcome, cell.stats))
        .collect()
}

/// Run every cell of a *fabric* campaign matrix on a bounded worker pool,
/// returning `(outcome, eval-cache stats)` per cell in matrix order. A
/// fabric cell is an ordinary [`CampaignSpec`] — only the runner differs:
/// the cell's subsystem host is scaled out into the homogeneous fleet and
/// the configuration drives the fabric search.
pub fn run_fabric_campaign_matrix(
    cells: &[CampaignSpec],
    workers: usize,
) -> Vec<(FabricOutcome, EvalStats)> {
    run_fabric_campaign_matrix_report(cells, &MatrixOptions::new(workers))
        .cells
        .into_iter()
        .map(|cell| (cell.outcome, cell.stats))
        .collect()
}

/// Assemble the machine-readable [`BenchReport`] for a finished matrix:
/// one [`BenchCell`] per grid cell, labelled from the cell's configuration.
/// The schema every `BENCH_<name>.json` file and every fig bin's `--json`
/// block share.
pub fn bench_report<O>(
    name: &str,
    mode: &str,
    cells: &[CampaignSpec],
    report: &MatrixReport<O>,
) -> BenchReport {
    BenchReport {
        name: name.to_string(),
        mode: mode.to_string(),
        cells: cells
            .iter()
            .zip(&report.cells)
            .map(|(spec, cell)| cell.bench_cell(&spec.config.label(), spec.config.seed))
            .collect(),
    }
}

impl<O> MatrixCell<O> {
    /// This cell's row of a [`BenchReport`].
    pub fn bench_cell(&self, label: &str, seed: u64) -> BenchCell {
        BenchCell::new(label, seed, self.wall_secs, self.stats, &self.compute_nanos)
    }
}

/// Run the same campaign configuration once per seed on a fresh copy of the
/// subsystem, in parallel (a one-configuration row of the campaign matrix).
pub fn run_seeded_campaigns(
    subsystem: SubsystemId,
    config: &SearchConfig,
    seeds: &[u64],
) -> Vec<SearchOutcome> {
    let cells: Vec<CampaignSpec> = seeds
        .iter()
        .map(|&seed| CampaignSpec::seeded(subsystem, config, seed))
        .collect();
    run_campaign_matrix(&cells, default_workers())
        .into_iter()
        .map(|(outcome, _)| outcome)
        .collect()
}

/// Check an evaluation bin's arguments (program name excluded) against the
/// flags it accepts: `Ok` holds the flags given, `Err` names the first
/// argument that is not one of them.
pub fn parse_flags(
    args: &[String],
    accepted: &[&'static str],
) -> Result<Vec<&'static str>, String> {
    args.iter()
        .map(|arg| {
            accepted
                .iter()
                .find(|flag| *flag == arg)
                .copied()
                .ok_or_else(|| format!("unknown argument {arg}"))
        })
        .collect()
}

/// The usage line of an evaluation bin that accepts `accepted`.
fn usage(bin: &str, accepted: &[&str]) -> String {
    let flags: String = accepted.iter().map(|flag| format!(" [{flag}]")).collect();
    format!("usage: {bin}{flags}")
}

/// [`parse_flags`] over the process arguments. On a usage error, print it
/// with the usage line to stderr and exit 2 — before the bin runs anything,
/// so a typo such as `--jsn` cannot silently drop the output it asked for.
pub fn parse_flags_or_exit(bin: &str, accepted: &[&'static str]) -> Vec<&'static str> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_flags(&args, accepted).unwrap_or_else(|message| {
        eprintln!("{bin}: {message}\n{}", usage(bin, accepted));
        std::process::exit(2)
    })
}

/// Render rows of `(label, cells)` as an aligned text table. Rows may carry
/// more cells than the header; widths are sized to the widest row.
pub fn text_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let columns = rows
        .iter()
        .map(|row| row.len())
        .max()
        .unwrap_or(0)
        .max(header.len());
    let mut widths: Vec<usize> = vec![0; columns];
    for (i, h) in header.iter().enumerate() {
        widths[i] = h.len();
    }
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let render_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let mut out = String::new();
    out.push_str(&render_row(
        &header.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
    ));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row));
        out.push('\n');
    }
    out
}

/// Format an optional minute count.
pub fn fmt_minutes(value: Option<f64>) -> String {
    match value {
        Some(v) => format!("{v:.1}"),
        None => "not found".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collie_sim::time::SimDuration;

    #[test]
    fn text_table_aligns_columns() {
        let table = text_table(
            &["name", "value"],
            &[
                vec!["a".to_string(), "1".to_string()],
                vec!["longer-name".to_string(), "222".to_string()],
            ],
        );
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].starts_with("longer-name"));
    }

    #[test]
    fn text_table_sizes_widths_to_the_widest_row() {
        // Regression: widths used to be computed only for header columns,
        // so rows with more cells than the header rendered those cells with
        // width 0 and broke alignment.
        let table = text_table(
            &["name"],
            &[
                vec!["a".to_string(), "x".to_string(), "yy".to_string()],
                vec!["bb".to_string(), "wide-cell".to_string()],
            ],
        );
        let lines: Vec<&str> = table.lines().collect();
        // Every cell is padded to its column width, so both data rows start
        // their second column at the same offset even though the header has
        // a single cell.
        let col2_row1 = lines[2].find('x').expect("row 1 second cell");
        let col2_row2 = lines[3].find("wide-cell").expect("row 2 second cell");
        assert_eq!(col2_row1, col2_row2, "{table}");
        // The rule spans all three columns, not just the header's one:
        // widths (4 + 9 + 2) plus 2 spaces of padding per column.
        assert_eq!(lines[1].len(), 4 + 9 + 2 + 2 * 3);
    }

    #[test]
    fn parallel_map_preserves_order_under_a_small_pool() {
        let items: Vec<u64> = (0..37).collect();
        let doubled = parallel_map(&items, 3, |&n| n * 2);
        assert_eq!(doubled, items.iter().map(|n| n * 2).collect::<Vec<_>>());
        // Degenerate widths are clamped, not panicked on.
        assert_eq!(parallel_map(&items[..1], 0, |&n| n + 1), vec![1]);
        assert!(parallel_map(&[] as &[u64], 4, |&n| n).is_empty());
    }

    #[test]
    fn seeded_campaigns_run_in_parallel_and_are_independent() {
        let config = SearchConfig::random(0).with_budget(SimDuration::from_secs(900));
        let outcomes = run_seeded_campaigns(SubsystemId::F, &config, &[1, 2]);
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes.iter().all(|o| o.experiments > 0));
    }

    #[test]
    fn campaign_matrix_matches_per_cell_runs() {
        // Two strategies × two seeds through the matrix equal the same four
        // campaigns run individually, outcome and eval-cache stats alike,
        // on a serial and a two-wide pool: each cell evaluates through its
        // own memo cache, so the pool changes scheduling, never results.
        let budget = SimDuration::from_secs(900);
        let configs = [
            SearchConfig::random(0).with_budget(budget),
            SearchConfig::collie(0).with_budget(budget),
        ];
        let mut cells = Vec::new();
        for config in &configs {
            for &seed in &[5u64, 6] {
                cells.push(CampaignSpec::seeded(SubsystemId::F, config, seed));
            }
        }
        let solo: Vec<_> = cells
            .iter()
            .map(|cell| {
                let mut engine = WorkloadEngine::for_catalog(cell.subsystem);
                let space = SearchSpace::for_host(&cell.subsystem.host());
                let mut evaluator = Evaluator::new(&mut engine);
                let outcome = run_search_on(&mut evaluator, &space, &cell.config);
                (outcome, evaluator.stats())
            })
            .collect();
        for workers in [1, 2] {
            let matrix = run_campaign_matrix(&cells, workers);
            assert_eq!(matrix, solo, "{workers} worker(s)");
        }
        assert!(solo.iter().all(|(_, stats)| stats.misses > 0));
    }

    #[test]
    fn bin_flags_accept_only_what_the_bin_declares() {
        let args = |list: &[&str]| list.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_flags(&args(&[]), &["--json"]), Ok(vec![]));
        assert_eq!(
            parse_flags(&args(&["--json"]), &["--json"]),
            Ok(vec!["--json"])
        );
        // A typo is an error, not a silently ignored flag.
        let error = parse_flags(&args(&["--json", "--jsn"]), &["--json"]).unwrap_err();
        assert!(error.contains("--jsn"), "{error}");
        // Bins without flags reject everything, `--json` included.
        assert!(parse_flags(&args(&["--json"]), &[]).is_err());
        assert_eq!(usage("fig4", &["--json"]), "usage: fig4 [--json]");
        assert_eq!(usage("table1", &[]), "usage: table1");
    }

    #[test]
    fn fmt_minutes_handles_missing() {
        assert_eq!(fmt_minutes(Some(12.34)), "12.3");
        assert_eq!(fmt_minutes(None), "not found");
    }

    #[test]
    fn automatic_width_clamps_the_machine_parallelism() {
        // The width used when COLLIE_WORKERS is unset: the machine's
        // parallelism clamped to [2, 16].
        for (available, expected) in [(1, 2), (2, 2), (8, 8), (16, 16), (64, 16)] {
            assert_eq!(auto_workers(available), expected, "{available}");
        }
    }

    #[test]
    fn qualification_phase_rides_along_without_changing_cells() {
        // The mitigation-loop contract at the harness level: turning the
        // verification phase on must not move a single byte of the campaign
        // cells (it runs after them, on fresh engines), and it qualifies
        // each distinct discovery once.
        let config = SearchConfig::collie(0).with_budget(SimDuration::from_secs(2 * 3600));
        let cells = [CampaignSpec::seeded(SubsystemId::F, &config, 11)];
        let plain = run_campaign_matrix_report(&cells, &MatrixOptions::new(2));
        assert_eq!(plain.qualification, None);

        let qualified =
            run_campaign_matrix_report(&cells, &MatrixOptions::new(2).with_qualification());
        for (a, b) in plain.cells.iter().zip(&qualified.cells) {
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.stats, b.stats);
        }
        let phase = qualified.qualification.expect("phase requested");
        // Several discoveries may share one anomaly identity; the phase
        // qualifies each identity once.
        let distinct: std::collections::BTreeSet<String> = plain.cells[0]
            .outcome
            .discovered_triggers()
            .iter()
            .map(|t| t.identity(SubsystemId::F))
            .collect();
        assert!(!distinct.is_empty(), "the 2h collie campaign must discover");
        assert_eq!(
            phase.records.len() + phase.not_reproduced,
            distinct.len(),
            "{phase:?}"
        );
    }

    #[test]
    fn workers_override_parses_and_clamps() {
        // CI and operators pin the matrix pool with COLLIE_WORKERS; the
        // parser grammar itself is pinned in `collie_core::env::tests`
        // (the registry is the single source of truth). Whatever the
        // machine (or an inherited COLLIE_WORKERS) looks like, the pool
        // is never empty.
        assert_eq!(collie_core::env::parse_workers(Some("0")), Some(1));
        assert!(default_workers() >= 1);
    }

    #[test]
    fn fabric_matrix_matches_per_cell_runs() {
        // Fabric campaigns through a serial and a two-wide pool equal the
        // same campaigns run individually, outcome and eval-cache stats
        // alike: scheduling never changes results. All three fig7
        // strategies — the BO cell runs the real generic surrogate driver,
        // not a relabelled random baseline.
        let budget = SimDuration::from_secs(1800);
        let configs = [
            SearchConfig::random(0).with_budget(budget),
            SearchConfig::bayesian(0).with_budget(budget),
            SearchConfig::collie(0).with_budget(budget),
        ];
        let cells: Vec<CampaignSpec> = configs
            .iter()
            .map(|config| CampaignSpec::seeded(SubsystemId::F, config, 5))
            .collect();
        let solo: Vec<_> = cells
            .iter()
            .map(|cell| {
                let mut engine = FabricEngine::for_catalog(cell.subsystem);
                let space = FabricSpace::for_host(&cell.subsystem.host());
                let mut evaluator = Evaluator::new(&mut engine);
                let outcome = run_fabric_search_on(&mut evaluator, &space, &cell.config);
                (outcome, evaluator.stats())
            })
            .collect();
        for workers in [1, 2] {
            let matrix = run_fabric_campaign_matrix(&cells, workers);
            assert_eq!(matrix, solo, "{workers} worker(s)");
        }
        assert!(solo.iter().all(|(outcome, _)| outcome.experiments > 0));
        // The BO and random cells share a seed; distinct outcomes prove the
        // dispatch is not collapsing strategies.
        assert_ne!(solo[0].0, solo[1].0, "BO cell ran the random loop");
    }
}
