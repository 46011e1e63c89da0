//! Machine-readable perf reports (`BENCH_<name>.json`).
//!
//! Every bench the harness runs — the fig4/fig5/fig7 campaign grids plus
//! the targeted `eval_cache` / `workload_engine` micro-benches — reduces to
//! the same shape: a named report with one [`BenchCell`] per grid cell
//! carrying throughput, latency, and cache counters. The `bench` bin
//! writes one JSON file per report so EXPERIMENTS.md and future PRs have a
//! perf trajectory to diff against, the fig bins re-emit the same schema
//! behind `--json`, and CI's `bench-smoke` job validates every emitted
//! file with [`validate_bench_report`] before uploading it as an artifact.

use collie_core::eval::EvalStats;
use serde::{Deserialize, Serialize};

/// Cache behaviour of one cell: the memo-cache hit/miss split (the
/// bit-identity-pinned [`EvalStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct BenchCache {
    /// Memo-cache hits.
    pub hits: u64,
    /// Memo-cache misses (each one ran the engine).
    pub misses: u64,
    /// `hits / (hits + misses)`; 0 when the cell never evaluated.
    pub hit_rate: f64,
}

impl BenchCache {
    /// Assemble the cache block from an evaluator's counters.
    pub fn from_stats(stats: EvalStats) -> BenchCache {
        BenchCache {
            hits: stats.hits,
            misses: stats.misses,
            hit_rate: stats.hit_rate(),
        }
    }
}

/// One grid cell of a bench report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchCell {
    /// Human-readable cell label (strategy / workload, e.g. `"Collie"`).
    pub label: String,
    /// The campaign seed (0 for seedless micro-benches).
    pub seed: u64,
    /// Real wall-clock the cell took, in seconds.
    pub wall_secs: f64,
    /// Evaluations the cell asked for (local hits + misses).
    pub evals: u64,
    /// `evals / wall_secs`; 0 when the wall-clock rounds to zero.
    pub throughput_evals_per_sec: f64,
    /// Mean wall-clock of one engine compute, in nanoseconds (cache hits
    /// excluded — this is the model's own cost).
    pub avg_ns: f64,
    /// Nearest-rank 99th-percentile engine-compute latency, in
    /// nanoseconds.
    pub p99_ns: u64,
    /// Cache counters for the cell.
    pub cache: BenchCache,
}

impl BenchCell {
    /// Assemble a cell from a campaign's cache counters, per-compute
    /// latencies (ns) and measured wall-clock.
    pub fn new(
        label: &str,
        seed: u64,
        wall_secs: f64,
        stats: EvalStats,
        compute_nanos: &[u64],
    ) -> BenchCell {
        let evals = stats.hits + stats.misses;
        let (avg_ns, p99_ns) = latency_summary(compute_nanos);
        BenchCell {
            label: label.to_string(),
            seed,
            wall_secs,
            evals,
            throughput_evals_per_sec: if wall_secs > 0.0 {
                evals as f64 / wall_secs
            } else {
                0.0
            },
            avg_ns,
            p99_ns,
            cache: BenchCache::from_stats(stats),
        }
    }
}

/// One named bench: the unit a `BENCH_<name>.json` file holds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Bench name (`fig4`, `eval_cache`, ...); names the output file.
    pub name: String,
    /// `"full"` or `"smoke"` (the CI reduced-budget mode).
    pub mode: String,
    /// One entry per grid cell, in grid order.
    pub cells: Vec<BenchCell>,
}

impl BenchReport {
    /// The file a report of this name is written to.
    pub fn file_name(name: &str) -> String {
        format!("BENCH_{name}.json")
    }
}

/// Mean and 99th-percentile of a latency sample, in the sample's unit.
/// The p99 is the nearest-rank percentile over the sorted sample; an empty
/// sample summarises to zeros (a cell can be all cache hits).
pub fn latency_summary(samples: &[u64]) -> (f64, u64) {
    if samples.is_empty() {
        return (0.0, 0);
    }
    let avg = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((sorted.len() as f64 * 0.99).ceil() as usize).max(1) - 1;
    (avg, sorted[rank.min(sorted.len() - 1)])
}

/// Schema validation for an emitted report: what CI's `bench-smoke` job
/// checks before uploading the artifact. Returns the first violation.
pub fn validate_bench_report(report: &BenchReport) -> Result<(), String> {
    if report.name.is_empty() {
        return Err("report name is empty".to_string());
    }
    if !matches!(report.mode.as_str(), "full" | "smoke") {
        return Err(format!("unknown mode {:?}", report.mode));
    }
    if report.cells.is_empty() {
        return Err(format!("report {:?} has no cells", report.name));
    }
    for (index, cell) in report.cells.iter().enumerate() {
        let at = format!("{}[{index}] ({:?})", report.name, cell.label);
        if cell.label.is_empty() {
            return Err(format!("{at}: empty label"));
        }
        if !cell.wall_secs.is_finite() || cell.wall_secs < 0.0 {
            return Err(format!("{at}: bad wall_secs {}", cell.wall_secs));
        }
        if !cell.throughput_evals_per_sec.is_finite() || cell.throughput_evals_per_sec < 0.0 {
            return Err(format!(
                "{at}: bad throughput {}",
                cell.throughput_evals_per_sec
            ));
        }
        if !cell.avg_ns.is_finite() || cell.avg_ns < 0.0 {
            return Err(format!("{at}: bad avg_ns {}", cell.avg_ns));
        }
        if cell.cache.hits + cell.cache.misses != cell.evals {
            return Err(format!(
                "{at}: evals {} != hits {} + misses {}",
                cell.evals, cell.cache.hits, cell.cache.misses
            ));
        }
        if !(0.0..=1.0).contains(&cell.cache.hit_rate) {
            return Err(format!(
                "{at}: hit_rate {} not in [0,1]",
                cell.cache.hit_rate
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cell() -> BenchCell {
        BenchCell::new(
            "Collie",
            11,
            2.0,
            EvalStats {
                hits: 30,
                misses: 10,
            },
            &[10_000, 20_000, 30_000, 40_000],
        )
    }

    #[test]
    fn cell_derives_throughput_and_hit_rate_from_the_profile() {
        let cell = sample_cell();
        assert_eq!(cell.evals, 40);
        assert!((cell.throughput_evals_per_sec - 20.0).abs() < 1e-12);
        assert!((cell.cache.hit_rate - 0.75).abs() < 1e-12);
        assert!((cell.avg_ns - 25_000.0).abs() < 1e-9);
        assert_eq!(cell.p99_ns, 40_000);
    }

    #[test]
    fn sub_microsecond_samples_survive_the_summary() {
        // Flow-model calls take a few µs, so whole-microsecond samples
        // truncated them to a handful of integers and let the mean land
        // above p99. Nanosecond samples keep the sub-µs spread.
        let cell = BenchCell::new(
            "chain",
            0,
            1.0,
            EvalStats { hits: 0, misses: 3 },
            &[400, 600, 900],
        );
        assert!((cell.avg_ns - 633.333).abs() < 0.01, "{}", cell.avg_ns);
        assert_eq!(cell.p99_ns, 900);
        assert!(cell.avg_ns <= cell.p99_ns as f64);
    }

    #[test]
    fn latency_summary_handles_edges() {
        assert_eq!(latency_summary(&[]), (0.0, 0));
        assert_eq!(latency_summary(&[5]), (5.0, 5));
        // Nearest-rank p99 over 100 samples is the 99th value (0-indexed 98).
        let ramp: Vec<u64> = (1..=100).collect();
        assert_eq!(latency_summary(&ramp).1, 99);
        let (avg, p99) = latency_summary(&[3, 1, 2]);
        assert!((avg - 2.0).abs() < 1e-12);
        assert_eq!(p99, 3);
    }

    #[test]
    fn validation_accepts_a_consistent_report_and_names_the_violation() {
        let report = BenchReport {
            name: "fig4".to_string(),
            mode: "smoke".to_string(),
            cells: vec![sample_cell()],
        };
        assert_eq!(validate_bench_report(&report), Ok(()));

        let mut bad = report.clone();
        bad.cells[0].evals = 41;
        let err = validate_bench_report(&bad).unwrap_err();
        assert!(err.contains("evals 41"), "{err}");

        let mut bad = report.clone();
        bad.mode = "quick".to_string();
        assert!(validate_bench_report(&bad).is_err());

        let mut bad = report.clone();
        bad.cells.clear();
        assert!(validate_bench_report(&bad).is_err());

        let mut bad = report;
        bad.cells[0].avg_ns = f64::NAN;
        let err = validate_bench_report(&bad).unwrap_err();
        assert!(err.contains("bad avg_ns"), "{err}");
    }

    #[test]
    fn every_truncated_report_is_rejected() {
        // `bench --validate` (parse, then validate) must reject every
        // strict prefix of a report document with an error, never a panic.
        let report = BenchReport {
            name: "fig4".to_string(),
            mode: "smoke".to_string(),
            cells: vec![sample_cell(), sample_cell()],
        };
        let json = serde_json::to_string_pretty(&report).unwrap();
        let load = |text: &str| {
            serde_json::from_str::<BenchReport>(text)
                .map_err(|e| e.to_string())
                .and_then(|report| validate_bench_report(&report))
        };
        assert_eq!(load(&json), Ok(()));
        for (end, _) in json.char_indices() {
            assert!(load(&json[..end]).is_err(), "{end}-byte prefix validated");
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = BenchReport {
            name: "eval_cache".to_string(),
            mode: "full".to_string(),
            cells: vec![sample_cell()],
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: BenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(validate_bench_report(&back), Ok(()));
        assert_eq!(back, report);
        assert_eq!(
            BenchReport::file_name("eval_cache"),
            "BENCH_eval_cache.json"
        );
    }
}
