//! The machine-readable perf harness: runs the fig4/fig5/fig7 campaign
//! grids plus the `eval_cache` and `workload_engine` micro-benches and
//! writes one `BENCH_<name>.json` per bench — throughput (evals/sec), avg
//! and p99 compute latency (ns), and memo-cache hit/miss counters per grid
//! cell — so every PR has a perf trajectory to diff against.
//!
//! Usage:
//!
//! ```text
//! bench [--smoke] [--out DIR]     # run the benches, write BENCH_*.json
//! bench --validate FILE...       # schema-check previously emitted files
//! ```
//!
//! `--smoke` is the CI reduced-budget mode (shorter simulated budgets, one
//! seed per grid row); the emitted schema is identical. Every emitted file
//! is self-validated with the same `validate_bench_report` the CI
//! `bench-smoke` job runs.
//!
//! Exit status: `0` success, `1` a bench or file failed validation, `2`
//! usage error.
#![forbid(unsafe_code)]

use collie_bench::{
    bench_report, default_workers, run_campaign_matrix_report, run_fabric_campaign_matrix_report,
    validate_bench_report, BenchCell, BenchReport, CampaignSpec, MatrixOptions, DEFAULT_SEEDS,
};
use collie_core::engine::WorkloadEngine;
use collie_core::eval::{EvalStats, Evaluator};
use collie_core::search::{run_search_on, SearchConfig, SignalMode};
use collie_core::space::{SearchPoint, SearchSpace};
use collie_rnic::subsystems::SubsystemId;
use collie_rnic::workload::{Opcode, Transport};
use collie_sim::rng::SimRng;
use collie_sim::time::SimDuration;
use std::path::Path;
use std::time::Instant;

const USAGE: &str = "usage: bench [--smoke] [--out DIR]\n       bench --validate FILE...";

/// What the command line asks for.
#[derive(Debug, PartialEq)]
enum Command {
    /// Run the benches and write `BENCH_*.json` into `out_dir`.
    Run { smoke: bool, out_dir: String },
    /// Schema-check previously emitted files.
    Validate(Vec<String>),
}

/// Parse the arguments after the program name. `Err` carries the message
/// of a usage error: an unknown argument, a flag missing its value, or
/// `--validate` without files or mixed with run flags.
fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut smoke = false;
    let mut out_dir: Option<String> = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => match args.next() {
                Some(dir) if !dir.starts_with('-') => out_dir = Some(dir.clone()),
                _ => return Err("--out needs a directory".to_string()),
            },
            "--validate" => {
                if smoke || out_dir.is_some() {
                    return Err("--validate takes no other flags".to_string());
                }
                let files: Vec<String> = args.cloned().collect();
                if files.is_empty() {
                    return Err("--validate needs at least one file".to_string());
                }
                return Ok(Command::Validate(files));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Command::Run {
        smoke,
        out_dir: out_dir.unwrap_or_else(|| ".".to_string()),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (smoke, out_dir) = match parse_args(&args) {
        Ok(Command::Run { smoke, out_dir }) => (smoke, out_dir),
        Ok(Command::Validate(files)) => std::process::exit(validate_files(&files)),
        Err(message) => {
            eprintln!("bench: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };

    let mode = if smoke { "smoke" } else { "full" };
    let seeds: &[u64] = if smoke {
        &DEFAULT_SEEDS[..1]
    } else {
        &DEFAULT_SEEDS[..]
    };
    let subsystem = SubsystemId::F;
    let workers = default_workers();
    let options = MatrixOptions::new(workers);

    let mut failures = 0;
    let mut emit = |report: &BenchReport| {
        let path = Path::new(&out_dir).join(BenchReport::file_name(&report.name));
        if let Err(violation) = validate_bench_report(report) {
            eprintln!("bench {}: INVALID: {violation}", report.name);
            failures += 1;
        }
        let json = serde_json::to_string_pretty(report).unwrap_or_else(|_| "{}".to_string());
        if let Err(error) = std::fs::write(&path, json + "\n") {
            eprintln!(
                "bench {}: cannot write {}: {error}",
                report.name,
                path.display()
            );
            failures += 1;
            return;
        }
        let evals: u64 = report.cells.iter().map(|cell| cell.evals).sum();
        let wall: f64 = report.cells.iter().map(|cell| cell.wall_secs).sum();
        eprintln!(
            "bench {}: {} cells, {evals} evals, {wall:.2} s cell wall-clock -> {}",
            report.name,
            report.cells.len(),
            path.display()
        );
    };

    // The two-host strategy grid (fig4's matrix).
    let grid_budget = if smoke {
        SimDuration::from_secs(900)
    } else {
        SimDuration::from_secs(10 * 3600)
    };
    let fig4_configs = [
        SearchConfig::random(0).with_budget(grid_budget),
        SearchConfig::bayesian(0).with_budget(grid_budget),
        SearchConfig::collie(0).with_budget(grid_budget),
    ];
    let cells = grid(subsystem, &fig4_configs, seeds);
    emit(&bench_report(
        "fig4",
        mode,
        &cells,
        &run_campaign_matrix_report(&cells, &options),
    ));

    // The ablation grid (fig5's matrix).
    let fig5_configs = [
        SearchConfig::collie(0)
            .with_mfs(false)
            .with_signal(SignalMode::Performance)
            .with_budget(grid_budget),
        SearchConfig::collie(0)
            .with_mfs(false)
            .with_signal(SignalMode::Diagnostic)
            .with_budget(grid_budget),
        SearchConfig::collie(0)
            .with_signal(SignalMode::Performance)
            .with_budget(grid_budget),
        SearchConfig::collie(0)
            .with_signal(SignalMode::Diagnostic)
            .with_budget(grid_budget),
    ];
    let cells = grid(subsystem, &fig5_configs, seeds);
    emit(&bench_report(
        "fig5",
        mode,
        &cells,
        &run_campaign_matrix_report(&cells, &options),
    ));

    // The fabric strategy grid (fig7's matrix).
    let fabric_budget = if smoke {
        SimDuration::from_secs(1800)
    } else {
        SimDuration::from_secs(10 * 3600)
    };
    let fig7_configs = [
        SearchConfig::random(0).with_budget(fabric_budget),
        SearchConfig::bayesian(0).with_budget(fabric_budget),
        SearchConfig::collie(0).with_budget(fabric_budget),
    ];
    let cells = grid(subsystem, &fig7_configs, seeds);
    emit(&bench_report(
        "fig7",
        mode,
        &cells,
        &run_fabric_campaign_matrix_report(&cells, &options),
    ));

    emit(&eval_cache_bench(subsystem, mode, grid_budget));
    emit(&workload_engine_bench(
        subsystem,
        mode,
        if smoke { 2_000 } else { 20_000 },
    ));

    if failures > 0 {
        eprintln!("bench: {failures} report(s) failed");
        std::process::exit(1);
    }
}

/// Every `configs × seeds` cell, in grid order.
fn grid(subsystem: SubsystemId, configs: &[SearchConfig], seeds: &[u64]) -> Vec<CampaignSpec> {
    configs
        .iter()
        .flat_map(|config| {
            seeds
                .iter()
                .map(|&seed| CampaignSpec::seeded(subsystem, config, seed))
        })
        .collect()
}

/// The memoization bench: the same Collie campaign through the memoizing
/// evaluator and through the uncached reference (the `eval_cache`
/// Criterion bench's headline, as a tracked number).
fn eval_cache_bench(subsystem: SubsystemId, mode: &str, budget: SimDuration) -> BenchReport {
    let seed = DEFAULT_SEEDS[0];
    let config = SearchConfig::collie(seed).with_budget(budget);
    let space = SearchSpace::for_host(&subsystem.host());
    let run_cell = |label: &str, evaluator: fn(&mut WorkloadEngine) -> Evaluator<'_>| {
        let mut engine = WorkloadEngine::for_catalog(subsystem);
        let started = Instant::now();
        let mut evaluator = evaluator(&mut engine);
        run_search_on(&mut evaluator, &space, &config);
        let profile = evaluator.profile();
        // Timed like a matrix cell: building and freeing the cache count.
        drop(evaluator);
        BenchCell::new(
            label,
            seed,
            started.elapsed().as_secs_f64(),
            profile.stats,
            &profile.compute_nanos,
        )
    };
    BenchReport {
        name: "eval_cache".to_string(),
        mode: mode.to_string(),
        cells: vec![
            run_cell("memoized", |engine| Evaluator::new(engine)),
            run_cell("uncached", |engine| Evaluator::uncached(engine)),
        ],
    }
}

/// The raw flow-model bench: per-call latency of `WorkloadEngine::measure`
/// on a benign and an anomalous workload with no cache anywhere, plus the
/// same seeded single-knob mutation chain measured two ways: on a fresh
/// engine per point (`chain-fresh`) and on one warm engine
/// (`chain-scratch`). The chain is what a campaign's proposal stream looks
/// like (each point differs from its predecessor in exactly one knob), so
/// the two cells show what keeping the engine alive is worth.
fn workload_engine_bench(subsystem: SubsystemId, mode: &str, iterations: usize) -> BenchReport {
    let anomalous = {
        let mut point = SearchPoint::benign();
        point.transport = Transport::Ud;
        point.opcode = Opcode::Send;
        point.wqe_batch = 64;
        point.recv_queue_depth = 256;
        point.mtu = 2048;
        point.messages = vec![2048];
        point
    };
    let run_cell = |label: &str, fresh: bool, points: &dyn Fn(usize) -> SearchPoint| {
        let mut engine = WorkloadEngine::for_catalog(subsystem);
        let mut nanos = Vec::with_capacity(iterations);
        let started = Instant::now();
        for i in 0..iterations {
            let point = points(i);
            let call = Instant::now();
            if fresh {
                // A fresh engine per point: nothing carries over between
                // measurements.
                engine = WorkloadEngine::for_catalog(subsystem);
            }
            let _ = engine.measure(&point);
            nanos.push(call.elapsed().as_nanos() as u64);
        }
        BenchCell::new(
            label,
            0,
            started.elapsed().as_secs_f64(),
            EvalStats {
                hits: 0,
                misses: iterations as u64,
            },
            &nanos,
        )
    };
    let benign = SearchPoint::benign();
    let chain = mutation_chain(subsystem, iterations);
    let cells = vec![
        run_cell("benign", false, &|_| benign.clone()),
        run_cell("anomalous", false, &|_| anomalous.clone()),
        run_cell("chain-fresh", true, &|i| chain[i].clone()),
        run_cell("chain-scratch", false, &|i| chain[i].clone()),
    ];
    BenchReport {
        name: "workload_engine".to_string(),
        mode: mode.to_string(),
        cells,
    }
}

/// A seeded random walk of single-knob mutations from the benign point —
/// the proposal stream shape of an annealing campaign, reproduced outside
/// any campaign so the two chain cells measure the identical point list.
fn mutation_chain(subsystem: SubsystemId, length: usize) -> Vec<SearchPoint> {
    let space = SearchSpace::for_host(&subsystem.host());
    let mut rng = SimRng::new(DEFAULT_SEEDS[0]);
    let mut points = Vec::with_capacity(length);
    let mut current = SearchPoint::benign();
    for _ in 0..length {
        points.push(current.clone());
        current = space.mutate(&current, &mut rng);
    }
    points
}

/// `--validate FILE...`: parse and schema-check emitted reports; the CI
/// `bench-smoke` job's gate. Returns the process exit code.
fn validate_files(files: &[String]) -> i32 {
    let mut failures = 0;
    for file in files {
        let verdict = std::fs::read_to_string(file)
            .map_err(|error| format!("cannot read: {error}"))
            .and_then(|json| {
                serde_json::from_str::<BenchReport>(&json)
                    .map_err(|error| format!("cannot parse: {error}"))
            })
            .and_then(|report| validate_bench_report(&report));
        match verdict {
            Ok(()) => eprintln!("bench --validate: {file}: OK"),
            Err(violation) => {
                eprintln!("bench --validate: {file}: INVALID: {violation}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        1
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        parse_args(&args.iter().map(|arg| arg.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn run_flags_parse_with_defaults() {
        let run = |smoke, out_dir: &str| Command::Run {
            smoke,
            out_dir: out_dir.to_string(),
        };
        assert_eq!(parse(&[]), Ok(run(false, ".")));
        assert_eq!(parse(&["--smoke"]), Ok(run(true, ".")));
        assert_eq!(
            parse(&["--out", "bench-json", "--smoke"]),
            Ok(run(true, "bench-json"))
        );
    }

    #[test]
    fn validate_takes_every_remaining_argument_as_a_file() {
        assert_eq!(
            parse(&["--validate", "a.json", "b.json"]),
            Ok(Command::Validate(vec![
                "a.json".to_string(),
                "b.json".to_string()
            ]))
        );
    }

    #[test]
    fn usage_errors_are_rejected_with_a_message() {
        for (args, message) in [
            (&["--out"][..], "--out needs a directory"),
            (&["--out", "--smoke"][..], "--out needs a directory"),
            (&["--fast"][..], "unknown argument --fast"),
            (&["out-dir"][..], "unknown argument out-dir"),
            (&["--validate"][..], "--validate needs at least one file"),
            (&["--smoke", "--validate", "a.json"][..], "no other flags"),
        ] {
            let err = parse(args).expect_err(&format!("{args:?} must be a usage error"));
            assert!(err.contains(message), "{args:?}: {err}");
        }
    }
}
