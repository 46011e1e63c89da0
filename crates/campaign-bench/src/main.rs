//! `campaign-bench`: the repository's end-to-end campaign benchmark.
//!
//! ```text
//! campaign-bench --workload <fuzz-2host|anneal-2host|fabric-grid>
//!                [--seed <n>] [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! A run sets up (timed from process start), then repeats one *round* —
//! every campaign of the workload through one call of the public matrix
//! runner, on an explicit two-worker pool — until `--seconds` of rounds
//! are measured, timing further set-ups between rounds. Rounds repeat the
//! same campaigns, so every round must reproduce the first exactly, and
//! the first round's discoveries are re-measured on a fresh engine. With
//! `--trace 1` the run instead pairs traced rounds, which attribute
//! campaign wall-clock to layers from outside (see `trace.rs`), with
//! one-worker untraced rounds, the tracing-overhead baseline.
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` (campaigns failing a check) and `metrics`. See README.md.
#![forbid(unsafe_code)]

mod layers;
mod run;
mod stats;
mod trace;
mod workload;

use layers::{LayerTally, Metric, Untraced};
use run::{Round, Verifier};
use stats::{median, Summary};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::ns_since;
use workload::Workload;

/// Set-up repetitions after every untraced round. Repeating them across
/// the whole run, rather than back to back at its start, lets the median
/// average over the same machine phases the rounds see.
const SETUP_REPEATS_PER_ROUND: usize = 9;

/// The workload seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: campaign-bench --workload <fuzz-2host|anneal-2host|fabric-grid> \
                     [--seed <n>] [--seconds <n>] [--trace <0|1>]";

impl Args {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 10;
        let mut trace = false;
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args
                .next()
                .ok_or_else(|| format!("flag {flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = number()?,
                "--seconds" => seconds = number()?.max(1),
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// The first registered `COLLIE_*` hook set in the environment, if any.
/// The benchmark measures the defaults users get, so any hook refuses the
/// run; checking through the registry keeps the list in one place.
fn set_env_hook() -> Option<&'static str> {
    collie_core::env::HOOKS
        .iter()
        .map(|hook| hook.name)
        .find(|name| std::env::var_os(name).is_some())
}

/// Everything a run builds before its first campaign is dispatched.
struct Prepared {
    specs: Vec<collie_bench::CampaignSpec>,
    verifier: Verifier,
}

fn set_up(workload: Workload, seed: u64) -> Prepared {
    let specs = workload.campaigns(seed);
    let verifier = Verifier::build(workload.domain());
    Prepared { specs, verifier }
}

/// Set up once and return the seconds one set-up took; `since` is the
/// process start for the first set-up.
fn timed_set_up(workload: Workload, seed: u64, since: Instant) -> (Prepared, f64) {
    let prepared = set_up(workload, seed);
    (prepared, ns_since(since) as f64 / 1e9)
}

/// Peak resident memory of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Campaign outcome checks of one run: attempted campaigns and failures.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn count(&mut self, passed: &[bool]) {
        self.attempted += passed.len() as u64;
        self.failed += passed.iter().filter(|ok| !**ok).count() as u64;
    }
}

/// Run untraced rounds until `seconds` of rounds are measured, timing
/// [`SETUP_REPEATS_PER_ROUND`] more set-ups into `setup_s` after each. The
/// first round's discoveries are re-measured; later rounds must equal the
/// first, and only its outcomes are kept, so memory does not grow with run
/// length.
fn untraced_rounds(
    args: &Args,
    prepared: &mut Prepared,
    setup_s: &mut Vec<f64>,
    checks: &mut Checks,
) -> Vec<Round> {
    let budget = Duration::from_secs(args.seconds).as_nanos() as u64;
    let (first, reference) = run::run_round(args.workload, &prepared.specs);
    let mut passed = prepared.verifier.check(&reference);
    let mut measured = first.wall_ns;
    let mut rounds = vec![first];
    loop {
        for _ in 0..SETUP_REPEATS_PER_ROUND {
            setup_s.push(timed_set_up(args.workload, args.seed, Instant::now()).1);
        }
        if measured >= budget {
            break;
        }
        let (round, outcomes) = run::run_round(args.workload, &prepared.specs);
        for (ok, same) in passed.iter_mut().zip(run::same_as(&outcomes, &reference)) {
            *ok &= same;
        }
        measured += round.wall_ns;
        rounds.push(round);
    }
    checks.count(&passed);
    rounds
}

fn end_to_end(
    args: &Args,
    prepared: &mut Prepared,
    mut setup_s: Vec<f64>,
    checks: &mut Checks,
) -> Vec<Metric> {
    let rounds = untraced_rounds(args, prepared, &mut setup_s, checks);
    let rates: Vec<f64> = rounds.iter().map(Round::sim_hours_per_s).collect();
    let walls: Vec<u64> = rounds
        .iter()
        .flat_map(|round| round.samples.iter().map(|s| s.wall_ns))
        .collect();
    let wall = Summary::of(&walls);
    let first = &rounds[0].samples;
    let anomalies = first.iter().map(|s| s.anomalies).sum::<usize>() as f64 / first.len() as f64;
    println!(
        "{}: {} rounds x {} campaigns, {} workers; campaign wall over {} samples: \
         min {:.3} ms, mean {:.3} ms, p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
        args.workload.name(),
        rounds.len(),
        first.len(),
        run::WORKERS,
        wall.count,
        wall.min as f64 / 1e6,
        wall.mean / 1e6,
        wall.p50 as f64 / 1e6,
        wall.p90 as f64 / 1e6,
        wall.p99 as f64 / 1e6,
        wall.max as f64 / 1e6,
    );
    println!(
        "per-round sim hours/s: {}",
        rates
            .iter()
            .map(|r| format!("{r:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("sim_hours_per_s", "h/s", median(&rates)),
        m("campaign_p50_ms", "ms", wall.p50 as f64 / 1e6),
        m("campaign_p90_ms", "ms", wall.p90 as f64 / 1e6),
        m("anomalies_found", "count", anomalies),
        m("setup_s", "s", median(&setup_s)),
        m(
            "peak_rss_mib",
            "MiB",
            peak_rss_mib().expect("VmHWM in /proc/self/status"),
        ),
    ]
}

/// The layers expected to rank first and second, written down before the
/// first traced run; the report states where the measurement differs.
fn predicted_top(workload: Workload) -> [&'static str; 2] {
    match workload {
        Workload::Fuzz2Host => ["kernel.mfs_match", "space.propose"],
        Workload::Anneal2Host | Workload::FabricGrid => ["eval.miss", "monitor.probe"],
    }
}

fn per_layer(args: &Args, prepared: &mut Prepared, checks: &mut Checks) -> Vec<Metric> {
    // The two-worker round gives the reference outcomes and the pool's busy
    // share. Each traced round is paired with a one-worker untraced round,
    // the tracing-overhead baseline, so machine-speed drift hits both sides.
    let (parallel, reference) = run::run_round(args.workload, &prepared.specs);
    let mut passed = prepared.verifier.check(&reference);
    let budget = Duration::from_secs(args.seconds).as_nanos() as u64;
    let started = Instant::now();
    let mut tally = LayerTally::default();
    let mut serial_campaign_ns = 0.0;
    loop {
        let (serial, outcomes) = run::run_round_with_workers(args.workload, &prepared.specs, 1);
        serial_campaign_ns += serial.samples.iter().map(|s| s.wall_ns as f64).sum::<f64>();
        let traced = layers::traced_round(args.workload, &prepared.specs, &reference, &mut tally);
        for ((ok, same), traced) in passed
            .iter_mut()
            .zip(run::same_as(&outcomes, &reference))
            .zip(traced)
        {
            *ok &= same && traced;
        }
        if ns_since(started) + parallel.wall_ns >= budget {
            break;
        }
    }
    checks.count(&passed);

    let ranking = tally.ranking();
    let total: f64 = ranking.iter().map(|entry| entry.ns).sum();
    println!(
        "{}: {} traced round(s) x {} campaigns; self time per round:",
        args.workload.name(),
        tally.rounds,
        tally.campaigns
    );
    for entry in &ranking {
        println!(
            "  {:<20} {:>14.0} ns  {:>5.1} %",
            entry.layer,
            entry.ns,
            100.0 * entry.ns / total.max(1.0)
        );
    }
    let measured = [ranking[0].layer, ranking[1].layer];
    let predicted = predicted_top(args.workload);
    let holds = measured.iter().all(|layer| predicted.contains(layer));
    println!(
        "predicted top two: {} + {}; measured: {} + {} ({})",
        predicted[0],
        predicted[1],
        measured[0],
        measured[1],
        if holds {
            "prediction holds"
        } else {
            "prediction differs"
        }
    );
    let metrics = tally.metrics(Untraced {
        busy_share: parallel.busy_share(),
        serial_campaign_ns: serial_campaign_ns / tally.rounds as f64,
    });
    for metric in &metrics {
        println!(
            "  {:<26} {:>16.4} {}",
            metric.name, metric.value, metric.unit
        );
    }
    metrics
}

/// The result line: one JSON object, numbers printed with all their digits.
fn result_json(checks: &Checks, metrics: &[Metric]) -> String {
    let body = metrics
        .iter()
        .map(|metric| {
            assert!(metric.value.is_finite(), "{} is not finite", metric.name);
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                metric.name, metric.value, metric.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed
    )
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("campaign-bench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(hook) = set_env_hook() {
        eprintln!(
            "campaign-bench: refusing to run with {hook} set; the benchmark measures \
             the default execution mode (unset every COLLIE_* hook)"
        );
        return ExitCode::from(2);
    }
    let (mut prepared, setup_s) = timed_set_up(args.workload, args.seed, process_start);
    let mut checks = Checks::default();
    let metrics = if args.trace {
        per_layer(&args, &mut prepared, &mut checks)
    } else {
        end_to_end(&args, &mut prepared, vec![setup_s], &mut checks)
    };
    println!("{}", result_json(&checks, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_a_full_command_line() {
        let args = parse(&[
            "--workload",
            "fabric-grid",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            args,
            Args {
                workload: Workload::FabricGrid,
                seed: 9,
                seconds: 3,
                trace: true
            }
        );
        let defaults = parse(&["--workload", "fuzz-2host"]).unwrap();
        assert_eq!((defaults.seed, defaults.trace), (DEFAULT_SEED, false));
    }

    #[test]
    fn rejects_malformed_command_lines() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload"]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "fuzz-2host", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "fuzz-2host", "--seed", "-1"]).is_err());
        assert!(parse(&["--workload", "fuzz-2host", "--bogus", "1"]).is_err());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let checks = Checks {
            attempted: 4,
            failed: 1,
        };
        let line = result_json(
            &checks,
            &[Metric {
                name: "setup_s",
                unit: "s",
                value: 0.000_123_456_789,
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 4, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.000123456789, \"unit\": \"s\"}}}"
        );
    }
}
