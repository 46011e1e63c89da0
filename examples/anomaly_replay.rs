//! Replay a catalogued anomaly and inspect everything Collie knows about it.
//!
//! This is the "vendor escalation" flow from §7.1: once Collie has found an
//! anomaly, the operator replays its concrete trigger setting, captures the
//! measurement and the hardware counters, extracts the minimal feature set,
//! and attaches the documented remediation plan to the ticket.
//!
//! Run with: `cargo run --example anomaly_replay -- <anomaly-number>`
//! (defaults to anomaly #4, the bidirectional RC READ pause storm).

use collie::core::search::kernel::MfsExtractor;
use collie::core::search::WorkloadDomain;
use collie::prelude::*;
use collie::rnic::counters::{diag, perf};

fn main() {
    let id: u32 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(4);
    let Some(anomaly) = KnownAnomaly::by_id(id) else {
        eprintln!("anomaly #{id} is not in the Table-2 catalog (valid ids: 1-18)");
        std::process::exit(1);
    };

    println!(
        "Anomaly #{} ({}) on subsystem {} — {}",
        anomaly.id,
        if anomaly.new {
            "new, found by Collie"
        } else {
            "previously known"
        },
        anomaly.subsystem,
        anomaly.symptom,
    );
    println!("Table-2 conditions: {}", anomaly.conditions.join("; "));
    println!("Concrete trigger:   {}\n", anomaly.trigger);

    // --- Replay the trigger and report what the monitor sees. -------------
    let mut engine = WorkloadEngine::for_catalog(anomaly.subsystem);
    let monitor = AnomalyMonitor::new();
    let (measurement, verdict) = monitor.measure_and_assess(&mut engine, &anomaly.trigger);

    println!(
        "Measurement over a {}-second window:",
        measurement.window.as_secs_f64()
    );
    for dir in &measurement.directions {
        println!(
            "  {:<12} offered {:>8.1} Gbps   achieved {:>8.1} Gbps   {:>7.2} Mpps",
            dir.direction.to_string(),
            dir.offered.gbps(),
            dir.throughput.gbps(),
            dir.packet_rate.mpps()
        );
    }
    println!(
        "  pause-duration ratio: host A {:.2}%  host B {:.2}%",
        measurement.pause_ratio[0] * 100.0,
        measurement.pause_ratio[1] * 100.0
    );
    println!(
        "  verdict: {}  (best spec fraction {:.0}%)\n",
        verdict
            .symptom
            .map(|s| s.to_string())
            .unwrap_or_else(|| "healthy".to_string()),
        verdict.spec_fraction * 100.0
    );

    println!("Hardware counters (what the vendor monitor would show):");
    for name in perf::ALL {
        if let Some(value) = measurement.counters.value(name) {
            println!("  {name:<40} {value:>14.0}");
        }
    }
    for name in diag::ALL {
        if let Some(value) = measurement.counters.value(name) {
            if value > 0.0 {
                println!("  {name:<40} {value:>14.0}");
            }
        }
    }

    // --- Extract the minimal feature set. ----------------------------------
    let space = SearchSpace::for_host(&anomaly.subsystem.host());
    let outcome = {
        let mut evaluator = collie::core::eval::Evaluator::new(&mut engine);
        // The signal mode steers campaigns only; extraction ignores it.
        let mut domain =
            WorkloadDomain::new(&mut evaluator, &monitor, &space, SignalMode::Diagnostic);
        MfsExtractor::new(&mut domain).extract(&anomaly.trigger, &anomaly.symptom)
    };
    println!(
        "\nMinimal feature set ({} probe experiments, {:.0} simulated seconds):",
        outcome.experiments,
        outcome.elapsed.as_secs_f64()
    );
    println!("  {}", outcome.mfs.describe());

    // --- Remediation plan. --------------------------------------------------
    let plan = RemediationPlan::for_anomaly(&anomaly);
    if plan.mitigations.is_empty() {
        println!(
            "\nNo documented fix; avoid the anomaly by breaking one of the MFS conditions above."
        );
    } else {
        println!(
            "\nDocumented remediation ({}):",
            if plan.has_fix() {
                "fix available"
            } else {
                "bypass only"
            }
        );
        for m in &plan.mitigations {
            println!("  - {m}");
        }
        // Show the fix actually working.
        plan.apply_subsystem_side(engine.subsystem_mut());
        let mut adjusted = anomaly.trigger.clone();
        plan.apply_workload_side(&mut adjusted);
        let after = collie::core::monitor::AnomalyMonitor::new();
        let (_, verdict_after) = after.measure_and_assess(&mut engine, &adjusted);
        println!(
            "  after applying it the same workload reports: {}",
            verdict_after
                .symptom
                .map(|s| s.to_string())
                .unwrap_or_else(|| "healthy".to_string())
        );
    }
}
