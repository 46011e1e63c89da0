//! Regenerates Table 1: the eight RDMA subsystems under test.
//!
//! For each subsystem the binary prints the hardware row exactly as the
//! paper tabulates it, plus two sanity columns the paper implies but does
//! not print: the baseline throughput of a benign large-message workload
//! and its pause ratio (both should look healthy on every subsystem —
//! anomalies need the specific triggers of Table 2).
#![forbid(unsafe_code)]

use collie_bench::{no_args_or_exit, text_table};
use collie_core::engine::WorkloadEngine;
use collie_core::monitor::AnomalyMonitor;
use collie_core::space::SearchPoint;
use collie_rnic::subsystems::SubsystemId;

fn main() {
    no_args_or_exit("table1");
    let monitor = AnomalyMonitor::new();
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for id in SubsystemId::ALL {
        let info = id.info();
        let mut engine = WorkloadEngine::for_catalog(id);
        let (measurement, verdict) =
            monitor.measure_and_assess(&mut engine, &SearchPoint::benign());
        rows.push(vec![
            info.id.to_string(),
            info.rnic.clone(),
            info.speed.clone(),
            info.cpu.clone(),
            info.pcie.clone(),
            info.nps.to_string(),
            info.memory.clone(),
            info.gpu.clone(),
            info.bios.clone(),
            info.kernel.clone(),
            format!("{:.1} Gbps", measurement.total_throughput().gbps()),
            format!("{:.4}%", verdict.pause_ratio * 100.0),
        ]);
        json_rows.push(serde_json::json!({
            "subsystem": info,
            "baseline_throughput_gbps": measurement.total_throughput().gbps(),
            "baseline_pause_ratio": verdict.pause_ratio,
            "baseline_anomalous": verdict.is_anomalous(),
        }));
    }

    println!("Table 1: testbed RDMA subsystem configurations (simulated)\n");
    println!(
        "{}",
        text_table(
            &[
                "Type",
                "RNIC",
                "Speed",
                "CPU",
                "PCIe",
                "NPS",
                "Memory",
                "GPU",
                "BIOS",
                "Kernel",
                "Baseline tput",
                "Pause ratio"
            ],
            &rows
        )
    );
    println!(
        "JSON:\n{}",
        serde_json::to_string_pretty(&json_rows).unwrap()
    );
}
