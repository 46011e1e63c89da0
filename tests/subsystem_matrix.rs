//! Integration test: behaviour across all eight Table-1 subsystems.
//!
//! The paper evaluates Collie on eight subsystems spanning three RNIC
//! generations, two vendors, Intel and AMD hosts, and 25–200 Gbps links.
//! These tests check the catalog is faithful to Table 1 and that the
//! anomaly surface differs across subsystems the way the paper describes
//! (anomalies found on other subsystems are subsets of those found on F;
//! the Broadcom subsystem has its own family).

use collie::prelude::*;
use collie::rnic::spec::RnicVendor;
use collie::rnic::workload::{FlowSpec, WorkloadSpec};

#[test]
fn table1_metadata_matches_the_paper() {
    let rows: Vec<_> = SubsystemId::ALL.iter().map(|id| id.info()).collect();
    assert_eq!(rows.len(), 8);

    // Speeds per row (Table 1).
    let speeds: Vec<&str> = rows.iter().map(|r| r.speed.as_str()).collect();
    assert_eq!(
        speeds,
        vec![
            "25 Gbps", "100 Gbps", "100 Gbps", "100 Gbps", "200 Gbps", "200 Gbps", "200 Gbps",
            "100 Gbps"
        ]
    );

    // Vendor split: only H is Broadcom.
    for id in SubsystemId::ALL {
        let vendor = id.rnic_model().vendor();
        if id == SubsystemId::H {
            assert_eq!(vendor, RnicVendor::Broadcom);
        } else {
            assert_eq!(vendor, RnicVendor::Mellanox);
        }
    }

    // GPU column: C, E, F have GPUs.
    for id in SubsystemId::ALL {
        let has_gpu = id.info().gpu != "-";
        assert_eq!(
            has_gpu,
            matches!(id, SubsystemId::C | SubsystemId::E | SubsystemId::F),
            "GPU column mismatch for {id}"
        );
    }

    // PCIe 4.0 only on the 200 Gbps rows.
    for id in SubsystemId::ALL {
        let info = id.info();
        let gen4 = info.pcie.starts_with("4.0");
        assert_eq!(
            gen4,
            info.speed == "200 Gbps",
            "PCIe column mismatch for {id}"
        );
    }
}

#[test]
fn line_rate_traffic_saturates_every_subsystem_without_anomalies() {
    // A Perftest-style large-message WRITE must hit the spec bound on every
    // subsystem (that is how operators verify the spec numbers, §5.2).
    for id in SubsystemId::ALL {
        let mut engine = WorkloadEngine::for_catalog(id);
        let measurement = engine.measure(&SearchPoint::benign());
        let spec_gbps = engine.subsystem().rnic.line_rate.gbps();
        let achieved = measurement.total_throughput().gbps();
        assert!(
            achieved >= 0.8 * spec_gbps,
            "{id}: benign workload reaches only {achieved:.0} of {spec_gbps:.0} Gbps"
        );
        assert!(
            measurement.max_pause_ratio() < 0.001,
            "{id}: unexpected pause frames"
        );
    }
}

#[test]
fn anomalies_found_on_other_mellanox_subsystems_are_subsets_of_f() {
    // §7.1: "We only present those found on subsystem F and H because
    // anomalies found on other subsystems are subsets of those found on F."
    // The catalogued CX-6 triggers that do not depend on platform quirks
    // still reproduce on F; on the slower CX-5 subsystems fewer of them do.
    let f_engine = WorkloadEngine::for_catalog(SubsystemId::F);
    for other in [SubsystemId::B, SubsystemId::D, SubsystemId::E] {
        let other_engine = WorkloadEngine::for_catalog(other);
        for anomaly in KnownAnomaly::for_subsystem(SubsystemId::F) {
            let on_other = other_engine
                .ground_truth(&anomaly.trigger)
                .iter()
                .any(|r| *r == anomaly.rule);
            let on_f = f_engine
                .ground_truth(&anomaly.trigger)
                .iter()
                .any(|r| *r == anomaly.rule);
            assert!(
                !on_other || on_f,
                "anomaly #{} reproduces on {other} but not on F",
                anomaly.id
            );
        }
    }
}

#[test]
fn the_cx5_subsystems_do_not_exhibit_the_cx6_specific_anomalies() {
    // The CX-6-specific rules (#1–#10) are tied to that silicon generation;
    // subsystem B (CX-5) must not reproduce them.
    let engine_b = WorkloadEngine::for_catalog(SubsystemId::B);
    for id in 1u32..=10 {
        let anomaly = KnownAnomaly::by_id(id).unwrap();
        let rules = engine_b.ground_truth(&anomaly.trigger);
        assert!(
            !rules.iter().any(|r| *r == anomaly.rule),
            "CX-6 anomaly #{id} unexpectedly reproduces on the CX-5 subsystem B ({rules:?})"
        );
    }
}

#[test]
fn platform_anomalies_follow_the_platform_not_the_nic() {
    // #11 (cross-socket) requires a chiplet-based host: it reproduces on F
    // (chiplet quirk), but not on the monolithic Intel subsystem B even
    // with the same cross-socket memory placement.
    let anomaly11 = KnownAnomaly::by_id(11).unwrap();
    for (id, expected) in [(SubsystemId::F, true), (SubsystemId::B, false)] {
        let engine = WorkloadEngine::for_catalog(id);
        let reproduces = engine
            .ground_truth(&anomaly11.trigger)
            .iter()
            .any(|r| *r == anomaly11.rule);
        assert_eq!(reproduces, expected, "anomaly #11 on {id}");
    }

    // On the AMD NPS-2 subsystem G the catalogued trigger's NUMA node 1
    // stays on socket 0 (two NUMA domains per socket), so the anomaly only
    // appears once the destination really moves to the remote socket.
    let engine_g = WorkloadEngine::for_catalog(SubsystemId::G);
    assert!(!engine_g
        .ground_truth(&anomaly11.trigger)
        .iter()
        .any(|r| *r == anomaly11.rule));
    let mut cross_socket = anomaly11.trigger.clone();
    cross_socket.dst_memory = collie::host::memory::MemoryTarget::HostDram { numa_node: 2 };
    assert!(engine_g
        .ground_truth(&cross_socket)
        .iter()
        .any(|r| *r == anomaly11.rule));

    // #13 (loopback incast) is NIC-generation independent: it reproduces on
    // the Broadcom subsystem H as well.
    let anomaly13 = KnownAnomaly::by_id(13).unwrap();
    let engine_h = WorkloadEngine::for_catalog(SubsystemId::H);
    assert!(engine_h
        .ground_truth(&anomaly13.trigger)
        .iter()
        .any(|r| *r == anomaly13.rule));
}

#[test]
fn subsystem_speeds_scale_measured_throughput() {
    // The same benign workload measures ~25 Gbps on subsystem A and
    // ~200 Gbps on subsystem F: the spec, not the workload, is the limit.
    let mut engine_a = WorkloadEngine::for_catalog(SubsystemId::A);
    let mut engine_f = WorkloadEngine::for_catalog(SubsystemId::F);
    let a = engine_a
        .measure(&SearchPoint::benign())
        .total_throughput()
        .gbps();
    let f = engine_f
        .measure(&SearchPoint::benign())
        .total_throughput()
        .gbps();
    assert!(a <= 25.0 * 1.001);
    assert!(
        f > 4.0 * a,
        "subsystem F ({f:.0} Gbps) should be far faster than A ({a:.0} Gbps)"
    );
}

#[test]
fn a_short_campaign_runs_on_every_subsystem() {
    // Collie is a tool operators point at whatever subsystem they are
    // qualifying; a short campaign must work on every Table-1 row.
    for id in SubsystemId::ALL {
        let outcome = collie::quick_campaign(id, 0.5, 5);
        assert!(outcome.experiments > 5, "{id}: campaign barely ran");
        assert!(
            outcome.elapsed <= SimDuration::from_secs(3600 + 4500),
            "{id}: budget ignored"
        );
    }
}

/// A workload read from JSON can carry an empty message pattern, which no
/// constructor builds. It must measure as an invalid workload, not panic.
#[test]
fn a_deserialized_empty_message_pattern_is_an_invalid_workload() {
    let workload = WorkloadSpec::single(FlowSpec::basic(Direction::AToB));
    let json = serde_json::to_string(&workload).unwrap();
    let sizes = serde_json::to_string(&workload.flows[0].messages.sizes()).unwrap();
    let emptied = json.replace(&sizes, "[]");
    assert_ne!(emptied, json, "the pattern's sizes must appear in {json}");

    let parsed: WorkloadSpec = serde_json::from_str(&emptied).unwrap();
    let mut subsystem = SubsystemId::F.build();
    let invalid = subsystem.evaluate(&WorkloadSpec::default());
    assert_eq!(subsystem.evaluate(&parsed), invalid);
    assert!(parsed.flows[0].messages.is_empty());
    assert!(!parsed.is_valid());
}
