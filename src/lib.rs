//! # collie
//!
//! A from-scratch Rust reproduction of *Collie: Finding Performance
//! Anomalies in RDMA Subsystems* (NSDI 2022).
//!
//! Collie searches the space of RDMA application workloads for
//! configurations that trigger performance anomalies — PFC pause-frame
//! storms and throughput collapses — in an RDMA subsystem, using only the
//! hardware counters every commodity deployment exposes. Because real RNIC
//! hardware is not available to this reproduction, the workspace also
//! contains a behavioural model of the whole subsystem (host topology,
//! PCIe, RNIC internals, verbs API); see `DESIGN.md` for the substitution
//! argument and the per-experiment index.
//!
//! This facade crate re-exports the workspace layers and offers a couple of
//! one-call conveniences for the common flows.
//!
//! ```
//! use collie::prelude::*;
//!
//! // Run a short Collie campaign against the paper's subsystem F.
//! let outcome = collie::quick_campaign(SubsystemId::F, 1.0, 7);
//! assert!(outcome.experiments > 0);
//! ```
//!
//! Layers (each is its own crate, usable independently):
//!
//! * [`sim`] — deterministic simulation substrate (time, units, RNG,
//!   counters, statistics, time series).
//! * [`host`] — host hardware model (PCIe, NUMA, GPUs, DDIO, switch) and
//!   the Table-1 host presets.
//! * [`rnic`] — the RNIC behavioural model, counters, bottleneck rules and
//!   the Table-1 subsystem catalog.
//! * [`verbs`] — a verbs-style API (MR/QP/CQ/WQE) over the simulated
//!   subsystem.
//! * [`core`] — Collie itself: search space, workload engine, anomaly
//!   monitor, MFS extraction, and the counter-guided search.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use collie_core as core;
pub use collie_host as host;
pub use collie_rnic as rnic;
pub use collie_sim as sim;
pub use collie_verbs as verbs;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use collie_core::advisor::{Advisor, Suggestion};
    pub use collie_core::catalog::KnownAnomaly;
    pub use collie_core::engine::WorkloadEngine;
    pub use collie_core::fabric::{run_fabric_search, FabricEngine, FabricOutcome, FabricVerdict};
    pub use collie_core::mitigation::{Mitigation, MitigationKind, RemediationPlan};
    pub use collie_core::monitor::{AnomalyMonitor, AnomalyVerdict, Mfs, Symptom};
    pub use collie_core::remedy::{
        DiscoveredTrigger, MitigationStep, QualificationRecord, Qualifier, RegressionCatalog,
        RegressionFlag, Verdict,
    };
    pub use collie_core::search::{
        run_search, SearchConfig, SearchOutcome, SearchStrategy, SignalMode,
    };
    pub use collie_core::space::{
        FabricPoint, FabricSpace, SearchPoint, SearchSpace, SpaceRestriction,
    };
    pub use collie_rnic::fabric::TrafficPattern;
    pub use collie_rnic::subsystems::SubsystemId;
    pub use collie_rnic::workload::{Direction, Opcode, Transport};
    pub use collie_sim::time::SimDuration;
}

use prelude::*;

/// Run a Collie campaign (simulated annealing over diagnostic counters,
/// with the MFS skip) against one of the Table-1 subsystems for
/// `budget_hours` of simulated testing time.
pub fn quick_campaign(subsystem: SubsystemId, budget_hours: f64, seed: u64) -> SearchOutcome {
    let mut engine = WorkloadEngine::for_catalog(subsystem);
    let space = SearchSpace::for_host(&subsystem.host());
    let config =
        SearchConfig::collie(seed).with_budget(SimDuration::from_secs_f64(budget_hours * 3600.0));
    run_search(&mut engine, &space, &config)
}

/// Check one workload description against a subsystem: measure it and
/// return the anomaly verdict (the "is this workload safe to ship?" call an
/// application developer makes).
pub fn assess_workload(subsystem: SubsystemId, workload: &SearchPoint) -> AnomalyVerdict {
    let mut engine = WorkloadEngine::for_catalog(subsystem);
    let monitor = AnomalyMonitor::new();
    let (_, verdict) = monitor.measure_and_assess(&mut engine, workload);
    verdict
}

/// Run a fabric campaign (counter-guided search over the multi-host
/// space) against a homogeneous fleet of one subsystem's hosts for
/// `budget_hours` of simulated testing time.
pub fn quick_fabric_campaign(
    subsystem: SubsystemId,
    budget_hours: f64,
    seed: u64,
) -> FabricOutcome {
    let mut engine = FabricEngine::for_catalog(subsystem);
    let space = FabricSpace::for_host(&subsystem.host());
    let config =
        SearchConfig::collie(seed).with_budget(SimDuration::from_secs_f64(budget_hours * 3600.0));
    run_fabric_search(&mut engine, &space, &config)
}

/// Check one fabric point against a subsystem's fleet: measure it and
/// return the fabric verdict (pause on a victim port, cross-host
/// hallmark).
pub fn assess_fabric_workload(subsystem: SubsystemId, point: &FabricPoint) -> FabricVerdict {
    let mut engine = FabricEngine::for_catalog(subsystem);
    let measurement = engine.measure(point);
    collie_core::fabric::assess_fabric(&AnomalyMonitor::new(), &measurement)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_campaign_runs_and_discovers() {
        let outcome = quick_campaign(SubsystemId::F, 1.0, 3);
        assert!(outcome.experiments > 10);
        // A campaign may overshoot its budget by at most one experiment plus
        // one MFS extraction (an anomaly discovered just before the deadline
        // is still characterised, as on real hardware).
        assert!(outcome.elapsed.as_secs_f64() <= 3600.0 + 4500.0);
    }

    #[test]
    fn assess_workload_flags_known_triggers_and_passes_benign_ones() {
        assert!(!assess_workload(SubsystemId::F, &SearchPoint::benign()).is_anomalous());
        let anomaly = KnownAnomaly::by_id(1).unwrap();
        assert!(assess_workload(SubsystemId::F, &anomaly.trigger).is_anomalous());
    }

    #[test]
    fn quick_fabric_campaign_runs_within_budget() {
        let outcome = quick_fabric_campaign(SubsystemId::F, 0.5, 3);
        assert!(outcome.experiments > 5);
        assert!(outcome.elapsed.as_secs_f64() <= 1800.0 + 4500.0);
    }

    #[test]
    fn assess_fabric_workload_passes_a_benign_fleet() {
        let verdict = assess_fabric_workload(SubsystemId::F, &FabricPoint::benign());
        assert!(!verdict.is_anomalous(), "{verdict:?}");
    }
}
