//! Multi-host fabric campaigns.
//!
//! The two-host search ([`crate::search`]) can only reach anomalies whose
//! blast radius is the misbehaving pair itself. The paper's headline
//! cross-host failure — a PFC pause storm where one bad RNIC back-pressures
//! the switch and collapses victim flows on *other* ports — needs a fabric.
//! This module threads that capability through the same layer stack as the
//! two-host pipeline:
//!
//! * [`FabricEngine`] wraps a [`WorkloadEngine`]: the culprit's workload is
//!   measured on the calibrated two-host model, then
//!   [`evaluate_fabric`] relays the
//!   culprit's pause through the N-port switch and derives the victim and
//!   spread gauges. It implements [`Engine`], so the one memoizing
//!   [`Evaluator`] serves it as [`FabricEvaluator`]: fabric measurements
//!   are a pure function of the [`FabricPoint`], so whole measurements are
//!   memoized by canonical point and campaigns are bit-identical with the
//!   cache on or off.
//! * [`assess_fabric`] applies the §5.2 anomaly conditions to the fabric
//!   observables and additionally labels the cross-host hallmark: a victim
//!   flow collapsing while the culprit's own throughput stays healthy.
//! * [`FabricDomain`] binds the fabric space to the generic kernel, so the
//!   kernel's [`MfsExtractor`](crate::search::kernel::MfsExtractor)
//!   extracts minimal feature sets over workload *and* fabric coordinates:
//!   an MFS can state "needs at least 3 hosts, incast at least 2".
//! * [`run_fabric_search`] runs the
//!   counter-guided campaign over the fabric space.

mod campaign;
mod mfs;

pub use campaign::{
    run_fabric_search, run_fabric_search_with_stats, FabricDiscovery, FabricDomain, FabricOutcome,
};
pub use mfs::{FabricMfs, FabricSignature};

use crate::engine::{Engine, WorkloadEngine};
use crate::eval::Evaluator;
use crate::monitor::{AnomalyMonitor, Symptom};
use crate::space::{FabricPoint, SearchPoint};
use collie_rnic::fabric::{evaluate_fabric, FabricMeasurement};
use collie_rnic::subsystem::{Measurement, Subsystem};
use collie_rnic::subsystems::SubsystemId;
use collie_sim::time::SimDuration;
use serde::{Deserialize, Serialize};

/// The memoizing evaluator over a [`FabricEngine`].
pub type FabricEvaluator<'e> = Evaluator<'e, FabricEngine>;

/// Sets up and runs fabric experiments: N homogeneous hosts around the
/// wrapped two-host engine.
///
/// **Determinism contract:** like [`WorkloadEngine::measure`], `measure` is
/// a pure function of the point — the inner engine resets all state per
/// evaluation and the switch relay is arithmetic on its outputs — which is
/// what makes [`FabricEvaluator`]'s memoization sound.
#[derive(Debug)]
pub struct FabricEngine {
    engine: WorkloadEngine,
    baseline: Measurement,
}

impl FabricEngine {
    /// A fabric engine around an existing two-host engine. Measures the
    /// benign reference workload once: that is what a victim flow achieves
    /// on an idle fabric.
    pub fn new(mut engine: WorkloadEngine) -> Self {
        let baseline = engine.measure(&SearchPoint::benign());
        FabricEngine { engine, baseline }
    }

    /// A fabric engine over one of the Table-1 subsystems.
    pub fn for_catalog(id: SubsystemId) -> Self {
        FabricEngine::new(WorkloadEngine::for_catalog(id))
    }

    /// The wrapped two-host engine.
    pub fn inner(&self) -> &WorkloadEngine {
        &self.engine
    }

    /// Toggle incremental evaluation on the wrapped two-host engine (see
    /// [`WorkloadEngine::set_incremental`]).
    pub fn set_incremental(&mut self, enabled: bool) {
        self.engine.set_incremental(enabled);
    }

    /// The benign-fabric reference measurement.
    pub fn baseline(&self) -> &Measurement {
        &self.baseline
    }

    /// Run one fabric experiment: the culprit's workload on the two-host
    /// model, then the switch-level pause relay across the shape.
    pub fn measure(&mut self, point: &FabricPoint) -> FabricMeasurement {
        let culprit = self.engine.measure(&point.workload);
        evaluate_fabric(
            &self.engine.subsystem().rnic,
            point.shape(),
            &culprit,
            &self.baseline,
        )
    }

    /// How long this experiment would take on real hardware: the two-host
    /// setup cost plus connection setup fanned out across the extra hosts
    /// (each additional host re-runs the out-of-band exchange).
    pub fn experiment_cost(point: &FabricPoint) -> SimDuration {
        let base = WorkloadEngine::experiment_cost(&point.workload);
        let extra_hosts = point.shape().normalized().host_count.saturating_sub(2);
        SimDuration::from_secs_f64((base.as_secs_f64() + 2.0 * extra_hosts as f64).min(90.0))
    }
}

impl Engine for FabricEngine {
    type Point = FabricPoint;
    type Measurement = FabricMeasurement;
    type Verdict = FabricVerdict;

    fn measure(&mut self, point: &FabricPoint) -> FabricMeasurement {
        FabricEngine::measure(self, point)
    }

    fn assess(&self, monitor: &AnomalyMonitor, measurement: &FabricMeasurement) -> FabricVerdict {
        assess_fabric(monitor, measurement)
    }

    /// The subsystem under test (every host of the fabric is a copy of its
    /// host configuration).
    fn subsystem(&self) -> &Subsystem {
        self.engine.subsystem()
    }

    /// Ground-truth oracle pass-through for the culprit's workload
    /// (scoring only; the fabric search never sees it).
    fn ground_truth(&self, point: &FabricPoint) -> Vec<&'static str> {
        self.engine.ground_truth(&point.workload)
    }
}

/// The verdict on one fabric experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FabricVerdict {
    /// The detected symptom, if any (pause frames on a port whose own
    /// endpoints are healthy).
    pub symptom: Option<Symptom>,
    /// The cross-host hallmark: the victim flow collapsed below the
    /// throughput threshold while the culprit's own traffic stayed at or
    /// above it — the signature the paper's operators actually chase.
    pub cross_host: bool,
    /// Observed pause ratio on the victim flow's sender port.
    pub victim_pause: f64,
    /// Victim flow's achieved / expected throughput fraction.
    pub victim_frac: f64,
    /// Culprit host's own spec fraction.
    pub culprit_frac: f64,
}

impl FabricVerdict {
    /// True if any anomaly was detected.
    pub fn is_anomalous(&self) -> bool {
        self.symptom.is_some()
    }
}

/// Apply the anomaly conditions to a fabric measurement. The pause
/// condition is the paper's (§5.2): pause frames without congestion — on a
/// fabric, pause observed on a *victim's* sender port is by construction
/// host-caused, since traffic matrices are admissible.
pub fn assess_fabric(monitor: &AnomalyMonitor, fm: &FabricMeasurement) -> FabricVerdict {
    let thresholds = monitor.thresholds();
    let symptom = if fm.victim_pause_ratio > thresholds.pause_ratio {
        Some(Symptom::PauseStorm)
    } else {
        None
    };
    let cross_host = symptom.is_some()
        && fm.victim_throughput_frac < thresholds.throughput_fraction
        && fm.culprit_throughput_frac >= thresholds.throughput_fraction;
    FabricVerdict {
        symptom,
        cross_host,
        victim_pause: fm.victim_pause_ratio,
        victim_frac: fm.victim_throughput_frac,
        culprit_frac: fm.culprit_throughput_frac,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::FabricSpace;
    use collie_rnic::fabric::TrafficPattern;
    use collie_rnic::workload::{Opcode, Transport};
    use collie_sim::rng::SimRng;

    /// A culprit workload with moderate pause and healthy throughput: the
    /// cross-socket receive path.
    pub(crate) fn cross_host_culprit() -> FabricPoint {
        let mut workload = SearchPoint::benign();
        workload.bidirectional = true;
        workload.dst_memory = collie_host::memory::MemoryTarget::HostDram { numa_node: 1 };
        FabricPoint {
            workload,
            host_count: 8,
            incast_degree: 6,
            pattern: TrafficPattern::Ring,
        }
    }

    /// A severe local pause storm (anomaly #4's workload: bidirectional
    /// RC READ with long SG lists, severity 0.30) on a fabric — the
    /// culprit's own throughput collapses well below the health threshold.
    pub(crate) fn storming_culprit() -> FabricPoint {
        let mut workload = SearchPoint::benign();
        workload.transport = Transport::Rc;
        workload.opcode = Opcode::Read;
        workload.bidirectional = true;
        workload.wqe_batch = 64;
        workload.sge_per_wqe = 8;
        workload.num_qps = 256;
        FabricPoint {
            workload,
            host_count: 4,
            incast_degree: 2,
            pattern: TrafficPattern::Incast,
        }
    }

    #[test]
    fn benign_fabric_is_healthy() {
        let mut engine = FabricEngine::for_catalog(SubsystemId::F);
        let monitor = AnomalyMonitor::new();
        let fm = engine.measure(&FabricPoint::benign());
        let verdict = assess_fabric(&monitor, &fm);
        assert!(!verdict.is_anomalous(), "{verdict:?}");
        assert!(verdict.victim_frac > 0.9);
    }

    #[test]
    fn cross_host_culprit_is_flagged_with_the_hallmark() {
        let mut engine = FabricEngine::for_catalog(SubsystemId::F);
        let monitor = AnomalyMonitor::new();
        let fm = engine.measure(&cross_host_culprit());
        let verdict = assess_fabric(&monitor, &fm);
        assert_eq!(verdict.symptom, Some(Symptom::PauseStorm));
        assert!(
            verdict.cross_host,
            "victim should collapse while the culprit stays healthy: {verdict:?}"
        );
    }

    #[test]
    fn severe_local_storm_is_anomalous_but_not_the_cross_host_hallmark() {
        let mut engine = FabricEngine::for_catalog(SubsystemId::F);
        let monitor = AnomalyMonitor::new();
        let fm = engine.measure(&storming_culprit());
        let verdict = assess_fabric(&monitor, &fm);
        assert_eq!(verdict.symptom, Some(Symptom::PauseStorm));
        // The culprit's own throughput has already collapsed, so the
        // anomaly is visible from the culprit itself — not the silent
        // victim-only signature.
        assert!(!verdict.cross_host, "{verdict:?}");
    }

    #[test]
    fn two_host_shapes_never_produce_fabric_anomalies() {
        let mut engine = FabricEngine::for_catalog(SubsystemId::F);
        let monitor = AnomalyMonitor::new();
        let point = FabricPoint::two_host(storming_culprit().workload);
        let verdict = assess_fabric(&monitor, &engine.measure(&point));
        // No victim exists on the paper's testbed; the two-host campaign
        // owns that regime.
        assert!(!verdict.is_anomalous());
    }

    #[test]
    fn fabric_measure_is_deterministic_so_memoization_is_sound() {
        let mut engine = FabricEngine::for_catalog(SubsystemId::F);
        let point = cross_host_culprit();
        let a = engine.measure(&point);
        let _ = engine.measure(&FabricPoint::benign());
        let b = engine.measure(&point);
        assert_eq!(a, b, "measure must be a pure function of the point");
    }

    fn fresh_engine() -> FabricEngine {
        FabricEngine::for_catalog(SubsystemId::F)
    }

    #[test]
    fn evaluator_hits_the_cache_on_repeats_and_agrees() {
        crate::eval::tests::assert_repeats_hit_the_cache(fresh_engine, &cross_host_culprit());
    }

    #[test]
    fn measure_and_assess_samples_through_the_cache() {
        let verdict = crate::eval::tests::assert_four_samples_per_assessment(
            fresh_engine,
            &cross_host_culprit(),
        );
        assert!(verdict.is_anomalous());
    }

    #[test]
    fn uncached_evaluator_never_hits() {
        crate::eval::tests::assert_uncached_never_hits(fresh_engine, &FabricPoint::benign());
    }

    #[test]
    fn attached_fabric_cache_tracks_shared_use_without_touching_stats() {
        crate::eval::tests::assert_shared_use_is_accounted_apart(
            fresh_engine,
            &cross_host_culprit(),
            &FabricPoint::benign(),
        );
    }

    #[test]
    fn experiment_cost_scales_with_host_count_and_stays_bounded() {
        let mut p = FabricPoint::benign();
        p.host_count = 2;
        let two = FabricEngine::experiment_cost(&p);
        p.host_count = 8;
        let eight = FabricEngine::experiment_cost(&p);
        assert!(eight > two);
        assert!((eight.as_secs_f64() - two.as_secs_f64() - 12.0).abs() < 1e-9);
        p.workload.num_qps = 2048;
        p.workload.mrs_per_qp = 1024;
        assert!(FabricEngine::experiment_cost(&p).as_secs_f64() <= 90.0);
        assert!(two.as_secs_f64() >= 20.0);
    }

    #[test]
    fn random_fabric_points_yield_finite_gauges() {
        let mut engine = FabricEngine::for_catalog(SubsystemId::F);
        let space = FabricSpace::for_host(&SubsystemId::F.host());
        let mut rng = SimRng::new(41);
        for _ in 0..40 {
            let p = space.random_point(&mut rng);
            let fm = engine.measure(&p);
            assert!((0.0..=1.0).contains(&fm.victim_pause_ratio), "{p}");
            assert!((0.0..=1.0).contains(&fm.pause_spread), "{p}");
            assert!(fm.victim_throughput_frac.is_finite());
            assert!(fm.port_pause.len() >= 2);
        }
    }
}
