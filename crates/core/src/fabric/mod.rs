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
//!   spread gauges.
//! * [`FabricEvaluator`] is the memoized evaluation layer (the fabric
//!   counterpart of [`Evaluator`](crate::eval::Evaluator)): fabric
//!   measurements are a pure function of the [`FabricPoint`], so whole
//!   measurements are memoized by canonical point and campaigns are
//!   bit-identical with the cache on or off.
//! * [`assess_fabric`] applies the §5.2 anomaly conditions to the fabric
//!   observables and additionally labels the cross-host hallmark: a victim
//!   flow collapsing while the culprit's own throughput stays healthy.
//! * [`FabricMfsExtractor`] extracts minimal
//!   feature sets over workload *and* fabric coordinates, so an MFS can
//!   state "needs at least 3 hosts, incast at least 2".
//! * [`run_fabric_search`] runs the
//!   counter-guided campaign over the fabric space.

mod campaign;
mod mfs;

pub use campaign::{
    run_fabric_search, run_fabric_search_in_context, run_fabric_search_with_stats, FabricDiscovery,
    FabricDomain, FabricOutcome,
};
pub use mfs::{FabricExtractionOutcome, FabricMfs, FabricMfsExtractor, FabricSignature};

use crate::engine::WorkloadEngine;
use crate::eval::{EvalProfile, EvalStats, SharedCache, SharedUse};
use crate::monitor::{AnomalyMonitor, Symptom};
use crate::space::{FabricPoint, SearchPoint};
use collie_rnic::fabric::{evaluate_fabric, FabricMeasurement};
use collie_rnic::subsystem::{Measurement, Subsystem};
use collie_rnic::subsystems::SubsystemId;
use collie_sim::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;
// collie-lint: allow(wall-clock, reason = "FabricEvaluator's EvalProfile records real compute latency; it never feeds a campaign decision")
use std::time::Instant;

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

    /// The subsystem under test (every host of the fabric is a copy of its
    /// host configuration).
    pub fn subsystem(&self) -> &Subsystem {
        self.engine.subsystem()
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

    /// Ground-truth oracle pass-through for the culprit's workload
    /// (scoring only; the fabric search never sees it).
    pub fn ground_truth(&self, point: &FabricPoint) -> Vec<&'static str> {
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

/// A memoizing wrapper around one fabric engine (the fabric counterpart of
/// [`Evaluator`](crate::eval::Evaluator); same cost-accounting split: the
/// campaign keeps charging simulated hardware time per measurement whether
/// or not it hit the cache). With a [`SharedCache`] attached
/// ([`FabricEvaluator::attach_shared`]) a local miss first consults it;
/// stats are counted off the local cache alone, so they are bit-identical
/// either way.
#[derive(Debug)]
pub struct FabricEvaluator<'e> {
    engine: &'e mut FabricEngine,
    cache: HashMap<FabricPoint, Arc<FabricMeasurement>>,
    shared: Option<Arc<SharedCache<FabricPoint, FabricMeasurement>>>,
    memoize: bool,
    stats: EvalStats,
    shared_use: SharedUse,
    compute_nanos: Vec<u64>,
}

impl<'e> FabricEvaluator<'e> {
    /// A memoizing evaluator over `engine`.
    pub fn new(engine: &'e mut FabricEngine) -> Self {
        FabricEvaluator {
            engine,
            cache: HashMap::new(),
            shared: None,
            memoize: true,
            stats: EvalStats::default(),
            shared_use: SharedUse::default(),
            compute_nanos: Vec::new(),
        }
    }

    /// Attach a matrix-scoped shared cache (see
    /// [`Evaluator::attach_shared`](crate::eval::Evaluator::attach_shared)):
    /// local misses are answered through `shared` while [`Self::stats`] stay
    /// bit-identical. No-op when memoization is off. No campaign runner
    /// calls this any more; it is kept for the campaign benchmark's traced
    /// run (see [`EvalContext`](crate::eval::EvalContext)).
    pub fn attach_shared(&mut self, shared: Arc<SharedCache<FabricPoint, FabricMeasurement>>) {
        if self.memoize {
            self.shared = Some(shared);
        }
    }

    /// An evaluator that always recomputes (the uncached reference path of
    /// the bit-identity tests).
    pub fn uncached(engine: &'e mut FabricEngine) -> Self {
        FabricEvaluator {
            memoize: false,
            ..FabricEvaluator::new(engine)
        }
    }

    /// Measure one fabric point, answering from the memo cache when the
    /// identical point was measured before.
    pub fn measure(&mut self, point: &FabricPoint) -> FabricMeasurement {
        if !self.memoize {
            self.stats.misses += 1;
            return self.timed_compute(point);
        }
        if let Some(measurement) = self.cache.get(point) {
            self.stats.hits += 1;
            return (**measurement).clone();
        }
        self.stats.misses += 1;
        let measurement = if let Some(shared) = self.shared.as_ref().map(Arc::clone) {
            let engine = &mut *self.engine;
            let nanos = &mut self.compute_nanos;
            let mut computed_here = false;
            let measurement = shared.get_or_compute(point, || {
                computed_here = true;
                // collie-lint: allow(wall-clock, reason = "perf-harness latency sample; the measurement itself is deterministic")
                let started = Instant::now();
                let measurement = engine.measure(point);
                nanos.push(started.elapsed().as_nanos() as u64);
                measurement
            });
            if computed_here {
                self.shared_use.computed += 1;
            } else {
                self.shared_use.served += 1;
            }
            measurement
        } else {
            Arc::new(self.timed_compute(point))
        };
        self.cache.insert(point.clone(), Arc::clone(&measurement));
        (*measurement).clone()
    }

    /// Run the fabric model for one point, recording its wall-clock cost.
    fn timed_compute(&mut self, point: &FabricPoint) -> FabricMeasurement {
        // collie-lint: allow(wall-clock, reason = "perf-harness latency sample; the measurement itself is deterministic")
        let started = Instant::now();
        let measurement = self.engine.measure(point);
        self.compute_nanos.push(started.elapsed().as_nanos() as u64);
        measurement
    }

    /// The §6 measurement procedure through the cache: sample the fabric
    /// experiment `samples_per_iteration` times (repeats are cache hits)
    /// and assess the final sample.
    pub fn measure_and_assess(
        &mut self,
        monitor: &AnomalyMonitor,
        point: &FabricPoint,
    ) -> (FabricMeasurement, FabricVerdict) {
        let samples = monitor.samples_per_iteration.max(1);
        let measurement = self.measure(point);
        if self.memoize {
            // Repeats of an identical deterministic sample are guaranteed
            // cache hits; account for them without the redundant lookups.
            self.stats.hits += u64::from(samples - 1);
        } else {
            for _ in 1..samples {
                let _ = self.measure(point);
            }
        }
        let verdict = assess_fabric(monitor, &measurement);
        (measurement, verdict)
    }

    /// The subsystem under test.
    pub fn subsystem(&self) -> &Subsystem {
        self.engine.subsystem()
    }

    /// Ground-truth oracle pass-through (scoring only).
    pub fn ground_truth(&self, point: &FabricPoint) -> Vec<&'static str> {
        self.engine.ground_truth(point)
    }

    /// Cache hit/miss counters so far.
    pub fn stats(&self) -> EvalStats {
        self.stats
    }

    /// Shared-cache interaction counters (see
    /// [`Evaluator::shared_use`](crate::eval::Evaluator::shared_use), kept
    /// for the same reason).
    pub fn shared_use(&self) -> SharedUse {
        self.shared_use
    }

    /// The full evaluation profile: local stats and one wall-clock latency
    /// per fabric-model run on this thread.
    pub fn profile(&self) -> EvalProfile {
        EvalProfile {
            stats: self.stats,
            compute_nanos: self.compute_nanos.clone(),
            incremental: self.engine.subsystem().incremental_use(),
        }
    }

    /// Number of distinct points held in the cache.
    pub fn cached_points(&self) -> usize {
        self.cache.len()
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

    #[test]
    fn evaluator_hits_the_cache_on_repeats_and_agrees() {
        let mut engine = FabricEngine::for_catalog(SubsystemId::F);
        let mut evaluator = FabricEvaluator::new(&mut engine);
        let p = cross_host_culprit();
        let first = evaluator.measure(&p);
        let second = evaluator.measure(&p);
        assert_eq!(first, second);
        assert_eq!(evaluator.stats(), EvalStats { hits: 1, misses: 1 });
        assert_eq!(evaluator.cached_points(), 1);
    }

    #[test]
    fn measure_and_assess_samples_through_the_cache() {
        let mut engine = FabricEngine::for_catalog(SubsystemId::F);
        let mut evaluator = FabricEvaluator::new(&mut engine);
        let monitor = AnomalyMonitor::new();
        let (_, verdict) = evaluator.measure_and_assess(&monitor, &cross_host_culprit());
        assert!(verdict.is_anomalous());
        // Four samples per iteration: one compute, three cache hits.
        assert_eq!(evaluator.stats(), EvalStats { hits: 3, misses: 1 });
    }

    #[test]
    fn uncached_evaluator_never_hits() {
        let mut engine = FabricEngine::for_catalog(SubsystemId::F);
        let mut evaluator = FabricEvaluator::uncached(&mut engine);
        let p = FabricPoint::benign();
        let a = evaluator.measure(&p);
        let b = evaluator.measure(&p);
        assert_eq!(a, b);
        assert_eq!(evaluator.stats(), EvalStats { hits: 0, misses: 2 });
        assert_eq!(evaluator.cached_points(), 0);
    }

    #[test]
    fn attached_fabric_cache_tracks_shared_use_without_touching_stats() {
        let shared: Arc<SharedCache<FabricPoint, FabricMeasurement>> = Arc::new(SharedCache::new());
        let mut reference = FabricEngine::for_catalog(SubsystemId::F);
        let p = cross_host_culprit();
        shared.get_or_compute(&p, || reference.measure(&p));

        let mut engine = FabricEngine::for_catalog(SubsystemId::F);
        let mut evaluator = FabricEvaluator::new(&mut engine);
        evaluator.attach_shared(Arc::clone(&shared));
        let got = evaluator.measure(&p);
        assert_eq!(got, reference.measure(&p));
        assert_eq!(evaluator.stats(), EvalStats { hits: 0, misses: 1 });
        assert_eq!(
            evaluator.shared_use(),
            SharedUse {
                computed: 0,
                served: 1
            }
        );
        assert!(evaluator.profile().compute_nanos.is_empty());
        let _ = evaluator.measure(&FabricPoint::benign());
        assert_eq!(
            evaluator.shared_use(),
            SharedUse {
                computed: 1,
                served: 1
            }
        );
        assert_eq!(evaluator.profile().compute_nanos.len(), 1);

        let mut uncached = FabricEvaluator::uncached(&mut reference);
        uncached.attach_shared(Arc::clone(&shared));
        let _ = uncached.measure(&p);
        assert_eq!(uncached.shared_use(), SharedUse::default());
        assert_eq!(uncached.profile().compute_nanos.len(), 1);
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
