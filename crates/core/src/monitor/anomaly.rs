//! Anomaly detection conditions.
//!
//! The paper defines exactly two anomaly classes (§3, §5.2), chosen because
//! they can be stated precisely and matter most in production:
//!
//! 1. **PFC pause frames** while the network is not congested. The metric is
//!    the pause-duration ratio; the threshold is 0.1 % (pause frames in the
//!    first instants after connection setup are tolerated).
//! 2. **Throughput not bottlenecked by the specification.** A healthy
//!    subsystem is limited either by bits/second or by packets/second as
//!    published in the RNIC spec; if a workload sits more than 20 % below
//!    *both* bounds, something else inside the subsystem is the bottleneck.
//!
//! The monitor samples the subsystem four times per iteration and averages,
//! as §6 describes.

use collie_rnic::spec::RnicSpec;
use collie_rnic::subsystem::Measurement;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The two anomaly classes of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Symptom {
    /// PFC pause frames generated without network congestion.
    PauseStorm,
    /// Throughput more than 20 % below both specification bounds, with no
    /// pause frames.
    LowThroughput,
}

impl fmt::Display for Symptom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Symptom::PauseStorm => write!(f, "pause frame"),
            Symptom::LowThroughput => write!(f, "low throughput"),
        }
    }
}

/// Detection thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnomalyThresholds {
    /// Pause-duration ratio above which pause frames count as an anomaly.
    pub pause_ratio: f64,
    /// Fraction of the specification bound a workload must reach on at
    /// least one of the two metrics to be considered healthy.
    pub throughput_fraction: f64,
}

/// The §5.2 thresholds every monitor applies.
const THRESHOLDS: AnomalyThresholds = AnomalyThresholds {
    pause_ratio: 0.001,
    throughput_fraction: 0.8,
};

/// Samples per iteration: the paper samples four times (§6).
pub(crate) const SAMPLES_PER_ITERATION: u32 = 4;

/// The verdict on one experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnomalyVerdict {
    /// The detected symptom, if any.
    pub symptom: Option<Symptom>,
    /// Observed worst-case pause-duration ratio.
    pub pause_ratio: f64,
    /// The best fraction of either specification bound achieved by the
    /// worst direction (1.0 = some direction pinned a spec bound; below the
    /// threshold = anomalous).
    pub spec_fraction: f64,
}

impl AnomalyVerdict {
    /// True if any anomaly was detected.
    pub fn is_anomalous(&self) -> bool {
        self.symptom.is_some()
    }
}

/// Applies the detection conditions to measurements.
#[derive(Debug, Clone, Default)]
pub struct AnomalyMonitor;

impl AnomalyMonitor {
    /// A monitor with the paper's thresholds.
    pub fn new() -> Self {
        AnomalyMonitor
    }

    /// The thresholds it applies: the paper's (§5.2).
    pub fn thresholds(&self) -> AnomalyThresholds {
        THRESHOLDS
    }

    /// Assess one measurement against the subsystem's specification.
    pub fn assess(&self, measurement: &Measurement, spec: &RnicSpec) -> AnomalyVerdict {
        let pause_ratio = measurement.max_pause_ratio();

        // For every direction that carried traffic, how close did it get to
        // either specification bound? A direction that was deliberately
        // offered nothing does not count against the subsystem.
        let mut worst_fraction: f64 = 1.0;
        for dir in &measurement.directions {
            let bps_fraction = dir.throughput.fraction_of(spec.line_rate);
            let pps_fraction = dir.packet_rate.fraction_of(spec.max_packet_rate);
            let best = bps_fraction.max(pps_fraction);
            worst_fraction = worst_fraction.min(best);
        }
        if measurement.directions.is_empty() {
            worst_fraction = 0.0;
        }

        let symptom = if pause_ratio > THRESHOLDS.pause_ratio {
            Some(Symptom::PauseStorm)
        } else if !measurement.directions.is_empty()
            && worst_fraction < THRESHOLDS.throughput_fraction
        {
            Some(Symptom::LowThroughput)
        } else {
            None
        };

        AnomalyVerdict {
            symptom,
            pause_ratio,
            spec_fraction: worst_fraction,
        }
    }

    /// Run the paper's measurement procedure: sample the experiment four
    /// times and assess. (The simulator is deterministic, so the repeats
    /// exist for procedural fidelity; a monitor wrapping a noisy subsystem
    /// would average them.)
    ///
    /// This is the convenience for one-off assessments; campaigns run the
    /// same procedure through their own memo cache via
    /// [`Evaluator::measure_and_assess`](crate::eval::Evaluator), to which
    /// this delegates through a fresh evaluator so there is exactly one
    /// sampling loop (the repeats are cache hits, one flow-model compute in
    /// all).
    pub fn measure_and_assess(
        &self,
        engine: &mut crate::engine::WorkloadEngine,
        point: &crate::space::SearchPoint,
    ) -> (Measurement, AnomalyVerdict) {
        crate::eval::Evaluator::new(engine).measure_and_assess(self, point)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::WorkloadEngine;
    use crate::space::SearchPoint;
    use collie_rnic::subsystems::SubsystemId;
    use collie_rnic::workload::{Opcode, Transport};

    #[test]
    fn benign_point_is_not_anomalous() {
        let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
        let monitor = AnomalyMonitor::new();
        let (_, verdict) = monitor.measure_and_assess(&mut engine, &SearchPoint::benign());
        assert!(!verdict.is_anomalous(), "{verdict:?}");
        assert!(verdict.spec_fraction >= 0.8);
    }

    #[test]
    fn pause_storm_point_is_detected() {
        let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
        let monitor = AnomalyMonitor::new();
        let mut p = SearchPoint::benign();
        p.transport = Transport::Ud;
        p.opcode = Opcode::Send;
        p.wqe_batch = 64;
        p.recv_queue_depth = 256;
        p.mtu = 2048;
        p.messages = vec![2048];
        let (_, verdict) = monitor.measure_and_assess(&mut engine, &p);
        assert_eq!(verdict.symptom, Some(Symptom::PauseStorm));
        assert!(verdict.pause_ratio > 0.001);
    }

    #[test]
    fn low_throughput_point_is_detected_without_pause() {
        let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
        let monitor = AnomalyMonitor::new();
        let mut p = SearchPoint::benign();
        // Appendix A Anomaly #2.
        p.transport = Transport::Ud;
        p.opcode = Opcode::Send;
        p.num_qps = 16;
        p.wqe_batch = 4;
        p.recv_queue_depth = 1024;
        p.send_queue_depth = 1024;
        p.mtu = 1024;
        p.messages = vec![1024];
        let (_, verdict) = monitor.measure_and_assess(&mut engine, &p);
        assert_eq!(verdict.symptom, Some(Symptom::LowThroughput));
        assert!(verdict.pause_ratio <= 0.001);
        assert!(verdict.spec_fraction < 0.8);
    }

    #[test]
    fn small_messages_at_packet_rate_cap_are_healthy() {
        let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
        let monitor = AnomalyMonitor::new();
        let mut p = SearchPoint::benign();
        p.messages = vec![64];
        p.wqe_batch = 32;
        let (_, verdict) = monitor.measure_and_assess(&mut engine, &p);
        assert!(
            !verdict.is_anomalous(),
            "packet-rate-bound traffic is within spec: {verdict:?}"
        );
    }

    #[test]
    fn empty_measurement_reads_as_low_throughput_free() {
        let monitor = AnomalyMonitor::new();
        let spec = collie_rnic::spec::RnicModel::Cx6Dx200.spec();
        let empty = Measurement::empty(Default::default());
        let verdict = monitor.assess(&empty, &spec);
        // No traffic directions: nothing to judge, nothing anomalous.
        assert!(!verdict.is_anomalous());
    }
}
