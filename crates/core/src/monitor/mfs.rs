//! Minimal feature set (MFS) extraction (§5.2).
//!
//! When the search finds an anomalous workload, Collie asks: *which of its
//! features are actually necessary to reproduce the anomaly?* The answer —
//! the minimal feature set — serves two purposes. During the search it
//! prunes redundant experiments (any mutated point matching an already-known
//! MFS is skipped, Algorithm 1 line 5); after the search it tells
//! application developers which condition to break to sidestep the anomaly.
//!
//! Extraction follows the paper's heuristic: with only four dimensions and
//! a handful of factors each, probe every feature directly. For a
//! categorical feature, try the alternative values — if none still triggers
//! the anomaly, the feature is necessary and must keep its value. For a
//! numeric feature, probe the ends of its ladder to learn the direction of
//! the condition (at-least or at-most) and then take a few bisection steps
//! to find the coarse threshold, exactly as the paper discretises
//! continuous dimensions into value regions.
//!
//! The probing algorithm itself is domain-generic and lives in
//! [`kernel::MfsExtractor`](crate::search::kernel::MfsExtractor); bound to
//! a [`WorkloadDomain`](crate::search::WorkloadDomain) it extracts the
//! two-host MFS *type* this module owns (the fabric counterpart is
//! [`FabricMfs`](crate::fabric::FabricMfs)).

use super::anomaly::Symptom;
use crate::space::{Feature, FeatureValue, SearchPoint};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// One necessary condition of an MFS.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FeatureCondition {
    /// The feature must keep exactly this value (categorical features, or
    /// numeric features where only the observed region triggers).
    Equals(FeatureValue),
    /// The feature's numeric value must be at least this large.
    AtLeast(u64),
    /// The feature's numeric value must be at most this large.
    AtMost(u64),
}

impl FeatureCondition {
    /// True if `value` satisfies this condition. The one shared matching
    /// rule both the two-host [`Mfs`] and the fabric
    /// [`FabricMfs`](crate::fabric::FabricMfs) apply per feature.
    pub fn admits(&self, value: &FeatureValue) -> bool {
        match self {
            FeatureCondition::Equals(expected) => value == expected,
            FeatureCondition::AtLeast(threshold) => match value {
                FeatureValue::Number(n) => n >= threshold,
                _ => false,
            },
            FeatureCondition::AtMost(threshold) => match value {
                FeatureValue::Number(n) => n <= threshold,
                _ => false,
            },
        }
    }
}

impl fmt::Display for FeatureCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeatureCondition::Equals(v) => write!(f, "= {v}"),
            FeatureCondition::AtLeast(v) => write!(f, ">= {v}"),
            FeatureCondition::AtMost(v) => write!(f, "<= {v}"),
        }
    }
}

/// A minimal feature set: the necessary conditions to reproduce one
/// anomaly, plus an example workload that does.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mfs {
    /// The end-to-end symptom of the anomaly.
    pub symptom: Symptom,
    /// The necessary conditions, keyed by feature.
    pub conditions: BTreeMap<Feature, FeatureCondition>,
    /// A concrete workload that reproduces the anomaly.
    pub example: SearchPoint,
}

impl Mfs {
    /// True if `point` satisfies every condition of this MFS (and would
    /// therefore be skipped by the search as a redundant test).
    pub fn matches(&self, point: &SearchPoint) -> bool {
        self.conditions
            .iter()
            .all(|(feature, condition)| condition.admits(&point.feature_value(*feature)))
    }

    /// Human-readable condition list, one line per condition.
    pub fn describe(&self) -> String {
        let mut lines: Vec<String> = self
            .conditions
            .iter()
            .map(|(f, c)| format!("{f} {c}"))
            .collect();
        lines.sort();
        format!("[{}] {}", self.symptom, lines.join("; "))
    }

    /// Number of necessary conditions.
    pub fn len(&self) -> usize {
        self.conditions.len()
    }

    /// True if no condition was found necessary (should not happen for a
    /// real anomaly, but kept total for robustness).
    pub fn is_empty(&self) -> bool {
        self.conditions.is_empty()
    }
}

/// The observable identity of the anomaly under extraction: the end-to-end
/// symptom plus the diagnostic counter that dominated when the anomalous
/// workload was measured. Probes must reproduce both for a feature to be
/// judged irrelevant.
#[derive(Debug, Clone, PartialEq)]
pub struct ReproductionSignature {
    pub(crate) symptom: Symptom,
    pub(crate) dominant_counter: Option<String>,
}

/// The diagnostic counter with the largest value in a measurement, if any
/// diagnostic counter is non-zero.
pub(crate) fn dominant_diag_counter(
    measurement: &collie_rnic::subsystem::Measurement,
) -> Option<&str> {
    measurement
        .counters
        .iter()
        .filter(|(_, kind, value)| {
            *kind == collie_sim::counters::CounterKind::Diagnostic && *value > 0.0
        })
        .max_by(|a, b| a.2.partial_cmp(&b.2).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(name, _, _)| name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::WorkloadEngine;
    use crate::eval::Evaluator;
    use crate::monitor::AnomalyMonitor;
    use crate::search::kernel::{ExtractionParts, MfsExtractor};
    use crate::search::{SignalMode, WorkloadDomain};
    use crate::space::SearchSpace;
    use collie_rnic::subsystems::SubsystemId;
    use collie_rnic::workload::{Opcode, Transport};
    use collie_sim::time::SimDuration;

    fn anomaly_1_point() -> SearchPoint {
        let mut p = SearchPoint::benign();
        p.transport = Transport::Ud;
        p.opcode = Opcode::Send;
        p.num_qps = 1;
        p.wqe_batch = 64;
        p.recv_queue_depth = 256;
        p.send_queue_depth = 256;
        p.mtu = 2048;
        p.messages = vec![2048];
        p
    }

    fn extract_for(point: &SearchPoint) -> ExtractionParts<Mfs> {
        let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
        let monitor = AnomalyMonitor::new();
        let space = SearchSpace::for_host(&SubsystemId::F.host());
        let mut evaluator = Evaluator::new(&mut engine);
        let symptom = {
            let (_, verdict) = evaluator.measure_and_assess(&monitor, point);
            verdict.symptom.expect("point must be anomalous")
        };
        let mut domain =
            WorkloadDomain::new(&mut evaluator, &monitor, &space, SignalMode::Diagnostic);
        MfsExtractor::new(&mut domain).extract(point, &symptom)
    }

    #[test]
    fn mfs_of_anomaly_1_contains_its_documented_conditions() {
        let outcome = extract_for(&anomaly_1_point());
        let mfs = &outcome.mfs;
        assert_eq!(mfs.symptom, Symptom::PauseStorm);
        // Transport (UD SEND) is necessary.
        assert!(
            matches!(
                mfs.conditions.get(&Feature::Transport),
                Some(FeatureCondition::Equals(_))
            ),
            "{}",
            mfs.describe()
        );
        // Large WQE batch is necessary (at-least condition).
        assert!(
            matches!(
                mfs.conditions.get(&Feature::WqeBatch),
                Some(FeatureCondition::AtLeast(t)) if *t <= 64
            ),
            "{}",
            mfs.describe()
        );
        // Long receive queue is necessary.
        assert!(
            matches!(
                mfs.conditions.get(&Feature::RecvQueueDepth),
                Some(FeatureCondition::AtLeast(t)) if *t <= 256
            ),
            "{}",
            mfs.describe()
        );
        // Irrelevant features are excluded.
        assert!(!mfs.conditions.contains_key(&Feature::MrSize));
        assert!(!mfs.conditions.contains_key(&Feature::SrcMemory));
        assert!(outcome.experiments > 0);
        assert!(outcome.elapsed > SimDuration::ZERO);
    }

    #[test]
    fn the_anomalous_point_matches_its_own_mfs() {
        let point = anomaly_1_point();
        let outcome = extract_for(&point);
        assert!(outcome.mfs.matches(&point));
        assert!(!outcome.mfs.is_empty());
    }

    #[test]
    fn breaking_a_necessary_condition_stops_matching() {
        let point = anomaly_1_point();
        let outcome = extract_for(&point);
        let mut broken = point.clone();
        broken.wqe_batch = 1;
        assert!(!outcome.mfs.matches(&broken));
        let mut rc = point.clone();
        rc.transport = Transport::Rc;
        rc.opcode = Opcode::Send;
        assert!(!outcome.mfs.matches(&rc));
    }

    #[test]
    fn mfs_matching_generalises_beyond_the_example() {
        let point = anomaly_1_point();
        let outcome = extract_for(&point);
        // A harsher version of the same anomaly (bigger batch, deeper WQ)
        // still matches, so the search will not waste time on it.
        let mut harsher = point.clone();
        harsher.wqe_batch = 128;
        harsher.recv_queue_depth = 1024;
        assert!(outcome.mfs.matches(&harsher), "{}", outcome.mfs.describe());
    }

    #[test]
    fn describe_lists_conditions() {
        let outcome = extract_for(&anomaly_1_point());
        let text = outcome.mfs.describe();
        assert!(text.contains("pause frame"));
        assert!(text.contains("WQE batch"));
    }

    #[test]
    fn probes_that_trip_a_different_bottleneck_do_not_erase_conditions() {
        // A workload that triggers the UD receive-WQE anomaly (#1) while
        // also being bidirectional on a strict-ordering host could, when
        // the transport is swapped to RC, still pause because of an
        // unrelated host-side bottleneck. The counter-signature probe keeps
        // the transport in the MFS anyway.
        let mut point = anomaly_1_point();
        point.bidirectional = true;
        point.sge_per_wqe = 3;
        point.messages = vec![128, 64 * 1024, 2048];
        let outcome = extract_for(&point);
        assert!(
            !outcome.mfs.is_empty(),
            "compound workload still yields a usable MFS: {}",
            outcome.mfs.describe()
        );
    }

    #[test]
    fn dominant_counter_identifies_the_stressed_resource() {
        let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
        let measurement = engine.measure(&anomaly_1_point());
        assert_eq!(
            super::dominant_diag_counter(&measurement),
            Some(collie_rnic::counters::diag::RECV_WQE_CACHE_MISS)
        );
        // A benign workload keeps diagnostic counters near zero; whatever
        // the dominant one is, the anomaly-1 signature differs from it.
        let benign = engine.measure(&SearchPoint::benign());
        assert_ne!(
            super::dominant_diag_counter(&benign),
            Some(collie_rnic::counters::diag::RECV_WQE_CACHE_MISS)
        );
    }
}
