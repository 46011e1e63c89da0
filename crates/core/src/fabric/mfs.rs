//! Minimal feature sets over the fabric space.
//!
//! The generic extractor
//! ([`kernel::MfsExtractor`](crate::search::kernel::MfsExtractor)) bound to
//! a [`FabricDomain`](super::FabricDomain) probes every
//! [`FabricFeature`] — the culprit workload's fifteen features *and* the
//! three fabric dimensions — for necessity, so a cross-host MFS can state
//! conditions like "at least 3 hosts" or "incast degree at least 2"
//! alongside the usual transport conditions.
//!
//! A probe "reproduces" the anomaly when it shows the same observable
//! identity: the same end-to-end symptom *and* the same cross-host
//! classification. Requiring the classification to match keeps a genuine
//! victim-collapse anomaly from being blurred into the (operationally very
//! different) self-evident local storm when a probe merely pushes the
//! culprit over its own throughput threshold.

use super::FabricVerdict;
use crate::monitor::{FeatureCondition, Symptom};
use crate::space::{FabricFeature, FabricPoint};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A fabric minimal feature set: the necessary conditions to reproduce one
/// cross-host anomaly, plus an example fabric point that does.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FabricMfs {
    /// The end-to-end symptom.
    pub symptom: Symptom,
    /// Whether the anomaly carries the cross-host hallmark (victim
    /// collapsed, culprit healthy).
    pub cross_host: bool,
    /// The necessary conditions, keyed by fabric feature.
    pub conditions: BTreeMap<FabricFeature, FeatureCondition>,
    /// A concrete fabric point that reproduces the anomaly.
    pub example: FabricPoint,
}

impl FabricMfs {
    /// True if `point` satisfies every condition of this MFS.
    pub fn matches(&self, point: &FabricPoint) -> bool {
        self.conditions
            .iter()
            .all(|(feature, condition)| condition.admits(&point.feature_value(*feature)))
    }

    /// Human-readable condition list.
    pub fn describe(&self) -> String {
        let mut lines: Vec<String> = self
            .conditions
            .iter()
            .map(|(f, c)| format!("{f} {c}"))
            .collect();
        lines.sort();
        let hallmark = if self.cross_host { ", cross-host" } else { "" };
        format!("[{}{hallmark}] {}", self.symptom, lines.join("; "))
    }

    /// Number of necessary conditions.
    pub fn len(&self) -> usize {
        self.conditions.len()
    }

    /// True if no condition was found necessary (kept total for
    /// robustness; empty MFSes never participate in campaign dedup).
    pub fn is_empty(&self) -> bool {
        self.conditions.is_empty()
    }
}

/// The observable identity probes are compared against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricSignature {
    pub(crate) symptom: Symptom,
    pub(crate) cross_host: bool,
}

impl FabricSignature {
    pub(crate) fn matches(self, verdict: &FabricVerdict) -> bool {
        verdict.symptom == Some(self.symptom) && verdict.cross_host == self.cross_host
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{cross_host_culprit, storming_culprit};
    use super::*;
    use crate::fabric::{assess_fabric, FabricDomain, FabricEngine, FabricEvaluator};
    use crate::monitor::AnomalyMonitor;
    use crate::search::kernel::{ExtractionParts, MfsExtractor};
    use crate::search::SignalMode;
    use crate::space::FabricSpace;
    use collie_rnic::subsystems::SubsystemId;
    use collie_sim::time::SimDuration;

    fn extract_for(point: &FabricPoint) -> ExtractionParts<FabricMfs> {
        let mut engine = FabricEngine::for_catalog(SubsystemId::F);
        let monitor = AnomalyMonitor::new();
        let space = FabricSpace::for_host(&SubsystemId::F.host());
        let mut evaluator = FabricEvaluator::new(&mut engine);
        let (_, verdict) = evaluator.measure_and_assess(&monitor, point);
        let symptom = verdict.symptom.expect("point must be anomalous");
        let mut domain =
            FabricDomain::new(&mut evaluator, &monitor, &space, SignalMode::Diagnostic);
        MfsExtractor::new(&mut domain).extract(point, &(symptom, verdict.cross_host))
    }

    #[test]
    fn cross_host_mfs_contains_fabric_conditions() {
        let point = cross_host_culprit();
        let outcome = extract_for(&point);
        let mfs = &outcome.mfs;
        assert!(mfs.cross_host);
        assert!(mfs.matches(&point), "{}", mfs.describe());
        // The cross-host hallmark needs a victim, hence a third host.
        assert!(
            matches!(
                mfs.conditions.get(&FabricFeature::HostCount),
                Some(FeatureCondition::AtLeast(t)) if *t >= 3
            ),
            "{}",
            mfs.describe()
        );
        // Dropping to the two-host testbed breaks the match.
        let mut two_host = point.clone();
        two_host.host_count = 2;
        assert!(!mfs.matches(&two_host));
        assert!(outcome.experiments > 0);
        assert!(outcome.elapsed > SimDuration::ZERO);
    }

    #[test]
    fn local_storm_mfs_keeps_its_workload_conditions() {
        let point = storming_culprit();
        let outcome = extract_for(&point);
        let mfs = &outcome.mfs;
        assert!(!mfs.cross_host);
        assert!(mfs.matches(&point), "{}", mfs.describe());
        assert!(!mfs.is_empty());
        // The local anomaly does not depend on the traffic shape staying
        // fixed — only on a victim existing — so the describe string names
        // at least one workload-side condition too.
        assert!(
            mfs.conditions
                .keys()
                .any(|f| matches!(f, FabricFeature::Workload(_))),
            "{}",
            mfs.describe()
        );
    }

    #[test]
    fn paired_probe_breaks_reproduction_so_shape_can_be_necessary() {
        // The paired pattern isolates the storm; if both alternative shapes
        // fail to reproduce, the extractor keeps the shape condition.
        let point = cross_host_culprit();
        let outcome = extract_for(&point);
        let mut paired = point.clone();
        paired.pattern = collie_rnic::fabric::TrafficPattern::Paired;
        let mut engine = FabricEngine::for_catalog(SubsystemId::F);
        let monitor = AnomalyMonitor::new();
        let verdict = assess_fabric(&monitor, &engine.measure(&paired));
        assert!(!verdict.cross_host);
        // Whether or not the shape ends up in the conditions (ring and
        // incast both reproduce), the extracted MFS must reject the paired
        // variant if it lists the shape, and must still match the example.
        assert!(outcome.mfs.matches(&point));
    }
}
