//! The fabric search space: the two-host workload space extended with a
//! fifth dimension.
//!
//! A [`FabricPoint`] is an ordinary [`SearchPoint`] (the culprit's
//! workload, four dimensions) plus the fabric coordinates the multi-host
//! campaigns explore: how many hosts share the switch, how many of them
//! gang up on the culprit (incast degree), and what the surrounding
//! traffic matrix looks like. [`FabricFeature`] names every coordinate —
//! workload and fabric alike — so the fabric MFS extractor can reason
//! about necessity uniformly across both layers.

use super::{ladder_alternatives, Dimension, Feature, FeatureValue, SearchPoint, SearchSpace};
use collie_host::topology::HostConfig;
use collie_rnic::fabric::{FabricShape, TrafficPattern};
use collie_sim::rng::SimRng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One coordinate of the fabric search space: a workload feature of the
/// culprit's point, or one of the three fabric dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FabricFeature {
    /// A feature of the culprit's workload point.
    Workload(Feature),
    /// Number of hosts attached to the switch.
    HostCount,
    /// Number of senders directing the workload at the culprit.
    IncastDegree,
    /// The traffic-matrix shape around the culprit flow.
    TrafficShape,
}

impl FabricFeature {
    /// Every fabric-space feature, workload features first, in a stable
    /// order.
    pub fn all() -> Vec<FabricFeature> {
        Feature::ALL
            .into_iter()
            .map(FabricFeature::Workload)
            .chain([
                FabricFeature::HostCount,
                FabricFeature::IncastDegree,
                FabricFeature::TrafficShape,
            ])
            .collect()
    }

    /// The search dimension this feature belongs to.
    pub fn dimension(self) -> Dimension {
        match self {
            FabricFeature::Workload(f) => f.dimension(),
            _ => Dimension::Fabric,
        }
    }
}

impl fmt::Display for FabricFeature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricFeature::Workload(feature) => write!(f, "{feature}"),
            FabricFeature::HostCount => write!(f, "host count"),
            FabricFeature::IncastDegree => write!(f, "incast degree"),
            FabricFeature::TrafficShape => write!(f, "traffic shape"),
        }
    }
}

/// A complete multi-host experiment description: the culprit's workload
/// plus the fabric shape it runs inside.
///
/// Like [`SearchPoint`], fabric points are plain value types
/// (`Eq + Hash`), which is what lets the fabric evaluator memoize whole
/// fabric measurements keyed by the canonical point.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FabricPoint {
    /// The culprit's workload (the paper's four dimensions).
    pub workload: SearchPoint,
    /// Dimension 5: hosts attached to the switch.
    pub host_count: u32,
    /// Dimension 5: senders directing the workload at the culprit.
    pub incast_degree: u32,
    /// Dimension 5: traffic-matrix shape.
    pub pattern: TrafficPattern,
}

impl FabricPoint {
    /// A benign point on a small fabric — the neutral starting point.
    pub fn benign() -> FabricPoint {
        FabricPoint {
            workload: SearchPoint::benign(),
            host_count: 3,
            incast_degree: 1,
            pattern: TrafficPattern::Incast,
        }
    }

    /// Wrap a two-host point in the degenerate fabric shape (the paper's
    /// testbed).
    pub fn two_host(workload: SearchPoint) -> FabricPoint {
        let shape = FabricShape::two_host();
        FabricPoint {
            workload,
            host_count: shape.host_count,
            incast_degree: shape.incast_degree,
            pattern: shape.pattern,
        }
    }

    /// The fabric coordinates as a shape (normalization happens at
    /// evaluation time; see [`FabricShape::normalized`]).
    pub fn shape(&self) -> FabricShape {
        FabricShape {
            host_count: self.host_count,
            incast_degree: self.incast_degree,
            pattern: self.pattern,
        }
    }

    /// Read the current value of one feature.
    pub fn feature_value(&self, feature: FabricFeature) -> FeatureValue {
        match feature {
            FabricFeature::Workload(f) => self.workload.feature_value(f),
            FabricFeature::HostCount => FeatureValue::Number(self.host_count as u64),
            FabricFeature::IncastDegree => FeatureValue::Number(self.incast_degree as u64),
            FabricFeature::TrafficShape => FeatureValue::Traffic(self.pattern),
        }
    }

    /// Overwrite one feature with a concrete value (used by fabric MFS
    /// probing). Values of the wrong kind are ignored.
    pub fn apply(&mut self, feature: FabricFeature, value: &FeatureValue) {
        match (feature, value) {
            (FabricFeature::Workload(f), v) => self.workload.apply(f, v),
            (FabricFeature::HostCount, FeatureValue::Number(n)) => self.host_count = *n as u32,
            (FabricFeature::IncastDegree, FeatureValue::Number(n)) => {
                self.incast_degree = *n as u32
            }
            (FabricFeature::TrafficShape, FeatureValue::Traffic(p)) => self.pattern = *p,
            _ => {}
        }
    }

    /// Structural validity: the workload is well-formed and the fabric
    /// coordinates are positive (their upper bounds are enforced by
    /// normalization at evaluation time).
    pub fn is_well_formed(&self, space: &FabricSpace) -> bool {
        self.workload.is_well_formed(&space.workload)
            && self.host_count >= 2
            && self.incast_degree >= 1
    }
}

impl fmt::Display for FabricPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} | fabric: {} hosts, incast {}, {}",
            self.workload, self.host_count, self.incast_degree, self.pattern
        )
    }
}

/// The bounded fabric search space: the workload space plus ladders for
/// the fabric coordinates.
#[derive(Debug, Clone)]
pub struct FabricSpace {
    /// The culprit-workload space (Dimensions 1–4).
    pub workload: SearchSpace,
    /// Candidate host counts. Includes the two-host rung so MFS probing
    /// can discover that an anomaly *needs* a third host (the cross-host
    /// signature).
    pub host_counts: Vec<u32>,
    /// Candidate incast degrees (clamped to `host_count - 1` at
    /// evaluation time).
    pub incast_degrees: Vec<u32>,
    /// Candidate traffic-matrix shapes.
    pub patterns: Vec<TrafficPattern>,
}

impl FabricSpace {
    /// The fabric space for a homogeneous fleet of hosts like `host`.
    pub fn for_host(host: &HostConfig) -> FabricSpace {
        FabricSpace {
            workload: SearchSpace::for_host(host),
            host_counts: vec![2, 3, 4, 6, 8],
            incast_degrees: vec![1, 2, 3, 4, 6],
            patterns: TrafficPattern::ALL.to_vec(),
        }
    }

    /// Draw a uniform random fabric point.
    pub fn random_point(&self, rng: &mut SimRng) -> FabricPoint {
        FabricPoint {
            workload: self.workload.random_point(rng),
            host_count: *rng.choose(&self.host_counts),
            incast_degree: *rng.choose(&self.incast_degrees),
            pattern: *rng.choose(&self.patterns),
        }
    }

    /// Mutate one randomly chosen coordinate, staying inside the space.
    /// Workload coordinates delegate to [`SearchSpace::mutate`] (one of
    /// the 15 workload features); fabric coordinates step their ladders.
    pub fn mutate(&self, point: &FabricPoint, rng: &mut SimRng) -> FabricPoint {
        let mut next = point.clone();
        let workload_features = Feature::ALL.len();
        match rng.gen_index(workload_features + 3) {
            i if i < workload_features => {
                next.workload = self.workload.mutate(&point.workload, rng);
            }
            i if i == workload_features => {
                next.host_count = super::ladder::step(&self.host_counts, point.host_count, rng);
            }
            i if i == workload_features + 1 => {
                next.incast_degree =
                    super::ladder::step(&self.incast_degrees, point.incast_degree, rng);
            }
            _ => {
                let others: Vec<TrafficPattern> = self
                    .patterns
                    .iter()
                    .copied()
                    .filter(|p| *p != point.pattern)
                    .collect();
                if !others.is_empty() {
                    next.pattern = *rng.choose(&others);
                }
            }
        }
        next
    }

    /// Candidate alternative values for one feature (fabric MFS probing).
    pub fn alternatives(&self, point: &FabricPoint, feature: FabricFeature) -> Vec<FeatureValue> {
        match feature {
            FabricFeature::Workload(f) => self.workload.alternatives(&point.workload, f),
            FabricFeature::HostCount => ladder_alternatives(&self.host_counts, point.host_count),
            FabricFeature::IncastDegree => {
                ladder_alternatives(&self.incast_degrees, point.incast_degree)
            }
            FabricFeature::TrafficShape => self
                .patterns
                .iter()
                .copied()
                .filter(|p| *p != point.pattern)
                .map(FeatureValue::Traffic)
                .collect(),
        }
    }

    /// Size of the discretised fabric space the mutation operators explore.
    pub fn effective_cardinality(&self) -> f64 {
        self.workload.effective_cardinality()
            * self.host_counts.len() as f64
            * self.incast_degrees.len() as f64
            * self.patterns.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collie_host::presets;
    use collie_sim::units::ByteSize;

    fn space() -> FabricSpace {
        let host = presets::intel_xeon_gpu_host("t", ByteSize::from_gib(2048), true);
        FabricSpace::for_host(&host)
    }

    #[test]
    fn mutating_an_empty_message_pattern_never_panics() {
        let s = space();
        let mut appended = 0;
        for seed in 0..200 {
            let mut rng = SimRng::new(seed);
            let mut p = s.random_point(&mut rng);
            p.workload.messages.clear();
            let q = s.mutate(&p, &mut rng);
            if !q.workload.messages.is_empty() {
                appended += 1;
            }
        }
        assert!(appended > 0);
    }

    #[test]
    fn all_features_cover_workload_and_fabric() {
        let all = FabricFeature::all();
        assert_eq!(all.len(), Feature::ALL.len() + 3);
        assert!(all.contains(&FabricFeature::HostCount));
        assert_eq!(FabricFeature::HostCount.dimension(), Dimension::Fabric);
        assert_eq!(
            FabricFeature::Workload(Feature::NumQps).dimension(),
            Feature::NumQps.dimension()
        );
    }

    #[test]
    fn feature_value_roundtrip_through_apply() {
        let s = space();
        let mut rng = SimRng::new(2);
        let a = s.random_point(&mut rng);
        let mut b = FabricPoint::benign();
        for f in FabricFeature::all() {
            b.apply(f, &a.feature_value(f));
        }
        assert_eq!(a, b, "applying every feature value reproduces the point");
    }

    #[test]
    fn apply_ignores_mismatched_value_kinds() {
        let mut p = FabricPoint::benign();
        let before = p.clone();
        p.apply(FabricFeature::HostCount, &FeatureValue::Flag(true));
        p.apply(FabricFeature::TrafficShape, &FeatureValue::Number(3));
        assert_eq!(p, before);
    }

    #[test]
    fn random_points_are_valid_and_cover_the_fabric_dims() {
        let s = space();
        let mut rng = SimRng::new(1);
        let mut hosts = std::collections::HashSet::new();
        let mut patterns = std::collections::HashSet::new();
        for _ in 0..200 {
            let p = s.random_point(&mut rng);
            assert!(p.is_well_formed(&s), "{p}");
            hosts.insert(p.host_count);
            patterns.insert(p.pattern);
        }
        assert!(hosts.len() >= 4, "sampling should cover host counts");
        assert_eq!(patterns.len(), 3, "sampling should cover patterns");
    }

    #[test]
    fn mutation_changes_at_most_one_dimension_family() {
        let s = space();
        let mut rng = SimRng::new(7);
        let base = s.random_point(&mut rng);
        for _ in 0..200 {
            let next = s.mutate(&base, &mut rng);
            assert!(next.is_well_formed(&s));
            let differing = FabricFeature::all()
                .iter()
                .filter(|f| base.feature_value(**f) != next.feature_value(**f))
                .count();
            // Transport mutations may change the opcode too; everything
            // else changes a single coordinate.
            assert!(differing <= 2, "mutation changed {differing} features");
        }
    }

    #[test]
    fn mutation_reaches_the_fabric_dims() {
        let s = space();
        let mut rng = SimRng::new(11);
        let base = s.random_point(&mut rng);
        let mut fabric_mutations = 0;
        for _ in 0..300 {
            let next = s.mutate(&base, &mut rng);
            if next.shape() != base.shape() {
                fabric_mutations += 1;
            }
        }
        assert!(
            fabric_mutations > 10,
            "fabric dims should be mutated regularly ({fabric_mutations}/300)"
        );
    }

    #[test]
    fn alternatives_exclude_current_value() {
        let s = space();
        let mut rng = SimRng::new(3);
        let p = s.random_point(&mut rng);
        for f in FabricFeature::all() {
            for alt in s.alternatives(&p, f) {
                let mut probe = p.clone();
                probe.apply(f, &alt);
                assert_ne!(
                    probe.feature_value(f),
                    p.feature_value(f),
                    "alternative for {f} did not change the point"
                );
            }
        }
        // The fabric ladders actually offer alternatives.
        assert!(!s.alternatives(&p, FabricFeature::HostCount).is_empty());
        assert_eq!(s.alternatives(&p, FabricFeature::TrafficShape).len(), 2);
    }

    #[test]
    fn fabric_cardinality_dominates_the_workload_space() {
        let s = space();
        assert_eq!(
            s.effective_cardinality(),
            s.workload.effective_cardinality() * (5 * 5 * 3) as f64
        );
    }

    #[test]
    fn display_mentions_the_fabric_coordinates() {
        let p = FabricPoint::benign();
        let text = p.to_string();
        assert!(text.contains("3 hosts"), "{text}");
        assert!(text.contains("incast 1"), "{text}");
    }
}
