//! Property-based tests for the generic MFS extractor
//! (`collie_core::search::kernel::MfsExtractor`), exercised over both
//! domains: the two-host `search::WorkloadDomain` and the fabric
//! `fabric::FabricDomain`.
//!
//! Sampled anomalous points are extracted and three invariants asserted:
//!
//! 1. the MFS always matches the anomalous point it was extracted from;
//! 2. a point that fails one of the MFS's necessary conditions never
//!    matches it (conditions are falsifiable, not vacuous);
//! 3. the MFS is never empty when the anomaly has at least one
//!    *distinguishing feature* — a feature for which every value the
//!    extractor would probe (the first two alternatives of a categorical
//!    feature, the ladder ends of a numeric one) changes the observed
//!    symptom. Such a feature must end up as a necessary condition.
//!
//! Seeds come from the PROPTEST_SEED-pinned proptest driver, so a red CI
//! run reproduces locally with the same one-liner.

use collie::core::fabric::{assess_fabric, FabricDomain, FabricEngine, FabricEvaluator, FabricMfs};
use collie::core::search::kernel::{ExtractionParts, MfsExtractor};
use collie::core::search::WorkloadDomain;
use collie::core::space::{Feature, FeatureValue};
use collie::prelude::*;
use collie::sim::rng::SimRng;
use collie_core::eval::Evaluator;
use collie_core::monitor::FeatureCondition;
use proptest::prelude::*;

fn space_f() -> SearchSpace {
    SearchSpace::for_host(&SubsystemId::F.host())
}

fn fabric_space_f() -> FabricSpace {
    FabricSpace::for_host(&SubsystemId::F.host())
}

/// A value of `feature` that violates `condition`, if the space offers one.
fn violating_value(
    alternatives: &[FeatureValue],
    condition: &FeatureCondition,
) -> Option<FeatureValue> {
    alternatives
        .iter()
        .find(|value| !condition.admits(value))
        .cloned()
}

/// True if every probe the extractor would run against `feature` changes
/// the symptom away from `symptom` (see module docs): the feature is
/// observably distinguishing within the extractor's probe budget.
fn two_host_distinguishing(
    engine: &mut WorkloadEngine,
    monitor: &AnomalyMonitor,
    point: &SearchPoint,
    symptom: Symptom,
    feature: Feature,
) -> bool {
    let space = space_f();
    let alternatives = space.alternatives(point, feature);
    if alternatives.is_empty() {
        return false;
    }
    let probed: Vec<FeatureValue> = match point.feature_value(feature) {
        FeatureValue::Number(current) => {
            let rungs: Vec<u64> = alternatives
                .iter()
                .filter_map(|v| match v {
                    FeatureValue::Number(n) => Some(*n),
                    _ => None,
                })
                .collect();
            if rungs.is_empty() {
                return false;
            }
            let lowest = *rungs.iter().min().unwrap();
            let highest = *rungs.iter().max().unwrap();
            [lowest.min(current), highest.max(current)]
                .into_iter()
                .filter(|&v| v != current)
                .map(FeatureValue::Number)
                .collect()
        }
        _ => alternatives.into_iter().take(2).collect(),
    };
    if probed.is_empty() {
        return false;
    }
    probed.iter().all(|value| {
        let mut probe = point.clone();
        probe.apply(feature, value);
        let (_, verdict) = monitor.measure_and_assess(engine, &probe);
        verdict.symptom != Some(symptom)
    })
}

fn extract_two_host(point: &SearchPoint) -> Option<(ExtractionParts<Mfs>, Symptom)> {
    let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
    let monitor = AnomalyMonitor::new();
    let space = space_f();
    let mut evaluator = Evaluator::new(&mut engine);
    let symptom = evaluator.measure_and_assess(&monitor, point).1.symptom?;
    let mut domain = WorkloadDomain::new(&mut evaluator, &monitor, &space, SignalMode::Diagnostic);
    Some((
        MfsExtractor::new(&mut domain).extract(point, &symptom),
        symptom,
    ))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48 })]

    #[test]
    fn two_host_mfs_contains_its_origin_and_rejects_condition_breakers(seed in any::<u64>()) {
        let space = space_f();
        let mut rng = SimRng::new(seed);
        let point = space.random_point(&mut rng);
        let Some((outcome, _)) = extract_two_host(&point) else {
            // Benign sample: nothing to extract. The anomaly density of the
            // space keeps enough cases meaningful (see the coverage test
            // below).
            return Ok(());
        };
        let mfs = &outcome.mfs;

        // Invariant 1: the originating anomaly point always matches.
        prop_assert!(mfs.matches(&point), "{} does not cover {point}", mfs.describe());

        // Invariant 2: breaking any necessary condition stops the match.
        for (feature, condition) in &mfs.conditions {
            let alternatives = space.alternatives(&point, *feature);
            if let Some(value) = violating_value(&alternatives, condition) {
                let mut broken = point.clone();
                broken.apply(*feature, &value);
                prop_assert!(
                    !mfs.matches(&broken),
                    "{} still matches after breaking {feature} with {value}",
                    mfs.describe()
                );
            }
        }
        prop_assert!(outcome.experiments > 0);
    }

    #[test]
    fn two_host_mfs_is_nonempty_when_a_distinguishing_feature_exists(seed in any::<u64>()) {
        let space = space_f();
        let mut rng = SimRng::new(seed);
        let point = space.random_point(&mut rng);
        let Some((outcome, symptom)) = extract_two_host(&point) else {
            return Ok(());
        };
        if outcome.mfs.is_empty() {
            // An empty MFS claims no feature is necessary; then no feature
            // may be distinguishing within the extractor's probe budget.
            let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
            let monitor = AnomalyMonitor::new();
            for feature in Feature::ALL {
                prop_assert!(
                    !two_host_distinguishing(&mut engine, &monitor, &point, symptom, feature),
                    "empty MFS but {feature} is distinguishing for {point}"
                );
            }
        }
    }

    #[test]
    fn fabric_mfs_contains_its_origin_and_rejects_condition_breakers(seed in any::<u64>()) {
        let space = fabric_space_f();
        let mut rng = SimRng::new(seed);
        let point = space.random_point(&mut rng);
        let mut engine = FabricEngine::for_catalog(SubsystemId::F);
        let monitor = AnomalyMonitor::new();
        let verdict = assess_fabric(&monitor, &engine.measure(&point));
        let Some(symptom) = verdict.symptom else {
            return Ok(());
        };
        let mut evaluator = FabricEvaluator::new(&mut engine);
        let mut domain = FabricDomain::new(&mut evaluator, &monitor, &space, SignalMode::Diagnostic);
        let outcome = MfsExtractor::new(&mut domain).extract(&point, &(symptom, verdict.cross_host));
        let mfs: &FabricMfs = &outcome.mfs;

        prop_assert!(mfs.matches(&point), "{} does not cover {point}", mfs.describe());
        prop_assert_eq!(mfs.symptom, symptom);
        prop_assert_eq!(mfs.cross_host, verdict.cross_host);

        for (feature, condition) in &mfs.conditions {
            let alternatives = space.alternatives(&point, *feature);
            if let Some(value) = violating_value(&alternatives, condition) {
                let mut broken = point.clone();
                broken.apply(*feature, &value);
                prop_assert!(
                    !mfs.matches(&broken),
                    "{} still matches after breaking {feature} with {value}",
                    mfs.describe()
                );
            }
        }
    }
}

#[test]
fn sampled_spaces_offer_enough_anomalous_points_for_the_properties() {
    // The proptest cases above skip benign samples; this guards against the
    // properties silently running on (almost) nothing if the space or the
    // engine drifts towards benignity.
    let space = space_f();
    let anomalous = (0..48)
        .filter(|&seed| {
            let mut rng = SimRng::new(seed);
            extract_two_host(&space.random_point(&mut rng)).is_some()
        })
        .count();
    assert!(
        anomalous >= 8,
        "only {anomalous}/48 sampled two-host points are anomalous"
    );

    let fabric_space = fabric_space_f();
    let mut engine = FabricEngine::for_catalog(SubsystemId::F);
    let monitor = AnomalyMonitor::new();
    let fabric_anomalous = (0..48)
        .filter(|&seed| {
            let mut rng = SimRng::new(seed);
            let point = fabric_space.random_point(&mut rng);
            assess_fabric(&monitor, &engine.measure(&point)).is_anomalous()
        })
        .count();
    assert!(
        fabric_anomalous >= 8,
        "only {fabric_anomalous}/48 sampled fabric points are anomalous"
    );

    // And at least one sampled extraction carries conditions, so the
    // condition-breaking half of the properties is exercised.
    let with_conditions = (0..48)
        .filter(|&seed| {
            let mut rng = SimRng::new(seed);
            extract_two_host(&space.random_point(&mut rng))
                .map(|(o, _)| !o.mfs.is_empty())
                .unwrap_or(false)
        })
        .count();
    assert!(
        with_conditions >= 4,
        "only {with_conditions} non-empty MFSes"
    );
}
