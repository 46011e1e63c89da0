//! Property-based integration tests on cross-crate invariants.
//!
//! Rather than checking specific workloads, these tests sample the search
//! space the way a campaign would and assert the invariants every layer of
//! the stack promises:
//!
//! * measurements never exceed the RNIC specification (line rate / packet
//!   rate), pause ratios are valid fractions, and counters are
//!   non-negative;
//! * the simulator is deterministic: the same point measures identically;
//! * space sampling and mutation always produce well-formed points, and
//!   restrictions are never violated;
//! * an extracted MFS always matches the point it was extracted from, and
//!   breaking one of its numeric conditions stops the match;
//! * the anomaly verdict is consistent with its own thresholds.

use collie::prelude::*;
use collie::sim::rng::SimRng;
use proptest::prelude::*;

fn space_f() -> SearchSpace {
    SearchSpace::for_host(&SubsystemId::F.host())
}

/// Sample a search point from an arbitrary seed, exactly as a campaign
/// would draw it.
fn point_from_seed(seed: u64) -> SearchPoint {
    let mut rng = SimRng::new(seed);
    space_f().random_point(&mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    #[test]
    fn sampled_points_are_well_formed_and_mutation_preserves_validity(seed in any::<u64>()) {
        let space = space_f();
        let mut rng = SimRng::new(seed);
        let point = space.random_point(&mut rng);
        prop_assert!(point.is_well_formed(&space));
        let mut current = point;
        for _ in 0..16 {
            current = space.mutate(&current, &mut rng);
            prop_assert!(current.is_well_formed(&space), "mutation broke the point: {current}");
        }
    }

    #[test]
    fn measurements_respect_the_rnic_specification(seed in any::<u64>()) {
        let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
        let point = point_from_seed(seed);
        let measurement = engine.measure(&point);
        let spec = &engine.subsystem().rnic;

        // Pause ratios are valid fractions.
        prop_assert!((0.0..=1.0).contains(&measurement.max_pause_ratio()));

        // No direction exceeds the line rate or the packet-rate budget by
        // more than rounding noise.
        for dir in &measurement.directions {
            prop_assert!(
                dir.throughput.gbps() <= spec.line_rate.gbps() * 1.001,
                "{}: {} exceeds line rate",
                dir.direction,
                dir.throughput
            );
            prop_assert!(
                dir.packet_rate.mpps() <= spec.max_packet_rate.mpps() * 1.001,
                "{}: {} exceeds the packet-rate budget",
                dir.direction,
                dir.packet_rate
            );
            prop_assert!(dir.throughput.gbps() <= dir.offered.gbps() * 1.001);
        }

        // Counters are non-negative and the snapshot covers all 13 names.
        prop_assert_eq!(measurement.counters.iter().count(), 13);
        prop_assert!(measurement.counters.iter().all(|(_, _, v)| v >= 0.0));
    }

    #[test]
    fn measurement_is_deterministic(seed in any::<u64>()) {
        let point = point_from_seed(seed);
        let mut engine_a = WorkloadEngine::for_catalog(SubsystemId::F);
        let mut engine_b = WorkloadEngine::for_catalog(SubsystemId::F);
        let a = engine_a.measure(&point);
        let b = engine_b.measure(&point);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn verdict_is_consistent_with_thresholds(seed in any::<u64>()) {
        let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
        let monitor = AnomalyMonitor::new();
        let point = point_from_seed(seed);
        let (measurement, verdict) = monitor.measure_and_assess(&mut engine, &point);

        prop_assert_eq!(verdict.pause_ratio, measurement.max_pause_ratio());
        match verdict.symptom {
            Some(Symptom::PauseStorm) => prop_assert!(verdict.pause_ratio > 0.001),
            Some(Symptom::LowThroughput) => {
                prop_assert!(verdict.pause_ratio <= 0.001);
                prop_assert!(verdict.spec_fraction < 0.8);
            }
            None => {
                prop_assert!(verdict.pause_ratio <= 0.001);
                prop_assert!(verdict.spec_fraction >= 0.8);
            }
        }
    }

    #[test]
    fn restrictions_are_never_violated_by_sampling_or_mutation(seed in any::<u64>()) {
        let restriction = SpaceRestriction::rpc_library();
        let space = space_f().restricted(restriction.clone());
        let mut rng = SimRng::new(seed);
        let mut point = space.random_point(&mut rng);
        prop_assert!(restriction.allows(&point));
        for _ in 0..8 {
            point = space.mutate(&point, &mut rng);
            prop_assert!(restriction.allows(&point), "mutation escaped the envelope: {point}");
        }
    }

    #[test]
    fn experiment_cost_stays_in_the_documented_band(seed in any::<u64>()) {
        let point = point_from_seed(seed);
        let cost = WorkloadEngine::experiment_cost(&point).as_secs_f64();
        prop_assert!((20.0..=60.0).contains(&cost), "cost {cost} outside 20–60 s");
    }
}

proptest! {
    // MFS extraction runs dozens of probe experiments per case, so keep the
    // case count lower than the cheap invariants above.
    #![proptest_config(ProptestConfig { cases: 12 })]

    #[test]
    fn extracted_mfs_matches_its_own_example(anomaly_id in 1u32..=18) {
        let anomaly = KnownAnomaly::by_id(anomaly_id).unwrap();
        let mut engine = WorkloadEngine::for_catalog(anomaly.subsystem);
        let monitor = AnomalyMonitor::new();
        let space = SearchSpace::for_host(&anomaly.subsystem.host());

        let (_, verdict) = monitor.measure_and_assess(&mut engine, &anomaly.trigger);
        prop_assert_eq!(verdict.symptom, Some(anomaly.symptom));

        let mut evaluator = collie::core::eval::Evaluator::new(&mut engine);
        let mut domain = collie::core::search::WorkloadDomain::new(
            &mut evaluator,
            &monitor,
            &space,
            SignalMode::Diagnostic,
        );
        let outcome = collie::core::search::kernel::MfsExtractor::new(&mut domain)
            .extract(&anomaly.trigger, &anomaly.symptom);

        // The anomalous point satisfies its own MFS.
        prop_assert!(outcome.mfs.matches(&anomaly.trigger), "{}", outcome.mfs.describe());
        prop_assert_eq!(outcome.mfs.symptom, anomaly.symptom);
        // Extraction charged hardware time for its probes.
        prop_assert!(outcome.experiments > 0);
        prop_assert!(outcome.elapsed.as_secs_f64() >= 20.0 * outcome.experiments as f64 * 0.99);

        // Violating an at-least condition (dropping the feature to far below
        // the threshold) stops the match.
        if let Some((feature, threshold)) = outcome.mfs.conditions.iter().find_map(|(f, c)| {
            match c {
                collie::core::monitor::FeatureCondition::AtLeast(t) if *t > 1 => Some((*f, *t)),
                _ => None,
            }
        }) {
            let mut broken = anomaly.trigger.clone();
            broken.apply(feature, &collie::core::space::FeatureValue::Number(threshold / 2));
            prop_assert!(!outcome.mfs.matches(&broken));
        }
    }
}

/// Draw `n` pause ratios in [0, 1] from one seed (the shim has no float
/// strategies, so ratios are derived from integer draws).
fn ratios_from_seed(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = SimRng::new(seed);
    (0..n).map(|_| rng.gen_f64()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128 })]

    #[test]
    fn pause_combine_is_order_insensitive_and_dominates_every_input(seed in any::<u64>()) {
        use collie::rnic::pfc::PauseAccount;
        let mut rng = SimRng::new(seed);
        let count = (rng.gen_range_u64(1, 7)) as usize;
        let accounts: Vec<PauseAccount> = ratios_from_seed(seed ^ 0x9e37, count)
            .into_iter()
            .map(|pause_ratio| PauseAccount { pause_ratio })
            .collect();
        let combined = PauseAccount::combine(&accounts).pause_ratio;

        // A valid ratio.
        prop_assert!((0.0..=1.0).contains(&combined));
        // Never below the worst single contribution (pause times cannot
        // cancel each other out).
        let max_input = accounts
            .iter()
            .map(|a| a.pause_ratio)
            .fold(0.0, f64::max);
        prop_assert!(
            combined >= max_input - 1e-12,
            "combine({accounts:?}) = {combined} < max input {max_input}"
        );
        // Order-insensitive: reversing (and rotating) the inputs changes
        // nothing beyond floating-point noise.
        let mut reversed = accounts.clone();
        reversed.reverse();
        prop_assert!((PauseAccount::combine(&reversed).pause_ratio - combined).abs() < 1e-12);
        let mut rotated = accounts.clone();
        rotated.rotate_left(count / 2);
        prop_assert!((PauseAccount::combine(&rotated).pause_ratio - combined).abs() < 1e-12);
    }

    #[test]
    fn pause_with_extra_is_monotone_and_stays_a_ratio(seed in any::<u64>()) {
        use collie::rnic::pfc::PauseAccount;
        let draws = ratios_from_seed(seed, 3);
        let base = PauseAccount { pause_ratio: draws[0] };
        let (lo, hi) = if draws[1] <= draws[2] {
            (draws[1], draws[2])
        } else {
            (draws[2], draws[1])
        };
        let with_lo = base.with_extra(lo).pause_ratio;
        let with_hi = base.with_extra(hi).pause_ratio;
        prop_assert!((0.0..=1.0).contains(&with_lo));
        prop_assert!((0.0..=1.0).contains(&with_hi));
        // Monotone in the extra contribution...
        prop_assert!(with_hi >= with_lo - 1e-12, "{with_hi} < {with_lo}");
        // ...and never below the base pause.
        prop_assert!(with_lo >= base.pause_ratio - 1e-12);
        // Zero extra is the identity.
        prop_assert!((base.with_extra(0.0).pause_ratio - base.pause_ratio).abs() < 1e-12);
    }

    #[test]
    fn pause_propagation_amplifies_monotonically_within_bounds(seed in any::<u64>()) {
        use collie::rnic::pfc::PauseAccount;
        let draws = ratios_from_seed(seed, 2);
        let base = PauseAccount { pause_ratio: draws[0] };
        let amp_small = 1.0 + draws[1] * 2.0;
        let amp_large = amp_small + 1.0;
        let relayed = base.propagated(1.0).pause_ratio;
        let small = base.propagated(amp_small).pause_ratio;
        let large = base.propagated(amp_large).pause_ratio;
        // The lossless relay is exact; amplification only ever adds pause,
        // monotonically, and the result remains a valid ratio.
        prop_assert!((relayed - base.pause_ratio).abs() < 1e-12);
        prop_assert!(small >= relayed - 1e-12);
        prop_assert!(large >= small - 1e-12);
        prop_assert!((0.0..=1.0).contains(&large));
    }
}

/// Determinism of a full campaign, stated as a plain test because it is a
/// single (seeded) scenario rather than a sampled property.
#[test]
fn campaign_is_a_pure_function_of_its_seed() {
    let space = space_f();
    let config = SearchConfig::collie(2024).with_budget(SimDuration::from_secs(1800));
    let mut first = WorkloadEngine::for_catalog(SubsystemId::F);
    let mut second = WorkloadEngine::for_catalog(SubsystemId::F);
    let a = collie::core::search::run_search(&mut first, &space, &config);
    let b = collie::core::search::run_search(&mut second, &space, &config);
    assert_eq!(a.experiments, b.experiments);
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(a.discoveries.len(), b.discoveries.len());
    for (x, y) in a.discoveries.iter().zip(b.discoveries.iter()) {
        assert_eq!(x.point, y.point);
        assert_eq!(x.symptom, y.symptom);
        assert_eq!(x.mfs, y.mfs);
    }
}
