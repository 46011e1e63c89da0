//! Property-based integration tests on cross-crate invariants.
//!
//! Rather than checking specific workloads, these tests sample the search
//! space the way a campaign would and assert the invariants every layer of
//! the stack promises:
//!
//! * measurements never exceed the RNIC specification (line rate / packet
//!   rate), pause ratios are valid fractions, and counters are
//!   non-negative;
//! * the simulator is deterministic: the same point measures identically,
//!   and a warm engine walking a mutation chain measures every point
//!   exactly as a fresh engine does;
//! * the memo cache is sound: on a campaign-shaped stream of asks, the
//!   memoizing evaluator answers exactly as the uncached reference does;
//! * the fabric victim gauge is non-increasing in propagated pause, and a
//!   wider incast never lowers the victim's pause;
//! * swapping the two hosts mirrors a measurement exactly;
//! * applying a mitigation twice, to the workload or to the subsystem,
//!   is the same as applying it once;
//! * space sampling and mutation always produce well-formed points, and
//!   restrictions are never violated;
//! * an extracted MFS always matches the point it was extracted from, and
//!   breaking one of its numeric conditions stops the match;
//! * the anomaly verdict is consistent with its own thresholds.

use collie::core::engine::Engine;
use collie::core::eval::Evaluator;
use collie::prelude::*;
use collie::rnic::subsystem::DirectionMetrics;
use collie::sim::rng::SimRng;
use proptest::prelude::*;
use std::fmt::Debug;

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

    /// Mitigation idempotence: qualification applies mitigations
    /// cumulatively, so re-applying one must change nothing.
    #[test]
    fn applying_a_mitigation_twice_equals_applying_it_once(seed in any::<u64>()) {
        let point = point_from_seed(seed);
        for mitigation in Mitigation::ALL {
            let mut once = point.clone();
            mitigation.apply_to_workload(&mut once);
            let mut twice = once.clone();
            mitigation.apply_to_workload(&mut twice);
            prop_assert!(once == twice, "{mitigation:?} twice on {point}: {twice}, once: {once}");

            let mut engine_once = WorkloadEngine::for_catalog(SubsystemId::F);
            let mut engine_twice = WorkloadEngine::for_catalog(SubsystemId::F);
            mitigation.apply_to_subsystem(engine_once.subsystem_mut());
            mitigation.apply_to_subsystem(engine_twice.subsystem_mut());
            mitigation.apply_to_subsystem(engine_twice.subsystem_mut());
            prop_assert!(
                engine_once.measure(&point) == engine_twice.measure(&point),
                "{mitigation:?} applied twice to the subsystem measures {point} differently"
            );
        }
    }
}

/// The same direction seen from the other host. The model has no loopback
/// on host B, so `LoopbackA` has no mirror and maps to itself.
fn mirrored(direction: Direction) -> Direction {
    match direction {
        Direction::AToB => Direction::BToA,
        Direction::BToA => Direction::AToB,
        Direction::LoopbackA => Direction::LoopbackA,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    /// The catalogued subsystems put two identical hosts on either side of
    /// the switch, so mirroring every flow across them must mirror the
    /// measurement exactly: per-host pause ratios swap, each direction's
    /// row moves to the opposite direction unchanged, and the counter
    /// snapshot is equal. Workloads with a loopback flow have no mirror.
    #[test]
    fn swapping_the_hosts_mirrors_the_measurement(seed in any::<u64>()) {
        for id in SubsystemId::ALL {
            let space = SearchSpace::for_host(&id.host());
            let mut engine = WorkloadEngine::for_catalog(id);
            let mut rng = SimRng::new(seed);
            let mut point = space.random_point(&mut rng);
            for step in 0..6 {
                let workload = engine.translate(&point);
                if !workload.flows.iter().any(|flow| flow.direction.is_loopback()) {
                    let mut swapped = workload.clone();
                    for flow in &mut swapped.flows {
                        flow.direction = mirrored(flow.direction);
                    }
                    let original = engine.subsystem_mut().evaluate(&workload);
                    let mirror = engine.subsystem_mut().evaluate(&swapped);
                    prop_assert!(
                        mirror.pause_ratio == [original.pause_ratio[1], original.pause_ratio[0]],
                        "{id} step {step}: pause ratios {:?} did not swap to {:?}",
                        original.pause_ratio,
                        mirror.pause_ratio
                    );
                    prop_assert!(
                        mirror.directions.len() == original.directions.len(),
                        "{id} step {step}: {} rows became {}",
                        original.directions.len(),
                        mirror.directions.len()
                    );
                    for row in &original.directions {
                        let expected = DirectionMetrics {
                            direction: mirrored(row.direction),
                            ..*row
                        };
                        prop_assert!(
                            mirror.direction(expected.direction) == Some(&expected),
                            "{id} step {step}: row {row:?} mirrored to {:?}",
                            mirror.direction(expected.direction)
                        );
                    }
                    prop_assert!(
                        mirror.counters == original.counters,
                        "{id} step {step}: counters {:?} became {:?}",
                        original.counters,
                        mirror.counters
                    );
                }
                point = space.mutate(&point, &mut rng);
            }
        }
    }
}

proptest! {
    // Every case walks a whole chain with a fresh engine per point, so keep
    // the case count low.
    #![proptest_config(ProptestConfig { cases: 10 })]

    /// A warm engine must measure every point of a seeded single-knob
    /// mutation chain (the access pattern of a campaign's proposal stream)
    /// exactly as a fresh engine does: the evaluator's memo and
    /// `WorkloadEngine::fork` both rely on it. "Exactly" is asserted twice
    /// per step — structural equality of the `Measurement` (which compares
    /// every f64 exactly) and equality of the canonical JSON encoding,
    /// which also pins counter names, ordering and the serialised shape
    /// the golden fixtures rely on.
    #[test]
    fn two_host_chains_match_fresh_engines(
        seed in any::<u64>(),
        steps in 5usize..40,
    ) {
        let space = space_f();
        let mut rng = SimRng::new(seed);
        let mut warm = WorkloadEngine::for_catalog(SubsystemId::F);

        let mut point = SearchPoint::benign();
        for step in 0..steps {
            point = space.mutate(&point, &mut rng);
            let measured = warm.measure(&point);
            let mut fresh = WorkloadEngine::for_catalog(SubsystemId::F);
            let scratch = fresh.measure(&point);
            prop_assert!(
                measured == scratch,
                "measurement diverged at step {step} (seed {seed}): \
                 warm {measured:?}, fresh {scratch:?}"
            );
            let measured_json = serde_json::to_string(&measured)
                .expect("measurement serialises");
            let scratch_json = serde_json::to_string(&scratch)
                .expect("measurement serialises");
            prop_assert!(
                measured_json == scratch_json,
                "serialised measurement diverged at step {step} (seed {seed})"
            );
        }
    }

    /// The same contract on the fabric domain.
    #[test]
    fn fabric_chains_match_fresh_engines(
        seed in any::<u64>(),
        steps in 5usize..40,
    ) {
        let space = FabricSpace::for_host(&SubsystemId::F.host());
        let mut rng = SimRng::new(seed);
        let mut warm = FabricEngine::for_catalog(SubsystemId::F);

        let mut point = FabricPoint::benign();
        for step in 0..steps {
            point = space.mutate(&point, &mut rng);
            let measured = warm.measure(&point);
            let mut fresh = FabricEngine::for_catalog(SubsystemId::F);
            let scratch = fresh.measure(&point);
            prop_assert!(
                measured == scratch,
                "fabric measurement diverged at step {step} (seed {seed}): \
                 warm {measured:?}, fresh {scratch:?}"
            );
            let measured_json = serde_json::to_string(&measured)
                .expect("fabric measurement serialises");
            let scratch_json = serde_json::to_string(&scratch)
                .expect("fabric measurement serialises");
            prop_assert!(
                measured_json == scratch_json,
                "serialised fabric measurement diverged at step {step} (seed {seed})"
            );
        }
    }
}

/// Asks per sequence in the memo-soundness property.
const ASKS: usize = 24;

/// A seeded sequence of [`ASKS`] points shaped like a campaign's asks:
/// fresh draws, one-knob mutations of an earlier ask, and exact repeats of
/// one.
fn ask_sequence<P: Clone>(
    seed: u64,
    draw: impl Fn(&mut SimRng) -> P,
    mutate: impl Fn(&P, &mut SimRng) -> P,
) -> Vec<P> {
    let mut rng = SimRng::new(seed);
    let mut asks = vec![draw(&mut rng)];
    while asks.len() < ASKS {
        let earlier = asks[rng.gen_index(asks.len())].clone();
        let next = match rng.gen_index(3) {
            0 => draw(&mut rng),
            1 => mutate(&earlier, &mut rng),
            _ => earlier,
        };
        asks.push(next);
    }
    asks
}

/// Ask a memoizing evaluator and the uncached reference, each over its own
/// fresh engine, every point of `asks` in order. Both must give the same
/// measurement and verdict on every ask, and the reference must pay one
/// compute for every answer the memoized evaluator gave, hit or miss.
fn memo_agrees_with_reference<E: Engine>(
    fresh: impl Fn() -> E,
    asks: &[E::Point],
    label: &str,
) -> Result<(), TestCaseError>
where
    E::Measurement: PartialEq + Debug,
    E::Verdict: PartialEq + Debug,
{
    let monitor = AnomalyMonitor::new();
    let (mut memo_engine, mut reference_engine) = (fresh(), fresh());
    let mut memoized = Evaluator::new(&mut memo_engine);
    let mut reference = Evaluator::uncached(&mut reference_engine);
    for (ask, point) in asks.iter().enumerate() {
        let memo = memoized.measure_and_assess(&monitor, point);
        let truth = reference.measure_and_assess(&monitor, point);
        prop_assert!(
            memo == truth,
            "{label} ask {ask}: memoized {memo:?}, reference {truth:?}"
        );
    }
    let (memo, truth) = (memoized.stats(), reference.stats());
    prop_assert!(
        truth.hits == 0 && truth.misses == memo.hits + memo.misses,
        "{label}: reference {truth:?} against memoized {memo:?}"
    );
    Ok(())
}

proptest! {
    // Every case replays one ask sequence per subsystem plus one fabric
    // sequence, and the reference recomputes every sample of every ask.
    #![proptest_config(ProptestConfig { cases: 16 })]

    /// The memo cache is sound: it may skip a flow-model compute only
    /// where the compute would have returned what the cache holds.
    #[test]
    fn memoized_evaluator_answers_every_ask_like_the_uncached_reference(seed in any::<u64>()) {
        for id in SubsystemId::ALL {
            let space = SearchSpace::for_host(&id.host());
            let asks = ask_sequence(
                seed,
                |rng| space.random_point(rng),
                |point, rng| space.mutate(point, rng),
            );
            memo_agrees_with_reference(|| WorkloadEngine::for_catalog(id), &asks, &id.to_string())?;
        }
        let space = FabricSpace::for_host(&SubsystemId::F.host());
        let asks = ask_sequence(
            seed,
            |rng| space.random_point(rng),
            |point, rng| space.mutate(point, rng),
        );
        memo_agrees_with_reference(|| FabricEngine::for_catalog(SubsystemId::F), &asks, "fabric F")?;
    }
}

/// Sampled fabric points per case in the victim-gauge property.
const VICTIM_POINTS: usize = 50;

proptest! {
    #![proptest_config(ProptestConfig { cases: 30 })]

    /// DESIGN §1's fabric victim gauge is non-increasing in propagated
    /// pause. Across sampled points, no victim-bearing measurement shows
    /// both a higher victim pause and a higher victim throughput than
    /// another. And for a fixed culprit workload, pattern and host count,
    /// raising the incast degree never lowers the victim's pause.
    #[test]
    fn fabric_victim_gauge_is_non_increasing_in_propagated_pause(seed in any::<u64>()) {
        let space = FabricSpace::for_host(&SubsystemId::F.host());
        let mut engine = FabricEngine::for_catalog(SubsystemId::F);
        let mut rng = SimRng::new(seed);
        let mut victims: Vec<(f64, f64)> = Vec::new();
        for _ in 0..VICTIM_POINTS {
            let point = space.random_point(&mut rng);
            let measurement = engine.measure(&point);
            if measurement.shape.has_victim() {
                victims.push((measurement.victim_pause_ratio, measurement.victim_throughput_frac));
            }
            let mut previous: Option<(u32, f64)> = None;
            for &incast_degree in &space.incast_degrees {
                let wider = FabricPoint { incast_degree, ..point.clone() };
                let pause = engine.measure(&wider).victim_pause_ratio;
                if let Some((lower, lower_pause)) = previous {
                    prop_assert!(
                        pause >= lower_pause,
                        "{point}: incast {incast_degree} pause {pause} < incast {lower} pause {lower_pause}"
                    );
                }
                previous = Some((incast_degree, pause));
            }
        }
        // A sample with no paused victim would make the first check vacuous.
        prop_assert!(victims.iter().any(|&(pause, _)| pause > 0.0), "no paused victim sampled");
        for &(pause, throughput) in &victims {
            for &(other_pause, other_throughput) in &victims {
                prop_assert!(
                    !(pause > other_pause && throughput > other_throughput),
                    "victim pause {pause} > {other_pause} with throughput {throughput} > {other_throughput}"
                );
            }
        }
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
