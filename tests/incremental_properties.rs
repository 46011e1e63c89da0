//! Differential suite for incremental flow-model evaluation.
//!
//! The incremental contract (DESIGN.md §11): the per-flow and
//! per-direction delta caches are a pure execution optimisation, so a warm
//! incremental engine walking a mutation chain must produce measurements
//! *byte-identical* to a fresh engine evaluating each point from scratch. "Byte-identical" is asserted
//! twice per step — structural equality of the `Measurement` (which
//! compares every f64 exactly) and equality of the canonical JSON
//! encoding, which additionally pins counter names, ordering, and the
//! serialised shape the golden fixtures rely on.
//!
//! The chains are seeded single-knob mutation walks — each point differs
//! from its predecessor in exactly one coordinate — because that is both
//! the access pattern a campaign's proposal stream produces and the
//! adversarial case for delta caching (maximal reuse, so a stale or
//! mis-keyed cache entry has the best chance to leak). Both search domains
//! are covered. Seeds come from the PROPTEST_SEED-pinned proptest driver,
//! so a red CI run reproduces locally with the same one-liner.

use collie::core::fabric::FabricEngine;
use collie::prelude::*;
use collie::sim::rng::SimRng;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 10 })]

    #[test]
    fn incremental_two_host_chains_match_fresh_engines(
        seed in any::<u64>(),
        steps in 5usize..40,
    ) {
        let space = SearchSpace::for_host(&SubsystemId::F.host());
        let mut rng = SimRng::new(seed);
        let mut warm = WorkloadEngine::for_catalog(SubsystemId::F);
        warm.set_incremental(true);

        let mut point = SearchPoint::benign();
        for step in 0..steps {
            point = space.mutate(&point, &mut rng);
            let incremental = warm.measure(&point);
            // The baseline is a fresh engine per point: nothing can carry
            // over, so this is the from-scratch meaning of the measurement.
            let mut fresh = WorkloadEngine::for_catalog(SubsystemId::F);
            let scratch = fresh.measure(&point);
            prop_assert!(
                incremental == scratch,
                "measurement diverged at step {step} (seed {seed}): \
                 incremental {incremental:?}, scratch {scratch:?}"
            );
            let incremental_json = serde_json::to_string(&incremental)
                .expect("measurement serialises");
            let scratch_json = serde_json::to_string(&scratch)
                .expect("measurement serialises");
            prop_assert!(
                incremental_json == scratch_json,
                "serialised measurement diverged at step {step} (seed {seed})"
            );
        }
    }

    #[test]
    fn incremental_fabric_chains_match_fresh_engines(
        seed in any::<u64>(),
        steps in 5usize..40,
    ) {
        let space = FabricSpace::for_host(&SubsystemId::F.host());
        let mut rng = SimRng::new(seed);
        let mut warm = FabricEngine::for_catalog(SubsystemId::F);
        warm.set_incremental(true);

        let mut point = FabricPoint::benign();
        for step in 0..steps {
            point = space.mutate(&point, &mut rng);
            let incremental = warm.measure(&point);
            let mut fresh = FabricEngine::for_catalog(SubsystemId::F);
            let scratch = fresh.measure(&point);
            prop_assert!(
                incremental == scratch,
                "fabric measurement diverged at step {step} (seed {seed}): \
                 incremental {incremental:?}, scratch {scratch:?}"
            );
            let incremental_json = serde_json::to_string(&incremental)
                .expect("fabric measurement serialises");
            let scratch_json = serde_json::to_string(&scratch)
                .expect("fabric measurement serialises");
            prop_assert!(
                incremental_json == scratch_json,
                "serialised fabric measurement diverged at step {step} (seed {seed})"
            );
        }
    }
}
