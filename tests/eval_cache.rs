//! Integration test: the memoized evaluation layer.
//!
//! The acceptance property of the evaluation cache is that it is *free* at
//! the semantics level: a `SearchConfig::collie` campaign on subsystem F
//! with memoization on produces a bit-identical `SearchOutcome` — same
//! discoveries, same milestones, same elapsed simulated time, same trace —
//! as the uncached reference path, while answering a substantial share of
//! its measurements from the cache instead of the flow model.

use collie::core::eval::{EvalStats, Evaluator};
use collie::core::fabric::{run_fabric_search_on, FabricEvaluator};
use collie::core::search::run_search_on;
use collie::prelude::*;
use std::time::Instant;

fn config() -> SearchConfig {
    SearchConfig::collie(17).with_budget(SimDuration::from_secs(2 * 3600))
}

/// One 2-hour Collie campaign on subsystem F through the evaluator `make`
/// builds: the outcome, the evaluator's cache stats and the wall-clock.
fn campaign(make: fn(&mut WorkloadEngine) -> Evaluator<'_>) -> (SearchOutcome, EvalStats, f64) {
    let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
    let space = SearchSpace::for_host(&SubsystemId::F.host());
    let mut evaluator = make(&mut engine);
    let started = Instant::now();
    let outcome = run_search_on(&mut evaluator, &space, &config());
    (outcome, evaluator.stats(), started.elapsed().as_secs_f64())
}

#[test]
fn memoized_campaign_is_bit_identical_to_the_uncached_path() {
    let (cached, cached_stats, cached_wall) = campaign(|engine| Evaluator::new(engine));
    let (uncached, uncached_stats, uncached_wall) = campaign(|engine| Evaluator::uncached(engine));

    // Bit-identical outcome: memoization only skips the flow-model
    // recompute, never the simulated cost accounting or the search path.
    assert_eq!(cached, uncached);

    // The cache did real work: the collie campaign revisits points (the
    // extractor re-measures each anomalous point, annealing re-proposes
    // recent neighbours), so hits must show up...
    assert!(
        cached_stats.hits > 0,
        "memoized campaign never hit the cache: {cached_stats:?}"
    );
    // ...and every hit is one flow-model evaluation the uncached path paid.
    assert_eq!(uncached_stats.hits, 0);
    assert_eq!(
        uncached_stats.misses,
        cached_stats.hits + cached_stats.misses,
        "both paths must issue the same measurement sequence"
    );

    // Wall-clock is logged, not asserted (debug builds and CI noise make a
    // timing assertion flaky); EXPERIMENTS.md records the release numbers.
    eprintln!(
        "eval cache: {} hits / {} misses ({:.0}% hit rate); wall-clock {:.3} s memoized vs {:.3} s uncached",
        cached_stats.hits,
        cached_stats.misses,
        cached_stats.hit_rate() * 100.0,
        cached_wall,
        uncached_wall,
    );
}

/// The fabric counterpart of [`campaign`].
fn fabric_campaign(
    make: fn(&mut FabricEngine) -> FabricEvaluator<'_>,
) -> (FabricOutcome, EvalStats) {
    let mut engine = FabricEngine::for_catalog(SubsystemId::F);
    let space = FabricSpace::for_host(&SubsystemId::F.host());
    let mut evaluator = make(&mut engine);
    let outcome = run_fabric_search_on(&mut evaluator, &space, &config());
    (outcome, evaluator.stats())
}

/// The same guarantee on the fabric path: a fabric campaign's outcome —
/// discoveries, fabric MFSes, gauges in the trace, elapsed simulated time
/// — is bit-identical through the memoizing evaluator and the uncached
/// reference, while the memoized run answers a substantial share of
/// measurements from the cache.
#[test]
fn memoized_fabric_campaign_is_bit_identical_to_the_uncached_path() {
    let (cached, cached_stats) = fabric_campaign(|engine| FabricEvaluator::new(engine));
    let (uncached, uncached_stats) = fabric_campaign(|engine| FabricEvaluator::uncached(engine));

    assert_eq!(cached, uncached);

    assert!(
        cached_stats.hits > 0,
        "memoized fabric campaign never hit the cache: {cached_stats:?}"
    );
    assert_eq!(uncached_stats.hits, 0);
    assert_eq!(
        uncached_stats.misses,
        cached_stats.hits + cached_stats.misses,
        "both paths must issue the same measurement sequence"
    );
}

/// The shared cache can be bounded, with deterministic FIFO
/// (publication-order) eviction and exact computed/served/evicted counters
/// — an `EvalContext` spanning many campaigns cannot grow without bound,
/// and an evicted key simply recomputes.
#[test]
fn bounded_shared_cache_pins_computed_served_and_evicted_counters() {
    use collie::core::eval::{CacheTotals, SharedCache};
    let cache: SharedCache<u32, u32> = SharedCache::bounded(2);
    // Publish three keys into a two-slot cache: the oldest is evicted.
    for key in [1u32, 2, 3] {
        assert_eq!(*cache.get_or_compute(&key, || key + 100), key + 100);
    }
    assert_eq!(
        cache.totals(),
        CacheTotals {
            computed: 3,
            served: 0,
            evicted: 1
        }
    );
    // Resident keys serve; the evicted key recomputes (and its
    // re-publication evicts the new oldest resident, key 2).
    assert_eq!(*cache.get_or_compute(&3, || unreachable!("resident")), 103);
    assert_eq!(*cache.get_or_compute(&1, || 101), 101);
    assert_eq!(
        cache.totals(),
        CacheTotals {
            computed: 4,
            served: 1,
            evicted: 2
        }
    );
    assert!(cache.peek(&2).is_none());
    assert!(cache.peek(&1).is_some() && cache.peek(&3).is_some());
}

/// Same seed + same point ⇒ bit-identical gauges, memoized or not (the
/// property the whole fabric cache rests on, checked at the single-
/// measurement level across distinct engines).
#[test]
fn fabric_gauges_are_bit_identical_across_engines_and_cache_modes() {
    let space = FabricSpace::for_host(&SubsystemId::F.host());
    let mut rng = collie::sim::rng::SimRng::new(99);
    for _ in 0..10 {
        let point = space.random_point(&mut rng);
        let mut engine_a = FabricEngine::for_catalog(SubsystemId::F);
        let mut engine_b = FabricEngine::for_catalog(SubsystemId::F);
        let mut cached = FabricEvaluator::new(&mut engine_a);
        let mut uncached = FabricEvaluator::uncached(&mut engine_b);
        let a = cached.measure(&point);
        let a_repeat = cached.measure(&point);
        let b = uncached.measure(&point);
        assert_eq!(a, a_repeat, "{point}");
        assert_eq!(a, b, "{point}");
    }
}
