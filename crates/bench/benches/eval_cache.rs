//! Evaluation-cache bench: the same Collie campaign on subsystem F with the
//! memoized evaluator on (default) and off (the uncached reference path).
//!
//! The two variants produce bit-identical `SearchOutcome`s — memoization
//! only skips the flow-model recompute, never the simulated cost accounting
//! — so the whole difference between the two timings is the cache win. An
//! assertion below keeps the bench honest about that identity.

use collie_core::engine::WorkloadEngine;
use collie_core::search::{run_search, run_search_with_stats, SearchConfig};
use collie_core::space::SearchSpace;
use collie_rnic::subsystems::SubsystemId;
use collie_sim::time::SimDuration;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn config(memoize: bool) -> SearchConfig {
    SearchConfig::collie(17)
        .with_budget(SimDuration::from_secs(2 * 3600))
        .with_memoization(memoize)
}

fn bench_eval_cache(c: &mut Criterion) {
    // Honesty check: the cached and uncached campaigns must agree bit for
    // bit (discoveries, milestones, elapsed simulated time) before their
    // timings are worth comparing.
    {
        let space = SearchSpace::for_host(&SubsystemId::F.host());
        let mut cached_engine = WorkloadEngine::for_catalog(SubsystemId::F);
        let (cached, profile) = run_search_with_stats(&mut cached_engine, &space, &config(true));
        let stats = profile.stats;
        let mut uncached_engine = WorkloadEngine::for_catalog(SubsystemId::F);
        let uncached = run_search(&mut uncached_engine, &space, &config(false));
        assert_eq!(cached, uncached, "memoization changed the outcome");
        assert!(stats.hits > 0, "campaign never hit the cache: {stats:?}");
        eprintln!(
            "eval cache: {} hits / {} misses ({:.0}% hit rate) over a 2-hour Collie campaign",
            stats.hits,
            stats.misses,
            stats.hit_rate() * 100.0
        );
    }

    let mut group = c.benchmark_group("eval_cache/collie_2h_subsystem_f");
    group.sample_size(10);
    for (label, memoize) in [("memoized", true), ("uncached", false)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
                let space = SearchSpace::for_host(&SubsystemId::F.host());
                black_box(run_search(&mut engine, &space, &config(memoize)))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_eval_cache);
criterion_main!(benches);
