//! Evaluation-cache bench: the same Collie campaign on subsystem F through
//! the memoizing evaluator and through the uncached reference.
//!
//! The two variants produce bit-identical `SearchOutcome`s — memoization
//! only skips the flow-model recompute, never the simulated cost accounting
//! — so the whole difference between the two timings is the cache win. An
//! assertion below keeps the bench honest about that identity.

use collie_core::engine::WorkloadEngine;
use collie_core::eval::{EvalStats, Evaluator};
use collie_core::search::{run_search_on, SearchConfig, SearchOutcome};
use collie_core::space::SearchSpace;
use collie_rnic::subsystems::SubsystemId;
use collie_sim::time::SimDuration;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// How a campaign builds its evaluator over the engine.
type MakeEvaluator = fn(&mut WorkloadEngine) -> Evaluator<'_>;

/// One 2-hour Collie campaign on a fresh engine through `evaluator`, with
/// the evaluator's cache stats.
fn campaign(evaluator: MakeEvaluator) -> (SearchOutcome, EvalStats) {
    let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
    let space = SearchSpace::for_host(&SubsystemId::F.host());
    let config = SearchConfig::collie(17).with_budget(SimDuration::from_secs(2 * 3600));
    let mut evaluator = evaluator(&mut engine);
    let outcome = run_search_on(&mut evaluator, &space, &config);
    (outcome, evaluator.stats())
}

fn bench_eval_cache(c: &mut Criterion) {
    let variants: [(&str, MakeEvaluator); 2] = [
        ("memoized", |engine| Evaluator::new(engine)),
        ("uncached", |engine| Evaluator::uncached(engine)),
    ];

    // Honesty check: the cached and uncached campaigns must agree bit for
    // bit (discoveries, milestones, elapsed simulated time) before their
    // timings are worth comparing.
    {
        let (cached, stats) = campaign(variants[0].1);
        let (uncached, _) = campaign(variants[1].1);
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
    for (label, evaluator) in variants {
        group.bench_function(label, |b| b.iter(|| black_box(campaign(evaluator))));
    }
    group.finish();
}

criterion_group!(benches, bench_eval_cache);
criterion_main!(benches);
