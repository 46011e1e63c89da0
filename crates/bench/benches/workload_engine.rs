//! Micro-benchmarks of the simulator and workload engine themselves: how
//! fast one "hardware experiment" is evaluated, how fast points are mutated
//! and translated, and how expensive MFS extraction is. These are the costs
//! every campaign pays thousands of times, so regressions here directly
//! stretch the fig4/fig5 harness runtime.

use collie_core::catalog::KnownAnomaly;
use collie_core::engine::WorkloadEngine;
use collie_core::eval::Evaluator;
use collie_core::fabric::{run_fabric_search, FabricEngine};
use collie_core::monitor::AnomalyMonitor;
use collie_core::search::kernel::MfsExtractor;
use collie_core::search::{SearchConfig, SignalMode, WorkloadDomain};
use collie_core::space::{FabricPoint, FabricSpace, SearchPoint, SearchSpace};
use collie_rnic::fabric::{TrafficPattern, PAUSE_SPREAD_THRESHOLD};
use collie_rnic::subsystems::SubsystemId;
use collie_rnic::workload::WorkloadSpec;
use collie_sim::rng::SimRng;
use collie_sim::time::SimDuration;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::collections::HashSet;

fn bench_evaluate(c: &mut Criterion) {
    let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
    let benign = SearchPoint::benign();
    let anomalous = KnownAnomaly::by_id(10).unwrap().trigger;
    c.bench_function("evaluate/benign_point", |b| {
        b.iter(|| black_box(engine.measure(black_box(&benign))))
    });
    c.bench_function("evaluate/anomalous_point", |b| {
        b.iter(|| black_box(engine.measure(black_box(&anomalous))))
    });
    // The scoring oracle: translate the point, then run every rule against
    // each of its flows.
    assert!(engine.ground_truth(&anomalous).contains(&"collie/10"));
    c.bench_function("engine/ground_truth", |b| {
        b.iter(|| black_box(engine.ground_truth(black_box(&anomalous))))
    });
    // A memo hit: the evaluator answers from its map, so the leg costs the
    // key clone, the lookup and cloning the cached measurement out.
    let mut evaluator = Evaluator::new(&mut engine);
    evaluator.measure(&anomalous);
    c.bench_function("evaluate/memo_hit", |b| {
        b.iter(|| black_box(evaluator.measure(black_box(&anomalous))))
    });
    assert_eq!(evaluator.stats().misses, 1, "memo_hit must never miss");
}

/// The fabric path: one `FabricEngine::measure` (the two-host flow model
/// plus the switch relay) on a storming point, and one Bayesian-optimisation
/// fabric campaign, whose rounds score every candidate against the
/// surrogate history.
fn bench_fabric(c: &mut Criterion) {
    let mut engine = FabricEngine::for_catalog(SubsystemId::F);
    // Appendix A anomaly #4 as the culprit of a 4-host, incast-2 fabric.
    let storming = FabricPoint {
        workload: KnownAnomaly::by_id(4).unwrap().trigger,
        host_count: 4,
        incast_degree: 2,
        pattern: TrafficPattern::Incast,
    };
    let pause = engine.measure(&storming).max_port_pause;
    assert!(
        pause > PAUSE_SPREAD_THRESHOLD,
        "the fabric_point leg must measure a storming point (max port pause {pause})"
    );
    c.bench_function("evaluate/fabric_point", |b| {
        b.iter(|| black_box(engine.measure(black_box(&storming))))
    });

    let space = FabricSpace::for_host(&SubsystemId::F.host());
    let config = SearchConfig::bayesian(17).with_budget(SimDuration::from_secs(2 * 3600));
    c.bench_function("campaign/fabric_bo", |b| {
        b.iter(|| black_box(run_fabric_search(&mut engine, &space, &config)))
    });
}

fn bench_space_operations(c: &mut Criterion) {
    let space = SearchSpace::for_host(&SubsystemId::F.host());
    let mut rng = SimRng::new(7);
    let point = space.random_point(&mut rng);
    c.bench_function("space/random_point", |b| {
        b.iter(|| black_box(space.random_point(&mut rng)))
    });
    c.bench_function("space/mutate", |b| {
        b.iter(|| black_box(space.mutate(black_box(&point), &mut rng)))
    });
    let engine = WorkloadEngine::for_catalog(SubsystemId::F);
    c.bench_function("engine/translate", |b| {
        b.iter(|| black_box(engine.translate(black_box(&point))))
    });
}

/// One warm engine cycling through a seeded single-knob mutation chain —
/// the same access pattern a campaign's proposal stream produces — first
/// the flow model alone on the chain's translated workloads, then bare
/// measurements, then through the memoizing evaluator.
fn bench_mutation_chain(c: &mut Criterion) {
    let space = SearchSpace::for_host(&SubsystemId::F.host());
    let mut rng = SimRng::new(collie_bench::DEFAULT_SEEDS[0]);
    let mut chain = Vec::with_capacity(512);
    let mut point = SearchPoint::benign();
    for _ in 0..512 {
        point = space.mutate(&point, &mut rng);
        chain.push(point.clone());
    }
    let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
    // `Subsystem::evaluate` only: the workloads are translated beforehand,
    // so the leg leaves out what `chain/scratch` adds to it.
    let workloads: Vec<WorkloadSpec> = chain.iter().map(|point| engine.translate(point)).collect();
    let mut subsystem = engine.subsystem().clone();
    let mut index = 0usize;
    c.bench_function("chain/flow_model", |b| {
        b.iter(|| {
            let measurement = black_box(subsystem.evaluate(black_box(&workloads[index])));
            index = (index + 1) % workloads.len();
            measurement
        })
    });

    let mut index = 0usize;
    c.bench_function("chain/scratch", |b| {
        b.iter(|| {
            let measurement = black_box(engine.measure(black_box(&chain[index])));
            index = (index + 1) % chain.len();
            measurement
        })
    });

    // Memo misses: one iteration walks the chain's distinct points through
    // a fresh evaluator, so every ask hashes its point, inserts it and runs
    // the flow model. The leg's time is one whole pass.
    let mut seen = HashSet::new();
    let distinct: Vec<SearchPoint> = chain
        .into_iter()
        .filter(|point| seen.insert(point.clone()))
        .collect();
    let mut hits = 0;
    c.bench_function("evaluate/memo_miss", |b| {
        b.iter(|| {
            let mut evaluator = Evaluator::new(&mut engine);
            for point in &distinct {
                black_box(evaluator.measure(black_box(point)));
            }
            hits += evaluator.stats().hits;
        })
    });
    assert_eq!(hits, 0, "memo_miss must never hit");
}

fn bench_mfs_extraction(c: &mut Criterion) {
    c.bench_function("mfs/extract_anomaly_1", |b| {
        b.iter(|| {
            let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
            let monitor = AnomalyMonitor::new();
            let space = SearchSpace::for_host(&SubsystemId::F.host());
            let anomaly = KnownAnomaly::by_id(1).unwrap();
            let mut evaluator = Evaluator::new(&mut engine);
            let mut domain =
                WorkloadDomain::new(&mut evaluator, &monitor, &space, SignalMode::Diagnostic);
            black_box(MfsExtractor::new(&mut domain).extract(&anomaly.trigger, &anomaly.symptom))
        })
    });
}

criterion_group!(
    benches,
    bench_evaluate,
    bench_fabric,
    bench_space_operations,
    bench_mutation_chain,
    bench_mfs_extraction
);
criterion_main!(benches);
