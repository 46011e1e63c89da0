//! Micro-benchmarks of the simulator and workload engine themselves: how
//! fast one "hardware experiment" is evaluated, how fast points are mutated
//! and translated, and how expensive MFS extraction is. These are the costs
//! every campaign pays thousands of times, so regressions here directly
//! stretch the fig4/fig5 harness runtime.

use collie_core::catalog::KnownAnomaly;
use collie_core::engine::WorkloadEngine;
use collie_core::eval::Evaluator;
use collie_core::monitor::AnomalyMonitor;
use collie_core::search::kernel::MfsExtractor;
use collie_core::search::{SignalMode, WorkloadDomain};
use collie_core::space::{SearchPoint, SearchSpace};
use collie_rnic::subsystems::SubsystemId;
use collie_sim::rng::SimRng;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

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
/// the same access pattern a campaign's proposal stream produces.
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
    let mut index = 0usize;
    c.bench_function("chain/scratch", |b| {
        b.iter(|| {
            let measurement = black_box(engine.measure(black_box(&chain[index])));
            index = (index + 1) % chain.len();
            measurement
        })
    });
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
    bench_space_operations,
    bench_mutation_chain,
    bench_mfs_extraction
);
criterion_main!(benches);
