//! The traced run: a serial pass over one round's campaigns through
//! [`TracedDomain`], replays of each campaign's computed points on fresh
//! engines, the traced qualification phase, and the per-layer metrics.

use crate::run::Outcomes;
use crate::stats::Summary;
use crate::trace::{take_mfs_match, timed, Acc, DomainTally, TracedDomain};
use crate::workload::{Domain, Workload, SUBSYSTEM};
use collie_bench::{CampaignSpec, DEFAULT_MATRIX_CACHE_CAPACITY};
use collie_core::engine::WorkloadEngine;
use collie_core::eval::{EvalContext, Evaluator};
use collie_core::fabric::{assess_fabric, FabricDomain, FabricEngine, FabricEvaluator};
use collie_core::monitor::AnomalyMonitor;
use collie_core::remedy::{DiscoveredTrigger, QualificationRecord, Qualifier};
use collie_core::search::kernel::{run_annealing, run_bayesian, run_random, CampaignLoop};
use collie_core::search::{SearchConfig, SearchDomain, SearchStrategy, WorkloadDomain};
use collie_core::space::{FabricPoint, FabricSpace, SearchPoint, SearchSpace};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::hint::black_box;

/// Engine, flow-model and monitor timings from replaying computed points.
#[derive(Debug, Default)]
pub struct ReplayTally {
    /// `WorkloadEngine::measure` per point, ns.
    pub measure: Vec<u64>,
    /// `WorkloadEngine::translate`.
    pub translate: Acc,
    /// `Subsystem::evaluate` per point, ns.
    pub evaluate: Vec<u64>,
    /// `AnomalyMonitor::assess` / `assess_fabric`.
    pub assess: Acc,
    /// `FabricEngine::measure` per point, ns.
    pub fabric_measure: Vec<u64>,
}

/// Everything the traced rounds measured, summed over rounds.
#[derive(Debug, Default)]
pub struct LayerTally {
    /// Traced rounds run.
    pub rounds: u64,
    /// Campaigns per round.
    pub campaigns: u64,
    /// Whole campaign spans.
    pub span: Acc,
    /// Calls into the domain.
    pub domain: DomainTally,
    /// Engine construction, one per campaign, as the matrix builds per cell.
    pub engine_build: Acc,
    /// `mfs_matches` calls.
    pub mfs_match: Acc,
    /// Experiments run.
    pub experiments: u64,
    /// Proposals skipped by the MFS filter.
    pub skipped: u64,
    /// Local misses computed by the campaign itself.
    pub shared_computed: u64,
    /// Local misses served by an earlier campaign's publication.
    pub shared_served: u64,
    /// Replays of the computed points.
    pub replay: ReplayTally,
    /// `Qualifier::qualify` calls (qualifier and engine construction
    /// included, as in the matrix's phase).
    pub qualify: Acc,
}

/// A finished traced campaign, detached from the domain's borrows.
struct Finished<X> {
    discoveries: Vec<X>,
    experiments: u32,
    skipped: u32,
}

impl<X: PartialEq> Finished<X> {
    /// Whether the campaign reproduced its untraced run's experiments,
    /// skips and discoveries.
    fn matches(&self, experiments: u32, skipped: u32, discoveries: &[X]) -> bool {
        self.experiments == experiments
            && self.skipped == skipped
            && self.discoveries == discoveries
    }
}

/// Run one campaign over `domain` with the strategy's public kernel loop
/// (`run_random` / `run_bayesian` / `run_annealing`), tallying its span
/// and every domain call.
fn drive<D: SearchDomain>(
    domain: D,
    config: &SearchConfig,
    layers: &mut LayerTally,
    computed: &RefCell<Vec<D::Point>>,
) -> Finished<D::Discovery> {
    let tally = RefCell::new(DomainTally::default());
    let (finished, ns) = timed(|| {
        let mut campaign = CampaignLoop::new(TracedDomain::new(domain, &tally, computed), config);
        match config.strategy {
            SearchStrategy::Random => run_random(&mut campaign),
            SearchStrategy::Bayesian => run_bayesian(&mut campaign),
            SearchStrategy::SimulatedAnnealing => run_annealing(&mut campaign),
        }
        let report = campaign.finish();
        Finished {
            discoveries: report.discoveries,
            experiments: report.experiments,
            skipped: report.skipped_by_mfs,
        }
    });
    layers.span.record(ns);
    layers.domain.merge(&tally.into_inner());
    layers.mfs_match.merge(take_mfs_match());
    layers.experiments += u64::from(finished.experiments);
    layers.skipped += u64::from(finished.skipped);
    finished
}

/// Replay two-host points: `measure` per point on one fresh engine;
/// `translate` over all points, then `Subsystem::evaluate` per point, on a
/// second, so neither sees the other's delta caches; then, when `assess` is
/// set, the monitor's `assess` over all measurements. Calls far below a
/// microsecond are timed as one span over the whole batch.
fn replay_workload<'p>(
    points: impl IntoIterator<Item = &'p SearchPoint>,
    incremental: bool,
    assess: bool,
    replay: &mut ReplayTally,
) {
    let points: Vec<&SearchPoint> = points.into_iter().collect();
    let mut measurer = WorkloadEngine::for_catalog(SUBSYSTEM);
    measurer.set_incremental(incremental);
    let mut stages = WorkloadEngine::for_catalog(SUBSYSTEM);
    stages.set_incremental(incremental);
    let mut measurements = Vec::with_capacity(points.len());
    for point in &points {
        let (measurement, ns) = timed(|| measurer.measure(point));
        replay.measure.push(ns);
        measurements.push(measurement);
    }
    let (workloads, ns) = timed(|| {
        points
            .iter()
            .map(|point| stages.translate(point))
            .collect::<Vec<_>>()
    });
    replay.translate.record(ns);
    for workload in &workloads {
        let (evaluated, ns) = timed(|| stages.subsystem_mut().evaluate(workload));
        replay.evaluate.push(ns);
        black_box(evaluated);
    }
    if assess {
        let monitor = AnomalyMonitor::new();
        let rnic = &measurer.subsystem().rnic;
        let (anomalous, ns) = timed(|| {
            measurements
                .iter()
                .filter(|m| monitor.assess(m, rnic).is_anomalous())
                .count()
        });
        replay.assess.record(ns);
        black_box(anomalous);
    }
}

fn two_host_campaign(
    spec: &CampaignSpec,
    context: &EvalContext,
    expected: &collie_core::search::SearchOutcome,
    layers: &mut LayerTally,
) -> (bool, Vec<DiscoveredTrigger>) {
    let config = &spec.config;
    let monitor = AnomalyMonitor::new();
    let space = SearchSpace::for_host(&spec.subsystem.host());
    let (mut engine, build_ns) = timed(|| WorkloadEngine::for_catalog(spec.subsystem));
    layers.engine_build.record(build_ns);
    engine.set_incremental(config.incremental);
    let mut evaluator = if config.memoize {
        Evaluator::new(&mut engine)
    } else {
        Evaluator::uncached(&mut engine)
    };
    evaluator.attach_shared(context.workload_cache(spec.subsystem));
    let computed = RefCell::new(Vec::new());
    let domain = WorkloadDomain::new(&mut evaluator, &monitor, &space, config.signal);
    let finished = drive(domain, config, layers, &computed);
    let shared = evaluator.shared_use();
    layers.shared_computed += shared.computed;
    layers.shared_served += shared.served;
    replay_workload(
        &computed.into_inner(),
        config.incremental,
        true,
        &mut layers.replay,
    );
    let same = finished.matches(
        expected.experiments,
        expected.skipped_by_mfs,
        &expected.discoveries,
    );
    let triggers = finished
        .discoveries
        .into_iter()
        .map(|d| DiscoveredTrigger {
            point: d.point,
            symptom: d.symptom,
            matched_rules: d.matched_rules,
        })
        .collect();
    (same, triggers)
}

fn fabric_campaign(
    spec: &CampaignSpec,
    context: &EvalContext,
    expected: &collie_core::fabric::FabricOutcome,
    layers: &mut LayerTally,
) -> bool {
    // The same normalisation `run_fabric_search_in_context` applies.
    let config = &SearchConfig {
        identity_dedup: true,
        stuck_skip_limit: spec.config.stuck_skip_limit.or(Some(24)),
        ..spec.config.clone()
    };
    let monitor = AnomalyMonitor::new();
    let space = FabricSpace::for_host(&spec.subsystem.host());
    let (mut engine, build_ns) = timed(|| FabricEngine::for_catalog(spec.subsystem));
    layers.engine_build.record(build_ns);
    engine.set_incremental(config.incremental);
    let mut evaluator = if config.memoize {
        FabricEvaluator::new(&mut engine)
    } else {
        FabricEvaluator::uncached(&mut engine)
    };
    evaluator.attach_shared(context.fabric_cache(spec.subsystem));
    let computed: RefCell<Vec<FabricPoint>> = RefCell::new(Vec::new());
    let domain = FabricDomain::new(&mut evaluator, &monitor, &space, config.signal);
    let finished = drive(domain, config, layers, &computed);
    let shared = evaluator.shared_use();
    layers.shared_computed += shared.computed;
    layers.shared_served += shared.served;

    let points = computed.into_inner();
    let mut fabric = FabricEngine::for_catalog(SUBSYSTEM);
    fabric.set_incremental(config.incremental);
    let mut measurements = Vec::with_capacity(points.len());
    for point in &points {
        let (measurement, ns) = timed(|| fabric.measure(point));
        layers.replay.fabric_measure.push(ns);
        measurements.push(measurement);
    }
    let (anomalous, ns) = timed(|| {
        measurements
            .iter()
            .filter(|m| assess_fabric(&monitor, m).is_anomalous())
            .count()
    });
    layers.replay.assess.record(ns);
    black_box(anomalous);
    replay_workload(
        points.iter().map(|p| &p.workload),
        config.incremental,
        false,
        &mut layers.replay,
    );
    finished.matches(
        expected.experiments,
        expected.skipped_by_mfs,
        &expected.discoveries,
    )
}

/// The matrix's qualification phase, serially and timed per call: dedup
/// the discoveries by identity, then qualify each on a fresh engine.
fn qualify(
    triggers: Vec<DiscoveredTrigger>,
    layers: &mut LayerTally,
) -> Vec<Option<QualificationRecord>> {
    let mut seen = BTreeSet::new();
    let mut records = Vec::new();
    for trigger in triggers {
        if !seen.insert(trigger.identity(SUBSYSTEM)) {
            continue;
        }
        let (record, ns) = timed(|| {
            let qualifier = Qualifier::for_subsystem(SUBSYSTEM);
            let engine = WorkloadEngine::for_catalog(SUBSYSTEM);
            qualifier.qualify(&engine, &trigger.point, &trigger.matched_rules)
        });
        layers.qualify.record(ns);
        records.push(record);
    }
    records
}

/// Run one traced round and return, per campaign, whether it reproduced
/// the untraced `reference` exactly. A qualification phase that differs
/// from the reference fails every campaign of the round.
pub fn traced_round(
    workload: Workload,
    specs: &[CampaignSpec],
    reference: &Outcomes,
    layers: &mut LayerTally,
) -> Vec<bool> {
    let context = EvalContext::bounded(DEFAULT_MATRIX_CACHE_CAPACITY);
    layers.rounds += 1;
    layers.campaigns = specs.len() as u64;
    match (workload.domain(), reference) {
        (
            Domain::TwoHost,
            Outcomes::TwoHost {
                cells,
                qualification,
            },
        ) => {
            let mut triggers = Vec::new();
            let mut same: Vec<bool> = specs
                .iter()
                .zip(cells)
                .map(|(spec, expected)| {
                    let (same, found) = two_host_campaign(spec, &context, expected, layers);
                    triggers.extend(found);
                    same
                })
                .collect();
            if let Some(expected) = qualification {
                let records = qualify(triggers, layers);
                let not_reproduced = records.iter().filter(|r| r.is_none()).count();
                let records: Vec<QualificationRecord> = records.into_iter().flatten().collect();
                if records != expected.records || not_reproduced != expected.not_reproduced {
                    same.iter_mut().for_each(|s| *s = false);
                }
            }
            same
        }
        (Domain::Fabric, Outcomes::Fabric(cells)) => specs
            .iter()
            .zip(cells)
            .map(|(spec, expected)| fabric_campaign(spec, &context, expected, layers))
            .collect(),
        _ => vec![false; specs.len()],
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

/// One top-level entry of the self-time ranking.
#[derive(Debug, Clone, PartialEq)]
pub struct Ranked {
    /// Layer label.
    pub layer: &'static str,
    /// Self time per round, ns.
    pub ns: f64,
}

/// Untraced figures the per-layer report needs.
#[derive(Debug, Clone, Copy)]
pub struct Untraced {
    /// `matrix.busy_share` of the two-worker round.
    pub busy_share: f64,
    /// Σ campaign wall of a one-worker untraced round (mean over the
    /// rounds paired with the traced ones), ns.
    pub serial_campaign_ns: f64,
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

impl LayerTally {
    /// The self-time ranking per round, largest first.
    pub fn ranking(&self) -> Vec<Ranked> {
        let r = self.rounds.max(1) as f64;
        let d = &self.domain;
        let probe = d.probe.total_ns();
        let children = [
            ("space.propose", d.propose.total_ns()),
            ("kernel.mfs_match", self.mfs_match.total_ns()),
            ("kernel.bo_encode", d.bo_encode.total_ns()),
            ("eval.hit", d.eval_hit.total_ns()),
            ("eval.miss", d.eval_miss.total_ns()),
            ("engine.ground_truth", d.ground_truth.total_ns()),
            ("monitor.probe", probe),
            ("monitor.extract", (d.extract.total_ns() - probe).max(0.0)),
        ];
        let covered: f64 = children.iter().map(|(_, ns)| ns).sum();
        let mut ranked: Vec<Ranked> = children
            .into_iter()
            .chain([
                ("kernel.self", (self.span.total_ns() - covered).max(0.0)),
                ("remedy.qualify", self.qualify.total_ns()),
            ])
            .map(|(layer, ns)| Ranked { layer, ns: ns / r })
            .collect();
        ranked.sort_by(|a, b| b.ns.total_cmp(&a.ns));
        ranked
    }

    /// Every per-layer metric, per traced round.
    pub fn metrics(&self, untraced: Untraced) -> Vec<Metric> {
        let r = self.rounds.max(1) as f64;
        let ranked = self.ranking();
        let self_ns = |layer: &str| -> f64 {
            ranked
                .iter()
                .find(|entry| entry.layer == layer)
                .map_or(0.0, |entry| entry.ns)
        };
        let per_round = |acc: &Acc| acc.total_ns() / r;
        let count = |acc: &Acc| acc.calls as f64 / r;
        let d = &self.domain;
        let asks = (d.eval_hit.calls + d.eval_miss.calls) as f64;
        let measure = Summary::of(&self.replay.measure);
        let fabric = Summary::of(&self.replay.fabric_measure);
        let evaluate = Summary::of(&self.replay.evaluate);
        let traced_span = per_round(&self.span);
        let m = |name, unit, value| Metric { name, unit, value };
        vec![
            m("space.propose_calls", "count", count(&d.propose)),
            m("space.propose_ns", "ns", self_ns("space.propose")),
            m("kernel.mfs_match_calls", "count", count(&self.mfs_match)),
            m("kernel.mfs_match_ns", "ns", self_ns("kernel.mfs_match")),
            m(
                "kernel.skip_ratio",
                "ratio",
                ratio(
                    self.skipped as f64,
                    (self.skipped + self.experiments) as f64,
                ),
            ),
            m("kernel.self_ns", "ns", self_ns("kernel.self")),
            m("kernel.bo_encode_ns", "ns", self_ns("kernel.bo_encode")),
            m("eval.asks", "count", asks / r),
            m(
                "eval.hit_ratio",
                "ratio",
                ratio(d.eval_hit.calls as f64, asks),
            ),
            m("eval.hit_ns", "ns", self_ns("eval.hit")),
            m("eval.miss_ns", "ns", self_ns("eval.miss")),
            m(
                "eval.shared_served_ratio",
                "ratio",
                ratio(
                    self.shared_served as f64,
                    (self.shared_served + self.shared_computed) as f64,
                ),
            ),
            m("engine.measure_p50_ns", "ns", measure.p50 as f64),
            m("engine.measure_p99_ns", "ns", measure.p99 as f64),
            m(
                "engine.translate_ns",
                "ns",
                per_round(&self.replay.translate),
            ),
            m("rnic.evaluate_p50_ns", "ns", evaluate.p50 as f64),
            m(
                "engine.ground_truth_ns",
                "ns",
                self_ns("engine.ground_truth"),
            ),
            m("engine.build_ns", "ns", per_round(&self.engine_build)),
            m("fabric.measure_p50_ns", "ns", fabric.p50 as f64),
            m("fabric.measure_p99_ns", "ns", fabric.p99 as f64),
            m("monitor.assess_ns", "ns", per_round(&self.replay.assess)),
            m("monitor.extractions", "count", count(&d.extract)),
            m("monitor.probes", "count", count(&d.probe)),
            m("monitor.probe_ns", "ns", self_ns("monitor.probe")),
            m("monitor.extract_ns", "ns", self_ns("monitor.extract")),
            m("remedy.qualify_calls", "count", count(&self.qualify)),
            m("remedy.qualify_ns", "ns", self_ns("remedy.qualify")),
            m("matrix.cells", "count", self.campaigns as f64),
            m("matrix.busy_share", "ratio", untraced.busy_share),
            m(
                "trace.overhead_ratio",
                "ratio",
                ratio(traced_span, untraced.serial_campaign_ns),
            ),
        ]
    }
}
