//! Counter-guided search over the fabric space.
//!
//! Runs the generic campaign kernel
//! ([`CampaignLoop`](crate::search::kernel::CampaignLoop)) over the
//! [`FabricDomain`]: the loop charges simulated hardware time per
//! experiment, follows the §6 four-sample measurement procedure through the
//! shared memo cache, skips points inside already-discovered fabric MFSes
//! (with the same `!is_empty()` guard as every domain, so one degenerate
//! extraction can never silence the rest of the run), extracts an MFS per
//! discovery, and is a pure function of its seed.
//!
//! Strategies: random sampling, Bayesian-optimisation surrogate search,
//! and simulated annealing over the victim gauges
//! ([`SignalMode::Diagnostic`] maximises the victim-port pause ratio,
//! [`SignalMode::Performance`] minimises the victim throughput fraction).
//! All three are the generic kernel drivers; the BO surrogate measures
//! distances in the 19-dim fabric encoding
//! ([`SearchDomain::surrogate_features`]), so a
//! [`SearchStrategy::Bayesian`] config runs a real BO cell, not a
//! relabelled random baseline.

use super::{FabricEngine, FabricEvaluator};
use crate::eval::EvalStats;
use crate::monitor::{AnomalyMonitor, FeatureCondition, Symptom};
use crate::search::domain::{CampaignReport, ExtractionCost, SearchDomain};
use crate::search::kernel::run_campaign;
use crate::search::{SearchConfig, SignalMode};
use crate::space::{FabricFeature, FabricPoint, FabricSpace, FeatureValue};
use collie_rnic::counters::fabric as fabric_gauges;
use collie_rnic::fabric::FabricMeasurement;
use collie_sim::series::TimeSeries;
use collie_sim::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::collections::BTreeSet;

use super::mfs::{FabricMfs, FabricSignature};

/// One anomaly discovered by a fabric campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FabricDiscovery {
    /// Simulated wall-clock at which the anomaly was confirmed.
    pub at: SimDuration,
    /// The fabric point that triggered it.
    pub point: FabricPoint,
    /// The observed symptom.
    pub symptom: Symptom,
    /// Whether the discovery carries the cross-host hallmark (victim
    /// collapsed while the culprit stayed healthy).
    pub cross_host: bool,
    /// The extracted fabric minimal feature set.
    pub mfs: FabricMfs,
    /// Ground-truth catalogue rules the culprit workload triggers (scoring
    /// only, never consulted by the search).
    pub matched_rules: Vec<String>,
}

/// The result of one fabric campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FabricOutcome {
    /// Human-readable label of the configuration.
    pub label: String,
    /// Every anomaly discovered, in discovery order.
    pub discoveries: Vec<FabricDiscovery>,
    /// Trace of the guiding victim gauge over the campaign, with anomaly
    /// markers (the fabric counterpart of the Figure-6 series).
    pub trace: TimeSeries,
    /// Experiments actually run (skipped points are free).
    pub experiments: u32,
    /// Points skipped by the fabric MFS filter.
    pub skipped_by_mfs: u32,
    /// Simulated wall-clock consumed.
    pub elapsed: SimDuration,
}

impl FabricOutcome {
    /// Assemble the public outcome from a finished kernel report (the
    /// fabric outcome does not report rule-hit scoring).
    fn from_report(label: String, report: CampaignReport<FabricDomain<'_, '_>>) -> Self {
        FabricOutcome {
            label,
            discoveries: report.discoveries,
            trace: report.trace,
            experiments: report.experiments,
            skipped_by_mfs: report.skipped_by_mfs,
            elapsed: report.elapsed,
        }
    }

    /// The discoveries carrying the cross-host hallmark.
    pub fn cross_host_discoveries(&self) -> Vec<&FabricDiscovery> {
        self.discoveries.iter().filter(|d| d.cross_host).collect()
    }

    /// The discoveries' culprit workloads as triggers for the remediation →
    /// verification pipeline (see [`crate::remedy::Qualifier`]). The
    /// fabric-side dimensions (host count, incast degree, pattern) are
    /// dropped: mitigations act on the two-host subsystem and the culprit's
    /// workload description, which is also what `matched_rules` scores.
    pub fn discovered_triggers(&self) -> Vec<crate::remedy::DiscoveredTrigger> {
        self.discoveries
            .iter()
            .map(|d| crate::remedy::DiscoveredTrigger {
                point: d.point.workload.clone(),
                symptom: d.symptom,
                matched_rules: d.matched_rules.clone(),
            })
            .collect()
    }

    /// Distinct catalogued anomalies matched by the discoveries' culprit
    /// workloads (scoring only).
    pub fn distinct_known_anomalies(&self) -> BTreeSet<String> {
        self.discoveries
            .iter()
            .flat_map(|d| d.matched_rules.iter().cloned())
            .collect()
    }
}

/// The fabric search domain: N homogeneous hosts around one lossless
/// switch, hunting cross-host PFC storms over the 18-coordinate fabric
/// space (the culprit's fifteen workload features plus host count, incast
/// degree, and traffic shape).
///
/// The [`SearchDomain`] binding differs from the two-host
/// [`WorkloadDomain`](crate::search::WorkloadDomain) in exactly the ways
/// the fabric setting demands: the anomaly identity is *(symptom,
/// cross-host hallmark)* — a victim-collapse anomaly surfacing inside the
/// region of a loud local storm is operationally a different finding and
/// must not be shadowed by it — the guiding signal is a fixed victim-gauge
/// formula (no rankable counter family, so the annealer runs un-targeted
/// schedules), and the extraction signature carries the cross-host flag
/// instead of a dominant counter.
pub struct FabricDomain<'a, 'e> {
    evaluator: &'a mut FabricEvaluator<'e>,
    monitor: &'a AnomalyMonitor,
    space: &'a FabricSpace,
    signal: SignalMode,
}

impl<'a, 'e> FabricDomain<'a, 'e> {
    /// Bind a fabric domain to an evaluator, monitor, space, and guiding
    /// signal mode.
    pub fn new(
        evaluator: &'a mut FabricEvaluator<'e>,
        monitor: &'a AnomalyMonitor,
        space: &'a FabricSpace,
        signal: SignalMode,
    ) -> Self {
        FabricDomain {
            evaluator,
            monitor,
            space,
            signal,
        }
    }
}

impl SearchDomain for FabricDomain<'_, '_> {
    type Point = FabricPoint;
    type Feature = FabricFeature;
    type Measurement = FabricMeasurement;
    type Identity = (Symptom, bool);
    type Mfs = FabricMfs;
    type Discovery = FabricDiscovery;
    type Signature = FabricSignature;

    fn random_point(&mut self, rng: &mut collie_sim::rng::SimRng) -> FabricPoint {
        self.space.random_point(rng)
    }

    fn mutate(&mut self, point: &FabricPoint, rng: &mut collie_sim::rng::SimRng) -> FabricPoint {
        self.space.mutate(point, rng)
    }

    fn features(&self) -> Vec<FabricFeature> {
        FabricFeature::all()
    }

    fn feature_value(&self, point: &FabricPoint, feature: FabricFeature) -> FeatureValue {
        point.feature_value(feature)
    }

    fn apply(&self, point: &mut FabricPoint, feature: FabricFeature, value: &FeatureValue) {
        point.apply(feature, value);
    }

    fn alternatives(&self, point: &FabricPoint, feature: FabricFeature) -> Vec<FeatureValue> {
        self.space.alternatives(point, feature)
    }

    fn experiment_cost(&self, point: &FabricPoint) -> SimDuration {
        FabricEngine::experiment_cost(point)
    }

    fn assess(&mut self, point: &FabricPoint) -> (FabricMeasurement, Option<(Symptom, bool)>) {
        let (measurement, verdict) = self.evaluator.measure_and_assess(self.monitor, point);
        let identity = verdict.symptom.map(|s| (s, verdict.cross_host));
        (measurement, identity)
    }

    fn symptom(identity: &(Symptom, bool)) -> Symptom {
        identity.0
    }

    fn ground_truth(&self, point: &FabricPoint) -> Vec<&'static str> {
        self.evaluator.ground_truth(point)
    }

    fn reports_rule_hits(&self) -> bool {
        // FabricOutcome carries no rule-hit log; skip the bookkeeping.
        false
    }

    fn eval_stats(&self) -> EvalStats {
        self.evaluator.stats()
    }

    fn traced_counter(&self) -> &'static str {
        match self.signal {
            SignalMode::Diagnostic => fabric_gauges::VICTIM_PAUSE_RATIO,
            SignalMode::Performance => fabric_gauges::VICTIM_THROUGHPUT_FRAC,
        }
    }

    fn trace_value(&self, measurement: &FabricMeasurement) -> f64 {
        measurement
            .counters
            .value(self.traced_counter())
            .unwrap_or(0.0)
    }

    /// Diagnostic mode maximises the victim-port pause *weighted by the
    /// culprit's health*: a storm whose culprit still looks fine is the
    /// silent cross-host failure the fabric campaign exists to find (a
    /// collapsed culprit is already visible to the two-host search), so
    /// the annealer is steered toward pause that hides behind a healthy
    /// culprit. Performance mode minimises the victim throughput gauge.
    /// The fabric signal is a fixed formula, so `target` is ignored.
    fn signal_value(&self, measurement: &FabricMeasurement, _target: Option<&str>) -> f64 {
        match self.signal {
            SignalMode::Diagnostic => {
                measurement.victim_pause_ratio * measurement.culprit_throughput_frac
            }
            SignalMode::Performance => measurement.victim_throughput_frac,
        }
    }

    fn rankable_counters(&self) -> Vec<String> {
        // One fixed guiding formula: the annealing outer loop runs
        // un-targeted schedules and spends no ranking probes.
        Vec::new()
    }

    /// The 19-dim fabric surrogate vector: the culprit workload's 16-dim
    /// encoding (so a fabric BO walk inherits the two-host geometry over
    /// the embedded culprit pair) followed by the three fabric
    /// coordinates. The small host/incast ladders are log-scaled like the
    /// workload ladders; the traffic shape becomes its ladder index.
    fn surrogate_features(&self, point: &FabricPoint) -> Vec<f64> {
        let workload = crate::search::WorkloadDomain::workload_surrogate(&point.workload);
        let mut features = Vec::with_capacity(workload.len() + 3);
        features.extend_from_slice(&workload);
        features.push((point.host_count as f64).log2());
        features.push((point.incast_degree as f64).log2());
        features.push(match point.pattern {
            collie_rnic::fabric::TrafficPattern::Incast => 0.0,
            collie_rnic::fabric::TrafficPattern::Ring => 1.0,
            collie_rnic::fabric::TrafficPattern::Paired => 2.0,
        });
        features
    }

    fn mfs_identity(mfs: &FabricMfs) -> (Symptom, bool) {
        (mfs.symptom, mfs.cross_host)
    }

    fn mfs_is_empty(mfs: &FabricMfs) -> bool {
        mfs.is_empty()
    }

    fn mfs_matches(mfs: &FabricMfs, point: &FabricPoint) -> bool {
        mfs.matches(point)
    }

    fn begin_extraction(
        &mut self,
        _anomalous: &FabricPoint,
        identity: &(Symptom, bool),
        _cost: &mut ExtractionCost,
    ) -> FabricSignature {
        // The fabric signature is the identity itself — no reference
        // experiment is charged.
        FabricSignature {
            symptom: identity.0,
            cross_host: identity.1,
        }
    }

    fn reproduces(&mut self, probe: &FabricPoint, signature: &FabricSignature) -> bool {
        let (_, verdict) = self.evaluator.measure_and_assess(self.monitor, probe);
        signature.matches(&verdict)
    }

    fn make_mfs(
        &self,
        identity: &(Symptom, bool),
        conditions: BTreeMap<FabricFeature, FeatureCondition>,
        example: FabricPoint,
    ) -> FabricMfs {
        FabricMfs {
            symptom: identity.0,
            cross_host: identity.1,
            conditions,
            example,
        }
    }

    fn make_discovery(
        &self,
        at: SimDuration,
        point: FabricPoint,
        identity: (Symptom, bool),
        mfs: FabricMfs,
        matched_rules: Vec<String>,
    ) -> FabricDiscovery {
        FabricDiscovery {
            at,
            point,
            symptom: identity.0,
            cross_host: identity.1,
            mfs,
            matched_rules,
        }
    }
}

/// Run one fabric campaign, measuring through a fresh memoizing
/// [`FabricEvaluator`].
pub fn run_fabric_search(
    engine: &mut FabricEngine,
    space: &FabricSpace,
    config: &SearchConfig,
) -> FabricOutcome {
    run_fabric_search_on(&mut FabricEvaluator::new(engine), space, config)
}

/// Run one fabric campaign with every measurement going through
/// `evaluator` (the fabric counterpart of
/// [`run_search_on`](crate::search::run_search_on); the outcome itself is
/// independent of the cache).
pub fn run_fabric_search_on(
    evaluator: &mut FabricEvaluator,
    space: &FabricSpace,
    config: &SearchConfig,
) -> FabricOutcome {
    let monitor = AnomalyMonitor::new();
    let domain = FabricDomain::new(evaluator, &monitor, space, config.signal);
    // The label comes from the strategy, so it always names the kernel
    // driver `run_campaign` dispatched to.
    let label = format!("{} fabric", config.label());
    FabricOutcome::from_report(label, run_campaign(domain, config))
}

#[cfg(test)]
mod tests {
    use super::super::tests::{cross_host_culprit, storming_culprit};
    use super::*;
    use crate::search::kernel::CampaignLoop;
    use crate::space::SearchPoint;
    use collie_rnic::subsystems::SubsystemId;
    use collie_sim::rng::SimRng;

    fn setup() -> (FabricEngine, FabricSpace, AnomalyMonitor, SearchConfig) {
        (
            FabricEngine::for_catalog(SubsystemId::F),
            FabricSpace::for_host(&SubsystemId::F.host()),
            AnomalyMonitor::new(),
            SearchConfig::collie(3).with_budget(SimDuration::from_secs(7200)),
        )
    }

    /// Build a campaign loop over a freshly bound fabric domain.
    macro_rules! campaign {
        ($engine:expr, $evaluator:ident, $space:expr, $monitor:expr, $config:expr) => {{
            $evaluator = FabricEvaluator::new($engine);
            CampaignLoop::new(
                FabricDomain::new(&mut $evaluator, $monitor, $space, $config.signal),
                $config,
            )
        }};
    }

    #[test]
    fn measuring_an_anomalous_fabric_point_records_a_discovery_with_mfs() {
        let (mut engine, space, monitor, config) = setup();
        let mut evaluator;
        let mut campaign = campaign!(&mut engine, evaluator, &space, &monitor, &config);
        let point = cross_host_culprit();
        campaign.measure(&point).unwrap();
        let outcome = FabricOutcome::from_report("test".to_string(), campaign.finish());
        assert_eq!(outcome.discoveries.len(), 1);
        let d = &outcome.discoveries[0];
        assert!(d.cross_host);
        assert!(d.mfs.matches(&point));
        assert!(
            outcome.experiments > 1,
            "MFS extraction charges experiments"
        );
        assert!(!outcome.trace.anomaly_samples().is_empty());
    }

    #[test]
    fn repeated_sightings_of_the_same_fabric_anomaly_count_once() {
        let (mut engine, space, monitor, config) = setup();
        let mut evaluator;
        let mut campaign = campaign!(&mut engine, evaluator, &space, &monitor, &config);
        let point = cross_host_culprit();
        campaign.measure(&point).unwrap();
        // A harsher variant inside the same MFS (wider fabric).
        let mut harsher = point.clone();
        harsher.host_count = 8;
        harsher.incast_degree = 6;
        if campaign.matches_known_mfs(&harsher) {
            campaign.measure(&harsher).unwrap();
            let outcome = FabricOutcome::from_report("test".to_string(), campaign.finish());
            assert_eq!(outcome.discoveries.len(), 1);
            assert_eq!(outcome.skipped_by_mfs, 1);
        }
    }

    #[test]
    fn an_empty_fabric_mfs_does_not_suppress_later_discoveries() {
        // The PR 2 regression, pinned on the fabric path: an extraction
        // that ends with no conditions matches the whole space vacuously
        // and must be excluded from both the skip and the dedup.
        let (mut engine, space, monitor, config) = setup();
        let mut evaluator;
        let mut campaign = campaign!(&mut engine, evaluator, &space, &monitor, &config);
        campaign.plant_mfs(FabricMfs {
            symptom: Symptom::PauseStorm,
            cross_host: true,
            conditions: BTreeMap::new(),
            example: FabricPoint::benign(),
        });
        let point = cross_host_culprit();
        assert!(!campaign.matches_known_mfs(&point));
        campaign.measure(&point).unwrap();
        let outcome = FabricOutcome::from_report("test".to_string(), campaign.finish());
        assert_eq!(
            outcome.discoveries.len(),
            1,
            "an empty fabric MFS must not mark new anomalies redundant"
        );
        assert_eq!(outcome.skipped_by_mfs, 0);
    }

    #[test]
    fn budget_is_enforced() {
        let (mut engine, space, monitor, _) = setup();
        let config = SearchConfig::collie(3).with_budget(SimDuration::from_secs(45));
        let mut evaluator;
        let mut campaign = campaign!(&mut engine, evaluator, &space, &monitor, &config);
        let p = FabricPoint::two_host(SearchPoint::benign());
        assert!(campaign.measure(&p).is_some());
        campaign.measure(&p);
        assert!(campaign.measure(&p).is_none() || campaign.out_of_budget());
    }

    #[test]
    fn fabric_campaigns_find_cross_host_anomalies() {
        // Cross-host (victim-collapse) points cover roughly 1 % of the
        // fabric space, so which campaigns land on one depends on the
        // seeded walk; seed 5 does within 4 simulated hours and the engine
        // is deterministic, so this pins the capability end to end.
        let (mut engine, space, _, _) = setup();
        let config = SearchConfig::collie(5).with_budget(SimDuration::from_secs(4 * 3600));
        let outcome = run_fabric_search(&mut engine, &space, &config);
        assert!(!outcome.discoveries.is_empty());
        assert!(
            !outcome.cross_host_discoveries().is_empty(),
            "4 simulated hours of annealing (seed 5) should surface a victim-collapse \
             anomaly ({} discoveries, none cross-host)",
            outcome.discoveries.len()
        );
        for d in outcome.cross_host_discoveries() {
            assert_eq!(d.symptom, Symptom::PauseStorm);
            assert!(d.point.shape().normalized().host_count >= 3);
        }
    }

    #[test]
    fn fabric_strategy_labels_match_the_driver_that_ran() {
        // Regression for the BO mislabeling: `SearchStrategy::Bayesian`
        // used to be normalised to the random loop while the outcome (and
        // every EXPERIMENTS row derived from it) still said "BO". The
        // dispatch is now one arm per strategy, so each label must name a
        // driver that produced a distinct campaign: same seed and budget,
        // three strategies, three different RNG streams.
        let space = FabricSpace::for_host(&SubsystemId::F.host());
        let budget = SimDuration::from_secs(2 * 3600);
        let configs = [
            ("Random fabric", SearchConfig::random(5)),
            ("BO(Diag) fabric", SearchConfig::bayesian(5)),
            ("Collie(Diag) fabric", SearchConfig::collie(5)),
        ];
        let mut fingerprints = Vec::new();
        for (expected_label, config) in configs {
            let mut engine = FabricEngine::for_catalog(SubsystemId::F);
            let outcome = run_fabric_search(&mut engine, &space, &config.with_budget(budget));
            assert_eq!(outcome.label, expected_label);
            assert!(outcome.experiments > 10, "{expected_label}");
            fingerprints.push((
                outcome.experiments,
                outcome.elapsed,
                outcome.trace.samples().len(),
            ));
        }
        // In particular the BO cell is not the random baseline relabelled.
        assert_ne!(fingerprints[0], fingerprints[1], "BO == Random stream");
        assert_ne!(fingerprints[1], fingerprints[2], "BO == Collie stream");
        assert_ne!(fingerprints[0], fingerprints[2], "Random == Collie stream");
    }

    #[test]
    fn random_fabric_baseline_also_runs() {
        let (mut engine, space, _, _) = setup();
        let config = SearchConfig::random(5).with_budget(SimDuration::from_secs(3600));
        let outcome = run_fabric_search(&mut engine, &space, &config);
        assert!(outcome.experiments > 10);
        assert_eq!(outcome.label, "Random fabric");
    }

    #[test]
    fn fabric_campaigns_are_deterministic_per_seed() {
        let space = FabricSpace::for_host(&SubsystemId::F.host());
        let config = SearchConfig::collie(42).with_budget(SimDuration::from_secs(1800));
        let mut a_engine = FabricEngine::for_catalog(SubsystemId::F);
        let a = run_fabric_search(&mut a_engine, &space, &config);
        let mut b_engine = FabricEngine::for_catalog(SubsystemId::F);
        let b = run_fabric_search(&mut b_engine, &space, &config);
        assert_eq!(a, b);
    }

    #[test]
    fn legacy_two_host_knobs_cannot_select_a_nonexistent_fabric_mode() {
        // The fabric stack always had identity-keyed dedup and the
        // stuck-walk escape. The inert fields set to the old two-host
        // legacy values (no escape, containment-only dedup) must leave a
        // fabric campaign bit-identical to the default configuration.
        let space = FabricSpace::for_host(&SubsystemId::F.host());
        let config = SearchConfig::collie(42).with_budget(SimDuration::from_secs(1800));
        let mut a_engine = FabricEngine::for_catalog(SubsystemId::F);
        let a = run_fabric_search(&mut a_engine, &space, &config);
        let mut b_engine = FabricEngine::for_catalog(SubsystemId::F);
        let legacy = SearchConfig {
            stuck_skip_limit: None,
            identity_dedup: false,
            ..config
        };
        let b = run_fabric_search(&mut b_engine, &space, &legacy);
        assert_eq!(a, b);
    }

    #[test]
    fn local_storm_discoveries_are_not_labelled_cross_host() {
        let (mut engine, space, monitor, config) = setup();
        let mut evaluator;
        let mut campaign = campaign!(&mut engine, evaluator, &space, &monitor, &config);
        campaign.measure(&storming_culprit()).unwrap();
        let outcome = FabricOutcome::from_report("test".to_string(), campaign.finish());
        assert_eq!(outcome.discoveries.len(), 1);
        assert!(!outcome.discoveries[0].cross_host);
    }

    #[test]
    fn a_two_host_mutation_walk_explores_the_fabric_dims() {
        // Domain sanity: the kernel's mutate delegates to the fabric
        // space, so a walk reaches all 18 coordinates.
        let (_, space, _, _) = setup();
        let mut rng = SimRng::new(9);
        let base = space.random_point(&mut rng);
        let mut shapes = std::collections::HashSet::new();
        for _ in 0..300 {
            shapes.insert(space.mutate(&base, &mut rng).shape());
        }
        assert!(shapes.len() > 3, "fabric dims should be reachable");
    }
}
