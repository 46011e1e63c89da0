//! The generic campaign kernel: one search loop and one MFS extractor for
//! every [`SearchDomain`].
//!
//! [`CampaignLoop`] owns everything the strategies share — budget
//! accounting, the Algorithm-1 line-5 MFS skip (with the empty-MFS guard),
//! per-identity discovery dedup, the Figure-6 trace, rule-hit scoring, and
//! the campaign RNG. [`run_random`], [`run_bayesian`], and
//! [`run_annealing`] are the strategy drivers, and [`run_campaign`] picks
//! the one a config names; [`MfsExtractor`] is the §5.2
//! feature-necessity prober. All of them are generic over the domain
//! (the BO surrogate encodes points through
//! [`SearchDomain::surrogate_features`]), so the two-host and fabric
//! stacks execute literally the same code.
//!
//! Behaviour notes pinned by tests:
//!
//! * **RNG-stream stability** — a campaign's draws are a pure function of
//!   its seed; `tests/golden_traces.rs` diffs the full fig4/fig5/fig7
//!   grids against committed fixtures.
//! * **Stuck-walk escape** — a walk parked next to a discovered MFS region
//!   can propose free skips indefinitely; after `STUCK_SKIP_LIMIT`
//!   consecutive skips the schedule restarts from a fresh point (see
//!   `a_saturating_mfs_cannot_stall_the_annealer`).
//! * **Per-identity dedup** — an anomaly surfacing inside a known MFS
//!   region is redundant only if that MFS has the *same observable
//!   identity*; a loose MFS of a different identity must not shadow it
//!   (see `a_loose_mfs_does_not_shadow_a_distinct_identity_discovery`).

use crate::search::domain::{CampaignReport, ExtractionCost, SearchDomain};
use crate::search::{RuleHit, SearchConfig, SearchStrategy};
use crate::space::FeatureValue;
use collie_sim::rng::SimRng;
use collie_sim::series::TimeSeries;
use collie_sim::stats::OnlineStats;
use collie_sim::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// How many redundant (MFS-covered) samples the random baseline may reject
/// in a row before testing the next sample anyway. Rejecting a sample costs
/// no hardware time, but once the discovered MFSes cover most of the space
/// the baseline must not spin forever generating free rejects.
const MAX_CONSECUTIVE_SKIPS: u32 = 256;

/// Consecutive MFS-skipped proposals after which an annealing walk
/// abandons its neighbourhood and restarts from a fresh random point. The
/// walk's skips are free, but it makes no progress parked next to a
/// discovered MFS region.
const STUCK_SKIP_LIMIT: u32 = 24;

/// Bounded re-draws applied to the post-discovery (line 17) restart.
const MAX_RESTART_REDRAWS: usize = 8;

/// Number of candidates the BO baseline proposes per round.
const CANDIDATES_PER_ROUND: usize = 8;
/// Number of neighbours used by the BO surrogate.
const NEIGHBOURS: usize = 3;
/// Weight of the BO exploration bonus relative to the predicted value.
const EXPLORATION_WEIGHT: f64 = 0.3;

// MFS probe limits. §5.2: "we just do a few tests on each dimension". Two
// alternatives per categorical feature and one refinement step per numeric
// feature keep one extraction in the tens of experiments — the flat
// segments visible in Figure 6 — rather than consuming a large slice of the
// campaign budget.
/// Alternatives the MFS extractor probes per categorical feature.
const MAX_ALTERNATIVES: usize = 2;
/// Bisection steps the MFS extractor takes per numeric feature.
const MAX_BISECTION_STEPS: usize = 1;

/// Mutable campaign state shared by every strategy, generic over the
/// search domain.
pub struct CampaignLoop<'c, D: SearchDomain> {
    domain: D,
    config: &'c SearchConfig,
    rng: SimRng,
    elapsed: SimDuration,
    experiments: u32,
    skipped: u32,
    discoveries: Vec<D::Discovery>,
    rule_hits: Vec<RuleHit>,
    hit_rules: BTreeSet<String>,
    mfs_set: Vec<D::Mfs>,
    trace: TimeSeries,
    /// Test hook: every point actually measured, in measurement order
    /// (ranking probes included). Lets white-box tests state contracts
    /// like "no forced BO measurement landed inside a known MFS".
    #[cfg(test)]
    pub(crate) measured_log: Vec<D::Point>,
}

impl<'c, D: SearchDomain> CampaignLoop<'c, D> {
    /// A fresh campaign over `domain`, seeded from `config`.
    pub fn new(domain: D, config: &'c SearchConfig) -> Self {
        let trace = TimeSeries::new(domain.traced_counter());
        CampaignLoop {
            domain,
            config,
            rng: SimRng::new(config.seed),
            elapsed: SimDuration::ZERO,
            experiments: 0,
            skipped: 0,
            discoveries: Vec::new(),
            rule_hits: Vec::new(),
            hit_rules: BTreeSet::new(),
            mfs_set: Vec::new(),
            trace,
            #[cfg(test)]
            measured_log: Vec::new(),
        }
    }

    /// The campaign's configuration.
    pub fn config(&self) -> &SearchConfig {
        self.config
    }

    /// True once the simulated budget is spent.
    pub fn out_of_budget(&self) -> bool {
        self.elapsed >= self.config.budget
    }

    /// Draw a uniform random point from the domain's space.
    pub fn random_point(&mut self) -> D::Point {
        self.domain.random_point(&mut self.rng)
    }

    /// Mutate one coordinate of `point` (Algorithm 1 line 4).
    pub fn mutate(&mut self, point: &D::Point) -> D::Point {
        self.domain.mutate(point, &mut self.rng)
    }

    /// One draw from the campaign RNG in `[0, 1)` (Metropolis acceptance).
    pub fn gen_f64(&mut self) -> f64 {
        self.rng.gen_f64()
    }

    /// True if the point falls inside an already-discovered anomaly's MFS
    /// (Algorithm 1, line 5) and the MFS skip is enabled.
    ///
    /// An MFS that ended up with *no* necessary conditions (possible for a
    /// compound-overload workload where every single-feature change still
    /// reproduces the symptom) would match the entire space and starve the
    /// search, so empty MFSes never participate in the skip.
    pub fn matches_known_mfs(&mut self, point: &D::Point) -> bool {
        if !self.config.use_mfs {
            return false;
        }
        let matched = self
            .mfs_set
            .iter()
            .any(|m| !D::mfs_is_empty(m) && D::mfs_matches(m, point));
        if matched {
            self.skipped += 1;
        }
        matched
    }

    /// Run one experiment: charge its hardware cost, record the trace, and
    /// — if the point is anomalous — extract its MFS and log the discovery.
    /// Returns the measurement (for the caller to read its guiding counter)
    /// or `None` if the budget ran out before the experiment could run.
    ///
    /// Measurement follows the monitor's §6 procedure (four samples per
    /// iteration); the domain evaluator's memo cache answers the repeat
    /// samples, so the fidelity costs one flow-model evaluation, not four.
    pub fn measure(&mut self, point: &D::Point) -> Option<D::Measurement> {
        if self.out_of_budget() {
            return None;
        }
        #[cfg(test)]
        self.measured_log.push(point.clone());
        self.elapsed += self.domain.experiment_cost(point);
        self.experiments += 1;
        let (measurement, anomaly) = self.domain.assess(point);

        let trace_value = self.domain.trace_value(&measurement);
        let now = SimTime::ZERO + self.elapsed;
        if let Some(identity) = anomaly {
            self.trace.record_anomaly(now, trace_value);
            if self.domain.reports_rule_hits() {
                self.record_rule_hits(point);
            }
            self.handle_anomaly(point, identity);
        } else {
            self.trace.record(now, trace_value);
        }
        Some(measurement)
    }

    /// Scoring bookkeeping: note the first time each catalogued anomaly was
    /// triggered by a measured experiment. Never consulted by the search.
    fn record_rule_hits(&mut self, point: &D::Point) {
        let at = self.elapsed;
        for rule in self.domain.ground_truth(point) {
            if self.hit_rules.insert(rule.to_string()) {
                self.rule_hits.push(RuleHit {
                    at,
                    rule: rule.to_string(),
                });
            }
        }
    }

    fn handle_anomaly(&mut self, point: &D::Point, identity: D::Identity) {
        // Already covered by a known MFS of the *same observable identity*?
        // Then this is a redundant sighting of an anomaly we have, not a
        // new discovery. An anomaly of a different identity surfacing
        // inside a loose MFS region is operationally a different finding
        // and must not be shadowed by it. An *empty* MFS matches vacuously
        // and must not take part in this dedup — one degenerate extraction
        // would otherwise mark every later anomaly redundant and silence
        // the rest of the campaign (same guard as
        // [`CampaignLoop::matches_known_mfs`]).
        if self.mfs_set.iter().any(|m| {
            !D::mfs_is_empty(m) && D::mfs_identity(m) == identity && D::mfs_matches(m, point)
        }) {
            return;
        }
        let found_at = self.elapsed;
        let outcome = MfsExtractor::new(&mut self.domain).extract(point, &identity);
        // MFS extraction takes real experiments on real hardware; charge
        // them (this is the flat segment after each red cross in Figure 6).
        self.elapsed += outcome.elapsed;
        self.experiments += outcome.experiments;
        let trace_value = self.trace.samples().last().map(|s| s.value).unwrap_or(0.0);
        self.trace.record(SimTime::ZERO + self.elapsed, trace_value);

        let matched_rules = self
            .domain
            .ground_truth(point)
            .into_iter()
            .map(|r| r.to_string())
            .collect();
        self.mfs_set.push(outcome.mfs.clone());
        let discovery = self.domain.make_discovery(
            found_at,
            point.clone(),
            identity,
            outcome.mfs,
            matched_rules,
        );
        self.discoveries.push(discovery);
    }

    /// The guiding-counter value of a measurement (see
    /// [`SearchDomain::signal_value`]).
    pub fn signal_value(&self, measurement: &D::Measurement, target: Option<&str>) -> f64 {
        self.domain.signal_value(measurement, target)
    }

    /// The surrogate encoding of a point (see
    /// [`SearchDomain::surrogate_features`]).
    pub fn surrogate_features(&self, point: &D::Point) -> Vec<f64> {
        self.domain.surrogate_features(point)
    }

    /// The energy delta of Algorithm 1: negative means the new point is
    /// better (higher diagnostic counter / lower performance counter).
    pub fn energy_delta(&self, old: f64, new: f64) -> f64 {
        let eps = 1e-9;
        match self.config.signal {
            crate::search::SignalMode::Performance => (new - old) / old.abs().max(eps),
            crate::search::SignalMode::Diagnostic => (old - new) / new.abs().max(eps),
        }
    }

    /// The optimisation targets of the annealing/BO outer loops: the
    /// domain's rankable counters ordered by coefficient of variation over
    /// `probes` random experiments (the §7.2 procedure), or a single
    /// un-targeted schedule for domains with one fixed guiding signal (no
    /// probes are spent in that case).
    pub fn ranked_targets(&mut self, probes: usize) -> Vec<Option<String>> {
        let names = self.domain.rankable_counters();
        if names.is_empty() {
            return vec![None];
        }
        let mut stats: Vec<OnlineStats> = vec![OnlineStats::new(); names.len()];
        for _ in 0..probes {
            if self.out_of_budget() {
                break;
            }
            let point = self.random_point();
            if let Some(measurement) = self.measure(&point) {
                for (i, name) in names.iter().enumerate() {
                    stats[i].push(self.domain.signal_value(&measurement, Some(name)));
                }
            }
        }
        let ranked: Vec<(String, f64)> = names
            .into_iter()
            .zip(stats.iter().map(|s| s.coefficient_of_variation()))
            .collect();
        rank_by_variability(ranked)
    }

    /// Number of discoveries so far (strategies use this to notice that the
    /// last measurement uncovered something new and restart their walk).
    pub fn discovery_count(&self) -> usize {
        self.discoveries.len()
    }

    /// Cache statistics of the domain's evaluator.
    pub fn eval_stats(&self) -> crate::eval::EvalStats {
        self.domain.eval_stats()
    }

    /// Test hook: plant an already-extracted MFS as if a previous discovery
    /// had produced it.
    #[cfg(test)]
    pub(crate) fn plant_mfs(&mut self, mfs: D::Mfs) {
        self.mfs_set.push(mfs);
    }

    /// Finish the campaign and hand back the report for the domain's
    /// outcome wrapper.
    pub fn finish(self) -> CampaignReport<D> {
        CampaignReport {
            discoveries: self.discoveries,
            rule_hits: self.rule_hits,
            trace: self.trace,
            experiments: self.experiments,
            skipped_by_mfs: self.skipped,
            elapsed: self.elapsed,
        }
    }
}

/// Order `(counter, coefficient-of-variation)` pairs by variability,
/// descending, into the annealing/BO target schedule.
///
/// A counter whose probe samples produce a non-finite CoV (a NaN gauge
/// value propagates through the online mean) must not be compared with
/// `partial_cmp(..).unwrap_or(Equal)` directly — NaN compares `Equal`
/// against *everything*, so its final position would depend on the sort
/// algorithm's visit order rather than on the data. Clamping to 0.0 gives
/// such counters the same rank as a constant counter (no usable signal)
/// and keeps the ordering total; ties preserve the domain's stable counter
/// order (the sort is stable).
fn rank_by_variability(mut ranked: Vec<(String, f64)>) -> Vec<Option<String>> {
    for entry in &mut ranked {
        if !entry.1.is_finite() {
            entry.1 = 0.0;
        }
    }
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    ranked.into_iter().map(|(n, _)| Some(n)).collect()
}

/// Run one campaign over `domain` with the strategy driver `config` names
/// (the crate's one strategy dispatch) and hand back its report.
pub fn run_campaign<D: SearchDomain>(domain: D, config: &SearchConfig) -> CampaignReport<D> {
    let mut campaign = CampaignLoop::new(domain, config);
    match config.strategy {
        SearchStrategy::Random => run_random(&mut campaign),
        SearchStrategy::Bayesian => run_bayesian(&mut campaign),
        SearchStrategy::SimulatedAnnealing => run_annealing(&mut campaign),
    }
    campaign.finish()
}

/// Run the random baseline (black-box fuzzing, §7.2) until the budget is
/// exhausted.
pub fn run_random<D: SearchDomain>(campaign: &mut CampaignLoop<'_, D>) {
    let mut consecutive_skips = 0u32;
    while !campaign.out_of_budget() {
        let point = campaign.random_point();
        if consecutive_skips < MAX_CONSECUTIVE_SKIPS && campaign.matches_known_mfs(&point) {
            consecutive_skips += 1;
            continue;
        }
        consecutive_skips = 0;
        if campaign.measure(&point).is_none() {
            break;
        }
    }
}

/// Run the annealing campaign (Algorithm 1) until the budget is exhausted.
///
/// The outer loop follows §7.2: the domain's guiding counters are ranked by
/// their variability over ten random probes, then optimised one after
/// another, cycling until the time budget is spent. Domains with a single
/// fixed guiding signal (no rankable counters) run un-targeted schedules
/// back to back.
pub fn run_annealing<D: SearchDomain>(campaign: &mut CampaignLoop<'_, D>) {
    // `ranked_targets` is never empty: a domain without rankable counters
    // yields the single un-targeted schedule `[None]`.
    let targets = campaign.ranked_targets(10);
    let mut target_index = 0usize;
    while !campaign.out_of_budget() {
        let target = targets[target_index % targets.len()].clone();
        anneal_schedule(campaign, target.as_deref());
        target_index += 1;
    }
}

/// Draw the fresh random point a discovery (or a stuck walk) restarts the
/// walk from.
///
/// Algorithm 1 line 5 applies to the restart too: a random draw can land
/// inside the MFS that was just extracted (its region is by construction a
/// productive part of the space), and measuring it would both waste an
/// experiment and re-flag a known anomaly. Re-draw — bounded, so a set of
/// MFSes that happens to cover most of the space cannot livelock the
/// schedule — until the point is uncovered.
pub(crate) fn draw_restart_point<D: SearchDomain>(campaign: &mut CampaignLoop<'_, D>) -> D::Point {
    draw_point_outside_mfs(campaign, MAX_RESTART_REDRAWS)
}

/// Bounded-re-draw core shared by the restart and the BO budget-drain
/// fallback: redraw while the point sits inside a known MFS, up to
/// `max_redraws` times, then hand back whatever the last draw produced
/// (so a set of MFSes covering the whole space cannot livelock the
/// caller).
fn draw_point_outside_mfs<D: SearchDomain>(
    campaign: &mut CampaignLoop<'_, D>,
    max_redraws: usize,
) -> D::Point {
    let mut point = campaign.random_point();
    for _ in 0..max_redraws {
        if !campaign.matches_known_mfs(&point) {
            return point;
        }
        point = campaign.random_point();
    }
    point
}

/// One annealing schedule driving the guiding signal (optionally one
/// specific `target` counter) to its extreme region.
fn anneal_schedule<D: SearchDomain>(campaign: &mut CampaignLoop<'_, D>, target: Option<&str>) {
    let config = campaign.config().clone();
    // Algorithm 1 line 1: measure a random starting point.
    let mut current = campaign.random_point();
    let Some(measurement) = campaign.measure(&current) else {
        return;
    };
    let mut current_value = campaign.signal_value(&measurement, target);

    let mut temperature = config.initial_temperature;
    let mut stuck_skips = 0u32;
    while temperature > config.min_temperature {
        for _ in 0..config.iterations_per_temperature {
            if campaign.out_of_budget() {
                return;
            }
            // Line 4: mutate one search dimension.
            let candidate = campaign.mutate(&current);
            // Line 5: skip workloads already covered by a known anomaly —
            // but escape the neighbourhood if the walk is only producing
            // covered proposals (`STUCK_SKIP_LIMIT`).
            if campaign.matches_known_mfs(&candidate) {
                stuck_skips += 1;
                if stuck_skips >= STUCK_SKIP_LIMIT {
                    stuck_skips = 0;
                    current = draw_restart_point(campaign);
                    if let Some(m) = campaign.measure(&current) {
                        current_value = campaign.signal_value(&m, target);
                    }
                }
                continue;
            }
            stuck_skips = 0;
            let discoveries_before = campaign.discovery_count();
            let Some(measurement) = campaign.measure(&candidate) else {
                return;
            };
            let candidate_value = campaign.signal_value(&measurement, target);

            // Lines 14–17: a new anomaly restarts the walk from a random
            // point so the schedule keeps exploring.
            if campaign.discovery_count() > discoveries_before {
                current = draw_restart_point(campaign);
                if let Some(m) = campaign.measure(&current) {
                    current_value = campaign.signal_value(&m, target);
                }
                continue;
            }

            // Lines 7–13: Metropolis acceptance on the energy delta.
            let delta = campaign.energy_delta(current_value, candidate_value);
            let accept = if delta < 0.0 {
                true
            } else {
                let probability = (-delta / temperature.max(1e-6)).exp();
                campaign.gen_f64() < probability
            };
            if accept {
                current = candidate;
                current_value = candidate_value;
            }
        }
        temperature *= config.alpha;
    }
}

/// Run the Bayesian-optimisation baseline (§7.2) until the budget is
/// exhausted.
///
/// The paper compares Collie against the widely used BO library of
/// Nogueira \[31\], with the counter values as the optimisation target and
/// the MFS skip applied for fairness. A full Gaussian-process BO stack is
/// out of scope for this reproduction (and would pull in heavy numeric
/// dependencies), so this driver implements the same *shape* of algorithm
/// with a light surrogate:
///
/// * every observed `(point, counter value)` pair is remembered,
/// * candidate points are proposed each round (mutations of the best
///   observed point plus fresh random points),
/// * each candidate is scored by a distance-weighted nearest-neighbour
///   estimate of the counter plus an exploration bonus for being far from
///   everything observed (the usual exploitation/exploration trade-off),
/// * the best-scoring candidate is measured next.
///
/// Distances are measured in the domain's
/// [`surrogate_features`](SearchDomain::surrogate_features) encoding, so
/// the driver is generic: the two-host stack encodes the 16-dim workload
/// vector, the fabric stack appends its three fabric coordinates. Like the
/// paper's BO baseline, this works when the counter surface is smooth in
/// the encoded feature space and struggles with the abrupt changes the
/// discrete dimensions cause — which is exactly the behaviour the
/// evaluation section discusses.
pub fn run_bayesian<D: SearchDomain>(campaign: &mut CampaignLoop<'_, D>) {
    // `ranked_targets` is never empty: a domain without rankable counters
    // yields the single un-targeted schedule `[None]`.
    let targets = campaign.ranked_targets(10);
    let maximize = matches!(
        campaign.config().signal,
        crate::search::SignalMode::Diagnostic
    );

    let mut counter_index = 0usize;
    while !campaign.out_of_budget() {
        let target = targets[counter_index % targets.len()].clone();
        let measured = optimise_one_counter(campaign, target.as_deref(), maximize);
        // Once the discovered MFSes cover most of the proposal distribution
        // a pass can reject every candidate without running an experiment;
        // budget must still drain, so force one random measurement. The
        // forced draw honours the Algorithm-1 line-5 skip like every other
        // measurement this driver makes ("with the MFS skip applied for
        // fairness"): re-draw — bounded like the annealing restart, with
        // the random baseline's skip allowance since this *is* a forced
        // random sample — and measure the last draw regardless, so a set
        // of MFSes covering the whole space cannot livelock the drain.
        if measured == 0 && !campaign.out_of_budget() {
            let point = draw_point_outside_mfs(campaign, MAX_CONSECUTIVE_SKIPS as usize);
            if campaign.measure(&point).is_none() {
                return;
            }
        }
        counter_index += 1;
    }
}

/// One BO pass driving `target` (or the domain's aggregate signal) to its
/// extreme region. Returns the number of experiments the pass actually
/// ran.
fn optimise_one_counter<D: SearchDomain>(
    campaign: &mut CampaignLoop<'_, D>,
    target: Option<&str>,
    maximize: bool,
) -> u32 {
    let mut measured = 0u32;
    // Seed the surrogate with a handful of random observations.
    let mut history: Vec<(Vec<f64>, D::Point, f64)> = Vec::new();
    for _ in 0..4 {
        if campaign.out_of_budget() {
            return measured;
        }
        let point = campaign.random_point();
        if campaign.matches_known_mfs(&point) {
            continue;
        }
        if let Some(m) = campaign.measure(&point) {
            measured += 1;
            let value = campaign.signal_value(&m, target);
            history.push((campaign.surrogate_features(&point), point, value));
        }
    }

    // Rounds proportional to the annealing schedule length so both
    // strategies spend comparable time per counter.
    let rounds = campaign.config().iterations_per_temperature as usize * 12;
    for _ in 0..rounds {
        if campaign.out_of_budget() {
            return measured;
        }
        let best_point = best_of(&history, maximize)
            .cloned()
            .unwrap_or_else(|| campaign.random_point());

        // Propose candidates: exploit around the incumbent, explore randomly.
        let mut candidates = Vec::with_capacity(CANDIDATES_PER_ROUND);
        for i in 0..CANDIDATES_PER_ROUND {
            let candidate = if i % 2 == 0 {
                campaign.mutate(&best_point)
            } else {
                campaign.random_point()
            };
            candidates.push(candidate);
        }

        // Acquisition: surrogate prediction + exploration bonus.
        let mut best_candidate: Option<(f64, D::Point)> = None;
        for candidate in candidates {
            if campaign.matches_known_mfs(&candidate) {
                continue;
            }
            let features = campaign.surrogate_features(&candidate);
            let (predicted, distance) = predict(&history, &features);
            let oriented = if maximize { predicted } else { -predicted };
            let score = oriented + EXPLORATION_WEIGHT * distance * oriented.abs().max(1.0);
            if best_candidate
                .as_ref()
                .map(|(s, _)| score > *s)
                .unwrap_or(true)
            {
                best_candidate = Some((score, candidate));
            }
        }
        let Some((_, chosen)) = best_candidate else {
            continue;
        };
        let discoveries_before = campaign.discovery_count();
        let Some(m) = campaign.measure(&chosen) else {
            return measured;
        };
        measured += 1;
        let value = campaign.signal_value(&m, target);
        history.push((campaign.surrogate_features(&chosen), chosen, value));
        if campaign.discovery_count() > discoveries_before {
            // Like the annealing search, restart exploration after a find so
            // the surrogate does not keep proposing the same region.
            history.clear();
        }
    }
    measured
}

/// The incumbent of a BO pass: the best point observed so far.
fn best_of<P>(history: &[(Vec<f64>, P, f64)], maximize: bool) -> Option<&P> {
    history
        .iter()
        .max_by(|a, b| {
            let (x, y) = if maximize { (a.2, b.2) } else { (-a.2, -b.2) };
            x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal)
        })
        .map(|(_, p, _)| p)
}

/// Distance-weighted k-nearest-neighbour prediction plus the distance to
/// the closest observation (used as the exploration term).
///
/// An empty history carries no information, so the prior is neutral for
/// both optimisation directions: predicted value 0.0 at full exploration
/// distance 1.0. (A directional sentinel like `f64::MAX / 1e6` would
/// poison the acquisition score's `oriented.abs().max(1.0)` scaling in
/// minimise mode — the exploration term would be amplified by an
/// astronomic magnitude that no real observation produces.)
fn predict<P>(history: &[(Vec<f64>, P, f64)], features: &[f64]) -> (f64, f64) {
    if history.is_empty() {
        return (0.0, 1.0);
    }
    let mut distances: Vec<(f64, f64)> = history
        .iter()
        .map(|(f, _, v)| (euclidean(f, features), *v))
        .collect();
    distances.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let nearest = &distances[..distances.len().min(NEIGHBOURS)];
    let mut weight_sum = 0.0;
    let mut value_sum = 0.0;
    for (d, v) in nearest {
        let w = 1.0 / (d + 1e-3);
        weight_sum += w;
        value_sum += w * v;
    }
    (value_sum / weight_sum, distances[0].0)
}

fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// The result of one generic extraction: the domain's MFS plus the cost it
/// incurred.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractionParts<M> {
    /// The extracted minimal feature set.
    pub mfs: M,
    /// Experiments spent probing.
    pub experiments: u32,
    /// Simulated wall-clock spent probing (each probe costs what a normal
    /// experiment costs — visible as the flat segments of Figure 6).
    pub elapsed: SimDuration,
}

/// Extracts minimal feature sets by probing the domain (§5.2).
///
/// When the search finds an anomalous point, Collie asks: *which of its
/// features are actually necessary to reproduce the anomaly?* With only a
/// handful of dimensions and a few factors each, every feature is probed
/// directly. For a categorical feature, the alternative values are tried —
/// if none still triggers the anomaly, the feature is necessary and must
/// keep its value. For a numeric feature, the ends of its ladder are probed
/// to learn the direction of the condition (at-least or at-most) and a few
/// bisection steps find the coarse threshold, exactly as the paper
/// discretises continuous dimensions into value regions.
///
/// Probes run through the domain's shared memoized evaluator, which matters
/// for cost: the extractor is the heaviest revisiter in a campaign — it
/// re-measures the anomalous point it was handed and its single-feature
/// neighbourhoods overlap across extractions — so routing it through the
/// campaign's memo cache removes most of the recompute while the simulated
/// probe cost keeps being charged.
pub struct MfsExtractor<'d, D: SearchDomain> {
    domain: &'d mut D,
}

impl<'d, D: SearchDomain> MfsExtractor<'d, D> {
    /// A new extractor bound to a domain.
    pub fn new(domain: &'d mut D) -> Self {
        MfsExtractor { domain }
    }

    /// Run one probe experiment and report whether it still reproduces the
    /// anomaly under extraction.
    ///
    /// Probes are ordinary monitored iterations, so they follow the §6
    /// four-sample procedure; the shared evaluator's cache makes the
    /// repeats free, while the simulated cost is charged in full.
    fn probe(
        &mut self,
        point: &D::Point,
        signature: &D::Signature,
        cost: &mut ExtractionCost,
    ) -> bool {
        cost.charge(self.domain.experiment_cost(point));
        self.domain.reproduces(point, signature)
    }

    /// Extract the MFS of an anomalous point.
    pub fn extract(
        &mut self,
        anomalous: &D::Point,
        identity: &D::Identity,
    ) -> ExtractionParts<D::Mfs> {
        let mut cost = ExtractionCost::default();
        let signature = self.domain.begin_extraction(anomalous, identity, &mut cost);
        let mut conditions = BTreeMap::new();

        for feature in self.domain.features() {
            match self.domain.feature_value(anomalous, feature) {
                FeatureValue::Number(current) => {
                    if let Some(condition) =
                        self.probe_numeric(anomalous, feature, current, &signature, &mut cost)
                    {
                        conditions.insert(feature, condition);
                    }
                }
                current => {
                    if let Some(condition) =
                        self.probe_categorical(anomalous, feature, current, &signature, &mut cost)
                    {
                        conditions.insert(feature, condition);
                    }
                }
            }
        }

        ExtractionParts {
            mfs: self
                .domain
                .make_mfs(identity, conditions, anomalous.clone()),
            experiments: cost.experiments,
            elapsed: cost.elapsed,
        }
    }

    fn probe_categorical(
        &mut self,
        anomalous: &D::Point,
        feature: D::Feature,
        current: FeatureValue,
        signature: &D::Signature,
        cost: &mut ExtractionCost,
    ) -> Option<crate::monitor::FeatureCondition> {
        let alternatives = self.domain.alternatives(anomalous, feature);
        if alternatives.is_empty() {
            return None;
        }
        for alt in alternatives.iter().take(MAX_ALTERNATIVES) {
            let mut probe = anomalous.clone();
            self.domain.apply(&mut probe, feature, alt);
            if self.probe(&probe, signature, cost) {
                // Some alternative still triggers: the feature's value is
                // not necessary.
                return None;
            }
        }
        Some(crate::monitor::FeatureCondition::Equals(current))
    }

    fn probe_numeric(
        &mut self,
        anomalous: &D::Point,
        feature: D::Feature,
        current: u64,
        signature: &D::Signature,
        cost: &mut ExtractionCost,
    ) -> Option<crate::monitor::FeatureCondition> {
        use crate::monitor::FeatureCondition;
        let ladder: Vec<u64> = self
            .domain
            .alternatives(anomalous, feature)
            .into_iter()
            .filter_map(|v| match v {
                FeatureValue::Number(n) => Some(n),
                _ => None,
            })
            .collect();
        if ladder.is_empty() {
            return None;
        }
        let lowest = *ladder.iter().min().unwrap();
        let highest = *ladder.iter().max().unwrap();

        let triggers_at = |this: &mut Self, value: u64, cost: &mut ExtractionCost| {
            if value == current {
                return true;
            }
            let mut probe = anomalous.clone();
            this.domain
                .apply(&mut probe, feature, &FeatureValue::Number(value));
            this.probe(&probe, signature, cost)
        };

        let low_triggers = triggers_at(self, lowest.min(current), cost);
        let high_triggers = triggers_at(self, highest.max(current), cost);

        match (low_triggers, high_triggers) {
            // The feature's value does not matter.
            (true, true) => None,
            // Condition is "at least": find the coarse threshold between
            // the lowest non-triggering rung and the current value.
            (false, true) => Some(FeatureCondition::AtLeast(self.bisect(
                anomalous, feature, &ladder, current, signature, cost, /*at_least=*/ true,
            ))),
            // Condition is "at most".
            (true, false) => Some(FeatureCondition::AtMost(self.bisect(
                anomalous, feature, &ladder, current, signature, cost, /*at_least=*/ false,
            ))),
            // Only the observed region triggers.
            (false, false) => Some(FeatureCondition::Equals(FeatureValue::Number(current))),
        }
    }

    /// Coarse threshold search over the rungs between the failing end of
    /// the ladder and the current (triggering) value.
    #[allow(clippy::too_many_arguments)]
    fn bisect(
        &mut self,
        anomalous: &D::Point,
        feature: D::Feature,
        ladder: &[u64],
        current: u64,
        signature: &D::Signature,
        cost: &mut ExtractionCost,
        at_least: bool,
    ) -> u64 {
        // Candidate rungs strictly between the far end and the current
        // value.
        let mut candidates: Vec<u64> = ladder
            .iter()
            .copied()
            .filter(|&v| if at_least { v < current } else { v > current })
            .collect();
        candidates.sort_unstable();
        if at_least {
            candidates.reverse();
        }
        let mut threshold = current;
        for value in candidates.into_iter().take(MAX_BISECTION_STEPS) {
            let mut probe = anomalous.clone();
            self.domain
                .apply(&mut probe, feature, &FeatureValue::Number(value));
            if self.probe(&probe, signature, cost) {
                threshold = value;
            } else {
                break;
            }
        }
        threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::WorkloadEngine;
    use crate::eval::Evaluator;
    use crate::monitor::{AnomalyMonitor, FeatureCondition, Mfs, Symptom};
    use crate::search::{run_search, SearchConfig, SearchStrategy, WorkloadDomain};
    use crate::space::{Feature, SearchPoint, SearchSpace};
    use collie_rnic::subsystems::SubsystemId;
    use collie_rnic::workload::{Opcode, Transport};
    use std::collections::BTreeMap;

    fn setup() -> (WorkloadEngine, SearchSpace, AnomalyMonitor) {
        (
            WorkloadEngine::for_catalog(SubsystemId::F),
            SearchSpace::for_host(&SubsystemId::F.host()),
            AnomalyMonitor::new(),
        )
    }

    /// An MFS whose single condition covers the entire space: every point
    /// has a WQE batch of at least 1, so once planted the whole space is
    /// "already discovered" while the MFS still counts as non-empty.
    fn saturating_mfs() -> Mfs {
        let mut conditions = BTreeMap::new();
        conditions.insert(Feature::WqeBatch, FeatureCondition::AtLeast(1));
        Mfs {
            symptom: Symptom::PauseStorm,
            conditions,
            example: SearchPoint::benign(),
        }
    }

    #[test]
    fn restart_points_avoid_known_mfs_regions() {
        // Algorithm 1 line 5 applies to the line-17 restart: after a
        // discovery, the fresh random point must not sit inside an
        // already-extracted MFS (the walk would restart right where it just
        // finished). Plant an MFS covering a large slice of the space and
        // check that restart draws consistently land outside it.
        let (mut engine, space, monitor) = setup();
        let config = SearchConfig::collie(9);
        let mut evaluator = Evaluator::new(&mut engine);
        let domain = WorkloadDomain::new(&mut evaluator, &monitor, &space, config.signal);
        let mut campaign = CampaignLoop::new(domain, &config);
        let mut conditions = BTreeMap::new();
        conditions.insert(Feature::WqeBatch, FeatureCondition::AtLeast(16));
        let planted = Mfs {
            symptom: Symptom::PauseStorm,
            conditions,
            example: SearchPoint::benign(),
        };
        campaign.plant_mfs(planted.clone());
        for _ in 0..25 {
            let point = draw_restart_point(&mut campaign);
            assert!(
                !planted.matches(&point),
                "restart landed inside a known MFS: {point}"
            );
        }
    }

    #[test]
    fn a_saturating_mfs_cannot_stall_the_annealer() {
        // Regression for the stuck-walk escape. With the whole space
        // covered by one (non-empty) MFS, a walk without the escape burns
        // every schedule proposing free skips — roughly a hundred
        // consecutive rejects per measured experiment. The escape forces a
        // restart measurement after `STUCK_SKIP_LIMIT` consecutive skips,
        // so skips per experiment stay bounded by the limit. The inert
        // `stuck_skip_limit: None` once disabled the escape; it must not
        // any more.
        for stuck_skip_limit in [Some(24), None] {
            let (mut engine, space, monitor) = setup();
            let config = SearchConfig {
                stuck_skip_limit,
                ..SearchConfig::collie(7)
            }
            .with_budget(collie_sim::time::SimDuration::from_secs(3600));
            let mut evaluator = Evaluator::new(&mut engine);
            let domain = WorkloadDomain::new(&mut evaluator, &monitor, &space, config.signal);
            let mut campaign = CampaignLoop::new(domain, &config);
            campaign.plant_mfs(saturating_mfs());
            run_annealing(&mut campaign);
            let report = campaign.finish();
            assert!(report.experiments > 0, "budget must still drain");
            assert!(
                report.skipped_by_mfs <= 30 * report.experiments,
                "stuck_skip_limit={stuck_skip_limit:?}: the stuck-walk escape must bound \
                 free skips per experiment ({} skips / {} experiments)",
                report.skipped_by_mfs,
                report.experiments
            );
        }
    }

    #[test]
    fn a_loose_mfs_does_not_shadow_a_distinct_identity_discovery() {
        // Identity-keyed dedup: a loose pause-storm MFS covers the whole
        // space, and a low-throughput anomaly is then measured inside its
        // region. Containment-only dedup would silently swallow it;
        // identity-keyed dedup records it as the operationally distinct
        // finding it is. The inert `identity_dedup: false` once selected
        // containment-only dedup; it must not any more.
        let (mut engine, space, monitor) = setup();
        // Appendix A anomaly #2: low throughput without pause.
        let mut low_throughput = SearchPoint::benign();
        low_throughput.transport = Transport::Ud;
        low_throughput.opcode = Opcode::Send;
        low_throughput.num_qps = 16;
        low_throughput.wqe_batch = 4;
        low_throughput.recv_queue_depth = 1024;
        low_throughput.send_queue_depth = 1024;
        low_throughput.mtu = 1024;
        low_throughput.messages = vec![1024];

        for identity_dedup in [true, false] {
            let config = SearchConfig {
                identity_dedup,
                ..SearchConfig::collie(3)
            }
            .with_budget(collie_sim::time::SimDuration::from_secs(7200));
            let mut evaluator = Evaluator::new(&mut engine);
            let domain = WorkloadDomain::new(&mut evaluator, &monitor, &space, config.signal);
            let mut campaign = CampaignLoop::new(domain, &config);
            campaign.plant_mfs(saturating_mfs());
            campaign.measure(&low_throughput).unwrap();
            let report = campaign.finish();
            assert_eq!(
                report.discoveries.len(),
                1,
                "identity_dedup={identity_dedup}"
            );
            assert_eq!(report.discoveries[0].symptom, Symptom::LowThroughput);
        }
    }

    #[test]
    fn predictor_interpolates_history() {
        let a = SearchPoint::benign();
        let mut b = SearchPoint::benign();
        b.num_qps = 2048;
        let enc = WorkloadDomain::workload_surrogate;
        let history = vec![(enc(&a), a.clone(), 10.0), (enc(&b), b.clone(), 30.0)];
        let (near_a, _) = predict(&history, &enc(&a));
        assert!((near_a - 10.0).abs() < 5.0);
        assert_eq!(best_of(&history, true).unwrap(), &b);
        assert_eq!(best_of(&history, false).unwrap(), &a);
        // An empty history has no information: the prior is the neutral
        // (0.0, 1.0) regardless of the optimisation direction, so the
        // acquisition's `oriented.abs().max(1.0)` scaling stays at 1.0
        // instead of being poisoned by a directional sentinel.
        let empty: Vec<(Vec<f64>, SearchPoint, f64)> = Vec::new();
        assert_eq!(predict(&empty, &enc(&a)), (0.0, 1.0));
        assert!(best_of(&empty, true).is_none());
    }

    #[test]
    fn bo_campaign_runs_and_discovers_something() {
        let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
        let space = SearchSpace::for_host(&SubsystemId::F.host());
        let config = SearchConfig {
            strategy: SearchStrategy::Bayesian,
            ..SearchConfig::collie(21)
        }
        .with_budget(collie_sim::time::SimDuration::from_secs(2 * 3600));
        let outcome = run_search(&mut engine, &space, &config);
        assert!(!outcome.discoveries.is_empty());
        assert!(outcome.experiments > 30);
    }

    #[test]
    fn bo_budget_drain_fallback_honours_the_mfs_skip() {
        // Regression for the MFS-skip bypass: when a BO pass rejected every
        // candidate, the budget-drain fallback measured `random_point()`
        // without consulting `matches_known_mfs`, so the "BO with the MFS
        // skip applied for fairness" baseline quietly re-measured known-MFS
        // regions. Plant an MFS covering every WQE batch above the lowest
        // rung (7/8 of draws) and disable the surrogate rounds
        // (`iterations_per_temperature: 0`): a pass then measures only the
        // rare seed draws that land outside, and most passes end with zero
        // measurements, forcing the fallback. With the bounded re-draw the
        // forced measurement must land outside the planted region too —
        // every point this campaign measures after the 10 ranking probes
        // is outside — where the pre-fix fallback measured the first
        // (almost always covered) draw.
        let (mut engine, space, monitor) = setup();
        let config = SearchConfig {
            strategy: SearchStrategy::Bayesian,
            iterations_per_temperature: 0,
            ..SearchConfig::collie(13)
        }
        .with_budget(collie_sim::time::SimDuration::from_secs(3600));
        let mut evaluator = Evaluator::new(&mut engine);
        let domain = WorkloadDomain::new(&mut evaluator, &monitor, &space, config.signal);
        let mut campaign = CampaignLoop::new(domain, &config);
        let mut conditions = BTreeMap::new();
        conditions.insert(Feature::WqeBatch, FeatureCondition::AtLeast(2));
        let planted = Mfs {
            symptom: Symptom::PauseStorm,
            conditions,
            example: SearchPoint::benign(),
        };
        campaign.plant_mfs(planted.clone());
        run_bayesian(&mut campaign);
        let measured = campaign.measured_log.clone();
        let report = campaign.finish();
        assert!(
            report.experiments > 20,
            "the fallback must still drain the budget ({} experiments)",
            report.experiments
        );
        // The §7.2 ranking probes are unconditional (the annealer's are
        // too); every measurement after them goes through the skip.
        for point in &measured[10..] {
            assert!(
                !planted.matches(point),
                "a forced BO measurement landed inside a known MFS: {point}"
            );
        }
        // Non-vacuousness: the planted MFS rejected plenty of draws, so
        // passes with zero measurements (the fallback trigger) occurred.
        // (`experiments` includes MFS-extraction probes, which never pass
        // through the skip, so the two counters are not directly
        // comparable.)
        assert!(
            report.skipped_by_mfs > 50,
            "the planted MFS should dominate the proposal stream \
             ({} skips / {} experiments)",
            report.skipped_by_mfs,
            report.experiments
        );
    }

    #[test]
    fn non_finite_cov_counters_rank_deterministically() {
        // A counter whose samples include a NaN gauge value propagates NaN
        // through the online mean and past the zero-mean guard.
        let mut nan_stats = OnlineStats::new();
        nan_stats.push(f64::NAN);
        nan_stats.push(1.0);
        assert!(nan_stats.coefficient_of_variation().is_nan());
        // `partial_cmp(..).unwrap_or(Equal)` would leave such a counter's
        // rank to the sort algorithm's visit order; the clamp gives it a
        // constant counter's rank (0.0) and the stable sort pins ties to
        // the domain's counter order.
        // collie-lint: begin(counter-name, reason = "synthetic counter names exercising the NaN/∞ ranking clamp; never published to a registry")
        let ranked = vec![
            ("diag/a".to_string(), f64::NAN),
            ("diag/b".to_string(), 0.5),
            ("diag/c".to_string(), f64::NEG_INFINITY),
            ("diag/d".to_string(), 2.0),
            ("diag/e".to_string(), 0.0),
        ];
        let order: Vec<String> = rank_by_variability(ranked).into_iter().flatten().collect();
        assert_eq!(order, ["diag/d", "diag/b", "diag/a", "diag/c", "diag/e"]);
        // collie-lint: end(counter-name)
    }

    #[test]
    fn the_two_legacy_knobs_only_change_campaigns_that_hit_them() {
        // The two inert fields set to their old legacy values (no escape,
        // containment-only dedup) leave a campaign bit-identical: they
        // gate no behaviour and reorder no RNG draw.
        let space = SearchSpace::for_host(&SubsystemId::F.host());
        let config =
            SearchConfig::collie(42).with_budget(collie_sim::time::SimDuration::from_secs(900));
        let mut a_engine = WorkloadEngine::for_catalog(SubsystemId::F);
        let a = run_search(&mut a_engine, &space, &config);
        let mut b_engine = WorkloadEngine::for_catalog(SubsystemId::F);
        let legacy = SearchConfig {
            stuck_skip_limit: None,
            identity_dedup: false,
            ..config
        };
        let b = run_search(&mut b_engine, &space, &legacy);
        assert_eq!(a, b);
    }
}
