//! Outside-in layer tracing: a delegating [`SearchDomain`] that times every
//! call the campaign kernel makes into the domain, plus replays of each
//! campaign's computed points on fresh engines.
//!
//! No program code changes: the wrapper is driven by the public
//! `CampaignLoop::new` and `kernel::run_*` loops, and the engine, flow
//! model and monitor are timed through their public entry points.
//!
//! Attribution of one campaign's wall-clock (its *span*):
//!
//! * `space` — `random_point` + `mutate` (timed 1 in [`SAMPLE_EVERY`]).
//! * `kernel.mfs_match` — `mfs_matches` (timed 1 in [`SAMPLE_EVERY`]).
//! * `kernel.bo_encode` — `surrogate_features` (BO only).
//! * `eval.hit` / `eval.miss` — `assess`, split by diffing `eval_stats()`
//!   around the call: a call that raised the local miss count is a miss.
//! * `engine.ground_truth` — the scoring oracle the kernel consults.
//! * `monitor.probe` — `reproduces` calls during an MFS extraction.
//! * `monitor.extract` — the rest of an extraction, from
//!   `begin_extraction` to the end of `make_mfs`.
//! * `kernel.self` — the span minus all of the above: the strategy loops' own
//!   bookkeeping (annealing, BO surrogate prediction) and the cheap
//!   callbacks left untimed (`experiment_cost`, `signal_value`, …).
//!
//! Sub-microsecond calls are counted exactly but timed on a fixed 1-in-N
//! sample; their time is the sampled mean times the exact count. Every
//! timed span has the cost of an empty span, timed right after it,
//! subtracted, so clock-read overhead cancels even as the machine's speed
//! drifts.

use collie_core::eval::EvalStats;
use collie_core::monitor::{FeatureCondition, Symptom};
use collie_core::search::{ExtractionCost, SearchDomain};
use collie_core::space::FeatureValue;
use collie_sim::rng::SimRng;
use collie_sim::time::SimDuration;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// Sub-microsecond calls (proposals, MFS matches) are timed once every
/// this many calls.
pub const SAMPLE_EVERY: u64 = 32;

/// Nanoseconds since `start`, saturating.
pub fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Run `f` and return its result with its wall-clock in nanoseconds, net
/// of the cost of timing: an empty span timed right after is subtracted.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let start = Instant::now();
    let result = f();
    let gross = ns_since(start);
    let empty = ns_since(Instant::now());
    (result, gross.saturating_sub(empty))
}

/// One call site's exact call count and (possibly sampled) time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    /// Calls made.
    pub calls: u64,
    /// Calls that were timed.
    pub timed: u64,
    /// Net nanoseconds of the timed calls.
    pub ns: u64,
}

impl Acc {
    /// Count one sampled call and report whether to time it.
    fn tick(&mut self) -> bool {
        let time_it = self.calls % SAMPLE_EVERY == 0;
        self.calls += 1;
        time_it
    }

    /// Record one timed call.
    fn add(&mut self, ns: u64) {
        self.timed += 1;
        self.ns += ns;
    }

    /// Count and time one call.
    pub fn record(&mut self, ns: u64) {
        self.calls += 1;
        self.add(ns);
    }

    /// Estimated total nanoseconds over all calls: the timed calls' mean
    /// times the exact call count.
    pub fn total_ns(&self) -> f64 {
        if self.timed == 0 {
            return 0.0;
        }
        self.ns as f64 * self.calls as f64 / self.timed as f64
    }

    /// Component-wise sum.
    pub fn merge(&mut self, other: Acc) {
        self.calls += other.calls;
        self.timed += other.timed;
        self.ns += other.ns;
    }
}

thread_local! {
    /// `mfs_matches` is an associated function (no `self`), so its tally
    /// lives in a thread-local; the traced run is single-threaded.
    static MFS_MATCH: Cell<Acc> = Cell::new(Acc::default());
}

/// Take (and reset) this thread's `mfs_matches` tally.
pub fn take_mfs_match() -> Acc {
    MFS_MATCH.with(|cell| cell.replace(Acc::default()))
}

/// Everything the wrapper measures inside campaign spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct DomainTally {
    /// `random_point` + `mutate`.
    pub propose: Acc,
    /// `surrogate_features`.
    pub bo_encode: Acc,
    /// `assess` calls served by the local memo cache.
    pub eval_hit: Acc,
    /// `assess` calls that missed the local memo cache.
    pub eval_miss: Acc,
    /// `ground_truth`.
    pub ground_truth: Acc,
    /// `reproduces` (extraction probes).
    pub probe: Acc,
    /// Whole extractions, `begin_extraction` to the end of `make_mfs`.
    pub extract: Acc,
}

impl DomainTally {
    /// Component-wise sum.
    pub fn merge(&mut self, other: &DomainTally) {
        self.propose.merge(other.propose);
        self.bo_encode.merge(other.bo_encode);
        self.eval_hit.merge(other.eval_hit);
        self.eval_miss.merge(other.eval_miss);
        self.ground_truth.merge(other.ground_truth);
        self.probe.merge(other.probe);
        self.extract.merge(other.extract);
    }
}

/// A delegating domain that tallies every kernel → domain call and logs
/// the points whose measurement missed the local memo cache (the points the
/// flow model computed, replayed later on fresh engines).
///
/// Several domain callbacks take `&self`, so the tallies sit behind
/// `RefCell`s the caller owns (the wrapper itself is consumed by the
/// campaign loop).
pub struct TracedDomain<'t, D: SearchDomain> {
    inner: D,
    tally: &'t RefCell<DomainTally>,
    computed: &'t RefCell<Vec<D::Point>>,
    extraction_start: Cell<Option<Instant>>,
}

impl<'t, D: SearchDomain> TracedDomain<'t, D> {
    /// Wrap `inner`, tallying into `tally` and logging computed points.
    pub fn new(
        inner: D,
        tally: &'t RefCell<DomainTally>,
        computed: &'t RefCell<Vec<D::Point>>,
    ) -> Self {
        TracedDomain {
            inner,
            tally,
            computed,
            extraction_start: Cell::new(None),
        }
    }

    fn misses(&self) -> u64 {
        self.inner.eval_stats().misses
    }

    /// Log `point` as computed if the local miss count moved past `before`.
    fn log_if_computed(&self, point: &D::Point, before: u64) -> bool {
        let missed = self.misses() > before;
        if missed {
            self.computed.borrow_mut().push(point.clone());
        }
        missed
    }

    /// One proposal call, timed 1 in [`SAMPLE_EVERY`].
    fn propose(&mut self, f: impl FnOnce(&mut D) -> D::Point) -> D::Point {
        if !self.tally.borrow_mut().propose.tick() {
            return f(&mut self.inner);
        }
        let (point, ns) = timed(|| f(&mut self.inner));
        self.tally.borrow_mut().propose.add(ns);
        point
    }
}

impl<D: SearchDomain> SearchDomain for TracedDomain<'_, D> {
    type Point = D::Point;
    type Feature = D::Feature;
    type Measurement = D::Measurement;
    type Identity = D::Identity;
    type Mfs = D::Mfs;
    type Discovery = D::Discovery;
    type Signature = D::Signature;

    fn random_point(&mut self, rng: &mut SimRng) -> D::Point {
        self.propose(|inner| inner.random_point(rng))
    }

    fn mutate(&mut self, point: &D::Point, rng: &mut SimRng) -> D::Point {
        self.propose(|inner| inner.mutate(point, rng))
    }

    fn features(&self) -> Vec<D::Feature> {
        self.inner.features()
    }

    fn feature_value(&self, point: &D::Point, feature: D::Feature) -> FeatureValue {
        self.inner.feature_value(point, feature)
    }

    fn apply(&self, point: &mut D::Point, feature: D::Feature, value: &FeatureValue) {
        self.inner.apply(point, feature, value)
    }

    fn alternatives(&self, point: &D::Point, feature: D::Feature) -> Vec<FeatureValue> {
        self.inner.alternatives(point, feature)
    }

    fn experiment_cost(&self, point: &D::Point) -> SimDuration {
        self.inner.experiment_cost(point)
    }

    fn assess(&mut self, point: &D::Point) -> (D::Measurement, Option<D::Identity>) {
        let before = self.misses();
        let (result, ns) = timed(|| self.inner.assess(point));
        let missed = self.log_if_computed(point, before);
        if self.extraction_start.get().is_none() {
            let mut tally = self.tally.borrow_mut();
            if missed {
                tally.eval_miss.record(ns);
            } else {
                tally.eval_hit.record(ns);
            }
        }
        result
    }

    fn symptom(identity: &D::Identity) -> Symptom {
        D::symptom(identity)
    }

    fn ground_truth(&self, point: &D::Point) -> Vec<&'static str> {
        let (rules, ns) = timed(|| self.inner.ground_truth(point));
        self.tally.borrow_mut().ground_truth.record(ns);
        rules
    }

    fn reports_rule_hits(&self) -> bool {
        self.inner.reports_rule_hits()
    }

    fn eval_stats(&self) -> EvalStats {
        self.inner.eval_stats()
    }

    fn traced_counter(&self) -> &'static str {
        self.inner.traced_counter()
    }

    fn trace_value(&self, measurement: &D::Measurement) -> f64 {
        self.inner.trace_value(measurement)
    }

    fn signal_value(&self, measurement: &D::Measurement, target: Option<&str>) -> f64 {
        self.inner.signal_value(measurement, target)
    }

    fn rankable_counters(&self) -> Vec<String> {
        self.inner.rankable_counters()
    }

    fn surrogate_features(&self, point: &D::Point) -> Vec<f64> {
        let (features, ns) = timed(|| self.inner.surrogate_features(point));
        self.tally.borrow_mut().bo_encode.record(ns);
        features
    }

    fn mfs_identity(mfs: &D::Mfs) -> D::Identity {
        D::mfs_identity(mfs)
    }

    fn mfs_is_empty(mfs: &D::Mfs) -> bool {
        D::mfs_is_empty(mfs)
    }

    fn mfs_matches(mfs: &D::Mfs, point: &D::Point) -> bool {
        MFS_MATCH.with(|cell| {
            let mut acc = cell.get();
            let matched = if acc.tick() {
                let (matched, ns) = timed(|| D::mfs_matches(mfs, point));
                acc.add(ns);
                matched
            } else {
                D::mfs_matches(mfs, point)
            };
            cell.set(acc);
            matched
        })
    }

    fn begin_extraction(
        &mut self,
        anomalous: &D::Point,
        identity: &D::Identity,
        cost: &mut ExtractionCost,
    ) -> D::Signature {
        self.extraction_start.set(Some(Instant::now()));
        let before = self.misses();
        let signature = self.inner.begin_extraction(anomalous, identity, cost);
        self.log_if_computed(anomalous, before);
        signature
    }

    fn reproduces(&mut self, probe: &D::Point, signature: &D::Signature) -> bool {
        let before = self.misses();
        let (reproduced, ns) = timed(|| self.inner.reproduces(probe, signature));
        self.log_if_computed(probe, before);
        self.tally.borrow_mut().probe.record(ns);
        reproduced
    }

    fn make_mfs(
        &self,
        identity: &D::Identity,
        conditions: BTreeMap<D::Feature, FeatureCondition>,
        example: D::Point,
    ) -> D::Mfs {
        let mfs = self.inner.make_mfs(identity, conditions, example);
        if let Some(start) = self.extraction_start.take() {
            self.tally.borrow_mut().extract.record(ns_since(start));
        }
        mfs
    }

    fn make_discovery(
        &self,
        at: SimDuration,
        point: D::Point,
        identity: D::Identity,
        mfs: D::Mfs,
        matched_rules: Vec<String>,
    ) -> D::Discovery {
        self.inner
            .make_discovery(at, point, identity, mfs, matched_rules)
    }
}
