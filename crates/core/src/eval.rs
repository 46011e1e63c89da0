//! Memoized experiment evaluation.
//!
//! Every layer of the search re-measures workloads it has already seen: the
//! annealing walk re-proposes recently rejected points, the MFS extractor
//! re-measures the anomalous point it was handed and probes overlapping
//! neighbourhoods across extractions, and the monitor's §6 procedure samples
//! the same experiment four times per iteration. On real hardware those
//! repeats are unavoidable (and the campaign's *simulated* cost accounting
//! keeps charging them — each repeat still costs 20–60 simulated seconds, so
//! Figures 4–6 are unchanged); in the simulator they are pure recompute.
//!
//! [`Evaluator`] wraps any [`Engine`]'s `measure` with a memo cache keyed
//! by the canonical point. This is sound because every engine is
//! deterministic: [`Subsystem::evaluate`](collie_rnic::subsystem::Subsystem)
//! resets all counter and switch state on entry, so a measurement is a pure
//! function of the point (see the determinism tests below and the contract
//! on [`Engine`]). Campaigns route every experiment — search, counter
//! ranking, and MFS probing — through one shared evaluator, so an
//! extraction's probes warm the cache for the next one.

use crate::engine::{Engine, WorkloadEngine};
use crate::monitor::AnomalyMonitor;
use crate::space::{FabricPoint, SearchPoint};
use collie_rnic::fabric::FabricMeasurement;
use collie_rnic::subsystem::{Measurement, Subsystem};
use collie_rnic::subsystems::SubsystemId;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;
// collie-lint: allow(wall-clock, reason = "EvalProfile records real compute latency; it never feeds a campaign decision")
use std::time::Instant;

/// Cache effectiveness counters of one [`Evaluator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalStats {
    /// Measurements answered from the memo cache.
    pub hits: u64,
    /// Measurements that ran the flow model (and filled the cache).
    pub misses: u64,
}

impl EvalStats {
    /// Fraction of measurements answered from the cache (0 when nothing was
    /// measured).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A concurrent memo cache several evaluators can read through: one mutex
/// over the point → measurement map, its FIFO publication order and the
/// counters.
///
/// The campaign-matrix runners used to attach one of these per subsystem
/// to every cell (see [`EvalContext`]); that tier cost more per local miss
/// than it saved and was removed (DESIGN.md §10). The cache stays only
/// because the campaign benchmark's traced run still attaches one.
///
/// A miss is computed while the lock is held, so each point is computed
/// exactly once no matter how many threads ask for it: `T` calls to
/// [`SharedCache::get_or_compute`] over `D` distinct keys give exactly
/// `computed == D` and `served == T − D` (the concurrency test pins this).
/// A *bounded* cache ([`SharedCache::bounded`]) relaxes only the
/// `computed` half: an evicted key recomputes on its next ask, so
/// `computed` counts engine runs exactly and `evicted` counts FIFO
/// removals exactly.
pub struct SharedCache<P, M> {
    /// `Some(n)`: hold at most `n` published measurements, evicting the
    /// oldest publication first. `None`: unbounded.
    capacity: Option<usize>,
    state: parking_lot::Mutex<CacheState<P, M>>,
}

struct CacheState<P, M> {
    slots: HashMap<P, Arc<M>>,
    /// Publication order, oldest first (kept only when bounded).
    order: VecDeque<P>,
    totals: CacheTotals,
}

impl<P: Clone + Eq + Hash, M> SharedCache<P, M> {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        SharedCache {
            capacity: None,
            state: parking_lot::Mutex::new(CacheState {
                slots: HashMap::new(),
                order: VecDeque::new(),
                totals: CacheTotals::default(),
            }),
        }
    }

    /// An empty cache holding at most `capacity` published measurements
    /// (clamped to at least 1), evicting in publication (FIFO) order.
    /// Eviction is safe because an evicted point simply recomputes on its
    /// next ask.
    pub fn bounded(capacity: usize) -> Self {
        SharedCache {
            capacity: Some(capacity.max(1)),
            ..SharedCache::new()
        }
    }

    /// Return the published measurement for `point`, computing it with
    /// `compute` under the cache lock if no caller published it yet. On a
    /// bounded cache the new publication evicts the oldest ones beyond
    /// capacity.
    pub fn get_or_compute(&self, point: &P, compute: impl FnOnce() -> M) -> Arc<M> {
        let mut guard = self.state.lock();
        let state = &mut *guard;
        if let Some(measurement) = state.slots.get(point) {
            state.totals.served += 1;
            return Arc::clone(measurement);
        }
        let measurement = Arc::new(compute());
        state.slots.insert(point.clone(), Arc::clone(&measurement));
        state.totals.computed += 1;
        if let Some(capacity) = self.capacity {
            state.order.push_back(point.clone());
            let overflow = state.order.len().saturating_sub(capacity);
            for victim in state.order.drain(..overflow) {
                state.slots.remove(&victim);
                state.totals.evicted += 1;
            }
        }
        measurement
    }

    /// The published measurement, if any; never counts as a serve.
    pub fn peek(&self, point: &P) -> Option<Arc<M>> {
        self.state.lock().slots.get(point).map(Arc::clone)
    }

    /// This cache's computed/served/evicted counters as one snapshot.
    pub fn totals(&self) -> CacheTotals {
        self.state.lock().totals
    }
}

impl<P: Clone + Eq + Hash, M> Default for SharedCache<P, M> {
    fn default() -> Self {
        SharedCache::new()
    }
}

impl<P, M> fmt::Debug for SharedCache<P, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedCache")
            .field("capacity", &self.capacity)
            .field("totals", &self.state.lock().totals)
            .finish()
    }
}

/// Aggregate shared-cache counters (one cache or a whole [`EvalContext`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheTotals {
    /// Engine runs (each distinct resident key exactly once; an evicted
    /// key recomputes on its next ask).
    pub computed: u64,
    /// Requests answered from an already-published slot.
    pub served: u64,
    /// Published measurements removed by a capacity bound.
    pub evicted: u64,
}

impl std::ops::Add for CacheTotals {
    type Output = CacheTotals;

    /// Component-wise sum.
    fn add(self, other: CacheTotals) -> CacheTotals {
        CacheTotals {
            computed: self.computed + other.computed,
            served: self.served + other.served,
            evicted: self.evicted + other.evicted,
        }
    }
}

/// How one evaluator interacted with its attached [`SharedCache`]: local
/// misses it computed through the cache vs. local misses another evaluator
/// had already published.
///
/// Kept separate from [`EvalStats`] on purpose: the hit/miss stats are part
/// of the bit-identity contract (equal across shared and unshared runs),
/// while these counters *describe* the sharing and depend on which
/// evaluator asked first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SharedUse {
    /// Local misses this evaluator computed itself (through the shared
    /// cache when one is attached).
    pub computed: u64,
    /// Local misses answered by a measurement some other thread published.
    pub served: u64,
}

/// Everything one campaign's evaluator can report about its execution:
/// the bit-identical cache stats and the wall-clock of every flow-model
/// compute (nanoseconds, in compute order) for throughput/latency
/// summaries.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EvalProfile {
    /// Local-cache hit/miss counters (the bit-identity stats).
    pub stats: EvalStats,
    /// Wall-clock nanoseconds of each flow-model compute this evaluator
    /// ran itself. Nanoseconds, not microseconds: a call takes 1–7 µs, so
    /// whole-microsecond samples would truncate to a handful of integers.
    pub compute_nanos: Vec<u64>,
}

/// A matrix-scoped evaluation context: one bundle of [`SharedCache`]s that
/// a caller attaches to several campaigns' evaluators, so identical
/// canonical points measured by different strategy×seed cells are computed
/// once instead of once per cell.
///
/// The campaign-matrix runners no longer build one: measured on the
/// campaign benchmark, the shared tier served about 12 % of local misses
/// on its best workload while adding roughly a flow-model call's worth of
/// hashing, locking and publication to every miss (DESIGN.md §10). Each
/// matrix cell now evaluates through its own memo map only. The type stays
/// because the campaign benchmark's traced run
/// (`crates/campaign-bench/src/layers.rs`) still builds a context to
/// reproduce the matrix it measured; it can go with that run's next
/// revision.
///
/// Caches are scoped **per subsystem** (a [`SearchPoint`] measured on
/// subsystem F and on subsystem H are different experiments, so one flat
/// cache keyed by point would serve wrong measurements on a mixed grid)
/// and per point type (two-host workload vs. fabric). Ownership flows
/// matrix → campaign → evaluator: each cell's evaluator reads through the
/// attached cache on a local miss but keeps committing through its *local*
/// cache, so [`EvalStats`] and every golden-trace fixture are byte-identical
/// with the context attached or not.
#[derive(Debug)]
pub struct EvalContext {
    /// Capacity for each per-subsystem cache (`None` = unbounded).
    capacity: Option<usize>,
    workload: parking_lot::Mutex<HashMap<SubsystemId, Arc<SharedCache<SearchPoint, Measurement>>>>,
    fabric:
        parking_lot::Mutex<HashMap<SubsystemId, Arc<SharedCache<FabricPoint, FabricMeasurement>>>>,
}

impl EvalContext {
    /// A context of unbounded caches.
    pub fn new() -> Self {
        EvalContext {
            capacity: None,
            workload: parking_lot::Mutex::new(HashMap::new()),
            fabric: parking_lot::Mutex::new(HashMap::new()),
        }
    }

    /// A context whose per-subsystem caches each hold at most `capacity`
    /// published measurements (see [`SharedCache::bounded`]).
    pub fn bounded(capacity: usize) -> Self {
        EvalContext {
            capacity: Some(capacity),
            ..EvalContext::new()
        }
    }

    fn cache_for<P: Clone + Eq + Hash, M>(
        map: &parking_lot::Mutex<HashMap<SubsystemId, Arc<SharedCache<P, M>>>>,
        capacity: Option<usize>,
        subsystem: SubsystemId,
    ) -> Arc<SharedCache<P, M>> {
        Arc::clone(map.lock().entry(subsystem).or_insert_with(|| {
            Arc::new(match capacity {
                Some(capacity) => SharedCache::bounded(capacity),
                None => SharedCache::new(),
            })
        }))
    }

    /// The two-host workload cache for `subsystem` (created on first use).
    pub fn workload_cache(
        &self,
        subsystem: SubsystemId,
    ) -> Arc<SharedCache<SearchPoint, Measurement>> {
        EvalContext::cache_for(&self.workload, self.capacity, subsystem)
    }

    /// The fabric cache for `subsystem` (created on first use).
    pub fn fabric_cache(
        &self,
        subsystem: SubsystemId,
    ) -> Arc<SharedCache<FabricPoint, FabricMeasurement>> {
        EvalContext::cache_for(&self.fabric, self.capacity, subsystem)
    }

    /// Computed/served/evicted counters summed over every cache this
    /// context created.
    pub fn totals(&self) -> CacheTotals {
        let workload = self
            .workload
            .lock()
            .values()
            .fold(CacheTotals::default(), |acc, c| acc + c.totals());
        self.fabric
            .lock()
            .values()
            .fold(workload, |acc, c| acc + c.totals())
    }
}

impl Default for EvalContext {
    fn default() -> Self {
        EvalContext::new()
    }
}

/// Run one flow-model compute and record its wall-clock latency.
fn timed_measure<E: Engine>(
    engine: &mut E,
    nanos: &mut Vec<u64>,
    point: &E::Point,
) -> E::Measurement {
    // collie-lint: allow(wall-clock, reason = "perf-harness latency sample; the measurement itself is deterministic")
    let started = Instant::now();
    let measurement = engine.measure(point);
    nanos.push(started.elapsed().as_nanos() as u64);
    measurement
}

/// A memoizing wrapper around one [`Engine`]: the one evaluator every
/// domain measures through (the two-host [`WorkloadEngine`] by default,
/// [`FabricEvaluator`](crate::fabric::FabricEvaluator) for the fabric).
///
/// The evaluator does **not** do cost accounting: callers (the campaign,
/// the extractor) keep charging the domain's experiment cost per
/// measurement whether or not it hit the cache, because on hardware the
/// repeat would have to run. Memoization only skips the flow-model
/// recompute.
///
/// With a [`SharedCache`] attached ([`Evaluator::attach_shared`]) a local
/// miss first consults it; the hit/miss stats are counted off the local
/// cache alone, so they are bit-identical whether or not another evaluator
/// published the point first.
#[derive(Debug)]
pub struct Evaluator<'e, E: Engine = WorkloadEngine> {
    engine: &'e mut E,
    cache: HashMap<E::Point, Arc<E::Measurement>>,
    shared: Option<Arc<SharedCache<E::Point, E::Measurement>>>,
    memoize: bool,
    stats: EvalStats,
    shared_use: SharedUse,
    compute_nanos: Vec<u64>,
}

impl<'e, E: Engine> Evaluator<'e, E> {
    /// A memoizing evaluator over `engine`.
    pub fn new(engine: &'e mut E) -> Self {
        Evaluator {
            engine,
            cache: HashMap::new(),
            shared: None,
            memoize: true,
            stats: EvalStats::default(),
            shared_use: SharedUse::default(),
            compute_nanos: Vec::new(),
        }
    }

    /// An evaluator that always recomputes: the uncached reference that
    /// the bit-identity tests and the `eval_cache` benches compare the
    /// memoizing [`Evaluator::new`] against. No campaign runner builds one.
    pub fn uncached(engine: &'e mut E) -> Self {
        Evaluator {
            memoize: false,
            ..Evaluator::new(engine)
        }
    }

    /// Attach a matrix-scoped [`SharedCache`] (usually obtained from an
    /// [`EvalContext`]): local misses will consult it before running the
    /// flow model. A no-op on an uncached evaluator — without a local memo
    /// cache the bit-identity contract could not absorb a shared answer.
    /// No campaign runner calls this any more (see [`EvalContext`] for why
    /// it is kept).
    pub fn attach_shared(&mut self, shared: Arc<SharedCache<E::Point, E::Measurement>>) {
        if self.memoize {
            self.shared = Some(shared);
        }
    }

    /// Measure one point, answering from the memo cache when the identical
    /// point was measured before.
    pub fn measure(&mut self, point: &E::Point) -> E::Measurement {
        if !self.memoize {
            self.stats.misses += 1;
            return timed_measure(self.engine, &mut self.compute_nanos, point);
        }
        if let Some(measurement) = self.cache.get(point) {
            self.stats.hits += 1;
            return (**measurement).clone();
        }
        self.stats.misses += 1;
        let engine = &mut *self.engine;
        let nanos = &mut self.compute_nanos;
        let measurement = match &self.shared {
            Some(shared) => {
                let mut computed_here = false;
                let measurement = shared.get_or_compute(point, || {
                    computed_here = true;
                    timed_measure(engine, nanos, point)
                });
                if computed_here {
                    self.shared_use.computed += 1;
                } else {
                    self.shared_use.served += 1;
                }
                measurement
            }
            None => Arc::new(timed_measure(engine, nanos, point)),
        };
        self.cache.insert(point.clone(), Arc::clone(&measurement));
        (*measurement).clone()
    }

    /// The paper's §6 measurement procedure through the cache: sample the
    /// experiment `samples_per_iteration` times (repeats are cache hits)
    /// and assess the final sample. The engine is deterministic, so every
    /// sample is identical and no averaging is needed — the repeats exist
    /// for procedural fidelity, exactly as
    /// [`AnomalyMonitor::measure_and_assess`] documents; a future noisy
    /// engine would have to add real averaging here.
    pub fn measure_and_assess(
        &mut self,
        monitor: &AnomalyMonitor,
        point: &E::Point,
    ) -> (E::Measurement, E::Verdict) {
        let samples = monitor.samples_per_iteration.max(1);
        let measurement = self.measure(point);
        if self.memoize {
            // Repeats of an identical deterministic sample are guaranteed
            // cache hits; account for them without the redundant lookups.
            self.stats.hits += u64::from(samples - 1);
        } else {
            for _ in 1..samples {
                let _ = self.measure(point);
            }
        }
        let verdict = self.engine.assess(monitor, &measurement);
        (measurement, verdict)
    }

    /// The subsystem under test.
    pub fn subsystem(&self) -> &Subsystem {
        self.engine.subsystem()
    }

    /// Ground-truth oracle pass-through (scoring only; see
    /// [`Engine::ground_truth`]).
    pub fn ground_truth(&self, point: &E::Point) -> Vec<&'static str> {
        self.engine.ground_truth(point)
    }

    /// Cache hit/miss counters so far.
    pub fn stats(&self) -> EvalStats {
        self.stats
    }

    /// Shared-cache interaction counters so far (all zero without an
    /// attached cache). Kept for the same reason as
    /// [`Evaluator::attach_shared`]: the campaign benchmark's traced run
    /// reads it.
    pub fn shared_use(&self) -> SharedUse {
        self.shared_use
    }

    /// The full execution profile: stats and per-compute wall-clock.
    pub fn profile(&self) -> EvalProfile {
        EvalProfile {
            stats: self.stats,
            compute_nanos: self.compute_nanos.clone(),
        }
    }

    /// Number of distinct points held in the cache.
    pub fn cached_points(&self) -> usize {
        self.cache.len()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use collie_rnic::subsystems::SubsystemId;
    use collie_rnic::workload::{Opcode, Transport};

    // The evaluator contract, stated once for every `Engine` in four
    // parts and run for both engines. `fresh` builds an independent
    // engine; `point` and `other` are distinct points.

    /// Repeats hit the cache and agree, and the one compute records
    /// exactly one latency sample.
    pub(crate) fn assert_repeats_hit_the_cache<E: Engine>(fresh: impl Fn() -> E, point: &E::Point)
    where
        E::Measurement: PartialEq + fmt::Debug,
    {
        let mut engine = fresh();
        let mut evaluator = Evaluator::new(&mut engine);
        let first = evaluator.measure(point);
        assert_eq!(evaluator.measure(point), first);
        assert_eq!(evaluator.stats(), EvalStats { hits: 1, misses: 1 });
        assert_eq!(evaluator.cached_points(), 1);
        assert_eq!(evaluator.profile().compute_nanos.len(), 1);
    }

    /// The uncached path never hits and records one latency sample per
    /// compute.
    pub(crate) fn assert_uncached_never_hits<E: Engine>(fresh: impl Fn() -> E, point: &E::Point)
    where
        E::Measurement: PartialEq + fmt::Debug,
    {
        let mut engine = fresh();
        let mut uncached = Evaluator::uncached(&mut engine);
        let first = uncached.measure(point);
        assert_eq!(uncached.measure(point), first);
        assert_eq!(uncached.stats(), EvalStats { hits: 0, misses: 2 });
        assert_eq!(uncached.cached_points(), 0);
        assert_eq!(uncached.profile().compute_nanos.len(), 2);
    }

    /// The §6 procedure samples four times per iteration: one compute,
    /// three cache hits. Returns its verdict on `point`.
    pub(crate) fn assert_four_samples_per_assessment<E: Engine>(
        fresh: impl Fn() -> E,
        point: &E::Point,
    ) -> E::Verdict
    where
        E::Measurement: PartialEq + fmt::Debug,
    {
        let monitor = AnomalyMonitor::new();
        let mut engine = fresh();
        let mut evaluator = Evaluator::new(&mut engine);
        let (sampled, verdict) = evaluator.measure_and_assess(&monitor, point);
        assert_eq!(sampled, fresh().measure(point));
        assert_eq!(evaluator.stats(), EvalStats { hits: 3, misses: 1 });
        assert_eq!(evaluator.profile().compute_nanos.len(), 1);
        verdict
    }

    /// A local miss served by another evaluator's publication still counts
    /// as a plain miss (bit-identity) and logs no latency, because no flow
    /// model ran here; a new point is computed through the shared cache.
    /// An uncached evaluator ignores the attachment.
    pub(crate) fn assert_shared_use_is_accounted_apart<E: Engine>(
        fresh: impl Fn() -> E,
        point: &E::Point,
        other: &E::Point,
    ) where
        E::Measurement: PartialEq + fmt::Debug,
    {
        let first = fresh().measure(point);
        let shared = Arc::new(SharedCache::new());
        shared.get_or_compute(point, || first.clone());
        let mut engine = fresh();
        let mut evaluator = Evaluator::new(&mut engine);
        evaluator.attach_shared(Arc::clone(&shared));
        assert_eq!(evaluator.measure(point), first);
        assert_eq!(evaluator.stats(), EvalStats { hits: 0, misses: 1 });
        let served = SharedUse {
            computed: 0,
            served: 1,
        };
        assert_eq!(evaluator.shared_use(), served);
        assert!(evaluator.profile().compute_nanos.is_empty());
        let _ = evaluator.measure(other);
        let computed = SharedUse {
            computed: 1,
            served: 1,
        };
        assert_eq!(evaluator.shared_use(), computed);
        assert_eq!(evaluator.profile().compute_nanos.len(), 1);
        let mut engine = fresh();
        let mut uncached = Evaluator::uncached(&mut engine);
        uncached.attach_shared(Arc::clone(&shared));
        let _ = uncached.measure(point);
        assert_eq!(uncached.shared_use(), SharedUse::default());
        assert_eq!(uncached.profile().compute_nanos.len(), 1);
        let untouched = CacheTotals {
            computed: 2,
            served: 1,
            evicted: 0,
        };
        assert_eq!(
            shared.totals(),
            untouched,
            "the uncached path must not share"
        );
    }

    fn anomalous_point() -> SearchPoint {
        let mut p = SearchPoint::benign();
        p.transport = Transport::Ud;
        p.opcode = Opcode::Send;
        p.wqe_batch = 64;
        p.recv_queue_depth = 256;
        p.mtu = 2048;
        p.messages = vec![2048];
        p
    }

    #[test]
    fn evaluator_contract_holds_for_the_workload_engine() {
        let fresh = || WorkloadEngine::for_catalog(SubsystemId::F);
        let (point, other) = (anomalous_point(), SearchPoint::benign());
        assert_repeats_hit_the_cache(fresh, &point);
        assert_uncached_never_hits(fresh, &point);
        assert!(assert_four_samples_per_assessment(fresh, &point).is_anomalous());
        assert_shared_use_is_accounted_apart(fresh, &point, &other);
    }

    #[test]
    fn repeated_measurements_hit_the_cache_and_agree() {
        let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
        let mut evaluator = Evaluator::new(&mut engine);
        let p = anomalous_point();
        let first = evaluator.measure(&p);
        let second = evaluator.measure(&p);
        assert_eq!(first, second);
        assert_eq!(evaluator.stats(), EvalStats { hits: 1, misses: 1 });
        assert_eq!(evaluator.cached_points(), 1);
    }

    #[test]
    fn engine_is_deterministic_so_memoization_is_sound() {
        // The cache substitutes a stored measurement for a recompute; this
        // pins the property that makes the substitution exact.
        let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
        let p = anomalous_point();
        let a = engine.measure(&p);
        let _ = engine.measure(&SearchPoint::benign());
        let b = engine.measure(&p);
        assert_eq!(a, b, "measure must be a pure function of the point");
    }

    #[test]
    fn uncached_evaluator_never_hits() {
        let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
        let mut evaluator = Evaluator::uncached(&mut engine);
        let p = SearchPoint::benign();
        let a = evaluator.measure(&p);
        let b = evaluator.measure(&p);
        assert_eq!(a, b);
        assert_eq!(evaluator.stats(), EvalStats { hits: 0, misses: 2 });
        assert_eq!(evaluator.cached_points(), 0);
    }

    #[test]
    fn distinct_points_occupy_distinct_slots() {
        let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
        let mut evaluator = Evaluator::new(&mut engine);
        let mut p = SearchPoint::benign();
        evaluator.measure(&p);
        p.num_qps *= 2;
        evaluator.measure(&p);
        assert_eq!(evaluator.stats(), EvalStats { hits: 0, misses: 2 });
        assert_eq!(evaluator.cached_points(), 2);
    }

    #[test]
    fn measure_and_assess_samples_through_the_cache() {
        let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
        let mut evaluator = Evaluator::new(&mut engine);
        let monitor = AnomalyMonitor::new();
        let (_, verdict) = evaluator.measure_and_assess(&monitor, &anomalous_point());
        assert!(verdict.is_anomalous());
        // Four samples per iteration: one compute, three cache hits.
        assert_eq!(evaluator.stats(), EvalStats { hits: 3, misses: 1 });
    }

    #[test]
    fn hit_rate_is_well_defined() {
        assert_eq!(EvalStats::default().hit_rate(), 0.0);
        let stats = EvalStats { hits: 3, misses: 1 };
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn shared_cache_counts_are_exact_under_concurrent_access() {
        let cache: Arc<SharedCache<u64, u64>> = Arc::new(SharedCache::new());
        let threads = 8u64;
        let keys = 64u64;
        let repeats = 5u64;
        crossbeam::thread::scope(|scope| {
            for t in 0..threads {
                let cache = Arc::clone(&cache);
                scope.spawn(move |_| {
                    for r in 0..repeats {
                        for k in 0..keys {
                            // Visit order differs per thread and per pass.
                            let k = (k + t + r) % keys;
                            let v = cache.get_or_compute(&k, || k * 3);
                            assert_eq!(*v, k * 3);
                        }
                    }
                });
            }
        })
        .expect("threads ok");
        let total = threads * repeats * keys;
        assert_eq!(
            cache.totals(),
            CacheTotals {
                computed: keys,
                served: total - keys,
                evicted: 0
            },
            "every key computed exactly once, no lost serve updates"
        );
    }

    #[test]
    fn bounded_cache_evicts_in_publication_order_with_exact_counters() {
        let cache: SharedCache<u32, u32> = SharedCache::bounded(2);
        for k in [1u32, 2, 3] {
            assert_eq!(*cache.get_or_compute(&k, || k * 10), k * 10);
        }
        // Capacity 2: publishing key 3 evicted key 1 (oldest first).
        assert_eq!(
            cache.totals(),
            CacheTotals {
                computed: 3,
                served: 0,
                evicted: 1
            }
        );
        assert!(cache.peek(&1).is_none(), "key 1 must be evicted");
        assert!(cache.peek(&2).is_some() && cache.peek(&3).is_some());
        // An evicted key recomputes on its next ask (and its re-publication
        // evicts key 2, the new oldest resident).
        assert_eq!(*cache.get_or_compute(&1, || 10), 10);
        assert!(cache.peek(&2).is_none(), "key 2 must be evicted");
        // Resident keys still serve without recompute.
        assert_eq!(*cache.get_or_compute(&3, || panic!("resident")), 30);
        assert_eq!(
            cache.totals(),
            CacheTotals {
                computed: 4,
                served: 1,
                evicted: 2
            }
        );
    }

    #[test]
    fn bounded_cache_capacity_clamps_to_one() {
        let cache: SharedCache<u32, u32> = SharedCache::bounded(0);
        assert_eq!(*cache.get_or_compute(&1, || 10), 10);
        assert_eq!(*cache.get_or_compute(&2, || 20), 20);
        assert_eq!(cache.totals().evicted, 1);
        assert!(cache.peek(&2).is_some(), "the newest key always survives");
    }

    #[test]
    fn attach_shared_is_a_no_op_without_memoization() {
        let shared: Arc<SharedCache<SearchPoint, Measurement>> = Arc::new(SharedCache::new());
        let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
        let mut evaluator = Evaluator::uncached(&mut engine);
        evaluator.attach_shared(Arc::clone(&shared));
        let p = anomalous_point();
        let _ = evaluator.measure(&p);
        assert_eq!(
            shared.totals(),
            CacheTotals::default(),
            "uncached path must not share"
        );
        assert_eq!(evaluator.shared_use(), SharedUse::default());
    }

    #[test]
    fn attached_cache_tracks_shared_use_without_touching_stats() {
        let shared: Arc<SharedCache<SearchPoint, Measurement>> = Arc::new(SharedCache::new());
        let mut reference = WorkloadEngine::for_catalog(SubsystemId::F);
        let p = anomalous_point();
        shared.get_or_compute(&p, || reference.measure(&p));

        let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
        let mut evaluator = Evaluator::new(&mut engine);
        evaluator.attach_shared(Arc::clone(&shared));
        // Local miss served by the shared publication: stats still record a
        // plain miss (bit-identity), SharedUse records the serve, and no
        // compute latency is logged because no flow model ran here.
        let got = evaluator.measure(&p);
        assert_eq!(got, reference.measure(&p));
        assert_eq!(evaluator.stats(), EvalStats { hits: 0, misses: 1 });
        assert_eq!(
            evaluator.shared_use(),
            SharedUse {
                computed: 0,
                served: 1
            }
        );
        assert!(evaluator.profile().compute_nanos.is_empty());
        // A genuinely new point is computed through the shared cache.
        let _ = evaluator.measure(&SearchPoint::benign());
        assert_eq!(
            evaluator.shared_use(),
            SharedUse {
                computed: 1,
                served: 1
            }
        );
        assert_eq!(evaluator.profile().compute_nanos.len(), 1);
    }

    #[test]
    fn profile_records_one_latency_per_compute() {
        let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
        let mut evaluator = Evaluator::new(&mut engine);
        let p = anomalous_point();
        let _ = evaluator.measure(&p);
        let _ = evaluator.measure(&p);
        assert_eq!(evaluator.profile().compute_nanos.len(), 1);
        let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
        let mut uncached = Evaluator::uncached(&mut engine);
        let _ = uncached.measure(&p);
        let _ = uncached.measure(&p);
        assert_eq!(uncached.profile().compute_nanos.len(), 2);
    }

    #[test]
    fn eval_context_scopes_caches_per_subsystem_and_point_type() {
        let ctx = EvalContext::new();
        let f = ctx.workload_cache(SubsystemId::F);
        assert!(
            Arc::ptr_eq(&f, &ctx.workload_cache(SubsystemId::F)),
            "same subsystem must share one cache"
        );
        assert!(
            !Arc::ptr_eq(&f, &ctx.workload_cache(SubsystemId::H)),
            "a SearchPoint means different experiments on different \
             subsystems; the caches must be distinct"
        );
        // Fabric caches are a separate family keyed by FabricPoint.
        let _ = ctx.fabric_cache(SubsystemId::F);
        assert_eq!(ctx.totals(), CacheTotals::default());
        f.get_or_compute(&SearchPoint::benign(), || {
            let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
            engine.measure(&SearchPoint::benign())
        });
        assert_eq!(
            ctx.totals(),
            CacheTotals {
                computed: 1,
                served: 0,
                evicted: 0
            }
        );
    }

    #[test]
    fn bounded_context_bounds_every_cache_it_creates() {
        let ctx = EvalContext::bounded(1);
        let cache = ctx.workload_cache(SubsystemId::F);
        let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
        let benign = SearchPoint::benign();
        cache.get_or_compute(&benign, || engine.measure(&benign));
        let p = anomalous_point();
        cache.get_or_compute(&p, || engine.measure(&p));
        assert_eq!(ctx.totals().evicted, 1);
        assert!(cache.peek(&benign).is_none());
    }
}
