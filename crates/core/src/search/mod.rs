//! The workload generator: counter-guided search (§5.1, Algorithm 1).
//!
//! Collie treats anomaly hunting as an optimisation problem over the
//! workload space: drive performance counters to low-value regions and
//! diagnostic counters to high-value regions, because a subsystem under
//! that kind of stress is where anomalies live. The optimiser is simulated
//! annealing extended with the minimal-feature-set skip (Algorithm 1); the
//! baselines of §7.2 — random input generation and Bayesian optimisation —
//! are implemented alongside so the Figure 4/5 comparisons can be
//! regenerated.
//!
//! A campaign charges every experiment the time it would take on hardware
//! (20–60 s) and stops when the configured budget (10 simulated hours in
//! the paper) is spent, so "time to find N anomalies" is measured on the
//! same axis as the paper's figures.

mod campaign;
pub mod domain;
pub mod kernel;

pub use campaign::{Discovery, RuleHit, SearchOutcome, WorkloadDomain};
pub use domain::{CampaignReport, ExtractionCost, SearchDomain};

use crate::engine::WorkloadEngine;
use crate::eval::{EvalProfile, Evaluator};
use crate::monitor::AnomalyMonitor;
use crate::space::SearchSpace;
use collie_sim::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Which counter family guides the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SignalMode {
    /// Performance counters (bytes/s, packets/s), driven towards low
    /// values. Available on every commodity RNIC.
    Performance,
    /// Vendor diagnostic counters, driven towards high values. More
    /// informative but vendor-dependent.
    Diagnostic,
}

impl SignalMode {
    /// The counter recorded in a campaign's Figure-6 style trace.
    ///
    /// Diagnostic campaigns trace the receive-WQE-cache-miss counter, which
    /// is exactly the series the paper's Figure 6 plots. A performance-mode
    /// campaign has no business tracing a vendor diagnostic counter (the
    /// whole premise of the mode is that only generic counters exist), so it
    /// traces the receive-side throughput gauge instead — the signal that
    /// collapses when such a campaign steers into an anomaly.
    pub fn traced_counter(self) -> &'static str {
        match self {
            SignalMode::Performance => collie_rnic::counters::perf::RX_BYTES_PER_SEC,
            SignalMode::Diagnostic => collie_rnic::counters::diag::RECV_WQE_CACHE_MISS,
        }
    }
}

/// Which search algorithm explores the space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SearchStrategy {
    /// Uniform random sampling of the search space (black-box fuzzing).
    Random,
    /// Bayesian-optimisation-style surrogate search (the §7.2 baseline,
    /// implemented as a nearest-neighbour surrogate with an exploration
    /// bonus — see [`kernel::run_bayesian`] for the simplification note).
    Bayesian,
    /// Simulated annealing over counter values (Collie, Algorithm 1).
    SimulatedAnnealing,
}

impl SearchStrategy {
    /// Short label used in reports and figures.
    pub fn label(self) -> &'static str {
        match self {
            SearchStrategy::Random => "Random",
            SearchStrategy::Bayesian => "BO",
            SearchStrategy::SimulatedAnnealing => "Collie",
        }
    }
}

/// Configuration of one search campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchConfig {
    /// The algorithm.
    pub strategy: SearchStrategy,
    /// The counter family used as the optimisation signal (ignored by
    /// [`SearchStrategy::Random`]).
    pub signal: SignalMode,
    /// Whether the minimal-feature-set skip is applied (the "w/o MFS"
    /// ablation of Figure 5 turns this off).
    pub use_mfs: bool,
    /// Whether measurements are memoized by the campaign's
    /// [`Evaluator`]. Memoization only skips the
    /// flow-model recompute — simulated hardware cost is charged either way
    /// — so the [`SearchOutcome`] is bit-identical with it on or off; the
    /// toggle exists for the cache-ablation bench and identity tests.
    ///
    /// Defaults to on; the `COLLIE_MEMOIZE=0` environment variable flips
    /// the constructor default so CI can run the whole suite uncached and
    /// cache divergence can never hide behind the default. Tests that
    /// assert cache *statistics* must pin the toggle with
    /// [`SearchConfig::with_memoization`]. Like
    /// [`SearchConfig::incremental`], the knob is an execution detail
    /// excluded from serialization, so it cannot leak into golden
    /// fixtures; deserialized configs fall back to the uncached path,
    /// which is always correct.
    #[serde(skip)]
    pub memoize: bool,
    /// Seed for the campaign's randomness.
    pub seed: u64,
    /// Total simulated wall-clock budget (the paper runs each search for
    /// 10 hours).
    pub budget: SimDuration,
    /// Initial annealing temperature (T0 in Algorithm 1).
    pub initial_temperature: f64,
    /// Temperature at which an annealing schedule ends (T_min).
    pub min_temperature: f64,
    /// Multiplicative temperature decay per schedule step (α).
    pub alpha: f64,
    /// SA iterations per temperature step (n in Algorithm 1).
    pub iterations_per_temperature: u32,
    /// Consecutive MFS-skipped proposals after which an annealing walk
    /// abandons its neighbourhood and restarts from a fresh random point
    /// (the walk's skips are free, but it makes no progress parked next to
    /// a discovered MFS region). `None` disables the escape — the
    /// pre-kernel two-host behaviour, used by the golden-trace
    /// compatibility grids.
    pub stuck_skip_limit: Option<u32>,
    /// Whether discovery dedup requires a matching MFS to share the new
    /// anomaly's *observable identity* (symptom, plus the cross-host
    /// hallmark on fabric domains). With identity keying a loose MFS
    /// cannot shadow a distinct-identity discovery; `false` restores the
    /// pre-kernel two-host containment-only dedup for the golden-trace
    /// compatibility grids.
    pub identity_dedup: bool,
    /// Whether the engine's incremental evaluation path is enabled: the
    /// subsystem caches per-flow rule reports and per-direction fluid
    /// outcomes so a one-knob mutation recomputes only the stages the
    /// changed flow feeds (DESIGN.md §11). Purely an execution strategy —
    /// cached stage results are bit-identical to recomputed ones, so the
    /// campaign output is byte-for-byte the same either way — hence, like
    /// [`SearchConfig::memoize`], the knob is excluded from
    /// serialization and cannot leak into golden fixtures.
    ///
    /// Defaults to on; the `COLLIE_INCREMENTAL` environment variable
    /// disables it (`0`, `false`, or `off`) so CI can run the whole suite
    /// through the from-scratch path.
    #[serde(skip)]
    pub incremental: bool,
}

impl SearchConfig {
    /// The configuration used for the paper-style campaigns: Collie with
    /// diagnostic counters and the MFS skip, a 10-hour budget, and the
    /// relaxed temperature schedule §5.1 argues for.
    pub fn collie(seed: u64) -> SearchConfig {
        SearchConfig {
            strategy: SearchStrategy::SimulatedAnnealing,
            signal: SignalMode::Diagnostic,
            use_mfs: true,
            memoize: SearchConfig::default_memoize(),
            seed,
            budget: SimDuration::from_secs(10 * 3600),
            initial_temperature: 1.0,
            min_temperature: 0.05,
            alpha: 0.8,
            iterations_per_temperature: 8,
            stuck_skip_limit: Some(24),
            identity_dedup: true,
            incremental: SearchConfig::default_incremental(),
        }
    }

    /// The random-fuzzing baseline with the same budget.
    pub fn random(seed: u64) -> SearchConfig {
        SearchConfig {
            strategy: SearchStrategy::Random,
            ..SearchConfig::collie(seed)
        }
    }

    /// The Bayesian-optimisation baseline with the same budget.
    pub fn bayesian(seed: u64) -> SearchConfig {
        SearchConfig {
            strategy: SearchStrategy::Bayesian,
            ..SearchConfig::collie(seed)
        }
    }

    /// Switch the guiding signal (Figure 5's Perf/Diag ablation).
    pub fn with_signal(mut self, signal: SignalMode) -> SearchConfig {
        self.signal = signal;
        self
    }

    /// Enable or disable the MFS skip (Figure 5's MFS ablation).
    pub fn with_mfs(mut self, use_mfs: bool) -> SearchConfig {
        self.use_mfs = use_mfs;
        self
    }

    /// Replace the budget (tests and quick examples use minutes, not hours).
    pub fn with_budget(mut self, budget: SimDuration) -> SearchConfig {
        self.budget = budget;
        self
    }

    /// Enable or disable measurement memoization (on by default; turning it
    /// off is the uncached reference path of the evaluation-cache bench).
    pub fn with_memoization(mut self, memoize: bool) -> SearchConfig {
        self.memoize = memoize;
        self
    }

    /// Replace the stuck-walk escape threshold (`None` disables; see
    /// [`SearchConfig::stuck_skip_limit`]).
    pub fn with_stuck_skip_limit(mut self, limit: Option<u32>) -> SearchConfig {
        self.stuck_skip_limit = limit;
        self
    }

    /// Enable or disable identity-keyed discovery dedup (see
    /// [`SearchConfig::identity_dedup`]).
    pub fn with_identity_dedup(mut self, identity_dedup: bool) -> SearchConfig {
        self.identity_dedup = identity_dedup;
        self
    }

    /// Enable or disable the engine's incremental evaluation path (see
    /// [`SearchConfig::incremental`]). Tests that assert stage-reuse
    /// counters must pin the toggle here rather than rely on the
    /// environment-dependent default.
    pub fn with_incremental(mut self, incremental: bool) -> SearchConfig {
        self.incremental = incremental;
        self
    }

    /// The pre-kernel two-host campaign semantics: no stuck-walk escape
    /// and containment-only discovery dedup. The golden-trace suite runs
    /// the fig4/fig5 grids in this mode to prove the kernel unification
    /// moved neither RNG stream; new code should keep the defaults.
    ///
    /// **Two-host only.** The fabric stack always had the escape and
    /// identity-keyed dedup, so a config built this way must not be fed to
    /// [`run_fabric_search`](crate::fabric::run_fabric_search) — it would
    /// select a fabric behaviour that never existed (a loose local-storm
    /// MFS could shadow a victim-collapse discovery, and a saturated
    /// space could stall the fabric annealer).
    pub fn with_legacy_two_host_semantics(self) -> SearchConfig {
        self.with_stuck_skip_limit(None).with_identity_dedup(false)
    }

    /// A descriptive label such as "Collie(Diag)" or "BO w/o MFS(Perf)".
    pub fn label(&self) -> String {
        if self.strategy == SearchStrategy::Random {
            return "Random".to_string();
        }
        let signal = match self.signal {
            SignalMode::Performance => "Perf",
            SignalMode::Diagnostic => "Diag",
        };
        let mfs = if self.use_mfs { "" } else { " w/o MFS" };
        format!("{}{mfs}({signal})", self.strategy.label())
    }
}

impl SearchConfig {
    /// The constructor default for [`SearchConfig::memoize`]: on, unless
    /// the `COLLIE_MEMOIZE` environment variable disables it (`0`,
    /// `false`, or `off`) so CI can run the whole suite through the
    /// uncached path. A thin wrapper over the [`crate::env`] registry —
    /// the hook's grammar, clamp, and documentation live there, exactly
    /// once.
    pub fn default_memoize() -> bool {
        crate::env::memoize()
    }

    /// The constructor default for [`SearchConfig::incremental`]: on,
    /// unless the `COLLIE_INCREMENTAL` environment variable disables it
    /// (`0`, `false`, or `off`) so CI can run the whole suite through the
    /// from-scratch path. A thin wrapper over the [`crate::env`]
    /// registry.
    pub fn default_incremental() -> bool {
        crate::env::incremental()
    }
}

/// Run one search campaign on a subsystem.
pub fn run_search(
    engine: &mut WorkloadEngine,
    space: &SearchSpace,
    config: &SearchConfig,
) -> SearchOutcome {
    run_search_with_stats(engine, space, config).0
}

/// Run one search campaign through its own memo cache and also return the
/// evaluator's [`EvalProfile`]: the cache statistics (the outcome itself is
/// independent of the cache), per-compute latencies and incremental-reuse
/// counters the perf harnesses report.
pub fn run_search_with_stats(
    engine: &mut WorkloadEngine,
    space: &SearchSpace,
    config: &SearchConfig,
) -> (SearchOutcome, EvalProfile) {
    let monitor = AnomalyMonitor::new();
    engine.set_incremental(config.incremental);
    let mut evaluator = if config.memoize {
        Evaluator::new(engine)
    } else {
        Evaluator::uncached(engine)
    };
    let domain = WorkloadDomain::new(&mut evaluator, &monitor, space, config.signal);
    let outcome = SearchOutcome::from_report(config.label(), kernel::run_campaign(domain, config));
    (outcome, evaluator.profile())
}

#[cfg(test)]
mod tests {
    use super::*;
    use collie_rnic::subsystems::SubsystemId;

    fn quick_config(strategy: SearchStrategy, seed: u64) -> SearchConfig {
        SearchConfig {
            strategy,
            ..SearchConfig::collie(seed)
        }
        .with_budget(SimDuration::from_secs(3600))
    }

    #[test]
    fn labels_match_figure_legends() {
        assert_eq!(SearchConfig::collie(1).label(), "Collie(Diag)");
        assert_eq!(
            SearchConfig::collie(1)
                .with_signal(SignalMode::Performance)
                .label(),
            "Collie(Perf)"
        );
        assert_eq!(
            SearchConfig::collie(1).with_mfs(false).label(),
            "Collie w/o MFS(Diag)"
        );
        assert_eq!(SearchConfig::random(1).label(), "Random");
        assert_eq!(SearchConfig::bayesian(1).label(), "BO(Diag)");
    }

    #[test]
    fn every_strategy_stays_within_budget_and_finds_something() {
        for strategy in [
            SearchStrategy::Random,
            SearchStrategy::Bayesian,
            SearchStrategy::SimulatedAnnealing,
        ] {
            let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
            let space = SearchSpace::for_host(&SubsystemId::F.host());
            let config = quick_config(strategy, 7);
            let outcome = run_search(&mut engine, &space, &config);
            // A campaign may overshoot its budget by at most one experiment
            // plus one MFS extraction (an anomaly discovered just before the
            // deadline is still characterised, as on real hardware).
            assert!(
                outcome.elapsed <= config.budget + SimDuration::from_secs(4500),
                "{}: overspent budget ({})",
                strategy.label(),
                outcome.elapsed
            );
            assert!(outcome.experiments > 10, "{}", strategy.label());
            assert!(
                !outcome.discoveries.is_empty(),
                "{} found nothing in an hour on subsystem F",
                strategy.label()
            );
        }
    }

    #[test]
    fn random_search_finds_simple_anomalies_on_subsystem_f() {
        // The black-box fuzzing baseline: the space itself is expressive
        // enough that uniform sampling stumbles on the simple triggers.
        let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
        let space = SearchSpace::for_host(&SubsystemId::F.host());
        let config = SearchConfig {
            strategy: SearchStrategy::Random,
            ..SearchConfig::collie(11)
        }
        .with_budget(SimDuration::from_secs(2 * 3600));
        let outcome = run_search(&mut engine, &space, &config);
        assert!(
            !outcome.distinct_known_anomalies().is_empty(),
            "two simulated hours of random probing should stumble on something"
        );
        assert!(outcome.experiments > 50);
    }

    #[test]
    fn annealing_with_diag_counters_finds_multiple_distinct_anomalies() {
        let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
        let space = SearchSpace::for_host(&SubsystemId::F.host());
        let config = SearchConfig::collie(5).with_budget(SimDuration::from_secs(2 * 3600));
        let outcome = run_search(&mut engine, &space, &config);
        assert!(
            outcome.distinct_known_anomalies().len() >= 2,
            "found only {:?}",
            outcome.distinct_known_anomalies()
        );
        // The Figure-6 trace exists and contains anomaly markers.
        assert!(!outcome.trace.is_empty());
        assert!(!outcome.trace.anomaly_samples().is_empty());
    }

    #[test]
    fn performance_counter_mode_also_works() {
        let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
        let space = SearchSpace::for_host(&SubsystemId::F.host());
        let config = SearchConfig::collie(6)
            .with_signal(SignalMode::Performance)
            .with_budget(SimDuration::from_secs(3600));
        let outcome = run_search(&mut engine, &space, &config);
        assert!(!outcome.discoveries.is_empty());
    }

    #[test]
    fn constructor_defaults_delegate_to_the_env_registry() {
        // The parsers themselves are pinned in `crate::env::tests`; this
        // asserts the constructor defaults read through the registry (the
        // same process environment must produce the same answers).
        assert_eq!(SearchConfig::default_memoize(), crate::env::memoize());
        assert_eq!(
            SearchConfig::default_incremental(),
            crate::env::incremental()
        );
    }

    #[test]
    fn memoize_knob_never_serializes_into_fixtures() {
        // Like incremental evaluation, memoization is an execution
        // detail: a recorded golden fixture must not change because the
        // recording host had COLLIE_MEMOIZE set, and deserialized configs
        // fall back to the always-correct uncached path.
        let config = SearchConfig::collie(1).with_memoization(true);
        let json = serde_json::to_string(&config).unwrap();
        assert!(!json.contains("memoize"), "knob leaked into JSON: {json}");
        let back: SearchConfig = serde_json::from_str(&json).unwrap();
        assert!(!back.memoize);
    }

    #[test]
    fn incremental_knob_does_not_change_the_outcome_or_the_stats() {
        // Facade-level statement of the tentpole contract: cached stage
        // results substitute bit-identically for recomputed ones, so the
        // public entry point's outcome and evaluator statistics are
        // byte-for-byte equal with the knob on or off.
        let space = SearchSpace::for_host(&SubsystemId::F.host());
        for strategy in [
            SearchStrategy::Random,
            SearchStrategy::SimulatedAnnealing,
            SearchStrategy::Bayesian,
        ] {
            let config = SearchConfig {
                strategy,
                ..SearchConfig::collie(17)
            }
            .with_budget(SimDuration::from_secs(3600))
            .with_memoization(true)
            .with_incremental(false);
            let mut scratch_engine = WorkloadEngine::for_catalog(SubsystemId::F);
            let (scratch, scratch_profile) =
                run_search_with_stats(&mut scratch_engine, &space, &config);
            let mut inc_engine = WorkloadEngine::for_catalog(SubsystemId::F);
            let (incremental, incremental_profile) = run_search_with_stats(
                &mut inc_engine,
                &space,
                &config.clone().with_incremental(true),
            );
            assert_eq!(scratch, incremental, "{strategy:?}");
            assert_eq!(
                scratch_profile.stats, incremental_profile.stats,
                "{strategy:?}"
            );
            assert!(
                inc_engine.subsystem().incremental_use().total_hits() > 0,
                "{strategy:?}: the incremental leg never reused a stage"
            );
        }
    }

    #[test]
    fn incremental_knob_never_serializes_into_fixtures() {
        // Same rationale as the memoize knob: an execution detail must
        // not change a recorded fixture, and deserialized configs fall
        // back to the from-scratch path.
        let config = SearchConfig::collie(1).with_incremental(true);
        let json = serde_json::to_string(&config).unwrap();
        assert!(
            !json.contains("incremental"),
            "knob leaked into JSON: {json}"
        );
        let back: SearchConfig = serde_json::from_str(&json).unwrap();
        assert!(!back.incremental);
    }

    #[test]
    fn campaigns_are_deterministic_per_seed() {
        let space = SearchSpace::for_host(&SubsystemId::F.host());
        let config = quick_config(SearchStrategy::SimulatedAnnealing, 42)
            .with_budget(SimDuration::from_secs(1800));
        let mut a_engine = WorkloadEngine::for_catalog(SubsystemId::F);
        let a = run_search(&mut a_engine, &space, &config);
        let mut b_engine = WorkloadEngine::for_catalog(SubsystemId::F);
        let b = run_search(&mut b_engine, &space, &config);
        assert_eq!(a.experiments, b.experiments);
        assert_eq!(a.distinct_known_anomalies(), b.distinct_known_anomalies());
    }
}
