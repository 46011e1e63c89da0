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
use crate::eval::Evaluator;
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
    /// Inert: every constructor sets it to `true` and nothing in the
    /// workspace reads it. Every campaign measures through the memoizing
    /// [`Evaluator::new`]; [`Evaluator::uncached`] is only the reference the
    /// bit-identity tests and the cache benches compare against. Kept only
    /// because the campaign benchmark (`crates/campaign-bench/src/layers.rs`)
    /// still reads it; ROADMAP's next benchmark revision deletes it.
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
    /// Inert: every constructor sets it to `Some(24)` and nothing in the
    /// workspace reads it. The annealer's stuck-walk escape is the kernel
    /// constant `STUCK_SKIP_LIMIT` (24 consecutive MFS skips). Kept only
    /// because the campaign benchmark still reads and sets it; ROADMAP's
    /// next benchmark revision deletes it.
    pub stuck_skip_limit: Option<u32>,
    /// Inert: every constructor sets it to `true` and nothing in the
    /// workspace reads it. Discovery dedup always requires a matching MFS
    /// of the same observable identity. Kept only because the campaign
    /// benchmark still sets it; ROADMAP's next benchmark revision deletes
    /// it.
    pub identity_dedup: bool,
    /// Inert: every constructor sets it to `false` and nothing in the
    /// workspace reads it. It selected the incremental delta caches, which
    /// were removed (DESIGN.md §11). Kept only because the campaign
    /// benchmark still reads it; ROADMAP's next benchmark revision deletes
    /// it.
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
            memoize: true,
            seed,
            budget: SimDuration::from_secs(10 * 3600),
            initial_temperature: 1.0,
            min_temperature: 0.05,
            alpha: 0.8,
            iterations_per_temperature: 8,
            stuck_skip_limit: Some(24),
            identity_dedup: true,
            incremental: false,
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

/// Run one search campaign on a subsystem, measuring through a fresh
/// memoizing [`Evaluator`].
pub fn run_search(
    engine: &mut WorkloadEngine,
    space: &SearchSpace,
    config: &SearchConfig,
) -> SearchOutcome {
    run_search_on(&mut Evaluator::new(engine), space, config)
}

/// Run one search campaign with every measurement going through
/// `evaluator`, so its [`Evaluator::stats`] afterwards holds the
/// campaign's memo-cache hits and misses (the outcome itself is
/// independent of the cache).
pub fn run_search_on(
    evaluator: &mut Evaluator,
    space: &SearchSpace,
    config: &SearchConfig,
) -> SearchOutcome {
    let monitor = AnomalyMonitor::new();
    let domain = WorkloadDomain::new(evaluator, &monitor, space, config.signal);
    SearchOutcome::from_report(config.label(), kernel::run_campaign(domain, config))
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
    fn memoize_knob_never_serializes_into_fixtures() {
        // The inert field stays `#[serde(skip)]` until it is deleted, so
        // it can never change a recorded golden fixture.
        let json = serde_json::to_string(&SearchConfig::collie(1)).unwrap();
        assert!(!json.contains("memoize"), "knob leaked into JSON: {json}");
    }

    #[test]
    fn incremental_knob_never_serializes_into_fixtures() {
        // The inert field stays `#[serde(skip)]` until it is deleted, so
        // setting it can never change a recorded fixture.
        let config = SearchConfig {
            incremental: true,
            ..SearchConfig::collie(1)
        };
        let json = serde_json::to_string(&config).unwrap();
        assert!(
            !json.contains("incremental"),
            "knob leaked into JSON: {json}"
        );
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
