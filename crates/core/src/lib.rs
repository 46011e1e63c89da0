//! # collie-core
//!
//! The paper's primary contribution: a systematic search over RDMA
//! application workloads that uncovers performance anomalies in an RDMA
//! subsystem, guided only by hardware counters.
//!
//! The crate is organised exactly like Figure 2 of the paper:
//!
//! * [`space`] — the four-dimensional workload search space (host topology,
//!   memory allocation, transport setting, message pattern), with bounded
//!   value ladders, random sampling, and single-dimension mutation.
//! * [`engine`] — the workload engine: translates a search point into the
//!   flow-level workload the subsystem model evaluates (and, for
//!   validation, into actual verbs calls against the simulated fabric),
//!   plus the [`Engine`] trait every experiment engine implements.
//! * [`eval`] — the memoized evaluation layer: one point-keyed memo cache
//!   over any [`Engine`] (two-host or fabric) that every campaign routes
//!   its experiments through, so revisited points skip the flow-model
//!   recompute while still being charged their simulated hardware cost.
//! * [`monitor`] — the anomaly monitor: the pause-ratio and
//!   throughput-versus-spec detection conditions of §5.2, plus the minimal
//!   feature set (MFS) algorithm that extracts each anomaly's triggering
//!   conditions.
//! * [`search`] — the workload generator: the simulated-annealing search of
//!   Algorithm 1 driving performance counters to low regions and diagnostic
//!   counters to high regions, plus the random-fuzzing and Bayesian-
//!   optimisation baselines of §7.2 and the campaign driver that reproduces
//!   Figures 4–6.
//! * [`catalog`] — the ground-truth catalog of the 18 anomalies of Table 2
//!   with their Appendix-A concrete trigger settings; used by the
//!   benchmarks to score search outcomes and by `table2` to replay each
//!   anomaly.
//! * [`advisor`] — the two §7.3 workflows: anomaly *prevention* (restrict
//!   the space to what an application can generate and report which
//!   anomalies are reachable) and *debugging* (match a running workload
//!   against the discovered MFS set and suggest which condition to break).
//! * [`mitigation`] — the documented vendor fixes and workload bypasses of
//!   §7.1 / Appendix A (seven anomalies were fixed after disclosure; the
//!   rest must be avoided by changing the workload).
//! * [`remedy`] — the discovery → remediation → verification pipeline: the
//!   [`remedy::Qualifier`] re-measures each discovery with the advisor's
//!   mitigations applied one at a time and the persistent
//!   [`remedy::RegressionCatalog`] lets future campaigns skip
//!   known-cleared anomalies and flag regressions.
//! * [`mod@env`] — the single-source-of-truth registry of every `COLLIE_*`
//!   environment hook (name, default, clamp grammar, doc) with the one
//!   set of parsers and typed readers; `collie-lint` enforces statically
//!   that no env read bypasses it.
//! * [`report`] — serialisable experiment records used by the benchmark
//!   harness and EXPERIMENTS.md.
//! * [`fabric`] — the multi-host extension: N hosts on one lossless
//!   switch, PFC pause propagation to upstream ports, and fabric
//!   campaigns that hunt cross-host victim-collapse anomalies over the
//!   extended (workload + fabric) search space.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advisor;
pub mod catalog;
pub mod engine;
pub mod env;
pub mod eval;
pub mod fabric;
pub mod mitigation;
pub mod monitor;
pub mod remedy;
pub mod report;
pub mod search;
pub mod space;

pub use advisor::{Advisor, Suggestion};
pub use catalog::KnownAnomaly;
pub use engine::{Engine, WorkloadEngine};
pub use eval::{EvalStats, Evaluator};
pub use fabric::{FabricEngine, FabricEvaluator, FabricOutcome, FabricVerdict};
pub use mitigation::{Mitigation, MitigationKind, RemediationPlan};
pub use monitor::{AnomalyMonitor, AnomalyVerdict, Mfs, Symptom};
pub use remedy::{
    DiscoveredTrigger, MitigationStep, QualificationRecord, Qualifier, RegressionCatalog,
    RegressionFlag, Verdict,
};
pub use search::{SearchConfig, SearchOutcome, SearchStrategy, SignalMode};
pub use space::{FabricPoint, FabricSpace, Feature, SearchPoint, SearchSpace};
