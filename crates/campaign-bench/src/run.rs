//! Untraced rounds through the public matrix runners, and the output
//! checks that turn a wrong campaign into a failed operation.

use crate::trace::ns_since;
use crate::workload::{Domain, Workload, SUBSYSTEM};
use collie_bench::{
    run_campaign_matrix_report, run_fabric_campaign_matrix_report, CampaignSpec, MatrixOptions,
    QualificationPhase,
};
use collie_core::engine::WorkloadEngine;
use collie_core::fabric::{assess_fabric, FabricEngine, FabricOutcome};
use collie_core::monitor::AnomalyMonitor;
use collie_core::search::SearchOutcome;
use collie_sim::time::SimDuration;
use std::time::Instant;

/// The matrix pool width: a closed loop of two workers, each taking the
/// next campaign only when its previous one finishes.
pub const WORKERS: usize = 2;

/// What one finished campaign contributes to the end-to-end metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignSample {
    /// Wall-clock of the campaign (`MatrixCell::wall_secs`), in ns.
    pub wall_ns: u64,
    /// Simulated hours the campaign completed (`outcome.elapsed`).
    pub sim_hours: f64,
    /// Distinct catalogued anomalies it found.
    pub anomalies: usize,
}

/// The campaign outcomes of one round, kept for the output checks.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcomes {
    /// Two-host cells, plus the qualification phase when the workload runs
    /// one.
    TwoHost {
        /// One outcome per campaign, in matrix order.
        cells: Vec<SearchOutcome>,
        /// The matrix's qualification phase, if requested.
        qualification: Option<QualificationPhase>,
    },
    /// Fabric cells, in matrix order.
    Fabric(Vec<FabricOutcome>),
}

impl Outcomes {
    /// Number of campaigns in the round.
    pub fn len(&self) -> usize {
        match self {
            Outcomes::TwoHost { cells, .. } => cells.len(),
            Outcomes::Fabric(cells) => cells.len(),
        }
    }
}

/// The timings of one untraced round: every campaign of the workload
/// through one matrix call.
#[derive(Debug, Clone)]
pub struct Round {
    /// Pool width the round ran on.
    pub workers: usize,
    /// Wall-clock of the matrix call (campaigns plus any qualification).
    pub wall_ns: u64,
    /// One sample per campaign, in matrix order.
    pub samples: Vec<CampaignSample>,
}

impl Round {
    /// Simulated hours completed per wall-clock second.
    pub fn sim_hours_per_s(&self) -> f64 {
        let hours: f64 = self.samples.iter().map(|s| s.sim_hours).sum();
        hours / (self.wall_ns as f64 / 1e9)
    }

    /// Σ campaign wall ÷ (workers × round wall): how busy the pool kept.
    pub fn busy_share(&self) -> f64 {
        let busy: u64 = self.samples.iter().map(|s| s.wall_ns).sum();
        busy as f64 / (self.workers as f64 * self.wall_ns as f64)
    }
}

fn sample(wall_secs: f64, elapsed: SimDuration, anomalies: usize) -> CampaignSample {
    CampaignSample {
        wall_ns: (wall_secs * 1e9).round() as u64,
        sim_hours: elapsed.as_secs_f64() / 3600.0,
        anomalies,
    }
}

/// Run one untraced round on the [`WORKERS`]-wide pool.
pub fn run_round(workload: Workload, specs: &[CampaignSpec]) -> (Round, Outcomes) {
    run_round_with_workers(workload, specs, WORKERS)
}

/// Run one untraced round on an explicit pool width, with cache sharing
/// and its bound at their defaults and qualification when the workload
/// asks for it.
pub fn run_round_with_workers(
    workload: Workload,
    specs: &[CampaignSpec],
    workers: usize,
) -> (Round, Outcomes) {
    let mut options = MatrixOptions::new(workers);
    if workload.qualifies() {
        options = options.with_qualification();
    }
    let started = Instant::now();
    match workload.domain() {
        Domain::TwoHost => {
            let report = run_campaign_matrix_report(specs, &options);
            let wall_ns = ns_since(started);
            let samples = report
                .cells
                .iter()
                .map(|c| {
                    let anomalies = c.outcome.distinct_known_anomalies().len();
                    sample(c.wall_secs, c.outcome.elapsed, anomalies)
                })
                .collect();
            let outcomes = Outcomes::TwoHost {
                cells: report.cells.into_iter().map(|c| c.outcome).collect(),
                qualification: report.qualification,
            };
            (
                Round {
                    workers,
                    wall_ns,
                    samples,
                },
                outcomes,
            )
        }
        Domain::Fabric => {
            let report = run_fabric_campaign_matrix_report(specs, &options);
            let wall_ns = ns_since(started);
            let samples = report
                .cells
                .iter()
                .map(|c| {
                    let anomalies = c.outcome.distinct_known_anomalies().len();
                    sample(c.wall_secs, c.outcome.elapsed, anomalies)
                })
                .collect();
            let outcomes = Outcomes::Fabric(report.cells.into_iter().map(|c| c.outcome).collect());
            (
                Round {
                    workers,
                    wall_ns,
                    samples,
                },
                outcomes,
            )
        }
    }
}

/// The engine the output checks re-measure discoveries on, built fresh
/// during set-up.
pub enum Verifier {
    /// A two-host engine.
    TwoHost(WorkloadEngine),
    /// A fabric engine.
    Fabric(FabricEngine),
}

impl Verifier {
    /// Build the verifier for a workload's domain.
    pub fn build(domain: Domain) -> Verifier {
        match domain {
            Domain::TwoHost => Verifier::TwoHost(WorkloadEngine::for_catalog(SUBSYSTEM)),
            Domain::Fabric => Verifier::Fabric(FabricEngine::for_catalog(SUBSYSTEM)),
        }
    }

    /// Per campaign: whether every reported discovery, re-measured through
    /// the public `measure` and `assess` / `assess_fabric`, is anomalous
    /// with its recorded symptom (and hallmark) and lies inside its own MFS.
    pub fn check(&mut self, outcomes: &Outcomes) -> Vec<bool> {
        let monitor = AnomalyMonitor::new();
        match (self, outcomes) {
            (Verifier::TwoHost(engine), Outcomes::TwoHost { cells, .. }) => cells
                .iter()
                .map(|outcome| {
                    outcome.discoveries.iter().all(|d| {
                        let measurement = engine.measure(&d.point);
                        let verdict = monitor.assess(&measurement, &engine.subsystem().rnic);
                        verdict.symptom == Some(d.symptom) && d.mfs.matches(&d.point)
                    })
                })
                .collect(),
            (Verifier::Fabric(engine), Outcomes::Fabric(cells)) => cells
                .iter()
                .map(|outcome| {
                    outcome.discoveries.iter().all(|d| {
                        let verdict = assess_fabric(&monitor, &engine.measure(&d.point));
                        verdict.symptom == Some(d.symptom)
                            && verdict.cross_host == d.cross_host
                            && d.mfs.matches(&d.point)
                    })
                })
                .collect(),
            _ => vec![false; outcomes.len()],
        }
    }
}

/// Per campaign: whether `round` reproduced `reference` exactly (rounds
/// repeat the same campaigns, so any difference is a determinism failure).
/// A differing qualification phase fails every campaign of the round.
pub fn same_as(round: &Outcomes, reference: &Outcomes) -> Vec<bool> {
    match (round, reference) {
        (
            Outcomes::TwoHost {
                cells,
                qualification,
            },
            Outcomes::TwoHost {
                cells: expected,
                qualification: expected_qualification,
            },
        ) => {
            let qualified_alike = qualification == expected_qualification;
            cells
                .iter()
                .zip(expected)
                .map(|(a, b)| qualified_alike && a == b)
                .collect()
        }
        (Outcomes::Fabric(cells), Outcomes::Fabric(expected)) => {
            cells.iter().zip(expected).map(|(a, b)| a == b).collect()
        }
        _ => vec![false; round.len()],
    }
}
