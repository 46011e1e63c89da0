//! The three named campaign workloads and their campaign lists.
//!
//! Every campaign keeps the paper's 10-hour simulated budget on subsystem
//! F and the execution-mode defaults users get: none of
//! `with_memoization`, `with_speculation` or `with_incremental` is called.
//! Campaign seeds derive from the benchmark's workload seed, so one
//! `--seed` fixes every input of a run.

use collie_bench::CampaignSpec;
use collie_core::search::{SearchConfig, SignalMode};
use collie_rnic::subsystems::SubsystemId;

/// The subsystem every workload runs on (the paper's Figures 4, 5 and 7).
pub const SUBSYSTEM: SubsystemId = SubsystemId::F;

/// Which search domain a workload's campaigns explore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// The two-host workload space (`WorkloadDomain`).
    TwoHost,
    /// The multi-host fabric space (`FabricDomain`).
    Fabric,
}

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Random and BO baselines on the two-host domain: proposal generation
    /// and the MFS-skip filter dominate, cells share almost no points.
    Fuzz2Host,
    /// The Figure-5 Collie ablation grid plus the qualification phase:
    /// evaluator misses, flow-model compute and MFS probes dominate, and
    /// the four variants share seeds and therefore cache entries.
    Anneal2Host,
    /// The Figure-7 grid (Random, BO, Collie) on the fabric domain: the
    /// heavier `FabricEngine` path.
    FabricGrid,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [
        Workload::Fuzz2Host,
        Workload::Anneal2Host,
        Workload::FabricGrid,
    ];

    /// The name the `--workload` flag takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fuzz2Host => "fuzz-2host",
            Workload::Anneal2Host => "anneal-2host",
            Workload::FabricGrid => "fabric-grid",
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The search domain of every campaign in the workload.
    pub fn domain(self) -> Domain {
        match self {
            Workload::FabricGrid => Domain::Fabric,
            Workload::Fuzz2Host | Workload::Anneal2Host => Domain::TwoHost,
        }
    }

    /// Whether a round ends with the matrix's qualification phase.
    pub fn qualifies(self) -> bool {
        self == Workload::Anneal2Host
    }

    /// The campaign configurations (seed left at 0) of one round, in the
    /// order of the matching `fig4` / `fig5` / `fig7` grids.
    fn configs(self) -> Vec<SearchConfig> {
        match self {
            Workload::Fuzz2Host => vec![SearchConfig::random(0), SearchConfig::bayesian(0)],
            Workload::Anneal2Host => vec![
                SearchConfig::collie(0)
                    .with_mfs(false)
                    .with_signal(SignalMode::Performance),
                SearchConfig::collie(0)
                    .with_mfs(false)
                    .with_signal(SignalMode::Diagnostic),
                SearchConfig::collie(0).with_signal(SignalMode::Performance),
                SearchConfig::collie(0).with_signal(SignalMode::Diagnostic),
            ],
            Workload::FabricGrid => vec![
                SearchConfig::random(0),
                SearchConfig::bayesian(0),
                SearchConfig::collie(0),
            ],
        }
    }

    /// Campaign seeds per configuration in one round.
    fn seeds_per_config(self) -> u64 {
        match self {
            Workload::Fuzz2Host => 96,
            Workload::Anneal2Host => 64,
            Workload::FabricGrid => 96,
        }
    }

    /// The campaigns of one round, configuration-major (every configuration
    /// runs the same seed list, so cells of one seed share cache entries).
    pub fn campaigns(self, workload_seed: u64) -> Vec<CampaignSpec> {
        let seeds: Vec<u64> = (0..self.seeds_per_config())
            .map(|index| campaign_seed(workload_seed, index))
            .collect();
        self.configs()
            .iter()
            .flat_map(|config| {
                seeds
                    .iter()
                    .map(|&seed| CampaignSpec::seeded(SUBSYSTEM, config, seed))
            })
            .collect()
    }
}

/// Campaign seed `index` of a workload seed (SplitMix64 finaliser over the
/// pair, so neighbouring workload seeds give unrelated campaign seeds).
pub fn campaign_seed(workload_seed: u64, index: u64) -> u64 {
    let mut z = workload_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::parse("fuzz"), None);
    }

    #[test]
    fn campaigns_follow_the_seed_and_share_it_across_configurations() {
        for workload in Workload::ALL {
            let a = workload.campaigns(7);
            assert_eq!(a, workload.campaigns(7));
            assert_ne!(a, workload.campaigns(8));
            assert!(
                a.len() >= 100,
                "{}: p90 needs 10 samples beyond it",
                workload.name()
            );
            let per = workload.seeds_per_config() as usize;
            let seeds = |block: usize| -> Vec<u64> {
                a[block * per..(block + 1) * per]
                    .iter()
                    .map(|spec| spec.config.seed)
                    .collect()
            };
            for block in 1..a.len() / per {
                assert_eq!(seeds(block), seeds(0));
            }
        }
    }
}
