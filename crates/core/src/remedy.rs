//! The discovery → remediation → verification pipeline (§7).
//!
//! Finding an anomaly is half of Collie's pitch; the other half is the
//! qualification service around it: a vendor or operator applies a
//! documented fix, Collie *re-runs the trigger under the mitigated
//! configuration* and records whether the anomaly actually cleared, and the
//! deployment keeps replaying previously-cleared triggers so a firmware or
//! configuration rollback is caught as a regression instead of rediscovered
//! weeks later by a fresh campaign.
//!
//! This module owns that loop:
//!
//! * [`Qualifier`] takes a trigger (a campaign discovery or a catalogued
//!   anomaly), collects the matching [`RemediationPlan`]s from the
//!   [`Advisor`] and the anomaly catalog, and applies their mitigations
//!   **cumulatively, one at a time, in plan order** — not all at once the
//!   way [`RemediationPlan::apply_subsystem_side`] does. After each
//!   mitigation the trigger is re-measured through the standard memoized
//!   [`Evaluator`] on a fresh engine clone, and a per-mitigation [`Verdict`]
//!   records whether the symptom cleared, what residual symptom remains,
//!   and how the counters moved. One mitigation at a time matters: #12's
//!   trigger also falls into #9's bottleneck, so the ACS fix alone leaves a
//!   residual pause storm that an all-at-once application would hide.
//! * [`QualificationRecord`] is the durable result: the trigger, the
//!   mitigation steps in order, and which mitigation (if any) cleared it.
//!   Anomalies with no documented fix are recorded honestly with an empty
//!   step list and `cleared_by: None`.
//! * [`RegressionCatalog`] persists the records as versioned JSON. Future
//!   campaigns load it to skip re-reporting known-cleared anomalies under a
//!   mitigated fixture, and [`RegressionCatalog::check_regressions`]
//!   replays every cleared record so a trigger that goes anomalous again is
//!   flagged as a [`RegressionFlag`].
//!
//! Every measurement happens on a clone of the engine: a subsystem-level
//! mitigation rewrites the configuration it is applied to, and an
//! [`Evaluator`]'s memo keys on the point alone, so each step applies its
//! cumulative mitigations to a fresh clone, measures through a fresh
//! evaluator, and leaves the caller's engine unmitigated.

use crate::advisor::Advisor;
use crate::catalog::KnownAnomaly;
use crate::engine::WorkloadEngine;
use crate::eval::Evaluator;
use crate::mitigation::{Mitigation, RemediationPlan};
use crate::monitor::{AnomalyMonitor, Symptom};
use crate::space::{SearchPoint, SearchSpace};
use collie_rnic::subsystem::Measurement;
use collie_rnic::subsystems::SubsystemId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// Format version of the on-disk [`RegressionCatalog`]. Bumped whenever the
/// record schema changes incompatibly; [`RegressionCatalog::from_json`]
/// rejects files written by a different version instead of misreading them.
pub const REGRESSION_CATALOG_VERSION: u32 = 1;

/// The outcome of re-measuring a trigger after one more mitigation was
/// applied.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Verdict {
    /// True if the workload is no longer anomalous under the mitigations
    /// applied so far.
    pub cleared: bool,
    /// The symptom still present after this mitigation (`None` when
    /// cleared).
    pub residual_symptom: Option<Symptom>,
    /// How every counter moved relative to the previous measurement of
    /// this qualification (the unmitigated baseline for the first step).
    /// Zero deltas are omitted.
    pub counters_delta: BTreeMap<String, f64>,
}

/// One mitigation of a qualification run and the verdict it earned.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MitigationStep {
    /// The mitigation applied at this step (cumulative with all earlier
    /// steps of the same record).
    pub mitigation: Mitigation,
    /// The re-measurement verdict with this mitigation in effect.
    pub verdict: Verdict,
}

/// The durable result of qualifying one trigger: which mitigations were
/// tried, in order, and whether the anomaly cleared.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QualificationRecord {
    /// The subsystem the trigger was qualified against.
    pub subsystem: SubsystemId,
    /// The catalogued anomalies this trigger maps to (sorted, deduped;
    /// empty for an uncatalogued discovery).
    pub anomaly_ids: Vec<u32>,
    /// The symptom of the unmitigated trigger.
    pub symptom: Symptom,
    /// The anomalous workload, as discovered (before any workload-side
    /// mitigation).
    pub trigger: SearchPoint,
    /// The mitigation steps in application order.
    pub steps: Vec<MitigationStep>,
    /// The mitigation whose step cleared the anomaly, if any.
    pub cleared_by: Option<Mitigation>,
}

impl QualificationRecord {
    /// Stable identity used for dedup and catalog lookups: the anomaly ids
    /// when the trigger is catalogued, otherwise the symptom plus a hash of
    /// the trigger itself.
    pub fn identity(&self) -> String {
        trigger_identity(
            self.subsystem,
            self.symptom,
            &self.anomaly_ids,
            &self.trigger,
        )
    }

    /// True if some mitigation step cleared the anomaly.
    pub fn cleared(&self) -> bool {
        self.cleared_by.is_some()
    }

    /// True if the anomaly cleared using documented *fixes* only — the
    /// paper's bar for "fixed". A record cleared by a workload bypass
    /// (e.g. avoiding RDMA loopback for #13) is cleared but not fixed.
    pub fn fixed(&self) -> bool {
        self.cleared() && self.applied().iter().all(|m| m.counted_as_fixed())
    }

    /// The cumulative mitigations in effect when the final verdict was
    /// reached: every step up to and including the clearing one, or every
    /// step if the anomaly never cleared.
    pub fn applied(&self) -> Vec<Mitigation> {
        let upto = match self.cleared_by {
            Some(by) => self
                .steps
                .iter()
                .position(|s| s.mitigation == by)
                .map(|i| i + 1)
                .unwrap_or(self.steps.len()),
            None => self.steps.len(),
        };
        self.steps[..upto].iter().map(|s| s.mitigation).collect()
    }
}

/// Stable identity of a trigger for dedup and catalog lookups. Catalogued
/// triggers are identified by their anomaly-id set (so the same anomaly
/// re-found by different campaigns collapses to one record); uncatalogued
/// ones by symptom plus a hash of the canonical trigger JSON.
pub fn trigger_identity(
    subsystem: SubsystemId,
    symptom: Symptom,
    anomaly_ids: &[u32],
    trigger: &SearchPoint,
) -> String {
    if anomaly_ids.is_empty() {
        let json = serde_json::to_string(trigger).unwrap_or_default();
        format!("{subsystem:?}/{symptom:?}/{:016x}", fnv1a(json.as_bytes()))
    } else {
        let ids: Vec<String> = anomaly_ids.iter().map(|id| format!("#{id}")).collect();
        format!("{subsystem:?}/{}", ids.join("+"))
    }
}

/// The anomaly ids named by a set of ground-truth rule labels
/// (`"collie/9"` → 9), sorted and deduped.
pub fn anomaly_ids_from_rules(rules: &[String]) -> Vec<u32> {
    let mut ids: Vec<u32> = rules
        .iter()
        .filter_map(|rule| rule.strip_prefix("collie/"))
        .filter_map(|id| id.parse().ok())
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// Counter movement between two measurements, zero deltas omitted.
fn counters_delta(before: &Measurement, after: &Measurement) -> BTreeMap<String, f64> {
    let mut delta = BTreeMap::new();
    for (name, _, value) in after.counters.iter() {
        delta.insert(name.to_string(), value);
    }
    for (name, _, value) in before.counters.iter() {
        *delta.entry(name.to_string()).or_insert(0.0) -= value;
    }
    delta.retain(|_, d| *d != 0.0);
    delta
}

/// A discovery handed to the qualifier: the anomalous workload, its
/// symptom, and the ground-truth rules it matched (used to map it back to
/// catalogued anomalies).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiscoveredTrigger {
    /// The anomalous workload.
    pub point: SearchPoint,
    /// Its end-to-end symptom.
    pub symptom: Symptom,
    /// Ground-truth rule labels the discovery matched (may be empty).
    pub matched_rules: Vec<String>,
}

impl DiscoveredTrigger {
    /// The identity this trigger would have in a [`RegressionCatalog`]
    /// qualified against `subsystem`.
    pub fn identity(&self, subsystem: SubsystemId) -> String {
        trigger_identity(
            subsystem,
            self.symptom,
            &anomaly_ids_from_rules(&self.matched_rules),
            &self.point,
        )
    }
}

/// Runs the remediation → verification half of the loop for one subsystem.
#[derive(Debug, Clone)]
pub struct Qualifier {
    subsystem: SubsystemId,
    advisor: Advisor,
}

impl Qualifier {
    /// A qualifier armed with the anomaly catalog of `subsystem`.
    pub fn for_subsystem(subsystem: SubsystemId) -> Qualifier {
        Qualifier {
            subsystem,
            advisor: Advisor::for_subsystem(subsystem),
        }
    }

    /// The subsystem this qualifier verifies against.
    pub fn subsystem(&self) -> SubsystemId {
        self.subsystem
    }

    /// The ordered, deduped mitigation sequence to try for a trigger: the
    /// plans of the anomalies it maps to by ground truth, then the plans of
    /// every catalogued anomaly the advisor says the workload resembles.
    fn mitigation_sequence(&self, trigger: &SearchPoint, anomaly_ids: &[u32]) -> Vec<Mitigation> {
        let mut plans: Vec<RemediationPlan> = anomaly_ids
            .iter()
            .filter_map(|id| KnownAnomaly::by_id(*id))
            .map(|a| RemediationPlan::for_anomaly(&a))
            .collect();
        for plan in self.advisor.remediation_plans(trigger) {
            if !plans.iter().any(|p| p.anomaly_id == plan.anomaly_id) {
                plans.push(plan);
            }
        }
        let mut sequence = Vec::new();
        for plan in &plans {
            for m in &plan.mitigations {
                if !sequence.contains(m) {
                    sequence.push(*m);
                }
            }
        }
        sequence
    }

    /// Qualify one trigger: measure the unmitigated baseline, then apply
    /// the mitigation sequence cumulatively — one mitigation per step, each
    /// step re-measured through a memoized [`Evaluator`] on a fresh clone of
    /// `engine` — stopping at the first step that clears the anomaly.
    ///
    /// Returns `None` if the trigger is not anomalous on `engine` to begin
    /// with (nothing to remediate). A trigger with no documented
    /// mitigations yields a record with an empty step list and
    /// `cleared_by: None` — the honest "no fix exists" entry.
    pub fn qualify(
        &self,
        engine: &WorkloadEngine,
        trigger: &SearchPoint,
        matched_rules: &[String],
    ) -> Option<QualificationRecord> {
        let monitor = AnomalyMonitor::new();
        let mut baseline_engine = engine.clone();
        let (baseline, verdict) =
            Evaluator::new(&mut baseline_engine).measure_and_assess(&monitor, trigger);
        let symptom = verdict.symptom?;

        let anomaly_ids = anomaly_ids_from_rules(matched_rules);
        let sequence = self.mitigation_sequence(trigger, &anomaly_ids);

        let mut steps = Vec::new();
        let mut cleared_by = None;
        let mut applied: Vec<Mitigation> = Vec::new();
        let mut workload = trigger.clone();
        let mut previous = baseline;
        for mitigation in sequence {
            applied.push(mitigation);
            mitigation.apply_to_workload(&mut workload);
            // Fresh clone per step: the caller's engine stays unmitigated,
            // and the step's memo never holds a measurement taken under a
            // different configuration.
            let mut stepped = engine.clone();
            for m in &applied {
                m.apply_to_subsystem(stepped.subsystem_mut());
            }
            let (measurement, verdict) =
                Evaluator::new(&mut stepped).measure_and_assess(&monitor, &workload);
            let cleared = !verdict.is_anomalous();
            steps.push(MitigationStep {
                mitigation,
                verdict: Verdict {
                    cleared,
                    residual_symptom: verdict.symptom,
                    counters_delta: counters_delta(&previous, &measurement),
                },
            });
            previous = measurement;
            if cleared {
                cleared_by = Some(mitigation);
                break;
            }
        }

        Some(QualificationRecord {
            subsystem: self.subsystem,
            anomaly_ids,
            symptom,
            trigger: trigger.clone(),
            steps,
            cleared_by,
        })
    }

    /// Qualify a catalogued anomaly against a fresh engine for its own
    /// subsystem. Panics if the catalogued trigger does not reproduce —
    /// that is a broken catalog, not a qualification outcome.
    pub fn qualify_known(&self, anomaly: &KnownAnomaly) -> QualificationRecord {
        let engine = WorkloadEngine::for_catalog(anomaly.subsystem);
        self.qualify(
            &engine,
            &anomaly.trigger,
            std::slice::from_ref(&anomaly.rule),
        )
        .unwrap_or_else(|| {
            panic!(
                "catalogued trigger of #{} did not reproduce on {:?}",
                anomaly.id, anomaly.subsystem
            )
        })
    }
}

/// One previously-cleared trigger that is anomalous again under its
/// recorded mitigations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegressionFlag {
    /// Identity of the regressed record (see
    /// [`QualificationRecord::identity`]).
    pub identity: String,
    /// The subsystem the record was qualified against.
    pub subsystem: SubsystemId,
    /// The catalogued anomalies involved.
    pub anomaly_ids: Vec<u32>,
    /// The symptom observed on replay.
    pub residual_symptom: Symptom,
}

/// The persistent, versioned result set of qualification runs.
///
/// Serialised as pretty JSON (`{"version": 1, "records": [...]}`); the
/// version gate makes a schema change a load error instead of silent
/// misreads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegressionCatalog {
    /// Format version; must equal [`REGRESSION_CATALOG_VERSION`] to load.
    pub version: u32,
    /// The qualification records, in insertion order.
    pub records: Vec<QualificationRecord>,
}

impl Default for RegressionCatalog {
    fn default() -> Self {
        RegressionCatalog::new()
    }
}

impl RegressionCatalog {
    /// An empty catalog at the current format version.
    pub fn new() -> RegressionCatalog {
        RegressionCatalog {
            version: REGRESSION_CATALOG_VERSION,
            records: Vec::new(),
        }
    }

    /// Insert or replace a record by identity.
    pub fn upsert(&mut self, record: QualificationRecord) {
        let identity = record.identity();
        match self.records.iter_mut().find(|r| r.identity() == identity) {
            Some(existing) => *existing = record,
            None => self.records.push(record),
        }
    }

    /// Look up a record by identity.
    pub fn get(&self, identity: &str) -> Option<&QualificationRecord> {
        self.records.iter().find(|r| r.identity() == identity)
    }

    /// True if the catalog already records this identity as cleared — the
    /// "skip re-reporting under a mitigated fixture" predicate campaigns
    /// consult.
    pub fn is_known_cleared(&self, identity: &str) -> bool {
        self.get(identity).is_some_and(|r| r.cleared())
    }

    /// Render as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_string())
    }

    /// Parse from JSON, rejecting version mismatches and records whose
    /// trigger is not a well-formed point of its subsystem's search space
    /// (replaying one would judge a workload that cannot exist).
    pub fn from_json(text: &str) -> Result<RegressionCatalog, String> {
        let catalog: RegressionCatalog =
            serde_json::from_str(text).map_err(|e| format!("malformed regression catalog: {e}"))?;
        if catalog.version != REGRESSION_CATALOG_VERSION {
            return Err(format!(
                "regression catalog version {} is not the supported version {}",
                catalog.version, REGRESSION_CATALOG_VERSION
            ));
        }
        let malformed = catalog.records.iter().find(|record| {
            let space = SearchSpace::for_host(&record.subsystem.host());
            !record.trigger.is_well_formed(&space)
        });
        if let Some(record) = malformed {
            return Err(format!(
                "regression catalog record {} has a trigger that is not well-formed on its \
                 subsystem: {}",
                record.identity(),
                record.trigger
            ));
        }
        Ok(catalog)
    }

    /// Write the catalog to `path` as JSON.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Load a catalog from `path`, failing on parse or version errors.
    pub fn load(path: &Path) -> io::Result<RegressionCatalog> {
        let text = std::fs::read_to_string(path)?;
        RegressionCatalog::from_json(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Replay every cleared record under its recorded mitigations on a
    /// fresh engine and flag the ones that are anomalous again — the
    /// "previously-cleared trigger went anomalous" half of the regression
    /// watch.
    pub fn check_regressions(&self) -> Vec<RegressionFlag> {
        let monitor = AnomalyMonitor::new();
        let mut flags = Vec::new();
        for record in self.records.iter().filter(|r| r.cleared()) {
            let mut engine = WorkloadEngine::for_catalog(record.subsystem);
            let mut workload = record.trigger.clone();
            for m in record.applied() {
                m.apply_to_subsystem(engine.subsystem_mut());
                m.apply_to_workload(&mut workload);
            }
            let (_, verdict) = Evaluator::new(&mut engine).measure_and_assess(&monitor, &workload);
            if let Some(symptom) = verdict.symptom {
                flags.push(RegressionFlag {
                    identity: record.identity(),
                    subsystem: record.subsystem,
                    anomaly_ids: record.anomaly_ids.clone(),
                    residual_symptom: symptom,
                });
            }
        }
        flags
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qualify_known_clears_anomaly_3_with_raise_mtu_alone() {
        let anomaly = KnownAnomaly::by_id(3).unwrap();
        let qualifier = Qualifier::for_subsystem(anomaly.subsystem);
        let record = qualifier.qualify_known(&anomaly);
        assert_eq!(record.cleared_by, Some(Mitigation::RaiseMtu));
        assert!(record.fixed());
        assert_eq!(record.anomaly_ids, vec![3]);
        assert_eq!(record.identity(), "F/#3");
        let step = record.steps.last().unwrap();
        assert!(step.verdict.cleared);
        assert_eq!(step.verdict.residual_symptom, None);
        assert!(
            !step.verdict.counters_delta.is_empty(),
            "raising the MTU must move counters"
        );
    }

    #[test]
    fn anomaly_12_needs_both_the_acs_fix_and_relaxed_ordering() {
        // #12's trigger also sits in #9's bottleneck: the ACS fix alone
        // must be recorded as "not cleared" with a residual pause storm,
        // and the cumulative relaxed-ordering step then clears it. This is
        // exactly what all-at-once application would hide.
        let anomaly = KnownAnomaly::by_id(12).unwrap();
        let qualifier = Qualifier::for_subsystem(anomaly.subsystem);
        let record = qualifier.qualify_known(&anomaly);
        assert_eq!(
            record.steps[0].mitigation,
            Mitigation::FixAcsConfiguration,
            "{record:?}"
        );
        assert!(!record.steps[0].verdict.cleared);
        assert_eq!(
            record.steps[0].verdict.residual_symptom,
            Some(Symptom::PauseStorm)
        );
        assert_eq!(record.cleared_by, Some(Mitigation::ForceRelaxedOrdering));
        assert!(record.fixed(), "both steps are documented fixes");
        assert_eq!(
            record.applied(),
            vec![
                Mitigation::FixAcsConfiguration,
                Mitigation::ForceRelaxedOrdering
            ]
        );
    }

    #[test]
    fn bypass_only_anomaly_13_is_cleared_but_not_fixed() {
        let anomaly = KnownAnomaly::by_id(13).unwrap();
        let qualifier = Qualifier::for_subsystem(anomaly.subsystem);
        let record = qualifier.qualify_known(&anomaly);
        assert_eq!(record.cleared_by, Some(Mitigation::AvoidLoopbackViaIpc));
        assert!(record.cleared());
        assert!(!record.fixed(), "a workload bypass is not a fix");
    }

    #[test]
    fn unfixable_anomaly_is_recorded_honestly() {
        let anomaly = KnownAnomaly::by_id(4).unwrap();
        let qualifier = Qualifier::for_subsystem(anomaly.subsystem);
        let record = qualifier.qualify_known(&anomaly);
        assert!(record.steps.is_empty(), "#4 has no documented mitigation");
        assert_eq!(record.cleared_by, None);
        assert!(!record.cleared());
    }

    #[test]
    fn benign_points_do_not_qualify() {
        let qualifier = Qualifier::for_subsystem(SubsystemId::F);
        let engine = WorkloadEngine::for_catalog(SubsystemId::F);
        assert_eq!(
            qualifier.qualify(&engine, &SearchPoint::benign(), &[]),
            None
        );
    }

    #[test]
    fn catalog_round_trips_and_rejects_version_drift() {
        let anomaly = KnownAnomaly::by_id(3).unwrap();
        let qualifier = Qualifier::for_subsystem(anomaly.subsystem);
        let mut catalog = RegressionCatalog::new();
        catalog.upsert(qualifier.qualify_known(&anomaly));
        let back = RegressionCatalog::from_json(&catalog.to_json()).unwrap();
        assert_eq!(back, catalog);
        assert!(back.is_known_cleared("F/#3"));
        assert!(!back.is_known_cleared("F/#4"));

        let mut drifted = catalog.clone();
        drifted.version += 1;
        let err = RegressionCatalog::from_json(&drifted.to_json()).unwrap_err();
        assert!(err.contains("version"), "{err}");
    }

    #[test]
    fn catalog_rejects_triggers_outside_their_subsystems_space() {
        // Such a trigger parses, but would replay into a false regression
        // (GPU 9 on F) or a silent pass (no messages, no QPs).
        let anomaly = KnownAnomaly::by_id(3).unwrap();
        let record = Qualifier::for_subsystem(anomaly.subsystem).qualify_known(&anomaly);
        let edits: [fn(&mut SearchPoint); 3] = [
            |p| p.dst_memory = collie_host::memory::MemoryTarget::GpuMemory { gpu_id: 9 },
            |p| p.messages.clear(),
            |p| p.num_qps = 0,
        ];
        for edit in edits {
            let mut catalog = RegressionCatalog::new();
            catalog.upsert(record.clone());
            edit(&mut catalog.records[0].trigger);
            let err = RegressionCatalog::from_json(&catalog.to_json()).unwrap_err();
            assert!(err.contains("F/#3") && err.contains("well-formed"), "{err}");
        }
    }

    #[test]
    fn every_truncated_catalog_is_rejected() {
        // Every strict prefix of a saved one-record catalog is an error,
        // never a panic.
        let anomaly = KnownAnomaly::by_id(3).unwrap();
        let mut catalog = RegressionCatalog::new();
        catalog.upsert(Qualifier::for_subsystem(anomaly.subsystem).qualify_known(&anomaly));
        let json = catalog.to_json();
        assert!(RegressionCatalog::from_json(&json).is_ok());
        for (end, _) in json.char_indices() {
            let prefix = &json[..end];
            assert!(RegressionCatalog::from_json(prefix).is_err(), "{prefix}");
        }
    }

    #[test]
    fn upsert_replaces_by_identity() {
        let anomaly = KnownAnomaly::by_id(3).unwrap();
        let qualifier = Qualifier::for_subsystem(anomaly.subsystem);
        let record = qualifier.qualify_known(&anomaly);
        let mut catalog = RegressionCatalog::new();
        catalog.upsert(record.clone());
        catalog.upsert(record);
        assert_eq!(catalog.records.len(), 1);
    }

    #[test]
    fn regression_check_passes_honest_records_and_flags_stale_claims() {
        let qualifier = Qualifier::for_subsystem(SubsystemId::F);
        let mut catalog = RegressionCatalog::new();
        catalog.upsert(qualifier.qualify_known(&KnownAnomaly::by_id(3).unwrap()));
        catalog.upsert(qualifier.qualify_known(&KnownAnomaly::by_id(4).unwrap()));
        assert_eq!(catalog.check_regressions(), vec![]);

        // A record claiming #3 cleared with no mitigation applied is what a
        // rollback looks like: the replay must flag it.
        let mut stale = catalog.get("F/#3").unwrap().clone();
        stale.steps.clear();
        stale.cleared_by = Some(Mitigation::RaiseMtu);
        catalog.upsert(stale);
        let flags = catalog.check_regressions();
        assert_eq!(flags.len(), 1, "{flags:?}");
        assert_eq!(flags[0].identity, "F/#3");
        assert_eq!(flags[0].anomaly_ids, vec![3]);
    }

    #[test]
    fn identities_distinguish_catalogued_and_uncatalogued_triggers() {
        let anomaly = KnownAnomaly::by_id(9).unwrap();
        assert_eq!(
            trigger_identity(SubsystemId::F, anomaly.symptom, &[9], &anomaly.trigger),
            "F/#9"
        );
        assert_eq!(
            trigger_identity(SubsystemId::F, anomaly.symptom, &[9, 12], &anomaly.trigger),
            "F/#9+#12"
        );
        let unc = trigger_identity(SubsystemId::F, anomaly.symptom, &[], &anomaly.trigger);
        assert!(unc.starts_with("F/PauseStorm/"), "{unc}");
        assert_eq!(
            anomaly_ids_from_rules(&["collie/12".into(), "collie/9".into()]),
            vec![9, 12]
        );
    }
}
