//! The anomaly monitor (§5.2).
//!
//! Two responsibilities, mirroring Figure 2: detect whether an experiment's
//! measurement is anomalous ([`AnomalyMonitor`]), and — once a new anomaly
//! is found — describe the minimal feature set that reproduces it
//! ([`Mfs`], extracted by the generic
//! [`kernel::MfsExtractor`](crate::search::kernel::MfsExtractor)).

mod anomaly;
mod mfs;

pub use anomaly::{AnomalyMonitor, AnomalyThresholds, AnomalyVerdict, Symptom};
pub use mfs::{FeatureCondition, Mfs, ReproductionSignature};

pub(crate) use anomaly::SAMPLES_PER_ITERATION;
pub(crate) use mfs::dominant_diag_counter;
