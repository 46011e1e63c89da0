//! Time-series recording.
//!
//! Figure 6 of the paper plots the value of one diagnostic counter (Receive
//! WQE Cache Miss) across the wall-clock time of the search, annotated with
//! the instants at which anomalies were found. [`TimeSeries`] is the small
//! recording structure the search driver uses to produce exactly that trace,
//! plus the normalisation the figure applies (values divided by the maximum
//! observed during the search).

use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// One recorded sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// When the sample was taken.
    pub at: SimTime,
    /// The recorded value.
    pub value: f64,
    /// Whether an anomaly was discovered at this sample (drawn as a marker
    /// in Figure 6).
    pub anomaly: bool,
}

/// An append-only series of `(time, value, anomaly?)` samples.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    name: String,
    samples: Vec<Sample>,
}

impl TimeSeries {
    /// An empty series with a display name (e.g. the counter being traced).
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            samples: Vec::new(),
        }
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Append a sample.
    pub fn record(&mut self, at: SimTime, value: f64) {
        self.samples.push(Sample {
            at,
            value,
            anomaly: false,
        });
    }

    /// Append a sample marking an anomaly discovery.
    pub fn record_anomaly(&mut self, at: SimTime, value: f64) {
        self.samples.push(Sample {
            at,
            value,
            anomaly: true,
        });
    }

    /// All samples in insertion order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The maximum recorded value (0 if empty).
    fn max_value(&self) -> f64 {
        self.samples.iter().map(|s| s.value).fold(0.0_f64, f64::max)
    }

    /// A copy of the series with values divided by the maximum observed
    /// value, matching Figure 6's normalisation. If the maximum is zero the
    /// values are left untouched.
    pub fn normalized(&self) -> TimeSeries {
        let max = self.max_value();
        if max <= 0.0 {
            return self.clone();
        }
        TimeSeries {
            name: self.name.clone(),
            samples: self
                .samples
                .iter()
                .map(|s| Sample {
                    at: s.at,
                    value: s.value / max,
                    anomaly: s.anomaly,
                })
                .collect(),
        }
    }

    /// Samples at which anomalies were found.
    pub fn anomaly_samples(&self) -> Vec<Sample> {
        self.samples.iter().copied().filter(|s| s.anomaly).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let mut ts = TimeSeries::new("wqe_cache_miss");
        ts.record(SimTime::from_secs(1), 5.0);
        ts.record_anomaly(SimTime::from_secs(2), 10.0);
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.name(), "wqe_cache_miss");
        assert!(!ts.samples()[0].anomaly);
        assert!(ts.samples()[1].anomaly);
    }

    #[test]
    fn normalisation_divides_by_max() {
        let mut ts = TimeSeries::new("c");
        ts.record(SimTime::from_secs(1), 2.0);
        ts.record(SimTime::from_secs(2), 8.0);
        let n = ts.normalized();
        assert!((n.samples()[0].value - 0.25).abs() < 1e-12);
        assert!((n.samples()[1].value - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalisation_of_all_zero_series_is_identity() {
        let mut ts = TimeSeries::new("c");
        ts.record(SimTime::from_secs(1), 0.0);
        let n = ts.normalized();
        assert_eq!(n.samples()[0].value, 0.0);
    }

    #[test]
    fn anomaly_samples_filtered() {
        let mut ts = TimeSeries::new("c");
        ts.record(SimTime::from_secs(1), 1.0);
        ts.record_anomaly(SimTime::from_secs(2), 2.0);
        ts.record(SimTime::from_secs(3), 3.0);
        ts.record_anomaly(SimTime::from_secs(4), 4.0);
        let anomalies = ts.anomaly_samples();
        assert_eq!(anomalies.len(), 2);
        assert_eq!(anomalies[0].value, 2.0);
        assert_eq!(anomalies[1].value, 4.0);
    }

    #[test]
    fn empty_series_defaults() {
        let ts = TimeSeries::new("c");
        assert!(ts.is_empty());
        assert_eq!(ts.max_value(), 0.0);
        assert!(ts.anomaly_samples().is_empty());
    }
}
