//! The lossless Ethernet switch between the servers.
//!
//! Collie deliberately evaluates a minimal network (§4): RNICs on one
//! commodity switch whose ports run at line rate, so the network itself is
//! never congested and any PFC pause frame must originate from a host. The
//! switch model therefore only needs to (a) never be the bottleneck, (b)
//! relay the pause behaviour of the receiver back to the sender, and (c)
//! count the pause frames it receives — that count is what the operator
//! (and our anomaly monitor) watches.
//!
//! The paper's testbed attaches two servers (a two-port switch); the
//! multi-host fabric layer attaches N, one per port, and pause-accounts
//! against every port.

use serde::{Deserialize, Serialize};

/// An N-port lossless top-of-rack switch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LosslessSwitch {
    pause_seconds_received: Vec<f64>,
}

impl LosslessSwitch {
    /// A switch with `ports` ports (at least two), one per attached host.
    /// Its ports match the RNIC line rate, so the switch itself never
    /// congests (§4).
    pub fn with_ports(ports: usize) -> Self {
        LosslessSwitch {
            pause_seconds_received: vec![0.0; ports.max(2)],
        }
    }

    /// Number of ports (== number of attachable hosts).
    fn port_count(&self) -> usize {
        self.pause_seconds_received.len()
    }

    /// Record that the host attached to `port` asked its switch port to
    /// pause for `seconds` of transmission time. Out-of-range ports and
    /// non-positive durations are ignored.
    pub fn record_pause(&mut self, port: usize, seconds: f64) {
        if port < self.pause_seconds_received.len() && seconds > 0.0 {
            self.pause_seconds_received[port] += seconds;
        }
    }

    /// Total pause time received on a port since construction.
    fn pause_seconds(&self, port: usize) -> f64 {
        self.pause_seconds_received
            .get(port)
            .copied()
            .unwrap_or(0.0)
    }

    /// The pause-duration ratio on a port over an observation window: the
    /// fraction of the window the upstream queue was told to stay quiet.
    /// This is the metric the anomaly monitor thresholds at 0.1 %.
    ///
    /// A degenerate (zero or negative) window reads as "no observation",
    /// not as a division: the ratio is 0, never NaN or infinite.
    fn pause_duration_ratio(&self, port: usize, window_seconds: f64) -> f64 {
        if window_seconds <= 0.0 {
            return 0.0;
        }
        (self.pause_seconds(port) / window_seconds).clamp(0.0, 1.0)
    }

    /// Pause-duration ratio of every port over one window, in port order.
    pub fn pause_ratios(&self, window_seconds: f64) -> Vec<f64> {
        (0..self.port_count())
            .map(|p| self.pause_duration_ratio(p, window_seconds))
            .collect()
    }

    /// Clear pause accounting (between experiments).
    pub fn reset(&mut self) {
        for slot in &mut self.pause_seconds_received {
            *slot = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pause_accounting_and_ratio() {
        let mut sw = LosslessSwitch::with_ports(2);
        sw.record_pause(0, 0.05);
        sw.record_pause(0, 0.05);
        sw.record_pause(1, 0.2);
        assert!((sw.pause_seconds(0) - 0.1).abs() < 1e-12);
        assert!((sw.pause_duration_ratio(0, 1.0) - 0.1).abs() < 1e-12);
        assert!((sw.pause_duration_ratio(1, 1.0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn ratio_clamps_and_handles_degenerate_windows() {
        let mut sw = LosslessSwitch::with_ports(2);
        sw.record_pause(0, 5.0);
        assert_eq!(sw.pause_duration_ratio(0, 1.0), 1.0);
        // Zero and negative windows read as "no observation": 0.0, never a
        // NaN/inf from the raw division.
        assert_eq!(sw.pause_duration_ratio(0, 0.0), 0.0);
        assert_eq!(sw.pause_duration_ratio(0, -3.5), 0.0);
        assert!(sw.pause_duration_ratio(0, 0.0).is_finite());
    }

    #[test]
    fn invalid_port_is_ignored() {
        let mut sw = LosslessSwitch::with_ports(2);
        sw.record_pause(7, 1.0);
        assert_eq!(sw.pause_seconds(7), 0.0);
        assert_eq!(sw.pause_duration_ratio(7, 1.0), 0.0);
    }

    #[test]
    fn negative_pause_is_ignored_and_reset_clears() {
        let mut sw = LosslessSwitch::with_ports(2);
        sw.record_pause(0, -1.0);
        assert_eq!(sw.pause_seconds(0), 0.0);
        sw.record_pause(0, 1.0);
        sw.reset();
        assert_eq!(sw.pause_seconds(0), 0.0);
    }

    #[test]
    fn n_port_switch_accounts_every_port() {
        let mut sw = LosslessSwitch::with_ports(8);
        assert_eq!(sw.port_count(), 8);
        for port in 0..8 {
            sw.record_pause(port, 0.01 * (port + 1) as f64);
        }
        let ratios = sw.pause_ratios(1.0);
        assert_eq!(ratios.len(), 8);
        for (port, ratio) in ratios.iter().enumerate() {
            assert!((ratio - 0.01 * (port + 1) as f64).abs() < 1e-12);
        }
        sw.reset();
        assert!(sw.pause_ratios(1.0).iter().all(|r| *r == 0.0));
    }

    #[test]
    fn switch_never_has_fewer_than_two_ports() {
        let sw = LosslessSwitch::with_ports(0);
        assert_eq!(sw.port_count(), 2);
    }
}
