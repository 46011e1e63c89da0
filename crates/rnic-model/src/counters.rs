//! The counter surface exposed to the search.
//!
//! The paper's vendors provide two families of counters: performance
//! counters that every RNIC exports and nine diagnostic counters tied to
//! internal events. We expose the same shape: four performance counters and
//! nine diagnostic counters, declared once as a [`CounterSchema`] so the
//! search layer can treat them as opaque names (it never interprets them —
//! it only minimises the performance ones and maximises the diagnostic
//! ones).

use collie_sim::counters::{CounterKind, CounterSchema, CounterSnapshot};
use std::sync::Arc;

/// Position of `name` in `all`. Names that come from the constants below
/// compare by pointer before falling back to a byte compare.
fn position(all: &[&str], name: &str) -> Option<usize> {
    all.iter().position(|candidate| {
        (std::ptr::eq(candidate.as_ptr(), name.as_ptr()) && candidate.len() == name.len())
            || *candidate == name
    })
}

/// Performance-counter names.
pub mod perf {
    /// Bytes transmitted per second (gauge over the measurement window).
    pub const TX_BYTES_PER_SEC: &str = "perf/tx_bytes_per_sec";
    /// Bytes received per second.
    pub const RX_BYTES_PER_SEC: &str = "perf/rx_bytes_per_sec";
    /// Packets transmitted per second.
    pub const TX_PACKETS_PER_SEC: &str = "perf/tx_packets_per_sec";
    /// Packets received per second.
    pub const RX_PACKETS_PER_SEC: &str = "perf/rx_packets_per_sec";

    /// All performance counters.
    pub const ALL: [&str; 4] = [
        TX_BYTES_PER_SEC,
        RX_BYTES_PER_SEC,
        TX_PACKETS_PER_SEC,
        RX_PACKETS_PER_SEC,
    ];

    /// Position of a performance counter name in [`ALL`].
    pub(crate) fn index_of(name: &str) -> Option<usize> {
        super::position(&ALL, name)
    }
}

/// Diagnostic-counter names (the "nine vendor counters" of §7.2).
pub mod diag {
    /// Receive-WQE cache misses: the NIC had to fetch receive descriptors
    /// from host DRAM (the counter traced in Figure 6).
    pub const RECV_WQE_CACHE_MISS: &str = "diag/recv_wqe_cache_miss";
    /// QP-context (ICM) cache misses.
    pub const QP_CONTEXT_CACHE_MISS: &str = "diag/qp_context_cache_miss";
    /// Memory-translation-table cache misses.
    pub const MTT_CACHE_MISS: &str = "diag/mtt_cache_miss";
    /// PCIe internal back-pressure events (inbound DMA stalled on the host).
    pub const PCIE_BACKPRESSURE: &str = "diag/pcie_internal_backpressure";
    /// Receive-buffer occupancy high-watermark events.
    pub const RX_BUFFER_OCCUPANCY: &str = "diag/rx_buffer_occupancy";
    /// Transmit-side WQE fetch stalls (doorbell to WQE-read latency).
    pub const TX_WQE_FETCH_STALL: &str = "diag/tx_wqe_fetch_stall";
    /// Packet-processing pipeline saturation events.
    pub const PACKET_PROCESSING_SATURATION: &str = "diag/packet_processing_saturation";
    /// PCIe ordering stalls (a DMA blocked behind an earlier one).
    pub const PCIE_ORDERING_STALL: &str = "diag/pcie_ordering_stall";
    /// In-NIC incast pressure (loopback and receive traffic colliding).
    pub const INTERNAL_INCAST: &str = "diag/internal_incast";

    /// All diagnostic counters.
    pub const ALL: [&str; 9] = [
        RECV_WQE_CACHE_MISS,
        QP_CONTEXT_CACHE_MISS,
        MTT_CACHE_MISS,
        PCIE_BACKPRESSURE,
        RX_BUFFER_OCCUPANCY,
        TX_WQE_FETCH_STALL,
        PACKET_PROCESSING_SATURATION,
        PCIE_ORDERING_STALL,
        INTERNAL_INCAST,
    ];

    /// Position of a diagnostic counter name in [`ALL`], used to accumulate
    /// per-counter values in a plain array during evaluation.
    pub fn index_of(name: &str) -> Option<usize> {
        super::position(&ALL, name)
    }
}

/// Fabric gauge names: cross-host observables of a multi-host campaign.
///
/// These are not RNIC hardware counters — they are derived from the
/// switch's per-port pause accounting and the victim/culprit flow
/// bookkeeping the fabric engine keeps — but they are published through the
/// same [`CounterSnapshot`] surface so the search layer can treat them as
/// opaque signals, exactly as it treats the vendor counters. Ratios are raw
/// fractions in [0, 1].
pub mod fabric {
    use collie_sim::counters::CounterKind;

    /// Achieved / expected throughput of the worst victim flow (a benign
    /// flow from a pause-propagated sender port to a healthy receiver).
    pub const VICTIM_THROUGHPUT_FRAC: &str = "fabric/victim_throughput_frac";
    /// Pause-duration ratio observed on the victim flow's sender port.
    pub const VICTIM_PAUSE_RATIO: &str = "fabric/victim_pause_ratio";
    /// Achieved spec fraction of the culprit host's own traffic.
    pub const CULPRIT_THROUGHPUT_FRAC: &str = "fabric/culprit_throughput_frac";
    /// Fraction of switch ports whose pause ratio breaches the monitor
    /// threshold (how far the storm spread).
    pub const PAUSE_SPREAD: &str = "fabric/pause_spread";
    /// Worst per-port pause-duration ratio across the switch.
    pub const MAX_PORT_PAUSE: &str = "fabric/max_port_pause";

    /// All fabric gauges.
    pub const ALL: [&str; 5] = [
        VICTIM_THROUGHPUT_FRAC,
        VICTIM_PAUSE_RATIO,
        CULPRIT_THROUGHPUT_FRAC,
        PAUSE_SPREAD,
        MAX_PORT_PAUSE,
    ];

    /// The kind of each gauge in [`ALL`], position for position: the two
    /// throughput fractions are performance gauges (minimised), the three
    /// pause gauges diagnostic ones (maximised).
    pub const KINDS: [CounterKind; 5] = [
        CounterKind::Performance,
        CounterKind::Diagnostic,
        CounterKind::Performance,
        CounterKind::Diagnostic,
        CounterKind::Diagnostic,
    ];
}

/// Slot of the first diagnostic counter: the schema declares
/// [`perf::ALL`] and then [`diag::ALL`], so a counter's slot is its
/// position in that sequence.
const DIAG_BASE: usize = perf::ALL.len();

/// The counter set of one RNIC: a schema of its own, declared once, and
/// the live values the subsystem resets and publishes into on every
/// experiment. A clone copies the values and shares the immutable schema.
#[derive(Debug, Clone)]
pub struct RnicCounters {
    live: CounterSnapshot,
}

impl Default for RnicCounters {
    fn default() -> Self {
        Self::new()
    }
}

impl RnicCounters {
    /// The full counter set, every value zero.
    pub fn new() -> Self {
        let declared = perf::ALL
            .iter()
            .map(|name| (*name, CounterKind::Performance))
            .chain(
                diag::ALL
                    .iter()
                    .map(|name| (*name, CounterKind::Diagnostic)),
            );
        RnicCounters {
            live: CounterSnapshot::zeroed(Arc::new(CounterSchema::new(declared))),
        }
    }

    /// The counter schema (what the vendor monitoring daemon would
    /// expose).
    pub fn schema(&self) -> &CounterSchema {
        self.live.schema()
    }

    /// Overwrite slot `slot`, clamped at zero (hardware counters never read
    /// negative).
    fn set(&mut self, slot: usize, value: f64) {
        self.live.values_mut()[slot] = value.max(0.0);
    }

    /// Set a performance counter by name (no-op for unknown names).
    pub fn set_perf(&mut self, name: &str, value: f64) {
        if let Some(index) = perf::index_of(name) {
            self.set(index, value);
        }
    }

    /// Set a diagnostic counter by name (no-op for unknown names).
    pub fn set_diag(&mut self, name: &str, value: f64) {
        if let Some(index) = diag::index_of(name) {
            self.set(DIAG_BASE + index, value);
        }
    }

    /// Add to a diagnostic counter by name, clamped at zero (no-op for
    /// unknown names).
    pub fn add_diag(&mut self, name: &str, delta: f64) {
        if let Some(index) = diag::index_of(name) {
            let value = &mut self.live.values_mut()[DIAG_BASE + index];
            *value = (*value + delta).max(0.0);
        }
    }

    /// Zero every counter (between experiments).
    pub fn reset(&mut self) {
        self.live.values_mut().fill(0.0);
    }

    /// The current values as a snapshot.
    pub fn snapshot(&self) -> CounterSnapshot {
        self.live.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_thirteen_counters() {
        let c = RnicCounters::new();
        assert_eq!(c.schema().len(), 13);
        assert_eq!(c.schema().names(CounterKind::Diagnostic).len(), 9);
        assert_eq!(c.schema().names(CounterKind::Performance).len(), 4);
        for name in perf::ALL {
            assert_eq!(c.snapshot().kind(name), Some(CounterKind::Performance));
        }
        for name in diag::ALL {
            assert_eq!(c.snapshot().kind(name), Some(CounterKind::Diagnostic));
        }
    }

    #[test]
    fn set_and_add_by_name() {
        let mut c = RnicCounters::new();
        c.set_perf(perf::TX_BYTES_PER_SEC, 1e9);
        c.set_diag(diag::RECV_WQE_CACHE_MISS, 5.0);
        c.add_diag(diag::RECV_WQE_CACHE_MISS, 3.0);
        let snap = c.snapshot();
        assert_eq!(snap.value(perf::TX_BYTES_PER_SEC), Some(1e9));
        assert_eq!(snap.value(diag::RECV_WQE_CACHE_MISS), Some(8.0));
        assert_eq!(snap.iter().filter(|(_, _, v)| *v != 0.0).count(), 2);
    }

    #[test]
    fn unknown_names_are_ignored() {
        let mut c = RnicCounters::new();
        // collie-lint: begin(counter-name, reason = "deliberately unregistered names proving unknown-counter writes are no-ops")
        c.set_perf("perf/nope", 1.0);
        c.set_diag("diag/nope", 1.0);
        c.add_diag("diag/nope", 1.0);
        assert!(c.schema().index_of("perf/nope").is_none());
        // collie-lint: end(counter-name)
        assert!(c.snapshot().iter().all(|(_, _, v)| v == 0.0));
    }

    #[test]
    fn values_never_go_negative() {
        let mut c = RnicCounters::new();
        c.add_diag(diag::MTT_CACHE_MISS, -5.0);
        assert_eq!(c.snapshot().value(diag::MTT_CACHE_MISS), Some(0.0));
        c.add_diag(diag::MTT_CACHE_MISS, 2.0);
        c.add_diag(diag::MTT_CACHE_MISS, -10.0);
        assert_eq!(c.snapshot().value(diag::MTT_CACHE_MISS), Some(0.0));
        c.set_perf(perf::RX_PACKETS_PER_SEC, -1.0);
        c.set_diag(diag::INTERNAL_INCAST, -1.0);
        assert!(c.snapshot().iter().all(|(_, _, v)| v == 0.0));
    }

    #[test]
    fn reset_zeroes_all() {
        let mut c = RnicCounters::new();
        c.set_perf(perf::RX_BYTES_PER_SEC, 7.0);
        c.set_diag(diag::INTERNAL_INCAST, 7.0);
        let before = c.snapshot();
        c.reset();
        assert!(c.snapshot().iter().all(|(_, _, v)| v == 0.0));
        // A snapshot taken before the reset keeps its values.
        assert_eq!(before.value(diag::INTERNAL_INCAST), Some(7.0));
    }
}
