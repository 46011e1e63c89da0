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

/// Position of `name` in `all`, by byte compare. A `const fn`, so the
/// compiler can work out the slot constants below.
const fn position(all: &[&str], name: &str) -> Option<usize> {
    let wanted = name.as_bytes();
    let mut slot = 0;
    while slot < all.len() {
        let candidate = all[slot].as_bytes();
        if candidate.len() == wanted.len() {
            let mut byte = 0;
            while byte < wanted.len() && candidate[byte] == wanted[byte] {
                byte += 1;
            }
            if byte == wanted.len() {
                return Some(slot);
            }
        }
        slot += 1;
    }
    None
}

/// Position of `name` in `all`, worked out by the compiler: every slot
/// constant below is computed from its counter's name, so slot and name
/// cannot drift apart, and a name missing from `all` fails the build.
const fn slot_of(all: &[&str], name: &str) -> usize {
    match position(all, name) {
        Some(slot) => slot,
        None => panic!("counter name missing from its ALL list"),
    }
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

    /// A performance counter named by its position in [`ALL`], which is
    /// also its slot in the counter schema: the flow model publishes
    /// through it without looking a name up.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Slot(usize);

    impl Slot {
        /// [`TX_BYTES_PER_SEC`]'s slot.
        pub const TX_BYTES_PER_SEC: Slot = Slot::of(TX_BYTES_PER_SEC);
        /// [`RX_BYTES_PER_SEC`]'s slot.
        pub const RX_BYTES_PER_SEC: Slot = Slot::of(RX_BYTES_PER_SEC);
        /// [`TX_PACKETS_PER_SEC`]'s slot.
        pub const TX_PACKETS_PER_SEC: Slot = Slot::of(TX_PACKETS_PER_SEC);
        /// [`RX_PACKETS_PER_SEC`]'s slot.
        pub const RX_PACKETS_PER_SEC: Slot = Slot::of(RX_PACKETS_PER_SEC);

        const fn of(name: &str) -> Slot {
            Slot(super::slot_of(&ALL, name))
        }

        /// Position in [`ALL`].
        pub const fn index(self) -> usize {
            self.0
        }
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

    /// Position of a diagnostic counter name in [`ALL`].
    pub fn index_of(name: &str) -> Option<usize> {
        super::position(&ALL, name)
    }

    /// A diagnostic counter named by its position in [`ALL`]: what a
    /// bottleneck rule's stress feeds. The flow model accumulates stress
    /// and publishes through it without looking a name up. It serializes
    /// as the counter's name.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Slot(usize);

    impl Slot {
        /// [`RECV_WQE_CACHE_MISS`]'s slot.
        pub const RECV_WQE_CACHE_MISS: Slot = Slot::of(RECV_WQE_CACHE_MISS);
        /// [`QP_CONTEXT_CACHE_MISS`]'s slot.
        pub const QP_CONTEXT_CACHE_MISS: Slot = Slot::of(QP_CONTEXT_CACHE_MISS);
        /// [`MTT_CACHE_MISS`]'s slot.
        pub const MTT_CACHE_MISS: Slot = Slot::of(MTT_CACHE_MISS);
        /// [`PCIE_BACKPRESSURE`]'s slot.
        pub const PCIE_BACKPRESSURE: Slot = Slot::of(PCIE_BACKPRESSURE);
        /// [`RX_BUFFER_OCCUPANCY`]'s slot.
        pub const RX_BUFFER_OCCUPANCY: Slot = Slot::of(RX_BUFFER_OCCUPANCY);
        /// [`TX_WQE_FETCH_STALL`]'s slot.
        pub const TX_WQE_FETCH_STALL: Slot = Slot::of(TX_WQE_FETCH_STALL);
        /// [`PACKET_PROCESSING_SATURATION`]'s slot.
        pub const PACKET_PROCESSING_SATURATION: Slot = Slot::of(PACKET_PROCESSING_SATURATION);
        /// [`PCIE_ORDERING_STALL`]'s slot.
        pub const PCIE_ORDERING_STALL: Slot = Slot::of(PCIE_ORDERING_STALL);
        /// [`INTERNAL_INCAST`]'s slot.
        pub const INTERNAL_INCAST: Slot = Slot::of(INTERNAL_INCAST);

        const fn of(name: &str) -> Slot {
            Slot(super::slot_of(&ALL, name))
        }

        /// Every slot, in [`ALL`] order.
        pub fn all() -> impl Iterator<Item = Slot> {
            (0..ALL.len()).map(Slot)
        }

        /// Position in [`ALL`].
        pub const fn index(self) -> usize {
            self.0
        }

        /// The counter's name.
        pub const fn name(self) -> &'static str {
            ALL[self.0]
        }
    }

    impl serde::Serialize for Slot {
        fn to_value(&self) -> serde::Value {
            serde::Value::String(self.name().to_string())
        }
    }

    impl serde::Deserialize for Slot {
        fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
            let name = value
                .as_str()
                .ok_or_else(|| serde::Error::type_mismatch("diag::Slot", "string", value))?;
            index_of(name)
                .map(Slot)
                .ok_or_else(|| serde::Error::custom(format!("unknown diagnostic counter {name:?}")))
        }
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

    /// Set a performance counter by slot.
    pub fn set_perf_at(&mut self, slot: perf::Slot, value: f64) {
        self.set(slot.index(), value);
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
            self.add(DIAG_BASE + index, delta);
        }
    }

    /// Add to a diagnostic counter by slot, clamped at zero.
    pub fn add_diag_at(&mut self, slot: diag::Slot, delta: f64) {
        self.add(DIAG_BASE + slot.index(), delta);
    }

    fn add(&mut self, slot: usize, delta: f64) {
        let value = &mut self.live.values_mut()[slot];
        *value = (*value + delta).max(0.0);
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
    fn slots_name_their_counters() {
        assert_eq!(perf::Slot::TX_BYTES_PER_SEC.index(), 0);
        assert_eq!(
            perf::ALL[perf::Slot::RX_PACKETS_PER_SEC.index()],
            perf::RX_PACKETS_PER_SEC
        );
        assert_eq!(diag::Slot::INTERNAL_INCAST.name(), diag::INTERNAL_INCAST);
        let names: Vec<&str> = diag::Slot::all().map(diag::Slot::name).collect();
        assert_eq!(names, diag::ALL);
    }

    #[test]
    fn slot_writes_match_name_writes() {
        let mut by_name = RnicCounters::new();
        let mut by_slot = RnicCounters::new();
        by_name.set_perf(perf::TX_PACKETS_PER_SEC, 3.0);
        by_slot.set_perf_at(perf::Slot::TX_PACKETS_PER_SEC, 3.0);
        for (step, slot) in diag::Slot::all().enumerate() {
            let delta = step as f64 - 2.0;
            by_name.add_diag(slot.name(), delta);
            by_name.add_diag(slot.name(), 1.5);
            by_slot.add_diag_at(slot, delta);
            by_slot.add_diag_at(slot, 1.5);
        }
        assert_eq!(by_name.snapshot(), by_slot.snapshot());
        assert_eq!(
            by_slot.snapshot().value(diag::RECV_WQE_CACHE_MISS),
            Some(1.5)
        );
    }

    #[test]
    fn diag_slots_serialize_as_their_names() {
        use serde::{Deserialize, Serialize};
        let value = diag::Slot::MTT_CACHE_MISS.to_value();
        assert_eq!(value.as_str(), Some(diag::MTT_CACHE_MISS));
        assert_eq!(
            diag::Slot::from_value(&value),
            Ok(diag::Slot::MTT_CACHE_MISS)
        );
        assert!(diag::Slot::from_value(&serde::Value::String("nope".into())).is_err());
        assert!(diag::Slot::from_value(&serde::Value::Number(2.0)).is_err());
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
