//! PCIe link model.
//!
//! Every byte an RNIC sends or receives crosses its PCIe link twice as DMA
//! traffic (payload reads on transmit, payload writes on receive) plus the
//! control traffic the paper calls out: doorbell MMIO writes, WQE fetches,
//! and completion writes. The anomalies attributed to "PCIe back-pressure"
//! (Appendix A root causes 3 and 5) come from this link being the effective
//! bottleneck, so we model:
//!
//! * raw lane bandwidth per generation (Gen3 ≈ 0.985 GB/s/lane, Gen4 ≈
//!   1.969 GB/s/lane after 128b/130b encoding),
//! * transaction-layer-packet (TLP) efficiency as a function of payload
//!   size and the negotiated maximum payload size (small DMAs waste a large
//!   fraction of the link on headers — the reason WQE fetches and tiny
//!   messages consume disproportionate PCIe bandwidth),
//! * ordering configuration (relaxed ordering on/off; Anomaly #9), and
//! * ACS/PCIe-switch routing configuration (Anomaly #12: a misconfigured
//!   `ACSCtl` forwards peer-to-peer GPU traffic through the root complex).

use collie_sim::units::{BitRate, ByteSize};
use serde::{Deserialize, Serialize};

/// PCIe generation of the slot the RNIC occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PcieGen {
    /// PCIe 3.0: 8 GT/s per lane, 128b/130b encoding.
    Gen3,
    /// PCIe 4.0: 16 GT/s per lane, 128b/130b encoding.
    Gen4,
}

impl PcieGen {
    /// Usable bandwidth of one lane in gigabytes per second, after link
    /// encoding but before TLP overhead.
    fn lane_gbytes_per_sec(self) -> f64 {
        match self {
            PcieGen::Gen3 => 0.985,
            PcieGen::Gen4 => 1.969,
        }
    }

    /// Short human-readable form, matching Table 1 ("3.0 x 16").
    pub fn label(self) -> &'static str {
        match self {
            PcieGen::Gen3 => "3.0",
            PcieGen::Gen4 => "4.0",
        }
    }
}

/// A PCIe link: a generation and a lane count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PcieLink {
    /// Link generation.
    pub gen: PcieGen,
    /// Number of lanes (x8, x16, ...).
    pub lanes: u32,
}

impl PcieLink {
    /// A Gen3 x16 link (subsystems A–D, H in Table 1).
    pub const fn gen3_x16() -> Self {
        PcieLink {
            gen: PcieGen::Gen3,
            lanes: 16,
        }
    }

    /// A Gen4 x16 link (subsystems E–G in Table 1).
    pub const fn gen4_x16() -> Self {
        PcieLink {
            gen: PcieGen::Gen4,
            lanes: 16,
        }
    }

    /// Raw link bandwidth (after encoding, before TLP overhead).
    pub fn raw_bandwidth(&self) -> BitRate {
        BitRate::from_bits_per_sec(self.gen.lane_gbytes_per_sec() * self.lanes as f64 * 8e9)
    }

    /// Effective data bandwidth for DMA transactions whose payloads are
    /// `payload` bytes, under a negotiated maximum payload size of
    /// `max_payload`.
    ///
    /// Each TLP carries `min(payload, max_payload)` bytes of data plus
    /// roughly 24 bytes of framing/header/ECRC, and read completions add a
    /// similar overhead again; we fold both into a single per-TLP overhead.
    /// This reproduces the well-known shape (Neugebauer et al., SIGCOMM'18)
    /// where 64–256 B transactions only achieve 50–80 % of the link rate.
    pub fn effective_bandwidth(&self, payload: ByteSize, settings: &PcieSettings) -> BitRate {
        let tlp_overhead_bytes = 24.0;
        let max_payload = settings.max_payload_size.as_f64().max(64.0);
        let payload = payload.as_f64().max(1.0);
        let chunk = payload.min(max_payload);
        let efficiency = chunk / (chunk + tlp_overhead_bytes);
        self.raw_bandwidth().scaled(efficiency)
    }

    /// Label like "3.0 x 16" as printed in Table 1.
    pub fn label(&self) -> String {
        format!("{} x {}", self.gen.label(), self.lanes)
    }
}

/// Host/BIOS-level PCIe configuration knobs that the paper's anomalies turn
/// out to hinge on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PcieSettings {
    /// Whether the RNIC is configured as a (forced) relaxed-ordering device.
    /// When `false` on the affected AMD hosts, a DMA write may be blocked
    /// behind an earlier one, which is the root cause of Anomaly #9.
    pub relaxed_ordering: bool,
    /// Whether the PCIe bridge's ACS control forwards peer-to-peer (GPU →
    /// RNIC) traffic up through the root complex instead of switching it at
    /// the shared PCIe switch. The misconfiguration behind Anomaly #12.
    pub acs_redirect_p2p: bool,
    /// Negotiated maximum TLP payload size (typically 256 B or 512 B).
    pub max_payload_size: ByteSize,
}

impl Default for PcieSettings {
    fn default() -> Self {
        PcieSettings {
            relaxed_ordering: true,
            acs_redirect_p2p: false,
            max_payload_size: ByteSize::from_bytes(256),
        }
    }
}

impl PcieSettings {
    /// The configuration of the anomalous AMD hosts before the Anomaly #9
    /// fix: strict ordering.
    pub fn strict_ordering() -> Self {
        PcieSettings {
            relaxed_ordering: false,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_bandwidth_matches_spec_sheets() {
        // Gen3 x16 ≈ 126 Gbps usable, Gen4 x16 ≈ 252 Gbps usable.
        let g3 = PcieLink::gen3_x16().raw_bandwidth().gbps();
        let g4 = PcieLink::gen4_x16().raw_bandwidth().gbps();
        assert!((120.0..132.0).contains(&g3), "gen3 x16 = {g3} Gbps");
        assert!((245.0..260.0).contains(&g4), "gen4 x16 = {g4} Gbps");
    }

    #[test]
    fn gen4_doubles_gen3() {
        let g3 = PcieLink::gen3_x16().raw_bandwidth().gbps();
        let g4 = PcieLink::gen4_x16().raw_bandwidth().gbps();
        assert!((g4 / g3 - 2.0).abs() < 0.01);
    }

    #[test]
    fn small_payloads_lose_efficiency() {
        let link = PcieLink::gen3_x16();
        let settings = PcieSettings::default();
        let small = link.effective_bandwidth(ByteSize::from_bytes(64), &settings);
        let large = link.effective_bandwidth(ByteSize::from_kib(4), &settings);
        assert!(small.gbps() < large.gbps());
        // 64 B payloads should fall well below 80% of the raw rate.
        assert!(small.gbps() < link.raw_bandwidth().gbps() * 0.80);
        // Large payloads limited by max payload size still exceed 85%.
        assert!(large.gbps() > link.raw_bandwidth().gbps() * 0.85);
    }

    #[test]
    fn effective_bandwidth_is_monotone_in_payload() {
        let link = PcieLink::gen4_x16();
        let settings = PcieSettings::default();
        let mut last = 0.0;
        for size in [16u64, 64, 128, 256, 1024, 4096, 65536] {
            let bw = link
                .effective_bandwidth(ByteSize::from_bytes(size), &settings)
                .gbps();
            assert!(bw >= last, "bw({size}) = {bw} < {last}");
            last = bw;
        }
    }

    #[test]
    fn payload_capped_by_max_payload_size() {
        let link = PcieLink::gen3_x16();
        let settings = PcieSettings::default();
        let at_cap = link.effective_bandwidth(ByteSize::from_bytes(256), &settings);
        let beyond = link.effective_bandwidth(ByteSize::from_mib(4), &settings);
        assert!((at_cap.gbps() - beyond.gbps()).abs() < 1e-9);
    }

    #[test]
    fn zero_payload_does_not_panic() {
        let link = PcieLink::gen3_x16();
        let bw = link.effective_bandwidth(ByteSize::ZERO, &PcieSettings::default());
        assert!(bw.gbps() > 0.0);
    }

    #[test]
    fn preset_settings() {
        assert!(!PcieSettings::strict_ordering().relaxed_ordering);
        let d = PcieSettings::default();
        assert!(d.relaxed_ordering && !d.acs_redirect_p2p);
    }

    #[test]
    fn labels_match_table1_format() {
        assert_eq!(PcieLink::gen3_x16().label(), "3.0 x 16");
        assert_eq!(PcieLink::gen4_x16().label(), "4.0 x 16");
    }
}
