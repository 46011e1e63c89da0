//! RNIC specifications.
//!
//! Table 1 of the paper covers six NIC models: Mellanox ConnectX-5 DX at 25
//! and 100 Gbps, ConnectX-6 DX at 100 and 200 Gbps, ConnectX-6 VPI at
//! 200 Gbps, and Broadcom P2100G at 100 Gbps. The anomaly monitor compares
//! measured throughput against the *specification* upper bounds (total
//! bits/second and total packets/second), so those two numbers — plus the
//! internal resource sizes the bottleneck models need — are what a spec
//! records. The internal numbers are not vendor data (which is proprietary
//! and unavailable); they are plausible magnitudes chosen so that the
//! modelled subsystem exhibits the trigger surface documented in Table 2 /
//! Appendix A.

use collie_sim::units::{BitRate, PacketRate};
use serde::{Deserialize, Serialize};
use std::fmt;

/// NIC vendor, which selects the bottleneck rule family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RnicVendor {
    /// NVIDIA Mellanox (ConnectX family).
    Mellanox,
    /// Broadcom (P2100G family).
    Broadcom,
}

/// The six RNIC models of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RnicModel {
    /// ConnectX-5 DX, 25 Gbps (subsystem A).
    Cx5Dx25,
    /// ConnectX-5 DX, 100 Gbps (subsystems B, C).
    Cx5Dx100,
    /// ConnectX-6 DX, 100 Gbps (subsystem D).
    Cx6Dx100,
    /// ConnectX-6 DX, 200 Gbps (subsystems E, F).
    Cx6Dx200,
    /// ConnectX-6 VPI, 200 Gbps (subsystem G).
    Cx6Vpi200,
    /// Broadcom P2100G, 100 Gbps (subsystem H).
    P2100G,
}

impl RnicModel {
    /// The vendor of this model.
    pub fn vendor(self) -> RnicVendor {
        match self {
            RnicModel::P2100G => RnicVendor::Broadcom,
            _ => RnicVendor::Mellanox,
        }
    }

    /// The marketing name used in Table 1.
    pub fn name(self) -> &'static str {
        match self {
            RnicModel::Cx5Dx25 | RnicModel::Cx5Dx100 => "CX-5 DX",
            RnicModel::Cx6Dx100 | RnicModel::Cx6Dx200 => "CX-6 DX",
            RnicModel::Cx6Vpi200 => "CX-6 VPI",
            RnicModel::P2100G => "P2100G",
        }
    }

    /// Whether this is a ConnectX-6 generation part (the model family the
    /// subsystem-F anomalies were observed on).
    pub fn is_cx6(self) -> bool {
        matches!(
            self,
            RnicModel::Cx6Dx100 | RnicModel::Cx6Dx200 | RnicModel::Cx6Vpi200
        )
    }

    /// Build the full specification for this model.
    pub fn spec(self) -> RnicSpec {
        match self {
            RnicModel::Cx5Dx25 => RnicSpec::new(self, 25.0, 35.0),
            RnicModel::Cx5Dx100 => RnicSpec::new(self, 100.0, 90.0),
            RnicModel::Cx6Dx100 => RnicSpec::new(self, 100.0, 115.0),
            RnicModel::Cx6Dx200 => RnicSpec::new(self, 200.0, 215.0),
            RnicModel::Cx6Vpi200 => RnicSpec::new(self, 200.0, 215.0),
            RnicModel::P2100G => RnicSpec::new(self, 100.0, 100.0),
        }
    }
}

impl fmt::Display for RnicModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// The quantitative specification of one RNIC model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RnicSpec {
    /// Which model this is.
    pub model: RnicModel,
    /// Port line rate (the bits/second upper bound of the anomaly
    /// definition).
    pub line_rate: BitRate,
    /// Maximum packet processing rate (the packets/second upper bound of
    /// the anomaly definition). Quoted as "message rate" in vendor
    /// datasheets for minimum-size messages.
    pub max_packet_rate: PacketRate,
    /// QP-context (ICM) cache capacity, in connections whose state fits
    /// on-chip.
    pub qpc_cache_entries: u32,
    /// Memory-translation-table cache capacity, in MR entries.
    pub mtt_cache_entries: u32,
    /// Receive-WQE cache capacity, in descriptors.
    pub recv_wqe_cache_entries: u32,
    /// MTUs the device supports (RDMA MTUs: 256 B – 4 KiB).
    pub supported_mtus: Vec<u32>,
    /// Fraction of the packet-processing budget available to each direction
    /// when traffic is bidirectional. 1.0 means the TX and RX processing
    /// paths are fully independent; lower values model the shared component
    /// behind Anomaly #10.
    pub bidirectional_processing_share: f64,
    /// Whether the device rate-limits loopback (host-to-same-host) traffic.
    /// The device behind Anomaly #13 does not, so loopback can starve
    /// receive traffic inside the NIC.
    pub loopback_rate_limited: bool,
    /// Whether the Broadcom register fix for Anomalies #17/#18 has been
    /// applied (vendor-provided mitigation; off by default).
    pub vendor_register_fix: bool,
    /// Whether the firmware release fixing the shared bidirectional
    /// packet-processing bottleneck (Anomaly #10) has been applied
    /// (announced by the vendor in Appendix A; off by default).
    pub firmware_bidir_fix: bool,
}

impl RnicSpec {
    fn new(model: RnicModel, gbps: f64, mpps: f64) -> RnicSpec {
        RnicSpec {
            model,
            line_rate: BitRate::from_gbps(gbps),
            max_packet_rate: PacketRate::from_mpps(mpps),
            qpc_cache_entries: match model.vendor() {
                RnicVendor::Mellanox => 640,
                RnicVendor::Broadcom => 448,
            },
            mtt_cache_entries: match model.vendor() {
                RnicVendor::Mellanox => 16_384,
                RnicVendor::Broadcom => 8_192,
            },
            recv_wqe_cache_entries: match model.vendor() {
                RnicVendor::Mellanox => 1_024,
                RnicVendor::Broadcom => 512,
            },
            supported_mtus: vec![256, 512, 1024, 2048, 4096],
            // Bidirectional traffic shares some processing stages, but on a
            // healthy subsystem each direction still clears the 80 %-of-spec
            // bar; the pathological sharing behind Anomaly #10 is modelled
            // as an explicit bottleneck rule instead.
            bidirectional_processing_share: match model.vendor() {
                RnicVendor::Mellanox => 0.88,
                RnicVendor::Broadcom => 0.85,
            },
            loopback_rate_limited: false,
            vendor_register_fix: false,
            firmware_bidir_fix: false,
        }
    }

    /// Whether `mtu` (in bytes) is a supported RDMA MTU.
    pub fn supports_mtu(&self, mtu: u32) -> bool {
        self.supported_mtus.contains(&mtu)
    }

    /// The speed label used in Table 1 ("25 Gbps", "200 Gbps").
    pub fn speed_label(&self) -> String {
        format!("{:.0} Gbps", self.line_rate.gbps())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_models_have_consistent_specs() {
        for model in [
            RnicModel::Cx5Dx25,
            RnicModel::Cx5Dx100,
            RnicModel::Cx6Dx100,
            RnicModel::Cx6Dx200,
            RnicModel::Cx6Vpi200,
            RnicModel::P2100G,
        ] {
            let spec = model.spec();
            assert!(spec.line_rate.gbps() >= 25.0);
            assert!(spec.max_packet_rate.mpps() > 0.0);
            assert!(spec.supports_mtu(1024) && spec.supports_mtu(4096));
            assert!(!spec.supports_mtu(1500), "RDMA MTUs only");
            assert!(spec.bidirectional_processing_share > 0.0);
            assert!(spec.bidirectional_processing_share <= 1.0);
        }
    }

    #[test]
    fn vendors_and_names() {
        assert_eq!(RnicModel::P2100G.vendor(), RnicVendor::Broadcom);
        assert_eq!(RnicModel::Cx6Dx200.vendor(), RnicVendor::Mellanox);
        assert_eq!(RnicModel::Cx6Vpi200.name(), "CX-6 VPI");
        assert_eq!(RnicModel::Cx5Dx100.name(), "CX-5 DX");
        assert!(RnicModel::Cx6Dx200.is_cx6());
        assert!(!RnicModel::Cx5Dx25.is_cx6());
    }

    #[test]
    fn line_rates_match_table1() {
        assert_eq!(RnicModel::Cx5Dx25.spec().line_rate.gbps(), 25.0);
        assert_eq!(RnicModel::Cx5Dx100.spec().line_rate.gbps(), 100.0);
        assert_eq!(RnicModel::Cx6Dx200.spec().line_rate.gbps(), 200.0);
        assert_eq!(RnicModel::P2100G.spec().line_rate.gbps(), 100.0);
        assert_eq!(RnicModel::Cx6Dx200.spec().speed_label(), "200 Gbps");
    }
}
