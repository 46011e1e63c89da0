//! The Table-1 subsystem catalog.
//!
//! Table 1 of the paper lists the eight RDMA subsystems (A–H) the authors
//! evaluate Collie on. Each row pairs an RNIC model with a host platform.
//! This module reconstructs that catalog on top of the host presets and the
//! RNIC specs, and records the per-row metadata the `table1` binary prints.
//!
//! Substitution note (also in DESIGN.md): the paper's Appendix A reproduces
//! all thirteen CX-6 anomalies on "subsystem F". Three of them (#9, #11,
//! #12) additionally require platform quirks — strict PCIe ordering, weak
//! cross-socket DMA forwarding, and an ACS misconfiguration — which the
//! paper attributes to "particular servers". So that a single catalog entry
//! can reproduce the full Figure-4/5/6 anomaly set the way the paper's
//! subsystem F does, our subsystem F's host is configured with those quirks
//! (a chiplet-based CPU, strict ordering, and ACS peer-to-peer redirect).

use crate::spec::RnicModel;
use crate::subsystem::Subsystem;
use collie_host::presets;
use collie_host::topology::HostConfig;
use collie_sim::units::ByteSize;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of one Table-1 row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SubsystemId {
    /// 25 Gbps CX-5, single-socket Intel.
    A,
    /// 100 Gbps CX-5, dual-socket Intel.
    B,
    /// 100 Gbps CX-5, dual-socket Intel with V100 GPUs.
    C,
    /// 100 Gbps CX-6 DX, dual-socket Intel.
    D,
    /// 200 Gbps CX-6 DX, AMD EPYC with A100 GPUs.
    E,
    /// 200 Gbps CX-6 DX, Intel (chiplet generation) with A100 GPUs — the
    /// subsystem the paper's Figures 4–6 are measured on.
    F,
    /// 200 Gbps CX-6 VPI, AMD EPYC (NPS = 2).
    G,
    /// 100 Gbps Broadcom P2100G, dual-socket Intel.
    H,
}

impl SubsystemId {
    /// All rows of Table 1, in order.
    pub const ALL: [SubsystemId; 8] = [
        SubsystemId::A,
        SubsystemId::B,
        SubsystemId::C,
        SubsystemId::D,
        SubsystemId::E,
        SubsystemId::F,
        SubsystemId::G,
        SubsystemId::H,
    ];

    /// The RNIC model installed in this subsystem.
    pub fn rnic_model(self) -> RnicModel {
        match self {
            SubsystemId::A => RnicModel::Cx5Dx25,
            SubsystemId::B | SubsystemId::C => RnicModel::Cx5Dx100,
            SubsystemId::D => RnicModel::Cx6Dx100,
            SubsystemId::E | SubsystemId::F => RnicModel::Cx6Dx200,
            SubsystemId::G => RnicModel::Cx6Vpi200,
            SubsystemId::H => RnicModel::P2100G,
        }
    }

    /// The host platform of this subsystem (both servers are identical).
    pub fn host(self) -> HostConfig {
        match self {
            SubsystemId::A => presets::intel_entry_host("subsystem-A"),
            SubsystemId::B => {
                presets::intel_xeon_host("subsystem-B", 2, ByteSize::from_gib(768), false)
            }
            SubsystemId::C => {
                presets::intel_xeon_gpu_host("subsystem-C", ByteSize::from_gib(384), false)
            }
            SubsystemId::D => {
                presets::intel_xeon_host("subsystem-D", 2, ByteSize::from_gib(768), false)
            }
            SubsystemId::E => presets::amd_epyc_gpu_host("subsystem-E", ByteSize::from_gib(2048)),
            SubsystemId::F => {
                let mut host =
                    presets::intel_xeon_gpu_host("subsystem-F", ByteSize::from_gib(2048), true);
                host.cpu.name = "Intel(R) Xeon(R) CPU 3".to_string();
                // The platform quirks the paper attributes to "particular
                // servers" (see the module-level substitution note).
                host.cpu.chiplets_per_socket = 4;
                host.pcie_settings.relaxed_ordering = false;
                host.pcie_settings.acs_redirect_p2p = true;
                host
            }
            SubsystemId::G => presets::amd_epyc_nps2_host("subsystem-G", ByteSize::from_gib(2048)),
            SubsystemId::H => {
                presets::intel_xeon_host("subsystem-H", 2, ByteSize::from_gib(384), false)
            }
        }
    }

    /// Assemble the full two-server subsystem.
    pub fn build(self) -> Subsystem {
        let host = self.host();
        Subsystem::new(
            self.to_string(),
            self.rnic_model().spec(),
            host.clone(),
            host,
        )
    }

    /// The per-row metadata printed by the `table1` binary.
    pub fn info(self) -> SubsystemInfo {
        let host = self.host();
        let spec = self.rnic_model().spec();
        SubsystemInfo {
            id: self,
            rnic: self.rnic_model().name().to_string(),
            speed: spec.speed_label(),
            cpu: host.cpu.name.clone(),
            pcie: host.pcie_link.label(),
            nps: host.cpu.numa_per_socket,
            memory: format!("{} GB", host.total_dram.as_bytes() >> 30),
            gpu: if host.has_gpus() {
                if spec.line_rate.gbps() >= 200.0 {
                    "A100".to_string()
                } else {
                    "V100".to_string()
                }
            } else {
                "-".to_string()
            },
            bios: host.bios.clone(),
            kernel: host.kernel.clone(),
        }
    }
}

impl fmt::Display for SubsystemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// One printable row of Table 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubsystemInfo {
    /// Row id (A–H).
    pub id: SubsystemId,
    /// RNIC model name.
    pub rnic: String,
    /// Port speed label.
    pub speed: String,
    /// Anonymised CPU name.
    pub cpu: String,
    /// PCIe slot label.
    pub pcie: String,
    /// NUMA nodes per socket.
    pub nps: u32,
    /// Installed memory label.
    pub memory: String,
    /// GPU model or "-".
    pub gpu: String,
    /// BIOS vendor.
    pub bios: String,
    /// Kernel version.
    pub kernel: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_eight_rows() {
        assert_eq!(SubsystemId::ALL.len(), 8);
        for id in SubsystemId::ALL {
            let info = id.info();
            assert_eq!(info.id, id);
            assert!(!info.rnic.is_empty());
            assert!(!info.cpu.is_empty());
        }
    }

    #[test]
    fn speeds_match_table1() {
        assert_eq!(SubsystemId::A.info().speed, "25 Gbps");
        assert_eq!(SubsystemId::B.info().speed, "100 Gbps");
        assert_eq!(SubsystemId::E.info().speed, "200 Gbps");
        assert_eq!(SubsystemId::F.info().speed, "200 Gbps");
        assert_eq!(SubsystemId::H.info().speed, "100 Gbps");
    }

    #[test]
    fn pcie_generations_match_table1() {
        assert_eq!(SubsystemId::B.info().pcie, "3.0 x 16");
        assert_eq!(SubsystemId::E.info().pcie, "4.0 x 16");
        assert_eq!(SubsystemId::F.info().pcie, "4.0 x 16");
        assert_eq!(SubsystemId::H.info().pcie, "3.0 x 16");
    }

    #[test]
    fn gpu_rows_match_table1() {
        assert_eq!(SubsystemId::A.info().gpu, "-");
        assert_eq!(SubsystemId::C.info().gpu, "V100");
        assert_eq!(SubsystemId::E.info().gpu, "A100");
        assert_eq!(SubsystemId::F.info().gpu, "A100");
        assert_eq!(SubsystemId::H.info().gpu, "-");
    }

    #[test]
    fn subsystem_f_has_the_documented_platform_quirks() {
        let f = SubsystemId::F.host();
        assert!(f.cpu.chiplets_per_socket > 1);
        assert!(!f.pcie_settings.relaxed_ordering);
        assert!(f.pcie_settings.acs_redirect_p2p);
        assert!(f.has_gpus());
    }

    #[test]
    fn broadcom_row_is_h() {
        assert_eq!(SubsystemId::H.rnic_model(), RnicModel::P2100G);
        assert_eq!(SubsystemId::G.rnic_model(), RnicModel::Cx6Vpi200);
    }

    #[test]
    fn build_produces_identical_hosts() {
        let sys = SubsystemId::F.build();
        assert_eq!(sys.host_a, sys.host_b);
        assert_eq!(sys.name, "F");
        assert_eq!(sys.rnic.line_rate.gbps(), 200.0);
    }

    #[test]
    fn nps_column() {
        assert_eq!(SubsystemId::G.info().nps, 2);
        assert_eq!(SubsystemId::F.info().nps, 1);
    }
}
