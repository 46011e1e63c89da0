//! Host presets used by the Table-1 subsystem catalog.
//!
//! Table 1 of the paper lists eight RDMA subsystems (A–H). The RNIC half of
//! each row lives in `collie-rnic::subsystems`; this module provides the
//! host half: the CPU, PCIe slot, memory and GPU complement of each server
//! type. Names follow the paper's anonymised convention ("Intel(R) Xeon(R)
//! CPU 1", "AMD EPYC CPU 1").

use crate::cpu::CpuModel;
use crate::memory::{GpuDevice, GpuPlacement};
use crate::pcie::{PcieLink, PcieSettings};
use crate::topology::HostConfig;
use collie_sim::units::ByteSize;

/// A dual-(or single-)socket Intel Xeon host with the RNIC on socket 0 and
/// no GPUs. `gen4` selects a PCIe 4.0 x16 slot (subsystem F) instead of the
/// default 3.0 x16.
pub fn intel_xeon_host(name: &str, sockets: u32, dram: ByteSize, gen4: bool) -> HostConfig {
    HostConfig {
        name: name.to_string(),
        cpu: CpuModel::intel_xeon(&format!("Intel(R) Xeon(R) CPU {sockets}"), sockets),
        pcie_link: if gen4 {
            PcieLink::gen4_x16()
        } else {
            PcieLink::gen3_x16()
        },
        pcie_settings: PcieSettings::default(),
        rnic_socket: 0,
        total_dram: dram,
        gpus: Vec::new(),
        bios: "AMI".to_string(),
        kernel: "4.14".to_string(),
    }
}

/// An Intel Xeon GPU host (subsystem C/F shape): V100/A100-class GPUs, one
/// sharing a PCIe switch with the RNIC and one on the remote socket.
pub fn intel_xeon_gpu_host(name: &str, dram: ByteSize, gen4: bool) -> HostConfig {
    let mut host = intel_xeon_host(name, 2, dram, gen4);
    host.gpus = vec![
        GpuDevice {
            id: 0,
            socket: 0,
            placement: GpuPlacement::SameSwitchAsRnic,
        },
        GpuDevice {
            id: 1,
            socket: 0,
            placement: GpuPlacement::SameSocketDifferentSwitch,
        },
        GpuDevice {
            id: 2,
            socket: 1,
            placement: GpuPlacement::RemoteSocket,
        },
    ];
    host.kernel = "5.4".to_string();
    host
}

/// The AMD EPYC GPU host of subsystems E/G: PCIe 4.0, chiplets, eight GPUs
/// spread across two sockets, and the strict-ordering PCIe default that made
/// Anomaly #9 possible (the fix — forced relaxed ordering — is applied by
/// flipping [`PcieSettings::relaxed_ordering`]).
pub fn amd_epyc_gpu_host(name: &str, dram: ByteSize) -> HostConfig {
    let gpus = (0..8)
        .map(|id| GpuDevice {
            id,
            socket: if id < 4 { 0 } else { 1 },
            placement: match id {
                0 | 1 => GpuPlacement::SameSwitchAsRnic,
                2 | 3 => GpuPlacement::SameSocketDifferentSwitch,
                _ => GpuPlacement::RemoteSocket,
            },
        })
        .collect();
    HostConfig {
        name: name.to_string(),
        cpu: CpuModel::amd_epyc("AMD EPYC CPU 1", 1),
        pcie_link: PcieLink::gen4_x16(),
        pcie_settings: PcieSettings::strict_ordering(),
        rnic_socket: 0,
        total_dram: dram,
        gpus,
        bios: "AMI".to_string(),
        kernel: "5.4".to_string(),
    }
}

/// The AMD EPYC host of subsystem G (NPS=2, no GPUs, CX-6 VPI).
pub fn amd_epyc_nps2_host(name: &str, dram: ByteSize) -> HostConfig {
    let mut host = amd_epyc_gpu_host(name, dram);
    host.cpu = CpuModel::amd_epyc("AMD EPYC CPU 1", 2);
    host.gpus.clear();
    host
}

/// The single-socket entry host of subsystem A (25 Gbps CX-5).
pub fn intel_entry_host(name: &str) -> HostConfig {
    let mut host = intel_xeon_host(name, 1, ByteSize::from_gib(128), false);
    host.cpu = CpuModel::intel_xeon("Intel(R) Xeon(R) CPU 1", 1);
    host.bios = "INSYDE".to_string();
    host.kernel = "4.19".to_string();
    host
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryTarget;

    #[test]
    fn intel_host_has_no_gpus_and_gen3() {
        let h = intel_xeon_host("b", 2, ByteSize::from_gib(768), false);
        assert!(!h.has_gpus());
        assert_eq!(h.pcie_link, PcieLink::gen3_x16());
        assert_eq!(h.cpu.sockets, 2);
    }

    #[test]
    fn gpu_hosts_have_a_nic_local_gpu() {
        let h = intel_xeon_gpu_host("c", ByteSize::from_gib(384), false);
        assert!(h.has_gpus());
        let p = h.dma_path(MemoryTarget::GpuMemory { gpu_id: 0 });
        assert!(!p.via_root_complex);
        let amd = amd_epyc_gpu_host("e", ByteSize::from_gib(2048));
        assert!(amd.gpus.len() == 8);
        assert!(amd
            .gpus
            .iter()
            .any(|g| g.placement == GpuPlacement::SameSwitchAsRnic));
        assert!(amd
            .gpus
            .iter()
            .any(|g| g.placement == GpuPlacement::RemoteSocket));
    }

    #[test]
    fn amd_host_defaults_to_strict_ordering() {
        let amd = amd_epyc_gpu_host("e", ByteSize::from_gib(2048));
        assert!(!amd.pcie_settings.relaxed_ordering);
        assert_eq!(amd.pcie_link, PcieLink::gen4_x16());
    }

    #[test]
    fn nps2_host_has_four_numa_nodes() {
        let g = amd_epyc_nps2_host("g", ByteSize::from_gib(2048));
        assert_eq!(g.cpu.numa_nodes(), 4);
        assert!(g.gpus.is_empty());
    }

    #[test]
    fn entry_host_is_single_socket() {
        let a = intel_entry_host("a");
        assert_eq!(a.cpu.sockets, 1);
        assert_eq!(a.bios, "INSYDE");
        assert_eq!(a.total_dram, ByteSize::from_gib(128));
    }
}
