//! Host topology assembly and DMA path resolution.
//!
//! [`HostConfig`] pulls the PCIe, CPU, memory and GPU pieces together into
//! one server description (one row of Table 1, minus the RNIC itself), and
//! answers the question the RNIC model keeps asking: *for a DMA to or from
//! this memory target, what bandwidth ceiling does the host impose, and
//! does the path cross a socket or detour through the root complex?* The
//! answer is a [`DmaPath`].

use crate::cpu::CpuModel;
use crate::memory::{GpuDevice, GpuPlacement, MemoryTarget};
use crate::pcie::{PcieLink, PcieSettings};
use collie_sim::units::{BitRate, ByteSize};
use serde::{Deserialize, Serialize};

/// A fully assembled host: one server of the two-server testbed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostConfig {
    /// Display name.
    pub name: String,
    /// CPU complex.
    pub cpu: CpuModel,
    /// The PCIe slot the RNIC occupies.
    pub pcie_link: PcieLink,
    /// PCIe/BIOS configuration knobs.
    pub pcie_settings: PcieSettings,
    /// The socket whose root complex the RNIC descends from.
    pub rnic_socket: u32,
    /// Total installed DRAM (Table 1 "Memory" column); bounds how much
    /// memory can be registered/pinned.
    pub total_dram: ByteSize,
    /// Installed GPUs, if any.
    pub gpus: Vec<GpuDevice>,
    /// BIOS vendor string (Table 1, cosmetic but kept for completeness).
    pub bios: String,
    /// Kernel version string (Table 1, cosmetic but kept for completeness).
    pub kernel: String,
}

/// The host-side constraints on one DMA flow.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DmaPath {
    /// Host-side bandwidth ceiling for this flow, before PCIe TLP
    /// efficiency is applied (the RNIC model combines the two).
    pub bandwidth_ceiling: BitRate,
    /// True if the path crosses the CPU socket interconnect.
    pub crosses_socket: bool,
    /// True if peer-to-peer traffic is detoured through the root complex
    /// (the ACS misconfiguration of Anomaly #12).
    pub via_root_complex: bool,
}

impl HostConfig {
    /// Look up an installed GPU by id.
    pub fn gpu(&self, gpu_id: u32) -> Option<&GpuDevice> {
        self.gpus.iter().find(|g| g.id == gpu_id)
    }

    /// True if the host has at least one GPU (controls whether Dimension 1
    /// of the search space includes GPU memory targets).
    pub fn has_gpus(&self) -> bool {
        !self.gpus.is_empty()
    }

    /// All memory targets an application on this host could register MRs
    /// over: every NUMA node's DRAM plus every GPU's HBM. This is exactly
    /// the candidate list for search Dimension 1.
    pub fn memory_targets(&self) -> Vec<MemoryTarget> {
        let mut targets: Vec<MemoryTarget> = (0..self.cpu.numa_nodes())
            .map(|n| MemoryTarget::HostDram { numa_node: n })
            .collect();
        targets.extend(
            self.gpus
                .iter()
                .map(|g| MemoryTarget::GpuMemory { gpu_id: g.id }),
        );
        targets
    }

    /// Resolve the DMA path between the RNIC and `target`.
    ///
    /// Unknown GPU ids resolve as a remote-socket GPU path (the most
    /// pessimistic placement) rather than panicking, so a mutated search
    /// point that references a GPU the host does not have still produces a
    /// well-defined (and unattractive) workload.
    pub fn dma_path(&self, target: MemoryTarget) -> DmaPath {
        match target {
            MemoryTarget::HostDram { numa_node } => {
                let socket = self.cpu.socket_of_numa(numa_node);
                let crosses = socket != self.rnic_socket;
                let mut ceiling = self.cpu.dram_bandwidth_per_socket;
                if crosses {
                    ceiling = self
                        .cpu
                        .cross_socket_bandwidth
                        .scaled(self.cpu.cross_socket_dma_efficiency);
                }
                DmaPath {
                    bandwidth_ceiling: ceiling,
                    crosses_socket: crosses,
                    via_root_complex: false,
                }
            }
            MemoryTarget::GpuMemory { gpu_id } => {
                let placement = self
                    .gpu(gpu_id)
                    .map(|g| g.placement)
                    .unwrap_or(GpuPlacement::RemoteSocket);
                let gpu_socket = self
                    .gpu(gpu_id)
                    .map(|g| g.socket)
                    .unwrap_or_else(|| self.rnic_socket.saturating_add(1));
                let crosses =
                    gpu_socket != self.rnic_socket || placement == GpuPlacement::RemoteSocket;
                let via_root_complex = self.pcie_settings.acs_redirect_p2p
                    || placement != GpuPlacement::SameSwitchAsRnic;

                // Peer-to-peer over a shared switch sustains close to the
                // NIC's PCIe rate; detours through the root complex or the
                // socket interconnect progressively cut it down.
                let mut ceiling = self.pcie_link.raw_bandwidth();
                if via_root_complex {
                    ceiling = ceiling.scaled(0.55);
                }
                if crosses {
                    ceiling = ceiling
                        .min(self.cpu.cross_socket_bandwidth)
                        .scaled(self.cpu.cross_socket_dma_efficiency);
                }
                DmaPath {
                    bandwidth_ceiling: ceiling,
                    crosses_socket: crosses,
                    via_root_complex,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    fn amd_gpu_host() -> HostConfig {
        presets::amd_epyc_gpu_host("test-amd", ByteSize::from_gib(2048))
    }

    fn intel_host() -> HostConfig {
        presets::intel_xeon_host("test-intel", 2, ByteSize::from_gib(768), false)
    }

    #[test]
    fn local_dram_path_is_cheap() {
        let host = intel_host();
        let p = host.dma_path(MemoryTarget::local_dram());
        assert!(!p.crosses_socket);
        assert!(!p.via_root_complex);
        assert!(p.bandwidth_ceiling.gbps() > 500.0);
    }

    #[test]
    fn remote_socket_dram_pays_latency_and_bandwidth() {
        let host = intel_host();
        let local = host.dma_path(MemoryTarget::HostDram { numa_node: 0 });
        let remote = host.dma_path(MemoryTarget::HostDram { numa_node: 1 });
        assert!(remote.crosses_socket);
        assert!(remote.bandwidth_ceiling.gbps() < local.bandwidth_ceiling.gbps());
    }

    #[test]
    fn amd_cross_socket_is_much_worse_than_intel() {
        let amd = amd_gpu_host();
        let intel = intel_host();
        let amd_remote = amd.dma_path(MemoryTarget::HostDram { numa_node: 1 });
        let intel_remote = intel.dma_path(MemoryTarget::HostDram { numa_node: 1 });
        assert!(amd_remote.bandwidth_ceiling.gbps() < intel_remote.bandwidth_ceiling.gbps());
        // The anomalous AMD platform cannot sustain 200 Gbps across sockets.
        assert!(amd_remote.bandwidth_ceiling.gbps() < 200.0);
    }

    #[test]
    fn gpu_same_switch_is_fast_unless_acs_misconfigured() {
        let mut host = amd_gpu_host();
        let good = host.dma_path(MemoryTarget::GpuMemory { gpu_id: 0 });
        assert!(
            !good.via_root_complex,
            "same-switch GPU should switch P2P locally"
        );

        host.pcie_settings.acs_redirect_p2p = true;
        let bad = host.dma_path(MemoryTarget::GpuMemory { gpu_id: 0 });
        assert!(bad.via_root_complex);
        assert!(bad.bandwidth_ceiling.gbps() < good.bandwidth_ceiling.gbps());
    }

    #[test]
    fn unknown_gpu_resolves_pessimistically() {
        let host = intel_host(); // no GPUs installed
        let p = host.dma_path(MemoryTarget::GpuMemory { gpu_id: 42 });
        assert!(p.crosses_socket);
        assert!(p.via_root_complex);
    }

    #[test]
    fn memory_targets_enumerate_numa_and_gpus() {
        let host = amd_gpu_host();
        let targets = host.memory_targets();
        let dram_targets = targets.iter().filter(|t| !t.is_gpu()).count();
        let gpu_targets = targets.iter().filter(|t| t.is_gpu()).count();
        assert_eq!(dram_targets as u32, host.cpu.numa_nodes());
        assert_eq!(gpu_targets, host.gpus.len());

        let intel = intel_host();
        assert!(intel.memory_targets().iter().all(|t| !t.is_gpu()));
    }
}
