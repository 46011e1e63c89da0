//! CPU socket, chiplet, and NUMA model.
//!
//! Table 1 spans three Intel Xeon generations and an AMD EPYC part; the
//! anomalies that depend on the CPU do so through the socket/NUMA layout
//! rather than core microarchitecture: cross-socket DMA (Anomaly #11) rides
//! the inter-socket interconnect (xGMI/UPI), AMD parts additionally cross a
//! chiplet fabric, and the NPS (NUMA-per-socket) BIOS setting controls how
//! finely DRAM is partitioned. We model exactly those properties.

use collie_sim::units::BitRate;
use serde::{Deserialize, Serialize};

/// A CPU model: the host-side compute/memory complex of one server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuModel {
    /// Anonymised name as used in Table 1 ("Intel(R) Xeon(R) CPU 1", …).
    pub name: String,
    /// Number of CPU sockets in the server.
    pub sockets: u32,
    /// NUMA nodes exposed per socket (the "NPS" column of Table 1).
    pub numa_per_socket: u32,
    /// Chiplets (CCDs) per socket; 1 for monolithic Intel dies.
    pub chiplets_per_socket: u32,
    /// Usable bandwidth of the socket interconnect (UPI for Intel, xGMI for
    /// AMD) available to I/O traffic crossing sockets.
    pub cross_socket_bandwidth: BitRate,
    /// Aggregate DRAM bandwidth per socket available to I/O.
    pub dram_bandwidth_per_socket: BitRate,
    /// Efficiency factor (0..=1) applied to DMA streams that cross sockets
    /// on this platform. The anomalous AMD platform of Anomaly #11 has a
    /// markedly lower value: its I/O die forwards inbound PCIe writes to the
    /// remote socket at well below the NIC line rate.
    pub cross_socket_dma_efficiency: f64,
}

impl CpuModel {
    /// Total NUMA nodes in the server.
    pub fn numa_nodes(&self) -> u32 {
        self.sockets * self.numa_per_socket
    }

    /// The socket that owns a given NUMA node index (nodes are numbered
    /// socket-major, as Linux does).
    pub fn socket_of_numa(&self, numa_node: u32) -> u32 {
        if self.numa_per_socket == 0 {
            return 0;
        }
        (numa_node / self.numa_per_socket).min(self.sockets.saturating_sub(1))
    }

    /// An Intel Xeon with a conventional two-socket UPI layout.
    pub fn intel_xeon(name: &str, sockets: u32) -> CpuModel {
        CpuModel {
            name: name.to_string(),
            sockets,
            numa_per_socket: 1,
            chiplets_per_socket: 1,
            cross_socket_bandwidth: BitRate::from_gbps(330.0),
            dram_bandwidth_per_socket: BitRate::from_gbps(1100.0),
            cross_socket_dma_efficiency: 0.85,
        }
    }

    /// An AMD EPYC with chiplets and the I/O-die forwarding behaviour the
    /// paper observed on its anomalous 200 Gbps platforms.
    pub fn amd_epyc(name: &str, numa_per_socket: u32) -> CpuModel {
        CpuModel {
            name: name.to_string(),
            sockets: 2,
            numa_per_socket,
            chiplets_per_socket: 4,
            cross_socket_bandwidth: BitRate::from_gbps(290.0),
            dram_bandwidth_per_socket: BitRate::from_gbps(1400.0),
            // The particular servers behind Anomaly #11: bidirectional
            // cross-socket DMA collapses well below line rate.
            cross_socket_dma_efficiency: 0.38,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numa_node_count() {
        let intel = CpuModel::intel_xeon("Intel(R) Xeon(R) CPU 2", 2);
        assert_eq!(intel.numa_nodes(), 2);
        let amd = CpuModel::amd_epyc("AMD EPYC CPU 1", 2);
        assert_eq!(amd.numa_nodes(), 4);
    }

    #[test]
    fn socket_of_numa_is_socket_major() {
        let amd = CpuModel::amd_epyc("AMD EPYC CPU 1", 2);
        assert_eq!(amd.socket_of_numa(0), 0);
        assert_eq!(amd.socket_of_numa(1), 0);
        assert_eq!(amd.socket_of_numa(2), 1);
        assert_eq!(amd.socket_of_numa(3), 1);
        // Out-of-range nodes clamp to the last socket rather than panicking.
        assert_eq!(amd.socket_of_numa(99), 1);
    }

    #[test]
    fn socket_of_numa_handles_single_socket() {
        let one = CpuModel::intel_xeon("Intel(R) Xeon(R) CPU 1", 1);
        assert_eq!(one.socket_of_numa(0), 0);
        assert_eq!(one.socket_of_numa(5), 0);
    }

    #[test]
    fn amd_cross_socket_efficiency_is_lower_than_intel() {
        let intel = CpuModel::intel_xeon("Intel(R) Xeon(R) CPU 3", 2);
        let amd = CpuModel::amd_epyc("AMD EPYC CPU 1", 1);
        assert!(amd.cross_socket_dma_efficiency < intel.cross_socket_dma_efficiency);
        assert!(amd.chiplets_per_socket > 1);
    }
}
