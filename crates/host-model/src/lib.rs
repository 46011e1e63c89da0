//! # collie-host
//!
//! Host-side hardware model for the Collie reproduction.
//!
//! The paper's anomalies are interactions between the RNIC and the rest of
//! the server (Figure 1): the PCIe link and switches the NIC hangs off, the
//! CPU sockets and their interconnect, the memory devices DMA targets live
//! in (NUMA-local DRAM, remote-socket DRAM, GPU HBM), and the lossless ToR
//! switch between the servers. This crate models those components as
//! bandwidth and ordering constraints on DMA paths, which is the level of
//! detail the anomalies actually depend on.
//!
//! Modules:
//!
//! * [`pcie`] — PCIe generations, link widths, payload efficiency, ordering
//!   and ACS configuration.
//! * [`cpu`] — CPU socket/chiplet/NUMA layout and cross-socket interconnect.
//! * [`memory`] — DMA-able memory devices (host DRAM per NUMA node, GPU HBM).
//! * [`topology`] — the assembled [`HostConfig`] and DMA path resolution.
//! * [`switch`] — the lossless switch connecting the two servers.
//! * [`presets`] — the host portions of the paper's Table-1 subsystems.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cpu;
pub mod memory;
pub mod pcie;
pub mod presets;
pub mod switch;
pub mod topology;

pub use cpu::CpuModel;
pub use memory::{GpuDevice, GpuPlacement, MemoryTarget};
pub use pcie::{PcieGen, PcieLink, PcieSettings};
pub use switch::LosslessSwitch;
pub use topology::{DmaPath, HostConfig};
