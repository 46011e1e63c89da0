//! Devices, contexts, and protection domains.
//!
//! [`RdmaDevice`] represents one server's RNIC port as the application sees
//! it: open it to get a [`Context`], query its attributes, allocate a
//! [`ProtectionDomain`], and register memory. The device knows which host
//! of the two-server testbed it lives in, which is how the fabric later
//! decides each flow's direction.

use crate::error::{Result, VerbsError};
use crate::mr::MemoryRegion;
use crate::types::{AccessFlags, Mtu};
use collie_host::memory::MemoryTarget;
use collie_host::topology::HostConfig;
use collie_rnic::spec::RnicSpec;
use collie_sim::units::{BitRate, ByteSize};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Device-level limits reported by `query_device`.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceAttr {
    /// Maximum queue pairs the paper's search bounds itself to (20 K).
    pub max_qp: u32,
    /// Maximum memory regions the paper's search bounds itself to (200 K).
    pub max_mr: u32,
    /// Maximum scatter/gather entries per work request.
    pub max_sge: u32,
    /// Maximum completion-queue entries.
    pub max_cqe: u32,
    /// Maximum work requests per queue.
    pub max_qp_wr: u32,
}

/// Port-level attributes reported by `query_port`.
#[derive(Debug, Clone, PartialEq)]
pub struct PortAttr {
    /// Link speed.
    pub link_speed: BitRate,
    /// The path MTU currently configured on the port.
    pub active_mtu: Mtu,
}

#[derive(Debug)]
pub(crate) struct DeviceInner {
    pub(crate) host: HostConfig,
    pub(crate) spec: RnicSpec,
    pub(crate) host_index: usize,
    pub(crate) active_mtu: Mtu,
    next_qpn: AtomicU32,
}

impl DeviceInner {
    pub(crate) fn next_qp_num(&self) -> u32 {
        self.next_qpn.fetch_add(1, Ordering::Relaxed)
    }
}

/// One server's RNIC as presented to applications.
#[derive(Debug, Clone)]
pub struct RdmaDevice {
    inner: Arc<DeviceInner>,
}

impl RdmaDevice {
    /// Create a device for the RNIC of `host` (index 0 = host A, 1 = host B
    /// of the testbed).
    pub fn new(host: HostConfig, spec: RnicSpec, host_index: usize) -> Self {
        RdmaDevice {
            inner: Arc::new(DeviceInner {
                host,
                spec,
                // QP numbers are partitioned per host so that the fabric can
                // match a local QP to its remote peer unambiguously.
                next_qpn: AtomicU32::new(1 + host_index as u32 * 10_000_000),
                host_index,
                active_mtu: Mtu::Mtu1024,
            }),
        }
    }

    /// Open the device (`ibv_open_device`).
    pub fn open(&self) -> Context {
        Context {
            device: self.inner.clone(),
        }
    }

    /// Which host of the testbed this device belongs to.
    pub fn host_index(&self) -> usize {
        self.inner.host_index
    }
}

/// An opened device context (`ibv_context`).
#[derive(Debug, Clone)]
pub struct Context {
    pub(crate) device: Arc<DeviceInner>,
}

impl Context {
    /// Device limits (`ibv_query_device`). The QP and MR maxima are the
    /// bounds the paper places on its search space (§4, Dimensions 2 and 3).
    pub fn query_device(&self) -> DeviceAttr {
        DeviceAttr {
            max_qp: 20_000,
            max_mr: 200_000,
            max_sge: 16,
            max_cqe: 4 * 1024 * 1024,
            max_qp_wr: 16_384,
        }
    }

    /// Port attributes (`ibv_query_port`).
    pub fn query_port(&self) -> PortAttr {
        PortAttr {
            link_speed: self.device.spec.line_rate,
            active_mtu: self.device.active_mtu,
        }
    }

    /// The host configuration behind this context (used by the workload
    /// engine to enumerate memory targets for Dimension 1).
    pub fn host(&self) -> &HostConfig {
        &self.device.host
    }

    /// Which host of the testbed this context belongs to.
    pub fn host_index(&self) -> usize {
        self.device.host_index
    }

    /// Allocate a protection domain (`ibv_alloc_pd`).
    pub fn alloc_pd(&self) -> ProtectionDomain {
        ProtectionDomain {
            device: self.device.clone(),
            inner: Arc::new(Mutex::new(PdInner {
                mrs: Vec::new(),
                next_key: 1,
                pinned: ByteSize::ZERO,
            })),
        }
    }
}

#[derive(Debug)]
struct PdInner {
    mrs: Vec<MemoryRegion>,
    next_key: u32,
    pinned: ByteSize,
}

/// A protection domain (`ibv_pd`): the container MRs and QPs live in.
#[derive(Debug, Clone)]
pub struct ProtectionDomain {
    pub(crate) device: Arc<DeviceInner>,
    inner: Arc<Mutex<PdInner>>,
}

impl ProtectionDomain {
    /// Register a memory region of `length` bytes backed by `target`
    /// (`ibv_reg_mr`). Fails if the length is zero, the target does not
    /// exist on this host, or the host cannot pin that much more memory.
    pub fn reg_mr(
        &self,
        length: ByteSize,
        target: MemoryTarget,
        access: AccessFlags,
    ) -> Result<MemoryRegion> {
        if length.as_bytes() == 0 {
            return Err(VerbsError::RegistrationFailed {
                reason: "zero-length registration".to_string(),
            });
        }
        if let MemoryTarget::GpuMemory { gpu_id } = target {
            if self.device.host.gpu(gpu_id).is_none() {
                return Err(VerbsError::RegistrationFailed {
                    reason: format!("host has no GPU {gpu_id}"),
                });
            }
        }
        let mut inner = self.inner.lock();
        let limit = self.device.host.total_dram;
        if !target.is_gpu() && inner.pinned.as_bytes() + length.as_bytes() > limit.as_bytes() {
            return Err(VerbsError::RegistrationFailed {
                reason: format!(
                    "cannot pin {length}: {} already pinned of {limit}",
                    inner.pinned
                ),
            });
        }
        let lkey = inner.next_key;
        inner.next_key += 2;
        let mr = MemoryRegion {
            lkey,
            rkey: lkey + 1,
            length,
            target,
            access,
        };
        if !target.is_gpu() {
            inner.pinned += length;
        }
        inner.mrs.push(mr.clone());
        Ok(mr)
    }

    /// Deregister a memory region (`ibv_dereg_mr`).
    pub fn dereg_mr(&self, mr: &MemoryRegion) -> Result<()> {
        let mut inner = self.inner.lock();
        let before = inner.mrs.len();
        inner.mrs.retain(|m| m.lkey != mr.lkey);
        if inner.mrs.len() == before {
            return Err(VerbsError::UnknownHandle {
                kind: "memory region",
                handle: mr.lkey as u64,
            });
        }
        if !mr.target.is_gpu() {
            inner.pinned = inner.pinned.saturating_sub(mr.length);
        }
        Ok(())
    }

    /// Look up a registered MR by local key.
    pub fn lookup(&self, lkey: u32) -> Option<MemoryRegion> {
        self.inner
            .lock()
            .mrs
            .iter()
            .find(|m| m.lkey == lkey)
            .cloned()
    }

    /// Number of registered MRs.
    pub fn mr_count(&self) -> usize {
        self.inner.lock().mrs.len()
    }

    /// Total bytes currently pinned in host DRAM by this PD.
    pub fn pinned_bytes(&self) -> ByteSize {
        self.inner.lock().pinned
    }

    /// The memory device of the first registered MR, if any (used as a
    /// destination-memory hint for one-sided flows).
    pub fn primary_target(&self) -> Option<MemoryTarget> {
        self.inner.lock().mrs.first().map(|m| m.target)
    }

    /// Mean size of the registered MRs (zero if none).
    pub fn mean_mr_size(&self) -> ByteSize {
        let inner = self.inner.lock();
        if inner.mrs.is_empty() {
            return ByteSize::ZERO;
        }
        let total: u64 = inner.mrs.iter().map(|m| m.length.as_bytes()).sum();
        ByteSize::from_bytes(total / inner.mrs.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collie_host::presets;
    use collie_rnic::spec::RnicModel;

    fn device() -> RdmaDevice {
        RdmaDevice::new(
            presets::intel_xeon_gpu_host("t", ByteSize::from_gib(4), true),
            RnicModel::Cx6Dx200.spec(),
            0,
        )
    }

    #[test]
    fn query_device_and_port() {
        let ctx = device().open();
        let attr = ctx.query_device();
        assert_eq!(attr.max_qp, 20_000);
        assert_eq!(attr.max_mr, 200_000);
        let port = ctx.query_port();
        assert_eq!(port.link_speed.gbps(), 200.0);
        assert_eq!(port.active_mtu, Mtu::Mtu1024);
    }

    #[test]
    fn register_and_lookup_mr() {
        let pd = device().open().alloc_pd();
        let mr = pd
            .reg_mr(
                ByteSize::from_kib(64),
                MemoryTarget::local_dram(),
                AccessFlags::FULL,
            )
            .unwrap();
        assert_eq!(pd.mr_count(), 1);
        assert_eq!(pd.lookup(mr.lkey).unwrap(), mr);
        assert_ne!(mr.lkey, mr.rkey);
        assert_eq!(pd.pinned_bytes(), ByteSize::from_kib(64));
        pd.dereg_mr(&mr).unwrap();
        assert_eq!(pd.mr_count(), 0);
        assert_eq!(pd.pinned_bytes(), ByteSize::ZERO);
    }

    #[test]
    fn keys_are_unique() {
        let pd = device().open().alloc_pd();
        let a = pd
            .reg_mr(
                ByteSize::from_kib(4),
                MemoryTarget::local_dram(),
                AccessFlags::FULL,
            )
            .unwrap();
        let b = pd
            .reg_mr(
                ByteSize::from_kib(4),
                MemoryTarget::local_dram(),
                AccessFlags::FULL,
            )
            .unwrap();
        assert_ne!(a.lkey, b.lkey);
        assert_ne!(a.rkey, b.rkey);
    }

    #[test]
    fn zero_length_registration_fails() {
        let pd = device().open().alloc_pd();
        let err = pd
            .reg_mr(
                ByteSize::ZERO,
                MemoryTarget::local_dram(),
                AccessFlags::FULL,
            )
            .unwrap_err();
        assert!(matches!(err, VerbsError::RegistrationFailed { .. }));
    }

    #[test]
    fn pinning_is_bounded_by_installed_dram() {
        let pd = device().open().alloc_pd();
        pd.reg_mr(
            ByteSize::from_gib(3),
            MemoryTarget::local_dram(),
            AccessFlags::FULL,
        )
        .unwrap();
        let err = pd
            .reg_mr(
                ByteSize::from_gib(2),
                MemoryTarget::local_dram(),
                AccessFlags::FULL,
            )
            .unwrap_err();
        assert!(matches!(err, VerbsError::RegistrationFailed { .. }));
    }

    #[test]
    fn gpu_registration_requires_an_installed_gpu() {
        let pd = device().open().alloc_pd();
        assert!(pd
            .reg_mr(
                ByteSize::from_mib(16),
                MemoryTarget::GpuMemory { gpu_id: 0 },
                AccessFlags::FULL
            )
            .is_ok());
        let err = pd
            .reg_mr(
                ByteSize::from_mib(16),
                MemoryTarget::GpuMemory { gpu_id: 99 },
                AccessFlags::FULL,
            )
            .unwrap_err();
        assert!(matches!(err, VerbsError::RegistrationFailed { .. }));
    }

    #[test]
    fn dereg_unknown_mr_fails() {
        let pd = device().open().alloc_pd();
        let mr = MemoryRegion {
            lkey: 777,
            rkey: 778,
            length: ByteSize::from_kib(4),
            target: MemoryTarget::local_dram(),
            access: AccessFlags::FULL,
        };
        assert!(matches!(
            pd.dereg_mr(&mr).unwrap_err(),
            VerbsError::UnknownHandle { .. }
        ));
    }

    #[test]
    fn mean_mr_size() {
        let pd = device().open().alloc_pd();
        pd.reg_mr(
            ByteSize::from_kib(4),
            MemoryTarget::local_dram(),
            AccessFlags::FULL,
        )
        .unwrap();
        pd.reg_mr(
            ByteSize::from_kib(12),
            MemoryTarget::local_dram(),
            AccessFlags::FULL,
        )
        .unwrap();
        assert_eq!(pd.mean_mr_size(), ByteSize::from_kib(8));
        let empty = device().open().alloc_pd();
        assert_eq!(empty.mean_mr_size(), ByteSize::ZERO);
    }
}
