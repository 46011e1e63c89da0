//! The simulated fabric: two devices, one subsystem, out-of-band connection
//! setup, and the measurement loop.
//!
//! In the paper's workload engine, connections are exchanged over TCP
//! out-of-band, traffic is generated for 20–60 seconds, and the monitor
//! samples throughput and pause counters four times. [`Fabric`] plays all
//! three roles for applications written against the verbs API:
//!
//! * [`Fabric::connect`] performs the out-of-band QP number exchange and
//!   drives both QPs to RTS,
//! * [`Fabric::run`] derives the flow-level workload from the work requests
//!   the application has posted, evaluates it on the subsystem model, and
//!   delivers completions, and
//! * the returned [`Measurement`] is exactly what the anomaly monitor in
//!   `collie-core` consumes.

use crate::device::RdmaDevice;
use crate::error::{Result, VerbsError};
use crate::qp::{QpAttr, QueuePair, TrafficProfile};
use crate::types::{Mtu, WcOpcode, WcStatus, WorkCompletion, WrOpcode};
use collie_rnic::subsystem::{Measurement, Subsystem};
use collie_rnic::subsystems::SubsystemId;
use collie_rnic::workload::{Direction, FlowSpec, MessagePattern, WorkloadSpec};
use collie_sim::units::ByteSize;
use std::collections::BTreeMap;

/// The testbed as seen by verbs applications: one device per server, two
/// servers by default. Every further host is a copy of host B on its own
/// switch port (the multi-host fabric layer's homogeneous fleet).
#[derive(Debug)]
pub struct Fabric {
    subsystem: Subsystem,
    devices: Vec<RdmaDevice>,
}

impl Fabric {
    /// Build a two-host fabric over an already-assembled subsystem (the
    /// paper's testbed).
    pub fn new(subsystem: Subsystem) -> Self {
        Fabric::with_hosts(subsystem, 2)
    }

    /// Build a fabric of `host_count` hosts (clamped to at least two):
    /// host 0 is the subsystem's host A, every further host a copy of
    /// host B — the homogeneous fleet the fabric campaigns model.
    fn with_hosts(subsystem: Subsystem, host_count: usize) -> Self {
        let count = host_count.max(2);
        let mut devices = Vec::with_capacity(count);
        devices.push(RdmaDevice::new(
            subsystem.host_a.clone(),
            subsystem.rnic.clone(),
            0,
        ));
        for index in 1..count {
            devices.push(RdmaDevice::new(
                subsystem.host_b.clone(),
                subsystem.rnic.clone(),
                index,
            ));
        }
        Fabric { subsystem, devices }
    }

    /// Build a fabric for one of the Table-1 subsystems.
    pub fn from_catalog(id: SubsystemId) -> Self {
        Fabric::new(id.build())
    }

    /// Number of hosts attached to the fabric.
    pub fn host_count(&self) -> usize {
        self.devices.len()
    }

    /// The device of host `index` (0 = A; out-of-range indices clamp to
    /// the last host).
    pub fn device(&self, index: usize) -> &RdmaDevice {
        &self.devices[index.min(self.devices.len() - 1)]
    }

    /// The underlying subsystem.
    pub fn subsystem(&self) -> &Subsystem {
        &self.subsystem
    }

    /// Mutable access to the underlying subsystem (for reconfiguration
    /// experiments such as applying the relaxed-ordering fix).
    pub fn subsystem_mut(&mut self) -> &mut Subsystem {
        &mut self.subsystem
    }

    /// Out-of-band connection setup: exchange QP numbers, negotiate `mtu`,
    /// and drive both QPs RESET→INIT→RTR→RTS.
    pub fn connect(a: &mut QueuePair, b: &mut QueuePair, mtu: Mtu) -> Result<()> {
        if a.transport() != b.transport() {
            return Err(VerbsError::ConnectionFailed {
                reason: format!("transport mismatch: {} vs {}", a.transport(), b.transport()),
            });
        }
        a.modify_to_init()?;
        b.modify_to_init()?;
        a.modify_to_rtr(QpAttr {
            path_mtu: mtu,
            dest_qp_num: b.qp_num(),
            dest_host_index: b.host_index(),
        })?;
        b.modify_to_rtr(QpAttr {
            path_mtu: mtu,
            dest_qp_num: a.qp_num(),
            dest_host_index: a.host_index(),
        })?;
        a.modify_to_rts()?;
        b.modify_to_rts()?;
        Ok(())
    }

    /// Let every connected QP exchange its posted traffic for one
    /// measurement window. Returns the subsystem measurement; completions
    /// are delivered to the QPs' completion queues.
    pub fn run(&mut self, qps: &mut [&mut QueuePair]) -> Result<Measurement> {
        let workload = self.derive_workload(qps);
        let measurement = self.subsystem.evaluate(&workload);
        self.deliver_completions(qps)?;
        Ok(measurement)
    }

    /// Derive the flow-level workload described by the QPs' posted work,
    /// without running it (useful for inspection and tests).
    pub fn derive_workload(&self, qps: &[&mut QueuePair]) -> WorkloadSpec {
        #[derive(PartialEq, Eq, PartialOrd, Ord)]
        struct GroupKey {
            host: usize,
            remote_host: usize,
            transport: String,
            opcode: String,
            mtu: u32,
            sge: u32,
            batch: u32,
            send_depth: u32,
            recv_depth: u32,
            memory: String,
        }

        let mut groups: BTreeMap<GroupKey, Vec<(TrafficProfile, usize)>> = BTreeMap::new();
        for (idx, qp) in qps.iter().enumerate() {
            if let Some(profile) = qp.traffic_profile() {
                let key = GroupKey {
                    host: profile.host_index,
                    remote_host: profile.remote_host_index,
                    transport: profile.transport.to_string(),
                    opcode: profile.opcode.name().to_string(),
                    mtu: profile.mtu,
                    sge: profile.sge_per_wqe,
                    batch: profile.wqe_batch,
                    send_depth: profile.send_queue_depth,
                    recv_depth: profile.recv_queue_depth,
                    memory: format!("{}", profile.local_memory),
                };
                groups.entry(key).or_default().push((profile, idx));
            }
        }

        let mut flows = Vec::new();
        for (_, members) in groups {
            let (profile, first_idx) = &members[0];
            let qp = &qps[*first_idx];
            // Cross-host pairs are evaluated on the two-host model with the
            // lower-indexed host in the "A" role (the fleet is homogeneous,
            // so every pair behaves like the calibrated host pair);
            // collocated client and server loop back through one RNIC.
            let direction = match (profile.host_index, profile.remote_host_index) {
                (s, r) if s == r => Direction::LoopbackA,
                (s, r) if s < r => Direction::AToB,
                _ => Direction::BToA,
            };
            let num_qps = members.len() as u32;
            let pd_mrs = qp.pd().mr_count() as u32;
            let dst_memory = qp
                .remote_qp_num()
                .and_then(|rqpn| {
                    qps.iter()
                        .find(|peer| peer.qp_num() == rqpn)
                        .map(|peer| peer.recv_memory_hint())
                })
                .unwrap_or(collie_host::memory::MemoryTarget::local_dram());
            flows.push(FlowSpec {
                direction,
                transport: profile.transport,
                opcode: profile.opcode.flow_opcode(),
                num_qps,
                mtu: profile.mtu,
                wqe_batch: profile.wqe_batch,
                sge_per_wqe: profile.sge_per_wqe,
                send_queue_depth: profile.send_queue_depth,
                recv_queue_depth: profile.recv_queue_depth,
                mrs_per_qp: (pd_mrs / num_qps.max(1)).max(1),
                mr_size: if qp.pd().mean_mr_size().as_bytes() == 0 {
                    ByteSize::from_kib(64)
                } else {
                    qp.pd().mean_mr_size()
                },
                messages: MessagePattern::new(profile.message_sizes.clone()),
                src_memory: profile.local_memory,
                dst_memory,
            });
        }
        WorkloadSpec { flows }
    }

    fn deliver_completions(&mut self, qps: &mut [&mut QueuePair]) -> Result<()> {
        // Pass 1: take every QP's pending sends and note, per remote QP, how
        // many two-sided messages it must absorb.
        let mut inbound_sends: BTreeMap<u32, Vec<(u64, u32)>> = BTreeMap::new();
        let mut send_completions: Vec<(usize, Vec<WorkCompletion>)> = Vec::new();
        for (idx, qp) in qps.iter_mut().enumerate() {
            let sends = qp.take_pending_sends();
            if sends.is_empty() {
                continue;
            }
            let remote = qp.remote_qp_num();
            let qp_num = qp.qp_num();
            let mut completions = Vec::new();
            for wr in sends {
                if wr.opcode == WrOpcode::Send {
                    if let Some(rqpn) = remote {
                        inbound_sends
                            .entry(rqpn)
                            .or_default()
                            .push((wr.byte_len(), qp_num));
                    }
                }
                if wr.signaled {
                    completions.push(WorkCompletion {
                        wr_id: wr.wr_id,
                        status: WcStatus::Success,
                        opcode: WcOpcode::Send,
                        byte_len: wr.byte_len(),
                        qp_num,
                    });
                }
            }
            send_completions.push((idx, completions));
        }

        // Pass 2: match inbound SENDs against posted receive WRs and deliver
        // receive completions (or degrade the send status to RNR when the
        // responder ran out of receive WQEs).
        for (idx, qp) in qps.iter_mut().enumerate() {
            let Some(arrivals) = inbound_sends.remove(&qp.qp_num()) else {
                continue;
            };
            let recvs = qp.consume_recvs(arrivals.len());
            for (slot, (byte_len, _sender)) in arrivals.iter().enumerate() {
                if let Some(recv) = recvs.get(slot) {
                    qp.recv_cq()
                        .push(WorkCompletion {
                            wr_id: recv.wr_id,
                            status: WcStatus::Success,
                            opcode: WcOpcode::Recv,
                            byte_len: *byte_len,
                            qp_num: qp.qp_num(),
                        })
                        .ok();
                } else {
                    // Receiver-not-ready: reflect it on the sender's
                    // completion below by rewriting the matching entry.
                    for (send_idx, completions) in send_completions.iter_mut() {
                        if *send_idx == idx {
                            continue;
                        }
                        if let Some(wc) = completions
                            .iter_mut()
                            .find(|wc| wc.status == WcStatus::Success && wc.byte_len == *byte_len)
                        {
                            wc.status = WcStatus::ReceiverNotReady;
                            break;
                        }
                    }
                }
            }
        }

        // Pass 3: publish send completions.
        for (idx, completions) in send_completions {
            for wc in completions {
                qps[idx].send_cq().push(wc).ok();
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::ProtectionDomain;
    use crate::qp::QpCaps;
    use crate::types::{AccessFlags, SendWr, Sge};
    use crate::CompletionQueue;
    use collie_host::memory::MemoryTarget;
    use collie_rnic::workload::{Opcode, Transport};

    struct Endpoint {
        pd: ProtectionDomain,
        cq: CompletionQueue,
    }

    fn endpoint(fabric: &Fabric, host: usize) -> Endpoint {
        let ctx = fabric.device(host).open();
        Endpoint {
            pd: ctx.alloc_pd(),
            cq: CompletionQueue::new(4096),
        }
    }

    fn qp(ep: &Endpoint, transport: Transport, caps: QpCaps) -> QueuePair {
        QueuePair::create(&ep.pd, &ep.cq, &ep.cq, transport, caps).unwrap()
    }

    fn write_wr(lkey: u32, wr_id: u64, len: u64) -> SendWr {
        SendWr {
            wr_id,
            opcode: WrOpcode::RdmaWrite,
            sge: vec![Sge::new(lkey, 0, len)],
            rkey: 1,
            remote_offset: 0,
            signaled: true,
        }
    }

    #[test]
    fn connect_and_run_a_simple_write_workload() {
        let mut fabric = Fabric::from_catalog(SubsystemId::B);
        let client = endpoint(&fabric, 0);
        let server = endpoint(&fabric, 1);
        let mr = client
            .pd
            .reg_mr(
                ByteSize::from_mib(4),
                MemoryTarget::local_dram(),
                AccessFlags::FULL,
            )
            .unwrap();
        server
            .pd
            .reg_mr(
                ByteSize::from_mib(4),
                MemoryTarget::local_dram(),
                AccessFlags::FULL,
            )
            .unwrap();

        let mut a = qp(&client, Transport::Rc, QpCaps::default());
        let mut b = qp(&server, Transport::Rc, QpCaps::default());
        Fabric::connect(&mut a, &mut b, Mtu::Mtu4096).unwrap();

        for i in 0..16 {
            a.post_send(write_wr(mr.lkey, i, 65536)).unwrap();
        }
        let measurement = fabric.run(&mut [&mut a, &mut b]).unwrap();
        // Healthy subsystem B workload: near line rate, no pause frames.
        let dir = measurement.direction(Direction::AToB).unwrap();
        assert!(dir.throughput.gbps() > 90.0, "got {}", dir.throughput);
        assert!(measurement.max_pause_ratio() < 0.001);
        // The sender got 16 completions.
        assert_eq!(client.cq.poll(100).len(), 16);
        // Work was drained: a second run with nothing posted is empty.
        let again = fabric.derive_workload(&[&mut a, &mut b]);
        assert!(again.flows.is_empty());
    }

    #[test]
    fn connect_rejects_transport_mismatch() {
        let fabric = Fabric::from_catalog(SubsystemId::B);
        let client = endpoint(&fabric, 0);
        let server = endpoint(&fabric, 1);
        let mut a = qp(&client, Transport::Rc, QpCaps::default());
        let mut b = qp(&server, Transport::Ud, QpCaps::default());
        assert!(matches!(
            Fabric::connect(&mut a, &mut b, Mtu::Mtu1024).unwrap_err(),
            VerbsError::ConnectionFailed { .. }
        ));
    }

    #[test]
    fn derive_workload_groups_identical_qps_into_one_flow() {
        let fabric = Fabric::from_catalog(SubsystemId::F);
        let client = endpoint(&fabric, 0);
        let server = endpoint(&fabric, 1);
        let mr = client
            .pd
            .reg_mr(
                ByteSize::from_mib(16),
                MemoryTarget::local_dram(),
                AccessFlags::FULL,
            )
            .unwrap();
        server
            .pd
            .reg_mr(
                ByteSize::from_mib(16),
                MemoryTarget::local_dram(),
                AccessFlags::FULL,
            )
            .unwrap();

        let mut client_qps = Vec::new();
        let mut server_qps = Vec::new();
        for _ in 0..4 {
            let mut a = qp(&client, Transport::Rc, QpCaps::default());
            let mut b = qp(&server, Transport::Rc, QpCaps::default());
            Fabric::connect(&mut a, &mut b, Mtu::Mtu4096).unwrap();
            a.post_send_batch((0..8).map(|i| write_wr(mr.lkey, i, 262_144)).collect())
                .unwrap();
            client_qps.push(a);
            server_qps.push(b);
        }
        let mut refs: Vec<&mut QueuePair> =
            client_qps.iter_mut().chain(server_qps.iter_mut()).collect();
        let workload = fabric.derive_workload(&refs);
        assert_eq!(workload.flows.len(), 1);
        let flow = &workload.flows[0];
        assert_eq!(flow.num_qps, 4);
        assert_eq!(flow.direction, Direction::AToB);
        assert_eq!(flow.opcode, Opcode::Write);
        assert_eq!(flow.wqe_batch, 8);
        assert_eq!(flow.mtu, 4096);
        drop(refs.drain(..));
    }

    #[test]
    fn two_sided_traffic_delivers_receive_completions() {
        let mut fabric = Fabric::from_catalog(SubsystemId::B);
        let client = endpoint(&fabric, 0);
        let server = endpoint(&fabric, 1);
        let smr = client
            .pd
            .reg_mr(
                ByteSize::from_mib(1),
                MemoryTarget::local_dram(),
                AccessFlags::FULL,
            )
            .unwrap();
        let rmr = server
            .pd
            .reg_mr(
                ByteSize::from_mib(1),
                MemoryTarget::local_dram(),
                AccessFlags::FULL,
            )
            .unwrap();

        let mut a = qp(&client, Transport::Rc, QpCaps::default());
        let mut b = qp(&server, Transport::Rc, QpCaps::default());
        Fabric::connect(&mut a, &mut b, Mtu::Mtu1024).unwrap();
        for i in 0..4 {
            b.post_recv(crate::types::RecvWr {
                wr_id: 100 + i,
                sge: vec![Sge::new(rmr.lkey, 0, 4096)],
            })
            .unwrap();
        }
        for i in 0..4 {
            a.post_send(SendWr {
                wr_id: i,
                opcode: WrOpcode::Send,
                sge: vec![Sge::new(smr.lkey, 0, 2048)],
                rkey: 0,
                remote_offset: 0,
                signaled: true,
            })
            .unwrap();
        }
        fabric.run(&mut [&mut a, &mut b]).unwrap();
        let send_wcs = client.cq.poll(10);
        assert_eq!(send_wcs.len(), 4);
        assert!(send_wcs.iter().all(|wc| wc.status == WcStatus::Success));
        let recv_wcs = server.cq.poll(10);
        assert_eq!(recv_wcs.len(), 4);
        assert!(recv_wcs.iter().all(|wc| wc.opcode == WcOpcode::Recv));
        assert_eq!(recv_wcs[0].byte_len, 2048);
    }

    #[test]
    fn missing_receive_wqes_surface_as_rnr() {
        let mut fabric = Fabric::from_catalog(SubsystemId::B);
        let client = endpoint(&fabric, 0);
        let server = endpoint(&fabric, 1);
        let smr = client
            .pd
            .reg_mr(
                ByteSize::from_mib(1),
                MemoryTarget::local_dram(),
                AccessFlags::FULL,
            )
            .unwrap();
        server
            .pd
            .reg_mr(
                ByteSize::from_mib(1),
                MemoryTarget::local_dram(),
                AccessFlags::FULL,
            )
            .unwrap();
        let mut a = qp(&client, Transport::Rc, QpCaps::default());
        let mut b = qp(&server, Transport::Rc, QpCaps::default());
        Fabric::connect(&mut a, &mut b, Mtu::Mtu1024).unwrap();
        // No receive WQEs posted at the server.
        a.post_send(SendWr {
            wr_id: 1,
            opcode: WrOpcode::Send,
            sge: vec![Sge::new(smr.lkey, 0, 512)],
            rkey: 0,
            remote_offset: 0,
            signaled: true,
        })
        .unwrap();
        fabric.run(&mut [&mut a, &mut b]).unwrap();
        let wcs = client.cq.poll(10);
        assert_eq!(wcs.len(), 1);
        assert_eq!(wcs[0].status, WcStatus::ReceiverNotReady);
    }

    #[test]
    fn multi_host_fabric_connects_and_classifies_cross_host_pairs() {
        let mut fabric = Fabric::with_hosts(SubsystemId::B.build(), 4);
        assert_eq!(fabric.host_count(), 4);
        // Hosts 2 and 3 are real devices with their own indices.
        assert_eq!(fabric.device(2).host_index(), 2);
        assert_eq!(fabric.device(9).host_index(), 3, "out of range clamps");

        let client = endpoint(&fabric, 2);
        let server = endpoint(&fabric, 3);
        let mr = client
            .pd
            .reg_mr(
                ByteSize::from_mib(4),
                MemoryTarget::local_dram(),
                AccessFlags::FULL,
            )
            .unwrap();
        server
            .pd
            .reg_mr(
                ByteSize::from_mib(4),
                MemoryTarget::local_dram(),
                AccessFlags::FULL,
            )
            .unwrap();
        let mut a = qp(&client, Transport::Rc, QpCaps::default());
        let mut b = qp(&server, Transport::Rc, QpCaps::default());
        Fabric::connect(&mut a, &mut b, Mtu::Mtu4096).unwrap();
        for i in 0..8 {
            a.post_send(write_wr(mr.lkey, i, 65536)).unwrap();
        }
        // The 2 -> 3 pair maps onto the calibrated host pair in the A role.
        let workload = fabric.derive_workload(&[&mut a, &mut b]);
        assert_eq!(workload.flows.len(), 1);
        assert_eq!(workload.flows[0].direction, Direction::AToB);
        // And the measurement loop delivers completions as on two hosts.
        let measurement = fabric.run(&mut [&mut a, &mut b]).unwrap();
        assert!(
            measurement
                .direction(Direction::AToB)
                .unwrap()
                .throughput
                .gbps()
                > 90.0
        );
        assert_eq!(client.cq.poll(100).len(), 8);
    }

    #[test]
    fn loopback_qps_are_classified_as_loopback_flows() {
        let fabric = Fabric::from_catalog(SubsystemId::F);
        let worker = endpoint(&fabric, 0);
        let server = endpoint(&fabric, 0); // same host: collocated
        let mr = worker
            .pd
            .reg_mr(
                ByteSize::from_mib(4),
                MemoryTarget::local_dram(),
                AccessFlags::FULL,
            )
            .unwrap();
        server
            .pd
            .reg_mr(
                ByteSize::from_mib(4),
                MemoryTarget::local_dram(),
                AccessFlags::FULL,
            )
            .unwrap();
        let mut a = qp(&worker, Transport::Rc, QpCaps::default());
        let mut b = qp(&server, Transport::Rc, QpCaps::default());
        Fabric::connect(&mut a, &mut b, Mtu::Mtu4096).unwrap();
        a.post_send(write_wr(mr.lkey, 1, 262_144)).unwrap();
        let workload = fabric.derive_workload(&[&mut a, &mut b]);
        assert_eq!(workload.flows.len(), 1);
        assert_eq!(workload.flows[0].direction, Direction::LoopbackA);
    }
}
