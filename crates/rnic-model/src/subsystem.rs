//! The assembled RDMA subsystem and its workload evaluator.
//!
//! A [`Subsystem`] is the unit the paper tests: two identical servers with
//! one RNIC each, connected by a lossless switch. [`Subsystem::evaluate`]
//! plays the role of running the workload engine for one iteration (20–60 s
//! on hardware): it takes a [`WorkloadSpec`], resolves every flow against
//! the fluid performance model and the bottleneck rules, and returns a
//! [`Measurement`] with per-direction throughput, per-host pause-duration
//! ratios, and a snapshot of all hardware counters — the exact observables
//! the Collie search layer consumes. The only heap memory a measurement
//! allocates is the [`Measurement`] it returns.

use crate::bottleneck::{evaluate_rules, Effect, FlowContext, StressReport};
use crate::cache::miss_rate;
use crate::counters::{diag, perf, RnicCounters};
use crate::pfc::PauseAccount;
use crate::spec::RnicSpec;
use crate::workload::{Direction, FlowSpec, WorkloadSpec};
use collie_host::switch::LosslessSwitch;
use collie_host::topology::HostConfig;
use collie_sim::counters::{CounterSchema, CounterSnapshot};
use collie_sim::time::SimDuration;
use collie_sim::units::{BitRate, ByteSize, PacketRate};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Fraction of a receive deficit absorbed without emitting pause frames
/// (start-up transients; see §5.2's rationale for a non-zero threshold).
const PAUSE_GRACE: f64 = 0.02;

/// Scale applied to unit-less stress/miss fractions when publishing them as
/// counter values (events per second); the search normalises anyway.
const DIAG_SCALE: f64 = 1.0e6;

/// Throughput and packet rate achieved by one traffic direction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DirectionMetrics {
    /// Which direction this row describes.
    pub direction: Direction,
    /// Rate the senders could have injected had the receiver kept up.
    pub offered: BitRate,
    /// Achieved goodput.
    pub throughput: BitRate,
    /// Achieved packet rate.
    pub packet_rate: PacketRate,
}

/// The result of one experiment on the subsystem.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    /// Per-direction results (only directions with flows appear).
    pub directions: Vec<DirectionMetrics>,
    /// Pause-duration ratio per host (index 0 = host A, 1 = host B).
    pub pause_ratio: [f64; 2],
    /// Snapshot of every performance and diagnostic counter.
    pub counters: CounterSnapshot,
    /// Simulated observation window.
    pub window: SimDuration,
}

impl Measurement {
    /// The worst pause-duration ratio across both hosts.
    pub fn max_pause_ratio(&self) -> f64 {
        self.pause_ratio[0].max(self.pause_ratio[1])
    }

    /// Aggregate achieved throughput across all directions.
    pub fn total_throughput(&self) -> BitRate {
        self.directions
            .iter()
            .fold(BitRate::ZERO, |acc, d| acc + d.throughput)
    }

    /// Metrics for one direction, if it carried traffic.
    pub fn direction(&self, direction: Direction) -> Option<&DirectionMetrics> {
        self.directions.iter().find(|d| d.direction == direction)
    }

    /// An all-zero measurement (used for invalid workloads).
    pub fn empty(counters: CounterSnapshot) -> Measurement {
        Measurement {
            directions: Vec::new(),
            pause_ratio: [0.0, 0.0],
            counters,
            window: SimDuration::from_secs(1),
        }
    }
}

/// A two-server RDMA subsystem under test.
///
/// A plain value: it owns its counters, so a clone measures independently
/// of the original.
#[derive(Debug, Clone)]
pub struct Subsystem {
    /// Display name (e.g. "F").
    pub name: String,
    /// The RNIC model installed in both servers.
    pub rnic: RnicSpec,
    /// Host A.
    pub host_a: HostConfig,
    /// Host B.
    pub host_b: HostConfig,
    /// The lossless switch between them.
    pub switch: LosslessSwitch,
    counters: RnicCounters,
    reports: ReportScratch,
}

/// Stage 1's report buffer, kept across [`Subsystem::evaluate`] calls so
/// that a measurement does not allocate it. `evaluate` clears it on entry,
/// so its contents never outlive one call: a clone starts empty and
/// `Debug` does not show them.
#[derive(Default)]
struct ReportScratch(Vec<StressReport>);

impl Clone for ReportScratch {
    fn clone(&self) -> Self {
        ReportScratch::default()
    }
}

impl fmt::Debug for ReportScratch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ReportScratch")
    }
}

#[derive(Clone, Copy)]
struct DirectionOutcome {
    direction: Direction,
    offered: BitRate,
    drain: BitRate,
    mean_packet_bytes: f64,
}

impl DirectionOutcome {
    /// Filler for the unused slots of stage 2's fixed array.
    const UNUSED: DirectionOutcome = DirectionOutcome {
        direction: Direction::AToB,
        offered: BitRate::ZERO,
        drain: BitRate::ZERO,
        mean_packet_bytes: 0.0,
    };
}

impl Subsystem {
    /// Assemble a subsystem from its parts.
    pub fn new(
        name: impl Into<String>,
        rnic: RnicSpec,
        host_a: HostConfig,
        host_b: HostConfig,
    ) -> Self {
        let switch = LosslessSwitch::with_ports(2);
        Subsystem {
            name: name.into(),
            rnic,
            host_a,
            host_b,
            switch,
            counters: RnicCounters::new(),
            reports: ReportScratch::default(),
        }
    }

    /// The counter schema every measurement of this subsystem is taken
    /// over (what the vendor monitoring daemon would expose).
    pub fn counter_schema(&self) -> &CounterSchema {
        self.counters.schema()
    }

    /// The host at `index` (0 = A, 1 = B).
    pub fn host(&self, index: usize) -> &HostConfig {
        if index == 0 {
            &self.host_a
        } else {
            &self.host_b
        }
    }

    /// Run one experiment: offer `workload` for the measurement window and
    /// observe throughput, pause behaviour, and counters.
    pub fn evaluate(&mut self, workload: &WorkloadSpec) -> Measurement {
        self.counters.reset();
        self.switch.reset();
        self.reports.0.clear();
        if !workload.is_valid() {
            return Measurement::empty(self.counters.snapshot());
        }

        // --- Stage 1 — bottleneck rules: stress counters and collect
        // triggered effects, per flow, into the report buffer. Every flow
        // gets one report per applicable rule, so flow `i`'s reports are
        // the buffer's `i`-th chunk (stage 2 relies on it). Per-counter
        // stress maxima accumulate in a plain array indexed by each
        // report's diagnostic slot; distinct counters receive independent
        // adds in stage 5, so the array order is value-identical to the
        // sorted map it replaced.
        let hosts = [&self.host_a, &self.host_b];
        let reports = &mut self.reports.0;
        let mut diag_stress = [0.0_f64; diag::ALL.len()];
        for (position, flow) in workload.flows.iter().enumerate() {
            let start = reports.len();
            let ctx = FlowContext {
                flow,
                workload,
                spec: &self.rnic,
                sender_host: hosts[flow.direction.sender_host()],
                receiver_host: hosts[flow.direction.receiver_host()],
            };
            evaluate_rules(&ctx, reports);
            debug_assert_eq!(reports.len(), (position + 1) * (reports.len() - start));
            for report in &reports[start..] {
                let stress = &mut diag_stress[report.counter.index()];
                *stress = stress.max(report.stress);
            }
        }

        // --- Stage 2 — per-direction fluid model, then the per-direction
        // rule effects. At most three directions carry flows; they fill
        // the first slots in this order.
        let mut outcome_slots = [DirectionOutcome::UNUSED; 3];
        let mut active = 0;
        for direction in [Direction::AToB, Direction::BToA, Direction::LoopbackA] {
            if workload
                .flows
                .iter()
                .any(|flow| flow.direction == direction)
            {
                outcome_slots[active] = self.direction_outcome(direction, workload);
                active += 1;
            }
        }
        let outcomes = &mut outcome_slots[..active];

        // --- Stage 3 — host-level PCIe sharing (full-duplex: payload reads
        // towards the NIC on the transmit side, payload writes from the NIC
        // on the receive side). The mean payload size is workload-invariant,
        // so it is computed once, outside the per-host loop.
        let mean_payload = mean_payload_bytes(workload);
        for host_idx in 0..2 {
            let host = self.host(host_idx);
            let capacity = host.pcie_link.effective_bandwidth(
                ByteSize::from_bytes(mean_payload as u64),
                &host.pcie_settings,
            );

            let tx_demand: f64 = outcomes
                .iter()
                .filter(|o| o.direction.sender_host() == host_idx)
                .map(|o| o.offered.bits_per_sec())
                .sum();
            let rx_demand: f64 = outcomes
                .iter()
                .filter(|o| o.direction.receiver_host() == host_idx)
                .map(|o| o.drain.bits_per_sec())
                .sum();

            if tx_demand > capacity.bits_per_sec() {
                let scale = capacity.bits_per_sec() / tx_demand;
                for o in outcomes
                    .iter_mut()
                    .filter(|o| o.direction.sender_host() == host_idx)
                {
                    o.offered = o.offered.scaled(scale);
                }
            }
            if rx_demand > capacity.bits_per_sec() {
                let scale = capacity.bits_per_sec() / rx_demand;
                let backpressure = 1.0 - scale;
                self.counters
                    .add_diag_at(diag::Slot::PCIE_BACKPRESSURE, backpressure * DIAG_SCALE);
                for o in outcomes
                    .iter_mut()
                    .filter(|o| o.direction.receiver_host() == host_idx)
                {
                    o.drain = o.drain.scaled(scale);
                }
            }
        }

        // --- Stage 4 — pause accounting and achieved throughput. Each
        // host combines its parts in direction order, as above.
        let mut pause_parts = [[PauseAccount::NONE; 3]; 2];
        let mut pause_len = [0; 2];
        let mut metrics = Vec::with_capacity(outcomes.len());
        for o in outcomes.iter() {
            let achieved = o.offered.min(o.drain);
            let receiver = o.direction.receiver_host();
            pause_parts[receiver][pause_len[receiver]] =
                PauseAccount::from_rates(o.offered, o.drain, PAUSE_GRACE);
            pause_len[receiver] += 1;
            let pps = if o.mean_packet_bytes > 0.0 {
                achieved.bytes_per_sec() / o.mean_packet_bytes
            } else {
                0.0
            };
            metrics.push(DirectionMetrics {
                direction: o.direction,
                offered: o.offered,
                throughput: achieved,
                packet_rate: PacketRate::from_pps(pps),
            });
        }
        let pause_ratio = [
            PauseAccount::combine(&pause_parts[0][..pause_len[0]]).pause_ratio,
            PauseAccount::combine(&pause_parts[1][..pause_len[1]]).pause_ratio,
        ];
        self.switch.record_pause(0, pause_ratio[0]);
        self.switch.record_pause(1, pause_ratio[1]);

        // --- Stage 5 — publish counters by slot: generic diagnostics, rule
        // stress, then the performance gauges (the order the adds
        // accumulate in is part of the bit-identity contract); a zero
        // stress maximum adds nothing, so unreported counters are skipped.
        self.publish_generic_diagnostics(workload, &metrics, pause_ratio);
        let counters = &mut self.counters;
        for slot in diag::Slot::all() {
            let stress = diag_stress[slot.index()];
            if stress > 0.0 {
                counters.add_diag_at(slot, stress * DIAG_SCALE);
            }
        }
        let total_bps: f64 = metrics.iter().map(|m| m.throughput.bits_per_sec()).sum();
        let total_pps: f64 = metrics.iter().map(|m| m.packet_rate.pps()).sum();
        counters.set_perf_at(perf::Slot::TX_BYTES_PER_SEC, total_bps / 8.0);
        counters.set_perf_at(perf::Slot::RX_BYTES_PER_SEC, total_bps / 8.0);
        counters.set_perf_at(perf::Slot::TX_PACKETS_PER_SEC, total_pps);
        counters.set_perf_at(perf::Slot::RX_PACKETS_PER_SEC, total_pps);

        Measurement {
            directions: metrics,
            pause_ratio,
            counters: self.counters.snapshot(),
            window: SimDuration::from_secs(1),
        }
    }

    /// Stage-2 unit: the offered rate and drain rate of one direction before
    /// host-level sharing is applied — the fluid performance model of its
    /// flows, then this direction's triggered rule effects from stage 1's
    /// report buffer.
    fn direction_outcome(&self, direction: Direction, workload: &WorkloadSpec) -> DirectionOutcome {
        let spec = &self.rnic;
        let sender_host = self.host(direction.sender_host());
        let receiver_host = self.host(direction.receiver_host());
        let flows = || {
            workload
                .flows
                .iter()
                .filter(move |flow| flow.direction == direction)
        };

        let total_qps: f64 = flows().map(|f| f.num_qps as f64).sum();
        let weight = |f: &FlowSpec| f.num_qps as f64 / total_qps.max(1.0);

        // Weighted traffic shape.
        let mean_msg: f64 = flows().map(|f| weight(f) * f.mean_message_bytes()).sum();
        let mean_pkts_per_msg: f64 = flows()
            .map(|f| weight(f) * f.mean_packets_per_message())
            .sum::<f64>()
            .max(1.0);
        let mean_packet_bytes = (mean_msg / mean_pkts_per_msg).max(1.0);

        // Packet-rate budget (shared between directions when bidirectional).
        let share = if workload.is_bidirectional() {
            spec.bidirectional_processing_share
        } else {
            1.0
        };
        let pkt_cap_bps = spec.max_packet_rate.pps() * share * mean_packet_bytes * 8.0;

        // Sender-side DMA: payload reads bounded by the PCIe link and the
        // source memory path. WQE/doorbell control traffic is tracked as a
        // diagnostic counter (`tx_wqe_fetch_stall`) rather than as a hard
        // rate cap: on real devices the descriptor fetches overlap payload
        // reads and the packet-rate budget is what actually limits small
        // unbatched messages.
        let mut sender_dma_bps = 0.0;
        for f in flows() {
            let path = sender_host.dma_path(f.src_memory);
            let chunk = f.mean_message_bytes().min(f.mtu as f64).max(1.0);
            let link = sender_host.pcie_link.effective_bandwidth(
                ByteSize::from_bytes(chunk as u64),
                &sender_host.pcie_settings,
            );
            sender_dma_bps += weight(f) * link.min(path.bandwidth_ceiling).bits_per_sec();
        }

        // Receiver-side drain: payload writes bounded by the destination
        // memory path and the receive-side packet handling budget.
        let mut receiver_dma_bps = 0.0;
        for f in flows() {
            let path = receiver_host.dma_path(f.dst_memory);
            let chunk = f.mean_message_bytes().min(f.mtu as f64).max(1.0);
            let link = receiver_host.pcie_link.effective_bandwidth(
                ByteSize::from_bytes(chunk as u64),
                &receiver_host.pcie_settings,
            );
            receiver_dma_bps += weight(f) * link.min(path.bandwidth_ceiling).bits_per_sec();
        }

        let line = spec.line_rate.bits_per_sec();
        let mut offered = line.min(pkt_cap_bps).min(sender_dma_bps);
        let mut drain = line.min(receiver_dma_bps);

        // Triggered rule effects, in report order (the order effects
        // multiply in is part of the bit-identity contract); flow `i`'s
        // reports are chunk `i` of the buffer.
        let reports = &self.reports.0;
        let per_flow = (reports.len() / workload.flows.len()).max(1);
        let flow_reports = workload.flows.iter().zip(reports.chunks_exact(per_flow));
        for (flow, flow_reports) in flow_reports {
            if flow.direction != direction {
                continue;
            }
            for report in flow_reports.iter().filter(|report| report.triggered()) {
                match report.effect {
                    Effect::SenderThrottle { factor } => {
                        offered *= factor;
                    }
                    Effect::ReceiverPause { severity } => {
                        drain *= 1.0 - severity;
                    }
                }
            }
        }

        DirectionOutcome {
            direction,
            offered: BitRate::from_bits_per_sec(offered),
            drain: BitRate::from_bits_per_sec(drain),
            mean_packet_bytes,
        }
    }

    /// Generic (mechanism-level) diagnostic counter contributions that exist
    /// independently of any specific anomaly rule, so that random probing of
    /// the space produces the counter variance the search's ranking step
    /// relies on.
    fn publish_generic_diagnostics(
        &mut self,
        workload: &WorkloadSpec,
        metrics: &[DirectionMetrics],
        pause_ratio: [f64; 2],
    ) {
        let spec = &self.rnic;
        let counters = &mut self.counters;

        // Connection-context pressure.
        let qpc = miss_rate(workload.total_qps() as f64, spec.qpc_cache_entries as f64);
        counters.add_diag_at(diag::Slot::QP_CONTEXT_CACHE_MISS, qpc * DIAG_SCALE * 0.5);

        // Translation-table pressure.
        let mtt = miss_rate(workload.total_mrs() as f64, spec.mtt_cache_entries as f64);
        counters.add_diag_at(diag::Slot::MTT_CACHE_MISS, mtt * DIAG_SCALE * 0.5);

        // Receive-descriptor pressure from two-sided flows.
        let recv_ws: f64 = workload
            .flows
            .iter()
            .filter(|f| f.consumes_recv_wqe())
            .map(|f| f.num_qps as f64 * f.recv_queue_depth as f64)
            .sum();
        let rwqe = miss_rate(recv_ws, spec.recv_wqe_cache_entries as f64);
        counters.add_diag_at(diag::Slot::RECV_WQE_CACHE_MISS, rwqe * DIAG_SCALE * 0.5);

        // Packet-processing utilisation.
        let total_pps: f64 = metrics.iter().map(|m| m.packet_rate.pps()).sum();
        let util = (total_pps / spec.max_packet_rate.pps().max(1.0)).clamp(0.0, 1.0);
        counters.add_diag_at(
            diag::Slot::PACKET_PROCESSING_SATURATION,
            util * DIAG_SCALE * 0.3,
        );

        // Transmit WQE fetch pressure: control bytes relative to payload.
        let wqe_fraction: f64 = workload
            .flows
            .iter()
            .map(|f| {
                f.wqe_bytes_per_message()
                    / (f.wqe_bytes_per_message() + f.mean_message_bytes().max(1.0))
            })
            .sum::<f64>()
            / workload.flows.len() as f64;
        counters.add_diag_at(
            diag::Slot::TX_WQE_FETCH_STALL,
            wqe_fraction * DIAG_SCALE * 0.3,
        );

        // Receive-buffer occupancy mirrors the pause pressure.
        let worst_pause = pause_ratio[0].max(pause_ratio[1]);
        counters.add_diag_at(diag::Slot::RX_BUFFER_OCCUPANCY, worst_pause * DIAG_SCALE);
    }
}

fn mean_payload_bytes(workload: &WorkloadSpec) -> f64 {
    let total_qps: f64 = workload.flows.iter().map(|f| f.num_qps as f64).sum();
    if total_qps <= 0.0 {
        return 1.0;
    }
    workload
        .flows
        .iter()
        .map(|f| f.num_qps as f64 / total_qps * f.mean_message_bytes().min(f.mtu as f64).max(1.0))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::RnicModel;
    use crate::workload::{MessagePattern, Opcode, Transport};
    use collie_host::memory::MemoryTarget;
    use collie_host::presets;

    fn subsystem_f() -> Subsystem {
        let mut host = presets::intel_xeon_gpu_host("F-host", ByteSize::from_gib(2048), true);
        host.cpu.chiplets_per_socket = 4;
        host.pcie_settings.relaxed_ordering = false;
        Subsystem::new("F", RnicModel::Cx6Dx200.spec(), host.clone(), host)
    }

    fn healthy_write_flow(direction: Direction) -> FlowSpec {
        let mut f = FlowSpec::basic(direction);
        f.num_qps = 8;
        f.messages = MessagePattern::uniform(64 * 1024);
        f
    }

    #[test]
    fn healthy_unidirectional_traffic_hits_line_rate() {
        let mut sys = subsystem_f();
        let w = WorkloadSpec::single(healthy_write_flow(Direction::AToB));
        let m = sys.evaluate(&w);
        let dir = m.direction(Direction::AToB).unwrap();
        assert!(
            dir.throughput.gbps() > 0.95 * 200.0,
            "expected ~line rate, got {}",
            dir.throughput
        );
        assert!(m.max_pause_ratio() < 0.001);
    }

    #[test]
    fn healthy_bidirectional_traffic_hits_line_rate_both_ways() {
        let mut sys = subsystem_f();
        let w = WorkloadSpec {
            flows: vec![
                healthy_write_flow(Direction::AToB),
                healthy_write_flow(Direction::BToA),
            ],
        };
        let m = sys.evaluate(&w);
        for d in [Direction::AToB, Direction::BToA] {
            let dir = m.direction(d).unwrap();
            assert!(
                dir.throughput.gbps() > 0.9 * 200.0,
                "{d}: {}",
                dir.throughput
            );
        }
        assert!(m.max_pause_ratio() < 0.001);
    }

    #[test]
    fn small_messages_are_packet_rate_bound_not_anomalous() {
        let mut sys = subsystem_f();
        let mut f = healthy_write_flow(Direction::AToB);
        f.messages = MessagePattern::uniform(64);
        f.wqe_batch = 32;
        let m = sys.evaluate(&WorkloadSpec::single(f));
        let dir = m.direction(Direction::AToB).unwrap();
        // Bits/s well below line rate, but packets/s at the spec cap.
        assert!(dir.throughput.gbps() < 150.0);
        assert!(dir.packet_rate.mpps() > 0.8 * sys.rnic.max_packet_rate.mpps());
        assert!(m.max_pause_ratio() < 0.001);
    }

    #[test]
    fn anomaly_1_workload_generates_pause_frames() {
        let mut sys = subsystem_f();
        let mut f = FlowSpec::basic(Direction::AToB);
        f.transport = Transport::Ud;
        f.opcode = Opcode::Send;
        f.wqe_batch = 64;
        f.recv_queue_depth = 256;
        f.send_queue_depth = 256;
        f.mtu = 2048;
        f.messages = MessagePattern::uniform(2048);
        let m = sys.evaluate(&WorkloadSpec::single(f));
        assert!(
            m.pause_ratio[1] > 0.1,
            "receiver should emit substantial pause, got {}",
            m.pause_ratio[1]
        );
        let snap = &m.counters;
        assert!(snap.value(diag::RECV_WQE_CACHE_MISS).unwrap() > 0.5 * DIAG_SCALE);
    }

    #[test]
    fn anomaly_2_workload_drops_throughput_without_pause() {
        let mut sys = subsystem_f();
        let mut f = FlowSpec::basic(Direction::AToB);
        f.transport = Transport::Ud;
        f.opcode = Opcode::Send;
        f.num_qps = 16;
        f.wqe_batch = 4;
        f.recv_queue_depth = 1024;
        f.send_queue_depth = 1024;
        f.mtu = 1024;
        f.messages = MessagePattern::uniform(1024);
        let m = sys.evaluate(&WorkloadSpec::single(f));
        let dir = m.direction(Direction::AToB).unwrap();
        assert!(m.max_pause_ratio() < 0.001, "no pause expected");
        assert!(
            dir.throughput.gbps() < 0.8 * 200.0,
            "throughput should drop, got {}",
            dir.throughput
        );
        assert!(dir.packet_rate.mpps() < 0.8 * sys.rnic.max_packet_rate.mpps());
    }

    #[test]
    fn cross_socket_bidirectional_traffic_pauses_on_chiplet_hosts() {
        let mut sys = subsystem_f();
        let mut fwd = healthy_write_flow(Direction::AToB);
        fwd.dst_memory = MemoryTarget::HostDram { numa_node: 1 };
        let mut rev = healthy_write_flow(Direction::BToA);
        rev.dst_memory = MemoryTarget::HostDram { numa_node: 1 };
        let m = sys.evaluate(&WorkloadSpec {
            flows: vec![fwd, rev],
        });
        assert!(m.max_pause_ratio() > 0.05);
    }

    #[test]
    fn loopback_plus_inbound_traffic_pauses() {
        let mut sys = subsystem_f();
        let w = WorkloadSpec {
            flows: vec![
                healthy_write_flow(Direction::LoopbackA),
                healthy_write_flow(Direction::BToA),
            ],
        };
        let m = sys.evaluate(&w);
        assert!(
            m.pause_ratio[0] > 0.01,
            "host A should pause: {:?}",
            m.pause_ratio
        );
        assert!(m.counters.value(diag::INTERNAL_INCAST).unwrap() > 0.0);
    }

    #[test]
    fn invalid_workload_yields_empty_measurement() {
        let mut sys = subsystem_f();
        let m = sys.evaluate(&WorkloadSpec::default());
        assert!(m.directions.is_empty());
        assert_eq!(m.max_pause_ratio(), 0.0);
        assert_eq!(m.total_throughput(), BitRate::ZERO);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let mut sys = subsystem_f();
        let w = WorkloadSpec::single(healthy_write_flow(Direction::AToB));
        let a = sys.evaluate(&w);
        let b = sys.evaluate(&w);
        assert_eq!(a.directions, b.directions);
        assert_eq!(a.pause_ratio, b.pause_ratio);
        assert_eq!(a.counters, b.counters);
    }

    #[test]
    fn counters_reset_between_experiments() {
        let mut sys = subsystem_f();
        let mut anomalous = FlowSpec::basic(Direction::AToB);
        anomalous.transport = Transport::Ud;
        anomalous.opcode = Opcode::Send;
        anomalous.wqe_batch = 64;
        anomalous.recv_queue_depth = 256;
        sys.evaluate(&WorkloadSpec::single(anomalous));
        let healthy = sys.evaluate(&WorkloadSpec::single(healthy_write_flow(Direction::AToB)));
        assert!(healthy.counters.value(diag::RECV_WQE_CACHE_MISS).unwrap() < 0.3 * DIAG_SCALE);
        assert!(healthy.max_pause_ratio() < 0.001);
    }

    #[test]
    fn report_scratch_never_leaks_into_the_next_measurement() {
        // Bidirectional cross-socket traffic (#11) plus loopback beside
        // inbound traffic (#13): every direction carries a triggered rule.
        let mut sys = subsystem_f();
        let mut fwd = healthy_write_flow(Direction::AToB);
        fwd.dst_memory = MemoryTarget::HostDram { numa_node: 1 };
        let mut rev = healthy_write_flow(Direction::BToA);
        rev.dst_memory = MemoryTarget::HostDram { numa_node: 1 };
        let three = WorkloadSpec {
            flows: vec![fwd, rev, healthy_write_flow(Direction::LoopbackA)],
        };
        sys.evaluate(&three);
        let per_flow = sys.reports.0.len() / three.flows.len();
        for (flow, reports) in three.flows.iter().zip(sys.reports.0.chunks_exact(per_flow)) {
            assert!(
                reports.iter().any(StressReport::triggered),
                "{}: no triggered rule",
                flow.direction
            );
        }

        let one = WorkloadSpec::single(healthy_write_flow(Direction::AToB));
        assert_eq!(sys.evaluate(&one), subsystem_f().evaluate(&one));
    }

    #[test]
    fn gpu_traffic_through_root_complex_pauses() {
        let mut sys = subsystem_f();
        let mut f = healthy_write_flow(Direction::AToB);
        // GPU 2 sits on the remote socket: its peer-to-peer path detours.
        f.dst_memory = MemoryTarget::GpuMemory { gpu_id: 2 };
        let m = sys.evaluate(&WorkloadSpec::single(f));
        assert!(m.pause_ratio[1] > 0.01);

        // GPU 0 shares the RNIC's switch: no pause.
        let mut good = healthy_write_flow(Direction::AToB);
        good.dst_memory = MemoryTarget::GpuMemory { gpu_id: 0 };
        let m = sys.evaluate(&WorkloadSpec::single(good));
        assert!(m.max_pause_ratio() < 0.001, "{:?}", m.pause_ratio);
    }
}
