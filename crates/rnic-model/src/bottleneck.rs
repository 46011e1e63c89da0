//! Bottleneck stress rules.
//!
//! Appendix A of the paper groups the eighteen anomalies into six root-cause
//! families (receive-WQE cache misses, ICM/context cache misses, PCIe
//! ordering, packet-processing limits, host-topology latency, in-NIC
//! incast). The real mechanisms live inside black-box hardware; what the
//! paper documents — and what a reproduction must preserve — is the
//! *trigger surface*: which combinations of workload features push the
//! subsystem over the edge, which diagnostic counter rises on the way
//! there, and what the end-to-end symptom is.
//!
//! Each rule in [`evaluate_rules`] encodes one such surface as a set of graded
//! condition factors. A factor is ~0 when the feature is far from its
//! trigger threshold and reaches 1.0 at the threshold; the rule's *stress*
//! is the weakest factor (every necessary condition must hold). Stress below
//! 1.0 still feeds the mapped diagnostic counter proportionally — that
//! gradient is exactly what lets Collie's simulated annealing walk towards
//! anomalies — while stress at or above 1.0 additionally applies the rule's
//! end-to-end effect (pause frames at the receiver, or a sender throughput
//! collapse with no pause frames).
//!
//! The thresholds follow the necessary-condition columns of Table 2; the
//! severities follow the pause-duration ratios and throughput drops quoted
//! in Appendix A. They are calibration constants of the simulator, not
//! vendor data.

use crate::counters::diag;
use crate::spec::{RnicSpec, RnicVendor};
use crate::workload::{Direction, FlowSpec, Opcode, Transport, WorkloadSpec};
use collie_host::topology::HostConfig;
use serde::{Deserialize, Serialize};

/// Everything a rule may inspect when scoring one flow.
#[derive(Debug, Clone, Copy)]
pub struct FlowContext<'a> {
    /// The flow being scored.
    pub flow: &'a FlowSpec,
    /// The complete workload the flow belongs to (for bidirectional and
    /// co-existence conditions).
    pub workload: &'a WorkloadSpec,
    /// The RNIC model of both hosts.
    pub spec: &'a RnicSpec,
    /// The host transmitting this flow's payload.
    pub sender_host: &'a HostConfig,
    /// The host receiving this flow's payload.
    pub receiver_host: &'a HostConfig,
}

/// The end-to-end consequence of a triggered rule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Effect {
    /// The receiver cannot drain the flow; PFC pause frames with roughly
    /// this pause-duration ratio are emitted by the receiving host and the
    /// flow's throughput drops accordingly.
    ReceiverPause {
        /// Approximate pause-duration ratio when fully triggered.
        severity: f64,
    },
    /// The sender's achievable rate is multiplied by this factor; no pause
    /// frames are generated (the "low throughput" symptom of Table 2).
    SenderThrottle {
        /// Multiplier in (0, 1) applied to the sender's achievable rate.
        factor: f64,
    },
}

/// The outcome of evaluating one rule against one flow.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StressReport {
    /// Stable rule identifier; rule `collie/<n>` reproduces paper anomaly
    /// `#<n>`.
    pub rule: &'static str,
    /// The diagnostic counter this rule's stress feeds, by slot.
    pub counter: diag::Slot,
    /// The weakest condition factor, clamped to [0, 1.2].
    pub stress: f64,
    /// What happens when the rule is fully triggered.
    pub effect: Effect,
}

impl StressReport {
    /// True if every necessary condition holds.
    pub fn triggered(&self) -> bool {
        self.stress >= 1.0
    }
}

/// Graded "value ≥ threshold" factor: 0 far below, 1.0 at the threshold,
/// capped slightly above so one over-satisfied condition cannot compensate
/// for another.
fn at_least(value: f64, threshold: f64) -> f64 {
    if threshold <= 0.0 {
        return 1.2;
    }
    (value / threshold).clamp(0.0, 1.2)
}

/// Graded "value ≤ threshold" factor.
fn at_most(value: f64, threshold: f64) -> f64 {
    if value <= 0.0 {
        return 1.2;
    }
    (threshold / value).clamp(0.0, 1.2)
}

/// Hard boolean condition. A false gate contributes a small non-zero value
/// so that a workload "one discrete flip away" from the trigger still
/// registers faint counter activity, but can never reach the trigger.
fn gate(condition: bool) -> f64 {
    if condition {
        1.2
    } else {
        0.1
    }
}

/// Stress = the weakest condition factor.
fn stress_of(factors: &[f64]) -> f64 {
    factors
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min)
        .clamp(0.0, 1.2)
}

/// Total QPs across the workload on flows matching a transport/opcode pair.
fn matching_qps(workload: &WorkloadSpec, transport: Transport, opcode: Opcode) -> f64 {
    workload
        .flows
        .iter()
        .filter(|f| f.transport == transport && f.opcode == opcode)
        .map(|f| f.num_qps as f64)
        .sum()
}

/// True if flows with this transport/opcode run in both directions.
fn bidirectional_for(workload: &WorkloadSpec, transport: Transport, opcode: Opcode) -> bool {
    let dir = |d: Direction| {
        workload
            .flows
            .iter()
            .any(|f| f.transport == transport && f.opcode == opcode && f.direction == d)
    };
    dir(Direction::AToB) && dir(Direction::BToA)
}

/// The most reports [`evaluate_rules`] appends for one flow: rules #1–#13
/// on a ConnectX-6. A caller can size its report buffer once with it.
pub const MAX_REPORTS_PER_FLOW: usize = 13;

/// Evaluate every applicable rule against one flow, appending one report
/// per rule to `out` in rule order. Which rules apply depends only on
/// `ctx.spec`, so every flow of a subsystem gets the same number of
/// reports, at most [`MAX_REPORTS_PER_FLOW`].
pub fn evaluate_rules(ctx: &FlowContext<'_>, out: &mut Vec<StressReport>) {
    match ctx.spec.model.vendor() {
        RnicVendor::Mellanox => {
            if ctx.spec.model.is_cx6() {
                mellanox_cx6_rules(ctx, out);
            }
            host_topology_rules(ctx, out);
        }
        RnicVendor::Broadcom => {
            broadcom_rules(ctx, out);
            host_topology_rules(ctx, out);
        }
    }
}

/// Rules #1–#10: the ConnectX-6 anomalies of Appendix A.1 that depend only
/// on the workload (not the host platform).
fn mellanox_cx6_rules(ctx: &FlowContext<'_>, out: &mut Vec<StressReport>) {
    let f = ctx.flow;
    let w = ctx.workload;
    let msg = f.mean_message_bytes();

    // Anomaly #1: UD SEND, large WQE batch, long work queue -> pause storm.
    out.push(StressReport {
        rule: "collie/1",
        counter: diag::Slot::RECV_WQE_CACHE_MISS,
        stress: stress_of(&[
            gate(f.transport == Transport::Ud && f.opcode == Opcode::Send),
            at_least(f.wqe_batch as f64, 64.0),
            at_least(f.recv_queue_depth as f64, 256.0),
        ]),
        effect: Effect::ReceiverPause { severity: 0.20 },
    });

    // Anomaly #2: UD SEND, small batch, very long WQ, small messages, a few
    // connections -> throughput drop without pause frames.
    out.push(StressReport {
        rule: "collie/2",
        counter: diag::Slot::RECV_WQE_CACHE_MISS,
        stress: stress_of(&[
            gate(f.transport == Transport::Ud && f.opcode == Opcode::Send),
            at_most(f.wqe_batch as f64, 8.0),
            at_least(f.recv_queue_depth as f64, 1024.0),
            at_most(msg, 1024.0),
            at_least(f.num_qps as f64, 16.0),
        ]),
        effect: Effect::SenderThrottle { factor: 0.72 },
    });

    // Anomaly #3: RC READ with large messages at a small MTU -> pause.
    out.push(StressReport {
        rule: "collie/3",
        counter: diag::Slot::PACKET_PROCESSING_SATURATION,
        stress: stress_of(&[
            gate(f.transport == Transport::Rc && f.opcode == Opcode::Read),
            at_most(f.mtu as f64, 1024.0),
            at_least(f.messages.max_size() as f64, 16.0 * 1024.0),
        ]),
        effect: Effect::ReceiverPause { severity: 0.10 },
    });

    // Anomaly #4: bidirectional RC READ, large WQE batch, long SG list, a
    // few hundred connections -> pause even at MTU 4096.
    out.push(StressReport {
        rule: "collie/4",
        counter: diag::Slot::RECV_WQE_CACHE_MISS,
        stress: stress_of(&[
            gate(f.transport == Transport::Rc && f.opcode == Opcode::Read),
            gate(bidirectional_for(w, Transport::Rc, Opcode::Read)),
            at_least(f.wqe_batch as f64, 32.0),
            at_least(f.sge_per_wqe as f64, 4.0),
            at_least(matching_qps(w, Transport::Rc, Opcode::Read), 160.0),
        ]),
        effect: Effect::ReceiverPause { severity: 0.30 },
    });

    // Anomaly #5: RC SEND, small MTU, large batch, long WQ, medium
    // messages -> pause.
    out.push(StressReport {
        rule: "collie/5",
        counter: diag::Slot::RECV_WQE_CACHE_MISS,
        stress: stress_of(&[
            gate(f.transport == Transport::Rc && f.opcode == Opcode::Send),
            at_most(f.mtu as f64, 1024.0),
            at_least(f.wqe_batch as f64, 64.0),
            at_least(f.recv_queue_depth as f64, 1024.0),
            at_least(msg, 2048.0),
            at_most(msg, 8192.0),
        ]),
        effect: Effect::ReceiverPause { severity: 0.15 },
    });

    // Anomaly #6: RC SEND, small MTU, small batch, SG list >= 2, long WQ,
    // small messages, a few connections -> throughput drop, no pause.
    out.push(StressReport {
        rule: "collie/6",
        counter: diag::Slot::RECV_WQE_CACHE_MISS,
        stress: stress_of(&[
            gate(f.transport == Transport::Rc && f.opcode == Opcode::Send),
            at_most(f.mtu as f64, 1024.0),
            at_most(f.wqe_batch as f64, 16.0),
            at_least(f.sge_per_wqe as f64, 2.0),
            at_least(f.recv_queue_depth as f64, 1024.0),
            at_most(msg, 1024.0),
            at_least(f.num_qps as f64, 32.0),
        ]),
        effect: Effect::SenderThrottle { factor: 0.70 },
    });

    // Anomaly #7: RC WRITE, no batching, small messages, shallow WQ, many
    // hundreds of QPs -> QP-context thrash, throughput drop.
    out.push(StressReport {
        rule: "collie/7",
        counter: diag::Slot::QP_CONTEXT_CACHE_MISS,
        stress: stress_of(&[
            gate(f.transport == Transport::Rc && f.opcode == Opcode::Write),
            at_most(f.wqe_batch as f64, 2.0),
            at_most(msg, 1024.0),
            at_most(f.send_queue_depth as f64, 16.0),
            at_least(f.num_qps as f64, 480.0),
        ]),
        effect: Effect::SenderThrottle { factor: 0.75 },
    });

    // Anomaly #8: RC WRITE, no batching, small messages, very many MRs ->
    // translation-cache thrash, throughput drop.
    out.push(StressReport {
        rule: "collie/8",
        counter: diag::Slot::MTT_CACHE_MISS,
        stress: stress_of(&[
            gate(f.transport == Transport::Rc && f.opcode == Opcode::Write),
            at_most(f.wqe_batch as f64, 2.0),
            at_most(msg, 1024.0),
            at_least(f.total_mrs() as f64, 12_000.0),
        ]),
        effect: Effect::SenderThrottle { factor: 0.75 },
    });

    // Anomaly #9: bidirectional traffic, SG lists mixing small and large
    // elements, on a host whose RNIC is not a relaxed-ordering PCIe device.
    out.push(StressReport {
        rule: "collie/9",
        counter: diag::Slot::PCIE_ORDERING_STALL,
        stress: stress_of(&[
            gate(w.is_bidirectional()),
            gate(!ctx.receiver_host.pcie_settings.relaxed_ordering),
            at_least(f.sge_per_wqe as f64, 3.0),
            gate(f.messages.mixes_small_and_large(1024, 64 * 1024)),
        ]),
        effect: Effect::ReceiverPause { severity: 0.25 },
    });

    // Anomaly #10: bidirectional RC WRITE, large batches, a mixture of many
    // short and some long messages, a few hundred QPs -> the shared packet
    // processing component saturates and pause frames follow.
    out.push(StressReport {
        rule: "collie/10",
        counter: diag::Slot::PACKET_PROCESSING_SATURATION,
        stress: stress_of(&[
            gate(f.transport == Transport::Rc && f.opcode == Opcode::Write),
            gate(bidirectional_for(w, Transport::Rc, Opcode::Write)),
            gate(!ctx.spec.firmware_bidir_fix),
            at_least(f.wqe_batch as f64, 64.0),
            gate(f.messages.mixes_small_and_large(1024, 64 * 1024)),
            at_least(matching_qps(w, Transport::Rc, Opcode::Write), 320.0),
        ]),
        effect: Effect::ReceiverPause { severity: 0.20 },
    });
}

/// Rules #11–#13: anomalies rooted in the host platform rather than the NIC
/// silicon (cross-socket forwarding, ACS misrouting, loopback incast). They
/// apply to any RNIC model because the limiting component is the host.
fn host_topology_rules(ctx: &FlowContext<'_>, out: &mut Vec<StressReport>) {
    let f = ctx.flow;
    let w = ctx.workload;

    let src_path = ctx.sender_host.dma_path(f.src_memory);
    let dst_path = ctx.receiver_host.dma_path(f.dst_memory);

    // Anomaly #11: bidirectional cross-socket traffic on chiplet-based
    // servers whose I/O die forwards inbound PCIe writes poorly.
    out.push(StressReport {
        rule: "collie/11",
        counter: diag::Slot::PCIE_BACKPRESSURE,
        stress: stress_of(&[
            gate(w.is_bidirectional()),
            gate(ctx.receiver_host.cpu.chiplets_per_socket > 1),
            gate(src_path.crosses_socket || dst_path.crosses_socket),
        ]),
        effect: Effect::ReceiverPause { severity: 0.157 },
    });

    // Anomaly #12: GPU-Direct traffic whose peer-to-peer path is detoured
    // through the root complex (ACS misconfiguration or an unfortunate GPU
    // placement).
    out.push(StressReport {
        rule: "collie/12",
        counter: diag::Slot::PCIE_BACKPRESSURE,
        stress: stress_of(&[
            gate(f.src_memory.is_gpu() || f.dst_memory.is_gpu()),
            gate(
                (f.src_memory.is_gpu() && src_path.via_root_complex)
                    || (f.dst_memory.is_gpu() && dst_path.via_root_complex),
            ),
        ]),
        effect: Effect::ReceiverPause { severity: 0.15 },
    });

    // Anomaly #13: loopback traffic co-existing with receive traffic on the
    // same host, on an RNIC without a loopback rate limiter.
    let receiver = f.direction.receiver_host();
    let remote_rx = w
        .flows
        .iter()
        .any(|other| !other.direction.is_loopback() && other.direction.receiver_host() == receiver);
    out.push(StressReport {
        rule: "collie/13",
        counter: diag::Slot::INTERNAL_INCAST,
        stress: stress_of(&[
            gate(f.direction.is_loopback()),
            gate(remote_rx),
            gate(!ctx.spec.loopback_rate_limited),
        ]),
        effect: Effect::ReceiverPause { severity: 0.18 },
    });
}

/// Rules #14–#18: the Broadcom P2100G anomalies of Appendix A.2.
fn broadcom_rules(ctx: &FlowContext<'_>, out: &mut Vec<StressReport>) {
    let f = ctx.flow;
    let w = ctx.workload;
    let msg = f.mean_message_bytes();
    let rc_qps: f64 = w
        .flows
        .iter()
        .filter(|x| x.transport == Transport::Rc)
        .map(|x| x.num_qps as f64)
        .sum();

    // Anomaly #14: bidirectional RC with very many connections and a large
    // MTU -> throughput drop without pause frames.
    out.push(StressReport {
        rule: "collie/14",
        counter: diag::Slot::QP_CONTEXT_CACHE_MISS,
        stress: stress_of(&[
            gate(f.transport == Transport::Rc),
            gate(w.is_bidirectional()),
            at_least(f.mtu as f64, 4096.0),
            at_least(f.sge_per_wqe as f64, 4.0),
            at_least(rc_qps, 1300.0),
        ]),
        effect: Effect::SenderThrottle { factor: 0.70 },
    });

    // Anomaly #15: UD SEND with a long WQ and tens of connections -> pause.
    out.push(StressReport {
        rule: "collie/15",
        counter: diag::Slot::RECV_WQE_CACHE_MISS,
        stress: stress_of(&[
            gate(f.transport == Transport::Ud && f.opcode == Opcode::Send),
            at_least(f.recv_queue_depth as f64, 64.0),
            at_least(f.num_qps as f64, 32.0),
        ]),
        effect: Effect::ReceiverPause { severity: 0.15 },
    });

    // Anomaly #16: RC READ, many connections, batched WQEs, small MTU ->
    // pause.
    out.push(StressReport {
        rule: "collie/16",
        counter: diag::Slot::PACKET_PROCESSING_SATURATION,
        stress: stress_of(&[
            gate(f.transport == Transport::Rc && f.opcode == Opcode::Read),
            at_most(f.mtu as f64, 1024.0),
            at_least(f.wqe_batch as f64, 8.0),
            at_least(f.num_qps as f64, 500.0),
        ]),
        effect: Effect::ReceiverPause { severity: 0.15 },
    });

    // Anomaly #17: RC SEND, small batch, long WQ, short messages, tens of
    // connections -> pause (fixed by the vendor register setting).
    out.push(StressReport {
        rule: "collie/17",
        counter: diag::Slot::RECV_WQE_CACHE_MISS,
        stress: stress_of(&[
            gate(f.transport == Transport::Rc && f.opcode == Opcode::Send),
            gate(!ctx.spec.vendor_register_fix),
            at_most(f.wqe_batch as f64, 16.0),
            at_least(f.recv_queue_depth as f64, 128.0),
            at_most(msg, 1024.0),
            at_least(f.num_qps as f64, 64.0),
        ]),
        effect: Effect::ReceiverPause { severity: 0.12 },
    });

    // Anomaly #18: bidirectional RC WRITE, large batch, small MTU, modest
    // message sizes, a few dozen connections -> pause (fixed by the vendor
    // register setting).
    out.push(StressReport {
        rule: "collie/18",
        counter: diag::Slot::PACKET_PROCESSING_SATURATION,
        stress: stress_of(&[
            gate(f.transport == Transport::Rc && f.opcode == Opcode::Write),
            gate(bidirectional_for(w, Transport::Rc, Opcode::Write)),
            gate(!ctx.spec.vendor_register_fix),
            at_most(f.mtu as f64, 1024.0),
            at_least(f.wqe_batch as f64, 16.0),
            at_most(f.messages.max_size() as f64, 64.0 * 1024.0),
            at_least(matching_qps(w, Transport::Rc, Opcode::Write), 30.0),
        ]),
        effect: Effect::ReceiverPause { severity: 0.15 },
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::RnicModel;
    use crate::workload::MessagePattern;
    use collie_host::presets;
    use collie_sim::units::ByteSize;

    fn cx6_ctx_parts() -> (RnicSpec, HostConfig, HostConfig) {
        let spec = RnicModel::Cx6Dx200.spec();
        let host = presets::intel_xeon_gpu_host("f", ByteSize::from_gib(2048), true);
        (spec, host.clone(), host)
    }

    fn reports_for(
        flow: &FlowSpec,
        workload: &WorkloadSpec,
        spec: &RnicSpec,
        a: &HostConfig,
        b: &HostConfig,
    ) -> Vec<StressReport> {
        let (sender, receiver) = if flow.direction.sender_host() == 0 {
            (a, b)
        } else {
            (b, a)
        };
        let (sender, receiver) = if flow.direction.is_loopback() {
            (a, a)
        } else {
            (sender, receiver)
        };
        rules_of(&FlowContext {
            flow,
            workload,
            spec,
            sender_host: sender,
            receiver_host: receiver,
        })
    }

    fn rules_of(ctx: &FlowContext<'_>) -> Vec<StressReport> {
        let mut reports = Vec::new();
        evaluate_rules(ctx, &mut reports);
        reports
    }

    fn triggered_rules(reports: &[StressReport]) -> Vec<&'static str> {
        reports
            .iter()
            .filter(|r| r.triggered())
            .map(|r| r.rule)
            .collect()
    }

    #[test]
    fn anomaly_1_triggers_on_its_concrete_setting() {
        let (spec, a, b) = cx6_ctx_parts();
        let mut flow = FlowSpec::basic(Direction::AToB);
        flow.transport = Transport::Ud;
        flow.opcode = Opcode::Send;
        flow.wqe_batch = 64;
        flow.recv_queue_depth = 256;
        flow.send_queue_depth = 256;
        flow.mtu = 2048;
        flow.messages = MessagePattern::uniform(2048);
        let w = WorkloadSpec::single(flow.clone());
        let reports = reports_for(&flow, &w, &spec, &a, &b);
        assert!(triggered_rules(&reports).contains(&"collie/1"));
        // Breaking the batch-size condition un-triggers it.
        flow.wqe_batch = 8;
        let w2 = WorkloadSpec::single(flow.clone());
        let reports2 = reports_for(&flow, &w2, &spec, &a, &b);
        assert!(!triggered_rules(&reports2).contains(&"collie/1"));
    }

    #[test]
    fn anomaly_1_does_not_trigger_for_rc() {
        let (spec, a, b) = cx6_ctx_parts();
        let mut flow = FlowSpec::basic(Direction::AToB);
        flow.transport = Transport::Rc;
        flow.opcode = Opcode::Send;
        flow.wqe_batch = 64;
        flow.recv_queue_depth = 256;
        let w = WorkloadSpec::single(flow.clone());
        let reports = reports_for(&flow, &w, &spec, &a, &b);
        assert!(!triggered_rules(&reports).contains(&"collie/1"));
    }

    #[test]
    fn stress_rises_towards_the_trigger() {
        let (spec, a, b) = cx6_ctx_parts();
        let mut flow = FlowSpec::basic(Direction::AToB);
        flow.transport = Transport::Ud;
        flow.opcode = Opcode::Send;
        flow.recv_queue_depth = 256;
        let mut last = -1.0;
        for batch in [4u32, 16, 32, 48, 64] {
            flow.wqe_batch = batch;
            let w = WorkloadSpec::single(flow.clone());
            let reports = reports_for(&flow, &w, &spec, &a, &b);
            let r1 = reports.iter().find(|r| r.rule == "collie/1").unwrap();
            assert!(
                r1.stress >= last,
                "stress should not decrease as batch grows"
            );
            last = r1.stress;
        }
        assert!(last >= 1.0);
    }

    #[test]
    fn anomaly_4_requires_bidirectional_read() {
        let (spec, a, b) = cx6_ctx_parts();
        let mut flow = FlowSpec::basic(Direction::AToB);
        flow.transport = Transport::Rc;
        flow.opcode = Opcode::Read;
        flow.wqe_batch = 128;
        flow.sge_per_wqe = 4;
        flow.num_qps = 80;
        flow.messages = MessagePattern::uniform(128);
        let mut reverse = flow.clone();
        reverse.direction = Direction::BToA;

        let unidirectional = WorkloadSpec::single(flow.clone());
        let reports = reports_for(&flow, &unidirectional, &spec, &a, &b);
        assert!(!triggered_rules(&reports).contains(&"collie/4"));

        let bidirectional = WorkloadSpec {
            flows: vec![flow.clone(), reverse],
        };
        let reports = reports_for(&flow, &bidirectional, &spec, &a, &b);
        assert!(triggered_rules(&reports).contains(&"collie/4"));
    }

    #[test]
    fn anomaly_9_requires_strict_ordering_host() {
        let (spec, mut a, mut b) = cx6_ctx_parts();
        let mut flow = FlowSpec::basic(Direction::AToB);
        flow.sge_per_wqe = 3;
        flow.messages = MessagePattern::new(vec![128, 64 * 1024, 1024]);
        let mut reverse = flow.clone();
        reverse.direction = Direction::BToA;
        let w = WorkloadSpec {
            flows: vec![flow.clone(), reverse],
        };

        // Relaxed ordering (the fix): no trigger.
        a.pcie_settings.relaxed_ordering = true;
        b.pcie_settings.relaxed_ordering = true;
        let reports = reports_for(&flow, &w, &spec, &a, &b);
        assert!(!triggered_rules(&reports).contains(&"collie/9"));

        // Strict ordering: triggers.
        a.pcie_settings.relaxed_ordering = false;
        b.pcie_settings.relaxed_ordering = false;
        let reports = reports_for(&flow, &w, &spec, &a, &b);
        assert!(triggered_rules(&reports).contains(&"collie/9"));
    }

    #[test]
    fn anomaly_13_needs_loopback_plus_remote_receive() {
        let (spec, a, b) = cx6_ctx_parts();
        let loopback = FlowSpec::basic(Direction::LoopbackA);
        let inbound = FlowSpec::basic(Direction::BToA);

        let both = WorkloadSpec {
            flows: vec![loopback.clone(), inbound.clone()],
        };
        let reports = reports_for(&loopback, &both, &spec, &a, &b);
        assert!(triggered_rules(&reports).contains(&"collie/13"));

        let lonely = WorkloadSpec::single(loopback.clone());
        let reports = reports_for(&loopback, &lonely, &spec, &a, &b);
        assert!(!triggered_rules(&reports).contains(&"collie/13"));
    }

    #[test]
    fn broadcom_rules_only_fire_on_broadcom() {
        let spec_bc = RnicModel::P2100G.spec();
        let spec_mlx = RnicModel::Cx6Dx200.spec();
        let host = presets::intel_xeon_host("h", 2, ByteSize::from_gib(384), false);
        let mut flow = FlowSpec::basic(Direction::AToB);
        flow.transport = Transport::Ud;
        flow.opcode = Opcode::Send;
        flow.num_qps = 32;
        flow.recv_queue_depth = 64;
        let w = WorkloadSpec::single(flow.clone());

        let ctx_bc = FlowContext {
            flow: &flow,
            workload: &w,
            spec: &spec_bc,
            sender_host: &host,
            receiver_host: &host,
        };
        let ctx_mlx = FlowContext {
            flow: &flow,
            workload: &w,
            spec: &spec_mlx,
            sender_host: &host,
            receiver_host: &host,
        };
        let bc_rules = triggered_rules(&rules_of(&ctx_bc));
        assert!(bc_rules.contains(&"collie/15"));
        let mlx_rules: Vec<_> = rules_of(&ctx_mlx).iter().map(|r| r.rule).collect();
        assert!(!mlx_rules.contains(&"collie/15"));
    }

    #[test]
    fn vendor_register_fix_suppresses_17_and_18() {
        let mut spec = RnicModel::P2100G.spec();
        let host = presets::intel_xeon_host("h", 2, ByteSize::from_gib(384), false);
        let mut flow = FlowSpec::basic(Direction::AToB);
        flow.transport = Transport::Rc;
        flow.opcode = Opcode::Send;
        flow.wqe_batch = 1;
        flow.recv_queue_depth = 128;
        flow.num_qps = 80;
        flow.messages = MessagePattern::uniform(1024);
        let w = WorkloadSpec::single(flow.clone());

        let triggered_before = {
            let ctx = FlowContext {
                flow: &flow,
                workload: &w,
                spec: &spec,
                sender_host: &host,
                receiver_host: &host,
            };
            triggered_rules(&rules_of(&ctx)).contains(&"collie/17")
        };
        assert!(triggered_before);

        spec.vendor_register_fix = true;
        let ctx = FlowContext {
            flow: &flow,
            workload: &w,
            spec: &spec,
            sender_host: &host,
            receiver_host: &host,
        };
        assert!(!triggered_rules(&rules_of(&ctx)).contains(&"collie/17"));
    }

    #[test]
    fn firmware_upgrade_suppresses_anomaly_10() {
        let (mut spec, a, b) = cx6_ctx_parts();
        let mut flow = FlowSpec::basic(Direction::AToB);
        flow.transport = Transport::Rc;
        flow.opcode = Opcode::Write;
        flow.wqe_batch = 64;
        flow.num_qps = 320;
        flow.messages = MessagePattern::new(vec![64 * 1024, 128, 128, 128]);
        let mut reverse = flow.clone();
        reverse.direction = Direction::BToA;
        let w = WorkloadSpec {
            flows: vec![flow.clone(), reverse],
        };

        let before = reports_for(&flow, &w, &spec, &a, &b);
        assert!(triggered_rules(&before).contains(&"collie/10"));

        spec.firmware_bidir_fix = true;
        let after = reports_for(&flow, &w, &spec, &a, &b);
        assert!(!triggered_rules(&after).contains(&"collie/10"));
    }

    #[test]
    fn max_reports_per_flow_bounds_every_subsystem() {
        let flow = FlowSpec::basic(Direction::AToB);
        let w = WorkloadSpec::single(flow.clone());
        let counts: Vec<usize> = crate::subsystems::SubsystemId::ALL
            .iter()
            .map(|id| {
                let sys = id.build();
                reports_for(&flow, &w, &sys.rnic, &sys.host_a, &sys.host_b).len()
            })
            .collect();
        assert_eq!(
            counts.iter().max(),
            Some(&MAX_REPORTS_PER_FLOW),
            "{counts:?}"
        );
    }

    #[test]
    fn reports_serialize_their_counter_by_name() {
        let (spec, a, b) = cx6_ctx_parts();
        let flow = FlowSpec::basic(Direction::AToB);
        let w = WorkloadSpec::single(flow.clone());
        for report in reports_for(&flow, &w, &spec, &a, &b) {
            let value = report.to_value();
            assert_eq!(
                value.get("counter").and_then(serde::Value::as_str),
                Some(report.counter.name())
            );
            assert_eq!(StressReport::from_value(&value), Ok(report));
        }
    }

    #[test]
    fn every_report_has_sane_fields() {
        let (spec, a, b) = cx6_ctx_parts();
        let flow = FlowSpec::basic(Direction::AToB);
        let w = WorkloadSpec::single(flow.clone());
        for r in reports_for(&flow, &w, &spec, &a, &b) {
            assert!((0.0..=1.2).contains(&r.stress), "{}: {}", r.rule, r.stress);
            assert!(diag::ALL.contains(&r.counter.name()));
            match r.effect {
                Effect::ReceiverPause { severity } => assert!((0.0..=1.0).contains(&severity)),
                Effect::SenderThrottle { factor } => assert!((0.0..1.0).contains(&factor)),
            }
        }
    }
}
