//! The workload engine.
//!
//! The paper's workload engine (§4, "Workload engine") takes the settings
//! of a search point, registers the memory regions, creates and connects
//! the queue pairs, and generates traffic with the requested batching and
//! message pattern. Ours does the same against the simulated subsystem,
//! with two equivalent paths:
//!
//! * [`WorkloadEngine::measure`] — the fast path used by the search: the
//!   point is translated directly into the flow-level workload and handed
//!   to the subsystem model. This is what lets a campaign evaluate
//!   thousands of points in a benchmark run.
//! * [`WorkloadEngine::run_via_verbs`] — the faithful path used by examples
//!   and validation tests: every QP, MR, and work request is actually
//!   created through the verbs API and the fabric derives the same
//!   flow-level workload from the posted traffic.
//!
//! The engine also models experiment *cost*: on hardware one iteration
//! takes 20–60 s depending mostly on how many QPs and MRs must be set up
//! (§5). Search campaigns charge that cost per experiment so that the
//! "running time" axes of Figures 4–6 are reproduced in simulated hours.
//!
//! [`Engine`] is what the memoizing [`Evaluator`](crate::eval::Evaluator)
//! needs from any experiment engine; [`WorkloadEngine`] and the fabric
//! [`FabricEngine`](crate::fabric::FabricEngine) implement it.

use crate::monitor::{AnomalyMonitor, AnomalyVerdict};
use crate::space::SearchPoint;
use collie_rnic::bottleneck::{evaluate_rules, FlowContext};
use collie_rnic::subsystem::{Measurement, Subsystem};
use collie_rnic::subsystems::SubsystemId;
use collie_rnic::workload::{Direction, FlowSpec, MessagePattern, WorkloadSpec};
use collie_sim::time::SimDuration;
use collie_sim::units::ByteSize;
use collie_verbs::{
    AccessFlags, CompletionQueue, Fabric, Mtu, QpCaps, QueuePair, SendWr, Sge, VerbsError, WrOpcode,
};
use std::hash::Hash;

/// One kind of experiment engine, as the memoizing
/// [`Evaluator`](crate::eval::Evaluator) sees it: run a point, judge the
/// measurement, and expose the subsystem and the ground-truth oracle.
///
/// **Determinism contract:** for a fixed subsystem configuration
/// `measure` is a pure function of the point. That is what lets the
/// evaluator substitute a cached measurement for a recompute; anything
/// that makes `measure` stateful must invalidate that cache.
pub trait Engine {
    /// One experiment description. `Eq + Hash` because points key the
    /// evaluator's memo cache.
    type Point: Clone + Eq + Hash;
    /// What one experiment observes.
    type Measurement: Clone;
    /// The anomaly monitor's judgement of one measurement.
    type Verdict;

    /// Run one experiment.
    fn measure(&mut self, point: &Self::Point) -> Self::Measurement;
    /// Apply the §5.2 anomaly conditions to one measurement.
    fn assess(&self, monitor: &AnomalyMonitor, measurement: &Self::Measurement) -> Self::Verdict;
    /// The subsystem under test.
    fn subsystem(&self) -> &Subsystem;
    /// Ground-truth oracle: the catalogued rules the point triggers
    /// (scoring only; the search never sees it).
    fn ground_truth(&self, point: &Self::Point) -> Vec<&'static str>;
}

/// Sets up and runs experiments on one subsystem.
#[derive(Debug)]
pub struct WorkloadEngine {
    subsystem: Subsystem,
}

impl WorkloadEngine {
    /// An engine driving `subsystem`.
    pub fn new(subsystem: Subsystem) -> Self {
        WorkloadEngine { subsystem }
    }

    /// An engine driving one of the Table-1 subsystems.
    pub fn for_catalog(id: SubsystemId) -> Self {
        WorkloadEngine::new(id.build())
    }

    /// An independent engine over the same subsystem configuration.
    ///
    /// The qualifier ([`crate::remedy`]) re-measures on a fresh fork per
    /// mitigation step. `Subsystem` is `Clone`, but a clone would share the
    /// counter registry handle with the original, so measuring on it would
    /// overwrite the original's counters. The fork instead reassembles the
    /// subsystem from its configuration, giving it its own registry,
    /// counters and switch — [`WorkloadEngine::measure`]'s determinism
    /// contract guarantees the fork measures identically to its parent.
    pub fn fork(&self) -> Self {
        let s = &self.subsystem;
        WorkloadEngine::new(Subsystem::new(
            s.name.clone(),
            s.rnic.clone(),
            s.host_a.clone(),
            s.host_b.clone(),
        ))
    }

    /// Does nothing. It toggled the incremental delta caches, which were
    /// removed (DESIGN.md §11): every measurement runs the flow model from
    /// scratch. Kept only because the campaign benchmark still calls it;
    /// ROADMAP's next benchmark revision deletes it.
    pub fn set_incremental(&mut self, _enabled: bool) {}

    /// The subsystem under test.
    pub fn subsystem(&self) -> &Subsystem {
        &self.subsystem
    }

    /// Mutable access (used by reconfiguration experiments, e.g. applying
    /// the vendor register fix of Anomalies #17/#18).
    pub fn subsystem_mut(&mut self) -> &mut Subsystem {
        &mut self.subsystem
    }

    /// Translate a search point into the flow-level workload it describes.
    ///
    /// Layout conventions (matching how the paper's engine is invoked):
    /// the primary flow is transmitted by host A; `bidirectional` adds the
    /// mirrored flow from host B; `with_loopback` adds a collocated flow on
    /// host A — and, if the workload is otherwise unidirectional, the
    /// primary flow is turned around so that the loopback traffic coexists
    /// with *receive* traffic on host A, which is the §2.2 / Anomaly #13
    /// scenario (a worker and a server scheduled on the same machine while
    /// remote workers keep sending to the server).
    pub fn translate(&self, point: &SearchPoint) -> WorkloadSpec {
        let template = FlowSpec {
            direction: Direction::AToB,
            transport: point.transport,
            opcode: point.opcode,
            num_qps: point.num_qps,
            mtu: point.mtu,
            wqe_batch: point.wqe_batch,
            sge_per_wqe: point.sge_per_wqe,
            send_queue_depth: point.send_queue_depth,
            recv_queue_depth: point.recv_queue_depth,
            mrs_per_qp: point.mrs_per_qp,
            mr_size: ByteSize::from_bytes(point.mr_size_bytes),
            messages: MessagePattern::new(point.messages.clone()),
            src_memory: point.src_memory,
            dst_memory: point.dst_memory,
        };

        let mut flows = Vec::new();
        let primary_direction = if point.with_loopback && !point.bidirectional {
            Direction::BToA
        } else {
            Direction::AToB
        };
        let mut primary = template.clone();
        primary.direction = primary_direction;
        flows.push(primary);

        if point.bidirectional {
            let mut reverse = template.clone();
            reverse.direction = Direction::BToA;
            flows.push(reverse);
        }
        if point.with_loopback {
            let mut loopback = template.clone();
            loopback.direction = Direction::LoopbackA;
            flows.push(loopback);
        }
        WorkloadSpec { flows }
    }

    /// Run one experiment for the point and return the measurement.
    ///
    /// **Determinism contract** (see [`Engine`]): for a fixed subsystem
    /// configuration this is a pure function of `point` —
    /// `Subsystem::evaluate` resets all counter and switch state on entry.
    pub fn measure(&mut self, point: &SearchPoint) -> Measurement {
        let workload = self.translate(point);
        self.subsystem.evaluate(&workload)
    }

    /// How long this experiment would take on real hardware. The paper
    /// reports 20–60 s per experiment, "mostly depending on the number of
    /// QPs to create and the number of MRs to register".
    pub fn experiment_cost(point: &SearchPoint) -> SimDuration {
        let qp_cost = point.num_qps as f64 / 100.0;
        let mr_cost = point.total_mrs() as f64 / 2_000.0;
        let seconds = (20.0 + qp_cost + mr_cost).min(60.0);
        SimDuration::from_secs_f64(seconds)
    }

    /// Ground-truth oracle: which catalogued bottleneck rules the point's
    /// workload triggers on this subsystem.
    ///
    /// The search never sees this — it works purely from counters and the
    /// anomaly definition — but the evaluation harness needs it to score a
    /// campaign against Table 2 the way the paper scores against its known
    /// anomaly list.
    pub fn ground_truth(&self, point: &SearchPoint) -> Vec<&'static str> {
        let workload = self.translate(point);
        let mut triggered = Vec::new();
        for flow in &workload.flows {
            let sender_host = self.subsystem.host(flow.direction.sender_host());
            let receiver_host = self.subsystem.host(flow.direction.receiver_host());
            let ctx = FlowContext {
                flow,
                workload: &workload,
                spec: &self.subsystem.rnic,
                sender_host,
                receiver_host,
            };
            for report in evaluate_rules(&ctx) {
                if report.triggered() && !triggered.contains(&report.rule) {
                    triggered.push(report.rule);
                }
            }
        }
        triggered.sort();
        triggered
    }

    /// Faithful path: set the workload up through the verbs API (register
    /// MRs, create/connect QPs, post batched WQEs) and run it on the
    /// fabric. Intended for examples and validation; the QP and MR counts
    /// of the point are honoured as-is, so callers should keep them modest.
    pub fn run_via_verbs(&self, point: &SearchPoint) -> Result<Measurement, VerbsError> {
        let mut fabric = Fabric::new(self.subsystem.clone());
        let mtu = Mtu::from_bytes(point.mtu).ok_or(VerbsError::InvalidAttribute {
            reason: format!("{} is not a valid RDMA MTU", point.mtu),
        })?;

        let mut endpoints: Vec<(QueuePair, QueuePair)> = Vec::new();
        let mut setups: Vec<(usize, usize)> = vec![(0, 1)];
        if point.bidirectional {
            setups.push((1, 0));
        }
        if point.with_loopback {
            if !point.bidirectional {
                setups[0] = (1, 0);
            }
            setups.push((0, 0));
        }

        let caps = QpCaps {
            max_send_wr: point.send_queue_depth,
            max_recv_wr: point.recv_queue_depth,
            max_send_sge: 16,
            max_recv_sge: 16,
        };
        let mr_size = ByteSize::from_bytes(
            point
                .mr_size_bytes
                .max(point.messages.iter().copied().max().unwrap_or(1)),
        );

        for &(sender_host, receiver_host) in &setups {
            for _ in 0..point.num_qps {
                let send_ctx = fabric.device(sender_host).open();
                let recv_ctx = fabric.device(receiver_host).open();
                let send_pd = send_ctx.alloc_pd();
                let recv_pd = recv_ctx.alloc_pd();
                let mut send_mr_key = 0;
                for i in 0..point.mrs_per_qp {
                    let mr = send_pd.reg_mr(mr_size, point.src_memory, AccessFlags::FULL)?;
                    if i == 0 {
                        send_mr_key = mr.lkey;
                    }
                }
                let mut recv_mr_key = 0;
                for i in 0..point.mrs_per_qp {
                    let mr = recv_pd.reg_mr(mr_size, point.dst_memory, AccessFlags::FULL)?;
                    if i == 0 {
                        recv_mr_key = mr.lkey;
                    }
                }
                let send_cq = CompletionQueue::new(4096);
                let recv_cq = CompletionQueue::new(4096);
                let mut requester =
                    QueuePair::create(&send_pd, &send_cq, &send_cq, point.transport, caps)?;
                let mut responder =
                    QueuePair::create(&recv_pd, &recv_cq, &recv_cq, point.transport, caps)?;
                Fabric::connect(&mut requester, &mut responder, mtu)?;

                // Pre-post receive WQEs when the opcode needs them.
                if point.opcode.is_two_sided() {
                    for slot in 0..point.recv_queue_depth.min(point.wqe_batch * 2) {
                        responder.post_recv(collie_verbs::RecvWr {
                            wr_id: slot as u64,
                            sge: vec![Sge::new(recv_mr_key, 0, mr_size.as_bytes())],
                        })?;
                    }
                }

                // Post one doorbell batch following the message pattern.
                let opcode = match point.opcode {
                    collie_rnic::workload::Opcode::Send => WrOpcode::Send,
                    collie_rnic::workload::Opcode::Write => WrOpcode::RdmaWrite,
                    collie_rnic::workload::Opcode::Read => WrOpcode::RdmaRead,
                };
                let batch: Vec<SendWr> = (0..point.wqe_batch.min(point.send_queue_depth))
                    .map(|i| {
                        let size = point.messages[i as usize % point.messages.len()]
                            .min(mr_size.as_bytes());
                        // A message smaller than the SG list cannot fill
                        // every entry: clamp the effective SGE count to the
                        // message size so the last entry's remainder cannot
                        // underflow and per-entry lengths cannot inflate
                        // the total past the message.
                        let sge_count = (point.sge_per_wqe.max(1) as u64).min(size.max(1));
                        let chunk = size / sge_count;
                        let sge: Vec<Sge> = (0..sge_count)
                            .map(|s| {
                                let len = if s == sge_count - 1 {
                                    size - chunk * (sge_count - 1)
                                } else {
                                    chunk
                                };
                                Sge::new(send_mr_key, 0, len.max(1))
                            })
                            .collect();
                        SendWr {
                            wr_id: i as u64,
                            opcode,
                            sge,
                            rkey: recv_mr_key + 1,
                            remote_offset: 0,
                            signaled: true,
                        }
                    })
                    .collect();
                requester.post_send_batch(batch)?;
                endpoints.push((requester, responder));
            }
        }

        let mut refs: Vec<&mut QueuePair> = Vec::new();
        for (a, b) in endpoints.iter_mut() {
            refs.push(a);
            refs.push(b);
        }
        fabric.run(&mut refs)
    }
}

impl Engine for WorkloadEngine {
    type Point = SearchPoint;
    type Measurement = Measurement;
    type Verdict = AnomalyVerdict;

    fn measure(&mut self, point: &SearchPoint) -> Measurement {
        WorkloadEngine::measure(self, point)
    }

    fn assess(&self, monitor: &AnomalyMonitor, measurement: &Measurement) -> AnomalyVerdict {
        monitor.assess(measurement, &self.subsystem.rnic)
    }

    fn subsystem(&self) -> &Subsystem {
        &self.subsystem
    }

    fn ground_truth(&self, point: &SearchPoint) -> Vec<&'static str> {
        WorkloadEngine::ground_truth(self, point)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SearchPoint;
    use collie_rnic::workload::{Opcode, Transport};

    fn engine() -> WorkloadEngine {
        WorkloadEngine::for_catalog(SubsystemId::F)
    }

    #[test]
    fn translate_builds_expected_flow_layout() {
        let e = engine();
        let mut p = SearchPoint::benign();
        assert_eq!(e.translate(&p).flows.len(), 1);
        assert_eq!(e.translate(&p).flows[0].direction, Direction::AToB);

        p.bidirectional = true;
        let w = e.translate(&p);
        assert_eq!(w.flows.len(), 2);
        assert!(w.is_bidirectional());

        p.with_loopback = true;
        let w = e.translate(&p);
        assert_eq!(w.flows.len(), 3);
        assert!(w.has_loopback());

        // Loopback without bidirectional turns the primary flow around so
        // it coexists with receive traffic on host A.
        p.bidirectional = false;
        let w = e.translate(&p);
        assert_eq!(w.flows.len(), 2);
        assert_eq!(w.flows[0].direction, Direction::BToA);
        assert_eq!(w.flows[1].direction, Direction::LoopbackA);
    }

    #[test]
    fn measure_benign_point_is_healthy() {
        let mut e = engine();
        let m = e.measure(&SearchPoint::benign());
        assert!(m.max_pause_ratio() < 0.001);
        assert!(m.total_throughput().gbps() > 150.0);
        assert!(e.ground_truth(&SearchPoint::benign()).is_empty());
    }

    #[test]
    fn ground_truth_flags_a_known_trigger() {
        let e = engine();
        let mut p = SearchPoint::benign();
        p.transport = Transport::Ud;
        p.opcode = Opcode::Send;
        p.wqe_batch = 64;
        p.recv_queue_depth = 256;
        p.messages = vec![2048];
        p.mtu = 2048;
        let rules = e.ground_truth(&p);
        assert!(rules.contains(&"collie/1"), "{rules:?}");
    }

    #[test]
    fn forked_engines_measure_identically_and_independently() {
        let mut e = engine();
        let mut p = SearchPoint::benign();
        p.transport = Transport::Ud;
        p.opcode = Opcode::Send;
        p.wqe_batch = 64;
        p.recv_queue_depth = 256;
        p.messages = vec![2048];
        p.mtu = 2048;
        let mut fork = e.fork();
        // Dirty the fork's state with a different point, then confirm both
        // engines still agree: measurements are pure functions of the point.
        let _ = fork.measure(&SearchPoint::benign());
        assert_eq!(e.measure(&p), fork.measure(&p));
        assert_eq!(
            e.measure(&SearchPoint::benign()),
            fork.measure(&SearchPoint::benign())
        );
    }

    #[test]
    fn experiment_cost_is_bounded_between_20_and_60_seconds() {
        let mut p = SearchPoint::benign();
        let cheap = WorkloadEngine::experiment_cost(&p);
        assert!(cheap.as_secs_f64() >= 20.0 && cheap.as_secs_f64() <= 60.0);
        p.num_qps = 2048;
        p.mrs_per_qp = 1024;
        let expensive = WorkloadEngine::experiment_cost(&p);
        assert!(expensive.as_secs_f64() > cheap.as_secs_f64());
        assert!(expensive.as_secs_f64() <= 60.0);
    }

    #[test]
    fn verbs_path_and_fast_path_agree_on_a_small_point() {
        let mut e = engine();
        let mut p = SearchPoint::benign();
        p.num_qps = 4;
        p.wqe_batch = 8;
        p.mr_size_bytes = 4 * 1024 * 1024;
        p.messages = vec![262_144];
        let fast = e.measure(&p);
        let faithful = e.run_via_verbs(&p).expect("verbs path should succeed");
        let fast_dir = fast.direction(Direction::AToB).unwrap().throughput.gbps();
        let faithful_dir = faithful
            .direction(Direction::AToB)
            .unwrap()
            .throughput
            .gbps();
        assert!(
            (fast_dir - faithful_dir).abs() < 0.15 * fast_dir.max(1.0),
            "fast {fast_dir} vs verbs {faithful_dir}"
        );
        assert_eq!(
            fast.max_pause_ratio() > 0.001,
            faithful.max_pause_ratio() > 0.001
        );
    }

    #[test]
    fn verbs_sge_split_survives_messages_smaller_than_the_sge_list() {
        // Regression: an 8-byte message split across 16 SGEs used to compute
        // `size - chunk * (sge_count - 1)` = 8 - 1*15, which wraps (and
        // panics in debug builds). The effective SGE count is now clamped
        // to the message size.
        let e = engine();
        let mut p = SearchPoint::benign();
        p.num_qps = 1;
        p.wqe_batch = 4;
        p.sge_per_wqe = 16;
        p.messages = vec![8];
        let m = e
            .run_via_verbs(&p)
            .expect("tiny messages must not underflow the SGE split");
        assert!(m.total_throughput().bits_per_sec() >= 0.0);
    }

    #[test]
    fn verbs_path_rejects_invalid_mtu() {
        let e = engine();
        let mut p = SearchPoint::benign();
        p.mtu = 1500;
        assert!(matches!(
            e.run_via_verbs(&p).unwrap_err(),
            VerbsError::InvalidAttribute { .. }
        ));
    }
}
