//! Flow-level workload description.
//!
//! A Collie search point (four dimensions: host topology, memory allocation,
//! transport setting, message pattern) ultimately becomes a set of RDMA
//! traffic flows between the two servers. [`WorkloadSpec`] is that set, and
//! [`FlowSpec`] is one flow: a group of identically configured QPs pushing a
//! repeating message pattern in one direction. The verbs layer produces the
//! same description from an actual sequence of `post_send` calls, so the
//! search and hand-written applications exercise the identical simulator
//! entry point.

use collie_host::memory::MemoryTarget;
use collie_sim::units::ByteSize;
use serde::{Deserialize, Serialize};
use std::fmt;

/// RDMA transport type of a queue pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Transport {
    /// Reliable Connection.
    Rc,
    /// Unreliable Connection.
    Uc,
    /// Unreliable Datagram.
    Ud,
}

impl Transport {
    /// All transports, in the order the paper lists them.
    pub const ALL: [Transport; 3] = [Transport::Rc, Transport::Uc, Transport::Ud];
}

impl fmt::Display for Transport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Transport::Rc => write!(f, "RC"),
            Transport::Uc => write!(f, "UC"),
            Transport::Ud => write!(f, "UD"),
        }
    }
}

/// RDMA operation code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Opcode {
    /// Two-sided SEND/RECV.
    Send,
    /// One-sided RDMA WRITE.
    Write,
    /// One-sided RDMA READ.
    Read,
}

impl Opcode {
    /// All opcodes.
    pub const ALL: [Opcode; 3] = [Opcode::Send, Opcode::Write, Opcode::Read];

    /// Whether the opcode is two-sided (consumes a receive WQE on the
    /// responder for every message).
    pub fn is_two_sided(self) -> bool {
        matches!(self, Opcode::Send)
    }

    /// Whether this opcode is valid on the given transport: UD supports
    /// only SEND; UC supports SEND and WRITE; RC supports everything.
    pub fn valid_on(self, transport: Transport) -> bool {
        match transport {
            Transport::Rc => true,
            Transport::Uc => !matches!(self, Opcode::Read),
            Transport::Ud => matches!(self, Opcode::Send),
        }
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Opcode::Send => write!(f, "SEND"),
            Opcode::Write => write!(f, "WRITE"),
            Opcode::Read => write!(f, "READ"),
        }
    }
}

/// Which way a flow's payload moves between the two hosts (A and B) of the
/// testbed. Loopback flows have their client and server collocated on host
/// A — the scenario behind Anomaly #13.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Payload flows from host A to host B.
    AToB,
    /// Payload flows from host B to host A.
    BToA,
    /// Client and server are both on host A; payload loops through A's RNIC.
    LoopbackA,
}

impl Direction {
    /// The host whose RNIC transmits the payload (0 = A, 1 = B).
    pub fn sender_host(self) -> usize {
        match self {
            Direction::AToB | Direction::LoopbackA => 0,
            Direction::BToA => 1,
        }
    }

    /// The host whose RNIC receives the payload.
    pub fn receiver_host(self) -> usize {
        match self {
            Direction::AToB => 1,
            Direction::BToA | Direction::LoopbackA => 0,
        }
    }

    /// True for loopback flows.
    pub fn is_loopback(self) -> bool {
        matches!(self, Direction::LoopbackA)
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::AToB => write!(f, "A->B"),
            Direction::BToA => write!(f, "B->A"),
            Direction::LoopbackA => write!(f, "loopback(A)"),
        }
    }
}

/// The repeating request-size vector of a flow (search Dimension 4).
///
/// Each element is the byte size of one work request; the sequence repeats
/// for the duration of the experiment, which is how the paper models "a
/// large WRITE followed by a small SEND" style interactions between
/// consecutive requests.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MessagePattern {
    sizes: Vec<u64>,
}

impl MessagePattern {
    /// A pattern repeating a single fixed size (what Perftest generates).
    pub fn uniform(size: u64) -> Self {
        MessagePattern { sizes: vec![size] }
    }

    /// A pattern from an explicit size vector. Empty patterns are replaced
    /// by a single 1-byte request so every flow sends something (a
    /// deserialized pattern can still be empty; [`FlowSpec::is_valid`]
    /// rejects it).
    pub fn new(sizes: Vec<u64>) -> Self {
        if sizes.is_empty() {
            MessagePattern { sizes: vec![1] }
        } else {
            MessagePattern { sizes }
        }
    }

    /// Overwrite the pattern with `sizes`, reusing its buffer. As in
    /// [`MessagePattern::new`], an empty `sizes` becomes a single 1-byte
    /// request.
    pub fn refill(&mut self, sizes: &[u64]) {
        self.sizes.clear();
        if sizes.is_empty() {
            self.sizes.push(1);
        } else {
            self.sizes.extend_from_slice(sizes);
        }
    }

    /// The request sizes, in order.
    pub fn sizes(&self) -> &[u64] {
        &self.sizes
    }

    /// Number of requests in the repeating window.
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// True if the window holds no request. [`MessagePattern::new`] never
    /// builds one, but deserialization can.
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Mean request size in bytes.
    fn mean_size(&self) -> f64 {
        self.sizes.iter().sum::<u64>() as f64 / self.sizes.len() as f64
    }

    /// Largest request in the window, or 0 for an empty window (which only
    /// deserialization can build).
    pub fn max_size(&self) -> u64 {
        self.sizes.iter().copied().max().unwrap_or(0)
    }

    /// Fraction of requests that are at most `threshold` bytes.
    fn fraction_at_most(&self, threshold: u64) -> f64 {
        self.sizes.iter().filter(|&&s| s <= threshold).count() as f64 / self.sizes.len() as f64
    }

    /// Fraction of requests that are at least `threshold` bytes.
    fn fraction_at_least(&self, threshold: u64) -> f64 {
        self.sizes.iter().filter(|&&s| s >= threshold).count() as f64 / self.sizes.len() as f64
    }

    /// True if the window mixes small (≤ `small`) and large (≥ `large`)
    /// requests — the "mix of short and long messages" feature several
    /// anomalies (#9, #10) hinge on.
    pub fn mixes_small_and_large(&self, small: u64, large: u64) -> bool {
        self.fraction_at_most(small) > 0.0 && self.fraction_at_least(large) > 0.0
    }

    /// Average number of MTU-sized packets one request expands to.
    fn mean_packets_per_request(&self, mtu: u64) -> f64 {
        let mtu = mtu.max(1);
        self.sizes
            .iter()
            .map(|&s| s.div_ceil(mtu).max(1) as f64)
            .sum::<f64>()
            / self.sizes.len() as f64
    }
}

/// One traffic flow: a group of identically configured QPs in one direction.
/// `Eq`/`Hash` are exact (no floating-point fields): two flows compare equal
/// only when every knob does.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FlowSpec {
    /// Payload direction.
    pub direction: Direction,
    /// Transport type of every QP in the flow.
    pub transport: Transport,
    /// Opcode used for every request.
    pub opcode: Opcode,
    /// Number of QPs (connections) in the flow.
    pub num_qps: u32,
    /// RDMA path MTU in bytes (256 – 4096).
    pub mtu: u32,
    /// Requests posted per doorbell (the "WQE batch size" of Table 2).
    pub wqe_batch: u32,
    /// Scatter/gather entries per WQE.
    pub sge_per_wqe: u32,
    /// Send work-queue depth per QP.
    pub send_queue_depth: u32,
    /// Receive work-queue depth per QP.
    pub recv_queue_depth: u32,
    /// Memory regions registered per QP on each side.
    pub mrs_per_qp: u32,
    /// Size of each registered MR.
    pub mr_size: ByteSize,
    /// Request-size pattern.
    pub messages: MessagePattern,
    /// Memory the sender's payload is read from.
    pub src_memory: MemoryTarget,
    /// Memory the receiver's payload is written to.
    pub dst_memory: MemoryTarget,
}

impl FlowSpec {
    /// A minimal single-QP RC WRITE flow with sane defaults, used as a
    /// starting point by tests and builders.
    pub fn basic(direction: Direction) -> FlowSpec {
        FlowSpec {
            direction,
            transport: Transport::Rc,
            opcode: Opcode::Write,
            num_qps: 1,
            mtu: 4096,
            wqe_batch: 1,
            sge_per_wqe: 1,
            send_queue_depth: 128,
            recv_queue_depth: 128,
            mrs_per_qp: 1,
            mr_size: ByteSize::from_kib(64),
            messages: MessagePattern::uniform(65536),
            src_memory: MemoryTarget::local_dram(),
            dst_memory: MemoryTarget::local_dram(),
        }
    }

    /// Whether the transport/opcode combination is legal and every knob
    /// describes some traffic (an empty message pattern does not).
    pub fn is_valid(&self) -> bool {
        self.opcode.valid_on(self.transport)
            && !self.messages.is_empty()
            && self.num_qps > 0
            && self.mtu >= 256
            && self.wqe_batch > 0
            && self.sge_per_wqe > 0
            && self.send_queue_depth > 0
            && self.recv_queue_depth > 0
    }

    /// Mean request size in bytes.
    pub fn mean_message_bytes(&self) -> f64 {
        self.messages.mean_size()
    }

    /// Mean packets generated per request at this flow's MTU.
    pub fn mean_packets_per_message(&self) -> f64 {
        self.messages.mean_packets_per_request(self.mtu as u64)
    }

    /// Approximate bytes of WQE descriptor the RNIC must fetch across PCIe
    /// per request: a 64-byte base descriptor plus 16 bytes per additional
    /// scatter/gather entry, amortised over doorbell batching (batched
    /// WQEs are fetched in larger, more efficient DMA reads, but every WQE
    /// still has to cross the link).
    pub fn wqe_bytes_per_message(&self) -> f64 {
        64.0 + 16.0 * (self.sge_per_wqe.saturating_sub(1)) as f64
    }

    /// Whether the responder must consume a receive WQE per message
    /// (two-sided opcodes only).
    pub fn consumes_recv_wqe(&self) -> bool {
        self.opcode.is_two_sided()
    }

    /// Total MRs registered by this flow on one side.
    pub fn total_mrs(&self) -> u64 {
        self.num_qps as u64 * self.mrs_per_qp as u64
    }
}

/// A complete workload: every flow offered to the subsystem at once.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct WorkloadSpec {
    /// The flows, evaluated concurrently.
    pub flows: Vec<FlowSpec>,
}

impl WorkloadSpec {
    /// A workload with a single flow.
    pub fn single(flow: FlowSpec) -> Self {
        WorkloadSpec { flows: vec![flow] }
    }

    /// True if payload moves in both directions between the hosts
    /// (loopback does not count as a second direction by itself).
    pub fn is_bidirectional(&self) -> bool {
        let a_to_b = self.flows.iter().any(|f| f.direction == Direction::AToB);
        let b_to_a = self.flows.iter().any(|f| f.direction == Direction::BToA);
        a_to_b && b_to_a
    }

    /// True if any flow is loopback.
    pub fn has_loopback(&self) -> bool {
        self.flows.iter().any(|f| f.direction.is_loopback())
    }

    /// Total QPs across all flows (both hosts create one endpoint each, so
    /// this is the per-host connection count).
    pub fn total_qps(&self) -> u64 {
        self.flows.iter().map(|f| f.num_qps as u64).sum()
    }

    /// Total MRs registered per host.
    pub fn total_mrs(&self) -> u64 {
        self.flows.iter().map(|f| f.total_mrs()).sum()
    }

    /// True if every flow is individually valid and there is at least one.
    pub fn is_valid(&self) -> bool {
        !self.flows.is_empty() && self.flows.iter().all(|f| f.is_valid())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_transport_validity_matrix() {
        assert!(Opcode::Read.valid_on(Transport::Rc));
        assert!(Opcode::Write.valid_on(Transport::Rc));
        assert!(Opcode::Send.valid_on(Transport::Rc));
        assert!(!Opcode::Read.valid_on(Transport::Uc));
        assert!(Opcode::Write.valid_on(Transport::Uc));
        assert!(Opcode::Send.valid_on(Transport::Ud));
        assert!(!Opcode::Write.valid_on(Transport::Ud));
        assert!(!Opcode::Read.valid_on(Transport::Ud));
    }

    #[test]
    fn message_pattern_statistics() {
        let p = MessagePattern::new(vec![128, 65536, 1024]);
        assert_eq!(p.len(), 3);
        assert_eq!(p.max_size(), 65536);
        assert!((p.mean_size() - 22229.333).abs() < 0.01);
        assert!(p.mixes_small_and_large(1024, 65536));
        assert!(!p.mixes_small_and_large(64, 65536));
        assert!((p.fraction_at_most(1024) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_pattern_becomes_one_byte_request() {
        let p = MessagePattern::new(vec![]);
        assert_eq!(p.len(), 1);
        assert_eq!(p.sizes(), &[1]);
        assert!(!p.is_empty());
    }

    #[test]
    fn refill_matches_new_and_leaves_no_stale_size() {
        let mut p = MessagePattern::new(vec![128, 65536, 1024]);
        p.refill(&[4096]);
        assert_eq!(p, MessagePattern::new(vec![4096]));
        p.refill(&[]);
        assert_eq!(p, MessagePattern::new(vec![]));
        p.refill(&[64, 8192]);
        assert_eq!(p.sizes(), &[64, 8192]);
    }

    #[test]
    fn packets_per_request_respects_mtu() {
        let p = MessagePattern::new(vec![4096, 1024]);
        assert!((p.mean_packets_per_request(1024) - 2.5).abs() < 1e-12);
        assert!((p.mean_packets_per_request(4096) - 1.0).abs() < 1e-12);
        // Zero-byte and zero-MTU inputs stay defined.
        let z = MessagePattern::new(vec![0]);
        assert_eq!(z.mean_packets_per_request(0), 1.0);
    }

    #[test]
    fn direction_endpoints() {
        assert_eq!(Direction::AToB.sender_host(), 0);
        assert_eq!(Direction::AToB.receiver_host(), 1);
        assert_eq!(Direction::BToA.sender_host(), 1);
        assert_eq!(Direction::BToA.receiver_host(), 0);
        assert_eq!(Direction::LoopbackA.sender_host(), 0);
        assert_eq!(Direction::LoopbackA.receiver_host(), 0);
        assert!(Direction::LoopbackA.is_loopback());
    }

    #[test]
    fn flow_validity() {
        let mut f = FlowSpec::basic(Direction::AToB);
        assert!(f.is_valid());
        f.transport = Transport::Ud;
        f.opcode = Opcode::Read;
        assert!(!f.is_valid());
        f.opcode = Opcode::Send;
        assert!(f.is_valid());
        f.num_qps = 0;
        assert!(!f.is_valid());
    }

    #[test]
    fn flow_derived_quantities() {
        let mut f = FlowSpec::basic(Direction::AToB);
        f.messages = MessagePattern::uniform(8192);
        f.mtu = 1024;
        f.sge_per_wqe = 4;
        f.mrs_per_qp = 8;
        f.num_qps = 10;
        assert!((f.mean_packets_per_message() - 8.0).abs() < 1e-12);
        assert_eq!(f.wqe_bytes_per_message(), 64.0 + 48.0);
        assert_eq!(f.total_mrs(), 80);
        assert!(!f.consumes_recv_wqe());
        f.opcode = Opcode::Send;
        assert!(f.consumes_recv_wqe());
    }

    #[test]
    fn workload_direction_queries() {
        let w = WorkloadSpec {
            flows: vec![
                FlowSpec::basic(Direction::AToB),
                FlowSpec::basic(Direction::BToA),
                FlowSpec::basic(Direction::LoopbackA),
            ],
        };
        assert!(w.is_bidirectional());
        assert!(w.has_loopback());
        assert_eq!(w.total_qps(), 3);

        let uni = WorkloadSpec::single(FlowSpec::basic(Direction::AToB));
        assert!(!uni.is_bidirectional());
        assert!(!uni.has_loopback());
        assert!(uni.is_valid());
        assert!(!WorkloadSpec::default().is_valid());
    }
}
