//! The workload search space (§4 of the paper).
//!
//! Collie constructs its search space from the developer's point of view:
//! every RDMA workload is a combination of verbs-level decisions, grouped
//! into four dimensions —
//!
//! 1. **host topology** — where traffic originates and lands (NUMA-local
//!    DRAM, remote-socket DRAM, GPU memory), whether traffic runs in both
//!    directions, and whether a collocated (loopback) flow coexists;
//! 2. **memory allocation** — how many MRs are registered and how large
//!    they are;
//! 3. **transport setting** — QP type, opcode, number of QPs, WQE batch
//!    size, SG list length, queue depths, and path MTU;
//! 4. **message pattern** — the repeating vector of request sizes.
//!
//! [`SearchPoint`] is one point in that space, [`SearchSpace`] carries the
//! bounded value ladders and knows how to sample and mutate points, and
//! [`Feature`] names the individual coordinates (the unit the MFS algorithm
//! reasons about).

mod fabric;
mod feature;
mod ladder;
mod point;
mod restrict;

pub use fabric::{FabricFeature, FabricPoint, FabricSpace};
pub use feature::{Dimension, Feature, FeatureValue};
pub use ladder::Ladders;
pub use point::SearchPoint;
pub use restrict::SpaceRestriction;

use collie_host::memory::MemoryTarget;
use collie_host::topology::HostConfig;
use collie_rnic::workload::{Opcode, Transport};
use collie_sim::rng::SimRng;

/// The bounded search space for one subsystem.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    /// Value ladders for the numeric features.
    pub ladders: Ladders,
    /// Memory targets available on the hosts (Dimension 1 candidates).
    pub memory_targets: Vec<MemoryTarget>,
    /// Valid (transport, opcode) combinations.
    pub transports: Vec<(Transport, Opcode)>,
    /// Optional restriction applied by the advisor workflow (§7.3).
    pub restriction: Option<SpaceRestriction>,
}

impl SearchSpace {
    /// The full search space for a subsystem whose hosts look like `host`.
    pub fn for_host(host: &HostConfig) -> SearchSpace {
        let mut transports = Vec::new();
        for t in Transport::ALL {
            for o in Opcode::ALL {
                if o.valid_on(t) {
                    transports.push((t, o));
                }
            }
        }
        SearchSpace {
            ladders: Ladders::default(),
            memory_targets: host.memory_targets(),
            transports,
            restriction: None,
        }
    }

    /// Apply an application-level restriction (anomaly-prevention workflow).
    pub fn restricted(mut self, restriction: SpaceRestriction) -> SearchSpace {
        self.restriction = Some(restriction);
        self
    }

    /// Draw a uniform random point from the space (respecting any
    /// restriction).
    pub fn random_point(&self, rng: &mut SimRng) -> SearchPoint {
        let mut point = self.unrestricted_random_point(rng);
        if let Some(r) = &self.restriction {
            r.clamp(&mut point, self, rng);
        }
        point
    }

    fn unrestricted_random_point(&self, rng: &mut SimRng) -> SearchPoint {
        let (transport, opcode) = *rng.choose(&self.transports);
        let pattern_len = rng.gen_range_u64(1, 4) as usize;
        let messages: Vec<u64> = (0..pattern_len)
            .map(|_| *rng.choose(&self.ladders.message_sizes))
            .collect();
        SearchPoint {
            src_memory: *rng.choose(&self.memory_targets),
            dst_memory: *rng.choose(&self.memory_targets),
            bidirectional: rng.gen_bool(0.5),
            with_loopback: rng.gen_bool(0.2),
            mrs_per_qp: *rng.choose(&self.ladders.mrs_per_qp),
            mr_size_bytes: *rng.choose(&self.ladders.mr_sizes),
            transport,
            opcode,
            num_qps: *rng.choose(&self.ladders.num_qps),
            wqe_batch: *rng.choose(&self.ladders.wqe_batch),
            sge_per_wqe: *rng.choose(&self.ladders.sge_per_wqe),
            send_queue_depth: *rng.choose(&self.ladders.queue_depths),
            recv_queue_depth: *rng.choose(&self.ladders.queue_depths),
            mtu: *rng.choose(&self.ladders.mtus),
            messages,
        }
    }

    /// Mutate one randomly chosen feature of `point`, staying inside the
    /// space (Algorithm 1, line 4: "mutate P_old in one of our search
    /// dimensions").
    pub fn mutate(&self, point: &SearchPoint, rng: &mut SimRng) -> SearchPoint {
        let mut next = point.clone();
        let feature = *rng.choose(&Feature::ALL);
        self.mutate_feature(&mut next, feature, rng);
        if let Some(r) = &self.restriction {
            r.clamp(&mut next, self, rng);
        }
        next
    }

    /// Mutate one specific feature.
    fn mutate_feature(&self, point: &mut SearchPoint, feature: Feature, rng: &mut SimRng) {
        match feature {
            Feature::SrcMemory => point.src_memory = *rng.choose(&self.memory_targets),
            Feature::DstMemory => point.dst_memory = *rng.choose(&self.memory_targets),
            Feature::Bidirectional => point.bidirectional = !point.bidirectional,
            Feature::Loopback => point.with_loopback = !point.with_loopback,
            Feature::MrsPerQp => {
                point.mrs_per_qp = ladder::step(&self.ladders.mrs_per_qp, point.mrs_per_qp, rng)
            }
            Feature::MrSize => {
                point.mr_size_bytes = ladder::step(&self.ladders.mr_sizes, point.mr_size_bytes, rng)
            }
            Feature::Transport => {
                let (t, o) = *rng.choose(&self.transports);
                point.transport = t;
                point.opcode = o;
            }
            Feature::Opcode => {
                let valid: Vec<Opcode> = Opcode::ALL
                    .into_iter()
                    .filter(|o| o.valid_on(point.transport))
                    .collect();
                point.opcode = *rng.choose(&valid);
            }
            Feature::NumQps => {
                point.num_qps = ladder::step(&self.ladders.num_qps, point.num_qps, rng)
            }
            Feature::WqeBatch => {
                point.wqe_batch = ladder::step(&self.ladders.wqe_batch, point.wqe_batch, rng)
            }
            Feature::SgePerWqe => {
                point.sge_per_wqe = ladder::step(&self.ladders.sge_per_wqe, point.sge_per_wqe, rng)
            }
            Feature::SendQueueDepth => {
                point.send_queue_depth =
                    ladder::step(&self.ladders.queue_depths, point.send_queue_depth, rng)
            }
            Feature::RecvQueueDepth => {
                point.recv_queue_depth =
                    ladder::step(&self.ladders.queue_depths, point.recv_queue_depth, rng)
            }
            Feature::Mtu => point.mtu = ladder::step(&self.ladders.mtus, point.mtu, rng),
            Feature::MessagePattern => {
                self.mutate_pattern(point, rng);
            }
        }
    }

    fn mutate_pattern(&self, point: &mut SearchPoint, rng: &mut SimRng) {
        let sizes = &self.ladders.message_sizes;
        // An empty pattern stands for one request (`MessagePattern::new`);
        // the only mutation with nothing to resize or drop is to append.
        if point.messages.is_empty() {
            point.messages.push(*rng.choose(sizes));
            return;
        }
        match rng.gen_index(3) {
            // Resize one request.
            0 => {
                let idx = rng.gen_index(point.messages.len());
                point.messages[idx] = *rng.choose(sizes);
            }
            // Append a request (bounded by the RNIC request window; we keep
            // the window small since longer windows only repeat patterns).
            1 => {
                if point.messages.len() < 8 {
                    point.messages.push(*rng.choose(sizes));
                } else {
                    let idx = rng.gen_index(point.messages.len());
                    point.messages[idx] = *rng.choose(sizes);
                }
            }
            // Drop a request.
            _ => {
                if point.messages.len() > 1 {
                    let idx = rng.gen_index(point.messages.len());
                    point.messages.remove(idx);
                } else {
                    point.messages[0] = *rng.choose(sizes);
                }
            }
        }
    }

    /// Candidate alternative values for a feature, used by the MFS
    /// algorithm when probing whether a feature is necessary. For numeric
    /// features these are the other rungs of its ladder; for categorical
    /// features, the other categories.
    pub fn alternatives(&self, point: &SearchPoint, feature: Feature) -> Vec<FeatureValue> {
        match feature {
            Feature::SrcMemory => self
                .memory_targets
                .iter()
                .filter(|t| **t != point.src_memory)
                .map(|t| FeatureValue::Memory(*t))
                .collect(),
            Feature::DstMemory => self
                .memory_targets
                .iter()
                .filter(|t| **t != point.dst_memory)
                .map(|t| FeatureValue::Memory(*t))
                .collect(),
            Feature::Bidirectional => vec![FeatureValue::Flag(!point.bidirectional)],
            Feature::Loopback => vec![FeatureValue::Flag(!point.with_loopback)],
            Feature::Transport => self
                .transports
                .iter()
                .filter(|(t, _)| *t != point.transport)
                .map(|(t, o)| FeatureValue::TransportOpcode(*t, *o))
                .collect(),
            Feature::Opcode => Opcode::ALL
                .into_iter()
                .filter(|o| *o != point.opcode && o.valid_on(point.transport))
                .map(|o| FeatureValue::TransportOpcode(point.transport, o))
                .collect(),
            Feature::NumQps => ladder_alternatives(&self.ladders.num_qps, point.num_qps),
            Feature::WqeBatch => ladder_alternatives(&self.ladders.wqe_batch, point.wqe_batch),
            Feature::SgePerWqe => ladder_alternatives(&self.ladders.sge_per_wqe, point.sge_per_wqe),
            Feature::SendQueueDepth => {
                ladder_alternatives(&self.ladders.queue_depths, point.send_queue_depth)
            }
            Feature::RecvQueueDepth => {
                ladder_alternatives(&self.ladders.queue_depths, point.recv_queue_depth)
            }
            Feature::Mtu => ladder_alternatives(&self.ladders.mtus, point.mtu),
            Feature::MrsPerQp => ladder_alternatives(&self.ladders.mrs_per_qp, point.mrs_per_qp),
            Feature::MrSize => ladder_alternatives(&self.ladders.mr_sizes, point.mr_size_bytes),
            Feature::MessagePattern => {
                let uniform_small = FeatureValue::Pattern(vec![1024]);
                let uniform_large = FeatureValue::Pattern(vec![65536]);
                vec![uniform_small, uniform_large]
            }
        }
    }

    /// Size of the discretised space actually explored by the mutation
    /// operators (each feature contributes its ladder length).
    pub fn effective_cardinality(&self) -> f64 {
        let l = &self.ladders;
        let memory = self.memory_targets.len() as f64;
        let pattern = (l.message_sizes.len() as f64).powi(8);
        memory
            * memory
            * 2.0
            * 2.0
            * self.transports.len() as f64
            * l.num_qps.len() as f64
            * l.wqe_batch.len() as f64
            * l.sge_per_wqe.len() as f64
            * l.queue_depths.len() as f64
            * l.queue_depths.len() as f64
            * l.mtus.len() as f64
            * l.mrs_per_qp.len() as f64
            * l.mr_sizes.len() as f64
            * pattern
    }

    /// Size of the nominal search space with the paper's raw bounds (up to
    /// 20 K QPs, 200 K MRs, request sizes discretised into 16 regions over
    /// the request window the mutation operator explores), which is where
    /// the "order of 10^36" figure in §5 comes from.
    pub fn nominal_cardinality(&self) -> f64 {
        let memory = self.memory_targets.len().max(2) as f64;
        let qps = 20_000.0;
        let mrs = 200_000.0;
        let mr_sizes = 1_024.0;
        let transports = self.transports.len() as f64;
        let batches = 128.0;
        let sges = 16.0;
        let depths = 16_384.0;
        let mtus = 5.0;
        // Request sizes discretised by MTU/burst boundaries (16 regions)
        // over the 8-request window the mutation operator explores. (The
        // full `PU × pipeline stages` window of the fastest parts would
        // inflate the bound far beyond the paper's own estimate.)
        let pattern = 16f64.powi(8);
        memory
            * memory
            * transports
            * qps
            * mrs
            * mr_sizes
            * batches
            * sges
            * depths
            * depths
            * mtus
            * pattern
    }
}

pub(crate) fn ladder_alternatives<T: Copy + PartialEq + Into<u64>>(
    ladder: &[T],
    current: T,
) -> Vec<FeatureValue> {
    ladder
        .iter()
        .filter(|v| **v != current)
        .map(|v| FeatureValue::Number((*v).into()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use collie_host::presets;
    use collie_sim::units::ByteSize;

    fn space() -> SearchSpace {
        let host = presets::intel_xeon_gpu_host("t", ByteSize::from_gib(2048), true);
        SearchSpace::for_host(&host)
    }

    #[test]
    fn transports_only_contain_valid_pairs() {
        let s = space();
        assert!(s.transports.contains(&(Transport::Rc, Opcode::Read)));
        assert!(!s.transports.contains(&(Transport::Ud, Opcode::Write)));
        assert!(!s.transports.contains(&(Transport::Uc, Opcode::Read)));
        assert_eq!(s.transports.len(), 6);
    }

    #[test]
    fn mutating_an_empty_message_pattern_never_panics() {
        let s = space();
        let mut appended = 0;
        for seed in 0..200 {
            let mut rng = SimRng::new(seed);
            let mut p = s.random_point(&mut rng);
            p.messages.clear();
            let q = s.mutate(&p, &mut rng);
            if !q.messages.is_empty() {
                assert_eq!(q.messages.len(), 1, "seed {seed}: {q:?}");
                appended += 1;
            }
        }
        // The message-pattern mutation was drawn, not just survived.
        assert!(appended > 0);
    }

    #[test]
    fn random_points_are_valid_and_varied() {
        let s = space();
        let mut rng = SimRng::new(1);
        let mut transports = std::collections::HashSet::new();
        for _ in 0..200 {
            let p = s.random_point(&mut rng);
            assert!(p.is_well_formed(&s), "{p:?}");
            transports.insert(format!("{}-{}", p.transport, p.opcode));
        }
        assert!(transports.len() >= 4, "sampling should cover transports");
    }

    #[test]
    fn mutation_changes_at_most_one_dimension_family() {
        let s = space();
        let mut rng = SimRng::new(7);
        let base = s.random_point(&mut rng);
        for _ in 0..100 {
            let next = s.mutate(&base, &mut rng);
            assert!(next.is_well_formed(&s));
            let differing = Feature::ALL
                .iter()
                .filter(|f| base.feature_value(**f) != next.feature_value(**f))
                .count();
            // Transport mutation may change opcode too; everything else
            // changes a single coordinate.
            assert!(differing <= 2, "mutation changed {differing} features");
        }
    }

    #[test]
    fn memory_targets_include_gpus_when_present() {
        let s = space();
        assert!(s.memory_targets.iter().any(|t| t.is_gpu()));
        let no_gpu_host = presets::intel_xeon_host("t", 2, ByteSize::from_gib(768), false);
        let s2 = SearchSpace::for_host(&no_gpu_host);
        assert!(s2.memory_targets.iter().all(|t| !t.is_gpu()));
    }

    #[test]
    fn cardinalities_are_large() {
        let s = space();
        assert!(s.effective_cardinality() > 1e15);
        let nominal = s.nominal_cardinality();
        assert!(
            nominal > 1e30,
            "nominal cardinality should be on the order of the paper's 10^36, got {nominal:e}"
        );
    }

    #[test]
    fn alternatives_exclude_current_value() {
        let s = space();
        let mut rng = SimRng::new(3);
        let p = s.random_point(&mut rng);
        for f in Feature::ALL {
            for alt in s.alternatives(&p, f) {
                let mut probe = p.clone();
                probe.apply(f, &alt);
                assert_ne!(
                    probe.feature_value(f),
                    p.feature_value(f),
                    "alternative for {f:?} did not change the point"
                );
            }
        }
    }

    #[test]
    fn mutate_feature_hits_every_feature() {
        let s = space();
        let mut rng = SimRng::new(11);
        for f in Feature::ALL {
            let mut p = s.random_point(&mut rng);
            // Mutating a specific feature keeps the point well-formed.
            s.mutate_feature(&mut p, f, &mut rng);
            assert!(p.is_well_formed(&s), "feature {f:?} broke the point");
        }
    }
}
