//! Multi-host fabric evaluation: PFC pause propagation through the switch.
//!
//! The paper's headline cross-host failure mode is the PFC pause storm: one
//! misbehaving RNIC cannot drain its receive buffer, pauses its switch
//! port, and the lossless switch — which must not drop — relays that pause
//! upstream to the sender ports feeding it. Because PFC pauses a whole
//! port (per priority), every flow sharing a paused sender port stalls,
//! including *victim* flows towards perfectly healthy receivers. The
//! hallmark the operator sees is a victim flow collapsing while the
//! culprit's own traffic still looks acceptable.
//!
//! This module scales the two-server subsystem model out to N hosts on one
//! shared switch. The substitution argument (see `DESIGN.md`): the fleet is
//! homogeneous, so every (sender, culprit) pair behaves exactly like the
//! calibrated two-host [`Subsystem`](crate::subsystem::Subsystem) — the
//! culprit's local pause behaviour is taken from that model unchanged — and
//! the only genuinely new physics is the *switch-level relay*, which is
//! expressed with [`PauseAccount::propagated`]: pause quanta are integral
//! and the shared-buffer thresholds carry hysteresis, so the upstream pause
//! grows with the number of senders sharing the congested egress. Traffic
//! matrices are admissible by construction (incast senders split the
//! egress line rate), so any pause is host-caused, never congestion — the
//! paper's premise, preserved at N ports.

use crate::counters::fabric;
use crate::pfc::PauseAccount;
use crate::spec::RnicSpec;
use crate::subsystem::Measurement;
use collie_host::switch::LosslessSwitch;
use collie_sim::counters::{CounterKind, CounterSnapshot};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Pause ratio above which a port counts as "storming" for the spread
/// gauge. Matches the anomaly monitor's default pause threshold (§5.2).
pub const PAUSE_SPREAD_THRESHOLD: f64 = 0.001;

/// Hard cap on switch-level pause amplification (quanta rounding and
/// buffer hysteresis saturate once the egress is continuously paused).
const MAX_AMPLIFICATION: f64 = 4.0;

/// The shape of a fabric traffic matrix (search Dimension 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TrafficPattern {
    /// `incast_degree` senders all target the culprit host; one of them
    /// also carries a benign victim flow to a healthy receiver.
    Incast,
    /// A benign all-hosts ring (host *i* → host *i+1*) with the incast
    /// overlay on top; the ring edge out of a paused sender is the victim.
    Ring,
    /// Hosts are paired off; only the culprit's partner sends to it. The
    /// storm has no port to spread to — the control shape.
    Paired,
}

impl TrafficPattern {
    /// All patterns, in ladder order.
    pub const ALL: [TrafficPattern; 3] = [
        TrafficPattern::Incast,
        TrafficPattern::Ring,
        TrafficPattern::Paired,
    ];

    /// Per-extra-sender pause amplification: how quickly the switch-level
    /// relay overshoots the culprit's own deficit as more senders share the
    /// congested egress. The ring pattern's background traffic keeps the
    /// shared buffer fuller, so its thresholds trip sooner.
    fn spread_per_sender(self) -> f64 {
        match self {
            TrafficPattern::Incast => 0.5,
            TrafficPattern::Ring => 0.7,
            TrafficPattern::Paired => 0.0,
        }
    }
}

impl fmt::Display for TrafficPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficPattern::Incast => write!(f, "incast"),
            TrafficPattern::Ring => write!(f, "ring"),
            TrafficPattern::Paired => write!(f, "paired"),
        }
    }
}

/// The fabric-level coordinates of one experiment: how many hosts sit on
/// the switch, how many of them gang up on the culprit, and what the rest
/// of the matrix looks like.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FabricShape {
    /// Hosts attached to the switch (port per host; clamped to >= 2).
    pub host_count: u32,
    /// Senders directing the searched workload at the culprit (clamped to
    /// `1..=host_count-1`; the paired pattern uses exactly one).
    pub incast_degree: u32,
    /// Traffic-matrix shape around the culprit flow.
    pub pattern: TrafficPattern,
}

impl FabricShape {
    /// The paper's two-host testbed as a fabric shape.
    pub fn two_host() -> FabricShape {
        FabricShape {
            host_count: 2,
            incast_degree: 1,
            pattern: TrafficPattern::Paired,
        }
    }

    /// The shape with every coordinate clamped to its valid range. The
    /// search mutates coordinates independently, so transiently
    /// inconsistent shapes (incast degree beyond the host count) are
    /// well-defined rather than rejected.
    pub fn normalized(self) -> FabricShape {
        let host_count = self.host_count.max(2);
        let max_incast = match self.pattern {
            TrafficPattern::Paired => 1,
            _ => host_count - 1,
        };
        FabricShape {
            host_count,
            incast_degree: self.incast_degree.clamp(1, max_incast),
            pattern: self.pattern,
        }
    }

    /// Switch ports carrying culprit-bound traffic (the ports the storm
    /// propagates to). The culprit sits on port 0; senders occupy ports
    /// `1..=incast_degree`.
    pub fn sender_ports(self) -> std::ops::RangeInclusive<usize> {
        let s = self.normalized();
        1..=(s.incast_degree as usize)
    }

    /// True if the matrix contains a victim flow: a benign flow leaving a
    /// pause-propagated sender port towards a healthy receiver. Needs a
    /// third host, and the paired pattern isolates its pairs by design.
    ///
    /// The victim *receiver* may itself be an incast sender (at full
    /// incast, host 2 plays both roles): PFC pauses a host's
    /// *transmission*, so a sender's receive direction stays healthy and
    /// can absorb the victim flow — only the victim's *sender* port (1)
    /// being paused throttles it.
    pub fn has_victim(self) -> bool {
        let s = self.normalized();
        s.host_count >= 3 && s.pattern != TrafficPattern::Paired
    }

    /// Switch-level pause amplification for this shape (>= 1, capped).
    pub fn amplification(self) -> f64 {
        let s = self.normalized();
        let extra_senders = (s.incast_degree - 1) as f64;
        (1.0 + s.pattern.spread_per_sender() * extra_senders).min(MAX_AMPLIFICATION)
    }
}

/// How close a measurement comes to the RNIC specification: the worst,
/// over directions that carried traffic, of the best of the bits/s and
/// packets/s fractions. This is the same health notion the anomaly
/// monitor's `spec_fraction` uses (§5.2's "throughput not bottlenecked by
/// the specification").
pub fn spec_fraction(measurement: &Measurement, spec: &RnicSpec) -> f64 {
    if measurement.directions.is_empty() {
        return 0.0;
    }
    let mut worst: f64 = 1.0;
    for dir in &measurement.directions {
        let bps = dir.throughput.fraction_of(spec.line_rate);
        let pps = dir.packet_rate.fraction_of(spec.max_packet_rate);
        worst = worst.min(bps.max(pps));
    }
    worst
}

/// The result of one fabric experiment: the culprit's local two-host
/// measurement plus the cross-host observables derived from the switch
/// relay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FabricMeasurement {
    /// The shape actually evaluated (normalized).
    pub shape: FabricShape,
    /// Pause-duration ratio per switch port (port 0 = culprit). The
    /// culprit pair's local observables are not duplicated here: its
    /// counters are flattened into [`FabricMeasurement::counters`] and its
    /// health into [`FabricMeasurement::culprit_throughput_frac`] — fabric
    /// measurements are memoized per point, so they stay lean.
    pub port_pause: Vec<f64>,
    /// Achieved / expected throughput of the worst victim flow (1.0 when
    /// the shape has no victim).
    pub victim_throughput_frac: f64,
    /// Pause ratio on the victim flow's sender port (0 without a victim).
    pub victim_pause_ratio: f64,
    /// Spec fraction of the culprit host's own traffic.
    pub culprit_throughput_frac: f64,
    /// Fraction of ports whose pause breaches [`PAUSE_SPREAD_THRESHOLD`].
    pub pause_spread: f64,
    /// Worst per-port pause ratio.
    pub max_port_pause: f64,
    /// The culprit's counter snapshot extended with the `fabric/*` gauges,
    /// so the search layer consumes one uniform counter surface.
    pub counters: CounterSnapshot,
}

/// Evaluate the fabric around an already-measured culprit workload.
///
/// * `culprit` — the two-host measurement of the searched workload, with
///   the culprit host on the receiving side.
/// * `baseline` — the measurement of the benign reference workload (what a
///   victim flow achieves on an idle fabric); measured once per engine.
///
/// Deterministic: a pure function of its arguments, which is what lets the
/// fabric evaluator memoize whole fabric measurements by point.
pub fn evaluate_fabric(
    spec: &RnicSpec,
    shape: FabricShape,
    culprit: &Measurement,
    baseline: &Measurement,
) -> FabricMeasurement {
    let shape = shape.normalized();
    let ports = shape.host_count as usize;
    let window_seconds = culprit.window.as_secs_f64().max(1e-9);

    // The culprit's RNIC pauses its own switch port exactly as the
    // two-host model says it does.
    let culprit_pause = PauseAccount {
        pause_ratio: culprit.max_pause_ratio(),
    };
    // The switch relays that pause to every port feeding the culprit,
    // amplified by quanta rounding and shared-buffer hysteresis.
    let upstream = culprit_pause.propagated(shape.amplification());

    let mut switch = LosslessSwitch::with_ports(spec.line_rate, ports);
    switch.record_pause(0, culprit_pause.pause_ratio * window_seconds);
    for port in shape.sender_ports() {
        switch.record_pause(port, upstream.pause_ratio * window_seconds);
    }
    let port_pause = switch.pause_ratios(window_seconds);

    let culprit_throughput_frac = spec_fraction(culprit, spec);
    let baseline_frac = spec_fraction(baseline, spec);

    // The victim flow leaves sender port 1; PFC pauses the whole port, so
    // the victim moves payload only in the unpaused fraction of the window.
    let (victim_pause_ratio, victim_throughput_frac) = if shape.has_victim() {
        let pause = port_pause.get(1).copied().unwrap_or(0.0);
        (pause, baseline_frac * (1.0 - pause))
    } else {
        (0.0, baseline_frac)
    };

    let storming = port_pause
        .iter()
        .filter(|p| **p > PAUSE_SPREAD_THRESHOLD)
        .count();
    let pause_spread = storming as f64 / ports as f64;
    let max_port_pause = port_pause.iter().copied().fold(0.0, f64::max);

    // The culprit's schema is extended by the gauges once (the merge plan
    // is cached in it); every later measurement only copies values.
    let gauges = [
        victim_throughput_frac,
        victim_pause_ratio,
        culprit_throughput_frac,
        pause_spread,
        max_port_pause,
    ];
    let extra: [(&str, CounterKind, f64); 5] =
        std::array::from_fn(|i| (fabric::ALL[i], fabric::KINDS[i], gauges[i]));
    let counters = culprit.counters.merged(&extra);

    FabricMeasurement {
        shape,
        port_pause,
        victim_throughput_frac,
        victim_pause_ratio,
        culprit_throughput_frac,
        pause_spread,
        max_port_pause,
        counters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subsystems::SubsystemId;
    use crate::workload::{Direction, FlowSpec, MessagePattern, Opcode, Transport, WorkloadSpec};
    use collie_host::memory::MemoryTarget;

    fn shape(n: u32, k: u32, pattern: TrafficPattern) -> FabricShape {
        FabricShape {
            host_count: n,
            incast_degree: k,
            pattern,
        }
    }

    fn benign_measurement() -> Measurement {
        let mut sys = SubsystemId::F.build();
        let mut flow = FlowSpec::basic(Direction::AToB);
        flow.num_qps = 8;
        flow.messages = MessagePattern::uniform(64 * 1024);
        sys.evaluate(&WorkloadSpec::single(flow))
    }

    /// A cross-socket receive workload: moderate pause, near-healthy
    /// throughput — the classic storm culprit.
    fn moderately_paused_measurement() -> Measurement {
        let mut sys = SubsystemId::F.build();
        let mut fwd = FlowSpec::basic(Direction::AToB);
        fwd.num_qps = 8;
        fwd.messages = MessagePattern::uniform(64 * 1024);
        fwd.dst_memory = MemoryTarget::HostDram { numa_node: 1 };
        let mut rev = fwd.clone();
        rev.direction = Direction::BToA;
        sys.evaluate(&WorkloadSpec {
            flows: vec![fwd, rev],
        })
    }

    /// A severe local anomaly: receive-WQE thrash, large pause.
    fn storming_measurement() -> Measurement {
        let mut sys = SubsystemId::F.build();
        let mut f = FlowSpec::basic(Direction::AToB);
        f.transport = Transport::Ud;
        f.opcode = Opcode::Send;
        f.wqe_batch = 64;
        f.recv_queue_depth = 256;
        f.send_queue_depth = 256;
        f.mtu = 2048;
        f.messages = MessagePattern::uniform(2048);
        sys.evaluate(&WorkloadSpec::single(f))
    }

    #[test]
    fn shapes_normalize_and_amplify_sensibly() {
        let s = shape(0, 99, TrafficPattern::Incast).normalized();
        assert_eq!(s.host_count, 2);
        assert_eq!(s.incast_degree, 1);
        assert_eq!(s.amplification(), 1.0);

        let s = shape(8, 5, TrafficPattern::Incast);
        assert_eq!(s.normalized(), s);
        assert!(s.amplification() > 1.0);
        assert!(s.amplification() <= MAX_AMPLIFICATION);
        // Paired never spreads and never gangs up.
        let p = shape(8, 5, TrafficPattern::Paired).normalized();
        assert_eq!(p.incast_degree, 1);
        assert_eq!(p.amplification(), 1.0);
        assert!(!p.has_victim());
        // Victims need a third host.
        assert!(!shape(2, 1, TrafficPattern::Incast).has_victim());
        assert!(shape(3, 2, TrafficPattern::Ring).has_victim());
    }

    #[test]
    fn benign_culprit_leaves_the_fabric_quiet() {
        let spec = SubsystemId::F.rnic_model().spec();
        let benign = benign_measurement();
        let fm = evaluate_fabric(&spec, shape(6, 4, TrafficPattern::Incast), &benign, &benign);
        assert!(fm.max_port_pause < PAUSE_SPREAD_THRESHOLD);
        assert_eq!(fm.pause_spread, 0.0);
        assert_eq!(fm.victim_pause_ratio, 0.0);
        assert!(fm.victim_throughput_frac > 0.9);
        assert!(fm.culprit_throughput_frac > 0.9);
    }

    #[test]
    fn pause_propagates_to_sender_ports_and_collapses_the_victim() {
        let spec = SubsystemId::F.rnic_model().spec();
        let culprit = storming_measurement();
        let baseline = benign_measurement();
        let fm = evaluate_fabric(
            &spec,
            shape(6, 4, TrafficPattern::Incast),
            &culprit,
            &baseline,
        );
        // Port 0 carries the culprit's own pause; ports 1..=4 the relay.
        assert!(fm.port_pause[0] > 0.1);
        for port in 1..=4 {
            assert!(
                fm.port_pause[port] >= fm.port_pause[0] * 0.99,
                "relayed pause on port {port} should not shrink: {:?}",
                fm.port_pause
            );
        }
        // Port 5 hosts the victim receiver: healthy, unpaused.
        assert_eq!(fm.port_pause[5], 0.0);
        assert!(fm.victim_pause_ratio > 0.1);
        assert!(fm.victim_throughput_frac < 0.8);
        assert!(fm.pause_spread >= 5.0 / 6.0 - 1e-9);
    }

    #[test]
    fn amplification_grows_with_incast_degree() {
        let spec = SubsystemId::F.rnic_model().spec();
        let culprit = moderately_paused_measurement();
        let baseline = benign_measurement();
        let narrow = evaluate_fabric(
            &spec,
            shape(8, 1, TrafficPattern::Incast),
            &culprit,
            &baseline,
        );
        let wide = evaluate_fabric(
            &spec,
            shape(8, 6, TrafficPattern::Incast),
            &culprit,
            &baseline,
        );
        assert!(
            wide.victim_pause_ratio > narrow.victim_pause_ratio,
            "wider incast must propagate more pause: {} vs {}",
            wide.victim_pause_ratio,
            narrow.victim_pause_ratio
        );
        assert!(wide.victim_throughput_frac < narrow.victim_throughput_frac);
    }

    #[test]
    fn cross_host_hallmark_victim_collapses_while_culprit_stays_healthy() {
        let spec = SubsystemId::F.rnic_model().spec();
        let culprit = moderately_paused_measurement();
        let baseline = benign_measurement();
        let fm = evaluate_fabric(
            &spec,
            shape(8, 6, TrafficPattern::Ring),
            &culprit,
            &baseline,
        );
        assert!(
            fm.culprit_throughput_frac >= 0.8,
            "culprit should look healthy: {}",
            fm.culprit_throughput_frac
        );
        assert!(
            fm.victim_throughput_frac < 0.8,
            "victim should collapse: {}",
            fm.victim_throughput_frac
        );
        assert!(fm.victim_pause_ratio > PAUSE_SPREAD_THRESHOLD);
    }

    #[test]
    fn paired_pattern_contains_the_storm() {
        let spec = SubsystemId::F.rnic_model().spec();
        let culprit = storming_measurement();
        let baseline = benign_measurement();
        let fm = evaluate_fabric(
            &spec,
            shape(6, 4, TrafficPattern::Paired),
            &culprit,
            &baseline,
        );
        // Only the culprit's partner port is paused, and no victim exists.
        assert!(fm.port_pause[1] > 0.0);
        assert!(fm.port_pause[2..].iter().all(|p| *p == 0.0));
        assert_eq!(fm.victim_pause_ratio, 0.0);
        assert!(fm.victim_throughput_frac > 0.9);
    }

    #[test]
    fn gauges_are_published_through_the_counter_snapshot() {
        let spec = SubsystemId::F.rnic_model().spec();
        let culprit = storming_measurement();
        let baseline = benign_measurement();
        let fm = evaluate_fabric(
            &spec,
            shape(4, 3, TrafficPattern::Incast),
            &culprit,
            &baseline,
        );
        for name in fabric::ALL {
            assert!(fm.counters.value(name).is_some(), "{name} missing");
        }
        assert_eq!(
            fm.counters.value(fabric::VICTIM_PAUSE_RATIO),
            Some(fm.victim_pause_ratio)
        );
        // The throughput fractions are minimised, the pause gauges
        // maximised.
        for (name, kind) in [
            (fabric::VICTIM_THROUGHPUT_FRAC, CounterKind::Performance),
            (fabric::CULPRIT_THROUGHPUT_FRAC, CounterKind::Performance),
            (fabric::VICTIM_PAUSE_RATIO, CounterKind::Diagnostic),
            (fabric::PAUSE_SPREAD, CounterKind::Diagnostic),
            (fabric::MAX_PORT_PAUSE, CounterKind::Diagnostic),
        ] {
            assert_eq!(fm.counters.kind(name), Some(kind), "{name}");
        }
        // The culprit's 13 RNIC counters survive alongside the 5 gauges.
        assert_eq!(fm.counters.len(), 13 + fabric::ALL.len());
    }

    #[test]
    fn evaluation_is_deterministic() {
        let spec = SubsystemId::F.rnic_model().spec();
        let culprit = storming_measurement();
        let baseline = benign_measurement();
        let s = shape(5, 3, TrafficPattern::Ring);
        let a = evaluate_fabric(&spec, s, &culprit, &baseline);
        let b = evaluate_fabric(&spec, s, &culprit, &baseline);
        assert_eq!(a, b);
    }
}
