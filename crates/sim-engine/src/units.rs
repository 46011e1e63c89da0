//! Data-size and rate units.
//!
//! RNIC specifications in the paper are quoted in Gbps (bits per second) and
//! Mpps (packets per second); memory regions and messages are quoted in
//! bytes, KB, and MB. These newtypes keep the two families of units from
//! being mixed up and centralise the conversions (notably bytes-over-a-
//! duration to bit rate, which the anomaly monitor uses to compare measured
//! throughput against the specification).

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// A byte count.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ByteSize(u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Construct from a raw byte count.
    pub const fn from_bytes(b: u64) -> Self {
        ByteSize(b)
    }

    /// Construct from kibibytes (1024 bytes).
    pub const fn from_kib(k: u64) -> Self {
        ByteSize(k * 1024)
    }

    /// Construct from mebibytes.
    pub const fn from_mib(m: u64) -> Self {
        ByteSize(m * 1024 * 1024)
    }

    /// Construct from gibibytes.
    pub const fn from_gib(g: u64) -> Self {
        ByteSize(g * 1024 * 1024 * 1024)
    }

    /// Raw byte count.
    pub const fn as_bytes(self) -> u64 {
        self.0
    }

    /// Byte count as `f64` (for rate math).
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Bit count.
    pub const fn as_bits(self) -> u64 {
        self.0 * 8
    }

    /// Number of segments of `mtu` bytes needed to carry this payload
    /// (at least 1 even for a zero-byte message, matching how an RNIC still
    /// emits one packet for a 0-length SEND).
    pub fn segments(self, mtu: ByteSize) -> u64 {
        if mtu.0 == 0 {
            return 1;
        }
        self.0.div_ceil(mtu.0).max(1)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(other.0))
    }

    /// Multiply by a scalar count (e.g. bytes per message × messages).
    pub const fn scaled(self, n: u64) -> ByteSize {
        ByteSize(self.0 * n)
    }

    /// The smaller of two sizes.
    pub fn min(self, other: ByteSize) -> ByteSize {
        ByteSize(self.0.min(other.0))
    }

    /// The bit rate achieved by transferring this many bytes over `d`.
    /// Returns zero rate for a zero duration.
    pub fn over(self, d: SimDuration) -> BitRate {
        if d.is_zero() {
            return BitRate::ZERO;
        }
        BitRate::from_bits_per_sec(self.as_bits() as f64 / d.as_secs_f64())
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        self.0 += rhs.0;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 - rhs.0)
    }
}

impl Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> ByteSize {
        ByteSize(iter.map(|b| b.0).sum())
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= 1 << 30 {
            write!(f, "{:.2}GiB", b as f64 / (1u64 << 30) as f64)
        } else if b >= 1 << 20 {
            write!(f, "{:.2}MiB", b as f64 / (1u64 << 20) as f64)
        } else if b >= 1 << 10 {
            write!(f, "{:.2}KiB", b as f64 / 1024.0)
        } else {
            write!(f, "{b}B")
        }
    }
}

/// A data rate in bits per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct BitRate(f64);

impl BitRate {
    /// Zero rate.
    pub const ZERO: BitRate = BitRate(0.0);

    /// Construct from bits per second.
    pub fn from_bits_per_sec(bps: f64) -> Self {
        BitRate(bps.max(0.0))
    }

    /// Construct from gigabits per second (the unit the paper quotes RNIC
    /// line rates in: 25, 100, 200 Gbps).
    pub fn from_gbps(g: f64) -> Self {
        BitRate((g * 1e9).max(0.0))
    }

    /// Bits per second.
    pub fn bits_per_sec(self) -> f64 {
        self.0
    }

    /// Bytes per second.
    pub fn bytes_per_sec(self) -> f64 {
        self.0 / 8.0
    }

    /// Gigabits per second.
    pub fn gbps(self) -> f64 {
        self.0 / 1e9
    }

    /// Time needed to transfer `bytes` at this rate. Returns zero for a zero
    /// payload and `None` for a zero rate and non-zero payload.
    pub fn time_to_send(self, bytes: ByteSize) -> Option<SimDuration> {
        if bytes.as_bytes() == 0 {
            return Some(SimDuration::ZERO);
        }
        if self.0 <= 0.0 {
            return None;
        }
        Some(SimDuration::from_secs_f64(bytes.as_bits() as f64 / self.0))
    }

    /// Scale the rate by a unitless factor, clamping at zero.
    pub fn scaled(self, factor: f64) -> BitRate {
        BitRate((self.0 * factor).max(0.0))
    }

    /// The smaller of two rates.
    pub fn min(self, other: BitRate) -> BitRate {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// The larger of two rates.
    pub fn max(self, other: BitRate) -> BitRate {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The fraction `self / spec`, clamped to `[0, inf)`; 0 when spec is 0.
    pub fn fraction_of(self, spec: BitRate) -> f64 {
        if spec.0 <= 0.0 {
            0.0
        } else {
            self.0 / spec.0
        }
    }
}

impl Add for BitRate {
    type Output = BitRate;
    fn add(self, rhs: BitRate) -> BitRate {
        BitRate(self.0 + rhs.0)
    }
}

impl fmt::Display for BitRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e9 {
            write!(f, "{:.2}Gbps", self.gbps())
        } else if self.0 >= 1e6 {
            write!(f, "{:.2}Mbps", self.0 / 1e6)
        } else {
            write!(f, "{:.0}bps", self.0)
        }
    }
}

/// A packet (or message/request) rate in packets per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct PacketRate(f64);

impl PacketRate {
    /// Zero rate.
    pub const ZERO: PacketRate = PacketRate(0.0);

    /// Construct from packets per second.
    pub fn from_pps(pps: f64) -> Self {
        PacketRate(pps.max(0.0))
    }

    /// Construct from millions of packets per second (the unit RNIC message
    /// rate specifications use).
    pub fn from_mpps(m: f64) -> Self {
        PacketRate((m * 1e6).max(0.0))
    }

    /// Packets per second.
    pub fn pps(self) -> f64 {
        self.0
    }

    /// Millions of packets per second.
    pub fn mpps(self) -> f64 {
        self.0 / 1e6
    }

    /// Scale by a unitless factor, clamping at zero.
    pub fn scaled(self, factor: f64) -> PacketRate {
        PacketRate((self.0 * factor).max(0.0))
    }

    /// The smaller of two rates.
    pub fn min(self, other: PacketRate) -> PacketRate {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// The fraction `self / spec`, 0 when spec is 0.
    pub fn fraction_of(self, spec: PacketRate) -> f64 {
        if spec.0 <= 0.0 {
            0.0
        } else {
            self.0 / spec.0
        }
    }
}

impl fmt::Display for PacketRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e6 {
            write!(f, "{:.2}Mpps", self.mpps())
        } else {
            write!(f, "{:.0}pps", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_size_conversions() {
        assert_eq!(ByteSize::from_kib(4).as_bytes(), 4096);
        assert_eq!(ByteSize::from_mib(1).as_bytes(), 1 << 20);
        assert_eq!(ByteSize::from_bytes(10).as_bits(), 80);
    }

    #[test]
    fn segmentation_matches_mtu_math() {
        let mtu = ByteSize::from_bytes(1024);
        assert_eq!(ByteSize::from_bytes(1).segments(mtu), 1);
        assert_eq!(ByteSize::from_bytes(1024).segments(mtu), 1);
        assert_eq!(ByteSize::from_bytes(1025).segments(mtu), 2);
        assert_eq!(ByteSize::from_kib(64).segments(mtu), 64);
        // Zero-length messages still occupy a packet.
        assert_eq!(ByteSize::ZERO.segments(mtu), 1);
        // Degenerate zero MTU does not panic.
        assert_eq!(ByteSize::from_bytes(100).segments(ByteSize::ZERO), 1);
    }

    #[test]
    fn bitrate_conversions() {
        let r = BitRate::from_gbps(100.0);
        assert!((r.bytes_per_sec() - 12.5e9).abs() < 1.0);
        assert!((r.gbps() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn time_to_send_and_back() {
        let r = BitRate::from_gbps(8.0); // 1 GB/s
        let d = r.time_to_send(ByteSize::from_bytes(1_000_000_000)).unwrap();
        assert!((d.as_secs_f64() - 1.0).abs() < 1e-6);
        assert_eq!(r.time_to_send(ByteSize::ZERO).unwrap(), SimDuration::ZERO);
        assert!(BitRate::ZERO
            .time_to_send(ByteSize::from_bytes(1))
            .is_none());
    }

    #[test]
    fn rate_over_duration() {
        let rate = ByteSize::from_bytes(125_000_000).over(SimDuration::from_secs(1));
        assert!((rate.gbps() - 1.0).abs() < 1e-9);
        assert_eq!(
            ByteSize::from_bytes(1).over(SimDuration::ZERO),
            BitRate::ZERO
        );
    }

    #[test]
    fn fraction_of_spec() {
        let spec = BitRate::from_gbps(200.0);
        let measured = BitRate::from_gbps(150.0);
        assert!((measured.fraction_of(spec) - 0.75).abs() < 1e-12);
        assert_eq!(measured.fraction_of(BitRate::ZERO), 0.0);
    }

    #[test]
    fn packet_rate_units() {
        let r = PacketRate::from_mpps(200.0);
        assert!((r.pps() - 200e6).abs() < 1.0);
        assert!((r.scaled(0.5).mpps() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn negative_inputs_clamp_to_zero() {
        assert_eq!(BitRate::from_gbps(-5.0), BitRate::ZERO);
        assert_eq!(PacketRate::from_pps(-1.0), PacketRate::ZERO);
        assert_eq!(BitRate::from_gbps(1.0).scaled(-2.0), BitRate::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", ByteSize::from_kib(64)), "64.00KiB");
        assert_eq!(format!("{}", BitRate::from_gbps(25.0)), "25.00Gbps");
        assert_eq!(format!("{}", PacketRate::from_mpps(1.5)), "1.50Mpps");
    }
}
