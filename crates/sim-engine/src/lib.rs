//! # collie-sim
//!
//! Deterministic simulation substrate for the Collie reproduction.
//!
//! The Collie paper drives real hardware; this workspace drives a behavioural
//! model of that hardware instead. Everything in this crate is the
//! domain-agnostic machinery that the host, RNIC, and verbs models sit on
//! top of:
//!
//! * [`time`] — nanosecond-resolution simulated time and durations.
//! * [`units`] — byte counts, bit rates, packet rates, and conversions
//!   between them (the RNIC specifications in the paper are expressed in
//!   Gbps and Mpps).
//! * [`rng`] — a seedable, forkable PRNG with no external dependencies so
//!   that every simulation and every search campaign is exactly
//!   reproducible from a single `u64` seed.
//! * [`counters`] — the counter schema. Collie's whole search signal is
//!   "performance counters" and "diagnostic counters"; every hardware model
//!   declares its set once as a schema and publishes snapshots over it, so
//!   the search reads them all the same way.
//! * [`stats`] — online statistics and percentile summaries used by the
//!   anomaly monitor and the benchmark harness.
//! * [`series`] — time series recording, used to regenerate Figure 6
//!   (diagnostic counter value during the search).
//!
//! The crate is deliberately free of any RDMA-specific concepts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counters;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;
pub mod units;

pub use counters::{CounterKind, CounterSchema, CounterSnapshot};
pub use rng::SimRng;
pub use series::TimeSeries;
pub use stats::{OnlineStats, Summary};
pub use time::{SimDuration, SimTime};
pub use units::{BitRate, ByteSize, PacketRate};
