//! Deterministic, forkable pseudo-random number generation.
//!
//! Every stochastic decision in the workspace — search-point mutation,
//! simulated-annealing acceptance, workload jitter — flows through
//! [`SimRng`] so that an entire search campaign is reproducible from one
//! `u64` seed. The generator is xoshiro256**-style built on a SplitMix64
//! seeder; it has no external dependencies so the substrate crates stay
//! dependency-light (the search crates additionally use `rand` for its
//! distribution helpers, seeded from values produced here).

use serde::{Deserialize, Serialize};

/// SplitMix64 step, used to expand a single `u64` seed into generator state
/// and to derive independent child streams.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small, fast, deterministic PRNG (xoshiro256** core).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Create a generator from a seed. Any seed (including 0) is valid.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derive an independent child generator identified by `stream`.
    ///
    /// Forking lets one campaign seed drive many independent components
    /// (e.g. one stream per search dimension) without the components'
    /// draws interleaving and perturbing each other when code changes.
    pub fn fork(&self, stream: u64) -> SimRng {
        let mut sm = self.s[0] ^ self.s[3] ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Next raw 64-bit value.
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform float in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        // 53 high bits give a uniformly distributed double in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[lo, hi]` (inclusive). Panics if `lo > hi`.
    pub fn gen_range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "gen_range_u64: lo {lo} > hi {hi}");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        // Rejection-free mapping is fine here: modulo bias over a 64-bit
        // draw is negligible for the small ranges the search uses.
        lo + self.next_u64() % (span + 1)
    }

    /// A uniform usize in `[lo, hi)` (half-open, like slice indexing).
    /// Panics if the range is empty.
    pub fn gen_index(&mut self, len: usize) -> usize {
        assert!(len > 0, "gen_index: empty range");
        (self.next_u64() % len as u64) as usize
    }

    /// A Bernoulli draw with probability `p` of returning `true`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Pick a uniformly random element of a slice. Panics on an empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.gen_index(items.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "seeds 1 and 2 produced {same}/32 identical draws");
    }

    #[test]
    fn forked_streams_are_independent_and_deterministic() {
        let root = SimRng::new(7);
        let mut c1 = root.fork(1);
        let mut c2 = root.fork(2);
        let mut c1b = root.fork(1);
        let a: Vec<u64> = (0..16).map(|_| c1.next_u64()).collect();
        let b: Vec<u64> = (0..16).map(|_| c1b.next_u64()).collect();
        assert_eq!(a, b, "same stream id must replay identically");
        let c: Vec<u64> = (0..16).map(|_| c2.next_u64()).collect();
        assert_ne!(a, c, "different stream ids must diverge");
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_inclusive_bounds() {
        let mut r = SimRng::new(9);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..10_000 {
            let x = r.gen_range_u64(3, 7);
            assert!((3..=7).contains(&x));
            seen_lo |= x == 3;
            seen_hi |= x == 7;
        }
        assert!(seen_lo && seen_hi, "both endpoints should be reachable");
    }

    #[test]
    fn gen_bool_rate_roughly_matches_p() {
        let mut r = SimRng::new(11);
        let hits = (0..20_000).filter(|_| r.gen_bool(0.25)).count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.25).abs() < 0.02, "observed rate {rate}");
    }

    #[test]
    fn choose_returns_member() {
        let mut r = SimRng::new(13);
        let items = [10, 20, 30];
        for _ in 0..100 {
            assert!(items.contains(r.choose(&items)));
        }
    }
}
