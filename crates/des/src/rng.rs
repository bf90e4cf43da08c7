//! Splittable, reproducible random-number streams.
//!
//! Reproducibility is load-bearing for the experiment methodology of the
//! paper: all 17 heuristics must be evaluated against *identical* processor
//! availability behaviour (common random numbers), otherwise the
//! degradation-from-best metric compares noise instead of policies. We
//! therefore never share a single RNG between components. Instead, a master
//! seed plus a *label path* (e.g. `["trace", scenario, trial, processor]`)
//! deterministically derives an independent stream.
//!
//! The generator is a self-contained xoshiro256++ (public-domain algorithm by
//! Blackman & Vigna) seeded through SplitMix64, so results do not depend on
//! the `rand` crate's unspecified `StdRng` algorithm and remain stable across
//! `rand` upgrades. The [`StreamRng`] type implements [`rand::RngCore`] so all
//! of `rand`'s distribution machinery works on top of it.

use rand::{RngCore, SeedableRng};

/// SplitMix64 — a tiny, high-quality 64-bit mixer.
///
/// Used (a) to expand a single `u64` seed into xoshiro's 256-bit state and
/// (b) as the hash combiner for [`SeedPath`] label paths. This is the
/// construction recommended by the xoshiro authors for seeding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a new mixer from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64-bit output and advances the state.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One-shot mix of two words; used to fold path labels into a seed.
#[inline]
#[must_use]
fn mix64(a: u64, b: u64) -> u64 {
    let mut sm = SplitMix64::new(a ^ b.rotate_left(32).wrapping_mul(0xD6E8_FEB8_6659_FD93));
    sm.next_u64()
}

/// A hierarchical seed derivation path.
///
/// `SeedPath::root(seed).child(label)…` folds each label into the seed with
/// a SplitMix64 mix. Distinct paths yield (with overwhelming probability)
/// independent streams; equal paths yield identical streams. Labels are
/// plain `u64`s; the workspace uses small enums/indices (scenario id,
/// trial, processor id, a per-component discriminant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeedPath {
    seed: u64,
}

impl SeedPath {
    /// Starts a derivation path at a master seed.
    #[must_use]
    pub fn root(master_seed: u64) -> Self {
        // Pre-mix so that master seeds 0, 1, 2… do not produce correlated
        // child paths for small labels.
        Self {
            seed: SplitMix64::new(master_seed).next_u64(),
        }
    }

    /// Derives a child path by folding in `label`.
    #[must_use]
    pub fn child(self, label: u64) -> Self {
        Self {
            seed: mix64(self.seed, label),
        }
    }

    /// Derives a child path from a string label (hashed FNV-1a).
    #[must_use]
    pub fn child_str(self, label: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self.child(h)
    }

    /// The seed at the current point of the path.
    #[must_use]
    pub fn seed(self) -> u64 {
        self.seed
    }

    /// Instantiates the RNG stream for this path.
    #[must_use]
    pub fn rng(self) -> StreamRng {
        StreamRng::seed_from_u64(self.seed)
    }
}

/// xoshiro256++ pseudo-random generator.
///
/// Period 2^256 − 1, passes BigCrush; not cryptographically secure (which is
/// fine for simulation). Implements [`RngCore`]/[`SeedableRng`] so it plugs
/// into `rand`'s `Rng` extension trait.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamRng {
    s: [u64; 4],
}

impl StreamRng {
    /// Advances the state and returns the next output word.
    #[inline]
    fn step(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        // Standard conversion: take the top 53 bits.
        (self.step() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[lo, hi)`.
    #[inline]
    pub fn f64_range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.f64()
    }

    /// Uniform integer in `[0, n)` via Lemire's widening-multiply method
    /// (unbiased thanks to the rejection step).
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index() requires a non-empty range");
        let n = n as u64;
        let mut x = self.step();
        let mut m = u128::from(x) * u128::from(n);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                x = self.step();
                m = u128::from(x) * u128::from(n);
                lo = m as u64;
            }
        }
        (m >> 64) as usize
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    #[inline]
    pub fn u64_range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        let span = hi - lo;
        if span == u64::MAX {
            return self.step();
        }
        lo + self.index((span + 1) as usize) as u64
    }

    /// Samples an index from a discrete distribution given by non-negative
    /// `weights` (need not be normalized). Returns `None` if the total weight
    /// is zero or not finite.
    pub fn weighted_index(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().sum();
        if total.is_nan() || total <= 0.0 || total.is_infinite() {
            return None;
        }
        let mut u = self.f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            debug_assert!(w >= 0.0, "negative weight");
            if u < w {
                return Some(i);
            }
            u -= w;
        }
        // Floating-point slack: fall back to the last strictly positive weight.
        weights.iter().rposition(|&w| w > 0.0)
    }
}

impl RngCore for StreamRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.step() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.step()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.step().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.step().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

impl SeedableRng for StreamRng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut s = [0u64; 4];
        for (i, word) in s.iter_mut().enumerate() {
            let mut b = [0u8; 8];
            b.copy_from_slice(&seed[i * 8..(i + 1) * 8]);
            *word = u64::from_le_bytes(b);
        }
        // xoshiro state must not be all-zero.
        if s == [0, 0, 0, 0] {
            s = [0x9E37_79B9_7F4A_7C15, 1, 2, 3];
        }
        Self { s }
    }

    fn seed_from_u64(state: u64) -> Self {
        let mut sm = SplitMix64::new(state);
        Self {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_known_values() {
        // Reference values for SplitMix64 with seed 1234567 (from the
        // reference C implementation by Sebastiano Vigna).
        let mut sm = SplitMix64::new(1234567);
        let a = sm.next_u64();
        let b = sm.next_u64();
        assert_eq!(a, 6457827717110365317);
        assert_eq!(b, 3203168211198807973);
    }

    #[test]
    fn xoshiro_is_deterministic() {
        let mut a = StreamRng::seed_from_u64(42);
        let mut b = StreamRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StreamRng::seed_from_u64(1);
        let mut b = StreamRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn zero_state_is_avoided() {
        let rng = StreamRng::from_seed([0u8; 32]);
        assert_ne!(rng.s, [0, 0, 0, 0]);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = StreamRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_is_near_half() {
        let mut rng = StreamRng::seed_from_u64(99);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.f64()).sum::<f64>() / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn index_covers_all_values() {
        let mut rng = StreamRng::seed_from_u64(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[rng.index(10)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn index_is_roughly_uniform() {
        let mut rng = StreamRng::seed_from_u64(4);
        let mut counts = [0u32; 8];
        let n = 80_000;
        for _ in 0..n {
            counts[rng.index(8)] += 1;
        }
        for &c in &counts {
            // Expected 10_000 per bucket; allow 5% slack (≫ 5 sigma).
            assert!((9_500..=10_500).contains(&c), "count {c}");
        }
    }

    #[test]
    fn u64_range_inclusive_endpoints() {
        let mut rng = StreamRng::seed_from_u64(5);
        for _ in 0..100 {
            assert_eq!(rng.u64_range_inclusive(9, 9), 9);
        }
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..1000 {
            match rng.u64_range_inclusive(1, 3) {
                1 => saw_lo = true,
                3 => saw_hi = true,
                2 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = StreamRng::seed_from_u64(6);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0u32; 3];
        for _ in 0..40_000 {
            counts[rng.weighted_index(&weights).unwrap()] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = f64::from(counts[2]) / f64::from(counts[0]);
        assert!((ratio - 3.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn weighted_index_zero_total_is_none() {
        let mut rng = StreamRng::seed_from_u64(8);
        assert_eq!(rng.weighted_index(&[0.0, 0.0]), None);
        assert_eq!(rng.weighted_index(&[]), None);
    }

    #[test]
    fn seed_path_is_order_sensitive() {
        let root = SeedPath::root(1);
        assert_ne!(root.child(1).child(2).seed(), root.child(2).child(1).seed());
        assert_eq!(root.child(1).child(2).seed(), root.child(1).child(2).seed());
    }

    #[test]
    fn seed_path_children_are_independent() {
        let root = SeedPath::root(123);
        let mut a = root.child(0).rng();
        let mut b = root.child(1).rng();
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn string_labels_derive_distinct_paths() {
        let root = SeedPath::root(5);
        assert_ne!(
            root.child_str("trace").seed(),
            root.child_str("sched").seed()
        );
        assert_eq!(
            root.child_str("trace").seed(),
            root.child_str("trace").seed()
        );
    }

    #[test]
    fn fill_bytes_handles_non_multiple_lengths() {
        let mut rng = StreamRng::seed_from_u64(11);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn rand_trait_integration() {
        use rand::Rng;
        let mut rng = StreamRng::seed_from_u64(13);
        let x: f64 = rng.random_range(2.0..3.0);
        assert!((2.0..3.0).contains(&x));
        let y: u32 = rng.random_range(0..10);
        assert!(y < 10);
    }
}
