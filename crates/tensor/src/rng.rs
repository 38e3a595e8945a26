//! Deterministic pseudo-random number generation.
//!
//! Experiments in the paper are repeated five times with different seeds; a
//! small self-contained xorshift generator keeps every run bit-reproducible
//! regardless of platform or dependency versions.

/// SplitMix64 finaliser: a fast, high-quality bit mixer used to derive
/// decorrelated deterministic seeds from structured inputs (episode indices,
/// update counters, epoch numbers) — sequential inputs map to statistically
/// independent outputs.
///
/// # Examples
///
/// ```
/// use xrlflow_tensor::splitmix64;
///
/// assert_eq!(splitmix64(7), splitmix64(7));
/// assert_ne!(splitmix64(7), splitmix64(8));
/// ```
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A small, fast, deterministic xorshift64* random number generator.
///
/// # Examples
///
/// ```
/// use xrlflow_tensor::XorShiftRng;
///
/// let mut rng = XorShiftRng::new(42);
/// let x = rng.uniform(0.0, 1.0);
/// assert!((0.0..1.0).contains(&x));
/// ```
#[derive(Debug, Clone)]
pub struct XorShiftRng {
    state: u64,
}

impl XorShiftRng {
    /// Creates a generator from a seed. A zero seed is remapped to a fixed
    /// non-zero constant because the all-zero state is a fixed point.
    pub fn new(seed: u64) -> Self {
        Self { state: if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed } }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Uniform float in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.next_f32()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn gen_range(&mut self, n: usize) -> usize {
        assert!(n > 0, "gen_range requires n > 0");
        (self.next_u64() % n as u64) as usize
    }

    /// Samples an index from an (unnormalised, non-negative) weight vector.
    ///
    /// # Panics
    ///
    /// Panics if the weights are empty or sum to zero.
    pub fn sample_weighted(&mut self, weights: &[f32]) -> usize {
        let total: f32 = weights.iter().sum();
        assert!(!weights.is_empty() && total > 0.0, "weights must be non-empty with positive sum");
        let mut r = self.next_f32() * total;
        for (i, &w) in weights.iter().enumerate() {
            if r < w {
                return i;
            }
            r -= w;
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = XorShiftRng::new(123);
        let mut b = XorShiftRng::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = XorShiftRng::new(1);
        let mut b = XorShiftRng::new(2);
        let same = (0..20).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 3);
    }

    #[test]
    fn uniform_in_range() {
        let mut rng = XorShiftRng::new(7);
        for _ in 0..1000 {
            let x = rng.uniform(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_bounds() {
        let mut rng = XorShiftRng::new(5);
        for _ in 0..1000 {
            assert!(rng.gen_range(7) < 7);
        }
    }

    #[test]
    fn sample_weighted_prefers_heavy_weights() {
        let mut rng = XorShiftRng::new(9);
        let weights = [0.01, 0.01, 10.0];
        let mut counts = [0usize; 3];
        for _ in 0..1000 {
            counts[rng.sample_weighted(&weights)] += 1;
        }
        assert!(counts[2] > 900);
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut rng = XorShiftRng::new(0);
        assert_ne!(rng.next_u64(), 0);
    }

    #[test]
    fn splitmix64_decorrelates_sequential_inputs() {
        let outputs: std::collections::HashSet<u64> = (0..256).map(splitmix64).collect();
        assert_eq!(outputs.len(), 256, "sequential inputs must map to distinct outputs");
        // Adjacent inputs differ in many bits, not just the low ones.
        let diff = (splitmix64(1) ^ splitmix64(2)).count_ones();
        assert!(diff > 16, "adjacent outputs share too many bits ({diff} differ)");
    }
}
