//! A tiny deterministic PRNG (PCG-XSH-RR 32) used for reproducible
//! synthetic data: component catalogs, sensor noise, SLAM datasets and
//! micro-architecture workload traces.
//!
//! Keeping the generator in-tree means every crate produces bit-identical
//! experiment data from a seed, independent of external crate versions.

/// Deterministic PCG-32 pseudo-random number generator.
///
/// # Example
///
/// ```
/// use drone_math::Pcg32;
/// let mut a = Pcg32::seed_from(42);
/// let mut b = Pcg32::seed_from(42);
/// assert_eq!(a.next_u32(), b.next_u32());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

const PCG_MULT: u64 = 6364136223846793005;

impl Pcg32 {
    /// Creates a generator from a seed and stream-selector pair.
    pub fn new(seed: u64, stream: u64) -> Pcg32 {
        let mut rng = Pcg32 {
            state: 0,
            inc: (stream << 1) | 1,
        };
        rng.next_u32();
        rng.state = rng.state.wrapping_add(seed);
        rng.next_u32();
        rng
    }

    /// Creates a generator on the default stream.
    pub fn seed_from(seed: u64) -> Pcg32 {
        Pcg32::new(seed, 0xda3e_39cb_94b9_5bdb)
    }

    /// Next uniformly distributed 32-bit value.
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Next uniformly distributed 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        ((self.next_u32() as u64) << 32) | self.next_u32() as u64
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random bits → [0, 1).
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "invalid uniform range: {lo} > {hi}");
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)` using rejection sampling (unbiased).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u32) -> u32 {
        assert!(n > 0, "below(0) is meaningless");
        let zone = u32::MAX - (u32::MAX % n);
        loop {
            let v = self.next_u32();
            if v < zone {
                return v % n;
            }
        }
    }

    /// Standard-normal sample via Box–Muller.
    pub fn normal(&mut self) -> f64 {
        // Avoid ln(0).
        let u1 = (1.0 - self.next_f64()).max(1e-300);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.normal()
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u32 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Pcg32::seed_from(7);
        let mut b = Pcg32::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
        let mut c = Pcg32::seed_from(8);
        assert_ne!(Pcg32::seed_from(7).next_u64(), c.next_u64());
    }

    #[test]
    fn uniform_in_range() {
        let mut rng = Pcg32::seed_from(1);
        for _ in 0..10_000 {
            let v = rng.uniform(-3.0, 5.0);
            assert!((-3.0..5.0).contains(&v));
        }
    }

    #[test]
    fn f64_in_unit_interval_with_plausible_mean() {
        let mut rng = Pcg32::seed_from(2);
        let n = 50_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_is_bounded_and_covers() {
        let mut rng = Pcg32::seed_from(3);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = rng.below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        let _ = Pcg32::seed_from(0).below(0);
    }

    #[test]
    fn normal_moments() {
        let mut rng = Pcg32::seed_from(4);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Pcg32::seed_from(5);
        assert!(!(0..100).any(|_| rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Pcg32::seed_from(6);
        let mut xs: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            xs,
            (0..50).collect::<Vec<_>>(),
            "50 elements should not stay in order"
        );
    }
}
