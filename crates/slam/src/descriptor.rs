//! 256-bit binary feature descriptors (BRIEF/ORB-style) with Hamming
//! matching and Lowe-style ratio testing.

use drone_math::Pcg32;

/// Number of 64-bit words in a descriptor (256 bits, like ORB).
pub const DESCRIPTOR_WORDS: usize = 4;

/// A 256-bit binary descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Descriptor(pub [u64; DESCRIPTOR_WORDS]);

impl Descriptor {
    /// A uniformly random descriptor.
    pub fn random(rng: &mut Pcg32) -> Descriptor {
        Descriptor(std::array::from_fn(|_| rng.next_u64()))
    }

    /// Hamming distance (0–256).
    pub fn hamming(&self, other: &Descriptor) -> u32 {
        self.0
            .iter()
            .zip(&other.0)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum()
    }

    /// A copy with each bit independently flipped with probability `p`
    /// (sensor noise / viewpoint change).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn corrupted(&self, p: f64, rng: &mut Pcg32) -> Descriptor {
        assert!((0.0..=1.0).contains(&p), "flip probability out of range");
        let mut out = *self;
        if p <= 0.0 {
            return out;
        }
        for word in &mut out.0 {
            for bit in 0..64 {
                if rng.chance(p) {
                    *word ^= 1 << bit;
                }
            }
        }
        out
    }
}

/// Outcome of matching one query descriptor against a set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Match {
    /// Index of the best candidate.
    pub index: usize,
    /// Hamming distance of the best candidate.
    pub distance: u32,
}

/// Brute-force nearest-neighbour matcher with a ratio test.
///
/// A match is accepted when the best distance is below
/// `max_distance` **and** clearly better than the second best
/// (`best < ratio · second_best`), rejecting ambiguous matches the way
/// ORB-SLAM's matcher does.
///
/// # Example
///
/// ```
/// use drone_slam::descriptor::{match_descriptor, Descriptor};
/// use drone_math::Pcg32;
/// let mut rng = Pcg32::seed_from(1);
/// let set: Vec<Descriptor> = (0..50).map(|_| Descriptor::random(&mut rng)).collect();
/// let query = set[7].corrupted(0.02, &mut rng);
/// let m = match_descriptor(&query, &set, 64, 0.8).expect("should match");
/// assert_eq!(m.index, 7);
/// ```
pub fn match_descriptor(
    query: &Descriptor,
    candidates: &[Descriptor],
    max_distance: u32,
    ratio: f64,
) -> Option<Match> {
    let mut best: Option<Match> = None;
    let mut second_best = u32::MAX;
    for (index, c) in candidates.iter().enumerate() {
        let d = query.hamming(c);
        match best {
            None => best = Some(Match { index, distance: d }),
            Some(b) if d < b.distance => {
                second_best = b.distance;
                best = Some(Match { index, distance: d });
            }
            Some(_) if d < second_best => second_best = d,
            _ => {}
        }
    }
    let b = best?;
    if b.distance > max_distance {
        return None;
    }
    if second_best != u32::MAX && f64::from(b.distance) >= ratio * f64::from(second_best) {
        return None;
    }
    Some(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hamming_basics() {
        let zero = Descriptor([0; 4]);
        let ones = Descriptor([u64::MAX; 4]);
        assert_eq!(zero.hamming(&zero), 0);
        assert_eq!(zero.hamming(&ones), 256);
        let one_bit = Descriptor([1, 0, 0, 0]);
        assert_eq!(zero.hamming(&one_bit), 1);
    }

    #[test]
    fn hamming_is_symmetric() {
        let mut rng = Pcg32::seed_from(2);
        for _ in 0..50 {
            let a = Descriptor::random(&mut rng);
            let b = Descriptor::random(&mut rng);
            assert_eq!(a.hamming(&b), b.hamming(&a));
        }
    }

    #[test]
    fn random_pairs_are_far() {
        // Expected distance 128, σ = 8: anything below 90 is essentially
        // impossible for random pairs.
        let mut rng = Pcg32::seed_from(3);
        for _ in 0..200 {
            let a = Descriptor::random(&mut rng);
            let b = Descriptor::random(&mut rng);
            assert!(a.hamming(&b) > 80, "{}", a.hamming(&b));
        }
    }

    #[test]
    fn corruption_rate_matches_p() {
        let mut rng = Pcg32::seed_from(4);
        let d = Descriptor::random(&mut rng);
        let mut total = 0;
        let trials = 200;
        for _ in 0..trials {
            total += d.hamming(&d.corrupted(0.05, &mut rng));
        }
        let mean = total as f64 / trials as f64;
        assert!((mean - 256.0 * 0.05).abs() < 2.0, "mean flips {mean}");
        assert_eq!(d.hamming(&d.corrupted(0.0, &mut rng)), 0);
    }

    #[test]
    fn matcher_finds_corrupted_twin() {
        let mut rng = Pcg32::seed_from(5);
        let set: Vec<Descriptor> = (0..500).map(|_| Descriptor::random(&mut rng)).collect();
        let mut hits = 0;
        for i in (0..500).step_by(7) {
            let query = set[i].corrupted(0.03, &mut rng);
            if let Some(m) = match_descriptor(&query, &set, 64, 0.8) {
                assert_eq!(m.index, i, "matched the wrong descriptor");
                hits += 1;
            }
        }
        assert!(hits > 60, "only {hits} matches");
    }

    #[test]
    fn matcher_rejects_unrelated_query() {
        let mut rng = Pcg32::seed_from(6);
        let set: Vec<Descriptor> = (0..100).map(|_| Descriptor::random(&mut rng)).collect();
        let stranger = Descriptor::random(&mut rng);
        assert!(match_descriptor(&stranger, &set, 64, 0.8).is_none());
    }

    #[test]
    fn ratio_test_rejects_ambiguity() {
        let mut rng = Pcg32::seed_from(7);
        let a = Descriptor::random(&mut rng);
        // Two identical candidates: perfectly ambiguous.
        let set = vec![a, a];
        assert!(match_descriptor(&a, &set, 64, 0.8).is_none());
    }

    #[test]
    fn empty_candidate_set() {
        let mut rng = Pcg32::seed_from(8);
        let q = Descriptor::random(&mut rng);
        assert!(match_descriptor(&q, &[], 64, 0.8).is_none());
    }

    #[test]
    fn single_candidate_skips_ratio_test() {
        let mut rng = Pcg32::seed_from(9);
        let a = Descriptor::random(&mut rng);
        let m = match_descriptor(&a, &[a], 64, 0.8).expect("exact match accepted");
        assert_eq!(m.distance, 0);
    }
}
