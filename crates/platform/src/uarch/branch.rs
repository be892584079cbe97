//! Gshare branch predictor: global history XOR PC indexing a table of
//! 2-bit saturating counters.

/// A gshare predictor.
///
/// # Example
///
/// ```
/// use drone_platform::uarch::branch::GsharePredictor;
/// let mut bp = GsharePredictor::new(12);
/// // A loop branch taken 500× becomes near-perfectly predicted.
/// for _ in 0..500 { bp.predict_and_update(0x400, true); }
/// assert!(bp.miss_rate() < 0.05);
/// ```
#[derive(Debug, Clone)]
pub struct GsharePredictor {
    table: Vec<u8>,
    index_bits: u32,
    history: u64,
    predictions: u64,
    mispredictions: u64,
}

impl GsharePredictor {
    /// Creates a predictor with `2^index_bits` two-bit counters.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ index_bits ≤ 24`.
    pub fn new(index_bits: u32) -> GsharePredictor {
        assert!((1..=24).contains(&index_bits), "index bits out of range");
        GsharePredictor {
            table: vec![1; 1 << index_bits], // weakly not-taken
            index_bits,
            history: 0,
            predictions: 0,
            mispredictions: 0,
        }
    }

    fn index(&self, pc: u64) -> usize {
        let mask = (1u64 << self.index_bits) - 1;
        (((pc >> 2) ^ self.history) & mask) as usize
    }

    /// Predicts the branch at `pc`, then updates with the actual
    /// `taken` outcome. Returns `true` when the prediction was correct.
    pub fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        let idx = self.index(pc);
        let counter = self.table[idx];
        let predicted_taken = counter >= 2;
        let correct = predicted_taken == taken;
        self.predictions += 1;
        if !correct {
            self.mispredictions += 1;
        }
        // Saturating 2-bit update.
        self.table[idx] = match (counter, taken) {
            (c, true) if c < 3 => c + 1,
            (c, false) if c > 0 => c - 1,
            (c, _) => c,
        };
        self.history = ((self.history << 1) | u64::from(taken)) & ((1 << self.index_bits) - 1);
        correct
    }

    /// Total predictions made.
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Total mispredictions.
    pub fn mispredictions(&self) -> u64 {
        self.mispredictions
    }

    /// Misprediction rate in `[0, 1]`.
    pub fn miss_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.predictions as f64
        }
    }

    /// Clears counters, keeps learned state.
    pub fn reset_stats(&mut self) {
        self.predictions = 0;
        self.mispredictions = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drone_math::Pcg32;

    #[test]
    fn learns_always_taken() {
        let mut bp = GsharePredictor::new(10);
        for _ in 0..1000 {
            bp.predict_and_update(0x1000, true);
        }
        // The first ~index_bits outcomes walk the history register
        // through fresh table entries; after that it is perfect.
        assert!(bp.miss_rate() < 0.03, "{}", bp.miss_rate());
    }

    #[test]
    fn learns_loop_pattern() {
        // taken 7×, not-taken once (8-iteration loop): gshare with
        // history should get close to the 1/8 floor or better.
        let mut bp = GsharePredictor::new(12);
        for _ in 0..500 {
            for i in 0..8 {
                bp.predict_and_update(0x2000, i != 7);
            }
        }
        assert!(bp.miss_rate() < 0.10, "{}", bp.miss_rate());
    }

    #[test]
    fn random_branches_are_hard() {
        let mut bp = GsharePredictor::new(12);
        let mut rng = Pcg32::seed_from(1);
        for _ in 0..20_000 {
            bp.predict_and_update(0x3000, rng.chance(0.5));
        }
        assert!(bp.miss_rate() > 0.35, "{}", bp.miss_rate());
    }

    #[test]
    fn biased_branches_are_easier_than_random() {
        let mut coin = GsharePredictor::new(12);
        let mut biased = GsharePredictor::new(12);
        let mut rng = Pcg32::seed_from(2);
        for _ in 0..20_000 {
            coin.predict_and_update(0x10, rng.chance(0.5));
            biased.predict_and_update(0x10, rng.chance(0.9));
        }
        assert!(biased.miss_rate() < coin.miss_rate());
    }

    #[test]
    fn distinct_pcs_do_not_destructively_alias_much() {
        let mut bp = GsharePredictor::new(14);
        for _ in 0..2000 {
            bp.predict_and_update(0x100, true);
            bp.predict_and_update(0x204, false);
        }
        assert!(bp.miss_rate() < 0.05, "{}", bp.miss_rate());
    }

    #[test]
    #[should_panic(expected = "index bits out of range")]
    fn zero_bits_panics() {
        let _ = GsharePredictor::new(0);
    }
}
