//! Translation lookaside buffer model: fully associative, LRU, 4 KiB
//! pages — the structure whose 4.5× miss blow-up the paper measures when
//! SLAM joins the autopilot (Figure 15 discussion, §5.1).

/// Page size assumed by the model (4 KiB, Linux default).
pub const PAGE_BYTES: u64 = 4096;

/// A fully associative data TLB with LRU replacement.
///
/// # Example
///
/// ```
/// use drone_platform::uarch::tlb::Tlb;
/// let mut tlb = Tlb::new(64);
/// assert!(!tlb.access(0x1000)); // cold
/// assert!(tlb.access(0x1fff));  // same page
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    entries: Vec<(u64, u64)>, // (page, stamp)
    capacity: usize,
    clock: u64,
    accesses: u64,
    misses: u64,
}

impl Tlb {
    /// Creates a TLB with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Tlb {
        assert!(capacity > 0, "TLB needs at least one entry");
        Tlb {
            entries: Vec::with_capacity(capacity),
            capacity,
            clock: 0,
            accesses: 0,
            misses: 0,
        }
    }

    /// Accesses a byte address; returns `true` on hit.
    pub fn access(&mut self, address: u64) -> bool {
        self.clock += 1;
        self.accesses += 1;
        let page = address / PAGE_BYTES;
        if let Some(e) = self.entries.iter_mut().find(|(p, _)| *p == page) {
            e.1 = self.clock;
            return true;
        }
        self.misses += 1;
        if self.entries.len() < self.capacity {
            self.entries.push((page, self.clock));
        } else {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(i, _)| i)
                .expect("non-empty");
            self.entries[lru] = (page, self.clock);
        }
        false
    }

    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss rate in `[0, 1]`.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Clears counters, keeps translations.
    pub fn reset_stats(&mut self) {
        self.accesses = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_granularity() {
        let mut t = Tlb::new(4);
        assert!(!t.access(0));
        assert!(t.access(4095));
        assert!(!t.access(4096));
    }

    #[test]
    fn lru_eviction() {
        let mut t = Tlb::new(2);
        t.access(0); // page 0
        t.access(PAGE_BYTES); // page 1
        t.access(0); // refresh page 0
        t.access(2 * PAGE_BYTES); // evicts page 1
        assert!(t.access(0));
        assert!(!t.access(PAGE_BYTES));
    }

    #[test]
    fn small_working_set_hits() {
        let mut t = Tlb::new(64);
        for _ in 0..10 {
            for p in 0..32u64 {
                t.access(p * PAGE_BYTES);
            }
        }
        // 32 cold misses out of 320 accesses.
        assert_eq!(t.misses(), 32);
    }

    #[test]
    fn oversized_working_set_thrashes() {
        let mut t = Tlb::new(16);
        for _ in 0..5 {
            for p in 0..64u64 {
                t.access(p * PAGE_BYTES);
            }
        }
        assert!(t.miss_rate() > 0.95, "{}", t.miss_rate());
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        let _ = Tlb::new(0);
    }
}
