//! Set-associative LRU cache model.

/// Geometry of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheConfig {
    /// RPi-class L1 data cache: 32 KiB, 4-way, 64 B lines.
    pub fn l1d() -> CacheConfig {
        CacheConfig {
            size_bytes: 32 * 1024,
            line_bytes: 64,
            ways: 4,
        }
    }

    /// RPi-class shared last-level cache: 1 MiB, 16-way, 64 B lines.
    pub fn llc() -> CacheConfig {
        CacheConfig {
            size_bytes: 1024 * 1024,
            line_bytes: 64,
            ways: 16,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.line_bytes * self.ways)
    }
}

/// A set-associative cache with true-LRU replacement.
///
/// Tags are stored with a per-way last-use stamp; the model tracks hits
/// and misses only (no dirty/writeback modelling — miss *rates* are what
/// Figure 15 compares).
///
/// # Example
///
/// ```
/// use drone_platform::uarch::cache::{Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig::l1d());
/// assert!(!c.access(0x1000)); // cold miss
/// assert!(c.access(0x1000));  // now resident
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `tags[set][way]`; `u64::MAX` = invalid.
    tags: Vec<Vec<u64>>,
    /// Last-use stamps parallel to `tags`.
    stamps: Vec<Vec<u64>>,
    clock: u64,
    accesses: u64,
    misses: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sizes, non-power-of-two
    /// line size, or capacity not divisible into sets).
    pub fn new(config: CacheConfig) -> Cache {
        assert!(
            config.line_bytes.is_power_of_two() && config.line_bytes > 0,
            "bad line size"
        );
        assert!(config.ways > 0, "need at least one way");
        assert!(
            config
                .size_bytes
                .is_multiple_of(config.line_bytes * config.ways)
                && config.sets() > 0,
            "capacity must divide into sets"
        );
        let sets = config.sets();
        Cache {
            config,
            tags: vec![vec![u64::MAX; config.ways]; sets],
            stamps: vec![vec![0; config.ways]; sets],
            clock: 0,
            accesses: 0,
            misses: 0,
        }
    }

    /// Geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accesses a byte address; returns `true` on hit. Misses install the
    /// line, evicting the set's LRU way.
    pub fn access(&mut self, address: u64) -> bool {
        self.clock += 1;
        self.accesses += 1;
        let line = address / self.config.line_bytes as u64;
        let set = (line % self.config.sets() as u64) as usize;
        let tag = line / self.config.sets() as u64;

        if let Some(way) = self.tags[set].iter().position(|&t| t == tag) {
            self.stamps[set][way] = self.clock;
            return true;
        }
        self.misses += 1;
        // Install over the LRU (or first invalid) way.
        let victim = (0..self.config.ways)
            .min_by_key(|&w| {
                if self.tags[set][w] == u64::MAX {
                    0
                } else {
                    self.stamps[set][w]
                }
            })
            .expect("at least one way");
        self.tags[set][victim] = tag;
        self.stamps[set][victim] = self.clock;
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

    /// Miss rate in `[0, 1]` (0 when never accessed).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Clears counters but keeps contents (for per-phase accounting).
    pub fn reset_stats(&mut self) {
        self.accesses = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets × 2 ways × 64 B = 512 B.
        Cache::new(CacheConfig {
            size_bytes: 512,
            line_bytes: 64,
            ways: 2,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63)); // same line
        assert!(!c.access(64)); // next line
        assert_eq!(c.accesses(), 4);
        assert_eq!(c.misses(), 2);
        assert!((c.miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny();
        // Three lines mapping to set 0 (stride = sets*line = 256).
        c.access(0); // A
        c.access(256); // B
        c.access(0); // A again → A is MRU
        assert!(!c.access(512)); // C evicts LRU = B
        assert!(c.access(0), "A must survive");
        assert!(!c.access(256), "B must have been evicted");
    }

    #[test]
    fn working_set_within_capacity_hits() {
        let mut c = Cache::new(CacheConfig::l1d());
        let lines = 32 * 1024 / 64 / 2; // half capacity
                                        // Two passes: first cold, second fully resident.
        for pass in 0..2 {
            for i in 0..lines {
                let hit = c.access(i as u64 * 64);
                if pass == 1 {
                    assert!(hit, "line {i} missed on second pass");
                }
            }
        }
    }

    #[test]
    fn working_set_beyond_capacity_thrashes() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 1024,
            line_bytes: 64,
            ways: 2,
        });
        // 4× capacity streamed repeatedly with LRU → always misses.
        let lines = 4 * 1024 / 64;
        for _ in 0..3 {
            for i in 0..lines {
                c.access(i as u64 * 64);
            }
        }
        assert!(c.miss_rate() > 0.99, "miss rate {}", c.miss_rate());
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = tiny();
        c.access(0);
        c.reset_stats();
        assert_eq!(c.accesses(), 0);
        assert!(c.access(0), "contents preserved");
    }

    #[test]
    fn standard_configs() {
        assert_eq!(CacheConfig::l1d().sets(), 128);
        assert_eq!(CacheConfig::llc().sets(), 1024);
    }

    #[test]
    #[should_panic(expected = "bad line size")]
    fn non_power_of_two_line_panics() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 512,
            line_bytes: 48,
            ways: 2,
        });
    }
}
