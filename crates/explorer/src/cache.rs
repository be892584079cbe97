//! Memoized design-point evaluation.
//!
//! The analytical model is cheap per point but query traffic is not:
//! batch queries overlap (refinement rounds revisit the incumbent,
//! neighbouring queries share grid corners), so the engine memoizes
//! [`evaluate`](drone_dse::eval::evaluate) results — feasible *and* infeasible — behind a sharded
//! map keyed by quantized design-point coordinates. Shards keep lock
//! hold times tiny under parallel lookups; hit/miss/eviction counters
//! surface through `drone-telemetry` as `explorer.cache.*`.
//!
//! Keys quantize each coordinate to a model-insignificant granule
//! (0.1 mm wheelbase, 1 mAh, 0.01 W, 0.001 TWR, 0.1 g payload): two
//! points closer than a granule size to each other evaluate identically
//! for every practical purpose, and quantization makes the float
//! coordinates hashable without bit-pattern traps.

use drone_dse::design::DesignError;
use drone_dse::eval::{DesignEval, DesignQuery};
use drone_math::hash::{fnv1a_fold, BuildFnv, FNV_OFFSET};
use drone_telemetry::{Counter, Registry};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// A memoized evaluation outcome (infeasibility is cached too).
pub type CachedEval = Result<DesignEval, DesignError>;

/// A design point quantized onto the cache lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Wheelbase in 0.1 mm granules.
    wheelbase_dmm: i64,
    /// Cell count.
    cells: u8,
    /// Capacity in 1 mAh granules.
    capacity_mah: i64,
    /// Compute power in 0.01 W granules.
    compute_cw: i64,
    /// TWR in 0.001 granules.
    twr_milli: i64,
    /// Payload in 0.1 g granules.
    payload_dg: i64,
}

fn granule(value: f64, granule: f64) -> i64 {
    (value / granule).round() as i64
}

impl CacheKey {
    /// Quantizes a design point onto the lattice.
    pub fn quantize(query: &DesignQuery) -> CacheKey {
        CacheKey {
            wheelbase_dmm: granule(query.wheelbase_mm, 0.1),
            cells: query.cells.cells(),
            capacity_mah: granule(query.capacity_mah, 1.0),
            compute_cw: granule(query.compute_power_w, 0.01),
            twr_milli: granule(query.twr, 0.001),
            payload_dg: granule(query.payload_g, 0.1),
        }
    }

    /// Word-wise FNV-1a over the lattice coordinates: a
    /// process-independent hash, so shard placement (and therefore
    /// eviction behaviour) is reproducible run to run — `std`'s
    /// SipHash seeds are not. One xor+multiply per coordinate keeps
    /// the cold path's two hashings (lookup + insert) off the profile.
    fn fnv(&self) -> u64 {
        let mut h = fnv1a_fold(FNV_OFFSET, self.wheelbase_dmm as u64);
        h = fnv1a_fold(h, self.cells as u64);
        h = fnv1a_fold(h, self.capacity_mah as u64);
        h = fnv1a_fold(h, self.compute_cw as u64);
        h = fnv1a_fold(h, self.twr_milli as u64);
        fnv1a_fold(h, self.payload_dg as u64)
    }
}

/// The engine shard a design point routes to: FNV-1a over the
/// quantized lattice key, modulo `count`. This is the memo cache's
/// lock-shard scheme lifted to engine level — [`crate::try_run_sharded`]
/// uses it to partition each round's points across `count` engines,
/// and because it hashes the *quantized* coordinates, every point an
/// engine evaluates also lands in that engine's own cache partition.
pub fn shard_of(query: &DesignQuery, count: u32) -> u32 {
    (CacheKey::quantize(query).fnv() % u64::from(count.max(1))) as u32
}

struct Shard {
    // FNV-hashed: every cold point pays a lookup *and* an insert, so
    // the per-operation hash must be a handful of multiplies, not
    // SipHash over the 41-byte key.
    map: HashMap<CacheKey, CachedEval, BuildFnv>,
    // FIFO insertion order backing eviction.
    order: VecDeque<CacheKey>,
}

/// The sharded memoization table.
pub struct EvalCache {
    shards: Vec<Mutex<Shard>>,
    shard_capacity: usize,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
}

impl EvalCache {
    /// A cache with `shards` lock shards holding at most
    /// `shard_capacity` entries each (FIFO eviction past that).
    pub fn new(shards: usize, shard_capacity: usize) -> EvalCache {
        let shards = shards.max(1);
        EvalCache {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::default(),
                        order: VecDeque::new(),
                    })
                })
                .collect(),
            shard_capacity: shard_capacity.max(1),
            hits: Arc::new(Counter::new()),
            misses: Arc::new(Counter::new()),
            evictions: Arc::new(Counter::new()),
        }
    }

    /// The default exploration cache: 16 shards × 8192 entries.
    pub fn with_defaults() -> EvalCache {
        EvalCache::new(16, 8192)
    }

    /// Re-homes the hit/miss/eviction counters onto a registry as
    /// `explorer.cache.{hits,misses,evictions}`. Counts accumulated so
    /// far carry over.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        for (name, counter) in [
            ("explorer.cache.hits", &mut self.hits),
            ("explorer.cache.misses", &mut self.misses),
            ("explorer.cache.evictions", &mut self.evictions),
        ] {
            let registered = registry.counter(name);
            registered.add(counter.get());
            *counter = registered;
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        &self.shards[(key.fnv() % self.shards.len() as u64) as usize]
    }

    /// Looks a key up, counting a hit or a miss.
    pub fn get(&self, key: &CacheKey) -> Option<CachedEval> {
        let shard = self.shard(key).lock().expect("cache shard lock");
        match shard.map.get(key) {
            Some(value) => {
                self.hits.inc();
                Some(*value)
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Counts a lookup served by coalescing with an identical in-flight
    /// evaluation (a duplicate key inside one parallel round).
    pub fn note_coalesced_hit(&self) {
        self.hits.inc();
    }

    /// Stores an evaluation, evicting the shard's oldest entry when the
    /// shard is full. Re-inserting an existing key refreshes the value
    /// without growing the shard.
    pub fn insert(&self, key: CacheKey, value: CachedEval) {
        let mut shard = self.shard(&key).lock().expect("cache shard lock");
        if shard.map.insert(key, value).is_none() {
            shard.order.push_back(key);
            while shard.map.len() > self.shard_capacity {
                let oldest = shard.order.pop_front().expect("order tracks map");
                shard.map.remove(&oldest);
                self.evictions.inc();
            }
        }
    }

    /// Serves a point from the cache or evaluates and stores it, one
    /// point at a time. The engine goes through `get`/`insert` and the
    /// batched kernel instead; this scalar route is what `repro
    /// roofline` times as its `engine_serial_cold` measured mode.
    pub fn get_or_evaluate(&self, query: &DesignQuery) -> CachedEval {
        let key = CacheKey::quantize(query);
        if let Some(cached) = self.get(&key) {
            return cached;
        }
        let fresh = drone_dse::eval::evaluate(query);
        self.insert(key, fresh);
        fresh
    }

    /// Lifetime hit count.
    pub fn hit_count(&self) -> u64 {
        self.hits.get()
    }

    /// Lifetime miss count.
    pub fn miss_count(&self) -> u64 {
        self.misses.get()
    }

    /// Lifetime eviction count.
    pub fn eviction_count(&self) -> u64 {
        self.evictions.get()
    }

    /// Entries currently resident across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock").map.len())
            .sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drone_components::battery::CellCount;

    fn q(capacity: f64) -> DesignQuery {
        DesignQuery::new(450.0, CellCount::S3, capacity)
    }

    #[test]
    fn shard_of_partitions_deterministically() {
        let points: Vec<DesignQuery> = (0..200).map(|i| q(1000.0 + 25.0 * i as f64)).collect();
        for count in [1u32, 2, 4, 7] {
            let mut per_shard = vec![0usize; count as usize];
            for p in &points {
                let s = shard_of(p, count);
                assert!(s < count);
                assert_eq!(s, shard_of(p, count), "placement must be stable");
                per_shard[s as usize] += 1;
            }
            // Disjoint by construction; together the shards cover the set.
            assert_eq!(per_shard.iter().sum::<usize>(), points.len());
        }
        // A zero count is clamped rather than dividing by zero.
        assert_eq!(shard_of(&q(1000.0), 0), 0);
    }

    #[test]
    fn second_lookup_is_a_hit_with_identical_value() {
        let cache = EvalCache::with_defaults();
        let first = cache.get_or_evaluate(&q(3000.0));
        let second = cache.get_or_evaluate(&q(3000.0));
        assert_eq!(first, second);
        assert_eq!(cache.hit_count(), 1);
        assert_eq!(cache.miss_count(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn quantization_merges_model_insignificant_neighbours() {
        let a = CacheKey::quantize(&q(3000.0));
        let b = CacheKey::quantize(&q(3000.0004));
        let c = CacheKey::quantize(&q(3002.0));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn infeasible_results_are_cached_too() {
        let cache = EvalCache::with_defaults();
        let bad = DesignQuery::new(450.0, CellCount::S3, 150.0).with_payload(900.0);
        assert!(cache.get_or_evaluate(&bad).is_err());
        assert!(cache.get_or_evaluate(&bad).is_err());
        assert_eq!(cache.hit_count(), 1);
        assert_eq!(cache.miss_count(), 1);
    }

    #[test]
    fn fifo_eviction_is_counted_and_bounded() {
        // One shard of two entries: the third insert evicts the first.
        let cache = EvalCache::new(1, 2);
        for capacity in [1000.0, 2000.0, 3000.0] {
            cache.insert(
                CacheKey::quantize(&q(capacity)),
                drone_dse::eval::evaluate(&q(capacity)),
            );
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.eviction_count(), 1);
        // The oldest key (1000 mAh) was the victim.
        assert!(cache.get(&CacheKey::quantize(&q(1000.0))).is_none());
        assert!(cache.get(&CacheKey::quantize(&q(3000.0))).is_some());
    }

    #[test]
    fn attach_telemetry_carries_counts_over() {
        let mut cache = EvalCache::with_defaults();
        let _ = cache.get_or_evaluate(&q(3000.0));
        let _ = cache.get_or_evaluate(&q(3000.0));
        let registry = Registry::with_wall_clock();
        cache.attach_telemetry(&registry);
        assert_eq!(registry.counter("explorer.cache.hits").get(), 1);
        assert_eq!(registry.counter("explorer.cache.misses").get(), 1);
        let _ = cache.get_or_evaluate(&q(3000.0));
        assert_eq!(registry.counter("explorer.cache.hits").get(), 2);
    }
}
