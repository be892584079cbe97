//! Memoized design-point evaluation.
//!
//! The analytical model is cheap per point but query traffic is not:
//! batch queries overlap (refinement rounds revisit the incumbent,
//! neighbouring queries share grid corners), so the engine memoizes
//! [`evaluate`](drone_dse::eval::evaluate) results — feasible *and* infeasible — behind a sharded
//! table keyed by quantized design-point coordinates. Shards keep lock
//! hold times tiny under parallel lookups; hit/miss/eviction counters
//! surface through `drone-telemetry` as `explorer.cache.*`.
//!
//! Each lock shard evicts first-in, first-out. It keeps its entries in
//! one ring in insertion order, so the oldest entry is the next victim
//! and a new entry overwrites it in place, plus an open-addressed index
//! of small `(tag, slot)` pairs that finds a key while reading an entry
//! only on a tag match. A cold insert on a full shard is one probe, one
//! in-place overwrite and one index update, with no allocation.
//!
//! The engine touches the cache in grouped passes, one per call for its
//! lookups and one for its inserts. Each point's key is hashed once, and
//! its distinct keys are grouped by lock shard, so a pass takes each
//! lock once and moves each counter once. Inserts keep input order
//! within each shard, the only order a shard's contents depend on, so
//! the cache ends exactly as point-by-point inserts in input order would
//! leave it. The per-point [`EvalCache::get`] and [`EvalCache::insert`]
//! run the same shard code.
//!
//! Keys quantize each coordinate to a model-insignificant granule
//! (0.1 mm wheelbase, 1 mAh, 0.01 W, 0.001 TWR, 0.1 g payload): two
//! points closer than a granule size to each other evaluate identically
//! for every practical purpose, and quantization makes the float
//! coordinates hashable without bit-pattern traps.

use drone_dse::design::DesignError;
use drone_dse::eval::{DesignEval, DesignQuery};
use drone_math::hash::{fnv1a_fold, FNV_OFFSET};
use drone_telemetry::{Counter, Registry};
use std::sync::{Arc, Mutex, MutexGuard};

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
    /// SipHash seeds are not. One xor+multiply per coordinate.
    fn fnv(&self) -> u64 {
        let mut h = fnv1a_fold(FNV_OFFSET, self.wheelbase_dmm as u64);
        h = fnv1a_fold(h, self.cells as u64);
        h = fnv1a_fold(h, self.capacity_mah as u64);
        h = fnv1a_fold(h, self.compute_cw as u64);
        h = fnv1a_fold(h, self.twr_milli as u64);
        fnv1a_fold(h, self.payload_dg as u64)
    }

    /// The key's engine shard out of `count` (see [`shard_of`]).
    pub(crate) fn shard(&self, count: u32) -> u32 {
        (self.fnv() % u64::from(count.max(1))) as u32
    }
}

/// The engine shard a design point routes to: FNV-1a over the
/// quantized lattice key, modulo `count`. This is the memo cache's
/// lock-shard scheme lifted to engine level — [`crate::try_run_sharded`]
/// uses it to partition each round's points across `count` engines,
/// and because it hashes the *quantized* coordinates, every point an
/// engine evaluates also lands in that engine's own cache partition.
pub fn shard_of(query: &DesignQuery, count: u32) -> u32 {
    CacheKey::quantize(query).shard(count)
}

/// One lock shard: a FIFO ring of entries plus an open-addressed index
/// over it.
///
/// `entries` holds the shard's entries in insertion order until it is
/// full, and `tags` each slot's index tag beside it; from then on slot
/// `head` is the oldest entry, and the next insert overwrites it in
/// place and advances `head`. Nothing is allocated after the shard
/// first fills.
///
/// `index` is a linear-probing table of `(tag, slot + 1)` pairs, 0 in
/// the second field marking an empty bucket, with at least twice as
/// many buckets as the shard has slots. The tag is the high 32 bits of
/// the key's FNV hash, and the tag's low bits pick the home bucket, so
/// a bucket's home is known without reading its entry. The lock shard
/// is the hash modulo the shard count, which for a power-of-two count
/// uses only the hash's low bits: placement does not narrow the buckets
/// a shard's keys reach. A probe reads an entry only on a tag match,
/// because a wrong-key read per probe step would cost more than the
/// probe itself. Deletion shifts later members of the cluster back
/// (Knuth's Algorithm R), so no tombstones build up.
struct Shard {
    entries: Vec<(CacheKey, CachedEval)>,
    /// Each slot's index tag, so an eviction finds the victim's bucket
    /// without rehashing its key.
    tags: Vec<u32>,
    /// The next victim once `entries` is full.
    head: usize,
    index: Vec<(u32, u32)>,
    capacity: usize,
}

/// The index tag of a key hash.
fn tag_of(hash: u64) -> u32 {
    (hash >> 32) as u32
}

impl Shard {
    fn new(capacity: usize) -> Shard {
        assert!(
            capacity < u32::MAX as usize / 2,
            "cache shard capacity {capacity} does not fit the index"
        );
        Shard {
            entries: Vec::new(),
            tags: Vec::new(),
            head: 0,
            // Zeroed, so the pages fault in only as buckets are used.
            index: vec![(0, 0); (2 * capacity).next_power_of_two()],
            capacity,
        }
    }

    fn mask(&self) -> usize {
        self.index.len() - 1
    }

    fn home(&self, tag: u32) -> usize {
        tag as usize & self.mask()
    }

    /// The bucket holding `key` (`Ok`), or the empty bucket that ends
    /// its probe sequence (`Err`).
    fn probe(&self, key: &CacheKey, tag: u32) -> Result<usize, usize> {
        let mask = self.mask();
        let mut bucket = self.home(tag);
        loop {
            match self.index[bucket] {
                (_, 0) => return Err(bucket),
                (t, slot) if t == tag && self.entries[slot as usize - 1].0 == *key => {
                    return Ok(bucket)
                }
                _ => bucket = (bucket + 1) & mask,
            }
        }
    }

    fn get(&self, key: &CacheKey, tag: u32) -> Option<CachedEval> {
        let bucket = self.probe(key, tag).ok()?;
        Some(self.entries[self.index[bucket].1 as usize - 1].1)
    }

    /// Stores `value`; returns whether the oldest entry was evicted for
    /// it. A resident key is refreshed in place, keeping its FIFO age.
    fn insert(&mut self, key: CacheKey, tag: u32, value: CachedEval) -> bool {
        let mut bucket = match self.probe(&key, tag) {
            Ok(found) => {
                let slot = self.index[found].1 as usize - 1;
                self.entries[slot].1 = value;
                return false;
            }
            Err(empty) => empty,
        };
        let evicted = self.entries.len() == self.capacity;
        let slot = if evicted {
            let victim = self.head;
            self.head = if victim + 1 == self.capacity {
                0
            } else {
                victim + 1
            };
            self.unlink(victim);
            // The shift may have moved the cluster this key probes.
            bucket = self
                .probe(&key, tag)
                .expect_err("a key missing before the eviction stays missing");
            self.entries[victim] = (key, value);
            self.tags[victim] = tag;
            victim
        } else {
            self.entries.push((key, value));
            self.tags.push(tag);
            self.entries.len() - 1
        };
        self.index[bucket] = (tag, slot as u32 + 1);
        evicted
    }

    /// Removes slot `slot`'s bucket, found by its slot id along its
    /// key's probe sequence, and closes the gap by shifting later
    /// cluster members back whose home allows it.
    fn unlink(&mut self, slot: usize) {
        let mask = self.mask();
        let target = slot as u32 + 1;
        let mut hole = self.home(self.tags[slot]);
        while self.index[hole].1 != target {
            hole = (hole + 1) & mask;
        }
        let mut next = hole;
        loop {
            next = (next + 1) & mask;
            let (tag, slot) = self.index[next];
            if slot == 0 {
                break;
            }
            // A member may fill the hole only if its home is not
            // cyclically after the hole (it would become unreachable).
            let home = self.home(tag);
            if next.wrapping_sub(home) & mask >= next.wrapping_sub(hole) & mask {
                self.index[hole] = self.index[next];
                hole = next;
            }
        }
        self.index[hole] = (0, 0);
    }
}

/// One call's keys, prepared for [`EvalCache`]'s grouped passes: each
/// key is hashed once, the first input carrying each key is found
/// through a per-call open-addressed table of input indices, and the
/// distinct keys are grouped by lock shard, in input order within each
/// shard.
pub(crate) struct KeyBatch<'a> {
    keys: &'a [CacheKey],
    /// Each key's index tag.
    tags: Vec<u32>,
    /// For each input, the first input with the same key.
    first: Vec<u32>,
    /// First occurrences by lock shard: shard `s` owns
    /// `grouped[ends[s - 1]..ends[s]]` (from 0 for shard 0).
    grouped: Vec<u32>,
    ends: Vec<u32>,
}

impl KeyBatch<'_> {
    /// The first input whose key equals input `i`'s (`i` itself when
    /// no earlier input has it).
    pub(crate) fn first(&self, i: usize) -> usize {
        self.first[i] as usize
    }

    /// Shard `s`'s group, for `s` in order.
    fn groups(&self) -> impl Iterator<Item = (usize, &[u32])> {
        let mut start = 0;
        self.ends.iter().enumerate().map(move |(s, &end)| {
            let group = &self.grouped[start..end as usize];
            start = end as usize;
            (s, group)
        })
    }
}

/// The sharded memoization table.
pub struct EvalCache {
    shards: Vec<Mutex<Shard>>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
}

impl EvalCache {
    /// A cache with `shards` lock shards holding at most
    /// `shard_capacity` entries each (FIFO eviction past that).
    ///
    /// # Panics
    ///
    /// If `shard_capacity` is 2³¹ − 1 or more.
    pub fn new(shards: usize, shard_capacity: usize) -> EvalCache {
        let shard_capacity = shard_capacity.max(1);
        EvalCache {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(Shard::new(shard_capacity)))
                .collect(),
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

    fn shard_index(&self, hash: u64) -> usize {
        (hash % self.shards.len() as u64) as usize
    }

    fn lock(&self, shard: usize) -> MutexGuard<'_, Shard> {
        self.shards[shard].lock().expect("cache shard lock")
    }

    /// Looks a key up, counting a hit or a miss.
    pub fn get(&self, key: &CacheKey) -> Option<CachedEval> {
        let hash = key.fnv();
        let found = self.lock(self.shard_index(hash)).get(key, tag_of(hash));
        match found {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        found
    }

    /// Stores an evaluation, evicting the shard's oldest entry when the
    /// shard is full. Re-inserting an existing key refreshes the value
    /// without growing the shard or changing its eviction order.
    pub fn insert(&self, key: CacheKey, value: CachedEval) {
        let hash = key.fnv();
        if self
            .lock(self.shard_index(hash))
            .insert(key, tag_of(hash), value)
        {
            self.evictions.inc();
        }
    }

    /// Hashes `keys` once each, finds each key's first occurrence and
    /// groups the distinct keys by this cache's lock shards.
    ///
    /// # Panics
    ///
    /// If `keys` holds 2³² − 1 or more keys.
    pub(crate) fn key_batch<'a>(&self, keys: &'a [CacheKey]) -> KeyBatch<'a> {
        const EMPTY: u32 = u32::MAX;
        assert!(keys.len() < EMPTY as usize, "key batch too large");
        let mut tags = Vec::with_capacity(keys.len());
        let mut first = Vec::with_capacity(keys.len());
        // Each distinct key's input index and lock shard.
        let mut distinct: Vec<(u32, u32)> = Vec::with_capacity(keys.len());
        let mask = (2 * keys.len()).next_power_of_two() - 1;
        let mut table = vec![EMPTY; mask + 1];
        for (i, key) in keys.iter().enumerate() {
            let hash = key.fnv();
            let tag = tag_of(hash);
            tags.push(tag);
            let mut bucket = tag as usize & mask;
            let found = loop {
                match table[bucket] {
                    EMPTY => {
                        table[bucket] = i as u32;
                        distinct.push((i as u32, self.shard_index(hash) as u32));
                        break i as u32;
                    }
                    j if tags[j as usize] == tag && keys[j as usize] == *key => break j,
                    _ => bucket = (bucket + 1) & mask,
                }
            };
            first.push(found);
        }
        // A counting sort by shard, stable in input order: `ends` holds
        // each shard's size, then its start, then (after placing) its end.
        let mut ends = vec![0u32; self.shards.len()];
        for &(_, shard) in &distinct {
            ends[shard as usize] += 1;
        }
        let mut start = 0;
        for end in &mut ends {
            let size = *end;
            *end = start;
            start += size;
        }
        let mut grouped = vec![0u32; distinct.len()];
        for &(i, shard) in &distinct {
            let at = &mut ends[shard as usize];
            grouped[*at as usize] = i;
            *at += 1;
        }
        KeyBatch {
            keys,
            tags,
            first,
            grouped,
            ends,
        }
    }

    /// Looks up every distinct key of `batch`, taking each lock shard
    /// once, and writes each hit to `found` at its first occurrence's
    /// index. Afterwards `batch` groups only the keys that missed, which
    /// is what [`EvalCache::insert_batch`] then stores. Returns the miss
    /// count.
    ///
    /// The counters move once per call: each distinct key that missed
    /// is a miss, and every other input is a hit, a duplicate of a
    /// missed key included, since it is served by coalescing with its
    /// first occurrence's evaluation.
    pub(crate) fn lookup(&self, batch: &mut KeyBatch, found: &mut [Option<CachedEval>]) -> usize {
        let KeyBatch {
            keys,
            tags,
            grouped,
            ends,
            ..
        } = batch;
        let (mut start, mut missed) = (0, 0);
        for (s, end) in ends.iter_mut().enumerate() {
            let group = start..*end as usize;
            start = *end as usize;
            if !group.is_empty() {
                let shard = self.lock(s);
                for g in group {
                    let i = grouped[g] as usize;
                    match shard.get(&keys[i], tags[i]) {
                        Some(value) => found[i] = Some(value),
                        None => {
                            grouped[missed] = i as u32;
                            missed += 1;
                        }
                    }
                }
            }
            *end = missed as u32;
        }
        grouped.truncate(missed);
        self.hits.add((keys.len() - missed) as u64);
        self.misses.add(missed as u64);
        missed
    }

    /// Stores `values[i]` for each first occurrence `i` that `batch`
    /// groups and that has a value, taking each lock shard once and
    /// inserting in input order within it, so each shard's contents and
    /// FIFO order are what a point-by-point [`EvalCache::insert`] in
    /// input order would leave. Evictions are counted once per call.
    pub(crate) fn insert_batch(&self, batch: &KeyBatch, values: &[Option<CachedEval>]) {
        let mut evicted = 0;
        for (s, group) in batch.groups().filter(|(_, group)| !group.is_empty()) {
            let mut shard = self.lock(s);
            for &i in group {
                let i = i as usize;
                if let Some(value) = values[i] {
                    evicted += u64::from(shard.insert(batch.keys[i], batch.tags[i], value));
                }
            }
        }
        self.evictions.add(evicted);
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
            .map(|s| s.lock().expect("cache shard lock").entries.len())
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
    use proptest::prelude::*;
    use std::collections::{HashMap, VecDeque};

    fn q(capacity: f64) -> DesignQuery {
        DesignQuery::new(450.0, CellCount::S3, capacity)
    }

    /// The engine's lookup-then-insert for one point: served from the
    /// cache, or evaluated and stored.
    fn get_or_insert(cache: &EvalCache, query: &DesignQuery) -> CachedEval {
        let key = CacheKey::quantize(query);
        cache.get(&key).unwrap_or_else(|| {
            let fresh = drone_dse::eval::evaluate(query);
            cache.insert(key, fresh);
            fresh
        })
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
        let first = get_or_insert(&cache, &q(3000.0));
        let second = get_or_insert(&cache, &q(3000.0));
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
        assert!(get_or_insert(&cache, &bad).is_err());
        assert!(get_or_insert(&cache, &bad).is_err());
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
        let _ = get_or_insert(&cache, &q(3000.0));
        let _ = get_or_insert(&cache, &q(3000.0));
        let registry = Registry::with_wall_clock();
        cache.attach_telemetry(&registry);
        assert_eq!(registry.counter("explorer.cache.hits").get(), 1);
        assert_eq!(registry.counter("explorer.cache.misses").get(), 1);
        let _ = get_or_insert(&cache, &q(3000.0));
        assert_eq!(registry.counter("explorer.cache.hits").get(), 2);
    }

    /// The FIFO cache the ring-and-index shard replaced, kept as the
    /// reference: per lock shard a `HashMap` plus a `VecDeque` of
    /// insertion order, placed by the same hash.
    struct ModelCache {
        shards: Vec<(HashMap<CacheKey, CachedEval>, VecDeque<CacheKey>)>,
        capacity: usize,
        hits: u64,
        misses: u64,
        evictions: u64,
    }

    impl ModelCache {
        fn new(shards: usize, capacity: usize) -> ModelCache {
            ModelCache {
                shards: (0..shards).map(|_| Default::default()).collect(),
                capacity,
                hits: 0,
                misses: 0,
                evictions: 0,
            }
        }

        fn shard(
            &mut self,
            key: &CacheKey,
        ) -> &mut (HashMap<CacheKey, CachedEval>, VecDeque<CacheKey>) {
            let count = self.shards.len() as u64;
            &mut self.shards[(key.fnv() % count) as usize]
        }

        fn get(&mut self, key: &CacheKey) -> Option<CachedEval> {
            let found = self.shard(key).0.get(key).copied();
            match found {
                Some(_) => self.hits += 1,
                None => self.misses += 1,
            }
            found
        }

        fn insert(&mut self, key: CacheKey, value: CachedEval) {
            let capacity = self.capacity;
            let (map, order) = self.shard(&key);
            let mut evicted = 0;
            if map.insert(key, value).is_none() {
                order.push_back(key);
                while map.len() > capacity {
                    let oldest = order.pop_front().expect("order tracks map");
                    map.remove(&oldest);
                    evicted += 1;
                }
            }
            self.evictions += evicted;
        }

        fn len(&self) -> usize {
            self.shards.iter().map(|(map, _)| map.len()).sum()
        }
    }

    /// A small key pool, so keys recur: re-inserts, hits and evictions
    /// of keys that come back.
    fn key_pool() -> Vec<CacheKey> {
        (0..24)
            .map(|i| CacheKey::quantize(&q(1000.0 + 25.0 * i as f64)))
            .collect()
    }

    /// Four distinct values, one of them infeasible.
    fn value_pool() -> Vec<CachedEval> {
        [3000.0, 5000.0, 150.0, 8000.0]
            .iter()
            .map(|&c| drone_dse::eval::evaluate(&q(c).with_payload(c / 10.0)))
            .collect()
    }

    proptest! {
        #[test]
        fn shards_evict_and_refresh_like_the_fifo_model(
            shards in 1usize..5,
            capacity in 1usize..9,
            ops in prop::collection::vec((0u8..3, 0usize..24, 0usize..4), 0..160),
        ) {
            let keys = key_pool();
            let values = value_pool();
            let cache = EvalCache::new(shards, capacity);
            let mut model = ModelCache::new(shards, capacity);
            let mut last = keys[0];
            for (step, &(op, k, v)) in ops.iter().enumerate() {
                match op {
                    0 => {
                        cache.insert(keys[k], values[v]);
                        model.insert(keys[k], values[v]);
                        last = keys[k];
                    }
                    // Re-insert the latest key with a fresh value.
                    1 => {
                        cache.insert(last, values[v]);
                        model.insert(last, values[v]);
                    }
                    _ => prop_assert_eq!(cache.get(&keys[k]), model.get(&keys[k]), "step {}", step),
                }
                prop_assert_eq!(cache.len(), model.len(), "step {}", step);
            }
            for key in &keys {
                prop_assert_eq!(cache.get(key), model.get(key));
            }
            prop_assert_eq!(cache.hit_count(), model.hits);
            prop_assert_eq!(cache.miss_count(), model.misses);
            prop_assert_eq!(cache.eviction_count(), model.evictions);
        }

        /// The grouped passes against the model applied point by point
        /// in input order, the way the engine once drove the cache: a
        /// lookup per point, where a repeat of a missed key coalesces
        /// (a hit), then an insert per fresh result. A lookup batch
        /// evaluates each miss to `values[v]` or, for `v == 4`, panics
        /// (nothing is stored); an insert-only batch re-inserts keys
        /// that may be resident.
        #[test]
        fn grouped_passes_match_the_fifo_model_point_by_point(
            shards in 1usize..5,
            capacity in 1usize..9,
            batches in prop::collection::vec(
                (any::<bool>(), prop::collection::vec((0usize..24, 0usize..5), 0..24)),
                0..12,
            ),
        ) {
            let pool = key_pool();
            let values = value_pool();
            let cache = EvalCache::new(shards, capacity);
            let mut model = ModelCache::new(shards, capacity);
            for (step, (looks_up, points)) in batches.iter().enumerate() {
                let keys: Vec<CacheKey> = points.iter().map(|&(k, _)| pool[k]).collect();
                let value = |i: usize| values.get(points[i].1).copied();
                let mut batch = cache.key_batch(&keys);
                for (i, key) in keys.iter().enumerate() {
                    let first = keys.iter().position(|k| k == key);
                    prop_assert_eq!(Some(batch.first(i)), first, "step {}", step);
                }
                // Each input's stored value, by first occurrence.
                let mut stored: Vec<Option<CachedEval>> = vec![None; keys.len()];
                if *looks_up {
                    cache.lookup(&mut batch, &mut stored);
                    let mut pending: Vec<usize> = Vec::new();
                    for (i, key) in keys.iter().enumerate() {
                        if pending.iter().any(|&p| keys[p] == *key) {
                            model.hits += 1;
                        } else if batch.first(i) == i {
                            let found = model.get(key);
                            prop_assert_eq!(stored[i], found, "step {} input {}", step, i);
                            if found.is_none() {
                                pending.push(i);
                                stored[i] = value(i);
                            }
                        } else {
                            prop_assert!(model.get(key).is_some(), "step {}", step);
                        }
                    }
                    cache.insert_batch(&batch, &stored);
                    for &i in &pending {
                        if let Some(fresh) = stored[i] {
                            model.insert(keys[i], fresh);
                        }
                    }
                } else {
                    for (i, slot) in stored.iter_mut().enumerate() {
                        *slot = value(i);
                    }
                    cache.insert_batch(&batch, &stored);
                    for (i, key) in keys.iter().enumerate() {
                        if let (true, Some(fresh)) = (batch.first(i) == i, stored[i]) {
                            model.insert(*key, fresh);
                        }
                    }
                }
                prop_assert_eq!(cache.len(), model.len(), "step {}", step);
                prop_assert_eq!(cache.hit_count(), model.hits, "step {}", step);
                prop_assert_eq!(cache.miss_count(), model.misses, "step {}", step);
                prop_assert_eq!(cache.eviction_count(), model.evictions, "step {}", step);
            }
            for key in &pool {
                prop_assert_eq!(cache.get(key), model.get(key));
            }
        }
    }

    #[test]
    fn backward_shift_deletion_wraps_past_the_end_of_the_index() {
        // Four slots, eight buckets; five keys whose home is the last
        // bucket, so a full shard's cluster runs over the table's end.
        let mut shard = Shard::new(4);
        let last = shard.mask();
        let tag = |key: &CacheKey| tag_of(key.fnv());
        let keys: Vec<CacheKey> = (0..)
            .map(|i| CacheKey::quantize(&q(1000.0 + i as f64)))
            .filter(|k| shard.home(tag(k)) == last)
            .take(5)
            .collect();
        let value = drone_dse::eval::evaluate(&q(3000.0));
        for key in &keys[..4] {
            assert!(!shard.insert(*key, tag(key), value));
        }
        let occupied = |shard: &Shard| -> Vec<(usize, u32)> {
            (0..=last)
                .filter(|&b| shard.index[b].1 != 0)
                .map(|b| (b, shard.index[b].1 - 1))
                .collect()
        };
        assert_eq!(occupied(&shard), vec![(0, 1), (1, 2), (2, 3), (last, 0)]);
        // The fifth key evicts the oldest, in the last bucket; the three
        // after it shift back one bucket each, the first across the end.
        assert!(shard.insert(keys[4], tag(&keys[4]), value));
        assert_eq!(occupied(&shard), vec![(0, 2), (1, 3), (2, 0), (last, 1)]);
        assert_eq!(shard.get(&keys[0], tag(&keys[0])), None);
        for key in &keys[1..] {
            assert_eq!(shard.get(key, tag(key)), Some(value));
        }
    }
}
