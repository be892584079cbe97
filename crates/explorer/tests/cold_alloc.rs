//! Pins the engine's cold path to a fixed number of heap allocations
//! per call with a counting global allocator. Once the memo cache is
//! full and the executor's helpers are running, a cold 768-point
//! `evaluate_points` at width 2 allocates the same amount on every
//! call, and twice the points cost no more: nothing is spawned per
//! call and nothing is allocated per point, cache inserts and evictions
//! included. What remains is per call and per executor block, and the
//! block count does not grow with the input.

use drone_components::battery::CellCount;
use drone_components::paper::PAPER_TWR;
use drone_dse::eval::{evaluate, DesignQuery};
use drone_explorer::query::{GridRange, QueryRanges};
use drone_explorer::{CacheKey, Explorer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The default cache's capacity: 16 shards of 8192 entries.
const CACHE_ENTRIES: usize = 16 * 8192;

/// The `k`-th cold grid: 8 wheelbase x 3 cells x `capacities` capacity
/// x 4 compute, at a capacity offset no other grid here shares.
fn cold_grid(k: usize, capacities: usize) -> Vec<DesignQuery> {
    let low = 2000.0 + 10_000.0 * k as f64;
    QueryRanges {
        wheelbase_mm: GridRange::new(300.0, 370.0, 8),
        cells: vec![CellCount::S3, CellCount::S4, CellCount::S6],
        capacity_mah: GridRange::new(low, low + 250.0 * (capacities - 1) as f64, capacities),
        compute_power_w: GridRange::new(2.0, 5.0, 4),
        twr: GridRange::fixed(PAPER_TWR),
        payload_g: GridRange::fixed(0.0),
    }
    .grid()
}

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

// A single test body: the counter is process-global.
#[test]
fn a_cold_fan_out_on_a_full_cache_allocates_a_fixed_amount() {
    let engine = Explorer::new(2);
    // Fill every lock shard from a lattice no grid below touches.
    let filler = evaluate(&DesignQuery::new(450.0, CellCount::S3, 3000.0));
    let mut capacity = 1_000_000.0;
    while engine.cache().len() < CACHE_ENTRIES {
        let point = DesignQuery::new(450.0, CellCount::S3, capacity);
        engine.cache().insert(CacheKey::quantize(&point), filler);
        capacity += 1.0;
    }

    let grids: Vec<Vec<DesignQuery>> = (0..5).map(|k| cold_grid(k, 8)).collect();
    assert_eq!(grids[0].len(), 768);
    let cold = |grid: &[DesignQuery]| {
        let misses = engine.cache().miss_count();
        let evictions = engine.cache().eviction_count();
        let allocations = allocations_during(|| {
            engine.try_evaluate_points(grid, None).unwrap();
        });
        assert_eq!(engine.cache().miss_count() - misses, grid.len() as u64);
        assert_eq!(
            engine.cache().eviction_count() - evictions,
            grid.len() as u64
        );
        allocations
    };
    // The warm-up call starts the executor's helpers.
    cold(&grids[0]);
    let counts: Vec<u64> = grids[1..].iter().map(|grid| cold(grid)).collect();
    assert!(
        counts.iter().all(|&n| n == counts[0]),
        "cold 768-point calls allocated {counts:?}"
    );
    let double = cold(&cold_grid(5, 16));
    assert!(
        double <= counts[0],
        "1536 points allocated {double}, 768 points {}",
        counts[0]
    );
}
