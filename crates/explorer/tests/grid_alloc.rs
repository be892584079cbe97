//! Pins `QueryRanges::grid` to one allocation per axis plus its output
//! with a counting global allocator: each axis is sampled once, not
//! once per enclosing loop iteration.

use drone_components::battery::CellCount;
use drone_components::paper::PAPER_TWR;
use drone_explorer::query::{GridRange, QueryRanges};
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

/// The five sampled axes of a `QueryRanges`.
const AXES: u64 = 5;

// A single test body: the counter is process-global.
#[test]
fn a_768_point_grid_allocates_once_per_axis_plus_its_output() {
    let ranges = QueryRanges {
        wheelbase_mm: GridRange::new(300.0, 370.0, 8),
        cells: vec![CellCount::S3, CellCount::S4, CellCount::S6],
        capacity_mah: GridRange::new(2000.0, 3750.0, 8),
        compute_power_w: GridRange::new(2.0, 5.0, 4),
        twr: GridRange::fixed(PAPER_TWR),
        payload_g: GridRange::fixed(0.0),
    };
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let grid = ranges.grid();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(grid.len(), 768);
    assert!(
        allocations <= AXES + 1,
        "a 768-point grid made {allocations} allocations"
    );
}
