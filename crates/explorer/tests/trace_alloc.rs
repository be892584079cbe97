//! Pins what tracing costs in heap allocations with a counting global
//! allocator. A detailed trace of a 768-point cold grid allocates fewer
//! than one block per 8 points more than the same grid untraced: spans
//! carry static names and inline tags and record into the trace's one
//! span table, so the trace's allocations are that table's geometric
//! growth and per-trace bookkeeping, never per span. An aggregate trace
//! records a fixed handful of stage spans per round, so its extra
//! allocations are a small constant whatever the point count.

use drone_components::battery::CellCount;
use drone_components::paper::PAPER_TWR;
use drone_explorer::query::{GridRange, Objective, Query, QueryRanges};
use drone_explorer::Explorer;
use drone_telemetry::{derive_trace_id, Clock, Trace, TraceBuilder};
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

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Extra allocations an aggregate trace of a one-round grid may cost:
/// the builder, its span table growing to four records, and the sort
/// in `finish`.
const AGGREGATE_BUDGET: u64 = 16;

/// Runs `query` on a fresh engine under a new trace, counting the run's
/// allocations; returns them with the finished trace.
fn traced_run(query: &Query, detailed: bool) -> (u64, Trace) {
    let engine = Explorer::new(2);
    let mut trace = None;
    let allocations = allocations_during(|| {
        let builder = TraceBuilder::with_detail(derive_trace_id(7, 1), Clock::wall(), detailed);
        {
            let root = builder.root("serve.request");
            engine.try_run_spanned(query, Some(&root)).unwrap();
        }
        trace = Some(builder.finish());
    });
    let trace = trace.expect("the run finished its trace");
    assert_eq!(trace.open_at_finish, 0);
    assert_eq!(trace.dropped_spans, 0);
    (allocations, trace)
}

/// 8 wheelbase x 3 cells x 8 capacity x 4 compute, one round.
fn cold_grid() -> Query {
    let ranges = QueryRanges {
        wheelbase_mm: GridRange::new(300.0, 370.0, 8),
        cells: vec![CellCount::S3, CellCount::S4, CellCount::S6],
        capacity_mah: GridRange::new(2000.0, 3750.0, 8),
        compute_power_w: GridRange::new(2.0, 5.0, 4),
        twr: GridRange::fixed(PAPER_TWR),
        payload_g: GridRange::fixed(0.0),
    };
    Query::new("cold", ranges, Objective::MaxFlightTime).with_refinement(0, 3)
}

// A single test body: the counter is process-global and the test
// harness runs sibling tests on concurrent threads, so splitting these
// cases into separate `#[test]`s would race the deltas.
#[test]
fn tracing_a_cold_grid_allocates_per_block_not_per_span() {
    let query = cold_grid();
    let points = query.ranges.point_count();
    assert_eq!(points, 768);

    // Warm up once: lazy runtime one-time costs (TLS, thread-spawn
    // machinery) must not be billed to either run.
    Explorer::new(2).try_run(&query).unwrap();

    // Each run gets a fresh engine, so every point misses the cache.
    let untraced_engine = Explorer::new(2);
    let untraced = allocations_during(|| {
        untraced_engine.try_run(&query).unwrap();
    });
    let (traced, trace) = traced_run(&query, true);
    let spans = trace.span_count();
    // The root, the round, and per point: `point` plus its eval leaves.
    assert!(spans > 2 + points, "only {spans} spans recorded");
    let extra = traced.saturating_sub(untraced);
    assert!(
        extra * 8 < points as u64,
        "tracing {points} points ({spans} spans) cost {extra} extra allocations \
         ({traced} traced vs {untraced} untraced); the budget is under one per 8 points"
    );

    // Aggregate: root, round, `eval.lookup` and `eval.fanout`, at this
    // grid's size and at a twelfth of it.
    let small = Query::new(
        "small",
        QueryRanges {
            cells: vec![CellCount::S4],
            capacity_mah: GridRange::new(2000.0, 2250.0, 2),
            ..query.ranges.clone()
        },
        Objective::MaxFlightTime,
    )
    .with_refinement(0, 3);
    for query in [&query, &small] {
        let points = query.ranges.point_count();
        let untraced_engine = Explorer::new(2);
        let untraced = allocations_during(|| {
            untraced_engine.try_run(query).unwrap();
        });
        let (traced, trace) = traced_run(query, false);
        assert_eq!(trace.span_count(), 4);
        let extra = traced.saturating_sub(untraced);
        assert!(
            extra <= AGGREGATE_BUDGET,
            "an aggregate trace of {points} points cost {extra} extra allocations \
             ({traced} traced vs {untraced} untraced); the budget is {AGGREGATE_BUDGET}"
        );
    }
}
