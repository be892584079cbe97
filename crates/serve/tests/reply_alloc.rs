//! Pins the direct reply writer's allocations with a counting global
//! allocator: rendering an ok reply costs a fixed number of heap
//! allocations whatever the frontier size (its buffer is sized up front
//! and nothing is allocated per member).

use drone_components::battery::CellCount;
use drone_dse::eval::{evaluate, DesignEval, DesignQuery};
use drone_explorer::{OptimizeAnswer, QueryAnswer, Strategy};
use drone_serve::protocol::{
    ok_optimize_reply, ok_reply, render_ok_optimize_reply, render_ok_reply,
};
use drone_telemetry::Json;
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

fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let value = f();
    (value, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// `n` evaluated designs across wheelbases, cells and capacities.
fn evals(n: usize) -> Vec<DesignEval> {
    let cells = [CellCount::S3, CellCount::S4, CellCount::S6];
    (0..n)
        .map(|i| {
            let query = DesignQuery {
                compute_power_w: 2.0 + (i % 4) as f64,
                ..DesignQuery::new(
                    300.0 + 7.5 * (i % 10) as f64,
                    cells[i % 3],
                    2000.0 + 125.0 * (i / 3) as f64,
                )
            };
            evaluate(&query).expect("a paper-range design sizes")
        })
        .collect()
}

fn answer(members: usize) -> QueryAnswer {
    let frontier = evals(members);
    QueryAnswer {
        name: "grid".into(),
        best: frontier.first().copied(),
        frontier,
        evaluated: 768,
        feasible: 700,
        infeasible: 68,
        rounds: 1,
    }
}

fn optimize_answer(members: usize) -> OptimizeAnswer {
    let frontier = evals(members);
    OptimizeAnswer {
        name: "search".into(),
        strategy: Strategy::Halving,
        best: frontier.first().copied(),
        frontier,
        sampled: 512,
        evaluated: 256,
        coarse_evals: 128,
        prefiltered: 40,
        feasible: 200,
        infeasible: 56,
        rounds: 4,
        refine_waves: 2,
        pool_sizes: vec![256, 128, 64, 32],
        budget: 256,
    }
}

// A single test body: the counter is process-global.
#[test]
fn ok_replies_allocate_the_same_for_8_and_80_members() {
    let id = Json::Num(7.0);
    let (small, large) = (answer(8), answer(80));
    let (small_reply, small_allocs) = allocations_during(|| render_ok_reply(&id, &small));
    let (large_reply, large_allocs) = allocations_during(|| render_ok_reply(&id, &large));
    assert_eq!(small_reply, ok_reply(&id, &small).render());
    assert_eq!(large_reply, ok_reply(&id, &large).render());
    assert_eq!(
        small_allocs, large_allocs,
        "8 members: {small_allocs} allocations, 80 members: {large_allocs}"
    );

    let (small, large) = (optimize_answer(8), optimize_answer(80));
    let (small_reply, small_allocs) = allocations_during(|| render_ok_optimize_reply(&id, &small));
    let (large_reply, large_allocs) = allocations_during(|| render_ok_optimize_reply(&id, &large));
    assert_eq!(small_reply, ok_optimize_reply(&id, &small).render());
    assert_eq!(large_reply, ok_optimize_reply(&id, &large).render());
    assert_eq!(
        small_allocs, large_allocs,
        "8 members: {small_allocs} allocations, 80 members: {large_allocs}"
    );
}
