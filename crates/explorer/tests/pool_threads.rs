//! An executor's helper threads start on its first parallel call and
//! are joined when its last clone drops. Counted from the process's
//! task list, so this file holds a single test: sibling tests would
//! start threads of their own.

#![cfg(target_os = "linux")]

use drone_explorer::ParallelExecutor;
use std::time::{Duration, Instant};

fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("task list")
        .count()
}

/// Waits for the thread count to settle at `expected`: a joined
/// thread's task entry can outlive the join by a moment.
fn settles_at(expected: usize) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while live_threads() != expected {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

fn fan_out(pool: &ParallelExecutor) {
    let items: Vec<u32> = (0..100).collect();
    let out = pool.try_map_blocked(&items, |_, _, block| block.iter().map(|&x| Ok(x)).collect());
    assert_eq!(out.len(), 100);
}

#[test]
fn the_last_clone_to_drop_joins_the_helpers() {
    let before = live_threads();
    let pool = ParallelExecutor::new(4);
    assert_eq!(live_threads(), before, "helpers start lazily");
    fan_out(&pool);
    assert_eq!(
        live_threads(),
        before + 3,
        "width 4 is the caller plus 3 helpers"
    );
    fan_out(&pool);
    assert_eq!(live_threads(), before + 3, "later calls reuse the helpers");

    let clone = pool.clone();
    drop(pool);
    assert_eq!(live_threads(), before + 3, "a live clone keeps the helpers");
    fan_out(&clone);
    drop(clone);
    assert!(settles_at(before), "{} threads left", live_threads());
}
