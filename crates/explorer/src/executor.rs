//! A deterministic work-stealing executor over `std::thread`.
//!
//! Design-point evaluation is embarrassingly parallel but wildly
//! uneven: infeasible corners fail in microseconds while deep sizing
//! fixed points iterate for a while. A static split would leave workers
//! idle, so the input is cut into contiguous index blocks, each worker
//! owns a deque of them, drains it from the front, and steals from the
//! *back* of a victim's deque when its own runs dry — the classic
//! Blumofe/Leiserson discipline, here with mutexed `VecDeque`s since
//! blocks are coarse enough that queue traffic is negligible.
//!
//! There is one entry point, [`ParallelExecutor::try_map_blocked`]: the
//! callback runs once per *block*, so a batched kernel turns a block
//! into one call. A per-item map is a block callback that maps its
//! slice item by item.
//!
//! **Determinism contract:** results are keyed by the input index, and
//! the output vector is assembled from those keys — the caller sees
//! output in input order at any thread count, no matter how the blocks
//! were interleaved or stolen. Scheduling order is *not* deterministic;
//! result placement is.
//!
//! **Panic isolation contract:** every block runs inside
//! [`std::panic::catch_unwind`], so one panicking block cannot kill a
//! worker thread, poison a deque lock, or take down the other blocks of
//! the batch; its slots surface as [`TaskPanic`]s. Callers wanting
//! per-item isolation catch inside the callback. Deque locks recover
//! from poisoning via `into_inner` semantics as a second line of
//! defense.

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Session-wide default thread count; 0 means "ask the OS". The `repro`
/// binary's `--threads N` flag lands here.
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Overrides the default worker count used by
/// [`ParallelExecutor::with_default_threads`]. Pass 0 to restore the
/// hardware default.
pub fn set_default_threads(threads: usize) {
    DEFAULT_THREADS.store(threads, Ordering::Relaxed);
}

/// The worker count [`ParallelExecutor::with_default_threads`] will
/// use: the [`set_default_threads`] override when set, otherwise the
/// machine's available parallelism.
pub fn default_threads() -> usize {
    match DEFAULT_THREADS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// One task body panicked: the caught payload, rendered as text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// The panic payload (`&str`/`String` payloads verbatim, anything
    /// else a placeholder).
    pub message: String,
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task panicked: {}", self.message)
    }
}

impl std::error::Error for TaskPanic {}

/// Renders a caught panic payload as text.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Locks a deque, recovering the guard if a previous holder panicked.
/// Task bodies are unwind-caught so this should never trigger, but a
/// poisoned queue must degrade to "keep scheduling", not abort the map.
fn lock_deque<T>(deque: &Mutex<T>) -> MutexGuard<'_, T> {
    deque.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A fixed-width pool that fans an indexed workload across cores.
#[derive(Debug, Clone)]
pub struct ParallelExecutor {
    threads: usize,
}

impl ParallelExecutor {
    /// An executor with exactly `threads` workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> ParallelExecutor {
        ParallelExecutor {
            threads: threads.max(1),
        }
    }

    /// An executor sized by [`default_threads`].
    pub fn with_default_threads() -> ParallelExecutor {
        ParallelExecutor::new(default_threads())
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Block-batched dispatch: instead of one call per item, `f` is
    /// invoked once per contiguous *block* `(worker, start, &items
    /// [start..start+len])` and must return exactly one `Result` per
    /// block item, in block order. This is the seam batched kernels
    /// plug into: a block becomes one `evaluate_many` call instead of
    /// `len` scalar calls.
    ///
    /// Blocks are contiguous ranges, a few per worker so stealing has
    /// something to grab; the serial path hands the whole slice over as
    /// one block. Results are scattered back by input index, so the
    /// output is in input order at any thread count. How items
    /// are *grouped into blocks* does depend on the thread count;
    /// callers needing byte-identical output must use a per-item-
    /// independent `f` (a batched kernel whose lanes never interact
    /// qualifies).
    ///
    /// A panic inside `f` fails only that block: every slot of the
    /// block gets an `Err(TaskPanic)` with the payload text. Callers
    /// wanting finer isolation catch per item inside `f` and report
    /// through the per-slot `Result`s.
    pub fn try_map_blocked<T, R, F>(&self, items: &[T], f: F) -> Vec<Result<R, TaskPanic>>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, usize, &[T]) -> Vec<Result<R, TaskPanic>> + Sync,
    {
        let run_block = |worker: usize, range: Range<usize>| -> Vec<Result<R, TaskPanic>> {
            let block = &items[range.clone()];
            match catch_unwind(AssertUnwindSafe(|| f(worker, range.start, block))) {
                Ok(results) => {
                    assert_eq!(
                        results.len(),
                        block.len(),
                        "block callback must return one result per item"
                    );
                    results
                }
                Err(payload) => {
                    let message = panic_message(payload.as_ref());
                    block
                        .iter()
                        .map(|_| {
                            Err(TaskPanic {
                                message: message.clone(),
                            })
                        })
                        .collect()
                }
            }
        };
        if self.threads == 1 || items.len() <= 1 {
            return run_block(0, 0..items.len());
        }

        // Coarse contiguous blocks: a few per worker so stealing has
        // something to grab without making queue traffic the hot path.
        let block = items.len().div_ceil(self.threads * 4).max(1);
        let deques: Vec<Mutex<VecDeque<Range<usize>>>> = (0..self.threads)
            .map(|_| Mutex::new(VecDeque::new()))
            .collect();
        for (b, start) in (0..items.len()).step_by(block).enumerate() {
            let end = (start + block).min(items.len());
            lock_deque(&deques[b % self.threads]).push_back(start..end);
        }

        let mut slots: Vec<Option<Result<R, TaskPanic>>> =
            std::iter::repeat_with(|| None).take(items.len()).collect();
        let locals = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.threads)
                .map(|worker| {
                    let deques = &deques;
                    let run_block = &run_block;
                    scope.spawn(move || {
                        let mut local: Vec<(usize, Vec<Result<R, TaskPanic>>)> = Vec::new();
                        loop {
                            // Own work first (front), then steal from a
                            // victim's back. No new blocks ever appear,
                            // so one empty sweep over every deque means
                            // this worker is done.
                            let next = {
                                let own = lock_deque(&deques[worker]).pop_front();
                                own.or_else(|| {
                                    (1..deques.len()).find_map(|offset| {
                                        let victim = (worker + offset) % deques.len();
                                        lock_deque(&deques[victim]).pop_back()
                                    })
                                })
                            };
                            let Some(range) = next else { break };
                            let start = range.start;
                            local.push((start, run_block(worker, range)));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    // Blocks are unwind-caught, so a worker thread itself
                    // only panics on a callback returning the wrong
                    // number of results; keep the join non-fatal so that
                    // bug surfaces as per-slot errors below.
                    h.join().unwrap_or_default()
                })
                .collect::<Vec<_>>()
        });
        for local in locals {
            for (start, results) in local {
                for (offset, r) in results.into_iter().enumerate() {
                    let i = start + offset;
                    debug_assert!(slots[i].is_none(), "index {i} evaluated twice");
                    slots[i] = Some(r);
                }
            }
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.unwrap_or_else(|| {
                    Err(TaskPanic {
                        message: format!("index {i} was never evaluated (worker died)"),
                    })
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// A per-item map on the block entry point: `f(index, &item)` runs
    /// under its own `catch_unwind`, so a panic fails only its own slot.
    fn map_items<T, R, F>(pool: &ParallelExecutor, items: &[T], f: F) -> Vec<Result<R, TaskPanic>>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        pool.try_map_blocked(items, |_, start, block| {
            block
                .iter()
                .enumerate()
                .map(|(k, item)| {
                    catch_unwind(AssertUnwindSafe(|| f(start + k, item))).map_err(|payload| {
                        TaskPanic {
                            message: panic_message(payload.as_ref()),
                        }
                    })
                })
                .collect()
        })
    }

    /// [`map_items`] for bodies that never panic.
    fn map_ok<T, R, F>(pool: &ParallelExecutor, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        map_items(pool, items, f)
            .into_iter()
            .map(|slot| slot.unwrap())
            .collect()
    }

    #[test]
    fn output_is_in_input_order_at_any_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8] {
            let out = map_ok(&ParallelExecutor::new(threads), &items, |_, &x| x * x);
            assert_eq!(out, expected, "{threads} threads");
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let calls = AtomicU64::new(0);
        let items: Vec<usize> = (0..777).collect();
        let out = map_ok(&ParallelExecutor::new(4), &items, |i, &x| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert_eq!(i, x);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 777);
        assert_eq!(out, items);
    }

    #[test]
    fn uneven_workloads_still_key_by_index() {
        // Early indices are much slower: the tail gets stolen.
        let items: Vec<u64> = (0..64).collect();
        let out = map_ok(&ParallelExecutor::new(8), &items, |i, &x| {
            if i < 8 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x + 1
        });
        assert_eq!(out, (1..=64).collect::<Vec<u64>>());
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = ParallelExecutor::new(4);
        let none: Vec<u32> = vec![];
        assert!(map_ok(&pool, &none, |_, &x| x).is_empty());
        assert_eq!(map_ok(&pool, &[41u32], |_, &x| x + 1), vec![42]);
    }

    #[test]
    fn thread_count_clamps_to_one() {
        assert_eq!(ParallelExecutor::new(0).threads(), 1);
    }

    #[test]
    fn try_map_isolates_panics_to_their_own_slot() {
        let items: Vec<u64> = (0..200).collect();
        for threads in [1, 4] {
            let out = map_items(&ParallelExecutor::new(threads), &items, |_, &x| {
                if x % 50 == 7 {
                    panic!("poisoned item {x}");
                }
                x * 2
            });
            assert_eq!(out.len(), 200);
            for (i, slot) in out.iter().enumerate() {
                if i % 50 == 7 {
                    let err = slot.as_ref().unwrap_err();
                    assert_eq!(
                        err.message,
                        format!("poisoned item {i}"),
                        "{threads} threads"
                    );
                } else {
                    assert_eq!(slot.as_ref().unwrap(), &(i as u64 * 2), "{threads} threads");
                }
            }
        }
    }

    #[test]
    fn a_panicking_batch_leaves_the_executor_reusable() {
        let pool = ParallelExecutor::new(4);
        let items: Vec<u32> = (0..64).collect();
        // Every block panics outright, then a fresh map on the same
        // pool still works normally.
        let first = pool.try_map_blocked(&items, |_, _, _| -> Vec<Result<u32, TaskPanic>> {
            panic!("whole block")
        });
        assert_eq!(first.len(), 64);
        assert!(first.iter().all(|r| r.is_err()));
        let second = map_ok(&pool, &items, |_, &x| x + 1);
        assert_eq!(second, (1..=64).collect::<Vec<u32>>());
    }

    #[test]
    fn located_map_reports_in_range_workers_without_changing_output() {
        let items: Vec<u64> = (0..300).collect();
        for threads in [1, 4] {
            let pool = ParallelExecutor::new(threads);
            let out = pool.try_map_blocked(&items, |worker, start, block| {
                assert!(worker < threads, "worker {worker} out of range");
                if threads == 1 {
                    assert_eq!(worker, 0, "serial path pins worker 0");
                }
                block
                    .iter()
                    .enumerate()
                    .map(|(k, &x)| Ok((worker, x + (start + k) as u64)))
                    .collect()
            });
            let values: Vec<u64> = out.into_iter().map(|r| r.unwrap().1).collect();
            assert_eq!(values, (0..300).map(|x| x * 2).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn blocked_map_matches_per_item_map_at_any_thread_count() {
        let items: Vec<u64> = (0..1003).collect();
        // The serial per-item reference.
        let expected: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8] {
            let out = ParallelExecutor::new(threads).try_map_blocked(&items, |_, start, block| {
                block
                    .iter()
                    .enumerate()
                    .map(|(k, &x)| {
                        assert_eq!(items[start + k], x, "block offsets line up");
                        Ok(x * 3 + 1)
                    })
                    .collect()
            });
            let values: Vec<u64> = out.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(values, expected, "{threads} threads");
        }
    }

    #[test]
    fn blocked_map_serial_path_hands_over_one_block() {
        let items: Vec<u32> = (0..40).collect();
        let calls = AtomicU64::new(0);
        let out = ParallelExecutor::new(1).try_map_blocked(&items, |worker, start, block| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert_eq!(worker, 0);
            assert_eq!(start, 0);
            assert_eq!(block.len(), 40);
            block.iter().map(|&x| Ok(x)).collect()
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(out.len(), 40);
    }

    #[test]
    fn a_panicking_block_fails_only_its_own_slots() {
        let items: Vec<u64> = (0..200).collect();
        for threads in [1, 4] {
            let out = ParallelExecutor::new(threads).try_map_blocked(&items, |_, start, block| {
                if (start..start + block.len()).contains(&7) {
                    panic!("poisoned block at {start}");
                }
                block.iter().map(|&x| Ok(x * 2)).collect()
            });
            assert_eq!(out.len(), 200);
            let failed: Vec<usize> = out
                .iter()
                .enumerate()
                .filter(|(_, r)| r.is_err())
                .map(|(i, _)| i)
                .collect();
            // Exactly the block containing index 7 failed; everything
            // else evaluated (at 1 thread the whole slice is one block).
            assert!(failed.contains(&7), "{threads} threads: {failed:?}");
            if threads == 1 {
                assert_eq!(failed.len(), 200);
            } else {
                assert!(failed.len() < 200, "{threads} threads");
                for (i, r) in out.iter().enumerate() {
                    if !failed.contains(&i) {
                        assert_eq!(r.as_ref().unwrap(), &(i as u64 * 2));
                    }
                }
            }
        }
    }

    #[test]
    fn blocked_map_empty_input() {
        let none: Vec<u32> = vec![];
        assert!(ParallelExecutor::new(4)
            .try_map_blocked(&none, |_, _, block| block.iter().map(|&x| Ok(x)).collect())
            .is_empty());
    }

    #[test]
    fn default_thread_override_round_trips() {
        set_default_threads(3);
        assert_eq!(default_threads(), 3);
        assert_eq!(ParallelExecutor::with_default_threads().threads(), 3);
        set_default_threads(0);
        assert!(default_threads() >= 1);
    }
}
