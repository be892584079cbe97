//! A deterministic block executor over a pool of parked threads.
//!
//! Design-point evaluation is embarrassingly parallel but wildly
//! uneven: infeasible corners fail in microseconds while deep sizing
//! fixed points iterate for a while. A static split would leave workers
//! idle, so the input is cut into contiguous index blocks that shrink
//! toward the end, and every worker claims the next unclaimed block
//! from one shared cursor until none are left: a slow block or a late
//! worker never strands the rest, and the caller's last wait for a
//! helper is short.
//!
//! A width-N executor is the calling thread (worker 0) plus N − 1
//! helper threads, spawned on the first parallel call and parked on a
//! condvar between calls, so a fan-out costs a wake-up rather than a
//! thread spawn and join. Clones share the helpers; the last clone to
//! drop joins them. A fan-out publishes its job, wakes the helpers and
//! starts on its own blocks at once. When the blocks run out it
//! retracts the job, so a helper still waking up never joins it, and
//! waits only for the helpers that did. A call that finds the pool busy
//! (a nested call from inside a block, or another thread sharing a
//! cloned executor) runs its blocks inline on its own thread.
//!
//! There is one entry point, [`ParallelExecutor::try_map_blocked`]: the
//! callback runs once per *block*, so a batched kernel turns a block
//! into one call. A per-item map is a block callback that maps its
//! slice item by item.
//!
//! **Determinism contract:** results are keyed by the input index, and
//! the output vector is assembled from those keys — the caller sees
//! output in input order at any thread count, no matter which worker
//! ran which block. Scheduling order is *not* deterministic;
//! result placement is.
//!
//! **Panic isolation contract:** every block runs inside
//! [`std::panic::catch_unwind`], so one panicking block cannot kill a
//! helper thread, poison a pool lock, or take down the other blocks of
//! the batch; its slots surface as [`TaskPanic`]s. Callers wanting
//! per-item isolation catch inside the callback. Pool locks recover
//! from poisoning via `into_inner` semantics as a second line of
//! defense.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

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

/// Locks a pool mutex, recovering the guard if a previous holder
/// panicked. No callback ever runs under these locks, so this should
/// never trigger, but a poisoned lock must degrade to "keep
/// scheduling", not abort the map.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One fan-out as a helper sees it: run blocks as worker `w` until none
/// are left. Lifetime-erased by [`Pool::run`], which does not return
/// while a helper can still reach it.
type JobRef = &'static (dyn Fn(usize) + Sync);

/// What the caller of a fan-out and the parked helpers share, under
/// [`Shared::state`].
#[derive(Default)]
struct PoolState {
    /// The published fan-out; `None` once its caller retracted it.
    job: Option<JobRef>,
    /// Bumped per published job, so a helper joins each job at most
    /// once and never re-enters one whose blocks it has drained.
    epoch: u64,
    /// Helpers currently inside `job`.
    active: usize,
    /// The caller sleeps on [`Shared::done`] until `active` is 0.
    caller_waiting: bool,
    /// Set when the last executor clone drops.
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Parked helpers wait here for a job or for shutdown.
    wake: Condvar,
    /// The caller waits here for the helpers that joined its job.
    done: Condvar,
}

/// The parked helper threads behind one executor and its clones.
struct Pool {
    /// Helper count: the executor's width minus the caller.
    helpers: usize,
    shared: Arc<Shared>,
    /// Held by the caller of a fan-out; a call that finds it taken (a
    /// nested call from inside a block, or a concurrent caller) runs
    /// inline instead.
    busy: AtomicBool,
    /// Spawned on the first parallel call, joined on drop.
    handles: OnceLock<Vec<JoinHandle<()>>>,
}

impl Pool {
    fn new(helpers: usize) -> Pool {
        Pool {
            helpers,
            shared: Arc::new(Shared {
                state: Mutex::new(PoolState::default()),
                wake: Condvar::new(),
                done: Condvar::new(),
            }),
            busy: AtomicBool::new(false),
            handles: OnceLock::new(),
        }
    }

    /// Runs `job` on the calling thread as worker 0 and on every helper
    /// that picks it up before the caller retracts it. Returns `false`,
    /// running nothing, when the pool is busy.
    fn run(&self, job: &(dyn Fn(usize) + Sync)) -> bool {
        // Acquire pairs with the Release in `Retract::drop`; the job
        // state itself is handed over under `Shared::state`.
        if self.busy.swap(true, Ordering::Acquire) {
            return false;
        }
        self.handles.get_or_init(|| self.spawn_helpers());
        // Armed before the job is published: its drop, which runs
        // however this function exits, retracts the job and waits out
        // the helpers inside it.
        let retract = Retract(self);
        // SAFETY: helpers reach `job` only through `PoolState::job`.
        // `Retract::drop` runs before this function returns or unwinds;
        // under the state lock it clears that field, so no helper picks
        // the job up afterwards, and it then waits until `active` is 0,
        // so every helper that did pick it up has returned from it. The
        // `'static` reference is therefore never used after `job`'s
        // borrow ends.
        let erased: JobRef = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), JobRef>(job) };
        {
            let mut state = lock(&self.shared.state);
            state.job = Some(erased);
            state.epoch = state.epoch.wrapping_add(1);
        }
        self.shared.wake.notify_all();
        job(0);
        drop(retract);
        true
    }

    /// Starts the helpers, workers `1..=helpers`. A helper the OS
    /// refuses is left out: the caller drains whatever no helper takes.
    fn spawn_helpers(&self) -> Vec<JoinHandle<()>> {
        (1..=self.helpers)
            .map_while(|worker| {
                let shared = Arc::clone(&self.shared);
                std::thread::Builder::new()
                    .name(format!("explorer-worker-{worker}"))
                    .spawn(move || helper(&shared, worker))
                    .ok()
            })
            .collect()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.wake.notify_all();
        for handle in self.handles.take().into_iter().flatten() {
            // Jobs are unwind-caught, so a helper never dies panicking.
            let _ = handle.join();
        }
    }
}

/// Retracts a published job and waits for the helpers inside it, then
/// frees the pool for the next caller.
struct Retract<'a>(&'a Pool);

impl Drop for Retract<'_> {
    fn drop(&mut self) {
        let shared = &self.0.shared;
        let mut state = lock(&shared.state);
        state.job = None;
        // Only helpers that joined are waited for: one still waking up
        // finds the job gone and parks again, costing the caller
        // nothing.
        while state.active > 0 {
            state.caller_waiting = true;
            state = shared
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.caller_waiting = false;
        drop(state);
        self.0.busy.store(false, Ordering::Release);
    }
}

/// A helper's life: park until a job it has not joined yet is published,
/// run it as `worker`, repeat until shutdown. It never spins: between
/// jobs it sleeps on [`Shared::wake`].
fn helper(shared: &Shared, worker: usize) {
    let mut joined = 0u64;
    let mut state = lock(&shared.state);
    loop {
        if state.shutdown {
            return;
        }
        match state.job {
            Some(job) if state.epoch != joined => {
                joined = state.epoch;
                state.active += 1;
                drop(state);
                job(worker);
                state = lock(&shared.state);
                state.active -= 1;
                if state.active == 0 && state.caller_waiting {
                    shared.done.notify_one();
                }
            }
            _ => {
                state = shared
                    .wake
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner)
            }
        }
    }
}

/// One block's results, in block order.
type BlockResults<R> = Vec<Result<R, TaskPanic>>;

/// Blocks at the end of a fan-out that only the caller claims.
const CALLER_TAIL: usize = 2;

/// Most blocks one fan-out makes per worker.
const BLOCKS_PER_WORKER: usize = 6;

/// The blocks of one fan-out over `len` items, in claim order (guided
/// self-scheduling): each takes 1/(2·threads) of the items not yet in a
/// block, rounded up, and the last of at most `BLOCKS_PER_WORKER ·
/// threads` takes the rest. Early blocks are large, which keeps
/// per-block costs low; late ones are small, so when the caller runs
/// out of blocks the helpers are nearly done. Past a few dozen items the
/// block count is the same for every `len`.
fn block_ranges(len: usize, threads: usize) -> Vec<Range<usize>> {
    let most = BLOCKS_PER_WORKER * threads;
    let mut blocks = Vec::with_capacity(most);
    let mut start = 0;
    while start < len {
        let left = len - start;
        let size = match blocks.len() + 1 == most {
            true => left,
            false => left.div_ceil(2 * threads),
        };
        blocks.push(start..start + size);
        start += size;
    }
    blocks
}

/// A fixed-width pool that fans an indexed workload across cores: the
/// calling thread plus `threads - 1` parked helpers, spawned on the
/// first parallel call. Clones share the helpers; the last clone to
/// drop joins them.
#[derive(Clone)]
pub struct ParallelExecutor {
    threads: usize,
    pool: Arc<Pool>,
}

impl std::fmt::Debug for ParallelExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelExecutor")
            .field("threads", &self.threads)
            .field(
                "helpers_running",
                &self.pool.handles.get().map_or(0, Vec::len),
            )
            .finish()
    }
}

impl ParallelExecutor {
    /// An executor with exactly `threads` workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> ParallelExecutor {
        let threads = threads.max(1);
        ParallelExecutor {
            threads,
            pool: Arc::new(Pool::new(threads - 1)),
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
    /// Blocks are contiguous ranges, up to six per worker and shrinking
    /// toward the end, so a late or slow worker leaves something for the
    /// others; the serial path hands
    /// the whole slice over as one block. Results are placed by block,
    /// so the output is in input order at any thread count. How items
    /// are *grouped into blocks* does depend on the thread count;
    /// callers needing byte-identical output must use a per-item-
    /// independent `f` (a batched kernel whose lanes never interact
    /// qualifies). That contract also covers a call that finds the pool
    /// busy — a nested call from inside a block, or a second thread
    /// sharing a cloned executor: it runs the same blocks inline on its
    /// own thread.
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

        let blocks = block_ranges(items.len(), self.threads);
        // One slot per block, filled by whichever worker ran it.
        let outputs: Vec<Mutex<Option<BlockResults<R>>>> =
            blocks.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let work = |worker: usize| {
            // The last blocks are the caller's: a helper's final block
            // then ends while the caller still has work, and the caller
            // rarely has to sleep until a helper finishes.
            let claimable = match worker {
                0 => blocks.len(),
                _ => blocks.len().saturating_sub(CALLER_TAIL),
            };
            // Blocks are unwind-caught, so this only catches a callback
            // returning the wrong number of results. The worker then
            // takes no more blocks, as if it had died, and the slots it
            // left surface as per-slot errors below.
            let _ = catch_unwind(AssertUnwindSafe(|| {
                // The cursor only hands out block numbers; results reach
                // the caller through `outputs`' locks, so Relaxed will do.
                while let Ok(b) = next.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| {
                    (b < claimable).then_some(b + 1)
                }) {
                    *lock(&outputs[b]) = Some(run_block(worker, blocks[b].clone()));
                }
            }));
        };
        if !self.pool.run(&work) {
            work(0);
        }

        let mut out = Vec::with_capacity(items.len());
        for (range, output) in blocks.into_iter().zip(outputs) {
            match output.into_inner().unwrap_or_else(PoisonError::into_inner) {
                Some(results) => out.extend(results),
                None => out.extend(range.map(|i| {
                    Err(TaskPanic {
                        message: format!("index {i} was never evaluated (worker died)"),
                    })
                })),
            }
        }
        out
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

    #[test]
    fn blocks_cover_the_input_in_order_and_shrink_toward_the_end() {
        for threads in [2, 3, 8] {
            for len in [2, 4, 15, 64, 768, 1536] {
                let blocks = block_ranges(len, threads);
                assert!(blocks.len() <= BLOCKS_PER_WORKER * threads);
                let mut next = 0;
                for block in &blocks {
                    assert_eq!(block.start, next, "{len} items, {threads} threads");
                    assert!(!block.is_empty());
                    next = block.end;
                }
                assert_eq!(next, len);
                // Guided: no block is larger than the one before it,
                // save the last, which takes the rest.
                let body = &blocks[..blocks.len() - 1];
                assert!(body.windows(2).all(|w| w[0].len() >= w[1].len()));
            }
        }
        // The count does not grow with the input.
        assert_eq!(block_ranges(768, 2).len(), block_ranges(1536, 2).len());
    }

    #[test]
    fn a_nested_call_from_inside_a_block_runs_inline() {
        let pool = ParallelExecutor::new(2);
        let items: Vec<u64> = (0..200).collect();
        // Each item fans out again on the same executor, which its
        // caller holds: the inner call runs on the worker that made it.
        let out = map_ok(&pool, &items, |_, &x| {
            let inner: Vec<u64> = (0..x % 7 + 2).collect();
            map_ok(&pool, &inner, |_, &y| y * 2).iter().sum::<u64>() + x * 1000
        });
        let expected: Vec<u64> = items
            .iter()
            .map(|&x| (0..x % 7 + 2).map(|y| y * 2).sum::<u64>() + x * 1000)
            .collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn threads_sharing_a_cloned_executor_get_serial_results() {
        use std::sync::Barrier;
        let pool = ParallelExecutor::new(2);
        let items: Vec<u64> = (0..500).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 7 + 1).collect();
        // The first thread's fan-out holds the pool until the second
        // thread's call on a clone, made meanwhile, has returned.
        let (inside, done) = (Barrier::new(2), Barrier::new(2));
        let holder = pool.clone();
        std::thread::scope(|scope| {
            let first = scope.spawn(|| {
                map_ok(&holder, &items, |i, &x| {
                    if i == 0 {
                        inside.wait();
                        done.wait();
                    }
                    x * 7 + 1
                })
            });
            inside.wait();
            assert_eq!(map_ok(&pool, &items, |_, &x| x * 7 + 1), expected);
            done.wait();
            assert_eq!(first.join().unwrap(), expected);
        });
    }

    #[test]
    fn a_failed_fan_out_leaves_the_pool_serving_the_next_call() {
        let pool = ParallelExecutor::new(2);
        let items: Vec<u32> = (0..64).collect();
        let healthy = |pool: &ParallelExecutor| {
            assert_eq!(
                map_ok(pool, &items, |_, &x| x + 1),
                (1..=64).collect::<Vec<u32>>()
            );
        };
        for _ in 0..20 {
            // A block that panics fails its own slots.
            let out = pool.try_map_blocked(&items, |_, start, block| {
                assert!(start != 0, "first block");
                block.iter().map(|&x| Ok(x)).collect()
            });
            assert!(out[0].as_ref().unwrap_err().message.contains("first block"));
            assert!(out[63].is_ok());
            healthy(&pool);

            // A callback that returns the wrong number of results stops
            // the worker that ran it; the slots it left report that.
            let out = pool.try_map_blocked(&items, |_, start, block| match start {
                0 => Vec::new(),
                _ => block.iter().map(|&x| Ok(x)).collect(),
            });
            assert_eq!(out.len(), 64);
            for (i, slot) in out.iter().enumerate() {
                match slot {
                    Ok(x) => assert_eq!(*x, i as u32),
                    Err(e) => assert!(e.message.ends_with("(worker died)"), "{e}"),
                }
            }
            assert!(out[0].is_err());
            healthy(&pool);
        }
    }
}
