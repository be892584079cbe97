//! The exploration engine: executor + cache + frontier + telemetry.
//!
//! [`Explorer::run`] answers one [`Query`] in rounds. Round 0 fans the
//! materialized grid across the executor; each refinement round
//! re-centres the swept coordinates on the incumbent optimum (one grid
//! cell either side, resampled) and fans out again. Every round
//! deduplicates its points against the cache *and* within itself before
//! dispatch, so the hit/miss counters — and therefore the exported
//! artifacts — are identical at any thread count. Cache state changes
//! only on the calling thread, before and after the fan-out: each call
//! quantizes and hashes each point once, finds repeated keys without a
//! map, looks its distinct keys up in one pass per lock shard and
//! inserts its fresh results in another, in input order within each
//! shard. That order leaves every shard, and so every counter and
//! eviction, as point-by-point inserts in input order would.
//!
//! [`try_run_sharded`] runs the same round loop over N engines, each
//! evaluating its [`shard_of`](crate::shard_of) partition of every
//! round's points.
//!
//! Each operation has one fallible entry point that takes the caller's
//! span (`parent: Option<&Span>`, `None` when untraced) —
//! [`Explorer::try_evaluate_points`], [`Explorer::try_run`],
//! [`Explorer::try_optimize`] and [`try_run_sharded`] — and the
//! infallible [`Explorer::evaluate_points`], [`Explorer::run`] and
//! [`Explorer::optimize`] re-raise its panic. The kernel's
//! `eval.size`/`eval.power` leaf spans are recorded here (through
//! `crate::eval`), around the `drone-dse` calls, which trace nothing
//! themselves.

use crate::cache::{CacheKey, EvalCache};
use crate::eval::kernel_stages;
use crate::executor::{panic_message, ParallelExecutor, TaskPanic};
use crate::pareto::ParetoFrontier;
use crate::query::{Query, QueryAnswer};
use drone_dse::eval::{evaluate_many, DesignEval, DesignQuery, OBJECTIVE_SENSES};
use drone_math::stats::{argmax, argmin};
use drone_math::{BuildFnv, Sense};
use drone_telemetry::trace::Span;
use drone_telemetry::{Clock, Registry, SharedHistogram};
use std::collections::HashSet;
use std::sync::Arc;

/// Cached evaluation outcome (shared with [`EvalCache`]).
pub type EvalResult = Result<DesignEval, drone_dse::design::DesignError>;

/// A pre-evaluation hook run on every *fresh* (uncached) design point.
/// This is the chaos-engineering seam: tests and the `repro chaos`
/// campaign install a hook that panics on a marker coordinate to prove
/// the panic-isolation path end to end.
pub type EvalHook = Arc<dyn Fn(&DesignQuery) + Send + Sync>;

struct QueryTelemetry {
    latency: Arc<SharedHistogram>,
    points: Arc<SharedHistogram>,
    clock: Clock,
}

/// The parallel, memoizing design-space exploration engine.
pub struct Explorer {
    executor: ParallelExecutor,
    cache: EvalCache,
    telemetry: Option<QueryTelemetry>,
    /// Optimizer metrics, populated by [`Explorer::attach_telemetry`]
    /// and consumed by [`crate::optimize::Optimizer`].
    pub(crate) opt_telemetry: Option<crate::optimize::optimizer::OptimizerTelemetry>,
    eval_hook: Option<EvalHook>,
}

impl Explorer {
    /// An engine with `threads` workers and the default cache.
    pub fn new(threads: usize) -> Explorer {
        Explorer {
            executor: ParallelExecutor::new(threads),
            cache: EvalCache::with_defaults(),
            telemetry: None,
            opt_telemetry: None,
            eval_hook: None,
        }
    }

    /// An engine sized by [`crate::executor::default_threads`] (the
    /// `repro --threads` override, else the hardware).
    pub fn with_default_threads() -> Explorer {
        Explorer::new(crate::executor::default_threads())
    }

    /// Installs an [`EvalHook`] called before every fresh evaluation —
    /// the fault-injection seam for chaos tests. A hook that panics
    /// turns the whole query into a caught [`TaskPanic`] (see
    /// [`Explorer::try_run`]); it never kills worker threads.
    pub fn with_eval_hook(mut self, hook: EvalHook) -> Explorer {
        self.eval_hook = Some(hook);
        self
    }

    /// Registers the engine's metrics: `explorer.cache.*` counters plus
    /// `explorer.query.latency_s` / `explorer.query.points` histograms,
    /// and the per-strategy `optimizer.*` family.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.cache.attach_telemetry(registry);
        self.telemetry = Some(QueryTelemetry {
            latency: registry.histogram("explorer.query.latency_s"),
            points: registry.histogram("explorer.query.points"),
            clock: registry.clock().clone(),
        });
        self.opt_telemetry = Some(crate::optimize::optimizer::OptimizerTelemetry::register(
            registry,
        ));
    }

    /// The memoization cache (counters, occupancy).
    pub fn cache(&self) -> &EvalCache {
        &self.cache
    }

    /// The executor's worker count.
    pub fn threads(&self) -> usize {
        self.executor.threads()
    }

    /// Evaluates a batch of points — cache first, then one parallel
    /// fan-out over the unique uncached remainder — returning results
    /// in input order.
    ///
    /// Duplicate keys within the batch coalesce onto one evaluation
    /// (counted as hits); fresh results enter the cache on the calling
    /// thread, in input order within each lock shard, keeping counters
    /// and eviction order independent of the thread count.
    ///
    /// # Panics
    ///
    /// Re-raises the first caught evaluation panic (see
    /// [`Explorer::try_evaluate_points`] for the non-panicking form).
    pub fn evaluate_points(&self, points: &[DesignQuery]) -> Vec<EvalResult> {
        match self.try_evaluate_points(points, None) {
            Ok(results) => results,
            Err(caught) => panic!("{caught}"),
        }
    }

    /// [`Explorer::evaluate_points`] with panic isolation: a panicking
    /// evaluation (via the [`EvalHook`] or a model bug) is caught in
    /// the executor and surfaces as one `Err(TaskPanic)` for the whole
    /// batch — deterministically the first panic by input index.
    /// Panicked points never enter the cache; every successfully
    /// evaluated point in the same fan-out still does, in input order
    /// within its lock shard, so cache counters stay thread-count
    /// independent.
    ///
    /// With `parent`, the call traces under it. A
    /// [detailed](Span::detailed) trace gets one `point` child per
    /// point, whose order is its input index (so span ids are
    /// thread-count independent), tagged with its cache outcome
    /// (`hit`/`coalesced`/`miss`), its feasibility, and — for fresh
    /// evaluations — the worker it ran on plus `eval.*` leaf spans.
    ///
    /// An aggregate trace gets two stage spans per call instead:
    /// `eval.lookup` (order 0), tagged with the `hits`, `coalesced` and
    /// `misses` counts, and `eval.fanout` (order 1), covering the
    /// executor fan-out and the cache inserts, tagged with the
    /// `evaluated` and `feasible` counts and, when evaluations
    /// panicked, the `panicked` count and the input index of the first
    /// (`first_panic`). Per call, not per executor block, so the tree
    /// does not depend on the thread count either.
    pub fn try_evaluate_points(
        &self,
        points: &[DesignQuery],
        parent: Option<&Span>,
    ) -> Result<Vec<EvalResult>, TaskPanic> {
        let keys: Vec<CacheKey> = points.iter().map(CacheKey::quantize).collect();
        self.evaluate_keyed(points, &keys, parent)
            .map_err(|(_, caught)| caught)
    }

    /// [`Explorer::try_evaluate_points`] over points already quantized
    /// to `keys`, reporting a panic with the input index of the point
    /// that raised it.
    fn evaluate_keyed(
        &self,
        points: &[DesignQuery],
        keys: &[CacheKey],
        parent: Option<&Span>,
    ) -> Result<Vec<EvalResult>, (usize, TaskPanic)> {
        let mut batch = self.cache.key_batch(keys);
        let mut resolved: Vec<Option<EvalResult>> = vec![None; points.len()];
        // A detailed trace gets per-point spans; an aggregate one gets
        // the `eval.lookup`/`eval.fanout` stage spans.
        let per_point = parent.filter(|p| p.detailed());
        let aggregate = parent.filter(|p| !p.detailed());
        let mut lookup = aggregate.map(|p| p.child("eval.lookup", 0));
        let misses = self.cache.lookup(&mut batch, &mut resolved);
        // Before the fan-out only hits are resolved, so a duplicate
        // whose first occurrence is unresolved coalesces onto a miss.
        let mut work: Vec<usize> = Vec::with_capacity(misses);
        let (mut hits, mut coalesced) = (0usize, 0usize);
        for i in 0..points.len() {
            let first = batch.first(i);
            let cached = resolved[first];
            if first == i && cached.is_none() {
                work.push(i);
                continue;
            }
            resolved[i] = cached;
            let outcome = match cached {
                Some(_) => {
                    hits += 1;
                    "hit"
                }
                None => {
                    coalesced += 1;
                    "coalesced"
                }
            };
            if let Some(p) = per_point {
                let mut span = p.child("point", i as u64);
                span.tag("cache", outcome);
                if let Some(cached) = cached {
                    span.tag("feasible", cached.is_ok());
                }
            }
        }
        if let Some(lookup) = lookup.as_mut() {
            lookup.tag("hits", hits);
            lookup.tag("coalesced", coalesced);
            lookup.tag("misses", work.len());
        }
        drop(lookup);

        // Fresh points dispatch in per-worker *blocks*: each block
        // funnels through one batched `evaluate_many` call instead of
        // point-at-a-time scalar evaluation. The batched kernel's lanes
        // never interact, so how points group into blocks (which varies
        // with the thread count) cannot change any output bit; results
        // scatter back by input index as before.
        let mut fanout = aggregate.map(|p| p.child("eval.fanout", 1));
        let queries: Vec<DesignQuery> = work.iter().map(|&i| points[i]).collect();
        let hook = self.eval_hook.as_deref();
        let work_ref = &work;
        let fresh = self
            .executor
            .try_map_blocked(&queries, |worker, start, block| {
                evaluate_block(worker, start, block, work_ref, per_point, hook)
            });
        let mut first_panic: Option<(usize, TaskPanic)> = None;
        let (mut feasible, mut panicked) = (0usize, 0usize);
        for (&i, result) in work.iter().zip(fresh) {
            match result {
                Ok(result) => {
                    feasible += usize::from(result.is_ok());
                    resolved[i] = Some(result);
                }
                Err(caught) => {
                    panicked += 1;
                    if first_panic.is_none() {
                        first_panic = Some((i, caught));
                    }
                }
            }
        }
        // The batch now groups the misses; panicked ones are unresolved
        // and stay out of the cache.
        self.cache.insert_batch(&batch, &resolved);
        if let Some(fanout) = fanout.as_mut() {
            fanout.tag("evaluated", work.len() - panicked);
            fanout.tag("feasible", feasible);
            if let Some((first, _)) = &first_panic {
                fanout.tag("panicked", panicked);
                fanout.tag("first_panic", *first);
            }
        }
        drop(fanout);
        if let Some(first) = first_panic {
            return Err(first);
        }
        // Duplicates of a miss take their first occurrence's result.
        for i in 0..resolved.len() {
            if resolved[i].is_none() {
                resolved[i] = resolved[batch.first(i)];
            }
        }
        Ok(resolved
            .into_iter()
            .map(|slot| slot.expect("every point resolved"))
            .collect())
    }

    /// Answers one query: grid round, then adaptive refinement around
    /// the incumbent optimum.
    ///
    /// # Panics
    ///
    /// Re-raises a caught evaluation panic; serving layers use
    /// [`Explorer::try_run`] to turn it into a structured reply
    /// instead.
    pub fn run(&self, query: &Query) -> QueryAnswer {
        match self.try_run(query, None) {
            Ok(answer) => answer,
            Err(caught) => panic!("{caught}"),
        }
    }

    /// [`Explorer::run`] with panic isolation: a panicking evaluation
    /// anywhere in the query's rounds aborts *this query only* with a
    /// caught [`TaskPanic`]. The engine, its cache, its locks and its
    /// worker threads all stay healthy for the next query.
    ///
    /// With `parent`, each round opens an `explore.round` child span
    /// (order = round number) under it, and every point traces through
    /// [`Explorer::try_evaluate_points`]. The answer is byte-identical
    /// traced or not.
    pub fn try_run(&self, query: &Query, parent: Option<&Span>) -> Result<QueryAnswer, TaskPanic> {
        self.timed(|| {
            run_rounds(query, parent, |grid, keys, span| {
                self.evaluate_keyed(grid, keys, span)
                    .map_err(|(_, caught)| caught)
            })
        })
    }

    /// Runs `answer` and, with telemetry attached, records its latency
    /// and point count. A query that panicked records nothing.
    fn timed(
        &self,
        answer: impl FnOnce() -> Result<QueryAnswer, TaskPanic>,
    ) -> Result<QueryAnswer, TaskPanic> {
        let started = self.telemetry.as_ref().map(|t| t.clock.now());
        let answer = answer()?;
        if let (Some(t), Some(start)) = (self.telemetry.as_ref(), started) {
            t.latency.record(t.clock.now() - start);
            t.points.record(answer.evaluated as f64);
        }
        Ok(answer)
    }
}

impl Default for Explorer {
    fn default() -> Self {
        Explorer::with_default_threads()
    }
}

/// Answers `query` over a partitioned engine: every round's points are
/// split by [`shard_of`](crate::shard_of) over `shards.len()` engines,
/// evaluated on all of them at once, and handed back in input order to
/// the same round loop [`Explorer::try_run`] runs. Refinement, the
/// cross-round `seen` set, the incumbent and the frontier are therefore
/// computed exactly once, and the answer equals a single engine's
/// whatever the shard count. Shard 0 evaluates on the calling thread and every other
/// shard on a scoped thread of its own, so the width of the deployment
/// is the sum of the shards' executor widths. Each shard's cache only
/// ever sees its own partition. Latency telemetry, when attached,
/// records on shard 0.
///
/// With one shard this *is* `shards[0].try_run(query, parent)`. With
/// more, each round opens an `explore.round` span under `parent` as
/// [`Explorer::try_run`] does, each shard an `explore.shard` child of it
/// (order = shard index), and every point traces under its shard's span
/// through [`Explorer::try_evaluate_points`].
///
/// # Errors
///
/// A panicking evaluation fails the whole query with the first panic
/// by input index, as one engine reports it.
///
/// # Panics
///
/// If `shards` is empty.
pub fn try_run_sharded(
    shards: &[Explorer],
    query: &Query,
    parent: Option<&Span>,
) -> Result<QueryAnswer, TaskPanic> {
    let [first, rest @ ..] = shards else {
        panic!("try_run_sharded needs at least one shard");
    };
    if rest.is_empty() {
        return first.try_run(query, parent);
    }
    first.timed(|| {
        run_rounds(query, parent, |grid, keys, span| {
            evaluate_sharded(shards, grid, keys, span)
        })
    })
}

/// One round's points, partitioned over `shards` and evaluated
/// concurrently; results come back in input order, a panic as the
/// first by input index.
fn evaluate_sharded(
    shards: &[Explorer],
    points: &[DesignQuery],
    keys: &[CacheKey],
    parent: Option<&Span>,
) -> Result<Vec<EvalResult>, TaskPanic> {
    let count = shards.len() as u32;
    // Each shard's part of the round, as input indices.
    let mut parts: Vec<Vec<usize>> = vec![Vec::new(); shards.len()];
    for (i, key) in keys.iter().enumerate() {
        parts[key.shard(count) as usize].push(i);
    }
    let evaluate = |shard: usize| {
        let part: Vec<DesignQuery> = parts[shard].iter().map(|&i| points[i]).collect();
        let part_keys: Vec<CacheKey> = parts[shard].iter().map(|&i| keys[i]).collect();
        let span = parent.map(|p| {
            let mut span = p.child("explore.shard", shard as u64);
            span.tag("points", part.len());
            span
        });
        shards[shard].evaluate_keyed(&part, &part_keys, span.as_ref())
    };
    let results = std::thread::scope(|scope| {
        let others: Vec<_> = (1..shards.len())
            .map(|shard| scope.spawn(move || evaluate(shard)))
            .collect();
        let mut results = vec![evaluate(0)];
        results.extend(others.into_iter().map(|handle| {
            handle
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
        }));
        results
    });
    let mut resolved: Vec<Option<EvalResult>> = vec![None; points.len()];
    let mut first_panic: Option<(usize, TaskPanic)> = None;
    for (part, result) in parts.iter().zip(results) {
        match result {
            Ok(values) => {
                for (&i, value) in part.iter().zip(values) {
                    resolved[i] = Some(value);
                }
            }
            Err((k, caught)) => {
                if first_panic
                    .as_ref()
                    .is_none_or(|(first, _)| part[k] < *first)
                {
                    first_panic = Some((part[k], caught));
                }
            }
        }
    }
    if let Some((_, caught)) = first_panic {
        return Err(caught);
    }
    Ok(resolved
        .into_iter()
        .map(|slot| slot.expect("every point resolved"))
        .collect())
}

/// The round loop behind every grid query: round 0 sweeps the grid,
/// each refinement round re-centres on the incumbent, and `evaluate`
/// answers each round's points, given with their quantized keys, in
/// input order. Refinement rounds
/// revisit the incumbent's neighbourhood; each unique design enters
/// the feasible pool (and so the frontier) once, however many rounds
/// touch it.
fn run_rounds(
    query: &Query,
    parent: Option<&Span>,
    mut evaluate: impl FnMut(
        &[DesignQuery],
        &[CacheKey],
        Option<&Span>,
    ) -> Result<Vec<EvalResult>, TaskPanic>,
) -> Result<QueryAnswer, TaskPanic> {
    let mut feasible: Vec<DesignEval> = Vec::new();
    let mut evaluated = 0usize;
    let mut infeasible = 0usize;
    let mut rounds = 0usize;
    let mut ranges = query.ranges.clone();
    let mut seen: HashSet<CacheKey, BuildFnv> = HashSet::default();

    for round in 0..=query.refine_rounds {
        if round > 0 {
            // Refinement needs an incumbent to centre on.
            let Some(best) = best_of(query, &feasible) else {
                break;
            };
            ranges = query.ranges.refined_around(&best.query, query.refine_steps);
        }
        let mut grid = ranges.grid();
        let mut keys: Vec<CacheKey> = grid.iter().map(CacheKey::quantize).collect();
        if let Some(shard) = query.shard {
            // Keep only the requested partition. The filter runs
            // before `evaluated +=`, so per-shard counts sum exactly to
            // the unsharded grid size.
            (grid, keys) = grid
                .into_iter()
                .zip(keys)
                .filter(|(_, key)| key.shard(shard.count) == shard.index)
                .unzip();
        }
        evaluated += grid.len();
        // Room for every point of the round, so it never rehashes.
        seen.reserve(grid.len());
        let round_span = parent.map(|p| {
            let mut span = p.child("explore.round", round as u64);
            span.tag("round", round as u64);
            span.tag("points", grid.len());
            span
        });
        let results = evaluate(&grid, &keys, round_span.as_ref())?;
        for (key, result) in keys.iter().zip(results) {
            if !seen.insert(*key) {
                continue;
            }
            match result {
                Ok(eval) if query.constraints.admits(&eval) => feasible.push(eval),
                _ => infeasible += 1,
            }
        }
        rounds += 1;
    }

    let best = best_of(query, &feasible);
    let mut frontier = ParetoFrontier::new(&OBJECTIVE_SENSES);
    for (i, eval) in feasible.iter().enumerate() {
        frontier.insert(i, &eval.objectives());
    }
    let frontier: Vec<DesignEval> = frontier
        .member_ids()
        .iter()
        .map(|&id| feasible[id])
        .collect();
    Ok(QueryAnswer {
        name: query.name.clone(),
        best,
        frontier,
        evaluated,
        feasible: feasible.len(),
        infeasible,
        rounds,
    })
}

/// The incumbent under the query's objective; ties resolve to the
/// earliest evaluation, keeping refinement deterministic.
fn best_of(query: &Query, feasible: &[DesignEval]) -> Option<DesignEval> {
    let scores: Vec<f64> = feasible.iter().map(|e| query.objective.value(e)).collect();
    let idx = match query.objective.sense() {
        Sense::Maximize => argmax(&scores),
        Sense::Minimize => argmin(&scores),
    }?;
    Some(feasible[idx])
}

/// Evaluates one executor block of fresh points through the batched
/// kernel, preserving the per-point contracts of the old scalar
/// dispatch:
///
/// * with `parent` (a detailed trace's span), every point opens its
///   `point` span (order = input index, so span ids stay thread-count
///   independent) *before* the hook runs, and the span records however
///   far the point got;
/// * a panicking [`EvalHook`] fails only its own point — healthy
///   block-mates still evaluate (and later enter the cache);
/// * every evaluated point records its [`kernel_stages`] leaves.
///
/// The kernel itself is total (a degenerate point comes back as a
/// typed `DesignError`), so it runs unguarded; a kernel bug that did
/// panic is caught by the executor's per-block guard and fails only
/// this block's query.
fn evaluate_block(
    worker: usize,
    start: usize,
    block: &[DesignQuery],
    input_index: &[usize],
    parent: Option<&Span>,
    hook: Option<&(dyn Fn(&DesignQuery) + Send + Sync)>,
) -> Vec<Result<EvalResult, TaskPanic>> {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let mut spans: Vec<Option<Span>> = (0..block.len())
        .map(|k| {
            parent.map(|p| {
                let mut span = p.child("point", input_index[start + k] as u64);
                span.set_worker(worker);
                span.tag("cache", "miss");
                span
            })
        })
        .collect();
    let mut out: Vec<Option<Result<EvalResult, TaskPanic>>> = vec![None; block.len()];
    let mut live: Vec<usize> = Vec::with_capacity(block.len());
    if let Some(hook) = hook {
        for (k, q) in block.iter().enumerate() {
            match catch_unwind(AssertUnwindSafe(|| hook(q))) {
                Ok(()) => live.push(k),
                Err(payload) => {
                    out[k] = Some(Err(TaskPanic {
                        message: panic_message(payload.as_ref()),
                    }));
                }
            }
        }
    } else {
        live.extend(0..block.len());
    }

    let live_queries: Vec<DesignQuery> = live.iter().map(|&k| block[k]).collect();
    for (&k, result) in live.iter().zip(evaluate_many(&live_queries)) {
        out[k] = Some(Ok(kernel_stages(spans[k].as_mut(), || result)));
    }
    out.into_iter()
        .map(|slot| slot.expect("every block slot resolved"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::shard_of;
    use crate::query::{Constraints, GridRange, Objective, QueryRanges};
    use drone_components::battery::CellCount;
    use drone_dse::eval::evaluate;

    fn small_ranges() -> QueryRanges {
        QueryRanges {
            wheelbase_mm: GridRange::new(250.0, 450.0, 3),
            cells: vec![CellCount::S3],
            capacity_mah: GridRange::new(2000.0, 6000.0, 5),
            compute_power_w: GridRange::fixed(3.0),
            twr: GridRange::fixed(2.0),
            payload_g: GridRange::fixed(0.0),
        }
    }

    #[test]
    fn grid_round_finds_the_serial_optimum() {
        let explorer = Explorer::new(2);
        let query = Query::new("t", small_ranges(), Objective::MaxFlightTime).with_refinement(0, 0);
        let answer = explorer.run(&query);
        // Serial reference: evaluate the same grid directly.
        let serial_best = small_ranges()
            .grid()
            .iter()
            .filter_map(|q| evaluate(q).ok())
            .map(|e| e.flight_time_min)
            .fold(f64::NEG_INFINITY, f64::max);
        let best = answer.best.expect("feasible grid");
        assert_eq!(best.flight_time_min, serial_best);
        assert_eq!(answer.rounds, 1);
        assert_eq!(answer.evaluated, 15);
        assert_eq!(answer.feasible + answer.infeasible, answer.evaluated);
    }

    #[test]
    fn sharded_runs_partition_the_grid_exactly() {
        let explorer = Explorer::new(1);
        let full = Query::new("t", small_ranges(), Objective::MaxFlightTime).with_refinement(0, 0);
        let whole = explorer.run(&full);

        let count = 3u32;
        let parts: Vec<_> = (0..count)
            .map(|i| explorer.run(&full.clone().with_shard(i, count)))
            .collect();
        // Disjoint cover: per-shard counts sum to the unsharded totals.
        assert_eq!(
            parts.iter().map(|a| a.evaluated).sum::<usize>(),
            whole.evaluated
        );
        assert_eq!(
            parts.iter().map(|a| a.feasible).sum::<usize>(),
            whole.feasible
        );
        assert_eq!(
            parts.iter().map(|a| a.infeasible).sum::<usize>(),
            whole.infeasible
        );
        // The global optimum lives in exactly one shard, so the best of
        // the shard bests is the unsharded best.
        let best_of_shards = parts
            .iter()
            .filter_map(|a| a.best.as_ref().map(|b| b.flight_time_min))
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(best_of_shards, whole.best.unwrap().flight_time_min);
    }

    #[test]
    fn sharded_runs_answer_exactly_like_one_engine() {
        let query =
            Query::new("s", small_ranges(), Objective::MinComputeShare).with_refinement(2, 5);
        let single = Explorer::new(1);
        let whole = single.run(&query);
        assert!(whole.rounds > 1, "refinement must run");
        for count in 1..=4 {
            let shards: Vec<Explorer> = (0..count).map(|_| Explorer::new(1)).collect();
            assert_eq!(
                try_run_sharded(&shards, &query, None).unwrap(),
                whole,
                "{count} shards"
            );
            // Each shard cached only its own partition.
            let cached: usize = shards.iter().map(|s| s.cache().len()).sum();
            assert_eq!(cached, single.cache().len());
        }
    }

    #[test]
    fn sharded_runs_report_the_first_panic_by_input_index() {
        // Every point at or above 350 mm panics with its own message.
        let engine = || {
            Explorer::new(1).with_eval_hook(Arc::new(|q: &DesignQuery| {
                assert!(
                    q.wheelbase_mm < 349.0,
                    "poisoned {} mm / {} mAh",
                    q.wheelbase_mm,
                    q.capacity_mah
                );
            }))
        };
        let query = Query::new("p", small_ranges(), Objective::MaxFlightTime);
        let expected = engine().try_run(&query, None).unwrap_err();
        let first = small_ranges()
            .grid()
            .into_iter()
            .find(|q| q.wheelbase_mm >= 349.0)
            .unwrap();
        // Shard order alone would answer differently at some count.
        assert!((2..=4).any(|count| shard_of(&first, count) != 0));
        for count in 1..=4 {
            let shards: Vec<Explorer> = (0..count).map(|_| engine()).collect();
            let caught = try_run_sharded(&shards, &query, None).unwrap_err();
            assert_eq!(caught, expected, "{count} shards");
        }
    }

    #[test]
    fn refinement_never_worsens_the_incumbent_and_hits_the_cache() {
        let explorer = Explorer::new(2);
        let coarse =
            Query::new("c", small_ranges(), Objective::MaxFlightTime).with_refinement(0, 0);
        let refined =
            Query::new("r", small_ranges(), Objective::MaxFlightTime).with_refinement(2, 5);
        let coarse_best = explorer.run(&coarse).best.unwrap().flight_time_min;
        let refined_answer = explorer.run(&refined);
        assert!(refined_answer.rounds >= 2);
        assert!(refined_answer.best.unwrap().flight_time_min >= coarse_best);
        // The refined grid re-visits the incumbent (and the whole
        // coarse grid came from the first run): hits must have accrued.
        assert!(explorer.cache().hit_count() > 0);
    }

    #[test]
    fn constraints_are_respected() {
        let explorer = Explorer::new(1);
        let constraints = Constraints {
            max_weight_g: Some(1200.0),
            ..Constraints::default()
        };
        let query =
            Query::new("w", small_ranges(), Objective::MaxFlightTime).with_constraints(constraints);
        let answer = explorer.run(&query);
        if let Some(best) = &answer.best {
            assert!(best.weight_g <= 1200.0);
        }
        for member in &answer.frontier {
            assert!(member.weight_g <= 1200.0);
        }
    }

    #[test]
    fn unsatisfiable_queries_answer_empty() {
        let explorer = Explorer::new(2);
        let constraints = Constraints {
            min_flight_time_min: Some(10_000.0),
            ..Constraints::default()
        };
        let query = Query::new("none", small_ranges(), Objective::MaxFlightTime)
            .with_constraints(constraints);
        let answer = explorer.run(&query);
        assert!(answer.best.is_none());
        assert!(answer.frontier.is_empty());
        assert_eq!(answer.feasible, 0);
        // No incumbent → refinement rounds cannot run.
        assert_eq!(answer.rounds, 1);
    }

    #[test]
    fn answers_are_identical_across_thread_counts() {
        let query = Query::new("d", small_ranges(), Objective::MaxFlightTime);
        let baseline = Explorer::new(1).run(&query);
        for threads in [2, 8] {
            let answer = Explorer::new(threads).run(&query);
            assert_eq!(answer, baseline, "{threads} threads");
        }
    }

    #[test]
    fn batch_shares_the_cache_between_queries() {
        let explorer = Explorer::new(2);
        let a = Query::new("a", small_ranges(), Objective::MaxFlightTime).with_refinement(0, 0);
        let b = Query::new("b", small_ranges(), Objective::MinWeight).with_refinement(0, 0);
        let answers: Vec<QueryAnswer> = [a, b].iter().map(|q| explorer.run(q)).collect();
        assert_eq!(answers.len(), 2);
        // Query b's grid is exactly query a's: all 15 points hit.
        assert_eq!(explorer.cache().hit_count(), 15);
        assert_eq!(explorer.cache().miss_count(), 15);
    }

    #[test]
    fn duplicate_points_coalesce_within_a_batch() {
        let explorer = Explorer::new(4);
        let q = DesignQuery::new(450.0, CellCount::S3, 3000.0);
        let points = vec![q, q, q, q];
        let results = explorer.evaluate_points(&points);
        assert!(results.iter().all(|r| r == &results[0]));
        assert_eq!(explorer.cache().miss_count(), 1);
        assert_eq!(explorer.cache().hit_count(), 3);
        assert_eq!(explorer.cache().len(), 1);
    }

    #[test]
    fn grouped_cache_passes_answer_like_per_point_evaluation_at_every_width() {
        use drone_telemetry::{derive_trace_id, Clock, TraceBuilder};
        // 15 distinct points and a cache of 3 lock shards × 2 entries,
        // so batches repeat points within themselves, meet points an
        // earlier batch cached, and evict.
        let pool = small_ranges().grid();
        let batches: Vec<Vec<DesignQuery>> = (0..8)
            .map(|b| (0..12).map(|i| pool[(b * 5 + i * i) % 7 + b]).collect())
            .collect();
        let run = |threads: usize| {
            let explorer = Explorer {
                cache: EvalCache::new(3, 2),
                ..Explorer::new(threads)
            };
            let builder = TraceBuilder::with_detail(derive_trace_id(7, 5), Clock::sim(), false);
            {
                let root = builder.root("serve.request");
                for (b, batch) in batches.iter().enumerate() {
                    let span = root.child("batch", b as u64);
                    let results = explorer.try_evaluate_points(batch, Some(&span)).unwrap();
                    for (q, result) in batch.iter().zip(&results) {
                        assert_eq!(*result, evaluate(q), "{threads} threads, batch {b}");
                    }
                }
            }
            let trace = builder.finish();
            let cache = explorer.cache();
            assert_eq!(
                trace.sum_tag("hits") + trace.sum_tag("coalesced"),
                cache.hit_count() as f64,
                "{threads} threads"
            );
            assert_eq!(trace.sum_tag("misses"), cache.miss_count() as f64);
            assert_eq!(trace.sum_tag("evaluated"), cache.miss_count() as f64);
            let counts = (
                cache.hit_count(),
                cache.miss_count(),
                cache.eviction_count(),
                cache.len(),
                trace.sum_tag("coalesced") as u64,
            );
            (counts, trace.deterministic_json().render())
        };
        // The reference: the per-point cache API, driven the way the
        // engine once drove it. A repeat of a missed key coalesces (a
        // hit); fresh results are inserted point by point in input order.
        let reference = EvalCache::new(3, 2);
        let mut coalesced = 0;
        for batch in &batches {
            let mut pending: Vec<(CacheKey, &DesignQuery)> = Vec::new();
            for q in batch {
                let key = CacheKey::quantize(q);
                if pending.iter().any(|(k, _)| *k == key) {
                    coalesced += 1;
                } else if reference.get(&key).is_none() {
                    pending.push((key, q));
                }
            }
            for (key, q) in pending {
                reference.insert(key, evaluate(q));
            }
        }
        let expected = (
            reference.hit_count() + coalesced,
            reference.miss_count(),
            reference.eviction_count(),
            reference.len(),
            coalesced,
        );
        assert!(reference.hit_count() > 0 && coalesced > 0 && expected.2 > 0);
        let (counts, json) = run(1);
        assert_eq!(counts, expected);
        for threads in [2, 4] {
            assert_eq!(run(threads), (expected, json.clone()), "{threads} threads");
        }
    }

    #[test]
    fn a_panicking_evaluation_fails_only_its_query() {
        let poison = 350.0;
        let explorer = Explorer::new(4).with_eval_hook(Arc::new(move |q: &DesignQuery| {
            assert!(
                (q.wheelbase_mm - poison).abs() > 1e-9,
                "chaos hook: poisoned wheelbase"
            );
        }));
        // The 3-step grid hits 350.0; the healthy 2-step one does not.
        let poisoned = Query::new("bad", small_ranges(), Objective::MaxFlightTime);
        // Refinement could resample onto 350.0, so pin to the grid round.
        let healthy = Query::new(
            "good",
            QueryRanges {
                wheelbase_mm: GridRange::new(250.0, 450.0, 2),
                ..small_ranges()
            },
            Objective::MaxFlightTime,
        )
        .with_refinement(0, 0);
        let results: Vec<_> = [&poisoned, &healthy]
            .into_iter()
            .map(|q| explorer.try_run(q, None))
            .collect();
        let caught = results[0].as_ref().unwrap_err();
        assert!(caught.message.contains("poisoned wheelbase"), "{caught}");
        assert!(results[1].as_ref().unwrap().best.is_some());
        // The engine survives: the same poisoned-free query still runs,
        // and the panicked point never entered the cache.
        let again = explorer.run(&healthy);
        assert_eq!(again, *results[1].as_ref().unwrap());
    }

    #[test]
    fn panicked_points_are_not_cached_but_healthy_batchmates_are() {
        let explorer = Explorer::new(2).with_eval_hook(Arc::new(|q: &DesignQuery| {
            assert!(q.capacity_mah != 2000.0, "poisoned capacity");
        }));
        let grid = small_ranges().grid(); // capacities 2000..6000 in 5 steps
        let err = explorer.try_evaluate_points(&grid, None).unwrap_err();
        assert!(err.message.contains("poisoned capacity"));
        // 3 of 15 points (capacity 2000 at each wheelbase) panicked;
        // the other 12 were evaluated and cached.
        assert_eq!(explorer.cache().len(), 12);
    }

    #[test]
    fn traced_runs_answer_identically_and_attribute_cache_outcomes() {
        use drone_telemetry::{derive_trace_id, Clock, TraceBuilder};
        let run_traced = |threads: usize| {
            let explorer = Explorer::new(threads);
            let query =
                Query::new("t", small_ranges(), Objective::MaxFlightTime).with_refinement(1, 3);
            let builder = TraceBuilder::new(derive_trace_id(7, 1), Clock::sim());
            let answer = {
                let root = builder.root("serve.request");
                explorer.try_run(&query, Some(&root)).unwrap()
            };
            let trace = builder.finish();
            // Attribution parity: span tallies must equal the cache's
            // own counters (coalesced duplicates count as hits).
            let hits =
                trace.count_tagged("cache", "hit") + trace.count_tagged("cache", "coalesced");
            let misses = trace.count_tagged("cache", "miss");
            assert_eq!(
                hits as u64,
                explorer.cache().hit_count(),
                "{threads} threads"
            );
            assert_eq!(
                misses as u64,
                explorer.cache().miss_count(),
                "{threads} threads"
            );
            assert_eq!(trace.count_named("point"), answer.evaluated);
            assert_eq!(trace.count_named("explore.round"), answer.rounds);
            assert_eq!(trace.open_at_finish, 0);
            assert_eq!(trace.dropped_spans, 0);
            (answer, trace.deterministic_json().render())
        };
        let (answer1, json1) = run_traced(1);
        for threads in [2, 8] {
            let (answer, json) = run_traced(threads);
            assert_eq!(answer, answer1, "{threads} threads");
            assert_eq!(
                json, json1,
                "deterministic trace differs at {threads} threads"
            );
        }
        // And the untraced answer is byte-identical to the traced one.
        let untraced = Explorer::new(2)
            .run(&Query::new("t", small_ranges(), Objective::MaxFlightTime).with_refinement(1, 3));
        assert_eq!(untraced, answer1);
    }

    #[test]
    fn aggregate_traces_answer_identically_and_reconcile_with_the_cache() {
        use drone_telemetry::{derive_trace_id, Clock, TraceBuilder};
        let query = Query::new("t", small_ranges(), Objective::MaxFlightTime).with_refinement(1, 3);
        let run_traced = |threads: usize, detailed: bool| {
            let explorer = Explorer::new(threads);
            let builder = TraceBuilder::with_detail(derive_trace_id(7, 1), Clock::sim(), detailed);
            let answer = {
                let root = builder.root("serve.request");
                // Twice, so the second run is served from the cache.
                let first = root.child("query", 0);
                explorer.try_run(&query, Some(&first)).unwrap();
                let second = root.child("query", 1);
                let answer = explorer.try_run(&query, Some(&second)).unwrap();
                // A batch repeating a cached point (each copy a hit)
                // and a fresh one (its repeats coalesce).
                let cached = query.ranges.grid()[0];
                let fresh = DesignQuery::new(999.0, CellCount::S3, 1234.0);
                let batch = root.child("batch", 2);
                let points = [cached, fresh, cached, fresh, fresh];
                explorer.try_evaluate_points(&points, Some(&batch)).unwrap();
                answer
            };
            let trace = builder.finish();
            assert_eq!(trace.open_at_finish, 0);
            assert_eq!(trace.dropped_spans, 0);
            (explorer, answer, trace)
        };
        let untraced = Explorer::new(2).run(&query);
        let (_, detailed, _) = run_traced(2, true);
        assert_eq!(detailed, untraced);
        let mut json1 = None;
        for threads in [1, 2, 8] {
            let (explorer, answer, trace) = run_traced(threads, false);
            assert_eq!(answer, untraced, "{threads} threads");
            assert_eq!(trace.count_named("point"), 0);
            // One lookup and one fan-out span per round and batch.
            let calls = trace.count_named("explore.round") + 1;
            assert_eq!(trace.count_named("eval.lookup"), calls);
            assert_eq!(trace.count_named("eval.fanout"), calls);
            assert_eq!(trace.span_count(), 3 + 3 * calls);
            assert_eq!(trace.sum_tag("coalesced"), 2.0);
            // Attribution parity: the lookup tags sum to the counters.
            let cache = explorer.cache();
            let hits = trace.sum_tag("hits") + trace.sum_tag("coalesced");
            assert_eq!(hits, cache.hit_count() as f64, "{threads} threads");
            assert_eq!(
                trace.sum_tag("misses"),
                cache.miss_count() as f64,
                "{threads} threads"
            );
            assert_eq!(trace.sum_tag("evaluated"), cache.miss_count() as f64);
            assert!(cache.hit_count() > 0 && trace.sum_tag("feasible") > 0.0);
            let json = trace.deterministic_json().render();
            let json1 = json1.get_or_insert(json.clone());
            assert_eq!(
                json, *json1,
                "deterministic trace differs at {threads} threads"
            );
        }
    }

    #[test]
    fn an_aggregate_trace_explains_a_panic() {
        use drone_telemetry::{derive_trace_id, Clock, TagValue, TraceBuilder};
        let explorer = Explorer::new(2).with_eval_hook(Arc::new(|q: &DesignQuery| {
            assert!(q.capacity_mah != 3000.0, "poisoned capacity");
        }));
        let builder = TraceBuilder::with_detail(derive_trace_id(7, 3), Clock::sim(), false);
        {
            let root = builder.root("serve.request");
            let query =
                Query::new("bad", small_ranges(), Objective::MaxFlightTime).with_refinement(0, 0);
            assert!(explorer.try_run(&query, Some(&root)).is_err());
        }
        let trace = builder.finish();
        assert_eq!(trace.open_at_finish, 0);
        let fanout = trace
            .spans
            .iter()
            .find(|s| s.name == "eval.fanout")
            .expect("fan-out span recorded");
        // Capacity 3000 is the grid's second of five steps at each of
        // three wheelbases: inputs 1, 6 and 11 panicked.
        assert_eq!(fanout.tags.get("evaluated"), Some(TagValue::Num(12.0)));
        assert_eq!(fanout.tags.get("panicked"), Some(TagValue::Num(3.0)));
        assert_eq!(fanout.tags.get("first_panic"), Some(TagValue::Num(1.0)));
    }

    #[test]
    fn a_traced_panic_still_records_its_span() {
        use drone_telemetry::{derive_trace_id, Clock, TraceBuilder};
        let explorer = Explorer::new(2).with_eval_hook(Arc::new(|q: &DesignQuery| {
            assert!(q.capacity_mah != 2000.0, "poisoned capacity");
        }));
        let builder = TraceBuilder::new(derive_trace_id(7, 2), Clock::sim());
        {
            let root = builder.root("serve.request");
            let query =
                Query::new("bad", small_ranges(), Objective::MaxFlightTime).with_refinement(0, 0);
            assert!(explorer.try_run(&query, Some(&root)).is_err());
        }
        let trace = builder.finish();
        // All 15 grid points were dispatched fresh; the poisoned ones
        // unwound through their span guards, which still recorded.
        assert_eq!(trace.count_named("point"), 15);
        assert_eq!(trace.open_at_finish, 0);
        // Poisoned points panicked before eval: they carry the miss tag
        // but no feasibility verdict.
        assert_eq!(trace.count_tagged("cache", "miss"), 15);
        assert_eq!(trace.count_tagged("feasible", "true"), 0); // bool tags
        let healthy_evals = trace.count_named("eval.size");
        assert_eq!(healthy_evals, 12, "3 of 15 points panicked in the hook");
    }

    #[test]
    fn a_zero_capacity_point_is_a_cached_error_traced_alike_at_every_width() {
        use drone_telemetry::{derive_trace_id, Clock, TagValue, TraceBuilder};
        // A zero capacity lies outside the design envelope, so the
        // kernel answers it with a typed error like any infeasible
        // point. On one thread every point shares one executor block;
        // on four each point is its own block.
        let good = DesignQuery::new(450.0, CellCount::S3, 4000.0);
        let zero_capacity = DesignQuery::new(450.0, CellCount::S3, 0.0);
        let infeasible = DesignQuery::new(450.0, CellCount::S3, 150.0).with_payload(800.0);
        let points = [good, zero_capacity, infeasible, good.with_twr(2.5)];
        assert_eq!(
            evaluate(&zero_capacity),
            Err(drone_dse::design::DesignError::InvalidCapacity(0.0))
        );
        let mut json1 = None;
        for threads in [1, 4] {
            let explorer = Explorer::new(threads);
            let builder = TraceBuilder::new(derive_trace_id(7, 4), Clock::sim());
            let results = {
                let root = builder.root("serve.request");
                explorer
                    .try_evaluate_points(&points, Some(&root))
                    .expect("the kernel is total")
            };
            let trace = builder.finish();
            assert_eq!(trace.open_at_finish, 0);
            assert_eq!(explorer.cache().len(), 4, "{threads} threads");
            let children = |id: u64, name: &str| {
                trace
                    .spans
                    .iter()
                    .filter(|s| s.parent_id == id && s.name == name)
                    .collect::<Vec<_>>()
            };
            for (i, q) in points.iter().enumerate() {
                let point = trace
                    .spans
                    .iter()
                    .find(|s| s.name == "point" && s.order == i as u64)
                    .expect("every point traced");
                assert_eq!(point.tags.get("cache"), Some(TagValue::Str("miss")));
                // Every point has one `eval.size` leaf tagged with its
                // feasibility, and `eval.power` only when feasible; its
                // result, `Err` included, is returned and cached.
                let expected = evaluate(q);
                let feasible = Some(TagValue::Bool(expected.is_ok()));
                let size = children(point.span_id, "eval.size");
                assert_eq!(size.len(), 1, "point {i}");
                assert_eq!(size[0].tags.get("feasible"), feasible, "point {i}");
                assert_eq!(point.tags.get("feasible"), feasible, "point {i}");
                assert_eq!(
                    children(point.span_id, "eval.power").len(),
                    usize::from(expected.is_ok()),
                    "point {i}"
                );
                assert_eq!(results[i], expected, "point {i}");
                assert_eq!(
                    explorer.cache().get(&CacheKey::quantize(q)),
                    Some(expected),
                    "point {i}"
                );
            }
            let json = trace.deterministic_json().render();
            assert_eq!(
                &json,
                json1.get_or_insert(json.clone()),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn telemetry_records_query_histograms() {
        let registry = Registry::with_wall_clock();
        let mut explorer = Explorer::new(2);
        explorer.attach_telemetry(&registry);
        let query = Query::new("t", small_ranges(), Objective::MaxFlightTime).with_refinement(0, 0);
        let _ = explorer.run(&query);
        assert_eq!(registry.histogram("explorer.query.latency_s").count(), 1);
        let points = registry.histogram("explorer.query.points").snapshot();
        assert_eq!(points.count(), 1);
        assert_eq!(points.max(), Some(15.0));
        assert!(registry.counter("explorer.cache.misses").get() > 0);
    }
}
