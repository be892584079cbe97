//! The optimizer: seeded sampling + Pareto local search, with a
//! multi-fidelity successive-halving variant.
//!
//! Every strategy runs the same two-phase shape. Phase one seeds the
//! feasible pool: the samplers evaluate one seeded candidate batch;
//! halving ranks a (larger) Sobol pool through coarse-lattice proxies
//! and only graduates survivors to full fidelity. Phase two is Pareto
//! local search: the current frontier's lattice neighbours are
//! evaluated wave by wave until the frontier stops growing — on a
//! connected frontier, one recovered member pulls in the rest, which
//! is how a ≤25 %-of-grid budget recovers ≥80 % of the exhaustive
//! frontier. Constraint pre-filtering (see [`super::fidelity`]) runs
//! before *every* kernel call in both phases.
//!
//! Determinism: sampling, pre-filtering, bookkeeping and ranking all
//! happen on the coordinating thread; only kernel evaluation fans out,
//! through the same executor + cache path as grid queries, so an
//! [`OptimizeAnswer`] is identical at any thread count, warm cache or
//! cold.

use crate::cache::CacheKey;
use crate::engine::{EvalResult, Explorer};
use crate::executor::TaskPanic;
use crate::pareto::ParetoFrontier;
use crate::query::{Constraints, Objective, QueryError, QueryLimits, QueryRanges};
use drone_dse::eval::{DesignEval, DesignQuery, OBJECTIVE_SENSES};
use drone_math::stats::{argmax, argmin};
use drone_math::{BuildFnv, Sense};
use drone_telemetry::trace::Span;
use drone_telemetry::{Clock, Counter, Registry, SharedHistogram};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use super::fidelity::{compare_proxies, prefilter};
use super::sampler::{sample, Lattice, LatticePoint, Strategy};

/// Coarsest halving fidelity: proxies snap to every `2^3`-rd index.
const START_LEVEL: u32 = 3;

/// Local-search wave cap — a backstop, not a tuning knob; waves stop
/// on their own when the frontier saturates or the budget runs out.
const MAX_WAVES: usize = 64;

/// One optimization request: find the constrained optimum (and the
/// feasible Pareto frontier) of a gridded region without sweeping it.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeRequest {
    /// Label carried into the answer and reports.
    pub name: String,
    /// The region to search (the same lattice a grid query sweeps).
    pub ranges: QueryRanges,
    /// Feasibility bounds on the evaluated outputs.
    pub constraints: Constraints,
    /// What to optimize.
    pub objective: Objective,
    /// The search strategy.
    pub strategy: Strategy,
    /// Most unique lattice points the run may dispatch to the engine —
    /// the kernel-call ceiling the answer's `evaluated` respects.
    pub budget: usize,
    /// Seed for the strategy's random streams.
    pub seed: u64,
}

impl OptimizeRequest {
    /// A request with default constraints and seed 0.
    pub fn new(
        name: &str,
        ranges: QueryRanges,
        objective: Objective,
        strategy: Strategy,
        budget: usize,
    ) -> OptimizeRequest {
        OptimizeRequest {
            name: name.to_owned(),
            ranges,
            constraints: Constraints::default(),
            objective,
            strategy,
            budget,
            seed: 0,
        }
    }

    /// Sets the constraints.
    pub fn with_constraints(mut self, constraints: Constraints) -> OptimizeRequest {
        self.constraints = constraints;
        self
    }

    /// Sets the sampling seed.
    pub fn with_seed(mut self, seed: u64) -> OptimizeRequest {
        self.seed = seed;
        self
    }

    /// Validates the request against the service limits: axis sanity
    /// plus the optimize budget cap. The gate the serving layer runs
    /// on untrusted input.
    pub fn validate(&self, limits: &QueryLimits) -> Result<(), QueryError> {
        if self.name.len() > limits.max_name_bytes {
            return Err(QueryError::NameTooLong {
                len: self.name.len(),
                max: limits.max_name_bytes,
            });
        }
        self.ranges.validate(limits)?;
        if self.budget == 0 || self.budget > limits.max_optimize_budget {
            return Err(QueryError::BadBudget {
                budget: self.budget,
                max: limits.max_optimize_budget,
            });
        }
        Ok(())
    }

    /// Worst-case evaluation cost in the serving layer's cost units:
    /// the budget is a hard ceiling on dispatched points, so it *is*
    /// the estimate the per-request deadline sheds against.
    pub fn estimated_cost_units(&self) -> u64 {
        self.budget as u64
    }
}

/// The optimizer's answer to one [`OptimizeRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeAnswer {
    /// The request's label.
    pub name: String,
    /// The strategy that ran.
    pub strategy: Strategy,
    /// The constrained optimum, when any evaluated point was feasible.
    pub best: Option<DesignEval>,
    /// Pareto frontier (flight time ↑, weight ↓, compute share ↓) of
    /// the evaluated feasible set, in admission order.
    pub frontier: Vec<DesignEval>,
    /// Candidates the strategy drew (before dedup and pre-filtering).
    pub sampled: usize,
    /// Unique lattice points dispatched to the engine — the number the
    /// budget caps and the grid comparison counts. Cache hits from
    /// earlier runs still count; within-run revisits never dispatch.
    pub evaluated: usize,
    /// Of `evaluated`, points dispatched at reduced fidelity (the
    /// halving loop's coarse proxies; 0 for the samplers).
    pub coarse_evals: usize,
    /// Candidates rejected by the constraint pre-filter before any
    /// kernel call.
    pub prefiltered: usize,
    /// Unique points that sized and met the constraints.
    pub feasible: usize,
    /// Unique points that failed to size, broke a constraint, or were
    /// pre-filtered.
    pub infeasible: usize,
    /// Candidate-generation rounds (1 for the samplers; ranking rounds
    /// plus the full-fidelity confirmation for halving).
    pub rounds: usize,
    /// Pareto local-search waves run after candidate generation.
    pub refine_waves: usize,
    /// Halving pool size entering each round (empty for the samplers).
    pub pool_sizes: Vec<usize>,
    /// The request's budget, echoed for reports.
    pub budget: usize,
}

struct PerStrategy {
    runs: Arc<Counter>,
    points: Arc<SharedHistogram>,
    frontier_size: Arc<SharedHistogram>,
}

/// Per-strategy optimizer metrics, registered by
/// [`Explorer::attach_telemetry`] as `optimizer.*`.
pub(crate) struct OptimizerTelemetry {
    clock: Clock,
    latency: Arc<SharedHistogram>,
    prefiltered: Arc<Counter>,
    pool_survival: Arc<SharedHistogram>,
    per: [PerStrategy; 4],
}

impl OptimizerTelemetry {
    pub(crate) fn register(registry: &Registry) -> OptimizerTelemetry {
        let per = Strategy::ALL.map(|s| PerStrategy {
            runs: registry.counter(&format!("optimizer.runs.{s}")),
            points: registry.histogram(&format!("optimizer.points.{s}")),
            frontier_size: registry.histogram(&format!("optimizer.frontier_size.{s}")),
        });
        OptimizerTelemetry {
            clock: registry.clock().clone(),
            latency: registry.histogram("optimizer.latency_s"),
            prefiltered: registry.counter("optimizer.prefiltered"),
            pool_survival: registry.histogram("optimizer.pool_survival"),
            per,
        }
    }
}

/// One optimization run's working state. Public for direct embedding;
/// most callers go through [`Explorer::optimize`].
pub struct Optimizer<'a> {
    explorer: &'a Explorer,
    req: &'a OptimizeRequest,
    lattice: Lattice,
    /// Outcome per key already handled this run (dispatched or
    /// pre-filtered); `None` = pre-filtered, never evaluated. This
    /// run's sets and maps hash with FNV, as the engine's and the
    /// cache's do: their keys are lattice points of a validated request,
    /// at most its budget of them, and none is ever iterated.
    outcomes: HashMap<CacheKey, Option<EvalResult>, BuildFnv>,
    feasible: Vec<(LatticePoint, DesignEval)>,
    frontier: ParetoFrontier,
    sampled: usize,
    evaluated: usize,
    coarse_evals: usize,
    prefiltered: usize,
    infeasible: usize,
    pool_sizes: Vec<usize>,
    child_order: u64,
}

impl<'a> Optimizer<'a> {
    /// A run over `explorer` for one request.
    pub fn new(explorer: &'a Explorer, req: &'a OptimizeRequest) -> Optimizer<'a> {
        Optimizer {
            explorer,
            req,
            lattice: Lattice::new(&req.ranges),
            outcomes: HashMap::default(),
            feasible: Vec::new(),
            frontier: ParetoFrontier::new(&OBJECTIVE_SENSES),
            sampled: 0,
            evaluated: 0,
            coarse_evals: 0,
            prefiltered: 0,
            infeasible: 0,
            pool_sizes: Vec::new(),
            child_order: 0,
        }
    }

    /// Runs the strategy to completion. See the module docs for the
    /// phase structure; `parent` threads causal tracing through every
    /// phase span and point span.
    pub fn run(mut self, parent: Option<&Span>) -> Result<OptimizeAnswer, TaskPanic> {
        let started = self.explorer.opt_telemetry.as_ref().map(|t| t.clock.now());

        let pool_target = match self.req.strategy {
            // Coarse proxies coalesce heavily, so halving affords a
            // pool as large as the whole budget.
            Strategy::Halving => self.req.budget,
            // Samplers evaluate every kept candidate: spend ~2/5 of
            // the budget seeding, leave the rest for local search.
            _ => (self.req.budget * 2 / 5).max(1),
        }
        .min(self.lattice.point_count());
        let pool = sample(self.req.strategy, &self.lattice, self.req.seed, pool_target);
        self.sampled = pool.len();

        match self.req.strategy {
            Strategy::Halving => self.halve(pool, parent)?,
            _ => {
                self.process(&pool, "optimize.sample", false, parent)?;
            }
        }
        let refine_waves = self.refine(parent)?;

        let best = self.best_of();
        let frontier: Vec<DesignEval> = self
            .frontier
            .member_ids()
            .iter()
            .map(|&id| self.feasible[id].1)
            .collect();
        let rounds = if self.pool_sizes.is_empty() {
            1
        } else {
            self.pool_sizes.len()
        };

        if let Some(t) = self.explorer.opt_telemetry.as_ref() {
            if let Some(start) = started {
                t.latency.record(t.clock.now() - start);
            }
            let per = &t.per[self.req.strategy.slot()];
            per.runs.inc();
            per.points.record(self.evaluated as f64);
            per.frontier_size.record(frontier.len() as f64);
            t.prefiltered.add(self.prefiltered as u64);
            for pair in self.pool_sizes.windows(2) {
                t.pool_survival
                    .record(pair[1] as f64 / pair[0].max(1) as f64);
            }
        }

        Ok(OptimizeAnswer {
            name: self.req.name.clone(),
            strategy: self.req.strategy,
            best,
            frontier,
            sampled: self.sampled,
            evaluated: self.evaluated,
            coarse_evals: self.coarse_evals,
            prefiltered: self.prefiltered,
            feasible: self.feasible.len(),
            infeasible: self.infeasible,
            rounds,
            refine_waves,
            pool_sizes: self.pool_sizes,
            budget: self.req.budget,
        })
    }

    /// Evaluates a candidate batch: dedup against everything handled
    /// this run, pre-filter, enforce the budget, then one parallel
    /// fan-out through the engine's cache. Feasible results join the
    /// pool and the incremental frontier in input order.
    fn process(
        &mut self,
        points: &[LatticePoint],
        span_name: &'static str,
        coarse: bool,
        parent: Option<&Span>,
    ) -> Result<(), TaskPanic> {
        let mut batch: Vec<(LatticePoint, DesignQuery, CacheKey)> = Vec::new();
        let mut batch_keys: HashSet<CacheKey, BuildFnv> = HashSet::default();
        for point in points {
            let query = self.lattice.query(point);
            let key = CacheKey::quantize(&query);
            if self.outcomes.contains_key(&key) || batch_keys.contains(&key) {
                continue;
            }
            if prefilter(&query, &self.req.constraints).is_some() {
                self.outcomes.insert(key, None);
                self.prefiltered += 1;
                self.infeasible += 1;
                continue;
            }
            batch_keys.insert(key);
            batch.push((*point, query, key));
        }
        // The budget caps dispatched points. Overflow candidates are
        // dropped *unseen*, so a later wave can still reach them if
        // earlier points turn out cache-warm — but dispatch never can
        // exceed the ceiling.
        let room = self.req.budget.saturating_sub(self.evaluated);
        batch.truncate(room);
        if batch.is_empty() {
            return Ok(());
        }

        let span = parent.map(|p| {
            let mut span = p.child(span_name, self.child_order);
            span.tag("points", batch.len());
            span.tag("coarse", coarse);
            span
        });
        self.child_order += 1;
        let queries: Vec<DesignQuery> = batch.iter().map(|(_, q, _)| *q).collect();
        self.evaluated += queries.len();
        if coarse {
            self.coarse_evals += queries.len();
        }
        let results = self.explorer.try_evaluate_points(&queries, span.as_ref())?;
        for ((point, _, key), result) in batch.into_iter().zip(results) {
            self.outcomes.insert(key, Some(result));
            match result {
                Ok(eval) if self.req.constraints.admits(&eval) => {
                    self.feasible.push((point, eval));
                    self.frontier
                        .insert(self.feasible.len() - 1, &eval.objectives());
                }
                _ => self.infeasible += 1,
            }
        }
        Ok(())
    }

    /// Multi-fidelity successive halving: rank the pool by coarse
    /// proxies, keep the better half, sharpen the fidelity, repeat;
    /// survivors evaluate at full fidelity.
    fn halve(
        &mut self,
        mut candidates: Vec<LatticePoint>,
        parent: Option<&Span>,
    ) -> Result<(), TaskPanic> {
        let elite = (candidates.len() / 8).max(4);
        let mut level = START_LEVEL;
        while candidates.len() > elite && level > 0 && self.evaluated < self.req.budget {
            let proxies: Vec<LatticePoint> = candidates
                .iter()
                .map(|c| self.lattice.snap_to_level(c, level))
                .collect();
            self.process(&proxies, "optimize.round", true, parent)?;
            self.pool_sizes.push(candidates.len());
            let objective = self.req.objective;
            let constraints = self.req.constraints;
            let lattice = &self.lattice;
            let outcomes = &self.outcomes;
            let proxy_outcome = |c: &LatticePoint| {
                let key = CacheKey::quantize(&lattice.query(&lattice.snap_to_level(c, level)));
                match outcomes.get(&key) {
                    Some(Some(result)) => {
                        let admitted = matches!(result, Ok(e) if constraints.admits(e));
                        (Some(result), admitted)
                    }
                    _ => (None, false),
                }
            };
            candidates
                .sort_by(|a, b| compare_proxies(objective, proxy_outcome(a), proxy_outcome(b)));
            candidates.truncate(
                candidates
                    .len()
                    .div_ceil(2)
                    .max(elite.min(candidates.len())),
            );
            level -= 1;
        }
        self.pool_sizes.push(candidates.len());
        // Survivors graduate to full fidelity.
        self.process(&candidates, "optimize.round", false, parent)
    }

    /// Pareto local search: evaluate the lattice neighbours of every
    /// frontier member, admit what survives, repeat until the frontier
    /// stops producing unexpanded members (or the budget is gone).
    fn refine(&mut self, parent: Option<&Span>) -> Result<usize, TaskPanic> {
        let mut expanded: HashSet<usize, BuildFnv> = HashSet::default();
        let mut waves = 0usize;
        while waves < MAX_WAVES && self.evaluated < self.req.budget {
            let pending: Vec<usize> = self
                .frontier
                .member_ids()
                .iter()
                .copied()
                .filter(|id| !expanded.contains(id))
                .collect();
            if pending.is_empty() {
                break;
            }
            let mut wave: Vec<LatticePoint> = Vec::new();
            for id in pending {
                expanded.insert(id);
                let member = self.feasible[id].0;
                self.lattice.neighbors(&member, &mut wave);
            }
            self.process(&wave, "optimize.refine", false, parent)?;
            waves += 1;
        }
        Ok(waves)
    }

    /// The incumbent under the request's objective; ties resolve to
    /// the earliest admission, like the grid engine.
    fn best_of(&self) -> Option<DesignEval> {
        let scores: Vec<f64> = self
            .feasible
            .iter()
            .map(|(_, e)| self.req.objective.value(e))
            .collect();
        let idx = match self.req.objective.sense() {
            Sense::Maximize => argmax(&scores),
            Sense::Minimize => argmin(&scores),
        }?;
        Some(self.feasible[idx].1)
    }
}

impl Explorer {
    /// Answers one optimize request.
    ///
    /// # Panics
    ///
    /// Re-raises a caught evaluation panic; serving layers use
    /// [`Explorer::try_optimize`] for a structured error instead.
    pub fn optimize(&self, req: &OptimizeRequest) -> OptimizeAnswer {
        match self.try_optimize(req, None) {
            Ok(answer) => answer,
            Err(caught) => panic!("{caught}"),
        }
    }

    /// [`Explorer::optimize`] with panic isolation: a panicking
    /// evaluation anywhere in the run aborts *this request only*; the
    /// engine stays healthy.
    ///
    /// With `parent`, each phase opens a child span under it
    /// (`optimize.sample` / `optimize.round` / `optimize.refine`, orders
    /// sequential), and every wave traces through
    /// [`Explorer::try_evaluate_points`]: per-point spans in a detailed
    /// trace, stage spans in an aggregate one.
    pub fn try_optimize(
        &self,
        req: &OptimizeRequest,
        parent: Option<&Span>,
    ) -> Result<OptimizeAnswer, TaskPanic> {
        Optimizer::new(self, req).run(parent)
    }
}
