//! The `optimize` experiment: seeded sampling + multi-fidelity search
//! against the exhaustive grid, points-evaluated vs frontier quality.
//!
//! Two phases:
//!
//! 1. **In-process comparison** — one exhaustive grid sweep over a
//!    dense reference region (the ground truth), then each strategy
//!    (seeded Monte Carlo, Latin Hypercube, Sobol, successive halving)
//!    optimizing the same region under one shared engine. Recovered
//!    frontier fraction counts cache-key-identical members, which the
//!    lattice snapping makes meaningful; the best-objective gap is the
//!    grid optimum minus the strategy's optimum.
//! 2. **Wire run** — one `optimize` request per strategy through the
//!    resilient [`Client`] against a live loopback server, proving the
//!    wire kind end to end and that reply bytes are deterministic.
//!
//! The JSON artifact holds only scheduling-independent numbers (point
//! counts, fractions, gaps, counters, drain stats, a reply digest), so
//! `BENCH_optimize.json` is byte-identical at `--threads 1` and
//! `--threads 4`; CI diffs exactly that and asserts the acceptance
//! band: every strategy recovers >=80 % of the grid frontier at <=25 %
//! of its points, with the multi-fidelity loop cheapest.

use crate::experiments::serve_figs::fnv_digest;
use crate::experiments::Report;
use crate::table::{f, Table};
use drone_components::battery::CellCount;
use drone_explorer::cache::CacheKey;
use drone_explorer::{
    Constraints, Explorer, GridRange, Objective, OptimizeRequest, Query, QueryRanges, Strategy,
};
use drone_serve::{Client, ClientConfig, ReactorConfig, ReactorServer};
use drone_telemetry::{Json, Registry};
use std::collections::HashSet;
use std::time::Duration;

const SEED: u64 = 42;
const BUDGET: usize = 4096;
const WIRE_BUDGET: usize = 16;

/// The dense reference region. The compute axis matters: more compute
/// is worse on all three objectives at once (heavier, shorter flight,
/// bigger share), so sweeping it grows the grid eightfold while the
/// frontier stays on the low-compute face — exactly the kind of
/// mostly-dominated volume sampling should refuse to pay for.
fn reference_region() -> (QueryRanges, Constraints) {
    let ranges = QueryRanges {
        wheelbase_mm: GridRange::new(150.0, 750.0, 25),
        cells: vec![CellCount::S3, CellCount::S4, CellCount::S6],
        capacity_mah: GridRange::new(1000.0, 9000.0, 33),
        compute_power_w: GridRange::new(5.0, 40.0, 8),
        twr: GridRange::fixed(2.0),
        payload_g: GridRange::fixed(100.0),
    };
    let constraints = Constraints {
        max_weight_g: Some(2200.0),
        min_flight_time_min: Some(5.0),
        ..Constraints::default()
    };
    (ranges, constraints)
}

/// The small region the wire phase optimizes per strategy.
fn wire_region() -> QueryRanges {
    QueryRanges {
        wheelbase_mm: GridRange::new(250.0, 450.0, 5),
        cells: vec![CellCount::S3],
        capacity_mah: GridRange::new(2000.0, 6000.0, 9),
        compute_power_w: GridRange::fixed(10.0),
        twr: GridRange::fixed(2.0),
        payload_g: GridRange::fixed(0.0),
    }
}

struct StrategyRow {
    strategy: Strategy,
    evaluated: usize,
    grid_fraction: f64,
    coarse_evals: usize,
    prefiltered: usize,
    frontier: usize,
    recovered: usize,
    recovery: f64,
    best_gap: f64,
    refine_waves: usize,
    rounds: usize,
}

/// Runs the in-process comparison: grid ground truth, then every
/// strategy over the same shared engine (warm-cache refinement is the
/// point — `evaluated` counts unique dispatches, not cache state).
fn compare_strategies(registry: &Registry) -> (usize, usize, f64, Vec<StrategyRow>) {
    let (ranges, constraints) = reference_region();
    let mut engine = Explorer::with_default_threads();
    engine.attach_telemetry(registry);
    // Pure exhaustive sweep — no refinement rounds, so the ground
    // truth is exactly the lattice the strategies sample.
    let grid_query = Query::new("optimize_grid", ranges.clone(), Objective::MaxFlightTime)
        .with_constraints(constraints)
        .with_refinement(0, 3);
    let grid = engine.run(&grid_query);
    let grid_points = ranges.point_count();
    let grid_best = grid
        .best
        .as_ref()
        .map(|b| b.flight_time_min)
        .expect("reference region has feasible designs");
    let grid_keys: HashSet<CacheKey> = grid
        .frontier
        .iter()
        .map(|e| CacheKey::quantize(&e.query))
        .collect();

    let rows = Strategy::ALL
        .iter()
        .map(|&strategy| {
            let req = OptimizeRequest::new(
                "optimize_bench",
                ranges.clone(),
                Objective::MaxFlightTime,
                strategy,
                BUDGET,
            )
            .with_constraints(constraints)
            .with_seed(SEED);
            let answer = engine.optimize(&req);
            let recovered = answer
                .frontier
                .iter()
                .filter(|e| grid_keys.contains(&CacheKey::quantize(&e.query)))
                .count();
            let best_gap = grid_best
                - answer
                    .best
                    .as_ref()
                    .map(|b| b.flight_time_min)
                    .unwrap_or(0.0);
            StrategyRow {
                strategy,
                evaluated: answer.evaluated,
                grid_fraction: answer.evaluated as f64 / grid_points as f64,
                coarse_evals: answer.coarse_evals,
                prefiltered: answer.prefiltered,
                frontier: answer.frontier.len(),
                recovered,
                recovery: recovered as f64 / grid_keys.len() as f64,
                best_gap,
                refine_waves: answer.refine_waves,
                rounds: answer.rounds,
            }
        })
        .collect();
    (grid_points, grid_keys.len(), grid_best, rows)
}

/// One optimize call per strategy over the wire; returns the reply
/// digest, per-strategy evaluated counts from the replies, and the
/// server's drain stats (thread-leak accounting for the artifact).
fn wire_phase(registry: &Registry) -> (String, Vec<(Strategy, u64)>, drone_serve::DrainStats) {
    let mut engine = Explorer::with_default_threads();
    engine.attach_telemetry(registry);
    let server = ReactorServer::start(engine, ReactorConfig::default(), registry)
        .expect("bind loopback server");
    let config = ClientConfig {
        reply_timeout: Duration::from_secs(10),
        trace_seed: SEED,
        ..ClientConfig::default()
    };
    let mut client = Client::new(server.addr(), config, registry);
    let mut lines = Vec::new();
    let mut evaluated = Vec::new();
    for strategy in Strategy::ALL {
        let req = OptimizeRequest::new(
            "wire",
            wire_region(),
            Objective::MaxFlightTime,
            strategy,
            WIRE_BUDGET,
        )
        .with_seed(SEED);
        let success = client.optimize(&req).expect("optimize call answers");
        assert_eq!(success.attempts, 1, "loopback call needs no retries");
        let answer = success.reply.get("answer").expect("ok reply has answer");
        assert_eq!(
            answer.get("strategy").and_then(Json::as_str),
            Some(strategy.as_str())
        );
        let points = answer
            .get("evaluated")
            .and_then(Json::as_f64)
            .expect("evaluated count") as u64;
        evaluated.push((strategy, points));
        lines.push(success.reply.render());
    }
    let stats = server.drain();
    assert!(stats.clean, "server drain must be clean");
    let digest = fnv_digest(&mut lines);
    (digest, evaluated, stats)
}

/// Runs the optimizer benchmark: per-strategy points-evaluated vs
/// frontier quality against the exhaustive grid, plus the wire phase.
pub fn optimize() -> Report {
    let registry = Registry::with_wall_clock();
    let (grid_points, grid_frontier, grid_best, rows) = compare_strategies(&registry);
    let wire_registry = Registry::with_wall_clock();
    let (digest, wire_evaluated, drain) = wire_phase(&wire_registry);

    let optimize_counter = wire_registry.counter("serve.optimize_requests").get();
    let protocol_errors = wire_registry.counter("serve.errors.protocol").get();
    let query_errors = wire_registry.counter("serve.errors.query").get();
    let panics = wire_registry.counter("serve.panics_caught").get();
    let prefiltered_total = registry.counter("optimizer.prefiltered").get();

    let mut out = format!(
        "drone-optimizer — seeded search vs the exhaustive grid\n\n\
         reference grid: {grid_points} points, {grid_frontier} frontier members, \
         best flight {grid_best:.2} min\n\
         per-strategy budget: {BUDGET} points ({:.1} % of the grid)\n\n",
        100.0 * BUDGET as f64 / grid_points as f64
    );
    let mut table = Table::new(vec![
        "strategy",
        "points",
        "% of grid",
        "coarse",
        "frontier",
        "recovered",
        "recovery %",
        "best gap (min)",
        "waves",
    ]);
    for row in &rows {
        table.row(vec![
            row.strategy.to_string(),
            f(row.evaluated as f64, 0),
            f(100.0 * row.grid_fraction, 1),
            f(row.coarse_evals as f64, 0),
            f(row.frontier as f64, 0),
            f(row.recovered as f64, 0),
            f(100.0 * row.recovery, 1),
            f(row.best_gap, 3),
            f(row.refine_waves as f64, 0),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nwire phase: {} optimize requests answered ({} per strategy), digest {digest}\n",
        optimize_counter,
        optimize_counter / Strategy::ALL.len() as u64,
    ));

    let mut strategies = Json::arr();
    for row in &rows {
        strategies.push(
            Json::obj()
                .with("strategy", row.strategy.as_str())
                .with("evaluated", row.evaluated)
                .with("grid_fraction", row.grid_fraction)
                .with("coarse_evals", row.coarse_evals)
                .with("prefiltered", row.prefiltered)
                .with("frontier", row.frontier)
                .with("recovered", row.recovered)
                .with("recovery", row.recovery)
                .with("best_gap_min", row.best_gap)
                .with("refine_waves", row.refine_waves)
                .with("rounds", row.rounds),
        );
    }
    let mut wire = Json::arr();
    for (strategy, points) in &wire_evaluated {
        wire.push(
            Json::obj()
                .with("strategy", strategy.as_str())
                .with("evaluated", *points),
        );
    }
    let metrics = Json::obj()
        .with(
            "grid",
            Json::obj()
                .with("points", grid_points)
                .with("frontier", grid_frontier)
                .with("best_flight_min", grid_best),
        )
        .with("budget", BUDGET)
        .with("seed", SEED)
        .with("strategies", strategies)
        .with("prefiltered_total", prefiltered_total)
        .with(
            "wire",
            Json::obj()
                .with("optimize_requests", optimize_counter)
                .with("per_strategy", wire)
                .with(
                    "errors",
                    Json::obj()
                        .with("protocol", protocol_errors)
                        .with("query", query_errors)
                        .with("panics_caught", panics),
                )
                .with(
                    "drain",
                    Json::obj()
                        .with("threads_joined", drain.threads_joined)
                        .with("clean", drain.clean),
                )
                .with("reply_digest", digest),
        );
    Report::new(out, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_strategy_meets_the_acceptance_band() {
        let report = optimize();
        let m = &report.metrics;
        let strategies = m.get("strategies").and_then(Json::as_arr).unwrap();
        assert_eq!(strategies.len(), 4);
        let mut halving_points = None;
        let mut cheapest = u64::MAX;
        for s in strategies {
            let name = s.get("strategy").and_then(Json::as_str).unwrap();
            let evaluated = s.get("evaluated").and_then(Json::as_f64).unwrap() as u64;
            let fraction = s.get("grid_fraction").and_then(Json::as_f64).unwrap();
            let recovery = s.get("recovery").and_then(Json::as_f64).unwrap();
            let gap = s.get("best_gap_min").and_then(Json::as_f64).unwrap();
            assert!(fraction <= 0.25, "{name}: {fraction} of the grid");
            assert!(recovery >= 0.8, "{name}: recovered only {recovery}");
            assert!(gap.abs() < 1.0, "{name}: best gap {gap} min");
            cheapest = cheapest.min(evaluated);
            if name == "halving" {
                halving_points = Some(evaluated);
            }
        }
        assert_eq!(
            halving_points.expect("halving row present"),
            cheapest,
            "the multi-fidelity loop must evaluate the fewest points"
        );
        let wire = m.get("wire").unwrap();
        let errors = wire.get("errors").unwrap();
        for key in ["protocol", "query", "panics_caught"] {
            assert_eq!(errors.get(key), Some(&Json::Num(0.0)), "{key}");
        }
        let drain = wire.get("drain").unwrap();
        assert_eq!(drain.get("clean"), Some(&Json::Bool(true)));
        assert!(
            drain.get("threads_joined").and_then(Json::as_f64).unwrap() > 0.0,
            "drain joined no threads"
        );
    }

    #[test]
    fn optimize_metrics_are_thread_count_invariant() {
        crate::experiments::assert_thread_count_invariant(|| optimize().metrics);
    }
}
