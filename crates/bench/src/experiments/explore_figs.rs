//! The `explore` experiment: the batch query service over the paper's
//! design space, exercised end to end.
//!
//! Four queries run through one memoizing [`Explorer`]: the ISSUE's
//! running example (max flight time at ≤ 450 mm with ≥ 200 g payload
//! and a ≥ 20 W computer), a lightest-drone search under a flight-time
//! floor, a compute-share query whose grid is a strict subset of the
//! previous one (every point a cache hit), and a warm re-run of the
//! first query (every point, including its refinement rounds, a hit).
//!
//! The JSON metrics contain only thread-count-independent numbers —
//! frontier members, incumbents, evaluation/cache counters — so the
//! `BENCH_explore.json` artifact is byte-identical at `--threads 1`
//! and `--threads 4`; CI diffs exactly that. Wall-clock latency lives
//! in the text report only.

use crate::experiments::Report;
use crate::table::{f, pct, Table};
use drone_components::battery::CellCount;
use drone_dse::eval::DesignEval;
use drone_explorer::{
    Constraints, Explorer, GridRange, Objective, Query, QueryAnswer, QueryRanges,
};
use drone_telemetry::{Json, Registry};

fn max_flight_query() -> Query {
    // "Max flight time for wheelbase <= 450 mm, payload >= 200 g,
    // compute >= 20 W."
    Query::new(
        "max-flight-450",
        QueryRanges {
            wheelbase_mm: GridRange::new(250.0, 450.0, 3),
            cells: vec![CellCount::S3, CellCount::S6],
            capacity_mah: GridRange::new(2000.0, 8000.0, 7),
            compute_power_w: GridRange::new(20.0, 30.0, 3),
            twr: GridRange::fixed(drone_components::paper::PAPER_TWR),
            payload_g: GridRange::new(200.0, 400.0, 3),
        },
        Objective::MaxFlightTime,
    )
}

fn lightest_query() -> Query {
    Query::new(
        "lightest-15min",
        QueryRanges {
            wheelbase_mm: GridRange::new(100.0, 800.0, 8),
            cells: vec![CellCount::S1, CellCount::S3, CellCount::S6],
            capacity_mah: GridRange::new(1000.0, 8000.0, 8),
            compute_power_w: GridRange::fixed(3.0),
            twr: GridRange::fixed(drone_components::paper::PAPER_TWR),
            payload_g: GridRange::fixed(0.0),
        },
        Objective::MinWeight,
    )
    .with_constraints(Constraints {
        min_flight_time_min: Some(15.0),
        ..Constraints::default()
    })
}

fn lean_compute_query() -> Query {
    // Deliberately a strict subset of `lightest_query`'s grid (3S only,
    // same wheelbase/capacity lattice): every point is a cache hit.
    Query::new(
        "lean-compute-20min",
        QueryRanges {
            wheelbase_mm: GridRange::new(100.0, 800.0, 8),
            cells: vec![CellCount::S3],
            capacity_mah: GridRange::new(1000.0, 8000.0, 8),
            compute_power_w: GridRange::fixed(3.0),
            twr: GridRange::fixed(drone_components::paper::PAPER_TWR),
            payload_g: GridRange::fixed(0.0),
        },
        Objective::MinComputeShare,
    )
    .with_constraints(Constraints {
        min_flight_time_min: Some(20.0),
        ..Constraints::default()
    })
    .with_refinement(0, 0)
}

fn eval_json(eval: &DesignEval) -> Json {
    Json::obj()
        .with("wheelbase_mm", eval.query.wheelbase_mm)
        .with("cells", eval.query.cells.to_string())
        .with("capacity_mah", eval.query.capacity_mah)
        .with("compute_w", eval.query.compute_power_w)
        .with("payload_g", eval.query.payload_g)
        .with("weight_g", eval.weight_g)
        .with("flight_min", eval.flight_time_min)
        .with("hover_w", eval.hover_power_w)
        .with("compute_share_hover", eval.compute_share_hover)
}

fn frontier_sorted(answer: &QueryAnswer) -> Vec<&DesignEval> {
    let mut members: Vec<&DesignEval> = answer.frontier.iter().collect();
    members.sort_by(|a, b| {
        b.flight_time_min
            .total_cmp(&a.flight_time_min)
            .then(a.weight_g.total_cmp(&b.weight_g))
    });
    members
}

/// Runs the batch service and reports frontiers, incumbents and cache
/// behaviour.
pub fn explore() -> Report {
    let registry = Registry::with_wall_clock();
    let mut explorer = Explorer::with_default_threads();
    explorer.attach_telemetry(&registry);

    let mut warm = max_flight_query();
    warm.name = "max-flight-450-warm".to_owned();
    let queries = [
        max_flight_query(),
        lightest_query(),
        lean_compute_query(),
        warm,
    ];
    let answers: Vec<_> = queries.iter().map(|q| explorer.run(q)).collect();

    let mut out = format!(
        "Design-space exploration service — {} worker thread(s)\n",
        explorer.threads()
    );
    let mut metrics = Json::obj();
    let mut queries_json = Json::arr();
    for answer in &answers {
        out.push_str(&format!(
            "\nquery {}: {} points over {} round(s), {} feasible / {} infeasible\n",
            answer.name, answer.evaluated, answer.rounds, answer.feasible, answer.infeasible
        ));
        match &answer.best {
            Some(best) => out.push_str(&format!(
                "  best: {} -> {:.1} min, {:.0} g, {} compute\n",
                best.query,
                best.flight_time_min,
                best.weight_g,
                pct(best.compute_share_hover)
            )),
            None => out.push_str("  best: no feasible design in range\n"),
        }
        out.push_str(&format!(
            "  Pareto frontier: {} design(s)\n",
            answer.frontier.len()
        ));

        let mut query_json = Json::obj()
            .with("name", answer.name.as_str())
            .with("evaluated", answer.evaluated)
            .with("feasible", answer.feasible)
            .with("infeasible", answer.infeasible)
            .with("rounds", answer.rounds)
            .with("frontier_size", answer.frontier.len());
        if let Some(best) = &answer.best {
            query_json.insert("best", eval_json(best));
        }
        let mut frontier_json = Json::arr();
        for member in frontier_sorted(answer) {
            frontier_json.push(eval_json(member));
        }
        query_json.insert("frontier", frontier_json);
        queries_json.push(query_json);
    }
    metrics.insert("queries", queries_json);

    // The headline Pareto table: the ISSUE query's frontier.
    out.push_str("\nPareto frontier of max-flight-450 (flight ^, weight v, compute share v):\n");
    let mut table = Table::new(vec![
        "wheelbase (mm)",
        "cells",
        "capacity (mAh)",
        "compute (W)",
        "payload (g)",
        "weight (g)",
        "flight (min)",
        "compute share",
    ]);
    for member in frontier_sorted(&answers[0]) {
        table.row(vec![
            f(member.query.wheelbase_mm, 0),
            member.query.cells.to_string(),
            f(member.query.capacity_mah, 0),
            f(member.query.compute_power_w, 0),
            f(member.query.payload_g, 0),
            f(member.weight_g, 0),
            f(member.flight_time_min, 1),
            pct(member.compute_share_hover),
        ]);
    }
    out.push_str(&table.render());

    let cache = explorer.cache();
    out.push_str(&format!(
        "\ncache: {} hits / {} misses / {} evictions, {} resident entries\n",
        cache.hit_count(),
        cache.miss_count(),
        cache.eviction_count(),
        cache.len()
    ));
    // Latency *values* are wall clock and would break the repo's
    // byte-identical-stdout determinism check; report counts here and
    // leave the timings in the `explorer.query.latency_s` histogram.
    let latency = registry.histogram("explorer.query.latency_s").snapshot();
    out.push_str(&format!(
        "query latency histogram: {} queries timed (values in telemetry, not printed)\n",
        latency.count()
    ));
    metrics.insert(
        "cache",
        Json::obj()
            .with("hits", cache.hit_count())
            .with("misses", cache.miss_count())
            .with("evictions", cache.eviction_count())
            .with("entries", cache.len()),
    );
    // Deterministic slice of the query histograms (counts, not times).
    metrics.insert(
        "query_histograms",
        Json::obj().with("latency_count", latency.count()).with(
            "points_total",
            registry.histogram("explorer.query.points").snapshot().sum(),
        ),
    );

    Report::new(out, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explore_reports_frontier_and_cache_hits() {
        let report = explore();
        let queries = report
            .metrics
            .get("queries")
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(queries.len(), 4);
        let first = &queries[0];
        assert!(first.get("frontier_size").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(
            first.get("best").is_some(),
            "ISSUE query must be satisfiable"
        );
        // The warm re-run answers identically to the cold run.
        let warm = &queries[3];
        assert_eq!(
            first.get("best").unwrap().render(),
            warm.get("best").unwrap().render()
        );
        assert_eq!(
            first.get("frontier").unwrap().render(),
            warm.get("frontier").unwrap().render()
        );
        let cache = report.metrics.get("cache").unwrap();
        assert!(cache.get("hits").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(cache.get("evictions").and_then(Json::as_f64).unwrap() == 0.0);
    }

    #[test]
    fn explore_metrics_are_thread_count_invariant() {
        crate::experiments::assert_thread_count_invariant(|| explore().metrics);
    }
}
