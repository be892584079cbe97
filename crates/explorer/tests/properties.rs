//! Property-based tests for the exploration engine's two load-bearing
//! guarantees: Pareto dominance is a strict partial order whose
//! extracted frontier is exactly the maximal set, and the parallel
//! executor is a drop-in for serial iteration at any thread count.

use drone_components::battery::CellCount;
use drone_dse::eval::DesignQuery;
use drone_explorer::{extract_frontier, Explorer, GridRange, ParallelExecutor, ParetoFrontier};
use drone_math::{dominates, Sense};
use proptest::prelude::*;

/// A random 3-objective point.
fn point() -> impl Strategy<Value = [f64; 3]> {
    (0.0f64..100.0, 0.0f64..100.0, 0.0f64..100.0).prop_map(|(a, b, c)| [a, b, c])
}

fn points() -> impl Strategy<Value = Vec<[f64; 3]>> {
    prop::collection::vec(point(), 1..40)
}

/// One of the eight max/min sense assignments over three axes.
fn senses() -> impl Strategy<Value = [Sense; 3]> {
    (0usize..8).prop_map(|bits| {
        let pick = |bit: usize| {
            if bits >> bit & 1 == 0 {
                Sense::Maximize
            } else {
                Sense::Minimize
            }
        };
        [pick(0), pick(1), pick(2)]
    })
}

proptest! {
    #[test]
    fn dominance_is_irreflexive(p in point(), senses in senses()) {
        prop_assert!(!dominates(&p, &p, &senses), "{p:?} dominates itself");
    }

    #[test]
    fn dominance_is_antisymmetric(a in point(), b in point(), senses in senses()) {
        prop_assert!(
            !(dominates(&a, &b, &senses) && dominates(&b, &a, &senses)),
            "{a:?} and {b:?} dominate each other"
        );
    }

    #[test]
    fn extracted_frontier_is_mutually_non_dominated(
        points in points(),
        senses in senses(),
    ) {
        let frontier = extract_frontier(&points, &senses);
        prop_assert!(!frontier.is_empty(), "a non-empty finite set has maximal points");
        for &i in &frontier {
            for &j in &frontier {
                prop_assert!(
                    !dominates(&points[i], &points[j], &senses),
                    "frontier member {i} dominates frontier member {j}"
                );
            }
        }
    }

    #[test]
    fn every_dropped_point_is_dominated_by_a_frontier_member(
        points in points(),
        senses in senses(),
    ) {
        let frontier = extract_frontier(&points, &senses);
        for i in 0..points.len() {
            if frontier.contains(&i) {
                continue;
            }
            prop_assert!(
                frontier
                    .iter()
                    .any(|&k| dominates(&points[k], &points[i], &senses)),
                "dropped point {i} ({:?}) is not dominated by any frontier member",
                points[i]
            );
        }
    }

    #[test]
    fn incremental_frontier_matches_batch_extraction(
        points in points(),
        senses in senses(),
    ) {
        let mut incremental = ParetoFrontier::new(&senses);
        for (i, p) in points.iter().enumerate() {
            incremental.insert(i, p);
        }
        let mut ids = incremental.ids();
        ids.sort_unstable();
        let mut batch = extract_frontier(&points, &senses);
        batch.sort_unstable();
        prop_assert_eq!(ids, batch);
    }

    #[test]
    fn grid_values_are_strictly_monotone_with_exact_endpoints(
        min in 0.001f64..10_000.0,
        span in 0.001f64..10_000.0,
        steps in 2usize..100,
    ) {
        // Values are computed as `min + i·step`, never by running
        // accumulation — so endpoints are exact and ordering strict.
        let range = GridRange::new(min, min + span, steps);
        let values = range.values();
        prop_assert_eq!(values.len(), steps);
        prop_assert_eq!(values[0], min, "first value must be exactly min");
        prop_assert_eq!(
            values[steps - 1],
            min + span,
            "last value must be exactly max"
        );
        for pair in values.windows(2) {
            prop_assert!(
                pair[0] < pair[1],
                "values not strictly increasing: {} >= {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn parallel_executor_matches_serial_at_every_thread_count(
        items in prop::collection::vec(-1.0e3f64..1.0e3, 0..120),
    ) {
        // A mapping that depends on both index and value, so any
        // dropped, duplicated, or reordered item changes the output.
        let f = |i: usize, x: &f64| (i, x * x + i as f64);
        let serial: Vec<(usize, f64)> = items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        for threads in [1usize, 2, 8] {
            let parallel: Vec<(usize, f64)> = ParallelExecutor::new(threads)
                .try_map_blocked(&items, |_, start, block| {
                    block
                        .iter()
                        .enumerate()
                        .map(|(k, x)| Ok(f(start + k, x)))
                        .collect::<Vec<Result<_, drone_explorer::TaskPanic>>>()
                })
                .into_iter()
                .map(Result::unwrap)
                .collect();
            prop_assert_eq!(&parallel, &serial, "{} threads diverged", threads);
        }
    }

    #[test]
    fn blocked_map_matches_serial_at_every_thread_count(
        items in prop::collection::vec(-1.0e3f64..1.0e3, 0..120),
    ) {
        // The block callback sees (worker, start, block) — fold all
        // three into the output so that any wrong block boundary, any
        // misplaced scatter offset, or any dropped item changes a slot.
        // Worker id must NOT leak into results (it varies run to run),
        // so it is deliberately excluded.
        let f = |_worker: usize, start: usize, block: &[f64]| {
            block
                .iter()
                .enumerate()
                .map(|(k, x)| Ok((start + k, x * x + (start + k) as f64)))
                .collect::<Vec<Result<_, drone_explorer::TaskPanic>>>()
        };
        let serial = ParallelExecutor::new(1).try_map_blocked(&items, f);
        for threads in [2usize, 3, 8] {
            let parallel = ParallelExecutor::new(threads).try_map_blocked(&items, f);
            prop_assert_eq!(&parallel, &serial, "{} threads diverged", threads);
        }
    }

    #[test]
    fn engine_answers_are_bit_identical_at_every_thread_count(
        corners in prop::collection::vec(
            (60.0f64..1200.0, 0usize..6, 400.0f64..8000.0, 1.2f64..8.0),
            1..24,
        ),
    ) {
        // The full engine path: cache partitioning, block batching,
        // batched kernel, scatter — none of it may let thread count
        // reach the answer bits.
        let points: Vec<DesignQuery> = corners
            .into_iter()
            .map(|(wb, cell, cap, twr)| {
                DesignQuery::new(wb, CellCount::ALL[cell], cap).with_twr(twr)
            })
            .collect();
        let serial = Explorer::new(1).evaluate_points(&points);
        for threads in [2usize, 5] {
            let parallel = Explorer::new(threads).evaluate_points(&points);
            prop_assert_eq!(parallel.len(), serial.len());
            for (i, (p, s)) in parallel.iter().zip(&serial).enumerate() {
                match (p, s) {
                    (Ok(pe), Ok(se)) => {
                        prop_assert_eq!(
                            pe.weight_g.to_bits(), se.weight_g.to_bits(),
                            "{} threads: point {} weight bits differ", threads, i
                        );
                        prop_assert_eq!(
                            pe.flight_time_min.to_bits(), se.flight_time_min.to_bits(),
                            "{} threads: point {} flight-time bits differ", threads, i
                        );
                        prop_assert_eq!(
                            pe.hover_power_w.to_bits(), se.hover_power_w.to_bits(),
                            "{} threads: point {} hover-power bits differ", threads, i
                        );
                    }
                    (p, s) => prop_assert_eq!(
                        p, s,
                        "{} threads: point {} outcome class differs", threads, i
                    ),
                }
            }
        }
    }
}
