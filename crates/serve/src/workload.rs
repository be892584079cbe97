//! Deterministic client workloads for benchmarking the server.
//!
//! Every request a benchmark client sends comes from here, derived
//! from a seed and the client's index — so the `repro serve`
//! experiment and `examples/dse_client.rs` replay byte-identical
//! request streams run after run, and the benchmark artifact can be
//! byte-stable across thread counts.

use crate::protocol::request_to_json_traced;
use drone_components::battery::CellCount;
use drone_explorer::{Constraints, GridRange, Objective, Query, QueryRanges};
use drone_math::rng::Pcg32;
use drone_telemetry::derive_trace_id;

/// A deterministic stream of valid, modestly sized queries.
///
/// Grids stay small (≤ ~60 points, at most one refinement round) so a
/// benchmark exercises batching and queueing rather than a single
/// giant sweep. Queries repeat across clients often enough that the
/// shared memoization cache sees real hits.
pub struct Workload {
    rng: Pcg32,
    seed: u64,
    client: u64,
    sent: u64,
}

impl Workload {
    /// The workload for one client. Different clients get different
    /// (but fixed) streams; the same `(seed, client)` always replays
    /// the same requests.
    pub fn new(seed: u64, client: u64) -> Workload {
        Workload {
            rng: Pcg32::new(seed, client.wrapping_mul(2).wrapping_add(1)),
            seed,
            client,
            sent: 0,
        }
    }

    /// The causal trace id this workload stamps on request `id` —
    /// [`derive_trace_id`] over the workload seed, so artifacts can
    /// re-derive it without parsing request lines.
    fn trace_id_for(&self, id: u64) -> u64 {
        derive_trace_id(self.seed, id)
    }

    /// The next query in this client's stream.
    pub fn next_query(&mut self) -> Query {
        let rng = &mut self.rng;
        // Draw from a small palette of grid shapes so distinct clients
        // collide on cache granules.
        let wheelbase_lo = 150.0 + 50.0 * f64::from(rng.below(4));
        let capacity_lo = 1500.0 + 500.0 * f64::from(rng.below(4));
        let cells = match rng.below(3) {
            0 => vec![CellCount::S3],
            1 => vec![CellCount::S4],
            _ => vec![CellCount::S3, CellCount::S6],
        };
        let objective = match rng.below(3) {
            0 => Objective::MaxFlightTime,
            1 => Objective::MinWeight,
            _ => Objective::MinComputeShare,
        };
        let constraints = if rng.chance(0.5) {
            Constraints {
                max_weight_g: Some(900.0 + 300.0 * f64::from(rng.below(4))),
                ..Constraints::default()
            }
        } else {
            Constraints::default()
        };
        let refine = usize::from(rng.chance(0.25));
        let name = format!("c{}q{}", self.client, self.sent);
        self.sent += 1;
        Query::new(
            &name,
            QueryRanges {
                wheelbase_mm: GridRange::new(wheelbase_lo, wheelbase_lo + 200.0, 3),
                cells,
                capacity_mah: GridRange::new(capacity_lo, capacity_lo + 2000.0, 5),
                compute_power_w: GridRange::new(2.0, 10.0, 2),
                twr: GridRange::fixed(drone_components::paper::PAPER_TWR),
                payload_g: GridRange::fixed(0.0),
            },
            objective,
        )
        .with_constraints(constraints)
        .with_refinement(refine, 3)
    }

    /// The next request, rendered as a wire line (newline included)
    /// with a stamped causal `trace_id`. Request ids are globally
    /// unique across clients: `client * 10^6 + sequence`.
    pub fn next_request_line(&mut self) -> String {
        let id = self.client * 1_000_000 + self.sent;
        let query = self.next_query();
        let mut line = request_to_json_traced(id, self.trace_id_for(id), &query).render();
        line.push('\n');
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::parse_request;
    use drone_explorer::QueryLimits;

    #[test]
    fn workloads_replay_identically_for_the_same_seed() {
        let mut a = Workload::new(7, 2);
        let mut b = Workload::new(7, 2);
        for _ in 0..20 {
            assert_eq!(a.next_request_line(), b.next_request_line());
        }
        let mut other_client = Workload::new(7, 3);
        assert_ne!(
            Workload::new(7, 2).next_request_line(),
            other_client.next_request_line()
        );
    }

    #[test]
    fn every_generated_request_validates_and_round_trips() {
        let limits = QueryLimits::default();
        let mut workload = Workload::new(42, 0);
        for _ in 0..50 {
            let query = workload.next_query();
            query.validate(&limits).expect("workload query in limits");
            assert!(query.ranges.point_count() <= 60);
            let line = request_to_json_traced(1, workload.trace_id_for(1), &query).render();
            let parsed = parse_request(&line, &limits).expect("round trip");
            assert_eq!(parsed.query(), Some(&query));
            assert_eq!(parsed.trace_id, Some(workload.trace_id_for(1)));
        }
    }
}
