//! Seeded request streams for the five workloads.
//!
//! Every request line the benchmark sends, and every design point it
//! pre-loads into a cache, comes from here as a pure function of the
//! workload and the `--seed`, so the same seed replays the same bytes.
//!
//! Cold and optimize coordinates sit on an exact binary lattice
//! (wheelbase in 0.5 mm, capacity in 1 mAh, compute in 0.25 W, grid
//! steps of 10 mm / 250 mAh / 1 W), so every value is exactly
//! representable. Two points that share a cache key then share their
//! coordinates bit for bit, and a reply cannot depend on which earlier
//! request left an entry in the cache: that is what lets one fresh
//! in-process engine serve as the reference for every topology.

use crate::wire::{Topology, WIDTH};
use drone_components::battery::CellCount;
use drone_components::paper::PAPER_TWR;
use drone_dse::eval::DesignQuery;
use drone_explorer::{
    Constraints, GridRange, Objective, OptimizeRequest, Query, QueryRanges, Strategy,
};
use drone_math::rng::Pcg32;
use drone_serve::protocol::{optimize_request_to_json, request_to_json};

/// One of the benchmark's traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A 64-grid palette of 768-point grids, replayed warm, 8 pipelined.
    GridHot,
    /// 768-point grids at seeded offsets against a full cache, 1 outstanding.
    GridCold,
    /// Budget-256 optimize requests cycling the four strategies.
    Optimize,
    /// The `GridCold` stream through the 2-shard router.
    ShardedCold,
    /// The `GridCold` stream with every [`MIX_EVERY`]th request an
    /// `Optimize` request instead, 1 outstanding.
    Mixed,
}

/// Grids in the `GridHot` palette; setup replays all of them once.
/// 64 x 768 points fill under half of the 16x8192 cache, so the timed
/// pass never evicts.
pub const HOT_PALETTE: usize = 64;
/// Wire warm-up requests for the cold and optimize workloads.
pub const COLD_WARMUP: usize = 8;
/// Kernel evaluations each optimize request may spend.
pub const OPTIMIZE_BUDGET: usize = 256;
/// In the `Mixed` stream, request ids `MIX_EVERY - 1`, `2 * MIX_EVERY - 1`,
/// ... are optimize requests; the others are cold grids.
pub const MIX_EVERY: u64 = 4;

// Independent PCG streams per purpose, so the warm-up, the timed pass
// and the cache pre-load never share draws.
const STREAM_TIMED: u64 = 1;
const STREAM_WARMUP: u64 = 2;
const STREAM_FILL: u64 = 3;
const STREAM_PALETTE: u64 = 4;

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 5] = [
        Kind::GridHot,
        Kind::GridCold,
        Kind::Optimize,
        Kind::ShardedCold,
        Kind::Mixed,
    ];

    /// The `--workload` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Kind::GridHot => "grid_hot",
            Kind::GridCold => "grid_cold",
            Kind::Optimize => "optimize",
            Kind::ShardedCold => "sharded_cold",
            Kind::Mixed => "mixed",
        }
    }

    /// The inverse of [`Kind::name`].
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Requests the load generator keeps in flight on its connection.
    pub fn window(self) -> usize {
        match self {
            Kind::GridHot => 8,
            _ => 1,
        }
    }

    /// The deployment the workload drives: 2 shards of width 1 for the
    /// router, so its total width equals the direct server's.
    pub fn topology(self) -> Topology {
        match self {
            Kind::ShardedCold => Topology::Sharded { shards: WIDTH },
            _ => Topology::Direct { width: WIDTH },
        }
    }

    /// Whether setup pre-loads the cache to capacity before warm-up.
    pub fn fills_cache(self) -> bool {
        self != Kind::GridHot
    }
}

/// A deterministic request-line stream: the wire warm-up first, then
/// the timed pass. Request ids run on across both, starting at 0.
pub struct Stream {
    kind: Kind,
    seed: u64,
    palette: Vec<String>,
    timed: Pcg32,
    next_id: u64,
}

impl Stream {
    pub fn new(kind: Kind, seed: u64) -> Stream {
        let palette = if kind == Kind::GridHot {
            let mut rng = Pcg32::new(seed, STREAM_PALETTE);
            (0..HOT_PALETTE)
                .map(|i| {
                    body_after_id(
                        &request_to_json(0, &cold_query(&mut rng, &format!("hot{i}"))).render(),
                    )
                })
                .collect()
        } else {
            Vec::new()
        };
        Stream {
            kind,
            seed,
            palette,
            timed: Pcg32::new(seed, STREAM_TIMED),
            next_id: 0,
        }
    }

    /// The wire warm-up lines (newline-terminated).
    pub fn warmup(&mut self) -> Vec<String> {
        if self.kind == Kind::GridHot {
            return (0..self.palette.len()).map(|i| self.hot_line(i)).collect();
        }
        let mut rng = Pcg32::new(self.seed, STREAM_WARMUP);
        (0..COLD_WARMUP)
            .map(|_| {
                let id = self.take_id();
                cold_or_optimize_line(self.kind, &mut rng, id)
            })
            .collect()
    }

    /// The next timed line (newline-terminated).
    pub fn next_line(&mut self) -> String {
        if self.kind == Kind::GridHot {
            let slot = (self.next_id as usize) % self.palette.len();
            return self.hot_line(slot);
        }
        let id = self.take_id();
        cold_or_optimize_line(self.kind, &mut self.timed, id)
    }

    fn take_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn hot_line(&mut self, slot: usize) -> String {
        let id = self.take_id();
        format!("{{\"id\":{id}{}\n", self.palette[slot])
    }
}

/// The rendered request after its `{"id":0` prefix, so a palette entry
/// takes a fresh id without being rendered again in the timed loop.
fn body_after_id(rendered: &str) -> String {
    rendered
        .strip_prefix("{\"id\":0")
        .expect("request_to_json renders the id first")
        .to_owned()
}

fn cold_or_optimize_line(kind: Kind, rng: &mut Pcg32, id: u64) -> String {
    // The strategy cycles over the stream's optimize requests.
    let optimize = match kind {
        Kind::Optimize => Some(id),
        Kind::Mixed if id % MIX_EVERY == MIX_EVERY - 1 => Some(id / MIX_EVERY),
        _ => None,
    };
    let mut line = match optimize {
        Some(nth) => {
            let strategy = Strategy::ALL[(nth % 4) as usize];
            optimize_request_to_json(id, &optimize_request(rng, id, strategy)).render()
        }
        None => request_to_json(id, &cold_query(rng, &format!("cold{id}"))).render(),
    };
    line.push('\n');
    line
}

/// A 768-point grid at a seeded lattice offset.
pub fn cold_query(rng: &mut Pcg32, name: &str) -> Query {
    let objective = match rng.below(3) {
        0 => Objective::MaxFlightTime,
        1 => Objective::MinWeight,
        _ => Objective::MinComputeShare,
    };
    // One round: refinement would break the fixed 768-point cost per
    // request, and the router answers refined queries with `feasible`
    // counts a single engine does not give (see README.md).
    Query::new(name, offset_ranges(rng, 8, 8, 4), objective).with_refinement(0, 3)
}

/// Budget-256 optimize request over a 17x3x17x8 region.
fn optimize_request(rng: &mut Pcg32, id: u64, strategy: Strategy) -> OptimizeRequest {
    let ranges = offset_ranges(rng, 17, 17, 8);
    let max_weight_g = 1200.0 + 100.0 * f64::from(rng.below(8));
    // The wire format caps a seed at 1e9.
    let seed = u64::from(rng.below(1_000_000_000));
    OptimizeRequest::new(
        &format!("opt{id}"),
        ranges,
        Objective::MaxFlightTime,
        strategy,
        OPTIMIZE_BUDGET,
    )
    .with_constraints(Constraints {
        max_weight_g: Some(max_weight_g),
        ..Constraints::default()
    })
    .with_seed(seed)
}

fn offset_ranges(
    rng: &mut Pcg32,
    wheelbase: usize,
    capacity: usize,
    compute: usize,
) -> QueryRanges {
    let wheelbase_lo = 120.0 + 0.5 * f64::from(rng.below(400));
    let capacity_lo = 1000.0 + f64::from(rng.below(2000));
    let compute_lo = 1.0 + 0.25 * f64::from(rng.below(16));
    let span = |lo: f64, step: f64, n: usize| GridRange::new(lo, lo + step * (n - 1) as f64, n);
    QueryRanges {
        wheelbase_mm: span(wheelbase_lo, 10.0, wheelbase),
        cells: vec![CellCount::S3, CellCount::S4, CellCount::S6],
        capacity_mah: span(capacity_lo, 250.0, capacity),
        compute_power_w: span(compute_lo, 1.0, compute),
        twr: GridRange::fixed(PAPER_TWR),
        payload_g: GridRange::fixed(0.0),
    }
}

/// The cache pre-load: cold grids from their own stream, endless; the
/// caller takes grids until its cache is full.
pub fn fill_grids(seed: u64) -> impl Iterator<Item = Vec<DesignQuery>> {
    let mut rng = Pcg32::new(seed, STREAM_FILL);
    std::iter::repeat_with(move || cold_query(&mut rng, "fill").ranges.grid())
}

#[cfg(test)]
mod tests {
    use super::*;
    use drone_explorer::QueryLimits;
    use drone_serve::protocol::{parse_request, RequestBody};

    /// 8 wheelbase x 3 cells x 8 capacity x 4 compute.
    const COLD_POINTS: usize = 768;

    fn lines(kind: Kind, seed: u64, timed: usize) -> Vec<String> {
        let mut stream = Stream::new(kind, seed);
        let mut out = stream.warmup();
        out.extend((0..timed).map(|_| stream.next_line()));
        out
    }

    #[test]
    fn the_same_seed_gives_the_same_request_bytes() {
        let _serial = crate::serial_test();
        for kind in Kind::ALL {
            assert_eq!(lines(kind, 11, 40), lines(kind, 11, 40), "{}", kind.name());
            assert_ne!(lines(kind, 11, 40), lines(kind, 12, 40), "{}", kind.name());
        }
        let a: Vec<Vec<DesignQuery>> = fill_grids(5).take(3).collect();
        let b: Vec<Vec<DesignQuery>> = fill_grids(5).take(3).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn every_line_parses_with_the_shape_its_workload_claims() {
        let _serial = crate::serial_test();
        let limits = QueryLimits::default();
        for kind in Kind::ALL {
            for (i, line) in lines(kind, 3, 40).iter().enumerate() {
                let request = parse_request(line.trim_end(), &limits).expect("valid request");
                assert_eq!(request.id.as_f64(), Some(i as f64));
                let mix = MIX_EVERY as usize;
                let nth_optimize = match kind {
                    Kind::Optimize => Some(i),
                    Kind::Mixed if i % mix == mix - 1 => Some(i / mix),
                    _ => None,
                };
                match (nth_optimize, &request.body) {
                    (None, RequestBody::Query(q)) => {
                        assert_eq!(q.ranges.point_count(), COLD_POINTS);
                        assert_eq!(q.refine_rounds, 0);
                    }
                    (Some(nth), RequestBody::Optimize(r)) => {
                        assert_eq!(r.budget, OPTIMIZE_BUDGET);
                        assert_eq!(r.ranges.point_count(), 17 * 3 * 17 * 8);
                        assert_eq!(r.strategy, Strategy::ALL[nth % 4]);
                    }
                    _ => panic!("{}: unexpected body for line {i}", kind.name()),
                }
            }
        }
    }

    #[test]
    fn hot_timed_pass_replays_the_warmup_palette() {
        let _serial = crate::serial_test();
        let mut stream = Stream::new(Kind::GridHot, 9);
        let warm = stream.warmup();
        let timed: Vec<String> = (0..HOT_PALETTE).map(|_| stream.next_line()).collect();
        let limits = QueryLimits::default();
        for (w, t) in warm.iter().zip(&timed) {
            let w = parse_request(w.trim_end(), &limits).expect("valid");
            let t = parse_request(t.trim_end(), &limits).expect("valid");
            assert_eq!(w.query(), t.query());
            assert_ne!(w.id, t.id);
        }
    }
}
