//! Candidate generation over the query lattice.
//!
//! Every strategy searches the *same finite lattice* the exhaustive
//! grid would enumerate: a sampled unit-hypercube point maps to per-
//! axis grid indices, and indices map to coordinates through
//! [`GridRange::value_at`]. Snapping to the lattice is what makes the
//! optimizer commensurable with the grid baseline — a recovered
//! frontier member is *the same cache key* the grid would have found —
//! and lets every strategy share the engine's memoization cache.

use crate::query::{GridRange, QueryRanges};
use drone_dse::eval::DesignQuery;

use super::lhs::latin_hypercube;
use super::sobol::SobolSequence;
use drone_math::rng::Pcg32;

/// Axes of the sampling hypercube: cells + the five numeric ranges.
pub const AXES: usize = 6;

/// A deterministic seeded search strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Independent uniform draws from a seeded PCG32 stream.
    MonteCarlo,
    /// Latin Hypercube: every axis stratified, one sample per stratum.
    LatinHypercube,
    /// Sobol low-discrepancy sequence with a seeded digital shift.
    Sobol,
    /// Multi-fidelity successive halving over a Sobol candidate pool:
    /// coarse-lattice proxies rank the pool, survivors graduate to
    /// full fidelity.
    Halving,
}

impl Strategy {
    /// Every strategy, in wire/report order.
    pub const ALL: [Strategy; 4] = [
        Strategy::MonteCarlo,
        Strategy::LatinHypercube,
        Strategy::Sobol,
        Strategy::Halving,
    ];

    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Strategy::MonteCarlo => "monte_carlo",
            Strategy::LatinHypercube => "lhs",
            Strategy::Sobol => "sobol",
            Strategy::Halving => "halving",
        }
    }

    /// The inverse of [`Strategy::as_str`].
    pub fn from_name(name: &str) -> Option<Strategy> {
        Strategy::ALL.into_iter().find(|s| s.as_str() == name)
    }

    /// A stable index for per-strategy telemetry slots.
    pub(crate) fn slot(self) -> usize {
        match self {
            Strategy::MonteCarlo => 0,
            Strategy::LatinHypercube => 1,
            Strategy::Sobol => 2,
            Strategy::Halving => 3,
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A candidate as per-axis lattice indices (cells axis first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LatticePoint {
    /// Grid index on each axis, `[cells, wheelbase, capacity,
    /// compute, twr, payload]`.
    pub idx: [usize; AXES],
}

/// The finite search lattice a [`QueryRanges`] spans.
#[derive(Debug, Clone)]
pub struct Lattice {
    ranges: QueryRanges,
    dims: [usize; AXES],
}

impl Lattice {
    /// The lattice of a validated range set.
    pub fn new(ranges: &QueryRanges) -> Lattice {
        let dims = [
            ranges.cells.len().max(1),
            ranges.wheelbase_mm.steps,
            ranges.capacity_mah.steps,
            ranges.compute_power_w.steps,
            ranges.twr.steps,
            ranges.payload_g.steps,
        ];
        Lattice {
            ranges: ranges.clone(),
            dims,
        }
    }

    /// Distinct lattice points (the exhaustive grid's size).
    pub fn point_count(&self) -> usize {
        self.dims.iter().product()
    }

    /// Per-axis index counts.
    pub fn dims(&self) -> &[usize; AXES] {
        &self.dims
    }

    /// Snaps a unit-hypercube sample onto the lattice:
    /// `floor(u·steps)`, clamped to the last index.
    fn snap_unit(&self, unit: &[f64]) -> LatticePoint {
        let mut idx = [0usize; AXES];
        for (axis, slot) in idx.iter_mut().enumerate() {
            let steps = self.dims[axis];
            let u = unit[axis].clamp(0.0, 1.0);
            *slot = ((u * steps as f64) as usize).min(steps - 1);
        }
        LatticePoint { idx }
    }

    /// The design point at a lattice position.
    pub fn query(&self, point: &LatticePoint) -> DesignQuery {
        let at = |range: &GridRange, i: usize| range.value_at(i);
        DesignQuery {
            wheelbase_mm: at(&self.ranges.wheelbase_mm, point.idx[1]),
            cells: self.ranges.cells[point.idx[0].min(self.ranges.cells.len() - 1)],
            capacity_mah: at(&self.ranges.capacity_mah, point.idx[2]),
            compute_power_w: at(&self.ranges.compute_power_w, point.idx[3]),
            twr: at(&self.ranges.twr, point.idx[4]),
            payload_g: at(&self.ranges.payload_g, point.idx[5]),
        }
    }

    /// Appends the ±1-index lattice neighbours of `point` (single-axis
    /// moves, every axis including cells) to `out`, in a fixed axis
    /// order — the Pareto local-search neighbourhood.
    pub fn neighbors(&self, point: &LatticePoint, out: &mut Vec<LatticePoint>) {
        for axis in 0..AXES {
            if point.idx[axis] > 0 {
                let mut p = *point;
                p.idx[axis] -= 1;
                out.push(p);
            }
            if point.idx[axis] + 1 < self.dims[axis] {
                let mut p = *point;
                p.idx[axis] += 1;
                out.push(p);
            }
        }
    }

    /// Snaps a point onto the sub-lattice of indices divisible by
    /// `2^level` — the coarse fidelity the halving loop ranks with.
    /// Level 0 is the point itself.
    pub fn snap_to_level(&self, point: &LatticePoint, level: u32) -> LatticePoint {
        let stride = 1usize << level;
        let mut idx = point.idx;
        for i in idx.iter_mut() {
            *i -= *i % stride;
        }
        LatticePoint { idx }
    }
}

/// Draws `n` seeded candidates for a strategy. [`Strategy::Halving`]
/// pools through the Sobol stream (the halving *loop* lives in the
/// optimizer; only its candidate generation is a sampler concern).
pub fn sample(strategy: Strategy, lattice: &Lattice, seed: u64, n: usize) -> Vec<LatticePoint> {
    match strategy {
        Strategy::MonteCarlo => {
            let mut rng = Pcg32::new(seed, 0x3C4D);
            (0..n)
                .map(|_| {
                    let unit: Vec<f64> = (0..AXES).map(|_| rng.next_f64()).collect();
                    lattice.snap_unit(&unit)
                })
                .collect()
        }
        Strategy::LatinHypercube => latin_hypercube(seed, n, AXES)
            .iter()
            .map(|unit| lattice.snap_unit(unit))
            .collect(),
        Strategy::Sobol | Strategy::Halving => {
            let mut seq = SobolSequence::new(AXES, seed);
            (0..n)
                .map(|_| lattice.snap_unit(&seq.next_point()))
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drone_components::battery::CellCount;

    fn ranges() -> QueryRanges {
        QueryRanges {
            wheelbase_mm: GridRange::new(150.0, 750.0, 13),
            cells: vec![CellCount::S3, CellCount::S6],
            capacity_mah: GridRange::new(1000.0, 8000.0, 15),
            compute_power_w: GridRange::fixed(3.0),
            twr: GridRange::fixed(2.0),
            payload_g: GridRange::fixed(0.0),
        }
    }

    #[test]
    fn lattice_matches_the_grid() {
        let r = ranges();
        let lattice = Lattice::new(&r);
        assert_eq!(lattice.point_count(), r.point_count());
        // Index 0 on every axis is the grid's first point; the last
        // indices give the all-maxima corner of the last cell config.
        let first = lattice.query(&LatticePoint { idx: [0; AXES] });
        assert_eq!(first, r.grid()[0]);
        let last = lattice.query(&LatticePoint {
            idx: [1, 12, 14, 0, 0, 0],
        });
        assert_eq!(last.wheelbase_mm, 750.0);
        assert_eq!(last.capacity_mah, 8000.0);
        assert_eq!(last.cells, CellCount::S6);
    }

    #[test]
    fn unit_mapping_clamps_and_snaps() {
        let lattice = Lattice::new(&ranges());
        let p = lattice.snap_unit(&[0.999_999, 0.999_999, 0.0, 0.5, 1.0, 0.2]);
        assert_eq!(p.idx, [1, 12, 0, 0, 0, 0]);
        let q = lattice.snap_unit(&[0.0; AXES]);
        assert_eq!(q.idx, [0; AXES]);
    }

    #[test]
    fn every_strategy_is_seed_deterministic_and_in_bounds() {
        let lattice = Lattice::new(&ranges());
        for strategy in Strategy::ALL {
            let a = sample(strategy, &lattice, 11, 64);
            let b = sample(strategy, &lattice, 11, 64);
            assert_eq!(a, b, "{strategy}");
            assert_eq!(a.len(), 64);
            for p in &a {
                for (axis, &i) in p.idx.iter().enumerate() {
                    assert!(i < lattice.dims()[axis], "{strategy} axis {axis}");
                }
            }
        }
    }

    #[test]
    fn neighbors_stay_in_bounds_and_cover_all_axes() {
        let lattice = Lattice::new(&ranges());
        let mut out = Vec::new();
        lattice.neighbors(&LatticePoint { idx: [0; AXES] }, &mut out);
        // Corner point: only +1 moves on the swept axes (cells,
        // wheelbase, capacity — the rest are pinned).
        assert_eq!(out.len(), 3);
        out.clear();
        lattice.neighbors(
            &LatticePoint {
                idx: [1, 6, 7, 0, 0, 0],
            },
            &mut out,
        );
        assert_eq!(out.len(), 5, "interior point: ± on three swept axes");
    }

    #[test]
    fn coarse_snapping_floors_to_the_stride() {
        let lattice = Lattice::new(&ranges());
        let p = LatticePoint {
            idx: [1, 11, 7, 0, 0, 0],
        };
        assert_eq!(lattice.snap_to_level(&p, 0), p);
        assert_eq!(lattice.snap_to_level(&p, 2).idx, [0, 8, 4, 0, 0, 0]);
    }

    #[test]
    fn strategy_names_round_trip() {
        for s in Strategy::ALL {
            assert_eq!(Strategy::from_name(s.as_str()), Some(s));
        }
        assert_eq!(Strategy::from_name("grid"), None);
    }
}
