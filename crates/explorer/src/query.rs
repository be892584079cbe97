//! The query vocabulary of the batch exploration service.
//!
//! A [`Query`] names a region of the design space (grid ranges over the
//! six design coordinates), output constraints, and an objective; the
//! engine answers with the constrained optimum, the Pareto frontier of
//! the feasible set, and evaluation statistics. The ISSUE's running
//! example — "max flight time for wheelbase ≤ 450 mm, payload ≥ 200 g,
//! compute ≥ 20 W" — is a range upper/lower bound plus
//! `Objective::MaxFlightTime`.

use drone_components::battery::CellCount;
use drone_dse::eval::{DesignEval, DesignQuery};
use drone_math::Sense;
use std::fmt;

/// An inclusive `[min, max]` interval sampled at `steps` evenly spaced
/// values (`steps == 1` pins the coordinate at `min`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridRange {
    /// Lower bound.
    pub min: f64,
    /// Upper bound.
    pub max: f64,
    /// Sample count (≥ 1).
    pub steps: usize,
}

impl GridRange {
    /// A sampled interval.
    ///
    /// # Panics
    ///
    /// Panics when `steps == 0` or `max < min`.
    pub fn new(min: f64, max: f64, steps: usize) -> GridRange {
        assert!(steps >= 1, "a range needs at least one sample");
        assert!(max >= min, "range [{min}, {max}] is inverted");
        GridRange { min, max, steps }
    }

    /// A coordinate pinned to a single value.
    pub fn fixed(value: f64) -> GridRange {
        GridRange::new(value, value, 1)
    }

    /// The `i`-th sampled value, computed as `min + i·step` — one
    /// multiply per value, no running accumulation to drift — with the
    /// endpoints pinned exactly: index 0 is `min` and index `steps - 1`
    /// is `max`, whatever rounding `min + (steps-1)·step` would have
    /// produced. Indices past the end clamp to `max`.
    pub fn value_at(&self, i: usize) -> f64 {
        if self.steps <= 1 {
            self.min
        } else if i >= self.steps - 1 {
            self.max
        } else {
            self.min + i as f64 * self.step_size()
        }
    }

    /// The sampled values, low to high.
    pub fn values(&self) -> Vec<f64> {
        (0..self.steps).map(|i| self.value_at(i)).collect()
    }

    /// Spacing between adjacent samples (0 for a pinned coordinate).
    fn step_size(&self) -> f64 {
        if self.steps <= 1 {
            0.0
        } else {
            (self.max - self.min) / (self.steps - 1) as f64
        }
    }

    /// A refined range: one grid cell either side of `center`, clamped
    /// to this range's bounds, resampled at `steps` points. Used by the
    /// adaptive refinement rounds; a pinned coordinate stays pinned.
    pub fn refined_around(&self, center: f64, steps: usize) -> GridRange {
        if self.steps <= 1 {
            return *self;
        }
        // The incumbent always lies on the grid, but clamp anyway so an
        // unvalidated caller-supplied center cannot invert the range.
        let center = center.clamp(self.min, self.max);
        let half = self.step_size();
        GridRange::new(
            (center - half).max(self.min),
            (center + half).min(self.max),
            steps.max(2),
        )
    }

    /// Validates one axis against the service limits: finite, ordered,
    /// bounded magnitude, and a sane sample count.
    pub fn validate(&self, field: &'static str, limits: &QueryLimits) -> Result<(), QueryError> {
        for value in [self.min, self.max] {
            if !value.is_finite() {
                return Err(QueryError::NonFinite { field, value });
            }
            if value.abs() > limits.max_coordinate {
                return Err(QueryError::OutOfRange {
                    field,
                    value,
                    bound: limits.max_coordinate,
                });
            }
        }
        if self.max < self.min {
            return Err(QueryError::InvertedRange {
                field,
                min: self.min,
                max: self.max,
            });
        }
        if self.steps == 0 || self.steps > limits.max_steps {
            return Err(QueryError::BadStepCount {
                field,
                steps: self.steps,
                max: limits.max_steps,
            });
        }
        Ok(())
    }
}

/// Resource bounds a query must respect before the engine will touch
/// it. Untrusted traffic (the `drone-serve` request path) validates
/// against these; the defaults bound a query to a grid the engine
/// answers in well under a second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryLimits {
    /// Largest per-axis sample count.
    pub max_steps: usize,
    /// Largest total grid size, counting worst-case refinement rounds.
    pub max_points: usize,
    /// Largest absolute coordinate value accepted on any axis.
    pub max_coordinate: f64,
    /// Most refinement rounds a query may request.
    pub max_refine_rounds: usize,
    /// Most per-axis samples a refinement round may request.
    pub max_refine_steps: usize,
    /// Longest accepted query name, bytes.
    pub max_name_bytes: usize,
    /// Largest kernel-evaluation budget an optimize request may ask
    /// for (see [`crate::optimize::OptimizeRequest`]).
    pub max_optimize_budget: usize,
}

impl Default for QueryLimits {
    fn default() -> QueryLimits {
        QueryLimits {
            max_steps: 64,
            max_points: 20_000,
            max_coordinate: 1.0e6,
            max_refine_rounds: 4,
            max_refine_steps: 9,
            max_name_bytes: 200,
            max_optimize_budget: 4096,
        }
    }
}

/// Why a query was rejected before evaluation. Unlike [`DesignQuery`]
/// infeasibility (a modelled answer), these are request-shape errors:
/// the engine never sees the query. Every variant is a typed, printable
/// error — the serving layer must never panic on untrusted input.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// A coordinate bound is NaN or infinite.
    NonFinite {
        /// Offending axis.
        field: &'static str,
        /// Offending value.
        value: f64,
    },
    /// A coordinate bound exceeds the service's magnitude cap.
    OutOfRange {
        /// Offending axis.
        field: &'static str,
        /// Offending value.
        value: f64,
        /// The configured `max_coordinate`.
        bound: f64,
    },
    /// `max < min` on an axis.
    InvertedRange {
        /// Offending axis.
        field: &'static str,
        /// Lower bound supplied.
        min: f64,
        /// Upper bound supplied.
        max: f64,
    },
    /// A step count of zero or beyond the per-axis cap.
    BadStepCount {
        /// Offending axis.
        field: &'static str,
        /// Steps supplied.
        steps: usize,
        /// The configured `max_steps`.
        max: usize,
    },
    /// The cell-configuration list is empty.
    NoCells,
    /// The grid (plus worst-case refinement) exceeds the point budget.
    TooManyPoints {
        /// Points the query would evaluate.
        points: usize,
        /// The configured `max_points`.
        max: usize,
    },
    /// The refinement schedule exceeds the configured caps.
    RefinementTooDeep {
        /// Rounds requested.
        rounds: usize,
        /// Per-axis samples requested.
        steps: usize,
    },
    /// The query name is longer than the service accepts.
    NameTooLong {
        /// Name length, bytes.
        len: usize,
        /// The configured `max_name_bytes`.
        max: usize,
    },
    /// An optimize request's kernel-evaluation budget is zero or past
    /// the configured cap.
    BadBudget {
        /// Budget requested.
        budget: usize,
        /// The configured `max_optimize_budget`.
        max: usize,
    },
    /// A shard spec with a zero/oversized count or an out-of-range
    /// index.
    BadShard {
        /// Shard index requested.
        index: u32,
        /// Shard count requested.
        count: u32,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::NonFinite { field, value } => {
                write!(f, "{field}: bound {value} is not finite")
            }
            QueryError::OutOfRange {
                field,
                value,
                bound,
            } => write!(f, "{field}: |{value}| exceeds the coordinate cap {bound}"),
            QueryError::InvertedRange { field, min, max } => {
                write!(f, "{field}: range [{min}, {max}] is inverted")
            }
            QueryError::BadStepCount { field, steps, max } => {
                write!(f, "{field}: step count {steps} outside 1..={max}")
            }
            QueryError::NoCells => f.write_str("cells: at least one cell configuration required"),
            QueryError::TooManyPoints { points, max } => {
                write!(f, "grid of {points} points exceeds the budget of {max}")
            }
            QueryError::RefinementTooDeep { rounds, steps } => {
                write!(f, "refinement {rounds} round(s) x {steps} step(s) too deep")
            }
            QueryError::NameTooLong { len, max } => {
                write!(f, "query name of {len} bytes exceeds {max}")
            }
            QueryError::BadBudget { budget, max } => {
                write!(f, "optimize budget {budget} outside 1..={max}")
            }
            QueryError::BadShard { index, count } => {
                write!(
                    f,
                    "shard: index {index} / count {count} invalid (need 1 <= count <= {} and index < count)",
                    ShardSpec::MAX_COUNT
                )
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// The gridded region of design space a query covers.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRanges {
    /// Wheelbase, mm.
    pub wheelbase_mm: GridRange,
    /// Candidate cell configurations.
    pub cells: Vec<CellCount>,
    /// Battery capacity, mAh.
    pub capacity_mah: GridRange,
    /// Compute power, W.
    pub compute_power_w: GridRange,
    /// Thrust-to-weight target.
    pub twr: GridRange,
    /// Dead payload, g.
    pub payload_g: GridRange,
}

impl QueryRanges {
    /// Materializes the full grid, cells outermost, in a fixed
    /// deterministic order. Each axis is sampled once up front, so the
    /// only allocations are one per axis plus the output.
    pub fn grid(&self) -> Vec<DesignQuery> {
        let wheelbases = self.wheelbase_mm.values();
        let capacities = self.capacity_mah.values();
        let computes = self.compute_power_w.values();
        let twrs = self.twr.values();
        let payloads = self.payload_g.values();
        let mut points = Vec::with_capacity(self.point_count());
        for &cells in &self.cells {
            for &wheelbase in &wheelbases {
                for &capacity in &capacities {
                    for &compute in &computes {
                        for &twr in &twrs {
                            for &payload in &payloads {
                                points.push(DesignQuery {
                                    wheelbase_mm: wheelbase,
                                    cells,
                                    capacity_mah: capacity,
                                    compute_power_w: compute,
                                    twr,
                                    payload_g: payload,
                                });
                            }
                        }
                    }
                }
            }
        }
        points
    }

    /// How many points [`QueryRanges::grid`] will produce.
    pub fn point_count(&self) -> usize {
        self.cells.len()
            * self.wheelbase_mm.steps
            * self.capacity_mah.steps
            * self.compute_power_w.steps
            * self.twr.steps
            * self.payload_g.steps
    }

    /// How many axes are actually swept (more than one sample).
    fn swept_axes(&self) -> usize {
        [
            self.wheelbase_mm.steps,
            self.capacity_mah.steps,
            self.compute_power_w.steps,
            self.twr.steps,
            self.payload_g.steps,
        ]
        .iter()
        .filter(|&&s| s > 1)
        .count()
    }

    /// Validates every axis and the cell list against the limits.
    pub fn validate(&self, limits: &QueryLimits) -> Result<(), QueryError> {
        self.wheelbase_mm.validate("wheelbase_mm", limits)?;
        self.capacity_mah.validate("capacity_mah", limits)?;
        self.compute_power_w.validate("compute_power_w", limits)?;
        self.twr.validate("twr", limits)?;
        self.payload_g.validate("payload_g", limits)?;
        if self.cells.is_empty() {
            return Err(QueryError::NoCells);
        }
        Ok(())
    }

    /// The ranges re-centred on one design point for a refinement
    /// round: every swept coordinate shrinks to one grid cell around
    /// the incumbent, the cell list collapses to the incumbent's.
    pub fn refined_around(&self, best: &DesignQuery, steps: usize) -> QueryRanges {
        QueryRanges {
            wheelbase_mm: self.wheelbase_mm.refined_around(best.wheelbase_mm, steps),
            cells: vec![best.cells],
            capacity_mah: self.capacity_mah.refined_around(best.capacity_mah, steps),
            compute_power_w: self
                .compute_power_w
                .refined_around(best.compute_power_w, steps),
            twr: self.twr.refined_around(best.twr, steps),
            payload_g: self.payload_g.refined_around(best.payload_g, steps),
        }
    }
}

/// A process-level shard assignment: restrict evaluation to the grid
/// points whose quantized-coordinate FNV hash routes to `index` of
/// `count` shards — the memo cache's shard scheme lifted to process
/// level (see [`crate::cache::shard_of`]). Each round's grid is
/// partitioned exactly: the `count` shard grids are disjoint and their
/// union is the full grid, so per-shard `evaluated` counts sum to the
/// unsharded total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// This shard's position in `0..count`.
    pub index: u32,
    /// Total shard count (≥ 1, ≤ [`ShardSpec::MAX_COUNT`]).
    pub count: u32,
}

impl ShardSpec {
    /// Most shards a query may name; bounds untrusted input.
    pub const MAX_COUNT: u32 = 4096;

    /// Checks `1 <= count <= MAX_COUNT` and `index < count`.
    pub fn validate(&self) -> Result<(), QueryError> {
        if self.count == 0 || self.count > ShardSpec::MAX_COUNT || self.index >= self.count {
            return Err(QueryError::BadShard {
                index: self.index,
                count: self.count,
            });
        }
        Ok(())
    }
}

/// Output-side feasibility constraints.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Constraints {
    /// Take-off weight ceiling, g.
    pub max_weight_g: Option<f64>,
    /// Flight-time floor, min.
    pub min_flight_time_min: Option<f64>,
    /// Hover compute-share ceiling.
    pub max_compute_share_hover: Option<f64>,
    /// Hover power ceiling, W.
    pub max_hover_power_w: Option<f64>,
}

impl Constraints {
    /// True when the evaluated design satisfies every bound.
    pub fn admits(&self, eval: &DesignEval) -> bool {
        self.max_weight_g.is_none_or(|b| eval.weight_g <= b)
            && self
                .min_flight_time_min
                .is_none_or(|b| eval.flight_time_min >= b)
            && self
                .max_compute_share_hover
                .is_none_or(|b| eval.compute_share_hover <= b)
            && self
                .max_hover_power_w
                .is_none_or(|b| eval.hover_power_w <= b)
    }
}

/// What the query optimizes among constraint-feasible points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Longest hover flight time.
    MaxFlightTime,
    /// Lightest take-off weight.
    MinWeight,
    /// Smallest hover compute share.
    MinComputeShare,
}

impl Objective {
    /// The scalar this objective ranks.
    pub fn value(self, eval: &DesignEval) -> f64 {
        match self {
            Objective::MaxFlightTime => eval.flight_time_min,
            Objective::MinWeight => eval.weight_g,
            Objective::MinComputeShare => eval.compute_share_hover,
        }
    }

    /// The optimization direction.
    pub fn sense(self) -> Sense {
        match self {
            Objective::MaxFlightTime => Sense::Maximize,
            Objective::MinWeight | Objective::MinComputeShare => Sense::Minimize,
        }
    }
}

/// One exploration request.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Label carried into the answer and reports.
    pub name: String,
    /// The region to explore.
    pub ranges: QueryRanges,
    /// Feasibility bounds on the evaluated outputs.
    pub constraints: Constraints,
    /// What to optimize.
    pub objective: Objective,
    /// Adaptive refinement rounds around the incumbent (0 = grid only).
    pub refine_rounds: usize,
    /// Samples per swept coordinate in each refinement round.
    pub refine_steps: usize,
    /// When set, evaluate only this [`crate::shard_of`] partition of
    /// each round's grid; `None`, the default, evaluates the full
    /// grid. The router does not need it ([`crate::try_run_sharded`]
    /// partitions evaluation itself); it stays on the wire for callers
    /// that replay one shard's share of a query.
    pub shard: Option<ShardSpec>,
}

impl Query {
    /// A grid query with two refinement rounds of 5 samples per axis.
    pub fn new(name: &str, ranges: QueryRanges, objective: Objective) -> Query {
        Query {
            name: name.to_owned(),
            ranges,
            constraints: Constraints::default(),
            objective,
            refine_rounds: 2,
            refine_steps: 5,
            shard: None,
        }
    }

    /// Restricts evaluation to one process-level shard of the grid.
    pub fn with_shard(mut self, index: u32, count: u32) -> Query {
        self.shard = Some(ShardSpec { index, count });
        self
    }

    /// Sets the constraints.
    pub fn with_constraints(mut self, constraints: Constraints) -> Query {
        self.constraints = constraints;
        self
    }

    /// Sets the refinement schedule.
    pub fn with_refinement(mut self, rounds: usize, steps: usize) -> Query {
        self.refine_rounds = rounds;
        self.refine_steps = steps;
        self
    }

    /// Validates the whole request against the service limits: axis
    /// sanity, refinement depth, and the total evaluation budget
    /// (the base grid plus the worst-case refinement rounds).
    ///
    /// This is the gate the serving layer runs on untrusted input;
    /// a query that passes cannot panic the engine or blow the point
    /// budget.
    pub fn validate(&self, limits: &QueryLimits) -> Result<(), QueryError> {
        if self.name.len() > limits.max_name_bytes {
            return Err(QueryError::NameTooLong {
                len: self.name.len(),
                max: limits.max_name_bytes,
            });
        }
        self.ranges.validate(limits)?;
        if self.refine_rounds > limits.max_refine_rounds
            || (self.refine_rounds > 0 && self.refine_steps > limits.max_refine_steps)
        {
            return Err(QueryError::RefinementTooDeep {
                rounds: self.refine_rounds,
                steps: self.refine_steps,
            });
        }
        if let Some(shard) = self.shard {
            shard.validate()?;
        }
        let points = self.estimated_cost_units();
        if points as usize > limits.max_points {
            return Err(QueryError::TooManyPoints {
                points: points as usize,
                max: limits.max_points,
            });
        }
        Ok(())
    }

    /// Worst-case evaluation budget in cost units (grid points): the
    /// base grid plus every refinement round resampling each swept axis
    /// at `refine_steps` (the engine floors each round at 2 per swept
    /// axis). This is the number the serving layer's per-request
    /// deadline sheds against *before* any evaluation starts.
    pub fn estimated_cost_units(&self) -> u64 {
        let per_round = self
            .refine_steps
            .max(2)
            .saturating_pow(self.ranges.swept_axes() as u32);
        self.ranges
            .point_count()
            .saturating_add(self.refine_rounds.saturating_mul(per_round)) as u64
    }
}

/// The engine's answer to one [`Query`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryAnswer {
    /// The query's label.
    pub name: String,
    /// The constrained optimum, when any point was feasible.
    pub best: Option<DesignEval>,
    /// Pareto frontier (flight time ↑, weight ↓, compute share ↓) of
    /// the feasible set, in admission order.
    pub frontier: Vec<DesignEval>,
    /// Points dispatched, including ones served from the cache and
    /// refinement-round revisits.
    pub evaluated: usize,
    /// Unique designs that sized and met the constraints.
    pub feasible: usize,
    /// Unique designs that failed to size or broke a constraint.
    pub infeasible: usize,
    /// Rounds run (1 grid round + refinements that had an incumbent).
    pub rounds: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_ranges_sample_inclusively() {
        let r = GridRange::new(0.0, 10.0, 5);
        assert_eq!(r.values(), vec![0.0, 2.5, 5.0, 7.5, 10.0]);
        assert_eq!(r.step_size(), 2.5);
        assert_eq!(GridRange::fixed(4.0).values(), vec![4.0]);
    }

    #[test]
    fn refinement_shrinks_around_the_center_and_clamps() {
        let r = GridRange::new(0.0, 10.0, 5);
        let refined = r.refined_around(5.0, 5);
        assert_eq!((refined.min, refined.max), (2.5, 7.5));
        let edge = r.refined_around(0.0, 5);
        assert_eq!(edge.min, 0.0);
        // Pinned coordinates never widen.
        let pinned = GridRange::fixed(3.0).refined_around(3.0, 5);
        assert_eq!(pinned.values(), vec![3.0]);
    }

    #[test]
    fn grid_enumerates_the_product_space() {
        let ranges = QueryRanges {
            wheelbase_mm: GridRange::new(100.0, 450.0, 2),
            cells: vec![CellCount::S1, CellCount::S3],
            capacity_mah: GridRange::new(1000.0, 3000.0, 3),
            compute_power_w: GridRange::fixed(3.0),
            twr: GridRange::fixed(2.0),
            payload_g: GridRange::fixed(0.0),
        };
        let grid = ranges.grid();
        assert_eq!(grid.len(), ranges.point_count());
        assert_eq!(grid.len(), 12);
        // Deterministic order: first point is the all-minima corner of
        // the first cell config.
        assert_eq!(grid[0].cells, CellCount::S1);
        assert_eq!(grid[0].wheelbase_mm, 100.0);
        assert_eq!(grid[0].capacity_mah, 1000.0);
    }

    #[test]
    fn constraints_gate_on_outputs() {
        let eval = drone_dse::eval::evaluate(&DesignQuery::new(450.0, CellCount::S3, 4000.0))
            .expect("feasible");
        assert!(Constraints::default().admits(&eval));
        let tight = Constraints {
            max_weight_g: Some(eval.weight_g - 1.0),
            ..Constraints::default()
        };
        assert!(!tight.admits(&eval));
        let loose = Constraints {
            min_flight_time_min: Some(eval.flight_time_min / 2.0),
            max_hover_power_w: Some(eval.hover_power_w + 1.0),
            ..Constraints::default()
        };
        assert!(loose.admits(&eval));
    }

    #[test]
    fn objectives_rank_in_their_sense() {
        assert_eq!(Objective::MaxFlightTime.sense(), Sense::Maximize);
        assert_eq!(Objective::MinWeight.sense(), Sense::Minimize);
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_range_panics() {
        let _ = GridRange::new(5.0, 1.0, 3);
    }

    #[test]
    fn refinement_clamps_an_out_of_range_center() {
        // An unvalidated center outside the range must not invert it.
        let r = GridRange::new(0.0, 10.0, 5);
        let refined = r.refined_around(99.0, 3);
        assert!(refined.min <= refined.max);
        assert_eq!(refined.max, 10.0);
        let nan = r.refined_around(f64::NAN, 3);
        assert!(nan.min <= nan.max);
    }

    fn valid_query() -> Query {
        Query::new(
            "ok",
            QueryRanges {
                wheelbase_mm: GridRange::new(250.0, 450.0, 3),
                cells: vec![CellCount::S3],
                capacity_mah: GridRange::new(2000.0, 6000.0, 5),
                compute_power_w: GridRange::fixed(3.0),
                twr: GridRange::fixed(2.0),
                payload_g: GridRange::fixed(0.0),
            },
            Objective::MaxFlightTime,
        )
    }

    #[test]
    fn validation_accepts_the_running_example() {
        assert_eq!(valid_query().validate(&QueryLimits::default()), Ok(()));
    }

    #[test]
    fn validation_rejects_every_malformed_shape_with_a_typed_error() {
        let limits = QueryLimits::default();

        let mut q = valid_query();
        q.ranges.wheelbase_mm = GridRange {
            min: f64::NAN,
            max: 450.0,
            steps: 3,
        };
        assert!(matches!(
            q.validate(&limits),
            Err(QueryError::NonFinite {
                field: "wheelbase_mm",
                ..
            })
        ));

        let mut q = valid_query();
        q.ranges.capacity_mah = GridRange {
            min: 6000.0,
            max: 2000.0,
            steps: 5,
        };
        assert!(matches!(
            q.validate(&limits),
            Err(QueryError::InvertedRange {
                field: "capacity_mah",
                ..
            })
        ));

        let mut q = valid_query();
        q.ranges.payload_g = GridRange {
            min: 0.0,
            max: 100.0,
            steps: 0,
        };
        assert!(matches!(
            q.validate(&limits),
            Err(QueryError::BadStepCount {
                field: "payload_g",
                ..
            })
        ));

        let mut q = valid_query();
        q.ranges.twr = GridRange {
            min: 2.0,
            max: 1.0e9,
            steps: 2,
        };
        assert!(matches!(
            q.validate(&limits),
            Err(QueryError::OutOfRange { .. })
        ));

        let mut q = valid_query();
        q.ranges.cells.clear();
        assert_eq!(q.validate(&limits), Err(QueryError::NoCells));

        let mut q = valid_query();
        q.ranges.capacity_mah.steps = 64;
        q.ranges.wheelbase_mm.steps = 64;
        q.ranges.payload_g = GridRange::new(0.0, 100.0, 10);
        assert!(matches!(
            q.validate(&limits),
            Err(QueryError::TooManyPoints { .. })
        ));

        let q = valid_query().with_refinement(100, 5);
        assert!(matches!(
            q.validate(&limits),
            Err(QueryError::RefinementTooDeep { .. })
        ));

        let mut q = valid_query();
        q.name = "n".repeat(1000);
        assert!(matches!(
            q.validate(&limits),
            Err(QueryError::NameTooLong { .. })
        ));
    }

    #[test]
    fn validation_budget_counts_refinement_rounds() {
        // 15-point grid, but 2 rounds x 5^2 samples on the two swept
        // axes add 50 more: a 40-point budget must reject it.
        let q = valid_query().with_refinement(2, 5);
        let tight = QueryLimits {
            max_points: 40,
            ..QueryLimits::default()
        };
        assert!(matches!(
            q.validate(&tight),
            Err(QueryError::TooManyPoints { points: 65, .. })
        ));
        assert_eq!(q.validate(&QueryLimits::default()), Ok(()));
    }

    #[test]
    fn shard_specs_validate_index_and_count() {
        let limits = QueryLimits::default();
        assert_eq!(valid_query().with_shard(0, 1).validate(&limits), Ok(()));
        assert_eq!(valid_query().with_shard(3, 4).validate(&limits), Ok(()));
        for (index, count) in [(0, 0), (4, 4), (0, ShardSpec::MAX_COUNT + 1)] {
            assert!(matches!(
                valid_query().with_shard(index, count).validate(&limits),
                Err(QueryError::BadShard { .. })
            ));
        }
    }

    #[test]
    fn query_errors_render_for_humans() {
        let err = QueryError::InvertedRange {
            field: "twr",
            min: 3.0,
            max: 1.0,
        };
        assert!(err.to_string().contains("twr"));
        assert!(QueryError::NoCells.to_string().contains("cells"));
    }
}
