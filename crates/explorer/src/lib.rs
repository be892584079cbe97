//! Parallel design-space exploration over the paper's analytical model.
//!
//! The paper's contribution *is* the design-space model (Equations 1–7);
//! this crate is the layer that serves query traffic over it, the way
//! AutoPilot (arXiv:2102.02988) layers automated multi-objective search
//! over the same SWaP-constrained UAV space. Four pieces compose:
//!
//! * [`executor`] — a deterministic work-stealing [`ParallelExecutor`]
//!   over `std::thread` with one entry point,
//!   [`ParallelExecutor::try_map_blocked`]: per-worker deques of index
//!   blocks, steal-from-the-back, one callback per block, results keyed
//!   by input index so output is byte-identical at any thread count.
//! * [`cache`] — the [`EvalCache`]: sharded memoization of
//!   [`drone_dse::eval::evaluate`] keyed by quantized design-point
//!   coordinates, with hit/miss/eviction counters in `drone-telemetry`.
//! * [`pareto`] — incremental [`ParetoFrontier`] maintenance (flight
//!   time ↑, weight ↓, compute share ↓) and 2-D/3-D extraction.
//! * [`query`] + [`engine`] — the query engine: [`Query`] requests
//!   (ranges, constraints, objective) answered by [`Explorer::run`]
//!   with adaptive grid refinement around the incumbent optimum and
//!   per-query latency/point-count histograms.
//!
//! # Example
//!
//! ```
//! use drone_explorer::{Explorer, GridRange, Objective, Query, QueryRanges};
//! use drone_components::battery::CellCount;
//!
//! // "Max flight time for wheelbase <= 450 mm with a 20 W computer."
//! let ranges = QueryRanges {
//!     wheelbase_mm: GridRange::new(250.0, 450.0, 3),
//!     cells: vec![CellCount::S3],
//!     capacity_mah: GridRange::new(2000.0, 6000.0, 5),
//!     compute_power_w: GridRange::fixed(20.0),
//!     twr: GridRange::fixed(2.0),
//!     payload_g: GridRange::fixed(0.0),
//! };
//! let explorer = Explorer::new(2);
//! let answer = explorer.run(&Query::new("example", ranges, Objective::MaxFlightTime));
//! let best = answer.best.expect("some design flies");
//! assert!(best.query.wheelbase_mm <= 450.0);
//! assert!(!answer.frontier.is_empty());
//! ```

pub mod cache;
pub mod engine;
pub mod executor;
pub mod optimize;
pub mod pareto;
pub mod query;

pub use cache::{shard_of, CacheKey, CachedEval, EvalCache};
pub use engine::{try_run_sharded, try_run_sharded_spanned, EvalHook, EvalResult, Explorer};
pub use executor::{default_threads, set_default_threads, ParallelExecutor, TaskPanic};
pub use optimize::{Lattice, LatticePoint, OptimizeAnswer, OptimizeRequest, Strategy};
pub use pareto::{extract_frontier, extract_frontier_2d, FrontierEntry, ParetoFrontier};
pub use query::{
    Constraints, GridRange, Objective, Query, QueryAnswer, QueryError, QueryLimits, QueryRanges,
    ShardSpec,
};
