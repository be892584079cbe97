//! Design-space exploration for autonomous drones — the paper's primary
//! contribution (Hadidi et al., ASPLOS '21, §3).
//!
//! Given a wheelbase, battery configuration and compute/sensor payload,
//! the crate sizes a complete drone (Equations 1–2), derives its power
//! consumption and flight time (Equations 3–5), quantifies the
//! computation footprint (Equations 6–7), and composes the SLAM workload
//! and platform models into the paper's offload tradeoff (Table 5):
//!
//! * [`design`] — component sizing at a target thrust-to-weight ratio,
//!   including the Equation 1 fixed point (heavier motors need bigger
//!   motors).
//! * [`eval`] — the pure evaluation kernel every sweep and the
//!   `drone-explorer` engine share, with two entry points that return
//!   the same f64s: the scalar reference [`evaluate`]`(&DesignQuery)`
//!   and the batched struct-of-arrays [`evaluate_many`]`(&[DesignQuery])`.
//!   The crate depends on no serving or tracing code: callers that
//!   trace a point record its spans around these calls.
//! * [`power`] — flying loads, average power, flight time, computation
//!   share and gained-flight-time conversions.
//! * [`sweep`] — the Figure 10 design-space sweeps (total power vs
//!   weight per battery configuration; compute share for 3 W / 20 W
//!   chips at hover and maneuver).
//! * [`commercial`] — validation against commercial drones (Figure 10
//!   diamonds, Figure 11 nano/micro study).
//! * [`offload`] — the SLAM offload analysis combining
//!   [`drone_slam`] stage profiles with [`drone_platform`] models
//!   (Figure 17 aggregation, Table 5).
//! * [`procedure`] — the Figure 12 procedure as an executable API.
//! * [`reference_drone`] — the paper's own 450 mm build (Figure 14).
//!
//! # Example
//!
//! ```
//! use drone_dse::design::DesignSpec;
//! use drone_dse::power::{FlyingLoad, PowerModel};
//! use drone_components::battery::CellCount;
//! use drone_components::units::{MilliampHours, Watts};
//!
//! // Size a 450 mm drone with a 4000 mAh 3S pack and a 3 W computer.
//! let spec = DesignSpec::new(450.0, CellCount::S3, MilliampHours(4000.0))
//!     .with_compute_power(Watts(3.0));
//! let drone = spec.size().expect("feasible design");
//! let power = PowerModel::paper_defaults();
//! let ft = power.flight_time(&drone, FlyingLoad::Hover);
//! assert!(ft.0 > 5.0 && ft.0 < 45.0, "flight time {ft}");
//! ```

pub mod commercial;
pub mod design;
pub mod eval;
pub mod offload;
pub mod power;
pub mod procedure;
pub mod reference_drone;
pub mod sweep;

pub use design::{DesignSpec, SizedDrone};
pub use eval::{
    evaluate, evaluate_many, BatchProfile, DesignEval, DesignQuery, EvalBatch, ModelTables,
    OBJECTIVE_SENSES,
};
pub use power::{FlyingLoad, PowerBreakdown, PowerModel};
pub use procedure::{Procedure, ProcedureReport, Requirements};
pub use sweep::{FootprintPoint, SweepPoint, WheelbaseSweep};
