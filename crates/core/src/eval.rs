//! The shared evaluation kernel: one design point in, one figure of
//! merit set out.
//!
//! Everything above the sizing equations — the Figure 10 sweeps, the
//! `drone-explorer` engine, the `dse_query` example — funnels through
//! [`evaluate`], so a design point means exactly the same thing to the
//! serial paper reproduction and to the parallel exploration engine.
//! The function is pure: no global state, no clocks, no allocator
//! tricks, which is what makes memoization and deterministic parallel
//! fan-out possible one layer up.
//!
//! Two routes lead to the same f64s:
//!
//! * [`evaluate`] — the scalar reference kernel, one point at a time.
//! * [`evaluate_many`] — the batched struct-of-arrays kernel: hoists
//!   every per-point-invariant quantity into [`ModelTables`], runs the
//!   Eq. 1–2 sizing fixed point over contiguous f64 lanes, and derives
//!   power/flight-time/compute-share in a second fused pass. Bit-for-bit
//!   identical to mapping [`evaluate`] over the batch (pinned by a
//!   lockstep proptest), just a faster route to the same answers.

use crate::design::{DesignError, DesignSpec, WIRING_FRACTION};
use crate::power::{FlyingLoad, PowerModel};
use drone_components::battery::CellCount;
use drone_components::frame::Frame;
use drone_components::motor::MOTOR_EFFICIENCY;
use drone_components::propeller::{Propeller, AIR_DENSITY};
use drone_components::units::{
    Amps, Grams, MilliampHours, Millimeters, WattHours, Watts, STANDARD_GRAVITY,
};
use drone_math::{BuildFnv, LinearFit};
use drone_telemetry::trace::Span;
use std::collections::HashMap;
use std::fmt;

/// One design point: the six coordinates the paper's Equations 1–7 take
/// as free variables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignQuery {
    /// Frame wheelbase, mm.
    pub wheelbase_mm: f64,
    /// Battery cell configuration.
    pub cells: CellCount,
    /// Battery capacity, mAh.
    pub capacity_mah: f64,
    /// On-board compute power, W (weight follows the Table 4 trend).
    pub compute_power_w: f64,
    /// Target thrust-to-weight ratio.
    pub twr: f64,
    /// Dead payload, g.
    pub payload_g: f64,
}

impl DesignQuery {
    /// A point with the sweep defaults: a 3 W chip, the paper's TWR,
    /// no payload.
    pub fn new(wheelbase_mm: f64, cells: CellCount, capacity_mah: f64) -> DesignQuery {
        DesignQuery {
            wheelbase_mm,
            cells,
            capacity_mah,
            compute_power_w: 3.0,
            twr: drone_components::paper::PAPER_TWR,
            payload_g: 0.0,
        }
    }

    /// Sets the compute board power.
    pub fn with_compute_power(mut self, watts: f64) -> DesignQuery {
        self.compute_power_w = watts;
        self
    }

    /// Sets the thrust-to-weight target.
    pub fn with_twr(mut self, twr: f64) -> DesignQuery {
        self.twr = twr;
        self
    }

    /// Sets the dead payload.
    pub fn with_payload(mut self, grams: f64) -> DesignQuery {
        self.payload_g = grams;
        self
    }

    /// The [`DesignSpec`] this point sizes through.
    pub fn to_spec(&self) -> DesignSpec {
        DesignSpec::new(
            self.wheelbase_mm,
            self.cells,
            MilliampHours(self.capacity_mah),
        )
        .with_compute_power(Watts(self.compute_power_w))
        .with_twr(self.twr)
        .with_payload(Grams(self.payload_g))
    }
}

impl fmt::Display for DesignQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.0} mm / {} / {:.0} mAh / {:.0} W compute / TWR {:.2} / {:.0} g payload",
            self.wheelbase_mm,
            self.cells,
            self.capacity_mah,
            self.compute_power_w,
            self.twr,
            self.payload_g
        )
    }
}

/// Everything Equations 1–7 say about one feasible design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignEval {
    /// The evaluated point.
    pub query: DesignQuery,
    /// Take-off weight, g.
    pub weight_g: f64,
    /// Average hover power, W.
    pub hover_power_w: f64,
    /// Average maneuvering power, W.
    pub maneuver_power_w: f64,
    /// Hover flight time, min.
    pub flight_time_min: f64,
    /// Computation share of total power at hover.
    pub compute_share_hover: f64,
    /// Computation share of total power while maneuvering.
    pub compute_share_maneuver: f64,
}

/// The exploration objectives, in [`DesignEval::objectives`] order.
pub const OBJECTIVE_SENSES: [drone_math::Sense; 3] = [
    drone_math::Sense::Maximize, // flight time
    drone_math::Sense::Minimize, // take-off weight
    drone_math::Sense::Minimize, // compute share at hover
];

impl DesignEval {
    /// The objective vector `(flight time, weight, compute share)` the
    /// Pareto frontier ranks, matching [`OBJECTIVE_SENSES`].
    pub fn objectives(&self) -> [f64; 3] {
        [
            self.flight_time_min,
            self.weight_g,
            self.compute_share_hover,
        ]
    }
}

/// Evaluates one design point with the paper's power model: sizes the
/// drone (Eq. 1–2) and derives power, flight time and compute share
/// (Eq. 3–7).
///
/// # Errors
///
/// Returns [`DesignError`] when the point cannot fly (sizing diverges,
/// the battery cannot discharge fast enough, or a parameter is out of
/// the modelled range).
pub fn evaluate(query: &DesignQuery) -> Result<DesignEval, DesignError> {
    evaluate_with(&PowerModel::paper_defaults(), query)
}

/// [`evaluate`], recording the kernel's two stages — the sizing
/// fixed-point (`eval.size`) and the power/flight-time derivation
/// (`eval.power`) — as leaf spans under `parent` when tracing is on.
/// With `parent = None` this *is* [`evaluate`]: the result is
/// identical and nothing is recorded.
pub fn evaluate_traced(
    query: &DesignQuery,
    parent: Option<&Span>,
) -> Result<DesignEval, DesignError> {
    evaluate_with_traced(&PowerModel::paper_defaults(), query, parent)
}

/// [`evaluate`] with an explicit power model (ablation studies vary the
/// efficiency and drain-limit constants).
pub fn evaluate_with(model: &PowerModel, query: &DesignQuery) -> Result<DesignEval, DesignError> {
    evaluate_with_traced(model, query, None)
}

/// [`evaluate_with`] with optional leaf-span tracing. The spans carry
/// fixed orders (`eval.size` = 0, `eval.power` = 1), so their ids are a
/// pure function of the trace id — identical at any thread count.
pub fn evaluate_with_traced(
    model: &PowerModel,
    query: &DesignQuery,
    parent: Option<&Span>,
) -> Result<DesignEval, DesignError> {
    let sizing = {
        let mut span = parent.map(|p| p.child("eval.size", 0));
        let sizing = query.to_spec().size();
        if let Some(span) = span.as_mut() {
            span.tag("feasible", sizing.is_ok());
        }
        sizing
    };
    let drone = sizing?;
    let _power_span = parent.map(|p| p.child("eval.power", 1));
    let hover = model.average_power(&drone, FlyingLoad::Hover);
    let maneuver = model.average_power(&drone, FlyingLoad::Maneuver);
    Ok(DesignEval {
        query: *query,
        weight_g: drone.total_weight.0,
        hover_power_w: hover.total().0,
        maneuver_power_w: maneuver.total().0,
        flight_time_min: model.flight_time(&drone, FlyingLoad::Hover).0,
        compute_share_hover: model.compute_share(&drone, FlyingLoad::Hover),
        compute_share_maneuver: model.compute_share(&drone, FlyingLoad::Maneuver),
    })
}

/// Evaluates a batch of design points through the struct-of-arrays
/// kernel. Returns one `Result` per input point, in input order,
/// bit-for-bit identical to `queries.iter().map(evaluate)`.
///
/// # Errors
///
/// Each slot carries its own [`DesignError`] exactly as [`evaluate`]
/// would have returned it.
///
/// # Panics
///
/// Panics exactly when some point would make [`evaluate`] panic (NaN
/// wheelbase, non-positive capacity, non-positive thrust demand, …),
/// with the same message — though not necessarily at the same point
/// ordinal, since lanes advance together.
pub fn evaluate_many(queries: &[DesignQuery]) -> Vec<Result<DesignEval, DesignError>> {
    evaluate_many_with(&PowerModel::paper_defaults(), queries)
}

/// [`evaluate_many`] with an explicit power model.
///
/// # Errors
///
/// Per-slot [`DesignError`]s, as [`evaluate_with`] would return them.
pub fn evaluate_many_with(
    model: &PowerModel,
    queries: &[DesignQuery],
) -> Vec<Result<DesignEval, DesignError>> {
    EvalBatch::new(queries).run(model)
}

/// Deterministic counters from one [`EvalBatch`] run: a pure function
/// of the input points, identical at any thread count or batch
/// partition. The roofline experiment multiplies these by static
/// per-iteration operation counts to place the kernel on the roofline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchProfile {
    /// Input points in the batch.
    pub points: usize,
    /// Points that sized and passed every feasibility gate.
    pub feasible: usize,
    /// Points rejected before sizing (TWR / wheelbase range).
    pub invalid_parameter: usize,
    /// Points whose fixed point diverged.
    pub diverged: usize,
    /// Points that sized but exceed the battery discharge limit.
    pub discharge_limited: usize,
    /// Total Eq. 1–2 iterations executed, summed over lanes.
    pub sizing_iterations: u64,
    /// Outer fixed-point rounds until every lane settled (the longest
    /// single lane's iteration count).
    pub fixed_point_rounds: u64,
}

/// Per-`CellCount` constants of the sizing and power models, computed
/// once per batch instead of once per point: pack voltage and the
/// Figure 7 capacity-to-weight fit.
#[derive(Debug, Clone, Copy)]
struct CellTable {
    /// Nominal pack voltage, V (`3.7 × cells`).
    voltage: f64,
    /// Figure 7 battery weight fit for this cell count.
    battery_fit: LinearFit,
}

/// Per-wheelbase geometry, computed once per *unique* wheelbase in the
/// batch through the real `Frame`/`Propeller` constructors (so the
/// values — and any input-assert panics — are exactly the scalar
/// kernel's). Hoisting these is where the batched kernel's speed comes
/// from: the scalar path re-derives `Ct^1.5` (a `powf`) twice per
/// sizing iteration; here it happens once per wheelbase.
#[derive(Debug, Clone, Copy)]
struct WheelbaseTable {
    /// Frame weight, g.
    frame_weight: f64,
    /// Single propeller weight, g.
    prop_weight: f64,
    /// `Ct · ρ · D⁴` — the divisor in `rev_per_s_for_thrust`.
    thrust_denom: f64,
    /// `Cp · ρ` — the shaft-power prefix.
    cp_rho: f64,
    /// `D⁵` in metres — the shaft-power suffix.
    d_m5: f64,
}

impl WheelbaseTable {
    fn for_wheelbase(wheelbase_mm: f64) -> WheelbaseTable {
        let frame = Frame::from_model(Millimeters(wheelbase_mm));
        let prop = Propeller::standard(frame.max_propeller_inches());
        let d_m = prop.diameter_m();
        WheelbaseTable {
            frame_weight: frame.weight.0,
            prop_weight: prop.weight.0,
            // Same associativity as the scalar expressions: `(Ct·ρ)·D⁴`
            // and `(Cp·ρ)`, so every downstream f64 is bit-identical.
            thrust_denom: prop.thrust_coefficient() * AIR_DENSITY * d_m.powi(4),
            cp_rho: prop.power_coefficient() * AIR_DENSITY,
            d_m5: d_m.powi(5),
        }
    }
}

/// Every per-point-invariant quantity of the evaluation model, hoisted
/// out of the sizing loop: per-cell-count voltage and battery fit, the
/// ESC weight fit, and frame/propeller geometry per unique wheelbase.
#[derive(Debug, Clone)]
pub struct ModelTables {
    cells: [CellTable; 6],
    esc_fit: LinearFit,
    /// Keyed by the wheelbase's f64 bit pattern (exact, no
    /// quantizing); FNV-hashed — the gather pass looks every point up.
    wheelbases: HashMap<u64, WheelbaseTable, BuildFnv>,
}

impl ModelTables {
    /// Builds the tables for a batch: one `CellTable` per cell count
    /// and one geometry entry per unique wheelbase among the points the
    /// scalar kernel would actually size (points outside the TWR or
    /// wheelbase envelope resolve to typed errors before touching any
    /// component model, so their geometry is never computed — exactly
    /// like the scalar early returns).
    pub fn for_queries(queries: &[DesignQuery]) -> ModelTables {
        let cells = CellCount::ALL.map(|c| CellTable {
            voltage: c.nominal_voltage().0,
            battery_fit: drone_components::paper::battery_weight_fit(c),
        });
        let mut wheelbases: HashMap<u64, WheelbaseTable, BuildFnv> = HashMap::default();
        for q in queries {
            if !(1.05..=10.0).contains(&q.twr) || q.wheelbase_mm < 30.0 || q.wheelbase_mm > 1500.0 {
                continue;
            }
            wheelbases
                .entry(q.wheelbase_mm.to_bits())
                .or_insert_with(|| WheelbaseTable::for_wheelbase(q.wheelbase_mm));
        }
        ModelTables {
            cells,
            esc_fit: drone_components::paper::esc_long_flight_fit(),
            wheelbases,
        }
    }

    /// Unique wheelbases with hoisted geometry.
    pub fn unique_wheelbases(&self) -> usize {
        self.wheelbases.len()
    }

    fn cell(&self, cells: CellCount) -> &CellTable {
        &self.cells[cells.cells() as usize - 1]
    }

    fn wheelbase(&self, wheelbase_mm: f64) -> &WheelbaseTable {
        self.wheelbases
            .get(&wheelbase_mm.to_bits())
            .expect("geometry hoisted for every admissible wheelbase")
    }
}

/// A batch of design points laid out for the struct-of-arrays kernel:
/// hoisted [`ModelTables`] plus the input slice. [`EvalBatch::run`]
/// executes the Eq. 1–2 fixed point over contiguous f64 lanes and the
/// Eq. 3–7 derivation in a second fused pass.
#[derive(Debug)]
pub struct EvalBatch<'q> {
    queries: &'q [DesignQuery],
    tables: ModelTables,
}

/// Contiguous f64 lanes for the points that reach the sizing loop, in
/// input order. Feasibility is a lane too ([`Lanes::diverged`]): the
/// inner loop only marks it, and marks resolve to typed errors at the
/// end — no per-point branching into early returns.
#[derive(Default)]
struct Lanes {
    /// Lane → input index.
    point: Vec<usize>,
    /// Fixed weight (basic + battery), g.
    fixed: Vec<f64>,
    /// Thrust-to-weight target.
    twr: Vec<f64>,
    /// `Ct · ρ · D⁴` per lane.
    thrust_denom: Vec<f64>,
    /// `Cp · ρ` per lane.
    cp_rho: Vec<f64>,
    /// `D⁵` per lane.
    d_m5: Vec<f64>,
    /// Single propeller weight, g.
    prop_weight: Vec<f64>,
    /// Pack voltage, V.
    voltage: Vec<f64>,
    /// Pack capacity, mAh.
    capacity: Vec<f64>,
    /// Compute board power, W.
    compute_power: Vec<f64>,
    /// State: motor+ESC+prop weight estimate (`Grams`), starts at 0.
    mep: Vec<f64>,
    /// State: per-motor max current from the latest iteration, A.
    current: Vec<f64>,
    /// Mask lane: the fixed point diverged (resolved to
    /// [`DesignError::SizingDiverged`] in the epilogue).
    diverged: Vec<bool>,
}

impl Lanes {
    fn with_capacity(points: usize) -> Lanes {
        Lanes {
            point: Vec::with_capacity(points),
            fixed: Vec::with_capacity(points),
            twr: Vec::with_capacity(points),
            thrust_denom: Vec::with_capacity(points),
            cp_rho: Vec::with_capacity(points),
            d_m5: Vec::with_capacity(points),
            prop_weight: Vec::with_capacity(points),
            voltage: Vec::with_capacity(points),
            capacity: Vec::with_capacity(points),
            compute_power: Vec::with_capacity(points),
            mep: Vec::with_capacity(points),
            current: Vec::with_capacity(points),
            diverged: Vec::with_capacity(points),
        }
    }

    fn push(&mut self, point: usize, q: &DesignQuery, wb: &WheelbaseTable, cell: &CellTable) {
        // `Battery::new`'s input asserts, in its order, so degenerate
        // capacities panic with the scalar kernel's message.
        assert!(q.capacity_mah > 0.0, "capacity must be positive");
        let battery_weight = cell.battery_fit.predict(q.capacity_mah);
        assert!(battery_weight > 0.0, "weight must be positive");
        // `DesignSpec::basic_weight()` with the `DesignQuery::to_spec`
        // constants (Table 4 compute trend, 15 g sensors), in the same
        // `Grams` addition order.
        let compute_weight = 10.0 + 4.0 * q.compute_power_w;
        let basic = ((wb.frame_weight + compute_weight) + 15.0) + q.payload_g;
        let fixed = basic + battery_weight;
        // `Motor::size_for`'s thrust assert, hoisted out of the sizing
        // loop: the first iteration's thrust (`mep = 0`, same ops) is
        // non-positive or NaN exactly when every later iteration's
        // would be — the loop only ever *adds* positive motor/ESC/prop
        // weight, and a runaway estimate trips the divergence gate
        // before it can poison the next round. Checking here keeps the
        // hot loop branch- and panic-free.
        let wiring1 = (fixed + 0.0) * WIRING_FRACTION;
        let total1 = (fixed + 0.0) + wiring1;
        let thrust1 = total1 / 1000.0 * STANDARD_GRAVITY * q.twr / 4.0;
        assert!(thrust1 > 0.0, "thrust must be positive");
        self.point.push(point);
        self.fixed.push(fixed);
        self.twr.push(q.twr);
        self.thrust_denom.push(wb.thrust_denom);
        self.cp_rho.push(wb.cp_rho);
        self.d_m5.push(wb.d_m5);
        self.prop_weight.push(wb.prop_weight);
        self.voltage.push(cell.voltage);
        self.capacity.push(q.capacity_mah);
        self.compute_power.push(q.compute_power_w);
        self.mep.push(0.0);
        self.current.push(0.0);
        self.diverged.push(false);
    }

    /// Swaps two lanes across every parallel array (the dense-prefix
    /// compaction in the fixed point).
    fn swap(&mut self, a: usize, b: usize) {
        self.point.swap(a, b);
        self.fixed.swap(a, b);
        self.twr.swap(a, b);
        self.thrust_denom.swap(a, b);
        self.cp_rho.swap(a, b);
        self.d_m5.swap(a, b);
        self.prop_weight.swap(a, b);
        self.voltage.swap(a, b);
        self.capacity.swap(a, b);
        self.compute_power.swap(a, b);
        self.mep.swap(a, b);
        self.current.swap(a, b);
        self.diverged.swap(a, b);
    }

    fn len(&self) -> usize {
        self.point.len()
    }
}

impl<'q> EvalBatch<'q> {
    /// Lays out a batch: builds the [`ModelTables`] (the only place the
    /// component constructors run) and keeps the input slice.
    pub fn new(queries: &'q [DesignQuery]) -> EvalBatch<'q> {
        EvalBatch {
            queries,
            tables: ModelTables::for_queries(queries),
        }
    }

    /// The hoisted tables (the roofline experiment reports their size).
    pub fn tables(&self) -> &ModelTables {
        &self.tables
    }

    /// Runs the batch. See [`evaluate_many`] for the contract.
    pub fn run(&self, model: &PowerModel) -> Vec<Result<DesignEval, DesignError>> {
        self.run_profiled(model).0
    }

    /// [`EvalBatch::run`], also returning the deterministic
    /// [`BatchProfile`] counters.
    pub fn run_profiled(
        &self,
        model: &PowerModel,
    ) -> (Vec<Result<DesignEval, DesignError>>, BatchProfile) {
        let mut profile = BatchProfile {
            points: self.queries.len(),
            ..BatchProfile::default()
        };
        let mut results: Vec<Option<Result<DesignEval, DesignError>>> =
            vec![None; self.queries.len()];

        // Gather: envelope errors resolve immediately (the scalar
        // kernel returns before touching any component model); every
        // other point gets a contiguous lane.
        let mut lanes = Lanes::with_capacity(self.queries.len());
        for (i, q) in self.queries.iter().enumerate() {
            if !(1.05..=10.0).contains(&q.twr) {
                results[i] = Some(Err(DesignError::InvalidTwr(q.twr)));
                profile.invalid_parameter += 1;
            } else if q.wheelbase_mm < 30.0 || q.wheelbase_mm > 1500.0 {
                results[i] = Some(Err(DesignError::InvalidWheelbase(q.wheelbase_mm)));
                profile.invalid_parameter += 1;
            } else {
                let wb = self.tables.wheelbase(q.wheelbase_mm);
                let cell = self.tables.cell(q.cells);
                lanes.push(i, q, wb, cell);
            }
        }

        self.size_fixed_point(&mut lanes, &mut profile);
        self.derive_outputs(&lanes, model, &mut results, &mut profile);

        let results = results
            .into_iter()
            .map(|slot| slot.expect("every point resolved"))
            .collect();
        (results, profile)
    }

    /// The Eq. 1–2 fixed point over all lanes at once: each round runs
    /// one sizing iteration for every still-active lane,
    /// operation-for-operation the scalar loop body with the
    /// invariants read from the hoisted lanes.
    ///
    /// Laid out for throughput, not per-point latency:
    ///
    /// * Active lanes live in a **dense prefix** — finished lanes swap
    ///   past the `alive` boundary after each round, so the hot passes
    ///   stride contiguous slices with no index indirection.
    /// * Each round is **fissioned into three passes**: the polynomial
    ///   weight→thrust→shaft→torque chain (branch-free, vectorizable),
    ///   the `powf(0.407)` motor-weight pass (independent calls, so
    ///   the FPU pipelines them at throughput instead of the scalar
    ///   kernel's one-per-iteration latency chain), and the
    ///   current/ESC/convergence epilogue.
    /// * No asserts or early exits in any pass — the input assert is
    ///   hoisted to [`Lanes::push`], feasibility is a mask lane.
    fn size_fixed_point(&self, lanes: &mut Lanes, profile: &mut BatchProfile) {
        const TWO_PI: f64 = 2.0 * std::f64::consts::PI;
        let esc_fit = self.tables.esc_fit;
        let mut alive = lanes.len();
        // Round-local scratch: shaft power, torque-then-motor-weight
        // (pass 2 maps it in place), and the per-round finished mask.
        let mut shaft_l = vec![0.0f64; alive];
        let mut tm_l = vec![0.0f64; alive];
        let mut finished = vec![false; alive];
        for iteration in 0..32 {
            if alive == 0 {
                break;
            }
            profile.fixed_point_rounds += 1;
            profile.sizing_iterations += alive as u64;
            let last_round = iteration == 31;
            {
                // Pass 1 — Eq. 1–2 up to the torque: pure polynomial
                // lanes, same associativity as `DesignSpec::size` /
                // `Motor::size_for` / the `Propeller` unit methods.
                let fixed = &lanes.fixed[..alive];
                let twr = &lanes.twr[..alive];
                let thrust_denom = &lanes.thrust_denom[..alive];
                let cp_rho = &lanes.cp_rho[..alive];
                let d_m5 = &lanes.d_m5[..alive];
                let mep = &lanes.mep[..alive];
                let shaft_l = &mut shaft_l[..alive];
                let tm_l = &mut tm_l[..alive];
                for l in 0..alive {
                    let wiring = (fixed[l] + mep[l]) * WIRING_FRACTION;
                    let total = (fixed[l] + mep[l]) + wiring;
                    let thrust = total / 1000.0 * STANDARD_GRAVITY * twr[l] / 4.0;
                    let n_max = (thrust / thrust_denom[l]).sqrt();
                    let shaft = cp_rho[l] * n_max.powi(3) * d_m5[l];
                    shaft_l[l] = shaft;
                    tm_l[l] = if n_max <= 0.0 {
                        0.0
                    } else {
                        shaft / (TWO_PI * n_max)
                    };
                }
                // Pass 2 — motor weight: the only transcendental.
                // Independent back-to-back `powf` calls overlap in the
                // pipeline; the scalar kernel serializes them through
                // the weight estimate's loop-carried dependency.
                for t in tm_l.iter_mut() {
                    *t = (141.0 * t.powf(0.407)).max(1.5);
                }
            }
            {
                // Pass 3 — ESC sizing, Eq. 1 update, convergence and
                // divergence marks (mask lanes, no branches out).
                let voltage = &lanes.voltage[..alive];
                let prop_weight = &lanes.prop_weight[..alive];
                let mep = &mut lanes.mep[..alive];
                let current = &mut lanes.current[..alive];
                let diverged = &mut lanes.diverged[..alive];
                let shaft_l = &shaft_l[..alive];
                let tm_l = &tm_l[..alive];
                let finished = &mut finished[..alive];
                for l in 0..alive {
                    let electrical = shaft_l[l] / MOTOR_EFFICIENCY;
                    let max_current = electrical / voltage[l] * 1.15;
                    let esc_weight = esc_fit.predict(max_current).max(4.0) / 4.0;
                    let new_mep = ((tm_l[l] + esc_weight) + prop_weight[l]) * 4.0;
                    let converged = (new_mep - mep[l]).abs() < 0.01;
                    mep[l] = new_mep;
                    current[l] = max_current;
                    let blew_up = !converged && (last_round || new_mep > 100_000.0);
                    diverged[l] = blew_up;
                    finished[l] = converged || blew_up;
                }
            }
            // Compact: swap finished lanes past the alive boundary so
            // the next round's passes stay dense. Lane order within
            // the batch is free — every lane is independent and the
            // epilogue scatters by the `point` lane.
            let mut l = 0;
            while l < alive {
                if finished[l] {
                    alive -= 1;
                    lanes.swap(l, alive);
                    finished.swap(l, alive);
                } else {
                    l += 1;
                }
            }
        }
    }

    /// The second fused pass: resolves mask lanes to typed errors,
    /// gates on the battery discharge limit, and derives Eq. 3–7
    /// (power, flight time, compute shares) for the survivors.
    fn derive_outputs(
        &self,
        lanes: &Lanes,
        model: &PowerModel,
        results: &mut [Option<Result<DesignEval, DesignError>>],
        profile: &mut BatchProfile,
    ) {
        let hover_fraction = FlyingLoad::Hover.fraction();
        let maneuver_fraction = FlyingLoad::Maneuver.fraction();
        for l in 0..lanes.len() {
            let i = lanes.point[l];
            if lanes.diverged[l] {
                results[i] = Some(Err(DesignError::SizingDiverged));
                profile.diverged += 1;
                continue;
            }
            // Discharge-limit gate, same operand order and `Amps`
            // payloads as `DesignSpec::size`.
            let required = lanes.current[l] * 4.0;
            let available = lanes.capacity[l] / 1000.0 * 60.0;
            if available < required {
                results[i] = Some(Err(DesignError::BatteryDischargeLimit {
                    required: Amps(required),
                    available: Amps(available),
                }));
                profile.discharge_limited += 1;
                continue;
            }
            let wiring = (lanes.fixed[l] + lanes.mep[l]) * WIRING_FRACTION;
            let total_weight = (lanes.fixed[l] + lanes.mep[l]) + wiring;
            // Eq. 3: `V · (I_total · fraction)` plus avionics, in the
            // `PowerBreakdown::total()` addition order (0.5 W sensors
            // from the `DesignQuery::to_spec` defaults).
            let voltage = lanes.voltage[l];
            let compute = lanes.compute_power[l];
            let propulsion_hover = voltage * (required * hover_fraction);
            let hover_total = (propulsion_hover + compute) + 0.5;
            let propulsion_maneuver = voltage * (required * maneuver_fraction);
            let maneuver_total = (propulsion_maneuver + compute) + 0.5;
            // Eq. 4–5 through the real unit methods: same ops, same
            // panic on a non-positive total power.
            let stored = lanes.capacity[l] / 1000.0 * voltage;
            let usable = stored * model.drain_limit * model.power_efficiency;
            let flight_time = WattHours(usable).duration_at(Watts(hover_total)).0;
            results[i] = Some(Ok(DesignEval {
                query: self.queries[i],
                weight_g: total_weight,
                hover_power_w: hover_total,
                maneuver_power_w: maneuver_total,
                flight_time_min: flight_time,
                compute_share_hover: compute / hover_total,
                compute_share_maneuver: compute / maneuver_total,
            }));
            profile.feasible += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::SizedDrone;

    fn q450() -> DesignQuery {
        DesignQuery::new(450.0, CellCount::S3, 4000.0)
    }

    #[test]
    fn evaluate_matches_the_manual_pipeline() {
        // The kernel must produce exactly what the pre-refactor sweep
        // computed by hand: spec → size → power model.
        let eval = evaluate(&q450()).expect("feasible");
        let drone: SizedDrone = q450().to_spec().size().unwrap();
        let model = PowerModel::paper_defaults();
        assert_eq!(eval.weight_g, drone.total_weight.0);
        assert_eq!(
            eval.hover_power_w,
            model.average_power(&drone, FlyingLoad::Hover).total().0
        );
        assert_eq!(
            eval.flight_time_min,
            model.flight_time(&drone, FlyingLoad::Hover).0
        );
        assert_eq!(
            eval.compute_share_hover,
            model.compute_share(&drone, FlyingLoad::Hover)
        );
    }

    #[test]
    fn evaluate_is_pure() {
        let a = evaluate(&q450()).unwrap();
        let b = evaluate(&q450()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn traced_evaluate_matches_untraced_and_records_leaves() {
        use drone_telemetry::{derive_trace_id, Clock, TraceBuilder};
        let builder = TraceBuilder::new(derive_trace_id(1, 1), Clock::sim());
        let traced = {
            let root = builder.root("test");
            evaluate_traced(&q450(), Some(&root)).unwrap()
        };
        assert_eq!(traced, evaluate(&q450()).unwrap());
        let trace = builder.finish();
        assert_eq!(trace.count_named("eval.size"), 1);
        assert_eq!(trace.count_named("eval.power"), 1);
        assert_eq!(trace.count_tagged("feasible", "true"), 0); // bool tag, not str
        assert_eq!(trace.open_at_finish, 0);
    }

    #[test]
    fn traced_evaluate_of_infeasible_point_skips_power_stage() {
        use drone_telemetry::{derive_trace_id, Clock, TraceBuilder};
        let builder = TraceBuilder::new(derive_trace_id(1, 2), Clock::sim());
        {
            let root = builder.root("test");
            let q = DesignQuery::new(450.0, CellCount::S3, 150.0).with_payload(800.0);
            assert!(evaluate_traced(&q, Some(&root)).is_err());
        }
        let trace = builder.finish();
        assert_eq!(trace.count_named("eval.size"), 1);
        assert_eq!(trace.count_named("eval.power"), 0);
    }

    #[test]
    fn builders_reach_the_spec() {
        let q = q450()
            .with_compute_power(20.0)
            .with_twr(3.0)
            .with_payload(250.0);
        let spec = q.to_spec();
        assert_eq!(spec.compute_power.0, 20.0);
        assert_eq!(spec.twr, 3.0);
        assert_eq!(spec.payload_weight.0, 250.0);
        // Table 4 trend: 10 g carrier + 4 g/W.
        assert_eq!(spec.compute_weight.0, 90.0);
    }

    #[test]
    fn infeasible_points_report_errors() {
        let q = DesignQuery::new(450.0, CellCount::S3, 150.0).with_payload(800.0);
        assert!(evaluate(&q).is_err());
        let q = q450().with_twr(0.2);
        assert!(matches!(evaluate(&q), Err(DesignError::InvalidTwr(_))));
    }

    #[test]
    fn batched_kernel_is_bit_identical_to_scalar_on_a_mixed_grid() {
        // A grid that exercises every outcome class: feasible points,
        // TWR/wheelbase envelope errors, discharge-limited corners and
        // diverging fixed points, all in one batch.
        let mut queries = Vec::new();
        for wheelbase in [20.0, 100.0, 220.0, 450.0, 800.0, 1600.0] {
            for cells in [CellCount::S1, CellCount::S3, CellCount::S6] {
                for capacity in [200.0, 1500.0, 4000.0, 8000.0] {
                    for (twr, payload) in [(0.5, 0.0), (2.0, 0.0), (2.0, 900.0), (9.5, 4000.0)] {
                        queries.push(
                            DesignQuery::new(wheelbase, cells, capacity)
                                .with_twr(twr)
                                .with_payload(payload),
                        );
                    }
                }
            }
        }
        let batched = evaluate_many(&queries);
        assert_eq!(batched.len(), queries.len());
        let mut classes = [0usize; 5];
        for (q, b) in queries.iter().zip(&batched) {
            let scalar = evaluate(q);
            assert_eq!(&scalar, b, "diverging result for {q}");
            if let (Ok(s), Ok(b)) = (&scalar, b) {
                // PartialEq can hide -0.0 vs 0.0; pin the exact bits.
                for (a, b) in [
                    (s.weight_g, b.weight_g),
                    (s.hover_power_w, b.hover_power_w),
                    (s.maneuver_power_w, b.maneuver_power_w),
                    (s.flight_time_min, b.flight_time_min),
                    (s.compute_share_hover, b.compute_share_hover),
                    (s.compute_share_maneuver, b.compute_share_maneuver),
                ] {
                    assert_eq!(a.to_bits(), b.to_bits(), "bit drift for {q}");
                }
            }
            classes[match b {
                Ok(_) => 0,
                Err(DesignError::InvalidTwr(_)) => 1,
                Err(DesignError::InvalidWheelbase(_)) => 2,
                Err(DesignError::SizingDiverged) => 3,
                Err(DesignError::BatteryDischargeLimit { .. }) => 4,
            }] += 1;
        }
        assert!(
            classes.iter().all(|&c| c > 0),
            "grid must hit every outcome class, got {classes:?}"
        );
    }

    #[test]
    fn batch_profile_counts_are_consistent() {
        let queries: Vec<DesignQuery> = (0..20)
            .map(|i| DesignQuery::new(100.0 + 40.0 * i as f64, CellCount::S3, 3000.0))
            .collect();
        let batch = EvalBatch::new(&queries);
        let (results, profile) = batch.run_profiled(&PowerModel::paper_defaults());
        assert_eq!(profile.points, 20);
        assert_eq!(
            profile.feasible,
            results.iter().filter(|r| r.is_ok()).count()
        );
        assert_eq!(
            profile.points,
            profile.feasible
                + profile.invalid_parameter
                + profile.diverged
                + profile.discharge_limited
        );
        // Every sized lane iterates at least once; the longest lane
        // bounds the rounds.
        let sized = (profile.points - profile.invalid_parameter) as u64;
        assert!(profile.sizing_iterations >= sized);
        assert!(profile.fixed_point_rounds <= 32);
        assert!(profile.fixed_point_rounds * sized >= profile.sizing_iterations);
        // Hoisting actually deduplicates: 20 unique wheelbases here.
        assert_eq!(batch.tables().unique_wheelbases(), 20);
    }

    #[test]
    fn empty_batch_is_fine() {
        assert!(evaluate_many(&[]).is_empty());
    }

    #[test]
    fn objectives_follow_the_senses() {
        let eval = evaluate(&q450()).unwrap();
        let objs = eval.objectives();
        assert_eq!(objs[0], eval.flight_time_min);
        assert_eq!(objs[1], eval.weight_g);
        assert_eq!(objs[2], eval.compute_share_hover);
        assert_eq!(OBJECTIVE_SENSES[0], drone_math::Sense::Maximize);
    }
}
