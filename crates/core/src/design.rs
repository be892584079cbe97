//! Component sizing — Equations 1 and 2.
//!
//! `WeightTotal = F(4·W_motor, W_esc, W_battery, W_frame, W_propellers,
//! W_compute, W_sensors, W_wires)` and `MotorCurrent = G(WeightTotal,
//! TWR)`: the motor must lift the weight that includes itself, so sizing
//! iterates to a fixed point exactly as §3.2 describes ("if the
//! additional weights necessitate a new motor, we redo the previous
//! steps").

use drone_components::battery::{Battery, CellCount};
use drone_components::esc::{Esc, EscClass};
use drone_components::frame::Frame;
use drone_components::motor::Motor;
use drone_components::propeller::Propeller;
use drone_components::units::{Amps, Grams, MilliampHours, Millimeters, Volts, Watts};
use std::fmt;

/// Wiring/harness weight as a fraction of the electromechanical weight.
pub(crate) const WIRING_FRACTION: f64 = 0.04;

/// Input specification for a design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignSpec {
    /// Frame wheelbase, mm.
    pub wheelbase_mm: f64,
    /// Battery cell configuration.
    pub cells: CellCount,
    /// Battery capacity.
    pub capacity: MilliampHours,
    /// Target thrust-to-weight ratio (paper sweeps use 2).
    pub twr: f64,
    /// On-board compute weight.
    pub compute_weight: Grams,
    /// On-board compute power.
    pub compute_power: Watts,
    /// Battery-powered sensor weight.
    pub sensors_weight: Grams,
    /// Battery-powered sensor power.
    pub sensors_power: Watts,
    /// Additional payload weight (self-powered sensors, cargo).
    pub payload_weight: Grams,
}

impl DesignSpec {
    /// A bare design: frame + battery + a small flight controller.
    pub fn new(wheelbase_mm: f64, cells: CellCount, capacity: MilliampHours) -> DesignSpec {
        DesignSpec {
            wheelbase_mm,
            cells,
            capacity,
            twr: drone_components::paper::PAPER_TWR,
            compute_weight: Grams(17.0), // Mateksys F405-class controller
            compute_power: Watts(1.0),
            sensors_weight: Grams(15.0), // GPS + receiver
            sensors_power: Watts(0.5),
            payload_weight: Grams(0.0),
        }
    }

    /// Sets the compute board power (weight scales with the paper's
    /// Table 4 trend: ≈4 g/W plus 10 g of carrier).
    pub fn with_compute_power(mut self, power: Watts) -> DesignSpec {
        self.compute_power = power;
        self.compute_weight = Grams(10.0 + 4.0 * power.0);
        self
    }

    /// Sets an explicit compute board.
    pub fn with_compute(mut self, weight: Grams, power: Watts) -> DesignSpec {
        self.compute_weight = weight;
        self.compute_power = power;
        self
    }

    /// Sets the target thrust-to-weight ratio.
    pub fn with_twr(mut self, twr: f64) -> DesignSpec {
        self.twr = twr;
        self
    }

    /// Adds battery-powered sensors.
    pub fn with_sensors(mut self, weight: Grams, power: Watts) -> DesignSpec {
        self.sensors_weight = weight;
        self.sensors_power = power;
        self
    }

    /// Adds dead payload (self-powered LiDAR, cargo).
    pub fn with_payload(mut self, weight: Grams) -> DesignSpec {
        self.payload_weight = weight;
        self
    }

    /// Basic weight: everything except battery, ESCs, motors and props
    /// (the Figure 9 x-axis).
    pub fn basic_weight(&self) -> Grams {
        Frame::from_model(Millimeters(self.wheelbase_mm)).weight
            + self.compute_weight
            + self.sensors_weight
            + self.payload_weight
    }

    /// Runs the Equation 1–2 fixed point.
    ///
    /// # Errors
    ///
    /// Returns [`DesignError`] when the spec cannot fly: it lies outside
    /// the design envelope ([`check_envelope`]), the sizing diverges
    /// (weight grows faster than thrust), or the motors demand more
    /// current than the battery can discharge.
    pub fn size(&self) -> Result<SizedDrone, DesignError> {
        // Sized packs get a 60C rating — the high-discharge family a
        // TWR-2 design would actually buy.
        let (fixed, battery) =
            check_envelope(self.twr, self.wheelbase_mm, self.capacity.0, || {
                let battery = Battery::from_model(self.cells, self.capacity, 60.0);
                ((self.basic_weight() + battery.weight).0, battery)
            })?;
        let frame = Frame::from_model(Millimeters(self.wheelbase_mm));
        let propeller = Propeller::standard(frame.max_propeller_inches());
        let voltage = battery.nominal_voltage();

        // Fixed point: motors/ESCs must lift their own weight.
        let fixed = Grams(fixed);
        let mut motor_esc_prop = Grams(0.0);
        let mut motor = None;
        let mut esc = None;
        for iteration in 0..32 {
            let wiring = (fixed + motor_esc_prop) * WIRING_FRACTION;
            let total = fixed + motor_esc_prop + wiring;
            let thrust_per_motor = total.weight_newtons() * self.twr / 4.0;
            let m = Motor::size_for(&propeller, voltage, thrust_per_motor);
            let e = Esc::from_model(EscClass::LongFlight, m.max_current);
            let new_mep = (m.weight + e.weight + propeller.weight) * 4.0;
            let converged = (new_mep - motor_esc_prop).0.abs() < 0.01;
            motor_esc_prop = new_mep;
            motor = Some(m);
            esc = Some(e);
            if converged {
                break;
            }
            if iteration == 31 || motor_esc_prop.0 > 100_000.0 {
                return Err(DesignError::SizingDiverged);
            }
        }
        let motor = motor.expect("at least one sizing iteration ran");
        let esc = esc.expect("at least one sizing iteration ran");
        let wiring = (fixed + motor_esc_prop) * WIRING_FRACTION;
        let total_weight = fixed + motor_esc_prop + wiring;

        // Feasibility: battery discharge limit must cover the max draw.
        let max_current = motor.max_current * 4.0;
        if battery.max_continuous_current() < max_current {
            return Err(DesignError::BatteryDischargeLimit {
                required: max_current,
                available: battery.max_continuous_current(),
            });
        }

        Ok(SizedDrone {
            spec: *self,
            frame,
            propeller,
            motor,
            esc,
            battery,
            wiring_weight: wiring,
            total_weight,
        })
    }
}

/// The design envelope: the one rule for which points the Eq. 1–2
/// sizing admits, called by [`DesignSpec::size`], the batched kernel
/// and the explorer's pre-filter. In order: TWR in 1.05–10, wheelbase
/// in 30–1500 mm, capacity > 0, and the starting weight (basic +
/// battery, which the fixed point only adds to) > 0; NaN fails each.
/// `starting_weight` runs only once the first three pass, and returns
/// the weight in grams plus whatever it built on the way.
///
/// # Errors
///
/// The [`DesignError`] of the first check that fails.
pub fn check_envelope<T>(
    twr: f64,
    wheelbase_mm: f64,
    capacity_mah: f64,
    starting_weight: impl FnOnce() -> (f64, T),
) -> Result<(f64, T), DesignError> {
    if !(1.05..=10.0).contains(&twr) {
        return Err(DesignError::InvalidTwr(twr));
    }
    if !(30.0..=1500.0).contains(&wheelbase_mm) {
        return Err(DesignError::InvalidWheelbase(wheelbase_mm));
    }
    if capacity_mah.is_nan() || capacity_mah <= 0.0 {
        return Err(DesignError::InvalidCapacity(capacity_mah));
    }
    let (weight, built) = starting_weight();
    if weight.is_nan() || weight <= 0.0 {
        return Err(DesignError::InvalidStartingWeight(weight));
    }
    Ok((weight, built))
}

/// Why a design cannot be realized.
///
/// Carries only plain numbers so constructing one on the hot path never
/// allocates — a capacity sweep rejects thousands of corners, and the
/// old `InvalidParameter(String)` variant formatted a fresh `String`
/// for every one of them. The human-readable text renders lazily (and
/// identically to the old wire format) in `Display`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DesignError {
    /// The thrust-to-weight target is outside the modelled 1.05–10 range.
    InvalidTwr(f64),
    /// The wheelbase is outside the modelled 30–1500 mm range.
    InvalidWheelbase(f64),
    /// The battery capacity (mAh) is not positive.
    InvalidCapacity(f64),
    /// The sizing's starting weight (basic + battery, g) is not positive.
    InvalidStartingWeight(f64),
    /// A sized design's hover power (W) is not positive: a negative
    /// compute power outweighs propulsion.
    NonPositiveHoverPower(f64),
    /// The weight/thrust fixed point diverged (motors can't lift
    /// themselves at this TWR).
    SizingDiverged,
    /// The battery cannot supply the motors' maximum current.
    BatteryDischargeLimit {
        /// Current the four motors demand.
        required: Amps,
        /// Battery's safe continuous limit.
        available: Amps,
    },
}

impl fmt::Display for DesignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DesignError::InvalidTwr(twr) => write!(f, "invalid design parameter: TWR {twr}"),
            DesignError::InvalidWheelbase(wheelbase) => {
                write!(f, "invalid design parameter: wheelbase {wheelbase} mm")
            }
            DesignError::InvalidCapacity(c) => {
                write!(f, "invalid design parameter: capacity {c} mAh")
            }
            DesignError::InvalidStartingWeight(w) => {
                write!(f, "invalid design parameter: starting weight {w} g")
            }
            DesignError::NonPositiveHoverPower(p) => write!(f, "hover power {p} W is not positive"),
            DesignError::SizingDiverged => f.write_str("sizing fixed point diverged"),
            DesignError::BatteryDischargeLimit {
                required,
                available,
            } => {
                write!(f, "battery supplies {available} but motors need {required}")
            }
        }
    }
}

impl std::error::Error for DesignError {}

/// A fully sized drone: every component selected, weights resolved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizedDrone {
    /// The input specification.
    pub spec: DesignSpec,
    /// Selected airframe.
    pub frame: Frame,
    /// Selected propeller (one of four).
    pub propeller: Propeller,
    /// Selected motor (one of four).
    pub motor: Motor,
    /// Selected ESC (one of four).
    pub esc: Esc,
    /// Selected battery.
    pub battery: Battery,
    /// Harness weight.
    pub wiring_weight: Grams,
    /// Take-off weight.
    pub total_weight: Grams,
}

impl SizedDrone {
    /// Supply voltage.
    pub fn voltage(&self) -> Volts {
        self.battery.nominal_voltage()
    }

    /// Maximum current draw per motor (the Figure 9 y-axis).
    pub fn max_motor_current(&self) -> Amps {
        self.motor.max_current
    }

    /// Maximum total propulsion current.
    pub fn max_total_current(&self) -> Amps {
        self.motor.max_current * 4.0
    }

    /// Achieved thrust-to-weight ratio (≥ the spec's target).
    pub fn thrust_to_weight(&self) -> f64 {
        let max_thrust = 4.0
            * self
                .motor
                .max_thrust_newtons(&self.propeller, self.voltage());
        max_thrust / self.total_weight.weight_newtons()
    }

    /// Non-propulsion electrical power (compute + sensors).
    pub fn avionics_power(&self) -> Watts {
        self.spec.compute_power + self.spec.sensors_power
    }

    /// Weight breakdown as `(label, grams)` pairs, heaviest first.
    pub fn weight_breakdown(&self) -> Vec<(&'static str, Grams)> {
        let mut items = vec![
            ("frame", self.frame.weight),
            ("battery", self.battery.weight),
            ("motors", self.motor.weight * 4.0),
            ("escs", self.esc.weight * 4.0),
            ("propellers", self.propeller.weight * 4.0),
            ("compute", self.spec.compute_weight),
            ("sensors", self.spec.sensors_weight),
            ("payload", self.spec.payload_weight),
            ("wiring", self.wiring_weight),
        ];
        items.sort_by(|a, b| b.1 .0.total_cmp(&a.1 .0));
        items
    }
}

impl fmt::Display for SizedDrone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.0} mm / {} / {:.0} mAh: {} total, {:.0} Kv, {:.1} A/motor, TWR {:.2}",
            self.spec.wheelbase_mm,
            self.spec.cells,
            self.spec.capacity.0,
            self.total_weight,
            self.motor.kv_rpm_per_volt,
            self.max_motor_current().0,
            self.thrust_to_weight()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_450() -> DesignSpec {
        DesignSpec::new(450.0, CellCount::S3, MilliampHours(3000.0))
    }

    #[test]
    fn sizes_the_papers_drone_class() {
        let drone = spec_450().size().expect("feasible");
        // The paper's 450 mm build is ~1.07 kg.
        assert!((800.0..1400.0).contains(&drone.total_weight.0), "{drone}");
        assert!(drone.thrust_to_weight() >= 1.95, "{drone}");
        // MT2213-class motors: hundreds of Kv on 3S.
        assert!(
            (500.0..1500.0).contains(&drone.motor.kv_rpm_per_volt),
            "{drone}"
        );
    }

    #[test]
    fn fixed_point_includes_motor_weight() {
        // Sizing must account for motors lifting themselves: the total
        // exceeds basic+battery by the electromechanical weight.
        let drone = spec_450().size().unwrap();
        let fixed = drone.spec.basic_weight() + drone.battery.weight;
        assert!(drone.total_weight.0 > fixed.0 + 50.0);
    }

    #[test]
    fn achieved_twr_close_to_target() {
        for twr in [2.0, 3.0, 4.0] {
            let drone = spec_450().with_twr(twr).size().expect("feasible");
            assert!(
                (drone.thrust_to_weight() - twr).abs() / twr < 0.05,
                "target {twr}, got {}",
                drone.thrust_to_weight()
            );
        }
    }

    #[test]
    fn higher_twr_needs_more_current() {
        let low = spec_450().with_twr(2.0).size().unwrap();
        let high = spec_450().with_twr(4.0).size().unwrap();
        assert!(high.max_motor_current() > low.max_motor_current() * 1.5);
    }

    #[test]
    fn heavier_payload_needs_more_current() {
        // Figure 9: current draw grows with basic weight.
        let base = spec_450().size().unwrap();
        let loaded = spec_450().with_payload(Grams(400.0)).size().unwrap();
        assert!(loaded.max_motor_current() > base.max_motor_current());
        assert!(loaded.total_weight.0 > base.total_weight.0 + 400.0);
    }

    #[test]
    fn higher_voltage_lowers_current_and_kv() {
        // Figure 9: more cells → lower per-motor current and lower Kv.
        let s3 = DesignSpec::new(450.0, CellCount::S3, MilliampHours(3000.0))
            .size()
            .unwrap();
        let s6 = DesignSpec::new(450.0, CellCount::S6, MilliampHours(3000.0))
            .size()
            .unwrap();
        assert!(s6.max_motor_current() < s3.max_motor_current());
        assert!(s6.motor.kv_rpm_per_volt < s3.motor.kv_rpm_per_volt);
    }

    #[test]
    fn small_frames_use_high_kv_motors() {
        // Figure 9a: 100 mm drones need tens of thousands of Kv on 1S.
        let micro = DesignSpec::new(100.0, CellCount::S1, MilliampHours(600.0))
            .size()
            .unwrap();
        assert!(micro.motor.kv_rpm_per_volt > 8000.0, "{micro}");
        assert!(micro.total_weight.0 < 400.0, "{micro}");
    }

    #[test]
    fn tiny_battery_rejects_big_motors() {
        // A 200 mAh pack cannot discharge fast enough for a 1 kg drone.
        let err = DesignSpec::new(450.0, CellCount::S3, MilliampHours(150.0))
            .with_payload(Grams(800.0))
            .size()
            .unwrap_err();
        assert!(
            matches!(err, DesignError::BatteryDischargeLimit { .. }),
            "{err}"
        );
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(matches!(
            spec_450().with_twr(0.5).size().unwrap_err(),
            DesignError::InvalidTwr(_)
        ));
        assert!(matches!(
            DesignSpec::new(10.0, CellCount::S1, MilliampHours(500.0))
                .size()
                .unwrap_err(),
            DesignError::InvalidWheelbase(_)
        ));
    }

    #[test]
    fn error_text_matches_the_legacy_wire_format() {
        // The typed variants must render byte-identically to the old
        // `InvalidParameter(String)` texts: serving-layer replies and
        // logs key off these strings.
        assert_eq!(
            spec_450().with_twr(0.5).size().unwrap_err().to_string(),
            "invalid design parameter: TWR 0.5"
        );
        assert_eq!(
            DesignSpec::new(10.0, CellCount::S1, MilliampHours(500.0))
                .size()
                .unwrap_err()
                .to_string(),
            "invalid design parameter: wheelbase 10 mm"
        );
    }

    #[test]
    fn breakdown_sums_to_total() {
        let drone = spec_450().size().unwrap();
        let sum: f64 = drone.weight_breakdown().iter().map(|(_, w)| w.0).sum();
        assert!((sum - drone.total_weight.0).abs() < 1e-9);
        // Heaviest-first ordering.
        let weights: Vec<f64> = drone.weight_breakdown().iter().map(|(_, w)| w.0).collect();
        assert!(weights.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn display_is_informative() {
        let s = spec_450().size().unwrap().to_string();
        assert!(s.contains("450"), "{s}");
        assert!(s.contains("3S"), "{s}");
    }
}
