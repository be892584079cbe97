//! Brushless DC motor model (paper §2.1.1, §2.3, Figure 9).
//!
//! Drones use BLDC motors exclusively: high rotation speed, precise
//! feedback, battery-friendly. The `Kv` rating (RPM per volt, no load)
//! determines the speed/torque tradeoff: for a fixed voltage, a lower `Kv`
//! motor produces more torque and turns larger propellers, but needs more
//! poles and a larger diameter and is therefore heavier (5 g/motor in
//! 100 mm drones up to ~100 g/motor in 1000 mm drones).

use crate::propeller::Propeller;
use crate::units::{Amps, Grams, Volts, Watts};
use std::fmt;

/// Fraction of the no-load RPM a loaded propeller-driving motor sustains
/// at full throttle (accounting for back-EMF sag under load).
pub const LOADED_RPM_FRACTION: f64 = 0.75;

/// Electrical-to-mechanical efficiency of a hobby BLDC motor near its
/// design point.
pub const MOTOR_EFFICIENCY: f64 = 0.80;

/// A BLDC motor.
///
/// # Example
///
/// ```
/// use drone_components::{Motor, Propeller};
/// use drone_components::units::Volts;
/// // Size a motor to lift 6 N with a 10" prop on 3S.
/// let prop = Propeller::standard(10.0);
/// let motor = Motor::size_for(&prop, Volts(11.1), 6.0);
/// // The classic 935 Kv class used on 450 mm frames.
/// assert!((600.0..1500.0).contains(&motor.kv_rpm_per_volt), "Kv {}", motor.kv_rpm_per_volt);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Motor {
    /// Velocity constant: no-load RPM per volt.
    pub kv_rpm_per_volt: f64,
    /// Motor weight.
    pub weight: Grams,
    /// Maximum continuous current the windings tolerate.
    pub max_current: Amps,
}

/// A steady-state operating point of a motor+propeller pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Rotation rate, rev/s.
    pub rev_per_s: f64,
    /// Thrust produced, N.
    pub thrust_newtons: f64,
    /// Mechanical shaft power.
    pub shaft_power: Watts,
    /// Electrical input power (shaft power / motor efficiency).
    pub electrical_power: Watts,
    /// Current drawn from the supply.
    pub current: Amps,
}

impl Motor {
    /// Creates a motor from explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is not positive.
    pub fn new(kv_rpm_per_volt: f64, weight: Grams, max_current: Amps) -> Motor {
        assert!(kv_rpm_per_volt > 0.0, "Kv must be positive");
        assert!(weight.0 > 0.0, "weight must be positive");
        assert!(max_current.0 > 0.0, "max current must be positive");
        Motor {
            kv_rpm_per_volt,
            weight,
            max_current,
        }
    }

    /// Sizes the minimal motor able to produce `max_thrust_n` newtons with
    /// `prop` at full throttle on a `voltage` supply.
    ///
    /// This is the paper's Figure 9 methodology: fix the propeller by the
    /// wheelbase, fix the voltage by the battery cells, then derive the
    /// Kv rating, weight and maximum current draw the thrust target
    /// demands.
    ///
    /// # Panics
    ///
    /// Panics if `max_thrust_n` or `voltage` are not positive.
    pub fn size_for(prop: &Propeller, voltage: Volts, max_thrust_n: f64) -> Motor {
        assert!(max_thrust_n > 0.0, "thrust must be positive");
        assert!(voltage.0 > 0.0, "voltage must be positive");
        let n_max = prop.rev_per_s_for_thrust(max_thrust_n);
        let rpm_max = n_max * 60.0;
        let kv = rpm_max / (LOADED_RPM_FRACTION * voltage.0);
        // Peak torque sizes the magnetics and therefore the weight; the
        // exponent is calibrated so 100 mm-class motors land near 5 g and
        // 800 mm-class motors near 100 g (paper §3.1).
        let torque = prop.torque_nm(n_max);
        let weight = Grams((141.0 * torque.powf(0.407)).max(1.5));
        let electrical = prop.shaft_power_watts(n_max) / MOTOR_EFFICIENCY;
        // Manufacturers rate max current ~15 % above the design point.
        let max_current = Amps(electrical / voltage.0 * 1.15);
        Motor::new(kv, weight, max_current)
    }

    /// No-load rotation rate at full throttle, rev/s.
    pub fn no_load_rev_per_s(&self, voltage: Volts) -> f64 {
        self.kv_rpm_per_volt * voltage.0 / 60.0
    }

    /// Maximum sustained rotation rate under propeller load, rev/s.
    pub fn max_loaded_rev_per_s(&self, voltage: Volts) -> f64 {
        self.no_load_rev_per_s(voltage) * LOADED_RPM_FRACTION
    }

    /// Maximum thrust this motor can pull from `prop` at `voltage`.
    pub fn max_thrust_newtons(&self, prop: &Propeller, voltage: Volts) -> f64 {
        prop.thrust_newtons(self.max_loaded_rev_per_s(voltage))
    }

    /// Steady-state operating point producing `thrust_n` newtons.
    ///
    /// Returns `None` when the thrust demands a rotation rate beyond the
    /// motor's loaded maximum or a current beyond its rating.
    pub fn operating_point(
        &self,
        prop: &Propeller,
        voltage: Volts,
        thrust_n: f64,
    ) -> Option<OperatingPoint> {
        if thrust_n < 0.0 {
            return None;
        }
        let n = prop.rev_per_s_for_thrust(thrust_n);
        if n > self.max_loaded_rev_per_s(voltage) * (1.0 + 1e-9) {
            return None;
        }
        let shaft = prop.shaft_power_watts(n);
        let electrical = shaft / MOTOR_EFFICIENCY;
        let current = Amps(electrical / voltage.0);
        if current.0 > self.max_current.0 * (1.0 + 1e-9) {
            return None;
        }
        Some(OperatingPoint {
            rev_per_s: n,
            thrust_newtons: thrust_n,
            shaft_power: Watts(shaft),
            electrical_power: Watts(electrical),
            current,
        })
    }
}

impl fmt::Display for Motor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.0} Kv motor ({}, {:.1} A max)",
            self.kv_rpm_per_volt, self.weight, self.max_current.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prop_for(wheelbase_mm: f64) -> Propeller {
        let inches = crate::frame::Frame::from_model(crate::units::Millimeters(wheelbase_mm))
            .max_propeller_inches();
        Propeller::standard(inches)
    }

    #[test]
    fn sized_motor_delivers_target_thrust() {
        let prop = Propeller::standard(10.0);
        let motor = Motor::size_for(&prop, Volts(11.1), 6.0);
        let max = motor.max_thrust_newtons(&prop, Volts(11.1));
        assert!((max - 6.0).abs() / 6.0 < 1e-6, "max thrust {max}");
        // The design point itself must be feasible.
        assert!(motor.operating_point(&prop, Volts(11.1), 6.0).is_some());
        // 10 % beyond it must not be.
        assert!(motor.operating_point(&prop, Volts(11.1), 6.6).is_none());
    }

    #[test]
    fn higher_voltage_means_lower_kv() {
        // Paper Figure 9: a 6S supply needs far lower Kv motors than 1S.
        let prop = Propeller::standard(10.0);
        let m1 = Motor::size_for(&prop, Volts(3.7), 6.0);
        let m6 = Motor::size_for(&prop, Volts(22.2), 6.0);
        assert!((m1.kv_rpm_per_volt / m6.kv_rpm_per_volt - 6.0).abs() < 1e-6);
    }

    #[test]
    fn small_frame_motors_have_extreme_kv() {
        // Paper Figure 9a annotates 100 mm 1S designs at tens of
        // thousands of Kv.
        let prop = prop_for(100.0);
        let m = Motor::size_for(&prop, Volts(3.7), 0.75);
        assert!(m.kv_rpm_per_volt > 8_000.0, "Kv {}", m.kv_rpm_per_volt);
    }

    #[test]
    fn large_frame_motors_have_low_kv_and_high_weight() {
        // 800 mm, 6S, 3 kg drone at TWR 2 → 14.7 N/motor.
        let prop = prop_for(800.0);
        let m = Motor::size_for(&prop, Volts(22.2), 14.7);
        assert!(m.kv_rpm_per_volt < 600.0, "Kv {}", m.kv_rpm_per_volt);
        assert!((40.0..250.0).contains(&m.weight.0), "weight {}", m.weight);
    }

    #[test]
    fn micro_motors_are_grams() {
        // 100 mm-class motors weigh single-digit grams (paper §3.1).
        let prop = prop_for(100.0);
        let m = Motor::size_for(&prop, Volts(7.4), 0.75);
        assert!(m.weight.0 < 15.0, "weight {}", m.weight);
    }

    #[test]
    fn current_draw_realistic_for_450mm_class() {
        // MT2213-935Kv with 1045 prop: ~10 A max is typical.
        let prop = Propeller::new(10.0, 4.5);
        let m = Motor::size_for(&prop, Volts(11.1), 8.0);
        assert!(
            (4.0..20.0).contains(&m.max_current.0),
            "max current {}",
            m.max_current
        );
    }

    #[test]
    fn operating_point_power_balances() {
        let prop = Propeller::standard(10.0);
        let m = Motor::size_for(&prop, Volts(11.1), 8.0);
        let op = m.operating_point(&prop, Volts(11.1), 4.0).unwrap();
        assert!((op.electrical_power.0 * MOTOR_EFFICIENCY - op.shaft_power.0).abs() < 1e-9);
        assert!((op.current.0 * 11.1 - op.electrical_power.0).abs() < 1e-9);
        assert!(op.thrust_newtons == 4.0);
    }

    #[test]
    fn hover_draw_fraction_of_max() {
        // At TWR 2, hover thrust is half of max; since P ∝ T^1.5 the hover
        // current lands near 35 % of the max draw — matching the paper's
        // 20–30 % "FlyingLoad" once mixed with efficiency margins.
        let prop = Propeller::standard(10.0);
        let m = Motor::size_for(&prop, Volts(11.1), 6.0);
        let hover = m.operating_point(&prop, Volts(11.1), 3.0).unwrap();
        let frac = hover.current.0 / m.max_current.0;
        assert!((0.25..0.40).contains(&frac), "hover fraction {frac}");
    }

    #[test]
    fn negative_thrust_op_is_none() {
        let prop = Propeller::standard(10.0);
        let m = Motor::size_for(&prop, Volts(11.1), 6.0);
        assert!(m.operating_point(&prop, Volts(11.1), -1.0).is_none());
    }

    #[test]
    #[should_panic(expected = "Kv must be positive")]
    fn invalid_kv_panics() {
        let _ = Motor::new(0.0, Grams(50.0), Amps(10.0));
    }
}
