//! Physical parameters of a simulated quadcopter, assembled from
//! [`drone_components`] parts so that the same component models drive
//! both the analytical design-space equations and the flying simulation.

use drone_components::battery::{Battery, CellCount};
use drone_components::esc::{Esc, EscClass};
use drone_components::frame::Frame;
use drone_components::motor::Motor;
use drone_components::propeller::Propeller;
use drone_components::units::{Grams, MilliampHours, Millimeters, Volts, Watts};
use drone_math::Vec3;

/// Complete physical description of a quadcopter build.
///
/// # Example
///
/// ```
/// use drone_sim::params::QuadcopterParams;
/// let p = QuadcopterParams::default_450mm();
/// assert!((p.total_mass_kg() - 1.1).abs() < 0.3);
/// assert!(p.thrust_to_weight() >= 1.9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuadcopterParams {
    /// The airframe.
    pub frame: Frame,
    /// One of the four identical motors.
    pub motor: Motor,
    /// One of the four identical propellers.
    pub propeller: Propeller,
    /// One of the four identical ESCs.
    pub esc: Esc,
    /// The flight battery.
    pub battery: Battery,
    /// Everything else bolted on (flight controller, compute, sensors,
    /// wiring, payload), grams.
    pub accessories_weight: Grams,
    /// Constant electrical draw of avionics & compute (not propulsion).
    pub avionics_power: Watts,
    /// First-order motor response time constant, seconds.
    pub motor_time_constant: f64,
    /// Quadratic aerodynamic drag coefficient, N per (m/s)² per axis.
    pub linear_drag: Vec3,
    /// Rotational damping torque coefficient, N·m per (rad/s).
    pub angular_drag: f64,
    /// Blade-flapping moment coefficient, N·m per (N of thrust · m/s of
    /// lateral airflow): translating rotors flap back, tilting the thrust
    /// away from the motion — the Table 1 "propeller flapping"
    /// disturbance the inner loop must reject.
    pub flapping_coefficient: f64,
}

impl QuadcopterParams {
    /// Assembles a build resembling the paper's open-source drone:
    /// 450 mm frame, MT2213-935Kv-class motors, 1045 props, 30 A ESCs,
    /// 3S 3000 mAh pack, Navio2 + RPi avionics (§4, Figure 14).
    pub fn default_450mm() -> QuadcopterParams {
        let frame = Frame::new(Millimeters(450.0), Grams(272.0));
        let propeller = Propeller::new(10.0, 4.5);
        let battery = Battery::new(CellCount::S3, MilliampHours(3000.0), 25.0, Grams(248.0));
        // Size motors for TWR 2 against the known ~1.07 kg take-off mass.
        let takeoff_newtons = Grams(1071.0).weight_newtons();
        let motor = Motor::size_for(
            &propeller,
            battery.nominal_voltage(),
            takeoff_newtons * 2.0 / 4.0,
        );
        let esc = Esc::new(
            EscClass::LongFlight,
            drone_components::units::Amps(30.0),
            Grams(28.0),
        );
        QuadcopterParams {
            frame,
            motor,
            propeller,
            esc,
            battery,
            // Figure 14: RPi 50 + GPS 30 + Navio2 23 + misc 20 + RC 17 +
            // telemetry 15 + power module 15 + PPM 9 ≈ 179 g.
            accessories_weight: Grams(179.0),
            avionics_power: Watts(4.5),
            motor_time_constant: 0.05,
            // ½·ρ·Cd·A ≈ 0.03 N/(m/s)² for a ~0.05 m² frontal area; the
            // vertical axis sees the rotor disks and is draggier.
            linear_drag: Vec3::new(0.03, 0.03, 0.08),
            angular_drag: 0.02,
            flapping_coefficient: 0.0015,
        }
    }

    /// A 100 mm indoor micro build (paper Figure 10a class).
    pub fn default_100mm() -> QuadcopterParams {
        let frame = Frame::from_model(Millimeters(100.0));
        let propeller = Propeller::standard(2.0);
        let battery = Battery::from_model(CellCount::S1, MilliampHours(600.0), 30.0);
        let accessories = Grams(25.0);
        // Paper Equation 1 fixed point: motor/ESC weight feeds back into
        // the thrust target they must lift.
        let mut takeoff = frame.weight + battery.weight + accessories + Grams(20.0);
        let mut motor = Motor::size_for(
            &propeller,
            battery.nominal_voltage(),
            takeoff.weight_newtons() * 2.0 / 4.0,
        );
        let mut esc = Esc::from_model(EscClass::LongFlight, motor.max_current);
        for _ in 0..4 {
            takeoff = frame.weight
                + battery.weight
                + accessories
                + (motor.weight + propeller.weight + esc.weight) * 4.0;
            motor = Motor::size_for(
                &propeller,
                battery.nominal_voltage(),
                takeoff.weight_newtons() * 2.0 / 4.0,
            );
            esc = Esc::from_model(EscClass::LongFlight, motor.max_current);
        }
        QuadcopterParams {
            frame,
            motor,
            propeller,
            esc,
            battery,
            accessories_weight: accessories,
            avionics_power: Watts(1.5),
            motor_time_constant: 0.02,
            linear_drag: Vec3::new(0.004, 0.004, 0.01),
            angular_drag: 0.002,
            flapping_coefficient: 0.0008,
        }
    }

    /// A large 800 mm hexa-class build (paper Figure 10c class — here as
    /// a quad with 20" props and a 6S pack).
    pub fn default_800mm() -> QuadcopterParams {
        let frame = Frame::from_model(Millimeters(800.0));
        let propeller = Propeller::standard(frame.max_propeller_inches());
        let battery = Battery::from_model(CellCount::S6, MilliampHours(8000.0), 25.0);
        let accessories = Grams(350.0); // companion computer, gimbal mount
        let mut takeoff = frame.weight + battery.weight + accessories + Grams(100.0);
        let mut motor = Motor::size_for(
            &propeller,
            battery.nominal_voltage(),
            takeoff.weight_newtons() * 2.0 / 4.0,
        );
        let mut esc = Esc::from_model(EscClass::LongFlight, motor.max_current);
        for _ in 0..6 {
            takeoff = frame.weight
                + battery.weight
                + accessories
                + (motor.weight + propeller.weight + esc.weight) * 4.0;
            motor = Motor::size_for(
                &propeller,
                battery.nominal_voltage(),
                takeoff.weight_newtons() * 2.0 / 4.0,
            );
            esc = Esc::from_model(EscClass::LongFlight, motor.max_current);
        }
        QuadcopterParams {
            frame,
            motor,
            propeller,
            esc,
            battery,
            accessories_weight: accessories,
            avionics_power: Watts(20.0),
            // Big rotors answer slower.
            motor_time_constant: 0.10,
            linear_drag: Vec3::new(0.08, 0.08, 0.2),
            angular_drag: 0.08,
            flapping_coefficient: 0.002,
        }
    }

    /// Total take-off weight.
    pub fn total_weight(&self) -> Grams {
        self.frame.weight
            + self.motor.weight * 4.0
            + self.propeller.weight * 4.0
            + self.esc.weight * 4.0
            + self.battery.weight
            + self.accessories_weight
    }

    /// Take-off mass in kg.
    pub fn total_mass_kg(&self) -> f64 {
        self.total_weight().kilograms()
    }

    /// Battery supply voltage (nominal).
    pub fn supply_voltage(&self) -> Volts {
        self.battery.nominal_voltage()
    }

    /// Maximum total thrust of the four motors, newtons.
    pub fn max_total_thrust_newtons(&self) -> f64 {
        4.0 * self
            .motor
            .max_thrust_newtons(&self.propeller, self.supply_voltage())
    }

    /// Thrust-to-weight ratio (§2.3; flyable builds need ≥ 2).
    pub fn thrust_to_weight(&self) -> f64 {
        self.max_total_thrust_newtons() / self.total_weight().weight_newtons()
    }

    /// Hover thrust per motor, newtons.
    pub fn hover_thrust_per_motor(&self) -> f64 {
        self.total_weight().weight_newtons() / 4.0
    }

    /// Diagonal body inertia estimated from the mass distribution: motors
    /// at the arm tips dominate roll/pitch inertia; the yaw axis sees both
    /// arms. Returns `(Ixx, Iyy, Izz)` in kg·m².
    pub fn inertia_diagonal(&self) -> Vec3 {
        let arm = self.frame.wheelbase.meters() / 2.0;
        let tip_mass = (self.motor.weight + self.propeller.weight + self.esc.weight).kilograms();
        let hub_mass = self.total_mass_kg() - 4.0 * tip_mass;
        // Four point masses at arm tips (two per axis at distance arm/√2
        // in X config) plus a central hub disk.
        let d2 = (arm / std::f64::consts::SQRT_2).powi(2);
        let i_tip_roll = 4.0 * tip_mass * d2;
        let hub_r = 0.08_f64;
        let i_hub = 0.5 * hub_mass * hub_r * hub_r;
        let roll = i_tip_roll + i_hub;
        let yaw = 4.0 * tip_mass * arm * arm + i_hub;
        Vec3::new(roll, roll, yaw)
    }

    /// Rotor arm half-length, metres.
    pub fn arm_length(&self) -> f64 {
        self.frame.wheelbase.meters() / 2.0
    }

    /// Validates physical consistency; returns a human-readable list of
    /// problems (empty when flyable).
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.thrust_to_weight() < 1.1 {
            problems.push(format!(
                "thrust-to-weight {:.2} cannot sustain hover",
                self.thrust_to_weight()
            ));
        }
        if !self.esc.supports(self.motor.max_current) {
            problems.push(format!(
                "ESC rated {} cannot feed motor drawing {}",
                self.esc.max_continuous_current, self.motor.max_current
            ));
        }
        let total_max_amps = self.motor.max_current * 4.0;
        if self.battery.max_continuous_current() < total_max_amps {
            problems.push(format!(
                "battery discharge limit {} below total motor draw {}",
                self.battery.max_continuous_current(),
                total_max_amps
            ));
        }
        if self.motor_time_constant <= 0.0 {
            problems.push("motor time constant must be positive".to_owned());
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_450_matches_paper_drone() {
        let p = QuadcopterParams::default_450mm();
        // Figure 14 total is ~1071 g; component models should land close.
        let w = p.total_weight().0;
        assert!((950.0..1250.0).contains(&w), "weight {w}");
        assert!(p.thrust_to_weight() >= 1.9, "TWR {}", p.thrust_to_weight());
        assert!(p.validate().is_empty(), "{:?}", p.validate());
    }

    #[test]
    fn default_100_is_a_micro() {
        let p = QuadcopterParams::default_100mm();
        assert!(p.total_weight().0 < 300.0, "weight {}", p.total_weight());
        assert!(p.thrust_to_weight() >= 1.8);
    }

    #[test]
    fn default_800_is_a_heavy_lifter() {
        let p = QuadcopterParams::default_800mm();
        assert!(
            (2000.0..4500.0).contains(&p.total_weight().0),
            "weight {}",
            p.total_weight()
        );
        assert!(p.thrust_to_weight() >= 1.9, "TWR {}", p.thrust_to_weight());
        assert!(p.validate().is_empty(), "{:?}", p.validate());
        // Low-Kv motors on 6S, per Figure 9d.
        assert!(
            p.motor.kv_rpm_per_volt < 400.0,
            "Kv {}",
            p.motor.kv_rpm_per_volt
        );
    }

    #[test]
    fn inertia_ordering() {
        let p = QuadcopterParams::default_450mm();
        let i = p.inertia_diagonal();
        // Yaw inertia exceeds roll/pitch for an X quad; all positive.
        assert!(i.x > 0.0 && i.z > i.x);
        assert!((i.x - i.y).abs() < 1e-12, "symmetric build");
        // Plausible magnitude for a 1 kg 450 mm quad: ~0.005–0.05 kg·m².
        assert!((0.003..0.08).contains(&i.x), "Ixx {}", i.x);
    }

    #[test]
    fn hover_thrust_is_quarter_weight() {
        let p = QuadcopterParams::default_450mm();
        let t = p.hover_thrust_per_motor();
        assert!((t * 4.0 - p.total_weight().weight_newtons()).abs() < 1e-9);
    }

    #[test]
    fn validate_flags_weak_motor() {
        let mut p = QuadcopterParams::default_450mm();
        // Strap a brick to it.
        p.accessories_weight = Grams(5000.0);
        let problems = p.validate();
        assert!(
            problems.iter().any(|m| m.contains("thrust-to-weight")),
            "{problems:?}"
        );
    }

    #[test]
    fn validate_flags_undersized_esc() {
        let mut p = QuadcopterParams::default_450mm();
        p.esc = Esc::new(
            EscClass::ShortFlight,
            drone_components::units::Amps(0.5),
            Grams(5.0),
        );
        let problems = p.validate();
        assert!(problems.iter().any(|m| m.contains("ESC")), "{problems:?}");
    }
}
