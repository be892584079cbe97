//! The four-rotor propulsion set.
//!
//! Rotors are arranged in an X configuration; index layout (top view,
//! body +X forward, +Y right, +Z up):
//!
//! ```text
//!      0 (CCW)   1 (CW)
//!          \     /
//!           \   /
//!            [X]          front is up
//!           /   \
//!          /     \
//!      3 (CW)    2 (CCW)
//! ```
//!
//! Each rotor follows a first-order speed lag toward its commanded speed —
//! this is exactly the *physical response time* the paper identifies as
//! the inner-loop update-rate limiter (§2.1.3-D): no amount of extra
//! compute makes the propellers spin up faster.

use crate::params::QuadcopterParams;
use drone_components::units::{Amps, Watts};
use drone_math::Vec3;

/// Number of rotors on a quadcopter.
pub const ROTOR_COUNT: usize = 4;

/// Spin direction of each rotor (+1 = CCW seen from above).
pub const SPIN: [f64; ROTOR_COUNT] = [1.0, -1.0, 1.0, -1.0];

/// Body-frame arm direction unit vectors (X config at 45°).
pub fn arm_directions() -> [Vec3; ROTOR_COUNT] {
    let s = std::f64::consts::FRAC_1_SQRT_2;
    [
        Vec3::new(s, -s, 0.0),  // 0: front-left
        Vec3::new(s, s, 0.0),   // 1: front-right
        Vec3::new(-s, s, 0.0),  // 2: rear-right
        Vec3::new(-s, -s, 0.0), // 3: rear-left
    ]
}

/// Aggregate force/torque/power produced by the rotor set in one step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RotorForces {
    /// Total thrust along body +Z, newtons.
    pub total_thrust: f64,
    /// Torque about the body axes, N·m.
    pub torque: Vec3,
    /// Electrical power drawn by all four motors.
    pub electrical_power: Watts,
    /// Current drawn from the battery by all four motors.
    pub current: Amps,
}

/// Dynamic state of the four rotors.
#[derive(Debug, Clone, PartialEq)]
pub struct RotorSet {
    /// Current rotation rates, rev/s.
    speeds: [f64; ROTOR_COUNT],
    /// Maximum loaded rotation rate, rev/s.
    max_speed: f64,
    /// First-order lag time constant, s.
    time_constant: f64,
    /// Per-rotor output derating (1.0 = healthy, 0.0 = rotor out),
    /// applied by fault injection to thrust, torque and power alike —
    /// the ESC-level view of a failing drive.
    effectiveness: [f64; ROTOR_COUNT],
}

impl RotorSet {
    /// Creates a rotor set at rest from quadcopter parameters.
    pub fn new(params: &QuadcopterParams) -> RotorSet {
        RotorSet {
            speeds: [0.0; ROTOR_COUNT],
            max_speed: params.motor.max_loaded_rev_per_s(params.supply_voltage()),
            time_constant: params.motor_time_constant,
            effectiveness: [1.0; ROTOR_COUNT],
        }
    }

    /// Current rotor speeds, rev/s.
    pub fn speeds(&self) -> [f64; ROTOR_COUNT] {
        self.speeds
    }

    /// Maximum commandable speed, rev/s.
    pub fn max_speed(&self) -> f64 {
        self.max_speed
    }

    /// Per-rotor output derating factors (1.0 = healthy).
    pub fn effectiveness(&self) -> [f64; ROTOR_COUNT] {
        self.effectiveness
    }

    /// Derates one rotor's output (fault injection): `factor` of thrust,
    /// torque and power survive. `0.0` models a total rotor-out.
    ///
    /// # Panics
    ///
    /// Panics if `rotor >= ROTOR_COUNT`.
    pub fn set_effectiveness(&mut self, rotor: usize, factor: f64) {
        self.effectiveness[rotor] = factor.clamp(0.0, 1.0);
    }

    /// Advances rotor speeds toward normalized throttle commands
    /// (`0.0..=1.0` of max speed) over `dt` seconds.
    ///
    /// Commands are clamped into range; the lag uses the exact
    /// discretization of the first-order response.
    pub fn step(&mut self, throttle: [f64; ROTOR_COUNT], dt: f64) {
        let alpha = 1.0 - (-dt / self.time_constant).exp();
        for (speed, cmd) in self.speeds.iter_mut().zip(throttle) {
            let target = cmd.clamp(0.0, 1.0) * self.max_speed;
            *speed += (target - *speed) * alpha;
        }
    }

    /// Computes the aggregate forces at the current rotor speeds.
    pub fn forces(&self, params: &QuadcopterParams) -> RotorForces {
        let prop = &params.propeller;
        let arm = params.arm_length();
        let dirs = arm_directions();
        let volts = params.supply_voltage();

        let mut total_thrust = 0.0;
        let mut torque = Vec3::ZERO;
        let mut electrical = 0.0;
        for i in 0..ROTOR_COUNT {
            let n = self.speeds[i];
            let eff = self.effectiveness[i];
            let thrust = prop.thrust_newtons(n) * eff;
            total_thrust += thrust;
            // Thrust applied at the arm tip: τ = r × F with F = T·ẑ.
            let r = dirs[i] * arm;
            torque += r.cross(Vec3::Z * thrust);
            // Reaction torque about yaw, opposing spin direction.
            torque += Vec3::Z * (-SPIN[i] * prop.torque_nm(n) * eff);
            electrical +=
                prop.shaft_power_watts(n) * eff / drone_components::motor::MOTOR_EFFICIENCY;
        }
        let electrical_power = Watts(electrical);
        RotorForces {
            total_thrust,
            torque,
            electrical_power,
            current: Amps(electrical / volts.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::QuadcopterParams;

    fn spun_up(throttle: [f64; 4]) -> (QuadcopterParams, RotorSet) {
        let params = QuadcopterParams::default_450mm();
        let mut rotors = RotorSet::new(&params);
        // Run well past the time constant so speeds settle.
        for _ in 0..2000 {
            rotors.step(throttle, 1e-3);
        }
        (params, rotors)
    }

    #[test]
    fn equal_throttle_gives_pure_thrust() {
        let (params, rotors) = spun_up([0.6; 4]);
        let f = rotors.forces(&params);
        assert!(f.total_thrust > 0.0);
        assert!(
            f.torque.norm() < 1e-9,
            "symmetric spin must cancel torque: {}",
            f.torque
        );
    }

    #[test]
    fn front_rear_split_pitches() {
        // More thrust on rear rotors (2,3) pitches nose down → negative
        // torque about +Y?  r_rear × F points +Y·(−x)·T… verify sign:
        // rear rotors are at −X, so r × (T ẑ) = (−x,±y,0)×(0,0,T) has
        // +Y component = (−x)·T·(−1) … assert direction empirically.
        let (params, rotors) = spun_up([0.4, 0.4, 0.7, 0.7]);
        let f = rotors.forces(&params);
        assert!(
            f.torque.y.abs() > 1e-3,
            "expected pitch torque, got {}",
            f.torque
        );
        assert!(
            f.torque.x.abs() < 1e-9,
            "no roll torque expected: {}",
            f.torque
        );
        // Rear-heavy thrust must rotate the nose down: for r=(−a, ±a, 0),
        // F=T ẑ, τ = r×F = (±a·T, a·T, 0) — pitch component is positive.
        assert!(f.torque.y > 0.0);
    }

    #[test]
    fn left_right_split_rolls() {
        // More thrust on right rotors (1,2) rolls left.
        let (params, rotors) = spun_up([0.4, 0.7, 0.7, 0.4]);
        let f = rotors.forces(&params);
        assert!(f.torque.x.abs() > 1e-3);
        assert!(f.torque.y.abs() < 1e-9);
        // Right rotors at +Y: τ = (0,a,0)×(0,0,T) = (a·T, 0, 0)... sign:
        // (y·T − 0, …) → x-component = y·Fz = +a·T; rolling right-side-up
        // (left roll is negative about +X for Z-up/X-forward). The exact
        // sign convention is asserted here as the contract.
        assert!(f.torque.x > 0.0);
    }

    #[test]
    fn diagonal_split_yaws() {
        // Speeding up the CCW pair (0,2) adds CW reaction torque (−Z).
        let (params, rotors) = spun_up([0.7, 0.4, 0.7, 0.4]);
        let f = rotors.forces(&params);
        assert!(
            f.torque.z < 0.0,
            "CCW rotors must yaw the body CW: {}",
            f.torque
        );
        assert!(f.torque.x.abs() < 1e-9 && f.torque.y.abs() < 1e-9);
    }

    #[test]
    fn first_order_lag_rises_as_expected() {
        let params = QuadcopterParams::default_450mm();
        let mut rotors = RotorSet::new(&params);
        let tau = params.motor_time_constant;
        // After one time constant the speed is ~63.2 % of the step.
        let steps = (tau / 1e-4).round() as usize;
        for _ in 0..steps {
            rotors.step([1.0; 4], 1e-4);
        }
        let frac = rotors.speeds()[0] / rotors.max_speed();
        assert!((frac - 0.632).abs() < 0.01, "rise fraction {frac}");
    }

    #[test]
    fn throttle_is_clamped() {
        let params = QuadcopterParams::default_450mm();
        let mut rotors = RotorSet::new(&params);
        for _ in 0..5000 {
            rotors.step([7.0, -3.0, 0.5, 0.5], 1e-3);
        }
        let s = rotors.speeds();
        assert!((s[0] - rotors.max_speed()).abs() < 1e-6);
        assert!(s[1].abs() < 1e-6);
    }

    #[test]
    fn power_scales_superlinearly_with_thrust() {
        let (params, low) = spun_up([0.3; 4]);
        let (_, high) = spun_up([0.6; 4]);
        let fl = low.forces(&params);
        let fh = high.forces(&params);
        let thrust_ratio = fh.total_thrust / fl.total_thrust;
        let power_ratio = fh.electrical_power.0 / fl.electrical_power.0;
        // P ∝ T^1.5 for ideal rotors.
        assert!((power_ratio - thrust_ratio.powf(1.5)).abs() / power_ratio < 0.05);
    }

    #[test]
    fn rotor_out_kills_thrust_torque_and_power_of_that_rotor() {
        let (params, mut rotors) = spun_up([0.6; 4]);
        let healthy = rotors.forces(&params);
        rotors.set_effectiveness(2, 0.0);
        let faulted = rotors.forces(&params);
        // One of four equal rotors gone: 3/4 thrust and power remain.
        assert!((faulted.total_thrust - healthy.total_thrust * 0.75).abs() < 1e-9);
        assert!((faulted.electrical_power.0 - healthy.electrical_power.0 * 0.75).abs() < 1e-9);
        // The asymmetry now produces roll/pitch torque.
        assert!(faulted.torque.norm() > 0.01, "torque {}", faulted.torque);
    }

    #[test]
    fn degradation_scales_smoothly() {
        let (params, mut rotors) = spun_up([0.6; 4]);
        let healthy = rotors.forces(&params);
        for i in 0..ROTOR_COUNT {
            rotors.set_effectiveness(i, 0.5);
        }
        let derated = rotors.forces(&params);
        assert!((derated.total_thrust - healthy.total_thrust * 0.5).abs() < 1e-9);
        assert!(
            derated.torque.norm() < 1e-9,
            "symmetric derating keeps balance"
        );
    }

    #[test]
    fn hover_power_is_realistic() {
        // The paper's 450 mm drone averages ~130 W in gentle flight.
        let params = QuadcopterParams::default_450mm();
        let hover_n = params
            .propeller
            .rev_per_s_for_thrust(params.hover_thrust_per_motor());
        let mut rotors = RotorSet::new(&params);
        let throttle = hover_n / rotors.max_speed();
        for _ in 0..2000 {
            rotors.step([throttle; 4], 1e-3);
        }
        let f = rotors.forces(&params);
        assert!(
            (60.0..220.0).contains(&f.electrical_power.0),
            "hover power {}",
            f.electrical_power
        );
    }
}
