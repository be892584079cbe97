//! Incremental nonlinear dynamic inversion (INDI) rate control.
//!
//! The paper (§2.1.3-D) cites INDI as the state of the art for gust
//! rejection: "even for highly specialized sensor-based control
//! techniques with incremental nonlinear dynamic inversion (INDI) that
//! can stabilize a drone under powerful wind gusts, the update frequency
//! is still 500 Hz". INDI replaces the rate PID's disturbance integrator
//! with direct feedback of the *measured angular acceleration*: each
//! tick commands a torque **increment**
//!
//! ```text
//! Δτ = I · (ν − ω̇_f),     ν = Kp (ω_sp − ω)
//! ```
//!
//! where `ω̇_f` is the filtered, differentiated gyro signal. Because the
//! previous torque's effect is measured rather than modelled,
//! unmodelled torques (gusts, weight imbalance, motor imperfection — the
//! paper's Table 1 list) are cancelled within one filter time constant.

use drone_math::Vec3;
use drone_sim::params::QuadcopterParams;

/// INDI body-rate controller (the 1 kHz low level).
///
/// # Example
///
/// ```
/// use drone_control::indi::IndiRateController;
/// use drone_sim::QuadcopterParams;
/// use drone_math::Vec3;
/// let params = QuadcopterParams::default_450mm();
/// let mut indi = IndiRateController::new(&params);
/// let torque = indi.update(Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0), 1e-3);
/// assert!(torque.x > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct IndiRateController {
    /// Rate-error → angular-acceleration gain (1/s).
    pub rate_gain: Vec3,
    /// Gyro-differentiation low-pass time constant, s.
    pub filter_tau: f64,
    inertia: Vec3,
    max_torque: Vec3,
    prev_rate: Option<Vec3>,
    filtered_accel: Vec3,
    /// Actuator command filtered with the SAME dynamics as the gyro
    /// derivative — the synchronization that keeps INDI stable under
    /// actuator lag (Smeur et al.).
    filtered_cmd: Vec3,
    torque_cmd: Vec3,
}

impl IndiRateController {
    /// Creates an INDI rate loop tuned for the airframe.
    pub fn new(params: &QuadcopterParams) -> IndiRateController {
        let inertia = params.inertia_diagonal();
        // Torque authority ≈ max differential thrust × lever arm.
        let lever = params.arm_length() / std::f64::consts::SQRT_2;
        let t_max = params.max_total_thrust_newtons() / 4.0;
        let max_torque = Vec3::new(t_max * lever, t_max * lever, t_max * lever * 0.2);
        IndiRateController {
            rate_gain: Vec3::new(14.0, 14.0, 8.0),
            filter_tau: 0.02,
            inertia,
            max_torque,
            prev_rate: None,
            filtered_accel: Vec3::ZERO,
            filtered_cmd: Vec3::ZERO,
            torque_cmd: Vec3::ZERO,
        }
    }

    /// One tick: body rate measurement + rate setpoint → torque command.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive.
    pub fn update(&mut self, body_rate: Vec3, rate_setpoint: Vec3, dt: f64) -> Vec3 {
        assert!(dt > 0.0, "dt must be positive");
        // Differentiate and low-pass the gyro to estimate ω̇.
        let raw_accel = match self.prev_rate {
            Some(prev) => (body_rate - prev) / dt,
            None => Vec3::ZERO,
        };
        self.prev_rate = Some(body_rate);
        let alpha = dt / (self.filter_tau + dt);
        self.filtered_accel = self.filtered_accel + (raw_accel - self.filtered_accel) * alpha;
        self.filtered_cmd = self.filtered_cmd + (self.torque_cmd - self.filtered_cmd) * alpha;

        // Desired angular acceleration (the "virtual control" ν).
        let err = rate_setpoint - body_rate;
        let nu = Vec3::new(
            self.rate_gain.x * err.x,
            self.rate_gain.y * err.y,
            self.rate_gain.z * err.z,
        );
        // The INDI law: increment relative to the *filtered* previous
        // command, inverted through the inertia. The measured ω̇ carries
        // every disturbance, so no explicit integrator is needed.
        let delta = nu - self.filtered_accel;
        self.torque_cmd = self.filtered_cmd
            + Vec3::new(
                self.inertia.x * delta.x,
                self.inertia.y * delta.y,
                self.inertia.z * delta.z,
            );
        self.torque_cmd = Vec3::new(
            self.torque_cmd
                .x
                .clamp(-self.max_torque.x, self.max_torque.x),
            self.torque_cmd
                .y
                .clamp(-self.max_torque.y, self.max_torque.y),
            self.torque_cmd
                .z
                .clamp(-self.max_torque.z, self.max_torque.z),
        );
        self.torque_cmd
    }

    /// Clears controller memory (mode change / arming).
    pub fn reset(&mut self) {
        self.prev_rate = None;
        self.filtered_accel = Vec3::ZERO;
        self.filtered_cmd = Vec3::ZERO;
        self.torque_cmd = Vec3::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mixer::Mixer;
    use drone_math::{Pcg32, Quat};
    use drone_sim::{Quadcopter, WindModel};

    /// Fly attitude-hold with an INDI rate loop under gusts; return the
    /// RMS attitude error (rad).
    fn gust_attitude_rms_indi(gust: f64, seconds: f64) -> f64 {
        let params = QuadcopterParams::default_450mm();
        let mut quad = Quadcopter::hovering_at(params.clone(), 50.0);
        let attitude = crate::attitude::AttitudeController::new(&params);
        let mut indi = IndiRateController::new(&params);
        let mixer = Mixer::new(&params);
        let hover = params.total_weight().weight_newtons();
        let mut wind = WindModel::gusty(drone_math::Vec3::new(4.0, 0.0, 0.0), gust, 17);
        // Random torque disturbance emulating prop flapping/imbalance.
        let mut rng = Pcg32::seed_from(3);
        let dt = 1e-3;
        let mut sq = 0.0;
        let n = (seconds / dt) as usize;
        for _ in 0..n {
            let s = *quad.state();
            let rate_sp = attitude.rate_setpoint(s.attitude, Quat::IDENTITY);
            let mut torque = indi.update(s.angular_velocity, rate_sp, dt);
            torque +=
                drone_math::Vec3::new(rng.normal_with(0.0, 0.02), rng.normal_with(0.0, 0.02), 0.0);
            quad.step(mixer.mix(hover, torque), wind.sample(dt), dt);
            sq += s.attitude.angle_to(Quat::IDENTITY).powi(2);
        }
        (sq / n as f64).sqrt()
    }

    #[test]
    fn holds_attitude_in_strong_gusts() {
        // The paper's INDI citation is about gust stabilization: 3 m/s
        // gusts on top of a 4 m/s mean wind must leave attitude error
        // small.
        let rms = gust_attitude_rms_indi(3.0, 8.0);
        assert!(rms < 0.1, "attitude RMS {rms} rad under gusts");
    }

    #[test]
    fn tracks_a_rate_step() {
        let params = QuadcopterParams::default_450mm();
        let mut quad = Quadcopter::hovering_at(params.clone(), 50.0);
        let mut indi = IndiRateController::new(&params);
        let mixer = Mixer::new(&params);
        let hover = params.total_weight().weight_newtons();
        let dt = 1e-3;
        for _ in 0..400 {
            let s = *quad.state();
            let torque = indi.update(s.angular_velocity, drone_math::Vec3::new(1.0, 0.0, 0.0), dt);
            quad.step(mixer.mix(hover, torque), drone_math::Vec3::ZERO, dt);
        }
        let rate = quad.state().angular_velocity.x;
        assert!((rate - 1.0).abs() < 0.2, "roll rate {rate} after 0.4 s");
    }

    #[test]
    fn cancels_a_constant_disturbance_torque() {
        // A constant unmodelled torque (weight imbalance): INDI must
        // drive the rate back to zero without an explicit integrator.
        let params = QuadcopterParams::default_450mm();
        let mut quad = Quadcopter::hovering_at(params.clone(), 50.0);
        let mut indi = IndiRateController::new(&params);
        let mixer = Mixer::new(&params);
        let hover = params.total_weight().weight_newtons();
        let dt = 1e-3;
        for _ in 0..3000 {
            let s = *quad.state();
            let torque = indi.update(s.angular_velocity, drone_math::Vec3::ZERO, dt)
                + drone_math::Vec3::new(0.08, 0.0, 0.0);
            quad.step(mixer.mix(hover, torque), drone_math::Vec3::ZERO, dt);
        }
        let residual = quad.state().angular_velocity.x.abs();
        assert!(residual < 0.05, "residual roll rate {residual}");
    }

    #[test]
    fn torque_is_bounded() {
        let params = QuadcopterParams::default_450mm();
        let mut indi = IndiRateController::new(&params);
        for _ in 0..1000 {
            let t = indi.update(Vec3::ZERO, Vec3::new(100.0, -100.0, 50.0), 1e-3);
            assert!(t.is_finite());
            assert!(
                t.x.abs() <= 10.0 && t.y.abs() <= 10.0,
                "unbounded torque {t}"
            );
        }
    }

    #[test]
    fn reset_clears_memory() {
        let params = QuadcopterParams::default_450mm();
        let mut indi = IndiRateController::new(&params);
        for _ in 0..100 {
            indi.update(Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0), 1e-3);
        }
        indi.reset();
        let t = indi.update(Vec3::ZERO, Vec3::ZERO, 1e-3);
        assert!(t.norm() < 1e-9, "residual torque {t}");
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn zero_dt_panics() {
        let params = QuadcopterParams::default_450mm();
        IndiRateController::new(&params).update(Vec3::ZERO, Vec3::ZERO, 0.0);
    }
}
