//! Mid-level attitude and low-level body-rate control (Table 2b's 200 Hz
//! and 1 kHz layers).
//!
//! Structure: a proportional attitude loop converts quaternion attitude
//! error into a body-rate setpoint; a PID rate loop converts rate error
//! into torque, normalized by the body inertia so one set of gains works
//! across airframes.

use crate::pid::Pid;
use drone_math::{Quat, Vec3};
use drone_sim::params::QuadcopterParams;

/// Attitude → body-rate → torque controller.
///
/// # Example
///
/// ```
/// use drone_control::AttitudeController;
/// use drone_sim::QuadcopterParams;
/// use drone_math::{Quat, Vec3};
/// let params = QuadcopterParams::default_450mm();
/// let mut ctrl = AttitudeController::new(&params);
/// // Roll error demands positive roll torque.
/// let target = Quat::from_euler(0.2, 0.0, 0.0);
/// let torque = ctrl.update(Quat::IDENTITY, Vec3::ZERO, target, 0.005);
/// assert!(torque.x > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AttitudeController {
    /// Attitude-error → rate-setpoint proportional gain (1/s).
    pub attitude_gain: Vec3,
    /// Maximum commanded body rate, rad/s.
    pub max_rate: f64,
    rate_pid: [Pid; 3],
    inertia: Vec3,
}

impl AttitudeController {
    /// Creates a controller tuned for the given airframe.
    pub fn new(params: &QuadcopterParams) -> AttitudeController {
        let inertia = params.inertia_diagonal();
        let rate_pid = [
            Pid::new(18.0, 6.0, 0.35)
                .with_integral_limit(4.0)
                .with_derivative_filter(0.004),
            Pid::new(18.0, 6.0, 0.35)
                .with_integral_limit(4.0)
                .with_derivative_filter(0.004),
            Pid::new(10.0, 3.0, 0.0).with_integral_limit(2.0),
        ];
        AttitudeController {
            attitude_gain: Vec3::new(8.0, 8.0, 4.0),
            max_rate: 6.0,
            rate_pid,
            inertia,
        }
    }

    /// Computes the body-frame torque demand (N·m).
    ///
    /// * `attitude` — current body→world attitude estimate.
    /// * `body_rate` — current body angular velocity (rad/s).
    /// * `target` — attitude setpoint.
    /// * `dt` — controller period (s).
    pub fn update(&mut self, attitude: Quat, body_rate: Vec3, target: Quat, dt: f64) -> Vec3 {
        let rate_sp = self.rate_setpoint(attitude, target);
        self.update_rate_only(body_rate, rate_sp, dt)
    }

    /// Attitude-error → body-rate setpoint (the 200 Hz mid level).
    pub fn rate_setpoint(&self, attitude: Quat, target: Quat) -> Vec3 {
        // Error quaternion in the body frame; its vector part (scaled by
        // the sign of w for shortest path) is the small-angle rotation
        // error.
        let err = attitude.conjugate() * target;
        let sign = if err.w >= 0.0 { 1.0 } else { -1.0 };
        let axis_err = Vec3::new(err.x, err.y, err.z) * (2.0 * sign);
        Vec3::new(
            self.attitude_gain.x * axis_err.x,
            self.attitude_gain.y * axis_err.y,
            self.attitude_gain.z * axis_err.z,
        )
        .clamp(-self.max_rate, self.max_rate)
    }

    /// Rate-error → torque (the 1 kHz low level). Exposed separately so
    /// the cascade can run it faster than the attitude level.
    pub fn update_rate_only(&mut self, body_rate: Vec3, rate_setpoint: Vec3, dt: f64) -> Vec3 {
        let err = rate_setpoint - body_rate;
        // Normalize by inertia so the PID output is angular acceleration.
        Vec3::new(
            self.inertia.x * self.rate_pid[0].step(err.x, dt),
            self.inertia.y * self.rate_pid[1].step(err.y, dt),
            self.inertia.z * self.rate_pid[2].step(err.z, dt),
        )
    }

    /// Clears controller history (mode changes, arming).
    pub fn reset(&mut self) {
        for pid in &mut self.rate_pid {
            pid.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drone_sim::Quadcopter;

    /// Closed-loop helper: fly attitude control only (thrust pinned at
    /// hover) and return the final state.
    fn fly_attitude(target: Quat, seconds: f64) -> drone_sim::RigidBodyState {
        let params = QuadcopterParams::default_450mm();
        let mut quad = Quadcopter::hovering_at(params.clone(), 50.0);
        let mut ctrl = AttitudeController::new(&params);
        let mixer = crate::mixer::Mixer::new(&params);
        let hover_n = params.total_weight().weight_newtons();
        let steps = (seconds / 1e-3) as usize;
        for _ in 0..steps {
            let s = *quad.state();
            let torque = ctrl.update(s.attitude, s.angular_velocity, target, 1e-3);
            let throttle = mixer.mix(hover_n, torque);
            quad.step(throttle, Vec3::ZERO, 1e-3);
        }
        *quad.state()
    }

    #[test]
    fn reaches_roll_target() {
        let target = Quat::from_euler(0.3, 0.0, 0.0);
        let s = fly_attitude(target, 1.0);
        assert!(
            s.attitude.angle_to(target) < 0.05,
            "attitude error {}",
            s.attitude.angle_to(target)
        );
    }

    #[test]
    fn reaches_combined_target() {
        let target = Quat::from_euler(-0.2, 0.15, 0.8);
        let s = fly_attitude(target, 2.0);
        assert!(
            s.attitude.angle_to(target) < 0.08,
            "attitude error {}",
            s.attitude.angle_to(target)
        );
    }

    #[test]
    fn attitude_response_time_matches_table2() {
        // Table 2b: attitude response time ≈ 100 ms. Measure time to
        // reach 90 % of a 0.2 rad roll step.
        let params = QuadcopterParams::default_450mm();
        let mut quad = Quadcopter::hovering_at(params.clone(), 50.0);
        let mut ctrl = AttitudeController::new(&params);
        let mixer = crate::mixer::Mixer::new(&params);
        let hover_n = params.total_weight().weight_newtons();
        let target = Quat::from_euler(0.2, 0.0, 0.0);
        let mut t_reach = None;
        for i in 0..2000 {
            let s = *quad.state();
            let torque = ctrl.update(s.attitude, s.angular_velocity, target, 1e-3);
            quad.step(mixer.mix(hover_n, torque), Vec3::ZERO, 1e-3);
            let (roll, _, _) = quad.state().euler();
            if roll > 0.18 && t_reach.is_none() {
                t_reach = Some(i as f64 * 1e-3);
            }
        }
        let t = t_reach.expect("never reached the roll target");
        assert!(
            (0.02..0.5).contains(&t),
            "90% rise time {t:.3}s outside the Table 2 order of magnitude"
        );
    }

    #[test]
    fn rate_setpoint_clamped() {
        let params = QuadcopterParams::default_450mm();
        let ctrl = AttitudeController::new(&params);
        let target = Quat::from_euler(0.0, 0.0, 3.0); // huge yaw error
        let sp = ctrl.rate_setpoint(Quat::IDENTITY, target);
        assert!(sp.max_abs() <= ctrl.max_rate + 1e-12);
    }

    #[test]
    fn shortest_path_for_large_errors() {
        let params = QuadcopterParams::default_450mm();
        let ctrl = AttitudeController::new(&params);
        // 350° yaw should rotate −10°, not +350°.
        let target = Quat::from_euler(0.0, 0.0, drone_math::angles::deg_to_rad(350.0));
        let sp = ctrl.rate_setpoint(Quat::IDENTITY, target);
        assert!(sp.z < 0.0, "took the long way: {sp}");
    }

    #[test]
    fn zero_error_zero_rate_setpoint() {
        let params = QuadcopterParams::default_450mm();
        let ctrl = AttitudeController::new(&params);
        let q = Quat::from_euler(0.1, -0.2, 0.7);
        assert!(ctrl.rate_setpoint(q, q).norm() < 1e-9);
    }

    #[test]
    fn reset_clears_integrators() {
        let params = QuadcopterParams::default_450mm();
        let mut ctrl = AttitudeController::new(&params);
        for _ in 0..100 {
            ctrl.update_rate_only(Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0), 1e-3);
        }
        ctrl.reset();
        // After reset with zero error the output has no integral memory.
        let out = ctrl.update_rate_only(Vec3::ZERO, Vec3::ZERO, 1e-3);
        assert!(out.norm() < 1e-9, "residual output {out}");
    }
}
