//! High-level position / velocity control (Table 2b's 40 Hz layer).
//!
//! Position error → bounded velocity setpoint → desired acceleration →
//! (attitude target, collective thrust). The horizontal acceleration is
//! realized by tilting (the paper's §2.1.1 observation: drones reuse the
//! uplift thrust for horizontal movement by tilting), capped at a maximum
//! tilt angle that the thrust-to-weight ratio must support.

use crate::pid::Pid;
use drone_components::units::STANDARD_GRAVITY;
use drone_math::{Quat, Vec3};
use drone_sim::params::QuadcopterParams;

/// Output of the position controller: what the mid/low levels consume.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttitudeThrustCommand {
    /// Attitude setpoint (body→world).
    pub attitude: Quat,
    /// Collective thrust, newtons.
    pub thrust_newtons: f64,
}

/// Position / velocity → attitude + thrust controller.
///
/// # Example
///
/// ```
/// use drone_control::PositionController;
/// use drone_sim::{QuadcopterParams, RigidBodyState};
/// use drone_math::Vec3;
/// let params = QuadcopterParams::default_450mm();
/// let mut ctrl = PositionController::new(&params);
/// let state = RigidBodyState::at_altitude(5.0);
/// let cmd = ctrl.update_position(&state, Vec3::new(0.0, 0.0, 10.0), 0.0, 0.025);
/// // Below target: needs more than hover thrust.
/// assert!(cmd.thrust_newtons > params.total_weight().weight_newtons());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PositionController {
    /// Position-error → velocity-setpoint gain (1/s).
    pub position_gain: f64,
    /// Maximum horizontal speed setpoint, m/s.
    pub max_speed: f64,
    /// Maximum climb/descent speed setpoint, m/s.
    pub max_vertical_speed: f64,
    /// Maximum commanded tilt, radians.
    pub max_tilt: f64,
    velocity_pid: [Pid; 3],
    mass_kg: f64,
    max_thrust: f64,
}

impl PositionController {
    /// Creates a controller tuned for the given airframe.
    pub fn new(params: &QuadcopterParams) -> PositionController {
        let velocity_pid = [
            Pid::new(2.2, 0.4, 0.0)
                .with_integral_limit(2.0)
                .with_output_limit(6.0),
            Pid::new(2.2, 0.4, 0.0)
                .with_integral_limit(2.0)
                .with_output_limit(6.0),
            Pid::new(4.0, 1.2, 0.0)
                .with_integral_limit(3.0)
                .with_output_limit(8.0),
        ];
        // TWR-limited tilt: cos(tilt) ≥ 1/TWR keeps altitude authority;
        // additionally capped at ~23° so the IMU's gravity reference
        // stays usable (see the complementary filter's gating).
        let twr = params.thrust_to_weight();
        let max_tilt = (1.0 / twr.max(1.05)).acos().min(0.4);
        PositionController {
            position_gain: 1.1,
            max_speed: 5.0,
            max_vertical_speed: 3.0,
            max_tilt,
            velocity_pid,
            mass_kg: params.total_mass_kg(),
            max_thrust: params.max_total_thrust_newtons(),
        }
    }

    /// Position-hold update: position target + yaw target → command.
    pub fn update_position(
        &mut self,
        state: &drone_sim::RigidBodyState,
        target_position: Vec3,
        target_yaw: f64,
        dt: f64,
    ) -> AttitudeThrustCommand {
        let err = target_position - state.position;
        // Clamp the horizontal speed as a VECTOR: per-axis clamping would
        // distort the direction of travel toward 45° diagonals and fly
        // wide of the line to the waypoint.
        let mut horizontal = Vec3::new(self.position_gain * err.x, self.position_gain * err.y, 0.0);
        let h_norm = horizontal.norm();
        if h_norm > self.max_speed {
            horizontal *= self.max_speed / h_norm;
        }
        let vel_sp = Vec3::new(
            horizontal.x,
            horizontal.y,
            (self.position_gain * err.z).clamp(-self.max_vertical_speed, self.max_vertical_speed),
        );
        self.update_velocity(state, vel_sp, target_yaw, dt)
    }

    /// Velocity-tracking update: velocity target + yaw target → command.
    pub fn update_velocity(
        &mut self,
        state: &drone_sim::RigidBodyState,
        target_velocity: Vec3,
        target_yaw: f64,
        dt: f64,
    ) -> AttitudeThrustCommand {
        let verr = target_velocity - state.velocity;
        let accel = Vec3::new(
            self.velocity_pid[0].step(verr.x, dt),
            self.velocity_pid[1].step(verr.y, dt),
            self.velocity_pid[2].step(verr.z, dt),
        );
        self.accel_to_command(accel, target_yaw)
    }

    /// Converts a desired world-frame acceleration (gravity-compensated
    /// internally) plus yaw into an attitude/thrust command.
    pub fn accel_to_command(&self, accel: Vec3, yaw: f64) -> AttitudeThrustCommand {
        let g = STANDARD_GRAVITY;
        // Tilt from horizontal acceleration, rotated into the yaw frame.
        let (sy, cy) = yaw.sin_cos();
        let pitch = ((accel.x * cy + accel.y * sy) / g)
            .atan()
            .clamp(-self.max_tilt, self.max_tilt);
        let roll = ((accel.x * sy - accel.y * cy) / g)
            .atan()
            .clamp(-self.max_tilt, self.max_tilt);
        let attitude = Quat::from_euler(roll, pitch, yaw);
        // Collective thrust: support weight plus vertical demand, divided
        // by the tilt's vertical projection.
        let tilt_cos = (roll.cos() * pitch.cos()).max(0.5);
        let thrust = (self.mass_kg * (g + accel.z) / tilt_cos).clamp(0.0, self.max_thrust);
        AttitudeThrustCommand {
            attitude,
            thrust_newtons: thrust,
        }
    }

    /// Clears controller history.
    pub fn reset(&mut self) {
        for pid in &mut self.velocity_pid {
            pid.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drone_sim::RigidBodyState;

    fn controller() -> (QuadcopterParams, PositionController) {
        let params = QuadcopterParams::default_450mm();
        let ctrl = PositionController::new(&params);
        (params, ctrl)
    }

    #[test]
    fn hover_at_target_commands_weight() {
        let (params, mut ctrl) = controller();
        let state = RigidBodyState::at_altitude(10.0);
        let cmd = ctrl.update_position(&state, Vec3::new(0.0, 0.0, 10.0), 0.0, 0.025);
        let weight = params.total_weight().weight_newtons();
        assert!((cmd.thrust_newtons - weight).abs() / weight < 0.05);
        assert!(cmd.attitude.angle_to(Quat::IDENTITY) < 0.01);
    }

    #[test]
    fn below_target_climbs() {
        let (params, mut ctrl) = controller();
        let state = RigidBodyState::at_altitude(5.0);
        let cmd = ctrl.update_position(&state, Vec3::new(0.0, 0.0, 10.0), 0.0, 0.025);
        assert!(cmd.thrust_newtons > params.total_weight().weight_newtons());
    }

    #[test]
    fn forward_target_pitches_forward() {
        let (_, mut ctrl) = controller();
        let state = RigidBodyState::at_altitude(10.0);
        let cmd = ctrl.update_position(&state, Vec3::new(20.0, 0.0, 10.0), 0.0, 0.025);
        let (_, pitch, _) = cmd.attitude.to_euler();
        assert!(pitch > 0.05, "pitch {pitch}");
    }

    #[test]
    fn right_target_rolls_negative() {
        // +Y target needs thrust tilted toward +Y, which for our Euler
        // convention is negative roll.
        let (_, mut ctrl) = controller();
        let state = RigidBodyState::at_altitude(10.0);
        let cmd = ctrl.update_position(&state, Vec3::new(0.0, 20.0, 10.0), 0.0, 0.025);
        let (roll, _, _) = cmd.attitude.to_euler();
        assert!(roll < -0.05, "roll {roll}");
    }

    #[test]
    fn tilt_is_capped_by_twr() {
        let (params, mut ctrl) = controller();
        let state = RigidBodyState::at_altitude(10.0);
        let cmd = ctrl.update_position(&state, Vec3::new(1e5, 0.0, 10.0), 0.0, 0.025);
        let (_, pitch, _) = cmd.attitude.to_euler();
        assert!(pitch <= ctrl.max_tilt + 1e-9);
        // The cap itself respects cos(tilt) ≥ 1/TWR.
        assert!(ctrl.max_tilt.cos() >= 1.0 / params.thrust_to_weight() - 1e-9);
    }

    #[test]
    fn thrust_never_exceeds_capability() {
        let (params, mut ctrl) = controller();
        let state = RigidBodyState::at_altitude(0.0);
        let cmd = ctrl.update_position(&state, Vec3::new(0.0, 0.0, 1e4), 0.0, 0.025);
        assert!(cmd.thrust_newtons <= params.max_total_thrust_newtons() + 1e-9);
    }

    #[test]
    fn yaw_passes_through() {
        let (_, mut ctrl) = controller();
        let state = RigidBodyState::at_altitude(10.0);
        let cmd = ctrl.update_position(&state, Vec3::new(0.0, 0.0, 10.0), 1.2, 0.025);
        let (_, _, yaw) = cmd.attitude.to_euler();
        assert!((yaw - 1.2).abs() < 1e-9);
    }

    #[test]
    fn velocity_mode_tracks_direction() {
        let (_, mut ctrl) = controller();
        let state = RigidBodyState::at_altitude(10.0);
        let cmd = ctrl.update_velocity(&state, Vec3::new(3.0, 0.0, 0.0), 0.0, 0.025);
        let (_, pitch, _) = cmd.attitude.to_euler();
        assert!(pitch > 0.0);
    }
}
