//! Rigid-body state of the quadcopter.
//!
//! Frames: the **world frame** is X-north, Y-east... actually X/Y
//! horizontal and **Z up**; gravity acts along −Z. The **body frame** has
//! +Z along the collective thrust axis, +X forward. The attitude
//! quaternion rotates body-frame vectors into the world frame.
//!
//! This is the measurable state of the paper's §2.1.3-D control
//! computations: `x = (ζ, ζ̇, Ω, R)` — position, velocity, angular
//! velocity and attitude.

use drone_math::{Quat, Vec3};
use std::fmt;

/// Position, velocity, attitude and body angular rate.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RigidBodyState {
    /// Position in the world frame, metres.
    pub position: Vec3,
    /// Velocity in the world frame, m/s.
    pub velocity: Vec3,
    /// Body→world attitude.
    pub attitude: Quat,
    /// Angular velocity in the body frame, rad/s.
    pub angular_velocity: Vec3,
}

impl RigidBodyState {
    /// A state at rest at the world origin, level.
    pub fn at_rest() -> RigidBodyState {
        RigidBodyState::default()
    }

    /// A state at rest hovering at the given altitude (m).
    pub fn at_altitude(altitude: f64) -> RigidBodyState {
        RigidBodyState {
            position: Vec3::new(0.0, 0.0, altitude),
            ..Default::default()
        }
    }

    /// The body +Z (thrust) axis expressed in the world frame.
    pub fn thrust_axis_world(&self) -> Vec3 {
        self.attitude.rotate(Vec3::Z)
    }

    /// Euler attitude `(roll, pitch, yaw)` in radians.
    pub fn euler(&self) -> (f64, f64, f64) {
        self.attitude.to_euler()
    }

    /// Tilt angle from vertical, radians (the paper's "angle of attack"
    /// driver for horizontal speed).
    pub fn tilt_angle(&self) -> f64 {
        self.thrust_axis_world()
            .dot(Vec3::Z)
            .clamp(-1.0, 1.0)
            .acos()
    }

    /// `true` when every component is finite (diverged sims fail this).
    pub fn is_finite(&self) -> bool {
        self.position.is_finite()
            && self.velocity.is_finite()
            && self.attitude.is_finite()
            && self.angular_velocity.is_finite()
    }
}

impl fmt::Display for RigidBodyState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (r, p, y) = self.euler();
        write!(
            f,
            "pos {} vel {} rpy ({:.2}, {:.2}, {:.2}) ω {}",
            self.position, self.velocity, r, p, y, self.angular_velocity
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_4;

    #[test]
    fn at_rest_is_level() {
        let s = RigidBodyState::at_rest();
        assert_eq!(s.thrust_axis_world(), Vec3::Z);
        assert!(s.tilt_angle() < 1e-12);
    }

    #[test]
    fn at_altitude_sets_z() {
        let s = RigidBodyState::at_altitude(10.0);
        assert_eq!(s.position, Vec3::new(0.0, 0.0, 10.0));
    }

    #[test]
    fn tilt_angle_tracks_pitch() {
        let mut s = RigidBodyState::at_rest();
        s.attitude = Quat::from_euler(0.0, FRAC_PI_4, 0.0);
        assert!((s.tilt_angle() - FRAC_PI_4).abs() < 1e-9);
    }

    #[test]
    fn yaw_does_not_tilt() {
        let mut s = RigidBodyState::at_rest();
        s.attitude = Quat::from_euler(0.0, 0.0, 1.0);
        assert!(s.tilt_angle() < 1e-9);
    }

    #[test]
    fn finite_check_catches_nan() {
        let mut s = RigidBodyState::at_rest();
        assert!(s.is_finite());
        s.velocity.x = f64::NAN;
        assert!(!s.is_finite());
    }
}
