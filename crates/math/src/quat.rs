//! Unit quaternions for attitude representation.
//!
//! The convention is Hamilton (w, x, y, z), active rotation: `q.rotate(v)`
//! rotates a vector from the body frame into the world frame when `q` is the
//! body-to-world attitude.

use crate::vec3::{Mat3, Vec3};
use std::fmt;
use std::ops::Mul;

/// A (usually unit) quaternion `w + xi + yj + zk`.
///
/// # Example
///
/// ```
/// use drone_math::{Quat, Vec3};
/// let q = Quat::from_euler(0.0, 0.0, std::f64::consts::FRAC_PI_2);
/// assert!((q.rotate(Vec3::X) - Vec3::Y).norm() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quat {
    /// Scalar part.
    pub w: f64,
    /// Vector part, x.
    pub x: f64,
    /// Vector part, y.
    pub y: f64,
    /// Vector part, z.
    pub z: f64,
}

impl Quat {
    /// The identity rotation.
    pub const IDENTITY: Quat = Quat {
        w: 1.0,
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Creates a quaternion from raw components (not normalized).
    pub const fn new(w: f64, x: f64, y: f64, z: f64) -> Quat {
        Quat { w, x, y, z }
    }

    /// Rotation of `angle` radians about `axis` (need not be unit length).
    ///
    /// A zero axis yields the identity rotation.
    pub fn from_axis_angle(axis: Vec3, angle: f64) -> Quat {
        match axis.normalized() {
            None => Quat::IDENTITY,
            Some(u) => {
                let (s, c) = (angle / 2.0).sin_cos();
                Quat::new(c, u.x * s, u.y * s, u.z * s)
            }
        }
    }

    /// Builds an attitude from aerospace Euler angles (roll φ about X,
    /// pitch θ about Y, yaw ψ about Z), applied in Z-Y-X order.
    pub fn from_euler(roll: f64, pitch: f64, yaw: f64) -> Quat {
        let (sr, cr) = (roll / 2.0).sin_cos();
        let (sp, cp) = (pitch / 2.0).sin_cos();
        let (sy, cy) = (yaw / 2.0).sin_cos();
        Quat::new(
            cr * cp * cy + sr * sp * sy,
            sr * cp * cy - cr * sp * sy,
            cr * sp * cy + sr * cp * sy,
            cr * cp * sy - sr * sp * cy,
        )
    }

    /// Extracts aerospace Euler angles `(roll, pitch, yaw)`.
    ///
    /// Near the gimbal-lock singularity (`|pitch| == π/2`) roll is set to 0
    /// and yaw absorbs the remaining rotation.
    pub fn to_euler(self) -> (f64, f64, f64) {
        let q = self.normalized();
        let sinp = 2.0 * (q.w * q.y - q.z * q.x);
        if sinp.abs() >= 1.0 - 1e-9 {
            let pitch = std::f64::consts::FRAC_PI_2.copysign(sinp);
            let yaw = 2.0 * f64::atan2(q.z, q.w) * sinp.signum();
            return (0.0, pitch, yaw);
        }
        let roll = f64::atan2(
            2.0 * (q.w * q.x + q.y * q.z),
            1.0 - 2.0 * (q.x * q.x + q.y * q.y),
        );
        let pitch = sinp.asin();
        let yaw = f64::atan2(
            2.0 * (q.w * q.z + q.x * q.y),
            1.0 - 2.0 * (q.y * q.y + q.z * q.z),
        );
        (roll, pitch, yaw)
    }

    /// Quaternion norm.
    pub fn norm(self) -> f64 {
        (self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }

    /// Returns the normalized (unit) quaternion.
    ///
    /// # Panics
    ///
    /// Panics if the norm is zero or non-finite.
    pub fn normalized(self) -> Quat {
        let n = self.norm();
        assert!(
            n.is_finite() && n > 1e-12,
            "cannot normalize quaternion with norm {n}"
        );
        Quat::new(self.w / n, self.x / n, self.y / n, self.z / n)
    }

    /// Conjugate; for unit quaternions this is the inverse rotation.
    pub fn conjugate(self) -> Quat {
        Quat::new(self.w, -self.x, -self.y, -self.z)
    }

    /// Rotates a vector by this (unit) quaternion.
    pub fn rotate(self, v: Vec3) -> Vec3 {
        // v' = v + 2 * u × (u × v + w v), with u the vector part.
        let u = Vec3::new(self.x, self.y, self.z);
        let t = u.cross(v) * 2.0;
        v + t * self.w + u.cross(t)
    }

    /// Inverse rotation of a vector (same as `self.conjugate().rotate(v)`).
    pub fn rotate_inverse(self, v: Vec3) -> Vec3 {
        self.conjugate().rotate(v)
    }

    /// The equivalent rotation matrix (body→world for attitude quaternions).
    pub fn to_rotation_matrix(self) -> Mat3 {
        let q = self.normalized();
        let (w, x, y, z) = (q.w, q.x, q.y, q.z);
        Mat3 {
            m: [
                [
                    1.0 - 2.0 * (y * y + z * z),
                    2.0 * (x * y - w * z),
                    2.0 * (x * z + w * y),
                ],
                [
                    2.0 * (x * y + w * z),
                    1.0 - 2.0 * (x * x + z * z),
                    2.0 * (y * z - w * x),
                ],
                [
                    2.0 * (x * z - w * y),
                    2.0 * (y * z + w * x),
                    1.0 - 2.0 * (x * x + y * y),
                ],
            ],
        }
    }

    /// Integrates a body-frame angular rate `omega` (rad/s) over `dt`
    /// seconds and renormalizes. Uses the exact exponential map so large
    /// steps stay on the unit sphere.
    pub fn integrate(self, omega: Vec3, dt: f64) -> Quat {
        let dq = Quat::from_axis_angle(omega, omega.norm() * dt);
        (self * dq).normalized()
    }

    /// Angular distance to another rotation, in radians, in `[0, π]`.
    pub fn angle_to(self, other: Quat) -> f64 {
        let d = self.conjugate() * other;
        2.0 * d.w.abs().min(1.0).acos()
    }

    /// `true` when every component is finite.
    pub fn is_finite(self) -> bool {
        self.w.is_finite() && self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl Default for Quat {
    fn default() -> Self {
        Quat::IDENTITY
    }
}

impl fmt::Display for Quat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({:.6} + {:.6}i + {:.6}j + {:.6}k)",
            self.w, self.x, self.y, self.z
        )
    }
}

impl Mul for Quat {
    type Output = Quat;
    /// Hamilton product; `(a * b).rotate(v) == a.rotate(b.rotate(v))`.
    fn mul(self, r: Quat) -> Quat {
        Quat::new(
            self.w * r.w - self.x * r.x - self.y * r.y - self.z * r.z,
            self.w * r.x + self.x * r.w + self.y * r.z - self.z * r.y,
            self.w * r.y - self.x * r.z + self.y * r.w + self.z * r.x,
            self.w * r.z + self.x * r.y - self.y * r.x + self.z * r.w,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn identity_rotates_nothing() {
        let v = Vec3::new(1.0, -2.0, 3.0);
        assert!((Quat::IDENTITY.rotate(v) - v).norm() < 1e-12);
    }

    #[test]
    fn axis_angle_quarter_turns() {
        let q = Quat::from_axis_angle(Vec3::Z, FRAC_PI_2);
        assert!((q.rotate(Vec3::X) - Vec3::Y).norm() < 1e-12);
        let q = Quat::from_axis_angle(Vec3::X, FRAC_PI_2);
        assert!((q.rotate(Vec3::Y) - Vec3::Z).norm() < 1e-12);
    }

    #[test]
    fn zero_axis_is_identity() {
        assert_eq!(Quat::from_axis_angle(Vec3::ZERO, 1.0), Quat::IDENTITY);
    }

    #[test]
    fn composition_matches_sequential_rotation() {
        let a = Quat::from_euler(0.2, -0.4, 1.1);
        let b = Quat::from_euler(-0.7, 0.3, 0.5);
        let v = Vec3::new(0.5, 1.5, -2.0);
        let composed = (a * b).rotate(v);
        let sequential = a.rotate(b.rotate(v));
        assert!((composed - sequential).norm() < 1e-12);
    }

    #[test]
    fn euler_roundtrip() {
        let cases = [
            (0.1, 0.2, 0.3),
            (-1.0, 0.5, -2.5),
            (0.0, 0.0, PI - 0.01),
            (1.2, -1.3, 0.0),
        ];
        for (r, p, y) in cases {
            let q = Quat::from_euler(r, p, y);
            let (r2, p2, y2) = q.to_euler();
            assert!((r - r2).abs() < 1e-9, "roll {r} vs {r2}");
            assert!((p - p2).abs() < 1e-9, "pitch {p} vs {p2}");
            assert!((y - y2).abs() < 1e-9, "yaw {y} vs {y2}");
        }
    }

    #[test]
    fn rotation_matrix_agrees_with_quat_rotation() {
        let q = Quat::from_euler(0.3, -0.6, 2.0);
        let m = q.to_rotation_matrix();
        for v in [Vec3::X, Vec3::Y, Vec3::Z, Vec3::new(1.0, 2.0, 3.0)] {
            assert!((m * v - q.rotate(v)).norm() < 1e-12);
        }
        // Rotation matrices are orthonormal with det +1.
        assert!((m.det() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rotate_inverse_undoes_rotate() {
        let q = Quat::from_euler(0.9, 0.4, -1.7);
        let v = Vec3::new(-1.0, 2.0, 0.25);
        assert!((q.rotate_inverse(q.rotate(v)) - v).norm() < 1e-12);
    }

    #[test]
    fn integrate_constant_rate() {
        // Integrating 90°/s about Z for 1 s in small steps ≈ quarter turn.
        let mut q = Quat::IDENTITY;
        let omega = Vec3::Z * FRAC_PI_2;
        for _ in 0..1000 {
            q = q.integrate(omega, 1e-3);
        }
        let expect = Quat::from_axis_angle(Vec3::Z, FRAC_PI_2);
        assert!(q.angle_to(expect) < 1e-9);
    }

    #[test]
    fn integration_preserves_unit_norm() {
        let mut q = Quat::from_euler(0.1, 0.1, 0.1);
        for i in 0..10_000 {
            let omega = Vec3::new((i as f64).sin(), 0.5, -0.2) * 3.0;
            q = q.integrate(omega, 1e-3);
        }
        assert!((q.norm() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn angle_to_self_is_zero() {
        let q = Quat::from_euler(1.0, -0.5, 0.7);
        assert!(q.angle_to(q) < 1e-9);
        let half_turn = Quat::from_axis_angle(Vec3::Y, PI);
        assert!((q.angle_to(q * half_turn) - PI).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "cannot normalize")]
    fn normalize_zero_panics() {
        let _ = Quat::new(0.0, 0.0, 0.0, 0.0).normalized();
    }
}
