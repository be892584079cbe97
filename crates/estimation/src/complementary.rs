//! Attitude complementary filter.
//!
//! High-pass the gyroscope (integrate body rates), low-pass the
//! accelerometer's gravity direction and the magnetometer's heading. This
//! is the light-weight alternative to a full attitude EKF and one of the
//! ablation points called out in DESIGN.md: it costs a handful of
//! arithmetic operations per IMU sample — well within the paper's
//! STM32-class inner-loop budget.

use drone_math::{Quat, Vec3};

/// Gyro-integrating attitude filter with accel/mag correction.
///
/// # Example
///
/// ```
/// use drone_estimation::ComplementaryFilter;
/// use drone_math::Vec3;
/// let mut f = ComplementaryFilter::new(0.04, 0.01);
/// // Rest: accelerometer reads +g on body z; attitude stays identity.
/// for _ in 0..100 {
///     f.update(Vec3::ZERO, Some(Vec3::Z * 9.81), None, 0.005);
/// }
/// assert!(f.attitude().angle_to(drone_math::Quat::IDENTITY) < 0.01);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ComplementaryFilter {
    attitude: Quat,
    accel_gain: f64,
    mag_gain: f64,
}

impl ComplementaryFilter {
    /// Creates a filter with the given correction gains (per update,
    /// dimensionless fractions of the measured error; typical 0.01–0.1).
    ///
    /// # Panics
    ///
    /// Panics if gains are outside `[0, 1]`.
    pub fn new(accel_gain: f64, mag_gain: f64) -> ComplementaryFilter {
        assert!(
            (0.0..=1.0).contains(&accel_gain),
            "accel gain must be in [0,1]"
        );
        assert!((0.0..=1.0).contains(&mag_gain), "mag gain must be in [0,1]");
        ComplementaryFilter {
            attitude: Quat::IDENTITY,
            accel_gain,
            mag_gain,
        }
    }

    /// Current attitude estimate (body→world).
    pub fn attitude(&self) -> Quat {
        self.attitude
    }

    /// Forces the attitude estimate (initialization).
    pub fn set_attitude(&mut self, q: Quat) {
        self.attitude = q.normalized();
    }

    /// Advances the filter: always integrates `gyro` (body rad/s); when
    /// present, tilts toward the accelerometer's gravity direction and
    /// yaws toward the magnetometer's world-X heading.
    pub fn update(&mut self, gyro: Vec3, accel: Option<Vec3>, mag: Option<Vec3>, dt: f64) {
        self.attitude = self.attitude.integrate(gyro, dt);

        if let Some(a) = accel {
            // The accelerometer only measures gravity when the vehicle is
            // not accelerating: gate the correction on ‖f‖ ≈ g, otherwise
            // hard maneuvers (where specific force = thrust direction)
            // would drag the estimate toward "level" and destabilize the
            // cascade.
            let g = drone_components::units::STANDARD_GRAVITY;
            let norm = a.norm();
            // Quasi-static gating: (a) 5 % magnitude band — even a steady
            // 20° cruise tilt (‖f‖ = g/cos ≈ 1.06 g) must NOT be mistaken
            // for gravity; (b) low rotation rate — during maneuvers the
            // specific force points along body Z (thrust), and letting it
            // correct would walk the estimate toward "level" while the
            // true tilt runs away.
            if (norm - g).abs() < 0.05 * g && gyro.norm() < 0.3 {
                if let Some(meas_up_body) = a.normalized() {
                    // Where the filter currently thinks "up" is, in the
                    // body frame; the accelerometer says it is along `a`.
                    let est_up_body = self.attitude.rotate_inverse(Vec3::Z);
                    // Rotate the estimate so its "up" falls onto the
                    // measured "up": the small-angle axis is meas × est.
                    let correction = meas_up_body.cross(est_up_body) * self.accel_gain;
                    self.attitude = self.attitude.integrate(correction, 1.0);
                }
            }
        }
        if let Some(m) = mag {
            if let Some(meas_north_body) = m.normalized() {
                let est_north_body = self.attitude.rotate_inverse(Vec3::X);
                // Only the yaw component of the disagreement.
                let full = meas_north_body.cross(est_north_body);
                let yaw_axis_body = self.attitude.rotate_inverse(Vec3::Z);
                let correction = yaw_axis_body * full.dot(yaw_axis_body) * self.mag_gain;
                self.attitude = self.attitude.integrate(correction, 1.0);
            }
        }
    }
}

impl Default for ComplementaryFilter {
    /// Accel gain 0.005 at ~200 Hz (≈1 rad/s maximum pull — far above
    /// the ~0.002 rad/s gyro bias it must cancel, well below controller
    /// bandwidth), mag gain 0.05 at ~10 Hz.
    fn default() -> Self {
        ComplementaryFilter::new(0.005, 0.05)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drone_math::Pcg32;
    use std::f64::consts::FRAC_PI_2;

    /// Simulate the filter against a truth attitude with a noisy IMU.
    fn run_against_truth(truth: Quat, seconds: f64, gyro_bias: Vec3) -> Quat {
        let mut f = ComplementaryFilter::default();
        let mut rng = Pcg32::seed_from(5);
        let dt = 0.005; // 200 Hz IMU
        for i in 0..(seconds / dt) as usize {
            let accel_body = truth.rotate_inverse(Vec3::Z * 9.81);
            let noisy_accel = accel_body
                + Vec3::new(
                    rng.normal_with(0.0, 0.05),
                    rng.normal_with(0.0, 0.05),
                    rng.normal_with(0.0, 0.05),
                );
            let mag_body = truth.rotate_inverse(Vec3::X);
            let mag = if i % 20 == 0 { Some(mag_body) } else { None };
            f.update(gyro_bias, Some(noisy_accel), mag, dt);
        }
        f.attitude()
    }

    #[test]
    fn converges_to_static_attitude() {
        let truth = Quat::from_euler(0.3, -0.2, 0.9);
        let est = run_against_truth(truth, 20.0, Vec3::ZERO);
        assert!(est.angle_to(truth) < 0.05, "error {}", est.angle_to(truth));
    }

    #[test]
    fn rejects_small_gyro_bias() {
        // Pure gyro integration would drift without bound; the accel/mag
        // corrections must hold the estimate near truth.
        let truth = Quat::IDENTITY;
        let est = run_against_truth(truth, 30.0, Vec3::new(0.01, -0.01, 0.005));
        assert!(est.angle_to(truth) < 0.1, "drifted {}", est.angle_to(truth));
    }

    #[test]
    fn tracks_rotation_through_gyro() {
        let mut f = ComplementaryFilter::new(0.0, 0.0); // gyro only
        let rate = Vec3::Z * FRAC_PI_2; // 90°/s yaw
        for _ in 0..1000 {
            f.update(rate, None, None, 1e-3);
        }
        let expect = Quat::from_euler(0.0, 0.0, FRAC_PI_2);
        assert!(f.attitude().angle_to(expect) < 1e-6);
    }

    #[test]
    fn accel_correction_fixes_tilt_error_only() {
        let mut f = ComplementaryFilter::new(0.1, 0.0);
        // Seed a 20° roll error while truth is level.
        f.set_attitude(Quat::from_euler(0.35, 0.0, 0.0));
        for _ in 0..2000 {
            f.update(Vec3::ZERO, Some(Vec3::Z * 9.81), None, 0.005);
        }
        let (roll, pitch, _) = f.attitude().to_euler();
        assert!(
            roll.abs() < 0.02 && pitch.abs() < 0.02,
            "tilt remains {roll},{pitch}"
        );
    }

    #[test]
    fn mag_correction_fixes_yaw_error() {
        let mut f = ComplementaryFilter::new(0.0, 0.1);
        f.set_attitude(Quat::from_euler(0.0, 0.0, 0.5));
        for _ in 0..2000 {
            f.update(Vec3::ZERO, None, Some(Vec3::X), 0.005);
        }
        let (_, _, yaw) = f.attitude().to_euler();
        assert!(yaw.abs() < 0.02, "yaw remains {yaw}");
    }

    #[test]
    fn ignores_zero_accel() {
        let mut f = ComplementaryFilter::default();
        f.update(Vec3::ZERO, Some(Vec3::ZERO), Some(Vec3::ZERO), 0.005);
        assert!(f.attitude().angle_to(Quat::IDENTITY) < 1e-12);
    }

    #[test]
    #[should_panic(expected = "accel gain must be in [0,1]")]
    fn invalid_gain_panics() {
        let _ = ComplementaryFilter::new(2.0, 0.0);
    }
}
