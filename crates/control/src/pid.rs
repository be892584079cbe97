//! The PID primitive used at every level of the hierarchical cascade.
//!
//! The paper (§2.1.3-C) notes the inner loop "extensively uses
//! high-performance hierarchical PID controllers, whose filter response
//! and quality of the estimated state variables defines the drone
//! behavior". This implementation has the three features real flight
//! stacks rely on: integral anti-windup clamping, a first-order low-pass
//! on the derivative term, and symmetric output saturation.

use std::fmt;

/// A single-axis PID controller.
///
/// # Example
///
/// ```
/// use drone_control::Pid;
/// let mut pid = Pid::new(2.0, 0.5, 0.1);
/// let u = pid.step(1.0, 0.01); // error of 1.0 at dt = 10 ms
/// assert!(u > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pid {
    /// Proportional gain.
    pub kp: f64,
    /// Integral gain.
    pub ki: f64,
    /// Derivative gain.
    pub kd: f64,
    integral: f64,
    integral_limit: f64,
    output_limit: f64,
    derivative_tau: f64,
    filtered_derivative: f64,
    prev_error: Option<f64>,
}

impl Pid {
    /// Creates a PID with unbounded output and a sensible anti-windup
    /// limit scaled from the gains.
    ///
    /// # Panics
    ///
    /// Panics if any gain is negative.
    pub fn new(kp: f64, ki: f64, kd: f64) -> Pid {
        assert!(
            kp >= 0.0 && ki >= 0.0 && kd >= 0.0,
            "gains must be non-negative"
        );
        Pid {
            kp,
            ki,
            kd,
            integral: 0.0,
            integral_limit: f64::INFINITY,
            output_limit: f64::INFINITY,
            derivative_tau: 0.0,
            filtered_derivative: 0.0,
            prev_error: None,
        }
    }

    /// Caps `|integral * ki|` contribution at `limit` (anti-windup).
    pub fn with_integral_limit(mut self, limit: f64) -> Pid {
        assert!(limit >= 0.0, "integral limit must be non-negative");
        self.integral_limit = limit;
        self
    }

    /// Caps the controller output symmetrically at ±`limit`.
    pub fn with_output_limit(mut self, limit: f64) -> Pid {
        assert!(limit >= 0.0, "output limit must be non-negative");
        self.output_limit = limit;
        self
    }

    /// Applies a first-order low-pass (time constant `tau` seconds) to the
    /// derivative term, taming sensor noise amplification.
    pub fn with_derivative_filter(mut self, tau: f64) -> Pid {
        assert!(tau >= 0.0, "filter time constant must be non-negative");
        self.derivative_tau = tau;
        self
    }

    /// Advances the controller with the current `error` over `dt` seconds
    /// and returns the control output.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive.
    pub fn step(&mut self, error: f64, dt: f64) -> f64 {
        assert!(dt > 0.0, "dt must be positive, got {dt}");
        // Integral with anti-windup clamp (in output units).
        self.integral += error * dt;
        if self.ki > 0.0 {
            let max_integral = self.integral_limit / self.ki;
            self.integral = self.integral.clamp(-max_integral, max_integral);
        }
        // Derivative on error, low-pass filtered.
        let raw_d = match self.prev_error {
            Some(prev) => (error - prev) / dt,
            None => 0.0,
        };
        self.prev_error = Some(error);
        self.filtered_derivative = if self.derivative_tau > 0.0 {
            let alpha = dt / (self.derivative_tau + dt);
            self.filtered_derivative + alpha * (raw_d - self.filtered_derivative)
        } else {
            raw_d
        };
        let out = self.kp * error + self.ki * self.integral + self.kd * self.filtered_derivative;
        out.clamp(-self.output_limit, self.output_limit)
    }

    /// Clears integral and derivative history (e.g. on mode change).
    pub fn reset(&mut self) {
        self.integral = 0.0;
        self.filtered_derivative = 0.0;
        self.prev_error = None;
    }

    /// Current integral accumulator (for telemetry/testing).
    pub fn integral(&self) -> f64 {
        self.integral
    }
}

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PID(kp={}, ki={}, kd={})", self.kp, self.ki, self.kd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportional_only() {
        let mut pid = Pid::new(2.0, 0.0, 0.0);
        assert!((pid.step(3.0, 0.01) - 6.0).abs() < 1e-12);
        assert!((pid.step(-1.0, 0.01) + 2.0).abs() < 1e-12);
    }

    #[test]
    fn integral_accumulates() {
        let mut pid = Pid::new(0.0, 1.0, 0.0);
        let mut out = 0.0;
        for _ in 0..100 {
            out = pid.step(1.0, 0.01);
        }
        // ∫1 dt over 1 s = 1.
        assert!((out - 1.0).abs() < 1e-9);
    }

    #[test]
    fn integral_clamps_at_limit() {
        let mut pid = Pid::new(0.0, 1.0, 0.0).with_integral_limit(0.5);
        let mut out = 0.0;
        for _ in 0..10_000 {
            out = pid.step(1.0, 0.01);
        }
        assert!((out - 0.5).abs() < 1e-9, "windup not clamped: {out}");
    }

    #[test]
    fn derivative_responds_to_change() {
        let mut pid = Pid::new(0.0, 0.0, 1.0);
        pid.step(0.0, 0.01);
        let out = pid.step(0.1, 0.01);
        assert!((out - 10.0).abs() < 1e-9, "d(0.1)/0.01 = 10: {out}");
    }

    #[test]
    fn first_step_has_no_derivative_kick() {
        let mut pid = Pid::new(0.0, 0.0, 5.0);
        assert_eq!(pid.step(100.0, 0.01), 0.0);
    }

    #[test]
    fn derivative_filter_attenuates_noise() {
        let mut raw = Pid::new(0.0, 0.0, 1.0);
        let mut filt = Pid::new(0.0, 0.0, 1.0).with_derivative_filter(0.1);
        let mut raw_max: f64 = 0.0;
        let mut filt_max: f64 = 0.0;
        for i in 0..100 {
            let noise = if i % 2 == 0 { 0.01 } else { -0.01 };
            raw_max = raw_max.max(raw.step(noise, 0.001).abs());
            filt_max = filt_max.max(filt.step(noise, 0.001).abs());
        }
        assert!(
            filt_max < raw_max / 3.0,
            "filtered {filt_max} vs raw {raw_max}"
        );
    }

    #[test]
    fn output_limit_saturates() {
        let mut pid = Pid::new(100.0, 0.0, 0.0).with_output_limit(1.0);
        assert_eq!(pid.step(10.0, 0.01), 1.0);
        assert_eq!(pid.step(-10.0, 0.01), -1.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut pid = Pid::new(1.0, 1.0, 1.0);
        for _ in 0..100 {
            pid.step(1.0, 0.01);
        }
        assert!(pid.integral() > 0.0);
        pid.reset();
        assert_eq!(pid.integral(), 0.0);
        // First post-reset step has no derivative kick.
        assert!((pid.step(1.0, 0.01) - (1.0 + 0.01)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "gains must be non-negative")]
    fn negative_gain_panics() {
        let _ = Pid::new(-1.0, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn zero_dt_panics() {
        Pid::new(1.0, 0.0, 0.0).step(1.0, 0.0);
    }
}
