//! Position/velocity Kalman filter.
//!
//! Six states `[p, v]` propagated with the attitude-resolved accelerometer
//! as control input (the nonlinear attitude path is what makes the
//! composite pipeline an *extended* KF), corrected by GPS position and
//! barometric altitude at their Table 2a rates. Implemented with the
//! workspace's own dense-matrix kernels.

use drone_math::{Matrix, Vec3};

/// Navigation filter state and covariance.
///
/// # Example
///
/// ```
/// use drone_estimation::NavigationEkf;
/// use drone_math::Vec3;
/// let mut ekf = NavigationEkf::new();
/// ekf.predict(Vec3::ZERO, 0.005);
/// ekf.update_gps(Vec3::new(1.0, 0.0, 5.0));
/// assert!(ekf.position().x > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NavigationEkf {
    /// State `[px, py, pz, vx, vy, vz]`.
    x: Matrix,
    /// Covariance, 6×6.
    p: Matrix,
    /// Process noise on acceleration, (m/s²)².
    accel_var: f64,
    /// GPS horizontal measurement variance, m².
    gps_var_xy: f64,
    /// GPS vertical measurement variance, m².
    gps_var_z: f64,
    /// Barometer variance, m².
    baro_var: f64,
    /// Innovation (NIS) gating: reject measurements whose normalized
    /// innovation squared exceeds the χ² 99.9 % quantile for the
    /// measurement dimension. Off by default — a cold-started filter
    /// legitimately sees huge innovations until it converges.
    gate_enabled: bool,
    /// Measurements fused since construction.
    accepted: u64,
    /// Measurements rejected by the gate since construction.
    rejected: u64,
    /// Consecutive rejections; drives covariance-inflation recovery.
    reject_streak: u32,
    /// Normalized innovation squared of the most recent measurement
    /// (0 until the first one). Computed whether or not the gate is
    /// enabled — it is the primary filter-consistency diagnostic.
    last_nis: f64,
}

/// χ² 99.9 % quantiles by degrees of freedom (1..=3).
const CHI2_999: [f64; 3] = [10.83, 13.82, 16.27];

/// Consecutive rejections before the filter concludes it is confidently
/// wrong (rather than the sensor being faulty) and inflates `P` to let
/// measurements back in.
const REJECT_STREAK_LIMIT: u32 = 25;

impl NavigationEkf {
    /// Creates a filter at the origin with broad initial uncertainty.
    pub fn new() -> NavigationEkf {
        NavigationEkf {
            x: Matrix::zeros(6, 1),
            p: Matrix::from_diagonal(&[25.0, 25.0, 25.0, 4.0, 4.0, 4.0]),
            // The dominant "process noise" is not IMU white noise but the
            // attitude-estimate error leaking gravity into the resolved
            // acceleration (±g·sinθ̃, easily ~2 m/s² during maneuvers).
            // Underestimating it makes the filter overconfident: GPS
            // innovations get discounted and the position estimate lags
            // badly at speed.
            accel_var: 2.0,
            gps_var_xy: 0.5,
            gps_var_z: 2.0,
            baro_var: 0.05,
            gate_enabled: false,
            accepted: 0,
            rejected: 0,
            reject_streak: 0,
            last_nis: 0.0,
        }
    }

    /// Enables or disables innovation (NIS) gating.
    pub fn set_innovation_gating(&mut self, enabled: bool) {
        self.gate_enabled = enabled;
    }

    /// Whether innovation gating is active.
    pub fn innovation_gating(&self) -> bool {
        self.gate_enabled
    }

    /// Measurements fused since construction.
    pub fn innovations_accepted(&self) -> u64 {
        self.accepted
    }

    /// Measurements rejected by the gate since construction.
    pub fn innovations_rejected(&self) -> u64 {
        self.rejected
    }

    /// NIS (normalized innovation squared, `νᵀS⁻¹ν`) of the most recent
    /// measurement; 0 until one arrives. A healthy measurement follows a
    /// χ² distribution with the measurement's degrees of freedom, so
    /// sustained large values flag filter inconsistency long before the
    /// position estimate visibly diverges.
    pub fn last_nis(&self) -> f64 {
        self.last_nis
    }

    /// Position estimate.
    pub fn position(&self) -> Vec3 {
        Vec3::new(self.x[(0, 0)], self.x[(1, 0)], self.x[(2, 0)])
    }

    /// Velocity estimate.
    pub fn velocity(&self) -> Vec3 {
        Vec3::new(self.x[(3, 0)], self.x[(4, 0)], self.x[(5, 0)])
    }

    /// Position variance trace (uncertainty scalar for diagnostics).
    pub fn position_uncertainty(&self) -> f64 {
        self.p[(0, 0)] + self.p[(1, 1)] + self.p[(2, 2)]
    }

    /// Forces the state (initialization) and collapses the covariance to
    /// a confident prior — a known starting pose should not be dragged
    /// around by the first noisy fix.
    pub fn set_state(&mut self, position: Vec3, velocity: Vec3) {
        for (i, v) in position.to_array().into_iter().enumerate() {
            self.x[(i, 0)] = v;
        }
        for (i, v) in velocity.to_array().into_iter().enumerate() {
            self.x[(i + 3, 0)] = v;
        }
        self.p = Matrix::from_diagonal(&[0.1, 0.1, 0.1, 0.05, 0.05, 0.05]);
    }

    /// Propagates the state with the world-frame acceleration input
    /// (gravity already removed) over `dt` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive.
    pub fn predict(&mut self, accel_world: Vec3, dt: f64) {
        assert!(dt > 0.0, "dt must be positive");
        // x ← F x + B a with F = [I, dt·I; 0, I].
        for i in 0..3 {
            let a = accel_world[i];
            let v = self.x[(i + 3, 0)];
            self.x[(i, 0)] += v * dt + 0.5 * a * dt * dt;
            self.x[(i + 3, 0)] += a * dt;
        }
        // P ← F P Fᵀ + Q with white-acceleration process noise.
        let mut f = Matrix::identity(6);
        for i in 0..3 {
            f[(i, i + 3)] = dt;
        }
        let mut q = Matrix::zeros(6, 6);
        let q_pp = 0.25 * dt.powi(4) * self.accel_var;
        let q_pv = 0.5 * dt.powi(3) * self.accel_var;
        let q_vv = dt * dt * self.accel_var;
        for i in 0..3 {
            q[(i, i)] = q_pp;
            q[(i, i + 3)] = q_pv;
            q[(i + 3, i)] = q_pv;
            q[(i + 3, i + 3)] = q_vv;
        }
        self.p = &f.matmul(&self.p).matmul(&f.transpose()) + &q;
        self.p.symmetrize();
    }

    /// Generic linear measurement update. Returns whether the
    /// measurement was fused (`false` = rejected by the innovation gate
    /// or numerically degenerate).
    fn update(&mut self, h: &Matrix, z: &Matrix, r: &Matrix) -> bool {
        let ht = h.transpose();
        let s = &h.matmul(&self.p).matmul(&ht) + r;
        let Some(s_inv) = s.inverse() else {
            return false; // numerically degenerate innovation; skip the update
        };
        let innovation = z - &h.matmul(&self.x);
        // NIS = νᵀ S⁻¹ ν ~ χ²(dof) for a healthy measurement. Tracked
        // unconditionally as the consistency diagnostic; the gate only
        // decides whether to act on it.
        let nis = innovation.transpose().matmul(&s_inv).matmul(&innovation)[(0, 0)];
        self.last_nis = nis;
        if self.gate_enabled {
            let dof = h.rows().min(CHI2_999.len());
            if nis > CHI2_999[dof - 1] {
                self.rejected += 1;
                self.reject_streak += 1;
                if self.reject_streak >= REJECT_STREAK_LIMIT {
                    // Every recent measurement looks like an outlier: the
                    // filter, not the sensors, is the likelier culprit.
                    // Inflate the covariance so the gate reopens and the
                    // next measurements pull the state back.
                    self.p = self.p.scale(10.0);
                    self.p.symmetrize();
                    self.reject_streak = 0;
                }
                return false;
            }
            self.reject_streak = 0;
        }
        self.accepted += 1;
        let k = self.p.matmul(&ht).matmul(&s_inv);
        self.x = &self.x + &k.matmul(&innovation);
        // Joseph-free form: P ← (I − K H) P, re-symmetrized.
        let ikh = &Matrix::identity(6) - &k.matmul(h);
        self.p = ikh.matmul(&self.p);
        self.p.symmetrize();
        true
    }

    /// Fuses a GPS position fix. Returns whether it passed the gate.
    pub fn update_gps(&mut self, position: Vec3) -> bool {
        let mut h = Matrix::zeros(3, 6);
        h[(0, 0)] = 1.0;
        h[(1, 1)] = 1.0;
        h[(2, 2)] = 1.0;
        let z = Matrix::column(&position.to_array());
        let r = Matrix::from_diagonal(&[self.gps_var_xy, self.gps_var_xy, self.gps_var_z]);
        self.update(&h, &z, &r)
    }

    /// Fuses a GPS Doppler velocity measurement. Returns whether it
    /// passed the gate.
    pub fn update_gps_velocity(&mut self, velocity: Vec3) -> bool {
        let mut h = Matrix::zeros(3, 6);
        h[(0, 3)] = 1.0;
        h[(1, 4)] = 1.0;
        h[(2, 5)] = 1.0;
        let z = Matrix::column(&velocity.to_array());
        let r = Matrix::from_diagonal(&[0.05, 0.05, 0.05]);
        self.update(&h, &z, &r)
    }

    /// Fuses a barometric altitude. Returns whether it passed the gate.
    pub fn update_baro(&mut self, altitude: f64) -> bool {
        let mut h = Matrix::zeros(1, 6);
        h[(0, 2)] = 1.0;
        let z = Matrix::column(&[altitude]);
        let r = Matrix::from_diagonal(&[self.baro_var]);
        self.update(&h, &z, &r)
    }
}

impl Default for NavigationEkf {
    fn default() -> Self {
        NavigationEkf::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drone_math::Pcg32;

    #[test]
    fn converges_on_static_target() {
        let mut ekf = NavigationEkf::new();
        let truth = Vec3::new(10.0, -5.0, 30.0);
        let mut rng = Pcg32::seed_from(1);
        for i in 0..2000 {
            ekf.predict(Vec3::ZERO, 0.005);
            if i % 20 == 0 {
                let noisy = truth
                    + Vec3::new(
                        rng.normal_with(0.0, 0.5),
                        rng.normal_with(0.0, 0.5),
                        rng.normal_with(0.0, 1.0),
                    );
                ekf.update_gps(noisy);
            }
            if i % 10 == 0 {
                ekf.update_baro(truth.z + rng.normal_with(0.0, 0.15));
            }
        }
        let err = (ekf.position() - truth).norm();
        assert!(err < 0.5, "position error {err}");
        assert!(
            ekf.velocity().norm() < 0.3,
            "phantom velocity {}",
            ekf.velocity()
        );
    }

    #[test]
    fn uncertainty_shrinks_with_measurements() {
        let mut ekf = NavigationEkf::new();
        let u0 = ekf.position_uncertainty();
        for _ in 0..20 {
            ekf.predict(Vec3::ZERO, 0.01);
            ekf.update_gps(Vec3::ZERO);
        }
        assert!(ekf.position_uncertainty() < u0 / 10.0);
    }

    #[test]
    fn uncertainty_grows_during_dead_reckoning() {
        let mut ekf = NavigationEkf::new();
        for _ in 0..50 {
            ekf.predict(Vec3::ZERO, 0.01);
            ekf.update_gps(Vec3::ZERO);
        }
        let settled = ekf.position_uncertainty();
        for _ in 0..1000 {
            ekf.predict(Vec3::ZERO, 0.01);
        }
        assert!(ekf.position_uncertainty() > settled * 1.5);
    }

    #[test]
    fn tracks_constant_velocity_motion() {
        let mut ekf = NavigationEkf::new();
        let vel = Vec3::new(2.0, 0.0, 0.5);
        let mut rng = Pcg32::seed_from(2);
        let dt = 0.005;
        for i in 0..4000 {
            ekf.predict(Vec3::ZERO, dt);
            let t = (i + 1) as f64 * dt;
            let truth = vel * t;
            if i % 20 == 0 {
                ekf.update_gps(truth + Vec3::new(rng.normal_with(0.0, 0.5), 0.0, 0.0));
            }
        }
        let v_err = (ekf.velocity() - vel).norm();
        assert!(v_err < 0.3, "velocity error {v_err}");
    }

    #[test]
    fn accel_input_is_integrated() {
        let mut ekf = NavigationEkf::new();
        // 1 m/s² along X for 2 s → v = 2 m/s, p = 2 m.
        for _ in 0..400 {
            ekf.predict(Vec3::X, 0.005);
        }
        assert!((ekf.velocity().x - 2.0).abs() < 1e-9);
        assert!((ekf.position().x - 2.0).abs() < 0.01);
    }

    #[test]
    fn baro_only_fixes_altitude() {
        let mut ekf = NavigationEkf::new();
        ekf.set_state(Vec3::new(3.0, 3.0, 0.0), Vec3::ZERO);
        for _ in 0..200 {
            ekf.predict(Vec3::ZERO, 0.01);
            ekf.update_baro(10.0);
        }
        assert!((ekf.position().z - 10.0).abs() < 0.2);
        // Horizontal state untouched by baro.
        assert!((ekf.position().x - 3.0).abs() < 0.1);
    }

    #[test]
    fn set_state_roundtrip() {
        let mut ekf = NavigationEkf::new();
        ekf.set_state(Vec3::new(1.0, 2.0, 3.0), Vec3::new(-1.0, 0.0, 0.5));
        assert_eq!(ekf.position(), Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(ekf.velocity(), Vec3::new(-1.0, 0.0, 0.5));
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn zero_dt_predict_panics() {
        NavigationEkf::new().predict(Vec3::ZERO, 0.0);
    }

    /// An EKF settled confidently at the origin.
    fn settled_at_origin() -> NavigationEkf {
        let mut ekf = NavigationEkf::new();
        for _ in 0..100 {
            ekf.predict(Vec3::ZERO, 0.01);
            ekf.update_gps(Vec3::ZERO);
            ekf.update_baro(0.0);
        }
        ekf
    }

    #[test]
    fn gate_is_off_by_default() {
        let ekf = NavigationEkf::new();
        assert!(!ekf.innovation_gating());
        assert_eq!(ekf.innovations_rejected(), 0);
        assert_eq!(ekf.last_nis(), 0.0);
    }

    #[test]
    fn nis_is_tracked_even_without_gating() {
        let mut ekf = settled_at_origin();
        assert!(!ekf.innovation_gating());
        // A nominal fix: small NIS.
        ekf.update_gps(Vec3::new(0.1, 0.0, 0.0));
        let nominal = ekf.last_nis();
        assert!(
            nominal > 0.0 && nominal < CHI2_999[2],
            "nominal NIS {nominal}"
        );
        // A gross outlier: NIS explodes (and, ungated, still fuses).
        ekf.update_gps(Vec3::new(100.0, 0.0, 0.0));
        assert!(
            ekf.last_nis() > CHI2_999[2],
            "outlier NIS {}",
            ekf.last_nis()
        );
    }

    #[test]
    fn gate_rejects_gross_outliers() {
        let mut ekf = settled_at_origin();
        ekf.set_innovation_gating(true);
        let before = ekf.position();
        // A 100 m multipath spike: NIS is astronomically over the χ²
        // threshold; the fix must bounce off the gate.
        assert!(!ekf.update_gps(Vec3::new(100.0, 0.0, 0.0)));
        assert_eq!(ekf.innovations_rejected(), 1);
        assert!(
            (ekf.position() - before).norm() < 1e-12,
            "rejected fix must not move the state"
        );
        // A plausible fix still fuses.
        assert!(ekf.update_gps(Vec3::new(0.1, 0.0, 0.0)));
    }

    #[test]
    fn gate_accepts_nominal_measurements() {
        let mut ekf = settled_at_origin();
        ekf.set_innovation_gating(true);
        let mut rng = Pcg32::seed_from(7);
        let mut rejected = 0;
        for _ in 0..200 {
            ekf.predict(Vec3::ZERO, 0.01);
            let noisy = Vec3::new(
                rng.normal_with(0.0, 0.5),
                rng.normal_with(0.0, 0.5),
                rng.normal_with(0.0, 1.0),
            );
            if !ekf.update_gps(noisy) {
                rejected += 1;
            }
        }
        // 99.9 % gate: essentially everything sane passes.
        assert!(rejected <= 2, "rejected {rejected} of 200 nominal fixes");
    }

    #[test]
    fn covariance_inflation_recovers_from_a_persistent_offset() {
        // The vehicle is "teleported" (filter divergence scenario): every
        // honest fix now looks like an outlier. The rejection-streak
        // inflation must reopen the gate and let the filter re-converge
        // instead of dead-reckoning forever.
        let mut ekf = settled_at_origin();
        ekf.set_innovation_gating(true);
        let truth = Vec3::new(50.0, 0.0, 0.0);
        for _ in 0..300 {
            ekf.predict(Vec3::ZERO, 0.01);
            ekf.update_gps(truth);
        }
        assert!(
            ekf.innovations_rejected() > 0,
            "the jump must first be gated"
        );
        let err = (ekf.position() - truth).norm();
        assert!(
            err < 1.0,
            "filter stuck {err} m away after inflation recovery"
        );
    }
}
