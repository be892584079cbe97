//! Wind and gust model.
//!
//! The paper's Table 1 assigns wind gusts, local disturbances and
//! atmospheric turbulence to the inner-loop control. This module produces
//! those disturbances: a constant mean wind plus an Ornstein–Uhlenbeck
//! gust process per axis (a standard low-fidelity Dryden-like turbulence
//! stand-in), deterministic per seed.

use drone_math::{Pcg32, Vec3};

/// Configurable wind field sampled over time.
///
/// # Example
///
/// ```
/// use drone_sim::WindModel;
/// use drone_math::Vec3;
/// let mut wind = WindModel::gusty(Vec3::new(3.0, 0.0, 0.0), 2.0, 42);
/// let w = wind.sample(0.01);
/// assert!(w.is_finite());
/// ```
#[derive(Debug, Clone)]
pub struct WindModel {
    mean: Vec3,
    gust_intensity: f64,
    correlation_time: f64,
    gust: Vec3,
    rng: Pcg32,
}

impl WindModel {
    /// Still air.
    pub fn calm() -> WindModel {
        WindModel::gusty(Vec3::ZERO, 0.0, 0)
    }

    /// Constant wind with no gusts.
    pub fn steady(mean: Vec3) -> WindModel {
        WindModel::gusty(mean, 0.0, 0)
    }

    /// Mean wind plus OU gusts with the given standard deviation (m/s).
    ///
    /// # Panics
    ///
    /// Panics if `gust_intensity` is negative.
    pub fn gusty(mean: Vec3, gust_intensity: f64, seed: u64) -> WindModel {
        assert!(gust_intensity >= 0.0, "gust intensity must be non-negative");
        WindModel {
            mean,
            gust_intensity,
            correlation_time: 1.5,
            gust: Vec3::ZERO,
            rng: Pcg32::seed_from(seed),
        }
    }

    /// Mean wind component.
    pub fn mean(&self) -> Vec3 {
        self.mean
    }

    /// Advances the gust process by `dt` and returns the total wind
    /// velocity (world frame, m/s).
    pub fn sample(&mut self, dt: f64) -> Vec3 {
        if self.gust_intensity > 0.0 {
            // OU update: g ← g·e^(−dt/τ) + σ·√(1−e^(−2dt/τ))·N(0,1).
            let decay = (-dt / self.correlation_time).exp();
            let noise_scale = self.gust_intensity * (1.0 - decay * decay).sqrt();
            self.gust = Vec3::new(
                self.gust.x * decay + noise_scale * self.rng.normal(),
                self.gust.y * decay + noise_scale * self.rng.normal(),
                self.gust.z * decay + noise_scale * 0.3 * self.rng.normal(),
            );
        }
        self.mean + self.gust
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calm_air_is_zero() {
        let mut w = WindModel::calm();
        for _ in 0..100 {
            assert_eq!(w.sample(0.01), Vec3::ZERO);
        }
    }

    #[test]
    fn steady_wind_is_constant() {
        let mean = Vec3::new(4.0, -2.0, 0.0);
        let mut w = WindModel::steady(mean);
        for _ in 0..100 {
            assert_eq!(w.sample(0.01), mean);
        }
    }

    #[test]
    fn gusts_vary_but_average_to_mean() {
        let mean = Vec3::new(5.0, 0.0, 0.0);
        let mut w = WindModel::gusty(mean, 2.0, 7);
        let n = 200_000;
        let mut sum = Vec3::ZERO;
        let mut any_different = false;
        let mut prev = w.sample(0.01);
        for _ in 0..n {
            let s = w.sample(0.01);
            if (s - prev).norm() > 1e-9 {
                any_different = true;
            }
            prev = s;
            sum += s;
        }
        let avg = sum / n as f64;
        assert!(any_different, "gusts should fluctuate");
        assert!((avg - mean).norm() < 0.2, "long-run mean {avg} vs {mean}");
    }

    #[test]
    fn gust_magnitude_tracks_intensity() {
        let mut w = WindModel::gusty(Vec3::ZERO, 3.0, 11);
        let n = 100_000;
        let mut sq = 0.0;
        for _ in 0..n {
            sq += w.sample(0.01).x.powi(2);
        }
        let std = (sq / n as f64).sqrt();
        assert!((std - 3.0).abs() < 0.5, "gust std {std}");
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = WindModel::gusty(Vec3::ZERO, 1.0, 3);
        let mut b = WindModel::gusty(Vec3::ZERO, 1.0, 3);
        for _ in 0..100 {
            assert_eq!(a.sample(0.01), b.sample(0.01));
        }
    }

    #[test]
    #[should_panic(expected = "gust intensity must be non-negative")]
    fn negative_intensity_panics() {
        let _ = WindModel::gusty(Vec3::ZERO, -1.0, 0);
    }
}
