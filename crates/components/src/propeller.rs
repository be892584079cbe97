//! Propeller aerodynamics (paper §2.3 "Thrust Per Motor").
//!
//! Thrust and shaft power follow the standard non-dimensional propeller
//! relations with rotation rate `n` in rev/s and diameter `D` in metres:
//!
//! ```text
//! T = Ct · ρ · n² · D⁴        P = Cp · ρ · n³ · D⁵
//! ```
//!
//! `Ct` grows with pitch (a coarser blade moves more air per revolution);
//! `Cp` follows from momentum theory through the figure of merit. A
//! propeller with a larger diameter and pitch produces more thrust per
//! revolution but demands more torque, which is why large frames pair low-
//! Kv motors with big props (paper Figure 9 discussion).

use crate::units::Grams;
use std::fmt;

/// Sea-level air density, kg/m³.
pub const AIR_DENSITY: f64 = 1.225;

/// Hover figure of merit for hobby-grade props (ideal = 1.0).
pub const FIGURE_OF_MERIT: f64 = 0.65;

/// A fixed-pitch propeller.
///
/// # Example
///
/// ```
/// use drone_components::propeller::Propeller;
/// let p = Propeller::new(10.0, 4.5); // the classic "1045" prop
/// let thrust = p.thrust_newtons(100.0); // at 6000 RPM
/// assert!(thrust > 4.0 && thrust < 9.0, "thrust {thrust}");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Propeller {
    /// Diameter in inches (the unit props are sold in).
    pub diameter_in: f64,
    /// Pitch in inches (forward travel per revolution).
    pub pitch_in: f64,
    /// Weight of a single propeller.
    pub weight: Grams,
}

impl Propeller {
    /// Creates a propeller with a typical pitch-derived weight.
    ///
    /// # Panics
    ///
    /// Panics if diameter or pitch are not positive.
    pub fn new(diameter_in: f64, pitch_in: f64) -> Propeller {
        assert!(diameter_in > 0.0, "diameter must be positive");
        assert!(pitch_in > 0.0, "pitch must be positive");
        // Empirical weight scaling: ≈0.1 g per in², matching ~10 g for a
        // 10" prop and ~40 g for a 20" prop.
        let weight = Grams(0.1 * diameter_in * diameter_in);
        Propeller {
            diameter_in,
            pitch_in,
            weight,
        }
    }

    /// A conventional prop for the given diameter: pitch ≈ 0.45 × diameter
    /// (e.g. the ubiquitous 10×4.5).
    pub fn standard(diameter_in: f64) -> Propeller {
        Propeller::new(diameter_in, 0.45 * diameter_in)
    }

    /// Diameter in metres.
    pub fn diameter_m(&self) -> f64 {
        self.diameter_in * 0.0254
    }

    /// Disk area in m².
    pub fn disk_area(&self) -> f64 {
        let r = self.diameter_m() / 2.0;
        std::f64::consts::PI * r * r
    }

    /// Dimensionless thrust coefficient `Ct` (rev/s convention).
    pub fn thrust_coefficient(&self) -> f64 {
        0.09 + 0.04 * (self.pitch_in / self.diameter_in)
    }

    /// Dimensionless power coefficient `Cp` from momentum theory with the
    /// hover figure of merit: `Cp = Ct^1.5 / (√2 · FM)`.
    pub fn power_coefficient(&self) -> f64 {
        self.thrust_coefficient().powf(1.5) / (std::f64::consts::SQRT_2 * FIGURE_OF_MERIT)
    }

    /// Static thrust (N) at `rev_per_s` revolutions per second.
    pub fn thrust_newtons(&self, rev_per_s: f64) -> f64 {
        self.thrust_coefficient() * AIR_DENSITY * rev_per_s * rev_per_s * self.diameter_m().powi(4)
    }

    /// Shaft power (W) at `rev_per_s`.
    pub fn shaft_power_watts(&self, rev_per_s: f64) -> f64 {
        self.power_coefficient() * AIR_DENSITY * rev_per_s.powi(3) * self.diameter_m().powi(5)
    }

    /// Shaft torque (N·m) at `rev_per_s` (`Q = P / ω`).
    pub fn torque_nm(&self, rev_per_s: f64) -> f64 {
        if rev_per_s <= 0.0 {
            return 0.0;
        }
        self.shaft_power_watts(rev_per_s) / (2.0 * std::f64::consts::PI * rev_per_s)
    }

    /// Rotation rate (rev/s) needed for a given thrust (N).
    ///
    /// # Panics
    ///
    /// Panics if `thrust_n` is negative.
    pub fn rev_per_s_for_thrust(&self, thrust_n: f64) -> f64 {
        assert!(thrust_n >= 0.0, "thrust must be non-negative");
        (thrust_n / (self.thrust_coefficient() * AIR_DENSITY * self.diameter_m().powi(4))).sqrt()
    }
}

impl fmt::Display for Propeller {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.0}x{:.1} prop ({})",
            self.diameter_in, self.pitch_in, self.weight
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thrust_scales_quadratically_with_rpm() {
        let p = Propeller::standard(10.0);
        let t1 = p.thrust_newtons(50.0);
        let t2 = p.thrust_newtons(100.0);
        assert!((t2 / t1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn power_scales_cubically_with_rpm() {
        let p = Propeller::standard(10.0);
        let a = p.shaft_power_watts(50.0);
        let b = p.shaft_power_watts(100.0);
        assert!((b / a - 8.0).abs() < 1e-9);
    }

    #[test]
    fn bigger_props_need_less_rpm_for_same_thrust() {
        let small = Propeller::standard(5.0);
        let big = Propeller::standard(10.0);
        let t = 5.0;
        assert!(big.rev_per_s_for_thrust(t) < small.rev_per_s_for_thrust(t));
    }

    #[test]
    fn bigger_props_are_more_efficient_at_same_thrust() {
        // Fundamental rotor physics: power for fixed thrust falls with
        // disk area (P ∝ T^1.5/√(2ρA)); drives the paper's motor-Kv trend.
        let small = Propeller::standard(5.0);
        let big = Propeller::standard(10.0);
        let t = 3.0;
        let p_small = small.shaft_power_watts(small.rev_per_s_for_thrust(t));
        let p_big = big.shaft_power_watts(big.rev_per_s_for_thrust(t));
        assert!(p_big < p_small);
    }

    #[test]
    fn rev_for_thrust_roundtrip() {
        let p = Propeller::standard(8.0);
        let n = p.rev_per_s_for_thrust(4.2);
        assert!((p.thrust_newtons(n) - 4.2).abs() < 1e-9);
    }

    #[test]
    fn classic_1045_hover_numbers_are_realistic() {
        // An MT2213-class motor with a 1045 prop hovers a 1.2 kg quad at
        // ≈3 N/motor; the shaft power should be tens of watts.
        let p = Propeller::new(10.0, 4.5);
        let n = p.rev_per_s_for_thrust(2.94);
        let rpm = n * 60.0;
        assert!((3000.0..8000.0).contains(&rpm), "rpm {rpm}");
        let watts = p.shaft_power_watts(n);
        assert!((10.0..40.0).contains(&watts), "power {watts}");
    }

    #[test]
    fn torque_consistent_with_power() {
        let p = Propeller::standard(10.0);
        let n = 80.0;
        let q = p.torque_nm(n);
        assert!((q * 2.0 * std::f64::consts::PI * n - p.shaft_power_watts(n)).abs() < 1e-9);
        assert_eq!(p.torque_nm(0.0), 0.0);
    }

    #[test]
    fn coefficients_in_literature_range() {
        for d in [2.0, 5.0, 10.0, 20.0] {
            let p = Propeller::standard(d);
            assert!((0.08..0.15).contains(&p.thrust_coefficient()));
            assert!((0.02..0.07).contains(&p.power_coefficient()));
        }
    }

    #[test]
    #[should_panic(expected = "diameter must be positive")]
    fn invalid_diameter_panics() {
        let _ = Propeller::new(0.0, 4.0);
    }
}
