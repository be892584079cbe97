//! Airframe model (paper §3.1, Figure 8b).
//!
//! The *wheelbase* — the diagonal motor-to-motor distance — is the frame's
//! defining parameter: it caps the propeller diameter and correlates with
//! weight even in carbon/glass-fiber construction. The paper fits
//! `w = 1.2767·wb − 167.6` for wheelbases above 200 mm from 25 commercial
//! frames, with sub-200 mm frames scattering between 50 g and 200 g.

use crate::units::{Grams, Millimeters};
use std::fmt;

/// A quadcopter airframe.
///
/// # Example
///
/// ```
/// use drone_components::frame::Frame;
/// use drone_components::units::Millimeters;
/// let f = Frame::from_model(Millimeters(450.0));
/// assert!((f.weight.0 - (1.2767 * 450.0 - 167.6)).abs() < 1e-9);
/// assert!((f.max_propeller_inches() - 10.0).abs() < 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Frame {
    /// Diagonal wheelbase.
    pub wheelbase: Millimeters,
    /// Bare frame weight (no electronics).
    pub weight: Grams,
}

impl Frame {
    /// Creates a frame with an explicit weight.
    ///
    /// # Panics
    ///
    /// Panics if wheelbase or weight are not positive.
    pub fn new(wheelbase: Millimeters, weight: Grams) -> Frame {
        assert!(wheelbase.0 > 0.0, "wheelbase must be positive");
        assert!(weight.0 > 0.0, "weight must be positive");
        Frame { wheelbase, weight }
    }

    /// Creates a frame whose weight follows the paper's Figure 8b line
    /// (above 200 mm) or the midpoint of its sub-200 mm scatter band.
    pub fn from_model(wheelbase: Millimeters) -> Frame {
        let weight = if wheelbase.0 > 200.0 {
            crate::paper::frame_weight_fit().predict(wheelbase.0)
        } else {
            // Small frames scatter in the paper's 50–200 g band; take a
            // monotonic path from the band floor up to where the >200 mm
            // line picks up, so sweeps across the boundary stay smooth.
            let (lo, _) = crate::paper::SMALL_FRAME_WEIGHT_RANGE;
            let at_200 = crate::paper::frame_weight_fit().predict(200.0);
            let t = (wheelbase.0 / 200.0).clamp(0.0, 1.0);
            lo + (at_200 - lo).max(0.0) * t
        };
        Frame::new(wheelbase, Grams(weight.max(20.0)))
    }

    /// Maximum propeller diameter this wheelbase can swing without blade
    /// overlap, in inches. Standard pairings (paper Figure 9 legend):
    /// 50 mm → 1", 100 mm → 2", 200 mm → 5", 450 mm → 10", 800 mm → 20".
    pub fn max_propeller_inches(&self) -> f64 {
        // Props on a quad sit on a square of side wb/√2; allowing ~90 % of
        // that pitch as diameter reproduces the standard pairings.
        let arm_pitch_mm = self.wheelbase.0 / std::f64::consts::SQRT_2;
        let d = arm_pitch_mm * 0.90 / 25.4;
        // Commercial props come in discrete sizes; keep continuous but
        // never below 1 inch.
        d.max(1.0)
    }

    /// Whether this frame is an indoor-class airframe (paper: indoor
    /// drones have wheelbases under 100 mm).
    pub fn is_indoor(&self) -> bool {
        self.wheelbase.0 < 100.0
    }
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.0} mm frame ({})", self.wheelbase.0, self.weight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_model_matches_fig8b_above_200mm() {
        for wb in [250.0, 450.0, 800.0, 1000.0] {
            let f = Frame::from_model(Millimeters(wb));
            assert!((f.weight.0 - (1.2767 * wb - 167.6)).abs() < 1e-9, "wb {wb}");
        }
    }

    #[test]
    fn small_frames_in_band() {
        for wb in [50.0, 100.0, 150.0, 200.0] {
            let f = Frame::from_model(Millimeters(wb));
            assert!(
                (20.0..=200.0).contains(&f.weight.0),
                "wb {wb} weight {}",
                f.weight
            );
        }
    }

    #[test]
    fn standard_prop_pairings() {
        // Paper Figure 9 legend pairings, tolerance ±30 %.
        for (wb, inches) in [
            (50.0, 1.0),
            (100.0, 2.0),
            (200.0, 5.0),
            (450.0, 10.0),
            (800.0, 20.0),
        ] {
            let d = Frame::from_model(Millimeters(wb)).max_propeller_inches();
            assert!(
                (d - inches).abs() / inches < 0.35,
                "wb {wb}: got {d:.1}\", expected ≈{inches}\""
            );
        }
    }

    #[test]
    fn weight_monotonic_in_wheelbase() {
        let mut prev = 0.0;
        for wb in (50..=1000).step_by(50) {
            let w = Frame::from_model(Millimeters(wb as f64)).weight.0;
            assert!(w >= prev, "non-monotonic at {wb}");
            prev = w;
        }
    }

    #[test]
    fn indoor_classification() {
        assert!(Frame::from_model(Millimeters(80.0)).is_indoor());
        assert!(!Frame::from_model(Millimeters(100.0)).is_indoor());
    }

    #[test]
    #[should_panic(expected = "wheelbase must be positive")]
    fn zero_wheelbase_panics() {
        let _ = Frame::new(Millimeters(0.0), Grams(100.0));
    }
}
