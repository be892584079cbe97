//! The paper's own open-source 450 mm drone (§4, Figure 14).
//!
//! A concrete reference point inside the design space: Navio2 + RPi on a
//! Crazepony F450-class frame, 3000 mAh 3S pack, MT2213-935Kv motors.
//! The module reproduces the Figure 14 weight breakdown and checks it
//! against the general sizing model.

use crate::design::{DesignSpec, SizedDrone};
use drone_components::battery::CellCount;
use drone_components::paper::our_drone_weight_breakdown;
use drone_components::units::{Grams, MilliampHours, Watts};

/// Figure 14, as shares of total weight.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightShare {
    /// Component label.
    pub component: String,
    /// Weight, g.
    pub grams: f64,
    /// Share of total, `0..=1`.
    pub share: f64,
}

/// The published Figure 14 breakdown with computed shares.
pub fn figure14_shares() -> Vec<WeightShare> {
    let rows = our_drone_weight_breakdown();
    let total: f64 = rows.iter().map(|(_, w)| w.0).sum();
    rows.into_iter()
        .map(|(component, w)| WeightShare {
            component: component.to_owned(),
            grams: w.0,
            share: w.0 / total,
        })
        .collect()
}

/// Total weight of the paper's drone, g.
pub fn paper_drone_total() -> Grams {
    Grams(our_drone_weight_breakdown().iter().map(|(_, w)| w.0).sum())
}

/// Sizes the paper's drone through the general model: same frame class,
/// battery, and avionics payload (RPi 50 g / Navio2 23 g plus GPS, RC,
/// telemetry, power module, PPM ≈ 106 g of sensors/accessories).
pub fn model_papers_drone() -> SizedDrone {
    DesignSpec::new(450.0, CellCount::S3, MilliampHours(3000.0))
        .with_compute(Grams(73.0), Watts(5.25)) // RPi + Navio2
        .with_sensors(Grams(106.0), Watts(1.5)) // GPS, RC, telemetry, PM, PPM
        .size()
        .expect("the paper's own drone must be feasible")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure14_shares_match_paper_percentages() {
        let shares = figure14_shares();
        let get = |name: &str| shares.iter().find(|s| s.component == name).unwrap();
        // Paper: frame 25 %, battery 23 %, motors 21 %, ESC 10 %.
        assert!(
            (get("Frame").share - 0.25).abs() < 0.02,
            "{}",
            get("Frame").share
        );
        assert!(
            (get("Battery").share - 0.23).abs() < 0.02,
            "{}",
            get("Battery").share
        );
        assert!(
            (get("Motors").share - 0.21).abs() < 0.02,
            "{}",
            get("Motors").share
        );
        assert!(
            (get("ESC").share - 0.10).abs() < 0.02,
            "{}",
            get("ESC").share
        );
    }

    #[test]
    fn shares_sum_to_one() {
        let total: f64 = figure14_shares().iter().map(|s| s.share).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn model_reproduces_the_papers_build() {
        // The generic sizing model should land within ~20 % of the real
        // 1071 g build given the same major inputs.
        let modeled = model_papers_drone();
        let real = paper_drone_total();
        let rel = (modeled.total_weight.0 - real.0).abs() / real.0;
        assert!(
            rel < 0.25,
            "model {} vs real {} ({rel:.2})",
            modeled.total_weight,
            real
        );
    }

    #[test]
    fn model_motor_class_matches() {
        // MT2213-935Kv class on 3S.
        let modeled = model_papers_drone();
        assert!(
            (500.0..1600.0).contains(&modeled.motor.kv_rpm_per_volt),
            "Kv {}",
            modeled.motor.kv_rpm_per_volt
        );
        // 30 A ESC class in the build guide; model should demand less.
        assert!(
            modeled.max_motor_current().0 < 30.0,
            "{}",
            modeled.max_motor_current()
        );
    }

    #[test]
    fn payload_capacity_positive() {
        // §4: the drone carries 200 g of additional payload. Verify a
        // 200 g payload keeps the design feasible at TWR ≥ 2.
        let with_payload = DesignSpec::new(450.0, CellCount::S3, MilliampHours(3000.0))
            .with_compute(Grams(73.0), Watts(5.25))
            .with_sensors(Grams(106.0), Watts(1.5))
            .with_payload(Grams(200.0))
            .size()
            .expect("payload-carrying design feasible");
        assert!(with_payload.thrust_to_weight() >= 1.95);
    }
}
