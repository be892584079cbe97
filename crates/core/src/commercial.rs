//! Validation against commercial drones (Figure 10 diamonds, Figure 11).
//!
//! The paper verifies its model by overlaying released commercial specs:
//! a drone's average flight power is derivable from its battery and
//! advertised flight time, and should land on the model's power/weight
//! curve. Figure 11 then studies six nano/micro drones: hover power,
//! maneuver power, flight time, and the share a heavy-computation load
//! (vision/SLAM) would take.

use drone_components::paper::{figure11_drones, CommercialDrone};
use drone_components::units::Watts;

/// A commercial drone converted into model terms.
#[derive(Debug, Clone, PartialEq)]
pub struct CommercialPoint {
    /// Product name.
    pub name: String,
    /// Take-off weight, g.
    pub weight_g: f64,
    /// Average flight power inferred from specs, W.
    pub flight_power_w: f64,
    /// Estimated maneuvering power (≈2× hover, per the paper's load
    /// fractions), W.
    pub maneuver_power_w: f64,
    /// Advertised flight time, min.
    pub flight_time_min: f64,
    /// Heavy-computation power share while hovering.
    pub heavy_compute_share: f64,
}

/// Derives the average flight power from released specs: usable battery
/// energy over advertised flight time (the paper's §3.2 validation).
pub fn infer_flight_power(drone: &CommercialDrone) -> Watts {
    let energy_wh = drone.capacity_mah / 1000.0
        * drone.cells.nominal_voltage().0
        * drone_components::battery::LIPO_DRAIN_LIMIT;
    Watts(energy_wh / (drone.flight_time_min / 60.0))
}

/// Builds the Figure 11 rows for the six nano/micro drones.
pub fn figure11_points() -> Vec<CommercialPoint> {
    figure11_drones()
        .iter()
        .map(|d| {
            let hover = infer_flight_power(d);
            CommercialPoint {
                name: d.name.to_owned(),
                weight_g: d.weight.0,
                flight_power_w: hover.0,
                maneuver_power_w: hover.0 * 0.65 / 0.30,
                flight_time_min: d.flight_time_min,
                heavy_compute_share: d.heavy_compute.0 / (hover.0 + d.heavy_compute.0),
            }
        })
        .collect()
}

/// Compares one commercial drone's inferred power to the model's
/// power/weight curve at the same weight; returns
/// `(inferred_w, model_w, relative_error)` or `None` when no feasible
/// model point brackets the weight.
pub fn validate_against_sweep(
    drone: &CommercialDrone,
    sweep: &crate::sweep::WheelbaseSweep,
) -> Option<(f64, f64, f64)> {
    let inferred = infer_flight_power(drone).0;
    // Nearest-weight model point.
    let nearest = sweep.points.iter().min_by(|a, b| {
        (a.weight_g - drone.weight.0)
            .abs()
            .partial_cmp(&(b.weight_g - drone.weight.0).abs())
            .expect("finite")
    })?;
    // Only meaningful when the weights are comparable.
    if (nearest.weight_g - drone.weight.0).abs() / drone.weight.0 > 0.5 {
        return None;
    }
    let model = nearest.hover_power_w;
    let rel = (model - inferred).abs() / inferred;
    Some((inferred, model, rel))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::WheelbaseSweep;
    use drone_components::battery::CellCount;
    use drone_components::paper::commercial_drones;

    #[test]
    fn inferred_powers_are_plausible() {
        for d in commercial_drones() {
            let p = infer_flight_power(&d).0;
            // Nano drones ~10 W up to heavy-lift ~1 kW.
            assert!((5.0..1500.0).contains(&p), "{}: {p} W", d.name);
        }
    }

    #[test]
    fn mambo_hover_power_is_nano_scale() {
        let points = figure11_points();
        let mambo = points.iter().find(|p| p.name == "Parrot Mambo").unwrap();
        assert!(
            (5.0..25.0).contains(&mambo.flight_power_w),
            "{}",
            mambo.flight_power_w
        );
    }

    #[test]
    fn figure11_heavy_compute_share_band() {
        // The paper: heavy computation reaches 10–20 % of total power on
        // small drones (with hover-only at 2–7 %).
        let points = figure11_points();
        assert_eq!(points.len(), 6);
        for p in &points {
            assert!(
                (0.03..0.45).contains(&p.heavy_compute_share),
                "{}: share {}",
                p.name,
                p.heavy_compute_share
            );
        }
        // At least half the fleet in the paper's headline 10–20 % band.
        let in_band = points
            .iter()
            .filter(|p| (0.08..0.25).contains(&p.heavy_compute_share))
            .count();
        assert!(in_band >= 3, "only {in_band} drones in the 10-20% band");
    }

    #[test]
    fn maneuver_power_roughly_doubles() {
        for p in figure11_points() {
            let ratio = p.maneuver_power_w / p.flight_power_w;
            assert!((2.0..2.3).contains(&ratio));
        }
    }

    #[test]
    fn model_curve_matches_a_450mm_class_commercial() {
        // DJI Phantom 4 sits in the 450 mm sweep's weight range; the
        // model should agree within ~40 % (the paper's validation is
        // visual agreement on log-free axes).
        let sweep = WheelbaseSweep::run(450.0, &[CellCount::S1, CellCount::S3, CellCount::S6], 15);
        let phantom = commercial_drones()
            .into_iter()
            .find(|d| d.name == "DJI Phantom 4")
            .unwrap();
        let (inferred, model, rel) =
            validate_against_sweep(&phantom, &sweep).expect("weight in range");
        assert!(
            rel < 0.5,
            "inferred {inferred:.0} W vs model {model:.0} W (rel {rel:.2})"
        );
    }

    #[test]
    fn validation_rejects_absurd_weight_mismatch() {
        let sweep = WheelbaseSweep::run(100.0, &[CellCount::S1], 6);
        let matrice = commercial_drones()
            .into_iter()
            .find(|d| d.name == "DJI Matrice 600")
            .unwrap();
        // A 9.5 kg drone has no counterpart in a 100 mm sweep.
        assert!(validate_against_sweep(&matrice, &sweep).is_none());
    }
}
