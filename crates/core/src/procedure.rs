//! The Figure 12 procedure as an executable API: "How to accurately
//! quantify the benefits?" — from application requirements to total and
//! compute power, flight time, and the gain from an optimization.
//!
//! Each call of [`Procedure::run`] walks the figure's boxes in order and
//! records the intermediate results, so the output doubles as the
//! paper's worked example.

use crate::design::{DesignError, DesignSpec, SizedDrone};
use crate::power::{FlyingLoad, PowerModel};
use drone_components::battery::CellCount;
use drone_components::units::{Grams, MilliampHours, Minutes, Watts};
use std::fmt;

/// Application requirements, as the top of Figure 12 frames them.
#[derive(Debug, Clone, PartialEq)]
pub struct Requirements {
    /// Frame wheelbase to start from (the figure: "start with a small
    /// frame"), mm.
    pub wheelbase_mm: f64,
    /// Battery configuration.
    pub cells: CellCount,
    /// Extra sensors the application needs (weight, battery power).
    pub sensors: (Grams, Watts),
    /// Extra compute the application needs (weight, power).
    pub compute: (Grams, Watts),
    /// Extra payload, g.
    pub payload: Grams,
    /// Minimum required flight time at hover, min.
    pub required_minutes: f64,
}

impl Requirements {
    /// A mapping-drone requirement set: mid-size frame, RPi-class
    /// compute, camera payload, 15 minutes on station.
    pub fn mapping_drone() -> Requirements {
        Requirements {
            wheelbase_mm: 450.0,
            cells: CellCount::S3,
            sensors: (Grams(45.0), Watts(1.5)),
            compute: (Grams(73.0), Watts(5.0)),
            payload: Grams(100.0),
            required_minutes: 15.0,
        }
    }
}

/// One step of the executed procedure.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// Figure 12 box label.
    pub label: String,
    /// What was computed.
    pub result: String,
}

/// The full procedure outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcedureReport {
    /// Executed steps in order.
    pub steps: Vec<Step>,
    /// The selected design.
    pub drone: SizedDrone,
    /// Hover flight time, min.
    pub flight_time: Minutes,
    /// Computation share of total power at hover.
    pub compute_share: f64,
    /// Flight time gained by the candidate optimization, min.
    pub gained: Minutes,
}

impl fmt::Display for ProcedureReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 12 procedure:")?;
        for (i, step) in self.steps.iter().enumerate() {
            writeln!(f, "  {}. {:<28} {}", i + 1, step.label, step.result)?;
        }
        Ok(())
    }
}

/// Executes Figure 12 for a requirement set and a candidate compute
/// optimization (watts saved).
#[derive(Debug, Clone, PartialEq)]
pub struct Procedure {
    requirements: Requirements,
    optimization_savings: Watts,
}

impl Procedure {
    /// Creates the procedure.
    pub fn new(requirements: Requirements, optimization_savings: Watts) -> Procedure {
        Procedure {
            requirements,
            optimization_savings,
        }
    }

    /// Runs the procedure: sweeps battery capacity until the flight-time
    /// requirement is met (growing the pack like the figure's "select a
    /// battery" loop), then quantifies the compute share and the
    /// optimization's gained minutes.
    ///
    /// # Errors
    ///
    /// Returns [`DesignError`] when no battery in the 1–8 Ah sweep meets
    /// the requirement.
    pub fn run(&self) -> Result<ProcedureReport, DesignError> {
        let r = &self.requirements;
        let model = PowerModel::paper_defaults();
        let mut steps = Vec::new();
        steps.push(Step {
            label: "application needs".into(),
            result: format!(
                "{:.0} mm frame, sensors {}/{}, compute {}/{}, payload {}",
                r.wheelbase_mm, r.sensors.0, r.sensors.1, r.compute.0, r.compute.1, r.payload
            ),
        });

        // "Select a battery" loop: smallest capacity meeting the
        // requirement.
        let mut chosen: Option<(SizedDrone, Minutes)> = None;
        for step_mah in (1000..=8000).step_by(500) {
            let spec = DesignSpec::new(r.wheelbase_mm, r.cells, MilliampHours(f64::from(step_mah)))
                .with_compute(r.compute.0, r.compute.1)
                .with_sensors(r.sensors.0, r.sensors.1)
                .with_payload(r.payload);
            let Ok(drone) = spec.size() else { continue };
            let ft = model.flight_time(&drone, FlyingLoad::Hover);
            if ft.0 >= r.required_minutes {
                chosen = Some((drone, ft));
                break;
            }
        }
        let (drone, flight_time) = chosen.ok_or(DesignError::SizingDiverged)?;
        steps.push(Step {
            label: "estimate weight (Eq. 1)".into(),
            result: format!(
                "{} total at TWR {:.2}",
                drone.total_weight,
                drone.thrust_to_weight()
            ),
        });
        steps.push(Step {
            label: "estimate lift power (Eq. 2-3)".into(),
            result: format!("{}", model.average_power(&drone, FlyingLoad::Hover)),
        });
        steps.push(Step {
            label: "battery & capacity (Eq. 4)".into(),
            result: format!(
                "{} -> usable {}",
                drone.battery,
                model.usable_energy(&drone)
            ),
        });
        steps.push(Step {
            label: "flight time (Eq. 5)".into(),
            result: format!("{flight_time} (required {:.0} min)", r.required_minutes),
        });
        let compute_share = model.compute_share(&drone, FlyingLoad::Hover);
        steps.push(Step {
            label: "% compute power (Eq. 6)".into(),
            result: format!("{:.1}%", compute_share * 100.0),
        });
        let gained = model.gained_flight_time(&drone, FlyingLoad::Hover, self.optimization_savings);
        steps.push(Step {
            label: "gained flight time (Eq. 7)".into(),
            result: format!("saving {} buys {gained}", self.optimization_savings),
        });

        Ok(ProcedureReport {
            steps,
            drone,
            flight_time,
            compute_share,
            gained,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_drone_procedure_completes() {
        let report = Procedure::new(Requirements::mapping_drone(), Watts(4.5))
            .run()
            .expect("a feasible battery exists");
        assert_eq!(report.steps.len(), 7);
        assert!(report.flight_time.0 >= 15.0);
        assert!(report.gained.0 > 0.0);
        assert!((0.0..0.3).contains(&report.compute_share));
        let text = report.to_string();
        assert!(text.contains("Eq. 7"), "{text}");
    }

    #[test]
    fn battery_selection_picks_the_smallest_sufficient_pack() {
        let mut relaxed = Requirements::mapping_drone();
        relaxed.required_minutes = 5.0;
        let small = Procedure::new(relaxed, Watts(1.0)).run().unwrap();
        let mut strict = Requirements::mapping_drone();
        strict.required_minutes = 20.0;
        let large = Procedure::new(strict, Watts(1.0)).run().unwrap();
        assert!(
            large.drone.battery.capacity.0 > small.drone.battery.capacity.0,
            "stricter endurance should need a bigger pack: {} vs {}",
            large.drone.battery.capacity.0,
            small.drone.battery.capacity.0
        );
    }

    #[test]
    fn impossible_requirement_errors() {
        let mut req = Requirements::mapping_drone();
        req.required_minutes = 500.0;
        assert!(Procedure::new(req, Watts(1.0)).run().is_err());
    }

    #[test]
    fn heavier_payload_shortens_flight() {
        let base = Procedure::new(Requirements::mapping_drone(), Watts(1.0))
            .run()
            .unwrap();
        let mut heavy_req = Requirements::mapping_drone();
        heavy_req.payload = Grams(600.0);
        heavy_req.required_minutes = 5.0; // keep it feasible
        let heavy = Procedure::new(heavy_req, Watts(1.0)).run().unwrap();
        // Same capacity would fly shorter; the loop may pick a bigger
        // pack instead — either way the heavy build draws more power.
        let model = PowerModel::paper_defaults();
        let p_base = model
            .average_power(&base.drone, FlyingLoad::Hover)
            .total()
            .0;
        let p_heavy = model
            .average_power(&heavy.drone, FlyingLoad::Hover)
            .total()
            .0;
        assert!(p_heavy > p_base);
    }
}
