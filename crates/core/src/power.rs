//! Power and flight-time modelling — Equations 3 through 7.
//!
//! `PowerAvg = H(MotorCurrent·BattV, %FlyingLoad, P_compute, P_sensors)`
//! (Eq. 3), `BattCapacity = M(LiPoCapacity, %PowerEff, %LiPoDrainLimit)`
//! (Eq. 4), `FlightTime = N(BattCapacity, PowerAvg)` (Eq. 5),
//! `%PowerComputation = X(PowerAvg, PowerCompute)` (Eq. 6) and
//! `+FlightTimeCompute = Z(%PowerComputation, FlightTime)` (Eq. 7).

use crate::design::SizedDrone;
use drone_components::battery::LIPO_DRAIN_LIMIT;
use drone_components::units::{Minutes, WattHours, Watts};
use std::fmt;

/// Flying activity level, expressed as the paper does: a fraction of the
/// maximum motor current draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlyingLoad {
    /// Low-load hovering: 20–30 % of max draw (§3.2). We use the top of
    /// the band, which matches the physics of hovering at TWR 2
    /// (current fraction ≈ (1/TWR)^1.5 ≈ 0.35 of the design point,
    /// ≈ 0.31 of the 15 %-margined motor rating).
    Hover,
    /// Maneuvering: 60–70 % of max draw.
    Maneuver,
    /// An explicit fraction of max draw in `(0, 1]`.
    Custom(f64),
}

impl FlyingLoad {
    /// The fraction of maximum current this load draws.
    ///
    /// # Panics
    ///
    /// Panics for a `Custom` fraction outside `(0, 1]`.
    pub fn fraction(self) -> f64 {
        match self {
            FlyingLoad::Hover => 0.30,
            FlyingLoad::Maneuver => 0.65,
            FlyingLoad::Custom(f) => {
                assert!(f > 0.0 && f <= 1.0, "load fraction {f} out of range");
                f
            }
        }
    }
}

/// The paper's power-model constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Overall power-train efficiency (`%PowerEff` in Eq. 4): ESC
    /// switching losses, voltage sag, connector/wiring resistance.
    pub power_efficiency: f64,
    /// Usable battery fraction (`LiPoDrainLimit`): 85 %.
    pub drain_limit: f64,
}

impl PowerModel {
    /// The constants used for the Figure 10 sweeps.
    pub fn paper_defaults() -> PowerModel {
        PowerModel {
            power_efficiency: 0.78,
            drain_limit: LIPO_DRAIN_LIMIT,
        }
    }

    /// Equation 3: average electrical power at a flying load.
    pub fn average_power(&self, drone: &SizedDrone, load: FlyingLoad) -> PowerBreakdown {
        let propulsion = drone
            .voltage()
            .power(drone.max_total_current() * load.fraction());
        PowerBreakdown {
            propulsion,
            compute: drone.spec.compute_power,
            sensors: drone.spec.sensors_power,
        }
    }

    /// Equation 4: usable battery energy after drain limit and
    /// power-train efficiency.
    pub fn usable_energy(&self, drone: &SizedDrone) -> WattHours {
        WattHours(drone.battery.stored_energy().0 * self.drain_limit * self.power_efficiency)
    }

    /// Equation 5: flight time at a flying load.
    pub fn flight_time(&self, drone: &SizedDrone, load: FlyingLoad) -> Minutes {
        self.usable_energy(drone)
            .duration_at(self.average_power(drone, load).total())
    }

    /// Equation 6: computation share of total power at a flying load.
    pub fn compute_share(&self, drone: &SizedDrone, load: FlyingLoad) -> f64 {
        let breakdown = self.average_power(drone, load);
        breakdown.compute.0 / breakdown.total().0
    }

    /// Equation 7: flight time gained by eliminating `saved` watts of
    /// computation at the given flying load (first-order exact: the new
    /// flight time is computed, not linearized).
    pub fn gained_flight_time(
        &self,
        drone: &SizedDrone,
        load: FlyingLoad,
        saved: Watts,
    ) -> Minutes {
        let breakdown = self.average_power(drone, load);
        let before = self.usable_energy(drone).duration_at(breakdown.total());
        let new_total = Watts((breakdown.total().0 - saved.0).max(0.1));
        let after = self.usable_energy(drone).duration_at(new_total);
        after - before
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel::paper_defaults()
    }
}

/// Where the power goes at a given activity level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBreakdown {
    /// Motor + ESC draw.
    pub propulsion: Watts,
    /// Computation draw.
    pub compute: Watts,
    /// Sensor draw.
    pub sensors: Watts,
}

impl PowerBreakdown {
    /// Total electrical power.
    pub fn total(&self) -> Watts {
        self.propulsion + self.compute + self.sensors
    }
}

impl fmt::Display for PowerBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} total ({} propulsion, {} compute, {} sensors)",
            self.total(),
            self.propulsion,
            self.compute,
            self.sensors
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::DesignSpec;
    use drone_components::battery::CellCount;
    use drone_components::units::MilliampHours;

    fn drone_450() -> SizedDrone {
        DesignSpec::new(450.0, CellCount::S3, MilliampHours(4000.0))
            .with_compute_power(Watts(3.0))
            .size()
            .expect("feasible")
    }

    #[test]
    fn hover_power_matches_the_papers_drone() {
        // The paper's 450 mm drone averages ~130 W in gentle flight
        // (Figure 16b).
        let drone = drone_450();
        let p = PowerModel::paper_defaults().average_power(&drone, FlyingLoad::Hover);
        assert!((70.0..200.0).contains(&p.total().0), "{p}");
    }

    #[test]
    fn maneuvering_draws_roughly_double_hover() {
        let drone = drone_450();
        let model = PowerModel::paper_defaults();
        let hover = model.average_power(&drone, FlyingLoad::Hover).total();
        let maneuver = model.average_power(&drone, FlyingLoad::Maneuver).total();
        let ratio = maneuver.0 / hover.0;
        assert!((1.7..2.4).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn flight_time_in_commercial_range() {
        // Mid-size drones fly ~10–30 minutes.
        let drone = drone_450();
        let ft = PowerModel::paper_defaults().flight_time(&drone, FlyingLoad::Hover);
        assert!((8.0..35.0).contains(&ft.0), "flight time {ft}");
    }

    #[test]
    fn compute_share_is_small_for_3w() {
        // §3.2: "the 3 W chips have less than 5 % contribution".
        let drone = drone_450();
        let share = PowerModel::paper_defaults().compute_share(&drone, FlyingLoad::Hover);
        assert!(share < 0.05, "share {share}");
    }

    #[test]
    fn compute_share_drops_when_maneuvering() {
        let drone = DesignSpec::new(450.0, CellCount::S3, MilliampHours(4000.0))
            .with_compute_power(Watts(20.0))
            .size()
            .unwrap();
        let model = PowerModel::paper_defaults();
        let hover = model.compute_share(&drone, FlyingLoad::Hover);
        let maneuver = model.compute_share(&drone, FlyingLoad::Maneuver);
        assert!(maneuver < hover, "hover {hover} vs maneuver {maneuver}");
    }

    #[test]
    fn gained_time_positive_for_savings() {
        let drone = DesignSpec::new(450.0, CellCount::S3, MilliampHours(4000.0))
            .with_compute_power(Watts(20.0))
            .size()
            .unwrap();
        let model = PowerModel::paper_defaults();
        let gained = model.gained_flight_time(&drone, FlyingLoad::Hover, Watts(10.0));
        assert!(gained.0 > 0.5, "gained {gained}");
        // Saving nothing gains nothing.
        let zero = model.gained_flight_time(&drone, FlyingLoad::Hover, Watts(0.0));
        assert!(zero.0.abs() < 1e-9);
        // Negative savings (adding load) costs time.
        let lost = model.gained_flight_time(&drone, FlyingLoad::Hover, Watts(-10.0));
        assert!(lost.0 < 0.0);
    }

    #[test]
    fn equations_compose_consistently() {
        // FlightTime × PowerAvg == usable energy (Eq. 4/5 consistency).
        let drone = drone_450();
        let model = PowerModel::paper_defaults();
        let p = model.average_power(&drone, FlyingLoad::Hover).total();
        let ft = model.flight_time(&drone, FlyingLoad::Hover);
        let energy = model.usable_energy(&drone);
        assert!((ft.0 / 60.0 * p.0 - energy.0).abs() < 1e-9);
    }

    #[test]
    fn load_fractions() {
        assert!((FlyingLoad::Hover.fraction() - 0.30).abs() < 1e-12);
        assert!((FlyingLoad::Maneuver.fraction() - 0.65).abs() < 1e-12);
        assert!((FlyingLoad::Custom(0.5).fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_custom_load_panics() {
        let _ = FlyingLoad::Custom(1.5).fraction();
    }
}
