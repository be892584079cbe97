//! LiPo discharge simulation.
//!
//! Tracks state of charge by integrating electrical power, applies the
//! paper's 85 % drain limit (`LiPoDrainLimit`), and models the mild
//! voltage sag of a LiPo across its discharge curve.

use drone_components::battery::Battery;
use drone_components::units::{Volts, WattHours, Watts};

/// A battery with live state of charge.
///
/// # Example
///
/// ```
/// use drone_sim::BatterySim;
/// use drone_components::battery::{Battery, CellCount};
/// use drone_components::units::{Grams, MilliampHours, Watts};
///
/// let pack = Battery::new(CellCount::S3, MilliampHours(3000.0), 25.0, Grams(248.0));
/// let mut sim = BatterySim::new(pack);
/// sim.drain(Watts(130.0), 60.0); // one minute at 130 W
/// assert!(sim.remaining_fraction() < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BatterySim {
    battery: Battery,
    consumed: WattHours,
    /// Surviving fraction of the pack's rated capacity (fault
    /// injection: cell disconnects shrink it below 1.0).
    capacity_factor: f64,
    /// Extra terminal-voltage drop from weak cells, volts.
    sag_volts: f64,
}

impl BatterySim {
    /// Creates a fully charged battery simulation.
    pub fn new(battery: Battery) -> BatterySim {
        BatterySim {
            battery,
            consumed: WattHours::ZERO,
            capacity_factor: 1.0,
            sag_volts: 0.0,
        }
    }

    /// The underlying pack.
    pub fn battery(&self) -> &Battery {
        &self.battery
    }

    /// Energy consumed so far. Clamped at the pack's (possibly
    /// fault-reduced) stored energy: an empty pack cannot keep paying.
    pub fn consumed(&self) -> WattHours {
        self.consumed
    }

    /// Stored energy after capacity faults.
    pub fn effective_stored_energy(&self) -> WattHours {
        WattHours(self.battery.stored_energy().0 * self.capacity_factor)
    }

    /// Usable energy (85 % drain limit) after capacity faults.
    pub fn effective_usable_energy(&self) -> WattHours {
        WattHours(self.battery.usable_energy().0 * self.capacity_factor)
    }

    /// Remaining fraction of *total* stored energy, `0.0..=1.0`.
    /// Monotonically non-increasing over any drain sequence.
    pub fn remaining_fraction(&self) -> f64 {
        (1.0 - self.consumed.0 / self.effective_stored_energy().0).clamp(0.0, 1.0)
    }

    /// Whether the pack has hit the 85 % safe-drain limit — the flight
    /// must end here even though charge physically remains.
    pub fn at_drain_limit(&self) -> bool {
        self.consumed.0 >= self.effective_usable_energy().0
    }

    /// Usable energy still available before the drain limit.
    pub fn usable_remaining(&self) -> WattHours {
        WattHours((self.effective_usable_energy().0 - self.consumed.0).max(0.0))
    }

    /// Present terminal voltage: full packs sit ~8 % above nominal,
    /// sagging roughly linearly to ~8 % below nominal at the drain
    /// limit, plus any fault-injected cell sag.
    pub fn voltage(&self) -> Volts {
        let depth = (self.consumed.0 / self.effective_usable_energy().0).clamp(0.0, 1.2);
        Volts(self.battery.nominal_voltage().0 * (1.08 - 0.16 * depth) - self.sag_volts)
    }

    /// Fault injection: permanently lose `fraction` of the pack's
    /// current capacity (cell disconnect). Clamped to `0.0..=1.0`.
    pub fn lose_capacity(&mut self, fraction: f64) {
        self.capacity_factor *= 1.0 - fraction.clamp(0.0, 1.0);
    }

    /// Fault injection: add a permanent extra terminal-voltage drop.
    pub fn add_cell_sag(&mut self, volts: f64) {
        self.sag_volts += volts.max(0.0);
    }

    /// Integrates a power draw over `dt` seconds. Consumed energy is
    /// clamped at the pack's stored energy: overdraining past empty can
    /// neither report negative usable energy nor push the state of
    /// charge below zero.
    ///
    /// # Panics
    ///
    /// Panics if `power` is negative or `dt` is negative.
    pub fn drain(&mut self, power: Watts, dt: f64) {
        assert!(power.0 >= 0.0, "power must be non-negative");
        assert!(dt >= 0.0, "dt must be non-negative");
        let next = self.consumed.0 + power.0 * dt / 3600.0;
        // Clamp at stored energy, but never *reduce* consumed (a
        // capacity fault may have shrunk the pack below what was already
        // drawn — consumed energy stays monotone regardless).
        let cap = self.effective_stored_energy().0.max(self.consumed.0);
        self.consumed = WattHours(next.min(cap));
    }

    /// Predicted remaining flight minutes at a constant power draw.
    ///
    /// # Panics
    ///
    /// Panics if `power` is zero or negative.
    pub fn minutes_remaining_at(&self, power: Watts) -> f64 {
        self.usable_remaining().duration_at(power).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drone_components::battery::{CellCount, LIPO_DRAIN_LIMIT};
    use drone_components::units::{Grams, MilliampHours};

    fn pack() -> Battery {
        Battery::new(CellCount::S3, MilliampHours(3000.0), 25.0, Grams(248.0))
    }

    #[test]
    fn fresh_pack_is_full() {
        let sim = BatterySim::new(pack());
        assert!((sim.remaining_fraction() - 1.0).abs() < 1e-12);
        assert!(!sim.at_drain_limit());
    }

    #[test]
    fn drain_accounts_energy() {
        let mut sim = BatterySim::new(pack());
        // 33.3 Wh pack: 33.3 W for half an hour consumes half.
        sim.drain(Watts(33.3), 1800.0);
        assert!((sim.remaining_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn drain_limit_hits_at_85_percent() {
        let mut sim = BatterySim::new(pack());
        let usable = sim.battery().usable_energy().0;
        sim.drain(Watts(usable * 3600.0 / 100.0), 99.0);
        assert!(!sim.at_drain_limit());
        sim.drain(Watts(usable * 3600.0 / 100.0), 1.5);
        assert!(sim.at_drain_limit());
        assert!((sim.remaining_fraction() - (1.0 - LIPO_DRAIN_LIMIT)).abs() < 0.01);
    }

    #[test]
    fn voltage_sags_with_discharge() {
        let mut sim = BatterySim::new(pack());
        let v_full = sim.voltage().0;
        sim.drain(Watts(100.0), 600.0);
        let v_later = sim.voltage().0;
        assert!(v_later < v_full);
        // Stays within ±10 % of nominal over the usable window.
        assert!((v_later - 11.1).abs() / 11.1 < 0.10);
    }

    #[test]
    fn flight_time_prediction() {
        let sim = BatterySim::new(pack());
        // 33.3 Wh × 0.85 usable at 130 W ≈ 13.1 min — the paper's drone
        // class.
        let minutes = sim.minutes_remaining_at(Watts(130.0));
        assert!((12.0..14.5).contains(&minutes), "minutes {minutes}");
    }

    #[test]
    fn remaining_never_negative() {
        let mut sim = BatterySim::new(pack());
        sim.drain(Watts(1000.0), 3600.0 * 10.0);
        assert_eq!(sim.remaining_fraction(), 0.0);
        assert_eq!(sim.usable_remaining().0, 0.0);
    }

    #[test]
    fn overdrain_clamps_consumed_at_stored_energy() {
        let mut sim = BatterySim::new(pack());
        let stored = sim.effective_stored_energy().0;
        // Massive overdrain in one step, then more drain on the empty
        // pack: consumed pins at stored energy and state of charge stays
        // monotone at zero rather than going further negative.
        sim.drain(Watts(5000.0), 3600.0 * 5.0);
        assert_eq!(sim.consumed().0, stored);
        let soc_empty = sim.remaining_fraction();
        sim.drain(Watts(5000.0), 3600.0);
        assert_eq!(
            sim.consumed().0,
            stored,
            "consumed must not exceed stored energy"
        );
        assert_eq!(sim.remaining_fraction(), soc_empty);
        assert!(sim.at_drain_limit());
        assert!(
            sim.voltage().0 > 0.0,
            "voltage model stays bounded when empty"
        );
    }

    #[test]
    fn capacity_loss_shrinks_the_pack() {
        let mut sim = BatterySim::new(pack());
        sim.drain(Watts(33.3), 900.0); // ~25 % consumed
        let frac_before = sim.remaining_fraction();
        sim.lose_capacity(0.5);
        // Same consumed energy out of half the pack: much emptier.
        assert!(sim.remaining_fraction() < frac_before - 0.2);
        assert!(sim.effective_usable_energy().0 < sim.battery().usable_energy().0);
        // Losing everything cannot panic or go negative.
        sim.lose_capacity(1.0);
        assert_eq!(sim.usable_remaining().0, 0.0);
    }

    #[test]
    fn cell_sag_lowers_voltage() {
        let mut sim = BatterySim::new(pack());
        let v = sim.voltage().0;
        sim.add_cell_sag(0.6);
        assert!((sim.voltage().0 - (v - 0.6)).abs() < 1e-12);
        // Negative sag is ignored rather than boosting the pack.
        sim.add_cell_sag(-5.0);
        assert!((sim.voltage().0 - (v - 0.6)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power must be non-negative")]
    fn negative_power_panics() {
        BatterySim::new(pack()).drain(Watts(-1.0), 1.0);
    }
}
