//! LiPo battery model (paper §2.1.2, §2.3, Figure 7).
//!
//! Lithium-polymer packs are the only realistic drone power source: highest
//! energy density and discharge rate of the rechargeable lithium family.
//! The paper's key empirical result (Figure 7) is a **per-cell-count linear
//! relationship between capacity (mAh) and pack weight (g)**, extracted
//! from 250 commercial batteries.

use crate::units::{Amps, Grams, MilliampHours, Volts, WattHours};
use std::fmt;

/// Nominal LiPo cell voltage (V/cell).
pub const CELL_NOMINAL_VOLTS: f64 = 3.7;

/// Fraction of a LiPo's capacity that can be drained safely in flight
/// (`LiPoDrainLimit` in the paper: only 85 % of capacity should be used).
pub const LIPO_DRAIN_LIMIT: f64 = 0.85;

/// Series cell count of a LiPo pack (`xS` in the `xSyP` convention).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CellCount {
    /// 1 cell, 3.7 V.
    S1,
    /// 2 cells, 7.4 V.
    S2,
    /// 3 cells, 11.1 V.
    S3,
    /// 4 cells, 14.8 V.
    S4,
    /// 5 cells, 18.5 V.
    S5,
    /// 6 cells, 22.2 V.
    S6,
}

impl CellCount {
    /// All configurations the paper studies, ascending.
    pub const ALL: [CellCount; 6] = [
        CellCount::S1,
        CellCount::S2,
        CellCount::S3,
        CellCount::S4,
        CellCount::S5,
        CellCount::S6,
    ];

    /// Number of series cells.
    pub fn cells(self) -> u8 {
        match self {
            CellCount::S1 => 1,
            CellCount::S2 => 2,
            CellCount::S3 => 3,
            CellCount::S4 => 4,
            CellCount::S5 => 5,
            CellCount::S6 => 6,
        }
    }

    /// Nominal pack voltage (3.7 V × cells).
    pub fn nominal_voltage(self) -> Volts {
        Volts(CELL_NOMINAL_VOLTS * f64::from(self.cells()))
    }

    /// Builds from a cell count in `1..=6`.
    pub fn from_cells(cells: u8) -> Option<CellCount> {
        CellCount::ALL.into_iter().find(|c| c.cells() == cells)
    }
}

impl fmt::Display for CellCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}S", self.cells())
    }
}

/// One commercial-style LiPo battery pack (`xS1P`).
///
/// # Example
///
/// ```
/// use drone_components::battery::{Battery, CellCount};
/// let b = Battery::from_model(CellCount::S3, drone_components::units::MilliampHours(3000.0), 25.0);
/// assert!((b.nominal_voltage().0 - 11.1).abs() < 1e-9);
/// assert!(b.weight.0 > 200.0 && b.weight.0 < 300.0); // ≈ 0.074·3000 + 16.9
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Battery {
    /// Series cell configuration.
    pub cells: CellCount,
    /// Rated charge capacity.
    pub capacity: MilliampHours,
    /// Discharge rating (the `C` number): max continuous current is
    /// `capacity(Ah) × C`.
    pub discharge_c: f64,
    /// Pack weight including case, wires and protection circuitry.
    pub weight: Grams,
}

impl Battery {
    /// Creates a battery with an explicit weight.
    ///
    /// # Panics
    ///
    /// Panics if capacity, discharge rating or weight are not positive.
    pub fn new(
        cells: CellCount,
        capacity: MilliampHours,
        discharge_c: f64,
        weight: Grams,
    ) -> Battery {
        assert!(capacity.0 > 0.0, "capacity must be positive");
        assert!(discharge_c > 0.0, "discharge rating must be positive");
        assert!(weight.0 > 0.0, "weight must be positive");
        Battery {
            cells,
            capacity,
            discharge_c,
            weight,
        }
    }

    /// Creates a battery whose weight follows the paper's Figure 7 line for
    /// its cell count (the idealized end-product weight model).
    pub fn from_model(cells: CellCount, capacity: MilliampHours, discharge_c: f64) -> Battery {
        let fit = crate::paper::battery_weight_fit(cells);
        Battery::new(cells, capacity, discharge_c, Grams(fit.predict(capacity.0)))
    }

    /// Nominal pack voltage.
    pub fn nominal_voltage(&self) -> Volts {
        self.cells.nominal_voltage()
    }

    /// Total stored energy at nominal voltage.
    pub fn stored_energy(&self) -> WattHours {
        WattHours(self.capacity.0 / 1000.0 * self.nominal_voltage().0)
    }

    /// Energy usable in flight after the 85 % LiPo drain limit.
    pub fn usable_energy(&self) -> WattHours {
        WattHours(self.stored_energy().0 * LIPO_DRAIN_LIMIT)
    }

    /// Maximum safe continuous discharge current (`capacity(Ah) × C`).
    pub fn max_continuous_current(&self) -> Amps {
        Amps(self.capacity.0 / 1000.0 * self.discharge_c)
    }

    /// Gravimetric energy density (Wh/kg) of this pack — a sanity metric;
    /// real LiPo packs land roughly in 100–200 Wh/kg.
    pub fn energy_density_wh_per_kg(&self) -> f64 {
        self.stored_energy().0 / self.weight.kilograms()
    }
}

impl fmt::Display for Battery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {:.0} mAh {:.0}C ({})",
            self.cells, self.capacity.0, self.discharge_c, self.weight
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_voltages() {
        assert!((CellCount::S1.nominal_voltage().0 - 3.7).abs() < 1e-12);
        assert!((CellCount::S3.nominal_voltage().0 - 11.1).abs() < 1e-12);
        assert!((CellCount::S6.nominal_voltage().0 - 22.2).abs() < 1e-12);
    }

    #[test]
    fn from_cells_roundtrip() {
        for c in CellCount::ALL {
            assert_eq!(CellCount::from_cells(c.cells()), Some(c));
        }
        assert_eq!(CellCount::from_cells(0), None);
        assert_eq!(CellCount::from_cells(7), None);
    }

    #[test]
    fn display_convention() {
        assert_eq!(CellCount::S4.to_string(), "4S");
    }

    #[test]
    fn stored_and_usable_energy() {
        let b = Battery::new(CellCount::S3, MilliampHours(3000.0), 25.0, Grams(248.0));
        // 3 Ah × 11.1 V = 33.3 Wh.
        assert!((b.stored_energy().0 - 33.3).abs() < 1e-9);
        assert!((b.usable_energy().0 - 33.3 * 0.85).abs() < 1e-9);
    }

    #[test]
    fn discharge_current() {
        let b = Battery::new(CellCount::S4, MilliampHours(5000.0), 40.0, Grams(500.0));
        assert!((b.max_continuous_current().0 - 200.0).abs() < 1e-9);
    }

    #[test]
    fn model_weight_matches_paper_line() {
        // Paper Figure 7, 3S: w = 0.074·mAh + 16.935.
        let b = Battery::from_model(CellCount::S3, MilliampHours(3000.0), 25.0);
        assert!((b.weight.0 - (0.074 * 3000.0 + 16.935)).abs() < 1e-9);
    }

    #[test]
    fn energy_density_is_realistic() {
        for cells in CellCount::ALL {
            for capacity in [1000.0, 3000.0, 8000.0] {
                let b = Battery::from_model(cells, MilliampHours(capacity), 25.0);
                let d = b.energy_density_wh_per_kg();
                assert!(
                    (50.0..350.0).contains(&d),
                    "implausible energy density {d:.0} Wh/kg for {b}"
                );
            }
        }
    }

    #[test]
    fn higher_cell_counts_weigh_more_at_same_capacity() {
        let w: Vec<f64> = CellCount::ALL
            .into_iter()
            .map(|c| Battery::from_model(c, MilliampHours(5000.0), 25.0).weight.0)
            .collect();
        for pair in w.windows(2) {
            assert!(
                pair[0] < pair[1],
                "weights not monotonic in cell count: {w:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = Battery::new(CellCount::S1, MilliampHours(0.0), 20.0, Grams(10.0));
    }
}
