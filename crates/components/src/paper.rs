//! Published constants from Hadidi et al., ASPLOS '21.
//!
//! Everything in this module is transcribed from the paper's figures and
//! tables: the regression coefficients of Figures 7 and 8, the commercial
//! drone validation points of Figures 10 and 11, the flight-controller
//! inventory of Table 4 and the platform comparison of Table 5. These
//! constants (a) seed the synthetic catalog generators and (b) serve as the
//! reference values every reproduced experiment is checked against.

use crate::battery::CellCount;
use crate::units::{Grams, Watts};
use drone_math::LinearFit;

/// Figure 7 battery weight-vs-capacity line for a cell configuration:
/// `weight(g) = slope · capacity(mAh) + intercept`.
pub fn battery_weight_fit(cells: CellCount) -> LinearFit {
    let (slope, intercept) = match cells {
        CellCount::S1 => (0.019, 4.856),
        CellCount::S2 => (0.050, 12.316),
        CellCount::S3 => (0.074, 16.935),
        CellCount::S4 => (0.077, 81.265),
        CellCount::S5 => (0.118, 45.478),
        CellCount::S6 => (0.116, 159.117),
    };
    LinearFit {
        slope,
        intercept,
        r_squared: 1.0,
        n: 0,
    }
}

/// Figure 8a, long-flight ESCs: total weight of **four** ESCs (g) vs max
/// continuous current per ESC (A): `w = 4.9678·I − 15.757`.
pub fn esc_long_flight_fit() -> LinearFit {
    LinearFit {
        slope: 4.9678,
        intercept: -15.757,
        r_squared: 1.0,
        n: 0,
    }
}

/// Figure 8a, short-flight (racing) ESCs: `w = 1.2269·I + 11.816`.
pub fn esc_short_flight_fit() -> LinearFit {
    LinearFit {
        slope: 1.2269,
        intercept: 11.816,
        r_squared: 1.0,
        n: 0,
    }
}

/// Figure 8b, frames above 200 mm wheelbase: `w = 1.2767·wb − 167.6`.
pub fn frame_weight_fit() -> LinearFit {
    LinearFit {
        slope: 1.2767,
        intercept: -167.6,
        r_squared: 1.0,
        n: 0,
    }
}

/// Figure 8b note: frames under 200 mm scatter between 50 g and 200 g with
/// no usable linear trend; this is the band the paper draws.
pub const SMALL_FRAME_WEIGHT_RANGE: (f64, f64) = (50.0, 200.0);

/// Target thrust-to-weight ratio used throughout the paper's sweeps (§2.3):
/// TWR 2 is the minimum for controllable flight and maximizes the apparent
/// compute-power contribution.
pub const PAPER_TWR: f64 = 2.0;

/// Hover ("low-load") flying load: 20–30 % of maximum current draw (§3.2).
pub const HOVER_LOAD_RANGE: (f64, f64) = (0.20, 0.30);

/// Maneuvering flying load: 60–70 % of maximum current draw (§3.2).
pub const MANEUVER_LOAD_RANGE: (f64, f64) = (0.60, 0.70);

/// A commercial drone used as a validation point in Figures 10 and 11.
#[derive(Debug, Clone, PartialEq)]
pub struct CommercialDrone {
    /// Product name.
    pub name: &'static str,
    /// Take-off weight (g).
    pub weight: Grams,
    /// Wheelbase class the paper plots it against (mm).
    pub wheelbase_mm: f64,
    /// Battery cell count.
    pub cells: CellCount,
    /// Battery capacity (mAh).
    pub capacity_mah: f64,
    /// Manufacturer-claimed flight time (minutes).
    pub flight_time_min: f64,
    /// Estimated heavy-computation (vision/autonomy) power draw.
    pub heavy_compute: Watts,
}

/// Commercial validation drones (Figures 10 & 11 diamonds; specs from the
/// cited product pages [33, 52–56, 69, 70]).
pub fn commercial_drones() -> Vec<CommercialDrone> {
    vec![
        CommercialDrone {
            name: "Parrot Mambo",
            weight: Grams(63.0),
            wheelbase_mm: 100.0,
            cells: CellCount::S1,
            capacity_mah: 660.0,
            flight_time_min: 8.0,
            heavy_compute: Watts(2.0),
        },
        CommercialDrone {
            name: "DJI Spark",
            weight: Grams(300.0),
            wheelbase_mm: 170.0,
            cells: CellCount::S3,
            capacity_mah: 1480.0,
            flight_time_min: 16.0,
            heavy_compute: Watts(8.0),
        },
        CommercialDrone {
            name: "Parrot Anafi",
            weight: Grams(320.0),
            wheelbase_mm: 240.0,
            cells: CellCount::S2,
            capacity_mah: 2700.0,
            flight_time_min: 25.0,
            heavy_compute: Watts(6.0),
        },
        CommercialDrone {
            name: "DJI Mavic Air",
            weight: Grams(430.0),
            wheelbase_mm: 213.0,
            cells: CellCount::S3,
            capacity_mah: 2375.0,
            flight_time_min: 21.0,
            heavy_compute: Watts(8.0),
        },
        CommercialDrone {
            name: "Parrot Bebop 2",
            weight: Grams(500.0),
            wheelbase_mm: 328.0,
            cells: CellCount::S3,
            capacity_mah: 2700.0,
            flight_time_min: 25.0,
            heavy_compute: Watts(8.0),
        },
        CommercialDrone {
            name: "Skydio 2",
            weight: Grams(775.0),
            wheelbase_mm: 270.0,
            cells: CellCount::S4,
            capacity_mah: 4280.0,
            flight_time_min: 23.0,
            heavy_compute: Watts(20.0),
        },
        CommercialDrone {
            name: "DJI Mavic",
            weight: Grams(734.0),
            wheelbase_mm: 335.0,
            cells: CellCount::S3,
            capacity_mah: 3830.0,
            flight_time_min: 27.0,
            heavy_compute: Watts(5.0),
        },
        CommercialDrone {
            name: "DJI Phantom 4",
            weight: Grams(1380.0),
            wheelbase_mm: 350.0,
            cells: CellCount::S4,
            capacity_mah: 5350.0,
            flight_time_min: 28.0,
            heavy_compute: Watts(8.0),
        },
        CommercialDrone {
            name: "DJI Matrice 600",
            weight: Grams(9500.0),
            wheelbase_mm: 1133.0,
            cells: CellCount::S6,
            capacity_mah: 4500.0,
            flight_time_min: 16.0,
            heavy_compute: Watts(20.0),
        },
    ]
}

/// The six nano/micro drones of Figure 11 (a subset of
/// [`commercial_drones`] in the paper's plotting order).
pub fn figure11_drones() -> Vec<CommercialDrone> {
    let order = [
        "Parrot Mambo",
        "Parrot Anafi",
        "DJI Spark",
        "DJI Mavic Air",
        "Parrot Bebop 2",
        "Skydio 2",
    ];
    let all = commercial_drones();
    order
        .iter()
        .map(|n| {
            all.iter()
                .find(|d| &d.name == n)
                .expect("figure 11 drone present")
                .clone()
        })
        .collect()
}

/// Paper-reported best-configuration flight times (§3.2 validation): the
/// model's best design per wheelbase should fly roughly this long, minutes.
///
/// Wheelbases within 0.25 mm of a studied point match it, so grid
/// coordinates that arrive with float error (449.999…) still look up;
/// `as u32` truncation used to send those to `None`.
pub fn best_flight_time_minutes(wheelbase_mm: f64) -> Option<f64> {
    let rounded = wheelbase_mm.round();
    if !rounded.is_finite() || (wheelbase_mm - rounded).abs() > 0.25 {
        return None;
    }
    match rounded as i64 {
        100 => Some(23.0),
        450 => Some(19.0),
        800 => Some(22.0),
        _ => None,
    }
}

/// One row of Table 4 (flight controllers, compute boards, sensors).
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Row {
    /// Product name.
    pub name: &'static str,
    /// Category within the table.
    pub group: Table4Group,
    /// Weight (g).
    pub weight: Grams,
    /// Power consumption (W).
    pub power: Watts,
}

/// Table 4 grouping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table4Group {
    /// Basic flight controllers: inner-loop only.
    BasicController,
    /// Improved controllers / companion computers.
    ImprovedController,
    /// First-person-view cameras.
    FpvCamera,
    /// Stand-alone LiDAR payloads.
    Lidar,
}

/// Table 4 transcription. Power is converted to watts at the quoted rail.
pub fn table4() -> Vec<Table4Row> {
    use Table4Group::*;
    vec![
        Table4Row {
            name: "iFlight SucceX-E F4",
            group: BasicController,
            weight: Grams(7.6),
            power: Watts(0.5),
        },
        Table4Row {
            name: "DJI NAZA-M Lite",
            group: BasicController,
            weight: Grams(66.3),
            power: Watts(1.5),
        },
        Table4Row {
            name: "DJI NAZA-M V2",
            group: BasicController,
            weight: Grams(82.0),
            power: Watts(1.5),
        },
        Table4Row {
            name: "Pixhawk 4",
            group: BasicController,
            weight: Grams(15.8),
            power: Watts(2.0),
        },
        Table4Row {
            name: "Mateksys F405",
            group: BasicController,
            weight: Grams(17.0),
            power: Watts(1.0),
        },
        Table4Row {
            name: "Intel Aero",
            group: ImprovedController,
            weight: Grams(30.0),
            power: Watts(10.0),
        },
        Table4Row {
            name: "Navio2",
            group: ImprovedController,
            weight: Grams(23.0),
            power: Watts(0.75),
        },
        Table4Row {
            name: "Raspberry Pi 4",
            group: ImprovedController,
            weight: Grams(50.0),
            power: Watts(5.0),
        },
        Table4Row {
            name: "Nvidia Jetson TX2",
            group: ImprovedController,
            weight: Grams(85.0),
            power: Watts(10.0),
        },
        Table4Row {
            name: "DJI Manifold",
            group: ImprovedController,
            weight: Grams(200.0),
            power: Watts(20.0),
        },
        Table4Row {
            name: "Eachine Bat 19S 800TVL",
            group: FpvCamera,
            weight: Grams(8.0),
            power: Watts(0.25),
        },
        Table4Row {
            name: "RunCam Night Eagle 2",
            group: FpvCamera,
            weight: Grams(14.5),
            power: Watts(1.0),
        },
        Table4Row {
            name: "HoverMap",
            group: Lidar,
            weight: Grams(1800.0),
            power: Watts(50.0),
        },
        Table4Row {
            name: "YellowScan Surveyor",
            group: Lidar,
            weight: Grams(1600.0),
            power: Watts(15.0),
        },
        Table4Row {
            name: "Ultra Puck",
            group: Lidar,
            weight: Grams(925.0),
            power: Watts(10.0),
        },
    ]
}

/// Representative compute power levels the paper sweeps (§3.1): a 3 W
/// "basic" chip and a 20 W "advanced" GPU-CPU system.
pub const BASIC_CHIP: Watts = Watts(3.0);
/// See [`BASIC_CHIP`].
pub const ADVANCED_CHIP: Watts = Watts(20.0);

/// Figure 14: the authors' open-source 450 mm drone weight breakdown.
pub fn our_drone_weight_breakdown() -> Vec<(&'static str, Grams)> {
    vec![
        ("Frame", Grams(272.0)),
        ("Battery", Grams(248.0)),
        ("Motors", Grams(220.0)),
        ("ESC", Grams(112.0)),
        ("RPi", Grams(50.0)),
        ("Propellers", Grams(40.0)),
        ("GPS", Grams(30.0)),
        ("Navio2", Grams(23.0)),
        ("Misc", Grams(20.0)),
        ("RC Receiver", Grams(17.0)),
        ("Telemetry", Grams(15.0)),
        ("Power Module", Grams(15.0)),
        ("PPM Encoder", Grams(9.0)),
    ]
}

/// Table 5 reference: platform comparison for SLAM offload.
#[derive(Debug, Clone, PartialEq)]
pub struct Table5Row {
    /// Platform name.
    pub platform: &'static str,
    /// SLAM speedup over the RPi baseline.
    pub slam_speedup: f64,
    /// Power overhead (W) of adding the platform.
    pub power_overhead: Watts,
    /// Weight overhead (g) of adding the platform.
    pub weight_overhead: Grams,
    /// Gained flight time on small drones (min) vs RPi baseline.
    pub gained_minutes_small: f64,
    /// Gained flight time on large drones (min) vs RPi baseline.
    pub gained_minutes_large: f64,
}

/// Table 5 transcription (gained-minute entries use the range midpoints).
pub fn table5() -> Vec<Table5Row> {
    vec![
        Table5Row {
            platform: "RPi",
            slam_speedup: 1.0,
            power_overhead: Watts(2.0),
            weight_overhead: Grams(50.0),
            gained_minutes_small: 0.0,
            gained_minutes_large: 0.0,
        },
        Table5Row {
            platform: "TX2",
            slam_speedup: 2.16,
            power_overhead: Watts(10.0),
            weight_overhead: Grams(85.0),
            gained_minutes_small: -4.0,
            gained_minutes_large: -1.5,
        },
        Table5Row {
            platform: "FPGA",
            slam_speedup: 30.70,
            power_overhead: Watts(0.417),
            weight_overhead: Grams(75.0),
            gained_minutes_small: 2.5,
            gained_minutes_large: 1.0,
        },
        Table5Row {
            platform: "ASIC",
            slam_speedup: 23.53,
            power_overhead: Watts(0.024),
            weight_overhead: Grams(20.0),
            gained_minutes_small: 2.7,
            gained_minutes_large: 1.0,
        },
    ]
}

/// §5.1 RPi power levels on the authors' drone (Figure 16a).
pub mod rpi_power {
    use crate::units::Watts;
    /// Autopilot alone.
    pub const AUTOPILOT: Watts = Watts(3.39);
    /// Autopilot plus idle SLAM (drone not flying).
    pub const AUTOPILOT_SLAM_IDLE: Watts = Watts(4.05);
    /// Autopilot plus actively processing SLAM during flight (average).
    pub const AUTOPILOT_SLAM_FLYING: Watts = Watts(4.56);
    /// Peak during flight.
    pub const PEAK: Watts = Watts(5.0);
}

/// §5.1 whole-drone power on the authors' 450 mm build (Figure 16b):
/// ~130 W average at 30 % flying load, peaks ~250 W at 58 % load.
pub mod drone_power {
    use crate::units::Watts;
    /// Average in-flight power.
    pub const AVERAGE: Watts = Watts(130.0);
    /// Peak with simple movements.
    pub const PEAK: Watts = Watts(250.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn battery_fits_cover_all_configs() {
        for c in CellCount::ALL {
            let f = battery_weight_fit(c);
            assert!(f.slope > 0.0, "{c}");
            // Predicted weight at 5 Ah must be positive and under 2 kg.
            let w = f.predict(5000.0);
            assert!((0.0..2000.0).contains(&w), "{c}: {w}");
        }
    }

    #[test]
    fn battery_fit_slopes_increase_with_cells() {
        // More cells at equal capacity = strictly more weight (slope at
        // 5 Ah); the S4/S5 pair crosses in intercept but not at scale.
        let w3 = battery_weight_fit(CellCount::S3).predict(5000.0);
        let w4 = battery_weight_fit(CellCount::S4).predict(5000.0);
        let w6 = battery_weight_fit(CellCount::S6).predict(5000.0);
        assert!(w3 < w4 && w4 < w6);
    }

    #[test]
    fn esc_long_flight_heavier_at_scale() {
        let long = esc_long_flight_fit();
        let short = esc_short_flight_fit();
        // Racing ESCs are lighter at high current (they overheat in long
        // flights instead).
        assert!(long.predict(60.0) > short.predict(60.0));
    }

    #[test]
    fn table4_groups_nonempty() {
        let t = table4();
        for g in [
            Table4Group::BasicController,
            Table4Group::ImprovedController,
            Table4Group::FpvCamera,
            Table4Group::Lidar,
        ] {
            assert!(t.iter().any(|r| r.group == g), "{g:?} missing");
        }
        // Table ordering check: basic controllers stay under ~2 W.
        assert!(t
            .iter()
            .filter(|r| r.group == Table4Group::BasicController)
            .all(|r| r.power.0 <= 2.0));
    }

    #[test]
    fn figure14_totals_match_paper_drone() {
        let total: f64 = our_drone_weight_breakdown().iter().map(|(_, w)| w.0).sum();
        // Paper drone: ~1.07 kg with frame 25 % share.
        assert!((1000.0..1150.0).contains(&total), "total {total}");
        let frame = our_drone_weight_breakdown()[0].1 .0;
        let share = frame / total;
        assert!((0.22..0.28).contains(&share), "frame share {share}");
    }

    #[test]
    fn table5_fpga_wins() {
        let t = table5();
        let fpga = t.iter().find(|r| r.platform == "FPGA").unwrap();
        let tx2 = t.iter().find(|r| r.platform == "TX2").unwrap();
        assert!(fpga.slam_speedup > 10.0 * tx2.slam_speedup / 2.16);
        assert!(fpga.gained_minutes_small > 0.0);
        assert!(tx2.gained_minutes_small < 0.0);
    }

    #[test]
    fn figure11_selection() {
        let f11 = figure11_drones();
        assert_eq!(f11.len(), 6);
        assert_eq!(f11[0].name, "Parrot Mambo");
        assert_eq!(f11[5].name, "Skydio 2");
    }

    #[test]
    fn best_flight_times() {
        assert_eq!(best_flight_time_minutes(100.0), Some(23.0));
        assert_eq!(best_flight_time_minutes(450.0), Some(19.0));
        assert_eq!(best_flight_time_minutes(800.0), Some(22.0));
        assert_eq!(best_flight_time_minutes(333.0), None);
    }

    #[test]
    fn best_flight_times_tolerate_grid_float_error() {
        // Truncation used to map 449.999 -> 449 -> None.
        assert_eq!(best_flight_time_minutes(449.999), Some(19.0));
        assert_eq!(best_flight_time_minutes(450.001), Some(19.0));
        assert_eq!(best_flight_time_minutes(99.76), Some(23.0));
        // Half a millimetre off is a different design point, not noise.
        assert_eq!(best_flight_time_minutes(100.5), None);
        assert_eq!(best_flight_time_minutes(449.6), None);
        assert_eq!(best_flight_time_minutes(f64::NAN), None);
        assert_eq!(best_flight_time_minutes(f64::INFINITY), None);
        assert_eq!(best_flight_time_minutes(-450.0), None);
    }
}
