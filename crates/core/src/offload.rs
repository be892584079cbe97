//! SLAM offload analysis — Figure 17 aggregation and Table 5.
//!
//! Combines three ingredients built elsewhere in the workspace:
//! the measured per-stage SLAM profile ([`drone_slam::StageProfile`]),
//! the platform models ([`drone_platform::model::Platform`]), and the
//! flight-time model (this crate) — then answers the paper's question:
//! *which platform should run SLAM on a drone?*

use drone_components::units::{Grams, Minutes, Watts};
use drone_platform::model::Platform;
use drone_slam::StageProfile;
use std::fmt;

/// Speedup of a platform over the RPi baseline on a measured profile.
pub fn platform_speedup(platform: &Platform, profile: &StageProfile) -> f64 {
    let (feature, local, global) = profile.fractions();
    platform.overall_speedup(feature, local, global)
}

/// A drone class for the Table 5 gained-flight-time rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DroneClass {
    /// Class label.
    pub name: &'static str,
    /// Total average flight power, W.
    pub total_power: Watts,
    /// Take-off weight, g.
    pub weight: Grams,
    /// Baseline flight time, min (Table 5 footnote: 15 min).
    pub baseline_minutes: f64,
}

impl DroneClass {
    /// The paper's "small drones" (Mambo/Spark class: ~10–15 W total).
    pub fn small() -> DroneClass {
        DroneClass {
            name: "small",
            total_power: Watts(12.0),
            weight: Grams(400.0),
            baseline_minutes: 15.0,
        }
    }

    /// The paper's "large drones" (the 450 mm class at ~130–140 W).
    pub fn large() -> DroneClass {
        DroneClass {
            name: "large",
            total_power: Watts(140.0),
            weight: Grams(2000.0),
            baseline_minutes: 15.0,
        }
    }
}

/// One Table 5 row, computed.
#[derive(Debug, Clone, PartialEq)]
pub struct OffloadRow {
    /// Platform name.
    pub platform: String,
    /// Speedup over RPi on the measured profile.
    pub slam_speedup: f64,
    /// Power overhead vs the RPi baseline, W.
    pub power_overhead_w: f64,
    /// Weight overhead vs the RPi baseline, g.
    pub weight_overhead_g: f64,
    /// Gained flight minutes on the small-drone class.
    pub gained_minutes_small: f64,
    /// Gained flight minutes on the large-drone class.
    pub gained_minutes_large: f64,
}

impl fmt::Display for OffloadRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<5} {:>7.2}x {:>+8.2} W {:>+6.0} g {:>+6.1} min {:>+6.1} min",
            self.platform,
            self.slam_speedup,
            self.power_overhead_w,
            self.weight_overhead_g,
            self.gained_minutes_small,
            self.gained_minutes_large
        )
    }
}

/// Gained flight time when swapping the RPi for `platform` on a drone
/// class. Follows the paper's Table 5 arithmetic — the compute power
/// delta against a fixed total draw (`ΔT ≈ T·P/(P+ΔP) − T`); the weight
/// overhead is reported as its own column, exactly as the paper's table
/// does, rather than folded into the gain.
pub fn gained_minutes(platform: &Platform, class: &DroneClass) -> Minutes {
    let d_power = platform.power_overhead_vs_rpi().0;
    let new_total = (class.total_power.0 + d_power).max(0.5);
    let new_minutes = class.baseline_minutes * class.total_power.0 / new_total;
    Minutes(new_minutes - class.baseline_minutes)
}

/// Computes the full Table 5 from a measured SLAM profile.
pub fn table5(profile: &StageProfile) -> Vec<OffloadRow> {
    let small = DroneClass::small();
    let large = DroneClass::large();
    Platform::table5_lineup()
        .iter()
        .map(|p| OffloadRow {
            platform: p.name.clone(),
            slam_speedup: platform_speedup(p, profile),
            power_overhead_w: p.power_overhead_vs_rpi().0,
            weight_overhead_g: p.weight_overhead_vs_rpi().0,
            gained_minutes_small: gained_minutes(p, &small).0,
            gained_minutes_large: gained_minutes(p, &large).0,
        })
        .collect()
}

/// The winner of the cost/benefit tradeoff (paper conclusion: FPGA) —
/// the platform with the best gained-time among those not requiring
/// chip fabrication.
pub fn most_cost_effective(rows: &[OffloadRow]) -> Option<&OffloadRow> {
    rows.iter()
        .filter(|r| {
            let lineup = Platform::table5_lineup();
            lineup
                .iter()
                .find(|p| p.name == r.platform)
                .is_some_and(|p| p.fabrication_cost < drone_platform::model::CostLevel::High)
        })
        .max_by(|a, b| {
            a.gained_minutes_small
                .partial_cmp(&b.gained_minutes_small)
                .expect("finite gains")
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's measured RPi profile shape: ~10 % feature, ~90 % BA.
    fn paper_profile() -> StageProfile {
        StageProfile {
            feature_matching_s: 10.0,
            local_ba_s: 45.0,
            global_ba_s: 45.0,
        }
    }

    #[test]
    fn speedups_match_table5() {
        let profile = paper_profile();
        let rows = table5(&profile);
        let get = |name: &str| rows.iter().find(|r| r.platform == name).unwrap();
        assert!((get("RPi").slam_speedup - 1.0).abs() < 1e-9);
        assert!(
            (get("TX2").slam_speedup - 2.16).abs() < 0.3,
            "{}",
            get("TX2").slam_speedup
        );
        assert!(
            (get("FPGA").slam_speedup - 30.7).abs() < 3.5,
            "{}",
            get("FPGA").slam_speedup
        );
        assert!(
            (get("ASIC").slam_speedup - 23.5).abs() < 3.5,
            "{}",
            get("ASIC").slam_speedup
        );
    }

    #[test]
    fn gained_minutes_signs_match_table5() {
        let rows = table5(&paper_profile());
        let get = |name: &str| rows.iter().find(|r| r.platform == name).unwrap();
        // TX2 costs flight time on both classes; FPGA and ASIC gain.
        assert!(get("TX2").gained_minutes_small < -1.0);
        assert!(get("TX2").gained_minutes_large < 0.0);
        assert!(get("FPGA").gained_minutes_small > 1.0);
        assert!(get("FPGA").gained_minutes_large > 0.0);
        assert!(get("ASIC").gained_minutes_small > 1.0);
        assert!((get("RPi").gained_minutes_small).abs() < 1e-9);
    }

    #[test]
    fn fpga_gains_2_to_3_minutes_small() {
        // Paper: "+2–3 minutes of additional flight time" for small
        // drones on FPGA.
        let rows = table5(&paper_profile());
        let fpga = rows.iter().find(|r| r.platform == "FPGA").unwrap();
        assert!(
            (1.5..3.5).contains(&fpga.gained_minutes_small),
            "FPGA small gain {}",
            fpga.gained_minutes_small
        );
        // Large drones gain ~1 minute.
        assert!(
            (0.1..1.6).contains(&fpga.gained_minutes_large),
            "FPGA large gain {}",
            fpga.gained_minutes_large
        );
    }

    #[test]
    fn asic_beats_fpga_by_seconds_only() {
        // Paper: fabricating an ASIC "earns us only a few seconds" over
        // the FPGA.
        let rows = table5(&paper_profile());
        let fpga = rows.iter().find(|r| r.platform == "FPGA").unwrap();
        let asic = rows.iter().find(|r| r.platform == "ASIC").unwrap();
        let delta = asic.gained_minutes_small - fpga.gained_minutes_small;
        assert!((0.0..0.8).contains(&delta), "ASIC-FPGA delta {delta} min");
    }

    #[test]
    fn fpga_is_most_cost_effective() {
        // Paper conclusion: FPGA wins once fabrication cost is counted.
        let rows = table5(&paper_profile());
        let winner = most_cost_effective(&rows).expect("a winner exists");
        assert_eq!(winner.platform, "FPGA");
    }

    #[test]
    fn works_on_a_real_pipeline_profile() {
        // End-to-end: run the actual SLAM pipeline and feed its profile.
        let dataset = drone_slam::euroc::Sequence::V101.generate_with_frames(80);
        let result = drone_slam::Pipeline::new(drone_slam::PipelineConfig::default()).run(&dataset);
        let rows = table5(&result.profile);
        let fpga = rows.iter().find(|r| r.platform == "FPGA").unwrap();
        assert!(
            fpga.slam_speedup > 10.0,
            "FPGA speedup {}",
            fpga.slam_speedup
        );
    }
}
