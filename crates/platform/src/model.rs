//! Compute-platform models for SLAM offload (paper §5.2, Table 5).
//!
//! The paper evaluates four execution targets for ORB-SLAM: the RPi 4
//! baseline, an Nvidia Jetson TX2, a ZYNQ XC7Z020 FPGA (Vivado HLS
//! implementation accelerating bundle adjustment, plus the eSLAM
//! feature-extraction design), and the Navion ASIC. Each reduces to
//! per-stage speedups plus power/weight/cost overheads.

use drone_components::units::{Grams, Watts};
use std::fmt;

/// Broad class of a compute platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlatformKind {
    /// General-purpose embedded CPU (the RPi-class baseline).
    EmbeddedCpu,
    /// Embedded GPU system (Jetson-class).
    EmbeddedGpu,
    /// FPGA fabric with a tailored microarchitecture.
    Fpga,
    /// Fixed-function ASIC.
    Asic,
}

/// Qualitative cost level (Table 5's integration/fabrication rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CostLevel {
    /// Off-the-shelf.
    Low,
    /// Requires HDL/HLS engineering.
    Medium,
    /// Requires chip fabrication.
    High,
}

impl fmt::Display for CostLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CostLevel::Low => "low",
            CostLevel::Medium => "medium",
            CostLevel::High => "high",
        })
    }
}

/// Per-SLAM-stage speedups over the RPi baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageSpeedups {
    /// Feature extraction + matching.
    pub feature_extraction: f64,
    /// Local bundle adjustment.
    pub local_ba: f64,
    /// Global bundle adjustment.
    pub global_ba: f64,
}

impl StageSpeedups {
    /// Uniform speedup across stages.
    pub fn uniform(factor: f64) -> StageSpeedups {
        StageSpeedups {
            feature_extraction: factor,
            local_ba: factor,
            global_ba: factor,
        }
    }
}

/// A SLAM execution platform.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    /// Product/implementation name.
    pub name: String,
    /// Platform class.
    pub kind: PlatformKind,
    /// Per-stage speedups over the RPi baseline.
    pub speedups: StageSpeedups,
    /// Power drawn while running SLAM.
    pub power: Watts,
    /// Weight added to the airframe.
    pub weight: Grams,
    /// Integration (board/bring-up) cost.
    pub integration_cost: CostLevel,
    /// Fabrication cost.
    pub fabrication_cost: CostLevel,
}

impl Platform {
    /// The paper's baseline: ORB-SLAM on a dedicated Raspberry Pi 4
    /// (≈2 W SLAM power overhead, ≈50 g).
    pub fn raspberry_pi4() -> Platform {
        Platform {
            name: "RPi".to_owned(),
            kind: PlatformKind::EmbeddedCpu,
            speedups: StageSpeedups::uniform(1.0),
            power: Watts(2.0),
            weight: Grams(50.0),
            integration_cost: CostLevel::Low,
            fabrication_cost: CostLevel::Low,
        }
    }

    /// Nvidia Jetson TX2: the GPU pays off on data-parallel feature
    /// extraction but only ~2× on the irregular bundle adjustments —
    /// overall 2.16× (Figure 17 GMean) at 10 W / 85 g.
    pub fn jetson_tx2() -> Platform {
        Platform {
            name: "TX2".to_owned(),
            kind: PlatformKind::EmbeddedGpu,
            speedups: StageSpeedups {
                feature_extraction: 5.0,
                local_ba: 2.0,
                global_ba: 2.0,
            },
            power: Watts(10.0),
            weight: Grams(85.0),
            integration_cost: CostLevel::Low,
            fabrication_cost: CostLevel::Low,
        }
    }

    /// ZYNQ XC7Z020 FPGA (paper's Vivado HLS design): pipelined dense
    /// fixed-size matrix algebra accelerates the bundle adjustments
    /// (~90 % of RPi runtime) ~45×, plus the eSLAM feature-extraction
    /// engine ~8× — overall 30.7× at 417 mW / ~75 g.
    pub fn zynq_fpga() -> Platform {
        Platform {
            name: "FPGA".to_owned(),
            kind: PlatformKind::Fpga,
            speedups: StageSpeedups {
                feature_extraction: 8.0,
                local_ba: 45.0,
                global_ba: 45.0,
            },
            power: Watts(0.417),
            weight: Grams(75.0),
            integration_cost: CostLevel::Medium,
            fabrication_cost: CostLevel::Medium,
        }
    }

    /// Navion-class ASIC (Suleiman et al., 65 nm): 23.53× at 24 mW /
    /// ~20 g, but chip fabrication costs.
    pub fn navion_asic() -> Platform {
        Platform {
            name: "ASIC".to_owned(),
            kind: PlatformKind::Asic,
            speedups: StageSpeedups {
                feature_extraction: 10.0,
                local_ba: 28.0,
                global_ba: 28.0,
            },
            power: Watts(0.024),
            weight: Grams(20.0),
            integration_cost: CostLevel::High,
            fabrication_cost: CostLevel::High,
        }
    }

    /// All four Table 5 platforms in table order.
    pub fn table5_lineup() -> Vec<Platform> {
        vec![
            Platform::raspberry_pi4(),
            Platform::jetson_tx2(),
            Platform::zynq_fpga(),
            Platform::navion_asic(),
        ]
    }

    /// Overall speedup on a workload whose RPi time fractions are
    /// `feature` / `local_ba` / `global_ba` (Amdahl composition).
    ///
    /// # Panics
    ///
    /// Panics if the fractions are negative or sum to more than 1 + ε.
    pub fn overall_speedup(&self, feature: f64, local_ba: f64, global_ba: f64) -> f64 {
        assert!(
            feature >= 0.0 && local_ba >= 0.0 && global_ba >= 0.0,
            "stage fractions must be non-negative"
        );
        let total = feature + local_ba + global_ba;
        assert!(total <= 1.0 + 1e-9, "stage fractions sum to {total} > 1");
        let other = (1.0 - total).max(0.0); // unaccelerated remainder
        let new_time = feature / self.speedups.feature_extraction
            + local_ba / self.speedups.local_ba
            + global_ba / self.speedups.global_ba
            + other;
        1.0 / new_time
    }

    /// Power delta versus the RPi baseline (positive = costs power).
    pub fn power_overhead_vs_rpi(&self) -> Watts {
        Watts(self.power.0 - Platform::raspberry_pi4().power.0)
    }

    /// Weight delta versus the RPi baseline.
    pub fn weight_overhead_vs_rpi(&self) -> Grams {
        Grams(self.weight.0 - Platform::raspberry_pi4().weight.0)
    }
}

impl fmt::Display for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({:?}, {}, {})",
            self.name, self.kind, self.power, self.weight
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's measured RPi profile: ~10 % features, ~90 % BA.
    const PROFILE: (f64, f64, f64) = (0.10, 0.45, 0.45);

    #[test]
    fn tx2_overall_speedup_matches_table5() {
        let s = Platform::jetson_tx2().overall_speedup(PROFILE.0, PROFILE.1, PROFILE.2);
        assert!((s - 2.16).abs() < 0.25, "TX2 speedup {s}");
    }

    #[test]
    fn fpga_overall_speedup_matches_table5() {
        let s = Platform::zynq_fpga().overall_speedup(PROFILE.0, PROFILE.1, PROFILE.2);
        assert!((s - 30.7).abs() < 3.0, "FPGA speedup {s}");
    }

    #[test]
    fn asic_overall_speedup_matches_table5() {
        let s = Platform::navion_asic().overall_speedup(PROFILE.0, PROFILE.1, PROFILE.2);
        assert!((s - 23.53).abs() < 3.0, "ASIC speedup {s}");
    }

    #[test]
    fn baseline_speedup_is_one() {
        let s = Platform::raspberry_pi4().overall_speedup(PROFILE.0, PROFILE.1, PROFILE.2);
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn power_ordering_matches_table5() {
        // TX2 > RPi > FPGA > ASIC in power.
        let [rpi, tx2, fpga, asic]: [Platform; 4] = Platform::table5_lineup().try_into().unwrap();
        assert!(tx2.power > rpi.power);
        assert!(rpi.power > fpga.power);
        assert!(fpga.power > asic.power);
        // Overheads vs RPi: TX2 positive, FPGA/ASIC negative.
        assert!(tx2.power_overhead_vs_rpi().0 > 0.0);
        assert!(fpga.power_overhead_vs_rpi().0 < 0.0);
        assert!(asic.power_overhead_vs_rpi().0 < 0.0);
    }

    #[test]
    fn cost_levels_match_table5() {
        let fpga = Platform::zynq_fpga();
        let asic = Platform::navion_asic();
        assert_eq!(fpga.integration_cost, CostLevel::Medium);
        assert_eq!(asic.fabrication_cost, CostLevel::High);
        assert!(asic.fabrication_cost > fpga.fabrication_cost);
    }

    #[test]
    fn amdahl_composition_sanity() {
        // With zero accelerated fraction the speedup collapses to 1.
        let fpga = Platform::zynq_fpga();
        assert!((fpga.overall_speedup(0.0, 0.0, 0.0) - 1.0).abs() < 1e-12);
        // Speedup is bounded by the best stage factor.
        let s = fpga.overall_speedup(0.0, 0.5, 0.5);
        assert!(s <= 45.0 + 1e-9);
    }

    #[test]
    #[should_panic(expected = "stage fractions sum")]
    fn overfull_fractions_panic() {
        let _ = Platform::raspberry_pi4().overall_speedup(0.5, 0.5, 0.5);
    }
}
