//! Compute-board power-state machine (paper Figure 16a).
//!
//! The paper logs the RPi through five phases: disconnected → booted with
//! the autopilot running (3.39 W) → SLAM started but idle (4.05 W) → SLAM
//! actively processing during flight (4.56 W average, 5 W peak) →
//! shut down. [`BoardPowerModel`] reproduces that phase→power mapping
//! with noise-free nominal values plus a deterministic activity ripple.

use drone_components::units::Watts;
use drone_math::Pcg32;
use std::fmt;

/// Activity phase of the companion compute board.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComputePhase {
    /// Power disconnected.
    Off,
    /// Board on, idle (no autopilot).
    Idle,
    /// Autopilot software running.
    Autopilot,
    /// Autopilot + SLAM started but input-starved (not flying).
    AutopilotSlamIdle,
    /// Autopilot + SLAM actively processing camera frames in flight.
    AutopilotSlamActive,
}

impl fmt::Display for ComputePhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ComputePhase::Off => "off",
            ComputePhase::Idle => "idle",
            ComputePhase::Autopilot => "autopilot",
            ComputePhase::AutopilotSlamIdle => "autopilot+slam(idle)",
            ComputePhase::AutopilotSlamActive => "autopilot+slam(flying)",
        })
    }
}

/// Phase→power model for a companion board.
///
/// # Example
///
/// ```
/// use drone_platform::{BoardPowerModel, ComputePhase};
/// let rpi = BoardPowerModel::rpi_figure16();
/// let p = rpi.nominal(ComputePhase::Autopilot);
/// assert!((p.0 - 3.39).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BoardPowerModel {
    idle: Watts,
    autopilot: Watts,
    slam_idle: Watts,
    slam_active: Watts,
    peak: Watts,
    ripple_fraction: f64,
}

impl BoardPowerModel {
    /// The paper's measured RPi levels (§5.1 / Figure 16a).
    pub fn rpi_figure16() -> BoardPowerModel {
        BoardPowerModel {
            idle: Watts(2.3),
            autopilot: Watts(3.39),
            slam_idle: Watts(4.05),
            slam_active: Watts(4.56),
            peak: Watts(5.0),
            ripple_fraction: 0.04,
        }
    }

    /// A custom model.
    ///
    /// # Panics
    ///
    /// Panics unless `idle ≤ autopilot ≤ slam_idle ≤ slam_active ≤ peak`.
    pub fn new(
        idle: Watts,
        autopilot: Watts,
        slam_idle: Watts,
        slam_active: Watts,
        peak: Watts,
    ) -> BoardPowerModel {
        assert!(
            idle.0 <= autopilot.0
                && autopilot.0 <= slam_idle.0
                && slam_idle.0 <= slam_active.0
                && slam_active.0 <= peak.0,
            "phase power levels must be non-decreasing"
        );
        BoardPowerModel {
            idle,
            autopilot,
            slam_idle,
            slam_active,
            peak,
            ripple_fraction: 0.04,
        }
    }

    /// Nominal power of a phase.
    pub fn nominal(&self, phase: ComputePhase) -> Watts {
        match phase {
            ComputePhase::Off => Watts::ZERO,
            ComputePhase::Idle => self.idle,
            ComputePhase::Autopilot => self.autopilot,
            ComputePhase::AutopilotSlamIdle => self.slam_idle,
            ComputePhase::AutopilotSlamActive => self.slam_active,
        }
    }

    /// Peak power (active SLAM bursts).
    pub fn peak(&self) -> Watts {
        self.peak
    }

    /// Instantaneous sample with activity ripple, deterministic per rng.
    /// Active-SLAM phases occasionally burst toward the peak.
    pub fn sample(&self, phase: ComputePhase, rng: &mut Pcg32) -> Watts {
        let nominal = self.nominal(phase);
        if nominal.0 == 0.0 {
            return Watts::ZERO;
        }
        let ripple = nominal.0 * self.ripple_fraction * rng.normal();
        let burst = if phase == ComputePhase::AutopilotSlamActive && rng.chance(0.05) {
            (self.peak.0 - nominal.0) * rng.next_f64()
        } else {
            0.0
        };
        Watts((nominal.0 + ripple + burst).clamp(0.0, self.peak.0))
    }

    /// Generates the Figure 16a-style trace: a list of
    /// `(phase, duration_s)` segments sampled at `rate_hz` →
    /// `(time, watts, phase)` triples.
    ///
    /// # Panics
    ///
    /// Panics if `rate_hz` is not positive.
    pub fn trace(
        &self,
        segments: &[(ComputePhase, f64)],
        rate_hz: f64,
        seed: u64,
    ) -> Vec<(f64, Watts, ComputePhase)> {
        assert!(rate_hz > 0.0, "sample rate must be positive");
        let mut rng = Pcg32::seed_from(seed);
        let mut out = Vec::new();
        let mut t = 0.0;
        let dt = 1.0 / rate_hz;
        for &(phase, duration) in segments {
            let n = (duration * rate_hz).round() as usize;
            for _ in 0..n {
                out.push((t, self.sample(phase, &mut rng), phase));
                t += dt;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure16_levels() {
        let m = BoardPowerModel::rpi_figure16();
        assert_eq!(m.nominal(ComputePhase::Off), Watts::ZERO);
        assert!((m.nominal(ComputePhase::Autopilot).0 - 3.39).abs() < 1e-9);
        assert!((m.nominal(ComputePhase::AutopilotSlamIdle).0 - 4.05).abs() < 1e-9);
        assert!((m.nominal(ComputePhase::AutopilotSlamActive).0 - 4.56).abs() < 1e-9);
        assert!((m.peak().0 - 5.0).abs() < 1e-9);
    }

    #[test]
    fn phases_are_monotone() {
        let m = BoardPowerModel::rpi_figure16();
        let order = [
            ComputePhase::Off,
            ComputePhase::Idle,
            ComputePhase::Autopilot,
            ComputePhase::AutopilotSlamIdle,
            ComputePhase::AutopilotSlamActive,
        ];
        for pair in order.windows(2) {
            assert!(m.nominal(pair[0]).0 <= m.nominal(pair[1]).0);
        }
    }

    #[test]
    fn samples_stay_bounded_and_average_to_nominal() {
        let m = BoardPowerModel::rpi_figure16();
        let mut rng = Pcg32::seed_from(3);
        let mut sum = 0.0;
        let n = 20_000;
        for _ in 0..n {
            let p = m.sample(ComputePhase::Autopilot, &mut rng);
            assert!(p.0 > 0.0 && p.0 <= m.peak().0);
            sum += p.0;
        }
        let mean = sum / n as f64;
        assert!((mean - 3.39).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn active_slam_bursts_toward_peak() {
        let m = BoardPowerModel::rpi_figure16();
        let mut rng = Pcg32::seed_from(4);
        let mut max: f64 = 0.0;
        for _ in 0..5000 {
            max = max.max(m.sample(ComputePhase::AutopilotSlamActive, &mut rng).0);
        }
        assert!(max > 4.7, "never bursts: {max}");
    }

    #[test]
    fn trace_covers_segments_in_order() {
        let m = BoardPowerModel::rpi_figure16();
        let segs = [
            (ComputePhase::Autopilot, 2.0),
            (ComputePhase::AutopilotSlamIdle, 1.0),
            (ComputePhase::AutopilotSlamActive, 3.0),
        ];
        let trace = m.trace(&segs, 2.0, 7);
        assert_eq!(trace.len(), 12);
        assert_eq!(trace[0].2, ComputePhase::Autopilot);
        assert_eq!(trace[5].2, ComputePhase::AutopilotSlamIdle);
        assert_eq!(trace[11].2, ComputePhase::AutopilotSlamActive);
        // Time increases monotonically.
        for pair in trace.windows(2) {
            assert!(pair[1].0 > pair[0].0);
        }
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn unordered_levels_panic() {
        let _ = BoardPowerModel::new(Watts(5.0), Watts(1.0), Watts(2.0), Watts(3.0), Watts(4.0));
    }
}
