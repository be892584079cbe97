//! Design-space sweeps — Figure 10.
//!
//! Per wheelbase (100 / 450 / 800 mm in the paper), sweep battery
//! capacity 1000–8000 mAh across cell configurations and record total
//! power vs take-off weight (Figures 10a–c) and the computation power
//! share for 3 W and 20 W chips at hover and maneuver (Figures 10d–f).

use crate::eval::{evaluate_many, DesignQuery};
use drone_components::battery::CellCount;
use drone_components::units::Minutes;

/// One Figure 10a–c point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Battery cells.
    pub cells: CellCount,
    /// Battery capacity, mAh.
    pub capacity_mah: f64,
    /// Take-off weight, g.
    pub weight_g: f64,
    /// Average hover power, W.
    pub hover_power_w: f64,
    /// Hover flight time, min.
    pub flight_time_min: f64,
}

/// One Figure 10d–f point.
#[derive(Debug, Clone, PartialEq)]
pub struct FootprintPoint {
    /// Take-off weight, g.
    pub weight_g: f64,
    /// Compute share with a 3 W chip while hovering.
    pub basic_hover: f64,
    /// Compute share with a 3 W chip while maneuvering.
    pub basic_maneuver: f64,
    /// Compute share with a 20 W chip while hovering.
    pub advanced_hover: f64,
    /// Compute share with a 20 W chip while maneuvering.
    pub advanced_maneuver: f64,
}

/// The sweep over one wheelbase.
#[derive(Debug, Clone, PartialEq)]
pub struct WheelbaseSweep {
    /// Wheelbase, mm.
    pub wheelbase_mm: f64,
    /// Power/weight curve points grouped by cell count (Figure 10a–c).
    pub points: Vec<SweepPoint>,
    /// Compute-footprint points (Figure 10d–f).
    pub footprint: Vec<FootprintPoint>,
}

impl WheelbaseSweep {
    /// Runs the sweep: capacities 1000–8000 mAh in `steps` steps across
    /// the given cell configurations (the paper plots 1S/3S/6S).
    ///
    /// Infeasible corners (battery can't discharge fast enough, sizing
    /// diverges) are skipped, exactly as the paper's plots leave gaps.
    ///
    /// # Panics
    ///
    /// Panics if `steps < 2`.
    pub fn run(wheelbase_mm: f64, cells: &[CellCount], steps: usize) -> WheelbaseSweep {
        assert!(steps >= 2, "need at least two sweep steps");
        // One batched kernel call for the whole sweep: both chip
        // variants of every corner, interleaved (3 W at 2j, 20 W at
        // 2j+1). The single-wheelbase batch hoists the frame/propeller
        // geometry once for all `cells × steps × 2` points.
        let mut corners: Vec<(CellCount, f64)> = Vec::with_capacity(cells.len() * steps);
        let mut queries: Vec<DesignQuery> = Vec::with_capacity(cells.len() * steps * 2);
        for &cell in cells {
            for i in 0..steps {
                let capacity = 1000.0 + (8000.0 - 1000.0) * i as f64 / (steps - 1) as f64;
                let query = DesignQuery::new(wheelbase_mm, cell, capacity);
                corners.push((cell, capacity));
                queries.push(query.with_compute_power(3.0));
                queries.push(query.with_compute_power(20.0));
            }
        }
        let results = evaluate_many(&queries);
        let mut points = Vec::new();
        let mut footprint = Vec::new();
        for (j, &(cell, capacity)) in corners.iter().enumerate() {
            // Both chips must size before either vector grows: a corner
            // where only one sizes would otherwise desynchronize
            // `points` and `footprint`.
            let (Ok(basic), Ok(advanced)) = (&results[2 * j], &results[2 * j + 1]) else {
                continue;
            };
            points.push(SweepPoint {
                cells: cell,
                capacity_mah: capacity,
                weight_g: basic.weight_g,
                hover_power_w: basic.hover_power_w,
                flight_time_min: basic.flight_time_min,
            });
            footprint.push(FootprintPoint {
                weight_g: basic.weight_g,
                basic_hover: basic.compute_share_hover,
                basic_maneuver: basic.compute_share_maneuver,
                advanced_hover: advanced.compute_share_hover,
                advanced_maneuver: advanced.compute_share_maneuver,
            });
        }
        points.sort_by(|a, b| a.weight_g.total_cmp(&b.weight_g));
        footprint.sort_by(|a, b| a.weight_g.total_cmp(&b.weight_g));
        WheelbaseSweep {
            wheelbase_mm,
            points,
            footprint,
        }
    }

    /// The paper's three wheelbases with 1S/3S/6S batteries.
    pub fn paper_figure10() -> Vec<WheelbaseSweep> {
        let cells = [CellCount::S1, CellCount::S3, CellCount::S6];
        [100.0, 450.0, 800.0]
            .into_iter()
            .map(|wb| WheelbaseSweep::run(wb, &cells, 15))
            .collect()
    }

    /// The best (longest-hover) configuration in the sweep.
    pub fn best_configuration(&self) -> Option<&SweepPoint> {
        self.points
            .iter()
            .max_by(|a, b| a.flight_time_min.total_cmp(&b.flight_time_min))
    }

    /// Best flight time, if any design was feasible.
    pub fn best_flight_time(&self) -> Option<Minutes> {
        self.best_configuration()
            .map(|p| Minutes(p.flight_time_min))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;

    #[test]
    fn sweep_produces_points() {
        let sweep = WheelbaseSweep::run(450.0, &[CellCount::S3], 8);
        assert!(sweep.points.len() >= 6, "{} points", sweep.points.len());
        assert_eq!(sweep.points.len(), sweep.footprint.len());
    }

    #[test]
    fn points_and_footprint_stay_in_lockstep_when_20w_resize_fails() {
        // Regression: tiny 1S frames size fine with a 3 W chip but trip
        // the battery discharge limit once the 20 W chip's 90 g board is
        // added. The old loop kept the basic point and `continue`d past
        // the footprint row, desynchronizing the two vectors.
        let basic = evaluate(&DesignQuery::new(60.0, CellCount::S1, 1000.0));
        let advanced =
            evaluate(&DesignQuery::new(60.0, CellCount::S1, 1000.0).with_compute_power(20.0));
        assert!(basic.is_ok(), "scenario needs a feasible 3 W point");
        assert!(
            advanced.is_err(),
            "scenario needs an infeasible 20 W re-size"
        );

        let sweep = WheelbaseSweep::run(60.0, &[CellCount::S1], 8);
        assert_eq!(sweep.points.len(), sweep.footprint.len());
        assert!(
            !sweep.points.is_empty(),
            "some corners are feasible for both chips"
        );
        for (p, fp) in sweep.points.iter().zip(&sweep.footprint) {
            assert_eq!(
                p.weight_g, fp.weight_g,
                "rows must describe the same design"
            );
        }
    }

    #[test]
    fn power_grows_with_weight() {
        // Figure 10a–c: the power/weight curve rises.
        let sweep = WheelbaseSweep::run(450.0, &[CellCount::S3], 10);
        let first = &sweep.points[0];
        let last = &sweep.points[sweep.points.len() - 1];
        assert!(last.weight_g > first.weight_g);
        assert!(last.hover_power_w > first.hover_power_w);
    }

    #[test]
    fn best_flight_times_match_paper_validation() {
        // §3.2: best configurations fly ~23 / 19 / 22 minutes for
        // 100 / 450 / 800 mm. Allow a generous band — we validate the
        // shape, not the authors' exact component catalog.
        // Our component catalog admits endurance-oriented 6S configs
        // the paper's best-config search apparently did not, so the
        // upper band is generous; EXPERIMENTS.md records the exact
        // model-vs-paper numbers.
        for (wb, expected) in [(100.0, 23.0), (450.0, 19.0), (800.0, 22.0)] {
            let sweep = WheelbaseSweep::run(wb, &[CellCount::S1, CellCount::S3, CellCount::S6], 10);
            let best = sweep.best_flight_time().expect("feasible designs exist").0;
            assert!(
                (expected - 12.0..=expected + 25.0).contains(&best),
                "{wb} mm: best {best:.1} min vs paper {expected}"
            );
        }
    }

    #[test]
    fn compute_share_ranges_match_section32() {
        // §3.2: 3 W < 5 %; 20 W drops toward ~10 % when maneuvering;
        // overall range 2–30 %.
        let sweep = WheelbaseSweep::run(450.0, &[CellCount::S3], 10);
        for p in &sweep.footprint {
            assert!(p.basic_hover < 0.08, "3 W hover share {}", p.basic_hover);
            assert!(p.advanced_hover > p.advanced_maneuver);
            assert!(p.advanced_hover < 0.35);
            assert!(p.basic_maneuver < p.basic_hover);
        }
    }

    #[test]
    fn heavier_drones_have_smaller_compute_share() {
        let sweep = WheelbaseSweep::run(800.0, &[CellCount::S6], 10);
        let first = &sweep.footprint[0];
        let last = &sweep.footprint[sweep.footprint.len() - 1];
        assert!(last.advanced_hover < first.advanced_hover);
    }

    #[test]
    fn paper_figure10_covers_three_wheelbases() {
        let sweeps = WheelbaseSweep::paper_figure10();
        assert_eq!(sweeps.len(), 3);
        assert!(sweeps.iter().all(|s| !s.points.is_empty()));
    }

    #[test]
    #[should_panic(expected = "at least two sweep steps")]
    fn one_step_panics() {
        let _ = WheelbaseSweep::run(450.0, &[CellCount::S3], 1);
    }
}
