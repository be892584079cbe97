//! Synthetic commercial-component catalog (substitute for the paper's
//! survey of 250 batteries, 40 ESCs and 25 frames).
//!
//! The generators sample populations around the paper's published
//! regression lines with multiplicative scatter that mimics real product
//! spread (manufacturing variation, casing differences, discharge-rate
//! families). [`Catalog::battery_fit`] and friends then **re-derive** the
//! linear relationships by ordinary least squares — the same extraction
//! the paper performs on its survey — so the rest of the workspace can be
//! driven either by the published coefficients or by freshly fitted ones.

use crate::battery::{Battery, CellCount};
use crate::esc::{Esc, EscClass};
use crate::frame::Frame;
use crate::units::{Amps, Grams, MilliampHours, Millimeters};
use drone_math::{LinearFit, Pcg32};

/// Population sizes for a synthesized catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatalogSize {
    /// Number of batteries (paper: 250 across all cell counts).
    pub batteries: usize,
    /// Number of ESCs (paper: 40).
    pub escs: usize,
    /// Number of frames (paper: 25).
    pub frames: usize,
}

impl Default for CatalogSize {
    /// The paper's survey sizes.
    fn default() -> Self {
        CatalogSize {
            batteries: 250,
            escs: 40,
            frames: 25,
        }
    }
}

/// A synthesized commercial-component population.
///
/// # Example
///
/// ```
/// use drone_components::catalog::Catalog;
/// use drone_components::battery::CellCount;
/// let catalog = Catalog::synthesize_default(7);
/// assert_eq!(catalog.batteries.len(), 250);
/// let fit = catalog.battery_fit(CellCount::S6).unwrap();
/// assert!(fit.r_squared > 0.8);
/// ```
#[derive(Debug, Clone)]
pub struct Catalog {
    /// Battery population.
    pub batteries: Vec<Battery>,
    /// ESC population.
    pub escs: Vec<Esc>,
    /// Frame population.
    pub frames: Vec<Frame>,
}

impl Catalog {
    /// Synthesizes a catalog with the paper's survey sizes.
    pub fn synthesize_default(seed: u64) -> Catalog {
        Catalog::synthesize(seed, CatalogSize::default())
    }

    /// Synthesizes a catalog of the given size, deterministically per seed.
    pub fn synthesize(seed: u64, size: CatalogSize) -> Catalog {
        let mut rng = Pcg32::seed_from(seed);
        Catalog {
            batteries: synthesize_batteries(&mut rng, size.batteries),
            escs: synthesize_escs(&mut rng, size.escs),
            frames: synthesize_frames(&mut rng, size.frames),
        }
    }

    /// Batteries of one cell configuration.
    pub fn batteries_with(&self, cells: CellCount) -> impl Iterator<Item = &Battery> {
        self.batteries.iter().filter(move |b| b.cells == cells)
    }

    /// Least-squares weight-vs-capacity fit for one cell configuration
    /// (regenerates one Figure 7 line). `None` with fewer than 2 samples.
    pub fn battery_fit(&self, cells: CellCount) -> Option<LinearFit> {
        LinearFit::fit(
            self.batteries_with(cells)
                .map(|b| (b.capacity.0, b.weight.0)),
        )
    }

    /// Weight-of-four-ESCs vs per-ESC max current fit for one thermal
    /// class (regenerates one Figure 8a line).
    pub fn esc_fit(&self, class: EscClass) -> Option<LinearFit> {
        LinearFit::fit(
            self.escs
                .iter()
                .filter(|e| e.class == class)
                .map(|e| (e.max_continuous_current.0, e.set_of_four_weight().0)),
        )
    }

    /// Frame weight vs wheelbase fit for frames above 200 mm (regenerates
    /// the Figure 8b line).
    pub fn frame_fit(&self) -> Option<LinearFit> {
        LinearFit::fit(
            self.frames
                .iter()
                .filter(|f| f.wheelbase.0 > 200.0)
                .map(|f| (f.wheelbase.0, f.weight.0)),
        )
    }

    /// Validates every refitted line against the paper's published
    /// coefficients, returning `(label, slope_error, intercept_error)`
    /// triples of relative errors.
    pub fn validation_report(&self) -> Vec<(String, f64, f64)> {
        let mut out = Vec::new();
        for cells in CellCount::ALL {
            if let Some(fit) = self.battery_fit(cells) {
                let (se, ie) = fit.relative_error_to(&crate::paper::battery_weight_fit(cells));
                out.push((format!("battery {cells}"), se, ie));
            }
        }
        if let Some(fit) = self.esc_fit(EscClass::LongFlight) {
            let (se, ie) = fit.relative_error_to(&crate::paper::esc_long_flight_fit());
            out.push(("esc long-flight".to_owned(), se, ie));
        }
        if let Some(fit) = self.esc_fit(EscClass::ShortFlight) {
            let (se, ie) = fit.relative_error_to(&crate::paper::esc_short_flight_fit());
            out.push(("esc short-flight".to_owned(), se, ie));
        }
        if let Some(fit) = self.frame_fit() {
            let (se, ie) = fit.relative_error_to(&crate::paper::frame_weight_fit());
            out.push(("frame".to_owned(), se, ie));
        }
        out
    }
}

/// Capacity range the paper sweeps (Figure 7 x-axis), mAh.
const CAPACITY_RANGE: (f64, f64) = (100.0, 10_000.0);

/// Discharge-rate families on the market: 20C to 120C in steps of 5.
const DISCHARGE_C_RANGE: (f64, f64) = (20.0, 120.0);
const DISCHARGE_C_STEP: f64 = 5.0;

fn synthesize_batteries(rng: &mut Pcg32, count: usize) -> Vec<Battery> {
    let families = ((DISCHARGE_C_RANGE.1 - DISCHARGE_C_RANGE.0) / DISCHARGE_C_STEP) as u32 + 1;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let cells = CellCount::ALL[rng.below(CellCount::ALL.len() as u32) as usize];
        // Higher cell counts skew toward larger packs, as on the market.
        let lo = CAPACITY_RANGE.0 + 200.0 * f64::from(cells.cells());
        let capacity = rng.uniform(lo, CAPACITY_RANGE.1);
        let discharge_c = DISCHARGE_C_RANGE.0 + DISCHARGE_C_STEP * f64::from(rng.below(families));
        let line = crate::paper::battery_weight_fit(cells).predict(capacity);
        // Product scatter: ±8 % around the line plus heavier packs for
        // extreme discharge rates (the paper notes these do not deviate
        // from the per-configuration trend, so keep the effect small).
        let scatter = rng.normal_with(1.0, 0.05).clamp(0.85, 1.15);
        let c_penalty = 1.0 + 0.0004 * (discharge_c - 20.0);
        let weight = (line * scatter * c_penalty).max(3.0);
        out.push(Battery::new(
            cells,
            MilliampHours(capacity),
            discharge_c,
            Grams(weight),
        ));
    }
    out
}

fn synthesize_escs(rng: &mut Pcg32, count: usize) -> Vec<Esc> {
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        // Match the paper's mix: roughly half racing, half long-flight.
        let class = if i % 2 == 0 {
            EscClass::LongFlight
        } else {
            EscClass::ShortFlight
        };
        let current = rng.uniform(10.0, 90.0);
        let fit = match class {
            EscClass::LongFlight => crate::paper::esc_long_flight_fit(),
            EscClass::ShortFlight => crate::paper::esc_short_flight_fit(),
        };
        let four = (fit.predict(current) * rng.normal_with(1.0, 0.06).clamp(0.8, 1.2)).max(4.0);
        out.push(Esc::new(class, Amps(current), Grams(four / 4.0)));
    }
    out
}

fn synthesize_frames(rng: &mut Pcg32, count: usize) -> Vec<Frame> {
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let wheelbase = rng.uniform(80.0, 1000.0);
        let weight = if wheelbase > 200.0 {
            let line = crate::paper::frame_weight_fit().predict(wheelbase);
            (line * rng.normal_with(1.0, 0.08).clamp(0.75, 1.25)).max(30.0)
        } else {
            let (lo, hi) = crate::paper::SMALL_FRAME_WEIGHT_RANGE;
            rng.uniform(lo, hi)
        };
        out.push(Frame::new(Millimeters(wheelbase), Grams(weight)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = Catalog::synthesize_default(11);
        let b = Catalog::synthesize_default(11);
        assert_eq!(a.batteries, b.batteries);
        assert_eq!(a.escs, b.escs);
        assert_eq!(a.frames, b.frames);
        let c = Catalog::synthesize_default(12);
        assert_ne!(a.batteries, c.batteries);
    }

    #[test]
    fn default_sizes_match_paper_survey() {
        let c = Catalog::synthesize_default(1);
        assert_eq!(c.batteries.len(), 250);
        assert_eq!(c.escs.len(), 40);
        assert_eq!(c.frames.len(), 25);
    }

    #[test]
    fn battery_fits_recover_published_lines() {
        let c = Catalog::synthesize_default(42);
        for cells in CellCount::ALL {
            let fit = c.battery_fit(cells).expect("population per config");
            let reference = crate::paper::battery_weight_fit(cells);
            let (slope_err, _) = fit.relative_error_to(&reference);
            assert!(
                slope_err < 0.10,
                "{cells}: fitted {fit} vs slope {}",
                reference.slope
            );
        }
    }

    #[test]
    fn esc_fits_recover_published_lines() {
        let c = Catalog::synthesize_default(42);
        let long = c.esc_fit(EscClass::LongFlight).unwrap();
        assert!((long.slope - 4.9678).abs() / 4.9678 < 0.15, "{long}");
        let short = c.esc_fit(EscClass::ShortFlight).unwrap();
        assert!((short.slope - 1.2269).abs() / 1.2269 < 0.25, "{short}");
    }

    #[test]
    fn frame_fit_recovers_published_line() {
        let c = Catalog::synthesize_default(42);
        let fit = c.frame_fit().unwrap();
        assert!((fit.slope - 1.2767).abs() / 1.2767 < 0.2, "{fit}");
    }

    #[test]
    fn validation_report_is_tight() {
        let c = Catalog::synthesize_default(7);
        let report = c.validation_report();
        assert!(report.len() >= 9, "6 battery + 2 esc + 1 frame entries");
        for (label, slope_err, _) in &report {
            assert!(*slope_err < 0.25, "{label}: slope error {slope_err}");
        }
    }

    #[test]
    fn larger_catalogs_fit_tighter() {
        // Ablation hook: regression stability improves with survey size.
        let small = Catalog::synthesize(
            3,
            CatalogSize {
                batteries: 30,
                escs: 10,
                frames: 10,
            },
        );
        let large = Catalog::synthesize(
            3,
            CatalogSize {
                batteries: 2500,
                escs: 400,
                frames: 250,
            },
        );
        let reference = crate::paper::battery_weight_fit(CellCount::S3);
        let err_of = |c: &Catalog| {
            c.battery_fit(CellCount::S3)
                .map(|f| f.relative_error_to(&reference).0)
                .unwrap_or(1.0)
        };
        assert!(err_of(&large) <= err_of(&small) + 0.02);
        assert!(err_of(&large) < 0.05);
    }

    #[test]
    fn synthesized_components_are_valid() {
        let c = Catalog::synthesize_default(5);
        for b in &c.batteries {
            assert!(b.weight.0 > 0.0 && b.capacity.0 > 0.0);
            let d = b.energy_density_wh_per_kg();
            assert!((30.0..400.0).contains(&d), "battery density {d}");
        }
        for e in &c.escs {
            assert!(e.weight.0 > 0.0 && e.max_continuous_current.0 >= 10.0);
        }
        for f in &c.frames {
            assert!(f.weight.0 >= 30.0 || f.wheelbase.0 <= 200.0);
        }
    }
}
