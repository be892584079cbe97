//! Ordinary and weighted linear least squares.
//!
//! The paper extracts linear weight/capacity/current relationships from
//! commercial component populations (Figures 7, 8a, 8b); this module is the
//! fitting machinery that re-derives those lines from the synthetic catalog.

use std::fmt;

/// A `(x, y)` sample with an optional weight for weighted least squares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedPoint {
    /// Abscissa.
    pub x: f64,
    /// Ordinate.
    pub y: f64,
    /// Relative weight (1.0 = ordinary least squares).
    pub weight: f64,
}

impl WeightedPoint {
    /// An ordinary (unit-weight) sample.
    pub fn new(x: f64, y: f64) -> Self {
        WeightedPoint { x, y, weight: 1.0 }
    }
}

/// A fitted line `y = slope · x + intercept` with goodness-of-fit data.
///
/// # Example
///
/// ```
/// use drone_math::LinearFit;
/// let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 2.0 * i as f64 + 1.0)).collect();
/// let fit = LinearFit::fit(pts.iter().copied()).unwrap();
/// assert!((fit.slope - 2.0).abs() < 1e-12);
/// assert!((fit.intercept - 1.0).abs() < 1e-12);
/// assert!(fit.r_squared > 0.999_999);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination R² in `[0, 1]` (1 for a perfect fit).
    pub r_squared: f64,
    /// Number of samples used.
    pub n: usize,
}

impl LinearFit {
    /// Fits `y = a·x + b` by ordinary least squares.
    ///
    /// Returns `None` with fewer than 2 points or when all `x` coincide.
    pub fn fit(points: impl IntoIterator<Item = (f64, f64)>) -> Option<LinearFit> {
        Self::fit_weighted(points.into_iter().map(|(x, y)| WeightedPoint::new(x, y)))
    }

    /// Fits `y = a·x + b` by weighted least squares.
    ///
    /// Returns `None` with fewer than 2 points, non-positive total weight,
    /// or degenerate (constant-x) data.
    pub fn fit_weighted(points: impl IntoIterator<Item = WeightedPoint>) -> Option<LinearFit> {
        let pts: Vec<WeightedPoint> = points.into_iter().collect();
        if pts.len() < 2 {
            return None;
        }
        let wsum: f64 = pts.iter().map(|p| p.weight).sum();
        if wsum <= 0.0 {
            return None;
        }
        let mean_x = pts.iter().map(|p| p.weight * p.x).sum::<f64>() / wsum;
        let mean_y = pts.iter().map(|p| p.weight * p.y).sum::<f64>() / wsum;
        let sxx: f64 = pts.iter().map(|p| p.weight * (p.x - mean_x).powi(2)).sum();
        let sxy: f64 = pts
            .iter()
            .map(|p| p.weight * (p.x - mean_x) * (p.y - mean_y))
            .sum();
        if sxx < 1e-12 {
            return None;
        }
        let slope = sxy / sxx;
        let intercept = mean_y - slope * mean_x;
        // R² from weighted residual / total sums of squares.
        let ss_tot: f64 = pts.iter().map(|p| p.weight * (p.y - mean_y).powi(2)).sum();
        let ss_res: f64 = pts
            .iter()
            .map(|p| p.weight * (p.y - slope * p.x - intercept).powi(2))
            .sum();
        let r_squared = if ss_tot < 1e-12 {
            1.0
        } else {
            (1.0 - ss_res / ss_tot).clamp(0.0, 1.0)
        };
        Some(LinearFit {
            slope,
            intercept,
            r_squared,
            n: pts.len(),
        })
    }

    /// Evaluates the fitted line at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }

    /// Inverse prediction: the `x` at which the line reaches `y`.
    ///
    /// Returns `None` when the slope is (near) zero.
    pub fn solve_for_x(&self, y: f64) -> Option<f64> {
        if self.slope.abs() < 1e-12 {
            None
        } else {
            Some((y - self.intercept) / self.slope)
        }
    }

    /// Relative difference of slope and intercept against a reference fit,
    /// as `(slope_err, intercept_err)` fractions. Useful for validating the
    /// synthetic catalog against the paper's published coefficients.
    pub fn relative_error_to(&self, reference: &LinearFit) -> (f64, f64) {
        let se = if reference.slope.abs() < 1e-12 {
            (self.slope - reference.slope).abs()
        } else {
            ((self.slope - reference.slope) / reference.slope).abs()
        };
        let ie = if reference.intercept.abs() < 1e-12 {
            (self.intercept - reference.intercept).abs()
        } else {
            ((self.intercept - reference.intercept) / reference.intercept).abs()
        };
        (se, ie)
    }
}

impl fmt::Display for LinearFit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "y = {:.4}x + {:.3} (R²={:.4}, n={})",
            self.slope, self.intercept, self.r_squared, self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_line() {
        let fit = LinearFit::fit((0..20).map(|i| (i as f64, -0.5 * i as f64 + 4.0))).unwrap();
        assert!((fit.slope + 0.5).abs() < 1e-12);
        assert!((fit.intercept - 4.0).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-9);
        assert_eq!(fit.n, 20);
    }

    #[test]
    fn noisy_line_recovers_parameters() {
        // Deterministic noise from the in-tree PRNG.
        let mut rng = crate::rng::Pcg32::seed_from(99);
        let pts: Vec<(f64, f64)> = (0..200)
            .map(|i| {
                let x = i as f64;
                (x, 0.116 * x + 159.117 + rng.normal_with(0.0, 1.0))
            })
            .collect();
        let fit = LinearFit::fit(pts).unwrap();
        assert!((fit.slope - 0.116).abs() < 0.005, "{fit}");
        assert!((fit.intercept - 159.117).abs() < 5.0, "{fit}");
        assert!(fit.r_squared > 0.95, "{fit}");
    }

    #[test]
    fn insufficient_points() {
        assert!(LinearFit::fit([(1.0, 2.0)]).is_none());
        assert!(LinearFit::fit([]).is_none());
    }

    #[test]
    fn degenerate_constant_x() {
        assert!(LinearFit::fit([(1.0, 2.0), (1.0, 3.0), (1.0, 4.0)]).is_none());
    }

    #[test]
    fn weighted_fit_favors_heavy_points() {
        // Two clusters; the heavily weighted one dominates the intercept.
        let pts = vec![
            WeightedPoint {
                x: 0.0,
                y: 0.0,
                weight: 100.0,
            },
            WeightedPoint {
                x: 1.0,
                y: 1.0,
                weight: 100.0,
            },
            WeightedPoint {
                x: 0.5,
                y: 10.0,
                weight: 0.001,
            },
        ];
        let fit = LinearFit::fit_weighted(pts).unwrap();
        assert!((fit.slope - 1.0).abs() < 0.01);
        assert!(fit.intercept.abs() < 0.01);
    }

    #[test]
    fn zero_total_weight_is_none() {
        let pts = vec![
            WeightedPoint {
                x: 0.0,
                y: 0.0,
                weight: 0.0,
            },
            WeightedPoint {
                x: 1.0,
                y: 1.0,
                weight: 0.0,
            },
        ];
        assert!(LinearFit::fit_weighted(pts).is_none());
    }

    #[test]
    fn predict_and_inverse() {
        let fit = LinearFit {
            slope: 2.0,
            intercept: 1.0,
            r_squared: 1.0,
            n: 2,
        };
        assert!((fit.predict(3.0) - 7.0).abs() < 1e-12);
        assert!((fit.solve_for_x(7.0).unwrap() - 3.0).abs() < 1e-12);
        let flat = LinearFit {
            slope: 0.0,
            intercept: 1.0,
            r_squared: 1.0,
            n: 2,
        };
        assert!(flat.solve_for_x(5.0).is_none());
    }

    #[test]
    fn relative_error() {
        let a = LinearFit {
            slope: 1.1,
            intercept: 10.0,
            r_squared: 1.0,
            n: 2,
        };
        let b = LinearFit {
            slope: 1.0,
            intercept: 8.0,
            r_squared: 1.0,
            n: 2,
        };
        let (se, ie) = a.relative_error_to(&b);
        assert!((se - 0.1).abs() < 1e-12);
        assert!((ie - 0.25).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        let fit = LinearFit {
            slope: 0.074,
            intercept: 16.935,
            r_squared: 0.99,
            n: 42,
        };
        let s = fit.to_string();
        assert!(s.contains("0.074"), "{s}");
        assert!(s.contains("n=42"), "{s}");
    }
}
