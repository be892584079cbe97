//! Pareto-dominance primitives for multi-objective design-space search.
//!
//! The design-space engine compares candidate drones on several
//! objectives at once (flight time up, weight down, compute share
//! down). This module provides the direction-aware dominance test those
//! comparisons reduce to; the frontier bookkeeping itself lives in
//! `drone-explorer`, which composes these primitives.

/// The optimization direction of one objective axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Larger values are better (flight time).
    Maximize,
    /// Smaller values are better (weight, compute share).
    Minimize,
}

impl Sense {
    /// `a` is at least as good as `b` along this axis.
    pub fn at_least_as_good(self, a: f64, b: f64) -> bool {
        match self {
            Sense::Maximize => a >= b,
            Sense::Minimize => a <= b,
        }
    }

    /// `a` is strictly better than `b` along this axis.
    pub fn strictly_better(self, a: f64, b: f64) -> bool {
        match self {
            Sense::Maximize => a > b,
            Sense::Minimize => a < b,
        }
    }
}

/// Strict Pareto dominance: `a` dominates `b` when it is at least as
/// good on every axis and strictly better on at least one.
///
/// Irreflexive (`dominates(x, x, s)` is false) and antisymmetric for
/// finite inputs; comparisons involving NaN are false on both sides, so
/// a NaN coordinate simply never dominates.
///
/// # Panics
///
/// Panics when the three slices disagree on length.
pub fn dominates(a: &[f64], b: &[f64], senses: &[Sense]) -> bool {
    assert_eq!(a.len(), senses.len(), "objective/sense arity mismatch");
    assert_eq!(b.len(), senses.len(), "objective/sense arity mismatch");
    let mut strictly = false;
    for ((&x, &y), &sense) in a.iter().zip(b).zip(senses) {
        if !sense.at_least_as_good(x, y) {
            return false;
        }
        strictly |= sense.strictly_better(x, y);
    }
    strictly
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAX_MIN: [Sense; 2] = [Sense::Maximize, Sense::Minimize];

    #[test]
    fn dominance_is_direction_aware() {
        // Objective 0 wants more, objective 1 wants less.
        assert!(dominates(&[2.0, 1.0], &[1.0, 2.0], &MAX_MIN));
        assert!(!dominates(&[1.0, 2.0], &[2.0, 1.0], &MAX_MIN));
        // Equal on one axis, better on the other still dominates.
        assert!(dominates(&[2.0, 1.0], &[2.0, 2.0], &MAX_MIN));
    }

    #[test]
    fn dominance_is_irreflexive() {
        assert!(!dominates(&[1.0, 1.0], &[1.0, 1.0], &MAX_MIN));
    }

    #[test]
    fn incomparable_points_do_not_dominate() {
        // Each is better on one axis: neither dominates.
        assert!(!dominates(&[2.0, 2.0], &[1.0, 1.0], &MAX_MIN));
        assert!(!dominates(&[1.0, 1.0], &[2.0, 2.0], &MAX_MIN));
    }

    #[test]
    fn nan_never_dominates() {
        assert!(!dominates(&[f64::NAN, 0.0], &[1.0, 1.0], &MAX_MIN));
        assert!(!dominates(&[1.0, 1.0], &[f64::NAN, 0.0], &MAX_MIN));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        let _ = dominates(&[1.0], &[1.0, 2.0], &MAX_MIN);
    }
}
