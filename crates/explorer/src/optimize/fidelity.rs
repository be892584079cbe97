//! Constraint pre-filtering and coarse-proxy ranking.
//!
//! The pre-filter rejects candidates *before any kernel call*, using
//! the kernel's own design envelope
//! ([`drone_dse::design::check_envelope`]: a design outside it always
//! returns the same typed error) and a take-off-weight lower bound —
//! frame + compute + sensors + payload + battery is the sizing fixed
//! point's starting weight, which motors, ESCs, props and wiring only
//! ever add to. A candidate whose *floor* already breaks `max_weight_g`
//! can never be feasible, so evaluating it would waste a kernel call on
//! a foregone conclusion.
//!
//! The ranking comparator orders halving-round candidates by their
//! coarse proxy outcome: admitted proxies first (best objective
//! value first), then sized-but-constraint-violating, then failed or
//! unevaluated — with `total_cmp` and stable sorting keeping the order
//! deterministic at any thread count.

use crate::query::{Constraints, Objective};
use drone_dse::design::check_envelope;
use drone_dse::eval::{DesignEval, DesignQuery};
use drone_math::Sense;
use std::cmp::Ordering;

/// Why the pre-filter rejected a candidate without evaluating it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefilterReject {
    /// Outside the kernel's design envelope: `evaluate` would
    /// deterministically return the envelope's parameter error.
    Parameter,
    /// The take-off-weight lower bound already exceeds the query's
    /// `max_weight_g`: no sizing outcome can be feasible.
    WeightBound,
}

/// Checks a candidate against the pre-filter. `None` means "evaluate
/// it". Sound by construction: a rejected candidate can never produce
/// a constraint-admissible [`DesignEval`].
pub fn prefilter(query: &DesignQuery, constraints: &Constraints) -> Option<PrefilterReject> {
    let envelope = check_envelope(query.twr, query.wheelbase_mm, query.capacity_mah, || {
        (weight_floor(query), ())
    });
    match (envelope, constraints.max_weight_g) {
        (Err(_), _) => Some(PrefilterReject::Parameter),
        (Ok((floor, ())), Some(bound)) if floor > bound => Some(PrefilterReject::WeightBound),
        _ => None,
    }
}

/// A lower bound on the sized take-off weight: every component of the
/// fixed-point's starting weight (`fixed = basic + battery`), none of
/// the weight the iteration adds. Meaningful for points inside the
/// TWR, wheelbase and capacity checks of the design envelope, which
/// [`prefilter`] applies first.
pub fn weight_floor(query: &DesignQuery) -> f64 {
    let battery =
        drone_components::paper::battery_weight_fit(query.cells).predict(query.capacity_mah);
    query.to_spec().basic_weight().0 + battery
}

/// A halving candidate's proxy outcome class, best (0) to worst (2).
fn class(proxy: Option<&Result<DesignEval, drone_dse::design::DesignError>>, admitted: bool) -> u8 {
    match proxy {
        Some(Ok(_)) if admitted => 0,
        Some(Ok(_)) => 1,
        _ => 2,
    }
}

/// Compares two candidates by proxy outcome for a halving round:
/// admitted before inadmissible before failed/missing, and within the
/// admitted class by objective value in the objective's sense. Equal
/// outcomes compare `Equal`, so a *stable* sort preserves candidate
/// order — the deterministic tie-break.
pub fn compare_proxies(
    objective: Objective,
    a: (
        Option<&Result<DesignEval, drone_dse::design::DesignError>>,
        bool,
    ),
    b: (
        Option<&Result<DesignEval, drone_dse::design::DesignError>>,
        bool,
    ),
) -> Ordering {
    let (class_a, class_b) = (class(a.0, a.1), class(b.0, b.1));
    if class_a != class_b {
        return class_a.cmp(&class_b);
    }
    let score = |proxy: Option<&Result<DesignEval, drone_dse::design::DesignError>>| {
        proxy
            .and_then(|r| r.as_ref().ok())
            .map(|e| objective.value(e))
    };
    match (score(a.0), score(b.0)) {
        (Some(va), Some(vb)) => match objective.sense() {
            Sense::Maximize => vb.total_cmp(&va),
            Sense::Minimize => va.total_cmp(&vb),
        },
        _ => Ordering::Equal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drone_components::battery::CellCount;
    use drone_dse::eval::evaluate;

    #[test]
    fn parameter_prefilter_agrees_with_the_kernel_envelope() {
        use drone_dse::design::DesignError;
        // Just inside: kernel evaluates (feasibly or not, but no
        // parameter error); just outside: prefilter fires and the
        // kernel confirms with a typed envelope error.
        let base = DesignQuery::new(450.0, CellCount::S3, 4000.0);
        for (q, rejected) in [
            (base.with_twr(1.05), false),
            (base.with_twr(10.0), false),
            (base.with_twr(1.04), true),
            (base.with_twr(10.01), true),
            (DesignQuery::new(29.9, CellCount::S3, 4000.0), true),
            (DesignQuery::new(1500.1, CellCount::S3, 4000.0), true),
            (DesignQuery::new(450.0, CellCount::S3, 0.0), true),
            (base.with_payload(-5000.0), true),
        ] {
            let pre = prefilter(&q, &Constraints::default());
            assert_eq!(pre.is_some(), rejected, "{q:?}");
            if rejected {
                assert!(matches!(
                    evaluate(&q),
                    Err(DesignError::InvalidTwr(_)
                        | DesignError::InvalidWheelbase(_)
                        | DesignError::InvalidCapacity(_)
                        | DesignError::InvalidStartingWeight(_))
                ));
            }
        }
    }

    #[test]
    fn weight_floor_never_exceeds_the_sized_weight() {
        for wheelbase in [150.0, 450.0, 800.0] {
            for capacity in [1000.0, 4000.0, 8000.0] {
                let q = DesignQuery::new(wheelbase, CellCount::S3, capacity);
                if let Ok(eval) = evaluate(&q) {
                    assert!(
                        weight_floor(&q) <= eval.weight_g,
                        "{wheelbase} mm / {capacity} mAh: floor above actual"
                    );
                }
            }
        }
    }

    #[test]
    fn weight_prefilter_rejects_only_impossible_candidates() {
        let q = DesignQuery::new(450.0, CellCount::S3, 4000.0);
        let floor = weight_floor(&q);
        let reject = Constraints {
            max_weight_g: Some(floor - 1.0),
            ..Constraints::default()
        };
        assert_eq!(prefilter(&q, &reject), Some(PrefilterReject::WeightBound));
        let admit = Constraints {
            max_weight_g: Some(floor + 10_000.0),
            ..Constraints::default()
        };
        assert_eq!(prefilter(&q, &admit), None);
    }

    #[test]
    fn proxy_comparison_orders_admitted_best_then_by_objective() {
        let good = evaluate(&DesignQuery::new(450.0, CellCount::S3, 4000.0)).unwrap();
        let heavier = evaluate(&DesignQuery::new(650.0, CellCount::S3, 8000.0)).unwrap();
        let ok_good = Ok(good);
        let ok_heavy = Ok(heavier);
        let failed: Result<DesignEval, _> = Err(drone_dse::design::DesignError::SizingDiverged);
        // Admitted beats inadmissible beats failed.
        assert_eq!(
            compare_proxies(
                Objective::MinWeight,
                (Some(&ok_good), true),
                (Some(&ok_heavy), false)
            ),
            Ordering::Less
        );
        assert_eq!(
            compare_proxies(
                Objective::MinWeight,
                (Some(&ok_heavy), false),
                (Some(&failed), false)
            ),
            Ordering::Less
        );
        // Within the admitted class, the objective decides in sense.
        assert_eq!(
            compare_proxies(
                Objective::MinWeight,
                (Some(&ok_good), true),
                (Some(&ok_heavy), true)
            ),
            Ordering::Less
        );
        assert_eq!(
            compare_proxies(
                Objective::MaxFlightTime,
                (Some(&ok_good), true),
                (Some(&ok_heavy), true)
            ),
            if good.flight_time_min >= heavier.flight_time_min {
                Ordering::Less
            } else {
                Ordering::Greater
            }
        );
        // Identical outcomes are Equal: stable sort keeps input order.
        assert_eq!(
            compare_proxies(
                Objective::MinWeight,
                (Some(&ok_good), true),
                (Some(&ok_good), true)
            ),
            Ordering::Equal
        );
    }
}
