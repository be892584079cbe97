//! Property tests over the kernel's whole input domain: every
//! `DesignQuery` coordinate ranges over NaN, ±inf, ±0, subnormals,
//! negatives and huge values, across every `CellCount`. Both kernels
//! must answer every point (a typed `DesignError` at worst, never a
//! panic), agree bit for bit, and the batched kernel's `BatchProfile`
//! must tally exactly the classes `evaluate` returns point by point.
//!
//! Over feasible points inside the envelope, relations that Eq. 1–7
//! imply must hold: compute shares are fractions, maneuvering draws at
//! least hover power, more payload never lightens the drone or
//! lengthens its flight, more compute power never lengthens it, and at a
//! fixed take-off weight more compute power never lowers its share.
//!
//! Cases are seeded and deterministic; CI reruns this file with
//! `PROPTEST_CASES=4096`.

use drone_components::battery::CellCount;
use drone_dse::design::DesignError;
use drone_dse::eval::{evaluate, evaluate_many, BatchProfile, DesignEval, DesignQuery, EvalBatch};
use proptest::prelude::*;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Values no modelled range contains: NaN, infinities, signed zeros,
/// subnormals and the extremes of the finite range.
fn special() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(0.0),
        Just(-0.0),
        Just(f64::MIN_POSITIVE / 4.0),
        Just(-f64::MIN_POSITIVE / 4.0),
        Just(5e-324),
        Just(f64::MAX),
        Just(f64::MIN),
        Just(1e300),
        Just(-1e300),
        Just(-1.0),
    ]
}

/// One coordinate: a special value, any finite double (wide exponent
/// spread, either sign), or — half the time, so whole points still
/// reach the sizing loop — a value from the coordinate's `typical`
/// range, which itself straddles the envelope.
fn coordinate(typical: Range<f64>) -> impl Strategy<Value = f64> {
    prop_oneof![special(), any::<f64>(), typical.clone(), typical]
}

fn cells() -> impl Strategy<Value = CellCount> {
    (0usize..6).prop_map(|i| CellCount::ALL[i])
}

fn query() -> impl Strategy<Value = DesignQuery> {
    (
        coordinate(0.0..1600.0), // wheelbase, mm: 30–1500 admitted
        cells(),
        coordinate(-500.0..9000.0),  // capacity, mAh: > 0 admitted
        coordinate(-400.0..60.0),    // compute, W: negative can zero the hover power
        coordinate(0.5..11.0),       // TWR: 1.05–10 admitted
        coordinate(-1500.0..3000.0), // payload, g: negative can zero the starting weight
    )
        .prop_map(
            |(wheelbase_mm, cells, capacity_mah, compute_power_w, twr, payload_g)| DesignQuery {
                wheelbase_mm,
                cells,
                capacity_mah,
                compute_power_w,
                twr,
                payload_g,
            },
        )
}

fn batches() -> impl Strategy<Value = Vec<DesignQuery>> {
    prop::collection::vec(query(), 0..32)
}

/// Exact comparison that also holds for NaN payloads: `Ok` fields and
/// the echoed query by bits, errors by their rendered text (which
/// names the variant and spells its payload, `NaN` and `-0` included).
fn same_outcome(
    a: &Result<DesignEval, DesignError>,
    b: &Result<DesignEval, DesignError>,
) -> Result<(), String> {
    match (a, b) {
        (Ok(a), Ok(b)) => {
            let bits = |e: &DesignEval| {
                [
                    e.query.wheelbase_mm,
                    e.query.capacity_mah,
                    e.query.compute_power_w,
                    e.query.twr,
                    e.query.payload_g,
                    e.weight_g,
                    e.hover_power_w,
                    e.maneuver_power_w,
                    e.flight_time_min,
                    e.compute_share_hover,
                    e.compute_share_maneuver,
                ]
                .map(f64::to_bits)
            };
            if bits(a) == bits(b) && a.query.cells == b.query.cells {
                Ok(())
            } else {
                Err(format!("Ok values differ: {a:?} vs {b:?}"))
            }
        }
        (Err(a), Err(b)) if a.to_string() == b.to_string() => Ok(()),
        _ => Err(format!("outcomes differ: {a:?} vs {b:?}")),
    }
}

/// The `BatchProfile` class `evaluate`'s outcome belongs to.
fn tally(profile: &mut BatchProfile, outcome: &Result<DesignEval, DesignError>) {
    profile.points += 1;
    match outcome {
        Ok(_) => profile.feasible += 1,
        Err(
            DesignError::InvalidTwr(_)
            | DesignError::InvalidWheelbase(_)
            | DesignError::InvalidCapacity(_)
            | DesignError::InvalidStartingWeight(_)
            | DesignError::NonPositiveHoverPower(_),
        ) => profile.invalid_parameter += 1,
        Err(DesignError::SizingDiverged) => profile.diverged += 1,
        Err(DesignError::BatteryDischargeLimit { .. }) => profile.discharge_limited += 1,
    }
}

proptest! {
    #[test]
    fn both_kernels_answer_every_query_and_agree_bit_for_bit(batch in batches()) {
        let batched = catch_unwind(AssertUnwindSafe(|| evaluate_many(&batch)));
        prop_assert!(batched.is_ok(), "evaluate_many panicked on {:?}", batch);
        let batched = batched.unwrap();
        prop_assert_eq!(batched.len(), batch.len());
        for (i, q) in batch.iter().enumerate() {
            let scalar = catch_unwind(|| evaluate(q));
            prop_assert!(scalar.is_ok(), "evaluate panicked on point {}: {:?}", i, q);
            if let Err(diff) = same_outcome(&scalar.unwrap(), &batched[i]) {
                prop_assert!(false, "point {} ({:?}): {}", i, q, diff);
            }
        }
    }

    #[test]
    fn batch_profile_tallies_match_evaluate_point_by_point(batch in batches()) {
        let (_, profile) = EvalBatch::new(&batch).run_profiled();
        let mut expected = BatchProfile::default();
        for q in &batch {
            tally(&mut expected, &evaluate(q));
        }
        prop_assert_eq!(
            (profile.points, profile.feasible, profile.invalid_parameter),
            (expected.points, expected.feasible, expected.invalid_parameter)
        );
        prop_assert_eq!(
            (profile.diverged, profile.discharge_limited),
            (expected.diverged, expected.discharge_limited)
        );
    }
}

#[test]
fn each_envelope_check_has_its_own_typed_error() {
    let good = DesignQuery::new(450.0, CellCount::S3, 4000.0);
    for (q, expected) in [
        (good.with_twr(f64::NAN), "invalid design parameter: TWR NaN"),
        (
            DesignQuery {
                wheelbase_mm: f64::NAN,
                ..good
            },
            "invalid design parameter: wheelbase NaN mm",
        ),
        (
            DesignQuery::new(450.0, CellCount::S3, -0.0),
            "invalid design parameter: capacity -0 mAh",
        ),
        (
            good.with_payload(f64::NEG_INFINITY),
            "invalid design parameter: starting weight -inf g",
        ),
        (
            good.with_compute_power(f64::NAN),
            "invalid design parameter: starting weight NaN g",
        ),
    ] {
        assert_eq!(evaluate(&q).unwrap_err().to_string(), expected, "{q:?}");
        assert_eq!(
            evaluate_many(&[q])[0].unwrap_err().to_string(),
            expected,
            "{q:?}"
        );
    }
}

#[test]
fn a_negative_compute_power_can_leave_no_hover_power() {
    // The payload restores a positive starting weight, so the point
    // sizes; its −300 W "compute" then outweighs ~150 W of propulsion.
    let q = DesignQuery::new(450.0, CellCount::S3, 8000.0)
        .with_compute_power(-300.0)
        .with_payload(1500.0);
    let scalar = evaluate(&q);
    assert!(
        matches!(scalar, Err(DesignError::NonPositiveHoverPower(p)) if p < 0.0),
        "{scalar:?}"
    );
    assert_eq!(evaluate_many(&[q])[0], scalar);
}

/// A point inside the design envelope with compute power ≥ 0, over
/// ranges the wire accepts; a little over a third of them size and fly.
fn enveloped() -> impl Strategy<Value = DesignQuery> {
    (
        30.0..1500.0,
        cells(),
        50.0..30000.0,
        0.0..400.0,
        1.05..10.0,
        -200.0..5000.0,
    )
        .prop_map(
            |(wheelbase_mm, cells, capacity_mah, compute_power_w, twr, payload_g)| DesignQuery {
                wheelbase_mm,
                cells,
                capacity_mah,
                compute_power_w,
                twr,
                payload_g,
            },
        )
}

/// A positive increment: tiny, moderate or large.
fn increment() -> impl Strategy<Value = f64> {
    prop_oneof![1e-9..1e-3, 1e-3..1.0, 1.0..1000.0]
}

/// The evaluations of `q` and `more` when both are feasible.
fn feasible_pair(q: &DesignQuery, more: &DesignQuery) -> Option<(DesignEval, DesignEval)> {
    Some((evaluate(q).ok()?, evaluate(more).ok()?))
}

// Metamorphic properties of Eq. 1–7 over feasible points.
proptest! {
    #[test]
    fn compute_shares_are_fractions_and_maneuvering_draws_at_least_hover_power(q in enveloped()) {
        let e = evaluate(&q);
        prop_assume!(e.is_ok());
        let e = e.unwrap();
        // Eq. 6: compute / (propulsion + compute + sensors), each ≥ 0.
        prop_assert!((0.0..=1.0).contains(&e.compute_share_hover), "{:?}", e);
        prop_assert!((0.0..=1.0).contains(&e.compute_share_maneuver), "{:?}", e);
        // Eq. 3: maneuvering draws a larger fraction of the max current.
        prop_assert!(e.maneuver_power_w >= e.hover_power_w, "{:?}", e);
    }

    #[test]
    fn more_payload_never_lightens_the_drone_or_lengthens_its_flight(
        q in enveloped(),
        extra in increment(),
    ) {
        let pair = feasible_pair(&q, &q.with_payload(q.payload_g + extra));
        prop_assume!(pair.is_some());
        let (base, heavier) = pair.unwrap();
        prop_assert!(
            heavier.weight_g >= base.weight_g,
            "+{} g: {:?} -> {:?}", extra, base, heavier
        );
        prop_assert!(
            heavier.flight_time_min <= base.flight_time_min,
            "+{} g: {:?} -> {:?}", extra, base, heavier
        );
    }

    #[test]
    fn more_compute_power_never_lengthens_flight(q in enveloped(), extra in increment()) {
        let more = q.with_compute_power(q.compute_power_w + extra);
        let pair = feasible_pair(&q, &more);
        prop_assume!(pair.is_some());
        let (base, hungrier) = pair.unwrap();
        prop_assert!(
            hungrier.flight_time_min <= base.flight_time_min,
            "+{} W: {:?} -> {:?}", extra, base, hungrier
        );
    }

    /// More compute power also weighs more (4 g/W, Eq. 1), and the
    /// propulsion power that weight costs can outgrow the watts added
    /// (`a_heavy_computer_can_lower_its_own_compute_share`). Moving
    /// 4 g/W out of the payload keeps the take-off weight, and with it
    /// every other term of Eq. 6's denominator, fixed.
    #[test]
    fn at_a_fixed_weight_more_compute_power_never_lowers_its_share(
        q in enveloped(),
        extra in 0.01f64..100.0,
    ) {
        let more = q
            .with_compute_power(q.compute_power_w + extra)
            .with_payload(q.payload_g - 4.0 * extra);
        let pair = feasible_pair(&q, &more);
        prop_assume!(pair.is_some());
        let (base, hungrier) = pair.unwrap();
        prop_assert!(
            hungrier.compute_share_hover >= base.compute_share_hover,
            "+{} W: {:?} -> {:?}", extra, base, hungrier
        );
        prop_assert!(
            hungrier.compute_share_maneuver >= base.compute_share_maneuver,
            "+{} W: {:?} -> {:?}", extra, base, hungrier
        );
    }
}

#[test]
fn a_heavy_computer_can_lower_its_own_compute_share() {
    // A 92 mm, 2S, 302 mAh drone whose 12 W computer draws nearly half
    // its hover power. Eq. 6 gives the share as P / (P + Q), with Q the
    // propulsion and sensor power, so it falls when Q grows by a larger
    // factor than P. Each extra watt adds 4 g of board (Eq. 1), which
    // the motors must lift (Eq. 2–3), and here that costs more than the
    // watt itself: "more compute power never lowers the hover compute
    // share" is not a property of the model.
    let q = DesignQuery {
        wheelbase_mm: 92.24285814059985,
        cells: CellCount::S2,
        capacity_mah: 302.1936914403662,
        compute_power_w: 12.098542962905416,
        twr: 3.240046146342464,
        payload_g: -147.04072823304438,
    };
    let base = evaluate(&q).expect("feasible");
    let hungrier = evaluate(&q.with_compute_power(q.compute_power_w + 0.5)).expect("feasible");
    assert!(base.compute_share_hover > 0.45, "{base:?}");
    assert!(hungrier.compute_share_hover < base.compute_share_hover);
    assert!(hungrier.weight_g > base.weight_g);
}
