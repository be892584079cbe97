//! Pareto frontier maintenance over exploration objectives.
//!
//! The engine ranks feasible designs on three axes — hover flight time
//! (maximize), take-off weight (minimize), compute share (minimize) —
//! and keeps the mutually non-dominated set incrementally as results
//! stream out of the executor. Dominance itself is
//! [`drone_math::pareto::dominates`]; this module owns the bookkeeping
//! and the batch extraction helper.

use drone_math::pareto::{dominates, Sense};

/// An incrementally maintained Pareto frontier.
///
/// Members are kept in admission order: their ids in one `Vec`, their
/// objectives in one flat `Vec<f64>` (member `k` owns
/// `arity·k..arity·(k+1)`). Each maximized axis is stored negated, so
/// every stored axis reads "smaller is better" and dominance is one
/// loop with no per-axis sense match or arity check. Negation preserves
/// [`dominates`] exactly: IEEE comparisons treat `-0.0` and `0.0` as
/// equal either way round, and a NaN compares false on both sides, so
/// it still never dominates.
#[derive(Debug, Clone)]
pub struct ParetoFrontier {
    senses: Vec<Sense>,
    /// `-1.0` for a maximized axis, `1.0` for a minimized one.
    signs: Vec<f64>,
    ids: Vec<usize>,
    objectives: Vec<f64>,
}

/// Strict dominance on objectives that all read "smaller is better".
///
/// It returns at the first axis where `a` is worse (or either side is
/// NaN): most member/candidate pairs of a grid trade off on the first
/// axis, and on a 768-point grid's insert stream this ran about twice
/// as fast as a loop that always compares every axis.
#[inline]
fn dominates_min(a: &[f64], b: &[f64]) -> bool {
    let mut strictly = false;
    for (&x, &y) in a.iter().zip(b) {
        if x <= y {
            strictly |= x < y;
        } else {
            // Worse on this axis, or NaN on either side.
            return false;
        }
    }
    strictly
}

impl ParetoFrontier {
    /// An empty frontier over the given objective senses.
    pub fn new(senses: &[Sense]) -> ParetoFrontier {
        let signs = senses
            .iter()
            .map(|sense| match sense {
                Sense::Maximize => -1.0,
                Sense::Minimize => 1.0,
            })
            .collect();
        ParetoFrontier {
            senses: senses.to_vec(),
            signs,
            ids: Vec::new(),
            objectives: Vec::new(),
        }
    }

    /// Offers a point. Returns `true` when it joins the frontier
    /// (evicting any members it dominates; the survivors keep their
    /// relative order), `false` when an existing member dominates it.
    ///
    /// # Panics
    ///
    /// Panics when the objective arity does not match the senses.
    pub fn insert(&mut self, id: usize, objectives: &[f64]) -> bool {
        let arity = self.signs.len();
        assert_eq!(objectives.len(), arity, "objective arity mismatch");
        let held = self.ids.len() * arity;
        // The candidate goes on the end of the flat buffer, so offering
        // a point allocates nothing once the buffer has grown.
        self.objectives.extend(
            objectives
                .iter()
                .zip(&self.signs)
                .map(|(&x, &sign)| x * sign),
        );
        let (members, candidate) = self.objectives.split_at_mut(held);
        // `max(1)`: with no axes `members` is empty and nothing dominates.
        if members
            .chunks_exact(arity.max(1))
            .any(|member| dominates_min(member, candidate))
        {
            self.objectives.truncate(held);
            return false;
        }
        let mut kept = 0;
        for k in 0..self.ids.len() {
            let at = k * arity;
            if dominates_min(candidate, &members[at..at + arity]) {
                continue;
            }
            if kept != k {
                members.copy_within(at..at + arity, kept * arity);
                self.ids[kept] = self.ids[k];
            }
            kept += 1;
        }
        if kept < self.ids.len() {
            members[kept * arity..(kept + 1) * arity].copy_from_slice(candidate);
            self.objectives.truncate((kept + 1) * arity);
            self.ids.truncate(kept);
        }
        self.ids.push(id);
        true
    }

    /// Member ids in admission order: survivors of later evictions keep
    /// their relative order.
    pub fn member_ids(&self) -> &[usize] {
        &self.ids
    }

    /// Member ids, ascending.
    pub fn ids(&self) -> Vec<usize> {
        let mut ids = self.ids.clone();
        ids.sort_unstable();
        ids
    }

    /// The objective senses.
    pub fn senses(&self) -> &[Sense] {
        &self.senses
    }

    /// Member count.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no point has been admitted.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// Extracts the non-dominated subset of `points` (full dimensionality),
/// returning ascending indices into `points`.
pub fn extract_frontier<P: AsRef<[f64]>>(points: &[P], senses: &[Sense]) -> Vec<usize> {
    (0..points.len())
        .filter(|&i| {
            !points
                .iter()
                .enumerate()
                .any(|(j, other)| j != i && dominates(other.as_ref(), points[i].as_ref(), senses))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SENSES: [Sense; 3] = [Sense::Maximize, Sense::Minimize, Sense::Minimize];

    #[test]
    fn dominated_points_are_rejected_and_evicted() {
        let mut f = ParetoFrontier::new(&SENSES);
        assert!(f.insert(0, &[10.0, 1000.0, 0.10]));
        // Strictly better everywhere: evicts the first.
        assert!(f.insert(1, &[12.0, 900.0, 0.08]));
        assert_eq!(f.ids(), vec![1]);
        // Strictly worse everywhere: rejected.
        assert!(!f.insert(2, &[11.0, 950.0, 0.09]));
        // Trades flight time for weight: joins.
        assert!(f.insert(3, &[8.0, 500.0, 0.12]));
        assert_eq!(f.ids(), vec![1, 3]);
    }

    #[test]
    fn frontier_members_are_mutually_non_dominated() {
        let mut f = ParetoFrontier::new(&SENSES);
        let pts = [
            [10.0, 1000.0, 0.10],
            [12.0, 1200.0, 0.12],
            [8.0, 800.0, 0.05],
            [11.0, 1100.0, 0.04],
            [9.0, 900.0, 0.20],
        ];
        for (i, p) in pts.iter().enumerate() {
            f.insert(i, p);
        }
        for &a in f.member_ids() {
            for &b in f.member_ids() {
                assert!(!dominates(&pts[a], &pts[b], &SENSES) || a == b);
            }
        }
    }

    #[test]
    fn evictions_keep_the_survivors_admission_order() {
        let mut f = ParetoFrontier::new(&SENSES);
        // Four mutually non-dominated members on a weight/flight trade.
        for (id, p) in [
            (7, [8.0, 500.0, 0.10]),
            (3, [10.0, 700.0, 0.10]),
            (9, [12.0, 900.0, 0.10]),
            (1, [14.0, 1100.0, 0.10]),
        ] {
            assert!(f.insert(id, &p));
        }
        // Dominates ids 3 and 9 only.
        assert!(f.insert(5, &[12.5, 650.0, 0.10]));
        assert_eq!(f.member_ids(), &[7, 1, 5]);
        assert_eq!(f.ids(), vec![1, 5, 7]);
    }

    #[test]
    fn extraction_matches_incremental_insertion() {
        let pts: Vec<[f64; 3]> = vec![
            [10.0, 1000.0, 0.10],
            [12.0, 900.0, 0.08],
            [11.0, 950.0, 0.09],
            [8.0, 500.0, 0.12],
            [8.0, 500.0, 0.12], // duplicate: both non-dominated (neither dominates the other)
        ];
        let mut f = ParetoFrontier::new(&SENSES);
        for (i, p) in pts.iter().enumerate() {
            f.insert(i, p);
        }
        let extracted = extract_frontier(&pts, &SENSES);
        assert_eq!(f.ids(), extracted);
    }

    /// The frontier as it was kept before the flat layout: one
    /// objective `Vec` per member, evictions by `Vec::retain`, and
    /// [`dominates`] with its per-axis sense match. The reference the
    /// flat frontier must agree with, admission order included.
    struct RetainFrontier {
        senses: Vec<Sense>,
        members: Vec<(usize, Vec<f64>)>,
    }

    impl RetainFrontier {
        fn insert(&mut self, id: usize, objectives: &[f64]) -> bool {
            if self
                .members
                .iter()
                .any(|(_, m)| dominates(m, objectives, &self.senses))
            {
                return false;
            }
            self.members
                .retain(|(_, m)| !dominates(objectives, m, &self.senses));
            self.members.push((id, objectives.to_vec()));
            true
        }
    }

    /// A coordinate: mostly exact ties, signed zeros, infinities and
    /// NaN, sometimes a continuous value.
    fn coordinate() -> impl Strategy<Value = f64> {
        prop_oneof![
            prop::sample::select(vec![
                f64::NAN,
                0.0,
                -0.0,
                1.0,
                -1.0,
                2.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ]),
            -2.0f64..2.0,
        ]
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn flat_frontier_matches_the_retain_model_in_admission_order(
            arity in 1usize..5,
            sense_bits in 0usize..16,
            stream in prop::collection::vec(
                (coordinate(), coordinate(), coordinate(), coordinate()),
                0..60,
            ),
        ) {
            let senses: Vec<Sense> = (0..arity)
                .map(|axis| {
                    if sense_bits >> axis & 1 == 0 {
                        Sense::Maximize
                    } else {
                        Sense::Minimize
                    }
                })
                .collect();
            let mut flat = ParetoFrontier::new(&senses);
            let mut model = RetainFrontier {
                senses: senses.clone(),
                members: Vec::new(),
            };
            for (id, (a, b, c, d)) in stream.into_iter().enumerate() {
                let point = &[a, b, c, d][..arity];
                let joined = flat.insert(id, point);
                prop_assert_eq!(joined, model.insert(id, point), "insert {} of {:?}", id, point);
                let expected: Vec<usize> = model.members.iter().map(|(id, _)| *id).collect();
                prop_assert_eq!(flat.member_ids(), &expected[..]);
                prop_assert_eq!(flat.len(), expected.len());
            }
        }
    }
}
