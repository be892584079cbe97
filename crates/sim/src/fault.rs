//! Deterministic fault injection for the flight simulation.
//!
//! The paper's robustness claims — the 85 % LiPo drain limit bounding
//! every flight, gust rejection in the inner loop (§2.1.3, ref. 22), and
//! graceful degradation when subsystems misbehave — only mean something
//! if components can actually fail. A [`FaultSchedule`] is a timed list
//! of [`FaultEvent`]s applied *inside* the physics step so the dynamics,
//! power draw and battery state stay mutually consistent:
//!
//! * motor/ESC thrust degradation and total rotor-out,
//! * battery cell sag (extra voltage drop) and sudden capacity loss,
//! * wind gust bursts superimposed on the ambient wind model.
//!
//! Schedules are plain data: build them explicitly with
//! [`FaultSchedule::scripted`] or draw a reproducible random campaign
//! with [`FaultSchedule::randomized`], which uses the workspace's
//! deterministic [`Pcg32`] so a seed fully determines every injected
//! fault.

use crate::battery::BatterySim;
use crate::rotor::{RotorSet, ROTOR_COUNT};
use drone_math::{Pcg32, Vec3};
use std::fmt;

/// One kind of component fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Motor/ESC derating: the rotor produces `effectiveness` (0..1) of
    /// its commanded thrust from the event onward.
    MotorDegradation {
        /// Rotor index, `0..ROTOR_COUNT`.
        rotor: usize,
        /// Remaining thrust fraction, clamped to `0.0..=1.0`.
        effectiveness: f64,
    },
    /// Total loss of one rotor (thrown blade, dead ESC).
    RotorOut {
        /// Rotor index, `0..ROTOR_COUNT`.
        rotor: usize,
    },
    /// A weak cell: permanent extra terminal-voltage drop.
    BatterySag {
        /// Additional sag, volts.
        volts: f64,
    },
    /// Sudden loss of a fraction of the pack's remaining capacity
    /// (cell disconnect, cold-soak).
    CapacityLoss {
        /// Fraction of capacity lost, clamped to `0.0..=1.0`.
        fraction: f64,
    },
    /// A wind gust burst added on top of the ambient wind.
    GustBurst {
        /// Gust velocity, world frame, m/s.
        velocity: Vec3,
        /// How long the burst lasts, seconds.
        duration: f64,
    },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::MotorDegradation {
                rotor,
                effectiveness,
            } => {
                write!(f, "motor {rotor} degraded to {:.0}%", effectiveness * 100.0)
            }
            FaultKind::RotorOut { rotor } => write!(f, "rotor {rotor} out"),
            FaultKind::BatterySag { volts } => write!(f, "battery sag {volts:.2} V"),
            FaultKind::CapacityLoss { fraction } => {
                write!(f, "capacity loss {:.0}%", fraction * 100.0)
            }
            FaultKind::GustBurst { velocity, duration } => {
                write!(f, "gust {:.1} m/s for {duration:.1} s", velocity.norm())
            }
        }
    }
}

/// A fault fired at a simulation time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Simulation time the fault fires, seconds.
    pub at: f64,
    /// What breaks.
    pub kind: FaultKind,
}

/// A timed, deterministic schedule of fault events.
///
/// # Example
///
/// ```
/// use drone_sim::fault::{FaultEvent, FaultKind, FaultSchedule};
/// let schedule = FaultSchedule::scripted(vec![FaultEvent {
///     at: 5.0,
///     kind: FaultKind::RotorOut { rotor: 2 },
/// }]);
/// assert_eq!(schedule.remaining(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
    next: usize,
    /// Active gust bursts as `(end_time, velocity)` pairs.
    gusts: Vec<(f64, Vec3)>,
}

impl FaultSchedule {
    /// An empty schedule (nothing ever fails).
    pub fn none() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// Builds a schedule from explicit events; they are sorted by time.
    pub fn scripted(mut events: Vec<FaultEvent>) -> FaultSchedule {
        events.sort_by(|a, b| a.at.total_cmp(&b.at));
        FaultSchedule {
            events,
            next: 0,
            gusts: Vec::new(),
        }
    }

    /// Draws `count` random faults in `(0, horizon)` seconds from the
    /// deterministic PCG stream for `seed`: identical seeds produce
    /// identical schedules on every platform.
    pub fn randomized(seed: u64, horizon: f64, count: usize) -> FaultSchedule {
        let mut rng = Pcg32::new(seed, 0xFA01);
        let mut events = Vec::with_capacity(count);
        for _ in 0..count {
            let at = rng.uniform(0.1 * horizon, 0.9 * horizon);
            let kind = match rng.below(5) {
                0 => FaultKind::MotorDegradation {
                    rotor: rng.below(ROTOR_COUNT as u32) as usize,
                    effectiveness: rng.uniform(0.4, 0.9),
                },
                1 => FaultKind::RotorOut {
                    rotor: rng.below(ROTOR_COUNT as u32) as usize,
                },
                2 => FaultKind::BatterySag {
                    volts: rng.uniform(0.2, 1.0),
                },
                3 => FaultKind::CapacityLoss {
                    fraction: rng.uniform(0.1, 0.4),
                },
                _ => {
                    let heading = rng.uniform(0.0, std::f64::consts::TAU);
                    let speed = rng.uniform(4.0, 14.0);
                    FaultKind::GustBurst {
                        velocity: Vec3::new(heading.cos() * speed, heading.sin() * speed, 0.0),
                        duration: rng.uniform(0.5, 4.0),
                    }
                }
            };
            events.push(FaultEvent { at, kind });
        }
        FaultSchedule::scripted(events)
    }

    /// Events not yet fired.
    pub fn remaining(&self) -> usize {
        self.events.len() - self.next
    }

    /// Events already fired, in firing order.
    pub fn fired(&self) -> &[FaultEvent] {
        &self.events[..self.next]
    }

    /// Fires every event due at or before `now` against the physical
    /// components and returns the extra gust wind currently active.
    ///
    /// Called by [`crate::Quadcopter::step`]; callers stepping components
    /// manually can drive it directly.
    pub fn advance(&mut self, now: f64, rotors: &mut RotorSet, battery: &mut BatterySim) -> Vec3 {
        while self.next < self.events.len() && self.events[self.next].at <= now {
            let event = self.events[self.next];
            match event.kind {
                FaultKind::MotorDegradation {
                    rotor,
                    effectiveness,
                } => {
                    rotors.set_effectiveness(rotor, effectiveness);
                }
                FaultKind::RotorOut { rotor } => rotors.set_effectiveness(rotor, 0.0),
                FaultKind::BatterySag { volts } => battery.add_cell_sag(volts),
                FaultKind::CapacityLoss { fraction } => battery.lose_capacity(fraction),
                FaultKind::GustBurst { velocity, duration } => {
                    self.gusts.push((event.at + duration, velocity));
                }
            }
            self.next += 1;
        }
        self.gusts.retain(|(end, _)| *end > now);
        self.gusts.iter().fold(Vec3::ZERO, |acc, (_, v)| acc + *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::QuadcopterParams;

    fn rig() -> (RotorSet, BatterySim) {
        let params = QuadcopterParams::default_450mm();
        (RotorSet::new(&params), BatterySim::new(params.battery))
    }

    #[test]
    fn events_fire_in_time_order_once() {
        let (mut rotors, mut battery) = rig();
        let mut schedule = FaultSchedule::scripted(vec![
            FaultEvent {
                at: 2.0,
                kind: FaultKind::RotorOut { rotor: 1 },
            },
            FaultEvent {
                at: 1.0,
                kind: FaultKind::BatterySag { volts: 0.5 },
            },
        ]);
        assert_eq!(schedule.remaining(), 2);
        schedule.advance(0.5, &mut rotors, &mut battery);
        assert_eq!(schedule.remaining(), 2);
        schedule.advance(1.5, &mut rotors, &mut battery);
        assert_eq!(schedule.remaining(), 1);
        assert!(matches!(
            schedule.fired()[0].kind,
            FaultKind::BatterySag { .. }
        ));
        schedule.advance(2.5, &mut rotors, &mut battery);
        assert_eq!(schedule.remaining(), 0);
        assert_eq!(rotors.effectiveness()[1], 0.0);
    }

    #[test]
    fn gust_burst_is_active_only_for_its_duration() {
        let (mut rotors, mut battery) = rig();
        let gust = Vec3::new(8.0, 0.0, 0.0);
        let mut schedule = FaultSchedule::scripted(vec![FaultEvent {
            at: 1.0,
            kind: FaultKind::GustBurst {
                velocity: gust,
                duration: 2.0,
            },
        }]);
        assert_eq!(schedule.advance(0.5, &mut rotors, &mut battery), Vec3::ZERO);
        assert_eq!(schedule.advance(1.5, &mut rotors, &mut battery), gust);
        assert_eq!(schedule.advance(3.5, &mut rotors, &mut battery), Vec3::ZERO);
    }

    #[test]
    fn randomized_is_deterministic_per_seed() {
        let a = FaultSchedule::randomized(9, 60.0, 6);
        let b = FaultSchedule::randomized(9, 60.0, 6);
        let c = FaultSchedule::randomized(10, 60.0, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.remaining(), 6);
    }

    #[test]
    fn capacity_loss_and_sag_hit_the_battery() {
        let (mut rotors, mut battery) = rig();
        let v0 = battery.voltage().0;
        let stored0 = battery.effective_stored_energy().0;
        let mut schedule = FaultSchedule::scripted(vec![
            FaultEvent {
                at: 0.0,
                kind: FaultKind::CapacityLoss { fraction: 0.3 },
            },
            FaultEvent {
                at: 0.0,
                kind: FaultKind::BatterySag { volts: 0.4 },
            },
        ]);
        schedule.advance(0.0, &mut rotors, &mut battery);
        assert!((battery.effective_stored_energy().0 - stored0 * 0.7).abs() < 1e-9);
        assert!(battery.voltage().0 < v0 - 0.3);
    }
}
