//! The time source behind spans and snapshots.
//!
//! Instrumented code never reads `Instant::now()` directly — it asks the
//! registry's [`Clock`]. A wall clock measures real compute time (what
//! the server, the `repro` timing sections and the SLAM pipeline care
//! about); a sim clock is advanced explicitly by the simulation loop, so
//! the same timing code produces deterministic measurements inside a
//! fixed-step simulation. Clones share the underlying source, so a
//! clock handed to several subsystems stays coherent.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug)]
enum Source {
    /// Monotonic wall time since the clock was created.
    Wall(Instant),
    /// Simulation seconds, advanced via [`Clock::set`] / [`Clock::advance`].
    Sim(AtomicU64),
}

/// A shared monotonic time source, in seconds.
#[derive(Debug, Clone)]
pub struct Clock {
    source: Arc<Source>,
}

impl Clock {
    /// A monotonic wall clock starting at zero now.
    pub fn wall() -> Clock {
        Clock {
            source: Arc::new(Source::Wall(Instant::now())),
        }
    }

    /// A simulation clock starting at zero; advance it from the sim loop.
    pub fn sim() -> Clock {
        Clock {
            source: Arc::new(Source::Sim(AtomicU64::new(0f64.to_bits()))),
        }
    }

    /// Whether this is a simulation clock.
    pub fn is_sim(&self) -> bool {
        matches!(*self.source, Source::Sim(_))
    }

    /// Current time, seconds.
    pub fn now(&self) -> f64 {
        match &*self.source {
            Source::Wall(origin) => origin.elapsed().as_secs_f64(),
            Source::Sim(bits) => f64::from_bits(bits.load(Ordering::Relaxed)),
        }
    }

    /// Sets a simulation clock to an absolute time. No-op on a wall
    /// clock, so simulation code can set time unconditionally and still
    /// work when benched under a wall-clock registry.
    pub fn set(&self, seconds: f64) {
        if let Source::Sim(bits) = &*self.source {
            bits.store(seconds.to_bits(), Ordering::Relaxed);
        }
    }

    /// Advances a simulation clock by `dt` seconds (no-op on wall clocks).
    pub fn advance(&self, dt: f64) {
        if let Source::Sim(bits) = &*self.source {
            let now = f64::from_bits(bits.load(Ordering::Relaxed));
            bits.store((now + dt).to_bits(), Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic() {
        let clock = Clock::wall();
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
        assert!(!clock.is_sim());
    }

    #[test]
    fn sim_clock_is_explicit() {
        let clock = Clock::sim();
        assert_eq!(clock.now(), 0.0);
        clock.set(1.5);
        assert_eq!(clock.now(), 1.5);
        clock.advance(0.25);
        assert_eq!(clock.now(), 1.75);
        assert!(clock.is_sim());
    }

    #[test]
    fn clones_share_the_source() {
        let clock = Clock::sim();
        let other = clock.clone();
        clock.set(3.0);
        assert_eq!(other.now(), 3.0);
    }

    #[test]
    fn set_on_wall_clock_is_inert() {
        let clock = Clock::wall();
        clock.set(100.0);
        assert!(clock.now() < 10.0);
    }
}
