//! Flight-mode state machine.
//!
//! Mirrors the mode discipline of real autopilots: you cannot jump from
//! `Disarmed` to `Mission`; take-off must complete before waypoints; any
//! armed mode may fall into `Failsafe`, which lands.

use std::fmt;

/// Autopilot flight mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlightMode {
    /// Motors off, on the ground.
    Disarmed,
    /// Motors armed, waiting on the ground.
    Armed,
    /// Climbing to the mission's take-off altitude.
    Takeoff,
    /// Executing mission waypoints.
    Mission,
    /// Holding the current position.
    Hold,
    /// Descending to land at the current horizontal position.
    Land,
    /// Battery/link failsafe: immediate landing.
    Failsafe,
}

impl FlightMode {
    /// Whether the motors may spin in this mode.
    pub fn is_armed(self) -> bool {
        !matches!(self, FlightMode::Disarmed)
    }

    /// Whether the vehicle is expected to be airborne.
    pub fn is_flying(self) -> bool {
        matches!(
            self,
            FlightMode::Takeoff
                | FlightMode::Mission
                | FlightMode::Hold
                | FlightMode::Land
                | FlightMode::Failsafe
        )
    }

    /// Whether `self → to` is a legal transition.
    pub fn can_transition_to(self, to: FlightMode) -> bool {
        use FlightMode::*;
        match (self, to) {
            // No self loops.
            (a, b) if a == b => false,
            // Anything armed can failsafe or land.
            (a, Failsafe) | (a, Land) if a.is_flying() => true,
            (Disarmed, Armed) => true,
            (Armed, Takeoff) => true,
            (Armed, Disarmed) => true,
            (Takeoff, Mission) | (Takeoff, Hold) => true,
            (Mission, Hold) | (Hold, Mission) => true,
            (Land, Disarmed) | (Failsafe, Disarmed) => true,
            _ => false,
        }
    }
}

impl fmt::Display for FlightMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FlightMode::Disarmed => "disarmed",
            FlightMode::Armed => "armed",
            FlightMode::Takeoff => "takeoff",
            FlightMode::Mission => "mission",
            FlightMode::Hold => "hold",
            FlightMode::Land => "land",
            FlightMode::Failsafe => "failsafe",
        };
        f.write_str(s)
    }
}

/// Error for an illegal mode transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransitionError {
    /// Mode the machine was in.
    pub from: FlightMode,
    /// Mode that was requested.
    pub to: FlightMode,
}

impl fmt::Display for TransitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "illegal flight-mode transition {} -> {}",
            self.from, self.to
        )
    }
}

impl std::error::Error for TransitionError {}

/// A mode holder that enforces legal transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModeMachine {
    mode: FlightMode,
}

impl ModeMachine {
    /// Starts disarmed.
    pub fn new() -> ModeMachine {
        ModeMachine {
            mode: FlightMode::Disarmed,
        }
    }

    /// Current mode.
    pub fn mode(&self) -> FlightMode {
        self.mode
    }

    /// Attempts a transition.
    ///
    /// # Errors
    ///
    /// Returns [`TransitionError`] when the transition is not legal.
    pub fn transition(&mut self, to: FlightMode) -> Result<(), TransitionError> {
        if self.mode.can_transition_to(to) {
            self.mode = to;
            Ok(())
        } else {
            Err(TransitionError {
                from: self.mode,
                to,
            })
        }
    }
}

impl Default for ModeMachine {
    fn default() -> Self {
        ModeMachine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use FlightMode::*;

    #[test]
    fn nominal_mission_path() {
        let mut m = ModeMachine::new();
        for mode in [Armed, Takeoff, Mission, Land, Disarmed] {
            m.transition(mode).unwrap_or_else(|e| panic!("{e}"));
        }
        assert_eq!(m.mode(), Disarmed);
    }

    #[test]
    fn cannot_skip_takeoff() {
        let mut m = ModeMachine::new();
        m.transition(Armed).unwrap();
        let err = m.transition(Mission).unwrap_err();
        assert_eq!(err.from, Armed);
        assert_eq!(err.to, Mission);
        assert!(err.to_string().contains("illegal"));
    }

    #[test]
    fn cannot_fly_while_disarmed() {
        let mut m = ModeMachine::new();
        assert!(m.transition(Takeoff).is_err());
        assert!(m.transition(Land).is_err());
        assert!(m.transition(Failsafe).is_err());
    }

    #[test]
    fn failsafe_from_any_flying_mode() {
        for start in [Takeoff, Mission, Hold, Land] {
            assert!(start.can_transition_to(Failsafe), "{start}");
        }
        assert!(!Disarmed.can_transition_to(Failsafe));
        assert!(!Armed.can_transition_to(Failsafe));
    }

    #[test]
    fn hold_and_resume() {
        let mut m = ModeMachine::new();
        for mode in [Armed, Takeoff, Mission, Hold, Mission] {
            m.transition(mode).unwrap();
        }
        assert_eq!(m.mode(), Mission);
    }

    #[test]
    fn no_self_transition() {
        let mut m = ModeMachine::new();
        m.transition(Armed).unwrap();
        assert!(m.transition(Armed).is_err());
    }

    #[test]
    fn armed_and_flying_predicates() {
        assert!(!Disarmed.is_armed());
        assert!(Armed.is_armed());
        assert!(!Armed.is_flying());
        assert!(Mission.is_flying());
        assert!(Failsafe.is_flying());
    }
}
