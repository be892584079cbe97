//! Waypoint missions and the runner that feeds the outer loop.
//!
//! A mission is a list of items (take-off, waypoints, loiters, land); the
//! runner walks them against the *estimated* state and emits the position
//! setpoints that the paper's Table 1 assigns to outer-loop control.

use drone_control::Setpoint;
use drone_math::Vec3;
use drone_sim::RigidBodyState;
use std::fmt;

/// One mission element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MissionItem {
    /// Climb straight up to `altitude` metres above the start point.
    Takeoff {
        /// Target altitude (m).
        altitude: f64,
    },
    /// Fly to a world position and get within `acceptance_radius`.
    Waypoint {
        /// Target position (m).
        position: Vec3,
        /// Arrival tolerance (m).
        acceptance_radius: f64,
        /// Yaw to hold en route (rad).
        yaw: f64,
    },
    /// Hold the current target for `seconds`.
    Loiter {
        /// Hold duration (s).
        seconds: f64,
    },
    /// Descend and land at the current horizontal position.
    Land,
}

impl fmt::Display for MissionItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MissionItem::Takeoff { altitude } => write!(f, "takeoff to {altitude:.1} m"),
            MissionItem::Waypoint { position, .. } => write!(f, "waypoint {position}"),
            MissionItem::Loiter { seconds } => write!(f, "loiter {seconds:.1} s"),
            MissionItem::Land => write!(f, "land"),
        }
    }
}

/// An ordered list of mission items.
#[derive(Debug, Clone, PartialEq)]
pub struct Mission {
    items: Vec<MissionItem>,
}

/// Mission validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MissionError {
    /// Mission contains no items.
    Empty,
    /// First item is not a take-off.
    MissingTakeoff,
    /// A numeric field is non-positive or non-finite.
    InvalidParameter(String),
}

impl fmt::Display for MissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MissionError::Empty => f.write_str("mission has no items"),
            MissionError::MissingTakeoff => f.write_str("mission must begin with a takeoff item"),
            MissionError::InvalidParameter(what) => write!(f, "invalid mission parameter: {what}"),
        }
    }
}

impl std::error::Error for MissionError {}

impl Mission {
    /// Builds a validated mission.
    ///
    /// # Errors
    ///
    /// Returns [`MissionError`] when the item list is empty, does not
    /// start with a take-off, or contains non-finite / non-positive
    /// parameters.
    pub fn new(items: Vec<MissionItem>) -> Result<Mission, MissionError> {
        if items.is_empty() {
            return Err(MissionError::Empty);
        }
        if !matches!(items[0], MissionItem::Takeoff { .. }) {
            return Err(MissionError::MissingTakeoff);
        }
        for item in &items {
            match item {
                MissionItem::Takeoff { altitude } => {
                    if !altitude.is_finite() || *altitude <= 0.0 {
                        return Err(MissionError::InvalidParameter(format!(
                            "takeoff altitude {altitude}"
                        )));
                    }
                }
                MissionItem::Waypoint {
                    position,
                    acceptance_radius,
                    yaw,
                } => {
                    if !position.is_finite() || !yaw.is_finite() {
                        return Err(MissionError::InvalidParameter("non-finite waypoint".into()));
                    }
                    if !acceptance_radius.is_finite() || *acceptance_radius <= 0.0 {
                        return Err(MissionError::InvalidParameter(format!(
                            "acceptance radius {acceptance_radius}"
                        )));
                    }
                }
                MissionItem::Loiter { seconds } => {
                    if !seconds.is_finite() || *seconds < 0.0 {
                        return Err(MissionError::InvalidParameter(format!(
                            "loiter duration {seconds}"
                        )));
                    }
                }
                MissionItem::Land => {}
            }
        }
        Ok(Mission { items })
    }

    /// The mission items.
    pub fn items(&self) -> &[MissionItem] {
        &self.items
    }

    /// A square survey pattern at `center` altitude, side length `side`:
    /// take-off, four corners, return, land. The aerial-mapping workload
    /// of the paper's intro.
    pub fn survey_square(center: Vec3, side: f64) -> Mission {
        let h = side / 2.0;
        let alt = center.z;
        let corners = [
            Vec3::new(center.x - h, center.y - h, alt),
            Vec3::new(center.x + h, center.y - h, alt),
            Vec3::new(center.x + h, center.y + h, alt),
            Vec3::new(center.x - h, center.y + h, alt),
        ];
        let mut items = vec![MissionItem::Takeoff { altitude: alt }];
        for c in corners {
            items.push(MissionItem::Waypoint {
                position: c,
                acceptance_radius: 1.0,
                yaw: 0.0,
            });
        }
        items.push(MissionItem::Waypoint {
            position: Vec3::new(center.x, center.y, alt),
            acceptance_radius: 1.0,
            yaw: 0.0,
        });
        items.push(MissionItem::Land);
        Mission::new(items).expect("survey pattern is always valid")
    }

    /// A simple hover test: take-off, loiter, land.
    pub fn hover_test(altitude: f64, seconds: f64) -> Mission {
        Mission::new(vec![
            MissionItem::Takeoff { altitude },
            MissionItem::Loiter { seconds },
            MissionItem::Land,
        ])
        .expect("hover test is always valid")
    }
}

/// Progress state of the running mission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MissionProgress {
    /// Executing the item at this index.
    Active {
        /// Index into [`Mission::items`].
        index: usize,
    },
    /// All items complete (vehicle has landed).
    Complete,
}

/// Walks a [`Mission`] against state estimates, emitting setpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct MissionRunner {
    mission: Mission,
    progress: MissionProgress,
    home: Vec3,
    loiter_elapsed: f64,
    loiter_anchor: Option<Vec3>,
    land_anchor: Option<Vec3>,
}

impl MissionRunner {
    /// Creates a runner with the vehicle's current (home) position.
    pub fn new(mission: Mission, home: Vec3) -> MissionRunner {
        MissionRunner {
            mission,
            progress: MissionProgress::Active { index: 0 },
            home,
            loiter_elapsed: 0.0,
            loiter_anchor: None,
            land_anchor: None,
        }
    }

    /// Current progress.
    pub fn progress(&self) -> MissionProgress {
        self.progress
    }

    /// `true` once every item has completed.
    pub fn is_complete(&self) -> bool {
        matches!(self.progress, MissionProgress::Complete)
    }

    /// Currently active item, if any.
    pub fn current_item(&self) -> Option<&MissionItem> {
        match self.progress {
            MissionProgress::Active { index } => self.mission.items().get(index),
            MissionProgress::Complete => None,
        }
    }

    fn advance(&mut self) {
        if let MissionProgress::Active { index } = self.progress {
            self.loiter_elapsed = 0.0;
            self.loiter_anchor = None;
            self.land_anchor = None;
            if index + 1 >= self.mission.items().len() {
                self.progress = MissionProgress::Complete;
            } else {
                self.progress = MissionProgress::Active { index: index + 1 };
            }
        }
    }

    /// Produces the setpoint for this tick, advancing items as their
    /// completion criteria are met against the estimated state.
    ///
    /// Returns `None` once the mission is complete (vehicle landed).
    pub fn update(&mut self, estimate: &RigidBodyState, dt: f64) -> Option<Setpoint> {
        let MissionProgress::Active { index } = self.progress else {
            return None;
        };
        let item = self.mission.items()[index];
        match item {
            MissionItem::Takeoff { altitude } => {
                let target = Vec3::new(self.home.x, self.home.y, self.home.z + altitude);
                if (estimate.position.z - target.z).abs() < 0.5 {
                    self.advance();
                }
                Some(Setpoint::position(target, 0.0))
            }
            MissionItem::Waypoint {
                position,
                acceptance_radius,
                yaw,
            } => {
                if (estimate.position - position).norm() < acceptance_radius {
                    self.advance();
                }
                Some(Setpoint::position(position, yaw))
            }
            MissionItem::Loiter { seconds } => {
                let anchor = *self.loiter_anchor.get_or_insert(estimate.position);
                self.loiter_elapsed += dt;
                if self.loiter_elapsed >= seconds {
                    self.advance();
                }
                Some(Setpoint::position(anchor, 0.0))
            }
            MissionItem::Land => {
                let anchor = *self.land_anchor.get_or_insert(estimate.position);
                if estimate.position.z < 0.15 && estimate.velocity.norm() < 0.5 {
                    self.advance();
                    return None;
                }
                // Descend at ~1 m/s by dragging the target below.
                let target = Vec3::new(anchor.x, anchor.y, (estimate.position.z - 1.5).max(-1.0));
                Some(Setpoint::position(target, 0.0))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rules() {
        assert_eq!(Mission::new(vec![]).unwrap_err(), MissionError::Empty);
        assert_eq!(
            Mission::new(vec![MissionItem::Land]).unwrap_err(),
            MissionError::MissingTakeoff
        );
        assert!(matches!(
            Mission::new(vec![MissionItem::Takeoff { altitude: -1.0 }]).unwrap_err(),
            MissionError::InvalidParameter(_)
        ));
        assert!(matches!(
            Mission::new(vec![
                MissionItem::Takeoff { altitude: 5.0 },
                MissionItem::Waypoint {
                    position: Vec3::new(f64::NAN, 0.0, 5.0),
                    acceptance_radius: 1.0,
                    yaw: 0.0
                }
            ])
            .unwrap_err(),
            MissionError::InvalidParameter(_)
        ));
    }

    #[test]
    fn survey_square_structure() {
        let m = Mission::survey_square(Vec3::new(0.0, 0.0, 15.0), 30.0);
        assert_eq!(m.items().len(), 7);
        assert!(matches!(m.items()[0], MissionItem::Takeoff { .. }));
        assert!(matches!(m.items()[6], MissionItem::Land));
    }

    #[test]
    fn runner_walks_takeoff_then_waypoint() {
        let mission = Mission::new(vec![
            MissionItem::Takeoff { altitude: 10.0 },
            MissionItem::Waypoint {
                position: Vec3::new(5.0, 0.0, 10.0),
                acceptance_radius: 1.0,
                yaw: 0.0,
            },
            MissionItem::Land,
        ])
        .unwrap();
        let mut runner = MissionRunner::new(mission, Vec3::ZERO);

        // On the ground: setpoint is the takeoff column.
        let mut state = RigidBodyState::at_rest();
        let sp = runner.update(&state, 0.02).unwrap();
        assert_eq!(sp, Setpoint::position(Vec3::new(0.0, 0.0, 10.0), 0.0));

        // Reached altitude → advances to the waypoint.
        state.position.z = 9.8;
        let _ = runner.update(&state, 0.02).unwrap();
        let sp = runner.update(&state, 0.02).unwrap();
        assert_eq!(sp, Setpoint::position(Vec3::new(5.0, 0.0, 10.0), 0.0));

        // Reached waypoint → advances to land.
        state.position = Vec3::new(4.5, 0.0, 10.0);
        let _ = runner.update(&state, 0.02);
        assert!(matches!(runner.current_item(), Some(MissionItem::Land)));
    }

    #[test]
    fn loiter_times_out() {
        let mission = Mission::new(vec![
            MissionItem::Takeoff { altitude: 5.0 },
            MissionItem::Loiter { seconds: 1.0 },
            MissionItem::Land,
        ])
        .unwrap();
        let mut runner = MissionRunner::new(mission, Vec3::ZERO);
        let mut state = RigidBodyState::at_altitude(5.0);
        let _ = runner.update(&state, 0.02); // completes takeoff
        state.position.x = 0.3; // drifting while loitering
        for _ in 0..49 {
            let sp = runner.update(&state, 0.02).unwrap();
            // Loiter anchors at the first-seen position.
            assert_eq!(sp, Setpoint::position(Vec3::new(0.3, 0.0, 5.0), 0.0));
        }
        let _ = runner.update(&state, 0.02);
        assert!(matches!(runner.current_item(), Some(MissionItem::Land)));
    }

    #[test]
    fn landing_completes_on_touchdown() {
        let mission = Mission::hover_test(5.0, 0.0);
        let mut runner = MissionRunner::new(mission, Vec3::ZERO);
        let mut state = RigidBodyState::at_altitude(5.0);
        let _ = runner.update(&state, 0.02); // takeoff done
        let _ = runner.update(&state, 0.02); // loiter(0) done
                                             // Descending…
        let sp = runner.update(&state, 0.02).unwrap();
        match sp {
            Setpoint::Position { position, .. } => assert!(position.z < 5.0),
            other => panic!("unexpected setpoint {other:?}"),
        }
        // Touchdown.
        state.position = Vec3::new(0.0, 0.0, 0.05);
        state.velocity = Vec3::ZERO;
        assert!(runner.update(&state, 0.02).is_none());
        assert!(runner.is_complete());
        assert!(runner.update(&state, 0.02).is_none(), "stays complete");
    }

    #[test]
    fn display_items() {
        assert_eq!(
            MissionItem::Takeoff { altitude: 10.0 }.to_string(),
            "takeoff to 10.0 m"
        );
        assert_eq!(MissionItem::Land.to_string(), "land");
    }
}
