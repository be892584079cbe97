//! The autopilot proper: estimator + mode machine + mission runner +
//! control cascade, stepped like firmware from sensor data to motor
//! commands, with telemetry out the MAVLink side.

use crate::gcs::{MissionReceiver, CMD_ARM};
use crate::link::{LinkEvent, LinkMonitor};
use crate::mavlink::Message;
use crate::mission::{Mission, MissionError, MissionRunner};
use crate::mode::{FlightMode, ModeMachine, TransitionError};
use drone_control::{CascadeController, Setpoint};
use drone_estimation::{SensorReadings, StateEstimator};
use drone_math::Vec3;
use drone_sim::params::QuadcopterParams;
use drone_sim::rotor::ROTOR_COUNT;
use drone_telemetry::{Counter, Registry};
use std::fmt;
use std::sync::Arc;

/// Battery fraction below which the autopilot declares failsafe.
pub const FAILSAFE_BATTERY_FRACTION: f64 = 0.20;

/// Per-cell voltage below which the autopilot declares failsafe (LiPo
/// cells are damaged below ~3.0 V; 3.3 V leaves margin to land).
pub const FAILSAFE_CELL_VOLTS: f64 = 3.3;

/// Low voltage must persist this long before the failsafe fires —
/// transient sag under a throttle punch is not an emergency.
pub const LOW_VOLTAGE_HOLD_SECONDS: f64 = 0.5;

/// One telemetry log entry.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryRecord {
    /// Firmware time, s.
    pub time: f64,
    /// Mode at the time.
    pub mode: FlightMode,
    /// Estimated position, m.
    pub position: Vec3,
    /// Battery fraction remaining.
    pub battery_fraction: f64,
}

/// Errors the autopilot API can raise.
#[derive(Debug, Clone, PartialEq)]
pub enum AutopilotError {
    /// Mode transition refused.
    Mode(TransitionError),
    /// Mission rejected.
    Mission(MissionError),
    /// Operation requires a mission but none is loaded.
    NoMission,
}

impl fmt::Display for AutopilotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AutopilotError::Mode(e) => write!(f, "{e}"),
            AutopilotError::Mission(e) => write!(f, "{e}"),
            AutopilotError::NoMission => f.write_str("no mission uploaded"),
        }
    }
}

impl std::error::Error for AutopilotError {}

impl From<TransitionError> for AutopilotError {
    fn from(e: TransitionError) -> Self {
        AutopilotError::Mode(e)
    }
}

/// The flight firmware.
///
/// Call [`Autopilot::update`] at the inner-loop rate with fresh sensor
/// readings and the battery fraction; it returns motor throttle commands.
///
/// # Example
///
/// ```
/// use drone_firmware::{Autopilot, Mission};
/// use drone_sim::QuadcopterParams;
///
/// let params = QuadcopterParams::default_450mm();
/// let mut ap = Autopilot::new(&params);
/// ap.upload_mission(Mission::hover_test(5.0, 2.0)).unwrap();
/// ap.arm().unwrap();
/// assert!(ap.mode().is_armed());
/// ```
#[derive(Debug, Clone)]
pub struct Autopilot {
    mode: ModeMachine,
    estimator: StateEstimator,
    cascade: CascadeController,
    mission: Option<MissionRunner>,
    pending_mission: Option<Mission>,
    setpoint: Setpoint,
    home: Vec3,
    time: f64,
    telemetry: Vec<TelemetryRecord>,
    telemetry_interval: f64,
    last_telemetry: f64,
    outbox: Vec<Message>,
    seq: u8,
    mission_link: MissionReceiver,
    rc_override: Option<Setpoint>,
    link: LinkMonitor,
    /// Low-voltage failsafe threshold for the whole pack, volts.
    low_voltage_threshold: f64,
    /// Latest reported pack voltage (None until first report).
    reported_voltage: Option<f64>,
    /// Latest reported drain-limit flag.
    at_drain_limit: bool,
    /// How long the pack has been continuously under the threshold, s.
    low_voltage_for: f64,
    /// Failsafe-activation counter, present when telemetry is attached.
    failsafe_counter: Option<Arc<Counter>>,
}

impl Autopilot {
    /// Creates firmware for the given airframe, disarmed at the origin.
    pub fn new(params: &QuadcopterParams) -> Autopilot {
        Autopilot {
            mode: ModeMachine::new(),
            estimator: StateEstimator::new(),
            cascade: CascadeController::new(params),
            mission: None,
            pending_mission: None,
            setpoint: Setpoint::position(Vec3::ZERO, 0.0),
            home: Vec3::ZERO,
            time: 0.0,
            telemetry: Vec::new(),
            telemetry_interval: 0.1,
            last_telemetry: f64::NEG_INFINITY,
            outbox: Vec::new(),
            seq: 0,
            mission_link: MissionReceiver::new(),
            rc_override: None,
            link: LinkMonitor::default(),
            low_voltage_threshold: params.battery.nominal_voltage().0
                * (FAILSAFE_CELL_VOLTS / drone_components::battery::CELL_NOMINAL_VOLTS),
            reported_voltage: None,
            at_drain_limit: false,
            low_voltage_for: 0.0,
            failsafe_counter: None,
        }
    }

    /// Attaches the whole firmware stack to a telemetry registry: the
    /// estimator times its EKF phases and records NIS, the control
    /// cascade times its levels, and the autopilot itself counts
    /// failsafe activations (`firmware.failsafes`).
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.estimator.attach_telemetry(registry);
        self.cascade.attach_telemetry(registry);
        self.failsafe_counter = Some(registry.counter("firmware.failsafes"));
    }

    /// The state estimator (filter diagnostics such as
    /// [`StateEstimator::last_nis`]).
    pub fn estimator(&self) -> &StateEstimator {
        &self.estimator
    }

    /// The ground-station link watchdog.
    pub fn link(&self) -> &LinkMonitor {
        &self.link
    }

    /// Feeds the battery monitor with pack telemetry (terminal voltage
    /// and whether the 85 % safe-drain limit has been reached). Without
    /// reports only the state-of-charge failsafe is active.
    pub fn report_battery(&mut self, voltage: f64, at_drain_limit: bool) {
        self.reported_voltage = Some(voltage);
        self.at_drain_limit = at_drain_limit;
    }

    /// Current flight mode.
    pub fn mode(&self) -> FlightMode {
        self.mode.mode()
    }

    /// Latest state estimate.
    pub fn estimate(&self) -> drone_sim::RigidBodyState {
        self.estimator.state()
    }

    /// Firmware clock, seconds since boot.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Telemetry log.
    pub fn telemetry(&self) -> &[TelemetryRecord] {
        &self.telemetry
    }

    /// Drains queued MAVLink messages (ground-station downlink).
    pub fn drain_outbox(&mut self) -> Vec<Message> {
        std::mem::take(&mut self.outbox)
    }

    /// Processes an uplink message from the ground station (commands,
    /// mission uploads), returning the replies to send back. A completed
    /// mission upload replaces the pending mission, exactly like the
    /// paper's "reconfigured mid-flight" DroneKit path — the new mission
    /// takes effect at the next arm.
    pub fn handle_message(&mut self, msg: &Message) -> Vec<Message> {
        if let Message::Heartbeat { .. } = msg {
            if self.link.heartbeat() == Some(LinkEvent::Recovered) {
                self.outbox.push(Message::StatusText {
                    severity: 5,
                    text: "ground-station link recovered".into(),
                });
            }
            return Vec::new();
        }
        if let Message::CommandLong { command, params } = msg {
            if *command == CMD_ARM && params[0] > 0.5 {
                let result = u8::from(self.arm().is_err());
                return vec![Message::CommandAck {
                    command: *command,
                    result,
                }];
            }
            return vec![Message::CommandAck {
                command: *command,
                result: 2,
            }];
        }
        let replies = self.mission_link.handle(msg);
        if let Some(mission) = self.mission_link.take_mission() {
            let _ = self.upload_mission(mission);
        }
        replies
    }

    /// Engages or clears an RC / safety override. While engaged, the
    /// override setpoint feeds the inner loop directly and the mission
    /// holds — the paper's §2.1.3 "RC commands and safety override
    /// commands pass through the inner-loop to minimize response
    /// latency."
    pub fn set_rc_override(&mut self, setpoint: Option<Setpoint>) {
        self.rc_override = setpoint;
    }

    /// Whether an RC override is currently engaged.
    pub fn rc_override_active(&self) -> bool {
        self.rc_override.is_some()
    }

    /// Seeds the estimator with a known initial state (pre-flight
    /// alignment on the bench).
    pub fn align(&mut self, truth: &drone_sim::RigidBodyState) {
        self.estimator.initialize_from(truth);
        self.home = truth.position;
    }

    /// Uploads a mission (validated).
    ///
    /// # Errors
    ///
    /// Returns the underlying [`MissionError`] for invalid missions.
    pub fn upload_mission(&mut self, mission: Mission) -> Result<(), AutopilotError> {
        self.pending_mission = Some(mission);
        self.outbox.push(Message::StatusText {
            severity: 6,
            text: "mission uploaded".into(),
        });
        Ok(())
    }

    /// Arms the motors and, if a mission is loaded, begins take-off.
    ///
    /// # Errors
    ///
    /// Returns [`AutopilotError::NoMission`] without an uploaded mission,
    /// or a mode error when not disarmed.
    pub fn arm(&mut self) -> Result<(), AutopilotError> {
        let mission = self
            .pending_mission
            .take()
            .ok_or(AutopilotError::NoMission)?;
        self.mode.transition(FlightMode::Armed)?;
        let home = self.estimator.state().position;
        self.home = home;
        self.mission = Some(MissionRunner::new(mission, home));
        self.mode.transition(FlightMode::Takeoff)?;
        self.outbox.push(Message::StatusText {
            severity: 5,
            text: "armed: taking off".into(),
        });
        Ok(())
    }

    /// One firmware tick: ingest sensors, run mode logic + mission, run
    /// the control cascade, return motor commands.
    pub fn update(
        &mut self,
        readings: &SensorReadings,
        battery_fraction: f64,
        dt: f64,
    ) -> [f64; ROTOR_COUNT] {
        self.time += dt;
        self.estimator.ingest(readings, dt);
        let estimate = self.estimator.state();

        for event in self.link.tick(dt) {
            if event == LinkEvent::Lost {
                self.outbox.push(Message::StatusText {
                    severity: 2,
                    text: "ground-station link lost".into(),
                });
            }
        }
        match self.reported_voltage {
            Some(v) if v < self.low_voltage_threshold => self.low_voltage_for += dt,
            _ => self.low_voltage_for = 0.0,
        }

        // Failsafe checks dominate everything while flying.
        if self.mode().is_flying()
            && self.mode() != FlightMode::Failsafe
            && self.mode() != FlightMode::Land
        {
            let reason = if battery_fraction < FAILSAFE_BATTERY_FRACTION {
                Some(format!(
                    "battery {:.0}%: failsafe landing",
                    battery_fraction * 100.0
                ))
            } else if self.at_drain_limit {
                Some("battery at safe-drain limit: failsafe landing".into())
            } else if self.low_voltage_for >= LOW_VOLTAGE_HOLD_SECONDS {
                Some(format!(
                    "pack voltage {:.1} V below {:.1} V: failsafe landing",
                    self.reported_voltage.unwrap_or(0.0),
                    self.low_voltage_threshold
                ))
            } else if self.link.ever_connected() && !self.link.is_connected() {
                Some("ground-station link lost: failsafe landing".into())
            } else {
                None
            };
            if let Some(text) = reason {
                let _ = self.mode.transition(FlightMode::Failsafe);
                self.outbox.push(Message::StatusText { severity: 1, text });
                if let Some(counter) = &self.failsafe_counter {
                    counter.inc();
                }
            }
        }

        match self.mode() {
            FlightMode::Disarmed | FlightMode::Armed => {
                self.record_telemetry(&estimate, battery_fraction);
                return [0.0; ROTOR_COUNT];
            }
            FlightMode::Takeoff | FlightMode::Mission => {
                // RC override bypasses the mission layer entirely.
                if let Some(rc) = self.rc_override {
                    self.setpoint = rc;
                    self.record_telemetry(&estimate, battery_fraction);
                    return self.cascade.update(&estimate, &rc, dt);
                }
                let was_takeoff = self.mode() == FlightMode::Takeoff;
                if let Some(runner) = &mut self.mission {
                    match runner.update(&estimate, dt) {
                        Some(sp) => {
                            self.setpoint = sp;
                            // Promote Takeoff → Mission once past item 0.
                            if was_takeoff {
                                if let crate::mission::MissionProgress::Active { index } =
                                    runner.progress()
                                {
                                    if index > 0 {
                                        let _ = self.mode.transition(FlightMode::Mission);
                                    }
                                }
                            }
                        }
                        None => {
                            // Mission complete: landed.
                            let _ = self.mode.transition(FlightMode::Land);
                            let _ = self.mode.transition(FlightMode::Disarmed);
                            self.outbox.push(Message::StatusText {
                                severity: 5,
                                text: "mission complete: disarmed".into(),
                            });
                            self.record_telemetry(&estimate, battery_fraction);
                            return [0.0; ROTOR_COUNT];
                        }
                    }
                }
            }
            FlightMode::Hold => {
                // Keep the latched setpoint.
            }
            FlightMode::Land | FlightMode::Failsafe => {
                // Descend in place; disarm on touchdown.
                let p = estimate.position;
                if p.z < 0.15 && estimate.velocity.norm() < 0.5 {
                    let _ = self.mode.transition(FlightMode::Disarmed);
                    self.record_telemetry(&estimate, battery_fraction);
                    return [0.0; ROTOR_COUNT];
                }
                self.setpoint = Setpoint::position(Vec3::new(p.x, p.y, (p.z - 1.5).max(-1.0)), 0.0);
            }
        }

        self.record_telemetry(&estimate, battery_fraction);
        self.cascade.update(&estimate, &self.setpoint.clone(), dt)
    }

    fn record_telemetry(&mut self, estimate: &drone_sim::RigidBodyState, battery: f64) {
        if self.time - self.last_telemetry < self.telemetry_interval {
            return;
        }
        self.last_telemetry = self.time;
        self.telemetry.push(TelemetryRecord {
            time: self.time,
            mode: self.mode(),
            position: estimate.position,
            battery_fraction: battery,
        });
        let (roll, pitch, yaw) = estimate.euler();
        self.seq = self.seq.wrapping_add(1);
        self.outbox.push(Message::Heartbeat {
            mode: self.mode() as u8,
            armed: self.mode().is_armed(),
        });
        self.outbox.push(Message::Attitude {
            time_ms: (self.time * 1e3) as u32,
            roll: roll as f32,
            pitch: pitch as f32,
            yaw: yaw as f32,
        });
        self.outbox.push(Message::Position {
            time_ms: (self.time * 1e3) as u32,
            position: [
                estimate.position.x as f32,
                estimate.position.y as f32,
                estimate.position.z as f32,
            ],
            velocity: [
                estimate.velocity.x as f32,
                estimate.velocity.y as f32,
                estimate.velocity.z as f32,
            ],
        });
        self.outbox.push(Message::BatteryStatus {
            voltage_mv: 11_100,
            remaining_pct: (battery * 100.0).clamp(0.0, 100.0) as u8,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drone_estimation::SensorSuite;
    use drone_sim::{Quadcopter, WindModel};

    /// Run a full closed-loop flight: truth sim + sensors + firmware.
    /// `battery_override` is `(after_seconds, fraction)` — the reported
    /// battery level is pinned to `fraction` once the clock passes
    /// `after_seconds`, so failsafes can be triggered mid-flight.
    fn fly_mission(
        mission: Mission,
        seconds: f64,
        battery_override: Option<(f64, f64)>,
    ) -> (Quadcopter, Autopilot) {
        let params = QuadcopterParams::default_450mm();
        let mut quad = Quadcopter::new(params.clone());
        let mut sensors = SensorSuite::with_defaults(21);
        let mut ap = Autopilot::new(&params);
        ap.align(quad.state());
        ap.upload_mission(mission).unwrap();
        ap.arm().unwrap();
        let mut wind = WindModel::gusty(Vec3::new(1.0, 0.5, 0.0), 0.5, 5);
        let dt = 1e-3;
        let mut prev_vel = quad.state().velocity;
        for step in 0..(seconds / dt) as usize {
            let accel = (quad.state().velocity - prev_vel) / dt;
            prev_vel = quad.state().velocity;
            let readings = sensors.sample(quad.state(), accel, dt);
            let battery = match battery_override {
                Some((after, frac)) if step as f64 * dt > after => frac,
                _ => quad.battery().remaining_fraction(),
            };
            let throttle = ap.update(&readings, battery, dt);
            let w = wind.sample(dt);
            quad.step(throttle, w, dt);
            if ap.mode() == FlightMode::Disarmed && quad.state().position.z < 0.2 {
                break;
            }
        }
        (quad, ap)
    }

    #[test]
    fn completes_hover_mission_and_disarms() {
        let (quad, ap) = fly_mission(Mission::hover_test(8.0, 3.0), 60.0, None);
        assert_eq!(
            ap.mode(),
            FlightMode::Disarmed,
            "telemetry: {:?}",
            ap.telemetry().last()
        );
        assert!(quad.state().position.z < 0.3, "{}", quad.state());
        // It actually flew.
        let max_alt = ap
            .telemetry()
            .iter()
            .map(|t| t.position.z)
            .fold(0.0, f64::max);
        assert!(max_alt > 7.0, "max altitude {max_alt}");
    }

    #[test]
    fn flies_survey_square() {
        let mission = Mission::survey_square(Vec3::new(0.0, 0.0, 12.0), 16.0);
        let (quad, ap) = fly_mission(mission, 120.0, None);
        assert_eq!(ap.mode(), FlightMode::Disarmed);
        // Visited all four quadrants.
        let telemetry = ap.telemetry();
        for (sx, sy) in [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)] {
            let visited = telemetry
                .iter()
                .any(|t| t.position.x * sx > 4.0 && t.position.y * sy > 4.0);
            assert!(visited, "never visited quadrant ({sx},{sy})");
        }
        assert!(quad.state().position.z < 0.3);
    }

    #[test]
    fn battery_failsafe_lands() {
        // Battery cut below the failsafe threshold 10 s into the hover.
        let (quad, ap) = fly_mission(Mission::hover_test(10.0, 60.0), 60.0, Some((10.0, 0.10)));
        assert_eq!(ap.mode(), FlightMode::Disarmed);
        assert!(
            quad.state().position.z < 0.3,
            "failsafe never landed: {}",
            quad.state()
        );
        // It must have flagged failsafe in telemetry modes.
        assert!(
            ap.telemetry()
                .iter()
                .any(|t| t.mode == FlightMode::Failsafe),
            "failsafe mode never recorded"
        );
    }

    #[test]
    fn attached_telemetry_sees_the_whole_stack() {
        let params = QuadcopterParams::default_450mm();
        let mut quad = Quadcopter::new(params.clone());
        let mut sensors = SensorSuite::with_defaults(21);
        let mut ap = Autopilot::new(&params);
        let registry = Registry::new(drone_telemetry::Clock::wall());
        ap.attach_telemetry(&registry);
        ap.align(quad.state());
        ap.upload_mission(Mission::hover_test(10.0, 60.0)).unwrap();
        ap.arm().unwrap();
        let dt = 1e-3;
        let mut prev_vel = quad.state().velocity;
        for step in 0..30_000 {
            let accel = (quad.state().velocity - prev_vel) / dt;
            prev_vel = quad.state().velocity;
            let readings = sensors.sample(quad.state(), accel, dt);
            // Cut the battery 10 s in so the failsafe fires.
            let battery = if step as f64 * dt > 10.0 {
                0.10
            } else {
                quad.battery().remaining_fraction()
            };
            let throttle = ap.update(&readings, battery, dt);
            quad.step(throttle, Vec3::ZERO, dt);
            if ap.mode() == FlightMode::Disarmed && quad.state().position.z < 0.2 {
                break;
            }
        }
        assert_eq!(registry.counter("firmware.failsafes").get(), 1);
        // The estimator and cascade handles registered by the autopilot
        // saw every update.
        // NIS only accumulates at the (much slower) GPS/baro update
        // rates, the rest at the 1 kHz loop rate.
        for (name, floor) in [
            ("ekf.predict.seconds", 1_000),
            ("ekf.nis", 100),
            ("control.rate.seconds", 1_000),
            ("control.position.seconds", 100),
        ] {
            let h = registry.histogram(name).snapshot();
            assert!(h.count() > floor, "{name} only recorded {}", h.count());
        }
    }

    #[test]
    fn arm_requires_mission() {
        let params = QuadcopterParams::default_450mm();
        let mut ap = Autopilot::new(&params);
        assert_eq!(ap.arm().unwrap_err(), AutopilotError::NoMission);
    }

    #[test]
    fn telemetry_stream_is_mavlink_encodable() {
        let (_, mut ap) = fly_mission(Mission::hover_test(5.0, 1.0), 30.0, None);
        let msgs = ap.drain_outbox();
        assert!(msgs.len() > 50, "only {} messages", msgs.len());
        // Every message survives an encode/decode roundtrip.
        let mut parser = crate::mavlink::StreamParser::new();
        let mut wire = Vec::new();
        for (i, m) in msgs.iter().enumerate() {
            wire.extend_from_slice(&m.encode(i as u8, 1, 1));
        }
        let frames = parser.push(&wire);
        assert_eq!(frames.len(), msgs.len());
        assert_eq!(parser.crc_failures(), 0);
    }

    #[test]
    fn mission_upload_over_the_link_then_arm_command() {
        let params = QuadcopterParams::default_450mm();
        let mut ap = Autopilot::new(&params);
        let mut gcs = crate::gcs::GroundStation::new();
        // Upload a mission entirely through MAVLink messages.
        let mut to_vehicle = vec![gcs.begin_mission_upload(Mission::hover_test(6.0, 1.0))];
        for _ in 0..32 {
            let mut to_gcs = Vec::new();
            for m in &to_vehicle {
                to_gcs.extend(ap.handle_message(m));
            }
            to_vehicle.clear();
            for m in &to_gcs {
                to_vehicle.extend(gcs.handle(m));
            }
            if gcs.upload_result().is_some() {
                break;
            }
        }
        assert_eq!(gcs.upload_result(), Some(0), "upload not acknowledged");
        // Arm over the link.
        let replies = ap.handle_message(&gcs.arm_command());
        assert_eq!(
            replies,
            vec![Message::CommandAck {
                command: crate::gcs::CMD_ARM,
                result: 0
            }]
        );
        assert!(ap.mode().is_armed());
    }

    #[test]
    fn arm_command_without_mission_is_refused() {
        let params = QuadcopterParams::default_450mm();
        let mut ap = Autopilot::new(&params);
        let gcs = crate::gcs::GroundStation::new();
        let replies = ap.handle_message(&gcs.arm_command());
        assert_eq!(
            replies,
            vec![Message::CommandAck {
                command: crate::gcs::CMD_ARM,
                result: 1
            }]
        );
        assert_eq!(ap.mode(), FlightMode::Disarmed);
    }

    #[test]
    fn rc_override_takes_and_releases_control() {
        // Fly a long hover mission; mid-flight an RC override drags the
        // drone 5 m north, then releases and the mission resumes.
        let params = QuadcopterParams::default_450mm();
        let mut quad = Quadcopter::new(params.clone());
        let mut sensors = SensorSuite::with_defaults(41);
        let mut ap = Autopilot::new(&params);
        ap.align(quad.state());
        ap.upload_mission(Mission::hover_test(10.0, 40.0)).unwrap();
        ap.arm().unwrap();
        let dt = 1e-3;
        let mut prev_vel = quad.state().velocity;
        let mut max_x_during_override = 0.0f64;
        for step in 0..60_000 {
            let t = step as f64 * dt;
            if (t - 15.0).abs() < dt / 2.0 {
                ap.set_rc_override(Some(drone_control::Setpoint::position(
                    Vec3::new(5.0, 0.0, 10.0),
                    0.0,
                )));
            }
            if (t - 30.0).abs() < dt / 2.0 {
                ap.set_rc_override(None);
            }
            let accel = (quad.state().velocity - prev_vel) / dt;
            prev_vel = quad.state().velocity;
            let readings = sensors.sample(quad.state(), accel, dt);
            let throttle = ap.update(&readings, quad.battery().remaining_fraction(), dt);
            quad.step(throttle, Vec3::ZERO, dt);
            if (15.0..30.0).contains(&t) {
                max_x_during_override = max_x_during_override.max(quad.state().position.x);
            }
        }
        assert!(
            max_x_during_override > 4.0,
            "override never moved the drone: {max_x_during_override:.2} m"
        );
        // After release the mission (hover at origin) pulls it back.
        assert!(
            quad.state().position.x.abs() < 1.5,
            "mission did not resume: {}",
            quad.state()
        );
    }

    #[test]
    fn disarmed_outputs_zero_throttle() {
        let params = QuadcopterParams::default_450mm();
        let mut ap = Autopilot::new(&params);
        let out = ap.update(&SensorReadings::default(), 1.0, 1e-3);
        assert_eq!(out, [0.0; 4]);
    }

    /// Closed-loop flight with a GCS heartbeating at 1 Hz until
    /// `silence_after` seconds, when the ground station goes dark.
    fn fly_with_link(silence_after: f64, seconds: f64) -> (Quadcopter, Autopilot) {
        let params = QuadcopterParams::default_450mm();
        let mut quad = Quadcopter::new(params.clone());
        let mut sensors = SensorSuite::with_defaults(33);
        let mut ap = Autopilot::new(&params);
        ap.align(quad.state());
        ap.upload_mission(Mission::hover_test(10.0, 120.0)).unwrap();
        ap.arm().unwrap();
        let dt = 1e-3;
        let mut prev_vel = quad.state().velocity;
        let mut next_heartbeat = 0.0;
        for step in 0..(seconds / dt) as usize {
            let t = step as f64 * dt;
            if t >= next_heartbeat && t < silence_after {
                ap.handle_message(&Message::Heartbeat {
                    mode: 0,
                    armed: false,
                });
                next_heartbeat += 1.0;
            }
            let accel = (quad.state().velocity - prev_vel) / dt;
            prev_vel = quad.state().velocity;
            let readings = sensors.sample(quad.state(), accel, dt);
            let throttle = ap.update(&readings, quad.battery().remaining_fraction(), dt);
            quad.step(throttle, Vec3::ZERO, dt);
            if ap.mode() == FlightMode::Disarmed && quad.state().position.z < 0.2 {
                break;
            }
        }
        (quad, ap)
    }

    #[test]
    fn link_loss_triggers_failsafe_landing() {
        // GCS heartbeats for 15 s, then goes silent mid-hover: the
        // heartbeat timeout must drive Failsafe and land the vehicle.
        let (quad, ap) = fly_with_link(15.0, 90.0);
        assert_eq!(
            ap.mode(),
            FlightMode::Disarmed,
            "{:?}",
            ap.telemetry().last()
        );
        assert!(quad.state().position.z < 0.3, "{}", quad.state());
        assert!(
            ap.telemetry()
                .iter()
                .any(|t| t.mode == FlightMode::Failsafe),
            "failsafe never engaged"
        );
        assert_eq!(ap.link().drops(), 1);
        assert!(
            ap.link().reconnect_attempts() > 0,
            "no reconnects attempted"
        );
    }

    #[test]
    fn no_ground_station_means_no_link_failsafe() {
        // Never-connected links must not fail a bench flight (the
        // existing mission tests rely on this, but make it explicit).
        let (quad, ap) = fly_mission(Mission::hover_test(6.0, 3.0), 40.0, None);
        assert_eq!(ap.mode(), FlightMode::Disarmed);
        assert!(
            ap.telemetry()
                .iter()
                .all(|t| t.mode != FlightMode::Failsafe),
            "phantom link failsafe"
        );
        assert!(quad.state().position.z < 0.3);
    }

    #[test]
    fn drain_limit_report_triggers_failsafe() {
        let params = QuadcopterParams::default_450mm();
        let mut quad = Quadcopter::new(params.clone());
        let mut sensors = SensorSuite::with_defaults(34);
        let mut ap = Autopilot::new(&params);
        ap.align(quad.state());
        ap.upload_mission(Mission::hover_test(8.0, 120.0)).unwrap();
        ap.arm().unwrap();
        let dt = 1e-3;
        let mut prev_vel = quad.state().velocity;
        for step in 0..60_000 {
            let t = step as f64 * dt;
            // 20 s in, the pack monitor reports the 85 % drain limit
            // (battery fraction itself still far above the SoC failsafe).
            ap.report_battery(11.1, t > 20.0);
            let accel = (quad.state().velocity - prev_vel) / dt;
            prev_vel = quad.state().velocity;
            let readings = sensors.sample(quad.state(), accel, dt);
            let throttle = ap.update(&readings, 0.9, dt);
            quad.step(throttle, Vec3::ZERO, dt);
            if ap.mode() == FlightMode::Disarmed && quad.state().position.z < 0.2 {
                break;
            }
        }
        assert_eq!(ap.mode(), FlightMode::Disarmed);
        assert!(quad.state().position.z < 0.3, "{}", quad.state());
        assert!(ap
            .telemetry()
            .iter()
            .any(|t| t.mode == FlightMode::Failsafe));
    }

    #[test]
    fn sustained_low_voltage_triggers_failsafe_but_transients_do_not() {
        let params = QuadcopterParams::default_450mm();
        let mut ap = Autopilot::new(&params);
        ap.upload_mission(Mission::hover_test(5.0, 60.0)).unwrap();
        ap.arm().unwrap();
        let readings = SensorReadings::default();
        let voltage_failsafed = |ap: &mut Autopilot| {
            ap.drain_outbox().iter().any(
                |m| matches!(m, Message::StatusText { text, .. } if text.contains("pack voltage")),
            )
        };
        // A 0.3 s sag (throttle punch) must not fail the flight.
        ap.report_battery(9.0, false);
        for _ in 0..300 {
            ap.update(&readings, 0.9, 1e-3);
        }
        ap.report_battery(11.1, false);
        for _ in 0..300 {
            ap.update(&readings, 0.9, 1e-3);
        }
        assert!(
            !voltage_failsafed(&mut ap),
            "transient sag must be ridden out"
        );
        assert_eq!(ap.mode(), FlightMode::Takeoff);
        // Sustained brown-out does trip it (the grounded estimate then
        // disarms immediately — the landing is already "complete").
        ap.report_battery(9.0, false);
        for _ in 0..600 {
            ap.update(&readings, 0.9, 1e-3);
        }
        assert!(
            voltage_failsafed(&mut ap),
            "sustained low voltage never failsafed"
        );
        assert_eq!(ap.mode(), FlightMode::Disarmed);
    }
}
