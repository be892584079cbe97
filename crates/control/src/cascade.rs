//! The full rate-scheduled inner-loop cascade (paper Figure 6, Table 2b).
//!
//! Three levels with time-scale separation:
//!
//! | level    | controller          | update rate | response time |
//! |----------|---------------------|-------------|---------------|
//! | high     | position/trajectory | 40 Hz       | ~1 s          |
//! | mid      | attitude            | 200 Hz      | ~100 ms       |
//! | low      | thrust/body rate    | 1 kHz       | ~50 ms        |
//!
//! The outer loop (autonomy) only provides *set targets* — position,
//! velocity or attitude (paper Table 1); everything below runs here.

use crate::attitude::AttitudeController;
use crate::mixer::Mixer;
use crate::position::PositionController;
use drone_math::{Quat, Vec3};
use drone_sim::params::QuadcopterParams;
use drone_sim::rotor::ROTOR_COUNT;
use drone_sim::RigidBodyState;
use drone_telemetry::{Clock, Registry, SharedHistogram};
use std::sync::Arc;

/// Update frequencies of the three cascade levels, Hz.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlRates {
    /// High-level position loop rate.
    pub position_hz: f64,
    /// Mid-level attitude loop rate.
    pub attitude_hz: f64,
    /// Low-level rate/thrust loop rate (also the call rate of
    /// [`CascadeController::update`]).
    pub rate_hz: f64,
}

impl Default for ControlRates {
    /// The paper's Table 2b frequencies.
    fn default() -> Self {
        ControlRates {
            position_hz: 40.0,
            attitude_hz: 200.0,
            rate_hz: 1000.0,
        }
    }
}

impl ControlRates {
    /// Validates ordering (each level at least as fast as the one above).
    ///
    /// # Panics
    ///
    /// Panics if rates are non-positive or mis-ordered.
    pub fn validated(self) -> Self {
        assert!(
            self.position_hz > 0.0 && self.attitude_hz > 0.0 && self.rate_hz > 0.0,
            "rates must be positive"
        );
        assert!(
            self.position_hz <= self.attitude_hz && self.attitude_hz <= self.rate_hz,
            "time-scale separation requires position ≤ attitude ≤ rate frequency"
        );
        self
    }
}

/// A target handed down by the outer loop (paper Table 1 "set target").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Setpoint {
    /// Hold/reach a world position with the given yaw.
    Position {
        /// Target position, world frame (m).
        position: Vec3,
        /// Target yaw (rad).
        yaw: f64,
    },
    /// Track a world velocity with the given yaw.
    Velocity {
        /// Target velocity, world frame (m/s).
        velocity: Vec3,
        /// Target yaw (rad).
        yaw: f64,
    },
    /// Direct attitude + collective thrust (acro / outer-loop attitude
    /// control).
    Attitude {
        /// Attitude target.
        attitude: Quat,
        /// Collective thrust (N).
        thrust_newtons: f64,
    },
}

impl Setpoint {
    /// Position-hold setpoint.
    pub fn position(position: Vec3, yaw: f64) -> Setpoint {
        Setpoint::Position { position, yaw }
    }

    /// Velocity-tracking setpoint.
    pub fn velocity(velocity: Vec3, yaw: f64) -> Setpoint {
        Setpoint::Velocity { velocity, yaw }
    }
}

/// The complete inner loop: position → attitude → rate → mixer.
///
/// Call [`CascadeController::update`] at the low-level rate; the higher
/// levels decimate themselves internally, exactly like a real flight
/// stack's rate groups.
#[derive(Debug, Clone, PartialEq)]
pub struct CascadeController {
    rates: ControlRates,
    position: PositionController,
    attitude: AttitudeController,
    mixer: Mixer,
    hover_thrust: f64,
    // Latched intermediate commands between slow-level updates.
    attitude_cmd: Quat,
    thrust_cmd: f64,
    rate_setpoint: Vec3,
    time_since_position: f64,
    time_since_attitude: f64,
    updates: CascadeUpdateCounts,
    telemetry: TelemetrySink,
}

/// Per-level timing histograms the cascade records into once attached
/// via [`CascadeController::attach_telemetry`]. Under a wall-clock
/// registry these measure real compute per level; under a sim clock
/// they stay zero (control levels are instantaneous in sim time) but
/// their counts still mirror [`CascadeUpdateCounts`].
#[derive(Debug, Clone)]
struct CascadeTelemetry {
    clock: Clock,
    position: Arc<SharedHistogram>,
    attitude: Arc<SharedHistogram>,
    rate: Arc<SharedHistogram>,
}

/// Optional telemetry attachment; always compares equal so attaching a
/// registry never makes two otherwise-identical controllers differ.
#[derive(Debug, Clone, Default)]
struct TelemetrySink(Option<CascadeTelemetry>);

impl PartialEq for TelemetrySink {
    fn eq(&self, _: &TelemetrySink) -> bool {
        true
    }
}

/// Diagnostic counters: how often each level actually ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CascadeUpdateCounts {
    /// High-level (position) executions.
    pub position: u64,
    /// Mid-level (attitude) executions.
    pub attitude: u64,
    /// Low-level (rate) executions.
    pub rate: u64,
}

impl CascadeController {
    /// Creates a cascade at the paper's Table 2b rates.
    pub fn new(params: &QuadcopterParams) -> CascadeController {
        CascadeController::with_rates(params, ControlRates::default())
    }

    /// Creates a cascade with custom rates (for the inner-loop saturation
    /// experiments).
    pub fn with_rates(params: &QuadcopterParams, rates: ControlRates) -> CascadeController {
        let rates = rates.validated();
        CascadeController {
            rates,
            position: PositionController::new(params),
            attitude: AttitudeController::new(params),
            mixer: Mixer::new(params),
            hover_thrust: params.total_weight().weight_newtons(),
            attitude_cmd: Quat::IDENTITY,
            thrust_cmd: params.total_weight().weight_newtons(),
            rate_setpoint: Vec3::ZERO,
            time_since_position: f64::INFINITY,
            time_since_attitude: f64::INFINITY,
            updates: CascadeUpdateCounts::default(),
            telemetry: TelemetrySink(None),
        }
    }

    /// Attaches per-level timing telemetry: every subsequent
    /// [`CascadeController::update`] records how long each cascade level
    /// spent executing into `control.position.seconds`,
    /// `control.attitude.seconds` and `control.rate.seconds`.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.telemetry.0 = Some(CascadeTelemetry {
            clock: registry.clock().clone(),
            position: registry.histogram("control.position.seconds"),
            attitude: registry.histogram("control.attitude.seconds"),
            rate: registry.histogram("control.rate.seconds"),
        });
    }

    /// Configured rates.
    pub fn rates(&self) -> ControlRates {
        self.rates
    }

    /// Per-level execution counters.
    pub fn update_counts(&self) -> CascadeUpdateCounts {
        self.updates
    }

    /// Runs one low-level tick: consumes the state estimate and the
    /// current outer-loop setpoint, returns per-motor throttle.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive.
    pub fn update(
        &mut self,
        state: &RigidBodyState,
        setpoint: &Setpoint,
        dt: f64,
    ) -> [f64; ROTOR_COUNT] {
        assert!(dt > 0.0, "dt must be positive");
        self.time_since_position += dt;
        self.time_since_attitude += dt;

        // High level at position_hz.
        let position_period = 1.0 / self.rates.position_hz;
        if self.time_since_position >= position_period {
            let level_start = self.telemetry.0.as_ref().map(|t| t.clock.now());
            let step_dt = if self.time_since_position.is_finite() {
                self.time_since_position
            } else {
                position_period
            };
            match setpoint {
                Setpoint::Position { position, yaw } => {
                    let cmd = self
                        .position
                        .update_position(state, *position, *yaw, step_dt);
                    self.attitude_cmd = cmd.attitude;
                    self.thrust_cmd = cmd.thrust_newtons;
                }
                Setpoint::Velocity { velocity, yaw } => {
                    let cmd = self
                        .position
                        .update_velocity(state, *velocity, *yaw, step_dt);
                    self.attitude_cmd = cmd.attitude;
                    self.thrust_cmd = cmd.thrust_newtons;
                }
                Setpoint::Attitude {
                    attitude,
                    thrust_newtons,
                } => {
                    self.attitude_cmd = *attitude;
                    self.thrust_cmd = *thrust_newtons;
                }
            }
            self.time_since_position = 0.0;
            self.updates.position += 1;
            if let (Some(start), Some(tel)) = (level_start, &self.telemetry.0) {
                tel.position.record(tel.clock.now() - start);
            }
        }

        // Mid level at attitude_hz.
        let attitude_period = 1.0 / self.rates.attitude_hz;
        if self.time_since_attitude >= attitude_period {
            let level_start = self.telemetry.0.as_ref().map(|t| t.clock.now());
            self.rate_setpoint = self
                .attitude
                .rate_setpoint(state.attitude, self.attitude_cmd);
            self.time_since_attitude = 0.0;
            self.updates.attitude += 1;
            if let (Some(start), Some(tel)) = (level_start, &self.telemetry.0) {
                tel.attitude.record(tel.clock.now() - start);
            }
        }

        // Low level every tick.
        let level_start = self.telemetry.0.as_ref().map(|t| t.clock.now());
        let torque = self
            .attitude
            .update_rate_only(state.angular_velocity, self.rate_setpoint, dt);
        self.updates.rate += 1;
        let throttle = self.mixer.mix(self.thrust_cmd, torque);
        if let (Some(start), Some(tel)) = (level_start, &self.telemetry.0) {
            tel.rate.record(tel.clock.now() - start);
        }
        throttle
    }

    /// Resets all controller history.
    pub fn reset(&mut self) {
        self.position.reset();
        self.attitude.reset();
        self.rate_setpoint = Vec3::ZERO;
        self.attitude_cmd = Quat::IDENTITY;
        self.thrust_cmd = self.hover_thrust;
        self.time_since_position = f64::INFINITY;
        self.time_since_attitude = f64::INFINITY;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drone_sim::{Quadcopter, WindModel};

    fn fly(
        setpoint: Setpoint,
        seconds: f64,
        wind: &mut WindModel,
    ) -> (Quadcopter, CascadeController) {
        let params = QuadcopterParams::default_450mm();
        let mut quad = Quadcopter::hovering_at(params.clone(), 10.0);
        let mut ctrl = CascadeController::new(&params);
        let dt = 1e-3;
        for _ in 0..(seconds / dt) as usize {
            let throttle = ctrl.update(quad.state(), &setpoint, dt);
            let w = wind.sample(dt);
            quad.step(throttle, w, dt);
        }
        (quad, ctrl)
    }

    #[test]
    fn holds_hover_position() {
        let sp = Setpoint::position(Vec3::new(0.0, 0.0, 10.0), 0.0);
        let (quad, _) = fly(sp, 5.0, &mut WindModel::calm());
        let err = (quad.state().position - Vec3::new(0.0, 0.0, 10.0)).norm();
        assert!(err < 0.2, "hover error {err} m: {}", quad.state());
    }

    #[test]
    fn flies_to_position_target() {
        let target = Vec3::new(5.0, -3.0, 15.0);
        let sp = Setpoint::position(target, 0.5);
        let (quad, _) = fly(sp, 12.0, &mut WindModel::calm());
        let err = (quad.state().position - target).norm();
        assert!(err < 0.5, "position error {err} m: {}", quad.state());
        let (_, _, yaw) = quad.state().euler();
        assert!((yaw - 0.5).abs() < 0.1, "yaw {yaw}");
    }

    #[test]
    fn tracks_velocity_setpoint() {
        let sp = Setpoint::velocity(Vec3::new(2.0, 0.0, 0.0), 0.0);
        let (quad, _) = fly(sp, 6.0, &mut WindModel::calm());
        assert!(
            (quad.state().velocity.x - 2.0).abs() < 0.4,
            "{}",
            quad.state()
        );
    }

    #[test]
    fn rejects_wind_gusts() {
        // Table 1: wind gusts are the inner loop's job. Hold position in
        // a 5 m/s mean wind with 2 m/s gusts.
        let sp = Setpoint::position(Vec3::new(0.0, 0.0, 10.0), 0.0);
        let mut wind = WindModel::gusty(Vec3::new(5.0, 0.0, 0.0), 2.0, 3);
        let (quad, _) = fly(sp, 15.0, &mut wind);
        let err = (quad.state().position - Vec3::new(0.0, 0.0, 10.0)).norm();
        assert!(err < 1.5, "wind hold error {err} m: {}", quad.state());
    }

    #[test]
    fn update_counts_respect_rate_groups() {
        let sp = Setpoint::position(Vec3::new(0.0, 0.0, 10.0), 0.0);
        let (_, ctrl) = fly(sp, 2.0, &mut WindModel::calm());
        let c = ctrl.update_counts();
        // 2 s at 1 kHz / 200 Hz / 40 Hz.
        assert!(
            (c.rate as i64 - 2000).abs() <= 2,
            "rate ran {} times",
            c.rate
        );
        assert!(
            (c.attitude as i64 - 400).abs() <= 4,
            "attitude ran {} times",
            c.attitude
        );
        assert!(
            (c.position as i64 - 80).abs() <= 2,
            "position ran {} times",
            c.position
        );
    }

    #[test]
    fn attitude_setpoint_passthrough() {
        let params = QuadcopterParams::default_450mm();
        let hover = params.total_weight().weight_newtons();
        let sp = Setpoint::Attitude {
            attitude: Quat::from_euler(0.0, 0.0, 1.0),
            thrust_newtons: hover,
        };
        let (quad, _) = fly(sp, 4.0, &mut WindModel::calm());
        let (_, _, yaw) = quad.state().euler();
        assert!((yaw - 1.0).abs() < 0.1, "yaw {yaw}");
    }

    #[test]
    fn attached_telemetry_mirrors_update_counts() {
        use drone_telemetry::Registry;
        let registry = Registry::with_wall_clock();
        let params = QuadcopterParams::default_450mm();
        let mut quad = Quadcopter::hovering_at(params.clone(), 10.0);
        let mut ctrl = CascadeController::new(&params);
        ctrl.attach_telemetry(&registry);
        let sp = Setpoint::position(Vec3::new(0.0, 0.0, 10.0), 0.0);
        for _ in 0..2000 {
            let throttle = ctrl.update(quad.state(), &sp, 1e-3);
            quad.step(throttle, Vec3::ZERO, 1e-3);
        }
        let c = ctrl.update_counts();
        assert_eq!(registry.histogram("control.rate.seconds").count(), c.rate);
        assert_eq!(
            registry.histogram("control.attitude.seconds").count(),
            c.attitude
        );
        assert_eq!(
            registry.histogram("control.position.seconds").count(),
            c.position
        );
        // Telemetry attachment does not change control outputs: an
        // identically-driven bare controller ends in the same state.
        let mut bare_quad = Quadcopter::hovering_at(params.clone(), 10.0);
        let mut bare = CascadeController::new(&params);
        for _ in 0..2000 {
            let throttle = bare.update(bare_quad.state(), &sp, 1e-3);
            bare_quad.step(throttle, Vec3::ZERO, 1e-3);
        }
        assert_eq!(bare, ctrl);
        assert_eq!(bare_quad, quad);
    }

    #[test]
    #[should_panic(expected = "time-scale separation")]
    fn misordered_rates_panic() {
        let params = QuadcopterParams::default_450mm();
        let _ = CascadeController::with_rates(
            &params,
            ControlRates {
                position_hz: 500.0,
                attitude_hz: 200.0,
                rate_hz: 1000.0,
            },
        );
    }

    #[test]
    fn runs_at_slower_inner_rates_too() {
        // The paper: commercial inner loops run 50–500 Hz. The cascade
        // must still hold hover at 250 Hz ticks.
        let params = QuadcopterParams::default_450mm();
        let mut quad = Quadcopter::hovering_at(params.clone(), 10.0);
        let mut ctrl = CascadeController::with_rates(
            &params,
            ControlRates {
                position_hz: 40.0,
                attitude_hz: 125.0,
                rate_hz: 250.0,
            },
        );
        let sp = Setpoint::position(Vec3::new(0.0, 0.0, 10.0), 0.0);
        let dt = 1.0 / 250.0;
        let mut throttle = [0.0; 4];
        let sim_dt = 1e-3;
        for i in 0..10_000 {
            if (i as f64 * sim_dt) % dt < sim_dt {
                throttle = ctrl.update(quad.state(), &sp, dt);
            }
            quad.step(throttle, Vec3::ZERO, sim_dt);
        }
        let err = (quad.state().position - Vec3::new(0.0, 0.0, 10.0)).norm();
        assert!(err < 0.5, "hover at 250 Hz failed: {err} m");
    }
}
