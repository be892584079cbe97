//! The combined state estimator: complementary attitude filter + position
//! EKF, producing the full `(ζ, ζ̇, Ω, R)` state the control cascade
//! consumes (paper §2.1.3-D).

use crate::complementary::ComplementaryFilter;
use crate::ekf::NavigationEkf;
use crate::sensors::SensorReadings;
use drone_components::units::STANDARD_GRAVITY;
use drone_math::Vec3;
use drone_sim::RigidBodyState;
use drone_telemetry::{Clock, Counter, Registry, SharedHistogram};
use std::sync::Arc;

/// Full-state estimator over the on-board sensor suite.
///
/// # Example
///
/// ```
/// use drone_estimation::{StateEstimator, SensorReadings};
/// use drone_math::Vec3;
/// let mut est = StateEstimator::new();
/// let readings = SensorReadings {
///     accelerometer: Some(Vec3::Z * 9.81),
///     gyroscope: Some(Vec3::ZERO),
///     gps: Some(Vec3::new(0.0, 0.0, 5.0)),
///     ..Default::default()
/// };
/// est.ingest(&readings, 0.005);
/// assert!(est.state().position.z > 0.0);
/// ```
/// Seconds of silence after which each channel is declared dead:
/// ~20 nominal periods for the fast IMU channels, a handful of periods
/// for the slow aiding sensors (indices match `sensors::SensorChannel`).
const DEAD_TIMEOUT: [f64; 5] = [0.1, 0.1, 0.5, 0.5, 1.0];

/// Liveness of each sensor channel as seen by the estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SensorHealthReport {
    /// Accelerometer published within its timeout.
    pub accelerometer_ok: bool,
    /// Gyroscope published within its timeout.
    pub gyroscope_ok: bool,
    /// Magnetometer published within its timeout.
    pub magnetometer_ok: bool,
    /// Barometer published within its timeout.
    pub barometer_ok: bool,
    /// GPS published within its timeout.
    pub gps_ok: bool,
}

impl SensorHealthReport {
    /// Every channel alive.
    pub fn all_ok(&self) -> bool {
        self.accelerometer_ok
            && self.gyroscope_ok
            && self.magnetometer_ok
            && self.barometer_ok
            && self.gps_ok
    }

    /// Position aiding is gone (GPS *and* barometer dead): the EKF is
    /// dead-reckoning and position uncertainty grows without bound.
    pub fn navigation_degraded(&self) -> bool {
        !self.gps_ok && !self.barometer_ok
    }

    /// Attitude has fallen back to reduced complementary filtering
    /// (gyro-only tilt or no heading correction).
    pub fn attitude_fallback(&self) -> bool {
        !self.accelerometer_ok || !self.magnetometer_ok
    }
}

impl Default for SensorHealthReport {
    fn default() -> Self {
        SensorHealthReport {
            accelerometer_ok: true,
            gyroscope_ok: true,
            magnetometer_ok: true,
            barometer_ok: true,
            gps_ok: true,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct StateEstimator {
    attitude: ComplementaryFilter,
    navigation: NavigationEkf,
    last_gyro: Vec3,
    last_accel_world: Vec3,
    /// Seconds since each channel last published (SensorChannel order).
    silence: [f64; 5],
    telemetry: TelemetrySink,
}

/// Metrics the estimator records into once attached via
/// [`StateEstimator::attach_telemetry`].
#[derive(Debug, Clone)]
struct EstimatorTelemetry {
    clock: Clock,
    predict: Arc<SharedHistogram>,
    update: Arc<SharedHistogram>,
    nis: Arc<SharedHistogram>,
    health_transitions: Arc<Counter>,
    last_health: SensorHealthReport,
}

/// Optional telemetry attachment; always compares equal so attaching a
/// registry never makes two otherwise-identical estimators differ.
#[derive(Debug, Clone, Default)]
struct TelemetrySink(Option<EstimatorTelemetry>);

impl PartialEq for TelemetrySink {
    fn eq(&self, _: &TelemetrySink) -> bool {
        true
    }
}

impl StateEstimator {
    /// Creates an estimator with default filter tuning.
    pub fn new() -> StateEstimator {
        StateEstimator {
            attitude: ComplementaryFilter::default(),
            navigation: NavigationEkf::new(),
            last_gyro: Vec3::ZERO,
            last_accel_world: Vec3::ZERO,
            silence: [0.0; 5],
            telemetry: TelemetrySink(None),
        }
    }

    /// Attaches telemetry: every subsequent [`StateEstimator::ingest`]
    /// times the EKF predict (`ekf.predict.seconds`) and measurement
    /// fusion (`ekf.update.seconds`) phases, records the NIS of each
    /// fused measurement (`ekf.nis`), and counts sensor-health state
    /// changes (`estimator.health.transitions`).
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.telemetry.0 = Some(EstimatorTelemetry {
            clock: registry.clock().clone(),
            predict: registry.histogram("ekf.predict.seconds"),
            update: registry.histogram("ekf.update.seconds"),
            nis: registry.histogram("ekf.nis"),
            health_transitions: registry.counter("estimator.health.transitions"),
            last_health: self.health(),
        });
    }

    /// NIS of the EKF's most recent fused measurement (see
    /// [`NavigationEkf::last_nis`]).
    pub fn last_nis(&self) -> f64 {
        self.navigation.last_nis()
    }

    /// Enables EKF innovation gating (outlier rejection). Off by
    /// default: a cold-started filter must be allowed to converge from
    /// large initial errors.
    pub fn set_innovation_gating(&mut self, enabled: bool) {
        self.navigation.set_innovation_gating(enabled);
    }

    /// Measurements rejected by the EKF innovation gate.
    pub fn innovations_rejected(&self) -> u64 {
        self.navigation.innovations_rejected()
    }

    /// Current per-channel liveness.
    pub fn health(&self) -> SensorHealthReport {
        SensorHealthReport {
            accelerometer_ok: self.silence[0] <= DEAD_TIMEOUT[0],
            gyroscope_ok: self.silence[1] <= DEAD_TIMEOUT[1],
            magnetometer_ok: self.silence[2] <= DEAD_TIMEOUT[2],
            barometer_ok: self.silence[3] <= DEAD_TIMEOUT[3],
            gps_ok: self.silence[4] <= DEAD_TIMEOUT[4],
        }
    }

    /// Seeds the estimator from a known initial state (pre-flight
    /// alignment).
    pub fn initialize_from(&mut self, state: &RigidBodyState) {
        self.attitude.set_attitude(state.attitude);
        self.navigation.set_state(state.position, state.velocity);
    }

    /// Ingests one tick of sensor readings spanning `dt` seconds.
    pub fn ingest(&mut self, readings: &SensorReadings, dt: f64) {
        let published = [
            readings.accelerometer.is_some(),
            readings.gyroscope.is_some(),
            readings.magnetometer.is_some(),
            readings.barometer.is_some(),
            readings.gps.is_some(),
        ];
        for (s, fresh) in self.silence.iter_mut().zip(published) {
            *s = if fresh { 0.0 } else { *s + dt };
        }
        let health = self.health();
        if let Some(tel) = &mut self.telemetry.0 {
            if health != tel.last_health {
                tel.health_transitions.inc();
                tel.last_health = health;
            }
        }

        // Holding the last rate bridges the gap between IMU samples, but
        // a dead gyro must not spin the attitude forever.
        if !health.gyroscope_ok {
            self.last_gyro = Vec3::ZERO;
        }
        let gyro = readings.gyroscope.unwrap_or(self.last_gyro);
        self.last_gyro = gyro;
        self.attitude
            .update(gyro, readings.accelerometer, readings.magnetometer, dt);

        // Rotate specific force to the world frame and strip gravity.
        // Between accelerometer samples (the IMU publishes slower than
        // the estimator ticks) the last acceleration is held — feeding
        // zero instead would dilute the propagated velocity.
        let accel_world = match readings.accelerometer {
            Some(f_body) => {
                let a = self.attitude.attitude().rotate(f_body) - Vec3::Z * STANDARD_GRAVITY;
                self.last_accel_world = a;
                a
            }
            None => {
                // A *dead* accelerometer is different from the gap
                // between samples: integrating a stale acceleration for
                // seconds would run the velocity away, so fall back to
                // constant-velocity prediction.
                if !health.accelerometer_ok {
                    self.last_accel_world = Vec3::ZERO;
                }
                self.last_accel_world
            }
        };
        let predict_start = self.telemetry.0.as_ref().map(|t| t.clock.now());
        self.navigation.predict(accel_world, dt);
        if let (Some(start), Some(tel)) = (predict_start, &self.telemetry.0) {
            tel.predict.record(tel.clock.now() - start);
        }

        let any_measurement = readings.gps.is_some()
            || readings.gps_velocity.is_some()
            || readings.barometer.is_some();
        let update_start = self.telemetry.0.as_ref().map(|t| t.clock.now());
        if let Some(gps) = readings.gps {
            self.navigation.update_gps(gps);
            self.record_nis();
        }
        if let Some(vel) = readings.gps_velocity {
            self.navigation.update_gps_velocity(vel);
            self.record_nis();
        }
        if let Some(alt) = readings.barometer {
            self.navigation.update_baro(alt);
            self.record_nis();
        }
        if any_measurement {
            if let (Some(start), Some(tel)) = (update_start, &self.telemetry.0) {
                tel.update.record(tel.clock.now() - start);
            }
        }
    }

    /// Records the EKF's latest NIS into the attached registry, if any.
    fn record_nis(&self) {
        if let Some(tel) = &self.telemetry.0 {
            tel.nis.record(self.navigation.last_nis());
        }
    }

    /// Current full-state estimate.
    pub fn state(&self) -> RigidBodyState {
        RigidBodyState {
            position: self.navigation.position(),
            velocity: self.navigation.velocity(),
            attitude: self.attitude.attitude(),
            angular_velocity: self.last_gyro,
        }
    }

    /// Scalar position-uncertainty diagnostic.
    pub fn position_uncertainty(&self) -> f64 {
        self.navigation.position_uncertainty()
    }
}

impl Default for StateEstimator {
    fn default() -> Self {
        StateEstimator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensors::SensorSuite;
    use drone_math::Quat;

    /// Feed the estimator from a static truth state and return the final
    /// estimate error in metres / radians.
    fn static_errors(truth: RigidBodyState, seconds: f64) -> (f64, f64) {
        let mut suite = SensorSuite::with_defaults(4);
        let mut est = StateEstimator::new();
        let dt = 1e-3;
        for _ in 0..(seconds / dt) as usize {
            let readings = suite.sample(&truth, Vec3::ZERO, dt);
            est.ingest(&readings, dt);
        }
        let s = est.state();
        (
            (s.position - truth.position).norm(),
            s.attitude.angle_to(truth.attitude),
        )
    }

    #[test]
    fn estimates_static_pose_from_noisy_sensors() {
        let mut truth = RigidBodyState::at_altitude(12.0);
        truth.position.x = 4.0;
        truth.attitude = Quat::from_euler(0.0, 0.0, 0.7);
        let (pos_err, att_err) = static_errors(truth, 20.0);
        assert!(pos_err < 0.6, "position error {pos_err}");
        assert!(att_err < 0.08, "attitude error {att_err}");
    }

    #[test]
    fn initialization_shortcuts_convergence() {
        let truth = RigidBodyState::at_altitude(50.0);
        let mut suite = SensorSuite::with_defaults(8);
        let mut est = StateEstimator::new();
        est.initialize_from(&truth);
        let readings = suite.sample(&truth, Vec3::ZERO, 1e-3);
        est.ingest(&readings, 1e-3);
        assert!((est.state().position - truth.position).norm() < 0.5);
    }

    #[test]
    fn tracks_a_flying_quadcopter() {
        // Closed truth loop: quadcopter under hover throttle with the
        // estimator running alongside on its sensor outputs.
        let params = drone_sim::QuadcopterParams::default_450mm();
        let mut quad = drone_sim::Quadcopter::hovering_at(params, 10.0);
        let mut suite = SensorSuite::with_defaults(6);
        let mut est = StateEstimator::new();
        est.initialize_from(quad.state());
        let hover = quad.hover_throttle();
        let dt = 1e-3;
        let mut prev_vel = quad.state().velocity;
        for _ in 0..10_000 {
            quad.step([hover; 4], Vec3::ZERO, dt);
            let accel = (quad.state().velocity - prev_vel) / dt;
            prev_vel = quad.state().velocity;
            let readings = suite.sample(quad.state(), accel, dt);
            est.ingest(&readings, dt);
        }
        let err = (est.state().position - quad.state().position).norm();
        assert!(err < 1.0, "tracking error {err}");
    }

    #[test]
    fn gyro_holds_between_samples() {
        let mut est = StateEstimator::new();
        let spin = SensorReadings {
            gyroscope: Some(Vec3::Z * 0.5),
            ..Default::default()
        };
        est.ingest(&spin, 0.005);
        // Next tick without a gyro sample: last rate is held.
        let empty = SensorReadings::default();
        est.ingest(&empty, 0.005);
        assert_eq!(est.state().angular_velocity, Vec3::Z * 0.5);
    }

    #[test]
    fn uncertainty_reported() {
        let est = StateEstimator::new();
        assert!(est.position_uncertainty() > 0.0);
    }

    #[test]
    fn attached_telemetry_times_the_filter_and_counts_health_changes() {
        use drone_telemetry::Registry;
        let registry = Registry::with_wall_clock();
        let mut est = StateEstimator::new();
        est.attach_telemetry(&registry);
        let imu_and_gps = SensorReadings {
            accelerometer: Some(Vec3::Z * 9.81),
            gyroscope: Some(Vec3::ZERO),
            gps: Some(Vec3::ZERO),
            ..Default::default()
        };
        for _ in 0..100 {
            est.ingest(&imu_and_gps, 0.005);
        }
        assert_eq!(registry.histogram("ekf.predict.seconds").count(), 100);
        assert_eq!(registry.histogram("ekf.update.seconds").count(), 100);
        assert_eq!(registry.histogram("ekf.nis").count(), 100);
        // Mag/baro silent: one transition from all-ok once their
        // timeouts expire. GPS keeps publishing.
        assert_eq!(registry.counter("estimator.health.transitions").get(), 1);
        assert!(!est.health().magnetometer_ok && !est.health().barometer_ok);
        // Telemetry attachment does not perturb the estimate.
        let mut bare = StateEstimator::new();
        for _ in 0..100 {
            bare.ingest(&imu_and_gps, 0.005);
        }
        assert_eq!(bare, est);
    }

    #[test]
    fn silent_channels_are_declared_dead_after_their_timeouts() {
        let mut est = StateEstimator::new();
        assert!(
            est.health().all_ok(),
            "everything is presumed alive at startup"
        );
        // Only the IMU publishes; the aiding sensors stay silent.
        let imu_only = SensorReadings {
            accelerometer: Some(Vec3::Z * 9.81),
            gyroscope: Some(Vec3::ZERO),
            ..Default::default()
        };
        for _ in 0..400 {
            est.ingest(&imu_only, 0.005); // 2 s
        }
        let h = est.health();
        assert!(h.accelerometer_ok && h.gyroscope_ok);
        assert!(!h.magnetometer_ok && !h.barometer_ok && !h.gps_ok);
        assert!(h.navigation_degraded());
        assert!(h.attitude_fallback());
    }

    #[test]
    fn aiding_loss_degrades_navigation_but_attitude_survives() {
        use crate::sensors::{SensorChannel, SensorFault, SensorFaultKind};
        let mut truth = RigidBodyState::at_altitude(15.0);
        truth.attitude = Quat::from_euler(0.1, -0.05, 0.4);
        let mut suite = SensorSuite::with_defaults(21);
        for channel in [SensorChannel::Gps, SensorChannel::Barometer] {
            suite.inject_fault(SensorFault {
                channel,
                kind: SensorFaultKind::Dropout,
                start: 5.0,
                duration: f64::INFINITY,
            });
        }
        let mut est = StateEstimator::new();
        est.initialize_from(&truth);
        let dt = 1e-3;
        let mut uncertainty_at_fault = 0.0;
        for i in 0..10_000 {
            let readings = suite.sample(&truth, Vec3::ZERO, dt);
            est.ingest(&readings, dt);
            if i == 5000 {
                uncertainty_at_fault = est.position_uncertainty();
            }
        }
        assert!(est.health().navigation_degraded());
        assert!(
            est.position_uncertainty() > uncertainty_at_fault * 2.0,
            "dead reckoning must grow uncertainty: {} vs {}",
            est.position_uncertainty(),
            uncertainty_at_fault
        );
        // Attitude runs on the complementary filter and never needed the
        // dead aiding sensors.
        let att_err = est.state().attitude.angle_to(truth.attitude);
        assert!(att_err < 0.08, "attitude error {att_err}");
    }

    #[test]
    fn innovation_gate_rejects_a_gps_bias_step() {
        use crate::sensors::{SensorChannel, SensorFault, SensorFaultKind};
        let truth = RigidBodyState::at_altitude(10.0);
        let mut suite = SensorSuite::with_defaults(22);
        suite.inject_fault(SensorFault {
            channel: SensorChannel::Gps,
            kind: SensorFaultKind::BiasStep(50.0),
            start: 3.0,
            duration: 4.0,
        });
        let mut est = StateEstimator::new();
        est.initialize_from(&truth);
        est.set_innovation_gating(true);
        let dt = 1e-3;
        let mut worst = 0.0f64;
        for _ in 0..10_000 {
            let readings = suite.sample(&truth, Vec3::ZERO, dt);
            est.ingest(&readings, dt);
            worst = worst.max((est.state().position - truth.position).norm());
        }
        assert!(
            est.innovations_rejected() > 10,
            "the 50 m fixes must bounce off the gate"
        );
        // Without gating the estimate walks tens of metres; with it the
        // healthy Doppler/baro channels hold the fort.
        assert!(
            worst < 10.0,
            "estimate excursion {worst} m during the bias window"
        );
        let final_err = (est.state().position - truth.position).norm();
        assert!(final_err < 1.0, "post-fault error {final_err}");
    }
}
