//! Rigid-body dynamics integration for the quadcopter.
//!
//! Semi-implicit Euler at the physics rate (≤1 ms steps recommended) with
//! quaternion attitude integration via the exponential map. Includes a
//! simple ground plane at z = 0 so take-off and landing scenarios work.

use crate::battery::BatterySim;
use crate::fault::FaultSchedule;
use crate::params::QuadcopterParams;
use crate::rotor::{RotorForces, RotorSet, ROTOR_COUNT};
use crate::state::RigidBodyState;
use drone_components::units::{Grams, Watts};
use drone_math::Vec3;
use drone_telemetry::{Clock, Counter, Gauge, Registry, SharedHistogram};
use std::sync::Arc;

/// Gravitational acceleration vector in the world frame (Z up), m/s².
pub const GRAVITY: Vec3 = Vec3 {
    x: 0.0,
    y: 0.0,
    z: -drone_components::units::STANDARD_GRAVITY,
};

/// Everything one physics step produces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutput {
    /// Rotor aggregate forces during the step.
    pub rotor: RotorForces,
    /// Total electrical power (propulsion + avionics).
    pub total_power: Watts,
    /// Whether the vehicle is resting on the ground plane.
    pub on_ground: bool,
}

/// A flying quadcopter: parameters + state + rotors + battery.
///
/// # Example
///
/// ```
/// use drone_sim::{Quadcopter, QuadcopterParams};
/// let mut quad = Quadcopter::new(QuadcopterParams::default_450mm());
/// let out = quad.step([quad.hover_throttle(); 4], drone_math::Vec3::ZERO, 1e-3);
/// assert!(out.total_power.0 > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Quadcopter {
    params: QuadcopterParams,
    state: RigidBodyState,
    rotors: RotorSet,
    battery: BatterySim,
    elapsed: f64,
    faults: FaultSchedule,
    telemetry: TelemetrySink,
}

/// Shared-handle metrics a quadcopter records into once attached via
/// [`Quadcopter::attach_telemetry`].
#[derive(Debug, Clone)]
struct SimTelemetry {
    clock: Clock,
    steps: Arc<Counter>,
    faults_fired: Arc<Counter>,
    power: Arc<SharedHistogram>,
    battery_soc: Arc<Gauge>,
}

/// Optional telemetry attachment. Where a quadcopter reports is
/// observability, not physics, so every sink compares equal — attaching
/// a registry must not make two otherwise-identical vehicles differ.
#[derive(Debug, Clone, Default)]
struct TelemetrySink(Option<SimTelemetry>);

impl PartialEq for TelemetrySink {
    fn eq(&self, _: &TelemetrySink) -> bool {
        true
    }
}

impl Quadcopter {
    /// Creates a quadcopter at rest on the ground at the origin.
    pub fn new(params: QuadcopterParams) -> Quadcopter {
        let rotors = RotorSet::new(&params);
        let battery = BatterySim::new(params.battery);
        Quadcopter {
            params,
            state: RigidBodyState::at_rest(),
            rotors,
            battery,
            elapsed: 0.0,
            faults: FaultSchedule::none(),
            telemetry: TelemetrySink(None),
        }
    }

    /// Creates a quadcopter already hovering at `altitude` metres with
    /// rotors pre-spun to hover speed (useful for control experiments
    /// that skip the take-off transient).
    pub fn hovering_at(params: QuadcopterParams, altitude: f64) -> Quadcopter {
        let mut quad = Quadcopter::new(params);
        quad.state = RigidBodyState::at_altitude(altitude);
        let throttle = quad.hover_throttle();
        // Converge the rotor lag to the hover speed.
        for _ in 0..2000 {
            quad.rotors.step([throttle; ROTOR_COUNT], 1e-3);
        }
        quad
    }

    /// Physical parameters.
    pub fn params(&self) -> &QuadcopterParams {
        &self.params
    }

    /// Current rigid-body state.
    pub fn state(&self) -> &RigidBodyState {
        &self.state
    }

    /// Mutable state access for test-harness injection of disturbances.
    pub fn state_mut(&mut self) -> &mut RigidBodyState {
        &mut self.state
    }

    /// Battery simulation state.
    pub fn battery(&self) -> &BatterySim {
        &self.battery
    }

    /// Rotor set (speeds, limits).
    pub fn rotors(&self) -> &RotorSet {
        &self.rotors
    }

    /// Simulated time elapsed, seconds.
    pub fn elapsed(&self) -> f64 {
        self.elapsed
    }

    /// Installs a fault schedule; events fire inside [`Quadcopter::step`]
    /// at their scheduled simulation times.
    pub fn inject_faults(&mut self, schedule: FaultSchedule) {
        self.faults = schedule;
    }

    /// The installed fault schedule (fired/remaining event accounting).
    pub fn faults(&self) -> &FaultSchedule {
        &self.faults
    }

    /// Attaches this vehicle to a telemetry registry. Every subsequent
    /// [`Quadcopter::step`] then counts itself (`sim.steps`), records
    /// electrical power (`sim.power_w`), publishes battery state of
    /// charge (`sim.battery.soc`), counts fault firings
    /// (`sim.faults.fired`) and drives the registry's sim clock to the
    /// vehicle's elapsed time, so spans anywhere in the stack measure
    /// against simulation seconds.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.telemetry.0 = Some(SimTelemetry {
            clock: registry.clock().clone(),
            steps: registry.counter("sim.steps"),
            faults_fired: registry.counter("sim.faults.fired"),
            power: registry.histogram("sim.power_w"),
            battery_soc: registry.gauge("sim.battery.soc"),
        });
    }

    /// The normalized throttle at which total rotor thrust equals weight.
    pub fn hover_throttle(&self) -> f64 {
        let n = self
            .params
            .propeller
            .rev_per_s_for_thrust(self.params.hover_thrust_per_motor());
        (n / self.rotors.max_speed()).min(1.0)
    }

    /// Advances the simulation by `dt` seconds under per-motor normalized
    /// throttle commands and a world-frame wind velocity (m/s).
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive and finite.
    pub fn step(&mut self, throttle: [f64; ROTOR_COUNT], wind: Vec3, dt: f64) -> StepOutput {
        assert!(
            dt > 0.0 && dt.is_finite(),
            "dt must be positive and finite, got {dt}"
        );
        // Fire due fault events against the physical components and pick
        // up any active gust burst before integrating.
        let faults_before = self.faults.remaining();
        let gust = self
            .faults
            .advance(self.elapsed, &mut self.rotors, &mut self.battery);
        let wind = wind + gust;
        self.rotors.step(throttle, dt);
        let rotor = self.rotors.forces(&self.params);

        let mass = self.params.total_mass_kg();
        let inertia = self.params.inertia_diagonal();

        // World-frame forces.
        let thrust_world = self.state.attitude.rotate(Vec3::Z * rotor.total_thrust);
        let air_vel = self.state.velocity - wind;
        let drag = Vec3::new(
            -self.params.linear_drag.x * air_vel.x * air_vel.x.abs(),
            -self.params.linear_drag.y * air_vel.y * air_vel.y.abs(),
            -self.params.linear_drag.z * air_vel.z * air_vel.z.abs(),
        );
        let accel = thrust_world / mass + GRAVITY + drag / mass;

        // Body-frame rotational dynamics: Iω̇ = τ − ω×(Iω) − k·ω + τ_flap.
        // Blade flapping: lateral airflow over the rotors tilts the
        // effective thrust away from the motion, producing a moment
        // proportional to thrust × airspeed (paper Table 1,
        // "propeller flapping").
        let air_body = self.state.attitude.rotate_inverse(air_vel);
        let flap_torque = Vec3::new(air_body.y, -air_body.x, 0.0)
            * (self.params.flapping_coefficient * rotor.total_thrust);
        let omega = self.state.angular_velocity;
        let i_omega = inertia.hadamard(omega);
        let torque =
            rotor.torque + flap_torque - omega.cross(i_omega) - omega * self.params.angular_drag;
        let alpha = Vec3::new(
            torque.x / inertia.x,
            torque.y / inertia.y,
            torque.z / inertia.z,
        );

        // Semi-implicit Euler: update velocities first, then positions.
        self.state.velocity += accel * dt;
        self.state.angular_velocity += alpha * dt;
        self.state.position += self.state.velocity * dt;
        self.state.attitude = self
            .state
            .attitude
            .integrate(self.state.angular_velocity, dt);

        // Ground plane at z = 0: no penetration; landing kills motion.
        let mut on_ground = false;
        if self.state.position.z <= 0.0 {
            self.state.position.z = 0.0;
            if self.state.velocity.z < 0.0 {
                self.state.velocity = Vec3::ZERO;
                self.state.angular_velocity = Vec3::ZERO;
                on_ground = true;
            }
            // Sitting on the ground with less-than-weight thrust.
            if rotor.total_thrust < self.params.total_weight().weight_newtons() {
                on_ground = true;
            }
        }

        let total_power = Watts(rotor.electrical_power.0 + self.params.avionics_power.0);
        self.battery.drain(total_power, dt);
        self.elapsed += dt;

        if let Some(tel) = &self.telemetry.0 {
            tel.steps.inc();
            let fired = (faults_before - self.faults.remaining()) as u64;
            if fired > 0 {
                tel.faults_fired.add(fired);
            }
            tel.power.record(total_power.0);
            tel.battery_soc.set(self.battery.remaining_fraction());
            tel.clock.set(self.elapsed);
        }

        StepOutput {
            rotor,
            total_power,
            on_ground,
        }
    }

    /// Adds payload weight mid-design (rebuilds derived quantities).
    pub fn add_payload(&mut self, weight: Grams) {
        self.params.accessories_weight += weight;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::QuadcopterParams;

    #[test]
    fn sits_on_ground_without_thrust() {
        let mut quad = Quadcopter::new(QuadcopterParams::default_450mm());
        for _ in 0..1000 {
            let out = quad.step([0.0; 4], Vec3::ZERO, 1e-3);
            assert!(out.on_ground);
        }
        assert_eq!(quad.state().position.z, 0.0);
    }

    #[test]
    fn full_throttle_takes_off() {
        let mut quad = Quadcopter::new(QuadcopterParams::default_450mm());
        for _ in 0..2000 {
            quad.step([1.0; 4], Vec3::ZERO, 1e-3);
        }
        assert!(
            quad.state().position.z > 1.0,
            "altitude {}",
            quad.state().position.z
        );
        assert!(quad.state().velocity.z > 0.0);
    }

    #[test]
    fn hover_throttle_holds_altitude_approximately() {
        let params = QuadcopterParams::default_450mm();
        let mut quad = Quadcopter::hovering_at(params, 10.0);
        let hover = quad.hover_throttle();
        for _ in 0..2000 {
            quad.step([hover; 4], Vec3::ZERO, 1e-3);
        }
        let drift = (quad.state().position.z - 10.0).abs();
        assert!(drift < 1.0, "altitude drift {drift}");
        assert!(quad.state().tilt_angle() < 0.01);
    }

    #[test]
    fn asymmetric_throttle_induces_rotation() {
        let params = QuadcopterParams::default_450mm();
        let mut quad = Quadcopter::hovering_at(params, 20.0);
        let hover = quad.hover_throttle();
        // Roll command: right rotors faster.
        for _ in 0..300 {
            quad.step(
                [hover - 0.05, hover + 0.05, hover + 0.05, hover - 0.05],
                Vec3::ZERO,
                1e-3,
            );
        }
        assert!(
            quad.state().angular_velocity.x.abs() > 0.05,
            "{}",
            quad.state()
        );
    }

    #[test]
    fn tilt_produces_horizontal_motion() {
        let params = QuadcopterParams::default_450mm();
        let mut quad = Quadcopter::hovering_at(params, 50.0);
        // Give it a 10° pitch and hover thrust; it must drift along X.
        quad.state_mut().attitude = drone_math::Quat::from_euler(0.0, 0.17, 0.0);
        let hover = quad.hover_throttle();
        for _ in 0..2000 {
            quad.step([hover; 4], Vec3::ZERO, 1e-3);
        }
        assert!(quad.state().velocity.x.abs() > 0.5, "{}", quad.state());
    }

    #[test]
    fn wind_pushes_the_drone() {
        let params = QuadcopterParams::default_450mm();
        let mut quad = Quadcopter::hovering_at(params, 50.0);
        let hover = quad.hover_throttle();
        for _ in 0..4000 {
            quad.step([hover; 4], Vec3::new(5.0, 0.0, 0.0), 1e-3);
        }
        assert!(
            quad.state().velocity.x > 0.2,
            "wind had no effect: {}",
            quad.state()
        );
    }

    #[test]
    fn battery_drains_during_flight() {
        let params = QuadcopterParams::default_450mm();
        let mut quad = Quadcopter::hovering_at(params, 10.0);
        let initial = quad.battery().remaining_fraction();
        let hover = quad.hover_throttle();
        for _ in 0..10_000 {
            quad.step([hover; 4], Vec3::ZERO, 1e-3);
        }
        assert!(quad.battery().remaining_fraction() < initial);
        assert!(quad.elapsed() > 9.9);
    }

    #[test]
    fn power_output_includes_avionics() {
        let mut quad = Quadcopter::new(QuadcopterParams::default_450mm());
        let out = quad.step([0.0; 4], Vec3::ZERO, 1e-3);
        // Rotors off: only avionics power remains.
        assert!((out.total_power.0 - quad.params().avionics_power.0).abs() < 0.5);
    }

    #[test]
    fn state_stays_finite_under_abuse() {
        let params = QuadcopterParams::default_450mm();
        let mut quad = Quadcopter::hovering_at(params, 100.0);
        let mut rng = drone_math::Pcg32::seed_from(1);
        for _ in 0..20_000 {
            let t = [
                rng.next_f64(),
                rng.next_f64(),
                rng.next_f64(),
                rng.next_f64(),
            ];
            quad.step(t, Vec3::new(rng.uniform(-10.0, 10.0), 0.0, 0.0), 1e-3);
            assert!(quad.state().is_finite(), "diverged: {}", quad.state());
        }
    }

    #[test]
    fn injected_rotor_out_unbalances_the_vehicle() {
        use crate::fault::{FaultEvent, FaultKind, FaultSchedule};
        let params = QuadcopterParams::default_450mm();
        let mut quad = Quadcopter::hovering_at(params, 30.0);
        quad.inject_faults(FaultSchedule::scripted(vec![FaultEvent {
            at: 0.5,
            kind: FaultKind::RotorOut { rotor: 0 },
        }]));
        let hover = quad.hover_throttle();
        for _ in 0..1500 {
            quad.step([hover; 4], Vec3::ZERO, 1e-3);
        }
        assert_eq!(quad.faults().remaining(), 0);
        assert_eq!(quad.rotors().effectiveness()[0], 0.0);
        // Open-loop hover with a dead rotor must tumble and descend.
        assert!(
            quad.state().tilt_angle() > 0.2,
            "tilt {}",
            quad.state().tilt_angle()
        );
        assert!(quad.state().velocity.z < -0.5, "{}", quad.state());
    }

    #[test]
    fn injected_gust_pushes_like_real_wind() {
        use crate::fault::{FaultEvent, FaultKind, FaultSchedule};
        let params = QuadcopterParams::default_450mm();
        let mut quad = Quadcopter::hovering_at(params, 50.0);
        quad.inject_faults(FaultSchedule::scripted(vec![FaultEvent {
            at: 0.0,
            kind: FaultKind::GustBurst {
                velocity: Vec3::new(6.0, 0.0, 0.0),
                duration: 4.0,
            },
        }]));
        let hover = quad.hover_throttle();
        for _ in 0..4000 {
            quad.step([hover; 4], Vec3::ZERO, 1e-3);
        }
        assert!(
            quad.state().velocity.x > 0.2,
            "gust had no effect: {}",
            quad.state()
        );
    }

    #[test]
    fn attached_telemetry_tracks_the_flight() {
        use drone_telemetry::Registry;
        let registry = Registry::with_sim_clock();
        let mut quad = Quadcopter::hovering_at(QuadcopterParams::default_450mm(), 10.0);
        quad.attach_telemetry(&registry);
        let hover = quad.hover_throttle();
        for _ in 0..500 {
            quad.step([hover; 4], Vec3::ZERO, 1e-3);
        }
        assert_eq!(registry.counter("sim.steps").get(), 500);
        assert_eq!(registry.histogram("sim.power_w").count(), 500);
        let soc = registry.gauge("sim.battery.soc").get();
        assert!(soc > 0.0 && soc < 1.0, "soc {soc}");
        // The vehicle drives the registry's sim clock.
        assert!((registry.clock().now() - quad.elapsed()).abs() < 1e-12);
        // Telemetry is observability, not physics: attached and bare
        // vehicles compare equal.
        let mut bare = Quadcopter::hovering_at(QuadcopterParams::default_450mm(), 10.0);
        for _ in 0..500 {
            bare.step([hover; 4], Vec3::ZERO, 1e-3);
        }
        assert_eq!(bare, quad);
    }

    #[test]
    fn attached_telemetry_counts_fault_firings() {
        use crate::fault::{FaultEvent, FaultKind, FaultSchedule};
        use drone_telemetry::Registry;
        let registry = Registry::with_sim_clock();
        let mut quad = Quadcopter::hovering_at(QuadcopterParams::default_450mm(), 30.0);
        quad.attach_telemetry(&registry);
        quad.inject_faults(FaultSchedule::scripted(vec![FaultEvent {
            at: 0.1,
            kind: FaultKind::RotorOut { rotor: 0 },
        }]));
        let hover = quad.hover_throttle();
        for _ in 0..300 {
            quad.step([hover; 4], Vec3::ZERO, 1e-3);
        }
        assert_eq!(registry.counter("sim.faults.fired").get(), 1);
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn zero_dt_panics() {
        let mut quad = Quadcopter::new(QuadcopterParams::default_450mm());
        quad.step([0.0; 4], Vec3::ZERO, 0.0);
    }
}
