//! Motor mixing: allocating collective thrust and body torques onto the
//! four rotors of an X-configuration quad.
//!
//! Inverting the rotor geometry of [`drone_sim::rotor`]: with rotor arm
//! half-spacing `l = arm/√2` and torque-to-thrust ratio `kq`, the
//! per-rotor thrusts follow in closed form, and each thrust maps to a
//! normalized speed command through `u = √(T / T_max)` (thrust is
//! quadratic in rotor speed).

use drone_math::Vec3;
use drone_sim::params::QuadcopterParams;
use drone_sim::rotor::ROTOR_COUNT;

/// Thrust/torque → per-motor throttle allocator.
///
/// # Example
///
/// ```
/// use drone_control::Mixer;
/// use drone_sim::QuadcopterParams;
/// use drone_math::Vec3;
/// let params = QuadcopterParams::default_450mm();
/// let mixer = Mixer::new(&params);
/// let hover = params.total_weight().weight_newtons();
/// let throttle = mixer.mix(hover, Vec3::ZERO);
/// // Pure collective: all four motors equal.
/// assert!((throttle[0] - throttle[3]).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mixer {
    /// Arm half-spacing `l` (m): rotor offset along each body axis.
    lever: f64,
    /// Rotor reaction-torque-to-thrust ratio (m).
    kq: f64,
    /// Maximum thrust a single rotor can produce (N).
    max_thrust_per_motor: f64,
}

impl Mixer {
    /// Builds the mixer for a specific airframe.
    pub fn new(params: &QuadcopterParams) -> Mixer {
        let lever = params.arm_length() / std::f64::consts::SQRT_2;
        // Q/T = Cp·D / (2π·Ct) is speed-independent for our rotor model.
        let prop = &params.propeller;
        let kq = prop.power_coefficient() * prop.diameter_m()
            / (2.0 * std::f64::consts::PI * prop.thrust_coefficient());
        let max_thrust_per_motor = params
            .motor
            .max_thrust_newtons(prop, params.supply_voltage());
        Mixer {
            lever,
            kq,
            max_thrust_per_motor,
        }
    }

    /// Maximum collective thrust, N.
    pub fn max_total_thrust(&self) -> f64 {
        4.0 * self.max_thrust_per_motor
    }

    /// Reaction-torque-to-thrust ratio, metres.
    pub fn torque_to_thrust_ratio(&self) -> f64 {
        self.kq
    }

    /// Allocates `total_thrust` newtons and `torque` N·m onto normalized
    /// per-motor speed commands in `0.0..=1.0`.
    ///
    /// Torque authority degrades gracefully at the thrust limits: each
    /// per-rotor thrust is clamped to its feasible range before the
    /// square-root map, prioritizing collective thrust over torque
    /// (standard desaturation behaviour).
    pub fn mix(&self, total_thrust: f64, torque: Vec3) -> [f64; ROTOR_COUNT] {
        let base = total_thrust.max(0.0) / 4.0;
        let dx = torque.x / (4.0 * self.lever);
        let dy = torque.y / (4.0 * self.lever);
        let dz = torque.z / (4.0 * self.kq);
        // Signs follow the rotor layout in `drone_sim::rotor`:
        // index 0 front-left (CCW), 1 front-right (CW),
        //       2 rear-right (CCW), 3 rear-left (CW).
        let thrusts = [
            base - dx - dy - dz,
            base + dx - dy + dz,
            base + dx + dy - dz,
            base - dx + dy + dz,
        ];
        let mut out = [0.0; ROTOR_COUNT];
        for (u, t) in out.iter_mut().zip(thrusts) {
            let clamped = t.clamp(0.0, self.max_thrust_per_motor);
            *u = (clamped / self.max_thrust_per_motor).sqrt();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drone_sim::rotor::RotorSet;

    fn setup() -> (QuadcopterParams, Mixer) {
        let params = QuadcopterParams::default_450mm();
        let mixer = Mixer::new(&params);
        (params, mixer)
    }

    /// Spin rotors to the mixer's commands and read back realized forces.
    fn realize(params: &QuadcopterParams, throttle: [f64; 4]) -> drone_sim::rotor::RotorForces {
        let mut rotors = RotorSet::new(params);
        for _ in 0..3000 {
            rotors.step(throttle, 1e-3);
        }
        rotors.forces(params)
    }

    #[test]
    fn collective_thrust_is_realized() {
        let (params, mixer) = setup();
        let want = params.total_weight().weight_newtons(); // hover
        let throttle = mixer.mix(want, Vec3::ZERO);
        let got = realize(&params, throttle);
        assert!(
            (got.total_thrust - want).abs() / want < 0.01,
            "thrust {}",
            got.total_thrust
        );
        assert!(got.torque.norm() < 1e-6);
    }

    #[test]
    fn roll_torque_is_realized() {
        let (params, mixer) = setup();
        let hover = params.total_weight().weight_newtons();
        let want = Vec3::new(0.2, 0.0, 0.0);
        let throttle = mixer.mix(hover, want);
        let got = realize(&params, throttle);
        assert!((got.torque.x - 0.2).abs() < 0.02, "τx {}", got.torque.x);
        assert!(got.torque.y.abs() < 1e-6 && got.torque.z.abs() < 1e-6);
    }

    #[test]
    fn pitch_and_yaw_torques_are_realized() {
        let (params, mixer) = setup();
        let hover = params.total_weight().weight_newtons();
        let want = Vec3::new(0.0, 0.15, 0.05);
        let got = realize(&params, mixer.mix(hover, want));
        assert!((got.torque.y - 0.15).abs() < 0.02, "τy {}", got.torque.y);
        assert!((got.torque.z - 0.05).abs() < 0.01, "τz {}", got.torque.z);
    }

    #[test]
    fn throttles_stay_normalized() {
        let (_, mixer) = setup();
        let crazy = mixer.mix(1e6, Vec3::new(100.0, -100.0, 50.0));
        for u in crazy {
            assert!((0.0..=1.0).contains(&u), "throttle {u}");
        }
        let negative = mixer.mix(-50.0, Vec3::ZERO);
        assert_eq!(negative, [0.0; 4]);
    }

    #[test]
    fn zero_demand_is_zero_output() {
        let (_, mixer) = setup();
        assert_eq!(mixer.mix(0.0, Vec3::ZERO), [0.0; 4]);
    }

    #[test]
    fn max_total_thrust_matches_params() {
        let (params, mixer) = setup();
        assert!((mixer.max_total_thrust() - params.max_total_thrust_newtons()).abs() < 1e-9);
    }

    #[test]
    fn torque_ratio_is_positive_and_small() {
        let (_, mixer) = setup();
        let kq = mixer.torque_to_thrust_ratio();
        // For a 10" prop kq is on the order of centimetres.
        assert!((0.001..0.1).contains(&kq), "kq {kq}");
    }
}
