//! On-board sensor models at the paper's Table 2a data rates.
//!
//! Each sensor publishes at its own frequency with Gaussian noise and a
//! constant bias, fed from simulation truth. The IMU measures *specific
//! force* (acceleration minus gravity, in the body frame) and body rates;
//! GPS measures position (and is deliberately poor vertically); the
//! barometer measures altitude; the magnetometer measures heading.

use drone_components::units::STANDARD_GRAVITY;
use drone_math::{Pcg32, Vec3};
use drone_sim::RigidBodyState;

/// Rates from paper Table 2a, Hz (midpoints of the quoted ranges).
pub mod rates {
    /// Accelerometer: 100–200 Hz.
    pub const ACCELEROMETER_HZ: f64 = 200.0;
    /// Gyroscope: 100–200 Hz.
    pub const GYROSCOPE_HZ: f64 = 200.0;
    /// Magnetometer: 10 Hz.
    pub const MAGNETOMETER_HZ: f64 = 10.0;
    /// Barometer: 10–20 Hz.
    pub const BAROMETER_HZ: f64 = 20.0;
    /// GPS: 1–40 Hz.
    pub const GPS_HZ: f64 = 10.0;
}

/// One sensor channel of the Table 2a suite. The discriminants index the
/// suite's internal schedule array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SensorChannel {
    /// Body-frame specific force.
    Accelerometer = 0,
    /// Body-frame angular rate.
    Gyroscope = 1,
    /// Heading reference.
    Magnetometer = 2,
    /// Barometric altitude.
    Barometer = 3,
    /// Position + Doppler velocity.
    Gps = 4,
}

/// What a faulted channel does while the fault window is active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SensorFaultKind {
    /// The channel stops publishing entirely.
    Dropout,
    /// The channel keeps publishing the last healthy sample.
    StuckValue,
    /// A constant offset is added to every axis (hard-iron shift, baro
    /// drift, GPS multipath plateau).
    BiasStep(f64),
    /// Extra white noise with this standard deviation (vibration, EMI).
    NoiseBurst(f64),
}

/// A timed fault window on one sensor channel.
///
/// Active while `start <= t < start + duration`; use
/// `f64::INFINITY` for a permanent failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorFault {
    /// Which channel misbehaves.
    pub channel: SensorChannel,
    /// How it misbehaves.
    pub kind: SensorFaultKind,
    /// Suite-clock time the fault begins, s.
    pub start: f64,
    /// How long it lasts, s.
    pub duration: f64,
}

/// Last healthy sample per channel, replayed by `StuckValue` faults.
#[derive(Debug, Clone, Default)]
struct HeldReadings {
    accel: Option<Vec3>,
    gyro: Option<Vec3>,
    mag: Option<Vec3>,
    baro: Option<f64>,
    gps: Option<Vec3>,
    gps_velocity: Option<Vec3>,
}

/// Noise/bias description of one vector sensor channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelSpec {
    /// Publish rate, Hz.
    pub rate_hz: f64,
    /// White-noise standard deviation per axis.
    pub noise_std: f64,
    /// Constant bias magnitude drawn at startup.
    pub bias_scale: f64,
}

/// One batch of sensor outputs; `None` means the sensor did not publish
/// this tick (rate decimation).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SensorReadings {
    /// Body-frame specific force, m/s² (gravity-reactive: reads +g·ẑ at
    /// rest).
    pub accelerometer: Option<Vec3>,
    /// Body-frame angular rate, rad/s.
    pub gyroscope: Option<Vec3>,
    /// World-frame magnetic field direction measured in the body frame.
    pub magnetometer: Option<Vec3>,
    /// Barometric altitude, m.
    pub barometer: Option<f64>,
    /// GPS position, world frame, m.
    pub gps: Option<Vec3>,
    /// GPS Doppler velocity, world frame, m/s (same schedule as the
    /// position fix — real receivers report both).
    pub gps_velocity: Option<Vec3>,
}

/// The full on-board suite with per-sensor schedules.
#[derive(Debug, Clone)]
pub struct SensorSuite {
    accel_spec: ChannelSpec,
    gyro_spec: ChannelSpec,
    mag_spec: ChannelSpec,
    baro_spec: ChannelSpec,
    gps_spec: ChannelSpec,
    accel_bias: Vec3,
    gyro_bias: Vec3,
    baro_bias: f64,
    clock: f64,
    next_due: [f64; 5],
    rng: Pcg32,
    /// Injected fault windows (sorted by nothing; scanned per tick).
    faults: Vec<SensorFault>,
    /// Separate stream for fault noise so that an inactive fault list
    /// leaves the nominal sensor stream bit-identical.
    fault_rng: Pcg32,
    held: HeldReadings,
}

impl SensorSuite {
    /// Creates a suite with consumer-grade noise at Table 2a rates.
    pub fn with_defaults(seed: u64) -> SensorSuite {
        SensorSuite::new(
            ChannelSpec {
                rate_hz: rates::ACCELEROMETER_HZ,
                noise_std: 0.08,
                bias_scale: 0.05,
            },
            ChannelSpec {
                rate_hz: rates::GYROSCOPE_HZ,
                noise_std: 0.005,
                bias_scale: 0.002,
            },
            ChannelSpec {
                rate_hz: rates::MAGNETOMETER_HZ,
                noise_std: 0.02,
                bias_scale: 0.0,
            },
            ChannelSpec {
                rate_hz: rates::BAROMETER_HZ,
                noise_std: 0.15,
                bias_scale: 0.3,
            },
            ChannelSpec {
                rate_hz: rates::GPS_HZ,
                noise_std: 0.5,
                bias_scale: 0.0,
            },
            seed,
        )
    }

    /// Creates a suite with explicit channel specifications.
    ///
    /// # Panics
    ///
    /// Panics if any rate is not positive.
    pub fn new(
        accel: ChannelSpec,
        gyro: ChannelSpec,
        mag: ChannelSpec,
        baro: ChannelSpec,
        gps: ChannelSpec,
        seed: u64,
    ) -> SensorSuite {
        for spec in [&accel, &gyro, &mag, &baro, &gps] {
            assert!(spec.rate_hz > 0.0, "sensor rate must be positive");
        }
        let mut rng = Pcg32::seed_from(seed);
        let accel_bias = Vec3::new(
            rng.normal_with(0.0, accel.bias_scale),
            rng.normal_with(0.0, accel.bias_scale),
            rng.normal_with(0.0, accel.bias_scale),
        );
        let gyro_bias = Vec3::new(
            rng.normal_with(0.0, gyro.bias_scale),
            rng.normal_with(0.0, gyro.bias_scale),
            rng.normal_with(0.0, gyro.bias_scale),
        );
        let baro_bias = rng.normal_with(0.0, baro.bias_scale);
        SensorSuite {
            accel_spec: accel,
            gyro_spec: gyro,
            mag_spec: mag,
            baro_spec: baro,
            gps_spec: gps,
            accel_bias,
            gyro_bias,
            baro_bias,
            clock: 0.0,
            next_due: [0.0; 5],
            rng,
            faults: Vec::new(),
            fault_rng: Pcg32::new(seed, 0xFA17),
            held: HeldReadings::default(),
        }
    }

    /// Schedules a fault window on one channel.
    pub fn inject_fault(&mut self, fault: SensorFault) {
        self.faults.push(fault);
    }

    /// Removes all scheduled faults (past windows included).
    pub fn clear_faults(&mut self) {
        self.faults.clear();
    }

    /// Injected faults, in insertion order.
    pub fn faults(&self) -> &[SensorFault] {
        &self.faults
    }

    fn noisy_vec(rng: &mut Pcg32, v: Vec3, std: f64) -> Vec3 {
        Vec3::new(
            v.x + rng.normal_with(0.0, std),
            v.y + rng.normal_with(0.0, std),
            v.z + rng.normal_with(0.0, std),
        )
    }

    /// Samples all sensors against the truth state; `accel_world` is the
    /// vehicle's world-frame acceleration (excluding gravity) this tick.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive.
    pub fn sample(&mut self, truth: &RigidBodyState, accel_world: Vec3, dt: f64) -> SensorReadings {
        assert!(dt > 0.0, "dt must be positive");
        self.clock += dt;
        let mut out = SensorReadings::default();
        let specs = [
            self.accel_spec.rate_hz,
            self.gyro_spec.rate_hz,
            self.mag_spec.rate_hz,
            self.baro_spec.rate_hz,
            self.gps_spec.rate_hz,
        ];
        let mut due = [false; 5];
        for i in 0..5 {
            if self.clock + 1e-12 >= self.next_due[i] {
                due[i] = true;
                self.next_due[i] += 1.0 / specs[i];
                // Never let the schedule fall behind the clock.
                if self.next_due[i] < self.clock {
                    self.next_due[i] = self.clock + 1.0 / specs[i];
                }
            }
        }

        if due[0] {
            // Specific force in body frame: f = Rᵀ(a − g); with g = −g·ẑ a
            // resting IMU reads +g on body z.
            let f_world = accel_world + Vec3::Z * STANDARD_GRAVITY;
            let f_body = truth.attitude.rotate_inverse(f_world);
            out.accelerometer = Some(
                Self::noisy_vec(&mut self.rng, f_body, self.accel_spec.noise_std) + self.accel_bias,
            );
        }
        if due[1] {
            out.gyroscope = Some(
                Self::noisy_vec(
                    &mut self.rng,
                    truth.angular_velocity,
                    self.gyro_spec.noise_std,
                ) + self.gyro_bias,
            );
        }
        if due[2] {
            // Field points along world +X (magnetic north).
            let field_body = truth.attitude.rotate_inverse(Vec3::X);
            out.magnetometer = Some(Self::noisy_vec(
                &mut self.rng,
                field_body,
                self.mag_spec.noise_std,
            ));
        }
        if due[3] {
            out.barometer = Some(
                truth.position.z
                    + self.baro_bias
                    + self.rng.normal_with(0.0, self.baro_spec.noise_std),
            );
        }
        if due[4] {
            // GPS vertical channel is ~2x noisier than horizontal.
            let base = Self::noisy_vec(&mut self.rng, truth.position, self.gps_spec.noise_std);
            let extra_z = self.rng.normal_with(0.0, self.gps_spec.noise_std);
            out.gps = Some(Vec3::new(base.x, base.y, base.z + extra_z));
            // Doppler velocity: much cleaner than differentiated position.
            out.gps_velocity = Some(Self::noisy_vec(&mut self.rng, truth.velocity, 0.2));
        }
        self.apply_faults(&mut out);
        out
    }

    /// Applies active fault windows to one tick of readings.
    ///
    /// Order matters: dropout silences the channel, stuck replays the
    /// last healthy sample, then bias/noise corrupt whatever is left.
    fn apply_faults(&mut self, out: &mut SensorReadings) {
        let now = self.clock;
        let mut dropped = [false; 5];
        let mut stuck = [false; 5];
        let mut bias = [0.0f64; 5];
        let mut burst = [0.0f64; 5];
        for f in &self.faults {
            if now + 1e-12 < f.start || now >= f.start + f.duration {
                continue;
            }
            let i = f.channel as usize;
            match f.kind {
                SensorFaultKind::Dropout => dropped[i] = true,
                SensorFaultKind::StuckValue => stuck[i] = true,
                SensorFaultKind::BiasStep(b) => bias[i] += b,
                SensorFaultKind::NoiseBurst(s) => burst[i] += s,
            }
        }

        macro_rules! vec_channel {
            ($i:expr, $field:ident, $held:ident) => {
                if dropped[$i] {
                    out.$field = None;
                } else if stuck[$i] {
                    if out.$field.is_some() {
                        out.$field = self.held.$held;
                    }
                } else if let Some(v) = out.$field {
                    self.held.$held = Some(v);
                }
                if (bias[$i] != 0.0 || burst[$i] > 0.0) && !dropped[$i] {
                    if let Some(v) = out.$field {
                        let shifted = v + Vec3::new(bias[$i], bias[$i], bias[$i]);
                        out.$field = Some(Self::noisy_vec(&mut self.fault_rng, shifted, burst[$i]));
                    }
                }
            };
        }

        vec_channel!(0, accelerometer, accel);
        vec_channel!(1, gyroscope, gyro);
        vec_channel!(2, magnetometer, mag);

        if dropped[3] {
            out.barometer = None;
        } else if stuck[3] {
            if out.barometer.is_some() {
                out.barometer = self.held.baro;
            }
        } else if let Some(v) = out.barometer {
            self.held.baro = Some(v);
        }
        if (bias[3] != 0.0 || burst[3] > 0.0) && !dropped[3] {
            if let Some(v) = out.barometer {
                out.barometer = Some(v + bias[3] + self.fault_rng.normal_with(0.0, burst[3]));
            }
        }

        vec_channel!(4, gps, gps);
        // The Doppler channel shares the receiver: it drops and sticks
        // with the position fix, but bias/noise faults model multipath
        // on the position solution only.
        if dropped[4] {
            out.gps_velocity = None;
        } else if stuck[4] {
            if out.gps_velocity.is_some() {
                out.gps_velocity = self.held.gps_velocity;
            }
        } else if let Some(v) = out.gps_velocity {
            self.held.gps_velocity = Some(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_published(seconds: f64) -> [usize; 5] {
        let mut suite = SensorSuite::with_defaults(0);
        let truth = RigidBodyState::at_rest();
        let dt = 1e-3;
        let mut counts = [0usize; 5];
        for _ in 0..(seconds / dt) as usize {
            let r = suite.sample(&truth, Vec3::ZERO, dt);
            counts[0] += r.accelerometer.is_some() as usize;
            counts[1] += r.gyroscope.is_some() as usize;
            counts[2] += r.magnetometer.is_some() as usize;
            counts[3] += r.barometer.is_some() as usize;
            counts[4] += r.gps.is_some() as usize;
        }
        counts
    }

    #[test]
    fn publish_rates_match_table2a() {
        let c = count_published(5.0);
        // 5 s at 200/200/10/20/10 Hz.
        assert!((c[0] as i64 - 1000).abs() <= 2, "accel {}", c[0]);
        assert!((c[1] as i64 - 1000).abs() <= 2, "gyro {}", c[1]);
        assert!((c[2] as i64 - 50).abs() <= 2, "mag {}", c[2]);
        assert!((c[3] as i64 - 100).abs() <= 2, "baro {}", c[3]);
        assert!((c[4] as i64 - 50).abs() <= 2, "gps {}", c[4]);
    }

    #[test]
    fn resting_imu_reads_gravity_up() {
        let mut suite = SensorSuite::with_defaults(1);
        let truth = RigidBodyState::at_rest();
        let mut sum = Vec3::ZERO;
        let mut n = 0;
        for _ in 0..2000 {
            if let Some(a) = suite.sample(&truth, Vec3::ZERO, 1e-3).accelerometer {
                sum += a;
                n += 1;
            }
        }
        let mean = sum / n as f64;
        // Tolerance covers noise averaging plus the drawn bias (σ=0.05,
        // so 4σ bounds it at 0.2).
        assert!(
            (mean.z - STANDARD_GRAVITY).abs() < 0.25,
            "mean accel {mean}"
        );
        assert!(
            mean.x.abs() < 0.25 && mean.y.abs() < 0.25,
            "mean accel {mean}"
        );
    }

    #[test]
    fn magnetometer_tracks_yaw() {
        let mut suite = SensorSuite::with_defaults(2);
        let mut truth = RigidBodyState::at_rest();
        truth.attitude = drone_math::Quat::from_euler(0.0, 0.0, std::f64::consts::FRAC_PI_2);
        // Wait for a magnetometer sample (10 Hz).
        let mut field = None;
        for _ in 0..200 {
            if let Some(m) = suite.sample(&truth, Vec3::ZERO, 1e-3).magnetometer {
                field = Some(m);
                break;
            }
        }
        // Yawed 90° left, world +X appears along body −Y.
        let m = field.expect("magnetometer published");
        assert!(m.y < -0.8, "field {m}");
    }

    #[test]
    fn gps_noise_magnitude() {
        let mut suite = SensorSuite::with_defaults(3);
        let truth = RigidBodyState::at_altitude(100.0);
        let mut errs = Vec::new();
        for _ in 0..100_000 {
            if let Some(g) = suite.sample(&truth, Vec3::ZERO, 1e-3).gps {
                errs.push((g - truth.position).norm());
            }
        }
        let mean_err = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!((0.3..2.5).contains(&mean_err), "gps err {mean_err}");
    }

    #[test]
    fn deterministic_per_seed() {
        let truth = RigidBodyState::at_rest();
        let mut a = SensorSuite::with_defaults(9);
        let mut b = SensorSuite::with_defaults(9);
        for _ in 0..500 {
            assert_eq!(
                a.sample(&truth, Vec3::ZERO, 1e-3),
                b.sample(&truth, Vec3::ZERO, 1e-3)
            );
        }
    }

    #[test]
    fn dropout_silences_channel_for_its_window() {
        let mut suite = SensorSuite::with_defaults(11);
        suite.inject_fault(SensorFault {
            channel: SensorChannel::Gps,
            kind: SensorFaultKind::Dropout,
            start: 0.5,
            duration: 1.0,
        });
        let truth = RigidBodyState::at_altitude(10.0);
        let mut t = 0.0;
        let (mut before, mut during, mut after) = (0, 0, 0);
        for _ in 0..3000 {
            let r = suite.sample(&truth, Vec3::ZERO, 1e-3);
            t += 1e-3;
            if r.gps.is_some() {
                if t < 0.5 {
                    before += 1;
                } else if t < 1.5 {
                    during += 1;
                } else {
                    after += 1;
                }
            }
            // The receiver reports position and Doppler together.
            assert_eq!(r.gps.is_some(), r.gps_velocity.is_some());
        }
        assert!(before > 0, "healthy before the window");
        assert_eq!(during, 0, "silent during the window");
        assert!(after > 0, "recovers after the window");
    }

    #[test]
    fn stuck_value_repeats_last_healthy_sample() {
        let mut suite = SensorSuite::with_defaults(12);
        suite.inject_fault(SensorFault {
            channel: SensorChannel::Barometer,
            kind: SensorFaultKind::StuckValue,
            start: 1.0,
            duration: f64::INFINITY,
        });
        let truth = RigidBodyState::at_altitude(20.0);
        let mut last_healthy = None;
        let mut stuck_values = Vec::new();
        let mut t = 0.0;
        for _ in 0..3000 {
            let r = suite.sample(&truth, Vec3::ZERO, 1e-3);
            t += 1e-3;
            if let Some(b) = r.barometer {
                if t < 1.0 {
                    last_healthy = Some(b);
                } else {
                    stuck_values.push(b);
                }
            }
        }
        let frozen = last_healthy.expect("baro published before the fault");
        assert!(!stuck_values.is_empty(), "stuck sensor still publishes");
        for v in stuck_values {
            assert_eq!(
                v, frozen,
                "every faulted sample repeats the pre-fault value"
            );
        }
    }

    #[test]
    fn bias_step_shifts_the_mean() {
        let truth = RigidBodyState::at_altitude(50.0);
        let mean_baro = |fault: Option<SensorFault>| {
            let mut suite = SensorSuite::with_defaults(13);
            if let Some(f) = fault {
                suite.inject_fault(f);
            }
            let (mut sum, mut n) = (0.0, 0);
            for _ in 0..5000 {
                if let Some(b) = suite.sample(&truth, Vec3::ZERO, 1e-3).barometer {
                    sum += b;
                    n += 1;
                }
            }
            sum / n as f64
        };
        let clean = mean_baro(None);
        let biased = mean_baro(Some(SensorFault {
            channel: SensorChannel::Barometer,
            kind: SensorFaultKind::BiasStep(7.5),
            start: 0.0,
            duration: f64::INFINITY,
        }));
        assert!(
            (biased - clean - 7.5).abs() < 0.1,
            "clean {clean}, biased {biased}"
        );
    }

    #[test]
    fn noise_burst_widens_the_spread() {
        let truth = RigidBodyState::at_altitude(5.0);
        let spread = |burst: Option<f64>| {
            let mut suite = SensorSuite::with_defaults(14);
            if let Some(std) = burst {
                suite.inject_fault(SensorFault {
                    channel: SensorChannel::Gps,
                    kind: SensorFaultKind::NoiseBurst(std),
                    start: 0.0,
                    duration: f64::INFINITY,
                });
            }
            let mut errs = Vec::new();
            for _ in 0..20_000 {
                if let Some(g) = suite.sample(&truth, Vec3::ZERO, 1e-3).gps {
                    errs.push((g - truth.position).norm());
                }
            }
            errs.iter().sum::<f64>() / errs.len() as f64
        };
        assert!(spread(Some(8.0)) > spread(None) * 3.0);
    }

    #[test]
    fn inactive_faults_leave_the_stream_untouched() {
        // A fault scheduled in the future must not perturb the RNG
        // stream before (or after) its window.
        let truth = RigidBodyState::at_rest();
        let mut clean = SensorSuite::with_defaults(15);
        let mut armed = SensorSuite::with_defaults(15);
        armed.inject_fault(SensorFault {
            channel: SensorChannel::Accelerometer,
            kind: SensorFaultKind::NoiseBurst(5.0),
            start: 0.2,
            duration: 0.1,
        });
        let mut t = 0.0;
        for _ in 0..600 {
            let a = clean.sample(&truth, Vec3::ZERO, 1e-3);
            let b = armed.sample(&truth, Vec3::ZERO, 1e-3);
            t += 1e-3;
            if !(0.2 - 1e-9..0.3 + 2e-3).contains(&t) {
                assert_eq!(a, b, "streams diverge outside the fault window at t={t}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "sensor rate must be positive")]
    fn zero_rate_panics() {
        let bad = ChannelSpec {
            rate_hz: 0.0,
            noise_std: 0.0,
            bias_scale: 0.0,
        };
        let ok = ChannelSpec {
            rate_hz: 10.0,
            noise_std: 0.0,
            bias_scale: 0.0,
        };
        let _ = SensorSuite::new(bad, ok, ok, ok, ok, 0);
    }
}
