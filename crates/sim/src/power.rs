//! Power telemetry — the simulation's substitute for the paper's USB power
//! meter and oscilloscope logging (§5, Figure 16).
//!
//! The paper measures the RPi at 2 Hz (±10 mW) and the whole drone at
//! 50 Hz (±0.5 mW); [`PowerMeter`] records phase-labelled samples at a
//! configurable rate and reports the per-phase averages Figure 16 quotes.

use drone_components::units::Watts;
use std::collections::BTreeMap;
use std::fmt;

/// One logged power sample.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerSample {
    /// Simulation time, seconds.
    pub time: f64,
    /// Instantaneous power.
    pub power: Watts,
    /// Mission phase label active when the sample was taken.
    pub phase: String,
}

/// A sampling power meter with phase labelling.
///
/// # Example
///
/// ```
/// use drone_sim::PowerMeter;
/// use drone_components::units::Watts;
/// let mut meter = PowerMeter::new(0.5); // 2 Hz, like the paper's USB meter
/// meter.set_phase("autopilot");
/// meter.record(0.0, Watts(3.39));
/// meter.record(0.6, Watts(3.41));
/// assert_eq!(meter.samples().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PowerMeter {
    sample_interval: f64,
    samples: Vec<PowerSample>,
    phase: String,
    last_sample_time: Option<f64>,
    energy_wh: f64,
    last_time: Option<f64>,
}

impl PowerMeter {
    /// Creates a meter sampling at most every `sample_interval` seconds.
    ///
    /// # Panics
    ///
    /// Panics if the interval is not positive.
    pub fn new(sample_interval: f64) -> PowerMeter {
        assert!(sample_interval > 0.0, "sample interval must be positive");
        PowerMeter {
            sample_interval,
            samples: Vec::new(),
            phase: "init".to_owned(),
            last_sample_time: None,
            energy_wh: 0.0,
            last_time: None,
        }
    }

    /// Sets the phase label for subsequent samples.
    pub fn set_phase(&mut self, phase: impl Into<String>) {
        self.phase = phase.into();
    }

    /// Current phase label.
    pub fn phase(&self) -> &str {
        &self.phase
    }

    /// Offers a measurement at simulation time `time`; stored only when
    /// the sampling interval has elapsed. Energy is integrated from every
    /// call regardless of sampling.
    pub fn record(&mut self, time: f64, power: Watts) {
        if let Some(prev) = self.last_time {
            let dt = (time - prev).max(0.0);
            self.energy_wh += power.0 * dt / 3600.0;
        }
        self.last_time = Some(time);
        let due = match self.last_sample_time {
            None => true,
            Some(t) => time - t >= self.sample_interval - 1e-12,
        };
        if due {
            self.samples.push(PowerSample {
                time,
                power,
                phase: self.phase.clone(),
            });
            self.last_sample_time = Some(time);
        }
    }

    /// All stored samples in time order.
    pub fn samples(&self) -> &[PowerSample] {
        &self.samples
    }

    /// Total energy integrated across all `record` calls, Wh.
    pub fn energy_wh(&self) -> f64 {
        self.energy_wh
    }

    /// Mean power per phase label, in first-seen order of `BTreeMap` keys.
    pub fn phase_averages(&self) -> BTreeMap<String, Watts> {
        let mut sums: BTreeMap<String, (f64, usize)> = BTreeMap::new();
        for s in &self.samples {
            let e = sums.entry(s.phase.clone()).or_insert((0.0, 0));
            e.0 += s.power.0;
            e.1 += 1;
        }
        sums.into_iter()
            .map(|(k, (sum, n))| (k, Watts(sum / n as f64)))
            .collect()
    }

    /// Peak power seen in samples.
    pub fn peak(&self) -> Option<Watts> {
        self.samples
            .iter()
            .map(|s| s.power)
            .fold(None, |acc, p| match acc {
                None => Some(p),
                Some(a) => Some(a.max(p)),
            })
    }
}

impl fmt::Display for PowerMeter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "power trace: {} samples, {:.2} Wh",
            self.samples.len(),
            self.energy_wh
        )?;
        for (phase, avg) in self.phase_averages() {
            writeln!(f, "  {phase}: avg {avg}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respects_sampling_interval() {
        let mut m = PowerMeter::new(0.5);
        for i in 0..100 {
            m.record(i as f64 * 0.1, Watts(1.0));
        }
        // 10 s of data at 0.1 s offers, 0.5 s interval → ~20 samples.
        let n = m.samples().len();
        assert!((19..=21).contains(&n), "{n} samples");
    }

    #[test]
    fn integrates_energy_from_all_offers() {
        let mut m = PowerMeter::new(10.0);
        for i in 0..=3600 {
            m.record(i as f64, Watts(100.0));
        }
        // 100 W for an hour = 100 Wh, regardless of sparse sampling.
        assert!((m.energy_wh() - 100.0).abs() < 0.2, "{}", m.energy_wh());
    }

    #[test]
    fn phase_averages_split_correctly() {
        let mut m = PowerMeter::new(0.1);
        m.set_phase("autopilot");
        m.record(0.0, Watts(3.0));
        m.record(0.2, Watts(5.0));
        m.set_phase("slam");
        m.record(0.4, Watts(9.0));
        let avg = m.phase_averages();
        assert!((avg["autopilot"].0 - 4.0).abs() < 1e-12);
        assert!((avg["slam"].0 - 9.0).abs() < 1e-12);
    }

    #[test]
    fn peak_detection() {
        let mut m = PowerMeter::new(0.1);
        assert!(m.peak().is_none());
        m.record(0.0, Watts(3.0));
        m.record(0.2, Watts(7.5));
        m.record(0.4, Watts(2.0));
        assert_eq!(m.peak(), Some(Watts(7.5)));
    }

    #[test]
    #[should_panic(expected = "sample interval must be positive")]
    fn invalid_interval_panics() {
        let _ = PowerMeter::new(0.0);
    }
}
