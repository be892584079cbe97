//! Electronic speed controller (ESC) model (paper §2.1.2, Figure 8a).
//!
//! Each BLDC motor needs its own ESC to synthesize three-phase current
//! from the battery's DC, switching at 60–600 kHz while delivering
//! hundreds of watts. ESC weight is strongly correlated with the maximum
//! continuous current rating because that rating sizes the MOSFETs and
//! capacitors. The paper splits the 40 surveyed ESCs into *long-flight*
//! parts and lighter *short-flight* (racing) parts that overheat on long
//! missions.

use crate::units::{Amps, Grams};
use std::fmt;

/// Thermal class of an ESC (paper Figure 8a grouping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EscClass {
    /// Rated for sustained missions; heavier MOSFETs and caps.
    LongFlight,
    /// Racing parts (<5 min flights); light but thermally limited.
    ShortFlight,
}

impl fmt::Display for EscClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EscClass::LongFlight => "long-flight",
            EscClass::ShortFlight => "short-flight",
        })
    }
}

/// One ESC (a quadcopter carries four).
///
/// # Example
///
/// ```
/// use drone_components::esc::{Esc, EscClass};
/// let esc = Esc::from_model(EscClass::LongFlight, drone_components::units::Amps(30.0));
/// // Figure 8a: four long-flight 30 A ESCs weigh ≈ 4.97·30 − 15.8 ≈ 133 g.
/// assert!((esc.set_of_four_weight().0 - 133.3).abs() < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Esc {
    /// Thermal class.
    pub class: EscClass,
    /// Maximum continuous current rating.
    pub max_continuous_current: Amps,
    /// Weight of a single ESC.
    pub weight: Grams,
}

impl Esc {
    /// Creates an ESC with an explicit weight.
    ///
    /// # Panics
    ///
    /// Panics if current or weight are not positive.
    pub fn new(class: EscClass, max_continuous_current: Amps, weight: Grams) -> Esc {
        assert!(
            max_continuous_current.0 > 0.0,
            "current rating must be positive"
        );
        assert!(weight.0 > 0.0, "weight must be positive");
        Esc {
            class,
            max_continuous_current,
            weight,
        }
    }

    /// Creates an ESC on the paper's Figure 8a weight line for its class.
    ///
    /// The published fit maps per-ESC current to the weight of a **set of
    /// four**; a single ESC weighs a quarter of that.
    pub fn from_model(class: EscClass, max_continuous_current: Amps) -> Esc {
        let fit = match class {
            EscClass::LongFlight => crate::paper::esc_long_flight_fit(),
            EscClass::ShortFlight => crate::paper::esc_short_flight_fit(),
        };
        let four = fit.predict(max_continuous_current.0).max(4.0);
        Esc::new(class, max_continuous_current, Grams(four / 4.0))
    }

    /// Combined weight of the four ESCs a quadcopter needs.
    pub fn set_of_four_weight(&self) -> Grams {
        self.weight * 4.0
    }

    /// Whether this ESC can feed a motor drawing `current` continuously.
    pub fn supports(&self, current: Amps) -> bool {
        current.0 <= self.max_continuous_current.0
    }

    /// Typical ESC efficiency (fraction of input power reaching the
    /// motor); modern drone ESCs run at roughly 90–95 %.
    pub fn efficiency(&self) -> f64 {
        match self.class {
            EscClass::LongFlight => 0.93,
            EscClass::ShortFlight => 0.90,
        }
    }
}

impl fmt::Display for Esc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ESC {:.0} A ({})",
            self.class, self.max_continuous_current.0, self.weight
        )
    }
}

/// Picks the lightest ESC class able to sustain `current` for a mission of
/// `mission_minutes`; racing ESCs are only allowed on sub-5-minute flights.
pub fn select_class(mission_minutes: f64) -> EscClass {
    if mission_minutes < 5.0 {
        EscClass::ShortFlight
    } else {
        EscClass::LongFlight
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_weight_follows_fig8a() {
        let esc = Esc::from_model(EscClass::LongFlight, Amps(30.0));
        let expect4 = 4.9678 * 30.0 - 15.757;
        assert!((esc.set_of_four_weight().0 - expect4).abs() < 1e-9);
        let racing = Esc::from_model(EscClass::ShortFlight, Amps(30.0));
        let expect4s = 1.2269 * 30.0 + 11.816;
        assert!((racing.set_of_four_weight().0 - expect4s).abs() < 1e-9);
    }

    #[test]
    fn racing_escs_lighter_at_high_current() {
        for amps in [30.0, 50.0, 80.0] {
            let long = Esc::from_model(EscClass::LongFlight, Amps(amps));
            let short = Esc::from_model(EscClass::ShortFlight, Amps(amps));
            assert!(short.weight < long.weight, "at {amps} A");
        }
    }

    #[test]
    fn low_current_weight_is_clamped_positive() {
        // The published long-flight line goes negative below ~3.2 A.
        let esc = Esc::from_model(EscClass::LongFlight, Amps(1.0));
        assert!(esc.weight.0 > 0.0);
    }

    #[test]
    fn supports_respects_rating() {
        let esc = Esc::from_model(EscClass::LongFlight, Amps(30.0));
        assert!(esc.supports(Amps(25.0)));
        assert!(esc.supports(Amps(30.0)));
        assert!(!esc.supports(Amps(30.1)));
    }

    #[test]
    fn class_selection_by_mission() {
        assert_eq!(select_class(3.0), EscClass::ShortFlight);
        assert_eq!(select_class(5.0), EscClass::LongFlight);
        assert_eq!(select_class(25.0), EscClass::LongFlight);
    }

    #[test]
    fn efficiency_in_realistic_band() {
        for class in [EscClass::LongFlight, EscClass::ShortFlight] {
            let e = Esc::from_model(class, Amps(20.0)).efficiency();
            assert!((0.85..=0.97).contains(&e));
        }
    }

    #[test]
    #[should_panic(expected = "current rating must be positive")]
    fn zero_current_panics() {
        let _ = Esc::new(EscClass::LongFlight, Amps(0.0), Grams(10.0));
    }
}
