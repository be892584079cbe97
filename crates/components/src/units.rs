//! Unit newtypes for the quantities the design-space model juggles.
//!
//! Weight, power, current, voltage, capacity and length all flow through
//! the same equations; newtypes keep grams from being added to watts
//! ([C-NEWTYPE]). Each type is a transparent wrapper with arithmetic
//! against itself and scalar scaling.
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! unit_newtype {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(pub f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: $name = $name(0.0);

            /// Raw numeric value in the type's unit.
            #[inline]
            pub fn value(self) -> f64 {
                self.0
            }

            /// `true` when the value is finite.
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Component-wise maximum.
            pub fn max(self, other: $name) -> $name {
                $name(self.0.max(other.0))
            }

            /// Component-wise minimum.
            pub fn min(self, other: $name) -> $name {
                $name(self.0.min(other.0))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:.2} {}", self.0, $unit)
            }
        }

        impl Add for $name {
            type Output = $name;
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: $name) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = $name;
            fn sub(self, rhs: $name) -> $name {
                $name(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: $name) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = $name;
            fn neg(self) -> $name {
                $name(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            fn mul(self, rhs: f64) -> $name {
                $name(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            fn div(self, rhs: f64) -> $name {
                $name(self.0 / rhs)
            }
        }

        impl Div for $name {
            /// Ratio of two like quantities is dimensionless.
            type Output = f64;
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                $name(iter.map(|v| v.0).sum())
            }
        }
    };
}

unit_newtype!(
    /// Mass in grams (the paper quotes all component weights in grams).
    Grams,
    "g"
);
unit_newtype!(
    /// Electrical power in watts.
    Watts,
    "W"
);
unit_newtype!(
    /// Electrical current in amperes.
    Amps,
    "A"
);
unit_newtype!(
    /// Electrical potential in volts.
    Volts,
    "V"
);
unit_newtype!(
    /// Battery charge capacity in milliamp-hours.
    MilliampHours,
    "mAh"
);
unit_newtype!(
    /// Length in millimetres (wheelbase sizes).
    Millimeters,
    "mm"
);
unit_newtype!(
    /// Energy in watt-hours.
    WattHours,
    "Wh"
);
unit_newtype!(
    /// Duration in minutes (flight times).
    Minutes,
    "min"
);

impl Volts {
    /// Power delivered at this voltage and the given current.
    pub fn power(self, current: Amps) -> Watts {
        Watts(self.0 * current.0)
    }
}

impl Watts {
    /// Current drawn at the given supply voltage.
    ///
    /// # Panics
    ///
    /// Panics if `volts` is zero or negative.
    pub fn current_at(self, volts: Volts) -> Amps {
        assert!(volts.0 > 0.0, "voltage must be positive, got {volts}");
        Amps(self.0 / volts.0)
    }
}

impl WattHours {
    /// How long this energy lasts at a constant power draw.
    ///
    /// # Panics
    ///
    /// Panics if `power` is zero or negative.
    pub fn duration_at(self, power: Watts) -> Minutes {
        assert!(power.0 > 0.0, "power must be positive, got {power}");
        Minutes(self.0 / power.0 * 60.0)
    }
}

impl Grams {
    /// Mass in kilograms.
    pub fn kilograms(self) -> f64 {
        self.0 / 1000.0
    }

    /// Weight force in newtons under standard gravity.
    pub fn weight_newtons(self) -> f64 {
        self.kilograms() * crate::units::STANDARD_GRAVITY
    }
}

impl Millimeters {
    /// Length in metres.
    pub fn meters(self) -> f64 {
        self.0 / 1000.0
    }

    /// Length in inches (propeller sizes are quoted in inches).
    pub fn inches(self) -> f64 {
        self.0 / 25.4
    }
}

/// Standard gravity, m/s².
pub const STANDARD_GRAVITY: f64 = 9.806_65;

/// Grams-force of thrust from newtons (hobby-grade thrust is quoted in g).
pub fn newtons_to_grams_force(newtons: f64) -> f64 {
    newtons / STANDARD_GRAVITY * 1000.0
}

/// Newtons from grams-force.
pub fn grams_force_to_newtons(grams: f64) -> f64 {
    grams / 1000.0 * STANDARD_GRAVITY
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_on_grams() {
        let a = Grams(100.0) + Grams(50.0);
        assert_eq!(a, Grams(150.0));
        assert_eq!(a - Grams(25.0), Grams(125.0));
        assert_eq!(a * 2.0, Grams(300.0));
        assert_eq!(2.0 * a, Grams(300.0));
        assert_eq!(a / 3.0, Grams(50.0));
        assert_eq!(Grams(100.0) / Grams(50.0), 2.0);
        assert_eq!(-Grams(1.0), Grams(-1.0));
    }

    #[test]
    fn sum_of_weights() {
        let total: Grams = [Grams(272.0), Grams(248.0), Grams(220.0)].into_iter().sum();
        assert_eq!(total, Grams(740.0));
    }

    #[test]
    fn electric_relations() {
        let p = Volts(11.1).power(Amps(10.0));
        assert!((p.0 - 111.0).abs() < 1e-12);
        let i = Watts(111.0).current_at(Volts(11.1));
        assert!((i.0 - 10.0).abs() < 1e-12);
    }

    #[test]
    fn energy_duration() {
        // 30 Wh at 120 W lasts 15 minutes.
        let t = WattHours(30.0).duration_at(Watts(120.0));
        assert!((t.0 - 15.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power must be positive")]
    fn duration_at_zero_power_panics() {
        let _ = WattHours(10.0).duration_at(Watts(0.0));
    }

    #[test]
    fn mass_conversions() {
        assert!((Grams(1000.0).kilograms() - 1.0).abs() < 1e-12);
        assert!((Grams(1000.0).weight_newtons() - STANDARD_GRAVITY).abs() < 1e-9);
        assert!((newtons_to_grams_force(grams_force_to_newtons(123.0)) - 123.0).abs() < 1e-9);
    }

    #[test]
    fn length_conversions() {
        assert!((Millimeters(254.0).inches() - 10.0).abs() < 1e-12);
        assert!((Millimeters(450.0).meters() - 0.45).abs() < 1e-12);
    }

    #[test]
    fn display_includes_unit() {
        assert_eq!(Grams(12.5).to_string(), "12.50 g");
        assert_eq!(Watts(3.0).to_string(), "3.00 W");
    }

    #[test]
    fn min_max() {
        assert_eq!(Grams(1.0).max(Grams(2.0)), Grams(2.0));
        assert_eq!(Grams(1.0).min(Grams(2.0)), Grams(1.0));
    }
}
