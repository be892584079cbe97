//! Flight controllers, companion compute boards and external sensors
//! (paper §3.1 Table 4).
//!
//! The paper divides controllers into *basic* (inner-loop only, ≤~2 W) and
//! *improved* (customizable inner loop plus some outer-loop capability,
//! 0.5–20 W), and treats heavy payload sensors (HD cameras, LiDARs) as
//! self-contained weight+power line items.

use crate::paper::{table4, Table4Group};
use crate::units::{Grams, Watts};
use std::fmt;

/// Capability class of a compute board (paper Table 4 grouping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComputeClass {
    /// Inner-loop-only flight controller (STM32-class, <~2 W).
    Basic,
    /// Companion computer with outer-loop capability (RPi/TX2-class).
    Improved,
}

impl fmt::Display for ComputeClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ComputeClass::Basic => "basic",
            ComputeClass::Improved => "improved",
        })
    }
}

/// A compute board mounted on the drone.
///
/// # Example
///
/// ```
/// use drone_components::compute::ComputeBoard;
/// let rpi = ComputeBoard::raspberry_pi_4();
/// assert_eq!(rpi.name, "Raspberry Pi 4");
/// assert!(rpi.power.0 <= 5.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeBoard {
    /// Product name.
    pub name: String,
    /// Capability class.
    pub class: ComputeClass,
    /// Board weight.
    pub weight: Grams,
    /// Typical sustained power draw.
    pub power: Watts,
}

impl ComputeBoard {
    /// Creates a board from explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if weight or power are not positive.
    pub fn new(name: impl Into<String>, class: ComputeClass, weight: Grams, power: Watts) -> Self {
        let name = name.into();
        assert!(weight.0 > 0.0, "weight must be positive");
        assert!(power.0 > 0.0, "power must be positive");
        ComputeBoard {
            name,
            class,
            weight,
            power,
        }
    }

    /// Looks up a board from Table 4 by exact name.
    pub fn from_table4(name: &str) -> Option<ComputeBoard> {
        table4().into_iter().find(|r| r.name == name).and_then(|r| {
            let class = match r.group {
                Table4Group::BasicController => ComputeClass::Basic,
                Table4Group::ImprovedController => ComputeClass::Improved,
                _ => return None,
            };
            Some(ComputeBoard::new(r.name, class, r.weight, r.power))
        })
    }

    /// The Raspberry Pi 4 used as the paper's baseline SLAM platform.
    pub fn raspberry_pi_4() -> ComputeBoard {
        ComputeBoard::from_table4("Raspberry Pi 4").expect("table 4 contains the RPi 4")
    }

    /// The Nvidia Jetson TX2 high-end commercial solution.
    pub fn jetson_tx2() -> ComputeBoard {
        ComputeBoard::from_table4("Nvidia Jetson TX2").expect("table 4 contains the TX2")
    }

    /// The Navio2 flight-controller HAT of the paper's open drone.
    pub fn navio2() -> ComputeBoard {
        ComputeBoard::from_table4("Navio2").expect("table 4 contains the Navio2")
    }

    /// Every Table 4 compute board.
    pub fn all_table4() -> Vec<ComputeBoard> {
        table4()
            .into_iter()
            .filter_map(|r| ComputeBoard::from_table4(r.name))
            .collect()
    }
}

impl fmt::Display for ComputeBoard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} controller, {}, {})",
            self.name, self.class, self.weight, self.power
        )
    }
}

/// Kind of external sensor payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SensorKind {
    /// Analog first-person-view camera (≤1 W).
    FpvCamera,
    /// HD camera (self-powered in the paper's accounting).
    HdCamera,
    /// Stand-alone LiDAR payload with its own battery and compute.
    Lidar,
    /// GPS receiver.
    Gps,
    /// Telemetry radio.
    Telemetry,
}

/// An external sensor line item: weight always counts against lift; power
/// counts against the main battery only when not self-powered.
#[derive(Debug, Clone, PartialEq)]
pub struct ExternalSensor {
    /// Product or generic name.
    pub name: String,
    /// Sensor kind.
    pub kind: SensorKind,
    /// Payload weight.
    pub weight: Grams,
    /// Power draw.
    pub power: Watts,
    /// Whether it carries its own battery (drone pays weight, not power).
    pub self_powered: bool,
}

impl ExternalSensor {
    /// Creates a sensor line item.
    ///
    /// # Panics
    ///
    /// Panics if weight is not positive or power is negative.
    pub fn new(
        name: impl Into<String>,
        kind: SensorKind,
        weight: Grams,
        power: Watts,
        self_powered: bool,
    ) -> Self {
        let name = name.into();
        assert!(weight.0 > 0.0, "weight must be positive");
        assert!(power.0 >= 0.0, "power must be non-negative");
        ExternalSensor {
            name,
            kind,
            weight,
            power,
            self_powered,
        }
    }

    /// Power this sensor draws from the *main* battery.
    pub fn battery_power(&self) -> Watts {
        if self.self_powered {
            Watts::ZERO
        } else {
            self.power
        }
    }

    /// The Table 4 LiDAR payloads (all self-powered).
    pub fn table4_lidars() -> Vec<ExternalSensor> {
        table4()
            .into_iter()
            .filter(|r| r.group == Table4Group::Lidar)
            .map(|r| ExternalSensor::new(r.name, SensorKind::Lidar, r.weight, r.power, true))
            .collect()
    }

    /// The Table 4 FPV cameras (battery-powered, ≤1 W).
    pub fn table4_fpv_cameras() -> Vec<ExternalSensor> {
        table4()
            .into_iter()
            .filter(|r| r.group == Table4Group::FpvCamera)
            .map(|r| ExternalSensor::new(r.name, SensorKind::FpvCamera, r.weight, r.power, false))
            .collect()
    }
}

impl fmt::Display for ExternalSensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({:?}, {}, {}{})",
            self.name,
            self.kind,
            self.weight,
            self.power,
            if self.self_powered {
                ", self-powered"
            } else {
                ""
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rpi_and_tx2_lookup() {
        let rpi = ComputeBoard::raspberry_pi_4();
        assert_eq!(rpi.class, ComputeClass::Improved);
        assert_eq!(rpi.weight, Grams(50.0));
        let tx2 = ComputeBoard::jetson_tx2();
        assert_eq!(tx2.power, Watts(10.0));
        assert_eq!(tx2.weight, Grams(85.0));
    }

    #[test]
    fn unknown_board_is_none() {
        assert!(ComputeBoard::from_table4("Flux Capacitor").is_none());
        // Sensors in Table 4 are not compute boards.
        assert!(ComputeBoard::from_table4("Ultra Puck").is_none());
    }

    #[test]
    fn all_table4_boards() {
        let boards = ComputeBoard::all_table4();
        assert_eq!(boards.len(), 10, "5 basic + 5 improved");
        assert!(
            boards
                .iter()
                .filter(|b| b.class == ComputeClass::Basic)
                .count()
                == 5
        );
    }

    #[test]
    fn basic_boards_are_low_power() {
        for b in ComputeBoard::all_table4() {
            if b.class == ComputeClass::Basic {
                assert!(b.power.0 <= 2.0, "{b}");
            }
        }
    }

    #[test]
    fn self_powered_lidar_draws_no_battery_power() {
        let lidars = ExternalSensor::table4_lidars();
        assert_eq!(lidars.len(), 3);
        for l in &lidars {
            assert!(l.self_powered);
            assert_eq!(l.battery_power(), Watts::ZERO);
            assert!(l.weight.0 >= 900.0, "LiDARs are ~1 kg payloads: {l}");
        }
    }

    #[test]
    fn fpv_cameras_draw_battery_power() {
        for c in ExternalSensor::table4_fpv_cameras() {
            assert!(!c.self_powered);
            assert!(c.battery_power().0 > 0.0);
            assert!(c.power.0 <= 1.0, "FPV cams stay under 1 W: {c}");
        }
    }

    #[test]
    fn display_mentions_class() {
        let s = ComputeBoard::raspberry_pi_4().to_string();
        assert!(s.contains("improved"), "{s}");
    }
}
