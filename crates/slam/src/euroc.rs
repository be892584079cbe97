//! Synthetic EuRoC-like MAV datasets.
//!
//! The paper evaluates on the eleven EuRoC micro-aerial-vehicle
//! sequences \[79\]: five "machine hall" runs (MH01–MH05) and six
//! "Vicon room" runs (V101–V203), in rising difficulty bands. We cannot
//! ship the real imagery, so each sequence becomes a synthetic
//! (trajectory, landmark-world, noise-level) triple whose difficulty
//! scaling mirrors the original: later sequences fly faster, see fewer
//! reliable features and suffer more clutter.

use crate::camera::{CameraIntrinsics, CameraPose};
use crate::frame::{render_frame, Frame, SensorNoise, World};
use drone_math::{Pcg32, Vec3};
use std::fmt;

/// EuRoC difficulty band.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Difficulty {
    /// Slow, well-lit.
    Easy,
    /// Moderate speed.
    Medium,
    /// Fast, aggressive, poorly lit.
    Difficult,
}

/// The eleven EuRoC sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Sequence {
    MH01,
    MH02,
    MH03,
    MH04,
    MH05,
    V101,
    V102,
    V103,
    V201,
    V202,
    V203,
}

impl Sequence {
    /// All sequences in the paper's Figure 17 order.
    pub const ALL: [Sequence; 11] = [
        Sequence::MH01,
        Sequence::MH02,
        Sequence::MH03,
        Sequence::MH04,
        Sequence::MH05,
        Sequence::V101,
        Sequence::V102,
        Sequence::V103,
        Sequence::V201,
        Sequence::V202,
        Sequence::V203,
    ];

    /// Sequence name as the dataset spells it.
    pub fn name(self) -> &'static str {
        match self {
            Sequence::MH01 => "MH01",
            Sequence::MH02 => "MH02",
            Sequence::MH03 => "MH03",
            Sequence::MH04 => "MH04",
            Sequence::MH05 => "MH05",
            Sequence::V101 => "V101",
            Sequence::V102 => "V102",
            Sequence::V103 => "V103",
            Sequence::V201 => "V201",
            Sequence::V202 => "V202",
            Sequence::V203 => "V203",
        }
    }

    /// Difficulty band (EuRoC's own labels).
    pub fn difficulty(self) -> Difficulty {
        match self {
            Sequence::MH01 | Sequence::MH02 | Sequence::V101 | Sequence::V201 => Difficulty::Easy,
            Sequence::MH03 | Sequence::V102 | Sequence::V202 => Difficulty::Medium,
            Sequence::MH04 | Sequence::MH05 | Sequence::V103 | Sequence::V203 => {
                Difficulty::Difficult
            }
        }
    }

    /// Whether this is a machine-hall (large environment) sequence.
    pub fn is_machine_hall(self) -> bool {
        matches!(
            self,
            Sequence::MH01 | Sequence::MH02 | Sequence::MH03 | Sequence::MH04 | Sequence::MH05
        )
    }

    /// Deterministic per-sequence RNG seed.
    fn seed(self) -> u64 {
        0xE0_00 + self as u64
    }

    /// Generates the sequence at its standard length (300 frames).
    pub fn generate(self) -> Dataset {
        self.generate_with_frames(300)
    }

    /// Generates the sequence with a custom frame count (shorter runs
    /// for quick tests).
    ///
    /// # Panics
    ///
    /// Panics if `frames` is zero.
    pub fn generate_with_frames(self, frames: usize) -> Dataset {
        assert!(frames > 0, "need at least one frame");
        let mut rng = Pcg32::seed_from(self.seed());
        let (half_extent, landmark_count) = if self.is_machine_hall() {
            (Vec3::new(12.0, 9.0, 4.0), 1400)
        } else {
            (Vec3::new(5.0, 4.0, 2.5), 900)
        };
        let world = World::room(landmark_count, half_extent, &mut rng);
        let noise = match self.difficulty() {
            Difficulty::Easy => SensorNoise::easy(),
            Difficulty::Medium => SensorNoise::medium(),
            Difficulty::Difficult => SensorNoise::difficult(),
        };
        // Speed scales with difficulty, like the real sequences
        // (MH01 ~0.4 m/s up to V203 ~2+ m/s).
        let speed = match self.difficulty() {
            Difficulty::Easy => 0.5,
            Difficulty::Medium => 1.0,
            Difficulty::Difficult => 2.0,
        };
        let intrinsics = CameraIntrinsics::euroc();
        let fps = 20.0; // the paper's Navion comparison runs EuRoC at 20 FPS
        let radius = Vec3::new(
            half_extent.x * 0.45,
            half_extent.y * 0.45,
            half_extent.z * 0.25,
        );
        let mut frames_out = Vec::with_capacity(frames);
        for k in 0..frames {
            let t = k as f64 / fps;
            let pose = lissajous_pose(t, speed, radius);
            frames_out.push(render_frame(
                &world,
                &intrinsics,
                &pose,
                &noise,
                t,
                &mut rng,
            ));
        }
        Dataset {
            sequence: self,
            intrinsics,
            world,
            noise,
            frames: frames_out,
        }
    }
}

impl fmt::Display for Sequence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A Lissajous-style survey trajectory looking toward the walls ahead:
/// smooth, bounded, covers the room.
fn lissajous_pose(t: f64, speed: f64, radius: Vec3) -> CameraPose {
    let w = 0.25 * speed;
    let position = Vec3::new(
        radius.x * (w * t).sin(),
        radius.y * (0.7 * w * t).sin(),
        radius.z * (0.5 * w * t).sin(),
    );
    // Look ahead along the direction of travel (finite difference).
    let eps = 0.05;
    let next = Vec3::new(
        radius.x * (w * (t + eps)).sin(),
        radius.y * (0.7 * w * (t + eps)).sin(),
        radius.z * (0.5 * w * (t + eps)).sin(),
    );
    let mut dir = next - position;
    if dir.norm() < 1e-9 {
        dir = Vec3::X;
    }
    // Look toward a point well ahead so plenty of wall is visible.
    let target = position + dir.normalized().unwrap_or(Vec3::X) * 10.0;
    CameraPose::looking_at(position, target)
}

/// A generated dataset: world + rendered frames.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Which sequence this is.
    pub sequence: Sequence,
    /// Camera intrinsics.
    pub intrinsics: CameraIntrinsics,
    /// The ground-truth world.
    pub world: World,
    /// Noise profile used in rendering.
    pub noise: SensorNoise,
    /// Rendered frames in time order.
    pub frames: Vec<Frame>,
}

impl Dataset {
    /// Ground-truth trajectory (one pose per frame).
    pub fn truth_trajectory(&self) -> Vec<CameraPose> {
        self.frames.iter().map(|f| f.truth_pose).collect()
    }

    /// Mean true features (non-clutter observations) per frame.
    pub fn mean_features_per_frame(&self) -> f64 {
        let total: usize = self
            .frames
            .iter()
            .map(|f| {
                f.observations
                    .iter()
                    .filter(|o| o.truth_landmark.is_some())
                    .count()
            })
            .sum();
        total as f64 / self.frames.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eleven_sequences_in_figure17_order() {
        assert_eq!(Sequence::ALL.len(), 11);
        assert_eq!(Sequence::ALL[0].name(), "MH01");
        assert_eq!(Sequence::ALL[10].name(), "V203");
    }

    #[test]
    fn difficulty_labels_match_euroc() {
        assert_eq!(Sequence::MH01.difficulty(), Difficulty::Easy);
        assert_eq!(Sequence::MH03.difficulty(), Difficulty::Medium);
        assert_eq!(Sequence::MH05.difficulty(), Difficulty::Difficult);
        assert_eq!(Sequence::V101.difficulty(), Difficulty::Easy);
        assert_eq!(Sequence::V203.difficulty(), Difficulty::Difficult);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Sequence::V101.generate_with_frames(10);
        let b = Sequence::V101.generate_with_frames(10);
        assert_eq!(a.frames[5].observations, b.frames[5].observations);
    }

    #[test]
    fn sequences_have_usable_feature_counts() {
        for seq in [Sequence::MH01, Sequence::V101, Sequence::V203] {
            let d = seq.generate_with_frames(40);
            let mean = d.mean_features_per_frame();
            assert!(mean > 25.0, "{seq}: only {mean:.0} features/frame");
        }
    }

    #[test]
    fn harder_sequences_fly_faster() {
        let easy = Sequence::V101.generate_with_frames(100);
        let hard = Sequence::V103.generate_with_frames(100);
        let dist = |d: &Dataset| {
            d.truth_trajectory()
                .windows(2)
                .map(|w| w[1].distance_to(&w[0]))
                .sum::<f64>()
        };
        assert!(
            dist(&hard) > 1.5 * dist(&easy),
            "speeds: {} vs {}",
            dist(&hard),
            dist(&easy)
        );
    }

    #[test]
    fn trajectory_stays_inside_the_room() {
        let d = Sequence::MH03.generate_with_frames(200);
        for pose in d.truth_trajectory() {
            let p = pose.position;
            assert!(
                p.x.abs() < 12.0 && p.y.abs() < 9.0 && p.z.abs() < 4.0,
                "{p} escaped"
            );
        }
    }

    #[test]
    fn machine_hall_is_bigger_than_vicon_room() {
        let mh = Sequence::MH01.generate_with_frames(5);
        let v = Sequence::V101.generate_with_frames(5);
        assert!(mh.world.landmarks.len() > v.world.landmarks.len());
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_frames_panics() {
        let _ = Sequence::MH01.generate_with_frames(0);
    }
}
