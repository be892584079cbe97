//! The keyframe / landmark map.
//!
//! The map stores estimated landmark positions with reference
//! descriptors, and keyframes holding the observations used by bundle
//! adjustment. Covisibility (shared landmarks) defines the local-BA
//! window, mirroring ORB-SLAM's structure.

use crate::camera::{CameraPose, Pixel};
use crate::descriptor::Descriptor;
use drone_math::Vec3;

/// Identifier of a map landmark.
pub type LandmarkId = usize;

/// Identifier of a keyframe.
pub type KeyframeId = usize;

/// An estimated landmark.
#[derive(Debug, Clone, PartialEq)]
pub struct MapLandmark {
    /// Estimated world position.
    pub position: Vec3,
    /// Reference descriptor (from the first observation).
    pub descriptor: Descriptor,
    /// How many keyframes observe it.
    pub observation_count: usize,
}

/// One keyframe observation of a map landmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeyframeObservation {
    /// Which landmark.
    pub landmark: LandmarkId,
    /// Measured pixel.
    pub pixel: Pixel,
}

/// A keyframe: estimated pose plus its landmark observations.
#[derive(Debug, Clone, PartialEq)]
pub struct Keyframe {
    /// Estimated camera pose.
    pub pose: CameraPose,
    /// Frame timestamp, seconds.
    pub timestamp: f64,
    /// Observations of map landmarks.
    pub observations: Vec<KeyframeObservation>,
}

/// The SLAM map.
#[derive(Debug, Clone, Default)]
pub struct Map {
    landmarks: Vec<MapLandmark>,
    keyframes: Vec<Keyframe>,
}

impl Map {
    /// An empty map.
    pub fn new() -> Map {
        Map::default()
    }

    /// Landmarks slice.
    pub fn landmarks(&self) -> &[MapLandmark] {
        &self.landmarks
    }

    /// Keyframes slice.
    pub fn keyframes(&self) -> &[Keyframe] {
        &self.keyframes
    }

    /// Number of landmarks.
    pub fn landmark_count(&self) -> usize {
        self.landmarks.len()
    }

    /// Number of keyframes.
    pub fn keyframe_count(&self) -> usize {
        self.keyframes.len()
    }

    /// Adds a landmark, returning its id.
    pub fn add_landmark(&mut self, position: Vec3, descriptor: Descriptor) -> LandmarkId {
        self.landmarks.push(MapLandmark {
            position,
            descriptor,
            observation_count: 0,
        });
        self.landmarks.len() - 1
    }

    /// Adds a keyframe, bumping the observation counts of the landmarks
    /// it sees. Returns the keyframe id.
    ///
    /// # Panics
    ///
    /// Panics if an observation references a nonexistent landmark.
    pub fn add_keyframe(&mut self, keyframe: Keyframe) -> KeyframeId {
        for obs in &keyframe.observations {
            self.landmarks
                .get_mut(obs.landmark)
                .expect("keyframe references unknown landmark")
                .observation_count += 1;
        }
        self.keyframes.push(keyframe);
        self.keyframes.len() - 1
    }

    /// Mutable landmark access (bundle adjustment writes back).
    pub fn landmark_mut(&mut self, id: LandmarkId) -> &mut MapLandmark {
        &mut self.landmarks[id]
    }

    /// Mutable keyframe access (bundle adjustment writes back).
    pub fn keyframe_mut(&mut self, id: KeyframeId) -> &mut Keyframe {
        &mut self.keyframes[id]
    }

    /// The ids of the most recent `window` keyframes (the local-BA set).
    pub fn recent_keyframes(&self, window: usize) -> Vec<KeyframeId> {
        let start = self.keyframes.len().saturating_sub(window);
        (start..self.keyframes.len()).collect()
    }

    /// Landmarks observed by any of the given keyframes.
    pub fn covisible_landmarks(&self, keyframes: &[KeyframeId]) -> Vec<LandmarkId> {
        let mut seen = vec![false; self.landmarks.len()];
        for &kf in keyframes {
            for obs in &self.keyframes[kf].observations {
                seen[obs.landmark] = true;
            }
        }
        seen.iter()
            .enumerate()
            .filter_map(|(i, &s)| s.then_some(i))
            .collect()
    }

    /// Descriptor table of all landmarks (for frame-to-map matching).
    pub fn landmark_descriptors(&self) -> Vec<Descriptor> {
        self.landmarks.iter().map(|l| l.descriptor).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drone_math::Pcg32;

    fn descriptor(rng: &mut Pcg32) -> Descriptor {
        Descriptor::random(rng)
    }

    #[test]
    fn add_and_count() {
        let mut rng = Pcg32::seed_from(1);
        let mut map = Map::new();
        let a = map.add_landmark(Vec3::new(1.0, 0.0, 0.0), descriptor(&mut rng));
        let b = map.add_landmark(Vec3::new(0.0, 1.0, 0.0), descriptor(&mut rng));
        assert_eq!(map.landmark_count(), 2);
        let kf = Keyframe {
            pose: CameraPose::identity(),
            timestamp: 0.0,
            observations: vec![
                KeyframeObservation {
                    landmark: a,
                    pixel: Pixel::new(10.0, 10.0),
                },
                KeyframeObservation {
                    landmark: b,
                    pixel: Pixel::new(20.0, 20.0),
                },
            ],
        };
        map.add_keyframe(kf);
        assert_eq!(map.keyframe_count(), 1);
        assert_eq!(map.landmarks()[a].observation_count, 1);
        assert_eq!(map.landmarks()[b].observation_count, 1);
    }

    #[test]
    fn recent_keyframes_window() {
        let mut map = Map::new();
        for i in 0..10 {
            map.add_keyframe(Keyframe {
                pose: CameraPose::identity(),
                timestamp: i as f64,
                observations: vec![],
            });
        }
        assert_eq!(map.recent_keyframes(3), vec![7, 8, 9]);
        assert_eq!(map.recent_keyframes(100).len(), 10);
    }

    #[test]
    fn covisibility() {
        let mut rng = Pcg32::seed_from(2);
        let mut map = Map::new();
        let ids: Vec<_> = (0..5)
            .map(|i| map.add_landmark(Vec3::splat(i as f64), descriptor(&mut rng)))
            .collect();
        map.add_keyframe(Keyframe {
            pose: CameraPose::identity(),
            timestamp: 0.0,
            observations: vec![
                KeyframeObservation {
                    landmark: ids[0],
                    pixel: Pixel::default(),
                },
                KeyframeObservation {
                    landmark: ids[1],
                    pixel: Pixel::default(),
                },
            ],
        });
        map.add_keyframe(Keyframe {
            pose: CameraPose::identity(),
            timestamp: 1.0,
            observations: vec![KeyframeObservation {
                landmark: ids[3],
                pixel: Pixel::default(),
            }],
        });
        let cov = map.covisible_landmarks(&[0]);
        assert_eq!(cov, vec![ids[0], ids[1]]);
        let cov_all = map.covisible_landmarks(&[0, 1]);
        assert_eq!(cov_all, vec![ids[0], ids[1], ids[3]]);
    }

    #[test]
    #[should_panic(expected = "unknown landmark")]
    fn bad_observation_panics() {
        let mut map = Map::new();
        map.add_keyframe(Keyframe {
            pose: CameraPose::identity(),
            timestamp: 0.0,
            observations: vec![KeyframeObservation {
                landmark: 42,
                pixel: Pixel::default(),
            }],
        });
    }
}
