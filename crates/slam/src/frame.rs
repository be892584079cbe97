//! Worlds, frames and observations.
//!
//! A [`World`] is a cloud of landmarks with ground-truth positions and
//! descriptors. Rendering a frame from a camera pose projects the visible
//! landmarks, then corrupts the result the way a real detector would:
//! pixel noise, stereo-depth noise that grows with range, descriptor bit
//! flips, dropped detections, and spurious clutter observations.

use crate::camera::{CameraIntrinsics, CameraPose, Pixel};
use crate::descriptor::Descriptor;
use drone_math::{Pcg32, Vec3};

/// A ground-truth world landmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Landmark {
    /// True position, world frame (m).
    pub position: Vec3,
    /// True appearance descriptor.
    pub descriptor: Descriptor,
}

/// The static world the drone flies through.
#[derive(Debug, Clone)]
pub struct World {
    /// All landmarks.
    pub landmarks: Vec<Landmark>,
}

impl World {
    /// Generates a room-like world: landmarks scattered over the walls,
    /// floor and ceiling of a box centred on the origin.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or the half-extents are not positive.
    pub fn room(count: usize, half_extent: Vec3, rng: &mut Pcg32) -> World {
        assert!(count > 0, "world needs landmarks");
        assert!(
            half_extent.x > 0.0 && half_extent.y > 0.0 && half_extent.z > 0.0,
            "half extents must be positive"
        );
        let mut landmarks = Vec::with_capacity(count);
        for _ in 0..count {
            // Pick a wall (one axis pinned to ±extent), scatter the rest.
            let axis = rng.below(3) as usize;
            let sign = if rng.chance(0.5) { 1.0 } else { -1.0 };
            let mut p = Vec3::new(
                rng.uniform(-half_extent.x, half_extent.x),
                rng.uniform(-half_extent.y, half_extent.y),
                rng.uniform(-half_extent.z, half_extent.z),
            );
            p[axis] = sign * half_extent[axis];
            landmarks.push(Landmark {
                position: p,
                descriptor: Descriptor::random(rng),
            });
        }
        World { landmarks }
    }
}

/// One detected feature in a frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Measured pixel position (noisy).
    pub pixel: Pixel,
    /// Measured stereo depth (noisy), metres.
    pub depth: f64,
    /// Measured descriptor (corrupted).
    pub descriptor: Descriptor,
    /// Ground-truth landmark index, or `None` for clutter. Hidden from
    /// the pipeline; used only for evaluation.
    pub truth_landmark: Option<usize>,
}

/// A rendered camera frame.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Frame timestamp, seconds.
    pub timestamp: f64,
    /// Detected features.
    pub observations: Vec<Observation>,
    /// Ground-truth camera pose (for evaluation only).
    pub truth_pose: CameraPose,
}

/// Sensor corruption levels used when rendering frames.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorNoise {
    /// Pixel measurement noise σ.
    pub pixel_sigma: f64,
    /// Relative depth noise σ (multiplied by depth).
    pub depth_rel_sigma: f64,
    /// Descriptor bit-flip probability.
    pub descriptor_flip: f64,
    /// Probability a visible landmark goes undetected.
    pub dropout: f64,
    /// Number of clutter (false) detections per frame.
    pub clutter: usize,
    /// Maximum detection range, metres.
    pub max_range: f64,
}

impl SensorNoise {
    /// A well-lit, slow sequence.
    pub fn easy() -> SensorNoise {
        SensorNoise {
            pixel_sigma: 0.4,
            depth_rel_sigma: 0.01,
            descriptor_flip: 0.015,
            dropout: 0.05,
            clutter: 5,
            max_range: 18.0,
        }
    }

    /// Faster motion, more blur.
    pub fn medium() -> SensorNoise {
        SensorNoise {
            pixel_sigma: 0.8,
            depth_rel_sigma: 0.02,
            descriptor_flip: 0.03,
            dropout: 0.12,
            clutter: 12,
            max_range: 15.0,
        }
    }

    /// Aggressive motion, low light.
    pub fn difficult() -> SensorNoise {
        SensorNoise {
            pixel_sigma: 1.4,
            depth_rel_sigma: 0.04,
            descriptor_flip: 0.05,
            dropout: 0.22,
            clutter: 25,
            max_range: 12.0,
        }
    }
}

/// Renders the world from a pose into a corrupted frame.
pub fn render_frame(
    world: &World,
    intrinsics: &CameraIntrinsics,
    pose: &CameraPose,
    noise: &SensorNoise,
    timestamp: f64,
    rng: &mut Pcg32,
) -> Frame {
    let mut observations = Vec::new();
    for (i, lm) in world.landmarks.iter().enumerate() {
        let p_cam = pose.world_to_camera(lm.position);
        if p_cam.z > noise.max_range {
            continue;
        }
        let Some(pixel) = intrinsics.project(p_cam) else {
            continue;
        };
        if rng.chance(noise.dropout) {
            continue;
        }
        let noisy_pixel = Pixel::new(
            pixel.u + rng.normal_with(0.0, noise.pixel_sigma),
            pixel.v + rng.normal_with(0.0, noise.pixel_sigma),
        );
        let depth = (p_cam.z * (1.0 + rng.normal_with(0.0, noise.depth_rel_sigma))).max(0.1);
        observations.push(Observation {
            pixel: noisy_pixel,
            depth,
            descriptor: lm.descriptor.corrupted(noise.descriptor_flip, rng),
            truth_landmark: Some(i),
        });
    }
    // Clutter: random pixels with random descriptors and depths.
    for _ in 0..noise.clutter {
        observations.push(Observation {
            pixel: Pixel::new(
                rng.uniform(0.0, f64::from(intrinsics.width)),
                rng.uniform(0.0, f64::from(intrinsics.height)),
            ),
            depth: rng.uniform(0.5, noise.max_range),
            descriptor: Descriptor::random(rng),
            truth_landmark: None,
        });
    }
    Frame {
        timestamp,
        observations,
        truth_pose: *pose,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (World, CameraIntrinsics, Pcg32) {
        let mut rng = Pcg32::seed_from(11);
        let world = World::room(800, Vec3::new(8.0, 6.0, 3.0), &mut rng);
        (world, CameraIntrinsics::euroc(), rng)
    }

    #[test]
    fn room_landmarks_sit_on_walls() {
        let (world, _, _) = setup();
        for lm in &world.landmarks {
            let p = lm.position;
            let on_wall = (p.x.abs() - 8.0).abs() < 1e-9
                || (p.y.abs() - 6.0).abs() < 1e-9
                || (p.z.abs() - 3.0).abs() < 1e-9;
            assert!(on_wall, "{p} floats in mid-air");
        }
    }

    #[test]
    fn frame_sees_a_reasonable_feature_count() {
        let (world, cam, mut rng) = setup();
        let pose = CameraPose::looking_at(Vec3::ZERO, Vec3::new(8.0, 0.0, 0.0));
        let frame = render_frame(&world, &cam, &pose, &SensorNoise::easy(), 0.0, &mut rng);
        let real = frame
            .observations
            .iter()
            .filter(|o| o.truth_landmark.is_some())
            .count();
        assert!((30..500).contains(&real), "{real} features");
    }

    #[test]
    fn observations_have_accurate_geometry() {
        let (world, cam, mut rng) = setup();
        let pose = CameraPose::looking_at(Vec3::ZERO, Vec3::new(8.0, 0.0, 0.0));
        let frame = render_frame(&world, &cam, &pose, &SensorNoise::easy(), 0.0, &mut rng);
        for obs in frame
            .observations
            .iter()
            .filter(|o| o.truth_landmark.is_some())
        {
            let lm = world.landmarks[obs.truth_landmark.unwrap()];
            // Back-project through the truth pose: should land near the
            // true landmark.
            let p = pose.camera_to_world(cam.unproject(obs.pixel, obs.depth));
            let err = (p - lm.position).norm();
            assert!(err < 1.5, "reconstruction error {err} m");
        }
    }

    #[test]
    fn clutter_has_no_truth() {
        let (world, cam, mut rng) = setup();
        let pose = CameraPose::identity();
        let noise = SensorNoise::difficult();
        let frame = render_frame(&world, &cam, &pose, &noise, 0.0, &mut rng);
        let clutter = frame
            .observations
            .iter()
            .filter(|o| o.truth_landmark.is_none())
            .count();
        assert_eq!(clutter, noise.clutter);
    }

    #[test]
    fn difficulty_monotonic_in_noise() {
        let e = SensorNoise::easy();
        let m = SensorNoise::medium();
        let d = SensorNoise::difficult();
        assert!(e.pixel_sigma < m.pixel_sigma && m.pixel_sigma < d.pixel_sigma);
        assert!(e.dropout < m.dropout && m.dropout < d.dropout);
        assert!(e.clutter < m.clutter && m.clutter < d.clutter);
    }

    #[test]
    fn deterministic_rendering() {
        let (world, cam, _) = setup();
        let pose = CameraPose::looking_at(Vec3::ZERO, Vec3::new(8.0, 0.0, 0.0));
        let mut r1 = Pcg32::seed_from(77);
        let mut r2 = Pcg32::seed_from(77);
        let f1 = render_frame(&world, &cam, &pose, &SensorNoise::easy(), 0.0, &mut r1);
        let f2 = render_frame(&world, &cam, &pose, &SensorNoise::easy(), 0.0, &mut r2);
        assert_eq!(f1.observations, f2.observations);
    }

    #[test]
    #[should_panic(expected = "world needs landmarks")]
    fn empty_world_panics() {
        let mut rng = Pcg32::seed_from(0);
        let _ = World::room(0, Vec3::splat(1.0), &mut rng);
    }
}
