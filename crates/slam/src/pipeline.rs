//! The SLAM tracker: frame in, pose out, map maintained — with a virtual
//! RPi-time cost model per stage.
//!
//! The paper's Figure 17 splits ORB-SLAM runtime into *feature
//! extraction/matching*, *local bundle adjustment* and *global bundle
//! adjustment*, with the BA stages ≈90 % of the RPi total. The pipeline
//! accumulates modelled RPi-seconds per stage from the actual work it
//! performs (descriptor comparisons, LM iterations × problem sizes), so
//! platform models can be applied per stage to reproduce Figure 17 and
//! Table 5.

use crate::ba::{global_bundle_adjustment, local_bundle_adjustment};
use crate::camera::CameraPose;
use crate::descriptor::match_descriptor;
use crate::euroc::Dataset;
use crate::map::{Keyframe, KeyframeObservation, Map};
use crate::metrics::{absolute_trajectory_error, relative_pose_error};
use crate::pose::{absolute_orientation, estimate_pose, Correspondence, PointPair};
use drone_telemetry::{Clock, Counter, Registry, SharedHistogram};
use std::fmt;
use std::sync::Arc;

/// Pipeline tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Translation from the last keyframe that triggers a new one, m.
    pub keyframe_translation: f64,
    /// Rotation from the last keyframe that triggers a new one, rad.
    pub keyframe_rotation: f64,
    /// Match count below which a keyframe is forced.
    pub keyframe_min_matches: usize,
    /// Local-BA keyframe window.
    pub local_ba_window: usize,
    /// Local-BA landmark cap.
    pub local_ba_landmarks: usize,
    /// Run global BA every this many keyframes.
    pub global_ba_every: usize,
    /// Global-BA pose cap (subsampled).
    pub global_ba_keyframes: usize,
    /// Global-BA landmark cap.
    pub global_ba_landmarks: usize,
    /// Hamming acceptance threshold for matching.
    pub match_max_distance: u32,
    /// Ratio-test threshold.
    pub match_ratio: f64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            keyframe_translation: 0.25,
            keyframe_rotation: 0.20,
            keyframe_min_matches: 25,
            local_ba_window: 4,
            local_ba_landmarks: 40,
            global_ba_every: 8,
            global_ba_keyframes: 10,
            global_ba_landmarks: 60,
            match_max_distance: 64,
            match_ratio: 0.8,
        }
    }
}

/// Virtual RPi-seconds per pipeline stage (Figure 17 categories).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageProfile {
    /// Feature extraction + matching + tracking pose optimization.
    pub feature_matching_s: f64,
    /// Local bundle adjustment.
    pub local_ba_s: f64,
    /// Global bundle adjustment.
    pub global_ba_s: f64,
}

impl StageProfile {
    /// Total modelled time.
    pub fn total(&self) -> f64 {
        self.feature_matching_s + self.local_ba_s + self.global_ba_s
    }

    /// Stage fractions `(feature, local BA, global BA)`; zeros if empty.
    pub fn fractions(&self) -> (f64, f64, f64) {
        let t = self.total();
        if t <= 0.0 {
            (0.0, 0.0, 0.0)
        } else {
            (
                self.feature_matching_s / t,
                self.local_ba_s / t,
                self.global_ba_s / t,
            )
        }
    }

    /// Combined bundle-adjustment share of the total.
    pub fn ba_fraction(&self) -> f64 {
        let (_, l, g) = self.fractions();
        l + g
    }
}

impl fmt::Display for StageProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (fe, l, g) = self.fractions();
        write!(
            f,
            "{:.2} s (feature/match {:.0}%, local BA {:.0}%, global BA {:.0}%)",
            self.total(),
            fe * 100.0,
            l * 100.0,
            g * 100.0
        )
    }
}

/// RPi cost-model constants, calibrated so the stage split lands near the
/// paper's ~10 % feature / ~90 % BA and the RPi runs a few FPS.
mod cost {
    /// Fixed per-frame FAST/ORB extraction cost, s.
    pub const EXTRACT_FRAME: f64 = 0.028;
    /// Per-detected-feature descriptor cost, s.
    pub const EXTRACT_PER_FEATURE: f64 = 2.0e-5;
    /// Per Hamming comparison, s.
    pub const MATCH_PER_COMPARISON: f64 = 2.0e-8;
    /// Per pose-LM iteration × correspondence, s.
    pub const POSE_PER_ITER_MATCH: f64 = 1.0e-6;
    /// Per BA iteration × residual × parameter, s (dense matrix algebra
    /// on the RPi — exactly what the paper's FPGA pipeline replaces).
    pub const BA_PER_ITER_RES_PARAM: f64 = 2.5e-6;
}

/// Result of running the pipeline over a dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Estimated pose per frame.
    pub trajectory: Vec<CameraPose>,
    /// Absolute trajectory error vs ground truth, m.
    pub ate_meters: f64,
    /// Relative pose error (20-frame windows), m.
    pub rpe_meters: f64,
    /// Modelled RPi stage profile.
    pub profile: StageProfile,
    /// Keyframes created.
    pub keyframes: usize,
    /// Landmarks mapped.
    pub landmarks: usize,
    /// Frames processed.
    pub frames: usize,
    /// Frames with successful pose tracking.
    pub tracked_frames: usize,
}

/// The SLAM tracker.
///
/// # Example
///
/// ```
/// use drone_slam::euroc::Sequence;
/// use drone_slam::pipeline::{Pipeline, PipelineConfig};
/// let dataset = Sequence::MH01.generate_with_frames(60);
/// let result = Pipeline::new(PipelineConfig::default()).run(&dataset);
/// assert_eq!(result.frames, 60);
/// assert!(result.ate_meters.is_finite());
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline {
    config: PipelineConfig,
    map: Map,
    current_pose: CameraPose,
    last_keyframe_pose: CameraPose,
    profile: StageProfile,
    keyframes_since_global_ba: usize,
    consecutive_failures: usize,
    relocalizations: usize,
    telemetry: Option<SlamTelemetry>,
}

/// Per-stage metrics the pipeline records into once attached via
/// [`Pipeline::attach_telemetry`]: real wall time per frame plus the
/// modelled RPi-seconds each Figure 17 stage contributed.
#[derive(Debug, Clone)]
struct SlamTelemetry {
    clock: Clock,
    frame_seconds: Arc<SharedHistogram>,
    feature: Arc<SharedHistogram>,
    local_ba: Arc<SharedHistogram>,
    global_ba: Arc<SharedHistogram>,
    relocalizations: Arc<Counter>,
}

impl Pipeline {
    /// Creates an idle pipeline.
    pub fn new(config: PipelineConfig) -> Pipeline {
        Pipeline {
            config,
            map: Map::new(),
            current_pose: CameraPose::identity(),
            last_keyframe_pose: CameraPose::identity(),
            profile: StageProfile::default(),
            keyframes_since_global_ba: 0,
            consecutive_failures: 0,
            relocalizations: 0,
            telemetry: None,
        }
    }

    /// Attaches telemetry: every frame processed by [`Pipeline::run`]
    /// then records its real wall time (`slam.frame.seconds`), the
    /// modelled RPi-seconds added per stage (`slam.feature.rpi_s`,
    /// `slam.local_ba.rpi_s`, `slam.global_ba.rpi_s` — the Figure 17
    /// categories) and relocalization recoveries
    /// (`slam.relocalizations`).
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.telemetry = Some(SlamTelemetry {
            clock: registry.clock().clone(),
            frame_seconds: registry.histogram("slam.frame.seconds"),
            feature: registry.histogram("slam.feature.rpi_s"),
            local_ba: registry.histogram("slam.local_ba.rpi_s"),
            global_ba: registry.histogram("slam.global_ba.rpi_s"),
            relocalizations: registry.counter("slam.relocalizations"),
        });
    }

    /// How many times tracking was recovered by relocalization.
    pub fn relocalizations(&self) -> usize {
        self.relocalizations
    }

    /// The map built so far.
    pub fn map(&self) -> &Map {
        &self.map
    }

    /// Accumulated stage profile.
    pub fn profile(&self) -> StageProfile {
        self.profile
    }

    /// Runs the full dataset, returning trajectory, accuracy and profile.
    ///
    /// # Panics
    ///
    /// Panics if the dataset has no frames.
    pub fn run(&mut self, dataset: &Dataset) -> RunResult {
        assert!(!dataset.frames.is_empty(), "dataset has no frames");
        let mut trajectory = Vec::with_capacity(dataset.frames.len());
        let mut tracked = 0usize;
        for (i, frame) in dataset.frames.iter().enumerate() {
            let frame_start = self.telemetry.as_ref().map(|t| t.clock.now());
            let before = self.profile;
            let relocs_before = self.relocalizations;
            if i == 0 {
                // Anchor the estimate frame at the first camera pose (the
                // usual dataset convention) and bootstrap the map from
                // the stereo depths.
                self.current_pose = frame.truth_pose;
                self.last_keyframe_pose = frame.truth_pose;
                self.bootstrap(dataset, frame);
                trajectory.push(self.current_pose);
                tracked += 1;
            } else {
                if self.track(dataset, frame) {
                    tracked += 1;
                }
                trajectory.push(self.current_pose);
            }
            if let (Some(start), Some(tel)) = (frame_start, &self.telemetry) {
                tel.frame_seconds.record(tel.clock.now() - start);
                tel.feature
                    .record(self.profile.feature_matching_s - before.feature_matching_s);
                if self.profile.local_ba_s > before.local_ba_s {
                    tel.local_ba
                        .record(self.profile.local_ba_s - before.local_ba_s);
                }
                if self.profile.global_ba_s > before.global_ba_s {
                    tel.global_ba
                        .record(self.profile.global_ba_s - before.global_ba_s);
                }
                tel.relocalizations
                    .add((self.relocalizations - relocs_before) as u64);
            }
        }
        let truth = dataset.truth_trajectory();
        let ate = absolute_trajectory_error(&trajectory, &truth);
        let rpe = if trajectory.len() > 20 {
            relative_pose_error(&trajectory, &truth, 20)
        } else {
            0.0
        };
        RunResult {
            ate_meters: ate,
            rpe_meters: rpe,
            profile: self.profile,
            keyframes: self.map.keyframe_count(),
            landmarks: self.map.landmark_count(),
            frames: dataset.frames.len(),
            tracked_frames: tracked,
            trajectory,
        }
    }

    fn bootstrap(&mut self, dataset: &Dataset, frame: &crate::frame::Frame) {
        self.profile.feature_matching_s +=
            cost::EXTRACT_FRAME + cost::EXTRACT_PER_FEATURE * frame.observations.len() as f64;
        let mut observations = Vec::new();
        for obs in &frame.observations {
            let world = self
                .current_pose
                .camera_to_world(dataset.intrinsics.unproject(obs.pixel, obs.depth));
            let id = self.map.add_landmark(world, obs.descriptor);
            observations.push(KeyframeObservation {
                landmark: id,
                pixel: obs.pixel,
            });
        }
        self.map.add_keyframe(Keyframe {
            pose: self.current_pose,
            timestamp: frame.timestamp,
            observations,
        });
    }

    /// Tracks one frame; returns whether pose estimation succeeded.
    fn track(&mut self, dataset: &Dataset, frame: &crate::frame::Frame) -> bool {
        // --- Feature extraction (modelled) + map matching. ---
        self.profile.feature_matching_s +=
            cost::EXTRACT_FRAME + cost::EXTRACT_PER_FEATURE * frame.observations.len() as f64;
        let descriptors = self.map.landmark_descriptors();
        let comparisons = frame.observations.len() * descriptors.len();
        self.profile.feature_matching_s += cost::MATCH_PER_COMPARISON * comparisons as f64;

        let mut correspondences = Vec::new();
        let mut matched_landmarks = Vec::new();
        for obs in &frame.observations {
            if let Some(m) = match_descriptor(
                &obs.descriptor,
                &descriptors,
                self.config.match_max_distance,
                self.config.match_ratio,
            ) {
                correspondences.push(Correspondence {
                    world: self.map.landmarks()[m.index].position,
                    pixel: obs.pixel,
                });
                matched_landmarks.push((m.index, obs));
            }
        }

        // --- Pose optimization (tracking). ---
        let mut tracked =
            match estimate_pose(&dataset.intrinsics, &self.current_pose, &correspondences) {
                Some(est) => {
                    self.profile.feature_matching_s +=
                        cost::POSE_PER_ITER_MATCH * (est.iterations * correspondences.len()) as f64;
                    self.current_pose = est.pose;
                    self.consecutive_failures = 0;
                    true
                }
                None => {
                    self.consecutive_failures += 1;
                    false // constant-pose motion model carries on
                }
            };

        // --- Relocalization (ORB-SLAM's recovery path): after repeated
        // tracking losses, recover the pose prior-free from 3D-3D
        // correspondences (stereo depth vs map) via Horn's closed form.
        if !tracked && self.consecutive_failures >= 2 {
            let pairs: Vec<PointPair> = matched_landmarks
                .iter()
                .map(|(id, obs)| PointPair {
                    camera: dataset.intrinsics.unproject(obs.pixel, obs.depth),
                    world: self.map.landmarks()[*id].position,
                })
                .collect();
            // Modelled cost: one alignment pass over the pairs.
            self.profile.feature_matching_s += cost::POSE_PER_ITER_MATCH * pairs.len() as f64 * 4.0;
            if pairs.len() >= 6 {
                if let Some(pose) = absolute_orientation(&pairs) {
                    // Accept only when the recovered pose re-tracks.
                    if let Some(est) = estimate_pose(&dataset.intrinsics, &pose, &correspondences) {
                        self.current_pose = est.pose;
                        self.consecutive_failures = 0;
                        self.relocalizations += 1;
                        tracked = true;
                    }
                }
            }
        }

        // --- Keyframe decision. ---
        let need_keyframe = self.current_pose.distance_to(&self.last_keyframe_pose)
            > self.config.keyframe_translation
            || self.current_pose.angle_to(&self.last_keyframe_pose) > self.config.keyframe_rotation
            || correspondences.len() < self.config.keyframe_min_matches;
        if tracked && need_keyframe {
            self.insert_keyframe(dataset, frame, &matched_landmarks);
        }
        tracked
    }

    fn insert_keyframe(
        &mut self,
        dataset: &Dataset,
        frame: &crate::frame::Frame,
        matched: &[(usize, &crate::frame::Observation)],
    ) {
        let mut observations: Vec<KeyframeObservation> = matched
            .iter()
            .map(|(id, obs)| KeyframeObservation {
                landmark: *id,
                pixel: obs.pixel,
            })
            .collect();
        // New landmarks from unmatched observations — but only those whose
        // descriptor is far from every existing landmark. A re-observation
        // that merely failed the ratio test must NOT become a duplicate
        // landmark: duplicates make every future match of that feature
        // ambiguous and the match count collapses over time.
        let matched_pixels: Vec<_> = matched.iter().map(|(_, o)| o.pixel).collect();
        let descriptors = self.map.landmark_descriptors();
        for obs in &frame.observations {
            let is_matched = matched_pixels.iter().any(|p| p.distance(obs.pixel) < 1e-9);
            if is_matched {
                continue;
            }
            let near_duplicate = descriptors
                .iter()
                .any(|d| d.hamming(&obs.descriptor) <= self.config.match_max_distance + 16);
            if near_duplicate {
                continue;
            }
            let world = self
                .current_pose
                .camera_to_world(dataset.intrinsics.unproject(obs.pixel, obs.depth));
            let id = self.map.add_landmark(world, obs.descriptor);
            observations.push(KeyframeObservation {
                landmark: id,
                pixel: obs.pixel,
            });
        }
        self.map.add_keyframe(Keyframe {
            pose: self.current_pose,
            timestamp: frame.timestamp,
            observations,
        });
        self.last_keyframe_pose = self.current_pose;
        self.keyframes_since_global_ba += 1;

        // --- Local bundle adjustment. ---
        if let Some(report) = local_bundle_adjustment(
            &mut self.map,
            &dataset.intrinsics,
            self.config.local_ba_window,
            self.config.local_ba_landmarks,
        ) {
            self.profile.local_ba_s += cost::BA_PER_ITER_RES_PARAM
                * (report.iterations * report.residual_count * report.parameter_count) as f64;
            // Tracking continues from the refined latest keyframe.
            if let Some(&kf) = self.map.recent_keyframes(1).first() {
                self.current_pose = self.map.keyframes()[kf].pose;
            }
        }

        // --- Periodic global bundle adjustment. ---
        if self.keyframes_since_global_ba >= self.config.global_ba_every {
            self.keyframes_since_global_ba = 0;
            if let Some(report) = global_bundle_adjustment(
                &mut self.map,
                &dataset.intrinsics,
                self.config.global_ba_keyframes,
                self.config.global_ba_landmarks,
            ) {
                self.profile.global_ba_s += cost::BA_PER_ITER_RES_PARAM
                    * (report.iterations * report.residual_count * report.parameter_count) as f64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::euroc::Sequence;

    #[test]
    fn tracks_easy_sequence_accurately() {
        let dataset = Sequence::V101.generate_with_frames(120);
        let result = Pipeline::new(PipelineConfig::default()).run(&dataset);
        assert!(result.ate_meters < 0.5, "ATE {}", result.ate_meters);
        assert!(
            result.tracked_frames as f64 / result.frames as f64 > 0.9,
            "tracked {}/{}",
            result.tracked_frames,
            result.frames
        );
        assert!(result.keyframes >= 3, "{} keyframes", result.keyframes);
    }

    #[test]
    fn ba_dominates_the_profile() {
        // Paper §5.2: bundle adjustments ≈ 90 % of RPi execution time.
        let dataset = Sequence::MH01.generate_with_frames(150);
        let result = Pipeline::new(PipelineConfig::default()).run(&dataset);
        let ba = result.profile.ba_fraction();
        assert!(
            (0.75..1.0).contains(&ba),
            "BA fraction {ba:.2}: {}",
            result.profile
        );
    }

    #[test]
    fn difficult_sequences_are_less_accurate() {
        let easy =
            Pipeline::new(PipelineConfig::default()).run(&Sequence::V101.generate_with_frames(100));
        let hard =
            Pipeline::new(PipelineConfig::default()).run(&Sequence::V103.generate_with_frames(100));
        assert!(
            hard.ate_meters > easy.ate_meters * 0.8,
            "difficulty had no effect: easy {} vs hard {}",
            easy.ate_meters,
            hard.ate_meters
        );
        assert!(
            hard.ate_meters < 3.0,
            "hard sequence diverged: {}",
            hard.ate_meters
        );
    }

    #[test]
    fn map_grows_with_exploration() {
        let dataset = Sequence::MH02.generate_with_frames(120);
        let mut pipeline = Pipeline::new(PipelineConfig::default());
        let result = pipeline.run(&dataset);
        assert!(result.landmarks > 200, "{} landmarks", result.landmarks);
        assert_eq!(pipeline.map().keyframe_count(), result.keyframes);
    }

    #[test]
    fn relocalizes_after_occlusion() {
        // Blind the camera for 15 frames mid-flight (lens flare / dirt):
        // tracking must drop, then recover via relocalization instead of
        // staying lost.
        let mut dataset = Sequence::V101.generate_with_frames(120);
        for frame in dataset.frames.iter_mut().skip(40).take(15) {
            frame.observations.clear();
        }
        let mut pipeline = Pipeline::new(PipelineConfig::default());
        let result = pipeline.run(&dataset);
        assert!(
            result.tracked_frames < result.frames,
            "occlusion must cost some frames"
        );
        assert!(
            result.tracked_frames > result.frames - 25,
            "never recovered: {}/{} tracked",
            result.tracked_frames,
            result.frames
        );
        assert!(
            result.ate_meters < 1.0,
            "post-recovery ATE {}",
            result.ate_meters
        );
    }

    #[test]
    fn attached_telemetry_splits_the_stage_profile() {
        use drone_telemetry::Registry;
        let registry = Registry::with_wall_clock();
        let dataset = Sequence::MH01.generate_with_frames(120);
        let mut pipeline = Pipeline::new(PipelineConfig::default());
        pipeline.attach_telemetry(&registry);
        let result = pipeline.run(&dataset);
        // One wall-time sample and one feature-stage sample per frame.
        let frames = registry.histogram("slam.frame.seconds").count();
        assert_eq!(frames as usize, result.frames);
        let feature = registry.histogram("slam.feature.rpi_s").snapshot();
        assert_eq!(feature.count() as usize, result.frames);
        // The per-frame stage samples sum back to the aggregate profile.
        assert!((feature.sum() - result.profile.feature_matching_s).abs() < 1e-9);
        let local = registry.histogram("slam.local_ba.rpi_s").snapshot();
        assert!((local.sum() - result.profile.local_ba_s).abs() < 1e-9);
        let global = registry.histogram("slam.global_ba.rpi_s").snapshot();
        assert!((global.sum() - result.profile.global_ba_s).abs() < 1e-9);
        assert!(local.count() > 0, "local BA must run on this sequence");
    }

    #[test]
    fn deterministic_runs() {
        let dataset = Sequence::V201.generate_with_frames(60);
        let a = Pipeline::new(PipelineConfig::default()).run(&dataset);
        let b = Pipeline::new(PipelineConfig::default()).run(&dataset);
        assert_eq!(a.ate_meters, b.ate_meters);
        assert_eq!(a.profile, b.profile);
    }

    #[test]
    fn profile_display() {
        let p = StageProfile {
            feature_matching_s: 1.0,
            local_ba_s: 4.5,
            global_ba_s: 4.5,
        };
        let s = p.to_string();
        assert!(s.contains("10%"), "{s}");
        assert!((p.ba_fraction() - 0.9).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "dataset has no frames")]
    fn empty_dataset_panics() {
        let dataset = crate::euroc::Dataset {
            sequence: Sequence::MH01,
            intrinsics: crate::camera::CameraIntrinsics::euroc(),
            world: crate::frame::World {
                landmarks: vec![crate::frame::Landmark {
                    position: drone_math::Vec3::ZERO,
                    descriptor: crate::descriptor::Descriptor([0; 4]),
                }],
            },
            noise: crate::frame::SensorNoise::easy(),
            frames: vec![],
        };
        let _ = Pipeline::new(PipelineConfig::default()).run(&dataset);
    }
}
