//! Bundle adjustment — the stage the paper's FPGA design accelerates
//! (~90 % of ORB-SLAM's RPi runtime, §5.2).
//!
//! Local BA refines the recent keyframe window and its covisible
//! landmarks; global BA periodically refines a subsampled version of the
//! whole map. Both minimize Huber-weighted reprojection error with the
//! workspace Levenberg–Marquardt over a delta parameterization
//! `[pose deltas (6 each) | landmark deltas (3 each)]`, first pose fixed
//! as the gauge.

use crate::camera::{CameraIntrinsics, CameraPose, Pixel};
use crate::map::{KeyframeId, LandmarkId, Map};
use drone_math::optimize::{LeastSquaresProblem, LevenbergMarquardt};
use drone_math::Vec3;

/// Result of one bundle-adjustment run (also feeds the cost model).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaReport {
    /// Cost before optimization (½‖r‖²).
    pub initial_cost: f64,
    /// Cost after optimization.
    pub final_cost: f64,
    /// LM iterations performed.
    pub iterations: usize,
    /// Number of scalar residuals.
    pub residual_count: usize,
    /// Number of free parameters.
    pub parameter_count: usize,
}

impl BaReport {
    /// Fraction of initial cost eliminated.
    pub fn improvement(&self) -> f64 {
        if self.initial_cost <= 0.0 {
            0.0
        } else {
            (1.0 - self.final_cost / self.initial_cost).max(0.0)
        }
    }
}

struct BaProblem<'a> {
    intrinsics: &'a CameraIntrinsics,
    base_poses: Vec<CameraPose>,
    /// `true` = pose is fixed (gauge), carries no parameters.
    fixed: Vec<bool>,
    base_landmarks: Vec<Vec3>,
    /// `(pose index, landmark index, observed pixel)`.
    observations: Vec<(usize, usize, Pixel)>,
    /// IRLS weights, one per observation, held fixed during LM.
    weights: Vec<f64>,
}

impl BaProblem<'_> {
    fn free_pose_count(&self) -> usize {
        self.fixed.iter().filter(|&&f| !f).count()
    }

    fn decode(&self, x: &[f64]) -> (Vec<CameraPose>, Vec<Vec3>) {
        let mut poses = self.base_poses.clone();
        let mut cursor = 0;
        for (i, pose) in poses.iter_mut().enumerate() {
            if self.fixed[i] {
                continue;
            }
            let d = [
                x[cursor],
                x[cursor + 1],
                x[cursor + 2],
                x[cursor + 3],
                x[cursor + 4],
                x[cursor + 5],
            ];
            *pose = pose.perturbed(&d);
            cursor += 6;
        }
        let mut landmarks = self.base_landmarks.clone();
        for lm in landmarks.iter_mut() {
            *lm += Vec3::new(x[cursor], x[cursor + 1], x[cursor + 2]);
            cursor += 3;
        }
        (poses, landmarks)
    }
}

impl LeastSquaresProblem for BaProblem<'_> {
    fn num_params(&self) -> usize {
        self.free_pose_count() * 6 + self.base_landmarks.len() * 3
    }
    fn num_residuals(&self) -> usize {
        self.observations.len() * 2
    }
    fn residuals(&self, x: &[f64]) -> Vec<f64> {
        let (poses, landmarks) = self.decode(x);
        let mut out = Vec::with_capacity(self.num_residuals());
        for (&(pi, li, pixel), &w) in self.observations.iter().zip(&self.weights) {
            let (eu, ev) = reprojection_error(self.intrinsics, &poses[pi], landmarks[li], pixel);
            out.push(eu * w);
            out.push(ev * w);
        }
        out
    }
}

/// Signed reprojection error of one observation; points behind the
/// camera get a large smooth penalty to keep LM differentiable.
fn reprojection_error(
    intrinsics: &CameraIntrinsics,
    pose: &CameraPose,
    landmark: Vec3,
    pixel: Pixel,
) -> (f64, f64) {
    let p_cam = pose.world_to_camera(landmark);
    if p_cam.z <= 0.05 {
        (40.0 + p_cam.z.abs() * 5.0, 40.0 + p_cam.z.abs() * 5.0)
    } else {
        (
            intrinsics.fx * p_cam.x / p_cam.z + intrinsics.cx - pixel.u,
            intrinsics.fy * p_cam.y / p_cam.z + intrinsics.cy - pixel.v,
        )
    }
}

/// Shared driver for local/global BA over an explicit keyframe/landmark
/// selection. Optimized values are written back into the map.
fn bundle_adjust(
    map: &mut Map,
    intrinsics: &CameraIntrinsics,
    keyframe_ids: &[KeyframeId],
    landmark_ids: &[LandmarkId],
    max_iterations: usize,
) -> Option<BaReport> {
    if keyframe_ids.is_empty() || landmark_ids.is_empty() {
        return None;
    }
    // Dense index maps.
    let mut landmark_index = vec![usize::MAX; map.landmark_count()];
    for (dense, &id) in landmark_ids.iter().enumerate() {
        landmark_index[id] = dense;
    }
    let base_poses: Vec<CameraPose> = keyframe_ids
        .iter()
        .map(|&k| map.keyframes()[k].pose)
        .collect();
    let base_landmarks: Vec<Vec3> = landmark_ids
        .iter()
        .map(|&l| map.landmarks()[l].position)
        .collect();
    let mut observations = Vec::new();
    for (pi, &kf) in keyframe_ids.iter().enumerate() {
        for obs in &map.keyframes()[kf].observations {
            let li = landmark_index[obs.landmark];
            if li != usize::MAX {
                observations.push((pi, li, obs.pixel));
            }
        }
    }
    if observations.len() < 8 {
        return None;
    }
    // Gauge: fix the first TWO keyframes. One fixed pose still leaves a
    // scale freedom in reprojection-only BA (the window can shrink or
    // grow around that camera's centre, and the drift compounds across
    // sliding windows); a fixed two-camera baseline pins scale the way
    // stereo residuals would.
    let mut fixed = vec![false; keyframe_ids.len()];
    fixed[0] = true;
    if fixed.len() > 1 {
        fixed[1] = true;
    }

    // Two IRLS rounds: unweighted, then Huber-reweighted from the first
    // round's residuals (weights stay fixed inside each LM run).
    let huber_px = 3.0;
    let mut poses = base_poses;
    let mut landmarks = base_landmarks;
    let mut initial_cost = f64::NAN;
    let mut final_cost = f64::NAN;
    let mut iterations = 0usize;
    let n_obs = observations.len();
    let mut weights = vec![1.0; n_obs];
    let mut n_params = 0;
    for round in 0..2 {
        if round > 0 {
            for (i, &(pi, li, pixel)) in observations.iter().enumerate() {
                let (eu, ev) = reprojection_error(intrinsics, &poses[pi], landmarks[li], pixel);
                weights[i] = {
                    let e = (eu * eu + ev * ev).sqrt();
                    if e <= huber_px {
                        1.0
                    } else {
                        (huber_px / e).sqrt()
                    }
                };
            }
        }
        let problem = BaProblem {
            intrinsics,
            base_poses: poses.clone(),
            fixed: fixed.clone(),
            base_landmarks: landmarks.clone(),
            observations: observations.clone(),
            weights: weights.clone(),
        };
        n_params = problem.num_params();
        let report = LevenbergMarquardt::new()
            .with_max_iterations(max_iterations)
            .with_cost_tolerance(1e-6)
            .minimize(&problem, &vec![0.0; n_params]);
        if !report.params.iter().all(|p| p.is_finite()) {
            return None;
        }
        let (p, l) = problem.decode(&report.params);
        poses = p;
        landmarks = l;
        if round == 0 {
            initial_cost = report.initial_cost;
        }
        final_cost = report.cost;
        iterations += report.iterations;
    }
    // Write back.
    for (pi, &kf) in keyframe_ids.iter().enumerate() {
        map.keyframe_mut(kf).pose = poses[pi];
    }
    for (li, &lm) in landmark_ids.iter().enumerate() {
        map.landmark_mut(lm).position = landmarks[li];
    }
    Some(BaReport {
        initial_cost,
        final_cost,
        iterations,
        residual_count: n_obs * 2,
        parameter_count: n_params,
    })
}

/// Local bundle adjustment over the most recent `window` keyframes and
/// up to `max_landmarks` of their best-observed covisible landmarks.
pub fn local_bundle_adjustment(
    map: &mut Map,
    intrinsics: &CameraIntrinsics,
    window: usize,
    max_landmarks: usize,
) -> Option<BaReport> {
    let keyframes = map.recent_keyframes(window);
    let mut landmarks = map.covisible_landmarks(&keyframes);
    // Prefer well-observed landmarks.
    landmarks.sort_by_key(|&l| std::cmp::Reverse(map.landmarks()[l].observation_count));
    landmarks.truncate(max_landmarks);
    bundle_adjust(map, intrinsics, &keyframes, &landmarks, 10)
}

/// Global bundle adjustment over a subsampled map: every keyframe up to
/// a stride-derived cap of `max_keyframes` poses, and up to
/// `max_landmarks` best-observed landmarks.
pub fn global_bundle_adjustment(
    map: &mut Map,
    intrinsics: &CameraIntrinsics,
    max_keyframes: usize,
    max_landmarks: usize,
) -> Option<BaReport> {
    let total = map.keyframe_count();
    if total == 0 {
        return None;
    }
    let stride = total.div_ceil(max_keyframes);
    let keyframes: Vec<KeyframeId> = (0..total).step_by(stride.max(1)).collect();
    let mut landmarks = map.covisible_landmarks(&keyframes);
    landmarks.sort_by_key(|&l| std::cmp::Reverse(map.landmarks()[l].observation_count));
    landmarks.truncate(max_landmarks);
    bundle_adjust(map, intrinsics, &keyframes, &landmarks, 8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::Descriptor;
    use crate::map::{Keyframe, KeyframeObservation};
    use drone_math::{Pcg32, Quat};

    /// Build a map with `n_kf` keyframes observing `n_lm` landmarks,
    /// with configurable corruption of initial estimates.
    fn noisy_map(
        n_kf: usize,
        n_lm: usize,
        pose_err: f64,
        lm_err: f64,
        rng: &mut Pcg32,
    ) -> (Map, Vec<CameraPose>, Vec<Vec3>, CameraIntrinsics) {
        let cam = CameraIntrinsics::euroc();
        let truth_landmarks: Vec<Vec3> = (0..n_lm)
            .map(|_| {
                Vec3::new(
                    rng.uniform(-4.0, 4.0),
                    rng.uniform(-3.0, 3.0),
                    rng.uniform(5.0, 12.0),
                )
            })
            .collect();
        let truth_poses: Vec<CameraPose> = (0..n_kf)
            .map(|i| {
                CameraPose::new(
                    Vec3::new(i as f64 * 0.3, 0.0, 0.0),
                    Quat::from_euler(0.0, 0.0, rng.uniform(-0.05, 0.05)),
                )
            })
            .collect();
        let mut map = Map::new();
        let ids: Vec<_> = truth_landmarks
            .iter()
            .map(|&p| {
                let noisy = p + Vec3::new(
                    rng.normal_with(0.0, lm_err),
                    rng.normal_with(0.0, lm_err),
                    rng.normal_with(0.0, lm_err),
                );
                map.add_landmark(noisy, Descriptor::random(rng))
            })
            .collect();
        for (i, truth_pose) in truth_poses.iter().enumerate() {
            let observations: Vec<KeyframeObservation> = truth_landmarks
                .iter()
                .enumerate()
                .filter_map(|(li, &lm)| {
                    let pix = cam.project(truth_pose.world_to_camera(lm))?;
                    Some(KeyframeObservation {
                        landmark: ids[li],
                        pixel: pix,
                    })
                })
                .collect();
            // First two poses exact (the scale-pinning gauge pair),
            // later ones corrupted.
            let noisy_pose = if i <= 1 {
                *truth_pose
            } else {
                CameraPose::new(
                    truth_pose.position
                        + Vec3::new(
                            rng.normal_with(0.0, pose_err),
                            rng.normal_with(0.0, pose_err),
                            rng.normal_with(0.0, pose_err),
                        ),
                    truth_pose.orientation,
                )
            };
            map.add_keyframe(Keyframe {
                pose: noisy_pose,
                timestamp: i as f64,
                observations,
            });
        }
        (map, truth_poses, truth_landmarks, cam)
    }

    #[test]
    fn local_ba_reduces_cost_substantially() {
        let mut rng = Pcg32::seed_from(1);
        let (mut map, _, _, cam) = noisy_map(4, 30, 0.10, 0.10, &mut rng);
        let report = local_bundle_adjustment(&mut map, &cam, 4, 30).expect("ran");
        assert!(
            report.improvement() > 0.9,
            "improvement {}",
            report.improvement()
        );
        assert!(report.final_cost < report.initial_cost);
    }

    #[test]
    fn local_ba_recovers_truth() {
        let mut rng = Pcg32::seed_from(2);
        let (mut map, truth_poses, truth_landmarks, cam) = noisy_map(4, 30, 0.08, 0.08, &mut rng);
        local_bundle_adjustment(&mut map, &cam, 4, 30).expect("ran");
        for (i, tp) in truth_poses.iter().enumerate() {
            let err = map.keyframes()[i].pose.distance_to(tp);
            assert!(err < 0.02, "keyframe {i} error {err}");
        }
        for (i, tl) in truth_landmarks.iter().enumerate() {
            let err = (map.landmarks()[i].position - *tl).norm();
            assert!(err < 0.05, "landmark {i} error {err}");
        }
    }

    #[test]
    fn gauge_keyframe_stays_fixed() {
        let mut rng = Pcg32::seed_from(3);
        let (mut map, truth_poses, _, cam) = noisy_map(3, 25, 0.1, 0.1, &mut rng);
        let before = map.keyframes()[0].pose;
        local_bundle_adjustment(&mut map, &cam, 3, 25).expect("ran");
        let after = map.keyframes()[0].pose;
        assert!(before.distance_to(&after) < 1e-12);
        // angle_to has an acos precision floor near zero (~1e-7).
        assert!(before.angle_to(&after) < 1e-6);
        // And it equals the truth (we seeded it exactly).
        assert!(after.distance_to(&truth_poses[0]) < 1e-12);
    }

    #[test]
    fn global_ba_handles_larger_maps() {
        let mut rng = Pcg32::seed_from(4);
        let (mut map, _, _, cam) = noisy_map(10, 40, 0.06, 0.06, &mut rng);
        let report = global_bundle_adjustment(&mut map, &cam, 6, 40).expect("ran");
        assert!(
            report.improvement() > 0.5,
            "improvement {}",
            report.improvement()
        );
        // Subsampling: no more than 6 poses optimized.
        assert!(report.parameter_count <= (6 - 1) * 6 + 40 * 3);
    }

    #[test]
    fn empty_map_returns_none() {
        let mut map = Map::new();
        let cam = CameraIntrinsics::euroc();
        assert!(local_bundle_adjustment(&mut map, &cam, 5, 50).is_none());
        assert!(global_bundle_adjustment(&mut map, &cam, 5, 50).is_none());
    }

    #[test]
    fn report_counts_are_consistent() {
        let mut rng = Pcg32::seed_from(5);
        let (mut map, _, _, cam) = noisy_map(3, 20, 0.05, 0.05, &mut rng);
        let report = local_bundle_adjustment(&mut map, &cam, 3, 20).expect("ran");
        // 1 free pose × 6 (two of three are the gauge pair) + 20
        // landmarks × 3.
        assert_eq!(report.parameter_count, 6 + 20 * 3);
        assert!(report.residual_count >= 8);
        assert!(report.iterations >= 1);
    }
}
