//! Pinhole camera model and camera poses.

use drone_math::{Quat, Vec3};

/// A pixel coordinate (u right, v down).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Pixel {
    /// Horizontal coordinate, pixels.
    pub u: f64,
    /// Vertical coordinate, pixels.
    pub v: f64,
}

impl Pixel {
    /// Creates a pixel coordinate.
    pub fn new(u: f64, v: f64) -> Pixel {
        Pixel { u, v }
    }

    /// Euclidean distance to another pixel.
    pub fn distance(self, other: Pixel) -> f64 {
        ((self.u - other.u).powi(2) + (self.v - other.v).powi(2)).sqrt()
    }
}

/// Pinhole intrinsics (the EuRoC sensor is a 752×480 global-shutter
/// camera with ~460 px focal length).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CameraIntrinsics {
    /// Focal length in x, pixels.
    pub fx: f64,
    /// Focal length in y, pixels.
    pub fy: f64,
    /// Principal point x, pixels.
    pub cx: f64,
    /// Principal point y, pixels.
    pub cy: f64,
    /// Image width, pixels.
    pub width: u32,
    /// Image height, pixels.
    pub height: u32,
}

impl CameraIntrinsics {
    /// EuRoC-like intrinsics.
    pub fn euroc() -> CameraIntrinsics {
        CameraIntrinsics {
            fx: 460.0,
            fy: 460.0,
            cx: 376.0,
            cy: 240.0,
            width: 752,
            height: 480,
        }
    }

    /// Projects a camera-frame point (+Z forward) to a pixel.
    ///
    /// Returns `None` when the point is behind the camera or projects
    /// outside the image.
    pub fn project(&self, p_cam: Vec3) -> Option<Pixel> {
        if p_cam.z <= 0.05 {
            return None;
        }
        let u = self.fx * p_cam.x / p_cam.z + self.cx;
        let v = self.fy * p_cam.y / p_cam.z + self.cy;
        if u < 0.0 || v < 0.0 || u >= f64::from(self.width) || v >= f64::from(self.height) {
            return None;
        }
        Some(Pixel::new(u, v))
    }

    /// Back-projects a pixel at the given depth (camera frame, metres).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is not positive.
    pub fn unproject(&self, pixel: Pixel, depth: f64) -> Vec3 {
        assert!(depth > 0.0, "depth must be positive");
        Vec3::new(
            (pixel.u - self.cx) / self.fx * depth,
            (pixel.v - self.cy) / self.fy * depth,
            depth,
        )
    }

    /// Horizontal field of view, radians.
    pub fn fov_x(&self) -> f64 {
        2.0 * (f64::from(self.width) / (2.0 * self.fx)).atan()
    }
}

/// A camera pose: position and orientation in the world frame.
///
/// The rotation maps camera-frame vectors to world-frame vectors; the
/// camera looks along its +Z axis.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CameraPose {
    /// Camera centre in the world, metres.
    pub position: Vec3,
    /// Camera-to-world rotation.
    pub orientation: Quat,
}

impl CameraPose {
    /// A pose at the origin looking along world +Z.
    pub fn identity() -> CameraPose {
        CameraPose::default()
    }

    /// Creates a pose.
    pub fn new(position: Vec3, orientation: Quat) -> CameraPose {
        CameraPose {
            position,
            orientation,
        }
    }

    /// A pose at `position` whose +Z axis looks toward `target`
    /// (with world +Z used to define "up"; `target` must not coincide
    /// with `position`).
    pub fn looking_at(position: Vec3, target: Vec3) -> CameraPose {
        let forward = (target - position).normalized().unwrap_or(Vec3::X);
        // Build an orthonormal basis with +Z = forward.
        let world_up = if forward.cross(Vec3::Z).norm() < 1e-6 {
            Vec3::X
        } else {
            Vec3::Z
        };
        let right = forward
            .cross(world_up)
            .normalized()
            .expect("non-degenerate basis");
        let down = forward
            .cross(right)
            .normalized()
            .expect("non-degenerate basis");
        // Camera axes in world coordinates: X=right, Y=down, Z=forward.
        let m = drone_math::Mat3::from_rows(
            Vec3::new(right.x, down.x, forward.x),
            Vec3::new(right.y, down.y, forward.y),
            Vec3::new(right.z, down.z, forward.z),
        );
        CameraPose {
            position,
            orientation: rotation_matrix_to_quat(&m),
        }
    }

    /// Transforms a world point into the camera frame.
    pub fn world_to_camera(&self, p_world: Vec3) -> Vec3 {
        self.orientation.rotate_inverse(p_world - self.position)
    }

    /// Transforms a camera-frame point into the world frame.
    pub fn camera_to_world(&self, p_cam: Vec3) -> Vec3 {
        self.orientation.rotate(p_cam) + self.position
    }

    /// Translation distance to another pose, metres.
    pub fn distance_to(&self, other: &CameraPose) -> f64 {
        (self.position - other.position).norm()
    }

    /// Rotation angle to another pose, radians.
    pub fn angle_to(&self, other: &CameraPose) -> f64 {
        self.orientation.angle_to(other.orientation)
    }

    /// Applies a small pose increment `[ω, t]` (axis-angle rotation in
    /// the camera frame, world translation) — the parameterization the
    /// optimizers step in.
    pub fn perturbed(&self, delta: &[f64; 6]) -> CameraPose {
        let omega = Vec3::new(delta[0], delta[1], delta[2]);
        let dq = Quat::from_axis_angle(omega, omega.norm());
        CameraPose {
            position: self.position + Vec3::new(delta[3], delta[4], delta[5]),
            orientation: (self.orientation * dq).normalized(),
        }
    }
}

/// Converts an orthonormal rotation matrix to a quaternion
/// (Shepperd's method, branch on the largest diagonal term).
pub fn rotation_matrix_to_quat(m: &drone_math::Mat3) -> Quat {
    let t = m.trace();
    let q = if t > 0.0 {
        let s = (t + 1.0).sqrt() * 2.0;
        Quat::new(
            0.25 * s,
            (m.m[2][1] - m.m[1][2]) / s,
            (m.m[0][2] - m.m[2][0]) / s,
            (m.m[1][0] - m.m[0][1]) / s,
        )
    } else if m.m[0][0] > m.m[1][1] && m.m[0][0] > m.m[2][2] {
        let s = (1.0 + m.m[0][0] - m.m[1][1] - m.m[2][2]).sqrt() * 2.0;
        Quat::new(
            (m.m[2][1] - m.m[1][2]) / s,
            0.25 * s,
            (m.m[0][1] + m.m[1][0]) / s,
            (m.m[0][2] + m.m[2][0]) / s,
        )
    } else if m.m[1][1] > m.m[2][2] {
        let s = (1.0 + m.m[1][1] - m.m[0][0] - m.m[2][2]).sqrt() * 2.0;
        Quat::new(
            (m.m[0][2] - m.m[2][0]) / s,
            (m.m[0][1] + m.m[1][0]) / s,
            0.25 * s,
            (m.m[1][2] + m.m[2][1]) / s,
        )
    } else {
        let s = (1.0 + m.m[2][2] - m.m[0][0] - m.m[1][1]).sqrt() * 2.0;
        Quat::new(
            (m.m[1][0] - m.m[0][1]) / s,
            (m.m[0][2] + m.m[2][0]) / s,
            (m.m[1][2] + m.m[2][1]) / s,
            0.25 * s,
        )
    };
    q.normalized()
}

#[cfg(test)]
mod tests {
    use super::*;
    use drone_math::Pcg32;

    #[test]
    fn project_unproject_roundtrip() {
        let cam = CameraIntrinsics::euroc();
        let p = Vec3::new(0.4, -0.2, 3.0);
        let pix = cam.project(p).expect("in view");
        let back = cam.unproject(pix, 3.0);
        assert!((back - p).norm() < 1e-9);
    }

    #[test]
    fn behind_camera_is_none() {
        let cam = CameraIntrinsics::euroc();
        assert!(cam.project(Vec3::new(0.0, 0.0, -1.0)).is_none());
        assert!(cam.project(Vec3::new(0.0, 0.0, 0.0)).is_none());
    }

    #[test]
    fn out_of_frame_is_none() {
        let cam = CameraIntrinsics::euroc();
        // Far to the side at shallow depth.
        assert!(cam.project(Vec3::new(10.0, 0.0, 1.0)).is_none());
    }

    #[test]
    fn centre_projects_to_principal_point() {
        let cam = CameraIntrinsics::euroc();
        let pix = cam.project(Vec3::new(0.0, 0.0, 2.0)).unwrap();
        assert!((pix.u - cam.cx).abs() < 1e-9);
        assert!((pix.v - cam.cy).abs() < 1e-9);
    }

    #[test]
    fn fov_is_plausible() {
        let fov = CameraIntrinsics::euroc().fov_x().to_degrees();
        assert!((60.0..100.0).contains(&fov), "fov {fov}");
    }

    #[test]
    fn world_camera_roundtrip() {
        let pose = CameraPose::new(Vec3::new(1.0, 2.0, 3.0), Quat::from_euler(0.2, -0.4, 0.9));
        let p = Vec3::new(-2.0, 0.5, 7.0);
        let back = pose.camera_to_world(pose.world_to_camera(p));
        assert!((back - p).norm() < 1e-12);
    }

    #[test]
    fn looking_at_points_forward() {
        let pose = CameraPose::looking_at(Vec3::new(0.0, 0.0, 1.0), Vec3::new(5.0, 0.0, 1.0));
        let target_cam = pose.world_to_camera(Vec3::new(5.0, 0.0, 1.0));
        assert!(target_cam.z > 4.9, "target not in front: {target_cam}");
        assert!(target_cam.x.abs() < 1e-9 && target_cam.y.abs() < 1e-9);
    }

    #[test]
    fn rotation_matrix_quat_roundtrip() {
        let mut rng = Pcg32::seed_from(5);
        for _ in 0..100 {
            let q = Quat::from_euler(
                rng.uniform(-3.0, 3.0),
                rng.uniform(-1.4, 1.4),
                rng.uniform(-3.0, 3.0),
            );
            let m = q.to_rotation_matrix();
            let q2 = rotation_matrix_to_quat(&m);
            // angle_to has an acos precision floor near zero (~1e-7).
            assert!(q.angle_to(q2) < 1e-6, "roundtrip failed: {q} vs {q2}");
        }
    }

    #[test]
    fn perturbed_identity_is_noop() {
        let pose = CameraPose::new(Vec3::new(1.0, 1.0, 1.0), Quat::from_euler(0.1, 0.2, 0.3));
        let same = pose.perturbed(&[0.0; 6]);
        assert!(pose.distance_to(&same) < 1e-12);
        assert!(pose.angle_to(&same) < 1e-12);
    }

    #[test]
    fn perturbed_translation() {
        let pose = CameraPose::identity();
        let moved = pose.perturbed(&[0.0, 0.0, 0.0, 1.0, -2.0, 0.5]);
        assert!((moved.position - Vec3::new(1.0, -2.0, 0.5)).norm() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "depth must be positive")]
    fn unproject_zero_depth_panics() {
        CameraIntrinsics::euroc().unproject(Pixel::new(0.0, 0.0), 0.0);
    }
}
