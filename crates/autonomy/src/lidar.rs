//! Simulated planar LiDAR over a world of axis-aligned box obstacles —
//! the stand-in for the paper's Table 4 LiDAR payloads (Ultra Puck
//! class: 360°, tens of metres of range).

use drone_math::{Pcg32, Vec3};
use drone_sim::RigidBodyState;

/// An axis-aligned box obstacle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Obstacle {
    /// Minimum corner.
    pub min: Vec3,
    /// Maximum corner.
    pub max: Vec3,
}

impl Obstacle {
    /// Creates a box from two corners (normalized).
    pub fn new(a: Vec3, b: Vec3) -> Obstacle {
        Obstacle {
            min: Vec3::new(a.x.min(b.x), a.y.min(b.y), a.z.min(b.z)),
            max: Vec3::new(a.x.max(b.x), a.y.max(b.y), a.z.max(b.z)),
        }
    }

    /// Whether a point lies inside the box.
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// Ray/box intersection distance (slab method), if the ray starting
    /// at `origin` along unit `dir` hits within `max_range`.
    pub fn raycast(&self, origin: Vec3, dir: Vec3, max_range: f64) -> Option<f64> {
        let mut t_near = 0.0f64;
        let mut t_far = max_range;
        for axis in 0..3 {
            let o = origin[axis];
            let d = dir[axis];
            let (lo, hi) = (self.min[axis], self.max[axis]);
            if d.abs() < 1e-12 {
                if o < lo || o > hi {
                    return None;
                }
                continue;
            }
            let mut t0 = (lo - o) / d;
            let mut t1 = (hi - o) / d;
            if t0 > t1 {
                std::mem::swap(&mut t0, &mut t1);
            }
            t_near = t_near.max(t0);
            t_far = t_far.min(t1);
            if t_near > t_far {
                return None;
            }
        }
        (t_near <= max_range && t_near >= 0.0).then_some(t_near)
    }
}

/// A static world of box obstacles for the LiDAR to see.
#[derive(Debug, Clone, Default)]
pub struct ObstacleWorld {
    /// The obstacles.
    pub obstacles: Vec<Obstacle>,
}

impl ObstacleWorld {
    /// An empty world.
    pub fn new() -> ObstacleWorld {
        ObstacleWorld::default()
    }

    /// Adds a box obstacle.
    pub fn add_box(&mut self, a: Vec3, b: Vec3) -> &mut Self {
        self.obstacles.push(Obstacle::new(a, b));
        self
    }

    /// Whether a point is inside any obstacle (collision test).
    pub fn collides(&self, p: Vec3) -> bool {
        self.obstacles.iter().any(|o| o.contains(p))
    }

    /// Nearest hit distance along a ray, if any.
    pub fn raycast(&self, origin: Vec3, dir: Vec3, max_range: f64) -> Option<f64> {
        self.obstacles
            .iter()
            .filter_map(|o| o.raycast(origin, dir, max_range))
            .min_by(f64::total_cmp)
    }
}

/// One LiDAR return.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LidarReturn {
    /// Beam azimuth in the world frame, rad.
    pub azimuth: f64,
    /// Measured range, m (= max range when nothing was hit).
    pub range: f64,
    /// Whether an obstacle was hit within range.
    pub hit: bool,
}

/// A horizontally scanning LiDAR.
///
/// # Example
///
/// ```
/// use drone_autonomy::lidar::{Lidar, ObstacleWorld};
/// use drone_math::Vec3;
/// use drone_sim::RigidBodyState;
///
/// let mut world = ObstacleWorld::new();
/// world.add_box(Vec3::new(4.0, -5.0, 0.0), Vec3::new(5.0, 5.0, 20.0));
/// let mut lidar = Lidar::new(36, 30.0, 0.01, 3);
/// let scan = lidar.scan(&world, &RigidBodyState::at_altitude(10.0));
/// assert!(scan.iter().any(|r| r.hit));
/// ```
#[derive(Debug, Clone)]
pub struct Lidar {
    beams: usize,
    max_range: f64,
    range_noise: f64,
    rng: Pcg32,
}

impl Lidar {
    /// Creates a scanner with `beams` evenly spaced azimuths, `max_range`
    /// metres and relative range noise `range_noise`.
    ///
    /// # Panics
    ///
    /// Panics on zero beams or non-positive range.
    pub fn new(beams: usize, max_range: f64, range_noise: f64, seed: u64) -> Lidar {
        assert!(beams > 0, "need at least one beam");
        assert!(max_range > 0.0, "range must be positive");
        Lidar {
            beams,
            max_range,
            range_noise,
            rng: Pcg32::seed_from(seed),
        }
    }

    /// Maximum range, m.
    pub fn max_range(&self) -> f64 {
        self.max_range
    }

    /// Performs one 360° scan from the vehicle's position (beams stay in
    /// the world horizontal plane, like a gimballed scanner).
    pub fn scan(&mut self, world: &ObstacleWorld, state: &RigidBodyState) -> Vec<LidarReturn> {
        let origin = state.position;
        (0..self.beams)
            .map(|i| {
                let azimuth = i as f64 / self.beams as f64 * std::f64::consts::TAU;
                let dir = Vec3::new(azimuth.cos(), azimuth.sin(), 0.0);
                match world.raycast(origin, dir, self.max_range) {
                    Some(d) => {
                        let noisy =
                            (d * (1.0 + self.rng.normal_with(0.0, self.range_noise))).max(0.05);
                        LidarReturn {
                            azimuth,
                            range: noisy.min(self.max_range),
                            hit: true,
                        }
                    }
                    None => LidarReturn {
                        azimuth,
                        range: self.max_range,
                        hit: false,
                    },
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wall_world() -> ObstacleWorld {
        let mut w = ObstacleWorld::new();
        w.add_box(Vec3::new(5.0, -10.0, 0.0), Vec3::new(6.0, 10.0, 20.0));
        w
    }

    #[test]
    fn raycast_hits_facing_wall() {
        let w = wall_world();
        let d = w
            .raycast(Vec3::new(0.0, 0.0, 5.0), Vec3::X, 30.0)
            .expect("hit");
        assert!((d - 5.0).abs() < 1e-9, "distance {d}");
    }

    #[test]
    fn raycast_misses_behind() {
        let w = wall_world();
        assert!(w
            .raycast(Vec3::new(0.0, 0.0, 5.0), -Vec3::X, 30.0)
            .is_none());
        assert!(w.raycast(Vec3::new(0.0, 0.0, 5.0), Vec3::Y, 30.0).is_none());
    }

    #[test]
    fn raycast_respects_max_range() {
        let w = wall_world();
        assert!(w.raycast(Vec3::new(0.0, 0.0, 5.0), Vec3::X, 4.0).is_none());
    }

    #[test]
    fn nearest_of_two_obstacles_wins() {
        let mut w = wall_world();
        w.add_box(Vec3::new(2.0, -1.0, 0.0), Vec3::new(3.0, 1.0, 20.0));
        let d = w
            .raycast(Vec3::new(0.0, 0.0, 5.0), Vec3::X, 30.0)
            .expect("hit");
        assert!((d - 2.0).abs() < 1e-9);
    }

    #[test]
    fn collision_test() {
        let w = wall_world();
        assert!(w.collides(Vec3::new(5.5, 0.0, 5.0)));
        assert!(!w.collides(Vec3::new(0.0, 0.0, 5.0)));
    }

    #[test]
    fn scan_sees_wall_on_correct_side() {
        let mut lidar = Lidar::new(72, 30.0, 0.0, 1);
        let scan = lidar.scan(&wall_world(), &RigidBodyState::at_altitude(5.0));
        // The beam along +X hits at ~5 m; the beam along −X misses.
        let forward = &scan[0];
        assert!(
            forward.hit && (forward.range - 5.0).abs() < 0.1,
            "{forward:?}"
        );
        let backward = &scan[36];
        assert!(!backward.hit);
    }

    #[test]
    fn ray_starting_inside_reports_zero_distance() {
        let w = wall_world();
        let d = w
            .raycast(Vec3::new(5.5, 0.0, 5.0), Vec3::X, 30.0)
            .expect("inside");
        assert!(d.abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one beam")]
    fn zero_beams_panics() {
        let _ = Lidar::new(0, 10.0, 0.0, 0);
    }
}
