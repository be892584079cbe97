//! 2-D occupancy grid mapping.
//!
//! The grid covers the flight altitude plane: cells are unknown until a
//! LiDAR ray crosses them (free) or ends on them (occupied). Log-odds
//! style counting keeps single spurious returns from flipping cells.

use drone_math::Vec3;

/// Tri-state cell classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellState {
    /// Never observed.
    Unknown,
    /// Observed traversable.
    Free,
    /// Observed blocked.
    Occupied,
}

/// A fixed-size 2-D occupancy grid.
///
/// # Example
///
/// ```
/// use drone_autonomy::grid::{CellState, OccupancyGrid};
/// let mut g = OccupancyGrid::new(10, 10, 1.0, 0.0, 0.0);
/// g.set_occupied(5, 5);
/// assert_eq!(g.state(5, 5), CellState::Occupied);
/// assert_eq!(g.state(0, 0), CellState::Unknown);
/// ```
#[derive(Debug, Clone)]
pub struct OccupancyGrid {
    width: usize,
    height: usize,
    resolution: f64,
    origin_x: f64,
    origin_y: f64,
    /// Signed evidence counter per cell: positive = occupied.
    evidence: Vec<i32>,
}

/// Evidence threshold before a cell flips state.
const OCCUPIED_THRESHOLD: i32 = 2;
const FREE_THRESHOLD: i32 = -2;
/// Evidence clamp (bounds how long stale evidence persists).
const EVIDENCE_CLAMP: i32 = 20;

impl OccupancyGrid {
    /// Creates an all-unknown grid: `width × height` cells of
    /// `resolution` metres, with world coordinates starting at
    /// `(origin_x, origin_y)`.
    ///
    /// # Panics
    ///
    /// Panics on zero dimensions or non-positive resolution.
    pub fn new(
        width: usize,
        height: usize,
        resolution: f64,
        origin_x: f64,
        origin_y: f64,
    ) -> OccupancyGrid {
        assert!(width > 0 && height > 0, "grid must be non-empty");
        assert!(resolution > 0.0, "resolution must be positive");
        OccupancyGrid {
            width,
            height,
            resolution,
            origin_x,
            origin_y,
            evidence: vec![0; width * height],
        }
    }

    /// Grid width in cells.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height in cells.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Cell size, metres.
    pub fn resolution(&self) -> f64 {
        self.resolution
    }

    /// World position of a cell centre.
    pub fn cell_center(&self, x: usize, y: usize) -> (f64, f64) {
        (
            self.origin_x + (x as f64 + 0.5) * self.resolution,
            self.origin_y + (y as f64 + 0.5) * self.resolution,
        )
    }

    /// Cell containing a world point, or `None` outside the grid.
    pub fn world_to_cell(&self, wx: f64, wy: f64) -> Option<(usize, usize)> {
        let cx = (wx - self.origin_x) / self.resolution;
        let cy = (wy - self.origin_y) / self.resolution;
        if cx < 0.0 || cy < 0.0 {
            return None;
        }
        let (cx, cy) = (cx as usize, cy as usize);
        (cx < self.width && cy < self.height).then_some((cx, cy))
    }

    fn index(&self, x: usize, y: usize) -> usize {
        assert!(
            x < self.width && y < self.height,
            "cell ({x},{y}) out of grid"
        );
        y * self.width + x
    }

    /// Classification of a cell.
    ///
    /// # Panics
    ///
    /// Panics for out-of-grid indices.
    pub fn state(&self, x: usize, y: usize) -> CellState {
        let e = self.evidence[self.index(x, y)];
        if e >= OCCUPIED_THRESHOLD {
            CellState::Occupied
        } else if e <= FREE_THRESHOLD {
            CellState::Free
        } else {
            CellState::Unknown
        }
    }

    /// Marks a cell directly occupied (bypassing evidence counting).
    pub fn set_occupied(&mut self, x: usize, y: usize) {
        let i = self.index(x, y);
        self.evidence[i] = EVIDENCE_CLAMP;
    }

    /// Marks a cell directly free.
    pub fn set_free(&mut self, x: usize, y: usize) {
        let i = self.index(x, y);
        self.evidence[i] = -EVIDENCE_CLAMP;
    }

    fn add_evidence(&mut self, x: usize, y: usize, delta: i32) {
        let i = self.index(x, y);
        self.evidence[i] = (self.evidence[i] + delta).clamp(-EVIDENCE_CLAMP, EVIDENCE_CLAMP);
    }

    /// Integrates one LiDAR ray: cells along the beam gain free evidence;
    /// the end cell gains occupied evidence when `hit` is true. Out-of-
    /// grid portions are ignored.
    pub fn integrate_ray(&mut self, from: Vec3, to: Vec3, hit: bool) {
        let Some((x0, y0)) = self.world_to_cell(from.x, from.y) else {
            return;
        };
        let Some((x1, y1)) = self.world_to_cell(to.x, to.y) else {
            return;
        };
        // Bresenham.
        let (mut x, mut y) = (x0 as isize, y0 as isize);
        let (x1, y1) = (x1 as isize, y1 as isize);
        let dx = (x1 - x).abs();
        let dy = -(y1 - y).abs();
        let sx = if x < x1 { 1 } else { -1 };
        let sy = if y < y1 { 1 } else { -1 };
        let mut err = dx + dy;
        loop {
            let at_end = x == x1 && y == y1;
            if !at_end {
                self.add_evidence(x as usize, y as usize, -1);
            } else {
                if hit {
                    self.add_evidence(x as usize, y as usize, 3);
                } else {
                    self.add_evidence(x as usize, y as usize, -1);
                }
                break;
            }
            let e2 = 2 * err;
            if e2 >= dy {
                err += dy;
                x += sx;
            }
            if e2 <= dx {
                err += dx;
                y += sy;
            }
        }
    }

    /// Returns a copy with every occupied cell inflated by `radius`
    /// metres — the planner's safety margin for the airframe span.
    pub fn inflated(&self, radius: f64) -> OccupancyGrid {
        let r_cells = (radius / self.resolution).ceil() as isize;
        let mut out = self.clone();
        for y in 0..self.height {
            for x in 0..self.width {
                if self.state(x, y) != CellState::Occupied {
                    continue;
                }
                for dy in -r_cells..=r_cells {
                    for dx in -r_cells..=r_cells {
                        if dx * dx + dy * dy > r_cells * r_cells {
                            continue;
                        }
                        let nx = x as isize + dx;
                        let ny = y as isize + dy;
                        if nx >= 0
                            && ny >= 0
                            && (nx as usize) < self.width
                            && (ny as usize) < self.height
                        {
                            out.set_occupied(nx as usize, ny as usize);
                        }
                    }
                }
            }
        }
        out
    }

    /// Fraction of cells that have been observed (free or occupied) — the
    /// coverage metric for mapping missions.
    pub fn coverage(&self) -> f64 {
        let known = self
            .evidence
            .iter()
            .filter(|&&e| e >= OCCUPIED_THRESHOLD || e <= FREE_THRESHOLD)
            .count();
        known as f64 / self.evidence.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coordinate_roundtrip() {
        let g = OccupancyGrid::new(20, 10, 0.5, -5.0, -2.5);
        let (wx, wy) = g.cell_center(4, 3);
        assert_eq!(g.world_to_cell(wx, wy), Some((4, 3)));
        assert_eq!(g.world_to_cell(-100.0, 0.0), None);
        assert_eq!(g.world_to_cell(5.1, 0.0), None);
    }

    #[test]
    fn ray_carves_free_space_and_marks_hit() {
        let mut g = OccupancyGrid::new(20, 20, 1.0, 0.0, 0.0);
        // One ray integration is below threshold; repeat to accumulate.
        for _ in 0..3 {
            g.integrate_ray(Vec3::new(1.5, 10.5, 0.0), Vec3::new(15.5, 10.5, 0.0), true);
        }
        assert_eq!(g.state(5, 10), CellState::Free);
        assert_eq!(g.state(15, 10), CellState::Occupied);
        assert_eq!(g.state(5, 5), CellState::Unknown);
    }

    #[test]
    fn single_spurious_return_does_not_flip_a_cell() {
        let mut g = OccupancyGrid::new(10, 10, 1.0, 0.0, 0.0);
        g.integrate_ray(Vec3::new(0.5, 0.5, 0.0), Vec3::new(5.5, 0.5, 0.0), true);
        // Evidence +3 marks occupied after 1 hit (3 ≥ threshold 2), but a
        // later pass-through ray erodes it back below threshold.
        assert_eq!(g.state(5, 0), CellState::Occupied);
        for _ in 0..3 {
            g.integrate_ray(Vec3::new(0.5, 0.5, 0.0), Vec3::new(8.5, 0.5, 0.0), false);
        }
        assert_ne!(g.state(5, 0), CellState::Occupied, "stale hit should erode");
    }

    #[test]
    fn no_hit_ray_frees_the_end_cell() {
        let mut g = OccupancyGrid::new(10, 10, 1.0, 0.0, 0.0);
        for _ in 0..2 {
            g.integrate_ray(Vec3::new(0.5, 5.5, 0.0), Vec3::new(9.5, 5.5, 0.0), false);
        }
        assert_eq!(g.state(9, 5), CellState::Free);
    }

    #[test]
    fn inflation_expands_obstacles() {
        let mut g = OccupancyGrid::new(11, 11, 1.0, 0.0, 0.0);
        g.set_occupied(5, 5);
        let inflated = g.inflated(2.0);
        assert_eq!(inflated.state(5, 7), CellState::Occupied);
        assert_eq!(inflated.state(3, 5), CellState::Occupied);
        assert_eq!(inflated.state(5, 8), CellState::Unknown);
        // Original untouched.
        assert_eq!(g.state(5, 7), CellState::Unknown);
    }

    #[test]
    fn coverage_grows_with_observation() {
        let mut g = OccupancyGrid::new(10, 10, 1.0, 0.0, 0.0);
        assert_eq!(g.coverage(), 0.0);
        for y in 0..10 {
            for _ in 0..2 {
                g.integrate_ray(
                    Vec3::new(0.5, y as f64 + 0.5, 0.0),
                    Vec3::new(9.5, y as f64 + 0.5, 0.0),
                    false,
                );
            }
        }
        assert!(g.coverage() > 0.9, "coverage {}", g.coverage());
    }

    #[test]
    #[should_panic(expected = "out of grid")]
    fn out_of_grid_state_panics() {
        let g = OccupancyGrid::new(5, 5, 1.0, 0.0, 0.0);
        let _ = g.state(5, 0);
    }
}
