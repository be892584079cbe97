//! 3-vectors and 3×3 matrices used by the rigid-body and estimation layers.

use std::fmt;
use std::iter::Sum;
use std::ops::{
    Add, AddAssign, Div, DivAssign, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign,
};

/// A 3-dimensional vector of `f64` components.
///
/// Used for positions (m), velocities (m/s), angular rates (rad/s), forces
/// (N) and torques (N·m) throughout the workspace.
///
/// # Example
///
/// ```
/// use drone_math::Vec3;
/// let thrust = Vec3::new(0.0, 0.0, 14.7);
/// assert!((thrust.norm() - 14.7).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// X component (forward / north, depending on frame).
    pub x: f64,
    /// Y component (right / east).
    pub y: f64,
    /// Z component (down or up; the dynamics crate documents its frame).
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };
    /// Unit vector along +X.
    pub const X: Vec3 = Vec3 {
        x: 1.0,
        y: 0.0,
        z: 0.0,
    };
    /// Unit vector along +Y.
    pub const Y: Vec3 = Vec3 {
        x: 0.0,
        y: 1.0,
        z: 0.0,
    };
    /// Unit vector along +Z.
    pub const Z: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 1.0,
    };

    /// Creates a vector from components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Creates a vector with all components equal to `v`.
    #[inline]
    pub const fn splat(v: f64) -> Self {
        Vec3::new(v, v, v)
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, rhs: Vec3) -> f64 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Cross product (right-handed).
    #[inline]
    pub fn cross(self, rhs: Vec3) -> Vec3 {
        Vec3::new(
            self.y * rhs.z - self.z * rhs.y,
            self.z * rhs.x - self.x * rhs.z,
            self.x * rhs.y - self.y * rhs.x,
        )
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean norm (cheaper than [`Vec3::norm`]).
    #[inline]
    pub fn norm_squared(self) -> f64 {
        self.dot(self)
    }

    /// Returns a unit vector in the same direction, or `None` when the norm
    /// is too small to normalize reliably.
    pub fn normalized(self) -> Option<Vec3> {
        let n = self.norm();
        if n < 1e-12 {
            None
        } else {
            Some(self / n)
        }
    }

    /// Component-wise multiplication.
    #[inline]
    pub fn hadamard(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x * rhs.x, self.y * rhs.y, self.z * rhs.z)
    }

    /// Component-wise absolute value.
    #[inline]
    pub fn abs(self) -> Vec3 {
        Vec3::new(self.x.abs(), self.y.abs(), self.z.abs())
    }

    /// Largest absolute component.
    pub fn max_abs(self) -> f64 {
        self.x.abs().max(self.y.abs()).max(self.z.abs())
    }

    /// Clamps each component into `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn clamp(self, lo: f64, hi: f64) -> Vec3 {
        assert!(lo <= hi, "invalid clamp range: {lo} > {hi}");
        Vec3::new(
            self.x.clamp(lo, hi),
            self.y.clamp(lo, hi),
            self.z.clamp(lo, hi),
        )
    }

    /// `true` when every component is finite.
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }

    /// Linear interpolation: `self + t * (other - self)`.
    pub fn lerp(self, other: Vec3, t: f64) -> Vec3 {
        self + (other - self) * t
    }

    /// Components as an array `[x, y, z]`.
    pub fn to_array(self) -> [f64; 3] {
        [self.x, self.y, self.z]
    }

    /// Builds a vector from an array `[x, y, z]`.
    pub fn from_array(a: [f64; 3]) -> Vec3 {
        Vec3::new(a[0], a[1], a[2])
    }
}

impl fmt::Display for Vec3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6}, {:.6}, {:.6})", self.x, self.y, self.z)
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec3) {
        *self = *self - rhs;
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: Vec3) -> Vec3 {
        rhs * self
    }
}

impl MulAssign<f64> for Vec3 {
    #[inline]
    fn mul_assign(&mut self, rhs: f64) {
        *self = *self * rhs;
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x / rhs, self.y / rhs, self.z / rhs)
    }
}

impl DivAssign<f64> for Vec3 {
    #[inline]
    fn div_assign(&mut self, rhs: f64) {
        *self = *self / rhs;
    }
}

impl Index<usize> for Vec3 {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index out of range: {i}"),
        }
    }
}

impl IndexMut<usize> for Vec3 {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        match i {
            0 => &mut self.x,
            1 => &mut self.y,
            2 => &mut self.z,
            _ => panic!("Vec3 index out of range: {i}"),
        }
    }
}

impl Sum for Vec3 {
    fn sum<I: Iterator<Item = Vec3>>(iter: I) -> Vec3 {
        iter.fold(Vec3::ZERO, |a, b| a + b)
    }
}

impl From<[f64; 3]> for Vec3 {
    fn from(a: [f64; 3]) -> Self {
        Vec3::from_array(a)
    }
}

impl From<Vec3> for [f64; 3] {
    fn from(v: Vec3) -> Self {
        v.to_array()
    }
}

/// A 3×3 matrix stored row-major; used for rotation matrices, inertia
/// tensors and small EKF blocks.
///
/// # Example
///
/// ```
/// use drone_math::{Mat3, Vec3};
/// let r = Mat3::identity();
/// assert_eq!(r * Vec3::X, Vec3::X);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat3 {
    /// Row-major entries: `m[r][c]`.
    pub m: [[f64; 3]; 3],
}

impl Mat3 {
    /// The zero matrix.
    pub fn zero() -> Mat3 {
        Mat3 { m: [[0.0; 3]; 3] }
    }

    /// The identity matrix.
    pub fn identity() -> Mat3 {
        Mat3::from_diagonal(Vec3::splat(1.0))
    }

    /// Builds a matrix from row-major entries.
    pub fn from_rows(r0: Vec3, r1: Vec3, r2: Vec3) -> Mat3 {
        Mat3 {
            m: [r0.to_array(), r1.to_array(), r2.to_array()],
        }
    }

    /// Builds a diagonal matrix.
    pub fn from_diagonal(d: Vec3) -> Mat3 {
        let mut m = Mat3::zero();
        m.m[0][0] = d.x;
        m.m[1][1] = d.y;
        m.m[2][2] = d.z;
        m
    }

    /// Skew-symmetric cross-product matrix: `skew(a) * b == a.cross(b)`.
    pub fn skew(a: Vec3) -> Mat3 {
        Mat3 {
            m: [[0.0, -a.z, a.y], [a.z, 0.0, -a.x], [-a.y, a.x, 0.0]],
        }
    }

    /// Row `r` as a vector.
    ///
    /// # Panics
    ///
    /// Panics if `r >= 3`.
    pub fn row(&self, r: usize) -> Vec3 {
        Vec3::from_array(self.m[r])
    }

    /// Column `c` as a vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= 3`.
    pub fn col(&self, c: usize) -> Vec3 {
        Vec3::new(self.m[0][c], self.m[1][c], self.m[2][c])
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Mat3 {
        Mat3::from_rows(self.col(0), self.col(1), self.col(2))
    }

    /// Determinant.
    pub fn det(&self) -> f64 {
        self.row(0).dot(self.row(1).cross(self.row(2)))
    }

    /// Trace (sum of diagonal entries).
    pub fn trace(&self) -> f64 {
        self.m[0][0] + self.m[1][1] + self.m[2][2]
    }

    /// Matrix inverse, or `None` when the determinant is (near) zero.
    pub fn inverse(&self) -> Option<Mat3> {
        let det = self.det();
        if det.abs() < 1e-14 {
            return None;
        }
        let r0 = self.row(0);
        let r1 = self.row(1);
        let r2 = self.row(2);
        // Rows of the inverse are the cross products of the original rows
        // (adjugate transpose), scaled by 1/det.
        let inv = Mat3::from_rows(r1.cross(r2), r2.cross(r0), r0.cross(r1)).transpose();
        Some(inv * (1.0 / det))
    }

    /// `true` when every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.m.iter().flatten().all(|v| v.is_finite())
    }
}

impl Default for Mat3 {
    fn default() -> Self {
        Mat3::identity()
    }
}

impl fmt::Display for Mat3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..3 {
            writeln!(
                f,
                "[{:.6} {:.6} {:.6}]",
                self.m[r][0], self.m[r][1], self.m[r][2]
            )?;
        }
        Ok(())
    }
}

impl Mul<Vec3> for Mat3 {
    type Output = Vec3;
    fn mul(self, v: Vec3) -> Vec3 {
        Vec3::new(self.row(0).dot(v), self.row(1).dot(v), self.row(2).dot(v))
    }
}

impl Mul for Mat3 {
    type Output = Mat3;
    fn mul(self, rhs: Mat3) -> Mat3 {
        let mut out = Mat3::zero();
        for r in 0..3 {
            for c in 0..3 {
                out.m[r][c] = self.row(r).dot(rhs.col(c));
            }
        }
        out
    }
}

impl Mul<f64> for Mat3 {
    type Output = Mat3;
    fn mul(self, s: f64) -> Mat3 {
        let mut out = self;
        for row in &mut out.m {
            for v in row {
                *v *= s;
            }
        }
        out
    }
}

impl Add for Mat3 {
    type Output = Mat3;
    fn add(self, rhs: Mat3) -> Mat3 {
        let mut out = self;
        for r in 0..3 {
            for c in 0..3 {
                out.m[r][c] += rhs.m[r][c];
            }
        }
        out
    }
}

impl Sub for Mat3 {
    type Output = Mat3;
    fn sub(self, rhs: Mat3) -> Mat3 {
        let mut out = self;
        for r in 0..3 {
            for c in 0..3 {
                out.m[r][c] -= rhs.m[r][c];
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_basic_ops() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-1.0, 0.5, 2.0);
        assert_eq!(a + b, Vec3::new(0.0, 2.5, 5.0));
        assert_eq!(a - b, Vec3::new(2.0, 1.5, 1.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
        assert!((a.dot(b) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn cross_is_right_handed() {
        assert_eq!(Vec3::X.cross(Vec3::Y), Vec3::Z);
        assert_eq!(Vec3::Y.cross(Vec3::Z), Vec3::X);
        assert_eq!(Vec3::Z.cross(Vec3::X), Vec3::Y);
    }

    #[test]
    fn cross_is_orthogonal() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, -5.0, 6.0);
        let c = a.cross(b);
        assert!(c.dot(a).abs() < 1e-12);
        assert!(c.dot(b).abs() < 1e-12);
    }

    #[test]
    fn normalized_zero_is_none() {
        assert!(Vec3::ZERO.normalized().is_none());
        let n = Vec3::new(3.0, 4.0, 0.0).normalized().unwrap();
        assert!((n.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clamp_and_abs() {
        let v = Vec3::new(-5.0, 0.25, 9.0).clamp(-1.0, 1.0);
        assert_eq!(v, Vec3::new(-1.0, 0.25, 1.0));
        assert_eq!(Vec3::new(-2.0, 3.0, -4.0).abs(), Vec3::new(2.0, 3.0, 4.0));
        assert!((Vec3::new(-2.0, 3.0, -4.0).max_abs() - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid clamp range")]
    fn clamp_invalid_range_panics() {
        let _ = Vec3::ZERO.clamp(1.0, -1.0);
    }

    #[test]
    fn lerp_endpoints() {
        let a = Vec3::new(1.0, 1.0, 1.0);
        let b = Vec3::new(3.0, 5.0, -1.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec3::new(2.0, 3.0, 0.0));
    }

    #[test]
    fn index_roundtrip() {
        let mut v = Vec3::new(7.0, 8.0, 9.0);
        assert_eq!(v[0], 7.0);
        v[2] = 1.5;
        assert_eq!(v.z, 1.5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_out_of_range() {
        let _ = Vec3::ZERO[3];
    }

    #[test]
    fn sum_of_vectors() {
        let s: Vec3 = [Vec3::X, Vec3::Y, Vec3::Z, Vec3::X].into_iter().sum();
        assert_eq!(s, Vec3::new(2.0, 1.0, 1.0));
    }

    #[test]
    fn mat3_identity_mul() {
        let v = Vec3::new(1.0, -2.0, 0.5);
        assert_eq!(Mat3::identity() * v, v);
        let a = Mat3::from_rows(
            Vec3::new(1.0, 2.0, 3.0),
            Vec3::new(0.0, 1.0, 4.0),
            Vec3::new(5.0, 6.0, 0.0),
        );
        assert_eq!(Mat3::identity() * a, a);
        assert_eq!(a * Mat3::identity(), a);
    }

    #[test]
    fn mat3_inverse_roundtrip() {
        let a = Mat3::from_rows(
            Vec3::new(1.0, 2.0, 3.0),
            Vec3::new(0.0, 1.0, 4.0),
            Vec3::new(5.0, 6.0, 0.0),
        );
        let inv = a.inverse().expect("invertible");
        let prod = a * inv;
        for r in 0..3 {
            for c in 0..3 {
                let expect = if r == c { 1.0 } else { 0.0 };
                assert!(
                    (prod.m[r][c] - expect).abs() < 1e-10,
                    "at ({r},{c}): {prod}"
                );
            }
        }
    }

    #[test]
    fn mat3_singular_inverse_is_none() {
        let a = Mat3::from_rows(Vec3::X, Vec3::X, Vec3::Z);
        assert!(a.inverse().is_none());
    }

    #[test]
    fn skew_matches_cross() {
        let a = Vec3::new(0.3, -0.7, 1.1);
        let b = Vec3::new(-2.0, 0.4, 0.9);
        let via_mat = Mat3::skew(a) * b;
        assert!((via_mat - a.cross(b)).norm() < 1e-12);
    }

    #[test]
    fn transpose_and_trace() {
        let a = Mat3::from_rows(
            Vec3::new(1.0, 2.0, 3.0),
            Vec3::new(4.0, 5.0, 6.0),
            Vec3::new(7.0, 8.0, 9.0),
        );
        assert_eq!(a.transpose().transpose(), a);
        assert!((a.trace() - 15.0).abs() < 1e-12);
        assert_eq!(a.transpose().col(0), a.row(0));
    }

    #[test]
    fn det_of_diagonal() {
        let d = Mat3::from_diagonal(Vec3::new(2.0, 3.0, 4.0));
        assert!((d.det() - 24.0).abs() < 1e-12);
    }
}
