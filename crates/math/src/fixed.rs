//! Q16.16 fixed-point arithmetic — the number format of the paper's FPGA
//! bundle-adjustment pipeline.
//!
//! The paper's §5 FPGA design implements the SLAM bundle adjustments as
//! "simple modules of dense fixed-size matrix algebra in a pipeline";
//! FPGA matrix engines typically run fixed-point. This module provides
//! the format so the workspace can quantify the accuracy cost of that
//! choice (a DESIGN.md ablation): dot products and small matrix algebra
//! in Q16.16 versus `f64`.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// Fractional bits in the representation.
pub const FRACTIONAL_BITS: u32 = 16;
const ONE_RAW: i64 = 1 << FRACTIONAL_BITS;

/// A Q16.16 fixed-point number (32.16 internally to keep headroom for
/// accumulation, saturating at the Q16.16 envelope on conversion).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Q16(i64);

impl Q16 {
    /// Zero.
    pub const ZERO: Q16 = Q16(0);
    /// One.
    pub const ONE: Q16 = Q16(ONE_RAW);
    /// Smallest positive step (2⁻¹⁶ ≈ 1.5e-5).
    pub const EPSILON: Q16 = Q16(1);
    /// Largest representable magnitude in strict Q16.16 (≈32768).
    pub const MAX: Q16 = Q16((1 << 31) - 1);

    /// Converts from `f64`, rounding to the nearest representable value
    /// and saturating at the Q16.16 range.
    pub fn from_f64(v: f64) -> Q16 {
        let scaled = (v * ONE_RAW as f64).round();
        let max = ((1i64 << 31) - 1) as f64;
        Q16(scaled.clamp(-max, max) as i64)
    }

    /// Converts to `f64`.
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / ONE_RAW as f64
    }

    /// Raw representation (for hardware-style bit manipulation).
    pub fn raw(self) -> i64 {
        self.0
    }

    /// Absolute value.
    pub fn abs(self) -> Q16 {
        Q16(self.0.abs())
    }

    /// Fixed-point square root via the integer Newton iteration the
    /// FPGA pipeline would use.
    ///
    /// # Panics
    ///
    /// Panics on negative input.
    pub fn sqrt(self) -> Q16 {
        assert!(self.0 >= 0, "sqrt of negative fixed-point value");
        if self.0 == 0 {
            return Q16::ZERO;
        }
        // sqrt(x) in Qm.16: sqrt(raw << 16).
        let target = (self.0 as i128) << FRACTIONAL_BITS;
        let mut guess = target;
        let mut prev = 0i128;
        while guess != prev && guess > 0 {
            prev = guess;
            guess = (guess + target / guess) / 2;
        }
        Q16(guess as i64)
    }

    /// The quantization error of representing `v`.
    pub fn quantization_error(v: f64) -> f64 {
        (Q16::from_f64(v).to_f64() - v).abs()
    }
}

impl fmt::Display for Q16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.5}", self.to_f64())
    }
}

impl Add for Q16 {
    type Output = Q16;
    fn add(self, rhs: Q16) -> Q16 {
        Q16(self.0 + rhs.0)
    }
}

impl AddAssign for Q16 {
    fn add_assign(&mut self, rhs: Q16) {
        self.0 += rhs.0;
    }
}

impl Sub for Q16 {
    type Output = Q16;
    fn sub(self, rhs: Q16) -> Q16 {
        Q16(self.0 - rhs.0)
    }
}

impl Neg for Q16 {
    type Output = Q16;
    fn neg(self) -> Q16 {
        Q16(-self.0)
    }
}

impl Mul for Q16 {
    type Output = Q16;
    fn mul(self, rhs: Q16) -> Q16 {
        Q16(((self.0 as i128 * rhs.0 as i128) >> FRACTIONAL_BITS) as i64)
    }
}

impl Div for Q16 {
    type Output = Q16;
    /// # Panics
    ///
    /// Panics on division by zero.
    fn div(self, rhs: Q16) -> Q16 {
        assert!(rhs.0 != 0, "fixed-point division by zero");
        Q16((((self.0 as i128) << FRACTIONAL_BITS) / rhs.0 as i128) as i64)
    }
}

/// Fixed-point dot product (the FPGA pipeline's core primitive).
pub fn dot_q16(a: &[Q16], b: &[Q16]) -> Q16 {
    assert_eq!(a.len(), b.len(), "dot product length mismatch");
    let mut acc = Q16::ZERO;
    for (&x, &y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

/// Solves a small SPD system `A x = b` entirely in Q16.16 (Cholesky),
/// mirroring the hardware datapath. Returns `None` when a pivot
/// underflows the format — exactly the failure mode fixed-point
/// hardware must guard against.
#[allow(clippy::needless_range_loop)] // index pairs mirror the HW datapath
pub fn solve_spd_q16(a: &[Vec<Q16>], b: &[Q16]) -> Option<Vec<Q16>> {
    let n = b.len();
    assert!(
        a.len() == n && a.iter().all(|row| row.len() == n),
        "shape mismatch"
    );
    let mut l = vec![vec![Q16::ZERO; n]; n];
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[i][j];
            for k in 0..j {
                let prod = l[i][k] * l[j][k];
                sum = sum - prod;
            }
            if i == j {
                if sum.raw() <= 0 {
                    return None;
                }
                l[i][i] = sum.sqrt();
                if l[i][i].raw() == 0 {
                    return None;
                }
            } else {
                l[i][j] = sum / l[j][j];
            }
        }
    }
    // Forward/back substitution.
    let mut y = vec![Q16::ZERO; n];
    for i in 0..n {
        let mut sum = b[i];
        for k in 0..i {
            sum = sum - l[i][k] * y[k];
        }
        y[i] = sum / l[i][i];
    }
    let mut x = vec![Q16::ZERO; n];
    for i in (0..n).rev() {
        let mut sum = y[i];
        for k in (i + 1)..n {
            sum = sum - l[k][i] * x[k];
        }
        x[i] = sum / l[i][i];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_precision() {
        for v in [0.0, 1.0, -1.0, 2.84217, -123.456, 0.00002] {
            let q = Q16::from_f64(v);
            assert!((q.to_f64() - v).abs() <= 1.0 / 65536.0, "{v}");
        }
    }

    #[test]
    fn arithmetic_matches_float_within_quantization() {
        let a = Q16::from_f64(3.25);
        let b = Q16::from_f64(-1.5);
        assert!(((a + b).to_f64() - 1.75).abs() < 1e-4);
        assert!(((a - b).to_f64() - 4.75).abs() < 1e-4);
        assert!(((a * b).to_f64() + 4.875).abs() < 1e-4);
        assert!(((a / b).to_f64() + 2.1666).abs() < 1e-3);
        assert_eq!((-a).to_f64(), -3.25);
    }

    #[test]
    fn saturates_at_range() {
        let big = Q16::from_f64(1e9);
        assert!(big.to_f64() < 33000.0);
        let small = Q16::from_f64(-1e9);
        assert!(small.to_f64() > -33000.0);
    }

    #[test]
    fn sqrt_accuracy() {
        for v in [0.25, 1.0, 2.0, 100.0, 12345.0] {
            let s = Q16::from_f64(v).sqrt().to_f64();
            assert!(
                (s - v.sqrt()).abs() < 2e-2 * (1.0 + v.sqrt()),
                "sqrt({v}) = {s}"
            );
        }
        assert_eq!(Q16::ZERO.sqrt(), Q16::ZERO);
    }

    #[test]
    #[should_panic(expected = "sqrt of negative")]
    fn sqrt_negative_panics() {
        let _ = Q16::from_f64(-1.0).sqrt();
    }

    #[test]
    fn dot_product_matches_float() {
        let a_f = [1.5, -2.25, 0.125, 3.0];
        let b_f = [0.5, 1.0, -4.0, 0.25];
        let a: Vec<Q16> = a_f.iter().map(|&v| Q16::from_f64(v)).collect();
        let b: Vec<Q16> = b_f.iter().map(|&v| Q16::from_f64(v)).collect();
        let expect: f64 = a_f.iter().zip(&b_f).map(|(x, y)| x * y).sum();
        assert!((dot_q16(&a, &b).to_f64() - expect).abs() < 1e-3);
    }

    #[test]
    fn solves_small_spd_system() {
        // A = [[4,1],[1,3]], b = [1,2] → x = [1/11, 7/11].
        let q = Q16::from_f64;
        let a = vec![vec![q(4.0), q(1.0)], vec![q(1.0), q(3.0)]];
        let b = vec![q(1.0), q(2.0)];
        let x = solve_spd_q16(&a, &b).expect("SPD");
        assert!((x[0].to_f64() - 1.0 / 11.0).abs() < 1e-3, "{}", x[0]);
        assert!((x[1].to_f64() - 7.0 / 11.0).abs() < 1e-3, "{}", x[1]);
    }

    #[test]
    fn degenerate_pivot_returns_none() {
        let q = Q16::from_f64;
        // Singular matrix.
        let a = vec![vec![q(1.0), q(1.0)], vec![q(1.0), q(1.0)]];
        assert!(solve_spd_q16(&a, &[q(1.0), q(1.0)]).is_none());
    }

    #[test]
    fn quantization_error_bounded() {
        assert!(Q16::quantization_error(std::f64::consts::PI) <= 1.0 / 65536.0);
        assert_eq!(Q16::quantization_error(0.5), 0.0);
    }
}
