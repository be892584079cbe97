//! Dynamically sized dense matrices with the small set of operations the
//! EKF and bundle-adjustment layers need: products, transpose, Cholesky /
//! LDLT solves, and a Gauss–Jordan inverse for covariance maintenance.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense row-major `rows × cols` matrix of `f64`.
///
/// # Example
///
/// ```
/// use drone_math::Matrix;
/// let a = Matrix::identity(3);
/// let b = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
/// let c = b.matmul(&a);
/// assert_eq!(c[(0, 2)], 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths or the input is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Matrix {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix needs at least one column");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows in matrix literal");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// A square diagonal matrix with the given diagonal.
    pub fn from_diagonal(diag: &[f64]) -> Matrix {
        let mut m = Matrix::zeros(diag.len(), diag.len());
        for (i, &v) in diag.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    /// A column vector (n × 1) from a slice.
    pub fn column(v: &[f64]) -> Matrix {
        Matrix {
            rows: v.len(),
            cols: 1,
            data: v.to_vec(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Underlying data slice, row-major.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == 0.0 {
                    continue;
                }
                for c in 0..rhs.cols {
                    out[(r, c)] += a * rhs[(k, c)];
                }
            }
        }
        out
    }

    /// Scales every entry by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        let mut out = self.clone();
        for v in &mut out.data {
            *v *= s;
        }
        out
    }

    /// Adds `v` to each diagonal entry (useful for LM damping).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn add_diagonal(&self, v: f64) -> Matrix {
        assert_eq!(
            self.rows, self.cols,
            "add_diagonal requires a square matrix"
        );
        let mut out = self.clone();
        for i in 0..self.rows {
            out[(i, i)] += v;
        }
        out
    }

    /// Writes `block` into `self` with its top-left corner at `(r0, c0)`.
    ///
    /// # Panics
    ///
    /// Panics if the block does not fit.
    pub fn set_block(&mut self, r0: usize, c0: usize, block: &Matrix) {
        assert!(
            r0 + block.rows <= self.rows && c0 + block.cols <= self.cols,
            "block out of range"
        );
        for r in 0..block.rows {
            for c in 0..block.cols {
                self[(r0 + r, c0 + c)] = block[(r, c)];
            }
        }
    }

    /// Extracts the `rows × cols` block whose top-left corner is `(r0, c0)`.
    ///
    /// # Panics
    ///
    /// Panics if the block exceeds the matrix bounds.
    pub fn block(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> Matrix {
        assert!(
            r0 + rows <= self.rows && c0 + cols <= self.cols,
            "block out of range"
        );
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                out[(r, c)] = self[(r0 + r, c0 + c)];
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// `true` when all entries are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Symmetrizes in place: `A ← (A + Aᵀ)/2`. Keeps covariance matrices
    /// symmetric in the presence of floating-point drift.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn symmetrize(&mut self) {
        assert_eq!(self.rows, self.cols, "symmetrize requires a square matrix");
        for r in 0..self.rows {
            for c in (r + 1)..self.cols {
                let m = 0.5 * (self[(r, c)] + self[(c, r)]);
                self[(r, c)] = m;
                self[(c, r)] = m;
            }
        }
    }

    /// Cholesky factorization `A = L·Lᵀ` of a symmetric positive-definite
    /// matrix; returns the lower-triangular factor, or `None` when the
    /// matrix is not (numerically) positive definite.
    pub fn cholesky(&self) -> Option<Matrix> {
        assert_eq!(self.rows, self.cols, "cholesky requires a square matrix");
        let n = self.rows;
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return None;
                    }
                    l[(i, i)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Some(l)
    }

    /// Solves `A x = b` for symmetric positive-definite `A` via Cholesky.
    ///
    /// Returns `None` when the factorization fails.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree (`b` must be `n × 1`).
    pub fn solve_spd(&self, b: &Matrix) -> Option<Matrix> {
        assert_eq!(b.rows, self.rows, "rhs has wrong length");
        assert_eq!(b.cols, 1, "rhs must be a column vector");
        let l = self.cholesky()?;
        let n = self.rows;
        // Forward substitution: L y = b.
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[(i, 0)];
            for k in 0..i {
                sum -= l[(i, k)] * y[k];
            }
            y[i] = sum / l[(i, i)];
        }
        // Back substitution: Lᵀ x = y.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in (i + 1)..n {
                sum -= l[(k, i)] * x[k];
            }
            x[i] = sum / l[(i, i)];
        }
        Some(Matrix::column(&x))
    }

    /// Solves the general square system `A x = b` by Gaussian elimination
    /// with partial pivoting. Returns `None` for (near-)singular systems.
    ///
    /// # Panics
    ///
    /// Panics if `A` is not square or `b` has the wrong shape.
    pub fn solve(&self, b: &Matrix) -> Option<Matrix> {
        assert_eq!(self.rows, self.cols, "solve requires a square matrix");
        assert_eq!(b.rows, self.rows, "rhs has wrong length");
        let n = self.rows;
        let m = b.cols;
        let mut a = self.clone();
        let mut rhs = b.clone();
        for col in 0..n {
            // Partial pivot.
            let mut pivot = col;
            for r in (col + 1)..n {
                if a[(r, col)].abs() > a[(pivot, col)].abs() {
                    pivot = r;
                }
            }
            if a[(pivot, col)].abs() < 1e-13 {
                return None;
            }
            if pivot != col {
                for c in 0..n {
                    a.data.swap(col * n + c, pivot * n + c);
                }
                for c in 0..m {
                    rhs.data.swap(col * m + c, pivot * m + c);
                }
            }
            let d = a[(col, col)];
            for r in (col + 1)..n {
                let f = a[(r, col)] / d;
                if f == 0.0 {
                    continue;
                }
                for c in col..n {
                    let v = a[(col, c)];
                    a[(r, c)] -= f * v;
                }
                for c in 0..m {
                    let v = rhs[(col, c)];
                    rhs[(r, c)] -= f * v;
                }
            }
        }
        // Back substitution.
        let mut x = Matrix::zeros(n, m);
        for r in (0..n).rev() {
            for c in 0..m {
                let mut sum = rhs[(r, c)];
                for k in (r + 1)..n {
                    sum -= a[(r, k)] * x[(k, c)];
                }
                x[(r, c)] = sum / a[(r, r)];
            }
        }
        Some(x)
    }

    /// Matrix inverse via [`Matrix::solve`] against the identity; `None`
    /// when singular.
    pub fn inverse(&self) -> Option<Matrix> {
        self.solve(&Matrix::identity(self.rows))
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of {}x{}",
            self.rows,
            self.cols
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch in add"
        );
        let mut out = self.clone();
        for (o, r) in out.data.iter_mut().zip(&rhs.data) {
            *o += r;
        }
        out
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch in sub"
        );
        let mut out = self.clone();
        for (o, r) in out.data.iter_mut().zip(&rhs.data) {
            *o -= r;
        }
        out
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            write!(f, "[")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:9.4}", self[(r, c)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &Matrix, b: &Matrix, tol: f64) {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
        for r in 0..a.rows() {
            for c in 0..a.cols() {
                assert!(
                    (a[(r, c)] - b[(r, c)]).abs() <= tol,
                    "mismatch at ({r},{c}): {} vs {}",
                    a[(r, c)],
                    b[(r, c)]
                );
            }
        }
    }

    #[test]
    fn identity_matmul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_close(&a.matmul(&Matrix::identity(2)), &a, 1e-14);
        assert_close(&Matrix::identity(2).matmul(&a), &a, 1e-14);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = a.matmul(&b);
        let expect = Matrix::from_rows(&[&[58.0, 64.0], &[139.0, 154.0]]);
        assert_close(&c, &expect, 1e-12);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_twice_is_identity_op() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_close(&a.transpose().transpose(), &a, 0.0);
        assert_eq!(a.transpose().rows(), 3);
    }

    #[test]
    fn cholesky_of_spd() {
        // A = L0 L0ᵀ with a known L0.
        let l0 = Matrix::from_rows(&[&[2.0, 0.0, 0.0], &[0.5, 1.5, 0.0], &[-1.0, 0.25, 3.0]]);
        let a = l0.matmul(&l0.transpose());
        let l = a.cholesky().expect("SPD");
        assert_close(&l, &l0, 1e-12);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(a.cholesky().is_none());
    }

    #[test]
    fn solve_spd_roundtrip() {
        let l0 = Matrix::from_rows(&[&[3.0, 0.0], &[1.0, 2.0]]);
        let a = l0.matmul(&l0.transpose());
        let x_true = Matrix::column(&[1.5, -2.0]);
        let b = a.matmul(&x_true);
        let x = a.solve_spd(&b).expect("solvable");
        assert_close(&x, &x_true, 1e-10);
    }

    #[test]
    fn general_solve_roundtrip() {
        let a = Matrix::from_rows(&[&[0.0, 2.0, 1.0], &[1.0, -1.0, 0.5], &[3.0, 0.0, -2.0]]);
        let x_true = Matrix::column(&[0.5, -1.0, 2.5]);
        let b = a.matmul(&x_true);
        let x = a.solve(&b).expect("solvable");
        assert_close(&x, &x_true, 1e-10);
    }

    #[test]
    fn solve_singular_is_none() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(a.solve(&Matrix::column(&[1.0, 2.0])).is_none());
        assert!(a.inverse().is_none());
    }

    #[test]
    fn inverse_roundtrip() {
        let a = Matrix::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]);
        let inv = a.inverse().expect("invertible");
        assert_close(&a.matmul(&inv), &Matrix::identity(2), 1e-12);
    }

    #[test]
    fn block_get_set() {
        let mut a = Matrix::zeros(4, 4);
        let b = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        a.set_block(1, 2, &b);
        assert_close(&a.block(1, 2, 2, 2), &b, 0.0);
        assert_eq!(a[(0, 0)], 0.0);
        assert_eq!(a[(1, 2)], 1.0);
        assert_eq!(a[(2, 3)], 4.0);
    }

    #[test]
    #[should_panic(expected = "block out of range")]
    fn block_out_of_range_panics() {
        let a = Matrix::zeros(2, 2);
        let _ = a.block(1, 1, 2, 2);
    }

    #[test]
    fn symmetrize_works() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0], &[4.0, 1.0]]);
        a.symmetrize();
        assert_eq!(a[(0, 1)], 3.0);
        assert_eq!(a[(1, 0)], 3.0);
    }

    #[test]
    fn add_sub_scale() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[0.5, -1.0]]);
        assert_close(&(&a + &b), &Matrix::from_rows(&[&[1.5, 1.0]]), 1e-14);
        assert_close(&(&a - &b), &Matrix::from_rows(&[&[0.5, 3.0]]), 1e-14);
        assert_close(&a.scale(2.0), &Matrix::from_rows(&[&[2.0, 4.0]]), 1e-14);
    }

    #[test]
    fn add_diagonal_damps() {
        let a = Matrix::identity(3).add_diagonal(0.5);
        assert_eq!(a[(0, 0)], 1.5);
        assert_eq!(a[(0, 1)], 0.0);
    }

    #[test]
    fn frobenius_norm_known() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
    }
}
