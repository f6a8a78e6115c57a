use crate::LinalgError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Sub};

/// A dense, row-major matrix of `f64` values.
///
/// `Matrix` is the workhorse behind the neural-network tensors and the
/// Gaussian-process covariance matrices. It intentionally keeps a small API
/// surface: construction, element access, and the handful of algebraic
/// operations the rest of the workspace needs.
///
/// # Examples
///
/// ```
/// use gcnrl_linalg::Matrix;
///
/// # fn main() -> Result<(), gcnrl_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b)?;
/// assert_eq!(c[(1, 0)], 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        m.data.fill(value);
        m
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` for every entry.
    ///
    /// Entries are visited row by row, columns ascending, so a stateful `f`
    /// (a seeded generator, say) fills the same matrix on every call.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for (r, row) in m.data.chunks_exact_mut(cols).enumerate() {
            for (c, x) in row.iter_mut().enumerate() {
                *x = f(r, c);
            }
        }
        m
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidDimensions`] if `rows` is empty, a row is
    /// empty, or the rows have different lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(LinalgError::InvalidDimensions {
                reason: "matrix must have at least one row and one column",
            });
        }
        let cols = rows[0].len();
        if rows.iter().any(|r| r.len() != cols) {
            return Err(LinalgError::InvalidDimensions {
                reason: "all rows must have the same length",
            });
        }
        let mut m = Matrix::zeros(rows.len(), cols);
        for (i, row) in rows.iter().enumerate() {
            m.data[i * cols..(i + 1) * cols].copy_from_slice(row);
        }
        Ok(m)
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidDimensions`] if `data.len() != rows * cols`
    /// or either dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if rows == 0 || cols == 0 {
            return Err(LinalgError::InvalidDimensions {
                reason: "matrix dimensions must be non-zero",
            });
        }
        if data.len() != rows * cols {
            return Err(LinalgError::InvalidDimensions {
                reason: "data length must equal rows * cols",
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a column vector (an `n x 1` matrix) from a slice.
    pub fn column(values: &[f64]) -> Self {
        let mut m = Matrix::zeros(values.len().max(1), 1);
        for (i, v) in values.iter().enumerate() {
            m[(i, 0)] = *v;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow the underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow one row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow one row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy one column into a new `Vec`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "column index out of bounds");
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for (r, row) in self.data.chunks_exact(self.cols).enumerate() {
            for (c, &x) in row.iter().enumerate() {
                out.data[c * self.rows + r] = x;
            }
        }
        out
    }

    /// Matrix product `self * rhs`.
    ///
    /// Every output element sums its products in ascending inner index from
    /// `+0.0`, one rounding per multiply and one per add (no fused
    /// multiply-add), skipping terms whose left factor is zero, which leaves
    /// a finite sum unchanged. The result is bit-identical to the naive
    /// triple loop; register blocking only changes which elements are
    /// computed together.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        gemm::<true>(self.into(), rhs.into(), 0.0, &mut out.data);
        Ok(out)
    }

    /// Block-diagonal product: left-multiplies every `self.cols()`-row block
    /// of `rhs` by `self` and stacks the results.
    ///
    /// With `rhs` holding `B` matrices of `self.cols()` rows one above the
    /// other, block `k` of the result is `self * rhs_k`, bit-identical to
    /// [`Matrix::matmul`] on that block alone.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `rhs.rows()` is not a
    /// multiple of `self.cols()`.
    pub fn matmul_row_blocks(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if !rhs.rows.is_multiple_of(self.cols) {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_row_blocks",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let blocks = rhs.rows / self.cols;
        let mut out = Matrix::zeros(self.rows * blocks, rhs.cols);
        for (block, out_block) in rhs
            .data
            .chunks_exact(self.cols * rhs.cols)
            .zip(out.data.chunks_exact_mut(self.rows * rhs.cols))
        {
            let block = MatRef {
                data: block,
                rows: self.cols,
                cols: rhs.cols,
            };
            gemm::<true>(self.into(), block, 0.0, out_block);
        }
        Ok(out)
    }

    /// Matrix product `self^T * rhs`.
    ///
    /// Accumulates like [`Matrix::matmul`]: ascending inner index (the
    /// shared row index) from `+0.0`, zero left factors skipped. `self` is
    /// transposed once (`rows x cols` copies against `rows x cols x
    /// rhs.cols()` multiply-adds) so the kernel reads both operands by row.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.rows() != rhs.rows()`.
    pub fn matmul_transa(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if self.rows != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_transa",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        gemm::<true>((&self.transpose()).into(), rhs.into(), 0.0, &mut out.data);
        Ok(out)
    }

    /// Matrix product `self * rhs^T`.
    ///
    /// Every output element is the dot product of a row of `self` and a row
    /// of `rhs` summed like `Iterator::sum`: from `-0.0`, ascending inner
    /// index, no terms skipped. `rhs` is transposed once so the kernel runs
    /// as an axpy over the inner index.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != rhs.cols()`.
    pub fn matmul_transb(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != rhs.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_transb",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        gemm::<false>(self.into(), (&rhs.transpose()).into(), -0.0, &mut out.data);
        Ok(out)
    }

    /// Matrix–vector product `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if v.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        Ok((0..self.rows)
            .map(|r| self.row(r).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// Element-wise sum.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the shapes differ.
    pub fn add_elem(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Element-wise difference.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the shapes differ.
    pub fn sub_elem(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the shapes differ.
    pub fn hadamard(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        self.zip_with(rhs, "hadamard", |a, b| a * b)
    }

    fn zip_with(
        &self,
        rhs: &Matrix,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Matrix, LinalgError> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| f(*a, *b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Multiply every element by `s`.
    pub fn scaled(&self, s: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| v * s).collect(),
        }
    }

    /// Apply `f` element-wise, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| f(*v)).collect(),
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute value of any element.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, v| m.max(v.abs()))
    }

    /// Returns `true` if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }
}

/// Output rows a GEMM tile keeps in registers. Three rows of `TILE_COLS`
/// accumulators take twelve of the sixteen SSE2 registers of the x86-64
/// baseline; on the agent's `n x 64` shapes two and three rows measure
/// level, and four rows spill.
const TILE_ROWS: usize = 3;
/// Output columns a GEMM tile keeps in registers.
const TILE_COLS: usize = 8;

/// A borrowed row-major GEMM operand.
#[derive(Clone, Copy)]
struct MatRef<'a> {
    data: &'a [f64],
    rows: usize,
    cols: usize,
}

impl<'a> From<&'a Matrix> for MatRef<'a> {
    fn from(m: &'a Matrix) -> Self {
        MatRef {
            data: &m.data,
            rows: m.rows,
            cols: m.cols,
        }
    }
}

/// `out[i][j] = init + sum_k lhs[i][k] * rhs[k][j]`, written row-major.
///
/// Each output element starts at `init` and adds `lhs[i][k] * rhs[k][j]`
/// for `k` ascending, one rounding per multiply and one per add. With
/// `SKIP_ZERO`, a term whose `lhs[i][k]` is zero is skipped. Tiles of
/// `TILE_ROWS x TILE_COLS` accumulators stay in registers across the whole
/// `k` loop; tiling never changes an element's order of operations.
fn gemm<const SKIP_ZERO: bool>(lhs: MatRef<'_>, rhs: MatRef<'_>, init: f64, out: &mut [f64]) {
    debug_assert_eq!(lhs.cols, rhs.rows);
    debug_assert_eq!(out.len(), lhs.rows * rhs.cols);
    let mut i = 0;
    while i + TILE_ROWS <= lhs.rows {
        tile_row::<TILE_ROWS, SKIP_ZERO>(lhs, rhs, init, out, i);
        i += TILE_ROWS;
    }
    while i < lhs.rows {
        tile_row::<1, SKIP_ZERO>(lhs, rhs, init, out, i);
        i += 1;
    }
}

/// Output rows `i0..i0 + R` of [`gemm`], tile by tile across the columns.
fn tile_row<const R: usize, const SKIP_ZERO: bool>(
    lhs: MatRef<'_>,
    rhs: MatRef<'_>,
    init: f64,
    out: &mut [f64],
    i0: usize,
) {
    let mut j = 0;
    while j + TILE_COLS <= rhs.cols {
        tile::<R, TILE_COLS, SKIP_ZERO>(lhs, rhs, init, out, i0, j);
        j += TILE_COLS;
    }
    while j < rhs.cols {
        tile::<R, 1, SKIP_ZERO>(lhs, rhs, init, out, i0, j);
        j += 1;
    }
}

/// One `R x C` output tile of [`gemm`] at `(i0, j0)`.
#[inline(always)]
fn tile<const R: usize, const C: usize, const SKIP_ZERO: bool>(
    lhs: MatRef<'_>,
    rhs: MatRef<'_>,
    init: f64,
    out: &mut [f64],
    i0: usize,
    j0: usize,
) {
    let depth = lhs.cols;
    let mut acc = [[init; C]; R];
    let mut b = [0.0; C];
    for k in 0..depth {
        let start = k * rhs.cols + j0;
        b.copy_from_slice(&rhs.data[start..start + C]);
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let a = lhs.data[(i0 + r) * depth + k];
            if SKIP_ZERO && a == 0.0 {
                continue;
            }
            for c in 0..C {
                acc_row[c] += a * b[c];
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        let start = (i0 + r) * rhs.cols + j0;
        out[start..start + C].copy_from_slice(acc_row);
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        self.add_elem(rhs).expect("matrix addition shape mismatch")
    }
}

impl AddAssign<&Matrix> for Matrix {
    /// Element-wise `self += rhs`, in place.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "matrix addition shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        self.sub_elem(rhs)
            .expect("matrix subtraction shape mismatch")
    }
}

impl Mul for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs)
            .expect("matrix multiplication shape mismatch")
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:10.4e}", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert_eq!(z.sum(), 0.0);

        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i.sum(), 3.0);
    }

    #[test]
    fn from_rows_validates() {
        assert!(Matrix::from_rows(&[]).is_err());
        assert!(Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]).is_err());
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m[(1, 1)], 4.0);
    }

    #[test]
    fn from_vec_validates() {
        assert!(Matrix::from_vec(0, 1, vec![]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn transposed_products_match_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |r, c| ((r * 5 + c * 3) % 7) as f64 - 2.0);
        let b = Matrix::from_fn(4, 2, |r, c| ((r + 2 * c) % 5) as f64 * 0.5);
        assert_eq!(
            a.matmul_transa(&b).unwrap(),
            a.transpose().matmul(&b).unwrap()
        );
        let c = Matrix::from_fn(5, 3, |r, c| (r as f64 - c as f64) * 0.25);
        assert_eq!(
            a.matmul_transb(&c).unwrap(),
            a.matmul(&c.transpose()).unwrap()
        );
        assert!(a.matmul_transa(&c).is_err());
        assert!(a.matmul_transb(&b).is_err());
    }

    #[test]
    fn matvec_works() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let y = a.matvec(&[1.0, 1.0]).unwrap();
        assert_eq!(y, vec![3.0, 7.0]);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 2, |r, c| (r * 10 + c) as f64);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(1, 2)], a[(2, 1)]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::filled(2, 2, 3.0);
        let b = Matrix::filled(2, 2, 2.0);
        assert_eq!(a.add_elem(&b).unwrap()[(0, 0)], 5.0);
        assert_eq!(a.sub_elem(&b).unwrap()[(0, 0)], 1.0);
        assert_eq!(a.hadamard(&b).unwrap()[(0, 0)], 6.0);
        assert_eq!(a.scaled(2.0)[(1, 1)], 6.0);
        assert_eq!(a.map(|v| v * v)[(0, 1)], 9.0);
    }

    #[test]
    fn norms() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]).unwrap();
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(a.max_abs(), 4.0);
        assert!(!a.has_non_finite());
        let b = Matrix::from_rows(&[&[f64::NAN]]).unwrap();
        assert!(b.has_non_finite());
    }

    #[test]
    fn operator_overloads() {
        let a = Matrix::identity(2);
        let b = Matrix::identity(2);
        assert_eq!((&a + &b)[(0, 0)], 2.0);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c, &a + &b);
        assert_eq!((&a - &b)[(0, 0)], 0.0);
        assert_eq!((&a * &b), a);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let a = Matrix::zeros(2, 2);
        let _ = a[(2, 0)];
    }

    #[test]
    fn implements_serde_traits() {
        fn assert_serde<T: serde::Serialize + for<'de> serde::Deserialize<'de>>() {}
        assert_serde::<Matrix>();
    }
}
