//! Small dense square matrices over `f64`.
//!
//! Sized for Markov chains with a handful of states (the paper's chains have
//! three). Provides multiplication, powers and Gaussian elimination with
//! partial pivoting — enough to compute stationary distributions and
//! absorbing-chain quantities exactly, which in turn lets
//! the test-suite verify the paper's closed-form formulas against independent
//! linear-algebra derivations.

/// Errors produced by matrix routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixError {
    /// Dimensions do not match the operation.
    DimensionMismatch,
    /// The system is singular (or numerically so).
    Singular,
}

impl std::fmt::Display for MatrixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::DimensionMismatch => write!(f, "matrix dimension mismatch"),
            Self::Singular => write!(f, "singular matrix"),
        }
    }
}

impl std::error::Error for MatrixError {}

/// A dense `n × n` matrix in row-major order.
#[derive(Debug, Clone, PartialEq)]
pub struct SquareMatrix {
    n: usize,
    data: Vec<f64>,
}

impl SquareMatrix {
    /// Zero matrix of size `n`.
    #[must_use]
    fn zeros(n: usize) -> Self {
        assert!(n > 0, "matrix size must be positive");
        Self {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Identity matrix of size `n`.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from rows; every row must have length `rows.len()`.
    #[must_use]
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let n = rows.len();
        assert!(n > 0, "matrix size must be positive");
        let mut m = Self::zeros(n);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), n, "row {i} has wrong length");
            for (j, &x) in row.iter().enumerate() {
                m[(i, j)] = x;
            }
        }
        m
    }

    /// Matrix size.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Panics
    /// Panics on size mismatch.
    #[must_use]
    fn mul(&self, rhs: &Self) -> Self {
        assert_eq!(self.n, rhs.n, "size mismatch");
        let n = self.n;
        let mut out = Self::zeros(n);
        for i in 0..n {
            for k in 0..n {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
    }

    /// Row-vector–matrix product `v · self` (distribution step for a
    /// row-stochastic transition matrix).
    #[must_use]
    pub fn vec_mul(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.n, "size mismatch");
        (0..self.n)
            .map(|j| (0..self.n).map(|i| v[i] * self[(i, j)]).sum())
            .collect()
    }

    /// Matrix power by repeated squaring. `pow(0)` is the identity.
    #[must_use]
    pub fn pow(&self, mut e: u64) -> Self {
        let mut result = Self::identity(self.n);
        let mut base = self.clone();
        while e > 0 {
            if e & 1 == 1 {
                result = result.mul(&base);
            }
            base = base.mul(&base);
            e >>= 1;
        }
        result
    }

    /// The entries in row-major order.
    #[must_use]
    pub(crate) fn data(&self) -> &[f64] {
        &self.data
    }

    /// Solves `self · x = b` by Gaussian elimination with partial pivoting.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, MatrixError> {
        if b.len() != self.n {
            return Err(MatrixError::DimensionMismatch);
        }
        // Augmented working copy.
        let mut a = self.data.clone();
        let mut x = b.to_vec();
        solve_in_place(&mut a, &mut x)?;
        Ok(x)
    }
}

/// Solves `a · x = b` in place for the row-major `n × n` matrix `a` and
/// `x = b` of length `n`, by Gaussian elimination with partial pivoting;
/// `a` is left eliminated and `x` holds the solution.
///
/// The one elimination routine behind [`SquareMatrix::solve`] and every
/// stationary solve, the stack-resident 3×3 one of
/// [`crate::availability::AvailabilityChain::stationary`] included: all
/// run the same operations in the same order.
#[inline]
pub(crate) fn solve_in_place(a: &mut [f64], x: &mut [f64]) -> Result<(), MatrixError> {
    let n = x.len();
    debug_assert_eq!(a.len(), n * n, "matrix and right-hand side sizes differ");
    for col in 0..n {
        // Pivot: largest magnitude in this column at or below the diagonal.
        // `total_cmp` orders NaNs deterministically instead of
        // panicking (identical to `partial_cmp` on real pivots: `abs`
        // collapses the ±0.0 distinction); the range `col..n` is never
        // empty inside this loop, so the fallback row is unreachable.
        let pivot_row = (col..n)
            .max_by(|&r1, &r2| a[r1 * n + col].abs().total_cmp(&a[r2 * n + col].abs()))
            .unwrap_or(col);
        let pivot = a[pivot_row * n + col];
        if pivot.abs() < 1e-12 {
            return Err(MatrixError::Singular);
        }
        if pivot_row != col {
            for j in 0..n {
                a.swap(col * n + j, pivot_row * n + j);
            }
            x.swap(col, pivot_row);
        }
        for row in (col + 1)..n {
            let factor = a[row * n + col] / a[col * n + col];
            if factor == 0.0 {
                continue;
            }
            for j in col..n {
                a[row * n + j] -= factor * a[col * n + j];
            }
            x[row] -= factor * x[col];
        }
    }
    // Back substitution.
    for col in (0..n).rev() {
        let mut sum = x[col];
        for j in (col + 1)..n {
            sum -= a[col * n + j] * x[j];
        }
        x[col] = sum / a[col * n + col];
    }
    Ok(())
}

impl std::ops::Index<(usize, usize)> for SquareMatrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.n + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for SquareMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.n + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-10
    }

    /// Entry-wise maximum absolute difference.
    fn max_abs_diff(a: &SquareMatrix, b: &SquareMatrix) -> f64 {
        a.data()
            .iter()
            .zip(b.data())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let m = SquareMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let i = SquareMatrix::identity(2);
        assert_eq!(m.mul(&i), m);
        assert_eq!(i.mul(&m), m);
    }

    #[test]
    fn multiplication_known_product() {
        let a = SquareMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = SquareMatrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.mul(&b);
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let m = SquareMatrix::from_rows(&[vec![0.9, 0.1], vec![0.2, 0.8]]);
        let mut expect = SquareMatrix::identity(2);
        for _ in 0..7 {
            expect = expect.mul(&m);
        }
        assert!(max_abs_diff(&m.pow(7), &expect) < 1e-12);
        assert_eq!(m.pow(0), SquareMatrix::identity(2));
        assert!(max_abs_diff(&m.pow(1), &m) < 1e-15);
    }

    #[test]
    fn solve_known_system() {
        // x + 2y = 5 ; 3x + 4y = 11 -> x=1, y=2
        let m = SquareMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let x = m.solve(&[5.0, 11.0]).unwrap();
        assert!(close(x[0], 1.0));
        assert!(close(x[1], 2.0));
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero forces a row swap.
        let m = SquareMatrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let x = m.solve(&[3.0, 4.0]).unwrap();
        assert!(close(x[0], 4.0));
        assert!(close(x[1], 3.0));
    }

    #[test]
    fn solve_singular_errors() {
        let m = SquareMatrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert_eq!(m.solve(&[1.0, 2.0]), Err(MatrixError::Singular));
    }

    #[test]
    fn solve_dimension_mismatch_errors() {
        let m = SquareMatrix::identity(2);
        assert_eq!(m.solve(&[1.0]), Err(MatrixError::DimensionMismatch));
    }

    #[test]
    fn vec_mul_known_product() {
        let m = SquareMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.vec_mul(&[1.0, 1.0]), vec![4.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "row 1 has wrong length")]
    fn from_rows_rejects_ragged() {
        let _ = SquareMatrix::from_rows(&[vec![1.0, 2.0], vec![1.0]]);
    }
}
