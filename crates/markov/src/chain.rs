//! Generic finite Markov chains in discrete time.
//!
//! Provides validation, stationary distributions (direct linear solve plus a
//! power-iteration cross-check), reachability analysis and absorption
//! probabilities. The 3-state availability model of the
//! paper ([`crate::availability`]) is a specialization; keeping the generic
//! machinery separate lets the test-suite verify every closed form of the
//! paper's Section 5 against an independent derivation.

use crate::matrix::{solve_in_place, MatrixError, SquareMatrix};

/// Errors for chain construction and analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum ChainError {
    /// A row does not sum to 1 (within tolerance) or has entries outside `[0, 1]`.
    NotStochastic {
        /// Offending row.
        row: usize,
    },
    /// The requested quantity needs an irreducible chain.
    Reducible,
    /// Underlying linear-algebra failure.
    Matrix(MatrixError),
    /// The target state set is empty or out of range.
    BadTargetSet,
}

impl std::fmt::Display for ChainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NotStochastic { row } => write!(f, "row {row} is not a probability vector"),
            Self::Reducible => write!(f, "chain is not irreducible"),
            Self::Matrix(e) => write!(f, "linear algebra failed: {e}"),
            Self::BadTargetSet => write!(f, "invalid target state set"),
        }
    }
}

impl std::error::Error for ChainError {}

impl From<MatrixError> for ChainError {
    fn from(e: MatrixError) -> Self {
        Self::Matrix(e)
    }
}

/// A discrete-time Markov chain over states `0..n` with row-stochastic
/// transition matrix `P`, `P[i][j] = Pr(X_{t+1}=j | X_t=i)`.
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovChain {
    p: SquareMatrix,
}

/// Tolerance for stochasticity validation.
const ROW_SUM_TOL: f64 = 1e-9;

impl MarkovChain {
    /// Builds a chain from a transition matrix, validating stochasticity.
    pub fn new(p: SquareMatrix) -> Result<Self, ChainError> {
        for i in 0..p.n() {
            let mut sum = 0.0;
            for j in 0..p.n() {
                let x = p[(i, j)];
                if !(0.0..=1.0 + ROW_SUM_TOL).contains(&x) || x.is_nan() {
                    return Err(ChainError::NotStochastic { row: i });
                }
                sum += x;
            }
            if (sum - 1.0).abs() > ROW_SUM_TOL {
                return Err(ChainError::NotStochastic { row: i });
            }
        }
        Ok(Self { p })
    }

    /// Builds from row slices (convenience for tests and examples).
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, ChainError> {
        Self::new(SquareMatrix::from_rows(rows))
    }

    /// Number of states.
    #[must_use]
    pub fn n(&self) -> usize {
        self.p.n()
    }

    /// The transition matrix.
    #[must_use]
    pub fn matrix(&self) -> &SquareMatrix {
        &self.p
    }

    /// Transition probability `i -> j`.
    #[must_use]
    pub fn prob(&self, i: usize, j: usize) -> f64 {
        self.p[(i, j)]
    }

    /// One step of distribution evolution: `dist · P`.
    #[must_use]
    pub(crate) fn step_distribution(&self, dist: &[f64]) -> Vec<f64> {
        self.p.vec_mul(dist)
    }

    /// States reachable from `start` (including itself) following positive-
    /// probability edges.
    #[must_use]
    fn reachable_from(&self, start: usize) -> Vec<bool> {
        let n = self.n();
        let mut seen = vec![false; n];
        let mut stack = vec![start];
        seen[start] = true;
        while let Some(i) = stack.pop() {
            for j in 0..n {
                if self.p[(i, j)] > 0.0 && !seen[j] {
                    seen[j] = true;
                    stack.push(j);
                }
            }
        }
        seen
    }

    /// True if every state reaches every other state.
    #[must_use]
    pub fn is_irreducible(&self) -> bool {
        (0..self.n()).all(|i| self.reachable_from(i).iter().all(|&r| r))
    }

    /// Stationary distribution `π` with `π P = π`, `Σ π = 1`, by direct
    /// linear solve (replace one balance equation by the normalization).
    ///
    /// Requires irreducibility (otherwise the stationary distribution is not
    /// unique and the solve may fail or return one of many).
    pub fn stationary(&self) -> Result<Vec<f64>, ChainError> {
        if !self.is_irreducible() {
            return Err(ChainError::Reducible);
        }
        let n = self.n();
        let mut a = vec![0.0; n * n];
        let mut pi = vec![0.0; n];
        solve_stationary(self.p.data(), &mut a, &mut pi)?;
        Ok(pi)
    }

    /// Stationary distribution by power iteration — used as a cross-check of
    /// [`Self::stationary`]. Converges for aperiodic irreducible chains.
    #[must_use]
    pub fn stationary_power(&self, tol: f64, max_iters: usize) -> Vec<f64> {
        let n = self.n();
        let mut dist = vec![1.0 / n as f64; n];
        for _ in 0..max_iters {
            let next = self.step_distribution(&dist);
            let diff: f64 = next.iter().zip(&dist).map(|(a, b)| (a - b).abs()).sum();
            dist = next;
            if diff < tol {
                break;
            }
        }
        dist
    }

    /// Probability, from each state, of reaching a state in `good` before
    /// any state in `bad` (states in `good` map to 1, in `bad` to 0).
    ///
    /// `good` and `bad` must be disjoint and non-empty.
    // tidy:allow(dead_pub): availability::tests::lemma1_p_plus_matches_absorption_probability derives Lemma 1 through it
    pub fn absorption_probability(
        &self,
        good: &[usize],
        bad: &[usize],
    ) -> Result<Vec<f64>, ChainError> {
        let n = self.n();
        if good.is_empty()
            || bad.is_empty()
            || good.iter().chain(bad).any(|&t| t >= n)
            || good.iter().any(|g| bad.contains(g))
        {
            return Err(ChainError::BadTargetSet);
        }
        let mut class = vec![0u8; n]; // 0 = transient, 1 = good, 2 = bad
        for &g in good {
            class[g] = 1;
        }
        for &b in bad {
            class[b] = 2;
        }
        let transient: Vec<usize> = (0..n).filter(|&i| class[i] == 0).collect();
        let mut out = vec![0.0; n];
        for &g in good {
            out[g] = 1.0;
        }
        if transient.is_empty() {
            return Ok(out);
        }
        let m = transient.len();
        // (I − Q) x = R·1_good  restricted to transient states.
        let mut a = SquareMatrix::identity(m);
        let mut b = vec![0.0; m];
        for (r, &i) in transient.iter().enumerate() {
            for (c, &j) in transient.iter().enumerate() {
                a[(r, c)] -= self.p[(i, j)];
            }
            for &g in good {
                b[r] += self.p[(i, g)];
            }
        }
        let x = a.solve(&b)?;
        for (r, &i) in transient.iter().enumerate() {
            out[i] = x[r];
        }
        Ok(out)
    }
}

/// The direct stationary solve of the row-major `n × n` transition matrix
/// `p` (irreducibility is the caller's check), written into `pi` of
/// length `n` with `a` (`n × n`) as elimination scratch.
///
/// Shared by [`MarkovChain::stationary`] (heap scratch) and the 3×3
/// [`crate::availability::AvailabilityChain::stationary`] (stack scratch),
/// so both paths compute bit-identical distributions.
#[inline]
pub(crate) fn solve_stationary(
    p: &[f64],
    a: &mut [f64],
    pi: &mut [f64],
) -> Result<(), MatrixError> {
    let n = pi.len();
    // (P^T − I) π = 0 with the last row replaced by Σ π = 1.
    for i in 0..n {
        for j in 0..n {
            a[j * n + i] = p[i * n + j];
        }
    }
    for i in 0..n {
        a[i * n + i] -= 1.0;
    }
    a[(n - 1) * n..].fill(1.0);
    pi.fill(0.0);
    pi[n - 1] = 1.0;
    solve_in_place(a, pi)?;
    // Clean tiny negative round-off and renormalize.
    for x in pi.iter_mut() {
        if *x < 0.0 {
            debug_assert!(*x > -1e-9, "stationary solve produced {x}");
            *x = 0.0;
        }
    }
    let sum: f64 = pi.iter().sum();
    for x in pi.iter_mut() {
        *x /= sum;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_state() -> MarkovChain {
        MarkovChain::from_rows(&[vec![0.9, 0.1], vec![0.4, 0.6]]).unwrap()
    }

    #[test]
    fn rejects_non_stochastic_rows() {
        assert!(matches!(
            MarkovChain::from_rows(&[vec![0.5, 0.4], vec![0.5, 0.5]]),
            Err(ChainError::NotStochastic { row: 0 })
        ));
        assert!(matches!(
            MarkovChain::from_rows(&[vec![1.2, -0.2], vec![0.5, 0.5]]),
            Err(ChainError::NotStochastic { row: 0 })
        ));
    }

    #[test]
    fn stationary_two_state_closed_form() {
        // π_0 = q/(p+q) with p = P01, q = P10.
        let c = two_state();
        let pi = c.stationary().unwrap();
        assert!((pi[0] - 0.8).abs() < 1e-12);
        assert!((pi[1] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn stationary_is_fixed_point() {
        let c = two_state();
        let pi = c.stationary().unwrap();
        let stepped = c.step_distribution(&pi);
        for (a, b) in pi.iter().zip(&stepped) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn stationary_power_agrees_with_solve() {
        let c = MarkovChain::from_rows(&[
            vec![0.5, 0.25, 0.25],
            vec![0.1, 0.8, 0.1],
            vec![0.3, 0.3, 0.4],
        ])
        .unwrap();
        let direct = c.stationary().unwrap();
        let power = c.stationary_power(1e-14, 100_000);
        for (a, b) in direct.iter().zip(&power) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn reducible_chain_detected() {
        let c = MarkovChain::from_rows(&[vec![1.0, 0.0], vec![0.5, 0.5]]).unwrap();
        assert!(!c.is_irreducible());
        assert_eq!(c.stationary(), Err(ChainError::Reducible));
    }

    #[test]
    fn reachability() {
        let c = MarkovChain::from_rows(&[
            vec![0.5, 0.5, 0.0],
            vec![0.0, 0.5, 0.5],
            vec![0.0, 0.0, 1.0],
        ])
        .unwrap();
        assert_eq!(c.reachable_from(0), vec![true, true, true]);
        assert_eq!(c.reachable_from(2), vec![false, false, true]);
    }

    #[test]
    fn absorption_probability_gambler() {
        // States 0..=4, absorbing at 0 and 4, fair coin: from i, P(hit 4 first) = i/4.
        let rows = vec![
            vec![1.0, 0.0, 0.0, 0.0, 0.0],
            vec![0.5, 0.0, 0.5, 0.0, 0.0],
            vec![0.0, 0.5, 0.0, 0.5, 0.0],
            vec![0.0, 0.0, 0.5, 0.0, 0.5],
            vec![0.0, 0.0, 0.0, 0.0, 1.0],
        ];
        let c = MarkovChain::from_rows(&rows).unwrap();
        let probs = c.absorption_probability(&[4], &[0]).unwrap();
        for i in 0..=4 {
            assert!((probs[i] - i as f64 / 4.0).abs() < 1e-10, "state {i}");
        }
    }

    #[test]
    fn absorption_rejects_overlapping_sets() {
        let c = two_state();
        assert_eq!(
            c.absorption_probability(&[0], &[0]),
            Err(ChainError::BadTargetSet)
        );
    }
}
