//! Maximum-likelihood estimation of availability chains from traces.
//!
//! The heuristics of Section 6 assume the per-processor transition matrices
//! are known. In a deployment they must be estimated from observed state
//! traces (heartbeat history). This module provides the MLE (transition
//! counts, row-normalized) with optional Laplace smoothing for rows with few
//! observations — exactly what a production master would run over its
//! monitoring log before invoking the scheduler.

use crate::availability::{AvailabilityChain, ProcState};
use crate::chain::ChainError;

/// Transition counts accumulated from one or more traces.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransitionCounts {
    counts: [[u64; 3]; 3],
}

impl TransitionCounts {
    /// Empty counter.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds every consecutive pair of `trace` to the counts.
    pub fn observe_trace(&mut self, trace: &[ProcState]) {
        for w in trace.windows(2) {
            self.counts[w[0].index()][w[1].index()] += 1;
        }
    }

    /// Merges counts from another counter (e.g. traces of the same machine
    /// collected on different days).
    pub fn merge(&mut self, other: &Self) {
        for i in 0..3 {
            for j in 0..3 {
                self.counts[i][j] += other.counts[i][j];
            }
        }
    }

    /// Raw counts.
    #[must_use]
    pub fn raw(&self) -> &[[u64; 3]; 3] {
        &self.counts
    }

    /// Maximum-likelihood estimate with additive (Laplace) smoothing
    /// `alpha ≥ 0` per cell. `alpha = 0` is the pure MLE and fails with
    /// [`ChainError::NotStochastic`] if some state was never observed
    /// (its row would be 0/0).
    pub fn estimate(&self, alpha: f64) -> Result<AvailabilityChain, ChainError> {
        assert!(alpha >= 0.0, "smoothing must be non-negative");
        let mut p = [[0.0; 3]; 3];
        for i in 0..3 {
            let total: f64 = self.counts[i].iter().sum::<u64>() as f64 + 3.0 * alpha;
            if total <= 0.0 {
                return Err(ChainError::NotStochastic { row: i });
            }
            for j in 0..3 {
                p[i][j] = (self.counts[i][j] as f64 + alpha) / total;
            }
        }
        AvailabilityChain::new(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::availability::AvailabilityStream;
    use vg_des::rng::SeedPath;

    fn chain() -> AvailabilityChain {
        AvailabilityChain::new([[0.92, 0.05, 0.03], [0.10, 0.85, 0.05], [0.04, 0.02, 0.94]])
            .unwrap()
    }

    #[test]
    fn counts_from_trace() {
        use ProcState::{Down as D, Reclaimed as R, Up as U};
        let mut c = TransitionCounts::new();
        c.observe_trace(&[U, U, R, U, D]);
        assert_eq!(c.raw()[U.index()][U.index()], 1);
        assert_eq!(c.raw()[U.index()][R.index()], 1);
        assert_eq!(c.raw()[R.index()][U.index()], 1);
        assert_eq!(c.raw()[U.index()][D.index()], 1);
        assert_eq!(c.raw()[U.index()].iter().sum::<u64>(), 3);
        assert_eq!(c.raw()[D.index()].iter().sum::<u64>(), 0);
    }

    #[test]
    fn short_traces_do_not_count() {
        let mut c = TransitionCounts::new();
        c.observe_trace(&[]);
        c.observe_trace(&[ProcState::Up]);
        assert_eq!(c, TransitionCounts::new());
    }

    #[test]
    fn mle_recovers_generating_chain() {
        let c = chain();
        let mut stream =
            AvailabilityStream::new(c.clone(), ProcState::Up, SeedPath::root(21).rng());
        let trace = stream.take_vec(500_000);
        let mut counts = TransitionCounts::new();
        counts.observe_trace(&trace);
        let est = counts.estimate(0.0).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!(
                    (est.raw()[i][j] - c.raw()[i][j]).abs() < 0.01,
                    "P[{i}][{j}]: {} vs {}",
                    est.raw()[i][j],
                    c.raw()[i][j]
                );
            }
        }
    }

    #[test]
    fn pure_mle_fails_on_unseen_state() {
        use ProcState::Up as U;
        let mut c = TransitionCounts::new();
        c.observe_trace(&[U, U, U]);
        assert!(c.estimate(0.0).is_err()); // RECLAIMED and DOWN rows unseen
    }

    #[test]
    fn smoothing_fills_unseen_rows_uniformly() {
        use ProcState::Up as U;
        let mut c = TransitionCounts::new();
        c.observe_trace(&[U, U, U]);
        let est = c.estimate(1.0).unwrap();
        // Unseen rows become uniform.
        for j in 0..3 {
            assert!((est.raw()[1][j] - 1.0 / 3.0).abs() < 1e-12);
            assert!((est.raw()[2][j] - 1.0 / 3.0).abs() < 1e-12);
        }
        // Seen row is pulled toward uniform but dominated by data.
        assert!(est.raw()[0][0] > 0.5);
    }

    #[test]
    fn merge_equals_joint_observation() {
        use ProcState::{Reclaimed as R, Up as U};
        let mut a = TransitionCounts::new();
        a.observe_trace(&[U, R, U]);
        let mut b = TransitionCounts::new();
        b.observe_trace(&[R, R, U, U]);
        let mut merged = a.clone();
        merged.merge(&b);

        let mut joint = TransitionCounts::new();
        joint.observe_trace(&[U, R, U]);
        joint.observe_trace(&[R, R, U, U]);
        assert_eq!(merged, joint);
    }

    #[test]
    fn estimate_rows_are_stochastic() {
        let mut c = TransitionCounts::new();
        c.observe_trace(&[ProcState::Up, ProcState::Down, ProcState::Down]);
        c.observe_trace(&[ProcState::Reclaimed, ProcState::Up]);
        let est = c.estimate(0.5).unwrap();
        for i in 0..3 {
            let sum: f64 = est.raw()[i].iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
    }
}
