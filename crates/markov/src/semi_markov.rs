//! Semi-Markov availability processes (non-memoryless sojourns).
//!
//! The paper's conclusion (Section 8) names the Markov assumption as its main
//! threat to validity and proposes studying stochastic models with realistic
//! (Weibull / log-normal) interval durations. A semi-Markov process keeps the
//! *embedded* jump chain (which state follows which) but draws the sojourn
//! time in each state from an arbitrary positive distribution.
//!
//! With geometric sojourns the process reduces exactly to the Markov model —
//! [`SemiMarkovModel::from_markov`] performs that conversion and the tests
//! verify the equivalence, which pins the semantics of both implementations.

use crate::availability::{AvailabilityChain, ProcState};
use crate::dist::SojournDist;
use serde::{Deserialize, Serialize};
use vg_des::rng::StreamRng;

/// A 3-state semi-Markov availability model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SemiMarkovModel {
    /// Embedded jump probabilities: `jump[i][j]` is the probability that the
    /// next state is `j` given a sojourn in `i` just ended. Diagonal must be
    /// zero; rows must sum to 1.
    jump: [[f64; 3]; 3],
    /// Sojourn-time distribution for each state (order `u, r, d`).
    sojourn: [SojournDist; 3],
}

/// Validation error for semi-Markov models.
#[derive(Debug, Clone, PartialEq)]
pub struct SemiMarkovError(pub String);

impl std::fmt::Display for SemiMarkovError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid semi-Markov model: {}", self.0)
    }
}

impl std::error::Error for SemiMarkovError {}

impl SemiMarkovModel {
    /// Builds and validates a model.
    pub fn new(jump: [[f64; 3]; 3], sojourn: [SojournDist; 3]) -> Result<Self, SemiMarkovError> {
        for (i, row) in jump.iter().enumerate() {
            if row[i] != 0.0 {
                return Err(SemiMarkovError(format!(
                    "jump matrix diagonal must be zero (row {i})"
                )));
            }
            let sum: f64 = row.iter().sum();
            if (sum - 1.0).abs() > 1e-9 || row.iter().any(|&x| !(0.0..=1.0).contains(&x)) {
                return Err(SemiMarkovError(format!("jump row {i} is not stochastic")));
            }
        }
        for (i, d) in sojourn.iter().enumerate() {
            d.validate()
                .map_err(|e| SemiMarkovError(format!("sojourn for state {i}: {e}")))?;
        }
        Ok(Self { jump, sojourn })
    }

    /// Converts a Markov [`AvailabilityChain`] into the equivalent
    /// semi-Markov model: geometric sojourns with exit probability
    /// `1 − P_{x,x}` and embedded jumps `P_{x,y} / (1 − P_{x,x})`.
    ///
    /// Requires every self-loop probability to be `< 1` (no absorbing state).
    // tidy:allow(dead_pub): tests::geometric_semi_markov_matches_markov_statistics checks the semi-Markov sampler against Markov chains through it
    pub fn from_markov(chain: &AvailabilityChain) -> Result<Self, SemiMarkovError> {
        let p = chain.raw();
        let mut jump = [[0.0; 3]; 3];
        let mut sojourn = [
            SojournDist::Deterministic { t: 1 },
            SojournDist::Deterministic { t: 1 },
            SojournDist::Deterministic { t: 1 },
        ];
        for i in 0..3 {
            let stay = p[i][i];
            let exit = 1.0 - stay;
            if exit <= 0.0 {
                return Err(SemiMarkovError(format!("state {i} is absorbing")));
            }
            for j in 0..3 {
                if i != j {
                    jump[i][j] = p[i][j] / exit;
                }
            }
            sojourn[i] = SojournDist::Geometric { p: exit };
        }
        Self::new(jump, sojourn)
    }

    /// Sojourn distributions (order `u, r, d`).
    #[must_use]
    // tidy:allow(dead_pub): vg-exp's robustness::tests::desktop_model_mean_matches_request reads the UP law it built
    pub fn sojourn(&self) -> &[SojournDist; 3] {
        &self.sojourn
    }

    /// Long-run fraction of time in each state:
    /// `π_i ∝ ν_i · E[sojourn_i]` where `ν` is the stationary distribution of
    /// the embedded jump chain (mean sojourns use [`SojournDist::approx_mean`]).
    #[must_use]
    pub fn occupancy(&self) -> [f64; 3] {
        // Stationary distribution of the embedded chain by *damped* power
        // iteration: ν ← (ν + νJ)/2. The damping keeps the same fixed point
        // but converges even for periodic embedded chains (a zero-diagonal
        // 2-cycle is periodic, and undamped iteration would oscillate).
        let mut nu = [1.0 / 3.0; 3];
        for _ in 0..100_000 {
            let mut next = [0.0; 3];
            for i in 0..3 {
                for j in 0..3 {
                    next[j] += nu[i] * self.jump[i][j];
                }
            }
            let mut diff = 0.0;
            for i in 0..3 {
                next[i] = 0.5 * (next[i] + nu[i]);
                diff += (next[i] - nu[i]).abs();
            }
            nu = next;
            if diff < 1e-14 {
                break;
            }
        }
        let mut occ = [0.0; 3];
        let mut total = 0.0;
        for i in 0..3 {
            occ[i] = nu[i] * self.sojourn[i].approx_mean();
            total += occ[i];
        }
        for o in &mut occ {
            *o /= total;
        }
        occ
    }

    /// Samples the next state after leaving `from`.
    #[must_use]
    fn sample_jump(&self, from: ProcState, rng: &mut StreamRng) -> ProcState {
        let row = &self.jump[from.index()];
        let mut u = rng.f64();
        for (j, &p) in row.iter().enumerate() {
            if u < p {
                return ProcState::from_index(j);
            }
            u -= p;
        }
        ProcState::from_index(row.iter().rposition(|&p| p > 0.0).unwrap_or(0))
    }
}

/// Endless per-slot state stream driven by a semi-Markov model.
///
/// Mirrors [`crate::availability::AvailabilityStream`] so the simulator can
/// consume either through the same interface.
#[derive(Debug, Clone)]
pub struct SemiMarkovStream {
    model: SemiMarkovModel,
    state: ProcState,
    /// Slots remaining in the current sojourn (including the next emitted).
    remaining: u64,
    rng: StreamRng,
}

impl SemiMarkovStream {
    /// Creates a stream starting a fresh sojourn in `start`.
    #[must_use]
    pub fn new(model: SemiMarkovModel, start: ProcState, mut rng: StreamRng) -> Self {
        let remaining = model.sojourn[start.index()].sample(&mut rng);
        Self {
            model,
            state: start,
            remaining,
            rng,
        }
    }

    /// Emits the state for the next slot.
    pub fn next_state(&mut self) -> ProcState {
        debug_assert!(self.remaining >= 1);
        let out = self.state;
        self.remaining -= 1;
        if self.remaining == 0 {
            self.state = self.model.sample_jump(self.state, &mut self.rng);
            self.remaining = self.model.sojourn[self.state.index()].sample(&mut self.rng);
        }
        out
    }

    /// Emits `len` states into a vector.
    pub fn take_vec(&mut self, len: usize) -> Vec<ProcState> {
        (0..len).map(|_| self.next_state()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_des::rng::SeedPath;

    /// A BOINC-style desktop model: heavy-tailed Weibull `UP` stretches,
    /// log-normal `RECLAIMED` interruptions, rare long `DOWN` repairs.
    fn desktop_model(scale_up: f64) -> SemiMarkovModel {
        SemiMarkovModel::new(
            [[0.0, 0.85, 0.15], [0.9, 0.0, 0.1], [1.0, 0.0, 0.0]],
            [
                SojournDist::Weibull {
                    scale: scale_up,
                    shape: 0.7,
                },
                SojournDist::LogNormal {
                    mu: 2.0,
                    sigma: 0.8,
                },
                SojournDist::Weibull {
                    scale: 4.0 * scale_up,
                    shape: 1.0,
                },
            ],
        )
        .unwrap()
    }

    fn markov_chain() -> AvailabilityChain {
        AvailabilityChain::new([[0.92, 0.05, 0.03], [0.10, 0.85, 0.05], [0.04, 0.02, 0.94]])
            .unwrap()
    }

    #[test]
    fn rejects_nonzero_diagonal() {
        let bad = SemiMarkovModel::new(
            [[0.1, 0.8, 0.1], [0.9, 0.0, 0.1], [1.0, 0.0, 0.0]],
            [
                SojournDist::Deterministic { t: 1 },
                SojournDist::Deterministic { t: 1 },
                SojournDist::Deterministic { t: 1 },
            ],
        );
        assert!(bad.is_err());
    }

    #[test]
    fn rejects_invalid_sojourn() {
        let bad = SemiMarkovModel::new(
            [[0.0, 0.9, 0.1], [0.9, 0.0, 0.1], [1.0, 0.0, 0.0]],
            [
                SojournDist::Geometric { p: 0.0 },
                SojournDist::Deterministic { t: 1 },
                SojournDist::Deterministic { t: 1 },
            ],
        );
        assert!(bad.is_err());
    }

    #[test]
    fn from_markov_jump_probabilities() {
        let c = markov_chain();
        let sm = SemiMarkovModel::from_markov(&c).unwrap();
        // From UP the exit mass is 0.08 split 0.05 / 0.03.
        assert!((sm.jump[0][1] - 0.05 / 0.08).abs() < 1e-12);
        assert!((sm.jump[0][2] - 0.03 / 0.08).abs() < 1e-12);
        match sm.sojourn[0] {
            SojournDist::Geometric { p } => assert!((p - 0.08).abs() < 1e-12),
            ref other => panic!("expected geometric, got {other:?}"),
        }
    }

    #[test]
    fn from_markov_rejects_absorbing() {
        let c =
            AvailabilityChain::new([[1.0, 0.0, 0.0], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]).unwrap();
        assert!(SemiMarkovModel::from_markov(&c).is_err());
    }

    #[test]
    fn geometric_semi_markov_matches_markov_statistics() {
        // The converted process must have the same 1-step transition
        // frequencies as the original Markov chain.
        let c = markov_chain();
        let sm = SemiMarkovModel::from_markov(&c).unwrap();
        let mut stream = SemiMarkovStream::new(sm, ProcState::Up, SeedPath::root(11).rng());
        let n = 400_000usize;
        let seq = stream.take_vec(n);
        let mut counts = [[0u64; 3]; 3];
        for w in seq.windows(2) {
            counts[w[0].index()][w[1].index()] += 1;
        }
        for i in 0..3 {
            let row_total: u64 = counts[i].iter().sum();
            for j in 0..3 {
                let freq = counts[i][j] as f64 / row_total as f64;
                let expect = c.raw()[i][j];
                assert!(
                    (freq - expect).abs() < 0.01,
                    "P[{i}][{j}] freq {freq} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn occupancy_matches_markov_stationary_for_geometric() {
        let c = markov_chain();
        let sm = SemiMarkovModel::from_markov(&c).unwrap();
        let occ = sm.occupancy();
        let pi = c.stationary();
        for i in 0..3 {
            assert!(
                (occ[i] - pi[i]).abs() < 1e-6,
                "state {i}: {} vs {}",
                occ[i],
                pi[i]
            );
        }
    }

    #[test]
    fn occupancy_weights_by_mean_sojourn() {
        // Two states alternate deterministically; the one with 3-slot
        // sojourns occupies 75% of time. (Third state unreachable but the
        // jump matrix must still be stochastic; give it an exit.)
        let sm = SemiMarkovModel::new(
            [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
            [
                SojournDist::Deterministic { t: 3 },
                SojournDist::Deterministic { t: 1 },
                SojournDist::Deterministic { t: 1 },
            ],
        )
        .unwrap();
        let occ = sm.occupancy();
        assert!((occ[0] - 0.75).abs() < 1e-9, "{occ:?}");
        assert!((occ[1] - 0.25).abs() < 1e-9, "{occ:?}");
    }

    #[test]
    fn stream_respects_sojourn_lengths() {
        // Deterministic sojourns: UP for 2, RECLAIMED for 3, cycling.
        let sm = SemiMarkovModel::new(
            [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
            [
                SojournDist::Deterministic { t: 2 },
                SojournDist::Deterministic { t: 3 },
                SojournDist::Deterministic { t: 1 },
            ],
        )
        .unwrap();
        let mut s = SemiMarkovStream::new(sm, ProcState::Up, SeedPath::root(3).rng());
        let seq = s.take_vec(10);
        use ProcState::{Reclaimed as R, Up as U};
        assert_eq!(seq, vec![U, U, R, R, R, U, U, R, R, R]);
    }

    #[test]
    fn stream_is_deterministic() {
        let sm = desktop_model(50.0);
        let mut a = SemiMarkovStream::new(sm.clone(), ProcState::Up, SeedPath::root(9).rng());
        let mut b = SemiMarkovStream::new(sm, ProcState::Up, SeedPath::root(9).rng());
        assert_eq!(a.take_vec(1000), b.take_vec(1000));
    }

    #[test]
    fn desktop_model_mostly_up() {
        let sm = desktop_model(100.0);
        let occ = sm.occupancy();
        assert!(occ[0] > 0.2, "UP occupancy too low: {occ:?}");
        assert!((occ.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
