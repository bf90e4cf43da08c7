//! The 3-state volatile-processor availability model of Section 5.
//!
//! A processor is `UP` (available), `RECLAIMED` (temporarily preempted by its
//! owner — work is suspended, not lost) or `DOWN` (crashed — program, data
//! and partial results are lost). State transitions form a Markov chain with
//! matrix `P(q)_{i,j}`, `i, j ∈ {u, r, d}`.
//!
//! This module implements, with the paper's notation:
//!
//! * `π_u, π_r, π_d` — the limit (stationary) distribution;
//! * `P₊` — **Lemma 1**: the probability that a processor currently `UP` is
//!   `UP` again at some later slot without entering `DOWN` in between;
//! * `E(up)` — expected slots until that next `UP` slot (conditioned on no
//!   `DOWN`), from the proof of Theorem 2;
//! * `E(W)` — **Theorem 2**: the conditional expectation of the number of
//!   slots a processor needs to be assigned a workload of `W` `UP`-slots,
//!   knowing it is `UP` now and will not go `DOWN` before finishing;
//! * `P_UD(k)` — Section 6.3.3: the probability of not entering `DOWN`
//!   during `k` slots starting from `UP`, both *exactly* (2×2 matrix power
//!   over the `{u, r}` block) and with the paper's closed-form approximation;
//! * numeric re-derivations of each quantity (truncated series / linear
//!   algebra) used by the test-suite to validate the closed forms.

use crate::chain::{ChainError, MarkovChain};
use crate::matrix::SquareMatrix;
use serde::{Deserialize, Serialize};
use vg_des::rng::StreamRng;

/// Survival-style power `base^exp` for probability bases and slot-count
/// exponents.
///
/// `f64::powi` takes an `i32`, so the previous `exp as i32` cast wrapped
/// for `exp > i32::MAX`: a probability raised to a *negative* (or garbage)
/// exponent blows up past 1 instead of underflowing toward 0. Slot counts
/// are `u64` (a capped run can legitimately ask about horizons beyond
/// `i32::MAX`), so exponents past the `powi` domain are routed through
/// `powf`, which accepts the full `u64` range: the `exp as f64` rounding
/// (at most 1 part in 2⁵³) is immaterial next to `powf`'s own error, and
/// the result remains a valid probability for bases in `[0, 1]` — note it
/// need *not* be near 0 (a base close enough to 1, e.g. `1 − 2⁻⁵³`, stays
/// well above 0 even at these exponents), so the fallback must stay a real
/// power, not a hard-coded underflow.
#[inline]
#[must_use]
fn pow_slots(base: f64, exp: u64) -> f64 {
    match i32::try_from(exp) {
        Ok(e) => base.powi(e),
        Err(_) => base.powf(exp as f64),
    }
}

/// Processor availability state (Section 3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ProcState {
    /// `u` — available for computation.
    Up,
    /// `r` — temporarily reclaimed by its owner; activities are suspended and
    /// resume when the processor returns to `Up`.
    Reclaimed,
    /// `d` — crashed; the program, task data and partial results are lost.
    Down,
}

impl ProcState {
    /// All states, in matrix order `u, r, d`.
    pub const ALL: [ProcState; 3] = [ProcState::Up, ProcState::Reclaimed, ProcState::Down];

    /// Index in transition matrices (`u`=0, `r`=1, `d`=2).
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Self::Up => 0,
            Self::Reclaimed => 1,
            Self::Down => 2,
        }
    }

    /// Inverse of [`Self::index`].
    ///
    /// # Panics
    /// Panics if `i > 2`.
    #[inline]
    #[must_use]
    pub fn from_index(i: usize) -> Self {
        match i {
            0 => Self::Up,
            1 => Self::Reclaimed,
            2 => Self::Down,
            _ => panic!("invalid state index {i}"),
        }
    }

    /// Single-character code used in traces (`u`, `r`, `d` — the paper's
    /// notation in Section 3.2).
    #[must_use]
    pub fn code(self) -> char {
        match self {
            Self::Up => 'u',
            Self::Reclaimed => 'r',
            Self::Down => 'd',
        }
    }

    /// Parses a trace code.
    #[must_use]
    pub fn from_code(c: char) -> Option<Self> {
        match c {
            'u' => Some(Self::Up),
            'r' => Some(Self::Reclaimed),
            'd' => Some(Self::Down),
            _ => None,
        }
    }

    /// True when the processor can compute/communicate this slot.
    #[inline]
    #[must_use]
    pub fn is_up(self) -> bool {
        matches!(self, Self::Up)
    }
}

impl std::fmt::Display for ProcState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// The 3-state availability Markov chain of one processor.
///
/// Stored as `p[i][j] = Pr(state j at t+1 | state i at t)` with the index
/// order `u, r, d`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AvailabilityChain {
    p: [[f64; 3]; 3],
}

/// Validation tolerance on row sums.
const ROW_TOL: f64 = 1e-9;

impl AvailabilityChain {
    /// Builds a chain from a 3×3 row-stochastic matrix (order `u, r, d`).
    pub fn new(p: [[f64; 3]; 3]) -> Result<Self, ChainError> {
        for (i, row) in p.iter().enumerate() {
            let sum: f64 = row.iter().sum();
            if (sum - 1.0).abs() > ROW_TOL
                || row
                    .iter()
                    .any(|&x| !(0.0..=1.0 + ROW_TOL).contains(&x) || x.is_nan())
            {
                return Err(ChainError::NotStochastic { row: i });
            }
        }
        Ok(Self { p })
    }

    /// The experimental-scenario sampler of Section 7: each self-loop
    /// probability `P_{x,x}` is drawn uniformly from `[lo, hi]`
    /// (the paper uses `[0.90, 0.99]`) and the two exit probabilities split
    /// the remainder evenly: `P_{x,y} = (1 − P_{x,x}) / 2` for `y ≠ x`.
    #[must_use]
    pub fn sample_paper(rng: &mut StreamRng, lo: f64, hi: f64) -> Self {
        let mut p = [[0.0; 3]; 3];
        for (i, row) in p.iter_mut().enumerate() {
            let diag = rng.f64_range(lo, hi);
            for (j, x) in row.iter_mut().enumerate() {
                *x = if i == j { diag } else { 0.5 * (1.0 - diag) };
            }
        }
        Self { p }
    }

    /// Transition probability between two states.
    #[inline]
    #[must_use]
    pub fn prob(&self, from: ProcState, to: ProcState) -> f64 {
        self.p[from.index()][to.index()]
    }

    /// `P_{u,u}`.
    #[inline]
    #[must_use]
    pub fn p_uu(&self) -> f64 {
        self.p[0][0]
    }

    /// `P_{u,r}`.
    #[inline]
    #[must_use]
    fn p_ur(&self) -> f64 {
        self.p[0][1]
    }

    /// `P_{u,d}`.
    #[inline]
    #[must_use]
    fn p_ud(&self) -> f64 {
        self.p[0][2]
    }

    /// `P_{r,u}`.
    #[inline]
    #[must_use]
    fn p_ru(&self) -> f64 {
        self.p[1][0]
    }

    /// `P_{r,r}`.
    #[inline]
    #[must_use]
    pub fn p_rr(&self) -> f64 {
        self.p[1][1]
    }

    /// `P_{r,d}`.
    #[inline]
    #[must_use]
    fn p_rd(&self) -> f64 {
        self.p[1][2]
    }

    /// The raw matrix.
    #[must_use]
    pub fn raw(&self) -> &[[f64; 3]; 3] {
        &self.p
    }

    /// Converts to the generic [`MarkovChain`].
    #[must_use]
    fn to_chain(&self) -> MarkovChain {
        // tidy:allow(hot_alloc): one-off conversion helper, not on the sampling path.
        let rows: Vec<Vec<f64>> = self.p.iter().map(|r| r.to_vec()).collect();
        MarkovChain::new(SquareMatrix::from_rows(&rows)).expect("validated at construction")
    }

    /// Stationary distribution `(π_u, π_r, π_d)`.
    ///
    /// Irreducible chains take a direct solve on the stack: the elimination
    /// of [`MarkovChain::stationary`] over a `[f64; 9]`, bit-identical to it
    /// and free of heap allocation. Falls back to the generic chain's power
    /// iteration when the chain is reducible or the solve finds it
    /// numerically singular (e.g. a borderline-reducible chain crafted in
    /// tests) — exactly where [`MarkovChain::stationary`] fails.
    #[must_use]
    pub fn stationary(&self) -> [f64; 3] {
        if self.is_irreducible() {
            let mut a = [0.0; 9];
            let mut pi = [0.0; 3];
            if crate::chain::solve_stationary(self.p.as_flattened(), &mut a, &mut pi).is_ok() {
                return pi;
            }
        }
        let pi = self.to_chain().stationary_power(1e-13, 1_000_000);
        [pi[0], pi[1], pi[2]]
    }

    /// True if every state reaches every other along positive-probability
    /// transitions ([`MarkovChain::is_irreducible`] without the heap).
    fn is_irreducible(&self) -> bool {
        // Bit `j` of `step[i]`: `j` is reachable from `i` in at most one
        // transition. With three states every shortest path has at most two.
        let step: [u8; 3] = std::array::from_fn(|i| {
            (0..3)
                .filter(|&j| self.p[i][j] > 0.0)
                .fold(1 << i, |m, j| m | 1 << j)
        });
        step.iter().all(|&m| {
            let two = (0..3)
                .filter(|&j| m & 1 << j != 0)
                .fold(m, |r, j| r | step[j]);
            two == 0b111
        })
    }

    /// **Lemma 1.** `P₊ = P_{u,u} + P_{u,r} P_{r,u} / (1 − P_{r,r})`:
    /// the probability that a processor `UP` now will be `UP` again at some
    /// later slot without entering `DOWN` in between.
    ///
    /// When `P_{r,r} = 1` the reclaimed state is absorbing and the excursion
    /// never returns, so the second term is 0.
    #[must_use]
    pub fn p_plus(&self) -> f64 {
        let denom = 1.0 - self.p_rr();
        if denom <= 0.0 {
            self.p_uu()
        } else {
            self.p_uu() + self.p_ur() * self.p_ru() / denom
        }
    }

    /// `E(up)` from the proof of Theorem 2: the expected number of slots
    /// until the *next* `UP` slot, knowing the processor is `UP` now and does
    /// not enter `DOWN` in between.
    ///
    /// `E(up) = 1 + z / ((1 − P_{r,r})(1 + z))` with
    /// `z = P_{u,r} P_{r,u} / (P_{u,u} (1 − P_{r,r}))`.
    #[must_use]
    fn e_up(&self) -> f64 {
        let one_minus_rr = 1.0 - self.p_rr();
        if one_minus_rr <= 0.0 {
            // Reclaimed is absorbing: conditioned on returning (never), the
            // expectation is vacuous; staying UP is the only way, cost 1.
            return 1.0;
        }
        if self.p_uu() <= 0.0 {
            // Every continuation goes through RECLAIMED; z → ∞ and the limit
            // of the closed form is 1 + 1/(1 − P_rr).
            return 1.0 + 1.0 / one_minus_rr;
        }
        let z = self.p_ur() * self.p_ru() / (self.p_uu() * one_minus_rr);
        1.0 + z / (one_minus_rr * (1.0 + z))
    }

    /// **Theorem 2.** `E(W)`: expected number of slots for a processor to
    /// complete a workload needing `W` `UP`-slots, knowing it is `UP` at the
    /// current slot (which counts toward `W`) and never enters `DOWN` before
    /// finishing.
    ///
    /// `E(W) = W + (W−1) · P_{u,r} P_{r,u} / (1 − P_{r,r}) ·
    ///         1 / (P_{u,u}(1 − P_{r,r}) + P_{u,r} P_{r,u})`.
    ///
    /// Defined for `W ≥ 1`; `E(0)` is 0 (nothing to do).
    #[must_use]
    pub fn e_w(&self, w: u64) -> f64 {
        if w == 0 {
            return 0.0;
        }
        let w = w as f64;
        let one_minus_rr = 1.0 - self.p_rr();
        if one_minus_rr <= 0.0 {
            return w;
        }
        let num = self.p_ur() * self.p_ru();
        let denom = self.p_uu() * one_minus_rr + num;
        if denom <= 0.0 {
            // No way to accumulate UP slots without DOWN; conditional
            // expectation is vacuous — return the unreachable lower bound.
            return w;
        }
        w + (w - 1.0) * (num / one_minus_rr) * (1.0 / denom)
    }

    /// Probability that a processor `UP` now completes a `W`-slot workload
    /// before entering `DOWN`: `(P₊)^{W−1}` (it needs `W−1` further returns
    /// to `UP`).
    #[must_use]
    pub fn success_prob(&self, w: u64) -> f64 {
        if w <= 1 {
            return 1.0;
        }
        pow_slots(self.p_plus(), w - 1)
    }

    /// Exact `P_UD(k)`: probability of spending `k` consecutive slots without
    /// entering `DOWN`, starting `UP` (the first slot is the current one, so
    /// `k − 1` transitions must stay within `{u, r}`).
    ///
    /// Computed as `Σ_j (M^{k−1})[u][j]` over the `{u, r}` sub-matrix `M`.
    #[must_use]
    pub fn p_ud_exact(&self, k: u64) -> f64 {
        if k <= 1 {
            return 1.0;
        }
        let m = SquareMatrix::from_rows(&[
            // tidy:allow(hot_alloc): exact-analysis path (Section 6.3.3 study), not simulation-hot.
            vec![self.p_uu(), self.p_ur()],
            // tidy:allow(hot_alloc): exact-analysis path (Section 6.3.3 study), not simulation-hot.
            vec![self.p_ru(), self.p_rr()],
        ]);
        let mk = m.pow(k - 1);
        mk[(0, 0)] + mk[(0, 1)]
    }

    /// The paper's closed-form approximation of `P_UD(k)` (Section 6.3.3),
    /// which forgets the exact state after the first transition:
    ///
    /// `P_UD(k) ≈ (1 − P_{u,d}) ·
    ///            (1 − (P_{u,d} π_u + P_{r,d} π_r)/(π_u + π_r))^{k−2}`.
    ///
    /// For `k ≤ 1` this returns 1; for `k = 2` the exponent is zero and the
    /// value is exactly `1 − P_{u,d}` (which is also the exact value).
    #[must_use]
    pub fn p_ud_approx(&self, k: u64) -> f64 {
        if k <= 1 {
            return 1.0;
        }
        let [pi_u, pi_r, _] = self.stationary();
        let first = 1.0 - self.p_ud();
        let live = pi_u + pi_r;
        if live <= 0.0 {
            return if k == 2 { first } else { 0.0 };
        }
        let per_slot = 1.0 - (self.p_ud() * pi_u + self.p_rd() * pi_r) / live;
        first * pow_slots(per_slot, k - 2)
    }

    // ------------------------------------------------------------------
    // Numeric re-derivations (used to validate the closed forms in tests,
    // and exposed for downstream users who want independent confirmation).
    // ------------------------------------------------------------------

    /// `P₊` from the defining series
    /// `P_{u,u} + P_{u,r} (Σ_t P_{r,r}^t) P_{r,u}`, truncated at machine
    /// precision.
    #[must_use]
    pub fn p_plus_numeric(&self) -> f64 {
        let mut total = self.p_uu();
        let mut geom = self.p_ur() * self.p_ru();
        let mut t = 0;
        while geom > 1e-18 && t < 1_000_000 {
            total += geom;
            geom *= self.p_rr();
            t += 1;
        }
        total
    }

    /// `E(up)` from the defining series in the proof of Theorem 2:
    /// `E(up) = (P_{u,u} + Σ_{t≥0} (t+2) P_{u,r} P_{r,r}^t P_{r,u}) / P₊`.
    #[must_use]
    fn e_up_numeric(&self) -> f64 {
        let mut num = self.p_uu();
        let mut geom = self.p_ur() * self.p_ru();
        let mut t: u64 = 0;
        while geom > 1e-18 && t < 1_000_000 {
            num += (t as f64 + 2.0) * geom;
            geom *= self.p_rr();
            t += 1;
        }
        num / self.p_plus_numeric()
    }

    /// `E(W)` via `1 + (W−1) · E(up)` with the numeric `E(up)` — the
    /// linearity identity at the end of the Theorem 2 proof.
    #[must_use]
    // tidy:allow(dead_pub): the series reference that tests::theorem2_e_w_matches_series holds Theorem 2's closed form to
    pub fn e_w_numeric(&self, w: u64) -> f64 {
        if w == 0 {
            return 0.0;
        }
        1.0 + (w as f64 - 1.0) * self.e_up_numeric()
    }

    /// Monte-Carlo estimate of `E(W)` by rejection sampling: simulate the
    /// chain from `UP`, discard trajectories that hit `DOWN` before
    /// completing `W` UP-slots, average the completion time of survivors.
    ///
    /// Returns `(estimate, accepted_samples)`. Intended for tests; slow.
    #[must_use]
    pub fn e_w_monte_carlo(&self, w: u64, samples: u64, rng: &mut StreamRng) -> (f64, u64) {
        assert!(w >= 1);
        let mut total = 0.0;
        let mut accepted = 0u64;
        'sample: for _ in 0..samples {
            let mut up_slots = 1u64; // currently UP
            let mut t = 1u64;
            let mut state = ProcState::Up;
            while up_slots < w {
                state = self.sample_next(state, rng);
                t += 1;
                match state {
                    ProcState::Up => up_slots += 1,
                    ProcState::Reclaimed => {}
                    ProcState::Down => continue 'sample,
                }
            }
            total += t as f64;
            accepted += 1;
        }
        if accepted == 0 {
            (f64::NAN, 0)
        } else {
            (total / accepted as f64, accepted)
        }
    }

    /// Samples the next state.
    #[must_use]
    pub fn sample_next(&self, from: ProcState, rng: &mut StreamRng) -> ProcState {
        let row = &self.p[from.index()];
        let mut u = rng.f64();
        for (j, &p) in row.iter().enumerate() {
            if u < p {
                return ProcState::from_index(j);
            }
            u -= p;
        }
        // Round-off slack.
        ProcState::from_index(row.iter().rposition(|&p| p > 0.0).unwrap_or(0))
    }
}

/// Precomputed scheduling statistics of one availability chain.
///
/// The heuristics of Section 6 evaluate `P₊`, `E(W)` and `P_UD` thousands of
/// times per simulated slot; `ChainStats` hoists every derived quantity that
/// does not depend on the workload size — the stationary distribution (a
/// linear solve), `P₊`, `E(up)`, and the two factors of the `P_UD`
/// approximation — so per-candidate scoring is a handful of flops.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainStats {
    chain: AvailabilityChain,
    pi: [f64; 3],
    kernel: ScoreKernel,
}

/// The four cached scalars that every per-placement score evaluation
/// actually reads, packed into 32 dense bytes.
///
/// [`ChainStats`] is ~140 bytes (the chain matrix, the stationary
/// distribution, these factors); a scheduler scoring a thousand candidates
/// per slot through `&[ChainStats]` pulls a whole scattered cache line per
/// processor to use one or two of these numbers. Schedulers instead copy
/// each processor's `ScoreKernel` into a dense per-run array once and
/// evaluate against that — 4× less memory traffic on the hottest loop of
/// the schedule phase. The evaluation methods here are the *single source
/// of truth* for the Theorem-2 / Section-6.3.3 closed forms:
/// [`ChainStats::e_w`] and [`ChainStats::p_ud_approx`] delegate to them,
/// so a kernel evaluation is bit-identical to one through `ChainStats` by
/// construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreKernel {
    /// Cached `P₊` (Lemma 1).
    pub p_plus: f64,
    /// Cached `E(up)` (Theorem 2 proof).
    pub e_up: f64,
    /// First factor of the `P_UD` approximation: `1 − P_{u,d}`.
    pub ud_first: f64,
    /// Per-slot survival factor of the `P_UD` approximation.
    pub ud_per_slot: f64,
}

impl ScoreKernel {
    /// `E(W)` via the cached `E(up)`: `1 + (W−1)·E(up)` (Theorem 2).
    #[inline]
    #[must_use]
    pub fn e_w(&self, w: u64) -> f64 {
        if w == 0 {
            return 0.0;
        }
        1.0 + (w as f64 - 1.0) * self.e_up
    }

    /// The paper's `P_UD(k)` approximation using the cached factors.
    #[inline]
    #[must_use]
    pub fn p_ud_approx(&self, k: u64) -> f64 {
        if k <= 1 {
            return 1.0;
        }
        self.ud_first * pow_slots(self.ud_per_slot, k - 2)
    }
}

impl ChainStats {
    /// Precomputes all derived quantities of `chain`.
    #[must_use]
    pub fn new(chain: AvailabilityChain) -> Self {
        let pi = chain.stationary();
        Self::with_stationary(chain, pi)
    }

    /// [`Self::new`] around a given stationary distribution of `chain`.
    fn with_stationary(chain: AvailabilityChain, pi: [f64; 3]) -> Self {
        let p_plus = chain.p_plus();
        let e_up = chain.e_up();
        let ud_first = 1.0 - chain.p_ud();
        let live = pi[0] + pi[1];
        let ud_per_slot = if live > 0.0 {
            1.0 - (chain.p_ud() * pi[0] + chain.p_rd() * pi[1]) / live
        } else {
            0.0
        };
        Self {
            chain,
            pi,
            kernel: ScoreKernel {
                p_plus,
                e_up,
                ud_first,
                ud_per_slot,
            },
        }
    }

    /// The underlying chain.
    #[must_use]
    pub fn chain(&self) -> &AvailabilityChain {
        &self.chain
    }

    /// The dense per-placement evaluation kernel (copy it into a per-run
    /// array for hot loops — see [`ScoreKernel`]).
    #[inline]
    #[must_use]
    pub fn kernel(&self) -> ScoreKernel {
        self.kernel
    }

    /// `P_{u,u}` (Random1's weight).
    #[inline]
    #[must_use]
    pub fn p_uu(&self) -> f64 {
        self.chain.p_uu()
    }

    /// Cached stationary distribution `(π_u, π_r, π_d)`.
    #[inline]
    #[must_use]
    pub fn pi(&self) -> [f64; 3] {
        self.pi
    }

    /// Cached `P₊` (Lemma 1).
    #[inline]
    #[must_use]
    pub fn p_plus(&self) -> f64 {
        self.kernel.p_plus
    }

    /// `E(W)` via the cached `E(up)`: `1 + (W−1)·E(up)` (Theorem 2).
    #[inline]
    #[must_use]
    pub fn e_w(&self, w: u64) -> f64 {
        self.kernel.e_w(w)
    }

    /// The paper's `P_UD(k)` approximation using the cached factors.
    #[inline]
    #[must_use]
    pub fn p_ud_approx(&self, k: u64) -> f64 {
        self.kernel.p_ud_approx(k)
    }
}

/// One slot of the schedule phase's **Eq.-(2)/Theorem-2 score cache**.
///
/// The greedy heuristics of Section 6.3 evaluate, thousands of times per
/// simulated slot, a placement score that is a pure function of a
/// processor's chain statistics and speed (run constants) and three
/// integers: the processor's snapshot `delay`, the number of tasks already
/// assigned to it in the current round (`n_q`), and the Equation-(2)
/// ceiling factor `⌈n_active/ncom⌉` baked into the effective `T_data`.
/// Callers keep one `ChainScoreMemo` per *(processor, ceiling factor)* and
/// key each slot by `(delay, n_q)`: a hit replays the cached evaluation
/// bit-for-bit (the closed forms of Theorem 2 / Section 6.3.3 are pure), a
/// miss recomputes and overwrites. Entries are invalidated naturally —
/// the key changes or a different factor's slot is consulted — exactly
/// when the ceiling steps or the processor's pipeline delay moves, so no
/// explicit flush is needed within a run. Callers must still drop the
/// whole table between runs (chain statistics and speeds change).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChainScoreMemo {
    /// Snapshot delay the cached score was computed at.
    delay: u64,
    /// `n_q` (tasks already on the processor) it was computed at.
    n_q: u64,
    /// The cached evaluation.
    score: f64,
}

impl ChainScoreMemo {
    /// An empty slot; never hits (no real snapshot carries this key).
    pub const EMPTY: Self = Self {
        delay: u64::MAX,
        n_q: u64::MAX,
        score: 0.0,
    };

    /// The cached score for `(delay, n_q)`, or the result of `eval`
    /// (stored for next time) on a key mismatch. `eval` must be the same
    /// pure function on every call for a given processor and factor.
    #[inline]
    pub fn get_or_eval(&mut self, delay: u64, n_q: u64, eval: impl FnOnce() -> f64) -> f64 {
        if self.delay != delay || self.n_q != n_q {
            self.score = eval();
            self.delay = delay;
            self.n_q = n_q;
        }
        self.score
    }
}

impl Default for ChainScoreMemo {
    fn default() -> Self {
        Self::EMPTY
    }
}

/// An endless, deterministic availability state stream for one processor.
///
/// The simulator advances every processor once per slot; two streams created
/// with equal `(chain, start, rng)` produce identical sequences, which is how
/// the experiment harness presents identical availability to every heuristic
/// (common random numbers).
#[derive(Debug, Clone)]
pub struct AvailabilityStream {
    chain: AvailabilityChain,
    state: ProcState,
    rng: StreamRng,
    /// Slots emitted so far.
    emitted: u64,
}

impl AvailabilityStream {
    /// Creates a stream that will emit `start` as its first state.
    #[must_use]
    pub fn new(chain: AvailabilityChain, start: ProcState, rng: StreamRng) -> Self {
        Self {
            chain,
            state: start,
            rng,
            emitted: 0,
        }
    }

    /// Creates a stream whose first state is drawn from the stationary
    /// distribution (a processor observed "at random" in the field).
    #[must_use]
    pub fn stationary_start(chain: AvailabilityChain, mut rng: StreamRng) -> Self {
        let pi = chain.stationary();
        let idx = rng.weighted_index(&pi).unwrap_or(0);
        Self::new(chain, ProcState::from_index(idx), rng)
    }

    /// The chain driving this stream.
    #[must_use]
    pub fn chain(&self) -> &AvailabilityChain {
        &self.chain
    }

    /// Number of states emitted so far.
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Emits the state for the next slot.
    pub fn next_state(&mut self) -> ProcState {
        let out = self.state;
        self.state = self.chain.sample_next(self.state, &mut self.rng);
        self.emitted += 1;
        out
    }

    /// Emits `len` states into a vector.
    pub fn take_vec(&mut self, len: usize) -> Vec<ProcState> {
        // tidy:allow(hot_alloc): the whole point of this API is to materialize a trace.
        (0..len).map(|_| self.next_state()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_des::rng::SeedPath;

    /// A hand-picked, asymmetric chain exercised throughout the tests.
    fn chain() -> AvailabilityChain {
        AvailabilityChain::new([[0.92, 0.05, 0.03], [0.10, 0.85, 0.05], [0.04, 0.02, 0.94]])
            .unwrap()
    }

    /// A paper-style chain (diagonals in [0.90, 0.99], symmetric split).
    fn paper_chain() -> AvailabilityChain {
        let mut rng = SeedPath::root(2024).rng();
        AvailabilityChain::sample_paper(&mut rng, 0.90, 0.99)
    }

    #[test]
    fn state_index_roundtrip() {
        for s in ProcState::ALL {
            assert_eq!(ProcState::from_index(s.index()), s);
            assert_eq!(ProcState::from_code(s.code()), Some(s));
        }
        assert_eq!(ProcState::from_code('x'), None);
    }

    #[test]
    fn rejects_bad_rows() {
        assert!(
            AvailabilityChain::new([[0.5, 0.4, 0.0], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8],]).is_err()
        );
    }

    #[test]
    fn sample_paper_is_well_formed() {
        let mut rng = SeedPath::root(5).rng();
        for _ in 0..100 {
            let c = AvailabilityChain::sample_paper(&mut rng, 0.90, 0.99);
            for i in 0..3 {
                let diag = c.raw()[i][i];
                assert!((0.90..=0.99).contains(&diag));
                let sum: f64 = c.raw()[i].iter().sum();
                assert!((sum - 1.0).abs() < 1e-12);
                for j in 0..3 {
                    if i != j {
                        assert!((c.raw()[i][j] - 0.5 * (1.0 - diag)).abs() < 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn stationary_sums_to_one_and_is_fixed() {
        let c = chain();
        let pi = c.stationary();
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-10);
        let stepped = c.to_chain().step_distribution(&pi);
        for (a, b) in pi.iter().zip(&stepped) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn lemma1_p_plus_matches_series() {
        for c in [chain(), paper_chain()] {
            let closed = c.p_plus();
            let series = c.p_plus_numeric();
            assert!(
                (closed - series).abs() < 1e-12,
                "closed {closed} vs series {series}"
            );
        }
    }

    #[test]
    fn lemma1_p_plus_matches_absorption_probability() {
        // Independent derivation: P₊ is the probability, starting one
        // transition after an UP slot, of reaching UP before DOWN — i.e. a
        // first-step decomposition over the generic chain's absorption
        // analysis on a chain where UP and DOWN are made absorbing.
        let c = chain();
        let absorbed = MarkovChain::from_rows(&[
            vec![1.0, 0.0, 0.0], // UP absorbing
            vec![c.p_ru(), c.p_rr(), c.p_rd()],
            vec![0.0, 0.0, 1.0], // DOWN absorbing
        ])
        .unwrap();
        let reach_up = absorbed.absorption_probability(&[0], &[2]).unwrap();
        let expected = c.p_uu() + c.p_ur() * reach_up[1] + c.p_ud() * 0.0;
        assert!((c.p_plus() - expected).abs() < 1e-12);
    }

    #[test]
    fn theorem2_e_up_matches_series() {
        for c in [chain(), paper_chain()] {
            let closed = c.e_up();
            let series = c.e_up_numeric();
            assert!(
                (closed - series).abs() < 1e-9,
                "closed {closed} vs series {series}"
            );
        }
    }

    #[test]
    fn theorem2_e_w_matches_series() {
        for c in [chain(), paper_chain()] {
            for w in [1u64, 2, 3, 10, 100, 1000] {
                let closed = c.e_w(w);
                let series = c.e_w_numeric(w);
                assert!(
                    (closed - series).abs() < 1e-6 * series.max(1.0),
                    "W={w}: closed {closed} vs series {series}"
                );
            }
        }
    }

    #[test]
    fn theorem2_linearity_identity() {
        // E(W) = 1 + (W−1) E(up), the final remark of the proof.
        let c = chain();
        for w in [1u64, 2, 5, 50] {
            let direct = c.e_w(w);
            let via_eup = 1.0 + (w as f64 - 1.0) * c.e_up();
            assert!((direct - via_eup).abs() < 1e-9, "W={w}");
        }
    }

    #[test]
    fn e_w_monte_carlo_agrees() {
        let c = chain();
        let mut rng = SeedPath::root(99).rng();
        let w = 8;
        let (estimate, accepted) = c.e_w_monte_carlo(w, 200_000, &mut rng);
        assert!(accepted > 10_000, "too few accepted samples: {accepted}");
        let closed = c.e_w(w);
        let rel = (estimate - closed).abs() / closed;
        assert!(rel < 0.02, "MC {estimate} vs closed {closed} (rel {rel})");
    }

    #[test]
    fn e_w_edge_cases() {
        let c = chain();
        assert_eq!(c.e_w(0), 0.0);
        assert_eq!(c.e_w(1), 1.0); // already UP, one slot of work
        assert!(c.e_w(2) >= 2.0);
    }

    #[test]
    fn e_w_is_monotone_and_superlinear() {
        let c = chain();
        let mut prev = c.e_w(1);
        for w in 2..200 {
            let cur = c.e_w(w);
            assert!(cur > prev, "E({w}) must grow");
            assert!(cur >= w as f64, "E(W) ≥ W");
            prev = cur;
        }
    }

    #[test]
    fn success_prob_is_p_plus_power() {
        let c = chain();
        assert_eq!(c.success_prob(0), 1.0);
        assert_eq!(c.success_prob(1), 1.0);
        assert!((c.success_prob(2) - c.p_plus()).abs() < 1e-15);
        assert!((c.success_prob(5) - c.p_plus().powi(4)).abs() < 1e-15);
    }

    #[test]
    fn p_ud_exact_small_k_by_hand() {
        let c = chain();
        assert_eq!(c.p_ud_exact(1), 1.0);
        // k=2: one transition, must not be to DOWN.
        assert!((c.p_ud_exact(2) - (1.0 - c.p_ud())).abs() < 1e-15);
        // k=3: enumerate u->{u,r}->{u,r} paths.
        let by_hand = c.p_uu() * (c.p_uu() + c.p_ur()) + c.p_ur() * (c.p_ru() + c.p_rr());
        assert!((c.p_ud_exact(3) - by_hand).abs() < 1e-12);
    }

    #[test]
    fn p_ud_approx_matches_exact_at_k2_and_tracks_after() {
        // The paper's approximation "forgets the state after the first
        // transition", so it degrades as k grows and as failure rates rise;
        // it must be exact at k = 2 and stay coarse-but-useful after.
        for c in [chain(), paper_chain()] {
            assert!((c.p_ud_approx(2) - c.p_ud_exact(2)).abs() < 1e-12);
            for k in [3u64, 5, 10, 20] {
                let exact = c.p_ud_exact(k);
                let approx = c.p_ud_approx(k);
                assert!(
                    (exact - approx).abs() < 0.10,
                    "k={k}: exact {exact} approx {approx}"
                );
            }
        }
        // On paper-style (gentle) chains it is tight for small k and always
        // an over-estimate (the mixture of π_u/π_r exit rates under-weights
        // the risky immediate-UP slots for these matrices).
        let c = paper_chain();
        for k in [3u64, 5] {
            assert!((c.p_ud_exact(k) - c.p_ud_approx(k)).abs() < 0.03, "k={k}");
        }
    }

    #[test]
    fn p_ud_approx_survives_exponents_past_i32_max() {
        // Regression: `powi((k - 2) as i32)` wrapped for k − 2 > i32::MAX,
        // turning the per-slot survival factor into a *negative*-exponent
        // power — a "probability" far above 1. Large k must instead
        // underflow toward 0 (the chain has a nonzero per-slot death rate).
        let c = chain();
        let stats = ChainStats::new(c.clone());
        let last_powi = 2 + i32::MAX as u64; // exponent exactly i32::MAX
        let first_powf = last_powi + 1; // exponent i32::MAX + 1: wrapped before
        for k in [last_powi, first_powf, u64::MAX] {
            for v in [c.p_ud_approx(k), stats.p_ud_approx(k)] {
                assert!(
                    (0.0..=1.0).contains(&v),
                    "P_UD({k}) = {v} is not a probability"
                );
                assert!(v <= c.p_ud_approx(3), "P_UD({k}) = {v} not decreasing");
            }
            assert_eq!(c.p_ud_approx(k), stats.p_ud_approx(k), "k={k}");
        }
        // This chain's survival factor is < 1, so the tail is exactly 0.
        assert_eq!(c.p_ud_approx(first_powf), 0.0);
    }

    #[test]
    fn success_prob_survives_exponents_past_i32_max() {
        // Same wrap through `(w − 1) as i32`.
        let c = chain();
        for w in [1 + i32::MAX as u64, 2 + i32::MAX as u64, u64::MAX] {
            let v = c.success_prob(w);
            assert!(
                (0.0..=1.0).contains(&v),
                "success_prob({w}) = {v} is not a probability"
            );
            assert!(v <= c.success_prob(2) + 1e-15, "not decreasing at {w}");
        }
    }

    #[test]
    fn chain_score_memo_replays_and_invalidates() {
        let mut memo = ChainScoreMemo::default();
        let mut evals = 0u32;
        let eval = |d: u64, n: u64| (d * 10 + n) as f64;
        // First consult computes; an identical key replays without eval.
        let a = memo.get_or_eval(3, 1, || {
            evals += 1;
            eval(3, 1)
        });
        let b = memo.get_or_eval(3, 1, || {
            evals += 1;
            eval(3, 1)
        });
        assert_eq!(a, b);
        assert_eq!(evals, 1);
        // Either key component moving invalidates.
        let c = memo.get_or_eval(4, 1, || {
            evals += 1;
            eval(4, 1)
        });
        assert_eq!(c, 41.0);
        let d = memo.get_or_eval(4, 2, || {
            evals += 1;
            eval(4, 2)
        });
        assert_eq!(d, 42.0);
        assert_eq!(evals, 3);
        assert_eq!(ChainScoreMemo::default(), ChainScoreMemo::EMPTY);
    }

    #[test]
    fn p_ud_exact_is_decreasing_in_k() {
        let c = chain();
        let mut prev = c.p_ud_exact(1);
        for k in 2..50 {
            let cur = c.p_ud_exact(k);
            assert!(cur <= prev + 1e-15, "k={k}");
            prev = cur;
        }
    }

    #[test]
    fn p_plus_bounds() {
        for seed in 0..50 {
            let mut rng = SeedPath::root(seed).rng();
            let c = AvailabilityChain::sample_paper(&mut rng, 0.90, 0.99);
            let p = c.p_plus();
            assert!(p > 0.0 && p <= 1.0, "P+ out of range: {p}");
            // P+ at least P_uu, at most 1 − P_ud·0 (trivial) — tighter:
            // P+ ≤ 1 − P_ud because going DOWN immediately rules it out.
            assert!(p >= c.p_uu() - 1e-15);
            assert!(p <= 1.0 - c.p_ud() + 1e-15);
        }
    }

    #[test]
    fn stream_determinism_and_start() {
        let c = chain();
        let mk = || AvailabilityStream::new(c.clone(), ProcState::Up, SeedPath::root(42).rng());
        let mut a = mk();
        let mut b = mk();
        let va = a.take_vec(500);
        let vb = b.take_vec(500);
        assert_eq!(va, vb);
        assert_eq!(va[0], ProcState::Up);
        assert_eq!(a.emitted(), 500);
    }

    #[test]
    fn stream_stationary_start_frequencies() {
        let c = chain();
        let pi = c.stationary();
        let mut counts = [0u64; 3];
        for seed in 0..20_000 {
            let mut s = AvailabilityStream::stationary_start(
                c.clone(),
                SeedPath::root(7).child(seed).rng(),
            );
            counts[s.next_state().index()] += 1;
        }
        for i in 0..3 {
            let freq = counts[i] as f64 / 20_000.0;
            assert!(
                (freq - pi[i]).abs() < 0.02,
                "state {i}: {freq} vs {}",
                pi[i]
            );
        }
    }

    #[test]
    fn stream_long_run_occupancy_matches_stationary() {
        let c = paper_chain();
        let pi = c.stationary();
        let mut s = AvailabilityStream::new(c, ProcState::Up, SeedPath::root(3).rng());
        let n = 300_000;
        let mut counts = [0u64; 3];
        for _ in 0..n {
            counts[s.next_state().index()] += 1;
        }
        for i in 0..3 {
            let freq = counts[i] as f64 / n as f64;
            assert!(
                (freq - pi[i]).abs() < 0.02,
                "state {i}: {freq} vs {}",
                pi[i]
            );
        }
    }

    #[test]
    fn chain_stats_match_direct_computation() {
        for c in [chain(), paper_chain()] {
            let stats = ChainStats::new(c.clone());
            assert_eq!(stats.p_uu(), c.p_uu());
            assert!((stats.p_plus() - c.p_plus()).abs() < 1e-15);
            assert!((stats.kernel.e_up - c.e_up()).abs() < 1e-15);
            for i in 0..3 {
                assert!((stats.pi()[i] - c.stationary()[i]).abs() < 1e-12);
            }
            for w in [0u64, 1, 2, 7, 100] {
                assert!(
                    (stats.e_w(w) - c.e_w(w)).abs() < 1e-9 * c.e_w(w).max(1.0),
                    "W={w}"
                );
            }
            for k in [1u64, 2, 3, 10, 50] {
                assert!(
                    (stats.p_ud_approx(k) - c.p_ud_approx(k)).abs() < 1e-12,
                    "k={k}"
                );
            }
        }
    }

    /// The heap path the stack solve replaced: the generic chain's direct
    /// solve, else its power iteration.
    fn generic_stationary(c: &AvailabilityChain) -> [f64; 3] {
        let chain = c.to_chain();
        let pi = chain
            .stationary()
            .unwrap_or_else(|_| chain.stationary_power(1e-13, 1_000_000));
        [pi[0], pi[1], pi[2]]
    }

    /// `Err` naming the first field where the stack path's `ChainStats`
    /// differs in its bits from one built on [`generic_stationary`].
    fn stack_matches_generic(c: &AvailabilityChain) -> Result<(), String> {
        let got = ChainStats::new(c.clone());
        let want = ChainStats::with_stationary(c.clone(), generic_stationary(c));
        let (g, w) = (got.kernel(), want.kernel());
        let fields = [
            ("pi_u", got.pi()[0], want.pi()[0]),
            ("pi_r", got.pi()[1], want.pi()[1]),
            ("pi_d", got.pi()[2], want.pi()[2]),
            ("p_plus", g.p_plus, w.p_plus),
            ("e_up", g.e_up, w.e_up),
            ("ud_first", g.ud_first, w.ud_first),
            ("ud_per_slot", g.ud_per_slot, w.ud_per_slot),
        ];
        match fields.iter().find(|(_, a, b)| a.to_bits() != b.to_bits()) {
            Some((name, a, b)) => Err(format!("{name}: stack {a:e} vs generic {b:e} for {c:?}")),
            None => Ok(()),
        }
    }

    /// A chain whose off-diagonal entries all equal `eps`.
    fn sticky(eps: f64) -> AvailabilityChain {
        let d = 1.0 - 2.0 * eps;
        AvailabilityChain::new([[d, eps, eps], [eps, d, eps], [eps, eps, d]]).unwrap()
    }

    #[test]
    fn stack_stationary_matches_generic_on_edge_chains() {
        use crate::chain::ChainError;
        use crate::matrix::MatrixError;
        let irreducible = [
            // Zero exit probabilities: no UP → DOWN, no RECLAIMED → UP.
            [[0.9, 0.1, 0.0], [0.0, 0.8, 0.2], [0.3, 0.1, 0.6]],
            // Zero diagonals: the first pivot column ties |0 − 1| with the
            // normalization row's 1, and the last of equal pivots wins.
            [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]],
            // A deterministic 3-cycle (periodic, still irreducible).
            [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
        ];
        for p in irreducible {
            let c = AvailabilityChain::new(p).unwrap();
            assert!(
                c.to_chain().stationary().is_ok(),
                "{p:?} takes the direct solve"
            );
            stack_matches_generic(&c).unwrap();
        }
        let reducible = [
            // Absorbing RECLAIMED.
            [[0.9, 0.05, 0.05], [0.0, 1.0, 0.0], [0.1, 0.1, 0.8]],
            // Every state absorbing (a `sample_paper` diagonal of 1).
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            // DOWN unreachable.
            [[0.9, 0.1, 0.0], [0.2, 0.8, 0.0], [0.3, 0.3, 0.4]],
        ];
        for p in reducible {
            let c = AvailabilityChain::new(p).unwrap();
            assert_eq!(
                c.to_chain().stationary(),
                Err(ChainError::Reducible),
                "{p:?}"
            );
            stack_matches_generic(&c).unwrap();
            let power = c.to_chain().stationary_power(1e-13, 1_000_000);
            assert_eq!(
                c.stationary().map(f64::to_bits),
                [0, 1, 2].map(|i| power[i].to_bits())
            );
        }
        // Off-diagonals around the 1e-12 singular threshold: the solve's
        // second pivot is ~3·eps, so the sweep crosses from the direct
        // solve to the power-iteration fallback.
        let sweep = [1e-11, 4e-12, 3.4e-13, 3.3e-13, 3e-13, 1e-13];
        let singular = |eps: f64| {
            sticky(eps).to_chain().stationary() == Err(ChainError::Matrix(MatrixError::Singular))
        };
        assert!(!singular(sweep[0]) && singular(sweep[sweep.len() - 1]));
        for eps in sweep {
            stack_matches_generic(&sticky(eps)).unwrap();
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Random row-stochastic 3×3 matrices with every exit possible
        /// (keeps chains irreducible almost surely).
        fn arb_chain() -> impl Strategy<Value = AvailabilityChain> {
            proptest::collection::vec(0.02f64..1.0, 9).prop_map(|raw| {
                let mut p = [[0.0; 3]; 3];
                for i in 0..3 {
                    let total: f64 = raw[3 * i..3 * i + 3].iter().sum();
                    for j in 0..3 {
                        p[i][j] = raw[3 * i + j] / total;
                    }
                }
                AvailabilityChain::new(p).expect("normalized rows")
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn prop_p_plus_in_unit_interval(c in arb_chain()) {
                let p = c.p_plus();
                prop_assert!(p > 0.0 && p <= 1.0, "P+ = {p}");
                // P+ ≤ 1 − P_ud: an immediate crash rules out returning.
                prop_assert!(p <= 1.0 - c.p_ud() + 1e-12);
            }

            #[test]
            fn prop_p_plus_matches_series(c in arb_chain()) {
                prop_assert!((c.p_plus() - c.p_plus_numeric()).abs() < 1e-9);
            }

            #[test]
            fn prop_e_up_matches_series(c in arb_chain()) {
                prop_assert!((c.e_up() - c.e_up_numeric()).abs() < 1e-6);
            }

            #[test]
            fn prop_e_w_superlinear_monotone(c in arb_chain(), w in 1u64..500) {
                let ew = c.e_w(w);
                prop_assert!(ew >= w as f64 - 1e-9, "E({w}) = {ew} < W");
                prop_assert!(c.e_w(w + 1) > ew - 1e-12);
            }

            #[test]
            fn prop_stationary_is_fixed_point(c in arb_chain()) {
                let pi = c.stationary();
                prop_assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
                let stepped = c.to_chain().step_distribution(&pi);
                for (a, b) in pi.iter().zip(&stepped) {
                    prop_assert!((a - b).abs() < 1e-8);
                }
            }

            #[test]
            fn prop_p_ud_exact_decreasing_and_bounded(c in arb_chain(), k in 2u64..60) {
                let pk = c.p_ud_exact(k);
                prop_assert!((0.0..=1.0 + 1e-12).contains(&pk));
                prop_assert!(c.p_ud_exact(k + 1) <= pk + 1e-12);
                // Survival cannot beat the best single-step survival.
                let best = (1.0 - c.p_ud()).max(1.0 - c.p_rd());
                prop_assert!(pk <= best.powi((k - 1) as i32) + 1e-9);
            }

            #[test]
            fn prop_stack_stationary_is_bit_identical(
                seed in 0u64..u64::MAX,
                lo in 0.0f64..1.0,
                width in 0.0f64..1.0,
                c in arb_chain(),
            ) {
                // Section-7 chains with diagonals anywhere in [0, 1], and
                // the arbitrary irreducible chains above.
                let hi = lo + width * (1.0 - lo);
                let paper = AvailabilityChain::sample_paper(&mut SeedPath::root(seed).rng(), lo, hi);
                for chain in [paper, c] {
                    if let Err(e) = stack_matches_generic(&chain) {
                        prop_assert!(false, "{e}");
                    }
                }
            }

            #[test]
            fn prop_chain_stats_agree_with_direct(c in arb_chain(), w in 1u64..200) {
                let stats = ChainStats::new(c.clone());
                prop_assert!((stats.p_plus() - c.p_plus()).abs() < 1e-12);
                prop_assert!((stats.e_w(w) - c.e_w(w)).abs() < 1e-6 * c.e_w(w));
            }

            #[test]
            fn prop_estimation_recovers_chain(c in arb_chain()) {
                let mut stream = AvailabilityStream::new(
                    c.clone(),
                    ProcState::Up,
                    vg_des::rng::SeedPath::root(7).rng(),
                );
                let trace = stream.take_vec(60_000);
                let mut counts = crate::estimate::TransitionCounts::new();
                counts.observe_trace(&trace);
                let est = counts.estimate(0.5).expect("smoothed");
                for i in 0..3 {
                    for j in 0..3 {
                        prop_assert!(
                            (est.raw()[i][j] - c.raw()[i][j]).abs() < 0.05,
                            "P[{i}][{j}]: {} vs {}", est.raw()[i][j], c.raw()[i][j]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn display_codes() {
        assert_eq!(ProcState::Up.to_string(), "u");
        assert_eq!(ProcState::Reclaimed.to_string(), "r");
        assert_eq!(ProcState::Down.to_string(), "d");
    }
}
