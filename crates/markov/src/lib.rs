//! # vg-markov — availability models for volatile processors
//!
//! Implements Section 5 of Casanova, Dufossé, Robert & Vivien, *"Scheduling
//! Parallel Iterative Applications on Volatile Resources"* (IPDPS 2011), plus
//! the generic machinery needed to verify it:
//!
//! * [`matrix`] — small dense linear algebra (products, powers, solves);
//! * [`chain`] — generic finite Markov chains: stationary distributions,
//!   reachability, absorption probabilities;
//! * [`availability`] — the paper's 3-state (`UP`/`RECLAIMED`/`DOWN`)
//!   processor model with the closed forms of **Lemma 1** (`P₊`) and
//!   **Theorem 2** (`E(W)`), the `P_UD` probability of Section 6.3.3 (exact
//!   and the paper's approximation), and per-slot state streams;
//! * [`dist`] / [`semi_markov`] — non-memoryless sojourn distributions
//!   (Weibull, log-normal, …) and semi-Markov availability processes for the
//!   robustness study the paper proposes as future work;
//! * [`estimate`] — maximum-likelihood estimation of a chain from observed
//!   traces (what a real master would do with its heartbeat log);
//! * [`modulator`] — shared group-level `Normal ⇄ Outage` chains layered on
//!   the per-worker model to produce correlated failure bursts.
//!
//! ## Example: the expectation at the heart of EMCT/UD
//!
//! ```
//! use vg_markov::availability::AvailabilityChain;
//!
//! // A processor that stays UP 92% of slots, gets reclaimed 5%, crashes 3%.
//! let chain = AvailabilityChain::new([
//!     [0.92, 0.05, 0.03],
//!     [0.10, 0.85, 0.05],
//!     [0.04, 0.02, 0.94],
//! ]).unwrap();
//!
//! // Lemma 1: probability of being UP again before crashing.
//! let p_plus = chain.p_plus();
//! assert!(p_plus > 0.9 && p_plus < 1.0);
//!
//! // Theorem 2: expected slots to complete a 10-UP-slot workload,
//! // conditioned on not crashing. Always at least the workload itself.
//! let expected = chain.e_w(10);
//! assert!(expected >= 10.0);
//! ```

// Small fixed-dimension (3x3) matrix code indexes several arrays with one
// loop variable; iterator-zip rewrites obscure the math, so the pedantic
// range-loop lint is disabled crate-wide.
#![allow(clippy::needless_range_loop)]

pub mod availability;
pub mod chain;
pub mod dist;
pub mod estimate;
pub mod matrix;
pub mod modulator;
pub mod semi_markov;

pub use availability::{
    AvailabilityChain, AvailabilityStream, ChainScoreMemo, ChainStats, ProcState, ScoreKernel,
};
pub use chain::{ChainError, MarkovChain};
pub use matrix::{MatrixError, SquareMatrix};
pub use modulator::{ModState, ModulatorError, OutageChain};
