//! # vg-des — deterministic simulation substrate
//!
//! Foundations shared by every other crate in the `volatile-grid` workspace:
//!
//! * [`rng`] — splittable, reproducible random-number streams. Every stochastic
//!   component in the workspace draws from a [`rng::StreamRng`] derived from a
//!   master seed and a *label path*, so that two runs with the same seed are
//!   bit-identical and so that independent components (e.g. the availability
//!   trace of processor 7 in trial 3) never share a stream.
//! * [`stats`] — numerically stable online statistics (Welford), summaries
//!   and quantiles used by the experiment harness.
//! * [`par`] — a small scoped thread pool (`std::thread::scope` +
//!   crossbeam channels) used to fan out independent simulation instances
//!   across cores while keeping each instance fully deterministic.
//! * [`det`] — fixed-seed hash collections ([`det::DetHashMap`] /
//!   [`det::DetHashSet`]): the sanctioned replacement for std's
//!   randomly-seeded maps wherever iteration order could leak into results.
//!
//! The simulation model of the paper is *slot based* (discretized time,
//! Section 3.2 of Casanova et al.), so the workspace only needs the [`Slot`]
//! clock type.

pub mod det;
pub mod par;
pub mod rng;
pub mod stats;

/// Discrete time slot index.
///
/// The paper discretizes time (Section 3.2): computations and transfers take
/// an integer number of slots and state changes happen at slot boundaries.
/// Slots are numbered from 0.
pub type Slot = u64;

/// A span measured in slots.
pub type SlotSpan = u64;

/// Convenience prelude re-exporting the most commonly used items.
pub mod prelude {
    pub use crate::par::{par_map, ParallelismConfig};
    pub use crate::rng::{SeedPath, StreamRng};
    pub use crate::stats::{OnlineStats, Summary};
    pub use crate::{Slot, SlotSpan};
}
