//! # vg-core — scheduling heuristics for volatile master–worker platforms
//!
//! The primary contribution of Casanova, Dufossé, Robert & Vivien, *"Scheduling
//! Parallel Iterative Applications on Volatile Resources"* (IPDPS 2011),
//! Section 6: on-line heuristics that pick which `UP` processor receives each
//! of the remaining tasks of the current application iteration.
//!
//! * [`view`] — the information a heuristic may consult ([`SchedView`]);
//! * [`ct`] — the completion-time estimates of Equations (1) and (2);
//! * [`random`] — `Random`, `Random1..4` and speed-weighted `…w` variants;
//! * [`greedy`] — `MCT`, `EMCT`, `LW`, `UD` and their contention-aware `*`
//!   variants;
//! * [`catalog`] — [`HeuristicKind`], the full 17-heuristic roster of
//!   Table 2, with paper-exact names and uniform construction;
//! * [`share`] — [`SharePolicy`], how co-scheduled applications split one
//!   platform's bindable capacity (equal, weighted per DFRS, strict
//!   priority).
//!
//! ```
//! use vg_core::prelude::*;
//! use vg_des::rng::SeedPath;
//! use vg_markov::availability::AvailabilityChain;
//! use vg_markov::ProcState;
//!
//! let chain = AvailabilityChain::new([
//!     [0.95, 0.03, 0.02],
//!     [0.30, 0.65, 0.05],
//!     [0.10, 0.10, 0.80],
//! ]).unwrap();
//!
//! // Two UP processors; the second is twice as fast.
//! let owned = SchedViewBuilder::new(5, 1, 2)
//!     .proc(ProcState::Up, 4, true, 0, chain.clone())
//!     .proc(ProcState::Up, 2, true, 0, chain)
//!     .build();
//!
//! let mut emct = HeuristicKind::Emct.build(SeedPath::root(0).rng());
//! let placements = emct.place(&owned.view(), 1);
//! assert_eq!(placements[0].idx(), 1); // the fast processor wins
//!
//! // Hot paths reuse an output buffer instead (zero-allocation steady state):
//! let mut out = Vec::with_capacity(4);
//! emct.place_into(&owned.view(), 1, &mut out);
//! assert_eq!(out, placements);
//! ```

pub mod catalog;
pub mod ct;
pub mod greedy;
pub mod random;
pub mod selector;
pub mod share;
pub mod traits;
pub mod view;

pub use catalog::HeuristicKind;
pub use selector::SelectorKind;
pub use share::{share_quotas, SharePolicy};
pub use traits::Scheduler;
pub use view::{Lane, OwnedSchedView, ProcSnapshot, SchedView, SchedViewBuilder, ViewDelta};

/// Commonly used items.
pub mod prelude {
    pub use crate::catalog::HeuristicKind;
    pub use crate::share::SharePolicy;
    pub use crate::traits::Scheduler;
    pub use crate::view::{OwnedSchedView, ProcSnapshot, SchedView, SchedViewBuilder};
}
