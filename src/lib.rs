//! # volatile-grid
//!
//! A full Rust implementation of Casanova, Dufossé, Robert & Vivien,
//! *"Scheduling Parallel Iterative Applications on Volatile Resources"*
//! (IPDPS 2011): the 3-state volatile-processor platform model, the Markov
//! availability mathematics of Section 5 (Lemma 1, Theorem 2, `P_UD`), all
//! 17 scheduling heuristics of Section 6, a slot-level simulator for the
//! bounded-multi-port master–worker model of Section 3, the off-line
//! complexity toolkit of Section 4 (DOWN-splitting, optimal MCT for
//! unbounded bandwidth, exact branch-and-bound, the executable Theorem-1
//! 3-SAT reduction), and the complete evaluation campaign of Section 7
//! (Tables 1–3, Figures 1–2).
//!
//! This façade crate re-exports the workspace members under stable names:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`des`] | `vg-des` | deterministic RNG streams, statistics, thread pool |
//! | [`markov`] | `vg-markov` | Markov chains, the availability model, closed forms |
//! | [`platform`] | `vg-platform` | processors, traces, bounded multi-port network, configs |
//! | [`sched`] | `vg-core` | the 17 heuristics (`Random*`, MCT/EMCT/LW/UD ± `*`) |
//! | [`sim`] | `vg-sim` | the slot-level simulator |
//! | [`offline`] | `vg-offline` | Section-4 complexity toolkit |
//! | [`exp`] | `vg-exp` | scenario grids, campaigns, table/figure binaries |
//!
//! ## Quickstart
//!
//! ```
//! use volatile_grid::prelude::*;
//!
//! // A small volatile platform sampled the paper's way.
//! let mut rng = SeedPath::root(1).rng();
//! let platform = PlatformConfig {
//!     processors: (0..4)
//!         .map(|_| ProcessorConfig::markov(
//!             3,
//!             AvailabilityChain::sample_paper(&mut rng, 0.90, 0.99),
//!             StartPolicy::Up,
//!         ))
//!         .collect(),
//!     ncom: 2,
//! };
//! let app = AppConfig { tasks_per_iteration: 6, iterations: 2, t_prog: 5, t_data: 1 };
//!
//! let report = Simulation::new(RunSpec::new(
//!     &platform,
//!     &[AppSpec::rigid(app)],
//!     Availability::Seeded(SeedPath::root(3)),
//!     HeuristicKind::EmctStar.build(SeedPath::root(2).rng()),
//!     SimOptions::default(),
//! ))
//! .unwrap()
//! .run();
//! assert!(report.finished());
//! ```

pub use vg_core as sched;
pub use vg_des as des;
pub use vg_exp as exp;
pub use vg_markov as markov;
pub use vg_offline as offline;
pub use vg_platform as platform;
pub use vg_sim as sim;

/// One-stop imports for applications built on the library.
pub mod prelude {
    pub use vg_core::{
        HeuristicKind, OwnedSchedView, SchedView, SchedViewBuilder, Scheduler, SharePolicy,
    };
    pub use vg_des::prelude::*;
    pub use vg_markov::{
        AvailabilityChain, AvailabilityStream, ChainStats, OutageChain, ProcState,
    };
    pub use vg_platform::volatility::{CorrelatedModel, DiurnalSpec, ScriptedOverlay};
    pub use vg_platform::{
        AppConfig, AvailabilityModelConfig, CompiledScript, FaultScript, PlatformConfig,
        ProcessorConfig, ProcessorId, StartPolicy, TailBehavior, Trace,
    };
    pub use vg_sim::{
        AppReport, AppSpec, Availability, MoldableParams, MultiReport, PlacementBudget,
        ReconfigPolicy, RunSpec, SimOptions, SimReport, Simulation,
    };
}
