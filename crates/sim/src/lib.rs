//! # vg-sim — the volatile-platform master–worker simulator
//!
//! A slot-level discrete-event simulator for the execution model of
//! Casanova, Dufossé, Robert & Vivien (IPDPS 2011), Section 3: iterative
//! master–worker applications on `UP`/`RECLAIMED`/`DOWN` processors with a
//! bounded multi-port master.
//!
//! * [`task`] — tasks, copies (original + ≤ 2 replicas), iteration state;
//! * [`app`] — the application runtime layer: per-app specs and runtimes
//!   ([`app::AppSpec`], [`app::AppRuntime`]), barrier reconfiguration
//!   ([`app::ReconfigPolicy`]) and the task-id namespace that lets several
//!   applications share one worker store;
//! * [`worker`] — the per-worker pipeline (program / data / compute with one
//!   task of look-ahead);
//! * [`store`] — the hot/cold column store [`store::WorkerSoA`] that holds
//!   every worker's pipeline, with its change feed;
//! * [`engine`] — the seven-phase slot loop ([`engine::Simulation`]) and
//!   the warmed arena ([`engine::SimArena`]);
//! * [`report`] — makespans and counters ([`report::SimReport`]).
//!
//! ## Starting a run
//!
//! A [`RunSpec`] holds everything one run needs: the platform, the
//! application roster, the share policy, the [`Availability`] source, an
//! optional fault overlay, the options and the scheduler. It has two
//! consumers. [`Simulation::new`] builds a fresh engine, which returns a
//! full [`SimReport`] and can be driven slot by slot. A [`SimArena`] keeps
//! every engine buffer warm across runs — one arena per worker thread of a
//! campaign spares the ~25 allocations of a fresh engine per run — and
//! [`SimArena::run`] returns a lean [`RunOutcome`] (no strings, no
//! vectors). A fresh engine is the arena's reset applied to empty buffers,
//! so the two agree **bit for bit**:
//!
//! ```
//! use vg_core::HeuristicKind;
//! use vg_des::rng::SeedPath;
//! use vg_markov::availability::AvailabilityChain;
//! use vg_platform::{AppConfig, PlatformConfig, ProcessorConfig, StartPolicy};
//! use vg_sim::{AppSpec, Availability, RunSpec, SimArena, SimOptions, Simulation};
//!
//! // Two statistically identical volatile processors.
//! let mut rng = SeedPath::root(1).rng();
//! let platform = PlatformConfig {
//!     processors: (0..2)
//!         .map(|_| ProcessorConfig::markov(
//!             2,
//!             AvailabilityChain::sample_paper(&mut rng, 0.90, 0.99),
//!             StartPolicy::Up,
//!         ))
//!         .collect(),
//!     ncom: 1,
//! };
//! let app = AppConfig { tasks_per_iteration: 4, iterations: 2, t_prog: 5, t_data: 1 };
//! let apps = [AppSpec::rigid(app)];
//! let spec = |trial: u64| RunSpec::new(
//!     &platform,
//!     &apps,
//!     Availability::Seeded(SeedPath::root(20 + trial)),
//!     HeuristicKind::EmctStar.build(SeedPath::root(10 + trial).rng()),
//!     SimOptions::default(),
//! );
//!
//! let mut arena = SimArena::new();
//! for trial in 0..3 {
//!     let report = Simulation::new(spec(trial)).unwrap().run();
//!     assert!(report.finished());
//!     // The same spec on the warmed arena gives the same answer.
//!     let outcome = arena.run(spec(trial)).unwrap();
//!     assert_eq!(outcome.makespan, report.makespan);
//!     assert_eq!(outcome.slots_run, report.slots_run);
//! }
//! ```

pub mod app;
pub mod engine;
pub mod report;
pub mod store;
pub mod task;
pub mod timeline;
pub mod worker;

pub use app::{AppRuntime, AppSpec, MoldableParams, ReconfigPolicy};
pub use engine::{
    platform_chain_stats, AppOutcome, Availability, NoProbe, PhaseTimer, PlacementBudget, Probe,
    RunOutcome, RunSpec, SimArena, SimOptions, Simulation,
};
pub use report::{AppReport, Counters, MultiReport, SimReport};
pub use store::WorkerSoA;
pub use task::{CopyId, TaskId};
pub use timeline::{Activity, Timeline};
