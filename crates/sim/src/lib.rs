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
//! ## Warmed arenas for campaign-scale fan-out
//!
//! Campaigns run hundreds of thousands of short simulations; building each
//! [`Simulation`] from scratch pays ~25 allocations
//! (worker runtimes, chain statistics, the whole slot scratch) before the
//! first slot executes. A [`SimArena`] keeps all of those
//! buffers warm across runs — one arena per worker thread — and
//! [`SimArena::run_seeded`](engine::SimArena::run_seeded) returns a lean
//! [`RunOutcome`] (no strings, no vectors) whose results
//! are **bit-identical** to [`Simulation::run_seeded`](engine::Simulation::run_seeded):
//!
//! ```
//! use vg_core::HeuristicKind;
//! use vg_des::rng::SeedPath;
//! use vg_markov::availability::AvailabilityChain;
//! use vg_platform::{AppConfig, PlatformConfig, ProcessorConfig, StartPolicy};
//! use vg_sim::{SimArena, SimOptions, Simulation};
//!
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
//!
//! let mut arena = SimArena::new();
//! for trial in 0..3 {
//!     let outcome = arena.run_seeded(
//!         &platform,
//!         &app,
//!         HeuristicKind::Emct.build(SeedPath::root(10 + trial).rng()),
//!         SeedPath::root(20 + trial),
//!         SimOptions::default(),
//!     ).unwrap();
//!     // Same seeds through a cold engine give the same answer, bit for bit.
//!     let cold = Simulation::run_seeded(
//!         &platform,
//!         &app,
//!         HeuristicKind::Emct.build(SeedPath::root(10 + trial).rng()),
//!         SeedPath::root(20 + trial),
//!         SimOptions::default(),
//!     ).unwrap();
//!     assert_eq!(outcome.makespan, cold.makespan);
//!     assert_eq!(outcome.slots_run, cold.slots_run);
//! }
//! ```
//!
//! ```
//! use vg_core::HeuristicKind;
//! use vg_des::rng::SeedPath;
//! use vg_markov::availability::AvailabilityChain;
//! use vg_platform::{AppConfig, PlatformConfig, ProcessorConfig, StartPolicy};
//! use vg_sim::{SimOptions, Simulation};
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
//!
//! let report = Simulation::run_seeded(
//!     &platform,
//!     &app,
//!     HeuristicKind::EmctStar.build(SeedPath::root(2).rng()),
//!     SeedPath::root(3),
//!     SimOptions::default(),
//! ).unwrap();
//! assert!(report.finished());
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
    platform_chain_stats, AppOutcome, MultiOutcome, PlacementBudget, RunOutcome, SimArena,
    SimOptions, Simulation,
};
pub use report::{AppReport, Counters, MultiReport, SimReport};
pub use store::WorkerSoA;
pub use task::{CopyId, TaskId};
pub use timeline::{Activity, Timeline};
