//! The slot-level simulation engine.
//!
//! Executes a roster of iterative master–worker applications (Section 3;
//! the paper's setting is a roster of one) on a volatile platform under a
//! pluggable scheduling heuristic (Section 6). Each slot proceeds through
//! fixed phases:
//!
//! 1. **States** — every worker draws its state for the slot;
//! 2. **Crashes** — `DOWN` workers lose program, data and partial results
//!    (Section 3.2); their pinned copies return to the pool (originals) or
//!    evaporate (replicas);
//! 3. **Scheduling** — the heuristic places the pool's unstarted originals,
//!    then replicas onto idle `UP` workers (Section 6.1's replication rule:
//!    at most two extra copies, originals take priority). One body serves
//!    every roster: it loops over the applications, and only the pool
//!    budgets differ — a one-app roster takes its [`PlacementBudget`], a
//!    larger one splits the bindable capacity by its [`SharePolicy`];
//! 4. **Transfers** — the master's `ncom` channels are granted: first to
//!    transfers already in flight (begun communications are never
//!    interrupted — the *dynamic* model of Section 6.1), then to new
//!    transfers in placement order; granted transfers progress one slot;
//! 5. **Compute** — `UP` workers with program + data advance their task one
//!    slot; completions are recorded, first copy wins, siblings cancel;
//! 6. **Promotions** — completed data transfers enter the buffer; the buffer
//!    feeds the compute unit;
//! 7. **Slot end** — unstarted bindings dissolve back into the pool
//!    (dynamic re-placement, \[D5\]); the iteration barrier fires when all `m`
//!    tasks are done.
//!
//! Determinism: given equal configurations, seeds and scheduler, two runs
//! produce bit-identical reports. The availability sources are pre-seeded by
//! the caller, so different heuristics can face byte-identical availability
//! (common random numbers, the paper's Section 7 methodology).
//!
//! ## Scratch and borrow lifecycle (the zero-allocation slot loop)
//!
//! Campaign-scale runs execute up to 10⁶ slots per instance, so the slot
//! loop performs **no heap allocation in steady state**. Two mechanisms make
//! that possible:
//!
//! * **Per-run borrows.** Everything a [`vg_core::SchedView`] exposes that
//!   does not change slot-to-slot — one [`ChainStats`] per processor — is
//!   precomputed once in [`Simulation::new`] and stored in `chains`. A view
//!   is then just a pair of borrowed slices (`&scratch.procs`, `&chains`)
//!   plus three scalars, rebuilt for free every slot.
//! * **Per-slot scratch.** Every transient collection the phases need —
//!   processor snapshots, the schedulable-task list, replica candidates,
//!   placement output, the free-worker bitmask, the channel request queue,
//!   per-worker request flags, the completion list, crash/cancel spill
//!   buffers and the timeline activity row — lives in a persistent
//!   `SlotScratch` owned by the engine. Buffers are `clear()`ed and
//!   refilled in place; after the first few slots every buffer has reached
//!   its high-water capacity and the loop stops touching the allocator.
//!   Sorting uses `sort_unstable_by_key` on keys made unique by the worker
//!   index, which is allocation-free and deterministic.
//!
//! Heuristics cooperate through [`Scheduler::place_into`], appending into
//! the engine-owned placement buffer and keeping their own internal scratch
//! (see `vg_core::greedy`). The iteration barrier reuses the
//! `IterationState` buffers via `reset` rather than reallocating them.
//!
//! ## Worker storage, and what checks the engine
//!
//! Per-worker state lives in the hot/cold column store [`WorkerSoA`]
//! (`crate::store`). Every phase above is written as index loops over it,
//! so each pass walks dense columns (1-byte states, the `occupancy` byte
//! for the free-mask and unbind checks) instead of dragging each worker's
//! cold fields through the cache. Two checks pin the engine's behaviour
//! without keeping a second engine alive: a naive transcription of the
//! Section-3 slot model (`tests/section3_oracle.rs`) must reproduce its
//! single-application reports exactly, and a committed corpus of report
//! digests (`crates/sim/tests/golden_grid.rs`) pins the rest — capped,
//! multi-application, arena and platform-scale runs (see
//! `docs/oracle.md`).
//!
//! ## The change-fed slot loop and exact-location cancellation
//!
//! The per-slot `O(p)` walks are avoided by bookkeeping:
//!
//! * **Everything the scheduler sees is patched, not rebuilt.** The store
//!   keeps a deduplicated change feed (see the [`WorkerSoA`] change-feed
//!   contract) naming every worker whose state, pipeline or busyness moved.
//!   `sync_views` drains it into the persistent snapshot buffer and free
//!   mask, and forwards each worker whose candidacy or delay actually
//!   changed to the per-lane sets behind the [`ViewDelta`] each pool or
//!   replica round carries, so a scheduler can patch its own per-lane
//!   state in `O(changed)` as well. The crash pass visits only the workers
//!   the store saw turn `DOWN`. Rounds restricted to a subset of workers
//!   (replicas onto free workers, demand-driven rounds onto workers with
//!   room) name it through [`SchedView::candidates`] instead of masking
//!   the snapshot buffer. Debug builds assert patched ≡ rebuilt at every
//!   consult.
//! * **Sibling cancellation visits only the workers that hold copies.**
//!   A completed task's remaining copies are located from the iteration
//!   state (the pinned original), the bind order (still-bound copies) and
//!   an exact-count early-exit scan for pinned replicas, instead of
//!   scanning every worker per completion (`O(p)` per completed task was
//!   ~27% of slot cost at `p = 1024`); debug builds re-scan and assert
//!   nothing survived.
//!
//! The only remaining steady-state allocations are inside a recorded
//! [`Timeline`] (opt-in via [`SimOptions::record_timeline`], one push per
//! worker-slot) — campaigns leave it off. The `alloc-counter` test harness
//! in `vg-bench` (`cargo test -p vg-bench --features alloc-counter
//! --release`) pins this property as a regression test.

use vg_core::share::{share_quotas, SharePolicy};
use vg_core::view::{Lane, ProcSnapshot, SchedView, ViewDelta};
use vg_core::Scheduler;
use vg_des::rng::SeedPath;
use vg_des::{Slot, SlotSpan};
use vg_markov::availability::{ChainStats, ProcState};
use vg_platform::fault::CompiledScript;
use vg_platform::network::{BandwidthLedger, TransferKind};
use vg_platform::source::{RowSource, SharedTraceMatrix};
use vg_platform::volatility::ScriptedOverlay;
use vg_platform::{AppConfig, ConfigError, PlatformConfig, ProcessorId};

use crate::app::{
    app_of, global_task, iter_for, local_task, AppRuntime, AppSpec, ReconfigPolicy, MAX_APPS,
    MAX_APP_TASKS,
};
use crate::report::{AppReport, Counters, MultiReport, SimReport};
use crate::store::WorkerSoA;
#[cfg(debug_assertions)]
use crate::store::SUMMARY_BLOCK;
use crate::task::{CopyId, OriginalState, TaskId, NO_REPLICA_WORKER};
use crate::timeline::{Activity, SlotMarks, Timeline};
use crate::worker::{ComputeState, TransferState};

/// How many placements the engine requests from the scheduler per slot
/// (see `docs/placement_budget.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementBudget {
    /// Paper-literal: request a placement for **every** pool task, every
    /// slot. Placements that cannot bind dissolve at slot end (\[D5\]) and
    /// are recomputed from scratch next slot — at `p = 1024` that is
    /// hundreds of discarded score evaluations per slot.
    #[default]
    Uncapped,
    /// Demand-driven: cap each pool request at the slot's **bindable
    /// capacity** (workers that are `UP` with bind room), topping up with
    /// bounded re-requests when `try_bind` rejects a placement. Slots where
    /// the pool fits under the capacity take the exact `Uncapped` code
    /// path, so runs in which the cap never *engages* are bit-identical to
    /// `Uncapped` (pinned by `cap_equivalence.rs`); engaging slots may
    /// place differently — the `cap_fidelity` study measures that delta.
    BindCapacity,
}

/// Engine options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOptions {
    /// Hard cap on simulated slots (the run reports incomplete beyond it).
    pub max_slots: Slot,
    /// Enable the Section 6.1 replication policy (at most two extra copies
    /// per task).
    pub replication: bool,
    /// Record a per-slot activity [`Timeline`] (one byte per worker-slot).
    pub record_timeline: bool,
    /// Per-slot placement-request budget (default [`PlacementBudget::Uncapped`]).
    pub placement_budget: PlacementBudget,
}

impl Default for SimOptions {
    fn default() -> Self {
        Self {
            max_slots: 1_000_000,
            replication: true,
            record_timeline: false,
            placement_budget: PlacementBudget::Uncapped,
        }
    }
}

/// What an engine records about its own slot loop, chosen by type as
/// [`Simulation`]'s `P`. The engine reads the clock around each phase and
/// schedule sub-phase only when `TIMED`, so [`NoProbe`] compiles to the
/// bare loop.
pub trait Probe: Default {
    /// Whether the engine times its phases for this probe.
    const TIMED: bool;
    /// Adds `nanos` of wall time to `part`.
    fn add_nanos(&mut self, part: Part, nanos: u64);
}

/// A timed part of the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    /// Phase `i` of [`PhaseTimer::NAMES`].
    Phase(usize),
    /// Schedule sub-phase `i` of [`PhaseTimer::SUB_NAMES`].
    Sub(usize),
}

/// The default [`Probe`]: records nothing, and the engine reads no clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProbe;

impl Probe for NoProbe {
    const TIMED: bool = false;
    fn add_nanos(&mut self, _: Part, _: u64) {}
}

/// A [`Probe`] that sums the wall time of one engine's (fused) slot phases
/// and schedule sub-phases. The `phase_profile` bench in vg-bench zeroes it
/// after warm-up and prints the split per platform size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimer {
    /// Nanoseconds per phase, index-aligned with [`Self::NAMES`].
    pub nanos: [u64; 7],
    /// Nanoseconds per schedule sub-phase, index-aligned with
    /// [`Self::SUB_NAMES`]: the view sync before the pool round
    /// (`snapshot`), the pool (originals) placement and its bind loop, the
    /// replica-candidate generation, the view sync before the replica round
    /// (`free_scan`), the candidate-set fill of demand-driven rounds
    /// (`mask`), and the replica placement and its bind/mint loop. Together
    /// they partition almost all of the `schedule` phase — the split that
    /// showed the Eq.-(2)/Theorem-2 score evaluations, not the snapshot
    /// walk, dominate at `p = 1024`, that separates selector cost (the
    /// `*_place` entries) from bind bookkeeping, and that shows what the
    /// replica phase's candidates-first early-out skips.
    pub sub: [u64; 8],
}

impl PhaseTimer {
    /// Display names of the phases, in slot execution order.
    pub const NAMES: [&str; 7] = [
        "states",
        "crashes",
        "schedule",
        "transfers",
        "compute",
        "promotions+unbind",
        "slot_end",
    ];

    /// Display names of the schedule sub-phases, in slot execution order.
    pub const SUB_NAMES: [&str; 8] = [
        "snapshot",
        "pool_place",
        "pool_bind",
        "cands",
        "free_scan",
        "mask",
        "replica_place",
        "replica_bind",
    ];
}

impl Probe for PhaseTimer {
    const TIMED: bool = true;
    fn add_nanos(&mut self, part: Part, nanos: u64) {
        match part {
            Part::Phase(i) => self.nanos[i] += nanos,
            Part::Sub(i) => self.sub[i] += nanos,
        }
    }
}

/// Snapshot `delay` written for processors that are not `UP`.
///
/// Schedulers never read it — every heuristic restricts placement (and
/// scoring) to `UP` processors — so release builds keep the cheap 0.
/// Debug builds **poison** it instead: a future heuristic that does score
/// a non-UP worker would otherwise silently treat a DOWN machine as
/// zero-delay and prefer it; with the poison, `completion_time`'s
/// `debug_assert` (and, failing that, the `delay + …` overflow check)
/// aborts the run loudly.
const NON_UP_DELAY: SlotSpan = if cfg!(debug_assertions) {
    SlotSpan::MAX
} else {
    0
};

/// Largest platform on which the O(p)-per-slot debug sweeps (the full
/// incremental-vs-full snapshot oracle, the all-worker pipeline invariant
/// walk) stay exhaustive. Beyond it they switch to bounded deterministic
/// samples — at p = 131072 the exhaustive versions make debug builds (and
/// the large-p CI tests) unusable. Covers every paper-scale platform and
/// the whole committed p ≤ 1024 bench/test grid with full strength.
#[cfg(debug_assertions)]
const EXHAUSTIVE_DEBUG_MAX_P: usize = 4096;

/// Width of the rotating per-slot sample window used by the large-p debug
/// sweeps (see [`EXHAUSTIVE_DEBUG_MAX_P`]).
#[cfg(debug_assertions)]
const DEBUG_SAMPLE_WINDOW: usize = 64;

/// Whether debug sweeps must stay exhaustive for a p-worker platform:
/// always at paper/bench scales, opt-in via `VG_FULL_DEBUG_SWEEPS=1`
/// beyond (checked once; debug-only, so the env read can never perturb a
/// release simulation).
#[cfg(debug_assertions)]
fn exhaustive_debug_checks(p: usize) -> bool {
    static FULL: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    p <= EXHAUSTIVE_DEBUG_MAX_P
        || *FULL.get_or_init(|| std::env::var_os("VG_FULL_DEBUG_SWEEPS").is_some_and(|v| v != "0"))
}

/// Runs `$body` for every busy worker `$q` of `$workers`, in ascending
/// order, walking the store's busy bitmap ([`WorkerSoA::busy_word`]) bit by
/// bit — O(busy) instead of O(p), the difference between a volunteer
/// grid's handful of active workers and its 131072-processor platform.
///
/// Each word is **copied** before its bits are drained, so `$body` may
/// mutate occupancy. This is sound in the phases that use it because
/// busyness is *monotone non-increasing* there (no phase below binds new
/// copies): a bit cleared mid-phase belongs to a worker either already
/// visited or re-rejected by `$body`'s own `busy`/state checks, and no bit
/// can newly appear.
macro_rules! for_each_busy_worker {
    ($workers:expr, $q:ident, $body:block) => {{
        for wi in 0..$workers.len().div_ceil(64) {
            let mut word = $workers.busy_word(wi);
            while word != 0 {
                let $q = wi * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                $body
            }
        }
    }};
}

/// Evaluates `$e` and, when the engine's probe is `TIMED`, adds its wall
/// time to `$part` of the probe. `$sim` is the engine (`self`); the caller's
/// scope must name its probe type `P`, as the engine's generic impl does.
macro_rules! timed {
    ($sim:ident, $part:expr, $e:expr) => {{
        // tidy:allow(wall_clock): phase timing for a TIMED probe, never read by simulation logic.
        let start = P::TIMED.then(std::time::Instant::now);
        let r = $e;
        if let Some(start) = start {
            $sim.probe
                .add_nanos($part, start.elapsed().as_nanos() as u64);
        }
        r
    }};
}

/// How a placement round of phase 3 presents the view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Round {
    /// A one-app pool that fits its budget, placed at once: every UP
    /// worker is a candidate, and the view carries the pool lane's delta.
    Pool,
    /// A bounded pool round: the candidates are the workers with bind
    /// room, the view carries the room column and no delta.
    TopUp,
    /// The replica round: the candidates are the free workers, and the
    /// view carries the replica lane's delta.
    Replica,
}

/// A pending channel request during phase 4.
#[derive(Debug, Clone, Copy)]
enum Request {
    /// Continue (or start) the program transfer of a worker.
    Prog { widx: usize },
    /// Continue the in-flight data transfer of a worker.
    DataCont { widx: usize },
    /// Start the data transfer of a bound copy.
    DataNew { widx: usize, copy: CopyId },
}

/// Persistent per-slot scratch space: every transient collection of the
/// seven phases, reused across slots so the steady-state loop never touches
/// the allocator (see the module docs).
#[derive(Debug, Default)]
struct SlotScratch {
    /// Scheduler-visible snapshots. **Persistent across slots**: the buffer
    /// is patched in place at the workers in the store's change feed only
    /// (see `sync_views`).
    procs: Vec<ProcSnapshot>,
    /// Free-worker mask (`free[q]` iff worker `q` is UP and completely
    /// idle): the replica rounds' candidate set, persistent and patched
    /// alongside `procs`.
    free: Vec<bool>,
    /// Number of `true` entries of `free` — the replica path's capacity.
    free_total: usize,
    /// Whether `procs`/`free` describe the current run's platform. Reset at
    /// run start (an arena reuses this scratch across runs and platforms),
    /// forcing the first consult to rebuild fully.
    views_valid: bool,
    /// Per-lane pending sets ([`Lane::index`]) as bitmaps (bit `q % 64` of
    /// word `q / 64`): workers whose candidacy or delay changed since the
    /// lane's previous round.
    lane_bits: [Vec<u64>; Lane::COUNT],
    /// The `changed` list of the round being placed: its lane's pending
    /// set, drained in ascending worker order.
    lane_list: Vec<u32>,
    /// Sequence number of each lane's last round.
    lane_seq: [u64; Lane::COUNT],
    /// Candidate set of demand-driven rounds: `room > 0` when the round
    /// starts.
    with_room: Vec<bool>,
    /// Workers that turned DOWN this slot (phase 2).
    down: Vec<u32>,
    /// Scheduler placement output (phase 3).
    placements: Vec<ProcessorId>,
    /// The tasks of the placement round in progress (phase 3): an
    /// application's pool or its replica candidates, in global ids;
    /// compacted in place as binds succeed.
    pending: Vec<TaskId>,
    /// Pinned-replica workers of the task being sibling-canceled, copied
    /// out of the iteration record before the per-worker cancels mutate it.
    replica_pins: Vec<u32>,
    /// Per-worker remaining bind room for a capped pool round (phase 3):
    /// `2 - occupancy` for UP workers, 0 otherwise, decremented as binds
    /// land. Passed to the scheduler as [`SchedView::room`] so an engaged
    /// round never stacks placements past what `try_bind` can accept.
    /// Untouched on the uncapped path.
    room: Vec<u8>,
    /// In-flight transfer continuations, sorted by (began_at, widx).
    continuations: Vec<(Slot, usize, Request)>,
    /// The channel request queue in grant priority order (phase 4).
    requests: Vec<Request>,
    /// Per-worker "already requested the program this slot" flags.
    prog_requested: Vec<bool>,
    /// Per-worker "already requested data this slot" flags.
    data_requested: Vec<bool>,
    /// Copies that finished computing this slot (phase 5).
    completions: Vec<(usize, CopyId)>,
    /// This slot's availability states, one per worker (phase 1).
    state_row: Vec<ProcState>,
    /// Spill buffer for crash losses and sibling cancellations.
    copies: Vec<CopyId>,
    /// One activity row for timeline recording (phase 7).
    activities: Vec<Activity>,
    /// Per-application share weights of the slot (0 for finished apps);
    /// multi-application slots only.
    weights: Vec<u32>,
    /// Per-application pool budgets of the slot (`pool_quotas` output:
    /// the [`share_quotas`] split, or one unbounded entry for a one-app
    /// roster).
    quotas: Vec<usize>,
}

impl SlotScratch {
    /// Readies the scratch for a run on `p` workers and `m` tasks per
    /// iteration: the persistent views are invalidated (an arena reuses
    /// this scratch across runs and platforms), and every buffer is grown
    /// to its steady-state high-water mark — a no-op once warm.
    fn reset(&mut self, p: usize, m: usize) {
        macro_rules! reserve {
            ($n:expr => $($buf:ident),+) => { $(reserve_total(&mut self.$buf, $n);)+ };
        }
        self.views_valid = false;
        for bits in &mut self.lane_bits {
            reserve_total(bits, p.div_ceil(64));
        }
        reserve!(p => procs, free, lane_list, with_room, down, room, continuations);
        reserve!(p => prog_requested, data_requested, completions, state_row, activities);
        reserve!(m => pending);
        reserve!(m.max(p) => placements);
        reserve!(2 * p => requests);
        reserve!(4 => replica_pins, weights, quotas);
        reserve!(8 => copies);
    }
}

/// Lean result of an arena run: what a campaign aggregation needs, nothing
/// it doesn't. No owned strings or vectors, so producing one allocates
/// nothing — the full [`SimReport`] stays available through
/// [`Simulation::run`] when timelines or counters are wanted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Total slots to complete all iterations; `None` if the cap was hit.
    pub makespan: Option<Slot>,
    /// Slots actually simulated.
    pub slots_run: Slot,
    /// Iterations completed before the run ended.
    pub completed_iterations: u64,
}

impl RunOutcome {
    /// Makespan if complete, otherwise the burned slot cap (the
    /// pessimistic-but-total metric; see [`SimReport::makespan_or_cap`]).
    #[must_use]
    pub fn makespan_or_cap(&self) -> Slot {
        self.makespan.unwrap_or(self.slots_run)
    }

    /// True when every requested iteration completed.
    #[must_use]
    pub fn finished(&self) -> bool {
        self.makespan.is_some()
    }
}

/// Lean per-application result of an arena run — the [`RunOutcome`]-shaped
/// slice of one application's bookkeeping ([`SimArena::app_outcomes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppOutcome {
    /// Slots until this application's final barrier; `None` if the run
    /// ended (all-done or slot cap) before it finished.
    pub makespan: Option<Slot>,
    /// Iterations the application completed before the run ended.
    pub completed_iterations: u64,
    /// `tasks_per_iteration` of the application's *last* iteration — under
    /// [`crate::app::ReconfigPolicy::Moldable`] this is where the final
    /// resize landed.
    pub final_m: usize,
    /// Task completions credited to this application.
    pub tasks_completed: u64,
}

/// Where a run's availability states come from. Every variant drives both
/// consumers, [`Simulation::new`] and [`SimArena::run`], with the same
/// results; `docs/scaling.md` ("Starting a run") says which caller uses
/// which. The live variants end up as one [`RowSource`].
pub enum Availability<'a> {
    /// [`PlatformConfig::seeded_rows`]`(seeds)`: processor `q` seeded from
    /// `seeds.child(q)`, through the dense
    /// [`vg_platform::MarkovSourceBank`] on all-Markov platforms and boxed
    /// per-processor sources otherwise.
    Seeded(SeedPath),
    /// A caller-built row source: boxed per-processor sources in
    /// processor order (`Box::new(sources)` over a
    /// `Vec<Box<dyn AvailabilitySource>>`, when the caller wraps or
    /// reseeds them) or a whole-row generator such as
    /// [`vg_platform::volatility::CorrelatedSource`], which is how
    /// cross-worker correlation enters the engine without touching
    /// per-worker seed streams.
    Rows(Box<dyn RowSource>),
    /// A recording shared by every heuristic of an instance, read row by
    /// row — one borrow and `p` byte reads per slot — so replaying runs
    /// skip per-processor sampling entirely.
    Shared {
        /// The recording; rows beyond its horizon are sampled on demand.
        trace: &'a SharedTraceMatrix,
        /// The platform's [`PlatformConfig::chain_stats`], computed once
        /// by the caller and shared across the platform's runs.
        chains: &'a [ChainStats],
    },
}

/// Everything one run needs. It is the only way to start a simulation:
/// [`Simulation::new`] builds a fresh engine from it and [`SimArena::run`]
/// runs it on warmed buffers. Both validate it the same way and reset
/// their buffers with the same routine, so they agree bit for bit.
pub struct RunSpec<'a> {
    /// The platform.
    pub platform: &'a PlatformConfig,
    /// The co-scheduled application roster, in engine app order; the
    /// paper's single application is `&[AppSpec::rigid(app)]`.
    pub apps: &'a [AppSpec],
    /// How multi-application slots split bindable capacity between the
    /// roster's pools (never consulted with one application).
    pub share: SharePolicy,
    /// Where the states come from.
    pub availability: Availability<'a>,
    /// A scripted fault overlay, forcing states onto each row *after* it
    /// is drawn. The base streams stay untouched, so every heuristic of an
    /// instance still faces byte-identical availability (common random
    /// numbers) with the same faults on top. `None` and a passthrough
    /// script leave every row as drawn; actual changes land in
    /// [`Counters::injected_faults`].
    pub overlay: Option<&'a CompiledScript>,
    /// Engine options.
    pub options: SimOptions,
    /// The heuristic.
    pub scheduler: Box<dyn Scheduler>,
}

impl<'a> RunSpec<'a> {
    /// A spec with the default share policy and no overlay; set those
    /// with struct-update syntax.
    #[must_use]
    pub fn new(
        platform: &'a PlatformConfig,
        apps: &'a [AppSpec],
        availability: Availability<'a>,
        scheduler: Box<dyn Scheduler>,
        options: SimOptions,
    ) -> Self {
        Self {
            platform,
            apps,
            share: SharePolicy::default(),
            availability,
            overlay: None,
            options,
            scheduler,
        }
    }

    /// The validation both consumers share: the platform, the roster, and
    /// the width of the availability and the overlay.
    fn validate(&self) -> Result<(), ConfigError> {
        self.platform.validate()?;
        validate_app_specs(self.apps)?;
        let p = self.platform.p();
        let width = match &self.availability {
            Availability::Seeded(_) => p,
            Availability::Rows(rows) => rows.p(),
            Availability::Shared { trace, chains } => {
                if chains.len() != p {
                    // tidy:allow(hot_alloc): config-validation error path, taken before any slot runs.
                    return Err(ConfigError(format!(
                        "{} chain stats for a {p}-processor platform",
                        chains.len()
                    )));
                }
                trace.p()
            }
        };
        if width != p {
            // tidy:allow(hot_alloc): config-validation error path, taken before any slot runs.
            return Err(ConfigError(format!(
                "availability spans {width} workers on a {p}-processor platform"
            )));
        }
        self.overlay.map_or(Ok(()), |s| check_overlay(s.p(), p))
    }
}

/// Rejects a fault script compiled for another platform size.
fn check_overlay(script_p: usize, p: usize) -> Result<(), ConfigError> {
    if script_p == p {
        return Ok(());
    }
    // tidy:allow(hot_alloc): config-validation error path, taken before any slot runs.
    Err(ConfigError(format!(
        "fault script compiled for {script_p} workers on a {p}-processor platform"
    )))
}

/// A **warmed simulation arena**: every per-run buffer of the engine —
/// worker runtimes (including their `bound` vectors), chain statistics,
/// iteration bookkeeping, the whole `SlotScratch`, slot marks and the
/// bind-order queue — kept alive across runs so that back-to-back
/// simulations stop paying the ~25-allocation construction cost of a
/// fresh engine. Availability is not among them: an
/// [`Availability::Seeded`] run builds its row source afresh, and the
/// campaign path ([`Availability::Shared`]) only takes a handle.
///
/// Intended use: one arena per worker thread of a campaign fan-out, driven
/// through [`SimArena::run`] for every (heuristic, trial) instance. A fresh
/// [`Simulation::new`] is the same reset applied to empty buffers, so the
/// results are bit-identical — the arena only recycles allocations, never
/// state, and determinism tests pin the equivalence.
///
/// Timeline recording is not supported here (a timeline's size is the run's
/// output, not scratch); request it through [`Simulation`] instead.
#[derive(Default)]
pub struct SimArena {
    workers: WorkerSoA,
    chains: Vec<ChainStats>,
    apps: Vec<AppRuntime>,
    iteration_completed_at: Vec<Slot>,
    bind_order: Vec<(usize, CopyId)>,
    scratch: SlotScratch,
    slot_marks: Vec<SlotMarks>,
}

impl std::fmt::Debug for SimArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimArena")
            .field("warmed_workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl SimArena {
    /// An empty (cold) arena; buffers warm up over the first run.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs one simulation to its end on this arena's buffers.
    ///
    /// # Errors
    /// The spec's validation errors (see [`Simulation::new`]), and
    /// [`SimOptions::record_timeline`], which arenas do not support.
    pub fn run(&mut self, spec: RunSpec<'_>) -> Result<RunOutcome, ConfigError> {
        if spec.options.record_timeline {
            return Err(ConfigError(
                "SimArena does not record timelines; use Simulation::new".into(),
            ));
        }
        spec.validate()?;
        let mut sim: Simulation = Simulation::assemble(spec, self);
        while !sim.is_done() {
            sim.step();
        }
        let outcome = RunOutcome {
            makespan: sim.makespan(),
            slots_run: sim.slot,
            completed_iterations: sim.completed_iterations(),
        };
        sim.release_into(self);
        Ok(outcome)
    }

    /// Per-application outcomes of the last successful [`Self::run`], in
    /// roster order; empty before the first run.
    pub fn app_outcomes(&self) -> impl ExactSizeIterator<Item = AppOutcome> + '_ {
        self.apps.iter().map(|rt| AppOutcome {
            makespan: rt.completed_at.map(|s| s + 1),
            completed_iterations: rt.iterations_done,
            final_m: rt.iter.m(),
            tasks_completed: rt.tasks_completed,
        })
    }

    /// A single-application [`Self::run`] over [`Availability::Shared`]
    /// plus an optional overlay. Kept for the external benchmark harness
    /// under `perfbench/`, which calls it by name.
    ///
    /// # Errors
    /// As [`Self::run`].
    #[allow(clippy::too_many_arguments)] // the benchmark contract's signature
    pub fn run_shared_trace_overlay(
        &mut self,
        platform: &PlatformConfig,
        app: &AppConfig,
        scheduler: Box<dyn Scheduler>,
        chains: &[ChainStats],
        trace: &SharedTraceMatrix,
        script: Option<&CompiledScript>,
        options: SimOptions,
    ) -> Result<RunOutcome, ConfigError> {
        let shared = Availability::Shared { trace, chains };
        let apps = [AppSpec::rigid(*app)];
        self.run(RunSpec {
            overlay: script,
            ..RunSpec::new(platform, &apps, shared, scheduler, options)
        })
    }
}

/// Validates a co-scheduled application roster: 1 to [`MAX_APPS`]
/// applications, each individually valid with a non-zero share weight
/// (the schedule phase weighs finished applications 0), every
/// `tasks_per_iteration` inside the per-app task-id namespace
/// ([`MAX_APP_TASKS`]), and all communication parameters equal —
/// `T_prog`/`T_data` describe the shared platform links, so co-scheduled
/// applications cannot disagree on them.
fn validate_app_specs(specs: &[AppSpec]) -> Result<(), ConfigError> {
    if specs.is_empty() {
        return Err(ConfigError("at least one application is required".into()));
    }
    if specs.len() > MAX_APPS {
        // tidy:allow(hot_alloc): config-validation error path, taken before any slot runs.
        return Err(ConfigError(format!(
            "{} applications exceed the supported maximum of {MAX_APPS}",
            specs.len()
        )));
    }
    let (t_prog, t_data) = (specs[0].config.t_prog, specs[0].config.t_data);
    for (i, spec) in specs.iter().enumerate() {
        spec.config.validate()?;
        if spec.weight == 0 {
            // tidy:allow(hot_alloc): config-validation error path, taken before any slot runs.
            return Err(ConfigError(format!("application {i} has share weight 0")));
        }
        if spec.config.tasks_per_iteration > MAX_APP_TASKS {
            // tidy:allow(hot_alloc): config-validation error path, taken before any slot runs.
            return Err(ConfigError(format!(
                "application {i}: {} tasks per iteration exceed the per-app task-id namespace ({MAX_APP_TASKS})",
                spec.config.tasks_per_iteration
            )));
        }
        if spec.config.t_prog != t_prog || spec.config.t_data != t_data {
            // tidy:allow(hot_alloc): config-validation error path, taken before any slot runs.
            return Err(ConfigError(format!(
                "application {i} disagrees on communication parameters \
                 (T_prog/T_data are platform-wide under co-scheduling)"
            )));
        }
    }
    Ok(())
}

/// [`PlatformConfig::chain_stats`], collected. Kept for the external
/// benchmark harness under `perfbench/`, which calls it by name.
#[must_use]
pub fn platform_chain_stats(platform: &PlatformConfig) -> Vec<ChainStats> {
    platform.chain_stats().collect() // tidy:allow(hot_alloc): once-per-platform precompute, shared across all runs.
}

/// Grows `v`'s capacity to at least `n` (a no-op on a warmed buffer).
fn reserve_total<T>(v: &mut Vec<T>, n: usize) {
    v.reserve(n.saturating_sub(v.len()));
}

/// Where a run's availability states come from, as the slot loop reads
/// them ([`Availability`] resolved).
enum SourceBank {
    /// A live row source.
    Rows(Box<dyn RowSource>),
    /// A shared recording, consumed row-by-row.
    Shared {
        trace: SharedTraceMatrix,
        next_slot: usize,
    },
}

/// The communication parameters every application of a run shares.
///
/// `T_prog`/`T_data` are properties of the platform's links, not of any one
/// application, so co-scheduled applications must agree on them
/// ([`validate_app_specs`] enforces this). Kept under the historical field
/// name `app` inside [`Simulation`] because the phases read `app.t_prog` /
/// `app.t_data` exactly where the old single-app config lived.
#[derive(Debug, Clone, Copy)]
struct CommParams {
    t_prog: SlotSpan,
    t_data: SlotSpan,
}

/// The simulation engine. Construct with [`Simulation::new`], consume with
/// [`Simulation::run`] (or drive slot-by-slot with [`Simulation::step`]).
///
/// One engine drives a *roster* of application runtimes over the shared
/// worker store ([`crate::app::AppRuntime`]); a one-app roster is the
/// historical single-application engine, bit for bit. Task ids in worker
/// columns are namespaced by application ([`crate::app`]).
///
/// Both type parameters are defaulted, in the
/// `HashMap<K, V, S = RandomState>` style. `S` is the worker store: the
/// engine always runs on [`WorkerSoA`], and the parameter stays because the
/// external benchmark harness under `perfbench/` names the type as
/// `Simulation::<WorkerSoA>`. `P` is the [`Probe`] the engine owns: the
/// default [`NoProbe`] reads no clock, and [`PhaseTimer`] sums this
/// engine's phase times. The constructors build a `NoProbe` engine, and
/// [`Simulation::with_probe`] builds one with any probe.
pub struct Simulation<S = WorkerSoA, P = NoProbe> {
    app: CommParams,
    /// The co-scheduled application runtimes, engine app order. Never
    /// empty; a one-app roster skips the share split of the schedule
    /// phase and takes its [`PlacementBudget`] instead.
    apps: Vec<AppRuntime>,
    /// How multi-application slots split bindable capacity between the
    /// roster's pools (never consulted with a single application).
    share: SharePolicy,
    workers: S,
    sources: SourceBank,
    /// Per-run chain statistics, built once and borrowed by every view.
    chains: Vec<ChainStats>,
    scheduler: Box<dyn Scheduler>,
    ledger: BandwidthLedger,
    options: SimOptions,

    slot: Slot,
    /// Combined barrier record: every application's barrier slots, merged
    /// in (slot, app-index) order. Per-app records live on the runtimes.
    iteration_completed_at: Vec<Slot>,
    counters: Counters,
    /// Bind order of this slot: (worker, copy), originals before replicas.
    bind_order: Vec<(usize, CopyId)>,
    /// Slots where the [`PlacementBudget::BindCapacity`] cap actually
    /// clipped the pool request (pool larger than the bindable capacity).
    /// Always 0 under [`PlacementBudget::Uncapped`]. Deliberately **not**
    /// part of [`SimReport`]/[`Counters`]: a capped run that never engages
    /// must stay byte-identical to its uncapped twin, counter for counter.
    cap_engagements: u64,
    /// Scripted fault injector ([`RunSpec::overlay`]), applied to every
    /// sampled state row *after* the source bank fills it. `None` — and a
    /// passthrough overlay — leave rows untouched, so the overlaid run is
    /// byte-identical to the base (the chaos_equivalence grid pins this).
    overlay: Option<ScriptedOverlay>,
    scratch: SlotScratch,
    timeline: Option<Timeline>,
    slot_marks: Vec<SlotMarks>,
    probe: P,
}

impl Simulation {
    /// Builds a fresh engine from `spec`: the arena's reset applied to
    /// empty buffers.
    ///
    /// # Errors
    /// An invalid platform or roster (empty or oversized rosters, per-app
    /// config problems, mismatched communication parameters), and
    /// availability or an overlay whose width is not the platform's.
    pub fn new(spec: RunSpec<'_>) -> Result<Self, ConfigError> {
        Self::with_probe(spec)
    }

    /// A single-application [`Simulation::new`] over
    /// [`Availability::Seeded`]. Kept for the external benchmark harness
    /// under `perfbench/`, which calls it by name.
    ///
    /// # Errors
    /// As [`Simulation::new`].
    pub fn new_seeded(
        platform: &PlatformConfig,
        app: &AppConfig,
        scheduler: Box<dyn Scheduler>,
        trace_seeds: SeedPath,
        options: SimOptions,
    ) -> Result<Self, ConfigError> {
        let seeded = Availability::Seeded(trace_seeds);
        Self::new(RunSpec::new(
            platform,
            &[AppSpec::rigid(*app)],
            seeded,
            scheduler,
            options,
        ))
    }

    /// A single-application [`Simulation::new`] over
    /// [`Availability::Rows`]. Kept for the external benchmark harness
    /// under `perfbench/`, which calls it by name.
    ///
    /// # Errors
    /// As [`Simulation::new`].
    pub fn new_rows_in(
        platform: &PlatformConfig,
        app: &AppConfig,
        scheduler: Box<dyn Scheduler>,
        rows: Box<dyn RowSource>,
        options: SimOptions,
    ) -> Result<Self, ConfigError> {
        let rows = Availability::Rows(rows);
        Self::new(RunSpec::new(
            platform,
            &[AppSpec::rigid(*app)],
            rows,
            scheduler,
            options,
        ))
    }

    /// Installs a scripted fault overlay on a freshly built engine, as
    /// [`RunSpec::overlay`] does. Kept for the external benchmark harness
    /// under `perfbench/`, which calls it by name.
    ///
    /// # Errors
    /// A script compiled for another platform size.
    pub fn set_overlay(&mut self, overlay: ScriptedOverlay) -> Result<(), ConfigError> {
        check_overlay(overlay.p(), self.chains.len())?;
        self.overlay = Some(overlay);
        Ok(())
    }
}

impl<P: Probe> Simulation<WorkerSoA, P> {
    /// [`Simulation::new`] for an engine that owns a `P` probe, e.g.
    /// `Simulation::<WorkerSoA, PhaseTimer>::with_probe(spec)`.
    ///
    /// # Errors
    /// As [`Simulation::new`].
    pub fn with_probe(spec: RunSpec<'_>) -> Result<Self, ConfigError> {
        spec.validate()?;
        Ok(Self::assemble(spec, &mut SimArena::default()))
    }

    /// This engine's probe, to read or to reset between slots.
    pub fn probe(&mut self) -> &mut P {
        &mut self.probe
    }

    /// Builds an engine from a validated `spec`, taking the buffers it
    /// needs out of `bufs` and resetting them for the run; the one routine
    /// under both [`Simulation::new`] (empty buffers) and [`SimArena::run`]
    /// (warmed ones). Buffers a run does not use stay in `bufs`.
    fn assemble(spec: RunSpec<'_>, bufs: &mut SimArena) -> Self {
        let RunSpec {
            platform,
            apps: specs,
            share,
            availability,
            overlay,
            options,
            mut scheduler,
        } = spec;
        scheduler.begin_run();
        let p = platform.p();
        let mut chains = std::mem::take(&mut bufs.chains);
        chains.clear();
        match &availability {
            Availability::Shared { chains: shared, .. } => chains.extend_from_slice(shared),
            _ => chains.extend(platform.chain_stats()),
        }
        let sources = match availability {
            Availability::Seeded(seeds) => SourceBank::Rows(platform.seeded_rows(seeds)),
            Availability::Rows(rows) => SourceBank::Rows(rows),
            Availability::Shared { trace, .. } => SourceBank::Shared {
                trace: trace.handle(),
                next_slot: 0,
            },
        };
        let mut workers = std::mem::take(&mut bufs.workers);
        workers.reset_for(platform.processors.iter().map(|pc| pc.spec));
        // Existing runtimes re-initialize in place (keeping their
        // iteration-state buffers); entries beyond the roster are dropped.
        let mut apps = std::mem::take(&mut bufs.apps);
        apps.truncate(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            match apps.get_mut(i) {
                Some(rt) => rt.reinit(i, spec),
                None => apps.push(AppRuntime::new(i, spec)),
            }
        }
        let total_m: usize = specs.iter().map(|s| s.config.tasks_per_iteration).sum();
        let total_iterations: u64 = specs.iter().map(|s| s.config.iterations).sum();
        let mut iteration_completed_at = std::mem::take(&mut bufs.iteration_completed_at);
        iteration_completed_at.clear();
        reserve_total(&mut iteration_completed_at, total_iterations as usize);
        let mut bind_order = std::mem::take(&mut bufs.bind_order);
        bind_order.clear();
        reserve_total(&mut bind_order, p);
        let mut scratch = std::mem::take(&mut bufs.scratch);
        scratch.reset(p, total_m);
        let mut slot_marks = std::mem::take(&mut bufs.slot_marks);
        slot_marks.clear();
        slot_marks.resize(p, SlotMarks::default());
        Self {
            app: CommParams {
                t_prog: specs[0].config.t_prog,
                t_data: specs[0].config.t_data,
            },
            apps,
            share,
            workers,
            sources,
            chains,
            scheduler,
            ledger: BandwidthLedger::new(platform.ncom),
            options,
            slot: 0,
            iteration_completed_at,
            counters: Counters::default(),
            bind_order,
            cap_engagements: 0,
            // tidy:allow(hot_alloc): per-run overlay construction, before the first slot.
            overlay: overlay.map(|s| ScriptedOverlay::new(s.clone())),
            scratch,
            timeline: options.record_timeline.then(|| Timeline::new(p)),
            slot_marks,
            probe: P::default(),
        }
    }

    /// Hands this engine's reusable buffers back to `bufs`.
    fn release_into(self, bufs: &mut SimArena) {
        bufs.workers = self.workers;
        bufs.chains = self.chains;
        bufs.apps = self.apps;
        bufs.iteration_completed_at = self.iteration_completed_at;
        bufs.bind_order = self.bind_order;
        bufs.scratch = self.scratch;
        bufs.slot_marks = self.slot_marks;
    }

    /// Runs to completion (all iterations done or slot cap hit).
    #[must_use]
    pub fn run(mut self) -> SimReport {
        while !self.is_done() {
            self.step();
        }
        self.into_report()
    }

    /// Runs to completion and splits the result per application. The
    /// combined report equals [`Self::run`]'s; the per-app reports add each
    /// application's own barrier history and final size.
    #[must_use]
    pub fn run_multi(mut self) -> MultiReport {
        while !self.is_done() {
            self.step();
        }
        self.into_multi_report()
    }

    /// True when the run is over: every application finished or the slot
    /// cap was hit.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.apps.iter().all(AppRuntime::finished) || self.slot >= self.options.max_slots
    }

    /// Slots simulated so far.
    #[must_use]
    pub fn slots_run(&self) -> Slot {
        self.slot
    }

    /// Slots where the [`PlacementBudget::BindCapacity`] cap actually
    /// clipped the pool request. Always 0 under
    /// [`PlacementBudget::Uncapped`]; a capped run reporting 0 here took
    /// the uncapped code path on every slot and is therefore byte-identical
    /// to its uncapped twin (the `cap_equivalence` grid pins this).
    #[must_use]
    // tidy:allow(dead_pub): tests/cap_equivalence.rs and tests/golden_grid.rs assert the cap engaged
    pub fn cap_engagements(&self) -> u64 {
        self.cap_engagements
    }

    /// The combined makespan: `Some(slot)` once every application
    /// finished. The last iteration finished during slot `slot − 1` and
    /// `step` increments `slot` after each slot, so `slot` is exactly the
    /// number of slots consumed.
    fn makespan(&self) -> Option<Slot> {
        self.apps
            .iter()
            .all(AppRuntime::finished)
            .then_some(self.slot)
    }

    /// Iterations completed so far, over every application.
    fn completed_iterations(&self) -> u64 {
        self.apps.iter().map(|a| a.iterations_done()).sum()
    }

    /// Finishes a (possibly partial) run into its report.
    #[must_use]
    pub fn into_report(self) -> SimReport {
        self.finish().0
    }

    /// Finishes a (possibly partial) run into the combined report plus one
    /// [`AppReport`] per application, in engine app order. The combined
    /// part is exactly what [`Self::into_report`] would have produced.
    #[must_use]
    fn into_multi_report(self) -> MultiReport {
        let (combined, apps) = self.finish();
        let apps = apps
            .into_iter()
            .map(|rt| AppReport {
                completed_iterations: rt.iterations_done,
                // Same slot-count semantics as the combined makespan: the
                // final barrier fired during slot `s`, so the application
                // consumed `s + 1` slots.
                makespan: rt.completed_at.map(|s| s + 1),
                final_m: rt.iter.m(),
                tasks_completed: rt.tasks_completed,
                iteration_completed_at: rt.iteration_completed_at,
            })
            .collect(); // tidy:allow(hot_alloc): per-run report assembly, after the slot loop.
        MultiReport { combined, apps }
    }

    /// The combined report, plus the runtimes the per-app reports read.
    fn finish(self) -> (SimReport, Vec<AppRuntime>) {
        let report = SimReport {
            scheduler: self.scheduler.name().to_string(),
            completed_iterations: self.completed_iterations(),
            makespan: self.makespan(),
            slots_run: self.slot,
            iteration_completed_at: self.iteration_completed_at,
            counters: self.counters,
            mean_bandwidth_utilization: self.ledger.mean_utilization(),
            timeline: self.timeline,
        };
        (report, self.apps)
    }

    /// One slot through all seven phases. Public so benches and the
    /// allocation-counting harness can drive the loop slot-by-slot.
    ///
    /// Phases 6+7 are fused into a single pass over the busy workers —
    /// their per-worker operations are independent, so the interleaving is
    /// unobservable and the phase semantics of the module docs hold
    /// unchanged.
    pub fn step(&mut self) {
        timed!(self, Part::Phase(0), self.phase_states());
        timed!(self, Part::Phase(1), self.phase_crashes());
        timed!(self, Part::Phase(2), self.phase_schedule());
        timed!(self, Part::Phase(3), self.phase_transfers());
        timed!(self, Part::Phase(4), self.phase_compute());
        timed!(self, Part::Phase(5), self.phase_promotions_and_unbind());
        timed!(self, Part::Phase(6), self.phase_slot_end());
        self.slot += 1;
    }

    /// Phase 1: every worker draws its state for the slot.
    fn phase_states(&mut self) {
        let Self {
            workers,
            sources,
            scratch,
            counters,
            slot,
            overlay,
            ..
        } = self;
        let state_row = &mut scratch.state_row;
        state_row.clear();
        match sources {
            SourceBank::Rows(rows) => rows.next_row_into(state_row),
            SourceBank::Shared { trace, next_slot } => {
                trace.with_row(*next_slot, |row| state_row.extend_from_slice(row));
                *next_slot += 1;
            }
        }
        // Scripted chaos hook: force states *after* sampling so the base RNG
        // schedule is untouched; only actual flips count as injections. Kept
        // out of line so un-scripted runs pay one never-taken branch here.
        #[cold]
        #[inline(never)]
        fn apply_overlay(
            ov: &mut ScriptedOverlay,
            counters: &mut Counters,
            slot: Slot,
            row: &mut [ProcState],
        ) {
            counters.injected_faults += ov.apply_row(slot, row);
        }
        if let Some(ov) = overlay {
            apply_overlay(ov, counters, *slot, state_row);
        }
        workers.set_states(state_row);
        // State census: O(1) from the store's maintained counts.
        for (i, n) in workers.census().into_iter().enumerate() {
            counters.state_slots[i] += n as u64;
        }
        if self.timeline.is_some() {
            self.slot_marks.fill(SlotMarks::default());
        }
    }

    /// Phase 2: workers that turned `DOWN` lose program, data and partial
    /// results. Only a *new* `DOWN` worker can hold anything — a worker
    /// that stayed `DOWN` was emptied when it went down, and nothing binds
    /// to (or transfers to, or computes on) a non-`UP` worker — so the pass
    /// visits the store's went-down list, in ascending order.
    fn phase_crashes(&mut self) {
        let Self {
            workers,
            scratch,
            counters,
            apps,
            ..
        } = self;
        let SlotScratch { copies, down, .. } = scratch;
        down.clear();
        down.extend_from_slice(workers.went_down());
        for &q in down.iter() {
            let q = q as usize;
            copies.clear();
            workers.crash_into(q, copies);
            for &copy in copies.iter() {
                counters.copies_lost_to_down += 1;
                let (it, lt) = iter_for(apps, copy.task);
                if copy.is_original() {
                    it.release_original(lt);
                } else {
                    it.drop_replica(lt);
                    it.clear_replica_pin(lt, q);
                }
            }
        }
        // Nothing a DOWN worker could hold survived (debug).
        #[cfg(debug_assertions)]
        if exhaustive_debug_checks(workers.len()) {
            for q in 0..workers.len() {
                if workers.state(q) == ProcState::Down {
                    debug_assert!(
                        workers.is_idle(q) && workers.prog_done(q) == 0,
                        "DOWN worker {q} kept state past the crash pass"
                    );
                }
            }
        }
    }

    /// Snapshot entry of worker `q` as a from-scratch build would write
    /// it.
    #[inline]
    fn fresh_snapshot(workers: &WorkerSoA, app: CommParams, q: usize) -> ProcSnapshot {
        let (state, has_program, delay) = Self::slot_fields(workers, app, q);
        ProcSnapshot {
            // q < u32::MAX: PlatformConfig::validate bounds the platform
            // by MAX_PROCESSORS at construction.
            id: ProcessorId(q as u32),
            state,
            w: workers.w(q),
            has_program,
            delay,
        }
    }

    /// The slot-varying snapshot fields of worker `q` — state, program
    /// possession, `Delay(q)`; `id` and `w` are per-run constants.
    #[inline]
    fn slot_fields(workers: &WorkerSoA, app: CommParams, q: usize) -> (ProcState, bool, SlotSpan) {
        let state = workers.state(q);
        // Schedulers only place on (and only read the delay of) UP
        // processors, so the pipeline walk is skipped for the rest (see
        // NON_UP_DELAY).
        let delay = if state == ProcState::Up {
            workers.delay_estimate(q, app.t_prog, app.t_data)
        } else {
            NON_UP_DELAY
        };
        (state, workers.has_program(q, app.t_prog), delay)
    }

    /// Brings everything a scheduler view borrows up to date for the
    /// current slot (\[D1\]: states of the current slot are observable;
    /// nothing about the future is): the snapshot buffer, the free mask and
    /// its total, and the per-lane change lists. The per-run `chains`
    /// slice completes the view.
    ///
    /// The buffers are **patched in place** at the workers in the store's
    /// change feed only — every snapshot field and the free bit are pure
    /// functions of the worker's own columns, so an unfed worker's cached
    /// entries are exact. A worker joins a lane's change list when its
    /// candidacy for that lane (UP for the pool lane, free for the replica
    /// lane) flipped, or its delay moved while it is a candidate. The feed
    /// is sticky across unconsulted slots, so the consult can stay lazy.
    /// The first consult of a run rebuilds everything, and debug builds
    /// cross-check the patched buffers against a rebuild.
    fn sync_views(&mut self) {
        #[cfg(debug_assertions)]
        let slot = self.slot;
        let Self {
            workers,
            scratch,
            app,
            ..
        } = self;
        let app = *app;
        let p = workers.len();
        if scratch.views_valid && scratch.procs.len() == p {
            let SlotScratch {
                procs,
                free,
                free_total,
                lane_bits,
                ..
            } = scratch;
            for (wi, &word) in workers.changes().iter().enumerate() {
                let mut word = word;
                while word != 0 {
                    let bit = word.trailing_zeros();
                    word &= word - 1;
                    let q = wi * 64 + bit as usize;
                    let (state, has_program, delay) = Self::slot_fields(workers, app, q);
                    let up_now = state == ProcState::Up;
                    let f = up_now && workers.is_idle(q);
                    let snap = &mut procs[q];
                    // A lane hears about a worker only if its candidacy
                    // (UP for the pool lane, free for the replica lane)
                    // flipped, or its delay moved while it is a
                    // candidate.
                    let up_was = snap.state == ProcState::Up;
                    let delay_moved = snap.delay != delay;
                    let pool = up_was != up_now || (up_now && delay_moved);
                    let replica = free[q] != f || (f && delay_moved);
                    lane_bits[Lane::Pool.index()][wi] |= u64::from(pool) << bit;
                    lane_bits[Lane::Replica.index()][wi] |= u64::from(replica) << bit;
                    snap.state = state;
                    snap.has_program = has_program;
                    snap.delay = delay;
                    *free_total = *free_total + usize::from(f) - usize::from(free[q]);
                    free[q] = f;
                }
            }
        } else {
            scratch.procs.clear();
            scratch
                .procs
                .extend((0..p).map(|q| Self::fresh_snapshot(workers, app, q)));
            scratch.free.clear();
            scratch
                .free
                .extend((0..p).map(|q| workers.state(q) == ProcState::Up && workers.is_idle(q)));
            scratch.free_total = scratch.free.iter().filter(|&&f| f).count();
            // Lanes cannot be patched across a rebuild: drop their
            // pending sets and skip a sequence number, which obliges
            // the scheduler to rebuild its lane state too.
            for (bits, seq) in scratch.lane_bits.iter_mut().zip(&mut scratch.lane_seq) {
                bits.clear();
                bits.resize(p.div_ceil(64), 0);
                *seq += 1;
            }
            scratch.views_valid = true;
        }
        workers.clear_changes();
        // Incremental-vs-full oracle (debug): every consult must equal a
        // from-scratch rebuild, or a mutator skipped its feed entry.
        // Beyond EXHAUSTIVE_DEBUG_MAX_P, rebuilding all p entries per
        // consult is what made large-p debug runs unusable — so only a
        // slot-rotating window of DEBUG_SAMPLE_WINDOW workers is
        // cross-checked there, which revisits every cached entry
        // eventually. `VG_FULL_DEBUG_SWEEPS=1` restores the full sweep.
        #[cfg(debug_assertions)]
        {
            let exhaustive = exhaustive_debug_checks(p);
            let base = (slot as usize).wrapping_mul(DEBUG_SAMPLE_WINDOW) % p.max(1);
            for q in 0..p {
                if !exhaustive && (q + p - base) % p >= DEBUG_SAMPLE_WINDOW {
                    continue;
                }
                debug_assert_eq!(
                    scratch.procs[q],
                    Self::fresh_snapshot(workers, app, q),
                    "incremental snapshot diverged from a full rebuild on worker {q}"
                );
                debug_assert_eq!(
                    scratch.free[q],
                    workers.state(q) == ProcState::Up && workers.is_idle(q),
                    "stale free mask on worker {q}: a mutation missed its feed entry"
                );
            }
            if exhaustive {
                debug_assert_eq!(
                    scratch.free.iter().filter(|&&f| f).count(),
                    scratch.free_total,
                    "free total drifted"
                );
            }
        }
    }

    /// Opens `lane`'s next round: bumps its sequence number and drains its
    /// pending set into `lane_list`, ascending. Returns the round's
    /// sequence number; the round's [`ViewDelta`] lists `lane_list`.
    fn open_lane(scratch: &mut SlotScratch, lane: Lane) -> u64 {
        let l = lane.index();
        scratch.lane_seq[l] += 1;
        scratch.lane_list.clear();
        for (wi, word) in scratch.lane_bits[l].iter_mut().enumerate() {
            let mut w = std::mem::take(word);
            while w != 0 {
                // wi · 64 + bit < p ≤ u32::MAX.
                scratch
                    .lane_list
                    .push((wi * 64 + w.trailing_zeros() as usize) as u32);
                w &= w - 1;
            }
        }
        scratch.lane_seq[l]
    }

    /// Binds `copy` to worker `widx` if legal; immediately pins zero-length
    /// data copies (they need no channel). Returns success.
    fn try_bind(&mut self, widx: usize, copy: CopyId) -> bool {
        let w = &self.workers;
        if w.state(widx) != ProcState::Up
            || !w.has_bind_room(widx)
            || w.has_copy_of(widx, copy.task)
        {
            return false;
        }
        if self.app.t_data == 0
            && w.has_program(widx, self.app.t_prog)
            && w.transfer(widx).is_none()
            && w.buffered(widx).is_none()
        {
            // Zero-length data: the copy is pinned instantly ([D2] corollary:
            // a transfer of zero slots completes without a channel).
            if !copy.is_original() {
                self.counters.replicas_started += 1;
            }
            let (it, lt) = iter_for(&mut self.apps, copy.task);
            if copy.is_original() {
                it.pin_original(lt, widx);
            } else {
                it.record_replica_pin(lt, widx);
            }
            if self.workers.computing(widx).is_none() {
                self.workers
                    .set_computing(widx, Some(ComputeState { copy, done: 0 }));
            } else {
                self.workers.set_buffered(widx, Some(copy));
            }
            return true;
        }
        self.workers.bound_push(widx, copy);
        self.bind_order.push((widx, copy));
        true
    }

    /// Phase 3, the Section 6.1 rule over the whole roster: originals
    /// first, application by application inside the slot's pool budgets
    /// ([`Self::pool_quotas`]), then replicas of each unfinished
    /// application's least-replicated tasks onto the workers still free.
    ///
    /// Share quotas govern **pool** (original) placements only: replicas
    /// are demand-driven leftovers — they bind to workers that are UP and
    /// completely idle, a resource no pool placement of any application
    /// wanted this slot (see `docs/applications.md`). Worker columns and
    /// the scheduler see *global* task ids; app 0's base is 0, so a one-app
    /// roster's ids are its local ones.
    fn phase_schedule(&mut self) {
        self.bind_order.clear();
        // Views are only consulted by `place_and_bind`; most steady-state
        // slots have empty pools AND nothing to replicate, so they are
        // synced lazily. Nothing between the phase start and the first use
        // mutates worker state. One snapshot serves every application's
        // pool round — later rounds see the delays of before this slot's
        // binds.
        let mut synced = false;
        let mut remaining = self.pool_quotas();
        for a in 0..self.apps.len() {
            let quota = self.scratch.quotas[a].min(remaining);
            if quota == 0 {
                continue;
            }
            let base = self.apps[a].task_base;
            self.apps[a].iter.pool_tasks_into(&mut self.scratch.pending);
            if self.scratch.pending.is_empty() {
                continue;
            }
            for t in &mut self.scratch.pending {
                *t = global_task(base, *t);
            }
            remaining -= self.pool_round(quota, &mut synced);
        }
        if self.options.replication {
            for a in 0..self.apps.len() {
                self.replica_round(a);
            }
        }
    }

    /// Fills `scratch.quotas` with every application's pool budget for the
    /// slot and returns the capacity they share.
    ///
    /// A one-app roster is unbounded here: its [`PlacementBudget`] applies
    /// in [`Self::pool_round`], once its pool is known to be non-empty. A
    /// larger roster splits the slot's bindable capacity by the
    /// [`SharePolicy`] (finished applications weigh 0), then clamps each
    /// quota to its application's demand and hands the unusable remainder
    /// down in app order — work-conserving: capacity no pool can use is
    /// never idled by the apportionment. Strict priority already grants
    /// the full capacity as every quota, so it has no remainder to move.
    fn pool_quotas(&mut self) -> usize {
        self.scratch.quotas.clear();
        if self.apps.len() == 1 {
            self.scratch.quotas.push(usize::MAX);
            return usize::MAX;
        }
        let capacity = self.bindable_count();
        let Self {
            apps,
            scratch,
            share,
            ..
        } = self;
        scratch.weights.clear();
        scratch.weights.extend(
            apps.iter()
                .map(|rt| if rt.finished() { 0 } else { rt.weight }),
        );
        share_quotas(*share, capacity, &scratch.weights, &mut scratch.quotas);
        if *share != SharePolicy::StrictPriority {
            let mut spare = 0usize;
            for (a, rt) in apps.iter().enumerate() {
                let want = rt.iter.pool_len();
                let granted = scratch.quotas[a].min(want);
                spare += scratch.quotas[a] - granted;
                scratch.quotas[a] = granted;
            }
            for (a, rt) in apps.iter().enumerate() {
                if spare == 0 {
                    break;
                }
                let extra = (rt.iter.pool_len() - scratch.quotas[a]).min(spare);
                scratch.quotas[a] += extra;
                spare -= extra;
            }
        }
        capacity
    }

    /// Workers that can accept a new bind this slot (UP with bind room).
    fn bindable_count(&self) -> usize {
        let cap = self.workers.bindable_count();
        // The dense-column count must agree with a from-scratch accessor
        // rescan, or an occupancy mutator drifted.
        debug_assert_eq!(
            cap,
            (0..self.workers.len())
                .filter(|&q| {
                    self.workers.state(q) == ProcState::Up && self.workers.has_bind_room(q)
                })
                .count(),
            "bindable_count diverged from a naive accessor rescan"
        );
        cap
    }

    /// One application's pool round over the global task ids in
    /// `scratch.pending`, within `quota`; returns how many originals bound.
    ///
    /// A one-app roster's budget is its [`PlacementBudget`]: unbounded
    /// when `Uncapped`, the bindable capacity under `BindCapacity`. A pool
    /// that fits takes one [`Round::Pool`] — the branch equality that makes
    /// never-engaging capped runs bit-identical to uncapped ones. Every
    /// other round — an engaged cap, any application of a larger roster —
    /// runs bounded [`Round::TopUp`] rounds over the workers with room.
    fn pool_round(&mut self, quota: usize, synced: &mut bool) -> usize {
        let solo = self.apps.len() == 1;
        let budget = match self.options.placement_budget {
            PlacementBudget::BindCapacity if solo => self.bindable_count(),
            _ => quota,
        };
        let one_shot = solo && self.scratch.pending.len() <= budget;
        if solo && !one_shot {
            // The cap engages: the pool exceeds what the platform can bind
            // this slot. The trajectory may now differ from `Uncapped`;
            // `cap_engagements` records that this run left the
            // bit-identical regime (the `cap_fidelity` study measures the
            // statistical effect).
            self.cap_engagements += 1;
        }
        if budget == 0 {
            return 0;
        }
        if !std::mem::replace(synced, true) {
            timed!(self, Part::Sub(0), self.sync_views());
        }
        if one_shot {
            let want = self.scratch.pending.len();
            return self.place_and_bind(Round::Pool, want);
        }
        // Narrow the candidates to the bindable workers: a worker without
        // bind room could only soak up placements that `try_bind` must
        // reject, and every excluded worker drops out of `place_into`'s
        // per-candidate row fill, so a round costs O(capacity), not O(p).
        // The set is frozen for the whole top-up loop while `room` shrinks
        // under it; earlier applications' binds are already reflected.
        timed!(self, Part::Sub(5), {
            let Self {
                workers, scratch, ..
            } = self;
            workers.room_into(&mut scratch.room);
            debug_assert!(scratch.room.iter().enumerate().all(|(q, &r)| {
                (r > 0) == (workers.state(q) == ProcState::Up && workers.has_bind_room(q))
            }));
            scratch.with_room.clear();
            scratch
                .with_room
                .extend(scratch.room.iter().map(|&r| r > 0));
        });
        // Top-up rounds: `try_bind` can reject a placed worker (it filled
        // up from an earlier bind this slot, or already holds a copy of
        // the task), so one round can under-fill the budget. Re-request
        // placements for the still-pending tasks until the budget is
        // spent, the pending list drains, or a round binds nothing — every
        // continuing round binds at least one copy, so the loop runs at
        // most `budget + 1` rounds. The snapshot is *not* refreshed between
        // rounds: bound copies are invisible to `Delay(q)` (\[D8\]), and a
        // worker that filled up anyway is rejected by `try_bind` and
        // retried. A round that binds nothing would repeat itself verbatim
        // under a deterministic scheduler, so it ends the loop.
        let mut left = budget;
        loop {
            let want = self.scratch.pending.len().min(left);
            if want == 0 {
                break;
            }
            let bound = self.place_and_bind(Round::TopUp, want);
            if bound == 0 {
                break;
            }
            left -= bound;
        }
        budget - left
    }

    /// Application `a`'s replica round: idle UP workers receive replicas
    /// of its least replicated unfinished tasks
    /// (≤ [`crate::task::MAX_EXTRA_REPLICAS`] each).
    ///
    /// Candidates first: near an iteration barrier every unfinished task
    /// already carries its full replica set, so the candidate list — an
    /// O(m′) scan over the few unfinished tasks — empties long before the
    /// platform runs out of idle workers, and the view sync is skipped.
    /// (`replica_candidates_into` reads only iteration state, so the
    /// reorder is unobservable.) The sync absorbs earlier rounds' binds
    /// through the store's change feed, so the round sees the *currently*
    /// free workers; the free count doubles as its bind capacity, so
    /// replicas are demand-driven under both placement budgets.
    fn replica_round(&mut self, a: usize) {
        if self.apps[a].iter.is_complete() {
            return;
        }
        timed!(self, Part::Sub(3), {
            let rt = &self.apps[a];
            rt.iter.replica_candidates_into(&mut self.scratch.pending);
            for t in &mut self.scratch.pending {
                *t = global_task(rt.task_base, *t);
            }
        });
        if self.scratch.pending.is_empty() {
            return;
        }
        timed!(self, Part::Sub(4), self.sync_views());
        let k = self.scratch.pending.len().min(self.scratch.free_total);
        if k > 0 {
            self.place_and_bind(Round::Replica, k);
        }
    }

    /// Asks the scheduler to place the first `want` tasks of
    /// `scratch.pending` on `round`'s view, then binds what it placed:
    /// originals on pool rounds, freshly minted replicas on the replica
    /// round. Tasks that did not bind stay in `pending`, in order. Returns
    /// how many copies bound.
    fn place_and_bind(&mut self, round: Round, want: usize) -> usize {
        let replica = round == Round::Replica;
        let placed = timed!(self, Part::Sub(if replica { 6 } else { 1 }), {
            let lane = match round {
                Round::Pool => Some(Lane::Pool),
                Round::TopUp => None,
                Round::Replica => Some(Lane::Replica),
            };
            let Self {
                scratch,
                scheduler,
                chains,
                app,
                ledger,
                ..
            } = self;
            let seq = lane.map(|lane| (lane, Self::open_lane(scratch, lane)));
            let view = SchedView {
                procs: &scratch.procs,
                chains,
                t_prog: app.t_prog,
                t_data: app.t_data,
                ncom: ledger.ncom(),
                // Advisory bind-room column of the top-up rounds: lets the
                // scheduler retire a worker once its room is spent instead
                // of stacking placements that `try_bind` must bounce back.
                // Free workers have full room by construction.
                room: (round == Round::TopUp).then_some(&scratch.room[..]),
                candidates: match round {
                    Round::Pool => None,
                    Round::TopUp => Some(&scratch.with_room[..]),
                    Round::Replica => Some(&scratch.free[..]),
                },
                delta: seq.map(|(lane, seq)| ViewDelta {
                    lane,
                    seq,
                    changed: &scratch.lane_list,
                }),
            };
            scratch.placements.clear();
            scheduler.place_into(&view, want, &mut scratch.placements);
            scratch.placements.len().min(want)
        });
        timed!(self, Part::Sub(if replica { 7 } else { 2 }), {
            let mut bound = 0usize;
            let mut write = 0usize;
            for k in 0..placed {
                let task = self.scratch.pending[k];
                let q = self.scratch.placements[k].idx();
                debug_assert!(
                    self.workers.state(q) == ProcState::Up,
                    "scheduler placed a task on a non-UP processor"
                );
                let copy = if replica {
                    let (it, lt) = iter_for(&mut self.apps, task);
                    CopyId {
                        task,
                        replica: it.mint_replica(lt).replica,
                    }
                } else {
                    CopyId::original(task)
                };
                if self.try_bind(q, copy) {
                    bound += 1;
                    if round == Round::TopUp {
                        debug_assert!(self.scratch.room[q] > 0);
                        self.scratch.room[q] -= 1;
                    }
                } else {
                    if replica {
                        let (it, lt) = iter_for(&mut self.apps, task);
                        it.drop_replica(lt);
                    }
                    self.scratch.pending[write] = task;
                    write += 1;
                }
            }
            // The unplaced tail follows the unbound placed tasks.
            let pending = &mut self.scratch.pending;
            pending.copy_within(placed.., write);
            pending.truncate(pending.len() - (placed - write));
            bound
        })
    }

    fn phase_transfers(&mut self) {
        self.ledger.open_slot();
        let record = self.timeline.is_some();
        let t_prog = self.app.t_prog;
        let t_data = self.app.t_data;

        {
            let Self {
                workers,
                scratch,
                bind_order,
                ..
            } = self;

            // --- Collect requests ---------------------------------------
            // (a) Continuations: in-flight data transfers and partially
            //     received programs on UP workers, oldest first ([D11]).
            //     Both kinds pin a copy (a transfer occupies its pipeline
            //     slot; the program branch checks `busy` itself), so the
            //     busy-restricted walk is exact — no continuation can live
            //     on an idle worker.
            scratch.continuations.clear();
            for_each_busy_worker!(workers, widx, {
                if workers.state(widx) != ProcState::Up {
                    continue; // suspended transfers hold no channel
                }
                if let Some(tr) = workers.transfer(widx) {
                    scratch
                        .continuations
                        .push((tr.began_at, widx, Request::DataCont { widx }));
                } else if workers.prog_done(widx) > 0
                    && !workers.has_program(widx, t_prog)
                    && workers.busy(widx)
                {
                    scratch.continuations.push((
                        workers.prog_began_at(widx),
                        widx,
                        Request::Prog { widx },
                    ));
                }
            });
            // `widx` makes the key unique, so the unstable sort is
            // deterministic (and allocation-free, unlike a stable sort).
            scratch
                .continuations
                .sort_unstable_by_key(|&(t, widx, _)| (t, widx));
            scratch.requests.clear();
            scratch
                .requests
                .extend(scratch.continuations.iter().map(|&(_, _, r)| r));

            // (b) New transfers in binding order: a worker lacking the
            //     program requests the program once; a worker holding it
            //     requests data for its first bound copy if its transfer
            //     slot is free. The request flags only matter while there
            //     are bindings, so their reset is gated on that.
            if !bind_order.is_empty() {
                scratch.prog_requested.clear();
                scratch.prog_requested.resize(workers.len(), false);
                scratch.data_requested.clear();
                scratch.data_requested.resize(workers.len(), false);
            }
            for &(widx, copy) in bind_order.iter() {
                if workers.state(widx) != ProcState::Up || !workers.bound(widx).contains(&copy) {
                    continue;
                }
                if !workers.has_program(widx, t_prog) {
                    if workers.prog_done(widx) == 0 && !scratch.prog_requested[widx] {
                        scratch.prog_requested[widx] = true;
                        scratch.requests.push(Request::Prog { widx });
                    }
                } else if workers.transfer(widx).is_none()
                    && workers.buffered(widx).is_none()
                    && !scratch.data_requested[widx]
                    && t_data > 0
                {
                    scratch.data_requested[widx] = true;
                    scratch.requests.push(Request::DataNew { widx, copy });
                }
            }
        }

        // --- Grant in priority order -------------------------------------
        for k in 0..self.scratch.requests.len() {
            match self.scratch.requests[k] {
                Request::Prog { widx } => {
                    if self.ledger.try_grant(TransferKind::Program) {
                        let done = self.workers.prog_done(widx);
                        if done == 0 {
                            self.workers.set_prog_began_at(widx, self.slot);
                        }
                        self.workers.set_prog_done(widx, done + 1);
                        self.counters.prog_channel_slots += 1;
                        if record {
                            self.slot_marks[widx].recv_prog = true;
                        }
                        if self.workers.has_program(widx, t_prog) {
                            self.counters.programs_delivered += 1;
                        }
                    }
                }
                Request::DataCont { widx } => {
                    if self.ledger.try_grant(TransferKind::Data) {
                        // DataCont is only enqueued for a worker with an
                        // in-flight transfer; a missing one is a phase-4
                        // bookkeeping bug. Debug builds abort; release
                        // builds drop the grant instead of crashing a
                        // whole campaign (the channel slot is burned either
                        // way, matching what the transfer would have used).
                        match self.workers.transfer(widx) {
                            Some(mut tr) => {
                                tr.done += 1;
                                self.workers.set_transfer(widx, Some(tr));
                            }
                            None => {
                                debug_assert!(
                                    false,
                                    "DataCont enqueued for worker {widx} with no in-flight transfer"
                                );
                            }
                        }
                        self.counters.data_channel_slots += 1;
                        if record {
                            self.slot_marks[widx].recv_data = true;
                        }
                    }
                }
                Request::DataNew { widx, copy } => {
                    if self.ledger.try_grant(TransferKind::Data) {
                        self.workers.bound_remove(widx, copy);
                        self.workers.set_transfer(
                            widx,
                            Some(TransferState {
                                copy,
                                done: 1,
                                began_at: self.slot,
                            }),
                        );
                        self.counters.data_channel_slots += 1;
                        if record {
                            self.slot_marks[widx].recv_data = true;
                        }
                        if !copy.is_original() {
                            self.counters.replicas_started += 1;
                        }
                        let (it, lt) = iter_for(&mut self.apps, copy.task);
                        if copy.is_original() {
                            it.pin_original(lt, widx);
                        } else {
                            it.record_replica_pin(lt, widx);
                        }
                    }
                }
            }
        }
        assert!(self.ledger.invariant_holds(), "ncom constraint violated");
    }

    fn phase_compute(&mut self) {
        {
            let record = self.timeline.is_some();
            #[cfg(debug_assertions)]
            let t_prog = self.app.t_prog;
            let Self {
                workers,
                scratch,
                slot_marks,
                ..
            } = self;
            scratch.completions.clear();
            // Busy workers only (bit walk or chunked blocks — the scan is
            // read-only w.r.t. occupancy, and it ascends either way, so
            // completion order is unchanged): an idle worker cannot hold a
            // computation, and a busy-but-not-computing worker falls out of
            // tick_compute's None without touching the fat computing column.
            for_each_busy_worker!(workers, widx, {
                if !workers.busy(widx) || workers.state(widx) != ProcState::Up {
                    continue;
                }
                if let Some((copy, finished)) = workers.tick_compute(widx) {
                    #[cfg(debug_assertions)]
                    debug_assert!(workers.prog_done(widx) >= t_prog);
                    if record {
                        slot_marks[widx].computed = true;
                    }
                    if finished {
                        scratch.completions.push((widx, copy));
                    }
                }
            });
        }
        for k in 0..self.scratch.completions.len() {
            let (widx, copy) = self.scratch.completions[k];
            // A sibling that completed earlier in this slot may have already
            // canceled this copy (cancel_siblings cleared the compute unit);
            // its result is then redundant and counts as waste.
            let still_current = self.workers.computing(widx).is_some_and(|c| c.copy == copy);
            if !still_current {
                self.counters.duplicate_results += 1;
                continue;
            }
            self.workers.set_computing(widx, None);
            self.counters.copies_completed += 1;
            let task = copy.task;
            let a = app_of(task);
            let lt = local_task(task);
            // Capture the pinned original's worker *before* mark_completed
            // erases it; the completing copy itself is already off its
            // worker, so when the original just completed there is no
            // pinned original left to cancel.
            let orig_pinned = if copy.is_original() {
                None
            } else {
                match self.apps[a].iter.original_state(lt) {
                    OriginalState::Pinned { worker } => Some(worker),
                    _ => None,
                }
            };
            let first = self.apps[a].iter.mark_completed(lt);
            debug_assert!(first, "siblings are canceled before they can re-complete");
            self.counters.tasks_completed += 1;
            self.apps[a].tasks_completed += 1;
            if !copy.is_original() {
                self.apps[a].iter.drop_replica(lt);
                self.apps[a].iter.clear_replica_pin(lt, widx);
            }
            self.cancel_siblings(task, orig_pinned);
        }
    }

    /// Cancels every remaining copy of a completed task, platform-wide —
    /// without the former full-platform scan per completion (`O(p)` per
    /// completed task was ~27% of slot cost at `p = 1024`). Every copy's
    /// location is recoverable:
    ///
    /// * the pinned **original**'s worker comes from
    ///   [`IterationState::original_state`] (captured by the caller before
    ///   `mark_completed` erased it);
    /// * still-**bound** copies (transfer not begun) sit in `bind_order`
    ///   with their worker; entries whose transfer began are skipped — the
    ///   bound list no longer holds them — and found as pinned copies;
    /// * pinned **replicas** are canceled straight off the workers recorded
    ///   in [`IterationState`] at grant time — no platform scan exists on
    ///   this path at all (the former early-exit fallback sweep still cost
    ///   `O(p)` per unlucky completion at `p = 131072`).
    ///
    /// Debug builds re-scan the whole platform afterwards and assert no
    /// copy survived, pinning this accounting to the exhaustive semantics.
    fn cancel_siblings(&mut self, task: TaskId, orig_pinned: Option<usize>) {
        let Self {
            workers,
            scratch,
            counters,
            apps,
            bind_order,
            ..
        } = self;
        // Route to the owning application once; worker columns and
        // `bind_order` keep speaking global ids below.
        let lt = local_task(task);
        let iter = &mut apps[app_of(task)].iter;
        scratch.copies.clear();
        let replicas_total = usize::from(iter.replicas_alive(lt));
        if let Some(w) = orig_pinned {
            workers.cancel_task_into(w, task, &mut scratch.copies);
        }
        for &(widx, bound_copy) in bind_order.iter() {
            if bound_copy.task == task && workers.bound(widx).contains(&bound_copy) {
                workers.cancel_task_into(widx, task, &mut scratch.copies);
            }
        }
        // Pinned replicas: the iteration records the worker of every granted
        // replica, so each survivor is canceled with one directed call. The
        // record row is borrowed out of `iter` via scratch so the pins can
        // be cleared while `workers` is mutated.
        scratch.replica_pins.clear();
        scratch
            .replica_pins
            .extend_from_slice(iter.pinned_replica_workers(lt));
        for &w in &scratch.replica_pins {
            if w == NO_REPLICA_WORKER {
                continue;
            }
            let before = scratch.copies.len();
            workers.cancel_task_into(w as usize, task, &mut scratch.copies);
            debug_assert!(
                scratch.copies.len() > before,
                "recorded replica pin of {task} on worker {w} held no copy"
            );
            iter.clear_replica_pin(lt, w as usize);
        }
        debug_assert_eq!(
            scratch.copies.iter().filter(|c| !c.is_original()).count(),
            replicas_total,
            "replica cancel accounting for {task} disagrees with replicas_alive"
        );
        for &copy in &scratch.copies {
            counters.replicas_canceled += 1;
            if !copy.is_original() {
                iter.drop_replica(lt);
            }
            // Originals need no pool transition: mark_completed set Done.
        }
        // Also forget bind-order entries of the canceled copies so they do
        // not request channels later in this slot.
        bind_order.retain(|&(_, c)| c.task != task);
        #[cfg(debug_assertions)]
        for q in 0..workers.len() {
            debug_assert!(
                !workers.has_copy_of(q, task),
                "cancel_siblings missed a copy of {task} on worker {q}"
            );
        }
    }

    /// The promotion half of phase 6 for one busy worker: finished transfer
    /// → buffer, buffer → free compute unit.
    #[inline]
    fn promote_pipeline(workers: &mut WorkerSoA, q: usize, t_data: SlotSpan) {
        if let Some(tr) = workers.transfer(q) {
            if tr.done >= t_data && t_data > 0 {
                debug_assert!(workers.buffered(q).is_none());
                // Clear the transfer slot *before* filling the buffer: the
                // end state is identical, but this order keeps occupancy
                // within its documented bound of 2 at every step (the SoA
                // asserts the bound on each increment).
                workers.set_transfer(q, None);
                workers.set_buffered(q, Some(tr.copy));
            }
        }
        if workers.computing(q).is_none() {
            if let Some(buf) = workers.buffered(q) {
                workers.set_buffered(q, None);
                workers.set_computing(q, Some(ComputeState { copy: buf, done: 0 }));
            }
        }
    }

    /// The bind-dissolution half of phase 7 (\[D5\]) for one busy worker:
    /// unstarted bindings dissolve — originals silently remain in the pool;
    /// replica placeholders evaporate.
    #[inline]
    fn dissolve_binds(workers: &mut WorkerSoA, apps: &mut [AppRuntime], q: usize) {
        workers.drain_bound(q, |copy| {
            if !copy.is_original() {
                let (it, lt) = iter_for(apps, copy.task);
                it.drop_replica(lt);
            }
        });
    }

    /// Phase 6 (promotions) fused with the bind-dissolution half of phase 7
    /// (\[D5\]): both touch only per-worker state (plus the iteration's
    /// replica tallies, which promotions never read), so one pass suffices.
    ///
    /// Release builds walk only busy workers (the bit walk — promotions and
    /// dissolutions never make an idle worker busy, so the visit set is
    /// exact). Debug builds keep the block-chunked sweep so the per-worker
    /// invariants still cover quiet workers: exhaustively on small
    /// platforms, and on a rotating probe block above that (plus every busy
    /// block), so a desynced occupancy column on a quiet worker is caught
    /// within `nblocks` slots rather than hidden forever.
    fn phase_promotions_and_unbind(&mut self) {
        let t_data = self.app.t_data;
        #[cfg(debug_assertions)]
        let t_prog = self.app.t_prog;
        #[cfg(debug_assertions)]
        let slot = self.slot;
        let Self { workers, apps, .. } = self;
        #[cfg(not(debug_assertions))]
        for_each_busy_worker!(workers, q, {
            if workers.busy(q) {
                Self::promote_pipeline(workers, q, t_data);
            }
            if workers.busy(q) {
                Self::dissolve_binds(workers, apps, q);
            }
        });
        #[cfg(debug_assertions)]
        {
            let p = workers.len();
            let nblocks = workers.summary_blocks();
            let exhaustive = exhaustive_debug_checks(p);
            let probe = if nblocks > 0 {
                slot as usize % nblocks
            } else {
                0
            };
            for blk in 0..nblocks {
                let sweep = exhaustive || blk == probe;
                if !sweep && !workers.block_may_be_busy(blk) {
                    continue;
                }
                let start = blk * SUMMARY_BLOCK;
                let end = (start + SUMMARY_BLOCK).min(p);
                for q in start..end {
                    if workers.busy(q) {
                        Self::promote_pipeline(workers, q, t_data);
                    }
                    // Checked for *every* swept worker — not inside the
                    // busy() block — so a desynced occupancy column cannot
                    // hide a worker from its own consistency check (the SoA
                    // validates occupancy here).
                    workers.assert_invariants(q, t_prog, t_data);
                    if workers.busy(q) {
                        Self::dissolve_binds(workers, apps, q);
                    }
                }
            }
        }
    }

    fn phase_slot_end(&mut self) {
        self.bind_order.clear();

        {
            let Self {
                workers,
                scratch,
                slot_marks,
                timeline,
                ..
            } = self;
            if let Some(tl) = timeline {
                scratch.activities.clear();
                scratch.activities.extend(
                    slot_marks
                        .iter()
                        .enumerate()
                        .map(|(q, m)| m.resolve(workers.state(q))),
                );
                tl.push_slot(&scratch.activities);
            }
        }

        // Iteration barriers, per application. With a single app this is
        // the historical barrier verbatim: the finished-guard never fires
        // (the run loop stops before another slot executes), the debug
        // sweep is the same global pinned-count check, and `Fixed`
        // reconfiguration is exactly the old `iter.reset(iterations_done)`.
        let mut up_cache: Option<usize> = None;
        let mut barrier_marked = false;
        for a in 0..self.apps.len() {
            if self.apps[a].finished() || !self.apps[a].iter.is_complete() {
                continue;
            }
            let slot = self.slot;
            self.apps[a].iter.set_completed_at(slot);
            self.apps[a].iteration_completed_at.push(slot);
            self.iteration_completed_at.push(slot);
            self.apps[a].iterations_done += 1;
            if !barrier_marked {
                if let Some(tl) = &mut self.timeline {
                    tl.push_barrier(slot);
                }
                barrier_marked = true;
            }
            #[cfg(debug_assertions)]
            if self.apps.len() == 1 {
                for q in 0..self.workers.len() {
                    debug_assert_eq!(
                        self.workers.pinned_count(q),
                        0,
                        "copies survived the iteration barrier"
                    );
                }
            } else {
                // Other applications may legitimately hold pins, so the
                // check narrows to this application's own copies: every
                // task is complete, so no replica may survive.
                for t in 0..self.apps[a].iter.m() {
                    debug_assert_eq!(
                        self.apps[a].iter.replicas_alive(TaskId(t as u32)),
                        0,
                        "replica of app {a} survived its iteration barrier"
                    );
                }
            }
            if self.apps[a].finished() {
                self.apps[a].completed_at = Some(slot);
            } else {
                // Moldable applications re-pick their size from the *live*
                // UP census at the barrier (ReSHAPE-style reconfiguration
                // points); Fixed applications never consult it.
                let up = match self.apps[a].reconfig {
                    ReconfigPolicy::Fixed => 0,
                    ReconfigPolicy::Moldable(_) => match up_cache {
                        Some(u) => u,
                        None => {
                            let u = self.up_workers();
                            up_cache = Some(u);
                            u
                        }
                    },
                };
                self.apps[a].begin_next_iteration(up);
            }
        }
    }

    /// Live UP-worker count at the current slot, O(1) from the store's
    /// census. Consulted only at barriers of [`ReconfigPolicy::Moldable`]
    /// apps.
    fn up_workers(&self) -> usize {
        self.workers.census()[ProcState::Up.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_core::HeuristicKind;
    use vg_des::rng::SeedPath;
    use vg_des::SlotSpan;
    use vg_platform::source::{StartPolicy, TailBehavior};
    use vg_platform::{AvailabilityModelConfig, ProcessorConfig, ProcessorSpec, Trace};

    fn always_up(p: usize, w: SlotSpan, ncom: usize) -> PlatformConfig {
        PlatformConfig {
            processors: (0..p)
                .map(|_| ProcessorConfig {
                    spec: ProcessorSpec::new(w),
                    avail: AvailabilityModelConfig::Replay {
                        trace: Trace::parse("u").unwrap(),
                        tail: TailBehavior::HoldLast,
                    },
                    believed: None,
                })
                .collect(),
            ncom,
        }
    }

    fn replay_platform(traces: &[&str], w: SlotSpan, ncom: usize) -> PlatformConfig {
        PlatformConfig {
            processors: traces
                .iter()
                .map(|t| ProcessorConfig {
                    spec: ProcessorSpec::new(w),
                    avail: AvailabilityModelConfig::Replay {
                        trace: Trace::parse(t).unwrap(),
                        tail: TailBehavior::HoldLast,
                    },
                    believed: None,
                })
                .collect(),
            ncom,
        }
    }

    /// A fresh engine for `app` over boxed sources seeded from `seed`.
    fn engine(
        platform: &PlatformConfig,
        app: &AppConfig,
        sched: Box<dyn Scheduler>,
        seed: u64,
        opts: SimOptions,
    ) -> Result<Simulation, ConfigError> {
        let sources: Vec<_> = platform.seeded_sources(SeedPath::root(seed)).collect();
        let availability = Availability::Rows(Box::new(sources));
        Simulation::new(RunSpec::new(
            platform,
            &[AppSpec::rigid(*app)],
            availability,
            sched,
            opts,
        ))
    }

    /// One seeded run, fresh (`arena = None`) or on an arena.
    fn seeded(
        arena: Option<&mut SimArena>,
        platform: &PlatformConfig,
        app: &AppConfig,
        sched: Box<dyn Scheduler>,
        seed: u64,
        opts: SimOptions,
    ) -> Result<RunOutcome, ConfigError> {
        let apps = [AppSpec::rigid(*app)];
        let spec = RunSpec::new(
            platform,
            &apps,
            Availability::Seeded(SeedPath::root(seed)),
            sched,
            opts,
        );
        match arena {
            Some(arena) => arena.run(spec),
            None => Simulation::new(spec).map(|sim| {
                let r = sim.run();
                RunOutcome {
                    makespan: r.makespan,
                    slots_run: r.slots_run,
                    completed_iterations: r.completed_iterations,
                }
            }),
        }
    }

    fn run(
        platform: &PlatformConfig,
        app: &AppConfig,
        kind: HeuristicKind,
        opts: SimOptions,
    ) -> SimReport {
        let sched = kind.build(SeedPath::root(999).rng());
        engine(platform, app, sched, 7, opts).unwrap().run()
    }

    const NO_REP: SimOptions = SimOptions {
        max_slots: 100_000,
        replication: false,
        record_timeline: false,
        placement_budget: PlacementBudget::Uncapped,
    };

    #[test]
    fn single_worker_pipeline_analytic_makespan() {
        // p=1, m=2, Tprog=2, Tdata=1, w=3, always UP:
        // program slots 0-1, data(T0) slot 2, compute T0 slots 3-5,
        // data(T1) slot 3 (overlap), compute T1 slots 6-8 → makespan 9.
        let platform = always_up(1, 3, 1);
        let app = AppConfig {
            tasks_per_iteration: 2,
            iterations: 1,
            t_prog: 2,
            t_data: 1,
        };
        let r = run(&platform, &app, HeuristicKind::Mct, NO_REP);
        assert_eq!(r.makespan, Some(9));
        assert_eq!(r.counters.tasks_completed, 2);
        assert_eq!(r.counters.programs_delivered, 1);
    }

    #[test]
    fn two_workers_split_the_load() {
        // p=2, m=2, ncom=2: both receive program concurrently; each computes
        // one task. Makespan = Tprog + Tdata + w = 2+1+3 = 6.
        let platform = always_up(2, 3, 2);
        let app = AppConfig {
            tasks_per_iteration: 2,
            iterations: 1,
            t_prog: 2,
            t_data: 1,
        };
        let r = run(&platform, &app, HeuristicKind::Mct, NO_REP);
        assert_eq!(r.makespan, Some(6));
    }

    /// Step-wise driver that also reports how often the placement cap
    /// engaged (the consuming `run()` drops the engine before it can be
    /// asked).
    fn run_counting(
        platform: &PlatformConfig,
        app: &AppConfig,
        kind: HeuristicKind,
        opts: SimOptions,
    ) -> (SimReport, u64) {
        let sched = kind.build(SeedPath::root(999).rng());
        let mut sim = engine(platform, app, sched, 7, opts).unwrap();
        while !sim.is_done() {
            sim.step();
        }
        let engagements = sim.cap_engagements();
        (sim.into_report(), engagements)
    }

    const CAPPED_NO_REP: SimOptions = SimOptions {
        max_slots: 100_000,
        replication: false,
        record_timeline: false,
        placement_budget: PlacementBudget::BindCapacity,
    };

    #[test]
    fn bind_capacity_defers_excess_placements_without_losing_throughput() {
        // p=1, m=2: the uncapped engine requests placements for both tasks
        // every slot until their data transfers start; the capped engine
        // sees bindable capacity 1 (one idle worker) and requests one. An
        // unstarted binding dissolves back into the pool at slot end
        // ([D5]), so the full pool {T0, T1} re-engages the cap on slots
        // 0–2 — exactly until data(T0) starts mid-slot 2 and pins T0. The
        // deferred T1 bind is absorbed by the channel serialization, so
        // the analytic makespan of
        // `single_worker_pipeline_analytic_makespan` still holds.
        let platform = always_up(1, 3, 1);
        let app = AppConfig {
            tasks_per_iteration: 2,
            iterations: 1,
            t_prog: 2,
            t_data: 1,
        };
        let (r, engagements) = run_counting(&platform, &app, HeuristicKind::Mct, CAPPED_NO_REP);
        assert_eq!(
            engagements, 3,
            "slots 0-2 re-offer the dissolved pool (2) against capacity 1"
        );
        assert_eq!(r.makespan, Some(9));
        assert_eq!(r.counters.tasks_completed, 2);
    }

    #[test]
    fn bind_capacity_that_never_engages_is_bit_identical_to_uncapped() {
        // Capacity (4 idle workers) always covers the pool (2 tasks), so
        // the capped engine takes the uncapped code path on every slot and
        // the reports must match byte for byte.
        let platform = always_up(4, 3, 2);
        let app = AppConfig {
            tasks_per_iteration: 2,
            iterations: 3,
            t_prog: 2,
            t_data: 1,
        };
        let (capped, engagements) =
            run_counting(&platform, &app, HeuristicKind::Mct, CAPPED_NO_REP);
        assert_eq!(engagements, 0, "pool of 2 can never exceed capacity of 4");
        let (uncapped, zero) = run_counting(&platform, &app, HeuristicKind::Mct, NO_REP);
        assert_eq!(zero, 0, "Uncapped never counts engagements");
        assert_eq!(capped, uncapped);
    }

    #[test]
    fn bind_capacity_engages_under_pressure_and_still_completes() {
        // m = 4·p: the first slots of every iteration overwhelm the
        // platform, so the cap engages repeatedly; the top-up loop must
        // still feed every task through and finish both iterations.
        let platform = always_up(2, 3, 2);
        let app = AppConfig {
            tasks_per_iteration: 8,
            iterations: 2,
            t_prog: 2,
            t_data: 1,
        };
        let (r, engagements) = run_counting(&platform, &app, HeuristicKind::Mct, CAPPED_NO_REP);
        assert!(engagements > 0, "a 4x oversubscribed pool must engage");
        assert!(r.finished());
        assert_eq!(r.counters.tasks_completed, 16);
    }

    #[test]
    fn ncom_serializes_program_transfers() {
        // p=2, m=2, ncom=1: the single channel serializes everything.
        // Worker A: prog 0-1, data(T0) 2 (data of the first-placed task
        // outranks B's program start in bind order), compute 3-5.
        // Worker B: prog 3-4, data(T1) 5, compute 6-8 → makespan 9.
        let platform = always_up(2, 3, 1);
        let app = AppConfig {
            tasks_per_iteration: 2,
            iterations: 1,
            t_prog: 2,
            t_data: 1,
        };
        let r = run(&platform, &app, HeuristicKind::Mct, NO_REP);
        assert_eq!(r.makespan, Some(9));
    }

    #[test]
    fn reclaimed_suspends_and_resumes() {
        // One worker, one task, w=2, Tprog=1, Tdata=1.
        // Trace: u r u u u — program slot 0, reclaimed slot 1 (data frozen),
        // data slot 2, compute slots 3-4 → makespan 5.
        let platform = replay_platform(&["uruuu"], 2, 1);
        let app = AppConfig {
            tasks_per_iteration: 1,
            iterations: 1,
            t_prog: 1,
            t_data: 1,
        };
        let r = run(&platform, &app, HeuristicKind::Mct, NO_REP);
        assert_eq!(r.makespan, Some(5));
        assert_eq!(r.counters.copies_lost_to_down, 0);
    }

    #[test]
    fn down_loses_program_and_work() {
        // Worker crashes after receiving program + data and computing 1 slot;
        // must redo everything after coming back UP.
        // Trace: u u u d u u u u u …  (Tprog=1, Tdata=1, w=2)
        // slot0 prog, slot1 data, slot2 compute(1/2), slot3 DOWN (lose all),
        // slot4 prog, slot5 data, slots6-7 compute → makespan 8.
        let platform = replay_platform(&["uuuduuuuu"], 2, 1);
        let app = AppConfig {
            tasks_per_iteration: 1,
            iterations: 1,
            t_prog: 1,
            t_data: 1,
        };
        let r = run(&platform, &app, HeuristicKind::Mct, NO_REP);
        assert_eq!(r.makespan, Some(8));
        assert_eq!(r.counters.copies_lost_to_down, 1);
        assert_eq!(r.counters.programs_delivered, 2);
    }

    #[test]
    fn iterations_chain_without_program_resend() {
        // 2 iterations of 1 task each on one always-up worker: program once.
        // slot0 prog, slot1 data(i0), slots2-3 compute, barrier;
        // slot4 data(i1), slots5-6 compute → makespan 7.
        let platform = always_up(1, 2, 1);
        let app = AppConfig {
            tasks_per_iteration: 1,
            iterations: 2,
            t_prog: 1,
            t_data: 1,
        };
        let r = run(&platform, &app, HeuristicKind::Mct, NO_REP);
        assert_eq!(r.makespan, Some(7));
        assert_eq!(r.counters.programs_delivered, 1);
        assert_eq!(r.iteration_completed_at, vec![3, 6]);
    }

    #[test]
    fn replication_uses_idle_workers() {
        // 2 workers, 1 task: the idle one receives a replica.
        let platform = always_up(2, 5, 2);
        let app = AppConfig {
            tasks_per_iteration: 1,
            iterations: 1,
            t_prog: 1,
            t_data: 1,
        };
        let r = run(&platform, &app, HeuristicKind::Mct, SimOptions::default());
        assert_eq!(r.makespan, Some(7)); // prog 0, data 1, compute 2-6
        assert!(r.counters.replicas_started >= 1);
        assert!(r.counters.replicas_canceled >= 1, "loser copy canceled");
        assert_eq!(r.counters.tasks_completed, 1);
    }

    #[test]
    fn replication_rescues_a_crash() {
        // Worker 0 crashes mid-compute; the replica on worker 1 finishes.
        // Without replication the task would restart from scratch.
        let platform = replay_platform(&["uuuudddddddddd", "uuuuuuuuuuuuuu"], 8, 2);
        let app = AppConfig {
            tasks_per_iteration: 1,
            iterations: 1,
            t_prog: 1,
            t_data: 1,
        };
        let with = run(&platform, &app, HeuristicKind::Mct, SimOptions::default());
        let without = run(&platform, &app, HeuristicKind::Mct, NO_REP);
        assert!(with.finished());
        assert_eq!(with.makespan, Some(10)); // replica: prog 0, data 1, compute 2-9
        assert!(
            !without.finished() || without.makespan_or_cap() > with.makespan_or_cap(),
            "replication must help here: {without:?}"
        );
    }

    #[test]
    fn zero_t_data_computes_immediately() {
        // Tdata=0 (Theorem-1-style instance): bind and compute same slot.
        // slot0: prog; slot1: bind+compute (w=1) → makespan 2.
        let platform = always_up(1, 1, 1);
        let app = AppConfig {
            tasks_per_iteration: 1,
            iterations: 1,
            t_prog: 1,
            t_data: 0,
        };
        let r = run(&platform, &app, HeuristicKind::Mct, NO_REP);
        assert_eq!(r.makespan, Some(2));
    }

    #[test]
    fn zero_t_prog_skips_program_phase() {
        let platform = always_up(1, 2, 1);
        let app = AppConfig {
            tasks_per_iteration: 1,
            iterations: 1,
            t_prog: 0,
            t_data: 1,
        };
        let r = run(&platform, &app, HeuristicKind::Mct, NO_REP);
        // slot0 data, slots1-2 compute → 3.
        assert_eq!(r.makespan, Some(3));
        assert_eq!(r.counters.programs_delivered, 0);
    }

    #[test]
    fn slot_cap_reports_incomplete() {
        // All workers permanently reclaimed: nothing ever runs.
        let platform = replay_platform(&["r"], 1, 1);
        let app = AppConfig {
            tasks_per_iteration: 1,
            iterations: 1,
            t_prog: 1,
            t_data: 1,
        };
        let r = run(
            &platform,
            &app,
            HeuristicKind::Mct,
            SimOptions {
                max_slots: 50,
                ..NO_REP
            },
        );
        assert!(!r.finished());
        assert_eq!(r.slots_run, 50);
        assert_eq!(r.completed_iterations, 0);
    }

    #[test]
    fn determinism_same_seeds_same_report() {
        let platform = markov_platform(4, 3);
        let app = AppConfig {
            tasks_per_iteration: 6,
            iterations: 3,
            t_prog: 5,
            t_data: 1,
        };
        let go = || {
            let sched = HeuristicKind::EmctStar.build(SeedPath::root(11).rng());
            engine(&platform, &app, sched, 42, SimOptions::default())
                .unwrap()
                .run()
        };
        assert_eq!(go(), go());
    }

    fn markov_platform(p: usize, w: SlotSpan) -> PlatformConfig {
        let mut rng = SeedPath::root(5).rng();
        PlatformConfig {
            processors: (0..p)
                .map(|_| {
                    let chain = vg_markov::availability::AvailabilityChain::sample_paper(
                        &mut rng, 0.90, 0.99,
                    );
                    ProcessorConfig::markov(w, chain, StartPolicy::Up)
                })
                .collect(),
            ncom: 2,
        }
    }

    #[test]
    fn determinism_64_workers_with_and_without_replication() {
        // Identical seeds must yield bit-identical reports at scale, for a
        // stateful random heuristic and a deterministic greedy one, with the
        // replica placement path both exercised and disabled.
        let platform = markov_platform(64, 3);
        let app = AppConfig {
            tasks_per_iteration: 96,
            iterations: 2,
            t_prog: 5,
            t_data: 2,
        };
        for kind in [HeuristicKind::EmctStar, HeuristicKind::Random2w] {
            for replication in [false, true] {
                let go = || {
                    let seeded = Availability::Seeded(SeedPath::root(42));
                    let sched = kind.build(SeedPath::root(11).rng());
                    let apps = [AppSpec::rigid(app)];
                    let spec = RunSpec::new(
                        &platform,
                        &apps,
                        seeded,
                        sched,
                        SimOptions {
                            max_slots: 100_000,
                            replication,
                            record_timeline: false,
                            placement_budget: PlacementBudget::Uncapped,
                        },
                    );
                    Simulation::new(spec).unwrap().run()
                };
                let a = go();
                let b = go();
                assert_eq!(a, b, "{kind} replication={replication}");
                assert!(a.finished(), "{kind} replication={replication}: {a}");
            }
        }
    }

    #[test]
    fn stepping_matches_run() {
        // Driving the engine slot-by-slot through the public `step` must
        // reproduce `run` exactly (the bench and alloc harness rely on it).
        let platform = markov_platform(8, 3);
        let app = AppConfig {
            tasks_per_iteration: 12,
            iterations: 2,
            t_prog: 4,
            t_data: 1,
        };
        let build = || {
            let sched = HeuristicKind::EmctStar.build(SeedPath::root(5).rng());
            engine(&platform, &app, sched, 21, SimOptions::default()).unwrap()
        };
        let by_run = build().run();
        let mut sim = build();
        while !sim.is_done() {
            sim.step();
        }
        assert_eq!(sim.slots_run(), by_run.slots_run);
        assert_eq!(sim.into_report(), by_run);
    }

    #[test]
    fn arena_run_is_bit_identical_to_cold_engine() {
        // One arena reused across different platform sizes, task counts,
        // heuristics and replication settings — buffers grow AND shrink —
        // must reproduce the cold path exactly, run after run.
        let mut arena = SimArena::new();
        let plans: &[(usize, usize, bool)] = &[
            (8, 12, true),
            (64, 96, false), // grow
            (4, 3, true),    // shrink
            (8, 12, true),   // revisit the first shape with dirty buffers
        ];
        for (round, &(p, m, replication)) in plans.iter().enumerate() {
            let platform = markov_platform(p, 3);
            let app = AppConfig {
                tasks_per_iteration: m,
                iterations: 2,
                t_prog: 4,
                t_data: 1,
            };
            let options = SimOptions {
                max_slots: 100_000,
                replication,
                record_timeline: false,
                placement_budget: PlacementBudget::Uncapped,
            };
            for kind in [HeuristicKind::EmctStar, HeuristicKind::Random2w] {
                let seed = (round * 10 + p) as u64;
                let sched = || kind.build(SeedPath::root(seed).rng());
                let warm = seeded(
                    Some(&mut arena),
                    &platform,
                    &app,
                    sched(),
                    seed + 1,
                    options,
                );
                let cold = seeded(None, &platform, &app, sched(), seed + 1, options);
                assert_eq!(warm.unwrap(), cold.unwrap(), "round {round} {kind}");
            }
        }
    }

    #[test]
    fn arena_rejects_timeline_recording() {
        let platform = always_up(1, 1, 1);
        let app = AppConfig {
            tasks_per_iteration: 1,
            iterations: 1,
            t_prog: 1,
            t_data: 1,
        };
        let mut arena = SimArena::new();
        let err = seeded(
            Some(&mut arena),
            &platform,
            &app,
            HeuristicKind::Mct.build(SeedPath::root(1).rng()),
            2,
            SimOptions {
                record_timeline: true,
                ..NO_REP
            },
        );
        assert!(err.is_err());
    }

    #[test]
    fn arena_reports_cap_as_unfinished() {
        let platform = replay_platform(&["r"], 1, 1);
        let app = AppConfig {
            tasks_per_iteration: 1,
            iterations: 1,
            t_prog: 1,
            t_data: 1,
        };
        let mut arena = SimArena::new();
        let outcome = seeded(
            Some(&mut arena),
            &platform,
            &app,
            HeuristicKind::Mct.build(SeedPath::root(1).rng()),
            2,
            SimOptions {
                max_slots: 25,
                ..NO_REP
            },
        )
        .unwrap();
        assert!(!outcome.finished());
        assert_eq!(outcome.makespan, None);
        assert_eq!(outcome.makespan_or_cap(), 25);
        assert_eq!(outcome.completed_iterations, 0);
    }

    #[test]
    fn all_heuristics_complete_on_a_markov_platform() {
        let platform = markov_platform(6, 2);
        let app = AppConfig {
            tasks_per_iteration: 8,
            iterations: 2,
            t_prog: 5,
            t_data: 1,
        };
        for kind in HeuristicKind::ALL {
            let sched = kind.build(SeedPath::root(1).rng());
            let r = engine(&platform, &app, sched, 3, SimOptions::default())
                .unwrap()
                .run();
            assert!(r.finished(), "{kind} did not finish: {r}");
            assert_eq!(r.counters.tasks_completed, 16, "{kind}");
        }
    }

    #[test]
    fn common_random_numbers_share_traces() {
        // Two different heuristics with the same trace seed must face the
        // same availability: their state_slots tallies may differ only
        // because of different makespans, so compare a fixed-horizon run of
        // a platform with *no* schedulable work (empty pool never happens,
        // but states advance identically regardless of scheduling) — here we
        // simply check that trace sources are scheduler-independent.
        let platform = markov_platform(3, 2);
        let a: Vec<ProcState> = {
            let mut src = platform.processors[0]
                .avail
                .build_source(SeedPath::root(42).child(0).rng());
            (0..100).map(|_| src.next_state()).collect()
        };
        let b: Vec<ProcState> = {
            let mut src = platform.processors[0]
                .avail
                .build_source(SeedPath::root(42).child(0).rng());
            (0..100).map(|_| src.next_state()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn source_count_mismatch_is_an_error() {
        let platform = always_up(2, 1, 1);
        let app = AppConfig {
            tasks_per_iteration: 1,
            iterations: 1,
            t_prog: 1,
            t_data: 1,
        };
        let sched = HeuristicKind::Mct.build(SeedPath::root(1).rng());
        let sources: Vec<_> = platform.seeded_sources(SeedPath::root(1)).take(1).collect();
        let apps = [AppSpec::rigid(app)];
        let spec = RunSpec::new(
            &platform,
            &apps,
            Availability::Rows(Box::new(sources)),
            sched,
            SimOptions::default(),
        );
        assert!(Simulation::new(spec).is_err());
    }

    #[test]
    fn empty_held_replay_is_a_config_error_not_a_panic() {
        // A Markov processor next to an empty replay that holds its last
        // state: the seeded sources have no state stream to emit.
        let mut platform = always_up(2, 1, 1);
        platform.processors[0] = ProcessorConfig::markov(
            1,
            vg_markov::availability::AvailabilityChain::sample_paper(
                &mut SeedPath::root(4).rng(),
                0.90,
                0.99,
            ),
            StartPolicy::Up,
        );
        platform.processors[1].avail = AvailabilityModelConfig::Replay {
            trace: Trace::parse("").unwrap(),
            tail: TailBehavior::HoldLast,
        };
        let err = platform.validate().unwrap_err();
        assert!(err.0.contains("processor 1"), "unhelpful: {err}");
        let app = AppConfig {
            tasks_per_iteration: 1,
            iterations: 1,
            t_prog: 1,
            t_data: 1,
        };
        let apps = [AppSpec::rigid(app)];
        let spec = RunSpec::new(
            &platform,
            &apps,
            Availability::Seeded(SeedPath::root(1)),
            HeuristicKind::Mct.build(SeedPath::root(1).rng()),
            SimOptions::default(),
        );
        assert!(Simulation::new(spec).is_err());
    }

    #[test]
    fn zero_weight_applications_are_rejected() {
        // Weight 0 marks a finished application inside the schedule
        // phase, so an unfinished one would never get a pool quota: every
        // share policy ran such a roster to the slot cap.
        let mut rng = SeedPath::root(23).rng();
        let platform = PlatformConfig {
            processors: (0..6)
                .map(|_| {
                    let chain = vg_markov::availability::AvailabilityChain::sample_paper(
                        &mut rng, 0.90, 0.98,
                    );
                    ProcessorConfig::markov(rng.u64_range_inclusive(3, 8), chain, StartPolicy::Up)
                })
                .collect(),
            ncom: 2,
        };
        let app = AppConfig {
            tasks_per_iteration: 4,
            iterations: 3,
            t_prog: 5,
            t_data: 2,
        };
        let apps = [AppSpec::rigid(app), AppSpec::weighted(app, 0)];
        let options = SimOptions {
            max_slots: 5_000,
            replication: false,
            ..SimOptions::default()
        };
        let mut arena = SimArena::new();
        for share in SharePolicy::ALL {
            let spec = || RunSpec {
                share,
                ..RunSpec::new(
                    &platform,
                    &apps,
                    Availability::Seeded(SeedPath::root(6)),
                    HeuristicKind::EmctStar.build(SeedPath::root(1).rng()),
                    options,
                )
            };
            let fresh = Simulation::new(spec())
                .err()
                .expect("fresh engine accepted weight 0");
            let warm = arena.run(spec()).expect_err("arena accepted weight 0");
            for err in [fresh, warm] {
                assert!(err.0.contains("application 1"), "{share}: {}", err.0);
            }
        }
    }

    #[test]
    fn bandwidth_utilization_bounded() {
        let platform = markov_platform(5, 2);
        let app = AppConfig {
            tasks_per_iteration: 10,
            iterations: 2,
            t_prog: 5,
            t_data: 2,
        };
        let r = run(
            &platform,
            &app,
            HeuristicKind::MctStar,
            SimOptions::default(),
        );
        assert!(r.mean_bandwidth_utilization >= 0.0);
        assert!(r.mean_bandwidth_utilization <= 1.0);
    }

    #[test]
    fn timeline_recording_matches_run() {
        let platform = replay_platform(&["uuruuuuu"], 2, 1);
        let app = AppConfig {
            tasks_per_iteration: 1,
            iterations: 1,
            t_prog: 1,
            t_data: 1,
        };
        let sched = HeuristicKind::Mct.build(SeedPath::root(1).rng());
        let opts = SimOptions {
            record_timeline: true,
            ..NO_REP
        };
        let r = engine(&platform, &app, sched, 7, opts).unwrap().run();
        let tl = r.timeline.as_ref().expect("recording enabled");
        assert_eq!(tl.slots() as u64, r.slots_run);
        assert_eq!(tl.p(), 1);
        // Trace u u r u u…: prog@0, reclaimed@2 appears, data@1,
        // compute@3-4 → makespan 5.
        use crate::timeline::Activity;
        assert_eq!(tl.at(0, 0), Activity::RecvProg);
        assert_eq!(tl.at(0, 1), Activity::RecvData);
        assert_eq!(tl.at(0, 2), Activity::Reclaimed);
        assert_eq!(tl.at(0, 3), Activity::Compute);
        assert_eq!(tl.at(0, 4), Activity::Compute);
        assert_eq!(tl.barriers(), &[4]);
        assert_eq!(r.makespan, Some(5));
        // Recording must not change the outcome.
        let baseline = run(&platform, &app, HeuristicKind::Mct, NO_REP);
        assert_eq!(baseline.makespan, r.makespan);
    }

    #[test]
    fn zero_prog_and_zero_data_compute_only() {
        // Pure computation: m tasks of w slots on one worker.
        let platform = always_up(1, 3, 1);
        let app = AppConfig {
            tasks_per_iteration: 2,
            iterations: 1,
            t_prog: 0,
            t_data: 0,
        };
        let r = run(&platform, &app, HeuristicKind::Mct, NO_REP);
        // Bind+compute from slot 0: 2 tasks × 3 slots = 6.
        assert_eq!(r.makespan, Some(6));
        assert_eq!(r.counters.prog_channel_slots, 0);
        assert_eq!(r.counters.data_channel_slots, 0);
    }

    #[test]
    fn crash_during_program_transfer_restarts_it() {
        // Trace u u d u u u u: program (Tprog=3) gets 2 slots, crashes,
        // restarts: prog 3-5, data 6, compute 7 → makespan 8.
        let platform = replay_platform(&["uuduuuuuu"], 1, 1);
        let app = AppConfig {
            tasks_per_iteration: 1,
            iterations: 1,
            t_prog: 3,
            t_data: 1,
        };
        let r = run(&platform, &app, HeuristicKind::Mct, NO_REP);
        assert_eq!(r.makespan, Some(8));
        // 2 wasted + 3 real program channel-slots.
        assert_eq!(r.counters.prog_channel_slots, 5);
        assert_eq!(r.counters.programs_delivered, 1);
    }

    #[test]
    fn makespan_monotone_in_iterations() {
        let platform = markov_platform(4, 2);
        let mk = |iters| {
            let app = AppConfig {
                tasks_per_iteration: 4,
                iterations: iters,
                t_prog: 3,
                t_data: 1,
            };
            run(&platform, &app, HeuristicKind::Emct, SimOptions::default()).makespan_or_cap()
        };
        assert!(mk(1) <= mk(2));
        assert!(mk(2) <= mk(4));
    }
}
