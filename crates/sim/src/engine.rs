//! The slot-level simulation engine.
//!
//! Executes one iterative master–worker application (Section 3) on a
//! volatile platform under a pluggable scheduling heuristic (Section 6).
//! Each slot proceeds through fixed phases:
//!
//! 1. **States** — every worker draws its state for the slot;
//! 2. **Crashes** — `DOWN` workers lose program, data and partial results
//!    (Section 3.2); their pinned copies return to the pool (originals) or
//!    evaporate (replicas);
//! 3. **Scheduling** — the heuristic places the pool's unstarted originals,
//!    then replicas onto idle `UP` workers (Section 6.1's replication rule:
//!    at most two extra copies, originals take priority);
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
//! ## Worker storage: SoA by default, AoS as oracle
//!
//! Per-worker state lives behind the [`WorkerStore`] trait
//! (`crate::store`): the engine is generic — and monomorphized — over the
//! layout, defaulting to the cache-tight hot/cold [`WorkerSoA`] split while
//! [`ReferenceSimulation`] retains the original `Vec<WorkerRuntime>` path.
//! Every phase above is written as index loops over the store, so with the
//! SoA each pass walks dense columns (1-byte states, the `occupancy` byte
//! for the free-mask and unbind checks) instead of dragging each
//! worker's cold fields through the cache. The
//! `crates/sim/tests/soa_equivalence.rs` grid pins the two layouts to
//! byte-identical [`SimReport`]s across all 17 heuristics.
//!
//! ## The change-fed slot loop and exact-location cancellation
//!
//! The per-slot `O(p)` walks are avoided by bookkeeping:
//!
//! * **Everything the scheduler sees is patched, not rebuilt.** The store
//!   keeps a deduplicated change feed (see the [`WorkerStore`] change-feed
//!   contract) naming every worker whose state, pipeline or busyness moved.
//!   `sync_views` drains it into the persistent snapshot buffer and free
//!   mask, and forwards each worker whose candidacy or delay actually
//!   changed to the per-lane sets behind the [`ViewDelta`] each pool or
//!   replica round carries, so a scheduler can patch its own per-lane
//!   state in `O(changed)` as well. The crash pass visits only the workers
//!   the store saw turn `DOWN`. Rounds restricted to a subset of workers
//!   (replicas onto free workers, demand-driven rounds onto workers with
//!   room) name it through [`SchedView::candidates`] instead of masking
//!   the snapshot buffer. The AoS oracle keeps no feed: it rebuilds every
//!   consult from scratch, crashes every `DOWN` worker every slot and never
//!   sends a delta, so the equivalence grid cross-checks all of it; debug
//!   builds also assert patched ≡ rebuilt at every consult.
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
use vg_core::view::{AppView, Lane, ProcSnapshot, SchedView, ViewDelta};
use vg_core::Scheduler;
use vg_des::{Slot, SlotSpan};
use vg_markov::availability::{ChainStats, ProcState};
use vg_platform::fault::CompiledScript;
use vg_platform::network::{BandwidthLedger, TransferKind};
use vg_platform::source::{AvailabilitySource, MarkovSourceBank, RowSource, SharedTraceMatrix};
use vg_platform::volatility::ScriptedOverlay;
use vg_platform::{AppConfig, ConfigError, PlatformConfig, ProcessorId};

use crate::app::{
    app_of, global_task, iter_for, local_task, AppRuntime, AppSpec, ReconfigPolicy, MAX_APPS,
    MAX_APP_TASKS,
};
use crate::report::{AppReport, Counters, MultiReport, SimReport};
use crate::store::{AosWorkers, WorkerSoA, WorkerStore, SUMMARY_BLOCK};
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
    /// Enable the Section 6.1 replication policy.
    pub replication: bool,
    /// Maximum *extra* copies per task (the paper uses 2 → 3 copies total).
    pub max_extra_replicas: u8,
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
            max_extra_replicas: 2,
            record_timeline: false,
            placement_budget: PlacementBudget::Uncapped,
        }
    }
}

/// Wall-clock accounting of the (fused) slot phases, recorded by
/// [`Simulation::step`] when the `phase-profile` feature is enabled. Global
/// and cumulative across every engine on the process — reset before the
/// measured window, then read the split. The `phase_profile` bench in
/// vg-bench drives this and prints percentages per platform size.
#[cfg(feature = "phase-profile")]
pub mod phase_profile {
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Display names, index-aligned with [`NANOS`].
    pub const NAMES: [&str; 7] = [
        "states",
        "crashes",
        "schedule",
        "transfers",
        "compute",
        "promotions+unbind",
        "slot_end",
    ];

    /// Cumulative nanoseconds per phase.
    pub static NANOS: [AtomicU64; 7] = [
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
    ];

    /// Display names of the schedule sub-phases, index-aligned with
    /// [`SUB`] and listed in slot execution order.
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

    /// Cumulative nanoseconds of the schedule phase's sub-parts: the
    /// view sync before the pool round (`snapshot`), the pool (originals)
    /// placement and its bind loop, the replica-candidate generation, the
    /// view sync before the replica round (`free_scan`), the candidate-set
    /// fill of demand-driven rounds (`mask`), and the replica placement
    /// and its bind/mint loop. Together they partition (almost all of) the `schedule` entry
    /// of [`NANOS`] — the split that told this codebase the
    /// Eq.-(2)/Theorem-2 score evaluations, not the snapshot walk,
    /// dominated at `p = 1024`, the one that separates selector cost (the
    /// `*_place` entries) from bind bookkeeping, and — since the
    /// free-scan/mask/cands split — the one that shows what the replica
    /// phase's candidates-first early-out actually skips.
    pub static SUB: [AtomicU64; 8] = [
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
    ];

    /// Zeroes every accumulator.
    pub fn reset() {
        for n in &NANOS {
            n.store(0, Ordering::Relaxed);
        }
        for n in &SUB {
            n.store(0, Ordering::Relaxed);
        }
    }

    /// Reads all accumulators.
    #[must_use]
    pub fn snapshot() -> [u64; 7] {
        std::array::from_fn(|i| NANOS[i].load(Ordering::Relaxed))
    }

    /// Reads the schedule sub-phase accumulators.
    #[must_use]
    pub fn sub_snapshot() -> [u64; 8] {
        std::array::from_fn(|i| SUB[i].load(Ordering::Relaxed))
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
/// order. Stores that maintain a busy bitmap ([`WorkerStore::busy_word`])
/// are walked bit by bit — O(busy) instead of O(p), the difference between
/// a volunteer grid's handful of active workers and its 131072-processor
/// platform; other layouts take the block-chunked dense scan gated on the
/// per-block busy summaries (the AoS oracle's `true`-everywhere default
/// degrades it to the original full scan).
///
/// Each word is **copied** before its bits are drained, so `$body` may
/// mutate occupancy. This is sound in the phases that use it because
/// busyness is *monotone non-increasing* there (no phase below binds new
/// copies): a bit cleared mid-phase belongs to a worker either already
/// visited or re-rejected by `$body`'s own `busy`/state checks, and no bit
/// can newly appear. The SoA⇄AoS oracle grid pins the two paths to
/// identical behavior.
macro_rules! for_each_busy_worker {
    ($workers:expr, $q:ident, $body:block) => {{
        let p = $workers.len();
        if S::HAS_BUSY_WORDS {
            for wi in 0..p.div_ceil(64) {
                let mut word = $workers.busy_word(wi);
                while word != 0 {
                    let $q = wi * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    $body
                }
            }
        } else {
            for b in 0..$workers.summary_blocks() {
                if !$workers.block_may_be_busy(b) {
                    continue;
                }
                let start = b * SUMMARY_BLOCK;
                let end = (start + SUMMARY_BLOCK).min(p);
                #[allow(clippy::needless_range_loop)] // mirrors the bit walk
                for $q in start..end {
                    $body
                }
            }
        }
    }};
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
    /// Scheduler-visible snapshots. **Persistent across slots**: with a
    /// change-feed store the buffer is patched in place at the fed workers
    /// only (see `sync_views`); the oracle layout rebuilds it from scratch
    /// every consult.
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
    /// Schedulable original tasks (phase 3).
    pool: Vec<TaskId>,
    /// Replica candidates (phase 3).
    cands: Vec<TaskId>,
    /// Scheduler placement output (phase 3).
    placements: Vec<ProcessorId>,
    /// Pool tasks still awaiting a bind inside the [`PlacementBudget::
    /// BindCapacity`] top-up loop (phase 3); compacted in place as binds
    /// succeed, untouched on the uncapped path.
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
    /// Per-application placement quotas of the slot ([`share_quotas`]
    /// output); multi-application slots only.
    quotas: Vec<usize>,
}

impl SlotScratch {
    /// Pre-sizes every buffer to its steady-state high-water mark for `p`
    /// workers and `m` tasks per iteration.
    fn with_capacity(p: usize, m: usize) -> Self {
        Self {
            procs: Vec::with_capacity(p),
            free: Vec::with_capacity(p),
            free_total: 0,
            views_valid: false,
            lane_bits: std::array::from_fn(|_| Vec::with_capacity(p.div_ceil(64))),
            lane_list: Vec::with_capacity(p),
            lane_seq: [0; Lane::COUNT],
            with_room: Vec::with_capacity(p),
            down: Vec::with_capacity(p),
            pool: Vec::with_capacity(m),
            cands: Vec::with_capacity(m),
            placements: Vec::with_capacity(m.max(p)),
            pending: Vec::with_capacity(m),
            replica_pins: Vec::with_capacity(4),
            room: Vec::with_capacity(p),
            continuations: Vec::with_capacity(p),
            requests: Vec::with_capacity(2 * p),
            prog_requested: Vec::with_capacity(p),
            data_requested: Vec::with_capacity(p),
            completions: Vec::with_capacity(p),
            state_row: Vec::with_capacity(p),
            copies: Vec::with_capacity(8),
            activities: Vec::with_capacity(p),
            weights: Vec::with_capacity(4),
            quotas: Vec::with_capacity(4),
        }
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

/// Lean per-application result of a multi-application arena run — the
/// [`RunOutcome`]-shaped slice of one application's bookkeeping.
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

/// Result of [`SimArena::run_apps_seeded`]: the combined outcome plus one
/// [`AppOutcome`] per application, in engine app order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiOutcome {
    /// Whole-platform outcome (same semantics as a single-app run: finished
    /// iff *every* application finished).
    pub combined: RunOutcome,
    /// Per-application outcomes.
    pub apps: Vec<AppOutcome>,
}

/// A **warmed simulation arena**: every per-run buffer of the engine —
/// worker runtimes (including their `bound` vectors), chain statistics,
/// the source vector, iteration bookkeeping, the whole `SlotScratch`,
/// slot marks and the bind-order queue — kept alive across runs so that
/// back-to-back simulations stop paying the ~25-allocation construction
/// cost of [`Simulation::new`].
///
/// Intended use: one arena per worker thread of a campaign fan-out, driven
/// through [`SimArena::run_seeded`] for every (heuristic, trial) instance.
/// Results are bit-identical to [`Simulation::run_seeded`] with the same
/// inputs — the arena only recycles allocations, never state: every buffer
/// is reset (not merely reused) before a run, and determinism tests pin the
/// equivalence.
///
/// Timeline recording is not supported here (a timeline's size is the run's
/// output, not scratch); request it through [`Simulation`] instead.
#[derive(Default)]
pub struct SimArena {
    workers: WorkerSoA,
    chains: Vec<ChainStats>,
    sources: Vec<Box<dyn AvailabilitySource>>,
    /// Warmed dense all-Markov bank (columns keep their capacity across
    /// runs); re-seeded per run by [`Self::run_seeded`] when the platform
    /// qualifies.
    dense: MarkovSourceBank,
    /// Warmed per-application runtimes (their iteration-state buffers keep
    /// capacity across runs); re-initialized in place per run.
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

    /// Runs one simulation, reusing this arena's buffers. Seeds and
    /// semantics are exactly [`Simulation::run_seeded`]'s: sources are built
    /// from `trace_seeds.child(q)` per processor, so common-random-number
    /// comparisons work unchanged.
    ///
    /// # Errors
    /// Propagates configuration validation errors, and rejects
    /// [`SimOptions::record_timeline`] (unsupported in arena mode).
    pub fn run_seeded(
        &mut self,
        platform: &PlatformConfig,
        app: &AppConfig,
        scheduler: Box<dyn Scheduler>,
        trace_seeds: vg_des::rng::SeedPath,
        options: SimOptions,
    ) -> Result<RunOutcome, ConfigError> {
        platform.validate()?;
        let specs = [AppSpec::rigid(*app)];
        validate_app_specs(&specs)?;
        if options.record_timeline {
            return Err(ConfigError(
                "SimArena does not record timelines; use Simulation::run_seeded".into(),
            ));
        }
        let dense = self.prepare_sources(platform, &trace_seeds);
        if dense {
            let bank = SourceBank::Dense(std::mem::take(&mut self.dense));
            Ok(self.run_core_with(
                platform,
                &specs,
                SharePolicy::default(),
                scheduler,
                bank,
                None,
                options,
            ))
        } else {
            Ok(self.run_core(platform, &specs, SharePolicy::default(), scheduler, options))
        }
    }

    /// Runs several co-scheduled applications over one platform, reusing
    /// this arena's buffers; the multi-application twin of
    /// [`Self::run_seeded`]. Seeds, sources and the slot loop are shared by
    /// all applications — they compete for the same volatile workers under
    /// `share` — and a one-spec roster with [`AppSpec::rigid`] is
    /// bit-identical to [`Self::run_seeded`].
    ///
    /// # Errors
    /// Propagates validation errors (empty/oversized rosters, per-app
    /// config problems, mismatched communication parameters) and rejects
    /// timeline recording as in [`Self::run_seeded`].
    pub fn run_apps_seeded(
        &mut self,
        platform: &PlatformConfig,
        specs: &[AppSpec],
        share: SharePolicy,
        scheduler: Box<dyn Scheduler>,
        trace_seeds: vg_des::rng::SeedPath,
        options: SimOptions,
    ) -> Result<MultiOutcome, ConfigError> {
        platform.validate()?;
        validate_app_specs(specs)?;
        if options.record_timeline {
            return Err(ConfigError(
                "SimArena does not record timelines; use Simulation::run_multi_seeded".into(),
            ));
        }
        let dense = self.prepare_sources(platform, &trace_seeds);
        let combined = if dense {
            let bank = SourceBank::Dense(std::mem::take(&mut self.dense));
            self.run_core_with(platform, specs, share, scheduler, bank, None, options)
        } else {
            self.run_core(platform, specs, share, scheduler, options)
        };
        let apps = self
            .apps
            .iter()
            .map(|rt| AppOutcome {
                makespan: rt.completed_at.map(|s| s + 1),
                completed_iterations: rt.iterations_done,
                final_m: rt.iter.m(),
                tasks_completed: rt.tasks_completed,
            })
            .collect(); // tidy:allow(hot_alloc): per-run result assembly, after the slot loop.
        Ok(MultiOutcome { combined, apps })
    }

    /// Rebuilds per-run sources and chain statistics *into* the warmed
    /// buffers. All-Markov platforms take the dense bank (bit-identical
    /// states, no per-processor boxing) and return `true`; the rest rebuild
    /// boxed sources.
    fn prepare_sources(
        &mut self,
        platform: &PlatformConfig,
        trace_seeds: &vg_des::rng::SeedPath,
    ) -> bool {
        let dense = self.dense.rebuild_from_platform(platform, trace_seeds);
        self.sources.clear();
        if !dense {
            self.sources.extend(
                platform
                    .processors
                    .iter()
                    .enumerate()
                    .map(|(q, pc)| pc.avail.build_source(trace_seeds.child(q as u64).rng())),
            );
        }
        self.chains.clear();
        self.chains.extend(
            platform
                .processors
                .iter()
                .map(|pc| ChainStats::new(pc.believed_chain())),
        );
        dense
    }

    /// Runs one simulation with **caller-shared per-scenario state**: chain
    /// statistics computed once per platform (see [`platform_chain_stats`])
    /// and availability sources supplied directly (custom generators,
    /// replayed archive traces, …). To share one *recorded* trace across
    /// the heuristics of an instance, use [`Self::run_shared_trace`], which
    /// consumes a [`SharedTraceMatrix`] row-by-row instead.
    ///
    /// `chains` must be the statistics of `platform`'s believed chains, in
    /// processor order; `sources` must yield exactly one source per
    /// processor, in order. Results are bit-identical to
    /// [`Self::run_seeded`] with equivalently seeded sources.
    ///
    /// # Errors
    /// Propagates validation errors; rejects timeline recording and
    /// mismatched `chains`/`sources` lengths.
    pub fn run_configured(
        &mut self,
        platform: &PlatformConfig,
        app: &AppConfig,
        scheduler: Box<dyn Scheduler>,
        chains: &[ChainStats],
        sources: impl IntoIterator<Item = Box<dyn AvailabilitySource>>,
        options: SimOptions,
    ) -> Result<RunOutcome, ConfigError> {
        platform.validate()?;
        let specs = [AppSpec::rigid(*app)];
        validate_app_specs(&specs)?;
        if options.record_timeline {
            return Err(ConfigError(
                "SimArena does not record timelines; use Simulation::run_seeded".into(),
            ));
        }
        if chains.len() != platform.p() {
            // tidy:allow(hot_alloc): config-validation error path, taken before any slot runs.
            return Err(ConfigError(format!(
                "{} chain stats for {} processors",
                chains.len(),
                platform.p()
            )));
        }
        self.sources.clear();
        self.sources.extend(sources);
        if self.sources.len() != platform.p() {
            // tidy:allow(hot_alloc): config-validation error path, taken before any slot runs.
            return Err(ConfigError(format!(
                "{} sources for {} processors",
                self.sources.len(),
                platform.p()
            )));
        }
        self.chains.clear();
        self.chains.extend_from_slice(chains);
        Ok(self.run_core(platform, &specs, SharePolicy::default(), scheduler, options))
    }

    /// Runs one simulation against a [`SharedTraceMatrix`] recording, with
    /// per-scenario `chains` as in [`Self::run_configured`]. The engine
    /// consumes the recording **row by row** — one borrow and `p` byte reads
    /// per slot — so replaying heuristics skip per-processor sampling
    /// entirely. Bit-identical to [`Self::run_seeded`] over sources with the
    /// recording's seeds.
    ///
    /// # Errors
    /// Propagates validation errors; rejects timeline recording and a
    /// matrix/chains whose width is not `platform.p()`.
    pub fn run_shared_trace(
        &mut self,
        platform: &PlatformConfig,
        app: &AppConfig,
        scheduler: Box<dyn Scheduler>,
        chains: &[ChainStats],
        trace: &SharedTraceMatrix,
        options: SimOptions,
    ) -> Result<RunOutcome, ConfigError> {
        self.run_shared_trace_overlay(platform, app, scheduler, chains, trace, None, options)
    }

    /// [`Self::run_shared_trace`] with a scripted fault overlay: the script
    /// forces states onto each replayed row *after* it is read, leaving the
    /// recording itself untouched — every heuristic of an instance still
    /// replays byte-identical base availability (common random numbers),
    /// with the same scripted faults layered on top. `None` (and a
    /// passthrough script) is bit-identical to [`Self::run_shared_trace`].
    ///
    /// # Errors
    /// As [`Self::run_shared_trace`], plus a script compiled for a
    /// different platform size.
    #[allow(clippy::too_many_arguments)] // mirrors run_shared_trace + the overlay
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
        platform.validate()?;
        let specs = [AppSpec::rigid(*app)];
        validate_app_specs(&specs)?;
        if options.record_timeline {
            return Err(ConfigError(
                "SimArena does not record timelines; use Simulation::run_seeded".into(),
            ));
        }
        if chains.len() != platform.p() || trace.p() != platform.p() {
            // tidy:allow(hot_alloc): config-validation error path, taken before any slot runs.
            return Err(ConfigError(format!(
                "{} chain stats / {}-wide trace for {} processors",
                chains.len(),
                trace.p(),
                platform.p()
            )));
        }
        if let Some(s) = script {
            if s.p() != platform.p() {
                // tidy:allow(hot_alloc): config-validation error path, taken before any slot runs.
                return Err(ConfigError(format!(
                    "fault script compiled for {} workers on a {}-processor platform",
                    s.p(),
                    platform.p()
                )));
            }
        }
        self.chains.clear();
        self.chains.extend_from_slice(chains);
        let bank = SourceBank::Shared {
            trace: trace.handle(),
            next_slot: 0,
        };
        // tidy:allow(hot_alloc): per-run overlay construction, before the first slot.
        let overlay = script.map(|s| ScriptedOverlay::new(s.clone()));
        Ok(self.run_core_with(
            platform,
            &specs,
            SharePolicy::default(),
            scheduler,
            bank,
            overlay,
            options,
        ))
    }

    /// Shared tail of the `run_*` entry points; expects `self.sources` and
    /// `self.chains` to be populated for `platform`.
    fn run_core(
        &mut self,
        platform: &PlatformConfig,
        specs: &[AppSpec],
        share: SharePolicy,
        scheduler: Box<dyn Scheduler>,
        options: SimOptions,
    ) -> RunOutcome {
        let bank = SourceBank::PerProc(std::mem::take(&mut self.sources));
        self.run_core_with(platform, specs, share, scheduler, bank, None, options)
    }

    /// Innermost run loop over an explicit source bank (and optional
    /// scripted overlay).
    #[allow(clippy::too_many_arguments)] // private tail shared by every entry point
    fn run_core_with(
        &mut self,
        platform: &PlatformConfig,
        specs: &[AppSpec],
        share: SharePolicy,
        mut scheduler: Box<dyn Scheduler>,
        bank: SourceBank,
        overlay: Option<ScriptedOverlay>,
        options: SimOptions,
    ) -> RunOutcome {
        scheduler.begin_run();
        let p = platform.p();
        self.workers
            .reset_for(platform.processors.iter().map(|pc| pc.spec));
        // Rebuild the per-app runtimes *into* the warmed vector: existing
        // entries re-initialize in place (keeping their iteration-state
        // buffers), extra entries from a previous wider run are dropped.
        self.apps.truncate(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            if i < self.apps.len() {
                self.apps[i].reinit(i, spec, options.max_extra_replicas);
            } else {
                self.apps
                    .push(AppRuntime::new(i, spec, options.max_extra_replicas));
            }
        }
        self.iteration_completed_at.clear();
        self.bind_order.clear();
        self.slot_marks.clear();
        self.slot_marks.resize(p, SlotMarks::default());
        // The snapshot and free-mask buffers may hold another run's
        // platform; the first consult must rebuild them fully.
        self.scratch.views_valid = false;

        let mut sim = Simulation {
            app: CommParams {
                t_prog: specs[0].config.t_prog,
                t_data: specs[0].config.t_data,
            },
            apps: std::mem::take(&mut self.apps),
            share,
            workers: std::mem::take(&mut self.workers),
            sources: bank,
            chains: std::mem::take(&mut self.chains),
            scheduler,
            ledger: BandwidthLedger::new(platform.ncom),
            options,
            slot: 0,
            iteration_completed_at: std::mem::take(&mut self.iteration_completed_at),
            counters: Counters::default(),
            bind_order: std::mem::take(&mut self.bind_order),
            cap_engagements: 0,
            overlay,
            scratch: std::mem::take(&mut self.scratch),
            timeline: None,
            slot_marks: std::mem::take(&mut self.slot_marks),
        };
        while !sim.is_done() {
            sim.step();
        }
        let outcome = RunOutcome {
            makespan: sim
                .apps
                .iter()
                .all(AppRuntime::finished)
                .then_some(sim.slot),
            slots_run: sim.slot,
            completed_iterations: sim.apps.iter().map(|a| a.iterations_done()).sum(),
        };

        // Reclaim the warmed buffers for the next run.
        self.workers = sim.workers;
        match sim.sources {
            SourceBank::PerProc(v) => self.sources = v,
            SourceBank::Dense(b) => self.dense = b,
            SourceBank::Shared { .. } | SourceBank::Rows(_) => {}
        }
        self.chains = sim.chains;
        self.apps = sim.apps;
        self.iteration_completed_at = sim.iteration_completed_at;
        self.bind_order = sim.bind_order;
        self.scratch = sim.scratch;
        self.slot_marks = sim.slot_marks;
        outcome
    }
}

/// Validates a co-scheduled application roster: 1 to [`MAX_APPS`]
/// applications, each individually valid, every `tasks_per_iteration`
/// inside the per-app task-id namespace ([`MAX_APP_TASKS`]), and all
/// communication parameters equal — `T_prog`/`T_data` describe the shared
/// platform links, so co-scheduled applications cannot disagree on them.
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

/// Chain statistics of every processor's believed chain, in processor order
/// — compute once per platform and share across every run on it via
/// [`SimArena::run_configured`] or [`SimArena::run_shared_trace`] (the
/// stationary-distribution solve behind [`ChainStats::new`] is ~half the
/// per-run setup cost otherwise).
#[must_use]
pub fn platform_chain_stats(platform: &PlatformConfig) -> Vec<ChainStats> {
    platform
        .processors
        .iter()
        .map(|pc| ChainStats::new(pc.believed_chain()))
        .collect() // tidy:allow(hot_alloc): once-per-platform precompute, shared across all runs.
}

/// Where a run's availability states come from.
enum SourceBank {
    /// One live source per processor (the stand-alone path).
    PerProc(Vec<Box<dyn AvailabilitySource>>),
    /// A dense all-Markov bank: three contiguous columns advanced in one
    /// linear sweep — the platform-scale path for seeded runs, bit-identical
    /// to `PerProc` over `markov_source`s with the same seeds (pinned by
    /// `dense_markov_bank_matches_boxed_streams` in vg-platform and the
    /// seeded-vs-explicit-sources determinism test below).
    Dense(MarkovSourceBank),
    /// A shared recording, consumed row-by-row: one borrow and `p`
    /// contiguous byte reads per slot instead of `p` virtual calls — the
    /// common-random-numbers fast path for campaign instances.
    Shared {
        trace: SharedTraceMatrix,
        next_slot: usize,
    },
    /// A live whole-row generator (correlated volatility models): one call
    /// emits every processor's state for the slot, so cross-worker
    /// correlation stays expressible without per-processor sources.
    Rows(Box<dyn RowSource>),
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
/// Generic over the worker-storage layout `S` (monomorphized, zero runtime
/// cost): the default [`WorkerSoA`] is the hot/cold split the production
/// engine runs on, while [`ReferenceSimulation`] (= `Simulation<AosWorkers>`)
/// retains the original `Vec<WorkerRuntime>` path as the bit-identity
/// oracle — see `crates/sim/tests/soa_equivalence.rs`.
///
/// One engine drives a *roster* of application runtimes over the shared
/// worker store ([`crate::app::AppRuntime`]); a one-app roster is the
/// historical single-application engine, bit for bit. Task ids in worker
/// columns are namespaced by application ([`crate::app`]).
pub struct Simulation<S: WorkerStore = WorkerSoA> {
    app: CommParams,
    /// The co-scheduled application runtimes, engine app order. Never
    /// empty; `apps.len() == 1` selects the single-application phases.
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
    /// Scripted fault injector, applied to every sampled state row *after*
    /// the source bank fills it ([`Simulation::set_overlay`]). `None` — and
    /// a passthrough overlay — leave rows untouched, so the overlaid run is
    /// byte-identical to the base (the chaos_equivalence grid pins this);
    /// actual changes land in [`Counters::injected_faults`].
    overlay: Option<ScriptedOverlay>,
    scratch: SlotScratch,
    timeline: Option<Timeline>,
    slot_marks: Vec<SlotMarks>,
}

/// The retained AoS engine: `Simulation` over the original
/// `Vec<WorkerRuntime>` layout, used as the bit-identity oracle for the SoA
/// refactor. Construct with [`Simulation::new_in`] /
/// [`Simulation::run_seeded_in`].
pub type ReferenceSimulation = Simulation<AosWorkers>;

impl Simulation {
    /// Builds an engine over the default [`WorkerSoA`] layout.
    ///
    /// `sources` must contain exactly one availability source per platform
    /// processor, in processor order; the caller controls their seeds (this
    /// is what enables common-random-number comparisons).
    pub fn new(
        platform: &PlatformConfig,
        app: &AppConfig,
        scheduler: Box<dyn Scheduler>,
        sources: Vec<Box<dyn AvailabilitySource>>,
        options: SimOptions,
    ) -> Result<Self, ConfigError> {
        Self::new_in(platform, app, scheduler, sources, options)
    }

    /// Builds an engine co-scheduling several applications over the default
    /// [`WorkerSoA`] layout (see [`Simulation::new_multi_in`]).
    pub fn new_multi(
        platform: &PlatformConfig,
        specs: &[AppSpec],
        share: SharePolicy,
        scheduler: Box<dyn Scheduler>,
        sources: Vec<Box<dyn AvailabilitySource>>,
        options: SimOptions,
    ) -> Result<Self, ConfigError> {
        Self::new_multi_in(platform, specs, share, scheduler, sources, options)
    }

    /// Convenience: build sources straight from the platform config using a
    /// seed path (`path.child(q)` per processor) and run.
    pub fn run_seeded(
        platform: &PlatformConfig,
        app: &AppConfig,
        scheduler: Box<dyn Scheduler>,
        trace_seeds: vg_des::rng::SeedPath,
        options: SimOptions,
    ) -> Result<SimReport, ConfigError> {
        Self::run_seeded_in(platform, app, scheduler, trace_seeds, options)
    }

    /// Convenience: seed, run and split per application — the
    /// multi-application twin of [`Simulation::run_seeded`].
    pub fn run_multi_seeded(
        platform: &PlatformConfig,
        specs: &[AppSpec],
        share: SharePolicy,
        scheduler: Box<dyn Scheduler>,
        trace_seeds: vg_des::rng::SeedPath,
        options: SimOptions,
    ) -> Result<MultiReport, ConfigError> {
        Self::run_multi_seeded_in(platform, specs, share, scheduler, trace_seeds, options)
    }
}

impl<S: WorkerStore> Simulation<S> {
    /// Builds an engine over an explicit worker-storage layout `S`
    /// ([`Simulation::new`] for the default SoA; `S = AosWorkers` for the
    /// reference path).
    pub fn new_in(
        platform: &PlatformConfig,
        app: &AppConfig,
        scheduler: Box<dyn Scheduler>,
        sources: Vec<Box<dyn AvailabilitySource>>,
        options: SimOptions,
    ) -> Result<Self, ConfigError> {
        Self::new_multi_in(
            platform,
            &[AppSpec::rigid(*app)],
            SharePolicy::default(),
            scheduler,
            sources,
            options,
        )
    }

    /// Builds an engine co-scheduling several applications over an explicit
    /// worker-storage layout `S`. The applications run concurrently on the
    /// shared platform, splitting each slot's bindable capacity under
    /// `share`; a one-spec roster with [`AppSpec::rigid`] is bit-identical
    /// to [`Self::new_in`] with that config.
    pub fn new_multi_in(
        platform: &PlatformConfig,
        specs: &[AppSpec],
        share: SharePolicy,
        scheduler: Box<dyn Scheduler>,
        sources: Vec<Box<dyn AvailabilitySource>>,
        options: SimOptions,
    ) -> Result<Self, ConfigError> {
        platform.validate()?;
        if sources.len() != platform.p() {
            // tidy:allow(hot_alloc): config-validation error path, taken before any slot runs.
            return Err(ConfigError(format!(
                "{} sources for {} processors",
                sources.len(),
                platform.p()
            )));
        }
        Self::new_with_bank(
            platform,
            specs,
            share,
            scheduler,
            SourceBank::PerProc(sources),
            options,
        )
    }

    /// Builds an engine over a whole-row generator (e.g.
    /// [`vg_platform::volatility::CorrelatedSource`]): the bank draws one
    /// full state row per slot, which is how cross-worker correlation enters
    /// the engine without touching per-worker seed streams.
    pub fn new_rows_in(
        platform: &PlatformConfig,
        app: &AppConfig,
        scheduler: Box<dyn Scheduler>,
        rows: Box<dyn RowSource>,
        options: SimOptions,
    ) -> Result<Self, ConfigError> {
        Self::new_multi_rows_in(
            platform,
            &[AppSpec::rigid(*app)],
            SharePolicy::default(),
            scheduler,
            rows,
            options,
        )
    }

    /// Co-scheduling twin of [`Self::new_rows_in`].
    pub fn new_multi_rows_in(
        platform: &PlatformConfig,
        specs: &[AppSpec],
        share: SharePolicy,
        scheduler: Box<dyn Scheduler>,
        rows: Box<dyn RowSource>,
        options: SimOptions,
    ) -> Result<Self, ConfigError> {
        platform.validate()?;
        if rows.p() != platform.p() {
            // tidy:allow(hot_alloc): config-validation error path, taken before any slot runs.
            return Err(ConfigError(format!(
                "row source spans {} workers on a {}-processor platform",
                rows.p(),
                platform.p()
            )));
        }
        Self::new_with_bank(
            platform,
            specs,
            share,
            scheduler,
            SourceBank::Rows(rows),
            options,
        )
    }

    /// Installs a scripted fault overlay on a freshly built engine. The
    /// script must have been compiled for this platform's processor count.
    /// A passthrough script (no events) leaves every row byte-identical to
    /// the un-overlaid run.
    pub fn set_overlay(&mut self, overlay: ScriptedOverlay) -> Result<(), ConfigError> {
        let p = self.chains.len();
        if overlay.p() != p {
            // tidy:allow(hot_alloc): config-validation error path, taken before any slot runs.
            return Err(ConfigError(format!(
                "fault script compiled for {} workers on a {p}-processor platform",
                overlay.p()
            )));
        }
        self.overlay = Some(overlay);
        Ok(())
    }

    /// Seed-path constructor: builds the best available source bank for
    /// `platform` (`trace_seeds.child(q)` per processor, the
    /// [`Simulation::run_seeded`] seed layout) and returns the engine
    /// without running it. All-Markov platforms — the paper's setting — get
    /// the dense [`MarkovSourceBank`] (three contiguous columns, no
    /// per-processor virtual calls); anything else falls back to boxed
    /// sources. Both banks emit bit-identical state streams, so which one
    /// is chosen is unobservable in the results.
    pub fn new_seeded(
        platform: &PlatformConfig,
        app: &AppConfig,
        scheduler: Box<dyn Scheduler>,
        trace_seeds: vg_des::rng::SeedPath,
        options: SimOptions,
    ) -> Result<Self, ConfigError> {
        Self::new_multi_seeded(
            platform,
            &[AppSpec::rigid(*app)],
            SharePolicy::default(),
            scheduler,
            trace_seeds,
            options,
        )
    }

    /// Seed-path constructor for a co-scheduled roster (see
    /// [`Self::new_seeded`] for the bank selection rules).
    pub fn new_multi_seeded(
        platform: &PlatformConfig,
        specs: &[AppSpec],
        share: SharePolicy,
        scheduler: Box<dyn Scheduler>,
        trace_seeds: vg_des::rng::SeedPath,
        options: SimOptions,
    ) -> Result<Self, ConfigError> {
        match MarkovSourceBank::try_from_platform(platform, &trace_seeds) {
            Some(bank) => Self::new_with_bank(
                platform,
                specs,
                share,
                scheduler,
                SourceBank::Dense(bank),
                options,
            ),
            None => {
                let sources: Vec<Box<dyn AvailabilitySource>> = platform
                    .processors
                    .iter()
                    .enumerate()
                    .map(|(q, pc)| pc.avail.build_source(trace_seeds.child(q as u64).rng()))
                    .collect(); // tidy:allow(hot_alloc): per-run source construction, before the first slot.
                Self::new_multi_in(platform, specs, share, scheduler, sources, options)
            }
        }
    }

    /// Innermost constructor over an explicit source bank.
    fn new_with_bank(
        platform: &PlatformConfig,
        specs: &[AppSpec],
        share: SharePolicy,
        scheduler: Box<dyn Scheduler>,
        bank: SourceBank,
        options: SimOptions,
    ) -> Result<Self, ConfigError> {
        platform.validate()?;
        validate_app_specs(specs)?;
        let mut scheduler = scheduler;
        scheduler.begin_run();
        let mut workers = S::default();
        workers.reset_for(platform.processors.iter().map(|pc| pc.spec));
        let chains: Vec<ChainStats> = platform
            .processors
            .iter()
            .map(|pc| ChainStats::new(pc.believed_chain()))
            .collect(); // tidy:allow(hot_alloc): engine construction, before the first slot.
        let apps: Vec<AppRuntime> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| AppRuntime::new(i, spec, options.max_extra_replicas))
            .collect(); // tidy:allow(hot_alloc): engine construction, before the first slot.
        let total_m: usize = specs.iter().map(|s| s.config.tasks_per_iteration).sum();
        let total_iterations: u64 = specs.iter().map(|s| s.config.iterations).sum();
        Ok(Self {
            app: CommParams {
                t_prog: specs[0].config.t_prog,
                t_data: specs[0].config.t_data,
            },
            apps,
            share,
            workers,
            sources: bank,
            chains,
            scheduler,
            ledger: BandwidthLedger::new(platform.ncom),
            options,
            slot: 0,
            iteration_completed_at: Vec::with_capacity(total_iterations as usize),
            counters: Counters::default(),
            bind_order: Vec::with_capacity(platform.p()),
            cap_engagements: 0,
            overlay: None,
            scratch: SlotScratch::with_capacity(platform.p(), total_m),
            timeline: options.record_timeline.then(|| Timeline::new(platform.p())),
            slot_marks: vec![SlotMarks::default(); platform.p()], // tidy:allow(hot_alloc): engine construction, before the first slot.
        })
    }

    /// Seed-path convenience over [`Self::new_in`] — the layout-generic
    /// twin of [`Simulation::run_seeded`].
    pub fn run_seeded_in(
        platform: &PlatformConfig,
        app: &AppConfig,
        scheduler: Box<dyn Scheduler>,
        trace_seeds: vg_des::rng::SeedPath,
        options: SimOptions,
    ) -> Result<SimReport, ConfigError> {
        Ok(Self::new_seeded(platform, app, scheduler, trace_seeds, options)?.run())
    }

    /// Seed-path convenience for a co-scheduled roster — the layout-generic
    /// twin of [`Simulation::run_multi_seeded`].
    pub fn run_multi_seeded_in(
        platform: &PlatformConfig,
        specs: &[AppSpec],
        share: SharePolicy,
        scheduler: Box<dyn Scheduler>,
        trace_seeds: vg_des::rng::SeedPath,
        options: SimOptions,
    ) -> Result<MultiReport, ConfigError> {
        Ok(
            Self::new_multi_seeded(platform, specs, share, scheduler, trace_seeds, options)?
                .run_multi(),
        )
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
    pub fn cap_engagements(&self) -> u64 {
        self.cap_engagements
    }

    /// Finishes a (possibly partial) run into its report.
    #[must_use]
    pub fn into_report(self) -> SimReport {
        let makespan = if self.apps.iter().all(AppRuntime::finished) {
            // The last iteration finished during slot `slot − 1`... the loop
            // increments `slot` at the end of each step, so `slot` is exactly
            // the number of slots consumed.
            Some(self.slot)
        } else {
            None
        };
        SimReport {
            scheduler: self.scheduler.name().to_string(),
            completed_iterations: self.apps.iter().map(|a| a.iterations_done()).sum(),
            makespan,
            slots_run: self.slot,
            iteration_completed_at: self.iteration_completed_at,
            counters: self.counters,
            mean_bandwidth_utilization: self.ledger.mean_utilization(),
            timeline: self.timeline,
        }
    }

    /// Finishes a (possibly partial) run into the combined report plus one
    /// [`AppReport`] per application, in engine app order. The combined
    /// part is exactly what [`Self::into_report`] would have produced.
    #[must_use]
    pub fn into_multi_report(self) -> MultiReport {
        let makespan = self
            .apps
            .iter()
            .all(AppRuntime::finished)
            .then_some(self.slot);
        let combined = SimReport {
            scheduler: self.scheduler.name().to_string(),
            completed_iterations: self.apps.iter().map(|a| a.iterations_done()).sum(),
            makespan,
            slots_run: self.slot,
            iteration_completed_at: self.iteration_completed_at,
            counters: self.counters,
            mean_bandwidth_utilization: self.ledger.mean_utilization(),
            timeline: self.timeline,
        };
        let apps = self
            .apps
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

    /// One slot through all seven phases. Public so benches and the
    /// allocation-counting harness can drive the loop slot-by-slot.
    ///
    /// Phases 6+7 are fused into a single pass over the busy workers —
    /// their per-worker operations are independent, so the interleaving is
    /// unobservable and the phase semantics of the module docs hold
    /// unchanged.
    pub fn step(&mut self) {
        #[cfg(feature = "phase-profile")]
        macro_rules! timed {
            ($idx:expr, $e:expr) => {{
                // tidy:allow(wall_clock): phase-profile instrumentation, cfg-gated and never read by simulation logic.
                let t = std::time::Instant::now();
                $e;
                phase_profile::NANOS[$idx].fetch_add(
                    t.elapsed().as_nanos() as u64,
                    std::sync::atomic::Ordering::Relaxed,
                );
            }};
        }
        #[cfg(not(feature = "phase-profile"))]
        macro_rules! timed {
            ($idx:expr, $e:expr) => {
                $e
            };
        }
        timed!(0, self.phase_states());
        timed!(1, self.phase_crashes());
        timed!(2, self.phase_schedule());
        timed!(3, self.phase_transfers());
        timed!(4, self.phase_compute());
        timed!(5, self.phase_promotions_and_unbind());
        timed!(6, self.phase_slot_end());
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
            SourceBank::PerProc(v) => {
                state_row.extend(v.iter_mut().map(|src| src.next_state()));
            }
            SourceBank::Dense(bank) => bank.next_row_into(state_row),
            SourceBank::Shared { trace, next_slot } => {
                trace.with_row(*next_slot, |row| state_row.extend_from_slice(row));
                *next_slot += 1;
            }
            SourceBank::Rows(rows) => rows.next_row_into(state_row),
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
        // State census: O(1) from the store's maintained counts when it
        // keeps them, a dense tally otherwise (the oracle layout).
        match workers.state_census() {
            Some(census) => {
                for (i, n) in census.into_iter().enumerate() {
                    counters.state_slots[i] += n as u64;
                }
            }
            None => {
                for &state in state_row.iter() {
                    counters.state_slots[state.index()] += 1;
                }
            }
        }
        if self.timeline.is_some() {
            self.slot_marks.fill(SlotMarks::default());
        }
    }

    /// Phase 2: workers that turned `DOWN` lose program, data and partial
    /// results. Only a *new* `DOWN` worker can hold anything — a worker
    /// that stayed `DOWN` was emptied when it went down, and nothing binds
    /// to (or transfers to, or computes on) a non-`UP` worker — so the pass
    /// visits the store's went-down list; the oracle layout, which keeps
    /// none, crashes every `DOWN` worker as the paper states it. Both visit
    /// in ascending order, so copy-loss accounting order is unchanged.
    fn phase_crashes(&mut self) {
        let Self {
            workers,
            scratch,
            counters,
            apps,
            ..
        } = self;
        let SlotScratch {
            state_row,
            copies,
            down,
            ..
        } = scratch;
        down.clear();
        match workers.went_down() {
            Some(list) => down.extend_from_slice(list),
            None => down.extend(
                (0..state_row.len())
                    .filter(|&q| state_row[q] == ProcState::Down)
                    .map(|q| q as u32),
            ),
        }
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
            for (q, &state) in state_row.iter().enumerate() {
                if state == ProcState::Down {
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
    fn fresh_snapshot(workers: &S, app: CommParams, q: usize) -> ProcSnapshot {
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
    fn slot_fields(workers: &S, app: CommParams, q: usize) -> (ProcState, bool, SlotSpan) {
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
    /// With a change-feed store the buffers are **patched in place** at the
    /// fed workers only — every snapshot field and the free bit are pure
    /// functions of the worker's own columns, so an unfed worker's cached
    /// entries are exact. A worker joins a lane's change list when its
    /// candidacy for that lane (UP for the pool lane, free for the replica
    /// lane) flipped, or its delay moved while it is a candidate. The feed is sticky across unconsulted slots, so the
    /// consult can stay lazy. The oracle layout ([`crate::AosWorkers`])
    /// rebuilds from scratch every time, and debug builds cross-check the
    /// patched buffers against a rebuild.
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
        match workers.changes() {
            Some(feed) if scratch.views_valid && scratch.procs.len() == p => {
                let SlotScratch {
                    procs,
                    free,
                    free_total,
                    lane_bits,
                    ..
                } = scratch;
                for (wi, &word) in feed.iter().enumerate() {
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
            }
            feed => {
                scratch.procs.clear();
                scratch
                    .procs
                    .extend((0..p).map(|q| Self::fresh_snapshot(workers, app, q)));
                scratch.free.clear();
                scratch.free.extend(
                    (0..p).map(|q| workers.state(q) == ProcState::Up && workers.is_idle(q)),
                );
                scratch.free_total = scratch.free.iter().filter(|&&f| f).count();
                // Lanes cannot be patched across a rebuild: drop their
                // pending sets and skip a sequence number, which obliges
                // the scheduler to rebuild its lane state too.
                for (bits, seq) in scratch.lane_bits.iter_mut().zip(&mut scratch.lane_seq) {
                    bits.clear();
                    bits.resize(p.div_ceil(64), 0);
                    *seq += 1;
                }
                scratch.views_valid = feed.is_some();
            }
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
    /// pending set into `lane_list`, ascending. Returns the sequence
    /// number, or `None` for a store without a change feed, whose views
    /// are rebuilt every consult and never carry a delta. The round's view
    /// carries [`Self::lane_delta`].
    fn open_lane(scratch: &mut SlotScratch, lane: Lane, feed: bool) -> Option<u64> {
        if !feed {
            return None;
        }
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
        Some(scratch.lane_seq[l])
    }

    /// The delta of the round [`Self::open_lane`] numbered `seq`: the
    /// lane's changes since its previous round.
    fn lane_delta(scratch: &SlotScratch, lane: Lane, seq: Option<u64>) -> Option<ViewDelta<'_>> {
        seq.map(|seq| ViewDelta {
            lane,
            seq,
            changed: &scratch.lane_list,
        })
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

    fn phase_schedule(&mut self) {
        if self.apps.len() == 1 {
            self.phase_schedule_single();
        } else {
            self.phase_schedule_multi();
        }
    }

    /// The historical single-application schedule phase (modulo `apps[0]`
    /// standing in for the old `iter` field) so the single-app bit-identity
    /// pin stays trustworthy. App 0's task ids are its local ids (base 0),
    /// so no namespace mapping appears here.
    fn phase_schedule_single(&mut self) {
        #[cfg(feature = "phase-profile")]
        macro_rules! sub {
            ($idx:expr, $e:expr) => {{
                // tidy:allow(wall_clock): phase-profile instrumentation, cfg-gated and never read by simulation logic.
                let t = std::time::Instant::now();
                let r = $e;
                phase_profile::SUB[$idx].fetch_add(
                    t.elapsed().as_nanos() as u64,
                    std::sync::atomic::Ordering::Relaxed,
                );
                r
            }};
        }
        #[cfg(not(feature = "phase-profile"))]
        macro_rules! sub {
            ($idx:expr, $e:expr) => {
                $e
            };
        }
        self.bind_order.clear();
        // Views are only consulted by `place_into`; most steady-state slots
        // have an empty pool AND nothing to replicate, so they are synced
        // lazily. Nothing between the phase start and the first use
        // mutates worker state.
        let feed = self.workers.changes().is_some();

        // Originals first (strict priority, Section 6.1).
        self.apps[0].iter.pool_tasks_into(&mut self.scratch.pool);
        if !self.scratch.pool.is_empty() {
            // Under `BindCapacity`, a pool that fits inside the slot's
            // bindable capacity takes the exact uncapped code path below —
            // that branch equality is what makes never-engaging capped runs
            // bit-identical to uncapped ones.
            let capacity = match self.options.placement_budget {
                PlacementBudget::Uncapped => usize::MAX,
                PlacementBudget::BindCapacity => {
                    let cap = self.workers.bindable_count();
                    // Engagement detector: the dense-column count must agree
                    // with a from-scratch accessor rescan, or an occupancy
                    // mutator drifted.
                    debug_assert_eq!(
                        cap,
                        (0..self.workers.len())
                            .filter(|&q| {
                                self.workers.state(q) == ProcState::Up
                                    && self.workers.has_bind_room(q)
                            })
                            .count(),
                        "bindable_count diverged from a naive accessor rescan"
                    );
                    cap
                }
            };
            if self.scratch.pool.len() <= capacity {
                sub!(0, self.sync_views());
                let count = self.scratch.pool.len();
                sub!(1, {
                    let Self {
                        scratch,
                        scheduler,
                        chains,
                        app,
                        ledger,
                        ..
                    } = self;
                    scratch.placements.clear();
                    let mut placements = std::mem::take(&mut scratch.placements);
                    let seq = Self::open_lane(scratch, Lane::Pool, feed);
                    let view = SchedView {
                        procs: &scratch.procs,
                        chains,
                        t_prog: app.t_prog,
                        t_data: app.t_data,
                        ncom: ledger.ncom(),
                        room: None,
                        app: None,
                        candidates: None,
                        delta: Self::lane_delta(scratch, Lane::Pool, seq),
                    };
                    scheduler.place_into(&view, count, &mut placements);
                    scratch.placements = placements;
                });
                sub!(2, {
                    let placed = self.scratch.placements.len().min(count);
                    for k in 0..placed {
                        let task = self.scratch.pool[k];
                        let pid = self.scratch.placements[k];
                        debug_assert!(
                            self.workers.state(pid.idx()) == ProcState::Up,
                            "scheduler placed a task on a non-UP processor"
                        );
                        let _ = self.try_bind(pid.idx(), CopyId::original(task));
                    }
                });
            } else {
                // The cap engages: the pool exceeds what the platform can
                // bind this slot, so the request is clipped to `capacity`
                // and topped up below. The placement trajectory may now
                // differ from `Uncapped` — `cap_engagements` records that
                // this run left the bit-identical regime (the
                // `cap_fidelity` study measures the statistical effect).
                self.cap_engagements += 1;
                if capacity > 0 {
                    sub!(0, self.sync_views());
                    // Narrow the candidates to the bindable workers: a
                    // worker without bind room could only soak up
                    // placements that `try_bind` must reject, and — more
                    // importantly — every excluded worker drops out of
                    // `place_into`'s per-candidate row fill, so the
                    // placement round costs O(capacity), not O(p). The set
                    // is frozen for the whole top-up loop while `room`
                    // shrinks under it.
                    sub!(5, {
                        let Self {
                            workers, scratch, ..
                        } = self;
                        workers.room_into(&mut scratch.room);
                        debug_assert!(scratch.room.iter().enumerate().all(|(q, &r)| {
                            (r > 0)
                                == (workers.state(q) == ProcState::Up && workers.has_bind_room(q))
                        }));
                        scratch.with_room.clear();
                        scratch
                            .with_room
                            .extend(scratch.room.iter().map(|&r| r > 0));
                    });
                    self.scratch.pending.clear();
                    self.scratch.pending.extend_from_slice(&self.scratch.pool);
                    // Top-up loop: `try_bind` can reject a placed worker
                    // (it filled up from an earlier bind this slot, or
                    // already holds a copy of the task), so one round can
                    // under-fill the capacity. Re-request placements for
                    // the still-pending tasks until the capacity is spent,
                    // the pending list drains, or a round binds nothing —
                    // every continuing round binds at least one copy, so
                    // the loop runs at most `capacity + 1` rounds. The
                    // snapshot is *not* refreshed between rounds: bound
                    // copies are invisible to `Delay(q)` (\[D8\]), and a
                    // worker that filled up anyway is rejected by
                    // `try_bind` and retried.
                    let mut remaining = capacity;
                    loop {
                        let want = self.scratch.pending.len().min(remaining);
                        if want == 0 {
                            break;
                        }
                        let placed = sub!(1, {
                            let Self {
                                scratch,
                                scheduler,
                                chains,
                                app,
                                ledger,
                                ..
                            } = self;
                            let view = SchedView {
                                procs: &scratch.procs,
                                chains,
                                t_prog: app.t_prog,
                                t_data: app.t_data,
                                ncom: ledger.ncom(),
                                // Advisory bind-room column: lets the
                                // scheduler retire a worker once its room is
                                // spent instead of stacking placements that
                                // `try_bind` must bounce back into the
                                // top-up loop. Only this engaged branch —
                                // already outside the bit-identical regime —
                                // passes `Some`.
                                room: Some(&scratch.room),
                                app: None,
                                candidates: Some(&scratch.with_room),
                                delta: None,
                            };
                            scratch.placements.clear();
                            scheduler.place_into(&view, want, &mut scratch.placements);
                            scratch.placements.len().min(want)
                        });
                        if placed == 0 {
                            break;
                        }
                        let bound = sub!(2, {
                            let mut bound = 0usize;
                            let mut write = 0usize;
                            for k in 0..self.scratch.pending.len() {
                                let task = self.scratch.pending[k];
                                if k < placed {
                                    let pid = self.scratch.placements[k];
                                    debug_assert!(
                                        self.workers.state(pid.idx()) == ProcState::Up,
                                        "scheduler placed a task on a non-UP processor"
                                    );
                                    if self.try_bind(pid.idx(), CopyId::original(task)) {
                                        bound += 1;
                                        debug_assert!(self.scratch.room[pid.idx()] > 0);
                                        self.scratch.room[pid.idx()] -= 1;
                                        continue;
                                    }
                                }
                                self.scratch.pending[write] = task;
                                write += 1;
                            }
                            self.scratch.pending.truncate(write);
                            bound
                        });
                        if bound == 0 {
                            // Nothing placed survived `try_bind` and the
                            // view is unchanged: a deterministic scheduler
                            // would repeat itself verbatim. Stop rather
                            // than spin.
                            break;
                        }
                        remaining -= bound;
                    }
                }
            }
        }

        // Replication: idle UP workers receive replicas of the least
        // replicated unfinished tasks (≤ max_extra_replicas each).
        //
        // Candidates first: near an iteration barrier every unfinished task
        // already carries its full replica set, so the candidate list — an
        // O(m′) scan over the few unfinished tasks — empties long before
        // the platform runs out of idle workers. Generating it before the
        // view sync turns those slots into an early-out.
        // (`replica_candidates_into` reads only iteration state, so the
        // reorder is unobservable when both run.) The free count doubles as
        // the replica path's bind capacity, so this path is demand-driven
        // under *both* placement budgets — `k` below never exceeds what can
        // actually bind.
        if self.options.replication && !self.apps[0].iter.is_complete() {
            sub!(
                3,
                self.apps[0].iter.replica_candidates_into(
                    self.options.max_extra_replicas,
                    &mut self.scratch.cands,
                )
            );
            if !self.scratch.cands.is_empty() {
                // Re-syncing after the pool binds refreshes the free mask;
                // the only snapshot entries it can move belong to workers
                // those binds made busy, which are not replica candidates.
                sub!(4, self.sync_views());
                let k = self.scratch.cands.len().min(self.scratch.free_total);
                if k > 0 {
                    sub!(6, {
                        let Self {
                            scratch,
                            scheduler,
                            chains,
                            app,
                            ledger,
                            ..
                        } = self;
                        scratch.placements.clear();
                        let mut placements = std::mem::take(&mut scratch.placements);
                        let seq = Self::open_lane(scratch, Lane::Replica, feed);
                        let view = SchedView {
                            procs: &scratch.procs,
                            chains,
                            t_prog: app.t_prog,
                            t_data: app.t_data,
                            ncom: ledger.ncom(),
                            // Free workers have full room by construction;
                            // the historical contract (`None`) keeps this
                            // path bit-identical under both budgets.
                            room: None,
                            app: None,
                            candidates: Some(&scratch.free),
                            delta: Self::lane_delta(scratch, Lane::Replica, seq),
                        };
                        scheduler.place_into(&view, k, &mut placements);
                        scratch.placements = placements;
                    });
                    sub!(7, {
                        let placed = self.scratch.placements.len().min(k);
                        for j in 0..placed {
                            let task = self.scratch.cands[j];
                            let pid = self.scratch.placements[j];
                            let copy = self.apps[0].iter.mint_replica(task);
                            if !self.try_bind(pid.idx(), copy) {
                                self.apps[0].iter.drop_replica(task);
                            }
                        }
                    });
                }
            }
        }
    }

    /// The multi-application schedule phase: pool placements run per
    /// application under the [`SharePolicy`] quotas (originals keep strict
    /// priority over replicas overall, as in Section 6.1), then replica
    /// placements run per application over the workers still free.
    ///
    /// Deliberately a separate body from [`Self::phase_schedule_single`]
    /// rather than a parameterized merge: the single-app phase is the
    /// bit-identity-pinned historical trajectory, and keeping it intact is
    /// what keeps that pin trustworthy. This path reuses the capped-branch
    /// machinery (room column, bind-room candidate set, bounded top-up
    /// rounds), so no application can overrun its quota or the platform's
    /// bind capacity, and the steady-state loop stays allocation-free
    /// (`zero_alloc.rs` pins a two-app configuration).
    ///
    /// Share quotas govern **pool** (original) placements only: replicas
    /// are demand-driven leftovers — they bind to workers that are UP and
    /// completely idle, a resource no pool placement of any application
    /// wanted this slot (see `docs/applications.md`).
    fn phase_schedule_multi(&mut self) {
        self.bind_order.clear();
        let n_apps = self.apps.len();
        let feed = self.workers.changes().is_some();
        let mut have_snapshot = false;

        // --- Pool placements under share quotas --------------------------
        // The slot's bindable capacity is what the share policy divides.
        let capacity = self.workers.bindable_count();
        if capacity > 0 {
            {
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
                    // Clamp each quota to its application's actual demand
                    // and hand the unusable remainder down in app order —
                    // work-conserving: capacity no pool can use is never
                    // idled by the apportionment. (Strict priority already
                    // grants full capacity as every quota, so there is no
                    // remainder to move.)
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
            }
            let mut remaining = capacity;
            for a in 0..n_apps {
                if remaining == 0 {
                    break;
                }
                let quota = self.scratch.quotas[a].min(remaining);
                if quota == 0 {
                    continue;
                }
                self.apps[a].iter.pool_tasks_into(&mut self.scratch.pool);
                if self.scratch.pool.is_empty() {
                    continue;
                }
                // Worker columns and the scheduler see *global* task ids;
                // the iteration state stays local. Map in place.
                let base = self.apps[a].task_base;
                for t in self.scratch.pool.iter_mut() {
                    *t = global_task(base, *t);
                }
                // One snapshot serves every application's pool rounds —
                // later rounds see the delays of before this slot's binds.
                if !have_snapshot {
                    self.sync_views();
                    have_snapshot = true;
                }
                // Fresh room column per app round (earlier applications'
                // binds are already reflected), and with it the round's
                // candidate set: the workers with room left.
                {
                    let Self {
                        workers, scratch, ..
                    } = self;
                    workers.room_into(&mut scratch.room);
                    scratch.with_room.clear();
                    scratch
                        .with_room
                        .extend(scratch.room.iter().map(|&r| r > 0));
                }
                let app_view = AppView {
                    index: a as u32,
                    count: n_apps as u32,
                    weight: self.apps[a].weight,
                    quota: quota as u32,
                };
                self.scratch.pending.clear();
                self.scratch.pending.extend_from_slice(&self.scratch.pool);
                // Top-up rounds, exactly as in the capped single-app branch:
                // every continuing round binds at least one copy, so the
                // loop is bounded by the quota.
                let mut app_remaining = quota;
                loop {
                    let want = self.scratch.pending.len().min(app_remaining);
                    if want == 0 {
                        break;
                    }
                    let placed = {
                        let Self {
                            scratch,
                            scheduler,
                            chains,
                            app,
                            ledger,
                            ..
                        } = self;
                        let view = SchedView {
                            procs: &scratch.procs,
                            chains,
                            t_prog: app.t_prog,
                            t_data: app.t_data,
                            ncom: ledger.ncom(),
                            room: Some(&scratch.room),
                            app: Some(app_view),
                            candidates: Some(&scratch.with_room),
                            delta: None,
                        };
                        scratch.placements.clear();
                        scheduler.place_into(&view, want, &mut scratch.placements);
                        scratch.placements.len().min(want)
                    };
                    if placed == 0 {
                        break;
                    }
                    let mut bound = 0usize;
                    let mut write = 0usize;
                    for k in 0..self.scratch.pending.len() {
                        let task = self.scratch.pending[k];
                        if k < placed {
                            let pid = self.scratch.placements[k];
                            debug_assert!(
                                self.workers.state(pid.idx()) == ProcState::Up,
                                "scheduler placed a task on a non-UP processor"
                            );
                            if self.try_bind(pid.idx(), CopyId::original(task)) {
                                bound += 1;
                                debug_assert!(self.scratch.room[pid.idx()] > 0);
                                self.scratch.room[pid.idx()] -= 1;
                                continue;
                            }
                        }
                        self.scratch.pending[write] = task;
                        write += 1;
                    }
                    self.scratch.pending.truncate(write);
                    if bound == 0 {
                        break;
                    }
                    app_remaining -= bound;
                    remaining -= bound;
                }
            }
        }

        // --- Replica placements, per application over free workers --------
        if self.options.replication {
            for a in 0..n_apps {
                if self.apps[a].finished() || self.apps[a].iter.is_complete() {
                    continue;
                }
                self.apps[a].iter.replica_candidates_into(
                    self.options.max_extra_replicas,
                    &mut self.scratch.cands,
                );
                if self.scratch.cands.is_empty() {
                    continue;
                }
                let base = self.apps[a].task_base;
                for t in self.scratch.cands.iter_mut() {
                    *t = global_task(base, *t);
                }
                // The sync absorbs earlier rounds' binds through the
                // store's change feed, so each round sees the *currently*
                // free workers and their current delays.
                self.sync_views();
                let k = self.scratch.cands.len().min(self.scratch.free_total);
                if k == 0 {
                    continue;
                }
                let app_view = AppView {
                    index: a as u32,
                    count: n_apps as u32,
                    weight: self.apps[a].weight,
                    quota: k as u32,
                };
                {
                    let Self {
                        scratch,
                        scheduler,
                        chains,
                        app,
                        ledger,
                        ..
                    } = self;
                    scratch.placements.clear();
                    let mut placements = std::mem::take(&mut scratch.placements);
                    let seq = Self::open_lane(scratch, Lane::Replica, feed);
                    let view = SchedView {
                        procs: &scratch.procs,
                        chains,
                        t_prog: app.t_prog,
                        t_data: app.t_data,
                        ncom: ledger.ncom(),
                        room: None,
                        app: Some(app_view),
                        candidates: Some(&scratch.free),
                        delta: Self::lane_delta(scratch, Lane::Replica, seq),
                    };
                    scheduler.place_into(&view, k, &mut placements);
                    scratch.placements = placements;
                }
                let placed = self.scratch.placements.len().min(k);
                for j in 0..placed {
                    let task = self.scratch.cands[j];
                    let pid = self.scratch.placements[j];
                    let copy = {
                        let (it, lt) = iter_for(&mut self.apps, task);
                        let local = it.mint_replica(lt);
                        CopyId {
                            task,
                            replica: local.replica,
                        }
                    };
                    if !self.try_bind(pid.idx(), copy) {
                        let (it, lt) = iter_for(&mut self.apps, task);
                        it.drop_replica(lt);
                    }
                }
            }
        }
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
    fn promote_pipeline(workers: &mut S, q: usize, t_data: SlotSpan) {
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
    fn dissolve_binds(workers: &mut S, apps: &mut [AppRuntime], q: usize) {
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
                let max_extra = self.options.max_extra_replicas;
                self.apps[a].begin_next_iteration(up, max_extra);
            }
        }
    }

    /// Live UP-worker count at the current slot: O(1) from the store's
    /// block summaries when it maintains them, a dense tally otherwise.
    /// Consulted only at barriers of [`ReconfigPolicy::Moldable`] apps.
    fn up_workers(&self) -> usize {
        match self.workers.state_census() {
            Some(census) => census[ProcState::Up.index()],
            None => (0..self.workers.len())
                .filter(|&q| self.workers.state(q) == ProcState::Up)
                .count(),
        }
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

    fn sources_for(platform: &PlatformConfig, seed: u64) -> Vec<Box<dyn AvailabilitySource>> {
        let path = SeedPath::root(seed);
        platform
            .processors
            .iter()
            .enumerate()
            .map(|(q, pc)| pc.avail.build_source(path.child(q as u64).rng()))
            .collect()
    }

    fn run(
        platform: &PlatformConfig,
        app: &AppConfig,
        kind: HeuristicKind,
        opts: SimOptions,
    ) -> SimReport {
        let sched = kind.build(SeedPath::root(999).rng());
        let sources = sources_for(platform, 7);
        Simulation::new(platform, app, sched, sources, opts)
            .unwrap()
            .run()
    }

    const NO_REP: SimOptions = SimOptions {
        max_slots: 100_000,
        replication: false,
        max_extra_replicas: 2,
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
        let sources = sources_for(platform, 7);
        let mut sim = Simulation::new(platform, app, sched, sources, opts).unwrap();
        while !sim.is_done() {
            sim.step();
        }
        let engagements = sim.cap_engagements();
        (sim.into_report(), engagements)
    }

    const CAPPED_NO_REP: SimOptions = SimOptions {
        max_slots: 100_000,
        replication: false,
        max_extra_replicas: 2,
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
            let sources = sources_for(&platform, 42);
            Simulation::new(&platform, &app, sched, sources, SimOptions::default())
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
                    Simulation::run_seeded(
                        &platform,
                        &app,
                        kind.build(SeedPath::root(11).rng()),
                        SeedPath::root(42),
                        SimOptions {
                            max_slots: 100_000,
                            replication,
                            max_extra_replicas: 2,
                            record_timeline: false,
                            placement_budget: PlacementBudget::Uncapped,
                        },
                    )
                    .unwrap()
                };
                let a = go();
                let b = go();
                assert_eq!(a, b, "{kind} replication={replication}");
                assert!(a.finished(), "{kind} replication={replication}: {a}");
            }
        }
    }

    #[test]
    fn seeded_dense_bank_matches_explicit_boxed_sources() {
        // `run_seeded` routes all-Markov platforms through the dense
        // `MarkovSourceBank`; its report must be byte-identical to the
        // boxed-source path (`Simulation::new` with `build_source` per
        // processor, same seed layout) — the bank is an implementation
        // detail, not an observable.
        let platform = markov_platform(48, 3);
        let app = AppConfig {
            tasks_per_iteration: 64,
            iterations: 2,
            t_prog: 5,
            t_data: 2,
        };
        for replication in [false, true] {
            let opts = SimOptions {
                max_slots: 100_000,
                replication,
                max_extra_replicas: 2,
                record_timeline: false,
                placement_budget: PlacementBudget::Uncapped,
            };
            let seeded = Simulation::run_seeded(
                &platform,
                &app,
                HeuristicKind::EmctStar.build(SeedPath::root(11).rng()),
                SeedPath::root(42),
                opts,
            )
            .unwrap();
            let boxed = Simulation::new(
                &platform,
                &app,
                HeuristicKind::EmctStar.build(SeedPath::root(11).rng()),
                sources_for(&platform, 42),
                opts,
            )
            .unwrap()
            .run();
            assert_eq!(seeded, boxed, "replication={replication}");
            // The arena path reuses one warmed bank across runs; it must
            // agree too.
            let arena = SimArena::new()
                .run_seeded(
                    &platform,
                    &app,
                    HeuristicKind::EmctStar.build(SeedPath::root(11).rng()),
                    SeedPath::root(42),
                    opts,
                )
                .unwrap();
            assert_eq!(arena.makespan, seeded.makespan, "replication={replication}");
            assert_eq!(arena.slots_run, seeded.slots_run);
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
            let sources = sources_for(&platform, 21);
            Simulation::new(&platform, &app, sched, sources, SimOptions::default()).unwrap()
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
                max_extra_replicas: 2,
                record_timeline: false,
                placement_budget: PlacementBudget::Uncapped,
            };
            for kind in [HeuristicKind::EmctStar, HeuristicKind::Random2w] {
                let seed = (round * 10 + p) as u64;
                let warm = arena
                    .run_seeded(
                        &platform,
                        &app,
                        kind.build(SeedPath::root(seed).rng()),
                        SeedPath::root(seed + 1),
                        options,
                    )
                    .unwrap();
                let cold = Simulation::run_seeded(
                    &platform,
                    &app,
                    kind.build(SeedPath::root(seed).rng()),
                    SeedPath::root(seed + 1),
                    options,
                )
                .unwrap();
                assert_eq!(warm.makespan, cold.makespan, "round {round} {kind}");
                assert_eq!(warm.slots_run, cold.slots_run, "round {round} {kind}");
                assert_eq!(
                    warm.completed_iterations, cold.completed_iterations,
                    "round {round} {kind}"
                );
                assert_eq!(warm.makespan_or_cap(), cold.makespan_or_cap());
                assert_eq!(warm.finished(), cold.finished());
            }
        }
    }

    #[test]
    fn arena_run_configured_matches_run_seeded() {
        // Shared chains + caller-built sources (the general entry point)
        // must be bit-identical to the self-seeding path — including when
        // one arena alternates between equally sized but different
        // platforms (scheduler caches must not leak across runs).
        let mut arena = SimArena::new();
        let app = AppConfig {
            tasks_per_iteration: 8,
            iterations: 2,
            t_prog: 4,
            t_data: 1,
        };
        for (pseed, kind) in [
            (4, HeuristicKind::Ud),
            (5, HeuristicKind::Ud),      // same p, different platform
            (5, HeuristicKind::Random1), // impure scheduler, same platform
            (4, HeuristicKind::Random1), // impure scheduler, platform flip
        ] {
            let platform = {
                let mut rng = SeedPath::root(pseed).rng();
                PlatformConfig {
                    processors: (0..6)
                        .map(|_| {
                            let chain = vg_markov::availability::AvailabilityChain::sample_paper(
                                &mut rng, 0.90, 0.99,
                            );
                            ProcessorConfig::markov(3, chain, StartPolicy::Up)
                        })
                        .collect(),
                    ncom: 2,
                }
            };
            let chains = platform_chain_stats(&platform);
            let configured = arena
                .run_configured(
                    &platform,
                    &app,
                    kind.build(SeedPath::root(9).rng()),
                    &chains,
                    sources_for(&platform, 13),
                    SimOptions::default(),
                )
                .unwrap();
            let seeded = Simulation::run_seeded(
                &platform,
                &app,
                kind.build(SeedPath::root(9).rng()),
                SeedPath::root(13),
                SimOptions::default(),
            )
            .unwrap();
            assert_eq!(configured.makespan, seeded.makespan, "{kind} pseed={pseed}");
            assert_eq!(
                configured.slots_run, seeded.slots_run,
                "{kind} pseed={pseed}"
            );
        }
        // Mismatched chains are rejected, not misused.
        let platform = always_up(2, 1, 1);
        let err = arena.run_configured(
            &platform,
            &app,
            HeuristicKind::Mct.build(SeedPath::root(1).rng()),
            &[],
            sources_for(&platform, 1),
            SimOptions::default(),
        );
        assert!(err.is_err());
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
        let err = arena.run_seeded(
            &platform,
            &app,
            HeuristicKind::Mct.build(SeedPath::root(1).rng()),
            SeedPath::root(2),
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
        let outcome = arena
            .run_seeded(
                &platform,
                &app,
                HeuristicKind::Mct.build(SeedPath::root(1).rng()),
                SeedPath::root(2),
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
            let sources = sources_for(&platform, 3);
            let r = Simulation::new(&platform, &app, sched, sources, SimOptions::default())
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
        let sources = sources_for(&platform, 1).into_iter().take(1).collect();
        assert!(Simulation::new(&platform, &app, sched, sources, SimOptions::default()).is_err());
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
        let sources = sources_for(&platform, 7);
        let r = Simulation::new(
            &platform,
            &app,
            sched,
            sources,
            SimOptions {
                record_timeline: true,
                ..NO_REP
            },
        )
        .unwrap()
        .run();
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
