//! Worker storage layouts: the hot/cold **SoA** the engine runs on, and the
//! retained **AoS** path kept as the bit-identity oracle.
//!
//! The slot loop is a sequence of dense scans over per-worker state — draw
//! states, estimate delays, advance transfers and computations. Stored as an
//! array of [`WorkerRuntime`] structs (AoS), every scan drags each worker's
//! *cold* fields (the `bound` vector, `prog_began_at`, the spec) through the
//! cache alongside the one or two hot fields it actually reads; at
//! `p ≥ 1024` a single state pass touches ~100 KiB instead of 1 KiB.
//! [`WorkerSoA`] splits the runtime into parallel arrays so each phase walks
//! only the columns it needs:
//!
//! * **hot** (touched every slot, densely): `state`, `w`, `prog_done`, and
//!   the pipeline columns `computing` / `transfer` / `buffered` whose
//!   discriminants drive the per-slot branches;
//! * **cold** (touched on binds/crashes only): `prog_began_at` and the
//!   per-worker `bound` lists (allocations kept warm across runs, as the
//!   AoS `WorkerRuntime::bound` buffers were).
//!
//! Both layouts implement [`WorkerStore`], the exact per-worker contract the
//! engine phases are written against. The engine is generic over it and
//! monomorphized, so the abstraction costs nothing; [`AosWorkers`] is a thin
//! adapter that delegates every operation to the original
//! [`WorkerRuntime`] methods — the pre-refactor code path, unchanged — which
//! is what makes `Simulation<AosWorkers>` a genuine oracle for the SoA
//! engine (see `crates/sim/tests/soa_equivalence.rs`).
//!
//! [`WorkerSoA::reset_for`] reinitializes every column with a single
//! `memset`-style fill pass per array (clear + resize on retained
//! allocations), which is what lets a warmed [`SimArena`](crate::SimArena)
//! recycle the store across grow→shrink→grow platform sequences without
//! per-worker bookkeeping.
//!
//! The SoA also keeps a **change feed** — the deduplicated list of workers
//! whose scheduler-visible inputs may have moved — that the engine's
//! incremental snapshot, free-mask and placement-lane bookkeeping consume
//! in O(changed); the exact contract is documented on [`WorkerStore`].

use vg_des::{Slot, SlotSpan};
use vg_markov::availability::ProcState;
use vg_platform::ProcessorSpec;

use crate::task::{CopyId, TaskId};
use crate::worker::{ComputeState, TransferState, WorkerRuntime};

/// Fixed width (in workers) of the block-chunked busy-worker walks:
/// [`WorkerStore::block_may_be_busy`] lets a walk dismiss a quiet block in
/// one query instead of scanning its workers. 256 one-byte entries span
/// four cache lines and vectorize cleanly when a block does need the full
/// scan. A multiple of 64, so a block is a whole number of busy-bitmap
/// words.
pub const SUMMARY_BLOCK: usize = 256;

/// Per-worker state storage, as consumed by the engine's slot phases.
///
/// Semantics of every method are those of the corresponding
/// [`WorkerRuntime`] field or method; implementations differ only in memory
/// layout. The engine is generic (and monomorphized) over this trait, so
/// both layouts compile to direct array accesses.
///
/// # Change-feed contract (incremental consumers)
///
/// A store may keep a **change feed** ([`Self::changes`]): a bitmap of the
/// workers that may have changed, since the last
/// [`Self::clear_changes`], in any input the engine derives per worker for
/// the scheduler — the snapshot (state, program possession, `Delay(q)`)
/// and the free bit (`UP` ∧ idle). A worker must be fed by:
///
/// * a state transition ([`Self::set_states`], changed entries only — a
///   worker that re-draws its current state is untouched);
/// * program progress ([`Self::set_prog_done`], changed values only);
/// * any pinned-pipeline mutation ([`Self::set_transfer`],
///   [`Self::set_buffered`], [`Self::set_computing`],
///   [`Self::tick_compute`]);
/// * crash and cancellation cleanup ([`Self::crash_into`],
///   [`Self::cancel_task_into`]) when they actually clear program progress
///   or a pinned copy;
/// * a busy flip — occupancy going 0 ↔ non-zero — from any mutation,
///   bound-list operations included.
///
/// Other mutations need not feed: [`Self::set_prog_began_at`] (a
/// transfer-priority key, not a snapshot field) and bound-list operations
/// that leave the worker busy — `Delay(q)` deliberately excludes bound
/// copies, whose placement the scheduler is re-deciding (\[D8\]). Bits
/// are **sticky** until the consumer drains them, so several slots of
/// mutations may accumulate, and [`Self::reset_for`] feeds every worker.
/// Being a bitmap, the feed is duplicate-free and walks in ascending
/// worker order, so its consumers touch their per-worker columns in
/// address order.
/// The store also reports the workers that turned `DOWN` in the last
/// [`Self::set_states`] ([`Self::went_down`]), which is all the crash pass
/// needs: a worker that stays `DOWN` was emptied when it went down and
/// nothing binds to a non-`UP` worker.
///
/// A store without a feed (`changes()` is `None`, the AoS oracle) sends
/// every consumer down its dense from-scratch path. The
/// `crates/sim/tests/soa_equivalence.rs` grid and per-consult debug
/// assertions in the engine pin the contract: a missed entry shows up as
/// an incremental-vs-full divergence.
pub trait WorkerStore: Default + Send {
    /// Number of workers.
    fn len(&self) -> usize;

    /// True when the store holds no workers.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rebuilds the store for a platform, reusing retained allocations
    /// (the arena-path equivalent of constructing fresh workers): after the
    /// call every worker is in the [`WorkerRuntime::new`] state for its
    /// spec.
    fn reset_for<I>(&mut self, specs: I)
    where
        I: ExactSizeIterator<Item = ProcessorSpec>;

    /// `w_q` of worker `q`.
    fn w(&self, q: usize) -> SlotSpan;

    /// State of worker `q` for the current slot.
    fn state(&self, q: usize) -> ProcState;

    /// Overwrites every worker's state from `states` (`states.len()` must
    /// equal [`Self::len`]) — phase 1's dense column write.
    fn set_states(&mut self, states: &[ProcState]);

    /// Slots of program received by worker `q`.
    fn prog_done(&self, q: usize) -> SlotSpan;

    /// Sets the program progress of worker `q`.
    fn set_prog_done(&mut self, q: usize, v: SlotSpan);

    /// Slot at which worker `q`'s current program transfer began.
    fn prog_began_at(&self, q: usize) -> Slot;

    /// Sets the program-transfer start slot of worker `q`.
    fn set_prog_began_at(&mut self, q: usize, v: Slot);

    /// In-flight data transfer of worker `q`.
    fn transfer(&self, q: usize) -> Option<TransferState>;

    /// Sets the in-flight data transfer of worker `q`.
    fn set_transfer(&mut self, q: usize, t: Option<TransferState>);

    /// Buffered (complete, waiting for compute) copy of worker `q`.
    fn buffered(&self, q: usize) -> Option<CopyId>;

    /// Sets the buffered copy of worker `q`.
    fn set_buffered(&mut self, q: usize, b: Option<CopyId>);

    /// Copy being computed by worker `q`.
    fn computing(&self, q: usize) -> Option<ComputeState>;

    /// Sets the computing state of worker `q`.
    fn set_computing(&mut self, q: usize, c: Option<ComputeState>);

    /// Advances worker `q`'s computation by one UP-slot, if one is in
    /// progress; returns the copy and whether it just reached `w_q` slots
    /// (complete). Semantically `computing()` + `set_computing(done + 1)`
    /// — the default does exactly that — but implementations can fuse the
    /// read-modify-write into one column access: compute progress never
    /// changes the occupancy, only `done` (and the change feed).
    fn tick_compute(&mut self, q: usize) -> Option<(CopyId, bool)> {
        let mut c = self.computing(q)?;
        c.done += 1;
        let finished = c.done == self.w(q);
        self.set_computing(q, Some(c));
        Some((c.copy, finished))
    }

    /// Copies bound to worker `q` this slot (transfers not yet begun).
    fn bound(&self, q: usize) -> &[CopyId];

    /// Binds one more copy to worker `q`.
    fn bound_push(&mut self, q: usize, c: CopyId);

    /// Removes every bound copy equal to `c` from worker `q`.
    fn bound_remove(&mut self, q: usize, c: CopyId);

    /// Drains worker `q`'s bound list, feeding each copy to `f` in order.
    fn drain_bound(&mut self, q: usize, f: impl FnMut(CopyId));

    /// Does worker `q` hold a complete program copy?
    fn has_program(&self, q: usize, t_prog: SlotSpan) -> bool;

    /// Pinned copies of worker `q` (computing + buffered + transfer).
    fn pinned_count(&self, q: usize) -> usize;

    /// True if worker `q` is completely idle: nothing pinned, nothing bound.
    fn is_idle(&self, q: usize) -> bool;

    /// Negation of [`Self::is_idle`], for hot-loop early-outs: `true` iff
    /// anything is pinned or bound on worker `q`.
    fn busy(&self, q: usize) -> bool {
        !self.is_idle(q)
    }

    /// Whether any copy (pinned or bound) of `task` lives on worker `q`.
    fn has_copy_of(&self, q: usize, task: TaskId) -> bool;

    /// Room for one more bound copy on worker `q` (pipeline capacity 2).
    fn has_bind_room(&self, q: usize) -> bool;

    /// Number of workers that could accept one more bound copy this slot:
    /// `UP` with bind room. This is the **bindable capacity** the
    /// `PlacementBudget::BindCapacity` engine mode clips each pool request
    /// to — asking the scheduler for more placements than this can never
    /// yield more binds. The default is an O(p) accessor scan; dense-column
    /// layouts override it with a branch-light column walk (the engine
    /// cross-checks the override against this scan in debug builds).
    fn bindable_count(&self) -> usize {
        (0..self.len())
            .filter(|&q| self.state(q) == ProcState::Up && self.has_bind_room(q))
            .count()
    }

    /// Fills `out[q]` with worker `q`'s remaining bind room this slot:
    /// `2 − occupancy` for `UP` workers, 0 otherwise. The dense per-worker
    /// companion of [`Self::bindable_count`] — the capped placement round
    /// hands the column to the scheduler (as `SchedView::room`) so it can
    /// retire a worker the moment its room is spent. The default is an
    /// O(p) accessor scan; dense-column layouts override it with the same
    /// two-column walk as `bindable_count`.
    fn room_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.extend((0..self.len()).map(|q| {
            if self.state(q) != ProcState::Up {
                0
            } else if self.is_idle(q) {
                2
            } else if self.has_bind_room(q) {
                1
            } else {
                0
            }
        }));
    }

    /// Number of [`SUMMARY_BLOCK`]-wide blocks covering the platform.
    fn summary_blocks(&self) -> usize {
        self.len().div_ceil(SUMMARY_BLOCK)
    }

    /// May block `b` contain a busy (occupancy ≠ 0) worker? `false` is a
    /// **guarantee** that every worker in the block is idle, letting the
    /// compute / promotion passes skip it in one compare; `true` is
    /// non-committal. The default never commits — oracle layouts keep
    /// their original dense passes — while bitmap-maintaining layouts
    /// answer from the block's busy words.
    fn block_may_be_busy(&self, _b: usize) -> bool {
        true
    }

    /// Whether [`Self::busy_word`] reads a maintained bitmap (O(1)) rather
    /// than the dense fallback below. Engine passes gate on this constant
    /// so oracle layouts keep their original block-chunked scans and the
    /// branch monomorphizes away.
    const HAS_BUSY_WORDS: bool = false;

    /// The 64-worker busy bitmap word `wi`: bit `q % 64` of word `q / 64`
    /// is set iff worker `q` is busy (occupancy ≠ 0). Words past the
    /// platform tail are zero-padded. The default recomputes the word
    /// densely — correct for every layout, but only worth calling when
    /// [`Self::HAS_BUSY_WORDS`] says the layout maintains the column.
    fn busy_word(&self, wi: usize) -> u64 {
        let mut word = 0u64;
        let start = wi * 64;
        let end = (start + 64).min(self.len());
        for q in start..end {
            word |= u64::from(self.busy(q)) << (q - start);
        }
        word
    }

    /// Per-state worker counts `[up, reclaimed, down]` for the current
    /// slot, if the layout maintains them (`None` sends the caller down a
    /// dense tally). Phase 1's state census consumes this — O(1) instead
    /// of an O(p) pass.
    fn state_census(&self) -> Option<[usize; 3]> {
        None
    }

    /// The change feed (see the trait-level contract) as bitmap words —
    /// bit `q % 64` of word `q / 64` set iff worker `q` is fed, words past
    /// the platform tail zero — or `None` when the layout keeps none and
    /// consumers must rescan densely.
    fn changes(&self) -> Option<&[u64]> {
        None
    }

    /// Empties the change feed (the consumer caught up).
    fn clear_changes(&mut self) {}

    /// Workers that turned `DOWN` in the last [`Self::set_states`], in
    /// ascending order, or `None` when the layout does not track them (the
    /// crash pass then visits every `DOWN` worker).
    fn went_down(&self) -> Option<&[u32]> {
        None
    }

    /// `Delay(q)` — see [`WorkerRuntime::delay_estimate`].
    fn delay_estimate(&self, q: usize, t_prog: SlotSpan, t_data: SlotSpan) -> SlotSpan;

    /// Crash handling for worker `q` — see [`WorkerRuntime::crash_into`].
    fn crash_into(&mut self, q: usize, lost: &mut Vec<CopyId>);

    /// Cancels every copy of `task` on worker `q` — see
    /// [`WorkerRuntime::cancel_task_into`].
    fn cancel_task_into(&mut self, q: usize, task: TaskId, removed: &mut Vec<CopyId>);

    /// Structural pipeline invariants of worker `q` (debug builds).
    fn assert_invariants(&self, q: usize, t_prog: SlotSpan, t_data: SlotSpan);
}

/// The retained AoS layout: a plain `Vec<WorkerRuntime>`, every operation
/// delegated to the original per-worker methods. This is the pre-SoA code
/// path, kept as the bit-identity oracle (and for tests that want to poke a
/// single worker's fields directly). It keeps no change feed, so
/// `ReferenceSimulation` rebuilds every snapshot and free mask from
/// scratch, crashes every `DOWN` worker every slot and never hands the
/// scheduler a delta — a genuine cross-check of the incremental paths.
#[derive(Debug, Default)]
pub struct AosWorkers {
    /// The workers, in processor order.
    pub workers: Vec<WorkerRuntime>,
}

impl WorkerStore for AosWorkers {
    #[inline]
    fn len(&self) -> usize {
        self.workers.len()
    }

    fn reset_for<I>(&mut self, specs: I)
    where
        I: ExactSizeIterator<Item = ProcessorSpec>,
    {
        self.workers.truncate(specs.len());
        let mut specs = specs;
        for (w, spec) in self.workers.iter_mut().zip(specs.by_ref()) {
            w.reset(spec);
        }
        for spec in specs {
            self.workers.push(WorkerRuntime::new(spec));
        }
    }

    #[inline]
    fn w(&self, q: usize) -> SlotSpan {
        self.workers[q].spec.w
    }

    #[inline]
    fn state(&self, q: usize) -> ProcState {
        self.workers[q].state
    }

    #[inline]
    fn set_states(&mut self, states: &[ProcState]) {
        for (w, &s) in self.workers.iter_mut().zip(states) {
            w.state = s;
        }
    }

    #[inline]
    fn prog_done(&self, q: usize) -> SlotSpan {
        self.workers[q].prog_done
    }

    #[inline]
    fn set_prog_done(&mut self, q: usize, v: SlotSpan) {
        self.workers[q].prog_done = v;
    }

    #[inline]
    fn prog_began_at(&self, q: usize) -> Slot {
        self.workers[q].prog_began_at
    }

    #[inline]
    fn set_prog_began_at(&mut self, q: usize, v: Slot) {
        self.workers[q].prog_began_at = v;
    }

    #[inline]
    fn transfer(&self, q: usize) -> Option<TransferState> {
        self.workers[q].transfer
    }

    #[inline]
    fn set_transfer(&mut self, q: usize, t: Option<TransferState>) {
        self.workers[q].transfer = t;
    }

    #[inline]
    fn buffered(&self, q: usize) -> Option<CopyId> {
        self.workers[q].buffered
    }

    #[inline]
    fn set_buffered(&mut self, q: usize, b: Option<CopyId>) {
        self.workers[q].buffered = b;
    }

    #[inline]
    fn computing(&self, q: usize) -> Option<ComputeState> {
        self.workers[q].computing
    }

    #[inline]
    fn set_computing(&mut self, q: usize, c: Option<ComputeState>) {
        self.workers[q].computing = c;
    }

    #[inline]
    fn bound(&self, q: usize) -> &[CopyId] {
        &self.workers[q].bound
    }

    #[inline]
    fn bound_push(&mut self, q: usize, c: CopyId) {
        self.workers[q].bound.push(c);
    }

    #[inline]
    fn bound_remove(&mut self, q: usize, c: CopyId) {
        self.workers[q].bound.retain(|x| *x != c);
    }

    #[inline]
    fn drain_bound(&mut self, q: usize, mut f: impl FnMut(CopyId)) {
        for c in self.workers[q].bound.drain(..) {
            f(c);
        }
    }

    #[inline]
    fn has_program(&self, q: usize, t_prog: SlotSpan) -> bool {
        self.workers[q].has_program(t_prog)
    }

    #[inline]
    fn pinned_count(&self, q: usize) -> usize {
        self.workers[q].pinned_count()
    }

    #[inline]
    fn is_idle(&self, q: usize) -> bool {
        self.workers[q].is_idle()
    }

    #[inline]
    fn has_copy_of(&self, q: usize, task: TaskId) -> bool {
        self.workers[q].has_copy_of(task)
    }

    #[inline]
    fn has_bind_room(&self, q: usize) -> bool {
        self.workers[q].has_bind_room()
    }

    #[inline]
    fn delay_estimate(&self, q: usize, t_prog: SlotSpan, t_data: SlotSpan) -> SlotSpan {
        self.workers[q].delay_estimate(t_prog, t_data)
    }

    #[inline]
    fn crash_into(&mut self, q: usize, lost: &mut Vec<CopyId>) {
        self.workers[q].crash_into(lost);
    }

    #[inline]
    fn cancel_task_into(&mut self, q: usize, task: TaskId, removed: &mut Vec<CopyId>) {
        self.workers[q].cancel_task_into(task, removed);
    }

    #[inline]
    fn assert_invariants(&self, q: usize, t_prog: SlotSpan, t_data: SlotSpan) {
        self.workers[q].assert_invariants(t_prog, t_data);
    }
}

/// The hot/cold SoA layout (see the module docs). Field-for-field equivalent
/// to `Vec<WorkerRuntime>`, stored column-wise.
#[derive(Debug, Default)]
pub struct WorkerSoA {
    // --- hot columns: walked densely every slot ---------------------------
    /// State for the current slot (1 byte per worker; phase 1's column).
    state: Vec<ProcState>,
    /// `w_q` (snapshot build + compute phase).
    w: Vec<SlotSpan>,
    /// Slots of program received.
    prog_done: Vec<SlotSpan>,
    /// Copy being computed.
    computing: Vec<Option<ComputeState>>,
    /// Data transfer in flight.
    transfer: Vec<Option<TransferState>>,
    /// Copy whose data is complete, waiting for the compute unit.
    buffered: Vec<Option<CopyId>>,
    /// Derived hot column: `pinned_count + bound.len()` per worker, kept in
    /// sync by every mutator. Collapses `is_idle` / `busy` /
    /// `has_bind_room` — the free-mask scan of the replica path above all —
    /// to a single byte read instead of three `Option` columns plus a
    /// `Vec` header chase. The SoA⇄AoS oracle grid pins its consistency.
    occupancy: Vec<u8>,
    // --- change tracking ----------------------------------------------------
    /// The change feed bitmap (see the [`WorkerStore`] contract), drained
    /// by the engine's incremental consumers.
    feed: Vec<u64>,
    /// Workers that turned `DOWN` in the last `set_states`, ascending.
    went_down: Vec<u32>,
    /// `[up, reclaimed, down]` worker counts, maintained by `set_states`.
    census: [usize; 3],
    /// Busy bitmap: bit `q % 64` of word `q / 64` is set iff worker `q` is
    /// busy (occupancy ≠ 0), maintained by [`Self::occ_inc`] /
    /// [`Self::occ_sub`] on every 0 ↔ non-zero flip and consumed by the
    /// engine's busy-worker iteration ([`WorkerStore::busy_word`]) so the
    /// compute / transfer-continuation / promotion passes cost O(busy)
    /// instead of O(p) at platform scale. A block's busy summary is its
    /// [`SUMMARY_BLOCK`]` / 64` words.
    busy_words: Vec<u64>,
    // --- cold columns: touched on binds / crashes only --------------------
    /// Slot at which the current program transfer began.
    prog_began_at: Vec<Slot>,
    /// Copies bound this slot; inner allocations retained across runs.
    bound: Vec<Vec<CopyId>>,
}

impl WorkerSoA {
    /// Feeds worker `q` (idempotent between drains).
    #[inline]
    fn note_changed(&mut self, q: usize) {
        self.feed[q / 64] |= 1u64 << (q % 64);
    }

    /// Increments worker `q`'s occupancy byte, maintaining the busy bitmap
    /// and the change feed. The documented pipeline bound — `pinned_count + bound.len()`
    /// never exceeds 2 (`has_bind_room` gates every bind; promotions clear
    /// a stage before filling the next) — is asserted on every increment,
    /// so a future pipeline change that would wrap the byte, or silently
    /// corrupt `room_into` / `bindable_count` (both assume occupancy ≤ 2),
    /// fails loudly in debug builds.
    #[inline]
    fn occ_inc(&mut self, q: usize) {
        let occ = self.occupancy[q];
        debug_assert!(
            occ < 2,
            "occupancy overflow on worker {q}: {occ} + 1 breaks the pipeline bound (≤ 2)"
        );
        self.occupancy[q] = occ + 1;
        if occ == 0 {
            self.busy_words[q / 64] |= 1u64 << (q % 64);
            self.note_changed(q);
        }
    }

    /// Decrements worker `q`'s occupancy byte by `by`, maintaining the busy
    /// bitmap and the change feed. Bound-list deltas arrive as `usize` and are
    /// narrowed here — sound only under the ≤ 2 bound, which the
    /// underflow assertion restates.
    #[inline]
    fn occ_sub(&mut self, q: usize, by: usize) {
        if by == 0 {
            return;
        }
        let occ = self.occupancy[q];
        debug_assert!(
            usize::from(occ) >= by,
            "occupancy underflow on worker {q}: {occ} - {by}"
        );
        let now = occ.wrapping_sub(by as u8);
        self.occupancy[q] = now;
        if now == 0 {
            self.busy_words[q / 64] &= !(1u64 << (q % 64));
            self.note_changed(q);
        }
    }
}

/// `memset`-style column reinit: one `clear` + one `resize` fill pass over
/// the retained allocation.
#[inline]
fn refill<T: Clone>(v: &mut Vec<T>, p: usize, value: T) {
    v.clear();
    v.resize(p, value);
}

impl WorkerStore for WorkerSoA {
    const HAS_BUSY_WORDS: bool = true;

    #[inline]
    fn len(&self) -> usize {
        self.state.len()
    }

    fn reset_for<I>(&mut self, specs: I)
    where
        I: ExactSizeIterator<Item = ProcessorSpec>,
    {
        let p = specs.len();
        self.w.clear();
        self.w.extend(specs.map(|s| s.w));
        refill(&mut self.state, p, ProcState::Reclaimed);
        refill(&mut self.prog_done, p, 0);
        refill(&mut self.computing, p, None);
        refill(&mut self.transfer, p, None);
        refill(&mut self.buffered, p, None);
        refill(&mut self.occupancy, p, 0);
        // Everything about a fresh run is unknown to any incremental
        // consumer; stale entries from a previous (possibly larger)
        // platform must not leak through an arena reuse.
        refill(&mut self.feed, p.div_ceil(64), u64::MAX);
        if let (Some(last), 1..) = (self.feed.last_mut(), p % 64) {
            *last = (1u64 << (p % 64)) - 1;
        }
        self.went_down.clear();
        // A correlated outage can take the whole platform down in one
        // slot: size the list for it here, not mid-run.
        self.went_down.reserve(p);
        // Fresh platform: everyone Reclaimed and idle.
        self.census = [0, p, 0];
        refill(&mut self.busy_words, p.div_ceil(64), 0);
        refill(&mut self.prog_began_at, p, 0);
        // `bound` keeps each retained worker's allocation alive.
        self.bound.truncate(p);
        for b in &mut self.bound {
            b.clear();
        }
        if self.bound.len() < p {
            self.bound.resize_with(p, Vec::new);
        }
    }

    #[inline]
    fn w(&self, q: usize) -> SlotSpan {
        self.w[q]
    }

    #[inline]
    fn state(&self, q: usize) -> ProcState {
        self.state[q]
    }

    fn set_states(&mut self, states: &[ProcState]) {
        debug_assert_eq!(states.len(), self.state.len());
        // Changed states feed their worker (a non-UP delay sentinel, or a
        // stale delay from before a suspension, must be rewritten when the
        // state flips), move the census, and — flips to DOWN — queue the
        // worker for the crash pass; unchanged ones stay quiet. The pass
        // runs block by block: a block whose 256-byte window re-draws
        // identically is dismissed by one slice compare, and only changed
        // blocks pay the per-worker diff.
        self.went_down.clear();
        let p = self.state.len();
        let mut start = 0;
        while start < p {
            let end = (start + SUMMARY_BLOCK).min(p);
            if self.state[start..end] != states[start..end] {
                for (q, &new) in states.iter().enumerate().take(end).skip(start) {
                    let old = self.state[q];
                    if old != new {
                        self.state[q] = new;
                        self.census[old.index()] -= 1;
                        self.census[new.index()] += 1;
                        if new == ProcState::Down {
                            // q < u32::MAX: PlatformConfig::validate bounds
                            // the platform.
                            self.went_down.push(q as u32);
                        }
                        self.note_changed(q);
                    }
                }
            }
            start = end;
        }
    }

    #[inline]
    fn prog_done(&self, q: usize) -> SlotSpan {
        self.prog_done[q]
    }

    #[inline]
    fn set_prog_done(&mut self, q: usize, v: SlotSpan) {
        if self.prog_done[q] != v {
            self.prog_done[q] = v;
            self.note_changed(q);
        }
    }

    #[inline]
    fn prog_began_at(&self, q: usize) -> Slot {
        self.prog_began_at[q]
    }

    #[inline]
    fn set_prog_began_at(&mut self, q: usize, v: Slot) {
        self.prog_began_at[q] = v;
    }

    #[inline]
    fn transfer(&self, q: usize) -> Option<TransferState> {
        self.transfer[q]
    }

    #[inline]
    fn set_transfer(&mut self, q: usize, t: Option<TransferState>) {
        let had = self.transfer[q].is_some();
        self.transfer[q] = t;
        self.note_changed(q);
        match (had, t.is_some()) {
            (false, true) => self.occ_inc(q),
            (true, false) => self.occ_sub(q, 1),
            _ => {}
        }
    }

    #[inline]
    fn buffered(&self, q: usize) -> Option<CopyId> {
        self.buffered[q]
    }

    #[inline]
    fn set_buffered(&mut self, q: usize, b: Option<CopyId>) {
        let had = self.buffered[q].is_some();
        self.buffered[q] = b;
        self.note_changed(q);
        match (had, b.is_some()) {
            (false, true) => self.occ_inc(q),
            (true, false) => self.occ_sub(q, 1),
            _ => {}
        }
    }

    #[inline]
    fn computing(&self, q: usize) -> Option<ComputeState> {
        self.computing[q]
    }

    #[inline]
    fn set_computing(&mut self, q: usize, c: Option<ComputeState>) {
        let had = self.computing[q].is_some();
        self.computing[q] = c;
        self.note_changed(q);
        match (had, c.is_some()) {
            (false, true) => self.occ_inc(q),
            (true, false) => self.occ_sub(q, 1),
            _ => {}
        }
    }

    #[inline]
    fn tick_compute(&mut self, q: usize) -> Option<(CopyId, bool)> {
        // One in-place column access: progress changes neither the
        // occupancy nor the Option discriminant, only `done` (and with it
        // `Delay(q)`, hence the feed).
        let c = self.computing[q].as_mut()?;
        c.done += 1;
        let out = (c.copy, c.done == self.w[q]);
        self.note_changed(q);
        Some(out)
    }

    #[inline]
    fn bound(&self, q: usize) -> &[CopyId] {
        &self.bound[q]
    }

    #[inline]
    fn bound_push(&mut self, q: usize, c: CopyId) {
        self.bound[q].push(c);
        self.occ_inc(q);
    }

    #[inline]
    fn bound_remove(&mut self, q: usize, c: CopyId) {
        // The delta narrows to u8 inside occ_sub, under its underflow
        // assertion — sound while the ≤ 2 pipeline bound holds.
        let before = self.bound[q].len();
        self.bound[q].retain(|x| *x != c);
        let removed = before - self.bound[q].len();
        self.occ_sub(q, removed);
    }

    #[inline]
    fn drain_bound(&mut self, q: usize, mut f: impl FnMut(CopyId)) {
        let n = self.bound[q].len();
        self.occ_sub(q, n);
        for c in self.bound[q].drain(..) {
            f(c);
        }
    }

    #[inline]
    fn has_program(&self, q: usize, t_prog: SlotSpan) -> bool {
        self.prog_done[q] >= t_prog
    }

    #[inline]
    fn pinned_count(&self, q: usize) -> usize {
        usize::from(self.transfer[q].is_some())
            + usize::from(self.buffered[q].is_some())
            + usize::from(self.computing[q].is_some())
    }

    #[inline]
    fn is_idle(&self, q: usize) -> bool {
        self.occupancy[q] == 0
    }

    #[inline]
    fn busy(&self, q: usize) -> bool {
        self.occupancy[q] != 0
    }

    #[inline]
    fn has_copy_of(&self, q: usize, task: TaskId) -> bool {
        self.occupancy[q] != 0
            && (self.computing[q].is_some_and(|c| c.copy.task == task)
                || self.buffered[q].is_some_and(|b| b.task == task)
                || self.transfer[q].is_some_and(|t| t.copy.task == task)
                || self.bound[q].iter().any(|c| c.task == task))
    }

    #[inline]
    fn has_bind_room(&self, q: usize) -> bool {
        self.occupancy[q] < 2
    }

    fn bindable_count(&self) -> usize {
        // One pass over the two hot byte-wide columns — the same
        // two-column walk the replica path's free scan does, without the
        // per-worker accessor dispatch of the default implementation.
        self.state
            .iter()
            .zip(&self.occupancy)
            .filter(|&(&s, &occ)| s == ProcState::Up && occ < 2)
            .count()
    }

    fn room_into(&self, out: &mut Vec<u8>) {
        // Same two-column walk as `bindable_count`, emitting the per-worker
        // remainder instead of the population count.
        out.clear();
        out.extend(self.state.iter().zip(&self.occupancy).map(|(&s, &occ)| {
            if s == ProcState::Up {
                2u8.saturating_sub(occ)
            } else {
                0
            }
        }));
    }

    #[inline]
    fn delay_estimate(&self, q: usize, t_prog: SlotSpan, t_data: SlotSpan) -> SlotSpan {
        // Mirrors WorkerRuntime::delay_estimate over the columns.
        let prog_rem = t_prog.saturating_sub(self.prog_done[q]);
        let mut comm_free = prog_rem;
        let mut compute_free = 0;
        if let Some(c) = self.computing[q] {
            compute_free = self.w[q] - c.done;
        }
        if self.buffered[q].is_some() {
            compute_free += self.w[q];
        }
        if let Some(tr) = self.transfer[q] {
            let data_ready = comm_free + (t_data - tr.done);
            comm_free = data_ready;
            compute_free = compute_free.max(data_ready) + self.w[q];
        }
        compute_free.max(comm_free)
    }

    fn crash_into(&mut self, q: usize, lost: &mut Vec<CopyId>) {
        // Only a change feeds: crashing an already-empty worker is a
        // no-op.
        let mut changed = self.prog_done[q] != 0;
        self.prog_done[q] = 0;
        if let Some(c) = self.computing[q].take() {
            lost.push(c.copy);
            self.occ_sub(q, 1);
            changed = true;
        }
        if let Some(b) = self.buffered[q].take() {
            lost.push(b);
            self.occ_sub(q, 1);
            changed = true;
        }
        if let Some(t) = self.transfer[q].take() {
            lost.push(t.copy);
            self.occ_sub(q, 1);
            changed = true;
        }
        if changed {
            self.note_changed(q);
        }
    }

    fn cancel_task_into(&mut self, q: usize, task: TaskId, removed: &mut Vec<CopyId>) {
        if self.occupancy[q] == 0 {
            return; // nothing pinned or bound — nothing to cancel
        }
        if let Some(c) = self.computing[q].take_if(|c| c.copy.task == task) {
            removed.push(c.copy);
            self.occ_sub(q, 1);
            self.note_changed(q);
        }
        if let Some(b) = self.buffered[q].take_if(|b| b.task == task) {
            removed.push(b);
            self.occ_sub(q, 1);
            self.note_changed(q);
        }
        if let Some(t) = self.transfer[q].take_if(|t| t.copy.task == task) {
            removed.push(t.copy);
            self.occ_sub(q, 1);
            self.note_changed(q);
        }
        // Bound removals feed only through a busy flip: Delay(q) excludes
        // bound copies ([D8]).
        let mut i = 0;
        while i < self.bound[q].len() {
            if self.bound[q][i].task == task {
                let c = self.bound[q].remove(i);
                removed.push(c);
                self.occ_sub(q, 1);
            } else {
                i += 1;
            }
        }
    }

    #[inline]
    fn block_may_be_busy(&self, b: usize) -> bool {
        let words = SUMMARY_BLOCK / 64;
        let lo = b * words;
        let hi = (lo + words).min(self.busy_words.len());
        self.busy_words[lo..hi].iter().any(|&w| w != 0)
    }

    #[inline]
    fn busy_word(&self, wi: usize) -> u64 {
        self.busy_words[wi]
    }

    #[inline]
    fn state_census(&self) -> Option<[usize; 3]> {
        Some(self.census)
    }

    #[inline]
    fn changes(&self) -> Option<&[u64]> {
        Some(&self.feed)
    }

    fn clear_changes(&mut self) {
        self.feed.fill(0);
    }

    #[inline]
    fn went_down(&self) -> Option<&[u32]> {
        Some(&self.went_down)
    }

    fn assert_invariants(&self, q: usize, t_prog: SlotSpan, t_data: SlotSpan) {
        // Validation-time restatement of the pipeline bound: `room_into`,
        // `bindable_count` and the bound-delta narrowing in `bound_remove`
        // / `drain_bound` (routed through `occ_sub`) all assume occupancy
        // never exceeds 2 — `occ_inc` asserts it at every increment, this
        // re-checks it wherever the engine validates a worker.
        assert!(
            self.occupancy[q] <= 2,
            "occupancy {} on worker {q} exceeds the pipeline bound (≤ 2)",
            self.occupancy[q]
        );
        // The derived occupancy byte must track the ground truth — every
        // predicate collapsed onto it (is_idle/busy/has_bind_room) is wrong
        // if a mutator skipped the bookkeeping.
        assert_eq!(
            usize::from(self.occupancy[q]),
            usize::from(self.transfer[q].is_some())
                + usize::from(self.buffered[q].is_some())
                + usize::from(self.computing[q].is_some())
                + self.bound[q].len(),
            "occupancy column out of sync on worker {q}"
        );
        // Materialize the worker and reuse the canonical checks; this runs
        // in debug builds only, so the transient allocation is acceptable.
        let w = WorkerRuntime {
            spec: ProcessorSpec::new(self.w[q]),
            state: self.state[q],
            prog_done: self.prog_done[q],
            prog_began_at: self.prog_began_at[q],
            transfer: self.transfer[q],
            buffered: self.buffered[q],
            computing: self.computing[q],
            bound: self.bound[q].clone(), // tidy:allow(hot_alloc): debug-build invariant check only.
        };
        w.assert_invariants(t_prog, t_data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskId;

    fn copy(task: u32, replica: u8) -> CopyId {
        CopyId {
            task: TaskId(task),
            replica,
        }
    }

    fn specs(ws: &[SlotSpan]) -> Vec<ProcessorSpec> {
        ws.iter().map(|&w| ProcessorSpec::new(w)).collect()
    }

    /// Drives both layouts through the same mutation script and asserts
    /// every observable agrees after every step — a differential unit test
    /// below the engine-level oracle.
    #[test]
    fn soa_and_aos_agree_on_a_mutation_script() {
        let mut soa = WorkerSoA::default();
        let mut aos = AosWorkers::default();
        let sp = specs(&[3, 5, 2]);
        soa.reset_for(sp.iter().copied());
        aos.reset_for(sp.iter().copied());

        let states = [ProcState::Up, ProcState::Reclaimed, ProcState::Up];
        soa.set_states(&states);
        aos.set_states(&states);

        // Build a busy pipeline on worker 0, a partial program on worker 2.
        for s in [&mut soa as &mut dyn Probe, &mut aos as &mut dyn Probe] {
            s.script();
        }

        let (t_prog, t_data) = (4, 2);
        assert_eq!(soa.len(), aos.len());
        for q in 0..soa.len() {
            assert_eq!(soa.w(q), aos.w(q), "w {q}");
            assert_eq!(soa.state(q), aos.state(q), "state {q}");
            assert_eq!(soa.prog_done(q), aos.prog_done(q), "prog_done {q}");
            assert_eq!(soa.transfer(q), aos.transfer(q), "transfer {q}");
            assert_eq!(soa.buffered(q), aos.buffered(q), "buffered {q}");
            assert_eq!(soa.computing(q), aos.computing(q), "computing {q}");
            assert_eq!(soa.bound(q), aos.bound(q), "bound {q}");
            assert_eq!(soa.pinned_count(q), aos.pinned_count(q));
            assert_eq!(soa.is_idle(q), aos.is_idle(q));
            assert_eq!(soa.has_bind_room(q), aos.has_bind_room(q));
            assert_eq!(soa.has_program(q, t_prog), aos.has_program(q, t_prog));
            assert_eq!(
                soa.delay_estimate(q, t_prog, t_data),
                aos.delay_estimate(q, t_prog, t_data),
                "delay {q}"
            );
            for t in 0..4 {
                assert_eq!(
                    soa.has_copy_of(q, TaskId(t)),
                    aos.has_copy_of(q, TaskId(t)),
                    "has_copy_of {q} T{t}"
                );
            }
        }

        // tick_compute advances identically (worker 0 computes: w = 3,
        // done = 1 → 2 → 3 completes; worker 2 computes nothing).
        assert_eq!(soa.tick_compute(2), aos.tick_compute(2));
        assert_eq!(soa.tick_compute(2), None);
        for expect_finished in [false, true] {
            let a = soa.tick_compute(0);
            assert_eq!(a, aos.tick_compute(0));
            let (c, finished) = a.expect("worker 0 is computing");
            assert_eq!(c, copy(0, 0));
            assert_eq!(finished, expect_finished);
            assert_eq!(soa.computing(0), aos.computing(0));
            assert_eq!(soa.pinned_count(0), aos.pinned_count(0));
            assert!(fed(&soa, 0), "compute progress feeds its worker");
        }

        // Crash + cancel drain identically.
        let (mut la, mut lb) = (Vec::new(), Vec::new());
        soa.crash_into(0, &mut la);
        aos.crash_into(0, &mut lb);
        assert_eq!(la, lb);
        la.clear();
        lb.clear();
        soa.cancel_task_into(2, TaskId(3), &mut la);
        aos.cancel_task_into(2, TaskId(3), &mut lb);
        assert_eq!(la, lb);
    }

    /// Whether worker `q` is in the store's change feed.
    fn fed(store: &WorkerSoA, q: usize) -> bool {
        store
            .changes()
            .is_some_and(|f| f[q / 64] >> (q % 64) & 1 == 1)
    }

    /// The fed workers, ascending.
    fn fed_list(store: &WorkerSoA) -> Vec<usize> {
        (0..store.len()).filter(|&q| fed(store, q)).collect()
    }

    /// The trait-level change-feed contract: scheduler-visible mutations
    /// and busy flips feed their worker exactly once, unobservable ones do
    /// not, and resets (arena reuse across resizes) never leak stale
    /// entries. The AoS oracle keeps no feed at all.
    #[test]
    fn change_feed_contract_holds() {
        assert!(AosWorkers::default().changes().is_none());
        assert!(AosWorkers::default().went_down().is_none());
        let store = &mut WorkerSoA::default();
        store.reset_for(specs(&[1, 2, 3, 4]).into_iter());
        assert!(
            (0..4).all(|q| fed(store, q)),
            "reset_for must feed everyone"
        );
        store.clear_changes();
        assert!(fed_list(store).is_empty());

        // Program progress feeds its worker alone; an identical rewrite
        // stays quiet.
        store.set_prog_done(2, 1);
        assert!(fed(store, 2) && !fed(store, 1));
        store.clear_changes();
        store.set_prog_done(2, 1);
        assert!(!fed(store, 2), "no-op prog write must stay quiet");

        // Changed states feed; re-drawing the current state does not.
        use ProcState::{Down, Reclaimed, Up};
        store.set_states(&[Up, Up, Reclaimed, Reclaimed]);
        assert!(fed(store, 0) && fed(store, 1));
        assert!(!fed(store, 2) && !fed(store, 3));
        // Entries are sticky until drained.
        store.set_prog_done(0, 1);
        assert_eq!(fed_list(store), vec![0, 1]);

        // Bound-list churn feeds only through busy flips: the first copy
        // on an idle worker flips it busy, a second one does not.
        store.clear_changes();
        store.bound_push(1, copy(7, 1));
        assert!(fed(store, 1), "idle → busy feeds");
        store.clear_changes();
        store.bound_push(1, copy(8, 1));
        store.bound_remove(1, copy(8, 1));
        store.set_prog_began_at(1, 9);
        assert!(!fed(store, 1), "churn on a busy worker stays quiet");
        store.drain_bound(1, |_| {});
        assert!(fed(store, 1), "busy → idle feeds");

        // Crashing an already-empty worker is quiet; crashing one with
        // progress feeds it.
        store.clear_changes();
        let mut lost = Vec::new();
        store.crash_into(3, &mut lost);
        assert!(!fed(store, 3), "empty crash must stay quiet");
        store.crash_into(2, &mut lost);
        assert!(fed(store, 2), "crash with progress feeds");

        // Pinned-pipeline mutations feed; canceling a bound copy off a
        // still-busy worker does not, canceling a pinned one does.
        store.set_computing(
            3,
            Some(ComputeState {
                copy: copy(5, 0),
                done: 0,
            }),
        );
        store.bound_push(3, copy(6, 0));
        store.clear_changes();
        let mut removed = Vec::new();
        store.cancel_task_into(3, TaskId(6), &mut removed);
        assert!(
            !fed(store, 3),
            "bound-only cancel on a busy worker stays quiet"
        );
        store.cancel_task_into(3, TaskId(5), &mut removed);
        assert!(fed(store, 3), "pinned cancel feeds");

        // tick_compute feeds the advanced worker.
        store.set_prog_done(3, 4);
        store.set_computing(
            3,
            Some(ComputeState {
                copy: copy(5, 0),
                done: 0,
            }),
        );
        store.clear_changes();
        assert_eq!(store.tick_compute(3), Some((copy(5, 0), false)));
        assert!(fed(store, 3));

        // went_down names exactly this redraw's flips to DOWN, ascending.
        store.set_states(&[Down, Up, Down, Down]);
        assert_eq!(store.went_down().unwrap(), &[0, 2, 3]);
        store.set_states(&[Down, Down, Down, Up]);
        assert_eq!(store.went_down().unwrap(), &[1], "staying DOWN is no flip");

        // Shrink then regrow: every reset re-feeds the *current* workers
        // and the grown tail cannot inherit a stale membership bit.
        store.reset_for(specs(&[5]).into_iter());
        assert_eq!(fed_list(store), vec![0]);
        assert_eq!(store.changes().unwrap(), &[1], "no bits past the tail");
        assert!(store.went_down().unwrap().is_empty());
        store.clear_changes();
        store.reset_for(specs(&[1, 2, 3, 4, 5, 6]).into_iter());
        assert!((0..6).all(|q| fed(store, q)));
    }

    /// Recomputes every busy word densely from `busy(q)` and asserts the
    /// maintained bitmap agrees — the invariant the engine's bit-iteration
    /// passes rely on.
    fn assert_busy_words_consistent<S: WorkerStore>(store: &S, ctx: &str) {
        for wi in 0..store.len().div_ceil(64) {
            let mut expect = 0u64;
            let start = wi * 64;
            for q in start..(start + 64).min(store.len()) {
                expect |= u64::from(store.busy(q)) << (q - start);
            }
            assert_eq!(store.busy_word(wi), expect, "word {wi} after {ctx}");
        }
    }

    /// The busy bitmap tracks every occupancy 0 ↔ non-zero flip, across a
    /// word boundary, through binds, pins, crashes, and arena-reuse resets.
    #[test]
    fn busy_words_track_occupancy_flips() {
        let mut store = WorkerSoA::default();
        // 130 workers: three words, the last one partial.
        let sp = specs(&vec![2; 130]);
        store.reset_for(sp.iter().copied());
        assert_busy_words_consistent(&store, "reset");

        // Bind on both sides of the word boundary, pin one copy, stack a
        // second on worker 63 (the flip must fire once, not per copy).
        for q in [0usize, 63, 64, 129] {
            store.bound_push(q, copy(q as u32, 0));
        }
        store.bound_push(63, copy(200, 1));
        assert_busy_words_consistent(&store, "binds");
        assert_eq!(store.busy_word(0), (1 << 0) | (1 << 63));
        assert_eq!(store.busy_word(1), 1 << 0);
        assert_eq!(store.busy_word(2), 1 << 1);

        store.set_computing(
            70,
            Some(ComputeState {
                copy: copy(70, 0),
                done: 0,
            }),
        );
        assert_busy_words_consistent(&store, "pin");

        // Partial drains: worker 63 stays busy after losing one of two
        // copies, goes idle after losing the last.
        store.bound_remove(63, copy(200, 1));
        assert_busy_words_consistent(&store, "partial unbind");
        assert!(store.busy(63));
        store.drain_bound(63, |_| {});
        assert_busy_words_consistent(&store, "full unbind");
        assert!(!store.busy(63));

        // Crash clears the whole pipeline in one step.
        let mut lost = Vec::new();
        store.crash_into(70, &mut lost);
        assert_busy_words_consistent(&store, "crash");
        assert!(!store.busy(70));

        // Arena reuse onto a smaller platform must not leak stale bits
        // through the shrunken word count.
        store.reset_for(specs(&[1, 1, 1]).into_iter());
        assert_busy_words_consistent(&store, "shrinking reset");
        assert_eq!(store.busy_word(0), 0);
    }

    /// Shared mutation script for the differential test.
    trait Probe {
        fn script(&mut self);
    }

    impl<S: WorkerStore> Probe for S {
        fn script(&mut self) {
            self.set_prog_done(0, 4);
            self.set_computing(
                0,
                Some(ComputeState {
                    copy: copy(0, 0),
                    done: 1,
                }),
            );
            self.set_transfer(
                0,
                Some(TransferState {
                    copy: copy(1, 0),
                    done: 1,
                    began_at: 2,
                }),
            );
            self.set_prog_done(2, 2);
            self.set_prog_began_at(2, 1);
            self.bound_push(2, copy(3, 0));
            self.bound_push(2, copy(2, 1));
            self.bound_remove(2, copy(2, 1));
            self.bound_push(2, copy(3, 1));
            // drain_bound restores 2's bound list after observing it.
            let mut seen = Vec::new();
            self.drain_bound(2, |c| seen.push(c));
            assert_eq!(seen, vec![copy(3, 0), copy(3, 1)]);
            for c in seen {
                self.bound_push(2, c);
            }
        }
    }

    /// Recomputes the block busy summaries and the state census from the
    /// raw columns and asserts the maintained values agree.
    fn check_summaries(soa: &WorkerSoA) {
        let p = soa.state.len();
        for b in 0..p.div_ceil(SUMMARY_BLOCK) {
            let start = b * SUMMARY_BLOCK;
            let end = (start + SUMMARY_BLOCK).min(p);
            let busy = (start..end).filter(|&q| soa.occupancy[q] != 0).count();
            assert_eq!(soa.block_may_be_busy(b), busy != 0, "block {b}");
        }
        let count = |s: ProcState| soa.state.iter().filter(|&&x| x == s).count();
        assert_eq!(
            soa.state_census(),
            Some([
                count(ProcState::Up),
                count(ProcState::Reclaimed),
                count(ProcState::Down)
            ])
        );
    }

    /// Busy summaries and the census track a multi-block platform through
    /// state redraws, occupancy churn, crashes and cancels.
    #[test]
    fn block_summaries_track_columns() {
        use ProcState::{Down, Reclaimed, Up};
        let p = 2 * SUMMARY_BLOCK + 17;
        let mut soa = WorkerSoA::default();
        soa.reset_for(specs(&vec![3; p]).into_iter());
        assert_eq!(soa.summary_blocks(), 3);
        check_summaries(&soa);

        let mut states = vec![Reclaimed; p];
        states[SUMMARY_BLOCK] = Up;
        states[SUMMARY_BLOCK + 3] = Down;
        soa.set_states(&states);
        check_summaries(&soa);
        assert_eq!(soa.went_down().unwrap(), &[SUMMARY_BLOCK as u32 + 3]);
        soa.set_states(&states);
        check_summaries(&soa);

        soa.bound_push(5, copy(1, 0));
        soa.set_computing(
            5,
            Some(ComputeState {
                copy: copy(2, 0),
                done: 0,
            }),
        );
        check_summaries(&soa);

        // Crash in the last (partial) block: occupancy drains to zero.
        soa.set_transfer(
            2 * SUMMARY_BLOCK + 16,
            Some(TransferState {
                copy: copy(3, 0),
                done: 0,
                began_at: 0,
            }),
        );
        let mut lost = Vec::new();
        soa.crash_into(2 * SUMMARY_BLOCK + 16, &mut lost);
        assert_eq!(lost, vec![copy(3, 0)]);
        check_summaries(&soa);

        let mut removed = Vec::new();
        soa.cancel_task_into(5, TaskId(1), &mut removed);
        soa.cancel_task_into(5, TaskId(2), &mut removed);
        check_summaries(&soa);

        // Shrink through an arena-style reset: summaries shrink with it.
        soa.reset_for(specs(&[1, 2]).into_iter());
        assert_eq!(soa.summary_blocks(), 1);
        check_summaries(&soa);
    }

    #[test]
    fn reset_for_matches_cold_construction_after_grow_shrink_grow() {
        let mut soa = WorkerSoA::default();
        for shape in [&[2u64, 3][..], &[4, 5, 6, 7], &[9], &[1, 2, 3]] {
            // Dirty the store first so reset has something to erase.
            if !soa.is_empty() {
                soa.set_prog_done(0, 7);
                soa.set_buffered(0, Some(copy(0, 1)));
                soa.bound_push(0, copy(1, 0));
            }
            soa.reset_for(specs(shape).into_iter());
            let mut cold = WorkerSoA::default();
            cold.reset_for(specs(shape).into_iter());
            assert_eq!(soa.len(), shape.len());
            for (q, &w) in shape.iter().enumerate() {
                assert_eq!(soa.w(q), w);
                assert_eq!(soa.state(q), ProcState::Reclaimed);
                assert_eq!(soa.prog_done(q), 0);
                assert_eq!(soa.prog_began_at(q), 0);
                assert_eq!(soa.transfer(q), cold.transfer(q));
                assert_eq!(soa.buffered(q), None);
                assert_eq!(soa.computing(q), None);
                assert!(soa.bound(q).is_empty());
                assert!(soa.is_idle(q));
            }
        }
    }
}
