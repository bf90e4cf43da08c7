//! The greedy heuristic families of Section 6.3: MCT, EMCT, LW, UD and
//! their contention-aware `*` variants.
//!
//! All four share the same skeleton — assign the `m − m′` remaining tasks
//! one at a time, each to the processor optimizing a per-candidate score —
//! and differ only in the score:
//!
//! | family | score (selection) | uses |
//! |---|---|---|
//! | MCT  | min `CT(P_q, n_q+1)` | Eq. (1)/(2) |
//! | EMCT | min `E(CT(P_q, n_q+1))` | Theorem 2 expectation of the CT workload |
//! | LW   | max `(P₊)^{CT(P_q, n_q+1)}` | Lemma 1 |
//! | UD   | max `P_UD(E(CT(P_q, n_q+1)))` | Section 6.3.3 approximation |
//!
//! The `*` variants replace `T_data` by `⌈n_active/ncom⌉·T_data` inside `CT`
//! (Equation (2)).
//!
//! ## Scratch reuse and score caching
//!
//! `place_into` keeps its buffers across calls (`ups`, `n_q`, `scores`,
//! the selector trees, the score memo and the kernel copies), so
//! steady-state placement allocates nothing. Scores are cached per UP
//! processor and recomputed only when their inputs change: assigning a
//! task to `P_j` invalidates `P_j`'s score alone, except for the `*`
//! variants where enrolling a *new* processor bumps `n_active` and
//! invalidates every score (Equation (2) couples them). Every cache
//! replays exactly the computation the naive rescan performed, so
//! decisions — including the lowest-id tie-break \[D9\] — are
//! bit-identical to the original implementation.
//!
//! ## Pluggable argmin selectors
//!
//! Selecting each placement's argmin by rescanning every UP processor makes
//! a `count`-task placement burst cost `O(count · p)` — the dominant slot
//! cost at large `p` (the post-barrier burst places `m ≈ 2p` tasks, and the
//! replica path re-places nearly every slot). Winner selection therefore
//! dispatches through the [`selector`](crate::selector) module: a dense
//! linear rescan below the measured crossover, and above it a **loser
//! tree** over `(score, pos)` keys — `O(1)` select, one `⌈log₂ u⌉`
//! leaf-to-root path per winner re-score, one `O(u)` bottom-up rebuild per
//! Equation-(2) ceiling step. All produce bit-identical winner sequences
//! (the proptest below drives every family through every selector against
//! the cache-free naive model); see the selector module docs for the key
//! order, the staleness contract and the measured crossovers.
//!
//! ## Persistent lanes at platform scale
//!
//! A round whose view carries a [`ViewDelta`] can run on a `WinnerTree`
//! spanning all `p` processors, whose leaves hold each processor's **base
//! key** — its `n_q = 0`, factor-1 score, or an absent key for a
//! non-candidate. The scheduler keeps one tree per placement [`Lane`]
//! across rounds and uses it once the lane is in sync, or from
//! [`WINNER_TREE_MIN_UPS`] candidates up. When the delta's sequence number
//! follows the lane's last one, the round re-keys only the processors the
//! delta names plus the previous round's winners (whose leaves it left at
//! `n_q > 0`), then places as usual; its own winners are remembered for
//! the next round. A sequence gap, a [`Scheduler::begin_run`], a
//! platform-size change, or a previous round that did an Equation-(2)
//! refresh (which moves every leaf) rebuilds the lane from the full view
//! in `O(p)`. Rounds without a delta follow [`SelectorKind::choose`]. The
//! tree holds the exact keys a fresh round would compute, so decisions are
//! bit-identical; debug builds re-derive a rotating sample of leaves after
//! every patch, and the lane proptest below pins patched against fresh
//! schedulers. The placement loop itself is shared with the per-round
//! selectors: it addresses candidates by selector slot, which the winner
//! tree maps to processor ids one to one.
//!
//! Scores are **monotone non-decreasing within a round** — every mutation
//! (pipelining another task onto a processor, inflating effective `T_data`
//! by enrolling one more) raises completion time, and all four objectives
//! are normalized so larger `CT` means a larger score. That invariant is
//! what makes the *round-batched* ceiling refresh cheap: one dense
//! re-score pass over the row, then one `O(u)` rebuild.
//!
//! ## Division-free Equation-(2) bookkeeping
//!
//! A placement round at `p = 1024` re-scores the winner up to thousands of
//! times, and the naive evaluation pays two integer divisions per re-score
//! — `effective_t_data`'s `⌈n_active/ncom⌉` and the `ceiling_steps`
//! enrollment check. Both ceilings move only when `n_active` crosses a
//! multiple of `ncom`, so `place_into` maintains the enrolled and
//! not-yet-enrolled Equation-(2) factors *incrementally* (one compare per
//! enrollment, `f(n+1) = f(n) + [ncom divides n]`) and hands the resulting
//! effective `T_data` to the score kernel ready-made. Debug builds assert
//! the incremental factors against the closed forms at every enrollment;
//! the values are identical, so decisions are untouched.
//!
//! ## The cross-slot Eq.-(2)/Theorem-2 score memo
//!
//! A placement score is a pure function of per-run constants (the
//! processor's [`ChainStats`](vg_markov::ChainStats), its speed, `T_prog`,
//! `T_data`, `ncom`) and three integers: the processor's snapshot `delay`,
//! its `n_q`, and the Equation-(2) ceiling factor behind the effective
//! `T_data`. The scheduler therefore keeps a table of
//! [`ChainScoreMemo`] entries, one per *(ceiling factor, processor)* —
//! factor-major, so an Equation-(2) refresh walks one contiguous row — each
//! keyed by `(delay, n_q)`. The initial-row fill and every ceiling-step
//! refresh consult the memo; between slots the platform barely moves (idle
//! workers keep their delay, the placement trajectory replays), so most
//! consults are single-compare hits. A hit replays the exact bits the
//! closed form would produce, so decisions are unchanged; the naive-model
//! proptest below pins that. `begin_run` drops the table (scores embed
//! per-run chain statistics and speeds), and per-placement winner rescores
//! bypass it so refresh entries survive a whole round.
//!
//! The memo is engaged only where re-deriving the closed form is the
//! expensive part: LW's `powf` and UD's `pow_slots` (tens of nanoseconds
//! each). MCT/EMCT scores are two or three flops against the dense
//! [`ScoreKernel`] copies — cheaper than the table lookup itself, measured
//! as a net slot-loop *loss* when cached — so those objectives evaluate
//! directly (`GreedyScheduler::memo_pays`).

use crate::ct::{completion_time, effective_t_data};
use crate::selector::{
    absent_key, packed_key, LoserTree, Selector, SelectorKind, WinnerTree, WINNER_TREE_MIN_UPS,
};
use crate::traits::Scheduler;
use crate::view::{Lane, SchedView, ViewDelta};
use vg_des::SlotSpan;
use vg_markov::{ChainScoreMemo, ScoreKernel};
use vg_platform::ProcessorId;

/// Whether growing `n_active` from `n_active − 1` changed the Equation-(2)
/// factor `⌈max(n_active_incl, 1)/ncom⌉` for either candidate class —
/// enrolled processors see `n_active_incl = n_active`, not-yet-enrolled ones
/// see `n_active + 1` (\[D13\]). When neither ceiling moved, every cached
/// score is unchanged bit-for-bit and the cache refresh can be skipped.
#[inline]
fn ceiling_steps(n_active: usize, ncom: usize) -> bool {
    let f = |x: usize| (x.max(1) as u64).div_ceil(ncom as u64);
    f(n_active) != f(n_active - 1) || f(n_active + 1) != f(n_active)
}

/// Which selection score a [`GreedyScheduler`] optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GreedyObjective {
    /// Minimum completion time (optimal off-line when `ncom = ∞`,
    /// Proposition 2).
    Mct,
    /// Expected minimum completion time: `E(CT)` via Theorem 2.
    Emct,
    /// Likely to Work: maximize `(P₊)^{CT}`.
    Lw,
    /// Unlikely Down: maximize `P_UD(E(CT))`.
    Ud,
}

/// A greedy heuristic instance.
#[derive(Debug, Clone)]
pub struct GreedyScheduler {
    objective: GreedyObjective,
    /// Apply the Equation-(2) contention correction (the `*` variants).
    contention: bool,
    name: &'static str,
    /// Scratch: UP processor indices of the current call.
    ups: Vec<usize>,
    /// Scratch: task count `n_q` per selector slot of the current round —
    /// candidate positions, or processor ids on a lane tree. All zero
    /// between rounds: each round clears exactly the slots it enrolled.
    /// The round's only dense per-candidate state — score inputs are
    /// re-read from the view/kernels at the few slots that are actually
    /// re-scored ([`HotRow`] is built transiently there).
    counts: Vec<u32>,
    /// Scratch: the slots the current round enrolled, in enrollment order.
    enrolled: Vec<u32>,
    /// Scratch: cached score of each UP processor (parallel to `ups`).
    scores: Vec<f64>,
    /// Scratch: the loser-tree selector's tournament storage.
    tree: LoserTree,
    /// One persistent winner tree per [`Lane`] (index [`Lane::index`]).
    lanes: [TreeLane; Lane::COUNT],
    /// Scratch: a lane patch's re-keyed `(processor, key)` batch.
    batch: Vec<(u32, u128)>,
    /// Scratch: the level frontier of a batched tree update.
    frontier: Vec<u32>,
    /// Test hook: pin every selection to one selector implementation,
    /// bypassing the size-threshold policy, so small hand-built views can
    /// exercise any path. `None` follows [`SelectorKind::choose`].
    force_selector: Option<SelectorKind>,
    /// Cross-slot Eq.-(2)/Theorem-2 score memo: one entry per (ceiling
    /// factor, processor), factor-major, keyed by `(delay, n_q)` — see the
    /// module docs. Subsumes the former initial-row cache (its entries are
    /// the factor-1, `n_q = 0` keys) and additionally serves every
    /// Equation-(2) ceiling refresh. Rows are grown on demand per round —
    /// a round placing `count` tasks can only reach factor
    /// `⌈(min(count, |ups|) + 1)/ncom⌉` — so a low-`ncom` run never pays
    /// the worst-case `⌈(p + 1)/ncom⌉ × p` fill up front.
    memo: Vec<ChainScoreMemo>,
    /// Row width (processor count) `memo` was laid out for; a mismatch
    /// without an intervening `begin_run` (hand-driven tests) resets the
    /// table instead of aliasing rows.
    memo_width: usize,
    /// Per-run dense copy of each processor's [`ScoreKernel`]: the four
    /// scalars a score evaluation reads, without dragging the processor's
    /// whole `ChainStats` (a scattered ~140-byte pull) through the cache on
    /// every candidate. Rebuilt on a platform-size change and dropped by
    /// `begin_run`; values are copies of `view.chains[i].kernel()`, so an
    /// evaluation against them is bit-identical to one against the view.
    kernels: Vec<ScoreKernel>,
}

impl GreedyScheduler {
    /// Creates a greedy scheduler. `name` should come from the catalog.
    #[must_use]
    pub fn new(objective: GreedyObjective, contention: bool, name: &'static str) -> Self {
        Self {
            objective,
            contention,
            name,
            ups: Vec::new(),
            counts: Vec::new(),
            enrolled: Vec::new(),
            scores: Vec::new(),
            tree: LoserTree::default(),
            lanes: Default::default(),
            batch: Vec::new(),
            frontier: Vec::new(),
            force_selector: None,
            memo: Vec::new(),
            memo_width: 0,
            kernels: Vec::new(),
        }
    }

    /// Pins every selection to `kind` (`None` restores the size-threshold
    /// policy), so differential tests can exercise any selector on small
    /// hand-built views. The winner tree lives in the view's lane, so
    /// pinning it only reaches rounds whose view carries a [`ViewDelta`];
    /// rounds without one then use the loser tree. Decisions are identical
    /// for every kind; only the access pattern changes.
    #[doc(hidden)]
    pub fn force_selector(&mut self, kind: Option<SelectorKind>) {
        self.force_selector = kind;
    }

    /// Score of assigning one more task to processor `idx`; *smaller is
    /// better* (maximizing objectives are negated). Resolves the
    /// Equation-(2) ceiling from first principles per call — the
    /// specification [`Self::score_with_eff`] is measured against, and the
    /// naive-model oracle's entry point (hot paths track the ceiling
    /// incrementally instead).
    #[cfg_attr(not(test), allow(dead_code))]
    fn score(&self, view: &SchedView<'_>, idx: usize, n_q: usize, n_active: usize) -> f64 {
        // [D13]: the candidate counts itself when newly enrolled.
        let n_active_incl = n_active + usize::from(n_q == 0);
        let eff = effective_t_data(view.t_data, self.contention, n_active_incl, view.ncom);
        self.score_with_eff(view, idx, n_q, eff)
    }

    /// [`Self::score`] with the Equation-(2) effective `T_data` already
    /// resolved — the hot-path entry: `place_into` maintains the ceiling
    /// factors incrementally (see the module docs) and hands `eff` in
    /// ready-made, so a winner re-score performs no division. `eff` must
    /// equal `effective_t_data(view.t_data, self.contention,
    /// n_active_incl, view.ncom)` for the candidate's enrollment state;
    /// callers that don't track it use [`Self::score`].
    fn score_with_eff(&self, view: &SchedView<'_>, idx: usize, n_q: usize, eff: SlotSpan) -> f64 {
        let p = &view.procs[idx];
        // Hot path: the per-run dense kernel copy. Fall back to the view's
        // ChainStats (identical values — the copy's source) when the cache
        // is not warmed, e.g. for probe schedulers driven outside
        // `place_into` in tests.
        let kernel = match self.kernels.get(idx) {
            Some(k) => *k,
            None => view.chain(idx).kernel(),
        };
        let ct = completion_time(p, n_q + 1, eff);
        match self.objective {
            GreedyObjective::Mct => ct as f64,
            GreedyObjective::Emct => kernel.e_w(ct),
            GreedyObjective::Lw => {
                // Maximize (P₊)^CT  ⇔  minimize −(P₊)^CT.
                -(kernel.p_plus.powf(ct as f64))
            }
            GreedyObjective::Ud => {
                // k = E(CT) rounded to whole slots (≥ 1), then the paper's
                // closed-form P_UD approximation.
                let k = kernel.e_w(ct).round().max(1.0) as u64;
                -kernel.p_ud_approx(k)
            }
        }
    }

    /// Whether the cross-slot memo pays for this objective. LW re-derives
    /// a `powf` and UD a `pow_slots` per evaluation — tens of nanoseconds
    /// a hit replays with one compare. MCT/EMCT scores are two or three
    /// flops against the dense kernel, *cheaper than the memo lookup
    /// itself*, so caching them only adds table traffic (measured as a net
    /// slot-loop loss at p = 1024); they evaluate directly.
    #[inline]
    fn memo_pays(&self) -> bool {
        matches!(self.objective, GreedyObjective::Lw | GreedyObjective::Ud)
    }

    /// [`Self::score_with_eff`] through the cross-slot memo (see the
    /// module docs).
    ///
    /// `memo` is the scheduler's factor-major table (taken out of `self`
    /// for the borrow), `factors` its row count — 0 when the memo is off
    /// for this objective ([`Self::memo_pays`]). `price` is the
    /// candidate's Equation-(2) `(ceiling factor, effective T_data)` pair
    /// — maintained incrementally by `place_into` ([`CeilingState`];
    /// `(1, t_data)` for non-contended variants and for every initial-row
    /// fill, where the first placement sees `n_active_incl = 1`). The memo
    /// key `(delay, n_q)` plus the factor-indexed row capture every
    /// varying input of `score` — chain, speed, `T_prog`, `T_data` and
    /// `ncom` are per-run constants and `begin_run` drops the table — so
    /// a hit is bit-identical to a recomputation.
    #[inline]
    fn memo_score(
        &self,
        memo: &mut [ChainScoreMemo],
        factors: usize,
        view: &SchedView<'_>,
        idx: usize,
        row: &HotRow,
        (factor, eff): (usize, SlotSpan),
    ) -> f64 {
        debug_assert_eq!(
            eff,
            view.t_data * factor as u64,
            "effective T_data out of sync with the ceiling factor"
        );
        debug_assert_eq!(row.base - row.w, view.procs[idx].delay);
        if factors == 0 {
            return self.score_checked(view, idx, row, eff);
        }
        debug_assert!(
            (1..=factors).contains(&factor),
            "Equation-(2) factor {factor} outside the memo's {factors} rows"
        );
        if factor > factors {
            // Defensive: never alias another factor's entries.
            return self.score_checked(view, idx, row, eff);
        }
        // The memo key's delay is recovered from the dense row
        // (`base − w`, exact in u64), so a consult touches no view array.
        memo[(factor - 1) * view.p() + idx].get_or_eval(row.base - row.w, row.n_q as u64, || {
            self.score_checked(view, idx, row, eff)
        })
    }

    /// Builds candidate `idx`'s transient scoring row from the view and
    /// the per-run kernel copy. Only called from `place_into`, which
    /// guarantees `kernels` is warmed for the view's width.
    #[inline]
    fn hot_row(&self, view: &SchedView<'_>, idx: usize, n_q: u32) -> HotRow {
        let p = &view.procs[idx];
        HotRow {
            base: p.delay + p.w,
            w: p.w,
            n_q,
            kernel: self.kernels[idx],
        }
    }

    /// [`score_hot`] plus the debug-build bit-equality check against the
    /// view-walking specification ([`Self::score_with_eff`]).
    #[inline]
    fn score_checked(&self, view: &SchedView<'_>, idx: usize, row: &HotRow, eff: SlotSpan) -> f64 {
        let s = score_hot(self.objective, row, eff);
        debug_assert_eq!(
            s.to_bits(),
            self.score_with_eff(view, idx, row.n_q as usize, eff)
                .to_bits(),
            "hot-row score diverged from the view-walking evaluation"
        );
        s
    }
}

/// One winner tree and what the scheduler knows about it (see the module
/// docs on persistent lanes).
#[derive(Debug, Clone, Default)]
struct TreeLane {
    /// Leaves: the base key of every processor of the view.
    tree: WinnerTree,
    /// Candidate (non-absent) leaves.
    cands: usize,
    /// Processors whose leaf the lane's last round moved off its base key.
    touched: Vec<u32>,
    /// Sequence number of the lane's last round, or `None` when the tree
    /// cannot be patched and must be rebuilt from the next view.
    seq: Option<u64>,
}

/// One candidate's **transient** scoring row: every score evaluation reads
/// exactly these fields. Built on the stack at the few positions a round
/// actually re-scores (winner re-scores, ceiling refreshes) — an earlier
/// design materialized one row per candidate per round, which at platform
/// scale wrote 56 bytes × u of dense rows every round just to re-read a
/// handful of them.
#[derive(Debug, Clone, Copy)]
struct HotRow {
    /// `Delay(q) + w_q` — the n_q-independent part of Equation (1)/(2).
    base: SlotSpan,
    /// `w_q`, for the pipelining term's `max(T_data_eff, w_q)`.
    w: SlotSpan,
    /// Tasks assigned to this candidate in the current round.
    n_q: u32,
    /// Copy of the per-run [`ScoreKernel`] (the copy's source is
    /// `view.chains[idx].kernel()`, so evaluating against it is
    /// bit-identical to evaluating through the view).
    kernel: ScoreKernel,
}

/// [`GreedyScheduler::score_with_eff`] against a dense [`HotRow`]: the
/// same Equation-(1)/(2) completion time — `row.n_q` is the candidate's
/// already-assigned count, the evaluated task adds one, so the pipelining
/// term is `n_q · max(eff, w)`; u64 addition is associative, so
/// regrouping `delay + w` into `base` is exact — fed to the same kernel
/// closed forms. Debug builds assert the bits against the view-walking
/// evaluation at every call site.
#[inline]
fn score_hot(objective: GreedyObjective, row: &HotRow, eff: SlotSpan) -> f64 {
    let ct = row.base + eff + row.n_q as u64 * eff.max(row.w);
    match objective {
        GreedyObjective::Mct => ct as f64,
        GreedyObjective::Emct => row.kernel.e_w(ct),
        GreedyObjective::Lw => -(row.kernel.p_plus.powf(ct as f64)),
        GreedyObjective::Ud => {
            let k = row.kernel.e_w(ct).round().max(1.0) as u64;
            -row.kernel.p_ud_approx(k)
        }
    }
}

/// Incrementally maintained Equation-(2) ceiling state of one placement
/// round: the factors an enrolled (`f(n_active)`) and a not-yet-enrolled
/// (`f(n_active + 1)`, \[D13\]) candidate see, the matching effective
/// `T_data` values, and `n_active % ncom` — everything the round needs to
/// (a) price any candidate and (b) detect a ceiling step, with one compare
/// per enrollment and no division. Non-contended variants keep the
/// constant factor-1 state.
struct CeilingState {
    contention: bool,
    ncom: usize,
    t_data: SlotSpan,
    n_active: usize,
    /// `n_active % ncom`, maintained incrementally.
    rem: usize,
    /// `f(n_active) = ⌈max(n_active, 1)/ncom⌉` — the enrolled factor.
    factor_enrolled: usize,
    /// `f(n_active + 1)` — the factor a newly enrolling candidate sees.
    factor_unenrolled: usize,
    /// `t_data · factor_enrolled`.
    eff_enrolled: SlotSpan,
    /// `t_data · factor_unenrolled`.
    eff_unenrolled: SlotSpan,
}

impl CeilingState {
    fn new(contention: bool, t_data: SlotSpan, ncom: usize) -> Self {
        // n_active = 0: both factors are ⌈1/ncom⌉ = 1 (f(0) uses
        // max(n_active, 1), and the first candidate counts itself).
        Self {
            contention,
            ncom,
            t_data,
            n_active: 0,
            rem: 0,
            factor_enrolled: 1,
            factor_unenrolled: 1,
            eff_enrolled: t_data,
            eff_unenrolled: t_data,
        }
    }

    /// Records one enrollment and reports whether either ceiling stepped —
    /// exactly `ceiling_steps(n_active, ncom)` of the refresh condition,
    /// computed by factor compares instead of four divisions.
    fn enroll(&mut self) -> bool {
        self.n_active += 1;
        if !self.contention {
            return false;
        }
        self.rem += 1;
        if self.rem == self.ncom {
            self.rem = 0;
        }
        let old_enrolled = self.factor_enrolled;
        // f(n) for the just-reached n is what an unenrolled candidate saw
        // at n − 1; f(n + 1) grows by one exactly when ncom divides n.
        self.factor_enrolled = self.factor_unenrolled;
        self.factor_unenrolled = self.factor_enrolled + usize::from(self.rem == 0);
        self.eff_enrolled = self.t_data * self.factor_enrolled as u64;
        self.eff_unenrolled = self.t_data * self.factor_unenrolled as u64;
        debug_assert_eq!(self.rem, self.n_active % self.ncom);
        debug_assert_eq!(
            self.factor_enrolled as u64,
            (self.n_active.max(1) as u64).div_ceil(self.ncom as u64),
            "incremental enrolled factor diverged at n_active={}",
            self.n_active
        );
        debug_assert_eq!(
            self.factor_unenrolled as u64,
            ((self.n_active + 1) as u64).div_ceil(self.ncom as u64),
            "incremental unenrolled factor diverged at n_active={}",
            self.n_active
        );
        let stepped =
            self.factor_enrolled != old_enrolled || self.factor_unenrolled != self.factor_enrolled;
        debug_assert_eq!(stepped, ceiling_steps(self.n_active, self.ncom));
        stepped
    }

    /// `(factor, effective T_data)` for a candidate with `n_q` tasks.
    #[inline]
    fn price(&self, n_q: usize) -> (usize, SlotSpan) {
        if n_q == 0 {
            (self.factor_unenrolled, self.eff_unenrolled)
        } else {
            (self.factor_enrolled, self.eff_enrolled)
        }
    }
}

impl Scheduler for GreedyScheduler {
    fn name(&self) -> &str {
        self.name
    }

    fn begin_run(&mut self) {
        // The score memo, the kernel copies and the lane trees are keyed to
        // the run's platform (chains, speeds); a new run invalidates them
        // wholesale.
        self.memo.clear();
        self.kernels.clear();
        for lane in &mut self.lanes {
            lane.seq = None;
        }
    }

    fn place_into(&mut self, view: &SchedView<'_>, count: usize, out: &mut Vec<ProcessorId>) {
        if count == 0 {
            return;
        }
        if self.memo_width != view.p() {
            self.memo.clear();
            self.memo_width = view.p();
        }
        if self.kernels.len() != view.p() {
            self.kernels.clear();
            self.kernels.extend(view.chains.iter().map(|c| c.kernel()));
        }
        // Lanes promise nothing about demand-driven rounds: a delta that
        // rides on a `room` view is dropped, and its lane rebuilds later.
        let delta = match (view.delta, view.room) {
            (Some(d), Some(_)) => {
                self.lanes[d.lane.index()].seq = None;
                None
            }
            (d, None) => d,
            (None, Some(_)) => None,
        };
        let mut memo = std::mem::take(&mut self.memo);
        // Lane patches price at factor 1: make sure that memo row exists
        // before the round's own sizing below.
        self.grow_memo(&mut memo, view, usize::from(self.memo_pays()));
        let synced = delta.is_some_and(|d| self.sync_lane(&mut memo, view, d));
        let mut ups = std::mem::take(&mut self.ups);
        let u = match delta {
            Some(d) if synced => self.lanes[d.lane.index()].cands,
            _ => {
                view.up_indices_into(&mut ups);
                ups.len()
            }
        };
        if u > 0 {
            // One memo row per Equation-(2) ceiling factor reachable *this
            // round*: `n_active` counts enrolled candidates, each placement
            // enrolls at most one, and an unenrolled candidate sees
            // `n_active + 1`, so the factor never exceeds
            // ⌈(min(count, u) + 1)/ncom⌉ (1 for the non-contended
            // variants, whose ceiling never steps; 0 rows when the memo is
            // off for this objective). Rows are factor-major and grow-only,
            // so a later bigger round appends rows without disturbing the
            // existing entries — and a run that never places large bursts
            // never pays the worst-case ⌈(p + 1)/ncom⌉ × p fill.
            let factors = if !self.memo_pays() {
                0
            } else if self.contention {
                ((count.min(u) as u64 + 1).div_ceil(view.ncom as u64)) as usize
            } else {
                1
            };
            self.grow_memo(&mut memo, view, factors);
            // Pick the selection strategy (see `SelectorKind::choose` for
            // the measured crossover policy; any selector can be pinned
            // through the `force_selector` hook). A lane round skips the
            // per-round trade-off: a synced lane tree costs nothing to use,
            // and rebuilding a large lane amortizes over its later rounds.
            // The winner tree needs a lane, so rounds without a delta never
            // get it.
            let kind = match (self.force_selector, delta) {
                (Some(SelectorKind::WinnerTree), None) => SelectorKind::LoserTree,
                (Some(kind), _) => kind,
                (None, Some(_)) if synced || u >= WINNER_TREE_MIN_UPS => SelectorKind::WinnerTree,
                (None, _) => SelectorKind::choose(u, count),
            };
            match (kind, delta) {
                (SelectorKind::WinnerTree, Some(d)) => {
                    let mut lane = std::mem::take(&mut self.lanes[d.lane.index()]);
                    if !synced {
                        self.rebuild_lane(&mut memo, factors, view, &mut lane, &ups);
                        lane.seq = Some(d.seq);
                    }
                    let mut selector = Selector::Winner(std::mem::take(&mut lane.tree));
                    let refreshed =
                        self.place_round(&mut memo, factors, view, None, &mut selector, count, out);
                    if let Selector::Winner(tree) = selector {
                        lane.tree = tree;
                    }
                    lane.touched.clear();
                    if refreshed {
                        // Every candidate leaf moved off its base key:
                        // restoring them one by one would cost more than
                        // the rebuild the next round does instead.
                        lane.seq = None;
                    } else {
                        lane.touched.extend_from_slice(&self.enrolled);
                    }
                    self.lanes[d.lane.index()] = lane;
                }
                _ => {
                    if synced {
                        view.up_indices_into(&mut ups);
                    }
                    // Initial-row fill: every candidate at its base score.
                    let mut scores = std::mem::take(&mut self.scores);
                    scores.clear();
                    for &i in &ups {
                        scores.push(self.base_score(&mut memo, factors, view, i));
                    }
                    let mut selector = if kind == SelectorKind::Linear {
                        Selector::Linear
                    } else {
                        let mut tree = std::mem::take(&mut self.tree);
                        tree.rebuild(&scores);
                        Selector::Loser(tree)
                    };
                    self.scores = scores;
                    self.place_round(
                        &mut memo,
                        factors,
                        view,
                        Some(&ups),
                        &mut selector,
                        count,
                        out,
                    );
                    if let Selector::Loser(tree) = selector {
                        self.tree = tree;
                    }
                }
            }
        }
        self.memo = memo;
        self.ups = ups;
    }
}

impl GreedyScheduler {
    /// Grows the factor-major memo to at least `factors` rows for `view`.
    fn grow_memo(&self, memo: &mut Vec<ChainScoreMemo>, view: &SchedView<'_>, factors: usize) {
        if memo.len() < factors * view.p() {
            memo.resize(factors * view.p(), ChainScoreMemo::EMPTY);
        }
    }

    /// Base score of candidate `i`: its `n_q = 0` score at Equation-(2)
    /// factor 1 — every candidate is unenrolled with `n_active = 0` when a
    /// round starts, so the first placement sees `n_active_incl = 1` and the
    /// whole row shares one effective `T_data`, with no per-candidate
    /// ceiling arithmetic and no dense row materialization (the transient
    /// row lives in registers). A demand-driven round marks a candidate
    /// without room unselectable up front: `+inf` sorts after every finite
    /// score in each selector, and the memo is not consulted for a row that
    /// can never win.
    #[inline]
    fn base_score(
        &self,
        memo: &mut [ChainScoreMemo],
        factors: usize,
        view: &SchedView<'_>,
        i: usize,
    ) -> f64 {
        if view.room.is_some_and(|r| r[i] == 0) {
            f64::INFINITY
        } else {
            let row = self.hot_row(view, i, 0);
            self.memo_score(memo, factors, view, i, &row, (1, view.t_data))
        }
    }

    /// Brings lane `delta.lane` up to `view` by re-keying only the
    /// processors the delta names and the lane's previous winners. Returns
    /// `false` — leaving the lane marked for a rebuild — on a sequence gap
    /// or a platform-size change (see [`ViewDelta`]).
    fn sync_lane(
        &mut self,
        memo: &mut [ChainScoreMemo],
        view: &SchedView<'_>,
        delta: ViewDelta<'_>,
    ) -> bool {
        let idx = delta.lane.index();
        let factors = usize::from(self.memo_pays());
        let mut lane = std::mem::take(&mut self.lanes[idx]);
        let in_sync =
            lane.seq.is_some_and(|s| s.wrapping_add(1) == delta.seq) && lane.tree.len() == view.p();
        if in_sync {
            // The previous winners first, then the delta — each list is
            // duplicate-free, but a processor may sit on both, so each is
            // priced against the tree the other left.
            let touched = std::mem::take(&mut lane.touched);
            self.rekey(memo, factors, view, &mut lane, &touched);
            self.rekey(memo, factors, view, &mut lane, delta.changed);
            lane.touched = touched;
            lane.touched.clear();
            lane.seq = Some(delta.seq);
            #[cfg(debug_assertions)]
            self.check_lane(view, &lane, delta.seq);
        } else {
            lane.seq = None;
        }
        self.lanes[idx] = lane;
        in_sync
    }

    /// Re-keys the duplicate-free processors `list` of `lane` to their base
    /// keys in `view`: prices every leaf first, then folds the batch into
    /// the tree level by level (see [`WinnerTree::update_batch`]).
    fn rekey(
        &mut self,
        memo: &mut [ChainScoreMemo],
        factors: usize,
        view: &SchedView<'_>,
        lane: &mut TreeLane,
        list: &[u32],
    ) {
        let mut batch = std::mem::take(&mut self.batch);
        batch.clear();
        for &q in list {
            let i = q as usize;
            let key = if view.is_candidate(i) {
                packed_key(self.base_score(memo, factors, view, i), q)
            } else {
                absent_key(q)
            };
            batch.push((q, key));
        }
        let present = lane.tree.update_batch(&batch, &mut self.frontier);
        lane.cands = lane.cands.saturating_add_signed(present);
        self.batch = batch;
    }

    /// Debug oracle of the lane patch, in the style of the engine's
    /// snapshot oracle: re-derives leaves from the view and compares them
    /// with the patched tree — every leaf on small platforms, a window
    /// rotating with the sequence number on large ones (so every leaf is
    /// revisited eventually without making large-`p` debug runs O(p) per
    /// round). Scores are recomputed without the memo, whose hits are
    /// bit-identical to recomputation.
    #[cfg(debug_assertions)]
    fn check_lane(&self, view: &SchedView<'_>, lane: &TreeLane, seq: u64) {
        const EXHAUSTIVE_MAX_P: usize = 4096;
        const WINDOW: usize = 64;
        let p = view.p();
        let exhaustive = p <= EXHAUSTIVE_MAX_P;
        let base = (seq as usize).wrapping_mul(WINDOW) % p.max(1);
        let mut cands = 0usize;
        for j in 0..p {
            if !exhaustive && (j + p - base) % p >= WINDOW {
                continue;
            }
            let expect = if view.is_candidate(j) {
                let row = self.hot_row(view, j, 0);
                packed_key(score_hot(self.objective, &row, view.t_data), j as u32)
            } else {
                absent_key(j as u32)
            };
            cands += usize::from(!crate::selector::is_absent(expect));
            debug_assert_eq!(
                lane.tree.leaf(j),
                expect,
                "lane tree leaf {j} diverged from a fresh base key at seq {seq}"
            );
        }
        if exhaustive {
            debug_assert_eq!(lane.cands, cands, "lane candidate count drifted");
        }
    }

    /// Rebuilds `lane`'s tree from the full view: absent keys everywhere,
    /// base keys at the round's candidates `ups`.
    fn rebuild_lane(
        &self,
        memo: &mut [ChainScoreMemo],
        factors: usize,
        view: &SchedView<'_>,
        lane: &mut TreeLane,
        ups: &[usize],
    ) {
        lane.tree.reset_absent(view.p());
        for &i in ups {
            // i < u32::MAX: views index processors by u32 ids.
            let key = packed_key(self.base_score(memo, factors, view, i), i as u32);
            lane.tree.set_leaf(i, key);
        }
        lane.tree.fix_up();
        lane.cands = ups.len();
        lane.touched.clear();
    }

    /// The greedy placement loop, shared by every selector. `selector`
    /// holds each candidate's base score on entry (in `self.scores` for the
    /// list selectors); `map` turns a selector slot into a processor index
    /// — the round's candidate list for the list selectors, `None` for the
    /// winner tree, whose slots are processor ids. Records the enrolled
    /// slots in `self.enrolled` and returns whether an Equation-(2) refresh
    /// re-priced every candidate.
    #[allow(clippy::too_many_arguments)] // private round body shared by place_into
    fn place_round(
        &mut self,
        memo: &mut [ChainScoreMemo],
        factors: usize,
        view: &SchedView<'_>,
        map: Option<&[usize]>,
        selector: &mut Selector,
        count: usize,
        out: &mut Vec<ProcessorId>,
    ) -> bool {
        let proc_of = |j: usize| map.map_or(j, |m| m[j]);
        let mut counts = std::mem::take(&mut self.counts);
        let mut scores = std::mem::take(&mut self.scores);
        let mut enrolled = std::mem::take(&mut self.enrolled);
        enrolled.clear();
        let slots = selector.slots(&scores);
        if counts.len() < slots {
            counts.resize(slots, 0);
        }
        let room = view.room;
        let mut ceiling = CeilingState::new(self.contention, view.t_data, view.ncom);
        let mut refreshed = false;
        for _ in 0..count {
            // Slots follow processor-id order, so every selector's
            // `(score, slot)` key order reproduces the linear scan's
            // strict-`<` lowest-id tie-break.
            let j = selector.select(&scores);
            let best = proc_of(j);
            let newly_enrolled = counts[j] == 0;
            counts[j] += 1;
            if newly_enrolled {
                // j < slots ≤ u32::MAX.
                enrolled.push(j as u32);
            }
            out.push(view.procs[best].id);
            if newly_enrolled && ceiling.enroll() {
                // Equation (2): the new enrollee bumped a ⌈n_active/ncom⌉
                // ceiling, inflating effective T_data — a round-batched
                // refresh re-prices every candidate in one dense pass,
                // through the cross-slot memo (most candidates' (delay,
                // n_q) keys repeat slot over slot, so the refresh is
                // mostly single-compare hits), then rebuilds the selector
                // bottom-up so each entry is touched exactly once.
                for (k, &n_q) in counts[..slots].iter().enumerate() {
                    if !selector.holds(k) {
                        continue;
                    }
                    let i = proc_of(k);
                    // A room-exhausted candidate must stay unselectable
                    // through the dense re-price (the winner included —
                    // this pick may just have spent its last copy).
                    let s = if spent(room, i, n_q) {
                        f64::INFINITY
                    } else {
                        let (factor, eff) = ceiling.price(n_q as usize);
                        let row = self.hot_row(view, i, n_q);
                        self.memo_score(memo, factors, view, i, &row, (factor, eff))
                    };
                    selector.stage(k, s, &mut scores);
                }
                selector.refresh(&scores);
                refreshed = true;
            } else {
                // A winner that spent its last bindable copy retires from
                // the round instead of being re-priced. Otherwise winner
                // rescores bypass the memo: overwriting the winner's entry
                // with a transient n_q would evict the refresh-keyed value
                // the next slot's replay wants. The winner is enrolled by
                // construction, so it prices at the enrolled factor —
                // division-free, against its transient row.
                let s = if spent(room, best, counts[j]) {
                    f64::INFINITY
                } else {
                    let row = self.hot_row(view, best, counts[j]);
                    self.score_checked(view, best, &row, ceiling.eff_enrolled)
                };
                selector.rescore_winner(j, s, &mut scores);
            }
        }
        for &j in &enrolled {
            counts[j as usize] = 0;
        }
        self.counts = counts;
        self.scores = scores;
        self.enrolled = enrolled;
        refreshed
    }
}

/// Whether candidate `i` has spent its bind room after `n_q` placements
/// this round (never, on a round without room).
#[inline]
fn spent(room: Option<&[u8]>, i: usize, n_q: u32) -> bool {
    room.is_some_and(|r| n_q >= u32::from(r[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::SchedViewBuilder;
    use vg_markov::availability::AvailabilityChain;
    use vg_markov::ProcState;

    fn reliable() -> AvailabilityChain {
        // Rarely leaves UP, recovers fast.
        AvailabilityChain::new([[0.99, 0.005, 0.005], [0.50, 0.45, 0.05], [0.10, 0.10, 0.80]])
            .unwrap()
    }

    fn flaky() -> AvailabilityChain {
        // Often reclaimed, often down.
        AvailabilityChain::new([[0.55, 0.30, 0.15], [0.20, 0.60, 0.20], [0.05, 0.05, 0.90]])
            .unwrap()
    }

    #[test]
    fn mct_picks_smallest_completion_time() {
        // Proc 0: w=5, delay=0 -> CT = 0+1+5 = 6
        // Proc 1: w=2, delay=10 -> CT = 10+1+2 = 13
        let view = SchedViewBuilder::new(5, 1, 2)
            .proc(ProcState::Up, 5, true, 0, reliable())
            .proc(ProcState::Up, 2, true, 10, reliable())
            .build();
        let mut s = GreedyScheduler::new(GreedyObjective::Mct, false, "MCT");
        assert_eq!(s.place(&view.view(), 1), vec![ProcessorId(0)]);
    }

    #[test]
    fn mct_spreads_load_via_nq() {
        // Two identical processors: second task must go to the other one
        // because n_q pipelining raises the first's CT.
        let view = SchedViewBuilder::new(5, 1, 2)
            .proc(ProcState::Up, 3, true, 0, reliable())
            .proc(ProcState::Up, 3, true, 0, reliable())
            .build();
        let mut s = GreedyScheduler::new(GreedyObjective::Mct, false, "MCT");
        let picks = s.place(&view.view(), 2);
        assert_eq!(picks, vec![ProcessorId(0), ProcessorId(1)]);
    }

    #[test]
    fn mct_queues_on_fast_processor_when_worth_it() {
        // Fast proc w=1 vs slow w=10: even the 4th task on the fast one
        // beats the first on the slow one (CT 1+1+3·1+... vs 1+10).
        let view = SchedViewBuilder::new(5, 1, 2)
            .proc(ProcState::Up, 1, true, 0, reliable())
            .proc(ProcState::Up, 10, true, 0, reliable())
            .build();
        let mut s = GreedyScheduler::new(GreedyObjective::Mct, false, "MCT");
        let picks = s.place(&view.view(), 4);
        assert_eq!(
            picks,
            vec![ProcessorId(0); 4],
            "all four tasks pipeline on the fast processor"
        );
    }

    #[test]
    fn emct_prefers_reliability_for_long_tasks() {
        // Same speed & delay; EMCT must weigh the RECLAIMED risk and pick
        // the reliable processor, while MCT is indifferent (ties to id 0).
        let view = SchedViewBuilder::new(5, 1, 2)
            .proc(ProcState::Up, 20, true, 0, flaky())
            .proc(ProcState::Up, 20, true, 0, reliable())
            .build();
        let mut emct = GreedyScheduler::new(GreedyObjective::Emct, false, "EMCT");
        assert_eq!(emct.place(&view.view(), 1), vec![ProcessorId(1)]);
        let mut mct = GreedyScheduler::new(GreedyObjective::Mct, false, "MCT");
        assert_eq!(
            mct.place(&view.view(), 1),
            vec![ProcessorId(0)],
            "tie → lowest id"
        );
    }

    #[test]
    fn emct_trades_speed_for_reliability_when_tasks_are_long() {
        // Flaky-but-fast (w=18) vs reliable-but-slower (w=20): for E(W) the
        // reclaimed expansion of the flaky chain dominates its raw speed.
        let view = SchedViewBuilder::new(5, 1, 2)
            .proc(ProcState::Up, 18, true, 0, flaky())
            .proc(ProcState::Up, 20, true, 0, reliable())
            .build();
        let flaky_ew = view.view().chain(0).e_w(19);
        let reliable_ew = view.view().chain(1).e_w(21);
        assert!(
            reliable_ew < flaky_ew,
            "premise: {reliable_ew} vs {flaky_ew}"
        );
        let mut emct = GreedyScheduler::new(GreedyObjective::Emct, false, "EMCT");
        assert_eq!(emct.place(&view.view(), 1), vec![ProcessorId(1)]);
        // MCT, blind to volatility, grabs the faster one.
        let mut mct = GreedyScheduler::new(GreedyObjective::Mct, false, "MCT");
        assert_eq!(mct.place(&view.view(), 1), vec![ProcessorId(0)]);
    }

    #[test]
    fn lw_maximizes_survival() {
        // LW picks the processor with the highest (P₊)^CT — here the
        // reliable one despite a longer CT.
        let view = SchedViewBuilder::new(5, 1, 2)
            .proc(ProcState::Up, 2, true, 0, flaky())
            .proc(ProcState::Up, 4, true, 0, reliable())
            .build();
        let p0 = view.view().chain(0).p_plus().powf(3.0);
        let p1 = view.view().chain(1).p_plus().powf(5.0);
        assert!(p1 > p0, "premise: {p1} vs {p0}");
        let mut lw = GreedyScheduler::new(GreedyObjective::Lw, false, "LW");
        assert_eq!(lw.place(&view.view(), 1), vec![ProcessorId(1)]);
    }

    #[test]
    fn ud_maximizes_not_down_probability() {
        let view = SchedViewBuilder::new(5, 1, 2)
            .proc(ProcState::Up, 2, true, 0, flaky())
            .proc(ProcState::Up, 4, true, 0, reliable())
            .build();
        let mut ud = GreedyScheduler::new(GreedyObjective::Ud, false, "UD");
        assert_eq!(ud.place(&view.view(), 1), vec![ProcessorId(1)]);
    }

    #[test]
    fn star_variant_penalizes_enrolling_everyone() {
        // 4 identical processors, ncom = 1, large T_data: MCT* should
        // saturate fewer processors than MCT because each newly enrolled
        // processor inflates the effective T_data.
        let mk = |star| {
            let view = SchedViewBuilder::new(5, 6, 1)
                .proc(ProcState::Up, 2, true, 0, reliable())
                .proc(ProcState::Up, 2, true, 0, reliable())
                .proc(ProcState::Up, 2, true, 0, reliable())
                .proc(ProcState::Up, 2, true, 0, reliable())
                .build();
            let mut s = GreedyScheduler::new(GreedyObjective::Mct, star, "MCTx");
            let picks = s.place(&view.view(), 4);
            let mut used: Vec<_> = picks.iter().map(|p| p.idx()).collect();
            used.sort_unstable();
            used.dedup();
            used.len()
        };
        let plain = mk(false);
        let starred = mk(true);
        assert_eq!(plain, 4, "MCT spreads to all");
        assert!(starred < plain, "MCT* enrolled {starred} (MCT {plain})");
    }

    #[test]
    fn star_equals_plain_when_uncontended() {
        // With ncom ≥ enrolled processors the correction factor is 1 and
        // MCT* must equal MCT decisions.
        let build = || {
            SchedViewBuilder::new(5, 2, 8)
                .proc(ProcState::Up, 3, true, 0, reliable())
                .proc(ProcState::Up, 5, true, 2, flaky())
                .proc(ProcState::Up, 2, false, 7, reliable())
                .build()
        };
        let mut plain = GreedyScheduler::new(GreedyObjective::Mct, false, "MCT");
        let mut star = GreedyScheduler::new(GreedyObjective::Mct, true, "MCT*");
        assert_eq!(
            plain.place(&build().view(), 5),
            star.place(&build().view(), 5)
        );
    }

    #[test]
    fn returns_empty_without_up_processors() {
        let view = SchedViewBuilder::new(5, 1, 2)
            .proc(ProcState::Reclaimed, 1, true, 0, reliable())
            .proc(ProcState::Down, 1, true, 0, reliable())
            .build();
        for obj in [
            GreedyObjective::Mct,
            GreedyObjective::Emct,
            GreedyObjective::Lw,
            GreedyObjective::Ud,
        ] {
            let mut s = GreedyScheduler::new(obj, false, "x");
            assert!(s.place(&view.view(), 2).is_empty(), "{obj:?}");
        }
    }

    #[test]
    fn delay_shifts_choice() {
        // Identical processors except delay: must pick the idle one.
        let view = SchedViewBuilder::new(5, 1, 2)
            .proc(ProcState::Up, 3, true, 9, reliable())
            .proc(ProcState::Up, 3, true, 0, reliable())
            .build();
        for obj in [GreedyObjective::Mct, GreedyObjective::Emct] {
            let mut s = GreedyScheduler::new(obj, false, "x");
            assert_eq!(s.place(&view.view(), 1), vec![ProcessorId(1)], "{obj:?}");
        }
    }

    #[test]
    fn missing_program_is_reflected_through_delay() {
        // The simulator folds T_prog into delay; a processor lacking the
        // program carries delay = T_prog and loses the tie.
        let view = SchedViewBuilder::new(6, 1, 2)
            .proc(ProcState::Up, 3, false, 6, reliable())
            .proc(ProcState::Up, 3, true, 0, reliable())
            .build();
        let mut s = GreedyScheduler::new(GreedyObjective::Mct, false, "MCT");
        assert_eq!(s.place(&view.view(), 1), vec![ProcessorId(1)]);
    }

    #[test]
    fn place_into_reuses_buffers_and_matches_place() {
        // The scratch-based entry point must agree with the shim and, once
        // warm, leave the output buffer's allocation untouched.
        let owned = SchedViewBuilder::new(5, 3, 2)
            .proc(ProcState::Up, 3, true, 0, reliable())
            .proc(ProcState::Up, 2, true, 1, flaky())
            .proc(ProcState::Up, 7, true, 0, reliable())
            .build();
        for (obj, star) in [
            (GreedyObjective::Mct, false),
            (GreedyObjective::Mct, true),
            (GreedyObjective::Emct, true),
            (GreedyObjective::Ud, false),
        ] {
            let mut a = GreedyScheduler::new(obj, star, "a");
            let mut b = GreedyScheduler::new(obj, star, "b");
            let expected = a.place(&owned.view(), 6);
            let mut out = Vec::with_capacity(6);
            b.place_into(&owned.view(), 6, &mut out);
            assert_eq!(out, expected, "{obj:?} star={star}");
            let ptr = out.as_ptr();
            out.clear();
            b.place_into(&owned.view(), 6, &mut out);
            assert_eq!(out, expected);
            assert_eq!(ptr, out.as_ptr(), "output buffer must be reused");
        }
    }

    #[test]
    fn begin_run_drops_stale_platform_caches() {
        // One scheduler instance reused across two equally sized but
        // different platforms must match a fresh instance on the second,
        // provided the engine's begin_run contract is honored.
        let view_a = SchedViewBuilder::new(5, 3, 2)
            .proc(ProcState::Up, 2, true, 0, reliable())
            .proc(ProcState::Up, 9, true, 0, reliable())
            .build();
        let view_b = SchedViewBuilder::new(5, 3, 2)
            .proc(ProcState::Up, 9, true, 0, flaky())
            .proc(ProcState::Up, 2, true, 0, reliable())
            .build();
        for (obj, star) in [(GreedyObjective::Emct, false), (GreedyObjective::Ud, true)] {
            let mut reused = GreedyScheduler::new(obj, star, "reused");
            let _ = reused.place(&view_a.view(), 3);
            reused.begin_run();
            let mut fresh = GreedyScheduler::new(obj, star, "fresh");
            assert_eq!(
                reused.place(&view_b.view(), 3),
                fresh.place(&view_b.view(), 3),
                "{obj:?} star={star}"
            );
        }
    }

    /// All eight greedy configurations, for exhaustive differential tests.
    const FAMILIES: [(GreedyObjective, bool); 8] = [
        (GreedyObjective::Mct, false),
        (GreedyObjective::Mct, true),
        (GreedyObjective::Emct, false),
        (GreedyObjective::Emct, true),
        (GreedyObjective::Lw, false),
        (GreedyObjective::Lw, true),
        (GreedyObjective::Ud, false),
        (GreedyObjective::Ud, true),
    ];

    /// `view` announced as pool-lane round `seq`, naming `changed` — how
    /// tests reach the winner tree, which only serves rounds with a delta.
    fn pool_round<'a>(view: SchedView<'a>, seq: u64, changed: &'a [u32]) -> SchedView<'a> {
        SchedView {
            delta: Some(ViewDelta {
                lane: Lane::Pool,
                seq,
                changed,
            }),
            ..view
        }
    }

    mod argmin_property {
        use super::super::*;
        use super::{pool_round, FAMILIES};
        use crate::view::SchedViewBuilder;
        use proptest::prelude::*;
        use vg_markov::availability::AvailabilityChain;
        use vg_markov::ProcState;

        fn chain(idx: u32) -> AvailabilityChain {
            let rows = match idx % 3 {
                0 => [[0.99, 0.005, 0.005], [0.50, 0.45, 0.05], [0.10, 0.10, 0.80]],
                1 => [[0.55, 0.30, 0.15], [0.20, 0.60, 0.20], [0.05, 0.05, 0.90]],
                _ => [[0.90, 0.05, 0.05], [0.40, 0.50, 0.10], [0.20, 0.20, 0.60]],
            };
            AvailabilityChain::new(rows).unwrap()
        }

        fn state(idx: u32) -> ProcState {
            match idx {
                0 | 1 => ProcState::Up, // bias toward schedulable platforms
                2 => ProcState::Reclaimed,
                _ => ProcState::Down,
            }
        }

        /// The specification: recompute every candidate's score from
        /// scratch before each placement and take the strict-`<` linear
        /// argmin — no caches, no trees. Mirrors the pre-optimization
        /// algorithm exactly, including the lowest-id tie-break and the
        /// Equation-(2) `n_active` coupling.
        fn naive_placements(
            probe: &GreedyScheduler,
            view: &SchedView<'_>,
            count: usize,
        ) -> Vec<ProcessorId> {
            let mut ups = Vec::new();
            view.up_indices_into(&mut ups);
            if ups.is_empty() {
                return Vec::new();
            }
            let mut out = Vec::new();
            let mut n_q = vec![0usize; view.p()];
            let mut n_active = 0usize;
            for _ in 0..count {
                let mut best_idx = ups[0];
                let mut best_score = f64::INFINITY;
                for &i in &ups {
                    let s = probe.score(view, i, n_q[i], n_active);
                    if s < best_score {
                        best_score = s;
                        best_idx = i;
                    }
                }
                if n_q[best_idx] == 0 {
                    n_active += 1;
                }
                n_q[best_idx] += 1;
                out.push(view.procs[best_idx].id);
            }
            out
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Random score-mutation/placement sequences: per round the
            /// processors' delays and states mutate and a random batch is
            /// placed. *Persistent* schedulers pinned to each selector —
            /// the linear rescan, the loser tree and the winner tree, all
            /// with their caches warm across rounds — must reproduce the
            /// stateless naive model's winners — and tie-break order — for
            /// every greedy family, including the `*` variants whose
            /// Equation-(2) coupling invalidates neighbors mid-round. The
            /// winner-tree scheduler sees each round as the next pool-lane
            /// round naming every processor.
            #[test]
            fn all_selectors_match_naive_model(
                ncom in 1usize..5,
                t_prog in 0u64..8,
                t_data in 0u64..5,
                procs in collection::vec((1u64..12, 0u32..3, 0u32..2), 2..14),
                rounds in collection::vec(
                    (
                        1usize..20,
                        collection::vec(0u64..15, 14),
                        collection::vec(0u32..4, 14),
                    ),
                    1..6,
                ),
            ) {
                for (obj, star) in FAMILIES {
                    let mut pinned: Vec<(GreedyScheduler, &str)> = vec![
                        (GreedyScheduler::new(obj, star, "loser"), "loser tree"),
                        (GreedyScheduler::new(obj, star, "linear"), "linear"),
                        (GreedyScheduler::new(obj, star, "winner"), "winner tree"),
                    ];
                    pinned[0].0.force_selector(Some(SelectorKind::LoserTree));
                    pinned[1].0.force_selector(Some(SelectorKind::Linear));
                    pinned[2].0.force_selector(Some(SelectorKind::WinnerTree));
                    for (s, _) in &mut pinned {
                        s.begin_run();
                    }
                    let all: Vec<u32> = (0..procs.len() as u32).collect();
                    for (seq, (count, delays, states)) in rounds.iter().enumerate() {
                        let mut b = SchedViewBuilder::new(t_prog, t_data, ncom);
                        for (i, &(w, chain_idx, prog)) in procs.iter().enumerate() {
                            b = b.proc(
                                state(states[i]),
                                w,
                                prog == 1,
                                delays[i],
                                chain(chain_idx),
                            );
                        }
                        let owned = b.build();
                        let view = owned.view();
                        let probe = GreedyScheduler::new(obj, star, "probe");
                        let expected = naive_placements(&probe, &view, *count);
                        for (s, label) in &mut pinned {
                            let view = if *label == "winner tree" {
                                pool_round(view, seq as u64, &all)
                            } else {
                                view
                            };
                            prop_assert_eq!(
                                s.place(&view, *count),
                                expected.clone(),
                                "{} vs naive: {:?} star={} count={}",
                                label,
                                obj,
                                star,
                                count
                            );
                        }
                    }
                }
            }
        }
    }

    /// The persistent-lane differential: one scheduler, pinned to the
    /// winner tree on small platforms, is fed random view sequences with
    /// deltas and must place exactly like a fresh scheduler handed the same
    /// view without one.
    mod lane_property {
        use super::super::*;
        use super::FAMILIES;
        use crate::view::{Lane, SchedViewBuilder, ViewDelta};
        use proptest::prelude::*;
        use vg_markov::availability::AvailabilityChain;
        use vg_markov::ProcState;

        fn chain(idx: u32) -> AvailabilityChain {
            let rows = match idx % 3 {
                0 => [[0.99, 0.005, 0.005], [0.50, 0.45, 0.05], [0.10, 0.10, 0.80]],
                1 => [[0.55, 0.30, 0.15], [0.20, 0.60, 0.20], [0.05, 0.05, 0.90]],
                _ => [[0.90, 0.05, 0.05], [0.40, 0.50, 0.10], [0.20, 0.20, 0.60]],
            };
            AvailabilityChain::new(rows).unwrap()
        }

        /// What the engine side of the test knows about one lane: its
        /// sequence number and the processors changed since its last round.
        #[derive(Default)]
        struct LaneFeed {
            seq: u64,
            changed: Vec<bool>,
        }

        impl LaneFeed {
            fn list(&self) -> Vec<u32> {
                (0..self.changed.len() as u32)
                    .filter(|&q| self.changed[q as usize])
                    .collect()
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Each step mutates the platform — state flips, delay drift,
            /// candidate-set toggles — then runs a pool or replica round.
            /// The control draw picks how the round is announced: a proper
            /// delta (sometimes padded with unchanged processors), a
            /// sequence gap that lost the changes, a stale repeated
            /// sequence number, no delta at all, or a `begin_run` the lane
            /// never hears about. Every family must match the fresh
            /// scheduler placement for placement.
            #[test]
            fn persistent_lanes_match_a_fresh_scheduler(
                ncom in 1usize..5,
                t_data in 0u64..5,
                procs in collection::vec((1u64..12, 0u32..3, 0u64..15), 1..24),
                steps in collection::vec(
                    (
                        0u32..2,
                        1usize..30,
                        collection::vec((0usize..64, 0u32..4, 0u64..15), 0..10),
                        0u32..16,
                    ),
                    1..14,
                ),
            ) {
                let p = procs.len();
                for (obj, star) in FAMILIES {
                    let mut state: Vec<ProcState> = vec![ProcState::Up; p];
                    let mut delay: Vec<u64> = procs.iter().map(|&(_, _, d)| d).collect();
                    let mut free: Vec<bool> = (0..p).map(|q| q % 3 != 0).collect();
                    let mut feeds: [LaneFeed; Lane::COUNT] = Default::default();
                    for f in &mut feeds {
                        f.changed = vec![true; p];
                    }
                    let mut lanes = GreedyScheduler::new(obj, star, "lanes");
                    lanes.force_selector(Some(SelectorKind::WinnerTree));
                    lanes.begin_run();
                    for (lane_draw, count, mutations, control) in &steps {
                        for &(sel, kind, d) in mutations {
                            let q = sel % p;
                            match kind {
                                0 => {
                                    state[q] = match state[q] {
                                        ProcState::Up => ProcState::Reclaimed,
                                        ProcState::Reclaimed => ProcState::Down,
                                        ProcState::Down => ProcState::Up,
                                    }
                                }
                                1 => delay[q] = d,
                                2 => free[q] = !free[q],
                                _ => {
                                    state[q] = ProcState::Up;
                                    delay[q] = d;
                                }
                            }
                            for f in &mut feeds {
                                f.changed[q] = true;
                            }
                        }
                        let lane = if *lane_draw == 0 { Lane::Pool } else { Lane::Replica };
                        let mut b = SchedViewBuilder::new(3, t_data, ncom);
                        for (q, &(w, c, _)) in procs.iter().enumerate() {
                            b = b.proc(state[q], w, true, delay[q], chain(c));
                        }
                        if lane == Lane::Replica {
                            b = b.candidates(free.clone());
                        }
                        let owned = b.build();
                        let feed = &mut feeds[lane.index()];
                        let mut changed = feed.list();
                        let seq = match control {
                            // A lost delta: the sequence skips one.
                            0 => {
                                changed.clear();
                                feed.seq + 2
                            }
                            // A stale delta: the last sequence number again.
                            1 => {
                                changed.clear();
                                feed.seq
                            }
                            // Padding: an unchanged processor may be listed.
                            2 => {
                                let q = (feed.seq as usize) % p;
                                if !changed.contains(&(q as u32)) {
                                    changed.push(q as u32);
                                }
                                feed.seq + 1
                            }
                            _ => feed.seq + 1,
                        };
                        if *control == 3 {
                            lanes.begin_run();
                        }
                        // A delta-less round leaves the lane's feed to
                        // accumulate, as the engine's demand-driven rounds
                        // do; every other round consumes it.
                        let delta = (*control != 4).then(|| {
                            feed.seq = seq;
                            feed.changed.iter_mut().for_each(|c| *c = false);
                            ViewDelta {
                                lane,
                                seq,
                                changed: &changed,
                            }
                        });
                        let view = SchedView { delta, ..owned.view() };
                        let got = lanes.place(&view, *count);
                        let mut fresh = GreedyScheduler::new(obj, star, "fresh");
                        fresh.force_selector(Some(SelectorKind::Linear));
                        let expected = fresh.place(&owned.view(), *count);
                        prop_assert_eq!(
                            got,
                            expected,
                            "{:?} star={} lane={:?} seq={} control={}",
                            obj,
                            star,
                            lane,
                            seq,
                            control
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn forced_selectors_match_hybrid_on_unit_views() {
        // Deterministic spot-check below the proptest: every forced
        // selector must reproduce the policy-driven path on the existing
        // hand-built scenarios.
        let owned = SchedViewBuilder::new(5, 3, 2)
            .proc(ProcState::Up, 2, true, 0, reliable())
            .proc(ProcState::Up, 2, true, 0, reliable())
            .proc(ProcState::Up, 5, false, 4, flaky())
            .proc(ProcState::Up, 1, true, 2, reliable())
            .build();
        for (obj, star) in FAMILIES {
            let mut plain = GreedyScheduler::new(obj, star, "plain");
            let expected = plain.place(&owned.view(), 10);
            for kind in [
                SelectorKind::Linear,
                SelectorKind::LoserTree,
                SelectorKind::WinnerTree,
            ] {
                let mut forced = GreedyScheduler::new(obj, star, "forced");
                forced.force_selector(Some(kind));
                assert_eq!(
                    forced.place(&pool_round(owned.view(), 0, &[]), 10),
                    expected,
                    "{obj:?} star={star} {kind:?}"
                );
            }
        }
    }

    #[test]
    fn policy_crossovers_leave_decisions_unchanged() {
        // Explicit boundary coverage at the linear / loser-tree crossover:
        // p = 300 UP processors place counts straddling
        // `count · u = LINEAR_MAX_WORK` (300 · 13 = 3900 < 4096 ≤ 300 ·
        // 14) and the `count ≥ 4` floor, so consecutive counts flip the
        // policy's selector choice. Decisions must not move — each count
        // is checked against a forced-linear scheduler — and the policy
        // must agree with the forced loser tree on the far side.
        use crate::selector::{LINEAR_MAX_WORK, STRUCTURED_MIN_COUNT};
        let u = 300usize;
        let mut b = SchedViewBuilder::new(5, 3, 4);
        for i in 0..u {
            let chain = if i % 2 == 0 { reliable() } else { flaky() };
            b = b.proc(
                ProcState::Up,
                1 + (i as u64 % 7),
                i % 3 != 0,
                (i as u64) % 5,
                chain,
            );
        }
        let owned = b.build();
        let boundary = LINEAR_MAX_WORK / u; // 13: count 13 → linear, 14 → tree
        assert!(boundary * u < LINEAR_MAX_WORK && (boundary + 1) * u >= LINEAR_MAX_WORK);
        for (obj, star) in FAMILIES {
            for count in [
                STRUCTURED_MIN_COUNT - 1, // below the round-length floor
                STRUCTURED_MIN_COUNT,     // at the floor, still linear by work
                boundary,                 // last linear round
                boundary + 1,             // first loser-tree round
                2 * boundary,             // comfortably structured
            ] {
                let mut policy = GreedyScheduler::new(obj, star, "policy");
                let mut linear = GreedyScheduler::new(obj, star, "linear");
                linear.force_selector(Some(SelectorKind::Linear));
                let mut loser = GreedyScheduler::new(obj, star, "loser");
                loser.force_selector(Some(SelectorKind::LoserTree));
                let mut winner = GreedyScheduler::new(obj, star, "winner");
                winner.force_selector(Some(SelectorKind::WinnerTree));
                let expected = linear.place(&owned.view(), count);
                assert_eq!(
                    policy.place(&owned.view(), count),
                    expected,
                    "{obj:?} star={star} count={count}"
                );
                assert_eq!(
                    loser.place(&owned.view(), count),
                    expected,
                    "{obj:?} star={star} count={count} (forced loser tree)"
                );
                assert_eq!(
                    winner.place(&pool_round(owned.view(), 0, &[]), count),
                    expected,
                    "{obj:?} star={star} count={count} (forced winner tree)"
                );
            }
        }
    }

    #[test]
    fn score_cache_matches_naive_rescan() {
        // Replay the pre-cache algorithm and compare decision-for-decision
        // on a view engineered to exercise ties, enrollment and pipelining.
        let owned = SchedViewBuilder::new(4, 3, 2)
            .proc(ProcState::Up, 2, true, 0, reliable())
            .proc(ProcState::Up, 2, true, 0, reliable())
            .proc(ProcState::Up, 5, false, 4, flaky())
            .proc(ProcState::Up, 1, true, 2, reliable())
            .build();
        let view = owned.view();
        for (obj, star) in [
            (GreedyObjective::Mct, false),
            (GreedyObjective::Mct, true),
            (GreedyObjective::Emct, false),
            (GreedyObjective::Emct, true),
            (GreedyObjective::Lw, true),
            (GreedyObjective::Ud, true),
        ] {
            let probe = GreedyScheduler::new(obj, star, "probe");
            let mut naive = Vec::new();
            let mut n_q = vec![0usize; view.p()];
            let mut n_active = 0usize;
            let mut ups = Vec::new();
            view.up_indices_into(&mut ups);
            for _ in 0..10 {
                let mut best_idx = ups[0];
                let mut best_score = f64::INFINITY;
                for &i in &ups {
                    let s = probe.score(&view, i, n_q[i], n_active);
                    if s < best_score {
                        best_score = s;
                        best_idx = i;
                    }
                }
                if n_q[best_idx] == 0 {
                    n_active += 1;
                }
                n_q[best_idx] += 1;
                naive.push(view.procs[best_idx].id);
            }
            let mut cached = GreedyScheduler::new(obj, star, "cached");
            assert_eq!(cached.place(&view, 10), naive, "{obj:?} star={star}");
        }
    }
}
