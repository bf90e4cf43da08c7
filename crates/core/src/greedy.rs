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
//! Equation-(2) ceiling step — and its per-shard variant at very large `u`.
//! All produce bit-identical winner sequences (the proptest below drives
//! every family through every selector against the cache-free naive
//! model); see the selector module docs for the key order, the staleness
//! contract and the measured crossovers.
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
use crate::selector::{LoserTree, Selector, SelectorKind, ShardedTree};
use crate::traits::Scheduler;
use crate::view::SchedView;
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
    /// Scratch: per-candidate task count `n_q` of the current round
    /// (parallel to `ups`). The round's only dense per-candidate state —
    /// score inputs are re-read from the view/kernels at the few positions
    /// that are actually re-scored ([`HotRow`] is built transiently
    /// there), so the initial fill writes 4 bytes per candidate instead
    /// of a full row.
    counts: Vec<u32>,
    /// Scratch: cached score of each UP processor (parallel to `ups`).
    scores: Vec<f64>,
    /// Scratch: the loser-tree selector's tournament storage.
    tree: LoserTree,
    /// Scratch: the sharded selector's per-shard trees + winner keys
    /// (the `u ≥ 8192` regime; see `docs/scaling.md`).
    sharded: ShardedTree,
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
            scores: Vec::new(),
            tree: LoserTree::default(),
            sharded: ShardedTree::default(),
            force_selector: None,
            memo: Vec::new(),
            memo_width: 0,
            kernels: Vec::new(),
        }
    }

    /// Pins every selection to `kind` (`None` restores the size-threshold
    /// policy), so differential tests can exercise any selector on small
    /// hand-built views. Decisions are identical for every kind; only the
    /// access pattern changes.
    #[doc(hidden)]
    pub fn force_selector(&mut self, kind: Option<SelectorKind>) {
        self.force_selector = kind;
    }

    /// The objective.
    #[must_use]
    pub fn objective(&self) -> GreedyObjective {
        self.objective
    }

    /// Whether the Equation-(2) correction is active.
    #[must_use]
    pub fn contention_aware(&self) -> bool {
        self.contention
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
        // The score memo and the kernel copies are keyed to the run's
        // platform (chains, speeds); a new run invalidates them wholesale.
        self.memo.clear();
        self.kernels.clear();
    }

    fn place_into(&mut self, view: &SchedView<'_>, count: usize, out: &mut Vec<ProcessorId>) {
        let mut ups = std::mem::take(&mut self.ups);
        view.up_indices_into(&mut ups);
        if ups.is_empty() || count == 0 {
            self.ups = ups;
            return;
        }
        // Per-round bookkeeping: one task count per candidate (by
        // position), the Equation-(2) ceiling state (n_active and the
        // incrementally maintained factors), and the cached score of each
        // UP candidate.
        let mut counts = std::mem::take(&mut self.counts);
        counts.clear();
        counts.resize(ups.len(), 0u32);
        // One memo row per Equation-(2) ceiling factor reachable *this
        // round*: `n_active` counts enrolled UP processors, each placement
        // enrolls at most one, and an unenrolled candidate sees
        // `n_active + 1`, so the factor never exceeds
        // ⌈(min(count, |ups|) + 1)/ncom⌉ (1 for the non-contended
        // variants, whose ceiling never steps; 0 rows when the memo is off
        // for this objective). Rows are factor-major and grow-only, so a
        // later bigger round appends rows without disturbing the existing
        // entries — and a run that never places large bursts never pays
        // the worst-case ⌈(p + 1)/ncom⌉ × p fill.
        let factors = if !self.memo_pays() {
            0
        } else if self.contention {
            ((count.min(ups.len()) as u64 + 1).div_ceil(view.ncom as u64)) as usize
        } else {
            1
        };
        if self.memo_width != view.p() {
            self.memo.clear();
            self.memo_width = view.p();
        }
        if self.memo.len() < factors * view.p() {
            self.memo.resize(factors * view.p(), ChainScoreMemo::EMPTY);
        }
        if self.kernels.len() != view.p() {
            self.kernels.clear();
            self.kernels.extend(view.chains.iter().map(|c| c.kernel()));
        }
        let mut memo = std::mem::take(&mut self.memo);
        let mut scores = std::mem::take(&mut self.scores);
        scores.clear();
        // Initial-row fill: every candidate is unenrolled and n_active is
        // 0, so each sees n_active_incl = 1 and the Equation-(2) factor is
        // identically 1 — one constant effective T_data for the whole row,
        // no per-candidate ceiling arithmetic, and no dense row
        // materialization (the transient row lives in registers).
        // Room-constrained rounds (demand-driven placement) mark an
        // already-full candidate unselectable up front: +inf sorts after
        // every finite score in each selector, and the memo is not
        // consulted for a row that can never win.
        let room = view.room;
        for &i in &ups {
            scores.push(if room.is_some_and(|r| r[i] == 0) {
                f64::INFINITY
            } else {
                let row = self.hot_row(view, i, 0);
                self.memo_score(&mut memo, factors, view, i, &row, (1, view.t_data))
            });
        }
        // Pick the selection strategy (see `SelectorKind::choose` for the
        // measured crossover policy): the dense vectorized linear rescan on
        // small rounds, the trees above (any selector can be pinned
        // through the `force_selector` hook). Positions index `ups`,
        // which is in ascending id order, so every selector's
        // `(score, pos)` key order reproduces the linear scan's strict-`<`
        // lowest-id tie-break.
        let kind = self
            .force_selector
            .unwrap_or_else(|| SelectorKind::choose(ups.len(), count));
        let mut selector = Selector::build(kind, &scores, &mut self.tree, &mut self.sharded);
        let mut ceiling = CeilingState::new(self.contention, view.t_data, view.ncom);
        let spent =
            |room: Option<&[u8]>, i: usize, n_q: u32| room.is_some_and(|r| n_q >= u32::from(r[i]));
        for _ in 0..count {
            let best_pos = selector.select(&scores);
            let best = ups[best_pos];
            let newly_enrolled = counts[best_pos] == 0;
            counts[best_pos] += 1;
            out.push(view.procs[best].id);
            if newly_enrolled && ceiling.enroll() {
                // Equation (2): the new enrollee bumped a ⌈n_active/ncom⌉
                // ceiling, inflating effective T_data — a round-batched
                // refresh re-prices the whole row in one dense pass,
                // through the cross-slot memo (most candidates' (delay,
                // n_q) keys repeat slot over slot, so the refresh is
                // mostly single-compare hits), then rebuilds the selector
                // bottom-up so each entry is touched exactly once.
                for (pos, &i) in ups.iter().enumerate() {
                    let n_q = counts[pos];
                    if spent(room, i, n_q) {
                        // A room-exhausted candidate must stay unselectable
                        // through the dense re-price (the winner included —
                        // this pick may just have spent its last copy).
                        scores[pos] = f64::INFINITY;
                        continue;
                    }
                    let (factor, eff) = ceiling.price(n_q as usize);
                    let row = self.hot_row(view, i, n_q);
                    scores[pos] = self.memo_score(&mut memo, factors, view, i, &row, (factor, eff));
                }
                selector.refresh(&scores);
            } else if spent(room, best, counts[best_pos]) {
                // The winner spent its last bindable copy: retire it from
                // the round instead of re-pricing it.
                scores[best_pos] = f64::INFINITY;
                selector.rescore_winner(best_pos, &scores);
            } else {
                // Winner rescores bypass the memo: overwriting the winner's
                // entry with a transient n_q would evict the refresh-keyed
                // value the next slot's replay wants. The winner is
                // enrolled by construction, so it prices at the enrolled
                // factor — division-free, against its transient row.
                let row = self.hot_row(view, best, counts[best_pos]);
                let s = self.score_checked(view, best, &row, ceiling.eff_enrolled);
                scores[best_pos] = s;
                selector.rescore_winner(best_pos, &scores);
            }
        }
        // Return the backing storage to the persistent scratch.
        selector.into_storage(&mut self.tree, &mut self.sharded);
        self.memo = memo;
        self.ups = ups;
        self.counts = counts;
        self.scores = scores;
    }
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

    mod argmin_property {
        use super::super::*;
        use super::FAMILIES;
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
            let ups = view.up_indices();
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
            /// the linear rescan, the loser tree and the sharded tree, all
            /// with their caches warm across rounds — must reproduce the
            /// stateless naive model's winners — and tie-break order — for
            /// every greedy family, including the `*` variants whose
            /// Equation-(2) coupling invalidates neighbors mid-round.
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
                        (GreedyScheduler::new(obj, star, "sharded"), "sharded tree"),
                    ];
                    pinned[0].0.force_selector(Some(SelectorKind::LoserTree));
                    pinned[1].0.force_selector(Some(SelectorKind::Linear));
                    pinned[2].0.force_selector(Some(SelectorKind::ShardedTree));
                    for (s, _) in &mut pinned {
                        s.begin_run();
                    }
                    for (count, delays, states) in &rounds {
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
                SelectorKind::ShardedTree,
            ] {
                let mut forced = GreedyScheduler::new(obj, star, "forced");
                forced.force_selector(Some(kind));
                assert_eq!(
                    forced.place(&owned.view(), 10),
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
                let mut sharded = GreedyScheduler::new(obj, star, "sharded");
                sharded.force_selector(Some(SelectorKind::ShardedTree));
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
                    sharded.place(&owned.view(), count),
                    expected,
                    "{obj:?} star={star} count={count} (forced sharded tree)"
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
            let ups = view.up_indices();
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
