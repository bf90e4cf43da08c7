//! What a scheduler is allowed to see.
//!
//! The master observes processor states through heartbeats (Section 3.2) and
//! knows the static platform description plus, under the Markov assumption,
//! each processor's transition matrix. Everything a heuristic may consult is
//! collected into a [`SchedView`] presented by the simulator at every slot;
//! heuristics cannot reach into the engine, which keeps the
//! information-hygiene of the on-line problem honest (no peeking at future
//! states).
//!
//! ## Zero-allocation design
//!
//! A view is split into two parts with very different lifetimes:
//!
//! * **Per-slot** data — state, delay, program possession — lives in small
//!   `Copy` [`ProcSnapshot`]s that the engine rewrites in place into a
//!   scratch buffer each slot;
//! * **Per-run** data — the precomputed [`ChainStats`] of each processor's
//!   believed availability chain — is built once at engine construction and
//!   only ever *borrowed* by views.
//!
//! [`SchedView`] therefore borrows both slices (`&[ProcSnapshot]`,
//! `&[ChainStats]`) and is itself `Copy`; constructing one per slot costs
//! nothing. Tests and examples that want a self-contained view use
//! [`OwnedSchedView`] (usually via [`SchedViewBuilder`]) and borrow it with
//! [`OwnedSchedView::view`].

use vg_des::SlotSpan;
use vg_markov::availability::{AvailabilityChain, ChainStats, ProcState};
use vg_platform::ProcessorId;

/// Per-processor snapshot at the current slot (per-slot data only; the
/// processor's chain statistics live in the view's `chains` slice).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcSnapshot {
    /// Which processor this is.
    pub id: ProcessorId,
    /// Observed state for the current slot.
    pub state: ProcState,
    /// `w_q`: UP-slots needed per task.
    pub w: SlotSpan,
    /// Whether the processor currently holds a complete copy of the program.
    pub has_program: bool,
    /// `Delay(q)` (Section 6.3.1): estimated slots until the processor has
    /// finished its current activities — remaining program transfer, pinned
    /// data transfers and pinned computations — assuming it stays `UP` and
    /// suffers no contention (\[D8\] in `docs/readings.md`).
    pub delay: SlotSpan,
}

/// The placement round a [`ViewDelta`] belongs to. Each lane is its own
/// stream of views: the engine numbers the lane's rounds and reports what
/// changed since the lane's *previous* round, never since some other
/// lane's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// The pool (originals) round of a one-app roster whose pool fits its
    /// placement budget: candidates are the `UP` processors, `room` is
    /// `None`.
    Pool,
    /// The replica round: candidates are the free (`UP` and idle)
    /// processors named by [`SchedView::candidates`].
    Replica,
}

impl Lane {
    /// Number of lanes.
    pub const COUNT: usize = 2;

    /// Dense index of the lane, `0..Lane::COUNT`.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Self::Pool => 0,
            Self::Replica => 1,
        }
    }
}

/// Advisory change report of one placement round, in the [`SchedView::room`]
/// idiom: `None` is the historical contract (the view
/// is self-contained and promises nothing about earlier views), and a
/// scheduler that ignores the field is always correct.
///
/// A round carrying `Some(delta)` promises: every processor **not** listed
/// in [`Self::changed`] has the same candidacy ([`SchedView::is_candidate`])
/// and the same base-score inputs (`state`, `delay`) as in the view of
/// this lane's previous round, whose sequence number was `seq − 1`. `w`,
/// `t_data`, `ncom` and the chain statistics are per-run constants. A
/// scheduler may therefore keep per-lane state across rounds and patch it
/// at the listed processors only, instead of rescanning all `p`.
///
/// **On a gap** — `seq` is not the successor of the last sequence number
/// the scheduler saw on this lane, the scheduler never saw the lane since
/// its last [`Scheduler::begin_run`](crate::Scheduler::begin_run), or it
/// cannot vouch for its lane state for any other reason — the scheduler
/// must discard that lane's state and rebuild it from the full view, as if
/// the field were `None`. Decisions must never depend on whether the
/// delta path or the rebuild served a round: both describe the same view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewDelta<'a> {
    /// Which placement round this view serves.
    pub lane: Lane,
    /// Per-lane sequence number: the lane's previous round carried
    /// `seq − 1`.
    pub seq: u64,
    /// Processors whose candidacy or base-score inputs may have changed
    /// since the lane's previous round, duplicate-free, in no particular
    /// order. Listing an unchanged processor is allowed; omitting a
    /// changed one is not.
    pub changed: &'a [u32],
}

/// Scheduler-visible state of the whole platform at one slot.
///
/// Borrows the engine's scratch snapshot buffer and its per-run chain
/// statistics; copying a `SchedView` copies a few fat pointers.
#[derive(Debug, Clone, Copy)]
pub struct SchedView<'a> {
    /// One snapshot per processor, indexed by `ProcessorId::idx()`.
    pub procs: &'a [ProcSnapshot],
    /// Precomputed statistics of the availability chain the scheduler
    /// *believes* describes each processor (the truth in the paper's
    /// experiments; an estimate in the model-misspecification studies).
    /// Indexed by `ProcessorId::idx()`, same length as `procs`.
    pub chains: &'a [ChainStats],
    /// `T_prog`: slots to transfer the program.
    pub t_prog: SlotSpan,
    /// `T_data`: slots to transfer one task's input.
    pub t_data: SlotSpan,
    /// `ncom`: the master's channel capacity.
    pub ncom: usize,
    /// Per-processor bind room for this placement round (`room[i]` copies
    /// can still bind on processor `i` this slot), or `None` for an
    /// unconstrained round.
    ///
    /// `None` is the historical contract: the scheduler requests whatever
    /// it likes and the engine's bind step rejects what cannot bind (the
    /// rejects dissolve under \[D5\]). Under a demand-driven placement
    /// budget the engine passes `Some`: schedulers SHOULD then treat a
    /// processor whose room is exhausted (0, or depleted by this round's
    /// own picks) as unselectable, so placements land on processors that
    /// can actually bind. Respecting `room` is advisory — the engine
    /// tolerates overfill either way (the bind step still rejects) — but
    /// a scheduler must never let `Some` change its choices relative to
    /// `None` when the room never binds fewer copies than it would have
    /// requested anyway; the engine only passes `Some` on rounds whose
    /// trajectory is already allowed to diverge.
    pub room: Option<&'a [u8]>,
    /// The round's candidate set (`candidates[i]` for processor `i`), or
    /// `None` when every `UP` processor is a candidate. Only `UP`
    /// processors are ever candidates; the engine narrows the set for the
    /// replica round (free processors) and for demand-driven rounds
    /// (processors with bind room). [`Self::up_indices_into`] honours it.
    pub candidates: Option<&'a [bool]>,
    /// What changed since this lane's previous round, or `None` for a
    /// self-contained view (see [`ViewDelta`]).
    pub delta: Option<ViewDelta<'a>>,
}

impl<'a> SchedView<'a> {
    /// Chain statistics of processor `idx`.
    #[inline]
    #[must_use]
    pub fn chain(&self, idx: usize) -> &'a ChainStats {
        &self.chains[idx]
    }

    /// Whether processor `idx` is a candidate of this round: `UP` and, when
    /// the view narrows the set, inside [`Self::candidates`].
    #[inline]
    #[must_use]
    pub fn is_candidate(&self, idx: usize) -> bool {
        self.procs[idx].state.is_up() && self.candidates.is_none_or(|c| c[idx])
    }

    /// Writes the indices of the round's candidates (`UP` processors,
    /// narrowed by [`Self::candidates`]) into `out` (cleared first), in id
    /// order. No allocation once `out` has warmed to capacity.
    pub fn up_indices_into(&self, out: &mut Vec<usize>) {
        out.clear();
        match self.candidates {
            None => {
                for (i, p) in self.procs.iter().enumerate() {
                    if p.state.is_up() {
                        out.push(i);
                    }
                }
            }
            Some(cands) => {
                for (i, (p, &c)) in self.procs.iter().zip(cands).enumerate() {
                    if c && p.state.is_up() {
                        out.push(i);
                    }
                }
            }
        }
    }

    /// Number of processors.
    #[must_use]
    pub fn p(&self) -> usize {
        self.procs.len()
    }
}

/// A self-contained view owning its snapshots and chain statistics.
///
/// The engine never materializes one of these per slot; they exist for
/// tests, examples and benches that need a view without an engine behind it.
#[derive(Debug, Clone)]
pub struct OwnedSchedView {
    /// One snapshot per processor.
    pub procs: Vec<ProcSnapshot>,
    /// One precomputed chain per processor.
    pub chains: Vec<ChainStats>,
    /// `T_prog`.
    pub t_prog: SlotSpan,
    /// `T_data`.
    pub t_data: SlotSpan,
    /// `ncom`.
    pub ncom: usize,
    /// Per-processor bind room (`None` = unconstrained round).
    pub room: Option<Vec<u8>>,
    /// Candidate set (`None` = every `UP` processor).
    pub candidates: Option<Vec<bool>>,
}

impl OwnedSchedView {
    /// Borrows as the [`SchedView`] that schedulers consume.
    #[must_use]
    pub fn view(&self) -> SchedView<'_> {
        SchedView {
            procs: &self.procs,
            chains: &self.chains,
            t_prog: self.t_prog,
            t_data: self.t_data,
            ncom: self.ncom,
            room: self.room.as_deref(),
            candidates: self.candidates.as_deref(),
            delta: None,
        }
    }
}

/// Builder for hand-crafted views in tests and examples.
#[derive(Debug, Clone)]
pub struct SchedViewBuilder {
    view: OwnedSchedView,
}

impl SchedViewBuilder {
    /// Starts a view with the given application/network parameters.
    #[must_use]
    pub fn new(t_prog: SlotSpan, t_data: SlotSpan, ncom: usize) -> Self {
        Self {
            view: OwnedSchedView {
                procs: Vec::new(),
                chains: Vec::new(),
                t_prog,
                t_data,
                ncom,
                room: None,
                candidates: None,
            },
        }
    }

    /// Adds a processor snapshot; ids are assigned in insertion order.
    #[must_use]
    pub fn proc(
        mut self,
        state: ProcState,
        w: SlotSpan,
        has_program: bool,
        delay: SlotSpan,
        chain: AvailabilityChain,
    ) -> Self {
        let id = ProcessorId(self.view.procs.len() as u32);
        self.view.procs.push(ProcSnapshot {
            id,
            state,
            w,
            has_program,
            delay,
        });
        self.view.chains.push(ChainStats::new(chain));
        self
    }

    /// Constrains the round to the given per-processor bind room
    /// (length-matched to the processors added so far).
    #[must_use]
    pub fn room(mut self, room: Vec<u8>) -> Self {
        assert_eq!(room.len(), self.view.procs.len(), "room length != p");
        self.view.room = Some(room);
        self
    }

    /// Narrows the round to the given candidate set (length-matched to
    /// the processors added so far).
    #[must_use]
    pub fn candidates(mut self, candidates: Vec<bool>) -> Self {
        assert_eq!(
            candidates.len(),
            self.view.procs.len(),
            "candidates length != p"
        );
        self.view.candidates = Some(candidates);
        self
    }

    /// Finishes the view.
    #[must_use]
    pub fn build(self) -> OwnedSchedView {
        self.view
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> AvailabilityChain {
        AvailabilityChain::new([[0.95, 0.03, 0.02], [0.30, 0.65, 0.05], [0.10, 0.10, 0.80]])
            .unwrap()
    }

    fn up_indices(v: &SchedView<'_>) -> Vec<usize> {
        let mut out = Vec::new();
        v.up_indices_into(&mut out);
        out
    }

    #[test]
    fn up_indices_filters_and_orders() {
        let owned = SchedViewBuilder::new(5, 1, 2)
            .proc(ProcState::Up, 1, false, 0, chain())
            .proc(ProcState::Down, 1, false, 0, chain())
            .proc(ProcState::Up, 2, true, 3, chain())
            .proc(ProcState::Reclaimed, 2, true, 3, chain())
            .build();
        let v = owned.view();
        assert_eq!(up_indices(&v), vec![0, 2]);
        assert_eq!(v.p(), 4);
        assert_eq!(v.procs[2].id, ProcessorId(2));
    }

    #[test]
    fn up_indices_into_reuses_buffer() {
        let owned = SchedViewBuilder::new(5, 1, 2)
            .proc(ProcState::Up, 1, false, 0, chain())
            .proc(ProcState::Up, 1, false, 0, chain())
            .build();
        let v = owned.view();
        let mut buf = Vec::with_capacity(8);
        v.up_indices_into(&mut buf);
        assert_eq!(buf, vec![0, 1]);
        let ptr = buf.as_ptr();
        v.up_indices_into(&mut buf);
        assert_eq!(buf, vec![0, 1]);
        assert_eq!(ptr, buf.as_ptr(), "buffer must be reused, not reallocated");
    }

    #[test]
    fn candidate_set_narrows_up_indices() {
        let owned = SchedViewBuilder::new(5, 1, 2)
            .proc(ProcState::Up, 1, false, 0, chain())
            .proc(ProcState::Up, 1, false, 0, chain())
            .proc(ProcState::Down, 1, false, 0, chain())
            .proc(ProcState::Up, 1, false, 0, chain())
            .candidates(vec![true, false, true, true])
            .build();
        let v = owned.view();
        // A non-UP processor stays out even when the set names it.
        assert_eq!(up_indices(&v), vec![0, 3]);
        assert!(v.is_candidate(0) && !v.is_candidate(1) && !v.is_candidate(2));
    }

    #[test]
    fn chains_are_indexed_per_processor() {
        let owned = SchedViewBuilder::new(5, 1, 2)
            .proc(ProcState::Up, 1, false, 0, chain())
            .build();
        let v = owned.view();
        assert_eq!(v.chain(0).p_uu(), chain().p_uu());
        assert_eq!(v.chains.len(), v.procs.len());
    }
}
