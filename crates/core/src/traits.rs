//! The scheduler interface.

use crate::view::SchedView;
use vg_platform::ProcessorId;

/// An on-line scheduling heuristic (Section 6).
///
/// Once per slot the simulator presents the current [`SchedView`] and the
/// number of task instances that need placement (the `m − m′` unstarted
/// tasks of the running iteration, or a batch of replicas). The heuristic
/// appends, in placement order, the processor chosen for each instance;
/// placement order doubles as bandwidth priority among *new* transfers.
///
/// Contracts:
///
/// * only `UP` processors may be returned (the paper's heuristics all
///   require the target to be `UP`);
/// * the result may be shorter than `count` — e.g. when no processor is
///   `UP` — and the unplaced instances simply retry at the next slot;
/// * implementations must be deterministic functions of `(view, count)` and
///   their own internal RNG stream, never of wall-clock or global state, so
///   that experiment runs are exactly reproducible;
/// * implementations should reuse internal scratch space across calls so
///   that steady-state placement performs no heap allocation (the engine
///   calls [`Self::place_into`] up to a million times per run).
pub trait Scheduler: Send {
    /// Human-readable name; matches the paper's tables (`"EMCT*"`, …).
    fn name(&self) -> &str;

    /// Chooses a processor for each of `count` task instances, appending the
    /// choices to `out` (which the engine has already cleared). The engine
    /// owns `out` and reuses it across slots, so a warmed-up buffer makes
    /// this call allocation-free.
    ///
    /// When [`SchedView::room`] is `Some`, the engine is running a
    /// demand-driven round and the column is an *advisory* per-worker bind
    /// budget: implementations should avoid assigning a worker more
    /// instances than its room, because the engine's `try_bind` will
    /// reject the excess (the engine still tolerates overfull output — see
    /// the field's contract). When it is `None`, nothing about per-worker
    /// capacity is promised and implementations must not change behavior —
    /// that is what keeps historical trajectories bit-identical.
    ///
    /// Only the view's candidates ([`SchedView::up_indices_into`]) may be
    /// chosen. When [`SchedView::delta`] is `Some`, the view also reports
    /// what changed since the previous round of the same lane, so an
    /// implementation may keep per-lane state and patch it; on a sequence
    /// gap it must rebuild that state from the full view (see
    /// [`ViewDelta`](crate::view::ViewDelta)). Either way its choices must
    /// be those it would make for the view alone.
    fn place_into(&mut self, view: &SchedView<'_>, count: usize, out: &mut Vec<ProcessorId>);

    /// Allocating shim over [`Self::place_into`] for callers that predate
    /// the scratch-buffer API (tests, examples, one-shot tools).
    fn place(&mut self, view: &SchedView<'_>, count: usize) -> Vec<ProcessorId> {
        let mut out = Vec::with_capacity(count);
        self.place_into(view, count, &mut out);
        out
    }

    /// Called by the engine once before a run's first slot. Implementations
    /// must drop any cache keyed to a previous run's platform here (chain
    /// statistics, speeds, per-processor scores), so a scheduler instance
    /// reused across runs — even on a different platform with the same
    /// processor count — cannot serve stale values.
    fn begin_run(&mut self) {}
}
