//! Per-worker runtime state machine.
//!
//! A worker's execution pipeline holds at most two pinned task copies — the
//! one being computed plus at most one look-ahead copy whose data is in
//! flight or buffered (Section 3.3: "task data is received for at most one
//! task beyond the one currently being computed"). Additionally the worker
//! may hold partial or complete program state, and a transient list of
//! copies *bound* by the scheduler this slot whose transfers have not begun
//! (bound copies are unpinned: they return to the pool at slot end, per the
//! dynamic-heuristics model \[D5\]).

use vg_des::{Slot, SlotSpan};
use vg_markov::availability::ProcState;
use vg_platform::ProcessorSpec;

use crate::task::{CopyId, TaskId};

/// An in-flight data transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferState {
    /// The copy whose input is being received.
    pub copy: CopyId,
    /// Slots of data received so far (`< t_data` while in flight).
    pub done: SlotSpan,
    /// Slot at which the transfer began (bandwidth priority: older first).
    pub began_at: Slot,
}

/// An in-progress computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComputeState {
    /// The copy being computed.
    pub copy: CopyId,
    /// UP-slots of compute performed (`< w` while in progress).
    pub done: SlotSpan,
}

/// Runtime state of one worker.
#[derive(Debug)]
pub struct WorkerRuntime {
    /// Static spec (`w_q`).
    pub spec: ProcessorSpec,
    /// State for the current slot.
    pub state: ProcState,
    /// Slots of program received (`== t_prog` ⇒ holds the program).
    pub prog_done: SlotSpan,
    /// Slot at which the current program transfer began (priority ordering).
    pub prog_began_at: Slot,
    /// Data transfer in flight, if any.
    pub transfer: Option<TransferState>,
    /// Copy whose data is complete, waiting for the compute unit.
    pub buffered: Option<CopyId>,
    /// Copy being computed.
    pub computing: Option<ComputeState>,
    /// Copies bound by the scheduler this slot, transfer not yet begun.
    pub bound: Vec<CopyId>,
}

impl WorkerRuntime {
    /// Fresh worker with no program and an idle pipeline.
    #[must_use]
    pub fn new(spec: ProcessorSpec) -> Self {
        Self {
            spec,
            state: ProcState::Reclaimed,
            prog_done: 0,
            prog_began_at: 0,
            transfer: None,
            buffered: None,
            computing: None,
            bound: Vec::new(),
        }
    }

    /// Reinitializes in place for a new run with `spec`, keeping the `bound`
    /// buffer's allocation — the arena-reuse equivalent of
    /// [`Self::new`](Self::new).
    pub fn reset(&mut self, spec: ProcessorSpec) {
        self.spec = spec;
        self.state = ProcState::Reclaimed;
        self.prog_done = 0;
        self.prog_began_at = 0;
        self.transfer = None;
        self.buffered = None;
        self.computing = None;
        self.bound.clear();
    }

    /// Does the worker hold a complete program copy?
    #[must_use]
    pub fn has_program(&self, t_prog: SlotSpan) -> bool {
        self.prog_done >= t_prog
    }

    /// Number of pinned copies (computing + buffered + in-flight transfer).
    #[must_use]
    pub fn pinned_count(&self) -> usize {
        usize::from(self.transfer.is_some())
            + usize::from(self.buffered.is_some())
            + usize::from(self.computing.is_some())
    }

    /// True if completely idle: nothing pinned, nothing bound.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.pinned_count() == 0 && self.bound.is_empty()
    }

    /// All copies present on this worker (pinned first, then bound).
    #[must_use]
    pub fn all_copies(&self) -> Vec<CopyId> {
        let mut v = Vec::with_capacity(3 + self.bound.len());
        if let Some(c) = &self.computing {
            v.push(c.copy);
        }
        if let Some(b) = self.buffered {
            v.push(b);
        }
        if let Some(t) = &self.transfer {
            v.push(t.copy);
        }
        v.extend(self.bound.iter().copied());
        v
    }

    /// Whether any copy (pinned or bound) of `task` lives here — used to
    /// forbid two copies of a task on one processor. Allocation-free (the
    /// engine asks this on every bind attempt).
    #[must_use]
    pub fn has_copy_of(&self, task: TaskId) -> bool {
        self.computing.as_ref().is_some_and(|c| c.copy.task == task)
            || self.buffered.is_some_and(|b| b.task == task)
            || self.transfer.as_ref().is_some_and(|t| t.copy.task == task)
            || self.bound.iter().any(|c| c.task == task)
    }

    /// Room for one more bound copy (pipeline capacity 2: compute + one
    /// look-ahead).
    #[must_use]
    pub fn has_bind_room(&self) -> bool {
        self.pinned_count() + self.bound.len() < 2
    }

    /// `Delay(q)` — Section 6.3.1 / \[D8\]: slots until all *pinned* work and
    /// the program transfer complete, assuming permanent `UP` and no
    /// contention. Bound (unpinned) copies are excluded: the scheduler is
    /// re-deciding those.
    #[must_use]
    pub fn delay_estimate(&self, t_prog: SlotSpan, t_data: SlotSpan) -> SlotSpan {
        let prog_rem = t_prog.saturating_sub(self.prog_done);
        let mut comm_free = prog_rem;
        let mut compute_free = 0;
        if let Some(c) = &self.computing {
            compute_free = self.spec.w - c.done;
        }
        if self.buffered.is_some() {
            compute_free += self.spec.w;
        }
        if let Some(tr) = &self.transfer {
            let data_ready = comm_free + (t_data - tr.done);
            comm_free = data_ready;
            compute_free = compute_free.max(data_ready) + self.spec.w;
        }
        compute_free.max(comm_free)
    }

    /// Clears all volatile state after a crash (`DOWN`): program, transfers,
    /// buffers, computation. Appends the lost pinned copies to `lost` (not
    /// cleared), for scratch-buffer reuse across slots.
    pub fn crash_into(&mut self, lost: &mut Vec<CopyId>) {
        self.prog_done = 0;
        lost.extend(self.computing.take().map(|c| c.copy));
        lost.extend(self.buffered.take());
        lost.extend(self.transfer.take().map(|t| t.copy));
    }

    /// Cancels every copy of `task` on this worker (sibling finished or
    /// iteration ended), appending the removed copies — bound copies
    /// included — to `removed` (not cleared), for scratch-buffer reuse.
    pub fn cancel_task_into(&mut self, task: TaskId, removed: &mut Vec<CopyId>) {
        removed.extend(
            self.computing
                .take_if(|c| c.copy.task == task)
                .map(|c| c.copy),
        );
        removed.extend(self.buffered.take_if(|b| b.task == task));
        removed.extend(
            self.transfer
                .take_if(|t| t.copy.task == task)
                .map(|t| t.copy),
        );
        let mut i = 0;
        while i < self.bound.len() {
            if self.bound[i].task == task {
                removed.push(self.bound.remove(i));
            } else {
                i += 1;
            }
        }
    }

    /// Structural invariants of the pipeline; cheap enough to assert every
    /// slot in debug builds.
    pub fn assert_invariants(&self, t_prog: SlotSpan, t_data: SlotSpan) {
        assert!(
            self.pinned_count() <= 2,
            "pipeline overfull: {}",
            self.pinned_count()
        );
        assert!(
            !(self.transfer.is_some() && self.buffered.is_some()),
            "look-ahead rule violated: transfer and buffer both occupied"
        );
        if self.computing.is_some() {
            assert!(
                self.has_program(t_prog),
                "computing without a complete program"
            );
        }
        if let Some(tr) = &self.transfer {
            assert!(tr.done < t_data, "completed transfer not promoted");
            assert!(
                self.has_program(t_prog),
                "data transfer before program complete"
            );
        }
        if let Some(c) = &self.computing {
            assert!(c.done < self.spec.w, "finished compute not retired");
        }
        // No duplicated task among copies.
        let copies = self.all_copies();
        for (i, a) in copies.iter().enumerate() {
            for b in &copies[i + 1..] {
                assert!(a.task != b.task, "two copies of {} on one worker", a.task);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn worker(w: SlotSpan) -> WorkerRuntime {
        WorkerRuntime::new(ProcessorSpec::new(w))
    }

    fn copy(task: u32, replica: u8) -> CopyId {
        CopyId {
            task: TaskId(task),
            replica,
        }
    }

    #[test]
    fn fresh_worker_is_idle() {
        let w = worker(3);
        assert!(w.is_idle());
        assert_eq!(w.pinned_count(), 0);
        assert!(w.has_bind_room());
        assert!(!w.has_program(5));
        assert!(w.has_program(0), "zero-length program is always present");
        assert_eq!(w.delay_estimate(5, 2), 5, "needs the whole program");
    }

    #[test]
    fn delay_estimate_composes_pipeline() {
        let mut w = worker(4);
        w.prog_done = 5; // program complete (t_prog = 5)

        // Computing: 1 slot done out of 4 -> 3 remaining.
        w.computing = Some(ComputeState {
            copy: copy(0, 0),
            done: 1,
        });
        assert_eq!(w.delay_estimate(5, 2), 3);

        // Plus a buffered task: +4.
        w.buffered = Some(copy(1, 0));
        assert_eq!(w.delay_estimate(5, 2), 7);

        // Remove the buffer, add an in-flight transfer with 1/2 slots done:
        // data ready at 1, compute of task 0 free at 3 -> second compute
        // spans [3,7).
        w.buffered = None;
        w.transfer = Some(TransferState {
            copy: copy(1, 0),
            done: 1,
            began_at: 0,
        });
        assert_eq!(w.delay_estimate(5, 2), 7);

        // Transfer-dominated: long data, short compute.
        let mut w2 = worker(1);
        w2.prog_done = 5;
        w2.transfer = Some(TransferState {
            copy: copy(0, 0),
            done: 0,
            began_at: 0,
        });
        assert_eq!(w2.delay_estimate(5, 10), 11);
    }

    #[test]
    fn delay_estimate_partial_program() {
        let mut w = worker(2);
        w.prog_done = 3;
        assert_eq!(w.delay_estimate(5, 2), 2);
    }

    #[test]
    fn crash_clears_everything_and_reports_losses() {
        let mut w = worker(2);
        w.prog_done = 5;
        w.computing = Some(ComputeState {
            copy: copy(0, 0),
            done: 1,
        });
        w.transfer = Some(TransferState {
            copy: copy(1, 1),
            done: 1,
            began_at: 3,
        });
        let mut lost = Vec::new();
        w.crash_into(&mut lost);
        assert_eq!(lost, vec![copy(0, 0), copy(1, 1)]);
        assert_eq!(w.prog_done, 0);
        assert!(w.is_idle());
        // Re-crashing an already-cleared worker loses nothing more.
        lost.clear();
        w.crash_into(&mut lost);
        assert!(lost.is_empty());
    }

    #[test]
    fn cancel_task_removes_all_forms() {
        let mut w = worker(2);
        w.prog_done = 5;
        w.computing = Some(ComputeState {
            copy: copy(7, 0),
            done: 0,
        });
        w.bound.push(copy(7, 2));
        let mut removed = Vec::new();
        w.cancel_task_into(TaskId(7), &mut removed);
        assert_eq!(removed, vec![copy(7, 0), copy(7, 2)]);
        assert!(w.computing.is_none());
        assert!(w.bound.is_empty());
        removed.clear();
        w.cancel_task_into(TaskId(7), &mut removed);
        assert!(removed.is_empty());
        w.bound.push(copy(9, 0));
        w.cancel_task_into(TaskId(9), &mut removed);
        assert_eq!(removed, vec![copy(9, 0)]);
    }

    #[test]
    fn has_copy_of_and_bind_room() {
        let mut w = worker(2);
        w.computing = Some(ComputeState {
            copy: copy(3, 0),
            done: 0,
        });
        assert!(w.has_copy_of(TaskId(3)));
        assert!(!w.has_copy_of(TaskId(4)));
        assert!(w.has_bind_room());
        w.bound.push(copy(4, 0));
        assert!(!w.has_bind_room());
    }

    #[test]
    fn invariants_pass_on_consistent_state() {
        let mut w = worker(3);
        w.prog_done = 5;
        w.computing = Some(ComputeState {
            copy: copy(0, 0),
            done: 2,
        });
        w.transfer = Some(TransferState {
            copy: copy(1, 0),
            done: 1,
            began_at: 2,
        });
        w.assert_invariants(5, 2);
    }

    #[test]
    #[should_panic(expected = "computing without a complete program")]
    fn invariants_catch_compute_without_program() {
        let mut w = worker(3);
        w.prog_done = 2;
        w.computing = Some(ComputeState {
            copy: copy(0, 0),
            done: 0,
        });
        w.assert_invariants(5, 2);
    }

    #[test]
    #[should_panic(expected = "two copies")]
    fn invariants_catch_duplicate_task() {
        let mut w = worker(3);
        w.prog_done = 0; // t_prog 0 -> program ok
        w.buffered = Some(copy(1, 0));
        w.bound.push(copy(1, 1));
        w.assert_invariants(0, 2);
    }
}
