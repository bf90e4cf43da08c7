//! Task, copy and iteration bookkeeping.
//!
//! Each application iteration consists of `m` independent tasks (Section
//! 3.1). A *task* may be materialized as up to three *copies*: the original
//! plus at most two replicas (Section 6.1). The first copy to finish
//! completes the task; all sibling copies are then canceled.

use vg_des::Slot;

/// Index of a task within the current iteration (`0..m`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

impl TaskId {
    /// As a `usize` index.
    #[inline]
    #[must_use]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// One concrete copy of a task. `replica == 0` is the original; replicas get
/// fresh increasing numbers so two concurrent replicas of a task are
/// distinguishable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CopyId {
    /// Which task this is a copy of.
    pub task: TaskId,
    /// 0 for the original, ≥ 1 for replicas.
    pub replica: u8,
}

impl CopyId {
    /// The original copy of `task`.
    #[must_use]
    pub fn original(task: TaskId) -> Self {
        Self { task, replica: 0 }
    }

    /// True for the original copy.
    #[must_use]
    pub fn is_original(self) -> bool {
        self.replica == 0
    }
}

impl std::fmt::Display for CopyId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_original() {
            write!(f, "{}", self.task)
        } else {
            write!(f, "{}·r{}", self.task, self.replica)
        }
    }
}

/// Where a task's original copy currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OriginalState {
    /// Waiting in the master's pool (schedulable).
    Pool,
    /// Its data transfer or computation has begun on a worker (pinned there).
    Pinned {
        /// The worker (by index).
        worker: usize,
    },
    /// The task has completed (possibly via a replica).
    Done,
}

/// Empty slot sentinel in [`IterationState::pinned_replica_workers`] rows.
pub const NO_REPLICA_WORKER: u32 = u32::MAX;

/// Maximum *extra* copies per task under replication: the paper's "at most
/// two extra copies" (Section 6.1), so three copies in all.
pub const MAX_EXTRA_REPLICAS: usize = 2;

/// Live state of one application iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterationState {
    m: usize,
    index: u64,
    completed: Vec<bool>,
    n_completed: usize,
    original: Vec<OriginalState>,
    replicas_alive: Vec<u8>,
    next_replica: Vec<u8>,
    /// Flat `m × MAX_EXTRA_REPLICAS` record of where each live **pinned**
    /// replica sits ([`NO_REPLICA_WORKER`] = empty slot). Together with
    /// [`OriginalState::Pinned`] this gives sibling cancellation the exact
    /// location of every pinned copy — no platform scan at completion.
    replica_workers: Vec<u32>,
    /// Slot at which the iteration completed, once it has.
    completed_at: Option<Slot>,
}

impl IterationState {
    /// Fresh iteration `index` with `m` pool tasks.
    ///
    /// One init path: `new` is [`Self::reinit`] applied to an empty shell,
    /// so the two can never drift apart field-by-field (debug builds also
    /// assert `reinit` against an independently constructed oracle).
    #[must_use]
    pub fn new(index: u64, m: usize) -> Self {
        let mut it = Self {
            m: 0,
            index: 0,
            completed: Vec::new(),
            n_completed: 0,
            original: Vec::new(),
            replicas_alive: Vec::new(),
            next_replica: Vec::new(),
            replica_workers: Vec::new(),
            completed_at: None,
        };
        it.reinit(index, m);
        it
    }

    /// Independent literal construction, kept only as the debug oracle for
    /// the unified [`Self::new`]/[`Self::reinit`] init path.
    #[cfg(debug_assertions)]
    fn fresh_oracle(index: u64, m: usize) -> Self {
        Self {
            m,
            index,
            completed: vec![false; m],
            n_completed: 0,
            original: vec![OriginalState::Pool; m],
            replicas_alive: vec![0; m],
            next_replica: vec![0; m],
            replica_workers: vec![NO_REPLICA_WORKER; m * MAX_EXTRA_REPLICAS],
            completed_at: None,
        }
    }

    /// Reinitializes in place for iteration `index`, keeping the allocated
    /// buffers — the barrier-slot equivalent of `Self::new(index, m, ..)`.
    pub fn reset(&mut self, index: u64) {
        self.index = index;
        self.completed.fill(false);
        self.n_completed = 0;
        self.original.fill(OriginalState::Pool);
        self.replicas_alive.fill(0);
        self.next_replica.fill(0);
        self.replica_workers.fill(NO_REPLICA_WORKER);
        self.completed_at = None;
    }

    /// Reinitializes in place for a **new run** with a possibly different
    /// task count, reusing the allocated buffers — the cross-run (arena)
    /// counterpart of [`Self::reset`], which keeps `m` fixed.
    pub fn reinit(&mut self, index: u64, m: usize) {
        assert!(m >= 1);
        self.m = m;
        self.index = index;
        self.completed.clear();
        self.completed.resize(m, false);
        self.n_completed = 0;
        self.original.clear();
        self.original.resize(m, OriginalState::Pool);
        self.replicas_alive.clear();
        self.replicas_alive.resize(m, 0);
        self.next_replica.clear();
        self.next_replica.resize(m, 0);
        self.replica_workers.clear();
        self.replica_workers
            .resize(m * MAX_EXTRA_REPLICAS, NO_REPLICA_WORKER);
        self.completed_at = None;
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            *self,
            Self::fresh_oracle(index, m),
            "in-place reinit diverged from a literal fresh construction"
        );
    }

    /// Iteration number (0-based).
    #[must_use]
    pub fn index(&self) -> u64 {
        self.index
    }

    /// Tasks per iteration, `m`.
    #[must_use]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Completed-task count.
    #[must_use]
    pub fn n_completed(&self) -> usize {
        self.n_completed
    }

    /// True once all `m` tasks are done.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.n_completed == self.m
    }

    /// Slot at which the iteration completed.
    #[must_use]
    pub fn completed_at(&self) -> Option<Slot> {
        self.completed_at
    }

    /// Records the completion slot (once).
    pub fn set_completed_at(&mut self, slot: Slot) {
        debug_assert!(self.is_complete());
        if self.completed_at.is_none() {
            self.completed_at = Some(slot);
        }
    }

    /// Original-copy state of `task`.
    #[must_use]
    pub fn original_state(&self, task: TaskId) -> OriginalState {
        self.original[task.idx()]
    }

    /// Live replica count of `task` (excludes the original).
    #[must_use]
    pub fn replicas_alive(&self, task: TaskId) -> u8 {
        self.replicas_alive[task.idx()]
    }

    /// Writes into `out` (cleared first) the unfinished tasks whose
    /// original sits in the pool, in id order — the `m − m′` schedulable
    /// tasks of Section 6.1. Allocation-free once `out` has warmed to
    /// capacity `m`.
    pub fn pool_tasks_into(&self, out: &mut Vec<TaskId>) {
        out.clear();
        for i in 0..self.m {
            if !self.completed[i] && self.original[i] == OriginalState::Pool {
                out.push(TaskId(i as u32));
            }
        }
    }

    /// Number of schedulable pool tasks — the length
    /// [`Self::pool_tasks_into`] would produce, without writing it.
    #[must_use]
    pub fn pool_len(&self) -> usize {
        (0..self.m)
            .filter(|&i| !self.completed[i] && self.original[i] == OriginalState::Pool)
            .count()
    }

    /// Writes into `out` (cleared first) the unfinished tasks eligible for
    /// one more replica (fewer than [`MAX_EXTRA_REPLICAS`] live replicas),
    /// ordered by (live copies, id) so the least replicated task replicates
    /// first. Allocation-free once `out` has warmed to capacity `m`; one
    /// linear pass per replica level replaces a comparison sort and yields
    /// the identical order, since scanning level-by-level in id order *is*
    /// sorting by the unique key (live copies, id).
    pub fn replica_candidates_into(&self, out: &mut Vec<TaskId>) {
        out.clear();
        for level in 0..MAX_EXTRA_REPLICAS as u8 {
            for i in 0..self.m {
                if !self.completed[i] && self.replicas_alive[i] == level {
                    out.push(TaskId(i as u32));
                }
            }
        }
    }

    /// Mints a new replica copy of `task` and counts it alive.
    #[must_use]
    pub fn mint_replica(&mut self, task: TaskId) -> CopyId {
        let i = task.idx();
        debug_assert!(!self.completed[i]);
        self.next_replica[i] = self.next_replica[i].wrapping_add(1).max(1);
        self.replicas_alive[i] += 1;
        CopyId {
            task,
            replica: self.next_replica[i],
        }
    }

    /// Discards a live replica copy (evaporated bind, crash, cancel).
    pub fn drop_replica(&mut self, task: TaskId) {
        let i = task.idx();
        debug_assert!(self.replicas_alive[i] > 0, "no replica to drop for {task}");
        self.replicas_alive[i] -= 1;
    }

    /// Records that a live replica of `task` is now **pinned** on `worker`
    /// (its data transfer began, or a zero-data bind went straight to the
    /// compute pipeline). At most one copy of a task lives on a worker, so
    /// `worker` identifies the replica within its row.
    pub fn record_replica_pin(&mut self, task: TaskId, worker: usize) {
        let row = task.idx() * MAX_EXTRA_REPLICAS;
        let slots = &mut self.replica_workers[row..row + MAX_EXTRA_REPLICAS];
        debug_assert!(
            !slots.contains(&(worker as u32)),
            "replica of {task} already recorded on worker {worker}"
        );
        match slots.iter_mut().find(|w| **w == NO_REPLICA_WORKER) {
            Some(slot) => *slot = worker as u32,
            // More pinned replicas than replicas_alive allows — mint/pin
            // accounting is broken somewhere upstream.
            None => debug_assert!(
                false,
                "pinned-replica row of {task} overflows MAX_EXTRA_REPLICAS"
            ),
        }
    }

    /// Clears the pin record of `task`'s replica on `worker` (it completed,
    /// was canceled, or was lost to a crash).
    pub fn clear_replica_pin(&mut self, task: TaskId, worker: usize) {
        let row = task.idx() * MAX_EXTRA_REPLICAS;
        let slots = &mut self.replica_workers[row..row + MAX_EXTRA_REPLICAS];
        match slots.iter_mut().find(|w| **w == worker as u32) {
            Some(slot) => *slot = NO_REPLICA_WORKER,
            None => debug_assert!(false, "no pinned replica of {task} recorded on {worker}"),
        }
    }

    /// `task`'s pinned-replica worker row ([`NO_REPLICA_WORKER`] = empty
    /// slot).
    #[must_use]
    pub fn pinned_replica_workers(&self, task: TaskId) -> &[u32] {
        let row = task.idx() * MAX_EXTRA_REPLICAS;
        &self.replica_workers[row..row + MAX_EXTRA_REPLICAS]
    }

    /// Marks the original of `task` pinned on `worker`.
    pub fn pin_original(&mut self, task: TaskId, worker: usize) {
        debug_assert_eq!(self.original[task.idx()], OriginalState::Pool);
        self.original[task.idx()] = OriginalState::Pinned { worker };
    }

    /// Returns the original of `task` to the pool (crash of its worker).
    pub fn release_original(&mut self, task: TaskId) {
        debug_assert!(matches!(
            self.original[task.idx()],
            OriginalState::Pinned { .. }
        ));
        self.original[task.idx()] = OriginalState::Pool;
    }

    /// Marks `task` completed; returns `false` if it already was (a sibling
    /// copy finished in the same slot).
    pub fn mark_completed(&mut self, task: TaskId) -> bool {
        let i = task.idx();
        if self.completed[i] {
            return false;
        }
        self.completed[i] = true;
        self.n_completed += 1;
        self.original[i] = OriginalState::Done;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(it: &IterationState) -> Vec<TaskId> {
        let mut out = Vec::new();
        it.pool_tasks_into(&mut out);
        out
    }

    fn candidates(it: &IterationState) -> Vec<TaskId> {
        let mut out = Vec::new();
        it.replica_candidates_into(&mut out);
        out
    }

    #[test]
    fn fresh_iteration_pools_everything() {
        let it = IterationState::new(3, 4);
        assert_eq!(it.index(), 3);
        assert_eq!(it.m(), 4);
        assert_eq!(pool(&it).len(), 4);
        assert!(!it.is_complete());
        assert_eq!(it.n_completed(), 0);
    }

    #[test]
    fn pinning_removes_from_pool() {
        let mut it = IterationState::new(0, 3);
        it.pin_original(TaskId(1), 7);
        assert_eq!(pool(&it), vec![TaskId(0), TaskId(2)]);
        assert_eq!(
            it.original_state(TaskId(1)),
            OriginalState::Pinned { worker: 7 }
        );
        it.release_original(TaskId(1));
        assert_eq!(pool(&it).len(), 3);
    }

    #[test]
    fn completion_counts_once() {
        let mut it = IterationState::new(0, 2);
        assert!(it.mark_completed(TaskId(0)));
        assert!(!it.mark_completed(TaskId(0)));
        assert_eq!(it.n_completed(), 1);
        assert!(it.mark_completed(TaskId(1)));
        assert!(it.is_complete());
        it.set_completed_at(42);
        assert_eq!(it.completed_at(), Some(42));
    }

    #[test]
    fn completed_tasks_leave_pool() {
        let mut it = IterationState::new(0, 2);
        it.mark_completed(TaskId(0));
        assert_eq!(pool(&it), vec![TaskId(1)]);
    }

    #[test]
    fn replica_minting_and_limits() {
        let mut it = IterationState::new(0, 2);
        let r1 = it.mint_replica(TaskId(0));
        assert_eq!(r1.replica, 1);
        assert!(!r1.is_original());
        assert_eq!(it.replicas_alive(TaskId(0)), 1);

        // Candidates ordered by fewest live copies.
        let cands = candidates(&it);
        assert_eq!(cands, vec![TaskId(1), TaskId(0)]);

        let _r2 = it.mint_replica(TaskId(0));
        assert_eq!(it.replicas_alive(TaskId(0)), 2);
        // Task 0 is now saturated.
        assert_eq!(candidates(&it), vec![TaskId(1)]);

        it.drop_replica(TaskId(0));
        assert_eq!(it.replicas_alive(TaskId(0)), 1);
        assert_eq!(candidates(&it), vec![TaskId(1), TaskId(0)]);
    }

    #[test]
    fn replica_ids_stay_unique() {
        let mut it = IterationState::new(0, 1);
        let a = it.mint_replica(TaskId(0));
        it.drop_replica(TaskId(0));
        let b = it.mint_replica(TaskId(0));
        assert_ne!(a, b, "respawned replica must get a fresh id");
    }

    #[test]
    fn completed_tasks_are_not_replica_candidates() {
        let mut it = IterationState::new(0, 2);
        it.mark_completed(TaskId(0));
        assert_eq!(candidates(&it), vec![TaskId(1)]);
    }

    #[test]
    fn pinned_replica_record_round_trips() {
        let mut it = IterationState::new(0, 3);
        assert_eq!(
            it.pinned_replica_workers(TaskId(1)),
            &[NO_REPLICA_WORKER; 2]
        );

        let _ = it.mint_replica(TaskId(1));
        it.record_replica_pin(TaskId(1), 40);
        let _ = it.mint_replica(TaskId(1));
        it.record_replica_pin(TaskId(1), 7);
        assert_eq!(it.pinned_replica_workers(TaskId(1)), &[40, 7]);
        // Rows are per-task.
        assert_eq!(
            it.pinned_replica_workers(TaskId(0)),
            &[NO_REPLICA_WORKER; 2]
        );

        // Clearing one pin frees its slot for reuse.
        it.clear_replica_pin(TaskId(1), 40);
        assert_eq!(
            it.pinned_replica_workers(TaskId(1)),
            &[NO_REPLICA_WORKER, 7]
        );
        it.drop_replica(TaskId(1));
        let _ = it.mint_replica(TaskId(1));
        it.record_replica_pin(TaskId(1), 12);
        assert_eq!(it.pinned_replica_workers(TaskId(1)), &[12, 7]);

        // Barrier reset wipes the record.
        it.reset(1);
        assert_eq!(
            it.pinned_replica_workers(TaskId(1)),
            &[NO_REPLICA_WORKER; 2]
        );
    }

    #[test]
    fn reinit_is_equivalent_to_fresh_construction() {
        let mut it = IterationState::new(0, 3);
        let _ = it.mint_replica(TaskId(1));
        it.record_replica_pin(TaskId(1), 5);
        it.pin_original(TaskId(0), 9);
        it.mark_completed(TaskId(2));
        it.reinit(7, 5);
        assert_eq!(it, IterationState::new(7, 5));
        // Shrinking and growing both land on the fresh-construction state.
        it.reinit(2, 1);
        assert_eq!(it, IterationState::new(2, 1));
    }

    #[test]
    fn copy_display() {
        assert_eq!(CopyId::original(TaskId(3)).to_string(), "T3");
        assert_eq!(
            CopyId {
                task: TaskId(3),
                replica: 2
            }
            .to_string(),
            "T3·r2"
        );
    }
}
