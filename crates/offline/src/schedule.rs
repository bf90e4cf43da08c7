//! Explicit off-line schedules and their validator.
//!
//! A schedule says, for every processor and slot, which communication the
//! master performs toward it and which task it computes. The validator
//! checks every model rule of Section 3 (\[D15\] in `docs/readings.md`):
//!
//! 1. activity only on `UP` slots and inside the horizon;
//! 2. at most `ncom` simultaneous communications per slot;
//! 3. at most one communication per worker per slot (single inbound link);
//! 4. the full program (`T_prog` slots) precedes any data or compute;
//! 5. each computed task has its `T_data` data slots, fully received before
//!    its first compute slot; data receptions per worker are sequential and
//!    ordered like the computations;
//! 6. look-ahead: data for a task may only be received once the previous
//!    task's computation has started (at most one task of prefetch);
//! 7. computations of distinct tasks on one worker do not interleave, and a
//!    computed task receives exactly `w_q` compute slots;
//! 8. every task of the iteration is computed exactly once.

use crate::instance::OfflineInstance;
use vg_des::Slot;

/// A communication toward a worker during one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Comm {
    /// One slot of the program.
    Prog,
    /// One slot of the given task's input data.
    Data(u32),
}

/// What one worker does during one slot (communication and computation
/// overlap freely — the paper's model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SlotAction {
    /// Inbound communication, if any.
    pub comm: Option<Comm>,
    /// Task being computed, if any.
    pub compute: Option<u32>,
}

impl SlotAction {
    /// No activity.
    const IDLE: SlotAction = SlotAction {
        comm: None,
        compute: None,
    };

    /// True when nothing happens.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.comm.is_none() && self.compute.is_none()
    }
}

/// A complete schedule: `actions[q][t]` for processor `q`, slot `t`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    actions: Vec<Vec<SlotAction>>,
}

/// A rule violation found by the validator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleError {
    /// Offending processor (`None` for global violations).
    pub proc: Option<usize>,
    /// Offending slot (`None` for structural violations).
    pub slot: Option<Slot>,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.proc, self.slot) {
            (Some(q), Some(t)) => write!(f, "P{q}@{t}: {}", self.message),
            (Some(q), None) => write!(f, "P{q}: {}", self.message),
            _ => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for ScheduleError {}

impl Schedule {
    /// An all-idle schedule sized for `inst`.
    #[must_use]
    pub fn empty(inst: &OfflineInstance) -> Self {
        Self {
            actions: vec![vec![SlotAction::IDLE; inst.horizon as usize]; inst.p()],
        }
    }

    /// Direct access to one cell.
    #[must_use]
    pub fn action(&self, q: usize, t: Slot) -> SlotAction {
        self.actions[q][t as usize]
    }

    /// Mutable access to one cell.
    pub fn action_mut(&mut self, q: usize, t: Slot) -> &mut SlotAction {
        &mut self.actions[q][t as usize]
    }

    /// Last slot with any activity, plus one (i.e., the completion time);
    /// 0 for an all-idle schedule.
    #[must_use]
    pub fn completion_time(&self) -> Slot {
        let mut last = 0;
        for row in &self.actions {
            for (t, a) in row.iter().enumerate() {
                if !a.is_idle() {
                    last = last.max(t as Slot + 1);
                }
            }
        }
        last
    }

    /// Validates against `inst`; returns the completion time on success.
    pub fn validate(&self, inst: &OfflineInstance) -> Result<Slot, ScheduleError> {
        let err = |proc: Option<usize>, slot: Option<Slot>, message: String| ScheduleError {
            proc,
            slot,
            message,
        };
        inst.validate()
            .map_err(|e| err(None, None, e.to_string()))?;
        if self.actions.len() != inst.p() {
            return Err(err(None, None, "wrong processor count".into()));
        }
        let horizon = inst.horizon as usize;
        for (q, row) in self.actions.iter().enumerate() {
            if row.len() != horizon {
                return Err(err(Some(q), None, "wrong slot count".into()));
            }
        }

        // Rule 2: ncom per slot.
        if let Some(ncom) = inst.ncom {
            for t in 0..horizon {
                let comms = self
                    .actions
                    .iter()
                    .filter(|row| row[t].comm.is_some())
                    .count();
                if comms > ncom {
                    return Err(err(
                        None,
                        Some(t as Slot),
                        format!("{comms} simultaneous communications, ncom = {ncom}"),
                    ));
                }
            }
        }

        let mut computed_by: Vec<Option<usize>> = vec![None; inst.m];

        for (q, row) in self.actions.iter().enumerate() {
            // Rule 1: UP only.
            for (t, a) in row.iter().enumerate() {
                if !a.is_idle() && !inst.state(q, t as Slot).is_up() {
                    return Err(err(
                        Some(q),
                        Some(t as Slot),
                        format!("activity while {}", inst.state(q, t as Slot)),
                    ));
                }
            }

            // Gather this worker's comm and compute timelines.
            let prog_slots: Vec<usize> = (0..horizon)
                .filter(|&t| row[t].comm == Some(Comm::Prog))
                .collect();
            let comm_slots: Vec<(usize, Comm)> = (0..horizon)
                .filter_map(|t| row[t].comm.map(|c| (t, c)))
                .collect();
            let compute_slots: Vec<(usize, u32)> = (0..horizon)
                .filter_map(|t| row[t].compute.map(|k| (t, k)))
                .collect();

            let uses_program = !compute_slots.is_empty()
                || comm_slots.iter().any(|(_, c)| matches!(c, Comm::Data(_)));
            // Rule 4: program complete, and before any data/compute.
            if uses_program {
                if (prog_slots.len() as u64) != inst.t_prog {
                    return Err(err(
                        Some(q),
                        None,
                        format!(
                            "{} program slots, T_prog = {}",
                            prog_slots.len(),
                            inst.t_prog
                        ),
                    ));
                }
                let prog_done = prog_slots.last().copied().map_or(0, |t| t + 1);
                if let Some(&(t, _)) = compute_slots.first() {
                    if t < prog_done {
                        return Err(err(
                            Some(q),
                            Some(t as Slot),
                            "compute before program complete".into(),
                        ));
                    }
                }
                if let Some(&(t, _)) = comm_slots.iter().find(|(_, c)| matches!(c, Comm::Data(_))) {
                    if t < prog_done {
                        return Err(err(
                            Some(q),
                            Some(t as Slot),
                            "data before program complete".into(),
                        ));
                    }
                }
            } else if !prog_slots.is_empty() && (prog_slots.len() as u64) != inst.t_prog {
                return Err(err(
                    Some(q),
                    None,
                    "partial program transfer with no use".into(),
                ));
            }

            // Rule 7: computations per task contiguous-in-order, w_q slots.
            let mut task_order: Vec<u32> = Vec::new();
            for &(_, k) in &compute_slots {
                if task_order.last() != Some(&k) {
                    if task_order.contains(&k) {
                        return Err(err(
                            Some(q),
                            None,
                            format!("task {k} computed in two separate bursts"),
                        ));
                    }
                    task_order.push(k);
                }
            }
            for &k in &task_order {
                let count = compute_slots.iter().filter(|&&(_, kk)| kk == k).count() as u64;
                if count != inst.w[q] {
                    return Err(err(
                        Some(q),
                        None,
                        format!("task {k} got {count} compute slots, w = {}", inst.w[q]),
                    ));
                }
                let k_us = k as usize;
                if k_us >= inst.m {
                    return Err(err(Some(q), None, format!("unknown task {k}")));
                }
                // Rule 8: computed once globally.
                if let Some(other) = computed_by[k_us] {
                    return Err(err(
                        Some(q),
                        None,
                        format!("task {k} also computed by P{other}"),
                    ));
                }
                computed_by[k_us] = Some(q);
            }

            // Rule 5 + 6: data slots per computed task, ordered, before
            // compute, with ≤ 1 task of prefetch.
            if inst.t_data > 0 {
                // Expected data sequence: T_data slots per task, in compute
                // order. Non-computed tasks must not receive data here (it
                // would be wasted — we forbid it to keep schedules canonical).
                let data_seq: Vec<(usize, u32)> = comm_slots
                    .iter()
                    .filter_map(|&(t, c)| match c {
                        Comm::Data(k) => Some((t, k)),
                        Comm::Prog => None,
                    })
                    .collect();
                let expected: Vec<u32> = task_order
                    .iter()
                    .flat_map(|&k| std::iter::repeat_n(k, inst.t_data as usize))
                    .collect();
                let got: Vec<u32> = data_seq.iter().map(|&(_, k)| k).collect();
                if got != expected {
                    return Err(err(
                        Some(q),
                        None,
                        format!("data sequence {got:?} does not match computations {task_order:?}"),
                    ));
                }
                for (i, &k) in task_order.iter().enumerate() {
                    let last_data = data_seq
                        .iter()
                        .filter(|&&(_, kk)| kk == k)
                        .map(|&(t, _)| t)
                        .max()
                        .expect("sequence checked");
                    let first_compute = compute_slots
                        .iter()
                        .find(|&&(_, kk)| kk == k)
                        .map(|&(t, _)| t)
                        .expect("task_order from compute_slots");
                    if last_data >= first_compute {
                        return Err(err(
                            Some(q),
                            Some(first_compute as Slot),
                            format!("task {k} computes before its data completes"),
                        ));
                    }
                    if i >= 1 {
                        let first_data = data_seq
                            .iter()
                            .find(|&&(_, kk)| kk == k)
                            .map(|&(t, _)| t)
                            .expect("sequence checked");
                        let prev_first_compute = compute_slots
                            .iter()
                            .find(|&&(_, kk)| kk == task_order[i - 1])
                            .map(|&(t, _)| t)
                            .expect("previous task computes");
                        if first_data < prev_first_compute {
                            return Err(err(
                                Some(q),
                                Some(first_data as Slot),
                                format!("task {k} prefetched more than one task ahead"),
                            ));
                        }
                    }
                }
            } else {
                // T_data = 0: no data communications may appear at all.
                if comm_slots.iter().any(|(_, c)| matches!(c, Comm::Data(_))) {
                    return Err(err(Some(q), None, "data slots with T_data = 0".into()));
                }
            }
        }

        // Rule 8: all m tasks computed.
        if let Some(k) = computed_by.iter().position(Option::is_none) {
            return Err(err(None, None, format!("task {k} never computed")));
        }
        Ok(self.completion_time())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_platform::Trace;

    fn t(s: &str) -> Trace {
        Trace::parse(s).unwrap()
    }

    /// One worker, always up: prog 2, data 1, compute 2 — the canonical
    /// hand-built schedule used in several tests.
    fn simple_instance() -> OfflineInstance {
        OfflineInstance::uniform(1, 2, 1, 2, Some(1), 6, vec![t("uuuuuu")])
    }

    fn simple_schedule() -> Schedule {
        let inst = simple_instance();
        let mut s = Schedule::empty(&inst);
        s.action_mut(0, 0).comm = Some(Comm::Prog);
        s.action_mut(0, 1).comm = Some(Comm::Prog);
        s.action_mut(0, 2).comm = Some(Comm::Data(0));
        s.action_mut(0, 3).compute = Some(0);
        s.action_mut(0, 4).compute = Some(0);
        s
    }

    #[test]
    fn valid_schedule_passes() {
        let inst = simple_instance();
        assert_eq!(simple_schedule().validate(&inst), Ok(5));
    }

    #[test]
    fn activity_on_reclaimed_slot_rejected() {
        let inst = OfflineInstance::uniform(1, 2, 1, 2, Some(1), 6, vec![t("uruuuu")]);
        let s = simple_schedule();
        let e = s.validate(&inst).unwrap_err();
        assert!(e.message.contains("activity while r"), "{e}");
    }

    #[test]
    fn ncom_violation_rejected() {
        let inst = OfflineInstance::uniform(2, 1, 0, 1, Some(1), 4, vec![t("uuuu"), t("uuuu")]);
        let mut s = Schedule::empty(&inst);
        // Both receive the program at slot 0 with ncom = 1.
        s.action_mut(0, 0).comm = Some(Comm::Prog);
        s.action_mut(1, 0).comm = Some(Comm::Prog);
        s.action_mut(0, 1).compute = Some(0);
        s.action_mut(1, 1).compute = Some(1);
        let e = s.validate(&inst).unwrap_err();
        assert!(e.message.contains("simultaneous"), "{e}");

        // Relaxing ncom fixes it.
        let mut relaxed = inst;
        relaxed.ncom = None;
        assert!(s.validate(&relaxed).is_ok());
    }

    #[test]
    fn incomplete_program_rejected() {
        let inst = simple_instance();
        let mut s = simple_schedule();
        s.action_mut(0, 1).comm = None; // only 1 of 2 program slots
        let e = s.validate(&inst).unwrap_err();
        assert!(e.message.contains("program slots"), "{e}");
    }

    #[test]
    fn compute_before_program_rejected() {
        let inst = OfflineInstance::uniform(1, 2, 0, 1, Some(1), 6, vec![t("uuuuuu")]);
        let mut s = Schedule::empty(&inst);
        s.action_mut(0, 0).comm = Some(Comm::Prog);
        s.action_mut(0, 1).compute = Some(0); // program not complete
        s.action_mut(0, 2).comm = Some(Comm::Prog);
        let e = s.validate(&inst).unwrap_err();
        assert!(
            e.message.contains("compute before program") || e.message.contains("program slots"),
            "{e}"
        );
    }

    #[test]
    fn compute_before_data_rejected() {
        let inst = simple_instance();
        let mut s = Schedule::empty(&inst);
        s.action_mut(0, 0).comm = Some(Comm::Prog);
        s.action_mut(0, 1).comm = Some(Comm::Prog);
        s.action_mut(0, 2).compute = Some(0); // data never sent
        s.action_mut(0, 3).compute = Some(0);
        let e = s.validate(&inst).unwrap_err();
        assert!(e.message.contains("data sequence"), "{e}");
    }

    #[test]
    fn split_compute_burst_rejected() {
        let inst = OfflineInstance::uniform(2, 1, 0, 2, Some(1), 8, vec![t("uuuuuuuu")]);
        let mut s = Schedule::empty(&inst);
        s.action_mut(0, 0).comm = Some(Comm::Prog);
        s.action_mut(0, 1).compute = Some(0);
        s.action_mut(0, 2).compute = Some(1); // interleaved!
        s.action_mut(0, 3).compute = Some(0);
        s.action_mut(0, 4).compute = Some(1);
        let e = s.validate(&inst).unwrap_err();
        assert!(e.message.contains("two separate bursts"), "{e}");
    }

    #[test]
    fn wrong_compute_count_rejected() {
        let inst = simple_instance();
        let mut s = simple_schedule();
        s.action_mut(0, 5).compute = Some(0); // 3 slots instead of w = 2
        let e = s.validate(&inst).unwrap_err();
        assert!(e.message.contains("compute slots"), "{e}");
    }

    #[test]
    fn task_computed_twice_rejected() {
        let inst = OfflineInstance::uniform(2, 1, 0, 1, Some(2), 4, vec![t("uuuu"), t("uuuu")]);
        let mut s = Schedule::empty(&inst);
        s.action_mut(0, 0).comm = Some(Comm::Prog);
        s.action_mut(1, 0).comm = Some(Comm::Prog);
        s.action_mut(0, 1).compute = Some(0);
        s.action_mut(1, 1).compute = Some(0); // duplicate
        let e = s.validate(&inst).unwrap_err();
        assert!(e.message.contains("also computed"), "{e}");
    }

    #[test]
    fn missing_task_rejected() {
        let inst = OfflineInstance::uniform(2, 1, 0, 1, Some(1), 6, vec![t("uuuuuu")]);
        let mut s = Schedule::empty(&inst);
        s.action_mut(0, 0).comm = Some(Comm::Prog);
        s.action_mut(0, 1).compute = Some(0);
        let e = s.validate(&inst).unwrap_err();
        assert!(e.message.contains("never computed"), "{e}");
    }

    #[test]
    fn prefetch_overlap_is_legal() {
        // Receive data(1) while computing task 0 — the intended overlap.
        let inst = OfflineInstance::uniform(2, 1, 1, 2, Some(1), 8, vec![t("uuuuuuuu")]);
        let mut s = Schedule::empty(&inst);
        s.action_mut(0, 0).comm = Some(Comm::Prog);
        s.action_mut(0, 1).comm = Some(Comm::Data(0));
        s.action_mut(0, 2).compute = Some(0);
        s.action_mut(0, 2).comm = Some(Comm::Data(1)); // prefetch during compute
        s.action_mut(0, 3).compute = Some(0);
        s.action_mut(0, 4).compute = Some(1);
        s.action_mut(0, 5).compute = Some(1);
        assert_eq!(s.validate(&inst), Ok(6));
    }

    #[test]
    fn prefetch_two_ahead_rejected() {
        // Data(1) before task 0 even starts computing: more than one ahead.
        let inst = OfflineInstance::uniform(2, 1, 1, 2, Some(1), 10, vec![t("uuuuuuuuuu")]);
        let mut s = Schedule::empty(&inst);
        s.action_mut(0, 0).comm = Some(Comm::Prog);
        s.action_mut(0, 1).comm = Some(Comm::Data(0));
        s.action_mut(0, 2).comm = Some(Comm::Data(1)); // too early
        s.action_mut(0, 3).compute = Some(0);
        s.action_mut(0, 4).compute = Some(0);
        s.action_mut(0, 5).compute = Some(1);
        s.action_mut(0, 6).compute = Some(1);
        let e = s.validate(&inst).unwrap_err();
        assert!(e.message.contains("prefetched"), "{e}");
    }

    #[test]
    fn completion_time_of_idle_is_zero() {
        let inst = simple_instance();
        assert_eq!(Schedule::empty(&inst).completion_time(), 0);
    }
}
