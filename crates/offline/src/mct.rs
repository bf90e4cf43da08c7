//! MCT on known traces — optimal for `ncom = +∞` (Proposition 2).
//!
//! With unbounded master bandwidth every processor downloads the program
//! from slot 0, and the greedy Minimum-Completion-Time rule — assign the
//! next task to the processor that would finish it soonest — is *optimal*
//! (the paper proves it by an exchange argument). This module implements the
//! greedy, a per-processor timeline that walks the known trace, a brute
//! force used by the tests to confirm optimality on small instances, and a
//! materializer producing an explicit [`Schedule`].

use crate::instance::OfflineInstance;
use crate::schedule::{Comm, Schedule};
use vg_des::{Slot, SlotSpan};
use vg_markov::ProcState;

/// Incremental execution timeline of one processor over its known trace.
///
/// Tracks where the next communication and computation can start; appending
/// a task advances the pipeline exactly as the simulator would execute it
/// (program first, sequential data transfers, one-task prefetch overlap,
/// sequential computations — all on `UP` slots only).
#[derive(Debug, Clone)]
pub struct ProcTimeline<'a> {
    inst: &'a OfflineInstance,
    q: usize,
    /// Slot from which the next comm u-slot is searched.
    comm_cursor: Slot,
    /// Slot from which the next compute u-slot is searched.
    compute_cursor: Slot,
    /// First compute slot of the last appended task (look-ahead gate).
    last_compute_start: Slot,
    /// Tasks appended so far.
    tasks: usize,
    /// Slot after which the program is fully received (slot index of the
    /// `T_prog`-th `UP` slot, plus one); `None` if the program cannot be
    /// received within the horizon.
    prog_ready: Option<Slot>,
}

/// Completion info for a hypothetical or committed append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Slot of the first data slot (`None` when `T_data = 0`).
    pub data_start: Option<Slot>,
    /// Slot after the task's data is complete.
    pub data_ready: Slot,
    /// First compute slot.
    pub compute_start: Slot,
    /// Completion time: last compute slot + 1.
    pub completion: Slot,
}

impl<'a> ProcTimeline<'a> {
    /// Builds the timeline of processor `q`; the program is scheduled on the
    /// earliest `T_prog` `UP` slots (ncom = ∞: no contention).
    #[must_use]
    pub fn new(inst: &'a OfflineInstance, q: usize) -> Self {
        let prog_ready = if inst.t_prog == 0 {
            Some(0)
        } else {
            nth_up(inst, q, 0, inst.t_prog).map(|last| last + 1)
        };
        Self {
            inst,
            q,
            comm_cursor: prog_ready.unwrap_or(inst.horizon),
            compute_cursor: 0,
            last_compute_start: 0,
            tasks: 0,
            prog_ready,
        }
    }

    /// Number of committed tasks.
    #[must_use]
    pub fn tasks(&self) -> usize {
        self.tasks
    }

    /// Evaluates appending one more task without committing.
    ///
    /// Returns `None` when the task cannot complete within the horizon.
    #[must_use]
    fn evaluate(&self) -> Option<Placement> {
        let inst = self.inst;
        self.prog_ready?;
        let (data_start, data_ready) = if inst.t_data == 0 {
            (
                None,
                self.comm_cursor.max(self.prog_ready.expect("checked")),
            )
        } else {
            // Look-ahead: data for task k may only flow once task k−1 has
            // started computing (and the link must be free).
            let lower = if self.tasks == 0 {
                self.comm_cursor
            } else {
                self.comm_cursor.max(self.last_compute_start)
            };
            let first = nth_up(inst, self.q, lower, 1)?;
            let last = nth_up(inst, self.q, lower, inst.t_data)?;
            (Some(first), last + 1)
        };
        let compute_lower = self.compute_cursor.max(data_ready);
        let compute_start = nth_up(inst, self.q, compute_lower, 1)?;
        let last_compute = nth_up(inst, self.q, compute_lower, inst.w[self.q])?;
        Some(Placement {
            data_start,
            data_ready,
            compute_start,
            completion: last_compute + 1,
        })
    }

    /// Commits the evaluated append.
    fn commit(&mut self, placement: Placement) {
        self.comm_cursor = placement.data_ready;
        self.compute_cursor = placement.completion;
        self.last_compute_start = placement.compute_start;
        self.tasks += 1;
    }
}

/// Slot of the `n`-th `UP` slot of processor `q` at or after `from`
/// (`n ≥ 1`), within the horizon.
fn nth_up(inst: &OfflineInstance, q: usize, from: Slot, n: SlotSpan) -> Option<Slot> {
    debug_assert!(n >= 1);
    let mut remaining = n;
    let mut t = from;
    while t < inst.horizon {
        if inst.state(q, t) == ProcState::Up {
            remaining -= 1;
            if remaining == 0 {
                return Some(t);
            }
        }
        t += 1;
    }
    None
}

/// Result of the greedy MCT solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MctSolution {
    /// `assignment[k]` = processor that computes task `k`.
    pub assignment: Vec<usize>,
    /// Completion time of the iteration (max over processors).
    pub makespan: Slot,
}

/// Greedy MCT for `ncom = +∞`. Returns `None` when the iteration cannot
/// complete within the horizon.
///
/// # Panics
/// Panics if the instance has a finite `ncom` (the algorithm would not be
/// optimal there — see the counter-example test; use the branch-and-bound
/// solver instead).
#[must_use]
pub fn mct_infinite(inst: &OfflineInstance) -> Option<MctSolution> {
    assert!(
        inst.ncom.is_none(),
        "MCT is only optimal without a bandwidth bound (Proposition 2)"
    );
    inst.validate().ok()?;
    let mut timelines: Vec<ProcTimeline> =
        (0..inst.p()).map(|q| ProcTimeline::new(inst, q)).collect();
    let mut assignment = Vec::with_capacity(inst.m);
    let mut makespan = 0;
    for _task in 0..inst.m {
        let mut best: Option<(usize, Placement)> = None;
        for (q, tl) in timelines.iter().enumerate() {
            if let Some(p) = tl.evaluate() {
                // Strict `<` keeps the lowest processor id on ties.
                if best.is_none() || p.completion < best.expect("checked").1.completion {
                    best = Some((q, p));
                }
            }
        }
        let (q, p) = best?;
        timelines[q].commit(p);
        assignment.push(q);
        makespan = makespan.max(p.completion);
    }
    Some(MctSolution {
        assignment,
        makespan,
    })
}

/// Materializes an explicit [`Schedule`] from a task→processor assignment by
/// replaying the timelines (used to double-check MCT against the validator).
#[must_use]
// tidy:allow(dead_pub): tests/offline_properties.rs::mct_schedules_validate_and_match checks MCT against the validator through it
pub fn materialize(inst: &OfflineInstance, assignment: &[usize]) -> Option<Schedule> {
    let mut schedule = Schedule::empty(inst);
    let mut timelines: Vec<ProcTimeline> =
        (0..inst.p()).map(|q| ProcTimeline::new(inst, q)).collect();
    // Program slots for every processor that computes something.
    for q in 0..inst.p() {
        if assignment.contains(&q) && inst.t_prog > 0 {
            let mut placed = 0;
            let mut t = 0;
            while placed < inst.t_prog {
                if inst.state(q, t) == ProcState::Up {
                    schedule.action_mut(q, t).comm = Some(Comm::Prog);
                    placed += 1;
                }
                t += 1;
            }
        }
    }
    for (k, &q) in assignment.iter().enumerate() {
        let p = timelines[q].evaluate()?;
        timelines[q].commit(p);
        // Data slots.
        if inst.t_data > 0 {
            let mut placed = 0;
            let mut t = p.data_start.expect("t_data > 0");
            while placed < inst.t_data {
                if inst.state(q, t) == ProcState::Up {
                    debug_assert!(schedule.action(q, t).comm.is_none());
                    schedule.action_mut(q, t).comm = Some(Comm::Data(k as u32));
                    placed += 1;
                }
                t += 1;
            }
        }
        // Compute slots.
        let mut placed = 0;
        let mut t = p.compute_start;
        while placed < inst.w[q] {
            if inst.state(q, t) == ProcState::Up {
                schedule.action_mut(q, t).compute = Some(k as u32);
                placed += 1;
            }
            t += 1;
        }
    }
    Some(schedule)
}

/// Exhaustive optimum for `ncom = +∞` by enumerating task counts per
/// processor (tasks are identical, so only counts matter). Exponential —
/// test-sized instances only.
#[must_use]
pub fn brute_force_infinite(inst: &OfflineInstance) -> Option<Slot> {
    fn completion_with(inst: &OfflineInstance, q: usize, count: usize) -> Option<Slot> {
        let mut tl = ProcTimeline::new(inst, q);
        let mut last = 0;
        for _ in 0..count {
            let p = tl.evaluate()?;
            tl.commit(p);
            last = p.completion;
        }
        Some(last)
    }
    fn recurse(
        inst: &OfflineInstance,
        q: usize,
        remaining: usize,
        current_max: Slot,
        best: &mut Option<Slot>,
    ) {
        if q == inst.p() {
            if remaining == 0 && best.is_none_or(|b| current_max < b) {
                *best = Some(current_max);
            }
            return;
        }
        for count in 0..=remaining {
            match completion_with(inst, q, count) {
                Some(c) => {
                    let m = current_max.max(c);
                    if best.is_none_or(|b| m < b) {
                        recurse(inst, q + 1, remaining - count, m, best);
                    }
                }
                None => break, // more tasks cannot help either
            }
        }
    }
    let mut best = None;
    recurse(inst, 0, inst.m, 0, &mut best);
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vg_platform::Trace;

    fn t(s: &str) -> Trace {
        Trace::parse(s).unwrap()
    }

    fn inst(
        m: usize,
        t_prog: SlotSpan,
        t_data: SlotSpan,
        w: SlotSpan,
        horizon: Slot,
        traces: Vec<Trace>,
    ) -> OfflineInstance {
        OfflineInstance::uniform(m, t_prog, t_data, w, None, horizon, traces)
    }

    #[test]
    fn timeline_single_task_always_up() {
        // prog slots 0-1, data slot 2, compute slots 3-4 → completion 5.
        let i = inst(1, 2, 1, 2, 10, vec![t("uuuuuuuuuu")]);
        let tl = ProcTimeline::new(&i, 0);
        let p = tl.evaluate().unwrap();
        assert_eq!(p.data_start, Some(2));
        assert_eq!(p.data_ready, 3);
        assert_eq!(p.compute_start, 3);
        assert_eq!(p.completion, 5);
    }

    #[test]
    fn timeline_respects_reclaimed_gaps() {
        // u r u r u r u r …  prog=1 → slot 0; data=1 → slot 2;
        // compute w=2 → slots 4, 6 → completion 7.
        let i = inst(1, 1, 1, 2, 10, vec![t("ururururur")]);
        let p = ProcTimeline::new(&i, 0).evaluate().unwrap();
        assert_eq!(p.completion, 7);
    }

    #[test]
    fn timeline_pipelines_second_task() {
        // Always up, prog=1, data=1, w=3.
        // T1: data 1, compute 2-4. T2: data 2 (overlap), compute 5-7 → 8.
        let i = inst(2, 1, 1, 3, 20, vec![t("uuuuuuuuuuuuuuuuuuuu")]);
        let mut tl = ProcTimeline::new(&i, 0);
        let p1 = tl.evaluate().unwrap();
        tl.commit(p1);
        assert_eq!(p1.completion, 5);
        let p2 = tl.evaluate().unwrap();
        assert_eq!(p2.data_start, Some(2));
        assert_eq!(p2.completion, 8);
    }

    #[test]
    fn timeline_infeasible_within_horizon() {
        let i = inst(1, 2, 1, 2, 4, vec![t("uurr")]);
        assert!(ProcTimeline::new(&i, 0).evaluate().is_none());
    }

    #[test]
    fn timeline_zero_t_data() {
        // prog=2: slots 0-1; compute w=1 at slot 2.
        let i = inst(1, 2, 0, 1, 5, vec![t("uuuuu")]);
        let p = ProcTimeline::new(&i, 0).evaluate().unwrap();
        assert_eq!(p.data_start, None);
        assert_eq!(p.completion, 3);
    }

    #[test]
    fn mct_balances_two_processors() {
        let i = inst(
            2,
            1,
            1,
            3,
            20,
            vec![t("uuuuuuuuuuuuuuuuuuuu"), t("uuuuuuuuuuuuuuuuuuuu")],
        );
        let sol = mct_infinite(&i).unwrap();
        assert_eq!(sol.assignment, vec![0, 1]);
        assert_eq!(sol.makespan, 5);
    }

    #[test]
    fn mct_prefers_faster_processor() {
        let mut i = inst(
            1,
            1,
            1,
            1,
            20,
            vec![t("uuuuuuuuuuuuuuuuuuuu"), t("uuuuuuuuuuuuuuuuuuuu")],
        );
        i.w = vec![5, 2];
        let sol = mct_infinite(&i).unwrap();
        assert_eq!(sol.assignment, vec![1]);
    }

    #[test]
    fn mct_skips_unavailable_processor() {
        let i = inst(1, 1, 1, 2, 8, vec![t("rrrrrrrr"), t("uuuuuuuu")]);
        let sol = mct_infinite(&i).unwrap();
        assert_eq!(sol.assignment, vec![1]);
        assert_eq!(sol.makespan, 4);
    }

    #[test]
    fn mct_none_when_infeasible() {
        let i = inst(3, 1, 1, 2, 5, vec![t("uuuuu")]);
        assert!(mct_infinite(&i).is_none());
    }

    #[test]
    #[should_panic(expected = "Proposition 2")]
    fn mct_rejects_bounded_ncom() {
        let mut i = inst(1, 1, 1, 1, 5, vec![t("uuuuu")]);
        i.ncom = Some(1);
        let _ = mct_infinite(&i);
    }

    #[test]
    fn materialized_schedule_validates() {
        let i = inst(
            3,
            2,
            1,
            2,
            30,
            vec![
                t("uuuuuuuuuuuuuuuuuuuuuuuuuuuuuu"),
                t("ururururururururururururururur"),
            ],
        );
        let sol = mct_infinite(&i).unwrap();
        let schedule = materialize(&i, &sol.assignment).unwrap();
        let completion = schedule.validate(&i).unwrap();
        assert_eq!(completion, sol.makespan);
    }

    #[test]
    fn mct_matches_brute_force_on_crafted_instances() {
        let cases = vec![
            inst(
                3,
                1,
                1,
                2,
                20,
                vec![t("uuuuuuuuuuuuuuuuuuuu"), t("uruururuuruuruuruuru")],
            ),
            inst(
                4,
                2,
                1,
                1,
                25,
                vec![
                    t("uuuuuuuuuuuuuuuuuuuuuuuuu"),
                    t("rrrrruuuuuuuuuuuuuuuuuuuu"),
                    t("uururururururururururuuuu"),
                ],
            ),
            inst(
                2,
                0,
                2,
                3,
                15,
                vec![t("uuuuuuuuuuuuuuu"), t("uuruuruuruuruur")],
            ),
        ];
        for (idx, i) in cases.into_iter().enumerate() {
            let greedy = mct_infinite(&i).map(|s| s.makespan);
            let exact = brute_force_infinite(&i);
            assert_eq!(greedy, exact, "case {idx}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_mct_is_optimal_proposition2(
            seed_traces in proptest::collection::vec(
                proptest::collection::vec(0usize..2, 12..20), 1..4),
            m in 1usize..5,
            t_prog in 0u64..3,
            t_data in 0u64..3,
            w in 1u64..4,
        ) {
            let traces: Vec<Trace> = seed_traces
                .iter()
                .map(|codes| codes.iter().map(|&c| if c == 0 {
                    vg_markov::ProcState::Up
                } else {
                    vg_markov::ProcState::Reclaimed
                }).collect())
                .collect();
            let horizon = traces[0].len() as Slot;
            let i = OfflineInstance::uniform(m, t_prog, t_data, w, None, horizon, traces);
            let greedy = mct_infinite(&i).map(|s| s.makespan);
            let exact = brute_force_infinite(&i);
            prop_assert_eq!(greedy, exact);
        }

        #[test]
        fn prop_materialized_schedules_validate(
            seed_traces in proptest::collection::vec(
                proptest::collection::vec(0usize..2, 15..20), 1..3),
            m in 1usize..4,
        ) {
            let traces: Vec<Trace> = seed_traces
                .iter()
                .map(|codes| codes.iter().map(|&c| if c == 0 {
                    vg_markov::ProcState::Up
                } else {
                    vg_markov::ProcState::Reclaimed
                }).collect())
                .collect();
            let horizon = traces[0].len() as Slot;
            let i = OfflineInstance::uniform(m, 1, 1, 2, None, horizon, traces);
            if let Some(sol) = mct_infinite(&i) {
                let schedule = materialize(&i, &sol.assignment).unwrap();
                let completion = schedule.validate(&i);
                prop_assert_eq!(completion, Ok(sol.makespan));
            }
        }
    }
}
