//! Exact branch-and-bound solver for the bounded-bandwidth off-line problem.
//!
//! The Off-Line problem is NP-hard (Theorem 1), so exactness costs
//! exponential time; this solver is meant for *small* instances — verifying
//! the Theorem-1 reduction on toy formulas, certifying the Section-4
//! counter-example, and cross-checking heuristics in tests.
//!
//! Search organization: time advances slot by slot. At each slot the only
//! genuine decision is *which eligible processors receive one of the `ncom`
//! channels* — computing is never harmful (a processor with program + data
//! always computes; an exchange argument shows idling cannot help), and
//! receiving more communication weakly dominates receiving less, so only
//! maximal channel subsets are branched on. Visited `(slot, state)` pairs
//! are memoized; an upper bound from the incumbent prunes.

use crate::instance::OfflineInstance;
use vg_des::det::DetHashSet;
use vg_des::Slot;
use vg_markov::ProcState;

/// Pipeline state of one processor (all quantities saturate at their caps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
struct ProcPipeline {
    /// Program slots received.
    prog: u16,
    /// Data slots received toward the current task.
    cur_data: u16,
    /// Compute slots performed on the current task.
    comp: u16,
    /// Prefetched data slots toward the next task.
    pre_data: u16,
}

/// What a processor would receive if granted a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Need {
    Prog,
    CurData,
    PreData,
}

/// Solver failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BnbError {
    /// The state budget was exhausted before the search finished.
    BudgetExceeded,
    /// The instance contains `DOWN` slots. The solver's pipeline state does
    /// not model program loss, so 3-state instances must be compiled away
    /// with [`OfflineInstance::split_down`] first (Section 4's transform).
    ContainsDown,
    /// The instance failed validation.
    InvalidInstance,
}

impl std::fmt::Display for BnbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BudgetExceeded => write!(f, "branch-and-bound state budget exceeded"),
            Self::ContainsDown => {
                write!(f, "instance has DOWN slots; apply split_down() first")
            }
            Self::InvalidInstance => write!(f, "invalid off-line instance"),
        }
    }
}

impl std::error::Error for BnbError {}

/// Exact minimum completion time of one iteration, or `None` if infeasible
/// within the horizon. `state_budget` caps explored states (to keep tests
/// bounded); exceeding it returns `Err(BudgetExceeded)`.
pub fn min_makespan(inst: &OfflineInstance, state_budget: usize) -> Result<Option<Slot>, BnbError> {
    Ok(explore(inst, state_budget)?.makespan)
}

/// Exploration statistics of one exact solve, alongside the answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BnbStats {
    /// Exact minimum completion time (`None`: infeasible within horizon).
    pub makespan: Option<Slot>,
    /// Number of search states expanded.
    ///
    /// Deterministic for a fixed instance and budget: branching enumerates
    /// channel subsets in index order and the memo set is only ever probed
    /// for membership (and hashed with a fixed-seed hasher — see
    /// [`vg_des::det`]), so no iteration order can leak into the search.
    /// Regression tests pin this count.
    pub states: usize,
}

/// [`min_makespan`] with exploration statistics.
fn explore(inst: &OfflineInstance, state_budget: usize) -> Result<BnbStats, BnbError> {
    inst.validate().map_err(|_| BnbError::InvalidInstance)?;
    if !inst.is_two_state() {
        return Err(BnbError::ContainsDown);
    }
    let mut solver = Solver {
        inst,
        ncom: inst.ncom.unwrap_or(inst.p()),
        best: None,
        seen: DetHashSet::default(),
        states: 0,
        budget: state_budget,
    };
    let start = vec![ProcPipeline::default(); inst.p()];
    solver.dfs(0, &start, 0)?;
    Ok(BnbStats {
        makespan: solver.best,
        states: solver.states,
    })
}

/// Decision version: can one iteration complete within `deadline` slots?
// tidy:allow(dead_pub): the exact decision oracle of tests/offline_counterexample.rs and tests/offline_properties.rs
pub fn feasible_within(
    inst: &OfflineInstance,
    deadline: Slot,
    state_budget: usize,
) -> Result<bool, BnbError> {
    let mut trimmed = inst.clone();
    trimmed.horizon = inst.horizon.min(deadline);
    Ok(min_makespan(&trimmed, state_budget)?.is_some_and(|mk| mk <= deadline))
}

struct Solver<'a> {
    inst: &'a OfflineInstance,
    ncom: usize,
    best: Option<Slot>,
    seen: DetHashSet<(Slot, Vec<ProcPipeline>, usize)>,
    states: usize,
    budget: usize,
}

impl Solver<'_> {
    fn dfs(&mut self, slot: Slot, pipes: &[ProcPipeline], done: usize) -> Result<(), BnbError> {
        if done >= self.inst.m {
            if self.best.is_none_or(|b| slot < b) {
                self.best = Some(slot);
            }
            return Ok(());
        }
        if slot >= self.inst.horizon || self.best.is_some_and(|b| slot + 1 >= b) {
            return Ok(());
        }
        self.states += 1;
        if self.states > self.budget {
            return Err(BnbError::BudgetExceeded);
        }
        let key = (slot, pipes.to_vec(), done);
        if !self.seen.insert(key) {
            return Ok(());
        }

        // Eligible communications this slot (start-of-slot snapshot).
        let mut eligible: Vec<(usize, Need)> = Vec::new();
        for (q, pipe) in pipes.iter().enumerate() {
            if self.inst.state(q, slot) != ProcState::Up {
                continue;
            }
            if u64::from(pipe.prog) < self.inst.t_prog {
                eligible.push((q, Need::Prog));
            } else if u64::from(pipe.cur_data) < self.inst.t_data {
                eligible.push((q, Need::CurData));
            } else if u64::from(pipe.pre_data) < self.inst.t_data && self.can_compute(q, pipe, slot)
            {
                eligible.push((q, Need::PreData));
            }
        }

        let k = self.ncom.min(eligible.len());
        let mut combo: Vec<usize> = Vec::with_capacity(k);
        self.branch_combos(slot, pipes, done, &eligible, k, 0, &mut combo)
    }

    /// True when the processor computes during `slot` given its start-of-slot
    /// pipeline (program complete, current data complete, `UP`).
    fn can_compute(&self, q: usize, pipe: &ProcPipeline, slot: Slot) -> bool {
        self.inst.state(q, slot) == ProcState::Up
            && u64::from(pipe.prog) >= self.inst.t_prog
            && u64::from(pipe.cur_data) >= self.inst.t_data
    }

    /// Enumerates all size-`k` subsets of `eligible` and advances one slot
    /// for each choice.
    #[allow(clippy::too_many_arguments)]
    fn branch_combos(
        &mut self,
        slot: Slot,
        pipes: &[ProcPipeline],
        done: usize,
        eligible: &[(usize, Need)],
        k: usize,
        from: usize,
        combo: &mut Vec<usize>,
    ) -> Result<(), BnbError> {
        if combo.len() == k {
            return self.advance(slot, pipes, done, eligible, combo);
        }
        // Not enough items left to fill the combo.
        if eligible.len() - from < k - combo.len() {
            return Ok(());
        }
        for i in from..eligible.len() {
            combo.push(i);
            self.branch_combos(slot, pipes, done, eligible, k, i + 1, combo)?;
            combo.pop();
        }
        Ok(())
    }

    /// Applies one slot: granted communications, then automatic computation,
    /// then pipeline promotion.
    fn advance(
        &mut self,
        slot: Slot,
        pipes: &[ProcPipeline],
        done: usize,
        eligible: &[(usize, Need)],
        combo: &[usize],
    ) -> Result<(), BnbError> {
        let mut next: Vec<ProcPipeline> = pipes.to_vec();
        let mut new_done = done;

        // Snapshot of who computes this slot (start-of-slot eligibility).
        let computing: Vec<bool> = (0..pipes.len())
            .map(|q| self.can_compute(q, &pipes[q], slot))
            .collect();

        // Granted communications.
        for &i in combo {
            let (q, need) = eligible[i];
            match need {
                Need::Prog => next[q].prog += 1,
                Need::CurData => next[q].cur_data += 1,
                Need::PreData => next[q].pre_data += 1,
            }
        }

        // Computation + retirement.
        for q in 0..next.len() {
            if computing[q] {
                next[q].comp += 1;
                if u64::from(next[q].comp) >= self.inst.w[q] {
                    new_done += 1;
                    next[q].comp = 0;
                    next[q].cur_data = next[q].pre_data;
                    next[q].pre_data = 0;
                }
            }
        }

        self.dfs(slot + 1, &next, new_done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mct::mct_infinite;
    use vg_platform::Trace;

    fn t(s: &str) -> Trace {
        Trace::parse(s).unwrap()
    }

    const BUDGET: usize = 2_000_000;

    #[test]
    fn single_processor_single_task() {
        // prog 2 (slots 0-1), data 1 (slot 2), compute 2 (slots 3-4) → 5.
        let inst = OfflineInstance::uniform(1, 2, 1, 2, Some(1), 10, vec![t("uuuuuuuuuu")]);
        assert_eq!(min_makespan(&inst, BUDGET), Ok(Some(5)));
    }

    #[test]
    fn infeasible_returns_none() {
        let inst = OfflineInstance::uniform(2, 2, 1, 2, Some(1), 6, vec![t("uuuuuu")]);
        assert_eq!(min_makespan(&inst, BUDGET), Ok(None));
    }

    #[test]
    fn paper_counter_example_optimum_is_nine() {
        // Section 4: Tprog = Tdata = 2, m = 2, w = 2, ncom = 1,
        // S1 = uuuuuurrr, S2 = ruuuuuuuu. The optimal schedule waits one
        // slot and serves P2 first, finishing both tasks at time 9; MCT
        // (which grabs P1 immediately) is strictly worse.
        let inst =
            OfflineInstance::uniform(2, 2, 2, 2, Some(1), 9, vec![t("uuuuuurrr"), t("ruuuuuuuu")]);
        assert_eq!(min_makespan(&inst, BUDGET), Ok(Some(9)));
    }

    #[test]
    fn bnb_matches_mct_when_uncontended() {
        // With ncom = p the channel constraint is slack on these instances;
        // B&B must agree with the provably optimal MCT.
        let cases = vec![
            OfflineInstance::uniform(
                2,
                1,
                1,
                2,
                None,
                14,
                vec![t("uuuuuuuuuuuuuu"), t("ruururuuruuruu")],
            ),
            OfflineInstance::uniform(3, 1, 0, 1, None, 10, vec![t("uuuuuuuuuu"), t("uruururuur")]),
            OfflineInstance::uniform(1, 2, 2, 3, None, 12, vec![t("uuuuuuuuuuuu")]),
        ];
        for (i, base) in cases.into_iter().enumerate() {
            let mct = mct_infinite(&base).map(|s| s.makespan);
            let mut bounded = base.clone();
            bounded.ncom = Some(base.p());
            let exact = min_makespan(&bounded, BUDGET).unwrap();
            assert_eq!(mct, exact, "case {i}");
        }
    }

    #[test]
    fn bandwidth_bound_hurts() {
        // Two identical workers, two tasks: with ncom = 2 both stream
        // concurrently; with ncom = 1 everything serializes.
        let traces = vec![t("uuuuuuuuuuuu"), t("uuuuuuuuuuuu")];
        let wide = OfflineInstance::uniform(2, 2, 1, 3, Some(2), 12, traces.clone());
        let narrow = OfflineInstance::uniform(2, 2, 1, 3, Some(1), 12, traces);
        let mk_wide = min_makespan(&wide, BUDGET).unwrap().unwrap();
        let mk_narrow = min_makespan(&narrow, BUDGET).unwrap().unwrap();
        assert!(mk_wide < mk_narrow, "{mk_wide} !< {mk_narrow}");
        assert_eq!(mk_wide, 6); // prog 0-1, data 2, compute 3-5 on both
    }

    #[test]
    fn reclaimed_slots_delay_completion() {
        let solid = OfflineInstance::uniform(1, 1, 1, 2, Some(1), 10, vec![t("uuuuuuuuuu")]);
        let holey = OfflineInstance::uniform(1, 1, 1, 2, Some(1), 10, vec![t("ururururur")]);
        let a = min_makespan(&solid, BUDGET).unwrap().unwrap();
        let b = min_makespan(&holey, BUDGET).unwrap().unwrap();
        assert_eq!(a, 4);
        assert_eq!(b, 7); // u-slots 0,2,4,6: prog 0, data 2, compute 4 & 6
    }

    #[test]
    fn prefetch_is_exploited() {
        // One worker, two tasks, Tdata = 1, w = 2: data(1) must overlap
        // compute(0): prog 0, data0 1, comp0 2-3 (+data1 at 2), comp1 4-5 → 6.
        let inst = OfflineInstance::uniform(2, 1, 1, 2, Some(1), 10, vec![t("uuuuuuuuuu")]);
        assert_eq!(min_makespan(&inst, BUDGET), Ok(Some(6)));
    }

    #[test]
    fn exploration_count_is_pinned() {
        // Regression pin for search determinism: the Section-4
        // counter-example must expand exactly this many states, run after
        // run. Drift here means exploration order became environment
        // dependent (the hazard the fixed-seed `DetHashSet` memo
        // forecloses) or that branching/pruning changed semantics — either
        // way, a deliberate review, not noise.
        let inst =
            OfflineInstance::uniform(2, 2, 2, 2, Some(1), 9, vec![t("uuuuuurrr"), t("ruuuuuuuu")]);
        let run = explore(&inst, BUDGET).unwrap();
        assert_eq!(run.makespan, Some(9));
        assert_eq!(run.states, 53);
        assert_eq!(explore(&inst, BUDGET).unwrap(), run);
    }

    #[test]
    fn budget_exhaustion_reports() {
        let inst = OfflineInstance::uniform(
            3,
            2,
            1,
            2,
            Some(1),
            20,
            vec![
                t("uuuuuuuuuuuuuuuuuuuu"),
                t("uuuuuuuuuuuuuuuuuuuu"),
                t("uuuuuuuuuuuuuuuuuuuu"),
            ],
        );
        assert_eq!(min_makespan(&inst, 10), Err(BnbError::BudgetExceeded));
    }

    #[test]
    fn zero_t_data_instances() {
        // Reduction-style: Tprog = 2, Tdata = 0, w = 1.
        // prog slots 0-1, compute slot 2 → 3; second task computes slot 3.
        let inst = OfflineInstance::uniform(2, 2, 0, 1, Some(1), 6, vec![t("uuuuuu")]);
        assert_eq!(min_makespan(&inst, BUDGET), Ok(Some(4)));
    }

    #[test]
    fn three_state_instances_rejected() {
        let inst = OfflineInstance::uniform(1, 1, 0, 1, Some(1), 4, vec![t("uudu")]);
        assert_eq!(min_makespan(&inst, 1_000), Err(BnbError::ContainsDown));
        // The split form is accepted.
        assert!(min_makespan(&inst.split_down(), 100_000).is_ok());
    }

    #[test]
    fn feasible_within_trims_horizon() {
        let inst = OfflineInstance::uniform(1, 1, 1, 2, Some(1), 10, vec![t("uuuuuuuuuu")]);
        assert_eq!(feasible_within(&inst, 4, BUDGET), Ok(true));
        assert_eq!(feasible_within(&inst, 3, BUDGET), Ok(false));
    }
}
