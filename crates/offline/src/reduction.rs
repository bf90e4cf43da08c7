//! The Theorem-1 reduction: 3-SAT → Off-Line scheduling.
//!
//! Given a formula with `n` variables and `m` clauses, the reduction builds
//! an instance with `p = 2n` processors (one per literal), `ncom = 1`,
//! `T_prog = m`, `T_data = 0`, `w = 1` and horizon `N = m(n + 1)`:
//!
//! * **Clause phase** (slots `0..m`): at slot `j` exactly the processors of
//!   the literals appearing in clause `j+1` are `UP` — receiving a program
//!   slot there "commits" the corresponding literal;
//! * **Variable blocks** (slots `m(i+1)..m(i+2)` for variable `i`): both of
//!   variable `i`'s processors are `UP`, everyone else `RECLAIMED`. With
//!   `ncom = 1`, at most one of the pair can finish the `m`-slot program and
//!   compute — the truth value of the variable.
//!
//! The formula is satisfiable **iff** one iteration of `m` tasks completes
//! within `N` slots. Both directions are executable here: a satisfying
//! assignment materializes into a validated [`Schedule`], and the
//! branch-and-bound solver decides small instances exactly.

use crate::instance::OfflineInstance;
use crate::sat::{Cnf, Lit};
use crate::schedule::{Comm, Schedule};
use vg_markov::ProcState;
use vg_platform::Trace;

/// Processor index of a literal: positive literal of variable `v` → `2v`,
/// negative → `2v + 1`.
#[must_use]
fn proc_of_literal(lit: Lit) -> usize {
    (lit.var as usize) * 2 + usize::from(lit.negated)
}

/// Builds the Theorem-1 instance for `cnf`.
#[must_use]
pub fn reduce(cnf: &Cnf) -> OfflineInstance {
    let n = cnf.n_vars as usize;
    let m = cnf.clauses.len();
    assert!(n >= 1 && m >= 1, "reduction needs a non-trivial formula");
    let horizon = (m * (n + 1)) as u64;
    let p = 2 * n;

    let mut states = vec![vec![ProcState::Reclaimed; horizon as usize]; p];
    // Clause phase.
    for (j, clause) in cnf.clauses.iter().enumerate() {
        for &lit in clause {
            states[proc_of_literal(lit)][j] = ProcState::Up;
        }
    }
    // Variable blocks.
    for i in 0..n {
        let start = m * (i + 1);
        for t in start..start + m {
            states[2 * i][t] = ProcState::Up;
            states[2 * i + 1][t] = ProcState::Up;
        }
    }

    OfflineInstance::uniform(
        m,
        m as u64, // T_prog = m
        0,        // T_data = 0
        1,        // w = 1
        Some(1),  // ncom = 1
        horizon,
        states.into_iter().map(Trace::new).collect(),
    )
}

/// Materializes the schedule of the Theorem-1 forward direction from a
/// satisfying assignment: during the clause phase each clause sends one
/// program slot to (the processor of) one of its true literals; during each
/// variable block the chosen processor finishes its program and computes one
/// task per program slot it received in the clause phase.
///
/// Returns `None` if `assignment` does not satisfy the formula.
#[must_use]
pub fn schedule_from_assignment(cnf: &Cnf, assignment: &[bool]) -> Option<Schedule> {
    if !cnf.eval(assignment) {
        return None;
    }
    let n = cnf.n_vars as usize;
    let m = cnf.clauses.len();
    let inst = reduce(cnf);
    let mut schedule = Schedule::empty(&inst);

    // Clause phase: slot j serves the first true literal of clause j.
    let mut received = vec![0usize; 2 * n]; // L_q
    for (j, clause) in cnf.clauses.iter().enumerate() {
        let lit = clause
            .iter()
            .copied()
            .find(|l| l.eval(assignment))
            .expect("assignment satisfies every clause");
        let q = proc_of_literal(lit);
        schedule.action_mut(q, j as u64).comm = Some(Comm::Prog);
        received[q] += 1;
    }

    // Variable blocks: finish programs, compute tasks.
    let mut next_task = 0u32;
    for i in 0..n {
        let q = 2 * i + usize::from(!assignment[i]);
        let l = received[q];
        if l == 0 {
            continue; // no clause chose this variable's literal
        }
        let block = (m * (i + 1)) as u64;
        // m − L remaining program slots…
        for k in 0..(m - l) as u64 {
            schedule.action_mut(q, block + k).comm = Some(Comm::Prog);
        }
        // …then L computations (w = 1, T_data = 0).
        for k in 0..l as u64 {
            schedule.action_mut(q, block + (m - l) as u64 + k).compute = Some(next_task);
            next_task += 1;
        }
    }
    debug_assert_eq!(next_task as usize, m, "Σ L_q must equal m");
    Some(schedule)
}

/// The 6-clause, 4-variable formula of the paper's Figure 1:
/// `(x̄1∨x3∨x4)∧(x1∨x̄2∨x̄3)∧(x2∨x3∨x̄4)∧(x1∨x2∨x4)∧(x̄1∨x̄2∨x̄4)∧(x̄2∨x3∨x4)`
/// (variables renamed to 0-based).
#[must_use]
pub fn figure1_formula() -> Cnf {
    let p = Lit::pos;
    let q = Lit::neg;
    Cnf::new(
        4,
        vec![
            vec![q(0), p(2), p(3)],
            vec![p(0), q(1), q(2)],
            vec![p(1), p(2), q(3)],
            vec![p(0), p(1), p(3)],
            vec![q(0), q(1), q(3)],
            vec![q(1), p(2), p(3)],
        ],
    )
}

/// Renders the availability matrix of a reduced instance in the style of the
/// paper's Figure 1 (rows = processors/literals, columns = slots; `█` = UP).
#[must_use]
pub fn render_figure(cnf: &Cnf, inst: &OfflineInstance) -> String {
    let n = cnf.n_vars as usize;
    let m = cnf.clauses.len();
    let mut out = String::new();
    out.push_str("        ");
    for j in 1..=m {
        out.push_str(&format!("C{j:<2}"));
    }
    for i in 1..=n {
        out.push_str(&format!("| block x{i:<2}"));
    }
    out.push('\n');
    for qv in 0..2 * n {
        let var = qv / 2;
        let label = if qv % 2 == 0 {
            format!("x{}  ", var + 1)
        } else {
            format!("x̄{}  ", var + 1)
        };
        out.push_str(&format!("{label:>7} "));
        for t in 0..inst.horizon {
            let c = if inst.state(qv, t).is_up() {
                '█'
            } else {
                '·'
            };
            out.push(c);
            if (t as usize + 1).is_multiple_of(m) {
                out.push(' ');
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bnb;
    use crate::sat::dpll;
    use vg_des::rng::SeedPath;

    #[test]
    fn literal_to_processor_mapping() {
        assert_eq!(proc_of_literal(Lit::pos(0)), 0);
        assert_eq!(proc_of_literal(Lit::neg(0)), 1);
        assert_eq!(proc_of_literal(Lit::pos(3)), 6);
        assert_eq!(proc_of_literal(Lit::neg(3)), 7);
    }

    #[test]
    fn reduction_dimensions() {
        let cnf = figure1_formula();
        let inst = reduce(&cnf);
        assert_eq!(inst.p(), 8);
        assert_eq!(inst.m, 6);
        assert_eq!(inst.t_prog, 6);
        assert_eq!(inst.t_data, 0);
        assert_eq!(inst.ncom, Some(1));
        assert_eq!(inst.horizon, 30); // m(n+1) = 6·5
        assert!(inst.validate().is_ok());
    }

    #[test]
    fn reduction_traces_match_construction() {
        let cnf = figure1_formula();
        let inst = reduce(&cnf);
        // Clause 1 = (x̄1 ∨ x3 ∨ x4): procs 1, 4, 6 are UP at slot 0.
        for q in 0..8 {
            let expect_up = [1usize, 4, 6].contains(&q);
            assert_eq!(inst.state(q, 0).is_up(), expect_up, "proc {q} slot 0");
        }
        // Block of variable 1 (0-based 0): slots 6..12, procs 0 and 1 UP.
        for t in 6..12 {
            for q in 0..8 {
                assert_eq!(inst.state(q, t).is_up(), q < 2, "proc {q} slot {t}");
            }
        }
    }

    #[test]
    fn figure1_assignment_materializes_and_validates() {
        let cnf = figure1_formula();
        let assignment = dpll(&cnf).expect("Figure-1 formula is satisfiable");
        let schedule = schedule_from_assignment(&cnf, &assignment).unwrap();
        let inst = reduce(&cnf);
        let completion = schedule
            .validate(&inst)
            .expect("constructed schedule is legal");
        assert!(completion <= inst.horizon);
    }

    #[test]
    fn unsatisfying_assignment_rejected() {
        let cnf = Cnf::new(3, vec![vec![Lit::pos(0), Lit::pos(1), Lit::pos(2)]]);
        assert!(schedule_from_assignment(&cnf, &[false, false, false]).is_none());
    }

    #[test]
    fn unsat_formula_reduces_to_infeasible_instance() {
        // (x0∨x1∨x2) under every polarity of x0,x1 with x2 pinned false…
        // simplest: a compact UNSAT core over 2 clauses and 1 var can't be
        // 3-SAT; use 3 vars with all-8-polarities (UNSAT) but trim to keep
        // B&B cheap: x∧¬x expressed with padding variables.
        let cnf = Cnf::new(
            3,
            vec![
                vec![Lit::pos(0), Lit::pos(1), Lit::pos(2)],
                vec![Lit::pos(0), Lit::pos(1), Lit::neg(2)],
                vec![Lit::pos(0), Lit::neg(1), Lit::pos(2)],
                vec![Lit::pos(0), Lit::neg(1), Lit::neg(2)],
                vec![Lit::neg(0), Lit::pos(1), Lit::pos(2)],
                vec![Lit::neg(0), Lit::pos(1), Lit::neg(2)],
                vec![Lit::neg(0), Lit::neg(1), Lit::pos(2)],
                vec![Lit::neg(0), Lit::neg(1), Lit::neg(2)],
            ],
        );
        assert!(dpll(&cnf).is_none());
        let inst = reduce(&cnf);
        // 8 clauses × 4 blocks… B&B on the full instance is heavy; instead
        // verify a *necessary* feasibility condition directly: any feasible
        // schedule computes m tasks, needing Σ L = m chosen literals — the
        // forward materializer is the only constructive path and it fails.
        assert!(schedule_from_assignment(&cnf, &[false; 3]).is_none());
        assert!(schedule_from_assignment(&cnf, &[true; 3]).is_none());
        assert_eq!(inst.m, 8);
    }

    #[test]
    fn sat_iff_feasible_on_tiny_formulas() {
        // Exhaustive check on random 2-variable-core formulas small enough
        // for exact branch-and-bound.
        let mut rng = SeedPath::root(77).rng();
        let mut seen_sat = false;
        let mut seen_unsat = false;
        for round in 0..12 {
            // 3 vars, 3 clauses → p = 6, N = 12: B&B-sized.
            let cnf = Cnf::random_3sat(3, 3, &mut rng);
            let sat = dpll(&cnf);
            let inst = reduce(&cnf);
            let feasible = bnb::feasible_within(&inst, inst.horizon, 30_000_000)
                .expect("budget generous for N = 12");
            assert_eq!(sat.is_some(), feasible, "round {round}: {cnf}");
            if let Some(a) = sat {
                seen_sat = true;
                // Forward direction must also materialize + validate.
                let schedule = schedule_from_assignment(&cnf, &a).unwrap();
                assert!(schedule.validate(&inst).is_ok());
            } else {
                seen_unsat = true;
            }
        }
        assert!(seen_sat, "sampler produced no satisfiable formula");
        // Unsat at 3 vars / 3 clauses is rare; don't require it, but the
        // dedicated unsat case below covers the other side.
        let _ = seen_unsat;
    }

    #[test]
    fn forced_unsat_tiny_formula_is_infeasible() {
        // (x0∨x0∨x1)∧(x̄0∨x̄0∨x1)∧(x0∨x1∨x1)… craft a genuinely UNSAT tiny
        // one: x0 ∧ x̄0 via two 1-literal clauses is not 3-SAT but the
        // reduction never required 3 literals — Theorem 1 holds for any CNF.
        let cnf = Cnf::new(1, vec![vec![Lit::pos(0)], vec![Lit::neg(0)]]);
        assert!(dpll(&cnf).is_none());
        let inst = reduce(&cnf);
        // p = 2, N = 4, Tprog = 2: trivially solvable exactly.
        let feasible = bnb::feasible_within(&inst, inst.horizon, 1_000_000).unwrap();
        assert!(!feasible);
    }

    #[test]
    fn forced_sat_tiny_formula_is_feasible() {
        let cnf = Cnf::new(1, vec![vec![Lit::pos(0)], vec![Lit::pos(0)]]);
        let a = dpll(&cnf).unwrap();
        let inst = reduce(&cnf);
        let feasible = bnb::feasible_within(&inst, inst.horizon, 1_000_000).unwrap();
        assert!(feasible);
        let schedule = schedule_from_assignment(&cnf, &a).unwrap();
        assert!(schedule.validate(&inst).is_ok());
    }

    #[test]
    fn render_figure_shape() {
        let cnf = figure1_formula();
        let inst = reduce(&cnf);
        let fig = render_figure(&cnf, &inst);
        assert_eq!(fig.lines().count(), 9); // header + 8 literal rows
        assert!(fig.contains('█'));
    }
}
