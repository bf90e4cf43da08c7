//! CNF formulas and a DPLL solver.
//!
//! Theorem 1 reduces 3-SAT to the off-line scheduling problem; to make the
//! reduction *executable* (and testable) this module provides a small,
//! dependency-free DPLL solver with unit propagation and pure-literal
//! elimination. It comfortably solves the formula sizes the reduction
//! experiments use.

/// A propositional literal: variable index + polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lit {
    /// Variable index (0-based).
    pub var: u32,
    /// `true` for a negated occurrence (`x̄`).
    pub negated: bool,
}

impl Lit {
    /// Positive literal of `var`.
    #[must_use]
    pub fn pos(var: u32) -> Self {
        Self {
            var,
            negated: false,
        }
    }

    /// Negative literal of `var`.
    #[must_use]
    pub fn neg(var: u32) -> Self {
        Self { var, negated: true }
    }

    /// Truth value under an assignment.
    #[must_use]
    pub fn eval(self, assignment: &[bool]) -> bool {
        assignment[self.var as usize] != self.negated
    }
}

impl std::fmt::Display for Lit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.negated {
            write!(f, "¬x{}", self.var)
        } else {
            write!(f, "x{}", self.var)
        }
    }
}

/// A disjunction of literals.
pub type Clause = Vec<Lit>;

/// A CNF formula.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cnf {
    /// Number of variables (indices `0..n_vars`).
    pub n_vars: u32,
    /// The clauses.
    pub clauses: Vec<Clause>,
}

impl Cnf {
    /// Builds and sanity-checks a formula.
    ///
    /// # Panics
    /// Panics if a clause is empty or references an out-of-range variable.
    #[must_use]
    pub fn new(n_vars: u32, clauses: Vec<Clause>) -> Self {
        for (i, c) in clauses.iter().enumerate() {
            assert!(!c.is_empty(), "clause {i} is empty");
            for l in c {
                assert!(l.var < n_vars, "clause {i} references x{}", l.var);
            }
        }
        Self { n_vars, clauses }
    }

    /// Evaluates the formula under a complete assignment.
    #[must_use]
    pub fn eval(&self, assignment: &[bool]) -> bool {
        self.clauses
            .iter()
            .all(|c| c.iter().any(|l| l.eval(assignment)))
    }
}

impl std::fmt::Display for Cnf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let clause_strs: Vec<String> = self
            .clauses
            .iter()
            .map(|c| {
                let lits: Vec<String> = c.iter().map(Lit::to_string).collect();
                format!("({})", lits.join(" ∨ "))
            })
            .collect();
        write!(f, "{}", clause_strs.join(" ∧ "))
    }
}

/// DPLL with unit propagation and pure-literal elimination. Returns a
/// satisfying assignment or `None` when unsatisfiable.
#[must_use]
pub fn dpll(cnf: &Cnf) -> Option<Vec<bool>> {
    let mut assignment: Vec<Option<bool>> = vec![None; cnf.n_vars as usize];
    if solve(&cnf.clauses, &mut assignment) {
        // Unconstrained variables default to false.
        Some(assignment.into_iter().map(|a| a.unwrap_or(false)).collect())
    } else {
        None
    }
}

fn solve(clauses: &[Clause], assignment: &mut Vec<Option<bool>>) -> bool {
    // Simplify: drop satisfied clauses, prune false literals.
    let mut simplified: Vec<Clause> = Vec::with_capacity(clauses.len());
    for c in clauses {
        let mut reduced: Clause = Vec::with_capacity(c.len());
        let mut satisfied = false;
        for &l in c {
            match assignment[l.var as usize] {
                Some(v) if v != l.negated => {
                    satisfied = true;
                    break;
                }
                Some(_) => {} // literal false, drop it
                None => reduced.push(l),
            }
        }
        if satisfied {
            continue;
        }
        if reduced.is_empty() {
            return false; // conflict
        }
        simplified.push(reduced);
    }
    if simplified.is_empty() {
        return true;
    }

    // Unit propagation.
    if let Some(unit) = simplified.iter().find(|c| c.len() == 1) {
        let l = unit[0];
        assignment[l.var as usize] = Some(!l.negated);
        if solve(&simplified, assignment) {
            return true;
        }
        assignment[l.var as usize] = None;
        return false;
    }

    // Pure-literal elimination.
    {
        let mut seen_pos = vec![false; assignment.len()];
        let mut seen_neg = vec![false; assignment.len()];
        for c in &simplified {
            for l in c {
                if l.negated {
                    seen_neg[l.var as usize] = true;
                } else {
                    seen_pos[l.var as usize] = true;
                }
            }
        }
        if let Some(var) =
            (0..assignment.len()).find(|&v| assignment[v].is_none() && (seen_pos[v] ^ seen_neg[v]))
        {
            assignment[var] = Some(seen_pos[var]);
            if solve(&simplified, assignment) {
                return true;
            }
            assignment[var] = None;
            return false;
        }
    }

    // Branch on the most frequent unassigned variable.
    let mut counts = vec![0u32; assignment.len()];
    for c in &simplified {
        for l in c {
            counts[l.var as usize] += 1;
        }
    }
    let var = (0..assignment.len())
        .filter(|&v| assignment[v].is_none() && counts[v] > 0)
        .max_by_key(|&v| counts[v])
        .expect("simplified formula has unassigned variables");
    for value in [true, false] {
        assignment[var] = Some(value);
        if solve(&simplified, assignment) {
            return true;
        }
    }
    assignment[var] = None;
    false
}

#[cfg(test)]
impl Cnf {
    /// Uniform random 3-SAT: `m` clauses of 3 distinct variables each.
    ///
    /// # Panics
    /// Panics if `n_vars < 3`.
    #[must_use]
    pub(crate) fn random_3sat(n_vars: u32, m: usize, rng: &mut vg_des::rng::StreamRng) -> Self {
        assert!(n_vars >= 3, "3-SAT needs at least 3 variables");
        let mut clauses = Vec::with_capacity(m);
        for _ in 0..m {
            let mut vars = Vec::with_capacity(3);
            while vars.len() < 3 {
                let v = rng.index(n_vars as usize) as u32;
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
            clauses.push(
                vars.into_iter()
                    .map(|var| Lit {
                        var,
                        negated: rng.f64() < 0.5,
                    })
                    .collect(),
            );
        }
        Self::new(n_vars, clauses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_des::rng::SeedPath;

    #[test]
    fn trivial_sat() {
        let cnf = Cnf::new(1, vec![vec![Lit::pos(0)]]);
        let a = dpll(&cnf).unwrap();
        assert!(a[0]);
        assert!(cnf.eval(&a));
    }

    #[test]
    fn trivial_unsat() {
        let cnf = Cnf::new(1, vec![vec![Lit::pos(0)], vec![Lit::neg(0)]]);
        assert!(dpll(&cnf).is_none());
    }

    #[test]
    fn forced_chain_propagates() {
        // x0 ∧ (¬x0 ∨ x1) ∧ (¬x1 ∨ x2) forces all true.
        let cnf = Cnf::new(
            3,
            vec![
                vec![Lit::pos(0)],
                vec![Lit::neg(0), Lit::pos(1)],
                vec![Lit::neg(1), Lit::pos(2)],
            ],
        );
        let a = dpll(&cnf).unwrap();
        assert_eq!(a, vec![true, true, true]);
    }

    #[test]
    fn pigeonhole_2_into_1_unsat() {
        // Two pigeons, one hole: p0 ∧ p1 ∧ (¬p0 ∨ ¬p1).
        let cnf = Cnf::new(
            2,
            vec![
                vec![Lit::pos(0)],
                vec![Lit::pos(1)],
                vec![Lit::neg(0), Lit::neg(1)],
            ],
        );
        assert!(dpll(&cnf).is_none());
    }

    #[test]
    fn all_negative_clause() {
        let cnf = Cnf::new(3, vec![vec![Lit::neg(0), Lit::neg(1), Lit::neg(2)]]);
        let a = dpll(&cnf).unwrap();
        assert!(cnf.eval(&a));
    }

    #[test]
    fn unsat_3sat_all_eight_polarities() {
        // All 8 polarity combinations over 3 variables: unsatisfiable.
        let mut clauses = Vec::new();
        for mask in 0..8u32 {
            clauses.push(
                (0..3)
                    .map(|v| Lit {
                        var: v,
                        negated: (mask >> v) & 1 == 1,
                    })
                    .collect(),
            );
        }
        let cnf = Cnf::new(3, clauses);
        assert!(dpll(&cnf).is_none());
    }

    #[test]
    fn random_3sat_solutions_verify() {
        let mut rng = SeedPath::root(33).rng();
        let mut sat_count = 0;
        for _ in 0..100 {
            let cnf = Cnf::random_3sat(6, 10, &mut rng);
            if let Some(a) = dpll(&cnf) {
                assert!(cnf.eval(&a), "DPLL returned a non-model for {cnf}");
                sat_count += 1;
            }
        }
        // At ratio m/n ≈ 1.7 almost everything is satisfiable.
        assert!(sat_count > 80, "only {sat_count} satisfiable");
    }

    #[test]
    fn dense_random_3sat_mostly_unsat() {
        let mut rng = SeedPath::root(34).rng();
        let mut unsat = 0;
        for _ in 0..20 {
            // With n = 4 each random 3-clause kills 1/8 of the 16
            // assignments in expectation: E[survivors] = 16·(7/8)^48 ≈ 0.03.
            let cnf = Cnf::random_3sat(4, 48, &mut rng);
            if dpll(&cnf).is_none() {
                unsat += 1;
            }
        }
        assert!(unsat >= 16, "only {unsat}/20 unsat");
    }

    #[test]
    #[should_panic(expected = "is empty")]
    fn empty_clause_rejected() {
        let _ = Cnf::new(1, vec![vec![]]);
    }

    #[test]
    fn display_formats() {
        let cnf = Cnf::new(2, vec![vec![Lit::pos(0), Lit::neg(1)]]);
        assert_eq!(cnf.to_string(), "(x0 ∨ ¬x1)");
    }
}
