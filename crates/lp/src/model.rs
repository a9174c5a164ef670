use crate::{LpError, SimplexOptions};
use std::fmt;

/// Identifier of a decision variable within an [`LpProblem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Zero-based index of the variable.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A sparse linear expression `Σ coeff_i · var_i`.
///
/// # Examples
///
/// ```
/// use raven_lp::{LinExpr, LpProblem};
///
/// let mut p = LpProblem::new();
/// let x = p.add_var(0.0, 1.0);
/// let y = p.add_var(0.0, 1.0);
/// let e = LinExpr::new().term(1.0, x).term(-2.0, y);
/// assert_eq!(e.eval(&[0.5, 0.25]), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LinExpr {
    terms: Vec<(VarId, f64)>,
}

impl LinExpr {
    /// An empty (zero) expression.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `coeff * var` and returns the expression (builder style).
    pub fn term(mut self, coeff: f64, var: VarId) -> Self {
        self.push(coeff, var);
        self
    }

    /// Adds `coeff * var` in place.
    pub fn push(&mut self, coeff: f64, var: VarId) {
        if coeff != 0.0 {
            self.terms.push((var, coeff));
        }
    }

    /// The raw `(variable, coefficient)` terms.
    pub fn terms(&self) -> &[(VarId, f64)] {
        &self.terms
    }

    /// Evaluates the expression at a point (indexed by variable).
    ///
    /// # Panics
    ///
    /// Panics when a referenced variable index is out of range for `x`.
    pub fn eval(&self, x: &[f64]) -> f64 {
        self.terms.iter().map(|&(v, c)| c * x[v.0]).sum()
    }

    /// Merges duplicate variables by summing coefficients.
    pub fn normalized(mut self) -> Self {
        self.terms.sort_by_key(|&(v, _)| v);
        let mut out: Vec<(VarId, f64)> = Vec::with_capacity(self.terms.len());
        for (v, c) in self.terms {
            match out.last_mut() {
                Some((pv, pc)) if *pv == v => *pc += c,
                _ => out.push((v, c)),
            }
        }
        out.retain(|&(_, c)| c != 0.0);
        Self { terms: out }
    }
}

impl FromIterator<(VarId, f64)> for LinExpr {
    fn from_iter<I: IntoIterator<Item = (VarId, f64)>>(iter: I) -> Self {
        let mut e = LinExpr::new();
        for (v, c) in iter {
            e.push(c, v);
        }
        e
    }
}

/// Direction of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// `expr ≤ rhs`.
    Le,
    /// `expr ≥ rhs`.
    Ge,
    /// `expr = rhs`.
    Eq,
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Direction {
    /// Minimize the objective (default).
    #[default]
    Minimize,
    /// Maximize the objective.
    Maximize,
}

#[derive(Debug, Clone)]
pub(crate) struct Row {
    pub expr: LinExpr,
    pub sense: Sense,
    pub rhs: f64,
}

/// Well-defined outcome of an LP/MILP solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SolveStatus {
    /// An optimal solution was found.
    Optimal,
    /// The constraints are unsatisfiable.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// A MILP solve ran out of budget (deadline, cancellation, or node
    /// limit) before closing the gap. `best_bound` is the sound *dual*
    /// bound in the optimization direction: the true optimum is `≤
    /// best_bound` for Maximize and `≥ best_bound` for Minimize (it is the
    /// max/min over the incumbent and every open node's parent relaxation;
    /// infinite when not even the root relaxation finished). The attached
    /// [`Solution::values`] hold the best feasible incumbent when one was
    /// found, and [`Solution::objective`] equals `best_bound`.
    BudgetExceeded {
        /// Sound dual bound over the unexplored search space.
        best_bound: f64,
    },
}

/// Result of a successful solver run.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Outcome of the solve.
    pub status: SolveStatus,
    /// Optimal objective value (meaningful only when `status` is
    /// [`SolveStatus::Optimal`]).
    pub objective: f64,
    /// Values of the structural variables (empty unless optimal).
    pub values: Vec<f64>,
    /// Row duals (shadow prices): `duals[i]` is the rate of change of the
    /// optimal objective per unit increase of row `i`'s right-hand side, in
    /// the *user's* optimization orientation. Whenever the status of an LP
    /// solve is [`SolveStatus::Optimal`] this has exactly one entry per
    /// constraint row, in the order the rows were added, and proves the
    /// objective by weak duality over the problem's own variable bounds:
    /// presolve's postsolve moves every reduced cost at a bound it derived
    /// onto the row it came from, and removed redundant rows report 0.
    /// Empty for MILP solves, whose evidence is [`Solution::leaves`].
    pub duals: Vec<f64>,
    /// Farkas infeasibility multipliers: when `status` is
    /// [`SolveStatus::Infeasible`], one entry per constraint row such that
    /// aggregating the rows with these weights yields an inequality no
    /// point in the variable box can satisfy (`≤` rows get non-positive
    /// weights, `≥` rows non-negative, `=` rows are free). Empty when the
    /// infeasibility has no such witness, the status is not Infeasible, or
    /// the solve was a MILP.
    pub farkas: Vec<f64>,
    /// Branch-and-bound evidence of a MILP solve over integer variables:
    /// one leaf proof per node disposed of or left open, against the
    /// problem's own rows and bounds. Empty for LP solves, and for a MILP
    /// run some node of which had no evidence (an unbounded relaxation,
    /// an infeasibility without a ray, an unexplored root).
    pub leaves: Vec<raven_check::BranchLeaf>,
}

impl Solution {
    /// Whether the solve proved optimality.
    pub fn is_optimal(&self) -> bool {
        self.status == SolveStatus::Optimal
    }

    /// Value of `var` in the optimal solution.
    ///
    /// # Panics
    ///
    /// Panics when the solution is not optimal or the variable is unknown.
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.0]
    }
}

/// A linear (or mixed-integer linear) optimization problem with bounded
/// variables.
///
/// This is the Gurobi stand-in used by the RaVeN verifier: build variables
/// and constraints, set an objective, then [`solve`](LpProblem::solve) (pure
/// LP) or [`solve_milp`](LpProblem::solve_milp) (branch & bound over the
/// variables marked integer).
///
/// # Examples
///
/// ```
/// use raven_lp::{Direction, LinExpr, LpProblem, Sense};
///
/// // max x + y  s.t.  x + 2y ≤ 4, 3x + y ≤ 6, 0 ≤ x,y ≤ 10
/// let mut p = LpProblem::new();
/// let x = p.add_var(0.0, 10.0);
/// let y = p.add_var(0.0, 10.0);
/// p.add_constraint(LinExpr::new().term(1.0, x).term(2.0, y), Sense::Le, 4.0);
/// p.add_constraint(LinExpr::new().term(3.0, x).term(1.0, y), Sense::Le, 6.0);
/// p.set_objective(Direction::Maximize, LinExpr::new().term(1.0, x).term(1.0, y));
/// let sol = p.solve().unwrap();
/// assert!(sol.is_optimal());
/// assert!((sol.objective - 2.8).abs() < 1e-7);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LpProblem {
    pub(crate) bounds: Vec<(f64, f64)>,
    pub(crate) integer: Vec<bool>,
    pub(crate) rows: Vec<Row>,
    pub(crate) objective: LinExpr,
    pub(crate) direction: Direction,
}

impl LpProblem {
    /// Creates an empty problem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a continuous variable with bounds `[lo, hi]` (use infinities for
    /// unbounded sides) and returns its id.
    ///
    /// # Panics
    ///
    /// Panics when `lo > hi` or a bound is NaN.
    pub fn add_var(&mut self, lo: f64, hi: f64) -> VarId {
        assert!(!lo.is_nan() && !hi.is_nan(), "variable bound is NaN");
        assert!(lo <= hi, "variable bounds inverted: [{lo}, {hi}]");
        self.bounds.push((lo, hi));
        self.integer.push(false);
        VarId(self.bounds.len() - 1)
    }

    /// Adds a free (unbounded) variable.
    pub fn add_free_var(&mut self) -> VarId {
        self.add_var(f64::NEG_INFINITY, f64::INFINITY)
    }

    /// Adds a binary `{0, 1}` variable (integer-constrained in
    /// [`solve_milp`](LpProblem::solve_milp), relaxed to `[0,1]` in
    /// [`solve`](LpProblem::solve)).
    pub fn add_binary_var(&mut self) -> VarId {
        let v = self.add_var(0.0, 1.0);
        self.integer[v.0] = true;
        v
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.bounds.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.rows.len()
    }

    /// Tightens the bounds of an existing variable (intersection).
    ///
    /// # Panics
    ///
    /// Panics when the resulting bounds are inverted beyond tolerance.
    pub fn tighten_bounds(&mut self, var: VarId, lo: f64, hi: f64) {
        let (cur_lo, cur_hi) = self.bounds[var.0];
        let new_lo = cur_lo.max(lo);
        let new_hi = cur_hi.min(hi);
        assert!(
            new_lo <= new_hi + 1e-9,
            "tighten_bounds: empty domain [{new_lo}, {new_hi}]"
        );
        self.bounds[var.0] = (new_lo, new_hi.max(new_lo));
    }

    /// Adds the constraint `expr (sense) rhs`.
    pub fn add_constraint(&mut self, expr: LinExpr, sense: Sense, rhs: f64) {
        debug_assert!(
            expr.terms()
                .iter()
                .all(|&(v, c)| v.0 < self.num_vars() && c.is_finite()),
            "constraint references unknown variable or non-finite coefficient"
        );
        self.rows.push(Row {
            expr: expr.normalized(),
            sense,
            rhs,
        });
    }

    /// Sets the objective.
    pub fn set_objective(&mut self, direction: Direction, expr: LinExpr) {
        self.direction = direction;
        self.objective = expr.normalized();
    }

    /// Solves the continuous relaxation with default options.
    ///
    /// # Errors
    ///
    /// Returns an [`LpError`] on iteration limits or numerical breakdown.
    pub fn solve(&self) -> Result<Solution, LpError> {
        self.solve_with(&SimplexOptions::default())
    }

    /// Solves the continuous relaxation with explicit options.
    ///
    /// # Errors
    ///
    /// Returns an [`LpError`] on iteration limits or numerical breakdown.
    pub fn solve_with(&self, options: &SimplexOptions) -> Result<Solution, LpError> {
        crate::simplex::solve(self, options, &crate::Budget::unlimited())
    }

    /// Solves the continuous relaxation under a [`Budget`](crate::Budget),
    /// checked every pivot iteration.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::BudgetExceeded`] when the budget expires
    /// mid-solve (an interrupted primal simplex has no sound bound to
    /// report), or other [`LpError`]s on iteration limits / numerical
    /// breakdown.
    pub fn solve_with_budget(
        &self,
        options: &SimplexOptions,
        budget: &crate::Budget<'_>,
    ) -> Result<Solution, LpError> {
        crate::simplex::solve(self, options, budget)
    }

    /// Solves the mixed-integer problem by branch & bound over the
    /// variables created with [`add_binary_var`](LpProblem::add_binary_var).
    ///
    /// # Errors
    ///
    /// Returns an [`LpError`] on node/iteration limits or numerical
    /// breakdown.
    pub fn solve_milp(&self) -> Result<Solution, LpError> {
        self.solve_milp_with(&crate::MilpOptions::default())
    }

    /// Solves the MILP with explicit options.
    ///
    /// # Errors
    ///
    /// Returns an [`LpError`] on iteration limits or numerical breakdown.
    /// Hitting `max_nodes` is *not* an error: the anytime incumbent/dual
    /// bound is returned via [`SolveStatus::BudgetExceeded`].
    pub fn solve_milp_with(&self, options: &crate::MilpOptions) -> Result<Solution, LpError> {
        self.solve_milp_with_budget(options, &crate::Budget::unlimited())
    }

    /// Solves the MILP under a [`Budget`](crate::Budget), checked at every
    /// branch-and-bound node and every simplex pivot inside node
    /// relaxations.
    ///
    /// On budget exhaustion the best sound anytime bound explored so far is
    /// returned via [`SolveStatus::BudgetExceeded`] — never an error.
    ///
    /// # Errors
    ///
    /// Returns an [`LpError`] on iteration limits or numerical breakdown
    /// (pure-LP problems without integer variables also surface
    /// [`LpError::BudgetExceeded`], since a bare LP has no anytime bound).
    pub fn solve_milp_with_budget(
        &self,
        options: &crate::MilpOptions,
        budget: &crate::Budget<'_>,
    ) -> Result<Solution, LpError> {
        crate::milp::solve(self, options, budget, &mut crate::BasisCache::new())
    }

    /// [`solve_milp_with_budget`](LpProblem::solve_milp_with_budget) with a
    /// caller-held [`BasisCache`](crate::BasisCache): the root relaxation
    /// warm-starts from the cached basis of a previous related solve (same
    /// or extended variable/row layout — e.g. the per-label encodings that
    /// share one relaxation) and the cache is refreshed with this solve's
    /// root basis. Purely an accelerator: a stale cache only costs the
    /// warm attempt, never correctness.
    ///
    /// # Errors
    ///
    /// Same contract as
    /// [`solve_milp_with_budget`](LpProblem::solve_milp_with_budget).
    pub fn solve_milp_cached(
        &self,
        options: &crate::MilpOptions,
        budget: &crate::Budget<'_>,
        cache: &mut crate::BasisCache,
    ) -> Result<Solution, LpError> {
        crate::milp::solve(self, options, budget, cache)
    }

    /// Packages the evidence `sol` carries — its branch-and-bound leaves,
    /// else its duals or Farkas ray — into a replayable
    /// [`LpCertificate`](raven_check::LpCertificate) for this problem,
    /// whose claimed bound is `sol`'s own objective (or anytime bound).
    /// `None` when `sol` carries no replayable evidence (an unbounded LP,
    /// a MILP tree with a node lacking evidence).
    pub fn certificate(&self, sol: &Solution) -> Option<raven_check::LpCertificate> {
        crate::certificate::certificate(self, sol)
    }

    /// Checks whether `x` satisfies every constraint and bound within `tol`.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.num_vars() {
            return false;
        }
        for (xi, &(lo, hi)) in x.iter().zip(&self.bounds) {
            if *xi < lo - tol || *xi > hi + tol {
                return false;
            }
        }
        self.rows.iter().all(|row| {
            let v = row.expr.eval(x);
            match row.sense {
                Sense::Le => v <= row.rhs + tol,
                Sense::Ge => v >= row.rhs - tol,
                Sense::Eq => (v - row.rhs).abs() <= tol,
            }
        })
    }
}

impl fmt::Display for LpProblem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LpProblem[{} vars, {} rows]",
            self.num_vars(),
            self.num_constraints()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linexpr_normalizes_duplicates() {
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 1.0);
        let e = LinExpr::new().term(1.0, x).term(2.0, x).normalized();
        assert_eq!(e.terms(), &[(x, 3.0)]);
        let z = LinExpr::new().term(1.0, x).term(-1.0, x).normalized();
        assert!(z.terms().is_empty());
    }

    #[test]
    #[should_panic(expected = "bounds inverted")]
    fn add_var_rejects_inverted_bounds() {
        LpProblem::new().add_var(1.0, 0.0);
    }

    #[test]
    fn is_feasible_checks_rows_and_bounds() {
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 2.0);
        p.add_constraint(LinExpr::new().term(1.0, x), Sense::Le, 1.0);
        assert!(p.is_feasible(&[0.5], 1e-9));
        assert!(!p.is_feasible(&[1.5], 1e-9));
        assert!(!p.is_feasible(&[-0.5], 1e-9));
    }

    #[test]
    fn tighten_bounds_intersects() {
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 2.0);
        p.tighten_bounds(x, 0.5, 5.0);
        assert_eq!(p.bounds[0], (0.5, 2.0));
    }
}
