//! Bounded-variable two-phase primal simplex over a sparse LU basis
//! factorization.
//!
//! The solver works on the computational form `A x + I s (+ Σ σ_i t_i) = b`
//! with bounds `l ≤ (x, s) ≤ u`, `t ≥ 0`, where one slack `s_i` is added
//! per row (`≤ → [0, ∞)`, `≥ → (-∞, 0]`, `= → [0, 0]`) and one *artificial*
//! `t_i` is added for every row whose initial slack value violates its
//! bounds. Phase 1 minimizes `Σ t_i` from a feasible basic start (the
//! artificials absorb all residuals); phase 2 pins the artificials to zero
//! and minimizes the user objective. Both phases use **fixed** cost
//! vectors, so Bland's anti-cycling rule applies verbatim when degeneracy
//! stalls progress.
//!
//! The basis is never inverted: every use of `B⁻¹` goes through
//! `ftran(a) = B⁻¹a` or `btran(c) = B⁻ᵀc` of a [`BasisLu`] — an LU of the
//! basis at the last refactorization (singleton columns and rows peeled
//! off, the remaining bump factored densely) plus one product-form eta
//! column per pivot since. A refactorization costs `O(nnz(B) + bump³)`
//! and a pivot `O(nnz(w))`.
//!
//! Numerical model: plain `f64` with a feasibility/optimality tolerance of
//! `1e-7`, a two-pass Harris-style ratio test that prefers large pivots,
//! and a refactorization every `refactor_every` pivots. These are the same
//! guarantees a floating-point Gurobi run provides the original RaVeN
//! implementation (see `DESIGN.md`).
//!
//! The eta file accumulates rounding between refactorizations, and on
//! ill-conditioned bases the basic values can drift far enough that the
//! simplex declares optimal a point that violates the real constraints. Every
//! claimed optimum is therefore checked against the original columns
//! ([`Tableau::point_satisfies_rows`]); a point that fails is never
//! returned — the problem is re-solved cold with frequent refactorization
//! instead ([`solve_cold`]).
//!
//! # Warm starts
//!
//! Branch & bound re-solves a near-identical LP at every node: only
//! variable bounds change between a parent and its children. Bound changes
//! leave every reduced cost untouched, so the parent's optimal basis stays
//! *dual*-feasible in the child and a bounded-variable **dual simplex**
//! ([`Tableau::run_dual`]) restores primal feasibility in a handful of
//! pivots instead of a full two-phase cold start. [`solve_reuse`] drives
//! this: it seeds the tableau from a caller-supplied [`Basis`], runs the
//! dual simplex when the basis is dual-feasible (or primal phase 2 alone
//! when it is primal-feasible, the common case when rows were *appended*),
//! and falls back to a cold start whenever the basis is stale — so results
//! are always certified by the same optimality test as a cold solve, and
//! warm starting can never change a verdict. The pivot row needed by the
//! dual ratio test is assembled from sparse row storage
//! (`Tableau::rows_struct`) rather than by scanning dense columns.

use crate::lu::BasisLu;
use crate::{Budget, Direction, LpError, LpProblem, Sense, Solution, SolveStatus};

/// Tunable parameters for the simplex solver.
#[derive(Debug, Clone, PartialEq)]
pub struct SimplexOptions {
    /// Feasibility/optimality tolerance.
    pub tol: f64,
    /// Hard iteration limit (per phase).
    pub max_iters: usize,
    /// Refactor the basis (a fresh LU, an empty eta file) every this many
    /// pivots. A refactorization of a verifier basis (m ≈ 750) costs about
    /// 0.3 ms, while each eta in the file adds `O(nnz(w))` to every `ftran`
    /// and `btran`, so short files pay.
    pub refactor_every: usize,
    /// Consecutive degenerate pivots before switching to Bland's rule.
    pub stall_threshold: usize,
    /// Presolve fixpoint rounds before the simplex (0 disables presolve).
    pub presolve_rounds: usize,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        Self {
            tol: 1e-7,
            max_iters: 50_000,
            refactor_every: 25,
            stall_threshold: 60,
            presolve_rounds: 3,
        }
    }
}

/// Per-variable basis status, stripped of row assignments and values: just
/// enough to rebuild a starting point on a problem with the same (or an
/// extended) variable/row layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BState {
    Basic,
    Lower,
    Upper,
    Free,
}

/// A snapshot of an optimal simplex basis: the states of the `n_struct`
/// structural variables followed by the `m` row slacks.
///
/// A basis taken from problem P can seed any problem P' whose first
/// `n_struct` variables and first `m` rows *correspond* to P's (typically:
/// identical layout with tightened bounds, or P plus appended variables
/// and rows). Seeding with an unrelated basis is still *safe* — the warm
/// paths certify optimality on the actual problem and fall back to a cold
/// start when the basis does not help — it just wastes the warm attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Basis {
    /// States of structurals `0..n_struct` then slacks `0..m`.
    pub(crate) states: Vec<BState>,
    pub(crate) n_struct: usize,
    pub(crate) m: usize,
}

impl Basis {
    /// Whether this basis can seed a problem of the given dimensions.
    pub(crate) fn fits(&self, n_struct: usize, m: usize) -> bool {
        self.n_struct <= n_struct && self.m <= m
    }
}

/// Carries an optimal basis between related solves (for example the
/// per-label MILP encodings that share one relaxation, or repeated calls
/// on the same model).
///
/// Purely an accelerator: a stale or mismatched basis only costs the warm
/// attempt, never correctness — every solve is certified by the same
/// optimality conditions as a cold start.
#[derive(Debug, Clone, Default)]
pub struct BasisCache {
    pub(crate) basis: Option<Basis>,
}

impl BasisCache {
    /// An empty cache (first solve will be a cold start).
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops the cached basis.
    pub fn clear(&mut self) {
        self.basis = None;
    }

    /// Whether a basis is currently cached.
    pub fn is_warm(&self) -> bool {
        self.basis.is_some()
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum VarState {
    Basic(usize),
    NbLower,
    NbUpper,
    NbFree,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    One,
    Two,
}

struct Tableau<'a> {
    opts: &'a SimplexOptions,
    budget: &'a Budget<'a>,
    m: usize,
    n_struct: usize,
    /// Structural + slack count (artificial indices start here).
    n_slack_end: usize,
    n_total: usize,
    /// Sparse columns of the structural part of `A`.
    cols: Vec<Vec<(usize, f64)>>,
    /// Sparse rows of the structural part of `A` (`(col, coef)` per row):
    /// the dual ratio test assembles its pivot row from these instead of
    /// scanning every dense column.
    rows_struct: Vec<Vec<(usize, f64)>>,
    /// Artificial columns: `(row, sign)`.
    art: Vec<(usize, f64)>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// Phase-2 costs (0 for slacks and artificials).
    cost: Vec<f64>,
    rhs: Vec<f64>,
    state: Vec<VarState>,
    basis: Vec<usize>,
    x: Vec<f64>,
    /// Factorization of the basis: `ftran`/`btran` apply `B⁻¹`/`B⁻ᵀ`.
    lu: BasisLu,
    stall_count: usize,
}

enum ColIter<'a> {
    Struct(std::slice::Iter<'a, (usize, f64)>),
    Single(Option<(usize, f64)>),
}

impl Iterator for ColIter<'_> {
    type Item = (usize, f64);

    fn next(&mut self) -> Option<(usize, f64)> {
        match self {
            ColIter::Struct(it) => it.next().copied(),
            ColIter::Single(s) => s.take(),
        }
    }
}

impl<'a> Tableau<'a> {
    fn new(problem: &LpProblem, opts: &'a SimplexOptions, budget: &'a Budget<'a>) -> Self {
        let m = problem.rows.len();
        let n_struct = problem.num_vars();
        let n_slack_end = n_struct + m;
        let mut cols = vec![Vec::new(); n_struct];
        let mut rows_struct = vec![Vec::new(); m];
        for (i, row) in problem.rows.iter().enumerate() {
            for &(v, c) in row.expr.terms() {
                cols[v.0].push((i, c));
                rows_struct[i].push((v.0, c));
            }
        }
        let mut lower = Vec::with_capacity(n_slack_end);
        let mut upper = Vec::with_capacity(n_slack_end);
        for &(lo, hi) in &problem.bounds {
            lower.push(lo);
            upper.push(hi);
        }
        for row in &problem.rows {
            match row.sense {
                Sense::Le => {
                    lower.push(0.0);
                    upper.push(f64::INFINITY);
                }
                Sense::Ge => {
                    lower.push(f64::NEG_INFINITY);
                    upper.push(0.0);
                }
                Sense::Eq => {
                    lower.push(0.0);
                    upper.push(0.0);
                }
            }
        }
        // Phase-2 costs (sign-flipped for maximization).
        let sign = match problem.direction {
            Direction::Minimize => 1.0,
            Direction::Maximize => -1.0,
        };
        let mut cost = vec![0.0; n_slack_end];
        for &(v, c) in problem.objective.terms() {
            cost[v.0] += sign * c;
        }
        let rhs: Vec<f64> = problem.rows.iter().map(|r| r.rhs).collect();
        // Nonbasic structurals at their finite bound closest to zero (or 0
        // when free).
        let mut state = Vec::with_capacity(n_slack_end);
        let mut x = vec![0.0; n_slack_end];
        for j in 0..n_struct {
            let (lo, hi) = (lower[j], upper[j]);
            let (s, v) = if lo.is_finite() && hi.is_finite() {
                if lo.abs() <= hi.abs() {
                    (VarState::NbLower, lo)
                } else {
                    (VarState::NbUpper, hi)
                }
            } else if lo.is_finite() {
                (VarState::NbLower, lo)
            } else if hi.is_finite() {
                (VarState::NbUpper, hi)
            } else {
                (VarState::NbFree, 0.0)
            };
            state.push(s);
            x[j] = v;
        }
        // Row residuals with all structurals nonbasic: resid = b − N x_N.
        let mut resid = rhs.clone();
        for (j, xj) in x.iter().enumerate().take(n_struct) {
            if *xj != 0.0 {
                for &(i, a) in &cols[j] {
                    resid[i] -= a * xj;
                }
            }
        }
        // Per row: clamp the slack into its bounds; if the residual exceeds
        // them, an artificial absorbs the remainder and becomes basic,
        // otherwise the slack itself is basic at the residual.
        let mut art: Vec<(usize, f64)> = Vec::new();
        let mut basis = Vec::with_capacity(m);
        for (i, &r) in resid.iter().enumerate() {
            let sj = n_struct + i;
            let (slo, shi) = (lower[sj], upper[sj]);
            if r >= slo - 0.0 && r <= shi + 0.0 {
                state.push(VarState::Basic(i));
                x[sj] = r;
                basis.push(sj);
            } else {
                // Slack parks at its nearest bound; artificial covers the
                // gap with a positive value.
                let s_val = r.clamp(slo, shi);
                let s_val = if s_val.is_finite() { s_val } else { 0.0 };
                state.push(if s_val == shi && shi.is_finite() {
                    VarState::NbUpper
                } else {
                    VarState::NbLower
                });
                x[sj] = s_val;
                let gap = r - s_val;
                let sigma = gap.signum();
                art.push((i, sigma));
                basis.push(n_slack_end + art.len() - 1);
                // Value filled in below once the variable exists.
            }
        }
        let n_total = n_slack_end + art.len();
        for _ in 0..art.len() {
            lower.push(0.0);
            upper.push(f64::INFINITY);
            cost.push(0.0);
            x.push(0.0);
        }
        // Mark artificial basics and set their values.
        for (ai, &(row, sigma)) in art.iter().enumerate() {
            let var = n_slack_end + ai;
            state.push(VarState::Basic(row));
            let r = resid[row];
            let s_val = x[n_struct + row];
            x[var] = (r - s_val) * sigma; // = |gap| ≥ 0
        }
        let mut tab = Self {
            opts,
            budget,
            m,
            n_struct,
            n_slack_end,
            n_total,
            cols,
            rows_struct,
            art,
            lower,
            upper,
            cost,
            rhs,
            state,
            basis,
            x,
            lu: BasisLu::default(),
            stall_count: 0,
        };
        // Slacks and artificials (columns σ·e_row) peel as singletons.
        tab.lu = BasisLu::factor(m, tab.basis.iter().map(|&v| tab.col(v)))
            .expect("a slack/artificial basis is a signed identity");
        tab
    }

    fn col(&self, j: usize) -> ColIter<'_> {
        if j < self.n_struct {
            ColIter::Struct(self.cols[j].iter())
        } else if j < self.n_slack_end {
            ColIter::Single(Some((j - self.n_struct, 1.0)))
        } else {
            let (row, sigma) = self.art[j - self.n_slack_end];
            ColIter::Single(Some((row, sigma)))
        }
    }

    fn phase_cost(&self, j: usize, phase: Phase) -> f64 {
        match phase {
            Phase::One => {
                if j >= self.n_slack_end {
                    1.0
                } else {
                    0.0
                }
            }
            Phase::Two => self.cost[j],
        }
    }

    /// Recomputes the basic variable values `x_B = B^{-1}(b − N x_N)`.
    fn recompute_basics(&mut self) {
        let mut resid = self.rhs.clone();
        for j in 0..self.n_total {
            if matches!(self.state[j], VarState::Basic(_)) {
                continue;
            }
            let xj = self.x[j];
            if xj == 0.0 {
                continue;
            }
            for (i, a) in self.col(j) {
                resid[i] -= a * xj;
            }
        }
        let x_b = self.lu.ftran(resid);
        for (&var, v) in self.basis.iter().zip(x_b) {
            self.x[var] = v;
        }
    }

    /// Refactors the current basis from its columns, discarding the eta
    /// file, and recomputes the basic values.
    fn refactorize(&mut self) -> Result<(), LpError> {
        crate::metrics::LP_REFACTORIZATIONS.inc();
        let _timer = raven_obs::Timer::start(&crate::metrics::LP_REFACTOR_SECONDS);
        self.lu = BasisLu::factor(self.m, self.basis.iter().map(|&v| self.col(v)))?;
        self.recompute_basics();
        Ok(())
    }

    /// Refactors once the eta file reaches `refactor_every` pivots.
    fn refactor_if_due(&mut self) -> Result<(), LpError> {
        if self.lu.updates() >= self.opts.refactor_every {
            self.refactorize()?;
        }
        Ok(())
    }

    /// Simplex multipliers `y = B^{-T} c_B` for the given phase.
    fn multipliers(&self, phase: Phase) -> Vec<f64> {
        let c_b = self
            .basis
            .iter()
            .map(|&v| self.phase_cost(v, phase))
            .collect();
        self.lu.btran(c_b)
    }

    /// Row `r` of `B^{-1}`, i.e. `B^{-T} e_r`.
    fn inverse_row(&self, r: usize) -> Vec<f64> {
        let mut e_r = vec![0.0; self.m];
        e_r[r] = 1.0;
        self.lu.btran(e_r)
    }

    fn reduced_cost(&self, j: usize, y: &[f64], phase: Phase) -> f64 {
        let mut d = self.phase_cost(j, phase);
        for (i, a) in self.col(j) {
            d -= y[i] * a;
        }
        d
    }

    /// Picks an entering variable `(var, direction)`; `None` means optimal
    /// for this phase. Bland mode returns the lowest-index eligible
    /// variable.
    fn price(&self, y: &[f64], phase: Phase, bland: bool) -> Option<(usize, f64)> {
        let tol = self.opts.tol;
        let mut best: Option<(usize, f64, f64)> = None;
        for j in 0..self.n_total {
            if matches!(self.state[j], VarState::Basic(_)) {
                continue;
            }
            // Fixed variables (lo == hi) can never move; pricing them leads
            // to endless zero-length "bound flips".
            if self.upper[j] - self.lower[j] <= 0.0 {
                continue;
            }
            let dir = match self.state[j] {
                VarState::Basic(_) => unreachable!("filtered above"),
                VarState::NbLower => 1.0,
                VarState::NbUpper => -1.0,
                VarState::NbFree => 0.0,
            };
            let d = self.reduced_cost(j, y, phase);
            let (eligible, dir) = if dir == 0.0 {
                if d < -tol {
                    (true, 1.0)
                } else if d > tol {
                    (true, -1.0)
                } else {
                    (false, 0.0)
                }
            } else if dir > 0.0 {
                (d < -tol, 1.0)
            } else {
                (d > tol, -1.0)
            };
            if !eligible {
                continue;
            }
            if bland {
                return Some((j, dir));
            }
            let score = d.abs();
            match best {
                Some((_, _, s)) if s >= score => {}
                _ => best = Some((j, dir, score)),
            }
        }
        best.map(|(j, d, _)| (j, d))
    }

    /// `w = B^{-1} a_j`.
    fn ftran(&self, j: usize) -> Vec<f64> {
        let mut a = vec![0.0; self.m];
        for (r, v) in self.col(j) {
            a[r] += v;
        }
        self.lu.ftran(a)
    }

    /// Two-pass (Harris) ratio test; under Bland's rule a strict test with
    /// lowest-variable-index tie-breaking is used instead. Returns the step
    /// and blocking row (`None` for a bound flip); `Err(())` when the
    /// direction is unbounded.
    #[allow(clippy::result_unit_err)]
    fn ratio_test(
        &self,
        j: usize,
        dir: f64,
        w: &[f64],
        bland: bool,
    ) -> Result<(f64, Option<usize>), ()> {
        let own = self.upper[j] - self.lower[j];
        let own = if own.is_finite() { own } else { f64::INFINITY };
        let relax = if bland { 0.0 } else { self.opts.tol };
        // Pass 1: relaxed minimum step.
        let mut t_relaxed = own;
        for (i, &wi) in w.iter().enumerate() {
            let delta = -dir * wi;
            if delta.abs() <= 1e-11 {
                continue;
            }
            let var = self.basis[i];
            let v = self.x[var];
            let target = if delta > 0.0 {
                self.upper[var]
            } else {
                self.lower[var]
            };
            if !target.is_finite() {
                continue;
            }
            let ti = (((target - v) / delta) + relax / delta.abs()).max(0.0);
            if ti < t_relaxed {
                t_relaxed = ti;
            }
        }
        if !t_relaxed.is_finite() {
            return Err(());
        }
        // Pass 2: choose the blocking row.
        let mut blocking: Option<usize> = None;
        let mut best_pivot = 0.0f64;
        let mut best_var = usize::MAX;
        let mut t_exact = f64::INFINITY;
        for (i, &wi) in w.iter().enumerate() {
            let delta = -dir * wi;
            if delta.abs() <= 1e-11 {
                continue;
            }
            let var = self.basis[i];
            let v = self.x[var];
            let target = if delta > 0.0 {
                self.upper[var]
            } else {
                self.lower[var]
            };
            if !target.is_finite() {
                continue;
            }
            let ti = ((target - v) / delta).max(0.0);
            if ti > t_relaxed {
                continue;
            }
            if bland {
                // Strictly smallest step; ties broken by variable index.
                if ti < t_exact - 1e-15 || (ti <= t_exact + 1e-15 && var < best_var) {
                    t_exact = ti.min(t_exact);
                    blocking = Some(i);
                    best_var = var;
                }
            } else if wi.abs() > best_pivot {
                best_pivot = wi.abs();
                blocking = Some(i);
                t_exact = ti;
            }
        }
        match blocking {
            Some(_) if t_exact <= own => Ok((t_exact, blocking)),
            _ if own.is_finite() => Ok((own, None)),
            Some(_) => Ok((t_exact, blocking)),
            None => Err(()),
        }
    }

    fn apply_step(&mut self, j: usize, dir: f64, t: f64, w: &[f64]) {
        if t != 0.0 {
            self.x[j] += dir * t;
            for (i, &wi) in w.iter().enumerate() {
                self.x[self.basis[i]] -= dir * t * wi;
            }
        }
    }

    /// Replaces basic row `r` with entering variable `j`, recording the
    /// pivot as an eta column of `w = B^{-1} a_j`.
    fn pivot(&mut self, r: usize, j: usize, w: &[f64]) -> Result<(), LpError> {
        if w[r].abs() < 1e-10 {
            return Err(LpError::SingularBasis);
        }
        self.lu.update(r, w);
        self.basis[r] = j;
        self.state[j] = VarState::Basic(r);
        Ok(())
    }

    /// Objective of the current point under the given phase's costs.
    fn phase_objective(&self, phase: Phase) -> f64 {
        (0..self.n_total)
            .map(|j| self.phase_cost(j, phase) * self.x[j])
            .sum()
    }

    /// Runs the simplex for one phase to optimality.
    fn run_phase(&mut self, phase: Phase) -> Result<SolveStatus, LpError> {
        self.stall_count = 0;
        for _iter in 0..self.opts.max_iters {
            // Budget check every pivot: an exhausted budget aborts the
            // phase immediately (there is no sound partial bound to keep —
            // the current iterate under-estimates the optimum).
            if !self.budget.is_unlimited() && self.budget.exhausted() {
                crate::metrics::LP_BUDGET_EXHAUSTED.inc();
                return Err(LpError::BudgetExceeded);
            }
            crate::chaos::pivot_stall_point();
            crate::metrics::SIMPLEX_PIVOTS.inc();
            self.refactor_if_due()?;
            let bland = self.stall_count >= self.opts.stall_threshold;
            let y = self.multipliers(phase);
            let Some((j, dir)) = self.price(&y, phase, bland) else {
                return Ok(SolveStatus::Optimal);
            };
            let w = self.ftran(j);
            let (t, blocking) = match self.ratio_test(j, dir, &w, bland) {
                Ok(res) => res,
                Err(()) => return Ok(SolveStatus::Unbounded),
            };
            if t <= 1e-11 {
                self.stall_count += 1;
            } else {
                self.stall_count = 0;
            }
            self.apply_step(j, dir, t, &w);
            match blocking {
                None => {
                    self.state[j] = if dir > 0.0 {
                        VarState::NbUpper
                    } else {
                        VarState::NbLower
                    };
                    self.x[j] = if dir > 0.0 {
                        self.upper[j]
                    } else {
                        self.lower[j]
                    };
                }
                Some(r) => {
                    let leaving = self.basis[r];
                    let lv = self.x[leaving];
                    let to_upper =
                        (lv - self.upper[leaving]).abs() <= (lv - self.lower[leaving]).abs();
                    self.state[leaving] = if to_upper && self.upper[leaving].is_finite() {
                        VarState::NbUpper
                    } else if self.lower[leaving].is_finite() {
                        VarState::NbLower
                    } else if self.upper[leaving].is_finite() {
                        VarState::NbUpper
                    } else {
                        VarState::NbFree
                    };
                    self.x[leaving] = match self.state[leaving] {
                        VarState::NbUpper => self.upper[leaving],
                        VarState::NbLower => self.lower[leaving],
                        _ => lv,
                    };
                    self.pivot(r, j, &w)?;
                    if self.lu.updates().is_multiple_of(64) {
                        self.recompute_basics();
                    }
                }
            }
        }
        Err(LpError::IterationLimit {
            limit: self.opts.max_iters,
        })
    }

    fn run(&mut self) -> Result<SolveStatus, LpError> {
        if !self.art.is_empty() {
            match self.run_phase(Phase::One)? {
                SolveStatus::Optimal => {}
                // Phase 1 is bounded below by 0, so an "unbounded" outcome
                // signals numerical breakdown.
                _ => return Err(LpError::SingularBasis),
            }
            self.recompute_basics();
            if self.phase_objective(Phase::One) > self.opts.tol * 10.0 {
                return Ok(SolveStatus::Infeasible);
            }
            // Pin the artificials to zero for phase 2.
            for ai in 0..self.art.len() {
                let var = self.n_slack_end + ai;
                self.upper[var] = 0.0;
                if !matches!(self.state[var], VarState::Basic(_)) {
                    self.state[var] = VarState::NbLower;
                    self.x[var] = 0.0;
                }
            }
        }
        self.run_phase(Phase::Two)
    }

    fn objective_value(&self, problem: &LpProblem) -> f64 {
        problem.objective.eval(&self.x[..self.n_struct])
    }

    /// Builds a tableau seeded from a previously extracted basis instead of
    /// the all-slack cold start. Variables and rows beyond the basis prefix
    /// get the cold-start defaults (nonbasic at nearest bound / slack
    /// basic). `None` when the basis cannot form a full, factorizable basis
    /// for this problem — the caller falls back to a cold start.
    fn with_basis(
        problem: &LpProblem,
        opts: &'a SimplexOptions,
        budget: &'a Budget<'a>,
        warm: &Basis,
    ) -> Option<Self> {
        let m = problem.rows.len();
        let n_struct = problem.num_vars();
        if !warm.fits(n_struct, m) {
            return None;
        }
        let n_slack_end = n_struct + m;
        let mut cols = vec![Vec::new(); n_struct];
        let mut rows_struct = vec![Vec::new(); m];
        for (i, row) in problem.rows.iter().enumerate() {
            for &(v, c) in row.expr.terms() {
                cols[v.0].push((i, c));
                rows_struct[i].push((v.0, c));
            }
        }
        let mut lower = Vec::with_capacity(n_slack_end);
        let mut upper = Vec::with_capacity(n_slack_end);
        for &(lo, hi) in &problem.bounds {
            lower.push(lo);
            upper.push(hi);
        }
        for row in &problem.rows {
            match row.sense {
                Sense::Le => {
                    lower.push(0.0);
                    upper.push(f64::INFINITY);
                }
                Sense::Ge => {
                    lower.push(f64::NEG_INFINITY);
                    upper.push(0.0);
                }
                Sense::Eq => {
                    lower.push(0.0);
                    upper.push(0.0);
                }
            }
        }
        let sign = match problem.direction {
            Direction::Minimize => 1.0,
            Direction::Maximize => -1.0,
        };
        let mut cost = vec![0.0; n_slack_end];
        for &(v, c) in problem.objective.terms() {
            cost[v.0] += sign * c;
        }
        let rhs: Vec<f64> = problem.rows.iter().map(|r| r.rhs).collect();
        let mut state = vec![VarState::NbFree; n_slack_end];
        let mut x = vec![0.0; n_slack_end];
        let mut basis: Vec<usize> = Vec::with_capacity(m);
        for j in 0..n_slack_end {
            // Warm prefix state: structurals share indices; slack i of the
            // warm problem maps to slack i here. New rows start slack-basic
            // (their slack absorbs the row residual), new structurals get
            // the cold-start parking rule.
            let warm_state = if j < n_struct {
                (j < warm.n_struct).then(|| warm.states[j])
            } else {
                let i = j - n_struct;
                if i < warm.m {
                    Some(warm.states[warm.n_struct + i])
                } else {
                    Some(BState::Basic)
                }
            };
            if warm_state == Some(BState::Basic) {
                basis.push(j);
                continue; // state assigned below once the row index is known
            }
            let (s, v) = park(warm_state, lower[j], upper[j]);
            state[j] = s;
            x[j] = v;
        }
        if basis.len() != m {
            return None;
        }
        for (i, &var) in basis.iter().enumerate() {
            state[var] = VarState::Basic(i);
        }
        let mut tab = Self {
            opts,
            budget,
            m,
            n_struct,
            n_slack_end,
            n_total: n_slack_end,
            cols,
            rows_struct,
            art: Vec::new(),
            lower,
            upper,
            cost,
            rhs,
            state,
            basis,
            x,
            lu: BasisLu::default(),
            stall_count: 0,
        };
        // A numerically singular warm basis is simply not reusable.
        tab.refactorize().ok()?;
        Some(tab)
    }

    /// Pivots zero-valued basic artificials out of an optimal basis so it
    /// is expressible over structurals and slacks alone — the form
    /// [`Tableau::extract_basis`] needs for warm-start reuse. Phase 1
    /// routinely leaves artificials basic at level 0 on equality rows, and
    /// such a basis would otherwise be unreusable.
    ///
    /// Only degeneracy-preserving swaps are taken: the entering column
    /// must have a ~zero phase-2 reduced cost, so the multipliers — and
    /// with them the reported duals — are unchanged, and the solution
    /// point does not move (the leaving artificial sits at 0). An
    /// artificial whose row admits no such column (a linearly dependent
    /// row) is left basic; extraction then skips the basis, which only
    /// costs the warm start, never correctness.
    fn drive_out_artificials(&mut self) {
        if !self.basis.iter().any(|&v| v >= self.n_slack_end) {
            return;
        }
        let tol = self.opts.tol * 10.0;
        let y = self.multipliers(Phase::Two);
        for r in 0..self.m {
            let leaving = self.basis[r];
            if leaving < self.n_slack_end || self.x[leaving].abs() > tol {
                continue;
            }
            // Row r of B^-1 gives every candidate's pivot element
            // cheaply: alpha_j = rho · col_j.
            let rho = self.inverse_row(r);
            let mut pick: Option<(usize, f64)> = None;
            for j in 0..self.n_slack_end {
                if matches!(self.state[j], VarState::Basic(_)) {
                    continue;
                }
                let alpha: f64 = self.col(j).map(|(i, a)| rho[i] * a).sum();
                if alpha.abs() <= 1e-7 || self.reduced_cost(j, &y, Phase::Two).abs() > tol {
                    continue;
                }
                if pick.is_none_or(|(_, best)| alpha.abs() > best) {
                    pick = Some((j, alpha.abs()));
                }
            }
            let Some((j, _)) = pick else { continue };
            let w = self.ftran(j);
            if w[r].abs() < 1e-10 || self.pivot(r, j, &w).is_err() {
                continue;
            }
            self.state[leaving] = VarState::NbLower;
            self.x[leaving] = 0.0;
        }
    }

    /// Snapshot of the current basis for reuse; `None` while an artificial
    /// is still basic (such a basis has no meaning outside this solve).
    fn extract_basis(&self) -> Option<Basis> {
        if self.basis.iter().any(|&v| v >= self.n_slack_end) {
            return None;
        }
        let states = self.state[..self.n_slack_end]
            .iter()
            .map(|s| match s {
                VarState::Basic(_) => BState::Basic,
                VarState::NbLower => BState::Lower,
                VarState::NbUpper => BState::Upper,
                VarState::NbFree => BState::Free,
            })
            .collect();
        Some(Basis {
            states,
            n_struct: self.n_struct,
            m: self.m,
        })
    }

    /// Whether every nonbasic reduced cost has the sign optimality
    /// requires — the invariant the dual simplex maintains.
    fn dual_feasible(&self) -> bool {
        let tol = self.opts.tol * 10.0;
        let y = self.multipliers(Phase::Two);
        for j in 0..self.n_slack_end {
            if matches!(self.state[j], VarState::Basic(_)) {
                continue;
            }
            // Fixed variables satisfy any reduced-cost sign.
            if self.upper[j] - self.lower[j] <= 0.0 {
                continue;
            }
            let d = self.reduced_cost(j, &y, Phase::Two);
            let ok = match self.state[j] {
                VarState::NbLower => d >= -tol,
                VarState::NbUpper => d <= tol,
                VarState::NbFree => d.abs() <= tol,
                VarState::Basic(_) => unreachable!("filtered above"),
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Whether every basic value sits within its bounds (nonbasics are at
    /// bounds by construction).
    fn primal_feasible(&self) -> bool {
        let tol = self.opts.tol * 10.0;
        self.basis
            .iter()
            .all(|&v| self.x[v] >= self.lower[v] - tol && self.x[v] <= self.upper[v] + tol)
    }

    /// Whether the current point satisfies `A x + s (+ σ t) = b` and every
    /// basic bound, recomputed in O(nnz) from the real columns rather than
    /// trusted from the factorization. A failure means the basic values have
    /// drifted and the claimed optimum is not a feasible point at all.
    fn point_satisfies_rows(&self) -> bool {
        let tol = self.opts.tol * 10.0;
        let mut resid = self.rhs.clone();
        let mut scale: Vec<f64> = self.rhs.iter().map(|b| b.abs()).collect();
        for j in 0..self.n_total {
            let xj = self.x[j];
            if xj == 0.0 {
                continue;
            }
            for (i, a) in self.col(j) {
                resid[i] -= a * xj;
                scale[i] = scale[i].max((a * xj).abs());
            }
        }
        let rows_ok = resid
            .iter()
            .zip(&scale)
            .all(|(r, s)| r.abs() <= tol * (1.0 + s));
        rows_ok
            && self.basis.iter().all(|&v| {
                let (x, lo, hi) = (self.x[v], self.lower[v], self.upper[v]);
                x >= lo - tol * (1.0 + lo.abs()) && x <= hi + tol * (1.0 + hi.abs())
            })
    }

    /// Bounded-variable dual simplex: starting from a dual-feasible basis,
    /// repairs primal bound violations one leaving variable at a time while
    /// keeping every reduced cost correctly signed. Converges in a few
    /// pivots when only variable bounds changed since the basis was
    /// optimal.
    fn run_dual(&mut self) -> Result<DualOutcome, LpError> {
        self.stall_count = 0;
        let tol = self.opts.tol;
        let mut alpha = vec![0.0; self.n_slack_end];
        for _iter in 0..self.opts.max_iters {
            if !self.budget.is_unlimited() && self.budget.exhausted() {
                crate::metrics::LP_BUDGET_EXHAUSTED.inc();
                return Err(LpError::BudgetExceeded);
            }
            crate::chaos::pivot_stall_point();
            crate::metrics::LP_DUAL_PIVOTS.inc();
            self.refactor_if_due()?;
            // Leaving variable: the basic with the largest bound violation.
            let mut leave: Option<(usize, f64, bool)> = None;
            for (i, &var) in self.basis.iter().enumerate() {
                let v = self.x[var];
                if v > self.upper[var] + tol {
                    let viol = v - self.upper[var];
                    if leave.is_none_or(|(_, bv, _)| viol > bv) {
                        leave = Some((i, viol, true));
                    }
                } else if v < self.lower[var] - tol {
                    let viol = self.lower[var] - v;
                    if leave.is_none_or(|(_, bv, _)| viol > bv) {
                        leave = Some((i, viol, false));
                    }
                }
            }
            let Some((r, _, above)) = leave else {
                return Ok(DualOutcome::PrimalFeasible);
            };
            if self.stall_count >= self.opts.stall_threshold {
                // Degenerate loop: hand the node to the cold solver rather
                // than risk cycling.
                return Ok(DualOutcome::Stalled);
            }
            // Pivot row over the nonbasic columns, assembled sparsely:
            // alpha = (row r of B^-1) · A restricted to structurals+slacks.
            let rho = self.inverse_row(r);
            alpha.fill(0.0);
            for (i, &ri) in rho.iter().enumerate() {
                if ri == 0.0 {
                    continue;
                }
                for &(col, coef) in &self.rows_struct[i] {
                    alpha[col] += ri * coef;
                }
                alpha[self.n_struct + i] += ri;
            }
            let y = self.multipliers(Phase::Two);
            let sigma = if above { 1.0 } else { -1.0 };
            // Entering variable: dual ratio test. Eligibility keeps the
            // entering step's primal direction consistent with removing the
            // violation; the min ratio |d/alpha| keeps every other reduced
            // cost correctly signed after the pivot. Ties prefer the
            // largest pivot magnitude for stability.
            let mut best: Option<(usize, f64, f64)> = None;
            for (j, &aj) in alpha.iter().enumerate() {
                if matches!(self.state[j], VarState::Basic(_)) {
                    continue;
                }
                if self.upper[j] - self.lower[j] <= 0.0 {
                    continue;
                }
                let a = sigma * aj;
                let from_lower = matches!(self.state[j], VarState::NbLower | VarState::NbFree);
                let from_upper = matches!(self.state[j], VarState::NbUpper | VarState::NbFree);
                let eligible = (from_lower && a > 1e-9) || (from_upper && a < -1e-9);
                if !eligible {
                    continue;
                }
                let d = self.reduced_cost(j, &y, Phase::Two);
                // Dual feasibility bounds d's sign; clamp the tolerance
                // residue so ratios stay non-negative.
                let ratio = (d / a).max(0.0);
                let better = match best {
                    None => true,
                    Some((_, br, ba)) => {
                        ratio < br - 1e-12 || (ratio <= br + 1e-12 && a.abs() > ba)
                    }
                };
                if better {
                    best = Some((j, ratio, a.abs()));
                }
            }
            let Some((j, _, _)) = best else {
                // Dual unbounded ⇒ primal infeasible. The caller re-proves
                // this with a cold phase-1 run before trusting it: a false
                // infeasible here (tolerance artifact) would unsoundly
                // prune a branch-and-bound node.
                return Ok(DualOutcome::Infeasible);
            };
            let w = self.ftran(j);
            let piv = w[r];
            if piv.abs() < 1e-10 {
                return Err(LpError::SingularBasis);
            }
            let leaving = self.basis[r];
            let bound = if above {
                self.upper[leaving]
            } else {
                self.lower[leaving]
            };
            let t = (self.x[leaving] - bound) / piv;
            if t.abs() <= 1e-11 {
                self.stall_count += 1;
            } else {
                self.stall_count = 0;
            }
            // Primal step: entering moves by t, basics absorb, the leaving
            // variable lands exactly on its violated bound.
            self.x[j] += t;
            for (i, &wi) in w.iter().enumerate() {
                if wi != 0.0 {
                    self.x[self.basis[i]] -= wi * t;
                }
            }
            self.state[leaving] = if above {
                VarState::NbUpper
            } else {
                VarState::NbLower
            };
            self.x[leaving] = bound;
            self.pivot(r, j, &w)?;
            if self.lu.updates().is_multiple_of(64) {
                self.recompute_basics();
            }
        }
        Err(LpError::IterationLimit {
            limit: self.opts.max_iters,
        })
    }

    /// Runs the warm-started solve: dual simplex when the seeded basis is
    /// dual-feasible, primal phase 2 when it is primal-feasible (typical
    /// after appending rows the old optimum satisfies), `Stale` otherwise.
    /// Either path finishes with the primal optimality test, so a `Solved`
    /// outcome carries exactly the certificate a cold start would.
    fn warm_run(&mut self) -> Result<WarmOutcome, LpError> {
        if self.dual_feasible() {
            crate::metrics::LP_WARM_STARTS.inc();
            match self.run_dual()? {
                DualOutcome::PrimalFeasible => self.run_phase(Phase::Two).map(WarmOutcome::Solved),
                DualOutcome::Infeasible | DualOutcome::Stalled => Ok(WarmOutcome::Stale),
            }
        } else if self.primal_feasible() {
            crate::metrics::LP_WARM_STARTS.inc();
            self.run_phase(Phase::Two).map(WarmOutcome::Solved)
        } else {
            Ok(WarmOutcome::Stale)
        }
    }
}

/// Outcome of a dual-simplex run.
enum DualOutcome {
    /// All basics back within bounds: the point is primal- and
    /// dual-feasible, i.e. optimal up to the final pricing pass.
    PrimalFeasible,
    /// No entering column: the dual is unbounded, the primal infeasible
    /// (subject to cold confirmation).
    Infeasible,
    /// Degenerate stall; the basis is not making progress.
    Stalled,
}

/// Outcome of a warm-start attempt.
enum WarmOutcome {
    Solved(SolveStatus),
    /// The seeded basis did not lead anywhere; redo from cold.
    Stale,
}

/// Parking rule for a nonbasic variable: honour the warm state when its
/// bound is finite, otherwise fall back to the cold-start rule (finite
/// bound nearest zero, free at zero).
fn park(warm: Option<BState>, lo: f64, hi: f64) -> (VarState, f64) {
    match warm {
        Some(BState::Lower) if lo.is_finite() => (VarState::NbLower, lo),
        Some(BState::Upper) if hi.is_finite() => (VarState::NbUpper, hi),
        Some(BState::Free) if !lo.is_finite() && !hi.is_finite() => (VarState::NbFree, 0.0),
        _ => {
            if lo.is_finite() && hi.is_finite() {
                if lo.abs() <= hi.abs() {
                    (VarState::NbLower, lo)
                } else {
                    (VarState::NbUpper, hi)
                }
            } else if lo.is_finite() {
                (VarState::NbLower, lo)
            } else if hi.is_finite() {
                (VarState::NbUpper, hi)
            } else {
                (VarState::NbFree, 0.0)
            }
        }
    }
}

fn validate_bounds(problem: &LpProblem) -> Result<(), LpError> {
    for (i, &(lo, hi)) in problem.bounds.iter().enumerate() {
        if lo > hi {
            return Err(LpError::InvalidModel(format!(
                "variable {i} has inverted bounds"
            )));
        }
    }
    Ok(())
}

pub(crate) fn empty_solution(status: SolveStatus) -> Solution {
    Solution {
        status,
        objective: 0.0,
        values: Vec::new(),
        duals: Vec::new(),
        farkas: Vec::new(),
        leaves: Vec::new(),
    }
}

/// A finished solve plus the optimal basis (for warm starts).
struct Solved {
    sol: Solution,
    basis: Option<Basis>,
}

/// Extracts the solution, duals, and basis from a tableau
/// whose run ended with `status`. `None` when the run claims `Optimal` but
/// its point fails [`Tableau::point_satisfies_rows`]: such a point must
/// never be returned.
fn finish_tableau(
    mut tableau: Tableau<'_>,
    problem: &LpProblem,
    status: SolveStatus,
) -> Option<Solved> {
    Some(match status {
        SolveStatus::Optimal => {
            tableau.drive_out_artificials();
            tableau.recompute_basics();
            if !tableau.point_satisfies_rows() {
                crate::metrics::LP_OPTIMUM_CHECK_FAILURES.inc();
                return None;
            }
            // Row duals in the user's orientation: the internal problem is
            // always a minimization (costs negated for Maximize), so the
            // user-facing shadow price flips sign for Maximize.
            let sign = match problem.direction {
                Direction::Minimize => 1.0,
                Direction::Maximize => -1.0,
            };
            let y = tableau.multipliers(Phase::Two);
            let duals = y.iter().map(|&v| sign * v).collect();
            let basis = tableau.extract_basis();
            Solved {
                sol: Solution {
                    status,
                    objective: tableau.objective_value(problem),
                    values: tableau.x[..tableau.n_struct].to_vec(),
                    duals,
                    farkas: Vec::new(),
                    leaves: Vec::new(),
                },
                basis,
            }
        }
        SolveStatus::Infeasible => {
            // The phase-1 multipliers are a Farkas certificate: with the
            // phase-1 objective strictly positive at its optimum, weak
            // duality gives `yᵀb − sup_box (Aᵀy)ᵀx = phase-1 objective > 0`
            // provided each multiplier respects its row's sign (`≤` rows
            // need `y ≤ 0`, `≥` rows `y ≥ 0`, since the opposite sign lets
            // the row's slack absorb everything). Float noise can leave
            // tol-sized sign violations — clamp those to zero; a large
            // violation means the multipliers do not certify anything, so
            // emit none rather than a bogus ray.
            let y = tableau.multipliers(Phase::One);
            let tol = tableau.opts.tol * 100.0;
            let mut farkas = Vec::with_capacity(y.len());
            let mut usable = y.len() == problem.rows.len();
            for (row, &yi) in problem.rows.iter().zip(&y) {
                let clamped = match row.sense {
                    Sense::Le if yi > 0.0 => {
                        usable &= yi <= tol;
                        0.0
                    }
                    Sense::Ge if yi < 0.0 => {
                        usable &= -yi <= tol;
                        0.0
                    }
                    _ => yi,
                };
                farkas.push(clamped);
            }
            let mut sol = empty_solution(status);
            if usable {
                sol.farkas = farkas;
            }
            Solved { sol, basis: None }
        }
        _ => Solved {
            sol: empty_solution(status),
            basis: None,
        },
    })
}

/// Refactorization interval of the re-solve after a failed optimum check:
/// the eta file never grows past 20 columns, so the basic values cannot
/// drift far between fresh factorizations.
const RECHECK_REFACTOR_EVERY: usize = 20;

/// Cold two-phase solve whose optimum is checked against the real rows.
/// When the check fails, the problem is re-solved from scratch with the
/// basis refactorized every [`RECHECK_REFACTOR_EVERY`] pivots (refactoring
/// the drifted basis and continuing is not enough: that basis is itself
/// numerically singular). A re-solve that fails the check again is a
/// numerical breakdown, reported as an error rather than a wrong optimum.
fn solve_cold(
    problem: &LpProblem,
    opts: &SimplexOptions,
    budget: &Budget<'_>,
) -> Result<Solved, LpError> {
    let mut tableau = Tableau::new(problem, opts, budget);
    let status = tableau.run()?;
    if let Some(solved) = finish_tableau(tableau, problem, status) {
        return Ok(solved);
    }
    let strict = SimplexOptions {
        refactor_every: opts.refactor_every.min(RECHECK_REFACTOR_EVERY),
        ..opts.clone()
    };
    let mut tableau = Tableau::new(problem, &strict, budget);
    let status = tableau.run()?;
    finish_tableau(tableau, problem, status).ok_or(LpError::SingularBasis)
}

/// Solves `problem` with the bounded-variable two-phase simplex.
///
/// # Errors
///
/// Returns an [`LpError`] on iteration limits or numerical breakdown;
/// infeasible/unbounded problems are reported through [`Solution::status`],
/// not as errors.
pub(crate) fn solve(
    problem: &LpProblem,
    opts: &SimplexOptions,
    budget: &Budget<'_>,
) -> Result<Solution, LpError> {
    validate_bounds(problem)?;
    crate::metrics::LP_SOLVES.inc();
    let _solve_timer = raven_obs::Timer::start(&crate::metrics::LP_SOLVE_SECONDS);
    if crate::chaos::take_forced_unbounded() {
        return Ok(empty_solution(SolveStatus::Unbounded));
    }
    // Presolve on a private copy: row removal and bound tightening preserve
    // the feasible set, so the optimum is unchanged while the tableau
    // shrinks (often substantially inside branch & bound).
    let presolved;
    let mut report = None;
    let reduced_problem = if opts.presolve_rounds > 0 && !problem.rows.is_empty() {
        let mut copy = problem.clone();
        let rep = crate::presolve::presolve(&mut copy, opts.presolve_rounds, opts.tol);
        crate::metrics::PRESOLVE_ROWS_REMOVED.add(rep.removed_rows as u64);
        crate::metrics::PRESOLVE_BOUNDS_TIGHTENED.add(rep.tightened_bounds as u64);
        if rep.infeasible {
            let mut sol = empty_solution(SolveStatus::Infeasible);
            sol.farkas = rep.conflict_ray(problem);
            return Ok(sol);
        }
        presolved = copy;
        report = Some(rep);
        &presolved
    } else {
        problem
    };
    let mut sol = if reduced_problem.rows.is_empty() {
        solve_box_only(reduced_problem)
    } else {
        solve_cold(reduced_problem, opts, budget)?.sol
    };
    // Postsolve: evidence is reported against the *original* rows and
    // bounds, so `duals.len() == rows.len()` whenever the status is
    // Optimal, and a Farkas ray refutes the original problem.
    if let Some(rep) = &report {
        match sol.status {
            SolveStatus::Optimal => {
                sol.duals = rep.postsolve(problem, &sol.duals, true, &problem.bounds);
            }
            SolveStatus::Infeasible if !sol.farkas.is_empty() => {
                sol.farkas = rep.postsolve(problem, &sol.farkas, false, &problem.bounds);
            }
            _ => {}
        }
    }
    Ok(sol)
}

/// Solves `problem`, optionally seeding the simplex from `warm`, and
/// returns the optimal basis for the caller to reuse on the next related
/// solve. Never presolves: basis reuse needs the row/variable layout to
/// stay exactly as the caller built it (branch & bound presolves once at
/// the root instead — see `milp.rs`).
///
/// A warm basis is a pure accelerator: when it is dual- or primal-feasible
/// the solve finishes in few pivots, and in every other case (stale,
/// singular, stalled, dual-detected infeasibility) the function re-runs the
/// ordinary cold start, so the result passes the same optimality check as
/// a cold solve. Duals and Farkas rays refer to `problem`'s own rows;
/// branch & bound maps them through its root presolve.
///
/// # Errors
///
/// Same contract as [`solve`].
pub(crate) fn solve_reuse(
    problem: &LpProblem,
    opts: &SimplexOptions,
    budget: &Budget<'_>,
    warm: Option<&Basis>,
) -> Result<(Solution, Option<Basis>), LpError> {
    validate_bounds(problem)?;
    crate::metrics::LP_SOLVES.inc();
    let _solve_timer = raven_obs::Timer::start(&crate::metrics::LP_SOLVE_SECONDS);
    if crate::chaos::take_forced_unbounded() {
        return Ok((empty_solution(SolveStatus::Unbounded), None));
    }
    if problem.rows.is_empty() {
        return Ok((solve_box_only(problem), None));
    }
    if let Some(basis) = warm {
        if basis.fits(problem.num_vars(), problem.rows.len()) {
            if let Some(mut tab) = Tableau::with_basis(problem, opts, budget, basis) {
                match tab.warm_run() {
                    Ok(WarmOutcome::Solved(status)) => {
                        // A warm optimum that fails the point check falls
                        // through to the (checked) cold start.
                        if let Some(solved) = finish_tableau(tab, problem, status) {
                            return Ok((solved.sol, solved.basis));
                        }
                    }
                    // Stale basis (including dual-detected infeasibility,
                    // which the cold phase-1 run below re-proves before it
                    // is trusted): fall through to the cold start.
                    Ok(WarmOutcome::Stale) => {}
                    Err(LpError::BudgetExceeded) => return Err(LpError::BudgetExceeded),
                    // Numerical breakdown mid-warm-start (singular basis,
                    // iteration limit): the cold start below is the retry.
                    Err(_) => {}
                }
            }
        }
    }
    let solved = solve_cold(problem, opts, budget)?;
    Ok((solved.sol, solved.basis))
}

/// Optimizes a problem with no constraints: each variable independently
/// moves to the bound favoured by its objective coefficient.
fn solve_box_only(problem: &LpProblem) -> Solution {
    let mut x: Vec<f64> = problem
        .bounds
        .iter()
        .map(|&(lo, hi)| {
            if lo.is_finite() {
                lo
            } else if hi.is_finite() {
                hi
            } else {
                0.0
            }
        })
        .collect();
    let sign = match problem.direction {
        Direction::Minimize => 1.0,
        Direction::Maximize => -1.0,
    };
    for &(v, c) in problem.objective.terms() {
        let (lo, hi) = problem.bounds[v.0];
        let eff = sign * c;
        let target = if eff > 0.0 {
            lo
        } else if eff < 0.0 {
            hi
        } else {
            continue;
        };
        if !target.is_finite() {
            return Solution {
                status: SolveStatus::Unbounded,
                objective: 0.0,
                values: Vec::new(),
                duals: Vec::new(),
                farkas: Vec::new(),
                leaves: Vec::new(),
            };
        }
        x[v.0] = target;
    }
    let obj = problem.objective.eval(&x);
    Solution {
        status: SolveStatus::Optimal,
        objective: obj,
        values: x,
        duals: Vec::new(),
        farkas: Vec::new(),
        leaves: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinExpr, LpProblem};

    fn expr(terms: &[(crate::VarId, f64)]) -> LinExpr {
        terms.iter().map(|&(v, c)| (v, c)).collect()
    }

    #[test]
    fn simple_maximization() {
        // Classic: max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → 36.
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, f64::INFINITY);
        let y = p.add_var(0.0, f64::INFINITY);
        p.add_constraint(expr(&[(x, 1.0)]), Sense::Le, 4.0);
        p.add_constraint(expr(&[(y, 2.0)]), Sense::Le, 12.0);
        p.add_constraint(expr(&[(x, 3.0), (y, 2.0)]), Sense::Le, 18.0);
        p.set_objective(Direction::Maximize, expr(&[(x, 3.0), (y, 5.0)]));
        let sol = p.solve().unwrap();
        assert!(sol.is_optimal());
        assert!((sol.objective - 36.0).abs() < 1e-6, "{}", sol.objective);
        assert!((sol.value(x) - 2.0).abs() < 1e-6);
        assert!((sol.value(y) - 6.0).abs() < 1e-6);
    }

    #[test]
    fn equality_constraints_work() {
        // min x + y s.t. x + y = 2, x - y = 0 → x = y = 1.
        let mut p = LpProblem::new();
        let x = p.add_var(f64::NEG_INFINITY, f64::INFINITY);
        let y = p.add_var(f64::NEG_INFINITY, f64::INFINITY);
        p.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Sense::Eq, 2.0);
        p.add_constraint(expr(&[(x, 1.0), (y, -1.0)]), Sense::Eq, 0.0);
        p.set_objective(Direction::Minimize, expr(&[(x, 1.0), (y, 1.0)]));
        let sol = p.solve().unwrap();
        assert!(sol.is_optimal());
        assert!((sol.value(x) - 1.0).abs() < 1e-7);
        assert!((sol.value(y) - 1.0).abs() < 1e-7);
    }

    #[test]
    fn detects_infeasible() {
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 1.0);
        p.add_constraint(expr(&[(x, 1.0)]), Sense::Ge, 2.0);
        let sol = p.solve().unwrap();
        assert_eq!(sol.status, SolveStatus::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, f64::INFINITY);
        let y = p.add_var(0.0, f64::INFINITY);
        p.add_constraint(expr(&[(x, 1.0), (y, -1.0)]), Sense::Le, 1.0);
        p.set_objective(Direction::Maximize, expr(&[(x, 1.0)]));
        let sol = p.solve().unwrap();
        assert_eq!(sol.status, SolveStatus::Unbounded);
    }

    #[test]
    fn honors_upper_bounds_via_bound_flips() {
        // max x + y s.t. x + y ≤ 1.5, 0 ≤ x,y ≤ 1 → 1.5.
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 1.0);
        let y = p.add_var(0.0, 1.0);
        p.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Sense::Le, 1.5);
        p.set_objective(Direction::Maximize, expr(&[(x, 1.0), (y, 1.0)]));
        let sol = p.solve().unwrap();
        assert!((sol.objective - 1.5).abs() < 1e-7);
    }

    #[test]
    fn free_variables_and_negative_bounds() {
        // min y s.t. y ≥ x - 1, y ≥ -x - 1, x free → y = -1 at x = 0.
        let mut p = LpProblem::new();
        let x = p.add_free_var();
        let y = p.add_free_var();
        p.add_constraint(expr(&[(y, 1.0), (x, -1.0)]), Sense::Ge, -1.0);
        p.add_constraint(expr(&[(y, 1.0), (x, 1.0)]), Sense::Ge, -1.0);
        p.set_objective(Direction::Minimize, expr(&[(y, 1.0)]));
        let sol = p.solve().unwrap();
        assert!(sol.is_optimal());
        assert!((sol.objective + 1.0).abs() < 1e-7, "{}", sol.objective);
    }

    #[test]
    fn degenerate_problem_terminates() {
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 10.0);
        let y = p.add_var(0.0, 10.0);
        for k in 1..20 {
            let kf = k as f64;
            p.add_constraint(expr(&[(x, kf), (y, 1.0)]), Sense::Le, kf);
        }
        p.set_objective(Direction::Maximize, expr(&[(x, 1.0), (y, 1.0)]));
        let sol = p.solve().unwrap();
        assert!(sol.is_optimal());
        assert!(p.is_feasible(&sol.values, 1e-6));
        assert!(sol.objective >= 1.0 - 1e-7);
    }

    #[test]
    fn ge_constraints_with_positive_rhs_need_phase1() {
        // min 2x + 3y s.t. x + y ≥ 4, x + 3y ≥ 6, x, y ≥ 0 → (3, 1): 9.
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, f64::INFINITY);
        let y = p.add_var(0.0, f64::INFINITY);
        p.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Sense::Ge, 4.0);
        p.add_constraint(expr(&[(x, 1.0), (y, 3.0)]), Sense::Ge, 6.0);
        p.set_objective(Direction::Minimize, expr(&[(x, 2.0), (y, 3.0)]));
        let sol = p.solve().unwrap();
        assert!(sol.is_optimal());
        assert!((sol.objective - 9.0).abs() < 1e-6, "{}", sol.objective);
    }

    #[test]
    fn no_constraints_optimizes_over_box() {
        let mut p = LpProblem::new();
        let x = p.add_var(-2.0, 3.0);
        p.set_objective(Direction::Maximize, expr(&[(x, 2.0)]));
        let sol = p.solve().unwrap();
        assert_eq!(sol.objective, 6.0);
    }

    /// Options with presolve off (`0`) or at its default rounds.
    fn presolve(rounds: usize) -> SimplexOptions {
        SimplexOptions {
            presolve_rounds: rounds,
            ..SimplexOptions::default()
        }
    }

    #[test]
    fn duals_match_the_textbook_example() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18: the classic
        // Dantzig example with known shadow prices (0, 3/2, 1). With
        // presolve on, rows 0 and 1 are singletons folded into bounds; the
        // postsolve must reconstruct all three at their original indices.
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, f64::INFINITY);
        let y = p.add_var(0.0, f64::INFINITY);
        p.add_constraint(expr(&[(x, 1.0)]), Sense::Le, 4.0);
        p.add_constraint(expr(&[(y, 2.0)]), Sense::Le, 12.0);
        p.add_constraint(expr(&[(x, 3.0), (y, 2.0)]), Sense::Le, 18.0);
        p.set_objective(Direction::Maximize, expr(&[(x, 3.0), (y, 5.0)]));
        for rounds in [0, 3] {
            let sol = p.solve_with(&presolve(rounds)).unwrap();
            assert_eq!(sol.duals.len(), 3, "duals must align with original rows");
            assert!(sol.duals[0].abs() < 1e-7, "{:?}", sol.duals);
            assert!((sol.duals[1] - 1.5).abs() < 1e-7, "{:?}", sol.duals);
            assert!((sol.duals[2] - 1.0).abs() < 1e-7, "{:?}", sol.duals);
            // Strong duality: b·y equals the optimum for this standard-form LP.
            let by = 4.0 * sol.duals[0] + 12.0 * sol.duals[1] + 18.0 * sol.duals[2];
            assert!((by - sol.objective).abs() < 1e-6);
        }
    }

    #[test]
    fn minimization_duals_have_user_orientation() {
        // min 2x s.t. x ≥ 3 → optimum 6; raising the rhs by 1 raises the
        // optimum by 2 → dual = +2. With presolve on the row becomes a
        // bound and the solve the box-only path; the dual must survive.
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, f64::INFINITY);
        p.add_constraint(expr(&[(x, 1.0)]), Sense::Ge, 3.0);
        p.set_objective(Direction::Minimize, expr(&[(x, 2.0)]));
        for rounds in [0, 3] {
            let sol = p.solve_with(&presolve(rounds)).unwrap();
            assert!((sol.objective - 6.0).abs() < 1e-7);
            assert_eq!(sol.duals.len(), 1);
            assert!((sol.duals[0] - 2.0).abs() < 1e-7, "{:?}", sol.duals);
        }
    }

    #[test]
    fn removed_redundant_rows_report_zero_duals() {
        // x + y ≤ 50 is implied by the bounds: presolve drops it, and a
        // slack row has shadow price 0 at its original index.
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 1.0);
        let y = p.add_var(0.0, 1.0);
        p.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Sense::Le, 50.0);
        p.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Sense::Le, 1.5);
        p.set_objective(Direction::Maximize, expr(&[(x, 1.0), (y, 1.0)]));
        let sol = p.solve().unwrap();
        assert!(sol.is_optimal());
        assert_eq!(sol.duals.len(), 2);
        assert!(sol.duals[0].abs() < 1e-6, "{:?}", sol.duals);
        assert!((sol.duals[1] - 1.0).abs() < 1e-6, "{:?}", sol.duals);
    }

    #[test]
    fn presolve_tolerance_matches_simplex_tolerance() {
        // The violation here (5e-8) sits between the old hard-coded
        // presolve tolerance (1e-9) and the simplex feasibility tolerance
        // (1e-7): presolve used to declare this infeasible even though the
        // simplex would happily accept the point x = 1.
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 1.0);
        p.add_constraint(expr(&[(x, 1.0)]), Sense::Ge, 1.0 + 5e-8);
        p.set_objective(Direction::Minimize, expr(&[(x, 1.0)]));
        let sol = p.solve().unwrap();
        assert!(
            sol.is_optimal(),
            "within-tolerance LP declared {:?}",
            sol.status
        );
    }

    #[test]
    fn warm_start_reaches_the_same_optimum_after_bound_changes() {
        // Solve, tighten a bound (the branch-and-bound move), re-solve
        // from the extracted basis: the dual simplex must land on the same
        // optimum a cold solve finds.
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 4.0);
        let y = p.add_var(0.0, 6.0);
        p.add_constraint(expr(&[(x, 3.0), (y, 2.0)]), Sense::Le, 18.0);
        p.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Sense::Le, 8.0);
        p.set_objective(Direction::Maximize, expr(&[(x, 3.0), (y, 5.0)]));
        let opts = SimplexOptions {
            presolve_rounds: 0,
            ..SimplexOptions::default()
        };
        let budget = Budget::unlimited();
        let (first, basis) = solve_reuse(&p, &opts, &budget, None).unwrap();
        assert!(first.is_optimal());
        let basis = basis.expect("optimal solve yields a basis");
        p.bounds[1] = (0.0, 3.0); // tighten y ≤ 3 as a branch would
        let (cold, _) = solve_reuse(&p, &opts, &budget, None).unwrap();
        let (warm, warm_basis) = solve_reuse(&p, &opts, &budget, Some(&basis)).unwrap();
        assert!(cold.is_optimal() && warm.is_optimal());
        assert!(
            (warm.objective - cold.objective).abs() < 1e-7,
            "warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
        assert!(p.is_feasible(&warm.values, 1e-6));
        assert!(warm_basis.is_some());
    }

    #[test]
    fn warm_start_extends_across_appended_rows_and_vars() {
        // Per-label reuse shape: solve a base LP, append a variable and a
        // row, and seed the bigger problem from the smaller basis. The old
        // optimum satisfies the new row, so primal phase 2 alone finishes.
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 4.0);
        let y = p.add_var(0.0, 6.0);
        p.add_constraint(expr(&[(x, 3.0), (y, 2.0)]), Sense::Le, 18.0);
        p.set_objective(Direction::Maximize, expr(&[(x, 3.0), (y, 5.0)]));
        let opts = SimplexOptions {
            presolve_rounds: 0,
            ..SimplexOptions::default()
        };
        let budget = Budget::unlimited();
        let (_, basis) = solve_reuse(&p, &opts, &budget, None).unwrap();
        let basis = basis.expect("basis");
        let z = p.add_var(0.0, 1.0);
        p.add_constraint(expr(&[(x, 1.0), (z, 5.0)]), Sense::Le, 30.0);
        let (cold, _) = solve_reuse(&p, &opts, &budget, None).unwrap();
        let (warm, _) = solve_reuse(&p, &opts, &budget, Some(&basis)).unwrap();
        assert!(cold.is_optimal() && warm.is_optimal());
        assert!((warm.objective - cold.objective).abs() < 1e-7);
    }

    #[test]
    fn stale_basis_falls_back_to_cold_start() {
        // A basis from a completely unrelated problem must not corrupt the
        // result: the warm attempt is rejected or repaired, never trusted.
        let mut small = LpProblem::new();
        let a = small.add_var(0.0, 1.0);
        small.add_constraint(expr(&[(a, 1.0)]), Sense::Le, 0.5);
        small.set_objective(Direction::Maximize, expr(&[(a, 1.0)]));
        let opts = SimplexOptions {
            presolve_rounds: 0,
            ..SimplexOptions::default()
        };
        let budget = Budget::unlimited();
        let (_, basis) = solve_reuse(&small, &opts, &budget, None).unwrap();
        let basis = basis.expect("basis");
        let mut big = LpProblem::new();
        let x = big.add_var(0.0, 4.0);
        let y = big.add_var(0.0, 6.0);
        big.add_constraint(expr(&[(x, 1.0)]), Sense::Ge, 1.0);
        big.add_constraint(expr(&[(x, 3.0), (y, 2.0)]), Sense::Le, 18.0);
        big.set_objective(Direction::Maximize, expr(&[(x, 3.0), (y, 5.0)]));
        let (cold, _) = solve_reuse(&big, &opts, &budget, None).unwrap();
        let (warm, _) = solve_reuse(&big, &opts, &budget, Some(&basis)).unwrap();
        assert!(cold.is_optimal() && warm.is_optimal());
        assert!((warm.objective - cold.objective).abs() < 1e-7);
    }

    #[test]
    fn budget_expiry_mid_dual_pivot_errors_budget_exceeded() {
        // An already-expired budget must abort the dual simplex on its
        // first pivot with the same error contract as the primal phases.
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 4.0);
        let y = p.add_var(0.0, 6.0);
        p.add_constraint(expr(&[(x, 3.0), (y, 2.0)]), Sense::Le, 18.0);
        p.set_objective(Direction::Maximize, expr(&[(x, 3.0), (y, 5.0)]));
        let opts = SimplexOptions {
            presolve_rounds: 0,
            ..SimplexOptions::default()
        };
        let (first, basis) = solve_reuse(&p, &opts, &Budget::unlimited(), None).unwrap();
        assert!(first.is_optimal());
        let basis = basis.expect("basis");
        p.bounds[1] = (0.0, 2.0);
        let expired = Budget::default()
            .with_deadline(std::time::Instant::now() - std::time::Duration::from_millis(1));
        let err = solve_reuse(&p, &opts, &expired, Some(&basis)).unwrap_err();
        assert_eq!(err, LpError::BudgetExceeded);
    }

    #[test]
    fn warm_start_detects_infeasible_children() {
        // Fixing a variable outside the constraint's reach makes the child
        // infeasible; the dual simplex signals it and the cold fallback
        // must confirm Infeasible rather than mislabel it.
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 1.0);
        let y = p.add_var(0.0, 1.0);
        p.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Sense::Le, 1.0);
        p.set_objective(Direction::Maximize, expr(&[(x, 1.0), (y, 1.0)]));
        let opts = SimplexOptions {
            presolve_rounds: 0,
            ..SimplexOptions::default()
        };
        let budget = Budget::unlimited();
        let (first, basis) = solve_reuse(&p, &opts, &budget, None).unwrap();
        assert!(first.is_optimal());
        let basis = basis.expect("basis");
        p.bounds[0] = (1.0, 1.0);
        p.bounds[1] = (1.0, 1.0); // x + y = 2 > 1: infeasible
        let (warm, _) = solve_reuse(&p, &opts, &budget, Some(&basis)).unwrap();
        assert_eq!(warm.status, SolveStatus::Infeasible);
    }

    #[test]
    fn equality_chain_with_free_vars() {
        // A chain of equalities like the verifier's linking rows:
        // d_i = a_i − b_i, with a, b boxed and an objective on d.
        let mut p = LpProblem::new();
        let mut prev = None;
        let mut d_vars = Vec::new();
        for i in 0..10 {
            let a = p.add_var(-1.0, 1.0);
            let b = p.add_var(-1.0, 1.0);
            let d = p.add_free_var();
            p.add_constraint(expr(&[(d, 1.0), (a, -1.0), (b, 1.0)]), Sense::Eq, 0.0);
            if let Some(pd) = prev {
                // Couple adjacent differences: d_i − 0.5 d_{i−1} ≤ 0.2.
                p.add_constraint(expr(&[(d, 1.0), (pd, -0.5)]), Sense::Le, 0.2);
            }
            prev = Some(d);
            d_vars.push((d, 1.0 / (1.0 + i as f64)));
        }
        p.set_objective(Direction::Maximize, expr(&d_vars));
        let sol = p.solve().unwrap();
        assert!(sol.is_optimal());
        assert!(p.is_feasible(&sol.values, 1e-6));
    }
}
