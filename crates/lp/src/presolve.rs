//! LP presolve: cheap, soundness-preserving problem reductions applied
//! before the simplex.
//!
//! Three classic reductions, iterated for a few rounds:
//!
//! 1. **Singleton rows** `c·x ⋛ b` are converted into variable bounds and
//!    dropped.
//! 2. **Redundant rows** whose activity range (computed from the variable
//!    bounds) already implies the constraint are dropped.
//! 3. **Bound propagation**: for every row and variable, the row's residual
//!    activity tightens the variable's bounds.
//!
//! Presolve preserves the feasible set exactly (it only removes implied
//! rows and tightens bounds to implied values), so optimal values and
//! optimal solutions are unchanged. Infeasibility can be detected outright,
//! which matters inside branch & bound where fixing a binary variable often
//! makes a node's subproblem trivially empty.

use crate::model::Row;
use crate::{Direction, LpProblem, Sense};

/// Outcome of a presolve pass.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PresolveReport {
    /// Rows removed (singleton or redundant).
    pub removed_rows: usize,
    /// Variable-bound tightenings applied.
    pub tightened_bounds: usize,
    /// Whether presolve proved the problem infeasible.
    pub infeasible: bool,
    /// Original index of each surviving row, in order: `kept_rows[i]` is
    /// where presolved row `i` sat in the input problem. Lets callers map
    /// duals of the reduced problem back onto the original row set.
    /// Unspecified when `infeasible`.
    pub kept_rows: Vec<usize>,
    /// Every variable bound presolve derived from a row (singleton rows
    /// and bound propagation alike), in derivation order.
    pub derived: Vec<DerivedBound>,
    /// When `infeasible`: one original row and a multiplier on it that
    /// refutes feasibility over the bounds as they stood at detection
    /// (after every entry of [`derived`](Self::derived)). `None` when the
    /// conflict has no single-row witness.
    pub conflict: Option<(usize, f64)>,
}

/// One side of a variable's bound that presolve derived from a row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DerivedBound {
    /// Index of the bounded variable.
    pub var: usize,
    /// Original index of the row the bound was derived from.
    pub row: usize,
    /// The row's coefficient on `var` (nonzero).
    pub coef: f64,
    /// Whether the upper (`true`) or lower side was derived.
    pub upper: bool,
    /// The bound presolve applied.
    pub value: f64,
}

/// Activity range of a row over the current variable bounds.
fn activity(row: &Row, bounds: &[(f64, f64)]) -> (f64, f64) {
    let mut lo = 0.0;
    let mut hi = 0.0;
    for &(v, c) in row.expr.terms() {
        let (blo, bhi) = bounds[v.index()];
        if c >= 0.0 {
            lo += c * blo;
            hi += c * bhi;
        } else {
            lo += c * bhi;
            hi += c * blo;
        }
    }
    (lo, hi)
}

/// Tightens `var`'s bounds to `[lo, hi]` (intersection), the bounds that
/// `source` — an original row index and its coefficient on `var` — implies,
/// counting changes and recording each side the row tightened. Returns
/// `false` when the domain becomes empty beyond tolerance.
fn tighten(
    bounds: &mut [(f64, f64)],
    var: usize,
    (lo, hi): (f64, f64),
    tol: f64,
    report: &mut PresolveReport,
    (row, coef): (usize, f64),
) -> bool {
    let (cur_lo, cur_hi) = bounds[var];
    let new_lo = cur_lo.max(lo);
    let new_hi = cur_hi.min(hi);
    if new_lo > new_hi + tol {
        report.infeasible = true;
        // The row's derived side against the other side of the box: a
        // multiplier of ±1/coef leaves exactly that gap as the refutation.
        report.conflict = if lo > cur_hi + tol {
            Some((row, 1.0 / coef))
        } else if hi < cur_lo - tol {
            Some((row, -1.0 / coef))
        } else {
            None
        };
        return false;
    }
    // Only count meaningful tightenings to keep the fixpoint loop finite.
    let significant = new_lo > cur_lo + tol || new_hi < cur_hi - tol;
    if significant {
        report.tightened_bounds += 1;
        let applied_hi = new_hi.max(new_lo);
        for (upper, value, tighter) in [
            (false, new_lo, new_lo > cur_lo),
            (true, applied_hi, applied_hi < cur_hi),
        ] {
            if tighter {
                report.derived.push(DerivedBound {
                    var,
                    row,
                    coef,
                    upper,
                    value,
                });
            }
        }
        bounds[var] = (new_lo, applied_hi);
    }
    significant
}

/// Runs presolve in place for at most `rounds` fixpoint rounds, using the
/// caller's feasibility tolerance `tol` (pass `SimplexOptions::tol` so
/// presolve never declares infeasible what the simplex would accept).
///
/// Integer markers and the objective are untouched; only rows and bounds
/// change. The variable set (and therefore solution indexing) is preserved;
/// [`PresolveReport::kept_rows`] records where each surviving row came
/// from, and [`PresolveReport::derived`] where each tightened bound did.
pub fn presolve(problem: &mut LpProblem, rounds: usize, tol: f64) -> PresolveReport {
    let mut report = PresolveReport::default();
    // Original index of each current row, maintained across rounds.
    let mut origin: Vec<usize> = (0..problem.rows.len()).collect();
    for _ in 0..rounds {
        let mut changed = false;
        let mut keep: Vec<Row> = Vec::with_capacity(problem.rows.len());
        let mut keep_origin: Vec<usize> = Vec::with_capacity(origin.len());
        let rows = std::mem::take(&mut problem.rows);
        for (row, orig) in rows.into_iter().zip(origin.iter().copied()) {
            let terms = row.expr.terms();
            // 1. Singleton row → variable bound.
            if terms.len() == 1 {
                let (v, c) = terms[0];
                if c.abs() > tol {
                    let target = row.rhs / c;
                    let (lo, hi) = match (row.sense, c > 0.0) {
                        (Sense::Le, true) | (Sense::Ge, false) => (f64::NEG_INFINITY, target),
                        (Sense::Ge, true) | (Sense::Le, false) => (target, f64::INFINITY),
                        (Sense::Eq, _) => (target, target),
                    };
                    tighten(
                        &mut problem.bounds,
                        v.index(),
                        (lo, hi),
                        tol,
                        &mut report,
                        (orig, c),
                    );
                    report.removed_rows += 1;
                    changed = true;
                    if report.infeasible {
                        problem.rows = keep;
                        return report;
                    }
                    continue;
                }
                // Zero-coefficient singleton: constant row.
                let ok = match row.sense {
                    Sense::Le => 0.0 <= row.rhs + tol,
                    Sense::Ge => 0.0 >= row.rhs - tol,
                    Sense::Eq => row.rhs.abs() <= tol,
                };
                if !ok {
                    report.infeasible = true;
                    report.conflict = Some((orig, if row.rhs > 0.0 { 1.0 } else { -1.0 }));
                    problem.rows = keep;
                    return report;
                }
                report.removed_rows += 1;
                changed = true;
                continue;
            }
            let (act_lo, act_hi) = activity(&row, &problem.bounds);
            // 2. Redundant / infeasible rows.
            let (redundant, impossible) = match row.sense {
                Sense::Le => (act_hi <= row.rhs + tol, act_lo > row.rhs + tol),
                Sense::Ge => (act_lo >= row.rhs - tol, act_hi < row.rhs - tol),
                Sense::Eq => (
                    (act_lo - row.rhs).abs() <= tol && (act_hi - row.rhs).abs() <= tol,
                    act_lo > row.rhs + tol || act_hi < row.rhs - tol,
                ),
            };
            if impossible {
                report.infeasible = true;
                // −1 refutes an activity floor above the rhs, +1 an
                // activity ceiling below it.
                report.conflict = Some((orig, if act_lo > row.rhs + tol { -1.0 } else { 1.0 }));
                problem.rows = keep;
                return report;
            }
            if redundant {
                report.removed_rows += 1;
                changed = true;
                continue;
            }
            // 3. Bound propagation (≤-style and ≥-style sides).
            if act_lo.is_finite() || act_hi.is_finite() {
                for &(v, c) in row.expr.terms() {
                    if c.abs() <= tol {
                        continue;
                    }
                    let (blo, bhi) = problem.bounds[v.index()];
                    // Residual activity of the other terms.
                    let (other_lo, other_hi) = {
                        let (mut lo, mut hi) = (act_lo, act_hi);
                        if c >= 0.0 {
                            lo -= c * blo;
                            hi -= c * bhi;
                        } else {
                            lo -= c * bhi;
                            hi -= c * blo;
                        }
                        (lo, hi)
                    };
                    let mut new_lo = f64::NEG_INFINITY;
                    let mut new_hi = f64::INFINITY;
                    if matches!(row.sense, Sense::Le | Sense::Eq) && other_lo.is_finite() {
                        // c·x ≤ rhs − other_lo.
                        let limit = (row.rhs - other_lo) / c;
                        if c > 0.0 {
                            new_hi = new_hi.min(limit);
                        } else {
                            new_lo = new_lo.max(limit);
                        }
                    }
                    if matches!(row.sense, Sense::Ge | Sense::Eq) && other_hi.is_finite() {
                        // c·x ≥ rhs − other_hi.
                        let limit = (row.rhs - other_hi) / c;
                        if c > 0.0 {
                            new_lo = new_lo.max(limit);
                        } else {
                            new_hi = new_hi.min(limit);
                        }
                    }
                    if tighten(
                        &mut problem.bounds,
                        v.index(),
                        (new_lo, new_hi),
                        tol,
                        &mut report,
                        (orig, c),
                    ) {
                        changed = true;
                    }
                    if report.infeasible {
                        // Keep remaining rows for debuggability and stop.
                        keep.push(row.clone());
                        problem.rows = keep;
                        return report;
                    }
                }
            }
            keep.push(row);
            keep_origin.push(orig);
        }
        problem.rows = keep;
        origin = keep_origin;
        if !changed {
            break;
        }
    }
    report.kept_rows = origin;
    report
}

/// Maps evidence about a presolved problem back onto `original`'s rows.
///
/// `y` holds one multiplier per original row: duals in the user's
/// orientation when `objective`, else a Farkas ray (`≤` rows non-positive,
/// `≥` rows non-negative). With `d = c − Aᵀy` (`c = 0` for a ray) the
/// evidence proves the weak-duality bound `yᵀb + Σⱼ opt(dⱼlⱼ, dⱼuⱼ)`
/// (`opt` = max for a Maximize bound, min otherwise; a positive value
/// refutes feasibility). Over the presolved bounds that is the solve's own
/// value; over `leaf` (the original bounds, intersected with any B&B
/// fixes) a reduced cost at a derived bound would lose it. Walking
/// `derived` backwards, each such `dⱼ` moves onto its source row as the
/// multiplier `dⱼ / coef`: that zeroes `dⱼ`, has the sign the row's sense
/// allows, and costs nothing, because the derived bound is exactly what
/// the row implied over its other variables' bounds at derivation time
/// (superadditivity of `min` covers sign changes in their reduced costs).
/// A side `leaf` bounds at least as tightly stays put. The moves are
/// sound regardless; tightness needs derivation order and nonempty boxes.
fn unwind(
    original: &LpProblem,
    derived: &[DerivedBound],
    y: &mut [f64],
    objective: bool,
    leaf: &[(f64, f64)],
) {
    // A Maximize bound prefers each variable's upper side where d > 0.
    let maximize = objective && original.direction == Direction::Maximize;
    let mut d = vec![0.0; original.num_vars()];
    if objective {
        for &(v, c) in original.objective.terms() {
            d[v.index()] += c;
        }
    }
    for (row, &yr) in original.rows.iter().zip(y.iter()) {
        if yr != 0.0 {
            for &(v, a) in row.expr.terms() {
                d[v.index()] -= yr * a;
            }
        }
    }
    for rec in derived.iter().rev() {
        let dj = d[rec.var];
        let (lo, hi) = leaf[rec.var];
        let toward_upper = if maximize { dj > 0.0 } else { dj < 0.0 };
        let at_derived = if rec.upper {
            toward_upper && hi > rec.value
        } else {
            dj != 0.0 && !toward_upper && lo < rec.value
        };
        if !at_derived {
            continue;
        }
        let lambda = dj / rec.coef;
        y[rec.row] += lambda;
        for &(v, a) in original.rows[rec.row].expr.terms() {
            d[v.index()] -= lambda * a;
        }
        d[rec.var] = 0.0;
    }
}

/// A Farkas ray over `original`'s rows seeded with `mult` on `row`, whose
/// refutation holds over the bounds after `derived`, unwound onto `leaf`.
pub(crate) fn seeded_ray(
    original: &LpProblem,
    derived: &[DerivedBound],
    row: usize,
    mult: f64,
    leaf: &[(f64, f64)],
) -> Vec<f64> {
    let mut y = vec![0.0; original.rows.len()];
    y[row] = mult;
    unwind(original, derived, &mut y, false, leaf);
    y
}

impl PresolveReport {
    /// Maps duals (`objective`) or a Farkas ray of the presolved problem,
    /// one entry per kept row, onto `original`'s rows; see [`unwind`].
    pub(crate) fn postsolve(
        &self,
        original: &LpProblem,
        kept: &[f64],
        objective: bool,
        leaf: &[(f64, f64)],
    ) -> Vec<f64> {
        let mut y = vec![0.0; original.rows.len()];
        for (&orig, &v) in self.kept_rows.iter().zip(kept) {
            y[orig] = v;
        }
        unwind(original, &self.derived, &mut y, objective, leaf);
        y
    }

    /// The Farkas ray over `original`'s rows that presolve's own
    /// infeasibility proof amounts to, or empty when the conflict had no
    /// single-row witness.
    pub(crate) fn conflict_ray(&self, original: &LpProblem) -> Vec<f64> {
        self.conflict.map_or_else(Vec::new, |(row, mult)| {
            seeded_ray(original, &self.derived, row, mult, &original.bounds)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Direction, LinExpr, LpProblem, Sense, SolveStatus};

    #[test]
    fn singleton_rows_become_bounds() {
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 10.0);
        p.add_constraint(LinExpr::new().term(2.0, x), Sense::Le, 4.0);
        p.add_constraint(LinExpr::new().term(1.0, x), Sense::Ge, 1.0);
        let report = presolve(&mut p, 3, 1e-7);
        assert_eq!(report.removed_rows, 2);
        assert_eq!(p.num_constraints(), 0);
        assert_eq!(p.bounds[0], (1.0, 2.0));
    }

    #[test]
    fn redundant_rows_are_removed() {
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 1.0);
        let y = p.add_var(0.0, 1.0);
        // x + y ≤ 5 is implied by the bounds.
        p.add_constraint(LinExpr::new().term(1.0, x).term(1.0, y), Sense::Le, 5.0);
        let report = presolve(&mut p, 3, 1e-7);
        assert_eq!(report.removed_rows, 1);
        assert_eq!(p.num_constraints(), 0);
        assert!(!report.infeasible);
    }

    #[test]
    fn bound_propagation_tightens() {
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 10.0);
        let y = p.add_var(0.0, 10.0);
        // x + y ≤ 3 → both x, y ≤ 3.
        p.add_constraint(LinExpr::new().term(1.0, x).term(1.0, y), Sense::Le, 3.0);
        let report = presolve(&mut p, 3, 1e-7);
        assert!(report.tightened_bounds >= 2);
        assert!(p.bounds[0].1 <= 3.0 + 1e-9);
        assert!(p.bounds[1].1 <= 3.0 + 1e-9);
    }

    #[test]
    fn detects_infeasibility_from_bounds() {
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 1.0);
        p.add_constraint(LinExpr::new().term(1.0, x), Sense::Ge, 2.0);
        let report = presolve(&mut p, 3, 1e-7);
        assert!(report.infeasible);
    }

    #[test]
    fn detects_infeasibility_from_activity() {
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 1.0);
        let y = p.add_var(0.0, 1.0);
        p.add_constraint(LinExpr::new().term(1.0, x).term(1.0, y), Sense::Ge, 3.0);
        let report = presolve(&mut p, 3, 1e-7);
        assert!(report.infeasible);
    }

    #[test]
    fn presolve_preserves_the_optimum() {
        // A problem mixing all reduction opportunities.
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 10.0);
        let y = p.add_var(0.0, 10.0);
        let z = p.add_var(-5.0, 5.0);
        p.add_constraint(LinExpr::new().term(1.0, x), Sense::Le, 4.0); // singleton
        p.add_constraint(
            LinExpr::new().term(1.0, x).term(1.0, y).term(1.0, z),
            Sense::Le,
            100.0,
        ); // redundant
        p.add_constraint(LinExpr::new().term(1.0, x).term(2.0, y), Sense::Le, 8.0);
        p.add_constraint(LinExpr::new().term(1.0, y).term(-1.0, z), Sense::Ge, 0.0);
        p.set_objective(
            Direction::Maximize,
            LinExpr::new().term(3.0, x).term(2.0, y).term(1.0, z),
        );
        let baseline = p.solve().expect("solves").objective;
        let mut q = p.clone();
        let report = presolve(&mut q, 4, 1e-7);
        assert!(!report.infeasible);
        let presolved = q.solve().expect("solves");
        assert_eq!(presolved.status, SolveStatus::Optimal);
        assert!(
            (presolved.objective - baseline).abs() < 1e-6,
            "presolve changed optimum: {} vs {baseline}",
            presolved.objective
        );
        // The presolved solution is feasible for the original problem.
        assert!(p.is_feasible(&presolved.values, 1e-6));
    }

    #[test]
    fn kept_rows_map_back_to_original_indices() {
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 10.0);
        let y = p.add_var(0.0, 10.0);
        p.add_constraint(LinExpr::new().term(1.0, x), Sense::Le, 4.0); // singleton (dropped)
        p.add_constraint(LinExpr::new().term(1.0, x).term(2.0, y), Sense::Le, 8.0); // kept
        p.add_constraint(LinExpr::new().term(1.0, x).term(1.0, y), Sense::Le, 500.0); // redundant
        p.add_constraint(LinExpr::new().term(2.0, x).term(-1.0, y), Sense::Ge, -2.0); // kept
        let report = presolve(&mut p, 3, 1e-7);
        assert!(!report.infeasible);
        assert_eq!(report.kept_rows.len(), p.num_constraints());
        assert_eq!(report.kept_rows, vec![1, 3]);
        // The singleton's bound comes first, with its source row.
        let first = report.derived[0];
        assert_eq!((first.row, first.var, first.upper), (0, 0, true));
        assert_eq!((first.coef, first.value), (1.0, 4.0));
    }

    #[test]
    fn postsolve_moves_reduced_costs_onto_source_rows() {
        // max x s.t. x + y ≤ 1, x ∈ [0, 10], y ∈ [0.5, 1]: presolve derives
        // x ≤ 0.5 from the row. Take the degenerate presolved optimum whose
        // row dual is 0 and whose reduced cost sits on x's derived bound:
        // postsolve must move it onto the row, giving dual 1 and the bound
        // 1·1 + max(−y) = 0.5 over the original box.
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 10.0);
        let y = p.add_var(0.5, 1.0);
        p.add_constraint(LinExpr::new().term(1.0, x).term(1.0, y), Sense::Le, 1.0);
        p.set_objective(Direction::Maximize, LinExpr::new().term(1.0, x));
        let mut q = p.clone();
        let report = presolve(&mut q, 3, 1e-7);
        assert_eq!(report.kept_rows, vec![0]);
        assert_eq!(report.postsolve(&p, &[0.0], true, &p.bounds), vec![1.0]);
        // A branch fix at least as tight as the derived bound keeps the
        // reduced cost on the variable.
        let fixed = [(0.0, 0.25), (0.5, 1.0)];
        assert_eq!(report.postsolve(&p, &[0.0], true, &fixed), vec![0.0]);
    }

    #[test]
    fn conflicts_carry_a_refuting_row() {
        // y ≥ 0.5 (singleton) then x + y ≤ 0.25 with x ≥ 0: the row's
        // derived y ≤ 0.25 conflicts with the singleton's y ≥ 0.5.
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 1.0);
        let y = p.add_var(0.0, 1.0);
        p.add_constraint(LinExpr::new().term(1.0, y), Sense::Ge, 0.5);
        p.add_constraint(LinExpr::new().term(1.0, x).term(1.0, y), Sense::Le, 0.25);
        let report = presolve(&mut p.clone(), 3, 1e-7);
        assert!(report.infeasible);
        // Activity floor 0.5 > 0.25: the row itself, weighted −1.
        assert_eq!(report.conflict, Some((1, -1.0)));
        // Aggregated: −(x + y) ≥ −0.25 and y ≥ 0.5 ⇒ −x ≥ 0.25, impossible.
        assert_eq!(report.conflict_ray(&p), vec![1.0, -1.0]);
    }

    #[test]
    fn caller_tolerance_is_honoured() {
        // A 5e-8 violation is within the simplex's 1e-7 tolerance: presolve
        // run at that tolerance must not declare infeasibility (it used to,
        // with its own hard-coded 1e-9).
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 1.0);
        p.add_constraint(LinExpr::new().term(1.0, x), Sense::Ge, 1.0 + 5e-8);
        let lenient = presolve(&mut p.clone(), 3, 1e-7);
        assert!(!lenient.infeasible);
        let strict = presolve(&mut p, 3, 1e-9);
        assert!(strict.infeasible);
    }

    #[test]
    fn equality_rows_propagate_both_sides() {
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 10.0);
        let y = p.add_var(2.0, 3.0);
        p.add_constraint(LinExpr::new().term(1.0, x).term(1.0, y), Sense::Eq, 5.0);
        presolve(&mut p, 3, 1e-7);
        // x = 5 − y ∈ [2, 3].
        assert!(p.bounds[0].0 >= 2.0 - 1e-9);
        assert!(p.bounds[0].1 <= 3.0 + 1e-9);
    }
}
