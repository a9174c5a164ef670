//! Shared generator for the solver-scale test binaries.

use raven_lp::{Direction, LinExpr, LpProblem, Sense};
use raven_tensor::Rng;

/// A random sparse LP (or MILP with `binaries` binary variables) of the
/// size and shape of a small verifier encoding: 60–150 rows over about as
/// many variables at 5–10% density, about one row in six an equality and,
/// with `free`, one variable in eight free. Every right-hand side is taken
/// at a point inside the boxes, so the problem is feasible, and the
/// objective only reads boxed variables, so it is bounded.
pub fn sparse_lp(seed: u64, binaries: usize, free: bool) -> LpProblem {
    let mut rng = Rng::new(seed);
    let m = 60 + rng.below(91);
    let n = m / 2 + rng.below(m);
    let density = rng.in_range(0.05, 0.10);
    let mut p = LpProblem::new();
    let mut point = Vec::with_capacity(n);
    let mut boxed = Vec::with_capacity(n);
    let vars: Vec<_> = (0..n)
        .map(|i| {
            if i < binaries {
                point.push(rng.below(2) as f64);
                boxed.push(true);
                p.add_binary_var()
            } else if free && rng.below(8) == 0 {
                point.push(rng.in_range(-1.0, 1.0));
                boxed.push(false);
                p.add_free_var()
            } else {
                let lo = rng.in_range(-3.0, 0.0);
                let hi = rng.in_range(0.0, 3.0);
                point.push(rng.in_range(lo, hi));
                boxed.push(true);
                p.add_var(lo, hi)
            }
        })
        .collect();
    for _ in 0..m {
        let mut row = LinExpr::new();
        let mut at_point = 0.0;
        for (&v, &x) in vars.iter().zip(&point) {
            if rng.uniform() < density {
                let c = rng.in_range(0.2, 2.0) * if rng.below(2) == 0 { 1.0 } else { -1.0 };
                row.push(c, v);
                at_point += c * x;
            }
        }
        if row.terms().len() < 2 {
            continue;
        }
        let gap = rng.in_range(0.0, 1.0);
        match rng.below(6) {
            0 => p.add_constraint(row, Sense::Eq, at_point),
            1 | 2 => p.add_constraint(row, Sense::Ge, at_point - gap),
            _ => p.add_constraint(row, Sense::Le, at_point + gap),
        };
    }
    let mut obj = LinExpr::new();
    for (&v, &b) in vars.iter().zip(&boxed) {
        if b {
            obj.push(rng.in_range(-1.0, 1.0), v);
        }
    }
    let dir = if rng.below(2) == 0 {
        Direction::Maximize
    } else {
        Direction::Minimize
    };
    p.set_objective(dir, obj);
    p
}
