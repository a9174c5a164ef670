//! Chaos tests for the LP/MILP solvers that arm process-global fault
//! injection. They live in their own integration binary (own process) so
//! the armed faults cannot leak into the library's parallel unit tests,
//! and serialize themselves behind a mutex within this binary.
//!
//! Fault injection is compiled out of release builds without the `chaos`
//! feature, so the suite only exists where the faults can fire.
#![cfg(any(debug_assertions, feature = "chaos"))]

use raven_lp::{chaos, Budget, Direction, LinExpr, LpProblem, MilpOptions, Sense, SolveStatus};
use std::sync::Mutex;
use std::time::{Duration, Instant};

static CHAOS_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with exclusive ownership of the chaos state, clearing it on
/// the way in and out (even when the closure panics).
fn with_chaos<T>(f: impl FnOnce() -> T) -> T {
    let _guard = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    chaos::clear();
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    chaos::clear();
    match out {
        Ok(v) => v,
        Err(p) => std::panic::resume_unwind(p),
    }
}

/// Knapsack-style MILP whose root relaxation is fractional, so branch &
/// bound must explore children: max 5x + 4y + 3z st 2x + 3y + z ≤ 5,
/// binaries. Exact optimum: x = y = 1, z = 0 → 9.
fn knapsack() -> LpProblem {
    let mut p = LpProblem::new();
    let x = p.add_binary_var();
    let y = p.add_binary_var();
    let z = p.add_binary_var();
    p.add_constraint(
        LinExpr::new().term(2.0, x).term(3.0, y).term(1.0, z),
        Sense::Le,
        5.0,
    );
    p.set_objective(
        Direction::Maximize,
        LinExpr::new().term(5.0, x).term(4.0, y).term(3.0, z),
    );
    p
}

#[test]
fn forced_unbounded_child_relaxation_propagates_unbounded() {
    // Regression for an unsound prune: branch & bound used to treat an
    // Unbounded *child* relaxation as an infeasible subtree and discard
    // it. A child's recession cone is contained in its ancestors', so an
    // unbounded child proves the whole MILP unbounded (any feasible point
    // of the child rides the ray). Real children can't go unbounded under
    // bounds-only branching, hence the injected fault.
    for warm_start in [true, false] {
        with_chaos(|| {
            let p = knapsack();
            let opts = MilpOptions {
                warm_start,
                ..MilpOptions::default()
            };
            // Skip the root solve so the fault fires on a child node.
            chaos::set_force_unbounded_after(1);
            let sol = p.solve_milp_with(&opts).expect("milp completes");
            assert_eq!(
                sol.status,
                SolveStatus::Unbounded,
                "unbounded child (warm_start={warm_start}) must propagate, not be pruned"
            );
        });
    }
}

#[test]
fn forced_unbounded_root_relaxation_propagates_unbounded() {
    with_chaos(|| {
        let p = knapsack();
        chaos::set_force_unbounded_after(0);
        let sol = p.solve_milp().expect("milp completes");
        assert_eq!(sol.status, SolveStatus::Unbounded);
    });
}

#[test]
fn budget_expiry_mid_dual_pivot_yields_sound_anytime_bound() {
    with_chaos(|| {
        let p = knapsack();
        let exact = p.solve_milp().expect("milp solves");
        assert_eq!(exact.status, SolveStatus::Optimal);
        assert!((exact.objective - 9.0).abs() < 1e-9);

        // Stall every pivot (primal and dual alike) and give the solve a
        // deadline that expires while child nodes are being warm-started:
        // the budget check at the top of the dual pivot loop must fire.
        chaos::set_pivot_stall_micros(20_000);
        let budget = Budget::default().with_deadline(Instant::now() + Duration::from_millis(60));
        let sol = p
            .solve_milp_with_budget(&MilpOptions::default(), &budget)
            .expect("budget expiry is an anytime result, not an error");
        match sol.status {
            SolveStatus::BudgetExceeded { best_bound } => {
                // Soundness: the reported dual bound may never understate
                // the true optimum for a maximization.
                assert!(
                    best_bound >= exact.objective - 1e-9,
                    "anytime bound {best_bound} understates optimum {}",
                    exact.objective
                );
            }
            SolveStatus::Optimal => {
                // Machine was fast enough to finish despite the stall;
                // the answer must then be the exact one.
                assert!((sol.objective - exact.objective).abs() < 1e-9);
            }
            other => panic!("unexpected status {other:?}"),
        }
    });
}
