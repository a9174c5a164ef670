//! The basis factorization keeps sparse verifier-shaped LPs (equality rows
//! and free variables included) on the real rows: no claimed optimum fails
//! the point check and needs the cold re-solve. Alone in its own test
//! binary because the solver counters are process-global.

use raven_lp::metrics::{LP_OPTIMUM_CHECK_FAILURES, LP_REFACTORIZATIONS};

mod support;

#[test]
fn sparse_solves_never_fail_the_optimum_check() {
    let (failures, refactors) = (LP_OPTIMUM_CHECK_FAILURES.get(), LP_REFACTORIZATIONS.get());
    for case in 0..8 {
        support::sparse_lp(0x5EED_0000 + case, 0, true)
            .solve()
            .expect("sparse LP solves");
    }
    assert!(
        LP_REFACTORIZATIONS.get() > refactors,
        "the LPs are long enough to refactor"
    );
    for case in 0..8 {
        support::sparse_lp(0x5EED_0000 + case, 3, true)
            .solve_milp()
            .expect("sparse MILP solves");
    }
    assert_eq!(LP_OPTIMUM_CHECK_FAILURES.get() - failures, 0);
}
