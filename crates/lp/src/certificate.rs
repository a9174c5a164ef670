//! Certificate emission: packaging a solve's duals, Farkas multipliers, and
//! branch-and-bound leaf proofs into a [`raven_check::LpCertificate`] that
//! the exact checker can replay independently.
//!
//! Emission never affects solving and never solves: every solve already
//! reports its evidence against the problem's own rows and bounds
//! (presolve's postsolve maps it back), so the certificate proves exactly
//! the bound the solve returned. A solve that cannot be certified (an
//! unbounded relaxation, an infeasibility detected without usable
//! multipliers) simply yields `None`; it never degrades the solution
//! itself.

use crate::model::{Direction, LpProblem, Sense, Solution, SolveStatus};
use raven_check::{
    BranchLeaf, CertDirection, CertProblem, CertRow, CertSense, LeafProof, LpCertificate, LpProof,
};

/// Snapshot of an [`LpProblem`] in the checker's vocabulary.
pub(crate) fn problem_cert(problem: &LpProblem) -> CertProblem {
    CertProblem {
        direction: match problem.direction {
            Direction::Minimize => CertDirection::Minimize,
            Direction::Maximize => CertDirection::Maximize,
        },
        lower: problem.bounds.iter().map(|&(lo, _)| lo).collect(),
        upper: problem.bounds.iter().map(|&(_, hi)| hi).collect(),
        integer: problem
            .integer
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i))
            .collect(),
        rows: problem
            .rows
            .iter()
            .map(|row| CertRow {
                sense: match row.sense {
                    Sense::Le => CertSense::Le,
                    Sense::Ge => CertSense::Ge,
                    Sense::Eq => CertSense::Eq,
                },
                rhs: row.rhs,
                coeffs: row.expr.terms().iter().map(|&(v, c)| (v.0, c)).collect(),
            })
            .collect(),
        objective: problem
            .objective
            .terms()
            .iter()
            .map(|&(v, c)| (v.0, c))
            .collect(),
    }
}

/// Zeroes out multipliers whose sign is invalid for their row's sense:
/// duals in the user orientation of the objective `direction`, Farkas rays
/// as for a minimization (`≤` rows need `y ≤ 0`, `≥` rows `y ≥ 0`). Float
/// noise can leave a solver multiplier a few ulps on the wrong side of
/// zero, which the exact checker hard-rejects; dropping such a multiplier
/// only *loosens* a dual bound (weak duality holds for any valid-signed
/// subset) and contributes nothing to a refutation, so this is always
/// sound.
fn oriented(problem: &LpProblem, y: &[f64], direction: Direction) -> Vec<f64> {
    let maximize = direction == Direction::Maximize;
    problem
        .rows
        .iter()
        .zip(y)
        .map(|(row, &v)| {
            let valid = match (maximize, row.sense) {
                (_, Sense::Eq) => true,
                (true, Sense::Le) | (false, Sense::Ge) => v >= 0.0,
                (true, Sense::Ge) | (false, Sense::Le) => v <= 0.0,
            };
            if valid {
                v
            } else {
                0.0
            }
        })
        .collect()
}

/// The infinite bound a proved-infeasible problem claims: nothing is
/// feasible, so the optimum is −∞ for Maximize and +∞ for Minimize.
fn infeasible_claim(direction: Direction) -> f64 {
    match direction {
        Direction::Maximize => f64::NEG_INFINITY,
        Direction::Minimize => f64::INFINITY,
    }
}

/// Certificate for `sol`: its branch-and-bound leaves prove a MILP
/// bound, else its optimal duals prove the objective or its Farkas
/// multipliers prove infeasibility. `None` when the outcome carries no
/// replayable evidence.
pub(crate) fn certificate(problem: &LpProblem, sol: &Solution) -> Option<LpCertificate> {
    let n = problem.rows.len();
    let (claimed_bound, proof) = if !sol.leaves.is_empty() {
        let claimed_bound = match sol.status {
            SolveStatus::Optimal => sol.objective,
            SolveStatus::BudgetExceeded { best_bound } => best_bound,
            SolveStatus::Infeasible => infeasible_claim(problem.direction),
            SolveStatus::Unbounded => return None,
        };
        let leaves = sol
            .leaves
            .iter()
            .map(|leaf| BranchLeaf {
                fixes: leaf.fixes.clone(),
                proof: match &leaf.proof {
                    LeafProof::Bound { duals } => LeafProof::Bound {
                        duals: oriented(problem, duals, problem.direction),
                    },
                    LeafProof::Farkas { ray } => LeafProof::Farkas {
                        ray: oriented(problem, ray, Direction::Minimize),
                    },
                },
            })
            .collect();
        (claimed_bound, LpProof::Branch { leaves })
    } else {
        match sol.status {
            SolveStatus::Optimal if sol.duals.len() == n => (
                sol.objective,
                LpProof::Bound {
                    duals: oriented(problem, &sol.duals, problem.direction),
                },
            ),
            SolveStatus::Infeasible if sol.farkas.len() == n && n > 0 => (
                infeasible_claim(problem.direction),
                LpProof::Farkas {
                    ray: oriented(problem, &sol.farkas, Direction::Minimize),
                },
            ),
            _ => return None,
        }
    };
    Some(LpCertificate {
        problem: problem_cert(problem),
        claimed_bound,
        proof,
    })
}

#[cfg(test)]
mod tests {
    use crate::milp::tests::knapsack;
    use crate::{Budget, Direction, LinExpr, LpProblem, MilpOptions, Sense, SolveStatus};
    use raven_check::{check_certificate, Certificate, LeafProof, LpCertificate, LpProof};

    fn wrap(lp: LpCertificate) -> Certificate {
        Certificate {
            kind: "test".to_string(),
            tier: "lp".to_string(),
            degraded: false,
            lp: Some(lp),
            analysis: None,
        }
    }

    #[test]
    fn lp_certificate_replays_exactly() {
        // max x + y s.t. x + 2y ≤ 4, 3x + y ≤ 6, boxes [0,10] → 2.8.
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 10.0);
        let y = p.add_var(0.0, 10.0);
        p.add_constraint(LinExpr::new().term(1.0, x).term(2.0, y), Sense::Le, 4.0);
        p.add_constraint(LinExpr::new().term(3.0, x).term(1.0, y), Sense::Le, 6.0);
        p.set_objective(
            Direction::Maximize,
            LinExpr::new().term(1.0, x).term(1.0, y),
        );
        let sol = p.solve().unwrap();
        assert!(sol.is_optimal());
        let cert = p.certificate(&sol).expect("optimal LP must certify");
        let report = check_certificate(&wrap(cert)).expect("replay must accept");
        assert!(report.lp_checked);
        assert!((report.exact_bound.unwrap() - 2.8).abs() < 1e-6);
    }

    #[test]
    fn wrong_signed_dual_noise_is_zeroed_not_rejected() {
        // min x s.t. x ≥ 1, x ≥ 0.5, x ∈ [0,10] → 1. Hand a Solution whose
        // second dual carries a few-ulp wrong-signed noise entry (as the
        // float simplex produces on slack rows); emission must zero it so
        // the exact checker accepts instead of hard-rejecting the sign.
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 10.0);
        p.add_constraint(LinExpr::new().term(1.0, x), Sense::Ge, 1.0);
        p.add_constraint(LinExpr::new().term(1.0, x), Sense::Ge, 0.5);
        p.set_objective(Direction::Minimize, LinExpr::new().term(1.0, x));
        let sol = crate::Solution {
            status: SolveStatus::Optimal,
            objective: 1.0,
            values: vec![1.0],
            duals: vec![1.0, -3.0e-16],
            farkas: Vec::new(),
            leaves: Vec::new(),
        };
        let cert = p.certificate(&sol).expect("optimal solution must certify");
        let report = check_certificate(&wrap(cert)).expect("noise dual must be sanitized away");
        assert!(report.lp_checked);
        assert!((report.exact_bound.unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_lp_emits_replayable_farkas_ray() {
        // x + y ≥ 5 with x,y ∈ [0,1] is infeasible.
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 1.0);
        let y = p.add_var(0.0, 1.0);
        p.add_constraint(LinExpr::new().term(1.0, x).term(1.0, y), Sense::Ge, 5.0);
        p.set_objective(Direction::Maximize, LinExpr::new().term(1.0, x));
        let sol = p.solve().unwrap();
        assert_eq!(sol.status, SolveStatus::Infeasible);
        assert!(
            !sol.farkas.is_empty(),
            "presolve's conflict must surface a ray"
        );
        let cert = p.certificate(&sol).expect("infeasible LP must certify");
        let report = check_certificate(&wrap(cert)).expect("farkas replay must accept");
        assert!(report.exact_bound.is_none());
    }

    #[test]
    fn milp_branch_certificate_replays() {
        let p = knapsack();
        // Warm mode presolves once at the root and maps every leaf back;
        // cold mode presolves per node inside each LP solve.
        for warm_start in [true, false] {
            let opts = MilpOptions {
                warm_start,
                ..MilpOptions::default()
            };
            let sol = p.solve_milp_with(&opts).unwrap();
            assert!(sol.is_optimal());
            let cert = p.certificate(&sol).expect("complete B&B must certify");
            assert_eq!(cert.claimed_bound, sol.objective);
            let report = check_certificate(&wrap(cert)).expect("branch replay must accept");
            assert!(report.leaves > 1, "knapsack must branch");
        }
    }

    #[test]
    fn milp_certificate_covers_branches_emptied_by_presolve() {
        // max z s.t. 2z + y ≤ 1.5, y ∈ [0.5, 1], z binary: the root
        // presolve derives z ≤ 0.5, so the up branch z ≥ 1 is empty before
        // any solve. Over the original box z = 1 is a candidate, so the
        // leaf needs the row's refutation as its Farkas ray.
        let mut p = LpProblem::new();
        let z = p.add_binary_var();
        let y = p.add_var(0.5, 1.0);
        p.add_constraint(LinExpr::new().term(2.0, z).term(1.0, y), Sense::Le, 1.5);
        p.set_objective(Direction::Maximize, LinExpr::new().term(1.0, z));
        let sol = p.solve_milp().unwrap();
        assert_eq!(sol.objective, 0.0);
        let cert = p.certificate(&sol).expect("complete B&B must certify");
        let LpProof::Branch { leaves } = &cert.proof else {
            panic!("a branching MILP certifies with a tree");
        };
        assert!(leaves.iter().any(|leaf| {
            leaf.fixes == [(0, 1.0, f64::INFINITY)]
                && matches!(leaf.proof, LeafProof::Farkas { .. })
        }));
        check_certificate(&wrap(cert)).expect("branch replay must accept");
    }

    #[test]
    fn milp_budget_exit_certifies_anytime_bound() {
        let p = knapsack();
        let exact = p.solve_milp().unwrap().objective;
        let opts = MilpOptions {
            max_nodes: 3,
            ..MilpOptions::default()
        };
        let sol = p
            .solve_milp_with_budget(&opts, &Budget::unlimited())
            .unwrap();
        let SolveStatus::BudgetExceeded { best_bound } = sol.status else {
            panic!("expected BudgetExceeded, got {:?}", sol.status);
        };
        assert!(best_bound >= exact - 1e-9);
        // Root explored (3 nodes > 1), so open nodes carry parent duals.
        let cert = p
            .certificate(&sol)
            .expect("anytime exit past the root must certify");
        let report = check_certificate(&wrap(cert)).expect("anytime replay must accept");
        assert!((report.claimed_bound.unwrap() - best_bound).abs() < 1e-9);
    }

    #[test]
    fn infeasible_milp_certifies_with_farkas_leaves() {
        // x + y ≥ 3 over binaries is infeasible; Maximize makes the
        // infeasibility claim −inf, which only all-Farkas leaves support.
        let mut p = LpProblem::new();
        let x = p.add_binary_var();
        let y = p.add_binary_var();
        p.add_constraint(LinExpr::new().term(1.0, x).term(1.0, y), Sense::Ge, 3.0);
        p.set_objective(Direction::Maximize, LinExpr::new().term(1.0, x));
        let sol = p.solve_milp().unwrap();
        assert_eq!(sol.status, SolveStatus::Infeasible);
        let cert = p.certificate(&sol).expect("infeasible MILP must certify");
        let report = check_certificate(&wrap(cert)).expect("replay must accept");
        assert!(report.exact_bound.is_none());
    }

    #[test]
    fn tampered_branch_certificate_is_rejected() {
        let p = knapsack();
        let sol = p.solve_milp().unwrap();
        let mut cert = p.certificate(&sol).unwrap();
        // Claiming a tighter bound than the tree proves must be rejected.
        cert.claimed_bound -= 1.0;
        assert!(check_certificate(&wrap(cert)).is_err());
    }
}
