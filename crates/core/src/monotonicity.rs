//! Monotonicity certification: `x' = x + t·e_f` with `t ∈ [0, τ]` implies
//! `score(N(x')) ≥ score(N(x))` (or ≤ for decreasing features).
//!
//! This property is *inherently* relational: the two executions share every
//! coordinate except the perturbed feature, and only difference tracking
//! preserves that correlation through the layers. The non-relational
//! baselines bound each execution's score independently, which almost never
//! certifies monotonicity — exactly the gap the paper reports.

use crate::certificate::CertSink;
use crate::config::{Method, RavenConfig};
use crate::encode::{encode, Expr};
use crate::hooks::{Phase, RunHooks};
use crate::tier::{Tier, TierMillis};
use raven_deeppoly::DeepPolyAnalysis;
use raven_diffpoly::DiffPolyAnalysis;
use raven_interval::{linf_ball, Interval, IntervalAnalysis};
use raven_lp::{Direction, LinExpr, LpError, LpProblem, SolveStatus, VarId};
use raven_nn::{AnalysisPlan, PlanStep};
use raven_tensor::Matrix;
use std::time::Instant;

/// A monotonicity verification instance.
#[derive(Debug, Clone)]
pub struct MonotonicityProblem {
    /// The analyzed network (lowered).
    pub plan: AnalysisPlan,
    /// Center of the input region.
    pub center: Vec<f64>,
    /// ℓ∞ radius of the input region around `center`.
    pub eps: f64,
    /// Index of the perturbed feature.
    pub feature: usize,
    /// Maximum feature increase `τ`.
    pub tau: f64,
    /// Linear functional over the outputs defining the score (e.g.
    /// `[-1, 1]` for the positive-class logit margin of a binary
    /// classifier).
    pub output_weights: Vec<f64>,
    /// Whether the score is expected to be non-decreasing in the feature.
    pub increasing: bool,
}

/// Outcome of a monotonicity verification run.
#[derive(Debug, Clone, PartialEq)]
pub struct MonotonicityResult {
    /// The method that produced this result.
    pub method: Method,
    /// Certified bound on the signed score change
    /// `score(x + t e_f) − score(x)`: a lower bound for increasing
    /// properties, an upper bound (negated) for decreasing ones. The
    /// property is verified when this is ≥ 0.
    pub certified_change: f64,
    /// Whether the property was certified.
    pub verified: bool,
    /// Wall-clock milliseconds spent.
    pub solve_millis: f64,
    /// Precision tier that produced the bound ([`Tier::Lp`] for the
    /// relational methods, [`Tier::Analysis`] for the baselines or after
    /// deadline degradation; monotonicity never solves a MILP).
    pub tier: Tier,
    /// True when a budget pushed the result below the configured
    /// precision (the bound stays sound, only looser).
    pub degraded: bool,
    /// Wall-clock spent per tier.
    pub tier_millis: TierMillis,
}

/// Extends the plan with a single-row affine step computing the score.
fn score_plan(plan: &AnalysisPlan, weights: &[f64]) -> AnalysisPlan {
    let out_dim = plan.output_dim();
    assert_eq!(weights.len(), out_dim, "score weight width mismatch");
    let mut w = Matrix::zeros(1, out_dim);
    for (j, &v) in weights.iter().enumerate() {
        w.set(0, j, v);
    }
    let mut steps = plan.steps().to_vec();
    steps.push(PlanStep::Affine {
        weight: w,
        bias: vec![0.0],
    });
    AnalysisPlan::from_parts(plan.input_dim(), steps)
}

/// The two input boxes: execution A over the base region, execution B over
/// the region shifted by `[0, τ]` along the feature.
fn input_boxes(problem: &MonotonicityProblem) -> (Vec<Interval>, Vec<Interval>) {
    let ball = linf_ball(
        &problem.center,
        problem.eps,
        f64::NEG_INFINITY,
        f64::INFINITY,
    );
    let mut shifted = ball.clone();
    shifted[problem.feature] = Interval::new(
        shifted[problem.feature].lo(),
        shifted[problem.feature].hi() + problem.tau,
    );
    (ball, shifted)
}

/// Verifies a monotonicity instance with the chosen method.
///
/// # Panics
///
/// Panics when the feature index or weight vector is inconsistent with the
/// plan.
pub fn verify_monotonicity(
    problem: &MonotonicityProblem,
    method: Method,
    config: &RavenConfig,
) -> MonotonicityResult {
    verify_monotonicity_with_hooks(problem, method, config, &RunHooks::default())
        .expect("default hooks never cancel")
}

/// [`verify_monotonicity`] with cancellation/progress hooks. Returns
/// `None` when the run was cancelled at a phase boundary.
///
/// # Panics
///
/// Panics on the same shape violations as [`verify_monotonicity`].
pub fn verify_monotonicity_with_hooks(
    problem: &MonotonicityProblem,
    method: Method,
    config: &RavenConfig,
    hooks: &RunHooks<'_>,
) -> Option<MonotonicityResult> {
    verify_monotonicity_inner(problem, method, config, hooks, None)
}

/// [`verify_monotonicity`] that additionally emits a replayable proof
/// certificate: the duals of the relational LP solve the verdict was
/// served from, when it finished (its claimed bound is the verdict's
/// `certified_change`, bit for bit), plus the per-neuron DeepPoly relaxation
/// records for the two executions. `None` certificate when the run
/// produced no certifiable evidence; the [`MonotonicityResult`] is the
/// same verdict the uncertified path computes.
///
/// # Panics
///
/// Panics on the same shape violations as [`verify_monotonicity`].
pub fn verify_monotonicity_certified(
    problem: &MonotonicityProblem,
    method: Method,
    config: &RavenConfig,
) -> (MonotonicityResult, Option<raven_check::Certificate>) {
    verify_monotonicity_certified_with_hooks(problem, method, config, &RunHooks::default())
        .expect("default hooks never cancel")
}

/// [`verify_monotonicity_certified`] with cancellation/progress hooks.
/// Returns `None` when the run was cancelled at a phase boundary.
///
/// # Panics
///
/// Panics on the same shape violations as [`verify_monotonicity`].
pub fn verify_monotonicity_certified_with_hooks(
    problem: &MonotonicityProblem,
    method: Method,
    config: &RavenConfig,
    hooks: &RunHooks<'_>,
) -> Option<(MonotonicityResult, Option<raven_check::Certificate>)> {
    let mut sink = CertSink::default();
    let res = verify_monotonicity_inner(problem, method, config, hooks, Some(&mut sink))?;
    let cert = sink.into_certificate("monotonicity", res.tier, res.degraded);
    Some((res, cert))
}

fn verify_monotonicity_inner(
    problem: &MonotonicityProblem,
    method: Method,
    config: &RavenConfig,
    hooks: &RunHooks<'_>,
    cert: Option<&mut CertSink>,
) -> Option<MonotonicityResult> {
    assert!(
        problem.feature < problem.plan.input_dim(),
        "feature index out of range"
    );
    assert!(problem.tau >= 0.0, "tau must be non-negative");
    let start = Instant::now();
    let sign = if problem.increasing { 1.0 } else { -1.0 };
    let _phase_scope = crate::metrics::PhaseScope::new(hooks);
    if !hooks.enter(Phase::Analysis) {
        return None;
    }
    let (certified_change, tier, degraded, lp_millis) = match method {
        Method::Box | Method::ZonotopeIndividual | Method::DeepPolyIndividual => (
            independent_change_bound(problem, method),
            Tier::Analysis,
            false,
            0.0,
        ),
        Method::IoLp | Method::Raven => {
            verify_monotonicity_lp(problem, method, config, sign, hooks, cert)?
        }
    };
    let millis = start.elapsed().as_secs_f64() * 1e3;
    crate::metrics::record_verdict("monotonicity", tier, degraded);
    Some(MonotonicityResult {
        method,
        certified_change,
        verified: certified_change >= 0.0,
        solve_millis: millis,
        tier,
        degraded,
        tier_millis: TierMillis {
            analysis: (millis - lp_millis).max(0.0),
            lp: lp_millis,
            milp: 0.0,
        },
    })
}

/// Independent-bounds certified change via the chosen abstract domain:
/// always sound (it simply ignores the cross-execution correlation), used
/// both by the non-relational baselines and as the degradation fallback
/// when a deadline interrupts the relational LP.
fn independent_change_bound(problem: &MonotonicityProblem, method: Method) -> f64 {
    let splan = score_plan(&problem.plan, &problem.output_weights);
    let (box_a, box_b) = input_boxes(problem);
    let (score_a, score_b) = match method {
        Method::Box => {
            let a = IntervalAnalysis::run(&splan, &box_a);
            let b = IntervalAnalysis::run(&splan, &box_b);
            (a.output()[0], b.output()[0])
        }
        Method::ZonotopeIndividual => {
            let a = raven_zonotope::ZonotopeAnalysis::run(&splan, &box_a);
            let b = raven_zonotope::ZonotopeAnalysis::run(&splan, &box_b);
            (a.output()[0], b.output()[0])
        }
        _ => {
            let a = DeepPolyAnalysis::run(&splan, &box_a);
            let b = DeepPolyAnalysis::run(&splan, &box_b);
            (a.output()[0], b.output()[0])
        }
    };
    // Independent bounds: worst signed change.
    if problem.increasing {
        score_b.lo() - score_a.hi()
    } else {
        score_a.lo() - score_b.hi()
    }
}

/// The relational LP path; returns `(certified_change, tier, degraded,
/// lp_millis)`, or `None` when cancelled.
fn verify_monotonicity_lp(
    problem: &MonotonicityProblem,
    method: Method,
    config: &RavenConfig,
    sign: f64,
    hooks: &RunHooks<'_>,
    mut cert: Option<&mut CertSink>,
) -> Option<(f64, Tier, bool, f64)> {
    let plan = &problem.plan;
    let (box_a, box_b) = input_boxes(problem);
    let dp_a = DeepPolyAnalysis::run(plan, &box_a);
    let dp_b = DeepPolyAnalysis::run(plan, &box_b);
    if let Some(sink) = cert.as_deref_mut() {
        sink.record_analyses(plan, &[&dp_a, &dp_b]);
    }
    // Base variables: the shared input x (box A) and the shift t.
    let mut lp = LpProblem::new();
    let x_vars: Vec<VarId> = box_a
        .iter()
        .map(|iv| lp.add_var(iv.lo(), iv.hi()))
        .collect();
    let t_var = lp.add_var(0.0, problem.tau);
    let exprs_a: Vec<Expr> = x_vars.iter().map(|&v| Expr::var(v)).collect();
    let exprs_b: Vec<Expr> = x_vars
        .iter()
        .enumerate()
        .map(|(j, &v)| {
            if j == problem.feature {
                Expr::var(v).plus_var(1.0, t_var)
            } else {
                Expr::var(v)
            }
        })
        .collect();
    if !hooks.enter(Phase::DiffPoly) {
        return None;
    }
    let diffs: Vec<(usize, usize, DiffPolyAnalysis)> = if method == Method::Raven {
        let delta: Vec<Interval> = (0..plan.input_dim())
            .map(|j| {
                if j == problem.feature {
                    Interval::new(0.0, problem.tau)
                } else {
                    Interval::point(0.0)
                }
            })
            .collect();
        // B − A is the natural orientation: δ = x_B − x_A ≥ 0.
        vec![(1, 0, DiffPolyAnalysis::run(plan, &dp_b, &dp_a, &delta))]
    } else {
        Vec::new()
    };
    if !hooks.enter(Phase::Encode) {
        return None;
    }
    let dp_refs = vec![&dp_a, &dp_b];
    let input_exprs = vec![exprs_a, exprs_b];
    let pair_refs: Vec<(usize, usize, &DiffPolyAnalysis)> =
        diffs.iter().map(|(a, b, d)| (*a, *b, d)).collect();
    let encoding = encode(&mut lp, plan, &input_exprs, &dp_refs, &pair_refs);
    // Objective: minimize sign · (score_B − score_A).
    let mut obj = LinExpr::new();
    for (c, &w) in problem.output_weights.iter().enumerate() {
        if w == 0.0 {
            continue;
        }
        obj.push(sign * w, encoding.execs[1].outputs[c]);
        obj.push(-sign * w, encoding.execs[0].outputs[c]);
    }
    if !hooks.enter(Phase::Solve) {
        return None;
    }
    lp.set_objective(Direction::Minimize, obj);
    let t0 = Instant::now();
    let res = lp.solve_with_budget(&config.simplex, &hooks.lp_budget());
    let lp_millis = t0.elapsed().as_secs_f64() * 1e3;
    Some(match res {
        Ok(sol) if sol.status == SolveStatus::Optimal => {
            if let Some(sink) = cert {
                sink.record_lp(&lp, &sol);
            }
            (sol.objective, Tier::Lp, false, lp_millis)
        }
        Err(LpError::BudgetExceeded) => {
            if hooks.cancelled() {
                // Cancellation wants no answer at all; deadline expiry
                // (below) wants the best sound one.
                return None;
            }
            (
                independent_change_bound(problem, Method::DeepPolyIndividual),
                Tier::Analysis,
                true,
                lp_millis,
            )
        }
        // Numerical failure: the independent-bounds answer is still sound
        // (strictly better than the old "uncertifiable" −∞ fallback).
        _ => (
            independent_change_bound(problem, Method::DeepPolyIndividual),
            Tier::Analysis,
            false,
            lp_millis,
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use raven_nn::{ActKind, NetworkBuilder};

    /// A hand-built network that is monotone increasing in feature 0:
    /// all paths from input 0 to the score have non-negative weight
    /// products.
    fn monotone_net() -> raven_nn::Network {
        NetworkBuilder::new(3)
            .dense_from(
                &[&[0.8, -0.4, 0.2], &[0.5, 0.3, -0.6], &[0.9, 0.1, 0.4]],
                &[0.1, -0.2, 0.0],
            )
            .activation(ActKind::Sigmoid)
            .dense_from(&[&[0.7, 0.5, 0.6], &[0.0, -0.2, 0.1]], &[0.0, 0.3])
            .build()
    }

    fn problem(tau: f64) -> MonotonicityProblem {
        MonotonicityProblem {
            plan: monotone_net().to_plan(),
            center: vec![0.5, 0.5, 0.5],
            eps: 0.1,
            feature: 0,
            tau,
            // Score = out0 − out1; increasing in input 0 because out0's
            // paths from input 0 are positive and out1's are ~0.
            output_weights: vec![1.0, -1.0],
            increasing: true,
        }
    }

    #[test]
    fn raven_certifies_monotone_network() {
        let p = problem(0.2);
        let res = verify_monotonicity(&p, Method::Raven, &RavenConfig::default());
        assert!(
            res.verified,
            "raven should certify monotonicity: change {}",
            res.certified_change
        );
    }

    #[test]
    fn nonrelational_baselines_fail_where_raven_succeeds() {
        let p = problem(0.05);
        let raven = verify_monotonicity(&p, Method::Raven, &RavenConfig::default());
        let dp = verify_monotonicity(&p, Method::DeepPolyIndividual, &RavenConfig::default());
        let bx = verify_monotonicity(&p, Method::Box, &RavenConfig::default());
        assert!(raven.verified);
        // With a small tau the independent-bounds gap (2×eps of slack)
        // dominates, so the baselines cannot certify.
        assert!(!dp.verified, "deeppoly-individual unexpectedly verified");
        assert!(!bx.verified, "box unexpectedly verified");
        assert!(raven.certified_change >= dp.certified_change - 1e-9);
        assert!(dp.certified_change >= bx.certified_change - 1e-9);
    }

    #[test]
    fn certified_change_lower_bounds_sampled_changes() {
        let p = problem(0.3);
        let net = monotone_net();
        let res = verify_monotonicity(&p, Method::Raven, &RavenConfig::default());
        for s in 0..25 {
            let x: Vec<f64> = (0..3)
                .map(|i| 0.4 + 0.2 * (((s * 5 + i * 11) % 17) as f64 / 16.0))
                .collect();
            let t = p.tau * ((s % 7) as f64 / 6.0);
            let mut x2 = x.clone();
            x2[0] += t;
            let score = |v: &[f64]| {
                let o = net.forward(v);
                o[0] - o[1]
            };
            let change = score(&x2) - score(&x);
            assert!(
                change >= res.certified_change - 1e-7,
                "sampled change {change} below certificate {}",
                res.certified_change
            );
        }
    }

    #[test]
    fn decreasing_direction_flips_the_test() {
        // The same network is *not* monotone decreasing in feature 0.
        let mut p = problem(0.2);
        p.increasing = false;
        let res = verify_monotonicity(&p, Method::Raven, &RavenConfig::default());
        assert!(!res.verified);
    }

    #[test]
    fn hooks_cancel_monotonicity_runs() {
        use std::sync::atomic::AtomicBool;
        let p = problem(0.2);
        let cancel = AtomicBool::new(true);
        let hooks = RunHooks::default().with_cancel(&cancel);
        assert!(
            verify_monotonicity_with_hooks(&p, Method::Raven, &RavenConfig::default(), &hooks)
                .is_none()
        );
        let plain = verify_monotonicity(&p, Method::Raven, &RavenConfig::default());
        let hooked = verify_monotonicity_with_hooks(
            &p,
            Method::Raven,
            &RavenConfig::default(),
            &RunHooks::default(),
        )
        .unwrap();
        assert_eq!(plain.certified_change, hooked.certified_change);
    }

    #[test]
    fn zero_tau_is_trivially_monotone_for_raven_only() {
        // With tau = 0 the two executions coincide. RaVeN pins every
        // difference variable to zero and certifies exactly; the I/O LP has
        // no difference tracking, so the two copies may sit at different
        // points of the same activation relaxation band — it cannot certify
        // even this trivial instance. This is the relational gap the paper
        // highlights.
        let p = problem(0.0);
        let raven = verify_monotonicity(&p, Method::Raven, &RavenConfig::default());
        assert!(
            raven.verified,
            "raven: tau=0 must certify, change {}",
            raven.certified_change
        );
        let io = verify_monotonicity(&p, Method::IoLp, &RavenConfig::default());
        assert!(io.certified_change <= raven.certified_change + 1e-9);
    }
}
