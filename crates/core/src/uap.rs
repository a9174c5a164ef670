//! Verification of robustness against universal adversarial perturbations
//! (UAP) — the paper's headline property — and its hamming-distance variant.
//!
//! Problem: `k` correctly-classified inputs `z_1..z_k`, one *shared*
//! perturbation `d` with `‖d‖∞ ≤ ε` applied to all of them. Certify a lower
//! bound on the worst-case accuracy `min_d (#correctly classified)/k`.
//! The worst-case hamming distance of the predicted label string is the
//! complementary count `k · (1 − accuracy)`.

use crate::certificate::CertSink;
use crate::config::{Method, RavenConfig};
use crate::encode::{encode, Expr};
use crate::hooks::{Phase, RunHooks};
use crate::margin::{all_positive, box_margins, deeppoly_margins, zonotope_margins};
use crate::tier::{Tier, TierMillis};
use raven_deeppoly::DeepPolyAnalysis;
use raven_diffpoly::DiffPolyAnalysis;
use raven_interval::{linf_ball, Interval};
use raven_lp::{
    BasisCache, Budget, Direction, LinExpr, LpError, LpProblem, Sense, SolveStatus, VarId,
};
use raven_nn::AnalysisPlan;
use std::time::Instant;

/// A UAP verification instance.
#[derive(Debug, Clone)]
pub struct UapProblem {
    /// The analyzed network (lowered).
    pub plan: AnalysisPlan,
    /// The `k` clean inputs.
    pub inputs: Vec<Vec<f64>>,
    /// Ground-truth label per input.
    pub labels: Vec<usize>,
    /// ℓ∞ radius of the shared perturbation.
    pub eps: f64,
}

impl UapProblem {
    /// Number of executions `k`.
    pub fn k(&self) -> usize {
        self.inputs.len()
    }
}

/// Outcome of a UAP verification run.
#[derive(Debug, Clone, PartialEq)]
pub struct UapResult {
    /// The method that produced this result.
    pub method: Method,
    /// Certified lower bound on worst-case accuracy over the batch, in
    /// `[0, 1]`.
    pub worst_case_accuracy: f64,
    /// Certified upper bound on the worst-case hamming distance
    /// (`k · (1 − accuracy)`; fractional under LP relaxation).
    pub worst_case_hamming: f64,
    /// How many inputs were certified robust *individually* (the
    /// union-bound information every method starts from).
    pub individually_verified: usize,
    /// Wall-clock milliseconds spent.
    pub solve_millis: f64,
    /// LP size, when an LP was built.
    pub lp_rows: usize,
    /// LP variable count, when an LP was built.
    pub lp_vars: usize,
    /// Whether the spec bound is exact over the indicator variables (MILP
    /// proved integral optimum) rather than an LP relaxation.
    pub exact: bool,
    /// The shared perturbation realizing the LP/MILP optimum, when an LP
    /// was solved — a concrete attack *candidate*. Replaying it through the
    /// network yields an empirical upper bound on worst-case accuracy that
    /// sandwiches the certificate (see [`replay_uap_delta`]).
    pub counterexample_delta: Option<Vec<f64>>,
    /// Precision tier of the degradation ladder that produced the final
    /// bound. Non-relational baselines always report
    /// [`Tier::Analysis`]; the LP methods report the deepest tier that
    /// finished within budget.
    pub tier: Tier,
    /// True when a budget (deadline, cancellation pressure, or solver
    /// node limit) pushed the result below the configured precision. The
    /// bound is still sound — only less tight than an unbudgeted run.
    pub degraded: bool,
    /// Wall-clock spent per tier (environment-dependent; excluded from the
    /// deterministic verdict object).
    pub tier_millis: TierMillis,
}

/// Replays a shared perturbation against a batch, returning the concrete
/// accuracy — an upper bound on the worst case that complements the
/// verifier's lower bound.
///
/// # Panics
///
/// Panics when shapes disagree.
pub fn replay_uap_delta(
    net: &raven_nn::Network,
    inputs: &[Vec<f64>],
    labels: &[usize],
    delta: &[f64],
) -> f64 {
    assert_eq!(inputs.len(), labels.len(), "replay: length mismatch");
    let correct = inputs
        .iter()
        .zip(labels)
        .filter(|(z, &y)| {
            let x: Vec<f64> = z.iter().zip(delta).map(|(&a, &b)| a + b).collect();
            net.classify(&x) == y
        })
        .count();
    correct as f64 / inputs.len() as f64
}

/// Verifies a UAP instance under a *combined ℓ∞ + ℓ1 threat model*: the
/// shared perturbation satisfies `‖d‖∞ ≤ problem.eps` **and**
/// `‖d‖₁ ≤ l1_budget`.
///
/// The LP methods encode the ℓ1 constraint exactly with auxiliary
/// absolute-value variables (`t_j ≥ ±d_j`, `Σ t_j ≤ budget`); the
/// non-relational baselines cannot express it and soundly fall back to the
/// ℓ∞ box — which is precisely the expressiveness gap of box-shaped input
/// specifications that LP-based relational verification closes.
///
/// # Panics
///
/// Panics on the same conditions as [`verify_uap`], or when
/// `l1_budget < 0`.
pub fn verify_uap_l1(
    problem: &UapProblem,
    l1_budget: f64,
    method: Method,
    config: &RavenConfig,
) -> UapResult {
    assert!(l1_budget >= 0.0, "l1 budget must be non-negative");
    // Per-dimension cap implied by the ℓ1 budget.
    let cap = problem.eps.min(l1_budget);
    let delta_box = vec![Interval::symmetric(cap); problem.plan.input_dim()];
    match method {
        Method::Box | Method::ZonotopeIndividual | Method::DeepPolyIndividual => {
            // Box-shaped domains cannot express the ℓ1 coupling; the ℓ∞ box
            // with the per-dimension cap is a sound over-approximation.
            verify_uap_on_box(problem, &delta_box, method, config)
        }
        Method::IoLp | Method::Raven => verify_uap_with_extra(
            problem,
            &delta_box,
            method,
            config,
            Some(l1_budget),
            &RunHooks::default(),
            None,
        )
        .expect("default hooks never cancel"),
    }
}

/// The input region of one execution: `z + delta_box` coordinatewise.
fn exec_box(z: &[f64], delta_box: &[Interval]) -> Vec<Interval> {
    z.iter()
        .zip(delta_box)
        .map(|(&zj, d)| Interval::new(zj + d.lo(), zj + d.hi()))
        .collect()
}

/// Verifies a UAP instance with the chosen method.
///
/// # Panics
///
/// Panics when inputs/labels lengths disagree, the batch is empty, or a
/// label is out of range.
pub fn verify_uap(problem: &UapProblem, method: Method, config: &RavenConfig) -> UapResult {
    verify_uap_with_hooks(problem, method, config, &RunHooks::default())
        .expect("default hooks never cancel")
}

/// [`verify_uap`] with cancellation/progress hooks threaded through every
/// phase. Returns `None` when the run was cancelled at a phase boundary
/// (an in-progress solve is never interrupted; no partial result is
/// produced).
///
/// # Panics
///
/// Panics on the same shape violations as [`verify_uap`].
pub fn verify_uap_with_hooks(
    problem: &UapProblem,
    method: Method,
    config: &RavenConfig,
    hooks: &RunHooks<'_>,
) -> Option<UapResult> {
    let delta_box = vec![Interval::symmetric(problem.eps); problem.plan.input_dim()];
    verify_uap_with_extra(problem, &delta_box, method, config, None, hooks, None)
}

/// [`verify_uap`] that additionally emits a replayable proof certificate
/// for the verdict: the evidence of the very LP/MILP solve the verdict's
/// bound came from (its claimed bound is that bound, bit for bit), plus the
/// per-neuron DeepPoly relaxation records (RaVeN method only — the I/O
/// formulation discards its analyses).
/// The certificate is `None` when the run produced no certifiable
/// evidence; the [`UapResult`] is byte-for-byte the same verdict the
/// uncertified path computes.
///
/// # Panics
///
/// Panics on the same shape violations as [`verify_uap`].
pub fn verify_uap_certified(
    problem: &UapProblem,
    method: Method,
    config: &RavenConfig,
) -> (UapResult, Option<raven_check::Certificate>) {
    verify_uap_certified_with_hooks(problem, method, config, &RunHooks::default())
        .expect("default hooks never cancel")
}

/// [`verify_uap_certified`] with cancellation/progress hooks. Returns
/// `None` when the run was cancelled at a phase boundary.
///
/// # Panics
///
/// Panics on the same shape violations as [`verify_uap`].
pub fn verify_uap_certified_with_hooks(
    problem: &UapProblem,
    method: Method,
    config: &RavenConfig,
    hooks: &RunHooks<'_>,
) -> Option<(UapResult, Option<raven_check::Certificate>)> {
    let delta_box = vec![Interval::symmetric(problem.eps); problem.plan.input_dim()];
    let mut sink = CertSink::default();
    let res = verify_uap_with_extra(
        problem,
        &delta_box,
        method,
        config,
        None,
        hooks,
        Some(&mut sink),
    )?;
    let cert = sink.into_certificate("uap", res.tier, res.degraded);
    Some((res, cert))
}

/// Verifies a UAP instance over an explicit shared-perturbation box
/// (`problem.eps` is ignored; the box defines the threat model). Exposed
/// through [`crate::refine::verify_uap_box`] and used by the input-splitting
/// refinement.
///
/// # Panics
///
/// Panics on shape mismatches or out-of-range labels.
pub(crate) fn verify_uap_on_box(
    problem: &UapProblem,
    delta_box: &[Interval],
    method: Method,
    config: &RavenConfig,
) -> UapResult {
    verify_uap_with_extra(
        problem,
        delta_box,
        method,
        config,
        None,
        &RunHooks::default(),
        None,
    )
    .expect("default hooks never cancel")
}

/// Shared implementation: optional exact ℓ1-budget rows on the LP paths,
/// cancellation polled at phase boundaries, optional certificate
/// collection.
#[allow(clippy::too_many_arguments)]
fn verify_uap_with_extra(
    problem: &UapProblem,
    delta_box: &[Interval],
    method: Method,
    config: &RavenConfig,
    l1_budget: Option<f64>,
    hooks: &RunHooks<'_>,
    cert: Option<&mut CertSink>,
) -> Option<UapResult> {
    assert_eq!(
        problem.inputs.len(),
        problem.labels.len(),
        "uap: inputs/labels length mismatch"
    );
    assert!(!problem.inputs.is_empty(), "uap: empty batch");
    assert_eq!(
        delta_box.len(),
        problem.plan.input_dim(),
        "uap: delta box width mismatch"
    );
    let out_dim = problem.plan.output_dim();
    assert!(
        problem.labels.iter().all(|&l| l < out_dim),
        "uap: label out of range"
    );
    let start = Instant::now();
    let k = problem.k();
    let _phase_scope = crate::metrics::PhaseScope::new(hooks);
    if !hooks.enter(Phase::Margins) {
        return None;
    }
    // Per-input individual margins (used directly by the baselines, and for
    // candidate-class pruning by the LP methods). Each input is independent,
    // so the batch fans out across the configured worker threads.
    let margins: Vec<Vec<f64>> = crate::par::map_range(config.threads, k, |i| {
        let ball = exec_box(&problem.inputs[i], delta_box);
        let y = problem.labels[i];
        match method {
            Method::Box => box_margins(&problem.plan, &ball, y),
            Method::ZonotopeIndividual => zonotope_margins(&problem.plan, &ball, y),
            _ => deeppoly_margins(&problem.plan, &ball, y),
        }
    });
    let individually_verified = margins.iter().filter(|m| all_positive(m)).count();
    let result = match method {
        Method::Box | Method::ZonotopeIndividual | Method::DeepPolyIndividual => {
            let millis = start.elapsed().as_secs_f64() * 1e3;
            Some(UapResult {
                method,
                worst_case_accuracy: individually_verified as f64 / k as f64,
                worst_case_hamming: (k - individually_verified) as f64,
                individually_verified,
                solve_millis: millis,
                lp_rows: 0,
                lp_vars: 0,
                exact: true,
                counterexample_delta: None,
                tier: Tier::Analysis,
                degraded: false,
                tier_millis: TierMillis {
                    analysis: millis,
                    ..TierMillis::default()
                },
            })
        }
        Method::IoLp => verify_uap_io(
            problem,
            delta_box,
            config,
            &margins,
            individually_verified,
            start,
            l1_budget,
            hooks,
            cert,
        ),
        Method::Raven => verify_uap_lp(
            problem,
            delta_box,
            method,
            config,
            &margins,
            individually_verified,
            start,
            l1_budget,
            hooks,
            cert,
        ),
    };
    if let Some(res) = &result {
        crate::metrics::record_verdict("uap", res.tier, res.degraded);
    }
    result
}

/// Adds `‖d‖₁ ≤ budget` rows: `t_j ≥ d_j`, `t_j ≥ −d_j`, `Σ t_j ≤ budget`.
fn add_l1_budget(lp: &mut LpProblem, d_vars: &[VarId], budget: f64) {
    let mut sum = LinExpr::new();
    for &d in d_vars {
        let t = lp.add_var(0.0, budget);
        lp.add_constraint(LinExpr::new().term(1.0, t).term(-1.0, d), Sense::Ge, 0.0);
        lp.add_constraint(LinExpr::new().term(1.0, t).term(1.0, d), Sense::Ge, 0.0);
        sum.push(1.0, t);
    }
    lp.add_constraint(sum, Sense::Le, budget);
}

/// The "I/O formulation" baseline: each execution's margins are bounded by
/// DeepPoly's symbolic *input-level* linear bounds (no per-layer variables),
/// and executions are coupled only through the shared perturbation `d`.
/// This mirrors the prior-work baseline the paper compares against: strictly
/// stronger than verifying every input individually, but blind to the
/// cross-execution structure DiffPoly tracks layer by layer.
#[allow(clippy::too_many_arguments)]
fn verify_uap_io(
    problem: &UapProblem,
    delta_box: &[Interval],
    config: &RavenConfig,
    margins: &[Vec<f64>],
    individually_verified: usize,
    start: Instant,
    l1_budget: Option<f64>,
    hooks: &RunHooks<'_>,
    cert: Option<&mut CertSink>,
) -> Option<UapResult> {
    if !hooks.enter(Phase::Analysis) {
        return None;
    }
    let k = problem.k();
    let plan = &problem.plan;
    let out_dim = plan.output_dim();
    let mut lp = LpProblem::new();
    let d_vars: Vec<VarId> = delta_box
        .iter()
        .map(|d| lp.add_var(d.lo(), d.hi()))
        .collect();
    if let Some(budget) = l1_budget {
        add_l1_budget(&mut lp, &d_vars, budget);
    }
    // Candidate adversarial classes and symbolic input-level margin bounds
    // per execution. The per-execution DeepPoly back-substitutions dominate
    // this method's analysis cost and are independent, so they fan out
    // across workers; the LP assembly below stays sequential (and therefore
    // deterministic) regardless of the thread count.
    let sym_rows = crate::par::map_range(config.threads, k, |i| {
        let y = problem.labels[i];
        let mut candidates = Vec::new();
        let mut mi = 0;
        for c in 0..out_dim {
            if c == y {
                continue;
            }
            if margins[i][mi] <= 0.0 {
                candidates.push((c, mi));
            }
            mi += 1;
        }
        if candidates.is_empty() {
            return None;
        }
        let mplan = crate::margin::margin_plan(plan, y);
        let ball = exec_box(&problem.inputs[i], delta_box);
        let dp = DeepPolyAnalysis::run(&mplan, &ball);
        let sym = dp.input_bounds(&mplan);
        let concrete = sym.concretize(&ball);
        Some((candidates, sym, concrete))
    });
    let mut objective = LinExpr::new();
    let mut any_indicator = false;
    for (i, row_data) in sym_rows.iter().enumerate() {
        let Some((candidates, sym, concrete)) = row_data else {
            continue;
        };
        let z_i = lp.add_binary_var();
        objective.push(1.0, z_i);
        any_indicator = true;
        let mut z_row = LinExpr::new().term(1.0, z_i);
        for &(_, row) in candidates {
            // Margin variable with input-level symbolic bounds, where the
            // input is z_i + d; the certified individual margin bounds are
            // valid bounds for the variable itself.
            let m_var = lp.add_var(margins[i][row], concrete[row].hi().max(margins[i][row]));
            let mut lower = LinExpr::new().term(1.0, m_var);
            let mut lo_rhs = sym.lower_const[row];
            for (j, &coef) in sym.lower_coeffs.row(row).iter().enumerate() {
                if coef != 0.0 {
                    lower.push(-coef, d_vars[j]);
                    lo_rhs += coef * problem.inputs[i][j];
                }
            }
            lp.add_constraint(lower, Sense::Ge, lo_rhs);
            let mut upper = LinExpr::new().term(1.0, m_var);
            let mut hi_rhs = sym.upper_const[row];
            for (j, &coef) in sym.upper_coeffs.row(row).iter().enumerate() {
                if coef != 0.0 {
                    upper.push(-coef, d_vars[j]);
                    hi_rhs += coef * problem.inputs[i][j];
                }
            }
            lp.add_constraint(upper, Sense::Le, hi_rhs);
            // w = 1 forces the margin non-positive.
            let w_ic = lp.add_binary_var();
            z_row.push(-1.0, w_ic);
            let big_m = concrete[row].hi().max(0.0) + 1e-6;
            let row_expr = LinExpr::new().term(1.0, m_var).term(big_m, w_ic);
            lp.add_constraint(row_expr, Sense::Le, big_m);
        }
        lp.add_constraint(z_row, Sense::Le, 0.0);
    }
    let lp_rows = lp.num_constraints();
    let lp_vars = lp.num_vars();
    if !any_indicator {
        let millis = start.elapsed().as_secs_f64() * 1e3;
        return Some(UapResult {
            method: Method::IoLp,
            worst_case_accuracy: 1.0,
            worst_case_hamming: 0.0,
            individually_verified,
            solve_millis: millis,
            lp_rows,
            lp_vars,
            exact: true,
            counterexample_delta: None,
            tier: Tier::Analysis,
            degraded: false,
            tier_millis: TierMillis {
                analysis: millis,
                ..TierMillis::default()
            },
        });
    }
    if !hooks.enter(Phase::Solve) {
        return None;
    }
    let analysis_millis = start.elapsed().as_secs_f64() * 1e3;
    lp.set_objective(Direction::Maximize, objective);
    let spec = solve_spec(&lp, config, &hooks.lp_budget(), &mut BasisCache::new());
    if hooks.cancelled() {
        return None;
    }
    if let (Some(sink), Some(sol)) = (cert, &spec.solution) {
        sink.record_lp(&lp, sol);
    }
    // Executions without indicators are proven individually robust, so the
    // adversary count can never exceed the union bound — this is also the
    // sound answer the analysis tier falls back to on total exhaustion.
    let max_misclassified = spec.bound.clamp(0.0, (k - individually_verified) as f64);
    Some(UapResult {
        method: Method::IoLp,
        worst_case_accuracy: (k as f64 - max_misclassified) / k as f64,
        worst_case_hamming: max_misclassified,
        individually_verified,
        solve_millis: start.elapsed().as_secs_f64() * 1e3,
        lp_rows,
        lp_vars,
        exact: spec.exact(),
        counterexample_delta: spec.witness(&d_vars),
        tier: spec.tier,
        degraded: spec.degraded,
        tier_millis: TierMillis {
            analysis: analysis_millis,
            lp: spec.lp_millis,
            milp: spec.milp_millis,
        },
    })
}

#[allow(clippy::too_many_arguments)]
fn verify_uap_lp(
    problem: &UapProblem,
    delta_box: &[Interval],
    method: Method,
    config: &RavenConfig,
    margins: &[Vec<f64>],
    individually_verified: usize,
    start: Instant,
    l1_budget: Option<f64>,
    hooks: &RunHooks<'_>,
    mut cert: Option<&mut CertSink>,
) -> Option<UapResult> {
    let k = problem.k();
    let plan = &problem.plan;
    let out_dim = plan.output_dim();
    if !hooks.enter(Phase::Analysis) {
        return None;
    }
    // Per-execution DeepPoly analyses over the individual balls, fanned out
    // across the configured worker threads.
    let dps: Vec<DeepPolyAnalysis> = crate::par::map(config.threads, &problem.inputs, |z| {
        DeepPolyAnalysis::run(plan, &exec_box(z, delta_box))
    });
    if let Some(sink) = cert.as_deref_mut() {
        let refs: Vec<&DeepPolyAnalysis> = dps.iter().collect();
        sink.record_analyses(plan, &refs);
    }
    if !hooks.enter(Phase::DiffPoly) {
        return None;
    }
    // DiffPoly pairs per the configured strategy; each pair only reads the
    // already-computed per-execution analyses, so pairs are independent.
    let pair_indices = config.pairs.pairs(k);
    let diffs: Vec<(usize, usize, DiffPolyAnalysis)> =
        crate::par::map(config.threads, &pair_indices, |&(a, b)| {
            let delta: Vec<Interval> = problem.inputs[a]
                .iter()
                .zip(&problem.inputs[b])
                .map(|(&za, &zb)| Interval::point(za - zb))
                .collect();
            (a, b, DiffPolyAnalysis::run(plan, &dps[a], &dps[b], &delta))
        });
    if !hooks.enter(Phase::Encode) {
        return None;
    }
    // Build the LP.
    let mut lp = LpProblem::new();
    let d_vars: Vec<VarId> = delta_box
        .iter()
        .map(|d| lp.add_var(d.lo(), d.hi()))
        .collect();
    if let Some(budget) = l1_budget {
        add_l1_budget(&mut lp, &d_vars, budget);
    }
    let input_exprs: Vec<Vec<Expr>> = problem
        .inputs
        .iter()
        .map(|z| {
            z.iter()
                .zip(&d_vars)
                .map(|(&zj, &dj)| Expr::constant(zj).plus_var(1.0, dj))
                .collect()
        })
        .collect();
    let dp_refs: Vec<&DeepPolyAnalysis> = dps.iter().collect();
    let pair_refs: Vec<(usize, usize, &DiffPolyAnalysis)> =
        diffs.iter().map(|(a, b, d)| (*a, *b, d)).collect();
    let encoding = encode(&mut lp, plan, &input_exprs, &dp_refs, &pair_refs);
    // Spec: maximize the number of misclassified executions.
    let mut objective = LinExpr::new();
    let mut any_indicator = false;
    for (i, &y) in problem.labels.iter().enumerate() {
        // Candidate adversarial classes: those not individually dominated.
        let mut candidates = Vec::new();
        let mut mi = 0;
        for c in 0..out_dim {
            if c == y {
                continue;
            }
            if margins[i][mi] <= 0.0 {
                candidates.push(c);
            }
            mi += 1;
        }
        if candidates.is_empty() {
            // Provably robust individually: cannot be misclassified.
            continue;
        }
        let z_i = lp.add_binary_var();
        objective.push(1.0, z_i);
        any_indicator = true;
        // z_i ≤ Σ_c w_ic, with w_ic = 1 forcing o_c ≥ o_y.
        let mut z_row = LinExpr::new().term(1.0, z_i);
        let outs = &encoding.execs[i].outputs;
        for &c in &candidates {
            let w_ic = lp.add_binary_var();
            z_row.push(-1.0, w_ic);
            // o_y − o_c + M·w ≤ M where M upper-bounds o_y − o_c.
            let big_m = (dps[i].output()[y].hi() - dps[i].output()[c].lo()).max(0.0) + 1e-6;
            let row = LinExpr::new()
                .term(1.0, outs[y])
                .term(-1.0, outs[c])
                .term(big_m, w_ic);
            lp.add_constraint(row, Sense::Le, big_m);
        }
        lp.add_constraint(z_row, Sense::Le, 0.0);
    }
    let lp_rows = lp.num_constraints();
    let lp_vars = lp.num_vars();
    if !any_indicator {
        // Everything individually robust; no adversary possible.
        let millis = start.elapsed().as_secs_f64() * 1e3;
        return Some(UapResult {
            method,
            worst_case_accuracy: 1.0,
            worst_case_hamming: 0.0,
            individually_verified,
            solve_millis: millis,
            lp_rows,
            lp_vars,
            exact: true,
            counterexample_delta: None,
            tier: Tier::Analysis,
            degraded: false,
            tier_millis: TierMillis {
                analysis: millis,
                ..TierMillis::default()
            },
        });
    }
    if !hooks.enter(Phase::Solve) {
        return None;
    }
    let analysis_millis = start.elapsed().as_secs_f64() * 1e3;
    lp.set_objective(Direction::Maximize, objective);
    // Solve: MILP when configured, degrading down the ladder (anytime MILP
    // bound → LP relaxation → union bound) when the budget runs out; every
    // rung only over-counts misclassifications, so the result stays sound.
    let spec = solve_spec(&lp, config, &hooks.lp_budget(), &mut BasisCache::new());
    if hooks.cancelled() {
        return None;
    }
    if let (Some(sink), Some(sol)) = (cert, &spec.solution) {
        sink.record_lp(&lp, sol);
    }
    let max_misclassified = spec.bound.clamp(0.0, (k - individually_verified) as f64);
    Some(UapResult {
        method,
        worst_case_accuracy: (k as f64 - max_misclassified) / k as f64,
        worst_case_hamming: max_misclassified,
        individually_verified,
        solve_millis: start.elapsed().as_secs_f64() * 1e3,
        lp_rows,
        lp_vars,
        exact: spec.exact(),
        counterexample_delta: spec.witness(&d_vars),
        tier: spec.tier,
        degraded: spec.degraded,
        tier_millis: TierMillis {
            analysis: analysis_millis,
            lp: spec.lp_millis,
            milp: spec.milp_millis,
        },
    })
}

/// A targeted-UAP verification instance: the adversary tries to force as
/// many executions as possible into the designated `target` class with one
/// shared perturbation.
#[derive(Debug, Clone)]
pub struct TargetedUapProblem {
    /// The underlying untargeted instance (inputs, labels, eps, plan).
    pub base: UapProblem,
    /// The class the adversary wants everything classified as.
    pub target: usize,
}

/// Outcome of a targeted UAP verification run.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetedUapResult {
    /// The method that produced this result.
    pub method: Method,
    /// Certified upper bound on the number of executions the adversary can
    /// simultaneously force into the target class (fractional under LP
    /// relaxation).
    pub max_forced: f64,
    /// Wall-clock milliseconds spent.
    pub solve_millis: f64,
    /// Whether the bound is exact over the indicator variables.
    pub exact: bool,
}

/// Verifies a targeted UAP instance.
///
/// Inputs already labelled `target` are excluded from the count (forcing
/// them is vacuous). Only the relational methods are meaningful here;
/// non-relational baselines are mapped to per-execution margin checks
/// against the target class.
///
/// # Panics
///
/// Panics on inconsistent shapes or an out-of-range target class.
pub fn verify_targeted_uap(
    problem: &TargetedUapProblem,
    method: Method,
    config: &RavenConfig,
) -> TargetedUapResult {
    verify_targeted_uap_all(&problem.base, &[problem.target], method, config)
        .pop()
        .expect("one target in, one result out")
}

/// Verifies one targeted UAP instance per entry of `targets`, sharing all
/// target-independent work across them: the per-input margin analyses, the
/// DeepPoly/DiffPoly passes, and the relational network encoding are
/// computed once; each target then appends only its own indicator
/// variables and rows to a clone of the shared relaxation. The per-label
/// MILPs also share one basis cache, so each solve after the first
/// warm-starts from the previous root basis (the relaxation prefix is
/// identical across targets).
///
/// Results are returned in `targets` order and are identical to calling
/// [`verify_targeted_uap`] per target (basis reuse is a pure accelerator).
///
/// # Panics
///
/// Panics on inconsistent shapes or an out-of-range target class.
pub fn verify_targeted_uap_all(
    base: &UapProblem,
    targets: &[usize],
    method: Method,
    config: &RavenConfig,
) -> Vec<TargetedUapResult> {
    let out_dim = base.plan.output_dim();
    for &t in targets {
        assert!(t < out_dim, "target class out of range");
    }
    assert_eq!(base.inputs.len(), base.labels.len(), "length mismatch");
    let start = Instant::now();
    // Per-input margins against *all* other classes, computed once: the
    // analyses are target-independent, only the row lookup differs per
    // target. Independent per input, so they fan out across workers; the
    // vulnerable lists are assembled from the ordered results, so they are
    // identical for any thread count.
    let margins: Vec<Vec<f64>> = crate::par::map_range(config.threads, base.inputs.len(), |i| {
        let y = base.labels[i];
        let ball = linf_ball(&base.inputs[i], base.eps, f64::NEG_INFINITY, f64::INFINITY);
        match method {
            Method::Box => box_margins(&base.plan, &ball, y),
            Method::ZonotopeIndividual => zonotope_margins(&base.plan, &ball, y),
            _ => deeppoly_margins(&base.plan, &ball, y),
        }
    });
    // Executions that could possibly be forced into `target`: margin to the
    // target class not provably positive (inputs already labelled `target`
    // are excluded — forcing them is vacuous).
    let vulnerable_for = |target: usize| -> Vec<usize> {
        (0..base.inputs.len())
            .filter(|&i| {
                let y = base.labels[i];
                if y == target {
                    return false;
                }
                // Margin row index of the target class within the label-y
                // ordering.
                let row = if target < y { target } else { target - 1 };
                margins[i][row] <= 0.0
            })
            .collect()
    };
    let relational = matches!(method, Method::IoLp | Method::Raven);
    let needs_lp = relational && targets.iter().any(|&t| !vulnerable_for(t).is_empty());
    if !needs_lp {
        return targets
            .iter()
            .map(|&t| TargetedUapResult {
                method,
                max_forced: vulnerable_for(t).len() as f64,
                solve_millis: start.elapsed().as_secs_f64() * 1e3,
                exact: true,
            })
            .collect();
    }
    // Relational LP: shared perturbation + per-exec encodings, built once;
    // indicator variables are per target.
    let dps: Vec<DeepPolyAnalysis> = crate::par::map(config.threads, &base.inputs, |z| {
        let ball = linf_ball(z, base.eps, f64::NEG_INFINITY, f64::INFINITY);
        DeepPolyAnalysis::run(&base.plan, &ball)
    });
    let pair_indices = match method {
        Method::Raven => config.pairs.pairs(base.k()),
        _ => Vec::new(),
    };
    let diffs: Vec<(usize, usize, DiffPolyAnalysis)> =
        crate::par::map(config.threads, &pair_indices, |&(a, b)| {
            let delta: Vec<Interval> = base.inputs[a]
                .iter()
                .zip(&base.inputs[b])
                .map(|(&za, &zb)| Interval::point(za - zb))
                .collect();
            (
                a,
                b,
                DiffPolyAnalysis::run(&base.plan, &dps[a], &dps[b], &delta),
            )
        });
    let mut shared = LpProblem::new();
    let d_vars: Vec<VarId> = (0..base.plan.input_dim())
        .map(|_| shared.add_var(-base.eps, base.eps))
        .collect();
    let input_exprs: Vec<Vec<Expr>> = base
        .inputs
        .iter()
        .map(|z| {
            z.iter()
                .zip(&d_vars)
                .map(|(&zj, &dj)| Expr::constant(zj).plus_var(1.0, dj))
                .collect()
        })
        .collect();
    let dp_refs: Vec<&DeepPolyAnalysis> = dps.iter().collect();
    let pair_refs: Vec<(usize, usize, &DiffPolyAnalysis)> =
        diffs.iter().map(|(a, b, d)| (*a, *b, d)).collect();
    let encoding = encode(&mut shared, &base.plan, &input_exprs, &dp_refs, &pair_refs);
    // One basis cache across every per-label MILP: the shared relaxation is
    // a common prefix of each target's problem, so a root basis from one
    // target prefix-extends into the next (stale bases cold-start).
    let mut cache = BasisCache::new();
    targets
        .iter()
        .map(|&target| {
            let vulnerable = vulnerable_for(target);
            if vulnerable.is_empty() {
                return TargetedUapResult {
                    method,
                    max_forced: 0.0,
                    solve_millis: start.elapsed().as_secs_f64() * 1e3,
                    exact: true,
                };
            }
            let mut lp = shared.clone();
            let mut objective = LinExpr::new();
            for &i in &vulnerable {
                let y = base.labels[i];
                let outs = &encoding.execs[i].outputs;
                let z_i = lp.add_binary_var();
                objective.push(1.0, z_i);
                // z = 1 requires o_target ≥ o_y.
                let big_m =
                    (dps[i].output()[y].hi() - dps[i].output()[target].lo()).max(0.0) + 1e-6;
                let row = LinExpr::new()
                    .term(1.0, outs[y])
                    .term(-1.0, outs[target])
                    .term(big_m, z_i);
                lp.add_constraint(row, Sense::Le, big_m);
            }
            lp.set_objective(Direction::Maximize, objective);
            let spec = solve_spec(&lp, config, &Budget::unlimited(), &mut cache);
            TargetedUapResult {
                method,
                max_forced: spec.bound.clamp(0.0, vulnerable.len() as f64),
                solve_millis: start.elapsed().as_secs_f64() * 1e3,
                exact: spec.exact(),
            }
        })
        .collect()
}

/// Outcome of one walk down the spec-solve degradation ladder.
struct SpecSolve {
    /// Sound upper bound on the misclassification count (∞ when no solve
    /// finished — the caller clamps to the union bound).
    bound: f64,
    /// Deepest ladder tier that produced `bound`.
    tier: Tier,
    /// Whether a budget forced the result below the configured precision.
    degraded: bool,
    /// Wall-clock spent inside the LP relaxation solve.
    lp_millis: f64,
    /// Wall-clock spent inside the MILP solve.
    milp_millis: f64,
    /// The solve `bound` came from, carrying its point and its evidence
    /// (`None` at the analysis tier).
    solution: Option<raven_lp::Solution>,
}

impl SpecSolve {
    /// Whether the bound is exact over the indicators (a MILP optimum).
    fn exact(&self) -> bool {
        self.tier == Tier::Milp && !self.degraded
    }

    /// Optimal/incumbent values of `vars` (the shared perturbation), when
    /// the solve produced a point.
    fn witness(&self, vars: &[VarId]) -> Option<Vec<f64>> {
        let sol = self.solution.as_ref()?;
        (!sol.values.is_empty()).then(|| vars.iter().map(|&v| sol.value(v)).collect())
    }
}

/// Solves the counting spec down the degradation ladder.
///
/// Ladder: MILP optimum (exact) → MILP anytime dual bound (budget ran out
/// mid-search but the bound is sound) → LP relaxation → ∞ (caller clamps
/// to the union bound). Each rung is a sound over-approximation of the
/// adversary, so degradation never costs soundness, only tightness.
///
/// `cache` carries an optimal basis between related MILP solves (branch &
/// bound warm-starts its root from it and deposits its own root basis
/// back); pass a fresh [`BasisCache`] when there is no related prior
/// solve.
fn solve_spec(
    lp: &LpProblem,
    config: &RavenConfig,
    budget: &Budget<'_>,
    cache: &mut BasisCache,
) -> SpecSolve {
    let mut milp_millis = 0.0;
    let mut degraded = false;
    if config.spec_milp {
        let t0 = Instant::now();
        let res = lp.solve_milp_cached(&config.milp, budget, cache);
        milp_millis = t0.elapsed().as_secs_f64() * 1e3;
        match res {
            Ok(sol) if sol.status == SolveStatus::Optimal => {
                return SpecSolve {
                    bound: sol.objective,
                    tier: Tier::Milp,
                    degraded: false,
                    lp_millis: 0.0,
                    milp_millis,
                    solution: Some(sol),
                };
            }
            Ok(sol) => {
                if let SolveStatus::BudgetExceeded { best_bound } = sol.status {
                    degraded = true;
                    if best_bound.is_finite() {
                        // Anytime dual bound: every open node's parent
                        // relaxation and the incumbent are covered, so the
                        // true count is ≤ best_bound.
                        return SpecSolve {
                            bound: best_bound,
                            tier: Tier::Milp,
                            degraded: true,
                            lp_millis: 0.0,
                            milp_millis,
                            solution: Some(sol),
                        };
                    }
                }
                // Not even the root relaxation finished (or an unexpected
                // status): fall to the LP relaxation rung.
            }
            // Iteration limits / numerical breakdown fall through to the
            // LP relaxation, which is sound but may be fractional.
            Err(_) => {}
        }
    }
    let t0 = Instant::now();
    let res = lp.solve_with_budget(&config.simplex, budget);
    let lp_millis = t0.elapsed().as_secs_f64() * 1e3;
    let (bound, tier, solution) = match res {
        Ok(sol) if sol.status == SolveStatus::Optimal => (sol.objective, Tier::Lp, Some(sol)),
        // Budget died inside the relaxation too: the only rung left is the
        // analysis-phase union bound (the caller's clamp).
        Err(LpError::BudgetExceeded) => {
            degraded = true;
            (f64::INFINITY, Tier::Analysis, None)
        }
        // Numerical failure or unexpected status: fall back to the trivial
        // sound answer "everything not individually verified may flip".
        _ => (f64::INFINITY, Tier::Analysis, None),
    };
    SpecSolve {
        bound,
        tier,
        degraded,
        lp_millis,
        milp_millis,
        solution,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raven_nn::data::synth_digits;
    use raven_nn::train::{train_classifier, TrainConfig};
    use raven_nn::{ActKind, NetworkBuilder};

    fn trained_problem(eps: f64, k: usize) -> (UapProblem, raven_nn::Network) {
        let ds = synth_digits(4, 3, 90, 0.06, 13);
        let mut net = NetworkBuilder::new(16)
            .dense(12, 1)
            .activation(ActKind::Relu)
            .dense(8, 2)
            .activation(ActKind::Relu)
            .dense(3, 3)
            .build();
        train_classifier(
            &mut net,
            &ds,
            &TrainConfig {
                epochs: 40,
                lr: 0.4,
                momentum: 0.0,
                batch_size: 8,
                seed: 7,
                adversarial: None,
            },
        );
        // Pick k correctly-classified inputs.
        let mut inputs = Vec::new();
        let mut labels = Vec::new();
        for (x, &y) in ds.inputs.iter().zip(&ds.labels) {
            if net.classify(x) == y {
                inputs.push(x.clone());
                labels.push(y);
                if inputs.len() == k {
                    break;
                }
            }
        }
        assert_eq!(inputs.len(), k, "not enough correctly classified inputs");
        (
            UapProblem {
                plan: net.to_plan(),
                inputs,
                labels,
                eps,
            },
            net,
        )
    }

    #[test]
    fn methods_follow_the_provable_precision_chains() {
        let (problem, _) = trained_problem(0.08, 3);
        let config = RavenConfig::default();
        let acc = |m| verify_uap(&problem, m, &config).worst_case_accuracy;
        let bx = acc(Method::Box);
        let zn = acc(Method::ZonotopeIndividual);
        let dp = acc(Method::DeepPolyIndividual);
        let io = acc(Method::IoLp);
        let rv = acc(Method::Raven);
        // Box ≤ Zonotope and Box ≤ DeepPoly ≤ IoLp ≤ RaVeN (DeepZ and
        // DeepPoly are incomparable in theory, so no assertion between them).
        assert!(bx <= zn + 1e-9, "box {bx} > zonotope {zn}");
        assert!(bx <= dp + 1e-9, "box {bx} > deeppoly {dp}");
        assert!(dp <= io + 1e-9, "deeppoly {dp} > io-lp {io}");
        assert!(io <= rv + 1e-9, "io-lp {io} > raven {rv}");
    }

    #[test]
    fn certificate_is_below_attack_upper_bound() {
        let (problem, net) = trained_problem(0.1, 3);
        let res = verify_uap(&problem, Method::Raven, &RavenConfig::default());
        let attack = raven_nn::attack::uap(&net, &problem.inputs, &problem.labels, 0.1, 15, 0.02);
        assert!(
            res.worst_case_accuracy <= attack.accuracy + 1e-9,
            "certified {} must lower-bound empirical {}",
            res.worst_case_accuracy,
            attack.accuracy
        );
    }

    #[test]
    fn tiny_eps_certifies_everything() {
        let (problem, _) = trained_problem(1e-5, 3);
        for m in Method::all() {
            let res = verify_uap(&problem, m, &RavenConfig::default());
            assert!(
                (res.worst_case_accuracy - 1.0).abs() < 1e-9,
                "{m} failed at tiny eps: {}",
                res.worst_case_accuracy
            );
        }
    }

    #[test]
    fn hamming_is_complement_of_accuracy() {
        let (problem, _) = trained_problem(0.12, 3);
        let res = verify_uap(&problem, Method::Raven, &RavenConfig::default());
        let k = problem.k() as f64;
        assert!((res.worst_case_hamming - k * (1.0 - res.worst_case_accuracy)).abs() < 1e-9);
    }

    #[test]
    fn targeted_uap_is_bounded_by_vulnerable_count() {
        let (problem, _) = trained_problem(0.1, 3);
        for target in 0..3 {
            let tp = TargetedUapProblem {
                base: problem.clone(),
                target,
            };
            let dp = verify_targeted_uap(&tp, Method::DeepPolyIndividual, &RavenConfig::default());
            let rv = verify_targeted_uap(&tp, Method::Raven, &RavenConfig::default());
            // The relational bound can only be tighter (smaller).
            assert!(
                rv.max_forced <= dp.max_forced + 1e-9,
                "target {target}: raven {} > deeppoly {}",
                rv.max_forced,
                dp.max_forced
            );
            assert!(rv.max_forced >= -1e-9);
        }
    }

    #[test]
    fn targeted_uap_tiny_eps_forces_nothing() {
        let (problem, _) = trained_problem(1e-6, 3);
        let tp = TargetedUapProblem {
            base: problem,
            target: 0,
        };
        let rv = verify_targeted_uap(&tp, Method::Raven, &RavenConfig::default());
        assert_eq!(rv.max_forced, 0.0);
        assert!(rv.exact);
    }

    #[test]
    fn l1_budget_only_tightens_and_is_sound() {
        let (problem, net) = trained_problem(0.12, 3);
        let linf = verify_uap(&problem, Method::Raven, &RavenConfig::default());
        // A huge ℓ1 budget changes nothing; a small one can only certify
        // more.
        let loose = verify_uap_l1(&problem, 1e6, Method::Raven, &RavenConfig::default());
        assert!((loose.worst_case_accuracy - linf.worst_case_accuracy).abs() < 1e-6);
        let tight = verify_uap_l1(&problem, 0.2, Method::Raven, &RavenConfig::default());
        assert!(tight.worst_case_accuracy >= linf.worst_case_accuracy - 1e-9);
        // Soundness vs sampled ℓ1-bounded shared perturbations: put the
        // whole budget on one coordinate at a time.
        let budget = 0.2f64;
        for j in 0..problem.plan.input_dim() {
            for sign in [-1.0, 1.0] {
                let mut d = vec![0.0; problem.plan.input_dim()];
                d[j] = sign * budget.min(problem.eps);
                let acc = replay_uap_delta(&net, &problem.inputs, &problem.labels, &d);
                assert!(
                    tight.worst_case_accuracy <= acc + 1e-9,
                    "l1 certificate {} exceeds concrete {acc}",
                    tight.worst_case_accuracy
                );
            }
        }
    }

    #[test]
    fn zero_l1_budget_certifies_clean_batch() {
        let (problem, _) = trained_problem(0.3, 3);
        let res = verify_uap_l1(&problem, 0.0, Method::Raven, &RavenConfig::default());
        assert!(
            (res.worst_case_accuracy - 1.0).abs() < 1e-9,
            "zero budget must certify a correctly classified batch: {}",
            res.worst_case_accuracy
        );
    }

    #[test]
    fn counterexample_delta_sandwiches_the_certificate() {
        let (problem, net) = trained_problem(0.12, 3);
        let res = verify_uap(&problem, Method::Raven, &RavenConfig::default());
        if let Some(delta) = &res.counterexample_delta {
            assert!(delta.iter().all(|d| d.abs() <= problem.eps + 1e-9));
            let replay = replay_uap_delta(&net, &problem.inputs, &problem.labels, delta);
            assert!(
                res.worst_case_accuracy <= replay + 1e-9,
                "certified {} exceeds replayed {replay}",
                res.worst_case_accuracy
            );
        } else {
            // No LP was needed: everything was individually robust.
            assert_eq!(res.worst_case_accuracy, 1.0);
        }
    }

    #[test]
    fn hooks_cancel_and_report_phases() {
        use crate::hooks::RunHooks;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Mutex;
        let (problem, _) = trained_problem(0.1, 3);
        let config = RavenConfig::default();
        // A pre-set cancel flag stops the run before any work.
        let cancel = AtomicBool::new(true);
        let hooks = RunHooks::default().with_cancel(&cancel);
        assert!(verify_uap_with_hooks(&problem, Method::Raven, &config, &hooks).is_none());
        // Cancelling after the margins phase stops before the solve.
        let cancel = AtomicBool::new(false);
        let seen: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
        let observer = |p: Phase| {
            seen.lock().unwrap().push(p.name());
            if p == Phase::Analysis {
                cancel.store(true, Ordering::SeqCst);
            }
        };
        let hooks = RunHooks::default()
            .with_cancel(&cancel)
            .with_progress(&observer);
        assert!(verify_uap_with_hooks(&problem, Method::Raven, &config, &hooks).is_none());
        assert_eq!(*seen.lock().unwrap(), vec!["margins", "analysis"]);
        // Unset hooks reproduce the plain result exactly.
        let plain = verify_uap(&problem, Method::Raven, &config);
        let hooked =
            verify_uap_with_hooks(&problem, Method::Raven, &config, &RunHooks::default()).unwrap();
        assert_eq!(plain.worst_case_accuracy, hooked.worst_case_accuracy);
        assert_eq!(plain.counterexample_delta, hooked.counterexample_delta);
    }

    #[test]
    fn lp_relaxation_is_no_tighter_than_milp() {
        let (problem, _) = trained_problem(0.1, 3);
        let milp = verify_uap(&problem, Method::Raven, &RavenConfig::default());
        let lp = verify_uap(
            &problem,
            Method::Raven,
            &RavenConfig {
                spec_milp: false,
                ..RavenConfig::default()
            },
        );
        assert!(lp.worst_case_accuracy <= milp.worst_case_accuracy + 1e-7);
        assert!(!lp.exact || lp.worst_case_accuracy == 1.0);
    }

    #[test]
    fn warm_starts_never_change_the_verdict_bytes() {
        // Warm-started node relaxations are a pure accelerator. Two
        // guarantees, tested at an eps where the MILP actually branches:
        //
        // * for a fixed config the rendered verdict JSON is byte-identical
        //   at any thread count (the solve is sequential; threads only fan
        //   out the analyses);
        // * toggling warm starts changes no verdict field except possibly
        //   `counterexample_delta` — alternate optimal vertices are equally
        //   valid attack candidates, but the certified bound, tier, and
        //   exactness must agree to the last bit.
        let (problem, _) = trained_problem(0.12, 4);
        let verdict = |warm_start: bool, threads: usize| {
            let config = RavenConfig {
                threads,
                milp: raven_lp::MilpOptions {
                    warm_start,
                    ..raven_lp::MilpOptions::default()
                },
                ..RavenConfig::default()
            };
            let res = verify_uap(&problem, Method::Raven, &config);
            crate::report::uap_verdict_json(problem.k(), problem.eps, &res).to_string()
        };
        let warm = verdict(true, 1);
        let cold = verdict(false, 1);
        for threads in [2, 4] {
            assert_eq!(warm, verdict(true, threads), "warm diverged at {threads}");
            assert_eq!(cold, verdict(false, threads), "cold diverged at {threads}");
        }
        let strip_witness = |v: &str| {
            let json = raven_json::Json::parse(v).expect("verdict parses");
            [
                "verified",
                "worst_case_accuracy",
                "worst_case_hamming",
                "individually_verified",
                "exact",
                "tier",
                "degraded",
                "lp_rows",
                "lp_vars",
            ]
            .iter()
            .map(|k| json.get(k).expect("field present").to_string())
            .collect::<Vec<_>>()
        };
        assert_eq!(strip_witness(&warm), strip_witness(&cold));
    }

    #[test]
    fn targeted_all_matches_independent_per_target_runs() {
        // The batched per-label entry point shares analyses, encoding, and
        // a basis cache across targets; its bounds must match the
        // independent single-target calls exactly.
        let (problem, _) = trained_problem(0.1, 3);
        let config = RavenConfig::default();
        let all = verify_targeted_uap_all(&problem, &[0, 1, 2], Method::Raven, &config);
        assert_eq!(all.len(), 3);
        for (target, batched) in all.iter().enumerate() {
            let single = verify_targeted_uap(
                &TargetedUapProblem {
                    base: problem.clone(),
                    target,
                },
                Method::Raven,
                &config,
            );
            assert_eq!(batched.method, single.method);
            assert_eq!(batched.exact, single.exact, "target {target}");
            assert!(
                (batched.max_forced - single.max_forced).abs() < 1e-9,
                "target {target}: batched {} vs single {}",
                batched.max_forced,
                single.max_forced
            );
        }
    }
}
