//! The general input-relational property framework.
//!
//! The paper's verifier handles "a wide range of input-relational
//! properties"; UAP robustness and monotonicity are instances of a common
//! shape, which this module exposes directly:
//!
//! * `k` executions of the same network whose inputs are affine functions
//!   of a set of shared *scenario variables* (the perturbation `d`, the
//!   base point `x`, the shift `t`, …), each scenario variable ranging over
//!   a box;
//! * per-execution input boxes (used by the per-execution analyses);
//! * an output query: minimize or maximize a linear functional over the
//!   executions' outputs.
//!
//! [`RelationalProblem`] is the builder; [`solve`] runs the analyses,
//! assembles the relational LP (with DiffPoly difference tracking between
//! the configured execution pairs) and optimizes the query. The UAP and
//! monotonicity verifiers in this crate build their LPs with the same
//! encoder (`encode::encode`) directly, adding their own specification rows;
//! this module makes that machinery available for new properties without
//! touching the encoder.

use crate::config::{PairStrategy, RavenConfig};
use crate::encode::{encode, Expr};
use raven_deeppoly::DeepPolyAnalysis;
use raven_diffpoly::DiffPolyAnalysis;
use raven_interval::Interval;
use raven_lp::{Direction, LinExpr, LpProblem, SolveStatus, VarId};
use raven_nn::AnalysisPlan;

/// An affine description of one execution's input coordinate in terms of
/// the scenario variables: `constant + Σ coeff_j · scenario_j`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct InputCoord {
    /// Constant offset.
    pub constant: f64,
    /// `(scenario variable index, coefficient)` terms.
    pub terms: Vec<(usize, f64)>,
}

impl InputCoord {
    /// A constant coordinate.
    pub fn constant(c: f64) -> Self {
        Self {
            constant: c,
            terms: Vec::new(),
        }
    }

    /// `constant + 1·scenario_j`.
    pub fn shifted(constant: f64, scenario: usize) -> Self {
        Self {
            constant,
            terms: vec![(scenario, 1.0)],
        }
    }

    /// Adds a term (builder style).
    pub fn plus(mut self, coeff: f64, scenario: usize) -> Self {
        self.terms.push((scenario, coeff));
        self
    }

    /// Interval image over the scenario boxes.
    fn image(&self, scenarios: &[Interval]) -> Interval {
        let mut iv = Interval::point(self.constant);
        for &(j, c) in &self.terms {
            iv = iv + scenarios[j] * c;
        }
        iv
    }
}

/// A linear functional over the outputs of the executions:
/// `Σ weight · out[exec][class]`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OutputQuery {
    /// `(execution index, output index, weight)` terms.
    pub terms: Vec<(usize, usize, f64)>,
}

impl OutputQuery {
    /// An empty query.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `weight · out[exec][class]` (builder style).
    pub fn term(mut self, weight: f64, exec: usize, class: usize) -> Self {
        self.terms.push((exec, class, weight));
        self
    }

    /// The margin `out[exec][target] − out[exec][other]`.
    pub fn margin(exec: usize, target: usize, other: usize) -> Self {
        Self::new().term(1.0, exec, target).term(-1.0, exec, other)
    }

    /// The cross-execution difference `out[a][class] − out[b][class]`.
    pub fn output_difference(a: usize, b: usize, class: usize) -> Self {
        Self::new().term(1.0, a, class).term(-1.0, b, class)
    }
}

/// A general k-execution relational verification problem.
#[derive(Debug, Clone)]
pub struct RelationalProblem {
    /// The analyzed network.
    pub plan: AnalysisPlan,
    /// Boxes for the shared scenario variables.
    pub scenarios: Vec<Interval>,
    /// Per-execution input descriptions (each of length `plan.input_dim()`).
    pub inputs: Vec<Vec<InputCoord>>,
}

impl RelationalProblem {
    /// Starts a problem over `plan` with the given scenario boxes.
    pub fn new(plan: AnalysisPlan, scenarios: Vec<Interval>) -> Self {
        Self {
            plan,
            scenarios,
            inputs: Vec::new(),
        }
    }

    /// Adds an execution whose input coordinates are the given affine
    /// functions of the scenario variables; returns its index.
    ///
    /// # Panics
    ///
    /// Panics when the coordinate count does not match the plan input
    /// width or a scenario index is out of range.
    pub fn add_execution(&mut self, coords: Vec<InputCoord>) -> usize {
        assert_eq!(
            coords.len(),
            self.plan.input_dim(),
            "execution input width mismatch"
        );
        for c in &coords {
            for &(j, _) in &c.terms {
                assert!(j < self.scenarios.len(), "scenario index out of range");
            }
        }
        self.inputs.push(coords);
        self.inputs.len() - 1
    }

    /// Convenience: adds the execution `z + d` where `d` is the full
    /// scenario vector (requires `scenarios.len() == plan.input_dim()`).
    ///
    /// # Panics
    ///
    /// Panics on width mismatches.
    pub fn add_perturbed_execution(&mut self, z: &[f64]) -> usize {
        assert_eq!(
            self.scenarios.len(),
            self.plan.input_dim(),
            "shared-perturbation executions need one scenario per input"
        );
        let coords = z
            .iter()
            .enumerate()
            .map(|(j, &zj)| InputCoord::shifted(zj, j))
            .collect();
        self.add_execution(coords)
    }

    /// Number of executions added so far.
    pub fn k(&self) -> usize {
        self.inputs.len()
    }
}

/// Result of a relational query.
#[derive(Debug, Clone, PartialEq)]
pub struct RelationalBound {
    /// The certified optimal value of the query over all scenarios
    /// (a lower bound when minimizing, an upper bound when maximizing).
    pub value: f64,
    /// LP rows in the encoding.
    pub lp_rows: usize,
    /// LP variables in the encoding.
    pub lp_vars: usize,
}

/// Optimizes `query` over all joint behaviours admitted by the relational
/// abstraction (per-execution DeepPoly + DiffPoly pairs per
/// `config.pairs`).
///
/// Returns `None` when the LP solver fails (callers should fall back to a
/// trivially sound answer).
///
/// # Panics
///
/// Panics when the problem has no executions or a query index is out of
/// range.
pub fn solve(
    problem: &RelationalProblem,
    query: &OutputQuery,
    direction: Direction,
    config: &RavenConfig,
) -> Option<RelationalBound> {
    assert!(problem.k() > 0, "relational problem has no executions");
    let out_dim = problem.plan.output_dim();
    for &(e, c, _) in &query.terms {
        assert!(e < problem.k(), "query execution index out of range");
        assert!(c < out_dim, "query output index out of range");
    }
    // Per-execution input boxes and DeepPoly analyses.
    let boxes: Vec<Vec<Interval>> = problem
        .inputs
        .iter()
        .map(|coords| coords.iter().map(|c| c.image(&problem.scenarios)).collect())
        .collect();
    let dps: Vec<DeepPolyAnalysis> = crate::par::map(config.threads, &boxes, |b| {
        DeepPolyAnalysis::run(&problem.plan, b)
    });
    // Pairwise difference analyses, fanned out across workers (each pair
    // only reads the already-computed per-execution analyses).
    let pair_indices = match config.pairs {
        PairStrategy::None => Vec::new(),
        strategy => strategy.pairs(problem.k()),
    };
    let diffs: Vec<(usize, usize, DiffPolyAnalysis)> =
        crate::par::map(config.threads, &pair_indices, |&(a, b)| {
            let delta: Vec<Interval> = problem.inputs[a]
                .iter()
                .zip(&problem.inputs[b])
                .map(|(ca, cb)| {
                    // Image of the affine difference over the scenarios:
                    // shared scenario terms cancel exactly.
                    let mut diff = InputCoord::constant(ca.constant - cb.constant);
                    for &(j, c) in &ca.terms {
                        diff.terms.push((j, c));
                    }
                    for &(j, c) in &cb.terms {
                        diff.terms.push((j, -c));
                    }
                    // Merge duplicate scenario indices.
                    diff.terms.sort_by_key(|&(j, _)| j);
                    let mut merged: Vec<(usize, f64)> = Vec::new();
                    for (j, c) in diff.terms {
                        match merged.last_mut() {
                            Some((pj, pc)) if *pj == j => *pc += c,
                            _ => merged.push((j, c)),
                        }
                    }
                    diff.terms = merged;
                    diff.image(&problem.scenarios)
                })
                .collect();
            (
                a,
                b,
                DiffPolyAnalysis::run(&problem.plan, &dps[a], &dps[b], &delta),
            )
        });
    // LP assembly.
    let mut lp = LpProblem::new();
    let scenario_vars: Vec<VarId> = problem
        .scenarios
        .iter()
        .map(|iv| lp.add_var(iv.lo(), iv.hi()))
        .collect();
    let input_exprs: Vec<Vec<Expr>> = problem
        .inputs
        .iter()
        .map(|coords| {
            coords
                .iter()
                .map(|c| {
                    let mut e = Expr::constant(c.constant);
                    for &(j, coef) in &c.terms {
                        e = e.plus_var(coef, scenario_vars[j]);
                    }
                    e
                })
                .collect()
        })
        .collect();
    let dp_refs: Vec<&DeepPolyAnalysis> = dps.iter().collect();
    let pair_refs: Vec<(usize, usize, &DiffPolyAnalysis)> =
        diffs.iter().map(|(a, b, d)| (*a, *b, d)).collect();
    let encoding = encode(&mut lp, &problem.plan, &input_exprs, &dp_refs, &pair_refs);
    let mut objective = LinExpr::new();
    for &(e, c, w) in &query.terms {
        objective.push(w, encoding.execs[e].outputs[c]);
    }
    lp.set_objective(direction, objective);
    let lp_rows = lp.num_constraints();
    let lp_vars = lp.num_vars();
    match lp.solve_with(&config.simplex) {
        Ok(sol) if sol.status == SolveStatus::Optimal => Some(RelationalBound {
            value: sol.objective,
            lp_rows,
            lp_vars,
        }),
        _ => None,
    }
}

/// Builds the relational encoding for `problem` (without an objective) and
/// serializes it in CPLEX LP format — the debugging/interop path for
/// cross-checking the in-repo simplex against an external solver.
///
/// # Panics
///
/// Panics when the problem has no executions.
pub fn export_lp(problem: &RelationalProblem, config: &RavenConfig) -> String {
    assert!(problem.k() > 0, "relational problem has no executions");
    let boxes: Vec<Vec<Interval>> = problem
        .inputs
        .iter()
        .map(|coords| coords.iter().map(|c| c.image(&problem.scenarios)).collect())
        .collect();
    let dps: Vec<DeepPolyAnalysis> = crate::par::map(config.threads, &boxes, |b| {
        DeepPolyAnalysis::run(&problem.plan, b)
    });
    let pair_indices = config.pairs.pairs(problem.k());
    let diffs: Vec<(usize, usize, DiffPolyAnalysis)> =
        crate::par::map(config.threads, &pair_indices, |&(a, b)| {
            let delta: Vec<Interval> = problem.inputs[a]
                .iter()
                .zip(&problem.inputs[b])
                .map(|(ca, cb)| {
                    let mut iv = Interval::point(ca.constant - cb.constant);
                    for &(j, c) in &ca.terms {
                        iv = iv + problem.scenarios[j] * c;
                    }
                    for &(j, c) in &cb.terms {
                        iv = iv + problem.scenarios[j] * (-c);
                    }
                    iv
                })
                .collect();
            (
                a,
                b,
                DiffPolyAnalysis::run(&problem.plan, &dps[a], &dps[b], &delta),
            )
        });
    let mut lp = LpProblem::new();
    let scenario_vars: Vec<VarId> = problem
        .scenarios
        .iter()
        .map(|iv| lp.add_var(iv.lo(), iv.hi()))
        .collect();
    let input_exprs: Vec<Vec<Expr>> = problem
        .inputs
        .iter()
        .map(|coords| {
            coords
                .iter()
                .map(|c| {
                    let mut e = Expr::constant(c.constant);
                    for &(j, coef) in &c.terms {
                        e = e.plus_var(coef, scenario_vars[j]);
                    }
                    e
                })
                .collect()
        })
        .collect();
    let dp_refs: Vec<&DeepPolyAnalysis> = dps.iter().collect();
    let pair_refs: Vec<(usize, usize, &DiffPolyAnalysis)> =
        diffs.iter().map(|(a, b, d)| (*a, *b, d)).collect();
    let _ = encode(&mut lp, &problem.plan, &input_exprs, &dp_refs, &pair_refs);
    raven_lp::to_lp_format(&lp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Method;
    use raven_nn::{ActKind, NetworkBuilder};

    fn net() -> raven_nn::Network {
        NetworkBuilder::new(3)
            .dense(6, 71)
            .activation(ActKind::Relu)
            .dense(4, 72)
            .activation(ActKind::Relu)
            .dense(2, 73)
            .build()
    }

    #[test]
    fn shared_perturbation_difference_is_tightly_bounded() {
        let network = net();
        let plan = network.to_plan();
        let eps = 0.05;
        let scenarios = vec![Interval::symmetric(eps); 3];
        let mut problem = RelationalProblem::new(plan, scenarios);
        let za = vec![0.4, 0.5, 0.6];
        let zb = vec![0.5, 0.4, 0.55];
        let a = problem.add_perturbed_execution(&za);
        let b = problem.add_perturbed_execution(&zb);
        let query = OutputQuery::output_difference(a, b, 0);
        let config = RavenConfig::default();
        let hi = solve(&problem, &query, Direction::Maximize, &config)
            .expect("solves")
            .value;
        let lo = solve(&problem, &query, Direction::Minimize, &config)
            .expect("solves")
            .value;
        assert!(lo <= hi);
        // Sampled shared perturbations must respect the certified bounds.
        for s in 0..20 {
            let d: Vec<f64> = (0..3)
                .map(|i| eps * ((((s * 7 + i * 5) % 11) as f64 / 5.0) - 1.0))
                .collect();
            let xa: Vec<f64> = za.iter().zip(&d).map(|(z, dd)| z + dd).collect();
            let xb: Vec<f64> = zb.iter().zip(&d).map(|(z, dd)| z + dd).collect();
            let diff = network.forward(&xa)[0] - network.forward(&xb)[0];
            assert!(
                lo - 1e-6 <= diff && diff <= hi + 1e-6,
                "{diff} not in [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn pairs_tighten_the_relational_bound() {
        let network = net();
        let plan = network.to_plan();
        let scenarios = vec![Interval::symmetric(0.08); 3];
        let mut problem = RelationalProblem::new(plan, scenarios);
        let a = problem.add_perturbed_execution(&[0.4, 0.5, 0.6]);
        let b = problem.add_perturbed_execution(&[0.45, 0.55, 0.5]);
        let query = OutputQuery::output_difference(a, b, 1);
        let with_pairs = solve(
            &problem,
            &query,
            Direction::Maximize,
            &RavenConfig::default(),
        )
        .expect("solves")
        .value;
        let without_pairs = solve(
            &problem,
            &query,
            Direction::Maximize,
            &RavenConfig {
                pairs: PairStrategy::None,
                ..RavenConfig::default()
            },
        )
        .expect("solves")
        .value;
        assert!(with_pairs <= without_pairs + 1e-7);
    }

    #[test]
    fn margin_query_matches_uap_margins_directionally() {
        // A margin query on a single execution is the local-robustness
        // margin; it must be at least as tight as the DeepPoly margin.
        let network = net();
        let plan = network.to_plan();
        let z = vec![0.4, 0.5, 0.6];
        let label = network.classify(&z);
        let other = 1 - label;
        let eps = 0.03;
        let mut problem = RelationalProblem::new(plan.clone(), vec![Interval::symmetric(eps); 3]);
        let e = problem.add_perturbed_execution(&z);
        let query = OutputQuery::margin(e, label, other);
        let lp_margin = solve(
            &problem,
            &query,
            Direction::Minimize,
            &RavenConfig::default(),
        )
        .expect("solves")
        .value;
        let ball = raven_interval::linf_ball(&z, eps, f64::NEG_INFINITY, f64::INFINITY);
        let dp_margin = crate::margin::deeppoly_margins(&plan, &ball, label)
            [if other < label { other } else { other - 1 }];
        assert!(
            lp_margin >= dp_margin - 1e-7,
            "lp margin {lp_margin} looser than deeppoly {dp_margin}"
        );
        let _ = Method::Raven; // silence unused-import lint paths in some cfgs
    }

    #[test]
    fn export_lp_produces_parsable_sections() {
        let network = net();
        let plan = network.to_plan();
        let mut problem = RelationalProblem::new(plan, vec![Interval::symmetric(0.05); 3]);
        problem.add_perturbed_execution(&[0.4, 0.5, 0.6]);
        problem.add_perturbed_execution(&[0.5, 0.4, 0.55]);
        let text = export_lp(&problem, &RavenConfig::default());
        assert!(text.starts_with("Minimize") || text.starts_with("Maximize"));
        assert!(text.contains("Subject To"));
        assert!(text.contains("Bounds"));
        assert!(text.ends_with("End\n"));
        // The encoding is non-trivial.
        assert!(text.lines().count() > 50, "suspiciously small LP export");
    }

    #[test]
    fn monotone_shift_scenario_reproduces_monotonicity_shape() {
        // Express the monotonicity property through the generic API:
        // scenario = (x0, x1, x2, t); exec A = x, exec B = x + t·e0.
        let network = net();
        let plan = network.to_plan();
        let mut scenarios = vec![Interval::new(0.3, 0.7); 3];
        scenarios.push(Interval::new(0.0, 0.2)); // t
        let mut problem = RelationalProblem::new(plan, scenarios);
        let coords_a: Vec<InputCoord> = (0..3).map(|j| InputCoord::shifted(0.0, j)).collect();
        let mut coords_b = coords_a.clone();
        coords_b[0] = coords_b[0].clone().plus(1.0, 3);
        let a = problem.add_execution(coords_a);
        let b = problem.add_execution(coords_b);
        let query = OutputQuery::output_difference(b, a, 0);
        let bound = solve(
            &problem,
            &query,
            Direction::Minimize,
            &RavenConfig::default(),
        )
        .expect("solves");
        // Sampled monotone shifts must respect the certified lower bound.
        for s in 0..15 {
            let x: Vec<f64> = (0..3)
                .map(|i| 0.3 + 0.4 * (((s * 3 + i * 7) % 13) as f64 / 12.0))
                .collect();
            let t = 0.2 * ((s % 5) as f64 / 4.0);
            let mut x2 = x.clone();
            x2[0] += t;
            let diff = network.forward(&x2)[0] - network.forward(&x)[0];
            assert!(diff >= bound.value - 1e-6);
        }
    }
}
