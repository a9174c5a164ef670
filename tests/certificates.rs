//! End-to-end certificate tests: verdicts from the verifier replay in the
//! exact checker, tampered certificates are rejected, and random LPs
//! round-trip through emission and replay.

use raven::{
    verify_monotonicity_certified, verify_uap, verify_uap_certified, Method, MonotonicityProblem,
    RavenConfig, RunHooks, UapProblem,
};
use raven_check::{check_certificate, CheckError};
use raven_json::Json;
use raven_lp::{Direction, LinExpr, LpProblem, Sense, Solution, SolveStatus};
use raven_nn::{ActKind, NetworkBuilder};
use raven_tensor::Rng;

mod support;

fn uap_problem(eps: f64) -> UapProblem {
    let net = NetworkBuilder::new(4)
        .dense(6, 7)
        .activation(ActKind::Relu)
        .dense(3, 11)
        .build();
    let inputs = vec![
        vec![0.4, 0.5, 0.6, 0.5],
        vec![0.6, 0.4, 0.5, 0.5],
        vec![0.5, 0.6, 0.4, 0.6],
    ];
    let labels = inputs.iter().map(|z| net.classify(z)).collect();
    UapProblem {
        plan: net.to_plan(),
        inputs,
        labels,
        eps,
    }
}

#[test]
fn uap_milp_certificate_replays_and_verdict_is_unchanged() {
    let problem = uap_problem(0.08);
    let config = RavenConfig::default();
    let plain = verify_uap(&problem, Method::Raven, &config);
    let (certified, cert) = verify_uap_certified(&problem, Method::Raven, &config);
    // The certified path must not perturb the verdict.
    assert_eq!(plain.worst_case_accuracy, certified.worst_case_accuracy);
    assert_eq!(plain.tier, certified.tier);
    assert_eq!(plain.exact, certified.exact);
    let cert = cert.expect("raven run must emit a certificate");
    assert_eq!(cert.kind, "uap");
    assert!(cert.analysis.is_some(), "raven retains its relaxations");
    let report = check_certificate(&cert).expect("replay must accept");
    assert!(report.neurons_checked > 0);
    if certified.tier != raven::Tier::Analysis {
        assert!(report.lp_checked, "lp/milp tier must carry lp evidence");
    }
}

#[test]
fn uap_io_lp_certificate_replays() {
    let problem = uap_problem(0.08);
    let config = RavenConfig {
        spec_milp: false,
        ..RavenConfig::default()
    };
    let (res, cert) = verify_uap_certified(&problem, Method::IoLp, &config);
    // The I/O formulation discards its margin-plan analyses, so the
    // certificate is LP-only — present whenever an LP actually solved.
    if res.tier == raven::Tier::Analysis {
        return; // everything individually robust: nothing to certify
    }
    let cert = cert.expect("io-lp run with an LP solve must emit a certificate");
    assert!(cert.analysis.is_none());
    let report = check_certificate(&cert).expect("replay must accept");
    assert!(report.lp_checked);
}

#[test]
fn degraded_analysis_tier_certificate_round_trips() {
    // A deadline that expires immediately forces the solve ladder all the
    // way down to the analysis tier; the certificate then carries only the
    // relaxation records, which still replay.
    let problem = uap_problem(0.3);
    let config = RavenConfig::default();
    let hooks = RunHooks::default().with_deadline_in(std::time::Duration::ZERO);
    let (res, cert) =
        raven::verify_uap_certified_with_hooks(&problem, Method::Raven, &config, &hooks)
            .expect("deadline expiry degrades, it does not cancel");
    assert_eq!(res.tier, raven::Tier::Analysis);
    assert!(res.degraded);
    let cert = cert.expect("analysis-tier raven verdict still certifies its relaxations");
    assert_eq!(cert.tier, "analysis");
    assert!(cert.degraded);
    assert!(cert.lp.is_none());
    let report = check_certificate(&cert).expect("analysis replay must accept");
    assert_eq!(report.tier, "analysis");
    assert!(report.neurons_checked > 0);
    assert!(!report.lp_checked);
}

#[test]
fn monotonicity_certificate_replays() {
    let net = NetworkBuilder::new(3)
        .dense_from(
            &[&[0.8, -0.4, 0.2], &[0.5, 0.3, -0.6], &[0.9, 0.1, 0.4]],
            &[0.1, -0.2, 0.0],
        )
        .activation(ActKind::Sigmoid)
        .dense_from(&[&[0.7, 0.5, 0.6], &[0.0, -0.2, 0.1]], &[0.0, 0.3])
        .build();
    let problem = MonotonicityProblem {
        plan: net.to_plan(),
        center: vec![0.5, 0.5, 0.5],
        eps: 0.1,
        feature: 0,
        tau: 0.2,
        output_weights: vec![1.0, -1.0],
        increasing: true,
    };
    let (res, cert) =
        verify_monotonicity_certified(&problem, Method::Raven, &RavenConfig::default());
    assert!(res.verified);
    let cert = cert.expect("monotonicity raven run must emit a certificate");
    assert_eq!(cert.kind, "monotonicity");
    let report = check_certificate(&cert).expect("replay must accept");
    // Sigmoid relaxations are not replayable in exact arithmetic; the
    // checker must count them as trusted rather than rejecting.
    assert!(report.neurons_trusted > 0);
    assert!(report.lp_checked);
}

#[test]
fn tampered_certificate_json_is_rejected() {
    let problem = uap_problem(0.08);
    let (_, cert) = verify_uap_certified(&problem, Method::Raven, &RavenConfig::default());
    let cert = cert.unwrap();
    // Tamper at the JSON level, the way an untrusted server would.
    let json = cert.to_json().to_string();
    let mut parsed = Json::parse(&json).unwrap();
    tamper_first_slope(&mut parsed);
    let tampered = raven_check::Certificate::from_json(&parsed).expect("still well-formed");
    match check_certificate(&tampered) {
        Err(CheckError::Reject(_)) => {}
        other => panic!("tampered certificate must be rejected, got {other:?}"),
    }
}

/// Pokes the first replayable neuron's upper intercept down, making the
/// upper line dip below the true function.
fn tamper_first_slope(json: &mut Json) {
    let Json::Obj(pairs) = json else {
        panic!("certificate must be an object")
    };
    for (key, value) in pairs.iter_mut() {
        if key == "analysis" {
            let Json::Obj(apairs) = value else { continue };
            for (akey, avalue) in apairs.iter_mut() {
                if akey == "neurons" {
                    let Json::Arr(neurons) = avalue else { continue };
                    let Json::Obj(npairs) = &mut neurons[0] else {
                        continue;
                    };
                    for (nkey, nvalue) in npairs.iter_mut() {
                        if nkey == "ui" {
                            if let Json::Num(v) = nvalue {
                                *v -= 1e-3;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The fc-small network of the benchmark zoo trained without PGD, and
/// the digits test split it was trained on.
fn fc_small_std() -> (raven_nn::Network, raven_nn::data::Dataset) {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fc_small_std.net");
    let net = raven_nn::load_network(&path).expect("golden network loads");
    let (_, test) = raven_nn::data::synth_digits(6, 4, 280, 0.15, 42).split(0.2);
    (net, test)
}

/// A monotonicity query with the server's default score (last logit
/// minus first) and τ = ε.
fn mono_query(
    net: &raven_nn::Network,
    center: &[f64],
    feature: usize,
    eps: f64,
) -> MonotonicityProblem {
    let plan = net.to_plan();
    let odim = plan.output_dim();
    let mut output_weights = vec![0.0; odim];
    output_weights[0] = -1.0;
    output_weights[odim - 1] = 1.0;
    MonotonicityProblem {
        plan,
        center: center.to_vec(),
        eps,
        feature,
        tau: eps,
        output_weights,
        increasing: true,
    }
}

/// Certificates prove the very bound the verdict was served from, bit for
/// bit, at every solver tier.
#[test]
fn certificate_claims_the_served_bound() {
    let claimed = |cert: Option<raven_check::Certificate>| {
        let cert = cert.expect("solver-tier verdicts certify");
        check_certificate(&cert).expect("certificate replays");
        cert.lp
            .expect("solver-tier certificates carry an LP proof")
            .claimed_bound
    };
    // Monotonicity on fc-small at ε = 0.02: a second, differently
    // presolved solve used to claim a bound ulps away from the served one.
    let (net, test) = fc_small_std();
    let problem = mono_query(&net, &test.inputs[0], 16, 0.02);
    let (res, cert) =
        verify_monotonicity_certified(&problem, Method::Raven, &RavenConfig::default());
    assert_eq!(res.tier, raven::Tier::Lp);
    assert_eq!(claimed(cert).to_bits(), res.certified_change.to_bits());
    let plain = raven::verify_monotonicity(&problem, Method::Raven, &RavenConfig::default());
    assert_eq!(
        plain.certified_change.to_bits(),
        res.certified_change.to_bits()
    );
    // UAP at the lp, milp and degraded-anytime (node limit) tiers: the
    // served Hamming bound is the claimed bound under the verifier's clamp.
    let problem = uap_problem(0.15);
    let lp_only = RavenConfig {
        spec_milp: false,
        ..RavenConfig::default()
    };
    let mut anytime = RavenConfig::default();
    anytime.milp.max_nodes = 1;
    for (config, tier, degraded) in [
        (lp_only, raven::Tier::Lp, false),
        (RavenConfig::default(), raven::Tier::Milp, false),
        (anytime, raven::Tier::Milp, true),
    ] {
        let (res, cert) = verify_uap_certified(&problem, Method::Raven, &config);
        assert_eq!((res.tier, res.degraded), (tier, degraded));
        // The certified verdict is the plain one.
        let plain = verify_uap(&problem, Method::Raven, &config);
        assert_eq!(
            (plain.worst_case_hamming.to_bits(), plain.exact),
            (res.worst_case_hamming.to_bits(), res.exact)
        );
        assert_eq!(plain.counterexample_delta, res.counterexample_delta);
        let unverified = (problem.k() - res.individually_verified) as f64;
        assert_eq!(
            claimed(cert).clamp(0.0, unverified).to_bits(),
            res.worst_case_hamming.to_bits(),
            "{tier:?} (degraded: {degraded})"
        );
    }
}

/// Replays the certificate of one primary solve: it must be present for
/// an optimal or infeasible outcome, replay, claim exactly the served
/// bound, and fail once that bound is overstated. Returns whether a
/// certificate was emitted.
fn round_trip(case: &str, p: &LpProblem, sol: &Solution) -> bool {
    let Some(lp_cert) = p.certificate(sol) else {
        assert!(
            !matches!(sol.status, SolveStatus::Optimal),
            "{case}: optimal solve emitted no certificate"
        );
        return false;
    };
    let wrap = |lp| raven_check::Certificate {
        kind: "lp-sweep".to_string(),
        tier: "lp".to_string(),
        degraded: false,
        lp: Some(lp),
        analysis: None,
    };
    check_certificate(&wrap(lp_cert.clone()))
        .unwrap_or_else(|e| panic!("{case}: honest certificate rejected: {e}"));
    if sol.is_optimal() {
        assert_eq!(
            lp_cert.claimed_bound.to_bits(),
            sol.objective.to_bits(),
            "{case}: certificate claims a bound other than the served one"
        );
        // A strictly stronger claimed bound than the solver proved must
        // fail: smaller for a maximization bound, larger for minimization.
        let mut evil = lp_cert;
        evil.claimed_bound += match evil.problem.direction {
            raven_check::CertDirection::Maximize => -0.5,
            raven_check::CertDirection::Minimize => 0.5,
        };
        assert!(
            check_certificate(&wrap(evil)).is_err(),
            "{case}: inflated bound accepted"
        );
    }
    true
}

/// A random bounded LP: `n` variables in random boxes (the first
/// `binaries` of them binary instead), `m` random dense rows and
/// `singletons` random single-variable rows, random direction.
fn random_lp(
    rng: &mut Rng,
    unif: &mut impl FnMut(f64, f64) -> f64,
    binaries: usize,
    singletons: usize,
) -> LpProblem {
    let n = 2 + (rng.next_u64() % 4) as usize;
    let m = 1 + (rng.next_u64() % 4) as usize;
    let mut p = LpProblem::new();
    let vars: Vec<_> = (0..n)
        .map(|i| {
            if i < binaries {
                return p.add_binary_var();
            }
            let lo = unif(-3.0, 0.0);
            let hi = unif(0.0, 3.0);
            p.add_var(lo, hi)
        })
        .collect();
    let sense = |rng: &mut Rng| match rng.next_u64() % 3 {
        0 => Sense::Le,
        1 => Sense::Ge,
        _ => Sense::Eq,
    };
    for _ in 0..m {
        let mut row = LinExpr::new();
        for &v in &vars {
            let c = unif(-2.0, 2.0);
            if c.abs() > 0.2 {
                row.push(c, v);
            }
        }
        let s = sense(rng);
        p.add_constraint(row, s, unif(-2.0, 2.0));
    }
    for _ in 0..singletons {
        let v = vars[rng.below(n)];
        let c = if rng.next_u64().is_multiple_of(2) {
            1.0
        } else {
            -2.5
        };
        let s = sense(rng);
        p.add_constraint(LinExpr::new().term(c, v), s, unif(-2.0, 2.0));
    }
    let mut obj = LinExpr::new();
    for &v in &vars {
        obj.push(unif(-1.0, 1.0), v);
    }
    let dir = if rng.next_u64().is_multiple_of(2) {
        Direction::Maximize
    } else {
        Direction::Minimize
    };
    p.set_objective(dir, obj);
    p
}

/// Proptest-style sweep: random box-constrained LPs and MILPs are solved
/// once with default options (presolve on) and every emitted certificate
/// replays exactly and claims the served objective; overstating the
/// claimed bound is always caught.
#[test]
fn random_lps_round_trip_through_the_checker() {
    const CASES: usize = 40;
    const SPARSE_CASES: u64 = 8;
    // (family, binary variables, singleton rows)
    for (family, binaries, singletons) in [("lp", 0, 0), ("singleton", 0, 2), ("milp", 2, 1)] {
        let mut rng = Rng::new(0xCE27_1F1C);
        let mut certified = 0;
        for case in 0..CASES {
            let mut r = Rng::new(0x9E37 ^ (case as u64).wrapping_mul(0x2545_F491));
            let mut unif = move |lo: f64, hi: f64| lo + (hi - lo) * r.uniform();
            let p = random_lp(&mut rng, &mut unif, binaries, singletons);
            let solved = if binaries > 0 {
                p.solve_milp()
            } else {
                p.solve()
            };
            // Numerical failure: no certificate claimed, fine.
            let Ok(sol) = solved else { continue };
            if round_trip(&format!("{family} case {case}"), &p, &sol) {
                certified += 1;
            }
        }
        assert!(
            certified >= CASES / 2,
            "{family}: too few cases certified: {certified}"
        );
    }
    // Sparse LPs and MILPs of verifier-encoding shape: bases with a
    // structural bump, solves long enough to refactor. Each is feasible
    // and bounded, so every one must certify. Every variable is boxed, as
    // in the verifier's encodings: the exact checker needs a reduced cost
    // of exactly zero on an open bound, which float duals of a free
    // variable do not give.
    for (family, binaries) in [("sparse lp", 0), ("sparse milp", 3)] {
        for case in 0..SPARSE_CASES {
            let p = support::sparse_lp(0x5EED_0000 + case, binaries, false);
            let sol = if binaries > 0 {
                p.solve_milp()
            } else {
                p.solve()
            }
            .unwrap_or_else(|e| panic!("{family} case {case}: {e}"));
            assert!(
                round_trip(&format!("{family} case {case}"), &p, &sol),
                "{family} case {case}: {:?} without a certificate",
                sol.status
            );
        }
    }
    // Degenerate: presolve derives x ≤ 0.5 from the row x + y ≤ 1, and the
    // optimum sits on that derived bound with the row tight. With y ≤ 0.5
    // added as a singleton row, presolve fixes y and then drops the source
    // row as redundant, so the reduced cost of x must travel back onto it.
    for fix_y in [false, true] {
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 10.0);
        let y = p.add_var(0.5, 1.0);
        p.add_constraint(LinExpr::new().term(1.0, x).term(1.0, y), Sense::Le, 1.0);
        if fix_y {
            p.add_constraint(LinExpr::new().term(1.0, y), Sense::Le, 0.5);
        }
        p.set_objective(Direction::Maximize, LinExpr::new().term(1.0, x));
        let sol = p.solve().expect("degenerate LP solves");
        assert_eq!(sol.objective, 0.5);
        assert!(round_trip(
            &format!("degenerate (y fixed: {fix_y})"),
            &p,
            &sol
        ));
    }
}

/// Regression: on this query the primal simplex used to declare optimal,
/// at 0.131, a point that violates the real constraints (the explicit
/// basis inverse had drifted), so the verdict claimed monotonicity and its
/// certificate failed replay. A concrete input pair changes the score by
/// about −6.019e-5. The network is the benchmark zoo's `fc-small` trained
/// without PGD; the centre is test point 25 of the digits split it was
/// trained on.
#[test]
fn drifted_inverse_never_yields_an_unsound_monotonicity_verdict() {
    let (net, test) = fc_small_std();
    let problem = mono_query(&net, &test.inputs[25], 33, 0.01);
    let (res, cert) =
        verify_monotonicity_certified(&problem, Method::Raven, &RavenConfig::default());
    assert_eq!(res.tier, raven::Tier::Lp);
    assert!(!res.verified, "a concrete pair violates monotonicity");
    assert!(
        (res.certified_change - -6.019e-5).abs() <= 1e-6,
        "certified change {} is not the LP optimum -6.019e-5",
        res.certified_change
    );
    let report =
        check_certificate(&cert.expect("raven emits a certificate")).expect("certificate replays");
    let exact = report
        .exact_bound
        .expect("lp-tier replay reports its bound");
    assert!((exact - res.certified_change).abs() <= 1e-6);
}
