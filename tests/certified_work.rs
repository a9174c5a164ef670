//! A certified run does the solver work of a plain run and no more: the
//! certificate packages the served solve's evidence instead of solving
//! again. Alone in its own test binary because the solver counters are
//! process-global.

use raven::{
    verify_monotonicity, verify_monotonicity_certified, verify_uap, verify_uap_certified, Method,
    MonotonicityProblem, RavenConfig, UapProblem,
};
use raven_lp::metrics::{LP_SOLVES, SIMPLEX_PIVOTS};
use raven_nn::{ActKind, NetworkBuilder};

/// `(LP solves, simplex pivots)` that `run` cost.
fn work(run: impl FnOnce()) -> (u64, u64) {
    let (solves, pivots) = (LP_SOLVES.get(), SIMPLEX_PIVOTS.get());
    run();
    (LP_SOLVES.get() - solves, SIMPLEX_PIVOTS.get() - pivots)
}

#[test]
fn certified_runs_cost_the_solver_work_of_plain_runs() {
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
    let uap = UapProblem {
        plan: net.to_plan(),
        inputs,
        labels,
        eps: 0.15,
    };
    let config = RavenConfig::default();
    let plain = work(|| {
        verify_uap(&uap, Method::Raven, &config);
    });
    let certified = work(|| {
        let (_, cert) = verify_uap_certified(&uap, Method::Raven, &config);
        assert!(
            cert.and_then(|c| c.lp).is_some(),
            "the MILP verdict certifies"
        );
    });
    assert!(plain.1 > 0, "the UAP query reaches the solver");
    assert_eq!(certified, plain, "uap (LP solves, pivots)");

    let mono = MonotonicityProblem {
        plan: net.to_plan(),
        center: vec![0.5, 0.5, 0.5, 0.5],
        eps: 0.05,
        feature: 1,
        tau: 0.05,
        output_weights: vec![1.0, 0.0, -1.0],
        increasing: true,
    };
    let plain = work(|| {
        verify_monotonicity(&mono, Method::Raven, &config);
    });
    let certified = work(|| {
        let (_, cert) = verify_monotonicity_certified(&mono, Method::Raven, &config);
        assert!(
            cert.and_then(|c| c.lp).is_some(),
            "the LP verdict certifies"
        );
    });
    assert!(plain.0 > 0, "the monotonicity query reaches the solver");
    assert_eq!(certified, plain, "monotonicity (LP solves, pivots)");
}
