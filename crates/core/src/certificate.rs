//! Certificate assembly for verdicts: collects the replayable evidence a
//! verification run produces — LP/MILP dual proofs from `raven-lp` and
//! per-neuron relaxation records from DeepPoly — into one
//! [`raven_check::Certificate`] the exact checker can replay.
//!
//! Emission is strictly additive: it runs no solve and leaves the verdict
//! untouched. The LP evidence is the served solve's own — its duals, Farkas
//! ray or branch-and-bound leaves — so the certificate's claimed bound is
//! bit for bit the bound the verdict was computed from. When any piece of
//! evidence is unavailable (unbounded relaxation, a B&B node without
//! evidence, a method that discards its analyses) the certificate simply
//! omits that section — or is `None` entirely — without affecting the
//! verdict.

use crate::tier::Tier;
use raven_check::{AnalysisCertificate, AnalysisNeuron, Certificate, LpCertificate};
use raven_deeppoly::DeepPolyAnalysis;
use raven_lp::{LpProblem, Solution};
use raven_nn::{ActKind, AnalysisPlan};

/// The checker's lowercase name for an activation kind.
fn act_name(kind: ActKind) -> &'static str {
    match kind {
        ActKind::Relu => "relu",
        ActKind::Sigmoid => "sigmoid",
        ActKind::Tanh => "tanh",
        ActKind::LeakyRelu => "leakyrelu",
        ActKind::HardTanh => "hardtanh",
    }
}

/// Accumulates the certifiable evidence of one verification run. Threaded
/// as `Option<&mut CertSink>` through the verifiers; `None` (the default
/// everywhere) keeps certificate work entirely off the hot path.
#[derive(Debug, Default)]
pub struct CertSink {
    pub(crate) lp: Option<LpCertificate>,
    pub(crate) analysis: Option<AnalysisCertificate>,
}

impl CertSink {
    /// Packages the evidence of the solve the verdict's bound came from.
    pub(crate) fn record_lp(&mut self, lp: &LpProblem, sol: &Solution) {
        self.lp = lp.certificate(sol);
    }

    /// Records every activation relaxation the given DeepPoly analyses
    /// used, in the checker's vocabulary. Sigmoid/tanh neurons are included
    /// too — the checker tallies them as trusted rather than replayed.
    pub(crate) fn record_analyses(&mut self, plan: &AnalysisPlan, analyses: &[&DeepPolyAnalysis]) {
        let mut neurons = Vec::new();
        for dp in analyses {
            for (kind, lo, hi, r) in dp.relaxation_records(plan) {
                neurons.push(AnalysisNeuron {
                    act: act_name(kind).to_string(),
                    alpha: match kind {
                        ActKind::LeakyRelu => ActKind::LEAKY_SLOPE,
                        _ => 0.0,
                    },
                    lo,
                    hi,
                    lower_slope: r.lower_slope,
                    lower_intercept: r.lower_intercept,
                    upper_slope: r.upper_slope,
                    upper_intercept: r.upper_intercept,
                });
            }
        }
        if !neurons.is_empty() {
            self.analysis = Some(AnalysisCertificate {
                neurons,
                trusted: 0,
            });
        }
    }

    /// Packages the collected evidence, or `None` when the run produced no
    /// certifiable sections at all.
    pub(crate) fn into_certificate(
        self,
        kind: &str,
        tier: Tier,
        degraded: bool,
    ) -> Option<Certificate> {
        if self.lp.is_none() && self.analysis.is_none() {
            return None;
        }
        Some(Certificate {
            kind: kind.to_string(),
            tier: tier.name().to_string(),
            degraded,
            lp: self.lp,
            analysis: self.analysis,
        })
    }
}
