//! Solver telemetry: where the verifier's time actually goes.
//!
//! Branch-&-bound verifiers live or die by node-selection and bounding
//! cost, so the solver exports the raw work counters (pivots, nodes,
//! prunes, incumbents) that every perf investigation starts from. All
//! instruments are process-wide statics; see `raven-obs` for the
//! determinism contract (observe-only, never fed back into the search).

use raven_obs::{Counter, Desc, Histogram, MetricRef};

/// Simplex pivot iterations (both phases, all solves).
pub static SIMPLEX_PIVOTS: Counter = Counter::new();
/// LP solves started (including B&B node relaxations).
pub static LP_SOLVES: Counter = Counter::new();
/// Wall-clock seconds per LP solve (only recorded while telemetry is
/// enabled — the timer is clock-free otherwise).
pub static LP_SOLVE_SECONDS: Histogram = Histogram::new();
/// Rows dropped by presolve (singleton + redundant).
pub static PRESOLVE_ROWS_REMOVED: Counter = Counter::new();
/// Variable-bound tightenings applied by presolve.
pub static PRESOLVE_BOUNDS_TIGHTENED: Counter = Counter::new();
/// LP solves aborted by deadline/cancel (no sound partial bound).
pub static LP_BUDGET_EXHAUSTED: Counter = Counter::new();
/// LP solves that accepted a warm-start basis (dual- or primal-feasible
/// seed) instead of a two-phase cold start.
pub static LP_WARM_STARTS: Counter = Counter::new();
/// Dual-simplex pivot iterations (warm-started solves only; cold-start
/// pivots are counted by `SIMPLEX_PIVOTS`).
pub static LP_DUAL_PIVOTS: Counter = Counter::new();
/// Basis refactorizations: periodic ones (every `refactor_every` pivots)
/// and the one that seeds every warm-started solve.
pub static LP_REFACTORIZATIONS: Counter = Counter::new();
/// Wall-clock seconds per basis refactorization, basic values included
/// (only recorded while telemetry is enabled).
pub static LP_REFACTOR_SECONDS: Histogram = Histogram::new();
/// Claimed optima whose point failed the check against the real rows
/// (the basis factorization had drifted) and were re-solved cold.
pub static LP_OPTIMUM_CHECK_FAILURES: Counter = Counter::new();
/// Branch-&-bound nodes whose relaxation was solved.
pub static MILP_NODES: Counter = Counter::new();
/// Nodes discarded without branching (empty domain, infeasible
/// relaxation, or dominated by the incumbent).
pub static MILP_NODES_PRUNED: Counter = Counter::new();
/// Times a new best integral solution was installed.
pub static MILP_INCUMBENT_UPDATES: Counter = Counter::new();
/// B&B searches that stopped early (deadline, cancel, or node cap) and
/// returned an anytime bound instead of the exact optimum.
pub static MILP_BUDGET_EXHAUSTED: Counter = Counter::new();

/// Exposition table for this crate, in stable scrape order.
pub static DESCS: [Desc; 15] = [
    Desc {
        name: "raven_lp_simplex_pivots_total",
        help: "Simplex pivot iterations across all LP solves.",
        labels: "",
        metric: MetricRef::Counter(&SIMPLEX_PIVOTS),
    },
    Desc {
        name: "raven_lp_solves_total",
        help: "LP solves started, including branch-and-bound node relaxations.",
        labels: "",
        metric: MetricRef::Counter(&LP_SOLVES),
    },
    Desc {
        name: "raven_lp_solve_seconds",
        help: "Wall-clock seconds per LP solve (recorded while telemetry is enabled).",
        labels: "",
        metric: MetricRef::Histogram(&LP_SOLVE_SECONDS),
    },
    Desc {
        name: "raven_lp_presolve_rows_removed_total",
        help: "Constraint rows eliminated by presolve.",
        labels: "",
        metric: MetricRef::Counter(&PRESOLVE_ROWS_REMOVED),
    },
    Desc {
        name: "raven_lp_presolve_bounds_tightened_total",
        help: "Variable-bound tightenings applied by presolve.",
        labels: "",
        metric: MetricRef::Counter(&PRESOLVE_BOUNDS_TIGHTENED),
    },
    Desc {
        name: "raven_lp_budget_exhausted_total",
        help: "LP solves aborted by deadline or cancellation.",
        labels: "",
        metric: MetricRef::Counter(&LP_BUDGET_EXHAUSTED),
    },
    Desc {
        name: "raven_lp_warm_starts_total",
        help: "LP solves that accepted a warm-start basis instead of a cold start.",
        labels: "",
        metric: MetricRef::Counter(&LP_WARM_STARTS),
    },
    Desc {
        name: "raven_lp_dual_pivots_total",
        help: "Dual-simplex pivot iterations across warm-started LP solves.",
        labels: "",
        metric: MetricRef::Counter(&LP_DUAL_PIVOTS),
    },
    Desc {
        name: "raven_lp_refactorizations_total",
        help: "Basis refactorizations across all LP solves.",
        labels: "",
        metric: MetricRef::Counter(&LP_REFACTORIZATIONS),
    },
    Desc {
        name: "raven_lp_refactor_seconds",
        help: "Wall-clock seconds per basis refactorization (recorded while telemetry is enabled).",
        labels: "",
        metric: MetricRef::Histogram(&LP_REFACTOR_SECONDS),
    },
    Desc {
        name: "raven_lp_optimum_check_failures_total",
        help: "Claimed LP optima that failed the point check and were re-solved cold.",
        labels: "",
        metric: MetricRef::Counter(&LP_OPTIMUM_CHECK_FAILURES),
    },
    Desc {
        name: "raven_lp_milp_nodes_total",
        help: "Branch-and-bound nodes whose LP relaxation was solved.",
        labels: "",
        metric: MetricRef::Counter(&MILP_NODES),
    },
    Desc {
        name: "raven_lp_milp_nodes_pruned_total",
        help: "Branch-and-bound nodes discarded without branching.",
        labels: "",
        metric: MetricRef::Counter(&MILP_NODES_PRUNED),
    },
    Desc {
        name: "raven_lp_milp_incumbent_updates_total",
        help: "Times branch-and-bound installed a new best integral solution.",
        labels: "",
        metric: MetricRef::Counter(&MILP_INCUMBENT_UPDATES),
    },
    Desc {
        name: "raven_lp_milp_budget_exhausted_total",
        help: "Branch-and-bound searches stopped early with an anytime bound.",
        labels: "",
        metric: MetricRef::Counter(&MILP_BUDGET_EXHAUSTED),
    },
];
