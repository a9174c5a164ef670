//! The in-process closed-loop workloads: `bnb-hot` (uncertified branching
//! solves) and `certify-sweep` (time to a checked verdict).

use crate::layers::{Tracer, Work};
use crate::stats::{mean, median, quantile, ratio};
use crate::zoo::{uap_sound, Entry};
use crate::{Opts, Report};
use raven::{Method, MonotonicityProblem, Phase, RavenConfig, RunHooks, UapProblem};
use raven_tensor::Rng;
use std::sync::Mutex;
use std::time::Instant;

/// `bnb-hot`'s networks; [`PoolPart::model`] indexes them.
const BNB_MODELS: [&str; 3] = ["fc-small", "fc-med", "conv-small"];

/// One part of a `bnb-hot` pass, drawn from the committed pool.
struct PoolPart {
    /// Names the part in the pool file.
    name: &'static str,
    model: usize,
    /// `verify_targeted_uap_all` over every label instead of `verify_uap`.
    targeted: bool,
    eps: f64,
    /// k=4 batches drawn when the pool is written.
    draws: usize,
    /// The range, as shares of the draws that reach the MILP sorted by
    /// solver work, kept in the pool.
    keep: (f64, f64),
    /// A pass solves one batch from each stratum of the kept draws.
    strata: usize,
}

/// On conv-small about 4 in 10 draws reach the MILP, nearly all at its
/// root; the rare deep one costs ten times as much and is left out. The
/// targeted queries' cost varies twofold across batches of like UAP work,
/// so they keep the middle third of their own draws.
const BNB_POOL: [PoolPart; 4] = [
    PoolPart {
        name: "fc-small",
        model: 0,
        targeted: false,
        eps: 0.6,
        draws: 84,
        keep: (0.0, 1.0),
        strata: 12,
    },
    PoolPart {
        name: "fc-small/targeted",
        model: 0,
        targeted: true,
        eps: 0.6,
        draws: 12,
        keep: (1.0 / 3.0, 2.0 / 3.0),
        strata: 1,
    },
    PoolPart {
        name: "fc-med",
        model: 1,
        targeted: false,
        eps: 0.2,
        draws: 12,
        keep: (0.0, 1.0),
        strata: 2,
    },
    PoolPart {
        name: "conv-small",
        model: 2,
        targeted: false,
        eps: 0.08,
        draws: 48,
        keep: (0.0, 0.9),
        strata: 2,
    },
];
/// The seed of the draws that fill the pool (not a run's `--seed`).
const BNB_POOL_DRAWS_SEED: u64 = 0xB0B5_EED5;
/// The pool, written by `perfbench --write-bnb-pool` and compiled in.
const BNB_POOL_FILE: &str = include_str!("../bnb_pool.txt");

/// `certify-sweep`: per zoo model, the (low, moderate) ε of its k=3 UAP
/// and its monotonicity queries.
const SWEEP: [(&str, [f64; 2], [f64; 2]); 5] = [
    ("fc-small", [0.02, 0.05], [0.02, 0.05]),
    ("fc-med", [0.02, 0.05], [0.02, 0.05]),
    ("fc-big", [0.02, 0.05], [0.02, 0.05]),
    ("conv-small", [0.01, 0.02], [0.01, 0.02]),
    ("fc-small-std", [0.01, 0.02], [0.01, 0.02]),
];
/// Untraced passes a run makes at least: each query counts with its
/// fastest pass.
const MIN_PASSES: usize = 2;

/// `certify-sweep` queries per model and ε level, of each property.
const SWEEP_PER_LEVEL: usize = 45;

/// A `certify-sweep` cell (model, ε level, property) whose queries come
/// from the committed pool instead of fresh draws.
struct SweepPart {
    /// Names the part in the pool file.
    name: &'static str,
    /// Indexes [`SWEEP`].
    model: usize,
    level: usize,
    mono: bool,
}

/// The cells whose cost varies most between draws: on fc-big at ε=0.05
/// about one k=3 batch in five reaches the MILP, and on conv-small at
/// ε=0.02 some monotonicity queries do. Drawn freely, the number of such
/// queries in a pass moved `wall_s` by a quarter between seeds. The pool
/// holds [`SWEEP_POOL_DRAWS`] solved draws per cell cut into
/// [`SWEEP_PER_LEVEL`] strata of like work; a pass takes one query from
/// each stratum, so every seed carries the same share of branching work.
const SWEEP_POOL: [SweepPart; 2] = [
    SweepPart {
        name: "fc-big/uap",
        model: 2,
        level: 1,
        mono: false,
    },
    SweepPart {
        name: "conv-small/mono",
        model: 3,
        level: 1,
        mono: true,
    },
];
const SWEEP_POOL_DRAWS: usize = 4 * SWEEP_PER_LEVEL;
/// The seed of the draws that fill the pool (not a run's `--seed`).
const SWEEP_POOL_DRAWS_SEED: u64 = 0x5EE9_900C;
/// The pool, written by `perfbench --write-sweep-pool` and compiled in.
const SWEEP_POOL_FILE: &str = include_str!("../sweep_pool.txt");

/// One query of a pass.
enum Query {
    Uap(usize, UapProblem),
    /// `verify_targeted_uap_all` over every label of the batch's network.
    Targeted(usize, UapProblem),
    Mono(usize, MonotonicityProblem),
}

impl Query {
    fn entry(&self) -> usize {
        match self {
            Query::Uap(m, _) | Query::Targeted(m, _) | Query::Mono(m, _) => *m,
        }
    }

    /// Property, network and ε, for the report.
    fn label(&self, entries: &[Entry]) -> String {
        let name = entries[self.entry()].name;
        match self {
            Query::Uap(_, p) => format!("uap {name} k={} eps {}", p.k(), p.eps),
            Query::Targeted(_, p) => format!("targeted {name} k={} eps {}", p.k(), p.eps),
            Query::Mono(_, p) => format!("mono {name} feature {} eps {}", p.feature, p.eps),
        }
    }
}

/// Counts a pass's queries in the report, naming the query of a failure.
fn count_attempts(report: &mut Report, queries: &[Query], entries: &[Entry], pass: &Pass) {
    for (i, (q, d)) in queries.iter().zip(&pass.done).enumerate() {
        report.attempt(
            d.failure
                .as_ref()
                .map(|why| format!("query {i} ({}): {why}", q.label(entries))),
        );
    }
}

/// What one query cost and whether its outputs were right.
#[derive(Default)]
struct Done {
    ms: f64,
    failure: Option<String>,
    work: Work,
    cert_bytes: f64,
    replay_ms: f64,
    lp_rows: f64,
    lp_vars: f64,
}

/// The models a workload needs.
pub fn models_for(workload: &str) -> Vec<&'static str> {
    match workload {
        "bnb-hot" => BNB_MODELS.to_vec(),
        _ => crate::zoo::ZOO.to_vec(),
    }
}

/// Records phase starts reported through `RunHooks::with_progress`.
#[derive(Default)]
struct PhaseLog(Mutex<Vec<(Phase, Instant)>>);

impl PhaseLog {
    fn observe(&self, phase: Phase) {
        self.0
            .lock()
            .expect("phase log lock")
            .push((phase, Instant::now()));
    }

    fn take(&self) -> Vec<(Phase, Instant)> {
        std::mem::take(&mut *self.0.lock().expect("phase log lock"))
    }
}

/// Runs one query. `certified` selects the certificate path (emit, serialize,
/// replay — all inside the timed query); with a tracer the call is wrapped
/// in spans and its layer self times are attributed.
fn run_query(
    q: &Query,
    entries: &[Entry],
    config: &RavenConfig,
    certified: bool,
    tracer: Option<&mut Tracer>,
) -> Done {
    let log = PhaseLog::default();
    let observer = |p: Phase| log.observe(p);
    let hooks = if tracer.is_some() {
        RunHooks::default().with_progress(&observer)
    } else {
        RunHooks::default()
    };
    let method = Method::Raven;
    let w0 = Work::local();
    let t0 = Instant::now();
    let mut done = Done::default();
    let mut cert = None;
    let mut uap_res = None;
    let mut degraded = false;
    let call_end;
    match q {
        Query::Uap(_, p) if certified => {
            let (r, c) = raven::verify_uap_certified_with_hooks(p, method, config, &hooks)
                .expect("no cancel flag is attached");
            degraded = r.degraded;
            (done.lp_rows, done.lp_vars) = (r.lp_rows as f64, r.lp_vars as f64);
            uap_res = Some(r);
            cert = Some(c);
            call_end = Instant::now();
        }
        Query::Uap(_, p) => {
            let r = raven::verify_uap_with_hooks(p, method, config, &hooks)
                .expect("no cancel flag is attached");
            degraded = r.degraded;
            (done.lp_rows, done.lp_vars) = (r.lp_rows as f64, r.lp_vars as f64);
            uap_res = Some(r);
            call_end = Instant::now();
        }
        Query::Targeted(_, p) => {
            let labels: Vec<usize> = (0..p.plan.output_dim()).collect();
            let r = raven::verify_targeted_uap_all(p, &labels, method, config);
            if r.len() != labels.len() || r.iter().any(|t| !t.max_forced.is_finite()) {
                done.failure = Some("targeted UAP returned no finite bound".into());
            }
            call_end = Instant::now();
        }
        Query::Mono(_, p) => {
            if certified {
                let (r, c) =
                    raven::verify_monotonicity_certified_with_hooks(p, method, config, &hooks)
                        .expect("no cancel flag is attached");
                degraded = r.degraded;
                cert = Some(c);
            } else {
                let r = raven::verify_monotonicity_with_hooks(p, method, config, &hooks)
                    .expect("no cancel flag is attached");
                degraded = r.degraded;
            }
            call_end = Instant::now();
        }
    }
    // Certificate path, still inside the timed query: serialize, then
    // replay exactly.
    let mut serialize = None;
    let mut replay = None;
    if let Some(c) = &cert {
        match c {
            None => done.failure = Some("certified run emitted no certificate".into()),
            Some(c) => {
                let s0 = Instant::now();
                done.cert_bytes = c.to_json().to_string().len() as f64;
                let s1 = Instant::now();
                if let Err(e) = raven_check::check_certificate(c) {
                    done.failure = Some(format!("certificate rejected: {e}"));
                }
                let s2 = Instant::now();
                done.replay_ms = (s2 - s1).as_secs_f64() * 1e3;
                serialize = Some((s0, s1));
                replay = Some((s1, s2));
            }
        }
    }
    let t1 = Instant::now();
    done.ms = (t1 - t0).as_secs_f64() * 1e3;
    done.work = Work::local().since(&w0);
    if degraded {
        done.failure = Some("verdict degraded without a deadline".into());
    }
    // Correctness, outside the timed query.
    if let (Query::Uap(m, p), Some(r)) = (q, &uap_res) {
        if !uap_sound(&entries[*m], p, r) {
            done.failure = Some(format!(
                "certified accuracy {} exceeds the empirical bound",
                r.worst_case_accuracy
            ));
        }
    }
    if let Some(tr) = tracer {
        attribute(
            tr,
            q,
            entries,
            &done,
            t0,
            call_end,
            t1,
            &log.take(),
            serialize,
            replay,
        );
    }
    done
}

/// Records one query's spans and splits its time among the layers: the
/// LP, DeepPoly and DiffPoly busy seconds come from their own histograms,
/// B&B is the solve phase less the LP, certificate serialization and
/// replay are `check`, and the rest of the call is the core crate.
#[allow(clippy::too_many_arguments)]
fn attribute(
    tr: &mut Tracer,
    q: &Query,
    entries: &[Entry],
    done: &Done,
    t0: Instant,
    call_end: Instant,
    t1: Instant,
    phases: &[(Phase, Instant)],
    serialize: Option<(Instant, Instant)>,
    replay: Option<(Instant, Instant)>,
) {
    let kind = match q {
        Query::Uap(..) => "verify_uap",
        Query::Targeted(..) => "verify_targeted_uap_all",
        Query::Mono(..) => "verify_monotonicity",
    };
    let name = format!("{kind} {}", entries[q.entry()].name);
    let root = tr.record(name, "raven", tr.at_us(t0), tr.at_us(t1), None);
    let call = tr.record(kind, "raven", tr.at_us(t0), tr.at_us(call_end), Some(root));
    let mut phased_ms = 0.0;
    let mut solve_ms = 0.0;
    for (i, (phase, start)) in phases.iter().enumerate() {
        let end = phases.get(i + 1).map_or(call_end, |(_, s)| *s);
        let ms = (end - *start).as_secs_f64() * 1e3;
        phased_ms += ms;
        if *phase == Phase::Solve {
            solve_ms += ms;
        }
        tr.record(
            phase.name(),
            "raven",
            tr.at_us(*start),
            tr.at_us(end),
            Some(call),
        );
    }
    for (span, name) in [
        (serialize, "certificate.to_json"),
        (replay, "check_certificate"),
    ] {
        if let Some((a, b)) = span {
            tr.record(name, "check", tr.at_us(a), tr.at_us(b), Some(root));
            tr.add_self("check", (b - a).as_secs_f64() * 1e3);
        }
    }
    let call_ms = (call_end - t0).as_secs_f64() * 1e3;
    let w = &done.work;
    let lp = 1e3 * w.lp_s;
    let milp = if solve_ms > 0.0 {
        (solve_ms - lp).max(0.0)
    } else {
        0.0
    };
    let dp = 1e3 * w.deeppoly_s;
    let diff = 1e3 * w.diffpoly_s;
    tr.add_self("lp", lp);
    tr.add_self("milp", milp);
    tr.add_self("deeppoly", dp);
    tr.add_self("diffpoly", diff);
    tr.add_self("raven", call_ms - lp - milp - dp - diff);
    tr.unphased_ms += (call_ms - phased_ms).max(0.0);
}

/// Builds `certify-sweep`'s fixed query list for a seed: fresh draws,
/// except in the [`SWEEP_POOL`] cells, which take one query from each
/// stratum of the committed pool.
fn sweep_queries(entries: &[Entry], seed: u64) -> Vec<Query> {
    let names: Vec<&str> = SWEEP_POOL.iter().map(|p| p.name).collect();
    let pool = parse_pool(SWEEP_POOL_FILE, &names);
    let pooled = |m: usize, level: usize, mono: bool| {
        SWEEP_POOL
            .iter()
            .position(|p| (p.model, p.level, p.mono) == (m, level, mono))
    };
    let mut rng = Rng::new(seed ^ 0xC3A5_C85C_97CB_3127);
    let mut out = Vec::new();
    for (m, (name, uap_eps, mono_eps)) in SWEEP.iter().enumerate() {
        debug_assert_eq!(entries[m].name, *name);
        for level in 0..2 {
            for s in 0..SWEEP_PER_LEVEL {
                let uap = match pooled(m, level, false) {
                    Some(part) => {
                        entries[m].uap_at(&pick(&pool, part, s, &mut rng).points, uap_eps[level])
                    }
                    None => entries[m].uap(3, uap_eps[level], &mut rng),
                };
                out.push(Query::Uap(m, uap));
                let mono = match pooled(m, level, true) {
                    Some(part) => {
                        let b = pick(&pool, part, s, &mut rng);
                        entries[m].mono_at(b.points[0], b.points[1], mono_eps[level])
                    }
                    None => entries[m].mono(mono_eps[level], &mut rng),
                };
                out.push(Query::Mono(m, mono));
            }
        }
    }
    out
}

/// One pass of a workload's fixed query set.
struct Pass {
    ms: f64,
    query_ms: Vec<f64>,
    work: Work,
    done: Vec<Done>,
}

fn run_pass(
    queries: &[Query],
    entries: &[Entry],
    config: &RavenConfig,
    certified: bool,
    mut tracer: Option<&mut Tracer>,
    lag_ms: &mut Vec<f64>,
) -> Pass {
    let w0 = Work::local();
    let t0 = Instant::now();
    let mut done = Vec::with_capacity(queries.len());
    let mut last_end: Option<Instant> = None;
    for q in queries {
        if let Some(end) = last_end {
            lag_ms.push((Instant::now() - end).as_secs_f64() * 1e3);
        }
        let d = run_query(q, entries, config, certified, tracer.as_deref_mut());
        last_end = Some(Instant::now());
        done.push(d);
    }
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    Pass {
        ms,
        query_ms: done.iter().map(|d| d.ms).collect(),
        work: Work::local().since(&w0),
        done,
    }
}

/// One line of a committed pool: a `bnb-hot` batch, or a `certify-sweep`
/// query (test points for UAP; test point and feature for monotonicity).
struct PoolBatch {
    part: usize,
    eps: f64,
    stratum: usize,
    points: Vec<usize>,
}

/// Parses a pool file whose lines read `part eps stratum pivots nodes
/// indices…`; `parts` names the parts in order.
fn parse_pool(text: &str, parts: &[&str]) -> Vec<PoolBatch> {
    let field = |f: Option<&str>| -> usize {
        f.and_then(|v| v.parse().ok())
            .expect("pool file: malformed line")
    };
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let mut f = l.split_whitespace();
            let name = f.next();
            let part = parts
                .iter()
                .position(|p| Some(*p) == name)
                .expect("pool file: unknown part");
            let eps = f
                .next()
                .and_then(|v| v.parse().ok())
                .expect("pool file: malformed ε");
            let stratum = field(f.next());
            // The work and node counts the batch had when it was drawn.
            let _ = (f.next(), f.next());
            PoolBatch {
                part,
                eps,
                stratum,
                points: f.map(|v| field(Some(v))).collect(),
            }
        })
        .collect()
}

/// One batch of `stratum` of `part`, picked by `rng`.
fn pick<'a>(pool: &'a [PoolBatch], part: usize, stratum: usize, rng: &mut Rng) -> &'a PoolBatch {
    let batches: Vec<&PoolBatch> = pool
        .iter()
        .filter(|b| b.part == part && b.stratum == stratum)
        .collect();
    batches[rng.below(batches.len())]
}

/// Solved draws, `(nodes, pivots, indices)`, sorted by B&B nodes and then
/// LP pivots (primal plus dual), which track solve time.
fn sort_by_work(drawn: &mut [(f64, f64, Vec<usize>)]) {
    drawn.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
}

/// Pool lines for sorted draws, cut into `strata` strata of like work.
fn pool_lines(name: &str, eps: f64, drawn: &[(f64, f64, Vec<usize>)], strata: usize) -> String {
    let mut text = String::new();
    for (i, (nodes, pivots, points)) in drawn.iter().enumerate() {
        let stratum = i * strata / drawn.len();
        let points: Vec<String> = points.iter().map(usize::to_string).collect();
        text += &format!(
            "{name} {eps} {stratum} {pivots} {nodes} {}\n",
            points.join(" ")
        );
    }
    text
}

/// Builds `bnb-hot`'s query list for a seed: one batch from each stratum
/// of each part of the committed pool. The list depends on the seed and
/// the pool only, never on what the solver reports, so every version of
/// the code solves the same queries for a seed. The strata group batches
/// of like solver work, so every seed carries about the same work even
/// though single batches are heavy-tailed.
fn bnb_queries(entries: &[Entry], seed: u64) -> Vec<Query> {
    let names: Vec<&str> = BNB_POOL.iter().map(|p| p.name).collect();
    let pool = parse_pool(BNB_POOL_FILE, &names);
    let mut rng = Rng::new(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut out = Vec::new();
    for (i, part) in BNB_POOL.iter().enumerate() {
        for s in 0..part.strata {
            let b = pick(&pool, i, s, &mut rng);
            let p = entries[part.model].uap_at(&b.points, b.eps);
            out.push(if part.targeted {
                Query::Targeted(part.model, p)
            } else {
                Query::Uap(part.model, p)
            });
        }
    }
    out
}

/// Writes `bnb-hot`'s pool: per part, draws batches, solves each once
/// uncertified, keeps the part's range of those that reach the MILP sorted
/// by B&B nodes and then LP pivots (primal plus dual), which track solve
/// time, and cuts them into equal strata. The pool is data: runs replay it
/// and never re-derive it from the solver.
pub fn write_bnb_pool(entries: &[Entry], path: &std::path::Path) -> std::io::Result<()> {
    let config = RavenConfig::default();
    let mut rng = Rng::new(BNB_POOL_DRAWS_SEED);
    let mut text = String::from(
        "# bnb-hot batch pool, written by `perfbench --write-bnb-pool`.\n\
         # part eps stratum pivots nodes test-point indices\n",
    );
    for part in &BNB_POOL {
        let entry = &entries[part.model];
        let mut drawn = Vec::new();
        for _ in 0..part.draws {
            let points = entry.batch_indices(4, &mut rng);
            let p = entry.uap_at(&points, part.eps);
            let w0 = Work::local();
            if part.targeted {
                let labels: Vec<usize> = (0..p.plan.output_dim()).collect();
                raven::verify_targeted_uap_all(&p, &labels, Method::Raven, &config);
            } else {
                raven::verify_uap(&p, Method::Raven, &config);
            }
            let w = Work::local().since(&w0);
            if w.milp_nodes >= 1.0 {
                drawn.push((w.milp_nodes, w.pivots + w.dual_pivots, points));
            }
        }
        sort_by_work(&mut drawn);
        let share = |x: f64| (x * drawn.len() as f64).round() as usize;
        let kept = &drawn[share(part.keep.0)..share(part.keep.1)];
        text += &pool_lines(part.name, part.eps, kept, part.strata);
    }
    std::fs::write(path, text)
}

/// Writes `certify-sweep`'s pool: per [`SWEEP_POOL`] cell, draws
/// queries as a run would, solves each once certified, and keeps them all,
/// sorted by work and cut into [`SWEEP_PER_LEVEL`] strata.
pub fn write_sweep_pool(entries: &[Entry], path: &std::path::Path) -> std::io::Result<()> {
    let config = RavenConfig::default();
    let mut rng = Rng::new(SWEEP_POOL_DRAWS_SEED);
    let mut text = String::from(
        "# certify-sweep query pool, written by `perfbench --write-sweep-pool`.\n\
         # part eps stratum pivots nodes indices (uap: test points; mono: test point, feature)\n",
    );
    for part in &SWEEP_POOL {
        let entry = &entries[part.model];
        let (_, uap_eps, mono_eps) = SWEEP[part.model];
        let eps = if part.mono { mono_eps } else { uap_eps }[part.level];
        let mut drawn = Vec::new();
        for _ in 0..SWEEP_POOL_DRAWS {
            let w0 = Work::local();
            let indices = if part.mono {
                let point = entry.batch_indices(1, &mut rng)[0];
                let feature = rng.below(entry.plan.input_dim());
                let p = entry.mono_at(point, feature, eps);
                raven::verify_monotonicity_certified(&p, Method::Raven, &config);
                vec![point, feature]
            } else {
                let points = entry.batch_indices(3, &mut rng);
                raven::verify_uap_certified(&entry.uap_at(&points, eps), Method::Raven, &config);
                points
            };
            let w = Work::local().since(&w0);
            drawn.push((w.milp_nodes, w.pivots + w.dual_pivots, indices));
        }
        sort_by_work(&mut drawn);
        text += &pool_lines(part.name, eps, &drawn, SWEEP_PER_LEVEL);
    }
    std::fs::write(path, text)
}

/// Runs `bnb-hot` or `certify-sweep`.
pub fn run(opts: &Opts, entries: &[Entry], setup_s: f64) -> Report {
    let config = RavenConfig::default();
    let certified = opts.workload == "certify-sweep";
    let mut report = Report::new(opts);
    let mut lag_ms = Vec::new();
    let start = Instant::now();
    let budget = std::time::Duration::from_secs_f64(opts.seconds);

    // Untraced passes: the end-to-end numbers.
    let queries = if certified {
        sweep_queries(entries, opts.seed)
    } else {
        bnb_queries(entries, opts.seed)
    };
    let mut passes = vec![run_pass(
        &queries,
        entries,
        &config,
        certified,
        None,
        &mut lag_ms,
    )];
    // The traced run makes one untraced pass for the overhead ratio; an
    // untraced run makes at least `MIN_PASSES` and repeats the pass while
    // another fits in the budget.
    loop {
        let last = passes.last().expect("one pass ran").ms / 1e3;
        let fits = start.elapsed().as_secs_f64() + last <= budget.as_secs_f64();
        if opts.trace || (passes.len() >= MIN_PASSES && !fits) {
            break;
        }
        passes.push(run_pass(
            &queries,
            entries,
            &config,
            certified,
            None,
            &mut lag_ms,
        ));
    }
    for (i, p) in passes.iter().enumerate() {
        report.line(format!(
            "pass {i}: {} queries, {:.1} ms in queries ({:.1} ms with checks); work {}",
            p.done.len(),
            p.query_ms.iter().sum::<f64>(),
            p.ms,
            p.work.counts_line()
        ));
        count_attempts(&mut report, &queries, entries, p);
        if p.work.counts_line() != passes[0].work.counts_line() {
            report.attempt(Some(format!(
                "pass {i} work counts differ from pass 0: nondeterministic solver work"
            )));
        }
    }
    if !certified {
        for (q, d) in queries.iter().zip(&passes[0].done) {
            report.line(format!(
                "  {}: {:.1} ms, {} nodes",
                q.label(entries),
                d.ms,
                d.work.milp_nodes
            ));
        }
    }
    // The caller's waiting time: the correctness checks between queries
    // are harness work (they show in `loadgen.lag_ms_p99`), not the pass's.
    // Each query counts with its fastest pass: the host's speed swings by
    // a quarter within seconds, and the fastest repeat is the one least
    // disturbed by other load.
    let pass_ms: Vec<f64> = passes.iter().map(|p| p.query_ms.iter().sum()).collect();
    let best_ms: Vec<f64> = (0..queries.len())
        .map(|i| {
            passes
                .iter()
                .map(|p| p.query_ms[i])
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let wall_ms: f64 = best_ms.iter().sum();
    report.line(format!(
        "deterministic work per pass (seed {}): {}",
        opts.seed,
        passes[0].work.counts_line()
    ));
    report.line(format!(
        "per-query ms, fastest of {} passes: p50 {:.2}  p90 {:.2}  max {:.2}  over {} queries",
        passes.len(),
        median(&best_ms),
        quantile(&best_ms, 0.9),
        quantile(&best_ms, 1.0),
        best_ms.len()
    ));

    let e = &mut report.e2e;
    e.put("setup_s", setup_s, "s");
    e.put("wall_s", wall_ms / 1e3, "s");
    e.put("query_p50_ms", median(&best_ms), "ms");
    e.put("query_p90_ms", quantile(&best_ms, 0.9), "ms");
    if certified {
        // Many short queries: the caller waits for one query.
        e.put("latency_p50_ms", median(&best_ms), "ms");
        e.put("latency_p99_ms", quantile(&best_ms, 0.99), "ms");
    } else {
        // A few heavy, unlike queries make one job: the caller waits for
        // the pass. The median over so few queries spreads more over
        // seeds than the pass does, so it is printed, not bounded.
        e.put("latency_p50_ms", wall_ms, "ms");
        e.put("latency_p99_ms", quantile(&pass_ms, 0.99), "ms");
    }
    let n_queries = queries.len() as f64;
    e.put("goodput_rps", n_queries / (wall_ms / 1e3), "1/s");
    e.put(
        "peak_rss_mb",
        crate::http::peak_rss_mb_of("/proc/self/status"),
        "MB",
    );

    if opts.trace {
        traced(
            opts,
            &queries,
            entries,
            &config,
            certified,
            &passes[0],
            &lag_ms,
            &mut report,
        );
    }
    report
}

/// The traced pass: telemetry on, spans around every call, counters
/// snapshotted around every query; then the per-layer metrics and table.
/// Its work counts must equal the untraced pass's: the counters count
/// whether or not telemetry is on.
#[allow(clippy::too_many_arguments)]
fn traced(
    opts: &Opts,
    queries: &[Query],
    entries: &[Entry],
    config: &RavenConfig,
    certified: bool,
    untraced: &Pass,
    lag_ms: &[f64],
    report: &mut Report,
) {
    raven_obs::set_enabled(true);
    let mut tracer = Tracer::default();
    let mut lag = Vec::new();
    let pass = run_pass(
        queries,
        entries,
        config,
        certified,
        Some(&mut tracer),
        &mut lag,
    );
    raven_obs::set_enabled(false);
    count_attempts(report, queries, entries, &pass);
    report.line(format!("traced pass: work {}", pass.work.counts_line()));
    if pass.work.counts_line() != untraced.work.counts_line() {
        report.attempt(Some(
            "traced pass work counts differ from the untraced pass: nondeterministic solver work"
                .into(),
        ));
    }
    let bench_ms = pass.ms - pass.query_ms.iter().sum::<f64>();
    tracer.add_self("bench", bench_ms);
    let unphased = tracer.unphased_ms;

    let mut note = None;
    let l = &mut report.layers;
    pass.work.metrics(l);
    let done = &pass.done;
    let n = done.len() as f64;
    l.put(
        "encode.lp_rows",
        done.iter().map(|d| d.lp_rows).sum::<f64>() / n,
        "count",
    );
    l.put(
        "encode.lp_vars",
        done.iter().map(|d| d.lp_vars).sum::<f64>() / n,
        "count",
    );
    l.put("raven.unphased_ms", unphased, "ms");
    let certs: Vec<&Done> = done.iter().filter(|d| d.cert_bytes > 0.0).collect();
    l.put(
        "check.replay_ms",
        mean(&certs.iter().map(|d| d.replay_ms).collect::<Vec<_>>()),
        "ms",
    );
    l.put(
        "check.cert_kb",
        mean(
            &certs
                .iter()
                .map(|d| d.cert_bytes / 1024.0)
                .collect::<Vec<_>>(),
        ),
        "KiB",
    );
    if certified {
        // The same queries uncertified: the base of the certificate ratio.
        let plain = run_pass(queries, entries, config, false, None, &mut Vec::new());
        let cert_ms = pass.query_ms.iter().sum::<f64>();
        let plain_ms = plain.query_ms.iter().sum::<f64>();
        note = Some(format!(
            "certified {cert_ms:.1} ms vs plain {plain_ms:.1} ms on the same {} queries",
            queries.len()
        ));
        l.put(
            "check.certified_over_plain",
            ratio(cert_ms, plain_ms),
            "ratio",
        );
    }
    let overhead = ratio(pass.ms, untraced.ms);
    l.put("obs.trace_overhead_ratio", overhead, "ratio");
    l.put("loadgen.lag_ms_p99", quantile(lag_ms, 0.99), "ms");
    crate::put_shares(l, &tracer, pass.ms);
    let table = tracer.table(
        &opts.workload,
        pass.ms,
        &[
            ("raven.unphased_ms", unphased),
            ("obs.trace_overhead_ratio", overhead),
        ],
    );
    report.lines.extend(note);
    report.lines.extend(table);
    report.tracer = Some(tracer);
}
