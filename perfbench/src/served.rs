//! The served workloads: `serve-mix` (an open-loop request schedule
//! against a `raven_serve` child with a journal) and `fleet-offload` (two
//! closed-loop clients against a server with one `raven_worker`).

use crate::http::{request, scrape, series, Proc, Scrape};
use crate::layers::{Metrics, Tracer, Work};
use crate::stats::{mean, median, quantile, ratio};
use crate::zoo::{mono_body, uap_body, uap_sound, Entry, ZOO};
use crate::{Opts, Report};
use raven::{report, Method, MonotonicityProblem, RavenConfig, UapProblem};
use raven_json::Json;
use raven_tensor::Rng;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// `serve-mix` rates (requests per second): one below the knee, one above.
const REFERENCE_RPS: f64 = 100.0;
const OVERLOAD_RPS: f64 = 300.0;
/// The latency limit `goodput_rps` counts against.
const GOODPUT_LIMIT_MS: f64 = 50.0;
/// An overload-phase request this late when a client comes free is shed:
/// with the rest of the limit left for service it could still make it.
const SHED_AFTER_MS: f64 = GOODPUT_LIMIT_MS / 2.0;
/// Share of `--seconds` each rate runs for.
const REFERENCE_SHARE: f64 = 0.3;
const OVERLOAD_SHARE: f64 = 0.35;
/// Load comes from one process: at most this many generator threads, each
/// with one connection in flight.
const CLIENTS: usize = 2;
/// `fleet-offload` queries per pass.
const FLEET_PASS: usize = 60;
/// Share of `--seconds` spent in `fleet-offload` passes.
const FLEET_SHARE: f64 = 0.75;

/// One request of a workload.
#[derive(Clone)]
enum Query {
    Uap(usize, UapProblem),
    Mono(usize, MonotonicityProblem),
}

/// A scheduled request: when it is due (from the schedule's start), what it
/// asks, and whether it repeats an earlier request verbatim.
#[derive(Clone)]
struct Planned {
    due_s: f64,
    query: usize,
    certificate: bool,
    repeat: bool,
    overload: bool,
}

/// A sent request and its answer.
#[derive(Clone, Default)]
struct Sent {
    due: Option<Instant>,
    sent: Option<Instant>,
    done: Option<Instant>,
    status: u16,
    body: String,
    /// Not sent: it was already past the latency limit when a client came
    /// free (a client with a deadline gives up on it). Counts as a miss.
    shed: bool,
}

impl Sent {
    fn ms_since_due(&self) -> f64 {
        match (self.due, self.done) {
            (Some(a), Some(b)) => b.saturating_duration_since(a).as_secs_f64() * 1e3,
            _ => f64::INFINITY,
        }
    }

    fn ms_since_send(&self) -> f64 {
        match (self.sent, self.done) {
            (Some(a), Some(b)) => (b - a).as_secs_f64() * 1e3,
            _ => f64::INFINITY,
        }
    }

    fn lag_ms(&self) -> f64 {
        match (self.due, self.sent) {
            (Some(a), Some(b)) => b.saturating_duration_since(a).as_secs_f64() * 1e3,
            _ => 0.0,
        }
    }
}

/// A running server (and, for the fleet, its worker).
struct Service {
    server: Proc,
    worker: Option<Proc>,
    addr: SocketAddr,
}

impl Service {
    fn stop(self) {
        if let Some(w) = self.worker {
            w.stop(Duration::from_secs(5));
        }
        self.server.stop(Duration::from_secs(10));
    }
}

fn healthz(addr: SocketAddr) -> Option<Json> {
    let resp = request(addr, "GET", "/v1/healthz", "").ok()?;
    (resp.status == 200).then(|| Json::parse(&resp.body).ok())?
}

/// Spawns the server (and a worker when `fleet`), and returns it with the
/// time from spawn until healthz is ok and the worker is connected.
fn start(
    opts: &Opts,
    models: &Path,
    journal: Option<&Path>,
    fleet: bool,
) -> Result<(Service, f64), String> {
    let t0 = Instant::now();
    let mut args: Vec<String> = [
        "--models-dir",
        &models.to_string_lossy(),
        "--addr",
        "127.0.0.1:0",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    if let Some(dir) = journal {
        args.extend([
            "--journal-dir".to_string(),
            dir.to_string_lossy().into_owned(),
        ]);
    }
    if fleet {
        args.extend(["--fleet-addr".to_string(), "127.0.0.1:0".to_string()]);
    }
    let server = Proc::spawn(&opts.bin_dir.join("raven_serve"), &args)
        .map_err(|e| format!("spawn raven_serve: {e}"))?;
    let wait = Duration::from_secs(30);
    let fleet_addr = if fleet {
        Some(server.wait_line("raven-serve fleet listening on", wait)?)
    } else {
        None
    };
    let addr: SocketAddr = server
        .wait_line("raven-serve listening on http://", wait)?
        .parse()
        .map_err(|e| format!("server address: {e}"))?;
    let worker = match &fleet_addr {
        Some(fa) => Some(
            Proc::spawn(
                &opts.bin_dir.join("raven_worker"),
                &[
                    "--connect".to_string(),
                    fa.clone(),
                    "--models-dir".to_string(),
                    models.to_string_lossy().into_owned(),
                    "--name".to_string(),
                    "bench-worker".to_string(),
                    "--reconnect-ms".to_string(),
                    "20".to_string(),
                ],
            )
            .map_err(|e| format!("spawn raven_worker: {e}"))?,
        ),
        None => None,
    };
    let deadline = Instant::now() + wait;
    loop {
        if let Some(h) = healthz(addr) {
            let ok = h.get("status").and_then(Json::as_str) == Some("ok");
            let connected = !fleet || h.to_string().contains("\"connected\":true");
            if ok && connected {
                break;
            }
        }
        if Instant::now() > deadline {
            return Err("server did not become ready".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let setup = t0.elapsed().as_secs_f64();
    Ok((
        Service {
            server,
            worker,
            addr,
        },
        setup,
    ))
}

/// Starts the service `SETUP_SAMPLES` times (fresh journal each time),
/// keeping the last; `setup_s` is the median start-up time.
fn start_measured(opts: &Opts, dir: &Path, fleet: bool) -> Result<(Service, f64), String> {
    let models = dir.join("models");
    let mut samples = Vec::new();
    let mut last = None;
    for i in 0..crate::SETUP_SAMPLES {
        let journal = (!fleet).then(|| dir.join(format!("journal-{i}")));
        if let Some(prev) = last.take() {
            Service::stop(prev);
        }
        let (svc, secs) = start(opts, &models, journal.as_deref(), fleet)?;
        samples.push(secs);
        last = Some(svc);
    }
    Ok((last.expect("at least one set-up"), median(&samples)))
}

fn body_of(queries: &[Query], p: &Planned, entries: &[Entry]) -> String {
    match &queries[p.query] {
        Query::Uap(m, q) => uap_body(entries[*m].name, q, p.certificate),
        Query::Mono(m, q) => mono_body(entries[*m].name, q, p.certificate),
    }
}

/// Sends `plan` from `CLIENTS` generator threads: each takes the next
/// request, waits until it is due (open loop) or sends at once (closed
/// loop, `due_s` ignored), and keeps one connection in flight. An
/// overload-phase request later than `SHED_AFTER_MS` when its turn comes
/// is shed instead of sent, so the backlog stays bounded.
fn drive(
    addr: SocketAddr,
    plan: &[Planned],
    bodies: &[String],
    open_loop: bool,
) -> (Vec<Sent>, Duration) {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(vec![Sent::default(); plan.len()]);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= plan.len() {
                    break;
                }
                let due = if open_loop {
                    let due = t0 + Duration::from_secs_f64(plan[i].due_s);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let late_ms = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
                    if plan[i].overload && late_ms > SHED_AFTER_MS {
                        out.lock().expect("results lock")[i] = Sent {
                            due: Some(due),
                            shed: true,
                            ..Sent::default()
                        };
                        continue;
                    }
                    due
                } else {
                    Instant::now()
                };
                let path = if bodies[i].contains("\"center\"") {
                    "/v1/verify/mono"
                } else {
                    "/v1/verify/uap"
                };
                let sent = Instant::now();
                let resp = request(addr, "POST", path, &bodies[i]);
                let done = Instant::now();
                let (status, body) = resp.map_or((0, String::new()), |r| (r.status, r.body));
                out.lock().expect("results lock")[i] = Sent {
                    due: Some(due),
                    sent: Some(sent),
                    done: Some(done),
                    status,
                    body,
                    shed: false,
                };
            });
        }
    });
    let wall = t0.elapsed();
    (out.into_inner().expect("results lock"), wall)
}

/// The in-process verdict bytes for a query, and for a UAP query whether
/// its certified accuracy respects the empirical bound.
fn reference(entries: &[Entry], q: &Query) -> (String, bool) {
    let config = RavenConfig::default();
    match q {
        Query::Uap(m, p) => {
            let r = raven::verify_uap(p, Method::Raven, &config);
            (
                report::uap_verdict_json(p.k(), p.eps, &r).to_string(),
                uap_sound(&entries[*m], p, &r),
            )
        }
        Query::Mono(_, p) => {
            let r = raven::verify_monotonicity(p, Method::Raven, &config);
            (report::mono_verdict_json(p, &r).to_string(), true)
        }
    }
}

/// Checks every answer: status 200, verdict bytes equal to the in-process
/// report for the same query, sound UAP bounds, and every returned
/// certificate replaying exactly. Returns one failure reason (or none) per
/// request. References are computed once per distinct query, on
/// `CLIENTS` threads, after the measured window.
fn check(
    entries: &[Entry],
    queries: &[Query],
    plan: &[Planned],
    sent: &[Sent],
) -> Vec<Option<String>> {
    // Only queries some sent request asked need a reference.
    let mut needed = vec![false; queries.len()];
    for (p, s) in plan.iter().zip(sent) {
        needed[p.query] |= !s.shed;
    }
    let next = AtomicUsize::new(0);
    let refs = Mutex::new(vec![None; queries.len()]);
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= queries.len() {
                    break;
                }
                if !needed[i] {
                    continue;
                }
                let r = reference(entries, &queries[i]);
                refs.lock().expect("refs lock")[i] = Some(r);
            });
        }
    });
    let refs = refs.into_inner().expect("refs lock");
    plan.iter()
        .zip(sent)
        .map(|(p, s)| {
            if s.shed {
                return None;
            }
            if s.status != 200 {
                return Some(format!("status {} for request {}", s.status, p.query));
            }
            let env = match Json::parse(&s.body) {
                Ok(env) => env,
                Err(e) => return Some(format!("bad envelope for request {}: {e}", p.query)),
            };
            let served = env.get("result").map(Json::to_string).unwrap_or_default();
            let (expected, sound) = refs[p.query].as_ref().expect("every query has a reference");
            if &served != expected {
                return Some(format!(
                    "served verdict differs from in-process: {served} vs {expected}"
                ));
            }
            if !sound {
                return Some("certified accuracy exceeds the empirical bound".into());
            }
            if p.certificate {
                match env.get("certificate") {
                    Some(c) if !c.is_null() => {
                        if let Err(e) = raven_check::check_certificate_json(c) {
                            return Some(format!("served certificate rejected: {e}"));
                        }
                    }
                    _ => return Some("certificate requested but not returned".into()),
                }
            }
            None
        })
        .collect()
}

fn solve_millis(s: &Sent) -> f64 {
    Json::parse(&s.body)
        .ok()
        .and_then(|e| e.get("solve_millis").and_then(Json::as_f64))
        .unwrap_or(0.0)
}

fn cached(s: &Sent) -> bool {
    Json::parse(&s.body)
        .ok()
        .and_then(|e| e.get("cached").and_then(Json::as_bool))
        .unwrap_or(false)
}

/// The low-ε analysis-bound mix for each zoo model.
fn low_eps(name: &str) -> f64 {
    match name {
        "conv-small" | "fc-small-std" => 0.01,
        _ => 0.02,
    }
}

/// `serve-mix` request kinds, in exact counts per block of
/// `MIX_BLOCK` requests so every seed sends the same mix: repeats (20%),
/// fc-big MILPs (2%), `certificate=1` (10%), the rest fresh and plain.
const MIX_BLOCK: usize = 50;
const MIX_REPEATS: usize = 10;
const MIX_BIG: usize = 1;
const MIX_CERTS: usize = 5;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Repeat,
    Big,
    Certificate,
    Plain,
}

/// Builds `serve-mix`'s schedule: a reference-rate phase then an overload
/// phase. Each block of `MIX_BLOCK` requests holds the mix in a seeded
/// order. Fresh queries get a unique ε offset, counted from `first_index`,
/// so none collides with an earlier one (a second schedule of the same
/// seed asks the same points with new offsets); a repeat copies a plain
/// request at least `MIX_BLOCK` requests back, long since answered, so it
/// is a cache read (with none to copy yet, it sends a fresh plain one).
fn serve_schedule(
    entries: &[Entry],
    seed: u64,
    ref_s: f64,
    over_s: f64,
    first_index: usize,
) -> (Vec<Query>, Vec<Planned>) {
    let mut rng = Rng::new(seed ^ 0x5851_F42D_4C95_7F2D);
    let mut queries: Vec<Query> = Vec::new();
    let mut plan: Vec<Planned> = Vec::new();
    let big = entries
        .iter()
        .position(|e| e.name == "fc-big")
        .expect("fc-big in zoo");
    let n_ref = (REFERENCE_RPS * ref_s).round() as usize;
    let n_over = (OVERLOAD_RPS * over_s).round() as usize;
    let mut block = Vec::new();
    for i in 0..n_ref + n_over {
        if i % MIX_BLOCK == 0 {
            block = [
                (Kind::Repeat, MIX_REPEATS),
                (Kind::Big, MIX_BIG),
                (Kind::Certificate, MIX_CERTS),
            ]
            .iter()
            .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
            .collect();
            block.resize(MIX_BLOCK, Kind::Plain);
            rng.shuffle(&mut block);
        }
        let overload = i >= n_ref;
        let due_s = if overload {
            ref_s + (i - n_ref) as f64 / OVERLOAD_RPS
        } else {
            i as f64 / REFERENCE_RPS
        };
        let mut kind = block[i % MIX_BLOCK];
        if kind == Kind::Repeat {
            let earlier: Vec<usize> = (0..i.saturating_sub(MIX_BLOCK))
                .filter(|&j| !plan[j].certificate && !plan[j].repeat)
                .collect();
            if earlier.is_empty() {
                kind = Kind::Plain;
            } else {
                let j = earlier[rng.below(earlier.len())];
                plan.push(Planned {
                    due_s,
                    query: plan[j].query,
                    certificate: false,
                    repeat: true,
                    overload,
                });
                continue;
            }
        }
        let offset = 1e-7 * (first_index + i) as f64;
        let q = if kind == Kind::Big {
            // A shallow MILP on the biggest network: head-of-line waits.
            Query::Uap(big, entries[big].uap(3, 0.1 + offset, &mut rng))
        } else {
            let m = rng.below(entries.len());
            let eps = low_eps(entries[m].name) + offset;
            if rng.uniform() < 0.5 {
                Query::Uap(m, entries[m].uap(3, eps, &mut rng))
            } else {
                Query::Mono(m, entries[m].mono(eps, &mut rng))
            }
        };
        queries.push(q);
        plan.push(Planned {
            due_s,
            query: queries.len() - 1,
            certificate: kind == Kind::Certificate,
            repeat: false,
            overload,
        });
    }
    (queries, plan)
}

/// `fleet-offload`'s queries for one pass: distinct shallow-MILP UAP
/// batches on fc-big (k=3, ε=0.1) and fc-small (k=3, ε=0.1), alternating.
fn fleet_queries(entries: &[Entry], rng: &mut Rng, first_index: usize) -> Vec<Query> {
    let big = entries
        .iter()
        .position(|e| e.name == "fc-big")
        .expect("fc-big in zoo");
    let small = entries
        .iter()
        .position(|e| e.name == "fc-small")
        .expect("fc-small in zoo");
    (0..FLEET_PASS)
        .map(|i| {
            let m = if i % 2 == 0 { big } else { small };
            let eps = 0.1 + 1e-7 * (first_index + i) as f64;
            Query::Uap(m, entries[m].uap(3, eps, rng))
        })
        .collect()
}

/// Runs `serve-mix` or `fleet-offload`.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let fleet = opts.workload == "fleet-offload";
    let dir = opts
        .work_dir
        .join(format!("{}-{}", opts.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Bench preparation, not set-up: train the zoo and write the model
    // files the server and worker load.
    let entries: Vec<Entry> = ZOO.iter().map(|n| Entry::load(n)).collect();
    crate::zoo::write_models(&entries, &dir.join("models"))
        .map_err(|e| format!("write models: {e}"))?;
    let result = start_measured(opts, &dir, fleet).and_then(|(svc, setup_s)| {
        let mut report = Report::new(opts);
        let outcome = if fleet {
            fleet_offload(opts, &entries, &svc, setup_s, &mut report)
        } else {
            serve_mix(opts, &entries, &svc, setup_s, &mut report)
        };
        svc.stop();
        outcome.map(|()| report)
    });
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// One `serve-mix` schedule, sent and checked.
struct MixRun {
    plan: Vec<Planned>,
    /// Property, network and ε of each request, for the report.
    labels: Vec<String>,
    sent: Vec<Sent>,
    failures: Vec<Option<String>>,
    wall: Duration,
}

fn mix_once(
    entries: &[Entry],
    addr: SocketAddr,
    seed: u64,
    ref_s: f64,
    over_s: f64,
    first_index: usize,
) -> MixRun {
    let (queries, plan) = serve_schedule(entries, seed, ref_s, over_s, first_index);
    let bodies: Vec<String> = plan.iter().map(|p| body_of(&queries, p, entries)).collect();
    let (sent, wall) = drive(addr, &plan, &bodies, true);
    let failures = check(entries, &queries, &plan, &sent);
    let labels = plan
        .iter()
        .map(|p| match &queries[p.query] {
            Query::Uap(m, q) => format!("uap {} eps {:.4}", entries[*m].name, q.eps),
            Query::Mono(m, q) => format!("mono {} eps {:.4}", entries[*m].name, q.eps),
        })
        .collect();
    MixRun {
        plan,
        labels,
        sent,
        failures,
        wall,
    }
}

/// Every sent request is an attempted operation; shed ones were never sent.
fn count_attempts(report: &mut Report, run: &MixRun) {
    for (s, f) in run.sent.iter().zip(&run.failures) {
        if !s.shed {
            report.attempt(f.clone());
        }
    }
}

fn serve_mix(
    opts: &Opts,
    entries: &[Entry],
    svc: &Service,
    setup_s: f64,
    report: &mut Report,
) -> Result<(), String> {
    // A traced run sends two half-length schedules: untraced, then traced.
    let scale = if opts.trace { 0.5 } else { 1.0 };
    let ref_s = opts.seconds * REFERENCE_SHARE * scale;
    let over_s = opts.seconds * OVERLOAD_SHARE * scale;
    let base = mix_once(entries, svc.addr, opts.seed, ref_s, over_s, 0);
    count_attempts(report, &base);
    let at = |run: &MixRun, overload: bool| -> Vec<usize> {
        (0..run.plan.len())
            .filter(|&i| run.plan[i].overload == overload)
            .collect()
    };
    let reference = at(&base, false);
    let overload = at(&base, true);
    let from_due: Vec<f64> = reference
        .iter()
        .map(|&i| base.sent[i].ms_since_due())
        .collect();
    let from_send: Vec<f64> = reference
        .iter()
        .map(|&i| base.sent[i].ms_since_send())
        .collect();
    let good = overload
        .iter()
        .filter(|&&i| base.failures[i].is_none() && base.sent[i].ms_since_due() <= GOODPUT_LIMIT_MS)
        .count();
    let shed = overload.iter().filter(|&&i| base.sent[i].shed).count();
    let mut slowest: Vec<usize> = (0..base.plan.len())
        .filter(|&i| !base.sent[i].shed)
        .collect();
    slowest.sort_by(|&a, &b| {
        base.sent[b]
            .ms_since_send()
            .total_cmp(&base.sent[a].ms_since_send())
    });
    for &i in slowest.iter().take(5) {
        report.line(format!(
            "slow request {i}: {}{} {:.1} ms (solve {:.1} ms)",
            base.labels[i],
            if base.plan[i].certificate {
                " certificate"
            } else {
                ""
            },
            base.sent[i].ms_since_send(),
            solve_millis(&base.sent[i])
        ));
    }
    let lag: Vec<f64> = base.sent.iter().map(Sent::lag_ms).collect();
    report.line(format!(
        "reference {REFERENCE_RPS} req/s x {:.1} s ({} requests): latency p50 {:.2} ms p90 {:.2} ms p99 {:.2} ms",
        ref_s,
        reference.len(),
        median(&from_due),
        quantile(&from_due, 0.9),
        quantile(&from_due, 0.99)
    ));
    report.line(format!(
        "overload {OVERLOAD_RPS} req/s x {:.1} s ({} requests): {good} within {GOODPUT_LIMIT_MS} ms, {shed} shed; generator lag p99 {:.1} ms",
        over_s,
        overload.len(),
        quantile(&lag, 0.99)
    ));
    let e = &mut report.e2e;
    e.put("setup_s", setup_s, "s");
    e.put("wall_s", base.wall.as_secs_f64(), "s");
    e.put("query_p50_ms", median(&from_send), "ms");
    e.put("query_p90_ms", quantile(&from_send, 0.9), "ms");
    e.put("latency_p50_ms", median(&from_due), "ms");
    e.put("latency_p99_ms", quantile(&from_due, 0.99), "ms");
    e.put("goodput_rps", good as f64 / over_s, "1/s");
    e.put("peak_rss_mb", svc.server.peak_rss_mb(), "MB");
    if !opts.trace {
        return Ok(());
    }

    // The traced schedule: same length and seed (fresh ε offsets, so no
    // cache hits it would not have had), with /v1/metrics scraped around
    // it and a span per request.
    let before = scrape(svc.addr).map_err(|e| format!("scrape: {e}"))?;
    let traced = mix_once(entries, svc.addr, opts.seed, ref_s, over_s, base.plan.len());
    let after = scrape(svc.addr).map_err(|e| format!("scrape: {e}"))?;
    count_attempts(report, &traced);
    let mut tracer = Tracer::default();
    for (p, s) in traced.plan.iter().zip(&traced.sent) {
        if let (Some(due), Some(sent), Some(done)) = (s.due, s.sent, s.done) {
            let wait = tracer.record(
                "generator wait",
                "bench",
                tracer.at_us(due),
                tracer.at_us(sent),
                None,
            );
            let name = if p.repeat {
                "repeat"
            } else if p.certificate {
                "certificate"
            } else {
                "fresh"
            };
            tracer.record(
                name,
                "serve",
                tracer.at_us(sent),
                tracer.at_us(done),
                Some(wait),
            );
        }
    }
    let wall_ms = traced.wall.as_secs_f64() * 1e3;
    let l = &mut report.layers;
    // Shed requests were never sent; they have no timings.
    let answered: Vec<usize> = (0..traced.plan.len())
        .filter(|&i| !traced.sent[i].shed)
        .collect();
    let cache_hits: Vec<f64> = answered
        .iter()
        .filter(|&&i| traced.plan[i].repeat && cached(&traced.sent[i]))
        .map(|&i| traced.sent[i].ms_since_send())
        .collect();
    let overhead: Vec<f64> = answered
        .iter()
        .filter(|&&i| !traced.plan[i].repeat)
        .map(|&i| traced.sent[i].ms_since_send() - solve_millis(&traced.sent[i]))
        .collect();
    let cert_ms: Vec<f64> = answered
        .iter()
        .filter(|&&i| traced.plan[i].certificate)
        .map(|&i| solve_millis(&traced.sent[i]))
        .collect();
    let plain_ms: Vec<f64> = answered
        .iter()
        .filter(|&&i| !traced.plan[i].certificate && !traced.plan[i].repeat)
        .map(|&i| solve_millis(&traced.sent[i]))
        .collect();
    server_layers(l, &mut tracer, &before, &after, &traced.sent, 0.0);
    l.put("serve.overhead_ms_p50", median(&overhead), "ms");
    l.put("serve.cache_hit_ms_p50", median(&cache_hits), "ms");
    l.put(
        "check.certified_over_plain",
        ratio(mean(&cert_ms), mean(&plain_ms)),
        "ratio",
    );
    let note = format!(
        "certificate=1 solves {:.2} ms mean over {} vs plain {:.2} ms mean over {}",
        mean(&cert_ms),
        cert_ms.len(),
        mean(&plain_ms),
        plain_ms.len()
    );
    let lag: Vec<f64> = traced.sent.iter().map(Sent::lag_ms).collect();
    l.put("loadgen.lag_ms_p99", quantile(&lag, 0.99), "ms");
    report.line(note);
    // The schedules are open loop and of fixed length, so tracing cost
    // shows in latency, not in wall time.
    let reference_p50 = |run: &MixRun| {
        let ms: Vec<f64> = at(run, false)
            .iter()
            .map(|&i| run.sent[i].ms_since_due())
            .collect();
        median(&ms)
    };
    let overhead = ratio(reference_p50(&traced), reference_p50(&base));
    finish_trace(opts, report, tracer, wall_ms, overhead);
    Ok(())
}

/// Per-layer metrics and self times from a server's `/v1/metrics` deltas
/// plus the client-side timings; `gate_ms` is the fleet's certificate
/// gate time, inside job service. Busy times come from a worker pool and
/// concurrent clients, so their shares of wall time can sum past 1.
fn server_layers(
    l: &mut Metrics,
    tracer: &mut Tracer,
    before: &Scrape,
    after: &Scrape,
    sent: &[Sent],
    gate_ms: f64,
) {
    let d = |name: &str| series(after, name) - series(before, name);
    let work = Work::scraped(after).since(&Work::scraped(before));
    work.metrics(l);
    let jobs = d("raven_serve_queue_submitted_total");
    let wait_ms = 1e3 * d("raven_serve_wait_seconds_sum");
    let service_ms = 1e3 * d("raven_serve_service_seconds_sum");
    let replay_ms = d("raven_check_replay_millis_sum");
    let replays = d("raven_check_replay_millis_count");
    let cert_bytes = d("raven_check_certificate_bytes_sum");
    let dispatch_ms = 1e3 * d("raven_serve_fleet_dispatch_seconds_sum");
    let hits = d("raven_serve_cache_hits_total");
    let misses = d("raven_serve_cache_misses_total");
    l.put(
        "serve.queue_wait_ms_mean",
        ratio(wait_ms, d("raven_serve_wait_seconds_count")),
        "ms",
    );
    l.put(
        "serve.service_ms_mean",
        ratio(service_ms, d("raven_serve_service_seconds_count")),
        "ms",
    );
    l.put("serve.cache_hit_ratio", ratio(hits, hits + misses), "ratio");
    l.put(
        "serve.journal_appends_per_job",
        ratio(d("raven_serve_journal_appends_total"), jobs),
        "count",
    );
    l.put("check.replay_ms", ratio(replay_ms, replays), "ms");
    l.put(
        "check.cert_kb",
        ratio(
            cert_bytes / 1024.0,
            d("raven_check_certificate_bytes_count"),
        ),
        "KiB",
    );
    let phases_ms = 1e3 * work.phases_s;
    l.put(
        "raven.unphased_ms",
        (service_ms - phases_ms - replay_ms - dispatch_ms).max(0.0),
        "ms",
    );
    let lp = 1e3 * work.lp_s;
    let milp = (1e3 * work.solve_s - lp).max(0.0);
    let dp = 1e3 * work.deeppoly_s;
    let diff = 1e3 * work.diffpoly_s;
    let client_ms: f64 = sent
        .iter()
        .map(Sent::ms_since_send)
        .filter(|v| v.is_finite())
        .sum();
    tracer.add_self("lp", lp);
    tracer.add_self("milp", milp);
    tracer.add_self("deeppoly", dp);
    tracer.add_self("diffpoly", diff);
    tracer.add_self("check", replay_ms + gate_ms);
    tracer.add_self("fleet", dispatch_ms);
    tracer.add_self(
        "raven",
        service_ms - lp - milp - dp - diff - replay_ms - gate_ms - dispatch_ms,
    );
    tracer.add_self("serve", client_ms - service_ms - wait_ms);
    tracer.add_self("queue", wait_ms);
}

/// Shares, overhead ratio and the layer table of a traced served run.
fn finish_trace(opts: &Opts, report: &mut Report, tracer: Tracer, wall_ms: f64, overhead: f64) {
    let l = &mut report.layers;
    l.put("obs.trace_overhead_ratio", overhead, "ratio");
    crate::put_shares(l, &tracer, wall_ms);
    let unphased = l.get("raven.unphased_ms");
    let table = tracer.table(
        &opts.workload,
        wall_ms,
        &[
            ("raven.unphased_ms", unphased),
            ("obs.trace_overhead_ratio", overhead),
        ],
    );
    report.lines.extend(table);
    report.tracer = Some(tracer);
}

/// One `fleet-offload` pass: its queries sent closed-loop from `CLIENTS`
/// clients and the fleet counters around it. `failures` is filled by
/// [`FleetPass::check`] after the measured passes.
struct FleetPass {
    queries: Vec<Query>,
    plan: Vec<Planned>,
    wall: Duration,
    sent: Vec<Sent>,
    failures: Vec<Option<String>>,
    before: Scrape,
    after: Scrape,
    remote: f64,
    fallbacks: f64,
    kept_local: f64,
}

impl FleetPass {
    fn check(&mut self, entries: &[Entry]) {
        self.failures = check(entries, &self.queries, &self.plan, &self.sent);
    }
}

fn fleet_pass(
    entries: &[Entry],
    addr: SocketAddr,
    rng: &mut Rng,
    first_index: usize,
) -> Result<FleetPass, String> {
    let queries = fleet_queries(entries, rng, first_index);
    let plan: Vec<Planned> = (0..queries.len())
        .map(|i| Planned {
            due_s: 0.0,
            query: i,
            certificate: false,
            repeat: false,
            overload: false,
        })
        .collect();
    let bodies: Vec<String> = plan.iter().map(|p| body_of(&queries, p, entries)).collect();
    let before = scrape(addr).map_err(|e| format!("scrape: {e}"))?;
    let (sent, wall) = drive(addr, &plan, &bodies, false);
    let after = scrape(addr).map_err(|e| format!("scrape: {e}"))?;
    let d = |name: &str| series(&after, name) - series(&before, name);
    let remote = d("raven_serve_fleet_remote_solves_total");
    let fallbacks = d("raven_serve_fleet_local_fallbacks_total");
    let kept_local = d("raven_serve_fleet_kept_local_total");
    Ok(FleetPass {
        queries,
        plan,
        wall,
        sent,
        failures: Vec::new(),
        before,
        after,
        remote,
        fallbacks,
        kept_local,
    })
}

fn fleet_offload(
    opts: &Opts,
    entries: &[Entry],
    svc: &Service,
    setup_s: f64,
    report: &mut Report,
) -> Result<(), String> {
    let mut rng = Rng::new(opts.seed ^ 0x2545_F491_4F6C_DD1D);
    let start = Instant::now();
    let budget = opts.seconds * FLEET_SHARE;
    let mut passes = Vec::new();
    loop {
        let pass = fleet_pass(entries, svc.addr, &mut rng, passes.len() * FLEET_PASS)?;
        passes.push(pass);
        let last = passes.last().expect("one pass").wall.as_secs_f64();
        if opts.trace || start.elapsed().as_secs_f64() + last > budget {
            break;
        }
    }
    // Checked after the measured passes, so checking takes no pass time.
    for p in &mut passes {
        p.check(entries);
    }
    let mut query_ms = Vec::new();
    for (i, p) in passes.iter().enumerate() {
        for f in &p.failures {
            report.attempt(f.clone());
        }
        query_ms.extend(p.sent.iter().map(Sent::ms_since_send));
        let unaccounted = FLEET_PASS as f64 - p.remote - p.fallbacks - p.kept_local;
        report.line(format!(
            "pass {i}: {FLEET_PASS} eligible queries in {:.1} ms: remote {} fallback {} kept-local {} unaccounted {} \
             (routing is nondeterministic; exempt from the work-count check)",
            p.wall.as_secs_f64() * 1e3,
            p.remote,
            p.fallbacks,
            p.kept_local,
            unaccounted
        ));
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall.as_secs_f64()).collect();
    let e = &mut report.e2e;
    e.put("setup_s", setup_s, "s");
    e.put("wall_s", median(&walls), "s");
    e.put("query_p50_ms", median(&query_ms), "ms");
    e.put("query_p90_ms", quantile(&query_ms, 0.9), "ms");
    e.put("latency_p50_ms", median(&query_ms), "ms");
    e.put("latency_p99_ms", quantile(&query_ms, 0.99), "ms");
    e.put("goodput_rps", FLEET_PASS as f64 / median(&walls), "1/s");
    e.put("peak_rss_mb", svc.server.peak_rss_mb(), "MB");
    if !opts.trace {
        return Ok(());
    }

    // The traced pass: the same kind of pass with the fleet counters and
    // each query's server-side trace read back.
    let untraced_ms = passes[0].wall.as_secs_f64() * 1e3;
    let mut p = fleet_pass(entries, svc.addr, &mut rng, passes.len() * FLEET_PASS)?;
    p.check(entries);
    for f in &p.failures {
        report.attempt(f.clone());
    }
    let mut tracer = Tracer::default();
    let mut dispatch_span_ms = 0.0;
    for s in &p.sent {
        if let (Some(sent), Some(done)) = (s.sent, s.done) {
            tracer.record(
                "verify/uap",
                "serve",
                tracer.at_us(sent),
                tracer.at_us(done),
                None,
            );
        }
        dispatch_span_ms += fleet_dispatch_span_ms(svc.addr, s);
    }
    let wall_ms = p.wall.as_secs_f64() * 1e3;
    let d = |name: &str| series(&p.after, name) - series(&p.before, name);
    let dispatches = d("raven_serve_fleet_dispatches_total");
    let rtt_ms = 1e3 * d("raven_serve_fleet_dispatch_seconds_sum");
    let gate_ms = (dispatch_span_ms - rtt_ms).max(0.0);
    let l = &mut report.layers;
    server_layers(l, &mut tracer, &p.before, &p.after, &p.sent, gate_ms);
    let eligible = FLEET_PASS as f64;
    l.put("fleet.remote_ratio", ratio(p.remote, eligible), "ratio");
    l.put(
        "fleet.kept_local_ratio",
        ratio(p.kept_local, eligible),
        "ratio",
    );
    l.put("fleet.fallbacks", p.fallbacks, "count");
    l.put(
        "fleet.unaccounted",
        eligible - p.remote - p.fallbacks - p.kept_local,
        "count",
    );
    l.put(
        "fleet.dispatch_ms_mean",
        ratio(rtt_ms, d("raven_serve_fleet_dispatch_seconds_count")),
        "ms",
    );
    // The dispatch span covers the round trip plus the certificate gate;
    // the round trip alone is the dispatch histogram.
    l.put(
        "fleet.gate_replay_ms_mean",
        ratio(gate_ms, dispatches),
        "ms",
    );
    let query_ms: Vec<f64> = p.sent.iter().map(Sent::ms_since_send).collect();
    let overhead: Vec<f64> = p
        .sent
        .iter()
        .map(|s| s.ms_since_send() - solve_millis(s))
        .collect();
    l.put("serve.overhead_ms_p50", median(&overhead), "ms");
    report.line(format!(
        "traced pass: remote {} of {eligible}, dispatch RTT {:.2} ms mean; query p50 {:.1} ms",
        p.remote,
        ratio(rtt_ms, dispatches),
        median(&query_ms)
    ));
    finish_trace(opts, report, tracer, wall_ms, ratio(wall_ms, untraced_ms));
    Ok(())
}

/// The summed duration of the local `fleet_dispatch` spans in a request's
/// server-side trace (0 when the trace was not kept).
fn fleet_dispatch_span_ms(addr: SocketAddr, s: &Sent) -> f64 {
    let Some(id) = Json::parse(&s.body).ok().and_then(|e| {
        e.get("trace")
            .and_then(|t| t.get("trace_id"))
            .and_then(Json::as_str)
            .map(str::to_string)
    }) else {
        return 0.0;
    };
    let Ok(resp) = request(addr, "GET", &format!("/v1/traces/{id}"), "") else {
        return 0.0;
    };
    resp.body
        .lines()
        .filter_map(|l| Json::parse(l).ok())
        .filter(|r| r.get("name").and_then(Json::as_str) == Some("fleet_dispatch"))
        .filter(|r| r.get("remote").and_then(Json::as_bool) != Some(true))
        .filter_map(|r| r.get("dur_us").and_then(Json::as_f64))
        .sum::<f64>()
        / 1e3
}
