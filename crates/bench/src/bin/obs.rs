//! Emits `BENCH_obs.json`: wall time *and* solver counters for a fixed
//! verification workload.
//!
//! Wall time alone cannot distinguish "the solver got faster" from "the
//! solver did less work"; the `raven-obs` counters can. This bench runs a
//! fixed UAP + targeted-UAP + monotonicity workload on the fc-small zoo
//! model, snapshots the solver/analysis counters before and after, and
//! records the deltas next to the timing — so a perf regression (or win)
//! in a future change decomposes into pivots, dual pivots, warm starts,
//! B&B nodes, presolve eliminations, and per-phase seconds.
//!
//! The high-ε batch and the per-label targeted queries are sized so the
//! spec MILP actually branches: `milp_nodes`, `lp_dual_pivots`, and
//! `lp_warm_starts` are all non-zero, which is what makes the report a
//! meaningful guard for the branch-and-bound hot path.
//!
//! Certificate overhead, fleet dispatch round trips, and tracing overhead
//! (the same workload with and without a per-request trace context) are
//! measured *after* the counter snapshot, so the pivot-regression gate
//! below keeps comparing like with like across baselines that predate
//! them.
//!
//! Usage: `cargo run -p raven-bench --release --bin obs -- [--out FILE]
//! [--threads n] [--check BASELINE]` (default output `BENCH_obs.json`).
//! With `--check`, the freshly measured pivot total (primal + dual) is
//! compared against the committed baseline and the process exits non-zero
//! on a >20% regression — wired into `scripts/tier1.sh`.

use raven::{
    verify_monotonicity, verify_targeted_uap_all, verify_uap, Method, MonotonicityProblem,
    RavenConfig, UapProblem,
};
use raven_bench::models::{fc_model, uap_batches, Training};
use raven_json::Json;
use raven_obs::Counter;
use std::time::Instant;

/// The counters recorded in the report, with their JSON keys.
fn counters() -> Vec<(&'static str, &'static Counter)> {
    use raven::metrics as core_m;
    use raven_lp::metrics as lp_m;
    vec![
        ("simplex_pivots", &lp_m::SIMPLEX_PIVOTS),
        ("lp_dual_pivots", &lp_m::LP_DUAL_PIVOTS),
        ("lp_refactorizations", &lp_m::LP_REFACTORIZATIONS),
        ("lp_warm_starts", &lp_m::LP_WARM_STARTS),
        ("lp_solves", &lp_m::LP_SOLVES),
        ("presolve_rows_removed", &lp_m::PRESOLVE_ROWS_REMOVED),
        (
            "presolve_bounds_tightened",
            &lp_m::PRESOLVE_BOUNDS_TIGHTENED,
        ),
        ("milp_nodes", &lp_m::MILP_NODES),
        ("milp_nodes_pruned", &lp_m::MILP_NODES_PRUNED),
        ("milp_incumbent_updates", &lp_m::MILP_INCUMBENT_UPDATES),
        ("interval_layers", &raven_interval::metrics::LAYERS),
        (
            "deeppoly_relaxed_neurons",
            &raven_deeppoly::metrics::RELAXED_NEURONS,
        ),
        (
            "deeppoly_split_neurons",
            &raven_deeppoly::metrics::SPLIT_NEURONS,
        ),
        (
            "diffpoly_pair_analyses",
            &raven_diffpoly::metrics::PAIR_ANALYSES,
        ),
        ("uap_runs", &core_m::UAP_RUNS),
        ("mono_runs", &core_m::MONO_RUNS),
    ]
}

/// Total simplex work in a report: primal pivots plus dual (warm-start)
/// pivots. Old baselines predate the dual counter; a missing key reads 0.
fn pivot_total(report: &Json) -> f64 {
    let counter = |key: &str| {
        report
            .get("counters")
            .and_then(|c| c.get(key))
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0)
    };
    counter("simplex_pivots") + counter("lp_dual_pivots")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let threads = raven_bench::threads_arg(&args);
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out = flag("--out").unwrap_or_else(|| "BENCH_obs.json".to_string());
    let check = flag("--check");

    // Phase timings need the clock-reading side of telemetry.
    raven_obs::set_enabled(true);
    let model = fc_model("fc-small", Training::Pgd);
    let plan = model.net.to_plan();
    let config = RavenConfig {
        threads,
        ..RavenConfig::default()
    };

    let before: Vec<u64> = counters().iter().map(|(_, c)| c.get()).collect();
    let start = Instant::now();

    // Fixed workload, three parts:
    //
    // 1. Two relational UAP batches (k=3) at a moderate ε — covers
    //    DeepPoly, DiffPoly, and the relational LP, usually without
    //    indicators.
    let eps = 0.03;
    for (inputs, labels) in uap_batches(&model, 3, 2) {
        let problem = UapProblem {
            plan: plan.clone(),
            inputs,
            labels,
            eps,
        };
        let _ = verify_uap(&problem, Method::Raven, &config);
    }
    // 2. One high-ε batch (k=4) where individual robustness fails: the
    //    spec MILP branches, exercising the dual-simplex warm starts on
    //    the B&B hot path, plus the per-label targeted queries that share
    //    one relaxation encoding and one basis cache across all labels.
    let hot_eps = 0.45;
    let (inputs, labels) = uap_batches(&model, 4, 3).swap_remove(2);
    let hot = UapProblem {
        plan: plan.clone(),
        inputs,
        labels,
        eps: hot_eps,
    };
    let _ = verify_uap(&hot, Method::Raven, &config);
    let all_labels: Vec<usize> = (0..plan.output_dim()).collect();
    let _ = verify_targeted_uap_all(&hot, &all_labels, Method::Raven, &config);
    // 3. One LP-tier monotonicity query.
    let dim = plan.input_dim();
    let odim = plan.output_dim();
    let mut weights = vec![0.0; odim];
    weights[0] = -1.0;
    weights[odim - 1] = 1.0;
    let mono = MonotonicityProblem {
        plan: plan.clone(),
        center: vec![0.5; dim],
        eps: 0.02,
        feature: 0,
        tau: 0.0,
        output_weights: weights,
        increasing: true,
    };
    let _ = verify_monotonicity(&mono, Method::Raven, &config);

    let wall_millis = start.elapsed().as_secs_f64() * 1e3;
    let deltas: Vec<(String, Json)> = counters()
        .iter()
        .zip(&before)
        .map(|((name, c), &b)| (name.to_string(), Json::from((c.get() - b) as f64)))
        .collect();
    let phases: Vec<(String, Json)> = [
        ("margins", &raven::metrics::PHASE_MARGINS_SECONDS),
        ("analysis", &raven::metrics::PHASE_ANALYSIS_SECONDS),
        ("diffpoly", &raven::metrics::PHASE_DIFFPOLY_SECONDS),
        ("encode", &raven::metrics::PHASE_ENCODE_SECONDS),
        ("solve", &raven::metrics::PHASE_SOLVE_SECONDS),
    ]
    .iter()
    .map(|(name, h)| (name.to_string(), Json::from(1e3 * h.sum())))
    .collect();

    // Certificate overhead, measured after the counter/phase snapshots
    // above so the pivot-regression gate keeps comparing like with like:
    // re-run the hot UAP batch and the monotonicity query certified, and
    // record serialized certificate size plus exact-replay time.
    let certificates: Vec<(String, Json)> = [
        (
            "uap",
            raven::verify_uap_certified(&hot, Method::Raven, &config).1,
        ),
        (
            "mono",
            raven::verify_monotonicity_certified(&mono, Method::Raven, &config).1,
        ),
    ]
    .into_iter()
    .filter_map(|(name, cert)| {
        let cert = cert?;
        let bytes = cert.to_json().to_string().len();
        let replay_start = Instant::now();
        let replay = raven_check::check_certificate(&cert).expect("bench certificate replays");
        let replay_millis = replay_start.elapsed().as_secs_f64() * 1e3;
        Some((
            name.to_string(),
            Json::obj([
                ("bytes", Json::from(bytes)),
                ("replay_millis", Json::from(replay_millis)),
                ("tier", Json::from(replay.tier.as_str())),
                ("lp_checked", Json::from(replay.lp_checked)),
                ("neurons_checked", Json::from(replay.neurons_checked)),
            ]),
        ))
    })
    .collect();

    // Fleet dispatch round trip, also outside the pivot-gate window: an
    // in-process server with a fleet listener, one in-process worker, and
    // a handful of distinct fleet-eligible queries (distinct eps so none
    // is served from the result cache). Records the certificate-gated
    // dispatch RTT and the remote-vs-local split.
    let fleet = {
        use raven_serve::fleet::{run_worker, WorkerOptions};
        use raven_serve::registry::ModelRegistry;
        use raven_serve::{metrics as serve_m, Server, ServerConfig};
        use std::io::{Read, Write};
        use std::net::TcpStream;
        use std::sync::atomic::{AtomicBool, Ordering};

        static WORKER_STOP: AtomicBool = AtomicBool::new(false);

        let mut registry = ModelRegistry::new();
        registry.add_network("fc-small", model.net.clone());
        let mut worker_registry = ModelRegistry::new();
        worker_registry.add_network("fc-small", model.net.clone());

        let server_config = ServerConfig {
            fleet_addr: Some("127.0.0.1:0".to_string()),
            job_threads: threads,
            // The bench measures dispatch RTT, so dispatch must happen:
            // disable the saturation gate (an idle bench pool would
            // otherwise keep every query local).
            fleet: raven_serve::fleet::FleetConfig {
                when_saturated: false,
                ..raven_serve::fleet::FleetConfig::default()
            },
            ..ServerConfig::default()
        };
        let server = Server::bind(&server_config, registry).expect("bind fleet bench server");
        let addr = server.local_addr().expect("server addr");
        let fleet_addr = server.fleet_addr().expect("fleet addr");
        let shutdown = server.shutdown_handle();
        let server_thread = std::thread::spawn(move || server.run());
        let worker_thread = std::thread::spawn(move || {
            let opts = WorkerOptions {
                connect: fleet_addr.to_string(),
                name: "bench-worker".to_string(),
                registry: worker_registry,
                job_threads: threads,
                reconnect: std::time::Duration::from_millis(100),
                cache_capacity: 64,
                once: true,
            };
            let _ = run_worker(&opts, &WORKER_STOP);
        });

        let (inputs, labels) = uap_batches(&model, 3, 1).swap_remove(0);
        let inputs_json = Json::Arr(
            inputs
                .iter()
                .map(|x| Json::Arr(x.iter().map(|&v| Json::from(v)).collect()))
                .collect(),
        );
        let labels_json = Json::Arr(labels.iter().map(|&l| Json::from(l)).collect());
        let before = (
            serve_m::FLEET_DISPATCH_SECONDS.sum(),
            serve_m::FLEET_REMOTE_SOLVES.get(),
            serve_m::FLEET_LOCAL_FALLBACKS.get(),
        );
        let queries = 4usize;
        let mut rtt_wall_millis = 0.0;
        for i in 0..queries {
            let body = Json::obj([
                ("model", Json::from("fc-small")),
                ("eps", Json::from(0.03 + i as f64 * 1e-4)),
                ("method", Json::from("raven")),
                ("inputs", inputs_json.clone()),
                ("labels", labels_json.clone()),
            ])
            .to_string();
            let rtt_start = Instant::now();
            let mut stream = TcpStream::connect(addr).expect("connect bench server");
            write!(
                stream,
                "POST /v1/verify/uap HTTP/1.1\r\nHost: raven\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .expect("send fleet query");
            let mut response = String::new();
            stream.read_to_string(&mut response).expect("read verdict");
            assert!(
                response.starts_with("HTTP/1.1 200"),
                "fleet bench query failed: {response}"
            );
            rtt_wall_millis += rtt_start.elapsed().as_secs_f64() * 1e3;
        }
        shutdown.shutdown();
        WORKER_STOP.store(true, Ordering::SeqCst);
        server_thread.join().expect("server thread");
        worker_thread.join().expect("worker thread");

        let remote = serve_m::FLEET_REMOTE_SOLVES.get() - before.1;
        let local = serve_m::FLEET_LOCAL_FALLBACKS.get() - before.2;
        let dispatch_millis = 1e3 * (serve_m::FLEET_DISPATCH_SECONDS.sum() - before.0);
        Json::obj([
            ("queries", Json::from(queries)),
            ("remote_solves", Json::from(remote as f64)),
            ("local_fallbacks", Json::from(local as f64)),
            ("dispatch_rtt_millis", Json::from(dispatch_millis)),
            (
                "client_rtt_millis",
                Json::from(rtt_wall_millis / queries as f64),
            ),
        ])
    };

    // Distributed-tracing overhead, also outside the pivot-gate window:
    // the same moderate-ε UAP batch solved with and without a per-request
    // trace context buffering spans. Tracing is observe-only, so the only
    // cost is the per-record buffering — this column keeps it honest.
    let tracing = {
        let (inputs, labels) = uap_batches(&model, 3, 1).swap_remove(0);
        let problem = UapProblem {
            plan: plan.clone(),
            inputs,
            labels,
            eps,
        };
        let reps = 3usize;
        let t_off = Instant::now();
        for _ in 0..reps {
            let _ = verify_uap(&problem, Method::Raven, &config);
        }
        let untraced_millis = t_off.elapsed().as_secs_f64() * 1e3 / reps as f64;
        let mut spans_buffered = 0u64;
        let t_on = Instant::now();
        for _ in 0..reps {
            let ctx = raven_obs::begin_trace(raven_obs::mint_trace_id(), raven_obs::next_span_id());
            raven_obs::set_current_trace(Some(ctx));
            let _ = verify_uap(&problem, Method::Raven, &config);
            raven_obs::set_current_trace(None);
            spans_buffered += raven_obs::end_trace(ctx).records.len() as u64;
        }
        let traced_millis = t_on.elapsed().as_secs_f64() * 1e3 / reps as f64;
        Json::obj([
            ("reps", Json::from(reps)),
            ("untraced_millis", Json::from(untraced_millis)),
            ("traced_millis", Json::from(traced_millis)),
            (
                "overhead_millis",
                Json::from(traced_millis - untraced_millis),
            ),
            (
                "spans_per_run",
                Json::from(spans_buffered as f64 / reps as f64),
            ),
        ])
    };

    let report = Json::obj([
        ("bench", Json::from("obs")),
        (
            "workload",
            Json::obj([
                ("model", Json::from("fc-small/pgd")),
                ("uap_batches", Json::from(2usize)),
                ("k", Json::from(3usize)),
                ("eps", Json::from(eps)),
                ("hot_eps", Json::from(hot_eps)),
                ("hot_k", Json::from(4usize)),
                ("targeted_labels", Json::from(odim)),
                ("mono_queries", Json::from(1usize)),
                ("threads", Json::from(threads)),
            ]),
        ),
        ("wall_millis", Json::from(wall_millis)),
        ("counters", Json::Obj(deltas)),
        ("phase_millis", Json::Obj(phases)),
        ("certificates", Json::Obj(certificates)),
        ("fleet", fleet),
        ("tracing", tracing),
    ]);
    std::fs::write(&out, format!("{report}\n")).expect("write report");
    println!("wrote {out} ({wall_millis:.0} ms workload)");

    if let Some(baseline_path) = check {
        let text = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
        let baseline = Json::parse(&text).expect("baseline parses");
        let base = pivot_total(&baseline);
        let now = pivot_total(&report);
        let limit = base * 1.2;
        println!("pivot check: measured {now:.0} vs baseline {base:.0} (limit {limit:.0})");
        if now > limit {
            eprintln!(
                "FAIL: total pivots regressed by more than 20% \
                 ({now:.0} > {limit:.0}); rerun with --out to refresh the \
                 baseline if the regression is intentional"
            );
            std::process::exit(1);
        }
    }
}
