//! Distributed-tracing tests: trace context over HTTP, tail sampling,
//! the `/v1/traces` surface, and cross-process span stitching.
//!
//! The acceptance properties pinned here:
//! 1. tracing is observe-only — the `result` object is byte-identical
//!    whether the request carried a `traceparent`, was sampled out, or
//!    ran on a differently-threaded server;
//! 2. the tail sampler keeps slow and degraded requests at sample rate 0
//!    while dropping fast boring ones;
//! 3. a fleet-dispatched request comes back as ONE stitched trace: the
//!    worker's spans appear under the server's `fleet_dispatch` span,
//!    `remote:true`, with `worker/`-prefixed thread labels;
//! 4. a span leaked by one job never becomes the parent of the next
//!    job's spans on the reused worker thread.

use raven_json::Json;
use raven_serve::registry::ModelRegistry;
use raven_serve::{Server, ServerConfig, ShutdownHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

/// Starts a server over `models/` on an ephemeral port.
fn start_server(config: ServerConfig) -> (SocketAddr, ShutdownHandle, std::thread::JoinHandle<()>) {
    let registry = ModelRegistry::load_dir(&repo_path("models")).expect("load models dir");
    let server = Server::bind(&config, registry).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let shutdown = server.shutdown_handle();
    let runner = std::thread::spawn(move || server.run());
    (addr, shutdown, runner)
}

/// Minimal HTTP client with optional extra headers: one request, returns
/// `(status, head, raw body)`.
fn request_raw(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    let mut extra = String::new();
    for (k, v) in headers {
        extra.push_str(&format!("{k}: {v}\r\n"));
    }
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: raven\r\nContent-Length: {}\r\n{extra}\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read response");
    let status: u16 = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {text:?}"));
    let (head, raw_body) = text
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_string(), b.to_string()))
        .unwrap_or_default();
    (status, head, raw_body)
}

/// [`request_raw`], with the body parsed as JSON and the head discarded.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, Json) {
    let (status, _, json_body) = request_raw(addr, method, path, &[], body);
    let parsed =
        Json::parse(&json_body).unwrap_or_else(|e| panic!("unparseable body {json_body:?}: {e}"));
    (status, parsed)
}

/// Parses `models/demo_batch.txt` (label then coordinates per line).
fn demo_batch() -> (Vec<Vec<f64>>, Vec<usize>) {
    let text = std::fs::read_to_string(repo_path("models/demo_batch.txt")).expect("batch file");
    let mut inputs = Vec::new();
    let mut labels = Vec::new();
    for raw in text.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        labels.push(parts.next().unwrap().parse().unwrap());
        inputs.push(parts.map(|t| t.parse().unwrap()).collect());
    }
    (inputs, labels)
}

/// Builds a verify-uap request body for the demo batch.
fn uap_body(eps: f64, method: &str, extra: &[(&str, Json)]) -> String {
    let (inputs, labels) = demo_batch();
    let mut fields = vec![
        ("model".to_string(), Json::from("demo")),
        ("eps".to_string(), Json::from(eps)),
        ("method".to_string(), Json::from(method)),
        (
            "inputs".to_string(),
            Json::Arr(inputs.iter().map(|x| Json::num_array(x)).collect()),
        ),
        (
            "labels".to_string(),
            Json::Arr(labels.iter().map(|&l| Json::from(l)).collect()),
        ),
    ];
    for (k, v) in extra {
        fields.push((k.to_string(), v.clone()));
    }
    Json::Obj(fields).to_string()
}

/// The envelope's `trace` metadata block (a sibling of `result`).
fn trace_meta(envelope: &Json) -> &Json {
    envelope
        .get("trace")
        .unwrap_or_else(|| panic!("envelope has no trace field: {envelope}"))
}

/// Fetches `/v1/traces/{id}` as parsed JSONL lines (meta line first).
fn fetch_trace_jsonl(addr: SocketAddr, trace_id: &str) -> Vec<Json> {
    let (status, _, body) = request_raw(addr, "GET", &format!("/v1/traces/{trace_id}"), &[], "");
    assert_eq!(status, 200, "trace {trace_id} not retained: {body}");
    body.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("bad JSONL line {l:?}: {e}")))
        .collect()
}

/// Verdict bytes are byte-identical whether the request is traced with a
/// client-supplied `traceparent`, server-minted, sampled out entirely, or
/// executed on a server with a different thread configuration — and the
/// trace metadata never leaks into the `result` object.
#[test]
fn verdict_bytes_identical_traced_untraced_and_across_threads() {
    let traceparent = "00-000102030405060708090a0b0c0d0e0f-0102030405060708-01";
    let trace_id = "000102030405060708090a0b0c0d0e0f";
    let body = uap_body(0.01, "deeppoly", &[]);

    // Server A: keep every trace, client supplies the trace context.
    let (addr_a, shutdown_a, runner_a) = start_server(ServerConfig::default());
    let (status, head, raw) = request_raw(
        addr_a,
        "POST",
        "/v1/verify/uap",
        &[("traceparent", traceparent)],
        &body,
    );
    assert_eq!(status, 200, "{raw}");
    assert!(
        head.to_ascii_lowercase().contains(trace_id),
        "response must echo the traceparent trace id: {head}"
    );
    let traced = Json::parse(&raw).expect("traced envelope");
    let meta = trace_meta(&traced);
    assert_eq!(meta.get("trace_id").and_then(Json::as_str), Some(trace_id));
    assert_eq!(meta.get("sampled").and_then(Json::as_bool), Some(true));
    let attribution = meta.get("attribution").expect("attribution block");
    assert!(
        ["lp_solves", "simplex_pivots", "lp_refactorizations"]
            .iter()
            .all(|key| attribution.get(key).is_some()),
        "attribution lists the solver counters: {attribution}"
    );
    let result_traced = traced.get("result").expect("result").to_string();
    assert!(
        !result_traced.contains("trace"),
        "trace metadata must stay out of the verdict bytes: {result_traced}"
    );
    shutdown_a.shutdown();
    runner_a.join().expect("server A");

    // Server B: sample rate 0 (trace buffered then dropped), no header.
    let (addr_b, shutdown_b, runner_b) = start_server(ServerConfig {
        trace_sample_rate: 0.0,
        ..ServerConfig::default()
    });
    let (status, unsampled) = request(addr_b, "POST", "/v1/verify/uap", &body);
    assert_eq!(status, 200);
    assert_eq!(
        trace_meta(&unsampled)
            .get("sampled")
            .and_then(Json::as_bool),
        Some(false)
    );
    let result_unsampled = unsampled.get("result").expect("result").to_string();
    shutdown_b.shutdown();
    runner_b.join().expect("server B");

    // Server C: different queue and solver threading.
    let (addr_c, shutdown_c, runner_c) = start_server(ServerConfig {
        workers: 4,
        job_threads: 2,
        ..ServerConfig::default()
    });
    let (status, threaded) = request(addr_c, "POST", "/v1/verify/uap", &body);
    assert_eq!(status, 200);
    let result_threaded = threaded.get("result").expect("result").to_string();
    shutdown_c.shutdown();
    runner_c.join().expect("server C");

    assert_eq!(
        result_traced, result_unsampled,
        "tracing changed the verdict bytes"
    );
    assert_eq!(
        result_traced, result_threaded,
        "threading changed the verdict bytes"
    );
}

/// At sample rate 0 the tail sampler still keeps slow and degraded
/// requests (with the right `keep_reason`) while fast boring ones leave
/// no retained trace, and both export formats render the kept ones.
#[test]
fn tail_sampler_keeps_slow_and_degraded_drops_fast() {
    let (addr, shutdown, runner) = start_server(ServerConfig {
        trace_sample_rate: 0.0,
        trace_slow_ms: 200,
        cache_capacity: 0,
        ..ServerConfig::default()
    });

    // Fast request: buffered, then dropped at the tail.
    let (status, fast) = request(
        addr,
        "POST",
        "/v1/verify/uap",
        &uap_body(0.01, "deeppoly", &[]),
    );
    assert_eq!(status, 200);
    let fast_meta = trace_meta(&fast);
    assert_eq!(
        fast_meta.get("sampled").and_then(Json::as_bool),
        Some(false)
    );
    assert!(fast_meta.get("keep_reason").is_none());
    let fast_id = fast_meta.get("trace_id").and_then(Json::as_str).unwrap();
    let (status, _, _) = request_raw(addr, "GET", &format!("/v1/traces/{fast_id}"), &[], "");
    assert_eq!(status, 404, "dropped trace must not be retained");

    // Slow request (artificial delay past --trace-slow-ms): always kept.
    let slow_body = uap_body(0.02, "deeppoly", &[("delay_millis", Json::from(300usize))]);
    let (status, slow) = request(addr, "POST", "/v1/verify/uap", &slow_body);
    assert_eq!(status, 200);
    let slow_meta = trace_meta(&slow);
    assert_eq!(slow_meta.get("sampled").and_then(Json::as_bool), Some(true));
    assert_eq!(
        slow_meta.get("keep_reason").and_then(Json::as_str),
        Some("slow")
    );
    let slow_id = slow_meta.get("trace_id").and_then(Json::as_str).unwrap();

    // Degraded request: an eps heavy enough that analysis alone cannot
    // settle it, with a pre-solve delay that eats the whole deadline —
    // the precision ladder must degrade; kept regardless of duration.
    let degraded_body = uap_body(
        0.12,
        "raven",
        &[
            ("delay_millis", Json::from(60usize)),
            ("deadline_ms", Json::from(10usize)),
        ],
    );
    let (status, degraded) = request(addr, "POST", "/v1/verify/uap", &degraded_body);
    assert_eq!(status, 200);
    assert_eq!(
        degraded
            .get("result")
            .and_then(|r| r.get("degraded"))
            .and_then(Json::as_bool),
        Some(true),
        "deadline-starved solve must degrade: {degraded}"
    );
    let degraded_meta = trace_meta(&degraded);
    assert_eq!(
        degraded_meta.get("keep_reason").and_then(Json::as_str),
        Some("degraded")
    );
    let degraded_id = degraded_meta
        .get("trace_id")
        .and_then(Json::as_str)
        .unwrap();

    // The listing holds exactly the two kept traces, newest first.
    let (status, listing) = request(addr, "GET", "/v1/traces", "");
    assert_eq!(status, 200);
    assert_eq!(listing.get("count").and_then(Json::as_usize), Some(2));
    let traces = listing.get("traces").and_then(Json::as_array).unwrap();
    assert_eq!(
        traces[0].get("trace_id").and_then(Json::as_str),
        Some(degraded_id)
    );
    assert_eq!(
        traces[1].get("trace_id").and_then(Json::as_str),
        Some(slow_id)
    );

    // JSONL export: meta line then records, each record tagged with the
    // trace id; the synthesized request root is present.
    let lines = fetch_trace_jsonl(addr, slow_id);
    assert_eq!(lines[0].get("type").and_then(Json::as_str), Some("trace"));
    assert_eq!(
        lines[0].get("keep_reason").and_then(Json::as_str),
        Some("slow")
    );
    assert!(
        lines[1..]
            .iter()
            .all(|l| l.get("trace").and_then(Json::as_str) == Some(slow_id)),
        "every record line carries the trace id"
    );
    assert!(
        lines[1..].iter().any(|l| {
            l.get("name").and_then(Json::as_str) == Some("request")
                && l.get("parent").and_then(Json::as_f64) == Some(0.0)
        }),
        "request root span present: {lines:?}"
    );

    // Chrome trace-event export of the same trace.
    let (status, _, chrome_body) = request_raw(
        addr,
        "GET",
        &format!("/v1/traces/{slow_id}?format=chrome"),
        &[],
        "",
    );
    assert_eq!(status, 200);
    let chrome = Json::parse(&chrome_body).expect("chrome export");
    let events = chrome.get("traceEvents").and_then(Json::as_array).unwrap();
    assert!(
        events
            .iter()
            .any(|e| e.get("ph").and_then(Json::as_str) == Some("X")),
        "chrome export has complete events: {chrome_body}"
    );

    // The sampler decisions are visible on /v1/metrics. The counters are
    // process-wide (other tests in this binary may add to them), so only
    // a floor can be asserted.
    let (status, _, metrics) = request_raw(addr, "GET", "/v1/metrics", &[], "");
    assert_eq!(status, 200);
    let counter = |label: &str| -> f64 {
        metrics
            .lines()
            .find(|l| l.starts_with(&format!("raven_serve_traces_total{{decision=\"{label}\"}}")))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no {label} counter in:\n{metrics}"))
    };
    assert!(counter("sampled") >= 2.0);
    assert!(counter("dropped") >= 1.0);

    shutdown.shutdown();
    runner.join().expect("server");
}

/// A fleet-dispatched request yields ONE stitched trace: the worker's
/// spans come home in the result frame and appear under the server's
/// `fleet_dispatch` span as `remote:true` records with `worker/`-prefixed
/// thread labels — and the remote verdict bytes match a local solve.
#[test]
fn fleet_remote_spans_stitch_into_one_trace() {
    use raven_serve::fleet::{run_worker, WorkerOptions};
    use std::sync::atomic::{AtomicBool, Ordering};

    static WORKER_STOP: AtomicBool = AtomicBool::new(false);

    let registry = ModelRegistry::load_dir(&repo_path("models")).expect("load models dir");
    let worker_registry = ModelRegistry::load_dir(&repo_path("models")).expect("load models dir");
    let config = ServerConfig {
        fleet_addr: Some("127.0.0.1:0".to_string()),
        // The pool is idle here; disable saturation-aware admission so
        // the request actually crosses the fleet wire.
        fleet: raven_serve::fleet::FleetConfig {
            when_saturated: false,
            ..raven_serve::fleet::FleetConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = Server::bind(&config, registry).expect("bind fleet server");
    let addr = server.local_addr().expect("server addr");
    let fleet_addr = server.fleet_addr().expect("fleet addr");
    let shutdown = server.shutdown_handle();
    let server_thread = std::thread::spawn(move || server.run());
    let worker_thread = std::thread::spawn(move || {
        let opts = WorkerOptions {
            connect: fleet_addr.to_string(),
            name: "stitch-worker".to_string(),
            registry: worker_registry,
            job_threads: 1,
            reconnect: Duration::from_millis(100),
            cache_capacity: 64,
            once: true,
        };
        let _ = run_worker(&opts, &WORKER_STOP);
    });

    // Wait until the worker has announced itself to the dispatcher.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let (_, health) = request(addr, "GET", "/v1/healthz", "");
        let connected = health
            .get("fleet")
            .and_then(|f| f.get("workers"))
            .and_then(Json::as_array)
            .is_some_and(|ws| {
                ws.iter()
                    .any(|w| w.get("connected").and_then(Json::as_bool) == Some(true))
            });
        if connected {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "worker never connected: {health}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Fleet-eligible traced query (method `raven`, no delay).
    let traceparent = "00-00000000000000000000000000fee17d-00000000000000ab-01";
    let trace_id = "00000000000000000000000000fee17d";
    let body = uap_body(0.03, "raven", &[]);
    let (status, _, raw) = request_raw(
        addr,
        "POST",
        "/v1/verify/uap",
        &[("traceparent", traceparent)],
        &body,
    );
    assert_eq!(status, 200, "{raw}");
    let envelope = Json::parse(&raw).expect("fleet envelope");
    let result_remote = envelope.get("result").expect("result").to_string();
    let (_, _, metrics) = request_raw(addr, "GET", "/v1/metrics", &[], "");
    assert!(
        metrics
            .lines()
            .any(|l| l.starts_with("raven_serve_fleet_remote_solves_total") && !l.ends_with(" 0")),
        "query was not solved remotely:\n{metrics}"
    );

    // One stitched trace: local dispatch span + remote worker records.
    let lines = fetch_trace_jsonl(addr, trace_id);
    let dispatch = lines[1..]
        .iter()
        .find(|l| l.get("name").and_then(Json::as_str) == Some("fleet_dispatch"))
        .unwrap_or_else(|| panic!("no fleet_dispatch span: {lines:?}"));
    let dispatch_id = dispatch
        .get("id")
        .and_then(Json::as_f64)
        .expect("dispatch id");
    let remote: Vec<&Json> = lines[1..]
        .iter()
        .filter(|l| l.get("remote").and_then(Json::as_bool) == Some(true))
        .collect();
    assert!(
        !remote.is_empty(),
        "no remote records shipped home: {lines:?}"
    );
    assert!(
        remote.iter().all(|l| {
            l.get("thread")
                .and_then(Json::as_str)
                .is_some_and(|t| t.starts_with("stitch-worker/"))
        }),
        "remote threads are worker-prefixed: {remote:?}"
    );
    assert!(
        remote
            .iter()
            .any(|l| l.get("parent").and_then(Json::as_f64) == Some(dispatch_id)),
        "remote roots hang off the dispatch span: {remote:?}"
    );

    // Observe-only across the wire too: local recompute matches.
    shutdown.shutdown();
    WORKER_STOP.store(true, Ordering::SeqCst);
    server_thread.join().expect("server thread");
    worker_thread.join().expect("worker thread");

    let (addr_local, shutdown_local, runner_local) = start_server(ServerConfig::default());
    let (status, local) = request(addr_local, "POST", "/v1/verify/uap", &body);
    assert_eq!(status, 200);
    assert_eq!(
        local.get("result").expect("result").to_string(),
        result_remote,
        "remote and local verdict bytes differ"
    );
    shutdown_local.shutdown();
    runner_local.join().expect("local server");
}

/// A span leaked inside one job (guard forgotten, never dropped) must not
/// become the parent of the next job's spans on the reused worker thread:
/// the queue clears the thread's span stack at every job start.
#[test]
fn leaked_span_does_not_reparent_the_next_job() {
    use raven_serve::queue::{JobMeta, JobQueue, QueueHooks, Supervision};
    use std::sync::{Arc, Mutex};

    raven_obs::set_enabled(true);
    let queue = JobQueue::with_options(8, Supervision::default(), QueueHooks::default());
    let _workers = queue.spawn_workers(1);

    // Job 1 leaks an open span on the worker thread.
    let leak = queue
        .submit(
            1,
            JobMeta::default(),
            Box::new(|| {
                std::mem::forget(raven_obs::span("leaked"));
                Ok(Json::Null)
            }),
        )
        .expect("submit leak job");
    leak.wait_terminal(Duration::from_secs(10))
        .expect("leak job done");

    // Job 2 runs traced on the same (sole) worker thread; its root span
    // must parent to the request context, not to the leaked span.
    let ctx = raven_obs::begin_trace(raven_obs::mint_trace_id(), raven_obs::next_span_id());
    let captured: Arc<Mutex<Vec<(String, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = captured.clone();
    let traced = queue
        .submit(
            2,
            JobMeta {
                trace: Some(ctx),
                ..JobMeta::default()
            },
            Box::new(move || {
                {
                    let _inner = raven_obs::span("inner");
                }
                let data = raven_obs::end_trace(ctx);
                let mut out = sink.lock().expect("capture lock");
                out.extend(data.records.into_iter().map(|r| (r.name, r.parent)));
                Ok(Json::Null)
            }),
        )
        .expect("submit traced job");
    traced
        .wait_terminal(Duration::from_secs(10))
        .expect("traced job done");

    let records = captured.lock().expect("capture lock");
    let (_, parent) = records
        .iter()
        .find(|(name, _)| name == "inner")
        .unwrap_or_else(|| panic!("inner span not recorded: {records:?}"));
    assert_eq!(
        *parent, ctx.parent_span,
        "leaked span from the previous job became the parent"
    );
}
