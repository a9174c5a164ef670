//! Per-request trace lifecycle for the service layer: attribution
//! snapshots, the tail-sampled trace store behind `/v1/traces`, and the
//! JSONL / Chrome trace-event renderers.
//!
//! The flow per traced job: the API mints a [`raven_obs::TraceCtx`] at
//! admission (honoring an incoming `traceparent` header) and hangs it off
//! the job's `JobMeta`; the queue worker installs it on its thread for the
//! job's duration; [`JobTrace`] — opened inside the job closure — snapshots
//! the solver counters at start, drains the trace's ring buffer at end,
//! synthesizes the request root span, asks the [`raven_obs::TailSampler`]
//! whether to keep the trace, and injects the trace id plus the per-job
//! counter deltas into the response envelope as **non-verdict** metadata
//! (a sibling of `result`, like the certificate — verdict bytes never
//! change with tracing on, off, or unsampled).
//!
//! Attribution honesty: the counters are process-wide, so the deltas are
//! exact when one job runs at a time and an upper bound under concurrency
//! (a neighbour job's pivots can land inside this job's window). They are
//! attribution hints for scheduling/debugging, never verdict inputs.

use crate::metrics;
use raven_json::Json;
use raven_obs::{Counter, TailSampler, TraceCtx, TraceOutcome, TraceRecord};
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The counters whose per-job deltas are attributed to each request.
const ATTRIBUTION: [(&str, &Counter); 6] = [
    ("simplex_pivots", &raven_lp::metrics::SIMPLEX_PIVOTS),
    ("lp_dual_pivots", &raven_lp::metrics::LP_DUAL_PIVOTS),
    (
        "lp_refactorizations",
        &raven_lp::metrics::LP_REFACTORIZATIONS,
    ),
    ("milp_nodes", &raven_lp::metrics::MILP_NODES),
    ("lp_solves", &raven_lp::metrics::LP_SOLVES),
    ("cache_hits", &metrics::CACHE_HITS),
];

/// A start-of-job counter snapshot; `deltas` at end-of-job yields the
/// request's work attribution.
#[derive(Clone, Copy, Debug)]
struct AttributionSnapshot {
    values: [u64; ATTRIBUTION.len()],
    fleet_rejected: u64,
}

impl AttributionSnapshot {
    fn take() -> Self {
        let mut values = [0u64; ATTRIBUTION.len()];
        for (slot, (_, counter)) in values.iter_mut().zip(ATTRIBUTION.iter()) {
            *slot = counter.get();
        }
        Self {
            values,
            fleet_rejected: metrics::FLEET_REJECTED.get(),
        }
    }

    fn deltas(&self) -> Vec<(&'static str, u64)> {
        ATTRIBUTION
            .iter()
            .zip(self.values.iter())
            .map(|((name, counter), &before)| (*name, counter.get().saturating_sub(before)))
            .collect()
    }
}

/// One retained (tail-sampled) trace.
#[derive(Clone, Debug)]
pub struct StoredTrace {
    pub trace_id: u128,
    pub job_id: u64,
    pub kind: String,
    pub model: String,
    pub keep_reason: &'static str,
    pub duration_millis: f64,
    pub degraded: bool,
    pub errored: bool,
    pub attribution: Vec<(&'static str, u64)>,
    pub records: Vec<TraceRecord>,
    /// Records lost to the per-trace ring-buffer cap.
    pub dropped: u64,
}

/// Bounded store of recently retained traces, newest first on listing.
pub struct TraceStore {
    sampler: TailSampler,
    capacity: usize,
    inner: Mutex<VecDeque<StoredTrace>>,
}

impl TraceStore {
    pub fn new(sampler: TailSampler, capacity: usize) -> Self {
        Self {
            sampler,
            capacity: capacity.max(1),
            inner: Mutex::new(VecDeque::new()),
        }
    }

    fn push(&self, trace: StoredTrace) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.len() >= self.capacity {
            inner.pop_front();
        }
        inner.push_back(trace);
    }

    /// Summaries of retained traces, newest first.
    pub fn list(&self) -> Json {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let traces: Vec<Json> = inner.iter().rev().map(summary_json).collect();
        Json::obj([
            ("count", Json::from(traces.len())),
            ("traces", Json::Arr(traces)),
        ])
    }

    /// The retained trace with this id, if any (latest wins on reuse).
    pub fn get(&self, trace_id: u128) -> Option<StoredTrace> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.iter().rev().find(|t| t.trace_id == trace_id).cloned()
    }
}

/// Drop-in wrapper around one traced job execution. `begin` reads the
/// context the queue installed on this thread; `finish` drains, samples,
/// stores, and annotates the envelope.
pub(crate) struct JobTrace {
    ctx: TraceCtx,
    start: Instant,
    start_us: u64,
    snapshot: AttributionSnapshot,
}

impl JobTrace {
    /// Starts per-job accounting when a trace context is installed on the
    /// calling thread (i.e. the request is traced); `None` otherwise.
    pub(crate) fn begin() -> Option<Self> {
        let ctx = raven_obs::current_trace()?;
        Some(Self {
            ctx,
            start: Instant::now(),
            start_us: raven_obs::now_us(),
            snapshot: AttributionSnapshot::take(),
        })
    }

    /// Ends the trace: computes the outcome and attribution, lets the tail
    /// sampler decide retention, and injects the trace id + attribution
    /// into a successful envelope as non-verdict metadata.
    pub(crate) fn finish(
        self,
        store: &TraceStore,
        job_id: u64,
        kind: &str,
        model: &str,
        result: &mut Result<Json, String>,
    ) {
        let duration = self.start.elapsed();
        let attribution = self.snapshot.deltas();
        let degraded = result
            .as_ref()
            .ok()
            .and_then(|env| env.get("result"))
            .and_then(|r| r.get("degraded"))
            .and_then(Json::as_bool)
            .unwrap_or(false);
        let outcome = TraceOutcome {
            duration,
            degraded,
            errored: result.is_err(),
            retried: crate::queue::current_attempt() > 1,
            certificate_rejected: metrics::FLEET_REJECTED.get() > self.snapshot.fleet_rejected,
        };
        let mut data = raven_obs::end_trace(self.ctx);
        let keep = store.sampler.keep(self.ctx.trace_id, &outcome);
        if let Some(reason) = keep {
            // Synthesize the request root: every thread-root span recorded
            // while the context was installed named it as parent.
            data.records.push(TraceRecord {
                kind: "span",
                name: "request".to_string(),
                id: self.ctx.parent_span,
                parent: 0,
                thread: "raven-serve".to_string(),
                start_us: self.start_us,
                dur_us: duration.as_micros() as u64,
                remote: false,
                fields: Vec::new(),
            });
            metrics::TRACES_SAMPLED.inc();
            store.push(StoredTrace {
                trace_id: self.ctx.trace_id,
                job_id,
                kind: kind.to_string(),
                model: model.to_string(),
                keep_reason: reason.as_str(),
                duration_millis: duration.as_secs_f64() * 1e3,
                degraded,
                errored: outcome.errored,
                attribution: attribution.clone(),
                records: data.records,
                dropped: data.dropped,
            });
        } else {
            metrics::TRACES_DROPPED.inc();
        }
        if let Ok(Json::Obj(fields)) = result {
            fields.push((
                "trace".to_string(),
                trace_meta_json(&self.ctx, keep, &attribution),
            ));
        }
    }
}

/// The `trace` envelope field: id, sampling decision, and attribution —
/// non-verdict metadata, a sibling of `result`.
fn trace_meta_json(
    ctx: &TraceCtx,
    keep: Option<raven_obs::KeepReason>,
    attribution: &[(&'static str, u64)],
) -> Json {
    let mut fields = vec![
        ("trace_id", Json::from(format!("{:032x}", ctx.trace_id))),
        ("sampled", Json::from(keep.is_some())),
    ];
    if let Some(reason) = keep {
        fields.push(("keep_reason", Json::from(reason.as_str())));
    }
    fields.push(("attribution", attribution_json(attribution)));
    Json::obj(fields)
}

fn attribution_json(attribution: &[(&'static str, u64)]) -> Json {
    Json::Obj(
        attribution
            .iter()
            .map(|(name, delta)| (name.to_string(), Json::from(*delta as f64)))
            .collect(),
    )
}

fn summary_json(trace: &StoredTrace) -> Json {
    Json::obj([
        ("trace_id", Json::from(format!("{:032x}", trace.trace_id))),
        ("job_id", Json::from(trace.job_id as f64)),
        ("kind", Json::from(trace.kind.as_str())),
        ("model", Json::from(trace.model.as_str())),
        ("keep_reason", Json::from(trace.keep_reason)),
        ("duration_millis", Json::from(trace.duration_millis)),
        ("degraded", Json::from(trace.degraded)),
        ("errored", Json::from(trace.errored)),
        ("spans", Json::from(trace.records.len())),
        ("dropped", Json::from(trace.dropped as f64)),
        ("attribution", attribution_json(&trace.attribution)),
    ])
}

/// Serializes buffered records for a fleet result frame.
pub(crate) fn records_to_json(records: &[TraceRecord]) -> Json {
    Json::Arr(records.iter().map(record_json).collect())
}

fn record_json(rec: &TraceRecord) -> Json {
    let mut fields = vec![
        ("type", Json::from(rec.kind)),
        ("name", Json::from(rec.name.as_str())),
        ("id", Json::from(rec.id as f64)),
        ("parent", Json::from(rec.parent as f64)),
        ("thread", Json::from(rec.thread.as_str())),
        ("start_us", Json::from(rec.start_us as f64)),
        ("dur_us", Json::from(rec.dur_us as f64)),
        ("remote", Json::from(rec.remote)),
    ];
    if !rec.fields.is_empty() {
        fields.push((
            "fields",
            Json::Obj(
                rec.fields
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::from(v.as_str())))
                    .collect(),
            ),
        ));
    }
    Json::obj(fields)
}

/// Stitches records shipped home in a fleet result frame into the live
/// trace buffer: span ids are re-minted (a worker's id sequence collides
/// with ours), worker-root spans are re-parented under the dispatch span,
/// timestamps are rebased onto the dispatch start, and thread labels are
/// prefixed with the worker name. Returns how many records were stitched.
pub(crate) fn stitch_remote_records(
    ctx: TraceCtx,
    worker: &str,
    dispatch_span: u64,
    base_us: u64,
    spans: &Json,
) -> usize {
    let Json::Arr(items) = spans else {
        return 0;
    };
    // First pass: re-mint every remote span id.
    let mut id_map = std::collections::HashMap::new();
    for item in items {
        if let Some(id) = item.get("id").and_then(Json::as_f64) {
            let id = id as u64;
            if id != 0 {
                id_map.entry(id).or_insert_with(raven_obs::next_span_id);
            }
        }
    }
    let effective_root = if dispatch_span != 0 {
        dispatch_span
    } else {
        ctx.parent_span
    };
    let mut stitched = 0usize;
    for item in items {
        let Some(name) = item.get("name").and_then(Json::as_str) else {
            continue;
        };
        let num = |key: &str| item.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let kind = match item.get("type").and_then(Json::as_str) {
            Some("event") => "event",
            _ => "span",
        };
        let parent = num("parent");
        let fields = match item.get("fields") {
            Some(Json::Obj(kvs)) => kvs
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        v.as_str()
                            .map(str::to_string)
                            .unwrap_or_else(|| v.to_string()),
                    )
                })
                .collect(),
            _ => Vec::new(),
        };
        raven_obs::record_into(
            ctx,
            TraceRecord {
                kind,
                name: name.to_string(),
                id: id_map.get(&num("id")).copied().unwrap_or(0),
                // A worker-root record hangs under the dispatch span; an
                // interior one follows its (re-minted) remote parent.
                parent: id_map.get(&parent).copied().unwrap_or(effective_root),
                thread: format!(
                    "{worker}/{}",
                    item.get("thread").and_then(Json::as_str).unwrap_or("?")
                ),
                start_us: base_us.saturating_add(num("start_us")),
                dur_us: num("dur_us"),
                remote: true,
                fields,
            },
        );
        stitched += 1;
    }
    if stitched > 0 {
        metrics::TRACES_REMOTE_SPANS.add(stitched as u64);
    }
    stitched
}

/// Renders a stored trace as native JSONL: one meta line, then one line
/// per record — the same record shape the process-wide sink emits, so
/// `scripts/trace2folded.rs` folds it directly.
pub(crate) fn render_jsonl(trace: &StoredTrace) -> String {
    let mut out = String::with_capacity(256 + trace.records.len() * 128);
    let meta = Json::obj([
        ("type", Json::from("trace")),
        ("trace_id", Json::from(format!("{:032x}", trace.trace_id))),
        ("job_id", Json::from(trace.job_id as f64)),
        ("kind", Json::from(trace.kind.as_str())),
        ("model", Json::from(trace.model.as_str())),
        ("keep_reason", Json::from(trace.keep_reason)),
        ("duration_millis", Json::from(trace.duration_millis)),
        ("dropped", Json::from(trace.dropped as f64)),
        ("attribution", attribution_json(&trace.attribution)),
    ]);
    out.push_str(&meta.to_string());
    out.push('\n');
    let trace_hex = format!("{:032x}", trace.trace_id);
    for rec in &trace.records {
        let mut line = record_json(rec);
        if let Json::Obj(fields) = &mut line {
            fields.push(("trace".to_string(), Json::from(trace_hex.as_str())));
        }
        out.push_str(&line.to_string());
        out.push('\n');
    }
    out
}

/// Renders a stored trace in the Chrome trace-event format (load it in
/// `chrome://tracing` or Perfetto): complete (`X`) events for spans,
/// instant (`i`) events for trace events, and `thread_name` metadata per
/// distinct thread label (remote threads keep their `worker/` prefix).
pub(crate) fn render_chrome(trace: &StoredTrace) -> Json {
    let mut events: Vec<Json> = Vec::new();
    let mut labels: Vec<String> = Vec::new();
    let tid = |thread: &str, labels: &mut Vec<String>| -> usize {
        match labels.iter().position(|t| t == thread) {
            Some(i) => i,
            None => {
                labels.push(thread.to_string());
                labels.len() - 1
            }
        }
    };
    for rec in &trace.records {
        let t = tid(&rec.thread, &mut labels);
        let mut fields = vec![
            ("name", Json::from(rec.name.as_str())),
            (
                "cat",
                Json::from(if rec.remote { "remote" } else { "local" }),
            ),
            ("ph", Json::from(if rec.kind == "span" { "X" } else { "i" })),
            ("ts", Json::from(rec.start_us as f64)),
            ("pid", Json::from(1.0)),
            ("tid", Json::from(t as f64)),
        ];
        if rec.kind == "span" {
            fields.push(("dur", Json::from(rec.dur_us as f64)));
        } else {
            fields.push(("s", Json::from("t")));
        }
        let mut args: Vec<(String, Json)> = vec![
            ("id".to_string(), Json::from(rec.id as f64)),
            ("parent".to_string(), Json::from(rec.parent as f64)),
        ];
        for (k, v) in &rec.fields {
            args.push((k.clone(), Json::from(v.as_str())));
        }
        fields.push(("args", Json::Obj(args)));
        events.push(Json::obj(fields));
    }
    for (i, label) in labels.iter().enumerate() {
        events.push(Json::obj([
            ("name", Json::from("thread_name")),
            ("ph", Json::from("M")),
            ("pid", Json::from(1.0)),
            ("tid", Json::from(i as f64)),
            ("args", Json::obj([("name", Json::from(label.as_str()))])),
        ]));
    }
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::from("ms")),
    ])
}

/// Parses the `{trace_slow_ms, trace_sample_rate}` server knobs into the
/// sampler handed to [`TraceStore::new`].
pub fn sampler_from(slow_ms: u64, sample_rate: f64) -> TailSampler {
    TailSampler {
        slow: Duration::from_millis(slow_ms),
        sample_rate: sample_rate.clamp(0.0, 1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_record(name: &str, id: u64, parent: u64) -> TraceRecord {
        TraceRecord {
            kind: "span",
            name: name.to_string(),
            id,
            parent,
            thread: "t0".to_string(),
            start_us: 10,
            dur_us: 5,
            remote: false,
            fields: Vec::new(),
        }
    }

    fn stored(trace_id: u128) -> StoredTrace {
        StoredTrace {
            trace_id,
            job_id: 1,
            kind: "uap".to_string(),
            model: "demo".to_string(),
            keep_reason: "slow",
            duration_millis: 12.5,
            degraded: false,
            errored: false,
            attribution: vec![("simplex_pivots", 42)],
            records: vec![span_record("request", 7, 0), span_record("solve", 8, 7)],
            dropped: 0,
        }
    }

    #[test]
    fn store_is_bounded_and_lists_newest_first() {
        let store = TraceStore::new(sampler_from(500, 1.0), 2);
        store.push(stored(1));
        store.push(stored(2));
        store.push(stored(3));
        let listing = store.list();
        assert_eq!(listing.get("count").and_then(Json::as_f64), Some(2.0));
        let Some(Json::Arr(traces)) = listing.get("traces") else {
            panic!("traces array");
        };
        assert_eq!(
            traces[0].get("trace_id").and_then(Json::as_str),
            Some(format!("{:032x}", 3u128).as_str())
        );
        assert!(store.get(1).is_none(), "evicted");
        assert!(store.get(3).is_some());
    }

    #[test]
    fn jsonl_lines_parse_and_carry_the_trace_id() {
        let text = render_jsonl(&stored(0xabcd));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let meta = Json::parse(lines[0]).expect("meta parses");
        assert_eq!(meta.get("type").and_then(Json::as_str), Some("trace"));
        for line in &lines[1..] {
            let rec = Json::parse(line).expect("record parses");
            assert_eq!(rec.get("type").and_then(Json::as_str), Some("span"));
            assert_eq!(
                rec.get("trace").and_then(Json::as_str),
                Some(format!("{:032x}", 0xabcdu128).as_str())
            );
        }
    }

    #[test]
    fn chrome_export_has_span_and_metadata_events() {
        let chrome = render_chrome(&stored(9));
        let Some(Json::Arr(events)) = chrome.get("traceEvents") else {
            panic!("traceEvents array");
        };
        // 2 spans + 1 thread_name metadata record.
        assert_eq!(events.len(), 3);
        assert!(events
            .iter()
            .any(|e| e.get("ph").and_then(Json::as_str) == Some("M")));
        assert!(events
            .iter()
            .all(|e| e.get("ph").and_then(Json::as_str) != Some("X") || e.get("dur").is_some()));
    }

    #[test]
    fn stitching_remints_ids_and_reparents_roots() {
        let ctx = raven_obs::begin_trace(55, 3);
        let frame = Json::Arr(vec![
            Json::obj([
                ("type", Json::from("span")),
                ("name", Json::from("solve")),
                ("id", Json::from(2.0)),
                ("parent", Json::from(1.0)),
                ("thread", Json::from("main")),
                ("start_us", Json::from(4.0)),
                ("dur_us", Json::from(6.0)),
            ]),
            Json::obj([
                ("type", Json::from("span")),
                ("name", Json::from("remote_job")),
                ("id", Json::from(1.0)),
                ("parent", Json::from(0.0)),
                ("thread", Json::from("main")),
                ("start_us", Json::from(0.0)),
                ("dur_us", Json::from(9.0)),
            ]),
        ]);
        let stitched = stitch_remote_records(ctx, "w1", 77, 1000, &frame);
        assert_eq!(stitched, 2);
        let data = raven_obs::end_trace(ctx);
        assert_eq!(data.records.len(), 2);
        let root = data
            .records
            .iter()
            .find(|r| r.name == "remote_job")
            .expect("root present");
        let child = data
            .records
            .iter()
            .find(|r| r.name == "solve")
            .expect("child present");
        assert_eq!(root.parent, 77, "worker root hangs under dispatch span");
        assert_eq!(child.parent, root.id, "interior parent remapped");
        assert_ne!(root.id, 1, "ids re-minted");
        assert!(root.remote && child.remote);
        assert_eq!(root.thread, "w1/main");
        assert_eq!(root.start_us, 1000, "timestamps rebased");
    }

    #[test]
    fn attribution_deltas_reflect_counter_movement() {
        let snap = AttributionSnapshot::take();
        metrics::CACHE_HITS.inc();
        let deltas = snap.deltas();
        let cache = deltas
            .iter()
            .find(|(name, _)| *name == "cache_hits")
            .expect("cache_hits tracked");
        assert!(cache.1 >= 1);
    }
}
