//! Service-layer telemetry: queue pressure, latencies, cache efficacy.
//!
//! The queue/cache already keep their own counters for `/v1/healthz`;
//! this module mirrors them into `raven-obs` instruments so one
//! `GET /v1/metrics` scrape covers the whole stack — solver pivots and
//! B&B nodes (`raven_lp_*`), analysis timings (`raven_deeppoly_*`, …),
//! verdict tiers (`raven_core_*`), and the service behavior here
//! (`raven_serve_*`). Everything is observe-only: no metric feeds back
//! into admission, scheduling, or verdicts.

use raven_obs::{Counter, Desc, Gauge, Histogram, MetricRef};

/// Jobs waiting for a worker right now.
pub static QUEUE_DEPTH: Gauge = Gauge::new();
/// Workers currently executing a job.
pub static WORKERS_BUSY: Gauge = Gauge::new();
/// Submissions accepted into the queue.
pub static QUEUE_SUBMITTED: Counter = Counter::new();
/// Submissions rejected with 429 because the queue was full (or draining).
pub static QUEUE_REJECTED: Counter = Counter::new();
/// Seconds a job waited in the queue before a worker picked it up.
pub static WAIT_SECONDS: Histogram = Histogram::new();
/// Seconds a worker spent executing a job (verification + envelope).
pub static SERVICE_SECONDS: Histogram = Histogram::new();
/// Verdict-cache lookups answered from the cache.
pub static CACHE_HITS: Counter = Counter::new();
/// Verdict-cache lookups that missed.
pub static CACHE_MISSES: Counter = Counter::new();
/// Records appended to the job journal (all record kinds).
pub static JOURNAL_APPENDS: Counter = Counter::new();
/// Journal records decoded during restart replay.
pub static JOURNAL_REPLAYED: Counter = Counter::new();
/// Journal segment compactions performed.
pub static JOURNAL_COMPACTIONS: Counter = Counter::new();
/// Non-terminal jobs re-enqueued by restart recovery.
pub static RECOVERED_JOBS: Counter = Counter::new();
/// Jobs quarantined as poison (crashed the process repeatedly).
pub static QUARANTINED_JOBS: Counter = Counter::new();
/// Wedged jobs cancelled by the watchdog past deadline + grace.
pub static WATCHDOG_KILLS: Counter = Counter::new();
/// Dead worker threads respawned by the watchdog.
pub static WORKER_RESTARTS: Counter = Counter::new();
/// Panicked job attempts re-enqueued for retry.
pub static JOB_RETRIES: Counter = Counter::new();
/// Submissions answered from a previous job via Idempotency-Key.
pub static IDEMPOTENT_HITS: Counter = Counter::new();
/// 1 when the journal replayed a clean-shutdown marker at startup (the
/// fast path: no crash signatures possible), 0 otherwise.
pub static JOURNAL_CLEAN_SHUTDOWN: Gauge = Gauge::new();
/// Serialized size (bytes) of each emitted proof certificate.
pub static CERTIFICATE_BYTES: Histogram = Histogram::new();
/// Milliseconds the exact-arithmetic spot-check replay took per
/// certificate.
pub static REPLAY_MILLIS: Histogram = Histogram::new();
/// Emitted certificates the in-process spot check rejected. Any non-zero
/// value is a solver/emitter bug worth alerting on.
pub static SPOT_CHECK_FAILURES: Counter = Counter::new();
/// Spot-check failures answered by a strict-mode local recompute instead
/// of serving the unverifiable response.
pub static STRICT_RECOMPUTES: Counter = Counter::new();
/// Fleet workers currently connected and not quarantined.
pub static FLEET_WORKERS: Gauge = Gauge::new();
/// Jobs shipped to a fleet worker (one per dispatch attempt).
pub static FLEET_DISPATCHES: Counter = Counter::new();
/// Remote results accepted after their certificate replayed cleanly and
/// the replayed bound implied the claimed verdict.
pub static FLEET_ACCEPTED: Counter = Counter::new();
/// Remote results rejected by the certificate gate (replay failure,
/// spec mismatch, or a bound that does not imply the claimed verdict).
pub static FLEET_REJECTED: Counter = Counter::new();
/// Dispatch attempts that timed out waiting for the worker's reply.
pub static FLEET_TIMEOUTS: Counter = Counter::new();
/// Dispatch attempts that died on a socket error or mid-frame disconnect.
pub static FLEET_DISCONNECTS: Counter = Counter::new();
/// Workers quarantined after repeated certificate rejections.
pub static FLEET_QUARANTINED_WORKERS: Counter = Counter::new();
/// Jobs that exhausted their remote attempts and ran on the local pool.
pub static FLEET_LOCAL_FALLBACKS: Counter = Counter::new();
/// Jobs whose served verdict came from an accepted remote result.
pub static FLEET_REMOTE_SOLVES: Counter = Counter::new();
/// Seconds per dispatch round trip (ship job, receive + gate the reply).
pub static FLEET_DISPATCH_SECONDS: Histogram = Histogram::new();
/// Fleet-eligible jobs solved locally without a dispatch attempt: the
/// local pool was idle (saturation-aware admission declined to dispatch)
/// or no idle worker with the model could be claimed.
pub static FLEET_KEPT_LOCAL: Counter = Counter::new();
/// Traces retained by the tail sampler (slow/degraded/errored/sampled).
pub static TRACES_SAMPLED: Counter = Counter::new();
/// Traces discarded by the tail sampler (boring and below the rate).
pub static TRACES_DROPPED: Counter = Counter::new();
/// Remote worker spans stitched into local traces from result frames.
pub static TRACES_REMOTE_SPANS: Counter = Counter::new();

/// Exposition table for the service layer, in stable scrape order.
pub static DESCS: [Desc; 36] = [
    Desc {
        name: "raven_serve_queue_depth",
        help: "Jobs waiting for a worker.",
        labels: "",
        metric: MetricRef::Gauge(&QUEUE_DEPTH),
    },
    Desc {
        name: "raven_serve_workers_busy",
        help: "Workers currently executing a job.",
        labels: "",
        metric: MetricRef::Gauge(&WORKERS_BUSY),
    },
    Desc {
        name: "raven_serve_queue_submitted_total",
        help: "Submissions accepted into the queue.",
        labels: "",
        metric: MetricRef::Counter(&QUEUE_SUBMITTED),
    },
    Desc {
        name: "raven_serve_queue_rejected_total",
        help: "Submissions rejected with 429 (queue full or draining).",
        labels: "",
        metric: MetricRef::Counter(&QUEUE_REJECTED),
    },
    Desc {
        name: "raven_serve_wait_seconds",
        help: "Seconds jobs waited in the queue before execution.",
        labels: "",
        metric: MetricRef::Histogram(&WAIT_SECONDS),
    },
    Desc {
        name: "raven_serve_service_seconds",
        help: "Seconds workers spent executing jobs.",
        labels: "",
        metric: MetricRef::Histogram(&SERVICE_SECONDS),
    },
    Desc {
        name: "raven_serve_cache_hits_total",
        help: "Verdict-cache lookups answered from the cache.",
        labels: "",
        metric: MetricRef::Counter(&CACHE_HITS),
    },
    Desc {
        name: "raven_serve_cache_misses_total",
        help: "Verdict-cache lookups that missed.",
        labels: "",
        metric: MetricRef::Counter(&CACHE_MISSES),
    },
    Desc {
        name: "raven_serve_journal_appends_total",
        help: "Records appended to the job journal.",
        labels: "",
        metric: MetricRef::Counter(&JOURNAL_APPENDS),
    },
    Desc {
        name: "raven_serve_journal_replayed_total",
        help: "Journal records decoded during restart replay.",
        labels: "",
        metric: MetricRef::Counter(&JOURNAL_REPLAYED),
    },
    Desc {
        name: "raven_serve_journal_compactions_total",
        help: "Journal segment compactions performed.",
        labels: "",
        metric: MetricRef::Counter(&JOURNAL_COMPACTIONS),
    },
    Desc {
        name: "raven_serve_recovered_jobs_total",
        help: "Non-terminal jobs re-enqueued by restart recovery.",
        labels: "",
        metric: MetricRef::Counter(&RECOVERED_JOBS),
    },
    Desc {
        name: "raven_serve_quarantined_jobs_total",
        help: "Jobs quarantined as poison after repeated process crashes.",
        labels: "",
        metric: MetricRef::Counter(&QUARANTINED_JOBS),
    },
    Desc {
        name: "raven_serve_watchdog_kills_total",
        help: "Wedged jobs cancelled by the watchdog past deadline + grace.",
        labels: "",
        metric: MetricRef::Counter(&WATCHDOG_KILLS),
    },
    Desc {
        name: "raven_serve_worker_restarts_total",
        help: "Dead worker threads respawned by the watchdog.",
        labels: "",
        metric: MetricRef::Counter(&WORKER_RESTARTS),
    },
    Desc {
        name: "raven_serve_job_retries_total",
        help: "Panicked job attempts re-enqueued for retry.",
        labels: "",
        metric: MetricRef::Counter(&JOB_RETRIES),
    },
    Desc {
        name: "raven_serve_idempotent_hits_total",
        help: "Submissions answered from a previous job via Idempotency-Key.",
        labels: "",
        metric: MetricRef::Counter(&IDEMPOTENT_HITS),
    },
    Desc {
        name: "raven_serve_journal_clean_shutdown",
        help: "1 when startup replayed a clean-shutdown marker, else 0.",
        labels: "",
        metric: MetricRef::Gauge(&JOURNAL_CLEAN_SHUTDOWN),
    },
    Desc {
        name: "raven_check_certificate_bytes",
        help: "Serialized size in bytes of each emitted proof certificate.",
        labels: "",
        metric: MetricRef::Histogram(&CERTIFICATE_BYTES),
    },
    Desc {
        name: "raven_check_replay_millis",
        help: "Milliseconds per exact-arithmetic certificate spot check.",
        labels: "",
        metric: MetricRef::Histogram(&REPLAY_MILLIS),
    },
    Desc {
        name: "raven_serve_spot_check_failures_total",
        help: "Emitted certificates rejected by the in-process spot check.",
        labels: "",
        metric: MetricRef::Counter(&SPOT_CHECK_FAILURES),
    },
    Desc {
        name: "raven_serve_strict_recomputes_total",
        help: "Spot-check failures answered by a strict-mode recompute.",
        labels: "",
        metric: MetricRef::Counter(&STRICT_RECOMPUTES),
    },
    Desc {
        name: "raven_serve_fleet_workers",
        help: "Fleet workers currently connected and not quarantined.",
        labels: "",
        metric: MetricRef::Gauge(&FLEET_WORKERS),
    },
    Desc {
        name: "raven_serve_fleet_dispatches_total",
        help: "Jobs shipped to a fleet worker (one per dispatch attempt).",
        labels: "",
        metric: MetricRef::Counter(&FLEET_DISPATCHES),
    },
    Desc {
        name: "raven_serve_fleet_accepted_total",
        help: "Remote results accepted after certificate replay.",
        labels: "",
        metric: MetricRef::Counter(&FLEET_ACCEPTED),
    },
    Desc {
        name: "raven_serve_fleet_rejected_total",
        help: "Remote results rejected by the certificate gate.",
        labels: "",
        metric: MetricRef::Counter(&FLEET_REJECTED),
    },
    Desc {
        name: "raven_serve_fleet_timeouts_total",
        help: "Dispatch attempts that timed out awaiting the reply.",
        labels: "",
        metric: MetricRef::Counter(&FLEET_TIMEOUTS),
    },
    Desc {
        name: "raven_serve_fleet_disconnects_total",
        help: "Dispatch attempts lost to socket errors or disconnects.",
        labels: "",
        metric: MetricRef::Counter(&FLEET_DISCONNECTS),
    },
    Desc {
        name: "raven_serve_fleet_quarantined_workers_total",
        help: "Workers quarantined after repeated certificate rejections.",
        labels: "",
        metric: MetricRef::Counter(&FLEET_QUARANTINED_WORKERS),
    },
    Desc {
        name: "raven_serve_fleet_local_fallbacks_total",
        help: "Jobs that exhausted remote attempts and ran locally.",
        labels: "",
        metric: MetricRef::Counter(&FLEET_LOCAL_FALLBACKS),
    },
    Desc {
        name: "raven_serve_fleet_remote_solves_total",
        help: "Jobs whose served verdict came from an accepted remote result.",
        labels: "",
        metric: MetricRef::Counter(&FLEET_REMOTE_SOLVES),
    },
    Desc {
        name: "raven_serve_fleet_dispatch_seconds",
        help: "Seconds per fleet dispatch round trip.",
        labels: "",
        metric: MetricRef::Histogram(&FLEET_DISPATCH_SECONDS),
    },
    Desc {
        name: "raven_serve_fleet_kept_local_total",
        help: "Fleet-eligible jobs solved locally without a dispatch attempt.",
        labels: "",
        metric: MetricRef::Counter(&FLEET_KEPT_LOCAL),
    },
    Desc {
        name: "raven_serve_traces_total",
        help: "Tail-sampler decisions on finished request traces.",
        labels: r#"decision="sampled""#,
        metric: MetricRef::Counter(&TRACES_SAMPLED),
    },
    Desc {
        name: "raven_serve_traces_total",
        help: "Tail-sampler decisions on finished request traces.",
        labels: r#"decision="dropped""#,
        metric: MetricRef::Counter(&TRACES_DROPPED),
    },
    Desc {
        name: "raven_serve_traces_remote_spans_total",
        help: "Remote worker spans stitched into local traces.",
        labels: "",
        metric: MetricRef::Counter(&TRACES_REMOTE_SPANS),
    },
];
