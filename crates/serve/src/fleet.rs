//! Fleet dispatch: ship verification jobs to untrusted worker processes
//! and accept their answers only after replaying their proof certificates.
//!
//! Branch-and-bound verification is embarrassingly parallel across
//! properties and labels, so the obvious scaling move is fanning jobs out
//! to external `raven_worker` processes. Those processes are *untrusted*:
//! they may crash, stall, disconnect mid-frame, or — the interesting case
//! — lie. The server therefore never takes a remote verdict at face
//! value. Every remote result must arrive with a proof certificate, the
//! server replays that certificate in-process with `raven_check`'s exact
//! dyadic-rational checker, and the result is served only when
//!
//! 1. the replay accepts (the duals/rays/relaxation lines really do
//!    establish the claimed bound), and
//! 2. the replayed bound *implies* the claimed verdict fields
//!    (`verified`, `worst_case_hamming`, `certified_change`, …), and
//! 3. the envelope matches the job the server actually sent (property,
//!    model content hash, k, ε, feature, τ, direction, tier, degraded).
//!
//! On rejection, timeout, or disconnect the job is retried with
//! exponential backoff on another worker and finally falls back to the
//! local worker pool — so the verdict bytes served to clients are
//! identical with or without a fleet attached.
//!
//! ## Wire format
//!
//! Frames reuse the journal's framing over a plain `std::net` TCP stream:
//!
//! ```text
//! [u32 LE payload length][u64 LE FNV-1a of payload][JSON payload]
//! ```
//!
//! The conversation is strictly request/response after a one-frame
//! handshake:
//!
//! * worker → server  `{"t":"hello","worker":name,"models":{name:hash}}`
//! * server → worker  `{"t":"welcome"}`
//! * server → worker  `{"t":"job","seq":n,"property":…,"body":…,
//!   "model":…,"model_hash":…,"deadline_ms":…,"trace_id":…}`
//! * worker → server  `{"t":"result","seq":n,"envelope":…,
//!   "certificate":…,"spans":[…]}` or `{"t":"error","seq":n,"error":…}`
//!
//! Workers solve whole jobs only: a job frame carrying `shards > 1` (sent
//! by servers that split a job's input region) is answered with an error
//! frame, and such a server falls back to a local solve.
//!
//! `trace_id` (hex) rides along when the dispatching request is traced;
//! the worker buffers its spans under that id (timestamps relative to job
//! receipt) and ships them back in `spans`, where the server rebases them
//! onto its own clock and stitches them under the dispatch span. Both
//! fields are optional and ignored by peers that don't understand them —
//! tracing never changes verdict bytes.
//!
//! ## Reputation
//!
//! A per-worker ledger (keyed by the worker's *name* from its hello, so
//! reconnecting does not launder strikes) counts certificate rejections.
//! At `reject_strikes` rejections the worker is quarantined for
//! `probation`: no jobs are dispatched to it until the window expires,
//! after which one accepted certificate clears its strikes (mirroring the
//! two-crash job quarantine from the journal). Timeouts and disconnects
//! never strike — slowness is not dishonesty.
//!
//! ## Residual trust
//!
//! The checker replays the LP *solution* evidence, not the LP *encoding*:
//! a worker that fabricates an easier LP (wrong rows for the network)
//! with a valid proof of *that* LP would pass the gate. Closing this —
//! replaying the encoding from the model hash — is the open checker item
//! in ROADMAP.md. The gate still pins everything the certificate can
//! express, which defeats tampered duals, flipped verdicts, and any
//! claimed bound tighter than the evidence.

use crate::journal::{Journal, Record};
use crate::metrics;
use crate::registry::ModelRegistry;
use raven_json::Json;
use raven_nn::fnv1a64;
use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Hard cap on one frame's payload: a certificate for a large MILP run is
/// hundreds of KB; 256 MiB leaves three orders of magnitude of headroom
/// while still bounding a hostile length header.
pub const MAX_FRAME_BYTES: usize = 256 * 1024 * 1024;

/// Cap on trace records a worker ships home per job: observability must
/// not balloon result frames (records past the cap are simply dropped —
/// the trace buffer itself is already ring-bounded).
const MAX_SHIPPED_SPANS: usize = 512;

/// Fleet tunables (server side).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Socket-level I/O patience per dispatch round trip, on top of the
    /// job's own solve deadline (`--fleet-timeout-ms`).
    pub io_timeout: Duration,
    /// Quarantine length after repeated certificate rejections
    /// (`--worker-probation-ms`).
    pub probation: Duration,
    /// Certificate rejections before a worker is quarantined.
    pub reject_strikes: u32,
    /// Remote attempts (distinct workers preferred) before local fallback.
    pub dispatch_attempts: u32,
    /// First retry backoff; doubles per attempt.
    pub backoff_base: Duration,
    /// Saturation-aware admission (`--fleet-when-saturated`): dispatch
    /// remotely only when the local pool is saturated (all workers busy or
    /// jobs queued). Off means always prefer remote, as before.
    pub when_saturated: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            io_timeout: Duration::from_secs(10),
            probation: Duration::from_secs(60),
            reject_strikes: 2,
            dispatch_attempts: 3,
            backoff_base: Duration::from_millis(100),
            when_saturated: true,
        }
    }
}

/// Why a frame read failed.
#[derive(Debug)]
pub enum FrameError {
    /// The deadline passed with no complete frame.
    Timeout,
    /// The peer closed the stream (possibly mid-frame).
    Disconnected,
    /// The stop flag was raised while waiting.
    Stopped,
    /// Length overflow, checksum mismatch, or unparseable payload.
    Corrupt(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Timeout => write!(f, "timed out waiting for a frame"),
            FrameError::Disconnected => write!(f, "peer disconnected"),
            FrameError::Stopped => write!(f, "stopped while waiting for a frame"),
            FrameError::Corrupt(why) => write!(f, "corrupt frame: {why}"),
        }
    }
}

/// A framed connection: buffers partial reads so a frame split across
/// packets (or a timeout mid-header) never desynchronizes the stream.
pub struct FrameConn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl FrameConn {
    /// Wraps a connected stream. Read timeouts are managed per call.
    pub fn new(stream: TcpStream) -> FrameConn {
        FrameConn {
            stream,
            buf: Vec::new(),
        }
    }

    /// Writes one frame (length, FNV-1a checksum, JSON payload).
    ///
    /// # Errors
    ///
    /// Propagates socket write errors.
    pub fn write_frame(&mut self, payload: &Json) -> std::io::Result<()> {
        let bytes = payload.to_string().into_bytes();
        let mut out = Vec::with_capacity(12 + bytes.len());
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(&fnv1a64(&bytes).to_le_bytes());
        out.extend_from_slice(&bytes);
        self.stream.write_all(&out)?;
        self.stream.flush()
    }

    /// Reads one complete frame, polling in short slices so `deadline`
    /// and `stop` are honored even while the peer trickles bytes.
    ///
    /// # Errors
    ///
    /// [`FrameError`] — timeout, disconnect, stop, or corruption.
    pub fn read_frame(
        &mut self,
        deadline: Option<Instant>,
        stop: Option<&AtomicBool>,
    ) -> Result<Json, FrameError> {
        loop {
            if let Some(frame) = self.try_decode()? {
                return Ok(frame);
            }
            if stop.is_some_and(|s| s.load(Ordering::SeqCst)) {
                return Err(FrameError::Stopped);
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(FrameError::Timeout);
            }
            let _ = self
                .stream
                .set_read_timeout(Some(Duration::from_millis(200)));
            let mut chunk = [0u8; 64 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(FrameError::Disconnected),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return Err(FrameError::Disconnected),
            }
        }
    }

    /// Decodes one frame from the buffer when a whole one has arrived.
    fn try_decode(&mut self) -> Result<Option<Json>, FrameError> {
        if self.buf.len() < 12 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[..4].try_into().unwrap()) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(FrameError::Corrupt(format!("frame length {len} over cap")));
        }
        if self.buf.len() < 12 + len {
            return Ok(None);
        }
        let crc = u64::from_le_bytes(self.buf[4..12].try_into().unwrap());
        let payload = &self.buf[12..12 + len];
        if fnv1a64(payload) != crc {
            return Err(FrameError::Corrupt("checksum mismatch".to_string()));
        }
        let text = std::str::from_utf8(payload)
            .map_err(|_| FrameError::Corrupt("payload not utf-8".to_string()))?;
        let json =
            Json::parse(text).map_err(|e| FrameError::Corrupt(format!("invalid json: {e}")))?;
        self.buf.drain(..12 + len);
        Ok(Some(json))
    }
}

/// One connected worker process.
struct WorkerConn {
    /// Self-reported name from the hello frame (the reputation key).
    name: String,
    /// Models the worker loaded, name → content hash hex.
    models: HashMap<String, String>,
    /// The framed stream, locked for the duration of one round trip.
    conn: Mutex<FrameConn>,
    /// Claimed by a dispatch in flight.
    busy: AtomicBool,
    /// Next job sequence number on this connection.
    seq: AtomicU64,
}

/// Per-worker reputation and counters, keyed by worker name so a
/// reconnect (or a second connection under the same name) inherits its
/// history instead of laundering it.
#[derive(Debug, Default, Clone)]
pub struct WorkerLedger {
    /// Consecutive certificate rejections since the last accept.
    pub strikes: u32,
    /// Quarantined until this instant (no dispatches while in the past
    /// of this bound).
    quarantined_until: Option<Instant>,
    /// Results accepted after certificate replay.
    pub accepted: u64,
    /// Results rejected by the certificate gate.
    pub rejected: u64,
    /// Dispatches that timed out.
    pub timeouts: u64,
    /// Dispatches lost to socket errors or disconnects.
    pub disconnects: u64,
    /// Times this worker entered quarantine.
    pub quarantines: u64,
    /// Sum of accepted/rejected round-trip times, milliseconds.
    pub rtt_millis_sum: f64,
    /// Round trips in `rtt_millis_sum`.
    pub rtt_count: u64,
}

impl WorkerLedger {
    fn quarantined(&self, now: Instant) -> bool {
        self.quarantined_until.is_some_and(|until| now < until)
    }
}

/// What the server expects a remote result to prove — derived from the
/// parsed spec *before* dispatch, so the gate compares against the
/// server's own reading of the request, never the worker's.
pub(crate) struct Expected {
    /// `"uap"` or `"monotonicity"`.
    pub property: String,
    /// Model content hash (hex) the job must have run against.
    pub model_hash: String,
    /// Whether the client asked for the certificate in the envelope.
    pub want_certificate: bool,
    /// Property-specific fields.
    pub kind: ExpectedKind,
}

/// Property-specific expectations.
pub(crate) enum ExpectedKind {
    /// UAP: execution count and perturbation radius.
    Uap {
        /// Number of executions.
        k: usize,
        /// Perturbation radius.
        eps: f64,
    },
    /// Monotonicity: the constrained feature and its direction.
    Mono {
        /// Perturbation radius.
        eps: f64,
        /// Monotone feature index.
        feature: usize,
        /// Feature shift τ.
        tau: f64,
        /// Non-decreasing (`true`) or non-increasing.
        increasing: bool,
    },
}

/// Everything `dispatch` needs besides the expectation.
pub(crate) struct DispatchCtx<'a> {
    /// Job id (for `RemoteAttempt` journal records).
    pub job_id: u64,
    /// Property name, as in the job body.
    pub property: &'a str,
    /// Raw request body text, forwarded verbatim.
    pub body: &'a str,
    /// Model name the worker should look up.
    pub model: &'a str,
    /// Model content hash (hex), advertised in the job frame.
    pub model_hash: &'a str,
    /// Effective solve deadline shipped to the worker.
    pub deadline_ms: Option<u64>,
    /// Journal for remote-attempt records.
    pub journal: Option<&'a Journal>,
    /// The owning request's trace context. When present, the job frame
    /// carries the trace id (so the worker tags its spans with it) and the
    /// result frame's spans are stitched under this dispatch's span.
    pub trace: Option<raven_obs::TraceCtx>,
}

/// The server-side fleet: a listener workers connect to, the set of live
/// connections, and the reputation ledger.
pub struct Fleet {
    listener: TcpListener,
    config: FleetConfig,
    workers: Mutex<Vec<Arc<WorkerConn>>>,
    ledger: Mutex<HashMap<String, WorkerLedger>>,
}

impl Fleet {
    /// Binds the fleet listener (nonblocking; the acceptor thread polls).
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn bind(addr: &str, config: FleetConfig) -> std::io::Result<Fleet> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Fleet {
            listener,
            config,
            workers: Mutex::new(Vec::new()),
            ledger: Mutex::new(HashMap::new()),
        })
    }

    /// The bound fleet address (read the ephemeral port from here).
    ///
    /// # Errors
    ///
    /// Propagates the OS error (practically infallible).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Spawns the acceptor thread: accepts worker connections, performs
    /// the hello handshake, and registers them for dispatch. Exits when
    /// `stop` is raised.
    pub fn spawn_acceptor(self: &Arc<Fleet>, stop: Arc<AtomicBool>) -> std::thread::JoinHandle<()> {
        let fleet = Arc::clone(self);
        std::thread::Builder::new()
            .name("raven-fleet-accept".to_string())
            .spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    match fleet.listener.accept() {
                        Ok((stream, _)) => fleet.register(stream),
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(5)),
                    }
                }
            })
            .expect("spawn fleet acceptor")
    }

    /// Handshakes one inbound connection and registers the worker.
    fn register(&self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let mut conn = FrameConn::new(stream);
        let deadline = Instant::now() + self.config.io_timeout;
        let hello = match conn.read_frame(Some(deadline), None) {
            Ok(frame) => frame,
            Err(e) => {
                eprintln!("raven-serve: fleet handshake failed: {e}");
                return;
            }
        };
        if hello.get("t").and_then(Json::as_str) != Some("hello") {
            eprintln!("raven-serve: fleet peer sent a non-hello first frame");
            return;
        }
        let Some(name) = hello.get("worker").and_then(Json::as_str) else {
            eprintln!("raven-serve: fleet hello missing worker name");
            return;
        };
        let mut models = HashMap::new();
        if let Some(Json::Obj(fields)) = hello.get("models") {
            for (model, hash) in fields {
                if let Some(hash) = hash.as_str() {
                    models.insert(model.clone(), hash.to_string());
                }
            }
        }
        if conn
            .write_frame(&Json::obj([("t", Json::from("welcome"))]))
            .is_err()
        {
            return;
        }
        let worker = Arc::new(WorkerConn {
            name: name.to_string(),
            models,
            conn: Mutex::new(conn),
            busy: AtomicBool::new(false),
            seq: AtomicU64::new(0),
        });
        self.ledger
            .lock()
            .expect("fleet ledger lock")
            .entry(name.to_string())
            .or_default();
        let mut workers = self.workers.lock().expect("fleet workers lock");
        workers.push(worker);
        metrics::FLEET_WORKERS.set(workers.len() as i64);
        eprintln!("raven-serve: fleet worker {name:?} connected");
    }

    /// Claims an idle, non-quarantined worker that has the model, marking
    /// it busy. Workers whose names appear in `tried` are deprioritized
    /// (retries prefer *another* worker) but allowed when nothing else is
    /// available.
    fn claim(&self, model: &str, model_hash: &str, tried: &[String]) -> Option<Arc<WorkerConn>> {
        let now = Instant::now();
        let ledger = self.ledger.lock().expect("fleet ledger lock");
        let workers = self.workers.lock().expect("fleet workers lock");
        let eligible = |w: &&Arc<WorkerConn>| {
            w.models.get(model).map(String::as_str) == Some(model_hash)
                && !ledger.get(&w.name).is_some_and(|l| l.quarantined(now))
        };
        let fresh = workers
            .iter()
            .filter(eligible)
            .find(|w| !tried.contains(&w.name) && !w.busy.swap(true, Ordering::SeqCst));
        if let Some(w) = fresh {
            return Some(w.clone());
        }
        workers
            .iter()
            .filter(eligible)
            .find(|w| !w.busy.swap(true, Ordering::SeqCst))
            .cloned()
    }

    /// Removes a dead or desynchronized connection from the pool.
    fn drop_worker(&self, worker: &Arc<WorkerConn>) {
        let mut workers = self.workers.lock().expect("fleet workers lock");
        workers.retain(|w| !Arc::ptr_eq(w, worker));
        metrics::FLEET_WORKERS.set(workers.len() as i64);
    }

    /// Records an accepted certificate: strikes clear, quarantine lifts.
    fn ledger_accept(&self, name: &str, rtt: Duration) {
        let mut ledger = self.ledger.lock().expect("fleet ledger lock");
        let entry = ledger.entry(name.to_string()).or_default();
        entry.accepted += 1;
        entry.strikes = 0;
        entry.quarantined_until = None;
        entry.rtt_millis_sum += rtt.as_secs_f64() * 1e3;
        entry.rtt_count += 1;
    }

    /// Records a certificate rejection; quarantines at the strike cap.
    fn ledger_reject(&self, name: &str, rtt: Duration) {
        let mut ledger = self.ledger.lock().expect("fleet ledger lock");
        let entry = ledger.entry(name.to_string()).or_default();
        entry.rejected += 1;
        entry.strikes += 1;
        entry.rtt_millis_sum += rtt.as_secs_f64() * 1e3;
        entry.rtt_count += 1;
        if entry.strikes >= self.config.reject_strikes {
            entry.quarantined_until = Some(Instant::now() + self.config.probation);
            entry.quarantines += 1;
            metrics::FLEET_QUARANTINED_WORKERS.inc();
            eprintln!(
                "raven-serve: fleet worker {name:?} quarantined after {} certificate rejections",
                entry.strikes
            );
        }
    }

    /// Bumps a non-strike failure counter (timeouts/disconnects).
    fn ledger_mishap(&self, name: &str, timeout: bool) {
        let mut ledger = self.ledger.lock().expect("fleet ledger lock");
        let entry = ledger.entry(name.to_string()).or_default();
        if timeout {
            entry.timeouts += 1;
        } else {
            entry.disconnects += 1;
        }
    }

    /// The attached [`FleetConfig`] (the api layer reads the
    /// saturation-aware admission gate from here).
    pub(crate) fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Sleeps the exponential backoff for `exp` completed failures. The
    /// shift and multiply both saturate so a hostile or miscounted retry
    /// counter can never overflow into a panic (or a zero-length sleep).
    fn backoff(&self, exp: u32) {
        let factor = 1u32.checked_shl(exp).unwrap_or(u32::MAX);
        std::thread::sleep(self.config.backoff_base.saturating_mul(factor));
    }

    /// Ships the job to fleet workers until one answer survives the
    /// certificate gate, retrying with exponential backoff on distinct
    /// workers. Returns the accepted envelope, or `None` when the caller
    /// must compute locally. Every call lands in exactly one outcome
    /// counter: remote solve, local fallback (attempts were made, none
    /// survived), or kept local (no idle worker could be claimed).
    /// Journals one `RemoteAttempt` per attempt and a `LocalFallback` when
    /// attempts were made but none succeeded.
    pub(crate) fn dispatch(
        &self,
        ctx: &DispatchCtx<'_>,
        expected: &Expected,
        cancel: &AtomicBool,
    ) -> Option<Json> {
        let mut tried: Vec<String> = Vec::new();
        let mut attempts: u32 = 0;
        // The dispatch span is what the worker's remote spans hang under
        // after stitching (it records into the trace at guard drop; the
        // children reference it by id, so ordering does not matter).
        let dispatch_span = raven_obs::span("fleet_dispatch");
        let outcome = loop {
            if attempts >= self.config.dispatch_attempts {
                break None;
            }
            if attempts > 0 {
                // Exponential backoff between attempts (the previous
                // worker just failed us; give the fleet a beat). Sleeping
                // *before* the claim keeps every worker dispatchable to
                // concurrent jobs while we wait.
                self.backoff((attempts - 1).min(5));
            }
            let Some(worker) = self.claim(ctx.model, &expected.model_hash, &tried) else {
                break None;
            };
            attempts += 1;
            tried.push(worker.name.clone());
            if let Some(journal) = ctx.journal {
                let record = Record::RemoteAttempt {
                    id: ctx.job_id,
                    worker: worker.name.clone(),
                };
                let _ = journal.append(&record, false);
            }
            metrics::FLEET_DISPATCHES.inc();
            let t0 = Instant::now();
            let base_us = raven_obs::now_us();
            let reply = self.round_trip(&worker, ctx, cancel);
            let rtt = t0.elapsed();
            match reply {
                Ok(reply) => {
                    worker.busy.store(false, Ordering::SeqCst);
                    metrics::FLEET_DISPATCH_SECONDS.observe(rtt.as_secs_f64());
                    if let Some(error) = reply.get("error").and_then(Json::as_str) {
                        // A worker-side compute error is not evidence of
                        // dishonesty (the job itself may be at fault):
                        // no strike, try elsewhere.
                        eprintln!(
                            "raven-serve: fleet worker {:?} errored on job {}: {error}",
                            worker.name, ctx.job_id
                        );
                        continue;
                    }
                    match check_remote(expected, &reply) {
                        Ok(envelope) => {
                            metrics::FLEET_ACCEPTED.inc();
                            self.ledger_accept(&worker.name, rtt);
                            // Stitch the worker's spans (shipped in the
                            // result frame, timestamped relative to its
                            // job receipt) into the request's trace.
                            if let (Some(tctx), Some(spans)) = (ctx.trace, reply.get("spans")) {
                                crate::trace::stitch_remote_records(
                                    tctx,
                                    &worker.name,
                                    dispatch_span.id(),
                                    base_us,
                                    spans,
                                );
                            }
                            break Some(envelope);
                        }
                        Err(why) => {
                            metrics::FLEET_REJECTED.inc();
                            eprintln!(
                                "raven-serve: rejected result from fleet worker {:?} \
                                 for job {}: {why}",
                                worker.name, ctx.job_id
                            );
                            self.ledger_reject(&worker.name, rtt);
                            continue;
                        }
                    }
                }
                Err(FrameError::Stopped) => {
                    worker.busy.store(false, Ordering::SeqCst);
                    break None;
                }
                Err(FrameError::Timeout) => {
                    // The connection is desynchronized (a late reply would
                    // poison the next dispatch): drop it. The worker may
                    // reconnect with a clean stream.
                    metrics::FLEET_TIMEOUTS.inc();
                    self.ledger_mishap(&worker.name, true);
                    self.drop_worker(&worker);
                    continue;
                }
                Err(FrameError::Disconnected | FrameError::Corrupt(_)) => {
                    metrics::FLEET_DISCONNECTS.inc();
                    self.ledger_mishap(&worker.name, false);
                    self.drop_worker(&worker);
                    continue;
                }
            }
        };
        drop(dispatch_span);
        if outcome.is_some() {
            metrics::FLEET_REMOTE_SOLVES.inc();
        } else if attempts > 0 {
            metrics::FLEET_LOCAL_FALLBACKS.inc();
            if let Some(journal) = ctx.journal {
                let _ = journal.append(&Record::LocalFallback { id: ctx.job_id }, false);
            }
        } else {
            metrics::FLEET_KEPT_LOCAL.inc();
        }
        outcome
    }

    /// One job/result exchange on a claimed worker connection.
    fn round_trip(
        &self,
        worker: &Arc<WorkerConn>,
        ctx: &DispatchCtx<'_>,
        cancel: &AtomicBool,
    ) -> Result<Json, FrameError> {
        let seq = worker.seq.fetch_add(1, Ordering::SeqCst);
        let mut fields = vec![
            ("t", Json::from("job")),
            ("seq", Json::from(seq as f64)),
            ("property", Json::from(ctx.property)),
            ("model", Json::from(ctx.model)),
            ("model_hash", Json::from(ctx.model_hash)),
            ("body", Json::from(ctx.body)),
        ];
        if let Some(ms) = ctx.deadline_ms {
            fields.push(("deadline_ms", Json::from(ms as f64)));
        }
        if let Some(t) = ctx.trace {
            fields.push(("trace_id", Json::from(format!("{:032x}", t.trace_id))));
        }
        let job = Json::obj(fields);
        let mut conn = worker.conn.lock().expect("fleet conn lock");
        conn.write_frame(&job)
            .map_err(|_| FrameError::Disconnected)?;
        // The worker's solve may legitimately take the whole deadline;
        // the io timeout is patience on top of that.
        let wait = self.config.io_timeout
            + ctx
                .deadline_ms
                .map_or(Duration::ZERO, Duration::from_millis);
        loop {
            let reply = conn.read_frame(Some(Instant::now() + wait), Some(cancel))?;
            if reply.get("t").and_then(Json::as_str) != Some("result")
                && reply.get("t").and_then(Json::as_str) != Some("error")
            {
                return Err(FrameError::Corrupt("unexpected frame type".to_string()));
            }
            // A stale reply (an earlier timed-out seq) would have dropped
            // the connection already; still, skip mismatched sequence
            // numbers defensively.
            if reply.get("seq").and_then(Json::as_f64) == Some(seq as f64) {
                return Ok(reply);
            }
        }
    }

    /// Per-worker counters as Prometheus text (appended to the static
    /// exposition tables).
    pub fn render_prometheus(&self) -> String {
        let ledger = self.ledger.lock().expect("fleet ledger lock");
        if ledger.is_empty() {
            return String::new();
        }
        let mut names: Vec<&String> = ledger.keys().collect();
        names.sort();
        let mut out = String::new();
        let series = [
            ("accepted_total", "counter", "Accepted results per worker."),
            (
                "rejected_total",
                "counter",
                "Gate-rejected results per worker.",
            ),
            ("timeouts_total", "counter", "Dispatch timeouts per worker."),
            (
                "disconnects_total",
                "counter",
                "Dispatch disconnects per worker.",
            ),
            (
                "rtt_millis_sum",
                "gauge",
                "Summed dispatch round-trip milliseconds per worker.",
            ),
            (
                "rtt_count",
                "gauge",
                "Dispatch round trips measured per worker.",
            ),
        ];
        for (suffix, kind, help) in series {
            let full = format!("raven_serve_fleet_worker_{suffix}");
            out.push_str(&format!("# HELP {full} {help}\n# TYPE {full} {kind}\n"));
            for name in &names {
                let l = &ledger[*name];
                let value = match suffix {
                    "accepted_total" => l.accepted as f64,
                    "rejected_total" => l.rejected as f64,
                    "timeouts_total" => l.timeouts as f64,
                    "disconnects_total" => l.disconnects as f64,
                    "rtt_millis_sum" => l.rtt_millis_sum,
                    _ => l.rtt_count as f64,
                };
                out.push_str(&format!("{full}{{worker=\"{name}\"}} {value}\n"));
            }
        }
        out
    }

    /// The `/v1/healthz` fleet block.
    pub fn healthz_json(&self) -> Json {
        let now = Instant::now();
        let connected: Vec<String> = self
            .workers
            .lock()
            .expect("fleet workers lock")
            .iter()
            .map(|w| w.name.clone())
            .collect();
        let ledger = self.ledger.lock().expect("fleet ledger lock");
        let mut names: Vec<&String> = ledger.keys().collect();
        names.sort();
        let workers: Vec<Json> = names
            .iter()
            .map(|name| {
                let l = &ledger[*name];
                let mean_rtt = if l.rtt_count > 0 {
                    l.rtt_millis_sum / l.rtt_count as f64
                } else {
                    0.0
                };
                Json::obj([
                    ("name", Json::from(name.as_str())),
                    ("connected", Json::from(connected.contains(name))),
                    ("quarantined", Json::from(l.quarantined(now))),
                    ("strikes", Json::from(f64::from(l.strikes))),
                    ("accepted", Json::from(l.accepted as f64)),
                    ("rejected", Json::from(l.rejected as f64)),
                    ("timeouts", Json::from(l.timeouts as f64)),
                    ("disconnects", Json::from(l.disconnects as f64)),
                    ("quarantines", Json::from(l.quarantines as f64)),
                    ("mean_rtt_millis", Json::from(mean_rtt)),
                ])
            })
            .collect();
        Json::obj([
            ("workers", Json::Arr(workers)),
            (
                "dispatches",
                Json::from(metrics::FLEET_DISPATCHES.get() as f64),
            ),
            ("accepted", Json::from(metrics::FLEET_ACCEPTED.get() as f64)),
            ("rejected", Json::from(metrics::FLEET_REJECTED.get() as f64)),
            ("timeouts", Json::from(metrics::FLEET_TIMEOUTS.get() as f64)),
            (
                "disconnects",
                Json::from(metrics::FLEET_DISCONNECTS.get() as f64),
            ),
            (
                "remote_solves",
                Json::from(metrics::FLEET_REMOTE_SOLVES.get() as f64),
            ),
            (
                "local_fallbacks",
                Json::from(metrics::FLEET_LOCAL_FALLBACKS.get() as f64),
            ),
            (
                "quarantined_workers",
                Json::from(metrics::FLEET_QUARANTINED_WORKERS.get() as f64),
            ),
            (
                "kept_local",
                Json::from(metrics::FLEET_KEPT_LOCAL.get() as f64),
            ),
        ])
    }
}

fn gate_err(why: impl Into<String>) -> String {
    why.into()
}

/// The certificate gate: accepts a remote result only when its
/// certificate replays cleanly in exact arithmetic AND the replayed
/// evidence implies every verdict field the certificate can express.
/// Returns the envelope to serve.
pub(crate) fn check_remote(expected: &Expected, reply: &Json) -> Result<Json, String> {
    let envelope = reply
        .get("envelope")
        .ok_or_else(|| gate_err("reply has no envelope"))?;
    let cert_json = match reply.get("certificate") {
        Some(Json::Null) | None => return Err(gate_err("reply has no certificate")),
        Some(c) => c,
    };
    // --- envelope cross-checks against the server's own spec ---
    let env_str = |field: &str| envelope.get(field).and_then(Json::as_str);
    if env_str("kind") != Some(expected.property.as_str()) {
        return Err(gate_err("envelope kind does not match the dispatched job"));
    }
    if env_str("model_hash") != Some(expected.model_hash.as_str()) {
        return Err(gate_err("envelope model hash does not match"));
    }
    if envelope.get("cached").and_then(Json::as_bool) != Some(false) {
        return Err(gate_err(
            "remote results must be freshly computed, not cached",
        ));
    }
    let result = envelope
        .get("result")
        .ok_or_else(|| gate_err("envelope has no result"))?;
    let res_f64 = |field: &str| {
        result
            .get(field)
            .and_then(Json::as_f64)
            .ok_or_else(|| gate_err(format!("result missing number field {field:?}")))
    };
    if result.get("property").and_then(Json::as_str) != Some(expected.property.as_str()) {
        return Err(gate_err("result property does not match"));
    }
    let verified = result
        .get("verified")
        .and_then(Json::as_bool)
        .ok_or_else(|| gate_err("result missing bool field \"verified\""))?;
    let tier = result
        .get("tier")
        .and_then(Json::as_str)
        .ok_or_else(|| gate_err("result missing string field \"tier\""))?;
    let degraded = result
        .get("degraded")
        .and_then(Json::as_bool)
        .ok_or_else(|| gate_err("result missing bool field \"degraded\""))?;
    // --- certificate parse + exact replay ---
    let cert = raven_check::Certificate::from_json(cert_json)
        .map_err(|e| gate_err(format!("certificate is malformed: {e}")))?;
    let want_kind = match expected.kind {
        ExpectedKind::Uap { .. } => "uap",
        ExpectedKind::Mono { .. } => "monotonicity",
    };
    if cert.kind != want_kind {
        return Err(gate_err(format!(
            "certificate kind {:?} does not match property {want_kind:?}",
            cert.kind
        )));
    }
    if cert.tier != tier {
        return Err(gate_err(format!(
            "certificate tier {:?} does not match verdict tier {tier:?}",
            cert.tier
        )));
    }
    if cert.degraded != degraded {
        return Err(gate_err("certificate degraded flag does not match verdict"));
    }
    if matches!(tier, "milp" | "lp") && cert.lp.is_none() {
        return Err(gate_err("solver-tier verdict lacks an LP proof"));
    }
    if tier == "analysis" && cert.analysis.is_none() {
        return Err(gate_err("analysis-tier verdict lacks relaxation records"));
    }
    raven_check::check_certificate(&cert)
        .map_err(|e| gate_err(format!("certificate replay rejected: {e}")))?;
    // --- the replayed bound must imply the claimed verdict ---
    match expected.kind {
        ExpectedKind::Uap { k, eps } => {
            if res_f64("k")? != k as f64 {
                return Err(gate_err("result k does not match the dispatched job"));
            }
            if res_f64("eps")? != eps {
                return Err(gate_err("result eps does not match the dispatched job"));
            }
            let wca = res_f64("worst_case_accuracy")?;
            let hamming = res_f64("worst_case_hamming")?;
            let iv = res_f64("individually_verified")?;
            if !(0.0..=k as f64).contains(&iv) {
                return Err(gate_err("individually_verified out of range"));
            }
            if (wca - (k as f64 - hamming) / k as f64).abs() > 1e-9 {
                return Err(gate_err(
                    "worst_case_accuracy inconsistent with worst_case_hamming",
                ));
            }
            if verified != (wca >= 1.0) {
                return Err(gate_err("verified flag inconsistent with accuracy bound"));
            }
            if let Some(lp) = &cert.lp {
                // The spec LP maximizes the misclassified count; the
                // certificate proves optimum ≤ claimed_bound, and the
                // verdict is that very bound under the verifier's clamp —
                // bit for bit, since both come from the one served solve.
                let h_cert = lp.claimed_bound.clamp(0.0, k as f64 - iv);
                if hamming.to_bits() != h_cert.to_bits() {
                    return Err(gate_err(format!(
                        "worst_case_hamming {hamming} is not the certified bound {h_cert}"
                    )));
                }
            } else {
                // Analysis tier: the Hamming bound is exactly the count of
                // unverified executions.
                if (hamming - (k as f64 - iv)).abs() > 1e-9 {
                    return Err(gate_err(
                        "analysis-tier worst_case_hamming must equal k - individually_verified",
                    ));
                }
            }
        }
        ExpectedKind::Mono {
            eps,
            feature,
            tau,
            increasing,
        } => {
            if res_f64("eps")? != eps {
                return Err(gate_err("result eps does not match the dispatched job"));
            }
            if res_f64("feature")? != feature as f64 {
                return Err(gate_err("result feature does not match"));
            }
            if res_f64("tau")? != tau {
                return Err(gate_err("result tau does not match"));
            }
            let want_dir = if increasing {
                "non-decreasing"
            } else {
                "non-increasing"
            };
            if result.get("direction").and_then(Json::as_str) != Some(want_dir) {
                return Err(gate_err("result direction does not match"));
            }
            let change = res_f64("certified_change")?;
            if verified != (change >= 0.0) {
                return Err(gate_err("verified flag inconsistent with certified_change"));
            }
            if let Some(lp) = &cert.lp {
                // The monotonicity LP minimizes the score change; the
                // certificate proves optimum ≥ claimed_bound, and the
                // verdict's certified_change is that very bound.
                if change.to_bits() != lp.claimed_bound.to_bits() {
                    return Err(gate_err(format!(
                        "certified_change {change} is not the certified bound {}",
                        lp.claimed_bound
                    )));
                }
            }
        }
    }
    // --- the envelope's own certificate field must match the gated one ---
    match (expected.want_certificate, envelope.get("certificate")) {
        (true, Some(in_env)) => {
            if in_env.to_string() != cert_json.to_string() {
                return Err(gate_err(
                    "envelope certificate differs from the gated certificate",
                ));
            }
        }
        (true, None) => {
            return Err(gate_err(
                "client asked for a certificate; envelope has none",
            ))
        }
        (false, Some(_)) => {
            return Err(gate_err(
                "envelope carries an unrequested certificate field",
            ))
        }
        (false, None) => {}
    }
    Ok(envelope.clone())
}

/// Options for [`run_worker`] (the `raven_worker` binary's core loop).
pub struct WorkerOptions {
    /// Server fleet address to connect to.
    pub connect: String,
    /// Self-reported worker name (the server's reputation key).
    pub name: String,
    /// Loaded models (must content-hash-match the server's).
    pub registry: ModelRegistry,
    /// `RavenConfig::threads` per job.
    pub job_threads: usize,
    /// Delay between reconnect attempts.
    pub reconnect: Duration,
    /// Exit after the first disconnect instead of reconnecting (tests).
    pub once: bool,
    /// Worker-side result cache capacity (`--cache`; 0 disables). Keyed
    /// exactly like the server's verdict cache, so a job retried on a warm
    /// worker skips the re-solve and re-emits the identical envelope and
    /// certificate.
    pub cache_capacity: usize,
}

/// Runs the worker loop: connect, hello, serve jobs until `stop`.
/// Reconnects with a fixed delay on disconnect unless `once`.
///
/// # Errors
///
/// Returns the *first* connect error only when no connection ever
/// succeeded and `once` is set; otherwise retries forever.
pub fn run_worker(opts: &WorkerOptions, stop: &AtomicBool) -> std::io::Result<()> {
    // The result cache outlives individual connections: a job retried on
    // this worker after a reconnect still hits warm.
    let cache = crate::cache::ResultCache::new(opts.cache_capacity);
    let models: Vec<(String, Json)> = opts
        .registry
        .entries()
        .iter()
        .map(|e| (e.name.clone(), Json::from(e.hash_hex())))
        .collect();
    let hello = Json::obj([
        ("t", Json::from("hello")),
        ("worker", Json::from(opts.name.as_str())),
        (
            "models",
            Json::Obj(models.iter().map(|(n, h)| (n.clone(), h.clone())).collect()),
        ),
    ]);
    loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        let stream = match TcpStream::connect(&opts.connect) {
            Ok(s) => s,
            Err(e) => {
                if opts.once {
                    return Err(e);
                }
                std::thread::sleep(opts.reconnect);
                continue;
            }
        };
        let _ = stream.set_nodelay(true);
        let mut conn = FrameConn::new(stream);
        if conn.write_frame(&hello).is_err() {
            std::thread::sleep(opts.reconnect);
            continue;
        }
        match conn.read_frame(Some(Instant::now() + Duration::from_secs(10)), Some(stop)) {
            Ok(frame) if frame.get("t").and_then(Json::as_str) == Some("welcome") => {}
            Ok(_) | Err(_) => {
                if opts.once {
                    return Ok(());
                }
                std::thread::sleep(opts.reconnect);
                continue;
            }
        }
        eprintln!(
            "raven-worker {} connected to {} ({} models)",
            opts.name,
            opts.connect,
            models.len()
        );
        worker_loop(&mut conn, opts, &cache, stop);
        if opts.once || stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        std::thread::sleep(opts.reconnect);
    }
}

/// Serves jobs on one connection until it drops or `stop` is raised.
fn worker_loop(
    conn: &mut FrameConn,
    opts: &WorkerOptions,
    cache: &crate::cache::ResultCache,
    stop: &AtomicBool,
) {
    loop {
        let job = match conn.read_frame(None, Some(stop)) {
            Ok(frame) => frame,
            Err(_) => return,
        };
        if job.get("t").and_then(Json::as_str) != Some("job") {
            continue;
        }
        let seq = job.get("seq").and_then(Json::as_f64).unwrap_or(0.0);
        // Servers that split a job's perturbation region send `shards > 1`
        // and would merge a sub-box verdict; this worker only solves whole
        // jobs, so it refuses such frames and the server solves locally.
        if job
            .get("shards")
            .and_then(Json::as_f64)
            .is_some_and(|n| n > 1.0)
        {
            let refusal = Json::obj([
                ("t", Json::from("error")),
                ("seq", Json::from(seq)),
                (
                    "error",
                    Json::from("sharded jobs are not supported; send the whole job"),
                ),
            ]);
            if conn.write_frame(&refusal).is_err() {
                return;
            }
            continue;
        }
        let property = job
            .get("property")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        let body = job
            .get("body")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        let deadline_ms = job
            .get("deadline_ms")
            .and_then(Json::as_f64)
            .map(|ms| ms as u64);
        // A traced job frame carries the server's trace id: buffer this
        // job's spans under it (timestamps relative to receipt, so the
        // server can rebase them onto its own clock) and ship them home
        // in the result frame for stitching.
        let trace_ctx = job
            .get("trace_id")
            .and_then(Json::as_str)
            .and_then(|hex| u128::from_str_radix(hex, 16).ok())
            .filter(|id| *id != 0)
            .map(|id| raven_obs::begin_trace(id, 0));
        let receipt_us = raven_obs::now_us();
        raven_obs::reset_thread_spans();
        raven_obs::set_current_trace(trace_ctx);
        let chaos_mode = crate::chaos::take_worker_chaos();
        if matches!(chaos_mode, Some(crate::chaos::WorkerChaos::Stall)) {
            raven_obs::set_current_trace(None);
            if let Some(ctx) = trace_ctx {
                raven_obs::discard_trace(ctx);
            }
            // Byzantine stall: never answer; the server times out and
            // retries elsewhere.
            std::thread::sleep(Duration::from_secs(30));
            return;
        }
        let computed = crate::api::remote_compute(
            &opts.registry,
            opts.job_threads,
            &property,
            body.as_bytes(),
            deadline_ms,
            cache,
            stop,
        );
        raven_obs::set_current_trace(None);
        let spans = trace_ctx.map(|ctx| {
            let data = raven_obs::end_trace(ctx);
            // Rebase onto the job receipt and cap the shipment: the
            // server re-times them against its dispatch start.
            let records: Vec<raven_obs::TraceRecord> = data
                .records
                .into_iter()
                .take(MAX_SHIPPED_SPANS)
                .map(|mut r| {
                    r.start_us = r.start_us.saturating_sub(receipt_us);
                    r
                })
                .collect();
            crate::trace::records_to_json(&records)
        });
        let reply = match computed {
            Ok((mut envelope, certificate)) => {
                let mut certificate = certificate.unwrap_or(Json::Null);
                match chaos_mode {
                    Some(crate::chaos::WorkerChaos::FlipVerdict) => {
                        crate::chaos::byzantine_flip(&mut envelope);
                    }
                    Some(crate::chaos::WorkerChaos::CorruptDuals) => {
                        crate::chaos::byzantine_corrupt_duals(&mut certificate);
                        // Keep the envelope's copy consistent with the
                        // tampered proof, as a competent liar would.
                        if let Json::Obj(fields) = &mut envelope {
                            for (k, v) in fields.iter_mut() {
                                if k == "certificate" {
                                    *v = certificate.clone();
                                }
                            }
                        }
                    }
                    _ => {}
                }
                let mut fields = vec![
                    ("t", Json::from("result")),
                    ("seq", Json::from(seq)),
                    ("envelope", envelope),
                    ("certificate", certificate),
                ];
                if let Some(spans) = spans {
                    fields.push(("spans", spans));
                }
                Json::obj(fields)
            }
            Err(error) => Json::obj([
                ("t", Json::from("error")),
                ("seq", Json::from(seq)),
                ("error", Json::from(error.as_str())),
            ]),
        };
        if matches!(chaos_mode, Some(crate::chaos::WorkerChaos::Disconnect)) {
            // Byzantine mid-frame disconnect: write a torn frame and die.
            let bytes = reply.to_string().into_bytes();
            let mut torn = Vec::new();
            torn.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            torn.extend_from_slice(&fnv1a64(&bytes).to_le_bytes());
            torn.extend_from_slice(&bytes[..bytes.len() / 2]);
            let _ = conn.stream.write_all(&torn);
            let _ = conn.stream.flush();
            return;
        }
        if conn.write_frame(&reply).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raven_lp::{Direction, LinExpr, LpProblem, Sense};

    /// A monotonicity job and a worker reply for it: a valid LP-tier
    /// certificate (min x s.t. 3x ≥ 1 over [0, 1], claimed bound 1/3) and
    /// a verdict whose `certified_change` is `change`.
    fn mono_reply(change: f64) -> (Expected, Json) {
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 1.0);
        p.add_constraint(LinExpr::new().term(3.0, x), Sense::Ge, 1.0);
        p.set_objective(Direction::Minimize, LinExpr::new().term(1.0, x));
        let cert = raven_check::Certificate {
            kind: "monotonicity".to_string(),
            tier: "lp".to_string(),
            degraded: false,
            lp: p.certificate(&p.solve().expect("tiny LP solves")),
            analysis: None,
        };
        let result = Json::obj([
            ("property", Json::from("monotonicity")),
            ("verified", Json::from(change >= 0.0)),
            ("tier", Json::from("lp")),
            ("degraded", Json::from(false)),
            ("eps", Json::from(0.02)),
            ("feature", Json::from(3usize)),
            ("tau", Json::from(0.02)),
            ("direction", Json::from("non-decreasing")),
            ("certified_change", Json::from(change)),
        ]);
        let envelope = Json::obj([
            ("kind", Json::from("monotonicity")),
            ("model_hash", Json::from("abc123")),
            ("cached", Json::from(false)),
            ("result", result),
        ]);
        let expected = Expected {
            property: "monotonicity".to_string(),
            model_hash: "abc123".to_string(),
            want_certificate: false,
            kind: ExpectedKind::Mono {
                eps: 0.02,
                feature: 3,
                tau: 0.02,
                increasing: true,
            },
        };
        let reply = Json::obj([("envelope", envelope), ("certificate", cert.to_json())]);
        (expected, reply)
    }

    #[test]
    fn check_remote_demands_the_certified_bound_bit_for_bit() {
        let (expected, reply) = mono_reply(1.0 / 3.0);
        check_remote(&expected, &reply).expect("the certified bound passes the gate");
        // 1e-7 off its certificate's bound, a verdict proves nothing about
        // itself, however valid the certificate.
        let (expected, reply) = mono_reply(1.0 / 3.0 + 1e-7);
        let err = check_remote(&expected, &reply).expect_err("an off-bound verdict is refused");
        assert!(err.contains("is not the certified bound"), "{err}");
    }
}
