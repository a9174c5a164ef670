//! `raven_serve` — the verification service binary.
//!
//! ```text
//! raven_serve --models-dir models [--addr 127.0.0.1:8080] [--workers 2]
//!             [--queue-capacity 32] [--cache-capacity 256]
//!             [--request-timeout-secs 60] [--threads 1]
//! ```
//!
//! The first ctrl-c / SIGTERM starts a graceful shutdown (drain accepted
//! jobs, answer their connections, exit). A second signal escalates and
//! cancels in-flight verifications at their next phase boundary.

use raven_serve::{registry::ModelRegistry, Server, ServerConfig};
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

const USAGE: &str = "\
usage: raven_serve --models-dir DIR [options]

options:
  --models-dir DIR            directory of *.net model files (required)
  --addr HOST:PORT            bind address (default 127.0.0.1:8080; port 0 = ephemeral)
  --workers N                 verification worker threads (default 2; 0 = all cores)
  --queue-capacity N          queued jobs before 429 (default 32)
  --cache-capacity N          cached verdicts, LRU (default 256; 0 disables)
  --request-timeout-secs N    sync request wait before 504 (default 60)
  --threads N                 per-job solver threads (default 1; 0 = all cores)
  --deadline-ms N             default per-job solve deadline in milliseconds;
                              jobs that exhaust it answer with a sound degraded
                              verdict (default unlimited; per-request
                              \"deadline_ms\" overrides)
  --max-body-bytes N          largest accepted request body (default 67108864
                              = 64 MiB; oversized bodies answer 413)
  --journal-dir DIR           write-ahead job journal directory; enables
                              crash recovery, idempotent retries, and verdict
                              replay across restarts (default: disabled)
  --journal-segment-bytes N   rotate journal segments past this size
                              (default 4 MiB)
  --journal-cap-bytes N       keep the journal directory below this size by
                              compacting/deleting old segments (default 64 MiB)
  --watchdog-grace-ms N       cancel jobs stuck this long past their deadline
                              (default 2000)
  --job-retries N             re-run a panicked job up to N times with
                              exponential backoff before failing (default 1)
  --client-timeout-ms N       per-connection client socket read/write timeout
                              (default 10000)
  --fleet-addr HOST:PORT      bind a fleet listener for raven_worker
                              processes; remote results are served only
                              after their proof certificate replays
                              in-process (default: no fleet)
  --fleet-timeout-ms N        socket-level patience per fleet dispatch, on
                              top of the job's solve deadline (default 10000)
  --fleet-when-saturated B    1 = only dispatch remotely when the local
                              worker pool is saturated, 0 = always prefer
                              remote (default 1)
  --worker-probation-ms N     quarantine length after repeated certificate
                              rejections (default 60000)
  --worker-reject-strikes N   certificate rejections before quarantine
                              (default 2)
  --strict-certificates       recompute a job whose emitted certificate
                              fails its own spot check instead of serving
                              the unverifiable response
  --trace-slow-ms N           tail sampling always keeps traces of requests
                              at least this slow (default 500; degraded,
                              errored, retried, and certificate-rejected
                              requests are always kept)
  --trace-sample-rate R       probability in [0,1] of keeping an otherwise
                              uninteresting request's trace (default 1.0)
  --trace-capacity N          retained traces behind /v1/traces before the
                              oldest is evicted (default 256)
";

/// Signals received so far (1 = graceful, 2+ = force cancel).
static SIGNALS: AtomicUsize = AtomicUsize::new(0);

extern "C" fn on_signal(_signum: i32) {
    // Async-signal-safe: a single atomic increment, nothing else.
    SIGNALS.fetch_add(1, Ordering::SeqCst);
}

/// Installs `on_signal` for SIGINT and SIGTERM via the libc `signal` that
/// std already links — no external crate needed for a flag-only handler.
fn install_signal_handlers() {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

#[derive(Debug)]
struct Args {
    models_dir: String,
    config: ServerConfig,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut models_dir = None;
    let mut config = ServerConfig {
        addr: "127.0.0.1:8080".to_string(),
        // The service binary retries a panicked job once by default; the
        // library default (0) keeps one-attempt semantics for embedders.
        job_retries: 1,
        ..ServerConfig::default()
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .map(|s| s.to_string())
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--models-dir" => models_dir = Some(value("--models-dir")?),
            "--addr" => config.addr = value("--addr")?,
            "--workers" => {
                config.workers = parse_num(&value("--workers")?, "--workers")?;
            }
            "--queue-capacity" => {
                config.queue_capacity = parse_num(&value("--queue-capacity")?, "--queue-capacity")?;
            }
            "--cache-capacity" => {
                config.cache_capacity = parse_num(&value("--cache-capacity")?, "--cache-capacity")?;
            }
            "--request-timeout-secs" => {
                let secs: usize =
                    parse_num(&value("--request-timeout-secs")?, "--request-timeout-secs")?;
                config.request_timeout = Duration::from_secs(secs as u64);
            }
            "--threads" => {
                config.job_threads = parse_num(&value("--threads")?, "--threads")?;
            }
            "--deadline-ms" => {
                let ms: usize = parse_num(&value("--deadline-ms")?, "--deadline-ms")?;
                config.default_deadline = Some(Duration::from_millis(ms as u64));
            }
            "--max-body-bytes" => {
                config.max_body_bytes = parse_num(&value("--max-body-bytes")?, "--max-body-bytes")?;
            }
            "--journal-dir" => {
                config.journal_dir = Some(std::path::PathBuf::from(value("--journal-dir")?));
            }
            "--journal-segment-bytes" => {
                config.journal.segment_bytes = parse_num(
                    &value("--journal-segment-bytes")?,
                    "--journal-segment-bytes",
                )? as u64;
            }
            "--journal-cap-bytes" => {
                config.journal.cap_bytes =
                    parse_num(&value("--journal-cap-bytes")?, "--journal-cap-bytes")? as u64;
            }
            "--watchdog-grace-ms" => {
                let ms: usize = parse_num(&value("--watchdog-grace-ms")?, "--watchdog-grace-ms")?;
                config.watchdog_grace = Duration::from_millis(ms as u64);
            }
            "--job-retries" => {
                config.job_retries = parse_num(&value("--job-retries")?, "--job-retries")? as u32;
            }
            "--client-timeout-ms" => {
                let ms: usize = parse_num(&value("--client-timeout-ms")?, "--client-timeout-ms")?;
                config.client_timeout = Duration::from_millis(ms as u64);
            }
            "--fleet-addr" => config.fleet_addr = Some(value("--fleet-addr")?),
            "--fleet-timeout-ms" => {
                let ms: usize = parse_num(&value("--fleet-timeout-ms")?, "--fleet-timeout-ms")?;
                config.fleet.io_timeout = Duration::from_millis(ms as u64);
            }
            "--worker-probation-ms" => {
                let ms: usize =
                    parse_num(&value("--worker-probation-ms")?, "--worker-probation-ms")?;
                config.fleet.probation = Duration::from_millis(ms as u64);
            }
            "--worker-reject-strikes" => {
                config.fleet.reject_strikes = parse_num(
                    &value("--worker-reject-strikes")?,
                    "--worker-reject-strikes",
                )? as u32;
            }
            "--fleet-when-saturated" => {
                config.fleet.when_saturated = match value("--fleet-when-saturated")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => {
                        return Err(format!(
                            "--fleet-when-saturated: expected 0 or 1, got {other}"
                        ))
                    }
                };
            }
            "--strict-certificates" => config.strict_certificates = true,
            "--trace-slow-ms" => {
                config.trace_slow_ms =
                    parse_num(&value("--trace-slow-ms")?, "--trace-slow-ms")? as u64;
            }
            "--trace-sample-rate" => {
                let raw = value("--trace-sample-rate")?;
                let rate: f64 = raw
                    .parse()
                    .map_err(|e| format!("--trace-sample-rate: {e}"))?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err("--trace-sample-rate must be in [0, 1]".to_string());
                }
                config.trace_sample_rate = rate;
            }
            "--trace-capacity" => {
                config.trace_capacity = parse_num(&value("--trace-capacity")?, "--trace-capacity")?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let models_dir = models_dir.ok_or_else(|| "missing --models-dir".to_string())?;
    Ok(Args { models_dir, config })
}

fn parse_num(text: &str, flag: &str) -> Result<usize, String> {
    text.parse().map_err(|e| format!("{flag}: {e}"))
}

fn main() -> ExitCode {
    // Chaos faults for spawned-process durability tests (no-op unless the
    // RAVEN_SERVE_CHAOS_* variables are set and chaos is compiled in).
    raven_serve::chaos::arm_from_env();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let registry = match ModelRegistry::load_dir(Path::new(&args.models_dir)) {
        Ok(registry) => registry,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    if registry.is_empty() {
        eprintln!("error: no *.net models found in {}", args.models_dir);
        return ExitCode::FAILURE;
    }
    let server = match Server::bind(&args.config, registry) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", args.config.addr);
            return ExitCode::FAILURE;
        }
    };
    let addr = server.local_addr().expect("listener has an address");
    for entry in server.state().registry.entries() {
        eprintln!("loaded model {} ({})", entry.name, entry.hash_hex());
    }
    if let Some(fleet_addr) = server.fleet_addr() {
        eprintln!("raven-serve fleet listening on {fleet_addr}");
    }
    eprintln!("raven-serve listening on http://{addr}");

    install_signal_handlers();
    let shutdown = server.shutdown_handle();
    std::thread::Builder::new()
        .name("raven-serve-signals".to_string())
        .spawn(move || {
            let mut seen = 0;
            loop {
                let now = SIGNALS.load(Ordering::SeqCst);
                if now > seen {
                    seen = now;
                    if seen == 1 {
                        eprintln!("shutdown requested: draining accepted jobs (again to force)");
                        shutdown.shutdown();
                    } else {
                        eprintln!("force cancel: stopping in-flight verifications");
                        shutdown.force_cancel();
                    }
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        })
        .expect("spawn signal monitor");

    server.run();
    eprintln!("raven-serve stopped");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_full_flag_set() {
        let parsed = parse_args(&args(&[
            "--models-dir",
            "models",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "4",
            "--queue-capacity",
            "2",
            "--cache-capacity",
            "10",
            "--request-timeout-secs",
            "5",
            "--threads",
            "3",
            "--deadline-ms",
            "250",
            "--max-body-bytes",
            "1048576",
            "--journal-dir",
            "/tmp/wal",
            "--journal-segment-bytes",
            "65536",
            "--journal-cap-bytes",
            "1000000",
            "--watchdog-grace-ms",
            "500",
            "--job-retries",
            "3",
            "--client-timeout-ms",
            "2500",
            "--fleet-addr",
            "127.0.0.1:0",
            "--fleet-timeout-ms",
            "3000",
            "--worker-probation-ms",
            "1234",
            "--worker-reject-strikes",
            "5",
            "--fleet-when-saturated",
            "0",
            "--strict-certificates",
            "--trace-slow-ms",
            "250",
            "--trace-sample-rate",
            "0.25",
            "--trace-capacity",
            "64",
        ]))
        .unwrap();
        assert_eq!(parsed.models_dir, "models");
        assert_eq!(parsed.config.addr, "127.0.0.1:0");
        assert_eq!(parsed.config.workers, 4);
        assert_eq!(parsed.config.queue_capacity, 2);
        assert_eq!(parsed.config.cache_capacity, 10);
        assert_eq!(parsed.config.request_timeout, Duration::from_secs(5));
        assert_eq!(parsed.config.job_threads, 3);
        assert_eq!(
            parsed.config.default_deadline,
            Some(Duration::from_millis(250))
        );
        assert_eq!(parsed.config.max_body_bytes, 1048576);
        assert_eq!(
            parsed.config.journal_dir.as_deref(),
            Some(Path::new("/tmp/wal"))
        );
        assert_eq!(parsed.config.journal.segment_bytes, 65536);
        assert_eq!(parsed.config.journal.cap_bytes, 1000000);
        assert_eq!(parsed.config.watchdog_grace, Duration::from_millis(500));
        assert_eq!(parsed.config.job_retries, 3);
        assert_eq!(parsed.config.client_timeout, Duration::from_millis(2500));
        assert_eq!(parsed.config.fleet_addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(parsed.config.fleet.io_timeout, Duration::from_millis(3000));
        assert_eq!(parsed.config.fleet.probation, Duration::from_millis(1234));
        assert_eq!(parsed.config.fleet.reject_strikes, 5);
        assert!(!parsed.config.fleet.when_saturated);
        assert!(parsed.config.strict_certificates);
        assert_eq!(parsed.config.trace_slow_ms, 250);
        assert_eq!(parsed.config.trace_sample_rate, 0.25);
        assert_eq!(parsed.config.trace_capacity, 64);
    }

    #[test]
    fn trace_defaults_keep_everything() {
        let parsed = parse_args(&args(&["--models-dir", "m"])).unwrap();
        assert_eq!(parsed.config.trace_slow_ms, 500);
        assert_eq!(parsed.config.trace_sample_rate, 1.0);
        assert_eq!(parsed.config.trace_capacity, 256);
        let bad = parse_args(&args(&["--models-dir", "m", "--trace-sample-rate", "1.5"]));
        assert!(bad.unwrap_err().contains("[0, 1]"));
    }

    #[test]
    fn fleet_defaults_are_off() {
        let parsed = parse_args(&args(&["--models-dir", "m"])).unwrap();
        assert!(parsed.config.fleet_addr.is_none());
        assert!(!parsed.config.strict_certificates);
        assert_eq!(parsed.config.client_timeout, Duration::from_secs(10));
        assert!(parsed.config.fleet.when_saturated);
        assert!(
            parse_args(&args(&["--models-dir", "m", "--fleet-when-saturated", "2"]))
                .unwrap_err()
                .contains("0 or 1")
        );
    }

    #[test]
    fn binary_defaults_enable_one_retry_and_no_journal() {
        let parsed = parse_args(&args(&["--models-dir", "m"])).unwrap();
        assert_eq!(parsed.config.job_retries, 1);
        assert!(parsed.config.journal_dir.is_none());
        assert_eq!(parsed.config.max_body_bytes, 64 * 1024 * 1024);
    }

    #[test]
    fn rejects_missing_models_dir_and_unknown_flags() {
        assert!(parse_args(&args(&[])).unwrap_err().contains("--models-dir"));
        assert!(parse_args(&args(&["--models-dir", "m", "--bogus"]))
            .unwrap_err()
            .contains("--bogus"));
        assert!(parse_args(&args(&["--models-dir"]))
            .unwrap_err()
            .contains("needs a value"));
    }
}
