//! `raven_worker` — a fleet worker process for `raven_serve`.
//!
//! ```text
//! raven_worker --connect HOST:PORT --models-dir models
//!              [--name NAME] [--threads 1] [--reconnect-ms 1000]
//!              [--cache 64] [--once]
//! ```
//!
//! The worker connects to the server's `--fleet-addr` listener, announces
//! its loaded models by content hash, and solves whatever jobs the server
//! ships. The server treats this process as **untrusted**: every result
//! must carry a proof certificate, and the server replays it in-process
//! before serving the verdict. A worker therefore cannot influence served
//! verdict bytes — only latency.

use raven_serve::fleet::{run_worker, WorkerOptions};
use raven_serve::registry::ModelRegistry;
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const USAGE: &str = "\
usage: raven_worker --connect HOST:PORT --models-dir DIR [options]

options:
  --connect HOST:PORT   the server's --fleet-addr listener (required)
  --models-dir DIR      directory of *.net model files (required); hashes
                        must match the server's or no jobs are dispatched
  --name NAME           self-reported worker name, the server's reputation
                        key (default worker-<pid>)
  --threads N           per-job solver threads (default 1; 0 = all cores)
  --reconnect-ms N      delay between reconnect attempts (default 1000)
  --cache N             worker-side LRU result cache capacity, keyed like
                        the server's verdict cache, so a retried job on a
                        warm worker skips the re-solve (default 64;
                        0 disables)
  --once                exit after the first disconnect instead of
                        reconnecting (tests)
";

/// SIGINT/SIGTERM raise this; the worker loop exits at the next frame
/// boundary (and cancels an in-flight solve at its next phase boundary).
static STOP: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    STOP.store(true, Ordering::SeqCst);
}

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
    connect: String,
    models_dir: String,
    name: Option<String>,
    threads: usize,
    reconnect: Duration,
    cache: usize,
    once: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut connect = None;
    let mut models_dir = None;
    let mut name = None;
    let mut threads = 1usize;
    let mut reconnect = Duration::from_millis(1000);
    let mut cache = 64usize;
    let mut once = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |flag_name: &str| {
            it.next()
                .map(|s| s.to_string())
                .ok_or_else(|| format!("{flag_name} needs a value"))
        };
        match flag.as_str() {
            "--connect" => connect = Some(value("--connect")?),
            "--models-dir" => models_dir = Some(value("--models-dir")?),
            "--name" => name = Some(value("--name")?),
            "--threads" => {
                threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
            }
            "--reconnect-ms" => {
                let ms: u64 = value("--reconnect-ms")?
                    .parse()
                    .map_err(|e| format!("--reconnect-ms: {e}"))?;
                reconnect = Duration::from_millis(ms);
            }
            "--cache" => {
                cache = value("--cache")?
                    .parse()
                    .map_err(|e| format!("--cache: {e}"))?;
            }
            "--once" => once = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        connect: connect.ok_or_else(|| "missing --connect".to_string())?,
        models_dir: models_dir.ok_or_else(|| "missing --models-dir".to_string())?,
        name,
        threads,
        reconnect,
        cache,
        once,
    })
}

fn main() -> ExitCode {
    // Byzantine chaos modes for the fleet test suite (no-op unless the
    // RAVEN_WORKER_CHAOS variable is set and chaos is compiled in).
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
    // Like the server: a long-running process keeps its telemetry live,
    // and traced job frames need span timings to ship home. Observe-only —
    // verdict bytes are unaffected.
    raven_obs::set_enabled(true);
    install_signal_handlers();
    let opts = WorkerOptions {
        connect: args.connect,
        name: args
            .name
            .unwrap_or_else(|| format!("worker-{}", std::process::id())),
        registry,
        job_threads: args.threads,
        reconnect: args.reconnect,
        cache_capacity: args.cache,
        once: args.once,
    };
    match run_worker(&opts, &STOP) {
        Ok(()) => {
            eprintln!("raven-worker {} stopped", opts.name);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: cannot connect to {}: {e}", opts.connect);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_flags_and_defaults() {
        let parsed = parse_args(&args(&[
            "--connect",
            "127.0.0.1:9000",
            "--models-dir",
            "models",
            "--name",
            "w1",
            "--threads",
            "2",
            "--reconnect-ms",
            "250",
            "--cache",
            "8",
            "--once",
        ]))
        .unwrap();
        assert_eq!(parsed.connect, "127.0.0.1:9000");
        assert_eq!(parsed.models_dir, "models");
        assert_eq!(parsed.name.as_deref(), Some("w1"));
        assert_eq!(parsed.threads, 2);
        assert_eq!(parsed.reconnect, Duration::from_millis(250));
        assert_eq!(parsed.cache, 8);
        assert!(parsed.once);

        let defaults = parse_args(&args(&["--connect", "a:1", "--models-dir", "m"])).unwrap();
        assert!(defaults.name.is_none());
        assert_eq!(defaults.threads, 1);
        assert_eq!(defaults.reconnect, Duration::from_millis(1000));
        assert_eq!(defaults.cache, 64);
        assert!(!defaults.once);
    }

    #[test]
    fn rejects_missing_required_flags() {
        assert!(parse_args(&args(&["--models-dir", "m"]))
            .unwrap_err()
            .contains("--connect"));
        assert!(parse_args(&args(&["--connect", "a:1"]))
            .unwrap_err()
            .contains("--models-dir"));
        assert!(parse_args(&args(&["--bogus"]))
            .unwrap_err()
            .contains("--bogus"));
    }
}
