//! A minimal HTTP/1.1 client for the verification server, a scraper for
//! its `/v1/metrics` exposition, and the child-process handling for
//! `raven_serve` and `raven_worker`.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// One HTTP response: status code and body text.
pub struct Response {
    pub status: u16,
    pub body: String,
}

/// Sends one request on a fresh connection and reads the whole response
/// (the server closes the connection after answering).
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: raven\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status = raw
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok(Response { status, body })
}

/// Samples from `/v1/metrics`, keyed by the exposition's series name with
/// its labels (`raven_core_phase_seconds_sum{phase="encode"}`).
pub type Scrape = HashMap<String, f64>;

/// Reads the server's Prometheus exposition.
pub fn scrape(addr: SocketAddr) -> std::io::Result<Scrape> {
    let resp = request(addr, "GET", "/v1/metrics", "")?;
    if resp.status != 200 {
        return Err(std::io::Error::other(format!(
            "/v1/metrics answered {}",
            resp.status
        )));
    }
    Ok(resp
        .body
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect())
}

/// The value of one series, 0 when absent.
pub fn series(s: &Scrape, name: &str) -> f64 {
    s.get(name).copied().unwrap_or(0.0)
}

/// The sum of every series whose name starts with `prefix` — a labelled
/// family summed over its labels.
pub fn family(s: &Scrape, prefix: &str) -> f64 {
    s.iter()
        .filter(|(k, _)| k.starts_with(prefix))
        .map(|(_, v)| v)
        .sum()
}

/// A child process whose standard error is forwarded line by line, so the
/// benchmark can wait for its "listening on" announcements.
pub struct Proc {
    child: Child,
    lines: mpsc::Receiver<String>,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl Proc {
    /// Spawns `program` with `args`; standard output is discarded.
    pub fn spawn(program: &Path, args: &[String]) -> std::io::Result<Proc> {
        let mut child = Command::new(program)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                // The receiver goes away once the benchmark stops
                // listening; keep draining so the child never blocks.
                let _ = tx.send(line);
            }
        });
        Ok(Proc {
            child,
            lines,
            reader: Some(reader),
        })
    }

    /// Waits for a stderr line starting with `prefix` and returns the rest
    /// of it.
    pub fn wait_line(&self, prefix: &str, timeout: Duration) -> Result<String, String> {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.lines.recv_timeout(left) {
                Ok(line) => {
                    if let Some(rest) = line.strip_prefix(prefix) {
                        return Ok(rest.trim().to_string());
                    }
                }
                Err(_) => return Err(format!("no {prefix:?} line within {timeout:?}")),
            }
        }
    }

    /// Peak resident set size in MiB (`VmHWM`), while the child is alive.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb_of(&format!("/proc/{}/status", self.child.id()))
    }

    /// Asks the child to stop with SIGTERM (graceful drain), waits for it,
    /// and kills it if it has not exited within `grace`.
    pub fn stop(mut self, grace: Duration) {
        const SIGTERM: i32 = 15;
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        if let Ok(pid) = i32::try_from(self.child.id()) {
            // SAFETY: `kill` only sends a signal; `pid` names our own
            // child, which has not been reaped yet (we hold its `Child`).
            unsafe {
                kill(pid, SIGTERM);
            }
        }
        let deadline = Instant::now() + grace;
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

impl Drop for Proc {
    /// A child left running by an early return or a panic is killed and
    /// reaped, so the benchmark never leaves a process behind.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MiB; 0 when unreadable.
pub fn peak_rss_mb_of(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
