//! Standalone certificate checker.
//!
//! Reads a certificate from a file argument or stdin and replays it in
//! exact arithmetic. Accepts either a bare certificate object or any JSON
//! envelope containing a `"certificate"` field (so a `/v1/verify/*` or
//! `/v1/jobs/<id>` response can be piped straight in). Prints a one-line
//! JSON report and exits 0 on accept, 1 on reject, 2 on malformed input.

use raven_check::{check_certificate_json, CheckError};
use raven_json::Json;
use std::io::Read;
use std::time::Instant;

fn fail(code: i32, msg: &str) -> ! {
    println!(
        "{}",
        Json::obj([("ok", Json::from(false)), ("error", Json::from(msg))])
    );
    std::process::exit(code);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: raven_check [certificate.json]   (reads stdin when no file is given)");
        eprintln!("accepts a bare certificate or an envelope with a \"certificate\" field");
        std::process::exit(0);
    }
    let text = match args.first() {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(err) => fail(2, &format!("cannot read {path}: {err}")),
        },
        None => {
            let mut buf = String::new();
            if let Err(err) = std::io::stdin().read_to_string(&mut buf) {
                fail(2, &format!("cannot read stdin: {err}"));
            }
            buf
        }
    };
    let json = match Json::parse(&text) {
        Ok(j) => j,
        Err(err) => fail(2, &format!("invalid JSON: {err}")),
    };
    // Unwrap envelopes: descend through "result" wrappers (job-status
    // responses nest the verify envelope one level deeper) and take the
    // innermost "certificate" field if present.
    let mut node = &json;
    loop {
        if let Some(inner) = node.get("certificate") {
            node = inner;
        } else if let Some(inner) = node.get("result") {
            node = inner;
        } else {
            break;
        }
    }
    let bytes = node.to_string().len();
    let start = Instant::now();
    match check_certificate_json(node) {
        Ok(report) => {
            let millis = start.elapsed().as_secs_f64() * 1e3;
            let mut out = report.to_json();
            if let Json::Obj(pairs) = &mut out {
                pairs.push(("certificate_bytes".to_string(), Json::from(bytes)));
                pairs.push(("replay_millis".to_string(), Json::from(millis)));
            }
            println!("{out}");
        }
        Err(err @ CheckError::Reject(_)) => fail(1, &err.to_string()),
        Err(err @ CheckError::Malformed(_)) => fail(2, &err.to_string()),
    }
}
