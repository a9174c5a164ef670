//! The RaVeN benchmark.
//!
//! ```text
//! perfbench --bin-dir DIR --work-dir DIR --workload NAME --seed N
//!           --seconds S --trace 0|1
//! perfbench --workload bnb-hot --write-bnb-pool perfbench/bnb_pool.txt
//! perfbench --workload certify-sweep --write-sweep-pool perfbench/sweep_pool.txt
//! ```
//!
//! Workloads: `bnb-hot` and `certify-sweep` run the verifier in this
//! process; `serve-mix` and `fleet-offload` drive a `raven_serve` child
//! (and a `raven_worker` child) over HTTP. The seed picks the inputs; the
//! programs under test receive only the generated queries. Every run
//! checks its outputs and prints, as its last stdout line, one JSON object
//! with `correct`, `attempted`, `failed` and the metrics: the end-to-end
//! ones untraced (`--trace 0`), the per-layer ones traced (`--trace 1`).
//! See `README.md` beside this package for the workloads and metrics.

mod http;
mod inproc;
mod layers;
mod served;
mod stats;
mod zoo;

use layers::{Metrics, Tracer};
use raven_json::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const WORKLOADS: [&str; 4] = ["bnb-hot", "certify-sweep", "serve-mix", "fleet-offload"];

/// Set-ups measured per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 5;

/// The end-to-end metrics in the result line, each bounded in
/// `BENCHMARK.json`. A run also computes `query_p50_ms`, `query_p90_ms`,
/// `latency_p99_ms` and `peak_rss_mb`; they are printed in the report
/// lines only, because their spread over seeds is too wide for any bound
/// the benchmark allows (see `README.md`).
const E2E_GATED: [&str; 4] = ["setup_s", "wall_s", "latency_p50_ms", "goodput_rps"];

/// Every per-layer metric a traced run prints, with its unit.
const LAYER_METRICS: [(&str, &str); 45] = [
    ("lp.ms", "ms"),
    ("lp.pivots", "count"),
    ("lp.dual_pivots", "count"),
    ("lp.ms_per_pivot", "ms"),
    ("lp.solves", "count"),
    ("lp.warm_starts", "count"),
    ("lp.presolve_rows_removed", "count"),
    ("milp.nodes", "count"),
    ("milp.pruned_ratio", "ratio"),
    ("milp.incumbent_updates", "count"),
    ("check.replay_ms", "ms"),
    ("check.cert_kb", "KiB"),
    ("check.certified_over_plain", "ratio"),
    ("deeppoly.ms", "ms"),
    ("deeppoly.split_neurons", "count"),
    ("diffpoly.ms", "ms"),
    ("diffpoly.pair_analyses", "count"),
    ("encode.ms", "ms"),
    ("encode.lp_rows", "count"),
    ("encode.lp_vars", "count"),
    ("raven.unphased_ms", "ms"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.cache_hit_ms_p50", "ms"),
    ("serve.queue_wait_ms_mean", "ms"),
    ("serve.service_ms_mean", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.journal_appends_per_job", "count"),
    ("fleet.remote_ratio", "ratio"),
    ("fleet.kept_local_ratio", "ratio"),
    ("fleet.fallbacks", "count"),
    ("fleet.unaccounted", "count"),
    ("fleet.dispatch_ms_mean", "ms"),
    ("fleet.gate_replay_ms_mean", "ms"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("loadgen.lag_ms_p99", "ms"),
    ("share.lp", "ratio"),
    ("share.milp", "ratio"),
    ("share.raven", "ratio"),
    ("share.deeppoly", "ratio"),
    ("share.diffpoly", "ratio"),
    ("share.check", "ratio"),
    ("share.serve", "ratio"),
    ("share.queue", "ratio"),
    ("share.fleet", "ratio"),
    ("share.bench", "ratio"),
];

/// Each layer's self time as a share of the traced pass's wall time.
pub fn put_shares(l: &mut Metrics, tracer: &Tracer, wall_ms: f64) {
    for (name, _) in LAYER_METRICS
        .iter()
        .filter(|(n, _)| n.starts_with("share."))
    {
        let layer = &name["share.".len()..];
        let ms = tracer.self_ms().get(layer).copied().unwrap_or(0.0);
        l.put(name, stats::ratio(ms, wall_ms), "ratio");
    }
}

/// What one invocation does besides a measured run.
enum Mode {
    Run,
    /// One set-up sample for `measure_setup`.
    SetupProbe,
    /// Rewrite `bnb-hot`'s batch pool file.
    WriteBnbPool(PathBuf),
    /// Rewrite `certify-sweep`'s query pool file.
    WriteSweepPool(PathBuf),
}

/// Command-line options.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub bin_dir: PathBuf,
    pub work_dir: PathBuf,
}

fn parse_opts(args: &[String]) -> Result<(Opts, Mode), String> {
    let mut it = args.iter();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut bin_dir = PathBuf::from(".");
    let mut work_dir = PathBuf::from("perfbench/.work");
    let mut mode = Mode::Run;
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = value()? == "1",
            "--bin-dir" => bin_dir = PathBuf::from(value()?),
            "--work-dir" => work_dir = PathBuf::from(value()?),
            "--setup-probe" => mode = Mode::SetupProbe,
            "--write-bnb-pool" => mode = Mode::WriteBnbPool(PathBuf::from(value()?)),
            "--write-sweep-pool" => mode = Mode::WriteSweepPool(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?} (try {WORKLOADS:?})"));
    }
    let opts = Opts {
        workload,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0).max(1.0),
        trace,
        bin_dir,
        work_dir,
    };
    Ok((opts, mode))
}

/// What a run measured and checked.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub e2e: Metrics,
    pub layers: Metrics,
    pub lines: Vec<String>,
    pub tracer: Option<Tracer>,
}

impl Report {
    pub fn new(opts: &Opts) -> Report {
        Report {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            e2e: Metrics::default(),
            layers: Metrics::default(),
            lines: vec![format!(
                "workload {} seed {} seconds {} trace {}",
                opts.workload, opts.seed, opts.seconds, opts.trace as u8
            )],
            tracer: None,
        }
    }

    /// Counts one operation; `Some(reason)` marks it failed or incorrect.
    pub fn attempt(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(why) = failure {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(why);
            }
        }
    }

    pub fn line(&mut self, text: String) {
        self.lines.push(text);
    }
}

/// Trains the workload's models and lowers their plans, timing it: one
/// set-up sample, run in a fresh process so no cache is warm.
fn setup_probe(opts: &Opts) -> f64 {
    let t0 = Instant::now();
    let entries: Vec<zoo::Entry> = inproc::models_for(&opts.workload)
        .into_iter()
        .map(zoo::Entry::load)
        .collect();
    std::hint::black_box(&entries);
    t0.elapsed().as_secs_f64()
}

/// The in-process set-up time: the median of fresh-process samples.
fn measure_setup(opts: &Opts) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut samples = Vec::new();
    for _ in 0..SETUP_SAMPLES {
        let out = std::process::Command::new(&exe)
            .args(["--setup-probe", "--workload", &opts.workload])
            .output()
            .map_err(|e| format!("setup probe: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let secs: f64 = text
            .trim()
            .parse()
            .map_err(|_| format!("setup probe printed {text:?}"))?;
        samples.push(secs);
    }
    Ok(stats::median(&samples))
}

fn run(opts: &Opts) -> Result<Report, String> {
    match opts.workload.as_str() {
        "bnb-hot" | "certify-sweep" => {
            let setup_s = measure_setup(opts)?;
            let entries: Vec<zoo::Entry> = inproc::models_for(&opts.workload)
                .into_iter()
                .map(zoo::Entry::load)
                .collect();
            Ok(inproc::run(opts, &entries, setup_s))
        }
        _ => served::run(opts),
    }
}

/// Rewrites the committed pool of `workload` at `path`.
fn write_pool(workload: &str, path: &std::path::Path) -> ExitCode {
    let entries: Vec<zoo::Entry> = inproc::models_for(workload)
        .into_iter()
        .map(zoo::Entry::load)
        .collect();
    let written = if workload == "bnb-hot" {
        inproc::write_bnb_pool(&entries, path)
    } else {
        inproc::write_sweep_pool(&entries, path)
    };
    match written {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", path.display());
            ExitCode::from(1)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, mode) = match parse_opts(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match mode {
        Mode::Run => {}
        Mode::SetupProbe => {
            println!("{}", setup_probe(&opts));
            return ExitCode::SUCCESS;
        }
        Mode::WriteBnbPool(path) => return write_pool("bnb-hot", &path),
        Mode::WriteSweepPool(path) => return write_pool("certify-sweep", &path),
    }
    let mut report = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    if opts.trace {
        // A layer the workload never reaches did no work: it reads 0.
        for (name, unit) in LAYER_METRICS {
            if report.layers.0.iter().all(|(n, _, _)| *n != name) {
                report.layers.put(name, 0.0, unit);
            }
        }
        if let Some(tracer) = &report.tracer {
            let path = opts.work_dir.join(format!("spans-{}.jsonl", opts.workload));
            match tracer.write(&path) {
                Ok(()) => report.line(format!(
                    "wrote {} spans to {}",
                    tracer.spans.len(),
                    path.display()
                )),
                Err(e) => report.line(format!("could not write spans: {e}")),
            }
        }
    }
    let failed_ratio = stats::ratio(report.failed as f64, report.attempted as f64);
    report.line(format!(
        "failed_ratio {failed_ratio} ratio ({} of {} operations failed, were refused or were incorrect)",
        report.failed, report.attempted
    ));
    for why in report.failures.clone() {
        report.line(format!("FAILED: {why}"));
    }
    let metrics = if opts.trace {
        report.layers.clone()
    } else {
        let (gated, reported): (Vec<_>, Vec<_>) = report
            .e2e
            .0
            .iter()
            .partition(|(n, _, _)| E2E_GATED.contains(n));
        for (name, value, unit) in reported {
            report.line(format!("  {name} = {value} {unit} (reported, not bounded)"));
        }
        Metrics(gated)
    };
    for (name, value, unit) in &metrics.0 {
        report.lines.push(format!("  {name} = {value} {unit}"));
    }
    for line in &report.lines {
        println!("{line}");
    }
    let correct = report.failed == 0 && report.attempted > 0;
    let out = Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(report.attempted as f64)),
        ("failed", Json::from(report.failed as f64)),
        ("metrics", metrics.to_json()),
    ]);
    println!("{out}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
