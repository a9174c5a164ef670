//! Per-layer measurement from outside the crates: snapshots of the
//! counters and histograms they already export, spans the benchmark
//! records around its own calls into each layer, and the layer table.

use crate::http::{family, series, Scrape};
use raven_json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Work counters and busy seconds exported by the solver and analysis
/// crates, read either in-process or from a server's `/v1/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Work {
    pub pivots: f64,
    pub dual_pivots: f64,
    pub lp_solves: f64,
    pub warm_starts: f64,
    pub presolve_rows_removed: f64,
    pub milp_nodes: f64,
    pub milp_pruned: f64,
    pub milp_incumbents: f64,
    pub split_neurons: f64,
    pub pair_analyses: f64,
    pub lp_s: f64,
    pub deeppoly_s: f64,
    pub diffpoly_s: f64,
    pub encode_s: f64,
    pub solve_s: f64,
    pub phases_s: f64,
}

impl Work {
    /// The in-process counters. Busy seconds are recorded only while
    /// `raven_obs` telemetry is enabled.
    pub fn local() -> Work {
        use raven::metrics as core;
        use raven_lp::metrics as lp;
        let phases = [
            &core::PHASE_MARGINS_SECONDS,
            &core::PHASE_ANALYSIS_SECONDS,
            &core::PHASE_DIFFPOLY_SECONDS,
            &core::PHASE_ENCODE_SECONDS,
            &core::PHASE_SOLVE_SECONDS,
        ];
        Work {
            pivots: lp::SIMPLEX_PIVOTS.get() as f64,
            dual_pivots: lp::LP_DUAL_PIVOTS.get() as f64,
            lp_solves: lp::LP_SOLVES.get() as f64,
            warm_starts: lp::LP_WARM_STARTS.get() as f64,
            presolve_rows_removed: lp::PRESOLVE_ROWS_REMOVED.get() as f64,
            milp_nodes: lp::MILP_NODES.get() as f64,
            milp_pruned: lp::MILP_NODES_PRUNED.get() as f64,
            milp_incumbents: lp::MILP_INCUMBENT_UPDATES.get() as f64,
            split_neurons: raven_deeppoly::metrics::SPLIT_NEURONS.get() as f64,
            pair_analyses: raven_diffpoly::metrics::PAIR_ANALYSES.get() as f64,
            lp_s: lp::LP_SOLVE_SECONDS.sum(),
            deeppoly_s: raven_deeppoly::metrics::LAYER_SECONDS.sum(),
            diffpoly_s: raven_diffpoly::metrics::LAYER_SECONDS.sum(),
            encode_s: core::PHASE_ENCODE_SECONDS.sum(),
            solve_s: core::PHASE_SOLVE_SECONDS.sum(),
            phases_s: phases.iter().map(|h| h.sum()).sum(),
        }
    }

    /// The same counters as a server exports them.
    pub fn scraped(s: &Scrape) -> Work {
        Work {
            pivots: series(s, "raven_lp_simplex_pivots_total"),
            dual_pivots: series(s, "raven_lp_dual_pivots_total"),
            lp_solves: series(s, "raven_lp_solves_total"),
            warm_starts: series(s, "raven_lp_warm_starts_total"),
            presolve_rows_removed: series(s, "raven_lp_presolve_rows_removed_total"),
            milp_nodes: series(s, "raven_lp_milp_nodes_total"),
            milp_pruned: series(s, "raven_lp_milp_nodes_pruned_total"),
            milp_incumbents: series(s, "raven_lp_milp_incumbent_updates_total"),
            split_neurons: series(s, "raven_deeppoly_split_neurons_total"),
            pair_analyses: series(s, "raven_diffpoly_pair_analyses_total"),
            lp_s: series(s, "raven_lp_solve_seconds_sum"),
            deeppoly_s: series(s, "raven_deeppoly_layer_seconds_sum"),
            diffpoly_s: series(s, "raven_diffpoly_layer_seconds_sum"),
            encode_s: series(s, "raven_core_phase_seconds_sum{phase=\"encode\"}"),
            solve_s: series(s, "raven_core_phase_seconds_sum{phase=\"solve\"}"),
            phases_s: family(s, "raven_core_phase_seconds_sum"),
        }
    }

    /// `self − earlier`, field by field.
    pub fn since(&self, earlier: &Work) -> Work {
        let f = |a: f64, b: f64| a - b;
        Work {
            pivots: f(self.pivots, earlier.pivots),
            dual_pivots: f(self.dual_pivots, earlier.dual_pivots),
            lp_solves: f(self.lp_solves, earlier.lp_solves),
            warm_starts: f(self.warm_starts, earlier.warm_starts),
            presolve_rows_removed: f(self.presolve_rows_removed, earlier.presolve_rows_removed),
            milp_nodes: f(self.milp_nodes, earlier.milp_nodes),
            milp_pruned: f(self.milp_pruned, earlier.milp_pruned),
            milp_incumbents: f(self.milp_incumbents, earlier.milp_incumbents),
            split_neurons: f(self.split_neurons, earlier.split_neurons),
            pair_analyses: f(self.pair_analyses, earlier.pair_analyses),
            lp_s: f(self.lp_s, earlier.lp_s),
            deeppoly_s: f(self.deeppoly_s, earlier.deeppoly_s),
            diffpoly_s: f(self.diffpoly_s, earlier.diffpoly_s),
            encode_s: f(self.encode_s, earlier.encode_s),
            solve_s: f(self.solve_s, earlier.solve_s),
            phases_s: f(self.phases_s, earlier.phases_s),
        }
    }

    /// The deterministic work counts, as printed for the repeatability
    /// check: they must be identical across runs of one seed.
    pub fn counts_line(&self) -> String {
        format!(
            "pivots={} dual_pivots={} milp_nodes={} presolve_rows_removed={} \
             split_neurons={} pair_analyses={}",
            self.pivots,
            self.dual_pivots,
            self.milp_nodes,
            self.presolve_rows_removed,
            self.split_neurons,
            self.pair_analyses
        )
    }

    /// The per-layer metrics these counters give directly.
    pub fn metrics(&self, out: &mut Metrics) {
        let pivots = self.pivots + self.dual_pivots;
        out.put("lp.ms", 1e3 * self.lp_s, "ms");
        out.put("lp.pivots", self.pivots, "count");
        out.put("lp.dual_pivots", self.dual_pivots, "count");
        out.put(
            "lp.ms_per_pivot",
            crate::stats::ratio(1e3 * self.lp_s, pivots),
            "ms",
        );
        out.put("lp.solves", self.lp_solves, "count");
        out.put("lp.warm_starts", self.warm_starts, "count");
        out.put(
            "lp.presolve_rows_removed",
            self.presolve_rows_removed,
            "count",
        );
        out.put("milp.nodes", self.milp_nodes, "count");
        out.put(
            "milp.pruned_ratio",
            crate::stats::ratio(self.milp_pruned, self.milp_nodes),
            "ratio",
        );
        out.put("milp.incumbent_updates", self.milp_incumbents, "count");
        out.put("deeppoly.ms", 1e3 * self.deeppoly_s, "ms");
        out.put("deeppoly.split_neurons", self.split_neurons, "count");
        out.put("diffpoly.ms", 1e3 * self.diffpoly_s, "ms");
        out.put("diffpoly.pair_analyses", self.pair_analyses, "count");
        out.put("encode.ms", 1e3 * self.encode_s, "ms");
    }
}

/// Named metric values with units, in insertion order; a later `put`
/// of the same name replaces the value.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.0.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => *slot = (name, value, unit),
            None => self.0.push((name, value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |(_, v, _)| *v)
    }

    /// `{"name": {"value": v, "unit": u}, …}`.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(n, v, u)| {
                    (
                        n.to_string(),
                        Json::obj([("value", Json::from(*v)), ("unit", Json::from(*u))]),
                    )
                })
                .collect(),
        )
    }
}

/// One span recorded by the benchmark around a call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub layer: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
}

/// In-memory span recorder plus per-layer self-time totals. Spans are
/// kept in memory and written out once, when the run ends.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    self_ms: BTreeMap<&'static str, f64>,
    /// Time inside verify calls that no engine phase covers.
    pub unphased_ms: f64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            self_ms: BTreeMap::new(),
            unphased_ms: 0.0,
        }
    }
}

impl Tracer {
    /// The offset of `t` from the tracer's origin, in microseconds.
    pub fn at_us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        layer: &'static str,
        start_us: f64,
        end_us: f64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            layer,
            start_us,
            end_us,
            parent,
        });
        self.spans.len() - 1
    }

    /// Adds self time to a layer.
    pub fn add_self(&mut self, layer: &'static str, ms: f64) {
        *self.self_ms.entry(layer).or_default() += ms.max(0.0);
    }

    /// Self time per layer, in milliseconds.
    pub fn self_ms(&self) -> &BTreeMap<&'static str, f64> {
        &self.self_ms
    }

    /// Writes the spans as JSON lines (`name`, `layer`, `start_us`,
    /// `dur_us`, `parent`).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("id", Json::from(i)),
                ("name", Json::from(s.name.as_str())),
                ("layer", Json::from(s.layer)),
                ("start_us", Json::from(s.start_us)),
                ("dur_us", Json::from(s.end_us - s.start_us)),
                ("parent", s.parent.map_or(Json::Null, Json::from)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }

    /// The layer table: each layer's self time and its share of `wall_ms`.
    /// With concurrent work (a server's worker pool) shares can sum past 1.
    pub fn table(&self, workload: &str, wall_ms: f64, extra: &[(&str, f64)]) -> Vec<String> {
        let mut lines = vec![format!(
            "layer table ({workload}, traced pass, wall {wall_ms:.1} ms):"
        )];
        lines.push(format!(
            "  {:<10} {:>12} {:>8}",
            "layer", "self ms", "share"
        ));
        for (layer, ms) in &self.self_ms {
            lines.push(format!(
                "  {layer:<10} {ms:>12.2} {:>7.1}%",
                100.0 * crate::stats::ratio(*ms, wall_ms)
            ));
        }
        for (name, value) in extra {
            lines.push(format!("  {name} = {value:.4}"));
        }
        lines
    }
}
