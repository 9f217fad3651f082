//! Metric names, units and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics, reported with tracing off. Every workload reports
/// each one; `op_*`, `flow_*` and `throughput_per_s` name the workload's
/// own operations (see `Workload::aliases`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("flow_p50_ms", "ms"),
    ("flow_p90_ms", "ms"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics, reported by the traced run. A layer a workload does
/// not reach from outside the program reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Mean self time per primary operation (learn step / small apply).
    ("service.learn_ms", "ms"),
    ("rank.top_ms", "ms"),
    ("compiled.compile_ms", "ms"),
    ("compiled.run_column_ms", "ms"),
    ("bench.self_ms", "ms"),
    ("compiled.rows", "count"),
    // The same per 20 000-row fill operation (apply_warm).
    ("fill.service.learn_ms", "ms"),
    ("fill.rank.top_ms", "ms"),
    ("fill.compiled.compile_ms", "ms"),
    ("fill.compiled.run_column_ms", "ms"),
    ("fill.compiled.rows", "count"),
    // Work counters over the first pass of the schedule (deterministic on
    // learn_cold and apply_warm).
    ("cache.dag_hits", "count"),
    ("cache.dag_misses", "count"),
    ("cache.example_hits", "count"),
    ("cache.example_misses", "count"),
    ("cache.intersect_hits", "count"),
    ("cache.intersect_misses", "count"),
    ("cache.example_hit_ratio", "ratio"),
    ("arena.interned", "count"),
    ("arena.stored", "count"),
    ("arena.resident_bytes", "bytes"),
    ("dstruct.size", "count"),
    ("quality.examples_used", "count"),
    ("quality.unconverged", "count"),
    // Persistence, measured in apply_warm set-up (median over set-ups).
    ("persist.snapshot_ms", "ms"),
    ("persist.restore_ms", "ms"),
    ("persist.snapshot_bytes", "bytes"),
    // Row mutations and memo survival (wire_mixed).
    ("tables.mutate_us", "us"),
    ("cache.entries_retained_pct", "%"),
    // Server-side handler time per endpoint, from the /metrics histograms.
    ("server.apply_p50_ms", "ms"),
    ("server.session_create_p50_ms", "ms"),
    ("server.run_column_p50_ms", "ms"),
    ("server.add_examples_p50_ms", "ms"),
    ("server.session_close_p50_ms", "ms"),
    // Client-observed mean minus server-side mean per endpoint.
    ("wire.apply_overhead_ms", "ms"),
    ("wire.session_create_overhead_ms", "ms"),
    ("wire.run_column_overhead_ms", "ms"),
    ("wire.add_examples_overhead_ms", "ms"),
    ("wire.session_close_overhead_ms", "ms"),
    ("server.rejected", "count"),
    ("server.sessions_live_peak", "count"),
    // The tracing itself, and the end-to-end numbers of the traced run.
    ("trace.spans", "count"),
    ("trace.span_cost_ns", "ns"),
    ("trace.overhead_pct", "%"),
    ("traced.op_p50_ms", "ms"),
    ("traced.op_p90_ms", "ms"),
    ("traced.flow_p50_ms", "ms"),
    ("traced.flow_p90_ms", "ms"),
    ("traced.throughput_per_s", "1/s"),
];

/// What one run measured: operations attempted and failed plus metric
/// values by name (absent per-layer metrics read 0).
#[derive(Debug)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<String, f64>,
}

impl Report {
    pub fn new(attempted: u64, failed: u64) -> Report {
        Report {
            attempted,
            failed,
            values: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// The result line: `correct`, `attempted`, `failed` and either the
    /// end-to-end or the per-layer metrics.
    pub fn json_line(&self, traced: bool) -> String {
        let list = if traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = list
            .iter()
            .map(|(name, unit)| {
                let v = self.get(name);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
