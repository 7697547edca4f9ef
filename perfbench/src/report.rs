//! The metric catalogue and the result line.
//!
//! Every workload reports every end-to-end metric in an untraced run and
//! every per-layer metric in a traced run; `BENCHMARK.json` lists the same
//! names.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: name, unit, and what the number is on each
/// workload.
pub const END_TO_END: [(&str, &str, &str); 4] = [
    (
        "setup_s",
        "s",
        "median of the set-ups spread over the run: suite generation (+ server start and warm ingest when served)",
    ),
    (
        "throughput_per_s",
        "1/s",
        "offline: scheme-decisions/s; serve_query: saturated probes/s; serve_ingest: acked ops/s (upper quartile of passes)",
    ),
    (
        "latency_us",
        "us",
        "offline: mean runner work-item time; served: query p50 from its due time (lower quartile of passes)",
    ),
    (
        "tail_latency_us",
        "us",
        "offline: pass time, upper quartile; served: query p90 from its due time (lower quartile of passes)",
    ),
];

/// Per-layer metrics: name, unit, which way is better, and the
/// end-to-end metric and workload it should move.
pub const PER_LAYER: [(&str, &str, &str, &str); 46] = [
    (
        "workloads.generate_s",
        "s",
        "lower",
        "setup_s, every workload",
    ),
    (
        "workloads.events",
        "count",
        "higher",
        "setup_s, every workload (input size)",
    ),
    (
        "process.peak_rss_mb",
        "MB",
        "lower",
        "none: process peak resident set at the end of the traced run",
    ),
    (
        "core.resolve_s",
        "s",
        "lower",
        "throughput_per_s, offline workloads",
    ),
    (
        "core.keystream_s",
        "s",
        "lower",
        "throughput_per_s, design_sweep; barely scheme_grid",
    ),
    (
        "core.keystreams",
        "count",
        "lower",
        "throughput_per_s, design_sweep; barely scheme_grid",
    ),
    (
        "core.cached_streams",
        "count",
        "lower",
        "process.peak_rss_mb, offline workloads",
    ),
    (
        "core.family_s",
        "s",
        "lower",
        "throughput_per_s, design_sweep only",
    ),
    (
        "core.family_passes",
        "count",
        "lower",
        "throughput_per_s, design_sweep only (0 on scheme_grid)",
    ),
    (
        "core.scheme_history_s",
        "s",
        "lower",
        "throughput_per_s, scheme_grid only",
    ),
    (
        "core.scheme_pas_s",
        "s",
        "lower",
        "throughput_per_s, scheme_grid only",
    ),
    (
        "core.scheme_evals",
        "count",
        "lower",
        "throughput_per_s, scheme_grid only (0 on design_sweep)",
    ),
    (
        "harness.items",
        "count",
        "lower",
        "throughput_per_s, offline workloads",
    ),
    (
        "harness.wall_s",
        "s",
        "lower",
        "throughput_per_s, offline workloads",
    ),
    (
        "harness.item_busy_s",
        "s",
        "lower",
        "latency_us, offline workloads",
    ),
    (
        "harness.slowest_item_s",
        "s",
        "lower",
        "tail_latency_us, offline workloads",
    ),
    (
        "harness.parallel_eff",
        "ratio",
        "higher",
        "throughput_per_s, offline workloads",
    ),
    (
        "serve.shard_threads",
        "count",
        "lower",
        "none: 0 on the offline workloads, which bypass csp-serve",
    ),
    (
        "loadgen.frames",
        "count",
        "higher",
        "validity of latency_us/p99_us, served workloads",
    ),
    (
        "loadgen.samples",
        "count",
        "higher",
        "validity of tail_latency_us, served workloads",
    ),
    (
        "loadgen.late_p99_us",
        "us",
        "lower",
        "validity of latency_us/tail_latency_us, served workloads",
    ),
    (
        "loadgen.p99_us",
        "us",
        "lower",
        "tail_latency_us, served workloads (p99 of the traced stream)",
    ),
    (
        "loadgen.capacity_pps",
        "1/s",
        "higher",
        "throughput_per_s, serve_query (rate at p90 = 1 ms)",
    ),
    (
        "loadgen.ack_p99_us",
        "us",
        "lower",
        "throughput_per_s, serve_ingest (ingest ack latency)",
    ),
    (
        "wire.encode_us",
        "us",
        "lower",
        "latency_us and throughput_per_s, served workloads",
    ),
    (
        "wire.decode_us",
        "us",
        "lower",
        "latency_us and throughput_per_s, served workloads",
    ),
    (
        "wire.frames",
        "count",
        "higher",
        "none: request frames the server counted",
    ),
    (
        "wire.errors",
        "count",
        "lower",
        "none: protocol errors the server counted",
    ),
    ("server.answer_us", "us", "lower", "latency_us, serve_query"),
    (
        "client.rtt_us",
        "us",
        "lower",
        "latency_us, served workloads",
    ),
    (
        "client.socket_us",
        "us",
        "lower",
        "latency_us, served workloads (rtt - answer - codec)",
    ),
    (
        "shard.query_us",
        "us",
        "lower",
        "tail_latency_us, serve_query",
    ),
    (
        "shard.ingest_us",
        "us",
        "lower",
        "throughput_per_s, serve_ingest",
    ),
    (
        "shard.queue_depth_max",
        "count",
        "lower",
        "tail_latency_us, served workloads",
    ),
    (
        "shard.imbalance",
        "ratio",
        "lower",
        "tail_latency_us and throughput_per_s, served workloads",
    ),
    (
        "replication.append_us",
        "us",
        "lower",
        "throughput_per_s and loadgen.ack_p99_us, serve_ingest",
    ),
    (
        "replication.journal_bytes",
        "bytes",
        "lower",
        "throughput_per_s, serve_ingest (0 on serve_query)",
    ),
    (
        "audit.emit_us",
        "us",
        "lower",
        "throughput_per_s, serve_ingest only",
    ),
    (
        "audit.records",
        "count",
        "lower",
        "throughput_per_s, serve_ingest (0 on serve_query)",
    ),
    (
        "audit.bytes",
        "bytes",
        "lower",
        "throughput_per_s, serve_ingest (0 on serve_query)",
    ),
    (
        "audit.keep_ratio",
        "ratio",
        "lower",
        "throughput_per_s, serve_ingest (records / scored decisions)",
    ),
    (
        "trace.spans",
        "count",
        "lower",
        "none: spans this traced run recorded",
    ),
    (
        "trace.overhead_frac",
        "ratio",
        "lower",
        "none: traced over untraced pass cost, minus 1",
    ),
    (
        "trace.coverage",
        "ratio",
        "higher",
        "none: share of the breakdown its layer spans cover",
    ),
    (
        "trace.accounted_frac",
        "ratio",
        "higher",
        "none: breakdown time over untraced end-to-end time",
    ),
    (
        "trace.runs",
        "count",
        "higher",
        "none: measured passes (offline) or rounds (served)",
    ),
];

/// The metrics and operation counts one run produced.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tallies operations attempted and failed.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Sets one catalogued metric.
    ///
    /// # Panics
    ///
    /// Panics on a name outside the catalogue: a bug in this benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|m| m.0 == name) || PER_LAYER.iter().any(|m| m.0 == name),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    /// A metric set so far (0 when unset).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    fn catalogue(traced: bool) -> Vec<(&'static str, &'static str, &'static str)> {
        if traced {
            PER_LAYER.iter().map(|m| (m.0, m.1, m.3)).collect()
        } else {
            END_TO_END.to_vec()
        }
    }

    /// The result line: every end-to-end metric (untraced run) or every
    /// per-layer metric (traced run). A per-layer metric a workload does
    /// not exercise reads 0; an end-to-end one must be measured and
    /// positive.
    ///
    /// # Errors
    ///
    /// An end-to-end metric that is missing, or any value that is not a
    /// finite number.
    pub fn to_json(&self, traced: bool) -> Result<String, String> {
        let mut body = Vec::new();
        for (name, unit, _) in Self::catalogue(traced) {
            let value = match self.values.get(name) {
                Some(&v) => v,
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() || (!traced && value <= 0.0) {
                return Err(format!(
                    "metric {name} = {value} is not a usable measurement"
                ));
            }
            body.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        ))
    }

    /// The same figures as a table for standard error, each per-layer
    /// metric beside the end-to-end metric and workload it should move.
    pub fn summary(&self, traced: bool) -> String {
        let mut out = format!(
            "  operations: {} attempted, {} failed\n",
            self.attempted, self.failed
        );
        for (name, unit, note) in Self::catalogue(traced) {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            let _ = writeln!(out, "  {name:<26} {value:>18.4} {unit:<6} -> {note}");
        }
        out
    }
}
