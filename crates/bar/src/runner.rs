//! The matrix runner: evaluates every (workload x scheme x engine) cell
//! of a definitions file with warmup and iteration control, and refuses
//! to record a single timing until every engine's screening statistics
//! have been proven bit-identical on that cell.
//!
//! Per cell the sequence is:
//!
//! 1. **Cross-check pass** — each engine evaluates the cell once and
//!    its confusion matrix is compared with the reference evaluator's
//!    (`csp_harness::engines::cross_check`). Divergence aborts the whole
//!    run: a benchmark of a wrong answer is worse than no benchmark. This
//!    pass doubles as the first warmup.
//! 2. **Warmup passes** — `warmup` additional untimed evaluations per
//!    engine (page faults, frequency ramp, branch history).
//! 3. **Timed passes** — `iters` evaluations per engine; each duration
//!    lands in a `csp-obs` log2 histogram. The fastest iteration is the
//!    throughput sample, the histogram supplies p50/p99.

use crate::record::BarRecord;
use crate::{BarDefs, BarError};
use csp_core::PreparedTrace;
use csp_harness::engines::{cross_check, engine_by_name, Engine, EngineCell};
use csp_harness::Suite;
use csp_obs::Histogram;
use std::time::Instant;

/// Provenance stamped on every record of one run batch.
#[derive(Clone, Debug)]
pub struct RunMeta {
    /// Run batch id (shared by every record of the batch).
    pub run: String,
    /// Batch start, milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// Git revision (short), or `unknown`.
    pub git_rev: String,
    /// Host fingerprint (`os-arch-hostname`).
    pub host: String,
}

impl RunMeta {
    /// Captures the current process's provenance: wall clock, best-effort
    /// git revision, and host fingerprint.
    pub fn capture() -> Self {
        let unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let git_rev = git_rev().unwrap_or_else(|| "unknown".to_string());
        RunMeta {
            run: format!("{git_rev}-{unix_ms}"),
            unix_ms,
            git_rev,
            host: host_fingerprint(),
        }
    }
}

/// Best-effort short git revision of the working tree, without shelling
/// out: follows `.git/HEAD` through loose and packed refs.
pub fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let full = if let Some(reference) = head.strip_prefix("ref: ") {
        match std::fs::read_to_string(format!(".git/{reference}")) {
            Ok(h) => h.trim().to_string(),
            Err(_) => {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .filter(|l| !l.starts_with('#') && !l.starts_with('^'))
                    .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))?
            }
        }
    } else {
        head.to_string()
    };
    if full.len() < 12 || !full.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    Some(full[..12].to_string())
}

/// `os-arch-hostname`, with the hostname from `$HOSTNAME` or the
/// kernel, falling back to `unknown-host`.
pub fn host_fingerprint() -> String {
    let hostname = std::env::var("HOSTNAME")
        .ok()
        .filter(|h| !h.trim().is_empty())
        .or_else(|| {
            std::fs::read_to_string("/proc/sys/kernel/hostname")
                .ok()
                .map(|h| h.trim().to_string())
                .filter(|h| !h.is_empty())
        })
        .unwrap_or_else(|| "unknown-host".to_string());
    format!(
        "{}-{}-{hostname}",
        std::env::consts::OS,
        std::env::consts::ARCH
    )
}

/// Runs the full matrix of `defs` over `suite`, returning one record
/// per (workload, scheme, engine) cell. `progress` receives one line
/// per completed cell (for CLI display; pass `|_| {}` to silence).
///
/// # Errors
///
/// Returns [`BarError::Divergence`] the moment any engine disagrees
/// with the reference on screening statistics — no timings are returned
/// from a diverging run — and [`BarError::Defs`] for engine names the
/// adapter layer cannot construct.
pub fn run_matrix(
    suite: &Suite,
    defs: &BarDefs,
    meta: &RunMeta,
    mut progress: impl FnMut(&str),
) -> Result<Vec<BarRecord>, BarError> {
    let engines: Vec<Box<dyn Engine>> = defs
        .engines
        .iter()
        .map(|name| {
            engine_by_name(name, defs.shards).ok_or_else(|| BarError::Defs {
                line: 0,
                detail: format!("engine {name:?} has no adapter"),
            })
        })
        .collect::<Result<_, _>>()?;
    let fingerprint = defs.fingerprint();
    let mut records = Vec::with_capacity(defs.workloads.len() * defs.schemes.len() * engines.len());

    for &workload in &defs.workloads {
        let bench = suite.try_trace(workload).map_err(|e| BarError::Defs {
            line: 0,
            detail: e.to_string(),
        })?;
        let prepared = PreparedTrace::new(&bench.trace);
        for scheme in &defs.schemes {
            let cell = EngineCell {
                bench,
                prepared: &prepared,
                scheme: *scheme,
            };
            // Gate timing behind bit-identity: every engine must agree
            // on this cell's screening statistics first.
            cross_check(&engines, &cell).map_err(|d| BarError::Divergence {
                detail: d.to_string(),
            })?;
            for engine in &engines {
                let timing = time_engine(engine.as_ref(), &cell, defs.warmup, defs.iters);
                let record = BarRecord {
                    schema: crate::SCHEMA_VERSION,
                    fingerprint,
                    run: meta.run.clone(),
                    unix_ms: meta.unix_ms,
                    git_rev: meta.git_rev.clone(),
                    host: meta.host.clone(),
                    engine: engine.name().to_string(),
                    workload: workload.name().to_string(),
                    scheme: scheme.to_string(),
                    scale: suite.scale(),
                    seed: suite.seed(),
                    warmup: defs.warmup as u32,
                    iters: defs.iters as u32,
                    shards: if engine.name() == "sharded" {
                        defs.shards as u32
                    } else {
                        0
                    },
                    events: cell.events(),
                    seconds: timing.seconds,
                    events_per_sec: cell.events() as f64 / timing.seconds,
                    samples: timing.samples,
                    p50_ns: timing.p50_ns,
                    p99_ns: timing.p99_ns,
                };
                progress(&format!(
                    "{:>9} {:<28} {:<9} {:>10.2}M ev/s  p50 {:>9}ns",
                    record.workload,
                    record.scheme,
                    record.engine,
                    record.events_per_sec / 1e6,
                    record.p50_ns,
                ));
                records.push(record);
            }
        }
    }
    Ok(records)
}

struct Timing {
    seconds: f64,
    samples: Vec<f64>,
    p50_ns: u64,
    p99_ns: u64,
}

fn time_engine(engine: &dyn Engine, cell: &EngineCell<'_>, warmup: usize, iters: usize) -> Timing {
    for _ in 0..warmup {
        std::hint::black_box(engine.eval(cell));
    }
    let hist = Histogram::new();
    let mut best = f64::INFINITY;
    let mut samples = Vec::with_capacity(iters.max(1));
    for _ in 0..iters.max(1) {
        let t0 = Instant::now();
        std::hint::black_box(engine.eval(cell));
        let elapsed = t0.elapsed();
        hist.record_duration(elapsed);
        samples.push(elapsed.as_secs_f64());
        best = best.min(elapsed.as_secs_f64());
    }
    let snap = hist.snapshot();
    Timing {
        seconds: best.max(1e-9),
        samples,
        p50_ns: snap.quantile(0.5),
        p99_ns: snap.quantile(0.99),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_workloads::Benchmark;

    fn tiny_defs() -> BarDefs {
        let mut defs = BarDefs::builtin();
        defs.workloads = vec![Benchmark::Water, Benchmark::Gauss];
        defs.schemes.truncate(2);
        defs.warmup = 0;
        defs.iters = 1;
        defs.shards = 2;
        defs
    }

    fn meta() -> RunMeta {
        RunMeta {
            run: "test-run".to_string(),
            unix_ms: 42,
            git_rev: "cafecafecafe".to_string(),
            host: "test-host".to_string(),
        }
    }

    #[test]
    fn matrix_produces_one_record_per_cell() {
        let suite = Suite::generate(0.01, 7);
        let defs = tiny_defs();
        let mut lines = 0;
        let records = run_matrix(&suite, &defs, &meta(), |_| lines += 1).expect("runs");
        assert_eq!(records.len(), 2 * 2 * 3);
        assert_eq!(lines, records.len());
        let fingerprint = defs.fingerprint();
        for r in &records {
            assert_eq!(r.schema, crate::SCHEMA_VERSION);
            assert_eq!(r.fingerprint, fingerprint);
            assert_eq!(r.run, "test-run");
            assert!(r.events > 0);
            assert!(r.seconds > 0.0);
            assert!(r.events_per_sec > 0.0);
            assert!(r.p50_ns > 0);
            assert!(r.p99_ns >= r.p50_ns);
            assert_eq!(r.samples.len(), defs.iters.max(1));
            let min = r.samples.iter().fold(f64::INFINITY, |a, &b| a.min(b));
            assert_eq!(r.seconds, min.max(1e-9), "seconds is the fastest sample");
            assert_eq!(r.shards, if r.engine == "sharded" { 2 } else { 0 });
        }
        // Engine order inside each cell follows the definitions.
        assert_eq!(records[0].engine, "reference");
        assert_eq!(records[1].engine, "simd");
        assert_eq!(records[2].engine, "sharded");
    }

    #[test]
    fn unknown_engine_fails_before_running() {
        let suite = Suite::generate(0.01, 7);
        let mut defs = tiny_defs();
        defs.engines = vec!["warp-drive".to_string()];
        let err = run_matrix(&suite, &defs, &meta(), |_| {}).unwrap_err();
        assert!(err.to_string().contains("no adapter"), "{err}");
    }

    #[test]
    fn meta_capture_is_well_formed() {
        let m = RunMeta::capture();
        assert!(m.run.contains('-'));
        assert!(m.host.contains(std::env::consts::ARCH));
    }
}
