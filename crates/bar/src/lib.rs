//! `csp-bar` — the benchmark barometer.
//!
//! The workspace scores the paper's pattern-based predictors with
//! engines that differ in kind — the plain reference evaluator, the
//! production trace-order SIMD kernel, and the sharded serving engine.
//! This crate turns "is it still fast?" into committed, gated numbers,
//! rebar-style:
//!
//! * [`defs`] — declarative benchmark definitions enumerating the
//!   (workload x scheme x engine) matrix, run parameters, and the
//!   regression/ratio gates, parsed from a committed `benchmarks.bar`
//!   file and fingerprinted so measurement records can be tied to the
//!   exact matrix that produced them;
//! * [`record`] — the captured-measurement record format: one JSON
//!   record per (engine, workload, scheme) run, CRC32c-framed through
//!   `csp_trace::io`, appended under `results/bar/` so the committed
//!   benchmark history is a *trajectory* rather than a point (see
//!   `crates/bar/FORMAT.md` for the byte-level spec);
//! * [`runner`] — the matrix runner: warmup and iteration control,
//!   every iteration's latency kept (exact p50/p99 of the samples), and
//!   a bit-identity cross-check of every engine's screening statistics
//!   against the reference (via `csp_harness::engines`) before any
//!   timing is trusted;
//! * [`report`] — `diff` (cell-by-cell comparison of two records or
//!   revisions), `rank` (engines ordered per workload), `history` (one
//!   cell's throughput across every committed run: sparkline plus
//!   p50/p99 table), and `check` (the regression gate: per-cell
//!   thresholds from the definitions file over machine-relative ratios,
//!   against committed runs of the same scale and seed only, plus
//!   declared minimum-ratio gates such as the simd-vs-reference floor).
//!
//! The `csp-bar` binary exposes `run`, `diff`, `rank`, `history`,
//! `check`, and `prune` (atomic rewrite keeping only the newest N
//! records per cell, bounding committed file growth).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must surface failures as typed errors, not unwrap
// panics; tests opt back in where unwrapping is the assertion.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod defs;
pub mod record;
pub mod report;
pub mod runner;

pub use defs::{BarDefs, CellKey, RatioGate};
pub use record::{prune_records, read_records, BarRecord, SCHEMA_VERSION, TRAJECTORY_FORMAT};
pub use report::{check, diff, history, rank, CheckReport, HistoryReport};
pub use runner::{run_matrix, RunMeta};

use std::fmt;
use std::path::PathBuf;

/// Everything that can go wrong in the barometer, as a typed error.
#[derive(Debug)]
pub enum BarError {
    /// An I/O failure, with the path it happened on.
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A definitions file that does not parse.
    Defs {
        /// 1-based line number of the offending line (0 = whole file).
        line: usize,
        /// What was wrong.
        detail: String,
    },
    /// A gate names an engine no `engine` line declares. It could never
    /// match a measured cell, so it would pass without gating anything.
    UndeclaredEngine {
        /// 1-based line number of the gate.
        line: usize,
        /// The undeclared engine name.
        engine: String,
    },
    /// A measurement record that does not decode or validate.
    Record {
        /// What was wrong.
        detail: String,
    },
    /// Two engines disagreed on screening statistics — timing aborted.
    Divergence {
        /// Human-readable description of the diverging cell.
        detail: String,
    },
    /// A regression or ratio gate failed.
    Gate {
        /// The failed gate descriptions, one per line.
        failures: Vec<String>,
    },
}

impl fmt::Display for BarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BarError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            BarError::Defs { line, detail } if *line == 0 => {
                write!(f, "definitions file: {detail}")
            }
            BarError::Defs { line, detail } => {
                write!(f, "definitions file line {line}: {detail}")
            }
            BarError::UndeclaredEngine { line, engine } => write!(
                f,
                "definitions file line {line}: gate names engine {engine:?}, \
                 which no `engine` line declares"
            ),
            BarError::Record { detail } => write!(f, "measurement record: {detail}"),
            BarError::Divergence { detail } => {
                write!(f, "cross-engine divergence (timing aborted): {detail}")
            }
            BarError::Gate { failures } => {
                write!(f, "{} gate(s) failed:", failures.len())?;
                for failure in failures {
                    write!(f, "\n  FAIL {failure}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for BarError {}

impl BarError {
    /// Wraps an I/O error with its path.
    pub fn io(path: impl Into<PathBuf>, source: std::io::Error) -> Self {
        BarError::Io {
            path: path.into(),
            source,
        }
    }
}
