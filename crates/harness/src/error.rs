//! Structured errors for the experiment harness.
//!
//! Everything that can go wrong while caching traces, checkpointing
//! sweeps, or running workers lands in one [`HarnessError`] so the
//! binaries can distinguish *user* mistakes (bad flags — usage text, exit
//! code 2) from *runtime* failures (I/O, corruption, worker panics —
//! stderr diagnostics, exit code 1).

use csp_core::PredictionFunction;
use csp_workloads::Benchmark;
use std::fmt;
use std::path::PathBuf;

/// A failure inside the harness library.
#[derive(Debug)]
pub enum HarnessError {
    /// An I/O operation on `path` failed.
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A cached trace file failed validation (bad magic, checksum
    /// mismatch, malformed payload). The cache quarantines such files and
    /// regenerates; seeing this error means quarantine itself failed or
    /// the caller asked for a strict read.
    CorruptTrace {
        /// The offending file.
        path: PathBuf,
        /// What the reader objected to.
        detail: String,
    },
    /// A sweep worker panicked on the same work item twice (once plus one
    /// retry). The rest of the sweep still completed; this reports the
    /// casualties.
    WorkerPanic {
        /// Human-readable labels of the failed work items.
        labels: Vec<String>,
        /// The panic payload of the first failure, if it was a string.
        message: String,
    },
    /// The online sharded engine (`csp-serve`) disagreed with the
    /// offline reference engine — the online == offline equivalence the
    /// serving layer is built on does not hold (a serious bug in one of
    /// the two engines).
    ServeDivergence {
        /// Number of `(scheme, benchmark)` cells that diverged.
        count: usize,
        /// Human-readable description of the first divergence.
        first: String,
    },
    /// A suite is missing the trace for `benchmark`.
    MissingBenchmark(Benchmark),
    /// A family sweep was asked for a prediction function it does not
    /// evaluate (only `union`/`inter`/`last` come out of a family pass).
    MissingFamily(PredictionFunction),
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::Io { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
            HarnessError::CorruptTrace { path, detail } => {
                write!(f, "corrupt trace {}: {detail}", path.display())
            }
            HarnessError::WorkerPanic { labels, message } => {
                write!(
                    f,
                    "{} work item(s) panicked twice (first: {}): {message}",
                    labels.len(),
                    labels.first().map(String::as_str).unwrap_or("?"),
                )
            }
            HarnessError::ServeDivergence { count, first } => {
                write!(
                    f,
                    "online engine diverged from offline on {count} cell(s); first: {first}"
                )
            }
            HarnessError::MissingBenchmark(b) => {
                write!(f, "suite has no trace for benchmark {b}")
            }
            HarnessError::MissingFamily(function) => {
                write!(f, "family sweep has no {function} results")
            }
        }
    }
}

impl std::error::Error for HarnessError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HarnessError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl HarnessError {
    /// Wraps an I/O error with the path it occurred on.
    pub fn io(path: impl Into<PathBuf>, source: std::io::Error) -> Self {
        HarnessError::Io {
            path: path.into(),
            source,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_the_path() {
        let e = HarnessError::io(
            "/tmp/x",
            std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        );
        assert!(e.to_string().contains("/tmp/x"));
    }

    #[test]
    fn worker_panic_counts_labels() {
        let e = HarnessError::WorkerPanic {
            labels: vec!["cell 3".into(), "cell 9".into()],
            message: "boom".into(),
        };
        let s = e.to_string();
        assert!(s.contains("2 work item(s)"), "{s}");
        assert!(s.contains("cell 3"), "{s}");
        assert!(s.contains("boom"), "{s}");
    }

    #[test]
    fn missing_family_names_the_function() {
        let e = HarnessError::MissingFamily(PredictionFunction::Pas);
        assert!(e.to_string().contains("pas"), "{e}");
    }
}
