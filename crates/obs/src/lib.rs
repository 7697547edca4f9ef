//! Observability substrate for the CSP workspace: metrics, std-only,
//! compiled in but near-free when unobserved.
//!
//! The paper this workspace reproduces is, at heart, a measurement
//! methodology — screening-test statistics over predictor schemes — and
//! the runtime deserves the same discipline. This crate provides the
//! plumbing the serving and sweep pipelines instrument themselves with:
//!
//! - **[`metrics`]** — lock-free [`Counter`]s, [`Gauge`]s, and
//!   log₂-bucketed [`Histogram`]s (p50/p90/p99/p999 from 65 fixed
//!   power-of-two buckets; three relaxed atomic ops per record).
//! - **[`registry`]** — a named, labeled [`Registry`] of instruments
//!   with a Prometheus-style text exposition encoder
//!   ([`Registry::encode_prometheus`]) and its parsing twin
//!   ([`parse_text`]), so a scrape can be asserted on in tests and
//!   rendered by `csp-served top`.
//!
//! Everything here uses only `std`. Nothing allocates on the hot path.
//!
//! # Quick start
//!
//! ```
//! use csp_obs::{Registry, parse_text, sum_counter};
//! use std::time::Duration;
//!
//! let registry = Registry::new();
//! let queries = registry.counter("queries_total", "Probes answered.", &[("shard", "0")]);
//! let latency = registry.histogram("latency_ns", "Service time.", &[]);
//!
//! queries.add(3);
//! latency.record_duration(Duration::from_micros(120));
//!
//! let scrape = registry.encode_prometheus();
//! let samples = parse_text(&scrape);
//! assert_eq!(sum_counter(&samples, "queries_total"), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod metrics;
pub mod registry;

pub use metrics::{
    bucket_index, bucket_upper, Counter, Gauge, Histogram, HistogramSnapshot, BUCKETS,
};
pub use registry::{parse_text, sum_counter, MetricKind, Registry, Sample};

use std::sync::OnceLock;

/// The process-wide registry, for subsystems without a natural owner to
/// hang a registry off (the sweep harness, CLI tools). Server-side code
/// prefers the per-engine registry so tests don't share state.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}
