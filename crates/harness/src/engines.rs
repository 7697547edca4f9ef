//! Execution-engine adapters for the benchmark barometer (`csp-bar`).
//!
//! The barometer compares engines that differ in kind: the plain
//! reference evaluator ([`csp_core::reference`], one event at a time
//! over a hash map), the production trace-order kernel
//! ([`csp_core::engine`]), and the sharded online
//! serving engine (per-key routing over worker threads). This module
//! puts them behind one [`Engine`] trait and a data-driven registry
//! ([`ENGINE_SPECS`]) so the barometer can enumerate a
//! (workload x scheme x engine) matrix declaratively — and, crucially,
//! so every engine's screening statistics can be cross-checked against
//! the reference for bit-identity before any timing number is trusted.
//!
//! Engines here evaluate one *cell* — a `(benchmark trace, scheme)`
//! pair — to a [`ConfusionMatrix`]. Timing policy (warmup passes, timed
//! iterations, quantiles) lives with the caller; the adapters only
//! guarantee that each call performs the full end-to-end evaluation the
//! engine would pay in production, nothing cached across calls beyond
//! what the engine's own architecture shares (the kernel's key streams
//! are its architecture; the serving engine's long-lived worker threads
//! are its architecture too — see [`ShardedServeEngine`]).

use csp_core::{engine, reference, PreparedTrace, Scheme};
use csp_metrics::ConfusionMatrix;
use csp_serve::ShardedEngine;
use csp_workloads::BenchmarkTrace;
use std::fmt;
use std::sync::Mutex;

/// One (workload, scheme) evaluation cell, with both the raw trace and
/// its prepared twin so each engine can consume its natural input.
pub struct EngineCell<'a> {
    /// The benchmark trace the cell evaluates.
    pub bench: &'a BenchmarkTrace,
    /// The prepared view of the same trace (actuals resolved once, key
    /// streams shared) for engines built on the prepared layer.
    pub prepared: &'a PreparedTrace<'a>,
    /// The scheme under evaluation.
    pub scheme: Scheme,
}

impl EngineCell<'_> {
    /// Decisions one evaluation of this cell scores.
    pub fn events(&self) -> u64 {
        self.bench.trace.len() as u64
    }
}

/// A predictor execution engine the barometer can time.
///
/// Implementations must be deterministic: two calls on the same cell
/// return bit-identical confusion matrices. [`cross_check`] compares
/// every engine against the first one, the reference.
pub trait Engine: Sync {
    /// Stable lowercase name, used in definitions files and records.
    fn name(&self) -> &'static str;
    /// Evaluates one cell end to end, returning its screening counts.
    fn eval(&self, cell: &EngineCell<'_>) -> ConfusionMatrix;
}

/// The reference evaluator: its own actuals pass, per-event key
/// derivation and a hash map of entries (see [`csp_core::reference`]).
pub struct ReferenceEngine;

impl Engine for ReferenceEngine {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn eval(&self, cell: &EngineCell<'_>) -> ConfusionMatrix {
        reference::run_scheme(&cell.bench.trace, &cell.scheme)
    }
}

/// The production kernel: shared key streams, a trace-order walk over
/// one entry state per slot, and confusion counts kept as three running
/// popcount sums ([`csp_core::engine::run_scheme_prepared`]). It keeps
/// the name `simd` from an earlier vectorised accumulator because the
/// barometer's matrix fingerprint (`BarDefs::fingerprint` in `csp-bar`)
/// hashes engine names: renaming it would orphan the committed
/// trajectory.
pub struct SimdEngine;

impl Engine for SimdEngine {
    fn name(&self) -> &'static str {
        "simd"
    }

    fn eval(&self, cell: &EngineCell<'_>) -> ConfusionMatrix {
        engine::run_scheme_prepared(cell.prepared, &cell.scheme)
    }
}

/// The in-process sharded serving engine (`csp-serve`): per-key routing
/// over the supervised worker threads a server runs, with bounded-channel
/// backpressure. The adapter keeps one [`ShardedEngine`] for the whole
/// benchmark matrix and [`reset`](ShardedEngine::reset)s it per cell, so
/// the measured region is routing, channel, and the production worker's
/// apply path (checkpoint journal, instruments, `catch_unwind`), not
/// thread spawn/join. The engine is built at the first cell and rebuilt
/// only when a cell's machine width differs.
pub struct ShardedServeEngine {
    shards: usize,
    engine: Mutex<Option<ShardedEngine>>,
}

impl ShardedServeEngine {
    /// Creates the adapter; its `shards` workers spawn at the first eval.
    pub fn new(shards: usize) -> Self {
        ShardedServeEngine {
            shards,
            engine: Mutex::new(None),
        }
    }
}

impl Engine for ShardedServeEngine {
    fn name(&self) -> &'static str {
        "sharded"
    }

    fn eval(&self, cell: &EngineCell<'_>) -> ConfusionMatrix {
        let mut slot = self.engine.lock().expect("no panic holds the engine lock");
        let nodes = cell.prepared.nodes();
        let engine = match slot.as_mut() {
            Some(engine) if engine.nodes() == nodes => {
                engine
                    .reset(cell.scheme)
                    .expect("no log or sink is attached");
                engine
            }
            _ => slot.insert(ShardedEngine::new(cell.scheme, nodes, self.shards)),
        };
        engine
            .replay_prepared(cell.prepared)
            .expect("the engine is as wide as the trace");
        engine.stats().confusion
    }
}

/// One registry row: a definitions-file name and how to build its
/// adapter (`shards` is meaningful only to the sharded engine; the
/// others ignore it).
pub struct EngineSpec {
    /// Stable lowercase name, as written in `benchmarks.bar`.
    pub name: &'static str,
    /// Builds the adapter; the argument is the configured shard count.
    pub build: fn(usize) -> Box<dyn Engine>,
}

/// The engine registry, in canonical order (the reference first — it is
/// the cross-check oracle and the ratio denominator). Adding an engine
/// means adding a row here; name lookup, [`ENGINE_NAMES`], and the
/// barometer's validation all follow from it.
pub const ENGINE_SPECS: [EngineSpec; 3] = [
    EngineSpec {
        name: "reference",
        build: |_| Box::new(ReferenceEngine),
    },
    EngineSpec {
        name: "simd",
        build: |_| Box::new(SimdEngine),
    },
    EngineSpec {
        name: "sharded",
        build: |shards| Box::new(ShardedServeEngine::new(shards)),
    },
];

/// Names of every engine [`engine_by_name`] can construct, in registry
/// order. (A const mirror of [`ENGINE_SPECS`] so definitions-file
/// validation can borrow it without building adapters; a test pins the
/// two in sync.)
pub const ENGINE_NAMES: [&str; 3] = ["reference", "simd", "sharded"];

/// Constructs an engine adapter by its definitions-file name.
pub fn engine_by_name(name: &str, shards: usize) -> Option<Box<dyn Engine>> {
    ENGINE_SPECS
        .iter()
        .find(|spec| spec.name == name)
        .map(|spec| (spec.build)(shards))
}

/// Two engines disagreeing on a cell's screening statistics — a
/// correctness bug that must halt any benchmark before a single timing
/// is recorded.
#[derive(Clone, Debug)]
pub struct EngineDivergence {
    /// The engine that diverged from the reference.
    pub engine: String,
    /// The reference engine it was compared against.
    pub reference: String,
    /// The benchmark the cell evaluated.
    pub workload: String,
    /// The scheme the cell evaluated.
    pub scheme: Scheme,
    /// What the diverging engine counted.
    pub got: ConfusionMatrix,
    /// What the reference counted.
    pub expected: ConfusionMatrix,
}

impl fmt::Display for EngineDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "engine {} diverged from {} on {} / {}: got {:?}, expected {:?}",
            self.engine, self.reference, self.workload, self.scheme, self.got, self.expected
        )
    }
}

/// Evaluates `cell` once on every engine and verifies each produces
/// the reference evaluator's confusion matrix, bit for bit — whether or
/// not the reference is itself among `engines`. Returns that matrix; the
/// pass doubles as a warmup for each engine.
///
/// # Errors
///
/// Returns the first [`EngineDivergence`] found (boxed: the report
/// carries both confusion matrices and only exists on the cold path).
pub fn cross_check(
    engines: &[Box<dyn Engine>],
    cell: &EngineCell<'_>,
) -> Result<ConfusionMatrix, Box<EngineDivergence>> {
    let expected = ReferenceEngine.eval(cell);
    for engine in engines {
        let got = engine.eval(cell);
        if got != expected {
            return Err(Box::new(EngineDivergence {
                engine: engine.name().to_string(),
                reference: ReferenceEngine.name().to_string(),
                workload: cell.bench.benchmark.name().to_string(),
                scheme: cell.scheme,
                got,
                expected,
            }));
        }
    }
    Ok(expected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Suite;

    #[test]
    fn all_engines_are_bit_identical_across_schemes() {
        let suite = Suite::generate(0.02, 11);
        let engines: Vec<Box<dyn Engine>> = ENGINE_NAMES
            .iter()
            .map(|n| engine_by_name(n, 3).expect("known name"))
            .collect();
        let schemes = [
            "last(pid+pc8)1[direct]",
            "union(pid+pc8)2[forwarded]",
            "union(dir+add8)2[ordered]",
        ];
        for bench in suite.traces() {
            let prepared = PreparedTrace::new(&bench.trace);
            for s in schemes {
                let scheme: Scheme = s.parse().expect("scheme notation");
                let cell = EngineCell {
                    bench,
                    prepared: &prepared,
                    scheme,
                };
                let agreed = cross_check(&engines, &cell).expect("engines agree");
                assert_eq!(agreed, reference::run_scheme(&bench.trace, &scheme));
                assert!(cell.events() > 0);
            }
        }
    }

    #[test]
    fn unknown_engine_name_is_rejected() {
        assert!(engine_by_name("warp-drive", 4).is_none());
        for name in ENGINE_NAMES {
            assert_eq!(engine_by_name(name, 2).expect("known").name(), name);
        }
    }

    #[test]
    fn registry_and_name_mirror_agree() {
        assert_eq!(ENGINE_SPECS.len(), ENGINE_NAMES.len());
        for (spec, name) in ENGINE_SPECS.iter().zip(ENGINE_NAMES) {
            assert_eq!(spec.name, name);
            // Each row builds an adapter that answers to its own name.
            assert_eq!((spec.build)(2).name(), name);
        }
        assert_eq!(ENGINE_NAMES[0], "reference", "the oracle comes first");
    }

    #[test]
    fn sharded_adapter_engine_survives_reuse_across_cells() {
        let suite = Suite::generate(0.01, 7);
        let engine = ShardedServeEngine::new(3);
        // The same re-tasked adapter must stay bit-identical across cells
        // with different schemes and traces (sessions fully reset).
        for bench in suite.traces().iter().take(2) {
            let prepared = PreparedTrace::new(&bench.trace);
            for s in ["last(pid+pc8)1[direct]", "union(dir+add8)2[ordered]"] {
                let cell = EngineCell {
                    bench,
                    prepared: &prepared,
                    scheme: s.parse().expect("notation"),
                };
                assert_eq!(
                    engine.eval(&cell),
                    reference::run_scheme(&bench.trace, &cell.scheme)
                );
            }
        }
    }

    #[test]
    fn divergence_reports_name_the_cell() {
        // A fake engine that always returns zeros must be caught against
        // the reference on any non-trivial trace.
        struct Zero;
        impl Engine for Zero {
            fn name(&self) -> &'static str {
                "zero"
            }
            fn eval(&self, _cell: &EngineCell<'_>) -> ConfusionMatrix {
                ConfusionMatrix::default()
            }
        }
        let suite = Suite::generate(0.01, 5);
        let bench = &suite.traces()[0];
        let prepared = PreparedTrace::new(&bench.trace);
        let cell = EngineCell {
            bench,
            prepared: &prepared,
            scheme: "union(pid+pc8)2[direct]".parse().expect("notation"),
        };
        let engines: Vec<Box<dyn Engine>> = vec![Box::new(SimdEngine), Box::new(Zero)];
        let err = cross_check(&engines, &cell).expect_err("zero engine diverges");
        assert_eq!(err.engine, "zero");
        assert_eq!(err.reference, "reference");
        assert!(err.to_string().contains("diverged"), "{err}");
    }
}
