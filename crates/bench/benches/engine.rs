//! Bench the evaluation engine itself: the reference evaluator against
//! the production kernel over the same union/inter family grid.
//!
//! Every arm scores the same decisions over the Figure 6 index grid under
//! every update mode, depths 1–4 of `union` and `inter`. The reference
//! evaluates one scheme at a time, one event at a time; the kernel arms
//! share key streams across the grid and either score one scheme per
//! pass (`kernel_per_scheme`) or every depth of both functions in one
//! pass (`kernel_family`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use csp_bench::bench_suite;
use csp_core::engine::{run_history_family_prepared, run_scheme_prepared};
use csp_core::{reference, IndexSpec, PredictionFunction, PreparedTrace, Scheme, UpdateMode};
use csp_harness::runner::PreparedSuite;
use csp_harness::space::figure6_index_grid;

const MAX_DEPTH: usize = 4;

/// Every (function, depth) scheme of the family grid at one point.
fn family_schemes(index: IndexSpec, update: UpdateMode) -> impl Iterator<Item = Scheme> {
    (1..=MAX_DEPTH).flat_map(move |depth| {
        [PredictionFunction::Union, PredictionFunction::Inter]
            .map(|func| Scheme::new(func, index, depth, update))
    })
}

/// Runs `cell` over every (index, update, trace) point of the grid,
/// evicting each index's key stream once no remaining cell needs it.
fn over_grid(
    suite: &PreparedSuite<'_>,
    indexes: &[IndexSpec],
    mut cell: impl FnMut(&PreparedTrace<'_>, IndexSpec, UpdateMode),
) {
    for &index in indexes {
        for update in UpdateMode::ALL {
            for pt in suite.traces() {
                cell(pt, index, update);
            }
        }
        for pt in suite.traces() {
            pt.evict_stream(index);
        }
    }
}

fn bench_family_grid(c: &mut Criterion) {
    let suite = bench_suite();
    let indexes = figure6_index_grid();
    let suite_events: u64 = suite.traces().iter().map(|b| b.trace.len() as u64).sum();
    // Scheme-decisions per pass: every event under every scheme.
    let decisions = (indexes.len() * UpdateMode::ALL.len() * 2 * MAX_DEPTH) as u64 * suite_events;

    let mut group = c.benchmark_group("engine_family_grid");
    group.throughput(Throughput::Elements(decisions));
    group.bench_function("reference", |b| {
        b.iter(|| {
            for &index in &indexes {
                for update in UpdateMode::ALL {
                    for scheme in family_schemes(index, update) {
                        for bench in suite.traces() {
                            std::hint::black_box(reference::run_scheme(&bench.trace, &scheme));
                        }
                    }
                }
            }
        })
    });
    group.bench_function("kernel_per_scheme", |b| {
        b.iter(|| {
            let prepared = PreparedSuite::new(suite);
            over_grid(&prepared, &indexes, |pt, index, update| {
                for scheme in family_schemes(index, update) {
                    std::hint::black_box(run_scheme_prepared(pt, &scheme));
                }
            });
        })
    });
    group.bench_function("kernel_family", |b| {
        b.iter(|| {
            let prepared = PreparedSuite::new(suite);
            over_grid(&prepared, &indexes, |pt, index, update| {
                std::hint::black_box(run_history_family_prepared(pt, index, update, MAX_DEPTH));
            });
        })
    });
    group.finish();
}

criterion_group! {
    name = engine;
    config = Criterion::default().sample_size(10);
    targets = bench_family_grid
}
criterion_main!(engine);
