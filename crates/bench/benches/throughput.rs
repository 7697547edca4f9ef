//! Microbenchmarks of the library's hot paths: the memory-system
//! simulator, the prediction engine (per update mode and function), and
//! the single-pass family evaluator.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use csp_bench::bench_suite;
use csp_core::{engine, IndexSpec, Scheme, UpdateMode};
use csp_sim::{MemorySystem, SystemConfig};
use csp_workloads::Benchmark;

fn bench_simulator(c: &mut Criterion) {
    let accesses = Benchmark::Water.accesses(0.05, 1);
    let mut g = c.benchmark_group("simulator");
    g.throughput(Throughput::Elements(accesses.len() as u64));
    g.bench_function("memory_system_run", |b| {
        b.iter(|| {
            let mut sys = MemorySystem::new(SystemConfig::paper_16_node());
            sys.run(accesses.iter().copied());
            std::hint::black_box(sys.finish())
        })
    });
    g.finish();
}

fn bench_scoring(c: &mut Criterion) {
    let suite = bench_suite();
    let trace = &suite.trace(Benchmark::Unstruct).trace;
    let mut g = c.benchmark_group("engine");
    g.throughput(Throughput::Elements(trace.len() as u64));
    for spec in [
        "last(pid+pc8)1[direct]",
        "inter(pid+add6)4[direct]",
        "union(dir+add14)4[forwarded]",
        "inter(pid+pc8+add6)4[ordered]",
        "pas(pid+add4)2[direct]",
        "overlap-last(pid+pc8)[direct]",
    ] {
        let scheme: Scheme = spec.parse().expect("valid scheme");
        g.bench_function(spec, |b| {
            b.iter(|| std::hint::black_box(engine::run_scheme(trace, &scheme)))
        });
    }
    g.bench_function("family_sweep_depth4", |b| {
        b.iter(|| {
            std::hint::black_box(engine::run_history_family(
                trace,
                IndexSpec::new(true, 8, false, 6),
                UpdateMode::Direct,
                4,
            ))
        })
    });
    g.finish();
}

fn bench_workload_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("workloads");
    for bench in [Benchmark::Barnes, Benchmark::Ocean] {
        g.bench_function(format!("generate_{bench}"), |b| {
            b.iter(|| std::hint::black_box(bench.accesses(0.05, 1)))
        });
    }
    g.finish();
}

criterion_group! {
    name = throughput;
    config = Criterion::default().sample_size(20);
    targets = bench_simulator, bench_scoring, bench_workload_generation
}
criterion_main!(throughput);
