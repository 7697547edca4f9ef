//! The offline workloads: the paper's design-space sweep and the Figure
//! 6/8/9 scheme grid, both driven through `csp_harness::runner`.
//!
//! A run generates the suite, makes one untimed reference pass and checks
//! it (every matrix against the trace's ground truth, a seeded sample
//! against `engine::run_scheme`), then repeats the pass for the measured
//! window; every repeat must reproduce the reference digest. A traced run
//! alternates untraced and traced passes, then replays the same work
//! through the core layer's own calls (the breakdown) so that trace
//! resolution, key streams and kernels are timed apart.

use crate::report::Report;
use crate::sampler::Sampler;
use crate::spans::{self, Recorder};
use crate::stats::{self, median, quantile, Digest, Rng};
use crate::{span_metrics, Args, Setup, PASS_QUANTILE};
use csp_core::engine::{self, FamilyResult};
use csp_core::{IndexSpec, PredictionFunction, PreparedTrace, Scheme, UpdateMode};
use csp_harness::runner::{self, FamilyCell, SchemeStats, Suite, SweepOutcome};
use csp_harness::space::{figure6_index_grid, figure8_index_grid, DesignSpace};
use csp_metrics::ConfusionMatrix;
use std::cmp::Ordering as CmpOrdering;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Suite scale of `design_sweep`: about a second per pass on two cores,
/// so the measured window holds several passes.
const SWEEP_SCALE: f64 = 0.2;
/// Suite scale of `scheme_grid`, sized the same way.
const GRID_SCALE: f64 = 0.3;
/// Deepest history the design-space sweep evaluates (Tables 8–11).
const MAX_DEPTH: usize = 4;
/// Schemes cross-checked against `engine::run_scheme` per run.
const SAMPLED_CHECKS: usize = 3;
/// Fewest measured passes, however short the window.
const MIN_PASSES: usize = 3;

/// Generates the suite through `csp_workloads`, returning it with the
/// seconds taken.
pub fn generate(scale: f64, seed: u64) -> Result<(Suite, f64), String> {
    let started = Instant::now();
    let traces = csp_workloads::generate_suite(scale, seed);
    let suite = Suite::from_parts(traces, scale, seed).map_err(|e| e.to_string())?;
    Ok((suite, started.elapsed().as_secs_f64()))
}

/// Total events over the suite's traces.
pub fn events(suite: &Suite) -> u64 {
    suite.traces().iter().map(|b| b.trace.len() as u64).sum()
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What every scheme's matrices must agree with, per trace: the set bits
/// over all actual bitmaps (tp + fn under any scheme) and the per-node
/// decisions (events × nodes).
struct Truth {
    actual_bits: Vec<u64>,
    decisions: Vec<u64>,
}

impl Truth {
    fn of(suite: &Suite) -> Truth {
        let (mut actual_bits, mut decisions) = (Vec::new(), Vec::new());
        for b in suite.traces() {
            let prepared = PreparedTrace::new(&b.trace);
            let nodes = prepared.nodes();
            actual_bits.push(
                prepared
                    .actuals()
                    .iter()
                    .map(|a| u64::from(a.masked(nodes).count()))
                    .sum(),
            );
            decisions.push((prepared.len() * nodes) as u64);
        }
        Truth {
            actual_bits,
            decisions,
        }
    }

    fn check(
        &self,
        suite: &Suite,
        b: usize,
        m: &ConfusionMatrix,
        what: impl Fn() -> String,
    ) -> Result<(), String> {
        if m.tp + m.fn_ == self.actual_bits[b] && m.decisions() == self.decisions[b] {
            return Ok(());
        }
        Err(format!(
            "{} on {}: tp+fn = {} over {} decisions; the trace has {} actual bits over {}",
            what(),
            suite.traces()[b].benchmark,
            m.tp + m.fn_,
            m.decisions(),
            self.actual_bits[b],
            self.decisions[b]
        ))
    }
}

/// Compares a sweep's matrices for `scheme` with `engine::run_scheme`,
/// which prepares each trace itself. `corrupt` perturbs the expected
/// result, which must make the check fail.
fn cross_check(
    suite: &Suite,
    scheme: &Scheme,
    got: &[ConfusionMatrix],
    corrupt: bool,
) -> Result<(), String> {
    for (b, bench) in suite.traces().iter().enumerate() {
        let mut expected = engine::run_scheme(&bench.trace, scheme);
        if corrupt && b == 0 {
            expected.tp += 1;
        }
        if got[b] != expected {
            return Err(format!(
                "{scheme} on {}: the sweep gave {:?}, run_scheme gives {:?}",
                bench.benchmark, got[b], expected
            ));
        }
    }
    Ok(())
}

/// The results of the reference pass, which must be whole.
fn complete<T>(outcome: SweepOutcome<T>) -> Result<Vec<T>, String> {
    outcome
        .into_complete()
        .map_err(|e| format!("reference pass failed: {e}"))
}

/// The harness's per-item evaluation timer (`csp_harness_eval_ns`); its
/// count, sum and maximum are exact.
fn harness_timer(kind: &str) -> Arc<csp_obs::Histogram> {
    csp_obs::global().histogram(
        "csp_harness_eval_ns",
        "Evaluation wall time per work item, by kind.",
        &[("kind", kind)],
    )
}

/// One measured pass.
struct Pass {
    traced: bool,
    wall_s: f64,
    decisions: f64,
    harness_s: f64,
    items: u64,
    busy_s: f64,
}

/// Repeats `pass` for the measured window, alternating untraced and
/// traced passes in a traced run, and calls `between` after each pass,
/// untimed. `pass` gets the id of the pass's root span and returns the
/// scheme-decisions it scored and the seconds spent in the runner call.
/// A traced run also counts the serving engine's shard threads alive
/// during its traced passes, which must be none.
fn measure(
    args: &Args,
    rec: &Recorder,
    kind: &str,
    report: &mut Report,
    between: &mut dyn FnMut() -> Result<(), String>,
    mut pass: impl FnMut(u64, &mut Report) -> Result<(f64, f64), String>,
) -> Result<Vec<Pass>, String> {
    let timer = harness_timer(kind);
    let sampler = args.trace.then(Sampler::start);
    let deadline = Instant::now() + args.window();
    let min = if args.trace {
        2 * MIN_PASSES
    } else {
        MIN_PASSES
    };
    let mut passes = Vec::new();
    while passes.len() < min || Instant::now() < deadline {
        let traced = args.trace && passes.len() % 2 == 1;
        rec.set_enabled(traced);
        if let Some(s) = &sampler {
            s.set_on(traced);
        }
        let before = timer.snapshot();
        let started = Instant::now();
        let root = rec.span("pass", 0);
        let (decisions, harness_s) = pass(root.id(), report)?;
        drop(root);
        let wall_s = started.elapsed().as_secs_f64();
        rec.set_enabled(false);
        if let Some(s) = &sampler {
            s.set_on(false);
        }
        let after = timer.snapshot();
        passes.push(Pass {
            traced,
            wall_s,
            decisions,
            harness_s,
            items: after.count() - before.count(),
            busy_s: after.sum.wrapping_sub(before.sum) as f64 / 1e9,
        });
        between()?;
    }
    if let Some(s) = sampler {
        report.set("serve.shard_threads", s.shard_threads() as f64);
    }
    Ok(passes)
}

/// End-to-end figures of an untraced run.
fn end_to_end(report: &mut Report, setup_s: f64, passes: &[Pass]) {
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let rates: Vec<f64> = passes.iter().map(|p| p.decisions / p.wall_s).collect();
    let item_us: Vec<f64> = passes
        .iter()
        .map(|p| p.busy_s * 1e6 / p.items.max(1) as f64)
        .collect();
    report.set("setup_s", setup_s);
    report.set("throughput_per_s", quantile(&rates, 1.0 - PASS_QUANTILE));
    report.set("latency_us", quantile(&item_us, PASS_QUANTILE));
    // A run holds too few passes for a percentile with ten samples beyond
    // it; the slowest passes are too exposed to host stalls to gate on, so
    // the tail is the upper quartile of pass times.
    report.set(
        "tail_latency_us",
        quantile(&walls, 1.0 - PASS_QUANTILE) * 1e6,
    );
    eprintln!(
        "[perfbench] {} passes: {:.3?} s; {:.4e} scheme-decisions/s; {:.1?} us per work item",
        passes.len(),
        walls,
        quantile(&rates, 1.0 - PASS_QUANTILE),
        item_us
    );
}

/// Per-layer figures of a traced run: the runner's items from the traced
/// passes, everything else from the spans (the breakdown's among them).
#[allow(clippy::too_many_arguments)]
fn layers(
    report: &mut Report,
    rec: &Recorder,
    args: &Args,
    passes: &[Pass],
    kind: &str,
    setup_s: f64,
    events: u64,
    cached_streams: usize,
) -> Result<(), String> {
    let pick = |traced: bool, f: fn(&Pass) -> f64| {
        median(
            &passes
                .iter()
                .filter(|p| p.traced == traced)
                .map(f)
                .collect::<Vec<_>>(),
        )
    };
    let items = pick(true, |p| p.items as f64);
    let wall = pick(true, |p| p.harness_s);
    let busy = pick(true, |p| p.busy_s);
    let parallel = workers().min(items as usize).max(1) as f64;
    report.set("workloads.generate_s", setup_s);
    report.set("workloads.events", events as f64);
    report.set("process.peak_rss_mb", stats::peak_rss_mb());
    report.set("harness.items", items);
    report.set("harness.wall_s", wall);
    report.set("harness.item_busy_s", busy);
    report.set(
        "harness.slowest_item_s",
        harness_timer(kind).snapshot().max as f64 / 1e9,
    );
    report.set("harness.parallel_eff", busy / (wall * parallel));
    report.set("core.cached_streams", cached_streams as f64);
    let untraced_s = pick(false, |p| p.wall_s);
    report.set(
        "trace.overhead_frac",
        pick(true, |p| p.wall_s) / untraced_s - 1.0,
    );
    report.set("trace.runs", passes.len() as f64);
    let all = rec.spans();
    let totals = spans::totals_by_name(&all);
    let secs = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e9);
    let count = |name: &str| totals.get(name).map_or(0.0, |t| t.count as f64);
    report.set("core.resolve_s", secs("core.resolve"));
    report.set("core.keystream_s", secs("core.keystream"));
    report.set("core.keystreams", count("core.keystream"));
    report.set("core.family_s", secs("core.family"));
    report.set("core.family_passes", count("core.family"));
    report.set("core.scheme_history_s", secs("core.scheme_history"));
    report.set("core.scheme_pas_s", secs("core.scheme_pas"));
    report.set(
        "core.scheme_evals",
        count("core.scheme_history") + count("core.scheme_pas"),
    );
    span_metrics(report, rec, args, secs("breakdown") / untraced_s)
}

/// Prepares every trace, each under a `core.resolve` span.
fn resolve<'s>(rec: &Recorder, suite: &'s Suite, parent: u64) -> Vec<PreparedTrace<'s>> {
    suite
        .traces()
        .iter()
        .map(|b| {
            let _s = rec.span("core.resolve", parent);
            PreparedTrace::new(&b.trace)
        })
        .collect()
}

/// `design_sweep`: `runner::sweep_families` over `DesignSpace::paper()`
/// (324 index specs × {direct, forwarded} to depth 4), then the Tables
/// 8–11 ranking.
pub fn design_sweep(args: &Args) -> Result<Report, String> {
    let scale = args.scale.unwrap_or(SWEEP_SCALE);
    let (suite, mut setup) = Setup::first(|| generate(scale, args.seed).map(|(suite, _)| suite))?;
    let space = DesignSpace::paper();
    let indexes = space.index_specs();
    let updates = space.updates.clone();
    let per_trace: Vec<u64> = suite
        .traces()
        .iter()
        .map(|b| b.trace.len() as u64)
        .collect();

    let reference = complete(runner::try_sweep_families(
        &suite, &indexes, &updates, MAX_DEPTH,
    ))?;
    check_families(&suite, &reference, args)?;
    let ranking = rank(&reference, &space);
    let digest = family_digest(&reference, &ranking);
    eprintln!(
        "[perfbench] design_sweep seed {}: digest {digest:016x} over {} cells; top PVP (direct): {}",
        args.seed,
        reference.len(),
        ranking[0].split(',').next().unwrap_or("")
    );

    let rec = Recorder::new();
    let mut report = Report::new();
    let mut between = || setup.again();
    let passes = measure(
        args,
        &rec,
        "family_group",
        &mut report,
        &mut between,
        |parent, report| {
            let started = Instant::now();
            let outcome = {
                let _s = rec.span("harness.sweep_families", parent);
                runner::try_sweep_families(&suite, &indexes, &updates, MAX_DEPTH)
            };
            let harness_s = started.elapsed().as_secs_f64();
            report.count(outcome.results.len() as u64, outcome.failures.len() as u64);
            let whole = outcome.is_complete();
            let cells: Vec<FamilyCell> = outcome.results.into_iter().flatten().collect();
            let ranking = {
                let _s = rec.span("harness.rank", parent);
                rank(&cells, &space)
            };
            if whole && family_digest(&cells, &ranking) != digest {
                return Err("a sweep pass disagrees with the checked reference pass".to_string());
            }
            Ok((family_decisions(&cells, &per_trace), harness_s))
        },
    )?;
    let setup_s = setup.median()?;
    if args.trace {
        let cached = sweep_breakdown(&rec, &suite, &indexes, &updates, &reference)?;
        layers(
            &mut report,
            &rec,
            args,
            &passes,
            "family_group",
            setup_s,
            events(&suite),
            cached,
        )?;
    } else {
        end_to_end(&mut report, setup_s, &passes);
    }
    Ok(report)
}

/// Checks every matrix of a sweep against the ground truth, and a seeded
/// sample of cells against `engine::run_scheme`.
fn check_families(suite: &Suite, cells: &[FamilyCell], args: &Args) -> Result<(), String> {
    let truth = Truth::of(suite);
    for cell in cells {
        for (b, result) in cell.per_benchmark.iter().enumerate() {
            for m in result.union.iter().chain(&result.inter) {
                truth.check(suite, b, m, || {
                    format!("family({})[{}]", cell.index, cell.update)
                })?;
            }
        }
    }
    let mut rng = Rng::new(args.seed);
    for k in 0..SAMPLED_CHECKS {
        let cell = &cells[rng.below(cells.len())];
        let depth = 2 + rng.below(MAX_DEPTH - 1);
        let inter = rng.below(2) == 1;
        let function = if inter {
            PredictionFunction::Inter
        } else {
            PredictionFunction::Union
        };
        let got: Vec<ConfusionMatrix> = cell
            .per_benchmark
            .iter()
            .map(|r| {
                if inter {
                    r.inter[depth - 1]
                } else {
                    r.union[depth - 1]
                }
            })
            .collect();
        let scheme = Scheme::new(function, cell.index, depth, cell.update);
        cross_check(suite, &scheme, &got, args.corrupt_expected && k == 0)?;
    }
    Ok(())
}

fn family_digest(cells: &[FamilyCell], ranking: &[String]) -> u64 {
    let mut digest = Digest::default();
    for cell in cells {
        for r in &cell.per_benchmark {
            for m in r.union.iter().chain(&r.inter) {
                digest.matrix(m);
            }
        }
    }
    for table in ranking {
        digest.bytes(table.as_bytes());
    }
    digest.value()
}

/// Scheme-decisions a sweep scored: trace events × schemes evaluated
/// (every depth of both families per cell).
fn family_decisions(cells: &[FamilyCell], per_trace: &[u64]) -> f64 {
    cells
        .iter()
        .flat_map(|cell| cell.per_benchmark.iter().zip(per_trace))
        .map(|(r, &events)| ((r.union.len() + r.inter.len()) as u64 * events) as f64)
        .sum()
}

/// Tables 8–11: the top ten in-budget schemes by PVP and by sensitivity,
/// for direct and forwarded update, as comma-joined notation.
fn rank(cells: &[FamilyCell], space: &DesignSpace) -> Vec<String> {
    let mut all: Vec<SchemeStats> = Vec::new();
    for cell in cells {
        for &f in &space.functions {
            for &d in &space.depths {
                // inter at depth 1 is union at depth 1 (`last`).
                if f == PredictionFunction::Inter && d == 1 {
                    continue;
                }
                if let Ok(stats) = cell.try_stats(f, d) {
                    if stats.size_log2() <= space.max_size_log2 {
                        all.push(stats);
                    }
                }
            }
        }
    }
    let mut tables = Vec::new();
    for update in [UpdateMode::Direct, UpdateMode::Forwarded] {
        for by_pvp in [true, false] {
            let key = |s: &SchemeStats| {
                if by_pvp {
                    (s.mean.pvp, s.mean.sensitivity)
                } else {
                    (s.mean.sensitivity, s.mean.pvp)
                }
            };
            let mut ranked: Vec<&SchemeStats> =
                all.iter().filter(|s| s.scheme.update == update).collect();
            ranked.sort_by(|a, b| key(b).partial_cmp(&key(a)).unwrap_or(CmpOrdering::Equal));
            let top: Vec<String> = ranked
                .iter()
                .take(10)
                .map(|s| s.scheme.to_string())
                .collect();
            tables.push(top.join(","));
        }
    }
    tables
}

/// Replays the sweep's work through the core layer's own calls on the
/// same number of threads, so that trace resolution, key streams and the
/// family kernel are timed apart. Its results must equal the reference
/// pass. Returns the most key streams cached at once.
fn sweep_breakdown(
    rec: &Recorder,
    suite: &Suite,
    indexes: &[IndexSpec],
    updates: &[UpdateMode],
    reference: &[FamilyCell],
) -> Result<usize, String> {
    rec.set_enabled(true);
    let root = rec.span("breakdown", 0);
    let root_id = root.id();
    let prepared = resolve(rec, suite, root_id);
    let n_bench = prepared.len();
    let slots: Vec<OnceLock<Vec<FamilyResult>>> = (0..indexes.len() * n_bench)
        .map(|_| OnceLock::new())
        .collect();
    let next = AtomicUsize::new(0);
    let cached = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers() {
            s.spawn(|| loop {
                let g = next.fetch_add(1, Ordering::Relaxed);
                if g >= slots.len() {
                    break;
                }
                let (index, pt) = (indexes[g / n_bench], &prepared[g % n_bench]);
                let group = rec.span("core.group", root_id);
                {
                    let _s = rec.span("core.keystream", group.id());
                    let _ = pt.key_stream(index);
                }
                let out = updates
                    .iter()
                    .map(|&u| {
                        let _s = rec.span("core.family", group.id());
                        engine::run_history_family_prepared(pt, index, u, MAX_DEPTH)
                    })
                    .collect();
                let live: usize = prepared.iter().map(PreparedTrace::cached_streams).sum();
                cached.fetch_max(live, Ordering::Relaxed);
                pt.evict_stream(index);
                let _ = slots[g].set(out);
            });
        }
    });
    drop(root);
    rec.set_enabled(false);
    for (c, cell) in reference.iter().enumerate() {
        let (i, u) = (c / updates.len(), c % updates.len());
        for (b, expected) in cell.per_benchmark.iter().enumerate() {
            if slots[i * n_bench + b].get().map(|r| &r[u]) != Some(expected) {
                return Err(format!(
                    "the breakdown disagrees with the sweep on family({})[{}]",
                    cell.index, cell.update
                ));
            }
        }
    }
    Ok(cached.into_inner())
}

/// The Figure 6/8/9 grids: 16 indexes × {last, union2, inter4} plus the
/// 16 PAs indexes, each under all three update modes (192 schemes).
fn grid_schemes() -> Vec<Scheme> {
    let mut out = Vec::new();
    for ix in figure6_index_grid() {
        for (f, d) in [
            (PredictionFunction::Last, 1),
            (PredictionFunction::Union, 2),
            (PredictionFunction::Inter, 4),
        ] {
            for u in UpdateMode::ALL {
                out.push(Scheme::new(f, ix, d, u));
            }
        }
    }
    for ix in figure8_index_grid() {
        for u in UpdateMode::ALL {
            out.push(Scheme::new(PredictionFunction::Pas, ix, 1, u));
        }
    }
    out
}

/// `scheme_grid`: `runner::evaluate_schemes` over the 192 grid schemes.
pub fn scheme_grid(args: &Args) -> Result<Report, String> {
    let scale = args.scale.unwrap_or(GRID_SCALE);
    let (suite, mut setup) = Setup::first(|| generate(scale, args.seed).map(|(suite, _)| suite))?;
    let schemes = grid_schemes();
    let total_events = events(&suite);

    let reference = complete(runner::try_evaluate_schemes(&suite, &schemes))?;
    check_schemes(&suite, &reference, args)?;
    let digest = scheme_digest(&reference);
    eprintln!(
        "[perfbench] scheme_grid seed {}: digest {digest:016x} over {} schemes",
        args.seed,
        reference.len()
    );

    let rec = Recorder::new();
    let mut report = Report::new();
    let mut between = || setup.again();
    let passes = measure(
        args,
        &rec,
        "scheme",
        &mut report,
        &mut between,
        |parent, report| {
            let started = Instant::now();
            let outcome = {
                let _s = rec.span("harness.evaluate_schemes", parent);
                runner::try_evaluate_schemes(&suite, &schemes)
            };
            let harness_s = started.elapsed().as_secs_f64();
            report.count(outcome.results.len() as u64, outcome.failures.len() as u64);
            let whole = outcome.is_complete();
            let stats: Vec<SchemeStats> = outcome.results.into_iter().flatten().collect();
            if whole && scheme_digest(&stats) != digest {
                return Err("a grid pass disagrees with the checked reference pass".to_string());
            }
            Ok((stats.len() as f64 * total_events as f64, harness_s))
        },
    )?;
    let setup_s = setup.median()?;
    if args.trace {
        let cached = grid_breakdown(&rec, &suite, &schemes, &reference)?;
        layers(
            &mut report,
            &rec,
            args,
            &passes,
            "scheme",
            setup_s,
            total_events,
            cached,
        )?;
    } else {
        end_to_end(&mut report, setup_s, &passes);
    }
    Ok(report)
}

/// Checks every scheme's matrices against the ground truth, and a seeded
/// sample against `engine::run_scheme`.
fn check_schemes(suite: &Suite, stats: &[SchemeStats], args: &Args) -> Result<(), String> {
    let truth = Truth::of(suite);
    for s in stats {
        for (b, m) in s.per_benchmark.iter().enumerate() {
            truth.check(suite, b, m, || s.scheme.to_string())?;
        }
    }
    let mut rng = Rng::new(args.seed);
    for k in 0..SAMPLED_CHECKS {
        let s = &stats[rng.below(stats.len())];
        cross_check(
            suite,
            &s.scheme,
            &s.per_benchmark,
            args.corrupt_expected && k == 0,
        )?;
    }
    Ok(())
}

fn scheme_digest(stats: &[SchemeStats]) -> u64 {
    let mut digest = Digest::default();
    for s in stats {
        digest.bytes(s.scheme.to_string().as_bytes());
        for m in &s.per_benchmark {
            digest.matrix(m);
        }
    }
    digest.value()
}

/// The grid's work through the core layer's own calls: key stream, then
/// the single-scheme kernel (history or PAs), per scheme and trace. Its
/// results must equal the reference pass. Returns the most key streams
/// cached at once.
fn grid_breakdown(
    rec: &Recorder,
    suite: &Suite,
    schemes: &[Scheme],
    reference: &[SchemeStats],
) -> Result<usize, String> {
    rec.set_enabled(true);
    let root = rec.span("breakdown", 0);
    let root_id = root.id();
    let prepared = resolve(rec, suite, root_id);
    let slots: Vec<OnceLock<Vec<ConfusionMatrix>>> =
        schemes.iter().map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let cached = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers() {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= schemes.len() {
                    break;
                }
                let scheme = &schemes[i];
                let kernel = if scheme.function == PredictionFunction::Pas {
                    "core.scheme_pas"
                } else {
                    "core.scheme_history"
                };
                let group = rec.span("core.group", root_id);
                let out = prepared
                    .iter()
                    .map(|pt| {
                        {
                            let _s = rec.span("core.keystream", group.id());
                            let _ = pt.key_stream(scheme.index);
                        }
                        let _s = rec.span(kernel, group.id());
                        engine::run_scheme_prepared(pt, scheme)
                    })
                    .collect();
                let live: usize = prepared.iter().map(PreparedTrace::cached_streams).sum();
                cached.fetch_max(live, Ordering::Relaxed);
                let _ = slots[i].set(out);
            });
        }
    });
    drop(root);
    rec.set_enabled(false);
    for (slot, expected) in slots.iter().zip(reference) {
        if slot.get() != Some(&expected.per_benchmark) {
            return Err(format!(
                "the breakdown disagrees with the grid on {}",
                expected.scheme
            ));
        }
    }
    Ok(cached.into_inner())
}
