//! Parallel evaluation of schemes over the benchmark suite.
//!
//! # Fault tolerance
//!
//! Sweep workers are *panic-isolated*: each work item runs under
//! [`std::panic::catch_unwind`] with a retry-once policy (a second panic on
//! the same item marks it failed, it does not bring down the sweep). Results
//! are collected into lock-free per-slot cells ([`std::sync::OnceLock`]) —
//! no mutex, so a panicking worker can never poison the collection path.
//! The `try_*` entry points return a [`SweepOutcome`] carrying both the
//! surviving results and the per-item failures; the legacy entry points
//! ([`evaluate_schemes`], [`sweep_families`]) keep their infallible
//! signatures and document the (now much narrower) panic they turn
//! failures into.
//!
//! Long sweeps can additionally be *checkpointed*
//! ([`evaluate_schemes_checkpointed`], [`sweep_families_checkpointed`]):
//! completed cells are persisted periodically through a
//! [`crate::checkpoint::SweepCheckpoint`], and a restarted sweep resumes
//! from the log with bitwise-identical results.

use crate::checkpoint::{CheckpointPayload, Fingerprint, SweepCheckpoint};
use crate::error::HarnessError;
use csp_core::engine::{
    run_history_family_prepared, run_scheme, run_scheme_prepared, FamilyResult,
};
use csp_core::{IndexSpec, PredictionFunction, PreparedTrace, Scheme, UpdateMode};
use csp_metrics::{ConfusionMatrix, Screening};
use csp_workloads::{generate_suite, Benchmark, BenchmarkTrace};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The wall-time histogram for one kind of evaluation work item, in the
/// process-global metrics registry (`csp_harness_eval_ns{kind=...}`).
fn eval_timer(kind: &'static str) -> std::sync::Arc<csp_obs::Histogram> {
    csp_obs::global().histogram(
        "csp_harness_eval_ns",
        "Evaluation wall time per work item, by kind.",
        &[("kind", kind)],
    )
}

/// The benchmark suite an experiment session runs against, generated once
/// and shared by every experiment.
#[derive(Debug)]
pub struct Suite {
    traces: Vec<BenchmarkTrace>,
    scale: f64,
    seed: u64,
}

impl Suite {
    /// Generates the seven-benchmark suite at `scale` with `seed`.
    pub fn generate(scale: f64, seed: u64) -> Self {
        Suite {
            traces: generate_suite(scale, seed),
            scale,
            seed,
        }
    }

    /// Assembles a suite from pre-generated traces (e.g. a
    /// [`crate::cache::TraceCache`]). The traces must cover every
    /// benchmark in [`Benchmark::ALL`] order — the order every
    /// per-benchmark result vector in the harness is indexed by.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::MissingBenchmark`] naming the first
    /// benchmark that is absent or out of order.
    pub fn from_parts(
        traces: Vec<BenchmarkTrace>,
        scale: f64,
        seed: u64,
    ) -> Result<Self, HarnessError> {
        for (i, &expected) in Benchmark::ALL.iter().enumerate() {
            if traces.get(i).map(|t| t.benchmark) != Some(expected) {
                return Err(HarnessError::MissingBenchmark(expected));
            }
        }
        Ok(Suite {
            traces,
            scale,
            seed,
        })
    }

    /// The traces, in [`Benchmark::ALL`] order.
    pub fn traces(&self) -> &[BenchmarkTrace] {
        &self.traces
    }

    /// The scale the suite was generated at.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The seed the suite was generated with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The trace for one benchmark.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::MissingBenchmark`] if the suite does not
    /// contain `benchmark` (impossible for suites built through
    /// [`Suite::generate`] or [`Suite::from_parts`], both of which
    /// guarantee full coverage).
    pub fn try_trace(&self, benchmark: Benchmark) -> Result<&BenchmarkTrace, HarnessError> {
        self.traces
            .iter()
            .find(|t| t.benchmark == benchmark)
            .ok_or(HarnessError::MissingBenchmark(benchmark))
    }

    /// The trace for one benchmark.
    ///
    /// # Panics
    ///
    /// Panics if the suite does not contain `benchmark`; both
    /// constructors guarantee it does, so this is unreachable short of a
    /// harness bug. Fallible callers can use [`Suite::try_trace`].
    pub fn trace(&self, benchmark: Benchmark) -> &BenchmarkTrace {
        match self.try_trace(benchmark) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }

    /// A fingerprint of everything the suite's results depend on, used to
    /// key sweep checkpoints.
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint::new("suite-v1")
            .push_u64(self.scale.to_bits())
            .push_u64(self.seed)
            .push_u64(self.traces.len() as u64)
    }
}

/// The suite with every trace prepared for repeated evaluation: actuals
/// resolved once per benchmark, key streams computed once per
/// [`IndexSpec`] and shared (thread-safely) by every scheme of a sweep.
///
/// Building one of these up front is what turns an N-scheme sweep from N
/// full trace resolutions into one; all sweep entry points construct one
/// internally, and callers orchestrating several sweeps over the same
/// suite can build their own and reuse it.
#[derive(Debug)]
pub struct PreparedSuite<'s> {
    prepared: Vec<PreparedTrace<'s>>,
}

impl<'s> PreparedSuite<'s> {
    /// Prepares every trace of `suite` (one resolution pass per
    /// benchmark).
    pub fn new(suite: &'s Suite) -> Self {
        PreparedSuite {
            prepared: suite
                .traces
                .iter()
                .map(|b| PreparedTrace::new(&b.trace))
                .collect(),
        }
    }

    /// The prepared traces, in [`Benchmark::ALL`] order.
    pub fn traces(&self) -> &[PreparedTrace<'s>] {
        &self.prepared
    }
}

/// Evaluation results for one scheme over the whole suite.
#[derive(Clone, Debug)]
pub struct SchemeStats {
    /// The scheme evaluated.
    pub scheme: Scheme,
    /// Per-benchmark confusion matrices, in [`Benchmark::ALL`] order.
    pub per_benchmark: Vec<ConfusionMatrix>,
    /// Arithmetic mean of the per-benchmark screening rates (the paper's
    /// aggregation).
    pub mean: Screening,
}

impl SchemeStats {
    pub(crate) fn from_matrices(scheme: Scheme, per_benchmark: Vec<ConfusionMatrix>) -> Self {
        let screenings: Vec<Screening> = per_benchmark.iter().map(|m| m.screening()).collect();
        let mean = Screening::mean(&screenings).unwrap_or_default();
        SchemeStats {
            scheme,
            per_benchmark,
            mean,
        }
    }

    /// The scheme's cost figure on the 16-node machine.
    pub fn size_log2(&self) -> u32 {
        self.scheme.size_log2_bits(16)
    }

    /// The screening rates for one benchmark.
    pub fn screening_for(&self, idx: usize) -> Screening {
        self.per_benchmark[idx].screening()
    }
}

/// One sweep item that panicked twice (original attempt plus retry).
#[derive(Clone, Debug)]
pub struct SweepFailure {
    /// Index of the work item in the sweep's item list.
    pub index: usize,
    /// Human-readable name of the item (scheme notation, cell spec, ...).
    pub label: String,
    /// The panic payload, if it was a string.
    pub message: String,
}

/// The outcome of a panic-isolated sweep: every slot either a result or
/// accounted for in `failures`.
#[derive(Debug)]
pub struct SweepOutcome<T> {
    /// Per-item results, index-aligned with the sweep's item list; `None`
    /// exactly where `failures` has an entry.
    pub results: Vec<Option<T>>,
    /// The items that panicked twice.
    pub failures: Vec<SweepFailure>,
}

impl<T> SweepOutcome<T> {
    /// `true` when every item produced a result.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// The successful `(index, result)` pairs.
    pub fn successes(&self) -> impl Iterator<Item = (usize, &T)> {
        self.results
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|v| (i, v)))
    }

    /// Unwraps a fully successful sweep into its results.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::WorkerPanic`] listing the failed items if
    /// any worker panicked twice.
    pub fn into_complete(self) -> Result<Vec<T>, HarnessError> {
        if let Some(first) = self.failures.first() {
            return Err(HarnessError::WorkerPanic {
                message: first.message.clone(),
                labels: self.failures.iter().map(|f| f.label.clone()).collect(),
            });
        }
        // No failures means every slot is filled, by construction.
        Ok(self.results.into_iter().flatten().collect())
    }
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The panic-isolated work-stealing core: runs `job` for each index in
/// `todo` (indices into a `total`-slot result vector), catching panics and
/// retrying each failed item once. Results land in per-slot `OnceLock`s —
/// lock-free, so no poisoning and no contention on collection.
fn run_indices<T, J, L>(total: usize, todo: &[usize], job: &J, label: &L) -> SweepOutcome<T>
where
    T: Send + Sync,
    J: Fn(usize) -> T + Sync,
    L: Fn(usize) -> String + Sync,
{
    let threads = worker_count(todo.len());
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<Result<T, SweepFailure>>> =
        (0..total).map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= todo.len() {
                    break;
                }
                let i = todo[k];
                let attempt = || catch_unwind(AssertUnwindSafe(|| job(i)));
                let outcome = match attempt() {
                    Ok(v) => Ok(v),
                    // Retry once: transient failures (e.g. allocation
                    // pressure) get a second chance; deterministic
                    // panics fail cleanly.
                    Err(_) => attempt().map_err(|payload| SweepFailure {
                        index: i,
                        label: label(i),
                        message: panic_message(payload.as_ref()),
                    }),
                };
                // Each index is claimed exactly once, so the slot is
                // always empty; a second set is a harness bug but not
                // worth panicking a worker over.
                let _ = slots[i].set(outcome);
            });
        }
    });
    let mut results: Vec<Option<T>> = Vec::with_capacity(total);
    let mut failures = Vec::new();
    for slot in slots {
        match slot.into_inner() {
            Some(Ok(v)) => results.push(Some(v)),
            Some(Err(f)) => {
                failures.push(f);
                results.push(None);
            }
            None => results.push(None), // index was not in `todo`
        }
    }
    SweepOutcome { results, failures }
}

/// Runs a checkpointed sweep: resumes completed cells from `ckpt`, runs
/// the remainder in panic-isolated chunks, and appends each chunk's
/// results to the log before starting the next (periodic persistence — an
/// interrupted run loses at most one chunk of work).
fn run_checkpointed<T, J, L>(
    total: usize,
    ckpt: &mut SweepCheckpoint<T>,
    done: Vec<(usize, T)>,
    job: &J,
    label: &L,
) -> Result<SweepOutcome<T>, HarnessError>
where
    T: CheckpointPayload + Send + Sync,
    J: Fn(usize) -> T + Sync,
    L: Fn(usize) -> String + Sync,
{
    let mut results: Vec<Option<T>> = (0..total).map(|_| None).collect();
    for (i, v) in done {
        if i < total {
            results[i] = Some(v);
        }
    }
    let todo: Vec<usize> = (0..total).filter(|&i| results[i].is_none()).collect();
    let chunk_size = (worker_count(todo.len()) * 4).max(1);
    let mut failures = Vec::new();
    for chunk in todo.chunks(chunk_size) {
        let outcome = run_indices(total, chunk, job, label);
        for (i, r) in outcome.results.into_iter().enumerate() {
            if let Some(v) = r {
                ckpt.record(i, &v)?;
                results[i] = Some(v);
            }
        }
        failures.extend(outcome.failures);
    }
    Ok(SweepOutcome { results, failures })
}

/// Evaluates one scheme over every benchmark (sequentially, preparing
/// each trace per call; sweeps should prepare once via [`PreparedSuite`]
/// / [`evaluate_scheme_prepared`]).
pub fn evaluate_scheme(suite: &Suite, scheme: &Scheme) -> SchemeStats {
    let per_benchmark = suite
        .traces
        .iter()
        .map(|b| run_scheme(&b.trace, scheme))
        .collect();
    SchemeStats::from_matrices(*scheme, per_benchmark)
}

/// Evaluates one scheme over an already-prepared suite. Bit-identical to
/// [`evaluate_scheme`]; the trace resolutions and key streams come from
/// `prepared`'s shared columns.
pub fn evaluate_scheme_prepared(prepared: &PreparedSuite<'_>, scheme: &Scheme) -> SchemeStats {
    let started = Instant::now();
    let per_benchmark = prepared
        .traces()
        .iter()
        .map(|pt| run_scheme_prepared(pt, scheme))
        .collect();
    let stats = SchemeStats::from_matrices(*scheme, per_benchmark);
    eval_timer("scheme").record_duration(started.elapsed());
    stats
}

/// Evaluates many schemes in parallel with panic isolation: a scheme whose
/// evaluation panics (twice) is reported in the outcome's `failures`, the
/// rest still complete. The suite is prepared once and shared by every
/// worker.
///
/// Work is planned as one item per `(index, benchmark)` group, index-major
/// over the list's distinct indexes: each group builds the index's key
/// stream once, scores every listed scheme on that index while the stream
/// is hot, then evicts it. Results fan out to the schemes in list order (a
/// scheme listed twice is scored once). A group that panics twice fails
/// every scheme of its index, with the group's panic message.
pub fn try_evaluate_schemes(suite: &Suite, schemes: &[Scheme]) -> SweepOutcome<SchemeStats> {
    evaluate_grouped(suite, schemes, &|pt, scheme| {
        run_scheme_prepared(pt, scheme)
    })
}

/// [`try_evaluate_schemes`] with the per-scheme work as a parameter.
fn evaluate_grouped<S>(suite: &Suite, schemes: &[Scheme], score: &S) -> SweepOutcome<SchemeStats>
where
    S: Fn(&PreparedTrace<'_>, &Scheme) -> ConfusionMatrix + Sync,
{
    // The distinct indexes in list order, each with its distinct schemes.
    let mut indexes: Vec<IndexSpec> = Vec::new();
    let mut columns: Vec<Vec<Scheme>> = Vec::new();
    let mut position: HashMap<IndexSpec, usize> = HashMap::new();
    let cells = schemes
        .iter()
        .map(|scheme| {
            let i = *position.entry(scheme.index).or_insert_with(|| {
                indexes.push(scheme.index);
                columns.push(Vec::new());
                indexes.len() - 1
            });
            let column = &mut columns[i];
            let j = column.iter().position(|s| s == scheme).unwrap_or_else(|| {
                column.push(*scheme);
                column.len() - 1
            });
            (i, j)
        })
        .collect();
    let plan = GroupPlan {
        indexes: &indexes,
        cells,
        classify: false,
        kind: "scheme",
    };
    sweep_groups(
        suite,
        &plan,
        &|pt, i| columns[i].iter().map(|s| score(pt, s)).collect(),
        |c, per_benchmark| SchemeStats::from_matrices(schemes[c], per_benchmark),
        |c| schemes[c].to_string(),
    )
}

/// Evaluates many schemes in parallel (work-stealing over a shared index).
///
/// # Panics
///
/// Panics if any scheme's evaluation panics twice in a row (see
/// [`try_evaluate_schemes`] for the fallible form).
pub fn evaluate_schemes(suite: &Suite, schemes: &[Scheme]) -> Vec<SchemeStats> {
    match try_evaluate_schemes(suite, schemes).into_complete() {
        Ok(v) => v,
        Err(e) => panic!("{e}"),
    }
}

/// [`try_evaluate_schemes`] with a resumable checkpoint at `path`.
///
/// The checkpoint is keyed by the suite and scheme list: resuming with a
/// different suite or scheme set restarts from scratch rather than mixing
/// results. A resumed sweep's results are bitwise identical to an
/// uninterrupted run's.
///
/// # Errors
///
/// Returns [`HarnessError::Io`] on checkpoint failures. Worker panics
/// are *not* errors; they are reported in the outcome.
pub fn evaluate_schemes_checkpointed(
    suite: &Suite,
    schemes: &[Scheme],
    path: &Path,
) -> Result<SweepOutcome<SchemeStats>, HarnessError> {
    let mut fp = suite.fingerprint().push(b"schemes-v1");
    for s in schemes {
        fp = fp.push(s.to_string().as_bytes());
    }
    let (mut ckpt, done) = SweepCheckpoint::open(path, fp.finish())?;
    let prepared = PreparedSuite::new(suite);
    run_checkpointed(
        schemes.len(),
        &mut ckpt,
        done,
        &|i| evaluate_scheme_prepared(&prepared, &schemes[i]),
        &|i| schemes[i].to_string(),
    )
}

/// One cell of a family sweep: all `union`/`inter` depths for one
/// `(index, update)` point, per benchmark.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FamilyCell {
    /// The index specification.
    pub index: IndexSpec,
    /// The update mode.
    pub update: UpdateMode,
    /// Per-benchmark family results, in [`Benchmark::ALL`] order.
    pub per_benchmark: Vec<FamilyResult>,
}

impl FamilyCell {
    /// Extracts the [`SchemeStats`] for `function` at `depth` (1-based).
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::MissingFamily`] for functions a family
    /// sweep does not evaluate (`pas`, `overlap-last`).
    ///
    /// # Panics
    ///
    /// Panics if `depth` exceeds the sweep's `max_depth` (a caller bug:
    /// the sweep never produced that depth), or if `depth != 1` for
    /// `last`.
    pub fn try_stats(
        &self,
        function: PredictionFunction,
        depth: usize,
    ) -> Result<SchemeStats, HarnessError> {
        let matrices: Vec<ConfusionMatrix> = self
            .per_benchmark
            .iter()
            .map(|f| match function {
                PredictionFunction::Union => Ok(f.union[depth - 1]),
                PredictionFunction::Inter => Ok(f.inter[depth - 1]),
                PredictionFunction::Last => {
                    assert_eq!(depth, 1, "last prediction has a fixed depth of 1");
                    Ok(f.union[0])
                }
                PredictionFunction::Pas | PredictionFunction::OverlapLast => {
                    Err(HarnessError::MissingFamily(function))
                }
            })
            .collect::<Result<_, _>>()?;
        let scheme = Scheme::new(function, self.index, depth, self.update);
        Ok(SchemeStats::from_matrices(scheme, matrices))
    }

    /// Extracts the [`SchemeStats`] for `function` at `depth` (1-based).
    ///
    /// # Panics
    ///
    /// Panics where [`FamilyCell::try_stats`] errors.
    pub fn stats(&self, function: PredictionFunction, depth: usize) -> SchemeStats {
        match self.try_stats(function, depth) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// Mean screening across benchmarks for `function` at `depth`.
    pub fn mean(&self, function: PredictionFunction, depth: usize) -> Screening {
        self.stats(function, depth).mean
    }
}

/// The `(index, update)` grid of a family sweep, in sweep order.
fn family_cells(indexes: &[IndexSpec], updates: &[UpdateMode]) -> Vec<(IndexSpec, UpdateMode)> {
    indexes
        .iter()
        .flat_map(|&ix| updates.iter().map(move |&u| (ix, u)))
        .collect()
}

fn family_job<'a>(
    prepared: &'a PreparedSuite<'a>,
    cells: &'a [(IndexSpec, UpdateMode)],
    max_depth: usize,
) -> impl Fn(usize) -> FamilyCell + Sync + 'a {
    move |i| {
        let started = Instant::now();
        let (index, update) = cells[i];
        let per_benchmark = prepared
            .traces()
            .iter()
            .map(|pt| run_history_family_prepared(pt, index, update, max_depth))
            .collect();
        eval_timer("family_cell").record_duration(started.elapsed());
        FamilyCell {
            index,
            update,
            per_benchmark,
        }
    }
}

fn family_label<'a>(cells: &'a [(IndexSpec, UpdateMode)]) -> impl Fn(usize) -> String + Sync + 'a {
    move |i| {
        let (index, update) = cells[i];
        format!("family({index})[{update}]")
    }
}

/// Sweeps the `union`/`inter` family over every `(index, update)` pair in
/// parallel with panic isolation. The depth dimension comes for free
/// (single pass per cell).
///
/// Work is planned as one item per `(index, benchmark)` group, on the
/// slot partitions the indexes induce on each trace. The first group to
/// reach a benchmark classifies its index list with
/// [`PreparedTrace::partition_classes`]: specs with the same partition
/// score identically, so only each class's representative (its first
/// index) scores, running its key stream through *every* update mode
/// while the stream is hot in cache; the class's other groups return at
/// once. Each representative's results fan out to every cell of its
/// class. A group that panics twice fails every cell of its class, with
/// the group's panic message.
pub fn try_sweep_families(
    suite: &Suite,
    indexes: &[IndexSpec],
    updates: &[UpdateMode],
    max_depth: usize,
) -> SweepOutcome<FamilyCell> {
    sweep_partitions(suite, indexes, updates, &|pt, index| {
        updates
            .iter()
            .map(|&u| run_history_family_prepared(pt, index, u, max_depth))
            .collect()
    })
}

/// [`try_sweep_families`] with the per-group work as a parameter:
/// `run_group` returns one [`FamilyResult`] per update mode, in `updates`
/// order.
fn sweep_partitions<G>(
    suite: &Suite,
    indexes: &[IndexSpec],
    updates: &[UpdateMode],
    run_group: &G,
) -> SweepOutcome<FamilyCell>
where
    G: Fn(&PreparedTrace<'_>, IndexSpec) -> Vec<FamilyResult> + Sync,
{
    let cells = family_cells(indexes, updates);
    let plan = GroupPlan {
        indexes,
        cells: (0..cells.len())
            .map(|c| (c / updates.len(), c % updates.len()))
            .collect(),
        classify: true,
        kind: "family_group",
    };
    sweep_groups(
        suite,
        &plan,
        &|pt, i| run_group(pt, indexes[i]),
        |c, per_benchmark| {
            let (index, update) = cells[c];
            FamilyCell {
                index,
                update,
                per_benchmark,
            }
        },
        |c| {
            let (index, update) = cells[c];
            format!("family({index})[{update}]")
        },
    )
}

/// A grouped sweep's plan (see [`sweep_groups`]).
struct GroupPlan<'a> {
    /// The distinct indexes, one group per index and benchmark.
    indexes: &'a [IndexSpec],
    /// Per output cell, `(i, j)`: the cell reads result `j` of index
    /// `i`'s groups.
    cells: Vec<(usize, usize)>,
    /// Whether indexes that induce the same slot partition on a benchmark
    /// share one group there.
    classify: bool,
    /// The `csp_harness_eval_ns` kind each scoring group is timed under.
    kind: &'static str,
}

/// Runs a grouped sweep: one panic-isolated work item per `(index,
/// benchmark)` group, index-major (group `g` is index `g / benchmarks` on
/// benchmark `g % benchmarks`). `run_group` gets the prepared trace and
/// the index's position and returns the index's results on that trace;
/// the group then evicts the index's key stream, which no other group
/// needs, keeping a long sweep's footprint at O(live groups).
///
/// With `plan.classify`, the first group to reach a benchmark classifies
/// the index list with [`PreparedTrace::partition_classes`]: specs with
/// the same partition score identically, so only each class's
/// representative (its first index) runs, and the class's other groups
/// return at once.
///
/// The groups then fan out to `plan.cells`, built by `cell` and named by
/// `label`. A cell exists iff every benchmark's group for its (class
/// representative's) index survived; otherwise it fails with the first
/// failed benchmark's message. Where a benchmark's classification never
/// finished, the cell's own group failed computing it.
fn sweep_groups<R, C, G>(
    suite: &Suite,
    plan: &GroupPlan<'_>,
    run_group: &G,
    cell: impl Fn(usize, Vec<R>) -> C,
    label: impl Fn(usize) -> String,
) -> SweepOutcome<C>
where
    R: Clone + Send + Sync,
    G: Fn(&PreparedTrace<'_>, usize) -> Vec<R> + Sync,
{
    if plan.cells.is_empty() {
        return SweepOutcome {
            results: Vec::new(),
            failures: Vec::new(),
        };
    }
    let indexes = plan.indexes;
    let prepared = PreparedSuite::new(suite);
    let n_bench = suite.traces.len();
    // Benchmark b's partition classes, computed by the first group that
    // needs them.
    let classes: Vec<OnceLock<Vec<usize>>> = (0..n_bench).map(|_| OnceLock::new()).collect();
    let n_groups = indexes.len() * n_bench;
    let todo: Vec<usize> = (0..n_groups).collect();
    let job = |g: usize| -> Vec<R> {
        let (i, b) = (g / n_bench, g % n_bench);
        let pt = &prepared.traces()[b];
        if plan.classify && classes[b].get_or_init(|| pt.partition_classes(indexes))[i] != i {
            return Vec::new();
        }
        let started = Instant::now();
        let out = run_group(pt, i);
        eval_timer(plan.kind).record_duration(started.elapsed());
        pt.evict_stream(indexes[i]);
        out
    };
    let group_label = |g: usize| -> String {
        format!(
            "group({})@{}",
            indexes[g / n_bench],
            suite.traces[g % n_bench].benchmark
        )
    };
    let grouped = run_indices(n_groups, &todo, &job, &group_label);

    let mut results = Vec::with_capacity(plan.cells.len());
    let mut failures = Vec::new();
    for (c, &(i, j)) in plan.cells.iter().enumerate() {
        let per_benchmark: Result<Vec<R>, String> = (0..n_bench)
            .map(|b| {
                let g = classes[b].get().map_or(i, |c| c[i]) * n_bench + b;
                grouped.results[g]
                    .as_ref()
                    .map(|group| group[j].clone())
                    .ok_or_else(|| {
                        let failed = grouped.failures.iter().find(|f| f.index == g);
                        failed.map_or_else(|| "group failed".to_string(), |f| f.message.clone())
                    })
            })
            .collect();
        match per_benchmark {
            Ok(per_benchmark) => results.push(Some(cell(c, per_benchmark))),
            Err(message) => {
                failures.push(SweepFailure {
                    index: c,
                    label: label(c),
                    message,
                });
                results.push(None);
            }
        }
    }
    SweepOutcome { results, failures }
}

/// Sweeps the `union`/`inter` family over every `(index, update)` pair, in
/// parallel. The depth dimension comes for free (single pass per cell).
///
/// # Panics
///
/// Panics if any cell's evaluation panics twice in a row (see
/// [`try_sweep_families`] for the fallible form).
pub fn sweep_families(
    suite: &Suite,
    indexes: &[IndexSpec],
    updates: &[UpdateMode],
    max_depth: usize,
) -> Vec<FamilyCell> {
    match try_sweep_families(suite, indexes, updates, max_depth).into_complete() {
        Ok(v) => v,
        Err(e) => panic!("{e}"),
    }
}

/// [`try_sweep_families`] with a resumable checkpoint at `path`.
///
/// Keyed by the suite and the full `(indexes, updates, max_depth)` grid;
/// a resumed sweep is bitwise identical to an uninterrupted one.
///
/// # Errors
///
/// Returns [`HarnessError::Io`] on checkpoint failures. Worker panics
/// are reported in the outcome, not as errors.
pub fn sweep_families_checkpointed(
    suite: &Suite,
    indexes: &[IndexSpec],
    updates: &[UpdateMode],
    max_depth: usize,
    path: &Path,
) -> Result<SweepOutcome<FamilyCell>, HarnessError> {
    let cells = family_cells(indexes, updates);
    let mut fp = suite
        .fingerprint()
        .push(b"families-v1")
        .push_u64(max_depth as u64);
    for (index, update) in &cells {
        fp = fp
            .push(format!("{index}").as_bytes())
            .push(format!("{update}").as_bytes());
    }
    let (mut ckpt, done) = SweepCheckpoint::open(path, fp.finish())?;
    // Per-cell job granularity keeps the fingerprint and log layout
    // identical to earlier versions (old checkpoints stay resumable); the
    // jobs still share one prepared suite, so resolutions and key streams
    // are paid once, not per cell.
    let prepared = PreparedSuite::new(suite);
    let job = family_job(&prepared, &cells, max_depth);
    let label = family_label(&cells);
    run_checkpointed(cells.len(), &mut ckpt, done, &job, &label)
}

fn worker_count(tasks: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(tasks.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_suite() -> Suite {
        Suite::generate(0.02, 11)
    }

    #[test]
    fn suite_has_all_benchmarks() {
        let s = tiny_suite();
        assert_eq!(s.traces().len(), 7);
        assert_eq!(s.trace(Benchmark::Gauss).benchmark, Benchmark::Gauss);
        assert!((s.scale() - 0.02).abs() < 1e-12);
        assert_eq!(s.seed(), 11);
    }

    #[test]
    fn from_parts_validates_coverage_and_order() {
        let s = tiny_suite();
        let mut traces = s.traces.clone();
        let rebuilt = Suite::from_parts(traces.clone(), 0.02, 11).expect("full set");
        assert_eq!(rebuilt.trace(Benchmark::Water).benchmark, Benchmark::Water);

        traces.swap(0, 1);
        let err = Suite::from_parts(traces.clone(), 0.02, 11).unwrap_err();
        assert!(matches!(err, HarnessError::MissingBenchmark(_)));

        traces.truncate(3);
        assert!(Suite::from_parts(traces, 0.02, 11).is_err());
    }

    #[test]
    fn try_trace_reports_missing_benchmark() {
        let s = tiny_suite();
        assert!(s.try_trace(Benchmark::Mp3d).is_ok());
        let partial = Suite {
            traces: Vec::new(),
            scale: 1.0,
            seed: 0,
        };
        let err = partial.try_trace(Benchmark::Mp3d).unwrap_err();
        assert!(err.to_string().contains("mp3d"), "{err}");
    }

    #[test]
    fn parallel_matches_sequential() {
        let suite = tiny_suite();
        let schemes: Vec<Scheme> = ["last(pid+pc8)1", "inter(pid+pc8)2", "union(dir+add8)4"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let par = evaluate_schemes(&suite, &schemes);
        for (i, scheme) in schemes.iter().enumerate() {
            let seq = evaluate_scheme(&suite, scheme);
            assert_eq!(par[i].per_benchmark, seq.per_benchmark);
            assert_eq!(par[i].scheme, *scheme);
        }
    }

    #[test]
    fn panicking_item_is_isolated_and_reported() {
        // Item 2 always panics; the other four must still complete.
        let todo: Vec<usize> = (0..5).collect();
        let outcome = run_indices(
            5,
            &todo,
            &|i| {
                if i == 2 {
                    panic!("injected failure on item {i}");
                }
                i * 10
            },
            &|i| format!("item {i}"),
        );
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(outcome.failures[0].index, 2);
        assert_eq!(outcome.failures[0].label, "item 2");
        assert!(outcome.failures[0].message.contains("injected failure"));
        assert!(!outcome.is_complete());
        let ok: Vec<(usize, &usize)> = outcome.successes().collect();
        assert_eq!(ok.len(), 4);
        for (i, &v) in ok {
            assert_eq!(v, i * 10);
        }
        let err = outcome.into_complete().unwrap_err();
        assert!(matches!(err, HarnessError::WorkerPanic { .. }), "{err}");
    }

    #[test]
    fn flaky_item_succeeds_on_retry() {
        use std::sync::atomic::AtomicBool;
        let tripped = AtomicBool::new(false);
        let todo = [0usize];
        let outcome = run_indices(
            1,
            &todo,
            &|i| {
                if !tripped.swap(true, Ordering::SeqCst) {
                    panic!("transient failure");
                }
                i + 1
            },
            &|i| format!("item {i}"),
        );
        assert!(outcome.is_complete());
        assert_eq!(outcome.into_complete().unwrap(), vec![1]);
    }

    #[test]
    fn family_cell_matches_direct_evaluation() {
        let suite = tiny_suite();
        let ix = IndexSpec::new(true, 4, false, 4);
        let cells = sweep_families(&suite, &[ix], &[UpdateMode::Direct], 2);
        assert_eq!(cells.len(), 1);
        let from_family = cells[0].stats(PredictionFunction::Inter, 2);
        let direct = evaluate_scheme(
            &suite,
            &Scheme::new(PredictionFunction::Inter, ix, 2, UpdateMode::Direct),
        );
        assert_eq!(from_family.per_benchmark, direct.per_benchmark);
    }

    #[test]
    fn grouped_sweep_matches_reference_per_cell_runs() {
        use csp_core::reference;
        let suite = tiny_suite();
        let (add12, add16, add8, dir_add8) = duplicate_pairs();
        let indexes = [
            IndexSpec::new(true, 2, false, 0),
            add12,
            IndexSpec::new(false, 0, false, 4),
            add16,
            add8,
            IndexSpec::new(true, 2, true, 2),
            dir_add8,
        ];
        // Both pairs share a partition on some benchmark, so some cells
        // are fanned out from another index's group.
        let prepared = PreparedSuite::new(&suite);
        for (a, b) in [(1, 3), (4, 6)] {
            assert!(prepared.traces().iter().any(|pt| {
                let classes = pt.partition_classes(&indexes);
                classes[a] == classes[b]
            }));
        }
        let updates = [
            UpdateMode::Direct,
            UpdateMode::Forwarded,
            UpdateMode::Ordered,
        ];
        let outcome = try_sweep_families(&suite, &indexes, &updates, 3);
        assert!(outcome.is_complete());
        let cells = outcome.into_complete().unwrap();
        assert_eq!(cells.len(), indexes.len() * updates.len());
        // Cell order is index-major, update-minor, and every cell is
        // bit-identical to the reference evaluating each scheme alone.
        for (c, cell) in cells.iter().enumerate() {
            assert_eq!(cell.index, indexes[c / updates.len()]);
            assert_eq!(cell.update, updates[c % updates.len()]);
            for (b, bench) in suite.traces().iter().enumerate() {
                for depth in 1..=3 {
                    for (func, got) in [
                        (PredictionFunction::Union, &cell.per_benchmark[b].union),
                        (PredictionFunction::Inter, &cell.per_benchmark[b].inter),
                    ] {
                        let scheme = Scheme::new(func, cell.index, depth, cell.update);
                        assert_eq!(
                            got[depth - 1],
                            reference::run_scheme(&bench.trace, &scheme),
                            "cell {c} {scheme} on {}",
                            bench.benchmark
                        );
                    }
                }
            }
        }
    }

    /// `(add12, add16, add8, dir+add8)`: on the tiny suite each pair
    /// splits some benchmark's events into the same predictor entries.
    fn duplicate_pairs() -> (IndexSpec, IndexSpec, IndexSpec, IndexSpec) {
        (
            IndexSpec::new(false, 0, false, 12),
            IndexSpec::new(false, 0, false, 16),
            IndexSpec::new(false, 0, false, 8),
            IndexSpec::new(false, 0, true, 8),
        )
    }

    #[test]
    fn failed_representative_fails_every_cell_of_its_class() {
        let suite = tiny_suite();
        let (add12, add16, add8, dir_add8) = duplicate_pairs();
        let pid = IndexSpec::new(true, 0, false, 0);
        let updates = [UpdateMode::Direct, UpdateMode::Forwarded];
        let prepared = PreparedSuite::new(&suite);
        for (rep, twin) in [(add12, add16), (add8, dir_add8)] {
            let indexes = [rep, twin, pid];
            // Fail the representative's group on the first benchmark
            // where the twin shares its partition.
            let victim = prepared
                .traces()
                .iter()
                .position(|pt| pt.partition_classes(&indexes)[1] == 0)
                .unwrap_or_else(|| panic!("{rep} and {twin} share no partition"));
            let victim_trace = &suite.traces()[victim].trace;
            let outcome = sweep_partitions(&suite, &indexes, &updates, &|pt, index| {
                if index == rep && std::ptr::eq(pt.trace(), victim_trace) {
                    panic!("injected failure in family({index})");
                }
                updates
                    .iter()
                    .map(|&u| run_history_family_prepared(pt, index, u, 2))
                    .collect()
            });
            // Cells are index-major: rep, twin, pid. The twin's cells
            // fail with the representative's message, not a generic one.
            let message = format!("injected failure in family({rep})");
            let failed: Vec<(usize, &str)> = outcome
                .failures
                .iter()
                .map(|f| (f.index, f.message.as_str()))
                .collect();
            assert_eq!(
                failed,
                (0..4).map(|c| (c, message.as_str())).collect::<Vec<_>>()
            );
            assert_eq!(outcome.failures[2].label, format!("family({twin})[direct]"));
            for c in [4, 5] {
                let cell = outcome.results[c].as_ref().expect("pid cells survive");
                assert_eq!(cell.index, pid);
            }
        }
    }

    /// A list where several functions share an index, one scheme appears
    /// twice and PAs mixes with history schemes.
    fn mixed_scheme_list() -> Vec<Scheme> {
        [
            "union(pid+pc8)2[direct]",
            "pas(dir+add8)2[forwarded]",
            "last(pid+pc8)1[direct]",
            "inter(pid+pc8)4[ordered]",
            "pas(pid+pc8)1[direct]",
            "union(pid+pc8)2[direct]",
            "overlap-last(dir+add8)[direct]",
            "pas(dir+add8)6[ordered]",
        ]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect()
    }

    #[test]
    fn grouped_scheme_list_matches_reference() {
        use csp_core::reference;
        let suite = tiny_suite();
        let schemes = mixed_scheme_list();
        let outcome = try_evaluate_schemes(&suite, &schemes);
        assert!(outcome.is_complete());
        let stats = outcome.into_complete().unwrap();
        assert_eq!(stats.len(), schemes.len());
        for (s, scheme) in stats.iter().zip(&schemes) {
            assert_eq!(s.scheme, *scheme);
            for (b, bench) in suite.traces().iter().enumerate() {
                assert_eq!(
                    s.per_benchmark[b],
                    reference::run_scheme(&bench.trace, scheme),
                    "{scheme} on {}",
                    bench.benchmark
                );
            }
        }
        assert_eq!(stats[0].per_benchmark, stats[5].per_benchmark);
    }

    #[test]
    fn failed_group_fails_every_scheme_of_its_index() {
        let suite = tiny_suite();
        let schemes = mixed_scheme_list();
        let victim = schemes[1].index; // dir+add8
        let victim_trace = &suite.traces()[3].trace;
        let outcome = evaluate_grouped(&suite, &schemes, &|pt, scheme| {
            if scheme.index == victim && std::ptr::eq(pt.trace(), victim_trace) {
                panic!("injected failure in group({victim})");
            }
            run_scheme_prepared(pt, scheme)
        });
        // The three dir+add8 schemes fail with the group's own message;
        // every pid+pc8 scheme survives.
        let message = format!("injected failure in group({victim})");
        let failed: Vec<(usize, &str, &str)> = outcome
            .failures
            .iter()
            .map(|f| (f.index, f.label.as_str(), f.message.as_str()))
            .collect();
        let expected: Vec<(usize, String)> = [1, 6, 7]
            .into_iter()
            .map(|c| (c, schemes[c].to_string()))
            .collect();
        assert_eq!(
            failed,
            expected
                .iter()
                .map(|(c, label)| (*c, label.as_str(), message.as_str()))
                .collect::<Vec<_>>()
        );
        for c in [0, 2, 3, 4, 5] {
            let stats = outcome.results[c]
                .as_ref()
                .expect("pid+pc8 schemes survive");
            assert_eq!(stats.scheme, schemes[c]);
        }
    }

    #[test]
    fn empty_scheme_list_returns_empty_outcome() {
        let outcome = try_evaluate_schemes(&tiny_suite(), &[]);
        assert!(outcome.is_complete());
        assert!(outcome.results.is_empty());
    }

    #[test]
    fn prepared_suite_shares_resolutions_across_schemes() {
        let suite = tiny_suite();
        let prepared = PreparedSuite::new(&suite);
        assert_eq!(prepared.traces().len(), suite.traces().len());
        let scheme: Scheme = "union(pid+pc8)2[forwarded]".parse().unwrap();
        let fast = evaluate_scheme_prepared(&prepared, &scheme);
        let naive = evaluate_scheme(&suite, &scheme);
        assert_eq!(fast.per_benchmark, naive.per_benchmark);
        assert_eq!(fast.scheme, naive.scheme);
    }

    #[test]
    fn empty_family_grid_returns_empty_outcome() {
        let suite = tiny_suite();
        let outcome = try_sweep_families(&suite, &[], &[UpdateMode::Direct], 2);
        assert!(outcome.is_complete());
        assert!(outcome.results.is_empty());
        let outcome = try_sweep_families(&suite, &[IndexSpec::none()], &[], 2);
        assert!(outcome.is_complete());
        assert!(outcome.results.is_empty());
    }

    #[test]
    fn try_stats_rejects_unswept_functions() {
        let suite = tiny_suite();
        let ix = IndexSpec::new(true, 4, false, 4);
        let cells = sweep_families(&suite, &[ix], &[UpdateMode::Direct], 2);
        let err = cells[0].try_stats(PredictionFunction::Pas, 1).unwrap_err();
        assert!(matches!(err, HarnessError::MissingFamily(_)), "{err}");
        assert!(cells[0].try_stats(PredictionFunction::Union, 2).is_ok());
    }

    #[test]
    #[should_panic(expected = "family sweep has no pas results")]
    fn stats_panic_message_names_the_function() {
        let suite = tiny_suite();
        let ix = IndexSpec::new(false, 2, false, 2);
        let cells = sweep_families(&suite, &[ix], &[UpdateMode::Direct], 1);
        let _ = cells[0].stats(PredictionFunction::Pas, 1);
    }

    #[test]
    fn scheme_stats_aggregates_mean() {
        let suite = tiny_suite();
        let stats = evaluate_scheme(&suite, &"last(pid+pc8)1".parse().unwrap());
        assert_eq!(stats.per_benchmark.len(), 7);
        let manual: Vec<_> = stats.per_benchmark.iter().map(|m| m.screening()).collect();
        let mean = Screening::mean(&manual).unwrap();
        assert!((stats.mean.pvp - mean.pvp).abs() < 1e-12);
        assert!(stats.size_log2() >= 16);
    }

    #[test]
    fn checkpointed_schemes_resume_bitwise_identical() {
        let suite = Suite::generate(0.01, 4);
        let schemes: Vec<Scheme> = ["last(pid+pc8)1", "union(pid+pc8)2", "inter(dir+add8)2"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let path = std::env::temp_dir().join(format!("csp-runner-ckpt-{}.bin", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let fresh = evaluate_schemes(&suite, &schemes);
        // First pass populates the checkpoint...
        let first = evaluate_schemes_checkpointed(&suite, &schemes, &path)
            .unwrap()
            .into_complete()
            .unwrap();
        // ...second pass resumes everything from it (no recomputation).
        let resumed = evaluate_schemes_checkpointed(&suite, &schemes, &path)
            .unwrap()
            .into_complete()
            .unwrap();
        for ((a, b), c) in fresh.iter().zip(&first).zip(&resumed) {
            assert_eq!(a.scheme, b.scheme);
            assert_eq!(a.per_benchmark, b.per_benchmark);
            assert_eq!(b.per_benchmark, c.per_benchmark);
            // Bitwise on the derived floats too.
            assert_eq!(a.mean.pvp.to_bits(), c.mean.pvp.to_bits());
            assert_eq!(a.mean.sensitivity.to_bits(), c.mean.sensitivity.to_bits());
            assert_eq!(a.mean.prevalence.to_bits(), c.mean.prevalence.to_bits());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpointed_families_skip_finished_cells() {
        let suite = Suite::generate(0.01, 4);
        let indexes = [
            IndexSpec::new(true, 2, false, 0),
            IndexSpec::new(false, 0, true, 2),
        ];
        let updates = [UpdateMode::Direct];
        let path =
            std::env::temp_dir().join(format!("csp-runner-famckpt-{}.bin", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let fresh = sweep_families(&suite, &indexes, &updates, 2);
        let first = sweep_families_checkpointed(&suite, &indexes, &updates, 2, &path)
            .unwrap()
            .into_complete()
            .unwrap();
        let resumed = sweep_families_checkpointed(&suite, &indexes, &updates, 2, &path)
            .unwrap()
            .into_complete()
            .unwrap();
        assert_eq!(fresh.len(), resumed.len());
        for ((a, b), c) in fresh.iter().zip(&first).zip(&resumed) {
            assert_eq!(a.index, c.index);
            assert_eq!(a.update, c.update);
            assert_eq!(a.per_benchmark, b.per_benchmark);
            assert_eq!(b.per_benchmark, c.per_benchmark);
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// Dumps the full paper design space — every in-budget `union`/`inter`
/// scheme under both implementable update modes — as tab-separated values
/// for offline analysis: scheme, size, mean prevalence/pvp/sensitivity,
/// then per-benchmark pvp and sensitivity columns.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn dump_sweep_tsv<W: std::io::Write>(suite: &Suite, mut w: W) -> std::io::Result<()> {
    use crate::space::DesignSpace;
    let space = DesignSpace::paper();
    let max_depth = *space.depths.iter().max().expect("non-empty depths");
    let cells = sweep_families(suite, &space.index_specs(), &space.updates, max_depth);

    write!(w, "scheme\tsize\tprev\tpvp\tsens")?;
    for b in Benchmark::ALL {
        write!(w, "\t{b}_pvp\t{b}_sens")?;
    }
    writeln!(w)?;
    for cell in &cells {
        for &f in &space.functions {
            for &d in &space.depths {
                if f == PredictionFunction::Inter && d == 1 {
                    continue; // identical to union depth 1 (`last`)
                }
                let stats = cell.stats(f, d);
                if stats.size_log2() > space.max_size_log2 {
                    continue;
                }
                write!(
                    w,
                    "{}\t{}\t{:.4}\t{:.4}\t{:.4}",
                    stats.scheme,
                    stats.size_log2(),
                    stats.mean.prevalence,
                    stats.mean.pvp,
                    stats.mean.sensitivity
                )?;
                for i in 0..Benchmark::ALL.len() {
                    let s = stats.screening_for(i);
                    write!(w, "\t{:.4}\t{:.4}", s.pvp, s.sensitivity)?;
                }
                writeln!(w)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tsv_tests {
    use super::*;

    #[test]
    fn tsv_dump_has_header_and_schemes() {
        let suite = Suite::generate(0.01, 2);
        let mut buf = Vec::new();
        dump_sweep_tsv(&suite, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines = text.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("scheme\tsize\tprev"));
        assert!(header.contains("water_sens"));
        let body: Vec<&str> = lines.collect();
        assert!(
            body.len() > 1000,
            "expected the full space, got {}",
            body.len()
        );
        // Every row has the same column count as the header.
        let cols = header.split('\t').count();
        for row in body.iter().take(50) {
            assert_eq!(row.split('\t').count(), cols);
        }
    }
}
