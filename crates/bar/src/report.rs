//! Trajectory analysis: `diff` two record sets cell by cell, `rank`
//! engines per workload, and `check` the declared regression gates.
//!
//! All comparisons are *machine-relative* where they gate: absolute
//! events/sec depends on the box, so `check` compares each cell's
//! throughput **relative to the baseline engine measured in the same
//! run** against the committed relative throughput in the trajectory.
//! A slower CI runner shifts every cell together and trips nothing; a
//! real regression of one path moves that cell's ratio and fails its
//! declared threshold.

use crate::record::BarRecord;
use crate::{BarDefs, CellKey};
use std::collections::BTreeMap;
use std::fmt;

/// One run batch: every record sharing a `run` id, in file order.
#[derive(Clone, Debug)]
pub struct RunGroup<'a> {
    /// The shared run id.
    pub run: &'a str,
    /// Batch timestamp (from the first record).
    pub unix_ms: u64,
    /// The batch's records.
    pub records: Vec<&'a BarRecord>,
}

impl RunGroup<'_> {
    /// The latest record for each cell in this batch.
    pub fn cells(&self) -> BTreeMap<CellKey, &BarRecord> {
        let mut map = BTreeMap::new();
        for r in &self.records {
            map.insert(r.cell(), *r);
        }
        map
    }

    /// Geometric-mean throughput ratio `numerator/denominator` over
    /// every (workload, scheme) pair both engines cover in this batch.
    /// `None` when no pair is covered.
    pub fn engine_ratio(&self, numerator: &str, denominator: &str) -> Option<f64> {
        let cells = self.cells();
        let ratios: Vec<f64> = cells
            .iter()
            .filter(|(k, _)| k.engine == numerator)
            .filter_map(|(k, num)| {
                let den = cells.get(&CellKey {
                    engine: denominator.to_string(),
                    workload: k.workload.clone(),
                    scheme: k.scheme.clone(),
                })?;
                (den.events_per_sec > 0.0).then(|| num.events_per_sec / den.events_per_sec)
            })
            .collect();
        geomean(&ratios)
    }
}

/// Splits records into run batches, in order of first appearance
/// (appends are chronological, so the last group is the newest).
pub fn runs(records: &[BarRecord]) -> Vec<RunGroup<'_>> {
    let mut out: Vec<RunGroup<'_>> = Vec::new();
    for r in records {
        match out.iter_mut().find(|g| g.run == r.run) {
            Some(g) => g.records.push(r),
            None => out.push(RunGroup {
                run: &r.run,
                unix_ms: r.unix_ms,
                records: vec![r],
            }),
        }
    }
    out
}

/// Geometric mean of strictly positive samples.
pub fn geomean(values: &[f64]) -> Option<f64> {
    let logs: Vec<f64> = values
        .iter()
        .filter(|v| **v > 0.0)
        .map(|v| v.ln())
        .collect();
    if logs.is_empty() {
        None
    } else {
        Some((logs.iter().sum::<f64>() / logs.len() as f64).exp())
    }
}

fn latest_per_cell(records: &[BarRecord]) -> BTreeMap<CellKey, &BarRecord> {
    let mut map = BTreeMap::new();
    for r in records {
        map.insert(r.cell(), r);
    }
    map
}

/// One cell's before/after comparison.
#[derive(Clone, Debug)]
pub struct DiffRow {
    /// The compared cell.
    pub cell: CellKey,
    /// Throughput in the first record set (events/sec).
    pub a: f64,
    /// Throughput in the second record set (events/sec).
    pub b: f64,
}

impl DiffRow {
    /// `b / a`: above 1.0 the cell got faster.
    pub fn ratio(&self) -> f64 {
        if self.a > 0.0 {
            self.b / self.a
        } else {
            f64::NAN
        }
    }
}

/// The cell-by-cell comparison of two record sets.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Cells present in both sets (latest record each side).
    pub rows: Vec<DiffRow>,
    /// Cells only in the first set.
    pub only_a: Vec<CellKey>,
    /// Cells only in the second set.
    pub only_b: Vec<CellKey>,
}

/// Compares two record sets per cell (the latest record on each side).
pub fn diff(a: &[BarRecord], b: &[BarRecord]) -> DiffReport {
    let a_cells = latest_per_cell(a);
    let b_cells = latest_per_cell(b);
    let mut report = DiffReport::default();
    for (key, ra) in &a_cells {
        match b_cells.get(key) {
            Some(rb) => report.rows.push(DiffRow {
                cell: key.clone(),
                a: ra.events_per_sec,
                b: rb.events_per_sec,
            }),
            None => report.only_a.push(key.clone()),
        }
    }
    for key in b_cells.keys() {
        if !a_cells.contains_key(key) {
            report.only_b.push(key.clone());
        }
    }
    // Biggest movers first.
    report.rows.sort_by(|x, y| {
        let dx = (x.ratio().ln()).abs();
        let dy = (y.ratio().ln()).abs();
        dy.partial_cmp(&dx).unwrap_or(std::cmp::Ordering::Equal)
    });
    report
}

impl fmt::Display for DiffReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<58} {:>12} {:>12} {:>8}",
            "cell (engine/workload/scheme)", "A ev/s", "B ev/s", "B/A"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<58} {:>12.0} {:>12.0} {:>7.2}x",
                row.cell.to_string(),
                row.a,
                row.b,
                row.ratio()
            )?;
        }
        for key in &self.only_a {
            writeln!(f, "{key:<58} only in A")?;
        }
        for key in &self.only_b {
            writeln!(f, "{key:<58} only in B")?;
        }
        Ok(())
    }
}

/// One engine's standing in a [`RankRow`].
#[derive(Clone, Debug)]
pub struct RankEntry {
    /// The engine name.
    pub engine: String,
    /// Geometric-mean events/sec across the workload's schemes.
    pub events_per_sec: f64,
    /// Worst relative iteration spread among the engine's cells on this
    /// workload ([`BarRecord::spread`]); `None` when no cell carries
    /// samples (schema-1 history, imported points).
    pub spread: Option<f64>,
}

/// Engines ordered by throughput for one workload.
#[derive(Clone, Debug)]
pub struct RankRow {
    /// The workload ranked.
    pub workload: String,
    /// One entry per engine, fastest first.
    pub engines: Vec<RankEntry>,
}

/// The per-workload engine ranking from the latest run in `records`.
#[derive(Clone, Debug, Default)]
pub struct RankReport {
    /// The run id the ranking was computed from.
    pub run: String,
    /// One row per workload, in trajectory order.
    pub rows: Vec<RankRow>,
}

/// Ranks engines per workload from the latest run batch.
pub fn rank(records: &[BarRecord]) -> RankReport {
    let groups = runs(records);
    let Some(latest) = groups.last() else {
        return RankReport::default();
    };
    let cells = latest.cells();
    let mut workloads: Vec<String> = Vec::new();
    for key in cells.keys() {
        if !workloads.contains(&key.workload) {
            workloads.push(key.workload.clone());
        }
    }
    let mut rows = Vec::new();
    for workload in workloads {
        let mut engines: Vec<RankEntry> = Vec::new();
        for (key, record) in &cells {
            if key.workload != workload {
                continue;
            }
            // Accumulate log-space sums (finalized below) and keep the
            // engine's worst per-cell iteration spread.
            let log_eps = record.events_per_sec.max(1e-9).ln();
            match engines.iter_mut().find(|e| e.engine == key.engine) {
                Some(entry) => {
                    entry.events_per_sec += log_eps;
                    entry.spread = match (entry.spread, record.spread()) {
                        (Some(a), Some(b)) => Some(a.max(b)),
                        (a, b) => a.or(b),
                    };
                }
                None => engines.push(RankEntry {
                    engine: key.engine.clone(),
                    events_per_sec: log_eps,
                    spread: record.spread(),
                }),
            }
        }
        let scheme_count = cells
            .keys()
            .filter(|k| k.workload == workload)
            .map(|k| &k.scheme)
            .collect::<std::collections::BTreeSet<_>>()
            .len()
            .max(1);
        for entry in &mut engines {
            entry.events_per_sec = (entry.events_per_sec / scheme_count as f64).exp();
        }
        engines.sort_by(|a, b| {
            b.events_per_sec
                .partial_cmp(&a.events_per_sec)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        rows.push(RankRow { workload, engines });
    }
    RankReport {
        run: latest.run.to_string(),
        rows,
    }
}

impl fmt::Display for RankReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "engine ranking (run {})", self.run)?;
        for row in &self.rows {
            write!(f, "{:>9}:", row.workload)?;
            for (i, entry) in row.engines.iter().enumerate() {
                let sep = if i == 0 { " " } else { " > " };
                write!(
                    f,
                    "{sep}{} ({:.2}M ev/s",
                    entry.engine,
                    entry.events_per_sec / 1e6
                )?;
                if let Some(spread) = entry.spread {
                    write!(f, ", spread {:.0}%", spread * 100.0)?;
                }
                write!(f, ")")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Iteration spread above which `check` flags a cell as too noisy to
/// trust: the slowest timed pass took more than 25% longer than the
/// fastest.
pub const NOISY_SPREAD: f64 = 0.25;

/// The outcome of `csp-bar check`: every gate evaluated, pass or fail.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// Gates that held.
    pub passes: Vec<String>,
    /// Gates that failed.
    pub failures: Vec<String>,
    /// Informational notes (cells with no committed history, ...).
    pub notes: Vec<String>,
}

impl CheckReport {
    /// `true` when every gate held.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for p in &self.passes {
            writeln!(f, "  ok   {p}")?;
        }
        for n in &self.notes {
            writeln!(f, "  note {n}")?;
        }
        for x in &self.failures {
            writeln!(f, "  FAIL {x}")?;
        }
        write!(
            f,
            "{} gates passed, {} failed",
            self.passes.len(),
            self.failures.len()
        )
    }
}

/// Evaluates every declared gate: minimum-ratio gates on both the
/// latest committed run and the current one, and per-cell regression of
/// current relative throughput (vs the baseline engine) against the
/// newest trajectory run covering the cell.
///
/// Relative throughput moves with the workload scale and the suite seed,
/// so only committed records measured at the definitions' `scale` and
/// `seed` gate anything. A non-empty trajectory with no such record is a
/// failure, not a silent pass.
pub fn check(defs: &BarDefs, trajectory: &[BarRecord], current: &[BarRecord]) -> CheckReport {
    let mut report = CheckReport::default();
    let committed: Vec<BarRecord> = trajectory
        .iter()
        .filter(|r| r.scale == defs.scale && r.seed == defs.seed)
        .cloned()
        .collect();
    if committed.is_empty() && !trajectory.is_empty() {
        report.failures.push(format!(
            "no committed run at scale {:?} seed {}: the trajectory cannot gate this run",
            defs.scale, defs.seed
        ));
    }
    let trajectory_runs = runs(&committed);
    let current_runs = runs(current);
    let baseline = defs.baseline_engine();

    // Declared minimum-ratio gates (e.g. simd/reference >= 10x), on the
    // committed trajectory's newest run and on the current run.
    for gate in &defs.ratio_gates {
        for (label, group) in [
            ("trajectory", trajectory_runs.last()),
            ("current", current_runs.last()),
        ] {
            let Some(group) = group else { continue };
            match group.engine_ratio(&gate.numerator, &gate.denominator) {
                Some(ratio) if ratio >= gate.min => report.passes.push(format!(
                    "{gate}: measured {ratio:.2}x on {label} run {}",
                    group.run
                )),
                Some(ratio) => report.failures.push(format!(
                    "{gate}: measured only {ratio:.2}x on {label} run {}",
                    group.run
                )),
                None => report.notes.push(format!(
                    "{gate}: no overlapping cells on {label} run {}",
                    group.run
                )),
            }
        }
    }

    // Per-cell regression: current relative throughput vs committed.
    let Some(current_group) = current_runs.last() else {
        if !current.is_empty() {
            report.notes.push("current record set has no runs".into());
        }
        return report;
    };
    let current_cells = current_group.cells();
    // Flag noisy measurements before gating: a cell whose iterations
    // disagree past NOISY_SPREAD is telling you its pass/fail verdict
    // below rides on scheduler luck, not on the code.
    for (key, record) in &current_cells {
        if let Some(spread) = record.spread() {
            if spread > NOISY_SPREAD {
                report.notes.push(format!(
                    "{key}: noisy cell — iteration spread {:.0}% across {} timed passes \
                     (threshold {:.0}%); re-run or raise iters before trusting its gate",
                    spread * 100.0,
                    record.samples.len(),
                    NOISY_SPREAD * 100.0
                ));
            }
        }
    }
    for (key, record) in &current_cells {
        if key.engine == baseline {
            continue; // the baseline is the denominator, not a gated cell
        }
        let base_key = CellKey {
            engine: baseline.to_string(),
            workload: key.workload.clone(),
            scheme: key.scheme.clone(),
        };
        let Some(base) = current_cells.get(&base_key) else {
            report
                .notes
                .push(format!("{key}: no {baseline} twin in the current run"));
            continue;
        };
        let rel_now = record.events_per_sec / base.events_per_sec;
        // Newest committed run that covers both the cell and its twin.
        let committed = trajectory_runs.iter().rev().find_map(|g| {
            let cells = g.cells();
            let num = cells.get(key)?;
            let den = cells.get(&base_key)?;
            Some((g.run, num.events_per_sec / den.events_per_sec))
        });
        match committed {
            None => report
                .notes
                .push(format!("{key}: no committed trajectory yet (new cell)")),
            Some((run, rel_then)) => {
                let threshold = defs.regression_threshold(key);
                let floor = rel_then * (1.0 - threshold);
                if rel_now >= floor {
                    report.passes.push(format!(
                        "{key}: {rel_now:.3}x vs {baseline} (committed {rel_then:.3}x \
                         in {run}, floor {floor:.3}x at {:.0}% tolerance)",
                        threshold * 100.0
                    ));
                } else {
                    report.failures.push(format!(
                        "{key}: regressed to {rel_now:.3}x vs {baseline} (committed \
                         {rel_then:.3}x in {run}, floor {floor:.3}x at {:.0}% tolerance)",
                        threshold * 100.0
                    ));
                }
            }
        }
    }
    report
}

/// One committed observation of a cell, in trajectory (chronological)
/// order.
#[derive(Clone, Debug)]
pub struct HistoryPoint {
    /// The run id the observation belongs to.
    pub run: String,
    /// Batch timestamp of the run.
    pub unix_ms: u64,
    /// Measured throughput (events/sec).
    pub events_per_sec: f64,
    /// Relative iteration spread of the run's samples
    /// ([`BarRecord::spread`]); `None` for sample-less records.
    pub spread: Option<f64>,
    /// Median per-iteration latency.
    pub p50_ns: u64,
    /// Tail per-iteration latency.
    pub p99_ns: u64,
}

/// The throughput trajectory of one cell across committed runs:
/// a sparkline for shape at a glance, a table for the numbers.
#[derive(Clone, Debug, Default)]
pub struct HistoryReport {
    /// The cell whose history this is.
    pub cell: String,
    /// One point per committed run covering the cell, oldest first.
    pub points: Vec<HistoryPoint>,
}

impl HistoryReport {
    /// A min-max scaled unicode sparkline of throughput, oldest run on
    /// the left. Empty when there are no points.
    pub fn sparkline(&self) -> String {
        sparkline(
            &self
                .points
                .iter()
                .map(|p| p.events_per_sec)
                .collect::<Vec<_>>(),
        )
    }
}

/// Min-max scales `values` onto the eight unicode bar glyphs. A flat
/// series renders mid-height so one-point histories still show a mark.
fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for v in values {
        lo = lo.min(*v);
        hi = hi.max(*v);
    }
    values
        .iter()
        .map(|v| {
            if hi <= lo {
                BARS[3]
            } else {
                let t = (v - lo) / (hi - lo);
                BARS[((t * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

/// The trajectory of one cell: every committed run covering `cell`,
/// oldest first (file order is append order, hence chronological).
pub fn history(records: &[BarRecord], cell: &CellKey) -> HistoryReport {
    let mut points = Vec::new();
    for group in runs(records) {
        if let Some(record) = group.cells().get(cell) {
            points.push(HistoryPoint {
                run: group.run.to_string(),
                unix_ms: group.unix_ms,
                events_per_sec: record.events_per_sec,
                spread: record.spread(),
                p50_ns: record.p50_ns,
                p99_ns: record.p99_ns,
            });
        }
    }
    HistoryReport {
        cell: cell.to_string(),
        points,
    }
}

impl fmt::Display for HistoryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.points.is_empty() {
            return write!(f, "{}: no committed runs cover this cell", self.cell);
        }
        writeln!(f, "{}  {}", self.cell, self.sparkline())?;
        writeln!(
            f,
            "{:<28} {:>12} {:>7} {:>10} {:>10}",
            "run", "ev/s", "spread", "p50", "p99"
        )?;
        for p in &self.points {
            let spread = match p.spread {
                Some(s) => format!("{:.1}%", s * 100.0),
                None => "-".to_string(),
            };
            writeln!(
                f,
                "{:<28} {:>11.2}M {:>7} {:>10} {:>10}",
                p.run,
                p.events_per_sec / 1e6,
                spread,
                format_ns(p.p50_ns),
                format_ns(p.p99_ns)
            )?;
        }
        let first = self.points[0].events_per_sec;
        let last = self.points[self.points.len() - 1].events_per_sec;
        if first > 0.0 {
            write!(
                f,
                "net {:.2}x over {} runs",
                last / first,
                self.points.len()
            )?;
        }
        Ok(())
    }
}

/// Renders nanoseconds with a unit that keeps 3-4 significant digits.
fn format_ns(ns: u64) -> String {
    match ns {
        0..=9_999 => format!("{ns}ns"),
        10_000..=9_999_999 => format!("{:.1}us", ns as f64 / 1e3),
        10_000_000..=9_999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::BarRecord;

    fn rec(run: &str, engine: &str, workload: &str, scheme: &str, eps: f64) -> BarRecord {
        BarRecord {
            schema: crate::SCHEMA_VERSION,
            fingerprint: 7,
            run: run.to_string(),
            unix_ms: 1000,
            git_rev: "rev".to_string(),
            host: "host".to_string(),
            engine: engine.to_string(),
            workload: workload.to_string(),
            scheme: scheme.to_string(),
            scale: 0.05,
            seed: 1,
            warmup: 1,
            iters: 3,
            shards: 0,
            events: 1000,
            seconds: 1000.0 / eps,
            events_per_sec: eps,
            samples: Vec::new(),
            p50_ns: 100,
            p99_ns: 200,
        }
    }

    /// The built-in matrix with test-fixed thresholds: one 2x ratio
    /// floor and a 20% per-cell tolerance.
    fn gated_defs() -> BarDefs {
        let mut d = BarDefs::builtin();
        d.default_regression = 0.2;
        d.ratio_gates[0].min = 2.0;
        d
    }

    #[test]
    fn runs_group_in_file_order() {
        let records = vec![
            rec("a", "reference", "water", "s", 1.0),
            rec("a", "simd", "water", "s", 2.0),
            rec("b", "reference", "water", "s", 1.0),
        ];
        let groups = runs(&records);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].run, "a");
        assert_eq!(groups[0].records.len(), 2);
        assert_eq!(groups[1].run, "b");
    }

    #[test]
    fn engine_ratio_is_geomean_over_cells() {
        let records = vec![
            rec("a", "reference", "water", "s", 10.0),
            rec("a", "simd", "water", "s", 40.0), // 4x
            rec("a", "reference", "gauss", "s", 10.0),
            rec("a", "simd", "gauss", "s", 10.0), // 1x
        ];
        let groups = runs(&records);
        let ratio = groups[0].engine_ratio("simd", "reference").expect("cells");
        assert!((ratio - 2.0).abs() < 1e-9, "{ratio}"); // sqrt(4 * 1)
        assert!(groups[0].engine_ratio("simd", "sharded").is_none());
    }

    #[test]
    fn diff_pairs_cells_and_flags_singletons() {
        let a = vec![
            rec("a", "reference", "water", "s", 10.0),
            rec("a", "reference", "gauss", "s", 10.0),
        ];
        let b = vec![
            rec("b", "reference", "water", "s", 20.0),
            rec("b", "simd", "water", "s", 5.0),
        ];
        let d = diff(&a, &b);
        assert_eq!(d.rows.len(), 1);
        assert!((d.rows[0].ratio() - 2.0).abs() < 1e-9);
        assert_eq!(d.only_a.len(), 1);
        assert_eq!(d.only_b.len(), 1);
        assert!(d.to_string().contains("only in A"));
    }

    #[test]
    fn rank_orders_engines_fastest_first() {
        let records = vec![
            rec("a", "reference", "water", "s1", 10.0),
            rec("a", "simd", "water", "s1", 40.0),
            rec("a", "sharded", "water", "s1", 1.0),
        ];
        let r = rank(&records);
        assert_eq!(r.rows.len(), 1);
        let names: Vec<&str> = r.rows[0]
            .engines
            .iter()
            .map(|e| e.engine.as_str())
            .collect();
        assert_eq!(names, vec!["simd", "reference", "sharded"]);
        assert!(r.to_string().contains("simd"));
    }

    #[test]
    fn rank_uses_only_the_latest_run() {
        let records = vec![
            rec("old", "reference", "water", "s1", 1000.0),
            rec("new", "reference", "water", "s1", 10.0),
            rec("new", "simd", "water", "s1", 20.0),
        ];
        let r = rank(&records);
        assert_eq!(r.run, "new");
        assert_eq!(r.rows[0].engines[0].engine, "simd");
        assert!((r.rows[0].engines[0].events_per_sec - 20.0).abs() < 1e-9);
    }

    #[test]
    fn rank_reports_the_worst_spread_per_engine() {
        let mut steady = rec("a", "reference", "water", "s1", 10.0);
        steady.samples = vec![0.100, 0.102];
        let mut wobbly = rec("a", "reference", "water", "s2", 10.0);
        wobbly.samples = vec![0.100, 0.150];
        let sampleless = rec("a", "simd", "water", "s1", 20.0);
        let r = rank(&[steady, wobbly, sampleless]);
        let reference = r.rows[0]
            .engines
            .iter()
            .find(|e| e.engine == "reference")
            .expect("ranked");
        let spread = reference.spread.expect("has samples");
        assert!((spread - 0.5).abs() < 1e-9, "worst cell wins: {spread}");
        let simd = r.rows[0]
            .engines
            .iter()
            .find(|e| e.engine == "simd")
            .expect("ranked");
        assert_eq!(simd.spread, None);
        let text = r.to_string();
        assert!(text.contains("spread 50%"), "{text}");
    }

    #[test]
    fn check_flags_noisy_cells_without_failing_them() {
        let defs = gated_defs();
        let mut base = rec("c1", "reference", "water", "s", 10.0);
        base.samples = vec![0.100, 0.101, 0.100];
        let mut noisy = rec("c1", "simd", "water", "s", 30.0);
        noisy.samples = vec![0.030, 0.045, 0.033]; // 50% spread
        let current = vec![base, noisy];
        let report = check(&defs, &[], &current);
        assert!(report.ok(), "noise is a note, not a failure: {report}");
        assert!(
            report
                .notes
                .iter()
                .any(|n| n.contains("noisy cell") && n.contains("50%")),
            "{report}"
        );
        assert!(
            !report
                .notes
                .iter()
                .any(|n| n.contains("reference/water/s:") && n.contains("noisy")),
            "steady cells stay unflagged: {report}"
        );
    }

    #[test]
    fn history_carries_per_run_spread() {
        let mut old = rec("t1", "simd", "water", "s", 10e6);
        old.samples = vec![0.10, 0.11];
        let new = rec("t2", "simd", "water", "s", 20e6); // schema-1 style
        let cell = CellKey {
            engine: "simd".to_string(),
            workload: "water".to_string(),
            scheme: "s".to_string(),
        };
        let h = history(&[old, new], &cell);
        assert_eq!(h.points.len(), 2);
        let spread = h.points[0].spread.expect("sampled point");
        assert!((spread - 0.1).abs() < 1e-9, "{spread}");
        assert_eq!(h.points[1].spread, None);
        let text = h.to_string();
        assert!(text.contains("spread"), "{text}");
        assert!(text.contains("10.0%"), "{text}");
    }

    #[test]
    fn check_passes_when_ratios_hold_and_cells_stay_put() {
        let defs = gated_defs();
        let trajectory = vec![
            rec("t1", "reference", "water", "s", 10.0),
            rec("t1", "simd", "water", "s", 30.0),
        ];
        let current = vec![
            // A slower machine overall: both cells halve. Relative
            // throughput is unchanged, so nothing regresses.
            rec("c1", "reference", "water", "s", 5.0),
            rec("c1", "simd", "water", "s", 15.0),
        ];
        let report = check(&defs, &trajectory, &current);
        assert!(report.ok(), "{report}");
        // ratio gate on both runs + one cell regression check.
        assert_eq!(report.passes.len(), 3, "{report}");
    }

    #[test]
    fn check_fails_a_regressed_cell_past_threshold() {
        let defs = gated_defs();
        let trajectory = vec![
            rec("t1", "reference", "water", "s", 10.0),
            rec("t1", "simd", "water", "s", 40.0), // 4x committed
        ];
        let current = vec![
            rec("c1", "reference", "water", "s", 10.0),
            rec("c1", "simd", "water", "s", 25.0), // 2.5x < 4x * 0.8
        ];
        let report = check(&defs, &trajectory, &current);
        assert!(!report.ok());
        assert!(
            report.failures.iter().any(|f| f.contains("regressed")),
            "{report}"
        );
    }

    #[test]
    fn check_fails_a_broken_ratio_gate() {
        let defs = gated_defs();
        let trajectory = vec![
            rec("t1", "reference", "water", "s", 10.0),
            rec("t1", "simd", "water", "s", 15.0), // 1.5x < 2x gate
        ];
        let report = check(&defs, &trajectory, &[]);
        assert!(!report.ok());
        assert!(
            report.failures.iter().any(|f| f.contains("only 1.50x")),
            "{report}"
        );
    }

    #[test]
    fn check_notes_new_cells_instead_of_failing() {
        let defs = gated_defs();
        let current = vec![
            rec("c1", "reference", "water", "s", 10.0),
            rec("c1", "simd", "water", "s", 30.0),
        ];
        let report = check(&defs, &[], &current);
        assert!(report.ok(), "{report}");
        assert!(
            report.notes.iter().any(|n| n.contains("new cell")),
            "{report}"
        );
    }

    #[test]
    fn history_walks_runs_chronologically_for_one_cell() {
        let records = vec![
            rec("t1", "simd", "water", "s", 10e6),
            rec("t1", "reference", "water", "s", 1e6), // other cells ignored
            rec("t2", "simd", "water", "s", 20e6),
            rec("t3", "simd", "water", "s", 40e6),
            rec("t3", "simd", "gauss", "s", 5e6),
        ];
        let cell = CellKey {
            engine: "simd".to_string(),
            workload: "water".to_string(),
            scheme: "s".to_string(),
        };
        let h = history(&records, &cell);
        assert_eq!(h.points.len(), 3);
        assert_eq!(h.points[0].run, "t1");
        assert_eq!(h.points[2].run, "t3");
        assert_eq!(h.sparkline().chars().count(), 3);
        // Min-max scaling: the extremes hit the extreme glyphs.
        assert!(h.sparkline().starts_with('▁'), "{}", h.sparkline());
        assert!(h.sparkline().ends_with('█'), "{}", h.sparkline());
        let text = h.to_string();
        assert!(text.contains("net 4.00x over 3 runs"), "{text}");
        assert!(text.contains("simd/water/s"), "{text}");
    }

    #[test]
    fn history_of_an_uncovered_cell_is_empty() {
        let records = vec![rec("t1", "reference", "water", "s", 1e6)];
        let cell = CellKey {
            engine: "simd".to_string(),
            workload: "water".to_string(),
            scheme: "s".to_string(),
        };
        let h = history(&records, &cell);
        assert!(h.points.is_empty());
        assert!(h.to_string().contains("no committed runs"));
        assert_eq!(h.sparkline(), "");
    }

    #[test]
    fn sparkline_is_flat_mid_height_for_equal_values() {
        assert_eq!(sparkline(&[5.0, 5.0, 5.0]), "▄▄▄");
        assert_eq!(sparkline(&[]), "");
    }

    #[test]
    fn check_gates_only_against_runs_of_the_same_scale_and_seed() {
        let mut defs = gated_defs();
        let at = |run: &str, engine: &str, eps: f64, scale: f64, seed: u64| BarRecord {
            scale,
            seed,
            ..rec(run, engine, "water", "s", eps)
        };
        let trajectory = vec![
            at("t1", "reference", 10.0, 0.05, 1),
            at("t1", "simd", 40.0, 0.05, 1), // 4x at the definitions' scale
            at("t2", "reference", 10.0, 1.0, 1),
            at("t2", "simd", 25.0, 1.0, 1), // 2.5x, newer, at scale 1.0
            at("t3", "reference", 10.0, 0.05, 2),
            at("t3", "simd", 25.0, 0.05, 2), // 2.5x, newest, at seed 2
        ];
        let current = |scale, seed| {
            vec![
                at("c1", "reference", 10.0, scale, seed),
                at("c1", "simd", 25.0, scale, seed),
            ]
        };
        // At scale 0.05 seed 1 the cell gates against t1's 4x and fails,
        // though the newer t2 and t3 would have passed it.
        let report = check(&defs, &trajectory, &current(0.05, 1));
        assert!(
            report
                .failures
                .iter()
                .any(|f| f.contains("committed 4.000x in t1")),
            "{report}"
        );
        // At scale 1.0 it gates against t2 only, and passes.
        defs.scale = 1.0;
        let report = check(&defs, &trajectory, &current(1.0, 1));
        assert!(report.ok(), "{report}");
        assert!(
            report.passes.iter().any(|p| p.contains("in t2")),
            "{report}"
        );
        // No committed run at scale 0.2 seed 1: a failure naming both.
        defs.scale = 0.2;
        let report = check(&defs, &trajectory, &current(0.2, 1));
        assert!(
            report
                .failures
                .iter()
                .any(|f| f.contains("no committed run at scale 0.2 seed 1")),
            "{report}"
        );
        // Nor at seed 3.
        defs.scale = 0.05;
        defs.seed = 3;
        let report = check(&defs, &trajectory, &current(0.05, 3));
        assert!(
            report
                .failures
                .iter()
                .any(|f| f.contains("no committed run at scale 0.05 seed 3")),
            "{report}"
        );
    }

    #[test]
    fn check_is_machine_relative_not_absolute() {
        let defs = gated_defs();
        let trajectory = vec![
            rec("t1", "reference", "water", "s", 100.0),
            rec("t1", "simd", "water", "s", 300.0),
        ];
        // 10x slower box, same shape: must pass.
        let current = vec![
            rec("c1", "reference", "water", "s", 10.0),
            rec("c1", "simd", "water", "s", 30.0),
        ];
        assert!(check(&defs, &trajectory, &current).ok());
    }
}
