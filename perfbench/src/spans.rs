//! In-memory spans for the traced run.
//!
//! A span has a name, a start, an end and a parent (0 for a root). Spans
//! are kept in memory and written out as JSON lines when the run ends.
//! A span's self time is its duration minus the part of it that its
//! children cover, so along one chain of calls the self times add up to
//! the root's duration.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Spans that only group their children.
const GROUPING: [&str; 3] = ["pass", "breakdown", "core.group"];

/// One finished span; times are nanoseconds since the recorder started.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Unique, nonzero.
    pub id: u64,
    /// The enclosing span's id, 0 for a root.
    pub parent: u64,
    /// The layer call it times.
    pub name: &'static str,
    /// Start, in ns.
    pub start_ns: u64,
    /// End, in ns.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans while enabled. Disabled, each call costs one atomic
/// load, so untraced passes run the same code.
pub struct Recorder {
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    /// A disabled recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Opens a span under `parent`; it ends when the guard drops.
    pub fn span(&self, name: &'static str, parent: u64) -> Guard<'_> {
        let id = if self.enabled() {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Guard {
            recorder: self,
            id,
            parent,
            name,
            start: Instant::now(),
        }
    }

    fn push(&self, id: u64, parent: u64, name: &'static str, start: Instant, end: Instant) {
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
        };
        let span = Span {
            id,
            parent,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        };
        // Called from guard drops: never panic here.
        if let Ok(mut spans) = self.spans.lock() {
            spans.push(span);
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().map(|s| s.clone()).unwrap_or_default()
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// An open span, recorded when dropped.
pub struct Guard<'a> {
    recorder: &'a Recorder,
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
}

impl Guard<'_> {
    /// The span's id, for its children (0 while recording is off).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if self.id != 0 {
            self.recorder
                .push(self.id, self.parent, self.name, self.start, Instant::now());
        }
    }
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    /// Spans with the name.
    pub count: u64,
    /// Their summed duration, ns.
    pub total_ns: u64,
    /// Their summed self time, ns.
    pub self_ns: u64,
}

/// Each span's self time, by id: its duration minus the union of its
/// children's intervals clipped to it.
fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get(&s.id)
                .map_or(0, |c| covered(c, s.start_ns, s.end_ns));
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Length of the union of `intervals` within `[lo, hi]`.
fn covered(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    v.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (a, b) in v {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + current.map_or(0, |(a, b)| b - a)
}

/// Count, total and self time per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += selfs.get(&s.id).copied().unwrap_or(0);
    }
    out
}

/// The share of the root spans named `root` that their children cover:
/// how much of each traced pass the layer spans account for.
pub fn coverage(spans: &[Span], root: &str) -> f64 {
    let selfs = self_times(spans);
    let (mut duration, mut own) = (0u64, 0u64);
    for s in spans.iter().filter(|s| s.parent == 0 && s.name == root) {
        duration += s.duration_ns();
        own += selfs.get(&s.id).copied().unwrap_or(0);
    }
    if duration == 0 {
        0.0
    } else {
        1.0 - own as f64 / duration as f64
    }
}

/// The span name with the most self time, leaving out grouping spans and
/// the runner calls whose insides the breakdown times: the layer where
/// the time goes.
pub fn dominant(totals: &BTreeMap<&'static str, Totals>) -> &'static str {
    totals
        .iter()
        .filter(|&(&name, _)| !GROUPING.contains(&name) && !name.starts_with("harness."))
        .max_by_key(|(_, t)| t.self_ns)
        .map_or("none", |(&name, _)| name)
}

/// A table of every span name by self time, for standard error.
pub fn table(totals: &BTreeMap<&'static str, Totals>) -> String {
    let mut rows: Vec<(&&str, &Totals)> = totals.iter().collect();
    rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
    let mut out = format!(
        "  {:<24} {:>9} {:>12} {:>12}\n",
        "span", "count", "total_s", "self_s"
    );
    for (name, t) in rows {
        let _ = writeln!(
            out,
            "  {:<24} {:>9} {:>12.6} {:>12.6}",
            name,
            t.count,
            t.total_ns as f64 / 1e9,
            t.self_ns as f64 / 1e9
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Root [0, 100); children [10, 40) and [30, 60) overlap (two
        // threads), [90, 120) sticks out past the root's end.
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 60),
            span(4, 1, 90, 120),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 50 - 10);
        assert_eq!(selfs[&2], 30);
        assert!((coverage(&spans, "x") - 0.6).abs() < 1e-12);
    }
}
