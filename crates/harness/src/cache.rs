//! On-disk cache of generated benchmark traces.
//!
//! Workload generation dominates experiment start-up time, and the result
//! is a pure function of `(benchmark, scale, seed)` — so it caches. Each
//! cache entry is a pair of files keyed by benchmark name, scale, seed and
//! the on-disk format version:
//!
//! * `<bench>-s<scale>-seed<seed>-v<N>.csptrc` — the checksummed v2 trace
//!   ([`csp_trace::io`]);
//! * the same stem with extension `.stats` — the simulator counters
//!   ([`csp_sim::SimStats`]), which the trace format does not carry,
//!   CRC32c-guarded like the trace sections.
//!
//! Robustness contract:
//!
//! * **Atomic writes.** Entries are written to a `.tmp` sibling and
//!   renamed into place, so a crash mid-write never leaves a plausible
//!   half-file under the real name.
//! * **Quarantine, then regenerate.** A cache entry that fails validation
//!   (torn write, bit rot, truncation) is moved aside to `<name>.corrupt`
//!   — kept for post-mortems, never re-read — and the trace is
//!   regenerated; a hit is only reported for entries that decode cleanly.
//! * **Version-keyed names.** Format bumps change the file name, so old
//!   binaries never misparse new files and vice versa.

use crate::error::HarnessError;
use csp_sim::SimStats;
use csp_trace::frame::{u64_at, Format};
use csp_trace::io as trace_io;
use csp_workloads::{generate_benchmark, Benchmark, BenchmarkTrace};
use std::fs;
use std::path::{Path, PathBuf};

/// How a cache lookup was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The entry existed and decoded cleanly.
    Hit,
    /// No entry existed; the trace was generated and stored.
    Miss,
    /// An entry existed but failed validation; it was quarantined and the
    /// trace regenerated.
    Quarantined,
}

/// The stats sidecar file: a [`csp_trace::frame`] header whose fields
/// are the fifteen `SimStats` counters, with no frames after it.
const STATS_FORMAT: Format = Format {
    name: "stats sidecar",
    magic: *b"CSPSTAT\x01",
    header_len: 15 * 8,
    max_body: 0,
};

/// Counts one lookup outcome in the process-global metrics registry
/// (`csp_cache_lookups_total{outcome=...}`).
fn observe(outcome: CacheOutcome) {
    let label = match outcome {
        CacheOutcome::Hit => "hit",
        CacheOutcome::Miss => "miss",
        CacheOutcome::Quarantined => "quarantined",
    };
    csp_obs::global()
        .counter(
            "csp_cache_lookups_total",
            "Trace-cache lookups by outcome.",
            &[("outcome", label)],
        )
        .inc();
}

/// A directory of cached benchmark traces.
#[derive(Clone, Debug)]
pub struct TraceCache {
    dir: PathBuf,
}

impl TraceCache {
    /// A cache rooted at `dir` (created on first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        TraceCache { dir: dir.into() }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The trace file path for one `(benchmark, scale, seed)` key.
    pub fn trace_path(&self, benchmark: Benchmark, scale: f64, seed: u64) -> PathBuf {
        self.dir.join(format!(
            "{}-s{scale}-seed{seed}-v{}.csptrc",
            benchmark.name(),
            trace_io::FORMAT_VERSION
        ))
    }

    fn stats_path(&self, benchmark: Benchmark, scale: f64, seed: u64) -> PathBuf {
        self.trace_path(benchmark, scale, seed)
            .with_extension("stats")
    }

    /// Returns the cached trace for the key, generating (and storing) it
    /// on miss or corruption.
    ///
    /// The returned trace is bit-identical to what
    /// [`csp_workloads::generate_benchmark`] would produce: a warm cache
    /// changes timing only, never results.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Io`] when the cache directory cannot be
    /// created, a corrupt entry cannot be quarantined, or a fresh entry
    /// cannot be written. Corruption of an existing entry is *not* an
    /// error: it quarantines and regenerates.
    pub fn load_or_generate(
        &self,
        benchmark: Benchmark,
        scale: f64,
        seed: u64,
    ) -> Result<(BenchmarkTrace, CacheOutcome), HarnessError> {
        let trace_path = self.trace_path(benchmark, scale, seed);
        let stats_path = self.stats_path(benchmark, scale, seed);

        let outcome = match self.try_load(benchmark, &trace_path, &stats_path) {
            Ok(Some(cached)) => {
                observe(CacheOutcome::Hit);
                return Ok((cached, CacheOutcome::Hit));
            }
            Ok(None) => CacheOutcome::Miss,
            Err(detail) => {
                quarantine(&trace_path)?;
                quarantine(&stats_path)?;
                eprintln!(
                    "warning: quarantined corrupt cache entry {} ({detail})",
                    trace_path.display()
                );
                CacheOutcome::Quarantined
            }
        };

        let generated = generate_benchmark(benchmark, scale, seed);
        self.store(&generated, &trace_path, &stats_path)?;
        observe(outcome);
        Ok((generated, outcome))
    }

    /// Loads (or generates) the whole seven-benchmark suite through the
    /// cache, returning the suite and the per-benchmark outcomes in
    /// [`Benchmark::ALL`] order. The result is identical to
    /// [`crate::runner::Suite::generate`]`(scale, seed)`.
    ///
    /// # Errors
    ///
    /// Propagates [`HarnessError`] from [`Self::load_or_generate`].
    pub fn load_suite(
        &self,
        scale: f64,
        seed: u64,
    ) -> Result<(crate::runner::Suite, Vec<CacheOutcome>), HarnessError> {
        let mut traces = Vec::with_capacity(Benchmark::ALL.len());
        let mut outcomes = Vec::with_capacity(Benchmark::ALL.len());
        for &benchmark in &Benchmark::ALL {
            let (entry, outcome) = self.load_or_generate(benchmark, scale, seed)?;
            traces.push(entry);
            outcomes.push(outcome);
        }
        let suite = crate::runner::Suite::from_parts(traces, scale, seed)?;
        Ok((suite, outcomes))
    }

    /// `Ok(Some)` on a clean hit, `Ok(None)` when absent, `Err(detail)`
    /// when present but invalid.
    fn try_load(
        &self,
        benchmark: Benchmark,
        trace_path: &Path,
        stats_path: &Path,
    ) -> Result<Option<BenchmarkTrace>, String> {
        let file = match fs::File::open(trace_path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("open: {e}")),
        };
        let trace = trace_io::read_trace(std::io::BufReader::new(file))
            .map_err(|e| format!("decode: {e}"))?;
        let stats = match fs::read(stats_path) {
            Ok(bytes) => decode_stats(&bytes)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // A trace without its sidecar is a torn entry.
                return Err("stats sidecar missing".into());
            }
            Err(e) => return Err(format!("open stats: {e}")),
        };
        Ok(Some(BenchmarkTrace {
            benchmark,
            trace,
            stats,
        }))
    }

    fn store(
        &self,
        entry: &BenchmarkTrace,
        trace_path: &Path,
        stats_path: &Path,
    ) -> Result<(), HarnessError> {
        fs::create_dir_all(&self.dir).map_err(|e| HarnessError::io(&self.dir, e))?;
        // Sidecar first: the trace file's presence is the commit point, so
        // a crash between the two renames leaves no live half-entry.
        write_atomically(stats_path, &encode_stats(&entry.stats))?;
        let mut buf = Vec::new();
        trace_io::write_trace(&mut buf, &entry.trace)
            .map_err(|e| HarnessError::io(trace_path, e))?;
        write_atomically(trace_path, &buf)
    }
}

/// Writes `bytes` to `path` via a temporary sibling plus rename (the
/// shared [`trace_io::write_file_atomically`] convention).
fn write_atomically(path: &Path, bytes: &[u8]) -> Result<(), HarnessError> {
    trace_io::write_file_atomically(path, bytes).map_err(|e| HarnessError::io(path, e))
}

/// Moves a failed-validation file aside to `<name>.corrupt` (replacing any
/// previous quarantine of the same name). Missing files are fine: a torn
/// entry may have only one of its two files.
fn quarantine(path: &Path) -> Result<(), HarnessError> {
    let mut target = path.as_os_str().to_owned();
    target.push(".corrupt");
    match fs::rename(path, PathBuf::from(target)) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(HarnessError::io(path, e)),
    }
}

/// The `SimStats` fields in sidecar order. One place to keep the codec and
/// the struct in sync (the compiler checks exhaustiveness via the
/// destructuring in `stats_fields`).
fn stats_fields(s: &SimStats) -> [u64; 15] {
    let SimStats {
        reads,
        writes,
        l1_hits,
        l2_hits,
        read_misses,
        write_hits,
        write_misses,
        write_upgrades,
        silent_upgrades,
        invalidations_sent,
        writebacks,
        l2_evictions,
        lines_touched,
        max_static_stores_per_node,
        miss_latency_cycles,
    } = *s;
    [
        reads,
        writes,
        l1_hits,
        l2_hits,
        read_misses,
        write_hits,
        write_misses,
        write_upgrades,
        silent_upgrades,
        invalidations_sent,
        writebacks,
        l2_evictions,
        lines_touched,
        max_static_stores_per_node,
        miss_latency_cycles,
    ]
}

fn encode_stats(stats: &SimStats) -> Vec<u8> {
    let fields: Vec<u8> = stats_fields(stats)
        .iter()
        .flat_map(|f| f.to_le_bytes())
        .collect();
    let mut out = Vec::with_capacity(STATS_FORMAT.header_bytes());
    STATS_FORMAT.encode_header(&fields, &mut out);
    out
}

fn decode_stats(bytes: &[u8]) -> Result<SimStats, String> {
    let payload = STATS_FORMAT
        .decode_header(bytes)
        .map_err(|e| e.to_string())?;
    let fields: [u64; 15] = std::array::from_fn(|i| u64_at(payload, 8 * i));
    let [reads, writes, l1_hits, l2_hits, read_misses, write_hits, write_misses, write_upgrades, silent_upgrades, invalidations_sent, writebacks, l2_evictions, lines_touched, max_static_stores_per_node, miss_latency_cycles] =
        fields;
    Ok(SimStats {
        reads,
        writes,
        l1_hits,
        l2_hits,
        read_misses,
        write_hits,
        write_misses,
        write_upgrades,
        silent_upgrades,
        invalidations_sent,
        writebacks,
        l2_evictions,
        lines_touched,
        max_static_stores_per_node,
        miss_latency_cycles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("csp-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn stats_roundtrip() {
        let stats = SimStats {
            reads: 1,
            writes: 2,
            l2_evictions: 77,
            miss_latency_cycles: u64::MAX,
            ..SimStats::default()
        };
        assert_eq!(decode_stats(&encode_stats(&stats)).unwrap(), stats);
    }

    #[test]
    fn stats_detect_any_single_byte_flip() {
        let bytes = encode_stats(&SimStats {
            reads: 123,
            ..SimStats::default()
        });
        for i in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0x40;
            assert!(
                decode_stats(&mutated).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn miss_then_hit_then_quarantine() {
        let dir = temp_dir("basic");
        let cache = TraceCache::new(&dir);
        let (first, outcome) = cache
            .load_or_generate(Benchmark::Ocean, 0.01, 5)
            .expect("generate");
        assert_eq!(outcome, CacheOutcome::Miss);

        let (second, outcome) = cache
            .load_or_generate(Benchmark::Ocean, 0.01, 5)
            .expect("load");
        assert_eq!(outcome, CacheOutcome::Hit);
        assert_eq!(first.trace, second.trace);
        assert_eq!(first.stats, second.stats);

        // Corrupt the stored trace: next load must quarantine + regenerate.
        let path = cache.trace_path(Benchmark::Ocean, 0.01, 5);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let (third, outcome) = cache
            .load_or_generate(Benchmark::Ocean, 0.01, 5)
            .expect("recover");
        assert_eq!(outcome, CacheOutcome::Quarantined);
        assert_eq!(first.trace, third.trace);
        let quarantined = PathBuf::from(format!("{}.corrupt", path.display()));
        assert!(quarantined.exists(), "corrupt file kept for post-mortem");

        // And the regenerated entry is clean again.
        let (_, outcome) = cache
            .load_or_generate(Benchmark::Ocean, 0.01, 5)
            .expect("reload");
        assert_eq!(outcome, CacheOutcome::Hit);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lookups_surface_in_the_global_metrics_registry() {
        // The registry is process-global and other tests also look things
        // up concurrently, so assert on deltas, not absolute values.
        fn lookup_count(outcome: &str) -> u64 {
            csp_obs::parse_text(&csp_obs::global().encode_prometheus())
                .iter()
                .filter(|s| {
                    s.name == "csp_cache_lookups_total" && s.label("outcome") == Some(outcome)
                })
                .filter_map(csp_obs::Sample::value_u64)
                .sum()
        }
        let dir = temp_dir("metrics");
        let cache = TraceCache::new(&dir);
        let (miss0, hit0) = (lookup_count("miss"), lookup_count("hit"));
        cache
            .load_or_generate(Benchmark::Barnes, 0.01, 9)
            .expect("generate");
        cache
            .load_or_generate(Benchmark::Barnes, 0.01, 9)
            .expect("load");
        assert!(lookup_count("miss") > miss0);
        assert!(lookup_count("hit") > hit0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_sidecar_is_treated_as_torn_entry() {
        let dir = temp_dir("sidecar");
        let cache = TraceCache::new(&dir);
        cache
            .load_or_generate(Benchmark::Em3d, 0.01, 2)
            .expect("generate");
        fs::remove_file(
            cache
                .trace_path(Benchmark::Em3d, 0.01, 2)
                .with_extension("stats"),
        )
        .unwrap();
        let (_, outcome) = cache
            .load_or_generate(Benchmark::Em3d, 0.01, 2)
            .expect("recover");
        assert_eq!(outcome, CacheOutcome::Quarantined);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_do_not_collide() {
        let c = TraceCache::new("/tmp/x");
        let a = c.trace_path(Benchmark::Water, 0.5, 1);
        assert_ne!(a, c.trace_path(Benchmark::Water, 0.5, 2));
        assert_ne!(a, c.trace_path(Benchmark::Water, 0.25, 1));
        assert_ne!(a, c.trace_path(Benchmark::Gauss, 0.5, 1));
    }
}
