//! The captured-measurement record format.
//!
//! A trajectory file is a [`csp_trace::frame`] log (`CSPBAR1`): an
//! 8-byte magic and its CRC, then one frame per record holding a JSON
//! object — one per run of one (engine, workload, scheme) cell. A torn
//! tail — a record cut off mid-append by a crash — ends a read cleanly
//! with every whole record intact, and the next append cuts it off;
//! any other damage is an error, never silently skipped.
//!
//! Records carry the matrix fingerprint of the definitions they were
//! measured under ([`crate::BarDefs::fingerprint`]); readers gating
//! against a definitions file reject records whose fingerprint does not
//! match, so history from a different matrix shape cannot leak into a
//! comparison. See `crates/bar/FORMAT.md` for the full schema.

use crate::BarError;
use csp_trace::frame::{self, Format, FrameReader, FrameWriter};
use std::fmt::Write as _;
use std::io::{self, BufReader, Read, Write};
use std::path::Path;

/// The trajectory file format: no header fields, one JSON record per
/// frame, each at most 64 KiB (a wild length in a torn tail is not a
/// 4 GiB allocation).
pub const TRAJECTORY_FORMAT: Format = Format {
    name: "csp-bar trajectory",
    magic: *b"CSPBAR1\n",
    header_len: 0,
    max_body: 1 << 16,
};

/// The record schema version this crate writes. Version 2 added
/// `samples` (every timed iteration, not just the fastest); version-1
/// records read back with an empty sample list.
pub const SCHEMA_VERSION: u32 = 2;

/// One captured measurement: a single (engine, workload, scheme) cell
/// of one `csp-bar run` invocation.
#[derive(Clone, Debug, PartialEq)]
pub struct BarRecord {
    /// Record schema version ([`SCHEMA_VERSION`]).
    pub schema: u32,
    /// Matrix fingerprint of the definitions this was measured under.
    pub fingerprint: u64,
    /// Run batch id, shared by every record of one invocation.
    pub run: String,
    /// Wall-clock milliseconds since the Unix epoch at batch start.
    pub unix_ms: u64,
    /// Git revision of the working tree (short hash, or `unknown`).
    pub git_rev: String,
    /// Host fingerprint (`os-arch-hostname`).
    pub host: String,
    /// Engine name.
    pub engine: String,
    /// Workload name (a benchmark, or `suite` for whole-suite cells).
    pub workload: String,
    /// Scheme notation (or a synthetic label for imported cells).
    pub scheme: String,
    /// Workload scale factor.
    pub scale: f64,
    /// Suite seed.
    pub seed: u64,
    /// Untimed warmup passes that preceded timing.
    pub warmup: u32,
    /// Timed iterations.
    pub iters: u32,
    /// Worker shards (sharded engine; 0 when not applicable).
    pub shards: u32,
    /// Decisions scored per iteration.
    pub events: u64,
    /// Fastest timed iteration, in seconds.
    pub seconds: f64,
    /// `events / seconds` of the fastest iteration.
    pub events_per_sec: f64,
    /// Every timed iteration's wall time in seconds, in run order —
    /// the raw samples `seconds` is the minimum of. Empty for schema-1
    /// records (which kept only the minimum) and imported cells.
    pub samples: Vec<f64>,
    /// Median per-iteration wall time in nanoseconds: the nearest-rank
    /// quantile of `samples`.
    pub p50_ns: u64,
    /// 99th-percentile per-iteration wall time in nanoseconds.
    pub p99_ns: u64,
}

impl BarRecord {
    /// The cell this record measured.
    pub fn cell(&self) -> crate::CellKey {
        crate::CellKey {
            engine: self.engine.clone(),
            workload: self.workload.clone(),
            scheme: self.scheme.clone(),
        }
    }

    /// Relative spread of the timed iterations: `(max - min) / min`
    /// over [`samples`](Self::samples). `0.0` is a perfectly steady
    /// cell; `0.25` means the slowest iteration took 25% longer than
    /// the fastest. `None` below two samples (schema-1 history and
    /// imported cells have no distribution to measure).
    pub fn spread(&self) -> Option<f64> {
        if self.samples.len() < 2 {
            return None;
        }
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &s in &self.samples {
            lo = lo.min(s);
            hi = hi.max(s);
        }
        (lo > 0.0).then(|| (hi - lo) / lo)
    }

    /// Sample standard deviation of the timed iterations, in seconds.
    /// `None` below two samples.
    pub fn stddev_seconds(&self) -> Option<f64> {
        let n = self.samples.len();
        if n < 2 {
            return None;
        }
        let mean = self.samples.iter().sum::<f64>() / n as f64;
        let var = self
            .samples
            .iter()
            .map(|s| (s - mean) * (s - mean))
            .sum::<f64>()
            / (n - 1) as f64;
        Some(var.sqrt())
    }

    /// Serializes the record as a single JSON line.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push('{');
        let _ = write!(s, "\"schema\":{}", self.schema);
        let _ = write!(s, ",\"fingerprint\":\"{:016x}\"", self.fingerprint);
        push_str_field(&mut s, "run", &self.run);
        let _ = write!(s, ",\"unix_ms\":{}", self.unix_ms);
        push_str_field(&mut s, "git_rev", &self.git_rev);
        push_str_field(&mut s, "host", &self.host);
        push_str_field(&mut s, "engine", &self.engine);
        push_str_field(&mut s, "workload", &self.workload);
        push_str_field(&mut s, "scheme", &self.scheme);
        let _ = write!(s, ",\"scale\":{}", self.scale);
        let _ = write!(s, ",\"seed\":{}", self.seed);
        let _ = write!(s, ",\"warmup\":{}", self.warmup);
        let _ = write!(s, ",\"iters\":{}", self.iters);
        let _ = write!(s, ",\"shards\":{}", self.shards);
        let _ = write!(s, ",\"events\":{}", self.events);
        let _ = write!(s, ",\"seconds\":{:.9}", self.seconds);
        let _ = write!(s, ",\"events_per_sec\":{:.3}", self.events_per_sec);
        s.push_str(",\"samples\":[");
        for (i, sample) in self.samples.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{sample:.9}");
        }
        s.push(']');
        let _ = write!(s, ",\"p50_ns\":{}", self.p50_ns);
        let _ = write!(s, ",\"p99_ns\":{}", self.p99_ns);
        s.push('}');
        s
    }

    /// Parses a record from the JSON produced by [`BarRecord::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`BarError::Record`] naming the first missing or
    /// malformed field.
    pub fn from_json(text: &str) -> Result<Self, BarError> {
        let schema = u64_field(text, "schema")?;
        let fingerprint_hex = str_field(text, "fingerprint")?;
        let fingerprint = u64::from_str_radix(&fingerprint_hex, 16).map_err(|_| {
            record_err(&format!(
                "fingerprint {fingerprint_hex:?} is not a 64-bit hex value"
            ))
        })?;
        Ok(BarRecord {
            schema: u32::try_from(schema)
                .map_err(|_| record_err("schema does not fit in 32 bits"))?,
            fingerprint,
            run: str_field(text, "run")?,
            unix_ms: u64_field(text, "unix_ms")?,
            git_rev: str_field(text, "git_rev")?,
            host: str_field(text, "host")?,
            engine: str_field(text, "engine")?,
            workload: str_field(text, "workload")?,
            scheme: str_field(text, "scheme")?,
            scale: f64_field(text, "scale")?,
            seed: u64_field(text, "seed")?,
            warmup: u64_field(text, "warmup")? as u32,
            iters: u64_field(text, "iters")? as u32,
            shards: u64_field(text, "shards")? as u32,
            events: u64_field(text, "events")?,
            seconds: f64_field(text, "seconds")?,
            events_per_sec: f64_field(text, "events_per_sec")?,
            samples: f64_array_field(text, "samples")?,
            p50_ns: u64_field(text, "p50_ns")?,
            p99_ns: u64_field(text, "p99_ns")?,
        })
    }
}

fn push_str_field(s: &mut String, key: &str, value: &str) {
    s.push_str(",\"");
    s.push_str(key);
    s.push_str("\":\"");
    for c in value.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

fn record_err(detail: &str) -> BarError {
    BarError::Record {
        detail: detail.to_string(),
    }
}

/// Locates `"key":` in `text` and returns the byte offset just past the
/// colon. Good enough for the flat objects this module itself writes.
fn field_start(text: &str, key: &str) -> Result<usize, BarError> {
    let needle = format!("\"{key}\":");
    text.find(&needle)
        .map(|at| at + needle.len())
        .ok_or_else(|| record_err(&format!("missing field {key:?}")))
}

fn str_field(text: &str, key: &str) -> Result<String, BarError> {
    let at = field_start(text, key)?;
    let rest = text[at..]
        .strip_prefix('"')
        .ok_or_else(|| record_err(&format!("field {key:?} is not a string")))?;
    let mut out = String::new();
    let mut chars = rest.chars();
    loop {
        match chars.next() {
            None => return Err(record_err(&format!("unterminated string in field {key:?}"))),
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('u') => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16)
                        .ok()
                        .and_then(char::from_u32)
                        .ok_or_else(|| record_err(&format!("bad \\u escape in field {key:?}")))?;
                    out.push(code);
                }
                _ => return Err(record_err(&format!("bad escape in field {key:?}"))),
            },
            Some(c) => out.push(c),
        }
    }
}

fn num_field<'a>(text: &'a str, key: &str) -> Result<&'a str, BarError> {
    let at = field_start(text, key)?;
    let rest = &text[at..];
    let end = rest
        .find(|c: char| {
            !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E')
        })
        .unwrap_or(rest.len());
    if end == 0 {
        return Err(record_err(&format!("field {key:?} is not a number")));
    }
    Ok(&rest[..end])
}

fn u64_field(text: &str, key: &str) -> Result<u64, BarError> {
    num_field(text, key)?
        .parse()
        .map_err(|_| record_err(&format!("field {key:?} is not an unsigned integer")))
}

fn f64_field(text: &str, key: &str) -> Result<f64, BarError> {
    num_field(text, key)?
        .parse()
        .map_err(|_| record_err(&format!("field {key:?} is not a number")))
}

/// Parses an optional flat array of numbers. A missing key is an empty
/// array, not an error — schema-1 records predate `samples`.
fn f64_array_field(text: &str, key: &str) -> Result<Vec<f64>, BarError> {
    let Ok(at) = field_start(text, key) else {
        return Ok(Vec::new());
    };
    let rest = text[at..]
        .strip_prefix('[')
        .ok_or_else(|| record_err(&format!("field {key:?} is not an array")))?;
    let end = rest
        .find(']')
        .ok_or_else(|| record_err(&format!("unterminated array in field {key:?}")))?;
    let body = &rest[..end];
    if body.trim().is_empty() {
        return Ok(Vec::new());
    }
    body.split(',')
        .map(|v| {
            v.trim()
                .parse()
                .map_err(|_| record_err(&format!("field {key:?} holds a non-number")))
        })
        .collect()
}

/// Serializes `records` (with the file header) to `w`.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_records<W: Write>(w: W, records: &[BarRecord]) -> io::Result<()> {
    FrameWriter::create(w, &TRAJECTORY_FORMAT, &[])?.write_encoded(&encode_records(records))
}

fn encode_records(records: &[BarRecord]) -> Vec<u8> {
    let mut frames = Vec::with_capacity(records.len() * 512);
    for record in records {
        frame::encode_frame(&mut frames, |body| {
            body.extend_from_slice(record.to_json().as_bytes());
        });
    }
    frames
}

/// Reads every record from a trajectory stream written by
/// [`write_records`] / [`append_records_file`].
///
/// A torn tail ends the read cleanly: every whole record is returned.
/// Records with a schema version newer than [`SCHEMA_VERSION`] are
/// skipped (forward compatibility); any other damage, or a whole record
/// whose JSON is malformed, is an error.
///
/// # Errors
///
/// Returns [`BarError::Record`] on a damaged header, damage other than
/// a torn tail, or malformed records (the caller owns path context).
pub fn read_records<R: Read>(r: R) -> Result<Vec<BarRecord>, BarError> {
    let io_err = |e: io::Error| record_err(&e.to_string());
    let mut frames = FrameReader::open(BufReader::new(r), &TRAJECTORY_FORMAT).map_err(io_err)?;
    let mut records = Vec::new();
    for frame in frames.by_ref() {
        let text = String::from_utf8(frame.map_err(io_err)?)
            .map_err(|_| record_err("checksummed record is not UTF-8"))?;
        let schema = u64_field(&text, "schema")?;
        if schema > u64::from(SCHEMA_VERSION) {
            continue; // a future writer's record; skip, don't guess
        }
        records.push(BarRecord::from_json(&text)?);
    }
    Ok(records)
}

/// Reads a trajectory file from disk.
///
/// # Errors
///
/// Returns [`BarError::Io`] if the file cannot be opened and
/// [`BarError::Record`] on format errors.
pub fn read_records_file(path: &Path) -> Result<Vec<BarRecord>, BarError> {
    let file = std::fs::File::open(path).map_err(|e| BarError::io(path, e))?;
    read_records(file).map_err(|e| match e {
        BarError::Record { detail } => BarError::Record {
            detail: format!("{}: {detail}", path.display()),
        },
        other => other,
    })
}

/// Appends `records` to the trajectory file at `path`, creating it
/// (with parent directories and the file header) if needed. An existing
/// file must be an intact trajectory — appending measurement frames to
/// some other format, or past corruption, would damage both — and a
/// torn tail is cut off first, so the new records never land behind it.
///
/// # Errors
///
/// Returns [`BarError::Io`] on filesystem failures and
/// [`BarError::Record`] if an existing file is not an intact trajectory.
pub fn append_records_file(path: &Path, records: &[BarRecord]) -> Result<(), BarError> {
    let keep = |bytes: &[u8]| {
        let mut frames = FrameReader::open(bytes, &TRAJECTORY_FORMAT)?;
        for frame in frames.by_ref() {
            frame?;
        }
        Ok(frames.whole_len())
    };
    let wrap = |e: io::Error| match e.kind() {
        io::ErrorKind::InvalidData => record_err(&format!("{}: {e}", path.display())),
        _ => BarError::io(path, e),
    };
    frame::open_append(path, &TRAJECTORY_FORMAT, &[], keep)
        .and_then(|mut w| w.write_encoded(&encode_records(records)))
        .map_err(wrap)
}

/// Keeps only the newest `keep_last` records of each (engine, workload,
/// scheme) cell, preserving file order among the survivors. "Newest"
/// means latest in file order — the trajectory is append-only, so file
/// order is time order. `keep_last == 0` drops everything.
pub fn prune_records(records: &[BarRecord], keep_last: usize) -> Vec<BarRecord> {
    use std::collections::HashMap;
    let mut total: HashMap<crate::CellKey, usize> = HashMap::new();
    for r in records {
        *total.entry(r.cell()).or_insert(0) += 1;
    }
    // A record survives when it sits within the last `keep_last` of its
    // cell: its 1-based position must exceed `total - keep_last`.
    let mut seen: HashMap<crate::CellKey, usize> = HashMap::new();
    records
        .iter()
        .filter(|r| {
            let cell = r.cell();
            let cut = total[&cell].saturating_sub(keep_last);
            let at = seen.entry(cell).or_insert(0);
            *at += 1;
            *at > cut
        })
        .cloned()
        .collect()
}

/// Rewrites the trajectory at `path` keeping only the newest
/// `keep_last` records per cell. The replacement is built in memory and
/// swapped in atomically (tmp + rename), so a crash mid-prune leaves
/// the original file intact. Returns `(kept, dropped)` counts.
///
/// # Errors
///
/// Returns [`BarError::Io`] on filesystem failures and
/// [`BarError::Record`] if the existing file is not a trajectory.
pub fn prune_records_file(path: &Path, keep_last: usize) -> Result<(usize, usize), BarError> {
    let records = read_records_file(path)?;
    let kept = prune_records(&records, keep_last);
    let dropped = records.len() - kept.len();
    if dropped == 0 {
        return Ok((kept.len(), 0));
    }
    let mut buf = Vec::with_capacity(kept.len() * 512 + 16);
    write_records(&mut buf, &kept).map_err(|e| BarError::io(path, e))?;
    csp_trace::io::write_file_atomically(path, &buf).map_err(|e| BarError::io(path, e))?;
    Ok((kept.len(), dropped))
}

/// Validates records against a definitions file's matrix fingerprint.
/// Returns the indices and descriptions of rejected records.
pub fn fingerprint_mismatches(records: &[BarRecord], fingerprint: u64) -> Vec<String> {
    records
        .iter()
        .enumerate()
        .filter(|(_, r)| r.fingerprint != fingerprint)
        .map(|(i, r)| {
            format!(
                "record {i} ({}, run {}) carries matrix fingerprint {:016x}, \
                 definitions say {fingerprint:016x}",
                r.cell(),
                r.run,
                r.fingerprint
            )
        })
        .collect()
}

/// Rejects any record whose matrix fingerprint does not match the
/// definitions — a record measured under a different matrix shape must
/// never gate (or be gated by) this one.
///
/// # Errors
///
/// Returns [`BarError::Record`] listing every mismatched record.
pub fn require_fingerprint(records: &[BarRecord], fingerprint: u64) -> Result<(), BarError> {
    let mismatches = fingerprint_mismatches(records, fingerprint);
    if mismatches.is_empty() {
        Ok(())
    } else {
        Err(record_err(&mismatches.join("; ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample(engine: &str, workload: &str, run: &str) -> BarRecord {
        BarRecord {
            schema: SCHEMA_VERSION,
            fingerprint: 0xDEAD_BEEF_0123_4567,
            run: run.to_string(),
            unix_ms: 1_700_000_000_000,
            git_rev: "abc123def456".to_string(),
            host: "linux-x86_64-testbox".to_string(),
            engine: engine.to_string(),
            workload: workload.to_string(),
            scheme: "union(pid+pc8)2[forwarded]".to_string(),
            scale: 0.05,
            seed: 1,
            warmup: 1,
            iters: 3,
            shards: 4,
            events: 123_456,
            seconds: 0.004_2,
            events_per_sec: 29_394_285.714,
            samples: vec![0.004_2, 0.004_9, 0.004_4],
            p50_ns: 4_194_304,
            p99_ns: 8_388_608,
        }
    }

    #[test]
    fn json_round_trips_including_escapes() {
        let mut r = sample("simd", "water", "run-1");
        r.host = "we\"ird\\host\nname\ttab\u{1}".to_string();
        let parsed = BarRecord::from_json(&r.to_json()).expect("round-trip");
        assert_eq!(parsed, r);
    }

    #[test]
    fn schema_one_records_read_back_without_samples() {
        // A record as a version-1 writer framed it: no "samples" key.
        let r = sample("simd", "water", "run-1");
        let legacy = r
            .to_json()
            .replace("\"schema\":2", "\"schema\":1")
            .replace(",\"samples\":[0.004200000,0.004900000,0.004400000]", "");
        let parsed = BarRecord::from_json(&legacy).expect("legacy parse");
        assert_eq!(parsed.schema, 1);
        assert!(parsed.samples.is_empty());
        assert_eq!(parsed.seconds, r.seconds);
        assert_eq!(parsed.spread(), None);
        assert_eq!(parsed.stddev_seconds(), None);
    }

    #[test]
    fn spread_and_stddev_measure_the_sample_distribution() {
        let mut r = sample("simd", "water", "run-1");
        r.samples = vec![0.004, 0.005, 0.0045];
        let spread = r.spread().expect("three samples");
        assert!((spread - 0.25).abs() < 1e-9, "{spread}"); // (5-4)/4
        let sd = r.stddev_seconds().expect("three samples");
        assert!((sd - 0.0005).abs() < 1e-9, "{sd}");
        r.samples = vec![0.004];
        assert_eq!(r.spread(), None, "one sample has no spread");
        r.samples = vec![0.004, 0.004];
        assert_eq!(r.spread(), Some(0.0), "steady cell");
    }

    #[test]
    fn stream_round_trips_many_records() {
        let records: Vec<BarRecord> = (0..10)
            .map(|i| sample("reference", "gauss", &format!("run-{i}")))
            .collect();
        let mut buf = Vec::new();
        write_records(&mut buf, &records).expect("in-memory write");
        let back = read_records(&buf[..]).expect("read");
        assert_eq!(back, records);
    }

    #[test]
    fn append_extends_an_existing_file() {
        let dir = std::env::temp_dir().join(format!("csp-bar-append-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("t.bar");
        append_records_file(&path, &[sample("reference", "water", "a")]).expect("create");
        append_records_file(&path, &[sample("simd", "water", "b")]).expect("append");
        let back = read_records_file(&path).expect("read");
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].run, "a");
        assert_eq!(back[1].run, "b");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_refuses_foreign_files() {
        let dir = std::env::temp_dir().join(format!("csp-bar-foreign-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("notbar.json");
        std::fs::write(&path, b"{\"not\": \"a trajectory\"}").expect("write");
        let err = append_records_file(&path, &[sample("reference", "water", "a")]).unwrap_err();
        assert!(
            err.to_string().contains("not a csp-bar trajectory"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn future_schema_records_are_skipped_not_fatal() {
        let old = sample("reference", "water", "a");
        let mut future = sample("simd", "water", "b");
        future.schema = SCHEMA_VERSION + 1;
        let mut buf = Vec::new();
        write_records(&mut buf, &[old.clone(), future, old.clone()]).expect("write");
        let back = read_records(&buf[..]).expect("read");
        assert_eq!(back.len(), 2);
        assert!(back.iter().all(|r| r.schema == SCHEMA_VERSION));
    }

    #[test]
    fn fingerprint_gatekeeping_rejects_mismatches() {
        let a = sample("reference", "water", "a");
        let mut b = sample("simd", "water", "a");
        b.fingerprint ^= 1;
        require_fingerprint(std::slice::from_ref(&a), a.fingerprint).expect("match passes");
        let err = require_fingerprint(&[a.clone(), b], a.fingerprint).unwrap_err();
        assert!(err.to_string().contains("fingerprint"), "{err}");
        assert_eq!(
            fingerprint_mismatches(std::slice::from_ref(&a), !a.fingerprint).len(),
            1
        );
    }

    #[test]
    fn prune_keeps_the_last_n_per_cell_in_file_order() {
        // Two cells interleaved: reference/water runs a..d, simd/water
        // runs x..z. Keeping 2 must keep each cell's last two, still in
        // original file order.
        let records = vec![
            sample("reference", "water", "a"),
            sample("simd", "water", "x"),
            sample("reference", "water", "b"),
            sample("reference", "water", "c"),
            sample("simd", "water", "y"),
            sample("reference", "water", "d"),
            sample("simd", "water", "z"),
        ];
        let kept = prune_records(&records, 2);
        let runs: Vec<&str> = kept.iter().map(|r| r.run.as_str()).collect();
        assert_eq!(runs, ["c", "y", "d", "z"]);
        // A cell with fewer records than the cap survives untouched.
        assert_eq!(prune_records(&records, 10), records);
        // Zero drops everything.
        assert!(prune_records(&records, 0).is_empty());
    }

    #[test]
    fn prune_rewrites_the_file_atomically_and_reports_counts() {
        let dir = std::env::temp_dir().join(format!("csp-bar-prune-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("t.bar");
        let records: Vec<BarRecord> = (0..5)
            .map(|i| sample("reference", "gauss", &format!("run-{i}")))
            .collect();
        append_records_file(&path, &records).expect("create");
        let (kept, dropped) = prune_records_file(&path, 2).expect("prune");
        assert_eq!((kept, dropped), (2, 3));
        let back = read_records_file(&path).expect("read pruned");
        let runs: Vec<&str> = back.iter().map(|r| r.run.as_str()).collect();
        assert_eq!(runs, ["run-3", "run-4"]);
        // No leftover tmp file, and a no-op prune reports zero dropped
        // without rewriting.
        assert!(!dir.join("t.bar.tmp").exists());
        let before = std::fs::metadata(&path).expect("meta").modified().ok();
        let (kept, dropped) = prune_records_file(&path, 2).expect("no-op prune");
        assert_eq!((kept, dropped), (2, 0));
        assert_eq!(
            std::fs::metadata(&path).expect("meta").modified().ok(),
            before
        );
        // The pruned file still appends cleanly (header intact).
        append_records_file(&path, &[sample("reference", "gauss", "run-5")]).expect("append");
        assert_eq!(read_records_file(&path).expect("read").len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
