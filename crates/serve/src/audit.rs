//! The decision audit stream: every scored prediction a live engine
//! makes, captured as a canonical [`AuditRecord`] and provable
//! byte-identical to an offline replay.
//!
//! The offline engine (`csp_core::engine`) and the sharded server were
//! already proven equivalent by one-shot tests (`tests/equivalence.rs`);
//! this module turns that from a test-time claim into a continuously
//! checkable production property:
//!
//! * [`AuditSink`] — attached to a [`ShardedEngine`] before traffic,
//!   receives each shard's records *before* the shard publishes the
//!   decision's counters (the same journal-before-effect discipline as
//!   replication), appends them to a CRC32c-framed log file
//!   ([`csp_trace::audit`]), and keeps a bounded in-memory ring so wire
//!   subscribers can tail decisions live.
//! * [`verify_log`] — the offline twin: replays the recorded trace
//!   through per-shard predictor states exactly as the workers did,
//!   re-derives every record, and compares 42-byte encodings. The first
//!   divergence aborts with a typed field-level diff.
//!
//! # Determinism rules
//!
//! Verification is sound because per-shard decision streams are
//! deterministic: operations are routed by `shard_of_key`, each shard's
//! inbox is a FIFO, and `seq` is the shard-local scored-decision index.
//! Two recorded quantities are *attested* rather than re-derived:
//!
//! * `epoch` — which fencing term was current when a decision was made
//!   is wall-clock history, not a function of the trace. The verifier
//!   checks it is monotonically non-decreasing per shard, then adopts
//!   the recorded value into the expected record.
//! * sampling — `--audit-sample 1/N` keeps a record iff
//!   [`sample_keeps`]`(key, N)`, a pure
//!   function of the key, so the twin applies the identical predicate
//!   and a sampled log still verifies exactly.
//!
//! A torn log (crash or `kill -9` mid-record) is a *prefix* of the
//! expected stream on every shard and verifies clean; a log with records
//! the twin never produced is a coverage failure.

use crate::error::ServeError;
use crate::shard::{apply_op, replay_ops, ShardState, ShardedEngine};
use crate::snapshot::EngineState;
use csp_core::{shard_of_key, version_fingerprint, PreparedTrace, Scheme};
use csp_obs::Registry;
use csp_trace::audit::{sample_keeps, AuditHeader, AuditRecord, AuditWriter};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Records retained in the in-memory tail ring for live subscribers.
/// Subscribers that fall further behind than this are told to restart
/// from the oldest retained offset (or read the log file).
pub const RING_CAP: usize = 1 << 16;

/// The per-decision audit sink a [`ShardedEngine`] writes through.
///
/// Shard workers call [`append`](Self::append) with each batch's records
/// before publishing the batch's effects; the sink frames them onto the
/// log file (flushed, so a surviving record implies a surviving frame)
/// and into the tail ring, then wakes wire subscribers.
pub struct AuditSink {
    fingerprint: u32,
    shards: u16,
    sample: u32,
    /// `sample_threshold(sample)`, hoisted out of the per-decision loop
    /// (the threshold costs a division to derive).
    keep_threshold: u64,
    /// Whether a log writer is attached (fixed at build time) — checked
    /// before the lock so ring-only sinks skip framing entirely.
    durable: bool,
    /// Fencing term stamped into records at emission time. Set by the
    /// engine's pipeline whenever its log's term changes; 0 means
    /// unreplicated/offline.
    epoch: AtomicU64,
    /// Lock-free mirrors of the ring head / byte count for metrics.
    records_total: AtomicU64,
    bytes_total: AtomicU64,
    inner: Mutex<SinkInner>,
    cond: Condvar,
}

struct SinkInner {
    writer: Option<AuditWriter<Box<dyn Write + Send>>>,
    ring: VecDeque<AuditRecord>,
    /// Offset of `ring.front()`; `base + ring.len() == head`.
    base: u64,
    /// Total records ever appended.
    head: u64,
    /// Live subscriber positions, for the lag gauge.
    subscribers: HashMap<u64, u64>,
    next_subscriber: u64,
}

impl fmt::Debug for AuditSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AuditSink")
            .field("fingerprint", &self.fingerprint)
            .field("shards", &self.shards)
            .field("sample", &self.sample)
            .field("records", &self.records_total.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl AuditSink {
    /// Creates a sink that logs to `path` (truncating any existing
    /// file), computing the version fingerprint from `scheme`/`nodes`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Audit`] when the file cannot be created or the
    /// header cannot be written.
    pub fn to_file(
        path: &Path,
        scheme: &Scheme,
        nodes: usize,
        shards: u16,
        sample: u32,
    ) -> Result<AuditSink, ServeError> {
        let file = File::create(path).map_err(|e| ServeError::Audit {
            detail: format!("cannot create audit log {}: {e}", path.display()),
        })?;
        let writer: Box<dyn Write + Send> = Box::new(BufWriter::new(file));
        Self::to_writer(writer, scheme, nodes, shards, sample)
    }

    /// Creates a sink over an arbitrary writer (tests, in-memory logs).
    ///
    /// # Errors
    ///
    /// [`ServeError::Audit`] when the header cannot be written.
    pub fn to_writer(
        writer: Box<dyn Write + Send>,
        scheme: &Scheme,
        nodes: usize,
        shards: u16,
        sample: u32,
    ) -> Result<AuditSink, ServeError> {
        let fingerprint = version_fingerprint(scheme, nodes);
        let header = AuditHeader {
            fingerprint,
            shards,
            sample,
        };
        let writer = AuditWriter::create(writer, &header).map_err(|e| ServeError::Audit {
            detail: format!("cannot write audit header: {e}"),
        })?;
        Ok(Self::build(Some(writer), fingerprint, shards, sample))
    }

    /// Creates a ring-only sink (no durable log): decisions are tailable
    /// over the wire but nothing is written to disk.
    pub fn in_memory(scheme: &Scheme, nodes: usize, shards: u16, sample: u32) -> AuditSink {
        Self::build(None, version_fingerprint(scheme, nodes), shards, sample)
    }

    fn build(
        writer: Option<AuditWriter<Box<dyn Write + Send>>>,
        fingerprint: u32,
        shards: u16,
        sample: u32,
    ) -> AuditSink {
        AuditSink {
            fingerprint,
            shards,
            sample,
            keep_threshold: csp_trace::audit::sample_threshold(sample),
            durable: writer.is_some(),
            epoch: AtomicU64::new(0),
            records_total: AtomicU64::new(0),
            bytes_total: AtomicU64::new(0),
            inner: Mutex::new(SinkInner {
                writer,
                ring: VecDeque::new(),
                base: 0,
                head: 0,
                subscribers: HashMap::new(),
                next_subscriber: 0,
            }),
            cond: Condvar::new(),
        }
    }

    /// The version fingerprint every record in this stream is tagged
    /// with (in the log header and each wire segment).
    pub fn fingerprint(&self) -> u32 {
        self.fingerprint
    }

    /// Shard count of the recording engine.
    pub fn shards(&self) -> u16 {
        self.shards
    }

    /// The sampling modulus (records kept iff `sample_keeps(key, n)`).
    pub fn sample(&self) -> u32 {
        self.sample
    }

    /// The cached [`sample_threshold`](csp_trace::audit::sample_threshold)
    /// for this sink's modulus: the emit path keeps a record iff
    /// [`sample_mix`](csp_trace::audit::sample_mix)`(key)` is at or
    /// below it.
    pub fn keep_threshold(&self) -> u64 {
        self.keep_threshold
    }

    /// The fencing term currently stamped into emitted records.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Sets the fencing term for subsequently emitted records. An engine's
    /// pipeline calls it on attach, promotion and term adoption.
    pub fn set_epoch(&self, epoch: u64) {
        self.epoch.store(epoch, Ordering::SeqCst);
    }

    /// Total records appended so far (the stream head).
    pub fn head(&self) -> u64 {
        self.records_total.load(Ordering::SeqCst)
    }

    /// Appends `records` to the log (framed + flushed) and the tail
    /// ring, then wakes subscribers. Called by shard workers *before*
    /// they publish the corresponding counters.
    ///
    /// # Errors
    ///
    /// Propagates the log write failure; the caller must not publish the
    /// batch's effects (the worker panics, and supervision tears the run
    /// down rather than continue un-audited).
    pub fn append(&self, records: &[AuditRecord]) -> io::Result<()> {
        self.append_buffered(records, &mut Vec::new())
    }

    /// [`append`](Self::append) with a caller-owned framing scratch
    /// buffer, so a worker appending every batch reuses one allocation.
    ///
    /// # Errors
    ///
    /// See [`append`](Self::append).
    pub fn append_buffered(
        &self,
        records: &[AuditRecord],
        scratch: &mut Vec<u8>,
    ) -> io::Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        // Frame (encode + CRC32c) before taking the lock: each shard
        // worker checksums its own batch in parallel, and the lock
        // covers only the buffered write and ring bookkeeping — the
        // serialized section is a memcpy, not the checksum.
        scratch.clear();
        if self.durable {
            csp_trace::audit::frame_segments(records, scratch);
        }
        let mut inner = self.inner.lock().expect("audit sink poisoned");
        if let Some(w) = inner.writer.as_mut() {
            w.write_framed(scratch)?;
        }
        inner.ring.extend(records.iter().copied());
        inner.head += records.len() as u64;
        while inner.ring.len() > RING_CAP {
            inner.ring.pop_front();
            inner.base += 1;
        }
        self.records_total.store(inner.head, Ordering::SeqCst);
        self.bytes_total.fetch_add(
            csp_trace::audit::framed_len(records.len()) as u64,
            Ordering::Relaxed,
        );
        drop(inner);
        self.cond.notify_all();
        Ok(())
    }

    /// Registers a live subscriber for the lag gauge; returns its id.
    pub fn subscribe(&self) -> u64 {
        let mut inner = self.inner.lock().expect("audit sink poisoned");
        let id = inner.next_subscriber;
        inner.next_subscriber += 1;
        let head = inner.head;
        inner.subscribers.insert(id, head);
        id
    }

    /// Records how far subscriber `id` has read.
    pub fn advance(&self, id: u64, offset: u64) {
        let mut inner = self.inner.lock().expect("audit sink poisoned");
        if let Some(pos) = inner.subscribers.get_mut(&id) {
            *pos = offset;
        }
    }

    /// Drops subscriber `id` from lag accounting.
    pub fn unsubscribe(&self, id: u64) {
        let mut inner = self.inner.lock().expect("audit sink poisoned");
        inner.subscribers.remove(&id);
    }

    /// Records the slowest live subscriber has not yet read (0 with no
    /// subscribers — nobody is behind).
    pub fn lag(&self) -> u64 {
        let inner = self.inner.lock().expect("audit sink poisoned");
        inner
            .subscribers
            .values()
            .map(|&pos| inner.head.saturating_sub(pos))
            .max()
            .unwrap_or(0)
    }

    /// Blocks until records past `from` exist (or `timeout` elapses) and
    /// returns up to `max` of them. A timeout returns an empty batch —
    /// the heartbeat that proves the stream is alive and the subscriber
    /// caught up.
    ///
    /// # Errors
    ///
    /// [`AuditStreamError::TooOld`] when `from` has already left the
    /// ring, [`AuditStreamError::Ahead`] when `from` is past the head.
    pub fn wait_records(
        &self,
        from: u64,
        max: usize,
        timeout: Duration,
    ) -> Result<AuditBatch, AuditStreamError> {
        let mut inner = self.inner.lock().expect("audit sink poisoned");
        loop {
            if from > inner.head {
                return Err(AuditStreamError::Ahead { head: inner.head });
            }
            if from < inner.base {
                return Err(AuditStreamError::TooOld { oldest: inner.base });
            }
            if from < inner.head {
                let skip = (from - inner.base) as usize;
                let records: Vec<AuditRecord> =
                    inner.ring.iter().skip(skip).take(max).copied().collect();
                return Ok(AuditBatch {
                    start: from,
                    head: inner.head,
                    records,
                });
            }
            let (guard, timed_out) = self
                .cond
                .wait_timeout(inner, timeout)
                .expect("audit sink poisoned");
            inner = guard;
            if timed_out.timed_out() {
                return Ok(AuditBatch {
                    start: from,
                    head: inner.head,
                    records: Vec::new(),
                });
            }
        }
    }

    /// Registers the `csp_audit_*` series on `registry`, reading this
    /// sink's live counters.
    pub fn bind_metrics(self: &Arc<Self>, registry: &Registry) {
        let sink = Arc::clone(self);
        registry.register_counter_fn(
            "csp_audit_records_total",
            "Decision audit records emitted.",
            &[],
            move || sink.records_total.load(Ordering::Relaxed),
        );
        let sink = Arc::clone(self);
        registry.register_counter_fn(
            "csp_audit_bytes_total",
            "Bytes of framed audit records written.",
            &[],
            move || sink.bytes_total.load(Ordering::Relaxed),
        );
        let sink = Arc::clone(self);
        registry.register_gauge_fn(
            "csp_audit_lag",
            "Records the slowest live audit subscriber has not yet read.",
            &[],
            move || sink.lag() as i64,
        );
    }
}

/// A slice of the audit stream handed to one subscriber: records
/// `[start, start + records.len())` plus the head at read time. Empty
/// means heartbeat.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditBatch {
    /// Offset of the first record.
    pub start: u64,
    /// The stream head when the batch was cut.
    pub head: u64,
    /// The records (empty for a heartbeat).
    pub records: Vec<AuditRecord>,
}

/// Why a subscriber's requested offset cannot be served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AuditStreamError {
    /// The offset has left the tail ring; restart from `oldest` or read
    /// the log file.
    TooOld {
        /// Oldest offset still retained.
        oldest: u64,
    },
    /// The offset is past the stream head — the subscriber claims
    /// records that do not exist.
    Ahead {
        /// The current stream head.
        head: u64,
    },
}

impl fmt::Display for AuditStreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditStreamError::TooOld { oldest } => {
                write!(
                    f,
                    "offset has left the audit ring; oldest retained is {oldest}"
                )
            }
            AuditStreamError::Ahead { head } => {
                write!(f, "offset is past the audit head {head}")
            }
        }
    }
}

/// What [`verify_log`] proved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AuditVerifyReport {
    /// Records compared byte-for-byte (equals the log's record count on
    /// success).
    pub checked: u64,
    /// Scored decisions the offline twin made over the trace (≥
    /// `checked` for sampled or torn logs).
    pub decisions: u64,
    /// Shard count verification ran with.
    pub shards: u16,
    /// Sampling modulus from the log header.
    pub sample: u32,
    /// Whether the log ended in a torn (discarded) segment.
    pub torn: bool,
}

/// One divergent decision: the recorded record, the twin's expectation,
/// and which fields differ.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditDivergence {
    /// Position of the recorded record in the log file.
    pub index: usize,
    /// The shard whose stream diverged.
    pub shard: u16,
    /// What the live engine recorded.
    pub recorded: AuditRecord,
    /// What the offline twin derived.
    pub expected: AuditRecord,
    /// Names of the differing fields.
    pub fields: Vec<&'static str>,
}

impl fmt::Display for AuditDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "decision diverged at log record {} (shard {}, fields: {}):",
            self.index,
            self.shard,
            self.fields.join(", ")
        )?;
        let show = |r: &AuditRecord| {
            format!(
                "seq={} key={:#018x} predicted={:#x} actual={:#x} epoch={}",
                r.seq, r.key, r.predicted, r.actual, r.epoch
            )
        };
        writeln!(f, "  recorded: {}", show(&self.recorded))?;
        write!(f, "  expected: {}", show(&self.expected))
    }
}

/// Why verification failed.
#[derive(Debug)]
pub enum AuditVerifyError {
    /// The log was recorded by an incompatible engine (scheme, geometry,
    /// or format revision drift).
    Fingerprint {
        /// Fingerprint in the log header.
        log: u32,
        /// Fingerprint of the verifying configuration.
        expected: u32,
    },
    /// The seed/final snapshot does not fit the log or trace.
    Snapshot {
        /// What differs.
        detail: String,
    },
    /// The log is internally inconsistent (impossible shard ids,
    /// regressing epochs).
    Corrupt {
        /// What the verifier rejected.
        detail: String,
    },
    /// A recorded decision differs from the offline twin's.
    Divergence(Box<AuditDivergence>),
    /// The log contains records beyond the decisions the trace produces
    /// — it was recorded over different traffic.
    Coverage {
        /// What was left over.
        detail: String,
    },
    /// The twin's end state disagrees with the shutdown snapshot.
    FinalState {
        /// What differs.
        detail: String,
    },
}

impl fmt::Display for AuditVerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditVerifyError::Fingerprint { log, expected } => write!(
                f,
                "version fingerprint mismatch: log recorded under {log:#010x}, \
                 verifier configured for {expected:#010x}"
            ),
            AuditVerifyError::Snapshot { detail } => write!(f, "snapshot mismatch: {detail}"),
            AuditVerifyError::Corrupt { detail } => write!(f, "inconsistent audit log: {detail}"),
            AuditVerifyError::Divergence(d) => d.fmt(f),
            AuditVerifyError::Coverage { detail } => write!(f, "coverage failure: {detail}"),
            AuditVerifyError::FinalState { detail } => {
                write!(f, "final state mismatch: {detail}")
            }
        }
    }
}

impl std::error::Error for AuditVerifyError {}

fn diff_fields(a: &AuditRecord, b: &AuditRecord) -> Vec<&'static str> {
    let fields = [
        ("seq", a.seq != b.seq),
        ("key", a.key != b.key),
        ("predicted", a.predicted != b.predicted),
        ("actual", a.actual != b.actual),
        ("epoch", a.epoch != b.epoch),
        ("shard", a.shard != b.shard),
    ];
    fields
        .into_iter()
        .filter_map(|(f, differs)| differs.then_some(f))
        .collect()
}

/// Replays `prepared` through the offline twin and proves `log`'s
/// decisions byte-identical.
///
/// * `seed` — the snapshot the recording engine started from, when it
///   did not start empty; the twin seeds its shard states (and starting
///   event position) from it.
/// * `check_final` — a shutdown snapshot to compare the twin's end state
///   against (confusion counters, update/score totals per shard); use
///   for graceful runs. Torn logs from killed processes verify their
///   prefix without one.
///
/// # Errors
///
/// See [`AuditVerifyError`] — every failure mode is typed, and the first
/// divergent record aborts with a field-level diff.
pub fn verify_log(
    log: &csp_trace::audit::AuditLog,
    prepared: &PreparedTrace<'_>,
    scheme: &Scheme,
    seed: Option<&EngineState>,
    check_final: Option<&EngineState>,
) -> Result<AuditVerifyReport, AuditVerifyError> {
    let nodes = prepared.nodes();
    let expected_fp = version_fingerprint(scheme, nodes);
    if log.header.fingerprint != expected_fp {
        return Err(AuditVerifyError::Fingerprint {
            log: log.header.fingerprint,
            expected: expected_fp,
        });
    }

    let shards = log.header.shards as usize;
    let mut states: Vec<ShardState> = match seed {
        Some(state) => {
            if state.scheme != *scheme || state.nodes != nodes {
                return Err(AuditVerifyError::Snapshot {
                    detail: format!(
                        "seed snapshot is {}/{} nodes, log is {scheme}/{nodes} nodes",
                        state.scheme, state.nodes
                    ),
                });
            }
            if state.shards.len() != shards {
                return Err(AuditVerifyError::Snapshot {
                    detail: format!(
                        "seed snapshot has {} shards, log header says {shards}",
                        state.shards.len()
                    ),
                });
            }
            state.shards.clone()
        }
        None => (0..shards)
            .map(|_| ShardState::empty(scheme, nodes))
            .collect(),
    };
    let start_event = seed.map(|s| s.seq as usize).unwrap_or(0);
    if start_event > prepared.len() {
        return Err(AuditVerifyError::Snapshot {
            detail: format!(
                "seed snapshot is at event {start_event}, trace has only {}",
                prepared.len()
            ),
        });
    }

    // Split the interleaved log into per-shard streams (order within a
    // shard is the shard's emission order) and attest epochs.
    let mut by_shard: Vec<Vec<(usize, AuditRecord)>> = vec![Vec::new(); shards];
    for (index, record) in log.records.iter().enumerate() {
        let s = record.shard as usize;
        if s >= shards {
            return Err(AuditVerifyError::Corrupt {
                detail: format!("record {index} names shard {s}, log header says {shards} shards"),
            });
        }
        if let Some((prev_index, prev)) = by_shard[s].last() {
            if record.epoch < prev.epoch {
                return Err(AuditVerifyError::Corrupt {
                    detail: format!(
                        "epoch regressed on shard {s}: record {prev_index} has epoch {}, \
                         record {index} has epoch {}",
                        prev.epoch, record.epoch
                    ),
                });
            }
        }
        by_shard[s].push((index, *record));
    }

    let mut cursors = vec![0usize; shards];
    let mut checked = 0u64;
    let mut decisions = 0u64;
    for op in replay_ops(prepared, scheme, start_event..prepared.len()) {
        let s = shard_of_key(op.route_key(), shards);
        let seq = states[s].scored;
        let Some((key, predicted, actual)) = apply_op(&mut states[s], op, nodes) else {
            continue;
        };
        decisions += 1;
        if !sample_keeps(key, log.header.sample) {
            continue;
        }
        let Some(&(index, recorded)) = by_shard[s].get(cursors[s]) else {
            // Recorded stream exhausted on this shard: the log is a
            // prefix (torn tail, or the process died before these
            // decisions). Keep simulating for the final-state check.
            continue;
        };
        cursors[s] += 1;
        let expected = AuditRecord {
            seq,
            key,
            predicted,
            actual,
            // Attested, not derived — see the module docs.
            epoch: recorded.epoch,
            shard: s as u16,
        };
        if recorded.encode() != expected.encode() {
            return Err(AuditVerifyError::Divergence(Box::new(AuditDivergence {
                index,
                shard: s as u16,
                recorded,
                expected,
                fields: diff_fields(&recorded, &expected),
            })));
        }
        checked += 1;
    }

    for (s, cursor) in cursors.iter().enumerate() {
        let leftover = by_shard[s].len() - cursor;
        if leftover > 0 {
            return Err(AuditVerifyError::Coverage {
                detail: format!(
                    "log has {leftover} records on shard {s} beyond the {} decisions \
                     the trace produces there — recorded over different traffic?",
                    by_shard[s].len() - leftover
                ),
            });
        }
    }

    if let Some(fin) = check_final {
        if fin.shards.len() != shards {
            return Err(AuditVerifyError::Snapshot {
                detail: format!(
                    "final snapshot has {} shards, log header says {shards}",
                    fin.shards.len()
                ),
            });
        }
        for (s, (twin, snap)) in states.iter().zip(fin.shards.iter()).enumerate() {
            // Queries and restarts are serving-side history, not
            // decision state; everything the decision stream determines
            // must agree.
            if twin.scored != snap.scored
                || twin.updates != snap.updates
                || twin.confusion != snap.confusion
            {
                return Err(AuditVerifyError::FinalState {
                    detail: format!(
                        "shard {s}: twin ended at scored={}/updates={}/confusion={:?}, \
                         snapshot has scored={}/updates={}/confusion={:?}",
                        twin.scored,
                        twin.updates,
                        twin.confusion,
                        snap.scored,
                        snap.updates,
                        snap.confusion
                    ),
                });
            }
        }
    }

    Ok(AuditVerifyReport {
        checked,
        decisions,
        shards: shards as u16,
        sample: log.header.sample,
        torn: log.torn,
    })
}

/// Attaches a fresh sink to `engine` and returns it — the one-liner the
/// CLI and tests use.
///
/// # Errors
///
/// [`ServeError::Audit`] when the log file cannot be created or a sink
/// is already attached.
pub fn attach_file_sink(
    engine: &ShardedEngine,
    path: &Path,
    sample: u32,
) -> Result<Arc<AuditSink>, ServeError> {
    let sink = Arc::new(AuditSink::to_file(
        path,
        engine.scheme(),
        engine.nodes(),
        engine.shard_count() as u16,
        sample,
    )?);
    engine.attach_audit(Arc::clone(&sink))?;
    Ok(sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_trace::audit::read_audit_log;
    use csp_trace::{LineAddr, NodeId, Pc, SharingBitmap, SharingEvent, Trace};

    /// A shared in-memory log target for sinks under test.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn busy_trace(events: usize) -> Trace {
        let mut t = Trace::new(16);
        let mut prev: Vec<Option<(NodeId, Pc)>> = vec![None; 8];
        for i in 0..events {
            let line = (i % 8) as u64;
            let writer = NodeId(((i / 8) % 4) as u8);
            let pc = Pc(100 + (i % 3) as u32);
            let inv = match prev[line as usize] {
                None => SharingBitmap::empty(),
                Some((w, _)) => SharingBitmap::from_nodes(&[
                    NodeId((w.index() as u8 + 5) % 16),
                    NodeId((w.index() as u8 + 6) % 16),
                ]),
            };
            t.push(SharingEvent::new(
                writer,
                pc,
                LineAddr(line),
                NodeId((line % 4) as u8),
                inv,
                prev[line as usize],
            ));
            prev[line as usize] = Some((writer, pc));
        }
        t.set_final_readers(LineAddr(0), SharingBitmap::from_nodes(&[NodeId(9)]));
        t
    }

    fn record_through_engine(
        scheme: &Scheme,
        trace: &Trace,
        shards: usize,
        sample: u32,
    ) -> Vec<u8> {
        let buf = SharedBuf::default();
        let engine = ShardedEngine::new(*scheme, 16, shards);
        let sink = Arc::new(
            AuditSink::to_writer(Box::new(buf.clone()), scheme, 16, shards as u16, sample)
                .expect("sink"),
        );
        engine.attach_audit(Arc::clone(&sink)).expect("attach");
        engine.replay_trace(trace).expect("replay");
        drop(engine); // join workers; every append already flushed
        let bytes = buf.0.lock().unwrap().clone();
        bytes
    }

    #[test]
    fn live_engine_matches_offline_twin_byte_for_byte() {
        let scheme: Scheme = "inter(pid+pc8)2[direct]".parse().unwrap();
        let trace = busy_trace(600);
        let bytes = record_through_engine(&scheme, &trace, 3, 1);
        let log = read_audit_log(&mut bytes.as_slice(), None).expect("read");
        assert!(!log.torn);
        assert!(!log.records.is_empty());
        let prepared = PreparedTrace::new(&trace);
        let report = verify_log(&log, &prepared, &scheme, None, None).expect("verify");
        assert_eq!(report.checked, log.records.len() as u64);
        assert_eq!(report.checked, report.decisions);
    }

    #[test]
    fn sampled_log_still_verifies_exactly() {
        let scheme: Scheme = "union(pid+pc8)2[forwarded]".parse().unwrap();
        let trace = busy_trace(600);
        let bytes = record_through_engine(&scheme, &trace, 3, 4);
        let log = read_audit_log(&mut bytes.as_slice(), None).expect("read");
        let prepared = PreparedTrace::new(&trace);
        let report = verify_log(&log, &prepared, &scheme, None, None).expect("verify");
        assert_eq!(report.checked, log.records.len() as u64);
        assert!(
            report.checked < report.decisions,
            "1/4 sampling should drop records ({} of {})",
            report.checked,
            report.decisions
        );
    }

    #[test]
    fn tampered_record_is_a_typed_divergence() {
        let scheme: Scheme = "inter(pid+pc8)2[direct]".parse().unwrap();
        let trace = busy_trace(400);
        let bytes = record_through_engine(&scheme, &trace, 2, 1);
        let mut log = read_audit_log(&mut bytes.as_slice(), None).expect("read");
        let victim = log.records.len() / 2;
        log.records[victim].predicted =
            SharingBitmap::from_bits(log.records[victim].predicted.bits() ^ 0b100);
        let prepared = PreparedTrace::new(&trace);
        let err = verify_log(&log, &prepared, &scheme, None, None).expect_err("divergence");
        match err {
            AuditVerifyError::Divergence(d) => {
                assert_eq!(d.fields, vec!["predicted"]);
                assert_eq!(d.index, victim);
            }
            other => panic!("expected divergence, got {other}"),
        }
    }

    #[test]
    fn foreign_fingerprint_is_a_typed_rejection() {
        let scheme: Scheme = "inter(pid+pc8)2[direct]".parse().unwrap();
        let other: Scheme = "union(pid+pc8)2[direct]".parse().unwrap();
        let trace = busy_trace(200);
        let bytes = record_through_engine(&scheme, &trace, 2, 1);
        let log = read_audit_log(&mut bytes.as_slice(), None).expect("read");
        let prepared = PreparedTrace::new(&trace);
        match verify_log(&log, &prepared, &other, None, None) {
            Err(AuditVerifyError::Fingerprint { log: l, expected }) => {
                assert_ne!(l, expected);
            }
            other => panic!("expected fingerprint rejection, got {other:?}"),
        }
    }

    #[test]
    fn prefix_log_verifies_and_final_state_gates_graceful_runs() {
        let scheme: Scheme = "inter(pid+pc8)2[direct]".parse().unwrap();
        let trace = busy_trace(600);
        let bytes = record_through_engine(&scheme, &trace, 3, 1);
        let mut log = read_audit_log(&mut bytes.as_slice(), None).expect("read");
        let prepared = PreparedTrace::new(&trace);

        // A prefix (what a kill-9 leaves after the torn tail is
        // discarded) verifies clean without a final snapshot.
        log.records.truncate(log.records.len() / 2);
        let report = verify_log(&log, &prepared, &scheme, None, None).expect("prefix verifies");
        assert!(report.checked < report.decisions);

        // The final-state check catches a snapshot that disagrees.
        let full = read_audit_log(&mut bytes.as_slice(), None).expect("read");
        let engine = ShardedEngine::new(scheme, 16, 3);
        engine.replay_trace(&trace).expect("replay");
        let mut state = EngineState::capture(&engine, trace.len() as u64);
        verify_log(&full, &prepared, &scheme, None, Some(&state)).expect("matching final state");
        state.shards[1].confusion.tp += 1;
        match verify_log(&full, &prepared, &scheme, None, Some(&state)) {
            Err(AuditVerifyError::FinalState { detail }) => {
                assert!(detail.contains("shard 1"), "{detail}");
            }
            other => panic!("expected final-state mismatch, got {other:?}"),
        }
    }

    /// Records whose key is their `seq`, with empty bitmaps.
    fn blank_records(seqs: std::ops::Range<u64>) -> Vec<AuditRecord> {
        let record = |seq| AuditRecord {
            seq,
            key: seq,
            predicted: SharingBitmap::empty(),
            actual: SharingBitmap::empty(),
            epoch: 0,
            shard: 0,
        };
        seqs.map(record).collect()
    }

    /// `csp_audit_bytes_total` counts exactly the framed bytes the file
    /// sink writes after its header, segment splits included.
    #[test]
    fn bytes_total_matches_the_framed_file() {
        let scheme: Scheme = "inter(pid+pc8)2[direct]".parse().unwrap();
        let path =
            std::env::temp_dir().join(format!("csp-audit-bytes-{}.cspaud", std::process::id()));
        let sink = AuditSink::to_file(&path, &scheme, 16, 2, 1).expect("sink");
        let mut scratch = Vec::new();
        for batch in [1, 7, csp_trace::audit::MAX_AUDIT_SEGMENT + 3] {
            let records = blank_records(0..batch as u64);
            sink.append_buffered(&records, &mut scratch)
                .expect("append");
        }
        let file_len = std::fs::metadata(&path).expect("log").len();
        let header = csp_trace::audit::AUDIT_FORMAT.header_bytes() as u64;
        assert_eq!(sink.bytes_total.load(Ordering::Relaxed), file_len - header);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wait_records_streams_heartbeats_and_typed_refusals() {
        let scheme: Scheme = "inter(pid+pc8)2[direct]".parse().unwrap();
        let sink = AuditSink::in_memory(&scheme, 16, 2, 1);
        let rec = AuditRecord {
            seq: 0,
            key: 7,
            predicted: SharingBitmap::empty(),
            actual: SharingBitmap::empty(),
            epoch: 0,
            shard: 0,
        };
        sink.append(&[rec]).expect("append");
        let batch = sink
            .wait_records(0, 16, Duration::from_millis(10))
            .expect("batch");
        assert_eq!(batch.records, vec![rec]);
        assert_eq!(batch.head, 1);
        // Caught up: heartbeat.
        let hb = sink
            .wait_records(1, 16, Duration::from_millis(10))
            .expect("heartbeat");
        assert!(hb.records.is_empty());
        // Past the head: typed refusal.
        assert_eq!(
            sink.wait_records(5, 16, Duration::from_millis(10)),
            Err(AuditStreamError::Ahead { head: 1 })
        );
    }

    #[test]
    fn ring_eviction_reports_too_old() {
        let scheme: Scheme = "inter(pid+pc8)2[direct]".parse().unwrap();
        let sink = AuditSink::in_memory(&scheme, 16, 1, 1);
        let records = blank_records(0..(RING_CAP as u64 + 10));
        sink.append(&records).expect("append");
        match sink.wait_records(0, 16, Duration::from_millis(10)) {
            Err(AuditStreamError::TooOld { oldest }) => assert_eq!(oldest, 10),
            other => panic!("expected too-old, got {other:?}"),
        }
    }

    #[test]
    fn subscriber_lag_tracks_slowest_reader() {
        let scheme: Scheme = "inter(pid+pc8)2[direct]".parse().unwrap();
        let sink = AuditSink::in_memory(&scheme, 16, 1, 1);
        assert_eq!(sink.lag(), 0);
        let a = sink.subscribe();
        let b = sink.subscribe();
        let records = blank_records(0..100);
        sink.append(&records).expect("append");
        sink.advance(a, 100);
        sink.advance(b, 60);
        assert_eq!(sink.lag(), 40);
        sink.unsubscribe(b);
        assert_eq!(sink.lag(), 0);
        sink.unsubscribe(a);
    }
}
