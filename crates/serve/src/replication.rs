//! Leader/follower replication for the sharded serving engine.
//!
//! One process — the *leader* — owns the write path: every mutating
//! operation (trace replay warm-up, live [`crate::wire::Request::Ingest`]
//! frames) is appended to a durable, totally-ordered *replication log*
//! before it is dispatched to the shards. Followers bootstrap from a
//! shipped `CSPSNAP1` snapshot whose sequence number *is* a log offset,
//! subscribe to the leader over the wire protocol, and apply the same
//! operations in the same order — which makes their screening statistics
//! and predictions bit-identical to the leader's (proved end-to-end in
//! `tests/replication.rs` and `csp-harness`).
//!
//! # The log
//!
//! The unit of replication is [`ReplOp`]: a predictor update or a scored
//! decision, already resolved to its table key, 17 bytes on the wire and
//! on disk. Offsets count operations from the beginning of history.
//! Appends happen under one mutex held across *journal write → shard
//! dispatch → in-memory publish*, so the log order, the per-shard apply
//! order, and what a snapshot can observe are all the same total order —
//! the same argument that makes sharded replay bit-identical to the
//! offline engine extends to replicas.
//!
//! Durability uses [`csp_trace::journal`] files in the snapshot
//! directory: flushed per append, torn-tail tolerant, and always rotated
//! to a *new* file on startup and on snapshot so a torn tail is never
//! appended past.
//!
//! # Failure model
//!
//! * **Leader killed (even `kill -9`)**: restart restores the newest
//!   snapshot and replays the journal tail beyond its sequence number;
//!   acknowledged ingests are journaled first, so they survive.
//! * **Follower disconnected**: it keeps serving stale-but-consistent
//!   predictions, reconnects with exponential backoff + jitter, and
//!   resumes from its last durable offset.
//! * **Divergence** (scheme, width, or format drift): detected by a
//!   [`fingerprint`] carried in every Subscribe/Ingest/JournalSegment
//!   frame and journal header; the mismatching side refuses the data.
//!
//! # Failover
//!
//! Every log carries an **epoch** — a fencing term, bumped on each
//! promotion and embedded in journal headers and every replication
//! frame. A follower can be *promoted*: its durable journal is already a
//! verified copy of the leader's history, so promotion is
//! [`ReplicationLog::bump_epoch`] (rotating the journal so the new term
//! is durable) plus giving the engine's write pipeline the leader role.
//! Peers fence the deposed leader by epoch: followers drop streams that
//! regress the epoch they have observed, and `Ingest` frames carrying a
//! stale epoch are refused with a typed error.
//!
//! Failure detection is **lease-based**: every `JournalSegment` frame
//! (heartbeats included) grants the subscriber a time-boxed lease on the
//! leader's liveness; a lease that lapses without renewal is the signal
//! that drives (manual or rank-ordered automatic) promotion. The leader
//! mirrors this: each live subscriber holds a lease on the journal
//! horizon, so compaction never reclaims operations a live downstream
//! still needs ([`ReplicationLog::compact`] floors at the slowest live
//! lease and reports what laggards pin).

use crate::error::ServeError;
use crate::server::ShutdownHandle;
use crate::shard::{IngestOp, ShardedEngine};
use crate::snapshot::EngineState;
use crate::wire::{self, Request, Response};
use csp_core::{PreparedTrace, Scheme};
use csp_obs::{Histogram, Registry};
use csp_trace::journal::{read_journal, JournalHeader, SegmentWriter};
use csp_trace::{crc32c, SharingBitmap};
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant, SystemTime};

/// Encoded size of one [`ReplOp`]: tag, key, bitmap.
pub const REPL_OP_LEN: usize = 17;

/// Most operations one wire frame or journal segment may carry
/// (`32768 × 17 B ≈ 544 KiB`, comfortably under the 1 MiB frame cap).
pub const MAX_SEGMENT_OPS: usize = 32 * 1024;

/// Bumped whenever the replicated operation stream changes meaning;
/// part of the [`fingerprint`]. Revision 2 added epochs (fencing terms)
/// to every replication frame and journal header. Revision 3 folded the
/// `csp-core` version fingerprint into the canonical string, so every
/// `Subscribe`/`Ingest` exchange transitively negotiates table geometry
/// and trace/wire/audit format revisions too.
const REPL_REVISION: u32 = 3;

/// Default lease a leader grants each subscriber per segment/heartbeat,
/// and the staleness horizon a follower allows before it considers the
/// leader dead. Must comfortably exceed the 500 ms heartbeat interval.
pub const DEFAULT_LEASE: Duration = Duration::from_secs(10);

const TAG_UPDATE: u8 = 1;
const TAG_SCORE: u8 = 2;

/// One replicated mutation, resolved to its predictor key so leader and
/// follower cannot derive keys differently.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplOp {
    /// Shift `feedback` into `key`'s predictor entry.
    Update {
        /// The predictor index key to train.
        key: u64,
        /// The invalidation feedback bitmap.
        feedback: SharingBitmap,
    },
    /// Predict through `key`'s entry and score against `actual`.
    Score {
        /// The predictor index key to consult.
        key: u64,
        /// The ground-truth reader bitmap.
        actual: SharingBitmap,
    },
}

impl ReplOp {
    /// Appends this operation's 17-byte encoding to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let (tag, key, bits) = match *self {
            ReplOp::Update { key, feedback } => (TAG_UPDATE, key, feedback.bits()),
            ReplOp::Score { key, actual } => (TAG_SCORE, key, actual.bits()),
        };
        buf.push(tag);
        buf.extend_from_slice(&key.to_le_bytes());
        buf.extend_from_slice(&bits.to_le_bytes());
    }

    /// Decodes one operation from exactly [`REPL_OP_LEN`] bytes.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] on a wrong length or unknown tag.
    pub fn decode(b: &[u8]) -> io::Result<ReplOp> {
        if b.len() != REPL_OP_LEN {
            return Err(bad_data(format!(
                "replication op is {REPL_OP_LEN} bytes, got {}",
                b.len()
            )));
        }
        let key = u64::from_le_bytes([b[1], b[2], b[3], b[4], b[5], b[6], b[7], b[8]]);
        let bits = u64::from_le_bytes([b[9], b[10], b[11], b[12], b[13], b[14], b[15], b[16]]);
        match b[0] {
            TAG_UPDATE => Ok(ReplOp::Update {
                key,
                feedback: SharingBitmap::from_bits(bits),
            }),
            TAG_SCORE => Ok(ReplOp::Score {
                key,
                actual: SharingBitmap::from_bits(bits),
            }),
            tag => Err(bad_data(format!("unknown replication op tag {tag:#04x}"))),
        }
    }

    /// The shard-inbox operation this replicated op applies as.
    pub fn to_ingest(&self) -> IngestOp {
        match *self {
            ReplOp::Update { key, feedback } => IngestOp::Update { key, feedback },
            ReplOp::Score { key, actual } => IngestOp::Score { key, actual },
        }
    }

    /// The replicated form of a shard operation; `None` for operations
    /// that do not mutate replicated state (e.g. the test-only poison).
    pub fn from_ingest(op: &IngestOp) -> Option<ReplOp> {
        match *op {
            IngestOp::Update { key, feedback } => Some(ReplOp::Update { key, feedback }),
            IngestOp::Score { key, actual } => Some(ReplOp::Score { key, actual }),
            IngestOp::Poison { .. } => None,
        }
    }
}

fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Packs `ops` into their contiguous 17-byte-per-op encoding.
pub fn encode_ops(ops: &[ReplOp]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(ops.len() * REPL_OP_LEN);
    for op in ops {
        op.encode_into(&mut buf);
    }
    buf
}

/// Operations on their way into a [`ReplicationLog`], with the journal
/// segments that carry them: the ops' contiguous 17-byte encodings and
/// the CRC32c of each segment body (`count ‖ records`, at most
/// [`MAX_SEGMENT_OPS`] ops per segment). Built once, outside the log
/// lock, so an append writes bytes it neither encodes nor checksums.
pub(crate) struct Journaled<'a> {
    ops: &'a [ReplOp],
    records: Cow<'a, [u8]>,
    /// Each segment body's CRC, in `records` order; none when the log
    /// keeps no journal.
    crcs: Vec<u32>,
}

/// Record bytes of one full journal segment.
const SEGMENT_BYTES: usize = MAX_SEGMENT_OPS * REPL_OP_LEN;

impl<'a> Journaled<'a> {
    /// Encodes and checksums `ops` in one pass when `durable` (the log
    /// writes a journal); otherwise carries the ops alone.
    pub(crate) fn encode(ops: &'a [ReplOp], durable: bool) -> Self {
        if !durable || ops.is_empty() {
            return Journaled {
                ops,
                records: Cow::Borrowed(&[]),
                crcs: Vec::new(),
            };
        }
        let records = encode_ops(ops);
        let crcs = records
            .chunks(SEGMENT_BYTES)
            .map(|bytes| {
                let mut crc = crc32c::Hasher::new();
                crc.update(&((bytes.len() / REPL_OP_LEN) as u32).to_le_bytes());
                crc.update(bytes);
                crc.finalize()
            })
            .collect();
        Journaled {
            ops,
            records: Cow::Owned(records),
            crcs,
        }
    }

    /// One segment received verbatim: `records` are the encodings `ops`
    /// were decoded from, and `crc` is the CRC32c of `count ‖ records`.
    pub(crate) fn verbatim(ops: &'a [ReplOp], records: &'a [u8], crc: u32) -> Self {
        debug_assert!(ops.len() <= MAX_SEGMENT_OPS);
        debug_assert_eq!(records.len(), ops.len() * REPL_OP_LEN);
        Journaled {
            ops,
            records: Cow::Borrowed(records),
            crcs: vec![crc],
        }
    }

    /// The operations, in log order.
    pub(crate) fn ops(&self) -> &'a [ReplOp] {
        self.ops
    }

    /// Each journal segment: its op count, records and body CRC.
    fn segments(&self) -> impl Iterator<Item = (u32, &[u8], u32)> + '_ {
        self.records
            .chunks(SEGMENT_BYTES)
            .zip(&self.crcs)
            .map(|(records, &crc)| ((records.len() / REPL_OP_LEN) as u32, records, crc))
    }
}

/// Decodes `count` operations from `records`, validating the count
/// against the byte length *before* allocating.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] when the count exceeds
/// [`MAX_SEGMENT_OPS`], disagrees with the byte length, or any op is
/// malformed.
pub fn decode_ops(count: u32, records: &[u8]) -> io::Result<Vec<ReplOp>> {
    let count = count as usize;
    if count > MAX_SEGMENT_OPS {
        return Err(bad_data(format!(
            "segment claims {count} ops, limit is {MAX_SEGMENT_OPS}"
        )));
    }
    if records.len() != count * REPL_OP_LEN {
        return Err(bad_data(format!(
            "segment claims {count} ops but carries {} bytes",
            records.len()
        )));
    }
    records
        .chunks_exact(REPL_OP_LEN)
        .map(ReplOp::decode)
        .collect()
}

/// Compatibility fingerprint negotiated by every replication exchange:
/// CRC32c over the scheme's canonical notation, the machine width, the
/// replication format revisions, and the `csp-core` version fingerprint
/// ([`csp_core::version_fingerprint`]) — so any drift in table layout,
/// geometry, trace semantics, or wire encoding between two processes is
/// detected before a single operation crosses.
pub fn fingerprint(scheme: &Scheme, nodes: usize) -> u32 {
    let version = csp_core::version_fingerprint(scheme, nodes);
    let canon =
        format!("csp-repl|rev{REPL_REVISION}|{scheme}|{nodes}|snap2|jrnl2|ver{version:08x}");
    crc32c::checksum(canon.as_bytes())
}

/// A slice of the log handed to one subscriber: operations
/// `[start, start + ops.len())`, plus the leader's head at read time.
/// An empty segment is a heartbeat — proof the leader is alive and the
/// subscriber is caught up to `head`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Segment {
    /// The serving log's epoch when the segment was cut.
    pub epoch: u64,
    /// Offset of the first operation in `ops`.
    pub start: u64,
    /// The leader's log head when the segment was cut.
    pub head: u64,
    /// The operations, in log order.
    pub ops: Vec<ReplOp>,
}

/// Why a subscriber's offset cannot be served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegmentError {
    /// The offset predates the oldest operation the leader retains
    /// (pruned after snapshots): the subscriber must re-bootstrap from a
    /// newer snapshot.
    TooOld {
        /// The oldest offset still served.
        oldest: u64,
    },
    /// The offset is beyond the leader's head: the subscriber has
    /// history this leader never wrote — divergence.
    Ahead {
        /// The leader's current head.
        head: u64,
    },
}

struct DurableTail {
    store: JournalStore,
    writer: SegmentWriter<BufWriter<File>>,
}

struct LogInner {
    /// Offset of `ops[0]`; operations below it have been pruned.
    base: u64,
    ops: VecDeque<ReplOp>,
    durable: Option<DurableTail>,
    /// The current fencing term; mirrored into `epoch_cell` for
    /// lock-free reads.
    epoch: u64,
}

/// One downstream subscriber's claim on the journal horizon.
struct Lease {
    /// The lowest offset the subscriber may still ask for.
    offset: u64,
    /// When the claim lapses unless renewed by a successful send.
    expires: Instant,
}

/// A live subscriber's handle on its compaction lease. Release it with
/// [`ReplicationLog::lease_release`] when the stream ends; an unreleased
/// lease merely expires after its TTL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseId(u64);

/// What one [`ReplicationLog::compact`] pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactStats {
    /// The floor actually applied (the requested floor, lowered to the
    /// slowest live downstream lease).
    pub floor: u64,
    /// Journal-file bytes reclaimed from disk.
    pub reclaimed_bytes: u64,
    /// Journal-file bytes that would have been reclaimed at the
    /// requested floor but are pinned by a live downstream lease.
    pub held_bytes: u64,
}

/// The leader's totally-ordered operation log: the serialization point
/// for every mutation, the durability boundary for ingest acks, and the
/// source subscribers stream from.
pub struct ReplicationLog {
    fingerprint: u32,
    /// Whether appends write a journal (fixed at construction).
    durable: bool,
    inner: Mutex<LogInner>,
    grew: Condvar,
    /// Mirror of `LogInner::epoch` for lock-free reads.
    epoch_cell: AtomicU64,
    /// Live downstream leases, keyed by [`LeaseId`].
    leases: Mutex<HashMap<u64, Lease>>,
    lease_seq: AtomicU64,
    lease_ttl_ms: AtomicU64,
    /// Bytes the last compaction left on disk only because a live lease
    /// pinned them (the `csp_repl_compact_held_bytes` gauge).
    held_bytes: AtomicU64,
    /// Write-and-flush time per journal segment, once
    /// [`bind_metrics`](Self::bind_metrics) registered it.
    append_ns: OnceLock<Arc<Histogram>>,
}

impl std::fmt::Debug for ReplicationLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicationLog")
            .field("fingerprint", &self.fingerprint)
            .field("epoch", &self.epoch())
            .finish_non_exhaustive()
    }
}

impl ReplicationLog {
    fn build(fingerprint: u32, inner: LogInner) -> Arc<Self> {
        let epoch = inner.epoch;
        Arc::new(ReplicationLog {
            fingerprint,
            durable: inner.durable.is_some(),
            inner: Mutex::new(inner),
            grew: Condvar::new(),
            epoch_cell: AtomicU64::new(epoch),
            leases: Mutex::new(HashMap::new()),
            lease_seq: AtomicU64::new(0),
            lease_ttl_ms: AtomicU64::new(DEFAULT_LEASE.as_millis() as u64),
            held_bytes: AtomicU64::new(0),
            append_ns: OnceLock::new(),
        })
    }

    /// A log with no on-disk journal (tests, the in-process harness),
    /// starting at offset 0 under epoch 1.
    pub fn in_memory(fingerprint: u32) -> Arc<Self> {
        Self::in_memory_at(fingerprint, 0, 1)
    }

    /// An in-memory log resuming at `base` under `epoch` — a journal-less
    /// follower bootstrapped from a snapshot attaches one of these so it
    /// can relay segments downstream.
    pub fn in_memory_at(fingerprint: u32, base: u64, epoch: u64) -> Arc<Self> {
        Self::build(
            fingerprint,
            LogInner {
                base,
                ops: VecDeque::new(),
                durable: None,
                epoch,
            },
        )
    }

    /// A journal-backed log seeded with what [`JournalStore::recover_all`]
    /// found; opens a fresh journal file at the recovered head (never
    /// appending past a torn tail) under the recovered epoch (floored at
    /// 1 — epoch 0 is reserved for "no claim").
    ///
    /// # Errors
    ///
    /// Propagates journal-file I/O failures.
    pub fn durable(store: JournalStore, recovered: &Recovered) -> Result<Arc<Self>, ServeError> {
        let epoch = recovered.epoch.max(1);
        let writer = store.create_writer(recovered.head(), epoch)?;
        Ok(Self::build(
            store.fingerprint,
            LogInner {
                base: recovered.base,
                ops: recovered.ops.iter().copied().collect(),
                durable: Some(DurableTail { store, writer }),
                epoch,
            },
        ))
    }

    /// Whether this log writes a journal (a [`durable`](Self::durable)
    /// log) rather than keeping its operations in memory only.
    pub(crate) fn is_durable(&self) -> bool {
        self.durable
    }

    /// The compatibility fingerprint this log was opened under.
    pub fn fingerprint(&self) -> u32 {
        self.fingerprint
    }

    /// The current fencing term. Leaders author segments under it;
    /// followers track the highest epoch they have observed.
    pub fn epoch(&self) -> u64 {
        self.epoch_cell.load(Ordering::SeqCst)
    }

    /// Promotes this log to a new term: the new epoch is
    /// `max(current + 1, at_least)`, made durable by rotating the
    /// journal before it is published. Returns the new epoch.
    ///
    /// # Errors
    ///
    /// Propagates journal rotation failures (the term does not advance).
    pub fn bump_epoch(&self, at_least: u64) -> Result<u64, ServeError> {
        let mut inner = self.lock();
        let next = (inner.epoch + 1).max(at_least);
        self.enter_epoch(&mut inner, next)?;
        Ok(next)
    }

    /// Moves to term `epoch`, rotating the journal first so the term is
    /// durable before it is published.
    fn enter_epoch(&self, inner: &mut LogInner, epoch: u64) -> Result<(), ServeError> {
        let head = inner.base + inner.ops.len() as u64;
        if let Some(d) = inner.durable.as_mut() {
            d.writer = d.store.create_writer(head, epoch)?;
        }
        inner.epoch = epoch;
        self.epoch_cell.store(epoch, Ordering::SeqCst);
        Ok(())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LogInner> {
        self.inner.lock().expect("replication log poisoned")
    }

    /// The next offset to be appended (operations `[0, head)` exist).
    pub fn head(&self) -> u64 {
        let inner = self.lock();
        inner.base + inner.ops.len() as u64
    }

    /// The oldest offset still served to subscribers.
    pub fn oldest(&self) -> u64 {
        self.lock().base
    }

    /// Appends `ops` and dispatches them while holding the log lock:
    /// journal write (durability), then `dispatch` (shard FIFOs), then
    /// in-memory publish, all in one critical section — which is what
    /// makes the log order and the apply order the same total order.
    /// Returns the new head and `dispatch`'s result.
    ///
    /// # Errors
    ///
    /// A journal write failure aborts the append *before* dispatch: the
    /// operation is applied nowhere, so leader and followers still agree.
    pub fn append_with<R>(
        &self,
        ops: &[ReplOp],
        dispatch: impl FnOnce() -> R,
    ) -> io::Result<(u64, R)> {
        let batch = Journaled::encode(ops, self.durable);
        self.append_locked(self.lock(), &batch, dispatch)
    }

    /// [`append_with`](Self::append_with) for a write claiming fencing
    /// term `claimed`, checked under the same lock: a nonzero claim below
    /// the current term is refused before anything is journaled, and
    /// with `adopt` a newer claim first becomes the current term,
    /// durably (a restarted follower must not trust a leader it already
    /// saw deposed).
    pub(crate) fn append_claimed<R>(
        &self,
        claimed: u64,
        adopt: bool,
        batch: &Journaled<'_>,
        dispatch: impl FnOnce() -> R,
    ) -> Result<(u64, R), ServeError> {
        let mut inner = self.lock();
        if claimed != 0 && claimed < inner.epoch {
            return Err(ServeError::Fenced {
                claimed,
                current: inner.epoch,
            });
        }
        if adopt && claimed > inner.epoch {
            self.enter_epoch(&mut inner, claimed)?;
        }
        Ok(self.append_locked(inner, batch, dispatch)?)
    }

    /// The one append path: writes `batch`'s ready-made segments, runs
    /// `dispatch`, then publishes the ops.
    fn append_locked<R>(
        &self,
        mut inner: std::sync::MutexGuard<'_, LogInner>,
        batch: &Journaled<'_>,
        dispatch: impl FnOnce() -> R,
    ) -> io::Result<(u64, R)> {
        if let Some(d) = inner.durable.as_mut() {
            debug_assert!(
                batch.ops.is_empty() || !batch.records.is_empty(),
                "an unencoded batch reached a durable log"
            );
            for (count, records, crc) in batch.segments() {
                let started = Instant::now();
                d.writer.append_checksummed(count, records, crc)?;
                if let Some(h) = self.append_ns.get() {
                    h.record_duration(started.elapsed());
                }
            }
        }
        let out = dispatch();
        inner.ops.extend(batch.ops().iter().copied());
        let head = inner.base + inner.ops.len() as u64;
        drop(inner);
        self.grew.notify_all();
        Ok((head, out))
    }

    /// Runs `f` with the head while holding the log lock, excluding all
    /// appends: anything `f` observes through in-band shard messages
    /// (e.g. a state capture) is an exact cut at that head.
    pub fn freeze<R>(&self, f: impl FnOnce(u64) -> R) -> R {
        let inner = self.lock();
        let head = inner.base + inner.ops.len() as u64;
        f(head)
    }

    /// Cuts the next segment for a subscriber at `from`: up to `max_ops`
    /// operations if any are ready, otherwise blocks up to `timeout` and
    /// returns an empty heartbeat segment.
    ///
    /// # Errors
    ///
    /// [`SegmentError`] when `from` has been pruned or is ahead of the
    /// head — both mean this subscriber cannot be served incrementally.
    pub fn wait_segment(
        &self,
        from: u64,
        max_ops: usize,
        timeout: Duration,
    ) -> Result<Segment, SegmentError> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.lock();
        loop {
            let head = inner.base + inner.ops.len() as u64;
            if from < inner.base {
                return Err(SegmentError::TooOld { oldest: inner.base });
            }
            if from > head {
                return Err(SegmentError::Ahead { head });
            }
            if from < head {
                let skip = (from - inner.base) as usize;
                let take = ((head - from) as usize).min(max_ops);
                let ops = inner.ops.iter().skip(skip).take(take).copied().collect();
                return Ok(Segment {
                    epoch: inner.epoch,
                    start: from,
                    head,
                    ops,
                });
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(Segment {
                    epoch: inner.epoch,
                    start: from,
                    head,
                    ops: Vec::new(),
                });
            }
            let (guard, _) = self
                .grew
                .wait_timeout(inner, deadline - now)
                .expect("replication log poisoned");
            inner = guard;
        }
    }

    /// Grants a time-boxed downstream lease at `offset`: until it
    /// expires (or is released), [`compact`](Self::compact) will not
    /// reclaim operations at or above `offset`. Subscribers renew by
    /// calling [`lease_renew`](Self::lease_renew) after each shipped
    /// segment.
    pub fn lease_grant(&self, offset: u64) -> LeaseId {
        let id = LeaseId(self.lease_seq.fetch_add(1, Ordering::SeqCst));
        self.lease_renew(id, offset);
        id
    }

    /// Advances a lease to `offset` and extends its expiry by the lease
    /// TTL. A lapsed lease is revived — the subscriber demonstrably
    /// still holds the stream.
    pub fn lease_renew(&self, id: LeaseId, offset: u64) {
        let mut leases = self.leases.lock().expect("lease table poisoned");
        leases.insert(
            id.0,
            Lease {
                offset,
                expires: Instant::now() + self.lease_ttl(),
            },
        );
    }

    /// Drops a lease; its offset no longer pins compaction.
    pub fn lease_release(&self, id: LeaseId) {
        let mut leases = self.leases.lock().expect("lease table poisoned");
        leases.remove(&id.0);
    }

    /// The number of live (unexpired) downstream leases.
    pub fn lease_count(&self) -> u64 {
        let now = Instant::now();
        let leases = self.leases.lock().expect("lease table poisoned");
        leases.values().filter(|l| l.expires > now).count() as u64
    }

    /// The slowest live lease offset, dropping expired entries.
    fn lease_floor(&self) -> Option<u64> {
        let now = Instant::now();
        let mut leases = self.leases.lock().expect("lease table poisoned");
        leases.retain(|_, l| l.expires > now);
        leases.values().map(|l| l.offset).min()
    }

    /// The duration a granted lease stays live without renewal.
    pub fn lease_ttl(&self) -> Duration {
        Duration::from_millis(self.lease_ttl_ms.load(Ordering::SeqCst))
    }

    /// Sets the lease TTL ([`DEFAULT_LEASE`] until then). Advertised to
    /// downstreams in every segment header, so their failure detectors
    /// and this log's compaction floor agree on when a claim lapses.
    /// Applies to leases granted or renewed from now on.
    pub fn set_lease_ttl(&self, ttl: Duration) {
        let ms = u64::try_from(ttl.as_millis()).unwrap_or(u64::MAX).max(1);
        self.lease_ttl_ms.store(ms, Ordering::SeqCst);
    }

    /// Bytes the last compaction pass left on disk only because a live
    /// downstream lease pinned them.
    pub fn held_bytes(&self) -> u64 {
        self.held_bytes.load(Ordering::SeqCst)
    }

    /// Called after a snapshot at sequence `floor` became durable:
    /// rotates the journal to a fresh file at the head and drops
    /// operations below the effective floor from memory and disk —
    /// followers older than the snapshot horizon re-bootstrap instead.
    ///
    /// The effective floor is `floor` lowered to the slowest live
    /// downstream lease, so a segment a live subscriber may still ask
    /// for is never reclaimed; bytes pinned that way are reported in
    /// [`CompactStats::held_bytes`] (and the
    /// `csp_repl_compact_held_bytes` gauge).
    ///
    /// # Errors
    ///
    /// Propagates journal rotation failures (the in-memory log is left
    /// consistent either way). A segment file that vanishes mid-prune —
    /// e.g. a racing unlink — is tolerated, not an error.
    pub fn compact(&self, floor: u64) -> Result<CompactStats, ServeError> {
        let mut inner = self.lock();
        let head = inner.base + inner.ops.len() as u64;
        let requested = floor.min(head);
        let effective = match self.lease_floor() {
            Some(leased) => requested.min(leased),
            None => requested,
        };
        let mut stats = CompactStats {
            floor: effective,
            reclaimed_bytes: 0,
            held_bytes: 0,
        };
        let base = inner.base;
        let epoch = inner.epoch;
        if let Some(d) = inner.durable.as_mut() {
            if effective > base {
                d.writer = d.store.create_writer(head, epoch)?;
                stats.reclaimed_bytes = d.store.prune_below(effective)?;
            }
            if effective < requested {
                stats.held_bytes = d.store.bytes_below(requested).unwrap_or(0);
            }
        }
        self.held_bytes.store(stats.held_bytes, Ordering::SeqCst);
        while inner.base < effective {
            inner.ops.pop_front();
            inner.base += 1;
        }
        Ok(stats)
    }

    /// Registers this log's gauges — current epoch, live downstream
    /// leases, and compaction bytes held by laggards — and its journal
    /// append histogram on `registry`. Appends are timed from the first
    /// call on; a second call keeps the first registry's histogram.
    pub fn bind_metrics(self: &Arc<Self>, registry: &Registry) {
        let _ = self.append_ns.set(registry.histogram(
            "csp_journal_append_ns",
            "Write and flush time per journal segment appended, in nanoseconds.",
            &[],
        ));
        let log = Arc::clone(self);
        registry.register_gauge_fn(
            "csp_repl_epoch",
            "Current replication fencing epoch",
            &[],
            move || log.epoch() as i64,
        );
        let log = Arc::clone(self);
        registry.register_gauge_fn(
            "csp_repl_downstream_leases",
            "Live downstream subscriber leases",
            &[],
            move || log.lease_count() as i64,
        );
        let log = Arc::clone(self);
        registry.register_gauge_fn(
            "csp_repl_compact_held_bytes",
            "Journal bytes pinned by the slowest live downstream lease",
            &[],
            move || log.held_bytes() as i64,
        );
    }
}

/// What [`JournalStore::recover_all`] reconstructed from disk.
#[derive(Clone, Debug, Default)]
pub struct Recovered {
    /// Offset of `ops[0]` (the oldest retained operation).
    pub base: u64,
    /// Every durable operation from `base`, in log order.
    pub ops: Vec<ReplOp>,
    /// The highest fencing epoch any journal file was written under
    /// (0 for an empty directory).
    pub epoch: u64,
}

impl Recovered {
    /// The durable head: the offset after the last recovered operation.
    pub fn head(&self) -> u64 {
        self.base + self.ops.len() as u64
    }
}

/// The on-disk journal directory: `journal-<start:020>.cspjrnl` files
/// ([`csp_trace::journal`] format) alongside the snapshots, each named
/// by the log offset of its first operation.
#[derive(Debug)]
pub struct JournalStore {
    dir: PathBuf,
    fingerprint: u32,
}

impl JournalStore {
    /// Opens (creating if needed) the journal directory.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>, fingerprint: u32) -> Result<Self, ServeError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| ServeError::io(&dir, e))?;
        Ok(JournalStore { dir, fingerprint })
    }

    /// The directory journal files live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, start: u64) -> PathBuf {
        self.dir.join(format!("journal-{start:020}.cspjrnl"))
    }

    fn parse_start(path: &Path) -> Option<u64> {
        path.file_name()?
            .to_str()?
            .strip_prefix("journal-")?
            .strip_suffix(".cspjrnl")?
            .parse()
            .ok()
    }

    fn list(&self) -> Result<Vec<(u64, PathBuf)>, ServeError> {
        let mut files = Vec::new();
        let entries = std::fs::read_dir(&self.dir).map_err(|e| ServeError::io(&self.dir, e))?;
        for entry in entries {
            let path = entry.map_err(|e| ServeError::io(&self.dir, e))?.path();
            if let Some(start) = Self::parse_start(&path) {
                files.push((start, path));
            }
        }
        files.sort();
        Ok(files)
    }

    /// Replays every retained journal file into one contiguous operation
    /// list, verifying fingerprints, file continuity, and segment
    /// checksums. A torn tail on the *newest* file is tolerated (the
    /// crash the journal exists for), under the torn-tail rule of
    /// [`csp_trace::frame`]. Any other damage is an error, including a
    /// damaged segment in the newest file that whole segments follow:
    /// those are acknowledged operations, and dropping them silently
    /// would lose them.
    ///
    /// # Errors
    ///
    /// [`ServeError::Replication`] on foreign fingerprints, offset gaps,
    /// a torn tail on any file but the newest, or damage anywhere else,
    /// naming the file and byte offset; [`ServeError::Io`] on transport
    /// failures.
    pub fn recover_all(&self) -> Result<Recovered, ServeError> {
        let files = self.list()?;
        let Some(&(base, _)) = files.first() else {
            return Ok(Recovered::default());
        };
        let mut ops = Vec::new();
        let mut epoch = 0u64;
        let last = files.len() - 1;
        for (i, (start, path)) in files.iter().enumerate() {
            let expected = base + ops.len() as u64;
            if *start != expected {
                return Err(ServeError::Replication {
                    detail: format!(
                        "journal gap: {} starts at offset {start}, expected {expected}",
                        path.display()
                    ),
                });
            }
            let file = File::open(path).map_err(|e| ServeError::io(path, e))?;
            let contents = read_journal(BufReader::new(file)).map_err(|e| {
                if e.kind() == io::ErrorKind::InvalidData {
                    ServeError::Replication {
                        detail: format!("{}: {e}", path.display()),
                    }
                } else {
                    ServeError::io(path, e)
                }
            })?;
            if contents.header.fingerprint != self.fingerprint {
                return Err(ServeError::Replication {
                    detail: format!(
                        "{} was written under fingerprint {:#010x}, ours is {:#010x} \
                         (scheme, width, or format drift)",
                        path.display(),
                        contents.header.fingerprint,
                        self.fingerprint
                    ),
                });
            }
            if contents.header.start_offset != *start {
                return Err(ServeError::Replication {
                    detail: format!(
                        "{} header claims offset {}, filename says {start}",
                        path.display(),
                        contents.header.start_offset
                    ),
                });
            }
            if contents.torn && i != last {
                return Err(ServeError::Replication {
                    detail: format!(
                        "{} has a torn segment but newer journal files exist",
                        path.display()
                    ),
                });
            }
            epoch = epoch.max(contents.header.epoch);
            for seg in &contents.segments {
                let decoded =
                    decode_ops(seg.count, &seg.records).map_err(|e| ServeError::io(path, e))?;
                ops.extend(decoded);
            }
        }
        Ok(Recovered { base, ops, epoch })
    }

    /// Starts a new journal file whose first operation will be `start`,
    /// stamped with the fencing `epoch` it is written under.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the file cannot be created.
    pub fn create_writer(
        &self,
        start: u64,
        epoch: u64,
    ) -> Result<SegmentWriter<BufWriter<File>>, ServeError> {
        let path = self.path_for(start);
        let file = File::create(&path).map_err(|e| ServeError::io(&path, e))?;
        SegmentWriter::create(
            BufWriter::new(file),
            &JournalHeader {
                fingerprint: self.fingerprint,
                start_offset: start,
                epoch,
            },
        )
        .map_err(|e| ServeError::io(&path, e))
    }

    /// Deletes journal files made wholly redundant by a durable snapshot
    /// at `floor` (a file goes once the *next* file starts at or below
    /// `floor`; the newest file always stays). Returns the bytes
    /// reclaimed from disk.
    ///
    /// A file that vanishes between listing and unlinking — a racing
    /// compactor, an operator `rm` — is treated as already reclaimed by
    /// someone else, not an error; likewise a journal directory that was
    /// removed wholesale yields 0 rather than failing.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when a redundant file exists but cannot be
    /// removed (permissions, I/O faults).
    pub fn prune_below(&self, floor: u64) -> Result<u64, ServeError> {
        let mut reclaimed = 0u64;
        for (path, len) in self.files_below(floor)? {
            match std::fs::remove_file(&path) {
                Ok(()) => reclaimed += len,
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(ServeError::io(&path, e)),
            }
        }
        Ok(reclaimed)
    }

    /// The on-disk bytes of journal files wholly below `floor` (the
    /// files [`prune_below`](Self::prune_below) would delete) — what a
    /// laggard lease is currently pinning.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on directory-listing failures other than a
    /// missing directory (which yields 0).
    pub fn bytes_below(&self, floor: u64) -> Result<u64, ServeError> {
        Ok(self.files_below(floor)?.iter().map(|(_, len)| len).sum())
    }

    /// The files wholly below `floor`, with their on-disk sizes: a file
    /// is once the *next* file starts at or below `floor`, so the newest
    /// never is. A missing directory holds none.
    fn files_below(&self, floor: u64) -> Result<Vec<(PathBuf, u64)>, ServeError> {
        let files = match self.list() {
            Ok(files) => files,
            Err(ServeError::Io { source, .. }) if source.kind() == io::ErrorKind::NotFound => {
                return Ok(Vec::new());
            }
            Err(e) => return Err(e),
        };
        let below = files.windows(2).filter(|pair| pair[1].0 <= floor);
        Ok(below
            .map(|pair| {
                let len = std::fs::metadata(&pair[0].1).map_or(0, |m| m.len());
                (pair[0].1.clone(), len)
            })
            .collect())
    }
}

/// The exact operation stream [`ShardedEngine::replay_range`] would
/// dispatch for events `range` of a prepared trace — the producer side
/// of push-based ingest. A remote producer that pushes these operations
/// through [`crate::Client::ingest`] trains the leader bit-identically
/// to a local file replay, because the actuals and keys come from the
/// same shared preparation.
///
/// # Panics
///
/// Panics if `range` is out of bounds for the prepared trace.
pub fn trace_to_ops(
    prepared: &PreparedTrace<'_>,
    scheme: &Scheme,
    range: Range<usize>,
) -> Vec<ReplOp> {
    crate::shard::replay_ops(prepared, scheme, range)
        .iter()
        .filter_map(ReplOp::from_ingest)
        .collect()
}

/// Captures engine state as an exact cut at the replication log's head,
/// with the head as the snapshot sequence number — so the snapshot *is*
/// a resume offset: a follower restoring it subscribes from `seq`.
///
/// # Errors
///
/// [`ServeError::Replication`] when no log is attached to the engine.
pub fn snapshot_at_head(engine: &ShardedEngine) -> Result<EngineState, ServeError> {
    let log = engine
        .replication()
        .ok_or_else(|| ServeError::Replication {
            detail: "cannot cut a replicated snapshot: no log attached".to_string(),
        })?;
    Ok(log.freeze(|head| EngineState::capture(engine, head)))
}

/// The side of the stream a served engine takes at [`bring_up`]; an
/// engine with no log attached leads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Role {
    /// Owns the write path and journals every mutation.
    #[default]
    Leader,
    /// A read-only replica that applies a leader's stream.
    Follower,
}

/// Brings up the replication log of an engine just restored from a
/// snapshot at `restored_at` (`None`: started fresh), in the one safe
/// order: open and recover the journal in `dir`, check that it continues
/// the snapshot, re-apply the journaled tail past the snapshot (before
/// the log attaches, so recovery is not journaled twice), build the
/// durable log, set its lease TTL, bind its metrics, and attach it to
/// the engine's pipeline under `role`. Without a `dir` the log is kept
/// in memory, resuming at the snapshot. Returns the attached log and the
/// number of operations re-applied.
///
/// # Errors
///
/// [`ServeError::Replication`] when the journal does not continue the
/// snapshot: a non-empty journal must hold every op from the snapshot
/// seq on (`base <= seq <= head`), and a leader's empty journal only
/// continues a fresh start. Journal recovery, file and attach failures
/// propagate.
pub fn bring_up(
    engine: &ShardedEngine,
    role: Role,
    dir: Option<&Path>,
    restored_at: Option<u64>,
    lease_ttl: Option<Duration>,
) -> Result<(Arc<ReplicationLog>, usize), ServeError> {
    let fp = fingerprint(engine.scheme(), engine.nodes());
    let snap_seq = restored_at.unwrap_or(0);
    let mut reapplied = 0;
    let log = match dir {
        None => ReplicationLog::in_memory_at(fp, snap_seq, 1),
        Some(dir) => {
            let store = JournalStore::open(dir, fp)?;
            let mut recovered = store.recover_all()?;
            let (base, head) = (recovered.base, recovered.head());
            // A follower's empty journal starts wherever its snapshot does.
            let continues =
                (base..=head).contains(&snap_seq) || (head == 0 && role == Role::Follower);
            if !continues {
                let dir = dir.display();
                let detail = match role {
                    Role::Leader if snap_seq > head => format!(
                        "snapshot seq {snap_seq} is ahead of the journal head {head} — \
                         the journal in {dir} is not this snapshot's history"
                    ),
                    Role::Follower if snap_seq > head => format!(
                        "local journal ends at {head}, before snapshot seq {snap_seq}; \
                         remove stale journal-*.cspjrnl files from {dir} before following"
                    ),
                    _ if restored_at.is_none() => format!(
                        "journal in {dir} starts at offset {base} (older segments were \
                         compacted); pass --restore to bootstrap from the snapshot"
                    ),
                    _ => format!(
                        "journal in {dir} starts at offset {base}, after snapshot seq \
                         {snap_seq}: ops {snap_seq}..{base} are gone; restore a snapshot \
                         at or past {base}"
                    ),
                };
                return Err(ServeError::Replication { detail });
            }
            // Past the continuity check, `base <= snap_seq`; a follower's
            // empty journal has no tail.
            let skip = (snap_seq - base) as usize;
            let tail = recovered.ops.get(skip..).unwrap_or(&[]);
            if !tail.is_empty() {
                engine.ingest_ops(tail.iter().map(ReplOp::to_ingest).collect());
                engine.flush();
                reapplied = tail.len();
            }
            if head == 0 {
                // An empty journal under a bootstrapped snapshot: the
                // durable log resumes at the snapshot horizon.
                recovered.base = snap_seq;
            }
            ReplicationLog::durable(store, &recovered)?
        }
    };
    if let Some(ttl) = lease_ttl {
        log.set_lease_ttl(ttl);
    }
    log.bind_metrics(engine.registry());
    engine.pipeline().attach_log(Arc::clone(&log), role)?;
    Ok((log, reapplied))
}

/// What a deployment does once its engine is promoted, given the new
/// epoch (see [`ShardedEngine::on_promote`]): stopping a follower loop,
/// re-parenting downstreams. It performs no part of the promotion.
pub type PromoteHook = Arc<dyn Fn(u64) + Send + Sync>;

/// Promotes `engine` to leader: the one promotion path, behind every
/// wire `Promote` frame and `csp-served serve --auto-promote`. Checks
/// `claimed` against the engine's fingerprint, then has the engine's
/// pipeline bump the fencing epoch to at least `min_epoch` (durably,
/// *before* the engine accepts writes), take the leader role, stamp the
/// audit stream with the new term and give the engine's
/// [`PromoteHook`]. Operators retry promotion: each call moves to a
/// newer term. Returns the new `(epoch, head)`.
///
/// # Errors
///
/// The error-frame text for a fingerprint mismatch, an engine with no
/// replication log, or a journal rotation failure (the term does not
/// advance then).
pub fn promote(engine: &ShardedEngine, claimed: u32, min_epoch: u64) -> Result<(u64, u64), String> {
    let expected = fingerprint(engine.scheme(), engine.nodes());
    if claimed != expected {
        return Err(format!(
            "promote fingerprint mismatch: got {claimed:#010X}, \
             engine is {expected:#010X} (scheme/width/revision differ)"
        ));
    }
    engine.pipeline().promote(min_epoch)
}

/// Live health of one follower, shared between the streaming thread and
/// the metrics registry (see [`ReplicaStatus::bind_metrics`]).
#[derive(Debug, Default)]
pub struct ReplicaStatus {
    applied: AtomicU64,
    leader_head: AtomicU64,
    connected: AtomicU64,
    reconnects: AtomicU64,
    resyncs: AtomicU64,
    diverged: AtomicU64,
    last_segment_unix_ms: AtomicU64,
    lease_ms: AtomicU64,
}

impl ReplicaStatus {
    /// A fresh status starting from `applied` (the bootstrap offset).
    pub fn new(applied: u64) -> Arc<Self> {
        let status = ReplicaStatus::default();
        status.applied.store(applied, Ordering::Relaxed);
        status.leader_head.store(applied, Ordering::Relaxed);
        Arc::new(status)
    }

    /// Offset this follower has durably applied.
    pub fn applied(&self) -> u64 {
        self.applied.load(Ordering::Relaxed)
    }

    /// The leader's head as of the last segment (heartbeats count).
    pub fn leader_head(&self) -> u64 {
        self.leader_head.load(Ordering::Relaxed)
    }

    /// Operations the leader has that this follower has not applied.
    pub fn lag(&self) -> u64 {
        self.leader_head().saturating_sub(self.applied())
    }

    /// Whether a subscription is currently live.
    pub fn is_connected(&self) -> bool {
        self.connected.load(Ordering::Relaxed) == 1
    }

    /// Connection attempts after the first (dials, not successes).
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }

    /// Successful resubscriptions after a drop — each one proves a
    /// resume from the durable offset.
    pub fn resyncs(&self) -> u64 {
        self.resyncs.load(Ordering::Relaxed)
    }

    /// Whether the follower has detected divergence from its leader.
    pub fn is_diverged(&self) -> bool {
        self.diverged.load(Ordering::Relaxed) == 1
    }

    /// The lease TTL (milliseconds) the leader advertised on the most
    /// recent segment; 0 until a fenced leader has been heard from.
    pub fn lease_ms(&self) -> u64 {
        self.lease_ms.load(Ordering::Relaxed)
    }

    /// Milliseconds since the last segment (heartbeats included), or
    /// `None` before the first — the failure-detection clock: once this
    /// exceeds the advertised lease, the leader's claim has lapsed.
    pub fn last_segment_age_ms(&self) -> Option<u64> {
        let last = self.last_segment_unix_ms.load(Ordering::Relaxed);
        if last == 0 {
            None
        } else {
            Some(Self::now_ms().saturating_sub(last))
        }
    }

    fn now_ms() -> u64 {
        SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0)
    }

    /// Registers the replica-health series (`csp_repl_*` gauges and
    /// counters) on `registry`, typically the follower engine's own, so
    /// one `metrics` scrape covers replication lag, connectivity, and
    /// resync history — and `csp-served top` can render replica health.
    pub fn bind_metrics(self: &Arc<Self>, registry: &Registry) {
        let gauge = |name, help, read: fn(&Self) -> i64| {
            let s = Arc::clone(self);
            registry.register_gauge_fn(name, help, &[], move || read(&s));
        };
        gauge(
            "csp_repl_applied_offset",
            "Journal offset this follower has durably applied.",
            |s| s.applied() as i64,
        );
        gauge(
            "csp_repl_leader_offset",
            "Leader journal head as of the last received segment.",
            |s| s.leader_head() as i64,
        );
        gauge(
            "csp_repl_lag_ops",
            "Operations behind the leader (leader offset minus applied).",
            |s| s.lag() as i64,
        );
        gauge(
            "csp_repl_connected",
            "1 when a journal subscription is live, 0 while degraded to stale serving.",
            |s| i64::from(s.is_connected()),
        );
        gauge(
            "csp_repl_diverged",
            "1 after a fingerprint or offset divergence was detected.",
            |s| i64::from(s.is_diverged()),
        );
        gauge(
            "csp_repl_last_segment_age_seconds",
            "Seconds since the last journal segment (heartbeats included); -1 before the first.",
            |s| s.last_segment_age_ms().map_or(-1, |ms| (ms / 1000) as i64),
        );
        let counter = |name, help, read: fn(&Self) -> u64| {
            let s = Arc::clone(self);
            registry.register_counter_fn(name, help, &[], move || read(&s));
        };
        counter(
            "csp_repl_reconnects_total",
            "Leader connection attempts after the first.",
            Self::reconnects,
        );
        counter(
            "csp_repl_resyncs_total",
            "Successful resubscriptions after a disconnect (resume from durable offset).",
            Self::resyncs,
        );
    }
}

/// Tuning for the follower's reconnect loop.
#[derive(Clone, Copy, Debug)]
pub struct FollowerOptions {
    /// First reconnect delay; doubles per consecutive failure.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Seed for the jitter added to each backoff (deterministic tests).
    pub jitter_seed: u64,
    /// Socket read timeout; must exceed the leader's heartbeat interval,
    /// so expiry means the leader is wedged, not merely idle.
    pub read_timeout: Duration,
    /// Socket write timeout for the subscribe handshake.
    pub write_timeout: Duration,
}

impl Default for FollowerOptions {
    fn default() -> Self {
        FollowerOptions {
            backoff_base: Duration::from_millis(100),
            backoff_max: Duration::from_secs(5),
            jitter_seed: 0x5EED_CAFE,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
        }
    }
}

/// Sleeps `dur` in small slices, returning early when shutdown fires.
fn interruptible_sleep(shutdown: &ShutdownHandle, dur: Duration) {
    let deadline = Instant::now() + dur;
    while !shutdown.is_shutdown() {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        std::thread::sleep((deadline - now).min(Duration::from_millis(50)));
    }
}

/// The follower's streaming loop: subscribe at the attached log's head,
/// apply segments in order through [`ShardedEngine::apply_upstream`]
/// (journal first, then shards — so downstream subscribers of *this*
/// node are fed the same total order), and on any failure degrade
/// to serving stale-but-consistent predictions while reconnecting with
/// exponential backoff + jitter. Runs until `shutdown` fires; `leader`
/// is re-queried on every dial so the leader address may move (e.g. a
/// failover rewriting an address file).
///
/// Epoch fencing: segments the engine's pipeline fences (a *lower*
/// epoch than the log has observed) come from a deposed leader — the
/// connection is dropped (and re-dialed, picking up the re-parented
/// address) without applying anything. A *higher* epoch is durably
/// adopted before its first operation is applied.
///
/// The engine must have been brought up as a follower (see
/// [`bring_up`]), which attaches the log it relays from.
///
/// # Errors
///
/// [`ServeError::Replication`] when the engine has no log attached or
/// is not a follower. After that, only local durability failures
/// (journal rotation/append) end the loop with an error — network
/// failures never do, they back off and retry.
pub fn run_follower(
    engine: &ShardedEngine,
    mut leader: impl FnMut() -> Option<String>,
    status: &Arc<ReplicaStatus>,
    shutdown: &ShutdownHandle,
    opts: &FollowerOptions,
) -> Result<(), ServeError> {
    let fp = fingerprint(engine.scheme(), engine.nodes());
    let log = engine
        .replication()
        .ok_or_else(|| ServeError::Replication {
            detail: "follower loop needs a replication log attached to relay from".to_string(),
        })?;
    let mut offset = log.head();
    let mut rng = crate::bench::SplitMix64(opts.jitter_seed);
    let mut attempt: u32 = 0;
    let mut ever_synced = false;
    let mut first_dial = true;
    while !shutdown.is_shutdown() {
        if !first_dial {
            status.reconnects.fetch_add(1, Ordering::Relaxed);
        }
        first_dial = false;
        let request = Request::Subscribe {
            fingerprint: fp,
            epoch: log.epoch(),
            from: offset,
        };
        let Some(mut reader) = leader().and_then(|addr| subscribe(&addr, &request, opts).ok())
        else {
            backoff(shutdown, opts, &mut rng, &mut attempt);
            continue;
        };
        let mut synced_this_conn = false;
        loop {
            if shutdown.is_shutdown() {
                break;
            }
            let seg = match wire::read_response(&mut reader) {
                Ok(Response::JournalSegment(seg)) => seg,
                // An Error frame, an unexpected frame, EOF, a read
                // timeout (heartbeats stopped: the leader is gone or
                // wedged), or garbage: drop the connection and retry.
                _ => break,
            };
            if seg.fingerprint != fp || seg.start != offset {
                // The stream is not a continuation of our history.
                status.diverged.store(1, Ordering::Relaxed);
                break;
            }
            // Durable first, then the shards: the pipeline adopts a newer
            // term, then runs journal append → shard dispatch → in-memory
            // publish under the log lock. A crash between journal and
            // shards re-applies from the journal onto the snapshot at
            // restart, so nothing is lost and nothing doubles — and the
            // publish feeds our own downstream subscribers.
            offset = match engine.apply_upstream(seg.epoch, &seg.ops) {
                Ok(head) => head,
                // A deposed leader still streaming under its old term:
                // not divergence, just staleness. Re-dial — the address
                // source will have been re-parented by the promotion.
                Err(ServeError::Fenced { .. }) => break,
                Err(e) => return Err(e),
            };
            if !seg.ops.is_empty() {
                engine.flush();
            }
            status.diverged.store(0, Ordering::Relaxed);
            if !synced_this_conn {
                synced_this_conn = true;
                attempt = 0;
                if ever_synced {
                    status.resyncs.fetch_add(1, Ordering::Relaxed);
                }
                ever_synced = true;
                status.connected.store(1, Ordering::Relaxed);
            }
            status.applied.store(offset, Ordering::Relaxed);
            status.leader_head.store(seg.head, Ordering::Relaxed);
            if seg.lease_ms != 0 {
                status
                    .lease_ms
                    .store(u64::from(seg.lease_ms), Ordering::Relaxed);
            }
            status
                .last_segment_unix_ms
                .store(ReplicaStatus::now_ms(), Ordering::Relaxed);
        }
        status.connected.store(0, Ordering::Relaxed);
        if !shutdown.is_shutdown() {
            backoff(shutdown, opts, &mut rng, &mut attempt);
        }
    }
    status.connected.store(0, Ordering::Relaxed);
    Ok(())
}

/// Dials `addr` and sends the `Subscribe` request, returning the reader
/// the segments arrive on.
fn subscribe(
    addr: &str,
    request: &Request,
    opts: &FollowerOptions,
) -> io::Result<BufReader<TcpStream>> {
    let stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(opts.read_timeout));
    let _ = stream.set_write_timeout(Some(opts.write_timeout));
    let reader = BufReader::new(stream.try_clone()?);
    let mut sender = BufWriter::new(stream);
    wire::write_request(&mut sender, request)?;
    sender.flush()?;
    Ok(reader)
}

fn backoff(
    shutdown: &ShutdownHandle,
    opts: &FollowerOptions,
    rng: &mut crate::bench::SplitMix64,
    attempt: &mut u32,
) {
    let base = opts
        .backoff_base
        .saturating_mul(1u32 << (*attempt).min(10))
        .min(opts.backoff_max);
    // Up to +50% jitter so a herd of followers doesn't re-dial in step.
    let jitter_ns = (rng.next_u64() % (base.as_nanos().max(2) / 2) as u64) as u32;
    *attempt = attempt.saturating_add(1);
    interruptible_sleep(shutdown, base + Duration::from_nanos(u64::from(jitter_ns)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_core::Scheme;
    use csp_trace::fault::Mutation;
    use std::fs;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let mut dir = std::env::temp_dir();
            dir.push(format!(
                "csp-repl-{tag}-{}-{:?}",
                std::process::id(),
                std::time::Instant::now()
            ));
            fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn ops(seed: u64, n: usize) -> Vec<ReplOp> {
        let mut rng = crate::bench::SplitMix64(seed);
        (0..n)
            .map(|i| {
                let key = rng.next_u64();
                let bits = SharingBitmap::from_bits(rng.next_u64() & 0xFFFF);
                if i % 2 == 0 {
                    ReplOp::Update {
                        key,
                        feedback: bits,
                    }
                } else {
                    ReplOp::Score { key, actual: bits }
                }
            })
            .collect()
    }

    #[test]
    fn op_codec_round_trips() {
        let original = ops(7, 100);
        let bytes = encode_ops(&original);
        assert_eq!(bytes.len(), 100 * REPL_OP_LEN);
        let back = decode_ops(100, &bytes).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn op_decode_rejects_damage() {
        let bytes = encode_ops(&ops(7, 2));
        // Wrong count for the byte length.
        assert!(decode_ops(1, &bytes).is_err());
        assert!(decode_ops(3, &bytes).is_err());
        // Hostile count: must reject before allocating.
        assert!(decode_ops(u32::MAX, &bytes).is_err());
        // Unknown tag.
        let mut hurt = bytes.clone();
        hurt[0] = 0xAB;
        assert!(decode_ops(2, &hurt).is_err());
    }

    #[test]
    fn fingerprint_separates_scheme_width_and_revision() {
        let a: Scheme = "last(pid)1[direct]".parse().unwrap();
        let b: Scheme = "last(pid)1[forwarded]".parse().unwrap();
        let c: Scheme = "union(pid+pc8)2[direct]".parse().unwrap();
        assert_ne!(fingerprint(&a, 16), fingerprint(&b, 16));
        assert_ne!(fingerprint(&a, 16), fingerprint(&c, 16));
        assert_ne!(fingerprint(&a, 16), fingerprint(&a, 32));
        assert_eq!(fingerprint(&a, 16), fingerprint(&a, 16));
    }

    #[test]
    fn log_appends_serve_segments_in_order() {
        let log = ReplicationLog::in_memory(1);
        let batch = ops(3, 10);
        let (head, ()) = log.append_with(&batch[..4], || ()).unwrap();
        assert_eq!(head, 4);
        let (head, ()) = log.append_with(&batch[4..], || ()).unwrap();
        assert_eq!(head, 10);
        let seg = log.wait_segment(0, 6, Duration::from_millis(10)).unwrap();
        assert_eq!(seg.start, 0);
        assert_eq!(seg.head, 10);
        assert_eq!(seg.ops, batch[..6]);
        let seg = log.wait_segment(6, 100, Duration::from_millis(10)).unwrap();
        assert_eq!(seg.ops, batch[6..]);
    }

    #[test]
    fn caught_up_subscriber_gets_heartbeats_and_edges_are_typed() {
        let log = ReplicationLog::in_memory(1);
        log.append_with(&ops(3, 5), || ()).unwrap();
        // Caught up: an empty heartbeat after the timeout.
        let seg = log.wait_segment(5, 100, Duration::from_millis(5)).unwrap();
        assert!(seg.ops.is_empty());
        assert_eq!(seg.head, 5);
        // Ahead of the head: divergence.
        assert_eq!(
            log.wait_segment(9, 100, Duration::from_millis(5)),
            Err(SegmentError::Ahead { head: 5 })
        );
        // Behind the pruned horizon: re-bootstrap.
        log.compact(3).unwrap();
        assert_eq!(
            log.wait_segment(1, 100, Duration::from_millis(5)),
            Err(SegmentError::TooOld { oldest: 3 })
        );
        // The horizon itself is still served.
        let seg = log.wait_segment(3, 100, Duration::from_millis(5)).unwrap();
        assert_eq!(seg.ops.len(), 2);
    }

    #[test]
    fn durable_log_survives_restart_and_rotation() {
        let dir = TempDir::new("durable");
        let batch = ops(11, 50);
        {
            let store = JournalStore::open(dir.path(), 42).unwrap();
            let log = ReplicationLog::durable(store, &Recovered::default()).unwrap();
            log.append_with(&batch[..20], || ()).unwrap();
            // Snapshot at 20: rotate, prune below 20.
            log.compact(20).unwrap();
            log.append_with(&batch[20..], || ()).unwrap();
        }
        let store = JournalStore::open(dir.path(), 42).unwrap();
        let recovered = store.recover_all().unwrap();
        assert_eq!(recovered.head(), 50);
        // The compaction at 20 pruned the pre-rotation file, so recovery
        // resumes at 20 with every op written after it.
        let from_20 = (20 - recovered.base) as usize;
        assert_eq!(&recovered.ops[from_20..], &batch[20..]);
        // Restart again: a fresh writer at the head must not disturb
        // recovery continuity.
        let log = ReplicationLog::durable(store, &recovered).unwrap();
        assert_eq!(log.head(), 50);
        drop(log);
        let store = JournalStore::open(dir.path(), 42).unwrap();
        assert_eq!(store.recover_all().unwrap().head(), 50);
    }

    #[test]
    fn bound_log_times_each_journal_segment() {
        let dir = TempDir::new("append-ns");
        let store = JournalStore::open(dir.path(), 42).unwrap();
        let log = ReplicationLog::durable(store, &Recovered::default()).unwrap();
        log.append_with(&ops(1, 3), || ()).unwrap(); // before binding: untimed
        let registry = Registry::new();
        log.bind_metrics(&registry);
        log.append_with(&ops(2, MAX_SEGMENT_OPS + 1), || ())
            .unwrap();
        log.append_with(&[], || ()).unwrap();
        let timed = registry.histogram("csp_journal_append_ns", "", &[]);
        assert_eq!(
            timed.snapshot().count(),
            2,
            "one sample per segment written"
        );
    }

    /// Journals 30 ops as three 10-op segments of one file in `dir`;
    /// returns the ops, the reopened store and the file's path.
    fn three_segment_journal(dir: &TempDir, seed: u64) -> (Vec<ReplOp>, JournalStore, PathBuf) {
        let batch = ops(seed, 30);
        let store = JournalStore::open(dir.path(), 7).unwrap();
        let log = ReplicationLog::durable(store, &Recovered::default()).unwrap();
        for chunk in batch.chunks(10) {
            log.append_with(chunk, || ()).unwrap();
        }
        drop(log);
        let store = JournalStore::open(dir.path(), 7).unwrap();
        let (_, path) = store.list().unwrap().pop().unwrap();
        (batch, store, path)
    }

    #[test]
    fn torn_journal_tail_recovers_the_clean_prefix() {
        let dir = TempDir::new("torn");
        let (batch, store, path) = three_segment_journal(&dir, 13);
        // Tear the tail of the newest file mid-segment.
        let bytes = fs::read(&path).unwrap();
        let cut = Mutation::Truncate {
            len: bytes.len() - 9,
        }
        .apply(&bytes);
        fs::write(&path, cut).unwrap();
        let recovered = store.recover_all().unwrap();
        // The last 10-op segment is gone; the first 20 survive intact.
        assert_eq!(recovered.head(), 20);
        assert_eq!(recovered.ops, batch[..20]);
    }

    #[test]
    fn mid_file_journal_damage_is_a_typed_error() {
        let dir = TempDir::new("midfile");
        let (_, store, path) = three_segment_journal(&dir, 19);
        // Flip one byte inside the first of the newest file's three
        // segments: the two whole segments after it prove this is not a
        // torn tail, so recovery must refuse rather than drop them.
        let mut bytes = fs::read(&path).unwrap();
        bytes[csp_trace::journal::JOURNAL_FORMAT.header_bytes() + 12] ^= 0x01;
        fs::write(&path, bytes).unwrap();
        match store.recover_all() {
            Err(ServeError::Replication { detail }) => {
                assert!(detail.contains("journal-"), "{detail}");
                assert!(detail.contains("at byte 32"), "{detail}");
            }
            other => panic!("expected a replication error, got {other:?}"),
        }
    }

    #[test]
    fn foreign_fingerprint_is_refused() {
        let dir = TempDir::new("foreign");
        let store = JournalStore::open(dir.path(), 1).unwrap();
        let log = ReplicationLog::durable(store, &Recovered::default()).unwrap();
        log.append_with(&ops(1, 5), || ()).unwrap();
        drop(log);
        let store = JournalStore::open(dir.path(), 2).unwrap();
        assert!(matches!(
            store.recover_all(),
            Err(ServeError::Replication { .. })
        ));
    }

    #[test]
    fn journal_write_failure_aborts_before_dispatch() {
        let dir = TempDir::new("abort");
        let store = JournalStore::open(dir.path(), 9).unwrap();
        let log = ReplicationLog::durable(store, &Recovered::default()).unwrap();
        log.append_with(&ops(2, 3), || ()).unwrap();
        // Remove the directory out from under the *next rotation* to
        // force an append failure path.
        fs::remove_dir_all(dir.path()).unwrap();
        // A floor with nothing to reclaim is a tolerant no-op even with
        // the directory gone (the satellite fix: a racing cleanup must
        // not fail compaction).
        let stats = log.compact(0).unwrap();
        assert_eq!(stats.reclaimed_bytes, 0);
        // A real floor needs a journal rotation, which must fail loudly:
        // losing durability is not tolerable.
        assert!(log.compact(3).is_err());
        let ran = std::cell::Cell::new(false);
        // The current writer's fd is still valid, so appends succeed and
        // the log stays consistent.
        let (head, ()) = log.append_with(&ops(2, 3), || ran.set(true)).unwrap();
        assert!(ran.get());
        assert_eq!(head, 6);
    }

    #[test]
    fn compact_reports_reclaimed_bytes() {
        let dir = TempDir::new("reclaim");
        let store = JournalStore::open(dir.path(), 9).unwrap();
        let log = ReplicationLog::durable(store, &Recovered::default()).unwrap();
        log.append_with(&ops(5, 40), || ()).unwrap();
        let stats = log.compact(40).unwrap();
        assert_eq!(stats.floor, 40);
        // The pre-rotation file held 40 encoded ops plus framing.
        assert!(stats.reclaimed_bytes > 40 * REPL_OP_LEN as u64);
        assert_eq!(stats.held_bytes, 0);
        assert_eq!(log.oldest(), 40);
    }

    #[test]
    fn prune_tolerates_racing_unlinks() {
        let dir = TempDir::new("race");
        let store = JournalStore::open(dir.path(), 9).unwrap();
        let mut w = store.create_writer(0, 1).unwrap();
        w.append(3, &encode_ops(&ops(1, 3))).unwrap();
        drop(w);
        let _w2 = store.create_writer(3, 1).unwrap();
        // Someone else unlinks the redundant file between our listing
        // and our remove: prune must not fail, and reports 0 reclaimed.
        let victim = store.list().unwrap()[0].1.clone();
        fs::remove_file(&victim).unwrap();
        assert_eq!(store.prune_below(3).unwrap(), 0);
    }

    #[test]
    fn compaction_respects_live_leases_and_reports_held_bytes() {
        let dir = TempDir::new("lease");
        let store = JournalStore::open(dir.path(), 9).unwrap();
        let log = ReplicationLog::durable(store, &Recovered::default()).unwrap();
        log.append_with(&ops(5, 20), || ()).unwrap();
        // A live downstream at offset 5 pins the horizon.
        let lease = log.lease_grant(5);
        assert_eq!(log.lease_count(), 1);
        let stats = log.compact(20).unwrap();
        assert_eq!(stats.floor, 5);
        assert_eq!(stats.reclaimed_bytes, 0);
        assert!(stats.held_bytes > 0);
        assert_eq!(log.held_bytes(), stats.held_bytes);
        assert_eq!(log.oldest(), 5);
        // The laggard's offset is still servable.
        assert!(log.wait_segment(5, 100, Duration::from_millis(5)).is_ok());
        // Released, the same floor reclaims the pinned bytes.
        log.lease_release(lease);
        assert_eq!(log.lease_count(), 0);
        let stats = log.compact(20).unwrap();
        assert_eq!(stats.floor, 20);
        assert!(stats.reclaimed_bytes > 0);
        assert_eq!(stats.held_bytes, 0);
        assert_eq!(log.held_bytes(), 0);
        assert_eq!(log.oldest(), 20);
    }

    #[test]
    fn claimed_appends_adopt_only_newer_terms() {
        let log = ReplicationLog::in_memory(1);
        let none = Journaled::encode(&[], false);
        let adopt = |epoch| log.append_claimed(epoch, true, &none, || log.epoch());
        assert_eq!(log.epoch(), 1);
        assert_eq!(adopt(1).unwrap().1, 1);
        assert_eq!(adopt(5).unwrap().1, 5);
        assert_eq!(adopt(0).unwrap().1, 5, "epoch 0 claims no term");
        assert!(matches!(
            adopt(3),
            Err(ServeError::Fenced {
                claimed: 3,
                current: 5
            })
        ));
        assert_eq!(log.epoch(), 5);
        assert_eq!(log.bump_epoch(0).unwrap(), 6);
        assert_eq!(log.bump_epoch(10).unwrap(), 10);
    }

    #[test]
    fn segments_carry_the_current_epoch() {
        let log = ReplicationLog::in_memory_at(1, 0, 4);
        log.append_with(&ops(3, 2), || ()).unwrap();
        let seg = log.wait_segment(0, 100, Duration::from_millis(5)).unwrap();
        assert_eq!(seg.epoch, 4);
        log.bump_epoch(0).unwrap();
        let seg = log.wait_segment(0, 100, Duration::from_millis(5)).unwrap();
        assert_eq!(seg.epoch, 5);
    }

    #[test]
    fn epoch_bump_is_durable_across_restart_and_torn_tail() {
        let dir = TempDir::new("epoch-durable");
        let batch = ops(17, 15);
        {
            let store = JournalStore::open(dir.path(), 3).unwrap();
            let log = ReplicationLog::durable(store, &Recovered::default()).unwrap();
            assert_eq!(log.epoch(), 1);
            log.append_with(&batch[..10], || ()).unwrap();
            // Promotion: the new term is journaled before it's live.
            assert_eq!(log.bump_epoch(0).unwrap(), 2);
            log.append_with(&batch[10..], || ()).unwrap();
        }
        let store = JournalStore::open(dir.path(), 3).unwrap();
        let recovered = store.recover_all().unwrap();
        assert_eq!(recovered.head(), 15);
        assert_eq!(recovered.epoch, 2);
        // Tear the tail of the newest (post-bump) file mid-segment: the
        // epoch claim survives because it lives in the header, and the
        // re-open-as-leader path resumes at the clean durable prefix.
        let (_, path) = store.list().unwrap().pop().unwrap();
        let bytes = fs::read(&path).unwrap();
        let cut = Mutation::Truncate {
            len: bytes.len() - 7,
        }
        .apply(&bytes);
        fs::write(&path, cut).unwrap();
        let recovered = store.recover_all().unwrap();
        assert_eq!(recovered.head(), 10);
        assert_eq!(recovered.epoch, 2);
        // Re-open and promote to the next term.
        let log = ReplicationLog::durable(store, &recovered).unwrap();
        assert_eq!(log.bump_epoch(0).unwrap(), 3);
        assert_eq!(log.head(), 10);
        drop(log);
        let store = JournalStore::open(dir.path(), 3).unwrap();
        assert_eq!(store.recover_all().unwrap().epoch, 3);
    }
}
