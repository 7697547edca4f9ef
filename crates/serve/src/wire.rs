//! The wire protocol: length-prefixed, CRC32c-checksummed binary frames.
//!
//! Same conventions as the on-disk trace format (`csp_trace::io`):
//! little-endian fixed-width fields, CRC32c ([`csp_trace::crc32c`]) over
//! the payload so a corrupted frame is detected instead of silently
//! mis-predicting. See `crates/serve/PROTOCOL.md` for the normative spec.
//!
//! ```text
//! frame: len[4] payload[len] crc[4]      (crc = CRC32c of payload)
//! payload: type[1] body[...]
//! ```
//!
//! # Example
//!
//! ```
//! use csp_serve::wire::{self, Request};
//! use csp_serve::Probe;
//! use csp_trace::{LineAddr, NodeId, Pc};
//!
//! let mut buf = Vec::new();
//! let req = Request::Predict(Probe::new(NodeId(1), Pc(7), NodeId(0), LineAddr(42)));
//! wire::write_request(&mut buf, &req)?;
//! let back = wire::read_request(&mut buf.as_slice())?;
//! assert_eq!(back, req);
//! # Ok::<(), std::io::Error>(())
//! ```

use crate::replication::{decode_ops, ReplOp, MAX_SEGMENT_OPS};
use crate::{EngineSnapshot, Probe};
use csp_metrics::ConfusionMatrix;
use csp_trace::audit::{AuditRecord, MAX_AUDIT_SEGMENT, RECORD_LEN};
use csp_trace::{crc32c, LineAddr, NodeId, Pc, SharingBitmap};
use std::io::{self, Read, Write};

/// Hard ceiling on payload size: fits the largest batch comfortably and
/// bounds what a malformed length prefix can make the peer allocate.
pub const MAX_PAYLOAD: usize = 1 << 20;

/// Maximum probes per [`Request::PredictBatch`] (the body counts them in
/// a `u16`).
pub const MAX_BATCH: usize = u16::MAX as usize;

const T_PING: u8 = 0x01;
const T_PREDICT: u8 = 0x02;
const T_PREDICT_BATCH: u8 = 0x03;
const T_STATS: u8 = 0x04;
const T_METRICS: u8 = 0x05;
const T_INGEST: u8 = 0x06;
const T_SUBSCRIBE: u8 = 0x07;
const T_PROMOTE: u8 = 0x08;
const T_AUDIT_SUBSCRIBE: u8 = 0x09;
const T_PONG: u8 = 0x81;
const T_PREDICTION: u8 = 0x82;
const T_PREDICTION_BATCH: u8 = 0x83;
const T_STATS_SNAPSHOT: u8 = 0x84;
const T_METRICS_TEXT: u8 = 0x85;
const T_INGEST_ACK: u8 = 0x86;
const T_JOURNAL_SEGMENT: u8 = 0x87;
const T_PROMOTED: u8 = 0x88;
const T_AUDIT_SEGMENT: u8 = 0x89;
const T_ERROR: u8 = 0xFF;

/// A client-to-server message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Predict the reader bitmap for one probe.
    Predict(Probe),
    /// Predict for a batch of probes (answered in order).
    PredictBatch(Vec<Probe>),
    /// Fetch the engine's merged live statistics.
    Stats,
    /// Fetch the full metrics registry as Prometheus-style text.
    Metrics,
    /// Append replicated operations to the leader's log (a push-based
    /// trace producer, or any mutating client). Acked with
    /// [`Response::IngestAck`] once the operations are durable and
    /// ordered; refused on followers and on fingerprint mismatch.
    Ingest {
        /// The sender's [`crate::replication::fingerprint`]; must match
        /// the engine's.
        fingerprint: u32,
        /// The sender's fencing epoch. 0 means "no claim" (an unfenced
        /// producer); any other value below the receiver's current epoch
        /// identifies a deposed leader and the frame is refused.
        epoch: u64,
        /// The operations, in intended log order (at most
        /// [`MAX_SEGMENT_OPS`]).
        ops: Vec<ReplOp>,
    },
    /// Switch this connection into a one-way journal stream: the server
    /// answers with [`Response::JournalSegment`] frames (including empty
    /// heartbeats) from offset `from` until either side drops.
    Subscribe {
        /// The subscriber's [`crate::replication::fingerprint`].
        fingerprint: u32,
        /// The highest fencing epoch the subscriber has observed. A
        /// server whose own epoch is *lower* is stale and refuses to
        /// serve rather than feed the subscriber deposed history.
        epoch: u64,
        /// The log offset to resume from.
        from: u64,
    },
    /// Promote this server to leadership: bump its fencing epoch to at
    /// least `min_epoch` (always past its current term), durably rotate
    /// the journal, and leave follower mode. Answered with
    /// [`Response::Promoted`]. Idempotent — promoting a leader merely
    /// advances its term.
    Promote {
        /// The sender's [`crate::replication::fingerprint`].
        fingerprint: u32,
        /// Lower bound for the new term (0 = just "next term").
        min_epoch: u64,
    },
    /// Switch this connection into a one-way decision-audit stream: the
    /// server answers with [`Response::AuditSegment`] frames (including
    /// empty heartbeats) from record offset `from` until either side
    /// drops. Refused when the engine has no audit sink attached or the
    /// fingerprint differs.
    AuditSubscribe {
        /// The subscriber's [`csp_core::version_fingerprint`]; must
        /// match the recording engine's.
        fingerprint: u32,
        /// The record offset to resume from; `u64::MAX` means "tail
        /// from the current head".
        from: u64,
    },
}

/// The statistics body of a [`Response::Stats`] frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatsReply {
    /// The scheme the engine serves, in paper notation.
    pub scheme: String,
    /// Machine width.
    pub nodes: u8,
    /// Shard count.
    pub shards: u16,
    /// The engine's [`csp_core::version_fingerprint`] — the
    /// compatibility token audit logs and snapshots are tagged with.
    pub fingerprint: u32,
    /// Total update operations applied.
    pub updates: u64,
    /// Total scored (replay) decisions.
    pub scored: u64,
    /// Total serving probes answered.
    pub queries: u64,
    /// Predictor entries allocated.
    pub entries: u64,
    /// Supervised shard-worker restarts (see
    /// [`crate::ShardRestart`]); nonzero means the engine recovered from
    /// worker panics.
    pub restarts: u64,
    /// Merged screening counters.
    pub confusion: ConfusionMatrix,
}

impl StatsReply {
    /// Builds the reply from an engine snapshot.
    pub fn from_snapshot(
        scheme: &str,
        nodes: usize,
        shards: usize,
        fingerprint: u32,
        s: &EngineSnapshot,
    ) -> Self {
        StatsReply {
            scheme: scheme.to_string(),
            nodes: nodes as u8,
            shards: shards as u16,
            fingerprint,
            updates: s.updates,
            scored: s.scored,
            queries: s.queries,
            entries: s.entries,
            restarts: s.total_restarts(),
            confusion: s.confusion,
        }
    }
}

/// The body of a [`Response::JournalSegment`] frame: one slice of the
/// leader's replication log, self-describing enough for the subscriber
/// to verify compatibility (`fingerprint`), continuity (`start` must be
/// its next offset), and lag (`head`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentFrame {
    /// The leader's [`crate::replication::fingerprint`].
    pub fingerprint: u32,
    /// The fencing epoch the segment was cut under. Subscribers drop
    /// streams whose epoch regresses below what they have observed.
    pub epoch: u64,
    /// Log offset of `ops[0]`.
    pub start: u64,
    /// The leader's log head when the segment was cut.
    pub head: u64,
    /// Lease grant in milliseconds: every segment (heartbeats included)
    /// renews the subscriber's time-boxed belief in the leader's
    /// liveness for this long. 0 = no lease advertised.
    pub lease_ms: u32,
    /// The operations; empty is a heartbeat (`start == head` then).
    pub ops: Vec<ReplOp>,
}

/// The body of a [`Response::AuditSegment`] frame: one slice of the
/// decision audit stream (see [`Request::AuditSubscribe`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditFrame {
    /// The recording engine's [`csp_core::version_fingerprint`].
    pub fingerprint: u32,
    /// The engine's fencing epoch when the segment was cut.
    pub epoch: u64,
    /// Record offset of `records[0]`.
    pub start: u64,
    /// The audit stream head when the segment was cut.
    pub head: u64,
    /// The records; empty is a heartbeat (`start == head` then).
    pub records: Vec<AuditRecord>,
}

/// A server-to-client message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Predict`].
    Prediction(SharingBitmap),
    /// Answer to [`Request::PredictBatch`], in request order.
    PredictionBatch(Vec<SharingBitmap>),
    /// Answer to [`Request::Stats`].
    Stats(StatsReply),
    /// Answer to [`Request::Metrics`]: the registry as Prometheus-style
    /// text exposition (see `csp_obs::Registry::encode_prometheus`).
    /// Carried with a `u32` length — a loaded many-shard registry
    /// outgrows the `u16` strings other frames use.
    Metrics(String),
    /// Answer to [`Request::Ingest`]: the log head after the append —
    /// the operations at offsets `[head - ops.len(), head)` are durable
    /// and ordered.
    IngestAck {
        /// The leader's log head after this append.
        head: u64,
    },
    /// One streamed slice of the replication log (see
    /// [`Request::Subscribe`]).
    JournalSegment(SegmentFrame),
    /// Answer to [`Request::Promote`]: the server now leads.
    Promoted {
        /// The fencing epoch the server now serves under.
        epoch: u64,
        /// Its log head at promotion.
        head: u64,
    },
    /// One streamed slice of the decision audit stream (see
    /// [`Request::AuditSubscribe`]).
    AuditSegment(AuditFrame),
    /// The request could not be served; the connection stays usable.
    Error(String),
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn put_probe(buf: &mut Vec<u8>, p: &Probe) {
    buf.push(p.writer.index() as u8);
    buf.extend_from_slice(&p.pc.0.to_le_bytes());
    buf.push(p.home.index() as u8);
    buf.extend_from_slice(&p.line.0.to_le_bytes());
}

fn get_probe(b: &[u8]) -> Probe {
    Probe {
        writer: NodeId(b[0]),
        pc: Pc(u32::from_le_bytes([b[1], b[2], b[3], b[4]])),
        home: NodeId(b[5]),
        line: LineAddr(u64::from_le_bytes([
            b[6], b[7], b[8], b[9], b[10], b[11], b[12], b[13],
        ])),
    }
}

const PROBE_LEN: usize = 14;

fn put_str(buf: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    buf.extend_from_slice(&(bytes.len().min(u16::MAX as usize) as u16).to_le_bytes());
    buf.extend_from_slice(&bytes[..bytes.len().min(u16::MAX as usize)]);
}

fn get_str(b: &[u8]) -> io::Result<(String, usize)> {
    if b.len() < 2 {
        return Err(invalid("truncated string"));
    }
    let len = u16::from_le_bytes([b[0], b[1]]) as usize;
    if b.len() < 2 + len {
        return Err(invalid("truncated string body"));
    }
    let s = std::str::from_utf8(&b[2..2 + len])
        .map_err(|_| invalid("string is not UTF-8"))?
        .to_string();
    Ok((s, 2 + len))
}

/// Encodes a request into a payload (type byte + body).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    match req {
        Request::Ping => buf.push(T_PING),
        Request::Predict(p) => {
            buf.push(T_PREDICT);
            put_probe(&mut buf, p);
        }
        Request::PredictBatch(probes) => {
            buf.push(T_PREDICT_BATCH);
            let n = probes.len().min(MAX_BATCH);
            buf.extend_from_slice(&(n as u16).to_le_bytes());
            for p in &probes[..n] {
                put_probe(&mut buf, p);
            }
        }
        Request::Stats => buf.push(T_STATS),
        Request::Metrics => buf.push(T_METRICS),
        Request::Ingest {
            fingerprint,
            epoch,
            ops,
        } => {
            buf.push(T_INGEST);
            buf.extend_from_slice(&fingerprint.to_le_bytes());
            buf.extend_from_slice(&epoch.to_le_bytes());
            let n = ops.len().min(MAX_SEGMENT_OPS);
            buf.extend_from_slice(&(n as u32).to_le_bytes());
            for op in &ops[..n] {
                op.encode_into(&mut buf);
            }
        }
        Request::Subscribe {
            fingerprint,
            epoch,
            from,
        } => {
            buf.push(T_SUBSCRIBE);
            buf.extend_from_slice(&fingerprint.to_le_bytes());
            buf.extend_from_slice(&epoch.to_le_bytes());
            buf.extend_from_slice(&from.to_le_bytes());
        }
        Request::Promote {
            fingerprint,
            min_epoch,
        } => {
            buf.push(T_PROMOTE);
            buf.extend_from_slice(&fingerprint.to_le_bytes());
            buf.extend_from_slice(&min_epoch.to_le_bytes());
        }
        Request::AuditSubscribe { fingerprint, from } => {
            buf.push(T_AUDIT_SUBSCRIBE);
            buf.extend_from_slice(&fingerprint.to_le_bytes());
            buf.extend_from_slice(&from.to_le_bytes());
        }
    }
    buf
}

/// Decodes a request payload.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] on unknown types or malformed bodies.
pub fn decode_request(payload: &[u8]) -> io::Result<Request> {
    let (&tag, body) = payload
        .split_first()
        .ok_or_else(|| invalid("empty payload"))?;
    match tag {
        T_PING if body.is_empty() => Ok(Request::Ping),
        T_PREDICT if body.len() == PROBE_LEN => Ok(Request::Predict(get_probe(body))),
        T_PREDICT_BATCH => {
            if body.len() < 2 {
                return Err(invalid("truncated batch header"));
            }
            let n = u16::from_le_bytes([body[0], body[1]]) as usize;
            let rest = &body[2..];
            if rest.len() != n * PROBE_LEN {
                return Err(invalid(format!(
                    "batch of {n} probes needs {} body bytes, got {}",
                    n * PROBE_LEN,
                    rest.len()
                )));
            }
            Ok(Request::PredictBatch(
                rest.chunks_exact(PROBE_LEN).map(get_probe).collect(),
            ))
        }
        T_STATS if body.is_empty() => Ok(Request::Stats),
        T_METRICS if body.is_empty() => Ok(Request::Metrics),
        T_INGEST => {
            if body.len() < 16 {
                return Err(invalid("truncated ingest header"));
            }
            let fingerprint = u32::from_le_bytes([body[0], body[1], body[2], body[3]]);
            let epoch = get_u64(body, 4);
            let count = u32::from_le_bytes([body[12], body[13], body[14], body[15]]);
            // decode_ops validates the count against the byte length
            // (and the MAX_SEGMENT_OPS cap) before allocating.
            let ops = decode_ops(count, &body[16..])?;
            Ok(Request::Ingest {
                fingerprint,
                epoch,
                ops,
            })
        }
        T_SUBSCRIBE if body.len() == 20 => Ok(Request::Subscribe {
            fingerprint: u32::from_le_bytes([body[0], body[1], body[2], body[3]]),
            epoch: get_u64(body, 4),
            from: get_u64(body, 12),
        }),
        T_PROMOTE if body.len() == 12 => Ok(Request::Promote {
            fingerprint: u32::from_le_bytes([body[0], body[1], body[2], body[3]]),
            min_epoch: get_u64(body, 4),
        }),
        T_AUDIT_SUBSCRIBE if body.len() == 12 => Ok(Request::AuditSubscribe {
            fingerprint: u32::from_le_bytes([body[0], body[1], body[2], body[3]]),
            from: get_u64(body, 4),
        }),
        _ => Err(invalid(format!("malformed request (type 0x{tag:02X})"))),
    }
}

/// Where an `Ingest` payload's `count ‖ records` begin: after the type
/// byte, the fingerprint and the epoch.
const INGEST_SEGMENT_AT: usize = 13;

/// The records of a decoded `Ingest` payload and the CRC32c of its
/// `count ‖ records` — the body of the journal segment that carries
/// them. `payload_crc` is the payload's verified wire CRC; the segment's
/// CRC is derived from it ([`crc32c::combine`]), so the records are never
/// read for a checksum again.
///
/// # Panics
///
/// If `payload` is shorter than an `Ingest` header; call it only on a
/// payload [`decode_request`] accepted as [`Request::Ingest`].
pub(crate) fn ingest_segment(payload: &[u8], payload_crc: u32) -> (&[u8], u32) {
    let (header, segment) = payload.split_at(INGEST_SEGMENT_AT);
    let shifted = crc32c::combine(crc32c::checksum(header), 0, segment.len() as u64);
    (&segment[4..], payload_crc ^ shifted)
}

/// Encodes a response into a payload (type byte + body).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::new();
    match resp {
        Response::Pong => buf.push(T_PONG),
        Response::Prediction(b) => {
            buf.push(T_PREDICTION);
            buf.extend_from_slice(&b.bits().to_le_bytes());
        }
        Response::PredictionBatch(bitmaps) => {
            buf.push(T_PREDICTION_BATCH);
            buf.extend_from_slice(&(bitmaps.len().min(MAX_BATCH) as u16).to_le_bytes());
            for b in bitmaps.iter().take(MAX_BATCH) {
                buf.extend_from_slice(&b.bits().to_le_bytes());
            }
        }
        Response::Stats(s) => {
            buf.push(T_STATS_SNAPSHOT);
            put_str(&mut buf, &s.scheme);
            buf.push(s.nodes);
            buf.extend_from_slice(&s.shards.to_le_bytes());
            buf.extend_from_slice(&s.fingerprint.to_le_bytes());
            for v in [
                s.updates,
                s.scored,
                s.queries,
                s.entries,
                s.restarts,
                s.confusion.tp,
                s.confusion.fp,
                s.confusion.tn,
                s.confusion.fn_,
            ] {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
        Response::Metrics(text) => {
            buf.push(T_METRICS_TEXT);
            let bytes = text.as_bytes();
            buf.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            buf.extend_from_slice(bytes);
        }
        Response::IngestAck { head } => {
            buf.push(T_INGEST_ACK);
            buf.extend_from_slice(&head.to_le_bytes());
        }
        Response::JournalSegment(seg) => {
            buf.push(T_JOURNAL_SEGMENT);
            buf.extend_from_slice(&seg.fingerprint.to_le_bytes());
            buf.extend_from_slice(&seg.epoch.to_le_bytes());
            buf.extend_from_slice(&seg.start.to_le_bytes());
            buf.extend_from_slice(&seg.head.to_le_bytes());
            buf.extend_from_slice(&seg.lease_ms.to_le_bytes());
            let n = seg.ops.len().min(MAX_SEGMENT_OPS);
            buf.extend_from_slice(&(n as u32).to_le_bytes());
            for op in &seg.ops[..n] {
                op.encode_into(&mut buf);
            }
        }
        Response::Promoted { epoch, head } => {
            buf.push(T_PROMOTED);
            buf.extend_from_slice(&epoch.to_le_bytes());
            buf.extend_from_slice(&head.to_le_bytes());
        }
        Response::AuditSegment(seg) => {
            buf.push(T_AUDIT_SEGMENT);
            buf.extend_from_slice(&seg.fingerprint.to_le_bytes());
            buf.extend_from_slice(&seg.epoch.to_le_bytes());
            buf.extend_from_slice(&seg.start.to_le_bytes());
            buf.extend_from_slice(&seg.head.to_le_bytes());
            let n = seg.records.len().min(MAX_AUDIT_SEGMENT);
            buf.extend_from_slice(&(n as u32).to_le_bytes());
            for record in &seg.records[..n] {
                buf.extend_from_slice(&record.encode());
            }
        }
        Response::Error(msg) => {
            buf.push(T_ERROR);
            put_str(&mut buf, msg);
        }
    }
    buf
}

fn get_u64(b: &[u8], at: usize) -> u64 {
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(&b[at..at + 8]);
    u64::from_le_bytes(bytes)
}

/// Decodes a response payload.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] on unknown types or malformed bodies.
pub fn decode_response(payload: &[u8]) -> io::Result<Response> {
    let (&tag, body) = payload
        .split_first()
        .ok_or_else(|| invalid("empty payload"))?;
    match tag {
        T_PONG if body.is_empty() => Ok(Response::Pong),
        T_PREDICTION if body.len() == 8 => Ok(Response::Prediction(SharingBitmap::from_bits(
            get_u64(body, 0),
        ))),
        T_PREDICTION_BATCH => {
            if body.len() < 2 {
                return Err(invalid("truncated batch header"));
            }
            let n = u16::from_le_bytes([body[0], body[1]]) as usize;
            let rest = &body[2..];
            if rest.len() != n * 8 {
                return Err(invalid("batch body length mismatch"));
            }
            Ok(Response::PredictionBatch(
                (0..n)
                    .map(|i| SharingBitmap::from_bits(get_u64(rest, i * 8)))
                    .collect(),
            ))
        }
        T_STATS_SNAPSHOT => {
            let (scheme, used) = get_str(body)?;
            let rest = &body[used..];
            if rest.len() != 1 + 2 + 4 + 9 * 8 {
                return Err(invalid("stats body length mismatch"));
            }
            let fixed = &rest[7..];
            Ok(Response::Stats(StatsReply {
                scheme,
                nodes: rest[0],
                shards: u16::from_le_bytes([rest[1], rest[2]]),
                fingerprint: u32::from_le_bytes([rest[3], rest[4], rest[5], rest[6]]),
                updates: get_u64(fixed, 0),
                scored: get_u64(fixed, 8),
                queries: get_u64(fixed, 16),
                entries: get_u64(fixed, 24),
                restarts: get_u64(fixed, 32),
                confusion: ConfusionMatrix {
                    tp: get_u64(fixed, 40),
                    fp: get_u64(fixed, 48),
                    tn: get_u64(fixed, 56),
                    fn_: get_u64(fixed, 64),
                },
            }))
        }
        T_METRICS_TEXT => {
            if body.len() < 4 {
                return Err(invalid("truncated metrics header"));
            }
            let len = u32::from_le_bytes([body[0], body[1], body[2], body[3]]) as usize;
            if body.len() != 4 + len {
                return Err(invalid("metrics body length mismatch"));
            }
            let text = std::str::from_utf8(&body[4..])
                .map_err(|_| invalid("metrics text is not UTF-8"))?
                .to_string();
            Ok(Response::Metrics(text))
        }
        T_INGEST_ACK if body.len() == 8 => Ok(Response::IngestAck {
            head: get_u64(body, 0),
        }),
        T_JOURNAL_SEGMENT => {
            if body.len() < 36 {
                return Err(invalid("truncated journal segment header"));
            }
            let fingerprint = u32::from_le_bytes([body[0], body[1], body[2], body[3]]);
            let epoch = get_u64(body, 4);
            let start = get_u64(body, 12);
            let head = get_u64(body, 20);
            let lease_ms = u32::from_le_bytes([body[28], body[29], body[30], body[31]]);
            let count = u32::from_le_bytes([body[32], body[33], body[34], body[35]]);
            let ops = decode_ops(count, &body[36..])?;
            Ok(Response::JournalSegment(SegmentFrame {
                fingerprint,
                epoch,
                start,
                head,
                lease_ms,
                ops,
            }))
        }
        T_PROMOTED if body.len() == 16 => Ok(Response::Promoted {
            epoch: get_u64(body, 0),
            head: get_u64(body, 8),
        }),
        T_AUDIT_SEGMENT => {
            if body.len() < 32 {
                return Err(invalid("truncated audit segment header"));
            }
            let fingerprint = u32::from_le_bytes([body[0], body[1], body[2], body[3]]);
            let epoch = get_u64(body, 4);
            let start = get_u64(body, 12);
            let head = get_u64(body, 20);
            let count = u32::from_le_bytes([body[28], body[29], body[30], body[31]]) as usize;
            let records_bytes = &body[32..];
            // Validate the count against the byte length (and the
            // segment cap) before allocating.
            if count > MAX_AUDIT_SEGMENT {
                return Err(invalid(format!(
                    "audit segment claims {count} records, limit is {MAX_AUDIT_SEGMENT}"
                )));
            }
            if records_bytes.len() != count * RECORD_LEN {
                return Err(invalid(format!(
                    "audit segment claims {count} records but carries {} bytes",
                    records_bytes.len()
                )));
            }
            let records = records_bytes
                .chunks_exact(RECORD_LEN)
                .map(|chunk| {
                    let mut fixed = [0u8; RECORD_LEN];
                    fixed.copy_from_slice(chunk);
                    AuditRecord::decode(&fixed)
                })
                .collect();
            Ok(Response::AuditSegment(AuditFrame {
                fingerprint,
                epoch,
                start,
                head,
                records,
            }))
        }
        T_ERROR => {
            let (msg, used) = get_str(body)?;
            if used != body.len() {
                return Err(invalid("trailing bytes after error message"));
            }
            Ok(Response::Error(msg))
        }
        _ => Err(invalid(format!("malformed response (type 0x{tag:02X})"))),
    }
}

/// Writes one frame: `len` prefix, payload, CRC32c of the payload.
///
/// # Errors
///
/// Propagates I/O errors; rejects payloads over [`MAX_PAYLOAD`].
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_PAYLOAD {
        return Err(invalid(format!(
            "payload of {} bytes exceeds the {MAX_PAYLOAD}-byte frame limit",
            payload.len()
        )));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.write_all(&crc32c::checksum(payload).to_le_bytes())?;
    Ok(())
}

/// Whether `buffered` begins with a whole frame (length prefix, payload
/// and checksum), so that reading it needs no further input.
pub(crate) fn holds_whole_frame(buffered: &[u8]) -> bool {
    buffered.first_chunk::<4>().is_some_and(|prefix| {
        let payload = u64::from(u32::from_le_bytes(*prefix));
        buffered.len() as u64 >= 4 + payload + 4
    })
}

/// Outcome of reading one frame, with enough structure for a server to
/// decide whether the connection's *framing* is still trustworthy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameRead {
    /// A checksum-verified payload.
    Frame {
        /// The payload bytes.
        payload: Vec<u8>,
        /// Their verified CRC32c (the frame's trailer).
        crc: u32,
    },
    /// The frame arrived whole but its payload fails the CRC. Framing is
    /// intact (length and trailer were consumed), so the connection can
    /// continue after reporting the error.
    BadChecksum {
        /// CRC the peer sent.
        stored: u32,
        /// CRC computed over the received payload.
        computed: u32,
    },
    /// The length prefix claims more than [`MAX_PAYLOAD`]. Nothing past
    /// the prefix was read, and it cannot be skipped safely — the
    /// connection's framing is lost.
    Oversized {
        /// The hostile claimed length.
        len: u32,
    },
}

/// Reads the remainder of a frame whose first length byte was already
/// consumed (servers read that byte separately so an *idle* wait can be
/// told apart from a *mid-frame* stall when read deadlines fire).
///
/// Never allocates more than [`MAX_PAYLOAD`].
///
/// # Errors
///
/// Only transport errors ([`io::ErrorKind::UnexpectedEof`] on mid-frame
/// EOF, timeouts, resets); protocol-level problems come back as
/// [`FrameRead`] variants.
pub fn read_frame_after_first<R: Read>(r: &mut R, first: u8) -> io::Result<FrameRead> {
    let mut rest = [0u8; 3];
    r.read_exact(&mut rest)?;
    let len = u32::from_le_bytes([first, rest[0], rest[1], rest[2]]);
    if len as usize > MAX_PAYLOAD {
        return Ok(FrameRead::Oversized { len });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let mut crc_bytes = [0u8; 4];
    r.read_exact(&mut crc_bytes)?;
    let stored = u32::from_le_bytes(crc_bytes);
    let computed = crc32c::checksum(&payload);
    if stored != computed {
        return Ok(FrameRead::BadChecksum { stored, computed });
    }
    Ok(FrameRead::Frame {
        payload,
        crc: computed,
    })
}

/// Reads one frame and verifies its checksum, returning the payload.
/// Returns `Ok(None)` on a clean EOF at a frame boundary.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] on oversized frames or checksum
/// mismatch; [`io::ErrorKind::UnexpectedEof`] on mid-frame EOF.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut first = [0u8; 1];
    match r.read_exact(&mut first) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    match read_frame_after_first(r, first[0])? {
        FrameRead::Frame { payload, .. } => Ok(Some(payload)),
        FrameRead::Oversized { len } => Err(invalid(format!(
            "frame length {len} exceeds the {MAX_PAYLOAD}-byte limit"
        ))),
        FrameRead::BadChecksum { stored, computed } => Err(invalid(format!(
            "frame checksum mismatch: stored {stored:#010X}, computed {computed:#010X}"
        ))),
    }
}

/// Writes one request frame.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_request<W: Write>(w: &mut W, req: &Request) -> io::Result<()> {
    write_frame(w, &encode_request(req))
}

/// Reads one request frame.
///
/// # Errors
///
/// As [`read_frame`] plus [`decode_request`]; EOF at a frame boundary is
/// [`io::ErrorKind::UnexpectedEof`] here (a request was expected).
pub fn read_request<R: Read>(r: &mut R) -> io::Result<Request> {
    match read_frame(r)? {
        Some(payload) => decode_request(&payload),
        None => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a request",
        )),
    }
}

/// Writes one response frame.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_response<W: Write>(w: &mut W, resp: &Response) -> io::Result<()> {
    write_frame(w, &encode_response(resp))
}

/// Reads one response frame.
///
/// # Errors
///
/// As [`read_frame`] plus [`decode_response`].
pub fn read_response<R: Read>(r: &mut R) -> io::Result<Response> {
    match read_frame(r)? {
        Some(payload) => decode_response(&payload),
        None => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a response",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(seed: u64) -> Probe {
        Probe::new(
            NodeId((seed % 16) as u8),
            Pc((seed * 7) as u32),
            NodeId(((seed + 3) % 16) as u8),
            LineAddr(seed * 1_000_003),
        )
    }

    #[test]
    fn a_frame_is_whole_only_with_its_last_checksum_byte() {
        let mut frame = Vec::new();
        write_request(&mut frame, &Request::PredictBatch(vec![probe(1); 3])).unwrap();
        for cut in 0..frame.len() {
            assert!(!holds_whole_frame(&frame[..cut]), "cut at {cut}");
        }
        assert!(holds_whole_frame(&frame));
        frame.push(0); // the first byte of the next frame
        assert!(holds_whole_frame(&frame));
        // A hostile length prefix never counts as buffered.
        assert!(!holds_whole_frame(&[0xFF; 64]));
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Ping,
            Request::Predict(probe(1)),
            Request::PredictBatch((0..100).map(probe).collect()),
            Request::PredictBatch(Vec::new()),
            Request::Stats,
            Request::Metrics,
            Request::Ingest {
                fingerprint: 0xFACE_FEED,
                epoch: 3,
                ops: (0..50)
                    .map(|i| {
                        if i % 2 == 0 {
                            ReplOp::Update {
                                key: i * 31,
                                feedback: SharingBitmap::from_bits(i),
                            }
                        } else {
                            ReplOp::Score {
                                key: i * 37,
                                actual: SharingBitmap::from_bits(!i),
                            }
                        }
                    })
                    .collect(),
            },
            Request::Ingest {
                fingerprint: 0,
                epoch: 0,
                ops: Vec::new(),
            },
            Request::Subscribe {
                fingerprint: 0x1234_5678,
                epoch: u64::MAX,
                from: u64::MAX - 1,
            },
            Request::Promote {
                fingerprint: 0xCAFE_D00D,
                min_epoch: 42,
            },
            Request::Promote {
                fingerprint: 0,
                min_epoch: u64::MAX,
            },
            Request::AuditSubscribe {
                fingerprint: 0xBEEF_0042,
                from: 17,
            },
            // Tail-from-head sentinel.
            Request::AuditSubscribe {
                fingerprint: 0,
                from: u64::MAX,
            },
        ];
        for req in reqs {
            let mut buf = Vec::new();
            write_request(&mut buf, &req).unwrap();
            assert_eq!(read_request(&mut buf.as_slice()).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = [
            Response::Pong,
            Response::Prediction(SharingBitmap::from_bits(0xDEAD_BEEF)),
            Response::PredictionBatch((0..64).map(|i| SharingBitmap::from_bits(1 << i)).collect()),
            Response::Stats(StatsReply {
                scheme: "inter(pid+pc8)2[direct]".to_string(),
                nodes: 16,
                shards: 8,
                fingerprint: 0x5EED_F00D,
                updates: 1,
                scored: 2,
                queries: 3,
                entries: 4,
                restarts: 5,
                confusion: ConfusionMatrix {
                    tp: 10,
                    fp: 20,
                    tn: 30,
                    fn_: 40,
                },
            }),
            Response::Metrics(String::new()),
            Response::Metrics(
                "# HELP csp_shard_queries_total Serving probes answered.\n\
                 # TYPE csp_shard_queries_total counter\n\
                 csp_shard_queries_total{shard=\"0\"} 123\n"
                    // Past 64 KiB: metrics bodies use a u32 length where
                    // other frames' strings stop at u16.
                    .repeat(600),
            ),
            Response::IngestAck { head: 0xDEAD_0001 },
            Response::JournalSegment(SegmentFrame {
                fingerprint: 0xAB,
                epoch: 2,
                start: 100,
                head: 103,
                lease_ms: 10_000,
                ops: vec![
                    ReplOp::Update {
                        key: 1,
                        feedback: SharingBitmap::from_bits(3),
                    },
                    ReplOp::Score {
                        key: 2,
                        actual: SharingBitmap::from_bits(5),
                    },
                    ReplOp::Score {
                        key: 3,
                        actual: SharingBitmap::from_bits(0),
                    },
                ],
            }),
            // A heartbeat: empty segment, start == head.
            Response::JournalSegment(SegmentFrame {
                fingerprint: 0xAB,
                epoch: u64::MAX,
                start: 103,
                head: 103,
                lease_ms: 0,
                ops: Vec::new(),
            }),
            Response::Promoted {
                epoch: 7,
                head: 0xFFFF_FFFF_0000_0001,
            },
            Response::AuditSegment(AuditFrame {
                fingerprint: 0xBEEF_0042,
                epoch: 3,
                start: 100,
                head: 103,
                records: (0..3)
                    .map(|i| AuditRecord {
                        seq: 100 + i,
                        key: i * 0x9E37_79B9,
                        predicted: SharingBitmap::from_bits(1 << i),
                        actual: SharingBitmap::from_bits(!(1 << i)),
                        epoch: 3,
                        shard: (i % 4) as u16,
                    })
                    .collect(),
            }),
            // A heartbeat: empty segment, start == head.
            Response::AuditSegment(AuditFrame {
                fingerprint: 0xBEEF_0042,
                epoch: u64::MAX,
                start: 103,
                head: 103,
                records: Vec::new(),
            }),
            Response::Error("predictor on fire".to_string()),
        ];
        for resp in resps {
            let mut buf = Vec::new();
            write_response(&mut buf, &resp).unwrap();
            assert_eq!(read_response(&mut buf.as_slice()).unwrap(), resp);
        }
    }

    #[test]
    fn corrupted_frame_is_rejected_by_checksum() {
        let mut buf = Vec::new();
        write_request(&mut buf, &Request::Predict(probe(9))).unwrap();
        // Flip a payload bit: length still matches, CRC must not.
        buf[6] ^= 0x40;
        let err = read_request(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "got: {err}");
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("limit"), "got: {err}");
    }

    #[test]
    fn eof_at_frame_boundary_is_none_mid_frame_is_error() {
        assert!(read_frame(&mut [].as_slice()).unwrap().is_none());
        let mut buf = Vec::new();
        write_request(&mut buf, &Request::Ping).unwrap();
        buf.truncate(buf.len() - 2); // cut into the CRC
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn unknown_types_are_invalid_data() {
        assert!(decode_request(&[0x7E]).is_err());
        assert!(decode_response(&[0x00]).is_err());
        assert!(decode_request(&[]).is_err());
        // Wrong body length for a known type.
        assert!(decode_request(&[T_PREDICT, 1, 2, 3]).is_err());
    }

    #[test]
    fn hostile_ingest_counts_are_rejected_without_allocating() {
        // count = u32::MAX with a tiny body: the count/length cross-check
        // must fire before any allocation sized by the count.
        let mut payload = vec![T_INGEST];
        payload.extend_from_slice(&7u32.to_le_bytes()); // fingerprint
        payload.extend_from_slice(&1u64.to_le_bytes()); // epoch
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // hostile count
        payload.extend_from_slice(&[0u8; 17]); // one op's worth of bytes
        assert!(decode_request(&payload).is_err());
        // Same for the segment frame.
        let mut payload = vec![T_JOURNAL_SEGMENT];
        payload.extend_from_slice(&7u32.to_le_bytes()); // fingerprint
        payload.extend_from_slice(&1u64.to_le_bytes()); // epoch
        payload.extend_from_slice(&0u64.to_le_bytes()); // start
        payload.extend_from_slice(&1u64.to_le_bytes()); // head
        payload.extend_from_slice(&0u32.to_le_bytes()); // lease_ms
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        payload.extend_from_slice(&[0u8; 17]);
        assert!(decode_response(&payload).is_err());
    }

    #[test]
    fn hostile_audit_segment_counts_are_rejected_without_allocating() {
        // count = u32::MAX with one record's worth of bytes: the
        // count/length cross-check must fire before the Vec allocation.
        let mut payload = vec![T_AUDIT_SEGMENT];
        payload.extend_from_slice(&7u32.to_le_bytes()); // fingerprint
        payload.extend_from_slice(&1u64.to_le_bytes()); // epoch
        payload.extend_from_slice(&0u64.to_le_bytes()); // start
        payload.extend_from_slice(&1u64.to_le_bytes()); // head
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // hostile count
        payload.extend_from_slice(&[0u8; RECORD_LEN]);
        assert!(decode_response(&payload).is_err());
        // A count above the per-frame cap is refused even when the body
        // length is consistent with it.
        let n = MAX_AUDIT_SEGMENT + 1;
        let mut payload = vec![T_AUDIT_SEGMENT];
        payload.extend_from_slice(&7u32.to_le_bytes());
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&(n as u64).to_le_bytes());
        payload.extend_from_slice(&(n as u32).to_le_bytes());
        payload.extend_from_slice(&vec![0u8; n * RECORD_LEN]);
        assert!(decode_response(&payload).is_err());
        // Wrong AuditSubscribe body length is refused too.
        assert!(decode_request(&[T_AUDIT_SUBSCRIBE, 1, 2, 3]).is_err());
    }
}
