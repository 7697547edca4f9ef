//! The query front-end: serves the wire protocol over TCP or Unix
//! sockets, one connection-handler thread per client, all sharing one
//! [`ShardedEngine`].
//!
//! # Failure model
//!
//! A hostile or broken client must never take the server down or wedge a
//! handler thread forever (see `PROTOCOL.md`, "Failure model & recovery"):
//!
//! * **Deadlines** — client sockets carry read/write timeouts
//!   ([`ServerOptions::read_timeout`]). A connection that stalls
//!   *mid-frame* (slowloris) is cut; one that is merely idle between
//!   requests is kept.
//! * **Error budget** — malformed-but-framed requests and checksum
//!   failures each get a typed [`Response::Error`]; a connection that
//!   keeps sending garbage exhausts [`ServerOptions::error_budget`] and
//!   is disconnected with a final typed error frame.
//! * **Framing loss** — an oversized length prefix cannot be skipped
//!   safely, so it draws a typed error and an immediate disconnect.
//! * **Graceful shutdown** — [`Server::shutdown_handle`] returns a flag
//!   that makes [`Server::run`] stop accepting, drain in-flight
//!   connections, and return, so the owner can take a final snapshot.

use crate::audit::AuditStreamError;
use crate::error::ServeError;
use crate::replication::{self, Journaled, SegmentError, MAX_SEGMENT_OPS};
use crate::shard::ShardedEngine;
use crate::wire::{self, FrameRead, Request, Response, SegmentFrame, StatsReply};
use csp_obs::{Counter, Gauge, Histogram, Registry};
use csp_trace::audit::MAX_AUDIT_SEGMENT;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Connection-robustness knobs for a [`Server`].
#[derive(Clone, Copy, Debug)]
pub struct ServerOptions {
    /// Per-read deadline on client sockets. A timeout while *idle* (no
    /// frame started) keeps the connection; a timeout *mid-frame* cuts
    /// it. `None` disables the deadline entirely.
    pub read_timeout: Option<Duration>,
    /// Per-write deadline on client sockets (protects handler threads
    /// from clients that stop reading).
    pub write_timeout: Option<Duration>,
    /// Protocol errors (bad checksum, malformed request) a connection
    /// may accumulate before it is disconnected.
    pub error_budget: u32,
    /// How long [`Server::run`] waits for in-flight connections to end
    /// after shutdown is requested before returning anyway.
    pub drain_timeout: Duration,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            error_budget: 8,
            drain_timeout: Duration::from_secs(10),
        }
    }
}

/// A cloneable flag that asks a running [`Server`] to shut down
/// gracefully: stop accepting, drain connections, return from
/// [`Server::run`].
#[derive(Clone, Debug, Default)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
}

impl ShutdownHandle {
    /// A fresh, un-triggered handle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests shutdown. Idempotent; never blocks.
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

/// A prediction server bound to a socket, not yet accepting.
///
/// [`run`](Server::run) accepts until [`shutdown_handle`](Server::shutdown_handle)
/// fires; spawn it on a thread to serve in the background (see the
/// crate-level example).
pub struct Server {
    listener: Listener,
    engine: Arc<ShardedEngine>,
    options: ServerOptions,
    shutdown: ShutdownHandle,
}

impl Server {
    /// Binds a TCP listener (use port 0 for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn bind_tcp<A: ToSocketAddrs>(addr: A, engine: Arc<ShardedEngine>) -> io::Result<Self> {
        Ok(Server {
            listener: Listener::Tcp(TcpListener::bind(addr)?),
            engine,
            options: ServerOptions::default(),
            shutdown: ShutdownHandle::new(),
        })
    }

    /// Binds a Unix-domain socket listener at `path`.
    ///
    /// # Errors
    ///
    /// Propagates bind errors (e.g. the path already exists).
    #[cfg(unix)]
    pub fn bind_unix<P: AsRef<std::path::Path>>(
        path: P,
        engine: Arc<ShardedEngine>,
    ) -> io::Result<Self> {
        Ok(Server {
            listener: Listener::Unix(UnixListener::bind(path)?),
            engine,
            options: ServerOptions::default(),
            shutdown: ShutdownHandle::new(),
        })
    }

    /// Replaces the connection-robustness options.
    #[must_use]
    pub fn with_options(mut self, options: ServerOptions) -> Self {
        self.options = options;
        self
    }

    /// The flag that stops [`run`](Self::run) gracefully. Clone it out
    /// before spawning the server thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.shutdown.clone()
    }

    /// The bound TCP address (for ephemeral-port binds).
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::Unsupported`] for Unix-socket servers.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        match &self.listener {
            Listener::Tcp(l) => l.local_addr(),
            #[cfg(unix)]
            Listener::Unix(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix-socket server has no TCP address",
            )),
        }
    }

    /// Accepts connections, one handler thread per client, until a fatal
    /// accept error or a [`shutdown_handle`](Self::shutdown_handle)
    /// request. On shutdown the accept loop stops, in-flight connections
    /// are drained (bounded by [`ServerOptions::drain_timeout`]), and
    /// `Ok(())` is returned — the caller then owns the engine again and
    /// can snapshot it.
    ///
    /// # Errors
    ///
    /// Returns only on a fatal accept error; per-connection I/O errors
    /// just end that connection.
    pub fn run(self) -> io::Result<()> {
        let active = Arc::new(AtomicUsize::new(0));
        let poll = Duration::from_millis(25);
        match &self.listener {
            Listener::Tcp(listener) => {
                listener.set_nonblocking(true)?;
                while !self.shutdown.is_shutdown() {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            stream.set_nodelay(true)?;
                            stream.set_nonblocking(false)?;
                            stream.set_read_timeout(self.options.read_timeout)?;
                            stream.set_write_timeout(self.options.write_timeout)?;
                            self.spawn_handler(stream, &active);
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(poll);
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
            #[cfg(unix)]
            Listener::Unix(listener) => {
                listener.set_nonblocking(true)?;
                while !self.shutdown.is_shutdown() {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            stream.set_nonblocking(false)?;
                            stream.set_read_timeout(self.options.read_timeout)?;
                            stream.set_write_timeout(self.options.write_timeout)?;
                            self.spawn_handler(stream, &active);
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(poll);
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
        }
        // Drain: handlers see the shutdown flag at their next idle read
        // and wind down; bound the wait so a wedged peer cannot hold the
        // process open forever.
        let deadline = Instant::now() + self.options.drain_timeout;
        while active.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        Ok(())
    }

    fn spawn_handler<S>(&self, stream: S, active: &Arc<AtomicUsize>)
    where
        S: Send + 'static,
        for<'a> &'a S: Read + Write,
    {
        let engine = Arc::clone(&self.engine);
        let options = self.options;
        let shutdown = self.shutdown.clone();
        let active = Arc::clone(active);
        active.fetch_add(1, Ordering::AcqRel);
        std::thread::spawn(move || {
            let reader = BufReader::with_capacity(CONNECTION_BUFFER, &stream);
            let writer = BufWriter::with_capacity(CONNECTION_BUFFER, &stream);
            let _ = serve_connection(reader, writer, &engine, &options, &shutdown);
            active.fetch_sub(1, Ordering::AcqRel);
        });
    }
}

/// Bytes of read and of write buffer per client connection. A pipelined
/// burst is read this much at a time and answered in runs of up to this
/// many reply bytes per socket write.
const CONNECTION_BUFFER: usize = 64 * 1024;

/// The wire-layer instruments one connection records into. Built from
/// the engine registry when the connection opens (cold: a handful of
/// registry lookups); everything on the per-frame path is an atomic op
/// on these shared handles.
struct WireMetrics {
    connections_total: Arc<Counter>,
    connections_active: Arc<Gauge>,
    errors: Arc<Counter>,
    decode_ns: Arc<Histogram>,
    encode_ns: Arc<Histogram>,
    flushes: Arc<Counter>,
    ping: Arc<Counter>,
    predict: Arc<Counter>,
    predict_batch: Arc<Counter>,
    stats: Arc<Counter>,
    metrics: Arc<Counter>,
    ingest: Arc<Counter>,
    subscribe: Arc<Counter>,
    promote: Arc<Counter>,
    audit_subscribe: Arc<Counter>,
    invalid: Arc<Counter>,
}

impl WireMetrics {
    fn new(registry: &Registry) -> Self {
        let frames = |ty: &str| {
            registry.counter(
                "csp_wire_frames_total",
                "Request frames received, by decoded type.",
                &[("type", ty)],
            )
        };
        WireMetrics {
            connections_total: registry.counter(
                "csp_connections_total",
                "Client connections accepted.",
                &[],
            ),
            connections_active: registry.gauge(
                "csp_connections_active",
                "Client connections currently open.",
                &[],
            ),
            errors: registry.counter(
                "csp_wire_errors_total",
                "Protocol errors answered with a typed error frame.",
                &[],
            ),
            decode_ns: registry.histogram(
                "csp_wire_decode_ns",
                "First byte to decoded request, in nanoseconds.",
                &[],
            ),
            encode_ns: registry.histogram(
                "csp_wire_encode_ns",
                "Reply encode + buffered write, plus the flush when one follows, in nanoseconds.",
                &[],
            ),
            flushes: registry.counter(
                "csp_wire_flushes_total",
                "Flushes of buffered replies to the socket; frames over flushes is replies per write.",
                &[],
            ),
            ping: frames("ping"),
            predict: frames("predict"),
            predict_batch: frames("predict_batch"),
            stats: frames("stats"),
            metrics: frames("metrics"),
            ingest: frames("ingest"),
            subscribe: frames("subscribe"),
            promote: frames("promote"),
            audit_subscribe: frames("audit_subscribe"),
            invalid: frames("invalid"),
        }
    }

    fn count_request(&self, request: &Request) {
        match request {
            Request::Ping => self.ping.inc(),
            Request::Predict(_) => self.predict.inc(),
            Request::PredictBatch(_) => self.predict_batch.inc(),
            Request::Stats => self.stats.inc(),
            Request::Metrics => self.metrics.inc(),
            Request::Ingest { .. } => self.ingest.inc(),
            Request::Subscribe { .. } => self.subscribe.inc(),
            Request::Promote { .. } => self.promote.inc(),
            Request::AuditSubscribe { .. } => self.audit_subscribe.inc(),
        }
    }
}

/// Keeps `csp_connections_active` balanced on every exit path.
struct ActiveConnection(Arc<Gauge>);

impl ActiveConnection {
    fn open(metrics: &WireMetrics) -> Self {
        metrics.connections_total.inc();
        metrics.connections_active.add(1);
        ActiveConnection(Arc::clone(&metrics.connections_active))
    }
}

impl Drop for ActiveConnection {
    fn drop(&mut self) {
        self.0.sub(1);
    }
}

/// `true` for the error kinds a socket read/write deadline produces.
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Waits for the first byte of the next frame. Read-deadline expiries
/// here mean the connection is merely *idle*, so the wait continues —
/// unless shutdown was requested, which ends it.
///
/// Returns `None` on clean EOF or shutdown.
fn wait_first_byte<R: Read>(reader: &mut R, shutdown: &ShutdownHandle) -> io::Result<Option<u8>> {
    let mut first = [0u8; 1];
    loop {
        match reader.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => return Ok(Some(first[0])),
            Err(e) if is_timeout(&e) => {
                if shutdown.is_shutdown() {
                    return Ok(None);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

fn send_error<W: Write>(writer: &mut W, msg: String) -> io::Result<()> {
    wire::write_response(writer, &Response::Error(msg))?;
    writer.flush()
}

/// Writes out the replies buffered in `writer`, counting the flush.
fn flush_replies<W: Write>(writer: &mut W, metrics: &WireMetrics) -> io::Result<()> {
    metrics.flushes.inc();
    writer.flush()
}

/// Sends the error frame that ends the request loop, after any replies
/// still buffered; best effort, as the connection closes either way.
fn send_closing_error<W: Write>(writer: &mut W, metrics: &WireMetrics, msg: String) {
    metrics.flushes.inc();
    let _ = send_error(writer, msg);
}

/// Serves one connection until EOF, shutdown, or disqualification: read
/// a request frame, answer it into `writer`, and flush `writer` unless
/// `reader` already buffers the next whole request.
///
/// A pipelining client is thus answered in runs, in request order, one
/// socket write per run of buffered requests; and every read that can
/// block comes after a flush, so no reply is withheld while the server
/// waits on its peer. `writer` should be buffered: the server's own
/// connections buffer 64 KiB each way.
///
/// Malformed-but-framed requests and checksum failures get a typed
/// [`Response::Error`] and count against the connection's error budget;
/// exhausting it disconnects. Framing-destroying input (an oversized
/// length prefix) or a mid-frame stall past the read deadline draws a
/// final typed error and an immediate disconnect.
///
/// # Errors
///
/// Propagates transport I/O errors (the connection is gone either way).
pub fn serve_connection<R: Read, W: Write>(
    mut reader: BufReader<R>,
    mut writer: W,
    engine: &ShardedEngine,
    options: &ServerOptions,
    shutdown: &ShutdownHandle,
) -> io::Result<()> {
    let metrics = WireMetrics::new(engine.registry());
    let _active = ActiveConnection::open(&metrics);
    let mut errors: u32 = 0;
    loop {
        let first = match wait_first_byte(&mut reader, shutdown)? {
            Some(b) => b,
            None => return Ok(()), // clean EOF or shutdown
        };
        // Decode time runs from the first byte of the frame to a decoded
        // request (or a rejected one); idle time waiting for that byte is
        // the client's, not ours.
        let decode_started = Instant::now();
        let outcome = match wire::read_frame_after_first(&mut reader, first) {
            Ok(o) => o,
            Err(e) if is_timeout(&e) => {
                // Mid-frame stall: a slowloris peer. Best-effort notice,
                // then hang up.
                metrics.errors.inc();
                send_closing_error(
                    &mut writer,
                    &metrics,
                    "read deadline exceeded mid-frame".to_string(),
                );
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        let response = match outcome {
            FrameRead::Oversized { len } => {
                metrics.invalid.inc();
                metrics.errors.inc();
                send_closing_error(
                    &mut writer,
                    &metrics,
                    format!(
                        "frame length {len} exceeds the {}-byte limit; closing",
                        wire::MAX_PAYLOAD
                    ),
                );
                return Ok(()); // framing lost, nothing more to parse
            }
            FrameRead::BadChecksum { stored, computed } => {
                errors += 1;
                metrics.invalid.inc();
                metrics.errors.inc();
                metrics.decode_ns.record_duration(decode_started.elapsed());
                Response::Error(format!(
                    "frame checksum mismatch: stored {stored:#010X}, computed {computed:#010X}"
                ))
            }
            FrameRead::Frame { payload, crc } => match wire::decode_request(&payload) {
                Ok(Request::Subscribe {
                    fingerprint,
                    epoch,
                    from,
                }) => {
                    // Subscribe abandons request/response: the connection
                    // becomes a one-way segment stream until it drops.
                    metrics.count_request(&Request::Subscribe {
                        fingerprint,
                        epoch,
                        from,
                    });
                    metrics.decode_ns.record_duration(decode_started.elapsed());
                    flush_replies(&mut writer, &metrics)?;
                    return stream_segments(
                        &mut writer,
                        engine,
                        shutdown,
                        fingerprint,
                        epoch,
                        from,
                    );
                }
                Ok(Request::AuditSubscribe { fingerprint, from }) => {
                    // Like Subscribe: the connection becomes a one-way
                    // audit-record stream until it drops.
                    metrics.count_request(&Request::AuditSubscribe { fingerprint, from });
                    metrics.decode_ns.record_duration(decode_started.elapsed());
                    flush_replies(&mut writer, &metrics)?;
                    return stream_audit(&mut writer, engine, shutdown, fingerprint, from);
                }
                Ok(Request::Ingest {
                    fingerprint,
                    epoch,
                    ops,
                }) => {
                    // Journaled as received: the records under a CRC
                    // derived from the frame's verified one.
                    metrics.ingest.inc();
                    metrics.decode_ns.record_duration(decode_started.elapsed());
                    let (records, records_crc) = wire::ingest_segment(&payload, crc);
                    let batch = Journaled::verbatim(&ops, records, records_crc);
                    ingest(engine, fingerprint, epoch, &batch)
                }
                Ok(request) => {
                    metrics.count_request(&request);
                    metrics.decode_ns.record_duration(decode_started.elapsed());
                    answer(engine, request)
                }
                Err(e) => {
                    errors += 1;
                    metrics.invalid.inc();
                    metrics.errors.inc();
                    metrics.decode_ns.record_duration(decode_started.elapsed());
                    Response::Error(e.to_string())
                }
            },
        };
        let encode_started = Instant::now();
        wire::write_response(&mut writer, &response)?;
        if !wire::holds_whole_frame(reader.buffer()) {
            flush_replies(&mut writer, &metrics)?;
        }
        metrics.encode_ns.record_duration(encode_started.elapsed());
        if errors > options.error_budget {
            send_closing_error(
                &mut writer,
                &metrics,
                format!("error budget exhausted ({errors} protocol errors); closing",),
            );
            return Ok(());
        }
    }
}

/// Writes the frames `cut` makes from successive offsets, starting at
/// `offset`, until the connection drops, shutdown fires, or `cut`
/// refuses an offset (the refusal goes out as an error frame). `cut`
/// returns a frame and the offset after it — an empty frame is a
/// heartbeat, cut when the source stays idle for [`HEARTBEAT`] — and
/// `shipped` hears each offset once its frame is written.
fn stream<W: Write>(
    writer: &mut W,
    shutdown: &ShutdownHandle,
    mut offset: u64,
    mut cut: impl FnMut(u64) -> Result<(Response, u64), String>,
    mut shipped: impl FnMut(u64),
) -> io::Result<()> {
    while !shutdown.is_shutdown() {
        let (frame, next) = match cut(offset) {
            Ok(cut) => cut,
            Err(refusal) => return send_error(writer, refusal),
        };
        wire::write_response(writer, &frame)?;
        writer.flush()?;
        offset = next;
        shipped(offset);
    }
    Ok(())
}

/// How long an idle subscription waits before sending a heartbeat.
const HEARTBEAT: Duration = Duration::from_millis(500);

/// Streams journal segments to a subscribed follower until the
/// connection drops, shutdown fires, or the subscription is
/// disqualified (wrong fingerprint, a subscriber ahead of this server's
/// epoch, compacted-away offset, an offset past the head). Heartbeat
/// (empty) segments flow while the log is idle so the follower can
/// watch lag and liveness.
///
/// The subscriber holds a compaction lease for the duration of the
/// stream, renewed per shipped segment: the horizon it may still ask
/// for is never reclaimed under it (see
/// [`replication::ReplicationLog::compact`]).
///
/// A follower that stops reading fills its socket buffers and trips the
/// server's write deadline here — backpressure cuts the slow subscriber
/// instead of wedging the handler thread or buffering unboundedly (its
/// lease then lapses after the TTL, unpinning compaction).
fn stream_segments<W: Write>(
    writer: &mut W,
    engine: &ShardedEngine,
    shutdown: &ShutdownHandle,
    fingerprint: u32,
    peer_epoch: u64,
    from: u64,
) -> io::Result<()> {
    let log = match engine.pipeline().upstream(fingerprint, peer_epoch) {
        Ok(log) => log,
        Err(refusal) => return send_error(writer, refusal),
    };
    let lease = log.lease_grant(from);
    let lease_ms = log.lease_ttl().as_millis().min(u128::from(u32::MAX)) as u32;
    let cut = |offset| match log.wait_segment(offset, MAX_SEGMENT_OPS, HEARTBEAT) {
        Ok(seg) => {
            let next = seg.start + seg.ops.len() as u64;
            let frame = SegmentFrame {
                fingerprint: log.fingerprint(),
                epoch: seg.epoch,
                start: seg.start,
                head: seg.head,
                lease_ms,
                ops: seg.ops,
            };
            Ok((Response::JournalSegment(frame), next))
        }
        Err(SegmentError::TooOld { oldest }) => Err(format!(
            "offset {offset} was compacted away (oldest retained is {oldest}); \
             re-bootstrap from a newer snapshot"
        )),
        Err(SegmentError::Ahead { head }) => {
            Err(format!("offset {offset} is ahead of the log head {head}"))
        }
    };
    let result = stream(writer, shutdown, from, cut, |offset| {
        log.lease_renew(lease, offset);
    });
    log.lease_release(lease);
    result
}

/// Streams audit records to a subscribed tailer until the connection
/// drops, shutdown fires, or the subscription is disqualified (engine
/// not audited, wrong version fingerprint, an offset evicted from the
/// ring or ahead of the head). Heartbeat (empty) segments flow while
/// the decision stream is idle so the tailer can watch liveness.
///
/// The subscription is registered on the sink for the duration of the
/// stream so `csp_audit_lag` reflects this reader's backlog.
fn stream_audit<W: Write>(
    writer: &mut W,
    engine: &ShardedEngine,
    shutdown: &ShutdownHandle,
    fingerprint: u32,
    from: u64,
) -> io::Result<()> {
    let Some(sink) = engine.audit() else {
        return send_error(
            writer,
            "this engine is not audited; start it with an audit log to tail decisions".to_string(),
        );
    };
    if fingerprint != sink.fingerprint() {
        return send_error(
            writer,
            format!(
                "audit fingerprint mismatch: got {fingerprint:#010X}, \
                 engine is {:#010X} (scheme/geometry/format differ)",
                sink.fingerprint()
            ),
        );
    }
    // `u64::MAX` means "tail from whatever the head is now".
    let from = if from == u64::MAX { sink.head() } else { from };
    let id = sink.subscribe();
    sink.advance(id, from);
    let cut = |offset| match sink.wait_records(offset, MAX_AUDIT_SEGMENT, HEARTBEAT) {
        Ok(batch) => {
            let next = batch.start + batch.records.len() as u64;
            let frame = wire::AuditFrame {
                fingerprint: sink.fingerprint(),
                epoch: sink.epoch(),
                start: batch.start,
                head: batch.head,
                records: batch.records,
            };
            Ok((Response::AuditSegment(frame), next))
        }
        Err(AuditStreamError::TooOld { oldest }) => Err(format!(
            "audit offset {offset} was evicted from the ring \
             (oldest retained is {oldest}); resubscribe from the head"
        )),
        Err(AuditStreamError::Ahead { head }) => Err(format!(
            "audit offset {offset} is ahead of the stream head {head}"
        )),
    };
    let result = stream(writer, shutdown, from, cut, |offset| {
        sink.advance(id, offset)
    });
    sink.unsubscribe(id);
    result
}

/// Computes the response to one request.
pub fn answer(engine: &ShardedEngine, request: Request) -> Response {
    match request {
        Request::Ping => Response::Pong,
        Request::Predict(probe) => Response::Prediction(engine.predict(&probe)),
        Request::PredictBatch(probes) => Response::PredictionBatch(engine.predict_batch(&probes)),
        Request::Stats => Response::Stats(StatsReply::from_snapshot(
            &engine.scheme().to_string(),
            engine.nodes(),
            engine.shard_count(),
            csp_core::version_fingerprint(engine.scheme(), engine.nodes()),
            &engine.stats(),
        )),
        Request::Metrics => Response::Metrics(metrics_text(engine)),
        Request::Ingest {
            fingerprint,
            epoch,
            ops,
        } => ingest(engine, fingerprint, epoch, &engine.pipeline().encode(&ops)),
        // Subscribe is intercepted by `serve_connection` before `answer`;
        // reaching it here means a direct caller asked for a stream a
        // single response cannot carry.
        Request::Subscribe { .. } => Response::Error(
            "subscribe requires a streaming connection; use a follower client".to_string(),
        ),
        // Same interception story as Subscribe.
        Request::AuditSubscribe { .. } => Response::Error(
            "audit subscribe requires a streaming connection; use `csp-served audit tail`"
                .to_string(),
        ),
        Request::Promote {
            fingerprint,
            min_epoch,
        } => match replication::promote(engine, fingerprint, min_epoch) {
            Ok((epoch, head)) => Response::Promoted { epoch, head },
            Err(msg) => Response::Error(msg),
        },
    }
}

/// The reply to an `Ingest` of `batch` claiming `fingerprint` and term
/// `epoch`: a foreign fingerprint is refused before anything is
/// journaled, and the admission's refusals map to error frames.
pub(crate) fn ingest(
    engine: &ShardedEngine,
    fingerprint: u32,
    epoch: u64,
    batch: &Journaled<'_>,
) -> Response {
    let expected = replication::fingerprint(engine.scheme(), engine.nodes());
    if fingerprint != expected {
        return Response::Error(format!(
            "ingest fingerprint mismatch: got {fingerprint:#010X}, \
             engine is {expected:#010X} (scheme/width/revision differ)"
        ));
    }
    match engine.ingest_journaled(epoch, batch) {
        Ok(head) => Response::IngestAck { head },
        Err(e @ ServeError::Fenced { .. }) => Response::Error(e.to_string()),
        Err(ServeError::Replication { detail }) => Response::Error(detail),
        Err(e) => Response::Error(format!("ingest journal write failed: {e}")),
    }
}

/// Encodes the engine registry for the wire, truncating at a line
/// boundary in the (pathological) case where the scrape outgrows the
/// frame limit — a short scrape beats a dropped connection.
fn metrics_text(engine: &ShardedEngine) -> String {
    let mut text = engine.registry().encode_prometheus();
    let limit = wire::MAX_PAYLOAD - 16; // type byte + length header + slack
    if text.len() > limit {
        let cut = text[..limit].rfind('\n').map_or(0, |i| i + 1);
        text.truncate(cut);
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::AuditSink;
    use crate::{Client, Probe};
    use csp_trace::{LineAddr, NodeId, Pc, SharingBitmap, SharingEvent};
    use std::sync::atomic::AtomicU64;

    fn engine() -> Arc<ShardedEngine> {
        let engine = ShardedEngine::new("last(pid)1[direct]".parse().unwrap(), 16, 2);
        for pid in 0..16u8 {
            engine.ingest_event(&SharingEvent::new(
                NodeId(pid),
                Pc(0),
                LineAddr(0),
                NodeId(0),
                SharingBitmap::singleton(NodeId(15 - pid)),
                Some((NodeId(pid), Pc(0))),
            ));
        }
        engine.flush();
        Arc::new(engine)
    }

    fn probe(pid: u8) -> Probe {
        Probe::new(NodeId(pid), Pc(0), NodeId(0), LineAddr(0))
    }

    /// A follower engine with an in-memory replication log (epoch 1) and
    /// a ring-only audit sink, plus its replication fingerprint.
    fn follower() -> (Arc<ShardedEngine>, Arc<AuditSink>, u32) {
        let engine = Arc::new(ShardedEngine::new(
            "last(pid)1[direct]".parse().unwrap(),
            16,
            2,
        ));
        let fp = replication::fingerprint(engine.scheme(), engine.nodes());
        replication::bring_up(&engine, replication::Role::Follower, None, None, None).unwrap();
        let sink = Arc::new(AuditSink::in_memory(engine.scheme(), 16, 2, 1));
        engine.attach_audit(Arc::clone(&sink)).unwrap();
        (engine, sink, fp)
    }

    fn serve(server: Server) -> Client {
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || server.run());
        Client::connect_tcp(addr).unwrap()
    }

    #[test]
    fn promote_refuses_an_unreplicated_engine() {
        let engine = engine();
        let fp = replication::fingerprint(engine.scheme(), engine.nodes());
        let mut client = serve(Server::bind_tcp("127.0.0.1:0", engine).unwrap());
        let err = client.promote(fp, 0).unwrap_err();
        assert!(err.to_string().contains("not replicated"), "got: {err}");
    }

    #[test]
    fn promote_with_a_foreign_fingerprint_keeps_the_epoch() {
        let (engine, _, fp) = follower();
        let mut client = serve(Server::bind_tcp("127.0.0.1:0", Arc::clone(&engine)).unwrap());
        let err = client.promote(fp ^ 1, 9).unwrap_err();
        assert!(
            err.to_string().contains("fingerprint mismatch"),
            "got: {err}"
        );
        assert_eq!(engine.replication().unwrap().epoch(), 1);
        let op = replication::ReplOp::Update {
            key: 3,
            feedback: SharingBitmap::singleton(NodeId(1)),
        };
        assert!(
            client.ingest(fp, &[op]).is_err(),
            "still a read-only follower"
        );
    }

    #[test]
    fn promote_makes_a_follower_a_writable_leader_under_a_new_epoch() {
        let (engine, sink, fp) = follower();
        let noticed = Arc::new(AtomicU64::new(0));
        let notice = Arc::clone(&noticed);
        engine.on_promote(Arc::new(move |epoch| notice.store(epoch, Ordering::SeqCst)));
        let server = Server::bind_tcp("127.0.0.1:0", Arc::clone(&engine)).unwrap();
        let mut client = serve(server);
        let op = replication::ReplOp::Update {
            key: 3,
            feedback: SharingBitmap::singleton(NodeId(1)),
        };
        assert!(client.ingest(fp, &[op]).is_err(), "a follower is read-only");

        // Adopting an upstream term stamps the audit sink before the
        // segment's decisions are dispatched.
        let log = Arc::clone(engine.replication().unwrap());
        assert_eq!(sink.epoch(), log.epoch());
        let score = replication::ReplOp::Score {
            key: 3,
            actual: SharingBitmap::singleton(NodeId(2)),
        };
        let applied = engine.apply_upstream(3, &[score; 4]).unwrap();
        engine.flush();
        assert_eq!((log.epoch(), sink.epoch()), (3, 3));
        let records = sink.wait_records(0, 16, Duration::ZERO).unwrap().records;
        assert_eq!(records.len(), 4);
        assert!(records.iter().all(|r| r.epoch == 3), "{records:?}");
        assert!(
            matches!(
                engine.apply_upstream(2, &[score]),
                Err(ServeError::Fenced { .. })
            ),
            "a deposed upstream's segment is fenced"
        );
        assert_eq!(log.head(), applied);

        let (epoch, head) = client.promote(fp, 5).unwrap();
        assert!(epoch >= 5, "epoch {epoch} is below the requested minimum");
        assert_eq!(head, engine.replication().unwrap().head());
        assert_eq!(noticed.load(Ordering::SeqCst), epoch);
        assert_eq!(sink.epoch(), epoch);
        assert_eq!(client.ingest_at_epoch(fp, epoch, &[op]).unwrap(), head + 1);
        assert!(
            engine.apply_upstream(epoch, &[score]).is_err(),
            "a leader applies no upstream segments"
        );
    }

    #[test]
    fn tcp_round_trip_single_batch_and_stats() {
        let server = Server::bind_tcp("127.0.0.1:0", engine()).unwrap();
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || server.run());

        let mut client = Client::connect_tcp(addr).unwrap();
        client.ping().unwrap();
        assert_eq!(
            client.predict(&probe(3)).unwrap(),
            SharingBitmap::singleton(NodeId(12))
        );
        let batch: Vec<Probe> = (0..16).map(probe).collect();
        let preds = client.predict_batch(&batch).unwrap();
        for (pid, pred) in preds.iter().enumerate() {
            assert_eq!(*pred, SharingBitmap::singleton(NodeId(15 - pid as u8)));
        }
        let stats = client.stats().unwrap();
        assert_eq!(stats.scheme, "last(pid)[direct]");
        assert_eq!(stats.nodes, 16);
        assert_eq!(stats.shards, 2);
        assert_eq!(stats.updates, 16);
        assert_eq!(stats.restarts, 0);
        assert!(stats.queries >= 17); // 1 single + 16 batch
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_round_trip() {
        let path =
            std::env::temp_dir().join(format!("csp-served-test-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let server = Server::bind_unix(&path, engine()).unwrap();
        let server_path = path.clone();
        std::thread::spawn(move || server.run());

        let mut client = Client::connect_unix(&server_path).unwrap();
        client.ping().unwrap();
        assert_eq!(
            client.predict(&probe(0)).unwrap(),
            SharingBitmap::singleton(NodeId(15))
        );
        let _ = std::fs::remove_file(&path);
    }

    /// Keeps the bytes written to it and counts the `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Serves `input` as one connection's whole inbound stream, through
    /// connection-sized buffers, and returns what reached the socket.
    fn serve_bytes(engine: &ShardedEngine, input: &[u8]) -> CountingWriter {
        let mut writer = BufWriter::with_capacity(CONNECTION_BUFFER, CountingWriter::default());
        serve_connection(
            BufReader::with_capacity(CONNECTION_BUFFER, input),
            &mut writer,
            engine,
            &ServerOptions::default(),
            &ShutdownHandle::new(),
        )
        .unwrap();
        writer.into_inner().map_err(|e| e.into_error()).unwrap()
    }

    fn flushes(engine: &ShardedEngine) -> u64 {
        engine
            .registry()
            .counter("csp_wire_flushes_total", "", &[])
            .get()
    }

    #[test]
    fn pipelined_requests_are_answered_in_order_with_one_write() {
        let batch: Vec<Probe> = (0..16).map(probe).collect();
        let requests = [
            Request::Ping,
            Request::Stats,
            Request::PredictBatch(batch.clone()),
            Request::Stats,
            Request::Ping,
            Request::PredictBatch(batch[..5].to_vec()),
        ];
        let frames: Vec<Vec<u8>> = requests
            .iter()
            .map(|r| {
                let mut frame = Vec::new();
                wire::write_request(&mut frame, r).unwrap();
                frame
            })
            .collect();

        // One request per connection, in order, to one engine.
        let alone_engine = engine();
        let mut alone = Vec::new();
        for frame in &frames {
            let out = serve_bytes(&alone_engine, frame);
            assert_eq!(out.writes, 1);
            alone.extend(out.bytes);
        }
        assert_eq!(flushes(&alone_engine), frames.len() as u64);

        // All of them buffered at once on one connection to a fresh
        // engine: the same bytes, in one write.
        let pipelined_engine = engine();
        let out = serve_bytes(&pipelined_engine, &frames.concat());
        assert_eq!(out.bytes, alone, "pipelined replies differ from lone ones");
        assert_eq!(out.writes, 1, "a buffered burst takes one write");
        assert_eq!(flushes(&pipelined_engine), 1);

        let mut replies = out.bytes.as_slice();
        let mut next = || wire::read_response(&mut replies).unwrap();
        assert_eq!(next(), Response::Pong);
        assert!(matches!(next(), Response::Stats(s) if s.queries == 0));
        assert!(matches!(next(), Response::PredictionBatch(p) if p.len() == 16));
        assert!(matches!(next(), Response::Stats(s) if s.queries == 16));
        assert_eq!(next(), Response::Pong);
        assert!(matches!(next(), Response::PredictionBatch(p) if p.len() == 5));
        assert!(replies.is_empty());
    }

    #[test]
    fn pipelined_partial_frame_does_not_withhold_the_previous_reply() {
        let read_deadline = Duration::from_secs(2);
        let server = Server::bind_tcp("127.0.0.1:0", engine())
            .unwrap()
            .with_options(ServerOptions {
                read_timeout: Some(read_deadline),
                ..ServerOptions::default()
            });
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || server.run());

        let stream = std::net::TcpStream::connect(addr).unwrap();
        // Well inside the server's deadline: a reply held back until the
        // server gives up on the stalled frame arrives too late.
        stream.set_read_timeout(Some(read_deadline / 2)).unwrap();
        let mut reader = BufReader::new(&stream);
        let mut ping = Vec::new();
        wire::write_request(&mut ping, &Request::Ping).unwrap();
        let mut batch = Vec::new();
        let probes: Vec<Probe> = (0..16).map(probe).collect();
        wire::write_request(&mut batch, &Request::PredictBatch(probes)).unwrap();
        let (head, tail) = batch.split_at(batch.len() / 2);

        (&stream).write_all(&[&ping[..], head].concat()).unwrap();
        let reply = wire::read_response(&mut reader)
            .unwrap_or_else(|e| panic!("the Ping reply was withheld: {e}"));
        assert_eq!(reply, Response::Pong);
        (&stream).write_all(tail).unwrap();
        match wire::read_response(&mut reader).unwrap() {
            Response::PredictionBatch(preds) => {
                for (pid, pred) in preds.iter().enumerate() {
                    assert_eq!(*pred, SharingBitmap::singleton(NodeId(15 - pid as u8)));
                }
                assert_eq!(preds.len(), 16);
            }
            other => panic!("expected the batch reply, got {other:?}"),
        }
    }

    #[test]
    fn pipelined_replies_go_out_before_a_subscription_stream() {
        let (engine, _, fp) = follower();
        let server = Server::bind_tcp("127.0.0.1:0", engine).unwrap();
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || server.run());

        let stream = std::net::TcpStream::connect(addr).unwrap();
        // Sooner than the idle log's first heartbeat: a Pong held back
        // until the stream's first write arrives too late.
        stream.set_read_timeout(Some(HEARTBEAT / 2)).unwrap();
        let mut burst = Vec::new();
        wire::write_request(&mut burst, &Request::Ping).unwrap();
        let subscribe = Request::Subscribe {
            fingerprint: fp,
            epoch: 1,
            from: 0,
        };
        wire::write_request(&mut burst, &subscribe).unwrap();
        (&stream).write_all(&burst).unwrap();
        let mut reader = BufReader::new(&stream);
        let reply = wire::read_response(&mut reader)
            .unwrap_or_else(|e| panic!("the Ping reply waited for the stream: {e}"));
        assert_eq!(reply, Response::Pong);
        stream.set_read_timeout(Some(HEARTBEAT * 4)).unwrap();
        match wire::read_response(&mut reader).unwrap() {
            Response::JournalSegment(seg) => assert!(seg.ops.is_empty()),
            other => panic!("expected a heartbeat segment, got {other:?}"),
        }
    }

    #[test]
    fn malformed_request_gets_error_and_connection_survives() {
        let server = Server::bind_tcp("127.0.0.1:0", engine()).unwrap();
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || server.run());

        let stream = std::net::TcpStream::connect(addr).unwrap();
        let mut writer = BufWriter::new(&stream);
        let mut reader = BufReader::new(&stream);
        // A well-framed but unknown request type.
        wire::write_frame(&mut writer, &[0x7E, 1, 2]).unwrap();
        writer.flush().unwrap();
        let resp = wire::read_response(&mut reader).unwrap();
        assert!(matches!(resp, Response::Error(_)), "got {resp:?}");
        // The connection still answers real requests.
        wire::write_request(&mut writer, &Request::Ping).unwrap();
        writer.flush().unwrap();
        assert_eq!(wire::read_response(&mut reader).unwrap(), Response::Pong);
    }

    #[test]
    fn error_budget_disconnects_persistent_offenders() {
        let server = Server::bind_tcp("127.0.0.1:0", engine())
            .unwrap()
            .with_options(ServerOptions {
                error_budget: 2,
                ..ServerOptions::default()
            });
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || server.run());

        let stream = std::net::TcpStream::connect(addr).unwrap();
        let mut writer = BufWriter::new(&stream);
        let mut reader = BufReader::new(&stream);
        // Three malformed frames: errors 1 and 2 fit the budget, the
        // third overflows it.
        for _ in 0..3 {
            wire::write_frame(&mut writer, &[0x7E]).unwrap();
            writer.flush().unwrap();
            let resp = wire::read_response(&mut reader).unwrap();
            assert!(matches!(resp, Response::Error(_)), "got {resp:?}");
        }
        // The final typed frame announces the disconnect...
        match wire::read_response(&mut reader).unwrap() {
            Response::Error(msg) => assert!(msg.contains("budget"), "got: {msg}"),
            other => panic!("expected the budget error, got {other:?}"),
        }
        // ...and then the server hangs up.
        assert!(wire::read_frame(&mut reader).unwrap().is_none());
    }

    #[test]
    fn oversized_length_prefix_draws_error_and_disconnect() {
        let server = Server::bind_tcp("127.0.0.1:0", engine()).unwrap();
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || server.run());

        let stream = std::net::TcpStream::connect(addr).unwrap();
        let mut writer = BufWriter::new(&stream);
        let mut reader = BufReader::new(&stream);
        writer.write_all(&u32::MAX.to_le_bytes()).unwrap();
        writer.flush().unwrap();
        match wire::read_response(&mut reader).unwrap() {
            Response::Error(msg) => assert!(msg.contains("limit"), "got: {msg}"),
            other => panic!("expected an error frame, got {other:?}"),
        }
        assert!(wire::read_frame(&mut reader).unwrap().is_none());
    }

    #[test]
    fn corrupt_checksum_gets_typed_error_and_connection_survives() {
        let server = Server::bind_tcp("127.0.0.1:0", engine()).unwrap();
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || server.run());

        let stream = std::net::TcpStream::connect(addr).unwrap();
        let mut writer = BufWriter::new(&stream);
        let mut reader = BufReader::new(&stream);
        let mut frame = Vec::new();
        wire::write_request(&mut frame, &Request::Ping).unwrap();
        *frame.last_mut().unwrap() ^= 0xFF; // corrupt the CRC
        writer.write_all(&frame).unwrap();
        writer.flush().unwrap();
        match wire::read_response(&mut reader).unwrap() {
            Response::Error(msg) => assert!(msg.contains("checksum"), "got: {msg}"),
            other => panic!("expected an error frame, got {other:?}"),
        }
        // Framing was never lost: the connection still works.
        wire::write_request(&mut writer, &Request::Ping).unwrap();
        writer.flush().unwrap();
        assert_eq!(wire::read_response(&mut reader).unwrap(), Response::Pong);
    }

    #[test]
    fn slowloris_mid_frame_is_cut_by_the_read_deadline() {
        let server = Server::bind_tcp("127.0.0.1:0", engine())
            .unwrap()
            .with_options(ServerOptions {
                read_timeout: Some(Duration::from_millis(100)),
                ..ServerOptions::default()
            });
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || server.run());

        let stream = std::net::TcpStream::connect(addr).unwrap();
        let mut writer = BufWriter::new(&stream);
        let mut reader = BufReader::new(&stream);
        // Start a frame and stall: two bytes of the length prefix, then
        // silence.
        writer.write_all(&[4, 0]).unwrap();
        writer.flush().unwrap();
        match wire::read_response(&mut reader).unwrap() {
            Response::Error(msg) => assert!(msg.contains("deadline"), "got: {msg}"),
            other => panic!("expected the deadline error, got {other:?}"),
        }
        assert!(wire::read_frame(&mut reader).unwrap().is_none());
    }

    #[test]
    fn idle_connection_outlives_the_read_deadline() {
        let server = Server::bind_tcp("127.0.0.1:0", engine())
            .unwrap()
            .with_options(ServerOptions {
                read_timeout: Some(Duration::from_millis(50)),
                ..ServerOptions::default()
            });
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || server.run());

        let mut client = Client::connect_tcp(addr).unwrap();
        client.ping().unwrap();
        // Several deadline periods of silence, then another request: the
        // connection must still be there.
        std::thread::sleep(Duration::from_millis(200));
        client.ping().unwrap();
    }

    #[test]
    fn graceful_shutdown_drains_and_returns() {
        let server = Server::bind_tcp("127.0.0.1:0", engine())
            .unwrap()
            .with_options(ServerOptions {
                read_timeout: Some(Duration::from_millis(25)),
                ..ServerOptions::default()
            });
        let addr = server.local_addr().unwrap();
        let handle = server.shutdown_handle();
        let join = std::thread::spawn(move || server.run());

        let mut client = Client::connect_tcp(addr).unwrap();
        client.ping().unwrap();
        handle.shutdown();
        let result = join.join().expect("server thread");
        assert!(result.is_ok(), "graceful shutdown errored: {result:?}");
        // The listener is gone: new connections fail or are never served.
        let refused = std::net::TcpStream::connect(addr)
            .map(|s| {
                let mut r = BufReader::new(&s);
                let mut w = BufWriter::new(&s);
                wire::write_request(&mut w, &Request::Ping)
                    .and_then(|()| w.flush())
                    .and_then(|()| wire::read_response(&mut r))
                    .is_err()
            })
            .unwrap_or(true);
        assert!(refused, "server still answering after shutdown");
    }
}
