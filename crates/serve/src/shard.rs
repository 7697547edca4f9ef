//! The sharded predictor engine: one worker thread per shard, each the
//! only writer of its [`PredictorTable`] partition. Queries are answered
//! on the caller's thread, in place, under that shard's read lock; no
//! lock spans shards.
//!
//! # Why sharding is exact
//!
//! A predictor entry's state depends only on the *ordered sequence of
//! updates to its own key* — entries never interact. The dispatcher routes
//! every update and score to the shard [`shard_of_key`] names, appending
//! to that shard's FIFO inbox in global emission order. Restricted to one
//! key, the shard's inbox order is therefore exactly the sequential
//! engine's order, so each entry moves through the same states it would
//! in one global table. Screening counters are integers and merge by
//! addition, which commutes — the merged totals are bit-identical to a
//! sequential run no matter how keys spread over shards. This holds for
//! *forwarded* update too: the `update(fkey)` and the `score(key)` of one
//! event may land on different shards, but each touches only its own
//! key's entry, and each shard sees its share of operations in emission
//! order.
//!
//! A query reads the same shard's table, and first waits until that
//! shard has finished every message sent to it before the query began,
//! so a caller always reads its own acknowledged writes.
//!
//! The one thing sharding reorders is *wall-clock interleaving across
//! keys*, which no per-key state can observe.
//!
//! # Supervision
//!
//! A worker never dies from a poisoned operation. Each worker keeps a
//! *checkpoint* (a clone of its state) plus a journal of the operations
//! applied since; a batch that panics is rolled back by restoring the
//! checkpoint, replaying the journal, and re-applying the batch one
//! operation at a time with the poison skipped — all under the write
//! lock, so no query sees the half-applied batch. The worker's counters
//! are published as *absolute* values after every message (see
//! [`csp_metrics::OnlineConfusion::store`]), so a recovery recomputes
//! them instead of double-counting. Restart totals surface as
//! [`ShardRestart`] entries in [`EngineSnapshot`].

use crate::audit::AuditSink;
use crate::pipeline::Pipeline;
use crate::replication::{ReplOp, ReplicationLog, Role};
use crate::{error::ServeError, Probe};
use csp_core::{node_bits, shard_of_key, PredictorTable, PreparedTrace, Scheme, UpdateMode};
use csp_metrics::{ConfusionMatrix, OnlineConfusion, Screening};
use csp_obs::{Gauge, Histogram, Registry};
use csp_trace::audit::{sample_mix, AuditRecord};
use csp_trace::{SharingBitmap, SharingEvent, Trace};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender};
use std::sync::{Arc, RwLock, RwLockReadGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// Operations batched into a shard's inbox by the ingest path.
#[derive(Clone, Copy, Debug)]
pub enum IngestOp {
    /// Deliver a feedback bitmap to `key`'s entry.
    Update {
        /// The predictor index key to train.
        key: u64,
        /// The invalidation feedback to shift in.
        feedback: SharingBitmap,
    },
    /// Predict through `key`'s entry and score the prediction against
    /// `actual` in the shard's live confusion counters.
    Score {
        /// The predictor index key to consult.
        key: u64,
        /// The ground-truth reader bitmap for this decision.
        actual: SharingBitmap,
    },
    /// Test-only: panics the applying worker, exercising supervision.
    /// Routed to the shard owning `key`; never affects table state (a
    /// supervised recovery skips it).
    #[doc(hidden)]
    Poison {
        /// Routing key (picks which shard's worker panics).
        key: u64,
    },
}

impl IngestOp {
    /// The key that routes this operation to its shard.
    pub(crate) fn route_key(&self) -> u64 {
        match *self {
            IngestOp::Update { key, .. } | IngestOp::Score { key, .. } => key,
            IngestOp::Poison { key } => key,
        }
    }
}

/// Messages a shard worker consumes.
enum ShardMsg {
    /// A batch of in-order ingest operations.
    Ingest(Vec<IngestOp>),
    /// A barrier: the reply proves every earlier message on this inbox
    /// has been applied.
    Barrier(Sender<()>),
    /// Clone the worker's full state and reply with it. In-band, so the
    /// captured state reflects exactly the messages sent before it on
    /// this shard's inbox. Doubles as the worker's recovery checkpoint.
    Snapshot { reply: Sender<ShardState> },
    /// Start a new session: replace the state, the recovery checkpoint
    /// and the journal. In-band, so FIFO inbox order guarantees no
    /// operation sent before it leaks into the new session, and none sent
    /// after it lands in the old one.
    Reset(Box<ShardState>),
}

/// Point-in-time state of one shard: its table partition plus its share
/// of the engine counters. The unit of durable snapshots
/// (see [`crate::snapshot`]) and of supervised restarts.
#[derive(Clone, Debug)]
pub struct ShardState {
    /// This shard's predictor table partition.
    pub table: PredictorTable,
    /// Screening counters over decisions scored on this shard.
    pub confusion: ConfusionMatrix,
    /// Update operations applied.
    pub updates: u64,
    /// Score operations applied.
    pub scored: u64,
    /// Query probes answered. Live, the count is
    /// [`ShardCounters::queries`], which the answering callers add to;
    /// a captured state ([`ShardedEngine::snapshot_state`]) carries its
    /// value, and a restored engine starts the counter from it.
    pub queries: u64,
    /// Supervised worker restarts so far.
    pub restarts: u64,
}

impl ShardState {
    /// A fresh, empty shard for `scheme` on an `nodes`-node machine.
    pub fn empty(scheme: &Scheme, nodes: usize) -> Self {
        ShardState {
            table: PredictorTable::new(scheme, nodes),
            confusion: ConfusionMatrix::default(),
            updates: 0,
            scored: 0,
            queries: 0,
            restarts: 0,
        }
    }
}

/// Per-shard live counters, shared lock-free between the worker (writer),
/// the query callers (which add to `queries`) and monitoring readers.
#[derive(Debug, Default)]
pub struct ShardCounters {
    /// Screening counters over every scored decision on this shard.
    pub confusion: OnlineConfusion,
    /// Update operations applied.
    pub updates: AtomicU64,
    /// Score operations applied (replay decisions).
    pub scored: AtomicU64,
    /// Query probes answered (serving decisions; not scored).
    pub queries: AtomicU64,
    /// Predictor entries currently allocated on this shard.
    pub entries: AtomicU64,
    /// Supervised worker restarts (panics recovered in place).
    pub restarts: AtomicU64,
}

/// One shard's supervised-recovery total, surfaced in
/// [`EngineSnapshot::restarts`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardRestart {
    /// Which shard restarted.
    pub shard: usize,
    /// How many times its worker has recovered from a panic.
    pub count: u64,
}

/// A merged, point-in-time view of the whole engine's counters.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineSnapshot {
    /// Merged screening counters over all shards.
    pub confusion: ConfusionMatrix,
    /// Total update operations applied.
    pub updates: u64,
    /// Total scored (replay) decisions.
    pub scored: u64,
    /// Total serving probes answered.
    pub queries: u64,
    /// Total predictor entries allocated.
    pub entries: u64,
    /// Per-shard confusion matrices, in shard order.
    pub per_shard: Vec<ConfusionMatrix>,
    /// Shards that have recovered from worker panics (empty when the
    /// engine has never restarted a worker).
    pub restarts: Vec<ShardRestart>,
}

impl EngineSnapshot {
    /// Screening rates of the merged confusion counters.
    pub fn screening(&self) -> Screening {
        self.confusion.screening()
    }

    /// Total supervised restarts across all shards.
    pub fn total_restarts(&self) -> u64 {
        self.restarts.iter().map(|r| r.count).sum()
    }
}

struct ShardHandle {
    tx: SyncSender<ShardMsg>,
    shared: Arc<Shared>,
    counters: Arc<ShardCounters>,
    queue_depth: Arc<Gauge>,
    query_ns: Arc<Histogram>,
    join: Option<JoinHandle<()>>,
}

/// What a shard worker shares with the engine's callers: its state, which
/// the worker writes under the write lock for each inbox message and
/// queries read in place, and the progress counts that tell a query
/// whether the state already holds every message sent before it.
///
/// `sent` is bumped before a message enters the inbox, `done` (with
/// `Release`) after the worker drops the write guard for it. A query that
/// loads `done >= sent` (with `Acquire`) therefore takes its read lock
/// after the release of every message sent before it began.
struct Shared {
    state: RwLock<ShardState>,
    sent: AtomicU64,
    done: AtomicU64,
}

/// The instruments one shard records into: the worker its inbox and
/// batch series, the query callers `query_ns`. Registered on the engine
/// registry at spawn time (cold); recording is lock-free.
struct ShardInstruments {
    queue_depth: Arc<Gauge>,
    batch_size: Arc<Histogram>,
    batch_ns: Arc<Histogram>,
    query_ns: Arc<Histogram>,
}

impl ShardInstruments {
    /// Registers shard `i`'s instruments plus callback series that
    /// expose its [`ShardCounters`] — the counters the worker and the
    /// query callers already keep — so the scrape reads them with zero
    /// extra hot-path cost.
    fn register(registry: &Registry, i: usize, counters: &Arc<ShardCounters>) -> Self {
        let shard = i.to_string();
        let labels: &[(&str, &str)] = &[("shard", shard.as_str())];
        let poll = |f: fn(&ShardCounters) -> &AtomicU64| {
            let c = Arc::clone(counters);
            move || f(&c).load(Ordering::Relaxed)
        };
        registry.register_counter_fn(
            "csp_shard_updates_total",
            "Predictor update operations applied, per shard.",
            labels,
            poll(|c| &c.updates),
        );
        registry.register_counter_fn(
            "csp_shard_scored_total",
            "Replay decisions scored against ground truth, per shard.",
            labels,
            poll(|c| &c.scored),
        );
        registry.register_counter_fn(
            "csp_shard_queries_total",
            "Serving probes answered, per shard.",
            labels,
            poll(|c| &c.queries),
        );
        registry.register_counter_fn(
            "csp_shard_restarts_total",
            "Supervised worker restarts (panics recovered in place), per shard.",
            labels,
            poll(|c| &c.restarts),
        );
        {
            let c = Arc::clone(counters);
            registry.register_gauge_fn(
                "csp_shard_entries",
                "Predictor entries currently allocated, per shard.",
                labels,
                move || c.entries.load(Ordering::Relaxed) as i64,
            );
        }
        ShardInstruments {
            queue_depth: registry.gauge(
                "csp_shard_queue_depth",
                "Messages (write batches and barriers) waiting in the shard inbox.",
                labels,
            ),
            batch_size: registry.histogram(
                "csp_shard_batch_size",
                "Ingest operations per applied batch.",
                labels,
            ),
            batch_ns: registry.histogram(
                "csp_shard_batch_service_ns",
                "Wall time applying one ingest batch, in nanoseconds.",
                labels,
            ),
            query_ns: registry.histogram(
                "csp_shard_query_service_ns",
                "Per-probe service time under the shard's read lock, in nanoseconds (one observation per answered probe).",
                labels,
            ),
        }
    }
}

/// How many messages a shard inbox buffers before senders block
/// (backpressure: a slow shard throttles ingest instead of ballooning
/// memory).
const INBOX_DEPTH: usize = 64;

/// Events per replay chunk: each chunk becomes one ordered ingest batch
/// (and, on a replicating leader, one journal append of at most twice
/// this many operations).
const REPLAY_CHUNK: usize = 8192;

/// The exact operation stream [`ShardedEngine::replay_range`] dispatches
/// for events `range` of a prepared trace, in emission order, mirroring
/// the event-order definition of `csp_core::reference` exactly. Local
/// replay and the producer side of push-based ingest
/// ([`crate::replication::trace_to_ops`]) both derive their operations
/// here, from the same shared preparation, so a remote push and a local
/// replay cannot disagree.
///
/// # Panics
///
/// Panics if `range` is out of bounds for the prepared trace.
pub fn replay_ops(
    prepared: &PreparedTrace<'_>,
    scheme: &Scheme,
    range: Range<usize>,
) -> Vec<IngestOp> {
    assert!(range.end <= prepared.len(), "replay range out of bounds");
    let (keys, forward_keys) = prepared.event_keys(scheme.index, range.clone());
    let (has_prev, invalidated, actuals) = (
        prepared.has_prev(),
        prepared.invalidated(),
        prepared.actuals(),
    );
    let mut out = Vec::with_capacity((range.end.saturating_sub(range.start)) * 2);
    for (k, i) in range.enumerate() {
        let (key, actual, feedback) = (keys[k], actuals[i], invalidated[i]);
        let score = IngestOp::Score { key, actual };
        // Direct trains the writer's own entry before predicting,
        // forwarded the previous writer's; ordered predicts first, then
        // trains on the event's own readers.
        match scheme.update {
            UpdateMode::Direct if has_prev[i] => {
                out.extend([IngestOp::Update { key, feedback }, score]);
            }
            UpdateMode::Forwarded if has_prev[i] => {
                let key = forward_keys[k];
                out.extend([IngestOp::Update { key, feedback }, score]);
            }
            UpdateMode::Direct | UpdateMode::Forwarded => out.push(score),
            UpdateMode::Ordered => {
                let feedback = actual;
                out.extend([score, IngestOp::Update { key, feedback }]);
            }
        }
    }
    out
}

/// An online prediction engine partitioned over worker-thread shards.
///
/// Construction spawns the workers; [`shutdown`](ShardedEngine::shutdown)
/// (or drop) joins them. All methods take `&self` — the engine is shared
/// across server connection threads behind an [`Arc`].
///
/// # Example
///
/// ```
/// use csp_serve::{Probe, ShardedEngine};
/// use csp_trace::{LineAddr, NodeId, Pc, SharingBitmap, SharingEvent, Trace};
///
/// let mut trace = Trace::new(16);
/// let readers = SharingBitmap::from_nodes(&[NodeId(1), NodeId(2)]);
/// for i in 0..50 {
///     let (inv, prev) = if i == 0 {
///         (SharingBitmap::empty(), None)
///     } else {
///         (readers, Some((NodeId(0), Pc(7))))
///     };
///     trace.push(SharingEvent::new(NodeId(0), Pc(7), LineAddr(3), NodeId(1), inv, prev));
/// }
/// trace.set_final_readers(LineAddr(3), readers);
///
/// let engine = ShardedEngine::new("last(pid+pc8)1[direct]".parse().unwrap(), 16, 4);
/// engine.replay_trace(&trace).unwrap();
/// let probe = Probe::new(NodeId(0), Pc(7), NodeId(1), LineAddr(3));
/// assert_eq!(engine.predict(&probe), readers);
/// let stats = engine.stats();
/// assert!(stats.screening().pvp > 0.9);
/// ```
#[derive(Debug)]
pub struct ShardedEngine {
    scheme: Scheme,
    nodes: usize,
    node_bits: u32,
    shards: Vec<ShardHandle>,
    registry: Arc<Registry>,
    /// Role, term, replication log and audit sink: every mutation
    /// routes through it. Shared with the workers, which read its audit
    /// sink per batch, so one late attach is seen by all of them.
    pipeline: Arc<Pipeline>,
}

impl std::fmt::Debug for ShardHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardHandle").finish_non_exhaustive()
    }
}

impl ShardedEngine {
    /// Spawns `shards` worker threads for `scheme` on an `nodes`-node
    /// machine.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or a worker thread cannot be spawned.
    pub fn new(scheme: Scheme, nodes: usize, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        let states = (0..shards)
            .map(|_| ShardState::empty(&scheme, nodes))
            .collect();
        Self::spawn(scheme, nodes, states)
    }

    /// Resurrects an engine from previously captured shard states (e.g. a
    /// durable snapshot loaded by [`crate::snapshot::SnapshotStore`]).
    /// Workers start with the given tables and counter values, so the
    /// engine continues exactly where the states left off.
    ///
    /// # Errors
    ///
    /// [`ServeError::SnapshotMismatch`] when a state's table width does
    /// not match `nodes`, or `states` is empty.
    pub fn with_state(
        scheme: Scheme,
        nodes: usize,
        states: Vec<ShardState>,
    ) -> Result<Self, ServeError> {
        if states.is_empty() {
            return Err(ServeError::SnapshotMismatch {
                detail: "no shard states to restore".to_string(),
            });
        }
        for (i, s) in states.iter().enumerate() {
            if s.table.nodes() != nodes {
                return Err(ServeError::SnapshotMismatch {
                    detail: format!(
                        "shard {i} table is {}-node, engine is {nodes}-node",
                        s.table.nodes()
                    ),
                });
            }
        }
        Ok(Self::spawn(scheme, nodes, states))
    }

    fn spawn(scheme: Scheme, nodes: usize, states: Vec<ShardState>) -> Self {
        let registry = Arc::new(Registry::new());
        let pipeline = Arc::new(Pipeline::default());
        let shard_count = states.len();
        registry.register_gauge_fn(
            "csp_engine_shards",
            "Worker shards in this engine.",
            &[],
            move || shard_count as i64,
        );
        registry.register_gauge_fn(
            "csp_engine_nodes",
            "Machine width predictions are scored against.",
            &[],
            move || nodes as i64,
        );
        let handles = states
            .into_iter()
            .enumerate()
            .map(|(i, initial)| {
                let (tx, rx) = sync_channel(INBOX_DEPTH);
                let counters = Arc::new(ShardCounters::default());
                // Publish before the worker thread exists: a restored
                // engine's counters must be readable immediately, not
                // only after the OS happens to schedule each worker.
                publish(&counters, &initial);
                counters.queries.store(initial.queries, Ordering::Relaxed);
                let instruments = ShardInstruments::register(&registry, i, &counters);
                let queue_depth = Arc::clone(&instruments.queue_depth);
                let query_ns = Arc::clone(&instruments.query_ns);
                let shared = Arc::new(Shared {
                    state: RwLock::new(initial),
                    sent: AtomicU64::new(0),
                    done: AtomicU64::new(0),
                });
                let worker_shared = Arc::clone(&shared);
                let worker_counters = Arc::clone(&counters);
                let worker_pipeline = Arc::clone(&pipeline);
                let join = std::thread::Builder::new()
                    .name(format!("csp-shard-{i}"))
                    .spawn(move || {
                        shard_worker(
                            i as u16,
                            nodes,
                            rx,
                            &worker_shared,
                            &worker_counters,
                            &instruments,
                            &worker_pipeline,
                        )
                    })
                    .expect("spawn shard worker");
                ShardHandle {
                    tx,
                    shared,
                    counters,
                    queue_depth,
                    query_ns,
                    join: Some(join),
                }
            })
            .collect();
        ShardedEngine {
            scheme,
            nodes,
            node_bits: node_bits(nodes),
            shards: handles,
            registry,
            pipeline,
        }
    }

    /// The scheme the engine serves.
    pub fn scheme(&self) -> &Scheme {
        &self.scheme
    }

    /// The machine width predictions are scored against.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The engine's metrics registry: per-shard queue-depth gauges,
    /// batch/query service-time histograms, and callback counters over
    /// the live [`ShardCounters`]. Per-engine (not global) so tests and
    /// co-hosted engines never share series; callers hang their own
    /// instruments here too (the wire server, the snapshot store), which
    /// is what makes one `csp-served metrics` scrape cover the whole
    /// process.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The predictor key a probe consults under the engine's scheme.
    pub fn key_of(&self, probe: &Probe) -> u64 {
        self.scheme.index.key(
            probe.writer,
            probe.pc,
            probe.home,
            probe.line,
            self.node_bits,
        )
    }

    fn send(&self, shard: usize, msg: ShardMsg) {
        // Counted before it can be applied, so a query that begins after
        // this call waits for the message (see [`Shared`]).
        self.shards[shard]
            .shared
            .sent
            .fetch_add(1, Ordering::SeqCst);
        // Depth counts messages between enqueue here and dequeue in the
        // worker, so a stalled shard shows up as a climbing gauge.
        self.shards[shard].queue_depth.add(1);
        // A send can only fail after a worker panicked, which tears down
        // the run anyway; surface it as the panic it is.
        if self.shards[shard].tx.send(msg).is_err() {
            panic!("shard {shard} worker terminated early");
        }
    }

    /// Streams one live event into the predictor (no scoring): the update
    /// half of the engine loop, for deployments that learn from a
    /// coherence feed while serving queries.
    ///
    /// `direct` trains the current writer's entry, `forwarded` the
    /// previous writer's (Figure 3 of the paper). `ordered` is the
    /// paper's unimplementable-in-hardware oracle — it needs the event's
    /// *future* readers, which a live stream cannot know — so it falls
    /// back to `direct` here; use [`replay_trace`](Self::replay_trace)
    /// for faithful ordered replay of a recorded trace.
    pub fn ingest_event(&self, event: &SharingEvent) {
        let op = match self.scheme.update {
            UpdateMode::Forwarded => {
                self.scheme
                    .index
                    .forward_key_of(event, self.node_bits)
                    .map(|key| IngestOp::Update {
                        key,
                        feedback: event.invalidated,
                    })
            }
            UpdateMode::Direct | UpdateMode::Ordered => {
                event.prev_writer.is_some().then(|| IngestOp::Update {
                    key: self.scheme.index.key_of(event, self.node_bits),
                    feedback: event.invalidated,
                })
            }
        };
        if let Some(op) = op {
            // Through ingest_ops so a replicating leader journals live
            // events exactly like replayed ones.
            self.ingest_ops(vec![op]);
        }
    }

    /// Routes a pre-built batch of raw operations to their shards, in
    /// order. The low-level ingest path behind
    /// [`ingest_event`](Self::ingest_event), exposed for callers that
    /// compute keys themselves (custom feeds, fault-injection tests).
    ///
    /// When a replication log is attached (see
    /// [`attach_replication`](Self::attach_replication)), the batch's
    /// replicable operations are journaled and the dispatch happens
    /// under the log lock, so followers observe the same total order.
    ///
    /// # Panics
    ///
    /// On a replicating engine, a journal write failure panics rather
    /// than dispatching unjournaled operations — continuing would
    /// silently diverge every follower.
    pub fn ingest_ops(&self, ops: Vec<IngestOp>) {
        self.pipeline.write(ops, |ops| self.dispatch_ops(ops));
    }

    /// Buckets `ops` per shard (preserving emission order within each
    /// shard's FIFO) and sends. The raw dispatch under every ingest path.
    fn dispatch_ops(&self, ops: Vec<IngestOp>) {
        let shards = self.shards.len();
        let mut buffers: Vec<Vec<IngestOp>> = vec![Vec::new(); shards];
        for op in ops {
            buffers[shard_of_key(op.route_key(), shards)].push(op);
        }
        for (s, batch) in buffers.into_iter().enumerate() {
            if !batch.is_empty() {
                self.send(s, ShardMsg::Ingest(batch));
            }
        }
    }

    /// The role, term and journal pipeline every mutation routes through.
    pub(crate) fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Attaches the replication log every subsequent mutation routes
    /// through, as a leader. Call once, before any traffic;
    /// [`crate::replication::bring_up`] is the full bring-up for either
    /// role.
    ///
    /// # Errors
    ///
    /// [`ServeError::Replication`] when a log is already attached.
    pub fn attach_replication(&self, log: Arc<ReplicationLog>) -> Result<(), ServeError> {
        self.pipeline.attach_log(log, Role::Leader)
    }

    /// The attached replication log, if any.
    pub fn replication(&self) -> Option<&Arc<ReplicationLog>> {
        self.pipeline.log()
    }

    /// Attaches the decision audit sink every subsequent scored decision
    /// is recorded through, stamped with the log's epoch. Call once,
    /// before any traffic: a log with gaps fails offline verification.
    ///
    /// # Errors
    ///
    /// [`ServeError::Audit`] when a sink is already attached.
    pub fn attach_audit(&self, sink: Arc<AuditSink>) -> Result<(), ServeError> {
        self.pipeline.attach_audit(sink)
    }

    /// The attached audit sink, if any.
    pub fn audit(&self) -> Option<&Arc<AuditSink>> {
        self.pipeline.audit()
    }

    /// Installs the notice each later promotion of this engine gives with
    /// its new epoch (see [`crate::replication::promote`]); the first
    /// one installed stays.
    pub fn on_promote(&self, notice: crate::replication::PromoteHook) {
        self.pipeline.on_promote(notice);
    }

    /// Admits operations sent under fencing term `epoch` (0: no claim)
    /// and returns the head after them: the ingest path behind
    /// [`crate::wire::Request::Ingest`]. With a log attached the head is
    /// the durable journal offset; without one, a running count.
    ///
    /// # Errors
    ///
    /// [`ServeError::Replication`] on a follower, [`ServeError::Fenced`]
    /// for an epoch below the log's term, or a journal write failure;
    /// the operations were applied nowhere.
    pub fn ingest_replicated(&self, epoch: u64, ops: &[ReplOp]) -> Result<u64, ServeError> {
        self.pipeline
            .admit(epoch, ops, |ops| self.dispatch_ops(ops))
    }

    /// Applies one upstream segment on a follower, adopting its term
    /// `epoch` when newer, and returns the head after it: the apply step
    /// of [`crate::replication::run_follower`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Fenced`] for a deposed upstream's epoch,
    /// [`ServeError::Replication`] unless the engine follows, or a
    /// journal failure.
    pub fn apply_upstream(&self, epoch: u64, ops: &[ReplOp]) -> Result<u64, ServeError> {
        self.pipeline
            .follow(epoch, ops, |ops| self.dispatch_ops(ops))
    }

    /// Replays a full recorded trace through the engine, updating *and
    /// scoring* every decision exactly as the reference evaluator
    /// (`csp_core::reference::run_scheme`) does — including the two-pass
    /// `ordered` oracle, whose ground truth the trace supplies.
    ///
    /// After this returns (it flushes internally), the engine's
    /// [`stats`](Self::stats) confusion counters are bit-identical to the
    /// reference's confusion matrix — see `tests/equivalence.rs`.
    ///
    /// # Errors
    ///
    /// [`ServeError::WidthMismatch`] when the trace's machine width
    /// differs from the engine's.
    pub fn replay_trace(&self, trace: &Trace) -> Result<(), ServeError> {
        self.replay_prepared(&PreparedTrace::new(trace))
    }

    /// [`replay_trace`](Self::replay_trace) over an already-prepared
    /// trace: the actuals and the keys come from the *same* shared
    /// preparation (`csp_core::PreparedTrace::event_keys` reads the tuple
    /// table the offline engine's key streams are built from), so online
    /// and offline replay cannot derive keys differently. A caller
    /// replaying one trace through several engines (or schemes) shares
    /// one preparation across all of them.
    ///
    /// # Errors
    ///
    /// [`ServeError::WidthMismatch`] when the trace's machine width
    /// differs from the engine's.
    pub fn replay_prepared(&self, prepared: &PreparedTrace<'_>) -> Result<(), ServeError> {
        self.replay_range(prepared, 0..prepared.len())
    }

    /// Replays only events `range` of a prepared trace, then flushes.
    ///
    /// The building block of crash-safe replay: a caller alternates
    /// `replay_range` chunks with [`snapshot_state`](Self::snapshot_state)
    /// calls, and because each chunk flushes before returning, every
    /// snapshot captures *exactly* the events replayed so far — an exact
    /// prefix cut, restorable to bit-identical state.
    ///
    /// # Errors
    ///
    /// [`ServeError::WidthMismatch`] when the trace's machine width
    /// differs from the engine's.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds for the prepared trace.
    pub fn replay_range(
        &self,
        prepared: &PreparedTrace<'_>,
        range: Range<usize>,
    ) -> Result<(), ServeError> {
        if prepared.nodes() != self.nodes {
            return Err(ServeError::WidthMismatch {
                trace_nodes: prepared.nodes(),
                engine_nodes: self.nodes,
            });
        }
        assert!(range.end <= prepared.len(), "replay range out of bounds");
        // Chunked so a replicating leader journals in bounded segments
        // and a plain engine bounds its in-flight batch memory; order is
        // the emission order either way.
        let mut pos = range.start;
        while pos < range.end {
            let end = range.end.min(pos + REPLAY_CHUNK);
            self.ingest_ops(replay_ops(prepared, &self.scheme, pos..end));
            pos = end;
        }
        self.flush();
        Ok(())
    }

    /// Captures every shard's state, in shard order.
    ///
    /// The capture is *in-band*: each shard serves it from its inbox, so
    /// the state reflects exactly the operations sent to that shard
    /// before this call. With no concurrent senders (e.g. between
    /// [`replay_range`](Self::replay_range) chunks) the cut is an exact
    /// global prefix; with live traffic each shard's state is a valid
    /// per-shard prefix — restoring yields a correct (possibly slightly
    /// stale) engine. Serving a snapshot also refreshes the worker's
    /// recovery checkpoint.
    pub fn snapshot_state(&self) -> Vec<ShardState> {
        // One reply channel per shard keeps the result in shard order
        // regardless of which worker answers first.
        let pending: Vec<_> = (0..self.shards.len())
            .map(|s| {
                let (tx, rx) = std::sync::mpsc::channel();
                self.send(s, ShardMsg::Snapshot { reply: tx });
                rx
            })
            .collect();
        pending
            .into_iter()
            .enumerate()
            .map(|(s, rx)| {
                rx.recv()
                    .unwrap_or_else(|_| panic!("shard {s} worker terminated early"))
            })
            .collect()
    }

    /// Re-tasks the running workers with a fresh session for `scheme`,
    /// keeping the engine's width, shard count and threads: every shard's
    /// state, recovery checkpoint and journal are replaced in-band, so
    /// operations sent after this call see only the new session. The
    /// barometer uses it to replay many short cells through the one
    /// supervised worker without timing thread spawn and join.
    ///
    /// # Errors
    ///
    /// [`ServeError::Replication`] or [`ServeError::Audit`] when a
    /// replication log or audit sink is attached: their journal-before-
    /// effect order cannot survive a session swap. The engine is left
    /// untouched and keeps serving.
    pub fn reset(&mut self, scheme: Scheme) -> Result<(), ServeError> {
        self.pipeline.ensure_detached()?;
        for s in 0..self.shards.len() {
            let fresh = Box::new(ShardState::empty(&scheme, self.nodes));
            self.send(s, ShardMsg::Reset(fresh));
        }
        self.scheme = scheme;
        Ok(())
    }

    /// Predicts the reader bitmap for one probe.
    pub fn predict(&self, probe: &Probe) -> SharingBitmap {
        self.predict_keys(&[self.key_of(probe)])[0]
    }

    /// Predicts a batch of probes, preserving input order.
    pub fn predict_batch(&self, probes: &[Probe]) -> Vec<SharingBitmap> {
        let keys: Vec<u64> = probes.iter().map(|p| self.key_of(p)).collect();
        self.predict_keys(&keys)
    }

    /// Predicts for raw predictor keys, preserving input order.
    ///
    /// Answered on the caller's thread: each shard's keys are looked up
    /// in place under its read lock, after the shard has applied every
    /// operation sent to it before this call.
    pub fn predict_keys(&self, keys: &[u64]) -> Vec<SharingBitmap> {
        let shards = self.shards.len();
        let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); shards];
        for (pos, &key) in keys.iter().enumerate() {
            per_shard[shard_of_key(key, shards)].push(pos);
        }
        let mut out = vec![SharingBitmap::empty(); keys.len()];
        for (s, positions) in per_shard.iter().enumerate() {
            if positions.is_empty() {
                continue;
            }
            let shard = &self.shards[s];
            let state = self.read_state(s);
            let started = Instant::now();
            for &pos in positions {
                out[pos] = state.table.predict(keys[pos]);
            }
            let elapsed = started.elapsed();
            drop(state);
            // One observation per answered probe, so the histogram count
            // tracks the queries counter exactly. Both are added before
            // returning: a caller that reads stats() next sees its own
            // queries counted.
            let answered = positions.len() as u64;
            shard
                .counters
                .queries
                .fetch_add(answered, Ordering::Relaxed);
            shard.query_ns.record_duration_n(elapsed, answered);
        }
        out
    }

    /// Shard `s`'s state under its read lock, once the worker has
    /// finished every message sent to it before this call. A shard that
    /// is behind is waited for with a barrier on its inbox alone.
    fn read_state(&self, s: usize) -> RwLockReadGuard<'_, ShardState> {
        let shared = &self.shards[s].shared;
        let sent = shared.sent.load(Ordering::SeqCst);
        if shared.done.load(Ordering::Acquire) < sent {
            self.barrier([s]);
        }
        shared
            .state
            .read()
            .unwrap_or_else(|_| panic!("shard {s} worker panicked while applying"))
    }

    /// Sends a barrier to each of `shards` and blocks until all have
    /// answered: every message sent to them earlier is then applied.
    fn barrier(&self, shards: impl IntoIterator<Item = usize>) {
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        let mut outstanding = 0usize;
        for s in shards {
            self.send(s, ShardMsg::Barrier(reply_tx.clone()));
            outstanding += 1;
        }
        for _ in 0..outstanding {
            reply_rx.recv().expect("shard worker terminated early");
        }
    }

    /// Blocks until every shard has applied all previously sent
    /// operations (a barrier round-trip per shard).
    pub fn flush(&self) {
        self.barrier(0..self.shards.len());
    }

    /// A live snapshot of the merged per-shard counters.
    ///
    /// Lock-free: reads the atomic counters without interrupting the
    /// workers. Call [`flush`](Self::flush) first when the snapshot must
    /// reflect everything already *sent* (e.g. after a replay); a
    /// caller's own answered queries are always counted.
    pub fn stats(&self) -> EngineSnapshot {
        let per_shard: Vec<ConfusionMatrix> = self
            .shards
            .iter()
            .map(|s| s.counters.confusion.snapshot())
            .collect();
        let confusion = csp_metrics::online::merge_snapshots(per_shard.iter().copied());
        let sum = |f: fn(&ShardCounters) -> &AtomicU64| {
            self.shards
                .iter()
                .map(|s| f(&s.counters).load(Ordering::Relaxed))
                .sum()
        };
        let restarts = self
            .shards
            .iter()
            .enumerate()
            .filter_map(|(shard, s)| {
                let count = s.counters.restarts.load(Ordering::Relaxed);
                (count > 0).then_some(ShardRestart { shard, count })
            })
            .collect();
        EngineSnapshot {
            confusion,
            updates: sum(|c| &c.updates),
            scored: sum(|c| &c.scored),
            queries: sum(|c| &c.queries),
            entries: sum(|c| &c.entries),
            per_shard,
            restarts,
        }
    }

    /// Drains the shards, joins the workers, and folds the shard tables
    /// into one global [`PredictorTable`] (e.g. for snapshot/restore or
    /// offline inspection).
    ///
    /// # Panics
    ///
    /// Panics if a shard worker panicked.
    pub fn shutdown(mut self) -> PredictorTable {
        let mut global = PredictorTable::new(&self.scheme, self.nodes);
        for shard in self.shards.drain(..) {
            drop(shard.tx); // close the inbox: the worker's recv loop ends
            if let Some(join) = shard.join {
                if join.join().is_err() {
                    panic!("shard worker panicked");
                }
            }
            // The joined worker dropped its handle, so this one is the last.
            let shared = Arc::into_inner(shard.shared).expect("shard worker joined");
            let state = shared.state.into_inner().expect("shard worker panicked");
            global.absorb(state.table);
        }
        global
    }
}

impl Drop for ShardedEngine {
    fn drop(&mut self) {
        for shard in self.shards.drain(..) {
            drop(shard.tx);
            if let Some(join) = shard.join {
                let _ = join.join();
            }
        }
    }
}

/// Journal length at which a worker rolls its recovery checkpoint
/// forward (clone the state, clear the journal). Bounds both recovery
/// time and journal memory.
const JOURNAL_CAP: usize = 1 << 16;

/// Applies one ingest operation to a shard's state. The only function a
/// supervised recovery has to re-run, so *all* state mutation funnels
/// through it. A scored decision returns `(key, predicted, actual)` —
/// the payload of an audit record — so the live emit path and the
/// offline verification twin observe decisions through the same code.
#[inline]
pub(crate) fn apply_op(
    state: &mut ShardState,
    op: IngestOp,
    nodes: usize,
) -> Option<(u64, SharingBitmap, SharingBitmap)> {
    match op {
        IngestOp::Update { key, feedback } => {
            state.table.update(key, feedback);
            state.updates += 1;
            None
        }
        IngestOp::Score { key, actual } => {
            let predicted = state.table.predict(key);
            state.confusion.record(predicted, actual, nodes);
            state.scored += 1;
            Some((key, predicted, actual))
        }
        IngestOp::Poison { .. } => panic!("injected poison op"),
    }
}

/// Per-batch snapshot of the audit emit parameters, hoisted out of the
/// per-op loop: the sampling threshold is fixed for the sink's lifetime,
/// and the fencing epoch is attested (not derived), so reading it once
/// per batch keeps records monotonic per shard — a promotion lands on
/// the next batch boundary.
#[derive(Clone, Copy)]
struct AuditEmit {
    keep_threshold: u64,
    epoch: u64,
}

impl AuditEmit {
    fn capture(sink: Option<&AuditSink>) -> Option<AuditEmit> {
        sink.map(|s| AuditEmit {
            keep_threshold: s.keep_threshold(),
            epoch: s.epoch(),
        })
    }
}

/// [`apply_op`] plus the audit emit path: captures the shard-local
/// decision index *before* applying, and buffers an [`AuditRecord`] for
/// every kept scored decision at or past `watermark` (decisions below it
/// were already appended — e.g. journal ops re-run during recovery, or
/// pre-snapshot history on a restored engine).
#[inline]
fn apply_op_audited(
    state: &mut ShardState,
    op: IngestOp,
    nodes: usize,
    shard: u16,
    emit: Option<AuditEmit>,
    watermark: u64,
    buf: &mut Vec<AuditRecord>,
) {
    let seq = state.scored;
    if let Some((key, predicted, actual)) = apply_op(state, op, nodes) {
        if let Some(emit) = emit {
            if seq >= watermark && sample_mix(key) <= emit.keep_threshold {
                buf.push(AuditRecord {
                    seq,
                    key,
                    predicted,
                    actual,
                    epoch: emit.epoch,
                    shard,
                });
            }
        }
    }
}

/// Publishes a worker's counters as absolute values. Absolute (not
/// incremental) publication is what makes supervised recovery exact:
/// after a restart the worker recomputes its counters from the
/// checkpoint and the replayed journal, and the next publish overwrites
/// any partially counted batch. `queries` is not the worker's: the query
/// callers add to it.
fn publish(counters: &ShardCounters, state: &ShardState) {
    counters.confusion.store(&state.confusion);
    counters.updates.store(state.updates, Ordering::Relaxed);
    counters.scored.store(state.scored, Ordering::Relaxed);
    counters
        .entries
        .store(state.table.entries_touched() as u64, Ordering::Relaxed);
    counters.restarts.store(state.restarts, Ordering::Relaxed);
}

/// The shard worker loop: the only writer of this shard's state, it
/// applies inbox messages in FIFO order, each under the write lock held
/// across apply, audit append and publish, and supervises itself — a
/// panic while applying a batch is recovered in place from the last
/// checkpoint plus the journal, with the poisonous operation skipped.
fn shard_worker(
    shard: u16,
    nodes: usize,
    rx: Receiver<ShardMsg>,
    shared: &Shared,
    counters: &ShardCounters,
    instruments: &ShardInstruments,
    pipeline: &Pipeline,
) {
    let write = || {
        shared
            .state
            .write()
            .expect("only this worker writes the state")
    };
    let mut checkpoint = write().clone();
    let mut journal: Vec<IngestOp> = Vec::new();
    // Decisions below the watermark are already in the audit log: on a
    // restored engine, everything before the snapshot; afterwards,
    // everything up to the last appended batch. Recovery replays recompute
    // seqs below it and are skipped; the failed batch re-emits exactly once.
    let mut audited: u64 = checkpoint.scored;
    let mut audit_buf: Vec<AuditRecord> = Vec::new();
    let mut audit_scratch: Vec<u8> = Vec::new();
    publish(counters, &checkpoint);
    while let Ok(msg) = rx.recv() {
        instruments.queue_depth.sub(1);
        let mut state = write();
        match msg {
            ShardMsg::Ingest(ops) => {
                let started = Instant::now();
                let sink = pipeline.audit().map(Arc::as_ref);
                let emit = AuditEmit::capture(sink);
                let apply = |state: &mut ShardState, op, buf: &mut Vec<AuditRecord>| {
                    apply_op_audited(state, op, nodes, shard, emit, audited, buf);
                };
                let healthy = catch_unwind(AssertUnwindSafe(|| {
                    for &op in &ops {
                        apply(&mut state, op, &mut audit_buf);
                    }
                }))
                .is_ok();
                instruments.batch_size.record(ops.len() as u64);
                if healthy {
                    journal.extend_from_slice(&ops);
                } else {
                    // The batch died partway through and may have left
                    // `state` inconsistent. Discard it: rebuild from the
                    // checkpoint, re-run the journal, then re-apply this
                    // batch one op at a time with the poison skipped.
                    // Buffered records are rebuilt too — the re-applied
                    // batch recomputes the same seqs past the watermark.
                    audit_buf.clear();
                    let restarts = state.restarts + 1;
                    *state = checkpoint.clone();
                    state.restarts = restarts;
                    for &op in &journal {
                        let _ = catch_unwind(AssertUnwindSafe(|| {
                            apply(&mut state, op, &mut audit_buf)
                        }));
                    }
                    for &op in &ops {
                        if catch_unwind(AssertUnwindSafe(|| apply(&mut state, op, &mut audit_buf)))
                            .is_ok()
                        {
                            journal.push(op);
                        }
                    }
                }
                if let Some(sink) = sink {
                    // Journal-before-effect: the records are framed and
                    // flushed before the counters below publish the
                    // batch, and before the write lock lets a query see
                    // it. A sink write failure must not let the engine
                    // keep deciding un-audited.
                    sink.append_buffered(&audit_buf, &mut audit_scratch)
                        .expect("audit log append failed");
                    audit_buf.clear();
                }
                // Track the watermark even with no sink attached, so a
                // sink attached late (against the "before traffic"
                // contract) never re-emits earlier decisions.
                audited = state.scored;
                if journal.len() >= JOURNAL_CAP {
                    checkpoint = state.clone();
                    journal.clear();
                }
                instruments.batch_ns.record_duration(started.elapsed());
            }
            ShardMsg::Barrier(reply) => {
                // A dropped reply receiver just means the waiter went away.
                let _ = reply.send(());
            }
            ShardMsg::Snapshot { reply } => {
                // The captured state doubles as the recovery checkpoint:
                // both need the same "known consistent point" clone. The
                // capture carries the live query count, which no message
                // orders against.
                checkpoint = state.clone();
                journal.clear();
                let mut captured = checkpoint.clone();
                captured.queries = counters.queries.load(Ordering::Relaxed);
                let _ = reply.send(captured);
            }
            ShardMsg::Reset(fresh) => {
                // A recovery must roll back to the new session, never
                // replay the old one's journal into it.
                *state = *fresh;
                checkpoint = state.clone();
                journal.clear();
                audited = state.scored;
                counters.queries.store(state.queries, Ordering::Relaxed);
            }
        }
        publish(counters, &state);
        drop(state);
        shared.done.fetch_add(1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_core::reference::run_scheme;
    use csp_trace::{LineAddr, NodeId, Pc};

    fn bm(nodes: &[u8]) -> SharingBitmap {
        nodes.iter().map(|&n| NodeId(n)).collect()
    }

    /// Alternating writers over several lines: exercises forwarded update
    /// across shard boundaries.
    fn busy_trace(events: usize) -> Trace {
        let mut t = Trace::new(16);
        let mut prev: Vec<Option<(NodeId, Pc)>> = vec![None; 8];
        for i in 0..events {
            let line = (i % 8) as u64;
            let writer = NodeId(((i / 8) % 4) as u8);
            let pc = Pc(100 + (i % 3) as u32);
            let inv = match prev[line as usize] {
                None => SharingBitmap::empty(),
                Some((w, _)) => bm(&[(w.index() as u8 + 5) % 16, (w.index() as u8 + 6) % 16]),
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
        for line in 0..8u64 {
            if let Some((w, _)) = prev[line as usize] {
                t.set_final_readers(LineAddr(line), bm(&[(w.index() as u8 + 5) % 16]));
            }
        }
        t
    }

    #[test]
    fn replay_matches_offline_engine_for_every_update_mode() {
        let trace = busy_trace(500);
        for spec in [
            "last(pid+pc8)1[direct]",
            "last(pid+pc8)1[forwarded]",
            "last(pid+pc8)1[ordered]",
            "union(pid+pc4+add4)2[forwarded]",
            "inter(dir+add8)3[direct]",
            "pas(pid+pc6)2[direct]",
        ] {
            let scheme: Scheme = spec.parse().unwrap();
            let offline = run_scheme(&trace, &scheme);
            for shards in [1, 3, 8] {
                let engine = ShardedEngine::new(scheme, trace.nodes(), shards);
                engine.replay_trace(&trace).unwrap();
                let snap = engine.stats();
                assert_eq!(snap.confusion, offline, "{spec} with {shards} shards");
                assert_eq!(snap.scored, trace.len() as u64);
            }
        }
    }

    #[test]
    fn shutdown_table_matches_offline_table_state() {
        let trace = busy_trace(300);
        let scheme: Scheme = "union(pid+pc8)2[direct]".parse().unwrap();
        let engine = ShardedEngine::new(scheme, trace.nodes(), 4);
        engine.replay_trace(&trace).unwrap();

        // Rebuild the offline table and compare predictions key by key.
        let nb = node_bits(trace.nodes());
        let mut offline = PredictorTable::new(&scheme, trace.nodes());
        for event in trace.events() {
            if event.prev_writer.is_some() {
                offline.update(scheme.index.key_of(event, nb), event.invalidated);
            }
        }
        let keys: Vec<u64> = trace
            .events()
            .iter()
            .map(|e| scheme.index.key_of(e, nb))
            .collect();
        let online_preds = engine.predict_keys(&keys);
        let merged = engine.shutdown();
        assert_eq!(merged.entries_touched(), offline.entries_touched());
        for (key, online) in keys.iter().zip(online_preds) {
            assert_eq!(offline.predict(*key), online, "key {key}");
            assert_eq!(merged.predict(*key), online, "merged key {key}");
        }
    }

    #[test]
    fn streaming_ingest_matches_update_only_sequential_run() {
        let trace = busy_trace(200);
        for spec in ["last(pid+pc8)1[direct]", "last(pid+pc8)1[forwarded]"] {
            let scheme: Scheme = spec.parse().unwrap();
            let engine = ShardedEngine::new(scheme, trace.nodes(), 4);
            let nb = node_bits(trace.nodes());
            let mut offline = PredictorTable::new(&scheme, trace.nodes());
            for event in trace.events() {
                engine.ingest_event(event);
                match scheme.update {
                    UpdateMode::Forwarded => {
                        if let Some(fkey) = scheme.index.forward_key_of(event, nb) {
                            offline.update(fkey, event.invalidated);
                        }
                    }
                    _ => {
                        if event.prev_writer.is_some() {
                            offline.update(scheme.index.key_of(event, nb), event.invalidated);
                        }
                    }
                }
            }
            engine.flush();
            for event in trace.events() {
                let key = scheme.index.key_of(event, nb);
                assert_eq!(
                    engine.predict_keys(&[key])[0],
                    offline.predict(key),
                    "{spec}"
                );
            }
        }
    }

    #[test]
    fn batched_predictions_preserve_order_and_count_queries() {
        let engine = ShardedEngine::new("last(pid)1[direct]".parse().unwrap(), 16, 4);
        // Train each pid entry with a distinct bitmap via streaming ingest.
        for pid in 0..16u8 {
            engine.ingest_event(&SharingEvent::new(
                NodeId(pid),
                Pc(0),
                LineAddr(0),
                NodeId(0),
                bm(&[pid]),
                Some((NodeId(pid), Pc(0))),
            ));
        }
        engine.flush();
        let keys: Vec<u64> = (0..16u64).rev().collect();
        let preds = engine.predict_keys(&keys);
        for (i, &key) in keys.iter().enumerate() {
            assert_eq!(preds[i], bm(&[key as u8]), "reversed position {i}");
        }
        let snap = engine.stats();
        assert_eq!(snap.queries, 16);
        assert_eq!(snap.updates, 16);
        assert_eq!(snap.entries, 16);
    }

    #[test]
    fn queries_read_their_own_writes_without_a_flush() {
        let engine = ShardedEngine::new("last(pid)1[direct]".parse().unwrap(), 16, 3);
        let stop = std::sync::atomic::AtomicBool::new(false);
        let stale = std::thread::scope(|scope| {
            // Concurrent readers of other keys on every shard.
            let hammer = scope.spawn(|| {
                let keys: Vec<u64> = (1000..1064).collect();
                while !stop.load(Ordering::Relaxed) {
                    engine.predict_keys(&keys);
                }
            });
            // Collected, not asserted in place: a panic here would leave
            // the scope waiting on the hammer forever.
            let mut stale = Vec::new();
            for i in 0..2000u64 {
                // Filler updates ahead of the target keep the worker busy
                // when the query arrives.
                let mut ops: Vec<IngestOp> = (0..64)
                    .map(|k| IngestOp::Update {
                        key: 100 + k,
                        feedback: bm(&[(k % 16) as u8]),
                    })
                    .collect();
                let (key, feedback) = (i % 8, bm(&[(i % 16) as u8, ((i / 16) % 16) as u8]));
                ops.push(IngestOp::Update { key, feedback });
                engine.ingest_ops(ops);
                if engine.predict_keys(&[key])[0] != feedback {
                    stale.push(i);
                }
            }
            stop.store(true, Ordering::Relaxed);
            hammer.join().unwrap();
            stale
        });
        assert!(stale.is_empty(), "stale reads after batches {stale:?}");
    }

    /// `csp_shard_query_service_ns` observations summed over the shards.
    fn query_service_count(engine: &ShardedEngine) -> u64 {
        csp_obs::parse_text(&engine.registry().encode_prometheus())
            .iter()
            .filter(|s| s.name == "csp_shard_query_service_ns_count")
            .filter_map(csp_obs::Sample::value_u64)
            .sum()
    }

    #[test]
    fn query_counts_are_exact_across_restart_and_restore() {
        let trace = busy_trace(400);
        let scheme: Scheme = "last(pid+pc8)1[direct]".parse().unwrap();
        let nb = node_bits(trace.nodes());
        let keys: Vec<u64> = trace
            .events()
            .iter()
            .map(|e| scheme.index.key_of(e, nb))
            .collect();
        let engine = ShardedEngine::new(scheme, trace.nodes(), 3);
        engine.replay_trace(&trace).unwrap();
        let mut k = 0u64;
        for chunk in keys.chunks(37) {
            engine.predict_keys(chunk);
            k += chunk.len() as u64;
            assert_eq!(engine.stats().queries, k);
            assert_eq!(query_service_count(&engine), k);
        }

        // A supervised restart keeps the count.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence the injected panic
        engine.ingest_ops(vec![IngestOp::Poison { key: 0 }]);
        engine.flush();
        std::panic::set_hook(hook);
        assert_eq!(engine.stats().total_restarts(), 1);
        engine.predict_keys(&keys[..10]);
        k += 10;
        assert_eq!(engine.stats().queries, k);
        assert_eq!(query_service_count(&engine), k);

        // A captured state carries the count, and a restored engine
        // continues from it; its own histogram counts its own probes.
        let states = engine.snapshot_state();
        assert_eq!(states.iter().map(|s| s.queries).sum::<u64>(), k);
        let restored = ShardedEngine::with_state(scheme, trace.nodes(), states).unwrap();
        assert_eq!(restored.stats().queries, k);
        restored.predict_keys(&keys);
        assert_eq!(restored.stats().queries, k + keys.len() as u64);
        assert_eq!(query_service_count(&restored), keys.len() as u64);
        let states = restored.snapshot_state();
        assert_eq!(
            states.iter().map(|s| s.queries).sum::<u64>(),
            k + keys.len() as u64
        );

        // A new session starts the count from its fresh state.
        let mut restored = restored;
        restored.reset(scheme).unwrap();
        restored.predict_keys(&keys[..5]);
        assert_eq!(restored.stats().queries, 5);
    }

    #[test]
    fn width_mismatch_is_a_typed_error_not_a_panic() {
        let trace = busy_trace(10); // 16-node trace
        let engine = ShardedEngine::new("last(pid)1[direct]".parse().unwrap(), 32, 2);
        match engine.replay_trace(&trace) {
            Err(ServeError::WidthMismatch {
                trace_nodes: 16,
                engine_nodes: 32,
            }) => {}
            other => panic!("expected WidthMismatch, got {other:?}"),
        }
    }

    #[test]
    fn poisoned_batch_recovers_to_the_unpoisoned_state() {
        let trace = busy_trace(400);
        let scheme: Scheme = "last(pid+pc8)1[direct]".parse().unwrap();
        let clean = ShardedEngine::new(scheme, trace.nodes(), 3);
        clean.replay_trace(&trace).unwrap();

        // Same replay, but with poison ops injected between chunks.
        let poisoned = ShardedEngine::new(scheme, trace.nodes(), 3);
        let prepared = PreparedTrace::new(&trace);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence the injected panics
        poisoned.replay_range(&prepared, 0..200).unwrap();
        // One ingest_ops call per poison: each arrives as its own batch,
        // so each is its own supervised recovery.
        for key in 0..3 {
            poisoned.ingest_ops(vec![IngestOp::Poison { key }]);
        }
        poisoned.replay_range(&prepared, 200..trace.len()).unwrap();
        std::panic::set_hook(hook);

        let (a, b) = (clean.stats(), poisoned.stats());
        assert_eq!(a.confusion, b.confusion);
        assert_eq!(a.updates, b.updates);
        assert_eq!(a.scored, b.scored);
        assert_eq!(a.entries, b.entries);
        assert!(a.restarts.is_empty());
        assert_eq!(b.total_restarts(), 3, "restarts: {:?}", b.restarts);
        // Tables survived too: the merged tables predict identically.
        let nb = node_bits(trace.nodes());
        let keys: Vec<u64> = trace
            .events()
            .iter()
            .map(|e| scheme.index.key_of(e, nb))
            .collect();
        let (ta, tb) = (clean.shutdown(), poisoned.shutdown());
        for key in keys {
            assert_eq!(ta.predict(key), tb.predict(key), "key {key}");
        }
    }

    #[test]
    fn snapshot_then_restore_continues_bit_identically() {
        let trace = busy_trace(600);
        for spec in ["union(pid+pc8)2[forwarded]", "pas(pid+pc6)2[direct]"] {
            let scheme: Scheme = spec.parse().unwrap();
            let reference = ShardedEngine::new(scheme, trace.nodes(), 4);
            reference.replay_trace(&trace).unwrap();

            // Replay half, capture, rebuild a new engine from the capture,
            // replay the rest there.
            let prepared = PreparedTrace::new(&trace);
            let first = ShardedEngine::new(scheme, trace.nodes(), 4);
            first.replay_range(&prepared, 0..300).unwrap();
            let states = first.snapshot_state();
            drop(first);
            let restored = ShardedEngine::with_state(scheme, trace.nodes(), states).unwrap();
            restored.replay_range(&prepared, 300..trace.len()).unwrap();

            let (a, b) = (reference.stats(), restored.stats());
            assert_eq!(a.confusion, b.confusion, "{spec}");
            assert_eq!(a.updates, b.updates, "{spec}");
            assert_eq!(a.scored, b.scored, "{spec}");
            assert_eq!(a.entries, b.entries, "{spec}");
            let nb = node_bits(trace.nodes());
            let keys: Vec<u64> = trace
                .events()
                .iter()
                .map(|e| scheme.index.key_of(e, nb))
                .collect();
            assert_eq!(
                reference.predict_keys(&keys),
                restored.predict_keys(&keys),
                "{spec}"
            );
        }
    }

    #[test]
    fn with_state_rejects_mismatched_width() {
        let scheme: Scheme = "last(pid)1[direct]".parse().unwrap();
        let states = vec![ShardState::empty(&scheme, 16)];
        match ShardedEngine::with_state(scheme, 32, states) {
            Err(ServeError::SnapshotMismatch { .. }) => {}
            other => panic!("expected SnapshotMismatch, got {other:?}"),
        }
    }

    #[test]
    fn reset_replay_is_bit_identical_to_offline_across_sessions() {
        let trace = busy_trace(500);
        let prepared = PreparedTrace::new(&trace);
        let mut engine = ShardedEngine::new("last(pid)1[direct]".parse().unwrap(), 16, 3);
        // Re-tasking the same workers with different schemes (different
        // storage families, update modes) must leak nothing across
        // sessions.
        for spec in [
            "last(pid+pc8)1[direct]",
            "union(pid+pc8)2[forwarded]",
            "union(dir+add8)2[ordered]",
            "pas(pid+pc4)2[direct]",
            "last(pid+pc8)1[direct]", // repeat: session reset is exact
        ] {
            let scheme: Scheme = spec.parse().unwrap();
            engine.reset(scheme).unwrap();
            engine.replay_prepared(&prepared).unwrap();
            let snap = engine.stats();
            assert_eq!(snap.confusion, run_scheme(&trace, &scheme), "{spec}");
            assert_eq!(snap.scored, trace.len() as u64, "{spec}");
            assert_eq!(engine.scheme(), &scheme);
            assert_eq!(engine.shard_count(), 3);
        }
    }

    #[test]
    fn empty_trace_replays_to_empty_counts() {
        let mut engine = ShardedEngine::new("union(pid+pc8)2[direct]".parse().unwrap(), 16, 2);
        engine.replay_trace(&busy_trace(100)).unwrap();
        engine
            .reset("last(pid+pc8)1[direct]".parse().unwrap())
            .unwrap();
        engine.replay_trace(&Trace::new(16)).unwrap();
        let snap = engine.stats();
        assert_eq!(snap.confusion.decisions(), 0);
        assert_eq!((snap.updates, snap.scored, snap.entries), (0, 0, 0));
        assert_eq!(engine.shard_count(), 2);
    }

    #[test]
    fn poison_after_reset_recovers_to_the_new_session() {
        let trace = busy_trace(400);
        let prepared = PreparedTrace::new(&trace);
        // The old session leaves a non-empty checkpoint (the snapshot)
        // and journal behind: a recovery that rolls back into either one
        // counts the old session or runs the new ops on the old table.
        let mut engine = ShardedEngine::new("union(pid+pc8)3[forwarded]".parse().unwrap(), 16, 3);
        engine.replay_range(&prepared, 0..200).unwrap();
        engine.snapshot_state();
        engine.replay_range(&prepared, 200..trace.len()).unwrap();

        let scheme: Scheme = "last(pid+pc8)1[direct]".parse().unwrap();
        engine.reset(scheme).unwrap();
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence the injected panic
        engine.replay_range(&prepared, 0..150).unwrap();
        engine.ingest_ops(vec![IngestOp::Poison { key: 0 }]);
        engine.replay_range(&prepared, 150..trace.len()).unwrap();
        std::panic::set_hook(hook);

        let snap = engine.stats();
        assert_eq!(snap.confusion, run_scheme(&trace, &scheme));
        assert_eq!(snap.scored, trace.len() as u64);
        assert_eq!(snap.total_restarts(), 1, "restarts: {:?}", snap.restarts);
    }

    #[test]
    fn reset_is_refused_with_a_log_or_sink_attached() {
        let trace = busy_trace(300);
        let scheme: Scheme = "last(pid+pc8)1[direct]".parse().unwrap();
        let other: Scheme = "union(pid+pc8)2[direct]".parse().unwrap();
        let offline = run_scheme(&trace, &scheme);

        let mut leader = ShardedEngine::new(scheme, trace.nodes(), 2);
        let fp = crate::replication::fingerprint(&scheme, trace.nodes());
        leader
            .attach_replication(ReplicationLog::in_memory(fp))
            .unwrap();
        leader.replay_trace(&trace).unwrap();
        match leader.reset(other) {
            Err(ServeError::Replication { .. }) => {}
            other => panic!("expected a Replication error, got {other:?}"),
        }
        let mut audited = ShardedEngine::new(scheme, trace.nodes(), 2);
        let sink = AuditSink::in_memory(&scheme, trace.nodes(), 2, 1);
        audited.attach_audit(Arc::new(sink)).unwrap();
        audited.replay_trace(&trace).unwrap();
        match audited.reset(other) {
            Err(ServeError::Audit { .. }) => {}
            other => panic!("expected an Audit error, got {other:?}"),
        }
        // Both engines keep their session and keep serving it.
        let nb = node_bits(trace.nodes());
        let key = scheme.index.key_of(&trace.events()[0], nb);
        for engine in [&leader, &audited] {
            assert_eq!(engine.scheme(), &scheme);
            assert_eq!(engine.stats().confusion, offline);
            engine.predict_keys(&[key]);
            assert_eq!(engine.stats().queries, 1);
            engine.replay_trace(&trace).unwrap();
            assert_eq!(engine.stats().scored, 2 * trace.len() as u64);
        }
    }

    #[test]
    fn stats_merge_per_shard_counters() {
        let trace = busy_trace(400);
        let scheme: Scheme = "last(pid+pc8)1[direct]".parse().unwrap();
        let engine = ShardedEngine::new(scheme, trace.nodes(), 5);
        engine.replay_trace(&trace).unwrap();
        let snap = engine.stats();
        let merged: ConfusionMatrix = snap.per_shard.iter().copied().sum();
        assert_eq!(merged, snap.confusion);
        assert_eq!(snap.per_shard.len(), 5);
        assert!(snap.per_shard.iter().filter(|m| m.decisions() > 0).count() > 1);
    }
}
