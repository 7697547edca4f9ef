//! A persistent pool of shard workers for repeated offline replays.
//!
//! [`ShardedEngine`](crate::ShardedEngine) spawns its worker threads at
//! construction and joins them at shutdown — the right lifecycle for a
//! long-lived service, but the wrong one for a benchmark matrix that
//! evaluates hundreds of short cells: at CI's reduced trace scale the
//! per-cell thread spawn/join dominates the measurement and the
//! "sharded" numbers stop meaning anything about sharding.
//!
//! [`ShardPool`] keeps the worker threads alive across evaluations.
//! Each replay *re-tasks* the same workers with a fresh
//! [`ShardState`] (an in-band `Reset`, so FIFO inbox order guarantees
//! no stale operation can leak across sessions), streams the same
//! ordered operation chunks [`replay_ops`] emits for the serving
//! engine, and drains the per-shard states back for a commutative
//! counter merge. The scored result is therefore bit-identical to both
//! [`ShardedEngine::replay_prepared`](crate::ShardedEngine::replay_prepared)
//! and the offline evaluators — only the thread lifecycle differs.
//!
//! Pool workers are deliberately *not* supervised (no checkpoint or
//! journal): a replay is a bounded batch job whose caller owns the
//! whole lifecycle, so a worker panic surfaces as a replay panic
//! instead of an in-place recovery.

use crate::shard::{apply_op, replay_ops, IngestOp, ShardState, INBOX_DEPTH, REPLAY_CHUNK};
use csp_core::{shard_of_key, PreparedTrace, Scheme};
use csp_metrics::ConfusionMatrix;
use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender};
use std::thread;

/// Messages a pool worker consumes, in FIFO order.
enum PoolMsg {
    /// Install a fresh session state (discards any previous one).
    Reset(Box<ShardState>),
    /// Apply a batch of in-order ingest operations to the session.
    Ingest(Vec<IngestOp>),
    /// Reply with a clone of the session state (the drain barrier: the
    /// reply proves every earlier message of this session was applied).
    Drain(Sender<Box<ShardState>>),
}

struct PoolWorker {
    tx: SyncSender<PoolMsg>,
    join: thread::JoinHandle<()>,
}

/// A fixed set of persistent shard worker threads, re-tasked per replay.
///
/// # Example
///
/// ```
/// use csp_serve::ShardPool;
/// use csp_trace::{LineAddr, NodeId, Pc, SharingBitmap, SharingEvent, Trace};
/// use csp_core::{reference::run_scheme, PreparedTrace};
///
/// let mut trace = Trace::new(16);
/// let readers = SharingBitmap::from_nodes(&[NodeId(1)]);
/// for i in 0..20 {
///     let (inv, prev) = if i == 0 {
///         (SharingBitmap::empty(), None)
///     } else {
///         (readers, Some((NodeId(0), Pc(7))))
///     };
///     trace.push(SharingEvent::new(NodeId(0), Pc(7), LineAddr(3), NodeId(1), inv, prev));
/// }
/// trace.set_final_readers(LineAddr(3), readers);
///
/// let pool = ShardPool::new(4);
/// let prepared = PreparedTrace::new(&trace);
/// let scheme = "last(pid+pc8)1[direct]".parse().unwrap();
/// // The same pool serves many replays; each is bit-identical to the
/// // reference evaluator.
/// for _ in 0..3 {
///     assert_eq!(pool.replay_prepared(&prepared, &scheme), run_scheme(&trace, &scheme));
/// }
/// ```
#[derive(Debug)]
pub struct ShardPool {
    workers: Vec<PoolWorker>,
}

impl std::fmt::Debug for PoolWorker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolWorker").finish_non_exhaustive()
    }
}

impl ShardPool {
    /// Spawns `shards` persistent workers.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        let workers = (0..shards)
            .map(|i| {
                let (tx, rx) = sync_channel(INBOX_DEPTH);
                let join = thread::Builder::new()
                    .name(format!("csp-pool-{i}"))
                    .spawn(move || pool_worker(rx))
                    .expect("spawn pool worker thread");
                PoolWorker { tx, join }
            })
            .collect();
        ShardPool { workers }
    }

    /// Number of persistent workers.
    pub fn shards(&self) -> usize {
        self.workers.len()
    }

    /// Replays a prepared trace under `scheme` across the pool and
    /// returns the merged screening counts — bit-identical to
    /// [`ShardedEngine::replay_prepared`](crate::ShardedEngine::replay_prepared)
    /// followed by `stats().confusion`, with no thread spawned.
    ///
    /// # Panics
    ///
    /// Panics if a pool worker has died (a previous replay panicked it).
    pub fn replay_prepared(
        &self,
        prepared: &PreparedTrace<'_>,
        scheme: &Scheme,
    ) -> ConfusionMatrix {
        let nodes = prepared.trace().nodes();
        let shards = self.workers.len();
        for worker in &self.workers {
            worker
                .tx
                .send(PoolMsg::Reset(Box::new(ShardState::empty(scheme, nodes))))
                .expect("pool worker alive");
        }
        // Same chunking as the serving engine's replay: each chunk's ops
        // are emitted in evaluation order and bucketed by routing key, so
        // every worker sees its share of operations in emission order.
        let mut buffers: Vec<Vec<IngestOp>> = vec![Vec::new(); shards];
        let mut pos = 0;
        while pos < prepared.len() {
            let end = prepared.len().min(pos + REPLAY_CHUNK);
            for op in replay_ops(prepared, scheme, pos..end) {
                buffers[shard_of_key(op.route_key(), shards)].push(op);
            }
            for (worker, buffer) in self.workers.iter().zip(&mut buffers) {
                if !buffer.is_empty() {
                    worker
                        .tx
                        .send(PoolMsg::Ingest(std::mem::take(buffer)))
                        .expect("pool worker alive");
                }
            }
            pos = end;
        }
        // Drain: in-band replies double as completion barriers, and
        // integer counter merges commute, so the sum is order-exact.
        let mut confusion = ConfusionMatrix::default();
        for worker in &self.workers {
            let (reply_tx, reply_rx): (Sender<Box<ShardState>>, Receiver<Box<ShardState>>) =
                std::sync::mpsc::channel();
            worker
                .tx
                .send(PoolMsg::Drain(reply_tx))
                .expect("pool worker alive");
            let state = reply_rx.recv().expect("pool worker replies to drain");
            confusion += state.confusion;
        }
        confusion
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        // Closing each inbox ends its worker loop.
        for PoolWorker { tx, join } in self.workers.drain(..) {
            drop(tx);
            let _ = join.join();
        }
    }
}

/// The pool worker loop: applies messages in FIFO order through the same
/// [`apply_op`] funnel as the supervised shard workers, holding at most
/// one session state at a time.
fn pool_worker(rx: Receiver<PoolMsg>) {
    let mut session: Option<Box<ShardState>> = None;
    while let Ok(msg) = rx.recv() {
        match msg {
            PoolMsg::Reset(state) => session = Some(state),
            PoolMsg::Ingest(ops) => {
                let state = session.as_mut().expect("ingest before reset");
                let nodes = state.table.nodes();
                for op in ops {
                    apply_op(state, op, nodes);
                }
            }
            PoolMsg::Drain(reply) => {
                let state = session.as_ref().expect("drain before reset");
                // A dropped receiver just means the caller gave up.
                let _ = reply.send(state.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_core::reference::run_scheme;
    use csp_trace::{LineAddr, NodeId, Pc, SharingBitmap, SharingEvent, Trace};

    fn bm(nodes: &[u8]) -> SharingBitmap {
        nodes.iter().map(|&n| NodeId(n)).collect()
    }

    fn alternating_trace(pairs: usize) -> Trace {
        let mut t = Trace::new(16);
        let mut prev: Option<(NodeId, Pc)> = None;
        for i in 0..pairs * 2 {
            let (writer, pc) = if i % 2 == 0 {
                (NodeId(0), Pc(10))
            } else {
                (NodeId(1), Pc(20))
            };
            let inv = match prev {
                None => SharingBitmap::empty(),
                Some((NodeId(0), _)) => bm(&[4, 5]),
                Some(_) => bm(&[8, 9]),
            };
            t.push(SharingEvent::new(
                writer,
                pc,
                LineAddr(1),
                NodeId(0),
                inv,
                prev,
            ));
            prev = Some((writer, pc));
        }
        t.set_final_readers(LineAddr(1), bm(&[8, 9]));
        t
    }

    #[test]
    fn pool_replay_is_bit_identical_to_offline_across_sessions() {
        let pool = ShardPool::new(3);
        let trace = alternating_trace(60);
        let prepared = PreparedTrace::new(&trace);
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
            assert_eq!(
                pool.replay_prepared(&prepared, &scheme),
                run_scheme(&trace, &scheme),
                "{spec}"
            );
        }
    }

    #[test]
    fn pool_matches_sharded_engine() {
        let pool = ShardPool::new(4);
        let trace = alternating_trace(40);
        let prepared = PreparedTrace::new(&trace);
        let scheme: Scheme = "union(pid+pc8)2[forwarded]".parse().unwrap();
        let engine = crate::ShardedEngine::new(scheme, trace.nodes(), 4);
        engine.replay_prepared(&prepared).unwrap();
        assert_eq!(
            pool.replay_prepared(&prepared, &scheme),
            engine.stats().confusion
        );
    }

    #[test]
    fn empty_trace_replays_to_empty_counts() {
        let pool = ShardPool::new(2);
        let trace = Trace::new(16);
        let prepared = PreparedTrace::new(&trace);
        let scheme: Scheme = "last(pid+pc8)1[direct]".parse().unwrap();
        assert_eq!(pool.replay_prepared(&prepared, &scheme).decisions(), 0);
        assert_eq!(pool.shards(), 2);
    }
}
