//! An *online* sharing-prediction service over the predictors of
//! Kaxiras & Young (HPCA 2000).
//!
//! The rest of the workspace evaluates predictors offline: a recorded
//! trace goes in, a confusion matrix comes out. This crate runs the same
//! predictor tables as a long-lived service:
//!
//! * [`ShardedEngine`] — the predictor state partitioned across worker
//!   threads by index key ([`csp_core::shard_of_key`]). Writes go through
//!   bounded FIFO inboxes (backpressure) as batches; queries are answered
//!   on the caller's thread under each shard's read lock, once that shard
//!   has applied every write sent before the query. No lock spans shards.
//!   Sharding is *exact*: replaying a trace yields bit-identical screening
//!   statistics to the offline engine (see `tests/equivalence.rs`).
//!   [`ShardedEngine::reset`] re-tasks the running workers with a fresh
//!   session, so a caller that replays hundreds of short cells (the
//!   `csp-bar` barometer) times the supervised workers, not thread spawn.
//! * [`wire`] — a length-prefixed, CRC32c-checksummed binary protocol
//!   (the same checksum conventions as the on-disk trace format), spoken
//!   over TCP or Unix sockets by [`server`] and [`client`].
//! * live screening statistics — per-shard lock-free
//!   [`csp_metrics::OnlineConfusion`] counters, merged on demand into an
//!   [`EngineSnapshot`].
//! * crash safety — workers supervise themselves (a panicked batch is
//!   recovered from an in-memory checkpoint + journal, surfacing as
//!   [`ShardRestart`] stats), and [`snapshot`] persists the live tables
//!   as CRC32c-checksummed, atomically written files that restore to a
//!   bit-identical engine ([`ShardedEngine::with_state`]). Connections
//!   carry read/write deadlines and per-connection error budgets
//!   ([`ServerOptions`]), and [`ShutdownHandle`] drains the server
//!   gracefully so a final snapshot can be taken.
//! * [`bench`](mod@bench) — a load generator reporting queries/sec and p50/p99
//!   latency against a running server.
//! * [`replication`] — leader/follower replication: a totally-ordered,
//!   journal-durable operation log on the leader, snapshot-bootstrapped
//!   followers streaming `JournalSegment` frames with
//!   backoff-and-resume, and fingerprint-guarded divergence detection.
//!   Followers are bit-identical to the leader (see
//!   `tests/replication.rs`), relay segments to their own downstreams
//!   (chained fan-out), and can be *promoted* to leadership under a
//!   bumped fencing epoch — lease-based failure detection drives
//!   automatic promotion, and deposed leaders are fenced by epoch.
//! * [`audit`] — an opt-in per-decision audit stream: every scored
//!   prediction emits a canonical 42-byte record, framed onto a CRC32c
//!   log and tailable over the wire, and an offline verifier replays the
//!   trace through a twin and proves the decisions byte-identical.
//!
//! The `csp-served` binary wires these together: `serve` hosts an engine,
//! `bench` drives one, `replay` proves online == offline on a trace file.
//!
//! # Example
//!
//! ```no_run
//! use csp_serve::{Client, Probe, ShardedEngine, Server};
//! use csp_trace::{LineAddr, NodeId, Pc};
//! use std::sync::Arc;
//!
//! let engine = Arc::new(ShardedEngine::new(
//!     "last(pid+pc8)1[direct]".parse().unwrap(), 16, 4));
//! let server = Server::bind_tcp("127.0.0.1:0", engine)?;
//! let addr = server.local_addr()?;
//! std::thread::spawn(move || server.run());
//!
//! let mut client = Client::connect_tcp(addr)?;
//! let bitmap = client.predict(&Probe::new(NodeId(0), Pc(7), NodeId(1), LineAddr(3)))?;
//! println!("predicted readers: {bitmap:?}");
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must surface failures as typed errors, not unwrap panics;
// tests opt back in where unwrapping is the assertion.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod audit;
pub mod bench;
pub mod client;
pub mod error;
mod pipeline;
pub mod replication;
pub mod server;
pub mod shard;
pub mod snapshot;
pub mod wire;

pub use audit::{
    verify_log, AuditBatch, AuditDivergence, AuditSink, AuditStreamError, AuditVerifyError,
    AuditVerifyReport,
};
pub use bench::{probe_stream, run_load, LoadOptions, LoadReport};
pub use client::Client;
pub use error::ServeError;
pub use replication::{
    CompactStats, FollowerOptions, JournalStore, LeaseId, PromoteHook, Recovered, ReplOp,
    ReplicaStatus, ReplicationLog, DEFAULT_LEASE, MAX_SEGMENT_OPS,
};
pub use server::{Server, ServerOptions, ShutdownHandle};
pub use shard::{EngineSnapshot, ShardCounters, ShardRestart, ShardState, ShardedEngine};
pub use snapshot::{EngineState, SnapshotStore};

use csp_trace::{LineAddr, NodeId, Pc};

/// One prediction request: the information available at a coherence store
/// miss (Section 3.1 of the paper — `pid`, `pc`, `dir`, `addr`). The
/// engine's scheme decides which of these fields index the predictor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Probe {
    /// The node about to write (`pid`).
    pub writer: NodeId,
    /// The store instruction (`pc`).
    pub pc: Pc,
    /// The line's home directory (`dir`).
    pub home: NodeId,
    /// The line address (`addr`).
    pub line: LineAddr,
}

impl Probe {
    /// Creates a probe.
    pub fn new(writer: NodeId, pc: Pc, home: NodeId, line: LineAddr) -> Self {
        Probe {
            writer,
            pc,
            home,
            line,
        }
    }
}
