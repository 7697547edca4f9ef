//! Coherence trace model for sharing-prediction studies.
//!
//! This crate provides the vocabulary types shared by the whole workspace:
//!
//! * strongly-typed identifiers ([`NodeId`], [`Pc`], [`LineAddr`]),
//! * [`SharingBitmap`] — a fixed-width set of nodes, the unit that sharing
//!   predictors consume and produce,
//! * [`SharingEvent`] — one coherence store miss (a write that required
//!   directory action and invalidated the line's previous readers),
//! * [`Trace`] — an ordered sequence of sharing events plus the final sharer
//!   state of memory, which together determine the *actual* future-reader
//!   bitmap of every event,
//! * [`TraceStats`] — the per-benchmark statistics of Table 5 of the paper,
//! * a compact self-describing binary on-disk format ([`io`]),
//! * the one CRC32c frame codec ([`frame`]) under every append-only log,
//!   with a single torn-tail rule,
//! * durable journal segments ([`journal`]) — the on-disk log replicated
//!   serving is built on,
//! * the canonical per-decision audit record codec ([`audit`]) that makes
//!   a deployed engine's predictions byte-for-byte replayable.
//!
//! # Background
//!
//! In Kaxiras & Young (HPCA 2000), every *coherence store miss* — a write
//! miss or write fault that makes a node the exclusive owner of a cache line
//! — is a *decision point*: the system may predict which nodes will read the
//! newly written line before it is next written, and forward data to them.
//! The trace format captured here records exactly the information available
//! at each such decision: the writer's node id (`pid`), the static store
//! instruction (`pc`), the line's home directory (`dir`), the line address
//! (`addr`), and the feedback bitmap of *true readers invalidated by this
//! write* (the previous interval's readers).
//!
//! # Example
//!
//! ```
//! use csp_trace::{NodeId, Pc, LineAddr, SharingBitmap, SharingEvent, Trace};
//!
//! let n = 4;
//! let mut trace = Trace::new(n);
//! // Node 0 writes line 7 (first write: nobody to invalidate).
//! trace.push(SharingEvent::new(NodeId(0), Pc(1), LineAddr(7), NodeId(3),
//!                              SharingBitmap::empty(), None));
//! // Nodes 1 and 2 read line 7, then node 0 writes it again.
//! let readers = SharingBitmap::from_nodes(&[NodeId(1), NodeId(2)]);
//! trace.push(SharingEvent::new(NodeId(0), Pc(1), LineAddr(7), NodeId(3),
//!                              readers, Some((NodeId(0), Pc(1)))));
//! let actuals = trace.resolve_actuals();
//! // The first write's actual future readers are the readers invalidated
//! // by the second write.
//! assert_eq!(actuals[0], readers);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must surface failures as typed errors, not unwrap panics;
// tests opt back in where unwrapping is the assertion.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod audit;
mod bitmap;
pub mod crc32c;
mod event;
pub mod fault;
pub mod frame;
mod ids;
pub mod io;
pub mod journal;
mod prepared;
mod stats;
mod trace;
pub mod transform;

pub use bitmap::{NodeIter, SharingBitmap};
pub use event::SharingEvent;
pub use ids::{LineAddr, NodeId, Pc};
pub use prepared::ResolvedTrace;
pub use stats::TraceStats;
pub use trace::Trace;

/// The machine size used throughout the paper's evaluation (Section 5.1).
pub const PAPER_NODES: usize = 16;

/// The maximum number of nodes a [`SharingBitmap`] can represent.
pub const MAX_NODES: usize = 64;
