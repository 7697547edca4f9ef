//! Coherence communication prediction: the taxonomy, predictors and
//! evaluation engine of Kaxiras & Young (HPCA 2000).
//!
//! The paper unifies all previously proposed sharing predictors in a single
//! design space with three axes, each of which is a type here:
//!
//! * **Access** ([`IndexSpec`]) — which predictor entry a coherence store
//!   miss consults: any subset of `{pid, pc, dir, addr}`, with `pc`/`addr`
//!   truncatable to a bit budget. Address-based predictors (Lai & Falsafi)
//!   and instruction-based predictors (Kaxiras & Goodman) are just two
//!   points of this space; the rest are hybrids.
//! * **Prediction function** ([`PredictionFunction`]) — how entry state
//!   becomes a predicted reader bitmap: `last`, `union`, `inter` (over a
//!   [`Scheme::depth`]-deep history), two-level `PAs` pattern prediction,
//!   and the paper-named-but-unsimulated `overlap-last`.
//! * **Update** ([`UpdateMode`]) — when and where invalidation feedback
//!   lands: `direct` (current writer's entry), `forwarded` (previous
//!   writer's entry), or `ordered` (the unimplementable-in-hardware oracle
//!   ordering, simulated in two passes).
//!
//! A [`Scheme`] bundles the three axes with a history depth, provides the
//! paper's cost model ([`Scheme::size_log2_bits`]) and its textual notation
//! (`inter(pid+pc8+add6)4[direct]`, Section 3.5) via `Display`/`FromStr`.
//! The [`engine`] runs a scheme over a [`csp_trace::Trace`] and produces a
//! [`csp_metrics::ConfusionMatrix`]; [`reference`](mod@reference) is the plain,
//! independent evaluator every engine path is checked against.
//!
//! # Example
//!
//! ```
//! use csp_core::{engine, Scheme};
//! use csp_trace::{NodeId, Pc, LineAddr, SharingBitmap, SharingEvent, Trace};
//!
//! // A stable producer-consumer pattern: node 0 writes, nodes 1-2 read.
//! let mut trace = Trace::new(16);
//! let readers = SharingBitmap::from_nodes(&[NodeId(1), NodeId(2)]);
//! for i in 0..100 {
//!     let inv = if i == 0 { SharingBitmap::empty() } else { readers };
//!     let prev = if i == 0 { None } else { Some((NodeId(0), Pc(7))) };
//!     trace.push(SharingEvent::new(NodeId(0), Pc(7), LineAddr(3), NodeId(1), inv, prev));
//! }
//! trace.set_final_readers(LineAddr(3), readers);
//!
//! let scheme: Scheme = "inter(pid+pc8)2[direct]".parse()?;
//! let m = engine::run_scheme(&trace, &scheme);
//! let s = m.screening();
//! assert!(s.pvp > 0.95 && s.sensitivity > 0.95); // stable sharing is easy
//! # Ok::<(), csp_core::ParseSchemeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod confidence;
pub mod cosmos;
pub mod distribution;
pub mod engine;
mod entry;
pub mod fingerprint;
mod function;
pub mod hash;
mod index;
mod kernel;
mod prepared;
pub mod reference;
mod scheme;
pub mod sticky;
mod table;

pub use arena::HistoryArena;
pub use entry::{HistoryEntry, PasEntry, RawHistoryEntry, RawPasEntry, MAX_DEPTH};
pub use fingerprint::{
    version_fingerprint, AUDIT_FORMAT_VERSION, FINGERPRINT_REVISION, WIRE_FORMAT_VERSION,
};
pub use function::PredictionFunction;
pub use index::{node_bits, IndexSpec};
pub use prepared::{KeyStream, PreparedTrace};
pub use scheme::{ParseSchemeError, Scheme, UpdateMode};
pub use table::{shard_of_key, EntryView, PredictorTable, TableEntry};
