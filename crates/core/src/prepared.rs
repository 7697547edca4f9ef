//! The prepared-evaluation layer: per-trace resolution and per-index key
//! streams, computed once and shared across every scheme of a sweep.
//!
//! A design-space sweep evaluates hundreds of schemes per trace, and
//! dozens of them share one [`IndexSpec`]. Evaluated one at a time (as
//! [`crate::reference`] does), each would re-resolve the ground-truth
//! actuals and recompute `key_of`/`forward_key_of` for every event. This
//! module computes both once:
//!
//! * the *tuple table* of a trace — the distinct `(writer, pc, home,
//!   line)` tuples its events index the predictor through (each event's
//!   own tuple, then its previous writer's), in first-occurrence order,
//!   plus each event's tuple ids. Every [`IndexSpec::key`] is a function
//!   of one tuple, so the table refines every spec, and a spec's
//!   *signature* — the dense slot of each tuple — costs `O(tuples)`, not
//!   `O(events)`;
//! * [`KeyStream`] — the two columns the kernel walks under one
//!   [`IndexSpec`]: the slot of every event and of its previous writer's
//!   tuple, gathered from the spec's per-tuple slots through the tuple
//!   ids (8 bytes per event). A stream keeps no key values and no copy
//!   of the ground truth: [`PreparedTrace::event_keys`] gathers keys on
//!   demand, and the kernel reads actuals, feedback and previous-writer
//!   flags from the [`PreparedTrace`] itself;
//! * [`PreparedTrace`] — a [`ResolvedTrace`] (actuals / feedback /
//!   previous-writer columns, resolved once), the lazily built tuple
//!   table, and a concurrent cache of [`KeyStream`]s keyed by
//!   [`IndexSpec`], shared by reference across every scheme in a sweep.
//!
//! The kernel reads a stream's event→slot columns, never its key
//! values, so two specs with equal signatures score identically under
//! every function, depth and update mode.
//! [`PreparedTrace::partition_classes`] groups a spec list by signature,
//! and the sweep planner scores one representative per class.
//!
//! The engine entry points ([`crate::engine::run_scheme_prepared`],
//! [`crate::engine::run_history_family_prepared`]) consume these columns
//! and are bit-identical to the reference — the equivalence suites in
//! `tests/prepared_equivalence.rs` and `tests/partition_classes.rs` pin
//! that.

use crate::hash::FxBuildHasher;
use crate::IndexSpec;
use csp_trace::{LineAddr, NodeId, Pc, ResolvedTrace, SharingBitmap, Trace};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock};

/// Most key streams a [`PreparedTrace`] keeps cached at once. Sized for
/// the sweep planners, which walk the design space in index clusters and
/// evict behind themselves; the cap only matters for callers that touch
/// many indexes without evicting.
const STREAM_CACHE_CAP: usize = 8;

/// The slot columns of one trace under one [`IndexSpec`]: everything
/// the kernel needs from the access axis.
///
/// # Example
///
/// ```
/// use csp_core::{IndexSpec, KeyStream, PreparedTrace};
/// use csp_trace::{LineAddr, NodeId, Pc, SharingBitmap, SharingEvent, Trace};
///
/// let mut t = Trace::new(16);
/// t.push(SharingEvent::new(NodeId(3), Pc(0x1ab), LineAddr(9), NodeId(0),
///                          SharingBitmap::empty(), None));
/// let index = IndexSpec::new(true, 8, false, 0);
/// let (keys, _) = PreparedTrace::new(&t).event_keys(index, 0..t.len());
/// assert_eq!(keys, &[(3 << 8) | 0xab]);
/// let stream = KeyStream::compute(&t, index);
/// assert_eq!(stream.slot_count(), 1);
/// assert_eq!(stream.slots(), &[0]);
/// ```
#[derive(Clone, Debug)]
pub struct KeyStream {
    index: IndexSpec,
    slot_count: usize,
    slots: Vec<u32>,
    forward_slots: Vec<u32>,
}

/// The fields an [`IndexSpec`] can read: one predictor entry's identity
/// before truncation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Tuple {
    writer: NodeId,
    pc: Pc,
    home: NodeId,
    line: LineAddr,
}

impl Tuple {
    /// `index`'s key of this tuple.
    #[inline]
    fn key(&self, index: IndexSpec, node_bits: u32) -> u64 {
        index.key(self.writer, self.pc, self.home, self.line, node_bits)
    }
}

/// The distinct tuples of a trace, in first-occurrence order (each
/// event's predictor tuple, then its forward tuple), and the tuple ids of
/// every event.
#[derive(Debug)]
struct TupleTable {
    tuples: Vec<Tuple>,
    /// The predictor tuple of each event.
    ids: Vec<u32>,
    /// The forward tuple of each event, or `tuples.len()` — a sentinel
    /// whose key and slot are 0 — where the event has no previous writer.
    forward_ids: Vec<u32>,
}

impl TupleTable {
    fn new(trace: &Trace) -> Self {
        let mut seen: HashMap<Tuple, u32, FxBuildHasher> = HashMap::default();
        let mut tuples = Vec::new();
        let mut id_of = |tuple: Tuple| {
            *seen.entry(tuple).or_insert_with(|| {
                tuples.push(tuple);
                tuples.len() as u32 - 1
            })
        };
        let mut ids = Vec::with_capacity(trace.len());
        let mut prev = Vec::with_capacity(trace.len());
        for e in trace.events() {
            ids.push(id_of(Tuple {
                writer: e.writer,
                pc: e.pc,
                home: e.home,
                line: e.line,
            }));
            prev.push(e.prev_writer.map(|(writer, pc)| {
                id_of(Tuple {
                    writer,
                    pc,
                    home: e.home,
                    line: e.line,
                })
            }));
        }
        let sentinel = tuples.len() as u32;
        let forward_ids = prev.into_iter().map(|id| id.unwrap_or(sentinel)).collect();
        TupleTable {
            tuples,
            ids,
            forward_ids,
        }
    }

    /// `index`'s dense slot for every tuple, with the sentinel's 0
    /// appended, and the number of slots. Slots are numbered by
    /// first occurrence in tuple order, which is first occurrence in
    /// event order (predictor key, then forward key, per event): exactly
    /// the numbering a per-event remap over the union of both key columns
    /// would assign. A forwarded update and a later prediction through
    /// the same index value must land on the same entry, so both key
    /// kinds share one slot space.
    fn slots(&self, index: IndexSpec, node_bits: u32) -> (Vec<u32>, usize) {
        let mut remap: HashMap<u64, u32, FxBuildHasher> =
            HashMap::with_capacity_and_hasher(self.tuples.len(), FxBuildHasher::default());
        let mut slots = Vec::with_capacity(self.tuples.len() + 1);
        for t in &self.tuples {
            let key = t.key(index, node_bits);
            let next = remap.len() as u32;
            slots.push(*remap.entry(key).or_insert(next));
        }
        slots.push(0);
        (slots, remap.len())
    }

    /// `index`'s key of tuple `id`; the sentinel's key is 0.
    #[inline]
    fn key_of(&self, id: u32, index: IndexSpec, node_bits: u32) -> u64 {
        self.tuples
            .get(id as usize)
            .map_or(0, |t| t.key(index, node_bits))
    }
}

/// `table[id]` for every id: the branch-free per-event half of a stream
/// build.
fn gather<T: Copy>(table: &[T], ids: &[u32]) -> Vec<T> {
    ids.iter().map(|&id| table[id as usize]).collect()
}

impl KeyStream {
    /// Computes the slot columns of `trace` under `index`.
    ///
    /// This is the *single* key-derivation implementation in the
    /// workspace: it prepares `trace` and builds the stream exactly as
    /// [`PreparedTrace::key_stream`] does — per-tuple keys and slots for
    /// `index`, gathered to every event through the trace's tuple ids — so
    /// the offline engine, the sweep planner and the online serving engine
    /// (`csp-serve`) cannot drift apart.
    pub fn compute(trace: &Trace, index: IndexSpec) -> Self {
        PreparedTrace::new(trace).build_stream(index)
    }

    /// The index specification this stream was computed for.
    #[inline]
    pub fn index(&self) -> IndexSpec {
        self.index
    }

    /// Number of events in the stream.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` for an empty trace.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of dense slots: the distinct keys in the union of the
    /// predictor and forward key columns, one per predictor entry the
    /// trace touches.
    #[inline]
    pub fn slot_count(&self) -> usize {
        self.slot_count
    }

    /// The slot of every event's predictor key, in trace order: the
    /// entry the event predicts through (and, under *direct* and
    /// *ordered* update, trains).
    #[inline]
    pub fn slots(&self) -> &[u32] {
        &self.slots
    }

    /// The slot of every event's forward key, in trace order: the entry
    /// of its previous writer, which *forwarded* update trains. An event
    /// without a previous writer holds slot 0, which is not its forward
    /// entry: readers gate on [`PreparedTrace::has_prev`].
    #[inline]
    pub fn forward_slots(&self) -> &[u32] {
        &self.forward_slots
    }
}

/// A trace prepared for repeated evaluation: ground truth resolved once,
/// the tuple table built once on first use, key streams computed once per
/// [`IndexSpec`] and shared by reference.
///
/// A `PreparedTrace` is `Sync`: sweep workers on different threads share
/// one instance per benchmark, and the key-stream cache hands each of them
/// an [`Arc`] to the same columns.
///
/// # Example
///
/// ```
/// use csp_core::{engine, PreparedTrace, Scheme};
/// use csp_trace::{LineAddr, NodeId, Pc, SharingBitmap, SharingEvent, Trace};
///
/// let mut t = Trace::new(16);
/// t.push(SharingEvent::new(NodeId(0), Pc(7), LineAddr(3), NodeId(1),
///                          SharingBitmap::empty(), None));
/// let prepared = PreparedTrace::new(&t);
/// let scheme: Scheme = "union(pid+pc8)2[direct]".parse()?;
/// // Bit-identical to engine::run_scheme(&t, &scheme), without re-resolving.
/// let m = engine::run_scheme_prepared(&prepared, &scheme);
/// assert_eq!(m, engine::run_scheme(&t, &scheme));
/// # Ok::<(), csp_core::ParseSchemeError>(())
/// ```
#[derive(Debug)]
pub struct PreparedTrace<'t> {
    resolved: ResolvedTrace<'t>,
    node_bits: u32,
    tuples: OnceLock<TupleTable>,
    streams: Mutex<HashMap<IndexSpec, Arc<KeyStream>>>,
}

impl<'t> PreparedTrace<'t> {
    /// Prepares `trace`: resolves the actuals and flattens the per-event
    /// columns, once.
    pub fn new(trace: &'t Trace) -> Self {
        PreparedTrace {
            resolved: ResolvedTrace::new(trace),
            node_bits: crate::index::node_bits(trace.nodes()),
            tuples: OnceLock::new(),
            streams: Mutex::new(HashMap::new()),
        }
    }

    /// The underlying trace.
    #[inline]
    pub fn trace(&self) -> &'t Trace {
        self.resolved.trace()
    }

    /// Number of events.
    #[inline]
    pub fn len(&self) -> usize {
        self.resolved.len()
    }

    /// Returns `true` for an empty trace.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.resolved.is_empty()
    }

    /// The machine's node count.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.resolved.nodes()
    }

    /// `ceil(log2(nodes))` — the `node_bits` of [`IndexSpec::key`].
    #[inline]
    pub fn node_bits(&self) -> u32 {
        self.node_bits
    }

    /// The ground-truth actual bitmap of every event (resolved once).
    #[inline]
    pub fn actuals(&self) -> &[SharingBitmap] {
        self.resolved.actuals()
    }

    /// The invalidation feedback of every event.
    #[inline]
    pub fn invalidated(&self) -> &[SharingBitmap] {
        self.resolved.invalidated()
    }

    /// Whether each event has a previous writer.
    #[inline]
    pub fn has_prev(&self) -> &[bool] {
        self.resolved.has_prev()
    }

    /// The key stream for `index`, computing it on first request and
    /// serving every later request (from any thread) out of the cache.
    ///
    /// # Panics
    ///
    /// Panics if the internal cache lock was poisoned, which requires a
    /// panic *inside* this method on another thread (key computation
    /// happens outside the lock).
    pub fn key_stream(&self, index: IndexSpec) -> Arc<KeyStream> {
        if let Some(stream) = self
            .streams
            .lock()
            .expect("key-stream cache poisoned")
            .get(&index)
        {
            return Arc::clone(stream);
        }
        // Compute outside the lock: a long build must not serialize other
        // indexes' lookups. Two threads racing on the same index both
        // compute; the first insert wins and both results are identical.
        let computed = Arc::new(self.build_stream(index));
        let mut cache = self.streams.lock().expect("key-stream cache poisoned");
        // Bound the cache: a full design-space sweep visits hundreds of
        // indexes, and an unbounded cache would hold every one of their
        // column sets for the whole sweep. Eviction is coarse (drop
        // everything) because sweeps touch indexes in clusters; streams
        // still in use stay alive through their `Arc`s.
        if cache.len() >= STREAM_CACHE_CAP && !cache.contains_key(&index) {
            cache.clear();
        }
        Arc::clone(cache.entry(index).or_insert(computed))
    }

    /// Groups `specs` by the slot partition they induce on this trace:
    /// entry `i` of the result is the position in `specs` of the first
    /// spec whose signature (the dense slot of every tuple, see the
    /// module docs) equals spec `i`'s, so a spec that starts its own class
    /// maps to itself.
    ///
    /// Specs in one class give every event the same slot and forward
    /// slot, so their key streams differ only in key values, which no
    /// kernel reads: every scheme over them scores identically. Specs in
    /// different classes differ in the slot of at least one tuple, hence
    /// of at least one event. Classes are decided by exact equality of
    /// the signature vectors; a hash only picks the candidates.
    pub fn partition_classes(&self, specs: &[IndexSpec]) -> Vec<usize> {
        let table = self.tuples();
        // A field truncated to at least its widest value's bit length
        // keeps every value, so such a spec induces the same partition as
        // its narrowest such truncation: specs that agree after clamping
        // share a class without a second signature.
        let widest = |v: u64| (u64::BITS - v.leading_zeros()) as u8;
        let pc_width = widest(
            table
                .tuples
                .iter()
                .map(|t| u64::from(t.pc.0))
                .max()
                .unwrap_or(0),
        );
        let line_width = widest(table.tuples.iter().map(|t| t.line.0).max().unwrap_or(0));
        let mut by_clamped: HashMap<IndexSpec, usize, FxBuildHasher> = HashMap::default();
        let mut by_signature: HashMap<Vec<u32>, usize, FxBuildHasher> = HashMap::default();
        specs
            .iter()
            .enumerate()
            .map(|(i, &spec)| {
                let clamped = IndexSpec {
                    pc_bits: spec.pc_bits.min(pc_width),
                    addr_bits: spec.addr_bits.min(line_width),
                    ..spec
                };
                *by_clamped.entry(clamped).or_insert_with(|| {
                    let (signature, _) = table.slots(spec, self.node_bits);
                    *by_signature.entry(signature).or_insert(i)
                })
            })
            .collect()
    }

    /// The tuple table, built on first use.
    fn tuples(&self) -> &TupleTable {
        self.tuples.get_or_init(|| TupleTable::new(self.trace()))
    }

    /// The predictor key ([`IndexSpec::key_of`]) and the forward key
    /// ([`IndexSpec::forward_key_of`]) of each event in `events`, gathered
    /// through the tuple table. An event without a previous writer has
    /// forward key 0. No kernel reads key values, so a [`KeyStream`] keeps
    /// none; the serving engine's op stream, which addresses entries by
    /// key, gathers them here for the events it replays.
    ///
    /// # Panics
    ///
    /// Panics if `events` is out of bounds.
    pub fn event_keys(&self, index: IndexSpec, events: Range<usize>) -> (Vec<u64>, Vec<u64>) {
        let table = self.tuples();
        let keys = |ids: &[u32]| -> Vec<u64> {
            ids[events.clone()]
                .iter()
                .map(|&id| table.key_of(id, index, self.node_bits))
                .collect()
        };
        (keys(&table.ids), keys(&table.forward_ids))
    }

    /// Builds the key stream for `index` (uncached): the spec's per-tuple
    /// slots, gathered to every event through the tuple ids.
    fn build_stream(&self, index: IndexSpec) -> KeyStream {
        let table = self.tuples();
        let (tuple_slots, slot_count) = table.slots(index, self.node_bits);
        let slots = gather(&tuple_slots, &table.ids);
        // Forward slots of events without a previous writer hold the
        // sentinel's 0 and are never read: every consumer gates on the
        // event's `has_prev` column.
        let forward_slots = gather(&tuple_slots, &table.forward_ids);
        KeyStream {
            index,
            slot_count,
            slots,
            forward_slots,
        }
    }

    /// Drops the cached key stream for `index`, if any, returning whether
    /// one was cached. Sweep planners call this when no further scheme of
    /// the sweep will need the index, keeping a long sweep's footprint at
    /// `O(live groups)` instead of `O(all indexes)`. Dropping is safe at
    /// any time: callers holding the stream's `Arc` keep it alive, and a
    /// later request simply recomputes.
    pub fn evict_stream(&self, index: IndexSpec) -> bool {
        self.streams
            .lock()
            .expect("key-stream cache poisoned")
            .remove(&index)
            .is_some()
    }

    /// Number of key streams currently cached (diagnostics / tests).
    ///
    /// # Panics
    ///
    /// Panics if the internal cache lock was poisoned (see
    /// [`PreparedTrace::key_stream`]).
    pub fn cached_streams(&self) -> usize {
        self.streams
            .lock()
            .expect("key-stream cache poisoned")
            .len()
    }
}

// Sweep workers share one PreparedTrace per benchmark across threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PreparedTrace<'static>>();
    assert_send_sync::<KeyStream>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use csp_trace::{LineAddr, NodeId, Pc, SharingEvent};

    fn sample_trace() -> Trace {
        let mut t = Trace::new(16);
        let mut prev: Option<(NodeId, Pc)> = None;
        for i in 0..20u64 {
            let writer = NodeId((i % 3) as u8);
            let pc = Pc(0x40 + (i % 2) as u32);
            let inv = if prev.is_some() {
                SharingBitmap::from_nodes(&[NodeId(((i + 5) % 16) as u8)])
            } else {
                SharingBitmap::empty()
            };
            t.push(SharingEvent::new(
                writer,
                pc,
                LineAddr(i % 4),
                NodeId((i % 4) as u8),
                inv,
                prev,
            ));
            prev = Some((writer, pc));
        }
        t.set_final_readers(LineAddr(1), SharingBitmap::from_nodes(&[NodeId(9)]));
        t
    }

    #[test]
    fn key_stream_matches_per_event_key_of() {
        let trace = sample_trace();
        let nb = crate::index::node_bits(trace.nodes());
        for index in [
            IndexSpec::new(true, 8, false, 0),
            IndexSpec::new(false, 0, true, 4),
            IndexSpec::new(true, 4, true, 6),
            IndexSpec::none(),
        ] {
            let stream = KeyStream::compute(&trace, index);
            assert_eq!(stream.index(), index);
            assert_eq!(stream.len(), trace.len());
            let (keys, forward_keys) = PreparedTrace::new(&trace).event_keys(index, 0..trace.len());
            // Slots numbered by first occurrence over each event's
            // predictor key, then its forward key.
            let mut want: HashMap<u64, u32> = HashMap::new();
            let mut slot_of = |key: u64| {
                let next = want.len() as u32;
                *want.entry(key).or_insert(next)
            };
            for (i, event) in trace.events().iter().enumerate() {
                let key = index.key_of(event, nb);
                assert_eq!(keys[i], key, "event {i}");
                assert_eq!(stream.slots()[i], slot_of(key), "slot {i}");
                match index.forward_key_of(event, nb) {
                    Some(fkey) => {
                        assert_eq!(forward_keys[i], fkey, "forward {i}");
                        assert_eq!(stream.forward_slots()[i], slot_of(fkey), "forward slot {i}");
                    }
                    None => assert_eq!(stream.forward_slots()[i], 0, "sentinel {i}"),
                }
            }
            assert_eq!(stream.slot_count(), want.len());
        }
    }

    #[test]
    fn prepared_trace_caches_streams() {
        let trace = sample_trace();
        let prepared = PreparedTrace::new(&trace);
        assert_eq!(prepared.cached_streams(), 0);
        let ix = IndexSpec::new(true, 8, false, 0);
        let a = prepared.key_stream(ix);
        let b = prepared.key_stream(ix);
        assert!(Arc::ptr_eq(&a, &b), "same index must share one stream");
        assert_eq!(prepared.cached_streams(), 1);
        let _ = prepared.key_stream(IndexSpec::none());
        assert_eq!(prepared.cached_streams(), 2);
    }

    #[test]
    fn prepared_columns_match_trace() {
        let trace = sample_trace();
        let prepared = PreparedTrace::new(&trace);
        assert_eq!(prepared.len(), trace.len());
        assert_eq!(prepared.nodes(), 16);
        assert_eq!(prepared.node_bits(), 4);
        assert_eq!(prepared.actuals(), trace.resolve_actuals().as_slice());
        for (i, e) in trace.events().iter().enumerate() {
            assert_eq!(prepared.invalidated()[i], e.invalidated);
            assert_eq!(prepared.has_prev()[i], e.prev_writer.is_some());
        }
    }

    #[test]
    fn empty_trace_prepares_cleanly() {
        let trace = Trace::new(4);
        let prepared = PreparedTrace::new(&trace);
        assert!(prepared.is_empty());
        let stream = prepared.key_stream(IndexSpec::new(true, 2, false, 2));
        assert!(stream.is_empty());
        assert_eq!(stream.slot_count(), 0);
    }
}
