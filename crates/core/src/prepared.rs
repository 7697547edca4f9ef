//! The prepared-evaluation layer: per-trace resolution and per-index key
//! streams, computed once and shared across every scheme of a sweep.
//!
//! A design-space sweep evaluates hundreds of schemes per trace, and
//! dozens of them share one [`IndexSpec`]. Evaluated one at a time (as
//! [`crate::reference`] does), each would re-resolve the ground-truth
//! actuals and recompute `key_of`/`forward_key_of` for every event. This
//! module computes both once:
//!
//! * [`KeyStream`] — the predictor keys (and forward keys) of every event
//!   under one [`IndexSpec`], as flat `Vec<u64>` columns, plus a dense
//!   slot remap and the slot-major views the kernel walks;
//! * [`PreparedTrace`] — a [`ResolvedTrace`] (actuals / feedback /
//!   previous-writer columns, resolved once) plus a concurrent cache of
//!   [`KeyStream`]s keyed by [`IndexSpec`], shared by reference across
//!   every scheme in a sweep.
//!
//! The engine entry points ([`crate::engine::run_scheme_prepared`],
//! [`crate::engine::run_history_family_prepared`]) consume these columns
//! and are bit-identical to the reference — the equivalence suite in
//! `tests/prepared_equivalence.rs` pins that.

use crate::hash::FxBuildHasher;
use crate::IndexSpec;
use csp_trace::{ResolvedTrace, SharingBitmap, Trace};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Most key streams a [`PreparedTrace`] keeps cached at once. Sized for
/// the sweep planners, which walk the design space in index clusters and
/// evict behind themselves; the cap only matters for callers that touch
/// many indexes without evicting.
const STREAM_CACHE_CAP: usize = 8;

/// The key columns of one trace under one [`IndexSpec`]: everything the
/// per-event loop needs from the access axis, computed in a single pass.
///
/// # Example
///
/// ```
/// use csp_core::{IndexSpec, KeyStream};
/// use csp_trace::{LineAddr, NodeId, Pc, SharingBitmap, SharingEvent, Trace};
///
/// let mut t = Trace::new(16);
/// t.push(SharingEvent::new(NodeId(3), Pc(0x1ab), LineAddr(9), NodeId(0),
///                          SharingBitmap::empty(), None));
/// let stream = KeyStream::compute(&t, IndexSpec::new(true, 8, false, 0));
/// assert_eq!(stream.keys(), &[(3 << 8) | 0xab]);
/// assert_eq!(stream.slot_count(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct KeyStream {
    index: IndexSpec,
    keys: Vec<u64>,
    forward_keys: Vec<u64>,
    slot_count: usize,
    slot_starts: Vec<u32>,
    slot_events: Vec<u32>,
    slot_data: Vec<SlotData>,
    op_starts: Vec<u32>,
    ops: Vec<u32>,
    op_data: Vec<SharingBitmap>,
}

/// Everything the slot-major family loop needs about one event, gathered
/// into slot order so the hot loop streams through memory instead of
/// chasing event indices back into the event-order columns.
#[derive(Clone, Copy, Debug)]
pub struct SlotData {
    /// The event's ground-truth actual bitmap (what to score, and the
    /// *ordered*-update feedback).
    pub actual: SharingBitmap,
    /// The event's invalidation feedback (the *direct*-update feedback).
    pub feedback: SharingBitmap,
    /// Whether the event has a previous writer (gates the direct-update
    /// push).
    pub has_prev: bool,
}

impl KeyStream {
    /// Computes the key columns of `trace` under `index`: one
    /// [`IndexSpec::key_of`] / [`IndexSpec::forward_key_of`] pass.
    ///
    /// This is the *single* key-derivation implementation in the
    /// workspace: the offline engine, the sweep planner and the online
    /// serving engine (`csp-serve`) all replay keys from here, so they
    /// cannot drift apart.
    pub fn compute(trace: &Trace, index: IndexSpec) -> Self {
        Self::compute_with_actuals(trace, index, &trace.resolve_actuals())
    }

    /// [`KeyStream::compute`] with the trace's actuals already resolved —
    /// the entry point [`PreparedTrace::key_stream`] uses so that one
    /// resolution pass serves every index of a sweep. `actuals` must be
    /// `trace.resolve_actuals()` (one bitmap per event).
    ///
    /// # Panics
    ///
    /// Panics if `actuals` is not one bitmap per trace event.
    pub fn compute_with_actuals(
        trace: &Trace,
        index: IndexSpec,
        actuals: &[SharingBitmap],
    ) -> Self {
        assert_eq!(
            actuals.len(),
            trace.len(),
            "actuals must be one bitmap per event"
        );
        let node_bits = crate::index::node_bits(trace.nodes());
        let mut keys = Vec::with_capacity(trace.len());
        let mut forward_keys = Vec::with_capacity(trace.len());
        let mut slots = Vec::with_capacity(trace.len());
        let mut forward_slots = Vec::with_capacity(trace.len());
        // One remap over the *union* of predictor and forward keys assigns
        // each distinct key a dense slot id: a forwarded update and a later
        // prediction through the same index value must land on the same
        // entry, so both key kinds share one id space.
        let mut remap: HashMap<u64, u32, FxBuildHasher> = HashMap::default();
        let mut has_prev = Vec::with_capacity(trace.len());
        for event in trace.events() {
            let key = index.key_of(event, node_bits);
            let next = remap.len() as u32;
            let slot = *remap.entry(key).or_insert(next);
            keys.push(key);
            slots.push(slot);
            // Slots without a previous writer hold 0 and are never read:
            // every consumer gates on the event's `has_prev` column.
            match index.forward_key_of(event, node_bits) {
                Some(fkey) => {
                    let next = remap.len() as u32;
                    let fslot = *remap.entry(fkey).or_insert(next);
                    forward_keys.push(fkey);
                    forward_slots.push(fslot);
                    has_prev.push(true);
                }
                None => {
                    forward_keys.push(0);
                    forward_slots.push(0);
                    has_prev.push(false);
                }
            }
        }
        let slot_count = remap.len();
        let (slot_starts, slot_events) = events_by_slot(&slots, slot_count);
        let (op_starts, ops) = ops_by_slot(&slots, &forward_slots, &has_prev, slot_count);
        // Gather the per-event payloads into slot/op order once, so the
        // slot-major loops stream through contiguous memory instead of
        // scattering loads across the event-order columns for every
        // scheme of the sweep.
        let events = trace.events();
        let slot_data = slot_events
            .iter()
            .map(|&e| {
                let e = e as usize;
                SlotData {
                    actual: actuals[e],
                    feedback: events[e].invalidated,
                    has_prev: has_prev[e],
                }
            })
            .collect();
        let op_data = ops
            .iter()
            .map(|&op| {
                let e = (op >> 1) as usize;
                if op & 1 == 0 {
                    events[e].invalidated
                } else {
                    actuals[e]
                }
            })
            .collect();
        KeyStream {
            index,
            keys,
            forward_keys,
            slot_count,
            slot_starts,
            slot_events,
            slot_data,
            op_starts,
            ops,
            op_data,
        }
    }

    /// The index specification this stream was computed for.
    #[inline]
    pub fn index(&self) -> IndexSpec {
        self.index
    }

    /// The predictor key of every event ([`IndexSpec::key_of`]), in event
    /// order.
    #[inline]
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// The forward key of every event ([`IndexSpec::forward_key_of`]), in
    /// event order. A slot is meaningful only where the event has a
    /// previous writer (see [`ResolvedTrace::has_prev`]); other slots are 0.
    #[inline]
    pub fn forward_keys(&self) -> &[u64] {
        &self.forward_keys
    }

    /// Number of events in the stream.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Returns `true` for an empty trace.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Number of dense slots: the distinct keys in the union of the
    /// predictor and forward key columns, one per predictor entry the
    /// trace touches.
    #[inline]
    pub fn slot_count(&self) -> usize {
        self.slot_count
    }

    /// The events of `slot`, in event order — the slot-major view of the
    /// stream. An event's predictor-table interactions touch only its own
    /// slot's entry (for `direct`/`ordered` updates), so a loop over
    /// slots that replays each slot's events against one *local* entry
    /// visits exactly the entry states the event-order loop would, with
    /// the entry register-resident instead of randomly probed.
    #[inline]
    pub fn slot_events(&self, slot: usize) -> &[u32] {
        &self.slot_events[self.slot_starts[slot] as usize..self.slot_starts[slot + 1] as usize]
    }

    /// The payloads of [`KeyStream::slot_events`] — actual, feedback and
    /// previous-writer flag of each of `slot`'s events, in event order,
    /// pre-gathered so the slot-major loop reads contiguously.
    #[inline]
    pub fn slot_data(&self, slot: usize) -> &[SlotData] {
        &self.slot_data[self.slot_starts[slot] as usize..self.slot_starts[slot + 1] as usize]
    }

    /// The table interactions targeting `slot` under *forwarded* update,
    /// in event order: `op >> 1` is the event index, and the low bit
    /// distinguishes a feedback push through the event's forward key
    /// (`0`) from a prediction/score through its predictor key (`1`). A
    /// forwarded event touches up to two slots (update via forward key,
    /// predict via its own), so the slot-major view needs this merged
    /// sequence rather than [`KeyStream::slot_events`].
    #[inline]
    pub fn slot_ops(&self, slot: usize) -> &[u32] {
        &self.ops[self.op_starts[slot] as usize..self.op_starts[slot + 1] as usize]
    }

    /// The payloads of [`KeyStream::slot_ops`], parallel to them: a push
    /// op's invalidation feedback, or a score op's actual bitmap.
    #[inline]
    pub fn slot_op_data(&self, slot: usize) -> &[SharingBitmap] {
        &self.op_data[self.op_starts[slot] as usize..self.op_starts[slot + 1] as usize]
    }
}

/// CSR layout of event indices grouped by slot, preserving event order
/// within each slot.
fn events_by_slot(slots: &[u32], slot_count: usize) -> (Vec<u32>, Vec<u32>) {
    let mut starts = vec![0u32; slot_count + 1];
    for &s in slots {
        starts[s as usize + 1] += 1;
    }
    for i in 0..slot_count {
        starts[i + 1] += starts[i];
    }
    let mut cursor = starts.clone();
    let mut events = vec![0u32; slots.len()];
    for (e, &s) in slots.iter().enumerate() {
        let c = &mut cursor[s as usize];
        events[*c as usize] = e as u32;
        *c += 1;
    }
    (starts, events)
}

/// CSR layout of forwarded-update table interactions grouped by target
/// slot: for each event, a push op through its forward slot (where it has
/// a previous writer) followed by a score op through its own slot. The
/// scatter walks events in order, so within a slot ops stay in event
/// order and a same-event push precedes its score — exactly the
/// event-order update-then-predict sequence.
fn ops_by_slot(
    slots: &[u32],
    forward_slots: &[u32],
    has_prev: &[bool],
    slot_count: usize,
) -> (Vec<u32>, Vec<u32>) {
    let mut starts = vec![0u32; slot_count + 1];
    for e in 0..slots.len() {
        if has_prev[e] {
            starts[forward_slots[e] as usize + 1] += 1;
        }
        starts[slots[e] as usize + 1] += 1;
    }
    for i in 0..slot_count {
        starts[i + 1] += starts[i];
    }
    let mut cursor = starts.clone();
    let mut ops = vec![0u32; starts[slot_count] as usize];
    for e in 0..slots.len() {
        if has_prev[e] {
            let c = &mut cursor[forward_slots[e] as usize];
            ops[*c as usize] = (e as u32) << 1;
            *c += 1;
        }
        let c = &mut cursor[slots[e] as usize];
        ops[*c as usize] = ((e as u32) << 1) | 1;
        *c += 1;
    }
    (starts, ops)
}

/// A trace prepared for repeated evaluation: ground truth resolved once,
/// key streams computed once per [`IndexSpec`] and shared by reference.
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
    streams: Mutex<HashMap<IndexSpec, Arc<KeyStream>>>,
}

impl<'t> PreparedTrace<'t> {
    /// Prepares `trace`: resolves the actuals and flattens the per-event
    /// columns, once.
    pub fn new(trace: &'t Trace) -> Self {
        PreparedTrace {
            resolved: ResolvedTrace::new(trace),
            node_bits: crate::index::node_bits(trace.nodes()),
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
        let computed = Arc::new(KeyStream::compute_with_actuals(
            self.trace(),
            index,
            self.actuals(),
        ));
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
            for (i, event) in trace.events().iter().enumerate() {
                assert_eq!(stream.keys()[i], index.key_of(event, nb), "event {i}");
                if let Some(fkey) = index.forward_key_of(event, nb) {
                    assert_eq!(stream.forward_keys()[i], fkey, "forward {i}");
                }
            }
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
