//! Predictor tables: the online form of one global predictor, a sparse
//! map from index key to the kernel's entry state.

use crate::arena::SlotIndex;
use crate::entry::Ring;
use crate::kernel::{with_entry, Entry, WithEntry};
use crate::{PredictionFunction, RawEntry, Scheme};
use csp_trace::SharingBitmap;
use std::fmt;

/// The state of one global predictor: a sparse map from index key to entry.
///
/// The table allocates entries lazily (only for keys that are touched), so
/// even a 24-bit index costs only as much as the distinct keys the trace
/// exercises. Prediction on a cold (never-updated) entry yields the empty
/// bitmap — a cold predictor forwards nothing.
///
/// The entries are the offline kernel's own states, so a served table
/// predicts through the same folds and PAs math the offline scorers run.
/// An open-addressing key index maps each touched key to a dense slot
/// of one state vector, whose entry type is chosen once, at
/// construction, by prediction function and depth: each predict or
/// update is one index probe and one call through that choice.
///
/// # Example
///
/// ```
/// use csp_core::{PredictorTable, Scheme};
/// use csp_trace::{NodeId, SharingBitmap};
///
/// let scheme: Scheme = "union(pid+add4)2[direct]".parse()?;
/// let mut t = PredictorTable::new(&scheme, 16);
/// assert!(t.predict(7).is_empty()); // cold
/// t.update(7, SharingBitmap::from_nodes(&[NodeId(2)]));
/// t.update(7, SharingBitmap::from_nodes(&[NodeId(3)]));
/// assert_eq!(t.predict(7).count(), 2); // union of the two feedbacks
/// # Ok::<(), csp_core::ParseSchemeError>(())
/// ```
#[derive(Clone)]
pub struct PredictorTable {
    function: PredictionFunction,
    depth: usize,
    nodes: usize,
    index: SlotIndex,
    states: Box<dyn States>,
}

/// The entry states of one table, one per slot, behind the entry type
/// chosen at construction.
trait States: Send + Sync {
    fn predict(&self, slot: usize) -> SharingBitmap;
    /// Trains `slot`'s entry; `slot` may be the next new one, which
    /// starts cold.
    fn update(&mut self, slot: usize, feedback: SharingBitmap);
    fn to_raw(&self, slot: usize) -> RawEntry;
    /// Replaces `slot`'s entry (or appends the next new one) with raw
    /// state; on error nothing changes.
    fn load_raw(&mut self, slot: usize, raw: &RawEntry) -> Result<(), String>;
    fn clone_box(&self) -> Box<dyn States>;
}

impl Clone for Box<dyn States> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// One entry state per slot, each beside the ring position its raw form
/// records (always zero for PAs, which has no ring).
#[derive(Clone)]
struct Slots<E> {
    cold: E,
    entries: Vec<(E, Ring)>,
}

impl<E: Entry> States for Slots<E> {
    #[inline]
    fn predict(&self, slot: usize) -> SharingBitmap {
        self.entries[slot].0.predict()
    }

    #[inline]
    fn update(&mut self, slot: usize, feedback: SharingBitmap) {
        if slot == self.entries.len() {
            self.entries.push((self.cold, Ring::default()));
        }
        let (entry, ring) = &mut self.entries[slot];
        entry.train(feedback);
        if E::RING > 0 {
            ring.advance(E::RING);
        }
    }

    fn to_raw(&self, slot: usize) -> RawEntry {
        let (entry, ring) = &self.entries[slot];
        entry.to_raw(*ring)
    }

    fn load_raw(&mut self, slot: usize, raw: &RawEntry) -> Result<(), String> {
        let mut entry = self.cold;
        let ring = entry.load_raw(raw)?;
        if slot == self.entries.len() {
            self.entries.push((entry, ring));
        } else {
            self.entries[slot] = (entry, ring);
        }
        Ok(())
    }

    fn clone_box(&self) -> Box<dyn States> {
        Box::new(self.clone())
    }
}

/// Builds the empty state vector for the entry type [`with_entry`] picks.
struct EmptyStates;

impl WithEntry for EmptyStates {
    type Out = Box<dyn States>;
    fn run<E: Entry>(self, cold: E) -> Box<dyn States> {
        Box::new(Slots {
            cold,
            entries: Vec::new(),
        })
    }
}

impl PredictorTable {
    /// Creates an empty table for `scheme` on an `nodes`-node machine.
    pub fn new(scheme: &Scheme, nodes: usize) -> Self {
        // `overlap-last` stores the last two bitmaps.
        let depth = match scheme.function {
            PredictionFunction::OverlapLast => 2,
            _ => scheme.depth,
        };
        PredictorTable {
            function: scheme.function,
            depth,
            nodes,
            index: SlotIndex::default(),
            states: with_entry(scheme, nodes, EmptyStates),
        }
    }

    /// The predicted reader bitmap for `key` (empty if the entry is cold).
    #[inline]
    pub fn predict(&self, key: u64) -> SharingBitmap {
        match self.index.get(key) {
            None => SharingBitmap::empty(),
            Some(slot) => self.states.predict(slot),
        }
    }

    /// Delivers a feedback bitmap to the entry for `key`, creating it if
    /// needed.
    #[inline]
    pub fn update(&mut self, key: u64, feedback: SharingBitmap) {
        let slot = self.index.slot_or_insert(key);
        self.states.update(slot, feedback);
    }

    /// Whether this table stores history entries (`true`) or two-level
    /// PAs entries (`false`).
    pub fn uses_history(&self) -> bool {
        self.function.uses_history()
    }

    /// The history depth entries of this table carry.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The machine width the table was created for.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Every allocated entry as `(key, raw state)`, in arbitrary order.
    /// Serialization callers that need a canonical byte stream should
    /// sort by key.
    pub fn entries(&self) -> impl Iterator<Item = (u64, RawEntry)> + '_ {
        self.index
            .iter()
            .map(|(key, slot)| (key, self.states.to_raw(slot)))
    }

    /// Inserts an entry from raw state under `key` (the restore half of
    /// [`entries`](Self::entries); replaces any existing entry).
    ///
    /// # Errors
    ///
    /// Rejects an entry of the wrong storage family for this table's
    /// prediction function, of another depth or machine width, or one no
    /// sequence of updates could produce — the corruption classes a
    /// snapshot decoder cannot rule out on its own. A rejected entry
    /// leaves the table unchanged.
    pub fn insert_entry(&mut self, key: u64, entry: RawEntry) -> Result<(), String> {
        let slot = self.index.get(key).unwrap_or(self.index.len());
        self.states.load_raw(slot, &entry)?;
        self.index.slot_or_insert(key);
        Ok(())
    }

    /// Number of entries allocated so far (distinct keys touched).
    pub fn entries_touched(&self) -> usize {
        self.index.len()
    }

    /// Splits an empty table into `shards` independent shard tables.
    ///
    /// A sharded deployment (e.g. `csp-serve`) routes every key to the
    /// shard [`shard_of_key`] names and keeps one of these tables per
    /// shard. Because an entry's state depends only on the ordered
    /// sequence of updates to *its own key*, running each shard
    /// independently — as long as per-key operation order is preserved —
    /// produces bit-identical predictions to one global table.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn split(scheme: &Scheme, nodes: usize, shards: usize) -> Vec<PredictorTable> {
        assert!(shards > 0, "need at least one shard");
        (0..shards)
            .map(|_| PredictorTable::new(scheme, nodes))
            .collect()
    }

    /// Merges the entries of `other` into `self` (used to fold shard
    /// tables back into one global table, e.g. for snapshots).
    ///
    /// The two tables must come from the same scheme; keys present in
    /// both (impossible under disjoint shard routing) keep `other`'s
    /// entry.
    ///
    /// # Panics
    ///
    /// Panics if the tables use different storage kinds (different
    /// prediction-function families) or depths.
    pub fn absorb(&mut self, other: PredictorTable) {
        assert!(
            self.uses_history() == other.uses_history(),
            "cannot absorb a table of a different storage kind"
        );
        for (key, entry) in other.entries() {
            if let Err(e) = self.insert_entry(key, entry) {
                panic!("cannot absorb a table of a different storage kind: {e}");
            }
        }
    }
}

impl fmt::Debug for PredictorTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PredictorTable")
            .field("function", &self.function)
            .field("depth", &self.depth)
            .field("nodes", &self.nodes)
            .field("entries", &self.index.len())
            .finish_non_exhaustive()
    }
}

/// The shard that owns `key` in an `shards`-way partitioned predictor.
///
/// Fibonacci multiplicative spreading before the modulo, so that keys
/// whose low bits carry structured fields (truncated `addr`/`pc`) still
/// distribute evenly across any shard count.
///
/// # Panics
///
/// Panics (in debug builds) if `shards` is zero.
#[inline]
pub fn shard_of_key(key: u64, shards: usize) -> usize {
    debug_assert!(shards > 0, "need at least one shard");
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17) as usize % shards
}

// Shard workers move tables across threads; keep that possibility pinned
// at compile time.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PredictorTable>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RawHistoryEntry, RawPasEntry, MAX_DEPTH};
    use csp_trace::NodeId;
    use proptest::prelude::*;

    fn bm(nodes: &[u8]) -> SharingBitmap {
        nodes.iter().map(|&n| NodeId(n)).collect()
    }

    fn table(spec: &str) -> PredictorTable {
        PredictorTable::new(&spec.parse().unwrap(), 16)
    }

    /// The raw state of `key`'s entry.
    fn raw_of(t: &PredictorTable, key: u64) -> RawEntry {
        t.entries()
            .find_map(|(k, raw)| (k == key).then_some(raw))
            .expect("entry exists")
    }

    #[test]
    fn cold_entries_predict_empty() {
        for spec in [
            "last()1",
            "union(pid)2",
            "inter(pid)4",
            "pas(pid)2",
            "overlap-last(pid)",
        ] {
            assert!(table(spec).predict(0).is_empty(), "{spec} cold prediction");
        }
    }

    #[test]
    fn last_predicts_most_recent() {
        let mut t = table("last(pid)1");
        t.update(1, bm(&[2]));
        t.update(1, bm(&[5]));
        assert_eq!(t.predict(1), bm(&[5]));
        assert!(t.predict(2).is_empty()); // other key untouched
    }

    #[test]
    fn union_and_inter_over_depth() {
        let mut u = table("union(pid)3");
        let mut i = table("inter(pid)3");
        for f in [bm(&[1, 2]), bm(&[2, 3]), bm(&[2, 4])] {
            u.update(0, f);
            i.update(0, f);
        }
        assert_eq!(u.predict(0), bm(&[1, 2, 3, 4]));
        assert_eq!(i.predict(0), bm(&[2]));
    }

    #[test]
    fn depth_window_slides() {
        let mut u = table("union(pid)2");
        u.update(0, bm(&[1]));
        u.update(0, bm(&[2]));
        u.update(0, bm(&[3]));
        assert_eq!(u.predict(0), bm(&[2, 3])); // {1} aged out
    }

    #[test]
    fn partial_history_unions_but_does_not_intersect() {
        let mut u = table("union(pid)4");
        let mut i = table("inter(pid)4");
        u.update(0, bm(&[1, 2]));
        i.update(0, bm(&[1, 2]));
        // Union folds over whatever exists; intersection waits for a full
        // history (empty slots are all-zeros).
        assert_eq!(u.predict(0), bm(&[1, 2]));
        assert!(i.predict(0).is_empty());
        for _ in 0..3 {
            i.update(0, bm(&[1, 2]));
        }
        assert_eq!(i.predict(0), bm(&[1, 2]));
    }

    #[test]
    fn overlap_last_gates_on_overlap() {
        let mut t = table("overlap-last(pid)");
        t.update(0, bm(&[1]));
        assert!(t.predict(0).is_empty()); // needs two bitmaps
        t.update(0, bm(&[1, 2]));
        t.update(0, bm(&[2, 3]));
        assert_eq!(t.predict(0), bm(&[2, 3]));
        t.update(0, bm(&[9]));
        assert!(t.predict(0).is_empty());
    }

    #[test]
    fn pas_trains_per_key() {
        let mut t = table("pas(pid)2");
        for _ in 0..4 {
            t.update(3, bm(&[7]));
        }
        assert_eq!(t.predict(3), bm(&[7]));
        assert!(t.predict(4).is_empty());
        assert_eq!(t.entries_touched(), 1);
    }

    #[test]
    fn pas_learns_alternating_pattern() {
        // Node 3 reads every other interval: 1,0,1,0,... With depth 2 the
        // PAs can learn both contexts (01 -> 0, 10 -> 1).
        let mut t = table("pas(pid)2");
        for _ in 0..12 {
            t.update(0, bm(&[3]));
            t.update(0, SharingBitmap::empty());
        }
        // After an `off` the history is ..10 -> next is `on`.
        assert!(t.predict(0).contains(NodeId(3)));
        t.update(0, bm(&[3])); // history ..01 -> next is `off`
        assert!(!t.predict(0).contains(NodeId(3)));
    }

    #[test]
    fn pas_counters_saturate() {
        let mut t = PredictorTable::new(&"pas(pid)1".parse().unwrap(), 4);
        for _ in 0..100 {
            t.update(0, bm(&[0]));
        }
        assert!(t.predict(0).contains(NodeId(0)));
        // One disagreement must not unlearn the saturated pattern: once the
        // sharing context recurs, the prediction persists.
        t.update(0, SharingBitmap::empty());
        t.update(0, bm(&[0]));
        assert!(t.predict(0).contains(NodeId(0)));
    }

    /// Every history function at every depth against a newest-first
    /// deque model: the prediction, and the raw ring read back from its
    /// head (a regression guard for the ring position a table keeps).
    #[test]
    fn ring_matches_deque_model_at_every_depth() {
        use std::collections::VecDeque;
        let mut specs = vec!["last(pid)".to_string(), "overlap-last(pid)".to_string()];
        for depth in 1..=MAX_DEPTH {
            specs.push(format!("union(pid){depth}"));
            specs.push(format!("inter(pid){depth}"));
        }
        for spec in specs {
            let scheme: Scheme = spec.parse().unwrap();
            let mut t = PredictorTable::new(&scheme, 64);
            let depth = t.depth();
            let mut model: VecDeque<SharingBitmap> = VecDeque::new();
            for step in 0..3 * MAX_DEPTH as u64 + 1 {
                let fb = SharingBitmap::from_bits(step.wrapping_mul(0x9E37_79B9) | 1);
                t.update(0, fb);
                model.push_front(fb);
                model.truncate(depth);

                let RawEntry::History(raw) = raw_of(&t, 0) else {
                    panic!("{spec}: not a history entry");
                };
                assert_eq!(raw.depth as usize, depth, "{spec} step {step}");
                assert_eq!(raw.len as usize, model.len(), "{spec} step {step}");
                let ring: Vec<_> = (0..model.len())
                    .map(|i| raw.bitmaps[(raw.head as usize + depth - i) % depth])
                    .collect();
                assert!(
                    ring.iter().eq(model.iter()),
                    "{spec} step {step}: ring order"
                );

                let union = model.iter().fold(SharingBitmap::empty(), |a, &b| a | b);
                let want = match scheme.function {
                    PredictionFunction::Last => model[0],
                    PredictionFunction::Union => union,
                    PredictionFunction::Inter if model.len() == depth => {
                        model.iter().fold(model[0], |a, &b| a & b)
                    }
                    PredictionFunction::OverlapLast if model.len() == 2 => {
                        if model[0].overlaps(model[1]) {
                            model[0]
                        } else {
                            SharingBitmap::empty()
                        }
                    }
                    _ => SharingBitmap::empty(),
                };
                assert_eq!(t.predict(0), want, "{spec} step {step}");
            }
        }
    }

    #[test]
    fn history_raw_round_trip_is_exact() {
        for depth in 1..=MAX_DEPTH {
            let scheme: Scheme = format!("inter(pid){depth}").parse().unwrap();
            let mut t = PredictorTable::new(&scheme, 64);
            for i in 0..2 * depth as u64 + 1 {
                t.update(9, SharingBitmap::from_bits(i.wrapping_mul(0x1234_5677) | 1));
                let raw = raw_of(&t, 9);
                let mut back = PredictorTable::new(&scheme, 64);
                back.insert_entry(9, raw.clone())
                    .expect("own raw state is valid");
                assert_eq!(raw_of(&back, 9), raw, "depth {depth} step {i}");
                assert_eq!(back.predict(9), t.predict(9), "depth {depth} step {i}");
                // The restored entry keeps training like the original.
                let fb = SharingBitmap::from_bits(i + 7);
                t.update(9, fb);
                back.update(9, fb);
                assert_eq!(raw_of(&back, 9), raw_of(&t, 9), "depth {depth} step {i}");
            }
        }
    }

    #[test]
    fn insert_entry_rejects_impossible_history() {
        let cold = RawHistoryEntry {
            bitmaps: [SharingBitmap::empty(); MAX_DEPTH],
            depth: 4,
            len: 0,
            head: 0,
        };
        let one = RawHistoryEntry {
            len: 1,
            head: 1,
            ..cold
        };
        let with = |mut raw: RawHistoryEntry, slot: usize| {
            raw.bitmaps[slot] = bm(&[1]);
            raw
        };
        for (name, bad) in [
            ("zero depth", RawHistoryEntry { depth: 0, ..cold }),
            ("other depth", RawHistoryEntry { depth: 2, ..cold }),
            (
                "oversized depth",
                RawHistoryEntry {
                    depth: MAX_DEPTH as u8 + 1,
                    ..cold
                },
            ),
            ("len > depth", RawHistoryEntry { len: 5, ..cold }),
            ("head >= depth", RawHistoryEntry { head: 4, ..cold }),
            ("head ahead of len", RawHistoryEntry { head: 3, ..one }),
            ("dirty dead slot", with(cold, 5)),
            ("dirty slot of a cold ring", with(cold, 0)),
            ("dirty slot past len", with(with(one, 1), 3)),
        ] {
            let mut t = table("union(pid)4");
            assert!(
                t.insert_entry(0, RawEntry::History(bad)).is_err(),
                "{name} accepted"
            );
            assert_eq!(t.entries_touched(), 0, "{name} left an entry");
        }
        let mut t = table("union(pid)4");
        assert!(t.insert_entry(0, RawEntry::History(with(one, 1))).is_ok());
        assert_eq!(t.predict(0), bm(&[1]));
    }

    #[test]
    fn pas_raw_round_trip_is_exact() {
        let scheme: Scheme = "pas(pid)3".parse().unwrap();
        let mut t = PredictorTable::new(&scheme, 8);
        for i in 0..20u8 {
            t.update(0, bm(&[i % 8, (i * 3) % 8]));
            let raw = raw_of(&t, 0);
            let mut back = PredictorTable::new(&scheme, 8);
            back.insert_entry(0, raw.clone())
                .expect("own raw state is valid");
            assert_eq!(raw_of(&back, 0), raw, "step {i}");
            assert_eq!(back.predict(0), t.predict(0), "step {i}");
        }
    }

    #[test]
    fn insert_entry_rejects_impossible_pas() {
        let RawEntry::Pas(good) = ({
            let mut t = PredictorTable::new(&"pas(pid)2".parse().unwrap(), 4);
            t.update(0, SharingBitmap::empty());
            raw_of(&t, 0)
        }) else {
            panic!("not a PAs entry");
        };
        let mut hot = good.clone();
        hot.counters[0] = 4;
        let mut wide = good.clone();
        wide.hist[0] = 0b100;
        let mut short = good.clone();
        short.counters.pop();
        let deep = RawPasEntry {
            hist: vec![0; 4],
            counters: vec![0; 4 << 3],
            depth: 3,
        };
        for (name, nodes, bad) in [
            ("wrong nodes", 8, good.clone()),
            ("counter above 3", 4, hot),
            ("history bits wide", 4, wide),
            ("short pattern table", 4, short),
            ("other depth", 4, deep),
        ] {
            let mut t = PredictorTable::new(&"pas(pid)2".parse().unwrap(), nodes);
            assert!(
                t.insert_entry(0, RawEntry::Pas(bad)).is_err(),
                "{name} accepted"
            );
            assert_eq!(t.entries_touched(), 0, "{name} left an entry");
        }
    }

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        for shards in [1, 2, 3, 7, 16] {
            for key in 0..1000u64 {
                let s = shard_of_key(key, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of_key(key, shards), "routing must be pure");
            }
        }
    }

    #[test]
    fn shard_routing_spreads_structured_keys() {
        // Keys that differ only in their low (addr) bits must not all land
        // on one shard.
        let shards = 8;
        let mut hit = vec![0usize; shards];
        for key in 0..64u64 {
            hit[shard_of_key(key, shards)] += 1;
        }
        let occupied = hit.iter().filter(|&&c| c > 0).count();
        assert!(occupied >= shards / 2, "low-bit keys collapsed: {hit:?}");
    }

    #[test]
    fn split_tables_reassemble_to_global_state() {
        let scheme: Scheme = "union(pid)2".parse().unwrap();
        let shards = 4;
        let mut global = PredictorTable::new(&scheme, 16);
        let mut split = PredictorTable::split(&scheme, 16, shards);
        for key in 0..200u64 {
            let fb = bm(&[(key % 16) as u8]);
            global.update(key, fb);
            split[shard_of_key(key, shards)].update(key, fb);
        }
        for key in 0..200u64 {
            assert_eq!(
                global.predict(key),
                split[shard_of_key(key, shards)].predict(key),
                "key {key}"
            );
        }
        let mut merged = PredictorTable::new(&scheme, 16);
        for t in split {
            merged.absorb(t);
        }
        assert_eq!(merged.entries_touched(), global.entries_touched());
        for key in 0..200u64 {
            assert_eq!(merged.predict(key), global.predict(key));
        }
    }

    #[test]
    fn entries_export_and_insert_rebuild_identical_tables() {
        for spec in ["union(pid)3", "pas(pid)2"] {
            let scheme: Scheme = spec.parse().unwrap();
            let mut original = PredictorTable::new(&scheme, 16);
            for key in 0..100u64 {
                original.update(key % 13, bm(&[(key % 16) as u8]));
            }
            let mut rebuilt = PredictorTable::new(&scheme, 16);
            for (key, entry) in original.entries() {
                rebuilt.insert_entry(key, entry).unwrap();
            }
            assert_eq!(rebuilt.entries_touched(), original.entries_touched());
            for key in 0..13u64 {
                assert_eq!(
                    rebuilt.predict(key),
                    original.predict(key),
                    "{spec} key {key}"
                );
            }
        }
    }

    #[test]
    fn insert_entry_rejects_the_other_family() {
        let history = raw_of(
            &{
                let mut t = table("union(pid)2");
                t.update(0, bm(&[1]));
                t
            },
            0,
        );
        let pas = raw_of(
            &{
                let mut t = table("pas(pid)2");
                t.update(0, bm(&[1]));
                t
            },
            0,
        );
        assert!(table("union(pid)2").insert_entry(0, pas.clone()).is_err());
        assert!(table("pas(pid)2").insert_entry(0, history.clone()).is_err());
        assert!(table("union(pid)2").insert_entry(0, history).is_ok());
        assert!(table("pas(pid)2").insert_entry(0, pas).is_ok());
    }

    #[test]
    #[should_panic(expected = "different storage kind")]
    fn absorb_rejects_mismatched_storage() {
        let mut a = table("union(pid)2");
        a.absorb(table("pas(pid)2"));
    }

    proptest! {
        /// inter(k) ⊆ last ⊆ union(k): the containment chain behind the
        /// paper's sensitivity ordering.
        #[test]
        fn prop_inter_subset_last_subset_union(
            feedbacks in proptest::collection::vec(any::<u64>(), 1..20),
            k in 1usize..=4,
        ) {
            let mut inter = table(&format!("inter(pid){k}"));
            let mut last = table("last(pid)");
            let mut union = table(&format!("union(pid){k}"));
            for f in feedbacks {
                let f = SharingBitmap::from_bits(f);
                inter.update(0, f);
                last.update(0, f);
                union.update(0, f);
            }
            prop_assert!(inter.predict(0).is_subset(last.predict(0)));
            prop_assert!(last.predict(0).is_subset(union.predict(0)));
        }

        /// Deeper unions only grow; deeper intersections only shrink.
        #[test]
        fn prop_depth_monotonicity(feedbacks in proptest::collection::vec(any::<u64>(), 1..20)) {
            let mut unions: Vec<_> =
                (1..=MAX_DEPTH).map(|d| table(&format!("union(pid){d}"))).collect();
            let mut inters: Vec<_> =
                (1..=MAX_DEPTH).map(|d| table(&format!("inter(pid){d}"))).collect();
            for f in feedbacks {
                for t in unions.iter_mut().chain(&mut inters) {
                    t.update(0, SharingBitmap::from_bits(f));
                }
            }
            for k in 0..MAX_DEPTH - 1 {
                prop_assert!(unions[k].predict(0).is_subset(unions[k + 1].predict(0)));
                prop_assert!(inters[k + 1].predict(0).is_subset(inters[k].predict(0)));
            }
        }

        /// After any update sequence, at any depth and width, a PAs
        /// table's raw export is the per-node state a plain model of the
        /// paper's PAs holds, it predicts what that model predicts, and a
        /// table restored from the export is the same entry.
        #[test]
        fn prop_pas_planes_match_per_node_model(
            feedbacks in proptest::collection::vec(any::<u64>(), 0..40),
            depth in 1usize..=MAX_DEPTH,
            width in 0usize..4,
        ) {
            let nodes = [1, 5, 16, 64][width];
            let scheme: Scheme = format!("pas(pid){depth}").parse().unwrap();
            let mut t = PredictorTable::new(&scheme, nodes);
            let mut model = RawPasEntry {
                hist: vec![0; nodes],
                counters: vec![0; nodes << depth],
                depth: depth as u8,
            };
            for f in feedbacks {
                let predicted = (0..nodes)
                    .filter(|&i| model.counters[(i << depth) | model.hist[i] as usize] >= 2)
                    .fold(0u64, |b, i| b | (1 << i));
                prop_assert_eq!(t.predict(0).bits(), predicted);
                t.update(0, SharingBitmap::from_bits(f));
                for i in 0..nodes {
                    let bit = ((f >> i) & 1) as u8;
                    let c = &mut model.counters[(i << depth) | model.hist[i] as usize];
                    *c = if bit == 1 { (*c + 1).min(3) } else { c.saturating_sub(1) };
                    model.hist[i] = (((u16::from(model.hist[i]) << 1) | u16::from(bit))
                        & ((1 << depth) - 1)) as u8;
                }
                let raw = RawEntry::Pas(model.clone());
                prop_assert_eq!(raw_of(&t, 0), raw.clone());
                let mut back = PredictorTable::new(&scheme, nodes);
                back.insert_entry(0, raw.clone()).expect("own raw state");
                prop_assert_eq!(raw_of(&back, 0), raw);
                prop_assert_eq!(back.predict(0), t.predict(0));
            }
        }
    }
}
