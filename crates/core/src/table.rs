//! Predictor tables: sparse storage of entry state, keyed by index.

use crate::arena::HistoryArena;
use crate::entry::{HistoryEntry, PasEntry};
use crate::hash::FxHashMap;
use crate::{PredictionFunction, Scheme};
use csp_trace::SharingBitmap;

/// The state of one global predictor: a sparse map from index key to entry.
///
/// The table allocates entries lazily (only for keys that are touched), so
/// even a 24-bit index costs only as much as the distinct keys the trace
/// exercises. Prediction on a cold (never-updated) entry yields the empty
/// bitmap — a cold predictor forwards nothing.
///
/// History-family tables (`last`/`union`/`inter`/`overlap-last`) store
/// their entries in a flat open-addressing [`HistoryArena`] — one probe
/// touches one slot-major cache line. PAs entries are heap-backed and
/// stay hashed.
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
#[derive(Clone, Debug)]
pub struct PredictorTable {
    function: PredictionFunction,
    depth: usize,
    nodes: usize,
    storage: Storage,
}

#[derive(Clone, Debug)]
enum Storage {
    Arena(HistoryArena),
    Pas(FxHashMap<u64, PasEntry>),
}

/// A borrowed view of one table entry (see [`PredictorTable::entries`]).
#[derive(Clone, Copy, Debug)]
pub enum EntryView<'a> {
    /// A ring-history entry (`last`/`union`/`inter`/`overlap-last`).
    History(&'a HistoryEntry),
    /// A two-level PAs entry.
    Pas(&'a PasEntry),
}

/// An owned table entry for [`PredictorTable::insert_entry`].
#[derive(Clone, Debug)]
pub enum TableEntry {
    /// A ring-history entry.
    History(HistoryEntry),
    /// A two-level PAs entry.
    Pas(PasEntry),
}

impl PredictorTable {
    /// Creates an empty table for `scheme` on an `nodes`-node machine.
    pub fn new(scheme: &Scheme, nodes: usize) -> Self {
        Self::with_capacity(scheme, nodes, 0)
    }

    /// Creates an empty table pre-sized for `capacity` entries, so a
    /// caller that knows how many keys it will touch allocates the
    /// end-state table up front instead of rehashing at every
    /// power-of-two boundary.
    pub fn with_capacity(scheme: &Scheme, nodes: usize, capacity: usize) -> Self {
        // `last`/`overlap-last` need up to 2 stored bitmaps.
        let depth = match scheme.function {
            PredictionFunction::OverlapLast => 2,
            _ => scheme.depth,
        };
        let storage = if scheme.function.uses_history() {
            Storage::Arena(HistoryArena::with_capacity(depth, capacity))
        } else {
            Storage::Pas(FxHashMap::with_capacity_and_hasher(
                capacity,
                Default::default(),
            ))
        };
        PredictorTable {
            function: scheme.function,
            depth,
            nodes,
            storage,
        }
    }

    /// The prediction function applied to one history entry's state.
    #[inline]
    fn predict_history(
        function: PredictionFunction,
        depth: usize,
        h: &HistoryEntry,
    ) -> SharingBitmap {
        match function {
            PredictionFunction::Last => h.last(),
            PredictionFunction::Union => h.union(depth),
            PredictionFunction::Inter => h.inter(depth),
            PredictionFunction::OverlapLast => h.overlap_last(),
            PredictionFunction::Pas => unreachable!("PAs uses Pas storage"),
        }
    }

    /// The predicted reader bitmap for `key` (empty if the entry is cold).
    #[inline]
    pub fn predict(&self, key: u64) -> SharingBitmap {
        match &self.storage {
            Storage::Arena(arena) => match arena.get(key) {
                None => SharingBitmap::empty(),
                Some(h) => Self::predict_history(self.function, self.depth, h),
            },
            Storage::Pas(map) => map
                .get(&key)
                .map(PasEntry::predict)
                .unwrap_or(SharingBitmap::empty()),
        }
    }

    /// Delivers a feedback bitmap to the entry for `key`, creating it if
    /// needed.
    #[inline]
    pub fn update(&mut self, key: u64, feedback: SharingBitmap) {
        match &mut self.storage {
            Storage::Arena(arena) => {
                arena.entry_mut(key).push(feedback);
            }
            Storage::Pas(map) => {
                map.entry(key)
                    .or_insert_with(|| PasEntry::new(self.nodes, self.depth))
                    .update(feedback);
            }
        }
    }

    /// Whether this table stores ring-history entries (`true`) or
    /// two-level PAs entries (`false`).
    pub fn uses_history(&self) -> bool {
        !matches!(self.storage, Storage::Pas(_))
    }

    /// The history depth entries of this table carry.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The machine width the table was created for.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Iterates over every allocated entry as `(key, view)` pairs, in
    /// arbitrary (hash-map) order. Serialization callers that need a
    /// canonical byte stream should sort by key.
    pub fn entries(&self) -> impl Iterator<Item = (u64, EntryView<'_>)> + '_ {
        let arena = match &self.storage {
            Storage::Arena(a) => Some(a.iter().map(|(k, e)| (k, EntryView::History(e)))),
            _ => None,
        };
        let pas = match &self.storage {
            Storage::Pas(m) => Some(m.iter().map(|(&k, e)| (k, EntryView::Pas(e)))),
            _ => None,
        };
        arena.into_iter().flatten().chain(pas.into_iter().flatten())
    }

    /// Inserts a fully-formed entry under `key` (the restore half of
    /// [`entries`](Self::entries); replaces any existing entry).
    ///
    /// # Errors
    ///
    /// Rejects an entry of the wrong storage family for this table's
    /// prediction function, a history entry whose ring depth differs from
    /// the table's, or a PAs entry sized for a different machine width —
    /// the corruption classes a snapshot decoder cannot rule out on its
    /// own.
    pub fn insert_entry(&mut self, key: u64, entry: TableEntry) -> Result<(), String> {
        match (&mut self.storage, entry) {
            (Storage::Arena(arena), TableEntry::History(e)) => {
                if e.depth() != self.depth {
                    return Err(format!(
                        "history entry depth {} in a depth-{} table",
                        e.depth(),
                        self.depth
                    ));
                }
                arena.insert(key, e);
                Ok(())
            }
            (Storage::Pas(map), TableEntry::Pas(e)) => {
                if e.depth() != self.depth {
                    return Err(format!(
                        "PAs entry depth {} in a depth-{} table",
                        e.depth(),
                        self.depth
                    ));
                }
                map.insert(key, e);
                Ok(())
            }
            _ => Err("entry storage kind does not match the table's".into()),
        }
    }

    /// Number of entries allocated so far (distinct keys touched).
    pub fn entries_touched(&self) -> usize {
        match &self.storage {
            Storage::Arena(a) => a.len(),
            Storage::Pas(m) => m.len(),
        }
    }

    /// Direct access to the history entry for `key`, if this is a
    /// history-based table and the entry exists.
    pub fn history(&self, key: u64) -> Option<&HistoryEntry> {
        match &self.storage {
            Storage::Arena(a) => a.get(key),
            Storage::Pas(_) => None,
        }
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
    /// prediction-function families).
    pub fn absorb(&mut self, other: PredictorTable) {
        match (&mut self.storage, other.storage) {
            (Storage::Arena(a), Storage::Arena(b)) => {
                for (k, e) in b.iter() {
                    a.insert(k, *e);
                }
            }
            (Storage::Pas(a), Storage::Pas(b)) => a.extend(b),
            _ => panic!("cannot absorb a table of a different storage kind"),
        }
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
    use csp_trace::NodeId;

    fn bm(nodes: &[u8]) -> SharingBitmap {
        nodes.iter().map(|&n| NodeId(n)).collect()
    }

    fn table(spec: &str) -> PredictorTable {
        PredictorTable::new(&spec.parse().unwrap(), 16)
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
    fn overlap_last_gates_on_overlap() {
        let mut t = table("overlap-last(pid)");
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
    fn history_accessor() {
        let mut t = table("union(pid)2");
        t.update(0, bm(&[1]));
        assert_eq!(t.history(0).unwrap().last(), bm(&[1]));
        assert!(t.history(9).is_none());
        assert!(table("pas(pid)2").history(0).is_none());
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
            for (key, view) in original.entries() {
                let entry = match view {
                    EntryView::History(h) => TableEntry::History(*h),
                    EntryView::Pas(p) => TableEntry::Pas(p.clone()),
                };
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
    fn insert_entry_rejects_mismatches() {
        let mut history = table("union(pid)3");
        let mut pas = table("pas(pid)2");
        assert!(history
            .insert_entry(0, TableEntry::Pas(PasEntry::new(16, 2)))
            .is_err());
        assert!(pas
            .insert_entry(0, TableEntry::History(HistoryEntry::new(2)))
            .is_err());
        // Right family, wrong depth.
        assert!(history
            .insert_entry(0, TableEntry::History(HistoryEntry::new(2)))
            .is_err());
        assert!(pas
            .insert_entry(0, TableEntry::Pas(PasEntry::new(16, 3)))
            .is_err());
        // Right family and depth.
        assert!(history
            .insert_entry(0, TableEntry::History(HistoryEntry::new(3)))
            .is_ok());
        assert!(pas
            .insert_entry(0, TableEntry::Pas(PasEntry::new(16, 2)))
            .is_ok());
    }

    #[test]
    #[should_panic(expected = "different storage kind")]
    fn absorb_rejects_mismatched_storage() {
        let mut a = table("union(pid)2");
        a.absorb(table("pas(pid)2"));
    }

    #[test]
    fn with_capacity_behaves_identically() {
        let scheme: Scheme = "union(pid)2".parse().unwrap();
        let mut hinted = PredictorTable::with_capacity(&scheme, 16, 128);
        let mut plain = PredictorTable::new(&scheme, 16);
        for key in 0..200u64 {
            let fb = bm(&[(key % 16) as u8]);
            hinted.update(key, fb);
            plain.update(key, fb);
        }
        assert_eq!(hinted.entries_touched(), plain.entries_touched());
        for key in 0..200u64 {
            assert_eq!(hinted.predict(key), plain.predict(key));
        }
    }
}
