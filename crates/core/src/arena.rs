//! Flat open-addressing storage for history predictor entries.
//!
//! The online predictor table ([`crate::PredictorTable`]) spends most of
//! its time in single-key probes: hash the key, land on an entry, mutate
//! it or fold a prediction out of it. A general-purpose `HashMap` pays
//! for that probe twice — once to hash into its control metadata and
//! again to chase the entry out of a separate storage array. The arena
//! here collapses the probe to a single indexed load: a power-of-two slot
//! array in which each slot holds the key *and* the full
//! [`HistoryEntry`] inline (slot-major layout), so the cache line the
//! probe touches is the cache line the fold reads and the update writes.
//!
//! Design constraints, in order:
//!
//! * **Exact `HashMap` semantics.** Create-on-update, replace-on-insert,
//!   iteration over every occupied slot.
//! * **No deletions.** Predictor tables only ever grow (entries are
//!   created lazily and never evicted), so linear probing needs no
//!   tombstones and lookups can stop at the first vacant slot.
//! * **Fibonacci spreading.** Keys are truncated index fields packed into
//!   a `u64` — highly structured low bits — so the slot index comes from
//!   the *top* bits of a Fibonacci multiply, the same spreading
//!   [`crate::shard_of_key`] uses.

use crate::entry::HistoryEntry;

/// Smallest non-empty slot array. Small sweeps (baseline schemes have a
/// single entry) stay tiny; one growth step doubles from here.
const MIN_SLOTS: usize = 16;

/// Fibonacci multiplier (2^64 / phi), shared with [`crate::shard_of_key`].
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// One slot of the arena: the key and its entry, inline.
#[derive(Clone, Debug)]
struct Slot {
    key: u64,
    occupied: bool,
    entry: HistoryEntry,
}

/// A flat open-addressing map from predictor key to [`HistoryEntry`].
///
/// All entries share one history depth, fixed at construction (vacant
/// slots pre-hold a cold entry of that depth, so occupying a slot writes
/// only the key and the occupancy flag).
///
/// # Example
///
/// ```
/// use csp_core::arena::HistoryArena;
/// use csp_trace::{NodeId, SharingBitmap};
///
/// let mut a = HistoryArena::new(2);
/// a.entry_mut(7).push(SharingBitmap::from_nodes(&[NodeId(3)]));
/// assert_eq!(a.get(7).unwrap().last(), SharingBitmap::from_nodes(&[NodeId(3)]));
/// assert!(a.get(8).is_none());
/// ```
#[derive(Clone, Debug)]
pub struct HistoryArena {
    slots: Vec<Slot>,
    /// `slots.len() - 1` when allocated (power-of-two capacity).
    mask: usize,
    /// `64 - log2(slots.len())`: the Fibonacci hash keeps the top bits.
    shift: u32,
    len: usize,
    depth: usize,
}

impl HistoryArena {
    /// An empty arena whose entries will hold `depth` bitmaps.
    ///
    /// Allocates nothing until the first insertion.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is out of `1..=`[`crate::MAX_DEPTH`].
    pub fn new(depth: usize) -> Self {
        Self::with_capacity(depth, 0)
    }

    /// An empty arena pre-sized so `capacity` entries fit without growth.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is out of `1..=`[`crate::MAX_DEPTH`].
    pub fn with_capacity(depth: usize, capacity: usize) -> Self {
        // Constructing an entry validates the depth even when `capacity`
        // is zero and the slot array stays unallocated.
        let cold = HistoryEntry::new(depth);
        let mut arena = HistoryArena {
            slots: Vec::new(),
            mask: 0,
            shift: 0,
            len: 0,
            depth,
        };
        if capacity > 0 {
            // Size for a load factor at or below 3/4.
            let want = (capacity * 4 / 3 + 1).next_power_of_two().max(MIN_SLOTS);
            arena.allocate(want, cold);
        }
        arena
    }

    /// The history depth every entry of this arena carries.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of occupied slots (distinct keys touched).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no key has been touched yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of allocated slots (zero until the first insertion).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    fn allocate(&mut self, slots: usize, cold: HistoryEntry) {
        debug_assert!(slots.is_power_of_two());
        self.slots = vec![
            Slot {
                key: 0,
                occupied: false,
                entry: cold,
            };
            slots
        ];
        self.mask = slots - 1;
        self.shift = 64 - slots.trailing_zeros();
    }

    /// Index of `key`'s slot if present, else of the vacant slot where it
    /// would be inserted. Requires an allocated slot array with at least
    /// one vacancy (guaranteed by the growth policy).
    #[inline]
    fn probe(&self, key: u64) -> usize {
        let mut i = (key.wrapping_mul(FIB) >> self.shift) as usize;
        loop {
            let slot = &self.slots[i];
            if !slot.occupied || slot.key == key {
                return i;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// The entry for `key`, if it has been touched.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&HistoryEntry> {
        if self.slots.is_empty() {
            return None;
        }
        let slot = &self.slots[self.probe(key)];
        slot.occupied.then_some(&slot.entry)
    }

    /// The entry for `key`, creating a cold one if absent — the
    /// create-on-update probe every table mutation goes through.
    #[inline]
    pub fn entry_mut(&mut self, key: u64) -> &mut HistoryEntry {
        if self.slots.is_empty() || (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let i = self.probe(key);
        let slot = &mut self.slots[i];
        if !slot.occupied {
            slot.occupied = true;
            slot.key = key;
            self.len += 1;
        }
        &mut slot.entry
    }

    /// Inserts a fully-formed entry under `key`, replacing any existing
    /// one (the restore half of [`iter`](Self::iter)).
    ///
    /// The entry's depth is the caller's contract ([`crate::PredictorTable`]
    /// validates it); a mismatched depth corrupts only that entry's
    /// predictions, never the arena structure.
    pub fn insert(&mut self, key: u64, entry: HistoryEntry) {
        *self.entry_mut(key) = entry;
    }

    fn grow(&mut self) {
        let next = (self.slots.len() * 2).max(MIN_SLOTS);
        let old = std::mem::take(&mut self.slots);
        self.allocate(next, HistoryEntry::new(self.depth));
        for slot in old {
            if slot.occupied {
                let i = self.probe(slot.key);
                self.slots[i] = slot;
            }
        }
    }

    /// Iterates over every occupied slot as `(key, entry)`, in arbitrary
    /// (probe-order) sequence — mirrors the hashed storage's contract.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &HistoryEntry)> + '_ {
        self.slots
            .iter()
            .filter(|s| s.occupied)
            .map(|s| (s.key, &s.entry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_trace::{NodeId, SharingBitmap};

    fn bm(nodes: &[u8]) -> SharingBitmap {
        nodes.iter().map(|&n| NodeId(n)).collect()
    }

    #[test]
    fn empty_arena_allocates_nothing() {
        let a = HistoryArena::new(4);
        assert_eq!(a.capacity(), 0);
        assert_eq!(a.len(), 0);
        assert!(a.is_empty());
        assert!(a.get(0).is_none());
        assert_eq!(a.depth(), 4);
    }

    #[test]
    fn create_on_update_and_lookup() {
        let mut a = HistoryArena::new(2);
        a.entry_mut(10).push(bm(&[1]));
        a.entry_mut(10).push(bm(&[2]));
        a.entry_mut(11).push(bm(&[3]));
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(10).unwrap().union(2), bm(&[1, 2]));
        assert_eq!(a.get(11).unwrap().last(), bm(&[3]));
        assert!(a.get(12).is_none());
    }

    #[test]
    fn growth_preserves_every_entry() {
        let mut a = HistoryArena::new(1);
        for key in 0..1000u64 {
            a.entry_mut(key * 0x1_0001).push(bm(&[(key % 64) as u8]));
        }
        assert_eq!(a.len(), 1000);
        assert!(a.capacity().is_power_of_two());
        // Load factor stays at or below 3/4.
        assert!(a.len() * 4 <= a.capacity() * 3);
        for key in 0..1000u64 {
            let e = a.get(key * 0x1_0001).expect("entry survives growth");
            assert_eq!(e.last(), bm(&[(key % 64) as u8]), "key {key}");
        }
    }

    #[test]
    fn matches_hashmap_reference_on_random_ops() {
        use crate::hash::FxHashMap;
        let mut arena = HistoryArena::new(3);
        let mut map: FxHashMap<u64, HistoryEntry> = FxHashMap::default();
        let mut x = 0x1234_5678_9abc_def0u64;
        for _ in 0..5000 {
            // xorshift64
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % 257; // force collisions
            let fb = SharingBitmap::from_bits(x >> 32);
            arena.entry_mut(key).push(fb);
            map.entry(key)
                .or_insert_with(|| HistoryEntry::new(3))
                .push(fb);
        }
        assert_eq!(arena.len(), map.len());
        for (key, entry) in map.iter() {
            assert_eq!(arena.get(*key), Some(entry), "key {key}");
        }
        let mut from_arena: Vec<(u64, HistoryEntry)> = arena.iter().map(|(k, e)| (k, *e)).collect();
        from_arena.sort_by_key(|(k, _)| *k);
        let mut from_map: Vec<(u64, HistoryEntry)> = map.iter().map(|(&k, e)| (k, *e)).collect();
        from_map.sort_by_key(|(k, _)| *k);
        assert_eq!(from_arena, from_map);
    }

    #[test]
    fn insert_replaces() {
        let mut a = HistoryArena::new(2);
        a.entry_mut(5).push(bm(&[1]));
        let mut replacement = HistoryEntry::new(2);
        replacement.push(bm(&[7]));
        a.insert(5, replacement);
        assert_eq!(a.len(), 1);
        assert_eq!(a.get(5).unwrap().last(), bm(&[7]));
    }

    #[test]
    fn with_capacity_avoids_growth_and_behaves_identically() {
        let mut sized = HistoryArena::with_capacity(2, 300);
        let before = sized.capacity();
        let mut plain = HistoryArena::new(2);
        for key in 0..300u64 {
            let fb = bm(&[(key % 16) as u8]);
            sized.entry_mut(key).push(fb);
            plain.entry_mut(key).push(fb);
        }
        assert_eq!(sized.capacity(), before, "pre-sized arena never grew");
        for key in 0..300u64 {
            assert_eq!(sized.get(key), plain.get(key));
        }
    }

    #[test]
    #[should_panic(expected = "history depth")]
    fn rejects_out_of_range_depth() {
        HistoryArena::new(0);
    }
}
