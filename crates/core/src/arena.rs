//! The key index of the online predictor table: which dense slot of
//! [`crate::PredictorTable`]'s state vector holds each key's entry.
//!
//! Design constraints, in order:
//!
//! * **Dense slots.** A key's slot is the number of keys indexed before
//!   it, so the entry states sit in one `Vec` in first-touch order and
//!   the index carries no payload beyond a `u32` per key.
//! * **No deletions.** Predictor tables only ever grow (entries are
//!   created lazily and never evicted), so linear probing needs no
//!   tombstones and lookups can stop at the first vacant bucket.
//! * **Fibonacci spreading.** Keys are truncated index fields packed into
//!   a `u64` — highly structured low bits — so the bucket comes from the
//!   *top* bits of a Fibonacci multiply, the same spreading
//!   [`crate::shard_of_key`] uses. The load stays at or below 3/4.

/// Smallest non-empty bucket array. Small sweeps (baseline schemes have
/// a single entry) stay tiny; one growth step doubles from here.
const MIN_BUCKETS: usize = 16;

/// Fibonacci multiplier (2^64 / phi), shared with [`crate::shard_of_key`].
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// The slot of a vacant bucket.
const VACANT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Bucket {
    key: u64,
    slot: u32,
}

/// An open-addressing map from predictor key to dense slot.
#[derive(Clone, Debug, Default)]
pub(crate) struct SlotIndex {
    buckets: Vec<Bucket>,
    /// `buckets.len() - 1` when allocated (power-of-two capacity).
    mask: usize,
    /// `64 - log2(buckets.len())`: the Fibonacci hash keeps the top bits.
    shift: u32,
    len: usize,
}

impl SlotIndex {
    /// Number of keys indexed; also the slot the next new key gets.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Index of `key`'s bucket if present, else of the vacant bucket
    /// where it would go. Requires an allocated bucket array with at
    /// least one vacancy (guaranteed by the growth policy).
    #[inline]
    fn probe(&self, key: u64) -> usize {
        let mut i = (key.wrapping_mul(FIB) >> self.shift) as usize;
        loop {
            let bucket = &self.buckets[i];
            if bucket.slot == VACANT || bucket.key == key {
                return i;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// The slot of `key`, if it has been indexed.
    #[inline]
    pub(crate) fn get(&self, key: u64) -> Option<usize> {
        if self.buckets.is_empty() {
            return None;
        }
        let slot = self.buckets[self.probe(key)].slot;
        (slot != VACANT).then_some(slot as usize)
    }

    /// The slot of `key`, giving it the next dense slot if it is new.
    ///
    /// # Panics
    ///
    /// Panics past `u32::MAX - 1` keys.
    #[inline]
    pub(crate) fn slot_or_insert(&mut self, key: u64) -> usize {
        if (self.len + 1) * 4 > self.buckets.len() * 3 {
            self.grow();
        }
        let i = self.probe(key);
        let bucket = &mut self.buckets[i];
        if bucket.slot == VACANT {
            assert!(
                self.len < VACANT as usize,
                "predictor table slots exhausted"
            );
            *bucket = Bucket {
                key,
                slot: self.len as u32,
            };
            self.len += 1;
        }
        bucket.slot as usize
    }

    fn grow(&mut self) {
        let next = (self.buckets.len() * 2).max(MIN_BUCKETS);
        let old = std::mem::replace(
            &mut self.buckets,
            vec![
                Bucket {
                    key: 0,
                    slot: VACANT,
                };
                next
            ],
        );
        self.mask = next - 1;
        self.shift = 64 - next.trailing_zeros();
        for bucket in old.into_iter().filter(|b| b.slot != VACANT) {
            let i = self.probe(bucket.key);
            self.buckets[i] = bucket;
        }
    }

    /// Every indexed key with its slot, in arbitrary (bucket) order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        self.buckets
            .iter()
            .filter(|b| b.slot != VACANT)
            .map(|b| (b.key, b.slot as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_index_allocates_nothing() {
        let ix = SlotIndex::default();
        assert_eq!(ix.buckets.len(), 0);
        assert_eq!(ix.len(), 0);
        assert!(ix.get(0).is_none());
    }

    #[test]
    fn slots_are_dense_in_first_touch_order() {
        let mut ix = SlotIndex::default();
        assert_eq!(ix.slot_or_insert(10), 0);
        assert_eq!(ix.slot_or_insert(11), 1);
        assert_eq!(ix.slot_or_insert(10), 0);
        assert_eq!(ix.len(), 2);
        assert_eq!(ix.get(11), Some(1));
        assert!(ix.get(12).is_none());
    }

    #[test]
    fn growth_preserves_every_slot() {
        let mut ix = SlotIndex::default();
        for key in 0..1000u64 {
            assert_eq!(ix.slot_or_insert(key * 0x1_0001), key as usize);
        }
        assert_eq!(ix.len(), 1000);
        assert!(ix.buckets.len().is_power_of_two());
        // Load factor stays at or below 3/4.
        assert!(ix.len() * 4 <= ix.buckets.len() * 3);
        for key in 0..1000u64 {
            assert_eq!(ix.get(key * 0x1_0001), Some(key as usize), "key {key}");
        }
    }

    #[test]
    fn matches_hashmap_reference_on_random_ops() {
        use crate::hash::FxHashMap;
        let mut ix = SlotIndex::default();
        let mut map: FxHashMap<u64, usize> = FxHashMap::default();
        let mut x = 0x1234_5678_9abc_def0u64;
        for _ in 0..5000 {
            // xorshift64
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % 257; // force collisions
            let fresh = map.len();
            let want = *map.entry(key).or_insert(fresh);
            assert_eq!(ix.slot_or_insert(key), want, "key {key}");
        }
        assert_eq!(ix.len(), map.len());
        let mut from_index: Vec<(u64, usize)> = ix.iter().collect();
        from_index.sort_unstable();
        let mut from_map: Vec<(u64, usize)> = map.into_iter().collect();
        from_map.sort_unstable();
        assert_eq!(from_index, from_map);
    }
}
