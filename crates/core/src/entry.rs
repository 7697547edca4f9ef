//! Predictor entry state: bitmap histories and two-level PAs state.

use csp_trace::{SharingBitmap, MAX_NODES};

/// Maximum supported history depth.
pub const MAX_DEPTH: usize = 8;

/// A ring of the most recent feedback bitmaps for one predictor entry.
///
/// `last`, `union` and `inter` prediction (and `overlap-last`) are all
/// combinatorial functions over this state (paper Section 3.2): updates
/// "replace the oldest bitmap in an entry with the feedback bitmap".
///
/// # Example
///
/// ```
/// use csp_core::HistoryEntry;
/// use csp_trace::{NodeId, SharingBitmap};
///
/// let mut h = HistoryEntry::new(2);
/// h.push(SharingBitmap::from_nodes(&[NodeId(1), NodeId(2)]));
/// h.push(SharingBitmap::from_nodes(&[NodeId(2), NodeId(3)]));
/// assert_eq!(h.union(2).count(), 3);
/// assert_eq!(h.inter(2), SharingBitmap::from_nodes(&[NodeId(2)]));
/// assert_eq!(h.last(), SharingBitmap::from_nodes(&[NodeId(2), NodeId(3)]));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistoryEntry {
    bitmaps: [SharingBitmap; MAX_DEPTH],
    depth: u8,
    len: u8,
    head: u8, // slot of the most recent bitmap
}

/// The raw, serializable state of a [`HistoryEntry`].
///
/// Produced by [`HistoryEntry::to_raw`] and consumed by
/// [`HistoryEntry::from_raw`]: the exact ring contents, so a
/// snapshot/restore round-trip reconstructs an entry that is equal (not
/// just behaviorally equivalent) to the original.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RawHistoryEntry {
    /// All ring slots, including never-written (empty) ones.
    pub bitmaps: [SharingBitmap; MAX_DEPTH],
    /// Ring capacity actually used by the entry.
    pub depth: u8,
    /// Number of feedback bitmaps stored so far (saturates at `depth`).
    pub len: u8,
    /// Slot index of the most recent bitmap.
    pub head: u8,
}

impl HistoryEntry {
    /// An empty history holding up to `depth` bitmaps.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero or exceeds [`MAX_DEPTH`].
    pub fn new(depth: usize) -> Self {
        assert!(
            (1..=MAX_DEPTH).contains(&depth),
            "history depth must be in 1..={MAX_DEPTH}, got {depth}"
        );
        HistoryEntry {
            bitmaps: [SharingBitmap::empty(); MAX_DEPTH],
            depth: depth as u8,
            len: 0,
            head: 0,
        }
    }

    /// Number of bitmaps currently stored (saturates at the depth).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// The ring capacity this entry was created with.
    pub fn depth(&self) -> usize {
        self.depth as usize
    }

    /// The raw ring state, for serialization (e.g. table snapshots).
    pub fn to_raw(&self) -> RawHistoryEntry {
        RawHistoryEntry {
            bitmaps: self.bitmaps,
            depth: self.depth,
            len: self.len,
            head: self.head,
        }
    }

    /// Reconstructs an entry from raw ring state.
    ///
    /// # Errors
    ///
    /// Rejects state no sequence of [`push`](Self::push) calls could have
    /// produced: a depth outside `1..=MAX_DEPTH`, `len > depth`,
    /// `head >= depth`, or a non-empty bitmap in a slot the ring never
    /// writes (`>= depth`). This is what lets a restore path trust a
    /// decoded-but-hostile snapshot body.
    pub fn from_raw(raw: &RawHistoryEntry) -> Result<Self, String> {
        let depth = raw.depth as usize;
        if !(1..=MAX_DEPTH).contains(&depth) {
            return Err(format!("history depth {depth} outside 1..={MAX_DEPTH}"));
        }
        if raw.len > raw.depth {
            return Err(format!("history len {} exceeds depth {depth}", raw.len));
        }
        if raw.head as usize >= depth {
            return Err(format!("history head {} outside ring of {depth}", raw.head));
        }
        if raw.bitmaps[depth..].iter().any(|b| !b.is_empty()) {
            return Err("non-empty bitmap beyond the ring depth".into());
        }
        Ok(HistoryEntry {
            bitmaps: raw.bitmaps,
            depth: raw.depth,
            len: raw.len,
            head: raw.head,
        })
    }

    /// Returns `true` if no feedback has arrived yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Shifts in a feedback bitmap, replacing the oldest if full.
    ///
    /// The head advances by compare-and-reset rather than `% depth`:
    /// `head` is always `< depth`, so `head + 1` either stays in range or
    /// lands exactly on `depth` — and an integer division in the hottest
    /// write path of every sweep is measurable.
    #[inline]
    pub fn push(&mut self, feedback: SharingBitmap) {
        let mut head = self.head + 1;
        if head == self.depth {
            head = 0;
        }
        self.head = head;
        self.bitmaps[head as usize] = feedback;
        if self.len < self.depth {
            self.len += 1;
        }
    }

    /// The most recent `k` bitmaps, newest first (fewer if less history
    /// exists).
    ///
    /// Walks the ring backwards by decrement-and-wrap (no per-item
    /// modulo; this iterator sits inside every `union`/`inter`
    /// prediction).
    #[inline]
    pub fn recent(&self, k: usize) -> impl Iterator<Item = SharingBitmap> + '_ {
        let take = k.min(self.len as usize);
        let depth = self.depth as usize;
        let mut slot = self.head as usize;
        (0..take).map(move |i| {
            if i > 0 {
                slot = if slot == 0 { depth - 1 } else { slot - 1 };
            }
            self.bitmaps[slot]
        })
    }

    /// Union of the most recent `k` bitmaps (empty if no history).
    #[inline]
    pub fn union(&self, k: usize) -> SharingBitmap {
        self.recent(k)
            .fold(SharingBitmap::empty(), |acc, b| acc | b)
    }

    /// Intersection of the most recent `k` bitmaps.
    ///
    /// A hardware entry's history slots initialize to all-zeros, so until
    /// `k` feedbacks have arrived the intersection is empty: a cold or
    /// warming intersection predictor bets on nothing. (Without this, a
    /// single stored bitmap would be predicted at full confidence, which
    /// poisons precision on migratory sharing.)
    #[inline]
    pub fn inter(&self, k: usize) -> SharingBitmap {
        if (self.len as usize) < k {
            return SharingBitmap::empty();
        }
        let mut it = self.recent(k);
        match it.next() {
            None => SharingBitmap::empty(),
            Some(first) => it.fold(first, |acc, b| acc & b),
        }
    }

    /// The most recent bitmap (empty if no history) — `last` prediction.
    #[inline]
    pub fn last(&self) -> SharingBitmap {
        if self.len == 0 {
            SharingBitmap::empty()
        } else {
            self.bitmaps[self.head as usize]
        }
    }

    /// Kaxiras & Goodman's `overlap-last` function (paper Section 3.5):
    /// predict the last bitmap only if it overlaps the one before it;
    /// otherwise predict nothing. With fewer than two bitmaps stored,
    /// predicts nothing (no evidence of stability yet).
    #[inline]
    pub fn overlap_last(&self) -> SharingBitmap {
        let mut it = self.recent(2);
        match (it.next(), it.next()) {
            (Some(last), Some(prev)) if last.overlaps(prev) => last,
            _ => SharingBitmap::empty(),
        }
    }
}

/// Depths up to which a PAs step visits every history pattern
/// (`2^D <= 8`): branch-free, and measured cheaper than finding the
/// patterns the nodes hold. Deeper entries visit only those (see
/// [`Held`]), which measured faster from depth 4 on.
const ENUMERATE_MAX_DEPTH: usize = 3;

/// PAs state as bit planes over nodes, so one bitwise operation covers
/// every node of the machine:
///
/// * `hist[k]` holds bit `k` of every node's history register (bit 0 is
///   the newest feedback);
/// * `counters[p]` holds, as `[hi, lo]` planes, the two-bit counter every
///   node with history pattern `p` selects.
///
/// Only the first `D` planes and `2^D` patterns of a depth-`D` entry are
/// used. Feedback is masked to the machine's nodes, so bits past the last
/// node stay zero and equal state has one representation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct PasPlanes {
    hist: [u64; MAX_DEPTH],
    counters: Vec<[u64; 2]>,
    /// The machine's nodes.
    nodes: u64,
}

impl PasPlanes {
    /// Cold state for `nodes` nodes and `2^depth` patterns.
    pub(crate) fn cold(nodes: usize, depth: usize) -> Self {
        PasPlanes {
            hist: [0; MAX_DEPTH],
            counters: vec![[0; 2]; 1 << depth],
            nodes: SharingBitmap::all(nodes).bits(),
        }
    }

    /// Makes the state cold again, keeping its allocation.
    #[inline(always)]
    pub(crate) fn reset(&mut self) {
        self.hist = [0; MAX_DEPTH];
        self.counters.fill([0; 2]);
    }

    /// The predicted reader bitmap, `OR_p (holders_p & hi[p])` over the
    /// patterns `held` lists.
    #[inline(always)]
    pub(crate) fn predict<const D: usize>(&self, held: &Held) -> u64 {
        let counters = &self.counters[..1 << D];
        if D <= ENUMERATE_MAX_DEPTH {
            held.holders
                .iter()
                .zip(counters)
                .fold(0, |acc, (&m, c)| acc | (m & c[0]))
        } else {
            held.parts()
                .fold(0, |acc, (m, p)| acc | (m & counters[p & ((1 << D) - 1)][0]))
        }
    }

    /// Trains on `feedback`: steps each node's selected counter toward its
    /// bit, then shifts the bit into its history register. `held` must
    /// describe the histories before the shift; refresh it afterwards.
    #[inline(always)]
    pub(crate) fn train<const D: usize>(&mut self, feedback: u64, held: &Held) {
        let f = feedback & self.nodes;
        let counters = &mut self.counters[..1 << D];
        if D <= ENUMERATE_MAX_DEPTH {
            for (&m, c) in held.holders.iter().zip(counters) {
                step(c, m, f);
            }
        } else {
            for (m, p) in held.parts() {
                step(&mut counters[p & ((1 << D) - 1)], m, f);
            }
        }
        self.hist.copy_within(0..D - 1, 1);
        self.hist[0] = f;
    }
}

/// One masked saturating step of the counter planes `c`: the nodes in `m`
/// count up where `f` has their bit and down where it does not; the rest
/// keep their counters.
#[inline(always)]
fn step(c: &mut [u64; 2], m: u64, f: u64) {
    let [hi, lo] = *c;
    let up_hi = (hi & lo) | (f & (hi | lo));
    let up_lo = (!lo & hi) | (f & (!lo | hi));
    *c = [hi ^ ((hi ^ up_hi) & m), lo ^ ((lo ^ up_lo) & m)];
}

/// Which nodes of a [`PasPlanes`] hold which history pattern, computed
/// once per history change:
///
/// * up to [`ENUMERATE_MAX_DEPTH`], `holders[p]` for every pattern
///   `p < 2^D`, many of them empty;
/// * deeper, only the patterns some node holds: `len` parts of
///   `(holders, patterns)`, at most `min(nodes, 2^D)`.
pub(crate) struct Held {
    len: usize,
    holders: [u64; MAX_NODES],
    patterns: [u8; MAX_NODES],
}

impl Held {
    pub(crate) const EMPTY: Held = Held {
        len: 0,
        holders: [0; MAX_NODES],
        patterns: [0; MAX_NODES],
    };

    /// Recomputes the patterns from `planes`' histories.
    #[inline(always)]
    pub(crate) fn refresh<const D: usize>(&mut self, planes: &PasPlanes) {
        if D <= ENUMERATE_MAX_DEPTH {
            // Each plane splits every pattern so far in two.
            self.holders[0] = planes.nodes;
            for k in 0..D {
                let half = 1 << k;
                for p in 0..half {
                    self.holders[p + half] = self.holders[p] & planes.hist[k];
                    self.holders[p] &= !planes.hist[k];
                }
            }
            return;
        }
        // Each part takes the lowest node left and every node left with
        // the same pattern.
        let mut len = 0;
        let mut rest = planes.nodes;
        while rest != 0 {
            let node = rest.trailing_zeros();
            let mut pattern = 0;
            let mut same = rest;
            for k in 0..D {
                let bit = (planes.hist[k] >> node) & 1;
                pattern |= bit << k;
                // All-ones when the bit is clear: the nodes that agree.
                same &= planes.hist[k] ^ bit.wrapping_sub(1);
            }
            self.holders[len] = same;
            self.patterns[len] = pattern as u8;
            len += 1;
            rest &= !same;
        }
        self.len = len;
    }

    #[inline(always)]
    fn parts(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        self.holders[..self.len]
            .iter()
            .zip(&self.patterns[..self.len])
            .map(|(&m, &p)| (m, p as usize))
    }
}

/// Two-level PAs state for one predictor entry (paper Section 3.2,
/// after Yeh & Patt).
///
/// Per potential reader: a `depth`-bit history register of that reader's
/// recent actual-sharing bits, indexing a private pattern table of
/// `2^depth` two-bit saturating counters. The aggregate of the per-reader
/// binary predictions is the predicted bitmap. The state is stored as bit
/// planes over nodes, so one bitwise step covers every reader; each call
/// dispatches its runtime depth once onto the routines the kernel runs
/// at a const depth.
///
/// # Example
///
/// ```
/// use csp_core::PasEntry;
/// use csp_trace::{NodeId, SharingBitmap};
///
/// let mut e = PasEntry::new(16, 2);
/// let readers = SharingBitmap::from_nodes(&[NodeId(3)]);
/// for _ in 0..4 {
///     e.update(readers);
/// }
/// assert!(e.predict().contains(NodeId(3)));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PasEntry {
    planes: PasPlanes,
    depth: u8,
}

/// The raw, serializable state of a [`PasEntry`] (see
/// [`PasEntry::to_raw`] / [`PasEntry::from_raw`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawPasEntry {
    /// Per-node history registers.
    pub hist: Vec<u8>,
    /// Per-node pattern tables of two-bit counters, one per byte.
    pub counters: Vec<u8>,
    /// History register width in bits.
    pub depth: u8,
}

fn predict_at<const D: usize>(planes: &PasPlanes) -> u64 {
    let mut held = Held::EMPTY;
    held.refresh::<D>(planes);
    planes.predict::<D>(&held)
}

fn update_at<const D: usize>(planes: &mut PasPlanes, feedback: u64) {
    let mut held = Held::EMPTY;
    held.refresh::<D>(planes);
    planes.train::<D>(feedback, &held);
}

/// [`PasEntry`]'s routines, by depth − 1.
const PREDICT_AT: [fn(&PasPlanes) -> u64; MAX_DEPTH] = [
    predict_at::<1>,
    predict_at::<2>,
    predict_at::<3>,
    predict_at::<4>,
    predict_at::<5>,
    predict_at::<6>,
    predict_at::<7>,
    predict_at::<8>,
];
const UPDATE_AT: [fn(&mut PasPlanes, u64); MAX_DEPTH] = [
    update_at::<1>,
    update_at::<2>,
    update_at::<3>,
    update_at::<4>,
    update_at::<5>,
    update_at::<6>,
    update_at::<7>,
    update_at::<8>,
];

impl PasEntry {
    /// Creates cold PAs state for `nodes` potential readers with a
    /// `depth`-bit history.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero or exceeds [`MAX_DEPTH`], or if `nodes`
    /// exceeds [`MAX_NODES`].
    pub fn new(nodes: usize, depth: usize) -> Self {
        assert!(
            (1..=MAX_DEPTH).contains(&depth),
            "PAs history depth must be in 1..={MAX_DEPTH}, got {depth}"
        );
        PasEntry {
            planes: PasPlanes::cold(nodes, depth),
            depth: depth as u8,
        }
    }

    /// The history register width in bits.
    pub fn depth(&self) -> usize {
        self.depth as usize
    }

    /// The raw two-level state, for serialization (e.g. table snapshots):
    /// one history byte per node, and per node its `2^depth` counters.
    pub fn to_raw(&self) -> RawPasEntry {
        let nodes = self.planes.nodes.count_ones() as usize;
        let depth = self.depth();
        let bit = |plane: u64, node: usize| ((plane >> node) & 1) as u8;
        let hist = (0..nodes)
            .map(|i| (0..depth).fold(0, |h, k| h | (bit(self.planes.hist[k], i) << k)))
            .collect();
        let counters = (0..nodes)
            .flat_map(|i| {
                self.planes.counters[..1 << depth]
                    .iter()
                    .map(move |&[hi, lo]| (bit(hi, i) << 1) | bit(lo, i))
            })
            .collect();
        RawPasEntry {
            hist,
            counters,
            depth: self.depth,
        }
    }

    /// Reconstructs an entry from raw two-level state for an
    /// `nodes`-node machine.
    ///
    /// # Errors
    ///
    /// Rejects state no sequence of [`update`](Self::update) calls could
    /// have produced: a depth outside `1..=MAX_DEPTH`, a machine wider
    /// than [`MAX_NODES`], vector lengths that disagree with
    /// `nodes`/`depth`, a counter above the two-bit saturation ceiling, or
    /// history bits outside the register width.
    pub fn from_raw(raw: RawPasEntry, nodes: usize) -> Result<Self, String> {
        let depth = raw.depth as usize;
        if !(1..=MAX_DEPTH).contains(&depth) {
            return Err(format!("PAs depth {depth} outside 1..={MAX_DEPTH}"));
        }
        if nodes > MAX_NODES {
            return Err(format!("PAs entry for {nodes} nodes exceeds {MAX_NODES}"));
        }
        if raw.hist.len() != nodes {
            return Err(format!(
                "PAs history registers: {} for a {nodes}-node machine",
                raw.hist.len()
            ));
        }
        if raw.counters.len() != nodes << depth {
            return Err(format!(
                "PAs pattern table: {} counters, expected {}",
                raw.counters.len(),
                nodes << depth
            ));
        }
        if raw.counters.iter().any(|&c| c > 3) {
            return Err("PAs counter above two-bit saturation".into());
        }
        let mask = if depth >= 8 { 0xFF } else { (1u8 << depth) - 1 };
        if raw.hist.iter().any(|&h| h & !mask != 0) {
            return Err("PAs history register bits outside the width".into());
        }
        let mut planes = PasPlanes::cold(nodes, depth);
        for (i, &h) in raw.hist.iter().enumerate() {
            for k in 0..depth {
                planes.hist[k] |= u64::from((h >> k) & 1) << i;
            }
        }
        for (i, table) in raw.counters.chunks(1 << depth).enumerate() {
            for (c, &v) in planes.counters.iter_mut().zip(table) {
                c[0] |= u64::from(v >> 1) << i;
                c[1] |= u64::from(v & 1) << i;
            }
        }
        Ok(PasEntry {
            planes,
            depth: raw.depth,
        })
    }

    /// The predicted reader bitmap.
    #[inline]
    pub fn predict(&self) -> SharingBitmap {
        SharingBitmap::from_bits(PREDICT_AT[self.depth() - 1](&self.planes))
    }

    /// Trains on a feedback bitmap: bumps each node's selected counter
    /// toward its actual bit and shifts the bit into its history register.
    #[inline]
    pub fn update(&mut self, feedback: SharingBitmap) {
        UPDATE_AT[self.depth() - 1](&mut self.planes, feedback.bits());
    }
}

/// Bits of storage one entry of each kind costs (the paper's cost model,
/// Section 5.4: "we counted the bit costs for both the history shift
/// registers and the pattern history tables").
pub(crate) fn entry_bits(function: crate::PredictionFunction, depth: usize, nodes: usize) -> u64 {
    use crate::PredictionFunction::*;
    let n = nodes as u64;
    let d = depth as u64;
    match function {
        Last => n,
        Union | Inter => n * d,
        // Stores the last two bitmaps to evaluate the overlap test.
        OverlapLast => n * 2,
        // Per node: a depth-bit history register + 2^depth 2-bit counters.
        Pas => n * d + n * (1u64 << d) * 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_trace::NodeId;
    use proptest::prelude::*;

    fn bm(nodes: &[u8]) -> SharingBitmap {
        nodes.iter().map(|&n| NodeId(n)).collect()
    }

    #[test]
    fn empty_history_predicts_nothing() {
        let h = HistoryEntry::new(4);
        assert!(h.is_empty());
        assert_eq!(h.union(4), SharingBitmap::empty());
        assert_eq!(h.inter(4), SharingBitmap::empty());
        assert_eq!(h.last(), SharingBitmap::empty());
        assert_eq!(h.overlap_last(), SharingBitmap::empty());
    }

    #[test]
    fn ring_replaces_oldest() {
        let mut h = HistoryEntry::new(2);
        h.push(bm(&[1]));
        h.push(bm(&[2]));
        h.push(bm(&[3])); // evicts {1}
        assert_eq!(h.union(2), bm(&[2, 3]));
        assert_eq!(h.last(), bm(&[3]));
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn partial_history_unions_but_does_not_intersect() {
        let mut h = HistoryEntry::new(4);
        h.push(bm(&[1, 2]));
        // Union folds over whatever exists; intersection waits for a full
        // history (empty slots are all-zeros).
        assert_eq!(h.union(4), bm(&[1, 2]));
        assert_eq!(h.inter(4), SharingBitmap::empty());
        assert_eq!(h.inter(1), bm(&[1, 2]));
        for _ in 0..3 {
            h.push(bm(&[1, 2]));
        }
        assert_eq!(h.inter(4), bm(&[1, 2]));
    }

    #[test]
    fn recent_is_newest_first() {
        let mut h = HistoryEntry::new(3);
        for i in 1..=3u8 {
            h.push(bm(&[i]));
        }
        let v: Vec<_> = h.recent(3).collect();
        assert_eq!(v, vec![bm(&[3]), bm(&[2]), bm(&[1])]);
        // Asking for fewer returns only the newest.
        let v2: Vec<_> = h.recent(2).collect();
        assert_eq!(v2, vec![bm(&[3]), bm(&[2])]);
    }

    #[test]
    fn overlap_last_requires_overlap() {
        let mut h = HistoryEntry::new(2);
        h.push(bm(&[1, 2]));
        h.push(bm(&[2, 3]));
        assert_eq!(h.overlap_last(), bm(&[2, 3])); // overlap at node 2
        h.push(bm(&[7]));
        assert_eq!(h.overlap_last(), SharingBitmap::empty()); // disjoint
    }

    #[test]
    fn overlap_last_needs_two_bitmaps() {
        let mut h = HistoryEntry::new(2);
        h.push(bm(&[1]));
        assert_eq!(h.overlap_last(), SharingBitmap::empty());
    }

    #[test]
    #[should_panic(expected = "history depth")]
    fn zero_depth_rejected() {
        let _ = HistoryEntry::new(0);
    }

    /// Ring semantics pinned against a straightforward deque model at
    /// every supported depth: regression guard for the compare-and-reset
    /// head advance in [`HistoryEntry::push`].
    #[test]
    fn ring_matches_deque_model_at_every_depth() {
        use std::collections::VecDeque;
        for depth in 1..=MAX_DEPTH {
            let mut h = HistoryEntry::new(depth);
            let mut model: VecDeque<SharingBitmap> = VecDeque::new();
            for step in 0..3 * MAX_DEPTH as u64 + 1 {
                let fb = SharingBitmap::from_bits(step.wrapping_mul(0x9E37_79B9) | 1);
                h.push(fb);
                model.push_front(fb);
                model.truncate(depth);

                assert_eq!(h.len(), model.len(), "depth {depth} step {step}");
                let got: Vec<_> = h.recent(depth).collect();
                let want: Vec<_> = model.iter().copied().collect();
                assert_eq!(got, want, "depth {depth} step {step}: newest-first order");
                assert_eq!(h.last(), model[0], "depth {depth} step {step}");
                assert_eq!(
                    h.union(depth),
                    model.iter().fold(SharingBitmap::empty(), |a, &b| a | b),
                    "depth {depth} step {step}"
                );
                if model.len() == depth {
                    assert_eq!(
                        h.inter(depth),
                        model.iter().skip(1).fold(model[0], |a, &b| a & b),
                        "depth {depth} step {step}"
                    );
                } else {
                    assert_eq!(h.inter(depth), SharingBitmap::empty());
                }
                // Partial windows walk the same ring.
                for k in 1..=depth {
                    let got: Vec<_> = h.recent(k).collect();
                    let want: Vec<_> = model.iter().take(k).copied().collect();
                    assert_eq!(got, want, "depth {depth} step {step} window {k}");
                }
            }
        }
    }

    #[test]
    fn pas_learns_stable_reader() {
        let mut e = PasEntry::new(16, 2);
        let readers = bm(&[5, 9]);
        assert_eq!(e.predict(), SharingBitmap::empty()); // cold
        for _ in 0..4 {
            e.update(readers);
        }
        assert_eq!(e.predict(), readers);
    }

    #[test]
    fn pas_learns_alternating_pattern() {
        // Node 3 reads every other interval: 1,0,1,0,... With depth 2 the
        // PAs can learn both contexts (01 -> 0, 10 -> 1).
        let mut e = PasEntry::new(16, 2);
        let on = bm(&[3]);
        let off = SharingBitmap::empty();
        for _ in 0..12 {
            e.update(on);
            e.update(off);
        }
        // After an `off` the history is ..10 -> next is `on`.
        assert!(e.predict().contains(NodeId(3)));
        e.update(on); // history ..01 -> next is `off`
        assert!(!e.predict().contains(NodeId(3)));
    }

    #[test]
    fn pas_counters_saturate() {
        let mut e = PasEntry::new(4, 1);
        for _ in 0..100 {
            e.update(bm(&[0]));
        }
        assert!(e.predict().contains(NodeId(0)));
        // One disagreement must not unlearn the saturated pattern: once the
        // sharing context recurs, the prediction persists.
        e.update(SharingBitmap::empty());
        e.update(bm(&[0]));
        assert!(e.predict().contains(NodeId(0)));
    }

    #[test]
    fn history_raw_round_trip_is_exact() {
        for depth in 1..=MAX_DEPTH {
            let mut h = HistoryEntry::new(depth);
            for i in 0..2 * depth as u64 + 1 {
                h.push(SharingBitmap::from_bits(i.wrapping_mul(0x1234_5677) | 1));
                let back = HistoryEntry::from_raw(&h.to_raw()).expect("own raw state is valid");
                assert_eq!(back, h, "depth {depth} step {i}");
            }
        }
    }

    #[test]
    fn history_from_raw_rejects_impossible_state() {
        let good = HistoryEntry::new(2).to_raw();
        for (name, bad) in [
            ("zero depth", RawHistoryEntry { depth: 0, ..good }),
            (
                "oversized depth",
                RawHistoryEntry {
                    depth: MAX_DEPTH as u8 + 1,
                    ..good
                },
            ),
            ("len > depth", RawHistoryEntry { len: 3, ..good }),
            ("head >= depth", RawHistoryEntry { head: 2, ..good }),
            ("dirty dead slot", {
                let mut r = good;
                r.bitmaps[5] = bm(&[1]);
                r
            }),
        ] {
            assert!(HistoryEntry::from_raw(&bad).is_err(), "{name} accepted");
        }
    }

    #[test]
    fn pas_raw_round_trip_is_exact() {
        let mut e = PasEntry::new(8, 3);
        for i in 0..20u8 {
            e.update(bm(&[i % 8, (i * 3) % 8]));
            let back = PasEntry::from_raw(e.to_raw(), 8).expect("own raw state is valid");
            assert_eq!(back, e, "step {i}");
        }
    }

    #[test]
    fn pas_from_raw_rejects_impossible_state() {
        let good = PasEntry::new(4, 2).to_raw();
        assert!(PasEntry::from_raw(good.clone(), 8).is_err(), "wrong nodes");
        let mut hot = good.clone();
        hot.counters[0] = 4;
        assert!(PasEntry::from_raw(hot, 4).is_err(), "counter above 3");
        let mut wide = good.clone();
        wide.hist[0] = 0b100;
        assert!(PasEntry::from_raw(wide, 4).is_err(), "history bits wide");
        let mut short = good;
        short.counters.pop();
        assert!(PasEntry::from_raw(short, 4).is_err(), "short pattern table");
        let too_wide = RawPasEntry {
            hist: vec![0; MAX_NODES + 1],
            counters: vec![0; (MAX_NODES + 1) << 1],
            depth: 1,
        };
        assert!(
            PasEntry::from_raw(too_wide, MAX_NODES + 1).is_err(),
            "machine wider than a bitmap"
        );
    }

    #[test]
    fn entry_bits_matches_paper_cost_model() {
        use crate::PredictionFunction::*;
        assert_eq!(entry_bits(Last, 1, 16), 16);
        assert_eq!(entry_bits(Union, 4, 16), 64);
        assert_eq!(entry_bits(Inter, 2, 16), 32);
        assert_eq!(entry_bits(OverlapLast, 1, 16), 32);
        // PAs depth 2: 16*2 history + 16*4*2 counters = 160.
        assert_eq!(entry_bits(Pas, 2, 16), 160);
    }

    proptest! {
        /// inter(k) ⊆ last ⊆ union(k): the containment chain behind the
        /// paper's sensitivity ordering.
        #[test]
        fn prop_inter_subset_last_subset_union(
            feedbacks in proptest::collection::vec(any::<u64>(), 1..20),
            k in 1usize..=4,
        ) {
            let mut h = HistoryEntry::new(4);
            for f in feedbacks {
                h.push(SharingBitmap::from_bits(f));
            }
            prop_assert!(h.inter(k).is_subset(h.last()));
            prop_assert!(h.last().is_subset(h.union(k)));
        }

        /// After any update sequence, at any depth and width, the bit
        /// planes convert to the per-node raw state a plain model of the
        /// paper's PAs holds, predict what that model predicts, and come
        /// back from it unchanged.
        #[test]
        fn prop_pas_planes_match_per_node_model(
            feedbacks in proptest::collection::vec(any::<u64>(), 0..40),
            depth in 1usize..=MAX_DEPTH,
            width in 0usize..4,
        ) {
            let nodes = [1, 5, 16, 64][width];
            let mut e = PasEntry::new(nodes, depth);
            let mut model = RawPasEntry {
                hist: vec![0; nodes],
                counters: vec![0; nodes << depth],
                depth: depth as u8,
            };
            for f in feedbacks {
                let predicted = (0..nodes)
                    .filter(|&i| model.counters[(i << depth) | model.hist[i] as usize] >= 2)
                    .fold(0u64, |b, i| b | (1 << i));
                prop_assert_eq!(e.predict().bits(), predicted);
                e.update(SharingBitmap::from_bits(f));
                for i in 0..nodes {
                    let bit = ((f >> i) & 1) as u8;
                    let c = &mut model.counters[(i << depth) | model.hist[i] as usize];
                    *c = if bit == 1 { (*c + 1).min(3) } else { c.saturating_sub(1) };
                    model.hist[i] = (((u16::from(model.hist[i]) << 1) | u16::from(bit))
                        & ((1 << depth) - 1)) as u8;
                }
                prop_assert_eq!(e.to_raw(), model.clone());
                prop_assert_eq!(PasEntry::from_raw(e.to_raw(), nodes).expect("own raw state"), e.clone());
            }
        }

        /// Deeper unions only grow; deeper intersections only shrink.
        #[test]
        fn prop_depth_monotonicity(feedbacks in proptest::collection::vec(any::<u64>(), 1..20)) {
            let mut h = HistoryEntry::new(MAX_DEPTH);
            for f in feedbacks {
                h.push(SharingBitmap::from_bits(f));
            }
            for k in 1..MAX_DEPTH {
                prop_assert!(h.union(k).is_subset(h.union(k + 1)));
                prop_assert!(h.inter(k + 1).is_subset(h.inter(k)));
            }
        }
    }
}
