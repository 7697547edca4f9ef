//! Predictor entry state at the table's edges: the raw, per-node form a
//! snapshot stores, the PAs bit-plane math the kernel's entries run, and
//! the paper's storage cost of one entry.
//!
//! The entry states themselves are the kernel's (`History<D, F>` and
//! `Pas<D, P>`); [`crate::PredictorTable`] keeps one of them per key and
//! converts to and from [`RawEntry`] only at the snapshot boundary.

use csp_trace::SharingBitmap;

/// Maximum supported history depth.
pub const MAX_DEPTH: usize = 8;

/// The raw, serializable state of one predictor table entry (see
/// [`PredictorTable::entries`](crate::PredictorTable::entries) and
/// [`PredictorTable::insert_entry`](crate::PredictorTable::insert_entry)).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RawEntry {
    /// A history entry (`last`/`union`/`inter`/`overlap-last`).
    History(RawHistoryEntry),
    /// A two-level PAs entry.
    Pas(RawPasEntry),
}

/// The raw state of a history entry, laid out as a hardware ring of
/// `depth` bitmaps: an update "replaces the oldest bitmap in an entry
/// with the feedback bitmap" (paper Section 3.2).
///
/// The ring contents are exact, so a snapshot/restore round-trip
/// reproduces the entry bit for bit, including where in its ring the
/// newest bitmap sits.
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

/// The raw state of a two-level PAs entry, per node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawPasEntry {
    /// Per-node history registers.
    pub hist: Vec<u8>,
    /// Per-node pattern tables of two-bit counters, one per byte.
    pub counters: Vec<u8>,
    /// History register width in bits.
    pub depth: u8,
}

/// Where a history entry's newest-first window sits in the ring its
/// [`RawHistoryEntry`] records: the two bytes a table keeps beside each
/// history state so snapshots re-save byte for byte.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Ring {
    len: u8,
    head: u8,
}

impl Ring {
    /// Follows one update of a `depth`-deep ring. The head advances by
    /// compare-and-reset: it is always `< depth`, so `head + 1` either
    /// stays in range or lands exactly on `depth`.
    #[inline(always)]
    pub(crate) fn advance(&mut self, depth: u8) {
        self.head += 1;
        if self.head == depth {
            self.head = 0;
        }
        if self.len < depth {
            self.len += 1;
        }
    }
}

/// Lays a newest-first `window` out as the ring at `ring`. Window bits
/// past the stored length are zero, as are the ring slots they map to.
pub(crate) fn history_to_raw(window: &[u64], ring: Ring) -> RawHistoryEntry {
    let depth = window.len();
    let mut bitmaps = [SharingBitmap::empty(); MAX_DEPTH];
    let mut slot = ring.head as usize;
    for &bits in &window[..ring.len as usize] {
        bitmaps[slot] = SharingBitmap::from_bits(bits);
        slot = if slot == 0 { depth - 1 } else { slot - 1 };
    }
    RawHistoryEntry {
        bitmaps,
        depth: depth as u8,
        len: ring.len,
        head: ring.head,
    }
}

/// Reads a ring back into a newest-first `window`, returning its ring
/// position.
///
/// # Errors
///
/// Rejects state no sequence of updates to a `window.len()`-deep entry
/// could have produced: another depth, `len > depth`, `head >= depth`,
/// a head that does not follow `len` updates of a ring that is not yet
/// full, or a non-empty bitmap outside the `len` newest ring positions.
/// This is what lets a restore path trust a decoded-but-hostile snapshot
/// body.
pub(crate) fn history_from_raw(raw: &RawHistoryEntry, window: &mut [u64]) -> Result<Ring, String> {
    let depth = window.len();
    if raw.depth as usize != depth {
        return Err(format!(
            "history entry depth {} in a depth-{depth} table",
            raw.depth
        ));
    }
    if raw.len > raw.depth {
        return Err(format!("history len {} exceeds depth {depth}", raw.len));
    }
    if raw.head as usize >= depth {
        return Err(format!("history head {} outside ring of {depth}", raw.head));
    }
    if raw.len < raw.depth && raw.head != raw.len {
        return Err(format!(
            "history head {} cannot follow {} updates",
            raw.head, raw.len
        ));
    }
    let mut live = [false; MAX_DEPTH];
    let mut slot = raw.head as usize;
    for newest in window.iter_mut().take(raw.len as usize) {
        *newest = raw.bitmaps[slot].bits();
        live[slot] = true;
        slot = if slot == 0 { depth - 1 } else { slot - 1 };
    }
    window[raw.len as usize..].fill(0);
    if raw
        .bitmaps
        .iter()
        .zip(live)
        .any(|(b, live)| !live && !b.is_empty())
    {
        return Err("non-empty bitmap outside the stored ring positions".into());
    }
    Ok(Ring {
        len: raw.len,
        head: raw.head,
    })
}

/// Depths up to which a PAs step visits every history pattern
/// (`2^D <= 8`): branch-free, and measured cheaper than finding the
/// patterns the nodes hold. Deeper entries visit only those, which
/// measured faster from depth 4 on.
const ENUMERATE_MAX_DEPTH: usize = 3;

// The PAs math over bit planes, so one bitwise operation covers every
// node of the machine:
//
// * `hist[k]` holds bit `k` of every node's history register (bit 0 is
//   the newest feedback);
// * `counters[p]` holds, as `[hi, lo]` planes, the two-bit counter every
//   node with history pattern `p` selects (only the first `2^D` are
//   read);
// * `nodes` is the machine's node mask. Feedback is masked to it, so
//   bits past the last node stay zero and equal state has one
//   representation.
//
// The kernel's PAs entry runs it at a const depth. Which nodes hold
// which pattern is recomputed from the history planes on every call; a
// train also yields the trained state's prediction, so a walk that
// predicts after training walks the patterns once.

/// The predicted reader bitmap, `OR_p (holders_p & hi[p])`.
#[inline(always)]
pub(crate) fn pas_predict<const D: usize>(
    hist: &[u64; D],
    counters: &[[u64; 2]],
    nodes: u64,
) -> u64 {
    let counters = &counters[..1 << D];
    let mut predicted = 0;
    for_each_pattern(hist, nodes, |m, p| predicted |= m & counters[p][0]);
    predicted
}

/// Trains on `feedback`: steps each node's selected counter toward its
/// bit, then shifts the bit into its history register. Returns what
/// [`pas_predict`] gives for the trained state, from the same pattern
/// walk: a node holding pattern `p` holds `(p << 1 | bit) mod 2^D` after
/// the shift, and only its own step can have moved its counter there.
#[inline(always)]
pub(crate) fn pas_train<const D: usize>(
    hist: &mut [u64; D],
    counters: &mut [[u64; 2]],
    nodes: u64,
    feedback: u64,
) -> u64 {
    let f = feedback & nodes;
    let counters = &mut counters[..1 << D];
    let mut predicted = 0;
    for_each_pattern(hist, nodes, |m, p| {
        step(&mut counters[p], m, f);
        let shifted = (p << 1) & ((1 << D) - 1);
        predicted |= m & ((f & counters[shifted | 1][0]) | (!f & counters[shifted][0]));
    });
    hist.copy_within(0..D - 1, 1);
    hist[0] = f;
    predicted
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

/// Calls `visit(holders, pattern)` with the nodes of `nodes` holding each
/// history pattern of `hist`:
///
/// * up to [`ENUMERATE_MAX_DEPTH`], every pattern `p < 2^D`, many with
///   no holders;
/// * deeper, only the patterns some node holds, at most
///   `min(nodes, 2^D)` of them.
#[inline(always)]
fn for_each_pattern<const D: usize>(
    hist: &[u64; D],
    nodes: u64,
    mut visit: impl FnMut(u64, usize),
) {
    if D <= ENUMERATE_MAX_DEPTH {
        // Each plane splits every pattern so far in two.
        let mut holders = [0; 1 << ENUMERATE_MAX_DEPTH];
        holders[0] = nodes;
        for (k, &plane) in hist.iter().enumerate() {
            let half = 1 << k;
            for p in 0..half {
                holders[p + half] = holders[p] & plane;
                holders[p] &= !plane;
            }
        }
        for (p, &m) in holders[..1 << D].iter().enumerate() {
            visit(m, p);
        }
        return;
    }
    // Each part takes the lowest node left and every node left with the
    // same pattern.
    let mut rest = nodes;
    while rest != 0 {
        let node = rest.trailing_zeros();
        let mut pattern = 0;
        let mut same = rest;
        for (k, &plane) in hist.iter().enumerate() {
            let bit = (plane >> node) & 1;
            pattern |= bit << k;
            // All-ones when the bit is clear: the nodes that agree.
            same &= plane ^ bit.wrapping_sub(1);
        }
        visit(same, pattern as usize);
        rest &= !same;
    }
}

/// The per-node form of PAs bit planes at depth `hist.len()`: one
/// history byte per node of `nodes`, and per node its `2^depth`
/// counters.
pub(crate) fn pas_to_raw(hist: &[u64], counters: &[[u64; 2]], nodes: u64) -> RawPasEntry {
    let depth = hist.len();
    let bit = |plane: u64, node: usize| ((plane >> node) & 1) as u8;
    let nodes = nodes.count_ones() as usize;
    RawPasEntry {
        hist: (0..nodes)
            .map(|i| (0..depth).fold(0, |h, k| h | (bit(hist[k], i) << k)))
            .collect(),
        counters: (0..nodes)
            .flat_map(|i| {
                counters[..1 << depth]
                    .iter()
                    .map(move |&[hi, lo]| (bit(hi, i) << 1) | bit(lo, i))
            })
            .collect(),
        depth: depth as u8,
    }
}

/// Reads per-node PAs state back into bit planes for the machine
/// `nodes`, overwriting `hist` and `counters`.
///
/// # Errors
///
/// Rejects state no sequence of updates to a `hist.len()`-deep entry
/// could have produced: another depth, vector lengths that disagree with
/// the machine width or depth, a counter above the two-bit saturation
/// ceiling, or history bits outside the register width.
pub(crate) fn pas_from_raw(
    raw: &RawPasEntry,
    hist: &mut [u64],
    counters: &mut [[u64; 2]],
    nodes: u64,
) -> Result<(), String> {
    let depth = hist.len();
    let width = nodes.count_ones() as usize;
    if raw.depth as usize != depth {
        return Err(format!(
            "PAs entry depth {} in a depth-{depth} table",
            raw.depth
        ));
    }
    if raw.hist.len() != width {
        return Err(format!(
            "PAs history registers: {} for a {width}-node machine",
            raw.hist.len()
        ));
    }
    if raw.counters.len() != width << depth {
        return Err(format!(
            "PAs pattern table: {} counters, expected {}",
            raw.counters.len(),
            width << depth
        ));
    }
    if raw.counters.iter().any(|&c| c > 3) {
        return Err("PAs counter above two-bit saturation".into());
    }
    let mask = if depth >= 8 { 0xFF } else { (1u8 << depth) - 1 };
    if raw.hist.iter().any(|&h| h & !mask != 0) {
        return Err("PAs history register bits outside the width".into());
    }
    hist.fill(0);
    for (i, &h) in raw.hist.iter().enumerate() {
        for (k, plane) in hist.iter_mut().enumerate() {
            *plane |= u64::from((h >> k) & 1) << i;
        }
    }
    let counters = &mut counters[..1 << depth];
    counters.fill([0; 2]);
    for (i, table) in raw.counters.chunks(1 << depth).enumerate() {
        for (c, &v) in counters.iter_mut().zip(table) {
            c[0] |= u64::from(v >> 1) << i;
            c[1] |= u64::from(v & 1) << i;
        }
    }
    Ok(())
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
}
