//! The trace-order kernel: the one production scorer behind every
//! [`crate::engine`] entry point.
//!
//! A [`KeyStream`] gives every event the predictor entry (its *slot*) it
//! predicts through and the slot its previous writer's tuple maps to.
//! [`walk`] replays the trace in event order against one dense vector of
//! entry states indexed by slot — no table, no per-event hash probe, the
//! ground-truth columns read straight from the [`PreparedTrace`] — and
//! hands every decision to a [`Sink`]. Every slot starts cold, and a cold
//! entry predicts exactly like an absent one, matching the
//! create-on-update semantics of [`crate::reference`].
//!
//! The walk keeps the entry states ([`State`]) apart from what it feeds
//! ([`Sink`]):
//!
//! * [`Tally`] — one scheme's decisions into three running popcount
//!   sums, for any [`Entry`] model;
//! * [`Predictions`] — one scheme's prediction per event, in trace
//!   order;
//! * [`Family`] — every `union`/`inter` depth of one index at once, with
//!   the per-decision fold unrolled over a const depth;
//! * [`Columns`] — the listed history-fold schemes (`last`,
//!   `overlap-last`, `union(d)`, `inter(d)`) of one index and update mode
//!   at once: one fold of the window per decision, then true and
//!   predicted positives for each listed column only, in fixed-capacity
//!   accumulators ([`score_history`]).
//!
//! Every sink keeps the same exact confusion arithmetic: per decision,
//!
//! ```text
//! tp        += popcount(predicted & actual)
//! predicted += popcount(predicted)
//! actual    += popcount(actual)
//! ```
//!
//! with `fp = predicted − tp`, `fn = actual − tp` and
//! `tn = decisions − tp − fp − fn` recovered at the end
//! ([`matrix_from_sums`]) — the same integers per-event
//! [`ConfusionMatrix::record`] calls sum.

use crate::entry::{
    history_from_raw, history_to_raw, pas_from_raw, pas_predict, pas_to_raw, pas_train, Ring,
};
use crate::{
    KeyStream, PredictionFunction, PreparedTrace, RawEntry, Scheme, UpdateMode, MAX_DEPTH,
};
use csp_metrics::ConfusionMatrix;
use csp_trace::SharingBitmap;
use std::marker::PhantomData;

/// The state of one predictor entry, held inline in the walk's
/// per-slot vector.
pub(crate) trait State: Copy {
    /// Shifts `feedback` into the entry.
    fn train(&mut self, feedback: SharingBitmap);
}

/// What the walk feeds: each decision of an entry.
pub(crate) trait Sink<S> {
    /// Scores one decision of `entry` against `actual`. `event` is the
    /// decision's index in trace order.
    fn score(&mut self, entry: &S, actual: SharingBitmap, event: usize);
}

/// The trace-order walk under one update mode, over one state per slot,
/// all starting as `cold`:
///
/// * `direct` — a write with a previous writer shifts its invalidation
///   into its own entry, then the entry predicts;
/// * `ordered` — the entry predicts, then learns the write's own actual;
/// * `forwarded` — a write with a previous writer shifts its invalidation
///   into the previous writer's entry (its forward slot), then its own
///   entry predicts.
#[inline(always)]
pub(crate) fn walk<S: State, K: Sink<S>>(
    prepared: &PreparedTrace<'_>,
    stream: &KeyStream,
    update: UpdateMode,
    cold: S,
    sink: &mut K,
) {
    let mut state = vec![cold; stream.slot_count()];
    let events = stream
        .slots()
        .iter()
        .zip(prepared.actuals())
        .zip(prepared.invalidated().iter().zip(prepared.has_prev()))
        .enumerate();
    match update {
        UpdateMode::Direct => {
            for (e, ((&slot, &actual), (&feedback, &has_prev))) in events {
                let entry = &mut state[slot as usize];
                if has_prev {
                    entry.train(feedback);
                }
                sink.score(entry, actual, e);
            }
        }
        UpdateMode::Ordered => {
            for (e, ((&slot, &actual), _)) in events {
                let entry = &mut state[slot as usize];
                sink.score(entry, actual, e);
                entry.train(actual);
            }
        }
        UpdateMode::Forwarded => {
            for ((e, ((&slot, &actual), (&feedback, &has_prev))), &forward) in
                events.zip(stream.forward_slots())
            {
                if has_prev {
                    state[forward as usize].train(feedback);
                }
                sink.score(&state[slot as usize], actual, e);
            }
        }
    }
}

/// An entry model that predicts on its own: one scheme's entry. The
/// online [`crate::PredictorTable`] stores these too, and converts them
/// to [`RawEntry`] only for snapshots.
pub(crate) trait Entry: State + Send + Sync + 'static {
    /// The depth of the ring a table keeps beside each entry for its
    /// raw form: the window depth of a history, 0 (no ring) for PAs.
    const RING: u8;

    /// The entry's prediction.
    fn predict(&self) -> SharingBitmap;

    /// The entry's raw state; `ring` places a history's window in its
    /// ring.
    fn to_raw(&self, ring: Ring) -> RawEntry;

    /// Overwrites the entry with raw state, returning its ring position.
    ///
    /// # Errors
    ///
    /// Rejects raw state of the other family, of another depth or
    /// machine width, or that no sequence of updates could produce.
    fn load_raw(&mut self, raw: &RawEntry) -> Result<Ring, String>;
}

const OTHER_FAMILY: &str = "entry storage kind does not match the table's";

/// A history as a linear shift window of raw bits: `0[0]` is the newest
/// stored feedback, slots never written stay zero. Zero is the identity
/// of the union fold and absorbing for the intersection fold, so folding
/// all `D` slots of a partially filled window reproduces the shallow-entry
/// semantics with no length bookkeeping (an intersection whose history is
/// not yet full predicts nothing).
#[derive(Clone, Copy)]
pub(crate) struct Window<const D: usize>([u64; D]);

impl<const D: usize> Window<D> {
    #[inline(always)]
    pub(crate) fn cold() -> Self {
        Window([0; D])
    }
}

impl<const D: usize> State for Window<D> {
    #[inline(always)]
    fn train(&mut self, feedback: SharingBitmap) {
        self.0.copy_within(0..D - 1, 1);
        self.0[0] = feedback.bits();
    }
}

/// One prediction function's fold over a shift window.
pub(crate) trait Fold: Send + Sync + 'static {
    fn fold<const D: usize>(w: &[u64; D]) -> u64;
}

/// `last`: the newest stored bitmap.
pub(crate) struct LastFold;
impl Fold for LastFold {
    #[inline(always)]
    fn fold<const D: usize>(w: &[u64; D]) -> u64 {
        w[0]
    }
}

/// `union(D)`: OR over the window.
pub(crate) struct UnionFold;
impl Fold for UnionFold {
    #[inline(always)]
    fn fold<const D: usize>(w: &[u64; D]) -> u64 {
        w.iter().fold(0, |acc, &b| acc | b)
    }
}

/// `inter(D)`: AND over the window.
pub(crate) struct InterFold;
impl Fold for InterFold {
    #[inline(always)]
    fn fold<const D: usize>(w: &[u64; D]) -> u64 {
        w.iter().fold(!0, |acc, &b| acc & b)
    }
}

/// `overlap-last` (depth 2): the newest bitmap if it overlaps the one
/// before it. With fewer than two stored the older slot is zero and the
/// fold abstains.
pub(crate) struct OverlapFold;
impl Fold for OverlapFold {
    #[inline(always)]
    fn fold<const D: usize>(w: &[u64; D]) -> u64 {
        if w[0] & w[1] != 0 {
            w[0]
        } else {
            0
        }
    }
}

/// A history entry of depth `D` predicting through the fold `F`.
pub(crate) struct History<const D: usize, F> {
    window: Window<D>,
    fold: PhantomData<F>,
}

impl<const D: usize, F: Fold> History<D, F> {
    fn cold() -> Self {
        History {
            window: Window::cold(),
            fold: PhantomData,
        }
    }
}

impl<const D: usize, F> Clone for History<D, F> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<const D: usize, F> Copy for History<D, F> {}

impl<const D: usize, F> State for History<D, F> {
    #[inline(always)]
    fn train(&mut self, feedback: SharingBitmap) {
        self.window.train(feedback);
    }
}

impl<const D: usize, F: Fold> Entry for History<D, F> {
    const RING: u8 = D as u8;

    #[inline(always)]
    fn predict(&self) -> SharingBitmap {
        SharingBitmap::from_bits(F::fold(&self.window.0))
    }

    fn to_raw(&self, ring: Ring) -> RawEntry {
        RawEntry::History(history_to_raw(&self.window.0, ring))
    }

    fn load_raw(&mut self, raw: &RawEntry) -> Result<Ring, String> {
        match raw {
            RawEntry::History(raw) => history_from_raw(raw, &mut self.window.0),
            RawEntry::Pas(_) => Err(OTHER_FAMILY.into()),
        }
    }
}

/// PAs at a const history depth `D` with its `P = 2^D` patterns, held
/// inline so a walk's per-slot states are one allocation: `D` history
/// planes and `P` counter-plane pairs, run through the PAs plane math
/// of `entry.rs`, plus the prediction of the current state, which each
/// train returns.
#[derive(Clone, Copy)]
pub(crate) struct Pas<const D: usize, const P: usize> {
    hist: [u64; D],
    counters: [[u64; 2]; P],
    /// The machine's nodes.
    nodes: u64,
    predicted: u64,
}

impl<const D: usize, const P: usize> Pas<D, P> {
    fn cold(nodes: usize) -> Self {
        const { assert!(P == 1 << D, "a depth-D PAs entry has 2^D patterns") };
        Pas {
            hist: [0; D],
            counters: [[0; 2]; P],
            nodes: SharingBitmap::all(nodes).bits(),
            // Zero counters predict no reader.
            predicted: 0,
        }
    }
}

impl<const D: usize, const P: usize> State for Pas<D, P> {
    #[inline(always)]
    fn train(&mut self, feedback: SharingBitmap) {
        self.predicted = pas_train(
            &mut self.hist,
            &mut self.counters,
            self.nodes,
            feedback.bits(),
        );
    }
}

impl<const D: usize, const P: usize> Entry for Pas<D, P> {
    const RING: u8 = 0;

    #[inline(always)]
    fn predict(&self) -> SharingBitmap {
        SharingBitmap::from_bits(self.predicted)
    }

    fn to_raw(&self, _ring: Ring) -> RawEntry {
        RawEntry::Pas(pas_to_raw(&self.hist, &self.counters, self.nodes))
    }

    fn load_raw(&mut self, raw: &RawEntry) -> Result<Ring, String> {
        match raw {
            RawEntry::Pas(raw) => {
                pas_from_raw(raw, &mut self.hist, &mut self.counters, self.nodes)?;
                self.predicted = pas_predict(&self.hist, &self.counters, self.nodes);
                Ok(Ring::default())
            }
            RawEntry::History(_) => Err(OTHER_FAMILY.into()),
        }
    }
}

/// Something generic over the entry model of one scheme: see
/// [`with_entry`].
pub(crate) trait WithEntry {
    type Out;
    fn run<E: Entry>(self, entry: E) -> Self::Out;
}

/// Calls `job` with the cold entry model of `scheme`, monomorphized per
/// function and history depth so every fold is a fixed-bound loop.
///
/// # Panics
///
/// Panics if the scheme's depth is out of `1..=MAX_DEPTH`.
pub(crate) fn with_entry<J: WithEntry>(scheme: &Scheme, nodes: usize, job: J) -> J::Out {
    match scheme.function {
        // `last` reads only the newest bitmap, whatever the depth.
        PredictionFunction::Last => job.run(History::<1, LastFold>::cold()),
        PredictionFunction::OverlapLast => job.run(History::<2, OverlapFold>::cold()),
        PredictionFunction::Union => by_depth::<UnionFold, J>(scheme.depth, job),
        PredictionFunction::Inter => by_depth::<InterFold, J>(scheme.depth, job),
        PredictionFunction::Pas => match scheme.depth {
            1 => job.run(Pas::<1, 2>::cold(nodes)),
            2 => job.run(Pas::<2, 4>::cold(nodes)),
            3 => job.run(Pas::<3, 8>::cold(nodes)),
            4 => job.run(Pas::<4, 16>::cold(nodes)),
            5 => job.run(Pas::<5, 32>::cold(nodes)),
            6 => job.run(Pas::<6, 64>::cold(nodes)),
            7 => job.run(Pas::<7, 128>::cold(nodes)),
            8 => job.run(Pas::<8, 256>::cold(nodes)),
            depth => panic!("PAs history depth must be in 1..={MAX_DEPTH}, got {depth}"),
        },
    }
}

fn by_depth<F: Fold, J: WithEntry>(depth: usize, job: J) -> J::Out {
    match depth {
        1 => job.run(History::<1, F>::cold()),
        2 => job.run(History::<2, F>::cold()),
        3 => job.run(History::<3, F>::cold()),
        4 => job.run(History::<4, F>::cold()),
        5 => job.run(History::<5, F>::cold()),
        6 => job.run(History::<6, F>::cold()),
        7 => job.run(History::<7, F>::cold()),
        8 => job.run(History::<8, F>::cold()),
        _ => panic!("history depth must be in 1..={MAX_DEPTH}, got {depth}"),
    }
}

/// The full matrix from the three popcount sums over `decisions`
/// per-node decisions (see the module docs).
#[inline]
fn matrix_from_sums(tp: u64, predicted: u64, actual: u64, decisions: u64) -> ConfusionMatrix {
    let fp = predicted - tp;
    let fn_ = actual - tp;
    ConfusionMatrix {
        tp,
        fp,
        fn_,
        tn: decisions - tp - fp - fn_,
    }
}

/// One scheme's confusion counts: the three running popcount sums and
/// the number of decisions scored.
#[derive(Default)]
pub(crate) struct Tally {
    tp: u64,
    predicted: u64,
    actual: u64,
    scored: u64,
}

impl Tally {
    #[inline(always)]
    fn push(&mut self, predicted: u64, actual: u64) {
        self.tp += u64::from((predicted & actual).count_ones());
        self.predicted += u64::from(predicted.count_ones());
        self.actual += u64::from(actual.count_ones());
        self.scored += 1;
    }

    /// The full matrix over a `nodes`-wide machine.
    pub(crate) fn finish(self, nodes: usize) -> ConfusionMatrix {
        matrix_from_sums(
            self.tp,
            self.predicted,
            self.actual,
            self.scored * nodes as u64,
        )
    }
}

impl<E: Entry> Sink<E> for Tally {
    #[inline(always)]
    fn score(&mut self, entry: &E, actual: SharingBitmap, _event: usize) {
        self.push(entry.predict().bits(), actual.bits());
    }
}

/// Records one scheme's prediction for every event, in trace order.
pub(crate) struct Predictions(pub(crate) Vec<SharingBitmap>);

impl<E: Entry> Sink<E> for Predictions {
    #[inline(always)]
    fn score(&mut self, entry: &E, _actual: SharingBitmap, event: usize) {
        self.0[event] = entry.predict();
    }
}

/// Scores `union` and `inter` at every depth `1..=MD` in one pass: each
/// decision folds the window once and reads every depth's prediction off
/// the running fold prefixes.
///
/// Only true positives and predicted positives are counted per depth;
/// the actual bits once per decision, and the full matrices follow at the
/// end ([`matrix_from_sums`]).
pub(crate) struct Family<const MD: usize> {
    tp_union: [u64; MD],
    predicted_union: [u64; MD],
    tp_inter: [u64; MD],
    predicted_inter: [u64; MD],
    actual_total: u64,
    scored: u64,
    all: u64,
}

impl<const MD: usize> Family<MD> {
    pub(crate) fn new(nodes: usize) -> Self {
        Family {
            tp_union: [0; MD],
            predicted_union: [0; MD],
            tp_inter: [0; MD],
            predicted_inter: [0; MD],
            actual_total: 0,
            scored: 0,
            all: SharingBitmap::all(nodes).bits(),
        }
    }

    /// The `(union, inter)` matrices, indexed by depth − 1.
    pub(crate) fn finish(self, nodes: usize) -> (Vec<ConfusionMatrix>, Vec<ConfusionMatrix>) {
        let decisions = self.scored * nodes as u64;
        let matrix = |tp, predicted| matrix_from_sums(tp, predicted, self.actual_total, decisions);
        (
            (0..MD)
                .map(|d| matrix(self.tp_union[d], self.predicted_union[d]))
                .collect(),
            (0..MD)
                .map(|d| matrix(self.tp_inter[d], self.predicted_inter[d]))
                .collect(),
        )
    }
}

impl<const MD: usize> Sink<Window<MD>> for Family<MD> {
    #[inline(always)]
    fn score(&mut self, window: &Window<MD>, actual: SharingBitmap, _event: usize) {
        let actual = actual.bits();
        self.scored += 1;
        self.actual_total += u64::from(actual.count_ones());
        let mut union = 0;
        let mut inter = self.all;
        for d in 0..MD {
            let b = window.0[d];
            union |= b;
            inter &= b;
            self.tp_union[d] += u64::from((union & actual).count_ones());
            self.predicted_union[d] += u64::from(union.count_ones());
            self.tp_inter[d] += u64::from((inter & actual).count_ones());
            self.predicted_inter[d] += u64::from(inter.count_ones());
        }
    }
}

/// Slots of the per-decision prediction scratch of [`Columns`]: `union`
/// at depths `1..=MAX_DEPTH`, then `inter` at depths `1..=MAX_DEPTH`,
/// then `overlap-last`.
const PREDICTIONS: usize = 2 * MAX_DEPTH + 1;

/// Where a history-fold scheme's prediction sits in the scratch of
/// [`Columns`], and the window depth that prediction reads; `None` for
/// PAs, which is no fold over a shift window.
///
/// `last`, `union(1)` and `inter(1)` all predict the newest bitmap, so
/// they share slot 0 — a `last` of any depth, as in [`with_entry`].
///
/// # Panics
///
/// Panics if a `union`/`inter` depth is out of `1..=MAX_DEPTH`.
fn column_of(scheme: &Scheme) -> Option<(usize, usize)> {
    let base = match scheme.function {
        PredictionFunction::Last => return Some((0, 1)),
        PredictionFunction::OverlapLast => return Some((2 * MAX_DEPTH, 2)),
        PredictionFunction::Pas => return None,
        PredictionFunction::Union => 0,
        PredictionFunction::Inter => MAX_DEPTH,
    };
    let depth = scheme.depth;
    assert!(
        (1..=MAX_DEPTH).contains(&depth),
        "history depth must be in 1..={MAX_DEPTH}, got {depth}"
    );
    let slot = if depth == 1 { 0 } else { base + depth - 1 };
    Some((slot, depth))
}

/// Scores up to `N` history-fold columns of one index and update mode in
/// one pass over a depth-`D` window: each decision folds the window once
/// into running `union`/`inter` prefixes, as [`Family`] does, and each
/// column reads its prediction off the scratch slot [`column_of`] gave
/// it. The actual bits are counted once per decision, true and predicted
/// positives once per column; the matrices follow as in [`Family`].
struct Columns<const D: usize, const N: usize> {
    slots: [usize; N],
    predictions: [u64; PREDICTIONS],
    tp: [u64; N],
    predicted: [u64; N],
    actual_total: u64,
    scored: u64,
}

impl<const D: usize, const N: usize> Columns<D, N> {
    /// Columns reading `slots`, at most `N` of them; spare columns repeat
    /// the first and [`finish`](Self::finish) drops them.
    fn new(slots: &[usize]) -> Self {
        let mut padded = [slots[0]; N];
        padded[..slots.len()].copy_from_slice(slots);
        Columns {
            slots: padded,
            predictions: [0; PREDICTIONS],
            tp: [0; N],
            predicted: [0; N],
            actual_total: 0,
            scored: 0,
        }
    }

    /// The first `columns` matrices, in slot order.
    fn finish(self, columns: usize, nodes: usize) -> Vec<ConfusionMatrix> {
        let decisions = self.scored * nodes as u64;
        (0..columns)
            .map(|c| matrix_from_sums(self.tp[c], self.predicted[c], self.actual_total, decisions))
            .collect()
    }
}

impl<const D: usize, const N: usize> Sink<Window<D>> for Columns<D, N> {
    #[inline(always)]
    fn score(&mut self, window: &Window<D>, actual: SharingBitmap, _event: usize) {
        let actual = actual.bits();
        self.scored += 1;
        self.actual_total += u64::from(actual.count_ones());
        let w = &window.0;
        let (mut union, mut inter) = (0, !0);
        for (d, &b) in w.iter().enumerate() {
            union |= b;
            inter &= b;
            self.predictions[d] = union;
            self.predictions[MAX_DEPTH + d] = inter;
        }
        if let [newest, previous, ..] = *w.as_slice() {
            self.predictions[2 * MAX_DEPTH] = if newest & previous != 0 { newest } else { 0 };
        }
        for c in 0..N {
            let p = self.predictions[self.slots[c]];
            self.tp[c] += u64::from((p & actual).count_ones());
            self.predicted[c] += u64::from(p.count_ones());
        }
    }
}

/// Scores the history-fold `schemes` — all of one index, all under
/// `update` — over `prepared` through `stream` in one walk, returning their matrices in
/// order. The window is as deep as the deepest scheme needs; schemes
/// with the same prediction share a column. Both the depth and the
/// column count (rounded up to a capacity) are const-dispatched, so the
/// per-decision fold and column loop are fixed-bound.
///
/// # Panics
///
/// Panics if `schemes` is empty or holds a PAs scheme, or if a depth is
/// out of `1..=MAX_DEPTH`.
pub(crate) fn score_history(
    prepared: &PreparedTrace<'_>,
    stream: &KeyStream,
    update: UpdateMode,
    schemes: &[Scheme],
) -> Vec<ConfusionMatrix> {
    fn at<const D: usize>(
        prepared: &PreparedTrace<'_>,
        stream: &KeyStream,
        update: UpdateMode,
        slots: &[usize],
    ) -> Vec<ConfusionMatrix> {
        fn run<const D: usize, const N: usize>(
            prepared: &PreparedTrace<'_>,
            stream: &KeyStream,
            update: UpdateMode,
            slots: &[usize],
        ) -> Vec<ConfusionMatrix> {
            let mut columns = Columns::<D, N>::new(slots);
            walk(prepared, stream, update, Window::<D>::cold(), &mut columns);
            columns.finish(slots.len(), prepared.nodes())
        }
        match slots.len() {
            1 => run::<D, 1>(prepared, stream, update, slots),
            2 => run::<D, 2>(prepared, stream, update, slots),
            3 => run::<D, 3>(prepared, stream, update, slots),
            4 => run::<D, 4>(prepared, stream, update, slots),
            5..=8 => run::<D, 8>(prepared, stream, update, slots),
            _ => run::<D, PREDICTIONS>(prepared, stream, update, slots),
        }
    }
    // The distinct slots, and each scheme's column among them.
    let mut slots = Vec::new();
    let mut depth = 1;
    let columns: Vec<usize> = schemes
        .iter()
        .map(|scheme| {
            let (slot, needs) = column_of(scheme).expect("PAs is not a history fold");
            depth = depth.max(needs);
            slots.iter().position(|&s| s == slot).unwrap_or_else(|| {
                slots.push(slot);
                slots.len() - 1
            })
        })
        .collect();
    let matrices = match depth {
        1 => at::<1>(prepared, stream, update, &slots),
        2 => at::<2>(prepared, stream, update, &slots),
        3 => at::<3>(prepared, stream, update, &slots),
        4 => at::<4>(prepared, stream, update, &slots),
        5 => at::<5>(prepared, stream, update, &slots),
        6 => at::<6>(prepared, stream, update, &slots),
        7 => at::<7>(prepared, stream, update, &slots),
        8 => at::<8>(prepared, stream, update, &slots),
        _ => unreachable!("column_of checks every depth"),
    };
    columns.into_iter().map(|c| matrices[c]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_accumulates_exactly_what_record_sums() {
        let pairs: Vec<(u64, u64)> = (0..8 * 7 + 5u64)
            .map(|i| {
                let p = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & 0xFFFF;
                let a = (i * 0x2545_F491) & 0xFFFF;
                (p, a)
            })
            .collect();
        let mut expected = ConfusionMatrix::default();
        let mut tally = Tally::default();
        for &(p, a) in &pairs {
            expected.record(SharingBitmap::from_bits(p), SharingBitmap::from_bits(a), 16);
            tally.push(p, a);
        }
        assert_eq!(tally.finish(16), expected);
    }
}
