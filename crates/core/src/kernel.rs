//! The slot-major kernel: the one production scorer behind every
//! [`crate::engine`] entry point.
//!
//! A [`KeyStream`] groups a trace's table interactions by the predictor
//! entry they touch (their *slot*). [`walk`] replays each slot's
//! interactions in event order against one local cold entry — no table,
//! no per-event hash probe, sequential reads of pre-gathered payloads —
//! and hands every decision to a [`Sink`]. An entry's state depends only
//! on earlier interactions with the same slot, so this visits exactly
//! the entry states an event-order table loop would. A fresh (cold)
//! entry predicts exactly like an absent one, matching the
//! create-on-update semantics of [`crate::reference`].
//!
//! The walk keeps the replayed entry ([`State`]) local, apart from what
//! it feeds ([`Sink`]), so a history window stays in registers:
//!
//! * [`BatchAcc`] — one scheme's decisions into the batched popcount
//!   accumulator ([`crate::simd`]), for any [`Entry`] model;
//! * [`Predictions`] — one scheme's prediction per event, written back
//!   to trace order through each decision's event index;
//! * [`Family`] — every `union`/`inter` depth of one index at once, with
//!   the per-decision fold unrolled over a const depth;
//! * [`Columns`] — the listed history-fold schemes (`last`,
//!   `overlap-last`, `union(d)`, `inter(d)`) of one index and update mode
//!   at once: one fold of the window per decision, then true and
//!   predicted positives for each listed column only, in fixed-capacity
//!   accumulators ([`score_history`]).

use crate::entry::{Held, PasPlanes};
use crate::simd::{matrix_from_sums, prefetch_next, BatchAcc};
use crate::{KeyStream, PredictionFunction, Scheme, UpdateMode, MAX_DEPTH};
use csp_metrics::ConfusionMatrix;
use csp_trace::SharingBitmap;
use std::marker::PhantomData;

/// The state of the predictor entry being replayed.
pub(crate) trait State {
    /// Makes the entry cold, as a new slot starts.
    fn reset(&mut self);
    /// Shifts `feedback` into the entry.
    fn train(&mut self, feedback: SharingBitmap);
}

/// What the walk feeds: each decision of the entry being replayed.
pub(crate) trait Sink<S> {
    /// Scores one decision of `entry` against `actual`. `event` is the
    /// decision's index in trace order.
    fn score(&mut self, entry: &S, actual: SharingBitmap, event: usize);
}

/// The slot-major walk under one update mode (see the module docs):
///
/// * `direct` — a write with a previous writer shifts its invalidation
///   into its own entry, then the entry predicts;
/// * `ordered` — the entry predicts, then learns the write's own actual;
/// * `forwarded` — a write shifts its invalidation into the previous
///   writer's entry and predicts from its own, so one event touches up
///   to two slots. The walk follows the stream's merged per-slot op
///   sequence: `op >> 1` is the event, the low bit tells a push (`0`)
///   from a score (`1`).
///
/// The next slot's payload span is prefetched while the current one
/// scores.
#[inline(always)]
pub(crate) fn walk<S: State, K: Sink<S>>(
    stream: &KeyStream,
    update: UpdateMode,
    mut entry: S,
    sink: &mut K,
) {
    let slots = stream.slot_count();
    match update {
        UpdateMode::Direct => {
            for slot in 0..slots {
                if slot + 1 < slots {
                    prefetch_next(stream.slot_data(slot + 1));
                }
                entry.reset();
                for (&event, d) in stream.slot_events(slot).iter().zip(stream.slot_data(slot)) {
                    if d.has_prev {
                        entry.train(d.feedback);
                    }
                    sink.score(&entry, d.actual, event as usize);
                }
            }
        }
        UpdateMode::Ordered => {
            for slot in 0..slots {
                if slot + 1 < slots {
                    prefetch_next(stream.slot_data(slot + 1));
                }
                entry.reset();
                for (&event, d) in stream.slot_events(slot).iter().zip(stream.slot_data(slot)) {
                    sink.score(&entry, d.actual, event as usize);
                    entry.train(d.actual);
                }
            }
        }
        UpdateMode::Forwarded => {
            for slot in 0..slots {
                if slot + 1 < slots {
                    prefetch_next(stream.slot_op_data(slot + 1));
                }
                entry.reset();
                for (&op, &payload) in stream.slot_ops(slot).iter().zip(stream.slot_op_data(slot)) {
                    if op & 1 == 0 {
                        entry.train(payload);
                    } else {
                        sink.score(&entry, payload, (op >> 1) as usize);
                    }
                }
            }
        }
    }
}

/// An entry model that predicts on its own: one scheme's entry.
pub(crate) trait Entry: State {
    /// The entry's prediction.
    fn predict(&self) -> SharingBitmap;
}

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
    fn reset(&mut self) {
        *self = Window::cold();
    }

    #[inline(always)]
    fn train(&mut self, feedback: SharingBitmap) {
        self.0.copy_within(0..D - 1, 1);
        self.0[0] = feedback.bits();
    }
}

/// One prediction function's fold over a shift window.
pub(crate) trait Fold {
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

impl<const D: usize, F> State for History<D, F> {
    #[inline(always)]
    fn reset(&mut self) {
        self.window.reset();
    }

    #[inline(always)]
    fn train(&mut self, feedback: SharingBitmap) {
        self.window.train(feedback);
    }
}

impl<const D: usize, F: Fold> Entry for History<D, F> {
    #[inline(always)]
    fn predict(&self) -> SharingBitmap {
        SharingBitmap::from_bits(F::fold(&self.window.0))
    }
}

/// PAs at a const history depth `D`: the bit planes of [`PasPlanes`]
/// and which nodes hold which pattern ([`Held`]), recomputed once per
/// history change.
pub(crate) struct Pas<const D: usize> {
    planes: PasPlanes,
    held: Held,
}

impl<const D: usize> Pas<D> {
    fn cold(nodes: usize) -> Self {
        let mut pas = Pas {
            planes: PasPlanes::cold(nodes, D),
            held: Held::EMPTY,
        };
        pas.held.refresh::<D>(&pas.planes);
        pas
    }
}

impl<const D: usize> State for Pas<D> {
    #[inline(always)]
    fn reset(&mut self) {
        self.planes.reset();
        self.held.refresh::<D>(&self.planes);
    }

    #[inline(always)]
    fn train(&mut self, feedback: SharingBitmap) {
        self.planes.train::<D>(feedback.bits(), &self.held);
        self.held.refresh::<D>(&self.planes);
    }
}

impl<const D: usize> Entry for Pas<D> {
    #[inline(always)]
    fn predict(&self) -> SharingBitmap {
        SharingBitmap::from_bits(self.planes.predict::<D>(&self.held))
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
            1 => job.run(Pas::<1>::cold(nodes)),
            2 => job.run(Pas::<2>::cold(nodes)),
            3 => job.run(Pas::<3>::cold(nodes)),
            4 => job.run(Pas::<4>::cold(nodes)),
            5 => job.run(Pas::<5>::cold(nodes)),
            6 => job.run(Pas::<6>::cold(nodes)),
            7 => job.run(Pas::<7>::cold(nodes)),
            8 => job.run(Pas::<8>::cold(nodes)),
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

impl<E: Entry> Sink<E> for BatchAcc {
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
/// the full matrices follow at the end from `fp = predicted − tp`,
/// `fn = actual − tp` and `tn = decisions − tp − fp − fn`, exact integer
/// identities over the per-decision popcounts
/// [`ConfusionMatrix::record`] sums.
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
/// `update` — over `stream` in one walk, returning their matrices in
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
    stream: &KeyStream,
    update: UpdateMode,
    schemes: &[Scheme],
    nodes: usize,
) -> Vec<ConfusionMatrix> {
    fn at<const D: usize>(
        stream: &KeyStream,
        update: UpdateMode,
        slots: &[usize],
        nodes: usize,
    ) -> Vec<ConfusionMatrix> {
        fn run<const D: usize, const N: usize>(
            stream: &KeyStream,
            update: UpdateMode,
            slots: &[usize],
            nodes: usize,
        ) -> Vec<ConfusionMatrix> {
            let mut columns = Columns::<D, N>::new(slots);
            walk(stream, update, Window::<D>::cold(), &mut columns);
            columns.finish(slots.len(), nodes)
        }
        match slots.len() {
            1 => run::<D, 1>(stream, update, slots, nodes),
            2 => run::<D, 2>(stream, update, slots, nodes),
            3 => run::<D, 3>(stream, update, slots, nodes),
            4 => run::<D, 4>(stream, update, slots, nodes),
            5..=8 => run::<D, 8>(stream, update, slots, nodes),
            _ => run::<D, PREDICTIONS>(stream, update, slots, nodes),
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
        1 => at::<1>(stream, update, &slots, nodes),
        2 => at::<2>(stream, update, &slots, nodes),
        3 => at::<3>(stream, update, &slots, nodes),
        4 => at::<4>(stream, update, &slots, nodes),
        5 => at::<5>(stream, update, &slots, nodes),
        6 => at::<6>(stream, update, &slots, nodes),
        7 => at::<7>(stream, update, &slots, nodes),
        8 => at::<8>(stream, update, &slots, nodes),
        _ => unreachable!("column_of checks every depth"),
    };
    columns.into_iter().map(|c| matrices[c]).collect()
}
