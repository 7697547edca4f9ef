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
//!   the per-decision fold unrolled over a const depth.

use crate::entry::{Held, PasPlanes};
use crate::simd::{prefetch_next, BatchAcc};
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
        let matrix = |tp: u64, predicted: u64| {
            let fp = predicted - tp;
            let fn_ = self.actual_total - tp;
            ConfusionMatrix {
                tp,
                fp,
                fn_,
                tn: decisions - tp - fp - fn_,
            }
        };
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
