//! The evaluation engine: runs schemes over traces.
//!
//! One trace event = one decision. The engine applies the scheme's update
//! mechanism and scores each prediction against the event's *actual* bitmap
//! (the trace's resolved ground truth). Update timing per mode:
//!
//! * `direct` — the invalidation feedback carried by the event itself is
//!   shifted into the *current* event's entry, then the entry predicts.
//!   Events with no previous writer carry no invalidation and update
//!   nothing (keeping direct exactly equivalent to ordered under pure
//!   address indexing, as Section 3.4 requires).
//! * `forwarded` — the feedback is shifted into the *previous writer's*
//!   entry (if any), then the current entry predicts.
//! * `ordered` — the entry predicts, then is immediately trained with the
//!   event's own actual bitmap (known from the trace's first pass): every
//!   later prediction through that entry sees this feedback, the oracle
//!   ordering of Figure 4.
//!
//! Every entry point here runs on one scorer: the trace-order walk of
//! `kernel.rs` over a [`PreparedTrace`] and one of its key streams, with
//! one entry state per slot, feeding one scheme's running popcount sums,
//! a per-event prediction sink, the all-depths family accumulator, or the
//! listed-columns accumulator that [`run_index_schemes`] uses to score
//! one index's history-fold schemes in one walk per update mode. The `*_prepared` entry points (and
//! [`run_index_schemes`]) share an explicit `PreparedTrace` across many
//! schemes (the sweep case); the plain ones prepare internally per call.
//! [`crate::reference`] is the independent definition every one of them
//! is checked against.

use crate::kernel::{self, Entry, Family, Predictions, Tally, Window, WithEntry};
use crate::{IndexSpec, KeyStream, PredictionFunction, PreparedTrace, Scheme, UpdateMode};
use csp_metrics::ConfusionMatrix;
use csp_trace::{SharingBitmap, Trace};

/// Runs `scheme` over `trace`, scoring every decision.
///
/// Prepares the trace internally; sweeps that evaluate many schemes over
/// one trace should prepare once and call [`run_scheme_prepared`].
///
/// # Example
///
/// See the [crate-level example](crate).
pub fn run_scheme(trace: &Trace, scheme: &Scheme) -> ConfusionMatrix {
    run_scheme_prepared(&PreparedTrace::new(trace), scheme)
}

/// Runs `scheme` over an already-prepared trace, scoring every decision.
pub fn run_scheme_prepared(prepared: &PreparedTrace<'_>, scheme: &Scheme) -> ConfusionMatrix {
    score_one(prepared, &prepared.key_stream(scheme.index), scheme)
}

/// One walk of `scheme`'s own entry model over `prepared` through
/// `stream`.
fn score_one(prepared: &PreparedTrace<'_>, stream: &KeyStream, scheme: &Scheme) -> ConfusionMatrix {
    struct Score<'a, 't> {
        prepared: &'a PreparedTrace<'t>,
        stream: &'a KeyStream,
        update: UpdateMode,
    }
    impl WithEntry for Score<'_, '_> {
        type Out = ConfusionMatrix;
        fn run<E: Entry>(self, entry: E) -> ConfusionMatrix {
            let mut tally = Tally::default();
            kernel::walk(self.prepared, self.stream, self.update, entry, &mut tally);
            tally.finish(self.prepared.nodes())
        }
    }
    kernel::with_entry(
        scheme,
        prepared.nodes(),
        Score {
            prepared,
            stream,
            update: scheme.update,
        },
    )
}

/// Runs every scheme of `schemes` — all over one index — on an
/// already-prepared trace, returning their matrices in list order.
///
/// Under each update mode present, every history-fold scheme (`last`,
/// `overlap-last`, `union`, `inter`) scores in one walk of the index's
/// key stream, its window as deep as the deepest of them; each PAs
/// scheme keeps its own walk. A scheme listed twice is scored once. Each
/// matrix is bit-identical to [`run_scheme_prepared`]'s for that scheme.
///
/// # Panics
///
/// Panics if the schemes do not all share one index, or if a depth is
/// out of `1..=MAX_DEPTH`.
pub fn run_index_schemes(prepared: &PreparedTrace<'_>, schemes: &[Scheme]) -> Vec<ConfusionMatrix> {
    let Some(first) = schemes.first() else {
        return Vec::new();
    };
    assert!(
        schemes.iter().all(|s| s.index == first.index),
        "run_index_schemes takes schemes of one index"
    );
    let stream = prepared.key_stream(first.index);
    let mut out: Vec<Option<ConfusionMatrix>> = vec![None; schemes.len()];
    for update in UpdateMode::ALL {
        let (at, history): (Vec<usize>, Vec<Scheme>) = schemes
            .iter()
            .enumerate()
            .filter(|(_, s)| s.update == update && s.function != PredictionFunction::Pas)
            .map(|(i, s)| (i, *s))
            .unzip();
        if !history.is_empty() {
            let matrices = kernel::score_history(prepared, &stream, update, &history);
            for (i, m) in at.into_iter().zip(matrices) {
                out[i] = Some(m);
            }
        }
    }
    for (i, scheme) in schemes.iter().enumerate() {
        if out[i].is_none() {
            out[i] = Some(match schemes[..i].iter().position(|s| s == scheme) {
                Some(earlier) => out[earlier].expect("earlier schemes are scored"),
                None => score_one(prepared, &stream, scheme),
            });
        }
    }
    out.into_iter()
        .map(|m| m.expect("every scheme is scored"))
        .collect()
}

/// Runs `scheme` over `trace` and returns the per-event predictions
/// (e.g. for the forwarding estimator in `csp-sim`).
pub fn predictions_for(trace: &Trace, scheme: &Scheme) -> Vec<SharingBitmap> {
    predictions_for_prepared(&PreparedTrace::new(trace), scheme)
}

/// Per-event predictions over an already-prepared trace (see
/// [`predictions_for`]), in trace order.
pub fn predictions_for_prepared(
    prepared: &PreparedTrace<'_>,
    scheme: &Scheme,
) -> Vec<SharingBitmap> {
    struct Predict<'a, 't> {
        prepared: &'a PreparedTrace<'t>,
        stream: &'a KeyStream,
        update: UpdateMode,
    }
    impl WithEntry for Predict<'_, '_> {
        type Out = Vec<SharingBitmap>;
        fn run<E: Entry>(self, entry: E) -> Vec<SharingBitmap> {
            let mut out = Predictions(vec![SharingBitmap::empty(); self.prepared.len()]);
            kernel::walk(self.prepared, self.stream, self.update, entry, &mut out);
            out.0
        }
    }
    let stream = prepared.key_stream(scheme.index);
    kernel::with_entry(
        scheme,
        prepared.nodes(),
        Predict {
            prepared,
            stream: &stream,
            update: scheme.update,
        },
    )
}

/// Confusion matrices for the whole `union`/`inter` family over one index
/// and update mode, evaluated in a single trace pass.
///
/// `union[d-1]` / `inter[d-1]` hold the results for history depth `d`.
/// Depth 1 of either family is exactly `last` prediction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FamilyResult {
    /// Results for `union(index)d`, indexed by `d - 1`.
    pub union: Vec<ConfusionMatrix>,
    /// Results for `inter(index)d`, indexed by `d - 1`.
    pub inter: Vec<ConfusionMatrix>,
}

/// Evaluates `union` and `inter` at every depth `1..=max_depth` over one
/// `(index, update)` point in a single pass — the workhorse of the
/// design-space sweeps, ~`2 x max_depth` cheaper than separate runs.
///
/// # Panics
///
/// Panics if `max_depth` is out of `1..=MAX_DEPTH`.
pub fn run_history_family(
    trace: &Trace,
    index: IndexSpec,
    update: UpdateMode,
    max_depth: usize,
) -> FamilyResult {
    run_history_family_prepared(&PreparedTrace::new(trace), index, update, max_depth)
}

/// The family evaluator over an already-prepared trace, sharing
/// `prepared`'s actuals and key stream with every other scheme of the
/// sweep.
///
/// # Panics
///
/// Panics if `max_depth` is out of `1..=MAX_DEPTH`.
pub fn run_history_family_prepared(
    prepared: &PreparedTrace<'_>,
    index: IndexSpec,
    update: UpdateMode,
    max_depth: usize,
) -> FamilyResult {
    assert!(
        (1..=crate::MAX_DEPTH).contains(&max_depth),
        "max_depth must be in 1..={}",
        crate::MAX_DEPTH
    );
    let stream = prepared.key_stream(index);
    // A const depth turns the per-decision fold into a fixed-bound,
    // fully unrollable loop with no per-depth branches.
    match max_depth {
        1 => family::<1>(prepared, &stream, update),
        2 => family::<2>(prepared, &stream, update),
        3 => family::<3>(prepared, &stream, update),
        4 => family::<4>(prepared, &stream, update),
        5 => family::<5>(prepared, &stream, update),
        6 => family::<6>(prepared, &stream, update),
        7 => family::<7>(prepared, &stream, update),
        8 => family::<8>(prepared, &stream, update),
        _ => unreachable!("max_depth checked above"),
    }
}

fn family<const MD: usize>(
    prepared: &PreparedTrace<'_>,
    stream: &KeyStream,
    update: UpdateMode,
) -> FamilyResult {
    let nodes = prepared.nodes();
    let mut family = Family::<MD>::new(nodes);
    kernel::walk(prepared, stream, update, Window::<MD>::cold(), &mut family);
    let (union, inter) = family.finish(nodes);
    FamilyResult { union, inter }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use csp_trace::{LineAddr, NodeId, Pc, SharingEvent};

    fn bm(nodes: &[u8]) -> SharingBitmap {
        nodes.iter().map(|&n| NodeId(n)).collect()
    }

    /// Single-writer producer-consumer trace: node 0 writes line 1, nodes
    /// 1 and 2 always read it.
    fn stable_trace(n_events: usize) -> Trace {
        let mut t = Trace::new(16);
        for i in 0..n_events {
            let (inv, prev) = if i == 0 {
                (SharingBitmap::empty(), None)
            } else {
                (bm(&[1, 2]), Some((NodeId(0), Pc(7))))
            };
            t.push(SharingEvent::new(
                NodeId(0),
                Pc(7),
                LineAddr(1),
                NodeId(0),
                inv,
                prev,
            ));
        }
        t.set_final_readers(LineAddr(1), bm(&[1, 2]));
        t
    }

    /// Two writers alternating on one line, each with its own readers:
    /// the pattern of the paper's Figure 3 where direct update learns the
    /// *other* writer's history.
    fn alternating_trace(pairs: usize) -> Trace {
        let mut t = Trace::new(16);
        let mut prev: Option<(NodeId, Pc)> = None;
        for i in 0..pairs * 2 {
            let (writer, pc, my_readers) = if i % 2 == 0 {
                (NodeId(0), Pc(10), bm(&[4, 5]))
            } else {
                (NodeId(1), Pc(20), bm(&[8, 9]))
            };
            // Invalidation reports the *previous* writer's readers.
            let inv = match prev {
                None => SharingBitmap::empty(),
                Some((NodeId(0), _)) => bm(&[4, 5]),
                Some(_) => bm(&[8, 9]),
            };
            t.push(SharingEvent::new(
                writer,
                pc,
                LineAddr(1),
                NodeId(0),
                inv,
                prev,
            ));
            prev = Some((writer, pc));
            let _ = my_readers;
        }
        // Last writer was node 1 (odd count), its readers are final.
        t.set_final_readers(LineAddr(1), bm(&[8, 9]));
        t
    }

    /// Writer A (node 0, pc 10) and writer B (node 1, pc 20) alternate
    /// on line 1 while A also writes line 2 in between, so A's entry is
    /// reused before line 1 is written again: the update modes deliver
    /// different feedback at different times. Line 1's readers are
    /// {4, 5} after A and {8, 9} after B; line 2's are {6} or {6, 7}.
    fn mixed_trace(rounds: usize) -> Trace {
        let mut t = Trace::new(16);
        let (a, b) = ((NodeId(0), Pc(10)), (NodeId(1), Pc(20)));
        let mut prev1: Option<(NodeId, Pc)> = None;
        let mut prev2: Option<(NodeId, Pc)> = None;
        let mut readers2 = SharingBitmap::empty();
        for round in 0..rounds {
            for writer in [a, b] {
                let inv = match prev1 {
                    None => SharingBitmap::empty(),
                    Some(w) if w == a => bm(&[4, 5]),
                    Some(_) => bm(&[8, 9]),
                };
                t.push(SharingEvent::new(
                    writer.0,
                    writer.1,
                    LineAddr(1),
                    NodeId(0),
                    inv,
                    prev1,
                ));
                prev1 = Some(writer);
                if writer == a {
                    let inv = if prev2.is_some() {
                        readers2
                    } else {
                        SharingBitmap::empty()
                    };
                    t.push(SharingEvent::new(
                        a.0,
                        a.1,
                        LineAddr(2),
                        NodeId(3),
                        inv,
                        prev2,
                    ));
                    prev2 = Some(a);
                    readers2 = if round % 3 == 0 {
                        bm(&[6, 7])
                    } else {
                        bm(&[6])
                    };
                }
            }
        }
        t.set_final_readers(LineAddr(1), bm(&[8, 9]));
        t.set_final_readers(LineAddr(2), readers2);
        t
    }

    #[test]
    fn stable_sharing_is_perfectly_predicted_after_warmup() {
        let trace = stable_trace(50);
        for spec in ["last(pid+pc8)1", "union(pid+pc8)2", "inter(pid+pc8)4"] {
            let scheme: Scheme = spec.parse().unwrap();
            let s = run_scheme(&trace, &scheme).screening();
            assert!(s.pvp > 0.9, "{spec}: pvp {}", s.pvp);
            assert!(s.sensitivity > 0.85, "{spec}: sens {}", s.sensitivity);
        }
    }

    #[test]
    fn forwarded_beats_direct_on_alternating_writers() {
        // With pc indexing, direct update trains writer A's entry with
        // writer B's readers; forwarded update routes feedback correctly.
        let trace = alternating_trace(100);
        let direct: Scheme = "last(pid+pc8)1[direct]".parse().unwrap();
        let fwd: Scheme = "last(pid+pc8)1[forwarded]".parse().unwrap();
        let sd = run_scheme(&trace, &direct).screening();
        let sf = run_scheme(&trace, &fwd).screening();
        assert!(
            sf.pvp > sd.pvp + 0.4,
            "forwarded {:.2} should beat direct {:.2}",
            sf.pvp,
            sd.pvp
        );
        // Direct learns exactly the wrong thing here: PVP ~ 0.
        assert!(sd.pvp < 0.1);
        assert!(sf.pvp > 0.9);
    }

    #[test]
    fn ordered_equals_direct_for_pure_address_indexing() {
        for trace in [stable_trace(40), alternating_trace(40)] {
            for func in [PredictionFunction::Union, PredictionFunction::Inter] {
                for depth in [1, 2, 4] {
                    let ix = IndexSpec::new(false, 0, false, 16);
                    let d = Scheme::new(func, ix, depth, UpdateMode::Direct);
                    let o = Scheme::new(func, ix, depth, UpdateMode::Ordered);
                    let f = Scheme::new(func, ix, depth, UpdateMode::Forwarded);
                    let md = run_scheme(&trace, &d);
                    assert_eq!(md, run_scheme(&trace, &o), "{func} depth {depth} ordered");
                    assert_eq!(md, run_scheme(&trace, &f), "{func} depth {depth} forwarded");
                }
            }
        }
    }

    #[test]
    fn predictions_align_with_run_scheme() {
        let trace = stable_trace(20);
        let scheme: Scheme = "union(pid+pc4)2[direct]".parse().unwrap();
        let preds = predictions_for(&trace, &scheme);
        assert_eq!(preds.len(), trace.len());
        let actuals = trace.resolve_actuals();
        let mut m = ConfusionMatrix::default();
        for (p, a) in preds.iter().zip(&actuals) {
            m.record(*p, *a, trace.nodes());
        }
        assert_eq!(m, run_scheme(&trace, &scheme));
        assert_eq!(preds, reference::predictions(&trace, &scheme));
    }

    #[test]
    fn decisions_equal_events_times_nodes() {
        let trace = alternating_trace(30);
        let scheme: Scheme = "inter(pid)2[direct]".parse().unwrap();
        let m = run_scheme(&trace, &scheme);
        assert_eq!(m.decisions(), trace.len() as u64 * 16);
    }

    #[test]
    fn family_matches_the_reference_at_every_depth() {
        for trace in [alternating_trace(50), mixed_trace(30)] {
            for update in UpdateMode::ALL {
                let ix = IndexSpec::new(true, 4, false, 2);
                let fam = run_history_family(&trace, ix, update, 4);
                for depth in 1..=4 {
                    let u = Scheme::new(PredictionFunction::Union, ix, depth, update);
                    let i = Scheme::new(PredictionFunction::Inter, ix, depth, update);
                    assert_eq!(
                        fam.union[depth - 1],
                        reference::run_scheme(&trace, &u),
                        "union d{depth} {update}"
                    );
                    assert_eq!(
                        fam.inter[depth - 1],
                        reference::run_scheme(&trace, &i),
                        "inter d{depth} {update}"
                    );
                }
            }
        }
    }

    #[test]
    fn family_depth1_equals_last() {
        let trace = stable_trace(30);
        let ix = IndexSpec::new(true, 8, false, 0);
        let fam = run_history_family(&trace, ix, UpdateMode::Direct, 3);
        let last = Scheme::new(PredictionFunction::Last, ix, 1, UpdateMode::Direct);
        assert_eq!(fam.union[0], run_scheme(&trace, &last));
        assert_eq!(fam.inter[0], run_scheme(&trace, &last));
    }

    #[test]
    fn union_sensitivity_at_least_inter_at_same_depth() {
        let trace = alternating_trace(80);
        let ix = IndexSpec::new(true, 0, false, 4);
        let fam = run_history_family(&trace, ix, UpdateMode::Direct, 4);
        for d in 0..4 {
            let su = fam.union[d].screening();
            let si = fam.inter[d].screening();
            assert!(
                su.sensitivity >= si.sensitivity - 1e-12,
                "depth {}: union sens {} < inter sens {}",
                d + 1,
                su.sensitivity,
                si.sensitivity
            );
        }
    }

    #[test]
    fn baseline_last_tracks_system_wide_bitmap() {
        // With the baseline, the entry is shared by all lines: the
        // prediction is always the most recent invalidation in the system.
        let trace = stable_trace(10);
        let m = run_scheme(&trace, &Scheme::baseline_last());
        // Direct update delivers the event's own feedback before
        // predicting; on this single-line stable trace that is perfect
        // after warmup.
        assert!(m.screening().pvp > 0.9);
    }

    #[test]
    fn empty_trace_yields_empty_matrix() {
        let trace = Trace::new(16);
        let m = run_scheme(&trace, &Scheme::baseline_last());
        assert_eq!(m.decisions(), 0);
    }

    /// Every function, update mode and depth, through the confusion
    /// tally and the per-event sink, against the reference.
    #[test]
    fn kernel_matches_the_reference_on_every_function_update_and_depth() {
        for trace in [alternating_trace(60), mixed_trace(40)] {
            let prepared = PreparedTrace::new(&trace);
            for func in ["last", "union", "inter", "overlap-last", "pas"] {
                for update in ["direct", "forwarded", "ordered"] {
                    for depth in [1usize, 2, 4, 8] {
                        let spec = match func {
                            "overlap-last" => format!("overlap-last(pid+pc4)[{update}]"),
                            "last" => format!("last(pid+pc4)1[{update}]"),
                            _ => format!("{func}(pid+pc4){depth}[{update}]"),
                        };
                        let scheme: Scheme = spec.parse().unwrap();
                        let expected = reference::run_scheme(&trace, &scheme);
                        assert_eq!(run_scheme_prepared(&prepared, &scheme), expected, "{spec}");
                        assert_eq!(
                            predictions_for_prepared(&prepared, &scheme),
                            reference::predictions(&trace, &scheme),
                            "{spec} predictions"
                        );
                    }
                }
            }
            // All schemes above share one index: one key stream serves them all.
            assert_eq!(prepared.cached_streams(), 1);
        }
    }

    /// The three update modes must score this trace three different ways
    /// — so the equality with the reference above is not blind to which
    /// mode ran — and the kernel must match the reference in each.
    #[test]
    fn reference_tells_the_update_modes_apart() {
        let trace = mixed_trace(20);
        let matrices: Vec<ConfusionMatrix> = UpdateMode::ALL
            .iter()
            .map(|&update| {
                let scheme = Scheme::new(
                    PredictionFunction::Last,
                    IndexSpec::new(true, 8, false, 0),
                    1,
                    update,
                );
                let expected = reference::run_scheme(&trace, &scheme);
                assert_eq!(run_scheme(&trace, &scheme), expected, "{update}");
                expected
            })
            .collect();
        assert_ne!(matrices[0], matrices[1], "direct vs forwarded");
        assert_ne!(matrices[0], matrices[2], "direct vs ordered");
        assert_ne!(matrices[1], matrices[2], "forwarded vs ordered");
    }
}

/// Compares two schemes decision-by-decision on the same trace, producing
/// the paired counts McNemar's test needs (see
/// [`csp_metrics::compare::PairedComparison`]). A per-node bit is
/// "correct" when it matches the actual bit.
pub fn compare_schemes(
    trace: &Trace,
    a: &Scheme,
    b: &Scheme,
) -> csp_metrics::compare::PairedComparison {
    // One preparation serves both prediction passes and the actuals —
    // previously this resolved the trace three times over.
    compare_schemes_prepared(&PreparedTrace::new(trace), a, b)
}

/// [`compare_schemes`] over an already-prepared trace.
pub fn compare_schemes_prepared(
    prepared: &PreparedTrace<'_>,
    a: &Scheme,
    b: &Scheme,
) -> csp_metrics::compare::PairedComparison {
    let preds_a = predictions_for_prepared(prepared, a);
    let preds_b = predictions_for_prepared(prepared, b);
    let actuals = prepared.actuals();
    let nodes = prepared.nodes();
    let mut paired = csp_metrics::compare::PairedComparison::default();
    for ((pa, pb), actual) in preds_a.iter().zip(&preds_b).zip(actuals) {
        // XOR with the actual bitmap marks the *wrong* bits of each.
        let wrong_a = (*pa ^ *actual).masked(nodes);
        let wrong_b = (*pb ^ *actual).masked(nodes);
        let both_wrong = (wrong_a & wrong_b).count() as u64;
        let only_a_wrong = (wrong_a - wrong_b).count() as u64;
        let only_b_wrong = (wrong_b - wrong_a).count() as u64;
        paired.both_wrong += both_wrong;
        paired.only_a += only_b_wrong; // B wrong, A right: A's win
        paired.only_b += only_a_wrong;
        paired.both_correct += nodes as u64 - both_wrong - only_a_wrong - only_b_wrong;
    }
    paired
}

#[cfg(test)]
mod compare_tests {
    use super::*;
    use csp_trace::{LineAddr, NodeId, Pc, SharingBitmap, SharingEvent};

    fn stable(n: usize) -> Trace {
        let mut t = Trace::new(16);
        let readers = SharingBitmap::from_nodes(&[NodeId(1), NodeId(2)]);
        for i in 0..n {
            let inv = if i == 0 {
                SharingBitmap::empty()
            } else {
                readers
            };
            let prev = if i == 0 {
                None
            } else {
                Some((NodeId(0), Pc(7)))
            };
            t.push(SharingEvent::new(
                NodeId(0),
                Pc(7),
                LineAddr(3),
                NodeId(1),
                inv,
                prev,
            ));
        }
        t.set_final_readers(LineAddr(3), readers);
        t
    }

    #[test]
    fn scheme_vs_itself_has_no_disagreements() {
        let trace = stable(30);
        let s: Scheme = "union(pid+pc4)2".parse().unwrap();
        let paired = compare_schemes(&trace, &s, &s);
        assert_eq!(paired.only_a, 0);
        assert_eq!(paired.only_b, 0);
        assert_eq!(paired.total(), trace.len() as u64 * 16);
    }

    #[test]
    fn accuracy_matches_confusion_matrix() {
        let trace = stable(30);
        let a: Scheme = "last(pid+pc8)1".parse().unwrap();
        let b: Scheme = "inter(pid+pc8)4".parse().unwrap();
        let paired = compare_schemes(&trace, &a, &b);
        let ma = run_scheme(&trace, &a);
        let acc_a = (ma.tp + ma.tn) as f64 / ma.decisions() as f64;
        assert!((paired.accuracy_a() - acc_a).abs() < 1e-12);
    }

    /// Pins `compare_schemes` against the reference's per-event
    /// predictions and actuals.
    #[test]
    fn compare_matches_the_reference_spelling() {
        let trace = stable(50);
        let a: Scheme = "last(pid+pc8)1".parse().unwrap();
        let b: Scheme = "inter(pid+pc8)4[forwarded]".parse().unwrap();
        let preds_a = crate::reference::predictions(&trace, &a);
        let preds_b = crate::reference::predictions(&trace, &b);
        let actuals = crate::reference::actuals(&trace);
        let nodes = trace.nodes();
        let mut expected = csp_metrics::compare::PairedComparison::default();
        for ((pa, pb), actual) in preds_a.iter().zip(&preds_b).zip(&actuals) {
            let wrong_a = (*pa ^ *actual).masked(nodes);
            let wrong_b = (*pb ^ *actual).masked(nodes);
            let both_wrong = (wrong_a & wrong_b).count() as u64;
            let only_a_wrong = (wrong_a - wrong_b).count() as u64;
            let only_b_wrong = (wrong_b - wrong_a).count() as u64;
            expected.both_wrong += both_wrong;
            expected.only_a += only_b_wrong;
            expected.only_b += only_a_wrong;
            expected.both_correct += nodes as u64 - both_wrong - only_a_wrong - only_b_wrong;
        }
        let got = compare_schemes(&trace, &a, &b);
        assert_eq!(got.both_wrong, expected.both_wrong);
        assert_eq!(got.only_a, expected.only_a);
        assert_eq!(got.only_b, expected.only_b);
        assert_eq!(got.both_correct, expected.both_correct);
        // And the prepared form shares one preparation across both passes.
        let prepared = PreparedTrace::new(&trace);
        let via_prepared = compare_schemes_prepared(&prepared, &a, &b);
        assert_eq!(via_prepared.only_a, expected.only_a);
        assert_eq!(via_prepared.only_b, expected.only_b);
    }

    #[test]
    fn a_strictly_better_shows_significant_wins() {
        // On a stable trace the warm `last` beats a cold-start-heavy
        // depth-4 inter (which abstains for its first 4 intervals).
        let trace = stable(100);
        let a: Scheme = "last(pid+pc8)1".parse().unwrap();
        let b: Scheme = "inter(pid+pc8)4".parse().unwrap();
        let paired = compare_schemes(&trace, &a, &b);
        assert!(paired.only_a > paired.only_b);
    }
}
