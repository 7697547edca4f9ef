//! Property-style equivalence suite: the production kernel must be
//! bit-identical to the reference evaluator.
//!
//! Every engine entry point ([`engine::run_scheme_prepared`] and friends)
//! runs the trace-order kernel over shared key streams, with a batched
//! popcount accumulator. [`reference`] evaluates DESIGN.md §3 one event
//! at a time with its own actuals pass and a plain hash map of entries.
//! None of the kernel's machinery may change a single count or a single
//! per-event prediction relative to it: these properties pin that across
//! random small traces, all three update modes, every prediction
//! function, and both accumulator backends; PAs at every history depth
//! and at machine widths up to a full 64-bit word; and one index's mixed
//! scheme list scored together by [`engine::run_index_schemes`].

use csp_core::{
    engine, reference, IndexSpec, PredictionFunction, PredictorTable, PreparedTrace, Scheme,
    SimdBackend, UpdateMode, MAX_DEPTH,
};
use csp_trace::{LineAddr, NodeId, Pc, SharingBitmap, SharingEvent, Trace};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashMap;

const NODES: usize = 8;

/// One raw generated event: `(line, writer, pc, feedback_bits, final_bits)`.
type RawEvent = (u64, u8, u32, u64, u64);

/// Builds an 8-node trace (see [`build_trace_at`]).
fn build_trace(raw: &[RawEvent]) -> Trace {
    build_trace_at(raw, NODES)
}

/// Builds a `nodes`-wide trace with *consistent* per-line previous-writer
/// chains (the invariant real traces have and `forward_key_of` relies
/// on): each event's `prev_writer` is the line's actual previous writer,
/// and only events with a previous writer carry invalidation feedback.
fn build_trace_at(raw: &[RawEvent], nodes: usize) -> Trace {
    let mut t = Trace::new(nodes);
    let mut last: HashMap<u64, (NodeId, Pc)> = HashMap::new();
    for &(line, writer, pc, bits, _) in raw {
        let writer = NodeId(writer % nodes as u8);
        let pc = Pc(pc % 16);
        let prev = last.get(&line).copied();
        let invalidated = if prev.is_some() {
            SharingBitmap::from_bits(bits).masked(nodes)
        } else {
            SharingBitmap::empty()
        };
        let dir = NodeId((line % nodes as u64) as u8);
        t.push(SharingEvent::new(
            writer,
            pc,
            LineAddr(line),
            dir,
            invalidated,
            prev,
        ));
        last.insert(line, (writer, pc));
    }
    for &(line, _, _, _, final_bits) in raw {
        t.set_final_readers(
            LineAddr(line),
            SharingBitmap::from_bits(final_bits).masked(nodes),
        );
    }
    t
}

/// The index points exercised: pc-hybrid, pure-address, full hybrid, and
/// the degenerate baseline (everything shares one entry).
fn index_points() -> [IndexSpec; 4] {
    [
        IndexSpec::new(true, 2, false, 0),
        IndexSpec::new(false, 0, false, 3),
        IndexSpec::new(true, 2, true, 2),
        IndexSpec::none(),
    ]
}

/// Every scheme shape the equivalence must hold for: both storage
/// families (history: last/union/inter/overlap-last; PAs) at a spread of
/// depths.
fn scheme_points(index: IndexSpec, update: UpdateMode) -> Vec<Scheme> {
    let mut out = vec![
        Scheme::new(PredictionFunction::Last, index, 1, update),
        Scheme::new(PredictionFunction::OverlapLast, index, 1, update),
    ];
    for depth in [1, 2, 4] {
        out.push(Scheme::new(PredictionFunction::Union, index, depth, update));
        out.push(Scheme::new(PredictionFunction::Inter, index, depth, update));
        out.push(Scheme::new(PredictionFunction::Pas, index, depth, update));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `run_scheme_prepared` (and the plain `run_scheme`) equal the
    /// reference for every update mode and prediction function, on
    /// random consistent traces.
    #[test]
    fn kernel_scheme_matches_reference(
        raw in vec((0u64..4, any::<u8>(), any::<u32>(), any::<u64>(), any::<u64>()), 1..40),
    ) {
        let trace = build_trace(&raw);
        let prepared = PreparedTrace::new(&trace);
        for index in index_points() {
            for update in UpdateMode::ALL {
                for scheme in scheme_points(index, update) {
                    let expected = reference::run_scheme(&trace, &scheme);
                    prop_assert_eq!(
                        engine::run_scheme_prepared(&prepared, &scheme),
                        expected,
                        "scheme {}", scheme
                    );
                    prop_assert_eq!(engine::run_scheme(&trace, &scheme), expected, "scheme {}", scheme);
                }
            }
        }
    }

    /// One index's scheme list, scored together, equals the reference
    /// scheme by scheme: every function, depths 1-8 and all three update
    /// modes in one list, with at least one scheme listed twice.
    #[test]
    fn index_schemes_match_reference(
        raw in vec((0u64..4, any::<u8>(), any::<u32>(), any::<u64>(), any::<u64>()), 1..40),
        index in 0usize..4,
        picks in vec((0usize..5, 1usize..=MAX_DEPTH, 0usize..3), 1..12),
        twin in 0usize..12,
    ) {
        let trace = build_trace(&raw);
        let prepared = PreparedTrace::new(&trace);
        let index = index_points()[index];
        let mut schemes: Vec<Scheme> = picks
            .iter()
            .map(|&(f, depth, u)| {
                let function = PredictionFunction::ALL[f];
                let depth = match function {
                    PredictionFunction::Last | PredictionFunction::OverlapLast => 1,
                    _ => depth,
                };
                Scheme::new(function, index, depth, UpdateMode::ALL[u])
            })
            .collect();
        schemes.push(schemes[twin % schemes.len()]);
        let got = engine::run_index_schemes(&prepared, &schemes);
        prop_assert_eq!(got.len(), schemes.len());
        for (m, scheme) in got.iter().zip(&schemes) {
            prop_assert_eq!(*m, reference::run_scheme(&trace, scheme), "scheme {}", scheme);
        }
    }

    /// The single-pass family sink equals the reference at every depth
    /// it reports.
    #[test]
    fn kernel_family_matches_reference(
        raw in vec((0u64..4, any::<u8>(), any::<u32>(), any::<u64>(), any::<u64>()), 1..40),
        max_depth in 1usize..=4,
    ) {
        let trace = build_trace(&raw);
        let prepared = PreparedTrace::new(&trace);
        for index in index_points() {
            for update in UpdateMode::ALL {
                let fam = engine::run_history_family_prepared(&prepared, index, update, max_depth);
                for d in 1..=max_depth {
                    let u = Scheme::new(PredictionFunction::Union, index, d, update);
                    let i = Scheme::new(PredictionFunction::Inter, index, d, update);
                    prop_assert_eq!(&fam.union[d - 1], &reference::run_scheme(&trace, &u), "{}", u);
                    prop_assert_eq!(&fam.inter[d - 1], &reference::run_scheme(&trace, &i), "{}", i);
                }
            }
        }
    }

    /// Per-event predictions (not just aggregate matrices) equal the
    /// reference's for every function, update mode and depth, PAs
    /// included — which pins the kernel's event-to-slot mapping, the
    /// forwarded update's previous-writer slot included. Both
    /// accumulator backends score the same decisions to the reference's
    /// matrix.
    #[test]
    fn kernel_predictions_match_reference(
        raw in vec((0u64..6, any::<u8>(), any::<u32>(), any::<u64>(), any::<u64>()), 1..30),
    ) {
        let trace = build_trace(&raw);
        let prepared = PreparedTrace::new(&trace);
        for index in index_points() {
            for update in UpdateMode::ALL {
                for scheme in scheme_points(index, update) {
                    prop_assert_eq!(
                        engine::predictions_for_prepared(&prepared, &scheme),
                        reference::predictions(&trace, &scheme),
                        "scheme {}", scheme
                    );
                    let expected = reference::run_scheme(&trace, &scheme);
                    for backend in [SimdBackend::Scalar, SimdBackend::Avx2] {
                        prop_assert_eq!(
                            engine::run_scheme_with_backend(&prepared, &scheme, backend),
                            expected,
                            "scheme {} via {}", scheme, backend.name()
                        );
                    }
                }
            }
        }
    }

    /// Narrower machines keep the equivalence: the node count only
    /// changes the confusion matrix's true-negative algebra, which the
    /// batched counters must reproduce exactly.
    #[test]
    fn kernel_matches_reference_across_node_counts(
        raw in vec((0u64..4, any::<u8>(), any::<u32>(), any::<u64>(), any::<u64>()), 1..30),
        nodes in 1usize..=16,
    ) {
        let t = build_trace_at(&raw, nodes);
        let prepared = PreparedTrace::new(&t);
        for update in UpdateMode::ALL {
            for scheme in scheme_points(IndexSpec::new(true, 2, true, 2), update) {
                prop_assert_eq!(
                    engine::run_scheme_prepared(&prepared, &scheme),
                    reference::run_scheme(&t, &scheme),
                    "scheme {} nodes {}", scheme, nodes
                );
            }
        }
    }

    /// PAs at every history depth, under every update mode: per-event
    /// predictions and matrices through both accumulator backends equal
    /// the reference. The widths cover a lone node, a mask ending
    /// mid-byte, the paper's machine and a full word (bit 63 set, no bits
    /// past the last node to mask).
    #[test]
    fn pas_matches_reference_at_every_depth_and_width(
        raw in vec((0u64..4, any::<u8>(), any::<u32>(), any::<u64>(), any::<u64>()), 1..40),
    ) {
        for nodes in [1, 5, 16, 64] {
            let trace = build_trace_at(&raw, nodes);
            let prepared = PreparedTrace::new(&trace);
            for index in index_points() {
                for update in UpdateMode::ALL {
                    for depth in 1..=MAX_DEPTH {
                        let scheme = Scheme::new(PredictionFunction::Pas, index, depth, update);
                        prop_assert_eq!(
                            engine::predictions_for_prepared(&prepared, &scheme),
                            reference::predictions(&trace, &scheme),
                            "scheme {} nodes {}", scheme, nodes
                        );
                        let expected = reference::run_scheme(&trace, &scheme);
                        for backend in [SimdBackend::Scalar, SimdBackend::Avx2] {
                            prop_assert_eq!(
                                engine::run_scheme_with_backend(&prepared, &scheme, backend),
                                expected,
                                "scheme {} nodes {} via {}", scheme, nodes, backend.name()
                            );
                        }
                    }
                }
            }
        }
    }

    /// Splitting a table's key space across shards and absorbing the
    /// shards back reproduces the unsharded table exactly — the
    /// invariant the serving engine's scatter/gather rests on.
    #[test]
    fn arena_split_absorb_round_trips(
        ops in vec((any::<u64>(), any::<u8>()), 1..200),
        shards in 1usize..=5,
    ) {
        let scheme = Scheme::new(
            PredictionFunction::Union,
            IndexSpec::new(true, 2, false, 2),
            2,
            UpdateMode::Direct,
        );
        let mut whole = PredictorTable::new(&scheme, NODES);
        let mut parts = PredictorTable::split(&scheme, NODES, shards);
        for &(key, bits) in &ops {
            let feedback = SharingBitmap::from_bits(u64::from(bits)).masked(NODES);
            whole.update(key, feedback);
            parts[csp_core::shard_of_key(key, shards)].update(key, feedback);
        }
        let mut merged = PredictorTable::new(&scheme, NODES);
        for part in parts {
            merged.absorb(part);
        }
        prop_assert_eq!(merged.entries_touched(), whole.entries_touched());
        for &(key, _) in &ops {
            prop_assert_eq!(merged.predict(key), whole.predict(key), "key {}", key);
        }
    }

    /// Paired comparisons equal the counts rebuilt from the reference's
    /// per-event predictions and actuals.
    #[test]
    fn compare_matches_reference(
        raw in vec((0u64..4, any::<u8>(), any::<u32>(), any::<u64>(), any::<u64>()), 1..30),
    ) {
        let trace = build_trace(&raw);
        let prepared = PreparedTrace::new(&trace);
        let a = Scheme::new(PredictionFunction::Last, IndexSpec::new(true, 2, false, 0), 1, UpdateMode::Direct);
        let b = Scheme::new(PredictionFunction::Pas, IndexSpec::new(false, 0, false, 3), 2, UpdateMode::Forwarded);
        let got = engine::compare_schemes_prepared(&prepared, &a, &b);
        let (pa, pb) = (reference::predictions(&trace, &a), reference::predictions(&trace, &b));
        let (mut only_a, mut only_b, mut both_wrong) = (0, 0, 0);
        for ((pa, pb), actual) in pa.iter().zip(&pb).zip(reference::actuals(&trace)) {
            let wrong_a = (*pa ^ actual).masked(NODES);
            let wrong_b = (*pb ^ actual).masked(NODES);
            both_wrong += u64::from((wrong_a & wrong_b).count());
            only_a += u64::from((wrong_b - wrong_a).count());
            only_b += u64::from((wrong_a - wrong_b).count());
        }
        prop_assert_eq!(got.both_wrong, both_wrong);
        prop_assert_eq!(got.only_a, only_a);
        prop_assert_eq!(got.only_b, only_b);
        prop_assert_eq!(got.total(), trace.len() as u64 * NODES as u64);
    }
}

/// A deterministic exhaustive sweep on one fixed trace: every function x
/// update x depth x index point, so a failure here names the exact cell
/// without needing the property seed.
#[test]
fn exhaustive_fixed_trace_sweep() {
    let raw: Vec<RawEvent> = (0..48u64)
        .map(|i| {
            (
                i % 3,
                (i * 5 % 7) as u8,
                (i * 11 % 5) as u32,
                i * 37 % 251,
                i * 13 % 251,
            )
        })
        .collect();
    let trace = build_trace(&raw);
    let prepared = PreparedTrace::new(&trace);
    for index in index_points() {
        for update in UpdateMode::ALL {
            for scheme in scheme_points(index, update) {
                assert_eq!(
                    engine::run_scheme_prepared(&prepared, &scheme),
                    reference::run_scheme(&trace, &scheme),
                    "scheme {scheme}"
                );
            }
        }
    }
    // One key stream per index point, shared across all schemes above.
    assert_eq!(prepared.cached_streams(), index_points().len());
}
