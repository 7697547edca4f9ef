//! Equivalence suite for the tuple-table stream build and the partition
//! classes the sweep planner scores once each.
//!
//! * A key stream's slot columns and [`PreparedTrace::event_keys`], both
//!   gathered through the tuple table, equal a per-event
//!   [`IndexSpec::key_of`] / [`IndexSpec::forward_key_of`] pass with
//!   first-occurrence slot numbering, on every column.
//! * Specs that [`PreparedTrace::partition_classes`] puts in one class
//!   give identical family results under every update mode, and each
//!   matches the reference evaluator.
//! * Specs in different classes give different per-event slot sequences:
//!   a class never merges two distinct partitions.

use csp_core::engine::run_history_family_prepared;
use csp_core::{
    reference, IndexSpec, KeyStream, PredictionFunction, PreparedTrace, Scheme, UpdateMode,
};
use csp_trace::{LineAddr, NodeId, Pc, SharingBitmap, SharingEvent, Trace};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashMap;

const NODES: usize = 8;

/// One raw generated event: `(line, writer, pc, feedback_bits, final_bits)`.
type RawEvent = (u64, u8, u32, u8, u8);

/// Builds a trace with consistent per-line previous-writer chains and the
/// home node a function of the line, as in generated traces — so wide
/// truncations and `dir` next to `addr` produce duplicate partitions.
fn build_trace(raw: &[RawEvent]) -> Trace {
    let mut t = Trace::new(NODES);
    let mut last: HashMap<u64, (NodeId, Pc)> = HashMap::new();
    for &(line, writer, pc, bits, _) in raw {
        let writer = NodeId(writer % NODES as u8);
        let pc = Pc(pc % 64);
        let prev = last.get(&line).copied();
        let invalidated = if prev.is_some() {
            SharingBitmap::from_bits(u64::from(bits)).masked(NODES)
        } else {
            SharingBitmap::empty()
        };
        let home = NodeId((line % NODES as u64) as u8);
        t.push(SharingEvent::new(
            writer,
            pc,
            LineAddr(line),
            home,
            invalidated,
            prev,
        ));
        last.insert(line, (writer, pc));
    }
    for &(line, _, _, _, final_bits) in raw {
        t.set_final_readers(
            LineAddr(line),
            SharingBitmap::from_bits(u64::from(final_bits)).masked(NODES),
        );
    }
    t
}

fn raw_events() -> impl Strategy<Value = Vec<RawEvent>> {
    vec(
        (
            0u64..48,
            any::<u8>(),
            any::<u32>(),
            any::<u8>(),
            any::<u8>(),
        ),
        1..60,
    )
}

fn spec() -> impl Strategy<Value = IndexSpec> {
    (any::<bool>(), 0u8..=8, any::<bool>(), 0u8..=8)
        .prop_map(|(pid, pc, dir, addr)| IndexSpec::new(pid, pc, dir, addr))
}

/// Per-event columns of `index` computed the direct way: keys from
/// `key_of`/`forward_key_of`, slots numbered by first occurrence over the
/// predictor key then the forward key of each event.
struct Expected {
    keys: Vec<u64>,
    forward_keys: Vec<u64>,
    slots: Vec<u32>,
    forward_slots: Vec<Option<u32>>,
    slot_count: usize,
}

fn expected(trace: &Trace, index: IndexSpec) -> Expected {
    let nb = csp_core::node_bits(trace.nodes());
    let mut remap: HashMap<u64, u32> = HashMap::new();
    let mut slot_of = |key: u64| {
        let next = remap.len() as u32;
        *remap.entry(key).or_insert(next)
    };
    let mut out = Expected {
        keys: Vec::new(),
        forward_keys: Vec::new(),
        slots: Vec::new(),
        forward_slots: Vec::new(),
        slot_count: 0,
    };
    for e in trace.events() {
        let key = index.key_of(e, nb);
        out.keys.push(key);
        out.slots.push(slot_of(key));
        let fkey = index.forward_key_of(e, nb);
        out.forward_keys.push(fkey.unwrap_or(0));
        out.forward_slots.push(fkey.map(&mut slot_of));
    }
    out.slot_count = remap.len();
    out
}

/// The per-event slot and forward slot a stream assigns; an event
/// without a previous writer has no forward slot.
fn slot_sequence(prepared: &PreparedTrace<'_>, stream: &KeyStream) -> (Vec<u32>, Vec<Option<u32>>) {
    let forward = stream
        .forward_slots()
        .iter()
        .zip(prepared.has_prev())
        .map(|(&slot, &has_prev)| has_prev.then_some(slot))
        .collect();
    (stream.slots().to_vec(), forward)
}

/// Asserts every column of `stream`, and the ground-truth columns the
/// kernel reads beside it, against the direct computation.
fn check_stream(trace: &Trace, stream: &KeyStream, index: IndexSpec) -> Result<(), TestCaseError> {
    let want = expected(trace, index);
    let events = trace.events();
    prop_assert_eq!(stream.index(), index);
    let prepared = PreparedTrace::new(trace);
    let (keys, forward_keys) = prepared.event_keys(index, 0..events.len());
    prop_assert_eq!(keys.as_slice(), want.keys.as_slice(), "keys of {}", index);
    prop_assert_eq!(
        forward_keys.as_slice(),
        want.forward_keys.as_slice(),
        "forward keys of {}",
        index
    );
    prop_assert_eq!(
        stream.slot_count(),
        want.slot_count,
        "slot count of {}",
        index
    );
    prop_assert_eq!(stream.slots(), want.slots.as_slice(), "slots of {}", index);
    // Events without a previous writer hold the sentinel slot 0.
    let forward: Vec<u32> = want.forward_slots.iter().map(|s| s.unwrap_or(0)).collect();
    prop_assert_eq!(
        stream.forward_slots(),
        forward.as_slice(),
        "forward slots of {}",
        index
    );
    prop_assert_eq!(
        slot_sequence(&prepared, stream),
        (want.slots.clone(), want.forward_slots.clone()),
        "slot sequence of {}",
        index
    );
    // The payloads the walk reads in trace order beside the slots.
    let actuals = trace.resolve_actuals();
    prop_assert_eq!(prepared.actuals(), actuals.as_slice());
    for (e, event) in events.iter().enumerate() {
        prop_assert_eq!(prepared.invalidated()[e], event.invalidated);
        prop_assert_eq!(prepared.has_prev()[e], event.prev_writer.is_some());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Gather-built streams, through the cache and through
    /// `KeyStream::compute`, equal the per-event computation.
    #[test]
    fn gathered_stream_equals_per_event_keys(raw in raw_events(), specs in vec(spec(), 1..8)) {
        let trace = build_trace(&raw);
        let prepared = PreparedTrace::new(&trace);
        for &index in &specs {
            check_stream(&trace, &prepared.key_stream(index), index)?;
            check_stream(&trace, &KeyStream::compute(&trace, index), index)?;
        }
    }

    /// One class, one result: every spec scores exactly as its class
    /// representative under direct, forwarded and ordered update, and as
    /// the reference evaluator.
    #[test]
    fn specs_in_one_class_score_identically(raw in raw_events(), specs in vec(spec(), 1..10)) {
        let trace = build_trace(&raw);
        let prepared = PreparedTrace::new(&trace);
        let classes = prepared.partition_classes(&specs);
        for (i, &rep) in classes.iter().enumerate() {
            prop_assert!(rep <= i && classes[rep] == rep, "representative of {} is {}", i, rep);
            for update in UpdateMode::ALL {
                let fam = run_history_family_prepared(&prepared, specs[i], update, 3);
                let rep_fam = run_history_family_prepared(&prepared, specs[rep], update, 3);
                prop_assert_eq!(&fam, &rep_fam, "{} vs {} [{}]", specs[i], specs[rep], update);
                for d in 1..=3 {
                    let u = Scheme::new(PredictionFunction::Union, specs[i], d, update);
                    let n = Scheme::new(PredictionFunction::Inter, specs[i], d, update);
                    prop_assert_eq!(&fam.union[d - 1], &reference::run_scheme(&trace, &u), "{}", u);
                    prop_assert_eq!(&fam.inter[d - 1], &reference::run_scheme(&trace, &n), "{}", n);
                }
            }
        }
    }

    /// Two specs share a class exactly when they give every event the
    /// same slot and forward slot: no false merges, no missed ones.
    #[test]
    fn classes_are_exactly_the_slot_partitions(raw in raw_events(), specs in vec(spec(), 2..12)) {
        let trace = build_trace(&raw);
        let prepared = PreparedTrace::new(&trace);
        let classes = prepared.partition_classes(&specs);
        let sequences: Vec<_> = specs
            .iter()
            .map(|&s| slot_sequence(&prepared, &prepared.key_stream(s)))
            .collect();
        for i in 0..specs.len() {
            for j in 0..i {
                prop_assert_eq!(
                    classes[i] == classes[j],
                    sequences[i] == sequences[j],
                    "{} vs {}", specs[i], specs[j]
                );
            }
        }
    }
}

/// Two specs with the same slot count but different partitions stay in
/// different classes; wide truncations and `dir` beside a line-resolving
/// `addr` merge.
#[test]
fn equal_slot_counts_do_not_merge() {
    let mut t = Trace::new(NODES);
    // Writers {0, 1} and pcs {0, 1} each split four events in two, but
    // differently: pid pairs events (0,1)/(2,3), pc1 pairs (0,2)/(1,3).
    for (writer, pc, line) in [(0, 0, 0), (0, 1, 1), (1, 0, 2), (1, 1, 3)] {
        t.push(SharingEvent::new(
            NodeId(writer),
            Pc(pc),
            LineAddr(line),
            NodeId((line % NODES as u64) as u8),
            SharingBitmap::empty(),
            None,
        ));
    }
    let pid = IndexSpec::new(true, 0, false, 0);
    let pc1 = IndexSpec::new(false, 1, false, 0);
    let prepared = PreparedTrace::new(&t);
    assert_eq!(prepared.key_stream(pid).slot_count(), 2);
    assert_eq!(prepared.key_stream(pc1).slot_count(), 2);
    let add2 = IndexSpec::new(false, 0, false, 2);
    let add16 = IndexSpec::new(false, 0, false, 16);
    let dir_add2 = IndexSpec::new(false, 0, true, 2);
    let pc8 = IndexSpec::new(false, 8, false, 0);
    let pc1_add2 = IndexSpec::new(false, 1, false, 2);
    assert_eq!(
        prepared.partition_classes(&[pid, pc1, add2, add16, dir_add2, pc8, pc1_add2]),
        vec![0, 1, 2, 2, 2, 1, 2]
    );
}
