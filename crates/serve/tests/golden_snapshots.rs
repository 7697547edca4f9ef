//! Snapshot files written by an earlier table implementation still
//! restore, predict and re-save exactly.
//!
//! Each `data/golden-*.cspsnap` fixture was written by `csp-served`'s
//! snapshot writer when the online table still kept its own
//! runtime-depth history rings and hashed PAs entries: the scheme
//! replayed the first [`CUT`] events of [`golden_trace`] on
//! [`SHARDS`] shards and was captured with `seq = CUT`. The fixtures
//! pin the `CSPSNAP2` bytes across storage rewrites:
//!
//! * restoring one and replaying the rest of the trace must count
//!   exactly what the independent reference evaluator counts over the
//!   whole trace, so the restored entries predict like an offline
//!   replay;
//! * re-saving it, from the decoded state or from a restored engine,
//!   must reproduce the file byte for byte.

use csp_core::{reference, PredictorTable, PreparedTrace, RawEntry, Scheme};
use csp_serve::snapshot::{read_engine_state, write_engine_state, EngineState};
use csp_trace::{LineAddr, NodeId, Pc, SharingBitmap, SharingEvent, Trace};
use std::path::PathBuf;

const EVENTS: usize = 600;
const CUT: usize = 420;
const SHARDS: usize = 2;

/// `(fixture name, scheme)`.
const FIXTURES: [(&str, &str); 4] = [
    ("golden-union", "union(pid+pc8)2[forwarded]"),
    ("golden-overlap-last", "overlap-last(pid+pc8)[direct]"),
    ("golden-inter", "inter(pid+add6)4[direct]"),
    ("golden-pas", "pas(pid+add8)3[direct]"),
];

/// A deterministic 16-node trace: xorshift-chosen writers, PCs and
/// lines, and invalidations that mix a line-stable reader set with
/// noise, so every prediction function sees both repeats and misses.
fn golden_trace() -> Trace {
    const LINES: usize = 40;
    let mut t = Trace::new(16);
    let mut prev: Vec<Option<(NodeId, Pc)>> = vec![None; LINES];
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for _ in 0..EVENTS {
        let r = next();
        let line = (r % LINES as u64) as usize;
        let writer = NodeId(((r >> 8) % 16) as u8);
        let pc = Pc(0x40 + ((r >> 16) % 6) as u32);
        let inv = match prev[line] {
            None => SharingBitmap::empty(),
            Some(_) => {
                let stable = 0b11u64 << (line % 14);
                let noise = (r >> 24) & (r >> 40) & 0xFFFF;
                SharingBitmap::from_bits((stable | noise) & !(1 << writer.index()))
            }
        };
        t.push(SharingEvent::new(
            writer,
            pc,
            LineAddr(line as u64),
            NodeId((line % 16) as u8),
            inv,
            prev[line],
        ));
        prev[line] = Some((writer, pc));
    }
    for line in 0..LINES as u64 {
        t.set_final_readers(LineAddr(line), SharingBitmap::from_nodes(&[NodeId(5)]));
    }
    t
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(format!("{name}.cspsnap"))
}

fn encode(state: &EngineState) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_engine_state(&mut bytes, state).unwrap();
    bytes
}

#[test]
fn golden_snapshots_restore_predict_and_resave_byte_for_byte() {
    let trace = golden_trace();
    let prepared = PreparedTrace::new(&trace);
    for (name, spec) in FIXTURES {
        let scheme: Scheme = spec.parse().unwrap();
        let bytes = std::fs::read(fixture(name)).unwrap();
        let state = read_engine_state(bytes.as_slice()).unwrap();
        assert_eq!(state.scheme, scheme, "{name}");
        assert_eq!((state.nodes, state.seq), (16, CUT as u64), "{name}");
        assert_eq!(state.shards.len(), SHARDS, "{name}");
        assert_eq!(encode(&state), bytes, "{name}: decoded state re-saves");

        let engine = state.restore().unwrap();
        assert_eq!(
            encode(&EngineState::capture(&engine, CUT as u64)),
            bytes,
            "{name}: restored engine re-saves"
        );
        engine.replay_range(&prepared, CUT..EVENTS).unwrap();
        assert_eq!(
            engine.stats().confusion,
            reference::run_scheme(&trace, &scheme),
            "{name}: restored prefix plus replayed rest != offline"
        );
    }
}

#[test]
fn golden_snapshots_hold_partly_filled_histories() {
    for (name, spec) in FIXTURES {
        let scheme: Scheme = spec.parse().unwrap();
        let bytes = std::fs::read(fixture(name)).unwrap();
        let state = read_engine_state(bytes.as_slice()).unwrap();
        let mut table = PredictorTable::new(&scheme, 16);
        for shard in state.shards {
            table.absorb(shard.table);
        }
        if !table.uses_history() {
            continue;
        }
        let partial = table
            .entries()
            .filter(|(_, raw)| matches!(raw, RawEntry::History(h) if h.len < h.depth))
            .count();
        assert!(partial > 0, "{name}: every history is full");
    }
}
