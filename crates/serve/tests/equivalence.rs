//! The online == offline proof, end to end: replaying every benchmark of
//! the paper's suite through the sharded online engine must produce
//! screening statistics *bit-identical* to the reference evaluator
//! (`csp_core::reference::run_scheme`), for every prediction function
//! family and update mode the paper simulates.
//!
//! This is the guarantee that makes the serving layer trustworthy: the
//! numbers a deployment reports are the numbers the paper's methodology
//! defines, with sharding and batching changing nothing but wall-clock
//! interleaving.

use csp_core::reference::run_scheme;
use csp_core::Scheme;
use csp_serve::ShardedEngine;
use csp_workloads::generate_suite;

/// Small but non-trivial suite: every benchmark present, thousands of
/// events each, same generator the harness uses.
const SCALE: f64 = 0.02;
const SEED: u64 = 11;

fn verify(specs: &[&str], shards: usize) {
    let suite = generate_suite(SCALE, SEED);
    assert_eq!(suite.len(), 7, "the paper's seven benchmarks");
    for spec in specs {
        let scheme: Scheme = spec.parse().expect(spec);
        for bench in &suite {
            let offline = run_scheme(&bench.trace, &scheme);
            let engine = ShardedEngine::new(scheme, bench.trace.nodes(), shards);
            engine.replay_trace(&bench.trace).expect("matching width");
            let snapshot = engine.stats();
            assert_eq!(
                snapshot.confusion, offline,
                "{spec} on {} with {shards} shards: online != offline",
                bench.benchmark
            );
            assert_eq!(snapshot.scored, bench.trace.len() as u64);
            // The screening rates derive deterministically from the
            // counts, so they are bit-identical too.
            assert_eq!(
                snapshot.screening().pvp.to_bits(),
                offline.screening().pvp.to_bits()
            );
        }
    }
}

#[test]
fn last_is_bit_identical_across_the_suite() {
    verify(
        &[
            "last(pid+pc8)1[direct]",
            "last(pid+pc8)1[forwarded]",
            "last(dir+add8)1[direct]",
        ],
        3,
    );
}

#[test]
fn union_depth2_is_bit_identical_across_the_suite() {
    verify(
        &["union(pid+pc8)2[direct]", "union(pid+pc8)2[forwarded]"],
        3,
    );
}

#[test]
fn pas_depth2_is_bit_identical_across_the_suite() {
    verify(&["pas(pid+pc8)2[direct]", "pas(add8)2[direct]"], 3);
}

#[test]
fn ordered_oracle_is_bit_identical_across_the_suite() {
    verify(&["inter(pid+pc8)2[ordered]"], 3);
}

#[test]
fn shard_count_does_not_change_results() {
    // The same scheme over the same workload with different shard counts
    // must agree bit for bit — sharding is a pure routing choice.
    let suite = generate_suite(SCALE, SEED);
    let scheme: Scheme = "union(pid+pc6+add4)2[forwarded]".parse().unwrap();
    let bench = &suite[0];
    let offline = run_scheme(&bench.trace, &scheme);
    for shards in [1, 2, 5, 8] {
        let engine = ShardedEngine::new(scheme, bench.trace.nodes(), shards);
        engine.replay_trace(&bench.trace).expect("matching width");
        assert_eq!(engine.stats().confusion, offline, "{shards} shards");
    }
}
