//! Serve-backed evaluation: runs suite experiments through the *online*
//! sharded engine (`csp-serve`) instead of the offline single-threaded
//! engine, and verifies the two agree bit for bit.
//!
//! The reference evaluator ([`csp_core::reference`]) is the
//! methodological ground truth; the sharded engine is what a deployment
//! would run. This module is the bridge that proves switching to the
//! deployment path changes *nothing*: same confusion counts, same
//! screening rates, on every benchmark.

use crate::runner::{SchemeStats, Suite};
use csp_core::reference::run_scheme;
use csp_core::Scheme;
use csp_metrics::ConfusionMatrix;
use csp_serve::ShardedEngine;
use csp_workloads::Benchmark;
use std::fmt;

/// Evaluates one scheme over every benchmark through the sharded online
/// engine — the serve-backed twin of [`crate::runner::evaluate_scheme`].
pub fn evaluate_scheme_online(suite: &Suite, scheme: &Scheme, shards: usize) -> SchemeStats {
    let per_benchmark = suite
        .traces()
        .iter()
        .map(|b| {
            let engine = ShardedEngine::new(*scheme, b.trace.nodes(), shards);
            engine
                .replay_trace(&b.trace)
                .expect("engine built with the trace's own width");
            engine.stats().confusion
        })
        .collect();
    SchemeStats::from_matrices(*scheme, per_benchmark)
}

/// One benchmark where online and offline evaluation disagreed.
#[derive(Clone, Debug)]
pub struct ServeDivergence {
    /// The scheme that diverged.
    pub scheme: Scheme,
    /// The benchmark it diverged on.
    pub benchmark: Benchmark,
    /// What the sharded online engine counted.
    pub online: ConfusionMatrix,
    /// What the reference evaluator counted.
    pub offline: ConfusionMatrix,
}

impl fmt::Display for ServeDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {}: online {:?} != offline {:?}",
            self.scheme, self.benchmark, self.online, self.offline
        )
    }
}

/// Replays every benchmark through the online engine for each scheme and
/// compares against the reference evaluator. An empty return means the
/// online == offline proof holds for the whole grid.
pub fn verify_online_equivalence(
    suite: &Suite,
    schemes: &[Scheme],
    shards: usize,
) -> Vec<ServeDivergence> {
    let mut divergences = Vec::new();
    for scheme in schemes {
        for bench in suite.traces() {
            let offline = run_scheme(&bench.trace, scheme);
            let engine = ShardedEngine::new(*scheme, bench.trace.nodes(), shards);
            engine
                .replay_trace(&bench.trace)
                .expect("engine built with the trace's own width");
            let online = engine.stats().confusion;
            if online != offline {
                divergences.push(ServeDivergence {
                    scheme: *scheme,
                    benchmark: bench.benchmark,
                    online,
                    offline,
                });
            }
        }
    }
    divergences
}

/// Proves the replication pipeline preserves bit-identity in-process:
/// for every benchmark, a leader journals half the trace, a follower
/// bootstraps from the frozen snapshot, the remainder streams through
/// the replication log in [`MAX_SEGMENT_OPS`]-bounded segments — and the
/// follower must end bit-identical to both the leader and the reference
/// evaluator.
///
/// [`MAX_SEGMENT_OPS`]: csp_serve::MAX_SEGMENT_OPS
///
/// An empty return means the proof holds; entries are human-readable
/// divergence descriptions.
pub fn verify_replication_equivalence(
    suite: &Suite,
    scheme: &Scheme,
    shards: usize,
) -> Vec<String> {
    use csp_core::PreparedTrace;
    use csp_serve::replication::{self, snapshot_at_head};
    use csp_serve::{IngestOp, ReplOp, ReplicationLog, MAX_SEGMENT_OPS};
    use std::time::Duration;

    let mut divergences = Vec::new();
    for bench in suite.traces() {
        let offline = run_scheme(&bench.trace, scheme);
        let nodes = bench.trace.nodes();
        let fp = replication::fingerprint(scheme, nodes);

        // Leader: journal from the start, snapshot mid-trace.
        let leader = ShardedEngine::new(*scheme, nodes, shards);
        leader
            .attach_replication(ReplicationLog::in_memory(fp))
            .expect("fresh engine has no log");
        let prepared = PreparedTrace::new(&bench.trace);
        let half = prepared.len() / 2;
        leader
            .replay_range(&prepared, 0..half)
            .expect("engine built with the trace's own width");
        leader.flush();
        let state = snapshot_at_head(&leader).expect("in-memory snapshot cannot fail on io");

        // Follower: bootstrap from the snapshot, then stream the rest.
        let mut offset = state.seq;
        let follower = state.restore().expect("snapshot restores");
        follower.mark_follower();

        leader
            .replay_range(&prepared, half..prepared.len())
            .expect("engine built with the trace's own width");
        leader.flush();
        let log = leader.replication().expect("attached above");
        let head = log.head();
        while offset < head {
            let segment = match log.wait_segment(offset, MAX_SEGMENT_OPS, Duration::from_millis(10))
            {
                Ok(segment) => segment,
                Err(e) => {
                    divergences.push(format!(
                        "{scheme} on {}: stream broke at offset {offset}: {e:?}",
                        bench.benchmark
                    ));
                    break;
                }
            };
            let ops: Vec<IngestOp> = segment.ops.iter().map(ReplOp::to_ingest).collect();
            offset += ops.len() as u64;
            follower.ingest_ops(ops);
        }
        follower.flush();

        let l = leader.stats();
        let f = follower.stats();
        if f.confusion != offline {
            divergences.push(format!(
                "{scheme} on {}: follower {:?} != offline {:?}",
                bench.benchmark, f.confusion, offline
            ));
        }
        if (l.confusion, l.updates, l.scored, l.entries)
            != (f.confusion, f.updates, f.scored, f.entries)
        {
            divergences.push(format!(
                "{scheme} on {}: follower ({:?}, updates {}, scored {}, entries {}) \
                 != leader ({:?}, updates {}, scored {}, entries {})",
                bench.benchmark,
                f.confusion,
                f.updates,
                f.scored,
                f.entries,
                l.confusion,
                l.updates,
                l.scored,
                l.entries
            ));
        }
    }
    divergences
}

/// Proves the decision audit stream is a faithful witness across the
/// suite: for every benchmark, a live sharded engine records every
/// scored decision to an in-memory audit log, and [`verify_log`] replays
/// the trace through the offline twin and demands the recorded records
/// be byte-identical — including the engine's end state.
///
/// An empty return means the proof holds; entries are human-readable
/// divergence descriptions.
///
/// [`verify_log`]: csp_serve::verify_log
pub fn verify_audit_equivalence(suite: &Suite, schemes: &[Scheme], shards: usize) -> Vec<String> {
    use csp_serve::audit::AuditSink;
    use csp_serve::EngineState;
    use csp_trace::audit::read_audit_log;
    use std::io::Write;
    use std::sync::{Arc, Mutex};

    /// In-memory audit log target shared between the sink and the reader.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().expect("audit buffer").extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let mut divergences = Vec::new();
    for scheme in schemes {
        for bench in suite.traces() {
            let nodes = bench.trace.nodes();
            let engine = ShardedEngine::new(*scheme, nodes, shards);
            let buf = SharedBuf::default();
            let sink = Arc::new(
                AuditSink::to_writer(Box::new(buf.clone()), scheme, nodes, shards as u16, 1)
                    .expect("in-memory audit sink cannot fail on io"),
            );
            engine
                .attach_audit(Arc::clone(&sink))
                .expect("fresh engine has no sink");
            engine
                .replay_trace(&bench.trace)
                .expect("engine built with the trace's own width");
            let final_state = EngineState::capture(&engine, 0);
            let bytes = buf.0.lock().expect("audit buffer").clone();
            let log = match read_audit_log(bytes.as_slice(), None) {
                Ok(log) => log,
                Err(e) => {
                    divergences.push(format!(
                        "{scheme} on {}: audit log unreadable: {e}",
                        bench.benchmark
                    ));
                    continue;
                }
            };
            let prepared = csp_core::PreparedTrace::new(&bench.trace);
            match csp_serve::verify_log(&log, &prepared, scheme, None, Some(&final_state)) {
                Ok(report) if report.checked != report.decisions => divergences.push(format!(
                    "{scheme} on {}: unsampled log covered {} of {} decisions",
                    bench.benchmark, report.checked, report.decisions
                )),
                Ok(_) => {}
                Err(e) => divergences.push(format!("{scheme} on {}: {e}", bench.benchmark)),
            }
        }
    }
    divergences
}

/// The scheme grid `csp-repro --verify-serve` checks: the paper's three
/// prediction-function families under every update mode they support.
pub fn verification_schemes() -> Vec<Scheme> {
    [
        "last(pid+pc8)1[direct]",
        "last(pid+pc8)1[forwarded]",
        "union(pid+pc8)2[direct]",
        "union(pid+pc8)2[forwarded]",
        "union(dir+add8)2[ordered]",
        "pas(pid+pc8)2[direct]",
    ]
    .iter()
    .map(|s| s.parse().expect("verification scheme notation"))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::evaluate_scheme;

    #[test]
    fn online_stats_match_offline_stats_exactly() {
        let suite = Suite::generate(0.02, 11);
        let scheme: Scheme = "union(pid+pc8)2[forwarded]".parse().unwrap();
        let online = evaluate_scheme_online(&suite, &scheme, 3);
        let offline = evaluate_scheme(&suite, &scheme);
        assert_eq!(online.per_benchmark, offline.per_benchmark);
        assert_eq!(online.mean.pvp.to_bits(), offline.mean.pvp.to_bits());
    }

    #[test]
    fn verification_grid_is_clean() {
        let suite = Suite::generate(0.02, 11);
        let divergences = verify_online_equivalence(&suite, &verification_schemes(), 4);
        assert!(divergences.is_empty(), "{divergences:?}");
    }

    #[test]
    fn audit_stream_is_byte_identical_across_the_suite() {
        let suite = Suite::generate(0.02, 11);
        let divergences = verify_audit_equivalence(&suite, &verification_schemes(), 3);
        assert!(divergences.is_empty(), "{divergences:#?}");
    }

    #[test]
    fn replication_pipeline_is_bit_identical_across_the_suite() {
        let suite = Suite::generate(0.02, 11);
        for scheme in ["union(pid+pc8)2[forwarded]", "last(pid+pc8)1[direct]"] {
            let scheme: Scheme = scheme.parse().unwrap();
            let divergences = verify_replication_equivalence(&suite, &scheme, 3);
            assert!(divergences.is_empty(), "{divergences:#?}");
        }
    }
}
