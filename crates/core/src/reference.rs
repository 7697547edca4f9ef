//! The reference evaluator: DESIGN.md §3 written out one event at a time.
//!
//! This is the oracle every bit-identity check in the workspace compares
//! against, so it shares nothing with the production scorer in
//! [`crate::engine`] beyond the scheme types and the per-event key
//! derivation ([`IndexSpec::key_of`] / [`IndexSpec::forward_key_of`]):
//!
//! * its own actuals pass ([`actuals`]), walking the trace backwards;
//! * a plain `HashMap` from key to entry state, created on first update;
//! * each prediction function transcribed directly from §3: a short
//!   newest-first history for `last`/`union`/`inter`/`overlap-last`, and
//!   per-node history registers indexing two-bit counters for PAs.
//!
//! It is deliberately slow and obvious. Change it only when DESIGN.md §3
//! changes.
//!
//! # Example
//!
//! ```
//! use csp_core::{engine, reference, Scheme};
//! use csp_trace::{LineAddr, NodeId, Pc, SharingBitmap, SharingEvent, Trace};
//!
//! let mut t = Trace::new(16);
//! let readers = SharingBitmap::from_nodes(&[NodeId(1), NodeId(2)]);
//! for i in 0..10 {
//!     let (inv, prev) = if i == 0 { (SharingBitmap::empty(), None) } else { (readers, Some((NodeId(0), Pc(7)))) };
//!     t.push(SharingEvent::new(NodeId(0), Pc(7), LineAddr(3), NodeId(1), inv, prev));
//! }
//! t.set_final_readers(LineAddr(3), readers);
//! let scheme: Scheme = "union(pid+pc8)2[forwarded]".parse()?;
//! assert_eq!(reference::run_scheme(&t, &scheme), engine::run_scheme(&t, &scheme));
//! # Ok::<(), csp_core::ParseSchemeError>(())
//! ```

use crate::{IndexSpec, PredictionFunction, Scheme, UpdateMode};
use csp_metrics::ConfusionMatrix;
use csp_trace::{LineAddr, NodeId, SharingBitmap, Trace};
use std::collections::HashMap;

/// The actual bitmap of every event: the nodes that read the line
/// between this write and the next write to it — the readers that next
/// write invalidates, or the line's final sharers when no write follows.
/// The writer's own bit is always 0.
pub fn actuals(trace: &Trace) -> Vec<SharingBitmap> {
    let events = trace.events();
    let mut out = vec![SharingBitmap::empty(); events.len()];
    // Walking backwards, this holds the invalidation of the *next* write
    // to each line seen so far.
    let mut next_invalidation: HashMap<LineAddr, SharingBitmap> = HashMap::new();
    for (i, event) in events.iter().enumerate().rev() {
        let readers = match next_invalidation.get(&event.line) {
            Some(&invalidated) => invalidated,
            None => trace
                .final_readers(event.line)
                .unwrap_or(SharingBitmap::empty()),
        };
        out[i] = readers.without(event.writer);
        next_invalidation.insert(event.line, event.invalidated);
    }
    out
}

/// The predicted bitmap of every event under `scheme`, in trace order.
pub fn predictions(trace: &Trace, scheme: &Scheme) -> Vec<SharingBitmap> {
    predictions_with_actuals(trace, scheme, &actuals(trace))
}

/// Scores every decision of `scheme` over `trace`: one decision per
/// event and node, `decisions = events × nodes`.
pub fn run_scheme(trace: &Trace, scheme: &Scheme) -> ConfusionMatrix {
    let actuals = actuals(trace);
    let mut matrix = ConfusionMatrix::default();
    for (predicted, actual) in predictions_with_actuals(trace, scheme, &actuals)
        .into_iter()
        .zip(actuals)
    {
        matrix.record(predicted, actual, trace.nodes());
    }
    matrix
}

fn predictions_with_actuals(
    trace: &Trace,
    scheme: &Scheme,
    actuals: &[SharingBitmap],
) -> Vec<SharingBitmap> {
    let node_bits = crate::node_bits(trace.nodes());
    let index: IndexSpec = scheme.index;
    let mut predictor = Predictor::new(scheme, trace.nodes());
    let mut out = Vec::with_capacity(trace.len());
    for (event, &actual) in trace.events().iter().zip(actuals) {
        let key = index.key_of(event, node_bits);
        let predicted = match scheme.update {
            // The write's own invalidation lands in its own entry, then
            // that entry predicts. A first write invalidates nobody and
            // updates nothing.
            UpdateMode::Direct => {
                if event.prev_writer.is_some() {
                    predictor.update(key, event.invalidated);
                }
                predictor.predict(key)
            }
            // The invalidation goes to the previous writer's entry; the
            // current entry predicts.
            UpdateMode::Forwarded => {
                if let Some(forward) = index.forward_key_of(event, node_bits) {
                    predictor.update(forward, event.invalidated);
                }
                predictor.predict(key)
            }
            // Oracle timing: predict, then learn this write's own actual.
            UpdateMode::Ordered => {
                let predicted = predictor.predict(key);
                predictor.update(key, actual);
                predicted
            }
        };
        out.push(predicted);
    }
    out
}

/// The state of one predictor entry.
enum Entry {
    /// The stored feedback bitmaps, newest first, at most the history
    /// depth long.
    History(Vec<SharingBitmap>),
    /// PAs: per node, a history register of that node's last `depth`
    /// feedback bits (newest in bit 0) and `2^depth` two-bit counters.
    Pas {
        registers: Vec<usize>,
        counters: Vec<Vec<u8>>,
    },
}

/// One global predictor: every entry the trace has updated, by key.
struct Predictor {
    function: PredictionFunction,
    depth: usize,
    nodes: usize,
    entries: HashMap<u64, Entry>,
}

impl Predictor {
    fn new(scheme: &Scheme, nodes: usize) -> Self {
        // `overlap-last` compares the last two bitmaps.
        let depth = match scheme.function {
            PredictionFunction::OverlapLast => 2,
            _ => scheme.depth,
        };
        Predictor {
            function: scheme.function,
            depth,
            nodes,
            entries: HashMap::new(),
        }
    }

    /// The entry's prediction; an entry never updated predicts nothing.
    fn predict(&self, key: u64) -> SharingBitmap {
        let nothing = SharingBitmap::empty();
        match self.entries.get(&key) {
            None => nothing,
            Some(Entry::History(history)) => match self.function {
                PredictionFunction::Last => history.first().copied().unwrap_or(nothing),
                PredictionFunction::Union => history.iter().fold(nothing, |acc, &b| acc | b),
                // Bets only once the full depth of history agrees.
                PredictionFunction::Inter if history.len() < self.depth => nothing,
                PredictionFunction::Inter => {
                    history[1..].iter().fold(history[0], |acc, &b| acc & b)
                }
                PredictionFunction::OverlapLast => match history.as_slice() {
                    [last, before, ..] if last.overlaps(*before) => *last,
                    _ => nothing,
                },
                PredictionFunction::Pas => unreachable!("PAs entries hold registers"),
            },
            Some(Entry::Pas {
                registers,
                counters,
            }) => (0..self.nodes)
                .filter(|&node| counters[node][registers[node]] >= 2)
                .map(|node| NodeId(node as u8))
                .collect(),
        }
    }

    /// Delivers one feedback bitmap to the entry, creating it cold.
    fn update(&mut self, key: u64, feedback: SharingBitmap) {
        let (function, depth, nodes) = (self.function, self.depth, self.nodes);
        let entry = self.entries.entry(key).or_insert_with(|| match function {
            PredictionFunction::Pas => Entry::Pas {
                registers: vec![0; nodes],
                counters: vec![vec![0; 1 << depth]; nodes],
            },
            _ => Entry::History(Vec::new()),
        });
        match entry {
            Entry::History(history) => {
                history.insert(0, feedback);
                history.truncate(depth);
            }
            Entry::Pas {
                registers,
                counters,
            } => {
                for node in 0..nodes {
                    let read = feedback.contains(NodeId(node as u8));
                    let counter = &mut counters[node][registers[node]];
                    *counter = if read {
                        (*counter + 1).min(3)
                    } else {
                        counter.saturating_sub(1)
                    };
                    registers[node] = ((registers[node] << 1) | usize::from(read)) % (1 << depth);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_trace::{Pc, SharingEvent};

    fn bm(nodes: &[u8]) -> SharingBitmap {
        nodes.iter().map(|&n| NodeId(n)).collect()
    }

    #[test]
    fn actuals_are_the_next_invalidation_or_the_final_sharers() {
        let mut t = Trace::new(8);
        t.push(SharingEvent::new(
            NodeId(0),
            Pc(1),
            LineAddr(1),
            NodeId(0),
            bm(&[]),
            None,
        ));
        t.push(SharingEvent::new(
            NodeId(1),
            Pc(1),
            LineAddr(2),
            NodeId(0),
            bm(&[]),
            None,
        ));
        let prev = Some((NodeId(0), Pc(1)));
        t.push(SharingEvent::new(
            NodeId(2),
            Pc(1),
            LineAddr(1),
            NodeId(0),
            bm(&[0, 3, 5]),
            prev,
        ));
        t.set_final_readers(LineAddr(1), bm(&[2, 4]));
        // Event 0's actual is event 2's invalidation minus its own bit;
        // event 2's are line 1's final sharers minus its own bit; line 2
        // has no final sharers.
        assert_eq!(actuals(&t), vec![bm(&[3, 5]), bm(&[]), bm(&[4])]);
        assert_eq!(actuals(&t), t.resolve_actuals());
    }

    #[test]
    fn pas_learns_a_repeating_pattern() {
        let mut p = Predictor::new(&"pas(pid)2".parse().expect("notation"), 4);
        // Node 1 reads every other interval; after warm-up the two-bit
        // history tells the two phases apart.
        for round in 0..8 {
            let feedback = if round % 2 == 0 { bm(&[1]) } else { bm(&[]) };
            p.update(0, feedback);
        }
        assert_eq!(p.predict(0), bm(&[1]));
        p.update(0, bm(&[1]));
        assert_eq!(p.predict(0), bm(&[]));
    }

    #[test]
    fn history_functions_follow_the_definitions() {
        let run = |spec: &str, feedbacks: &[SharingBitmap]| {
            let mut p = Predictor::new(&spec.parse().expect("notation"), 16);
            for &f in feedbacks {
                p.update(0, f);
            }
            p.predict(0)
        };
        let seq = [bm(&[1, 2]), bm(&[2, 3]), bm(&[2, 4])];
        assert_eq!(run("last(pid)1", &seq), bm(&[2, 4]));
        assert_eq!(run("union(pid)2", &seq), bm(&[2, 3, 4]));
        assert_eq!(run("inter(pid)3", &seq), bm(&[2]));
        assert_eq!(run("inter(pid)4", &seq), bm(&[]), "history not yet full");
        assert_eq!(run("overlap-last(pid)", &seq), bm(&[2, 4]));
        assert_eq!(run("overlap-last(pid)", &[bm(&[1]), bm(&[2])]), bm(&[]));
        assert_eq!(run("union(pid)2", &[]), bm(&[]), "cold entry");
    }
}
