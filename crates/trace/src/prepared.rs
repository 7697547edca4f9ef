//! Flat, per-event column views of a trace: the trace-level half of the
//! prepared-evaluation layer.
//!
//! Every evaluation of a scheme over a [`Trace`] needs the same three
//! per-event facts: the ground-truth *actual* bitmap, the invalidation
//! feedback, and whether the event has a previous writer. Resolving the
//! actuals is a full [`Trace::resolve_actuals`] pass with a hash map over
//! lines, and a design-space sweep evaluates hundreds of schemes over the
//! same trace. [`ResolvedTrace`] hoists that work out of the per-scheme
//! loop: it resolves the actuals once and lays
//! the three columns out as flat, cache-friendly vectors that any number
//! of scheme evaluations can then share by reference.
//!
//! The predictor-level half (per-index key streams) lives in `csp-core`,
//! which knows about index specifications; this module is deliberately
//! free of predictor concepts.

use crate::{SharingBitmap, Trace};

/// A trace with its per-event ground truth resolved once and flattened
/// into columns.
///
/// Borrowing (rather than owning) the trace keeps a resolved view cheap to
/// create per evaluation site while letting many sites share one trace.
///
/// # Example
///
/// ```
/// use csp_trace::{LineAddr, NodeId, Pc, ResolvedTrace, SharingBitmap, SharingEvent, Trace};
///
/// let mut t = Trace::new(16);
/// t.push(SharingEvent::new(NodeId(0), Pc(1), LineAddr(9), NodeId(1),
///                          SharingBitmap::empty(), None));
/// t.set_final_readers(LineAddr(9), SharingBitmap::from_nodes(&[NodeId(4)]));
/// let r = ResolvedTrace::new(&t);
/// assert_eq!(r.len(), 1);
/// assert_eq!(r.actuals()[0], SharingBitmap::from_nodes(&[NodeId(4)]));
/// assert!(!r.has_prev()[0]);
/// ```
#[derive(Clone, Debug)]
pub struct ResolvedTrace<'t> {
    trace: &'t Trace,
    actuals: Vec<SharingBitmap>,
    invalidated: Vec<SharingBitmap>,
    has_prev: Vec<bool>,
}

impl<'t> ResolvedTrace<'t> {
    /// Resolves `trace` once: one actuals pass plus one flattening pass.
    pub fn new(trace: &'t Trace) -> Self {
        let actuals = trace.resolve_actuals();
        let mut invalidated = Vec::with_capacity(trace.len());
        let mut has_prev = Vec::with_capacity(trace.len());
        for event in trace.events() {
            invalidated.push(event.invalidated);
            has_prev.push(event.prev_writer.is_some());
        }
        ResolvedTrace {
            trace,
            actuals,
            invalidated,
            has_prev,
        }
    }

    /// The underlying trace.
    #[inline]
    pub fn trace(&self) -> &'t Trace {
        self.trace
    }

    /// Number of events.
    #[inline]
    pub fn len(&self) -> usize {
        self.actuals.len()
    }

    /// Returns `true` if the trace has no events.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.actuals.is_empty()
    }

    /// The machine's node count.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.trace.nodes()
    }

    /// The ground-truth actual bitmap of every event, in event order
    /// (identical to [`Trace::resolve_actuals`], computed once).
    #[inline]
    pub fn actuals(&self) -> &[SharingBitmap] {
        &self.actuals
    }

    /// The invalidation feedback of every event, in event order.
    #[inline]
    pub fn invalidated(&self) -> &[SharingBitmap] {
        &self.invalidated
    }

    /// Whether each event has a previous writer (and therefore carries
    /// invalidation feedback / a forward target), in event order.
    #[inline]
    pub fn has_prev(&self) -> &[bool] {
        &self.has_prev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LineAddr, NodeId, Pc, SharingEvent};

    fn sample_trace() -> Trace {
        let mut t = Trace::new(8);
        t.push(SharingEvent::new(
            NodeId(0),
            Pc(1),
            LineAddr(10),
            NodeId(2),
            SharingBitmap::empty(),
            None,
        ));
        t.push(SharingEvent::new(
            NodeId(1),
            Pc(2),
            LineAddr(10),
            NodeId(2),
            SharingBitmap::from_nodes(&[NodeId(3), NodeId(4)]),
            Some((NodeId(0), Pc(1))),
        ));
        t.set_final_readers(LineAddr(10), SharingBitmap::from_nodes(&[NodeId(5)]));
        t
    }

    #[test]
    fn columns_match_trace_fields() {
        let trace = sample_trace();
        let r = ResolvedTrace::new(&trace);
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert_eq!(r.nodes(), 8);
        assert_eq!(r.actuals(), trace.resolve_actuals().as_slice());
        for (i, e) in trace.events().iter().enumerate() {
            assert_eq!(r.invalidated()[i], e.invalidated);
            assert_eq!(r.has_prev()[i], e.prev_writer.is_some());
        }
    }

    #[test]
    fn empty_trace_resolves_to_empty_columns() {
        let trace = Trace::new(4);
        let r = ResolvedTrace::new(&trace);
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert!(r.actuals().is_empty());
        assert!(r.invalidated().is_empty());
        assert!(r.has_prev().is_empty());
    }
}
