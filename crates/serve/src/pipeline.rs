//! The durability pipeline: the one place that decides who may write to
//! a served engine and under which fencing term.
//!
//! Each [`ShardedEngine`](crate::ShardedEngine) owns one [`Pipeline`],
//! shared with its shard workers (they read the attached audit sink per
//! batch). Every write passes through it, as [`ReplOp`]s, by one of two
//! doors: [`Pipeline::admit`] (wire frames, replays, live events) or
//! [`Pipeline::follow`] (a follower's upstream segments). Both check the
//! role, then append journal-before-effect: journal append, shard
//! dispatch and in-memory publish happen under the replication log's
//! lock. Every term change happens here too — a
//! promotion, a follower adopting its upstream's term, and attaching a
//! sink to a logged engine all stamp the audit sink with the log's epoch
//! before a decision under that term is dispatched.

use crate::audit::AuditSink;
use crate::error::ServeError;
use crate::replication::{Journaled, PromoteHook, ReplOp, ReplicationLog, Role};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Role, term and journal of one engine.
#[derive(Default)]
pub(crate) struct Pipeline {
    /// A leader until a follower's log attaches. Held across every logged
    /// write and term change, so a promotion cannot land between a
    /// write's checks and its append.
    role: Mutex<Role>,
    log: OnceLock<Arc<ReplicationLog>>,
    audit: OnceLock<Arc<AuditSink>>,
    /// Every op admitted so far when no log is attached: the ack head
    /// then, with the meaning a log's head has.
    ingested: AtomicU64,
    /// Given the new epoch after each promotion.
    promoted: OnceLock<PromoteHook>,
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline").finish_non_exhaustive()
    }
}

impl Pipeline {
    pub(crate) fn log(&self) -> Option<&Arc<ReplicationLog>> {
        self.log.get()
    }

    pub(crate) fn audit(&self) -> Option<&Arc<AuditSink>> {
        self.audit.get()
    }

    fn role(&self) -> MutexGuard<'_, Role> {
        self.role.lock().expect("pipeline role poisoned")
    }

    /// Stamps the attached sink with the log's current term.
    fn stamp(&self) {
        if let (Some(log), Some(sink)) = (self.log.get(), self.audit.get()) {
            sink.set_epoch(log.epoch());
        }
    }

    /// Attaches the replication log every later mutation routes through,
    /// taking `role` with it.
    pub(crate) fn attach_log(
        &self,
        log: Arc<ReplicationLog>,
        role: Role,
    ) -> Result<(), ServeError> {
        let mut current = self.role();
        self.log
            .set(log)
            .map_err(|_| refuse("a replication log is already attached to this engine"))?;
        *current = role;
        self.stamp();
        Ok(())
    }

    /// Attaches the audit sink every later scored decision is recorded
    /// through.
    pub(crate) fn attach_audit(&self, sink: Arc<AuditSink>) -> Result<(), ServeError> {
        let _role = self.role();
        self.audit.set(sink).map_err(|_| ServeError::Audit {
            detail: "an audit sink is already attached to this engine".to_string(),
        })?;
        self.stamp();
        Ok(())
    }

    /// `ops` with the journal encoding the attached log writes (none
    /// without a durable log), built before any lock is taken.
    pub(crate) fn encode<'a>(&self, ops: &'a [ReplOp]) -> Journaled<'a> {
        Journaled::encode(ops, self.log.get().is_some_and(|log| log.is_durable()))
    }

    /// Admits a write claiming term `epoch` (0: none) and returns the
    /// head after it: a follower refuses it, a stale claim is fenced
    /// under the log lock, and otherwise the ops are journaled,
    /// dispatched and published. Every write that does not come from
    /// upstream enters here: wire frames, replays and live events.
    /// Without a log the head counts every op admitted.
    pub(crate) fn admit(
        &self,
        epoch: u64,
        batch: &Journaled<'_>,
        dispatch: impl FnOnce(&[ReplOp]),
    ) -> Result<u64, ServeError> {
        let ops = batch.ops();
        let Some(log) = self.log.get() else {
            dispatch(ops);
            let n = ops.len() as u64;
            return Ok(self.ingested.fetch_add(n, Ordering::Relaxed) + n);
        };
        let role = self.role();
        if *role == Role::Follower {
            return Err(refuse("follower is read-only; ingest at the leader"));
        }
        let (head, ()) = log.append_claimed(epoch, false, batch, || dispatch(ops))?;
        Ok(head)
    }

    /// Applies a follower's upstream segment written under `epoch` and
    /// returns the head after it: a newer term is adopted durably and
    /// stamped on the audit sink before the ops are journaled and
    /// dispatched; a stale one is fenced.
    pub(crate) fn follow(
        &self,
        epoch: u64,
        batch: &Journaled<'_>,
        dispatch: impl FnOnce(&[ReplOp]),
    ) -> Result<u64, ServeError> {
        let log = self
            .log
            .get()
            .ok_or_else(|| refuse("no log to relay from"))?;
        let role = self.role();
        if *role == Role::Leader {
            return Err(refuse("this engine leads; it applies no upstream segments"));
        }
        let (head, ()) = log.append_claimed(epoch, true, batch, || {
            self.stamp();
            dispatch(batch.ops());
        })?;
        Ok(head)
    }

    /// Installs the notice [`promote`](Self::promote) gives; the first
    /// one installed stays.
    pub(crate) fn on_promote(&self, notice: PromoteHook) {
        let _ = self.promoted.set(notice);
    }

    /// Promotes to leader: bumps the log's term to at least `min_epoch`
    /// (durably, before any write is admitted under it), takes the
    /// leader role, stamps the audit sink, then gives the promotion
    /// notice. Returns `(epoch, head)`.
    pub(crate) fn promote(&self, min_epoch: u64) -> Result<(u64, u64), String> {
        let log = self
            .log
            .get()
            .ok_or("this server is not replicated; nothing to promote")?;
        let mut role = self.role();
        let epoch = log
            .bump_epoch(min_epoch)
            .map_err(|e| format!("promotion failed: {e}"))?;
        *role = Role::Leader;
        self.stamp();
        drop(role);
        if let Some(notice) = self.promoted.get() {
            notice(epoch);
        }
        Ok((epoch, log.head()))
    }

    /// The log a subscriber claiming `fingerprint` and term `peer_epoch`
    /// may stream from, or the refusal: no log, a foreign fingerprint,
    /// or a subscriber that has seen a newer term than ours (we are the
    /// stale side and must not serve deposed history).
    pub(crate) fn upstream(
        &self,
        fingerprint: u32,
        peer_epoch: u64,
    ) -> Result<&Arc<ReplicationLog>, String> {
        let log = self
            .log
            .get()
            .ok_or("this server is not replicated; nothing to subscribe to")?;
        if fingerprint != log.fingerprint() {
            return Err(format!(
                "subscribe fingerprint mismatch: got {fingerprint:#010X}, \
                 log is {:#010X} (scheme/width/revision differ)",
                log.fingerprint()
            ));
        }
        if peer_epoch > log.epoch() {
            return Err(format!(
                "fenced: this server's epoch {} is behind the subscriber's {peer_epoch}; \
                 find the current leader",
                log.epoch()
            ));
        }
        Ok(log)
    }

    /// Refuses a session swap while a log or sink is attached: their
    /// journal-before-effect order cannot survive one.
    pub(crate) fn ensure_detached(&self) -> Result<(), ServeError> {
        if self.log.get().is_some() {
            return Err(refuse(
                "cannot reset an engine with a replication log attached",
            ));
        }
        if self.audit.get().is_some() {
            return Err(ServeError::Audit {
                detail: "cannot reset an engine with an audit sink attached".to_string(),
            });
        }
        Ok(())
    }
}

fn refuse(detail: &str) -> ServeError {
    ServeError::Replication {
        detail: detail.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use crate::audit::AuditSink;
    use crate::replication::{self, bring_up, ReplOp, ReplicationLog, Role};
    use crate::{ServeError, ShardedEngine};
    use csp_core::PreparedTrace;
    use csp_trace::{LineAddr, NodeId, Pc, SharingBitmap, SharingEvent, Trace};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn engine() -> ShardedEngine {
        ShardedEngine::new("last(pid)1[direct]".parse().unwrap(), 16, 2)
    }

    fn sink(engine: &ShardedEngine) -> Arc<AuditSink> {
        Arc::new(AuditSink::in_memory(engine.scheme(), 16, 2, 1))
    }

    fn fp(engine: &ShardedEngine) -> u32 {
        replication::fingerprint(engine.scheme(), engine.nodes())
    }

    const OP: ReplOp = ReplOp::Update {
        key: 3,
        feedback: SharingBitmap::from_bits(2),
    };

    #[test]
    fn attaching_in_either_order_stamps_the_sink_with_the_log_epoch() {
        let log_first = engine();
        let log = ReplicationLog::in_memory_at(fp(&log_first), 0, 4);
        log_first.attach_replication(log).unwrap();
        let audit = sink(&log_first);
        log_first.attach_audit(Arc::clone(&audit)).unwrap();
        assert_eq!(audit.epoch(), 4);

        let sink_first = engine();
        let audit = sink(&sink_first);
        sink_first.attach_audit(Arc::clone(&audit)).unwrap();
        assert_eq!(audit.epoch(), 0, "no log, no term");
        let log = ReplicationLog::in_memory_at(fp(&sink_first), 0, 4);
        sink_first.attach_replication(log).unwrap();
        assert_eq!(audit.epoch(), 4);
    }

    #[test]
    fn each_role_refuses_the_other_roles_writes() {
        let engine = engine();
        let (log, _) = bring_up(&engine, Role::Follower, None, None, None).unwrap();
        match engine.ingest_replicated(0, &[OP]) {
            Err(ServeError::Replication { detail }) => assert!(detail.contains("read-only")),
            other => panic!("a follower admitted a wire write: {other:?}"),
        }
        // Local writes are refused too: they would fork the follower's log.
        let event = SharingEvent::new(
            NodeId(1),
            Pc(0),
            LineAddr(0),
            NodeId(0),
            SharingBitmap::from_bits(2),
            Some((NodeId(0), Pc(0))),
        );
        let mut trace = Trace::new(16);
        trace.push(event);
        let refused = [
            engine.replay_range(&PreparedTrace::new(&trace), 0..1),
            engine.replay_trace(&trace),
            engine.ingest_event(&event).map(|_| ()),
        ];
        for result in refused {
            assert!(matches!(result, Err(ServeError::Replication { .. })));
        }
        assert_eq!(log.head(), 0, "a refused local write moved the log");
        assert_eq!(engine.apply_upstream(1, &[OP]).unwrap(), 1);
        assert_eq!(
            replication::promote(&engine, fp(&engine), 0).unwrap(),
            (2, 1)
        );
        assert!(matches!(
            engine.apply_upstream(2, &[OP]),
            Err(ServeError::Replication { .. })
        ));
        assert_eq!(engine.ingest_replicated(2, &[OP]).unwrap(), 2);
        assert_eq!(engine.ingest_event(&event).unwrap(), 3);
        assert_eq!(log.head(), 3);
    }

    #[test]
    fn stale_claims_are_fenced_before_anything_is_journaled() {
        let engine = engine();
        let log = ReplicationLog::in_memory_at(fp(&engine), 0, 3);
        engine.attach_replication(Arc::clone(&log)).unwrap();
        assert!(matches!(
            engine.ingest_replicated(2, &[OP]),
            Err(ServeError::Fenced {
                claimed: 2,
                current: 3
            })
        ));
        engine.flush();
        assert_eq!((log.head(), engine.stats().updates), (0, 0));
        assert_eq!(engine.ingest_replicated(0, &[OP]).unwrap(), 1);
        assert_eq!(engine.ingest_replicated(3, &[OP]).unwrap(), 2);
        assert_eq!(log.epoch(), 3, "a leader never adopts a claimed term");
    }

    #[test]
    fn promotion_stamps_the_sink_then_gives_the_notice() {
        let engine = Arc::new(engine());
        bring_up(&engine, Role::Follower, None, None, None).unwrap();
        let audit = sink(&engine);
        engine.attach_audit(Arc::clone(&audit)).unwrap();
        let noticed = Arc::new(AtomicU64::new(0));
        let (seen, stamped) = (Arc::clone(&noticed), Arc::clone(&audit));
        engine.on_promote(Arc::new(move |epoch| {
            assert_eq!(stamped.epoch(), epoch, "stamped before the notice");
            seen.store(epoch, Ordering::SeqCst);
        }));
        let (epoch, _) = replication::promote(&engine, fp(&engine), 7).unwrap();
        assert_eq!((epoch, noticed.load(Ordering::SeqCst)), (7, 7));
        assert_eq!(engine.replication().unwrap().epoch(), 7);
    }
}
