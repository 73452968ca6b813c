//! One partition primary as a sans-IO state machine: the paper's
//! single-threaded engine fed by messages (§2.3), shipping its commit log
//! to backups (§3.2) and to a durable command log with group commit.
//!
//! [`PartitionNode`] composes every per-partition core — the scheduler,
//! the [`PartitionSequencer`] admission gate, the [`ReplicationSession`]
//! commit-record log, the backup [`AckTracker`], the durable [`MemLog`] with
//! its [`GroupCommit`] policy, and the exactly-once guard of a promoted
//! node — behind one typed input ([`PartitionIn`]) and one output buffer
//! ([`NodeOut`]) the caller owns. Adapters (the simulator and the runtime's
//! replica actor) only deliver inputs, supply the clock and route outputs;
//! [`step`](PartitionNode::step) returns the virtual CPU the step cost.
//!
//! Result release follows two node-local gates, in order:
//!
//! * **Replication.** A committed single-partition result waits until its
//!   commit record is under the backups' acked watermark (§2.2: a
//!   transaction commits once it is on `k` replicas).
//! * **Durability.** It then waits until its own record has synced. A
//!   commit-decision ack waits the same way, which holds the
//!   multi-partition result at its coordinator until every participant's
//!   record is durable. A result whose append failed bounces with the
//!   retryable [`AbortReason::LogStalled`]; past the sync deadline the stall
//!   guard bounces every held result the same way and releases the held
//!   acks without durability.

use crate::engine::ExecutionEngine;
use crate::group_commit::{FlushDecision, GroupCommit};
use crate::outbox::{Outbox, PartitionOut};
use crate::replica::{
    failover_bounce, AckTracker, FailoverBounce, ReplicaCore, ReplicationSession,
};
use crate::scheduler::{make_scheduler, Scheduler};
use crate::sequencer::{Admit, EpochLog, PartitionSequencer};
use hcc_common::codec::encode_to_vec;
use hcc_common::stats::{
    AdaptiveStats, DurabilityCounters, ReplicationCounters, SchedulerCounters, SequencerStats,
};
use hcc_common::{
    AbortReason, ClientId, CommitRecord, CoordinatorRef, Decision, FragmentResponse, FragmentTask,
    FxHashSet, Nanos, PartitionId, Scheme, SchemeSwitch, SystemConfig, TxnId, TxnResult,
};
use hcc_storage::{DurableLog, MemLog};
use std::collections::VecDeque;

/// A message or timer delivered to a [`PartitionNode`].
#[derive(Debug)]
pub enum PartitionIn<F> {
    /// A unit of work from a client or a coordinator.
    Fragment(FragmentTask<F>),
    /// A two-phase-commit decision. The second field is the coordinator
    /// (central shard or client driver) expecting a
    /// [`NodeOut::DecisionAck`] for a processed commit; `None` otherwise.
    Decision(Decision, Option<CoordinatorRef>),
    /// A closed sequencing epoch log from a coordinator shard.
    EpochLog(EpochLog),
    /// Periodic maintenance: lock-timeout scans, the group-commit flush
    /// deadline and the stall guard.
    Tick,
    /// Backup `slot` has applied the shipped records up to `seq`.
    CommitAck { slot: u32, seq: u64 },
    /// The sync requested by a [`NodeOut::Sync`] completes now.
    SyncDone,
}

/// What a [`PartitionNode`] step asks its caller to do.
#[derive(Debug)]
pub enum NodeOut<F, R> {
    /// A final result for the issuing client.
    ToClient {
        client: ClientId,
        txn: TxnId,
        result: TxnResult<R>,
    },
    /// A fragment response for a central shard or a client's driver.
    ToCoordinator {
        dest: CoordinatorRef,
        response: FragmentResponse<R>,
    },
    /// This partition processed (and, with durability on, synced) the
    /// commit decision for `txn`.
    DecisionAck { dest: CoordinatorRef, txn: TxnId },
    /// A commit record for every backup, in commit order. Backups answer
    /// with [`PartitionIn::CommitAck`].
    Ship(CommitRecord<F>),
    /// Sync the durable log; answer with [`PartitionIn::SyncDone`] once
    /// the sync completes.
    Sync,
}

/// Every counter a partition node keeps, harvested in one call
/// ([`PartitionNode::stats`]) and merged across nodes by the adapters.
#[derive(Debug, Clone, Default)]
pub struct NodeStats {
    pub sched: SchedulerCounters,
    pub repl: ReplicationCounters,
    pub dur: DurabilityCounters,
    pub seq: SequencerStats,
    pub adaptive: AdaptiveStats,
}

impl NodeStats {
    pub fn merge(&mut self, o: &NodeStats) {
        self.sched.merge(&o.sched);
        self.repl.merge(&o.repl);
        self.dur.merge(&o.dur);
        self.seq.merge(&o.seq);
        self.adaptive.merge(&o.adaptive);
    }
}

/// A committed single-partition result waiting on the replication gate.
#[derive(Debug)]
struct Held<R> {
    /// Replication sequence number of its commit record.
    seq: u64,
    /// Durable-log sequence number of the record (durability on).
    log_seq: Option<u64>,
    client: ClientId,
    txn: TxnId,
    result: TxnResult<R>,
}

/// The durable command log and everything parked on it.
struct Durability<R> {
    log: MemLog,
    gc: GroupCommit,
    /// Committed results awaiting their record's sync, in log order.
    held: VecDeque<(u64, ClientId, TxnId, TxnResult<R>)>,
    /// Commit-decision acks awaiting their record's sync, in log order.
    acks: VecDeque<(u64, TxnId, CoordinatorRef)>,
    /// Records at or below this seq belong to a batch the stall guard
    /// abandoned: a result reaching the gate late bounces instead of
    /// parking forever.
    abandoned_below: u64,
}

impl<R> Durability<R> {
    /// Issue a sync now (the caller completes it).
    fn issue_sync<F>(&mut self, now: Nanos, out: &mut Vec<NodeOut<F, R>>) {
        self.gc.on_sync_issued(now);
        out.push(NodeOut::Sync);
    }
}

/// One partition primary; see the module docs.
pub struct PartitionNode<E: ExecutionEngine> {
    me: PartitionId,
    engine: E,
    sched: Box<dyn Scheduler<E> + Send>,
    outbox: Outbox<E::Output>,
    scratch: Vec<PartitionOut<E::Output>>,
    /// Epoch-merge admission gate (sequencing on).
    seq: Option<PartitionSequencer<E::Fragment>>,
    /// Builds the commit records; `None` when nothing consumes them.
    session: Option<ReplicationSession<E::Fragment>>,
    /// Whether commit records are shipped ([`NodeOut::Ship`]).
    ship: bool,
    acks: AckTracker,
    /// Results under the replication gate, in commit order.
    repl_held: VecDeque<Held<E::Output>>,
    dur: Option<Durability<E::Output>>,
    /// Transactions applied during a backup past: the exactly-once guard
    /// against a re-delivered in-doubt commit (empty for an initial
    /// primary).
    applied: FxHashSet<TxnId>,
    /// Scan interval while work is outstanding under a scheme that can
    /// lock; `None` for schemes that never need ticks.
    tick_every: Option<Nanos>,
    tick_after: Option<Nanos>,
    repl: ReplicationCounters,
}

impl<E> PartitionNode<E>
where
    E: ExecutionEngine + Send + 'static,
    E::Fragment: Send,
    E::Output: Send,
{
    /// The initial primary of partition `me`. `ship` says whether commit
    /// records have a consumer (backups, or a simulator's shadow replica);
    /// the backups acked on are slots `1..system.replication`.
    pub fn new(system: &SystemConfig, me: PartitionId, engine: E, ship: bool) -> Self {
        let mut acks = AckTracker::new();
        for slot in 1..system.replication {
            acks.add_backup(slot as usize, 0);
        }
        let locks = system.scheme == Scheme::Locking || system.adaptive.is_on();
        PartitionNode {
            me,
            engine,
            sched: make_scheduler::<E>(system, me, None),
            outbox: Outbox::new(system.costs),
            scratch: Vec::new(),
            seq: system
                .sequencing_active()
                .then(|| PartitionSequencer::new(me, system.coordinators.max(1))),
            session: (ship || system.durability.is_some()).then(ReplicationSession::new),
            ship,
            acks,
            repl_held: VecDeque::new(),
            dur: system.durability.map(|cfg| Durability {
                log: MemLog::new(),
                gc: GroupCommit::new(cfg),
                held: VecDeque::new(),
                acks: VecDeque::new(),
                abandoned_below: 0,
            }),
            applied: FxHashSet::default(),
            tick_every: locks.then(|| Nanos(system.lock_timeout.0 / 4).max(Nanos(1))),
            tick_after: None,
            repl: ReplicationCounters::default(),
        }
    }

    /// Promote a backup: its engine (exactly the committed prefix of the
    /// commit log) and replay state become a primary that resumes the log
    /// at the replica's watermark, in the scheme the log says was in force
    /// there, with an unsynced sequencing gate that joins the merge at the
    /// first complete post-failover era. `backups` are the surviving
    /// backup slots, which hold the same record prefix. A promoted node
    /// starts a fresh durable log.
    pub fn promote(
        system: &SystemConfig,
        me: PartitionId,
        engine: E,
        mut replica: ReplicaCore,
        backups: impl IntoIterator<Item = u32>,
    ) -> Self {
        let watermark = replica.watermark();
        let mut node = Self::new(system, me, engine, true);
        node.sched = make_scheduler::<E>(system, me, replica.scheme_switch());
        node.session = Some(ReplicationSession::resume_from(watermark));
        node.acks = AckTracker::new();
        for slot in backups {
            node.acks.add_backup(slot as usize, watermark);
        }
        if node.seq.is_some() {
            node.seq = Some(PartitionSequencer::promoted(me, system.coordinators.max(1)));
        }
        node.applied = replica.take_applied_txns();
        node.repl.merge(&replica.counters);
        node.repl.promotions += 1;
        node
    }

    /// Handle one input at `now`, pushing what must be sent into `out`.
    /// Returns the virtual CPU the step consumed.
    pub fn step(
        &mut self,
        input: PartitionIn<E::Fragment>,
        now: Nanos,
        out: &mut Vec<NodeOut<E::Fragment, E::Output>>,
    ) -> Nanos {
        debug_assert!(self.outbox.messages.is_empty());
        let mut ticked = None;
        match input {
            PartitionIn::Fragment(task) => {
                if task.multi_partition && self.applied.contains(&task.txn) {
                    // A promoted node already applied this transaction as
                    // a backup (its record reached the group before the
                    // crash): ack the redelivered commit, never re-execute.
                    if let CoordinatorRef::Central(_) = task.coordinator {
                        out.push(NodeOut::DecisionAck {
                            dest: task.coordinator,
                            txn: task.txn,
                        });
                    }
                } else {
                    match self.seq.as_mut() {
                        // Centrally coordinated MP round-0 fragments run in
                        // merged epoch order; one ahead of its turn is held.
                        Some(gate) if PartitionSequencer::gates(&task) => {
                            if let Admit::Deliver(tasks) = gate.on_mp_fragment(task) {
                                for t in tasks {
                                    self.admit(t, now);
                                }
                            }
                        }
                        _ => self.admit(task, now),
                    }
                }
            }
            PartitionIn::EpochLog(log) => {
                let released = match self.seq.as_mut() {
                    Some(gate) => gate.on_log(log),
                    None => Vec::new(),
                };
                for t in released {
                    self.admit(t, now);
                }
            }
            PartitionIn::Decision(d, ack_to) => self.on_decision(d, ack_to, now, out),
            PartitionIn::Tick => {
                ticked = Some(self.sched.on_tick(&mut self.engine, now, &mut self.outbox));
            }
            PartitionIn::CommitAck { slot, seq } => {
                self.acks.on_ack(slot as usize, seq);
                let watermark = self.acks.min_acked();
                while self.repl_held.front().is_some_and(|h| h.seq <= watermark) {
                    let held = self.repl_held.pop_front().expect("checked front");
                    self.durability_gate(held, out);
                }
            }
            PartitionIn::SyncDone => {
                if let Some(dur) = self.dur.as_mut() {
                    if dur.log.sync().is_ok() {
                        dur.gc.on_synced();
                        self.release_durable(out);
                    }
                    // A failed sync stays issued: the stall guard gives up
                    // on the batch at its deadline.
                }
            }
        }
        // A scheme swap may have completed inside the scheduler call:
        // stamp it onto the next commit record shipped, so a promoted
        // backup resumes in the same scheme at the same point of the log.
        for note in self.sched.take_switch_notes() {
            if let Some(session) = self.session.as_mut() {
                session.mark_scheme_switch(SchemeSwitch {
                    epoch: note.epoch,
                    scheme: note.scheme,
                });
            }
        }
        let cpu = self.drain_outbox(now, out);
        if ticked.is_some() {
            self.poll_log(now, out);
        }
        self.tick_after = match ticked {
            Some(next) => next,
            None => self.tick_every.filter(|_| !self.sched.is_idle()),
        };
        cpu
    }

    /// Record a fragment for the commit log, then hand it to the scheduler.
    fn admit(&mut self, task: FragmentTask<E::Fragment>, now: Nanos) {
        if let Some(session) = self.session.as_mut() {
            session.record_fragment(&task);
        }
        self.sched
            .on_fragment(task, &mut self.engine, now, &mut self.outbox);
    }

    fn on_decision(
        &mut self,
        d: Decision,
        ack_to: Option<CoordinatorRef>,
        now: Nanos,
        out: &mut Vec<NodeOut<E::Fragment, E::Output>>,
    ) {
        let log_seq = if d.commit {
            self.ship_commit(d.txn, now, out)
                .and_then(|(_, logged)| logged)
                .and_then(Result::ok)
        } else {
            if let Some(session) = self.session.as_mut() {
                session.on_abort(d.txn);
            }
            None
        };
        let ack_to = ack_to.filter(|_| d.commit);
        let strays_before = ack_to.map(|_| self.sched.counters().stray_decisions);
        self.sched
            .on_decision(d, &mut self.engine, now, &mut self.outbox);
        // A *stray* commit (a transaction that died with a crashed
        // predecessor) is not acked: acking it would falsely resolve the
        // in-doubt window the redelivery machinery is about to close.
        let Some(dest) = ack_to else { return };
        if strays_before != Some(self.sched.counters().stray_decisions) {
            return;
        }
        match (self.dur.as_mut(), log_seq) {
            (Some(dur), Some(seq)) => dur.acks.push_back((seq, d.txn, dest)),
            // Durability off, or the append failed: the commit is as
            // durable as it will get.
            _ => out.push(NodeOut::DecisionAck { dest, txn: d.txn }),
        }
    }

    /// `txn` committed here: build its commit record, ship it, and append
    /// it to the durable log. Returns the record's replication seq and the
    /// append outcome (`None` with durability off); `None` when no record
    /// is kept.
    fn ship_commit(
        &mut self,
        txn: TxnId,
        now: Nanos,
        out: &mut Vec<NodeOut<E::Fragment, E::Output>>,
    ) -> Option<(u64, Option<Result<u64, ()>>)> {
        let record = self.session.as_mut()?.on_commit(txn)?;
        let seq = record.seq;
        let logged = self.dur.as_mut().map(|dur| {
            let appended = dur.log.append(&encode_to_vec(&record)).map_err(|_| ());
            if appended.is_ok() && dur.gc.on_append(now) == FlushDecision::SyncNow {
                dur.issue_sync(now, out);
            }
            appended
        });
        if self.ship {
            self.repl.records_shipped += 1;
            out.push(NodeOut::Ship(record));
        }
        Some((seq, logged))
    }

    /// Route the scheduler's outputs: ship and gate committed results,
    /// forward the rest. Returns the step's CPU.
    fn drain_outbox(
        &mut self,
        now: Nanos,
        out: &mut Vec<NodeOut<E::Fragment, E::Output>>,
    ) -> Nanos {
        let mut scratch = std::mem::take(&mut self.scratch);
        let cpu = self.outbox.take_into(&mut scratch);
        for m in scratch.drain(..) {
            match m {
                PartitionOut::ToClient {
                    client,
                    txn,
                    result,
                } => {
                    let shipped = if result.is_committed() {
                        self.ship_commit(txn, now, out)
                    } else {
                        if let Some(session) = self.session.as_mut() {
                            session.on_abort(txn);
                        }
                        None
                    };
                    let Some((seq, logged)) = shipped else {
                        out.push(NodeOut::ToClient {
                            client,
                            txn,
                            result,
                        });
                        continue;
                    };
                    let log_seq = match logged {
                        Some(Ok(s)) => Some(s),
                        Some(Err(())) => {
                            self.bounce_stalled(client, txn, out);
                            continue;
                        }
                        None => None,
                    };
                    let held = Held {
                        seq,
                        log_seq,
                        client,
                        txn,
                        result,
                    };
                    if seq > self.acks.min_acked() {
                        self.repl_held.push_back(held);
                    } else {
                        self.durability_gate(held, out);
                    }
                }
                PartitionOut::ToCoordinator { dest, response } => {
                    out.push(NodeOut::ToCoordinator { dest, response })
                }
            }
        }
        self.scratch = scratch;
        cpu
    }

    /// Release a replicated result if its record is durable, park it until
    /// the sync otherwise, or bounce it if the stall guard abandoned its
    /// batch.
    fn durability_gate(
        &mut self,
        h: Held<E::Output>,
        out: &mut Vec<NodeOut<E::Fragment, E::Output>>,
    ) {
        if let (Some(dur), Some(seq)) = (self.dur.as_mut(), h.log_seq) {
            if seq > dur.log.durable() {
                if seq > dur.abandoned_below {
                    dur.gc.counters.results_held += 1;
                    dur.held.push_back((seq, h.client, h.txn, h.result));
                } else {
                    self.bounce_stalled(h.client, h.txn, out);
                }
                return;
            }
        }
        out.push(NodeOut::ToClient {
            client: h.client,
            txn: h.txn,
            result: h.result,
        });
    }

    /// A committed result whose record can never become durable: bounce it
    /// with the retryable `LogStalled`.
    fn bounce_stalled(
        &mut self,
        client: ClientId,
        txn: TxnId,
        out: &mut Vec<NodeOut<E::Fragment, E::Output>>,
    ) {
        if let Some(dur) = self.dur.as_mut() {
            dur.gc.counters.stalled_aborts += 1;
        }
        out.push(NodeOut::ToClient {
            client,
            txn,
            result: TxnResult::Aborted(AbortReason::LogStalled),
        });
    }

    /// Release held results and acks whose records are durable now.
    fn release_durable(&mut self, out: &mut Vec<NodeOut<E::Fragment, E::Output>>) {
        let Some(dur) = self.dur.as_mut() else { return };
        let durable = dur.log.durable();
        while dur.held.front().is_some_and(|h| h.0 <= durable) {
            let (_, client, txn, result) = dur.held.pop_front().expect("checked front");
            out.push(NodeOut::ToClient {
                client,
                txn,
                result,
            });
        }
        while dur.acks.front().is_some_and(|a| a.0 <= durable) {
            let (_, txn, dest) = dur.acks.pop_front().expect("checked front");
            out.push(NodeOut::DecisionAck { dest, txn });
        }
    }

    /// Flush a batch whose group-commit interval elapsed; otherwise fire
    /// the stall guard once the oldest unsynced append is past the sync
    /// deadline: bounce every held result with `LogStalled`, release the
    /// held acks without durability rather than wedging 2PC, and wipe the
    /// batch so the log accepts new work.
    fn poll_log(&mut self, now: Nanos, out: &mut Vec<NodeOut<E::Fragment, E::Output>>) {
        let Some(dur) = self.dur.as_mut() else { return };
        if dur.gc.poll(now) == FlushDecision::SyncNow {
            dur.issue_sync(now, out);
            return;
        }
        if !dur.gc.stalled(now) {
            return;
        }
        dur.abandoned_below = dur.log.appended();
        dur.gc.on_stall_abort(dur.held.len() as u64);
        for (_, client, txn, _) in dur.held.drain(..) {
            out.push(NodeOut::ToClient {
                client,
                txn,
                result: TxnResult::Aborted(AbortReason::LogStalled),
            });
        }
        for (_, txn, dest) in dur.acks.drain(..) {
            out.push(NodeOut::DecisionAck { dest, txn });
        }
    }

    /// The node dies. Held results are released — their records are at the
    /// backups (failure injection requires replication), which is a
    /// crashed primary's durability story — held acks go out, and every
    /// in-flight transaction bounces with `PartitionFailed` to whoever
    /// waits on it. The node takes no further input; harvest its
    /// [`stats`](Self::stats).
    pub fn crash(&mut self, now: Nanos, out: &mut Vec<NodeOut<E::Fragment, E::Output>>) {
        for h in self.repl_held.drain(..) {
            out.push(NodeOut::ToClient {
                client: h.client,
                txn: h.txn,
                result: h.result,
            });
        }
        if let Some(dur) = self.dur.as_mut() {
            for (_, client, txn, result) in dur.held.drain(..) {
                out.push(NodeOut::ToClient {
                    client,
                    txn,
                    result,
                });
            }
            for (_, txn, dest) in dur.acks.drain(..) {
                out.push(NodeOut::DecisionAck { dest, txn });
            }
        }
        let in_flight = self
            .session
            .as_mut()
            .map(|s| s.take_in_flight())
            .unwrap_or_default();
        for (txn, frags) in in_flight {
            let Some(bounce) = failover_bounce(self.me, txn, &frags) else {
                continue;
            };
            self.repl.failover_bounces += 1;
            out.push(match bounce {
                FailoverBounce::ToClient { client } => NodeOut::ToClient {
                    client,
                    txn,
                    result: TxnResult::Aborted(AbortReason::PartitionFailed),
                },
                FailoverBounce::ToCoordinator { dest, response } => {
                    NodeOut::ToCoordinator { dest, response }
                }
            });
        }
        self.repl.failed_at_ns = now.0;
    }

    /// Track a (re)joined backup from `seq` onward.
    pub fn add_backup(&mut self, slot: u32, seq: u64) {
        self.acks.add_backup(slot as usize, seq);
    }

    pub fn partition(&self) -> PartitionId {
        self.me
    }

    pub fn engine(&self) -> &E {
        &self.engine
    }

    pub fn into_engine(self) -> E {
        self.engine
    }

    /// Sequence number of the last commit record built (the log position).
    pub fn shipped(&self) -> u64 {
        self.session.as_ref().map_or(0, |s| s.shipped())
    }

    /// True when the scheduler has nothing active, queued or undecided.
    pub fn is_idle(&self) -> bool {
        self.sched.is_idle()
    }

    /// How long after the last step the node wants a [`PartitionIn::Tick`]
    /// for its scheduler (`None`: no scan pending).
    pub fn tick_after(&self) -> Option<Nanos> {
        self.tick_after
    }

    /// When the durable log next needs a [`PartitionIn::Tick`]: the
    /// group-commit flush deadline or the stall deadline, whichever comes
    /// first (`None` when nothing is pending or durability is off).
    pub fn log_deadline(&self) -> Option<Nanos> {
        let gc = &self.dur.as_ref()?.gc;
        match (gc.flush_deadline(), gc.stall_deadline()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// The durable log (durability on).
    pub fn log_mut(&mut self) -> Option<&mut MemLog> {
        self.dur.as_mut().map(|d| &mut d.log)
    }

    /// Settle the trailing partial batch with one final sync and return
    /// the log's full image (durability on) — a clean shutdown.
    pub fn close_log(&mut self) -> Option<Vec<u8>> {
        let dur = self.dur.as_mut()?;
        if dur.gc.pending() > 0 && dur.log.sync().is_ok() {
            dur.gc.on_synced();
        }
        Some(dur.log.full_image())
    }

    /// Every counter of this node, with the open adaptive residency
    /// segment closed at `now`.
    pub fn stats(&self, now: Nanos) -> NodeStats {
        NodeStats {
            sched: self.sched.counters(),
            repl: self.repl,
            dur: self.dur.as_ref().map(|d| d.gc.counters).unwrap_or_default(),
            seq: self
                .seq
                .as_ref()
                .map(|s| s.stats().clone())
                .unwrap_or_default(),
            adaptive: self.sched.adaptive_stats(now).unwrap_or_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{TestEngine, TestFragment, TestOutput};
    use hcc_common::{CoordinatorId, DurabilityConfig};
    use hcc_storage::FaultMode;

    type Out = Vec<NodeOut<TestFragment, TestOutput>>;

    const P: PartitionId = PartitionId(0);
    const SHARD: CoordinatorRef = CoordinatorRef::Central(CoordinatorId(0));

    fn txn(n: u32) -> TxnId {
        TxnId::new(ClientId(1), n)
    }

    fn task(
        txn: TxnId,
        fragment: TestFragment,
        multi_partition: bool,
    ) -> FragmentTask<TestFragment> {
        FragmentTask {
            txn,
            coordinator: if multi_partition {
                SHARD
            } else {
                CoordinatorRef::Client(ClientId(1))
            },
            client: ClientId(1),
            fragment,
            multi_partition,
            last_fragment: true,
            round: 0,
            can_abort: false,
        }
    }

    fn node(system: &SystemConfig) -> PartitionNode<TestEngine> {
        PartitionNode::new(system, P, TestEngine::with_data(&[(1, 0)]), false)
    }

    fn durable_system() -> SystemConfig {
        // One record per batch: every append asks for a sync at once.
        SystemConfig::new(Scheme::Blocking)
            .with_durability(DurabilityConfig::default().with_max_batch(1))
    }

    fn acks(out: &Out) -> Vec<TxnId> {
        out.iter()
            .filter_map(|o| match o {
                NodeOut::DecisionAck { txn, .. } => Some(*txn),
                _ => None,
            })
            .collect()
    }

    fn results(out: &Out) -> Vec<(TxnId, bool)> {
        out.iter()
            .filter_map(|o| match o {
                NodeOut::ToClient { txn, result, .. } => Some((*txn, result.is_committed())),
                _ => None,
            })
            .collect()
    }

    /// Execute an MP fragment and commit it with an ack requested.
    fn commit_mp(n: &mut PartitionNode<TestEngine>, t: TxnId, out: &mut Out) {
        n.step(
            PartitionIn::Fragment(task(t, TestFragment::add(1, 1), true)),
            Nanos(1),
            out,
        );
        n.step(
            PartitionIn::Decision(
                Decision {
                    txn: t,
                    commit: true,
                },
                Some(SHARD),
            ),
            Nanos(2),
            out,
        );
    }

    #[test]
    fn stray_commit_decision_is_not_acked() {
        let mut n = node(&SystemConfig::new(Scheme::Blocking));
        let mut out = Out::new();
        n.step(
            PartitionIn::Decision(
                Decision {
                    txn: txn(9),
                    commit: true,
                },
                Some(SHARD),
            ),
            Nanos(1),
            &mut out,
        );
        assert!(acks(&out).is_empty(), "a stray commit must stay in doubt");
        assert_eq!(n.stats(Nanos(1)).sched.stray_decisions, 1);
        // A commit the node did execute is acked.
        commit_mp(&mut n, txn(1), &mut out);
        assert_eq!(acks(&out), vec![txn(1)]);
    }

    #[test]
    fn promoted_node_acks_an_applied_fragment_without_executing_it() {
        let system = SystemConfig::new(Scheme::Blocking).with_replication(2);
        let mut engine = TestEngine::with_data(&[(1, 0)]);
        let mut replica = ReplicaCore::new();
        let t = txn(1);
        let record = CommitRecord {
            seq: 1,
            txn: t,
            frags: vec![task(t, TestFragment::add(1, 5), true)],
            scheme_switch: None,
        };
        replica.apply(&mut engine, &record).expect("replay");
        let mut n = PartitionNode::promote(&system, P, engine, replica, []);
        let mut out = Out::new();
        // The in-doubt commit is redelivered to the promoted primary.
        n.step(
            PartitionIn::Fragment(task(t, TestFragment::add(1, 5), true)),
            Nanos(1),
            &mut out,
        );
        assert_eq!(acks(&out), vec![t]);
        assert_eq!(out.len(), 1, "no response: the fragment did not run");
        assert_eq!(n.engine().get(1), 5, "applied exactly once");
        assert_eq!(n.shipped(), 1, "the log resumes at the watermark");
    }

    #[test]
    fn durable_release_waits_for_the_sync() {
        let mut n = node(&durable_system());
        let mut out = Out::new();
        n.step(
            PartitionIn::Fragment(task(txn(1), TestFragment::add(1, 1), false)),
            Nanos(1),
            &mut out,
        );
        assert!(
            results(&out).is_empty(),
            "SP result released before its sync"
        );
        assert!(matches!(out.last(), Some(NodeOut::Sync)));
        out.clear();
        n.step(PartitionIn::SyncDone, Nanos(2), &mut out);
        assert_eq!(results(&out), vec![(txn(1), true)]);

        out.clear();
        commit_mp(&mut n, txn(2), &mut out);
        assert!(acks(&out).is_empty(), "decision acked before its sync");
        assert!(matches!(out.last(), Some(NodeOut::Sync)));
        out.clear();
        n.step(PartitionIn::SyncDone, Nanos(3), &mut out);
        assert_eq!(acks(&out), vec![txn(2)]);
    }

    #[test]
    fn failed_append_bounces_the_committed_result() {
        let mut n = node(&durable_system());
        n.log_mut().expect("durability on").fault = FaultMode {
            fail_appends_after: Some(0),
            ..FaultMode::default()
        };
        let mut out = Out::new();
        n.step(
            PartitionIn::Fragment(task(txn(1), TestFragment::add(1, 1), false)),
            Nanos(1),
            &mut out,
        );
        assert!(matches!(
            out.as_slice(),
            [NodeOut::ToClient {
                result: TxnResult::Aborted(AbortReason::LogStalled),
                ..
            }]
        ));
        assert_eq!(n.stats(Nanos(1)).dur.stalled_aborts, 1);
    }
}
