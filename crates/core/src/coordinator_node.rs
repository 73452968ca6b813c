//! One central coordinator shard as a sans-IO state machine (paper §3.3):
//! the [`Coordinator`] 2PC core plus, with sequencing on, the shard's
//! [`ShardSequencer`], the stall-expiry policy and the era change on a
//! membership update. Adapters deliver [`CoordIn`]s, supply the clock and
//! route the [`CoordOut`]s pushed into a buffer they own; each call returns
//! the virtual CPU it cost.

use crate::coordinator::{CoordCounters, CoordOut, Coordinator, PeerNote};
use crate::procedure::Procedure;
use crate::sequencer::{broadcast_dests, CloseKind, ClosedEpoch, EpochLog, ShardSequencer};
use hcc_common::stats::SequencerStats;
use hcc_common::{
    AbortReason, ClientId, CoordinatorId, FragmentResponse, Nanos, PartitionId, SystemConfig,
    TxnId, TxnResult,
};

/// A message or timer delivered to a [`CoordinatorNode`].
pub enum CoordIn<F, R> {
    /// A client submitted a multi-partition transaction.
    Invoke {
        txn: TxnId,
        client: ClientId,
        procedure: Box<dyn Procedure<F, R>>,
        can_abort: bool,
    },
    /// A participant's fragment response.
    Response(FragmentResponse<R>),
    /// A participant processed (and synced) a commit decision.
    DecisionAck { txn: TxnId, partition: PartitionId },
    /// A peer shard decided one of its transactions (sequencing).
    PeerNote(PeerNote),
    /// A peer shard closed a sequencing epoch (cascade-close input).
    EpochLog(EpochLog),
    /// The control plane failed `partition` over to a promoted backup
    /// under `epoch`.
    RoutingUpdate { partition: PartitionId, epoch: u32 },
    /// Periodic maintenance: stall expiry and the epoch age boundary.
    Tick,
}

/// One coordinator shard; see the module docs.
pub struct CoordinatorNode<F, R> {
    id: CoordinatorId,
    coord: Coordinator<F, R>,
    /// Invocation buffer + epoch-log emitter (sequencing on).
    seq: Option<ShardSequencer<F, R>>,
    partitions: u32,
    shards: u32,
    max_delay: Nanos,
    /// Stall expiry: after this long a pending transaction is aborted with
    /// this reason (see [`CoordinatorNode::new`]).
    expiry: Option<(Nanos, AbortReason)>,
    cross_coord_aborts: u64,
}

impl<F: Clone + std::fmt::Debug, R: Clone + std::fmt::Debug> CoordinatorNode<F, R> {
    /// Shard `id` of `system.coordinators`. `track_in_doubt` keeps the
    /// machinery that closes the 2PC in-doubt window after a failover;
    /// with durability on, committed results wait for every participant's
    /// decision ack. The expiry policy: a `participant_timeout` aborts
    /// stalled transactions with the final `RemoteAbort` (an unreplicated
    /// participant crash, §3.3); otherwise N > 1 unsequenced shards break
    /// cross-shard distributed deadlocks after `lock_timeout` with the
    /// retryable `CrossCoordinator` (§4.3's timeout resolution). The
    /// singleton's global dispatch order cannot deadlock, and the merged
    /// epoch order of sequencing leaves nothing for expiry to break.
    pub fn new(
        system: &SystemConfig,
        id: CoordinatorId,
        track_in_doubt: bool,
        participant_timeout: Option<Nanos>,
    ) -> Self {
        let shards = system.coordinators.max(1);
        let seq_on = system.sequencing_active();
        let mut coord = Coordinator::shard(system.costs, id, track_in_doubt);
        coord.set_hold_results(system.durability.is_some());
        if seq_on && shards > 1 {
            // Sequenced speculation chains span shards: every decision is
            // broadcast so peers can settle cross-shard dependencies.
            coord.set_peer_broadcast(
                (0..shards)
                    .filter(|&k| k != id.0)
                    .map(CoordinatorId)
                    .collect(),
            );
        }
        let expiry = match participant_timeout {
            Some(t) => Some((t, AbortReason::RemoteAbort)),
            None if shards > 1 && !seq_on => {
                Some((system.lock_timeout, AbortReason::CrossCoordinator))
            }
            None => None,
        };
        CoordinatorNode {
            id,
            coord,
            seq: seq_on.then(|| ShardSequencer::new(id, system.sequencing.batch())),
            partitions: system.partitions,
            shards,
            max_delay: system.sequencing.max_delay(),
            expiry,
            cross_coord_aborts: 0,
        }
    }

    /// Handle one input at `now`, pushing what must be sent into `out`.
    /// Returns the virtual CPU the step consumed.
    pub fn step(
        &mut self,
        input: CoordIn<F, R>,
        now: Nanos,
        out: &mut Vec<CoordOut<F, R>>,
    ) -> Nanos {
        match input {
            CoordIn::Invoke {
                txn,
                client,
                procedure,
                can_abort,
            } => match self.seq.as_mut() {
                // Buffer into the open epoch; dispatch happens when it
                // closes (by count here, by age, or by a peer's cascade).
                Some(seq) => {
                    if let Some(closed) = seq.push(txn, client, procedure, can_abort, now) {
                        self.emit_closed(closed, now, out);
                    }
                }
                None => self
                    .coord
                    .on_invoke_at(txn, client, procedure, can_abort, now, out),
            },
            CoordIn::Response(r) => self.coord.on_response(r, out),
            CoordIn::DecisionAck { txn, partition } => {
                self.coord.on_decision_ack(txn, partition, out)
            }
            CoordIn::PeerNote(note) => self.coord.on_peer_decision(note, out),
            CoordIn::EpochLog(log) => {
                let closed = match self.seq.as_mut() {
                    Some(seq) => seq.on_peer_log(&log, now),
                    None => Vec::new(),
                };
                for c in closed {
                    self.emit_closed(c, now, out);
                }
            }
            CoordIn::RoutingUpdate { partition, epoch } => {
                self.coord.on_partition_failed(partition, epoch, out);
                if let Some(seq) = self.seq.as_mut() {
                    // Membership changed: end the era. Buffered invocations
                    // bounce for a retry in the new era; the era-end marker
                    // tells every partition where the old era's merge stops.
                    let (marker, bounced) = seq.on_era_change();
                    self.broadcast(&marker, out);
                    for inv in bounced {
                        out.push(CoordOut::ClientResult {
                            client: inv.client,
                            txn: inv.txn,
                            result: TxnResult::Aborted(AbortReason::PartitionFailed),
                        });
                    }
                }
            }
            CoordIn::Tick => {
                if let Some((timeout, reason)) = self.expiry {
                    let expired = self.coord.expire_stalled(now, timeout, reason, out).len();
                    if reason == AbortReason::CrossCoordinator {
                        self.cross_coord_aborts += expired as u64;
                        debug_assert!(
                            self.seq.is_none() || expired == 0,
                            "CrossCoordinator abort while sequencing is on"
                        );
                    }
                }
                let aged = self.seq.as_ref().and_then(|s| s.oldest_enqueued_at());
                if aged.is_some_and(|t| now.saturating_sub(t) >= self.max_delay) {
                    return self.close_epoch(now, out);
                }
            }
        }
        self.coord.take_cpu()
    }

    /// Close the open epoch at its age boundary (a no-op when it is empty
    /// or sequencing is off). The tick calls this once the oldest buffered
    /// invocation has waited `max_delay`; an adapter with exact timers calls
    /// it from the timer it armed for that boundary. Returns the CPU cost.
    pub fn close_epoch(&mut self, now: Nanos, out: &mut Vec<CoordOut<F, R>>) -> Nanos {
        if let Some(seq) = self.seq.as_mut().filter(|s| !s.is_empty()) {
            let closed = seq.close(now, CloseKind::Age);
            self.emit_closed(closed, now, out);
        }
        self.coord.take_cpu()
    }

    /// Send an epoch log to every partition and peer shard, charging the
    /// fan-out to this shard.
    fn broadcast(&mut self, log: &EpochLog, out: &mut Vec<CoordOut<F, R>>) {
        let mut fanout = 0;
        for dest in broadcast_dests(self.partitions, self.shards, self.id) {
            out.push(CoordOut::EpochLog(dest, log.clone()));
            fanout += 1;
        }
        self.coord.charge_extra_msgs(fanout);
    }

    /// Emit a closed epoch: its log goes out *before* the epoch's
    /// invocations dispatch fragments, so per-link FIFO delivery lands each
    /// log ahead of the round-0 fragments it orders.
    fn emit_closed(
        &mut self,
        closed: ClosedEpoch<F, R>,
        now: Nanos,
        out: &mut Vec<CoordOut<F, R>>,
    ) {
        self.broadcast(&closed.log, out);
        for inv in closed.invokes {
            self.coord
                .on_invoke_at(inv.txn, inv.client, inv.procedure, inv.can_abort, now, out);
        }
    }

    /// The open epoch as (era, epoch, oldest buffered invocation's time);
    /// `None` when it is empty or sequencing is off.
    pub fn open_epoch(&self) -> Option<(u32, u64, Nanos)> {
        let seq = self.seq.as_ref()?;
        Some((seq.era(), seq.open_epoch(), seq.oldest_enqueued_at()?))
    }

    /// The stall-expiry timeout, if this shard expires stalled work (ticks
    /// are only needed then, or with sequencing on).
    pub fn expiry(&self) -> Option<Nanos> {
        self.expiry.map(|(t, _)| t)
    }

    /// Whether this shard needs periodic [`CoordIn::Tick`]s.
    pub fn wants_ticks(&self) -> bool {
        self.expiry.is_some() || self.seq.is_some()
    }

    /// Multi-partition transactions in flight.
    pub fn pending(&self) -> usize {
        self.coord.pending()
    }

    pub fn counters(&self) -> &CoordCounters {
        &self.coord.counters
    }

    /// Sequencer counters (zero with sequencing off, except
    /// `cross_coord_aborts`, counted in any mode).
    pub fn seq_stats(&self) -> SequencerStats {
        let mut stats = self
            .seq
            .as_ref()
            .map(|s| s.stats().clone())
            .unwrap_or_default();
        stats.cross_coord_aborts += self.cross_coord_aborts;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequencer::EpochLogDest;
    use crate::testkit::{SimpleMpProcedure, TestFragment, TestOutput};
    use hcc_common::{Scheme, SequencingConfig};

    /// Both adapters rely on the epoch log leaving ahead of the round-0
    /// fragments it orders (per-link FIFO does the rest).
    #[test]
    fn closed_epoch_broadcasts_its_log_before_its_fragments() {
        let system = SystemConfig::new(Scheme::Speculative)
            .with_partitions(2)
            .with_sequencing(SequencingConfig::Epoch { batch: 1 });
        let mut node: CoordinatorNode<TestFragment, TestOutput> =
            CoordinatorNode::new(&system, CoordinatorId(0), false, None);
        let procedure = SimpleMpProcedure {
            fragments: vec![
                (PartitionId(0), TestFragment::add(1, 1)),
                (PartitionId(1), TestFragment::add(1, 1)),
            ],
        };
        let mut out = Vec::new();
        node.step(
            CoordIn::Invoke {
                txn: TxnId::new(ClientId(1), 0),
                client: ClientId(1),
                procedure: Box::new(procedure),
                can_abort: false,
            },
            Nanos(1),
            &mut out,
        );
        let kinds: Vec<&str> = out
            .iter()
            .map(|o| match o {
                CoordOut::EpochLog(EpochLogDest::Partition(_), _) => "log",
                CoordOut::Fragment(..) => "fragment",
                _ => "other",
            })
            .collect();
        assert_eq!(kinds, ["log", "log", "fragment", "fragment"]);
    }
}
