//! Backend-agnostic, poll-driven actor state machines.
//!
//! The runtime is three kinds of actor — clients, the central coordinator,
//! and replicas — wrapped around the runtime-agnostic cores from
//! `hcc-core`. Every actor exposes a non-blocking
//! [`step`](ReplicaActor::step): consume one message, emit any number of
//! [`OutMsg`]s. Nothing here blocks, sleeps, or spawns; *how* messages
//! move between actors is entirely the backend's business
//! ([`crate::threaded`] parks one OS thread per actor on a channel,
//! [`crate::multiplexed`] drives every actor from a small worker pool).
//!
//! # Replica groups, failover, recovery
//!
//! Each partition is a *replica group* of `replication` physical nodes:
//! slot 0 starts as the primary, slots 1.. as backups replaying the
//! primary's commit-order log through the shared
//! [`hcc_core::replica::ReplicaCore`] (paper §3.2). A [`ReplicaActor`]
//! owns one node and changes [`Role`] over its lifetime:
//!
//! * **Primary** — an `hcc_core::PartitionNode`: the scheme's scheduler
//!   and engine, shipping a [`CommitRecord`] per commit to every backup
//!   and holding single-partition results until the record is under the
//!   group's acked watermark (§2.2: a transaction commits once it is on
//!   `k` replicas).
//! * **Backup** — sequence-checked replay; every applied record is acked
//!   back to whichever slot shipped it. Replay failures are *propagated*
//!   into [`ReplicationCounters`] and surfaced in the run report, never
//!   swallowed.
//! * **Failed** — a crashed primary (fault injection, §3.3's failure
//!   model). Bounces everything with
//!   [`AbortReason::PartitionFailed`] — the moral equivalent of the
//!   client's connection resetting — so closed-loop clients transparently
//!   retry against the new primary.
//! * **Recovering** — the failed node rejoining: it asks the new primary
//!   for a state snapshot, installs it at the snapshot's log position,
//!   and returns as a backup that catches up from the log (§3.3) while
//!   the group keeps processing.
//!
//! The membership authority is the dedicated control-plane
//! [`MembershipActor`] (wrapping `hcc_core::MembershipCore`): on
//! `PrimaryFailed` it bumps the group's epoch, promotes the first backup,
//! flips the backends' routing table (via a [`ActorId::Control`] message),
//! tells the dead node to rejoin, and fans an epoch-stamped
//! [`Msg::RoutingUpdate`] out to **every coordinator shard**, each of
//! which aborts its own in-flight transactions touching the dead node.
//! Failure *detection* is modeled as reliable and immediate — the dying
//! node's last act is notifying the membership actor — which keeps the
//! kill → promote → recover scenario deterministic.
//!
//! Coordinators are sharded ([`ActorId::Coordinator`] carries a
//! [`CoordinatorId`]): clients are statically partitioned across shards
//! and each shard runs its own `Coordinator` core. In failover runs the
//! shards also track the 2PC in-doubt window: primaries acknowledge
//! commit decisions ([`Msg::DecisionAck`]), and a routing update makes
//! the owning shard re-deliver any unacknowledged commit's fragments to
//! the promoted primary — closing the window instead of documenting it.
//!
//! One failover per group per run is supported (the `FailurePlan` is
//! one-shot).

use hcc_common::stats::SequencerStats;
use hcc_common::{
    AbortReason, CachePadded, ClientId, CommitRecord, CoordinatorId, CoordinatorRef, Decision,
    FragmentResponse, FragmentTask, Nanos, PartitionId, Scheme, SystemConfig, TxnId, TxnResult,
};
use hcc_core::client::{ClientCore, ClientStats, NextAction, PendingRequest};
use hcc_core::coordinator::{CoordOut, PeerNote};
use hcc_core::membership::MembershipCore;
use hcc_core::replica::{failover_bounce, FailoverBounce, ReplicaCore};
use hcc_core::sequencer::{EpochLog, EpochLogDest};
use hcc_core::txn_driver::TxnDriver;
use hcc_core::{
    CoordIn, CoordinatorNode, ExecutionEngine, NodeOut, NodeStats, PartitionIn, PartitionNode,
    Procedure, Request, RequestGenerator,
};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Logical address of an actor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActorId {
    Client(ClientId),
    /// One central coordinator shard.
    Coordinator(CoordinatorId),
    /// The control-plane membership authority.
    Membership,
    /// The *current primary* of a replica group. Backends resolve this
    /// through their membership table, so a promotion transparently
    /// redirects partition traffic to the promoted node.
    Partition(PartitionId),
    /// A physical replica node: (group, slot). Slot 0 is the initial
    /// primary, slots `1..replication` the initial backups.
    Replica(PartitionId, u32),
    /// Backend-internal control channel: the router interprets the
    /// message (membership flip) instead of delivering it to an actor.
    Control,
}

/// Every message the runtime actors exchange, in one enum so backends
/// route a single type. Which variants an actor accepts is part of its
/// `step` contract (a misrouted message is a driver bug, not a protocol
/// state).
pub enum Msg<E: ExecutionEngine> {
    /// Kick a client into issuing its first request.
    Start,
    /// Final result of a client's in-flight transaction.
    Result {
        txn: TxnId,
        result: TxnResult<E::Output>,
    },
    /// Fragment response routed to a client-coordinator (locking scheme).
    FragResponse(FragmentResponse<E::Output>),
    /// A unit of work for a partition.
    Fragment(FragmentTask<E::Fragment>),
    /// A two-phase-commit decision for a partition. The second field is
    /// the coordinator (central shard or client driver) expecting a
    /// [`Msg::DecisionAck`] for a processed commit — in-doubt tracking
    /// and/or durable result release; `None` otherwise.
    Decision(Decision, Option<CoordinatorRef>),
    /// Periodic maintenance (lock-timeout scans under the locking scheme).
    Tick,
    /// A multi-partition invocation for the central coordinator.
    Invoke {
        txn: TxnId,
        client: ClientId,
        procedure: Box<dyn Procedure<E::Fragment, E::Output>>,
        can_abort: bool,
    },
    /// A fragment response for the central coordinator.
    Response(FragmentResponse<E::Output>),
    /// A commit-order log record, primary → backup. `from_slot` tells the
    /// backup where to send its ack (the shipper may be a promoted node).
    Commit {
        from_slot: u32,
        record: CommitRecord<E::Fragment>,
    },
    /// Cumulative replay acknowledgement, backup → primary.
    CommitAck { slot: u32, seq: u64 },
    /// A dying primary's last gasp, to the membership actor (stands in
    /// for the failure detector, keeping the scenario deterministic).
    PrimaryFailed { partition: PartitionId },
    /// Membership → every coordinator shard: the partition failed over to
    /// a promoted backup under this epoch. Each shard aborts its own
    /// in-flight transactions touching it and re-delivers unacknowledged
    /// commits.
    RoutingUpdate { partition: PartitionId, epoch: u32 },
    /// Primary → coordinator shard: the commit decision for `txn` was
    /// processed (its commit record is in the group's log) — the
    /// transaction leaves the 2PC in-doubt window.
    DecisionAck { txn: TxnId, partition: PartitionId },
    /// Coordinator → backup: you are the group's primary now.
    Promote { epoch: u32 },
    /// Coordinator → failed node: rejoin the group as a backup by copying
    /// state from the new primary (§3.3).
    Rejoin { epoch: u32, primary_slot: u32 },
    /// Recovering node → new primary: send me your committed state.
    FetchState { requester_slot: u32 },
    /// New primary → recovering node: committed state as of log position
    /// `seq`. Records `> seq` follow on the same FIFO link.
    Snapshot { engine: Box<E>, seq: u64 },
    /// Backend control (dest [`ActorId::Control`]): group `0` now answers
    /// to the given slot — flip the routing table.
    Promoted { partition: PartitionId, slot: u32 },
    /// A closed sequencing epoch log: shard → every partition (merge
    /// input) and every peer shard (cascade-close input). Sequencing runs
    /// only.
    EpochLog(EpochLog),
    /// A peer shard's commit/abort decision for one of its transactions
    /// (cross-shard dependency settling under sequencing).
    PeerNote(PeerNote),
}

/// An outbound message with its destination, as emitted by `step`.
pub struct OutMsg<E: ExecutionEngine> {
    pub dest: ActorId,
    pub msg: Msg<E>,
}

/// Run-wide control state shared between the driver and the actors: the
/// measurement protocol (stop flag, measurement window, in-window commit
/// counter), the count of clients still running, and the failover gate
/// (set once the injected failure's recovery completes, so drivers can
/// drain the kill → promote → recover chain before shutdown).
pub struct RunControl {
    /// Clients finish their in-flight transaction, then retire.
    pub stop: AtomicBool,
    /// True during the measurement window (timed mode).
    pub window_open: AtomicBool,
    /// Commits observed while the window was open, sharded by client id so
    /// clients stepped on different workers never contend on (or
    /// false-share) a single counter line. Read via
    /// [`committed_in_window`](Self::committed_in_window) after the window
    /// closes.
    commit_shards: Vec<CachePadded<AtomicU64>>,
    /// Clients that have not yet retired. Padded: decremented from worker
    /// threads while the driver spin-reads it.
    pub live_clients: CachePadded<AtomicUsize>,
    /// Set by the recovering replica when its snapshot is installed.
    pub recovery_done: AtomicBool,
    /// Clients currently parked in a retry backoff and waiting for a
    /// [`Msg::Tick`]. Tick sources consult this so an idle system sends no
    /// client ticks at all (the multiplexed workers stay parked).
    backoff_waiters: CachePadded<AtomicUsize>,
}

/// Shard count for the in-window commit counter: enough stripes that
/// clients on different workers rarely collide, small enough that the
/// end-of-run sum is trivial. Must be a power of two.
const COMMIT_SHARDS: usize = 16;

impl RunControl {
    pub fn new(clients: usize) -> Self {
        RunControl {
            stop: AtomicBool::new(false),
            window_open: AtomicBool::new(false),
            commit_shards: (0..COMMIT_SHARDS)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            live_clients: CachePadded::new(AtomicUsize::new(clients)),
            recovery_done: AtomicBool::new(false),
            backoff_waiters: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    /// Count one commit inside the measurement window.
    pub fn note_window_commit(&self, client: ClientId) {
        self.commit_shards[client.as_usize() & (COMMIT_SHARDS - 1)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total commits observed while the window was open (sums the shards;
    /// call only after the window has closed and clients have quiesced).
    pub fn committed_in_window(&self) -> u64 {
        self.commit_shards
            .iter()
            .map(|s| s.load(Ordering::SeqCst))
            .sum()
    }

    /// A client entered a retry backoff and needs future ticks.
    pub fn backoff_started(&self) {
        self.backoff_waiters.fetch_add(1, Ordering::SeqCst);
    }

    /// A client left its retry backoff.
    pub fn backoff_finished(&self) {
        self.backoff_waiters.fetch_sub(1, Ordering::SeqCst);
    }

    /// How many clients are parked in a backoff right now.
    pub fn backoff_waiters(&self) -> usize {
        self.backoff_waiters.load(Ordering::SeqCst)
    }
}

/// What a client actor's `step` needs besides the message: the shared
/// workload generator and the run control block.
pub struct ClientCtx<'a, W> {
    pub workload: &'a Mutex<W>,
    pub ctl: &'a RunControl,
}

/// Route one coordinator-core output to its destination actor.
fn push_coord_out<E: ExecutionEngine>(
    o: CoordOut<E::Fragment, E::Output>,
    out: &mut Vec<OutMsg<E>>,
) {
    let (dest, msg) = match o {
        CoordOut::Fragment(p, task) => (ActorId::Partition(p), Msg::Fragment(task)),
        CoordOut::Decision(p, d, ack_to) => (ActorId::Partition(p), Msg::Decision(d, ack_to)),
        CoordOut::ClientResult {
            client,
            txn,
            result,
        } => (ActorId::Client(client), Msg::Result { txn, result }),
        CoordOut::PeerNote(k, note) => (ActorId::Coordinator(k), Msg::PeerNote(note)),
        CoordOut::EpochLog(dest, log) => match dest {
            EpochLogDest::Partition(p) => (ActorId::Partition(p), Msg::EpochLog(log)),
            EpochLogDest::Shard(k) => (ActorId::Coordinator(k), Msg::EpochLog(log)),
        },
    };
    out.push(OutMsg { dest, msg });
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// A closed-loop client (paper §5) as a poll-driven state machine: issue
/// one request, await its final result, issue the next. Under the locking
/// scheme the client runs its own two-phase commit through [`TxnDriver`]
/// (§4.3), so fragment responses also arrive here.
pub struct ClientActor<W: RequestGenerator> {
    core: ClientCore,
    driver:
        TxnDriver<<W::Engine as ExecutionEngine>::Fragment, <W::Engine as ExecutionEngine>::Output>,
    pending: Option<
        PendingRequest<
            <W::Engine as ExecutionEngine>::Fragment,
            <W::Engine as ExecutionEngine>::Output,
        >,
    >,
    current_txn: Option<TxnId>,
    submitted_at: Nanos,
    /// Deadline of a backoff wait before re-dispatching the pending
    /// request (infrastructure-abort retry). The backend wakes the actor
    /// with a [`Msg::Tick`] at or after this time.
    retry_at: Option<Nanos>,
    /// Final outcomes left before retiring (fixed-work mode); `None` runs
    /// until the control block's stop flag.
    remaining: Option<u64>,
    /// Record every latency sample (fixed-work mode) instead of only
    /// in-window ones.
    record_always: bool,
    /// Drive multi-partition transactions through this client's own
    /// [`TxnDriver`] 2PC (locking scheme, §4.3). Forced off under adaptive
    /// scheme selection: a partition's scheme can change between rounds,
    /// so MP work must route through the scheme-agnostic central
    /// coordinator.
    client_2pc: bool,
    /// The coordinator shard that owns this client's multi-partition
    /// transactions (static partitioning).
    coord_shard: CoordinatorId,
    done: bool,
    scratch: Vec<
        CoordOut<<W::Engine as ExecutionEngine>::Fragment, <W::Engine as ExecutionEngine>::Output>,
    >,
}

impl<W: RequestGenerator> ClientActor<W>
where
    W::Engine: 'static,
{
    pub fn new(id: ClientId, system: &SystemConfig, requests: Option<u64>) -> Self {
        let mut driver = TxnDriver::new(system.costs, id);
        // Durable release for client-driven 2PC (locking): the driver
        // parks committed results until every participant acks — which
        // partitions do only once the commit record is durably logged.
        driver.set_hold_results(system.durability.is_some());
        ClientActor {
            core: ClientCore::with_retry(id, system.retry),
            driver,
            pending: None,
            current_txn: None,
            submitted_at: Nanos::ZERO,
            retry_at: None,
            remaining: requests,
            record_always: requests.is_some(),
            client_2pc: system.scheme == Scheme::Locking && !system.adaptive.is_on(),
            coord_shard: system.coordinator_of(id),
            done: false,
            scratch: Vec::new(),
        }
    }

    /// True once the client has retired; the backend stops delivering to it.
    pub fn done(&self) -> bool {
        self.done
    }

    /// When the actor needs a [`Msg::Tick`] to finish a backoff wait
    /// (`None` when no retry is parked). Backends turn this into a receive
    /// timeout or a timer entry.
    pub fn retry_wake(&self) -> Option<Nanos> {
        self.retry_at
    }

    pub fn into_stats(self) -> ClientStats {
        self.core.stats
    }

    pub fn step(
        &mut self,
        msg: Msg<W::Engine>,
        now: Nanos,
        ctx: &ClientCtx<'_, W>,
        out: &mut Vec<OutMsg<W::Engine>>,
    ) {
        if self.done {
            // Shared timer threads may tick a retired client; anything
            // else arriving here is a routing bug.
            debug_assert!(
                matches!(msg, Msg::Tick),
                "message delivered to a retired client"
            );
            return;
        }
        match msg {
            Msg::Start => {
                debug_assert!(self.pending.is_none());
                let req = ctx.workload.lock().next_request(self.core.id);
                self.pending = Some(PendingRequest::from_request(&req));
                self.submitted_at = now;
                self.dispatch(now, out);
            }
            Msg::Result { txn, result } => self.handle_result(txn, result, now, ctx, out),
            Msg::Tick => {
                // Backoff wake-up: re-dispatch once the deadline passed.
                // Early or spurious ticks (shared timer threads tick
                // coarsely) are ignored; the backend keeps waking us.
                if matches!(self.retry_at, Some(at) if now >= at) {
                    self.retry_at = None;
                    ctx.ctl.backoff_finished();
                    self.dispatch(now, out);
                }
            }
            Msg::FragResponse(r) => {
                debug_assert!(self.scratch.is_empty());
                let mut scratch = std::mem::take(&mut self.scratch);
                self.driver.on_response(r, &mut scratch);
                let _ = self.driver.take_cpu();
                let decided = TxnDriver::take_result(&mut scratch);
                // Route the driver's messages (commit/abort decisions)
                // before acting on the result, so decisions precede the
                // next request's fragments at every partition.
                for o in scratch.drain(..) {
                    push_coord_out(o, out);
                }
                self.scratch = scratch;
                if let Some((txn, result)) = decided {
                    self.handle_result(txn, result, now, ctx, out);
                }
            }
            Msg::DecisionAck { txn, partition } => {
                // Durable release (locking): a participant durably logged
                // our commit decision; the final ack releases the parked
                // result.
                debug_assert!(self.scratch.is_empty());
                let mut scratch = std::mem::take(&mut self.scratch);
                self.driver.on_decision_ack(txn, partition, &mut scratch);
                let _ = self.driver.take_cpu();
                let decided = TxnDriver::take_result(&mut scratch);
                debug_assert!(scratch.is_empty(), "acks emit only the held result");
                self.scratch = scratch;
                if let Some((txn, result)) = decided {
                    self.handle_result(txn, result, now, ctx, out);
                }
            }
            _ => debug_assert!(false, "unexpected message at client {}", self.core.id),
        }
    }

    fn handle_result(
        &mut self,
        txn: TxnId,
        result: TxnResult<<W::Engine as ExecutionEngine>::Output>,
        now: Nanos,
        ctx: &ClientCtx<'_, W>,
        out: &mut Vec<OutMsg<W::Engine>>,
    ) {
        debug_assert_eq!(
            self.current_txn,
            Some(txn),
            "stray result at {}",
            self.core.id
        );
        self.current_txn = None;
        let in_window = ctx.ctl.window_open.load(Ordering::Relaxed);
        let record = self.record_always || in_window;
        match self
            .core
            .on_result_at(&result, self.submitted_at, now, record)
        {
            NextAction::Retry { after } => {
                // Fixed-work clients must drive every request to a final
                // outcome (the reproducibility contract); timed clients
                // honour the stop flag instead.
                if self.remaining.is_none() && ctx.ctl.stop.load(Ordering::Relaxed) {
                    self.retire(ctx);
                } else if after > Nanos::ZERO {
                    self.retry_at = Some(now + after);
                    ctx.ctl.backoff_started();
                } else {
                    self.dispatch(now, out);
                }
            }
            NextAction::NewRequest => {
                if in_window && result.is_committed() {
                    ctx.ctl.note_window_commit(self.core.id);
                }
                let retire = match self.remaining.as_mut() {
                    Some(k) => {
                        *k -= 1;
                        *k == 0
                    }
                    None => ctx.ctl.stop.load(Ordering::Relaxed),
                };
                let mut wl = ctx.workload.lock();
                wl.on_result(self.core.id, txn, result.is_committed());
                if retire {
                    drop(wl);
                    self.retire(ctx);
                } else {
                    let req = wl.next_request(self.core.id);
                    drop(wl);
                    self.pending = Some(PendingRequest::from_request(&req));
                    self.submitted_at = now;
                    self.dispatch(now, out);
                }
            }
        }
    }

    fn retire(&mut self, ctx: &ClientCtx<'_, W>) {
        self.done = true;
        // A retiring client cannot leave a backoff waiter registered (it
        // retires from a result, never from inside a parked backoff) — but
        // keep the counter exact even if that invariant ever shifts.
        if self.retry_at.take().is_some() {
            ctx.ctl.backoff_finished();
        }
        ctx.ctl.live_clients.fetch_sub(1, Ordering::SeqCst);
    }

    /// Issue the pending request under a fresh transaction id.
    fn dispatch(&mut self, _now: Nanos, out: &mut Vec<OutMsg<W::Engine>>) {
        let txn = self.core.next_txn_id();
        self.current_txn = Some(txn);
        let client = self.core.id;
        match self.pending.as_ref().expect("pending request").to_request() {
            Request::SinglePartition {
                partition,
                fragment,
                can_abort,
            } => {
                out.push(OutMsg {
                    dest: ActorId::Partition(partition),
                    msg: Msg::Fragment(FragmentTask {
                        txn,
                        coordinator: CoordinatorRef::Client(client),
                        client,
                        fragment,
                        multi_partition: false,
                        last_fragment: true,
                        round: 0,
                        can_abort,
                    }),
                });
            }
            Request::MultiPartition {
                procedure,
                can_abort,
            } => match self.client_2pc {
                true => {
                    debug_assert!(self.scratch.is_empty());
                    let mut scratch = std::mem::take(&mut self.scratch);
                    self.driver.begin(txn, procedure, can_abort, &mut scratch);
                    let _ = self.driver.take_cpu();
                    for o in scratch.drain(..) {
                        push_coord_out(o, out);
                    }
                    self.scratch = scratch;
                }
                false => {
                    out.push(OutMsg {
                        dest: ActorId::Coordinator(self.coord_shard),
                        msg: Msg::Invoke {
                            txn,
                            client,
                            procedure,
                            can_abort,
                        },
                    });
                }
            },
        }
    }
}

// ---------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------

/// One central coordinator shard (paper §3.3) as an actor: a message
/// adapter over [`CoordinatorNode`]. Clients are statically partitioned
/// across shards; each shard owns its own 2PC, speculation-chain, epoch
/// sequencing and (in failover runs) in-doubt commit state. Membership
/// authority lives in [`MembershipActor`], whose routing updates this
/// actor consumes.
pub struct CoordinatorActor<E: ExecutionEngine> {
    node: CoordinatorNode<E::Fragment, E::Output>,
    scratch: Vec<CoordOut<E::Fragment, E::Output>>,
}

impl<E: ExecutionEngine> CoordinatorActor<E> {
    pub fn new(system: &SystemConfig, id: CoordinatorId, track_in_doubt: bool) -> Self {
        CoordinatorActor {
            node: CoordinatorNode::new(system, id, track_in_doubt, None),
            scratch: Vec::new(),
        }
    }

    /// Whether the shard needs periodic [`Msg::Tick`]s (stall expiry or
    /// epoch age-closes).
    pub fn wants_ticks(&self) -> bool {
        self.node.wants_ticks()
    }

    /// Sequencer counters for the run report.
    pub fn seq_stats(&self) -> SequencerStats {
        self.node.seq_stats()
    }

    pub fn step(&mut self, msg: Msg<E>, now: Nanos, out: &mut Vec<OutMsg<E>>) {
        let input = match msg {
            Msg::Invoke {
                txn,
                client,
                procedure,
                can_abort,
            } => CoordIn::Invoke {
                txn,
                client,
                procedure,
                can_abort,
            },
            Msg::Response(r) => CoordIn::Response(r),
            Msg::DecisionAck { txn, partition } => CoordIn::DecisionAck { txn, partition },
            Msg::PeerNote(note) => CoordIn::PeerNote(note),
            Msg::EpochLog(log) => CoordIn::EpochLog(log),
            Msg::RoutingUpdate { partition, epoch } => CoordIn::RoutingUpdate { partition, epoch },
            Msg::Tick => CoordIn::Tick,
            _ => {
                debug_assert!(false, "unexpected message at coordinator");
                return;
            }
        };
        // Live time is wall time: the modelled CPU charge is dropped.
        let _ = self.node.step(input, now, &mut self.scratch);
        for o in self.scratch.drain(..) {
            push_coord_out(o, out);
        }
    }
}

// ---------------------------------------------------------------------
// Membership (control plane)
// ---------------------------------------------------------------------

/// The replication control plane as an actor: the sole owner of
/// membership/epoch state (`hcc_core::MembershipCore`). On a failure
/// notification it drives the whole failover: promote the first backup,
/// flip the backends' routing table, tell the dead node to rejoin, and
/// notify every coordinator shard with an epoch-stamped routing update.
///
/// Emission order matters — the promotion must be in the new primary's
/// mailbox before the membership flip makes other actors route fragments
/// to it, before the rejoin can trigger a state fetch, and before any
/// shard can re-deliver in-doubt commits to the promoted node.
pub struct MembershipActor {
    core: MembershipCore,
    /// Coordinator shard count, for the routing-update fan-out.
    coordinators: u32,
}

impl MembershipActor {
    pub fn new(coordinators: u32) -> Self {
        MembershipActor {
            core: MembershipCore::new(),
            coordinators: coordinators.max(1),
        }
    }

    pub fn step<E: ExecutionEngine>(&mut self, msg: Msg<E>, out: &mut Vec<OutMsg<E>>) {
        match msg {
            Msg::PrimaryFailed { partition } => {
                let up = self.core.on_primary_failed(partition);
                out.push(OutMsg {
                    dest: ActorId::Replica(partition, up.new_primary_slot),
                    msg: Msg::Promote { epoch: up.epoch },
                });
                out.push(OutMsg {
                    dest: ActorId::Control,
                    msg: Msg::Promoted {
                        partition,
                        slot: up.new_primary_slot,
                    },
                });
                out.push(OutMsg {
                    dest: ActorId::Replica(partition, up.failed_slot),
                    msg: Msg::Rejoin {
                        epoch: up.epoch,
                        primary_slot: up.new_primary_slot,
                    },
                });
                for k in 0..self.coordinators {
                    out.push(OutMsg {
                        dest: ActorId::Coordinator(CoordinatorId(k)),
                        msg: Msg::RoutingUpdate {
                            partition,
                            epoch: up.epoch,
                        },
                    });
                }
            }
            _ => debug_assert!(false, "unexpected message at membership actor"),
        }
    }
}

// ---------------------------------------------------------------------
// Replica
// ---------------------------------------------------------------------

/// The role a replica node currently plays; see the module docs.
enum Role<E: ExecutionEngine> {
    Primary(Box<PartitionNode<E>>),
    Backup { replica: ReplicaCore, engine: E },
    Failed,
    Recovering,
}

/// What a replica thread/slot hands back at shutdown.
pub struct ReplicaParts<E> {
    pub group: PartitionId,
    pub slot: u32,
    /// The node's engine (`None` for a failed node that never rejoined).
    pub engine: Option<E>,
    /// True if the node ended the run as the group's primary.
    pub is_primary: bool,
    /// True if the node ended the run as a live backup.
    pub is_backup: bool,
    /// Counters accumulated across every role the node played.
    pub stats: NodeStats,
    /// Framed bytes of the node's durable command log after a final clean
    /// sync (primary with durability on; `None` otherwise).
    pub log_image: Option<Vec<u8>>,
}

/// One physical replica node (paper §2.3's single-threaded partition
/// engine, §3.2's backup, or both over its lifetime): a message adapter
/// over [`PartitionNode`] while primary, over [`ReplicaCore`] while backup.
pub struct ReplicaActor<E: ExecutionEngine> {
    group: PartitionId,
    slot: u32,
    system: SystemConfig,
    role: Role<E>,
    epoch: u32,
    /// Crash after shipping this many commit records (fault injection;
    /// armed only on the initial primary of the failed group).
    crash_after: Option<u64>,
    /// Slots a primary ships its commit records to.
    targets: Vec<u32>,
    node_out: Vec<NodeOut<E::Fragment, E::Output>>,
    /// Counters of roles this node no longer plays, plus its own
    /// recovery and snapshot counters.
    stats: NodeStats,
    /// Wall time of the most recent step, so `into_parts` can close the
    /// open scheme-residency segment at teardown.
    last_now: Nanos,
}

impl<E> ReplicaActor<E>
where
    E: ExecutionEngine + Send + 'static,
    E::Fragment: Send,
    E::Output: Send,
{
    /// Build the node for (group, slot). Slot 0 starts as primary, other
    /// slots as backups (only created when `system.replication > 1`).
    pub fn new(
        group: PartitionId,
        slot: u32,
        system: &SystemConfig,
        engine: E,
        crash_after: Option<u64>,
    ) -> Self {
        let replicate = system.replication > 1;
        let role = if slot == 0 {
            Role::Primary(Box::new(PartitionNode::new(
                system, group, engine, replicate,
            )))
        } else {
            Role::Backup {
                replica: ReplicaCore::new(),
                engine,
            }
        };
        debug_assert!(
            crash_after.is_none() || (slot == 0 && replicate),
            "failure injection requires the primary of a replicated group"
        );
        ReplicaActor {
            group,
            slot,
            system: system.clone(),
            role,
            epoch: 0,
            crash_after,
            targets: (1..system.replication).collect(),
            node_out: Vec::new(),
            stats: NodeStats::default(),
            last_now: Nanos::ZERO,
        }
    }

    pub fn into_parts(mut self) -> ReplicaParts<E> {
        let mut log_image = None;
        let (engine, is_primary, is_backup) = match self.role {
            Role::Primary(mut node) => {
                log_image = node.close_log();
                self.stats.merge(&node.stats(self.last_now));
                (Some((*node).into_engine()), true, false)
            }
            Role::Backup { replica, engine } => {
                self.stats.repl.merge(&replica.counters);
                (Some(engine), false, true)
            }
            Role::Failed | Role::Recovering => (None, false, false),
        };
        ReplicaParts {
            group: self.group,
            slot: self.slot,
            engine,
            is_primary,
            is_backup,
            stats: self.stats,
            log_image,
        }
    }

    /// Bounce a fragment that reached a node which is not the primary with
    /// `PartitionFailed`: the retryable "your participant's node just
    /// died" signal, addressed to whoever is waiting on it.
    fn bounce(&mut self, task: &FragmentTask<E::Fragment>, out: &mut Vec<OutMsg<E>>) {
        let txn = task.txn;
        let Some(bounce) = failover_bounce(self.group, txn, std::slice::from_ref(task)) else {
            return;
        };
        self.stats.repl.failover_bounces += 1;
        out.push(match bounce {
            FailoverBounce::ToClient { client } => OutMsg {
                dest: ActorId::Client(client),
                msg: Msg::Result {
                    txn,
                    result: TxnResult::Aborted(AbortReason::PartitionFailed),
                },
            },
            FailoverBounce::ToCoordinator { dest, response } => response_msg(dest, response),
        });
    }

    /// Route a node step's outputs, completing any requested log sync
    /// inline (the live log's sync call is synchronous).
    fn route_node_out(&mut self, now: Nanos, out: &mut Vec<OutMsg<E>>) {
        let Role::Primary(node) = &mut self.role else {
            unreachable!("only a primary steps a node")
        };
        loop {
            let mut sync = false;
            for o in self.node_out.drain(..) {
                match o {
                    NodeOut::ToClient {
                        client,
                        txn,
                        result,
                    } => out.push(OutMsg {
                        dest: ActorId::Client(client),
                        msg: Msg::Result { txn, result },
                    }),
                    NodeOut::ToCoordinator { dest, response } => {
                        out.push(response_msg(dest, response))
                    }
                    NodeOut::DecisionAck { dest, txn } => out.push(OutMsg {
                        dest: match dest {
                            CoordinatorRef::Central(k) => ActorId::Coordinator(k),
                            CoordinatorRef::Client(c) => ActorId::Client(c),
                        },
                        msg: Msg::DecisionAck {
                            txn,
                            partition: self.group,
                        },
                    }),
                    NodeOut::Ship(record) => {
                        // Clone per extra backup; the last (commonly only)
                        // target moves the record.
                        if let Some((&last, rest)) = self.targets.split_last() {
                            for &slot in rest {
                                out.push(OutMsg {
                                    dest: ActorId::Replica(self.group, slot),
                                    msg: Msg::Commit {
                                        from_slot: self.slot,
                                        record: record.clone(),
                                    },
                                });
                            }
                            out.push(OutMsg {
                                dest: ActorId::Replica(self.group, last),
                                msg: Msg::Commit {
                                    from_slot: self.slot,
                                    record,
                                },
                            });
                        }
                    }
                    NodeOut::Sync => sync = true,
                }
            }
            if !sync {
                return;
            }
            let _ = node.step(PartitionIn::SyncDone, now, &mut self.node_out);
        }
    }

    pub fn step(&mut self, msg: Msg<E>, now: Nanos, ctl: &RunControl, out: &mut Vec<OutMsg<E>>) {
        self.last_now = now;
        match (&mut self.role, msg) {
            (Role::Primary(node), msg) => {
                let input = match msg {
                    Msg::Fragment(task) => PartitionIn::Fragment(task),
                    Msg::Decision(d, ack_to) => PartitionIn::Decision(d, ack_to),
                    Msg::EpochLog(log) => PartitionIn::EpochLog(log),
                    Msg::Tick => PartitionIn::Tick,
                    Msg::CommitAck { slot, seq } => PartitionIn::CommitAck { slot, seq },
                    Msg::FetchState { requester_slot } => {
                        let seq = node.shipped();
                        node.add_backup(requester_slot, seq);
                        let engine = Box::new(node.engine().snapshot());
                        if !self.targets.contains(&requester_slot) {
                            self.targets.push(requester_slot);
                        }
                        self.serve_snapshot(requester_slot, engine, seq, out);
                        return;
                    }
                    // Already primary (the initial primary is never sent
                    // this; defensive for re-deliveries).
                    Msg::Promote { .. } => return,
                    _ => {
                        debug_assert!(false, "unexpected message at primary {}", self.group);
                        return;
                    }
                };
                // Live time is wall time: the modelled CPU charge is dropped.
                let _ = node.step(input, now, &mut self.node_out);
                self.route_node_out(now, out);
                // Fault injection: die once the threshold-th record shipped.
                let shipped = match &self.role {
                    Role::Primary(node) => node.shipped(),
                    _ => 0,
                };
                if self.crash_after.is_some_and(|t| shipped >= t) {
                    self.crash_after = None;
                    self.crash(now, out);
                }
            }
            (Role::Backup { replica, engine }, Msg::Commit { from_slot, record }) => {
                let seq = record.seq;
                // Propagate, don't assert: a replay failure lands in the
                // counters and fails the run's health checks.
                let _ = replica.apply(engine, &record);
                out.push(OutMsg {
                    dest: ActorId::Replica(self.group, from_slot),
                    msg: Msg::CommitAck {
                        slot: self.slot,
                        seq: seq.min(replica.watermark()),
                    },
                });
            }
            (Role::Backup { .. }, Msg::Promote { epoch }) => {
                let Role::Backup { replica, engine } =
                    std::mem::replace(&mut self.role, Role::Recovering)
                else {
                    unreachable!()
                };
                // Every record the dead primary shipped is already applied
                // (it was queued ahead of this promotion on FIFO links);
                // surviving sibling backups hold the same prefix. The
                // failed node becomes a ship target only once it rejoins
                // (via FetchState).
                self.targets = (1..self.system.replication)
                    .filter(|&s| s != self.slot)
                    .collect();
                self.epoch = epoch;
                self.role = Role::Primary(Box::new(PartitionNode::promote(
                    &self.system,
                    self.group,
                    engine,
                    replica,
                    self.targets.iter().copied(),
                )));
            }
            (Role::Backup { replica, engine }, Msg::FetchState { requester_slot }) => {
                // Serve a sibling's recovery from backup state (only the
                // primary is asked in the current protocol, but the answer
                // is just as correct from any live replica).
                let seq = replica.watermark();
                let engine = Box::new(engine.snapshot());
                self.serve_snapshot(requester_slot, engine, seq, out);
            }
            // A fragment reaching a non-primary (a dead node, or a backup
            // the membership flip raced ahead of its promotion) bounces so
            // the client retries rather than hangs.
            (_, Msg::Fragment(task)) => self.bounce(&task, out),
            (
                Role::Failed,
                Msg::Rejoin {
                    epoch,
                    primary_slot,
                },
            ) => {
                self.epoch = epoch;
                self.role = Role::Recovering;
                out.push(OutMsg {
                    dest: ActorId::Replica(self.group, primary_slot),
                    msg: Msg::FetchState {
                        requester_slot: self.slot,
                    },
                });
            }
            (Role::Recovering, Msg::Snapshot { engine, seq }) => {
                let mut replica = ReplicaCore::new();
                replica.reset_to(seq);
                self.role = Role::Backup {
                    replica,
                    engine: *engine,
                };
                self.stats.repl.recoveries += 1;
                self.stats.repl.recovered_at_ns = now.0;
                ctl.recovery_done.store(true, Ordering::SeqCst);
            }
            // Late decisions/acks/ticks/epoch logs for a role this node no
            // longer plays: drop. (An epoch log can only reach a backup
            // through the membership flip racing ahead of the promotion;
            // the unsynced promoted gate passes the affected fragments
            // through when they are redelivered.)
            (
                Role::Backup { .. },
                Msg::Decision(..) | Msg::CommitAck { .. } | Msg::Tick | Msg::EpochLog(_),
            )
            | (Role::Failed | Role::Recovering, _) => {}
            (Role::Backup { .. }, _) => {
                debug_assert!(false, "unexpected message at backup {}", self.group)
            }
        }
    }

    /// Send committed state as of log position `seq` to a recovering node
    /// (§3.3). Records `> seq` follow on the same FIFO link.
    fn serve_snapshot(&mut self, to_slot: u32, engine: Box<E>, seq: u64, out: &mut Vec<OutMsg<E>>) {
        self.stats.repl.snapshots_served += 1;
        out.push(OutMsg {
            dest: ActorId::Replica(self.group, to_slot),
            msg: Msg::Snapshot { engine, seq },
        });
    }

    /// The injected crash: the node releases what its backups already
    /// hold, bounces everything in flight, and goes dark; its last act is
    /// telling the membership actor (the "failure detector").
    fn crash(&mut self, now: Nanos, out: &mut Vec<OutMsg<E>>) {
        let Role::Primary(node) = &mut self.role else {
            unreachable!("crash is armed only on a primary");
        };
        node.crash(now, &mut self.node_out);
        self.route_node_out(now, out);
        let Role::Primary(node) = std::mem::replace(&mut self.role, Role::Failed) else {
            unreachable!()
        };
        self.stats.merge(&node.stats(now));
        out.push(OutMsg {
            dest: ActorId::Membership,
            msg: Msg::PrimaryFailed {
                partition: self.group,
            },
        });
    }
}

/// A fragment response for a central shard or a client's driver.
fn response_msg<E: ExecutionEngine>(
    dest: CoordinatorRef,
    response: FragmentResponse<E::Output>,
) -> OutMsg<E> {
    match dest {
        CoordinatorRef::Central(k) => OutMsg {
            dest: ActorId::Coordinator(k),
            msg: Msg::Response(response),
        },
        CoordinatorRef::Client(c) => OutMsg {
            dest: ActorId::Client(c),
            msg: Msg::FragResponse(response),
        },
    }
}
