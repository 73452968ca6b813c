//! The simulation: an adapter over the `hcc-core` nodes. Each
//! partition is a [`PartitionNode`] and each coordinator shard a
//! [`CoordinatorNode`]; this module only delivers their inputs as timed
//! events, charges each step's CPU to the actor's virtual busy clock,
//! routes outputs across the modelled network, runs the closed-loop
//! clients, and injects faults (a partition crash, a kill → promote →
//! rejoin failover, a whole-group crash at the k-th logged record).

use crate::event::{ClientIn, Ev, HeapItem};
use crate::report::SimReport;
use hcc_common::codec::decode_exact;
use hcc_common::stats::LatencyHistogram;
use hcc_common::{
    ClientId, CommitRecord, CoordinatorId, CoordinatorRef, FragmentTask, Nanos, PartitionId,
    Scheme, SystemConfig, TxnId, TxnResult,
};
use hcc_core::client::{ClientCore, NextAction, PendingRequest};
use hcc_core::coordinator::{CoordCounters, CoordOut};
use hcc_core::membership::MembershipCore;
use hcc_core::replica::ReplicaCore;
use hcc_core::txn_driver::TxnDriver;
use hcc_core::{
    CoordIn, CoordinatorNode, EpochLogDest, ExecutionEngine, NodeOut, NodeStats, PartitionIn,
    PartitionNode, Request, RequestGenerator,
};
use hcc_storage::{decode_frames, DurableLog, FaultMode};
use std::collections::BinaryHeap;

/// Simulation parameters: the system under test plus the measurement
/// protocol (the paper uses 15 s warm-up and 60 s measurement; scaled-down
/// virtual windows give the same steady-state numbers in a fraction of the
/// host time, and the bench harness verifies window-insensitivity).
#[derive(Debug, Clone)]
pub struct SimConfig {
    pub system: SystemConfig,
    pub warmup: Nanos,
    pub measure: Nanos,
    /// Maintain a backup replica per partition through the shared
    /// `ReplicaCore` — commit-order log shipping replayed in sequence,
    /// exposed for state comparison (the paper's §3.2 backups; comparing
    /// primary and replica doubles as a serializability check).
    pub shadow_replica: bool,
    /// Fault injection: at the given time, the partition crashes — it
    /// silently drops every message from then on (§3.3's failure model:
    /// "the transaction causes one partition to crash or the network
    /// splits during execution").
    pub fail_partition: Option<(Nanos, PartitionId)>,
    /// When set, the central coordinator aborts transactions pending
    /// longer than this (the 2PC recovery path for participant failure).
    pub coordinator_timeout: Option<Nanos>,
    /// Replicated fault injection (requires `shadow_replica`): kill the
    /// primary at the given time — its backup is promoted in place
    /// (in-flight transactions bounce with `PartitionFailed`) — and after
    /// `rejoin_delay` the failed node rejoins §3.3-style from a snapshot
    /// of the new primary's committed state, catching up from the log.
    pub failover: Option<SimFailover>,
}

/// Parameters of a simulated kill → promote → recover scenario.
#[derive(Debug, Clone, Copy)]
pub struct SimFailover {
    pub at: Nanos,
    pub partition: PartitionId,
    /// Virtual time between the kill and the failed node's rejoin.
    pub rejoin_delay: Nanos,
}

impl SimConfig {
    pub fn new(system: SystemConfig) -> Self {
        SimConfig {
            system,
            warmup: Nanos::from_millis(200),
            measure: Nanos::from_millis(1000),
            shadow_replica: false,
            fail_partition: None,
            coordinator_timeout: None,
            failover: None,
        }
    }

    /// Crash `partition` at time `at` and enable coordinator expiry of
    /// stalled transactions.
    pub fn with_partition_failure(mut self, at: Nanos, partition: PartitionId) -> Self {
        self.fail_partition = Some((at, partition));
        self.coordinator_timeout = Some(Nanos::from_millis(2));
        self
    }

    pub fn with_window(mut self, warmup: Nanos, measure: Nanos) -> Self {
        self.warmup = warmup;
        self.measure = measure;
        self
    }

    pub fn with_shadow(mut self) -> Self {
        self.shadow_replica = true;
        self
    }

    /// Kill `partition`'s primary at `at`, promote its replica, and
    /// rejoin the failed node `rejoin_delay` later (enables the replica).
    pub fn with_failover(mut self, at: Nanos, partition: PartitionId, rejoin_delay: Nanos) -> Self {
        self.shadow_replica = true;
        self.failover = Some(SimFailover {
            at,
            partition,
            rejoin_delay,
        });
        self
    }
}

struct SimClient<E: ExecutionEngine> {
    core: ClientCore,
    pending: Option<PendingRequest<E::Fragment, E::Output>>,
    driver: TxnDriver<E::Fragment, E::Output>,
    current_txn: Option<TxnId>,
    current_is_mp: bool,
    submitted_at: Nanos,
    busy: Nanos,
}

/// One run of the system under a workload. Deterministic given the config
/// and workload seed.
pub struct Simulation<W: RequestGenerator> {
    cfg: SimConfig,
    workload: W,
    queue: BinaryHeap<HeapItem<W::Engine>>,
    seq: u64,
    now: Nanos,

    /// One partition primary per partition; a failover replaces the slot
    /// with the promoted backup.
    nodes: Vec<PartitionNode<W::Engine>>,
    part_busy: Vec<Nanos>,
    part_busy_in_window: Vec<u64>,
    /// Whether a scheduler tick is already queued.
    tick_pending: Vec<bool>,
    /// When the queued durable-log tick fires, if one is.
    log_tick_at: Vec<Option<Nanos>>,

    /// Coordinator shards; clients are statically partitioned across them
    /// (`SystemConfig::coordinator_of`). One shard reproduces the paper.
    coords: Vec<
        CoordinatorNode<
            <W::Engine as ExecutionEngine>::Fragment,
            <W::Engine as ExecutionEngine>::Output,
        >,
    >,
    coord_busy: Vec<Nanos>,
    coord_busy_in_window: Vec<u64>,
    /// The control-plane membership/epoch authority (failover mode).
    membership: MembershipCore,
    /// Per shard: the (era, epoch) an `Ev::EpochClose` age timer was armed
    /// for — a close in the meantime advances the pair, disarming it.
    seq_armed: Vec<Option<(u32, u64)>>,

    // Reused hot-path buffers: one event in steady state allocates
    // nothing — node outputs, coordinator outputs, and same-time delivery
    // batches all recycle their backing storage.
    node_out: Vec<
        NodeOut<<W::Engine as ExecutionEngine>::Fragment, <W::Engine as ExecutionEngine>::Output>,
    >,
    coord_out: Vec<
        CoordOut<<W::Engine as ExecutionEngine>::Fragment, <W::Engine as ExecutionEngine>::Output>,
    >,
    batch_pool: Vec<Vec<Ev<W::Engine>>>,

    clients: Vec<SimClient<W::Engine>>,

    /// Shadow backup replicas (replay position + engine) per partition,
    /// consuming the shipped commit records. A slot is `None` between a
    /// kill and the node's rejoin.
    replicas: Option<Vec<Option<(ReplicaCore, W::Engine)>>>,
    /// Counters of nodes retired by a failover, plus rejoin counters.
    retired: NodeStats,

    /// After the measurement window the simulation *drains*: clients stop
    /// issuing new requests and all in-flight transactions complete, so
    /// final primary and shadow states are comparable.
    draining: bool,

    /// Crash harness: freeze the event loop once the k-th commit record
    /// (globally) is appended.
    crash_at_append: Option<u64>,
    crashed: bool,
    /// Committed results actually released to clients (crash harness only).
    acked: Vec<TxnId>,

    // Metrics.
    window_start: Nanos,
    window_end: Nanos,
    committed: u64,
    committed_mp: u64,
    user_aborts: u64,
    retries: u64,
    latency: LatencyHistogram,
    events: u64,
}

impl<W: RequestGenerator> Simulation<W>
where
    W::Engine: Send + 'static,
    <W::Engine as ExecutionEngine>::Fragment: Send,
    <W::Engine as ExecutionEngine>::Output: Send,
{
    /// Build a simulation: `build_engine` constructs each partition's
    /// loaded engine (and the shadow copy when enabled).
    pub fn new(
        cfg: SimConfig,
        workload: W,
        build_engine: impl Fn(PartitionId) -> W::Engine,
    ) -> Self {
        // Loud startup validation (ISSUE 10): incompatible knob
        // combinations must fail here, not half-work silently.
        if let Err(e) = cfg.system.validate() {
            panic!("invalid SystemConfig: {e}");
        }
        let n = cfg.system.partitions as usize;
        // Records are shipped to the shadow replica and, with replication
        // on, to the modelled backups that ack them.
        let ship = cfg.shadow_replica || cfg.system.replication > 1;
        let nodes: Vec<_> = (0..n)
            .map(|p| {
                let p = PartitionId(p as u32);
                PartitionNode::new(&cfg.system, p, build_engine(p), ship)
            })
            .collect();
        let replicas = cfg.shadow_replica.then(|| {
            (0..n)
                .map(|p| Some((ReplicaCore::new(), build_engine(PartitionId(p as u32)))))
                .collect()
        });
        if let Some(f) = cfg.failover {
            assert!(
                cfg.shadow_replica && f.partition.as_usize() < n,
                "failover requires a replica to promote"
            );
        }
        // `with_partition_failure` models an unreplicated crash whose
        // stalled transactions are finally aborted (RemoteAbort); with
        // sharded coordinators the same expiry path must instead issue
        // retryable CrossCoordinator aborts for cross-shard waiters. The
        // two semantics cannot share one timeout, so the combination is
        // rejected rather than silently mis-aborting healthy waiters.
        assert!(
            cfg.coordinator_timeout.is_none() || cfg.system.coordinators <= 1,
            "partition-failure injection (coordinator_timeout) is a single-coordinator scenario"
        );
        let durable = cfg.system.durability.is_some();
        let clients = (0..cfg.system.clients)
            .map(|c| {
                let mut driver = TxnDriver::new(cfg.system.costs, ClientId(c));
                // Client-driven 2PC holds a committed result until every
                // participant acks its durably logged decision.
                driver.set_hold_results(durable);
                SimClient {
                    core: ClientCore::with_retry(ClientId(c), cfg.system.retry),
                    pending: None,
                    driver,
                    current_txn: None,
                    current_is_mp: false,
                    submitted_at: Nanos::ZERO,
                    busy: Nanos::ZERO,
                }
            })
            .collect();
        let window_start = cfg.warmup;
        let window_end = cfg.warmup + cfg.measure;
        let shards = cfg.system.coordinators.max(1) as usize;
        // In-doubt commit tracking (decision acks + redelivery) only
        // matters when a failover can strand a decision; keeping it off
        // otherwise keeps the no-failure event stream (and the golden
        // determinism values) untouched.
        let track_in_doubt = cfg.failover.is_some();
        let coords = (0..shards)
            .map(|k| {
                CoordinatorNode::new(
                    &cfg.system,
                    CoordinatorId(k as u32),
                    track_in_doubt,
                    cfg.coordinator_timeout,
                )
            })
            .collect();
        Simulation {
            coords,
            seq_armed: vec![None; shards],
            coord_busy: vec![Nanos::ZERO; shards],
            coord_busy_in_window: vec![0; shards],
            membership: MembershipCore::new(),
            node_out: Vec::new(),
            coord_out: Vec::new(),
            batch_pool: Vec::new(),
            cfg,
            workload,
            queue: BinaryHeap::new(),
            seq: 0,
            now: Nanos::ZERO,
            nodes,
            part_busy: vec![Nanos::ZERO; n],
            part_busy_in_window: vec![0; n],
            tick_pending: vec![false; n],
            log_tick_at: vec![None; n],
            clients,
            replicas,
            retired: NodeStats::default(),
            draining: false,
            crash_at_append: None,
            crashed: false,
            acked: Vec::new(),
            window_start,
            window_end,
            committed: 0,
            committed_mp: 0,
            user_aborts: 0,
            retries: 0,
            latency: LatencyHistogram::default(),
            events: 0,
        }
    }

    fn push(&mut self, at: Nanos, ev: Ev<W::Engine>) {
        self.seq += 1;
        self.queue.push(HeapItem {
            at,
            seq: self.seq,
            ev,
        });
    }

    fn one_way(&self) -> Nanos {
        self.cfg.system.network.one_way
    }

    /// Account busy time clipped to the measurement window.
    fn window_overlap(&self, start: Nanos, end: Nanos) -> u64 {
        let s = start.max(self.window_start);
        let e = end.min(self.window_end);
        e.0.saturating_sub(s.0)
    }

    /// Dispatch a request for client `c` at local time `at`.
    fn dispatch(&mut self, c: usize, at: Nanos) {
        let pending = self.clients[c].pending.as_ref().expect("pending request");
        let req = pending.to_request();
        let txn = self.clients[c].core.next_txn_id();
        self.clients[c].current_txn = Some(txn);
        let one_way = self.one_way();
        let client_id = ClientId(c as u32);
        match req {
            Request::SinglePartition {
                partition,
                fragment,
                can_abort,
            } => {
                self.clients[c].current_is_mp = false;
                let task = FragmentTask {
                    txn,
                    coordinator: CoordinatorRef::Client(client_id),
                    client: client_id,
                    fragment,
                    multi_partition: false,
                    last_fragment: true,
                    round: 0,
                    can_abort,
                };
                self.push(
                    at + one_way,
                    Ev::ToPartition {
                        p: partition,
                        msg: PartitionIn::Fragment(task),
                    },
                );
            }
            Request::MultiPartition {
                procedure,
                can_abort,
            } => {
                self.clients[c].current_is_mp = true;
                // Client-coordinated 2PC is the locking scheme's protocol
                // (§4.3) — but under adaptive selection a partition's
                // scheme can change between rounds, so every MP
                // transaction routes through the central coordinator,
                // which is scheme-agnostic.
                let client_2pc =
                    self.cfg.system.scheme == Scheme::Locking && !self.cfg.system.adaptive.is_on();
                match client_2pc {
                    true => {
                        // Client-coordinated 2PC (§4.3).
                        debug_assert!(self.coord_out.is_empty());
                        let mut out = std::mem::take(&mut self.coord_out);
                        self.clients[c]
                            .driver
                            .begin(txn, procedure, can_abort, &mut out);
                        self.coord_out = out;
                        let cpu = self.clients[c].driver.take_cpu();
                        let start = at.max(self.clients[c].busy);
                        self.clients[c].busy = start + cpu;
                        let depart = self.clients[c].busy;
                        self.route_coord_out(depart, Some(c));
                    }
                    _ => {
                        let k = self.cfg.system.coordinator_of(client_id);
                        self.push(
                            at + one_way,
                            Ev::ToCoordinator {
                                k,
                                msg: CoordIn::Invoke {
                                    txn,
                                    client: client_id,
                                    procedure,
                                    can_abort,
                                },
                            },
                        );
                    }
                }
            }
        }
    }

    /// Route the coordinator (or client-driver) outputs accumulated in
    /// `self.coord_out`. `from_client` is the index of the driving client
    /// for locking-mode self-results. Consecutive messages sharing an
    /// arrival time travel as one heap entry (see [`Ev::Batch`]).
    fn route_coord_out(&mut self, depart: Nanos, from_client: Option<usize>) {
        let one_way = self.one_way();
        let mut msgs = std::mem::take(&mut self.coord_out);
        let mut group: Vec<Ev<W::Engine>> = self.batch_pool.pop().unwrap_or_default();
        let mut group_at = Nanos::ZERO;
        for o in msgs.drain(..) {
            let (at, ev) = match o {
                CoordOut::Fragment(p, task) => (
                    depart + one_way,
                    Ev::ToPartition {
                        p,
                        msg: PartitionIn::Fragment(task),
                    },
                ),
                CoordOut::Decision(p, d, ack_to) => (
                    depart + one_way,
                    Ev::ToPartition {
                        p,
                        msg: PartitionIn::Decision(d, ack_to),
                    },
                ),
                CoordOut::ClientResult {
                    client,
                    txn,
                    result,
                } => {
                    // From the central coordinator this crosses the
                    // network; from a client's own driver it is local.
                    let delay = if from_client.is_some() {
                        Nanos::ZERO
                    } else {
                        one_way
                    };
                    (
                        depart + delay,
                        Ev::ToClient {
                            c: client,
                            msg: ClientIn::Result { txn, result },
                        },
                    )
                }
                CoordOut::PeerNote(k, note) => (
                    depart + one_way,
                    Ev::ToCoordinator {
                        k,
                        msg: CoordIn::PeerNote(note),
                    },
                ),
                CoordOut::EpochLog(dest, log) => match dest {
                    EpochLogDest::Partition(p) => (
                        depart + one_way,
                        Ev::ToPartition {
                            p,
                            msg: PartitionIn::EpochLog(log),
                        },
                    ),
                    EpochLogDest::Shard(k) => (
                        depart + one_way,
                        Ev::ToCoordinator {
                            k,
                            msg: CoordIn::EpochLog(log),
                        },
                    ),
                },
            };
            if at != group_at && !group.is_empty() {
                self.flush_group(group_at, &mut group);
            }
            group_at = at;
            group.push(ev);
        }
        if !group.is_empty() {
            self.flush_group(group_at, &mut group);
        }
        self.batch_pool.push(group);
        self.coord_out = msgs;
    }

    /// Push a group of same-arrival events: single events go straight to
    /// the heap, bursts go as one [`Ev::Batch`]. `group` is left empty
    /// (its storage recycled through the batch pool for bursts).
    fn flush_group(&mut self, at: Nanos, group: &mut Vec<Ev<W::Engine>>) {
        if group.len() == 1 {
            let ev = group.pop().expect("non-empty group");
            self.push(at, ev);
        } else {
            let burst = std::mem::replace(group, self.batch_pool.pop().unwrap_or_default());
            self.push(at, Ev::Batch(burst));
        }
    }

    /// Deliver `msg` to partition `p`'s node and route what it emits.
    fn handle_partition(
        &mut self,
        p: PartitionId,
        msg: PartitionIn<<W::Engine as ExecutionEngine>::Fragment>,
        at: Nanos,
    ) {
        // A crashed partition drops everything on the floor.
        if let Some((when, failed)) = self.cfg.fail_partition {
            if p == failed && at >= when {
                return;
            }
        }
        let pi = p.as_usize();
        let start = at.max(self.part_busy[pi]);
        let mut out = std::mem::take(&mut self.node_out);
        let cpu = self.nodes[pi].step(msg, start, &mut out);
        self.route_node_out(pi, start, cpu, &mut out);
        self.node_out = out;
    }

    /// Charge a node step's CPU to the partition's busy clock and route its
    /// outputs: messages depart when the step ends and arrive `one_way`
    /// later as one heap entry; shipped records feed the shadow replica
    /// and are acked by the modelled backups one round trip later; a sync
    /// completes `sync_latency` later. Then arm the node's timers.
    fn route_node_out(
        &mut self,
        pi: usize,
        start: Nanos,
        cpu: Nanos,
        out: &mut Vec<
            NodeOut<
                <W::Engine as ExecutionEngine>::Fragment,
                <W::Engine as ExecutionEngine>::Output,
            >,
        >,
    ) {
        let p = PartitionId(pi as u32);
        let end = start + cpu;
        self.part_busy[pi] = end;
        self.part_busy_in_window[pi] += self.window_overlap(start, end);
        let one_way = self.one_way();
        let mut group: Vec<Ev<W::Engine>> = self.batch_pool.pop().unwrap_or_default();
        for o in out.drain(..) {
            let ev = match o {
                NodeOut::ToClient {
                    client,
                    txn,
                    result,
                } => Ev::ToClient {
                    c: client,
                    msg: ClientIn::Result { txn, result },
                },
                NodeOut::ToCoordinator { dest, response } => match dest {
                    CoordinatorRef::Central(k) => Ev::ToCoordinator {
                        k,
                        msg: CoordIn::Response(response),
                    },
                    CoordinatorRef::Client(c) => Ev::ToClient {
                        c,
                        msg: ClientIn::FragResponse(response),
                    },
                },
                NodeOut::DecisionAck { dest, txn } => match dest {
                    CoordinatorRef::Central(k) => Ev::ToCoordinator {
                        k,
                        msg: CoordIn::DecisionAck { txn, partition: p },
                    },
                    CoordinatorRef::Client(c) => Ev::ToClient {
                        c,
                        msg: ClientIn::DecisionAck { txn, partition: p },
                    },
                },
                NodeOut::Ship(record) => {
                    // Shadow replay is instantaneous: the replica's cost
                    // is modelled as the backups' ack round trip.
                    if let Some((core, engine)) =
                        self.replicas.as_mut().and_then(|r| r[pi].as_mut())
                    {
                        let _ = core.apply(engine, &record);
                    }
                    for slot in 1..self.cfg.system.replication {
                        self.push(
                            end + Nanos(2 * one_way.0),
                            Ev::ToPartition {
                                p,
                                msg: PartitionIn::CommitAck {
                                    slot,
                                    seq: record.seq,
                                },
                            },
                        );
                    }
                    continue;
                }
                NodeOut::Sync => {
                    let latency = self
                        .cfg
                        .system
                        .durability
                        .expect("durability on")
                        .sync_latency;
                    self.push(
                        end + latency,
                        Ev::ToPartition {
                            p,
                            msg: PartitionIn::SyncDone,
                        },
                    );
                    continue;
                }
            };
            group.push(ev);
        }
        if !group.is_empty() {
            self.flush_group(end + one_way, &mut group);
        }
        self.batch_pool.push(group);
        if !self.tick_pending[pi] {
            if let Some(delay) = self.nodes[pi].tick_after() {
                self.tick_pending[pi] = true;
                self.push(end + delay, Ev::Tick { p });
            }
        }
        // The log's next deadline can move earlier (a fresh batch's flush
        // after a stall check was armed), so a log tick is re-armed
        // whenever it is due sooner than the one queued.
        if let Some(due) = self.nodes[pi].log_deadline() {
            let due = due.max(end);
            if self.log_tick_at[pi].is_none_or(|t| due < t) {
                self.log_tick_at[pi] = Some(due);
                self.push(due, Ev::LogTick { p });
            }
        }
        if let Some(k) = self.crash_at_append {
            let appended: u64 = self
                .nodes
                .iter_mut()
                .filter_map(|n| n.log_mut().map(|l| l.appended()))
                .sum();
            // The whole partition group dies right after the k-th append:
            // only the durable logs survive.
            self.crashed |= appended >= k;
        }
    }

    fn handle_coordinator(
        &mut self,
        k: CoordinatorId,
        msg: CoordIn<
            <W::Engine as ExecutionEngine>::Fragment,
            <W::Engine as ExecutionEngine>::Output,
        >,
        at: Nanos,
    ) {
        let ki = k.as_usize();
        let start = at.max(self.coord_busy[ki]);
        let tick = matches!(msg, CoordIn::Tick);
        let mut out = std::mem::take(&mut self.coord_out);
        let cpu = self.coords[ki].step(msg, start, &mut out);
        self.coord_out = out;
        if tick {
            // Tick until the window closes, then once more per pending txn
            // during the drain (bounded, so the drain terminates).
            let timeout = self.coords[ki].expiry().expect("ticks only with expiry");
            if start < self.window_end || self.coords[ki].pending() > 0 {
                self.push(
                    start + Nanos(timeout.0 / 2).max(Nanos(1)),
                    Ev::ToCoordinator {
                        k,
                        msg: CoordIn::Tick,
                    },
                );
            }
        }
        self.finish_coord_step(ki, start, cpu);
    }

    /// Charge a coordinator step, arm the shard's epoch age timer, and
    /// route its outputs.
    fn finish_coord_step(&mut self, ki: usize, start: Nanos, cpu: Nanos) {
        let end = start + cpu;
        self.coord_busy[ki] = end;
        self.coord_busy_in_window[ki] += self.window_overlap(start, end);
        // One-shot age timer, armed when an epoch's buffer becomes
        // non-empty.
        if let Some((era, epoch, since)) = self.coords[ki].open_epoch() {
            if self.seq_armed[ki] != Some((era, epoch)) {
                self.seq_armed[ki] = Some((era, epoch));
                let delay = self.cfg.system.sequencing.max_delay();
                self.push(
                    since + delay,
                    Ev::EpochClose {
                        k: CoordinatorId(ki as u32),
                    },
                );
            }
        }
        self.route_coord_out(end, None);
    }

    /// Age-boundary close for shard `k`; the recorded (era, epoch) disarms
    /// the timer if that epoch already closed for another reason.
    fn handle_epoch_close(&mut self, k: CoordinatorId, at: Nanos) {
        let ki = k.as_usize();
        let armed = self.seq_armed[ki].take();
        match self.coords[ki].open_epoch() {
            Some((era, epoch, _)) if armed == Some((era, epoch)) => {}
            _ => return,
        }
        let start = at.max(self.coord_busy[ki]);
        let mut out = std::mem::take(&mut self.coord_out);
        let cpu = self.coords[ki].close_epoch(start, &mut out);
        self.coord_out = out;
        self.finish_coord_step(ki, start, cpu);
    }

    /// Run client `ci`'s transaction driver on one input and route what it
    /// emits (client-coordinated 2PC, §4.3).
    fn drive_client(
        &mut self,
        ci: usize,
        at: Nanos,
        f: impl FnOnce(
            &mut TxnDriver<
                <W::Engine as ExecutionEngine>::Fragment,
                <W::Engine as ExecutionEngine>::Output,
            >,
            &mut Vec<
                CoordOut<
                    <W::Engine as ExecutionEngine>::Fragment,
                    <W::Engine as ExecutionEngine>::Output,
                >,
            >,
        ),
    ) {
        let start = at.max(self.clients[ci].busy);
        debug_assert!(self.coord_out.is_empty());
        let mut out = std::mem::take(&mut self.coord_out);
        f(&mut self.clients[ci].driver, &mut out);
        self.coord_out = out;
        let cpu = self.clients[ci].driver.take_cpu();
        self.clients[ci].busy = start + cpu;
        let depart = self.clients[ci].busy;
        self.route_coord_out(depart, Some(ci));
    }

    fn handle_client(
        &mut self,
        c: ClientId,
        msg: ClientIn<<W::Engine as ExecutionEngine>::Output>,
        at: Nanos,
    ) {
        let ci = c.as_usize();
        match msg {
            ClientIn::Result { txn, result } => {
                debug_assert_eq!(self.clients[ci].current_txn, Some(txn), "stray result");
                if self.crash_at_append.is_some() && result.is_committed() {
                    self.acked.push(txn);
                }
                let in_window = at >= self.window_start && at < self.window_end;
                match self.clients[ci].core.on_result(&result) {
                    // Infrastructure aborts (CrossCoordinator,
                    // PartitionFailed, LogStalled) come back with a capped
                    // exponential backoff computed by `ClientCore`;
                    // scheduling aborts retry immediately (`after` = 0).
                    // Instant retries of cross-shard bounces livelock in
                    // virtual time — the jittered backoff breaks the
                    // lockstep.
                    NextAction::Retry { after } => {
                        if in_window {
                            self.retries += 1;
                        }
                        if !self.draining {
                            self.dispatch(ci, at + after);
                        }
                    }
                    NextAction::NewRequest => {
                        if in_window {
                            match &result {
                                TxnResult::Committed(_) => {
                                    self.committed += 1;
                                    if self.clients[ci].current_is_mp {
                                        self.committed_mp += 1;
                                    }
                                    self.latency
                                        .record(at.saturating_sub(self.clients[ci].submitted_at));
                                }
                                TxnResult::Aborted(_) => self.user_aborts += 1,
                            }
                        }
                        self.workload.on_result(c, txn, result.is_committed());
                        if !self.draining {
                            let req = self.workload.next_request(c);
                            self.clients[ci].pending = Some(PendingRequest::from_request(&req));
                            self.clients[ci].submitted_at = at;
                            self.dispatch(ci, at);
                        }
                    }
                }
            }
            ClientIn::FragResponse(r) => self.drive_client(ci, at, |d, out| d.on_response(r, out)),
            ClientIn::DecisionAck { txn, partition } => {
                self.drive_client(ci, at, |d, out| d.on_decision_ack(txn, partition, out))
            }
        }
    }

    /// Kill `p`'s primary: its node crashes (bouncing in-flight work with
    /// `PartitionFailed`), the shadow replica is promoted in place (the
    /// partition's address now answers to it), the coordinators hear of
    /// it from the control plane, and the dead node's §3.3 rejoin is
    /// scheduled.
    fn handle_kill(&mut self, p: PartitionId, at: Nanos) {
        let pi = p.as_usize();
        let one_way = self.one_way();
        let replicas = self.replicas.as_mut().expect("failover requires replicas");
        let (core, engine) = replicas[pi].take().expect("replica alive at kill");
        let mut out = std::mem::take(&mut self.node_out);
        self.nodes[pi].crash(at, &mut out);
        let promoted = PartitionNode::promote(
            &self.cfg.system,
            p,
            engine,
            core,
            1..self.cfg.system.replication,
        );
        let dead = std::mem::replace(&mut self.nodes[pi], promoted);
        self.retired.merge(&dead.stats(at));
        self.route_node_out(pi, at, Nanos::ZERO, &mut out);
        self.node_out = out;
        // The control plane decides the promotion and fans the
        // epoch-stamped update out to every coordinator shard.
        let up = self.membership.on_primary_failed(p);
        for ki in 0..self.coords.len() {
            self.push(
                at + one_way,
                Ev::ToCoordinator {
                    k: CoordinatorId(ki as u32),
                    msg: CoordIn::RoutingUpdate {
                        partition: p,
                        epoch: up.epoch,
                    },
                },
            );
        }
        let delay = self
            .cfg
            .failover
            .expect("kill implies failover")
            .rejoin_delay;
        self.push(at + delay, Ev::Rejoin { p });
    }

    /// The failed node rejoins: install a snapshot of the live primary's
    /// committed state at the current log position, then catch up from
    /// the log (§3.3) while the group keeps processing.
    fn handle_rejoin(&mut self, p: PartitionId, at: Nanos) {
        let pi = p.as_usize();
        let snapshot = self.nodes[pi].engine().snapshot();
        let mut core = ReplicaCore::new();
        core.reset_to(self.nodes[pi].shipped());
        core.counters.snapshots_served += 1;
        let replicas = self.replicas.as_mut().expect("failover requires replicas");
        debug_assert!(replicas[pi].is_none(), "rejoin of a live replica");
        replicas[pi] = Some((core, snapshot));
        self.retired.repl.recoveries += 1;
        self.retired.repl.recovered_at_ns = at.0;
    }

    fn dispatch_event(&mut self, ev: Ev<W::Engine>, at: Nanos) {
        self.events += 1;
        match ev {
            Ev::ToPartition { p, msg } => self.handle_partition(p, msg, at),
            Ev::ToCoordinator { k, msg } => self.handle_coordinator(k, msg, at),
            Ev::ToClient { c, msg } => self.handle_client(c, msg, at),
            Ev::Tick { p } => {
                self.tick_pending[p.as_usize()] = false;
                self.handle_partition(p, PartitionIn::Tick, at);
            }
            Ev::LogTick { p } => {
                // Only the latest armed log tick is live.
                if self.log_tick_at[p.as_usize()] == Some(at) {
                    self.log_tick_at[p.as_usize()] = None;
                    self.handle_partition(p, PartitionIn::Tick, at);
                }
            }
            Ev::EpochClose { k } => self.handle_epoch_close(k, at),
            Ev::Kill { p } => self.handle_kill(p, at),
            Ev::Rejoin { p } => self.handle_rejoin(p, at),
            Ev::Batch(_) => unreachable!("batches are never nested"),
        }
    }

    /// Kick off the clients and drain the event queue — to completion, or
    /// until the crash harness freezes the group.
    fn event_loop(&mut self) {
        if self.coords[0].expiry().is_some() {
            for ki in 0..self.coords.len() {
                self.push(
                    Nanos(1),
                    Ev::ToCoordinator {
                        k: CoordinatorId(ki as u32),
                        msg: CoordIn::Tick,
                    },
                );
            }
        }
        if let Some(f) = self.cfg.failover {
            self.push(f.at, Ev::Kill { p: f.partition });
        }
        // Kick off every client at t = 0.
        for c in 0..self.clients.len() {
            let req = self.workload.next_request(ClientId(c as u32));
            self.clients[c].pending = Some(PendingRequest::from_request(&req));
            self.clients[c].submitted_at = Nanos::ZERO;
            self.dispatch(c, Nanos::ZERO);
        }

        let end = self.window_end;
        // Hard stop far beyond the window: if in-flight work has not
        // drained by then, something is livelocked (a bug tests should
        // catch, not hang on).
        let drain_deadline = Nanos(end.0 + end.0 + Nanos::from_secs(10).0);
        while let Some(item) = self.queue.pop() {
            if item.at >= end {
                self.draining = true;
            }
            if item.at >= drain_deadline {
                panic!("simulation failed to drain: event at {}", item.at);
            }
            self.now = item.at;
            match item.ev {
                Ev::Batch(mut evs) => {
                    for ev in evs.drain(..) {
                        if self.crashed {
                            break;
                        }
                        self.dispatch_event(ev, item.at);
                    }
                    evs.clear();
                    self.batch_pool.push(evs);
                }
                ev => self.dispatch_event(ev, item.at),
            }
            if self.crashed {
                // Crash-point harness: the whole group died mid-run. The
                // queue's undelivered events (including unreleased
                // results) die with it; only the durable logs survive.
                return;
            }
        }
    }

    /// Run to the end of the measurement window and report.
    pub fn run(mut self) -> (SimReport, W, Vec<W::Engine>, Option<Vec<W::Engine>>) {
        self.event_loop();
        if cfg!(debug_assertions) {
            for (p, node) in self.nodes.iter().enumerate() {
                // A crashed partition keeps whatever was in flight.
                let failed = matches!(self.cfg.fail_partition, Some((_, fp)) if fp.as_usize() == p);
                assert!(
                    failed || node.is_idle(),
                    "P{p} scheduler not idle after drain (counters: {:?})",
                    node.stats(self.now).sched
                );
            }
        }

        let mut stats = self.retired.clone();
        for node in &self.nodes {
            stats.merge(&node.stats(self.now));
        }
        let replicas = self.replicas.map(|groups| {
            groups
                .into_iter()
                .map(|slot| {
                    let (core, engine) = slot.expect("replica alive at end of run");
                    stats.repl.merge(&core.counters);
                    engine
                })
                .collect::<Vec<_>>()
        });
        let window = self.cfg.measure.as_secs_f64();
        let n = self.nodes.len() as f64;
        let mut coord = CoordCounters::default();
        for c in &self.coords {
            coord.merge(c.counters());
            stats.seq.merge(&c.seq_stats());
        }
        let shards = self.coords.len() as f64;
        let (mut backoff_retries, mut retry_exhausted) = (0u64, 0u64);
        for c in &self.clients {
            backoff_retries += c.core.stats.backoff_retries;
            retry_exhausted += c.core.stats.retry_exhausted;
        }
        let report = SimReport {
            committed: self.committed,
            user_aborts: self.user_aborts,
            retries: self.retries,
            backoff_retries,
            retry_exhausted,
            durability: stats.dur,
            committed_mp: self.committed_mp,
            throughput_tps: self.committed as f64 / window,
            latency: self.latency,
            sched: stats.sched,
            coord,
            replication: stats.repl,
            sequencer: stats.seq,
            adaptive: stats.adaptive,
            simulated: self.window_end,
            events_processed: self.events,
            partition_utilization: self
                .part_busy_in_window
                .iter()
                .map(|&b| b as f64 / self.cfg.measure.0 as f64)
                .sum::<f64>()
                / n,
            coordinator_utilization: self
                .coord_busy_in_window
                .iter()
                .map(|&b| b as f64 / self.cfg.measure.0 as f64)
                .sum::<f64>()
                / shards,
        };
        let engines = self
            .nodes
            .into_iter()
            .map(PartitionNode::into_engine)
            .collect();
        (report, self.workload, engines, replicas)
    }

    /// Inject a fault into partition `p`'s durable log (durability runs
    /// only): torn tail, stalled syncs, or failing appends.
    pub fn set_log_fault(&mut self, p: PartitionId, fault: FaultMode) {
        self.nodes[p.as_usize()]
            .log_mut()
            .expect("durability is on")
            .fault = fault;
    }

    /// Crash-point harness: run normally until the `crash_at`-th commit
    /// record (counted globally across partitions) is appended, then kill
    /// the whole partition group on the spot — the event loop freezes,
    /// every in-flight message (including unreleased results) is lost,
    /// and only the durable logs survive. Returns what a recovery (and
    /// its oracle) needs: the per-partition crash images, the durable
    /// watermarks, the full pre-crash commit history, and the set of
    /// results that were actually released to clients.
    ///
    /// Deterministic: the same config and seed crash at the same state
    /// for every `crash_at`, so a sweep over k = 1..N exercises every
    /// commit boundary.
    pub fn run_to_crash(mut self, crash_at: u64) -> CrashHarvest<W::Engine> {
        assert!(
            self.cfg.system.durability.is_some(),
            "run_to_crash requires SystemConfig::durability"
        );
        self.crash_at_append = Some(crash_at);
        self.event_loop();
        let mut harvest = CrashHarvest {
            crashed: self.crashed,
            images: Vec::new(),
            durable: Vec::new(),
            history: Vec::new(),
            acked: std::mem::take(&mut self.acked),
            appended: 0,
        };
        for node in &mut self.nodes {
            let log = node.log_mut().expect("asserted above");
            harvest.images.push(log.crash_image());
            harvest.durable.push(log.durable());
            harvest.appended += log.appended();
            let (frames, _) = decode_frames(&log.full_image());
            harvest.history.push(
                frames
                    .iter()
                    .map(|f| decode_exact(f).expect("appended records decode"))
                    .collect(),
            );
        }
        harvest
    }
}

/// What survives a whole-group crash at a commit index (see
/// [`Simulation::run_to_crash`]).
pub struct CrashHarvest<E: ExecutionEngine> {
    /// Whether the crash point was actually reached (false: the run
    /// drained with fewer than `crash_at` commit records).
    pub crashed: bool,
    /// Per partition: the log image recovery reads — the durable prefix,
    /// plus (with the torn-tail fault) a half-written trailing frame.
    pub images: Vec<Vec<u8>>,
    /// Per partition: records durable at the crash point.
    pub durable: Vec<u64>,
    /// Per partition: every commit record appended pre-crash, in order
    /// (the oracle's reference for what each durable prefix replays to).
    pub history: Vec<Vec<CommitRecord<E::Fragment>>>,
    /// Transactions whose committed results were released to clients
    /// pre-crash. Recovery must preserve every one of them.
    pub acked: Vec<TxnId>,
    /// Total commit records appended across partitions when the sim froze.
    pub appended: u64,
}

/// Convenience: run a microbenchmark- or TPC-C-style workload where the
/// workload itself knows how to build engines.
pub fn run_with<W, B>(cfg: SimConfig, workload: W, build: B) -> SimReport
where
    W: RequestGenerator,
    W::Engine: Send + 'static,
    <W::Engine as ExecutionEngine>::Fragment: Send,
    <W::Engine as ExecutionEngine>::Output: Send,
    B: Fn(PartitionId) -> W::Engine,
{
    Simulation::new(cfg, workload, build).run().0
}
