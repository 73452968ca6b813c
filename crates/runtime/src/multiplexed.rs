//! The runtime's driver: every actor on a configurable worker pool with
//! partition affinity.
//!
//! A hand-rolled reactor, because the build is offline (no tokio): each
//! actor owns a mailbox (`Mutex<VecDeque>` + a `scheduled` bit) and the
//! indices of actors with undelivered mail circulate through per-worker
//! run queues. Workers pop an index, drain that mailbox, step the actor,
//! and route its outputs — the classic epoll/ready-list shape, with the
//! mailbox bit playing the role of edge-triggered readiness (an actor is
//! enqueued exactly once per busy period, never concurrently stepped).
//!
//! # Placement
//!
//! Every actor has a *home worker*. Replica actors are **pinned**: a
//! whole group (primary + backups) homes on `group % workers`, its ready
//! tokens go only to that worker's private pinned queue, and only that
//! worker ever pops them — so a partition's scheduler, engine, and
//! group-commit sequencer run on one core for the life of the run (cache
//! residency for the hot single-partition path, and no cross-core
//! migration of engine state). Clients, coordinator shards, and the
//! membership actor are **stealable**: their tokens go to their home
//! worker's shared queue, but any worker whose own queues are empty may
//! steal them, keeping the pool busy when client load is skewed.
//!
//! # Parking
//!
//! An idle worker *parks* on a condvar instead of spinning: it raises its
//! `parked` flag, re-checks every queue it may pop from (the Dekker-style
//! re-check that closes the sleep/wake race), and only then waits. A
//! sender wakes the home worker for pinned work, or the home-else-any
//! parked worker for stealable work. Client backoff ticks are gated on
//! [`RunControl::backoff_waiters`], so a quiescent system delivers no
//! messages at all and every worker stays parked — the no-busy-spin
//! invariant `loops ≤ steps + parks (+ startup slack)` that the idle soak
//! test asserts.
//!
//! Per-actor cost is two mutex hops per message instead of a parked
//! thread per actor, so thread count and stack memory stay flat as
//! clients grow. Mailbox FIFO order per link preserves the delivery
//! guarantee the speculation protocol needs.
//!
//! Replica groups occupy `replication` slab slots per partition; the
//! logical [`ActorId::Partition`] address resolves through a membership
//! table of atomics, flipped by the coordinator's [`ActorId::Control`]
//! message on failover (inside the sender's routing pass, so the
//! promotion is in the new primary's mailbox before any redirected
//! traffic).
//!
//! Quiescence (shutdown without losing in-flight decisions) uses a global
//! undelivered-message count: a worker decrements it only *after* routing
//! the outputs of the message it consumed, so `live_clients == 0 &&
//! pending == 0` proves the run has fully drained — including a
//! kill → promote → recover chain, which is itself just messages. The
//! count stays a *single* padded atomic on purpose: sharding it would
//! admit transient zero reads and a false quiescence.
//!
//! While it waits for quiescence the driver also watches the worker
//! threads. A worker exits only on shutdown, so one that finished earlier
//! died in a panicking actor step, and that actor stays scheduled with
//! its mail undelivered; the driver stops the run and re-raises the
//! worker's panic rather than wait for a drain that cannot come.

use crate::actors::{
    ActorId, ClientActor, ClientCtx, CoordinatorActor, MembershipActor, Msg, OutMsg, ReplicaActor,
    ReplicaParts, RunControl,
};
use crate::{BackendChoice, RunMode, RuntimeConfig, RuntimeReport, WorkerStats};
use hcc_common::stats::SequencerStats;
use hcc_common::{CachePadded, ClientId, CoordinatorId, Nanos, PartitionId, Scheme};
use hcc_core::client::ClientStats;
use hcc_core::{ExecutionEngine, NodeStats, RequestGenerator};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

struct Mailbox<E: ExecutionEngine> {
    queue: VecDeque<Msg<E>>,
    /// True while the actor is in a run queue or being stepped; the
    /// single-enqueuer invariant that keeps an actor on one worker at a
    /// time.
    scheduled: bool,
}

enum AnyActor<W: RequestGenerator> {
    // Clients dominate the slab at scale; boxing them (and the now
    // role-carrying replicas) keeps every slot at the small variants'
    // size.
    Client(Box<ClientActor<W>>),
    Coordinator(Box<CoordinatorActor<W::Engine>>),
    Membership(Box<MembershipActor>),
    Replica(Box<ReplicaActor<W::Engine>>),
}

/// Condvar-based sleep/wake with a sticky token, so a wake that lands
/// before the sleeper reaches `wait` is never lost.
struct Parker {
    lock: std::sync::Mutex<bool>,
    cv: std::sync::Condvar,
}

impl Parker {
    fn new() -> Self {
        Parker {
            lock: std::sync::Mutex::new(false),
            cv: std::sync::Condvar::new(),
        }
    }

    fn wake(&self) {
        let mut token = self.lock.lock().expect("parker poisoned");
        *token = true;
        self.cv.notify_one();
    }

    fn park(&self) {
        let mut token = self.lock.lock().expect("parker poisoned");
        while !*token {
            token = self.cv.wait(token).expect("parker poisoned");
        }
        *token = false;
    }
}

/// One worker's scheduling state. Padded as a unit: a worker hammers its
/// own queues and flag; neighbours must not ride the same line.
struct WorkerState {
    /// Ready tokens for replica actors homed here. Only this worker pops.
    pinned: Mutex<VecDeque<usize>>,
    /// Ready tokens for stealable actors homed here. Any worker may pop.
    shared: Mutex<VecDeque<usize>>,
    /// Raised before the pre-park re-check; a waker that swaps it off
    /// owns the wake.
    parked: AtomicBool,
    parker: Parker,
    /// Flushed once by the worker thread as it exits.
    stats: Mutex<WorkerStats>,
}

impl WorkerState {
    fn new() -> Self {
        WorkerState {
            pinned: Mutex::new(VecDeque::new()),
            shared: Mutex::new(VecDeque::new()),
            parked: AtomicBool::new(false),
            parker: Parker::new(),
            stats: Mutex::new(WorkerStats::default()),
        }
    }
}

struct Shared<W: RequestGenerator> {
    actors: Vec<CachePadded<Mutex<AnyActor<W>>>>,
    mail: Vec<CachePadded<Mutex<Mailbox<W::Engine>>>>,
    workers: Vec<CachePadded<WorkerState>>,
    /// Messages sent but not yet fully processed (outputs routed). A
    /// single padded atomic — see the module docs on quiescence.
    pending: CachePadded<AtomicU64>,
    /// Set by the driver once `pending` hits zero; parked workers exit.
    shutdown: AtomicBool,
    ctl: RunControl,
    workload: Mutex<W>,
    epoch: Instant,
    /// Actor-index layout: clients, then the coordinator shards, then the
    /// membership actor, then replica groups (`replication` slots each,
    /// group-major).
    clients: usize,
    coordinators: usize,
    slots_per_group: usize,
    /// Current primary slot per group.
    membership: Vec<CachePadded<AtomicU32>>,
}

impl<W: RequestGenerator> Shared<W>
where
    W::Engine: Send + 'static,
    <W::Engine as ExecutionEngine>::Fragment: Send,
    <W::Engine as ExecutionEngine>::Output: Send,
{
    fn replica_base(&self) -> usize {
        self.clients + self.coordinators + 1
    }

    fn replica_index(&self, p: PartitionId, slot: usize) -> usize {
        self.replica_base() + p.as_usize() * self.slots_per_group + slot
    }

    fn index_of(&self, id: ActorId) -> usize {
        match id {
            ActorId::Client(c) => c.as_usize(),
            ActorId::Coordinator(k) => self.clients + k.as_usize(),
            ActorId::Membership => self.clients + self.coordinators,
            ActorId::Partition(p) => {
                let slot = self.membership[p.as_usize()].load(Ordering::Acquire) as usize;
                self.replica_index(p, slot)
            }
            ActorId::Replica(p, s) => self.replica_index(p, s as usize),
            ActorId::Control => unreachable!("control messages are handled in send()"),
        }
    }

    /// Home worker and pinned-ness of an actor index. Replica groups pin
    /// group-major so every slot of a group (primary and backups, across
    /// failovers) shares one home; everything else hashes round-robin and
    /// is stealable.
    fn placement(&self, idx: usize) -> (usize, bool) {
        let base = self.replica_base();
        if idx >= base {
            (
                ((idx - base) / self.slots_per_group) % self.workers.len(),
                true,
            )
        } else {
            (idx % self.workers.len(), false)
        }
    }

    /// Deliver one message: count it, enqueue it, and schedule the actor
    /// if nothing else already has. Control messages mutate the routing
    /// table in place instead of being delivered.
    fn send(&self, m: OutMsg<W::Engine>) {
        if m.dest == ActorId::Control {
            if let Msg::Promoted { partition, slot } = m.msg {
                self.membership[partition.as_usize()].store(slot, Ordering::Release);
            }
            return;
        }
        let idx = self.index_of(m.dest);
        self.pending.fetch_add(1, Ordering::SeqCst);
        let mut mb = self.mail[idx].lock();
        mb.queue.push_back(m.msg);
        if !mb.scheduled {
            mb.scheduled = true;
            drop(mb);
            self.schedule(idx);
        }
    }

    /// Publish a ready token to the actor's home queue and wake a worker
    /// that can pop it.
    fn schedule(&self, idx: usize) {
        let (home, pinned) = self.placement(idx);
        if pinned {
            self.workers[home].pinned.lock().push_back(idx);
            self.wake(home);
        } else {
            self.workers[home].shared.lock().push_back(idx);
            // Prefer the home worker (affinity), else hand the wake to
            // any parked worker — stealable work shouldn't wait behind a
            // busy home while siblings sleep.
            if !self.wake(home) {
                for w in 0..self.workers.len() {
                    if w != home && self.wake(w) {
                        break;
                    }
                }
            }
        }
    }

    /// Wake worker `w` if it is parked (or about to park). Returns true
    /// if this call owned the wake.
    fn wake(&self, w: usize) -> bool {
        let ws = &self.workers[w];
        if ws.parked.swap(false, Ordering::SeqCst) {
            ws.parker.wake();
            true
        } else {
            false
        }
    }

    /// Pop the next actor index worker `me` may run: own pinned, own
    /// shared, then steal from siblings' shared queues.
    fn next_ready(&self, me: usize, stats: &mut WorkerStats) -> Option<usize> {
        if let Some(idx) = self.workers[me].pinned.lock().pop_front() {
            return Some(idx);
        }
        if let Some(idx) = self.workers[me].shared.lock().pop_front() {
            return Some(idx);
        }
        let n = self.workers.len();
        for off in 1..n {
            let victim = (me + off) % n;
            if let Some(idx) = self.workers[victim].shared.lock().pop_front() {
                stats.steals += 1;
                return Some(idx);
            }
        }
        None
    }

    /// Step one actor for one message, routing its outputs.
    fn process(&self, idx: usize, msg: Msg<W::Engine>, out: &mut Vec<OutMsg<W::Engine>>) {
        let now = Nanos(self.epoch.elapsed().as_nanos() as u64);
        let mut actor = self.actors[idx].lock();
        match &mut *actor {
            AnyActor::Client(c) => {
                let ctx = ClientCtx {
                    workload: &self.workload,
                    ctl: &self.ctl,
                };
                c.step(msg, now, &ctx, out);
            }
            AnyActor::Coordinator(c) => c.step(msg, now, out),
            AnyActor::Membership(m) => m.step(msg, out),
            AnyActor::Replica(r) => r.step(msg, now, &self.ctl, out),
        }
    }

    /// Drain and step one scheduled actor, then unschedule or requeue it.
    fn run_actor(
        &self,
        idx: usize,
        batch: &mut Vec<Msg<W::Engine>>,
        out: &mut Vec<OutMsg<W::Engine>>,
        stats: &mut WorkerStats,
    ) {
        // Drain the mailbox snapshot, then step message by message. The
        // consumed message stays in `pending` until its outputs are
        // routed — that ordering is what makes `pending == 0` mean
        // "fully drained".
        debug_assert!(batch.is_empty());
        batch.extend(self.mail[idx].lock().queue.drain(..));
        let pinned = idx >= self.replica_base();
        for msg in batch.drain(..) {
            self.process(idx, msg, out);
            for m in out.drain(..) {
                self.send(m);
            }
            self.pending.fetch_sub(1, Ordering::SeqCst);
            stats.steps += 1;
            if pinned {
                stats.pinned_steps += 1;
            }
        }
        // Unschedule, or requeue if mail arrived while we were stepping
        // (requeued to the actor's *home*, preserving affinity; the
        // round-robin push_back keeps it fair).
        let mut mb = self.mail[idx].lock();
        if mb.queue.is_empty() {
            mb.scheduled = false;
        } else {
            drop(mb);
            self.schedule(idx);
        }
    }
}

fn worker_loop<W>(shared: &Shared<W>, me: usize)
where
    W: RequestGenerator,
    W::Engine: Send + 'static,
    <W::Engine as ExecutionEngine>::Fragment: Send,
    <W::Engine as ExecutionEngine>::Output: Send,
{
    let ws = &shared.workers[me];
    let mut out = Vec::new();
    let mut batch = Vec::new();
    let mut stats = WorkerStats::default();
    loop {
        stats.loops += 1;
        if let Some(idx) = shared.next_ready(me, &mut stats) {
            let busy = Instant::now();
            shared.run_actor(idx, &mut batch, &mut out, &mut stats);
            stats.busy_ns += busy.elapsed().as_nanos() as u64;
            continue;
        }
        // Nothing runnable: raise the parked flag *first*, then re-check
        // every queue. A sender either sees the flag (and wakes us) or
        // published its token before we re-checked (and we find it) —
        // never neither.
        ws.parked.store(true, Ordering::SeqCst);
        if let Some(idx) = shared.next_ready(me, &mut stats) {
            ws.parked.store(false, Ordering::SeqCst);
            let busy = Instant::now();
            shared.run_actor(idx, &mut batch, &mut out, &mut stats);
            stats.busy_ns += busy.elapsed().as_nanos() as u64;
            continue;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            ws.parked.store(false, Ordering::SeqCst);
            break;
        }
        stats.parks += 1;
        ws.parker.park();
        // Either a waker claimed our flag (it is already false) or the
        // shutdown broadcast left it raised; clear it and rescan.
        ws.parked.store(false, Ordering::SeqCst);
    }
    *ws.stats.lock() = stats;
}

/// Run a workload with every actor multiplexed onto the worker pool
/// `cfg.backend` names.
///
/// `build_engine` is called once per partition (plus once more per
/// partition for each backup when `system.replication > 1`).
pub fn run<W, B>(cfg: RuntimeConfig, workload: W, build_engine: B) -> RuntimeReport<W::Engine>
where
    W: RequestGenerator + Send + 'static,
    W::Engine: Send + 'static,
    <W::Engine as ExecutionEngine>::Fragment: Send + 'static,
    <W::Engine as ExecutionEngine>::Output: Send + 'static,
    B: Fn(PartitionId) -> W::Engine,
{
    let system = &cfg.system;
    if let Err(e) = system.validate() {
        panic!("invalid SystemConfig: {e}");
    }
    let BackendChoice::Multiplexed { workers } = cfg.backend;
    let workers = if workers > 0 {
        workers
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    };
    let n = system.partitions as usize;
    let slots = system.replication.max(1) as usize;
    let clients = system.clients as usize;
    if let Some(plan) = cfg.failure {
        assert!(
            system.replication >= 2,
            "failure injection needs a backup to fail over to"
        );
        assert!((plan.partition.as_usize()) < n && plan.after_commits >= 1);
    }
    let per_client = match cfg.mode {
        RunMode::FixedRequests(k) => Some(k),
        RunMode::Timed { .. } => None,
    };

    // Actor slab: clients, coordinator shards, membership, replica
    // groups.
    let mut actors: Vec<CachePadded<Mutex<AnyActor<W>>>> = Vec::new();
    for c in 0..clients {
        actors.push(CachePadded::new(Mutex::new(AnyActor::Client(Box::new(
            ClientActor::new(ClientId(c as u32), system, per_client),
        )))));
    }
    let shards = system.coordinators.max(1) as usize;
    let track_in_doubt = cfg.failure.is_some();
    let seq_on = system.sequencing_active();
    let mut tick_coords = false;
    for k in 0..shards {
        let coord: CoordinatorActor<W::Engine> =
            CoordinatorActor::new(system, CoordinatorId(k as u32), track_in_doubt);
        tick_coords |= coord.wants_ticks();
        actors.push(CachePadded::new(Mutex::new(AnyActor::Coordinator(
            Box::new(coord),
        ))));
    }
    actors.push(CachePadded::new(Mutex::new(AnyActor::Membership(
        Box::new(MembershipActor::new(system.coordinators)),
    ))));
    for p in 0..n {
        let group = PartitionId(p as u32);
        for s in 0..slots {
            let crash_after = cfg
                .failure
                .filter(|f| f.partition == group && s == 0)
                .map(|f| f.after_commits);
            actors.push(CachePadded::new(Mutex::new(AnyActor::Replica(Box::new(
                ReplicaActor::new(group, s as u32, system, build_engine(group), crash_after),
            )))));
        }
    }

    let total = actors.len();
    let shared = Arc::new(Shared {
        mail: (0..total)
            .map(|_| {
                CachePadded::new(Mutex::new(Mailbox {
                    queue: VecDeque::new(),
                    scheduled: false,
                }))
            })
            .collect(),
        actors,
        workers: (0..workers)
            .map(|_| CachePadded::new(WorkerState::new()))
            .collect(),
        pending: CachePadded::new(AtomicU64::new(0)),
        shutdown: AtomicBool::new(false),
        ctl: RunControl::new(clients),
        workload: Mutex::new(workload),
        epoch: Instant::now(),
        clients,
        coordinators: shards,
        slots_per_group: slots,
        membership: (0..n)
            .map(|_| CachePadded::new(AtomicU32::new(0)))
            .collect(),
    });

    // Worker pool.
    let mut handles = Vec::new();
    for me in 0..workers {
        let shared = shared.clone();
        handles.push(std::thread::spawn(move || worker_loop(&shared, me)));
    }

    // Tick timer: the locking scheme needs periodic lock-timeout scans
    // at each group's current primary, and sharded coordinators need
    // periodic stall expiry (cross-shard deadlock resolution). Runs
    // until every client has retired (after which no transaction can
    // be waiting on a lock or a cross-shard chain).
    let timer_stop = Arc::new(AtomicBool::new(false));
    // An adaptive partition can be (or become) Locking at any time, so
    // it needs the lock-timeout scans too.
    let tick_partitions =
        system.scheme == Scheme::Locking || system.adaptive.is_on() || system.durability.is_some();
    // Clients park during backoff retries (infrastructure aborts) and
    // need a wake-up tick; only configurations that can produce such
    // aborts pay for the ticking — and only while at least one client
    // is actually parked (`backoff_waiters`), so an idle system sends
    // nothing and the workers stay parked.
    let tick_clients = system.replication > 1 || shards > 1 || system.durability.is_some();
    let timer = (tick_partitions || tick_coords || tick_clients).then(|| {
        let shared = shared.clone();
        let stop = timer_stop.clone();
        let mut tick_nanos = system.lock_timeout.0 / 4;
        if let Some(d) = system.durability {
            // Group-commit flushes ride the same timer; tick at least
            // twice per interval so batch latency stays near the knob.
            tick_nanos = tick_nanos.min(d.group_commit_interval.0 / 2);
        }
        if seq_on {
            // Epoch age-closes fire at half the max delay so a lone
            // buffered invoke never waits much past its deadline.
            tick_nanos = tick_nanos.min(system.sequencing.max_delay().0 / 2);
        }
        let tick_every = Duration::from_nanos(tick_nanos).max(
            // Don't busy-spin on sub-microsecond timeouts.
            Duration::from_micros(100),
        );
        let parts = n;
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                std::thread::sleep(tick_every);
                if tick_partitions {
                    for p in 0..parts {
                        shared.send(OutMsg {
                            dest: ActorId::Partition(PartitionId(p as u32)),
                            msg: Msg::Tick,
                        });
                    }
                }
                if tick_coords {
                    for k in 0..shards {
                        shared.send(OutMsg {
                            dest: ActorId::Coordinator(CoordinatorId(k as u32)),
                            msg: Msg::Tick,
                        });
                    }
                }
                if tick_clients && shared.ctl.backoff_waiters() > 0 {
                    for c in 0..shared.clients {
                        shared.send(OutMsg {
                            dest: ActorId::Client(ClientId(c as u32)),
                            msg: Msg::Tick,
                        });
                    }
                }
            }
        })
    });

    // Kick every client.
    for c in 0..clients {
        shared.send(OutMsg {
            dest: ActorId::Client(ClientId(c as u32)),
            msg: Msg::Start,
        });
    }

    // Measurement protocol.
    let started = Instant::now();
    if let RunMode::Timed { warmup, measure } = cfg.mode {
        std::thread::sleep(warmup);
        shared.ctl.window_open.store(true, Ordering::SeqCst);
        std::thread::sleep(measure);
        shared.ctl.window_open.store(false, Ordering::SeqCst);
        shared.ctl.stop.store(true, Ordering::SeqCst);
    }
    // Clients finish their in-flight transactions and retire.
    wait_for(&shared, &timer_stop, &mut handles, || {
        shared.ctl.live_clients.load(Ordering::SeqCst) == 0
    });
    let elapsed = started.elapsed();
    // No transactions in flight: stop the tick source, then drain the
    // trailing decisions, commit records, and (after an injected
    // failure) the promote/recover chain — all of which the pending
    // count covers.
    timer_stop.store(true, Ordering::SeqCst);
    if let Some(t) = timer {
        t.join().expect("timer thread");
    }
    wait_for(&shared, &timer_stop, &mut handles, || {
        shared.pending.load(Ordering::SeqCst) == 0
    });
    if cfg.failure.is_some() {
        assert!(
            shared.ctl.recovery_done.load(Ordering::SeqCst),
            "injected failure never finished recovering — \
                 was the crash threshold reachable for this workload?"
        );
    }
    shared.shutdown.store(true, Ordering::SeqCst);
    for ws in &shared.workers {
        ws.parker.wake();
    }
    for h in handles {
        h.join().expect("worker thread");
    }

    // Harvest.
    let committed_in_window = shared.ctl.committed_in_window();
    let shared =
        Arc::try_unwrap(shared).unwrap_or_else(|_| unreachable!("all worker handles joined"));
    let worker_stats: Vec<WorkerStats> = shared.workers.iter().map(|ws| *ws.stats.lock()).collect();
    let mut clients_stats = ClientStats::default();
    let mut sequencer = SequencerStats::default();
    let mut parts: Vec<ReplicaParts<W::Engine>> = Vec::new();
    for slot in shared.actors {
        match slot.into_inner().into_inner() {
            AnyActor::Client(c) => clients_stats.merge(&c.into_stats()),
            AnyActor::Coordinator(c) => sequencer.merge(&c.seq_stats()),
            AnyActor::Membership(_) => {}
            AnyActor::Replica(r) => parts.push(r.into_parts()),
        }
    }
    let (engines, backups, mut stats, logs) = assemble_replicas(parts, n);
    stats.seq.merge(&sequencer);

    let (committed, secs) = match cfg.mode {
        RunMode::Timed { measure, .. } => (committed_in_window, measure.as_secs_f64()),
        RunMode::FixedRequests(_) => (clients_stats.committed, elapsed.as_secs_f64().max(1e-9)),
    };
    RuntimeReport {
        committed,
        throughput_tps: committed as f64 / secs,
        clients: clients_stats,
        sched: stats.sched,
        replication: stats.repl,
        engines,
        backups,
        durability: stats.dur,
        logs,
        workers: worker_stats,
        sequencer: stats.seq,
        adaptive: stats.adaptive,
    }
}

/// Sleep-poll until `done`. A worker exits only after shutdown, so one
/// that finished earlier died in a panicking actor step and left that
/// actor scheduled forever: stop the run and re-raise the worker's panic
/// instead of waiting on.
fn wait_for<W: RequestGenerator>(
    shared: &Shared<W>,
    timer_stop: &AtomicBool,
    handles: &mut Vec<JoinHandle<()>>,
    done: impl Fn() -> bool,
) {
    while !done() {
        if let Some(i) = handles.iter().position(JoinHandle::is_finished) {
            timer_stop.store(true, Ordering::SeqCst);
            shared.shutdown.store(true, Ordering::SeqCst);
            for ws in &shared.workers {
                ws.parker.wake();
            }
            if let Err(panic) = handles.swap_remove(i).join() {
                std::panic::resume_unwind(panic);
            }
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Sort the harvested replica nodes into the report shape: the primary
/// engine per group, the live backups in (group, slot) order, the merged
/// counters, and each group's durable log image.
fn assemble_replicas<E: ExecutionEngine>(
    mut parts: Vec<ReplicaParts<E>>,
    groups: usize,
) -> (Vec<E>, Vec<E>, NodeStats, Vec<Option<Vec<u8>>>) {
    parts.sort_by_key(|p| (p.group, p.slot));
    let mut stats = NodeStats::default();
    let mut engines: Vec<Option<E>> = (0..groups).map(|_| None).collect();
    let mut logs: Vec<Option<Vec<u8>>> = (0..groups).map(|_| None).collect();
    let mut backups = Vec::new();
    for part in parts {
        stats.merge(&part.stats);
        if part.is_primary {
            let slot = engines
                .get_mut(part.group.as_usize())
                .expect("group in range");
            debug_assert!(slot.is_none(), "two primaries in one group");
            *slot = part.engine;
            logs[part.group.as_usize()] = part.log_image;
        } else if part.is_backup {
            backups.extend(part.engine);
        }
        // Failed/recovering nodes that never finished rejoining (possible
        // only when a timed run is torn down mid-recovery) hold stale
        // state and are reported through the counters alone.
    }
    let engines = engines
        .into_iter()
        .map(|e| e.expect("every group has a primary"))
        .collect();
    (engines, backups, stats, logs)
}
