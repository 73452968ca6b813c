//! Worker-pool behaviour of the runtime: partition affinity,
//! condvar parking (no busy-spin), pool-size resolution, and a worker
//! panic failing the run.
//!
//! These tests read the per-worker reactor counters
//! ([`hcc_runtime::WorkerStats`]) that a multiplexed run reports:
//!
//! * **No busy-spin** — every scheduling iteration either steps at least
//!   one message or parks on the worker's condvar, so
//!   `loops <= steps + parks + slack` per worker. A worker that polls
//!   an empty queue in a loop (the pre-PR quiescence-tick behaviour)
//!   blows this bound by orders of magnitude.
//! * **Partition affinity** — replica groups pin to `group % workers`;
//!   a group's scheduler, engine, and group-commit sequencer only ever
//!   run on that home worker, which is observable as `pinned_steps == 0`
//!   on every non-home worker.

use hcc_common::{ClientId, Scheme, SystemConfig};
use hcc_core::{Request, RequestGenerator};
use hcc_runtime::{run, BackendChoice, RuntimeConfig};
use hcc_workloads::micro::{MicroConfig, MicroEngine, MicroFragment, MicroOutput, MicroWorkload};
use std::time::Duration;

fn micro(clients: u32) -> MicroConfig {
    MicroConfig {
        partitions: 2,
        clients,
        mp_fraction: 0.25,
        abort_prob: 0.05,
        seed: 0x7007,
        ..Default::default()
    }
}

fn run_pool(cfg: RuntimeConfig) -> hcc_runtime::RuntimeReport<MicroEngine> {
    let mc = micro(cfg.system.clients);
    let builder = MicroWorkload::new(mc);
    run(cfg, MicroWorkload::new(mc), move |p| {
        builder.build_engine(p)
    })
}

/// Idle soak: a pool much wider than the offered load must park its
/// surplus workers rather than spin them. Replication is on so the
/// client-backoff tick source is armed — the pre-PR reactor would flood
/// ticks (and burn every idle worker) here regardless of whether any
/// client was actually backing off.
#[test]
fn idle_workers_park_instead_of_spinning() {
    let workers = 8usize;
    let mut system = SystemConfig::new(Scheme::Speculative)
        .with_partitions(2)
        .with_clients(4)
        .with_seed(0x7007);
    system.replication = 2;
    let cfg = RuntimeConfig::quick(system, BackendChoice::Multiplexed { workers })
        .with_window(Duration::from_millis(50), Duration::from_millis(400));
    let r = run_pool(cfg);

    assert!(r.committed > 0, "soak did no work");
    assert_eq!(r.workers.len(), workers, "one stats block per worker");
    let total_parks: u64 = r.workers.iter().map(|w| w.parks).sum();
    assert!(
        total_parks > 0,
        "an 8-worker pool driving 4 clients never parked once"
    );
    for (i, w) in r.workers.iter().enumerate() {
        // Each iteration either steps >=1 message or parks; the slack
        // covers startup, the shutdown pass, and spurious wakes that
        // immediately re-park (each of those also counts a park).
        assert!(
            w.loops <= w.steps + w.parks + 16,
            "worker {i} busy-spun: {} loops for {} steps + {} parks",
            w.loops,
            w.steps,
            w.parks
        );
    }
}

/// Partition affinity: with 2 replica groups on a 4-worker pool, groups
/// home on workers 0 and 1 (`group % workers`) — no other worker may ever
/// step a replica actor, while stealable client/coordinator work keeps
/// the rest of the pool useful.
#[test]
fn partition_work_stays_on_home_workers() {
    let workers = 4usize;
    let system = SystemConfig::new(Scheme::Speculative)
        .with_partitions(2)
        .with_clients(8)
        .with_seed(0x7007);
    let cfg = RuntimeConfig::fixed_work(system, BackendChoice::Multiplexed { workers }, 40);
    let r = run_pool(cfg);

    assert_eq!(r.workers.len(), workers);
    for group in 0..2usize {
        assert!(
            r.workers[group].pinned_steps > 0,
            "group {group}'s home worker never stepped its replicas"
        );
    }
    for (i, w) in r.workers.iter().enumerate().skip(2) {
        assert_eq!(
            w.pinned_steps, 0,
            "worker {i} stepped a partition-pinned actor it does not own \
             (affinity violation: engine state migrated off its home core)"
        );
    }
}

/// Pool-size resolution: an explicit worker count on the backend choice
/// is the pool size; `workers == 0` sizes the pool to the host.
#[test]
fn pool_size_resolution_precedence() {
    let base = SystemConfig::new(Scheme::Blocking)
        .with_partitions(2)
        .with_clients(4)
        .with_seed(0x7007);

    let cfg =
        RuntimeConfig::fixed_work(base.clone(), BackendChoice::Multiplexed { workers: 2 }, 10);
    let r = run_pool(cfg);
    assert_eq!(r.workers.len(), 2, "an explicit count is the pool size");

    let cfg = RuntimeConfig::fixed_work(base, BackendChoice::multiplexed(), 10);
    let r = run_pool(cfg);
    assert!(!r.workers.is_empty(), "auto must give a non-empty pool");
}

/// A microbenchmark generator that panics after `limit` requests.
struct GivesUp {
    inner: MicroWorkload,
    limit: u32,
}

impl RequestGenerator for GivesUp {
    type Engine = MicroEngine;

    fn next_request(&mut self, client: ClientId) -> Request<MicroFragment, MicroOutput> {
        assert!(self.limit > 0, "the generator gave up");
        self.limit -= 1;
        self.inner.next_request(client)
    }
}

/// A panic inside an actor step (here the client's call into the
/// generator) fails the run with that panic. The dead worker leaves its
/// actor scheduled forever, so the driver must not keep waiting for it.
#[test]
#[should_panic(expected = "the generator gave up")]
fn a_panicking_actor_fails_the_run_instead_of_hanging() {
    let system = SystemConfig::new(Scheme::Speculative)
        .with_partitions(2)
        .with_clients(4)
        .with_seed(0x7007);
    let cfg = RuntimeConfig::fixed_work(system, BackendChoice::Multiplexed { workers: 2 }, 40);
    let mc = micro(4);
    let builder = MicroWorkload::new(mc);
    let workload = GivesUp {
        inner: MicroWorkload::new(mc),
        limit: 20,
    };
    run(cfg, workload, move |p| builder.build_engine(p));
}
