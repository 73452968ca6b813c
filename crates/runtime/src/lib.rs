//! The live runtime: the same concurrency control state machines as the
//! simulator, driven on real OS threads.
//!
//! The actor model mirrors the paper: one single-threaded execution engine
//! per partition (§2.3), one central coordinator (§3.3), closed-loop
//! clients (§5), and — when replication is enabled — one backup per
//! partition applying committed transactions in commit order (§3.2). The
//! protocol logic is not here: a partition primary is an
//! `hcc_core::PartitionNode` and a coordinator shard an
//! `hcc_core::CoordinatorNode`, the same nodes the simulator drives. The
//! [`actors`] are adapters that translate messages into node inputs, route
//! node outputs, complete log syncs inline, drop the modelled CPU charge
//! (live time is wall time) and inject the primary crash. The
//! [`multiplexed`] reactor gives them CPU: every actor on a small fixed
//! worker pool via per-actor mailboxes and ready queues (an epoll-style
//! reactor, hand-rolled — the build is offline). Memory and thread count
//! stay flat as clients grow, which is what lets a single host drive
//! thousands of closed-loop clients. The mailbox queues preserve per-link
//! FIFO order, the property the speculation protocol relies on.
//!
//! The runtime is the "it actually runs" build: examples and soak tests
//! use it, and the backup-equivalence, pool-size-equivalence and
//! serial-reference checks run against it. Calibrated performance curves
//! come from `hcc-sim`, whose virtual clock reproduces the paper's
//! hardware ratios; the runtime measures whatever the host delivers
//! (in-process message passing is ~100× faster than the paper's Ethernet,
//! so its multi-partition stalls are proportionally smaller).

// Associated-type generics make some signatures long; aliases would
// obscure more than they clarify here.
#![allow(clippy::type_complexity)]

pub mod actors;
pub mod multiplexed;

pub use multiplexed::run;

use hcc_common::stats::{
    AdaptiveStats, DurabilityCounters, LatencySummary, ReplicationCounters, SchedulerCounters,
    SequencerStats,
};
use hcc_common::{FailurePlan, SystemConfig};
use hcc_core::client::ClientStats;
use hcc_core::ExecutionEngine;
use std::time::Duration;

/// The worker pool that drives the actors. Every runtime entry point takes
/// one explicitly; it is the only place the pool size is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendChoice {
    /// All actors on a fixed pool of `workers` threads; `0` sizes the pool
    /// to the host's available parallelism.
    Multiplexed { workers: usize },
}

impl BackendChoice {
    /// The multiplexed backend with automatic pool sizing.
    pub const fn multiplexed() -> Self {
        BackendChoice::Multiplexed { workers: 0 }
    }

    /// Parse a CLI-style backend name (`multiplexed[:N]`, where a bare
    /// `multiplexed` or `:0` sizes the pool automatically). Rejects
    /// anything else with a message naming the bad input — a typo must not
    /// silently fall back to a default backend.
    pub fn parse(s: &str) -> Result<Self, String> {
        if s == "multiplexed" {
            return Ok(BackendChoice::multiplexed());
        }
        match s.strip_prefix("multiplexed:") {
            Some(n) => n
                .parse()
                .map(|workers| BackendChoice::Multiplexed { workers })
                .map_err(|_| {
                    format!("bad worker count {n:?} in backend {s:?} (expected multiplexed:N)")
                }),
            None => Err(format!(
                "unknown backend {s:?} (expected `multiplexed[:N]`)"
            )),
        }
    }
}

impl std::fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendChoice::Multiplexed { workers: 0 } => f.write_str("multiplexed"),
            BackendChoice::Multiplexed { workers } => write!(f, "multiplexed:{workers}"),
        }
    }
}

/// How long a run lasts.
#[derive(Debug, Clone, Copy)]
pub enum RunMode {
    /// Warm up, then measure for a fixed wall-clock window (throughput
    /// runs; the committed count and latency samples come from the
    /// window).
    Timed { warmup: Duration, measure: Duration },
    /// Every client drives exactly this many requests to a final outcome
    /// (commit or user abort; transparent retries don't count), then the
    /// run drains. Total work is a pure function of the workload seed, so
    /// on a commutative workload every pool size must reach the same
    /// committed state as a one-at-a-time serial replay of the requests.
    FixedRequests(u64),
}

/// Runtime configuration: the system under test, the worker pool that
/// drives it, the measurement protocol, and optional fault injection.
#[derive(Clone)]
pub struct RuntimeConfig {
    pub system: SystemConfig,
    pub backend: BackendChoice,
    pub mode: RunMode,
    /// Kill one group's primary at a deterministic point and drive the
    /// promote → recover protocol (requires `system.replication >= 2`).
    pub failure: Option<FailurePlan>,
}

impl RuntimeConfig {
    /// Standard timed run: 200 ms warm-up, 1 s measurement.
    pub fn new(system: SystemConfig, backend: BackendChoice) -> Self {
        RuntimeConfig {
            system,
            backend,
            mode: RunMode::Timed {
                warmup: Duration::from_millis(200),
                measure: Duration::from_secs(1),
            },
            failure: None,
        }
    }

    /// Short timed run for tests and smoke benches: 50 ms warm-up, 300 ms
    /// measurement.
    pub fn quick(system: SystemConfig, backend: BackendChoice) -> Self {
        RuntimeConfig::new(system, backend)
            .with_window(Duration::from_millis(50), Duration::from_millis(300))
    }

    /// Deterministic fixed-work run: `requests_per_client` final outcomes
    /// per client, then drain.
    pub fn fixed_work(
        system: SystemConfig,
        backend: BackendChoice,
        requests_per_client: u64,
    ) -> Self {
        assert!(requests_per_client > 0, "a fixed-work run needs work");
        RuntimeConfig {
            system,
            backend,
            mode: RunMode::FixedRequests(requests_per_client),
            failure: None,
        }
    }

    pub fn with_window(mut self, warmup: Duration, measure: Duration) -> Self {
        self.mode = RunMode::Timed { warmup, measure };
        self
    }

    /// Inject a primary crash (kill → promote → recover); see
    /// [`FailurePlan`].
    pub fn with_failure(mut self, plan: FailurePlan) -> Self {
        self.failure = Some(plan);
        self
    }
}

/// Per-worker reactor counters. `loops` counts scheduling iterations, `steps`
/// messages processed, `parks` condvar sleeps, `steals` tokens taken from
/// another worker's shared queue, and `busy_ns` wall time spent stepping
/// actors. The no-busy-spin invariant is `loops <= steps + parks + slack`:
/// every iteration either processes mail or goes to sleep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    pub loops: u64,
    pub steps: u64,
    /// Messages stepped on partition-pinned (replica) actors. Non-zero
    /// only on a group's home worker — the partition-affinity invariant.
    pub pinned_steps: u64,
    pub parks: u64,
    pub steals: u64,
    pub busy_ns: u64,
}

/// What a run produced.
pub struct RuntimeReport<E: ExecutionEngine> {
    /// Transactions committed inside the measurement window (timed mode)
    /// or in total (fixed-work mode).
    pub committed: u64,
    pub throughput_tps: f64,
    /// Per-client stats merged (whole run), including the end-to-end
    /// latency histogram of committed transactions.
    pub clients: ClientStats,
    /// Scheduler counters summed across partitions (whole run).
    pub sched: SchedulerCounters,
    /// Replication counters summed across all replica nodes. Healthy runs
    /// must report `replay_failures == 0`; failover runs report one
    /// promotion and one recovery plus the crash/recovery timestamps.
    pub replication: ReplicationCounters,
    /// Final primary engines per group (after a failover, the promoted
    /// backup's engine), for state inspection.
    pub engines: Vec<E>,
    /// Final live-backup engines (when replication was enabled), in
    /// (group, slot) order — after a recovery this includes the rejoined
    /// node.
    pub backups: Vec<E>,
    /// Durable-log counters summed across all logging primaries (all zero
    /// when `SystemConfig::durability` is off).
    pub durability: DurabilityCounters,
    /// Final framed command-log image per group after a clean shutdown
    /// sync (`None` per group when durability is off, or for a group whose
    /// run-ending primary never logged — e.g. torn down mid-failover).
    pub logs: Vec<Option<Vec<u8>>>,
    /// Per-worker reactor counters. Index = worker id; partitions pin to
    /// `group % workers.len()`.
    pub workers: Vec<WorkerStats>,
    /// Epoch-sequencing counters summed across coordinator shards and
    /// partition gates (all zero when `SystemConfig::sequencing` is off,
    /// except `cross_coord_aborts`, counted in any mode).
    pub sequencer: SequencerStats,
    /// Adaptive scheme-selection statistics summed across partitions (all
    /// zero/empty when `SystemConfig::adaptive` is off).
    pub adaptive: AdaptiveStats,
}

impl<E: ExecutionEngine> RuntimeReport<E> {
    /// p50/p99/p999 digest of committed-transaction latency.
    pub fn latency(&self) -> LatencySummary {
        self.clients.latency.summary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_common::{Nanos, Scheme};
    use hcc_workloads::micro::{MicroConfig, MicroEngine, MicroWorkload};

    /// A single worker (every actor interleaved on one thread) and a pool.
    const BACKENDS: [BackendChoice; 2] = [
        BackendChoice::Multiplexed { workers: 1 },
        BackendChoice::Multiplexed { workers: 4 },
    ];

    fn quick(scheme: Scheme, clients: u32, backend: BackendChoice) -> RuntimeConfig {
        RuntimeConfig::quick(
            SystemConfig::new(scheme)
                .with_partitions(2)
                .with_clients(clients),
            backend,
        )
        .with_window(Duration::from_millis(30), Duration::from_millis(200))
    }

    fn run_micro(scheme: Scheme, mp: f64, backend: BackendChoice) -> RuntimeReport<MicroEngine> {
        let mc = MicroConfig {
            mp_fraction: mp,
            clients: 8,
            ..Default::default()
        };
        let cfg = quick(scheme, 8, backend);
        let builder = MicroWorkload::new(mc);
        run(cfg, MicroWorkload::new(mc), move |p| {
            builder.build_engine(p)
        })
    }

    #[test]
    fn all_schemes_run_live_with_mp_transactions_on_both_backends() {
        for backend in BACKENDS {
            for scheme in [
                Scheme::Blocking,
                Scheme::Speculative,
                Scheme::Locking,
                Scheme::Occ,
            ] {
                let r = run_micro(scheme, 0.2, backend);
                assert!(
                    r.committed > 100,
                    "{backend}/{scheme}: only {} committed",
                    r.committed
                );
                assert_eq!(
                    r.sched.local_deadlocks, 0,
                    "{backend}/{scheme}: no deadlocks expected"
                );
                // Every partition engine quiesced with no leaked undo buffers.
                for e in &r.engines {
                    assert_eq!(e.live_undo_buffers(), 0, "{backend}/{scheme}");
                }
            }
        }
    }

    #[test]
    fn speculation_speculates_on_both_backends() {
        for backend in BACKENDS {
            let r = run_micro(Scheme::Speculative, 0.5, backend);
            assert!(r.committed > 100, "{backend}");
            // With real (tiny) in-process latencies stalls are short, but
            // speculative executions must still occur at 50% MP.
            assert!(
                r.sched.speculative_executions > 0,
                "{backend}: no speculation happened live"
            );
        }
    }

    #[test]
    fn commit_latency_histogram_is_populated() {
        for backend in BACKENDS {
            let r = run_micro(Scheme::Speculative, 0.2, backend);
            let lat = r.latency();
            assert!(lat.count > 0, "{backend}: no latency samples");
            assert!(lat.p50 > Nanos::ZERO, "{backend}: zero p50");
            assert!(lat.p999 >= lat.p99 && lat.p99 >= lat.p50, "{backend}");
        }
    }

    #[test]
    fn fixed_work_runs_exactly_the_requested_outcomes() {
        for backend in BACKENDS {
            let mc = MicroConfig {
                mp_fraction: 0.3,
                abort_prob: 0.05,
                clients: 8,
                ..Default::default()
            };
            let cfg = RuntimeConfig::fixed_work(
                SystemConfig::new(Scheme::Speculative)
                    .with_partitions(2)
                    .with_clients(8),
                backend,
                25,
            );
            let builder = MicroWorkload::new(mc);
            let r = run(cfg, MicroWorkload::new(mc), move |p| {
                builder.build_engine(p)
            });
            assert_eq!(
                r.clients.committed + r.clients.user_aborted,
                8 * 25,
                "{backend}: every client must drive exactly 25 requests to an outcome"
            );
            for e in &r.engines {
                assert_eq!(e.live_undo_buffers(), 0, "{backend}");
            }
        }
    }

    #[test]
    fn replicated_backups_match_primaries() {
        for backend in BACKENDS {
            let mc = MicroConfig {
                mp_fraction: 0.3,
                abort_prob: 0.05,
                clients: 8,
                ..Default::default()
            };
            let mut cfg = quick(Scheme::Speculative, 8, backend);
            cfg.system.replication = 2;
            let builder = MicroWorkload::new(mc);
            let r = run(cfg, MicroWorkload::new(mc), move |p| {
                builder.build_engine(p)
            });
            assert!(r.committed > 50, "{backend}");
            assert_eq!(r.backups.len(), r.engines.len());
            for (i, (p, b)) in r.engines.iter().zip(r.backups.iter()).enumerate() {
                assert_eq!(
                    p.fingerprint(),
                    b.fingerprint(),
                    "{backend}: backup {i} diverged from its primary (failover would lose state)"
                );
            }
        }
    }

    #[test]
    fn locking_backups_match_primaries() {
        for backend in BACKENDS {
            let mc = MicroConfig {
                mp_fraction: 0.3,
                conflict_prob: 0.5,
                clients: 8,
                ..Default::default()
            };
            let mut cfg = quick(Scheme::Locking, 8, backend);
            cfg.system.replication = 2;
            let builder = MicroWorkload::new(mc);
            let r = run(cfg, MicroWorkload::new(mc), move |p| {
                builder.build_engine(p)
            });
            assert!(r.committed > 50, "{backend}");
            for (p, b) in r.engines.iter().zip(r.backups.iter()) {
                assert_eq!(p.fingerprint(), b.fingerprint(), "{backend}");
            }
        }
    }

    #[test]
    fn backend_choice_parses() {
        assert_eq!(
            BackendChoice::parse("multiplexed"),
            Ok(BackendChoice::multiplexed())
        );
        assert_eq!(
            BackendChoice::parse("multiplexed:7"),
            Ok(BackendChoice::Multiplexed { workers: 7 })
        );
        // Round trip: every backend renders to a spelling that parses back.
        for b in [
            BackendChoice::multiplexed(),
            BackendChoice::Multiplexed { workers: 7 },
        ] {
            assert_eq!(BackendChoice::parse(&b.to_string()), Ok(b));
        }
        // Garbage is a loud error naming the input, not a silent fallback.
        let err = BackendChoice::parse("green-threads").unwrap_err();
        assert!(err.contains("green-threads"), "{err}");
        let err = BackendChoice::parse("multiplexed:lots").unwrap_err();
        assert!(err.contains("lots"), "{err}");
        // `threaded` is not a backend.
        let err = BackendChoice::parse("threaded").unwrap_err();
        assert!(err.contains("threaded"), "{err}");
    }
}

#[cfg(test)]
mod tpcc_tests {
    use super::*;
    use hcc_common::{Nanos, Scheme};
    use hcc_storage::tpcc::consistency;
    use hcc_workloads::tpcc::{TpccConfig, TpccWorkload};

    #[test]
    fn tpcc_runs_live_and_stays_consistent_on_both_backends() {
        for backend in [
            BackendChoice::Multiplexed { workers: 1 },
            BackendChoice::Multiplexed { workers: 4 },
        ] {
            for scheme in [Scheme::Speculative, Scheme::Locking] {
                let mut tpcc = TpccConfig::new(2, 2);
                tpcc.scale = hcc_storage::tpcc::TpccScale::tiny();
                let mut system = SystemConfig::new(scheme).with_partitions(2).with_clients(8);
                system.lock_timeout = Nanos::from_millis(1);
                let cfg = RuntimeConfig::quick(system, backend)
                    .with_window(Duration::from_millis(30), Duration::from_millis(250));
                let builder = TpccWorkload::new(tpcc);
                let r = run(cfg, TpccWorkload::new(tpcc), move |p| {
                    builder.build_engine(p)
                });
                assert!(r.committed > 100, "{backend}/{scheme}: {}", r.committed);
                for (i, e) in r.engines.iter().enumerate() {
                    consistency::check(&e.store).unwrap_or_else(|v| {
                        panic!("{backend}/{scheme}: P{i} inconsistent: {:?}", &v[..1])
                    });
                    assert_eq!(e.live_undo_buffers(), 0, "{backend}/{scheme}: P{i}");
                }
            }
        }
    }

    #[test]
    fn tpcc_replicated_backups_converge() {
        for backend in [
            BackendChoice::Multiplexed { workers: 1 },
            BackendChoice::Multiplexed { workers: 4 },
        ] {
            let mut tpcc = TpccConfig::new(2, 2);
            tpcc.scale = hcc_storage::tpcc::TpccScale::tiny();
            tpcc.remote_item_prob = 0.2; // plenty of cross-partition new-orders
            let mut system = SystemConfig::new(Scheme::Speculative)
                .with_partitions(2)
                .with_clients(8);
            system.replication = 2;
            let cfg = RuntimeConfig::quick(system, backend)
                .with_window(Duration::from_millis(30), Duration::from_millis(250));
            let builder = TpccWorkload::new(tpcc);
            let r = run(cfg, TpccWorkload::new(tpcc), move |p| {
                builder.build_engine(p)
            });
            assert!(r.committed > 100, "{backend}");
            for (i, (p, b)) in r.engines.iter().zip(r.backups.iter()).enumerate() {
                assert_eq!(
                    p.store.fingerprint(),
                    b.store.fingerprint(),
                    "{backend}: TPC-C backup {i} diverged — failover would lose transactions"
                );
            }
        }
    }
}
