//! End-to-end kill → promote → recover (paper §3.3) on the live runtime.
//!
//! Each scenario runs a fixed-work load with a replicated partition,
//! crashes the primary of one group after a deterministic number of
//! shipped commit records, and requires that:
//!
//! * every client still drives every request to a final outcome (bounced
//!   transactions are transparently retried against the promoted backup),
//! * exactly one promotion and one recovery happen, with zero replay
//!   failures,
//! * the recovered node's store fingerprint equals the surviving (now
//!   primary) replica's — §3.3's "copy state from a live replica while
//!   the group keeps processing" actually converged,
//! * the untouched group's replicas also still agree.
//!
//! All four schemes, on one worker and on a four-worker pool.

use hcc_common::{FailurePlan, PartitionId, Scheme, SystemConfig};
use hcc_runtime::{run, BackendChoice, RuntimeConfig, RuntimeReport};
use hcc_workloads::micro::{MicroConfig, MicroEngine, MicroWorkload};
use hcc_workloads::ycsb::{YcsbConfig, YcsbWorkload};

/// A single worker (every actor interleaved on one thread) and a pool.
const BACKENDS: [BackendChoice; 2] = [
    BackendChoice::Multiplexed { workers: 1 },
    BackendChoice::Multiplexed { workers: 4 },
];

fn failover_run(
    scheme: Scheme,
    backend: BackendChoice,
    replication: u32,
) -> RuntimeReport<MicroEngine> {
    failover_run_sharded(scheme, backend, replication, 1)
}

fn failover_run_sharded(
    scheme: Scheme,
    backend: BackendChoice,
    replication: u32,
    coordinators: u32,
) -> RuntimeReport<MicroEngine> {
    let clients = 16u32;
    let requests = 40u64;
    let mc = MicroConfig {
        partitions: 2,
        clients,
        mp_fraction: 0.25,
        abort_prob: 0.05,
        seed: 0xFA11,
        ..Default::default()
    };
    let system = SystemConfig::new(scheme)
        .with_partitions(2)
        .with_clients(clients)
        .with_seed(0xFA11)
        .with_replication(replication)
        .with_coordinators(coordinators);
    // Kill P1's primary after 30 commits — early enough that hundreds of
    // transactions still flow through the promoted backup and the
    // recovered node afterwards.
    let cfg = RuntimeConfig::fixed_work(system, backend, requests).with_failure(FailurePlan {
        partition: PartitionId(1),
        after_commits: 30,
    });
    let builder = MicroWorkload::new(mc);
    let r = run(cfg, MicroWorkload::new(mc), move |p| {
        builder.build_engine(p)
    });
    assert_eq!(
        r.clients.committed + r.clients.user_aborted,
        clients as u64 * requests,
        "{backend}/{scheme}: failover lost or duplicated client work"
    );
    let repl = &r.replication;
    assert_eq!(repl.promotions, 1, "{backend}/{scheme}");
    assert_eq!(repl.recoveries, 1, "{backend}/{scheme}");
    assert_eq!(repl.snapshots_served, 1, "{backend}/{scheme}");
    assert_eq!(
        repl.replay_failures, 0,
        "{backend}/{scheme}: replicas must replay cleanly through a failover"
    );
    assert!(
        repl.time_to_recover().is_some(),
        "{backend}/{scheme}: crash/recovery timestamps must be recorded"
    );
    r
}

#[test]
fn kill_promote_recover_converges_for_all_schemes_on_both_backends() {
    for backend in BACKENDS {
        for scheme in [
            Scheme::Blocking,
            Scheme::Speculative,
            Scheme::Locking,
            Scheme::Occ,
        ] {
            let r = failover_run(scheme, backend, 2);
            // replication = 2: one backup per group. Group 0 is untouched
            // (primary slot 0 + backup slot 1); group 1 failed over
            // (promoted slot 1 is the primary, recovered slot 0 is the
            // backup).
            assert_eq!(r.engines.len(), 2, "{backend}/{scheme}");
            assert_eq!(r.backups.len(), 2, "{backend}/{scheme}");
            for group in 0..2 {
                assert_eq!(
                    r.engines[group].fingerprint(),
                    r.backups[group].fingerprint(),
                    "{backend}/{scheme}: group {group} replicas diverged \
                     (recovered node vs surviving primary)"
                );
            }
        }
    }
}

/// k = 2 backups: the surviving sibling backup keeps replaying the
/// promoted primary's log (sequence numbers continue across the
/// promotion), and the recovered node joins them — all three replicas of
/// the failed group must agree.
#[test]
fn failover_with_two_backups_keeps_every_replica_converged() {
    for backend in BACKENDS {
        let r = failover_run(Scheme::Speculative, backend, 3);
        assert_eq!(r.engines.len(), 2);
        assert_eq!(r.backups.len(), 4, "{backend}: two live backups per group");
        // Backups are in (group, slot) order: [g0s1, g0s2, g1s0(recovered), g1s2].
        for group in 0..2usize {
            let primary = r.engines[group].fingerprint();
            for (i, b) in r.backups.iter().enumerate() {
                let b_group = i / 2;
                if b_group == group {
                    assert_eq!(
                        primary,
                        b.fingerprint(),
                        "{backend}: group {group} replica {i} diverged"
                    );
                }
            }
        }
    }
}

/// Failover with N > 1 coordinator shards: the control-plane membership
/// actor must fan the routing update out to every shard (each aborts its
/// own in-flight transactions), and the promoted backup + recovered node
/// must still converge with the primary — on one worker and on a pool.
#[test]
fn failover_with_sharded_coordinators_converges() {
    for backend in BACKENDS {
        for coordinators in [2u32, 4] {
            let r = failover_run_sharded(Scheme::Speculative, backend, 2, coordinators);
            assert_eq!(r.engines.len(), 2, "{backend}/N={coordinators}");
            assert_eq!(r.backups.len(), 2, "{backend}/N={coordinators}");
            for group in 0..2 {
                assert_eq!(
                    r.engines[group].fingerprint(),
                    r.backups[group].fingerprint(),
                    "{backend}/N={coordinators}: group {group} replicas diverged"
                );
            }
        }
    }
}

/// The 2PC in-doubt window is *closed*: with a commutative workload that
/// includes multi-partition transactions, a mid-run crash must still be
/// invisible in the final state. Before the coordinator-side commit acks,
/// a commit decision in flight to the dying primary died with it — the
/// transaction's effects survived at the other participants but were lost
/// at the failed group, so with-failure and no-failure runs could
/// diverge. With acks + redelivery every unacknowledged commit is
/// re-executed at the promoted primary (and the exactly-once guard
/// prevents double-apply when the record did reach the backup), so the
/// final states must be bit-identical.
#[test]
fn in_doubt_commits_survive_failover_bit_for_bit() {
    let clients = 12u32;
    let requests = 50u64;
    let yc = YcsbConfig {
        partitions: 2,
        clients,
        keys_per_partition: 512,
        theta: 0.8,
        read_fraction: 0.5,
        ops_per_txn: 8,
        mp_fraction: 0.35,
        seed: 0xD0B7,
    };
    let run_once = |failure: Option<FailurePlan>| {
        let system = SystemConfig::new(Scheme::Speculative)
            .with_partitions(2)
            .with_clients(clients)
            .with_seed(0xD0B7)
            .with_replication(2)
            .with_coordinators(2);
        let mut cfg =
            RuntimeConfig::fixed_work(system, BackendChoice::Multiplexed { workers: 4 }, requests);
        cfg.failure = failure;
        let builder = YcsbWorkload::new(yc);
        let r = run(cfg, YcsbWorkload::new(yc), move |p| builder.build_engine(p));
        assert_eq!(r.clients.committed, clients as u64 * requests);
        assert_eq!(r.replication.replay_failures, 0);
        (
            r.engines
                .iter()
                .map(|e| e.fingerprint())
                .collect::<Vec<_>>(),
            r.replication.promotions,
        )
    };
    let (clean, promotions) = run_once(None);
    assert_eq!(promotions, 0);
    let (failed, promotions) = run_once(Some(FailurePlan {
        partition: PartitionId(0),
        after_commits: 60,
    }));
    assert_eq!(promotions, 1);
    assert_eq!(
        clean, failed,
        "an MP-carrying failover run diverged from the clean run — \
         the 2PC in-doubt window lost or duplicated a commit"
    );
}

/// With a single-partition-only commutative workload (the YCSB mix below
/// is pure reads + blind RMW increments), a mid-run crash must be
/// *invisible* in the final state: bounced transactions retry until they
/// execute exactly once, and every committed record reached the backup
/// before the primary acknowledged it — so the with-failure run's
/// committed state equals the no-failure run's, bit for bit.
#[test]
fn failover_is_state_invisible_for_sp_only_workloads() {
    let clients = 12u32;
    let requests = 50u64;
    let yc = YcsbConfig {
        partitions: 2,
        clients,
        keys_per_partition: 512,
        theta: 0.8,
        read_fraction: 0.5,
        ops_per_txn: 8,
        mp_fraction: 0.0,
        seed: 0x1CE,
    };
    let run_once = |failure: Option<FailurePlan>| {
        let system = SystemConfig::new(Scheme::Speculative)
            .with_partitions(2)
            .with_clients(clients)
            .with_seed(0x1CE)
            .with_replication(2);
        let mut cfg =
            RuntimeConfig::fixed_work(system, BackendChoice::Multiplexed { workers: 4 }, requests);
        cfg.failure = failure;
        let builder = YcsbWorkload::new(yc);
        let r = run(cfg, YcsbWorkload::new(yc), move |p| builder.build_engine(p));
        assert_eq!(r.clients.committed, clients as u64 * requests);
        assert_eq!(r.replication.replay_failures, 0);
        (
            r.engines
                .iter()
                .map(|e| e.fingerprint())
                .collect::<Vec<_>>(),
            r.replication.promotions,
        )
    };
    let (clean, promotions) = run_once(None);
    assert_eq!(promotions, 0);
    let (failed, promotions) = run_once(Some(FailurePlan {
        partition: PartitionId(0),
        after_commits: 40,
    }));
    assert_eq!(promotions, 1);
    assert_eq!(
        clean, failed,
        "a failover must not change the committed state of an SP-only run"
    );
}
