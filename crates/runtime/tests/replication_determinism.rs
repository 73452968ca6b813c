//! Replication determinism (sibling of `backend_equivalence.rs`): after a
//! fixed-work run with replication enabled, every backup's committed
//! store must be bit-identical to its primary's — for all four schemes on
//! one worker and on a pool — with zero replay failures and a fully-acked
//! commit log. The microbenchmark's committed effects are key-disjoint
//! commutative increments, so the primaries are additionally
//! fingerprint-comparable *across* pool sizes (same argument as
//! `backend_equivalence.rs`), which extends that contract to the
//! replicated configuration, and likewise to the YCSB workload (blind
//! RMW increments over a shared Zipfian key space).

use hcc_common::stats::ReplicationCounters;
use hcc_common::{Scheme, SystemConfig};
use hcc_runtime::{run, BackendChoice, RuntimeConfig};
use hcc_workloads::micro::{MicroConfig, MicroWorkload};
use hcc_workloads::ycsb::{YcsbConfig, YcsbWorkload};

/// A single worker (every actor interleaved on one thread) and a pool.
const BACKENDS: [BackendChoice; 2] = [
    BackendChoice::Multiplexed { workers: 1 },
    BackendChoice::Multiplexed { workers: 4 },
];

/// Primary fingerprints for one replicated fixed-work run, after checking
/// the replica-group invariants.
fn replicated_fingerprints(scheme: Scheme, backend: BackendChoice) -> (Vec<u64>, u64, u64) {
    let clients = 16u32;
    let requests = 30u64;
    let mc = MicroConfig {
        partitions: 2,
        clients,
        mp_fraction: 0.25,
        abort_prob: 0.05,
        seed: 0xBEEF,
        ..Default::default()
    };
    let system = SystemConfig::new(scheme)
        .with_partitions(2)
        .with_clients(clients)
        .with_seed(0xBEEF)
        .with_replication(2);
    let cfg = RuntimeConfig::fixed_work(system, backend, requests);
    let builder = MicroWorkload::new(mc);
    let r = run(cfg, MicroWorkload::new(mc), move |p| {
        builder.build_engine(p)
    });
    assert_eq!(
        r.clients.committed + r.clients.user_aborted,
        clients as u64 * requests,
        "{backend}/{scheme}"
    );
    check_replication_health(&r.replication, &format!("{backend}/{scheme}"));
    assert_eq!(
        r.sched.stray_decisions, 0,
        "{backend}/{scheme}: stray decision in a healthy run"
    );
    assert_eq!(r.backups.len(), r.engines.len(), "{backend}/{scheme}");
    for (i, (p, b)) in r.engines.iter().zip(r.backups.iter()).enumerate() {
        assert_eq!(
            p.fingerprint(),
            b.fingerprint(),
            "{backend}/{scheme}: backup {i} diverged from its primary"
        );
    }
    (
        r.engines.iter().map(|e| e.fingerprint()).collect(),
        r.clients.committed,
        r.clients.user_aborted,
    )
}

fn check_replication_health(repl: &ReplicationCounters, ctx: &str) {
    assert_eq!(repl.replay_failures, 0, "{ctx}: replay must be clean");
    assert_eq!(repl.failover_bounces, 0, "{ctx}: no failover injected");
    assert_eq!(repl.promotions, 0, "{ctx}: no failover injected");
    assert_eq!(
        repl.records_applied, repl.records_shipped,
        "{ctx}: every shipped record must be applied by drain time"
    );
    assert!(repl.records_shipped > 0, "{ctx}: nothing replicated?");
}

#[test]
fn replicas_match_primaries_for_all_schemes_on_both_backends() {
    for scheme in [
        Scheme::Blocking,
        Scheme::Speculative,
        Scheme::Locking,
        Scheme::Occ,
    ] {
        let one = replicated_fingerprints(scheme, BACKENDS[0]);
        let pool = replicated_fingerprints(scheme, BACKENDS[1]);
        assert_eq!(
            one, pool,
            "{scheme}: replicated committed state diverged between pool sizes"
        );
    }
}

/// The YCSB read-mostly Zipfian workload under replication: shared hot
/// keys stress the replay path (every commit touches overlapping state),
/// and commutativity keeps the fingerprints pool-size-independent.
#[test]
fn ycsb_replicas_match_primaries_across_backends() {
    let clients = 16u32;
    let requests = 25u64;
    let yc = YcsbConfig {
        partitions: 2,
        clients,
        keys_per_partition: 1024,
        theta: 0.9,
        read_fraction: 0.9,
        ops_per_txn: 10,
        mp_fraction: 0.2,
        seed: 0x2B,
    };
    let mut results = Vec::new();
    for backend in BACKENDS {
        let system = SystemConfig::new(Scheme::Speculative)
            .with_partitions(2)
            .with_clients(clients)
            .with_seed(0x2B)
            .with_replication(2);
        let cfg = RuntimeConfig::fixed_work(system, backend, requests);
        let builder = YcsbWorkload::new(yc);
        let r = run(cfg, YcsbWorkload::new(yc), move |p| builder.build_engine(p));
        assert_eq!(r.clients.committed, clients as u64 * requests, "{backend}");
        check_replication_health(&r.replication, &backend.to_string());
        for (i, (p, b)) in r.engines.iter().zip(r.backups.iter()).enumerate() {
            assert_eq!(
                p.fingerprint(),
                b.fingerprint(),
                "{backend}: YCSB backup {i} diverged"
            );
        }
        results.push(
            r.engines
                .iter()
                .map(|e| e.fingerprint())
                .collect::<Vec<_>>(),
        );
    }
    assert_eq!(
        results[0], results[1],
        "YCSB state diverged across pool sizes"
    );
}
