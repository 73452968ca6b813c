//! Scan-heavy fragments on the live runtime: failover under a seed
//! sweep, bit-determinism per seed, and equivalence across pool sizes.
//!
//! The YCSB-E mix is state-commutative by construction (scans read,
//! point updates are blind increments, insert/delete churn keys are
//! client-unique), so for a fixed seed every run — any pool size, any
//! thread interleaving, even with a mid-run primary kill — must converge
//! to the same committed state, bit for bit. The recovered node rejoins
//! from an `ExecutionEngine::snapshot()` that must carry the ordered
//! index, so its *ordered iteration* is compared against the surviving
//! primary's too, not just its row set.

use hcc_common::{FailurePlan, PartitionId, Scheme, SystemConfig};
use hcc_runtime::{run, BackendChoice, RuntimeConfig, RuntimeReport};
use hcc_workloads::micro::MicroEngine;
use hcc_workloads::ycsb::{YcsbEConfig, YcsbEWorkload};

/// A single worker (every actor interleaved on one thread) and a pool.
const BACKENDS: [BackendChoice; 2] = [
    BackendChoice::Multiplexed { workers: 1 },
    BackendChoice::Multiplexed { workers: 4 },
];

const CLIENTS: u32 = 8;
const REQUESTS: u64 = 30;

fn scan_cfg(seed: u64) -> YcsbEConfig {
    YcsbEConfig {
        partitions: 2,
        clients: CLIENTS,
        keys_per_partition: 256,
        theta: 0.8,
        scan_fraction: 0.6,
        insert_fraction: 0.25,
        delete_fraction: 0.1,
        scan_len: 24,
        mp_fraction: 0.3,
        seed,
    }
}

fn scan_failover_run(
    scheme: Scheme,
    backend: BackendChoice,
    seed: u64,
) -> RuntimeReport<MicroEngine> {
    let yc = scan_cfg(seed);
    let system = SystemConfig::new(scheme)
        .with_partitions(2)
        .with_clients(CLIENTS)
        .with_seed(seed)
        .with_replication(2);
    let cfg = RuntimeConfig::fixed_work(system, backend, REQUESTS).with_failure(FailurePlan {
        partition: PartitionId(1),
        after_commits: 20,
    });
    let builder = YcsbEWorkload::new(yc);
    let r = run(cfg, YcsbEWorkload::new(yc), move |p| {
        builder.build_engine(p)
    });
    assert_eq!(
        r.clients.committed + r.clients.user_aborted,
        CLIENTS as u64 * REQUESTS,
        "{backend}/{scheme}/seed={seed:#x}: failover lost or duplicated work"
    );
    assert_eq!(r.replication.promotions, 1, "{backend}/{scheme}/{seed:#x}");
    assert_eq!(r.replication.recoveries, 1, "{backend}/{scheme}/{seed:#x}");
    assert_eq!(
        r.replication.replay_failures, 0,
        "{backend}/{scheme}/{seed:#x}: replay must stay clean through scans"
    );
    r
}

fn state_of(r: &RuntimeReport<MicroEngine>) -> (Vec<u64>, Vec<u64>) {
    (
        r.engines.iter().map(|e| e.fingerprint()).collect(),
        r.engines.iter().map(|e| e.ordered_fingerprint()).collect(),
    )
}

/// ≥ 8 seeds × both pool sizes: a failover fired mid-scan-heavy run must
/// converge, and re-running the identical configuration must reproduce
/// the exact committed state — bit-deterministic per seed. The promoted
/// and recovered replicas must match the primaries' ordered views.
#[test]
fn scan_heavy_failover_seed_sweep_is_bit_deterministic() {
    let seeds: [u64; 8] = [
        0x5CA0, 0x5CA1, 0x5CA2, 0x5CA3, 0x5CA4, 0x5CA5, 0x5CA6, 0x5CA7,
    ];
    let mut distinct = std::collections::HashSet::new();
    for backend in BACKENDS {
        for &seed in &seeds {
            let a = scan_failover_run(Scheme::Speculative, backend, seed);
            let b = scan_failover_run(Scheme::Speculative, backend, seed);
            assert_eq!(
                state_of(&a),
                state_of(&b),
                "{backend}/seed={seed:#x}: two identical failover runs diverged"
            );
            for (group, (p, bk)) in a.engines.iter().zip(a.backups.iter()).enumerate() {
                assert!(bk.scans_enabled(), "{backend}/{seed:#x}: group {group}");
                bk.check_ordered_invariants().unwrap_or_else(|e| {
                    panic!("{backend}/{seed:#x}: group {group} index broken: {e}")
                });
                assert_eq!(
                    p.ordered_fingerprint(),
                    bk.ordered_fingerprint(),
                    "{backend}/seed={seed:#x}: group {group} replica's ordered \
                     view diverged (recovered node vs primary)"
                );
            }
            distinct.insert(state_of(&a));
        }
    }
    assert!(
        distinct.len() >= seeds.len(),
        "different seeds must produce different histories ({} distinct)",
        distinct.len()
    );
}

/// Pool-size equivalence extends to scans: for every scheme, one worker
/// and four workers must commit the same final state on the scan-heavy
/// mix (no failure injection — pure wiring check).
#[test]
fn scan_heavy_backends_agree_for_all_schemes() {
    for scheme in [
        Scheme::Blocking,
        Scheme::Speculative,
        Scheme::Locking,
        Scheme::Occ,
    ] {
        let yc = scan_cfg(0xC0DE);
        let mut states = Vec::new();
        for backend in BACKENDS {
            let system = SystemConfig::new(scheme)
                .with_partitions(2)
                .with_clients(CLIENTS)
                .with_seed(0xC0DE);
            let cfg = RuntimeConfig::fixed_work(system, backend, REQUESTS);
            let builder = YcsbEWorkload::new(yc);
            let r = run(cfg, YcsbEWorkload::new(yc), move |p| {
                builder.build_engine(p)
            });
            assert_eq!(
                r.clients.committed + r.clients.user_aborted,
                CLIENTS as u64 * REQUESTS,
                "{backend}/{scheme}"
            );
            for (i, e) in r.engines.iter().enumerate() {
                e.check_ordered_invariants()
                    .unwrap_or_else(|err| panic!("{backend}/{scheme}: P{i}: {err}"));
                assert_eq!(e.live_undo_buffers(), 0, "{backend}/{scheme}: P{i}");
            }
            states.push(state_of(&r));
        }
        assert_eq!(
            states[0], states[1],
            "{scheme}: one worker and four workers diverged on the scan-heavy mix"
        );
    }
}
