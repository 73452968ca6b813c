//! The live runtime against a serial reference: a fixed-work run (every
//! client drives exactly K seed-derived requests to a final outcome) of
//! the commutative microbenchmark must leave the committed state that
//! applying the same requests one transaction at a time leaves, on every
//! partition, bit for bit — at every worker-pool size, for every scheme
//! and coordinator shard count, however the host interleaved the actors.
//!
//! The reference ([`serial_reference`]) shares no code with the runtime:
//! no scheduler, coordinator, node or actor. It regenerates each client's
//! K requests from a fresh `MicroWorkload` and runs each request's
//! fragments straight on `MicroEngine`s with undo on, then forgets the
//! undo buffers on commit or rolls every participant back if any fragment
//! aborts.
//!
//! Why this is a sound check: the microbenchmark's requests are generated
//! from per-client RNG streams (interleaving-independent), its committed
//! effects are key-disjoint increments (commutative, so the final store
//! does not depend on commit order), scheduling aborts are retried until
//! the request reaches a final outcome, and user aborts roll back to the
//! pre-image. The store fingerprint is an order-independent XOR over
//! entries. Any divergence therefore means the runtime *lost, duplicated,
//! or misapplied* a transaction — exactly the bug class a runtime rewrite
//! can introduce.
//!
//! TPC-C is deliberately absent here: its committed state is
//! schedule-dependent (district `next_o_id` assignment and threshold-based
//! stock replenishment make commit *order* observable), so no two live
//! runs are bit-comparable. Its coverage is the consistency checks in
//! `hcc-runtime`'s `tpcc_tests` and the 512-client soak below.

use hcc_common::{ClientId, Nanos, PartitionId, Scheme, SystemConfig, TxnId};
use hcc_core::{ExecutionEngine, Request, RequestGenerator, Step};
use hcc_runtime::{run, BackendChoice, RuntimeConfig};
use hcc_storage::tpcc::consistency;
use hcc_workloads::micro::{MicroConfig, MicroEngine, MicroWorkload};
use hcc_workloads::tpcc::{TpccConfig, TpccWorkload};

const SCHEMES: [Scheme; 4] = [
    Scheme::Blocking,
    Scheme::Speculative,
    Scheme::Locking,
    Scheme::Occ,
];

/// The microbenchmark every test here runs: 25% multi-partition, 5% user
/// aborts, two partitions.
fn micro(clients: u32) -> MicroConfig {
    MicroConfig {
        partitions: 2,
        clients,
        mp_fraction: 0.25,
        abort_prob: 0.05,
        seed: 0xBEEF,
        ..Default::default()
    }
}

/// Fixed-work fingerprints for one scheme on one pool: per-partition
/// store fingerprints, commits, user aborts.
fn fingerprints(
    scheme: Scheme,
    clients: u32,
    requests: u64,
    backend: BackendChoice,
) -> (Vec<u64>, u64, u64) {
    fingerprints_sharded(scheme, clients, requests, backend, 1)
}

/// As [`fingerprints`], with `coordinators` shards (clients statically
/// partitioned across them).
fn fingerprints_sharded(
    scheme: Scheme,
    clients: u32,
    requests: u64,
    backend: BackendChoice,
    coordinators: u32,
) -> (Vec<u64>, u64, u64) {
    let mc = micro(clients);
    let system = SystemConfig::new(scheme)
        .with_partitions(2)
        .with_clients(clients)
        .with_seed(0xBEEF)
        .with_coordinators(coordinators);
    let cfg = RuntimeConfig::fixed_work(system, backend, requests);
    let builder = MicroWorkload::new(mc);
    let r = run(cfg, MicroWorkload::new(mc), move |p| {
        builder.build_engine(p)
    });
    assert_eq!(
        r.clients.committed + r.clients.user_aborted,
        clients as u64 * requests,
        "{backend}/{scheme}: wrong amount of work performed"
    );
    for (i, e) in r.engines.iter().enumerate() {
        assert_eq!(
            e.live_undo_buffers(),
            0,
            "{backend}/{scheme}: P{i} leaked undo buffers"
        );
    }
    // Stray decisions (a decision for a transaction the scheduler never
    // saw) are legitimate only around a failover; a healthy run seeing one
    // means a routing or protocol regression.
    assert_eq!(
        r.sched.stray_decisions, 0,
        "{backend}/{scheme}: stray decision in a healthy run"
    );
    (
        r.engines.iter().map(|e| e.fingerprint()).collect(),
        r.clients.committed,
        r.clients.user_aborted,
    )
}

/// The serial reference for [`fingerprints`]: each client's `requests`
/// requests applied one transaction at a time, in the shape
/// [`fingerprints`] returns.
fn serial_reference(clients: u32, requests: u64) -> (Vec<u64>, u64, u64) {
    let mc = micro(clients);
    let mut workload = MicroWorkload::new(mc);
    let mut engines: Vec<MicroEngine> = (0..mc.partitions)
        .map(|p| workload.build_engine(PartitionId(p)))
        .collect();
    let (mut committed, mut user_aborted) = (0, 0);
    for c in 0..clients {
        let client = ClientId(c);
        for k in 0..requests {
            let txn = TxnId::new(client, k as u32);
            let fragments = match workload.next_request(client) {
                Request::SinglePartition {
                    partition,
                    fragment,
                    ..
                } => vec![(partition, fragment)],
                Request::MultiPartition { procedure, .. } => match procedure.step(&[]) {
                    Step::Round {
                        fragments,
                        is_final: true,
                    } => fragments,
                    _ => panic!("the reference covers one-round procedures only"),
                },
            };
            // A failed fragment leaves no effects; the earlier ones are
            // rolled back with the rest of the transaction.
            let ok = fragments
                .iter()
                .all(|(p, f)| engines[p.as_usize()].execute(txn, f, true).result.is_ok());
            for (p, _) in &fragments {
                let engine = &mut engines[p.as_usize()];
                if ok {
                    engine.forget(txn);
                } else {
                    engine.rollback(txn);
                }
            }
            if ok {
                committed += 1;
            } else {
                user_aborted += 1;
            }
        }
    }
    (
        engines.iter().map(|e| e.fingerprint()).collect(),
        committed,
        user_aborted,
    )
}

#[test]
fn all_schemes_agree_across_backends() {
    let reference = serial_reference(16, 30);
    assert!(
        reference.2 > 0,
        "the reference never took its rollback path"
    );
    for scheme in SCHEMES {
        for workers in [1usize, 4] {
            assert_eq!(
                fingerprints(scheme, 16, 30, BackendChoice::Multiplexed { workers }),
                reference,
                "{scheme}@{workers} workers: committed state diverged from the serial reference"
            );
        }
    }
}

/// Worker-count matrix: at every pool size {1, 2, 4, 8} the runtime must
/// reproduce the serial reference bit-for-bit, for every scheme —
/// scaling the pool up or down (including past the host's core count)
/// changes who runs the actors, never what commits. This is the
/// vertical-scale-up safety contract: a partition pinned to a different
/// home, or a stolen client token, must be unobservable in the final
/// state.
#[test]
fn worker_count_matrix_agrees_across_backends() {
    let reference = serial_reference(16, 25);
    for scheme in SCHEMES {
        for workers in [1usize, 2, 4, 8] {
            assert_eq!(
                fingerprints(scheme, 16, 25, BackendChoice::Multiplexed { workers }),
                reference,
                "{scheme}@{workers} workers: committed state diverged from the serial reference"
            );
        }
    }
}

/// Coordinator scale-out: with N ∈ {1, 2, 4} coordinator shards the
/// runtime must still match the serial reference bit-for-bit — sharding
/// changes who coordinates, not what commits. The speculative scheme is
/// the interesting one (cross-shard chains at the partitions fall back to
/// held responses); blocking covers the plain 2PC path.
#[test]
fn sharded_coordinators_agree_across_backends() {
    let reference = serial_reference(16, 25);
    for scheme in [Scheme::Speculative, Scheme::Blocking] {
        for coordinators in [1u32, 2, 4] {
            assert_eq!(
                fingerprints_sharded(
                    scheme,
                    16,
                    25,
                    BackendChoice::Multiplexed { workers: 4 },
                    coordinators,
                ),
                reference,
                "{scheme}/N={coordinators}: committed state diverged from the serial reference"
            );
        }
    }
}

/// The headline scale case: 512 closed-loop clients on a fixed 4-worker
/// pool reach the serial reference's committed state.
#[test]
fn multiplexed_512_clients_match_serial_reference() {
    let multiplexed = fingerprints(
        Scheme::Speculative,
        512,
        4,
        BackendChoice::Multiplexed { workers: 4 },
    );
    assert_eq!(
        multiplexed,
        serial_reference(512, 4),
        "512-client state diverged from the serial reference"
    );
}

/// Fixed work is also reproducible run-to-run *within* the multiplexed
/// backend (the commutativity argument, applied to itself).
#[test]
fn multiplexed_fixed_work_is_reproducible() {
    let a = fingerprints(
        Scheme::Locking,
        16,
        30,
        BackendChoice::Multiplexed { workers: 4 },
    );
    let b = fingerprints(
        Scheme::Locking,
        16,
        30,
        BackendChoice::Multiplexed { workers: 2 },
    );
    assert_eq!(a, b, "worker count must not change committed state");
}

/// TPC-C at 512 closed-loop clients on the 4-worker pool: full mix,
/// consistency conditions must hold on the final state (the
/// schedule-dependent workload's equivalence check — see module docs).
#[test]
fn multiplexed_tpcc_512_clients_stays_consistent() {
    let mut tpcc = TpccConfig::new(4, 2);
    tpcc.scale = hcc_storage::tpcc::TpccScale::tiny();
    let mut system = SystemConfig::new(Scheme::Speculative)
        .with_partitions(2)
        .with_clients(512);
    system.lock_timeout = Nanos::from_millis(1);
    let cfg = RuntimeConfig::fixed_work(system, BackendChoice::Multiplexed { workers: 4 }, 3);
    let builder = TpccWorkload::new(tpcc);
    let r = run(cfg, TpccWorkload::new(tpcc), move |p| {
        builder.build_engine(p)
    });
    assert_eq!(r.clients.committed + r.clients.user_aborted, 512 * 3);
    for (i, e) in r.engines.iter().enumerate() {
        consistency::check(&e.store)
            .unwrap_or_else(|v| panic!("P{i} inconsistent at 512 clients: {:?}", &v[..1]));
        assert_eq!(e.live_undo_buffers(), 0, "P{i}");
    }
}
