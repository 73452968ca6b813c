//! PR 4 bench harness: coordinator scale-out.
//!
//! The paper's single central coordinator saturates at high
//! multi-partition fractions (§5.1: "the central coordinator uses 100% of
//! the CPU and cannot handle more messages"). This harness measures where
//! that happens and what sharding the coordinator buys:
//!
//! 1. **Saturation sweep (simulator, calibrated):** coordinators ×
//!    multi-partition fraction × scheme × client-partition alignment on
//!    the microbenchmark. The virtual cost model charges the paper's
//!    12 µs per coordinator message, so the singleton's utilization
//!    visibly pins at ~100% and throughput caps. With the client
//!    partitioning **aligned** to the data partitioning (each shard's
//!    clients only touch a disjoint partition group — the STAR/DGCC
//!    deployment), N = 2/4 shards scale multi-partition throughput
//!    near-linearly. **Unaligned**, §4.2.2's same-coordinator-chain rule
//!    forces partitions to block behind cross-shard chains
//!    (`cross_coord_waits`, residual deadlocks broken by timeout expiry)
//!    and sharding buys almost nothing — the measured point where the
//!    dependency protocol breaks.
//! 2. **Live sweep (multiplexed runtime):** the aligned shape measured
//!    on the host — one coordinator actor is a serialization point on
//!    the worker pool, so sharding helps wall-clock throughput too.
//! 3. **Conflict-heavy TPC-C:** the delivery/stock-level stress mix
//!    (`TxnMix::delivery_stock_stress`) across coordinator counts
//!    (unaligned by nature — warehouses don't follow client ids).
//!
//! Usage:
//!   cargo run --release -p hcc-bench --bin bench_pr4                    # full matrix → BENCH_PR4.json
//!   cargo run --release -p hcc-bench --bin bench_pr4 ci-smoke           # quick saturation check (gating)
//!   cargo run --release -p hcc-bench --bin bench_pr4 multi-coord-smoke  # N=2 equivalence + failover (gating)

use hcc_common::{FailurePlan, Nanos, PartitionId, Scheme, SystemConfig};
use hcc_runtime::{run, BackendChoice, RuntimeConfig};
use hcc_sim::{run_with, SimConfig};
use hcc_workloads::micro::{MicroConfig, MicroWorkload};
use hcc_workloads::tpcc::{TpccConfig, TpccWorkload, TxnMix};
use hcc_workloads::ycsb::{YcsbConfig, YcsbWorkload};
use std::fmt::Write as _;
use std::time::Duration;

struct SimRow {
    scheme: Scheme,
    coordinators: u32,
    mp_fraction: f64,
    clients: u32,
    aligned: bool,
    throughput_tps: f64,
    coord_utilization: f64,
    cross_coord_waits: u64,
}

struct LiveRow {
    workload: &'static str,
    coordinators: u32,
    clients: u32,
    throughput_tps: f64,
    p50_us: f64,
    p99_us: f64,
    cross_coord_waits: u64,
}

/// One calibrated saturation point: 8 partitions, fixed client count,
/// swept multi-partition fraction, shard count, and alignment. `aligned`
/// confines each client to a 2-partition affinity group (4 groups; every
/// shard count in {1, 2, 4} divides 4, so shards own disjoint partition
/// subsets and cross-shard conflicts are structurally impossible).
fn sim_point(scheme: Scheme, coordinators: u32, mp: f64, clients: u32, aligned: bool) -> SimRow {
    let micro = MicroConfig {
        partitions: 8,
        clients,
        mp_fraction: mp,
        affinity_groups: if aligned { 4 } else { 1 },
        seed: 0x94,
        ..Default::default()
    };
    // The default 20 ms lock_timeout doubles as the cross-shard deadlock
    // expiry (unaligned mode). It must comfortably exceed the normal
    // saturated decision latency: a shorter timeout aborts merely-slow
    // transactions and the retry load collapses throughput.
    let system = SystemConfig::new(scheme)
        .with_partitions(8)
        .with_clients(clients)
        .with_seed(0x94)
        .with_coordinators(coordinators);
    let cfg = SimConfig::new(system).with_window(Nanos::from_millis(30), Nanos::from_millis(150));
    let builder = MicroWorkload::new(micro);
    let r = run_with(cfg, MicroWorkload::new(micro), move |p| {
        builder.build_engine(p)
    });
    SimRow {
        scheme,
        coordinators,
        mp_fraction: mp,
        clients,
        aligned,
        throughput_tps: r.throughput_tps,
        coord_utilization: r.coordinator_utilization,
        cross_coord_waits: r.sched.cross_coord_waits,
    }
}

/// One live (multiplexed) point on the microbenchmark (aligned: 4
/// affinity groups on 8 partitions).
fn live_point(coordinators: u32, clients: u32, window: (Duration, Duration)) -> LiveRow {
    let micro = MicroConfig {
        partitions: 8,
        clients,
        mp_fraction: 0.5,
        affinity_groups: 4,
        seed: 0x94,
        ..Default::default()
    };
    let system = SystemConfig::new(Scheme::Speculative)
        .with_partitions(8)
        .with_clients(clients)
        .with_seed(0x94)
        .with_coordinators(coordinators);
    let cfg = RuntimeConfig::quick(system, BackendChoice::Multiplexed { workers: 4 })
        .with_window(window.0, window.1);
    let builder = MicroWorkload::new(micro);
    let r = run(cfg, MicroWorkload::new(micro), move |p| {
        builder.build_engine(p)
    });
    let lat = r.latency();
    LiveRow {
        workload: "micro_mp50",
        coordinators,
        clients,
        throughput_tps: r.throughput_tps,
        p50_us: lat.p50.as_micros_f64(),
        p99_us: lat.p99.as_micros_f64(),
        cross_coord_waits: r.sched.cross_coord_waits,
    }
}

/// The conflict-heavy TPC-C stress point: delivery/stock-level heavy mix.
fn tpcc_stress_point(coordinators: u32, clients: u32, window: (Duration, Duration)) -> LiveRow {
    let mut tpcc = TpccConfig::new(4, 2);
    tpcc.scale = hcc_storage::tpcc::TpccScale::tiny();
    tpcc.mix = TxnMix::delivery_stock_stress();
    tpcc.remote_item_prob = 0.1; // plenty of cross-partition new-orders
    let mut system = SystemConfig::new(Scheme::Speculative)
        .with_partitions(2)
        .with_clients(clients)
        .with_seed(0x94)
        .with_coordinators(coordinators);
    system.lock_timeout = Nanos::from_millis(1);
    let cfg = RuntimeConfig::quick(system, BackendChoice::Multiplexed { workers: 4 })
        .with_window(window.0, window.1);
    let builder = TpccWorkload::new(tpcc);
    let r = run(cfg, TpccWorkload::new(tpcc), move |p| {
        builder.build_engine(p)
    });
    for (i, e) in r.engines.iter().enumerate() {
        hcc_storage::tpcc::consistency::check(&e.store).unwrap_or_else(|v| {
            panic!(
                "tpcc-stress N={coordinators}: P{i} inconsistent: {:?}",
                &v[..1]
            )
        });
    }
    let lat = r.latency();
    LiveRow {
        workload: "tpcc_stress",
        coordinators,
        clients,
        throughput_tps: r.throughput_tps,
        p50_us: lat.p50.as_micros_f64(),
        p99_us: lat.p99.as_micros_f64(),
        cross_coord_waits: r.sched.cross_coord_waits,
    }
}

/// Gating: with N = 2 shards one worker and four still agree bit-for-bit, and a
/// failover with sharded coordinators converges AND preserves every
/// in-doubt commit (final state identical to a no-failure run — the
/// closed 2PC window, exercised end-to-end).
fn multi_coord_smoke() {
    // Pool-size equivalence at N = 2 (fixed work).
    let fingerprints = |backend: BackendChoice| {
        let micro = MicroConfig {
            partitions: 2,
            clients: 16,
            mp_fraction: 0.3,
            abort_prob: 0.05,
            seed: 0x5E,
            ..Default::default()
        };
        let system = SystemConfig::new(Scheme::Speculative)
            .with_partitions(2)
            .with_clients(16)
            .with_seed(0x5E)
            .with_coordinators(2);
        let cfg = RuntimeConfig::fixed_work(system, backend, 25);
        let builder = MicroWorkload::new(micro);
        let r = run(cfg, MicroWorkload::new(micro), move |p| {
            builder.build_engine(p)
        });
        assert_eq!(r.clients.committed + r.clients.user_aborted, 16 * 25);
        r.engines
            .iter()
            .map(|e| e.fingerprint())
            .collect::<Vec<_>>()
    };
    let one = fingerprints(BackendChoice::Multiplexed { workers: 1 });
    let pool = fingerprints(BackendChoice::Multiplexed { workers: 4 });
    assert_eq!(
        one, pool,
        "N=2 shards: pool sizes disagree on committed state"
    );

    // Failover with N = 2 shards and multi-partition traffic: the run must
    // converge and end bit-identical to a clean run (commutative
    // workload + closed in-doubt window).
    let clients = 16u32;
    let requests = 40u64;
    let yc = YcsbConfig {
        partitions: 2,
        clients,
        keys_per_partition: 1024,
        read_fraction: 0.6,
        mp_fraction: 0.3,
        seed: 0x4C,
        ..Default::default()
    };
    let run_once = |failure: Option<FailurePlan>| {
        let system = SystemConfig::new(Scheme::Speculative)
            .with_partitions(2)
            .with_clients(clients)
            .with_seed(0x4C)
            .with_replication(2)
            .with_coordinators(2);
        let mut cfg =
            RuntimeConfig::fixed_work(system, BackendChoice::Multiplexed { workers: 4 }, requests);
        cfg.failure = failure;
        let builder = YcsbWorkload::new(yc);
        let r = run(cfg, YcsbWorkload::new(yc), move |p| builder.build_engine(p));
        assert_eq!(r.clients.committed, clients as u64 * requests);
        assert_eq!(r.replication.replay_failures, 0);
        r
    };
    let clean = run_once(None);
    let failed = run_once(Some(FailurePlan {
        partition: PartitionId(1),
        after_commits: 120,
    }));
    assert_eq!(failed.replication.promotions, 1, "the kill must have fired");
    assert_eq!(failed.replication.recoveries, 1);
    for g in 0..2usize {
        assert_eq!(
            failed.engines[g].fingerprint(),
            failed.backups[g].fingerprint(),
            "group {g}: replicas diverged after failover with 2 shards"
        );
        assert_eq!(
            failed.engines[g].fingerprint(),
            clean.engines[g].fingerprint(),
            "group {g}: failover changed committed state (in-doubt window leaked)"
        );
    }
    println!(
        "multi-coord smoke passed: N=2 pool sizes bit-identical; failover with 2 shards \
         converged in {:.2} ms with state identical to the no-failure run.",
        failed
            .replication
            .time_to_recover()
            .expect("failure injected")
            .as_micros_f64()
            / 1000.0
    );
}

fn json(sim_rows: &[SimRow], live_rows: &[LiveRow], label: &str) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"label\": \"{label}\",");
    s.push_str("  \"sim_saturation\": [\n");
    for (i, r) in sim_rows.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"scheme\": \"{}\", \"coordinators\": {}, \"mp_fraction\": {:.2}, \
             \"clients\": {}, \"aligned\": {}, \"throughput_tps\": {:.0}, \
             \"coord_utilization\": {:.3}, \"cross_coord_waits\": {}}}",
            r.scheme,
            r.coordinators,
            r.mp_fraction,
            r.clients,
            r.aligned,
            r.throughput_tps,
            r.coord_utilization,
            r.cross_coord_waits
        );
        s.push_str(if i + 1 < sim_rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n  \"live\": [\n");
    for (i, r) in live_rows.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"workload\": \"{}\", \"coordinators\": {}, \"clients\": {}, \
             \"throughput_tps\": {:.0}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \
             \"cross_coord_waits\": {}}}",
            r.workload,
            r.coordinators,
            r.clients,
            r.throughput_tps,
            r.p50_us,
            r.p99_us,
            r.cross_coord_waits
        );
        s.push_str(if i + 1 < live_rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

fn tables(sim_rows: &[SimRow], live_rows: &[LiveRow]) {
    println!(
        "\nsim (calibrated): {:<12} {:>7} {:>6} {:>8} {:>12} {:>11} {:>12}",
        "scheme", "coords", "mp%", "clients", "tps", "coord util", "x-waits"
    );
    for r in sim_rows {
        println!(
            "{:<30} {:>7} {:>6.0} {:>8} {:>12.0} {:>10.0}% {:>12}",
            r.scheme.to_string(),
            r.coordinators,
            r.mp_fraction * 100.0,
            r.clients,
            r.throughput_tps,
            r.coord_utilization * 100.0,
            r.cross_coord_waits
        );
    }
    if !live_rows.is_empty() {
        println!(
            "\nlive (multiplexed): {:<12} {:>7} {:>8} {:>12} {:>10} {:>10} {:>12}",
            "workload", "coords", "clients", "tps", "p50 µs", "p99 µs", "x-waits"
        );
        for r in live_rows {
            println!(
                "{:<32} {:>7} {:>8} {:>12.0} {:>10.1} {:>10.1} {:>12}",
                r.workload,
                r.coordinators,
                r.clients,
                r.throughput_tps,
                r.p50_us,
                r.p99_us,
                r.cross_coord_waits
            );
        }
    }
}

/// The gating saturation check, deterministic (the simulator is a pure
/// function of the config): at 100% multi-partition the singleton
/// coordinator must be the measured bottleneck (utilization pinned);
/// with aligned client partitioning N = 2/4 shards must scale
/// multi-partition throughput near-linearly; and the unaligned rows must
/// show the same-coordinator-chain rule biting (cross-shard waits > 0).
fn assert_sharding_beats_singleton(rows: &[SimRow]) {
    let find = |n: u32, aligned: bool| {
        rows.iter()
            .find(|r| {
                r.scheme == Scheme::Speculative
                    && r.coordinators == n
                    && r.mp_fraction >= 0.99
                    && r.aligned == aligned
            })
            .expect("sweep includes speculative mp=1.0 in both alignments")
    };
    let single = find(1, true);
    let double = find(2, true);
    let quad = find(4, true);
    assert!(
        single.coord_utilization > 0.9,
        "singleton coordinator should saturate at mp=1.0 (got {:.0}%)",
        single.coord_utilization * 100.0
    );
    assert!(
        double.throughput_tps > 1.6 * single.throughput_tps,
        "2 aligned shards should ~double the singleton ({:.0} vs {:.0} tps)",
        double.throughput_tps,
        single.throughput_tps
    );
    assert!(
        quad.throughput_tps > 1.6 * double.throughput_tps,
        "4 aligned shards should ~double 2 ({:.0} vs {:.0} tps)",
        quad.throughput_tps,
        double.throughput_tps
    );
    let unaligned = find(2, false);
    assert!(
        unaligned.cross_coord_waits > 0,
        "unaligned sharding must exhibit cross-shard waits"
    );
    assert!(
        unaligned.throughput_tps < 1.5 * single.throughput_tps,
        "unaligned sharding should NOT scale like aligned ({:.0} vs {:.0} tps) —          that's the dependency protocol breaking, not a regression",
        unaligned.throughput_tps,
        single.throughput_tps
    );
}

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_default();
    if mode == "multi-coord-smoke" {
        multi_coord_smoke();
        return;
    }
    let smoke = mode == "ci-smoke";

    let mut sim_rows = Vec::new();
    let (mp_points, client_points): (&[f64], &[u32]) = if smoke {
        (&[0.5, 1.0], &[128])
    } else {
        (&[0.2, 0.5, 1.0], &[128, 512])
    };
    for &scheme in &[Scheme::Speculative, Scheme::Blocking] {
        for &clients in client_points {
            for &mp in mp_points {
                for &aligned in &[true, false] {
                    for n in [1u32, 2, 4] {
                        sim_rows.push(sim_point(scheme, n, mp, clients, aligned));
                    }
                }
            }
        }
    }
    assert_sharding_beats_singleton(&sim_rows);

    let mut live_rows = Vec::new();
    if !smoke {
        let window = (Duration::from_millis(100), Duration::from_millis(400));
        for clients in [64u32, 256, 512] {
            for n in [1u32, 2, 4] {
                live_rows.push(live_point(n, clients, window));
            }
        }
        for n in [1u32, 2] {
            live_rows.push(tpcc_stress_point(n, 64, window));
        }
    }

    tables(&sim_rows, &live_rows);
    let out = json(
        &sim_rows,
        &live_rows,
        if smoke { "ci-smoke" } else { "full" },
    );
    if smoke {
        println!("\n{out}");
        println!("coord-scale smoke passed: singleton saturates at mp=1.0, sharding beats it.");
    } else {
        std::fs::write("BENCH_PR4.json", &out).expect("write BENCH_PR4.json");
        println!(
            "\nwrote BENCH_PR4.json ({} sim + {} live runs)",
            sim_rows.len(),
            live_rows.len()
        );
    }
}
