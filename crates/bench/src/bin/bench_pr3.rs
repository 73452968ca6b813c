//! PR 3 bench harness: replication overhead and failover availability.
//!
//! Two questions, measured on the live runtime:
//!
//! 1. **What does replication cost?** Throughput + tail latency for
//!    k = 0/1/2 backups per partition (replication factor 1/2/3), on the
//!    microbenchmark and the YCSB read-mostly Zipfian workload, on a
//!    4-worker pool. With k ≥ 1 every committed single-partition result is
//!    held until its commit record is acked by all backups (§2.2), so the
//!    overhead shows up in latency as well as throughput.
//! 2. **How fast is failover + §3.3 recovery?** Kill a primary after a
//!    fixed number of commits, promote its backup, rejoin the dead node
//!    from a snapshot, and measure crash → rejoined wall time plus the
//!    convergence invariants.
//!
//! Usage:
//!   cargo run --release -p hcc-bench --bin bench_pr3                  # full matrix → BENCH_PR3.json
//!   cargo run --release -p hcc-bench --bin bench_pr3 ci-smoke        # quick overhead check (gating)
//!   cargo run --release -p hcc-bench --bin bench_pr3 failover-smoke  # kill/recover + state equality (gating)

use hcc_common::{FailurePlan, PartitionId, Scheme, SystemConfig};
use hcc_core::ExecutionEngine;
use hcc_runtime::{run, BackendChoice, RuntimeConfig, RuntimeReport};
use hcc_workloads::micro::{MicroConfig, MicroWorkload};
use hcc_workloads::ycsb::{YcsbConfig, YcsbWorkload};
use std::fmt::Write as _;
use std::time::Duration;

struct Row {
    workload: &'static str,
    backend: BackendChoice,
    backups: u32,
    clients: u32,
    throughput_tps: f64,
    committed: u64,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
    records_shipped: u64,
}

struct FailoverRow {
    workload: &'static str,
    backups: u32,
    time_to_recover_ms: f64,
    bounced_txns: u64,
    converged: bool,
}

fn row<E: ExecutionEngine>(
    workload: &'static str,
    backend: BackendChoice,
    backups: u32,
    clients: u32,
    r: &RuntimeReport<E>,
) -> Row {
    let lat = r.latency();
    Row {
        workload,
        backend,
        backups,
        clients,
        throughput_tps: r.throughput_tps,
        committed: r.committed,
        p50_us: lat.p50.as_micros_f64(),
        p99_us: lat.p99.as_micros_f64(),
        p999_us: lat.p999.as_micros_f64(),
        records_shipped: r.replication.records_shipped,
    }
}

fn micro_overhead(
    backend: BackendChoice,
    backups: u32,
    clients: u32,
    window: (Duration, Duration),
) -> Row {
    let mc = MicroConfig {
        partitions: 2,
        clients,
        mp_fraction: 0.1,
        seed: 3,
        ..Default::default()
    };
    let system = SystemConfig::new(Scheme::Speculative)
        .with_partitions(2)
        .with_clients(clients)
        .with_seed(3)
        .with_replication(backups + 1);
    let cfg = RuntimeConfig::quick(system, backend).with_window(window.0, window.1);
    let builder = MicroWorkload::new(mc);
    let r = run(cfg, MicroWorkload::new(mc), move |p| {
        builder.build_engine(p)
    });
    assert_eq!(r.replication.replay_failures, 0, "replay must be clean");
    row("micro", backend, backups, clients, &r)
}

fn ycsb_overhead(
    backend: BackendChoice,
    backups: u32,
    clients: u32,
    window: (Duration, Duration),
) -> Row {
    let yc = YcsbConfig {
        partitions: 2,
        clients,
        seed: 3,
        ..Default::default()
    };
    let system = SystemConfig::new(Scheme::Speculative)
        .with_partitions(2)
        .with_clients(clients)
        .with_seed(3)
        .with_replication(backups + 1);
    let cfg = RuntimeConfig::quick(system, backend).with_window(window.0, window.1);
    let builder = YcsbWorkload::new(yc);
    let r = run(cfg, YcsbWorkload::new(yc), move |p| builder.build_engine(p));
    assert_eq!(r.replication.replay_failures, 0, "replay must be clean");
    row("ycsb_read_mostly", backend, backups, clients, &r)
}

/// One kill → promote → recover run (fixed work, multiplexed); returns the
/// measured recovery time and the convergence verdict.
fn failover_run(backups: u32, after_commits: u64) -> FailoverRow {
    let clients = 32u32;
    let requests = 60u64;
    let yc = YcsbConfig {
        partitions: 2,
        clients,
        keys_per_partition: 2048,
        read_fraction: 0.9,
        mp_fraction: 0.0,
        seed: 0xF0,
        ..Default::default()
    };
    let system = SystemConfig::new(Scheme::Speculative)
        .with_partitions(2)
        .with_clients(clients)
        .with_seed(0xF0)
        .with_replication(backups + 1);
    let cfg =
        RuntimeConfig::fixed_work(system, BackendChoice::Multiplexed { workers: 4 }, requests)
            .with_failure(FailurePlan {
                partition: PartitionId(0),
                after_commits,
            });
    let builder = YcsbWorkload::new(yc);
    let r = run(cfg, YcsbWorkload::new(yc), move |p| builder.build_engine(p));
    assert_eq!(r.clients.committed, clients as u64 * requests);
    assert_eq!(r.replication.promotions, 1);
    assert_eq!(r.replication.recoveries, 1);
    assert_eq!(r.replication.replay_failures, 0);
    let converged = r
        .backups
        .chunks(backups as usize)
        .enumerate()
        .all(|(g, group)| {
            group
                .iter()
                .all(|b| b.fingerprint() == r.engines[g].fingerprint())
        });
    assert!(
        converged,
        "k={backups}: a replica diverged from its group's primary after failover"
    );
    FailoverRow {
        workload: "ycsb_sp_only",
        backups,
        time_to_recover_ms: r
            .replication
            .time_to_recover()
            .expect("failure injected")
            .as_micros_f64()
            / 1000.0,
        bounced_txns: r.replication.failover_bounces,
        converged,
    }
}

/// The CI failure-injection smoke (gating): kill one primary mid-run on a
/// 4-worker pool; the run must converge AND — because the
/// workload is single-partition-only with commutative updates — finish
/// with committed state bit-identical to a run with no failure at all.
fn failover_smoke() {
    let clients = 24u32;
    let requests = 50u64;
    let yc = YcsbConfig {
        partitions: 2,
        clients,
        keys_per_partition: 1024,
        read_fraction: 0.8,
        mp_fraction: 0.0,
        seed: 0x57,
        ..Default::default()
    };
    let run_once = |failure: Option<FailurePlan>| {
        let system = SystemConfig::new(Scheme::Speculative)
            .with_partitions(2)
            .with_clients(clients)
            .with_seed(0x57)
            .with_replication(2);
        let mut cfg =
            RuntimeConfig::fixed_work(system, BackendChoice::Multiplexed { workers: 4 }, requests);
        cfg.failure = failure;
        let builder = YcsbWorkload::new(yc);
        let r = run(cfg, YcsbWorkload::new(yc), move |p| builder.build_engine(p));
        assert_eq!(
            r.clients.committed,
            clients as u64 * requests,
            "failover lost or duplicated client work"
        );
        assert_eq!(r.replication.replay_failures, 0);
        r
    };
    let clean = run_once(None);
    let failed = run_once(Some(FailurePlan {
        partition: PartitionId(1),
        after_commits: 200,
    }));
    assert_eq!(failed.replication.promotions, 1, "the kill must have fired");
    assert_eq!(failed.replication.recoveries, 1);
    for g in 0..2usize {
        assert_eq!(
            failed.engines[g].fingerprint(),
            failed.backups[g].fingerprint(),
            "group {g}: recovered replica diverged from promoted primary"
        );
        assert_eq!(
            failed.engines[g].fingerprint(),
            clean.engines[g].fingerprint(),
            "group {g}: failover changed committed state vs the no-failure run"
        );
    }
    println!(
        "failover smoke passed: kill→promote→recover in {:.2} ms, {} txns bounced, \
         state identical to the no-failure run.",
        failed
            .replication
            .time_to_recover()
            .expect("failure injected")
            .as_micros_f64()
            / 1000.0,
        failed.replication.failover_bounces,
    );
}

fn json(rows: &[Row], failovers: &[FailoverRow], label: &str) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"label\": \"{label}\",");
    s.push_str("  \"replication_overhead\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"workload\": \"{}\", \"backend\": \"{}\", \"backups\": {}, \"clients\": {}, \
             \"throughput_tps\": {:.0}, \"committed\": {}, \"records_shipped\": {}, \
             \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"p999_us\": {:.1}}}",
            r.workload,
            r.backend,
            r.backups,
            r.clients,
            r.throughput_tps,
            r.committed,
            r.records_shipped,
            r.p50_us,
            r.p99_us,
            r.p999_us
        );
        s.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n  \"failover\": [\n");
    for (i, f) in failovers.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"workload\": \"{}\", \"backups\": {}, \"time_to_recover_ms\": {:.3}, \
             \"bounced_txns\": {}, \"converged\": {}}}",
            f.workload, f.backups, f.time_to_recover_ms, f.bounced_txns, f.converged
        );
        s.push_str(if i + 1 < failovers.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

fn table(rows: &[Row], failovers: &[FailoverRow]) {
    println!(
        "\n{:<18} {:<13} {:>7} {:>7} {:>12} {:>10} {:>10} {:>10}",
        "workload", "backend", "backups", "clients", "tps", "p50 µs", "p99 µs", "p999 µs"
    );
    for r in rows {
        println!(
            "{:<18} {:<13} {:>7} {:>7} {:>12.0} {:>10.1} {:>10.1} {:>10.1}",
            r.workload,
            r.backend.to_string(),
            r.backups,
            r.clients,
            r.throughput_tps,
            r.p50_us,
            r.p99_us,
            r.p999_us
        );
    }
    if !failovers.is_empty() {
        println!(
            "\n{:<18} {:>7} {:>18} {:>12} {:>10}",
            "failover", "backups", "recover (ms)", "bounced", "converged"
        );
        for f in failovers {
            println!(
                "{:<18} {:>7} {:>18.3} {:>12} {:>10}",
                f.workload, f.backups, f.time_to_recover_ms, f.bounced_txns, f.converged
            );
        }
    }
}

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_default();
    if mode == "failover-smoke" {
        failover_smoke();
        return;
    }
    let smoke = mode == "ci-smoke";
    let (clients, window, k_values): (u32, _, &[u32]) = if smoke {
        (
            32,
            (Duration::from_millis(50), Duration::from_millis(150)),
            &[0, 1],
        )
    } else {
        (
            64,
            (Duration::from_millis(100), Duration::from_millis(400)),
            &[0, 1, 2],
        )
    };
    let backend = BackendChoice::Multiplexed { workers: 4 };
    let mut rows = Vec::new();
    for &k in k_values {
        rows.push(micro_overhead(backend, k, clients, window));
        rows.push(ycsb_overhead(backend, k, clients, window));
    }
    let failovers: Vec<FailoverRow> = if smoke {
        vec![failover_run(1, 100)]
    } else {
        vec![
            failover_run(1, 100),
            failover_run(1, 400),
            failover_run(2, 100),
        ]
    };
    table(&rows, &failovers);
    let out = json(&rows, &failovers, if smoke { "ci-smoke" } else { "full" });
    if smoke {
        println!("\n{out}");
    } else {
        std::fs::write("BENCH_PR3.json", &out).expect("write BENCH_PR3.json");
        println!("\nwrote BENCH_PR3.json ({} runs)", rows.len());
    }
}
