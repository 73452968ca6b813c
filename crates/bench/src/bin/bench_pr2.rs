//! PR 2 bench harness: the runtime under a growing client count.
//!
//! Sweeps closed-loop client counts (8 → 1024) over the microbenchmark
//! and the full-mix TPC-C workload on a 4-worker pool, and reports
//! throughput plus p50/p99/p999 commit latency per scheme. Writes the
//! full matrix to `BENCH_PR2.json`.
//!
//! Usage:
//!   cargo run --release -p hcc-bench --bin bench_pr2            # full matrix
//!   cargo run --release -p hcc-bench --bin bench_pr2 ci-smoke   # 2-point CI check
//!   cargo run --release -p hcc-bench --bin bench_pr2 soak       # 512-client multiplexed soak

use hcc_common::{Nanos, Scheme, SystemConfig};
use hcc_runtime::{run, BackendChoice, RuntimeConfig, RuntimeReport};
use hcc_storage::tpcc::consistency;
use hcc_workloads::micro::{MicroConfig, MicroWorkload};
use hcc_workloads::tpcc::{TpccConfig, TpccWorkload};
use std::fmt::Write as _;
use std::time::Duration;

struct Row {
    workload: &'static str,
    scheme: Scheme,
    backend: BackendChoice,
    clients: u32,
    throughput_tps: f64,
    committed: u64,
    retries: u64,
    user_aborts: u64,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
}

fn row<E: hcc_core::ExecutionEngine>(
    workload: &'static str,
    scheme: Scheme,
    backend: BackendChoice,
    clients: u32,
    r: &RuntimeReport<E>,
) -> Row {
    let lat = r.latency();
    Row {
        workload,
        scheme,
        backend,
        clients,
        throughput_tps: r.throughput_tps,
        committed: r.committed,
        retries: r.clients.retries,
        user_aborts: r.clients.user_aborted,
        p50_us: lat.p50.as_micros_f64(),
        p99_us: lat.p99.as_micros_f64(),
        p999_us: lat.p999.as_micros_f64(),
    }
}

fn run_micro(
    scheme: Scheme,
    backend: BackendChoice,
    clients: u32,
    window: (Duration, Duration),
) -> Row {
    let mc = MicroConfig {
        partitions: 2,
        clients,
        mp_fraction: 0.1,
        seed: 7,
        ..Default::default()
    };
    let system = SystemConfig::new(scheme)
        .with_partitions(2)
        .with_clients(clients)
        .with_seed(7);
    let cfg = RuntimeConfig::quick(system, backend).with_window(window.0, window.1);
    let builder = MicroWorkload::new(mc);
    let r = run(cfg, MicroWorkload::new(mc), move |p| {
        builder.build_engine(p)
    });
    row("micro", scheme, backend, clients, &r)
}

fn run_tpcc(
    scheme: Scheme,
    backend: BackendChoice,
    clients: u32,
    window: (Duration, Duration),
) -> Row {
    // Full five-transaction mix (the TpccConfig default), small scale so
    // the per-run load time doesn't dominate the sweep.
    let mut tpcc = TpccConfig::new(4, 2);
    tpcc.scale = hcc_storage::tpcc::TpccScale::tiny();
    let mut system = SystemConfig::new(scheme)
        .with_partitions(2)
        .with_clients(clients)
        .with_seed(7);
    system.lock_timeout = Nanos::from_millis(1);
    let cfg = RuntimeConfig::quick(system, backend).with_window(window.0, window.1);
    let builder = TpccWorkload::new(tpcc);
    let r = run(cfg, TpccWorkload::new(tpcc), move |p| {
        builder.build_engine(p)
    });
    for (i, e) in r.engines.iter().enumerate() {
        if let Err(v) = consistency::check(&e.store) {
            panic!("{backend}/{scheme}: TPC-C P{i} inconsistent: {:?}", &v[..1]);
        }
    }
    row("tpcc_full_mix", scheme, backend, clients, &r)
}

fn json(rows: &[Row], label: &str) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"label\": \"{label}\",");
    s.push_str("  \"runs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"workload\": \"{}\", \"scheme\": \"{}\", \"backend\": \"{}\", \"clients\": {}, \
             \"throughput_tps\": {:.0}, \"committed\": {}, \"retries\": {}, \"user_aborts\": {}, \
             \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"p999_us\": {:.1}}}",
            r.workload,
            r.scheme,
            r.backend,
            r.clients,
            r.throughput_tps,
            r.committed,
            r.retries,
            r.user_aborts,
            r.p50_us,
            r.p99_us,
            r.p999_us
        );
        s.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

fn table(rows: &[Row]) {
    println!(
        "\n{:<14} {:<11} {:<13} {:>7} {:>12} {:>10} {:>10} {:>10}",
        "workload", "scheme", "backend", "clients", "tps", "p50 µs", "p99 µs", "p999 µs"
    );
    for r in rows {
        println!(
            "{:<14} {:<11} {:<13} {:>7} {:>12.0} {:>10.1} {:>10.1} {:>10.1}",
            r.workload,
            r.scheme.to_string(),
            r.backend.to_string(),
            r.clients,
            r.throughput_tps,
            r.p50_us,
            r.p99_us,
            r.p999_us
        );
    }
}

fn soak() {
    // A longer multiplexed run at 512 clients on the fixed 4-worker pool:
    // the CI guard that the reactor neither deadlocks, nor leaks undo
    // buffers, nor corrupts TPC-C state under sustained load.
    let backend = BackendChoice::Multiplexed { workers: 4 };
    for scheme in [Scheme::Speculative, Scheme::Locking] {
        let mut tpcc = TpccConfig::new(4, 2);
        tpcc.scale = hcc_storage::tpcc::TpccScale::tiny();
        let mut system = SystemConfig::new(scheme)
            .with_partitions(2)
            .with_clients(512)
            .with_seed(11);
        system.lock_timeout = Nanos::from_millis(1);
        let cfg = RuntimeConfig::quick(system, backend)
            .with_window(Duration::from_millis(100), Duration::from_millis(1500));
        let builder = TpccWorkload::new(tpcc);
        let r = run(cfg, TpccWorkload::new(tpcc), move |p| {
            builder.build_engine(p)
        });
        assert!(
            r.committed > 500,
            "{scheme}: soak committed only {}",
            r.committed
        );
        for (i, e) in r.engines.iter().enumerate() {
            consistency::check(&e.store)
                .unwrap_or_else(|v| panic!("{scheme}: P{i} inconsistent: {:?}", &v[..1]));
            assert_eq!(e.live_undo_buffers(), 0, "{scheme}: P{i} leaked undo");
        }
        println!(
            "soak {scheme}: {} committed, {:.0} tps, {} — OK",
            r.committed,
            r.throughput_tps,
            r.latency()
        );
    }
    println!("soak passed: 512 clients on 4 workers, state consistent.");
}

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_default();
    if mode == "soak" {
        soak();
        return;
    }
    let smoke = mode == "ci-smoke";
    let (client_counts, window): (&[u32], _) = if smoke {
        (
            &[8, 64],
            (Duration::from_millis(50), Duration::from_millis(150)),
        )
    } else {
        (
            &[8, 64, 256, 1024],
            (Duration::from_millis(100), Duration::from_millis(400)),
        )
    };
    let backend = BackendChoice::Multiplexed { workers: 4 };
    let mut rows = Vec::new();
    for &clients in client_counts {
        for scheme in [Scheme::Speculative, Scheme::Locking] {
            rows.push(run_micro(scheme, backend, clients, window));
            rows.push(run_tpcc(scheme, backend, clients, window));
        }
    }
    table(&rows);
    let out = json(&rows, if smoke { "ci-smoke" } else { "full" });
    if smoke {
        println!("\n{out}");
    } else {
        std::fs::write("BENCH_PR2.json", &out).expect("write BENCH_PR2.json");
        println!("\nwrote BENCH_PR2.json ({} runs)", rows.len());
    }
}
