//! TPC-C on the live runtime: the full five-transaction mix,
//! partitioned by warehouse, with the read-only ITEM table replicated and
//! STOCK vertically partitioned — exactly the paper's §5.5 setup, executed
//! on real OS threads, followed by TPC-C consistency verification.
//!
//! ```text
//! cargo run --release --example tpcc_demo [warehouses] [scheme] [multiplexed[:N]]
//! ```
//!
//! Defaults: 4 warehouses, `speculation`, `multiplexed`. A bad argument is
//! an error, never a silent default.

use hcc::prelude::*;
use hcc::storage::tpcc::consistency;
use hcc::workloads::tpcc::{TpccConfig, TpccWorkload};
use std::time::Duration;

const PARTITIONS: u32 = 2;

/// `[warehouses] [scheme] [backend]`, each optional, each checked.
fn parse_args(args: &[String]) -> Result<(u32, Scheme, BackendChoice), String> {
    if args.len() > 3 {
        return Err(format!("unexpected argument {:?}", args[3]));
    }
    let warehouses = match args.first() {
        None => 4,
        Some(a) => a.parse().ok().filter(|&w| w >= PARTITIONS).ok_or_else(|| {
            format!("bad warehouse count {a:?} (expected an integer >= {PARTITIONS})")
        })?,
    };
    let schemes = [
        Scheme::Blocking,
        Scheme::Speculative,
        Scheme::Locking,
        Scheme::Occ,
    ];
    let scheme = match args.get(1) {
        None => Scheme::Speculative,
        Some(a) => *schemes
            .iter()
            .find(|s| s.name() == a.as_str())
            .ok_or_else(|| {
                format!("unknown scheme {a:?} (expected blocking | speculation | locking | occ)")
            })?,
    };
    let backend = match args.get(2) {
        None => BackendChoice::multiplexed(),
        Some(a) => BackendChoice::parse(a)?,
    };
    Ok((warehouses, scheme, backend))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (warehouses, scheme, backend) = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("tpcc_demo: {e}");
        std::process::exit(2);
    });

    println!(
        "TPC-C: {warehouses} warehouses over {PARTITIONS} partitions, scheme = {scheme}, backend = {backend}"
    );
    let tpcc = TpccConfig::new(warehouses, PARTITIONS);
    println!(
        "  loading ({} items, {} districts/warehouse, {} customers/district)...",
        tpcc.scale.items, tpcc.scale.districts_per_warehouse, tpcc.scale.customers_per_district
    );

    let mut system = SystemConfig::new(scheme)
        .with_partitions(PARTITIONS)
        .with_clients(16);
    system.lock_timeout = Nanos::from_millis(1);
    let cfg = RuntimeConfig::new(system, backend)
        .with_window(Duration::from_millis(200), Duration::from_secs(1));

    let builder = TpccWorkload::new(tpcc);
    let report = run(cfg, TpccWorkload::new(tpcc), move |p| {
        builder.build_engine(p)
    });

    println!("\n  committed (1s window) : {}", report.committed);
    println!(
        "  throughput            : {:.0} txn/s",
        report.throughput_tps
    );
    println!("  latency               : {}", report.latency());
    println!(
        "  user aborts           : {} (1% invalid-item new-orders)",
        report.clients.user_aborted
    );
    println!(
        "  retries               : {} (deadlock victims / timeouts)",
        report.clients.retries
    );
    println!("  fast-path txns        : {}", report.sched.fast_path);
    println!(
        "  speculative execs     : {}",
        report.sched.speculative_executions
    );
    println!("  local deadlocks       : {}", report.sched.local_deadlocks);
    println!("  lock timeouts         : {}", report.sched.lock_timeouts);

    // TPC-C consistency conditions (clause 3.3.2) on the final state of
    // every partition: W_YTD = Σ D_YTD, order-id continuity, NEW-ORDER /
    // ORDER pairing, order-line counts.
    print!("\n  verifying TPC-C consistency conditions... ");
    let mut ok = true;
    for (i, engine) in report.engines.iter().enumerate() {
        if let Err(violations) = consistency::check(&engine.store) {
            ok = false;
            println!("\n  partition {i} VIOLATIONS:");
            for v in violations.iter().take(5) {
                println!("    {v}");
            }
        }
    }
    if ok {
        println!("all conditions hold on every partition.");
    } else {
        std::process::exit(1);
    }
}
