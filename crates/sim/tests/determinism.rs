//! The simulator is a pure function of (config, workload seed): identical
//! runs produce identical results, and different seeds differ. This is
//! what makes every figure in EXPERIMENTS.md exactly reproducible.

use hcc_common::{Nanos, Scheme, SystemConfig};
use hcc_sim::{SimConfig, Simulation};
use hcc_workloads::micro::{MicroConfig, MicroWorkload};

fn run(scheme: Scheme, seed: u64) -> (u64, u64, u64, Vec<u64>) {
    let micro = MicroConfig {
        mp_fraction: 0.3,
        abort_prob: 0.05,
        seed,
        ..Default::default()
    };
    let system = SystemConfig::new(scheme)
        .with_partitions(2)
        .with_clients(40)
        .with_seed(seed);
    let cfg = SimConfig::new(system).with_window(Nanos::from_millis(20), Nanos::from_millis(100));
    let builder = MicroWorkload::new(micro);
    let (r, _, engines, _) = Simulation::new(cfg, MicroWorkload::new(micro), move |p| {
        builder.build_engine(p)
    })
    .run();
    (
        r.committed,
        r.events_processed,
        r.user_aborts,
        engines.iter().map(|e| e.fingerprint()).collect(),
    )
}

/// Golden values for [`golden_fixed_seed_results_survive_fast_path_rewrite`].
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    committed: u64,
    user_aborts: u64,
    retries: u64,
    committed_mp: u64,
    /// Final primary-store fingerprint per partition (the shadow replica
    /// must match it too, which the test checks separately).
    fingerprints: [u64; 2],
    /// p50/p99/p999 of committed-transaction latency, in virtual
    /// nanoseconds — pins the whole latency *distribution* shape, proving
    /// the histogram is a deterministic function of the seed (the property
    /// the runtime's tail-latency tables inherit).
    latency_ns: [u64; 3],
}

/// Perf-neutrality guard for the PR 1 fast-path rewrite (and any future
/// hot-path work): for a fixed RNG seed the simulation must produce
/// *bit-identical* results — same committed/aborted/retry counts, same
/// final store state on every partition, and primary == shadow replica.
///
/// The constants were captured on the naive (std-hasher, allocating)
/// build via `cargo run -p hcc-bench --bin golden_capture`. An
/// optimization that changes them has changed scheduling semantics, not
/// just speed.
#[test]
fn golden_fixed_seed_results_survive_fast_path_rewrite() {
    let golden: [(Scheme, Golden); 4] = [
        (
            Scheme::Blocking,
            Golden {
                committed: 1233,
                user_aborts: 64,
                retries: 0,
                committed_mp: 369,
                fingerprints: [0xc3ff8d43e189e49e, 0xdabe674f6edfa9d0],
                latency_ns: [1_880_000, 2_640_000, 2_790_000],
            },
        ),
        (
            Scheme::Speculative,
            Golden {
                committed: 1664,
                user_aborts: 95,
                retries: 0,
                committed_mp: 490,
                fingerprints: [0x071a68d38466ab12, 0x2ab4536c52d32d43],
                latency_ns: [1_150_000, 4_650_000, 5_250_000],
            },
        ),
        (
            Scheme::Locking,
            Golden {
                committed: 1638,
                user_aborts: 93,
                retries: 0,
                committed_mp: 491,
                fingerprints: [0x4f5d0488ad7672dc, 0x6ee7ef7ba16eb8ab],
                latency_ns: [982_000, 5_670_000, 7_430_000],
            },
        ),
        (
            Scheme::Occ,
            Golden {
                committed: 1632,
                user_aborts: 90,
                retries: 0,
                committed_mp: 486,
                fingerprints: [0x1db00b865ea076f9, 0xcb7903ecf7feb066],
                latency_ns: [1_250_000, 3_710_000, 4_710_000],
            },
        ),
    ];
    for (scheme, expected) in golden {
        let micro = MicroConfig {
            mp_fraction: 0.3,
            abort_prob: 0.05,
            conflict_prob: 0.2,
            clients: 24,
            seed: 0xD5,
            ..Default::default()
        };
        let system = SystemConfig::new(scheme)
            .with_partitions(2)
            .with_clients(24)
            .with_seed(0xD5);
        let cfg = SimConfig::new(system)
            .with_window(Nanos::from_millis(20), Nanos::from_millis(100))
            .with_shadow();
        let builder = MicroWorkload::new(micro);
        let (r, _, engines, shadow) = Simulation::new(cfg, MicroWorkload::new(micro), move |p| {
            builder.build_engine(p)
        })
        .run();
        let shadow = shadow.expect("shadow enabled");
        let got = Golden {
            committed: r.committed,
            user_aborts: r.user_aborts,
            retries: r.retries,
            committed_mp: r.committed_mp,
            fingerprints: [engines[0].fingerprint(), engines[1].fingerprint()],
            latency_ns: {
                let lat = r.latency.summary();
                [lat.p50.0, lat.p99.0, lat.p999.0]
            },
        };
        assert_eq!(
            got, expected,
            "{scheme}: fixed-seed results changed — the rewrite altered semantics"
        );
        for (i, (e, s)) in engines.iter().zip(shadow.iter()).enumerate() {
            assert_eq!(
                e.fingerprint(),
                s.fingerprint(),
                "{scheme}: P{i} primary and shadow replica diverged"
            );
        }
        assert_eq!(
            r.sched.stray_decisions, 0,
            "{scheme}: stray decision in a healthy run"
        );
        assert_eq!(
            r.replication.replay_failures, 0,
            "{scheme}: replica replay must be clean"
        );
    }
}

/// Coordinator scale-out determinism: for each shard count the simulation
/// stays a pure function of the seed (bit-identical reruns), N = 1
/// reproduces the singleton's exact fingerprints (the golden test above
/// pins those), and different shard counts genuinely change the schedule
/// (different interleavings at the partitions) while committing the same
/// workload kinds.
#[test]
fn sharded_coordinators_are_deterministic_per_shard_count() {
    let run_n = |coordinators: u32| {
        let micro = MicroConfig {
            mp_fraction: 0.5,
            abort_prob: 0.05,
            clients: 24,
            seed: 0xC0,
            ..Default::default()
        };
        let system = SystemConfig::new(Scheme::Speculative)
            .with_partitions(2)
            .with_clients(24)
            .with_seed(0xC0)
            .with_coordinators(coordinators);
        let cfg = SimConfig::new(system)
            .with_window(Nanos::from_millis(20), Nanos::from_millis(100))
            .with_shadow();
        let builder = MicroWorkload::new(micro);
        let (r, _, engines, shadow) = Simulation::new(cfg, MicroWorkload::new(micro), move |p| {
            builder.build_engine(p)
        })
        .run();
        let shadow = shadow.expect("shadow enabled");
        for (i, (e, s)) in engines.iter().zip(shadow.iter()).enumerate() {
            assert_eq!(
                e.fingerprint(),
                s.fingerprint(),
                "N={coordinators}: P{i} primary and shadow replica diverged"
            );
        }
        assert_eq!(r.replication.replay_failures, 0, "N={coordinators}");
        (
            r.committed,
            r.user_aborts,
            r.events_processed,
            engines.iter().map(|e| e.fingerprint()).collect::<Vec<_>>(),
        )
    };
    let mut fingerprints = Vec::new();
    for n in [1u32, 2, 4] {
        let a = run_n(n);
        let b = run_n(n);
        assert_eq!(a, b, "N={n}: sharded run must be bit-deterministic");
        assert!(a.0 > 500, "N={n}: throughput collapsed ({})", a.0);
        fingerprints.push(a.3.clone());
    }
    assert_ne!(
        fingerprints[0], fingerprints[1],
        "different shard counts must explore different schedules"
    );
}

#[test]
fn identical_seeds_produce_identical_runs() {
    for scheme in Scheme::ALL {
        let a = run(scheme, 99);
        let b = run(scheme, 99);
        assert_eq!(a, b, "{scheme}: simulation must be deterministic");
    }
}

#[test]
fn different_seeds_produce_different_histories() {
    let a = run(Scheme::Speculative, 1);
    let b = run(Scheme::Speculative, 2);
    assert_ne!(a.3, b.3, "different seeds must explore different histories");
}

#[test]
fn zero_mp_throughput_is_the_t_sp_bound() {
    // 2 partitions × (1 / 64 µs) = 31 250 tps; the simulator should land
    // within 2% (boundary effects only).
    let micro = MicroConfig::default();
    let system = SystemConfig::new(Scheme::Blocking)
        .with_partitions(2)
        .with_clients(40);
    let cfg = SimConfig::new(system).with_window(Nanos::from_millis(50), Nanos::from_millis(500));
    let builder = MicroWorkload::new(micro);
    let (r, _, _, _) = Simulation::new(cfg, MicroWorkload::new(micro), move |p| {
        builder.build_engine(p)
    })
    .run();
    let err = (r.throughput_tps - 31_250.0).abs() / 31_250.0;
    assert!(err < 0.02, "measured {} tps", r.throughput_tps);
    assert!(r.partition_utilization > 0.98, "partitions must saturate");
    assert!(
        r.coordinator_utilization < 0.01,
        "no MP work, no coordinator"
    );
}

#[test]
fn window_length_does_not_change_steady_state() {
    let micro = MicroConfig {
        mp_fraction: 0.2,
        ..Default::default()
    };
    let mut rates = Vec::new();
    for measure in [200u64, 600] {
        let system = SystemConfig::new(Scheme::Speculative)
            .with_partitions(2)
            .with_clients(40);
        let cfg = SimConfig::new(system)
            .with_window(Nanos::from_millis(100), Nanos::from_millis(measure));
        let builder = MicroWorkload::new(micro);
        let (r, _, _, _) = Simulation::new(cfg, MicroWorkload::new(micro), move |p| {
            builder.build_engine(p)
        })
        .run();
        rates.push(r.throughput_tps);
    }
    let diff = (rates[0] - rates[1]).abs() / rates[1];
    assert!(diff < 0.03, "window sensitivity: {rates:?}");
}
