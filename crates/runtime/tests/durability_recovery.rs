//! End-to-end durability on the live runtimes: a fixed-work run with the
//! durable command log enabled must leave, for every partition group, a
//! log whose replay rebuilds the primary's final state bit-for-bit — on
//! one worker and on a pool, for all four schemes. Plus the prefix property behind
//! the crash-point sweep: *every* prefix of the log is a valid recovery
//! point (recovery is monotone in the durable watermark), and a torn tail
//! is discarded, never applied and never fatal.

use hcc_common::codec::encode_to_vec;
use hcc_common::{CommitRecord, DurabilityConfig, LogEncode, Scheme, SystemConfig};
use hcc_core::{recover_partition, ReplicaCore};
use hcc_runtime::{run, BackendChoice, RuntimeConfig, RuntimeReport};
use hcc_storage::decode_frames;
use hcc_storage::durable::frame;
use hcc_workloads::micro::{MicroConfig, MicroEngine, MicroFragment, MicroWorkload};

const SCHEMES: [Scheme; 4] = [
    Scheme::Blocking,
    Scheme::Speculative,
    Scheme::Locking,
    Scheme::Occ,
];

fn micro() -> MicroConfig {
    MicroConfig {
        partitions: 2,
        clients: 12,
        mp_fraction: 0.25,
        abort_prob: 0.05,
        seed: 0xD0C5,
        ..Default::default()
    }
}

fn durable_run(scheme: Scheme, backend: BackendChoice) -> RuntimeReport<MicroEngine> {
    let mc = micro();
    let system = SystemConfig::new(scheme)
        .with_partitions(2)
        .with_clients(12)
        .with_seed(0xD0C5)
        .with_durability(DurabilityConfig::default());
    let cfg = RuntimeConfig::fixed_work(system, backend, 20);
    let builder = MicroWorkload::new(mc);
    run(cfg, MicroWorkload::new(mc), move |p| {
        builder.build_engine(p)
    })
}

fn build_engine(g: usize) -> MicroEngine {
    MicroWorkload::new(micro()).build_engine(hcc_common::PartitionId(g as u32))
}

fn check_run(scheme: Scheme, backend: BackendChoice) {
    let r = durable_run(scheme, backend);
    assert_eq!(
        r.clients.committed + r.clients.user_aborted,
        12 * 20,
        "{backend}/{scheme}: wrong amount of work"
    );
    assert!(
        r.durability.records_appended > 0,
        "{backend}/{scheme}: nothing was logged"
    );
    assert!(
        r.durability.syncs > 0,
        "{backend}/{scheme}: log never synced"
    );
    for (g, log) in r.logs.iter().enumerate() {
        let image = log
            .as_ref()
            .unwrap_or_else(|| panic!("{backend}/{scheme}: group {g} has no log"));
        let out = recover_partition(build_engine(g), 0, image)
            .unwrap_or_else(|e| panic!("{backend}/{scheme}: group {g} recovery failed: {e}"));
        assert!(!out.torn_tail, "{backend}/{scheme}: clean shutdown torn");
        assert_eq!(
            out.engine.fingerprint(),
            r.engines[g].fingerprint(),
            "{backend}/{scheme}: group {g} log replay diverged from live state"
        );
        assert_eq!(
            out.replica.watermark(),
            out.records_applied,
            "{backend}/{scheme}: group {g} recovered from birth state"
        );
    }
}

#[test]
fn durable_log_replays_to_live_state_single_worker() {
    for scheme in SCHEMES {
        check_run(scheme, BackendChoice::Multiplexed { workers: 1 });
    }
}

#[test]
fn durable_log_replays_to_live_state_multiplexed() {
    for scheme in SCHEMES {
        check_run(scheme, BackendChoice::Multiplexed { workers: 4 });
    }
}

/// Every prefix of a real run's log is a valid recovery point: re-frame
/// the first k records, recover from that image alone, and check the
/// result against an independent serial replay of the same k records.
#[test]
fn every_log_prefix_is_a_valid_recovery_point() {
    let r = durable_run(
        Scheme::Speculative,
        BackendChoice::Multiplexed { workers: 1 },
    );
    for (g, log) in r.logs.iter().enumerate() {
        let image = log.as_ref().expect("durability on");
        let (payloads, torn) = decode_frames(image);
        assert!(!torn, "clean shutdown image must not be torn");
        assert!(payloads.len() > 4, "group {g}: log too short to sweep");

        // The serial oracle applies decoded records directly, no framing.
        let mut oracle_engine = build_engine(g);
        let mut oracle = ReplicaCore::new();
        let mut prefix = Vec::new();
        for k in 0..=payloads.len() {
            if k > 0 {
                let record: CommitRecord<MicroFragment> = {
                    let mut input = &payloads[k - 1][..];
                    let r = CommitRecord::decode(&mut input).expect("payload decodes");
                    assert!(input.is_empty(), "trailing bytes in record");
                    r
                };
                oracle.apply(&mut oracle_engine, &record).expect("oracle");
                // Round-trip fidelity: re-encoding reproduces the payload.
                assert_eq!(encode_to_vec(&record), payloads[k - 1]);
                frame(&payloads[k - 1], &mut prefix);
            }
            let out = recover_partition(build_engine(g), 0, &prefix)
                .unwrap_or_else(|e| panic!("group {g} prefix {k}: {e}"));
            assert_eq!(out.records_applied, k as u64, "group {g} prefix {k}");
            assert!(!out.torn_tail, "group {g} prefix {k}");
            assert_eq!(
                out.engine.fingerprint(),
                oracle_engine.fingerprint(),
                "group {g}: prefix {k} diverged from serial replay"
            );
        }
    }
}

/// A crash mid-append leaves a half-written trailing frame: recovery must
/// discard it and land exactly on the previous record's state.
#[test]
fn torn_tail_of_a_real_log_is_discarded() {
    let r = durable_run(Scheme::Blocking, BackendChoice::Multiplexed { workers: 1 });
    let image = r.logs[0].as_ref().expect("durability on");
    let (payloads, _) = decode_frames(image);
    let n = payloads.len();
    assert!(n > 2);

    // Rebuild the full image, then tear the last frame at every possible
    // byte boundary (header-only, mid-checksum, mid-payload...).
    let mut intact = Vec::new();
    for p in &payloads[..n - 1] {
        frame(p, &mut intact);
    }
    let mut last = Vec::new();
    frame(&payloads[n - 1], &mut last);
    let want = recover_partition(build_engine(0), 0, &intact)
        .unwrap()
        .engine
        .fingerprint();
    for cut in 1..last.len() {
        let mut torn_image = intact.clone();
        torn_image.extend_from_slice(&last[..cut]);
        let out = recover_partition(build_engine(0), 0, &torn_image)
            .unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        assert!(out.torn_tail, "cut {cut}: torn frame not detected");
        assert_eq!(out.records_applied, n as u64 - 1, "cut {cut}");
        assert_eq!(out.engine.fingerprint(), want, "cut {cut}");
    }
}

/// With durability off, the report carries no logs and zero counters —
/// the hot path pays nothing (the golden determinism suites pin the
/// committed state itself).
#[test]
fn durability_off_leaves_no_trace() {
    let mc = micro();
    let system = SystemConfig::new(Scheme::Speculative)
        .with_partitions(2)
        .with_clients(12)
        .with_seed(0xD0C5);
    let cfg = RuntimeConfig::fixed_work(system, BackendChoice::Multiplexed { workers: 1 }, 10);
    let builder = MicroWorkload::new(mc);
    let r = run(cfg, MicroWorkload::new(mc), move |p| {
        builder.build_engine(p)
    });
    assert!(r.logs.iter().all(Option::is_none));
    assert_eq!(r.durability.records_appended, 0);
    assert_eq!(r.durability.syncs, 0);
    assert_eq!(r.durability.results_held, 0);
}
