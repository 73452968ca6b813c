//! Live per-partition scheme switching (ISSUE 10, the paper's §5.7
//! closed loop), end to end: the adaptive controller must actually
//! switch when the workload's winning scheme changes mid-run, stay put
//! when the incumbent already wins, stay bit-deterministic in the
//! simulator, agree across both runtime backends on committed state,
//! and survive a primary kill mid-run with the promoted replica
//! resuming in the same scheme at the same transition epoch.

use hcc::prelude::*;
use hcc::workloads::phased::PhasedMicroWorkload;
use hcc_common::AdaptiveConfig;

/// Aggressive controller settings for short test runs: a 5% margin and
/// 64-outcome windows so a phase of a few hundred transactions closes
/// enough windows to reach the 3-consecutive-verdicts bar.
fn fast_adaptive() -> AdaptiveConfig {
    AdaptiveConfig::Model {
        margin: 0.05,
        window: 64,
    }
}

fn phased_system(start: Scheme, clients: u32, seed: u64) -> SystemConfig {
    SystemConfig::new(start)
        .with_partitions(2)
        .with_clients(clients)
        .with_seed(seed)
        .with_adaptive(fast_adaptive())
}

/// One adaptive simulator run on the standard three-phase schedule.
/// Returns everything observable: counts, the switch log, adaptive
/// stats, and the final per-partition fingerprints.
fn sim_phased(start: Scheme, seed: u64) -> (u64, u64, AdaptiveStats, Vec<u64>) {
    let clients = 24;
    let system = phased_system(start, clients, seed);
    let cfg = SimConfig::new(system).with_window(Nanos::from_millis(20), Nanos::from_millis(250));
    let builder = PhasedMicroWorkload::standard(2, clients, seed, 40);
    let (r, _, engines, _) = Simulation::new(
        cfg,
        PhasedMicroWorkload::standard(2, clients, seed, 40),
        move |p| builder.build_engine(p),
    )
    .run();
    (
        r.committed,
        r.retries,
        r.adaptive,
        engines.iter().map(|e| e.fingerprint()).collect(),
    )
}

/// The controller tracks the phase schedule: starting from a scheme
/// that loses phase 1 outright, at least one live switch must happen,
/// the run must stay healthy, and time must be spent in more than one
/// scheme.
#[test]
fn adaptive_sim_switches_on_phase_shift() {
    // Phase 1 (mp 0.3, conflict 0.8) is speculation country; starting
    // pinned to Blocking forces the controller to act.
    let (committed, _, adaptive, _) = sim_phased(Scheme::Blocking, 0xA11CE);
    assert!(committed > 500, "throughput collapsed: {committed}");
    assert!(
        adaptive.windows_evaluated > 0,
        "controller never closed a window"
    );
    assert!(
        adaptive.switches >= 1,
        "no live switch despite a losing incumbent (windows={})",
        adaptive.windows_evaluated
    );
    assert_eq!(
        adaptive.switches as usize,
        adaptive.switch_log.len(),
        "switch log out of sync with the counter"
    );
    let resident = adaptive
        .residency_fractions()
        .iter()
        .filter(|f| **f > 0.01)
        .count();
    assert!(
        resident >= 2,
        "switched but spent all time in one scheme: {:?}",
        adaptive.residency_fractions()
    );
    // Epochs are dense per partition from 1.
    for p in [0u32, 1] {
        let epochs: Vec<u32> = adaptive
            .switch_log
            .iter()
            .filter(|s| s.partition == p)
            .map(|s| s.epoch)
            .collect();
        let expect: Vec<u32> = (1..=epochs.len() as u32).collect();
        assert_eq!(epochs, expect, "P{p}: transition epochs not dense");
    }
}

/// Virtual time: an adaptive run is as deterministic as a pinned one.
/// Two identical runs must agree on everything, including the switch
/// log's (partition, epoch, scheme, at_ns) tuples.
#[test]
fn adaptive_sim_is_bit_deterministic() {
    let a = sim_phased(Scheme::Blocking, 0xD5EED);
    let b = sim_phased(Scheme::Blocking, 0xD5EED);
    assert_eq!(a.0, b.0, "committed diverged");
    assert_eq!(a.1, b.1, "retries diverged");
    assert_eq!(a.2.switch_log, b.2.switch_log, "switch history diverged");
    assert_eq!(a.2.switches, b.2.switches);
    assert_eq!(a.2.held_fragments, b.2.held_fragments);
    assert_eq!(a.3, b.3, "final state diverged");
}

/// Adaptive off is the pre-adaptive system: the report section must be
/// empty (no controller overhead, no phantom switches) and a pinned
/// run's committed state must be untouched by the feature existing.
#[test]
fn adaptive_off_report_is_empty() {
    let run = |scheme| {
        let clients = 16;
        let system = SystemConfig::new(scheme)
            .with_partitions(2)
            .with_clients(clients)
            .with_seed(7);
        let cfg =
            SimConfig::new(system).with_window(Nanos::from_millis(20), Nanos::from_millis(120));
        let builder = PhasedMicroWorkload::standard(2, clients, 7, 40);
        let (r, _, engines, _) = Simulation::new(
            cfg,
            PhasedMicroWorkload::standard(2, clients, 7, 40),
            move |p| builder.build_engine(p),
        )
        .run();
        (r, engines)
    };
    for scheme in [
        Scheme::Blocking,
        Scheme::Speculative,
        Scheme::Locking,
        Scheme::Occ,
    ] {
        let (r, _) = run(scheme);
        assert_eq!(r.adaptive.switches, 0, "{scheme}: phantom switch");
        assert_eq!(
            r.adaptive.windows_evaluated, 0,
            "{scheme}: controller ran while off"
        );
        assert!(r.adaptive.switch_log.is_empty(), "{scheme}");
        assert!(r.committed > 0, "{scheme}");
    }
}

/// Fixed-work runtime runs with adaptive on: every pool size must land
/// the single-worker run's committed state bit for bit. Switch *points* are
/// interleaving-dependent in a live runtime (windows close on whatever
/// outcome order the host produced), but all four schemes are
/// serializable over commutative key-disjoint effects, so the final
/// store must not care which scheme committed which transaction.
#[test]
fn adaptive_runtime_backends_agree_on_committed_state() {
    let fingerprints = |backend: BackendChoice| {
        let clients = 16;
        let per_phase = 30;
        let builder = PhasedMicroWorkload::standard(2, clients, 0xBEEF, per_phase);
        let requests = builder.total_requests_per_client();
        let system = phased_system(Scheme::Blocking, clients, 0xBEEF);
        let cfg = RuntimeConfig::fixed_work(system, backend, requests);
        let r = run(
            cfg,
            PhasedMicroWorkload::standard(2, clients, 0xBEEF, per_phase),
            move |p| builder.build_engine(p),
        );
        assert_eq!(
            r.clients.committed + r.clients.user_aborted,
            clients as u64 * requests,
            "{backend}: wrong amount of work performed"
        );
        for (i, e) in r.engines.iter().enumerate() {
            assert_eq!(
                e.live_undo_buffers(),
                0,
                "{backend}: P{i} leaked undo buffers"
            );
        }
        assert_eq!(r.sched.stray_decisions, 0, "{backend}: stray decision");
        r.engines
            .iter()
            .map(|e| e.fingerprint())
            .collect::<Vec<_>>()
    };
    let one = fingerprints(BackendChoice::Multiplexed { workers: 1 });
    for workers in [2usize, 4] {
        let pool = fingerprints(BackendChoice::Multiplexed { workers });
        assert_eq!(
            one, pool,
            "adaptive committed state diverged at {workers} workers"
        );
    }
}

/// Kill the primary mid-run while the controller is live: the promoted
/// replica must resume in the incumbent scheme at the incumbent
/// transition epoch (it replays the commit log's `SchemeSwitch` stamps),
/// the rejoined node must converge, and the whole scenario must be
/// bit-deterministic.
#[test]
fn adaptive_failover_resumes_scheme_and_stays_deterministic() {
    let run_once = || {
        let clients = 24;
        let seed = 0xFA11;
        let system = phased_system(Scheme::Blocking, clients, seed);
        let cfg = SimConfig::new(system)
            .with_window(Nanos::from_millis(20), Nanos::from_millis(250))
            .with_failover(
                // Late enough that phase 1 has typically forced a switch
                // before the kill, so the promotion actually exercises
                // scheme resume rather than the epoch-0 default.
                Nanos::from_millis(120),
                PartitionId(1),
                Nanos::from_millis(30),
            );
        let builder = PhasedMicroWorkload::standard(2, clients, seed, 40);
        let (report, _, engines, replicas) = Simulation::new(
            cfg,
            PhasedMicroWorkload::standard(2, clients, seed, 40),
            move |p| builder.build_engine(p),
        )
        .run();
        let replicas = replicas.expect("failover implies replicas");
        (
            report.committed,
            report.replication,
            report.adaptive,
            engines.iter().map(|e| e.fingerprint()).collect::<Vec<_>>(),
            replicas.iter().map(|e| e.fingerprint()).collect::<Vec<_>>(),
        )
    };
    let (committed, repl, adaptive, primaries, replicas) = run_once();
    assert!(committed > 500, "throughput collapsed: {committed}");
    assert_eq!(repl.promotions, 1);
    assert_eq!(repl.recoveries, 1);
    assert_eq!(
        repl.replay_failures, 0,
        "replicas must replay the commit log (switch stamps included) cleanly"
    );
    assert!(
        adaptive.switches >= 1,
        "scenario never switched; the failover resume path went unexercised"
    );
    for (g, (p, r)) in primaries.iter().zip(replicas.iter()).enumerate() {
        assert_eq!(
            p, r,
            "group {g}: recovered replica diverged from promoted primary"
        );
    }
    let again = run_once();
    assert_eq!(
        (committed, repl, adaptive.switch_log, primaries, replicas),
        (again.0, again.1, again.2.switch_log, again.3, again.4),
        "adaptive failover must be bit-deterministic"
    );
}
