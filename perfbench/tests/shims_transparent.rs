//! The timing shims must not change what the system computes. For each
//! workload, a fixed-work run (every client drives the same number of
//! seed-derived requests to a final outcome) with and without the shims
//! must leave the same committed state and the same outcome counts.
//!
//! The micro workloads commit key-disjoint increments, so their final
//! state does not depend on the interleaving and 40 clients compare
//! exactly. TPC-C state depends on commit order (order ids, stock
//! replenishment), so its state is compared with one client, whose
//! schedule is serial; with 40 clients only the outcome counts compare.

use hcc_runtime::RunMode;
use perfbench::measure::{check, run_live, Shimmed};
use perfbench::workload::{build_all, Micro, Subject, Tpcc};

const REQUESTS: u64 = 40;
const SEED: u64 = 0x5EED;

/// Engine fingerprints, commits and user aborts of one fixed-work run.
#[derive(Debug, PartialEq, Eq)]
struct Result {
    fingerprints: Vec<u64>,
    committed: u64,
    user_aborted: u64,
}

fn plain<S: Subject>(s: &S) -> Result {
    let run = run_live(
        s.system(),
        RunMode::FixedRequests(REQUESTS),
        s.generator(0),
        build_all(s),
    );
    let r = &run.report;
    check(s, r, |e| e).expect("untraced run passes the benchmark's checks");
    Result {
        fingerprints: r.engines.iter().map(S::fingerprint).collect(),
        committed: r.clients.committed,
        user_aborted: r.clients.user_aborted,
    }
}

fn traced<S: Subject>(s: &S) -> Result {
    let shimmed = Shimmed::new(s, 0);
    let run = run_live(
        s.system(),
        RunMode::FixedRequests(REQUESTS),
        shimmed.generator,
        shimmed.engines,
    );
    let r = &run.report;
    check(s, r, |e| &e.inner).expect("traced run passes the benchmark's checks");
    // The shims saw every request and every fragment.
    let trace = shimmed
        .trace
        .lock()
        .unwrap()
        .take()
        .expect("generator trace");
    let requests = u64::from(s.system().clients) * REQUESTS;
    assert_eq!(trace.generate.calls, requests);
    let executed: u64 = r.engines.iter().map(|e| e.take_trace().execute.calls).sum();
    assert_eq!(executed, r.sched.fragments_executed);
    Result {
        fingerprints: r.engines.iter().map(|e| S::fingerprint(&e.inner)).collect(),
        committed: r.clients.committed,
        user_aborted: r.clients.user_aborted,
    }
}

fn micro_is_transparent(name: &str) {
    let s = Micro::new(name, SEED).expect("known workload");
    let (a, b) = (plain(&s), traced(&s));
    assert_eq!(a, b, "{name}: the shims changed the result");
    assert!(a.committed > 0);
}

#[test]
fn micro_sp_shims_are_transparent() {
    micro_is_transparent("micro-sp");
}

#[test]
fn micro_mp_spec_shims_are_transparent() {
    micro_is_transparent("micro-mp-spec");
}

#[test]
fn micro_mp_lock_shims_are_transparent() {
    micro_is_transparent("micro-mp-lock");
}

#[test]
fn tpcc_shims_are_transparent_on_a_serial_schedule() {
    let s = Tpcc {
        clients: 1,
        ..Tpcc::new(SEED)
    };
    let (a, b) = (plain(&s), traced(&s));
    assert_eq!(a, b, "tpcc: the shims changed the result");
    assert!(a.committed > 0);
}

#[test]
fn tpcc_shims_keep_outcome_counts_with_forty_clients() {
    let s = Tpcc::new(SEED);
    let (a, b) = (plain(&s), traced(&s));
    assert_eq!(
        (a.committed, a.user_aborted),
        (b.committed, b.user_aborted),
        "tpcc: the shims changed the outcome counts"
    );
}
