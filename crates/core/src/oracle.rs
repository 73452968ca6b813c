//! A serial-equivalence oracle for the four concurrency control schemes.
//!
//! The schedulers' whole correctness claim is serializability: any
//! concurrent history they admit must be equivalent to *some* serial
//! execution — specifically, for these strict schedulers, to the serial
//! execution in **commit order** (the classical strict-2PL equivalence;
//! blocking and speculation dispatch FIFO so their commit order is
//! arrival order, and locking may commit a later-arriving transaction
//! first only when 2PL serialized it first). The oracle therefore
//! records the order in which the concurrent run committed transactions
//! and replays exactly that order one-at-a-time through the same
//! [`TestEngine`]: committed outputs, the aborted set, and the final
//! fingerprint must all be bit-identical. Any divergence implicates the
//! concurrency control (squash sets, undo ordering, lock coverage), not
//! the storage.
//!
//! The comparison includes per-transaction *outputs*, not just the final
//! fingerprint: a phantom read (a scan observing rows inserted — or
//! missing rows deleted — by a transaction that later aborts) corrupts
//! only the reader's output, never the final state. This is exactly how
//! the delete-phantom in scan lock sets was caught (see
//! `speculative_scan_*` regression tests in `tests/scan_serial_oracle.rs`
//! at the workspace root).
//!
//! The runner drives one partition's scheduler directly, playing client,
//! coordinator, and network: multi-partition transactions execute their
//! single local fragment, vote, and then wait `decision_delay` further
//! arrivals for their 2PC decision — the window in which the speculative
//! and OCC schemes speculate and the blocking scheme stalls. A
//! `forced_abort` models the (virtual) other participant voting abort.

use crate::engine::ExecutionEngine;
use crate::outbox::{Outbox, PartitionOut};
use crate::scheduler::make_scheduler;
use crate::testkit::{TestEngine, TestFragment, TestOutput};
use hcc_common::{
    ClientId, CoordinatorId, CoordinatorRef, Decision, FragmentTask, Nanos, Scheme, SystemConfig,
    TxnId, TxnResult, Vote,
};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// One transaction of an oracle run. Index in the input slice is the
/// arrival order and the transaction's identity.
#[derive(Debug, Clone)]
pub struct OracleTxn {
    pub fragment: TestFragment,
    /// Route through the 2PC path (coordinator decision) instead of the
    /// single-partition fast path.
    pub multi_partition: bool,
    /// 2PC aborts this transaction even though its local vote was commit
    /// (the virtual remote participant failed). Ignored for
    /// single-partition transactions.
    pub forced_abort: bool,
    /// How many *subsequent arrivals* to wait before the decision is
    /// delivered — the stall window other transactions queue or
    /// speculate into. Ignored for single-partition transactions.
    pub decision_delay: u32,
}

/// What a run (concurrent or serial) committed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleOutcome {
    /// Output of every committed transaction, by arrival index.
    pub committed: BTreeMap<usize, TestOutput>,
    /// Arrival indexes that aborted (user abort or forced 2PC abort).
    pub aborted: BTreeSet<usize>,
    /// Arrival indexes in the order they committed — the serial order
    /// this run claims equivalence to.
    pub commit_order: Vec<usize>,
    /// Final committed-state fingerprint.
    pub fingerprint: u64,
}

const COORD: CoordinatorRef = CoordinatorRef::Central(CoordinatorId(0));

fn txn_id(index: usize) -> TxnId {
    TxnId::new(ClientId(index as u32), 0)
}

fn index_of(txn: TxnId) -> usize {
    txn.client().0 as usize
}

/// Execute `txns` through the scheduler of `scheme` on one partition and
/// collect the committed results. Panics if the run wedges (a pending
/// transaction whose vote never arrives) or leaks undo buffers — both
/// scheduler bugs the oracle should fail loudly on.
pub fn run_scheme(
    scheme: Scheme,
    stripe_shift: u32,
    initial: &[(u64, i64)],
    txns: &[OracleTxn],
) -> OracleOutcome {
    let config = SystemConfig::new(scheme);
    let mut engine = TestEngine::with_data(initial).with_stripe_locks(stripe_shift);
    let mut sched = make_scheduler::<TestEngine>(&config, hcc_common::PartitionId(0), None);
    let mut out: Outbox<TestOutput> = Outbox::new(config.costs);

    let mut committed: BTreeMap<usize, TestOutput> = BTreeMap::new();
    let mut aborted: BTreeSet<usize> = BTreeSet::new();
    let mut commit_order: Vec<usize> = Vec::new();
    // Latest fragment response per MP transaction (a squash supersedes
    // earlier attempts), and the FIFO of undecided MP transactions with
    // the arrival count at which each becomes decidable.
    let mut latest: HashMap<usize, (Result<TestOutput, hcc_common::AbortReason>, Vote)> =
        HashMap::new();
    let mut pending: VecDeque<(usize, u64)> = VecDeque::new();
    let mut arrivals: u64 = 0;

    let drain =
        |out: &mut Outbox<TestOutput>,
         committed: &mut BTreeMap<usize, TestOutput>,
         aborted: &mut BTreeSet<usize>,
         commit_order: &mut Vec<usize>,
         latest: &mut HashMap<usize, (Result<TestOutput, hcc_common::AbortReason>, Vote)>| {
            let (msgs, _cpu) = out.take();
            for m in msgs {
                match m {
                    PartitionOut::ToClient { txn, result, .. } => match result {
                        TxnResult::Committed(payload) => {
                            commit_order.push(index_of(txn));
                            committed.insert(index_of(txn), payload);
                        }
                        TxnResult::Aborted(_) => {
                            aborted.insert(index_of(txn));
                        }
                    },
                    PartitionOut::ToCoordinator { response, .. } => {
                        let vote = response
                            .vote
                            .expect("single-round fragments always carry a vote");
                        latest.insert(index_of(response.txn), (response.payload, vote));
                    }
                }
            }
        };

    // Deliver decisions. The chain-ordered schemes (blocking,
    // speculation, OCC) receive them strictly FIFO — the coordinator's
    // commit-at-head order. Under locking, clients run *independent* 2PC
    // (§4.3), so any prepared transaction may be decided: a waiting
    // transaction can even be blocked on a lock a later-arriving,
    // already-prepared transaction holds, and FIFO-only delivery would
    // wedge. `force` ignores the decision delay — the end-of-input flush.
    macro_rules! deliver_ready {
        ($force:expr) => {
            loop {
                let window = if scheme == Scheme::Locking {
                    pending.len()
                } else {
                    pending.len().min(1)
                };
                let mut found: Option<(usize, usize)> = None;
                for pos in 0..window {
                    let (idx, eligible_at) = pending[pos];
                    if (!$force && arrivals < eligible_at) || !latest.contains_key(&idx) {
                        // Not yet eligible, or its vote is not in (e.g.
                        // suspended on a lock): under locking keep
                        // looking, otherwise the chain is stalled here.
                        continue;
                    }
                    found = Some((pos, idx));
                    break;
                }
                let Some((pos, idx)) = found else {
                    break;
                };
                let (payload, vote) = latest.get(&idx).cloned().expect("vote checked above");
                let commit = matches!(vote, Vote::Commit) && !txns[idx].forced_abort;
                pending.remove(pos);
                sched.on_decision(
                    Decision {
                        txn: txn_id(idx),
                        commit,
                    },
                    &mut engine,
                    Nanos(arrivals),
                    &mut out,
                );
                // The MP transaction's commit point precedes anything its
                // decision released (promoted speculative results), so
                // record it before draining the outbox.
                if commit {
                    commit_order.push(idx);
                    committed.insert(idx, payload.expect("commit vote implies Ok payload"));
                } else {
                    aborted.insert(idx);
                }
                drain(
                    &mut out,
                    &mut committed,
                    &mut aborted,
                    &mut commit_order,
                    &mut latest,
                );
            }
        };
    }

    for (i, t) in txns.iter().enumerate() {
        let task = FragmentTask {
            txn: txn_id(i),
            coordinator: COORD,
            client: ClientId(i as u32),
            fragment: t.fragment.clone(),
            multi_partition: t.multi_partition,
            last_fragment: true,
            round: 0,
            can_abort: t.fragment.fail,
        };
        sched.on_fragment(task, &mut engine, Nanos(arrivals), &mut out);
        drain(
            &mut out,
            &mut committed,
            &mut aborted,
            &mut commit_order,
            &mut latest,
        );
        if t.multi_partition {
            pending.push_back((i, arrivals + 1 + t.decision_delay as u64));
        }
        arrivals += 1;
        deliver_ready!(false);
    }
    // Flush: decide the remaining transactions in order. Each decision
    // can wake lock waiters whose votes gate the next round, so loop
    // until the queue drains; stall = scheduler bug.
    let mut guard = 0usize;
    while !pending.is_empty() {
        let before = pending.len();
        deliver_ready!(true);
        if pending.len() == before {
            guard += 1;
            assert!(
                guard < 4,
                "{scheme}: oracle run wedged with {} undecided transactions \
                 (front = {:?})",
                pending.len(),
                pending.front()
            );
        } else {
            guard = 0;
        }
    }

    assert!(sched.is_idle(), "{scheme}: scheduler not idle after drain");
    assert_eq!(
        engine.live_undo_buffers(),
        0,
        "{scheme}: leaked undo buffers"
    );
    OracleOutcome {
        committed,
        aborted,
        commit_order,
        fingerprint: engine.fingerprint(),
    }
}

/// The oracle: execute the same transactions one at a time, in arrival
/// order, through the same engine. Aborted transactions (user aborts and
/// forced 2PC aborts) roll back and leave no state.
pub fn run_serial(initial: &[(u64, i64)], txns: &[OracleTxn]) -> OracleOutcome {
    let order: Vec<usize> = (0..txns.len()).collect();
    run_serial_in_order(initial, txns, &order)
}

/// Execute the transactions one at a time in the given arrival-index
/// order (a permutation, or any subsequence covering the committed set):
/// the serial schedule a concurrent run claims equivalence to. Aborted
/// transactions (user aborts and forced 2PC aborts) roll back and leave
/// no state wherever they appear; indexes absent from `order` are
/// treated as aborted.
pub fn run_serial_in_order(
    initial: &[(u64, i64)],
    txns: &[OracleTxn],
    order: &[usize],
) -> OracleOutcome {
    let mut engine = TestEngine::with_data(initial);
    let mut committed = BTreeMap::new();
    let mut aborted: BTreeSet<usize> = (0..txns.len()).collect();
    let mut commit_order = Vec::new();
    for &i in order {
        let t = &txns[i];
        let id = txn_id(i);
        let outcome = engine.execute(id, &t.fragment, true);
        match outcome.result {
            Err(_) => {
                engine.rollback(id);
            }
            Ok(payload) => {
                if t.multi_partition && t.forced_abort {
                    engine.rollback(id);
                } else {
                    engine.forget(id);
                    aborted.remove(&i);
                    commit_order.push(i);
                    committed.insert(i, payload);
                }
            }
        }
    }
    assert_eq!(engine.live_undo_buffers(), 0);
    OracleOutcome {
        committed,
        aborted,
        commit_order,
        fingerprint: engine.fingerprint(),
    }
}

/// Run every scheme and check it against the serial oracle *in the
/// scheme's own commit order* (strict schedulers are conflict-equivalent
/// to their commit order — the serializability claim itself), panicking
/// with a precise diff on the first divergence. The commit/abort *sets*
/// must additionally match the arrival-order serial execution: which
/// transactions abort is decided by their flags, never by scheduling.
/// Returns the arrival-order serial outcome for extra assertions.
pub fn assert_serial_equivalent(
    stripe_shift: u32,
    initial: &[(u64, i64)],
    txns: &[OracleTxn],
) -> OracleOutcome {
    let arrival = run_serial(initial, txns);
    for scheme in [
        Scheme::Blocking,
        Scheme::Speculative,
        Scheme::Locking,
        Scheme::Occ,
    ] {
        let got = run_scheme(scheme, stripe_shift, initial, txns);
        assert_eq!(
            got.aborted, arrival.aborted,
            "{scheme}: aborted set diverged (aborts are flag-determined)"
        );
        assert_eq!(
            got.commit_order.len(),
            got.committed.len(),
            "{scheme}: a transaction committed twice"
        );
        let serial = run_serial_in_order(initial, txns, &got.commit_order);
        for (idx, payload) in &serial.committed {
            let scheme_payload = got.committed.get(idx).unwrap_or_else(|| {
                panic!("{scheme}: txn {idx} committed serially but not concurrently")
            });
            assert_eq!(
                scheme_payload, payload,
                "{scheme}: txn {idx} committed a different output than the \
                 serial execution of this run's own commit order (phantom or \
                 stale read)"
            );
        }
        assert_eq!(
            got.committed.len(),
            serial.committed.len(),
            "{scheme}: committed-set size diverged"
        );
        assert_eq!(
            got.fingerprint, serial.fingerprint,
            "{scheme}: final state diverged from serial execution in commit order"
        );
    }
    arrival
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::TestOp;

    fn sp(ops: Vec<TestOp>) -> OracleTxn {
        OracleTxn {
            fragment: TestFragment { ops, fail: false },
            multi_partition: false,
            forced_abort: false,
            decision_delay: 0,
        }
    }

    fn mp(ops: Vec<TestOp>, forced_abort: bool, delay: u32) -> OracleTxn {
        OracleTxn {
            fragment: TestFragment { ops, fail: false },
            multi_partition: true,
            forced_abort,
            decision_delay: delay,
        }
    }

    const INITIAL: &[(u64, i64)] = &[(0, 10), (1, 11), (2, 12), (8, 18), (9, 19)];

    #[test]
    fn plain_point_mix_matches_serial() {
        let txns = vec![
            mp(vec![TestOp::Add(0, 5), TestOp::Read(0)], false, 2),
            sp(vec![TestOp::Read(0), TestOp::Add(1, 1)]),
            sp(vec![TestOp::Set(2, 99)]),
            mp(vec![TestOp::Add(2, 1)], true, 1),
            sp(vec![TestOp::Read(2)]),
        ];
        assert_serial_equivalent(2, INITIAL, &txns);
    }

    #[test]
    fn scans_with_inserts_and_deletes_match_serial() {
        let txns = vec![
            mp(vec![TestOp::Set(4, 44)], false, 3), // insert into [0,8)
            sp(vec![TestOp::Scan(0, 8)]),
            mp(vec![TestOp::Del(1)], true, 2), // delete, later aborted
            sp(vec![TestOp::Scan(0, 8)]),
            sp(vec![TestOp::Scan(0, 16)]),
        ];
        assert_serial_equivalent(2, INITIAL, &txns);
    }

    #[test]
    fn forced_abort_mp_leaves_no_trace() {
        let txns = vec![
            mp(vec![TestOp::Set(30, 1), TestOp::Del(0)], true, 2),
            sp(vec![TestOp::Scan(0, 64)]),
        ];
        let serial = assert_serial_equivalent(2, INITIAL, &txns);
        assert_eq!(serial.aborted.len(), 1);
    }

    #[test]
    fn user_abort_fragment_counts_as_aborted_everywhere() {
        let mut failing = sp(vec![]);
        failing.fragment.fail = true;
        let txns = vec![
            mp(vec![TestOp::Add(0, 1)], false, 1),
            failing,
            sp(vec![TestOp::Read(0)]),
        ];
        let serial = assert_serial_equivalent(2, INITIAL, &txns);
        assert_eq!(serial.aborted.len(), 1);
    }

    /// The delete-phantom regression (ISSUE 5 satellite): a scan running
    /// speculatively behind a transaction that *deleted* a row in its
    /// range must not survive that transaction's abort — it observed the
    /// row's absence, which the rollback un-observes. A scan lock set
    /// built by enumerating current members misses this (the deleted row
    /// is not a member at scan time, and here it was alone in its stripe,
    /// so no neighbour drags the stripe in); only range-covering stripe
    /// locks make the deleter's write set intersect the scan's read set.
    /// Caught by this oracle against the member-enumeration variant,
    /// fixed by `TestEngine::lock_set` covering `[start, end)` stripes.
    #[test]
    fn scan_must_not_observe_absence_of_rows_deleted_by_later_aborted_txn() {
        // shift 2 → key 8 is alone in stripe 2; key 0 is far away.
        let initial: &[(u64, i64)] = &[(0, 10), (8, 18)];
        let txns = vec![
            mp(vec![TestOp::Del(8)], true, 2), // deletes, then 2PC-aborts
            sp(vec![TestOp::Scan(4, 12)]),     // must see 8 after the abort
            sp(vec![TestOp::Read(0)]),
        ];
        let serial = assert_serial_equivalent(2, initial, &txns);
        assert_eq!(
            serial.committed.get(&1),
            Some(&vec![(8, 18)]),
            "serially the scan sees the restored row"
        );
    }

    /// The insert twin: a scan behind a later-aborted *insert* into its
    /// range must not keep the phantom row in its committed output.
    #[test]
    fn scan_must_not_observe_rows_inserted_by_later_aborted_txn() {
        let initial: &[(u64, i64)] = &[(0, 10)];
        let txns = vec![
            mp(vec![TestOp::Set(5, 55)], true, 2), // insert, then abort
            sp(vec![TestOp::Scan(4, 8)]),          // must NOT see 5
            sp(vec![TestOp::Read(0)]),
        ];
        let serial = assert_serial_equivalent(2, initial, &txns);
        assert_eq!(
            serial.committed.get(&1),
            Some(&vec![]),
            "serially the aborted insert is invisible"
        );
    }

    #[test]
    fn zero_delay_decisions_commit_in_line() {
        let txns = vec![
            mp(vec![TestOp::Add(0, 1)], false, 0),
            mp(vec![TestOp::Add(0, 1)], false, 0),
            sp(vec![TestOp::Read(0)]),
        ];
        assert_serial_equivalent(2, INITIAL, &txns);
    }
}
