//! Event queue plumbing.

use hcc_common::{ClientId, CoordinatorId, FragmentResponse, Nanos, PartitionId, TxnId};
use hcc_core::{CoordIn, ExecutionEngine, PartitionIn};
use std::cmp::Ordering;

/// A message delivered to a client.
pub enum ClientIn<R> {
    /// Final transaction result (from a partition, the central
    /// coordinator, or the client's own transaction driver).
    Result {
        txn: TxnId,
        result: hcc_common::TxnResult<R>,
    },
    /// A fragment response for a client-coordinated transaction (locking).
    FragResponse(FragmentResponse<R>),
    /// A participant durably processed the commit decision of a
    /// client-coordinated transaction.
    DecisionAck { txn: TxnId, partition: PartitionId },
}

/// Everything that can happen in the simulation.
pub enum Ev<E: ExecutionEngine> {
    ToPartition {
        p: PartitionId,
        msg: PartitionIn<E::Fragment>,
    },
    ToCoordinator {
        k: CoordinatorId,
        msg: CoordIn<E::Fragment, E::Output>,
    },
    ToClient {
        c: ClientId,
        msg: ClientIn<E::Output>,
    },
    /// Scheduler maintenance (lock-wait timeout scan) for partition `p`.
    Tick { p: PartitionId },
    /// Durable-log maintenance for partition `p`: its group-commit flush
    /// deadline or stall deadline is due.
    LogTick { p: PartitionId },
    /// Sequencing age-boundary check for shard `k`: close its open epoch
    /// if the oldest buffered invocation has waited `max_delay`. One-shot:
    /// armed when a shard's buffer becomes non-empty, disarmed (by the
    /// per-shard `flush_at` guard) when the epoch closes earlier for
    /// another reason.
    EpochClose { k: CoordinatorId },
    /// Failover injection: kill p's primary and promote its replica.
    Kill { p: PartitionId },
    /// The killed node rejoins from a snapshot of the live replica (§3.3).
    Rejoin { p: PartitionId },
    /// Several deliveries sharing one arrival time, dispatched in order.
    ///
    /// One handler invocation often emits a burst of messages that all
    /// arrive together (fragment fan-out, decision fan-out); carrying the
    /// burst as one heap entry costs one push/pop instead of N. Ordering
    /// is unchanged: members were pushed with consecutive sequence
    /// numbers, so nothing could have sorted between them anyway. Never
    /// nested.
    Batch(Vec<Ev<E>>),
}

/// Heap entry ordered by (time, sequence); the sequence number makes the
/// run a total order, hence deterministic.
pub struct HeapItem<E: ExecutionEngine> {
    pub at: Nanos,
    pub seq: u64,
    pub ev: Ev<E>,
}

impl<E: ExecutionEngine> PartialEq for HeapItem<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E: ExecutionEngine> Eq for HeapItem<E> {}

impl<E: ExecutionEngine> PartialOrd for HeapItem<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E: ExecutionEngine> Ord for HeapItem<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}
