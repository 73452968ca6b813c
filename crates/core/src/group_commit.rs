//! Group-commit batching policy for the durable command log (paper §2.3:
//! "transactions are committed in batches ... the log is synced once per
//! batch, amortizing the disk latency over the group").
//!
//! The policy is a pure state machine owned by
//! [`PartitionNode`](crate::partition_node::PartitionNode): it watches
//! appends accumulate and decides *when* the log should be synced — when the
//! batch fills ([`DurabilityConfig::max_batch`]) or when the oldest unsynced
//! record has waited [`DurabilityConfig::group_commit_interval`]. The node
//! owns the [`DurableLog`](hcc_storage::DurableLog) and asks its caller to
//! perform the sync; results for records in the batch are parked until the sync
//! completes (clients only see a commit once it is durable).
//!
//! The **stall guard** is the robustness half: a log whose sync does not
//! complete within [`DurabilityConfig::sync_deadline`] must not wedge every
//! client parked behind it. When [`GroupCommit::stalled`] fires, the node
//! aborts the in-flight batch with the retryable
//! [`AbortReason::LogStalled`](hcc_common::AbortReason::LogStalled) instead
//! of holding results forever. The records may still be on disk (append
//! succeeded, sync never confirmed), so a stalled-batch abort is the one
//! place the system chooses at-least-once over exactly-once: a retried
//! transaction re-executes under a fresh transaction id.

use hcc_common::stats::DurabilityCounters;
use hcc_common::{DurabilityConfig, Nanos};

/// What the driver should do with the log right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushDecision {
    /// Keep accumulating; nothing to do.
    None,
    /// Sync the log now (batch full or interval elapsed).
    SyncNow,
}

/// Group-commit batching state for one partition's command log.
#[derive(Debug)]
pub struct GroupCommit {
    cfg: DurabilityConfig,
    /// Records appended since the last completed sync.
    pending: u64,
    /// When the oldest unsynced record was appended.
    first_pending_at: Option<Nanos>,
    /// When the in-flight sync was issued (`None` if no sync outstanding).
    sync_issued_at: Option<Nanos>,
    pub counters: DurabilityCounters,
}

impl GroupCommit {
    pub fn new(cfg: DurabilityConfig) -> Self {
        GroupCommit {
            cfg,
            pending: 0,
            first_pending_at: None,
            sync_issued_at: None,
            counters: DurabilityCounters::default(),
        }
    }

    /// Records appended but not yet durable.
    pub fn pending(&self) -> u64 {
        self.pending
    }

    /// A commit record was appended at `now`. Returns [`FlushDecision::SyncNow`]
    /// when the batch is full.
    pub fn on_append(&mut self, now: Nanos) -> FlushDecision {
        self.pending += 1;
        self.counters.records_appended += 1;
        if self.first_pending_at.is_none() {
            self.first_pending_at = Some(now);
        }
        if self.pending >= self.cfg.max_batch && self.sync_issued_at.is_none() {
            FlushDecision::SyncNow
        } else {
            FlushDecision::None
        }
    }

    /// Time-based poll (the driver's flush tick). Returns
    /// [`FlushDecision::SyncNow`] when the oldest unsynced record has waited
    /// a full group-commit interval and no sync is already in flight.
    pub fn poll(&mut self, now: Nanos) -> FlushDecision {
        match self.first_pending_at {
            Some(first)
                if self.sync_issued_at.is_none()
                    && now >= first + self.cfg.group_commit_interval =>
            {
                FlushDecision::SyncNow
            }
            _ => FlushDecision::None,
        }
    }

    /// When the next flush tick is needed (`None` when nothing is pending or
    /// a sync is already in flight). Drivers with timer wheels schedule a
    /// tick here; drivers with periodic ticks just call [`poll`](Self::poll).
    pub fn flush_deadline(&self) -> Option<Nanos> {
        match (self.first_pending_at, self.sync_issued_at) {
            (Some(first), None) => Some(first + self.cfg.group_commit_interval),
            _ => None,
        }
    }

    /// The driver issued a sync at `now` (it may complete asynchronously).
    pub fn on_sync_issued(&mut self, now: Nanos) {
        self.sync_issued_at = Some(now);
    }

    /// The sync completed: the batch is durable.
    pub fn on_synced(&mut self) {
        self.counters.syncs += 1;
        self.pending = 0;
        self.first_pending_at = None;
        self.sync_issued_at = None;
    }

    /// Absolute deadline after which the in-flight batch counts as stalled
    /// (`None` when the stall guard is disabled or nothing is pending).
    /// Measured from the *oldest unsynced append*, not the sync issue time,
    /// so a sync that is never issued (driver wedged) also trips it.
    pub fn stall_deadline(&self) -> Option<Nanos> {
        let deadline = self.cfg.sync_deadline?;
        Some(self.first_pending_at? + deadline)
    }

    /// Has the in-flight batch stalled past the sync deadline?
    pub fn stalled(&self, now: Nanos) -> bool {
        matches!(self.stall_deadline(), Some(d) if now >= d)
    }

    /// The driver gave up on the batch: `aborted` parked results were
    /// bounced with `LogStalled`. The batch slate is wiped so the log can
    /// accept new appends (the underlying records stay in the file — they
    /// are simply never acknowledged).
    pub fn on_stall_abort(&mut self, aborted: u64) {
        self.counters.stalled_aborts += aborted;
        self.pending = 0;
        self.first_pending_at = None;
        self.sync_issued_at = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DurabilityConfig {
        DurabilityConfig::default()
            .with_interval(Nanos::from_micros(500))
            .with_max_batch(4)
            .with_sync_deadline(Some(Nanos::from_millis(10)))
    }

    #[test]
    fn batch_fills_then_syncs() {
        let mut gc = GroupCommit::new(cfg());
        let t = Nanos::from_micros(1);
        assert_eq!(gc.on_append(t), FlushDecision::None);
        assert_eq!(gc.on_append(t), FlushDecision::None);
        assert_eq!(gc.on_append(t), FlushDecision::None);
        assert_eq!(gc.on_append(t), FlushDecision::SyncNow);
        gc.on_sync_issued(t);
        // More appends while a sync is in flight never double-issue.
        assert_eq!(gc.on_append(t), FlushDecision::None);
        gc.on_synced();
        assert_eq!(gc.counters.syncs, 1);
        assert_eq!(gc.counters.records_appended, 5);
    }

    #[test]
    fn interval_elapses_for_partial_batch() {
        let mut gc = GroupCommit::new(cfg());
        let t0 = Nanos::from_micros(100);
        gc.on_append(t0);
        assert_eq!(gc.poll(t0 + Nanos::from_micros(499)), FlushDecision::None);
        assert_eq!(gc.flush_deadline(), Some(t0 + Nanos::from_micros(500)));
        assert_eq!(
            gc.poll(t0 + Nanos::from_micros(500)),
            FlushDecision::SyncNow
        );
        gc.on_sync_issued(t0 + Nanos::from_micros(500));
        assert_eq!(gc.flush_deadline(), None, "sync in flight");
        gc.on_synced();
        assert_eq!(gc.poll(t0 + Nanos::from_millis(5)), FlushDecision::None);
    }

    #[test]
    fn stall_guard_measures_from_first_append() {
        let mut gc = GroupCommit::new(cfg());
        let t0 = Nanos::from_micros(7);
        gc.on_append(t0);
        assert!(!gc.stalled(t0 + Nanos::from_millis(9)));
        assert!(gc.stalled(t0 + Nanos::from_millis(10)));
        gc.on_stall_abort(1);
        assert_eq!(gc.counters.stalled_aborts, 1);
        assert!(!gc.stalled(t0 + Nanos::from_millis(20)), "slate wiped");
        assert_eq!(gc.pending(), 0);
    }

    #[test]
    fn stall_guard_can_be_disabled() {
        let mut gc = GroupCommit::new(cfg().with_sync_deadline(None));
        gc.on_append(Nanos::ZERO);
        assert!(!gc.stalled(Nanos::from_secs(100)));
        assert_eq!(gc.stall_deadline(), None);
    }
}
