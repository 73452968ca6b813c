//! System configuration: which concurrency control scheme to run, how many
//! partitions/clients, and the calibrated cost model that makes the
//! simulator reproduce the paper's testbed.

use crate::ids::{ClientId, CoordinatorId, PartitionId};
use crate::time::Nanos;
use serde::Serialize;

/// The concurrency control schemes compared in the paper, plus the OCC
/// variant the paper sketches in §5.7 (implemented here as an extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Scheme {
    /// §4.1: execute one transaction at a time; block during network stalls.
    Blocking,
    /// §4.2: execute queued transactions speculatively during 2PC stalls;
    /// assume every pair of concurrent transactions conflicts.
    Speculative,
    /// §4.3: strict two-phase locking, single-threaded (no latching), with
    /// the no-lock fast path when no multi-partition transaction is active.
    Locking,
    /// §5.7 extension: optimistic concurrency control with read/write set
    /// tracking and backward validation at commit.
    Occ,
}

impl Scheme {
    pub const ALL: [Scheme; 3] = [Scheme::Blocking, Scheme::Speculative, Scheme::Locking];

    pub fn name(self) -> &'static str {
        match self {
            Scheme::Blocking => "blocking",
            Scheme::Speculative => "speculation",
            Scheme::Locking => "locking",
            Scheme::Occ => "occ",
        }
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Network model for the simulator: fixed one-way latency between any two
/// processes, mirroring the paper's single gigabit switch (measured 40 µs
/// RTT, so 20 µs one way).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct NetworkModel {
    pub one_way: Nanos,
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel {
            one_way: Nanos::from_micros(20),
        }
    }
}

/// CPU cost model, calibrated against the paper's Table 2.
///
/// The simulator executes real Rust code against real storage but charges
/// *virtual* CPU according to this model, so that the three time scales that
/// drive the paper's results — single-partition work, multi-partition work,
/// and the network stall — have the published ratios regardless of host
/// hardware.
///
/// Table 2 of the paper: t_sp = 64 µs, t_spS = 73 µs, t_mp = 211 µs,
/// t_mpC = 55 µs, t_mpN = 40 µs, l = 13.2 %.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct CostModel {
    /// Fixed CPU cost for receiving/dispatching any message at a partition.
    pub partition_msg_fixed: Nanos,
    /// CPU cost per logical storage operation **unit**. The microbenchmark
    /// counts one key read or write as one unit and a read-modify-write as
    /// two (so the §5.4 two-round variant, which splits RMWs into a read
    /// round and a write round, costs the same total work as the one-round
    /// original — "This performs the same amount of work as the original
    /// benchmark"). TPC-C counts one row operation as two units.
    pub per_op: Nanos,
    /// Extra fixed CPU at a participant for each round of a multi-partition
    /// transaction (marshalling fragment responses, 2PC bookkeeping).
    pub mp_round_fixed: Nanos,
    /// Multiplier >= 1 applied to execution when an undo buffer is recorded
    /// (Table 2: t_spS / t_sp = 73/64 ≈ 1.14).
    pub undo_overhead: f64,
    /// Multiplier >= 1 applied to execution when read/write sets are
    /// tracked without a lock table (the OCC extension; Table 2's l =
    /// 13.2 % → 1.132 for the 12-lock microbenchmark transaction).
    pub lock_overhead: f64,
    /// CPU per lock acquired (covers acquire + release + lock-table
    /// maintenance). Charged by the locking scheduler per fragment lock.
    /// Calibration: the microbenchmark's 12-lock transaction pays
    /// 12 × 0.7 µs = 8.4 µs ≈ 13.2 % of t_sp (Table 2's `l`), while a
    /// ~25-lock TPC-C new-order pays ~35 % — matching the paper's §5.6
    /// profile ("34% of the execution time is spent in the lock
    /// implementation... more locks are acquired for each transaction").
    pub per_lock: Nanos,
    /// CPU cost of undoing one previously executed transaction during an
    /// abort cascade (cheaper than forward execution: walk the undo buffer).
    pub rollback_per_op: Nanos,
    /// CPU cost of suspending a transaction on a lock conflict and later
    /// resuming it (§5.2: "when there are conflicts, there is additional
    /// overhead to suspend and resume execution"). Charged once per wait.
    pub suspend_resume: Nanos,
    /// Central coordinator CPU per message received or sent. This is what
    /// saturates the coordinator at high multi-partition fractions
    /// (paper §5.1: "the central coordinator uses 100% of the CPU").
    pub coord_per_msg: Nanos,
    /// Client CPU per message. Clients are never a throughput bottleneck,
    /// but under the locking scheme the *client* runs two-phase commit
    /// (§4.3), so its per-message processing extends the time
    /// multi-partition transactions hold locks — which is what makes
    /// conflicts expensive (Figure 5).
    pub client_per_msg: Nanos,
}

impl Default for CostModel {
    /// Calibration: with the microbenchmark's 12 read-modify-writes (24
    /// units) per transaction, single-partition execution costs
    /// 24 × 2 µs + 16 µs = 64 µs = t_sp. A multi-partition fragment
    /// (6 RMWs = 12 units at each of 2 partitions) costs
    /// 12 × 2 µs + 16 µs + 15 µs = 55 µs = t_mpC.
    fn default() -> Self {
        CostModel {
            partition_msg_fixed: Nanos::from_micros(16),
            per_op: Nanos::from_micros(2),
            mp_round_fixed: Nanos::from_micros(15),
            undo_overhead: 73.0 / 64.0,
            lock_overhead: 1.132,
            per_lock: Nanos(700),
            rollback_per_op: Nanos::from_micros(1),
            suspend_resume: Nanos::from_micros(35),
            coord_per_msg: Nanos::from_micros(12),
            client_per_msg: Nanos::from_micros(15),
        }
    }
}

impl CostModel {
    /// Virtual CPU charged for executing a fragment of `ops` logical
    /// operations under the given overheads.
    pub fn fragment_cost(&self, ops: u32, undo: bool, locks: bool, multi_partition: bool) -> Nanos {
        let mut base = self.partition_msg_fixed + Nanos(self.per_op.0 * ops as u64);
        if multi_partition {
            base += self.mp_round_fixed;
        }
        let mut factor = 1.0;
        if undo {
            factor *= self.undo_overhead;
        }
        if locks {
            factor *= self.lock_overhead;
        }
        base.scale(factor)
    }

    /// Virtual CPU charged for rolling back a fragment of `ops` operations.
    pub fn rollback_cost(&self, ops: u32) -> Nanos {
        Nanos(self.rollback_per_op.0 * ops as u64)
    }
}

/// Failure injection for the live runtime: crash the primary of one
/// replica group at a deterministic point in its own history.
///
/// The trigger is a count of shipped commit records rather than a wall
/// clock so the crash lands at the same *logical* point on every backend
/// and host speed: after the primary ships its `after_commits`-th commit
/// record it flushes results already replicated, bounces every in-flight
/// transaction with [`crate::AbortReason::PartitionFailed`], notifies the
/// coordinator (standing in for the failure detector), and goes dark. The
/// coordinator then promotes the first backup and tells the dead node to
/// rejoin via a §3.3 state copy. Requires `replication >= 2`.
#[derive(Debug, Clone, Copy)]
pub struct FailurePlan {
    /// Replica group whose primary crashes.
    pub partition: PartitionId,
    /// Crash after this many commit records have been shipped (>= 1).
    pub after_commits: u64,
}

/// Durable command logging with group commit (ISSUE 6).
///
/// When present, every partition appends one encoded
/// [`crate::CommitRecord`] per commit to an injectable durable log and
/// *holds the client-visible result* until the record's group-commit
/// batch is synced — the classic group-commit trade: results gain up to
/// `group_commit_interval` of latency, and in exchange a crash loses no
/// acknowledged transaction. `None` (the default) is the paper's
/// configuration: memory-only, replication as the sole failure story,
/// and bit-identical behaviour to every pre-durability run (the golden
/// determinism tests pin this).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct DurabilityConfig {
    /// Time between group-commit syncs. Appended records become durable
    /// at the next sync boundary; held results release then.
    pub group_commit_interval: Nanos,
    /// Sync early once this many records are waiting in the open batch
    /// (`u64::MAX` = time-only batching).
    pub max_batch: u64,
    /// Virtual latency of the sync itself (the fsync stand-in charged by
    /// the simulator's in-memory log; the live runtime pays the real
    /// device instead).
    pub sync_latency: Nanos,
    /// Stalled-log guard: if a batch has been waiting longer than this
    /// past its sync boundary (a stalled or failed device), the partition
    /// aborts the held batch with the retryable
    /// [`crate::AbortReason::LogStalled`] instead of wedging its commit
    /// chain. `None` disables the guard (a stalled log then holds results
    /// forever).
    pub sync_deadline: Option<Nanos>,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            // One sync per ~8 t_sp: small enough to stay off the latency
            // critical path in the paper's workloads, large enough that a
            // batch amortizes many records.
            group_commit_interval: Nanos::from_micros(500),
            max_batch: 64,
            sync_latency: Nanos::from_micros(100),
            sync_deadline: Some(Nanos::from_millis(10)),
        }
    }
}

impl DurabilityConfig {
    pub fn with_interval(mut self, interval: Nanos) -> Self {
        self.group_commit_interval = interval;
        self
    }

    pub fn with_max_batch(mut self, n: u64) -> Self {
        self.max_batch = n;
        self
    }

    pub fn with_sync_deadline(mut self, deadline: Option<Nanos>) -> Self {
        self.sync_deadline = deadline;
        self
    }
}

/// Client-side retry policy for *infrastructure* aborts — the retryable
/// reasons that signal contention on a shared resource rather than a
/// scheduling conflict ([`crate::AbortReason::PartitionFailed`],
/// [`crate::AbortReason::CrossCoordinator`],
/// [`crate::AbortReason::LogStalled`]). Immediate re-submit of these turns
/// a failover or a stalled log into a retry storm; instead clients back
/// off exponentially (doubling from `base`, capped at `cap`) with
/// deterministic per-attempt jitter. Scheduling aborts (deadlock victim,
/// lock timeout, speculation failure) still retry immediately — the
/// paper's schedulers resolve those themselves.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct RetryConfig {
    /// First backoff delay; attempt `n` waits up to `base * 2^(n-1)`.
    pub base: Nanos,
    /// Upper bound on any single backoff delay.
    pub cap: Nanos,
    /// Give up (count the transaction as exhausted, surface the abort to
    /// the workload) after this many consecutive retryable aborts of one
    /// request. `u32::MAX` retries forever.
    pub max_attempts: u32,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            // A failover takes ~1 network round trip + promotion; start in
            // that neighborhood and cap near the failure-detection scale.
            base: Nanos::from_micros(50),
            cap: Nanos::from_millis(5),
            max_attempts: u32::MAX,
        }
    }
}

impl RetryConfig {
    pub fn with_base(mut self, base: Nanos) -> Self {
        self.base = base;
        self
    }

    pub fn with_cap(mut self, cap: Nanos) -> Self {
        self.cap = cap;
        self
    }

    pub fn with_max_attempts(mut self, n: u32) -> Self {
        self.max_attempts = n;
        self
    }
}

/// Epoch-batched deterministic cross-shard sequencing (ISSUE 8,
/// Calvin/STAR-style).
///
/// With sharded coordinators and *unaligned* clients, the §4.2.2
/// same-coordinator-chain rule degrades into blocking waits
/// (`cross_coord_waits`) and retryable `CrossCoordinator` expiry aborts,
/// because no global dispatch order exists across shards. Sequencing
/// fixes that: each shard accumulates its multi-partition invocations
/// into a per-epoch local log, epochs close on a deterministic boundary
/// (count or age), and the global order is the round-robin interleave of
/// the per-shard logs — the merge rule *is* the order, no consensus hop.
/// Partitions admit multi-partition round-0 fragments in that order, so
/// speculation chains legally span coordinator shards. Single-partition
/// transactions never touch the sequencer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SequencingConfig {
    /// No sequencing: PR 4 behaviour (chains never cross shards;
    /// residual deadlocks broken by `lock_timeout` expiry).
    Off,
    /// Epoch sequencing: a shard closes its current epoch once `batch`
    /// multi-partition invocations have accumulated (or earlier, on the
    /// age boundary [`SequencingConfig::max_delay`] / a peer shard
    /// closing the same epoch).
    Epoch { batch: u32 },
}

impl SequencingConfig {
    pub const DEFAULT_BATCH: u32 = 64;

    pub fn is_on(self) -> bool {
        matches!(self, SequencingConfig::Epoch { .. })
    }

    /// Count boundary: close the shard's epoch at this many entries.
    pub fn batch(self) -> u32 {
        match self {
            SequencingConfig::Off => 0,
            SequencingConfig::Epoch { batch } => batch.max(1),
        }
    }

    /// Age boundary: an epoch with at least one entry closes after this
    /// long even if the count boundary was not reached, bounding the
    /// sequencing hold under light load.
    pub fn max_delay(self) -> Nanos {
        Nanos::from_micros(200)
    }

    /// Parses `off` | `epoch` | `epoch:N`. Malformed input is a loud
    /// error — a typo'd knob must fail at startup, not silently fall back
    /// to a default configuration.
    pub fn parse(s: &str) -> Result<SequencingConfig, String> {
        match s {
            "off" => Ok(SequencingConfig::Off),
            "epoch" => Ok(SequencingConfig::Epoch {
                batch: Self::DEFAULT_BATCH,
            }),
            _ => {
                let n: u32 = s
                    .strip_prefix("epoch:")
                    .ok_or_else(|| bad_knob("sequencing", s, "off | epoch | epoch:N"))?
                    .parse()
                    .map_err(|_| bad_knob("sequencing", s, "off | epoch | epoch:N"))?;
                if n >= 1 {
                    Ok(SequencingConfig::Epoch { batch: n })
                } else {
                    Err(bad_knob("sequencing", s, "off | epoch | epoch:N (N >= 1)"))
                }
            }
        }
    }
}

/// Uniform "malformed knob" startup error message.
pub fn bad_knob(knob: &str, got: &str, expected: &str) -> String {
    format!("invalid `{knob}` value {got:?}: expected {expected}")
}

impl std::fmt::Display for SequencingConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SequencingConfig::Off => f.write_str("off"),
            SequencingConfig::Epoch { batch } => write!(f, "epoch:{batch}"),
        }
    }
}

// Serialized as its `Display` string ("off" / "epoch:64"): the vendored
// derive only handles unit variants, and the string is what bench JSON
// wants anyway.
impl Serialize for SequencingConfig {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.to_string())
    }
}

/// Adaptive scheme selection (ISSUE 10, the paper's §5.7 closed loop).
///
/// When on, every partition runs an `AdaptiveScheduler` wrapper that
/// measures its own workload over sliding windows (mp-fraction, abort
/// rate, conflict rate, mean fragment length — from `SchedulerCounters`
/// *deltas*, not lifetime totals), feeds the observations into the §6
/// analytical model, and live-swaps the underlying scheduler when the
/// predicted winner beats the incumbent by `margin` for
/// [`AdaptiveConfig::CONSECUTIVE_WINDOWS`] consecutive windows. The
/// configured [`SystemConfig::scheme`] is the *initial* scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdaptiveConfig {
    /// No adaptation: the configured scheme is pinned for the whole run
    /// (the paper's configuration; bit-identical to every pre-adaptive
    /// golden).
    Off,
    /// Model-driven switching.
    Model {
        /// Hysteresis margin: the predicted winner's score must exceed the
        /// incumbent's by this relative fraction (e.g. 0.10 = 10%) in
        /// every qualifying window.
        margin: f64,
        /// Window length in transaction *outcomes* (commits + aborts) at
        /// the partition. Counting outcomes rather than time keeps window
        /// boundaries — and hence switch points — bit-deterministic in
        /// the simulator and identical across runtime backends under
        /// fixed-work runs.
        window: u32,
    },
}

impl AdaptiveConfig {
    pub const DEFAULT_MARGIN: f64 = 0.15;
    pub const DEFAULT_WINDOW: u32 = 256;
    /// Hysteresis depth: the same non-incumbent winner must clear the
    /// margin in this many consecutive windows before a switch starts.
    pub const CONSECUTIVE_WINDOWS: u32 = 3;

    pub fn is_on(self) -> bool {
        matches!(self, AdaptiveConfig::Model { .. })
    }

    /// Parses `off` | `model` | `model:MARGIN` | `model:MARGIN,WINDOW`.
    /// Malformed input is a loud startup error, same contract as
    /// [`SequencingConfig::parse`].
    pub fn parse(s: &str) -> Result<AdaptiveConfig, String> {
        const EXPECTED: &str = "off | model | model:MARGIN | model:MARGIN,WINDOW";
        match s {
            "off" => Ok(AdaptiveConfig::Off),
            "model" => Ok(AdaptiveConfig::Model {
                margin: Self::DEFAULT_MARGIN,
                window: Self::DEFAULT_WINDOW,
            }),
            _ => {
                let rest = s
                    .strip_prefix("model:")
                    .ok_or_else(|| bad_knob("adaptive", s, EXPECTED))?;
                let (margin_s, window_s) = match rest.split_once(',') {
                    Some((m, w)) => (m, Some(w)),
                    None => (rest, None),
                };
                let margin: f64 = margin_s
                    .parse()
                    .map_err(|_| bad_knob("adaptive", s, EXPECTED))?;
                if !margin.is_finite() || margin < 0.0 {
                    return Err(bad_knob("adaptive", s, "a finite margin >= 0"));
                }
                let window: u32 = match window_s {
                    Some(w) => w.parse().map_err(|_| bad_knob("adaptive", s, EXPECTED))?,
                    None => Self::DEFAULT_WINDOW,
                };
                if window == 0 {
                    return Err(bad_knob("adaptive", s, "a window >= 1"));
                }
                Ok(AdaptiveConfig::Model { margin, window })
            }
        }
    }
}

impl std::fmt::Display for AdaptiveConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdaptiveConfig::Off => f.write_str("off"),
            AdaptiveConfig::Model { margin, window } => write!(f, "model:{margin},{window}"),
        }
    }
}

// Serialized as its `Display` string, mirroring `SequencingConfig`.
impl Serialize for AdaptiveConfig {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.to_string())
    }
}

/// Top-level system configuration shared by the simulator and the live
/// runtime. The runtime's worker-pool size is not part of it: it belongs
/// to the runtime's backend choice, and the simulator has no workers.
#[derive(Debug, Clone, Serialize)]
pub struct SystemConfig {
    pub scheme: Scheme,
    pub partitions: u32,
    pub clients: u32,
    /// Central coordinator shards (>= 1). Clients are statically
    /// partitioned across shards (`client % coordinators`), each shard runs
    /// its own 2PC and speculation-chain state, and §4.2.2 dependency
    /// chains never cross shards: partitions fall back to *blocking*
    /// behind another shard's chain (counted in
    /// `SchedulerCounters::cross_coord_waits`), and the shards expire
    /// stalled transactions after `lock_timeout` with the retryable
    /// `CrossCoordinator` abort to break residual cross-partition
    /// deadlocks. 1 reproduces the paper's singleton.
    pub coordinators: u32,
    /// Replication factor `k`: number of copies of each partition (1 = no
    /// replication). The paper commits a transaction once it is on `k`
    /// replicas (§2.2).
    pub replication: u32,
    pub network: NetworkModel,
    pub costs: CostModel,
    /// Lock-wait timeout used to resolve distributed deadlock (§4.3).
    pub lock_timeout: Nanos,
    /// Cap on the number of transactions speculated while a multi-partition
    /// transaction waits for 2PC. `usize::MAX` reproduces the paper; small
    /// values implement the §5.3 suggestion to "limit the amount of
    /// speculation to avoid wasted work" under high abort rates.
    pub max_speculation_depth: usize,
    /// Restrict the speculative scheme to *local* speculation (§4.2.1):
    /// speculative multi-partition results are buffered in the partition
    /// instead of being released to the coordinator with dependencies.
    /// Used to reproduce Figure 10's "Measured Local Spec" curve.
    pub local_speculation_only: bool,
    /// Durable command logging with group commit; `None` (default) is
    /// the paper's memory-only configuration.
    pub durability: Option<DurabilityConfig>,
    /// Client-side backoff for infrastructure aborts.
    pub retry: RetryConfig,
    /// Epoch-batched deterministic cross-shard sequencing of
    /// multi-partition transactions (ISSUE 8). Off by default — the
    /// paper's configuration. Ignored by the locking scheme (its
    /// multi-partition 2PC is client-driven, so there is nothing for a
    /// coordinator shard to order).
    pub sequencing: SequencingConfig,
    /// Adaptive scheme selection (ISSUE 10): when on, [`Self::scheme`] is
    /// only the *initial* scheme and each partition re-plans live from
    /// observed statistics via the §6 model. Mutually exclusive with
    /// sequencing (the epoch merge order assumes a fixed MP admission
    /// protocol; enforced loudly by the drivers at startup).
    pub adaptive: AdaptiveConfig,
    /// RNG seed for workload generation; a run is a pure function of
    /// (config, workload, seed).
    pub seed: u64,
}

impl SystemConfig {
    pub fn new(scheme: Scheme) -> Self {
        SystemConfig {
            scheme,
            partitions: 2,
            clients: 40,
            coordinators: 1,
            replication: 1,
            network: NetworkModel::default(),
            costs: CostModel::default(),
            // Long enough that convoy waits under heavy conflict never
            // false-positive (the §5.2 workload is deadlock-free by
            // construction); real distributed deadlocks (TPC-C, §5.6) pay
            // this as the paper describes.
            lock_timeout: Nanos::from_millis(20),
            max_speculation_depth: usize::MAX,
            local_speculation_only: false,
            durability: None,
            retry: RetryConfig::default(),
            sequencing: SequencingConfig::Off,
            adaptive: AdaptiveConfig::Off,
            seed: 0xC0FFEE,
        }
    }

    pub fn with_partitions(mut self, n: u32) -> Self {
        self.partitions = n;
        self
    }

    pub fn with_clients(mut self, n: u32) -> Self {
        self.clients = n;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_replication(mut self, k: u32) -> Self {
        self.replication = k;
        self
    }

    pub fn with_coordinators(mut self, n: u32) -> Self {
        assert!(n >= 1, "at least one coordinator shard");
        self.coordinators = n;
        self
    }

    pub fn with_durability(mut self, d: DurabilityConfig) -> Self {
        self.durability = Some(d);
        self
    }

    pub fn with_retry(mut self, r: RetryConfig) -> Self {
        self.retry = r;
        self
    }

    pub fn with_sequencing(mut self, s: SequencingConfig) -> Self {
        self.sequencing = s;
        self
    }

    pub fn with_adaptive(mut self, a: AdaptiveConfig) -> Self {
        self.adaptive = a;
        self
    }

    /// Startup validation shared by the drivers: adaptive switching and
    /// epoch sequencing are mutually exclusive (the epoch merge order
    /// assumes a fixed MP admission protocol per partition, while a live
    /// swap changes it mid-stream). A loud error, per the ISSUE 10 config
    /// contract.
    pub fn validate(&self) -> Result<(), String> {
        if self.adaptive.is_on() && self.sequencing.is_on() {
            return Err(
                "`adaptive` and `sequencing` are mutually exclusive: adaptive switching \
                 changes the MP admission protocol mid-run, which the epoch merge order \
                 cannot follow"
                    .to_string(),
            );
        }
        Ok(())
    }

    /// Whether the sequencing layer actually runs: the knob is on *and*
    /// the scheme routes multi-partition transactions through the
    /// coordinator shards (locking is client-driven 2PC — its fragments
    /// never pass a shard, so sequencing is inert there).
    #[inline]
    pub fn sequencing_active(&self) -> bool {
        self.sequencing.is_on() && self.scheme != Scheme::Locking
    }

    /// The coordinator shard that owns a client's multi-partition
    /// transactions: a static partitioning, so a transaction's coordinator
    /// is a pure function of the issuing client and chains of transactions
    /// from one client always share a shard.
    #[inline]
    pub fn coordinator_of(&self, client: ClientId) -> CoordinatorId {
        CoordinatorId(client.0 % self.coordinators.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_calibration_matches_table2() {
        let c = CostModel::default();
        // t_sp: 12 RMWs = 24 units, no undo, no locks.
        let t_sp = c.fragment_cost(24, false, false, false);
        assert_eq!(t_sp, Nanos::from_micros(64));
        // t_spS: same with undo recording ≈ 73 µs.
        let t_sp_s = c.fragment_cost(24, true, false, false);
        assert!((t_sp_s.as_micros_f64() - 73.0).abs() < 0.5, "{t_sp_s}");
        // t_mpC: 6 RMWs = 12 units, multi-partition, with undo ≈ 55 µs.
        let t_mp_c = c.fragment_cost(12, true, false, true);
        assert!((t_mp_c.as_micros_f64() - 62.8).abs() < 8.0, "{t_mp_c}");
    }

    #[test]
    fn lock_overhead_is_multiplicative() {
        let c = CostModel::default();
        let plain = c.fragment_cost(24, false, false, false);
        let locked = c.fragment_cost(24, false, true, false);
        let ratio = locked.0 as f64 / plain.0 as f64;
        assert!((ratio - 1.132).abs() < 1e-3);
    }

    #[test]
    fn scheme_names() {
        assert_eq!(Scheme::Blocking.to_string(), "blocking");
        assert_eq!(Scheme::Speculative.to_string(), "speculation");
        assert_eq!(Scheme::Locking.to_string(), "locking");
        assert_eq!(Scheme::Occ.to_string(), "occ");
    }

    #[test]
    fn config_builders() {
        let cfg = SystemConfig::new(Scheme::Speculative)
            .with_partitions(4)
            .with_clients(10)
            .with_seed(42)
            .with_replication(2)
            .with_coordinators(2);
        assert_eq!(cfg.partitions, 4);
        assert_eq!(cfg.clients, 10);
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.replication, 2);
        assert_eq!(cfg.coordinators, 2);
    }

    #[test]
    fn sequencing_parse_and_display() {
        assert_eq!(SequencingConfig::parse("off"), Ok(SequencingConfig::Off));
        assert_eq!(
            SequencingConfig::parse("epoch"),
            Ok(SequencingConfig::Epoch {
                batch: SequencingConfig::DEFAULT_BATCH
            })
        );
        assert_eq!(
            SequencingConfig::parse("epoch:256"),
            Ok(SequencingConfig::Epoch { batch: 256 })
        );
        assert!(SequencingConfig::parse("epoch:0").is_err());
        assert!(SequencingConfig::parse("calvin").is_err());
        // The ISSUE 10 bug case: a malformed count must be loud, not a
        // silent fall-back to the default batch.
        assert!(SequencingConfig::parse("epoch:64x").is_err());
        assert_eq!(
            SequencingConfig::Epoch { batch: 64 }.to_string(),
            "epoch:64"
        );
        assert_eq!(SequencingConfig::Off.to_string(), "off");
    }

    #[test]
    fn sequencing_parse_display_round_trip() {
        for s in ["off", "epoch:1", "epoch:64", "epoch:256"] {
            let parsed = SequencingConfig::parse(s).expect("valid knob");
            assert_eq!(parsed.to_string(), s);
            assert_eq!(SequencingConfig::parse(&parsed.to_string()), Ok(parsed));
        }
        // `epoch` is sugar: it round-trips through the explicit form.
        let sugar = SequencingConfig::parse("epoch").expect("valid knob");
        assert_eq!(SequencingConfig::parse(&sugar.to_string()), Ok(sugar));
    }

    #[test]
    fn adaptive_parse_and_display() {
        assert_eq!(AdaptiveConfig::parse("off"), Ok(AdaptiveConfig::Off));
        assert_eq!(
            AdaptiveConfig::parse("model"),
            Ok(AdaptiveConfig::Model {
                margin: AdaptiveConfig::DEFAULT_MARGIN,
                window: AdaptiveConfig::DEFAULT_WINDOW,
            })
        );
        assert_eq!(
            AdaptiveConfig::parse("model:0.2"),
            Ok(AdaptiveConfig::Model {
                margin: 0.2,
                window: AdaptiveConfig::DEFAULT_WINDOW,
            })
        );
        assert_eq!(
            AdaptiveConfig::parse("model:0.1,512"),
            Ok(AdaptiveConfig::Model {
                margin: 0.1,
                window: 512,
            })
        );
        assert!(AdaptiveConfig::parse("model:").is_err());
        assert!(AdaptiveConfig::parse("model:-0.1").is_err());
        assert!(AdaptiveConfig::parse("model:0.1,0").is_err());
        assert!(AdaptiveConfig::parse("model:0.1,64x").is_err());
        assert!(AdaptiveConfig::parse("auto").is_err());
        assert_eq!(
            AdaptiveConfig::Model {
                margin: 0.1,
                window: 512
            }
            .to_string(),
            "model:0.1,512"
        );
        assert_eq!(AdaptiveConfig::Off.to_string(), "off");
    }

    #[test]
    fn adaptive_parse_display_round_trip() {
        for s in ["off", "model:0.15,256", "model:0.1,512", "model:0,1"] {
            let parsed = AdaptiveConfig::parse(s).expect("valid knob");
            assert_eq!(parsed.to_string(), s);
            assert_eq!(AdaptiveConfig::parse(&parsed.to_string()), Ok(parsed));
        }
        let sugar = AdaptiveConfig::parse("model").expect("valid knob");
        assert_eq!(AdaptiveConfig::parse(&sugar.to_string()), Ok(sugar));
    }

    #[test]
    fn adaptive_excludes_sequencing() {
        let ok = SystemConfig::new(Scheme::Speculative).with_adaptive(AdaptiveConfig::Model {
            margin: 0.1,
            window: 64,
        });
        assert!(ok.validate().is_ok());
        let bad = ok.with_sequencing(SequencingConfig::Epoch { batch: 8 });
        assert!(bad.validate().is_err());
        assert!(SystemConfig::new(Scheme::Speculative)
            .with_sequencing(SequencingConfig::Epoch { batch: 8 })
            .validate()
            .is_ok());
    }

    #[test]
    fn sequencing_is_inert_for_locking() {
        let on = SequencingConfig::Epoch { batch: 8 };
        assert!(SystemConfig::new(Scheme::Speculative)
            .with_sequencing(on)
            .sequencing_active());
        assert!(!SystemConfig::new(Scheme::Locking)
            .with_sequencing(on)
            .sequencing_active());
        assert!(!SystemConfig::new(Scheme::Speculative).sequencing_active());
    }

    #[test]
    fn coordinator_partitioning_is_static_modulo() {
        let cfg = SystemConfig::new(Scheme::Speculative).with_coordinators(3);
        assert_eq!(cfg.coordinator_of(ClientId(0)), CoordinatorId(0));
        assert_eq!(cfg.coordinator_of(ClientId(4)), CoordinatorId(1));
        assert_eq!(cfg.coordinator_of(ClientId(5)), CoordinatorId(2));
        // The singleton maps every client to shard 0.
        let one = SystemConfig::new(Scheme::Blocking);
        assert_eq!(one.coordinator_of(ClientId(17)), CoordinatorId(0));
    }
}
