//! # hcc — low-overhead concurrency control for partitioned main-memory databases
//!
//! A from-scratch Rust reproduction of Jones, Abadi and Madden, *Low
//! Overhead Concurrency Control for Partitioned Main Memory Databases*
//! (SIGMOD 2010): the H-Store-style execution substrate (single-threaded
//! partitions, central coordinator, two-phase commit, primary/backup
//! replication) and the paper's three concurrency control schemes —
//! **blocking**, **speculative execution**, and **lightweight locking** —
//! plus the OCC variant sketched in its §5.7.
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`common`] | ids, virtual time, protocol messages, cost model, stats |
//! | [`storage`] | byte-string KV store and TPC-C tables, both with undo |
//! | [`locking`] | single-threaded lock manager + deadlock detection |
//! | [`core`] | the schedulers, coordinator, client-side 2PC |
//! | [`workloads`] | the paper's microbenchmark and modified TPC-C |
//! | [`sim`] | deterministic discrete-event driver (calibrated to Table 2) |
//! | [`runtime`] | live driver: every actor on a multiplexed worker pool |
//! | [`model`] | the §6 analytical throughput model |
//!
//! ## Quickstart
//!
//! ```
//! use hcc::prelude::*;
//! use hcc::workloads::micro::{MicroConfig, MicroWorkload};
//!
//! // Two partitions, 10 closed-loop clients, 20% multi-partition
//! // transactions, speculative concurrency control.
//! let micro = MicroConfig { mp_fraction: 0.2, clients: 10, ..Default::default() };
//! let system = SystemConfig::new(Scheme::Speculative)
//!     .with_partitions(2)
//!     .with_clients(10);
//! let sim = SimConfig::new(system)
//!     .with_window(Nanos::from_millis(10), Nanos::from_millis(50));
//! let builder = MicroWorkload::new(micro);
//! let (report, _, _, _) =
//!     Simulation::new(sim, MicroWorkload::new(micro), move |p| builder.build_engine(p)).run();
//! assert!(report.committed > 0);
//! println!("{}", report.summary());
//! ```
//!
//! See `examples/` for the live runtime, TPC-C, and scheme-selection
//! walkthroughs, and `crates/bench` for the harness that regenerates every
//! figure and table of the paper.

pub use hcc_common as common;
pub use hcc_core as core;
pub use hcc_locking as locking;
pub use hcc_model as model;
pub use hcc_runtime as runtime;
pub use hcc_sim as sim;
pub use hcc_storage as storage;
pub use hcc_workloads as workloads;

/// The types most programs need.
pub mod prelude {
    pub use hcc_common::{
        AbortReason, AdaptiveConfig, AdaptiveStats, ClientId, CommitRecord, CoordinatorRef,
        CostModel, Decision, DurabilityConfig, FailurePlan, FragmentResponse, FragmentTask,
        LockKey, LogEncode, Nanos, PartitionId, RetryConfig, Scheme, SystemConfig, TxnId,
        TxnResult,
    };
    pub use hcc_core::{
        make_scheduler, ExecOutcome, ExecutionEngine, Outbox, PartitionOut, Procedure, ReplicaCore,
        ReplicationSession, Request, RequestGenerator, RoundOutputs, Scheduler, Step,
    };
    pub use hcc_runtime::{run, BackendChoice, RunMode, RuntimeConfig, RuntimeReport};
    pub use hcc_sim::{SimConfig, SimFailover, SimReport, Simulation};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_resolve() {
        use crate::prelude::*;
        let cfg = SystemConfig::new(Scheme::Speculative);
        assert_eq!(cfg.scheme, Scheme::Speculative);
        let _ = CostModel::default();
    }
}
