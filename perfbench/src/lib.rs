//! Benchmark of the live runtime (`hcc_runtime::run`, multiplexed backend
//! with one worker) on four of the paper's workloads.
//!
//! An untraced run reports end-to-end metrics; a traced run wraps the
//! engines and the request generator in timing shims ([`shim`]) and
//! reports where worker time went, layer by layer. See `README.md` in
//! this directory for the workloads, the metrics and what is left out.

pub mod hist;
pub mod measure;
pub mod shim;
pub mod workload;
