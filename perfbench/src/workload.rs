//! The four benchmark workloads and their correctness checks.

use hcc_common::{LogEncode, PartitionId, Scheme, SystemConfig};
use hcc_core::{ExecutionEngine, RequestGenerator};
use hcc_storage::tpcc::consistency;
use hcc_workloads::micro::{make_key, MicroConfig, MicroEngine, MicroWorkload, KEYS_PER_CLIENT};
use hcc_workloads::tpcc::{TpccConfig, TpccEngine, TpccWorkload};

/// Closed-loop clients, as in paper §5.
pub const CLIENTS: u32 = 40;
pub const PARTITIONS: u32 = 2;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["micro-sp", "micro-mp-spec", "micro-mp-lock", "tpcc"];

/// A workload: the system it runs on, its generator and engines, and the
/// check of the state a run leaves behind.
pub trait Subject {
    type Fragment: Clone + std::fmt::Debug + LogEncode + Send + 'static;
    type Output: Clone + std::fmt::Debug + Send + 'static;
    type Engine: ExecutionEngine<Fragment = Self::Fragment, Output = Self::Output> + Send + 'static;
    type Gen: RequestGenerator<Engine = Self::Engine> + Send + 'static;

    fn system(&self) -> SystemConfig;
    /// The generator of measurement round `round`, seeded with
    /// [`round_seed`].
    fn generator(&self, round: u64) -> Self::Gen;
    fn build_engine(&self, p: PartitionId) -> Self::Engine;
    /// Check the final engines against the count of committed
    /// transactions.
    fn check_state(&self, engines: &[&Self::Engine], committed: u64) -> Result<(), String>;
    fn live_undo_buffers(e: &Self::Engine) -> usize;
    fn fingerprint(e: &Self::Engine) -> u64;
}

/// The workload seed of measurement round `round`; round 0 uses `seed`
/// itself.
pub fn round_seed(seed: u64, round: u64) -> u64 {
    seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Build every partition's engine.
pub fn build_all<S: Subject>(s: &S) -> Vec<S::Engine> {
    (0..s.system().partitions)
        .map(|p| s.build_engine(PartitionId(p)))
        .collect()
}

/// The §5 microbenchmark: each transaction is 12 read-modify-writes.
pub struct Micro {
    pub cfg: MicroConfig,
    pub scheme: Scheme,
}

impl Micro {
    pub fn new(name: &str, seed: u64) -> Option<Self> {
        let (mp_fraction, abort_prob, scheme) = match name {
            "micro-sp" => (0.0, 0.0, Scheme::Speculative),
            "micro-mp-spec" => (0.5, 0.05, Scheme::Speculative),
            "micro-mp-lock" => (0.5, 0.0, Scheme::Locking),
            _ => return None,
        };
        let cfg = MicroConfig {
            partitions: PARTITIONS,
            clients: CLIENTS,
            mp_fraction,
            abort_prob,
            seed,
            ..MicroConfig::default()
        };
        Some(Micro { cfg, scheme })
    }
}

impl Subject for Micro {
    type Fragment = <MicroEngine as ExecutionEngine>::Fragment;
    type Output = <MicroEngine as ExecutionEngine>::Output;
    type Engine = MicroEngine;
    type Gen = MicroWorkload;

    fn system(&self) -> SystemConfig {
        SystemConfig::new(self.scheme)
            .with_partitions(self.cfg.partitions)
            .with_clients(self.cfg.clients)
            .with_seed(self.cfg.seed)
    }

    fn generator(&self, round: u64) -> MicroWorkload {
        MicroWorkload::new(MicroConfig {
            seed: round_seed(self.cfg.seed, round),
            ..self.cfg
        })
    }

    fn build_engine(&self, p: PartitionId) -> MicroEngine {
        MicroWorkload::new(self.cfg).build_engine(p)
    }

    /// Every committed transaction added one to each of its 12 keys and
    /// every aborted one left none behind, so the keys sum to 12 per
    /// commit.
    fn check_state(&self, engines: &[&MicroEngine], committed: u64) -> Result<(), String> {
        let mut sum = 0u64;
        for (p, e) in engines.iter().enumerate() {
            for c in 0..self.cfg.clients {
                for i in 0..KEYS_PER_CLIENT {
                    let k = make_key(c, p as u32, i);
                    let v = e
                        .read_value(k)
                        .ok_or_else(|| format!("P{p}: key {k:#x} missing"))?;
                    sum += u64::from(v);
                }
            }
        }
        let want = u64::from(self.cfg.keys_per_txn) * committed;
        if sum == want {
            Ok(())
        } else {
            Err(format!(
                "key values sum to {sum}, expected {want} ({} per commit × {committed} commits)",
                self.cfg.keys_per_txn
            ))
        }
    }

    fn live_undo_buffers(e: &MicroEngine) -> usize {
        e.live_undo_buffers()
    }

    fn fingerprint(e: &MicroEngine) -> u64 {
        e.fingerprint()
    }
}

/// TPC-C at ÷10 scale, 2 warehouses on 2 partitions, standard mix.
pub struct Tpcc {
    pub cfg: TpccConfig,
    pub clients: u32,
}

impl Tpcc {
    pub fn new(seed: u64) -> Self {
        let mut cfg = TpccConfig::new(PARTITIONS, PARTITIONS);
        cfg.seed = seed;
        Tpcc {
            cfg,
            clients: CLIENTS,
        }
    }
}

impl Subject for Tpcc {
    type Fragment = <TpccEngine as ExecutionEngine>::Fragment;
    type Output = <TpccEngine as ExecutionEngine>::Output;
    type Engine = TpccEngine;
    type Gen = TpccWorkload;

    fn system(&self) -> SystemConfig {
        SystemConfig::new(Scheme::Speculative)
            .with_partitions(self.cfg.partitions)
            .with_clients(self.clients)
            .with_seed(self.cfg.seed)
    }

    fn generator(&self, round: u64) -> TpccWorkload {
        TpccWorkload::new(TpccConfig {
            seed: round_seed(self.cfg.seed, round),
            ..self.cfg
        })
    }

    fn build_engine(&self, p: PartitionId) -> TpccEngine {
        TpccWorkload::new(self.cfg).build_engine(p)
    }

    fn check_state(&self, engines: &[&TpccEngine], _committed: u64) -> Result<(), String> {
        for (p, e) in engines.iter().enumerate() {
            consistency::check(&e.store).map_err(|v| {
                format!(
                    "P{p}: {} consistency violations, first {:?}",
                    v.len(),
                    v.first()
                )
            })?;
        }
        Ok(())
    }

    fn live_undo_buffers(e: &TpccEngine) -> usize {
        e.live_undo_buffers()
    }

    fn fingerprint(e: &TpccEngine) -> u64 {
        e.store.fingerprint()
    }
}
