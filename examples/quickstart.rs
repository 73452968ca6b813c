//! Quickstart: build your own storage engine and stored procedures, then
//! run them live on the runtime's worker pool under speculative
//! concurrency control.
//!
//! The "application" is a two-partition bank: accounts are sharded by id,
//! deposits are single-partition transactions, and transfers between
//! accounts on different partitions are simple multi-partition
//! transactions (one fragment per participant, 2PC). Overdrafts abort.
//!
//! ```text
//! cargo run --release --example quickstart [multiplexed[:N]]
//! ```

use hcc::prelude::*;
use hcc_locking::LockMode;
use std::collections::HashMap;
use std::time::Duration;

// ---------------------------------------------------------------------
// 1. The storage engine: account balances with undo support.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum BankOp {
    Deposit {
        account: u64,
        amount: i64,
    },
    /// Withdraw (aborts the transaction on overdraft).
    Withdraw {
        account: u64,
        amount: i64,
    },
    Read {
        account: u64,
    },
}

// Fragments must round-trip through bytes so the durable command log and
// the replication log can carry them (a tag byte plus the fields).
impl LogEncode for BankOp {
    fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            BankOp::Deposit { account, amount } => {
                out.push(0);
                account.encode(out);
                amount.encode(out);
            }
            BankOp::Withdraw { account, amount } => {
                out.push(1);
                account.encode(out);
                amount.encode(out);
            }
            BankOp::Read { account } => {
                out.push(2);
                account.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let tag = u8::decode(input)?;
        Some(match tag {
            0 => BankOp::Deposit {
                account: u64::decode(input)?,
                amount: i64::decode(input)?,
            },
            1 => BankOp::Withdraw {
                account: u64::decode(input)?,
                amount: i64::decode(input)?,
            },
            2 => BankOp::Read {
                account: u64::decode(input)?,
            },
            _ => return None,
        })
    }
}

#[derive(Debug, Clone, Default)]
struct BankFragment {
    ops: Vec<BankOp>,
}

impl LogEncode for BankFragment {
    fn encode(&self, out: &mut Vec<u8>) {
        self.ops.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(BankFragment {
            ops: Vec::decode(input)?,
        })
    }
}

type BankOutput = Vec<i64>; // balances read

#[derive(Default)]
struct BankEngine {
    balances: HashMap<u64, i64>,
    undo: HashMap<TxnId, Vec<(u64, i64)>>, // pre-images
}

impl BankEngine {
    fn write(&mut self, txn: TxnId, account: u64, new: i64, undo: bool) {
        let prior = self.balances.insert(account, new).unwrap_or(0);
        if undo {
            self.undo.entry(txn).or_default().push((account, prior));
        }
    }

    fn balance(&self, account: u64) -> i64 {
        self.balances.get(&account).copied().unwrap_or(0)
    }

    fn total(&self) -> i64 {
        self.balances.values().sum()
    }
}

impl ExecutionEngine for BankEngine {
    type Fragment = BankFragment;
    type Output = BankOutput;

    fn execute(&mut self, txn: TxnId, frag: &BankFragment, undo: bool) -> ExecOutcome<BankOutput> {
        // Validate before writing: a failed fragment must leave no effects.
        for op in &frag.ops {
            if let BankOp::Withdraw { account, amount } = op {
                if self.balance(*account) < *amount {
                    return ExecOutcome {
                        result: Err(AbortReason::User),
                        ops: 1,
                    };
                }
            }
        }
        let mut out = Vec::new();
        for op in &frag.ops {
            match *op {
                BankOp::Deposit { account, amount } => {
                    let new = self.balance(account) + amount;
                    self.write(txn, account, new, undo);
                }
                BankOp::Withdraw { account, amount } => {
                    let new = self.balance(account) - amount;
                    self.write(txn, account, new, undo);
                }
                BankOp::Read { account } => out.push(self.balance(account)),
            }
        }
        ExecOutcome {
            result: Ok(out),
            ops: frag.ops.len() as u32 * 2,
        }
    }

    fn rollback(&mut self, txn: TxnId) -> u32 {
        let records = self.undo.remove(&txn).unwrap_or_default();
        let n = records.len() as u32;
        for (account, prior) in records.into_iter().rev() {
            self.balances.insert(account, prior);
        }
        n
    }

    fn forget(&mut self, txn: TxnId) -> u32 {
        self.undo.remove(&txn).map_or(0, |r| r.len() as u32)
    }

    fn snapshot(&self) -> Self {
        BankEngine {
            balances: self.balances.clone(),
            undo: HashMap::new(),
        }
    }

    fn lock_set(&self, frag: &BankFragment) -> Vec<(LockKey, LockMode)> {
        frag.ops
            .iter()
            .map(|op| match *op {
                BankOp::Deposit { account, .. } | BankOp::Withdraw { account, .. } => {
                    (LockKey(account), LockMode::Exclusive)
                }
                BankOp::Read { account } => (LockKey(account), LockMode::Shared),
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// 2. A multi-partition stored procedure: transfer between partitions.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Transfer {
    from: u64,
    to: u64,
    amount: i64,
}

fn partition_of(account: u64) -> PartitionId {
    PartitionId((account % 2) as u32)
}

impl Procedure<BankFragment, BankOutput> for Transfer {
    fn clone_box(&self) -> Box<dyn Procedure<BankFragment, BankOutput>> {
        Box::new(self.clone())
    }

    fn step(&self, prior: &[RoundOutputs<BankOutput>]) -> Step<BankFragment, BankOutput> {
        if prior.is_empty() {
            // One fragment per participant, single round: a "simple
            // multi-partition transaction" — the kind speculation loves.
            Step::Round {
                fragments: vec![
                    (
                        partition_of(self.from),
                        BankFragment {
                            ops: vec![BankOp::Withdraw {
                                account: self.from,
                                amount: self.amount,
                            }],
                        },
                    ),
                    (
                        partition_of(self.to),
                        BankFragment {
                            ops: vec![
                                BankOp::Deposit {
                                    account: self.to,
                                    amount: self.amount,
                                },
                                BankOp::Read { account: self.to },
                            ],
                        },
                    ),
                ],
                is_final: true,
            }
        } else {
            let dest = prior[0]
                .get(partition_of(self.to))
                .cloned()
                .unwrap_or_default();
            Step::Finish(dest)
        }
    }
}

// ---------------------------------------------------------------------
// 3. The workload: random deposits and transfers from each client.
// ---------------------------------------------------------------------

struct BankWorkload {
    accounts: u64,
    seed: u64,
    counter: u64,
}

impl RequestGenerator for BankWorkload {
    type Engine = BankEngine;

    fn next_request(&mut self, client: ClientId) -> Request<BankFragment, BankOutput> {
        // A tiny deterministic mix: 70% deposits, 30% cross-partition
        // transfers (some of which will overdraft and abort).
        self.counter = self
            .counter
            .wrapping_mul(6364136223846793005)
            .wrapping_add(self.seed ^ client.0 as u64 | 1);
        let r = self.counter >> 33;
        let a = r % self.accounts;
        let b = (r / self.accounts) % self.accounts;
        if r % 10 < 7 {
            Request::SinglePartition {
                partition: partition_of(a),
                fragment: BankFragment {
                    ops: vec![BankOp::Deposit {
                        account: a,
                        amount: 10,
                    }],
                },
                can_abort: false,
            }
        } else {
            Request::MultiPartition {
                procedure: Box::new(Transfer {
                    from: a,
                    to: if partition_of(b) == partition_of(a) {
                        b + 1
                    } else {
                        b
                    },
                    amount: 25,
                }),
                can_abort: true, // overdrafts abort after the fact
            }
        }
    }
}

fn main() {
    let backend = std::env::args()
        .nth(1)
        .map(|a| BackendChoice::parse(&a).unwrap_or_else(|e| panic!("{e}")))
        .unwrap_or(BackendChoice::multiplexed());
    let accounts = 1000u64;
    let system = SystemConfig::new(Scheme::Speculative)
        .with_partitions(2)
        .with_clients(8);
    let cfg = RuntimeConfig::new(system, backend)
        .with_window(Duration::from_millis(100), Duration::from_millis(500));

    let initial_per_account = 100i64;
    let build = move |p: PartitionId| {
        let mut e = BankEngine::default();
        for a in 0..accounts {
            if partition_of(a) == p {
                e.balances.insert(a, initial_per_account);
            }
        }
        e
    };

    println!("hcc quickstart: 2-partition bank under speculative concurrency control ({backend} backend)\n");
    let report = run(
        cfg,
        BankWorkload {
            accounts,
            seed: 42,
            counter: 1,
        },
        build,
    );

    let total: i64 = report.engines.iter().map(|e| e.total()).sum();
    println!("  committed (window) : {}", report.committed);
    println!("  throughput         : {:.0} txn/s", report.throughput_tps);
    println!(
        "  user aborts        : {} (overdrafts)",
        report.clients.user_aborted
    );
    println!(
        "  speculative execs  : {}",
        report.sched.speculative_executions
    );
    println!(
        "  squashed execs     : {}",
        report.sched.squashed_executions
    );
    println!(
        "  money conservation : {} accounts, total = {} (deposits added {})",
        accounts,
        total,
        total - accounts as i64 * initial_per_account,
    );

    // Transfers move money, deposits create it: conservation means total =
    // initial + 10 × committed deposits. Verify no money was created or
    // destroyed by aborted/squashed transfers.
    let deposits = (total - accounts as i64 * initial_per_account) / 10;
    println!("  committed deposits : {deposits}");
    assert!(
        total >= accounts as i64 * initial_per_account,
        "money destroyed!"
    );
    println!("\nOK: state consistent after concurrent speculation + aborts.");
}
