//! Timing shims around the two public traits the runtime drives: an
//! [`ExecutionEngine`] wrapper per partition and a [`RequestGenerator`]
//! wrapper for the workload.
//!
//! Every call into a wrapped engine or generator becomes one [`Span`]: a
//! kind, a start and end on a clock shared by all shims, and the
//! transaction it ran for. A request span runs from the generator's
//! `next_request` (issue) to its `on_result` (final outcome) and is the
//! parent of that request's generator and engine spans. A client numbers
//! its transaction attempts 0, 1, 2, … and has one request in flight at a
//! time, so a request owns the contiguous attempt range ending at the
//! transaction its outcome names; [`write_spans`] resolves parents that
//! way after the run.
//!
//! Spans stay in memory, bounded per shim. Per-kind call counts, total
//! time and duration histograms cover every call, also those past the
//! bound. The shims change no result: each forwards its arguments and
//! returns what the wrapped call returned.

use crate::hist::Histogram;
use hcc_common::{ClientId, LockKey, TxnId};
use hcc_core::{ExecOutcome, ExecutionEngine, Request, RequestGenerator};
use hcc_locking::LockMode;
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Spans kept per shim; calls past this are still tallied.
pub const SPAN_CAP: usize = 1 << 16;

/// The client of a span that belongs to no transaction (`lock_set` is
/// called without a transaction id).
pub const NO_CLIENT: u32 = u32::MAX;

/// What a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One client request, from issue to final outcome (retries included).
    Request,
    /// `RequestGenerator::next_request`.
    Generate,
    /// `ExecutionEngine::execute`.
    Execute,
    /// `ExecutionEngine::rollback`.
    Rollback,
    /// `ExecutionEngine::forget`.
    Forget,
    /// `ExecutionEngine::lock_set`.
    LockSet,
}

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Request => "request",
            SpanKind::Generate => "generator.next_request",
            SpanKind::Execute => "engine.execute",
            SpanKind::Rollback => "engine.rollback",
            SpanKind::Forget => "engine.forget",
            SpanKind::LockSet => "engine.lock_set",
        }
    }
}

/// One timed call, for the attempts `first_seq..=last_seq` of `client`'s
/// transactions: the whole attempt range for a request span, its first
/// attempt for a generator span, and the one attempt an engine call ran
/// for.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: SpanKind,
    pub client: u32,
    pub first_seq: u32,
    pub last_seq: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Bounded in-memory span store.
#[derive(Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
    /// Spans not kept because the store was full.
    pub dropped: u64,
}

impl SpanLog {
    fn push(&mut self, span: Span) {
        if self.spans.len() < SPAN_CAP {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }
}

/// Calls of one kind and their summed duration.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub calls: u64,
    pub ns: u64,
}

impl Tally {
    fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.ns += ns;
    }

    pub fn merge(&mut self, o: &Tally) {
        self.calls += o.calls;
        self.ns += o.ns;
    }

    /// Mean duration per call; 0 without calls.
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// The span clock: nanoseconds since one epoch shared by all shims.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    fn now(self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Everything one engine shim measured.
#[derive(Default)]
pub struct EngineTrace {
    pub execute: Tally,
    pub rollback: Tally,
    pub forget: Tally,
    pub lock_set: Tally,
    pub execute_ns: Histogram,
    pub spans: SpanLog,
}

impl EngineTrace {
    /// Fold another engine's tallies in (spans stay where they are).
    pub fn merge(&mut self, o: &EngineTrace) {
        self.execute.merge(&o.execute);
        self.rollback.merge(&o.rollback);
        self.forget.merge(&o.forget);
        self.lock_set.merge(&o.lock_set);
        self.execute_ns.merge(&o.execute_ns);
    }

    /// Time spent inside the wrapped engine, all kinds.
    pub fn total_ns(&self) -> u64 {
        self.execute.ns + self.rollback.ns + self.forget.ns + self.lock_set.ns
    }
}

/// An engine whose every call is timed.
pub struct TracedEngine<E> {
    pub inner: E,
    clock: Clock,
    // `lock_set` takes `&self`; an engine is stepped by one thread at a
    // time, so a `RefCell` suffices.
    trace: RefCell<EngineTrace>,
}

impl<E> TracedEngine<E> {
    pub fn new(inner: E, clock: Clock) -> Self {
        TracedEngine {
            inner,
            clock,
            trace: RefCell::new(EngineTrace::default()),
        }
    }

    /// Move the trace out, leaving an empty one.
    pub fn take_trace(&self) -> EngineTrace {
        self.trace.take()
    }
}

/// Time `call` as one engine span of `kind` for attempt `seq` of `client`.
fn timed<T>(
    clock: Clock,
    trace: &RefCell<EngineTrace>,
    kind: SpanKind,
    (client, seq): (u32, u32),
    call: impl FnOnce() -> T,
) -> T {
    let start_ns = clock.now();
    let out = call();
    let end_ns = clock.now();
    let ns = end_ns - start_ns;
    let mut t = trace.borrow_mut();
    match kind {
        SpanKind::Execute => {
            t.execute.add(ns);
            t.execute_ns.record(ns);
        }
        SpanKind::Rollback => t.rollback.add(ns),
        SpanKind::Forget => t.forget.add(ns),
        SpanKind::LockSet => t.lock_set.add(ns),
        SpanKind::Request | SpanKind::Generate => unreachable!("not an engine call"),
    }
    t.spans.push(Span {
        kind,
        client,
        first_seq: seq,
        last_seq: seq,
        start_ns,
        end_ns,
    });
    out
}

fn attempt(txn: TxnId) -> (u32, u32) {
    (txn.client().0, txn.seq())
}

impl<E: ExecutionEngine> ExecutionEngine for TracedEngine<E> {
    type Fragment = E::Fragment;
    type Output = E::Output;

    fn execute(
        &mut self,
        txn: TxnId,
        fragment: &Self::Fragment,
        undo: bool,
    ) -> ExecOutcome<Self::Output> {
        timed(
            self.clock,
            &self.trace,
            SpanKind::Execute,
            attempt(txn),
            || self.inner.execute(txn, fragment, undo),
        )
    }

    fn rollback(&mut self, txn: TxnId) -> u32 {
        timed(
            self.clock,
            &self.trace,
            SpanKind::Rollback,
            attempt(txn),
            || self.inner.rollback(txn),
        )
    }

    fn forget(&mut self, txn: TxnId) -> u32 {
        timed(
            self.clock,
            &self.trace,
            SpanKind::Forget,
            attempt(txn),
            || self.inner.forget(txn),
        )
    }

    fn snapshot(&self) -> Self {
        TracedEngine::new(self.inner.snapshot(), self.clock)
    }

    fn lock_set(&self, fragment: &Self::Fragment) -> Vec<(LockKey, LockMode)> {
        timed(
            self.clock,
            &self.trace,
            SpanKind::LockSet,
            (NO_CLIENT, 0),
            || self.inner.lock_set(fragment),
        )
    }
}

/// Everything the generator shim measured.
#[derive(Default)]
pub struct GeneratorTrace {
    pub generate: Tally,
    /// Issue → outcome of committed single-partition requests.
    pub sp_latency_ns: Histogram,
    /// Issue → outcome of committed multi-partition requests.
    pub mp_latency_ns: Histogram,
    pub spans: SpanLog,
}

impl GeneratorTrace {
    /// Fold another generator's tallies in (spans stay where they are).
    pub fn merge(&mut self, o: &GeneratorTrace) {
        self.generate.merge(&o.generate);
        self.sp_latency_ns.merge(&o.sp_latency_ns);
        self.mp_latency_ns.merge(&o.mp_latency_ns);
    }
}

/// Where a [`TracedGenerator`] leaves its trace when it is dropped.
pub type TraceSlot = Arc<Mutex<Option<GeneratorTrace>>>;

/// The request a client has in flight.
#[derive(Clone, Copy)]
struct Open {
    start_ns: u64,
    first_seq: u32,
    multi_partition: bool,
}

/// A generator whose every request is timed from issue to outcome.
///
/// The runtime owns the generator and drops it at the end of a run; the
/// trace is handed over to the [`GeneratorTrace`] slot given at
/// construction when that happens.
pub struct TracedGenerator<W> {
    inner: W,
    clock: Clock,
    /// Per client: the attempt number of its next transaction, and its
    /// request in flight.
    next_seq: Vec<u32>,
    open: Vec<Option<Open>>,
    trace: GeneratorTrace,
    sink: TraceSlot,
}

impl<W> TracedGenerator<W> {
    pub fn new(inner: W, clients: u32, clock: Clock, sink: TraceSlot) -> Self {
        TracedGenerator {
            inner,
            clock,
            next_seq: vec![0; clients as usize],
            open: vec![None; clients as usize],
            trace: GeneratorTrace::default(),
            sink,
        }
    }
}

impl<W> Drop for TracedGenerator<W> {
    fn drop(&mut self) {
        // Never panic in `drop`: a poisoned slot just loses the trace,
        // which the caller sees as a missing trace.
        if let Ok(mut slot) = self.sink.lock() {
            *slot = Some(std::mem::take(&mut self.trace));
        }
    }
}

impl<W: RequestGenerator> RequestGenerator for TracedGenerator<W> {
    type Engine = TracedEngine<W::Engine>;

    fn next_request(
        &mut self,
        client: ClientId,
    ) -> Request<
        <Self::Engine as ExecutionEngine>::Fragment,
        <Self::Engine as ExecutionEngine>::Output,
    > {
        let start_ns = self.clock.now();
        let req = self.inner.next_request(client);
        let end_ns = self.clock.now();
        let c = client.as_usize();
        let first_seq = self.next_seq[c];
        self.trace.generate.add(end_ns - start_ns);
        self.trace.spans.push(Span {
            kind: SpanKind::Generate,
            client: client.0,
            first_seq,
            last_seq: first_seq,
            start_ns,
            end_ns,
        });
        self.open[c] = Some(Open {
            start_ns,
            first_seq,
            multi_partition: matches!(req, Request::MultiPartition { .. }),
        });
        req
    }

    fn on_result(&mut self, client: ClientId, txn: TxnId, committed: bool) {
        let end_ns = self.clock.now();
        self.inner.on_result(client, txn, committed);
        let c = client.as_usize();
        self.next_seq[c] = txn.seq().wrapping_add(1);
        let Some(open) = self.open[c].take() else {
            return;
        };
        if committed {
            let hist = if open.multi_partition {
                &mut self.trace.mp_latency_ns
            } else {
                &mut self.trace.sp_latency_ns
            };
            hist.record(end_ns - open.start_ns);
        }
        self.trace.spans.push(Span {
            kind: SpanKind::Request,
            client: client.0,
            first_seq: open.first_seq,
            last_seq: txn.seq(),
            start_ns: open.start_ns,
            end_ns,
        });
    }
}

/// Write spans as tab-separated `id kind parent client first_seq last_seq
/// start_ns end_ns` lines, request spans first. `parent` is the id of the
/// request span that covers the span's attempt, or `-` when that request
/// was not kept (past the bound, or still in flight when the run ended).
pub fn write_spans(out: &mut impl Write, logs: &[&SpanLog]) -> std::io::Result<()> {
    writeln!(
        out,
        "id\tkind\tparent\tclient\tfirst_seq\tlast_seq\tstart_ns\tend_ns"
    )?;
    let all = || logs.iter().flat_map(|l| l.spans.iter());
    let requests = all().filter(|s| s.kind == SpanKind::Request);
    let others = all().filter(|s| s.kind != SpanKind::Request);
    let mut owner: HashMap<(u32, u32), usize> = HashMap::new();
    for (id, s) in requests.clone().enumerate() {
        for seq in s.first_seq..=s.last_seq {
            owner.insert((s.client, seq), id);
        }
    }
    for (id, s) in requests.chain(others).enumerate() {
        let parent = match (s.kind, owner.get(&(s.client, s.first_seq))) {
            (SpanKind::Request, _) | (_, None) => "-".to_string(),
            (_, Some(p)) => p.to_string(),
        };
        writeln!(
            out,
            "{id}\t{}\t{parent}\t{}\t{}\t{}\t{}\t{}",
            s.kind.name(),
            s.client,
            s.first_seq,
            s.last_seq,
            s.start_ns,
            s.end_ns
        )?;
    }
    Ok(())
}
