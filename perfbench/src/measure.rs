//! One benchmark invocation: rounds of set-up and a timed live run, the
//! checks of each round, and the metrics of all rounds together.
//!
//! Every round builds fresh engines. Throughput of runs on engines built
//! once per process varies by up to a fifth between processes, and by as
//! much between runs in one process, in two levels; rebuilding per round
//! makes each round an independent draw, and pooling the rounds averages
//! the levels.

use crate::shim::{
    write_spans, Clock, EngineTrace, GeneratorTrace, SpanLog, TraceSlot, TracedEngine,
    TracedGenerator,
};
use crate::workload::{build_all, Subject};
use hcc_common::stats::{LatencyHistogram, SchedulerCounters};
use hcc_common::SystemConfig;
use hcc_core::client::ClientStats;
use hcc_core::{ExecutionEngine, RequestGenerator};
use hcc_runtime::{BackendChoice, RunMode, RuntimeConfig, RuntimeReport};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One reactor worker: the other core is left to the tick timer, the OS
/// and the benchmark itself.
pub const WORKERS: usize = 1;
pub const BACKEND: BackendChoice = BackendChoice::Multiplexed { workers: WORKERS };
/// Each round warms up for this long before its window opens.
pub const WARMUP: Duration = Duration::from_millis(100);
/// The measurement window of one round.
pub const ROUND: Duration = Duration::from_secs(1);

/// Set-up is timed once per round and then repeated, while it has taken
/// less than [`SETUP_MIN_TOTAL`] in all, up to [`SETUP_MAX_REPEATS`]
/// samples.
const SETUP_MAX_REPEATS: usize = 200;
const SETUP_MIN_TOTAL: Duration = Duration::from_millis(300);

/// A named measurement with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    // Every ratio below guards its denominator.
    assert!(value.is_finite(), "{name} is not finite: {value}");
    Metric { name, value, unit }
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Time of a fixed CPU-bound loop, in ns: a host-speed reference that
/// tells drift of the machine apart from a change of the code.
fn host_ref_ns() -> f64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let start = Instant::now();
    for _ in 0..(1 << 20) {
        x = black_box(x.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ (x >> 29));
    }
    black_box(x);
    start.elapsed().as_nanos() as f64
}

/// Build every partition's engine; returns the time it took in seconds.
fn timed_build<S: Subject>(s: &S) -> (f64, Vec<S::Engine>) {
    let start = Instant::now();
    let engines = build_all(s);
    (start.elapsed().as_secs_f64(), engines)
}

/// A finished live run and the wall time `hcc_runtime::run` took.
pub struct LiveRun<E: ExecutionEngine> {
    pub report: RuntimeReport<E>,
    pub wall: Duration,
}

/// Drive `generator` on prebuilt `engines` through the live runtime in
/// `mode`.
pub fn run_live<W>(
    system: SystemConfig,
    mode: RunMode,
    generator: W,
    engines: Vec<W::Engine>,
) -> LiveRun<W::Engine>
where
    W: RequestGenerator + Send + 'static,
    W::Engine: Send + 'static,
    <W::Engine as ExecutionEngine>::Fragment: Send + 'static,
    <W::Engine as ExecutionEngine>::Output: Send + 'static,
{
    let mut cfg = RuntimeConfig::new(system, BACKEND);
    cfg.mode = mode;
    let slots = Mutex::new(engines.into_iter().map(Some).collect::<Vec<_>>());
    let start = Instant::now();
    let report = hcc_runtime::run(cfg, generator, move |p| {
        slots.lock().expect("engine slots poisoned")[p.as_usize()]
            .take()
            .expect("one engine per partition")
    });
    LiveRun {
        report,
        wall: start.elapsed(),
    }
}

const ROUND_MODE: RunMode = RunMode::Timed {
    warmup: WARMUP,
    measure: ROUND,
};

/// The checks every run passes: the workload's own state check, no undo
/// buffer left behind, and no commit decision for an unknown transaction.
pub fn check<S: Subject, E: ExecutionEngine>(
    s: &S,
    report: &RuntimeReport<E>,
    inner: impl Fn(&E) -> &S::Engine,
) -> Result<(), String> {
    let engines: Vec<&S::Engine> = report.engines.iter().map(inner).collect();
    for (p, e) in engines.iter().enumerate() {
        let live = S::live_undo_buffers(e);
        if live != 0 {
            return Err(format!("P{p}: {live} undo buffers left after the run"));
        }
    }
    if report.sched.stray_decisions != 0 {
        return Err(format!(
            "{} stray commit decisions",
            report.sched.stray_decisions
        ));
    }
    s.check_state(&engines, report.clients.committed)
}

/// A quantile of the runtime's latency histogram in µs, interpolated
/// linearly inside its bucket.
///
/// `LatencyHistogram::quantile` returns the lower edge of the bucket that
/// holds the sample of a given rank; its buckets are 1 µs wide below
/// 1 ms, 10 µs below 10 ms and 100 µs below 100 ms. Asking for the lowest
/// and highest rank in the same bucket places the wanted rank inside it.
pub fn latency_us(h: &LatencyHistogram, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    let at_rank = |k: u64| h.quantile((k as f64 - 0.5) / n as f64).0;
    let rank = ((n as f64) * q).ceil().clamp(1.0, n as f64) as u64;
    let edge = at_rank(rank);
    // First and last rank whose sample lies in `edge`'s bucket.
    let (mut lo, mut hi) = (1, rank);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if at_rank(mid) < edge {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let first = lo;
    let (mut lo, mut hi) = (rank, n);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if at_rank(mid) > edge {
            hi = mid - 1;
        } else {
            lo = mid;
        }
    }
    let last = lo;
    let edge_us = edge / 1_000;
    let width_us = match edge_us {
        0..=999 => 1,
        1_000..=9_999 => 10,
        10_000..=99_999 => 100,
        _ => 0,
    };
    let within = (rank - first) as f64 + 0.5;
    let in_bucket = (last - first + 1) as f64;
    edge_us as f64 + width_us as f64 * within / in_bucket
}

/// Outcomes and checks of a set of rounds.
#[derive(Default)]
struct Rounds {
    /// One entry per round: `Err` names a failed check.
    checks: Vec<Result<(), String>>,
    /// Requests that reached a final outcome.
    attempted: u64,
    /// Requests abandoned after the retry limit, and all requests of a
    /// round whose check failed.
    failed: u64,
    /// Per round: window throughput and commit latencies.
    windows: Vec<(f64, LatencyHistogram)>,
}

impl Rounds {
    fn add<E: ExecutionEngine>(&mut self, r: &RuntimeReport<E>, checked: Result<(), String>) {
        let c = &r.clients;
        let attempted = c.committed + c.user_aborted;
        self.attempted += attempted;
        self.failed += if checked.is_ok() {
            c.retry_exhausted
        } else {
            attempted
        };
        self.checks.push(checked);
        self.windows.push((r.throughput_tps, c.latency.clone()));
    }

    /// Throughput and latencies pooled over the middle half of the rounds
    /// by throughput (all rounds when `trim` is false, or when there are
    /// fewer than four). Trimming drops the rounds that caught the host in
    /// its fastest and slowest stretches, which otherwise decide much of
    /// how far the pooled figures move between runs.
    fn pooled(&self, trim: bool) -> (f64, LatencyHistogram) {
        let mut order: Vec<&(f64, LatencyHistogram)> = self.windows.iter().collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0));
        let cut = if trim { order.len() / 4 } else { 0 };
        let kept = &order[cut..order.len() - cut];
        let mut latency = LatencyHistogram::default();
        for (_, h) in kept {
            latency.merge(h);
        }
        let tps = kept.iter().map(|(t, _)| t).sum::<f64>();
        (ratio(tps, kept.len() as f64), latency)
    }
}

/// What one benchmark invocation found.
pub struct Outcome {
    /// One entry per round: `Err` names a failed check.
    pub checks: Vec<Result<(), String>>,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics the benchmark reports.
    pub metrics: Vec<Metric>,
    /// Further figures for the record line.
    pub extra: Vec<Metric>,
    /// The traces of the first traced round.
    pub traces: Option<Traces>,
}

/// Measure `s` for `rounds` rounds, traced or not, with the host
/// reference loop timed before and after: a per-layer metric of a traced
/// measurement, a record figure of an untraced one.
pub fn bench<S: Subject>(s: &S, rounds: u64, trace: bool) -> Outcome {
    let mut host = vec![host_ref_ns(), host_ref_ns(), host_ref_ns()];
    let mut out = if trace {
        traced(s, rounds)
    } else {
        untraced(s, rounds)
    };
    host.extend([host_ref_ns(), host_ref_ns(), host_ref_ns()]);
    let host_ref = metric("host.ref_ns", median(host), "ns");
    if trace {
        out.metrics.push(host_ref);
    } else {
        out.extra.push(host_ref);
    }
    out
}

/// The untraced end-to-end measurement: `rounds` rounds, the middle half
/// of them pooled into one throughput and one latency histogram.
fn untraced<S: Subject>(s: &S, rounds: u64) -> Outcome {
    let mut all = Rounds::default();
    let mut setup = Vec::new();
    for round in 0..rounds {
        let (took, engines) = timed_build(s);
        setup.push(took);
        let run = run_live(s.system(), ROUND_MODE, s.generator(round), engines);
        let checked = check(s, &run.report, |e| e);
        all.add(&run.report, checked);
        eprintln!(
            "perfbench: round {round}: {:.0} tps, p50 {:.1} us, p99 {:.1} us",
            run.report.throughput_tps,
            latency_us(&run.report.clients.latency, 0.5),
            latency_us(&run.report.clients.latency, 0.99)
        );
    }
    while setup.len() < SETUP_MAX_REPEATS
        && setup.iter().sum::<f64>() < SETUP_MIN_TOTAL.as_secs_f64()
    {
        setup.push(timed_build(s).0);
    }
    let (tps, h) = all.pooled(true);
    let (all_tps, all_h) = all.pooled(false);
    let metrics = vec![
        metric("throughput_tps", tps, "1/s"),
        metric("latency_p50_us", latency_us(&h, 0.5), "us"),
        metric("setup_s", median(setup.clone()), "s"),
    ];
    let round_tps = || all.windows.iter().map(|(t, _)| *t);
    let extra = vec![
        metric("rounds", rounds as f64, "count"),
        metric(
            "round_throughput_min_tps",
            round_tps().fold(f64::INFINITY, f64::min),
            "1/s",
        ),
        metric(
            "round_throughput_max_tps",
            round_tps().fold(0.0, f64::max),
            "1/s",
        ),
        metric("all_rounds_throughput_tps", all_tps, "1/s"),
        metric("all_rounds_latency_p99_us", latency_us(&all_h, 0.99), "us"),
        // Tail latency moves with the host's state by 15-20% between runs,
        // more than a third of the largest bound a metric may have, so it
        // is recorded but not a metric.
        metric("latency_p99_us", latency_us(&h, 0.99), "us"),
        metric("latency_p999_us", latency_us(&h, 0.999), "us"),
        metric("latency_samples", h.count() as f64, "count"),
        metric(
            "failed_share",
            ratio(all.failed as f64, all.attempted as f64),
            "ratio",
        ),
        metric("setup_repeats", setup.len() as f64, "count"),
    ];
    Outcome {
        checks: all.checks,
        attempted: all.attempted,
        failed: all.failed,
        metrics,
        extra,
        traces: None,
    }
}

/// One round's shim traces: one per engine, and the generator's.
pub struct Traces {
    pub engines: Vec<EngineTrace>,
    pub generator: GeneratorTrace,
}

impl Traces {
    pub fn write_spans(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        write_spans(out, &self.logs())
    }

    fn logs(&self) -> Vec<&SpanLog> {
        let mut logs = vec![&self.generator.spans];
        logs.extend(self.engines.iter().map(|e| &e.spans));
        logs
    }
}

/// What the traced rounds measured, summed over rounds.
#[derive(Default)]
struct Layers {
    engine: EngineTrace,
    generator: GeneratorTrace,
    busy_ns: u64,
    steps: u64,
    wall: Duration,
    clients: ClientStats,
    sched: SchedulerCounters,
    spans_kept: usize,
    spans_dropped: u64,
}

/// The generator of a round and fresh engines, wrapped in the timing
/// shims, and the slot the generator's trace lands in when the runtime
/// drops it.
pub struct Shimmed<S: Subject> {
    pub generator: TracedGenerator<S::Gen>,
    pub engines: Vec<TracedEngine<S::Engine>>,
    pub trace: TraceSlot,
}

impl<S: Subject> Shimmed<S> {
    pub fn new(s: &S, round: u64) -> Self {
        let clock = Clock::start();
        let trace = Arc::new(Mutex::new(None));
        let clients = s.system().clients;
        Shimmed {
            generator: TracedGenerator::new(s.generator(round), clients, clock, trace.clone()),
            engines: build_all(s)
                .into_iter()
                .map(|e| TracedEngine::new(e, clock))
                .collect(),
            trace,
        }
    }
}

/// One traced round: the engines and the generator wrapped in the timing
/// shims. Folds the round into `all` and `layers` and returns its traces.
fn traced_round<S: Subject>(s: &S, round: u64, all: &mut Rounds, layers: &mut Layers) -> Traces {
    let shimmed = Shimmed::new(s, round);
    let sink = shimmed.trace;
    let run = run_live(s.system(), ROUND_MODE, shimmed.generator, shimmed.engines);
    let r = &run.report;
    let checked = check(s, r, |e: &TracedEngine<S::Engine>| &e.inner);
    all.add(r, checked);
    let traces = Traces {
        engines: r.engines.iter().map(TracedEngine::take_trace).collect(),
        generator: sink
            .lock()
            .expect("generator trace slot poisoned")
            .take()
            .expect("the runtime drops the generator before it returns"),
    };
    for e in &traces.engines {
        layers.engine.merge(e);
    }
    layers.generator.merge(&traces.generator);
    for log in traces.logs() {
        layers.spans_kept += log.spans.len();
        layers.spans_dropped += log.dropped;
    }
    layers.busy_ns += r.workers.iter().map(|w| w.busy_ns).sum::<u64>();
    layers.steps += r.workers.iter().map(|w| w.steps).sum::<u64>();
    layers.wall += run.wall;
    layers.clients.merge(&r.clients);
    layers.sched.merge(&r.sched);
    traces
}

/// The traced measurement: `rounds` rounds (at least 2) that alternate
/// untraced and traced, so that both kinds see the same drift of the
/// host. The per-layer metrics come from the traced rounds; the
/// throughputs of both kinds give the tracing overhead.
fn traced<S: Subject>(s: &S, rounds: u64) -> Outcome {
    let (mut plain, mut traced) = (Rounds::default(), Rounds::default());
    let mut layers = Layers::default();
    let mut first = None;
    for round in 0..rounds.max(2) {
        if round % 2 == 0 {
            let run = run_live(s.system(), ROUND_MODE, s.generator(round), build_all(s));
            let checked = check(s, &run.report, |e| e);
            plain.add(&run.report, checked);
        } else {
            let traces = traced_round(s, round, &mut traced, &mut layers);
            first.get_or_insert(traces);
        }
    }
    let (metrics, extra) = per_layer(&layers, traced.pooled(true).0, plain.pooled(true).0);
    let mut checks = plain.checks;
    checks.extend(traced.checks);
    Outcome {
        checks,
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        metrics,
        extra,
        traces: first,
    }
}

/// Per-layer metrics of the traced rounds, plus the busy-time accounting
/// the record line carries. Engine, generator and core self time add up
/// to worker busy time; core self time is the rest.
fn per_layer(l: &Layers, traced_tps: f64, untraced_tps: f64) -> (Vec<Metric>, Vec<Metric>) {
    let eng = &l.engine;
    let gen = &l.generator;
    let busy = l.busy_ns as f64;
    let engine_ns = eng.total_ns() as f64;
    let core_ns = busy - engine_ns - gen.generate.ns as f64;
    let c = &l.clients;
    let committed = c.committed as f64;
    let s = &l.sched;
    let frags = s.fragments_executed as f64;
    let locks = (s.locks_granted_immediately + s.locks_waited) as f64;
    let worker_ns = l.wall.as_nanos() as f64 * WORKERS as f64;
    let us = |h: &crate::hist::Histogram, q| h.quantile(q) / 1e3;
    let main = vec![
        metric(
            "engine.execute_share",
            ratio(eng.execute.ns as f64, busy),
            "ratio",
        ),
        metric("engine.execute_ns_p50", eng.execute_ns.quantile(0.5), "ns"),
        metric("engine.execute_ns_p99", eng.execute_ns.quantile(0.99), "ns"),
        metric(
            "engine.rollback_ns_per_call",
            eng.rollback.ns_per_call(),
            "ns",
        ),
        metric("engine.rollbacks", eng.rollback.calls as f64, "count"),
        metric("engine.forget_ns_per_call", eng.forget.ns_per_call(), "ns"),
        metric(
            "engine.lock_set_ns_per_call",
            eng.lock_set.ns_per_call(),
            "ns",
        ),
        metric("generator.ns_per_request", gen.generate.ns_per_call(), "ns"),
        metric("core.self_ns_per_txn", ratio(core_ns, committed), "ns/txn"),
        metric(
            "runtime.steps_per_txn",
            ratio(l.steps as f64, committed),
            "count/txn",
        ),
        metric("runtime.busy_share", ratio(busy, worker_ns), "ratio"),
        metric(
            "sched.fragments_per_txn",
            ratio(frags, committed),
            "count/txn",
        ),
        metric(
            "sched.squash_share",
            ratio(s.squashed_executions as f64, frags),
            "ratio",
        ),
        metric(
            "sched.fast_path_share",
            ratio(s.fast_path as f64, frags),
            "ratio",
        ),
        metric(
            "lock.wait_share",
            ratio(s.locks_waited as f64, locks),
            "ratio",
        ),
        metric("lock.deadlocks", s.local_deadlocks as f64, "count"),
        metric("lock.timeouts", s.lock_timeouts as f64, "count"),
        metric("txn.sp_latency_p50_us", us(&gen.sp_latency_ns, 0.5), "us"),
        metric("txn.mp_latency_p50_us", us(&gen.mp_latency_ns, 0.5), "us"),
        metric("txn.mp_latency_p99_us", us(&gen.mp_latency_ns, 0.99), "us"),
        metric(
            "client.retries_per_txn",
            ratio(c.retries as f64, committed),
            "count/txn",
        ),
        metric(
            "client.user_abort_share",
            ratio(c.user_aborted as f64, (c.committed + c.user_aborted) as f64),
            "ratio",
        ),
        metric(
            "trace.overhead_share",
            1.0 - ratio(traced_tps, untraced_tps),
            "ratio",
        ),
    ];
    let extra = vec![
        metric("busy_ns", busy, "ns"),
        metric("engine_ns", engine_ns, "ns"),
        metric("generator_ns", gen.generate.ns as f64, "ns"),
        metric("core_self_ns", core_ns, "ns"),
        metric("committed", committed, "count"),
        metric("traced_throughput_tps", traced_tps, "1/s"),
        metric("untraced_throughput_tps", untraced_tps, "1/s"),
        metric("spans_kept", l.spans_kept as f64, "count"),
        metric("spans_dropped", l.spans_dropped as f64, "count"),
    ];
    (main, extra)
}
