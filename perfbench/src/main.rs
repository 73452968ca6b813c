//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload on the live runtime and prints, as its last line, one
//! JSON object: `correct`, `attempted`, `failed`, and the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). The line
//! before it is the full record: provenance and every measured figure.

use perfbench::measure::{Metric, Traces, BACKEND, ROUND, WARMUP, WORKERS};
use perfbench::workload::{Micro, Subject, Tpcc, NAMES};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <micro-sp|micro-mp-spec|micro-mp-lock|tpcc> \
                     --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a whole number: {value:?}"))
            };
            match flag.as_str() {
                "--workload" if NAMES.contains(&value.as_str()) => workload = Some(value.clone()),
                "--workload" => return Err(format!("unknown workload {value:?}")),
                "--seed" => seed = Some(number()?),
                "--seconds" if number()? >= 1 => seconds = Some(number()?),
                "--seconds" => return Err("--seconds must be at least 1".into()),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    })
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload.as_str() {
        "tpcc" => run_and_print(&Tpcc::new(args.seed), &args),
        name => run_and_print(
            &Micro::new(name, args.seed).expect("parse accepts only known workloads"),
            &args,
        ),
    }
    ExitCode::SUCCESS
}

/// Measure `s`, write the traced run's spans, and print the record and the
/// result lines.
fn run_and_print<S: Subject>(s: &S, args: &Args) {
    let out = perfbench::measure::bench(s, args.seconds, args.trace);
    if let Some(path) = out.traces.as_ref().and_then(|t| write_trace(args, t)) {
        eprintln!("perfbench: spans written to {path}");
    }
    let errors: Vec<&String> = out.checks.iter().filter_map(|c| c.as_ref().err()).collect();
    for e in &errors {
        eprintln!("perfbench: {}: check failed: {e}", args.workload);
    }
    let correct = errors.is_empty();
    let system = s.system();
    println!(
        "{{\"record\": {{\"mode\": \"live\", \"workload\": \"{}\", \"seed\": {}, \
         \"git_rev\": \"{}\", \"nproc\": {}, \"backend\": \"{BACKEND}\", \"workers\": {WORKERS}, \
         \"scheme\": \"{}\", \"partitions\": {}, \"clients\": {}, \"rounds\": {}, \
         \"round_s\": {}, \"warmup_s\": {}, \"traced\": {}, \"correct\": {correct}, \"errors\": [{}], \
         \"metrics\": {}, \"extra\": {}}}}}",
        args.workload,
        args.seed,
        escape(&git_rev()),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        system.scheme,
        system.partitions,
        system.clients,
        args.seconds,
        ROUND.as_secs_f64(),
        WARMUP.as_secs_f64(),
        args.trace,
        errors
            .iter()
            .map(|e| format!("\"{}\"", escape(e)))
            .collect::<Vec<_>>()
            .join(", "),
        metrics_json(&out.metrics),
        metrics_json(&out.extra),
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        metrics_json(&out.metrics)
    );
}

/// Write the traced run's spans under the build directory; returns the
/// path, or `None` (with a warning) when it could not be written.
fn write_trace(args: &Args, traces: &Traces) -> Option<String> {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
    let dir = std::path::Path::new(&dir).join("perfbench-trace");
    let path = dir.join(format!("{}-seed{}.tsv", args.workload, args.seed));
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        traces.write_spans(&mut f)?;
        std::io::Write::flush(&mut f)
    });
    match written {
        Ok(()) => Some(path.display().to_string()),
        Err(e) => {
            eprintln!("perfbench: spans not written to {}: {e}", path.display());
            None
        }
    }
}

fn metrics_json(ms: &[Metric]) -> String {
    let fields: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// The commit the benchmark was built from, read from `.git` in the
/// working directory without running git; "unknown" outside a checkout
/// with its git directory.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(name) {
        return rev.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, r) = l.split_once(' ')?;
                (r == name).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
