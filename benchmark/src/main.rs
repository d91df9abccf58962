//! The repo benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --seed 42
//! ```
//!
//! runs the six workloads (each in a child process of its own, tracing off,
//! then once more traced), checks every output against the reference join,
//! and prints every metric of `BENCHMARK.json` by name with its unit.
//!
//! * `--workload NAME --seed N --seconds S --trace 0|1` runs one workload in
//!   this process and ends with one JSON line (what the driver calls);
//! * `--runs N --out FILE` repeats every workload on `N` seeds and saves the
//!   values; `--compare A.json B.json` holds two such files against the
//!   bounds.
//!
//! See `benchmark/README.md` for the workloads and the metric catalogue.

mod catalog;
mod cells;
mod compare;
mod host;
mod serve;
mod simrun;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};

use catalog::{Metrics, Row, END_TO_END, PER_LAYER};
use host::Spans;
use workloads::{Scale, WORKLOADS};

/// What one run of one workload produced.
pub struct Outcome {
    /// Tuples (or requests) offered, and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    /// What the correctness gate found wrong; empty when correct.
    pub errors: Vec<String>,
    pub metrics: Metrics,
    /// Timed repetitions behind the medians.
    pub samples: usize,
}

/// Set-ups behind every `setup_s`: each repetition sets up once, and a run
/// tops that up to this many, because one set-up is short and a median of
/// few short timings drifts.
pub const SETUP_SAMPLES: usize = 21;

/// Where the traces and host spans of a traced run go.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Run one workload in this process.
pub fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    out: &Path,
) -> Outcome {
    let mut spans = Spans::new(name);
    if trace {
        std::fs::create_dir_all(out).expect("create the trace directory");
    }
    let outcome = match (name, trace) {
        ("serve_open", false) => serve::run_untraced(seed, seconds, scale, &mut spans),
        ("serve_open", true) => serve::run_traced(seed, seconds, scale, &mut spans, out),
        (_, false) => simrun::run_untraced(name, seed, seconds, scale, &mut spans),
        (_, true) => simrun::run_traced(name, seed, seconds, scale, &mut spans, out),
    };
    if trace {
        let path = out.join(format!("{name}.hostspans.json"));
        std::fs::write(&path, spans.to_json()).expect("write the host spans");
    }
    outcome
}

/// The metric rows a run prints: end-to-end with tracing off, per-layer
/// with it on. A run whose every session failed measured nothing.
fn rows(outcome: &Outcome, trace: bool) -> Vec<Row> {
    if trace {
        outcome.metrics.rows(PER_LAYER)
    } else if outcome.metrics.get("setup_s").is_some() {
        outcome.metrics.rows(END_TO_END)
    } else {
        Vec::new()
    }
}

/// The one JSON line the driver reads.
fn result_line(outcome: &Outcome, rows: &[Row]) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.errors.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn usage() -> ! {
    eprintln!(
        "usage: jl-benchmark [--seed N] [--seconds S] [--workload NAME --trace 0|1]\n\
         \x20                   [--runs N] [--out FILE] | --compare A.json B.json\n\
         workloads: {}",
        WORKLOADS.join(" ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 14.0,
        trace: false,
        runs: 1,
        out: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    let value = |it: &mut dyn Iterator<Item = String>| it.next().unwrap_or_else(|| usage());
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value(&mut it);
                if !WORKLOADS.contains(&name.as_str()) {
                    usage();
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = value(&mut it).parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.seconds = value(&mut it).parse().unwrap_or_else(|_| usage());
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    usage();
                }
            }
            "--trace" => {
                args.trace = match value(&mut it).as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--runs" => {
                args.runs = value(&mut it).parse().unwrap_or_else(|_| usage());
                if !(1..=100).contains(&args.runs) {
                    usage();
                }
            }
            "--out" => args.out = Some(PathBuf::from(value(&mut it))),
            "--compare" => {
                args.compare = Some((PathBuf::from(value(&mut it)), PathBuf::from(value(&mut it))));
            }
            _ => usage(),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    if let Some((a, b)) = &args.compare {
        std::process::exit(compare::compare(a, b));
    }
    let Some(name) = &args.workload else {
        std::process::exit(compare::suite(
            args.seed,
            args.seconds,
            args.runs,
            args.out.as_deref(),
        ));
    };
    let outcome = run_workload(
        name,
        args.seed,
        args.seconds,
        args.trace,
        Scale::FULL,
        &out_dir(),
    );
    let rows = rows(&outcome, args.trace);
    for (metric, value, unit) in &rows {
        println!("{name} {metric} {value} {unit}");
    }
    println!(
        "{name} checked {} of {} ok over {} timed repetitions",
        outcome.attempted - outcome.failed.min(outcome.attempted),
        outcome.attempted,
        outcome.samples
    );
    for error in &outcome.errors {
        eprintln!("{name}: FAILED: {error}");
    }
    println!("{}", result_line(&outcome, &rows));
    if !outcome.errors.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests;
