//! The five simulated workloads: timed repetitions with tracing off, and
//! the traced run that feeds the per-layer metrics.

use std::time::{Duration, Instant};

use jl_engine::{reference_run, run_job, run_job_parallel, run_job_traced, RunReport};
use jl_simkit::rng::splitmix64;
use jl_simkit::stats::DurationHistogram;
use jl_telemetry::{Metric, RunTelemetry, TelemetryConfig};

use crate::catalog::Metrics;
use crate::cells;
use crate::host::{peak_rss_mb, reset_peak_rss, Spans};
use crate::stats::median;
use crate::workloads::{sim_inputs, Scale, SimInputs};
use crate::Outcome;

/// Repetitions every run makes whatever `--seconds` says; the simulated
/// (exact) metrics are medians over exactly these, so they repeat
/// bit-for-bit for a seed however fast the host is.
const MIN_REPS: usize = 3;

/// Input seed of repetition `rep`: the run's own seed first, then seeds
/// derived from it. One run thereby covers several draws of the input, and
/// its medians move less from seed to seed than one draw does (the event
/// count of one `dh_batch` draw swings ±15 % on sampling noise alone).
fn rep_seed(seed: u64, rep: usize) -> u64 {
    if rep == 0 {
        return seed;
    }
    let mut state = seed ^ (rep as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut state)
}

/// One repetition's inputs plus what it cost to make them.
struct Prepared {
    inputs: SimInputs,
    setup_s: f64,
    bulk_load_s: f64,
}

/// Generate the inputs and load the store once, timed as `setup` (the
/// store itself is dropped: the engine consumes a fresh one per run).
fn prepare(name: &str, seed: u64, scale: Scale, spans: &mut Spans) -> Prepared {
    let ((inputs, bulk_load_s), setup_s) = spans.time("setup", |spans| {
        let (inputs, _) = spans.time("gen_tuples", |_| {
            sim_inputs(name, seed, scale).expect("a simulated workload")
        });
        let (_, bulk_load_s) = spans.time("build_store", |_| inputs.store());
        (inputs, bulk_load_s)
    });
    Prepared {
        inputs,
        setup_s,
        bulk_load_s,
    }
}

/// One timed call into the engine.
struct Timed {
    report: RunReport,
    wall_s: f64,
}

/// Run the job once on a fresh store; only the `run_job*` call is timed.
fn execute(inputs: &SimInputs, shards: Option<usize>, spans: &mut Spans) -> Timed {
    let store = inputs.store();
    let udfs = inputs.udfs();
    let tuples = inputs.tuples.clone();
    let updates = inputs.updates.clone();
    let (report, wall_s) = spans.time("run_job", |_| match shards {
        None => run_job(&inputs.job, store, udfs, tuples, updates),
        Some(n) => run_job_parallel(&inputs.job, store, udfs, tuples, updates, n),
    });
    Timed { report, wall_s }
}

/// Check one run against the reference join. Returns how many of its
/// tuples count as failed, and pushes what went wrong onto `errors`.
fn verify(
    inputs: &SimInputs,
    report: &RunReport,
    spans: &mut Spans,
    errors: &mut Vec<String>,
) -> u64 {
    let offered = inputs.tuples.len() as u64;
    let (reference, _) = spans.time("verify", |_| {
        reference_run(
            &inputs.store(),
            &inputs.udfs(),
            &inputs.job.plan,
            &inputs.tuples,
        )
    });
    let before = errors.len();
    if report.completed != offered {
        errors.push(format!("completed {} of {offered}", report.completed));
    }
    if inputs.updates.is_empty() {
        if report.fingerprint != reference.fingerprint {
            errors.push("join fingerprint differs from reference_run".into());
        }
    } else {
        // With writes landing mid-run the output depends on the schedule;
        // what must hold is that they took effect.
        if report.fingerprint == reference.fingerprint {
            errors.push("updates left the join output unchanged".into());
        }
        if report.cache.invalidations == 0 {
            errors.push("updates invalidated nothing".into());
        }
    }
    if report.retries + report.shed + report.gave_up != 0 {
        errors.push(format!(
            "retries {} shed {} gave_up {} on a healthy cluster",
            report.retries, report.shed, report.gave_up
        ));
    }
    if errors.len() > before {
        offered
    } else {
        0
    }
}

/// Two runs of the same inputs must agree on everything the simulator
/// computes — run twice serially (determinism) or serial vs parallel.
fn same_simulation(a: &RunReport, b: &RunReport, errors: &mut Vec<String>) {
    if (
        a.fingerprint,
        a.sim_events,
        a.duration,
        a.completed,
        a.net_bytes,
    ) != (
        b.fingerprint,
        b.sim_events,
        b.duration,
        b.completed,
        b.net_bytes,
    ) {
        errors.push(format!(
            "two runs of one input disagree: fingerprint {:016x}/{:016x}, events {}/{}, \
             duration {:?}/{:?}",
            a.fingerprint, b.fingerprint, a.sim_events, b.sim_events, a.duration, b.duration
        ));
    }
}

/// `--trace 0`: repetitions of `run_job*` for `seconds`, tracing off.
pub fn run_untraced(
    name: &str,
    seed: u64,
    seconds: f64,
    scale: Scale,
    spans: &mut Spans,
) -> Outcome {
    let mut errors = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut setup, mut host_tps, mut rss_mb) = (Vec::new(), Vec::new(), Vec::new());
    let (mut sim_tps, mut p99_ms) = (Vec::new(), Vec::new());

    // Untimed warm-up at a tenth of the size: code pages, allocator arenas.
    spans.set_id(format!("{name}/warm_up"));
    let small = prepare(name, seed, Scale(scale.0 * 0.1), spans);
    spans.time("warm_up", |s| {
        execute(&small.inputs, small.inputs.shards, s)
    });
    drop(small);

    let started = Instant::now();
    let mut rep = 0;
    while rep < MIN_REPS || started.elapsed() < Duration::from_secs_f64(seconds) {
        spans.set_id(format!("{name}/{rep}"));
        reset_peak_rss();
        let p = prepare(name, rep_seed(seed, rep), scale, spans);
        let run = execute(&p.inputs, p.inputs.shards, spans);
        rss_mb.push(peak_rss_mb());
        // A parallel run must reproduce the serial kernel exactly; one
        // untimed serial run of the first input says whether it does.
        if rep == 0 && p.inputs.shards.is_some() {
            let serial = spans
                .time("serial_check", |s| execute(&p.inputs, None, s))
                .0;
            same_simulation(&serial.report, &run.report, &mut errors);
        }
        attempted += p.inputs.tuples.len() as u64;
        failed += verify(&p.inputs, &run.report, spans, &mut errors);

        let done = run.report.completed as f64;
        setup.push(p.setup_s);
        host_tps.push(done / run.wall_s);
        if rep < MIN_REPS {
            sim_tps.push(run.report.throughput());
            p99_ms.push(run.report.p99_latency.as_secs_f64() * 1e3);
        }
        rep += 1;
    }

    // Setting up takes tens of milliseconds, too little for a median of
    // four to six: set up some more times, on further input seeds.
    spans.set_id(format!("{name}/setup_only"));
    while setup.len() < crate::SETUP_SAMPLES {
        setup.push(prepare(name, rep_seed(seed, setup.len()), scale, spans).setup_s);
    }

    let mut metrics = Metrics::default();
    metrics.set("setup_s", median(&setup));
    metrics.set("host_tuples_per_s", median(&host_tps));
    metrics.set("sim_tuples_per_s", median(&sim_tps));
    metrics.set("tuple_p99_ms", median(&p99_ms));
    metrics.set("peak_rss_mb", median(&rss_mb));
    Outcome {
        attempted,
        failed,
        errors,
        metrics,
        samples: rep,
    }
}

/// Largest value over the data nodes of a utilisation gauge.
fn max_util(tel: &RunTelemetry, inputs: &SimInputs, scopes: &[&'static str]) -> f64 {
    let cluster = &inputs.job.cluster;
    let mut max = 0.0f64;
    for j in 0..cluster.n_data {
        for scope in scopes {
            if let Some(Metric::Gauge(u)) =
                tel.registry
                    .get(cluster.data_id(j) as u32, scope, "utilization")
            {
                max = max.max(*u);
            }
        }
    }
    max
}

/// Sum of a counter over every node.
fn counter_sum(tel: &RunTelemetry, scope: &str, name: &str) -> f64 {
    tel.registry
        .iter()
        .filter(|((_, s, n), _)| *s == scope && *n == name)
        .map(|(_, m)| match m {
            Metric::Counter(c) => *c as f64,
            _ => 0.0,
        })
        .sum()
}

/// `--trace 1`: a few untraced repetitions for the denominators, one
/// repetition through `run_job_traced` with spans on, then the layer
/// cells over this workload's own key and size stream.
pub fn run_traced(
    name: &str,
    seed: u64,
    seconds: f64,
    scale: Scale,
    spans: &mut Spans,
    out_dir: &std::path::Path,
) -> Outcome {
    let mut errors = Vec::new();
    spans.set_id(format!("{name}/traced"));
    let mut p = prepare(name, seed, scale, spans);
    let inputs = &p.inputs;

    // Untraced: one serial warm-up (timed only as the parallel workload's
    // baseline), then repetitions on the workload's own kernel for about
    // a third of the budget.
    let serial = spans.time("warm_up", |s| execute(inputs, None, s)).0;
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut last = None;
    while walls.is_empty() || started.elapsed().as_secs_f64() < seconds / 3.0 {
        let run = execute(inputs, inputs.shards, spans);
        same_simulation(&serial.report, &run.report, &mut errors);
        walls.push(run.wall_s);
        last = Some(run.report);
    }
    let report = last.expect("at least one repetition");
    let attempted = inputs.tuples.len() as u64;
    let failed = verify(inputs, &report, spans, &mut errors);
    let run_wall_s = median(&walls);
    let serial_wall_s = if inputs.shards.is_some() {
        serial.wall_s
    } else {
        run_wall_s
    };

    // Traced, serial, spans on. The trace is written outside the timing.
    p.inputs.job.telemetry = Some(TelemetryConfig::default());
    let inputs = &p.inputs;
    let store = inputs.store();
    let (udfs, tuples, updates) = (inputs.udfs(), inputs.tuples.clone(), inputs.updates.clone());
    let ((traced_report, tel), traced_wall_s) = spans.time("run_job_traced", |_| {
        run_job_traced(&inputs.job, store, udfs, tuples, updates)
    });
    p.inputs.job.telemetry = None;
    let inputs = &p.inputs;
    let tel = tel.expect("telemetry was requested");
    same_simulation(&report, &traced_report, &mut errors);
    spans.time("write_trace", |_| {
        let path = out_dir.join(format!("{name}.trace.json"));
        if let Err(e) = std::fs::write(&path, tel.to_chrome_json()) {
            errors.push(format!("cannot write {}: {e}", path.display()));
        }
    });

    let done = report.completed as f64;
    let d = &report.decisions;
    let c = &report.cache;
    let remote = (d.compute_requests + d.data_requests) as f64;
    let mut m = Metrics::default();
    m.set("simkit.events_per_tuple", report.sim_events as f64 / done);
    m.set(
        "simkit.host_ns_per_event",
        run_wall_s * 1e9 / report.sim_events as f64,
    );
    m.set("simkit.net_bytes_per_tuple", report.net_bytes as f64 / done);
    m.set(
        "simkit.net_msgs_per_tuple",
        report.net_messages as f64 / done,
    );
    m.set("simkit.data_cpu_util_max", max_util(&tel, inputs, &["cpu"]));
    m.set(
        "simkit.data_nic_util_max",
        max_util(&tel, inputs, &["nic_in", "nic_out"]),
    );
    m.set(
        "simkit.data_disk_util_max",
        max_util(&tel, inputs, &["disk"]),
    );
    if inputs.shards.is_some() {
        m.set("simkit.par2_speedup", serial.wall_s / run_wall_s);
    }
    m.set("telemetry.overhead_ratio", traced_wall_s / serial_wall_s);
    m.set("telemetry.trace_events", tel.events.len() as f64);
    m.set(
        "skirental.buy_share",
        d.data_requests as f64 / remote.max(1.0),
    );
    m.set(
        "cache.hit_ratio",
        (c.mem_hits + c.disk_hits) as f64 / (c.mem_hits + c.disk_hits + c.misses).max(1) as f64,
    );
    m.set(
        "cache.inserts_per_tuple",
        (c.inserts_mem + c.inserts_disk) as f64 / done,
    );
    m.set("cache.demotions_per_tuple", c.demotions as f64 / done);
    m.set("cache.invalidations", c.invalidations as f64);
    m.set(
        "loadbalance.solves_per_tuple",
        report.data.batches as f64 / done,
    );
    m.set(
        "loadbalance.bounced_share",
        report.data.bounced as f64 / report.data.compute_requests.max(1) as f64,
    );
    m.set("store.bulk_load_s", p.bulk_load_s);
    m.set(
        "store.gets_per_tuple",
        counter_sum(&tel, "store", "gets") / done,
    );
    m.set("store.puts", counter_sum(&tel, "store", "puts"));
    m.set(
        "core.batch_fill",
        remote / (report.data.batches.max(1) as f64 * inputs.job.optimizer.batch_size as f64),
    );
    m.set("engine.data_cpu_skew", report.data_cpu_skew());
    let mut latency = DurationHistogram::new();
    for (_, metric) in tel
        .registry
        .iter()
        .filter(|((_, s, n), _)| *s == "latency" && *n == "tuple")
    {
        if let Metric::Hist(h) = metric {
            latency.merge(h);
        }
    }
    m.set(
        "engine.sim_p50_ms",
        latency.quantile(0.5).as_secs_f64() * 1e3,
    );
    m.set("engine.sim_p99_ms", report.p99_latency.as_secs_f64() * 1e3);
    m.set("engine.retries", report.retries as f64);
    m.set("engine.shed", report.shed as f64);
    m.set("engine.gave_up", report.gave_up as f64);
    drop(tel);

    // What is left of the budget goes to the layer cells, evenly.
    let left = (seconds - started.elapsed().as_secs_f64()).max(seconds / 4.0);
    cells::sim_cells(inputs, &report, run_wall_s, left, spans, &mut m);

    Outcome {
        attempted,
        failed,
        errors,
        metrics: m,
        samples: walls.len(),
    }
}
