//! Ablation: frequency estimators — Lossy Counting (the paper's choice)
//! vs Space-Saving vs exact counts.
//!
//! Two views: offline accuracy/space on a raw Zipf stream, and an
//! end-to-end run where each estimator is plugged into the ski-rental
//! placement policy ([`SkiRentalPolicy::with_estimator`] via
//! [`JobSpec::policy`](jl_engine::JobSpec::policy)) so estimation error shows up as runtime, not just
//! as counting error.

use jl_bench::output::FigTable;
use jl_bench::{ablation_inputs, parse_args_full, scaled, BenchArgs, SyntheticCell};
use jl_core::{OptimizerConfig, SkiRentalPolicy};
use jl_engine::{run_job, ClusterSpec, EKey, PolicyFactory};
use jl_freq::{ExactCounter, FrequencyEstimator, LossyCounter, SpaceSaving};
use jl_simkit::rng::stream_rng;
use jl_workloads::{SyntheticSpec, Zipf};
use std::collections::HashMap;
use std::sync::Arc;

fn evaluate<E: FrequencyEstimator<u64>>(
    mut est: E,
    stream: &[u64],
    truth: &HashMap<u64, u64>,
) -> (usize, f64, f64) {
    for &k in stream {
        est.observe(k);
    }
    // Error over the true top-100 keys.
    let mut top: Vec<(&u64, &u64)> = truth.iter().collect();
    top.sort_by(|a, b| b.1.cmp(a.1));
    let mut err = 0.0;
    for (k, &t) in top.iter().take(100) {
        err += (est.estimate(k) as f64 - t as f64).abs() / t as f64;
    }
    // Heavy-hitter recall at 0.5% support.
    let hh: Vec<u64> = est
        .heavy_hitters(0.005)
        .into_iter()
        .map(|(k, _)| k)
        .collect();
    let support = (0.005 * stream.len() as f64) as u64;
    let should: Vec<&u64> = truth
        .iter()
        .filter(|(_, &c)| c >= support)
        .map(|(k, _)| k)
        .collect();
    let recall = if should.is_empty() {
        1.0
    } else {
        should.iter().filter(|k| hh.contains(k)).count() as f64 / should.len() as f64
    };
    (est.tracked(), err / 100.0, recall)
}

fn main() {
    let args = parse_args_full(1.0);
    let (scale, seed) = (args.scale, args.seed);
    let n = (1_000_000.0 * scale) as usize;
    let zipf = Zipf::new(100_000, 1.1);
    let mut rng = stream_rng(seed, "freq");
    let stream: Vec<u64> = (0..n).map(|_| zipf.sample(&mut rng) as u64).collect();
    let mut truth: HashMap<u64, u64> = HashMap::new();
    for &k in &stream {
        *truth.entry(k).or_insert(0) += 1;
    }
    let mut rows = Vec::new();
    let (space, err, recall) = evaluate(ExactCounter::new(), &stream, &truth);
    rows.push(("exact".to_string(), vec![space as f64, err, recall]));
    for eps in [1e-3, 1e-4] {
        let (space, err, recall) = evaluate(LossyCounter::new(eps), &stream, &truth);
        rows.push((format!("lossy eps={eps}"), vec![space as f64, err, recall]));
    }
    for cap in [1_000, 10_000] {
        let (space, err, recall) = evaluate(SpaceSaving::new(cap), &stream, &truth);
        rows.push((
            format!("spacesaving k={cap}"),
            vec![space as f64, err, recall],
        ));
    }
    let t = FigTable {
        title: format!("Ablation — frequency estimators on a Zipf(1.1) stream of {n} tuples"),
        row_label: "estimator".into(),
        columns: vec![
            "entries".into(),
            "top-100 rel err".into(),
            "HH recall".into(),
        ],
        rows,
    };
    println!("{}", t.render());
    println!();
    end_to_end(&args);
}

/// Run the DCH job once per estimator, plugged directly into the
/// ski-rental policy.
fn end_to_end(args: &BenchArgs) {
    let cell = SyntheticCell {
        cluster: ClusterSpec::default(),
        ..SyntheticCell::new(scaled(SyntheticSpec::dch(), args.scale), 1.0, args.seed)
    };
    let factories: Vec<(&str, PolicyFactory)> = vec![
        (
            "lossy (paper)",
            Arc::new(|cfg: &OptimizerConfig, _| {
                Box::new(SkiRentalPolicy::with_estimator(
                    LossyCounter::<EKey>::new(cfg.lossy_epsilon),
                    cfg.ski_threshold_scale,
                ))
            }),
        ),
        (
            "spacesaving k=10000",
            Arc::new(|cfg: &OptimizerConfig, _| {
                Box::new(SkiRentalPolicy::with_estimator(
                    SpaceSaving::<EKey>::new(10_000),
                    cfg.ski_threshold_scale,
                ))
            }),
        ),
        (
            "exact",
            Arc::new(|cfg: &OptimizerConfig, _| {
                Box::new(SkiRentalPolicy::with_estimator(
                    ExactCounter::<EKey>::new(),
                    cfg.ski_threshold_scale,
                ))
            }),
        ),
    ];
    let mut rows = Vec::new();
    for (label, factory) in factories {
        let (mut job, store, udfs, tuples) = ablation_inputs(&cell);
        job.policy = Some(factory);
        let r = run_job(&job, store, udfs, tuples, vec![]);
        rows.push((
            label.to_string(),
            vec![
                r.duration.as_secs_f64(),
                r.decisions.data_requests as f64,
                r.decisions.mem_hits as f64 + r.decisions.disk_hits as f64,
            ],
        ));
    }
    let t = FigTable {
        title: "Ablation — estimator inside ski-rental placement (DCH, z=1)".into(),
        row_label: "estimator".into(),
        columns: vec!["time (s)".into(), "buys".into(), "cache hits".into()],
        rows,
    };
    println!("{}", t.render());
    args.write_trace();
}
