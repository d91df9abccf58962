//! Quickstart: run one skewed join through the full optimizer and compare
//! it against the naive baseline — the paper's pitch in 80 lines.
//!
//!     cargo run --release -p jl-bench --example quickstart

use std::sync::Arc;

use jl_core::{OptimizerConfig, Strategy};
use jl_engine::plan::{JobPlan, JobTuple};
use jl_engine::{build_store, reference_run, run_job, ClusterSpec, FeedMode, JobSpec};
use jl_simkit::rng::stream_rng;
use jl_simkit::time::SimTime;
use jl_store::{DigestUdf, RowKey, UdfRegistry};
use jl_workloads::{KeyStream, SyntheticSpec};

fn main() {
    // A 20-node cluster: 10 compute nodes (the application) and 10 data
    // nodes (the HBase-like store), as in the paper's evaluation.
    let cluster = ClusterSpec::default();

    // The stored relation: 20k rows of ~100 KB, indexed by key.
    let spec = SyntheticSpec::dh();
    let rows: Vec<_> = spec.rows(1).collect();

    // The streaming relation: 30k tuples with Zipf(1.0)-skewed join keys.
    let mut ks = KeyStream::new(spec.n_keys as usize, 1.0, 7);
    let mut rng = stream_rng(7, "quickstart");
    let tuples: Vec<JobTuple> = (0..30_000u64)
        .map(|seq| JobTuple {
            seq,
            keys: vec![RowKey::from_u64(ks.next_key(&mut rng))],
            params_size: 128,
            arrival: SimTime::ZERO,
        })
        .collect();

    // The UDF computed on each joined tuple (a verifiable digest).
    let mut udfs = UdfRegistry::new();
    udfs.register(0, Arc::new(DigestUdf { out_bytes: 256 }));
    let plan = JobPlan::single(0, 0);

    // What any correct execution must produce.
    let store = build_store(&cluster, vec![("table".into(), rows.clone())]);
    let reference = reference_run(&store, &udfs, &plan, &tuples);

    for strategy in [Strategy::NoOpt, Strategy::Full] {
        let store = build_store(&cluster, vec![("table".into(), rows.clone())]);
        let job = JobSpec::new(
            cluster.clone(),
            OptimizerConfig::for_strategy(strategy),
            FeedMode::Batch { window: 128 },
            Arc::clone(&plan),
            7,
            spec.udf_cpu.as_secs_f64(),
        );
        let report = run_job(&job, store, udfs.clone(), tuples.clone(), vec![]);
        assert_eq!(
            report.fingerprint,
            reference.fingerprint,
            "{} computed a different join!",
            strategy.label()
        );
        println!(
            "{:<4} finished in {:>8.3}s  ({:>9.0} tuples/s)  mem hits: {:>6}  \
             compute reqs: {:>6}  data reqs: {:>5}",
            strategy.label(),
            report.duration.as_secs_f64(),
            report.throughput(),
            report.decisions.mem_hits,
            report.decisions.compute_requests,
            report.decisions.data_requests,
        );
    }
    println!("both strategies produced the identical join output ✓");
}
