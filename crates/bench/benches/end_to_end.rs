//! End-to-end simulation benchmarks: how much wall-clock the harness needs
//! per simulated join tuple, per strategy. This bounds how large a paper-
//! scale experiment the repository can regenerate per minute.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use jl_core::{OptimizerConfig, Strategy};
use jl_engine::plan::{JobPlan, JobTuple};
use jl_engine::{build_store, run_job, ClusterSpec, FeedMode, JobSpec};
use jl_simkit::rng::stream_rng;
use jl_simkit::time::SimTime;
use jl_store::{DigestUdf, RowKey, UdfRegistry};
use jl_workloads::SyntheticSpec;
use std::sync::Arc;

fn bench_run_job(c: &mut Criterion) {
    let mut group = c.benchmark_group("run_job_ch_2k_tuples");
    group.sample_size(10);
    for strategy in [Strategy::DataSide, Strategy::Full] {
        group.bench_with_input(
            BenchmarkId::from_parameter(strategy.label()),
            &strategy,
            |b, &strategy| {
                let mut spec = SyntheticSpec::ch();
                spec.n_tuples = 2_000;
                let cluster = ClusterSpec::default();
                let mut rng = stream_rng(3, "bench");
                let tuples: Vec<JobTuple> = spec
                    .tuples(1.0, 1, &mut rng, 3)
                    .into_iter()
                    .map(|t| JobTuple {
                        seq: t.seq,
                        keys: vec![RowKey::from_u64(t.key)],
                        params_size: t.params_size,
                        arrival: SimTime::ZERO,
                    })
                    .collect();
                let rows: Vec<_> = spec.rows(1).collect();
                b.iter(|| {
                    let store = build_store(&cluster, vec![("t".into(), rows.clone())]);
                    let mut udfs = UdfRegistry::new();
                    udfs.register(0, Arc::new(DigestUdf { out_bytes: 256 }));
                    let job = JobSpec::new(
                        cluster.clone(),
                        OptimizerConfig::for_strategy(strategy),
                        FeedMode::Batch { window: 128 },
                        JobPlan::single(0, 0),
                        3,
                        spec.udf_cpu.as_secs_f64(),
                    );
                    run_job(&job, store, udfs, tuples.clone(), vec![])
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_run_job);
criterion_main!(benches);
