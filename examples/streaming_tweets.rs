//! Streaming entity annotation (§9.1.2): annotate a live tweet stream
//! whose trending entities shift over time — no precomputed statistics
//! could know the hot models in advance.
//!
//!     cargo run --release -p jl-bench --example streaming_tweets

use std::sync::Arc;

use jl_core::{OptimizerConfig, Strategy};
use jl_engine::plan::{JobPlan, JobTuple};
use jl_engine::{run_job, ClusterSpec, FeedMode, JobSpec};
use jl_simkit::time::SimDuration;
use jl_store::{DigestUdf, Partitioning, RegionMap, RowKey, StoreCluster, UdfRegistry};
use jl_workloads::{AnnotationWorkload, TweetStream};

fn main() {
    let cluster = ClusterSpec::default();
    let corpus = AnnotationWorkload::scaled_default(42);
    let mut stream = TweetStream::scaled_default(42);
    stream.count = 20_000;
    stream.rate_per_sec = 20_000.0;

    let mut store = StoreCluster::new(cluster.n_data);
    let part = Partitioning::head_spread(160, cluster.n_data * 4, corpus.vocab as u64);
    let table = store.add_table("models", RegionMap::round_robin(part, cluster.n_data));
    store.bulk_load(table, corpus.model_rows());

    let mut tuples = Vec::new();
    let mut seq = 0u64;
    let mut annotatable = 0u64;
    for (at, doc) in stream.generate() {
        if !doc.spots.is_empty() {
            annotatable += 1;
        }
        for spot in doc.spots {
            tuples.push(JobTuple {
                seq,
                keys: vec![RowKey::from_u64(spot.token)],
                params_size: spot.context_size,
                arrival: at,
            });
            seq += 1;
        }
    }
    println!(
        "{} tweets ({} annotatable, {} spots) arriving at {}/s",
        stream.count,
        annotatable,
        tuples.len(),
        stream.rate_per_sec
    );

    let mut udfs = UdfRegistry::new();
    udfs.register(0, Arc::new(DigestUdf { out_bytes: 96 }));
    for strategy in [Strategy::DataSide, Strategy::Full] {
        let mut store2 = StoreCluster::new(cluster.n_data);
        let part = Partitioning::head_spread(160, cluster.n_data * 4, corpus.vocab as u64);
        let t2 = store2.add_table("models", RegionMap::round_robin(part, cluster.n_data));
        store2.bulk_load(t2, corpus.model_rows());
        let job = JobSpec::new(
            cluster.clone(),
            OptimizerConfig::for_strategy(strategy),
            FeedMode::Stream {
                horizon: SimDuration::from_secs(10_000),
                window: 128,
            },
            JobPlan::single(t2, 0),
            42,
            0.002,
        );
        let report = run_job(&job, store2, udfs.clone(), tuples.clone(), vec![]);
        println!(
            "{:<4} drained in {:>7.2}s  -> {:>8.0} spots/s  (cache hits {} / bounced {})",
            strategy.label(),
            report.duration.as_secs_f64(),
            report.throughput(),
            report.decisions.mem_hits + report.decisions.disk_hits,
            report.decisions.bounced_local,
        );
    }
}
