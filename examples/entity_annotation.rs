//! Entity annotation (§2.1): join a document corpus against a store of
//! per-token ML models and classify every mention — the paper's running
//! example, with per-key ski-rental placement.
//!
//!     cargo run --release -p jl-bench --example entity_annotation

use std::sync::Arc;

use jl_core::{OptimizerConfig, Strategy};
use jl_engine::plan::{JobPlan, JobTuple};
use jl_engine::{run_job, ClusterSpec, FeedMode, JobSpec};
use jl_simkit::time::SimTime;
use jl_store::{DigestUdf, Partitioning, RegionMap, RowKey, StoreCluster, UdfRegistry};
use jl_workloads::AnnotationWorkload;

fn main() {
    let cluster = ClusterSpec::default();
    let mut corpus = AnnotationWorkload::scaled_default(42);
    corpus.docs = 400; // keep the example quick

    println!(
        "corpus: {} documents, vocabulary of {} models totalling {:.1} GB (simulated)",
        corpus.docs,
        corpus.vocab,
        corpus.total_model_bytes() as f64 / 1e9
    );

    // Models live in the store, spread so the giant head models don't
    // colocate (what HBase's balancer would do).
    let mut store = StoreCluster::new(cluster.n_data);
    let part = Partitioning::head_spread(160, cluster.n_data * 4, corpus.vocab as u64);
    let table = store.add_table("models", RegionMap::round_robin(part, cluster.n_data));
    store.bulk_load(table, corpus.model_rows());

    // One tuple per spot.
    let mut tuples = Vec::new();
    let mut seq = 0u64;
    for doc in corpus.documents() {
        for spot in doc.spots {
            tuples.push(JobTuple {
                seq,
                keys: vec![RowKey::from_u64(spot.token)],
                params_size: spot.context_size,
                arrival: SimTime::ZERO,
            });
            seq += 1;
        }
    }
    println!("spots to annotate: {}", tuples.len());

    let mut udfs = UdfRegistry::new();
    udfs.register(0, Arc::new(DigestUdf { out_bytes: 96 }));
    let mut optimizer = OptimizerConfig::for_strategy(Strategy::Full);
    optimizer.mem_cache_bytes = 10 << 20;
    let job = JobSpec::new(
        cluster.clone(),
        optimizer,
        FeedMode::Batch { window: 128 },
        JobPlan::single(table, 0),
        42,
        0.002,
    );
    let report = run_job(&job, store, udfs, tuples, vec![]);
    println!(
        "annotated {} spots in {:.2}s ({:.0} spots/s)",
        report.completed,
        report.duration.as_secs_f64(),
        report.throughput()
    );
    println!(
        "placement: {} memory hits, {} disk-cache hits, {} compute requests \
         ({} executed at data nodes, {} bounced back), {} models fetched",
        report.decisions.mem_hits,
        report.decisions.disk_hits,
        report.decisions.compute_requests,
        report.data.executed_here,
        report.data.bounced,
        report.decisions.data_requests,
    );
}
