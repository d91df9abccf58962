//! Pipelined multi-join (§6): run TPC-DS Q3 through the framework —
//! `store_sales ⋈ date_dim ⋈ item` — with per-key placement at every
//! stage, and compare against a shuffle-hash-join baseline.
//!
//!     cargo run --release -p jl-bench --example multi_join_tpcds

use std::collections::HashMap;
use std::sync::Arc;

use jl_core::{OptimizerConfig, Strategy};
use jl_engine::plan::{JobPlan, JobTuple, StageSpec};
use jl_engine::shuffle::run_shuffle_multijoin;
use jl_engine::{build_store, run_job, ClusterSpec, FeedMode, JobSpec};
use jl_simkit::time::SimTime;
use jl_store::{DigestUdf, RowKey, StoredValue, UdfRegistry};
use jl_workloads::TpcDsLite;

fn main() {
    let cluster = ClusterSpec::default();
    let mut ds = TpcDsLite::scaled_default(42);
    ds.fact_rows = 300_000;
    let q3 = TpcDsLite::queries()
        .into_iter()
        .find(|q| q.name == "Q3")
        .unwrap();

    let mut udfs = UdfRegistry::new();
    udfs.register(0, Arc::new(DigestUdf { out_bytes: 48 }));

    let plan = Arc::new(JobPlan {
        stages: q3
            .stages
            .iter()
            .enumerate()
            .map(|(i, s)| StageSpec {
                table: i,
                udf: 0,
                selectivity: s.selectivity,
            })
            .collect(),
    });
    let tuples: Vec<JobTuple> = ds
        .sales()
        .iter()
        .map(|s| JobTuple {
            seq: s.seq,
            keys: q3
                .stages
                .iter()
                .map(|st| RowKey::from_u64(s.fk(st.dim)))
                .collect(),
            params_size: 64,
            arrival: SimTime::ZERO,
        })
        .collect();
    println!(
        "Q3: {} store_sales facts ⋈ {} ({} rows) ⋈ {} ({} rows)",
        tuples.len(),
        q3.stages[0].dim.name(),
        ds.rows_of(q3.stages[0].dim),
        q3.stages[1].dim.name(),
        ds.rows_of(q3.stages[1].dim),
    );

    // Shuffle-hash-join baseline (Spark-SQL-like) on all 20 nodes.
    let dims: Vec<HashMap<RowKey, StoredValue>> = q3
        .stages
        .iter()
        .map(|s| ds.dimension_rows(s.dim).collect())
        .collect();
    let dim_refs: Vec<&HashMap<RowKey, StoredValue>> = dims.iter().collect();
    let spark = run_shuffle_multijoin(&cluster, &dim_refs, &udfs, &plan, &tuples, 200);
    println!("shuffle hash join: {:.2}s", spark.duration.as_secs_f64());

    // Our framework: dimensions indexed in the store, fact streamed.
    let tables = q3
        .stages
        .iter()
        .map(|s| (s.dim.name().to_string(), ds.dimension_rows(s.dim).collect()))
        .collect();
    let store = build_store(&cluster, tables);
    let job = JobSpec::new(
        cluster.clone(),
        OptimizerConfig::for_strategy(Strategy::Full),
        FeedMode::Batch { window: 512 },
        plan,
        42,
        3e-6,
    );
    let ours = run_job(&job, store, udfs, tuples, vec![]);
    println!(
        "our framework:     {:.2}s  (identical join output: {})",
        ours.duration.as_secs_f64(),
        ours.fingerprint == spark.fingerprint,
    );
}
